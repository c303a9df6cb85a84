//! Level-checkpoint recovery for the Theorem 1.3 merge tree.
//!
//! The bottom-up pipeline already materializes, per level, every node's sorted
//! value set and seaweed kernel (the [`crate::witness`] trace). Under a fault
//! plan with kills ([`mpc_runtime::FaultPlan`]) those snapshots double as
//! **checkpoints**: after a level is produced, each node's `3|V|`-word
//! footprint (values + `2|V|`-entry kernel) is replicated onto a neighbor
//! machine in one shuffle ([`mpc_runtime::costs::CHECKPOINT`]), so a machine
//! crash never destroys the only copy.
//!
//! Placement is deterministic: merge-tree node `i` of any level is resident on
//! machine `i mod m` ([`machine_of_node`]), its replica on machine
//! `(i + 1) mod m` — which is why kills require `m ≥ 2`
//! ([`mpc_runtime::Cluster::new`] enforces this). When the pipeline drains a
//! kill ([`mpc_runtime::Cluster::poll_kills`]) it genuinely destroys the lost
//! nodes and re-derives them, in `O(1)` extra rounds per fault:
//!
//! * **Base level** ([`repair_base`], scope `recovery-base`): the input is
//!   durable (re-readable from distributed storage, as in any production MPC
//!   deployment), so the lost blocks are re-combed from their input elements
//!   with the same `group_map` the base phase ran — on just those blocks.
//! * **Merge level L** ([`repair_level`], scope `recovery-L<k>`): the lost
//!   pairs' children are refetched from their level-(L−1) checkpoint replicas
//!   (one [`mpc_runtime::costs::RESTORE`] shuffle), and the pairs' `⊡` merges
//!   are re-run for real with one batched [`monge_mpc::mul_batch`] on just the
//!   lost pairs; a lost pass-through node is a pure replica copy.
//! * **Witness descent** ([`restore_for_witness`], scope
//!   `recovery-witness-L<k>`): the descent's resident data *are* the
//!   checkpoints, so a kill only costs the replica restore; the in-flight
//!   split queries are re-derived deterministically from the level above.
//!
//! Because every re-derivation runs the same deterministic kernels on the same
//! checkpointed operands, recovered lengths and witnesses are **bit-identical**
//! to the fault-free run at every thread count, and the repaired run stays
//! strict (zero space violations) — the chaos harness and
//! `tests/properties.rs` assert exactly this.

use crate::lis::{blocks_from_entries, comb_block_entries, prepare_merge, Block};
use crate::witness::TraceNode;
use monge_mpc::MulParams;
use mpc_runtime::{costs, Cluster};
use seaweed_lis::kernel::{compose_from_product, SeaweedKernel};

/// Deterministic placement: merge-tree node `idx` (of any level) is resident
/// on machine `idx mod m`; its checkpoint replica lives on `(idx + 1) mod m`.
pub(crate) fn machine_of_node(idx: usize, machines: usize) -> usize {
    idx % machines.max(1)
}

/// Indices of the nodes (out of `count`) resident on any killed machine.
pub(crate) fn lost_nodes(count: usize, killed: &[usize], machines: usize) -> Vec<usize> {
    (0..count)
        .filter(|&i| killed.contains(&machine_of_node(i, machines)))
        .collect()
}

/// Checkpoint footprint of one node: its value set plus its kernel entries.
fn footprint(values: usize, kernel: &SeaweedKernel) -> u64 {
    (values + kernel.checkpoint_entries()) as u64
}

/// Replicates a freshly produced level's checkpoints onto neighbor machines:
/// one shuffle carrying every node's footprint, charged under the current
/// scope's `checkpoint` phase.
pub(crate) fn checkpoint_blocks(cluster: &mut Cluster, blocks: &[Block]) {
    let comm: u64 = blocks
        .iter()
        .map(|b| footprint(b.values.len(), &b.kernel))
        .sum();
    cluster.set_phase(Some("checkpoint"));
    cluster.charge_superstep("checkpoint", costs::CHECKPOINT, comm);
}

/// Re-derives base blocks lost to `killed` machines by re-combing them from
/// the durable input, under the `recovery-base` scope. Returns the number of
/// repaired blocks. The lost blocks are destroyed first — the recompute is the
/// only way their content comes back.
pub(crate) fn repair_base(
    cluster: &mut Cluster,
    blocks: &mut [Block],
    ranks: &[u32],
    block_size: usize,
    chunk: usize,
    killed: &[usize],
) -> usize {
    let machines = cluster.config().machines;
    let lost = lost_nodes(blocks.len(), killed, machines);
    if lost.is_empty() {
        return 0;
    }
    cluster.set_phase_scope(Some("recovery-base"));
    cluster.set_phase(Some("recomb"));
    for &i in &lost {
        blocks[i] = Block {
            values: Vec::new(),
            kernel: SeaweedKernel::comb(&[], &[]),
        };
    }
    let elems: Vec<(u32, u32)> = lost
        .iter()
        .flat_map(|&b| {
            let lo = b * block_size;
            let hi = ((b + 1) * block_size).min(ranks.len());
            (lo..hi).map(|p| (p as u32, ranks[p]))
        })
        .collect();
    let bs = block_size as u32;
    let entries = {
        let dv = cluster.distribute(elems);
        cluster.group_map_view(
            dv,
            move |&(pos, _)| pos / bs,
            move |&block_id, items| {
                comb_block_entries(block_id, items.iter().copied().collect(), chunk)
            },
        )
    };
    let flat = cluster.collect(entries);
    for (block_id, block) in blocks_from_entries(flat) {
        blocks[block_id as usize] = block;
    }
    cluster.set_phase_scope(None::<String>);
    lost.len()
}

/// Re-derives level-`level` nodes lost to `killed` machines from the
/// level-(L−1) checkpoints, under the `recovery-L<level>` scope: refetch the
/// children from their replicas (one restore shuffle), then re-run the lost
/// pairs' `⊡` merges with one real batched multiplication. Returns the number
/// of repaired nodes.
pub(crate) fn repair_level(
    cluster: &mut Cluster,
    nodes: &mut [Block],
    children: &[TraceNode],
    level: usize,
    killed: &[usize],
    params: &MulParams,
) -> usize {
    let machines = cluster.config().machines;
    let lost = lost_nodes(nodes.len(), killed, machines);
    if lost.is_empty() {
        return 0;
    }
    cluster.set_phase_scope(Some(format!("recovery-L{level}")));
    cluster.set_phase(Some("refetch"));
    let mut restore_comm = 0u64;
    let mut pairs = Vec::new();
    let mut merged = Vec::new();
    for &i in &lost {
        nodes[i] = Block {
            values: Vec::new(),
            kernel: SeaweedKernel::comb(&[], &[]),
        };
        if 2 * i + 1 < children.len() {
            // Same structural rule as the merge loop: pair i merged children
            // (2i, 2i+1); the odd leftover passed child 2i through.
            let (l, h) = (&children[2 * i], &children[2 * i + 1]);
            restore_comm +=
                footprint(l.values.len(), &l.kernel) + footprint(h.values.len(), &h.kernel);
            let prep = prepare_merge(&l.values, &l.kernel, &h.values, &h.kernel);
            pairs.push(prep.operands);
            merged.push((i, prep.lo_inflated, prep.hi_inflated, prep.union));
        } else {
            let c = &children[2 * i];
            restore_comm += footprint(c.values.len(), &c.kernel);
            nodes[i] = Block {
                values: c.values.clone(),
                kernel: c.kernel.clone(),
            };
        }
    }
    cluster.charge_superstep("restore", costs::RESTORE, restore_comm);

    if !pairs.is_empty() {
        cluster.set_phase(None::<String>);
        let products = monge_mpc::mul_batch(cluster, &pairs, params);
        for ((i, lo_inf, hi_inf, union), prod) in merged.into_iter().zip(products) {
            nodes[i] = Block {
                values: union,
                kernel: compose_from_product(&lo_inf, &hi_inf, prod),
            };
        }
    }
    cluster.set_phase_scope(None::<String>);
    lost.len()
}

/// Restores the witness descent's checkpointed nodes lost to `killed`
/// machines: one replica-restore shuffle under `scope` (the caller passes
/// `recovery-witness-L<k>`). The descent's split queries need no restore —
/// they are re-derived deterministically from the level above. Returns the
/// number of restored nodes.
pub(crate) fn restore_for_witness(
    cluster: &mut Cluster,
    level_nodes: &[TraceNode],
    killed: &[usize],
    scope: &str,
) -> usize {
    let machines = cluster.config().machines;
    let lost = lost_nodes(level_nodes.len(), killed, machines);
    if lost.is_empty() {
        return 0;
    }
    cluster.set_phase_scope(Some(scope.to_string()));
    cluster.set_phase(Some("restore"));
    let comm: u64 = lost
        .iter()
        .map(|&i| footprint(level_nodes[i].values.len(), &level_nodes[i].kernel))
        .sum();
    cluster.charge_superstep("restore", costs::RESTORE, comm);
    cluster.set_phase_scope(None::<String>);
    lost.len()
}
