//! Level-checkpoint recovery for the Theorem 1.3 merge tree.
//!
//! The bottom-up pipeline builds one merge tree whose nodes are sorted value
//! sets with seaweed kernels, and under a fault plan with kills
//! ([`mpc_runtime::FaultPlan`]) it keeps every level. The kept levels are the
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
//!   nodes' children, found by the merge tree's pairing rule, are refetched
//!   from their level-(L−1) checkpoint replicas (one
//!   [`mpc_runtime::costs::RESTORE`] shuffle), and the lost merges are re-run
//!   for real with one batched [`monge_mpc::mul_batch`] on just those pairs;
//!   a lost pass-through node is its refetched child.
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

use crate::lis::{build_nodes, children, comb_blocks, Block};
use monge_mpc::MulParams;
use mpc_runtime::{costs, Cluster};

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

/// Replicates a freshly produced level's checkpoints onto neighbor machines:
/// one shuffle carrying every node's footprint, charged under the current
/// scope's `checkpoint` phase.
pub(crate) fn checkpoint_blocks(cluster: &mut Cluster, blocks: &[Block]) {
    let comm: usize = blocks.iter().map(Block::footprint).sum();
    cluster.set_phase(Some("checkpoint"));
    cluster.charge_superstep("checkpoint", costs::CHECKPOINT, comm as u64);
}

/// Re-derives base blocks lost to `killed` machines by re-combing them from
/// the durable input, under the `recovery-base` scope. The lost blocks are
/// destroyed first — the recompute is the only way their content comes back.
pub(crate) fn repair_base(
    cluster: &mut Cluster,
    blocks: &mut [Block],
    ranks: &[u32],
    block_size: usize,
    killed: &[usize],
) {
    let machines = cluster.config().machines;
    let lost = lost_nodes(blocks.len(), killed, machines);
    if lost.is_empty() {
        return;
    }
    cluster.set_phase_scope(Some("recovery-base"));
    cluster.set_phase(Some("recomb"));
    for &i in &lost {
        blocks[i] = Block::empty();
    }
    let elems: Vec<(u32, u32)> = lost
        .iter()
        .flat_map(|&b| {
            let lo = b * block_size;
            let hi = ((b + 1) * block_size).min(ranks.len());
            (lo..hi).map(|p| (p as u32, ranks[p]))
        })
        .collect();
    for (block_id, block) in comb_blocks(cluster, elems, block_size) {
        blocks[block_id as usize] = block;
    }
    cluster.set_phase_scope(None::<String>);
}

/// Re-derives level-`level` nodes lost to `killed` machines from the
/// level-(L−1) checkpoints `below`, under the `recovery-L<level>` scope:
/// refetch the lost nodes' children from their replicas (one restore
/// shuffle), then re-run the lost merges with one real batched
/// multiplication; a lost pass-through node is the refetched copy.
pub(crate) fn repair_level(
    cluster: &mut Cluster,
    nodes: &mut [Block],
    below: &[Block],
    level: usize,
    killed: &[usize],
    params: &MulParams,
) {
    let machines = cluster.config().machines;
    let lost = lost_nodes(nodes.len(), killed, machines);
    if lost.is_empty() {
        return;
    }
    cluster.set_phase_scope(Some(format!("recovery-L{level}")));
    cluster.set_phase(Some("refetch"));
    let mut restore = 0;
    for &i in &lost {
        nodes[i] = Block::empty();
        let (lo, hi) = children(i, below.len());
        restore += below[lo].footprint() + hi.map_or(0, |hi| below[hi].footprint());
    }
    cluster.charge_superstep("restore", costs::RESTORE, restore as u64);

    cluster.set_phase(None::<String>);
    let rebuilt = build_nodes(below, lost.iter().copied(), |operands| {
        monge_mpc::mul_batch(cluster, operands, params)
    });
    for (&i, node) in lost.iter().zip(rebuilt) {
        nodes[i] = node;
    }
    cluster.set_phase_scope(None::<String>);
}

/// Restores the witness descent's checkpointed nodes lost to `killed`
/// machines: one replica-restore shuffle under `scope` (the caller passes
/// `recovery-witness-L<k>`). The descent's split queries need no restore —
/// they are re-derived deterministically from the level above.
pub(crate) fn restore_for_witness(
    cluster: &mut Cluster,
    level_nodes: &[Block],
    killed: &[usize],
    scope: &str,
) {
    let machines = cluster.config().machines;
    let lost = lost_nodes(level_nodes.len(), killed, machines);
    if lost.is_empty() {
        return;
    }
    cluster.set_phase_scope(Some(scope.to_string()));
    cluster.set_phase(Some("restore"));
    let comm: usize = lost.iter().map(|&i| level_nodes[i].footprint()).sum();
    cluster.charge_superstep("restore", costs::RESTORE, comm as u64);
    cluster.set_phase_scope(None::<String>);
}
