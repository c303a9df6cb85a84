//! The batched MPC multiplication driver (Theorem 1.1).
//!
//! All instances of a batch are processed level by level so that independent
//! subproblems created by the §3.1 split share the same supersteps — exactly how the
//! round bound of the paper is obtained (and how the LIS divide and conquer of
//! `lis-mpc` multiplies many kernels per level in parallel).
//!
//! Per level the driver performs, in `O(1)` primitive rounds:
//!
//! * **local solve** — instances that fit into a machine's space are gathered with
//!   one `group_map` and multiplied with the sequential steady-ant kernel
//!   ([`monge::steady_ant::mul_rows`], which draws its scratch from a per-worker
//!   [`monge::steady_ant::Workspace`] arena, so the whole level's batch — the
//!   per-level merge pairs of `lis-mpc` and the grid phase's batched packages
//!   alike — runs allocation-free after warm-up);
//! * **split** — larger instances are cut into `H` compacted subproblems with one
//!   sort-based rank relabelling (Lemma 2.3/2.5);
//! * on the way back up, **lift** (two sort-based joins restore parent coordinates)
//!   and **combine** (the distributed §3.2/§3.3 merge in `crate::combine`).

use crate::combine::{distributed_combine, Colored, ParentSpec};
use crate::params::MulParams;
use monge::steady_ant;
use monge::PermutationMatrix;
use mpc_runtime::{Cluster, DistVec};
use std::ops::Range;

/// A nonzero of an operand or result matrix, tagged with its (batched) instance id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nonzero {
    /// Instance the nonzero belongs to.
    pub inst: u64,
    /// Row index.
    pub row: u32,
    /// Column index.
    pub col: u32,
}

/// Record produced by the split phase before rank-relabelling.
#[derive(Clone, Copy, Debug)]
struct SplitRec {
    /// Child instance the record belongs to.
    child: u64,
    /// Parent coordinate that still needs rank-compaction (row for `P_A` slices,
    /// column for `P_B` slices).
    ranked_coord: u32,
    /// The other coordinate, already translated to child coordinates.
    other_coord: u32,
}

/// Multiplies one pair of permutation matrices on the cluster (`P_C = P_A ⊡ P_B`).
pub fn mul(
    cluster: &mut Cluster,
    a: &PermutationMatrix,
    b: &PermutationMatrix,
    params: &MulParams,
) -> PermutationMatrix {
    mul_batch(cluster, &[(a.clone(), b.clone())], params)
        .pop()
        .expect("one instance in, one result out")
}

/// Multiplies a batch of independent instances, sharing rounds across the batch.
pub fn mul_batch(
    cluster: &mut Cluster,
    instances: &[(PermutationMatrix, PermutationMatrix)],
    params: &MulParams,
) -> Vec<PermutationMatrix> {
    let k = instances.len();
    if k == 0 {
        return Vec::new();
    }
    for (a, b) in instances {
        assert_eq!(a.size(), b.size(), "operands must have equal size");
    }
    let max_n = instances.iter().map(|(a, _)| a.size()).max().unwrap_or(0);
    let rp = params.resolved(cluster.config(), max_n.max(2));

    // Driver-side registry of instance sizes and parentage. The paper keeps the
    // corresponding mappings implicit in the machine layout; here they are O(#sub-
    // problems) metadata, broadcast when needed. Instance ids are dense: the
    // batch is `0..k`, and every level's children take the next contiguous id
    // range, so the registry is a `Vec` indexed by id and a level's lookups are
    // offsets into its id range.
    let mut n_of: Vec<usize> = instances.iter().map(|(a, _)| a.size()).collect();

    let mut a_pts = Vec::new();
    let mut b_pts = Vec::new();
    for (i, (a, b)) in instances.iter().enumerate() {
        let inst = i as u64;
        a_pts.extend(a.nonzeros().map(|(r, c)| Nonzero {
            inst,
            row: r as u32,
            col: c as u32,
        }));
        b_pts.extend(b.nonzeros().map(|(r, c)| Nonzero {
            inst,
            row: r as u32,
            col: c as u32,
        }));
    }

    let mut a = cluster.distribute(a_pts);
    let mut b = cluster.distribute(b_pts);
    let mut results: DistVec<Nonzero> = cluster.empty();
    // The instances of the current level: every point of `a` and `b` belongs
    // to one of them.
    let mut frontier: Range<u64> = 0..k as u64;

    /// Everything needed to lift and combine one level on the way back up.
    struct LevelRecord {
        parents: Vec<ParentSpec>,
        children: Range<u64>,
        /// `(parent, color)` of every child, indexed by `child - children.start`.
        parent_color: Vec<(u64, u16)>,
        row_maps: DistVec<(u64, u32, u32)>, // (child, child_row, parent_row)
        col_maps: DistVec<(u64, u32, u32)>, // (child, child_col, parent_col)
    }
    let mut level_records: Vec<LevelRecord> = Vec::new();

    // ------------------------------------------------------------------ descend
    loop {
        let base = frontier.start;
        let at = move |inst: u64| (inst - base) as usize;
        // Per frontier instance: whether it fits the local solve.
        let small_flags: Vec<bool> = frontier
            .clone()
            .map(|id| n_of[id as usize] <= rp.local_threshold)
            .collect();

        if small_flags.contains(&true) {
            cluster.set_phase(Some("local-solve"));
            let sizes = cluster.broadcast(n_of[base as usize..frontier.end as usize].to_vec());
            let in_small = cluster.broadcast(small_flags.clone());
            let a_small = cluster.filter(a.clone(), |p| in_small[at(p.inst)]);
            let b_small = cluster.filter(b.clone(), |p| in_small[at(p.inst)]);
            let a_tagged = cluster.map(&a_small, |p| (false, *p));
            let b_tagged = cluster.map(&b_small, |p| (true, *p));
            let tagged = cluster.concat(a_tagged, b_tagged);
            let solved = cluster.group_map_view(
                tagged,
                |(_, p)| p.inst,
                |&inst, items| {
                    let n = sizes[at(inst)];
                    let mut pa = vec![0u32; n];
                    let mut pb = vec![0u32; n];
                    for &(is_b, p) in items.iter() {
                        if is_b {
                            pb[p.row as usize] = p.col;
                        } else {
                            pa[p.row as usize] = p.col;
                        }
                    }
                    let pc = steady_ant::mul_rows(&pa, &pb);
                    pc.into_iter().enumerate().map(move |(r, c)| Nonzero {
                        inst,
                        row: r as u32,
                        col: c,
                    })
                },
            );
            results = cluster.concat(results, solved);
        }

        if !small_flags.contains(&false) {
            break;
        }

        // ----------------------------------------------------------------- split
        cluster.set_phase(Some("split"));
        let in_small = cluster.broadcast(small_flags.clone());
        let a_large = cluster.filter(a, |p| !in_small[at(p.inst)]);
        let b_large = cluster.filter(b, |p| !in_small[at(p.inst)]);

        // Allocate children and slice boundaries: parent `p`'s slice `q` is
        // child `first_child[at(p)] + q`.
        let mut parents = Vec::new();
        let mut parent_color = Vec::new();
        let mut bounds_of: Vec<Vec<u32>> = vec![Vec::new(); small_flags.len()];
        let mut first_child: Vec<u64> = vec![0; small_flags.len()];
        for p in frontier.clone().filter(|&p| !small_flags[at(p)]) {
            let n_p = n_of[p as usize];
            let h_p = rp.h.min(n_p).max(2);
            let bounds: Vec<u32> = (0..=h_p).map(|q| (q * n_p / h_p) as u32).collect();
            first_child[at(p)] = n_of.len() as u64;
            for q in 0..h_p {
                n_of.push((bounds[q + 1] - bounds[q]) as usize);
                parent_color.push((p, q as u16));
            }
            bounds_of[at(p)] = bounds;
            parents.push(ParentSpec {
                inst: p,
                n: n_p,
                h: h_p,
                g: rp.g.min(n_p).max(1),
            });
        }
        let children = frontier.end..n_of.len() as u64;
        let bounds_of = cluster.broadcast(bounds_of);
        let first_child = cluster.broadcast(first_child);

        // P_A slices: the column decides the subproblem; rows are rank-compacted.
        let a_recs = cluster.map(&a_large, |p| {
            let bounds = &bounds_of[at(p.inst)];
            let q = slice_of(bounds, p.col);
            SplitRec {
                child: first_child[at(p.inst)] + q as u64,
                ranked_coord: p.row,
                other_coord: p.col - bounds[q as usize],
            }
        });
        let a_ranked = {
            let queries = a_recs.clone();
            cluster.rank_search(
                &a_recs,
                |r| (r.child, r.ranked_coord as u64),
                queries,
                |r| (r.child, r.ranked_coord as u64),
            )
        };
        let a_children = cluster.map(&a_ranked, |(r, rank)| Nonzero {
            inst: r.child,
            row: *rank as u32,
            col: r.other_coord,
        });
        let row_maps = cluster.map(&a_ranked, |(r, rank)| {
            (r.child, *rank as u32, r.ranked_coord)
        });

        // P_B slices: the row decides the subproblem; columns are rank-compacted.
        let b_recs = cluster.map(&b_large, |p| {
            let bounds = &bounds_of[at(p.inst)];
            let q = slice_of(bounds, p.row);
            SplitRec {
                child: first_child[at(p.inst)] + q as u64,
                ranked_coord: p.col,
                other_coord: p.row - bounds[q as usize],
            }
        });
        let b_ranked = {
            let queries = b_recs.clone();
            cluster.rank_search(
                &b_recs,
                |r| (r.child, r.ranked_coord as u64),
                queries,
                |r| (r.child, r.ranked_coord as u64),
            )
        };
        let b_children = cluster.map(&b_ranked, |(r, rank)| Nonzero {
            inst: r.child,
            row: r.other_coord,
            col: *rank as u32,
        });
        let col_maps = cluster.map(&b_ranked, |(r, rank)| {
            (r.child, *rank as u32, r.ranked_coord)
        });

        level_records.push(LevelRecord {
            parents,
            children: children.clone(),
            parent_color,
            row_maps,
            col_maps,
        });
        a = a_children;
        b = b_children;
        frontier = children;
    }

    // ------------------------------------------------------------------- unwind
    for record in level_records.into_iter().rev() {
        cluster.set_phase(Some("lift"));
        let children = cluster.broadcast(record.children.clone());
        let child_products = cluster.filter(results.clone(), |p| children.contains(&p.inst));

        // Join 1: restore parent rows.
        #[derive(Clone, Copy, Debug)]
        enum RowJoin {
            Prod(Nonzero),
            Map(u64, u32, u32),
        }
        let prod_items = cluster.map(&child_products, |p| RowJoin::Prod(*p));
        let map_items = cluster.map(&record.row_maps, |&(c, cr, pr)| RowJoin::Map(c, cr, pr));
        let joined = cluster.concat(prod_items, map_items);
        let lifted_rows: DistVec<(u64, u32, u32)> = cluster.group_map_view(
            joined,
            |item| match item {
                RowJoin::Prod(p) => (p.inst, p.row),
                RowJoin::Map(c, cr, _) => (*c, *cr),
            },
            |&(child, _), items| {
                let mut parent_row = None;
                let mut child_col = None;
                for item in items.iter() {
                    match *item {
                        RowJoin::Prod(p) => child_col = Some(p.col),
                        RowJoin::Map(_, _, pr) => parent_row = Some(pr),
                    }
                }
                // No product: a map record for a row of an instance solved at
                // another level.
                Some((child, parent_row?, child_col?))
            },
        );

        // Join 2: restore parent columns and attach parent/color.
        #[derive(Clone, Copy, Debug)]
        enum ColJoin {
            Lifted(u64, u32, u32), // (child, parent_row, child_col)
            Map(u64, u32, u32),    // (child, child_col, parent_col)
        }
        let lifted_items = cluster.map(&lifted_rows, |&(c, pr, cc)| ColJoin::Lifted(c, pr, cc));
        let cmap_items = cluster.map(&record.col_maps, |&(c, cc, pc)| ColJoin::Map(c, cc, pc));
        let joined2 = cluster.concat(lifted_items, cmap_items);
        let parent_color = cluster.broadcast(record.parent_color);
        let colored: DistVec<Colored> = cluster.group_map_view(
            joined2,
            |item| match item {
                ColJoin::Lifted(c, _, cc) => (*c, *cc),
                ColJoin::Map(c, cc, _) => (*c, *cc),
            },
            |&(child, _), items| {
                let mut parent_row = None;
                let mut parent_col = None;
                for item in items.iter() {
                    match *item {
                        ColJoin::Lifted(_, pr, _) => parent_row = Some(pr),
                        ColJoin::Map(_, _, pc) => parent_col = Some(pc),
                    }
                }
                let (parent, color) = parent_color[(child - children.start) as usize];
                Some(Colored {
                    inst: parent,
                    row: parent_row?,
                    col: parent_col?,
                    color,
                })
            },
        );

        let combined = distributed_combine(cluster, colored, &record.parents, rp.routing);
        results = cluster.concat(results, combined);
    }

    // ------------------------------------------------------------------ readout
    let all = cluster.collect(results);
    let mut out: Vec<Vec<u32>> = instances
        .iter()
        .map(|(a, _)| vec![u32::MAX; a.size()])
        .collect();
    for nz in all {
        if (nz.inst as usize) < k {
            let slot = &mut out[nz.inst as usize][nz.row as usize];
            debug_assert_eq!(*slot, u32::MAX, "row produced twice");
            *slot = nz.col;
        }
    }
    out.into_iter().map(PermutationMatrix::from_rows).collect()
}

/// Index of the slice (among boundaries `bounds`) containing coordinate `x`.
fn slice_of(bounds: &[u32], x: u32) -> u16 {
    debug_assert!(x < *bounds.last().expect("nonempty bounds"));
    // bounds is short (≤ H+1 entries); a linear scan keeps this branch-predictable.
    let mut q = 0u16;
    while bounds[(q + 1) as usize] <= x {
        q += 1;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_runtime::MpcConfig;
    use rand::prelude::*;

    fn random_permutation(n: usize, rng: &mut StdRng) -> PermutationMatrix {
        let mut v: Vec<u32> = (0..n as u32).collect();
        v.shuffle(rng);
        PermutationMatrix::from_rows(v)
    }

    fn check(n: usize, delta: f64, params: MulParams, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_permutation(n, &mut rng);
        let b = random_permutation(n, &mut rng);
        let expected = steady_ant::mul(&a, &b);
        let mut cluster = Cluster::new(MpcConfig::new(n, delta));
        let got = mul(&mut cluster, &a, &b, &params);
        assert_eq!(got, expected, "n={n} δ={delta} params={params:?}");
    }

    #[test]
    fn local_only_path_matches_sequential() {
        // Instances small enough to fit on one machine exercise only the gather path
        // (the explicit threshold keeps n below it; the default is s/4).
        check(50, 0.5, MulParams::default().with_local_threshold(64), 1);
        check(200, 0.3, MulParams::default(), 2);
    }

    #[test]
    fn forced_recursion_matches_sequential() {
        // A tiny local threshold forces several split/combine levels.
        for &(n, h, thr) in &[
            (64usize, 2usize, 8usize),
            (96, 3, 10),
            (128, 4, 16),
            (200, 5, 12),
        ] {
            check(
                n,
                0.5,
                MulParams::default()
                    .with_h(h)
                    .with_local_threshold(thr)
                    .with_g(7),
                n as u64,
            );
        }
    }

    #[test]
    fn forced_recursion_with_paper_grid() {
        for &n in &[128usize, 256, 300] {
            check(
                n,
                0.5,
                MulParams::default().with_local_threshold(32),
                n as u64 + 7,
            );
        }
    }

    #[test]
    fn warmup_params_match_sequential() {
        check(
            150,
            0.5,
            MulParams::warmup().with_local_threshold(16).with_g(8),
            99,
        );
    }

    #[test]
    fn low_delta_forced_recursion_matches_sequential() {
        check(120, 0.4, MulParams::default().with_local_threshold(20), 5);
    }

    #[test]
    fn batch_of_instances_shares_rounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let instances: Vec<_> = (0..6)
            .map(|i| {
                let n = 40 + 10 * i;
                (
                    random_permutation(n, &mut rng),
                    random_permutation(n, &mut rng),
                )
            })
            .collect();
        let mut cluster = Cluster::new(MpcConfig::new(1 << 10, 0.5));
        let params = MulParams::default()
            .with_local_threshold(16)
            .with_h(2)
            .with_g(8);
        let got = mul_batch(&mut cluster, &instances, &params);
        for (i, (a, b)) in instances.iter().enumerate() {
            assert_eq!(got[i], steady_ant::mul(a, b), "instance {i}");
        }
        // All six instances are processed in the same supersteps: the round count is
        // far below six times the single-instance cost.
        let batch_rounds = cluster.rounds();
        let mut single = Cluster::new(MpcConfig::new(1 << 10, 0.5));
        let _ = mul(&mut single, &instances[0].0, &instances[0].1, &params);
        assert!(batch_rounds < 3 * single.rounds().max(1));
    }

    #[test]
    fn rounds_are_constant_per_level() {
        // With the same number of recursion levels, doubling n must not change the
        // round count beyond the tree-descent depth (the heart of Theorem 1.1).
        // The grid phase descends ⌈log_H n⌉ tree levels per combine; with the
        // paper's H = n^{(1−δ)/10} that height is a constant ≤ 10/(1−δ), but this
        // test pins H = 4, so the budget carries the height term explicitly.
        let params = MulParams::default()
            .with_h(4)
            .with_local_threshold(16)
            .with_g(8);
        let mut rounds = Vec::new();
        for &n in &[64usize, 128, 256] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let a = random_permutation(n, &mut rng);
            let b = random_permutation(n, &mut rng);
            let mut cluster = Cluster::new(MpcConfig::new(n, 0.5));
            let _ = mul(&mut cluster, &a, &b, &params);
            let levels = (n as f64 / 16.0).log(4.0).ceil() as u64;
            let height = (n as f64).log(4.0).ceil() as u64;
            rounds.push((cluster.rounds(), levels, height));
        }
        // Rounds per level are bounded by a constant plus the descent supersteps.
        for &(r, levels, height) in &rounds {
            let per_level = 120 + 15 * height;
            assert!(
                r <= per_level * levels.max(1),
                "rounds {r} exceed budget for {levels} levels (height {height})"
            );
        }
    }

    #[test]
    fn identity_and_reverse_edge_cases() {
        let n = 80;
        let id = PermutationMatrix::identity(n);
        let rev = PermutationMatrix::from_rows((0..n as u32).rev().collect());
        for (a, b) in [(&id, &rev), (&rev, &id), (&rev, &rev), (&id, &id)] {
            let expected = steady_ant::mul(a, b);
            let mut cluster = Cluster::new(MpcConfig::new(n, 0.5));
            let params = MulParams::default()
                .with_local_threshold(10)
                .with_h(3)
                .with_g(6);
            assert_eq!(mul(&mut cluster, a, b, &params), expected);
        }
    }

    #[test]
    fn empty_batch() {
        let mut cluster = Cluster::new(MpcConfig::new(16, 0.5));
        assert!(mul_batch(&mut cluster, &[], &MulParams::default()).is_empty());
    }
}
