//! The batched MPC multiplication driver (Theorem 1.1).
//!
//! All instances of a batch are processed level by level so that independent
//! subproblems created by the §3.1 split share the same supersteps — exactly how the
//! round bound of the paper is obtained (and how the LIS divide and conquer of
//! `lis-mpc` multiplies many kernels per level in parallel).
//!
//! Per level the driver performs, in `O(1)` primitive rounds:
//!
//! * **local solve** — instances that fit into a machine's space are joined with
//!   one `group_map` and multiplied with the sequential steady-ant kernel
//!   ([`monge::steady_ant::mul_rows`], which draws its scratch from a per-worker
//!   [`monge::steady_ant::Workspace`] arena, so the whole level's batch — the
//!   per-level merge pairs of `lis-mpc` and the grid phase's batched packages
//!   alike — runs allocation-free after warm-up);
//! * **split** — larger instances are cut into `H` compacted subproblems with one
//!   rank relabelling per operand (Lemma 2.3/2.5);
//! * on the way back up, **lift** (two joins restore parent coordinates and
//!   file every parent's colored union in the combine's layout) and
//!   **combine** (the distributed §3.2/§3.3 merge in `crate::combine`).
//!
//! The local solve's join, the split's rank searches and the lift's joins
//! are charged exactly as the primitives the model runs (a `group_map` on
//! the instance, `rank_search`, and a `group_map` per lift join, with the
//! filters, local maps and concatenations that feed them), but computed by
//! dense index: a small instance's group is its `2·n` points, filed by row;
//! a parent's points are a permutation, so its ranked coordinates are
//! exactly `0..n`, and one ascending scan with a counter per child yields
//! every rank; the children's coordinates are the dense ranges `0..n_child`,
//! so each lift join is an array lookup. Both lift joins are only charged:
//! the first's outputs feed nothing but the second, and the second's are
//! written straight into the combine's layout, one pool task per parent,
//! while the placement of its charged group map says which machine holds
//! each point. Every other computed output lands on the machine the charged
//! group map packs its key onto, in key order. Nothing is sorted, hashed or
//! gathered.

#[cfg(test)]
use crate::combine::Colored;
use crate::combine::{distributed_combine, Layout, ParentSpec};
use crate::params::{MulParams, ResolvedParams};
use monge::steady_ant;
use monge::PermutationMatrix;
use mpc_runtime::{Cluster, DistVec, Placement, Shape};
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

/// Where one level's slices go: the large frontier instance `p` is cut at
/// `bounds_of[p - base]`, and its slice `q` is child `first_child[p - base] + q`.
/// Small instances have empty bounds.
struct Slicing<'a> {
    base: u64,
    bounds_of: &'a [Vec<u32>],
    first_child: &'a [u64],
}

impl Slicing<'_> {
    /// The frontier offset of instance `inst`.
    fn at(&self, inst: u64) -> usize {
        (inst - self.base) as usize
    }
}

/// Which operand a split relabels: the `P_A` slices are cut by column and
/// rank-compact their rows; the `P_B` slices are cut by row and
/// rank-compact their columns.
#[derive(Clone, Copy, Debug)]
enum Operand {
    A,
    B,
}

impl Operand {
    /// A point's `(ranked, sliced)` coordinates.
    fn coords(self, p: &Nonzero) -> (u32, u32) {
        match self {
            Operand::A => (p.row, p.col),
            Operand::B => (p.col, p.row),
        }
    }

    /// The child nonzero of a point whose ranked coordinate became `rank` and
    /// whose sliced coordinate became `offset` inside slice `child`.
    fn child_point(self, child: u64, rank: u32, offset: u32) -> Nonzero {
        match self {
            Operand::A => Nonzero {
                inst: child,
                row: rank,
                col: offset,
            },
            Operand::B => Nonzero {
                inst: child,
                row: offset,
                col: rank,
            },
        }
    }
}

/// A child's coordinate map: `(child, child coordinate, parent coordinate)`.
type CoordMap = (u64, u32, u32);

/// Everything needed to lift and combine one level on the way back up.
struct LevelRecord {
    parents: Vec<ParentSpec>,
    children: Range<u64>,
    /// Size of every child, indexed by `child - children.start`: parent
    /// `parents[i]`'s color `q` is the `q`-th child after its predecessors'.
    sizes: Vec<usize>,
    row_maps: DistVec<CoordMap>, // (child, child_row, parent_row)
    col_maps: DistVec<CoordMap>, // (child, child_col, parent_col)
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
    if instances.is_empty() {
        return Vec::new();
    }
    for (a, b) in instances {
        assert_eq!(a.size(), b.size(), "operands must have equal size");
    }
    let max_n = instances.iter().map(|(a, _)| a.size()).max().unwrap_or(0);
    let rp = params.resolved(cluster.config(), max_n.max(2));
    let Descent {
        records,
        mut results,
        mut solved_from,
    } = descend(cluster, instances, &rp);

    // ------------------------------------------------------------------- unwind
    // A level's children got their products from their own local solve, if
    // any, and from the combine that unwound just before: every product of
    // theirs lies past the earlier of those two marks.
    let mut combined_from = None;
    for (level, record) in records.into_iter().enumerate().rev() {
        let from = solved_from[level + 1]
            .take()
            .or(combined_from.take())
            .expect("every child level gets products from a local solve or a combine");
        let (layout, union) = lift(cluster, &results, &from, &record);
        let combined = distributed_combine(cluster, &layout, &union, rp.routing);
        combined_from = Some(part_lengths(&results));
        results = cluster.concat(results, combined);
    }
    readout(cluster, results, instances)
}

/// A batch's descent: every split level's record, shallowest first, and
/// the products of every local solve.
struct Descent {
    records: Vec<LevelRecord>,
    results: DistVec<Nonzero>,
    /// Per descent level: `results`' part lengths before its local solve's
    /// products were appended, if it had one.
    solved_from: Vec<Option<Vec<usize>>>,
}

/// Splits the batch level by level until every instance fits the local
/// solve, solving the small instances of every level as it goes.
fn descend(
    cluster: &mut Cluster,
    instances: &[(PermutationMatrix, PermutationMatrix)],
    rp: &ResolvedParams,
) -> Descent {
    let k = instances.len();
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

    let mut records: Vec<LevelRecord> = Vec::new();
    let mut solved_from: Vec<Option<Vec<usize>>> = Vec::new();

    // ------------------------------------------------------------------ descend
    loop {
        let base = frontier.start;
        let at = move |inst: u64| (inst - base) as usize;
        // Per frontier instance: whether it fits the local solve.
        let small_flags: Vec<bool> = frontier
            .clone()
            .map(|id| n_of[id as usize] <= rp.local_threshold)
            .collect();

        let has_small = small_flags.contains(&true);
        solved_from.push(has_small.then(|| part_lengths(&results)));
        if has_small {
            cluster.set_phase(Some("local-solve"));
            let sizes = &n_of[base as usize..frontier.end as usize];
            let solved = local_solve(cluster, [&a, &b], base, sizes, &small_flags);
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
        let mut bounds_of: Vec<Vec<u32>> = vec![Vec::new(); small_flags.len()];
        let mut first_child: Vec<u64> = vec![0; small_flags.len()];
        for p in frontier.clone().filter(|&p| !small_flags[at(p)]) {
            let n_p = n_of[p as usize];
            let h_p = rp.h.min(n_p).max(2);
            let bounds: Vec<u32> = (0..=h_p).map(|q| (q * n_p / h_p) as u32).collect();
            first_child[at(p)] = n_of.len() as u64;
            for q in 0..h_p {
                n_of.push((bounds[q + 1] - bounds[q]) as usize);
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

        let slicing = Slicing {
            base,
            bounds_of: &bounds_of,
            first_child: &first_child,
        };
        let (a_children, row_maps) = relabel(cluster, &a_large, &slicing, Operand::A);
        let (b_children, col_maps) = relabel(cluster, &b_large, &slicing, Operand::B);

        records.push(LevelRecord {
            parents,
            children: children.clone(),
            sizes: n_of[children.start as usize..].to_vec(),
            row_maps,
            col_maps,
        });
        a = a_children;
        b = b_children;
        frontier = children;
    }

    Descent {
        records,
        results,
        solved_from,
    }
}

/// Every instance of the batch's product, read off its rows in `results`.
fn readout(
    cluster: &mut Cluster,
    results: DistVec<Nonzero>,
    instances: &[(PermutationMatrix, PermutationMatrix)],
) -> Vec<PermutationMatrix> {
    let k = instances.len();
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

/// One level's local solve: multiplies every small frontier instance (the
/// instances `base + i` with `small[i]`, of size `sizes[i]`) on one machine
/// with the sequential steady ant.
///
/// Charged as the model runs it — the broadcast sizes and flags, a filter
/// and a tagging map per operand keeping the small instances' points, their
/// concatenation and one `group_map` on the instance — but computed by dense
/// index: instance `i`'s group holds its `2·sizes[i]` points, so the groups
/// are sized up front in ascending id, and every operand point is filed in
/// a per-instance row table, from which the group reads its two operands.
fn local_solve(
    cluster: &mut Cluster,
    [a, b]: [&DistVec<Nonzero>; 2],
    base: u64,
    sizes: &[usize],
    small: &[bool],
) -> DistVec<Nonzero> {
    let sizes = cluster.broadcast(sizes.to_vec());
    let small = cluster.broadcast(small.to_vec());
    // The instances solved here, ascending: instance `ids[k]`'s rows own the
    // table slots `start[k]..start[k + 1]`. An instance without points
    // forms no group.
    let ids: Vec<usize> = (0..small.len())
        .filter(|&i| small[i] && sizes[i] > 0)
        .collect();
    let start = starts(ids.iter().map(|&i| sizes[i]));
    let mut group_of = vec![usize::MAX; small.len()];
    for (k, &i) in ids.iter().enumerate() {
        group_of[i] = k;
    }
    // Each operand's small-instance points: counted per machine (the kept
    // shape of its filter) and filed by row, both operands side by side.
    let file = |points: &DistVec<Nonzero>| {
        let mut table = vec![0u32; start[ids.len()]];
        let kept: Vec<usize> = (0..points.machines())
            .map(|m| {
                let mut kept = 0;
                for p in points.part(m) {
                    let i = (p.inst - base) as usize;
                    if small[i] {
                        table[start[group_of[i]] + p.row as usize] = p.col;
                        kept += 1;
                    }
                }
                kept
            })
            .collect();
        (table, Shape::from_loads(kept))
    };
    let ((a_rows, a_kept), (b_rows, b_kept)) = rayon::join(|| file(a), || file(b));
    cluster.charge_filter(&a_kept);
    cluster.charge_filter(&b_kept);
    cluster.charge_map(&a_kept);
    cluster.charge_map(&b_kept);
    cluster.charge_concat(&a_kept, &b_kept);
    let points: Vec<usize> = ids.iter().map(|&i| 2 * sizes[i]).collect();
    cluster.group_map_sized(&points, |k| {
        let rows = start[k]..start[k + 1];
        let inst = base + ids[k] as u64;
        let pc = steady_ant::mul_rows(&a_rows[rows.clone()], &b_rows[rows]);
        pc.into_iter().enumerate().map(move |(r, c)| Nonzero {
            inst,
            row: r as u32,
            col: c,
        })
    })
}

/// One operand's split: relabels every point of a large instance into its
/// child slice, rank-compacting the ranked coordinate, and returns the child
/// points and the children's coordinate maps (both in the points'
/// distribution).
///
/// Charged as the model runs it — a local map building the split records,
/// one `rank_search` of the records against themselves, then the two local
/// maps — but every rank comes from one ascending scan of each parent's
/// ranked coordinates (exactly `0..n`, a permutation's) with a counter per
/// child.
fn relabel(
    cluster: &mut Cluster,
    points: &DistVec<Nonzero>,
    slicing: &Slicing<'_>,
    operand: Operand,
) -> (DistVec<Nonzero>, DistVec<CoordMap>) {
    // Parent `i`'s ranked coordinates own `rank[start[i]..start[i + 1]]`.
    let start = starts(
        slicing
            .bounds_of
            .iter()
            .map(|bounds| bounds.last().map_or(0, |&n| n as usize)),
    );
    // First the child slice at every ranked coordinate, then its rank there.
    let mut rank = vec![u32::MAX; start[start.len() - 1]];
    for p in points.iter() {
        let i = slicing.at(p.inst);
        let (ranked, sliced) = operand.coords(p);
        let slot = &mut rank[start[i] + ranked as usize];
        debug_assert_eq!(*slot, u32::MAX, "instance {} repeats a coordinate", p.inst);
        *slot = slice_of(&slicing.bounds_of[i], sliced) as u32;
    }
    for (i, bounds) in slicing.bounds_of.iter().enumerate() {
        let mut next = vec![0u32; bounds.len().saturating_sub(1)];
        for slot in &mut rank[start[i]..start[i + 1]] {
            let child = *slot as usize;
            *slot = next[child];
            next[child] += 1;
        }
    }

    let shape = points.shape();
    cluster.charge_map(&shape);
    cluster.charge_rank_search(points.len(), &shape);
    let relabelled = |p: &Nonzero| {
        let i = slicing.at(p.inst);
        let bounds = &slicing.bounds_of[i];
        let (ranked, sliced) = operand.coords(p);
        let q = slice_of(bounds, sliced);
        let child = slicing.first_child[i] + q as u64;
        let r = rank[start[i] + ranked as usize];
        (child, r, ranked, sliced - bounds[q as usize])
    };
    let children = cluster.map(points, |p| {
        let (child, r, _, offset) = relabelled(p);
        operand.child_point(child, r, offset)
    });
    let maps = cluster.map(points, |p| {
        let (child, r, ranked, _) = relabelled(p);
        (child, r, ranked)
    });
    (children, maps)
}

/// One level's lift: joins every child product with the children's
/// coordinate maps to restore parent rows, then parent columns, colors
/// every nonzero with its child's parent and slice, and files the colored
/// union in the combine's [`Layout`]. Returns the layout and where join 2
/// placed every slot `(child, child column)`. Every child product lies in
/// `results` past `from`: per machine, the length its part had before the
/// level's first product was appended (0 for machines past `from`'s end).
///
/// Charged as the model runs it — the filter keeping the child products,
/// then per join local maps tagging both sides, their concatenation and one
/// `group_map` on `(child, child coordinate)` — but every join key is a
/// dense index (child `c`'s coordinates are `0..sizes[c]`), so each join is
/// an array lookup. The products are counted and filed where they lie, not
/// filtered into a copy. Both joins are only charged: join 1's outputs feed
/// nothing but join 2's column table, which composes the product with the
/// row map directly, and join 2's outputs are written straight into the
/// layout, one pool task per parent, while the placement of its charged
/// group map says which machine holds each slot.
///
/// # Panics
///
/// If a child row or column lacks its product or its map record, or has two:
/// every child of a level holds its full product when the level unwinds.
/// If two children's points land in one parent row or column: the row and
/// column maps of a parent's children partition its rows and columns.
fn lift(
    cluster: &mut Cluster,
    results: &DistVec<Nonzero>,
    from: &[usize],
    record: &LevelRecord,
) -> (Layout, Placement) {
    cluster.set_phase(Some("lift"));
    let children = cluster.broadcast(record.children.clone());

    // Child `c`'s coordinates own the slots `start[c]..start[c + 1]`.
    let start = starts(record.sizes.iter().copied());
    let total = start[record.sizes.len()];
    let slot = |child: u64, coord: u32| {
        let c = (child - children.start) as usize;
        debug_assert!(
            (coord as usize) < record.sizes[c],
            "child {child} has no coordinate {coord}"
        );
        start[c] + coord as usize
    };
    // Files records `(child, coordinate, value)` in `table` by slot and
    // returns how many: `what` names the record, `axis` the coordinate.
    let file = |table: &mut [u32], items: &mut dyn Iterator<Item = (u64, u32, u32)>, what, axis| {
        let mut filed = 0;
        for (child, coord, value) in items {
            let entry = &mut table[slot(child, coord)];
            assert_eq!(
                *entry,
                u32::MAX,
                "lift: child {child} {axis} {coord} has two {what}s"
            );
            *entry = value;
            filed += 1;
        }
        filed
    };
    let table = |maps: &DistVec<CoordMap>, what, axis| {
        let mut table = vec![u32::MAX; total];
        file(&mut table, &mut maps.iter().copied(), what, axis);
        table
    };
    // The child products, filed by row where they lie and counted per
    // machine: the shape the filter selecting them would keep.
    let products = || {
        let mut child_col = vec![u32::MAX; total];
        let kept: Vec<usize> = (0..results.machines())
            .map(|m| {
                let mut products = results.part(m)[from.get(m).copied().unwrap_or(0)..]
                    .iter()
                    .filter(|p| children.contains(&p.inst))
                    .map(|p| (p.inst, p.row, p.col));
                file(&mut child_col, &mut products, "product", "row")
            })
            .collect();
        (child_col, Shape::from_loads(kept))
    };
    let ((child_col, product_shape), (parent_row, parent_col)) = rayon::join(products, || {
        rayon::join(
            || table(&record.row_maps, "row map record", "row"),
            || table(&record.col_maps, "column map record", "column"),
        )
    });
    cluster.charge_filter(&product_shape);
    let pairs = vec![2usize; total];

    // Join 1: restore parent rows.
    cluster.charge_map(&product_shape);
    cluster.charge_map(&record.row_maps.shape());
    cluster.charge_concat(&product_shape, &record.row_maps.shape());
    let join1 = cluster.charge_group_map_sized(&pairs, |_| 1);

    // Join 2: restore parent columns and attach parent/color.
    cluster.charge_map(join1.shape());
    cluster.charge_map(&record.col_maps.shape());
    cluster.charge_concat(join1.shape(), &record.col_maps.shape());
    // Every machine learns each child's parent and color from the specs.
    cluster.broadcast(&record.parents);
    let union = cluster.charge_group_map_sized(&pairs, |_| 1);
    // Parent `i`'s colors are the children `first_child[i]..first_child[i +
    // 1]`; per child, its lifted parent row at every child column.
    let first_child = starts(record.parents.iter().map(|p| p.h));
    let layout = Layout::new(&record.parents, |i, push| {
        let mut lifted = Vec::new();
        for c in first_child[i]..first_child[i + 1] {
            let child = children.start + c as u64;
            let slots = start[c]..start[c + 1];
            lifted.clear();
            lifted.resize(slots.len(), u32::MAX);
            for (cr, (&row, &cc)) in parent_row[slots.clone()]
                .iter()
                .zip(&child_col[slots.clone()])
                .enumerate()
            {
                assert!(
                    row != u32::MAX && cc != u32::MAX,
                    "lift: child {child} row {cr} lacks its product or its row map record"
                );
                let entry = &mut lifted[cc as usize];
                assert_eq!(
                    *entry,
                    u32::MAX,
                    "lift: child {child} column {cc} has two lifted rows"
                );
                *entry = row;
            }
            let color = (c - first_child[i]) as u16;
            for (cc, (&row, &col)) in lifted.iter().zip(&parent_col[slots]).enumerate() {
                assert!(
                    row != u32::MAX && col != u32::MAX,
                    "lift: child {child} column {cc} lacks its lifted row or its column map record"
                );
                push(row, col, color);
            }
        }
    });
    (layout, union)
}

/// The length of every machine's part of `results`.
fn part_lengths(results: &DistVec<Nonzero>) -> Vec<usize> {
    (0..results.machines())
        .map(|m| results.part(m).len())
        .collect()
}

/// The running starts of consecutive ranges of the given lengths, closed by
/// the total: range `i` is `starts[i]..starts[i + 1]`.
pub(crate) fn starts(lengths: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut starts = vec![0];
    for len in lengths {
        starts.push(starts[starts.len() - 1] + len);
    }
    starts
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

/// The materialized local solve, split and lift the indexed steps are
/// tested against: every filter, rank search, tagging map, concatenation
/// and join runs as the primitive it is charged as.
#[cfg(test)]
mod oracle {
    use super::*;

    /// [`super::local_solve`], with the small instances' points filtered,
    /// tagged and gathered by instance.
    pub(super) fn local_solve(
        cluster: &mut Cluster,
        [a, b]: [&DistVec<Nonzero>; 2],
        base: u64,
        sizes: &[usize],
        small: &[bool],
    ) -> DistVec<Nonzero> {
        let at = move |inst: u64| (inst - base) as usize;
        let sizes = cluster.broadcast(sizes.to_vec());
        let in_small = cluster.broadcast(small.to_vec());
        let a_small = cluster.filter(a.clone(), |p| in_small[at(p.inst)]);
        let b_small = cluster.filter(b.clone(), |p| in_small[at(p.inst)]);
        let a_tagged = cluster.map(&a_small, |p| (false, *p));
        let b_tagged = cluster.map(&b_small, |p| (true, *p));
        let tagged = cluster.concat(a_tagged, b_tagged);
        cluster.group_map_view(
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
        )
    }

    /// Record produced by the split phase before rank-relabelling.
    #[derive(Clone, Copy, Debug)]
    struct SplitRec {
        /// Child instance the record belongs to.
        child: u64,
        /// Parent coordinate that still needs rank-compaction.
        ranked_coord: u32,
        /// The other coordinate, already translated to child coordinates.
        other_coord: u32,
    }

    /// [`super::relabel`], with a self rank search.
    pub(super) fn relabel(
        cluster: &mut Cluster,
        points: &DistVec<Nonzero>,
        slicing: &Slicing<'_>,
        operand: Operand,
    ) -> (DistVec<Nonzero>, DistVec<CoordMap>) {
        let recs = cluster.map(points, |p| {
            let i = slicing.at(p.inst);
            let bounds = &slicing.bounds_of[i];
            let (ranked, sliced) = operand.coords(p);
            let q = slice_of(bounds, sliced);
            SplitRec {
                child: slicing.first_child[i] + q as u64,
                ranked_coord: ranked,
                other_coord: sliced - bounds[q as usize],
            }
        });
        let ranked = {
            let queries = recs.clone();
            cluster.rank_search(
                &recs,
                |r| (r.child, r.ranked_coord as u64),
                queries,
                |r| (r.child, r.ranked_coord as u64),
            )
        };
        let children = cluster.map(&ranked, |(r, rank)| {
            operand.child_point(r.child, *rank as u32, r.other_coord)
        });
        let maps = cluster.map(&ranked, |(r, rank)| (r.child, *rank as u32, r.ranked_coord));
        (children, maps)
    }

    /// [`super::lift`], with two gathering joins, filtering the whole of
    /// `results` whatever `from` says.
    pub(super) fn lift(
        cluster: &mut Cluster,
        results: &DistVec<Nonzero>,
        _from: &[usize],
        record: &LevelRecord,
    ) -> DistVec<Colored> {
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
        let parents = cluster.broadcast(&record.parents);
        let parent_color: Vec<(u64, u16)> = parents
            .iter()
            .flat_map(|p| (0..p.h as u16).map(move |q| (p.inst, q)))
            .collect();
        cluster.group_map_view(
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
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine;
    use mpc_runtime::{Ledger, MpcConfig};
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

    fn on_threads<R: Send>(threads: usize, run: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(run)
    }

    fn parts<T: Clone>(dv: &DistVec<T>) -> Vec<Vec<T>> {
        (0..dv.machines()).map(|i| dv.part(i).to_vec()).collect()
    }

    type Relabel = fn(
        &mut Cluster,
        &DistVec<Nonzero>,
        &Slicing<'_>,
        Operand,
    ) -> (DistVec<Nonzero>, DistVec<CoordMap>);
    type Lift = fn(&mut Cluster, &DistVec<Nonzero>, &[usize], &LevelRecord) -> Vec<Vec<Colored>>;

    /// The indexed lift's union per machine, rebuilt from the layout's
    /// by-color table and join 2's placement.
    fn lift_union(
        cluster: &mut Cluster,
        results: &DistVec<Nonzero>,
        from: &[usize],
        record: &LevelRecord,
    ) -> Vec<Vec<Colored>> {
        let (layout, union) = lift(cluster, results, from, record);
        layout.union_parts(&union)
    }

    /// The materialized lift's union per machine.
    fn oracle_union(
        cluster: &mut Cluster,
        results: &DistVec<Nonzero>,
        from: &[usize],
        record: &LevelRecord,
    ) -> Vec<Vec<Colored>> {
        parts(&oracle::lift(cluster, results, from, record))
    }

    /// One split level: the frontier `base..base + ns.len()` of instances of
    /// sizes `ns`, all large but the one at index `small`, each large one cut
    /// into `h` slices. Returns the level's operands and its slicing.
    struct Level {
        base: u64,
        bounds_of: Vec<Vec<u32>>,
        first_child: Vec<u64>,
        a: Vec<Nonzero>,
        b: Vec<Nonzero>,
        parents: Vec<ParentSpec>,
        children: Range<u64>,
        sizes: Vec<usize>,
    }

    impl Level {
        fn new(ns: &[usize], h: usize, small: usize, base: u64, rng: &mut StdRng) -> Self {
            let mut lv = Level {
                base,
                bounds_of: Vec::new(),
                first_child: Vec::new(),
                a: Vec::new(),
                b: Vec::new(),
                parents: Vec::new(),
                children: base + ns.len() as u64..base + ns.len() as u64,
                sizes: Vec::new(),
            };
            for (i, &n) in ns.iter().enumerate() {
                let inst = base + i as u64;
                let (pa, pb) = (random_permutation(n, rng), random_permutation(n, rng));
                let point = |(row, col): (usize, usize)| Nonzero {
                    inst,
                    row: row as u32,
                    col: col as u32,
                };
                lv.a.extend(pa.nonzeros().map(point));
                lv.b.extend(pb.nonzeros().map(point));
                if i == small {
                    lv.bounds_of.push(Vec::new());
                    lv.first_child.push(0);
                    continue;
                }
                let h_p = h.min(n).max(2);
                let bounds: Vec<u32> = (0..=h_p).map(|q| (q * n / h_p) as u32).collect();
                lv.first_child.push(lv.children.end);
                for q in 0..h_p {
                    lv.sizes.push((bounds[q + 1] - bounds[q]) as usize);
                }
                lv.children.end += h_p as u64;
                lv.bounds_of.push(bounds);
                lv.parents.push(ParentSpec {
                    inst,
                    n,
                    h: h_p,
                    g: 4,
                });
            }
            // The small instance's points are filtered out before the split.
            let small_inst = base + small as u64;
            lv.a.retain(|p| p.inst != small_inst);
            lv.b.retain(|p| p.inst != small_inst);
            lv.a.shuffle(rng);
            lv.b.shuffle(rng);
            lv
        }

        fn slicing(&self) -> Slicing<'_> {
            Slicing {
                base: self.base,
                bounds_of: &self.bounds_of,
                first_child: &self.first_child,
            }
        }

        /// Runs the split of both operands on a fresh cluster.
        fn split(
            &self,
            config: &MpcConfig,
            relabel: Relabel,
        ) -> ([DistVec<Nonzero>; 2], [DistVec<CoordMap>; 2], Ledger) {
            let mut cluster = Cluster::new(config.clone());
            let a = cluster.distribute(self.a.clone());
            let b = cluster.distribute(self.b.clone());
            cluster.set_phase(Some("split"));
            let (a_children, row_maps) = relabel(&mut cluster, &a, &self.slicing(), Operand::A);
            let (b_children, col_maps) = relabel(&mut cluster, &b, &self.slicing(), Operand::B);
            (
                [a_children, b_children],
                [row_maps, col_maps],
                cluster.ledger().clone(),
            )
        }

        /// Every child's product, computed sequentially from its split
        /// operands, plus the rows of an instance that is no child.
        fn products(&self, children: &[DistVec<Nonzero>], rng: &mut StdRng) -> Vec<Nonzero> {
            let mut out = Vec::new();
            for (c, &n) in self.children.clone().zip(&self.sizes) {
                let (mut pa, mut pb) = (vec![0u32; n], vec![0u32; n]);
                for p in children[0].iter().filter(|p| p.inst == c) {
                    pa[p.row as usize] = p.col;
                }
                for p in children[1].iter().filter(|p| p.inst == c) {
                    pb[p.row as usize] = p.col;
                }
                let pc = steady_ant::mul_rows(&pa, &pb);
                out.extend(pc.into_iter().enumerate().map(|(r, col)| Nonzero {
                    inst: c,
                    row: r as u32,
                    col,
                }));
            }
            out.extend((0..5).map(|r| Nonzero {
                inst: self.children.end + 1,
                row: r,
                col: 4 - r,
            }));
            out.shuffle(rng);
            out
        }

        fn record(&self, [row_maps, col_maps]: [DistVec<CoordMap>; 2]) -> LevelRecord {
            LevelRecord {
                parents: self.parents.clone(),
                children: self.children.clone(),
                sizes: self.sizes.clone(),
                row_maps,
                col_maps,
            }
        }
    }

    /// Runs `lift` over `products` on a fresh cluster, every machine's part
    /// scanned from its start.
    fn lift_on(
        config: &MpcConfig,
        products: &[Nonzero],
        record: &LevelRecord,
        lift: Lift,
    ) -> (Vec<Vec<Colored>>, Ledger) {
        let mut cluster = Cluster::new(config.clone());
        let results = cluster.distribute(products.to_vec());
        let union = lift(&mut cluster, &results, &[], record);
        (union, cluster.ledger().clone())
    }

    #[test]
    fn indexed_split_and_lift_match_their_materialized_oracles() {
        // (instance sizes, h, index of the small instance): one or several
        // parents, n not a multiple of h, a small instance between large ones.
        let cases: [(&[usize], usize, usize); 5] = [
            (&[51], 2, 9),
            (&[37, 20, 41], 3, 1),
            (&[101, 9, 64], 4, 9),
            (&[83, 3, 57, 12], 5, 0),
            (&[2, 7, 3], 5, 9),
        ];
        for threads in [1, 4] {
            on_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(threads as u64);
                for (ns, h, small) in cases {
                    for machines in [1, 6] {
                        let case = format!("ns={ns:?} h={h} machines={machines} threads={threads}");
                        let lv = Level::new(ns, h, small, 3, &mut rng);
                        let config = MpcConfig::lenient(400, 0.5).with_machines(machines);

                        let (children, maps, ledger) = lv.split(&config, relabel);
                        let (want_children, want_maps, want_ledger) =
                            lv.split(&config, oracle::relabel);
                        for (got, want) in children.iter().zip(&want_children) {
                            assert_eq!(parts(got), parts(want), "split children, {case}");
                        }
                        for (got, want) in maps.iter().zip(&want_maps) {
                            assert_eq!(parts(got), parts(want), "split maps, {case}");
                        }
                        assert_eq!(ledger, want_ledger, "split ledger, {case}");

                        let products = lv.products(&children, &mut rng);
                        let record = lv.record(maps);
                        let got = lift_on(&config, &products, &record, lift_union);
                        let want = lift_on(&config, &products, &record, oracle_union);
                        assert_eq!(got.0, want.0, "lifted union, {case}");
                        assert_eq!(got.1, want.1, "lift ledger, {case}");
                        assert_eq!(
                            got.0.iter().map(Vec::len).sum::<usize>(),
                            ns.iter()
                                .enumerate()
                                .filter(|&(i, _)| i != small)
                                .map(|(_, n)| n)
                                .sum::<usize>(),
                            "one union point per parent row, {case}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn indexed_local_solve_matches_the_gathered_oracle() {
        // (instance sizes, which are small): one instance, small ones around
        // large ones, an empty small instance, a frontier with one small.
        let cases: [(&[usize], &[bool]); 4] = [
            (&[12], &[true]),
            (&[5, 30, 9, 1], &[true, false, true, true]),
            (&[7, 0, 16, 3], &[true, true, false, true]),
            (&[40, 40], &[false, true]),
        ];
        type Solve =
            fn(&mut Cluster, [&DistVec<Nonzero>; 2], u64, &[usize], &[bool]) -> DistVec<Nonzero>;
        let base = 3;
        let mut solved = 0;
        for threads in [1, 4] {
            solved += on_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(17 + threads as u64);
                let mut solved = 0;
                for (ns, small) in cases {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    for (i, &n) in ns.iter().enumerate() {
                        let inst = base + i as u64;
                        let point = |(row, col): (usize, usize)| Nonzero {
                            inst,
                            row: row as u32,
                            col: col as u32,
                        };
                        a.extend(random_permutation(n, &mut rng).nonzeros().map(point));
                        b.extend(random_permutation(n, &mut rng).nonzeros().map(point));
                    }
                    a.shuffle(&mut rng);
                    b.shuffle(&mut rng);
                    for machines in [1, 6] {
                        let case = format!(
                            "ns={ns:?} small={small:?} machines={machines} threads={threads}"
                        );
                        let config = MpcConfig::lenient(400, 0.5).with_machines(machines);
                        let run = |solve: Solve| {
                            let mut cluster = Cluster::new(config.clone());
                            let a = cluster.distribute(a.clone());
                            let b = cluster.distribute(b.clone());
                            cluster.set_phase(Some("local-solve"));
                            let out = solve(&mut cluster, [&a, &b], base, ns, small);
                            (parts(&out), cluster.ledger().clone())
                        };
                        let (got, ledger) = run(local_solve);
                        let (want, want_ledger) = run(oracle::local_solve);
                        assert_eq!(got, want, "products per machine, {case}");
                        assert_eq!(ledger, want_ledger, "ledger, {case}");
                        solved += got.iter().map(Vec::len).sum::<usize>();
                    }
                }
                solved
            });
        }
        assert!(solved > 0, "no case solved an instance");
    }

    /// The lift of a level whose first child lost its row `row` product
    /// (or, with `twice`, holds it twice).
    fn lift_with_a_broken_product(twice: bool) {
        let mut rng = StdRng::seed_from_u64(3);
        let lv = Level::new(&[10], 2, 9, 0, &mut rng);
        let config = MpcConfig::lenient(100, 0.5).with_machines(3);
        let (children, maps, _) = lv.split(&config, relabel);
        let mut products = lv.products(&children, &mut rng);
        let at = products
            .iter()
            .position(|p| p.inst == 1 && p.row == 3)
            .expect("child 1 has a row 3");
        if twice {
            products.push(products[at]);
        } else {
            products.remove(at);
        }
        lift_on(&config, &products, &lv.record(maps), lift_union);
    }

    #[test]
    #[should_panic(expected = "lift: child 1 row 3 lacks its product or its row map record")]
    fn a_lift_missing_a_product_names_the_child_and_row() {
        lift_with_a_broken_product(false);
    }

    #[test]
    #[should_panic(expected = "lift: child 1 row 3 has two products")]
    fn a_lift_with_a_repeated_product_names_the_child_and_row() {
        lift_with_a_broken_product(true);
    }

    /// Unwinds `instances` as [`mul_batch`] does, and at every level runs
    /// the lift and the combine twice, indexed and materialized, each on a
    /// fresh cluster of `config` that starts from the level's products
    /// where production leaves them. Requires equal per-machine unions and
    /// outputs and equal ledgers, unwinds on from the indexed outputs and
    /// checks the batch's products. Returns the levels compared.
    fn check_unwind(
        config: &MpcConfig,
        instances: &[(PermutationMatrix, PermutationMatrix)],
        params: &MulParams,
        case: &str,
    ) -> usize {
        let mut cluster = Cluster::new(config.clone());
        let max_n = instances.iter().map(|(a, _)| a.size()).max().unwrap_or(2);
        let rp = params.resolved(config, max_n);
        let Descent {
            records,
            mut results,
            mut solved_from,
        } = descend(&mut cluster, instances, &rp);
        let levels = records.len();
        let mut combined_from = None;
        for (level, record) in records.into_iter().enumerate().rev() {
            let from = solved_from[level + 1]
                .take()
                .or(combined_from.take())
                .expect("every child level gets products");
            let case = format!("level {level}, {case}");
            let (mut got, mut want) = (Cluster::new(config.clone()), Cluster::new(config.clone()));
            let (layout, union) = lift(&mut got, &results, &from, &record);
            let colored = oracle::lift(&mut want, &results, &from, &record);
            assert_eq!(
                layout.union_parts(&union),
                parts(&colored),
                "lifted union per machine, {case}"
            );
            assert_eq!(got.ledger(), want.ledger(), "lift ledger, {case}");
            let out = distributed_combine(&mut got, &layout, &union, rp.routing);
            let want_out = combine::oracle::distributed_combine(
                &mut want,
                colored,
                &record.parents,
                rp.routing,
            );
            assert_eq!(
                parts(&out),
                parts(&want_out),
                "combined per machine, {case}"
            );
            assert_eq!(got.ledger(), want.ledger(), "combine ledger, {case}");
            combined_from = Some(part_lengths(&results));
            results = cluster.concat(results, out);
        }
        let got = readout(&mut cluster, results, instances);
        for (i, (a, b)) in instances.iter().enumerate() {
            assert_eq!(got[i], steady_ant::mul(a, b), "instance {i}, {case}");
        }
        levels
    }

    /// The unwind of a batch of three instances (`n/2`, `n/4 ± 3`) on
    /// `MpcConfig::new(n, δ)` at `H ∈ {2, 4, 8}` and δ ∈ {0.25, 0.5, 0.75},
    /// at 1 and 2 threads, against the materialized lift and combine. The
    /// local threshold is the default capped at `n/16`, so every case
    /// unwinds at least one level with several parents.
    fn check_unwind_at(n: usize) {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let instances: Vec<_> = [n / 2, n / 4 + 3, n / 4 - 3]
            .into_iter()
            .map(|m| {
                (
                    random_permutation(m, &mut rng),
                    random_permutation(m, &mut rng),
                )
            })
            .collect();
        for delta in [0.25, 0.5, 0.75] {
            let config = MpcConfig::new(n, delta);
            let threshold = (config.space / 4).min(n / 16);
            for h in [2, 4, 8] {
                let params = MulParams::default()
                    .with_h(h)
                    .with_local_threshold(threshold);
                for threads in [1, 2] {
                    let case = format!("n={n} δ={delta} H={h} threads={threads}");
                    let levels = on_threads(threads, || {
                        check_unwind(&config, &instances, &params, &case)
                    });
                    assert!(levels > 0, "no level unwound, {case}");
                }
            }
        }
    }

    #[test]
    #[ignore = "at scale: run in release with --ignored"]
    fn unwind_matches_the_materialized_lift_and_combine_at_2_12() {
        check_unwind_at(1 << 12);
    }

    #[test]
    #[ignore = "at scale: run in release with --ignored"]
    fn unwind_matches_the_materialized_lift_and_combine_at_2_14() {
        check_unwind_at(1 << 14);
    }

    #[test]
    #[should_panic(expected = "lift: parent 0 row 3 has two union points")]
    fn a_lift_whose_row_maps_repeat_a_parent_row_names_the_parent_and_row() {
        let mut rng = StdRng::seed_from_u64(5);
        let lv = Level::new(&[10], 2, 9, 0, &mut rng);
        let config = MpcConfig::lenient(100, 0.5).with_machines(3);
        let (children, [row_maps, col_maps], _) = lv.split(&config, relabel);
        let products = lv.products(&children, &mut rng);
        // Row 0 of both children (1 and 2) is sent to parent row 3.
        let mut cluster = Cluster::new(config.clone());
        let row_maps = cluster.map(&row_maps, |&(child, row, parent_row)| {
            (child, row, if row == 0 { 3 } else { parent_row })
        });
        lift_on(
            &config,
            &products,
            &lv.record([row_maps, col_maps]),
            lift_union,
        );
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
