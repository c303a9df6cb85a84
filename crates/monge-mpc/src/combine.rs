//! The distributed H-way combine (§3.2–§3.3 of the paper).
//!
//! Input: the colored union permutation of every parent instance being combined at
//! this recursion level (each nonzero knows which of the `H` subproblems produced
//! it). Output: the nonzeros of each parent's product matrix.
//!
//! A parent's colored union has exactly one point per row and one per column.
//! The combine therefore lays every parent out once, in one pass over the
//! union: its points filed in a row table and a column table (indexed by the
//! parent's offset plus the coordinate), its first band id and its colored
//! tree's geometry. Every phase below reads that one layout.
//!
//! The combine runs in a constant number of primitive rounds per level:
//!
//! 1. **Grid-line phase** — for every vertical grid line `c` (a multiple of `G`)
//!    compute, for every color `q`, the demarcation row `b_q(c) = min{i : opt(i,c) > q}`
//!    (from the pairwise crossovers `cmp(c,q,r)` of §3.2 and the breakpoint
//!    reconstruction in `monge::multiway`). The phase descends the colored
//!    H-ary tree level by level with batched rank-search packages; every
//!    machine stays within its space budget and the `O(1)` round bound
//!    follows from the tree height `⌈log_H n⌉ ≤ 10/(1−δ)`.
//!    The simulator charges that descent as the model runs it — the
//!    precompute's packages, and per level the packages, their rank search
//!    over the tree's per-level copies, the join on `(parent, c, q, r)` and
//!    the split of resolved from pending searches — but builds no tree:
//!    every count the tree answers is read off the layout's tables. One pass
//!    over a parent's column table gives every color's count left of every
//!    grid line, which settles the precompute. A pending crossover is the
//!    `k`-th row, in row order, among the points whose value `color·W + col`
//!    lies in `[q·W + c, r·W + c)`; one sweep over the line columns per
//!    color pair keeps that point set in a row counter, which selects it. A
//!    walk's path is fixed by its leaf, so each level's segment count, which
//!    sizes the charged steps, follows from the crossover row and the tree's
//!    node sizes.
//! 2. **Classification** — a subgrid crossed by a demarcation line is *active*;
//!    points in non-active subgrids survive iff their color equals the locally
//!    constant `opt` (Lemma 3.10). Each active subgrid is annotated with its
//!    *pierced interval* `[opt(r0,c0), opt(r1,c1)]` — the colors of the
//!    demarcation lines crossing it. The model joins every column band's
//!    points with its two grid lines in one rebalancing `group_map`; the
//!    simulator charges that join but computes it by dense index: a
//!    counting-sort scatter files the points under their band ids, and each
//!    band reads its two lines by index.
//! 3. **Routing** — with the default [`Routing::Pierced`] strategy (Lemma 3.12)
//!    every active subgrid receives only the union points in its row/column range
//!    whose color lies in its pierced interval, plus the corner `F` vector
//!    restricted to that interval. Colors outside the interval shift every
//!    in-window `F_q` by the same amount anywhere inside the subgrid, so they
//!    cannot change an `opt` comparison and need not travel. The
//!    [`Routing::Bands`] baseline ships the whole row/column ranges (factor-`H`
//!    more routed volume, measured by the ledger's `comm_by_phase`).
//!    The model routes with rank searches, a multicast and a rebalancing
//!    join; the simulator charges exactly those, but counts the copies
//!    instead of making them. The points routed to a subgrid are exactly the
//!    in-window entries of its band's slice of one of the layout's tables,
//!    and each subgrid's copy count, which sizes the charged join, is counted
//!    there on the pool.
//! 4. **Local phase** — each active subgrid is resolved on one machine with
//!    [`monge::multiway::process_subgrid`], emitting the interesting points of
//!    Lemma 3.9 and the surviving union points. The model joins every
//!    subgrid's descriptor with its row and column copies in one `group_map`
//!    on `(parent, gi, gj)`; the simulator charges that join, and each group
//!    reads its descriptor by index and its points straight from its slices
//!    of the two tables, which the kernel filters to the window itself.

use crate::mul::Nonzero;
use crate::params::Routing;
use monge::multiway::{opt_breakpoints_from_cmp, process_subgrid, ColoredPoint, SubgridTables};
use mpc_runtime::{Cluster, DistVec, Shape};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// A nonzero of the union permutation, tagged with its parent instance and color.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Colored {
    /// Parent instance being combined.
    pub inst: u64,
    /// Row of the nonzero in the parent's coordinates.
    pub row: u32,
    /// Column of the nonzero in the parent's coordinates.
    pub col: u32,
    /// Subproblem (color) that produced it.
    pub color: u16,
}

/// Static description of a parent instance participating in a combine.
#[derive(Clone, Copy, Debug)]
pub struct ParentSpec {
    /// Instance id.
    pub inst: u64,
    /// Matrix dimension of the parent.
    pub n: usize,
    /// Number of subproblems (colors) it was split into.
    pub h: usize,
    /// Grid spacing used for this parent.
    pub g: usize,
}

/// Identifies one subgrid of one parent: `(parent, grid row, grid column)`.
type Target = (u64, u32, u32);

/// An active subgrid descriptor produced by the classification phase.
#[derive(Clone, Debug, PartialEq)]
struct ActiveSubgrid {
    parent: u64,
    gi: u32,
    gj: u32,
    /// First color of the pierced interval: `opt` at the upper-left corner.
    wlo: u16,
    /// Last color of the pierced interval: `opt` at the lower-right corner.
    whi: u16,
    /// `F` at the upper-left corner, restricted to colors `wlo..=whi` (relative
    /// values; filled by the attach step).
    base_f: Vec<u64>,
}

impl ActiveSubgrid {
    fn target(&self) -> Target {
        (self.parent, self.gi, self.gj)
    }
}

/// Verdict of the classification phase for a single union point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// The point's subgrid has constant `opt` equal to its color: it survives.
    Keep,
    /// Constant `opt` different from its color: it is dropped.
    Drop,
    /// The point lies in an active subgrid; the local phase decides.
    Active,
}

/// Per-line output of the grid phase: the demarcation rows `b_q(c)` for one vertical
/// grid line at column `c`.
#[derive(Clone, Debug, PartialEq)]
struct LineInfo {
    parent: u64,
    /// Grid-line column (a multiple of `G`, or `n`).
    c: u32,
    /// `b[q] = min{i : opt(i, c) > q}` (equal to `n + 1` when demarcation line `q`
    /// never crosses this grid line).
    b: Vec<u32>,
}

/// Runs the distributed combine for all `parents` at once and returns the product
/// nonzeros of every parent.
pub fn distributed_combine(
    cluster: &mut Cluster,
    colored: DistVec<Colored>,
    parents: &[ParentSpec],
    routing: Routing,
) -> DistVec<Nonzero> {
    let specs: BTreeMap<u64, ParentSpec> = parents.iter().map(|p| (p.inst, *p)).collect();
    let layout = Layout::new(&colored, &cluster.broadcast(specs));

    // Phase 1: per-line demarcation rows.
    cluster.set_phase(Some("combine-grid"));
    let lines = grid_phase(cluster, &colored, &layout);

    // Phase 2: classify points, enumerate active subgrids with their windows.
    cluster.set_phase(Some("combine"));
    let classified = classify(cluster, &colored, &lines, &layout, routing);
    let active = attach_base_f(cluster, classified.active, &layout);

    // Points of non-active subgrids that survive (Lemma 3.10, constant case).
    let (points, verdicts) = (&classified.points, &classified.verdicts);
    let kept_points = cluster.filter(classified.placed.clone(), |&i| {
        verdicts[i as usize] == Verdict::Keep
    });
    let kept: DistVec<Nonzero> = cluster.map(&kept_points, |&i| {
        let p = points[i as usize];
        Nonzero {
            inst: p.inst,
            row: p.row,
            col: p.col,
        }
    });

    // Phase 3: routing. The points leave their verdicts behind.
    cluster.set_phase(Some("combine-route"));
    let points_shape = classified.placed.shape();
    cluster.charge_map(&points_shape);
    let rows = route_band(cluster, &layout, &points_shape, &active, true);
    let cols = route_band(cluster, &layout, &points_shape, &active, false);

    // Phase 4: local subgrid resolution (communication-wise this is the routed
    // volume arriving at its target machines, so it stays under "combine-route").
    let subgrid_out = resolve_subgrids(cluster, &active, [&rows, &cols], &layout);

    cluster.set_phase(None::<String>);
    cluster.concat(kept, subgrid_out)
}

/// Every parent of a combine laid out once, parents in ascending id.
///
/// A band is one grid row or one grid column of a parent (`G` rows or
/// columns), and both are numbered alike: parent `p`'s band `b` has id
/// `p.band + b`, so band ids ascend with `(parent, band)`. A parent's colored
/// union has exactly one point per row and one per column, so its points are
/// filed once in a row table and a column table: its point in row `r` is
/// `rows[p.first + r]` and its point in column `c` is `cols[p.first + c]`.
/// The grid phase, the corner-`F` step, the routing's band slices and the
/// subgrids' slices all read these tables.
struct Layout {
    parents: Vec<Parent>,
    /// Number of bands over all parents.
    bands: usize,
    rows: Vec<ColoredPoint>,
    cols: Vec<ColoredPoint>,
}

/// One parent's place in the [`Layout`], its colored tree's geometry and
/// its per-line color counts.
struct Parent {
    spec: ParentSpec,
    /// The parent's first slot in the row and column tables.
    first: usize,
    /// The id of the parent's first band.
    band: usize,
    /// Per tree level, root first: its node size (see [`level_sizes`]).
    sizes: Vec<u64>,
    /// Per grid line `l` and color `x`, at `l·h + x`: `U_x(c_l)`, the
    /// number of color-`x` points left of the line (see [`Parent::left`]).
    left: Vec<u32>,
}

impl Layout {
    /// Lays out every parent of `specs`, files the points of `colored` in
    /// one pass, then counts every parent's colors left of its grid lines
    /// from its column table, parents in parallel.
    fn new(colored: &DistVec<Colored>, specs: &BTreeMap<u64, ParentSpec>) -> Self {
        let (mut first, mut bands) = (0usize, 0usize);
        let mut parents: Vec<Parent> = specs
            .values()
            .map(|&spec| {
                let parent = Parent {
                    spec,
                    first,
                    band: bands,
                    sizes: level_sizes(spec.n, spec.h),
                    left: Vec::new(),
                };
                first += spec.n;
                bands += spec.n.div_ceil(spec.g);
                parent
            })
            .collect();

        // A slot no point fills keeps a color outside every window.
        let empty = ColoredPoint {
            row: 0,
            col: 0,
            color: u16::MAX,
        };
        let (mut rows, mut cols) = (vec![empty; first], vec![empty; first]);
        // Look each parent up once per run of its points.
        let mut at = 0;
        for p in colored.iter() {
            if parents[at].spec.inst != p.inst {
                at = parents.partition_point(|q| q.spec.inst < p.inst);
            }
            let (first, n) = (parents[at].first, parents[at].spec.n);
            debug_assert!(
                (p.row as usize) < n && rows[first + p.row as usize].color == u16::MAX,
                "the colored union of parent {} must have one union point per row \
                 (row {} of n = {})",
                p.inst,
                p.row,
                n
            );
            debug_assert!(
                (p.col as usize) < n && cols[first + p.col as usize].color == u16::MAX,
                "the colored union of parent {} must have one union point per column \
                 (column {} of n = {})",
                p.inst,
                p.col,
                n
            );
            let point = ColoredPoint {
                row: p.row,
                col: p.col,
                color: p.color,
            };
            rows[first + p.row as usize] = point;
            cols[first + p.col as usize] = point;
        }
        debug_assert!(
            rows.iter().all(|p| p.color != u16::MAX),
            "the colored union of every parent must have one union point per row \
             (a row has none)"
        );
        let left: Vec<Vec<u32>> = parents
            .par_iter()
            .map(|p| p.count_left(&cols[p.first..p.first + p.spec.n]))
            .collect();
        for (p, left) in parents.iter_mut().zip(left) {
            p.left = left;
        }
        Self {
            parents,
            bands,
            rows,
            cols,
        }
    }

    /// The parent with id `id`.
    fn parent(&self, id: u64) -> &Parent {
        let at = self.parents.partition_point(|p| p.spec.inst < id);
        debug_assert_eq!(self.parents[at].spec.inst, id, "parent {id} is laid out");
        &self.parents[at]
    }

    /// The parent of band `id` and the band's index among its bands.
    fn band(&self, id: usize) -> (&Parent, u32) {
        let p = &self.parents[self.parents.partition_point(|p| p.band <= id) - 1];
        (p, (id - p.band) as u32)
    }

    /// `p`'s row table (`by_rows`) or column table over `range`.
    fn table(&self, p: &Parent, by_rows: bool, range: Range<u32>) -> &[ColoredPoint] {
        let table = if by_rows { &self.rows } else { &self.cols };
        &table[p.first + range.start as usize..p.first + range.end as usize]
    }

    /// The number of values the colored trees hold, every union point once
    /// per level of its parent's tree: what a query of the tree charges.
    fn tree_values(&self) -> usize {
        self.parents.iter().map(|p| p.spec.n * p.sizes.len()).sum()
    }
}

impl Parent {
    /// The id of the parent's band holding row or column `coord`.
    fn band_of(&self, coord: u32) -> usize {
        self.band + (coord / self.spec.g as u32) as usize
    }

    /// The height of the parent's tree: its leaves are this level.
    fn height(&self) -> usize {
        self.sizes.len() - 1
    }

    /// The number of the parent's grid lines: one per multiple of `G`
    /// below `n`, plus one at `n`.
    fn lines(&self) -> usize {
        self.spec.n.div_ceil(self.spec.g) + 1
    }

    /// The column of grid line `l`.
    fn line(&self, l: usize) -> u32 {
        (l * self.spec.g).min(self.spec.n) as u32
    }

    /// Per color `x`: `U_x(c_l)`, its points left of grid line `l`. The last
    /// line, at `n`, gives the color totals `n_x`.
    fn left(&self, l: usize) -> &[u32] {
        let h = self.spec.h;
        &self.left[l * h..(l + 1) * h]
    }

    /// [`Parent::left`] for every line at once, from the parent's column
    /// table `cols`: one pass with a counter per color, copied out at every
    /// line, a band of `G` columns apart.
    fn count_left(&self, cols: &[ColoredPoint]) -> Vec<u32> {
        let h = self.spec.h;
        let mut counts = vec![0u32; h];
        let mut left = Vec::with_capacity(self.lines() * h);
        for band in cols.chunks(self.spec.g) {
            left.extend_from_slice(&counts);
            for point in band {
                counts[point.color as usize] += 1;
            }
        }
        left.extend_from_slice(&counts);
        left
    }
}

/// The rows or columns `[G·band, G·band + G)` of band `band` of `spec`,
/// clipped to the parent's `n`.
fn band_range(spec: &ParentSpec, band: u32) -> Range<u32> {
    let (g, n) = (spec.g as u32, spec.n as u32);
    band * g..(band * g + g).min(n)
}

/// The active subgrids of one band table, every one with the number of
/// copies routed to it.
struct Routed {
    /// The subgrids `(parent, gi, gj)`, in table order.
    targets: Vec<Target>,
    /// How many copies are routed to each subgrid, in table order.
    copies: Vec<usize>,
    /// The shape of the copies as the charged join leaves them.
    shape: Shape,
}

/// Routes every point to the active subgrids whose row band (`by_rows = true`) or
/// column band contains it **and** whose pierced color interval contains the
/// point's color. (With [`Routing::Bands`] the classification widens every window
/// to all colors, which turns the filter into a no-op and recovers the baseline.)
///
/// A band may be crossed by a near-flat demarcation line and then contains far
/// more active subgrids than one machine's budget, so the routing never gathers
/// a band. Instead it exploits the monotonicity of the pierced windows along a
/// band (`opt` is nondecreasing in both coordinates, hence so are `wlo` and
/// `whi` in the cross-band index). The model runs it as:
///
/// 1. every active subgrid learns its *ordinal* within its band (one rank
///    search over the band's cross-band indices);
/// 2. every point finds the contiguous ordinal range of subgrids whose window
///    contains its color — `[#{whi < color}, #{wlo ≤ color})` (two rank
///    searches);
/// 3. the point multicasts one copy per target ordinal (the copies leave
///    balanced, as down a broadcast tree), and one final rebalancing grouping
///    joins each copy with the subgrid registered under that ordinal,
///    re-addressing it to `(parent, gi, gj)`.
///
/// Every group along the way holds `O(1)` descriptors plus one band's worth of
/// in-window points, so the whole exchange stays within the space budget.
///
/// The simulator charges exactly those steps (their local maps and
/// concatenation included, over `points_shape`, the shape of the points'
/// distributed vector) but copies nothing. The points a subgrid receives are
/// exactly the in-window entries of its band's slice of the parent's table in
/// the layout, so each subgrid's copy count is counted there, on the pool, and
/// the local phase reads the same slices.
fn route_band(
    cluster: &mut Cluster,
    layout: &Layout,
    points_shape: &Shape,
    active: &DistVec<ActiveSubgrid>,
    by_rows: bool,
) -> Routed {
    let band = move |gi: u32, gj: u32| if by_rows { gi } else { gj };
    let cross = move |gi: u32, gj: u32| if by_rows { gj } else { gi };

    // The band table: every active subgrid as (parent, band, cross, wlo,
    // whi), sorted, so each band's subgrids are a run in ordinal order.
    let mut table: Vec<(u64, u32, u32, u16, u16)> = active
        .iter()
        .map(|d| (d.parent, band(d.gi, d.gj), cross(d.gi, d.gj), d.wlo, d.whi))
        .collect();
    table.par_sort_unstable();
    for w in table.windows(2) {
        debug_assert!(
            (w[0].0, w[0].1) != (w[1].0, w[1].1) || (w[0].3 <= w[1].3 && w[0].4 <= w[1].4),
            "pierced windows of parent {} decrease along band {}",
            w[0].0,
            w[0].1
        );
    }
    let copies: Vec<usize> = table
        .par_iter()
        .map(|&(parent, b, _, wlo, whi)| {
            let p = layout.parent(parent);
            layout
                .table(p, by_rows, band_range(&p.spec, b))
                .iter()
                .filter(|p| (wlo..=whi).contains(&p.color))
                .count()
        })
        .collect();
    let sizes: Vec<usize> = copies.iter().map(|copies| 1 + copies).collect();
    let volume = copies.iter().sum();

    let active_shape = active.shape();
    cluster.charge_map(&active_shape);
    cluster.charge_rank_search(active.len(), &active_shape);
    cluster.charge_rank_search(active.len(), points_shape);
    cluster.charge_rank_search(active.len(), points_shape);
    let copies_shape = cluster.charge_multicast(volume);
    cluster.charge_map(&active_shape);
    cluster.charge_concat(&active_shape, &copies_shape);
    let shape = cluster.charge_group_map_rebalanced(&sizes, volume);
    let targets = table
        .iter()
        .map(|&(parent, b, c, ..)| {
            let (gi, gj) = if by_rows { (b, c) } else { (c, b) };
            (parent, gi, gj)
        })
        .collect();
    Routed {
        targets,
        copies,
        shape,
    }
}

/// The local phase: joins every active subgrid's descriptor with its `rows`
/// and `cols` copies and resolves it (see [`resolve_subgrid`]).
///
/// Charged as the model runs it — a map addressing the descriptors, the
/// concatenation of both copy sets and the descriptors, and one `group_map`
/// on `(parent, gi, gj)` — but computed by dense index. The groups in key
/// order are the descriptors sorted by target, which is the row table's
/// order; the column table, ordered by `(parent, gj, gi)`, is permuted into
/// it. Every group reads its descriptor and its slices of the layout's
/// tables directly, and its outputs land where the charged group map packs
/// it.
fn resolve_subgrids(
    cluster: &mut Cluster,
    active: &DistVec<ActiveSubgrid>,
    [rows, cols]: [&Routed; 2],
    layout: &Layout,
) -> DistVec<Nonzero> {
    let active_shape = active.shape();
    cluster.charge_map(&active_shape);
    let routed = cluster.charge_concat(&rows.shape, &cols.shape);
    cluster.charge_concat(&routed, &active_shape);

    let mut descs: Vec<&ActiveSubgrid> = active.iter().collect();
    descs.sort_unstable_by_key(|d| d.target());
    debug_assert!(
        descs
            .iter()
            .map(|d| d.target())
            .eq(rows.targets.iter().copied()),
        "the row table lists the active subgrids in target order"
    );
    let mut col_of: Vec<usize> = (0..cols.targets.len()).collect();
    col_of.sort_unstable_by_key(|&t| cols.targets[t]);
    let sizes: Vec<usize> = (0..descs.len())
        .map(|k| 1 + rows.copies[k] + cols.copies[col_of[k]])
        .collect();
    cluster.group_map_sized(&sizes, |k| resolve_subgrid(descs[k], layout))
}

/// Resolves active subgrid `d` locally from its slices of the layout's
/// tables: the points in its row and column bands, of which the kernel reads
/// those whose color lies in the pierced window.
///
/// The kernel works in *window coordinates*: the `F` vector covers only the
/// window. Inside the subgrid every `opt` value lies within the window and all
/// out-of-window colors contribute a window-uniform shift, so the argmin
/// comparisons — and hence the emitted nonzeros — are identical to the
/// full-color computation.
fn resolve_subgrid(d: &ActiveSubgrid, layout: &Layout) -> impl Iterator<Item = Nonzero> {
    let p = layout.parent(d.parent);
    let (rows, cols) = (band_range(&p.spec, d.gi), band_range(&p.spec, d.gj));
    let sub = SubgridTables {
        r0: rows.start,
        r1: rows.end,
        c0: cols.start,
        c1: cols.end,
        wlo: d.wlo,
        base_f: &d.base_f,
        rows: layout.table(p, true, rows),
        cols: layout.table(p, false, cols),
    };
    let parent = d.parent;
    process_subgrid(&sub)
        .nonzeros
        .into_iter()
        .map(move |(row, col)| Nonzero {
            inst: parent,
            row,
            col,
        })
}

// =====================================================================================
// Colored H-ary tree geometry
// =====================================================================================

/// Node sizes of the colored H-ary tree over a parent's `n` rows, level by
/// level: level 0 is the root covering the padded domain `[0, h^height)`,
/// and the `height` level's nodes are single rows, `height` being the
/// smallest `t ≥ 0` with `h^t ≥ n`. The paper's parameters give
/// `h = n^{(1−δ)/10}`, hence a height of at most `⌈10/(1−δ)⌉ = O(1)`.
fn level_sizes(n: usize, h: usize) -> Vec<u64> {
    let h = h.max(2) as u64;
    let mut sizes = vec![1u64];
    while sizes[sizes.len() - 1] < n as u64 {
        sizes.push(sizes[sizes.len() - 1].saturating_mul(h));
    }
    sizes.reverse();
    sizes
}

/// The number of maximal aligned tree nodes the row prefix `[0, upto)` of
/// `p`'s tree splits into: at every level below the root, the completed
/// siblings inside the node one level up. At most `(h − 1) · height`.
/// `upto` must lie strictly inside the padded domain `[0, h^height)`
/// (subgrid corners always do: `r0 < n`).
fn prefix_nodes(upto: u64, p: &Parent) -> usize {
    let h = p.spec.h.max(2) as u64;
    debug_assert!(upto < p.sizes[0] || p.height() == 0);
    p.sizes[1..]
        .iter()
        .map(|&size| (upto / size % h) as usize)
        .sum()
}

// =====================================================================================
// Grid-line phase
// =====================================================================================

/// One grid line of the descent: its parent, its column, and the machine
/// the precompute left the line's pairs on.
struct Line<'a> {
    p: &'a Parent,
    c: u32,
    machine: usize,
}

/// A crossover search `cmp(c, q, r)` left pending by the precompute: pair
/// `pair` of the flat pair array, on line `line`, with `δ_{q,r}(0, c)`.
struct Search {
    pair: usize,
    line: usize,
    q: u16,
    r: u16,
    delta_0: i64,
}

/// The paper's §3.2 grid-line phase: computes every `cmp(c, q, r)` by descending
/// the colored H-ary tree level by level, entirely within the per-machine space
/// budget.
///
/// The model first answers, per line, one rank-search package over the tree
/// root (the precompute round): the color totals and the prefix counts
/// `U_x(c)` give `δ(0, c)` and `δ(n, c)` for every pair, which settles a pair
/// whose demarcation line misses the grid line and leaves the others as
/// searches. Each descent level then sends, for every pending search, one
/// batched rank-search package per child segment of its current node over the
/// composite key `v = color·(n+1) + col`: the δ increment contributed by a row
/// segment `[a, b)` is exactly `#{v ∈ [q·(n+1)+c, r·(n+1)+c)}` restricted to
/// that segment (a color-`q` point left of the line leaves `T_q`, a color-`r`
/// point left of it leaves `T_r`, and any strictly-between color leaves the `S`
/// sum — each contributing `+1`; all other points cancel). A `group_map` on
/// `(parent, c, q, r)` prefix-sums each search's segments and descends into the
/// first one whose right boundary turns δ positive; a filter-and-map pair
/// splits the resolved crossovers from the pending searches. Prefix-summing
/// narrows the search by a factor of `h` per level, so `⌈log_h n⌉` levels —
/// `O(1)` with the paper's fan-out — pin the crossover exactly. A final
/// `group_map` on `(parent, c)` turns each line's `h(h−1)/2` crossovers into
/// its demarcation rows.
///
/// The simulator charges the precompute and every descent level's steps by
/// shape and runs the final assembly as the primitive it is, but reads every
/// count off the layout: the precompute's from [`Parent::left`], and each
/// search's crossover from [`crossover_rows`]. The searches sit in one flat
/// array in `(line, q, r)` order — the key order of every level's join. Each
/// level's groups are the searches still pending there (a parent's searches
/// all resolve at its leaf level), sized by their segment counts (see
/// [`segments`]), and the placement the charged join gives them decides where
/// the next level's packages start. Every query charges `colored.len()`
/// values, what a rank search over the points keyed for that one level costs.
fn grid_phase(
    cluster: &mut Cluster,
    colored: &DistVec<Colored>,
    layout: &Layout,
) -> DistVec<LineInfo> {
    let charged = colored.len() as u64;
    // Precompute round: per line, one package of `2h + 1` thresholds over the
    // root, answering the color totals and the prefix counts `U_x(c)`. The
    // line descriptors are O(n/G) metadata; like the input, they start out
    // distributed (no rounds charged). The answers come home rebalanced, in
    // line order.
    let line_keys: Vec<(&Parent, usize)> = layout
        .parents
        .iter()
        .flat_map(|p| (0..p.lines()).map(move |l| (p, l)))
        .collect();
    let queries = cluster.distribute(line_keys);
    let thresholds = queries.iter().map(|(p, _)| 2 * p.spec.h as u64 + 1).sum();
    let answers = cluster.charge_rank_search_multi(charged, queries.len(), thresholds);
    let machine_of = answers
        .loads()
        .enumerate()
        .flat_map(|(machine, load)| std::iter::repeat_n(machine, load));

    // Every line's pairs `q < r`, back to back in `(line, q, r)` order: the
    // crossovers the precompute settles, and the searches it leaves.
    let mut lines = Vec::new();
    let mut first = vec![0usize];
    let mut cmp = Vec::new();
    let mut searches = Vec::new();
    for (&(p, l), machine) in queries.iter().zip(machine_of) {
        let line = lines.len();
        lines.push(Line {
            p,
            c: p.line(l),
            machine,
        });
        let (h, n) = (p.spec.h, p.spec.n as u32);
        let (u, totals) = (p.left(l), p.left(p.lines() - 1));
        // Prefix sums over the colors of `U_x(c)` and of the totals `n_x`.
        let (mut pu, mut pn) = (vec![0i64; h + 1], vec![0i64; h + 1]);
        for x in 0..h {
            pu[x + 1] = pu[x] + u[x] as i64;
            pn[x + 1] = pn[x] + totals[x] as i64;
        }
        for q in 0..h {
            for r in q + 1..h {
                // δ(n, c) = Σ_{x ∈ (q, r]} U_x(c);  δ(0, c) adds U_q − U_r − Σ_{[q,r)} n_x.
                let delta_n = pu[r + 1] - pu[q + 1];
                let delta_0 = u[q] as i64 - u[r] as i64 - (pn[r] - pn[q]) + delta_n;
                if delta_n <= 0 {
                    cmp.push(n + 1);
                } else if delta_0 > 0 {
                    cmp.push(0);
                } else {
                    searches.push(Search {
                        pair: cmp.len(),
                        line,
                        q: q as u16,
                        r: r as u16,
                        delta_0,
                    });
                    cmp.push(0); // set by the descent
                }
            }
        }
        first.push(cmp.len());
    }

    // The descent, computed: every search's crossover row, the leaf its walk
    // ends at.
    let leaves = crossover_rows(layout, &lines, &searches);
    for (s, &leaf) in searches.iter().zip(&leaves) {
        cmp[s.pair] = leaf + 1;
    }

    // The descent, charged: the precompute's packages expand into every
    // line's pairs on the line's machine, then each level runs its steps
    // over the searches pending there. A search resolves at its parent's
    // leaf level and stays on the machine its last group ran on.
    let machines = cluster.config().machines;
    let max_height = layout.parents.iter().map(Parent::height).max().unwrap_or(0) as u32;
    // The level a search resolves at: its parent's leaf level (level 1 for
    // a one-row parent, whose root is its leaf).
    let last = |s: &Search| lines[s.line].p.height().max(1) as u32;
    let mut machine: Vec<usize> = searches.iter().map(|s| lines[s.line].machine).collect();
    let mut work = vec![0usize; machines];
    for (line, pairs) in lines.iter().zip(first.windows(2)) {
        work[line.machine] += pairs[1] - pairs[0];
    }
    let mut pending = vec![0usize; machines];
    for &m in &machine {
        pending[m] += 1;
    }
    let known: Vec<usize> = work.iter().zip(&pending).map(|(w, p)| w - p).collect();
    cluster.charge_flat_map(&Shape::from_loads(work));
    let mut resolved = Shape::from_loads(known);
    charge_split(cluster, &resolved, &Shape::from_loads(pending));
    // The searches pending at level `t`, in key order.
    let mut live: Vec<usize> = (0..searches.len()).collect();
    for t in 1..=max_height {
        let seg_count = |i: usize| segments(lines[searches[i].line].p, leaves[i], t as usize);
        let mut packages = vec![0usize; machines];
        for &i in &live {
            packages[machine[i]] += seg_count(i);
        }
        let total: usize = packages.iter().sum();
        cluster.charge_flat_map(&Shape::from_loads(packages));
        cluster.charge_rank_search_multi(charged, total, 2 * total as u64);
        let sizes: Vec<usize> = live.iter().map(|&i| seg_count(i)).collect();
        let placement = cluster.charge_group_map_sized(&sizes, |_| 1);
        let (mut newly, mut pending) = (vec![0usize; machines], vec![0usize; machines]);
        for (k, &i) in live.iter().enumerate() {
            machine[i] = placement.machine(k);
            if last(&searches[i]) == t {
                newly[machine[i]] += 1;
            } else {
                pending[machine[i]] += 1;
            }
        }
        let newly = Shape::from_loads(newly);
        charge_split(cluster, &newly, &Shape::from_loads(pending));
        resolved = cluster.charge_concat(&resolved, &newly);
        live.retain(|&i| last(&searches[i]) > t);
    }
    debug_assert_eq!(
        resolved.len(),
        cmp.len(),
        "all searches resolve at the leaves"
    );

    // Assemble per-line demarcation rows from the crossover values: one
    // group of `h(h−1)/2` crossovers per line, in `(parent, c)` order.
    let sizes: Vec<usize> = first.windows(2).map(|w| w[1] - w[0]).collect();
    cluster.group_map_sized(&sizes, |l| {
        let line = &lines[l];
        let (h, n) = (line.p.spec.h, line.p.spec.n as u32);
        let mut pairs = cmp[first[l]..first[l + 1]].iter();
        let mut matrix = vec![vec![0u32; h]; h];
        for q in 0..h {
            for r in q + 1..h {
                matrix[q][r] = *pairs.next().expect("h(h−1)/2 crossovers per line");
            }
        }
        let breakpoints = opt_breakpoints_from_cmp(&matrix, h, n);
        Some(LineInfo {
            parent: line.p.spec.inst,
            c: line.c,
            b: b_vector(&breakpoints, h, n),
        })
    })
}

/// Every search's crossover row `cmp(c, q, r) − 1`, the leaf its tree walk
/// ends at, in the order of `searches`.
///
/// Every row adds 0 or 1 to `δ_{q,r}(·, c)`: 1 exactly when its point's
/// value lies in `[q·W + c, r·W + c)`, that is when it has color `q` and
/// column `≥ c`, a color strictly between, or color `r` and column `< c`.
/// So the crossover is the `(1 − δ₀)`-th such row in row order. Per parent
/// and color `q` a [`RowSet`] holds those rows for one pair `(q, r)` at a
/// time, and a sweep over the line columns ascending updates it: color-`q`
/// points leave it and color-`r` points join it. After the pair the set is
/// topped up to `{q ≤ color ≤ r}`, the next pair's set at column 0, so every
/// color `q` costs `O(h·n_q + n)` updates. Parents run in parallel.
fn crossover_rows(layout: &Layout, lines: &[Line<'_>], searches: &[Search]) -> Vec<u32> {
    // A parent's lines are consecutive, and so are its searches.
    let runs: Vec<&[Search]> = searches
        .chunk_by(|a, b| std::ptr::eq(lines[a.line].p, lines[b.line].p))
        .collect();
    runs.par_iter()
        .map(|run| parent_crossovers(layout, lines, run))
        .collect::<Vec<_>>()
        .concat()
}

/// [`crossover_rows`] for the searches of one parent, in their order.
fn parent_crossovers(layout: &Layout, lines: &[Line<'_>], searches: &[Search]) -> Vec<u32> {
    let p = lines[searches[0].line].p;
    let (n, h) = (p.spec.n, p.spec.h);
    // The parent's points by color, each color's in column order: a
    // counting sort of its column table.
    let cols = layout.table(p, false, 0..n as u32);
    let mut start = vec![0usize; h + 1];
    for point in cols {
        start[point.color as usize + 1] += 1;
    }
    for x in 0..h {
        start[x + 1] += start[x];
    }
    let mut next = start.clone();
    let mut by_color = cols.to_vec();
    for point in cols {
        by_color[next[point.color as usize]] = *point;
        next[point.color as usize] += 1;
    }
    let color = |x: u16| &by_color[start[x as usize]..start[x as usize + 1]];

    // The searches by `(q, r)`, line order kept within a pair.
    let mut order: Vec<usize> = (0..searches.len()).collect();
    order.sort_by_key(|&i| (searches[i].q, searches[i].r));
    let mut leaves = vec![0u32; searches.len()];
    for same_q in order.chunk_by(|&a, &b| searches[a].q == searches[b].q) {
        let q = searches[same_q[0]].q;
        let mut set = RowSet::new(n);
        for point in color(q) {
            set.insert(point.row);
        }
        let mut pending = same_q.iter().peekable();
        for r in q + 1..h as u16 {
            if pending.peek().is_none() {
                break;
            }
            // The sweep has passed the first `i` color-`q` and the first `j`
            // color-`r` points.
            let (qs, rs) = (color(q), color(r));
            let (mut i, mut j) = (0, 0);
            while let Some(&s) = pending.next_if(|&&s| searches[s].r == r) {
                let c = lines[searches[s].line].c;
                let to = i + qs[i..].partition_point(|point| point.col < c);
                for point in &qs[i..to] {
                    set.remove(point.row);
                }
                i = to;
                let to = j + rs[j..].partition_point(|point| point.col < c);
                for point in &rs[j..to] {
                    set.insert(point.row);
                }
                j = to;
                leaves[s] = set.select((1 - searches[s].delta_0) as u32);
            }
            // Back to `{q ≤ color ≤ r}`, the next pair's set at column 0.
            for point in qs[..i].iter().chain(&rs[j..]) {
                set.insert(point.row);
            }
        }
    }
    leaves
}

/// A set of rows `0..n` that selects its `k`-th row: one bit per row, and a
/// count per block of `2^shift` words, about `√(n/64)` words a block, so an
/// update costs `O(1)` and a select `O(√n)` word reads.
struct RowSet {
    words: Vec<u64>,
    blocks: Vec<u32>,
    shift: u32,
}

impl RowSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let shift = (words.max(1).ilog2() / 2).max(3);
        Self {
            words: vec![0; words],
            blocks: vec![0; words.div_ceil(1 << shift)],
            shift,
        }
    }

    fn insert(&mut self, row: u32) {
        let word = row as usize / 64;
        debug_assert_eq!(
            self.words[word] >> (row % 64) & 1,
            0,
            "row {row} inserted twice"
        );
        self.words[word] |= 1 << (row % 64);
        self.blocks[word >> self.shift] += 1;
    }

    fn remove(&mut self, row: u32) {
        let word = row as usize / 64;
        debug_assert_eq!(self.words[word] >> (row % 64) & 1, 1, "row {row} is absent");
        self.words[word] &= !(1 << (row % 64));
        self.blocks[word >> self.shift] -= 1;
    }

    /// The `k`-th smallest row of the set, counting from 1.
    ///
    /// # Panics
    ///
    /// If the set holds fewer than `k` rows: a crossover search whose δ
    /// never turns positive breaks the descent's invariant.
    fn select(&self, mut k: u32) -> u32 {
        assert!(k >= 1, "δ₀ ≤ 0 for a pending search (invariant)");
        let block = self
            .blocks
            .iter()
            .position(|&count| {
                let found = k <= count;
                if !found {
                    k -= count;
                }
                found
            })
            .expect("δ must turn positive below row n (invariant)");
        let from = block << self.shift;
        for (at, &word) in self.words[from..].iter().enumerate() {
            let ones = word.count_ones();
            if k <= ones {
                // Clear the `k − 1` lowest set bits; the next one is the row.
                let mut word = word;
                for _ in 1..k {
                    word &= word - 1;
                }
                return ((from + at) * 64) as u32 + word.trailing_zeros();
            }
            k -= ones;
        }
        unreachable!("a block's count covers its words")
    }
}

/// The number of child segments descent level `t` (from 1) queries on the
/// walk that ends at row `leaf`: those of the walk's node one level up that
/// meet `[0, n)`, since a segment entirely inside the padded tail
/// `[n, h^height)` holds no points and cannot contain the crossover. A
/// one-row parent's root is its leaf, queried at level 1.
fn segments(p: &Parent, leaf: u32, t: usize) -> usize {
    let size = p.sizes[t.min(p.height())];
    let node = p.sizes[t - 1];
    let lo = leaf as u64 / node * node;
    (p.spec.n as u64 - lo).div_ceil(size).min(p.spec.h as u64) as usize
}

/// Charges the filter-and-map passes that split a descent step's outputs
/// into the `resolved` crossovers and the `pending` searches.
fn charge_split(cluster: &mut Cluster, resolved: &Shape, pending: &Shape) {
    cluster.charge_filter(resolved);
    cluster.charge_map(resolved);
    cluster.charge_filter(pending);
    cluster.charge_map(pending);
}

/// Converts `opt(·, c)` breakpoints into the demarcation rows
/// `b[q] = min{i : opt(i, c) > q}` (or `n + 1` when the line never crosses).
fn b_vector(breakpoints: &[(u32, u16)], h: usize, n: u32) -> Vec<u32> {
    let mut b = vec![n + 1; h];
    if let Some(&(_, first)) = breakpoints.first() {
        for q in 0..first {
            b[q as usize] = 0;
        }
    }
    for window in breakpoints.windows(2) {
        let (_, cur_val) = window[0];
        let (next_start, next_val) = window[1];
        for q in cur_val..next_val {
            b[q as usize] = next_start;
        }
    }
    b
}

/// The classification's outputs.
struct Classified {
    /// The active subgrids, each with its pierced interval.
    active: DistVec<ActiveSubgrid>,
    /// Every union point, band by band (arrival order within a band).
    points: Vec<Colored>,
    /// Every point's verdict, aligned with `points`.
    verdicts: Vec<Verdict>,
    /// The classified points as indices into `points`, on the machines where
    /// the classification leaves them.
    placed: DistVec<u32>,
}

/// Classifies points and enumerates active subgrids from the per-line information,
/// annotating every active subgrid with its pierced color interval.
///
/// The model replicates every grid line into the two column bands it borders,
/// keys every point by its band, and joins each band's points with its two
/// lines in one rebalancing `group_map` (a band can enumerate many active
/// subgrids, so its outputs leave rebalanced). The simulator charges those
/// steps and the two filter-and-map passes that split the outputs, but
/// computes the join by dense band id (see [`Layout`]): a counting-sort scatter
/// files the points under their bands in arrival order, every band reads its
/// borders by index and is classified by [`classify_band`], and the join's
/// outputs are indices into the flat results, so splitting them moves no
/// descriptor or point.
fn classify(
    cluster: &mut Cluster,
    colored: &DistVec<Colored>,
    lines: &DistVec<LineInfo>,
    layout: &Layout,
    routing: Routing,
) -> Classified {
    // One output of the join, as an index into the flat results.
    #[derive(Clone, Copy)]
    enum Out {
        Active(u32),
        Point(u32),
    }

    // A grid line at column c borders the band to its right (if c < n) and
    // the band to its left (if c > 0): it is that band's left or right line.
    let borders_of = |line: &LineInfo| -> Vec<(usize, usize)> {
        let p = layout.parent(line.parent);
        let mut out = Vec::with_capacity(2);
        if line.c < p.spec.n as u32 {
            out.push((p.band_of(line.c), 0));
        }
        if line.c > 0 {
            out.push((p.band_of(line.c - 1), 1));
        }
        out
    };
    let bands = layout.bands;
    let mut borders: Vec<[Option<&LineInfo>; 2]> = vec![[None; 2]; bands];
    for line in lines.iter() {
        for (id, side) in borders_of(line) {
            borders[id][side] = Some(line);
        }
    }
    let band_ids: Vec<usize> = colored
        .iter()
        .map(|p| layout.parent(p.inst).band_of(p.col))
        .collect();
    let mut starts = vec![0usize; bands + 1];
    for &id in &band_ids {
        starts[id + 1] += 1;
    }
    for id in 0..bands {
        starts[id + 1] += starts[id];
    }
    let mut next = starts[..bands].to_vec();
    let mut points = vec![
        Colored {
            inst: 0,
            row: 0,
            col: 0,
            color: 0
        };
        colored.len()
    ];
    for (p, &id) in colored.iter().zip(&band_ids) {
        points[next[id]] = *p;
        next[id] += 1;
    }

    let per_band: Vec<(Vec<ActiveSubgrid>, Vec<Verdict>)> = (0..bands)
        .into_par_iter()
        .map(|id| {
            let (p, band) = layout.band(id);
            let [left, right] = borders[id].map(|line| line.expect("grid line missing for band"));
            let band_points = &points[starts[id]..starts[id + 1]];
            classify_band(&p.spec, band, left, right, band_points, routing)
        })
        .collect();
    let mut actives = Vec::new();
    let mut active_starts = vec![0usize];
    let mut verdicts = Vec::with_capacity(points.len());
    for (band_actives, band_verdicts) in per_band {
        actives.extend(band_actives);
        active_starts.push(actives.len());
        verdicts.extend(band_verdicts);
    }

    // The charged join: the line copies, the keyed points, their
    // concatenation and one group per band — its two lines and its points —
    // emitting the band's active subgrids, then its points.
    let line_copies = cluster.flat_map(lines, borders_of);
    let colored_shape = colored.shape();
    cluster.charge_map(&colored_shape);
    cluster.charge_concat(&line_copies.shape(), &colored_shape);
    let sizes: Vec<usize> = starts.windows(2).map(|w| 2 + w[1] - w[0]).collect();
    let outs: DistVec<Out> = cluster.group_map_rebalanced_sized(&sizes, |id| {
        let active = (active_starts[id]..active_starts[id + 1]).map(|i| Out::Active(i as u32));
        active.chain((starts[id]..starts[id + 1]).map(|i| Out::Point(i as u32)))
    });
    let active = cluster.filter(outs.clone(), |o| matches!(o, Out::Active(_)));
    let active = cluster.map(&active, |o| match o {
        Out::Active(i) => actives[*i as usize].clone(),
        Out::Point(_) => unreachable!(),
    });
    let placed = cluster.filter(outs, |o| matches!(o, Out::Point(_)));
    let placed = cluster.map(&placed, |o| match o {
        Out::Point(i) => *i,
        Out::Active(_) => unreachable!(),
    });
    Classified {
        active,
        points,
        verdicts,
        placed,
    }
}

/// Classifies the `points` of column band `band` of `spec` from the band's
/// `left` and `right` grid lines: returns the band's active subgrids in
/// ascending grid row, and every point's verdict in the points' order.
///
/// Demarcation line `q` crosses subgrid `(gi, band)` iff `R_gi < b_q(c_left)`
/// and `R_{gi+1} ≥ b_q(c_right)`, which holds for one contiguous range of
/// `gi`; the active rows are the union of those `h` ranges, found in
/// `O(h log h + active)` and looked up per point in a bitmap.
fn classify_band(
    spec: &ParentSpec,
    band: u32,
    left: &LineInfo,
    right: &LineInfo,
    points: &[Colored],
    routing: Routing,
) -> (Vec<ActiveSubgrid>, Vec<Verdict>) {
    let (g, n, h) = (spec.g as u32, spec.n as u32, spec.h);
    let band_rows = spec.n.div_ceil(spec.g) as u32;
    // opt at a corner lying on a known grid line: #{q : b_q ≤ row}.
    let opt_on = |line: &LineInfo, row: u32| -> u16 {
        line.b.iter().filter(|&&bq| bq <= row).count() as u16
    };

    // Line q's range: `gi·G < b_q(c_left)` bounds it above, and
    // `min(gi·G + G, n) ≥ b_q(c_right)` below (never, when line q misses
    // the right grid line).
    let mut ranges: Vec<(u32, u32)> = (0..h)
        .filter(|&q| right.b[q] <= n)
        .map(|q| {
            let lo = right.b[q].div_ceil(g).saturating_sub(1);
            (lo, left.b[q].div_ceil(g).min(band_rows))
        })
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    ranges.sort_unstable();
    let mut is_active = vec![0u64; band_rows.div_ceil(64) as usize];
    let mut active = Vec::new();
    let mut from = 0;
    for (lo, hi) in ranges {
        for gi in lo.max(from)..hi {
            is_active[gi as usize / 64] |= 1 << (gi % 64);
            // The pierced interval: opt at the subgrid's corners. Exactly the
            // lines wlo..whi cross this subgrid.
            let (wlo, whi) = match routing {
                Routing::Pierced => {
                    let r_lo = gi * g;
                    (opt_on(left, r_lo), opt_on(right, (r_lo + g).min(n)))
                }
                Routing::Bands => (0, (h - 1) as u16),
            };
            debug_assert!(wlo < whi || routing == Routing::Bands);
            active.push(ActiveSubgrid {
                parent: spec.inst,
                gi,
                gj: band,
                wlo,
                whi,
                base_f: Vec::new(), // filled by the attach step
            });
        }
        from = from.max(hi);
    }

    let verdicts = points
        .iter()
        .map(|p| {
            let gi = p.row / g;
            if (is_active[gi as usize / 64] >> (gi % 64)) & 1 == 1 {
                Verdict::Active
            } else if opt_on(left, gi * g) == p.color {
                Verdict::Keep
            } else {
                Verdict::Drop
            }
        })
        .collect();
    (active, verdicts)
}

// =====================================================================================
// Corner F vectors
// =====================================================================================

/// Space-conformant corner `F` vectors: evaluates, for every active subgrid, the
/// window-relative `F_y(r0, c0)` (colors `y ∈ [wlo, whi]`, anchored at
/// `F_{wlo} = 0`) from one batched rank-search over the colored tree levels.
///
/// The decomposition is `F_y(r0, c0) = F_y(0, c0) − Σ_{x<y} |{x, row < r0}| −
/// |{y, row < r0, col < c0}|`, whose window-relative differences need only
/// per-window-color totals `n_y`, prefix counts `U_y(c0)`, and the two row-prefix
/// counts. The model sends one package over the tree root for the totals
/// and prefix counts, and splits the row prefix `[0, r0)` into `O(h ·
/// height)` aligned tree nodes (see [`prefix_nodes`]), one package each,
/// answered by a rank search over the multicast per-level copies. It then
/// joins every subgrid's answered packages in one `group_map` on
/// `(parent, gi, gj)`.
///
/// The simulator charges those steps by shape, in that order, and runs the
/// join over the same group sizes in target order, but every group reads its
/// counts off the layout (see [`corner_vectors`]).
fn attach_base_f(
    cluster: &mut Cluster,
    active: DistVec<ActiveSubgrid>,
    layout: &Layout,
) -> DistVec<ActiveSubgrid> {
    // Every point is copied once per tree level (level 0 is the whole row
    // range, answering the global counts): Õ(1) copies — the tree's space
    // cost. They feed the rank search as its value side, so they leave
    // rebalanced rather than piling up (height + 1)-fold beside their source
    // points.
    let values = layout.tree_values();
    cluster.charge_multicast(values);
    // One package over the root, and one per node of the row prefix's
    // decomposition, each with two thresholds per window color plus one.
    let mut emitted = vec![0usize; active.machines()];
    let mut thresholds = 0u64;
    let mut descs: Vec<(&ActiveSubgrid, usize)> = Vec::with_capacity(active.len());
    for (machine, part) in emitted.iter_mut().enumerate() {
        for d in active.part(machine) {
            let p = layout.parent(d.parent);
            let packages = 1 + prefix_nodes(d.gi as u64 * p.spec.g as u64, p);
            *part += packages;
            thresholds += packages as u64 * (2 * (d.whi - d.wlo) as u64 + 3);
            descs.push((d, packages));
        }
    }
    let emitted = Shape::from_loads(emitted);
    cluster.charge_flat_map(&emitted);
    cluster.charge_rank_search_multi(values as u64, emitted.len(), thresholds);

    // The join's groups in key order: the subgrids by target, each holding
    // its packages.
    descs.sort_unstable_by_key(|(d, _)| d.target());
    let sizes: Vec<usize> = descs.iter().map(|&(_, packages)| packages).collect();
    let descs: Vec<&ActiveSubgrid> = descs.into_iter().map(|(d, _)| d).collect();
    let attached = corner_vectors(layout, &descs);
    cluster.group_map_sized(&sizes, |k| Some(attached[k].clone()))
}

/// Every subgrid of `descs` (sorted by target) with its corner `F` vector,
/// in that order. Per parent one sweep over its row table, in parallel
/// across parents, stops at every subgrid's `r0` and reads its counts: the
/// totals `n_y` and `U_y(c0)` from [`Parent::left`], and from the
/// [`RowSweep`] `#{y, row < r0}` and `#{y, row < r0, col < c0}`.
fn corner_vectors(layout: &Layout, descs: &[&ActiveSubgrid]) -> Vec<ActiveSubgrid> {
    let runs: Vec<&[&ActiveSubgrid]> = descs.chunk_by(|a, b| a.parent == b.parent).collect();
    runs.par_iter()
        .map(|run| {
            let p = layout.parent(run[0].parent);
            let mut sweep = RowSweep::new(p, layout);
            run.iter()
                .map(|d| {
                    sweep.advance(d.gi as usize * p.spec.g);
                    corner_f(p, &sweep, d)
                })
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
        .concat()
}

/// Active subgrid `d` with its corner `F` vector, `sweep` standing at its
/// `r0`.
fn corner_f(p: &Parent, sweep: &RowSweep<'_>, d: &ActiveSubgrid) -> ActiveSubgrid {
    let (wlo, k) = (d.wlo as usize, (d.whi - d.wlo) as usize);
    let (u, totals) = (p.left(d.gj as usize), p.left(p.lines() - 1));
    // #{color = y, row < r0, col < c0} for every window color.
    let b_cnt: Vec<i64> = (wlo..=wlo + k)
        .map(|y| sweep.above_left(y, d.gj as usize) as i64)
        .collect();

    // Window-relative F at the corner:
    // F_{y+1} − F_y = n_y − U_y(c0) − #{y, row<r0} − B_{y+1} + B_y.
    // Only differences matter downstream (the local phase is pure argmin
    // comparison), so anchor the vector at its minimum to keep it in u64.
    let mut f = vec![0i64; k + 1];
    for i in 0..k {
        let y = wlo + i;
        f[i + 1] =
            f[i] + totals[y] as i64 - u[y] as i64 - sweep.above(y) as i64 - b_cnt[i + 1] + b_cnt[i];
    }
    let anchor = f.iter().copied().min().unwrap_or(0);
    ActiveSubgrid {
        base_f: f.into_iter().map(|v| (v - anchor) as u64).collect(),
        ..d.clone()
    }
}

/// A sweep over one parent's row table in row order, counting the points
/// above it per color, and per color and column band.
struct RowSweep<'a> {
    rows: &'a [ColoredPoint],
    /// Per row: the column band of its point.
    band_of: Vec<u32>,
    /// The rows swept: the sweep stands at row `swept`.
    swept: usize,
    /// Per color: its points above the sweep.
    above: Vec<u32>,
    /// Per color, `width` slots: its points above the sweep per column band.
    bands: Vec<u32>,
    /// The number of column bands.
    width: usize,
}

impl<'a> RowSweep<'a> {
    fn new(p: &Parent, layout: &'a Layout) -> Self {
        let (n, g) = (p.spec.n, p.spec.g);
        // The column table a band at a time files every row's band.
        let mut band_of = vec![0u32; n];
        for (band, points) in layout.table(p, false, 0..n as u32).chunks(g).enumerate() {
            for point in points {
                band_of[point.row as usize] = band as u32;
            }
        }
        let width = n.div_ceil(g);
        Self {
            rows: layout.table(p, true, 0..n as u32),
            band_of,
            swept: 0,
            above: vec![0; p.spec.h],
            bands: vec![0; p.spec.h * width],
            width,
        }
    }

    /// Moves the sweep down to row `row` (at or below where it stands).
    fn advance(&mut self, row: usize) {
        let swept = self.rows[self.swept..row]
            .iter()
            .zip(&self.band_of[self.swept..row]);
        for (point, &band) in swept {
            let color = point.color as usize;
            self.above[color] += 1;
            self.bands[color * self.width + band as usize] += 1;
        }
        self.swept = row;
    }

    /// `#{color y, row < swept}`.
    fn above(&self, y: usize) -> u32 {
        self.above[y]
    }

    /// `#{color y, row < swept, column band < band}`: the color's points
    /// above the sweep and left of column `band·G`.
    fn above_left(&self, y: usize, band: usize) -> u32 {
        self.bands[y * self.width..y * self.width + band]
            .iter()
            .sum()
    }
}

/// The materialized combine the indexed one is tested against: the grid
/// descent, the classification, the corner-`F` join, the routing and the
/// subgrid join run as the primitives they are charged as, every join
/// gathering its groups by key.
#[cfg(test)]
mod oracle {
    use super::*;
    use monge::multiway::{process_subgrid_reference, SubgridInstance};
    use mpc_runtime::{Group, RankIndex};

    impl Parent {
        /// The composite stride `W = n + 1` of the tree's values `color·W + col`.
        pub(super) fn w(&self) -> u64 {
            self.spec.n as u64 + 1
        }
    }

    /// Decomposes the row prefix `[0, upto)` of `p`'s tree into maximal aligned
    /// tree nodes: returns `(level, node_index)` pairs whose row ranges partition
    /// the prefix. At most `(h − 1) · height` nodes. `upto` must lie strictly
    /// inside the padded domain `[0, h^height)` (subgrid corners always do:
    /// `r0 < n`).
    pub(super) fn prefix_decomposition(upto: u64, p: &Parent) -> Vec<(u32, u64)> {
        let h = p.spec.h.max(2) as u64;
        debug_assert!(upto < p.sizes[0] || p.height() == 0);
        let mut out = Vec::new();
        for (t, &size) in p.sizes.iter().enumerate().skip(1) {
            let end = upto / size; // node index just past the prefix at this level
            let d = end % h; // completed siblings inside the level-(t−1) parent
            out.extend((end - d..end).map(|node| (t as u32, node)));
        }
        out
    }

    /// Nodes at a tree level of node size `size`: the row blocks that meet
    /// `[0, n)`.
    pub(super) fn node_count(n: usize, size: u64) -> u64 {
        (n as u64).saturating_sub(1) / size + 1
    }

    /// The colored H-ary tree of every parent in a combine as one rank index:
    /// tree node `(parent, level, node)` holds the values `color·W + col` of the
    /// union points in its row block. Groups are dense codes, one per
    /// `(parent, level, node)`, numbered parent by parent and level by level
    /// (see [`LeveledIndex::group`]).
    ///
    /// A parent's colored union is a permutation — exactly one point per row — so
    /// every node is a contiguous block of the parent's values in row order. The
    /// build reads each point's value off the layout's row table: that is the
    /// leaf level, one row per node. It then builds every level above bottom-up,
    /// each node by merging the sorted blocks of its `H` children (see
    /// [`build_levels`]), parents in parallel; the runs land in group order, so
    /// the index is assembled without any sort.
    ///
    /// Built once per combine and shared by the grid precompute (level 0), every
    /// descent level `t` (level `min(t, height)`) and the corner-`F` step. The
    /// build charges nothing; every query charges its value side in full, so the
    /// ledger is that of one sort per search.
    pub(super) struct LeveledIndex {
        pub(super) index: RankIndex<u64>,
        /// Per parent id, per tree level: the group code of its first node.
        pub(super) bases: BTreeMap<u64, Vec<u64>>,
    }

    /// A rank index's runs: group codes, each group's start in the values
    /// (plus the end), and the values.
    pub(super) type Runs = (Vec<u64>, Vec<usize>, Vec<u64>);

    impl LeveledIndex {
        pub(super) fn build(layout: &Layout) -> Self {
            let (groups, starts, values) = Self::runs(layout, build_levels);
            let index = RankIndex::from_sorted_runs(groups, starts, values);
            Self {
                index,
                bases: Self::bases(layout),
            }
        }

        /// The dense group code of every parent's first node per level,
        /// codes numbered parent by parent and level by level.
        pub(super) fn bases(layout: &Layout) -> BTreeMap<u64, Vec<u64>> {
            let mut code = 0;
            layout
                .parents
                .iter()
                .map(|p| {
                    let bases = p
                        .sizes
                        .iter()
                        .map(|&size| {
                            let base = code;
                            code += node_count(p.spec.n, size);
                            base
                        })
                        .collect();
                    (p.spec.inst, bases)
                })
                .collect()
        }

        /// The group code of `p`'s tree node `node` at `level`.
        pub(super) fn group(&self, p: &Parent, level: u32, node: u64) -> u64 {
            self.bases[&p.spec.inst][level as usize] + node
        }

        /// Every tree node's run, parent by parent and level by level: `height +
        /// 1` runs of `n` values per parent, level 0 first, each sorted within
        /// every node. Each parent's leaf level is its row table's values; `fill`
        /// writes the levels above it from it.
        pub(super) fn runs<F>(layout: &Layout, fill: F) -> Runs
        where
            F: Fn(&mut [u64], &Parent) + Sync,
        {
            // One run per (parent, level), every node a block of it. Each parent
            // writes its own slices of the values, group codes and starts.
            let nodes = |p: &Parent| -> usize {
                p.sizes
                    .iter()
                    .map(|&size| node_count(p.spec.n, size) as usize)
                    .sum()
            };
            let parents = &layout.parents;
            let bases = Self::bases(layout);
            let entries = parents.iter().map(|p| p.spec.n * p.sizes.len()).sum();
            let mut values = vec![0u64; entries];
            let total_nodes = parents.iter().map(nodes).sum();
            let mut groups = vec![0u64; total_nodes];
            let mut starts = vec![entries; total_nodes + 1];
            let mut trees = Vec::with_capacity(parents.len());
            let (mut rest, mut codes, mut firsts) = (
                values.as_mut_slice(),
                groups.as_mut_slice(),
                &mut starts[..total_nodes],
            );
            let mut offset = 0usize;
            for p in parents {
                let (levels, tail) =
                    std::mem::take(&mut rest).split_at_mut(p.spec.n * p.sizes.len());
                rest = tail;
                let count = nodes(p);
                let (code, tail) = std::mem::take(&mut codes).split_at_mut(count);
                codes = tail;
                let (at, tail) = std::mem::take(&mut firsts).split_at_mut(count);
                firsts = tail;
                trees.push((levels, code, at, offset, p));
                offset += p.spec.n * p.sizes.len();
            }
            trees
                .into_par_iter()
                .for_each(|(levels, code, at, offset, p)| {
                    let n = p.spec.n;
                    let mut k = 0;
                    let bases = &bases[&p.spec.inst];
                    for (t, (&size, &base)) in p.sizes.iter().zip(bases).enumerate() {
                        for node in 0..node_count(n, size) {
                            code[k] = base + node;
                            at[k] = offset + t * n + node as usize * size as usize;
                            k += 1;
                        }
                    }
                    let leaves = layout.table(p, true, 0..n as u32);
                    for (v, q) in levels[p.height() * n..].iter_mut().zip(leaves) {
                        *v = q.color as u64 * p.w() + q.col as u64;
                    }
                    fill(levels, p)
                });
            (groups, starts, values)
        }
    }

    /// Smallest stretch of a level sorted as one pool task.
    const LEVEL_PIECE: usize = 1 << 13;

    /// Writes one parent's tree levels above its leaf level bottom-up: every
    /// level is a copy of the level below with every node's block sorted. The
    /// copy leaves each block as its `H` children's sorted runs, which the
    /// standard library's stable sort detects and merges. Blocks sort
    /// independently, so a long level is cut into pieces of whole blocks that
    /// sort in parallel.
    pub(super) fn build_levels(levels: &mut [u64], p: &Parent) {
        let n = p.spec.n;
        for t in (0..p.height()).rev() {
            let (upper, lower) = levels.split_at_mut((t + 1) * n);
            let level = &mut upper[t * n..];
            level.copy_from_slice(&lower[..n]);
            let block = p.sizes[t] as usize;
            let pieces: Vec<&mut [u64]> = level
                .chunks_mut(block * LEVEL_PIECE.div_ceil(block))
                .collect();
            pieces
                .into_par_iter()
                .for_each(|piece| piece.chunks_mut(block).for_each(<[u64]>::sort));
        }
    }

    /// One batched rank-search package of the corner-`F` computation: tree node
    /// `(level, node)` queried on behalf of one active subgrid.
    #[derive(Clone, Debug)]
    struct CornerPack {
        parent: u64,
        gi: u32,
        gj: u32,
        wlo: u16,
        whi: u16,
        level: u32,
        node: u64,
    }

    /// Every active subgrid's corner packages, answered: the level-0 package
    /// and one per node of its row prefix's decomposition, in the order of
    /// `active`, each subgrid's packages back to back.
    fn corner_packages(
        cluster: &mut Cluster,
        active: &DistVec<ActiveSubgrid>,
        layout: &Layout,
        tree: &LeveledIndex,
    ) -> DistVec<(CornerPack, Vec<u64>)> {
        // Every point participates once per tree level (level 0 is the whole row
        // range, answering the global counts): Õ(1) copies — the tree's space cost.
        // The per-level copies feed the batched rank search as its value side, so
        // they leave rebalanced rather than piling up (height + 1)-fold beside
        // their source points. They are exactly the shared index's entries, which
        // already hold them sorted, so the multicast is charged, not built.
        cluster.charge_multicast(tree.index.len());

        let packages: DistVec<CornerPack> = cluster.flat_map(active, |d| {
            let p = layout.parent(d.parent);
            let r0 = (d.gi * p.spec.g as u32) as u64;
            let mut out = vec![CornerPack {
                parent: d.parent,
                gi: d.gi,
                gj: d.gj,
                wlo: d.wlo,
                whi: d.whi,
                level: 0,
                node: 0,
            }];
            for (level, node) in prefix_decomposition(r0, p) {
                out.push(CornerPack {
                    parent: d.parent,
                    gi: d.gi,
                    gj: d.gj,
                    wlo: d.wlo,
                    whi: d.whi,
                    level,
                    node,
                });
            }
            out
        });

        cluster.rank_search_multi_in(&tree.index, tree.index.len() as u64, packages, |pk| {
            let p = layout.parent(pk.parent);
            let c0 = (pk.gj * p.spec.g as u32) as u64;
            // Layout per window color y: [y·W, y·W + c0], plus the closing
            // boundary (whi+1)·W for the color totals.
            let mut thresholds = Vec::with_capacity(2 * (pk.whi - pk.wlo) as usize + 3);
            for y in pk.wlo as u64..=pk.whi as u64 {
                thresholds.push(y * p.w());
                thresholds.push(y * p.w() + c0);
            }
            thresholds.push((pk.whi as u64 + 1) * p.w());
            (tree.group(p, pk.level, pk.node), thresholds)
        })
    }

    /// Active subgrid `(parent, gi, gj)` with its corner `F` vector, from its
    /// answered packages: the level-0 package first, then the row prefix's
    /// decomposition.
    fn corner_f<'a>(packs: impl IntoIterator<Item = &'a (CornerPack, Vec<u64>)>) -> ActiveSubgrid {
        let mut packs = packs.into_iter().peekable();
        let first = &packs.peek().expect("level-0 package present").0;
        let (parent, gi, gj, wlo, whi) = (first.parent, first.gi, first.gj, first.wlo, first.whi);
        let k = (whi - wlo) as usize;
        // Per window index i (color y = wlo + i): global color-prefix totals
        // and U_y(c0), plus row-prefix counts summed over the decomposition.
        let mut glob: Option<&[u64]> = None;
        let mut row_lt = vec![0i64; k + 2]; // Σ decomposition: #{color < y, row < r0} at boundaries
        let mut b_cnt = vec![0i64; k + 1]; // #{color = y, row < r0, col < c0}
        for (pk, counts) in packs {
            if pk.level == 0 {
                glob = Some(counts);
            } else {
                for i in 0..=k {
                    row_lt[i] += counts[2 * i] as i64;
                    b_cnt[i] += counts[2 * i + 1] as i64 - counts[2 * i] as i64;
                }
                row_lt[k + 1] += counts[2 * k + 2] as i64;
            }
        }
        let glob = glob.expect("level-0 package present");
        let n_y = |i: usize| -> i64 {
            let hi = if i == k {
                glob[2 * k + 2]
            } else {
                glob[2 * (i + 1)]
            };
            hi as i64 - glob[2 * i] as i64
        };
        let u_y = |i: usize| -> i64 { glob[2 * i + 1] as i64 - glob[2 * i] as i64 };
        // #{color = y, row < r0} from the decomposition's color-prefix counts.
        let r_y = |i: usize| -> i64 { row_lt[i + 1] - row_lt[i] };

        // Window-relative F at the corner:
        // F_{y+1} − F_y = n_y − U_y(c0) − #{y, row<r0} − B_{y+1} + B_y.
        // Only differences matter downstream (the local phase is pure argmin
        // comparison), so anchor the vector at its minimum to keep it in u64.
        let mut f = vec![0i64; k + 1];
        for i in 0..k {
            f[i + 1] = f[i] + n_y(i) - u_y(i) - r_y(i) - b_cnt[i + 1] + b_cnt[i];
        }
        let anchor = f.iter().copied().min().unwrap_or(0);
        ActiveSubgrid {
            parent,
            gi,
            gj,
            wlo,
            whi,
            base_f: f.into_iter().map(|v| (v - anchor) as u64).collect(),
        }
    }

    /// The tree walk [`super::crossover_rows`] and [`super::segments`] are
    /// tested against. Walks search `s` of `line` down the colored tree from
    /// the root and returns `cmp(c, q, r)`, the first row with `δ_{q,r} > 0`: the row after
    /// the leaf the walk ends at. At every level it prefix-sums the δ increments of the
    /// current node's child segments, descends into the first segment whose
    /// right boundary turns δ positive, and notes in `segs[t − 1]` how many
    /// segments level `t` queried: those meeting `[0, n)`, since a segment
    /// entirely inside the padded tail `[n, h^height)` holds no points and
    /// cannot contain the crossover.
    pub(super) fn descend(
        tree: &LeveledIndex,
        line: &Line<'_>,
        s: &Search,
        segs: &mut [u16],
    ) -> u32 {
        let p = line.p;
        let (n, height) = (p.spec.n as u64, p.height());
        let (from, to) = (
            s.q as u64 * p.w() + line.c as u64,
            s.r as u64 * p.w() + line.c as u64,
        );
        // Invariant: `δ(lo, c) = delta ≤ 0`, `lo` the current node's start.
        let (mut lo, mut delta) = (0u64, s.delta_0);
        for t in 1..=height.max(1) {
            let level = t.min(height);
            let size = p.sizes[level];
            let count = (0..p.spec.h as u64)
                .take_while(|&seg| lo + seg * size < n)
                .count();
            segs[t - 1] = count as u16;
            let node = tree.group(p, level as u32, lo / size);
            let mut seg = 0;
            loop {
                assert!(
                    seg < count,
                    "δ must turn positive within the node (invariant)"
                );
                let run = tree.index.run(node + seg as u64);
                let contrib = run.partition_point(|&v| v < to) - run.partition_point(|&v| v < from);
                if delta + contrib as i64 > 0 {
                    break;
                }
                delta += contrib as i64;
                seg += 1;
            }
            lo += seg as u64 * size;
        }
        (lo + 1) as u32
    }

    /// Payload routed to the final per-subgrid groups.
    #[derive(Clone, Debug)]
    pub(super) enum Payload {
        /// The subgrid descriptor.
        Desc(ActiveSubgrid),
        RowPt(ColoredPoint),
        ColPt(ColoredPoint),
    }

    /// [`super::distributed_combine`], with the gathering grid descent,
    /// classification, corner-`F` join, routing and subgrid join.
    pub(super) fn distributed_combine(
        cluster: &mut Cluster,
        colored: DistVec<Colored>,
        parents: &[ParentSpec],
        routing: Routing,
    ) -> DistVec<Nonzero> {
        let specs: BTreeMap<u64, ParentSpec> = parents.iter().map(|p| (p.inst, *p)).collect();
        let layout = Layout::new(&colored, &cluster.broadcast(specs));

        cluster.set_phase(Some("combine-grid"));
        let tree = LeveledIndex::build(&layout);
        let lines = grid_phase_tree(cluster, &colored, &layout, &tree);

        cluster.set_phase(Some("combine"));
        let (active, classified) = classify(cluster, &colored, lines, &layout, routing);
        let active = attach_base_f_tree(cluster, active, &layout, &tree);
        let kept: DistVec<Nonzero> = {
            let kept_points = cluster.filter(classified.clone(), |(_, v)| *v == Verdict::Keep);
            cluster.map(&kept_points, |(p, _)| Nonzero {
                inst: p.inst,
                row: p.row,
                col: p.col,
            })
        };

        cluster.set_phase(Some("combine-route"));
        let points_only = cluster.map(&classified, |(p, _)| *p);
        let row_routed = route_band(cluster, &points_only, &active, &layout, true);
        let col_routed = route_band(cluster, &points_only, &active, &layout, false);
        let descs = cluster.map(&active, |d| (d.target(), Payload::Desc(d.clone())));
        let all_items = {
            let rc = cluster.concat(row_routed, col_routed);
            cluster.concat(rc, descs)
        };
        let subgrid_out = cluster.group_map_view(
            all_items,
            |(target, _)| *target,
            |_, items| resolve_gathered(items, &layout),
        );

        cluster.set_phase(None::<String>);
        cluster.concat(kept, subgrid_out)
    }

    /// One pending crossover search `cmp(c, q, r)` descending the tree.
    #[derive(Clone, Copy, Debug)]
    struct CrossSearch {
        parent: u64,
        /// Grid-line column.
        c: u32,
        q: u16,
        r: u16,
        /// Start of the current tree node (invariant: `δ_{q,r}(lo, c) ≤ 0`).
        lo: u64,
        /// `δ_{q,r}(lo, c)`.
        delta_lo: i64,
    }

    /// A fully determined crossover value.
    #[derive(Clone, Copy, Debug)]
    struct ResolvedCmp {
        parent: u64,
        c: u32,
        q: u16,
        r: u16,
        /// `cmp(c, q, r)`: first row with `δ_{q,r} > 0`, or `n + 1`.
        val: u32,
    }

    /// Work items flowing through the descent.
    #[derive(Clone, Copy, Debug)]
    enum GridWork {
        Search(CrossSearch),
        Resolved(ResolvedCmp),
    }

    /// One batched rank-search package of the descent: segment `seg` of `search`'s
    /// current node at the current level.
    #[derive(Clone, Copy, Debug)]
    struct SegPack {
        search: CrossSearch,
        seg: u16,
    }

    /// A per-line query of the precompute round.
    #[derive(Clone, Copy, Debug)]
    struct LineQuery {
        parent: u64,
        c: u32,
    }

    /// [`super::grid_phase`], run level by level as the primitives it is
    /// charged as: every level's packages materialized, answered from the
    /// shared [`LeveledIndex`] and gathered by `(parent, c, q, r)`, and the
    /// crossovers gathered by `(parent, c)`.
    pub(super) fn grid_phase_tree(
        cluster: &mut Cluster,
        colored: &DistVec<Colored>,
        layout: &Layout,
        tree: &LeveledIndex,
    ) -> DistVec<LineInfo> {
        // Precompute round: per line, the color totals and the prefix counts
        // `U_x(c)` that determine δ(0, c) and δ(n, c) for every pair.
        let mut line_queries: Vec<LineQuery> = Vec::new();
        for p in &layout.parents {
            for l in 0..p.lines() {
                line_queries.push(LineQuery {
                    parent: p.spec.inst,
                    c: p.line(l),
                });
            }
        }
        // The line descriptors are O(n/G) metadata; like the input, they start out
        // distributed (no rounds charged).
        let queries = cluster.distribute(line_queries);
        // Level 0 is the root: all of a parent's points.
        let answered =
            cluster.rank_search_multi_in(&tree.index, colored.len() as u64, queries, |q| {
                let p = layout.parent(q.parent);
                let mut thresholds = Vec::with_capacity(2 * p.spec.h + 1);
                for x in 0..p.spec.h as u64 {
                    thresholds.push(x * p.w());
                    thresholds.push(x * p.w() + q.c as u64);
                }
                thresholds.push(p.spec.h as u64 * p.w());
                (tree.group(p, 0, 0), thresholds)
            });
        let work: DistVec<GridWork> = cluster.flat_map(&answered, |(lq, counts)| {
            let spec = layout.parent(lq.parent).spec;
            let (h, n) = (spec.h, spec.n as u32);
            // counts layout: [0·W, 0·W+c, 1·W, 1·W+c, …, (h−1)·W, (h−1)·W+c, h·W].
            let p_at = |x: usize| counts[2 * x] as i64; // Σ_{y<x} n_y
            let u_at = |x: usize| (counts[2 * x + 1] - counts[2 * x]) as i64; // U_x(c)
            let mut pu = vec![0i64; h + 1]; // prefix sums of U
            for x in 0..h {
                pu[x + 1] = pu[x] + u_at(x);
            }
            let mut out = Vec::with_capacity(h * (h - 1) / 2);
            for q in 0..h {
                for r in q + 1..h {
                    // δ(n, c) = Σ_{x ∈ (q, r]} U_x(c);  δ(0, c) adds U_q − U_r − Σ_{[q,r)} n_x.
                    let delta_n = pu[r + 1] - pu[q + 1];
                    let delta_0 = u_at(q) - u_at(r) - (p_at(r) - p_at(q)) + delta_n;
                    let item = if delta_n <= 0 {
                        GridWork::Resolved(ResolvedCmp {
                            parent: lq.parent,
                            c: lq.c,
                            q: q as u16,
                            r: r as u16,
                            val: n + 1,
                        })
                    } else if delta_0 > 0 {
                        GridWork::Resolved(ResolvedCmp {
                            parent: lq.parent,
                            c: lq.c,
                            q: q as u16,
                            r: r as u16,
                            val: 0,
                        })
                    } else {
                        GridWork::Search(CrossSearch {
                            parent: lq.parent,
                            c: lq.c,
                            q: q as u16,
                            r: r as u16,
                            lo: 0,
                            delta_lo: delta_0,
                        })
                    };
                    out.push(item);
                }
            }
            out
        });
        let (mut resolved, mut searches) = split_work(cluster, work);

        // Descent: one batched package exchange plus one regroup per tree level.
        // The loop always runs the full height so that the superstep schedule is a
        // function of the parent specs alone.
        let max_height = layout.parents.iter().map(Parent::height).max().unwrap_or(0);
        for t in 1..=max_height {
            // A parent's tree level at descent level `t`, and its node size.
            let level = |parent: u64| {
                let p = layout.parent(parent);
                let level = t.min(p.height());
                (p, level as u32, p.sizes[level])
            };
            let packages: DistVec<SegPack> = cluster.flat_map(&searches, |s| {
                let (p, _, size) = level(s.parent);
                // Segments entirely inside the padded tail [n, h^height) hold no
                // points and cannot contain the crossover; skip their packages.
                (0..p.spec.h as u16)
                    .filter(|&seg| s.lo + seg as u64 * size < p.spec.n as u64)
                    .map(|seg| SegPack { search: *s, seg })
                    .collect()
            });
            let answered =
                cluster.rank_search_multi_in(&tree.index, colored.len() as u64, packages, |pk| {
                    let s = pk.search;
                    let (p, level, size) = level(s.parent);
                    let node = s.lo / size + pk.seg as u64;
                    (
                        tree.group(p, level, node),
                        vec![
                            s.q as u64 * p.w() + s.c as u64,
                            s.r as u64 * p.w() + s.c as u64,
                        ],
                    )
                });
            let stepped: DistVec<GridWork> = cluster.group_map_view(
                answered,
                |(pk, _)| {
                    let s = pk.search;
                    (s.parent, s.c, s.q, s.r)
                },
                |_, group| {
                    let mut packs: Vec<&(SegPack, Vec<u64>)> = group.iter().collect();
                    packs.sort_unstable_by_key(|(pk, _)| pk.seg);
                    let s = packs[0].0.search;
                    let (_, _, size) = level(s.parent);
                    // δ at successive segment boundaries; descend into the first
                    // segment whose right boundary turns positive.
                    let mut delta = s.delta_lo;
                    let mut chosen = None;
                    for (pk, counts) in packs {
                        let contrib = counts[1] as i64 - counts[0] as i64;
                        if delta + contrib > 0 {
                            chosen = Some((pk.seg as u64, delta));
                            break;
                        }
                        delta += contrib;
                    }
                    let (seg, delta_at) =
                        chosen.expect("δ must turn positive within the node (invariant)");
                    let lo = s.lo + seg * size;
                    Some(if size == 1 {
                        GridWork::Resolved(ResolvedCmp {
                            parent: s.parent,
                            c: s.c,
                            q: s.q,
                            r: s.r,
                            val: (lo + 1) as u32,
                        })
                    } else {
                        GridWork::Search(CrossSearch {
                            lo,
                            delta_lo: delta_at,
                            ..s
                        })
                    })
                },
            );
            let (newly, pending) = split_work(cluster, stepped);
            resolved = cluster.concat(resolved, newly);
            searches = pending;
        }
        debug_assert!(searches.is_empty(), "all searches resolve at the leaves");

        // Assemble per-line demarcation rows from the crossover values.
        cluster.group_map_view(
            resolved,
            |rc| (rc.parent, rc.c),
            |&(parent, c), items| {
                let spec = layout.parent(parent).spec;
                let (h, n) = (spec.h, spec.n as u32);
                let mut cmp = vec![vec![0u32; h]; h];
                debug_assert_eq!(items.len(), h * (h - 1) / 2);
                for rc in items.iter() {
                    cmp[rc.q as usize][rc.r as usize] = rc.val;
                }
                let breakpoints = opt_breakpoints_from_cmp(&cmp, h, n);
                Some(LineInfo {
                    parent,
                    c,
                    b: b_vector(&breakpoints, h, n),
                })
            },
        )
    }

    /// Splits descent work into its resolved crossovers and its pending searches.
    fn split_work(
        cluster: &mut Cluster,
        work: DistVec<GridWork>,
    ) -> (DistVec<ResolvedCmp>, DistVec<CrossSearch>) {
        let resolved = cluster.filter(work.clone(), |w| matches!(w, GridWork::Resolved(_)));
        let resolved = cluster.map(&resolved, |w| match w {
            GridWork::Resolved(rc) => *rc,
            GridWork::Search(_) => unreachable!(),
        });
        let searches = cluster.filter(work, |w| matches!(w, GridWork::Search(_)));
        let searches = cluster.map(&searches, |w| match w {
            GridWork::Search(s) => *s,
            GridWork::Resolved(_) => unreachable!(),
        });
        (resolved, searches)
    }

    /// [`super::attach_base_f`], run as the primitives it is charged as:
    /// every subgrid's packages materialized, answered from the shared
    /// [`LeveledIndex`] and gathered by `(parent, gi, gj)`.
    pub(super) fn attach_base_f_tree(
        cluster: &mut Cluster,
        active: DistVec<ActiveSubgrid>,
        layout: &Layout,
        tree: &LeveledIndex,
    ) -> DistVec<ActiveSubgrid> {
        let answered = corner_packages(cluster, &active, layout, tree);
        cluster.group_map_view(
            answered,
            |(pk, _)| (pk.parent, pk.gi, pk.gj),
            |_, packs| Some(corner_f(packs.iter())),
        )
    }

    /// [`super::resolve_subgrid`] on one gathered group: its descriptor and
    /// its row and column copies, in any order, resolved by the reference
    /// kernel in window coordinates (colors shifted by the window start).
    fn resolve_gathered(items: Group<'_, (Target, Payload)>, layout: &Layout) -> Vec<Nonzero> {
        let mut desc = None;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for (_, payload) in items.iter() {
            match payload {
                Payload::Desc(d) => desc = Some(d),
                Payload::RowPt(p) => rows.push(*p),
                Payload::ColPt(p) => cols.push(*p),
            }
        }
        let d = desc.expect("an active subgrid was routed without its descriptor");
        let spec = &layout.parent(d.parent).spec;
        let (r, c) = (band_range(spec, d.gi), band_range(spec, d.gj));
        let shift = |points: Vec<ColoredPoint>| -> Vec<ColoredPoint> {
            points
                .into_iter()
                .map(|p| ColoredPoint {
                    color: p.color - d.wlo,
                    ..p
                })
                .collect()
        };
        let inst = SubgridInstance {
            r0: r.start,
            r1: r.end,
            c0: c.start,
            c1: c.end,
            h: d.base_f.len() as u16,
            base_f: d.base_f.clone(),
            row_pts: shift(rows),
            col_pts: shift(cols),
        };
        process_subgrid_reference(&inst)
            .nonzeros
            .into_iter()
            .map(|(row, col)| Nonzero {
                inst: d.parent,
                row,
                col,
            })
            .collect()
    }

    /// [`super::classify`], with the lines and points gathered by
    /// `(parent, band)` and the outputs split by two filter-and-map passes.
    pub(super) fn classify(
        cluster: &mut Cluster,
        colored: &DistVec<Colored>,
        lines: DistVec<LineInfo>,
        layout: &Layout,
        routing: Routing,
    ) -> (DistVec<ActiveSubgrid>, DistVec<(Colored, Verdict)>) {
        #[derive(Clone, Debug)]
        enum BandItem {
            Line(LineInfo),
            Point(Colored),
        }
        #[derive(Clone, Debug)]
        enum BandOut {
            Active(ActiveSubgrid),
            Classified(Colored, Verdict),
        }

        // A grid line at column c borders the band to its right (if c < n) and the band
        // to its left (if c > 0); replicate it into both groups.
        let line_items = cluster.flat_map(&lines, |line| {
            let spec = layout.parent(line.parent).spec;
            let g = spec.g as u32;
            let n = spec.n as u32;
            let mut out = Vec::with_capacity(2);
            if line.c < n {
                out.push(((line.parent, line.c / g), BandItem::Line(line.clone())));
            }
            if line.c > 0 {
                out.push((
                    (line.parent, (line.c - 1) / g),
                    BandItem::Line(line.clone()),
                ));
            }
            out
        });
        let point_items = cluster.map(colored, |p| {
            let g = layout.parent(p.inst).spec.g as u32;
            ((p.inst, p.col / g), BandItem::Point(*p))
        });
        let all = cluster.concat(line_items, point_items);

        let outputs: DistVec<BandOut> = cluster.group_map_rebalanced(
            all,
            |(key, _)| *key,
            |&(parent, band), items| {
                let spec = layout.parent(parent).spec;
                let g = spec.g as u32;
                let n = spec.n as u32;
                let h = spec.h;
                let c_left = band * g;
                let c_right = (c_left + g).min(n);
                let mut left: Option<&LineInfo> = None;
                let mut right: Option<&LineInfo> = None;
                let mut points = Vec::new();
                for (_, item) in items.iter() {
                    match item {
                        BandItem::Line(l) if l.c == c_left => left = Some(l),
                        BandItem::Line(l) if l.c == c_right => right = Some(l),
                        BandItem::Line(_) => {}
                        BandItem::Point(p) => points.push(*p),
                    }
                }
                let left = left.expect("left grid line missing for band");
                let right = right.expect("right grid line missing for band");

                // opt at a corner lying on a known grid line: #{q : b_q ≤ row}.
                let opt_on = |line: &LineInfo, row: u32| -> u16 {
                    line.b.iter().filter(|&&bq| bq <= row).count() as u16
                };

                // Demarcation line q crosses subgrid (gi, band) iff
                // R_gi < b_q(c_left) and R_{gi+1} ≥ b_q(c_right).
                let band_rows = (n as usize).div_ceil(g as usize) as u32;
                let mut active_rows = std::collections::BTreeSet::new();
                for q in 0..h {
                    let b_left = left.b[q];
                    let b_right = right.b[q];
                    for gi in 0..band_rows {
                        let r_lo = gi * g;
                        let r_hi = (r_lo + g).min(n);
                        if r_lo < b_left && r_hi >= b_right {
                            active_rows.insert(gi);
                        }
                    }
                }

                let mut out = Vec::new();
                for &gi in &active_rows {
                    let (wlo, whi) = match routing {
                        Routing::Pierced => {
                            let r_lo = gi * g;
                            let r_hi = (r_lo + g).min(n);
                            (opt_on(left, r_lo), opt_on(right, r_hi))
                        }
                        Routing::Bands => (0, (h - 1) as u16),
                    };
                    out.push(BandOut::Active(ActiveSubgrid {
                        parent,
                        gi,
                        gj: band,
                        wlo,
                        whi,
                        base_f: Vec::new(),
                    }));
                }
                for p in points {
                    let gi = p.row / g;
                    let verdict = if active_rows.contains(&gi) {
                        Verdict::Active
                    } else if opt_on(left, gi * g) == p.color {
                        Verdict::Keep
                    } else {
                        Verdict::Drop
                    };
                    out.push(BandOut::Classified(p, verdict));
                }
                out
            },
        );

        let active = cluster.filter(outputs.clone(), |o| matches!(o, BandOut::Active(_)));
        let active = cluster.map(&active, |o| match o {
            BandOut::Active(a) => a.clone(),
            BandOut::Classified(..) => unreachable!(),
        });
        let classified = cluster.filter(outputs, |o| matches!(o, BandOut::Classified(..)));
        let classified = cluster.map(&classified, |o| match o {
            BandOut::Classified(p, v) => (*p, *v),
            BandOut::Active(_) => unreachable!(),
        });
        (active, classified)
    }

    /// [`super::route_band`], with three rank searches, a multicast and a
    /// gathering join.
    pub(super) fn route_band(
        cluster: &mut Cluster,
        points: &DistVec<Colored>,
        active: &DistVec<ActiveSubgrid>,
        layout: &Layout,
        by_rows: bool,
    ) -> DistVec<(Target, Payload)> {
        // A descriptor slimmed to plain words: (parent, gi, gj, wlo, whi).
        type Slim = (u64, u32, u32, u16, u16);
        let band = move |gi: u32, gj: u32| if by_rows { gi } else { gj };
        let cross = move |gi: u32, gj: u32| if by_rows { gj } else { gi };

        // Step 1: per-band ordinals for the active subgrids.
        let slim: DistVec<Slim> = cluster.map(active, |d| (d.parent, d.gi, d.gj, d.wlo, d.whi));
        let ordinals: DistVec<(Slim, u64)> = {
            let queries = slim.clone();
            let key = move |&(parent, gi, gj, _, _): &Slim| {
                ((parent, band(gi, gj)), cross(gi, gj) as u64)
            };
            cluster.rank_search(&slim, key, queries, key)
        };

        // Step 2: each point's contiguous target-ordinal range [j_lo, j_hi).
        let point_band = |p: &Colored| -> (u64, u32) {
            let g = layout.parent(p.inst).spec.g as u32;
            (p.inst, if by_rows { p.row / g } else { p.col / g })
        };
        let with_lo: DistVec<(Colored, u64)> = cluster.rank_search(
            &slim,
            move |&(parent, gi, gj, _, whi): &Slim| ((parent, band(gi, gj)), whi as u64),
            points.clone(),
            move |p| (point_band(p), p.color as u64),
        );
        let with_range: DistVec<((Colored, u64), u64)> = cluster.rank_search(
            &slim,
            move |&(parent, gi, gj, wlo, _): &Slim| ((parent, band(gi, gj)), wlo as u64),
            with_lo,
            move |(p, _)| (point_band(p), p.color as u64 + 1),
        );

        // Step 3: multicast one copy per target ordinal, then join each copy with
        // the subgrid registered under that ordinal.
        #[derive(Clone, Debug)]
        enum Slot {
            /// The subgrid registered at this ordinal: its cross-band identity.
            Reg(u32, u32),
            Pt(Colored),
        }
        let copies: DistVec<((u64, u32, u64), Slot)> =
            cluster.flat_map_rebalanced(&with_range, move |&((p, j_lo), j_hi)| {
                let (parent, band) = point_band(&p);
                (j_lo..j_hi)
                    .map(|ordinal| ((parent, band, ordinal), Slot::Pt(p)))
                    .collect()
            });
        let regs: DistVec<((u64, u32, u64), Slot)> =
            cluster.map(&ordinals, move |&((parent, gi, gj, _, _), ordinal)| {
                ((parent, band(gi, gj), ordinal), Slot::Reg(gi, gj))
            });
        let both = cluster.concat(regs, copies);
        cluster.group_map_rebalanced(
            both,
            |(key, _)| *key,
            move |&(parent, _, _), items| {
                let mut target = None;
                let mut pts = Vec::new();
                for (_, slot) in items.iter() {
                    match *slot {
                        Slot::Reg(gi, gj) => target = Some((gi, gj)),
                        Slot::Pt(p) => pts.push(p),
                    }
                }
                let Some((gi, gj)) = target else {
                    debug_assert!(pts.is_empty(), "copies addressed to an empty ordinal");
                    return Vec::new();
                };
                pts.into_iter()
                    .map(|p| {
                        let cp = ColoredPoint {
                            row: p.row,
                            col: p.col,
                            color: p.color,
                        };
                        let payload = if by_rows {
                            Payload::RowPt(cp)
                        } else {
                            Payload::ColPt(cp)
                        };
                        ((parent, gi, gj), payload)
                    })
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{descend, LeveledIndex};
    use super::*;
    use monge::multiway::{lift_subresult, split_into_subproblems};
    use mpc_runtime::{MpcConfig, RankIndex};
    use rand::prelude::*;

    impl LeveledIndex {
        /// The oracle build: every union point entered once per tree level
        /// as a `(group, value)` entry, then radix-sorted by the runtime.
        fn build_from_entries(
            cluster: &Cluster,
            colored: &DistVec<Colored>,
            layout: &Layout,
        ) -> Self {
            let bases = Self::bases(layout);
            let index = cluster.rank_index(colored, |p| {
                let g = layout.parent(p.inst);
                let (row, v) = (p.row as u64, p.color as u64 * g.w() + p.col as u64);
                g.sizes
                    .iter()
                    .zip(&bases[&p.inst])
                    .map(move |(&size, &base)| (base + row / size, v))
                    .collect::<Vec<_>>()
            });
            Self { index, bases }
        }
    }

    /// The from-scratch fill the bottom-up one is tested against: every
    /// level above the leaves a copy of the row-ordered leaf values, each
    /// node's block sorted in place.
    fn sort_blocks(levels: &mut [u64], p: &Parent) {
        let (upper, leaves) = levels.split_at_mut(p.height() * p.spec.n);
        for (level, &size) in upper.chunks_mut(p.spec.n).zip(&p.sizes) {
            level.copy_from_slice(leaves);
            for block in level.chunks_mut(size as usize) {
                block.sort_unstable();
            }
        }
    }

    /// A random colored union per parent: a permutation of `n` rows onto `n`
    /// columns, each point colored by one of `h` subproblems.
    fn random_unions(rng: &mut StdRng, parents: &[(u64, usize, usize)]) -> Vec<Colored> {
        let mut points = Vec::new();
        for &(inst, n, h) in parents {
            let mut cols: Vec<u32> = (0..n as u32).collect();
            cols.shuffle(rng);
            for (row, col) in cols.into_iter().enumerate() {
                let color = rng.gen_range(0..h as u16);
                points.push(Colored {
                    inst,
                    row: row as u32,
                    col,
                    color,
                });
            }
        }
        points.shuffle(rng);
        points
    }

    fn specs_of(parents: &[(u64, usize, usize)]) -> BTreeMap<u64, ParentSpec> {
        parents
            .iter()
            .map(|&(inst, n, h)| (inst, ParentSpec { inst, n, h, g: 1 }))
            .collect()
    }

    /// Real colored unions: per parent `(inst, n, h)`, two random
    /// permutations split into `h` subproblems, each solved sequentially and
    /// lifted back in its color (so `opt` is monotone, as the routing needs).
    fn real_unions(rng: &mut StdRng, parents: &[(u64, usize, usize)]) -> Vec<Colored> {
        let mut points = Vec::new();
        for &(inst, n, h) in parents {
            let mut random = || {
                let mut v: Vec<u32> = (0..n as u32).collect();
                v.shuffle(rng);
                v
            };
            let (a, b) = (random(), random());
            for (q, sub) in split_into_subproblems(&a, &b, h).iter().enumerate() {
                let c = monge::steady_ant::mul_rows(&sub.a, &sub.b);
                points.extend(
                    lift_subresult(sub, &c, q as u16)
                        .into_iter()
                        .map(|p| Colored {
                            inst,
                            row: p.row,
                            col: p.col,
                            color: p.color,
                        }),
                );
            }
        }
        points.shuffle(rng);
        points
    }

    fn on_threads<R: Send>(threads: usize, run: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(run)
    }

    /// The batches the differential tests run, as `(inst, n, h)`: one or
    /// several parents, n not a multiple of h.
    const BATCHES: [&[(u64, usize, usize)]; 4] = [
        &[(0, 65, 2)],
        &[(2, 61, 3), (5, 40, 3)],
        &[(1, 90, 4), (4, 37, 4)],
        &[(3, 77, 5), (8, 23, 5), (9, 101, 5)],
    ];

    /// Runs `check(rng, parents, specs, routing, case)` on every batch at 1
    /// and 4 threads, with a small G and the paper's G = ⌈n^{1−δ}⌉ at
    /// δ = 0.5, under both routings, and sums what the checks return. Each
    /// thread count draws from its own stream, seeded `seed + threads`, so
    /// every case gets fresh inputs.
    fn for_each_case(
        seed: u64,
        check: impl Fn(&mut StdRng, &[(u64, usize, usize)], &[ParentSpec], Routing, &str) -> usize
            + Sync,
    ) -> usize {
        let mut total = 0;
        for threads in [1, 4] {
            total += on_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(seed + threads as u64);
                let mut total = 0;
                for parents in BATCHES {
                    for paper_g in [false, true] {
                        for routing in [Routing::Pierced, Routing::Bands] {
                            let case = format!(
                                "{parents:?} paper_g={paper_g} {routing:?} threads={threads}"
                            );
                            let specs: Vec<ParentSpec> = parents
                                .iter()
                                .map(|&(inst, n, h)| {
                                    let g = if paper_g {
                                        ((n as f64).sqrt().ceil() as usize).max(4)
                                    } else {
                                        5
                                    };
                                    ParentSpec { inst, n, h, g }
                                })
                                .collect();
                            total += check(&mut rng, parents, &specs, routing, &case);
                        }
                    }
                }
                total
            });
        }
        total
    }

    fn config() -> MpcConfig {
        MpcConfig::lenient(1000, 0.5).with_machines(5)
    }

    #[test]
    fn indexed_routing_matches_the_materialized_oracle() {
        let routed = for_each_case(41, |rng, parents, specs, routing, case| {
            let specs: BTreeMap<u64, ParentSpec> = specs.iter().map(|s| (s.inst, *s)).collect();
            let mut cluster = Cluster::new(config());
            let colored = cluster.distribute(real_unions(rng, parents));
            let layout = Layout::new(&colored, &specs);
            let lines = grid_phase(&mut cluster, &colored, &layout);
            let (active, classified) =
                oracle::classify(&mut cluster, &colored, lines, &layout, routing);
            let active = attach_base_f(&mut cluster, active, &layout);
            let points = cluster.map(&classified, |(p, _)| *p);
            let windows: BTreeMap<Target, (u16, u16)> = active
                .iter()
                .map(|d| (d.target(), (d.wlo, d.whi)))
                .collect();
            let mut routed = 0;
            for by_rows in [true, false] {
                let mut cluster = Cluster::new(config());
                cluster.set_phase(Some("combine-route"));
                let got = route_band(&mut cluster, &layout, &points.shape(), &active, by_rows);
                let ledger = cluster.ledger().clone();

                let mut cluster = Cluster::new(config());
                cluster.set_phase(Some("combine-route"));
                let want = oracle::route_band(&mut cluster, &points, &active, &layout, by_rows);
                assert_eq!(
                    got.shape,
                    want.shape(),
                    "copies' shape, by_rows={by_rows} {case}"
                );
                let mut want_of: BTreeMap<Target, Vec<(u32, u32, u16)>> = BTreeMap::new();
                for (target, payload) in want.into_inner() {
                    let (oracle::Payload::RowPt(p) | oracle::Payload::ColPt(p)) = payload else {
                        unreachable!("the routing emits no descriptor")
                    };
                    want_of
                        .entry(target)
                        .or_default()
                        .push((p.row, p.col, p.color));
                }
                // What the resolver reads of each target: the in-window
                // entries of its band's slice of the parent's table.
                for (t, &target) in got.targets.iter().enumerate() {
                    let (parent, gi, gj) = target;
                    let (wlo, whi) = windows[&target];
                    let p = layout.parent(parent);
                    let band = band_range(&p.spec, if by_rows { gi } else { gj });
                    let mut read: Vec<(u32, u32, u16)> = layout
                        .table(p, by_rows, band)
                        .iter()
                        .filter(|p| (wlo..=whi).contains(&p.color))
                        .map(|p| (p.row, p.col, p.color))
                        .collect();
                    let mut want = want_of.remove(&target).unwrap_or_default();
                    read.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(read, want, "points of {target:?}, by_rows={by_rows} {case}");
                    assert_eq!(got.copies[t], read.len(), "copies of {target:?}, {case}");
                    routed += read.len();
                }
                assert!(
                    want_of.is_empty(),
                    "copies routed to no active subgrid: {want_of:?}, {case}"
                );
                assert_eq!(
                    ledger,
                    *cluster.ledger(),
                    "ledger, by_rows={by_rows} {case}"
                );
            }
            routed
        });
        assert!(routed > 0, "no case routed a point");
    }

    #[test]
    fn indexed_combine_matches_the_materialized_oracle() {
        let produced = for_each_case(43, |rng, parents, specs, routing, case| {
            let points = real_unions(rng, parents);
            type Combine =
                fn(&mut Cluster, DistVec<Colored>, &[ParentSpec], Routing) -> DistVec<Nonzero>;
            let run = |combine: Combine| {
                let mut cluster = Cluster::new(config());
                let colored = cluster.distribute(points.clone());
                let out = combine(&mut cluster, colored, specs, routing);
                let out: Vec<Vec<Nonzero>> =
                    (0..out.machines()).map(|i| out.part(i).to_vec()).collect();
                (out, cluster.ledger().clone())
            };
            let (got, ledger) = run(distributed_combine);
            let (want, want_ledger) = run(oracle::distributed_combine);
            assert_eq!(got, want, "outputs per machine, {case}");
            assert_eq!(ledger, want_ledger, "ledger, {case}");
            got.iter().map(Vec::len).sum()
        });
        assert!(produced > 0, "no case produced a nonzero");
    }

    #[test]
    fn indexed_corner_join_matches_the_gathered_oracle() {
        let attached = for_each_case(47, |rng, parents, specs, routing, case| {
            let specs: BTreeMap<u64, ParentSpec> = specs.iter().map(|s| (s.inst, *s)).collect();
            let mut cluster = Cluster::new(config());
            let colored = cluster.distribute(real_unions(rng, parents));
            let layout = Layout::new(&colored, &specs);
            let lines = grid_phase(&mut cluster, &colored, &layout);
            let active = classify(&mut cluster, &colored, &lines, &layout, routing).active;
            let tree = LeveledIndex::build(&layout);
            let run = |attach: &dyn Fn(&mut Cluster) -> DistVec<ActiveSubgrid>| {
                let mut cluster = Cluster::new(config());
                let out = attach(&mut cluster);
                let out: Vec<Vec<ActiveSubgrid>> =
                    (0..out.machines()).map(|i| out.part(i).to_vec()).collect();
                (out, cluster.ledger().clone())
            };
            let (got, ledger) = run(&|cluster| attach_base_f(cluster, active.clone(), &layout));
            let (want, want_ledger) =
                run(&|cluster| oracle::attach_base_f_tree(cluster, active.clone(), &layout, &tree));
            assert_eq!(got, want, "subgrids per machine, {case}");
            assert_eq!(ledger, want_ledger, "ledger, {case}");
            active.len()
        });
        assert!(attached > 0, "no case had an active subgrid");
    }

    /// Runs the indexed grid phase and its level-by-level oracle on `points`
    /// and requires the same lines on every machine and the same ledger.
    /// Returns the lines produced.
    fn check_grid_phase(points: &[Colored], specs: &[ParentSpec], case: &str) -> usize {
        type Grid = fn(&mut Cluster, &DistVec<Colored>, &Layout) -> DistVec<LineInfo>;
        let specs: BTreeMap<u64, ParentSpec> = specs.iter().map(|s| (s.inst, *s)).collect();
        let run = |grid: Grid| {
            let mut cluster = Cluster::new(config());
            let colored = cluster.distribute(points.to_vec());
            let layout = Layout::new(&colored, &specs);
            cluster.set_phase(Some("combine-grid"));
            let lines = grid(&mut cluster, &colored, &layout);
            let lines: Vec<Vec<LineInfo>> = (0..lines.machines())
                .map(|i| lines.part(i).to_vec())
                .collect();
            (lines, cluster.ledger().clone())
        };
        let (got, ledger) = run(grid_phase);
        let (want, want_ledger) = run(|cluster, colored, layout| {
            oracle::grid_phase_tree(cluster, colored, layout, &LeveledIndex::build(layout))
        });
        assert_eq!(got, want, "lines per machine, {case}");
        assert_eq!(ledger, want_ledger, "ledger, {case}");
        got.iter().map(Vec::len).sum()
    }

    /// The indexed descent against the level-by-level one, on the shared
    /// batches (h = 2…5, parents of different tree heights side by side, n
    /// never a power of h, so padded-tail segments are skipped) and on h = 8
    /// parents of heights 1, 2 and 3 in one batch. Line `c = 0` settles every
    /// pair at the precompute (`δ(n, 0) = 0`), so each case mixes settled
    /// pairs with searches.
    #[test]
    fn indexed_grid_phase_matches_the_materialized_oracle() {
        let mut lines = for_each_case(53, |rng, parents, specs, _, case| {
            check_grid_phase(&real_unions(rng, parents), specs, case)
        });
        let parents: &[(u64, usize, usize)] = &[(0, 8, 8), (4, 20, 8), (9, 300, 8)];
        for threads in [1, 4] {
            lines += on_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(59 + threads as u64);
                let mut lines = 0;
                for g in [3, 17] {
                    let specs: Vec<ParentSpec> = parents
                        .iter()
                        .map(|&(inst, n, h)| ParentSpec { inst, n, h, g })
                        .collect();
                    let case = format!("{parents:?} g={g} threads={threads}");
                    lines += check_grid_phase(&real_unions(&mut rng, parents), &specs, &case);
                }
                lines
            });
        }
        assert!(lines > 0, "no case produced a line");
    }

    /// The counts the combine reads off the layout, against brute force,
    /// and every crossover row with its per-level segment counts against the
    /// test tree's walk. Random unions at H ∈ {2, 3, 5, 8}, with G = 5 and
    /// parents of n ∈ {1, 2, G − 1, G, G + 1} and 37, which is no power of
    /// any H; every pair of every line is searched for its first and its last
    /// matching row.
    #[test]
    fn layout_counts_match_brute_force_and_the_tree_walk() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = 5;
        let mut searched = 0;
        for h in [2usize, 3, 5, 8] {
            let parents: Vec<(u64, usize, usize)> = [1, 2, g - 1, g, g + 1, 37]
                .into_iter()
                .enumerate()
                .map(|(i, n)| (3 * i as u64 + 1, n, h))
                .collect();
            let specs: BTreeMap<u64, ParentSpec> = parents
                .iter()
                .map(|&(inst, n, h)| (inst, ParentSpec { inst, n, h, g }))
                .collect();
            let mut cluster = Cluster::new(config());
            let colored = cluster.distribute(random_unions(&mut rng, &parents));
            let layout = Layout::new(&colored, &specs);
            let tree = LeveledIndex::build(&layout);
            assert_eq!(layout.tree_values(), tree.index.len(), "h={h}");

            let mut lines = Vec::new();
            let mut searches = Vec::new();
            let mut want = Vec::new();
            for p in &layout.parents {
                let (n, w) = (p.spec.n, p.w());
                let mine: Vec<&Colored> =
                    colored.iter().filter(|q| q.inst == p.spec.inst).collect();
                let count = |keep: &dyn Fn(&Colored) -> bool| -> u32 {
                    mine.iter().filter(|q| keep(q)).count() as u32
                };
                let case = format!("h={h} n={n}");

                // The precompute's and the corner step's U_x(c) and n_x.
                for l in 0..p.lines() {
                    let c = p.line(l);
                    for x in 0..h {
                        let brute = count(&|q| q.color as usize == x && q.col < c);
                        assert_eq!(p.left(l)[x], brute, "U_{x}({c}), {case}");
                    }
                }

                // The corner row prefixes at every band's first row.
                let mut sweep = RowSweep::new(p, &layout);
                let bands = n.div_ceil(g);
                for gi in 0..bands {
                    let r0 = (gi * g) as u32;
                    sweep.advance(r0 as usize);
                    for y in 0..h {
                        let above = count(&|q| q.color as usize == y && q.row < r0);
                        assert_eq!(sweep.above(y), above, "#{{{y}, row < {r0}}}, {case}");
                        for gj in 0..=bands {
                            let c0 = (gj * g) as u32;
                            let brute =
                                count(&|q| q.color as usize == y && q.row < r0 && q.col < c0);
                            assert_eq!(
                                sweep.above_left(y, gj),
                                brute,
                                "#{{{y}, row < {r0}, col < {c0}}}, {case}"
                            );
                        }
                    }
                }

                // Every pair of every line, for its first and last match.
                for l in 0..p.lines() {
                    let c = p.line(l);
                    let line = lines.len();
                    lines.push(Line { p, c, machine: 0 });
                    for q in 0..h as u16 {
                        for r in q + 1..h as u16 {
                            let range = q as u64 * w + c as u64..r as u64 * w + c as u64;
                            let mut rows: Vec<u32> = mine
                                .iter()
                                .filter(|x| range.contains(&(x.color as u64 * w + x.col as u64)))
                                .map(|x| x.row)
                                .collect();
                            rows.sort_unstable();
                            let mut ks = vec![1, rows.len()];
                            ks.dedup();
                            ks.retain(|k| (1..=rows.len()).contains(k));
                            for k in ks {
                                searches.push(Search {
                                    pair: 0,
                                    line,
                                    q,
                                    r,
                                    delta_0: 1 - k as i64,
                                });
                                want.push(rows[k - 1]);
                            }
                        }
                    }
                }
            }

            let leaves = crossover_rows(&layout, &lines, &searches);
            assert_eq!(leaves, want, "h={h}: the k-th matching rows");
            for (s, &leaf) in searches.iter().zip(&leaves) {
                let (line, p) = (&lines[s.line], lines[s.line].p);
                let case = format!("h={h} n={} c={} q={} r={}", p.spec.n, line.c, s.q, s.r);
                let mut segs = vec![0u16; p.height().max(1)];
                assert_eq!(descend(&tree, line, s, &mut segs), leaf + 1, "{case}");
                for (t, &walked) in segs.iter().enumerate() {
                    assert_eq!(
                        segments(p, leaf, t + 1),
                        walked as usize,
                        "level {}, {case}",
                        t + 1
                    );
                }
            }
            searched += searches.len();
        }
        assert!(searched > 0, "no case searched");
    }

    #[test]
    fn row_ordered_tree_answers_like_the_entry_built_oracle() {
        let mut rng = StdRng::seed_from_u64(29);
        let batches: Vec<Vec<(u64, usize, usize)>> = vec![
            vec![(0, 1, 2)],
            vec![(5, 1, 3), (6, 2, 2)],
            vec![(0, 37, 2), (3, 64, 4), (4, 100, 7), (900, 26, 3)],
            vec![(2, 81, 3), (7, 82, 3), (8, 5, 9)],
            // Long enough that the lower levels sort in parallel pieces.
            vec![(1, 20_000, 2), (3, 9_000, 3)],
        ];
        for parents in batches {
            let specs = specs_of(&parents);
            let points = random_unions(&mut rng, &parents);
            let mut cluster = Cluster::new(MpcConfig::lenient(1000, 0.5).with_machines(6));
            let colored = cluster.distribute(points);
            let layout = Layout::new(&colored, &specs);
            let tree = LeveledIndex::build(&layout);
            let oracle = LeveledIndex::build_from_entries(&cluster, &colored, &layout);
            assert_eq!(tree.index.len(), oracle.index.len(), "{parents:?}");

            // The bottom-up runs are the from-scratch ones, entry for entry.
            let sorted = LeveledIndex::runs(&layout, sort_blocks);
            for threads in [1, 4] {
                let built = on_threads(threads, || {
                    LeveledIndex::runs(&layout, oracle::build_levels)
                });
                assert!(
                    built == sorted,
                    "{parents:?}, {threads} threads: runs differ"
                );
            }

            // Every node of every level, plus one code past the last group.
            let mut queries: Vec<(u64, Vec<u64>)> = Vec::new();
            for p in &layout.parents {
                for (level, &size) in p.sizes.iter().enumerate() {
                    for node in 0..oracle::node_count(p.spec.n, size) {
                        let mut t: Vec<u64> = (0..6)
                            .map(|_| rng.gen_range(0..p.w() * (p.spec.h as u64 + 1)))
                            .collect();
                        t.push(0);
                        t.push(u64::MAX);
                        t.sort_unstable();
                        queries.push((tree.group(p, level as u32, node), t));
                    }
                }
            }
            let last = queries.iter().map(|q| q.0).max().unwrap_or(0);
            queries.push((last + 1, vec![0, 5, u64::MAX]));
            let answer = |cluster: &mut Cluster, index: &RankIndex<u64>| {
                let q = cluster.distribute(queries.clone());
                cluster
                    .rank_search_multi_in(index, 0, q, |(g, t)| (*g, t.clone()))
                    .into_inner()
            };
            let got = answer(&mut cluster, &tree.index);
            let expected = answer(&mut cluster, &oracle.index);
            assert_eq!(got, expected, "{parents:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one union point per row")]
    fn a_union_with_a_repeated_row_is_rejected() {
        let specs = specs_of(&[(1, 3, 2)]);
        let mut cluster = Cluster::new(MpcConfig::lenient(100, 0.5));
        let point = |row, col, color| Colored {
            inst: 1,
            row,
            col,
            color,
        };
        // Row 0 holds two points, row 1 none.
        let colored = cluster.distribute(vec![point(0, 0, 0), point(0, 1, 1), point(2, 2, 0)]);
        let _ = Layout::new(&colored, &specs);
    }

    #[test]
    fn tree_height_covers_the_domain() {
        let tree_height = |n, h| level_sizes(n, h).len() as u32 - 1;
        assert_eq!(tree_height(1, 2), 0);
        assert_eq!(tree_height(2, 2), 1);
        assert_eq!(tree_height(3, 2), 2);
        assert_eq!(tree_height(8, 2), 3);
        assert_eq!(tree_height(9, 2), 4);
        assert_eq!(tree_height(100, 10), 2);
        assert_eq!(tree_height(101, 10), 3);
        for (n, h) in [(5usize, 2usize), (1000, 3), (4096, 16), (77, 9)] {
            let t = tree_height(n, h);
            assert!((h as u64).pow(t) >= n as u64);
            assert!(t == 0 || (h as u64).pow(t - 1) < n as u64);
            let sizes = level_sizes(n, h);
            assert_eq!(sizes[t as usize], 1, "leaves are single rows");
            assert_eq!(sizes[0], (h as u64).pow(t), "the root covers [0, h^height)");
        }
    }

    #[test]
    fn prefix_decomposition_partitions_the_prefix() {
        let mut rng = StdRng::seed_from_u64(31);
        for (n, h) in [(37usize, 2usize), (100, 3), (64, 4), (1000, 10)] {
            let mut cluster = Cluster::new(MpcConfig::lenient(1000, 0.5));
            let colored = cluster.distribute(random_unions(&mut rng, &[(0, n, h)]));
            let layout = Layout::new(&colored, &specs_of(&[(0, n, h)]));
            let p = &layout.parents[0];
            for upto in [0u64, 1, 5, (n / 2) as u64, (n - 1) as u64] {
                let nodes = oracle::prefix_decomposition(upto, p);
                assert_eq!(
                    nodes.len(),
                    prefix_nodes(upto, p),
                    "n={n} h={h} upto={upto}"
                );
                // The ranges must be disjoint and cover exactly [0, upto).
                let mut covered: Vec<(u64, u64)> = nodes
                    .iter()
                    .map(|&(t, node)| {
                        let size = p.sizes[t as usize];
                        (node * size, (node + 1) * size)
                    })
                    .collect();
                covered.sort_unstable();
                let mut cursor = 0u64;
                for (start, end) in covered {
                    assert_eq!(
                        start, cursor,
                        "gap in decomposition of [0,{upto}) n={n} h={h}"
                    );
                    cursor = end;
                }
                assert_eq!(cursor, upto, "decomposition must end at {upto}");
                assert!(nodes.len() <= h * p.height());
            }
        }
    }
}
