//! The H-way combine machinery of Section 3 of the paper, expressed as pure
//! sequential functions.
//!
//! The paper splits `P_A` into `H` column slices and `P_B` into `H` row slices,
//! recursively multiplies the compacted subproblems (`P_{C,q} = P'_{A,q} ⊡ P'_{B,q}`),
//! and then *combines* the `H` results in `O(1)` MPC rounds. The combine is governed by
//!
//! * `F_q(i,j)` — the value the output distribution matrix would take if cell `(i,j)`
//!   took its optimum from subproblem `q` (Lemma 3.2),
//! * `δ_{q,r}(i,j) = F_q(i,j) − F_r(i,j)` — monotone in both coordinates
//!   (Lemmas 3.3/3.4),
//! * `opt(i,j)` — the smallest minimizer, monotone in both coordinates
//!   (Lemmas 3.5/3.6),
//! * *demarcation lines* and *interesting points* (Lemmas 3.7–3.10) which fully
//!   characterize the nonzeros of the product.
//!
//! This module contains:
//!
//! * [`split_into_subproblems`] / [`overlay`] — the §3.1 splitting and the colored
//!   union permutation,
//! * [`MultiwayOracle`] — direct (test-oracle) evaluation of `F_q`, `δ_{q,r}` and
//!   `opt`,
//! * [`opt_breakpoints_from_cmp`] — §3.2's derivation of the `opt(·, c)` step
//!   function from the pairwise crossover rows `cmp(c, q, r)`,
//! * [`SubgridTables`] / [`process_subgrid`] — §3.3's per-subgrid local phase, with
//!   [`process_subgrid_reference`] on a [`SubgridInstance`] as its test oracle,
//! * [`combine_multiway`] — a sequential driver wiring the pieces together exactly
//!   the way the MPC implementation (`monge-mpc`) does, used as its ground truth.
//!
//! Colors are 0-based (`0..h`), unlike the paper's 1-based `[H]`.

use crate::dominance::DominanceCounter;
use crate::matrix::PermutationMatrix;
use std::cell::RefCell;

/// A nonzero of the union permutation, tagged with the subproblem (color) it came
/// from (§3.2: "to record the origin of each point, we say p(x̂) is of color i").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColoredPoint {
    /// Row of the nonzero (0-based; denotes the half-integer `row + 1/2`).
    pub row: u32,
    /// Column of the nonzero.
    pub col: u32,
    /// Subproblem index in `0..h`.
    pub color: u16,
}

/// One of the `H` subproblems produced by [`split_into_subproblems`].
#[derive(Clone, Debug)]
pub struct Subproblem {
    /// Compacted left operand `P'_{A,q}` (row → column array).
    pub a: Vec<u32>,
    /// Compacted right operand `P'_{B,q}`.
    pub b: Vec<u32>,
    /// Original rows of `P_A` mapped into this subproblem, in increasing order
    /// (the inverse mapping `M_A⁻¹(q, ·)`).
    pub rows: Vec<u32>,
    /// Original columns of `P_B` mapped into this subproblem, in increasing order
    /// (the inverse mapping `M_B⁻¹(q, ·)`).
    pub cols: Vec<u32>,
}

/// Splits the product instance `(P_A, P_B)` into `h` compacted subproblems as in
/// §3.1: `P_A` is cut into `h` column slices, `P_B` into `h` row slices, and empty
/// rows/columns are removed by rank-relabelling.
pub fn split_into_subproblems(pa: &[u32], pb: &[u32], h: usize) -> Vec<Subproblem> {
    let n = pa.len();
    assert_eq!(n, pb.len());
    assert!(h >= 1 && h <= n.max(1));
    // Boundaries of the middle dimension: slice q covers [bounds[q], bounds[q+1]).
    let bounds: Vec<usize> = (0..=h).map(|q| q * n / h).collect();
    let slice_of = |mid: usize| -> usize {
        // h is small; a linear scan is fine and avoids division edge cases.
        (0..h)
            .find(|&q| mid < bounds[q + 1])
            .expect("value within range")
    };

    let mut subs: Vec<Subproblem> = (0..h)
        .map(|_| Subproblem {
            a: Vec::new(),
            b: Vec::new(),
            rows: Vec::new(),
            cols: Vec::new(),
        })
        .collect();

    // Rows of A, in increasing row order, go to the slice owning their column.
    for (row, &col) in pa.iter().enumerate() {
        let q = slice_of(col as usize);
        subs[q].rows.push(row as u32);
        subs[q].a.push(col - bounds[q] as u32);
    }
    // Rows of B in [bounds[q], bounds[q+1]) form slice q; columns are compacted by rank.
    for q in 0..h {
        let rows_b = &pb[bounds[q]..bounds[q + 1]];
        let mut cols: Vec<u32> = rows_b.to_vec();
        cols.sort_unstable();
        let mut rank = std::collections::HashMap::with_capacity(cols.len());
        for (i, &c) in cols.iter().enumerate() {
            rank.insert(c, i as u32);
        }
        subs[q].b = rows_b.iter().map(|&c| rank[&c]).collect();
        subs[q].cols = cols;
    }
    subs
}

/// Maps the result `P'_{C,q}` of a compacted subproblem back to full-matrix
/// coordinates and tags it with its color, producing that subproblem's contribution
/// to the union permutation.
pub fn lift_subresult(sub: &Subproblem, c_rows: &[u32], color: u16) -> Vec<ColoredPoint> {
    assert_eq!(c_rows.len(), sub.rows.len());
    c_rows
        .iter()
        .enumerate()
        .map(|(r, &c)| ColoredPoint {
            row: sub.rows[r],
            col: sub.cols[c as usize],
            color,
        })
        .collect()
}

/// Concatenates the lifted subresults into the union permutation `p` of §3.2.
/// Panics (in debug builds) if the points do not form a permutation.
pub fn overlay(mut parts: Vec<Vec<ColoredPoint>>) -> Vec<ColoredPoint> {
    let mut all: Vec<ColoredPoint> = parts.drain(..).flatten().collect();
    all.sort_unstable_by_key(|p| p.row);
    debug_assert!(
        all.windows(2).all(|w| w[0].row != w[1].row),
        "duplicate rows in overlay"
    );
    all
}

// ---------------------------------------------------------------------------------
// Oracle evaluation of F_q / δ_{q,r} / opt.
// ---------------------------------------------------------------------------------

/// Direct evaluator for the combine quantities, built from the colored union
/// permutation. Each query costs `O(h log² n)`; intended for tests, the sequential
/// driver and grid-corner computations, not for inner loops.
pub struct MultiwayOracle {
    h: usize,
    /// Per color: dominance counter over that color's points.
    per_color: Vec<DominanceCounter>,
    /// Per color: total number of points (`n_x` in the paper's notation).
    totals: Vec<u64>,
}

impl MultiwayOracle {
    /// Builds the oracle from the union permutation.
    pub fn new(points: &[ColoredPoint], h: usize) -> Self {
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for p in points {
            buckets[p.color as usize].push((p.row, p.col));
        }
        let totals = buckets.iter().map(|b| b.len() as u64).collect();
        let per_color = buckets.iter().map(|b| DominanceCounter::new(b)).collect();
        Self {
            h,
            per_color,
            totals,
        }
    }

    /// Number of colors.
    pub fn colors(&self) -> usize {
        self.h
    }

    /// Total number of points of color `x` (`n_x`).
    pub fn total(&self, x: usize) -> u64 {
        self.totals[x]
    }

    /// `S_x(i) = P^Σ_{C,x}(i, n)`: points of color `x` with row ≥ `i`.
    pub fn s(&self, x: usize, i: u32) -> u64 {
        self.per_color[x].count_row_ge_col_lt(i, u32::MAX) as u64
    }

    /// `U_x(j) = P^Σ_{C,x}(0, j)`: points of color `x` with column < `j`.
    pub fn u(&self, x: usize, j: u32) -> u64 {
        self.per_color[x].count_row_ge_col_lt(0, j) as u64
    }

    /// `T_q(i, j) = P^Σ_{C,q}(i, j)`: points of color `q` with row ≥ `i`, column < `j`.
    pub fn t(&self, q: usize, i: u32, j: u32) -> u64 {
        self.per_color[q].count_row_ge_col_lt(i, j) as u64
    }

    /// `F_q(i, j)` of Lemma 3.2 (0-based `q`).
    pub fn f(&self, q: usize, i: u32, j: u32) -> u64 {
        let before: u64 = (0..q).map(|x| self.s(x, i)).sum();
        let after: u64 = (q + 1..self.h).map(|x| self.u(x, j)).sum();
        before + self.t(q, i, j) + after
    }

    /// Vector of `F_q(i,j)` for all colors.
    pub fn f_vec(&self, i: u32, j: u32) -> Vec<u64> {
        // Shares the prefix/suffix sums across colors: O(h log n).
        let s: Vec<u64> = (0..self.h).map(|x| self.s(x, i)).collect();
        let u: Vec<u64> = (0..self.h).map(|x| self.u(x, j)).collect();
        let mut prefix_s = 0u64;
        let mut suffix_u: Vec<u64> = vec![0; self.h + 1];
        for x in (0..self.h).rev() {
            suffix_u[x] = suffix_u[x + 1] + u[x];
        }
        (0..self.h)
            .map(|q| {
                let val = prefix_s + self.t(q, i, j) + suffix_u[q + 1];
                prefix_s += s[q];
                val
            })
            .collect()
    }

    /// `δ_{q,r}(i,j) = F_q(i,j) − F_r(i,j)` for `q < r`.
    pub fn delta(&self, q: usize, r: usize, i: u32, j: u32) -> i64 {
        self.f(q, i, j) as i64 - self.f(r, i, j) as i64
    }

    /// `opt(i,j)`: the smallest color attaining the minimum of `F_·(i,j)`.
    pub fn opt(&self, i: u32, j: u32) -> u16 {
        let f = self.f_vec(i, j);
        let mut best = 0usize;
        for (q, &v) in f.iter().enumerate() {
            if v < f[best] {
                best = q;
            }
        }
        best as u16
    }

    /// `cmp(c, q, r)`: the first row `i` with `δ_{q,r}(i, c) > 0`, or `n + 1` when no
    /// such row exists (§3.2). Computed by binary search over the monotone `δ`.
    pub fn cmp(&self, n: u32, c: u32, q: usize, r: usize) -> u32 {
        if self.delta(q, r, n, c) <= 0 {
            return n + 1;
        }
        // Invariant: delta(lo) ≤ 0 < delta(hi).
        let (mut lo, mut hi) = (0u32, n);
        if self.delta(q, r, 0, c) > 0 {
            return 0;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.delta(q, r, mid, c) > 0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

// ---------------------------------------------------------------------------------
// opt(·, c) step function from pairwise crossovers (§3.2).
// ---------------------------------------------------------------------------------

/// Given all pairwise crossovers `cmp(c, q, r)` for a fixed column `c` (entry
/// `cmp[q][r]`, only `q < r` used), reconstructs the step function `opt(·, c)` as
/// breakpoints `(start_row, value)`: `opt(i, c) = value` for `i ∈ [start_row, next)`.
///
/// `opt(i, c) = q` iff `i ≥ cmp(c, p, q)` for every `p < q` and `i < cmp(c, q, r)`
/// for every `r > q`; the step function can only change at one of the crossover rows.
pub fn opt_breakpoints_from_cmp(cmp: &[Vec<u32>], h: usize, n: u32) -> Vec<(u32, u16)> {
    let opt_at = |i: u32| -> u16 {
        'outer: for q in 0..h {
            for p in 0..q {
                if i < cmp[p][q] {
                    continue 'outer; // F_p ≤ F_q: q is not the smallest minimizer
                }
            }
            for r in q + 1..h {
                if i >= cmp[q][r] {
                    continue 'outer; // F_r < F_q
                }
            }
            return q as u16;
        }
        unreachable!("some color must attain the minimum")
    };

    let mut candidates: Vec<u32> = vec![0];
    for q in 0..h {
        for r in q + 1..h {
            if cmp[q][r] <= n {
                candidates.push(cmp[q][r]);
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut breakpoints: Vec<(u32, u16)> = Vec::new();
    for &row in &candidates {
        let v = opt_at(row);
        if breakpoints.last().map(|&(_, last)| last) != Some(v) {
            breakpoints.push((row, v));
        }
    }
    breakpoints
}

// ---------------------------------------------------------------------------------
// Subgrid-local phase (§3.3).
// ---------------------------------------------------------------------------------

/// One subgrid as [`process_subgrid`] reads it: the corner `F` over a window of
/// colors, and the union's row and column tables over the subgrid's ranges.
///
/// The union has exactly one point per row and per column, so the points in the
/// subgrid's row range are exactly `rows` and those in its column range exactly
/// `cols`. An entry whose color lies outside the window `[wlo, wlo + base_f.len())`
/// counts as absent: such a color shifts every in-window `F_q` by the same amount
/// anywhere inside the subgrid, so it cannot change an `opt` comparison as long as
/// the window holds every `opt` value of the subgrid (Lemma 3.12's pierced
/// interval, or any wider window).
#[derive(Clone, Copy, Debug)]
pub struct SubgridTables<'a> {
    /// First block row of the subgrid (inclusive).
    pub r0: u32,
    /// Last corner row of the subgrid (blocks cover `[r0, r1)`).
    pub r1: u32,
    /// First block column (inclusive).
    pub c0: u32,
    /// Last corner column (blocks cover `[c0, c1)`).
    pub c1: u32,
    /// First color of the window.
    pub wlo: u16,
    /// `F_{wlo + k}(r0, c0)` for every window color `wlo + k`, up to a common shift.
    pub base_f: &'a [u64],
    /// `rows[k]` is the union point in row `r0 + k`.
    pub rows: &'a [ColoredPoint],
    /// `cols[k]` is the union point in column `c0 + k`.
    pub cols: &'a [ColoredPoint],
}

impl SubgridTables<'_> {
    /// The window index of `color`, or `None` outside the window.
    fn window_index(&self, color: u16) -> Option<usize> {
        let x = color.wrapping_sub(self.wlo) as usize;
        (x < self.base_f.len()).then_some(x)
    }

    /// The same subgrid as the input of [`process_subgrid_reference`]: the
    /// in-window points of both tables, colors shifted to start at 0.
    pub fn instance(&self) -> SubgridInstance {
        let in_window = |points: &[ColoredPoint]| -> Vec<ColoredPoint> {
            points
                .iter()
                .filter_map(|p| {
                    let x = self.window_index(p.color)?;
                    Some(ColoredPoint {
                        color: x as u16,
                        ..*p
                    })
                })
                .collect()
        };
        SubgridInstance {
            r0: self.r0,
            r1: self.r1,
            c0: self.c0,
            c1: self.c1,
            h: self.base_f.len() as u16,
            base_f: self.base_f.to_vec(),
            row_pts: in_window(self.rows),
            col_pts: in_window(self.cols),
        }
    }
}

/// Nonzeros of `P_C` contributed by one subgrid: the interesting points of
/// Lemma 3.9 plus the union points of Lemma 3.10 that survive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubgridOutput {
    /// `(row, col)` nonzeros of the product whose block lies in this subgrid,
    /// sorted.
    pub nonzeros: Vec<(u32, u32)>,
}

thread_local! {
    static SUBGRID_WORKSPACE: RefCell<SubgridWorkspace> = RefCell::new(SubgridWorkspace::default());
}

/// Per-worker scratch of [`process_subgrid`], reused across subgrids.
#[derive(Default)]
struct SubgridWorkspace {
    /// `F` at the corner `(r1, c0)`, then up column `c0` as the lines enter.
    corner: Vec<i64>,
    /// `F` at a traced line's evaluation point.
    f: Vec<i64>,
    /// Every window line's boundary per corner row, line after line.
    lines: Vec<i64>,
}

/// `F` as the evaluation point moves one row up past a row holding a window
/// point of color `x`: the point's `S_x` term raises every color above `x`,
/// and its `T_x` term raises `x` itself when the point lies left of the
/// evaluation column (`left`).
fn cross_row(f: &mut [i64], x: usize, left: bool) {
    for v in &mut f[x + usize::from(!left)..] {
        *v += 1;
    }
}

/// `F` as the evaluation point moves one column right past a column holding a
/// window point of color `x`: the point's `U_x` term raises every color below
/// `x`, and its `T_x` term raises `x` itself when the point lies at or below the
/// evaluation row (`below`).
fn cross_col(f: &mut [i64], x: usize, below: bool) {
    for v in &mut f[..x + usize::from(below)] {
        *v += 1;
    }
}

/// Would `opt ≤ q` hold after [`cross_col`]`(f, x, below)`? Decided in one pass
/// over `f`, which is left as it is: the smallest minimizer is at most `q` iff
/// the minimum over `[0, q]` is at most the minimum over `(q, len)`.
fn opt_le_after_col(f: &[i64], x: usize, below: bool, q: usize) -> bool {
    let end = x + usize::from(below);
    let raised = |(k, &v): (usize, &i64)| v + i64::from(k < end);
    let (low, high) = f.split_at(q + 1);
    let low = low.iter().enumerate().map(raised).min();
    let high = high
        .iter()
        .enumerate()
        .map(|(k, v)| raised((q + 1 + k, v)))
        .min();
    low <= high
}

/// Resolves one subgrid: returns every nonzero of `P_C` whose block lies in
/// `[r0, r1) × [c0, c1)`. The points need no order beyond the tables' own,
/// and every scratch buffer comes from a per-worker workspace.
///
/// For every window color `q` but the last, the kernel traces demarcation
/// line `q`: the per-row boundary `maxcol_q[i] = max {j : opt(i, j) ≤ q}`,
/// clamped to the subgrid (`c0 − 1` where the region misses the row, `c1`
/// where it spans it). One pass over the row table gives `F` at the
/// bottom-left corner; the lines, highest first, enter the subgrid from one
/// climb up column `c0`, and each is traced from there up the rows and
/// greedily right, each rightward step decided in place. Then, row by row,
///
/// * a block `(i, j)` is *interesting* (Lemma 3.9) when `maxcol_a[i+1] = j`,
///   `j+1 ≤ maxcol_a[i]` and `j > maxcol_{a−1}[i]`, and
/// * the union point of color `x` at block `(i, j)` survives (Lemma 3.10) iff
///   `j > maxcol_{x−1}[i]` and `j + 1 ≤ maxcol_x[i+1]`.
///
/// The outputs equal [`process_subgrid_reference`]'s on the tables'
/// [`SubgridTables::instance`].
pub fn process_subgrid(sub: &SubgridTables<'_>) -> SubgridOutput {
    let rows = (sub.r1 - sub.r0) as usize;
    debug_assert!(rows >= 1 && sub.c1 > sub.c0);
    debug_assert!(
        sub.rows.len() == rows && (sub.rows.iter()).zip(sub.r0..).all(|(p, r)| p.row == r),
        "the row table covers rows r0..r1 in order"
    );
    debug_assert!(
        sub.cols.len() == (sub.c1 - sub.c0) as usize
            && (sub.cols.iter()).zip(sub.c0..).all(|(p, c)| p.col == c),
        "the column table covers columns c0..c1 in order"
    );
    let w = sub.base_f.len();
    SUBGRID_WORKSPACE.with(|ws| {
        let SubgridWorkspace { corner, f, lines } = &mut *ws.borrow_mut();
        // Down column c0 to the bottom-left corner: a point of color x lowers
        // F on the colors from x + 1 on, from x when it lies left of c0. Count
        // the points by that first color (in `f`, free until the lines), then
        // lower F by the running counts.
        f.clear();
        f.resize(w + 1, 0);
        for p in sub.rows {
            if let Some(x) = sub.window_index(p.color) {
                f[x + usize::from(p.col >= sub.c0)] += 1;
            }
        }
        corner.clear();
        let mut lowered = 0;
        for (&base, &count) in sub.base_f.iter().zip(f.iter()) {
            lowered += count;
            corner.push(base as i64 - lowered);
        }
        f.truncate(w);

        // Line q's boundary at corner row r0 + k is lines[q·stride + k]; the
        // last window color's region is the whole subgrid (boundary c1).
        let stride = rows + 1;
        let (below, above) = (i64::from(sub.c0) - 1, i64::from(sub.c1));
        lines.clear();
        lines.resize(w.saturating_sub(1) * stride, below);
        // Line q's region {opt ≤ q} meets column c0 in the rows above b_q(c0),
        // fewer rows for every lower line: one climb up column c0 from the
        // corner finds where each line, highest first, enters the subgrid.
        let mut k = rows;
        for (q, line) in lines.chunks_exact_mut(stride).enumerate().rev() {
            let entered = loop {
                if opt_of(corner) as usize <= q {
                    break true;
                }
                if k == 0 {
                    break false;
                }
                k -= 1;
                let p = sub.rows[k];
                if let Some(x) = sub.window_index(p.color) {
                    cross_row(corner, x, p.col < sub.c0);
                }
            };
            if !entered {
                break; // this line and every lower one miss the subgrid
            }
            f.copy_from_slice(corner);
            trace_line(sub, q, f, k, line);
        }
        let maxcol = |q: i64, k: usize| -> i64 {
            if q < 0 {
                below
            } else if q as usize + 1 >= w {
                above
            } else {
                lines[q as usize * stride + k]
            }
        };

        // Each row holds at most one nonzero of the product, so emitting row by
        // row yields the nonzeros sorted; a union point that is also an
        // interesting point is emitted once.
        let mut out = SubgridOutput::default();
        let block = i64::from(sub.c0)..above;
        for (k, p) in sub.rows.iter().enumerate() {
            let i = p.row;
            let mut emit = |j: i64| {
                if out.nonzeros.last() != Some(&(i, j as u32)) {
                    out.nonzeros.push((i, j as u32));
                }
            };
            for a in 0..w as i64 - 1 {
                let j = maxcol(a, k + 1);
                if block.contains(&j) && j < maxcol(a, k) && j > maxcol(a - 1, k) {
                    emit(j);
                }
            }
            if let Some(x) = sub.window_index(p.color) {
                let (j, x) = (i64::from(p.col), x as i64);
                if block.contains(&j) && j > maxcol(x - 1, k) && j < maxcol(x, k + 1) {
                    emit(j);
                }
            }
        }
        debug_assert!(
            out.nonzeros.windows(2).all(|w| w[0] < w[1]),
            "two nonzeros in one row of a subgrid"
        );
        out
    })
}

/// Traces window color `q`'s demarcation line through the subgrid from `f` =
/// `F` at `(r0 + k, c0)`, the lowest corner row whose region `{opt ≤ q}`
/// reaches column `c0`: writes into `line`, for every corner row `r0 ..= r0 + k`
/// (index `row − r0`), the largest column `≤ c1` with `opt(row, col) ≤ q`.
///
/// The region is monotone: its boundary moves right or stays as the rows go
/// up. So the trace extends each row greedily right before stepping up, and
/// once a row reaches `c1` every row above it does too.
fn trace_line(sub: &SubgridTables<'_>, q: usize, f: &mut [i64], mut k: usize, line: &mut [i64]) {
    let mut col = 0;
    loop {
        let row = sub.r0 + k as u32;
        while let Some(p) = sub.cols.get(col) {
            if let Some(x) = sub.window_index(p.color) {
                let below = p.row >= row;
                if !opt_le_after_col(f, x, below, q) {
                    break;
                }
                cross_col(f, x, below);
            }
            col += 1;
        }
        if col == sub.cols.len() {
            line[..=k].fill(i64::from(sub.c1));
            return;
        }
        line[k] = i64::from(sub.c0) + col as i64;
        if k == 0 {
            return;
        }
        k -= 1;
        let p = sub.rows[k];
        if let Some(x) = sub.window_index(p.color) {
            cross_row(f, x, p.col < sub.c0 + col as u32);
        }
        debug_assert!(
            opt_of(f) as usize <= q,
            "region must still contain the corner after moving up"
        );
    }
}

/// All data the reference resolver needs for one subgrid: the absolute `F_q`
/// values at the subgrid's upper-left corner plus every union point in the
/// subgrid's row range and column range, in any order. (The distributed combine
/// in `monge-mpc` restricts it to the colors of the pierced interval, shifted to
/// start at 0, with `F` restricted to them; [`SubgridTables::instance`] builds it
/// that way.)
#[derive(Clone, Debug)]
pub struct SubgridInstance {
    /// First block row of the subgrid (inclusive).
    pub r0: u32,
    /// Last corner row of the subgrid (blocks cover `[r0, r1)`).
    pub r1: u32,
    /// First block column (inclusive).
    pub c0: u32,
    /// Last corner column (blocks cover `[c0, c1)`).
    pub c1: u32,
    /// Number of colors.
    pub h: u16,
    /// `F_q(r0, c0)` for every color `q`.
    pub base_f: Vec<u64>,
    /// Union points with `row ∈ [r0, r1)` (any column), at most one per row.
    pub row_pts: Vec<ColoredPoint>,
    /// Union points with `col ∈ [c0, c1)` (any row), at most one per column.
    pub col_pts: Vec<ColoredPoint>,
}

/// Internal: evaluator for `F_·(i, j)` restricted to a subgrid, supporting the
/// incremental updates used by the reference's demarcation-line traces.
struct LocalF<'a> {
    inst: &'a SubgridInstance,
    /// Current evaluation point.
    row: u32,
    col: u32,
    /// Current `F_q(row, col)` for all q.
    f: Vec<i64>,
    /// row_pts indexed by row offset (row - r0) → (col, color); at most one per row.
    pt_in_row: Vec<Option<(u32, u16)>>,
    /// col_pts indexed by col offset (col - c0) → (row, color); at most one per col.
    pt_in_col: Vec<Option<(u32, u16)>>,
}

impl<'a> LocalF<'a> {
    fn new(inst: &'a SubgridInstance) -> Self {
        let rows = (inst.r1 - inst.r0) as usize;
        let cols = (inst.c1 - inst.c0) as usize;
        let mut pt_in_row = vec![None; rows];
        for p in &inst.row_pts {
            pt_in_row[(p.row - inst.r0) as usize] = Some((p.col, p.color));
        }
        let mut pt_in_col = vec![None; cols];
        for p in &inst.col_pts {
            pt_in_col[(p.col - inst.c0) as usize] = Some((p.row, p.color));
        }
        Self {
            inst,
            row: inst.r0,
            col: inst.c0,
            f: inst.base_f.iter().map(|&v| v as i64).collect(),
            pt_in_row,
            pt_in_col,
        }
    }

    /// Moves the evaluation point one row down (`row → row + 1`).
    fn move_down(&mut self) {
        debug_assert!(self.row < self.inst.r1);
        // The point in the row we just passed (row index `self.row`) now has
        // row < i: it leaves the S_x suffix counts and the T_q terms.
        if let Some((pcol, pcolor)) = self.pt_in_row[(self.row - self.inst.r0) as usize] {
            let x0 = pcolor as usize;
            // S-term: F_q contains +Σ_{x<q} S_x(i), and S_{x0}(i) drops by 1 when
            // i passes the point's row, so F_q decreases by 1 for every q > x0.
            for q in x0 + 1..self.inst.h as usize {
                self.f[q] -= 1;
            }
            // T-term of color x0: T_{x0}(i, j) counts row ≥ i, col < j; the point
            // leaves the count if its column is < current j.
            if pcol < self.col {
                self.f[x0] -= 1;
            }
        }
        self.row += 1;
    }

    /// Moves the evaluation point one column right (`col → col + 1`).
    fn move_right(&mut self) {
        debug_assert!(self.col < self.inst.c1);
        // The point in the column we just passed now has col < j: it enters the
        // U_x prefix counts and possibly the T_q term.
        if let Some((prow, pcolor)) = self.pt_in_col[(self.col - self.inst.c0) as usize] {
            let x0 = pcolor as usize;
            // U-term: F_q for q < x0 gains one unit of U_{x0}.
            for q in 0..x0 {
                self.f[q] += 1;
            }
            // T-term of color x0: gains the point if its row is ≥ current i.
            if prow >= self.row {
                self.f[x0] += 1;
            }
        }
        self.col += 1;
    }

    /// `opt` at the current evaluation point.
    fn opt(&self) -> u16 {
        opt_of(&self.f)
    }

    /// Would `opt ≤ q` still hold after a `move_right`? (Non-destructive peek.)
    fn opt_le_after_right(&self, q: u16) -> bool {
        let mut f = self.f.clone();
        if let Some((prow, pcolor)) = self.pt_in_col[(self.col - self.inst.c0) as usize] {
            let x0 = pcolor as usize;
            for fq in f.iter_mut().take(x0) {
                *fq += 1;
            }
            if prow >= self.row {
                f[x0] += 1;
            }
        }
        opt_of(&f) <= q
    }
}

/// Smallest minimizer of an `F` vector.
fn opt_of(f: &[i64]) -> u16 {
    let mut best = 0usize;
    for (q, &v) in f.iter().enumerate() {
        if v < f[best] {
            best = q;
        }
    }
    best as u16
}

/// The reference resolver [`process_subgrid`] is tested against: the same
/// outputs, computed with three fresh walks for the corner `opt` values and a
/// fresh walk down per traced line, a cloned `F` per rightward peek, and a
/// final sort.
///
/// The implementation traces, for every demarcation line `q` crossing the subgrid,
/// the per-row boundary `maxcol_q[i] = max {j : opt(i, j) ≤ q}` (clamped to the
/// subgrid), then
///
/// * reports a block `(i, j)` as *interesting* (Lemma 3.9) when
///   `maxcol_a[i+1] = j`, `j+1 ≤ maxcol_a[i]` and `j > maxcol_{a−1}[i]`, and
/// * keeps a union point of color `x` at block `(i, j)` (Lemma 3.10) iff
///   `j > maxcol_{x−1}[i]` and `j + 1 ≤ maxcol_x[i+1]`.
pub fn process_subgrid_reference(inst: &SubgridInstance) -> SubgridOutput {
    let rows = (inst.r1 - inst.r0) as usize; // number of block rows
    debug_assert!(rows >= 1 && inst.c1 > inst.c0);

    // Corner opt values determine which demarcation lines cross the subgrid.
    let q_lo = {
        let local = LocalF::new(inst);
        local.opt()
    };
    let q_hi = {
        let mut local = LocalF::new(inst);
        for _ in inst.r0..inst.r1 {
            local.move_down();
        }
        for _ in inst.c0..inst.c1 {
            local.move_right();
        }
        local.opt()
    };
    debug_assert!(q_lo <= q_hi);

    // maxcol[q] for traced q ∈ [q_lo, q_hi); other colors are constant:
    // q < q_lo → entirely left of the subgrid (−∞), q ≥ q_hi → entirely right (+∞).
    let below = i64::from(inst.c0) - 1;
    let above = i64::from(inst.c1);
    let mut traced: Vec<Vec<i64>> = Vec::new();
    for q in q_lo..q_hi {
        traced.push(trace_demarcation_line(inst, q, rows));
    }
    let maxcol = |q: i64, row: u32| -> i64 {
        if q < 0 || (q as u16) < q_lo {
            below
        } else if q as u16 >= q_hi {
            above
        } else {
            traced[(q as u16 - q_lo) as usize][(row - inst.r0) as usize]
        }
    };

    let mut out = SubgridOutput::default();

    // Interesting points (Lemma 3.9): candidates are the per-row boundaries of each
    // traced demarcation line. Block row i uses corner rows i and i+1 (both within
    // the maxcol arrays, which cover corner rows r0 ..= r1).
    for (t, line) in traced.iter().enumerate() {
        let a = (q_lo + t as u16) as i64;
        for i in inst.r0..inst.r1 {
            let j = line[(i + 1 - inst.r0) as usize];
            if j < i64::from(inst.c0) || j >= i64::from(inst.c1) {
                continue;
            }
            let j_u = j as u32;
            if i64::from(j_u + 1) <= maxcol(a, i) && i64::from(j_u) > maxcol(a - 1, i) {
                out.nonzeros.push((i, j_u));
            }
        }
    }

    // Union-point survival (Lemma 3.10): points whose block lies in this subgrid.
    for p in &inst.row_pts {
        if p.col < inst.c0 || p.col >= inst.c1 {
            continue;
        }
        let x = i64::from(p.color);
        if i64::from(p.col) > maxcol(x - 1, p.row) && i64::from(p.col + 1) <= maxcol(x, p.row + 1) {
            out.nonzeros.push((p.row, p.col));
        }
    }

    out.nonzeros.sort_unstable();
    out.nonzeros.dedup();
    out
}

/// Traces demarcation line `q` through the subgrid: returns, for every corner row
/// `r0 ..= r1` (index `row - r0`), the largest column `≤ c1` with `opt(row, col) ≤ q`
/// (or `c0 − 1` when even column `c0` exceeds the region).
fn trace_demarcation_line(inst: &SubgridInstance, q: u16, rows: usize) -> Vec<i64> {
    let below = i64::from(inst.c0) - 1;
    let mut maxcol = vec![below; rows + 1];

    // Start at the bottom-left corner (r1, c0) and walk up/right. The region
    // {opt ≤ q} is monotone: its boundary is nonincreasing as the row index
    // grows, so walking upwards the boundary moves right or stays.
    let mut local = LocalF::new(inst);
    for _ in inst.r0..inst.r1 {
        local.move_down();
    }
    debug_assert_eq!(local.row, inst.r1);

    // Walk upwards until the region is entered (rows below keep the `below` marker).
    let mut row = inst.r1;
    loop {
        if local.opt() <= q {
            break;
        }
        if row == inst.r0 {
            return maxcol; // the region never reaches column c0 inside this subgrid
        }
        // LocalF only moves down and right; `move_up` undoes a `move_down`.
        move_up(&mut local);
        row -= 1;
    }

    // Greedy rightward extension per row, then step up.
    loop {
        while local.col < inst.c1 && local.opt_le_after_right(q) {
            local.move_right();
        }
        maxcol[(row - inst.r0) as usize] = i64::from(local.col);
        if row == inst.r0 {
            break;
        }
        move_up(&mut local);
        row -= 1;
        debug_assert!(
            local.opt() <= q,
            "region must still contain the corner after moving up"
        );
    }
    maxcol
}

/// Inverse of [`LocalF::move_down`]: moves the evaluation point one row up.
fn move_up(local: &mut LocalF<'_>) {
    debug_assert!(local.row > local.inst.r0);
    local.row -= 1;
    if let Some((pcol, pcolor)) = local.pt_in_row[(local.row - local.inst.r0) as usize] {
        let x0 = pcolor as usize;
        for q in x0 + 1..local.inst.h as usize {
            local.f[q] += 1;
        }
        if pcol < local.col {
            local.f[x0] += 1;
        }
    }
}

// ---------------------------------------------------------------------------------
// Sequential multiway combine driver.
// ---------------------------------------------------------------------------------

/// Sequentially combines the `h` lifted subproblem results into the product
/// permutation, using exactly the grid/subgrid decomposition the MPC implementation
/// uses (grid spacing `g`). This is the reference the distributed implementation is
/// tested against, and doubles as a standalone sequential H-way multiplier.
pub fn combine_multiway(
    points: &[ColoredPoint],
    n: usize,
    h: usize,
    g: usize,
) -> PermutationMatrix {
    assert!(g >= 1);
    assert_eq!(
        points.len(),
        n,
        "union of subproblem results must be a permutation"
    );
    if h == 1 || n == 0 {
        let mut rows = vec![0u32; n];
        for p in points {
            rows[p.row as usize] = p.col;
        }
        return PermutationMatrix::from_rows(rows);
    }

    let oracle = MultiwayOracle::new(points, h);
    // Grid corner rows/cols: multiples of g plus the final boundary n.
    let boundaries: Vec<u32> = {
        let mut b: Vec<u32> = (0..)
            .map(|k| (k * g) as u32)
            .take_while(|&x| (x as usize) < n)
            .collect();
        b.push(n as u32);
        b
    };
    let cells = boundaries.len() - 1;

    // opt at every grid corner (the sequential driver can afford this; the MPC
    // implementation derives the same information from the grid-line phase).
    let corner_opt: Vec<Vec<u16>> = boundaries
        .iter()
        .map(|&r| boundaries.iter().map(|&c| oracle.opt(r, c)).collect())
        .collect();

    let mut result: Vec<(u32, u32)> = Vec::with_capacity(n);

    // The row and column tables: the union holds one point per row and column.
    let mut by_row: Vec<ColoredPoint> = points.to_vec();
    by_row.sort_unstable_by_key(|p| p.row);
    let mut by_col: Vec<ColoredPoint> = points.to_vec();
    by_col.sort_unstable_by_key(|p| p.col);

    for bi in 0..cells {
        for bj in 0..cells {
            let (r0, r1) = (boundaries[bi], boundaries[bi + 1]);
            let (c0, c1) = (boundaries[bj], boundaries[bj + 1]);
            let rows = &by_row[r0 as usize..r1 as usize];
            let active = corner_opt[bi][bj] != corner_opt[bi + 1][bj + 1];
            if active {
                let sub = SubgridTables {
                    r0,
                    r1,
                    c0,
                    c1,
                    wlo: 0,
                    base_f: &oracle.f_vec(r0, c0),
                    rows,
                    cols: &by_col[c0 as usize..c1 as usize],
                };
                result.extend(process_subgrid(&sub).nonzeros);
            } else {
                // Constant opt inside the subgrid: a union point survives iff its
                // color equals the constant (Lemma 3.10).
                let constant = corner_opt[bi][bj];
                result.extend(
                    rows.iter()
                        .filter(|p| p.col >= c0 && p.col < c1 && p.color == constant)
                        .map(|p| (p.row, p.col)),
                );
            }
        }
    }

    assert_eq!(result.len(), n, "combine must produce exactly n nonzeros");
    let mut rows = vec![u32::MAX; n];
    for (r, c) in result {
        assert_eq!(rows[r as usize], u32::MAX, "row {r} produced twice");
        rows[r as usize] = c;
    }
    PermutationMatrix::from_rows(rows)
}

/// Full sequential H-way multiplication: split, solve subproblems with the steady
/// ant, combine. Useful on its own and as the reference for `monge-mpc`.
pub fn mul_multiway(
    a: &PermutationMatrix,
    b: &PermutationMatrix,
    h: usize,
    g: usize,
) -> PermutationMatrix {
    let n = a.size();
    assert_eq!(n, b.size());
    if n == 0 {
        return PermutationMatrix::identity(0);
    }
    let h = h.clamp(1, n);
    let subs = split_into_subproblems(a.rows(), b.rows(), h);
    let lifted: Vec<Vec<ColoredPoint>> = subs
        .iter()
        .enumerate()
        .map(|(q, sub)| {
            let c = crate::steady_ant::mul_rows(&sub.a, &sub.b);
            lift_subresult(sub, &c, q as u16)
        })
        .collect();
    let union = overlay(lifted);
    combine_multiway(&union, n, h, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::mul_dense;
    use crate::steady_ant;
    use rand::prelude::*;

    /// Looks up a step function given as breakpoints `(start, value)` sorted by start.
    fn step_lookup(breakpoints: &[(u32, u16)], at: u32) -> u16 {
        let idx = breakpoints.partition_point(|&(start, _)| start <= at);
        assert!(idx > 0, "lookup before the first breakpoint");
        breakpoints[idx - 1].1
    }

    fn random_permutation(n: usize, rng: &mut StdRng) -> PermutationMatrix {
        let mut v: Vec<u32> = (0..n as u32).collect();
        v.shuffle(rng);
        PermutationMatrix::from_rows(v)
    }

    /// Builds the colored union for a random instance, returning (a, b, points).
    fn build_union(
        n: usize,
        h: usize,
        rng: &mut StdRng,
    ) -> (PermutationMatrix, PermutationMatrix, Vec<ColoredPoint>) {
        let a = random_permutation(n, rng);
        let b = random_permutation(n, rng);
        let subs = split_into_subproblems(a.rows(), b.rows(), h);
        let lifted: Vec<Vec<ColoredPoint>> = subs
            .iter()
            .enumerate()
            .map(|(q, sub)| {
                let c = steady_ant::mul_rows(&sub.a, &sub.b);
                lift_subresult(sub, &c, q as u16)
            })
            .collect();
        let union = overlay(lifted);
        (a, b, union)
    }

    #[test]
    fn split_partitions_rows_and_cols() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_permutation(20, &mut rng);
        let b = random_permutation(20, &mut rng);
        for h in [1, 2, 3, 4, 7] {
            let subs = split_into_subproblems(a.rows(), b.rows(), h);
            let total_rows: usize = subs.iter().map(|s| s.rows.len()).sum();
            let total_cols: usize = subs.iter().map(|s| s.cols.len()).sum();
            assert_eq!(total_rows, 20);
            assert_eq!(total_cols, 20);
            for s in &subs {
                assert_eq!(s.a.len(), s.rows.len());
                assert_eq!(s.b.len(), s.cols.len());
                assert!(s.rows.windows(2).all(|w| w[0] < w[1]));
                assert!(s.cols.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn overlay_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(2);
        let (_, _, union) = build_union(24, 4, &mut rng);
        assert_eq!(union.len(), 24);
        let mut cols: Vec<u32> = union.iter().map(|p| p.col).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 24);
    }

    #[test]
    fn lemma_3_1_decomposition() {
        // P^Σ_C(i,k) = min_q F_q(i,k): checks Lemma 3.2 directly on random instances.
        let mut rng = StdRng::seed_from_u64(3);
        for &(n, h) in &[(12usize, 3usize), (16, 4), (20, 5)] {
            let (a, b, union) = build_union(n, h, &mut rng);
            let c = mul_dense(&a, &b);
            let dc = crate::distribution::DistributionMatrix::from_permutation(&c);
            let oracle = MultiwayOracle::new(&union, h);
            for i in 0..=n as u32 {
                for k in 0..=n as u32 {
                    let fmin = (0..h).map(|q| oracle.f(q, i, k)).min().unwrap();
                    assert_eq!(
                        u64::from(dc.get(i as usize, k as usize)),
                        fmin,
                        "n={n} h={h} at ({i},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_is_monotone_with_unit_steps() {
        // Lemmas 3.3 / 3.4.
        let mut rng = StdRng::seed_from_u64(4);
        let (_, _, union) = build_union(18, 3, &mut rng);
        let oracle = MultiwayOracle::new(&union, 3);
        for q in 0..3 {
            for r in q + 1..3 {
                for i in 0..=18u32 {
                    for j in 0..18u32 {
                        let d = oracle.delta(q, r, i, j + 1) - oracle.delta(q, r, i, j);
                        assert!((0..=1).contains(&d), "column step δ={d}");
                    }
                }
                for i in 0..18u32 {
                    for j in 0..=18u32 {
                        let d = oracle.delta(q, r, i + 1, j) - oracle.delta(q, r, i, j);
                        assert!((0..=1).contains(&d), "row step δ={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn opt_is_monotone() {
        // Lemmas 3.5 / 3.6.
        let mut rng = StdRng::seed_from_u64(5);
        let (_, _, union) = build_union(20, 4, &mut rng);
        let oracle = MultiwayOracle::new(&union, 4);
        for i in 0..=20u32 {
            for j in 0..20u32 {
                assert!(oracle.opt(i, j) <= oracle.opt(i, j + 1));
            }
        }
        for i in 0..20u32 {
            for j in 0..=20u32 {
                assert!(oracle.opt(i, j) <= oracle.opt(i + 1, j));
            }
        }
    }

    #[test]
    fn cmp_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(6);
        let (_, _, union) = build_union(25, 5, &mut rng);
        let n = 25u32;
        let oracle = MultiwayOracle::new(&union, 5);
        for c in [0u32, 5, 12, 25] {
            for q in 0..5 {
                for r in q + 1..5 {
                    let by_scan = (0..=n)
                        .find(|&i| oracle.delta(q, r, i, c) > 0)
                        .unwrap_or(n + 1);
                    assert_eq!(oracle.cmp(n, c, q, r), by_scan, "c={c} q={q} r={r}");
                }
            }
        }
    }

    #[test]
    fn breakpoints_from_cmp_match_direct_opt() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, h) in &[(20usize, 4usize), (30, 5), (17, 3)] {
            let (_, _, union) = build_union(n, h, &mut rng);
            let oracle = MultiwayOracle::new(&union, h);
            for c in [0u32, (n / 3) as u32, (n / 2) as u32, n as u32] {
                let mut cmp = vec![vec![0u32; h]; h];
                for q in 0..h {
                    for r in q + 1..h {
                        cmp[q][r] = oracle.cmp(n as u32, c, q, r);
                    }
                }
                let bp = opt_breakpoints_from_cmp(&cmp, h, n as u32);
                for i in 0..=n as u32 {
                    assert_eq!(
                        step_lookup(&bp, i),
                        oracle.opt(i, c),
                        "n={n} h={h} c={c} i={i}"
                    );
                }
            }
        }
    }

    /// The subgrids [`subgrid_kernel_matches_the_reference`] resolves in a
    /// union of `n` points: every cell of grids of spacing 1, 4, 7 and `n`,
    /// single-row and single-column strips, and the bounding boxes of pairs of
    /// union points, which put points on the corners.
    fn subgrids(n: u32, union: &[ColoredPoint], rng: &mut StdRng) -> Vec<[u32; 4]> {
        let mut rects = Vec::new();
        for g in [1, 4, 7, n] {
            let cuts: Vec<u32> = (0..n).step_by(g as usize).chain([n]).collect();
            for r in cuts.windows(2) {
                rects.extend(cuts.windows(2).map(|c| [r[0], r[1], c[0], c[1]]));
            }
        }
        for _ in 0..12 {
            let (at, from) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let to = rng.gen_range(from + 1..=n);
            rects.push([at, at + 1, from, to]);
            rects.push([from, to, at, at + 1]);
            let (p, q) = (
                union[rng.gen_range(0..union.len())],
                union[rng.gen_range(0..union.len())],
            );
            rects.push([
                p.row.min(q.row),
                p.row.max(q.row) + 1,
                p.col.min(q.col),
                p.col.max(q.col) + 1,
            ]);
        }
        rects
    }

    #[test]
    fn subgrid_kernel_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 29usize;
        let (id, rev) = (
            PermutationMatrix::identity(n),
            PermutationMatrix::from_rows((0..n as u32).rev().collect()),
        );
        let mut widths = [0usize; 9];
        let mut corners = [0usize; 4];
        let mut dropped = 0;
        for h in [1, 2, 3, 5, 8] {
            let families = [
                (
                    "random",
                    random_permutation(n, &mut rng),
                    random_permutation(n, &mut rng),
                ),
                ("identity", id.clone(), id.clone()),
                ("reversed", rev.clone(), rev.clone()),
                ("identity·reversed", id.clone(), rev.clone()),
            ];
            for (family, a, b) in families {
                let subs = split_into_subproblems(a.rows(), b.rows(), h);
                let lifted = subs.iter().enumerate().map(|(q, sub)| {
                    lift_subresult(sub, &steady_ant::mul_rows(&sub.a, &sub.b), q as u16)
                });
                let by_row = overlay(lifted.collect());
                let mut by_col = by_row.clone();
                by_col.sort_unstable_by_key(|p| p.col);
                let oracle = MultiwayOracle::new(&by_row, h);
                let product = mul_dense(&a, &b);
                for [r0, r1, c0, c1] in subgrids(n as u32, &by_row, &mut rng) {
                    let f = oracle.f_vec(r0, c0);
                    let (rows, cols) = (
                        &by_row[r0 as usize..r1 as usize],
                        &by_col[c0 as usize..c1 as usize],
                    );
                    // Every window holding the subgrid's opt values.
                    let (lo, hi) = (oracle.opt(r0, c0), oracle.opt(r1, c1));
                    for (wlo, whi) in (0..=lo).flat_map(|l| (hi..h as u16).map(move |w| (l, w))) {
                        let case = format!(
                            "{family} h={h} rows {r0}..{r1} cols {c0}..{c1} window {wlo}..={whi}"
                        );
                        let sub = SubgridTables {
                            r0,
                            r1,
                            c0,
                            c1,
                            wlo,
                            base_f: &f[wlo as usize..=whi as usize],
                            rows,
                            cols,
                        };
                        let got = process_subgrid(&sub);
                        let mut inst = sub.instance();
                        assert_eq!(
                            got,
                            process_subgrid_reference(&inst),
                            "sorted input, {case}"
                        );
                        inst.row_pts.shuffle(&mut rng);
                        inst.col_pts.shuffle(&mut rng);
                        assert_eq!(
                            got,
                            process_subgrid_reference(&inst),
                            "shuffled input, {case}"
                        );
                        let want: Vec<(u32, u32)> = (r0..r1)
                            .map(|r| (r, product.rows()[r as usize]))
                            .filter(|(_, c)| (c0..c1).contains(c))
                            .collect();
                        assert_eq!(got.nonzeros, want, "the product's nonzeros, {case}");

                        widths[(whi - wlo + 1) as usize] += 1;
                        dropped += (inst.row_pts.len() < rows.len()) as usize;
                        let at = |r: u32, c: u32| by_row[r as usize].col == c;
                        for (k, (r, c)) in [(r0, c0), (r0, c1 - 1), (r1 - 1, c0), (r1 - 1, c1 - 1)]
                            .into_iter()
                            .enumerate()
                        {
                            corners[k] += at(r, c) as usize;
                        }
                    }
                }
            }
        }
        assert!(
            widths[1..].iter().all(|&w| w > 0),
            "window widths seen: {widths:?}"
        );
        assert!(
            corners.iter().all(|&c| c > 0),
            "corner points seen: {corners:?}"
        );
        assert!(
            dropped > 0,
            "no subgrid had a row without an in-window point"
        );
    }

    #[test]
    fn multiway_combine_matches_dense_small() {
        let mut rng = StdRng::seed_from_u64(8);
        for &(n, h, g) in &[
            (8usize, 2usize, 3usize),
            (12, 3, 4),
            (16, 4, 4),
            (20, 4, 5),
            (20, 4, 20),
            (15, 5, 2),
            (9, 9, 3),
        ] {
            for _ in 0..6 {
                let a = random_permutation(n, &mut rng);
                let b = random_permutation(n, &mut rng);
                let expected = mul_dense(&a, &b);
                let got = mul_multiway(&a, &b, h, g);
                assert_eq!(got, expected, "n={n} h={h} g={g} a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn multiway_combine_matches_steady_ant_medium() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(n, h, g) in &[
            (64usize, 4usize, 16usize),
            (100, 5, 10),
            (128, 8, 16),
            (200, 3, 32),
        ] {
            let a = random_permutation(n, &mut rng);
            let b = random_permutation(n, &mut rng);
            let expected = steady_ant::mul(&a, &b);
            let got = mul_multiway(&a, &b, h, g);
            assert_eq!(got, expected, "n={n} h={h} g={g}");
        }
    }

    #[test]
    fn multiway_single_color_is_identity_operation() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_permutation(30, &mut rng);
        let b = random_permutation(30, &mut rng);
        assert_eq!(mul_multiway(&a, &b, 1, 8), steady_ant::mul(&a, &b));
    }
}
