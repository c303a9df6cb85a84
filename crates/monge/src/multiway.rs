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
//! * [`SubgridInstance`] / [`process_subgrid`] — §3.3's per-subgrid local phase,
//! * [`combine_multiway`] — a sequential driver wiring the pieces together exactly
//!   the way the MPC implementation (`monge-mpc`) does, used as its ground truth.
//!
//! Colors are 0-based (`0..h`), unlike the paper's 1-based `[H]`.

use crate::dominance::DominanceCounter;
use crate::matrix::PermutationMatrix;

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

/// Looks up a step function given as breakpoints `(start, value)` sorted by start.
pub fn step_lookup(breakpoints: &[(u32, u16)], at: u32) -> u16 {
    let idx = breakpoints.partition_point(|&(start, _)| start <= at);
    assert!(idx > 0, "lookup before the first breakpoint");
    breakpoints[idx - 1].1
}

// ---------------------------------------------------------------------------------
// Subgrid-local phase (§3.3).
// ---------------------------------------------------------------------------------

/// All data a single machine needs to resolve one active subgrid: the absolute
/// `F_q` values at the subgrid's upper-left corner plus every union point in the
/// subgrid's row range and column range. (The distributed combine in `monge-mpc`
/// builds it under the paper's tighter Lemma 3.12 routing: only the colors of the
/// pierced interval, shifted to start at 0, with `F` restricted to them.)
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
    /// Union points with `row ∈ [r0, r1)` (any column), sorted by row.
    pub row_pts: Vec<ColoredPoint>,
    /// Union points with `col ∈ [c0, c1)` (any row), sorted by column.
    pub col_pts: Vec<ColoredPoint>,
}

/// Nonzeros of `P_C` contributed by one subgrid: the interesting points of
/// Lemma 3.9 plus the union points of Lemma 3.10 that survive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubgridOutput {
    /// `(row, col)` nonzeros of the product whose block lies in this subgrid.
    pub nonzeros: Vec<(u32, u32)>,
}

/// Internal: evaluator for `F_·(i, j)` restricted to a subgrid, supporting the
/// incremental updates used by the demarcation-line traces.
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
            // S-term: F_q for q > x0 loses one unit of S_{x0} → F_q decreases? No:
            // F_q contains +Σ_{x<q} S_x(i); S_{x0}(i) drops by 1 when i passes the
            // point's row, so F_q decreases by 1 for q > x0.
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
        let mut best = 0usize;
        for (q, &v) in self.f.iter().enumerate() {
            if v < self.f[best] {
                best = q;
            }
        }
        best as u16
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

/// Resolves one active subgrid: returns every nonzero of `P_C` whose block lies in
/// `[r0, r1) × [c0, c1)`.
///
/// The implementation traces, for every demarcation line `q` crossing the subgrid,
/// the per-row boundary `maxcol_q[i] = max {j : opt(i, j) ≤ q}` (clamped to the
/// subgrid), then
///
/// * reports a block `(i, j)` as *interesting* (Lemma 3.9) when
///   `maxcol_a[i+1] = j`, `j+1 ≤ maxcol_a[i]` and `j > maxcol_{a−1}[i]`, and
/// * keeps a union point of color `x` at block `(i, j)` (Lemma 3.10) iff
///   `j > maxcol_{x−1}[i]` and `j + 1 ≤ maxcol_x[i+1]`.
pub fn process_subgrid(inst: &SubgridInstance) -> SubgridOutput {
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

    // Start at the bottom-left corner (r1, c0) and walk up/right; the region
    // {opt ≤ q} is monotone, so once a row's boundary is found the next row's
    // boundary can only be further right... (it is nonincreasing as the row index
    // grows, so walking upwards the boundary moves right or stays).
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
        // Move the evaluation point up one row. LocalF only supports downward and
        // rightward movement, so rebuild is avoided by undoing the last move_down:
        // instead we track rows from scratch — see `move_up` below.
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

    // Points sorted by row / by col for range extraction.
    let mut by_row: Vec<ColoredPoint> = points.to_vec();
    by_row.sort_unstable_by_key(|p| p.row);
    let mut by_col: Vec<ColoredPoint> = points.to_vec();
    by_col.sort_unstable_by_key(|p| p.col);

    for bi in 0..cells {
        for bj in 0..cells {
            let (r0, r1) = (boundaries[bi], boundaries[bi + 1]);
            let (c0, c1) = (boundaries[bj], boundaries[bj + 1]);
            let active = corner_opt[bi][bj] != corner_opt[bi + 1][bj + 1];
            if active {
                let row_pts: Vec<ColoredPoint> = by_row
                    .iter()
                    .filter(|p| p.row >= r0 && p.row < r1)
                    .copied()
                    .collect();
                let col_pts: Vec<ColoredPoint> = by_col
                    .iter()
                    .filter(|p| p.col >= c0 && p.col < c1)
                    .copied()
                    .collect();
                let inst = SubgridInstance {
                    r0,
                    r1,
                    c0,
                    c1,
                    h: h as u16,
                    base_f: oracle.f_vec(r0, c0),
                    row_pts,
                    col_pts,
                };
                result.extend(process_subgrid(&inst).nonzeros);
            } else {
                // Constant opt inside the subgrid: a union point survives iff its
                // color equals the constant (Lemma 3.10).
                let constant = corner_opt[bi][bj];
                result.extend(
                    by_row
                        .iter()
                        .filter(|p| {
                            p.row >= r0
                                && p.row < r1
                                && p.col >= c0
                                && p.col < c1
                                && p.color == constant
                        })
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
