//! Tiskin's "steady ant" divide-and-conquer algorithm for implicit unit-Monge
//! multiplication, running in `O(n log n)` time.
//!
//! This is the sequential baseline of the paper (see §1.2) and also the local kernel
//! executed inside a single simulated MPC machine once an instance fits into its
//! space budget. The structure mirrors the H = 2 case of Section 3 of the paper:
//!
//! 1. Split `P_A` into a left and right column slice and `P_B` into a top and bottom
//!    row slice, compact the empty rows/columns, and recurse on the two
//!    half-size subproblems (`C_lo = A_lo ⊡ B_lo`, `C_hi = A_hi ⊡ B_hi`).
//! 2. Combine the expanded results with the *ant traversal*: trace the monotone
//!    demarcation line between the region of the output where `F_1` (the `lo`
//!    subproblem) attains the minimum and the region where `F_2` (the `hi`
//!    subproblem) does, then keep `lo` nonzeros strictly above/left of the line,
//!    `hi` nonzeros strictly below/right of it, and insert a new nonzero at every
//!    up-then-right turn of the line (the "interesting points" of Lemma 3.9).
//!    Both sides' results are expanded into two tagged maps, one per axis
//!    (row → column, column → row, the side in the top bit), since every row
//!    and column of the product belongs to exactly one side.
//! 3. Subproblems of at most 64 (`HECKE_BASE`) are not split further. `⊡` is the
//!    product of the 0-Hecke (seaweed) monoid (A. Tiskin, *Fast distance
//!    multiplication of unit-Monge matrices*, Algorithmica 71, 2015), so a
//!    small product is `P_B` run through the compare-exchanges of a reduced
//!    word of `P_A`: insertion-sort `pa`, then apply its swaps backwards.

use crate::matrix::{PermutationMatrix, SubPermutationMatrix};
use rayon::prelude::*;
use std::cell::RefCell;

const NONE: u32 = u32::MAX;

/// Subproblems of at most this size are solved directly as a run of 0-Hecke
/// compare-exchanges ([`mul_hecke_base`]) instead of recursing further. The
/// product `⊡` is unique, so the base case is bit-identical to full recursion;
/// it exists because the deepest recursion levels are dominated by bookkeeping,
/// not by work. Its cost grows with the inversions of `pa` (`n²/4` on random
/// input, `n²/2` on the reversal), so the cutoff trades recursion levels
/// against the word length. A sweep of cutoffs 16–128 (µs per product, best
/// of 5–7 round-robin runs, 1 thread, 2-vCPU Xeon host), where "pipeline" is
/// the 84 products of one Theorem 1.3 solve (`lis_witness_mpc`, n = 2¹⁴,
/// δ = 0.5, layerbench's noisy trend; sizes 1024 and 1792, 4.9% of the
/// maximum inversions) and "rev" a reversed `pa`:
///
/// | cutoff | pipeline | rand 256 | rand 1024 | rand 4096 | rand 16384 | rev 1024 |
/// |-------:|---------:|---------:|----------:|----------:|-----------:|---------:|
/// | 16     | 175      | 45       | 255       | 1267      | 6303       | 135      |
/// | 32     | 147      | 38       | 227       | 1146      | 5849       | 142      |
/// | 48     | 149      | 38       | 227       | 1132      | 5839       | 144      |
/// | 64     | 127      | 34       | 215       | 1106      | 5552       | 177      |
/// | 96     | 132      | 35       | 218       | 1122      | 5579       | 179      |
/// | 128    | 117      | 39       | 237       | 1200      | 5863       | 279      |
///
/// The dense (min, +) base at 8 that this replaced read 461, 103, 528, 2413,
/// 11445 and 310. Halving recursions on these sizes only meet the cutoff's
/// largest power of two, so 32/48 and 64/96 pair up. 128 wins the pipeline
/// but loses every random row, and its reversal row is back near the old
/// base's; 64 is the fastest on the rest.
const HECKE_BASE: usize = 64;

/// Multiplies two permutation matrices: returns `P_C = P_A ⊡ P_B` (Theorem 1.1's
/// sequential counterpart). `O(n log n)` time, `O(n)` auxiliary space per level,
/// with every level's scratch drawn from a thread-local [`Workspace`] arena.
pub fn mul(a: &PermutationMatrix, b: &PermutationMatrix) -> PermutationMatrix {
    assert_eq!(a.size(), b.size(), "operands must have equal size");
    let rows = mul_rows(a.rows(), b.rows());
    PermutationMatrix::from_rows_unchecked(rows)
}

/// Multiplies two permutation matrices given as raw row → column arrays.
///
/// Exposed so that the MPC layer can run the same kernel on machine-local slices
/// without re-wrapping data in [`PermutationMatrix`]. Scratch buffers come from
/// a thread-local [`Workspace`], so repeated calls (the per-level merge batches
/// of `lis-mpc`, the grid phase's batched packages, streamed comb folds)
/// allocate nothing beyond the result itself after warm-up.
pub fn mul_rows(pa: &[u32], pb: &[u32]) -> Vec<u32> {
    WORKSPACE.with(|ws| ws.borrow_mut().mul_rows(pa, pb))
}

/// Multiplies many independent products, all sharing one arena per worker
/// thread, data-parallel across instances.
///
/// This is the entry point for batched layers: the per-level merge pair loop of
/// `lis_mpc::lis` and the grid phase's batched packages funnel their per-level
/// `⊡` instances through here (via `monge_mpc::mul_batch`'s local solve), and
/// the bench harness drives it directly. Results are in instance order and
/// bit-identical to a sequential loop of [`mul`] at every thread count.
pub fn mul_batch(instances: &[(PermutationMatrix, PermutationMatrix)]) -> Vec<PermutationMatrix> {
    instances.par_iter().map(|(a, b)| mul(a, b)).collect()
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Reusable scratch arena for the steady-ant recursion.
///
/// The reference implementation ([`mul_rows_reference`]) allocates ~13 fresh
/// vectors per combine step; across a full recursion that is `O(n)` allocator
/// round-trips, and at the deepest levels malloc dominates the actual work.
/// The workspace instead keeps a pool of `u32` buffers: every recursion level
/// *takes* its scratch from the pool and *gives* it back before returning, so
/// steady state runs allocation-free (the returned product vector is the only
/// allocation per call). A combine step expands both sides' results into two
/// tagged maps, row → column and column → row, carved out of one pooled `2n`
/// buffer; every slot is written, so the buffer needs no fill. Subproblems of
/// at most 64 (`HECKE_BASE`) run the 0-Hecke base case on the stack.
///
/// An `outstanding` counter tracks take/give balance; `mul_rows` asserts (debug
/// builds) that every instance returns all of its buffers — the classic
/// stale-state failure mode of buffer reuse — and discards any pool left
/// unbalanced by a panic that unwound a previous instance, so a poisoned
/// thread-local workspace cannot cascade into secondary failures. The
/// `workspace_reuse_across_sizes` and `workspace_recovers_after_unwind`
/// regression tests exercise one workspace across differently-sized products
/// and across a simulated mid-instance abort.
#[derive(Default)]
pub struct Workspace {
    pool: Vec<Vec<u32>>,
    outstanding: usize,
}

impl Workspace {
    /// Creates an empty workspace; buffers are grown on demand and reused.
    pub fn new() -> Self {
        Self::default()
    }

    fn take(&mut self) -> Vec<u32> {
        self.outstanding += 1;
        self.pool.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: Vec<u32>) {
        debug_assert!(self.outstanding > 0, "give without matching take");
        buf.clear();
        self.outstanding -= 1;
        self.pool.push(buf);
    }

    /// Arena-backed `P_A ⊡ P_B` on raw row → column arrays; bit-identical to
    /// [`mul_rows_reference`].
    pub fn mul_rows(&mut self, pa: &[u32], pb: &[u32]) -> Vec<u32> {
        debug_assert_eq!(pa.len(), pb.len());
        // A panic that unwound out of a previous instance (a failed
        // debug_assert in the combine, a caller-induced abort caught by
        // catch_unwind) leaves `outstanding` nonzero with the taken buffers
        // dropped. Discard the stale pool instead of asserting, so the
        // original panic is not masked by a secondary "not fully reset"
        // failure on every later call from this thread; the post-instance
        // assert below still catches genuine within-instance leaks.
        if self.outstanding != 0 {
            self.outstanding = 0;
            self.pool.clear();
        }
        let mut out = Vec::new();
        self.mul_rec(pa, pb, &mut out);
        debug_assert_eq!(
            self.outstanding, 0,
            "workspace buffers leaked by an instance"
        );
        out
    }

    fn mul_rec(&mut self, pa: &[u32], pb: &[u32], out: &mut Vec<u32>) {
        let n = pa.len();
        out.clear();
        if n <= HECKE_BASE {
            mul_hecke_base(pa, pb, out);
            return;
        }
        let half = n / 2;

        // --- Split A by columns of the middle dimension. -----------------------
        // Rows of A whose nonzero lies in columns [0, half) form the `lo`
        // subproblem; the rest form `hi`. Row order is preserved (compaction by
        // rank), columns are relabelled to 0..half / 0..n-half. Both sides
        // share one buffer each: `lo` in `[..half]`, `hi` in `[half..]`.
        let mut rows = self.take();
        let mut a = self.take();
        rows.resize(n, 0);
        a.resize(n, 0);
        let (mut lo, mut hi) = (0, half);
        for (i, &c) in pa.iter().enumerate() {
            let is_lo = (c as usize) < half;
            let at = if is_lo { lo } else { hi };
            rows[at] = i as u32;
            a[at] = if is_lo { c } else { c - half as u32 };
            lo += usize::from(is_lo);
            hi += usize::from(!is_lo);
        }

        // --- Split B by rows of the middle dimension. --------------------------
        // The first `half` rows of B form `lo`; their columns are compacted by
        // rank among themselves (and analogously for `hi`).
        let mut cols = self.take();
        let mut b = self.take();
        {
            let mut rank = self.take();
            split_columns_into(pb, half, &mut rank, &mut cols);
            b.extend(pb.iter().map(|&c| rank[c as usize]));
            self.give(rank);
        }

        let mut c_lo = self.take();
        self.mul_rec(&a[..half], &b[..half], &mut c_lo);
        let mut c_hi = self.take();
        self.mul_rec(&a[half..], &b[half..], &mut c_hi);
        self.give(a);
        self.give(b);

        // --- Expand the compacted results back to n×n sub-permutations. --------
        // Every row and every column of the product belongs to exactly one
        // side, so one row → col and one col → row map, each entry tagged with
        // its side, cover both: every slot is written, nothing needs a fill.
        let mut maps = self.take();
        maps.resize(2 * n, 0);
        {
            let (col_of_row, row_of_col) = maps.split_at_mut(n);
            for (base, c_side, tag) in [(0, &c_lo, 0), (half, &c_hi, HI)] {
                for (&row, &c) in rows[base..].iter().zip(c_side.iter()) {
                    let col = cols[base + c as usize];
                    col_of_row[row as usize] = col | tag;
                    row_of_col[col as usize] = row | tag;
                }
            }
        }
        self.give(rows);
        self.give(cols);
        self.give(c_lo);
        self.give(c_hi);

        let mut max_k = self.take();
        let (col_of_row, row_of_col) = maps.split_at(n);
        combine_tagged_into(col_of_row, row_of_col, &mut max_k, out);
        self.give(max_k);
        self.give(maps);
    }
}

/// Side tag of an entry of the tagged maps of [`combine_tagged_into`]: set
/// for the `hi` subproblem's points, clear for `lo`'s.
const HI: u32 = 1 << 31;

/// Whether a tagged entry `e` (index `v` in its low bits) counts toward the
/// ant's `delta` against boundary `b`: a `hi` point below it (`v < b`), or a
/// `lo` point at or above it (`v ≥ b`).
#[inline(always)]
fn counts(e: u32, b: usize) -> bool {
    (((e & !HI) as usize) < b) == (e & HI != 0)
}

/// [`combine_ant_into`] on one tagged map per axis: `col_of_row[r]` and
/// `row_of_col[c]` hold the point of row `r` / column `c` with [`HI`] set when
/// it belongs to the `hi` subproblem. The walk runs exactly `2n` steps; each
/// step writes `max_k[i]` (the last write for row `i` is its demarcation
/// column) and its placement (into the dummy slot `out[n]` when it places
/// nothing), so neither write sits behind a branch.
fn combine_tagged_into(
    col_of_row: &[u32],
    row_of_col: &[u32],
    max_k: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    let n = col_of_row.len();
    out.clear();
    out.resize(n + 1, 0);
    max_k.clear();
    max_k.resize(n + 1, 0);

    let (mut i, mut k) = (n, 0usize);
    let mut delta: i32 = 0;
    let mut last_was_up = false;
    for _ in 0..2 * n {
        max_k[i] = k as u32;
        let move_right = k < n && (i == 0 || delta + i32::from(counts(row_of_col[k], i)) <= 0);
        if move_right {
            // An up-then-right turn at (i, k) is a new nonzero (Lemma 3.9).
            out[if last_was_up { i } else { n }] = k as u32;
            delta += i32::from(counts(row_of_col[k], i));
            k += 1;
        } else {
            i -= 1;
            delta -= i32::from(counts(col_of_row[i], k));
        }
        last_was_up = !move_right;
    }
    max_k[0] = n as u32;
    out.truncate(n);

    // A lo point (r, c) survives iff c < max_k[r + 1], a hi point iff
    // c > max_k[r]; every other row got its point from the walk.
    for (r, &e) in col_of_row.iter().enumerate() {
        let c = e & !HI;
        let survives = if e & HI != 0 {
            c > max_k[r]
        } else {
            c < max_k[r + 1]
        };
        if survives {
            out[r] = c;
        }
    }
}

/// 0-Hecke base case: `P_A ⊡ P_B` for `n ≤ HECKE_BASE` as a run of
/// compare-exchanges, entirely on the stack.
///
/// `⊡` is the product of the 0-Hecke (seaweed) monoid (Tiskin, *Fast
/// distance multiplication of unit-Monge matrices*, Algorithmica 71, 2015):
/// if insertion-sorting `pa` ascending swaps positions `(i₁, i₁+1)`, …,
/// `(i_m, i_m+1)` in that order, then `P_A ⊡ P_B` is `pb` with the
/// compare-exchange "put the larger first" applied at `i_m`, …, `i₁`. The
/// recorded swaps are a reduced word of `P_A`, one per inversion of `pa`, so
/// the cost is `O(n + inv(pa))` with no allocation.
fn mul_hecke_base(pa: &[u32], pb: &[u32], out: &mut Vec<u32>) {
    let n = pa.len();
    debug_assert!(n <= HECKE_BASE);
    let mut sorted = [0u32; HECKE_BASE];
    let mut word = [0u8; HECKE_BASE * (HECKE_BASE - 1) / 2];
    let mut len = 0;
    for (j, &c) in pa.iter().enumerate() {
        let mut i = j;
        while i > 0 && sorted[i - 1] > c {
            sorted[i] = sorted[i - 1];
            i -= 1;
            word[len] = i as u8;
            len += 1;
        }
        sorted[i] = c;
    }
    out.extend_from_slice(pb);
    for &i in word[..len].iter().rev() {
        let i = usize::from(i);
        let (x, y) = (out[i], out[i + 1]);
        out[i] = x.max(y);
        out[i + 1] = x.min(y);
    }
}

/// The allocate-per-level reference implementation of `P_A ⊡ P_B`, kept verbatim
/// as the differential oracle for the arena-backed fast path ([`mul_rows`]):
/// `exp_kernel_bench` and the proptests in `tests/properties.rs` assert the two
/// are bit-identical. It recurses down to `n = 1` and runs its own ant
/// combine (`combine_ant_into`), so it shares neither the base case nor the
/// combine with the fast path.
pub fn mul_rows_reference(pa: &[u32], pb: &[u32]) -> Vec<u32> {
    let n = pa.len();
    debug_assert_eq!(n, pb.len());
    match n {
        0 => Vec::new(),
        1 => vec![0],
        _ => {
            let half = n / 2;

            // Split A by columns of the middle dimension.
            let mut rows_lo = Vec::with_capacity(half);
            let mut rows_hi = Vec::with_capacity(n - half);
            let mut a_lo = Vec::with_capacity(half);
            let mut a_hi = Vec::with_capacity(n - half);
            for (i, &c) in pa.iter().enumerate() {
                if (c as usize) < half {
                    rows_lo.push(i as u32);
                    a_lo.push(c);
                } else {
                    rows_hi.push(i as u32);
                    a_hi.push(c - half as u32);
                }
            }

            // Split B by rows of the middle dimension.
            let (b_lo, cols_lo) = compact_columns(&pb[..half], n);
            let (b_hi, cols_hi) = compact_columns(&pb[half..], n);

            // conformance: allow(oracle-call) — the reference's own recursion:
            // the oracle stays self-contained, sharing nothing with the fast path.
            let c_lo = mul_rows_reference(&a_lo, &b_lo);
            let c_hi = mul_rows_reference(&a_hi, &b_hi);

            // Expand the compacted results back to n×n sub-permutations.
            let mut lo_col_of_row = vec![NONE; n];
            let mut lo_row_of_col = vec![NONE; n];
            for (r, &c) in c_lo.iter().enumerate() {
                let row = rows_lo[r];
                let col = cols_lo[c as usize];
                lo_col_of_row[row as usize] = col;
                lo_row_of_col[col as usize] = row;
            }
            let mut hi_col_of_row = vec![NONE; n];
            let mut hi_row_of_col = vec![NONE; n];
            for (r, &c) in c_hi.iter().enumerate() {
                let row = rows_hi[r];
                let col = cols_hi[c as usize];
                hi_col_of_row[row as usize] = col;
                hi_row_of_col[col as usize] = row;
            }

            let mut out = Vec::new();
            let mut max_k = Vec::new();
            combine_ant_into(
                n,
                &lo_col_of_row,
                &lo_row_of_col,
                &hi_col_of_row,
                &hi_row_of_col,
                &mut max_k,
                &mut out,
            );
            out
        }
    }
}

/// Compacts the columns of a row-slice of a permutation: returns the relabelled
/// slice (columns replaced by their rank) and the sorted list of original columns.
fn compact_columns(rows: &[u32], total_cols: usize) -> (Vec<u32>, Vec<u32>) {
    let mut cols = rows.to_vec();
    cols.sort_unstable();
    // rank[c] = position of column c in `cols` (only meaningful for used columns).
    let mut rank = vec![0u32; total_cols];
    for (i, &c) in cols.iter().enumerate() {
        rank[c as usize] = i as u32;
    }
    let relabelled = rows.iter().map(|&c| rank[c as usize]).collect();
    (relabelled, cols)
}

/// Splits the columns of the permutation `pb` between its rows `..half`
/// (`lo`) and `half..` (`hi`) in linear time: fills `cols` with `lo`'s
/// columns ascending in `[..half]` and `hi`'s in `[half..]`, and `rank` with
/// every column's position among its side's (both are cleared first). `pb` is
/// a permutation of `0..n`, so one ascending scan over the columns, each
/// marked with its side, ranks both sides at once.
fn split_columns_into(pb: &[u32], half: usize, rank: &mut Vec<u32>, cols: &mut Vec<u32>) {
    const LO: u32 = 1;
    rank.clear();
    rank.resize(pb.len(), 0);
    cols.clear();
    cols.resize(pb.len(), 0);
    for &c in &pb[..half] {
        rank[c as usize] = LO;
    }
    let (mut lo, mut hi) = (0, half);
    for (c, r) in rank.iter_mut().enumerate() {
        let is_lo = *r == LO;
        let at = if is_lo { lo } else { hi };
        cols[at] = c as u32;
        *r = (if is_lo { at } else { at - half }) as u32;
        lo += usize::from(is_lo);
        hi += usize::from(!is_lo);
    }
}

/// Combines the two expanded subproblem results with the ant traversal: the
/// reference's combine (the fast path runs [`combine_tagged_into`]).
///
/// `lo_*` / `hi_*` are the row→col and col→row maps of the two n×n sub-permutation
/// matrices (with `u32::MAX` for empty rows/columns). Writes the row→col array of
/// the combined permutation into `out`; `max_k` is scratch (both are cleared and
/// resized here, so pooled buffers need no preparation).
fn combine_ant_into(
    n: usize,
    lo_col_of_row: &[u32],
    lo_row_of_col: &[u32],
    hi_col_of_row: &[u32],
    hi_row_of_col: &[u32],
    max_k: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    // delta(i, k) = #{hi nonzeros with row < i, col < k} − #{lo nonzeros with row ≥ i, col ≥ k}.
    // It is nondecreasing in i and k (Lemmas 3.3/3.4); the demarcation line between
    // delta ≤ 0 (where the `lo` subproblem attains the minimum) and delta > 0 runs
    // monotonically from (n, 0) to (0, n).
    out.clear();
    out.resize(n, NONE);
    // max_k[i] = largest k with delta(i, k) ≤ 0 (filled as the ant passes row i).
    max_k.clear();
    max_k.resize(n + 1, 0);

    let mut i = n; // row boundary, walks n → 0
    let mut k = 0usize; // column boundary, walks 0 → n
    let mut delta: i64 = 0;
    let mut last_was_up = false;

    let place = |out: &mut [u32], row: usize, col: usize| {
        debug_assert_eq!(out[row], NONE, "row {row} assigned twice");
        out[row] = col as u32;
    };

    while i > 0 || k < n {
        // Increment of delta when stepping right across column k.
        let step_right = |i: usize, k: usize| -> i64 {
            let mut d = 0;
            let hr = hi_row_of_col[k];
            if hr != NONE && (hr as usize) < i {
                d += 1;
            }
            let lr = lo_row_of_col[k];
            if lr != NONE && (lr as usize) >= i {
                d += 1;
            }
            d
        };
        let (move_right, step) = if k == n {
            (false, 0)
        } else {
            let step = step_right(i, k);
            (i == 0 || delta + step <= 0, step)
        };

        if move_right {
            debug_assert!(delta + step <= 0, "invariant: ant stays in delta ≤ 0");
            if last_was_up {
                // Up-then-right turn at (i, k): a new nonzero of the product
                // (Lemma 3.9's interesting point).
                place(out, i, k);
            }
            delta += step;
            k += 1;
            last_was_up = false;
        } else {
            // Leaving row i: record the demarcation column for this row.
            max_k[i] = k as u32;
            // Decrement of delta when stepping up across row i - 1.
            let r = i - 1;
            let hc = hi_col_of_row[r];
            if hc != NONE && (hc as usize) < k {
                delta -= 1;
            }
            let lc = lo_col_of_row[r];
            if lc != NONE && (lc as usize) >= k {
                delta -= 1;
            }
            i = r;
            last_was_up = true;
        }
    }
    max_k[0] = n as u32;

    // lo nonzero (r, c) survives iff its whole 2×2 block lies in the delta ≤ 0
    // region, i.e. delta(r+1, c+1) ≤ 0; hi nonzero survives iff delta(r, c) > 0.
    for (r, &c) in lo_col_of_row.iter().enumerate() {
        if c != NONE && c < max_k[r + 1] {
            place(out, r, c as usize);
        }
    }
    for (r, &c) in hi_col_of_row.iter().enumerate() {
        if c != NONE && c > max_k[r] {
            place(out, r, c as usize);
        }
    }

    debug_assert!(
        out.iter().all(|&c| c != NONE),
        "combine produced an empty row"
    );
}

/// Multiplies two sub-permutation matrices (Theorem 1.2's sequential counterpart):
/// pads both operands to square permutation matrices as in §4.1, multiplies with
/// [`mul`], and extracts the relevant block.
pub fn mul_sub(a: &SubPermutationMatrix, b: &SubPermutationMatrix) -> SubPermutationMatrix {
    assert_eq!(
        a.cols_len(),
        b.rows_len(),
        "inner dimensions must agree: {}×{} times {}×{}",
        a.rows_len(),
        a.cols_len(),
        b.rows_len(),
        b.cols_len()
    );
    let (n1, n2, n3) = (a.rows_len(), a.cols_len(), b.cols_len());
    if n2 == 0 {
        return SubPermutationMatrix::zero(n1, n3);
    }

    // Keep only nonzero rows of A and nonzero columns of B (removed rows/columns of
    // the product are necessarily zero and are reinstated at the end).
    let kept_rows_a: Vec<usize> = (0..n1).filter(|&r| a.col_of(r).is_some()).collect();
    let mut kept_cols_b: Vec<usize> = (0..n2).filter_map(|r| b.col_of(r)).collect();
    kept_cols_b.sort_unstable();
    let r1 = kept_rows_a.len();
    let r3 = kept_cols_b.len();
    // Rank of an original B-column among the kept columns.
    let mut col_rank_b = vec![NONE; n3];
    for (i, &c) in kept_cols_b.iter().enumerate() {
        col_rank_b[c] = i as u32;
    }

    // --- Pad A to an n2×n2 permutation: prepend n2 − r1 rows covering the columns
    // of A that no kept row uses. -------------------------------------------------
    let mut col_used_a = vec![false; n2];
    for &r in &kept_rows_a {
        col_used_a[a.col_of(r).unwrap()] = true;
    }
    let empty_cols_a: Vec<usize> = (0..n2).filter(|&c| !col_used_a[c]).collect();
    debug_assert_eq!(empty_cols_a.len(), n2 - r1);
    let mut pa = Vec::with_capacity(n2);
    pa.extend(empty_cols_a.iter().map(|&c| c as u32));
    pa.extend(kept_rows_a.iter().map(|&r| a.col_of(r).unwrap() as u32));

    // --- Pad B to an n2×n2 permutation: append n2 − r3 columns assigned to the rows
    // of B that have no nonzero. ---------------------------------------------------
    let mut pb = Vec::with_capacity(n2);
    let mut next_extra_col = r3 as u32;
    for r in 0..n2 {
        match b.col_of(r) {
            Some(c) => pb.push(col_rank_b[c]),
            None => {
                pb.push(next_extra_col);
                next_extra_col += 1;
            }
        }
    }
    debug_assert_eq!(next_extra_col as usize, n2);

    let pc = mul_rows(&pa, &pb);

    // --- Extract the bottom-left r1 × r3 block and restore original labels. -------
    let mut rows = vec![NONE; n1];
    for (t, &orig_row) in kept_rows_a.iter().enumerate() {
        let c = pc[(n2 - r1) + t] as usize;
        if c < r3 {
            rows[orig_row] = kept_cols_b[c] as u32;
        }
    }
    SubPermutationMatrix::from_rows_unchecked(rows, n3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{mul_dense, mul_dense_sub};
    use rand::prelude::*;

    fn random_permutation(n: usize, rng: &mut StdRng) -> PermutationMatrix {
        let mut v: Vec<u32> = (0..n as u32).collect();
        v.shuffle(rng);
        PermutationMatrix::from_rows(v)
    }

    fn random_sub_permutation(
        rows: usize,
        cols: usize,
        density: f64,
        rng: &mut StdRng,
    ) -> SubPermutationMatrix {
        let k = rows.min(cols);
        let keep = (0..k).filter(|_| rng.gen_bool(density)).count();
        let mut rs: Vec<usize> = (0..rows).collect();
        let mut cs: Vec<usize> = (0..cols).collect();
        rs.shuffle(rng);
        cs.shuffle(rng);
        let mut out = vec![SubPermutationMatrix::NONE; rows];
        for i in 0..keep {
            out[rs[i]] = cs[i] as u32;
        }
        SubPermutationMatrix::from_rows(out, cols)
    }

    #[test]
    fn tiny_cases_match_dense() {
        for n in 1..=4 {
            let perms = all_permutations(n);
            for a in &perms {
                for b in &perms {
                    assert_eq!(mul(a, b), mul_dense(a, b), "n={n}, a={a:?}, b={b:?}");
                }
            }
        }
    }

    fn all_permutations(n: usize) -> Vec<PermutationMatrix> {
        fn rec(cur: &mut Vec<u32>, used: &mut Vec<bool>, out: &mut Vec<PermutationMatrix>) {
            let n = used.len();
            if cur.len() == n {
                out.push(PermutationMatrix::from_rows(cur.clone()));
                return;
            }
            for c in 0..n {
                if !used[c] {
                    used[c] = true;
                    cur.push(c as u32);
                    rec(cur, used, out);
                    cur.pop();
                    used[c] = false;
                }
            }
        }
        let mut out = Vec::new();
        rec(&mut Vec::new(), &mut vec![false; n], &mut out);
        out
    }

    #[test]
    fn random_cases_match_dense() {
        let mut rng = StdRng::seed_from_u64(0xA5A5);
        for n in [5, 8, 13, 21, 40, 64, 100] {
            for _ in 0..8 {
                let a = random_permutation(n, &mut rng);
                let b = random_permutation(n, &mut rng);
                assert_eq!(mul(&a, &b), mul_dense(&a, &b), "n={n}");
            }
        }
    }

    #[test]
    fn identity_neutral_large() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_permutation(257, &mut rng);
        let id = PermutationMatrix::identity(257);
        assert_eq!(mul(&p, &id), p);
        assert_eq!(mul(&id, &p), p);
    }

    #[test]
    fn associativity_on_random_inputs() {
        // ⊡ is associative (it is composition in the seaweed monoid).
        let mut rng = StdRng::seed_from_u64(99);
        for n in [6, 17, 33] {
            let a = random_permutation(n, &mut rng);
            let b = random_permutation(n, &mut rng);
            let c = random_permutation(n, &mut rng);
            let left = mul(&mul(&a, &b), &c);
            let right = mul(&a, &mul(&b, &c));
            assert_eq!(left, right, "n={n}");
        }
    }

    #[test]
    fn sub_permutation_matches_dense() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..40 {
            let n1 = rng.gen_range(1..12);
            let n2 = rng.gen_range(1..12);
            let n3 = rng.gen_range(1..12);
            let a = random_sub_permutation(n1, n2, 0.7, &mut rng);
            let b = random_sub_permutation(n2, n3, 0.7, &mut rng);
            assert_eq!(mul_sub(&a, &b), mul_dense_sub(&a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn sub_permutation_full_permutation_case() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_permutation(31, &mut rng);
        let b = random_permutation(31, &mut rng);
        let c_sub = mul_sub(&a.to_sub(), &b.to_sub());
        assert_eq!(c_sub.as_permutation().unwrap(), mul(&a, &b));
    }

    #[test]
    fn sub_permutation_empty_operands() {
        let a = SubPermutationMatrix::zero(3, 5);
        let b = SubPermutationMatrix::zero(5, 2);
        let c = mul_sub(&a, &b);
        assert_eq!(c.rows_len(), 3);
        assert_eq!(c.cols_len(), 2);
        assert_eq!(c.nonzero_count(), 0);
    }

    #[test]
    fn zero_inner_dimension() {
        let a = SubPermutationMatrix::zero(4, 0);
        let b = SubPermutationMatrix::zero(0, 3);
        let c = mul_sub(&a, &b);
        assert_eq!(c.rows_len(), 4);
        assert_eq!(c.cols_len(), 3);
        assert_eq!(c.nonzero_count(), 0);
    }

    #[test]
    fn workspace_matches_reference_across_sizes() {
        // The arena-backed path must be bit-identical to the allocate-per-level
        // oracle, in particular around the base-case cutoff and one recursion
        // level above it.
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut ws = Workspace::new();
        for n in 0..=2 * HECKE_BASE + 1 {
            for _ in 0..4 {
                let a = random_permutation(n.max(1), &mut rng);
                let b = random_permutation(n.max(1), &mut rng);
                let (pa, pb) = if n == 0 {
                    (&[][..], &[][..])
                } else {
                    (a.rows(), b.rows())
                };
                assert_eq!(ws.mul_rows(pa, pb), mul_rows_reference(pa, pb), "n={n}");
            }
        }
        for n in [100usize, 257, 1000] {
            let a = random_permutation(n, &mut rng);
            let b = random_permutation(n, &mut rng);
            assert_eq!(
                ws.mul_rows(a.rows(), b.rows()),
                mul_rows_reference(a.rows(), b.rows()),
                "n={n}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        // Regression guard for stale-state bugs: one workspace driven across
        // interleaved, differently-sized products must keep every answer
        // correct and return all pooled buffers between instances.
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        let mut ws = Workspace::new();
        for &n in &[513usize, 3, 128, 1, 64, 9, 200, 8, 7, 350, 2] {
            let a = random_permutation(n, &mut rng);
            let b = random_permutation(n, &mut rng);
            assert_eq!(
                ws.mul_rows(a.rows(), b.rows()),
                mul_rows_reference(a.rows(), b.rows()),
                "n={n}"
            );
            assert_eq!(ws.outstanding, 0, "buffers leaked at n={n}");
        }
    }

    #[test]
    fn workspace_recovers_after_unwind() {
        // Simulate a panic that unwound mid-instance: a buffer was taken and
        // never given back, leaving `outstanding` nonzero. The next mul_rows
        // must discard the stale pool and still produce the exact product.
        let mut rng = StdRng::seed_from_u64(0x0DD);
        let mut ws = Workspace::new();
        let leaked = ws.take();
        drop(leaked);
        assert_eq!(ws.outstanding, 1);
        for &n in &[64usize, 7, 300] {
            let a = random_permutation(n, &mut rng);
            let b = random_permutation(n, &mut rng);
            assert_eq!(
                ws.mul_rows(a.rows(), b.rows()),
                mul_rows_reference(a.rows(), b.rows()),
                "n={n}"
            );
            assert_eq!(ws.outstanding, 0, "stale state survived at n={n}");
        }
    }

    #[test]
    fn mul_batch_matches_sequential_loop() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let instances: Vec<(PermutationMatrix, PermutationMatrix)> = [1usize, 8, 33, 100, 64, 257]
            .iter()
            .map(|&n| {
                (
                    random_permutation(n, &mut rng),
                    random_permutation(n, &mut rng),
                )
            })
            .collect();
        let expected: Vec<PermutationMatrix> = instances.iter().map(|(a, b)| mul(a, b)).collect();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| mul_batch(&instances));
            assert_eq!(got, expected, "threads={threads}");
        }
        assert!(mul_batch(&[]).is_empty());
    }

    #[test]
    fn hecke_base_matches_reference() {
        // Every product at or below the cutoff is a run of 0-Hecke
        // compare-exchanges; it must agree with the reference recursion and
        // with the dense (min, +) product.
        let check = |pa: &[u32], pb: &[u32]| {
            let mut out = Vec::new();
            mul_hecke_base(pa, pb, &mut out);
            assert_eq!(out, mul_rows_reference(pa, pb), "pa={pa:?} pb={pb:?}");
            out
        };
        check(&[], &[]);
        for n in 1..=5 {
            let perms = all_permutations(n);
            for a in &perms {
                for b in &perms {
                    let out = check(a.rows(), b.rows());
                    assert_eq!(out, mul_dense(a, b).rows(), "a={a:?} b={b:?}");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        for n in 6..=HECKE_BASE {
            for _ in 0..20 {
                let a = random_permutation(n, &mut rng);
                let b = random_permutation(n, &mut rng);
                check(a.rows(), b.rows());
            }
        }
        // The longest word (the reversal, n(n − 1)/2 swaps) and the empty one.
        let n = HECKE_BASE as u32;
        let reversal: Vec<u32> = (0..n).rev().collect();
        let identity: Vec<u32> = (0..n).collect();
        for _ in 0..4 {
            let b = random_permutation(HECKE_BASE, &mut rng);
            assert_eq!(check(&identity, b.rows()), b.rows());
            check(&reversal, b.rows());
        }
        check(&reversal, &reversal);
        check(&reversal, &identity);
    }

    #[test]
    fn large_random_consistency_with_self_similarity() {
        // Sanity check on a larger size: the product of a permutation with its own
        // inverse under ⊡ is still a valid permutation and matches the dense result.
        let mut rng = StdRng::seed_from_u64(123);
        let a = random_permutation(200, &mut rng);
        let b = a.inverse();
        assert_eq!(mul(&a, &b), mul_dense(&a, &b));
    }
}
