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

use crate::matrix::{PermutationMatrix, SubPermutationMatrix};
use rayon::prelude::*;
use std::cell::RefCell;

const NONE: u32 = u32::MAX;

/// Subproblems of at most this size are solved directly through the dense
/// distribution-matrix (min, +) product instead of recursing further. The
/// product `⊡` is unique, so the base case is bit-identical to full recursion;
/// it exists because the deepest recursion levels are dominated by bookkeeping,
/// not by work.
const DENSE_BASE: usize = 8;

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
/// allocation per call). The four n-sized expansion maps of a combine step are
/// carved out of a single pooled buffer (struct-of-arrays, one take instead of
/// four `vec![NONE; n]`).
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
        if n <= DENSE_BASE {
            mul_dense_base(pa, pb, out);
            return;
        }
        let half = n / 2;

        // --- Split A by columns of the middle dimension. -----------------------
        // Rows of A whose nonzero lies in columns [0, half) form the `lo`
        // subproblem; the rest form `hi`. Row order is preserved (compaction by
        // rank), columns are relabelled to 0..half / 0..n-half.
        let mut rows_lo = self.take();
        let mut rows_hi = self.take();
        let mut a_lo = self.take();
        let mut a_hi = self.take();
        for (i, &c) in pa.iter().enumerate() {
            if (c as usize) < half {
                rows_lo.push(i as u32);
                a_lo.push(c);
            } else {
                rows_hi.push(i as u32);
                a_hi.push(c - half as u32);
            }
        }

        // --- Split B by rows of the middle dimension. --------------------------
        // The first `half` rows of B form `lo`; their columns are compacted by
        // rank among themselves (and analogously for `hi`).
        let mut b_lo = self.take();
        let mut cols_lo = self.take();
        let mut b_hi = self.take();
        let mut cols_hi = self.take();
        {
            let mut rank = self.take();
            rank.resize(n, 0);
            compact_columns_into(&pb[..half], &mut rank, &mut b_lo, &mut cols_lo);
            compact_columns_into(&pb[half..], &mut rank, &mut b_hi, &mut cols_hi);
            self.give(rank);
        }

        // Recurse, releasing each child's inputs as soon as it returns so the
        // pool's peak stays O(log n) buffers.
        let mut c_lo = self.take();
        self.mul_rec(&a_lo, &b_lo, &mut c_lo);
        self.give(a_lo);
        self.give(b_lo);
        let mut c_hi = self.take();
        self.mul_rec(&a_hi, &b_hi, &mut c_hi);
        self.give(a_hi);
        self.give(b_hi);

        // --- Expand the compacted results back to n×n sub-permutations. --------
        // All four row→col / col→row maps live in one pooled 4n buffer.
        let mut maps = self.take();
        maps.resize(4 * n, NONE);
        {
            let (lo_maps, hi_maps) = maps.split_at_mut(2 * n);
            let (lo_col_of_row, lo_row_of_col) = lo_maps.split_at_mut(n);
            let (hi_col_of_row, hi_row_of_col) = hi_maps.split_at_mut(n);
            for (r, &c) in c_lo.iter().enumerate() {
                let row = rows_lo[r];
                let col = cols_lo[c as usize];
                lo_col_of_row[row as usize] = col;
                lo_row_of_col[col as usize] = row;
            }
            for (r, &c) in c_hi.iter().enumerate() {
                let row = rows_hi[r];
                let col = cols_hi[c as usize];
                hi_col_of_row[row as usize] = col;
                hi_row_of_col[col as usize] = row;
            }
        }
        self.give(rows_lo);
        self.give(rows_hi);
        self.give(cols_lo);
        self.give(cols_hi);
        self.give(c_lo);
        self.give(c_hi);

        {
            let mut max_k = self.take();
            let (lo_maps, hi_maps) = maps.split_at(2 * n);
            let (lo_col_of_row, lo_row_of_col) = lo_maps.split_at(n);
            let (hi_col_of_row, hi_row_of_col) = hi_maps.split_at(n);
            combine_ant_into(
                n,
                lo_col_of_row,
                lo_row_of_col,
                hi_col_of_row,
                hi_row_of_col,
                &mut max_k,
                out,
            );
            self.give(max_k);
        }
        self.give(maps);
    }
}

/// Dense base case: `P_A ⊡ P_B` for `n ≤ DENSE_BASE` through the explicit
/// distribution matrices and the (min, +) product, entirely on the stack.
/// The `⊡` product is unique, so this is bit-identical to the recursion.
fn mul_dense_base(pa: &[u32], pb: &[u32], out: &mut Vec<u32>) {
    let n = pa.len();
    if n == 0 {
        return;
    }
    const W: usize = DENSE_BASE + 1;
    debug_assert!(n < W);
    let w = n + 1;
    // d(i, j) = #{nonzeros with row ≥ i, col < j}; row n and column 0 are zero.
    let mut da = [0u32; W * W];
    let mut db = [0u32; W * W];
    for (d, p) in [(&mut da, pa), (&mut db, pb)] {
        for i in (0..n).rev() {
            let c = p[i] as usize;
            for j in 1..=n {
                d[i * w + j] = d[(i + 1) * w + j] + u32::from(c < j);
            }
        }
    }
    // dc(i, k) = min_j da(i, j) + db(j, k); nonzeros via finite differences.
    let mut dc = [0u32; W * W];
    for i in 0..=n {
        for k in 0..=n {
            let mut best = u32::MAX;
            for j in 0..=n {
                best = best.min(da[i * w + j] + db[j * w + k]);
            }
            dc[i * w + k] = best;
        }
    }
    out.resize(n, NONE);
    for i in 0..n {
        for k in 0..n {
            if dc[i * w + k + 1] + dc[(i + 1) * w + k]
                == dc[i * w + k] + dc[(i + 1) * w + k + 1] + 1
            {
                out[i] = k as u32;
                break;
            }
        }
    }
    debug_assert!(out.iter().all(|&c| c != NONE));
}

/// The allocate-per-level reference implementation of `P_A ⊡ P_B`, kept verbatim
/// as the differential oracle for the arena-backed fast path ([`mul_rows`]):
/// `exp_kernel_bench` and the proptests in `tests/properties.rs` assert the two
/// are bit-identical.
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
    let mut rank = vec![0u32; total_cols];
    let mut relabelled = Vec::new();
    let mut cols = Vec::new();
    compact_columns_into(rows, &mut rank, &mut relabelled, &mut cols);
    (relabelled, cols)
}

/// [`compact_columns`] writing into caller-provided buffers. `rank` must have
/// length ≥ the column universe; only entries for used columns are written
/// before being read, so it needs no clearing between calls.
fn compact_columns_into(
    rows: &[u32],
    rank: &mut [u32],
    relabelled: &mut Vec<u32>,
    cols: &mut Vec<u32>,
) {
    cols.clear();
    cols.extend_from_slice(rows);
    cols.sort_unstable();
    // rank[c] = position of column c in `cols` (only meaningful for used columns).
    for (i, &c) in cols.iter().enumerate() {
        rank[c as usize] = i as u32;
    }
    relabelled.clear();
    relabelled.extend(rows.iter().map(|&c| rank[c as usize]));
}

/// Combines the two expanded subproblem results with the ant traversal.
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
        // oracle, in particular around the dense base-case cutoff.
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut ws = Workspace::new();
        for n in 0..=40 {
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
    fn dense_base_matches_reference_exhaustively() {
        // Every permutation pair at and below the cutoff goes through the dense
        // (min, +) base case; it must agree with the reference recursion.
        for n in 1..=4 {
            let perms = all_permutations(n);
            for a in &perms {
                for b in &perms {
                    let mut out = Vec::new();
                    mul_dense_base(a.rows(), b.rows(), &mut out);
                    assert_eq!(out, mul_rows_reference(a.rows(), b.rows()));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        for n in 5..=DENSE_BASE {
            for _ in 0..20 {
                let a = random_permutation(n, &mut rng);
                let b = random_permutation(n, &mut rng);
                let mut out = Vec::new();
                mul_dense_base(a.rows(), b.rows(), &mut out);
                assert_eq!(out, mul_rows_reference(a.rows(), b.rows()), "n={n}");
            }
        }
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
