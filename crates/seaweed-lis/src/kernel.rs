//! The semi-local seaweed kernel `P_{X,Y}` and its algebra.
//!
//! For strings `X` (length `m`) and `Y` (length `n`), the *seaweed braid* of the
//! alignment grid defines a permutation of size `m + n` mapping the `m + n`
//! seaweeds' entry points (left boundary + top boundary) to their exit points
//! (bottom boundary + right boundary). This permutation — the *kernel* — encodes the
//! whole semi-local LCS information of the pair: the LCS of `X` against any window
//! `Y[l..r)` can be read off with a single dominance count (see
//! [`SeaweedKernel::lcs_window`]).
//!
//! Index conventions (0-based everywhere):
//!
//! * entry `e < m`   — left boundary, rows numbered **bottom to top** (`e = m-1-row`),
//! * entry `m + c`   — top boundary, column `c`, left to right,
//! * exit  `x < n`   — bottom boundary, column `x`, left to right,
//! * exit  `n + e`   — right boundary, rows numbered **bottom to top** (`e = m-1-row`).
//!
//! Under these conventions the concatenation law is exactly the implicit unit-Monge
//! multiplication of the paper:
//! `P_{X, Y₁Y₂} = (P_{X,Y₁} ⊕ I_{n₂}) ⊡ (I_{n₁} ⊕ P_{X,Y₂})`
//! (see [`compose_horizontal`]), which is why Theorem 1.1/1.2 immediately yield
//! parallel LIS and LCS algorithms.
//!
//! # Combing fast: the comparison rule and the word-level braid invariant
//!
//! [`SeaweedKernel::comb`] materializes the full crossing history (a triangular
//! bitset over unordered seaweed pairs) and consults it at every cell — the
//! textbook construction, kept as the differential oracle. The production path,
//! [`SeaweedKernel::comb_bitparallel`], exploits a structural fact of the braid:
//! two seaweeds meeting at a cell (the horizontal one carrying id `h`, the
//! vertical one id `v`) have crossed before **iff `h > v`**. Seaweed ids equal
//! counterclockwise entry positions, seaweed paths are monotone (down/right
//! only), and a pair physically crosses at most once, so the pair has crossed
//! exactly when its current anti-diagonal order disagrees with its entry order.
//! The per-cell update therefore needs no history at all:
//! *swap ids iff `x[i] == y[j] || h > v`*. On top of that comparison rule the
//! fast comb packs the match structure of 64 columns into one `u64` word and
//! keeps, per word, the minimum resident vertical id. A whole word is
//! *transparent* to the sweeping seaweed — no match bit and minimum id `≥ h`
//! means no cell in it can swap — and is skipped with two word-level
//! comparisons; only opaque words are walked cell by cell.

use monge::dominance::DominanceCounter;
use monge::{mul, PermutationMatrix};
use rayon::prelude::*;

/// The semi-local kernel of a pair of strings (a permutation of size `m + n`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeaweedKernel {
    m: usize,
    n: usize,
    perm: PermutationMatrix,
}

impl SeaweedKernel {
    /// Builds a kernel from raw parts.
    ///
    /// # Panics
    /// Panics if the permutation size is not `m + n`.
    pub fn from_parts(m: usize, n: usize, perm: PermutationMatrix) -> Self {
        assert_eq!(
            perm.size(),
            m + n,
            "kernel permutation must have size m + n"
        );
        Self { m, n, perm }
    }

    /// Computes the kernel of `(x, y)` by direct seaweed combing: `O(mn)` time,
    /// `(m+n)(m+n−1)/2` bits for the crossing history. This is the ground-truth
    /// construction and the differential oracle for the fast path
    /// ([`SeaweedKernel::comb_bitparallel`]); the divide-and-conquer
    /// constructions in [`crate::lis`] produce identical kernels using `⊡`.
    pub fn comb(x: &[u32], y: &[u32]) -> Self {
        let (m, n) = (x.len(), y.len());
        let total = m + n;
        // crossed records, per unordered pair {a, b}, whether a and b have crossed.
        let mut crossed = CrossingSet::new(total);

        // Seaweed ids equal their entry index: left row i enters as id m-1-i,
        // top column j enters as id m + j.
        let mut col_cur: Vec<u32> = (0..n as u32).map(|j| m as u32 + j).collect();
        let mut exits = vec![0u32; total];

        for i in 0..m {
            let mut row_cur = (m - 1 - i) as u32;
            for j in 0..n {
                let top = col_cur[j];
                let left = row_cur;
                let is_match = x[i] == y[j];
                let cross = !is_match && !crossed.contains(top, left);
                if cross {
                    crossed.insert(top, left);
                    // top continues down, left continues right: nothing to swap.
                } else {
                    // Bounce: the top seaweed turns right, the left seaweed turns down.
                    col_cur[j] = left;
                    row_cur = top;
                }
            }
            // row_cur exits through the right boundary of row i.
            exits[row_cur as usize] = (n + (m - 1 - i)) as u32;
        }
        for (j, &id) in col_cur.iter().enumerate() {
            exits[id as usize] = j as u32;
        }
        Self {
            m,
            n,
            perm: PermutationMatrix::from_rows(exits),
        }
    }

    /// Bit-parallel comb: computes exactly the kernel of [`SeaweedKernel::comb`]
    /// without any crossing history, in `O(m·n/64 + (opaque cells))` time and
    /// `O(m + n)` space: every row scans the `n/64` resident-minimum words, but
    /// a transparent word costs one comparison instead of 64 cell updates.
    ///
    /// The per-cell rule is the comparison form of combing (see the module docs):
    /// the sweeping seaweed id `h` and the resident column id `v[j]` swap iff
    /// `x[i] == y[j] || h > v[j]`. The match structure of `y` is packed 64
    /// columns per `u64` word, and each word carries a running minimum of its
    /// resident ids. The **word-level braid invariant** is that a word with no
    /// match bit whose minimum resident id is `≥ h` is *transparent*: the
    /// sweeping seaweed crosses all 64 columns without a single swap, so the
    /// word's state is untouched and `h` is unchanged. Both conditions are one
    /// word-level comparison each (`mbits == 0` and `wmin[w] >= h`), so a
    /// transparent word costs `O(1)` instead of 64 cell updates; only opaque
    /// words are walked cell by cell (refreshing their minimum in the same
    /// pass). On the LIS workloads of [`crate::lis`] the vast majority of words
    /// are transparent, which is where the measured speedup of
    /// `exp_kernel_bench` comes from.
    pub fn comb_bitparallel(x: &[u32], y: &[u32]) -> Self {
        let (m, n) = (x.len(), y.len());
        let total = m + n;
        let words = n.div_ceil(64);

        // Dense alphabet of y plus CSR lists of each symbol's match columns
        // (ascending), so a row's match bits are gathered word by word without
        // a quadratic per-symbol bitmask table.
        let mut symbols: Vec<u32> = y.to_vec();
        symbols.sort_unstable();
        symbols.dedup();
        let mut starts = vec![0u32; symbols.len() + 1];
        for &v in y {
            let s = symbols.partition_point(|&u| u < v);
            starts[s + 1] += 1;
        }
        for s in 0..symbols.len() {
            starts[s + 1] += starts[s];
        }
        let mut match_cols = vec![0u32; n];
        let mut cursor: Vec<u32> = starts[..symbols.len()].to_vec();
        for (j, &v) in y.iter().enumerate() {
            let s = symbols.partition_point(|&u| u < v);
            match_cols[cursor[s] as usize] = j as u32;
            cursor[s] += 1;
        }

        // v[j]: id of the seaweed currently occupying column j (init m + j).
        let mut v: Vec<u32> = (0..n as u32).map(|j| m as u32 + j).collect();
        // wmin[w]: minimum resident id over word w's columns.
        let mut wmin: Vec<u32> = (0..words).map(|w| (m + 64 * w) as u32).collect();
        let mut exits = vec![0u32; total];

        for i in 0..m {
            let mut h = (m - 1 - i) as u32;
            let (mut p, pend) = {
                let s = symbols.partition_point(|&u| u < x[i]);
                if s < symbols.len() && symbols[s] == x[i] {
                    (starts[s] as usize, starts[s + 1] as usize)
                } else {
                    (0, 0)
                }
            };
            for (w, wm) in wmin.iter_mut().enumerate() {
                let base = w * 64;
                let word_end = (base + 64).min(n);
                // Gather this row's match bits for the word.
                let mut mbits = 0u64;
                while p < pend && (match_cols[p] as usize) < word_end {
                    mbits |= 1u64 << (match_cols[p] as usize - base);
                    p += 1;
                }
                // Word-level braid invariant: transparent word, skip in O(1).
                if mbits == 0 && *wm >= h {
                    continue;
                }
                let mut newmin = u32::MAX;
                for (j, vj) in v[base..word_end].iter_mut().enumerate() {
                    let t = *vj;
                    if (mbits >> j) & 1 == 1 || h > t {
                        // Bounce, exactly as in `comb`.
                        *vj = h;
                        h = t;
                    }
                    newmin = newmin.min(*vj);
                }
                *wm = newmin;
            }
            exits[h as usize] = (n + (m - 1 - i)) as u32;
        }
        for (j, &id) in v.iter().enumerate() {
            exits[id as usize] = j as u32;
        }
        Self {
            m,
            n,
            perm: PermutationMatrix::from_rows(exits),
        }
    }

    /// Budget-bounded streaming comb: combs `y` in column chunks of at most
    /// `max_cols` columns and composes the chunk kernels left to right with the
    /// concatenation law `P_{X, Y₁Y₂} = (P₁ ⊕ I) ⊡ (I ⊕ P₂)`.
    ///
    /// The reference comb materializes a crossing bitset of `(m + n)²/2` bits;
    /// the streamed variant's modeled footprint is only `(m + max_cols)²/2`
    /// bits per chunk, so a machine with a word budget `s` can comb arbitrarily
    /// long `y` against a short `x` without ever holding the full quadratic
    /// history. Each chunk is combed with the bit-parallel fast path
    /// ([`SeaweedKernel::comb_bitparallel`]); the result is **identical** to
    /// [`SeaweedKernel::comb`] (the composition law is exact).
    pub fn comb_streamed(x: &[u32], y: &[u32], max_cols: usize) -> Self {
        let chunk = max_cols.max(1);
        if y.len() <= chunk {
            return Self::comb_bitparallel(x, y);
        }
        y.chunks(chunk)
            .map(|block| Self::comb_bitparallel(x, block))
            .reduce(|acc, next| compose_horizontal(&acc, &next))
            .expect("y has at least one chunk")
    }

    /// Parallel block combing: splits `Y` into one block per thread, combs the
    /// blocks concurrently, and merges the block kernels left to right with
    /// the concatenation law `P_{X, Y₁Y₂} = (P₁ ⊕ I) ⊡ (I ⊕ P₂)`.
    ///
    /// The result is **identical** to [`SeaweedKernel::comb`] (the composition
    /// law is exact, not approximate — see the `composition_matches_direct_combing`
    /// test), so this is a drop-in for large inputs. With one thread, or below
    /// the block threshold, it falls back to streamed combing.
    pub fn comb_par(x: &[u32], y: &[u32]) -> Self {
        // Below this many columns per block the O(mn) combing is cheaper than
        // the O((m+n) log(m+n)) merge multiplications parallel blocking saves.
        const MIN_BLOCK: usize = 256;
        // Each block is combed in streamed chunks of at most this many
        // columns, capping the per-chunk footprint however long `y` is.
        const MAX_COMB_COLS: usize = 4096;
        let threads = rayon::current_num_threads();
        if threads <= 1 || y.len() < 2 * MIN_BLOCK {
            return Self::comb_streamed(x, y, MAX_COMB_COLS);
        }
        let block = y.len().div_ceil(threads).max(MIN_BLOCK);
        let blocks: Vec<&[u32]> = y.chunks(block).collect();
        let kernels: Vec<SeaweedKernel> = blocks
            .into_par_iter()
            .map(|b| Self::comb_streamed(x, b, MAX_COMB_COLS))
            .collect();
        kernels
            .into_iter()
            .reduce(|acc, next| compose_horizontal(&acc, &next))
            .expect("y has at least one block")
    }

    /// Length of `X`.
    pub fn x_len(&self) -> usize {
        self.m
    }

    /// Length of `Y`.
    pub fn y_len(&self) -> usize {
        self.n
    }

    /// The underlying permutation (entry → exit).
    pub fn permutation(&self) -> &PermutationMatrix {
        &self.perm
    }

    /// Number of entries a level checkpoint of this kernel ships: the full
    /// entry → exit permutation, `m + n` words. A merge-tree node's checkpoint
    /// is this plus its sorted value set, which is what the fault-tolerant
    /// pipelines charge when replicating a level (`costs::CHECKPOINT`) or
    /// restoring a lost shard from its replica (`costs::RESTORE`).
    pub fn checkpoint_entries(&self) -> usize {
        self.perm.size()
    }

    /// Exit point of the seaweed entering at `entry`.
    pub fn exit_of(&self, entry: usize) -> usize {
        self.perm.col_of(entry)
    }

    /// LCS of `X` against the window `Y[l..r)`, by counting the seaweeds that both
    /// enter the top boundary at column ≥ `l` and leave the bottom boundary at
    /// column < `r`:
    ///
    /// `LCS(X, Y[l..r)) = (r − l) − #{top-entry ≥ l, bottom-exit < r}`.
    ///
    /// `O(m + n)` per query; use [`SemiLocalQueries`] for many queries.
    pub fn lcs_window(&self, l: usize, r: usize) -> usize {
        assert!(l <= r && r <= self.n, "window [{l}, {r}) out of range");
        let crossing = (self.m + l..self.m + self.n)
            .filter(|&e| self.perm.col_of(e) < r)
            .count();
        (r - l) - crossing
    }

    /// LCS of the *substring* `X[lo..hi)` against the whole `Y` — the transposed
    /// counterpart of [`Self::lcs_window`], by counting the seaweeds that enter
    /// the left boundary at a row ≥ `lo` and leave the right boundary at a row
    /// < `hi`:
    ///
    /// `LCS(X[lo..hi), Y) = (hi − lo) − #{left-entry row ≥ lo, right-exit row < hi}`.
    ///
    /// (Seaweed paths are monotone — down and right only — so a left-entering
    /// seaweed exits right at a row no smaller than its entry row, which is what
    /// makes the single dominance count exact.) For the LIS kernel, where `X` is
    /// the sorted value alphabet, this answers *value-range-restricted* LIS
    /// queries. `O(m)` per query; the witness traceback splits on the batched
    /// forms [`Self::x_prefix_lcs`] / [`Self::x_suffix_lcs`], of which this is
    /// the single-window special case (`x_suffix_lcs(lo, hi)[0]`).
    pub fn lcs_x_window(&self, lo: usize, hi: usize) -> usize {
        self.x_suffix_lcs(lo, hi)[0]
    }

    /// All prefix answers of one X window in a single `O(m)` pass: returns `v`
    /// of length `hi − lo + 1` with `v[d] = LCS(X[lo..lo+d), Y)`.
    ///
    /// This is one half of the Hirschberg-style split the witness traceback
    /// performs at a merge node (the other half is [`Self::x_suffix_lcs`] on the
    /// sibling): growing the window by one row raises the LCS by one unless the
    /// seaweed exiting right at the new row entered left at a row ≥ `lo`.
    pub fn x_prefix_lcs(&self, lo: usize, hi: usize) -> Vec<usize> {
        assert!(
            lo <= hi && hi <= self.m,
            "X window [{lo}, {hi}) out of range (m = {})",
            self.m
        );
        // Entry row (when entered from the left) of the seaweed exiting right
        // at each row; u32::MAX marks rows whose right exit is fed from the top.
        let mut left_source = vec![u32::MAX; self.m];
        for e in 0..self.m {
            let exit = self.perm.col_of(e);
            if exit >= self.n {
                left_source[self.m - 1 - (exit - self.n)] = (self.m - 1 - e) as u32;
            }
        }
        let mut out = Vec::with_capacity(hi - lo + 1);
        let mut f = 0usize;
        out.push(f);
        for row in lo..hi {
            let crossed = left_source[row] != u32::MAX && left_source[row] as usize >= lo;
            f += 1 - usize::from(crossed);
            out.push(f);
        }
        out
    }

    /// All suffix answers of one X window in a single `O(m)` pass: returns `v`
    /// of length `hi − lo + 1` with `v[d] = LCS(X[lo+d..hi), Y)`.
    pub fn x_suffix_lcs(&self, lo: usize, hi: usize) -> Vec<usize> {
        assert!(
            lo <= hi && hi <= self.m,
            "X window [{lo}, {hi}) out of range (m = {})",
            self.m
        );
        let mut out = vec![0usize; hi - lo + 1];
        let mut g = 0usize;
        for row in (lo..hi).rev() {
            // Shrinking the window start to `row` adds one row; it contributes
            // unless its seaweed passes left → right inside the window.
            let exit = self.perm.col_of(self.m - 1 - row);
            let crossed = exit >= self.n && self.m - 1 - (exit - self.n) < hi;
            g += 1 - usize::from(crossed);
            out[row - lo] = g;
        }
        out
    }

    /// Builds an indexed query structure answering [`Self::lcs_window`] in
    /// `O(log² n)` per query.
    pub fn queries(&self) -> SemiLocalQueries {
        let points: Vec<(u32, u32)> = (self.m..self.m + self.n)
            .filter_map(|e| {
                let exit = self.perm.col_of(e);
                (exit < self.n).then_some(((e - self.m) as u32, exit as u32))
            })
            .collect();
        SemiLocalQueries {
            n: self.n,
            counter: DominanceCounter::new(&points),
        }
    }

    /// Inflates a kernel computed over a *sub-alphabet* of `X` back to the full
    /// alphabet.
    ///
    /// `self` must be the kernel of `(identity over the |values| present symbols, Y)`;
    /// `values` lists, in increasing order, which rows of the full `m_big`-row grid
    /// those symbols correspond to. Rows of the full grid that carry no symbol have
    /// no match cells, so their seaweed passes straight from the left boundary to the
    /// right boundary and every other seaweed is unaffected.
    pub fn inflate_rows(&self, values: &[usize], m_big: usize) -> Self {
        assert_eq!(values.len(), self.m, "values must list every present row");
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "values must be increasing"
        );
        assert!(values.last().is_none_or(|&v| v < m_big));
        let (m_small, n) = (self.m, self.n);
        let mut exits = vec![u32::MAX; m_big + n];

        // Small right-exit index → big right-exit index.
        let map_exit = |exit: usize| -> u32 {
            if exit < n {
                exit as u32
            } else {
                let small_row = m_small - 1 - (exit - n);
                let big_row = values[small_row];
                (n + (m_big - 1 - big_row)) as u32
            }
        };

        // Present left entries and all top entries follow the small kernel.
        for small_row in 0..m_small {
            let big_row = values[small_row];
            let small_entry = m_small - 1 - small_row;
            let big_entry = m_big - 1 - big_row;
            exits[big_entry] = map_exit(self.perm.col_of(small_entry));
        }
        for c in 0..n {
            exits[m_big + c] = map_exit(self.perm.col_of(m_small + c));
        }
        // Absent rows pass straight through.
        let present: std::collections::HashSet<usize> = values.iter().copied().collect();
        for row in 0..m_big {
            if !present.contains(&row) {
                exits[m_big - 1 - row] = (n + (m_big - 1 - row)) as u32;
            }
        }
        debug_assert!(exits.iter().all(|&e| e != u32::MAX));
        Self {
            m: m_big,
            n,
            perm: PermutationMatrix::from_rows(exits),
        }
    }
}

/// Builds the two padded permutation matrices whose implicit unit-Monge product is
/// the kernel of the concatenation: `P_{X,Y₁Y₂} = (P₁ ⊕ I_{n₂}) ⊡ (I_{n₁} ⊕ P₂)`.
///
/// Exposed separately so that callers can route the `⊡` through a different
/// multiplication engine (the MPC algorithm of `monge-mpc` in particular).
pub fn compose_operands(
    k1: &SeaweedKernel,
    k2: &SeaweedKernel,
) -> (PermutationMatrix, PermutationMatrix) {
    assert_eq!(k1.m, k2.m, "both kernels must share the same X");
    let (m, n1, n2) = (k1.m, k1.n, k2.n);
    let big = m + n1 + n2;

    // P₁ ⊕ I_{n₂}: the first grid transforms {left, top₁} and leaves top₂ untouched.
    let mut p1 = vec![0u32; big];
    for e in 0..m + n1 {
        p1[e] = k1.perm.col_of(e) as u32;
    }
    for c in 0..n2 {
        p1[m + n1 + c] = (n1 + m + c) as u32;
    }
    // I_{n₁} ⊕ P₂: the second grid leaves bottom₁ untouched and transforms {mid, top₂}.
    let mut p2 = vec![0u32; big];
    for (b, item) in p2.iter_mut().enumerate().take(n1) {
        *item = b as u32;
    }
    for e in 0..m + n2 {
        p2[n1 + e] = (n1 + k2.perm.col_of(e)) as u32;
    }
    (
        PermutationMatrix::from_rows(p1),
        PermutationMatrix::from_rows(p2),
    )
}

/// Wraps the product of [`compose_operands`] back into a kernel for `Y₁ ◦ Y₂`.
pub fn compose_from_product(
    k1: &SeaweedKernel,
    k2: &SeaweedKernel,
    product: PermutationMatrix,
) -> SeaweedKernel {
    assert_eq!(product.size(), k1.m + k1.n + k2.n);
    SeaweedKernel {
        m: k1.m,
        n: k1.n + k2.n,
        perm: product,
    }
}

/// Horizontal composition: the kernel of `(X, Y₁ ◦ Y₂)` from the kernels of
/// `(X, Y₁)` and `(X, Y₂)`, via a single implicit unit-Monge multiplication.
pub fn compose_horizontal(k1: &SeaweedKernel, k2: &SeaweedKernel) -> SeaweedKernel {
    let (p1, p2) = compose_operands(k1, k2);
    compose_from_product(k1, k2, mul(&p1, &p2))
}

/// Indexed semi-local query structure produced by [`SeaweedKernel::queries`].
#[derive(Clone, Debug)]
pub struct SemiLocalQueries {
    n: usize,
    counter: DominanceCounter,
}

impl SemiLocalQueries {
    /// LCS of `X` against `Y[l..r)` in `O(log² n)`.
    pub fn lcs_window(&self, l: usize, r: usize) -> usize {
        assert!(l <= r && r <= self.n, "window [{l}, {r}) out of range");
        let crossing = self.counter.count_row_ge_col_lt(l as u32, r as u32);
        (r - l) - crossing
    }

    /// Length of `Y`.
    pub fn y_len(&self) -> usize {
        self.n
    }
}

/// Dense bitset recording which unordered seaweed pairs have crossed.
///
/// Pairs are stored triangularly — entry `(lo, hi)` with `lo < hi` lives at bit
/// `hi(hi−1)/2 + lo` — so the set holds `total(total−1)/2` bits, half of the
/// naive `total²` square layout. Seaweed ids are distinct, so the diagonal never
/// occurs.
struct CrossingSet {
    total: usize,
    bits: Vec<u64>,
}

impl CrossingSet {
    fn new(total: usize) -> Self {
        let pairs = total * total.saturating_sub(1) / 2;
        let words = pairs.div_ceil(64);
        Self {
            total,
            bits: vec![0; words.max(1)],
        }
    }

    fn index(&self, a: u32, b: u32) -> usize {
        debug_assert_ne!(a, b, "a seaweed never crosses itself");
        let (lo, hi) = if a < b {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        debug_assert!(hi < self.total);
        hi * (hi - 1) / 2 + lo
    }

    fn contains(&self, a: u32, b: u32) -> bool {
        let i = self.index(a, b);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, a: u32, b: u32) {
        let i = self.index(a, b);
        self.bits[i / 64] |= 1 << (i % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::lcs_length_dp;
    use rand::prelude::*;

    fn random_string(len: usize, alphabet: u32, rng: &mut StdRng) -> Vec<u32> {
        (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
    }

    #[test]
    fn kernel_is_a_permutation_of_size_m_plus_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = random_string(7, 3, &mut rng);
        let y = random_string(11, 3, &mut rng);
        let k = SeaweedKernel::comb(&x, &y);
        assert_eq!(k.permutation().size(), 18);
        assert_eq!(k.x_len(), 7);
        assert_eq!(k.y_len(), 11);
    }

    #[test]
    fn window_queries_match_dp_lcs() {
        // The defining semi-local property of the kernel.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..25 {
            let m = rng.gen_range(1..12);
            let n = rng.gen_range(1..14);
            let alphabet = rng.gen_range(2..5);
            let x = random_string(m, alphabet, &mut rng);
            let y = random_string(n, alphabet, &mut rng);
            let k = SeaweedKernel::comb(&x, &y);
            let q = k.queries();
            for l in 0..=n {
                for r in l..=n {
                    let expected = lcs_length_dp(&x, &y[l..r]);
                    assert_eq!(k.lcs_window(l, r), expected, "x={x:?} y={y:?} [{l},{r})");
                    assert_eq!(q.lcs_window(l, r), expected);
                }
            }
        }
    }

    #[test]
    fn x_window_queries_match_dp_lcs() {
        // The transposed semi-local family: windows of X against the whole Y,
        // including the batched prefix/suffix forms used by the witness split.
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..25 {
            let m = rng.gen_range(1..12);
            let n = rng.gen_range(1..14);
            let alphabet = rng.gen_range(2..5);
            let x = random_string(m, alphabet, &mut rng);
            let y = random_string(n, alphabet, &mut rng);
            let k = SeaweedKernel::comb(&x, &y);
            for lo in 0..=m {
                for hi in lo..=m {
                    let expected = lcs_length_dp(&x[lo..hi], &y);
                    assert_eq!(
                        k.lcs_x_window(lo, hi),
                        expected,
                        "x={x:?} y={y:?} [{lo},{hi})"
                    );
                }
                let prefixes = k.x_prefix_lcs(lo, m);
                let suffixes = k.x_suffix_lcs(lo, m);
                for d in 0..=m - lo {
                    assert_eq!(prefixes[d], lcs_length_dp(&x[lo..lo + d], &y));
                    assert_eq!(suffixes[d], lcs_length_dp(&x[lo + d..m], &y));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "X window")]
    fn x_window_out_of_range_panics() {
        let k = SeaweedKernel::comb(&[0, 1], &[1, 0]);
        let _ = k.lcs_x_window(1, 3);
    }

    #[test]
    fn empty_windows_and_full_window() {
        let x = vec![0u32, 1, 2];
        let y = vec![2u32, 0, 1, 2];
        let k = SeaweedKernel::comb(&x, &y);
        assert_eq!(k.lcs_window(2, 2), 0);
        assert_eq!(k.lcs_window(0, 4), lcs_length_dp(&x, &y));
    }

    #[test]
    fn composition_matches_direct_combing() {
        // P_{X, Y₁Y₂} = (P_{X,Y₁} ⊕ I) ⊡ (I ⊕ P_{X,Y₂})
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let m = rng.gen_range(1..9);
            let n1 = rng.gen_range(1..9);
            let n2 = rng.gen_range(1..9);
            let alphabet = rng.gen_range(2..5);
            let x = random_string(m, alphabet, &mut rng);
            let y1 = random_string(n1, alphabet, &mut rng);
            let y2 = random_string(n2, alphabet, &mut rng);
            let k1 = SeaweedKernel::comb(&x, &y1);
            let k2 = SeaweedKernel::comb(&x, &y2);
            let composed = compose_horizontal(&k1, &k2);
            let y: Vec<u32> = y1.iter().chain(y2.iter()).copied().collect();
            let direct = SeaweedKernel::comb(&x, &y);
            assert_eq!(composed, direct, "x={x:?} y1={y1:?} y2={y2:?}");
        }
    }

    #[test]
    fn comb_streamed_equals_direct_combing() {
        // Across chunk sizes (smaller than, equal to, larger than |y|) the
        // streamed composition must reproduce the direct comb exactly.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let m = rng.gen_range(1..10);
            let n = rng.gen_range(1..40);
            let alphabet = rng.gen_range(2..6);
            let x = random_string(m, alphabet, &mut rng);
            let y = random_string(n, alphabet, &mut rng);
            let direct = SeaweedKernel::comb(&x, &y);
            for chunk in [1usize, 3, 7, n, n + 5] {
                assert_eq!(
                    SeaweedKernel::comb_streamed(&x, &y, chunk),
                    direct,
                    "chunk={chunk} x={x:?} y={y:?}"
                );
            }
        }
    }

    #[test]
    fn comb_bitparallel_equals_reference_comb() {
        // The fast path must be bit-identical to the crossing-history oracle,
        // including duplicate-heavy alphabets, symbols of x absent from y, and
        // sizes straddling the 64-column word boundary.
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..60 {
            let m = rng.gen_range(0..20);
            let n = rng.gen_range(0..150);
            let alphabet = rng.gen_range(1..8);
            let x = random_string(m, alphabet + 4, &mut rng);
            let y = random_string(n, alphabet, &mut rng);
            assert_eq!(
                SeaweedKernel::comb_bitparallel(&x, &y),
                SeaweedKernel::comb(&x, &y),
                "x={x:?} y={y:?}"
            );
        }
        for (m, n) in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 64), (3, 65), (2, 128)] {
            let x = random_string(m, 3, &mut rng);
            let y = random_string(n, 3, &mut rng);
            assert_eq!(
                SeaweedKernel::comb_bitparallel(&x, &y),
                SeaweedKernel::comb(&x, &y),
                "m={m} n={n}"
            );
        }
    }

    #[test]
    fn crossing_set_triangular_indexing_at_boundaries() {
        // Exhaustive check that insert/contains agree for every unordered pair
        // and both argument orders, across totals that straddle word boundaries
        // (the boundary indices 0, total−2, total−1 included).
        for total in [2usize, 3, 5, 11, 12, 64, 65] {
            let mut set = CrossingSet::new(total);
            let mut inserted: Vec<(u32, u32)> = Vec::new();
            let pairs: Vec<(u32, u32)> = (0..total as u32)
                .flat_map(|lo| (lo + 1..total as u32).map(move |hi| (lo, hi)))
                .collect();
            for &(lo, hi) in &pairs {
                assert!(!set.contains(lo, hi), "total={total} pre ({lo},{hi})");
                assert!(!set.contains(hi, lo));
                set.insert(hi, lo); // insert in reversed order on purpose
                inserted.push((lo, hi));
                for &(a, b) in &pairs {
                    let expect = inserted.contains(&(a, b));
                    assert_eq!(set.contains(a, b), expect, "total={total} ({a},{b})");
                    assert_eq!(set.contains(b, a), expect);
                }
            }
        }
    }

    #[test]
    fn comb_par_equals_direct_combing() {
        // Above and below the block threshold, at several thread counts.
        let mut rng = StdRng::seed_from_u64(7);
        let x = random_string(40, 8, &mut rng);
        let y = random_string(1500, 8, &mut rng);
        let direct = SeaweedKernel::comb(&x, &y);
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let par = pool.install(|| SeaweedKernel::comb_par(&x, &y));
            assert_eq!(par, direct, "threads={threads}");
        }
        let tiny = random_string(30, 4, &mut rng);
        assert_eq!(
            SeaweedKernel::comb_par(&x, &tiny),
            SeaweedKernel::comb(&x, &tiny)
        );
    }

    #[test]
    fn composition_is_associative_via_kernels() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = random_string(6, 3, &mut rng);
        let ys: Vec<Vec<u32>> = (0..3).map(|_| random_string(5, 3, &mut rng)).collect();
        let ks: Vec<SeaweedKernel> = ys.iter().map(|y| SeaweedKernel::comb(&x, y)).collect();
        let left = compose_horizontal(&compose_horizontal(&ks[0], &ks[1]), &ks[2]);
        let right = compose_horizontal(&ks[0], &compose_horizontal(&ks[1], &ks[2]));
        assert_eq!(left, right);
    }

    #[test]
    fn inflation_matches_full_grid_combing() {
        // Kernel over the present symbols, inflated, equals the kernel over the full
        // identity alphabet.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let m_big = rng.gen_range(2..12);
            let k = rng.gen_range(1..=m_big);
            // Choose k distinct "present" rows and a sequence over them.
            let mut rows: Vec<usize> = (0..m_big).collect();
            rows.shuffle(&mut rng);
            let mut present: Vec<usize> = rows[..k].to_vec();
            present.sort_unstable();
            let len = rng.gen_range(1..10);
            let y_big: Vec<u32> = (0..len)
                .map(|_| present[rng.gen_range(0..k)] as u32)
                .collect();
            // Relabel to the compact alphabet 0..k.
            let rank = |v: u32| present.iter().position(|&p| p == v as usize).unwrap() as u32;
            let y_small: Vec<u32> = y_big.iter().map(|&v| rank(v)).collect();

            let x_small: Vec<u32> = (0..k as u32).collect();
            let x_big: Vec<u32> = (0..m_big as u32).collect();
            let small = SeaweedKernel::comb(&x_small, &y_small);
            let inflated = small.inflate_rows(&present, m_big);
            let direct = SeaweedKernel::comb(&x_big, &y_big);
            assert_eq!(inflated, direct, "present={present:?} y={y_big:?}");
        }
    }
}
