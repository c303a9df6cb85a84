//! Two-dimensional dominance counting over static point sets.
//!
//! The semi-local LIS/LCS query structures (and several tests) need counts of the
//! form "how many nonzeros `(r, c)` satisfy `r ≥ r0` and `c < c0`" — exactly the
//! quantity `P^Σ(r0, c0)` of the paper. [`DominanceCounter`] is an online
//! structure (merge-sort tree) answering arbitrary quadrant counts in
//! `O(log² n)` after `O(n log n)` preprocessing.

/// Online dominance counting over a fixed set of points (merge-sort tree).
#[derive(Clone, Debug)]
pub struct DominanceCounter {
    /// Points sorted by row; `cols[level]` holds, for each node of the implicit
    /// segment tree over that order, the sorted column values of its range.
    rows: Vec<u32>,
    tree: Vec<Vec<u32>>, // tree[node] = sorted cols of the node's row-range
    size: usize,
}

impl DominanceCounter {
    /// Builds the structure from `(row, col)` points. `O(n log n)`.
    pub fn new(points: &[(u32, u32)]) -> Self {
        let mut pts: Vec<(u32, u32)> = points.to_vec();
        pts.sort_unstable();
        let size = pts.len().next_power_of_two().max(1);
        let mut tree = vec![Vec::new(); 2 * size];
        for (i, &(_, c)) in pts.iter().enumerate() {
            tree[size + i].push(c);
        }
        for node in (1..size).rev() {
            let (left, right) = (2 * node, 2 * node + 1);
            let mut merged = Vec::with_capacity(tree[left].len() + tree[right].len());
            let (mut a, mut b) = (0, 0);
            while a < tree[left].len() || b < tree[right].len() {
                let take_left = b == tree[right].len()
                    || (a < tree[left].len() && tree[left][a] <= tree[right][b]);
                if take_left {
                    merged.push(tree[left][a]);
                    a += 1;
                } else {
                    merged.push(tree[right][b]);
                    b += 1;
                }
            }
            tree[node] = merged;
        }
        Self {
            rows: pts.iter().map(|&(r, _)| r).collect(),
            tree,
            size,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Counts points with `row ≥ row_min` and `col < col_max`
    /// (the paper's `P^Σ(row_min, col_max)` when the points are a matrix's nonzeros).
    pub fn count_row_ge_col_lt(&self, row_min: u32, col_max: u32) -> usize {
        // Points are sorted by row, so the qualifying rows form a suffix.
        let start = self.rows.partition_point(|&r| r < row_min);
        self.count_range_col_lt(start, self.rows.len(), col_max)
    }

    /// Counts points with `row < row_max` and `col < col_max`.
    pub fn count_row_lt_col_lt(&self, row_max: u32, col_max: u32) -> usize {
        let end = self.rows.partition_point(|&r| r < row_max);
        self.count_range_col_lt(0, end, col_max)
    }

    /// Counts points whose rank (in row-sorted order) lies in `[lo, hi)` and whose
    /// column is `< col_max`.
    fn count_range_col_lt(&self, mut lo: usize, mut hi: usize, col_max: u32) -> usize {
        let mut count = 0;
        lo += self.size;
        hi += self.size;
        while lo < hi {
            if lo & 1 == 1 {
                count += self.tree[lo].partition_point(|&c| c < col_max);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                count += self.tree[hi].partition_point(|&c| c < col_max);
            }
            lo /= 2;
            hi /= 2;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn brute(points: &[(u32, u32)], row_min: u32, col_max: u32) -> usize {
        points
            .iter()
            .filter(|&&(r, c)| r >= row_min && c < col_max)
            .count()
    }

    #[test]
    fn online_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        let points: Vec<(u32, u32)> = (0..300)
            .map(|_| (rng.gen_range(0..100), rng.gen_range(0..100)))
            .collect();
        let dc = DominanceCounter::new(&points);
        for _ in 0..200 {
            let r = rng.gen_range(0..110);
            let c = rng.gen_range(0..110);
            assert_eq!(dc.count_row_ge_col_lt(r, c), brute(&points, r, c));
            let lt = points.iter().filter(|&&(pr, pc)| pr < r && pc < c).count();
            assert_eq!(dc.count_row_lt_col_lt(r, c), lt);
        }
    }

    #[test]
    fn empty_inputs() {
        let dc = DominanceCounter::new(&[]);
        assert!(dc.is_empty());
        assert_eq!(dc.count_row_ge_col_lt(0, 100), 0);
    }
}
