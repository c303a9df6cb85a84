//! A sorted, grouped value side for batched rank searching (Lemma 2.6).
//!
//! [`crate::Cluster::rank_search_multi`] answers packages of thresholds
//! against values grouped by key. Its value side — every `(group, value)`
//! entry sorted — depends only on the values, so a caller that queries the
//! same values repeatedly builds a [`RankIndex`] once and answers every batch
//! from it with [`crate::Cluster::rank_search_multi_in`]. The build is local
//! simulator work; each query still charges the full value side, as if the
//! machines had re-sorted it.
//!
//! An index is built one of two ways:
//!
//! * from unordered entries ([`crate::Cluster::rank_index`]): every entry is
//!   packed into one machine word — group bits above value bits — and the
//!   words are sorted with an LSD radix sort whose all-equal digits are
//!   skipped, so the cost follows the key space actually in use rather than
//!   `n log n` comparisons;
//! * from runs the caller already holds grouped and sorted
//!   ([`RankIndex::from_sorted_runs`], compressed-sparse-row form): nothing is
//!   sorted at all.

use std::marker::PhantomData;

/// A group key the rank index can pack: an injective map into `u64`.
///
/// The index never orders groups by their key, it only tells them apart, so
/// injectivity is all `pack` must guarantee.
pub trait RankKey: Copy + Send + Sync {
    /// The packed key; distinct keys must pack to distinct words.
    fn pack(self) -> u64;
}

impl RankKey for u32 {
    fn pack(self) -> u64 {
        self as u64
    }
}

impl RankKey for u64 {
    fn pack(self) -> u64 {
        self
    }
}

/// Values grouped by key and sorted ascending within every group, stored
/// compressed-sparse-row style.
#[derive(Clone, Debug)]
pub struct RankIndex<K> {
    /// Packed group keys present in the index, ascending.
    groups: Vec<u64>,
    /// `values[starts[i]..starts[i + 1]]` belong to `groups[i]`.
    starts: Vec<usize>,
    values: Vec<u64>,
    key: PhantomData<fn(K)>,
}

impl<K: RankKey> RankIndex<K> {
    /// Builds the index from `(packed group, value)` entries (any order).
    pub(crate) fn from_entries(entries: Vec<(u64, u64)>) -> Self {
        let max_group = entries.iter().map(|e| e.0).max().unwrap_or(0);
        let max_value = entries.iter().map(|e| e.1).max().unwrap_or(0);
        let group_bits = u64::BITS - max_group.leading_zeros();
        let value_bits = u64::BITS - max_value.leading_zeros();
        if group_bits + value_bits <= u64::BITS {
            Self::from_words::<u64>(&entries, value_bits, group_bits + value_bits)
        } else {
            Self::from_words::<u128>(&entries, value_bits, group_bits + value_bits)
        }
    }

    /// Builds the index from runs already grouped and sorted:
    /// `values[starts[i]..starts[i + 1]]` are the values of `groups[i]`,
    /// ascending, and the groups ascend by their packed key. Nothing is
    /// sorted; debug builds check both orders.
    ///
    /// # Panics
    ///
    /// If `starts` does not hold one more offset than there are groups, or
    /// its last offset is not `values.len()`.
    ///
    /// Its one caller outside this module's tests is the test oracle of the
    /// ⊡ combine (`monge-mpc`), which builds its leveled colored tree this
    /// way, every tree node being a contiguous block of rows; the combine
    /// itself reads its counts from its own tables.
    pub fn from_sorted_runs(groups: Vec<K>, starts: Vec<usize>, values: Vec<u64>) -> Self {
        assert_eq!(
            starts.len(),
            groups.len() + 1,
            "a rank index needs one start per group plus the end"
        );
        assert_eq!(
            starts.last(),
            Some(&values.len()),
            "the last start must close the value array"
        );
        let groups: Vec<u64> = groups.into_iter().map(RankKey::pack).collect();
        debug_assert!(
            groups.windows(2).all(|w| w[0] < w[1]),
            "rank-index groups must strictly ascend by packed key"
        );
        debug_assert!(
            starts
                .windows(2)
                .all(|w| w[0] <= w[1] && values[w[0]..w[1]].windows(2).all(|v| v[0] <= v[1])),
            "every rank-index run must be sorted ascending"
        );
        Self {
            groups,
            starts,
            values,
            key: PhantomData,
        }
    }

    fn from_words<W: Word>(entries: &[(u64, u64)], value_bits: u32, bits: u32) -> Self {
        let words: Vec<W> = entries
            .iter()
            .map(|&(g, v)| W::pack(g, v, value_bits))
            .collect();
        let words = radix_sort(words, bits);
        let mut groups = Vec::new();
        let mut starts = Vec::new();
        let mut values = Vec::with_capacity(words.len());
        for word in words {
            let (g, v) = word.unpack(value_bits);
            if groups.last() != Some(&g) {
                groups.push(g);
                starts.push(values.len());
            }
            values.push(v);
        }
        starts.push(values.len());
        Self {
            groups,
            starts,
            values,
            key: PhantomData,
        }
    }

    /// Number of `(group, value)` entries held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Where `group`'s run sits among the groups. Dense codes (`0..groups`,
    /// as the ⊡ combine's tree numbers its nodes) sit at their own index;
    /// any other key is found by binary search.
    fn find(&self, group: K) -> Option<usize> {
        let key = group.pack();
        match usize::try_from(key) {
            Ok(i) if self.groups.get(i) == Some(&key) => Some(i),
            _ => self.groups.binary_search(&key).ok(),
        }
    }

    /// The values of `group`, ascending (none for an absent group).
    ///
    /// For a caller that answers its own packages against the index — each
    /// answer is a `partition_point` over this run — and charges them with
    /// [`crate::Cluster::charge_rank_search_multi`].
    pub fn run(&self, group: K) -> &[u64] {
        self.find(group)
            .map_or(&[], |i| &self.values[self.starts[i]..self.starts[i + 1]])
    }

    /// For every threshold `t` (ascending), the number of values of `group`
    /// strictly smaller than `t`: one forward galloping walk over the group's
    /// sorted values. An absent group answers all zeros.
    pub(crate) fn count_below(&self, group: K, thresholds: &[u64]) -> Vec<u64> {
        debug_assert!(
            thresholds.windows(2).all(|w| w[0] <= w[1]),
            "rank-search thresholds must ascend"
        );
        let values = self.run(group);
        let mut pos = 0usize;
        thresholds
            .iter()
            .map(|&t| {
                let rest = &values[pos..];
                // Exponential search: `rest[..bound / 2]` is known `< t`.
                let mut bound = 1usize;
                while bound <= rest.len() && rest[bound - 1] < t {
                    bound *= 2;
                }
                let lo = bound / 2;
                let hi = bound.min(rest.len());
                pos += lo + rest[lo..hi].partition_point(|&v| v < t);
                pos as u64
            })
            .collect()
    }
}

/// A packed `(group, value)` sort word.
trait Word: Copy + Default {
    fn pack(group: u64, value: u64, value_bits: u32) -> Self;
    fn unpack(self, value_bits: u32) -> (u64, u64);
    /// The radix digit `(self >> shift) & mask`.
    fn digit(self, shift: u32, mask: usize) -> usize;
}

impl Word for u64 {
    fn pack(group: u64, value: u64, value_bits: u32) -> Self {
        // `value_bits == 64` leaves no group bits: the group is then 0.
        group.checked_shl(value_bits).unwrap_or(0) | value
    }

    fn unpack(self, value_bits: u32) -> (u64, u64) {
        let mask = u64::MAX.checked_shr(u64::BITS - value_bits).unwrap_or(0);
        (self.checked_shr(value_bits).unwrap_or(0), self & mask)
    }

    fn digit(self, shift: u32, mask: usize) -> usize {
        (self >> shift) as usize & mask
    }
}

impl Word for u128 {
    fn pack(group: u64, value: u64, value_bits: u32) -> Self {
        ((group as u128) << value_bits) | value as u128
    }

    fn unpack(self, value_bits: u32) -> (u64, u64) {
        let mask = (1u128 << value_bits) - 1;
        ((self >> value_bits) as u64, (self & mask) as u64)
    }

    fn digit(self, shift: u32, mask: usize) -> usize {
        (self >> shift) as usize & mask
    }
}

/// Bits per radix digit: 2048 counters stay cache-resident.
const DIGIT_BITS: u32 = 11;

/// LSD radix sort of words whose set bits all lie below `bits`. Each pass is
/// a stable counting sort on one digit; a digit every word shares moves
/// nothing and is skipped.
fn radix_sort<W: Word>(mut words: Vec<W>, bits: u32) -> Vec<W> {
    let len = words.len();
    let mask = (1usize << DIGIT_BITS) - 1;
    let mut scratch = vec![W::default(); len];
    let mut counts = vec![0usize; 1 << DIGIT_BITS];
    let mut shift = 0;
    while shift < bits {
        counts.fill(0);
        for &w in &words {
            counts[w.digit(shift, mask)] += 1;
        }
        if !counts.contains(&len) {
            let mut next = 0;
            for c in counts.iter_mut() {
                let here = *c;
                *c = next;
                next += here;
            }
            for &w in &words {
                let d = w.digit(shift, mask);
                scratch[counts[d]] = w;
                counts[d] += 1;
            }
            std::mem::swap(&mut words, &mut scratch);
        }
        shift += DIGIT_BITS;
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// The oracle: count by brute force.
    fn brute(entries: &[(u64, u64)], group: u64, thresholds: &[u64]) -> Vec<u64> {
        thresholds
            .iter()
            .map(|&t| {
                entries
                    .iter()
                    .filter(|&&(g, v)| g == group && v < t)
                    .count() as u64
            })
            .collect()
    }

    fn check(entries: Vec<(u64, u64)>, queries: &[(u64, Vec<u64>)]) {
        let index = RankIndex::<u64>::from_entries(entries.clone());
        assert_eq!(index.len(), entries.len());
        for (group, thresholds) in queries {
            assert_eq!(
                index.count_below(*group, thresholds),
                brute(&entries, *group, thresholds),
                "group {group} thresholds {thresholds:?}"
            );
        }
    }

    #[test]
    fn queries_match_brute_force_counting() {
        let mut rng = StdRng::seed_from_u64(0x1D);
        for (groups, span) in [(1u64, 10u64), (7, 500), (300, 40), (3, 1 << 40)] {
            // Duplicates are frequent at the small spans.
            let entries: Vec<(u64, u64)> = (0..2000)
                .map(|_| (rng.gen_range(0..groups), rng.gen_range(0..span)))
                .collect();
            let queries: Vec<(u64, Vec<u64>)> = (0..300)
                .map(|_| {
                    // Groups past the last one are absent.
                    let group = rng.gen_range(0..groups + 2);
                    let k = rng.gen_range(0..8);
                    let mut t: Vec<u64> = (0..k).map(|_| rng.gen_range(0..span + 5)).collect();
                    t.sort_unstable();
                    (group, t)
                })
                .collect();
            check(entries, &queries);
        }
    }

    #[test]
    fn thresholds_at_group_bounds_and_past_the_last_value() {
        let entries = vec![(2, 5), (2, 5), (2, 9), (4, 0), (4, u64::MAX), (9, 1)];
        let queries = vec![
            (2, vec![0, 5, 5, 6, 9, 10, u64::MAX]),
            (4, vec![0, 1, u64::MAX]),
            (9, vec![1, 2]),
            (3, vec![0, 100]), // absent group between present ones
            (0, vec![7]),      // absent, below every group
            (u64::MAX, vec![7]),
            (2, vec![]),
        ];
        check(entries, &queries);
    }

    #[test]
    fn wide_keys_take_the_u128_words() {
        // Group and value bits together exceed 64.
        let entries = vec![
            (u64::MAX, 3),
            (u64::MAX, 1 << 50),
            (1 << 40, 7),
            (0, u64::MAX),
            (0, 0),
        ];
        let queries = vec![
            (u64::MAX, vec![0, 4, 1 << 50, (1 << 50) + 1]),
            (1 << 40, vec![7, 8]),
            (0, vec![0, 1, u64::MAX]),
        ];
        check(entries, &queries);
    }

    #[test]
    fn sorted_runs_answer_like_sorted_entries() {
        let mut rng = StdRng::seed_from_u64(0x5C);
        for groups in [1usize, 5, 200] {
            // Runs of random lengths, empty ones included, over sparse keys.
            let mut keys: Vec<u64> = (0..groups).map(|_| rng.gen_range(0..1 << 40)).collect();
            keys.sort_unstable();
            keys.dedup();
            let mut entries = Vec::new();
            let mut starts = vec![0];
            let mut values = Vec::new();
            for &g in &keys {
                let mut run: Vec<u64> = (0..rng.gen_range(0..30))
                    .map(|_| rng.gen_range(0..100))
                    .collect();
                run.sort_unstable();
                entries.extend(run.iter().map(|&v| (g, v)));
                values.extend(run);
                starts.push(values.len());
            }
            let runs = RankIndex::<u64>::from_sorted_runs(keys.clone(), starts, values);
            let sorted = RankIndex::<u64>::from_entries(entries.clone());
            assert_eq!(runs.len(), sorted.len());
            for &g in keys.iter().chain(&[1 << 41]) {
                let t: Vec<u64> = (0..110).step_by(3).collect();
                assert_eq!(runs.count_below(g, &t), sorted.count_below(g, &t));
                assert_eq!(runs.count_below(g, &t), brute(&entries, g, &t));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "run must be sorted")]
    fn unsorted_runs_are_rejected() {
        let _ = RankIndex::<u32>::from_sorted_runs(vec![0, 1], vec![0, 1, 3], vec![4, 9, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "groups must strictly ascend")]
    fn descending_groups_are_rejected() {
        let _ = RankIndex::<u32>::from_sorted_runs(vec![3, 1], vec![0, 1, 2], vec![4, 9]);
    }

    #[test]
    #[should_panic(expected = "one start per group")]
    fn runs_need_one_start_per_group() {
        let _ = RankIndex::<u32>::from_sorted_runs(vec![0, 1], vec![0, 2], vec![4, 9]);
    }

    #[test]
    fn dense_and_sparse_keys_find_their_runs() {
        // Dense codes 0..5 sit at their own index; a gap at 5 makes every
        // later key sparse, and keys that land on another group's index
        // must still find their own run.
        let entries: Vec<(u64, u64)> = [0u64, 1, 2, 3, 4, 6, 9, 40]
            .iter()
            .flat_map(|&g| (0..g + 2).map(move |v| (g, 3 * v + g % 3)))
            .collect();
        let index = RankIndex::<u64>::from_entries(entries.clone());
        let t: Vec<u64> = (0..40).collect();
        for g in 0..45 {
            assert_eq!(
                index.count_below(g, &t),
                brute(&entries, g, &t),
                "group {g}"
            );
        }
        for g in [5u64, 7, 8, 10, 39, 41, u64::MAX] {
            assert_eq!(index.count_below(g, &t), vec![0; t.len()], "absent {g}");
        }
        // Sparse keys only: every lookup takes the binary search.
        let sparse: Vec<(u64, u64)> = [7u64, 100, 1 << 40]
            .iter()
            .flat_map(|&g| [(g, 1), (g, 5), (g, 9)])
            .collect();
        let index = RankIndex::<u64>::from_entries(sparse.clone());
        for g in [0u64, 1, 2, 7, 100, 1 << 40, (1 << 40) + 1] {
            assert_eq!(
                index.count_below(g, &[0, 2, 6, 10]),
                brute(&sparse, g, &[0, 2, 6, 10])
            );
        }
    }

    #[test]
    fn empty_index_answers_zeros() {
        let index = RankIndex::<u32>::from_entries(Vec::new());
        assert!(index.is_empty());
        assert_eq!(index.count_below(0, &[0, 1, 2]), vec![0, 0, 0]);
    }

    #[test]
    fn radix_sort_matches_std_sort() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [0u32, 1, 11, 12, 33, 64] {
            let mask = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
            let words: Vec<u64> = (0..3000).map(|_| rng.gen::<u64>() & mask).collect();
            let mut expected = words.clone();
            expected.sort_unstable();
            assert_eq!(radix_sort(words, bits), expected, "bits = {bits}");
        }
        let wide: Vec<u128> = (0..3000)
            .map(|_| ((rng.gen::<u64>() as u128) << 60) | rng.gen::<u64>() as u128)
            .collect();
        let mut expected = wide.clone();
        expected.sort_unstable();
        assert_eq!(radix_sort(wide, 124), expected);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thresholds must ascend")]
    fn descending_thresholds_are_rejected() {
        let index = RankIndex::<u64>::from_entries(vec![(0, 1)]);
        let _ = index.count_below(0, &[5, 2]);
    }
}
