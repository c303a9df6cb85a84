//! Grouping without moving items: the engine behind
//! [`Cluster::group_map_view`](crate::Cluster::group_map_view),
//! [`Cluster::group_map_rebalanced`](crate::Cluster::group_map_rebalanced) and
//! [`Cluster::cogroup_map`](crate::Cluster::cogroup_map), and the borrowed
//! [`Group`] view their closures read.
//!
//! A gather leaves the items where they are, concatenated once in arrival
//! order (machine by machine, then position on the machine), and describes
//! every group as a range of one `u32` index array (a CSR). The keys get
//! dense ids from a hash map, only the distinct keys are sorted, and one
//! counting-sort scatter files every item's index under its group. Packed
//! groups then run machine by machine on the pool, each machine writing its
//! groups' outputs straight into its own part (`run_on_machines`);
//! rebalanced ones run in contiguous chunks whose outputs are concatenated
//! (`run_groups`). Neither path allocates per group.
//!
//! Everything here is a function of its inputs alone, and every output comes
//! back in group (key) order at every thread count.

use crate::distvec::{concat, Shape};
use rayon::prelude::*;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

/// One group of a grouping primitive: a borrowed view of the items that share
/// a key, read in their arrival order (machine by machine, then position on
/// the machine).
pub struct Group<'a, T> {
    items: &'a [T],
    idx: &'a [u32],
}

impl<'a, T> Group<'a, T> {
    /// Number of items in the group.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the group holds no items (only a cogroup side can be empty).
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The `i`-th item in arrival order.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn get(&self, i: usize) -> &'a T {
        &self.items[self.idx[i] as usize]
    }

    /// The items in arrival order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &'a T> + ExactSizeIterator + 'a {
        let items = self.items;
        self.idx.iter().map(move |&i| &items[i as usize])
    }
}

/// Where a packed group map puts its groups: every group's machine, and the
/// load profile its outputs leave (see
/// [`Cluster::charge_group_map_sized`](crate::Cluster::charge_group_map_sized)).
/// Machine `i` holds the outputs of the groups placed on it, group after
/// group in ascending order, as every packed grouping primitive leaves them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    machine_of_group: Vec<usize>,
    shape: Shape,
}

impl Placement {
    pub(crate) fn new(machine_of_group: Vec<usize>, shape: Shape) -> Self {
        Self {
            machine_of_group,
            shape,
        }
    }

    /// The machine group `g` runs on.
    pub fn machine(&self, g: usize) -> usize {
        self.machine_of_group[g]
    }

    /// The shape of the groups' outputs.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
}

/// The gather's hasher: dependency-free, folding each word in with a
/// rotate–xor–multiply step and finishing with the MurmurHash3 `fmix64`
/// avalanche, so keys that differ only in their high bits still spread over
/// every bucket. The map it serves is only ever probed, never iterated, so no
/// hash order can reach an output.
struct MixHasher(u64);

/// Builds [`MixHasher`]s from one seed drawn per process: group keys can carry
/// caller data (the LCS join groups by input symbol), and an unknown seed
/// keeps crafted keys from piling into one bucket.
#[derive(Clone, Copy)]
struct MixState(u64);

impl MixState {
    fn new() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self(*SEED.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(buf) ^ ((rest.len() as u64) << 56));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// Dense key ids in first-arrival order, shared by every side of one gather.
struct KeyIds<K> {
    ids: HashMap<K, u32, MixState>,
    keys: Vec<(K, u32)>,
}

impl<K: Ord + Hash + Clone + Send> KeyIds<K> {
    fn new() -> Self {
        Self {
            ids: HashMap::with_hasher(MixState::new()),
            keys: Vec::new(),
        }
    }

    /// The dense id of every item's key.
    fn assign<T>(&mut self, items: &[T], key: impl Fn(&T) -> K) -> Vec<u32> {
        u32::try_from(items.len())
            .expect("a gather holds fewer than 2^32 items: group members are u32 indices");
        let Self { ids, keys } = self;
        items
            .iter()
            .map(|t| {
                *ids.entry(key(t)).or_insert_with_key(|k| {
                    let id = u32::try_from(keys.len()).expect("fewer than 2^32 groups");
                    keys.push((k.clone(), id));
                    id
                })
            })
            .collect()
    }

    /// The distinct keys in ascending order, and the rank of every dense id.
    fn into_sorted(self) -> (Vec<K>, Vec<u32>) {
        let Self { ids, mut keys } = self;
        drop(ids);
        // The keys are distinct, so any sort orders them the same way.
        keys.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank = vec![0u32; keys.len()];
        for (r, (_, id)) in keys.iter().enumerate() {
            rank[*id as usize] = r as u32;
        }
        (keys.into_iter().map(|(k, _)| k).collect(), rank)
    }
}

/// One gathered side: its items, concatenated in arrival order, and their
/// groups in key order — group `g` is the items at
/// `idx[offsets[g]..offsets[g + 1]]`, in arrival order.
pub(crate) struct Side<T> {
    items: Vec<T>,
    offsets: Vec<usize>,
    idx: Vec<u32>,
}

impl<T> Side<T> {
    /// Files every item's index under its group with one stable counting-sort
    /// scatter; `group_of` holds dense ids, `rank` maps them to key ranks.
    fn new(items: Vec<T>, group_of: &[u32], rank: &[u32]) -> Self {
        let groups = rank.len();
        let mut sizes = vec![0usize; groups];
        for &id in group_of {
            sizes[rank[id as usize] as usize] += 1;
        }
        let offsets = offsets(&sizes);
        let mut next = offsets[..groups].to_vec();
        let mut idx = vec![0u32; group_of.len()];
        for (i, &id) in group_of.iter().enumerate() {
            let slot = &mut next[rank[id as usize] as usize];
            idx[*slot] = i as u32;
            *slot += 1;
        }
        Self {
            items,
            offsets,
            idx,
        }
    }

    /// Item prefix over the groups: group `g` holds
    /// `offsets()[g + 1] - offsets()[g]` items.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Group `g`'s items.
    pub(crate) fn group(&self, g: usize) -> Group<'_, T> {
        Group {
            items: &self.items,
            idx: &self.idx[self.offsets[g]..self.offsets[g + 1]],
        }
    }
}

/// The item prefix over groups of the given sizes: group `g` holds the
/// items `offsets[g]..offsets[g + 1]`.
pub(crate) fn offsets(sizes: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(sizes.len() + 1);
    let mut running = 0;
    offsets.push(0);
    for &size in sizes {
        running += size;
        offsets.push(running);
    }
    offsets
}

/// Every group's item count, from the item prefix `offsets` over the groups.
pub(crate) fn sizes(offsets: &[usize]) -> Vec<usize> {
    offsets.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Gathers `parts` by `key`: the distinct keys in ascending order and the
/// groups, group `g` holding the items of key `keys[g]`.
///
/// # Panics
///
/// If `parts` hold 2³² items or more.
pub(crate) fn gather<T, K>(parts: Vec<Vec<T>>, key: impl Fn(&T) -> K) -> (Vec<K>, Side<T>)
where
    K: Ord + Hash + Clone + Send,
{
    let items = concat(parts);
    let mut ids = KeyIds::new();
    let group_of = ids.assign(&items, key);
    let (keys, rank) = ids.into_sorted();
    (keys, Side::new(items, &group_of, &rank))
}

/// Gathers two sides over one key space: the distinct keys of both in
/// ascending order, and each side's groups, group `g` of either side holding
/// that side's items of key `keys[g]` (possibly none).
///
/// # Panics
///
/// If either side holds 2³² items or more.
pub(crate) fn cogather<A, B, K>(
    a: Vec<Vec<A>>,
    b: Vec<Vec<B>>,
    key_a: impl Fn(&A) -> K,
    key_b: impl Fn(&B) -> K,
) -> (Vec<K>, Side<A>, Side<B>)
where
    K: Ord + Hash + Clone + Send,
{
    let (a, b) = (concat(a), concat(b));
    let mut ids = KeyIds::new();
    let a_of = ids.assign(&a, key_a);
    let b_of = ids.assign(&b, key_b);
    let (keys, rank) = ids.into_sorted();
    (keys, Side::new(a, &a_of, &rank), Side::new(b, &b_of, &rank))
}

/// Chunks per pool thread: a few, so uneven work evens out across threads.
const CHUNKS_PER_THREAD: usize = 4;

/// Cuts the units of item prefix `prefix` (unit `u` holds
/// `prefix[u + 1] - prefix[u]` items) into contiguous ranges at even shares
/// of the items: a few per pool thread, one on a single thread.
fn even_pieces(prefix: &[usize]) -> Vec<Range<usize>> {
    let units = prefix.len() - 1;
    let total = prefix[units];
    let threads = rayon::current_num_threads();
    let pieces = if threads <= 1 {
        1
    } else {
        threads * CHUNKS_PER_THREAD
    };
    let mut starts: Vec<usize> = (0..pieces)
        .map(|j| {
            prefix
                .partition_point(|&w| w < total * j / pieces)
                .min(units)
        })
        .collect();
    starts.push(units);
    starts.dedup();
    starts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Runs `run(g)` for every group `g` in contiguous chunks over the pool, the
/// chunks cut at even shares of the items; `offsets` is the item prefix over
/// the groups (see [`Side::offsets`]). Returns every group's outputs,
/// concatenated in group order.
pub(crate) fn run_groups<U, I, F>(offsets: &[usize], run: F) -> Vec<U>
where
    U: Send,
    I: IntoIterator<Item = U>,
    F: Fn(usize) -> I + Sync,
{
    let chunks: Vec<Vec<U>> = even_pieces(offsets)
        .par_iter()
        .map(|range| range.clone().flat_map(&run).collect())
        .collect();
    concat(chunks)
}

/// Runs every group on the machine `machine_of_group` names and returns the
/// machines' parts: machine `i` holds the outputs of its groups, group after
/// group in ascending order. `loads` holds every machine's item count.
///
/// The machines build their parts in parallel, heaviest first, cut into
/// pieces at even shares of the items. Packing puts the largest groups on
/// the lowest machines, so a pass in machine order would hand a few big
/// groups to one thread; heaviest first, each such machine is a piece of
/// its own, claimed before the light ones.
pub(crate) fn run_on_machines<U, I, F>(
    machine_of_group: &[usize],
    loads: &[usize],
    run: F,
) -> Vec<Vec<U>>
where
    U: Send,
    I: IntoIterator<Item = U>,
    F: Fn(usize) -> I + Sync,
{
    let machines = loads.len();
    // Every machine's groups, ascending: a counting sort by machine.
    let mut first = vec![0usize; machines + 1];
    for &m in machine_of_group {
        first[m + 1] += 1;
    }
    for m in 0..machines {
        first[m + 1] += first[m];
    }
    let mut next = first[..machines].to_vec();
    let mut groups = vec![0usize; machine_of_group.len()];
    for (g, &m) in machine_of_group.iter().enumerate() {
        groups[next[m]] = g;
        next[m] += 1;
    }
    let mut heaviest: Vec<usize> = (0..machines).collect();
    heaviest.sort_by_key(|&m| std::cmp::Reverse(loads[m]));
    let prefix = offsets(&heaviest.iter().map(|&m| loads[m]).collect::<Vec<_>>());
    let built: Vec<Vec<(usize, Vec<U>)>> = even_pieces(&prefix)
        .par_iter()
        .map(|range| {
            heaviest[range.clone()]
                .iter()
                .map(|&m| {
                    // At least one output per group is the common case (a
                    // 1:1 join): reserve that much up front.
                    let mine = &groups[first[m]..first[m + 1]];
                    let mut part = Vec::with_capacity(mine.len());
                    part.extend(mine.iter().flat_map(|&g| run(g)));
                    (m, part)
                })
                .collect()
        })
        .collect();
    let mut parts: Vec<Vec<U>> = (0..machines).map(|_| Vec::new()).collect();
    for (m, part) in built.into_iter().flatten() {
        parts[m] = part;
    }
    parts
}
