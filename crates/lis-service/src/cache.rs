//! The hot-kernel cache: built kernels, their query structures and recorded
//! merge-tree traces, keyed by a memoized content hash, with LRU eviction
//! under a byte budget derived from the checkpoint footprint.
//!
//! **Hash once at ingest.** An entry's key is the running FNV-1a state over
//! the sequence's `u32` elements. The state is memoized on the entry, so an
//! append extends the hash from the stored state in `O(block)` — the prefix is
//! never re-hashed — and re-submitting an identical sequence dedupes to a
//! cache hit instead of a rebuild (FNV is sequential, so `ingest(s)` and
//! `ingest(p) + append(q)` with `s = p ∥ q` land on the same key). A 64-bit
//! hash can collide, so a hit is served only after the stored sequence
//! compares equal; an ingest or append that lands on another sequence's key
//! is refused with an error and mutates nothing.
//!
//! **Byte budget.** Each entry charges what it actually keeps resident: the
//! raw sequence, the append spine's value sets and kernel permutation entries
//! ([`AppendableLisKernel::footprint_items`]), the lazily-built window-query
//! structure, and the witness trace's checkpoints
//! ([`WitnessTrace::checkpoint_footprint`]). When the total exceeds the
//! budget, least-recently-used entries are evicted (never the one being
//! served) and the eviction counter surfaces in every response.

use lis_mpc::{AppendStats, AppendableLisKernel, WitnessTrace};
use mpc_runtime::{Cluster, MpcConfig};
use seaweed_lis::lis::SemiLocalLis;
use std::collections::HashMap;

/// FNV-1a 64-bit offset basis (the hash of the empty sequence).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends a running FNV-1a state by a block of elements (little-endian
/// bytes); `extend_hash(FNV_OFFSET, seq)` is the content hash of `seq`.
pub fn extend_hash(mut state: u64, block: &[u32]) -> u64 {
    for &v in block {
        for byte in v.to_le_bytes() {
            state ^= byte as u64;
            state = state.wrapping_mul(FNV_PRIME);
        }
    }
    state
}

/// The content hash of a full sequence.
pub fn content_hash(seq: &[u32]) -> u64 {
    extend_hash(FNV_OFFSET, seq)
}

/// Hit/miss/eviction counters, surfaced in every service response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests served off a hot entry (including ingest dedupes).
    pub hits: u64,
    /// Requests that had to build (ingest), could not find their id, or
    /// were refused on a content-hash collision.
    pub misses: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
}

/// One hot kernel: the sequence, its append spine, and the lazily-built
/// query/traceback structures, plus the recording cluster whose ledger the
/// service's cost proofs read.
pub struct CacheEntry {
    /// Memoized FNV-1a state over `seq` (also the cache key and public id).
    hash: u64,
    /// The ingested sequence (appends extend it).
    seq: Vec<u32>,
    /// Lenient recording cluster carrying this entry's ledger.
    cluster: Cluster,
    /// The incrementally-maintained kernel.
    kernel: AppendableLisKernel,
    /// Window-query structure off the root kernel; dropped on append.
    queries: Option<SemiLocalLis>,
    /// Recorded merge tree for witness descents; dropped on append.
    trace: Option<WitnessTrace>,
    /// Space violations recorded by clusters this entry has retired (the
    /// cluster is re-sized when the sequence outgrows its budget basis).
    carried_violations: u64,
    /// LRU stamp.
    last_used: u64,
}

impl CacheEntry {
    fn new(seq: Vec<u32>, delta: f64, block_size: usize, stamp: u64) -> Self {
        let hash = content_hash(&seq);
        let mut cluster = cluster_for(seq.len(), delta);
        let kernel = AppendableLisKernel::build(&mut cluster, &seq, block_size);
        Self {
            hash,
            seq,
            cluster,
            kernel,
            queries: None,
            trace: None,
            carried_violations: 0,
            last_used: stamp,
        }
    }

    /// The public id (the content hash, hex).
    pub fn id(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// The ingested sequence.
    pub fn seq(&self) -> &[u32] {
        &self.seq
    }

    /// The recording cluster (for ledger reads).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The recording cluster, mutably (witness descents run on it).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The incrementally-maintained kernel.
    pub fn kernel_mut(&mut self) -> &mut AppendableLisKernel {
        &mut self.kernel
    }

    /// Space violations across this entry's whole history.
    pub fn violations(&self) -> u64 {
        self.carried_violations + self.cluster.ledger().space_violations
    }

    /// The window-query structure, built off the root kernel on first use
    /// and cached until the next append.
    pub fn queries(&mut self) -> &SemiLocalLis {
        let kernel = &mut self.kernel;
        let cluster = &mut self.cluster;
        self.queries
            .get_or_insert_with(|| SemiLocalLis::from_kernel(kernel.kernel(cluster)))
    }

    /// The recorded merge tree, rebuilt from the sequence on first use after
    /// an append (the rebuild is local; only descents touch the cluster).
    pub fn trace(&mut self) -> &WitnessTrace {
        let seq = &self.seq;
        let block_size = self.kernel.block_size();
        self.trace
            .get_or_insert_with(|| WitnessTrace::record(seq, block_size))
    }

    /// Maps a half-open value range to the rank-window vocabulary of
    /// [`lis_mpc::recover_batch`].
    pub fn value_rank_window(&mut self, lo: u32, hi: u32) -> (usize, usize) {
        self.kernel.value_rank_window(&mut self.cluster, lo, hi)
    }

    /// Runs one batched witness descent over rank windows, building the trace
    /// on first use. All windows share a single superstep schedule (see
    /// [`lis_mpc::recover_batch`]); windows must satisfy `lo ≤ hi ≤ n`.
    pub fn witness_batch(&mut self, windows: &[(usize, usize)], scope: &str) -> Vec<Vec<usize>> {
        let seq = &self.seq;
        let block_size = self.kernel.block_size();
        let trace = self
            .trace
            .get_or_insert_with(|| WitnessTrace::record(seq, block_size));
        lis_mpc::recover_batch(&mut self.cluster, trace, windows, scope)
    }

    /// Extends the sequence (and the memoized hash) by `block`; drops the
    /// query/trace structures, which rebuild lazily. Returns the spine stats
    /// of the incremental recomb.
    fn append(&mut self, block: &[u32], delta: f64) -> AppendStats {
        // Re-size the recording cluster when the sequence outgrows the budget
        // basis it was created with — a stale small basis would record
        // violations that say nothing about the algorithm. The retired
        // ledger's violations are carried so nothing is lost.
        let new_len = self.seq.len() + block.len();
        if new_len > self.cluster.config().n {
            self.carried_violations += self.cluster.ledger().space_violations;
            self.cluster = cluster_for(new_len * 2, delta);
        }
        self.hash = extend_hash(self.hash, block);
        self.seq.extend_from_slice(block);
        self.queries = None;
        self.trace = None;
        self.kernel.append(&mut self.cluster, block)
    }

    /// Bytes this entry keeps resident: sequence + spine (+ cached root) +
    /// query structure + trace checkpoints, at 8 bytes per modeled item.
    pub fn footprint_bytes(&self) -> usize {
        let mut items = self.seq.len() / 2; // u32 elements, 4 bytes each
        items += self.kernel.footprint_items();
        if self.queries.is_some() {
            items += self.seq.len();
        }
        if let Some(trace) = &self.trace {
            items += trace.checkpoint_footprint();
        }
        8 * items
    }
}

fn cluster_for(n: usize, delta: f64) -> Cluster {
    Cluster::new(MpcConfig::lenient(n.max(4), delta))
}

/// The LRU kernel cache (see module docs).
pub struct KernelCache {
    budget_bytes: usize,
    delta: f64,
    block_size: usize,
    tick: u64,
    entries: HashMap<u64, CacheEntry>,
    counters: CacheCounters,
}

impl KernelCache {
    /// An empty cache evicting above `budget_bytes`; kernels run their
    /// clusters at `delta` and comb appended blocks in `block_size` chunks.
    pub fn new(budget_bytes: usize, delta: f64, block_size: usize) -> Self {
        Self {
            budget_bytes,
            delta,
            block_size,
            tick: 0,
            entries: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of resident entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Total resident bytes across entries.
    pub fn total_bytes(&self) -> usize {
        self.entries.values().map(CacheEntry::footprint_bytes).sum()
    }

    /// Space violations recorded across every resident entry's history.
    pub fn violations(&self) -> u64 {
        self.entries.values().map(CacheEntry::violations).sum()
    }

    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Ingests a sequence: a known content hash whose stored sequence is equal
    /// dedupes to a hit; otherwise the kernel is built and cached. Returns the
    /// key and whether it hit. A hash hit on a *different* stored sequence (an
    /// FNV collision) is refused and counted as a miss, never served.
    pub fn ingest(&mut self, seq: Vec<u32>) -> Result<(u64, bool), String> {
        let hash = content_hash(&seq);
        let stamp = self.stamp();
        if let Some(entry) = self.entries.get_mut(&hash) {
            if entry.seq != seq {
                self.counters.misses += 1;
                return Err(collision(hash));
            }
            entry.last_used = stamp;
            self.counters.hits += 1;
            return Ok((hash, true));
        }
        self.counters.misses += 1;
        let entry = CacheEntry::new(seq, self.delta, self.block_size, stamp);
        debug_assert_eq!(entry.hash, hash);
        self.entries.insert(hash, entry);
        self.evict_over_budget(hash);
        Ok((hash, false))
    }

    /// Looks up a hot entry by key, bumping its LRU stamp. A miss only
    /// counts the miss — the caller reports the unknown id.
    pub fn get(&mut self, hash: u64) -> Option<&mut CacheEntry> {
        let stamp = self.stamp();
        match self.entries.get_mut(&hash) {
            Some(entry) => {
                entry.last_used = stamp;
                self.counters.hits += 1;
                Some(entry)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Accesses an entry without touching the hit/miss counters — for
    /// follow-up reads by an operation that already counted itself.
    pub fn peek(&mut self, hash: u64) -> Option<&mut CacheEntry> {
        self.entries.get_mut(&hash)
    }

    /// Parses a hex id back to the cache key.
    pub fn parse_id(id: &str) -> Result<u64, String> {
        u64::from_str_radix(id, 16).map_err(|_| format!("malformed kernel id `{id}`"))
    }

    /// Extends a hot entry by `block`. The entry is re-keyed under the
    /// extended content hash (so a later `ingest` of the full sequence hits).
    /// If another entry already holds that key with different content (an FNV
    /// collision), the append is refused before anything is mutated.
    pub fn append(&mut self, hash: u64, block: &[u32]) -> Result<(u64, AppendStats), String> {
        let stamp = self.stamp();
        let new_hash = extend_hash(hash, block);
        if let (Some(entry), Some(target)) = (self.entries.get(&hash), self.entries.get(&new_hash))
        {
            let (head, tail) = target.seq.split_at(target.seq.len().min(entry.seq.len()));
            if new_hash != hash && (head != entry.seq.as_slice() || tail != block) {
                self.counters.misses += 1;
                return Err(collision(new_hash));
            }
        }
        let Some(mut entry) = self.entries.remove(&hash) else {
            self.counters.misses += 1;
            return Err(format!("unknown kernel id `{hash:016x}`"));
        };
        self.counters.hits += 1;
        entry.last_used = stamp;
        let stats = entry.append(block, self.delta);
        debug_assert_eq!(entry.hash, new_hash);
        self.entries.insert(new_hash, entry);
        self.evict_over_budget(new_hash);
        Ok((new_hash, stats))
    }

    /// Evicts least-recently-used entries (never `keep`) until the budget
    /// fits or only the protected entry remains. The resident total is
    /// summed once; each eviction subtracts its victim's footprint.
    fn evict_over_budget(&mut self, keep: u64) {
        let mut total = self.total_bytes();
        while total > self.budget_bytes && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(&k, _)| k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            match victim.and_then(|k| self.entries.remove(&k)) {
                Some(evicted) => {
                    total -= evicted.footprint_bytes();
                    self.counters.evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// The error a content-hash collision answers: two different sequences
/// share `hash`, so neither may be served under the other's id.
fn collision(hash: u64) -> String {
    format!("content hash collision on `{hash:016x}`: another sequence holds this id")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_seq(rng: &mut StdRng, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..1000)).collect()
    }

    #[test]
    fn hash_extension_matches_full_rehash() {
        let mut rng = StdRng::seed_from_u64(51);
        let seq = random_seq(&mut rng, 500);
        for cut in [0, 1, 250, 499, 500] {
            let extended = extend_hash(extend_hash(FNV_OFFSET, &seq[..cut]), &seq[cut..]);
            assert_eq!(extended, content_hash(&seq), "cut={cut}");
        }
        assert_ne!(content_hash(&[1, 2]), content_hash(&[2, 1]));
        assert_eq!(content_hash(&[]), FNV_OFFSET);
    }

    #[test]
    fn identical_resubmission_dedupes_to_one_build() {
        let mut rng = StdRng::seed_from_u64(52);
        let seq = random_seq(&mut rng, 200);
        let mut cache = KernelCache::new(usize::MAX, 0.5, 32);
        let (id1, hit1) = cache.ingest(seq.clone()).unwrap();
        let (id2, hit2) = cache.ingest(seq.clone()).unwrap();
        assert_eq!(id1, id2);
        assert!(!hit1 && hit2);
        assert_eq!(cache.entry_count(), 1);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn append_rekeys_to_the_full_sequence_hash() {
        let mut rng = StdRng::seed_from_u64(53);
        let seq = random_seq(&mut rng, 300);
        let (prefix, suffix) = seq.split_at(200);
        let mut cache = KernelCache::new(usize::MAX, 0.5, 32);
        let (id, _) = cache.ingest(prefix.to_vec()).unwrap();
        let (new_id, stats) = cache.append(id, suffix).unwrap();
        assert_eq!(new_id, content_hash(&seq), "append key = full-sequence key");
        assert!(stats.blocks_combed >= 1);
        // Ingesting the full sequence now hits the appended entry.
        let (again, hit) = cache.ingest(seq.clone()).unwrap();
        assert_eq!(again, new_id);
        assert!(hit);
        // The appended kernel answers like a fresh build.
        let entry = cache.get(new_id).unwrap();
        let direct = SemiLocalLis::new(&seq);
        assert_eq!(
            entry.queries().lis_window(0, seq.len()),
            direct.lis_window(0, seq.len())
        );
        assert_eq!(entry.violations(), 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let mut rng = StdRng::seed_from_u64(54);
        let mut cache = KernelCache::new(1, 0.5, 16); // everything over budget
        let (a, _) = cache.ingest(random_seq(&mut rng, 100)).unwrap();
        let (b, _) = cache.ingest(random_seq(&mut rng, 100)).unwrap();
        // The just-inserted entry is protected; the older one is evicted.
        assert_eq!(cache.entry_count(), 1);
        assert!(cache.get(b).is_some());
        assert!(cache.get(a).is_none());
        assert_eq!(cache.counters().evictions, 1);

        // A generous budget keeps both.
        let mut cache = KernelCache::new(usize::MAX, 0.5, 16);
        cache.ingest(random_seq(&mut rng, 100)).unwrap();
        cache.ingest(random_seq(&mut rng, 100)).unwrap();
        assert_eq!(cache.entry_count(), 2);
        assert!(cache.total_bytes() > 0);

        // One large insert evicts several older entries at once.
        let small: Vec<Vec<u32>> = (0..3).map(|_| random_seq(&mut rng, 50)).collect();
        let mut probe = KernelCache::new(usize::MAX, 0.5, 16);
        for seq in &small {
            probe.ingest(seq.clone()).unwrap();
        }
        let mut cache = KernelCache::new(probe.total_bytes(), 0.5, 16);
        for seq in &small {
            cache.ingest(seq.clone()).unwrap();
        }
        assert_eq!(cache.entry_count(), 3);
        assert_eq!(cache.counters().evictions, 0);
        let (big, _) = cache.ingest(random_seq(&mut rng, 2000)).unwrap();
        assert_eq!(cache.entry_count(), 1);
        assert_eq!(cache.counters().evictions, 3);
        assert!(cache.get(big).is_some());
    }

    #[test]
    fn unknown_ids_count_misses_and_report() {
        let mut cache = KernelCache::new(usize::MAX, 0.5, 16);
        assert!(cache.get(42).is_none());
        assert!(cache.append(42, &[1]).unwrap_err().contains("unknown"));
        assert_eq!(cache.counters().misses, 2);
        assert!(KernelCache::parse_id("zz").is_err());
        assert_eq!(KernelCache::parse_id("2a").unwrap(), 42);
    }
}
