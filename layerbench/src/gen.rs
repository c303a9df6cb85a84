//! Seeded input generation. Everything a workload feeds the program is drawn
//! here from the `--seed` argument, so the same seed yields the same inputs.

use rand::prelude::*;

/// Derives an independent stream seed from the run seed and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags, one per kind of generated input.
pub mod tag {
    /// The `i`-th solve input of the lis_mpc workload is `SOLVE + i`.
    pub const SOLVE: u64 = 1 << 32;
    /// The `i`-th hot sequence of a service workload is `HOT + i`.
    pub const HOT: u64 = 2 << 32;
    /// Request pools.
    pub const POOL: u64 = 3 << 32;
    /// Append blocks.
    pub const APPEND: u64 = 5 << 32;
    /// Per-client request draws.
    pub const CLIENT: u64 = 6 << 32;
    /// Layer-ladder inputs.
    pub const LADDER: u64 = 7 << 32;
    /// Warm-up inputs.
    pub const WARM: u64 = 8 << 32;
}

/// The lis_mpc solve input: the `exp_lis_rounds` noisy trend (noise `n/3`).
pub fn trend(n: usize, seed: u64) -> Vec<u32> {
    bench_suite::noisy_trend(n, (n / 3).max(2) as u32, seed)
}

/// A service sequence: `n` values drawn from `0..n/2` (duplicates included),
/// as `exp_service` ingests.
pub fn service_sequence(n: usize, seed: u64) -> Vec<u32> {
    bench_suite::random_sequence(n, (n as u32 / 2).max(2), seed)
}

/// A request against one hot sequence, with everything needed to check it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// `LIS(seq[l..r))`.
    Window {
        /// Window start.
        l: usize,
        /// Window end (exclusive).
        r: usize,
    },
    /// One witness for values in `[lo, hi)`.
    Witness {
        /// Lowest admitted value.
        lo: u32,
        /// One past the highest admitted value.
        hi: u32,
    },
}

/// `count` random position windows `[l, r)` with `l < r ≤ n`.
pub fn windows(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            (a.min(b), a.max(b) + 1)
        })
        .collect()
}

/// `count` random value ranges `[lo, hi)` over `0..span`, each at least an
/// eighth of the span wide so witnesses are non-trivial.
pub fn value_ranges(span: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let min_width = (span / 8).max(1);
    (0..count)
        .map(|_| {
            let lo = rng.gen_range(0..span - min_width.min(span - 1));
            let hi = rng.gen_range(lo + min_width..=span);
            (lo, hi)
        })
        .collect()
}

/// A random block of `len` values from `0..span`.
pub fn block(len: usize, span: u32, seed: u64) -> Vec<u32> {
    bench_suite::random_sequence(len, span.max(2), seed)
}
