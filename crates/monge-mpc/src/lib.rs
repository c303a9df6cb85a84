//! The paper's primary contribution: fully-scalable MPC algorithms for implicit
//! (sub)unit-Monge matrix multiplication, executed on the simulated cluster of
//! `mpc-runtime`.
//!
//! * [`mul`](fn@mul) / [`mul_batch`] — Theorem 1.1: multiply permutation matrices with a
//!   constant number of rounds per recursion level. With the paper's parameters
//!   (`H = n^{(1−δ)/10}`, `G = n^{1−δ}`) the recursion depth is `O(1)`, hence `O(1)`
//!   rounds overall; with `H = 2` the same code becomes the §1.4 warmup baseline
//!   whose depth (and round count) grows as `Θ(log n)`.
//! * [`mul_sub`] — Theorem 1.2: the sub-permutation extension via the §4.1 padding.
//! * [`MulParams`] — the tunables (`H`, `G`, local threshold, routing strategy).
//!
//! The algorithm follows §3 of the paper:
//!
//! 1. **Split** (§3.1): `P_A` is cut into `H` column slices and `P_B` into `H` row
//!    slices; the compacted subproblems are built with `O(1)` rounds of sorting and
//!    rank-relabelling.
//! 2. **Recurse**: all subproblems of all batched instances are solved together,
//!    level by level; a subproblem that fits into one machine's space is solved
//!    locally with the steady-ant kernel.
//! 3. **Combine** (§3.2–3.3): the `H` colored subresults of each instance are merged
//!    in a constant number of rounds — grid-line crossovers (`cmp`, `opt`
//!    breakpoints, demarcation rows `b_q`) computed by descending the colored
//!    H-ary tree with batched rank-search packages, active-subgrid
//!    identification, Lemma 3.12 pierced-interval routing, and the per-subgrid
//!    local phase (`monge::multiway::process_subgrid`). The simulator charges
//!    every tree query as the model runs it but builds no tree: it reads the
//!    counts from each parent's row and column tables (see [`combine`]).
//!
//! ## Space conformance
//!
//! Two earlier engineering deviations from the paper are **retired**: the §3.2
//! crossover values are computed by the space-conformant H-ary tree descent
//! instead of a per-instance gather, and the §3.3 routing ships the Lemma 3.12
//! pierced intervals ([`Routing::Pierced`], the default) instead of whole
//! row/column point ranges. With the paper's parameters the whole
//! multiplication runs on a *strict* cluster — one that panics the moment any
//! machine would exceed its `Õ(n^{1−δ})` budget — with zero recorded
//! violations (`tests/mpc_model.rs`, `exp_space`). The correctness oracle is
//! the sequential product (`monge::steady_ant`). The band routing survives as
//! an explicitly-selected ablation baseline, [`Routing::Bands`] (factor-`H`
//! extra routed volume, visible in the ledger's per-phase communication
//! breakdown); its ablation runs use [`mpc_runtime::MpcConfig::lenient`]
//! clusters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod combine;
pub mod mul;
pub mod params;
pub mod subperm;

pub use mul::{mul, mul_batch};
pub use params::{MulParams, Routing};
pub use subperm::mul_sub;
