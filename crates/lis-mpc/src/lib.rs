//! Massively-parallel LIS and LCS on top of the MPC unit-Monge multiplication.
//!
//! * [`lis`] — Theorem 1.3: the exact length of the longest increasing subsequence in
//!   `O(log n)` fully-scalable MPC rounds (and, as a by-product, the full semi-local
//!   LIS kernel — Corollary 1.3.2).
//! * [`lcs`] — Corollary 1.3.1: the exact LCS length via the Hunt–Szymanski
//!   reduction to LIS, assuming the Õ(n²)-total-space regime of the corollary.
//!
//! The divide and conquer follows §4.2 of the paper (and Theorem 1.2 of CHS23 that it
//! references): the sequence is cut into blocks, each block's seaweed kernel is
//! computed locally, and adjacent kernels are merged level by level — every level
//! costs `O(1)` rounds (relabelling by sorting plus one batched `⊡`), and there are
//! `O(log n)` levels.
//!
//! Both pipelines are **space-conformant**: they run on strict
//! [`mpc_runtime::MpcConfig::new`] clusters (any budget overshoot panics) with
//! zero recorded violations at every `δ`. Base blocks are sized off the
//! per-machine budget in one place ([`lis::base_block_size`]: the largest `B`
//! with `3·B·⌈⌈n/B⌉/m⌉ ≤ s`, because a block materializes its value set plus a
//! `2B`-entry kernel), block kernels are built locally in an `O(B)`-word
//! working set and emitted entry-wise so the ledger sees their real footprint,
//! and every merge level runs its `⊡` under a `lis-merge-L<k>` ledger scope so
//! rounds, communication and loads are attributed per level.
//!
//! Beyond lengths, both pipelines recover actual **witnesses**:
//! [`lis::lis_witness_mpc`] returns the positions of one longest increasing
//! subsequence and [`lcs::lcs_witness_mpc`] one common subsequence's matched
//! index pairs, via the [`witness`] top-down traceback over the recorded merge
//! tree — `O(log n)` extra rounds under `lis-witness-L<k>` ledger scopes, still
//! strict.
//!
//! Both pipelines are also **fault-tolerant**: under a kill schedule
//! ([`mpc_runtime::MpcConfig::with_faults`]) every merge level's nodes double
//! as checkpoints replicated onto neighbor machines, and a machine crash at
//! any level is repaired by re-deriving the lost shard from the level below —
//! re-combing base blocks from the durable input (`recovery-base` scope) or
//! re-running the lost pairs' `⊡` merges from the level-(L−1) checkpoints
//! (`recovery-L<k>`), in `O(1)` extra rounds per fault. Straggler delays are
//! absorbed by the superstep barrier and charged to
//! [`mpc_runtime::Ledger::stall_rounds`]. Recovered lengths and witnesses are
//! bit-identical to the fault-free run, still strict (the private `recovery`
//! module documents the placement and repair rules).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod append;
pub mod lcs;
pub mod lis;
mod recovery;
pub mod witness;

pub use append::{AppendStats, AppendableLisKernel};
pub use lcs::{lcs_length_mpc, lcs_witness_mpc, MpcLcsOutcome};
pub use lis::{lis_kernel_mpc, lis_length_mpc, lis_witness_mpc, MpcLisOutcome};
pub use witness::{recover_batch, WitnessTrace};
