//! A deterministic simulator for the Massively Parallel Computation (MPC) model.
//!
//! The MPC model (§1.1 of the paper): `m = O(n^δ)` machines, each with local space
//! `s = Õ(n^{1−δ})`; computation proceeds in synchronous rounds; in every round each
//! machine computes locally on its data and then exchanges at most `s` words. The
//! primary complexity measure is the number of rounds.
//!
//! This crate replaces the paper's idealized cluster with an in-process simulator:
//!
//! * [`MpcConfig`] fixes `n`, `δ`, the machine count and the per-machine space budget.
//! * [`Cluster`] owns the round/space/communication ledger and executes *supersteps*
//!   over [`DistVec`]s (vectors partitioned across the virtual machines). Per-machine
//!   local work genuinely runs in parallel (a scoped thread pool honoring
//!   `RAYON_NUM_THREADS`); every primitive is split into a pure parallel *compute*
//!   phase and a single-threaded *account* phase applying a [`ledger::Superstep`]
//!   receipt, so ledger totals and outputs are bit-identical at every thread count.
//! * [`Cluster::sort_by_key`], [`Cluster::group_map_view`], [`Cluster::rank_search`],
//!   [`Cluster::broadcast`], … implement the deterministic `O(1)`-round primitives of
//!   Goodrich–Sitchinava–Zhang that the paper invokes (Lemmas 2.3–2.6), each charged a
//!   fixed constant number of rounds (see [`costs`]).
//!
//! The simulator measures exactly the quantities the paper's theorems are about —
//! rounds, peak per-machine load, total communication — and can either record or
//! enforce the space budget.
//!
//! # Fault injection and recovery scopes
//!
//! A [`FaultPlan`] attached via [`MpcConfig::with_faults`] schedules machine
//! **kills** (crash + cold-standby replacement with empty memory) and
//! **delays** (stragglers) at explicit superstep indices. The [`Cluster`]
//! maintains a deterministic superstep counter — advanced once per
//! communicating primitive — and fires each event exactly when the counter
//! reaches its superstep, recording a [`FaultRecord`] in the [`Ledger`]. Kills
//! are queued for the running algorithm to drain via [`Cluster::poll_kills`];
//! recovery work it performs in response is expected to run under a
//! `recovery-*` ledger scope (the LIS/LCS pipelines use `recovery-base`,
//! `recovery-L<k>` and `recovery-witness-L<k>`), so the extra rounds are
//! separately attributable. Delays are absorbed by the synchronous barrier and
//! charged to [`Ledger::stall_rounds`], never to [`Ledger::rounds`]: round
//! complexity is a synchronous measure, stragglers stretch wall-clock only.
//! Fault firing, recovery, and all accounting are bit-identical at every
//! thread count, which is what makes chaos schedules replayable from a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod costs;
pub mod distvec;
pub mod faults;
pub mod group;
pub mod ledger;
pub mod rank_index;

pub use cluster::Cluster;
pub use config::MpcConfig;
pub use distvec::{DistVec, Shape};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultRecord};
pub use group::{Group, Placement};
pub use ledger::{Ledger, Superstep};
pub use rank_index::{RankIndex, RankKey};
