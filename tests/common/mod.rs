//! The shared determinism workload: one forced-recursion ⊡ multiplication
//! and one multi-level MPC LIS with witness recovery. `determinism.rs` runs
//! it at several thread counts; `ledger_pin.rs` pins its ledgers.

use monge_mpc_suite::lis_mpc::lis_witness_mpc;
use monge_mpc_suite::monge::PermutationMatrix;
use monge_mpc_suite::monge_mpc::{self, MulParams};
use monge_mpc_suite::mpc_runtime::{Cluster, Ledger, MpcConfig};
use monge_mpc_suite::seaweed_lis::kernel::SeaweedKernel;
use rand::prelude::*;

pub fn random_permutation(n: usize, seed: u64) -> PermutationMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<u32> = (0..n as u32).collect();
    v.shuffle(&mut rng);
    PermutationMatrix::from_rows(v)
}

pub fn noisy_sequence(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| i as u32 + rng.gen_range(0..(n as u32 / 3).max(2)))
        .collect()
}

/// The full end-to-end workload: one forced-recursion ⊡ multiplication and one
/// multi-level MPC LIS *with witness recovery*, returning everything that must
/// be invariant (the recovered witness positions included — the traceback's
/// splits and base reconstructions must not depend on scheduling).
#[allow(clippy::type_complexity)]
pub fn workload() -> (
    PermutationMatrix,
    Ledger,
    usize,
    SeaweedKernel,
    Ledger,
    Vec<usize>,
) {
    // Multiplication with several split/combine levels.
    let n = 300;
    let a = random_permutation(n, 0xA11CE);
    let b = random_permutation(n, 0xB0B);
    let mut mul_cluster = Cluster::new(MpcConfig::new(n, 0.5));
    let params = MulParams::default()
        .with_h(3)
        .with_g(8)
        .with_local_threshold(24);
    let product = monge_mpc::mul(&mut mul_cluster, &a, &b, &params);
    let mul_ledger = mul_cluster.ledger().clone();

    // LIS with several merge levels (a large δ shrinks the strict budget and
    // forces depth; the space-conformant pipeline runs violation-free), with
    // the witness traceback on top.
    let seq = noisy_sequence(600, 0xC0DE);
    let mut lis_cluster = Cluster::new(MpcConfig::new(seq.len(), 0.75));
    let outcome = lis_witness_mpc(&mut lis_cluster, &seq, &MulParams::default());
    let lis_ledger = lis_cluster.ledger().clone();

    (
        product,
        mul_ledger,
        outcome.length,
        outcome.kernel,
        lis_ledger,
        outcome.witness.expect("witness requested"),
    )
}
