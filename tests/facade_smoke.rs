//! Smoke test pinning the facade's re-export surface.
//!
//! Every import below is a path that `tests/end_to_end.rs`, `tests/properties.rs`
//! or the `examples/` rely on. If a crate manifest or the facade's `pub use` list
//! regresses, this file stops compiling — so manifest mistakes are caught by
//! tier-1 (`cargo test -q`) rather than only by the heavier suites.

use monge_mpc_suite::lis_mpc::lcs::lcs_mpc;
use monge_mpc_suite::lis_mpc::{lcs_length_mpc, lis_kernel_mpc, lis_length_mpc, MpcLisOutcome};
use monge_mpc_suite::monge::distribution::DistributionMatrix;
use monge_mpc_suite::monge::multiway::mul_multiway;
use monge_mpc_suite::monge::verify::{explicit_distribution, is_subunit_monge, verify_product};
use monge_mpc_suite::monge::{
    mul_dense, mul_steady_ant, mul_steady_ant_sub, PermutationMatrix, SubPermutationMatrix,
};
use monge_mpc_suite::monge_mpc::{self, MulParams};
use monge_mpc_suite::mpc_runtime::{costs, Cluster, Ledger, MpcConfig};
use monge_mpc_suite::seaweed_lis::baselines::{lcs_length_dp, lis_length_patience};
use monge_mpc_suite::seaweed_lis::kernel::{compose_horizontal, SeaweedKernel};
use monge_mpc_suite::seaweed_lis::lcs::lcs_via_lis;
use monge_mpc_suite::seaweed_lis::lis::{lis_kernel, lis_length, SemiLocalLis};

/// One tiny instance pushed through every layer the facade exposes: sequential
/// multiplication, the MPC multiplication, and the LIS/LCS applications.
#[test]
fn facade_paths_stay_wired() {
    // Sequential seaweed algebra.
    let a = PermutationMatrix::from_rows(vec![2, 0, 1, 3]);
    let b = PermutationMatrix::from_rows(vec![1, 3, 0, 2]);
    let product = mul_steady_ant(&a, &b);
    assert_eq!(product, mul_dense(&a, &b));
    assert_eq!(product, mul_multiway(&a, &b, 2, 2));
    assert!(verify_product(&a, &b, &product));
    assert!(DistributionMatrix::from_permutation(&product).is_monge());

    let sub: SubPermutationMatrix = a.to_sub();
    assert!(is_subunit_monge(&explicit_distribution(&sub)));
    let _ = mul_steady_ant_sub(&sub, &b.to_sub());

    // The MPC layer and its ledger.
    let mut cluster = Cluster::new(MpcConfig::new(4, 0.5).with_space(8));
    let params = MulParams::default();
    assert_eq!(monge_mpc::mul(&mut cluster, &a, &b, &params), product);
    let ledger: &Ledger = cluster.ledger();
    assert!(ledger.rounds >= costs::SORT);

    // LIS / LCS applications, sequential and MPC.
    let seq = [3u32, 1, 4, 1, 5, 9, 2, 6];
    assert_eq!(lis_length(&seq), lis_length_patience(&seq));
    assert_eq!(lis_kernel(&seq).lcs_window(0, seq.len()), lis_length(&seq));
    assert_eq!(SemiLocalLis::new(&seq).lis_window(0, seq.len()), 4);

    let mut cluster = Cluster::new(MpcConfig::new(8, 0.5));
    assert_eq!(lis_length_mpc(&mut cluster, &seq, &MulParams::default()), 4);
    let outcome: MpcLisOutcome = lis_kernel_mpc(&mut cluster, &seq, &MulParams::default());
    assert_eq!(outcome.length, 4);
    assert_eq!(outcome.kernel.lcs_window(0, seq.len()), 4);

    let (x, y) = ([1u32, 2, 3, 2], [2u32, 1, 2, 3]);
    assert_eq!(lcs_via_lis(&x, &y), lcs_length_dp(&x, &y));
    let mut cluster = Cluster::new(MpcConfig::new(16, 0.5));
    assert_eq!(
        lcs_length_mpc(&mut cluster, &x, &y, &MulParams::default()),
        lcs_length_dp(&x, &y)
    );
    let mut cluster = Cluster::new(MpcConfig::new(16, 0.5));
    let (lcs_len, _match_pairs) = lcs_mpc(&mut cluster, &x, &y, &MulParams::default());
    assert_eq!(lcs_len, lcs_length_dp(&x, &y));

    // Sequential kernels compose.
    let k1 = SeaweedKernel::comb(&x, &y[..2]);
    let k2 = SeaweedKernel::comb(&x, &y[2..]);
    assert_eq!(compose_horizontal(&k1, &k2), SeaweedKernel::comb(&x, &y));
}
