// conformance-fixture: kernel-crate
// L6 seed: production paths reach for the differential oracles instead of
// the fast kernels.

use monge::steady_ant;
use seaweed_lis::kernel::SeaweedKernel;

pub fn empty_kernel() -> SeaweedKernel {
    SeaweedKernel::comb(&[], &[])
}

pub fn product_rows(pa: &[u32], pb: &[u32]) -> Vec<u32> {
    steady_ant::mul_rows_reference(pa, pb)
}
