// conformance-fixture: kernel-crate
// L6 counterpart: the reference's own recursion carries a justified allow,
// and test code compares the fast path against the oracle freely.

pub fn mul_rows_reference(pa: &[u32], pb: &[u32]) -> Vec<u32> {
    if pa.len() <= 1 {
        return pa.to_vec();
    }
    let half = pa.len() / 2;
    // conformance: allow(oracle-call) — the reference recurses into itself;
    // nothing outside it reaches this call.
    let mut lo = mul_rows_reference(&pa[..half], &pb[..half]);
    // conformance: allow(oracle-call) — the second half of the same recursion.
    lo.extend(mul_rows_reference(&pa[half..], &pb[half..]));
    lo
}

#[cfg(test)]
mod tests {
    use seaweed_lis::kernel::SeaweedKernel;

    #[test]
    fn fast_comb_matches_the_oracle() {
        let (x, y) = ([0u32, 1], [1u32, 0]);
        assert_eq!(
            SeaweedKernel::comb_bitparallel(&x, &y),
            SeaweedKernel::comb(&x, &y)
        );
        assert_eq!(super::mul_rows_reference(&[0], &[0]), vec![0]);
    }
}
