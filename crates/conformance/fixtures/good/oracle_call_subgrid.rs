// conformance-fixture: kernel-crate
// L6 counterpart: production resolves subgrids with the fast kernel, the
// reference's own definition is no call, and test code compares the two.

use monge::multiway::{process_subgrid, SubgridInstance, SubgridOutput, SubgridTables};

pub fn resolve(sub: &SubgridTables<'_>) -> SubgridOutput {
    process_subgrid(sub)
}

pub fn process_subgrid_reference(inst: &SubgridInstance) -> SubgridOutput {
    SubgridOutput {
        nonzeros: inst.row_pts.iter().map(|p| (p.row, p.col)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use monge::multiway::{process_subgrid, process_subgrid_reference};
    use monge::multiway::{ColoredPoint, SubgridTables};

    #[test]
    fn fast_resolver_matches_the_oracle() {
        let point = [ColoredPoint {
            row: 0,
            col: 0,
            color: 0,
        }];
        let sub = SubgridTables {
            r0: 0,
            r1: 1,
            c0: 0,
            c1: 1,
            wlo: 0,
            base_f: &[0],
            rows: &point,
            cols: &point,
        };
        assert_eq!(process_subgrid(&sub), process_subgrid_reference(&sub.instance()));
    }
}
