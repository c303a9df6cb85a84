// conformance-fixture: kernel-crate
// L6 seed: a production combine resolves its subgrids with the reference
// resolver instead of the table-reading kernel.

use monge::multiway::{process_subgrid_reference, SubgridOutput, SubgridTables};

pub fn resolve(sub: &SubgridTables<'_>) -> SubgridOutput {
    process_subgrid_reference(&sub.instance())
}
