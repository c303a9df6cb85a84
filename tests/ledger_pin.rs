//! Pins the accounting of the determinism workload to literal values.
//!
//! `tests/determinism.rs` proves the ledger does not depend on the thread
//! count; this suite proves it does not move between commits either. The
//! values below are the ⊡ and LIS ledgers of [`common::workload`] as the
//! simulator charged them before its rank-search value side became a shared,
//! radix-sorted index. A simulator speed-up must leave every one of them
//! unchanged; a deliberate change to the cost model updates them here, in
//! the same commit, with the reason.

mod common;

use monge_mpc_suite::mpc_runtime::Ledger;
use std::collections::BTreeMap;

/// The pinned fields of one ledger.
struct Pin {
    rounds: u64,
    communication: u64,
    max_machine_load: usize,
    rounds_by_phase: &'static [(&'static str, u64)],
    comm_by_phase: &'static [(&'static str, u64)],
    max_load_by_phase: &'static [(&'static str, usize)],
    primitive_counts: &'static [(&'static str, u64)],
    superstep_spans: &'static [(&'static str, (u64, u64))],
}

fn owned<V: Copy>(pairs: &[(&str, V)]) -> BTreeMap<String, V> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn assert_pinned(what: &str, ledger: &Ledger, pin: &Pin) {
    assert_eq!(ledger.rounds, pin.rounds, "{what}: rounds");
    assert_eq!(
        ledger.communication, pin.communication,
        "{what}: communication"
    );
    assert_eq!(
        ledger.max_machine_load, pin.max_machine_load,
        "{what}: max_machine_load"
    );
    assert_eq!(ledger.space_violations, 0, "{what}: space violations");
    assert!(
        ledger.fault_events.is_empty(),
        "{what}: no faults were planned"
    );
    assert_eq!(
        ledger.rounds_by_phase,
        owned(pin.rounds_by_phase),
        "{what}: rounds_by_phase"
    );
    assert_eq!(
        ledger.comm_by_phase,
        owned(pin.comm_by_phase),
        "{what}: comm_by_phase"
    );
    assert_eq!(
        ledger.max_load_by_phase,
        owned(pin.max_load_by_phase),
        "{what}: max_load_by_phase"
    );
    let counts: BTreeMap<&str, u64> = pin.primitive_counts.iter().copied().collect();
    assert_eq!(ledger.primitive_counts, counts, "{what}: primitive_counts");
    assert_eq!(
        ledger.superstep_spans,
        owned(pin.superstep_spans),
        "{what}: superstep_spans"
    );
}

#[test]
fn workload_ledgers_match_pinned_values() {
    let (_, mul_ledger, _, _, lis_ledger, _) = common::workload();
    assert_pinned("⊡", &mul_ledger, &MUL);
    assert_pinned("LIS", &lis_ledger, &LIS);
}

const MUL: Pin = Pin {
    rounds: 548,
    communication: 92441,
    max_machine_load: 117,
    rounds_by_phase: &[
        ("combine", 60),
        ("combine-grid", 216),
        ("combine-route", 174),
        ("lift", 45),
        ("local-solve", 8),
        ("split", 45),
    ],
    comm_by_phase: &[
        ("combine", 25366),
        ("combine-grid", 31725),
        ("combine-route", 25390),
        ("lift", 3762),
        ("local-solve", 636),
        ("split", 5562),
    ],
    max_load_by_phase: &[
        ("combine", 117),
        ("combine-grid", 26),
        ("combine-route", 83),
        ("lift", 43),
        ("local-solve", 44),
        ("split", 17),
    ],
    primitive_counts: &[
        ("broadcast", 20),
        ("concat", 44),
        ("distribute", 5),
        ("filter", 56),
        ("flat_map", 24),
        ("group_map", 31),
        ("group_map_rebalanced", 9),
        ("map", 98),
        ("multicast", 9),
        ("rank_search", 24),
        ("rank_search_multi", 21),
    ],
    superstep_spans: &[
        ("combine", (34, 103)),
        ("combine-grid", (24, 99)),
        ("combine-route", (38, 114)),
        ("lift", (19, 85)),
        ("local-solve", (16, 18)),
        ("split", (1, 15)),
    ],
};

const LIS: Pin = Pin {
    rounds: 3171,
    communication: 1425186,
    max_machine_load: 135,
    rounds_by_phase: &[
        ("lis-base", 6),
        ("lis-merge-L1", 0),
        ("lis-merge-L1/combine", 40),
        ("lis-merge-L1/combine-grid", 204),
        ("lis-merge-L1/combine-route", 116),
        ("lis-merge-L1/lift", 30),
        ("lis-merge-L1/local-solve", 8),
        ("lis-merge-L1/relabel", 3),
        ("lis-merge-L1/split", 30),
        ("lis-merge-L2", 0),
        ("lis-merge-L2/combine", 60),
        ("lis-merge-L2/combine-grid", 324),
        ("lis-merge-L2/combine-route", 174),
        ("lis-merge-L2/lift", 45),
        ("lis-merge-L2/local-solve", 8),
        ("lis-merge-L2/relabel", 3),
        ("lis-merge-L2/split", 45),
        ("lis-merge-L3", 0),
        ("lis-merge-L3/combine", 80),
        ("lis-merge-L3/combine-grid", 456),
        ("lis-merge-L3/combine-route", 232),
        ("lis-merge-L3/lift", 60),
        ("lis-merge-L3/local-solve", 8),
        ("lis-merge-L3/relabel", 3),
        ("lis-merge-L3/split", 60),
        ("lis-merge-L4", 0),
        ("lis-merge-L4/combine", 100),
        ("lis-merge-L4/combine-grid", 600),
        ("lis-merge-L4/combine-route", 290),
        ("lis-merge-L4/lift", 75),
        ("lis-merge-L4/local-solve", 8),
        ("lis-merge-L4/relabel", 3),
        ("lis-merge-L4/split", 75),
        ("lis-rank", 4),
        ("lis-witness-L1/split", 3),
        ("lis-witness-L2/split", 3),
        ("lis-witness-L3/split", 3),
        ("lis-witness-L4/split", 3),
        ("lis-witness-base/concat", 3),
        ("lis-witness-base/reconstruct", 6),
    ],
    comm_by_phase: &[
        ("lis-base", 600),
        ("lis-merge-L1/combine", 71959),
        ("lis-merge-L1/combine-grid", 58981),
        ("lis-merge-L1/combine-route", 59463),
        ("lis-merge-L1/lift", 10332),
        ("lis-merge-L1/local-solve", 2644),
        ("lis-merge-L1/split", 15132),
        ("lis-merge-L2/combine", 100996),
        ("lis-merge-L2/combine-grid", 73037),
        ("lis-merge-L2/combine-route", 75316),
        ("lis-merge-L2/lift", 14058),
        ("lis-merge-L2/local-solve", 2404),
        ("lis-merge-L2/split", 20538),
        ("lis-merge-L3/combine", 139027),
        ("lis-merge-L3/combine-grid", 99070),
        ("lis-merge-L3/combine-route", 108367),
        ("lis-merge-L3/lift", 20664),
        ("lis-merge-L3/local-solve", 2644),
        ("lis-merge-L3/split", 30264),
        ("lis-merge-L4/combine", 186487),
        ("lis-merge-L4/combine-grid", 131387),
        ("lis-merge-L4/combine-route", 134323),
        ("lis-merge-L4/lift", 25830),
        ("lis-merge-L4/local-solve", 2644),
        ("lis-merge-L4/split", 37830),
        ("lis-witness-L1/split", 122),
        ("lis-witness-L2/split", 122),
        ("lis-witness-L3/split", 122),
        ("lis-witness-L4/split", 122),
        ("lis-witness-base/concat", 87),
        ("lis-witness-base/reconstruct", 614),
    ],
    max_load_by_phase: &[
        ("lis-base", 135),
        ("lis-merge-L1", 80),
        ("lis-merge-L1/combine", 88),
        ("lis-merge-L1/combine-grid", 6),
        ("lis-merge-L1/combine-route", 36),
        ("lis-merge-L1/lift", 55),
        ("lis-merge-L1/local-solve", 90),
        ("lis-merge-L1/relabel", 10),
        ("lis-merge-L1/split", 10),
        ("lis-merge-L2", 92),
        ("lis-merge-L2/combine", 89),
        ("lis-merge-L2/combine-grid", 4),
        ("lis-merge-L2/combine-route", 33),
        ("lis-merge-L2/lift", 54),
        ("lis-merge-L2/local-solve", 90),
        ("lis-merge-L2/relabel", 9),
        ("lis-merge-L2/split", 9),
        ("lis-merge-L3", 110),
        ("lis-merge-L3/combine", 105),
        ("lis-merge-L3/combine-grid", 4),
        ("lis-merge-L3/combine-route", 39),
        ("lis-merge-L3/lift", 55),
        ("lis-merge-L3/local-solve", 90),
        ("lis-merge-L3/relabel", 10),
        ("lis-merge-L3/split", 10),
        ("lis-merge-L4", 112),
        ("lis-merge-L4/combine", 119),
        ("lis-merge-L4/combine-grid", 4),
        ("lis-merge-L4/combine-route", 39),
        ("lis-merge-L4/lift", 48),
        ("lis-merge-L4/local-solve", 76),
        ("lis-merge-L4/relabel", 10),
        ("lis-merge-L4/split", 10),
        ("lis-witness-L1/split", 3),
        ("lis-witness-L2/split", 4),
        ("lis-witness-L3/split", 5),
        ("lis-witness-L4/split", 5),
        ("lis-witness-base/concat", 1),
        ("lis-witness-base/reconstruct", 46),
    ],
    primitive_counts: &[
        ("broadcast", 92),
        ("cogroup_map", 1),
        ("concat", 252),
        ("distribute", 29),
        ("filter", 356),
        ("flat_map", 160),
        ("group_map", 193),
        ("group_map_rebalanced", 42),
        ("lis-rank", 1),
        ("lis-relabel", 4),
        ("map", 552),
        ("multicast", 42),
        ("prefix_sum", 4),
        ("rank_search", 112),
        ("rank_search_multi", 146),
        ("sort", 1),
        ("witness-route", 4),
    ],
    superstep_spans: &[
        ("lis-base", (2, 2)),
        ("lis-merge-L1/combine", (38, 79)),
        ("lis-merge-L1/combine-grid", (22, 75)),
        ("lis-merge-L1/combine-route", (42, 90)),
        ("lis-merge-L1/lift", (17, 57)),
        ("lis-merge-L1/local-solve", (14, 16)),
        ("lis-merge-L1/relabel", (3, 3)),
        ("lis-merge-L1/split", (4, 13)),
        ("lis-merge-L2/combine", (131, 212)),
        ("lis-merge-L2/combine-grid", (115, 208)),
        ("lis-merge-L2/combine-route", (135, 223)),
        ("lis-merge-L2/lift", (110, 188)),
        ("lis-merge-L2/local-solve", (107, 109)),
        ("lis-merge-L2/relabel", (91, 91)),
        ("lis-merge-L2/split", (92, 106)),
        ("lis-merge-L3/combine", (269, 392)),
        ("lis-merge-L3/combine-grid", (253, 388)),
        ("lis-merge-L3/combine-route", (273, 403)),
        ("lis-merge-L3/lift", (248, 366)),
        ("lis-merge-L3/local-solve", (245, 247)),
        ("lis-merge-L3/relabel", (224, 224)),
        ("lis-merge-L3/split", (225, 244)),
        ("lis-merge-L4/combine", (454, 621)),
        ("lis-merge-L4/combine-grid", (438, 617)),
        ("lis-merge-L4/combine-route", (458, 632)),
        ("lis-merge-L4/lift", (433, 593)),
        ("lis-merge-L4/local-solve", (430, 432)),
        ("lis-merge-L4/relabel", (404, 404)),
        ("lis-merge-L4/split", (405, 429)),
        ("lis-rank", (1, 1)),
        ("lis-witness-L1/split", (639, 640)),
        ("lis-witness-L2/split", (637, 638)),
        ("lis-witness-L3/split", (635, 636)),
        ("lis-witness-L4/split", (633, 634)),
        ("lis-witness-base/concat", (642, 642)),
        ("lis-witness-base/reconstruct", (641, 641)),
    ],
};
