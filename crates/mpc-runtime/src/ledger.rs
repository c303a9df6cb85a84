//! Accounting of rounds, communication, per-machine load and fault events.

use crate::faults::{FaultKind, FaultRecord};
use std::collections::BTreeMap;

/// The costs of one primitive invocation, assembled *beside* the parallel
/// compute phase and applied to the [`Ledger`] in a single deterministic
/// accounting step on the calling thread (see `cluster.rs` for the two-phase
/// structure). Keeping the receipt separate from the ledger is what lets the
/// per-machine compute run on worker threads without ever touching `&mut
/// Ledger`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Superstep {
    /// Name of the primitive being charged.
    pub primitive: &'static str,
    /// Rounds the primitive costs (a constant per primitive; see [`crate::costs`]).
    pub rounds: u64,
    /// Items moved between machines by the primitive.
    pub communication: u64,
}

impl Superstep {
    /// A receipt charging `rounds` rounds and `communication` moved items.
    pub fn new(primitive: &'static str, rounds: u64, communication: u64) -> Self {
        Self {
            primitive,
            rounds,
            communication,
        }
    }

    /// A receipt for a purely local primitive (no rounds, no communication).
    pub fn local(primitive: &'static str) -> Self {
        Self::new(primitive, crate::costs::LOCAL, 0)
    }
}

/// Mutable record of everything the simulated cluster has done so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Total rounds charged.
    pub rounds: u64,
    /// Total items communicated (an item moving between machines counts once).
    pub communication: u64,
    /// Peak number of items held by a single machine at the end of any superstep.
    pub max_machine_load: usize,
    /// Number of supersteps in which some machine exceeded the space budget.
    pub space_violations: u64,
    /// Largest per-machine load observed in a violating superstep.
    pub worst_overload: usize,
    /// Rounds attributed to each label (see [`crate::Cluster::set_phase`]).
    pub rounds_by_phase: BTreeMap<String, u64>,
    /// Communicated items attributed to each label.
    pub comm_by_phase: BTreeMap<String, u64>,
    /// Peak per-machine load observed while each label was active.
    pub max_load_by_phase: BTreeMap<String, usize>,
    /// Space-violating supersteps attributed to each label.
    pub violations_by_phase: BTreeMap<String, u64>,
    /// Number of primitive invocations by name.
    pub primitive_counts: BTreeMap<&'static str, u64>,
    /// Every injected fault that actually fired, in firing order, with the
    /// phase label active at its barrier (see [`crate::FaultPlan`]).
    pub fault_events: Vec<FaultRecord>,
    /// Barriers spent waiting for stragglers: the sum of all fired
    /// [`FaultKind::Delay`] durations. Kept separate from [`Ledger::rounds`] —
    /// a straggler stretches wall-clock at the barrier but does not add
    /// synchronous rounds to the algorithm.
    pub stall_rounds: u64,
    /// First and last superstep index observed under each phase label (the
    /// superstep counter advances once per communicating primitive). This is
    /// what lets a chaos harness aim a kill *inside* a specific merge level:
    /// probe a fault-free run, read the level's span, schedule the fault.
    pub superstep_spans: BTreeMap<String, (u64, u64)>,
}

impl Ledger {
    /// Applies a completed superstep's receipt: one deterministic accounting
    /// step covering both its round charge and its communication volume.
    pub(crate) fn apply(&mut self, step: Superstep, phase: Option<&str>) {
        self.charge(step.primitive, step.rounds, phase);
        self.communicate(step.communication);
        if step.communication > 0 {
            if let Some(p) = phase {
                *phase_slot(&mut self.comm_by_phase, p, u64::default) += step.communication;
            }
        }
    }

    /// Records `rounds` rounds of a primitive, attributing them to `phase` when set.
    pub(crate) fn charge(&mut self, primitive: &'static str, rounds: u64, phase: Option<&str>) {
        self.rounds += rounds;
        *self.primitive_counts.entry(primitive).or_default() += 1;
        if let Some(p) = phase {
            *phase_slot(&mut self.rounds_by_phase, p, u64::default) += rounds;
        }
    }

    /// Records the load profile after a superstep, attributing the peak (and any
    /// violation) to `phase` when set.
    pub(crate) fn observe_loads(
        &mut self,
        loads: impl Iterator<Item = usize>,
        space: usize,
        phase: Option<&str>,
    ) -> bool {
        let mut violated = false;
        let mut peak = 0usize;
        for load in loads {
            peak = peak.max(load);
            if load > space {
                violated = true;
                self.worst_overload = self.worst_overload.max(load);
            }
        }
        self.max_machine_load = self.max_machine_load.max(peak);
        if let Some(p) = phase {
            let entry = phase_slot(&mut self.max_load_by_phase, p, usize::default);
            *entry = (*entry).max(peak);
        }
        if violated {
            self.space_violations += 1;
            if let Some(p) = phase {
                *phase_slot(&mut self.violations_by_phase, p, u64::default) += 1;
            }
        }
        violated
    }

    /// Records communicated items.
    pub(crate) fn communicate(&mut self, items: u64) {
        self.communication += items;
    }

    /// Records that superstep `index` ran under `phase` (span bookkeeping).
    pub(crate) fn note_superstep(&mut self, index: u64, phase: Option<&str>) {
        if let Some(p) = phase {
            let span = phase_slot(&mut self.superstep_spans, p, || (index, index));
            span.0 = span.0.min(index);
            span.1 = span.1.max(index);
        }
    }

    /// Records one fired fault event; delays accumulate into
    /// [`Ledger::stall_rounds`].
    pub(crate) fn record_fault(&mut self, record: FaultRecord) {
        if let FaultKind::Delay(d) = record.kind {
            self.stall_rounds += d;
        }
        self.fault_events.push(record);
    }

    /// Number of fired kill events.
    pub fn kills(&self) -> usize {
        self.fault_events
            .iter()
            .filter(|r| r.kind == FaultKind::Kill)
            .count()
    }

    /// Total rounds charged under every phase label starting with `prefix`
    /// (e.g. `"service-append"` to cover `service-append-L3/relabel` and
    /// friends). This is how a driver proves a scoped sub-computation's cost:
    /// the analytics service asserts its incremental appends charge only the
    /// O(log n) spine merges by reading the `service-*` scopes back.
    pub fn scope_rounds(&self, prefix: &str) -> u64 {
        scope_sum(&self.rounds_by_phase, prefix)
    }

    /// Total items communicated under every phase label starting with `prefix`.
    pub fn scope_comm(&self, prefix: &str) -> u64 {
        scope_sum(&self.comm_by_phase, prefix)
    }

    /// Space-violating supersteps recorded under every phase label starting
    /// with `prefix`.
    pub fn scope_violations(&self, prefix: &str) -> u64 {
        scope_sum(&self.violations_by_phase, prefix)
    }

    /// Superstep span covering every phase label starting with `prefix`
    /// (e.g. `"lis-merge-L2/"`), if any such label ran.
    pub fn superstep_span_of(&self, prefix: &str) -> Option<(u64, u64)> {
        self.superstep_spans
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &(lo, hi))| (lo, hi))
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
    }

    /// Human-readable one-line summary (used by the experiment binaries).
    pub fn summary(&self) -> String {
        format!(
            "rounds={} comm={} max_load={} violations={} faults={} stall={}",
            self.rounds,
            self.communication,
            self.max_machine_load,
            self.space_violations,
            self.fault_events.len(),
            self.stall_rounds
        )
    }
}

/// The sum of `map`'s values under every label starting with `prefix`.
fn scope_sum(map: &BTreeMap<String, u64>, prefix: &str) -> u64 {
    map.iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, &v)| v)
        .sum()
}

/// The value under `phase`, inserted from `init` on first use. The key is
/// allocated only on that first insert: every later charge under a phase is a
/// lookup, not a `String` allocation.
fn phase_slot<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    phase: &str,
    init: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(phase) {
        map.insert(phase.to_owned(), init());
    }
    map.get_mut(phase).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_rounds_and_phases() {
        let mut ledger = Ledger::default();
        ledger.charge("sort", 3, Some("split"));
        ledger.charge("shuffle", 1, Some("split"));
        ledger.charge("sort", 3, None);
        assert_eq!(ledger.rounds, 7);
        assert_eq!(ledger.rounds_by_phase["split"], 4);
        assert_eq!(ledger.primitive_counts["sort"], 2);
    }

    #[test]
    fn apply_covers_rounds_and_communication() {
        let mut ledger = Ledger::default();
        ledger.apply(Superstep::new("sort", 3, 500), Some("split"));
        ledger.apply(Superstep::local("map"), None);
        assert_eq!(ledger.rounds, 3);
        assert_eq!(ledger.communication, 500);
        assert_eq!(ledger.rounds_by_phase["split"], 3);
        assert_eq!(ledger.primitive_counts["map"], 1);

        let mut same = Ledger::default();
        same.apply(Superstep::new("sort", 3, 500), Some("split"));
        same.apply(Superstep::local("map"), None);
        assert_eq!(
            ledger, same,
            "ledgers with identical histories compare equal"
        );
    }

    #[test]
    fn observe_loads_tracks_violations() {
        let mut ledger = Ledger::default();
        assert!(!ledger.observe_loads([3, 5, 2].into_iter(), 10, None));
        assert!(ledger.observe_loads([3, 50, 2].into_iter(), 10, Some("route")));
        assert_eq!(ledger.max_machine_load, 50);
        assert_eq!(ledger.space_violations, 1);
        assert_eq!(ledger.worst_overload, 50);
        assert_eq!(ledger.max_load_by_phase["route"], 50);
        assert_eq!(ledger.violations_by_phase["route"], 1);
    }

    #[test]
    fn scope_aggregators_sum_matching_prefixes() {
        let mut ledger = Ledger::default();
        ledger.apply(
            Superstep::new("sort", 3, 100),
            Some("service-append-L1/relabel"),
        );
        ledger.apply(
            Superstep::new("mul", 5, 40),
            Some("service-append-L2/combine"),
        );
        ledger.apply(Superstep::new("sort", 7, 9), Some("service-root/fold"));
        let _ = ledger.observe_loads([99].into_iter(), 10, Some("service-append-L2/combine"));
        assert_eq!(ledger.scope_rounds("service-append"), 8);
        assert_eq!(ledger.scope_rounds("service-"), 15);
        assert_eq!(ledger.scope_rounds("lis-merge"), 0);
        assert_eq!(ledger.scope_comm("service-append"), 140);
        assert_eq!(ledger.scope_comm("service-root"), 9);
        assert_eq!(ledger.scope_violations("service-append"), 1);
        assert_eq!(ledger.scope_violations("service-root"), 0);
    }

    #[test]
    fn per_phase_breakdowns_accumulate() {
        let mut ledger = Ledger::default();
        ledger.apply(Superstep::new("sort", 3, 500), Some("route"));
        ledger.apply(Superstep::new("sort", 3, 200), Some("route"));
        ledger.apply(Superstep::new("sort", 3, 70), Some("grid"));
        assert_eq!(ledger.comm_by_phase["route"], 700);
        assert_eq!(ledger.comm_by_phase["grid"], 70);
        assert_eq!(ledger.communication, 770);
        let _ = ledger.observe_loads([4, 9].into_iter(), 100, Some("grid"));
        let _ = ledger.observe_loads([7, 2].into_iter(), 100, Some("grid"));
        assert_eq!(ledger.max_load_by_phase["grid"], 9);
        assert!(ledger.violations_by_phase.is_empty());
    }
}
