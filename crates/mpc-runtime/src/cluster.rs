//! The simulated cluster and its O(1)-round primitives.

use crate::config::MpcConfig;
use crate::costs;
use crate::distvec::{concat, DistVec, Shape};
use crate::faults::{FaultKind, FaultRecord};
use crate::group::{self, Group, Placement};
use crate::ledger::{Ledger, Superstep};
use crate::rank_index::{RankIndex, RankKey};
use rayon::prelude::*;

/// Pure compute kernels: the parallel halves of the primitives.
///
/// Everything in this module is a function of its inputs alone — no ledger, no
/// `&mut Cluster` — which is what allows it to fan out over worker threads
/// while the accounting stays a single deterministic step on the calling
/// thread. Each kernel produces output whose order is independent of the
/// thread count.
mod compute {
    use rayon::prelude::*;

    /// Splits items evenly across machines (block distribution). Each item is
    /// moved exactly once — O(n) regardless of the machine count.
    pub(super) fn balance<T: Send>(items: Vec<T>, machines: usize) -> Vec<Vec<T>> {
        let m = machines.max(1);
        let per = items.len().div_ceil(m).max(1);
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(m);
        let mut iter = items.into_iter();
        for _ in 0..m {
            parts.push(iter.by_ref().take(per).collect());
        }
        // More items than m * per can only happen when machines was clamped
        // from 0; append the leftovers to the last machine.
        let rest: Vec<T> = iter.collect();
        if !rest.is_empty() {
            parts.last_mut().expect("at least one machine").extend(rest);
        }
        parts
    }

    /// Below this many items in all, a per-machine pass runs on the calling
    /// thread: waking the pool costs more than such a pass.
    pub(super) const INLINE_ITEMS: usize = 4096;

    /// Whether a pass over `parts` is small enough to run inline.
    fn inline<T>(parts: &[Vec<T>]) -> bool {
        parts.iter().map(Vec::len).sum::<usize>() < INLINE_ITEMS
    }

    /// Applies `f` to every machine's borrowed slice, concurrently unless the
    /// pass is tiny.
    pub(super) fn per_part<T, U, F>(parts: &[Vec<T>], f: F) -> Vec<Vec<U>>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    {
        if inline(parts) {
            return parts
                .iter()
                .enumerate()
                .map(|(i, part)| f(i, part))
                .collect();
        }
        parts
            .par_iter()
            .enumerate()
            .map(|(i, part)| f(i, part.as_slice()))
            .collect()
    }

    /// Applies `f` to every machine's owned part, concurrently unless the
    /// pass is tiny.
    pub(super) fn per_part_owned<T, U, F>(parts: Vec<Vec<T>>, f: F) -> Vec<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync,
    {
        if inline(&parts) {
            return parts.into_iter().map(f).collect();
        }
        parts.into_par_iter().map(f).collect()
    }

    /// Per-machine exclusive prefix sums in three phases: local pair building
    /// (parallel), a scan over the machine totals (sequential, `O(machines)`),
    /// and base-offset application (parallel). Mirrors the Lemma 2.4 structure:
    /// only the per-machine totals cross machine boundaries.
    pub(super) fn prefix_sums<T, F>(parts: Vec<Vec<T>>, weight: F) -> Vec<Vec<(T, u64)>>
    where
        T: Send,
        F: Fn(&T) -> u64 + Send + Sync,
    {
        let local: Vec<(Vec<(T, u64)>, u64)> = parts
            .into_par_iter()
            .map(|part| {
                let mut running = 0u64;
                let pairs: Vec<(T, u64)> = part
                    .into_iter()
                    .map(|item| {
                        let w = weight(&item);
                        let out = (item, running);
                        running += w;
                        out
                    })
                    .collect();
                (pairs, running)
            })
            .collect();

        let mut bases = Vec::with_capacity(local.len());
        let mut running = 0u64;
        for (_, total) in &local {
            bases.push(running);
            running += total;
        }

        local
            .into_par_iter()
            .zip(bases.par_iter().copied())
            .map(|((mut pairs, _), base)| {
                for (_, sum) in &mut pairs {
                    *sum += base;
                }
                pairs
            })
            .collect()
    }

    /// Greedy packing: largest groups first (ties in group order), each onto
    /// the currently lightest machine, lowest index among equals (the
    /// classical LPT heuristic); mirrors §3.3's "sort them in the order of
    /// decreasing sizes and use greedy packing". The size order is a stable
    /// counting sort (sizes are bounded by the item total), or the group
    /// order itself when the sizes already never increase (the lift's joins,
    /// every group of size 2). Returns the machine of every group and the
    /// per-machine loads.
    ///
    /// The targets are found one run of equal sizes at a time. In a run of
    /// groups of size `s`, machine `t` with load `q_t·s + p_t` (`p_t < s`)
    /// is picked in rounds `r ≥ q_t`, and the picks come in `(r, p_t, t)`
    /// order. From round `max q_t` on, every round picks all machines in
    /// one fixed order — ascending `(load, t)` — so the rest of the run is
    /// cyclic. A min-heap over `(load, machine)` takes only the picks before
    /// that point, `Σ_t (max q − q_t)` of them, or the whole run when less
    /// than one full round would be left for the cycle. A zero-size run goes
    /// wholesale to the lightest machine. So a run of equal-size groups on
    /// equal loads is plain round robin, and no input costs more than one
    /// heap step per group.
    pub(super) fn pack_groups(sizes: &[usize], machines: usize) -> (Vec<usize>, Vec<usize>) {
        if sizes.windows(2).all(|w| w[0] >= w[1]) {
            return pack_in_order(sizes, machines, |i| i);
        }
        let max = sizes.iter().copied().max().unwrap_or(0);
        // `next[s]`: the next slot of a size-`s` group; larger sizes go first.
        let mut next = vec![0usize; max + 1];
        for &size in sizes {
            next[size] += 1;
        }
        let mut slot = 0;
        for count in next.iter_mut().rev() {
            let here = *count;
            *count = slot;
            slot += here;
        }
        let mut order = vec![0usize; sizes.len()];
        for (g, &size) in sizes.iter().enumerate() {
            order[next[size]] = g;
            next[size] += 1;
        }
        pack_in_order(sizes, machines, |i| order[i])
    }

    /// [`pack_groups`] over the groups in LPT order: the `i`-th group
    /// placed is `at(i)`.
    fn pack_in_order(
        sizes: &[usize],
        machines: usize,
        at: impl Fn(usize) -> usize,
    ) -> (Vec<usize>, Vec<usize>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut machine_of_group = vec![0usize; sizes.len()];
        let mut loads = vec![0usize; machines];
        let mut lightest: BinaryHeap<Reverse<(usize, usize)>> =
            (0..machines).map(|i| Reverse((0, i))).collect();
        let mut cycle: Vec<usize> = Vec::with_capacity(machines);
        let mut end = 0;
        while end < sizes.len() {
            let (start, size) = (end, sizes[at(end)]);
            while end < sizes.len() && sizes[at(end)] == size {
                end += 1;
            }
            let run = start..end;
            if size == 0 {
                let &Reverse((_, target)) = lightest.peek().expect("at least one machine");
                for i in run {
                    machine_of_group[at(i)] = target;
                }
                continue;
            }
            let head = if run.len() < machines {
                run.len()
            } else {
                let top = loads.iter().max().expect("at least one machine") / size;
                let before: usize = loads.iter().map(|&load| top - load / size).sum();
                if run.len() - run.len().min(before) >= machines {
                    before
                } else {
                    run.len()
                }
            };
            let rest = start + head..end;
            for i in start..rest.start {
                let Reverse((load, target)) = lightest.pop().expect("at least one machine");
                machine_of_group[at(i)] = target;
                loads[target] = load + size;
                lightest.push(Reverse((loads[target], target)));
            }
            if rest.is_empty() {
                continue;
            }
            // Every machine is now in round `top`: the cycle is the loads'
            // order.
            cycle.clear();
            cycle.extend(0..machines);
            cycle.sort_unstable_by_key(|&t| (loads[t], t));
            let (rounds, extra) = (rest.len() / machines, rest.len() % machines);
            for (i, &target) in rest.zip(cycle.iter().cycle()) {
                machine_of_group[at(i)] = target;
            }
            for (j, &target) in cycle.iter().enumerate() {
                loads[target] += size * (rounds + usize::from(j < extra));
            }
            lightest = loads
                .iter()
                .enumerate()
                .map(|(t, &load)| Reverse((load, t)))
                .collect();
        }
        (machine_of_group, loads)
    }

    /// The oracles the fast kernels above are tested against.
    #[cfg(test)]
    pub(super) mod oracle {
        /// Stable merge sort of whole `(key, item)` pairs, then run splitting.
        pub(crate) fn gather_groups<T, K: Ord>(
            parts: Vec<Vec<T>>,
            key: impl Fn(&T) -> K,
        ) -> Vec<(K, Vec<T>)> {
            let mut keyed: Vec<(K, T)> =
                parts.into_iter().flatten().map(|t| (key(&t), t)).collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            let mut groups: Vec<(K, Vec<T>)> = Vec::new();
            for (k, t) in keyed {
                match groups.last_mut() {
                    Some((gk, items)) if *gk == k => items.push(t),
                    _ => groups.push((k, vec![t])),
                }
            }
            groups
        }

        /// LPT with a linear scan for the lightest machine.
        pub(crate) fn pack_groups(sizes: &[usize], machines: usize) -> (Vec<usize>, Vec<usize>) {
            let mut order: Vec<usize> = (0..sizes.len()).collect();
            order.sort_by_key(|&g| std::cmp::Reverse(sizes[g]));
            let mut machine_of_group = vec![0usize; sizes.len()];
            let mut loads = vec![0usize; machines];
            for &g in &order {
                let target = (0..machines).min_by_key(|&i| loads[i]).unwrap_or(0);
                machine_of_group[g] = target;
                loads[target] += sizes[g];
            }
            (machine_of_group, loads)
        }
    }
}

/// A simulated MPC cluster: machine layout, space budget and accounting ledger.
///
/// Every primitive runs in **two phases**:
///
/// 1. **Compute** — the per-machine local work, executed by pure kernels in the
///    private `compute` module. These fan out over the rayon thread pool and
///    never borrow the ledger, so any number of worker threads can participate.
/// 2. **Account** — one deterministic step on the calling thread that applies
///    the superstep's [`Superstep`] receipt (rounds + communication) and
///    observes the resulting load profile.
///
/// The accounting is strictly per the MPC model — the simulator's own
/// parallelism is an execution detail, and rounds, communication, and outputs
/// are bit-identical at every thread count (`RAYON_NUM_THREADS=1` included).
pub struct Cluster {
    config: MpcConfig,
    ledger: Ledger,
    phase: Option<String>,
    /// Enclosing phase scope (see [`Cluster::set_phase_scope`]); prefixes every
    /// phase label as `scope/phase`.
    scope: Option<String>,
    /// Cached effective label (`scope/phase`, or whichever half is set).
    label: Option<String>,
    /// 1-based superstep counter: advanced once per *communicating* primitive
    /// (any charge with `rounds > 0`). Purely-local maps do not advance it —
    /// in the model they fold into the adjacent communicating superstep.
    superstep: u64,
    /// Index of the next unfired event in `config.faults` (events are sorted
    /// by superstep, so firing is a single forward scan).
    next_fault: usize,
    /// Machines killed since the last [`Cluster::poll_kills`] drain.
    unpolled_kills: Vec<usize>,
}

impl Cluster {
    /// Creates a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// If the fault plan targets a machine the cluster does not have, or
    /// schedules a kill on a single-machine cluster (a kill destroys the
    /// machine's memory; recovery needs a surviving machine holding the
    /// checkpoint replica, so kills require `machines ≥ 2`).
    pub fn new(config: MpcConfig) -> Self {
        if let Some(max) = config.faults.max_machine() {
            assert!(
                max < config.machines,
                "fault plan targets machine {max}, but the cluster has only {} machines",
                config.machines
            );
        }
        assert!(
            !config.faults.has_kills() || config.machines >= 2,
            "kill faults require at least 2 machines: recovery re-derives the lost \
             shard from a checkpoint replica on a surviving machine"
        );
        Self {
            config,
            ledger: Ledger::default(),
            phase: None,
            scope: None,
            label: None,
            superstep: 0,
            next_fault: 0,
            unpolled_kills: Vec::new(),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// The accounting ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Number of rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.ledger.rounds
    }

    /// Resets the ledger and the fault/superstep state (configuration is kept):
    /// the superstep counter returns to 0 and the fault plan re-arms from its
    /// first event, so a reset cluster replays its schedule identically.
    pub fn reset_ledger(&mut self) {
        self.ledger = Ledger::default();
        self.superstep = 0;
        self.next_fault = 0;
        self.unpolled_kills.clear();
    }

    /// The current superstep index (1-based; 0 before the first communicating
    /// primitive). Advanced once per primitive that charges `rounds > 0`,
    /// deterministically at every thread count — this is the clock
    /// [`crate::FaultPlan`] events fire against.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Drains the machines killed since the last poll, in firing order.
    ///
    /// The runtime only detects and accounts the kill; re-deriving whatever
    /// the machine held is the calling algorithm's job (e.g. the LIS pipeline
    /// restores the killed machine's merge-tree shard from level checkpoints
    /// under a `recovery-L<k>` scope). Polling between phases is enough: the
    /// queue preserves every kill until drained.
    pub fn poll_kills(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.unpolled_kills)
    }

    /// Advances the superstep clock by one barrier and fires every fault event
    /// that has come due: each firing is recorded in the ledger (delays also
    /// accumulate into [`Ledger::stall_rounds`]) and kills are queued for
    /// [`Cluster::poll_kills`].
    fn bump_superstep(&mut self) {
        self.superstep += 1;
        self.ledger
            .note_superstep(self.superstep, self.label.as_deref());
        while let Some(event) = self.config.faults.events().get(self.next_fault) {
            if event.superstep > self.superstep {
                break;
            }
            let event = *event;
            self.next_fault += 1;
            self.ledger.record_fault(FaultRecord {
                superstep: self.superstep,
                machine: event.machine,
                kind: event.kind,
                phase: self.label.clone(),
            });
            if event.kind == FaultKind::Kill {
                self.unpolled_kills.push(event.machine);
            }
        }
    }

    /// Applies a superstep receipt on the calling thread, advancing the
    /// superstep clock first when the receipt is a communicating one.
    fn apply_step(&mut self, step: Superstep) {
        if step.rounds > 0 {
            self.bump_superstep();
        }
        self.ledger.apply(step, self.label.as_deref());
    }

    /// Sets the label under which subsequent rounds are attributed
    /// (pass `None` to clear).
    pub fn set_phase<S: Into<String>>(&mut self, label: Option<S>) {
        self.phase = label.map(Into::into);
        self.relabel();
    }

    /// Sets an enclosing phase *scope*: while set, every phase label (including
    /// the labels sub-algorithms set via [`Cluster::set_phase`]) is attributed
    /// to the ledger as `scope/phase`. This is how a driver (e.g. the LIS merge
    /// loop) gets a per-level breakdown of the phases its inner `⊡` batches
    /// run — `lis-merge-L2/combine-route` rather than a global `combine-route`
    /// bucket. Pass `None` to clear.
    pub fn set_phase_scope<S: Into<String>>(&mut self, scope: Option<S>) {
        self.scope = scope.map(Into::into);
        self.relabel();
    }

    fn relabel(&mut self) {
        self.label = match (self.scope.as_deref(), self.phase.as_deref()) {
            (Some(s), Some(p)) => Some(format!("{s}/{p}")),
            (Some(s), None) => Some(s.to_string()),
            (None, Some(p)) => Some(p.to_string()),
            (None, None) => None,
        };
    }

    /// Manually charges `rounds` rounds (for modelling a step outside the provided
    /// primitives). Advances the superstep clock when `rounds > 0`.
    pub fn charge_rounds(&mut self, primitive: &'static str, rounds: u64) {
        if rounds > 0 {
            self.bump_superstep();
        }
        self.ledger.charge(primitive, rounds, self.label.as_deref());
    }

    /// Manually charges a full superstep receipt — rounds *and* communication —
    /// for modelling a communicating step outside the provided primitives
    /// (e.g. the checkpoint-replication and replica-restore shuffles of a
    /// recovery layer). Advances the superstep clock when `rounds > 0`.
    pub fn charge_superstep(&mut self, primitive: &'static str, rounds: u64, communication: u64) {
        self.apply_step(Superstep::new(primitive, rounds, communication));
    }

    /// The accounting phase of a primitive: applies the cost receipt, then
    /// observes the output's load profile. Runs on the calling thread only.
    fn account<T>(&mut self, step: Superstep, out: &DistVec<T>) {
        let context = step.primitive;
        self.apply_step(step);
        self.observe(out, context);
    }

    fn observe<T>(&mut self, dv: &DistVec<T>, context: &'static str) {
        self.observe_loads(dv.loads(), dv.max_load(), context);
    }

    fn observe_shape(&mut self, shape: &Shape, context: &'static str) {
        self.observe_loads(shape.loads(), shape.max_load(), context);
    }

    /// Records a load profile whose largest load is `max_load`, panicking on
    /// a strict cluster when it exceeds the space budget.
    fn observe_loads(
        &mut self,
        loads: impl Iterator<Item = usize>,
        max_load: usize,
        context: &'static str,
    ) {
        let violated = self
            .ledger
            .observe_loads(loads, self.config.space, self.label.as_deref());
        if violated && self.config.enforce_space {
            panic!(
                "MPC space budget exceeded in `{context}`: max load {max_load} > s = {} \
                 (n = {}, δ = {})",
                self.config.space, self.config.n, self.config.delta
            );
        }
    }

    // ---------------------------------------------------------------------------
    // Data placement
    // ---------------------------------------------------------------------------

    /// Places the input on the cluster (the model assumes the input starts out
    /// distributed, so this charges no rounds).
    pub fn distribute<T: Send>(&mut self, items: Vec<T>) -> DistVec<T> {
        let dv = DistVec::from_parts(compute::balance(items, self.config.machines));
        self.account(Superstep::new("distribute", costs::DISTRIBUTE, 0), &dv);
        dv
    }

    /// Reads the final result off the cluster (not charged; do not use mid-algorithm).
    pub fn collect<T>(&mut self, dv: DistVec<T>) -> Vec<T> {
        dv.into_inner()
    }

    // ---------------------------------------------------------------------------
    // Local computation (no communication)
    // ---------------------------------------------------------------------------

    /// Applies `f` to every item locally on its machine. Charges no rounds — purely
    /// local work is folded into the adjacent communicating supersteps, as in the
    /// model.
    pub fn map<T, U, F>(&mut self, dv: &DistVec<T>, f: F) -> DistVec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.charge_map(&dv.shape());
        DistVec::from_parts(compute::per_part(&dv.parts, |_, part| {
            part.iter().map(&f).collect()
        }))
    }

    /// Charges a [`Cluster::map`] over a vector of shape `input` without
    /// running it: a map keeps every item on its machine, so the receipt and
    /// the observed load profile are those of any map over such a vector.
    ///
    /// For a step that computes a map's outputs by other means, or whose
    /// outputs only feed another charged step.
    pub fn charge_map(&mut self, input: &Shape) {
        self.apply_step(Superstep::local("map"));
        self.observe_shape(input, "map");
    }

    // ---------------------------------------------------------------------------
    // GSZ primitives
    // ---------------------------------------------------------------------------

    /// Deterministic sorting (Lemma 2.5): sorts all items by `key` and rebalances.
    pub fn sort_by_key<T, K, F>(&mut self, dv: DistVec<T>, key: F) -> DistVec<T>
    where
        T: Send,
        K: Ord + Send,
        F: Fn(&T) -> K + Sync,
    {
        let total = dv.len() as u64;
        let mut items: Vec<T> = dv.into_inner();
        items.par_sort_by(|a, b| key(a).cmp(&key(b)));
        let out = DistVec::from_parts(compute::balance(items, self.config.machines));
        self.account(Superstep::new("sort", costs::SORT, total), &out);
        out
    }

    /// Prefix sums (Lemma 2.4): returns, for every item in the global order of `dv`,
    /// the sum of `weight` over all strictly earlier items (exclusive prefix sum),
    /// paired with the item.
    pub fn prefix_sums<T, F>(&mut self, dv: DistVec<T>, weight: F) -> DistVec<(T, u64)>
    where
        T: Send,
        F: Fn(&T) -> u64 + Sync,
    {
        // Per-machine partial sums are exchanged (o(s) words); items stay in place.
        let machines = dv.machines() as u64;
        let parts = compute::prefix_sums(dv.parts, &weight);
        let out = DistVec::from_parts(parts);
        self.account(
            Superstep::new("prefix_sum", costs::PREFIX_SUM, machines),
            &out,
        );
        out
    }

    /// Offline rank searching (Lemma 2.6), generalized to *grouped* queries: for
    /// every query, counts the values that share its group key and are strictly
    /// smaller than the query value. Returns each query paired with its count in
    /// the queries' own distribution: every answer stays on the machine that
    /// held its query, in the same order.
    pub fn rank_search<T, Q, K, FV, FQ>(
        &mut self,
        values: &DistVec<T>,
        vkey: FV,
        queries: DistVec<Q>,
        qkey: FQ,
    ) -> DistVec<(Q, u64)>
    where
        T: Sync,
        Q: Send,
        K: Ord + Send + Sync,
        FV: Fn(&T) -> (K, u64) + Sync,
        FQ: Fn(&Q) -> (K, u64) + Sync,
    {
        self.charge_rank_search(values.len(), &queries.shape());

        // Globally sort the value keys once; answer each query by binary search in
        // its group's slice. (The receipt charged above covers the sort +
        // prefix-sum rounds of the modelled step.)
        let mut keyed: Vec<(K, u64)> = concat(compute::per_part(&values.parts, |_, part| {
            part.iter().map(&vkey).collect()
        }));
        keyed.par_sort();
        let answer = |q: &Q| -> u64 {
            let (group, threshold) = qkey(q);
            let lo = keyed.partition_point(|(g, _)| *g < group);
            let hi = keyed[lo..].partition_point(|(g, v)| *g == group && *v < threshold);
            hi as u64
        };
        DistVec::from_parts(compute::per_part_owned(queries.parts, |part| {
            part.into_iter()
                .map(|q| {
                    let c = answer(&q);
                    (q, c)
                })
                .collect()
        }))
    }

    /// Charges a [`Cluster::rank_search`] of queries of shape `queries`
    /// against `values` values without running it: the same receipt, and the
    /// answers' load profile, which is the queries' own (every answer stays
    /// beside its query). A strict cluster panics identically.
    ///
    /// For a caller that already knows every rank, e.g. from one ascending
    /// scan over a dense coordinate range.
    pub fn charge_rank_search(&mut self, values: usize, queries: &Shape) {
        let communication = values as u64 + 2 * queries.len() as u64;
        self.apply_step(Superstep::new(
            "rank_search",
            costs::RANK_SEARCH,
            communication,
        ));
        self.observe_shape(queries, "rank_search");
    }

    /// Batched rank-search packages (the §3.2 H-ary tree-descent primitive): like
    /// [`Cluster::rank_search`], but every query is a *package* of several
    /// ascending thresholds against one group key, answered together in one
    /// `O(1)`-round exchange. For each query the result holds, per threshold,
    /// the number of values sharing the query's group key that are strictly
    /// smaller.
    ///
    /// This is how the colored H-ary tree of the paper is queried: a descent step
    /// sends one package per tree node naming the boundaries it needs, and the
    /// machines holding that node's points answer all boundaries at once.
    ///
    /// Equivalent to [`Cluster::rank_index`] over `values` followed by
    /// [`Cluster::rank_search_multi_in`] charging `values.len()` values; a
    /// caller querying the same values repeatedly builds the index once and
    /// queries it directly, at identical charges.
    pub fn rank_search_multi<T, Q, K, FV, FQ>(
        &mut self,
        values: &DistVec<T>,
        vkey: FV,
        queries: DistVec<Q>,
        qkey: FQ,
    ) -> DistVec<(Q, Vec<u64>)>
    where
        T: Sync,
        Q: Send + Sync,
        K: RankKey,
        FV: Fn(&T) -> (K, u64) + Sync,
        FQ: Fn(&Q) -> (K, Vec<u64>) + Sync,
    {
        let index = self.rank_index(values, |t| std::iter::once(vkey(t)));
        self.rank_search_multi_in(&index, values.len() as u64, queries, qkey)
    }

    /// Builds the sorted value side of [`Cluster::rank_search_multi_in`]:
    /// every value contributes the `(group, value)` entries `vkeys` yields
    /// (several when one point is indexed at several tree levels).
    ///
    /// Charges nothing: the index is the simulator's cached copy of what the
    /// machines sort when a rank search runs, and every query built on it
    /// charges that value side in full.
    pub fn rank_index<T, K, I, FV>(&self, values: &DistVec<T>, vkeys: FV) -> RankIndex<K>
    where
        T: Sync,
        K: RankKey,
        I: IntoIterator<Item = (K, u64)>,
        FV: Fn(&T) -> I + Sync,
    {
        let entries: Vec<(u64, u64)> = concat(compute::per_part(&values.parts, |_, part| {
            part.iter()
                .flat_map(|t| vkeys(t).into_iter().map(|(k, v)| (k.pack(), v)))
                .collect()
        }));
        RankIndex::from_entries(entries)
    }

    /// Answers batched rank-search packages (see [`Cluster::rank_search_multi`])
    /// from a prebuilt [`RankIndex`], each package with one forward walk over
    /// its ascending thresholds.
    ///
    /// Charges exactly what [`Cluster::rank_search_multi`] charges over
    /// `charged_values` values — same primitive, rounds, communication and
    /// rebalanced output — so sharing one index across several searches
    /// changes the simulator's speed, never the ledger.
    ///
    /// Its callers are [`Cluster::rank_search_multi`], which the benchmark
    /// harness measures, and the test oracle of the ⊡ combine (`monge-mpc`),
    /// which queries its leveled colored tree through it; the combine itself
    /// reads its counts from its own tables and charges them with
    /// [`Cluster::charge_rank_search_multi`].
    pub fn rank_search_multi_in<Q, K, FQ>(
        &mut self,
        index: &RankIndex<K>,
        charged_values: u64,
        queries: DistVec<Q>,
        qkey: FQ,
    ) -> DistVec<(Q, Vec<u64>)>
    where
        Q: Send + Sync,
        K: RankKey,
        FQ: Fn(&Q) -> (K, Vec<u64>) + Sync,
    {
        let answered: Vec<(Q, Vec<u64>)> = concat(compute::per_part_owned(queries.parts, |part| {
            part.into_iter()
                .map(|q| {
                    let (group, thresholds) = qkey(&q);
                    let counts = index.count_below(group, &thresholds);
                    (q, counts)
                })
                .collect()
        }));
        let thresholds_total: u64 = answered.iter().map(|(_, c)| c.len() as u64).sum();
        self.charge_rank_search_multi(charged_values, answered.len(), thresholds_total);
        DistVec::from_parts(compute::balance(answered, self.config.machines))
    }

    /// Charges a [`Cluster::rank_search_multi_in`] of `packages` packages
    /// holding `thresholds` thresholds in all, over `charged_values` values,
    /// without running it: the same receipt, and the answers' load profile —
    /// rebalanced, whatever the packages' placement. A strict cluster panics
    /// identically. Returns the answers' shape.
    ///
    /// For a caller that answers the packages itself, e.g. the ⊡ combine,
    /// which reads the counts its tree queries ask for from per-parent row
    /// and column tables.
    pub fn charge_rank_search_multi(
        &mut self,
        charged_values: u64,
        packages: usize,
        thresholds: u64,
    ) -> Shape {
        // Communication: every value key moves once; every package moves to its
        // group and back with one word per threshold answer.
        let communication = charged_values + 2 * packages as u64 + thresholds;
        self.apply_step(Superstep::new(
            "rank_search_multi",
            costs::RANK_SEARCH_MULTI,
            communication,
        ));
        // Lemma 2.6 routes packages to their groups and back; the answers come
        // home rebalanced.
        let out = Shape::balanced(packages, self.config.machines);
        self.observe_shape(&out, "rank_search_multi");
        out
    }

    /// Shared packing phase of the grouping primitives: picks the LPT machine
    /// of every group and accounts the packed load profile *before* any group
    /// runs, so strict clusters refuse oversized groups up front. Group `g`
    /// holds `sizes[g]` items. Returns the machine of every group and the
    /// packed per-machine loads.
    fn pack_checked(
        &mut self,
        sizes: &[usize],
        primitive: &'static str,
    ) -> (Vec<usize>, Vec<usize>) {
        let (machine_of_group, loads) = compute::pack_groups(sizes, self.config.machines);
        let violated = self.ledger.observe_loads(
            loads.iter().copied(),
            self.config.space,
            self.label.as_deref(),
        );
        if violated && self.config.enforce_space {
            panic!(
                "MPC space budget exceeded in `{primitive}`: max packed load {} > s = {}",
                loads.iter().max().copied().unwrap_or(0),
                self.config.space
            );
        }
        (machine_of_group, loads)
    }

    /// Groups items by key, places every group on a single machine (greedy
    /// packing) and applies `f` to each group. The outputs of all groups are
    /// left distributed as packed.
    ///
    /// This is the workhorse for "solve each subproblem locally" steps; a group
    /// larger than the space budget is a space violation, refused on a strict
    /// cluster before any group runs.
    ///
    /// Contract:
    /// - **View.** `f` runs once per distinct key and reads the group through
    ///   a borrowed [`Group`], its items in arrival order (machine by machine,
    ///   then position on the machine). No item is moved or cloned to build
    ///   it.
    /// - **Output.** `f` returns any [`IntoIterator`]: an `Option` for a 1:1
    ///   join, a `Vec` or an owning iterator otherwise.
    /// - **Order.** Every machine holds the outputs of the groups packed onto
    ///   it, group after group in ascending key order, each group's outputs in
    ///   the order `f` yielded them — at every thread count.
    ///
    /// Charged under `group_map`.
    pub fn group_map_view<T, K, U, I, FK, F>(&mut self, dv: DistVec<T>, key: FK, f: F) -> DistVec<U>
    where
        T: Send + Sync,
        K: Ord + Send + std::hash::Hash + Clone + Sync,
        U: Send,
        I: IntoIterator<Item = U>,
        FK: Fn(&T) -> K + Sync,
        F: Fn(&K, Group<'_, T>) -> I + Sync,
    {
        let (keys, side) = group::gather(dv.parts, key);
        self.run_grouped(&group::sizes(side.offsets()), |g| {
            f(&keys[g], side.group(g))
        })
    }

    /// A [`Cluster::group_map_view`] whose groups the caller already knows:
    /// `sizes` holds every group's item count in ascending key order, and
    /// `f(g)` runs group `g` (reading its items from wherever the caller
    /// keeps them). Same receipt, packing, strict-space check (before any
    /// group runs) and output placement and order as a `group_map_view` over
    /// the `sizes.iter().sum()` items those groups hold.
    ///
    /// For a join whose groups are dense index ranges, e.g. one item of each
    /// side per `(instance, coordinate)`.
    pub fn group_map_sized<U, I, F>(&mut self, sizes: &[usize], f: F) -> DistVec<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(usize) -> I + Sync,
    {
        self.run_grouped(sizes, f)
    }

    /// Charges a [`Cluster::group_map_sized`] whose group `g` emits
    /// `emitted(g)` outputs, without running it: the same receipt, packing
    /// and strict-space check, and the load profile of the outputs on the
    /// machines their groups are packed onto. Returns that placement.
    ///
    /// For a join whose outputs the caller computes by other means, or whose
    /// outputs only feed another charged step, but whose placement decides
    /// later shapes (the grid descent's searches stay where their group ran).
    pub fn charge_group_map_sized(
        &mut self,
        sizes: &[usize],
        emitted: impl Fn(usize) -> usize,
    ) -> Placement {
        let (machine_of_group, _) = self.pack_group_map(sizes);
        let mut loads = vec![0usize; self.config.machines];
        for (g, &m) in machine_of_group.iter().enumerate() {
            loads[m] += emitted(g);
        }
        let shape = Shape::from_loads(loads);
        self.observe_shape(&shape, "group_map");
        Placement::new(machine_of_group, shape)
    }

    /// The `group_map` receipt over groups of `sizes` items, then the
    /// packing (see [`Cluster::pack_checked`]).
    fn pack_group_map(&mut self, sizes: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let total = sizes.iter().sum::<usize>() as u64;
        self.apply_step(Superstep::new("group_map", costs::GROUP_MAP, total));
        self.pack_checked(sizes, "group_map")
    }

    /// The `group_map` receipt and packing over groups of `sizes` items,
    /// then the packed run (see [`Cluster::place_groups`]).
    fn run_grouped<U, I, F>(&mut self, sizes: &[usize], run: F) -> DistVec<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(usize) -> I + Sync,
    {
        let packed = self.pack_group_map(sizes);
        self.place_groups(packed, "group_map", run)
    }

    /// The tail every packing grouping primitive shares once its groups are
    /// packed (see [`Cluster::pack_checked`]): runs `run(g)` for every group
    /// and leaves each group's outputs on its machine, group after group in
    /// key order. The machines' parts are written on the pool, each
    /// machine's straight from its groups.
    fn place_groups<U, I, F>(
        &mut self,
        (machine_of_group, loads): (Vec<usize>, Vec<usize>),
        primitive: &'static str,
        run: F,
    ) -> DistVec<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(usize) -> I + Sync,
    {
        let out = DistVec::from_parts(group::run_on_machines(&machine_of_group, &loads, run));
        self.observe(&out, primitive);
        out
    }

    /// The owned form of [`Cluster::group_map_view`]: every group's items
    /// arrive cloned into a fresh `Vec`, in arrival order. Same charges, same
    /// output placement and order; a step that only reads its group should
    /// use the view.
    pub fn group_map<T, K, U, FK, F>(&mut self, dv: DistVec<T>, key: FK, f: F) -> DistVec<U>
    where
        T: Clone + Send + Sync,
        K: Ord + Send + std::hash::Hash + Clone + Sync,
        U: Send,
        FK: Fn(&T) -> K + Sync,
        F: Fn(&K, Vec<T>) -> Vec<U> + Sync,
    {
        self.group_map_view(dv, key, |k, group| f(k, group.iter().cloned().collect()))
    }

    /// Like [`Cluster::group_map_view`], but the combined group outputs leave
    /// on the wire: they are *rebalanced* across all machines instead of
    /// staying packed on the machine that ran their group.
    ///
    /// This is the right primitive for **emission** steps — a group inspects its
    /// items and produces messages addressed to the *next* superstep's groups
    /// (e.g. the §3.3 routing replicating each union point to the subgrids whose
    /// pierced interval contains its color, or the Hunt–Szymanski match-pair
    /// join). In the model those messages are delivered directly to their
    /// destinations: replication fans out over an `O(1)`-round broadcast tree
    /// and no machine ever *holds* the full emitted set, so the honest resident
    /// profile between the supersteps is the balanced one. The output volume is
    /// charged as communication on top of the input shuffle; the bound that
    /// remains the caller's obligation — and is checked by the next
    /// key-grouping superstep — is that every *receiving* group fits in `s`.
    ///
    /// Contract: the view and output of [`Cluster::group_map_view`]; the
    /// outputs of all groups, concatenated in ascending key order, are spread
    /// over the machines in equal blocks.
    pub fn group_map_rebalanced<T, K, U, I, FK, F>(
        &mut self,
        dv: DistVec<T>,
        key: FK,
        f: F,
    ) -> DistVec<U>
    where
        T: Send + Sync,
        K: Ord + Send + std::hash::Hash + Clone + Sync,
        U: Send,
        I: IntoIterator<Item = U>,
        FK: Fn(&T) -> K + Sync,
        F: Fn(&K, Group<'_, T>) -> I + Sync,
    {
        let (keys, side) = group::gather(dv.parts, key);
        let sizes = group::sizes(side.offsets());
        self.run_rebalanced(&sizes, side.offsets(), |g| f(&keys[g], side.group(g)))
    }

    /// A [`Cluster::group_map_rebalanced`] whose groups the caller already
    /// knows, as [`Cluster::group_map_sized`] is for
    /// [`Cluster::group_map_view`]: `sizes` in ascending key order, `f(g)`
    /// runs group `g`. Same receipt, strict-space check (before any group
    /// runs) and rebalanced output, in the same order.
    pub fn group_map_rebalanced_sized<U, I, F>(&mut self, sizes: &[usize], f: F) -> DistVec<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(usize) -> I + Sync,
    {
        self.run_rebalanced(sizes, &group::offsets(sizes), f)
    }

    /// Charges a [`Cluster::group_map_rebalanced_sized`] over groups of
    /// `sizes` items whose outputs number `emitted`, without running it:
    /// the same receipt, strict-space check and rebalanced load profile.
    /// Returns the outputs' shape.
    ///
    /// For a join whose outputs the caller computes by other means, e.g.
    /// copies already filed by target in a dense table.
    pub fn charge_group_map_rebalanced(&mut self, sizes: &[usize], emitted: usize) -> Shape {
        self.pack_checked(sizes, "group_map_rebalanced");
        self.charge_rebalanced_output(sizes.iter().sum::<usize>() as u64, emitted)
    }

    /// The tail of the rebalancing grouping primitives over groups of
    /// `sizes` items (item prefix `offsets`): packs the groups (the
    /// strict-space check), runs them and spreads their outputs,
    /// concatenated in key order, over the machines in equal blocks.
    fn run_rebalanced<U, I, F>(&mut self, sizes: &[usize], offsets: &[usize], run: F) -> DistVec<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(usize) -> I + Sync,
    {
        self.pack_checked(sizes, "group_map_rebalanced");
        let emitted = group::run_groups(offsets, run);
        let total = offsets[sizes.len()] as u64;
        self.charge_rebalanced_output(total, emitted.len());
        DistVec::from_parts(compute::balance(emitted, self.config.machines))
    }

    /// The receipt of a rebalancing group map over `total` items emitting
    /// `emitted` outputs, and the outputs' balanced load profile.
    fn charge_rebalanced_output(&mut self, total: u64, emitted: usize) -> Shape {
        self.apply_step(Superstep::new(
            "group_map_rebalanced",
            costs::GROUP_MAP,
            total + emitted as u64,
        ));
        let out = Shape::balanced(emitted, self.config.machines);
        self.observe_shape(&out, "group_map_rebalanced");
        out
    }

    /// Keyed co-group (sort-join): groups *two* distributed vectors by a shared
    /// key space, places every key's combined group on one machine (greedy
    /// packing, like [`Cluster::group_map_view`]) and applies `f` to the key
    /// with both sides' groups. Keys present on only one side still run, with
    /// the other side's group empty.
    ///
    /// This is the routing primitive for "join a query stream against resident
    /// data" steps — e.g. the witness traceback delivering per-block
    /// reconstruction queries to the machines holding those blocks' elements —
    /// and costs the same `O(1)` rounds as a group map (one sort + prefix-sum
    /// packing + route). A combined group larger than the space budget is a
    /// space violation.
    ///
    /// Contract: each side's [`Group`] reads that side's items in its own
    /// arrival order; output and placement as in [`Cluster::group_map_view`].
    pub fn cogroup_map<A, B, K, U, I, FA, FB, F>(
        &mut self,
        a: DistVec<A>,
        b: DistVec<B>,
        key_a: FA,
        key_b: FB,
        f: F,
    ) -> DistVec<U>
    where
        A: Send + Sync,
        B: Send + Sync,
        K: Ord + Send + std::hash::Hash + Clone + Sync,
        U: Send,
        I: IntoIterator<Item = U>,
        FA: Fn(&A) -> K + Sync,
        FB: Fn(&B) -> K + Sync,
        F: Fn(&K, Group<'_, A>, Group<'_, B>) -> I + Sync,
    {
        let total = (a.len() + b.len()) as u64;
        self.apply_step(Superstep::new("cogroup_map", costs::GROUP_MAP, total));
        let (keys, left, right) = group::cogather(a.parts, b.parts, key_a, key_b);
        let sizes: Vec<usize> = group::sizes(left.offsets())
            .iter()
            .zip(group::sizes(right.offsets()))
            .map(|(l, r)| l + r)
            .collect();
        let packed = self.pack_checked(&sizes, "cogroup_map");
        self.place_groups(packed, "cogroup_map", |g| {
            f(&keys[g], left.group(g), right.group(g))
        })
    }

    /// Concatenates two distributed vectors machine-wise (no data movement, no
    /// rounds): machine `i` simply owns both its parts.
    pub fn concat<T: Send>(&mut self, a: DistVec<T>, b: DistVec<T>) -> DistVec<T> {
        self.charge_concat(&a.shape(), &b.shape());
        let mut parts: Vec<Vec<T>> = a.parts;
        let m = parts.len().max(b.parts.len()).max(self.config.machines);
        parts.resize_with(m, Vec::new);
        for (i, mut p) in b.parts.into_iter().enumerate() {
            parts[i].append(&mut p);
        }
        DistVec::from_parts(parts)
    }

    /// Charges a [`Cluster::concat`] of vectors of shapes `a` and `b` without
    /// building it, and returns the concatenation's shape.
    pub fn charge_concat(&mut self, a: &Shape, b: &Shape) -> Shape {
        let out = a.concat(b, self.config.machines);
        self.apply_step(Superstep::local("concat"));
        self.observe_shape(&out, "concat");
        out
    }

    /// Keeps only the items for which `keep` returns true (purely local).
    pub fn filter<T, F>(&mut self, dv: DistVec<T>, keep: F) -> DistVec<T>
    where
        T: Send,
        F: Fn(&T) -> bool + Sync,
    {
        let parts = compute::per_part_owned(dv.parts, |part| {
            part.into_iter().filter(|t| keep(t)).collect()
        });
        let out = DistVec::from_parts(parts);
        self.charge_filter(&out.shape());
        out
    }

    /// Charges a [`Cluster::filter`] that keeps `kept` items per machine,
    /// without running it. A strict cluster panics identically.
    ///
    /// For a caller that knows which items survive, e.g. by counting them
    /// per machine, and reads them from where they already are.
    pub fn charge_filter(&mut self, kept: &Shape) {
        self.apply_step(Superstep::local("filter"));
        self.observe_shape(kept, "filter");
    }

    /// Balanced multicast: applies `f` to every item, flattening the results,
    /// with the copies *leaving on the wire* — rebalanced across machines —
    /// instead of piling up beside their source item.
    ///
    /// Use this when one item fans out into many addressed copies (an interval
    /// broadcast): in the model the copies are created down an `O(1)`-depth
    /// broadcast tree in which every relay sends and receives at most `s`
    /// words per round, so no machine ever holds one item's full fan-out. The
    /// receiving side's budget is the caller's obligation, checked by the next
    /// key-grouping superstep. Charges [`costs::MULTICAST`] rounds and the
    /// emitted volume as communication.
    pub fn flat_map_rebalanced<T, U, F>(&mut self, dv: &DistVec<T>, f: F) -> DistVec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> Vec<U> + Sync,
    {
        let emitted: Vec<U> = concat(compute::per_part(&dv.parts, |_, part| {
            part.iter().flat_map(&f).collect()
        }));
        self.charge_multicast(emitted.len());
        DistVec::from_parts(compute::balance(emitted, self.config.machines))
    }

    /// Charges a balanced multicast of `volume` copies without materializing
    /// them: the receipt and the observed load profile are exactly those of a
    /// [`Cluster::flat_map_rebalanced`] emitting `volume` items — the copies
    /// spread over the machines in equal blocks — and a strict cluster panics
    /// identically. Returns the copies' shape.
    ///
    /// For a caller that needs a multicast's cost but not its copies, e.g.
    /// the ⊡ combine's per-level tree copies, whose counts it reads from
    /// its own tables.
    pub fn charge_multicast(&mut self, volume: usize) -> Shape {
        self.apply_step(Superstep::new("multicast", costs::MULTICAST, volume as u64));
        let out = Shape::balanced(volume, self.config.machines);
        self.observe_shape(&out, "multicast");
        out
    }

    /// Applies `f` to every item and flattens the results (purely local).
    pub fn flat_map<T, U, F>(&mut self, dv: &DistVec<T>, f: F) -> DistVec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> Vec<U> + Sync,
    {
        let parts = compute::per_part(&dv.parts, |_, part| part.iter().flat_map(&f).collect());
        let out = DistVec::from_parts(parts);
        self.charge_flat_map(&out.shape());
        out
    }

    /// Charges a [`Cluster::flat_map`] that leaves `emitted` items per
    /// machine, without running it. A strict cluster panics identically.
    ///
    /// For a caller that knows how many items every machine's inputs expand
    /// to but never needs the items themselves.
    pub fn charge_flat_map(&mut self, emitted: &Shape) {
        self.apply_step(Superstep::local("flat_map"));
        self.observe_shape(emitted, "flat_map");
    }

    /// Creates an empty distributed vector.
    pub fn empty<T: Send>(&mut self) -> DistVec<T> {
        DistVec::from_parts((0..self.config.machines).map(|_| Vec::new()).collect())
    }

    /// Broadcasts a small value to all machines (Õ(s) words per machine).
    pub fn broadcast<T: Clone>(&mut self, value: T) -> T {
        self.apply_step(Superstep::new(
            "broadcast",
            costs::BROADCAST,
            self.config.machines as u64,
        ));
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn cluster(n: usize, delta: f64) -> Cluster {
        Cluster::new(MpcConfig::new(n, delta))
    }

    #[test]
    fn distribute_balances_items() {
        let mut cl = cluster(1000, 0.5);
        let dv = cl.distribute((0..1000u32).collect());
        assert_eq!(dv.len(), 1000);
        assert!(dv.max_load() <= cl.config().space);
        assert_eq!(cl.rounds(), 0);
    }

    #[test]
    fn sort_by_key_sorts_globally() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cl = cluster(5000, 0.5);
        let mut items: Vec<u32> = (0..5000).collect();
        items.shuffle(&mut rng);
        let dv = cl.distribute(items);
        let sorted = cl.sort_by_key(dv, |&x| x);
        let flat = sorted.into_inner();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cl.rounds(), costs::SORT);
    }

    #[test]
    fn prefix_sums_are_exclusive() {
        let mut cl = cluster(100, 0.5);
        let dv = cl.distribute(vec![1u64; 100]);
        let ps = cl.prefix_sums(dv, |&w| w);
        let flat = ps.into_inner();
        for (i, (_, sum)) in flat.iter().enumerate() {
            assert_eq!(*sum, i as u64);
        }
    }

    #[test]
    fn prefix_sums_cross_machine_bases_match_sequential() {
        // Non-uniform weights across many machines exercise the base-offset
        // phase of the parallel scan.
        let mut cl = Cluster::new(MpcConfig::new(4000, 0.5).with_machines(13));
        let weights: Vec<u64> = (0..4000u64).map(|i| i % 7).collect();
        let dv = cl.distribute(weights.clone());
        let flat = cl.prefix_sums(dv, |&w| w).into_inner();
        let mut running = 0u64;
        for (i, (w, sum)) in flat.into_iter().enumerate() {
            assert_eq!(w, weights[i]);
            assert_eq!(sum, running, "at index {i}");
            running += w;
        }
    }

    #[test]
    fn rank_search_counts_smaller_values_per_group() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cl = cluster(2000, 0.5);
        let values: Vec<(u32, u64)> = (0..2000)
            .map(|_| (rng.gen_range(0..5), rng.gen_range(0..1000)))
            .collect();
        let queries: Vec<(u32, u64)> = (0..500)
            .map(|_| (rng.gen_range(0..6), rng.gen_range(0..1100)))
            .collect();
        let vdv = cl.distribute(values.clone());
        let qdv = cl.distribute(queries);
        let answered = cl.rank_search(&vdv, |&v| v, qdv, |&q| q);
        for ((group, threshold), count) in answered.into_inner() {
            let expected = values
                .iter()
                .filter(|&&(g, v)| g == group && v < threshold)
                .count() as u64;
            assert_eq!(count, expected);
        }
    }

    #[test]
    fn rank_search_multi_answers_every_threshold() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cl = cluster(3000, 0.5);
        let values: Vec<(u32, u64)> = (0..3000)
            .map(|_| (rng.gen_range(0..7), rng.gen_range(0..500)))
            .collect();
        let queries: Vec<(u32, Vec<u64>)> = (0..200)
            .map(|_| {
                let group = rng.gen_range(0..8);
                let k = rng.gen_range(1..6);
                let mut thresholds: Vec<u64> = (0..k).map(|_| rng.gen_range(0..600)).collect();
                thresholds.sort_unstable();
                (group, thresholds)
            })
            .collect();
        let vdv = cl.distribute(values.clone());
        let qdv = cl.distribute(queries);
        let answered = cl.rank_search_multi(&vdv, |&v| v, qdv, |q| (q.0, q.1.clone()));
        for ((group, thresholds), counts) in answered.into_inner() {
            assert_eq!(thresholds.len(), counts.len());
            for (t, c) in thresholds.iter().zip(&counts) {
                let expected = values
                    .iter()
                    .filter(|&&(g, v)| g == group && v < *t)
                    .count() as u64;
                assert_eq!(*c, expected, "group={group} t={t}");
            }
        }
        assert_eq!(cl.rounds(), costs::RANK_SEARCH_MULTI);
    }

    #[test]
    fn shared_index_queries_charge_like_rank_search_multi() {
        // Values indexed at two "levels" (group g and group 100 + g/2); each
        // level is queried through the shared index, charging one level's
        // worth of values, exactly as a per-level rank_search_multi would.
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<(u32, u64)> = (0..1500)
            .map(|_| (rng.gen_range(0..6), rng.gen_range(0..300)))
            .collect();
        let queries: Vec<(u32, Vec<u64>)> = (0..120)
            .map(|_| {
                let mut t: Vec<u64> = (0..3).map(|_| rng.gen_range(0..320)).collect();
                t.sort_unstable();
                (rng.gen_range(0..7), t)
            })
            .collect();
        let level = |l: u32, g: u32| if l == 0 { g } else { 100 + g / 2 };

        let mut direct = Cluster::new(MpcConfig::new(1500, 0.5));
        let vdv = direct.distribute(values.clone());
        let mut expected = Vec::new();
        for l in 0..2 {
            let qdv = direct.distribute(queries.clone());
            let out = direct.rank_search_multi(
                &vdv,
                |&(g, v)| (level(l, g), v),
                qdv,
                |(g, t)| (level(l, *g), t.clone()),
            );
            expected.push(out.into_inner());
        }

        let mut shared = Cluster::new(MpcConfig::new(1500, 0.5));
        let vdv = shared.distribute(values.clone());
        let index = shared.rank_index(&vdv, |&(g, v)| [(level(0, g), v), (level(1, g), v)]);
        assert_eq!(index.len(), 2 * values.len());
        for (l, expected) in expected.iter().enumerate() {
            let qdv = shared.distribute(queries.clone());
            let l = l as u32;
            let out = shared.rank_search_multi_in(&index, vdv.len() as u64, qdv, |(g, t)| {
                (level(l, *g), t.clone())
            });
            assert_eq!(&out.into_inner(), expected, "level {l}");
        }
        assert_eq!(direct.ledger(), shared.ledger());
    }

    #[test]
    fn heap_packing_matches_linear_scan_lpt() {
        let mut rng = StdRng::seed_from_u64(13);
        let cases: Vec<Vec<usize>> = vec![
            Vec::new(),
            vec![5; 40],
            vec![0; 9],
            (0..300).map(|_| rng.gen_range(1..4)).collect(),
            (0..500).map(|_| rng.gen_range(0..1000)).collect(),
            // Many ties: the counting sort must keep tied groups in index order.
            (0..2000)
                .map(|_| [0, 1, 7, 7, 7, 64][rng.gen_range(0..6usize)])
                .collect(),
            (0..700).map(|g| 5 + g % 3).collect(),
            // One huge group, then a long run of size 1: the load spread is
            // far larger than the run's size, so most picks precede the
            // cycle.
            [vec![7168], vec![1; 5000]].concat(),
            // More machines than groups.
            vec![3, 3, 9, 1, 0],
            // Zero-size groups between nonzero ones, in group order.
            (0..900).map(|g| [4, 0, 9, 0, 0, 2][g % 6]).collect(),
            // After the size-12 run every load is a multiple of 4, so the
            // size-4 run starts with all loads congruent mod its size.
            [vec![12; 30], vec![4; 400], vec![2; 99]].concat(),
            // Long runs over uneven loads.
            (0..6000)
                .map(|_| [3, 5, 5, 11][rng.gen_range(0..4usize)])
                .collect(),
            (0..3000)
                .map(|g| if g < 20 { rng.gen_range(50..400) } else { 7 })
                .collect(),
            // Already in LPT order, ties and zeros included: packed in
            // group order, with no sort.
            {
                let mut sizes: Vec<usize> = (0..1500).map(|_| rng.gen_range(0..40)).collect();
                sizes.sort_unstable_by(|a, b| b.cmp(a));
                sizes
            },
        ];
        for sizes in &cases {
            for machines in [1, 2, 7, 128] {
                assert_eq!(
                    compute::pack_groups(sizes, machines),
                    compute::oracle::pack_groups(sizes, machines),
                    "machines={machines} sizes={sizes:?}"
                );
            }
        }
    }

    /// Random parts of `(key, String)` items: `keys` draws each key, and a
    /// part may be empty.
    fn keyed_parts<K>(
        rng: &mut StdRng,
        machines: usize,
        items: usize,
        mut keys: impl FnMut(&mut StdRng) -> K,
    ) -> Vec<Vec<(K, String)>> {
        let mut parts: Vec<Vec<(K, String)>> = (0..machines).map(|_| Vec::new()).collect();
        for i in 0..items {
            let m = rng.gen_range(0..machines);
            let k = keys(rng);
            parts[m].push((k, format!("item-{i}")));
        }
        parts
    }

    fn assert_gather_matches_oracle<K>(parts: Vec<Vec<(K, String)>>, case: &str)
    where
        K: Ord + std::hash::Hash + Clone + Send + Sync + std::fmt::Debug,
    {
        let (keys, side) = group::gather(parts.clone(), |(k, _)| k.clone());
        let got: Vec<(K, Vec<(K, String)>)> = keys
            .iter()
            .enumerate()
            .map(|(g, k)| (k.clone(), side.group(g).iter().cloned().collect()))
            .collect();
        let expected = compute::oracle::gather_groups(parts, |(k, _)| k.clone());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{case}: key order");
        assert_eq!(got, expected, "{case}");
    }

    #[test]
    fn hashed_gather_matches_the_comparison_oracle() {
        let mut rng = StdRng::seed_from_u64(19);
        for round in 0..40 {
            let machines = rng.gen_range(1..9);
            let items = rng.gen_range(0..400);
            // Tuple keys, as the descent and lift joins use.
            let span = rng.gen_range(1..50u32);
            let parts = keyed_parts(&mut rng, machines, items, |r| {
                (
                    r.gen_range(0..3u64),
                    r.gen_range(0..span),
                    r.gen_range(0..2u32),
                )
            });
            assert_gather_matches_oracle(parts, &format!("tuple keys, round {round}"));
            // Keys that differ only in their high bits.
            let parts = keyed_parts(&mut rng, machines, items, |r| {
                r.gen_range(0..64u64) << 58 | 0x5A5A
            });
            assert_gather_matches_oracle(parts, &format!("high-bit keys, round {round}"));
            // Heavy duplicates: two distinct keys.
            let parts = keyed_parts(&mut rng, machines, items, |r| r.gen_range(0..2u32));
            assert_gather_matches_oracle(parts, &format!("duplicates, round {round}"));
            // One group.
            let parts = keyed_parts(&mut rng, machines, items, |_| 7u32);
            assert_gather_matches_oracle(parts, &format!("one group, round {round}"));
            // All keys distinct (the arrival index, scrambled).
            let mut next = 0u64;
            let parts = keyed_parts(&mut rng, machines, items, |_| {
                next += 1;
                next.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            assert_gather_matches_oracle(parts, &format!("distinct, round {round}"));
            // Non-Copy keys.
            let parts = keyed_parts(&mut rng, machines, items, |r| {
                format!("k{}", r.gen_range(0..30))
            });
            assert_gather_matches_oracle(parts, &format!("string keys, round {round}"));
        }
        // Only empty parts.
        assert_gather_matches_oracle::<u64>(vec![Vec::new(); 4], "empty parts");
        assert_gather_matches_oracle::<u64>(Vec::new(), "no parts");
    }

    /// The grouping primitives as they ran on an owned per-group gather: the
    /// comparison oracle gathers, every group gets its items by value, and
    /// the charges are the documented ones.
    mod owned {
        use super::*;

        /// Every group's item count.
        fn sizes<K, T>(groups: &[(K, Vec<T>)]) -> Vec<usize> {
            groups.iter().map(|(_, items)| items.len()).collect()
        }

        pub(super) fn group_map<T, K: Ord, U>(
            cl: &mut Cluster,
            dv: DistVec<T>,
            key: impl Fn(&T) -> K,
            f: impl Fn(&K, Vec<T>) -> Vec<U>,
        ) -> DistVec<U> {
            cl.apply_step(Superstep::new(
                "group_map",
                costs::GROUP_MAP,
                dv.len() as u64,
            ));
            let groups = compute::oracle::gather_groups(dv.parts, key);
            let (machine_of_group, _) = cl.pack_checked(&sizes(&groups), "group_map");
            let mut parts: Vec<Vec<U>> = (0..cl.config.machines).map(|_| Vec::new()).collect();
            for ((k, items), machine) in groups.into_iter().zip(machine_of_group) {
                parts[machine].extend(f(&k, items));
            }
            let out = DistVec::from_parts(parts);
            cl.observe(&out, "group_map");
            out
        }

        pub(super) fn group_map_rebalanced<T, K: Ord, U: Send>(
            cl: &mut Cluster,
            dv: DistVec<T>,
            key: impl Fn(&T) -> K,
            f: impl Fn(&K, Vec<T>) -> Vec<U>,
        ) -> DistVec<U> {
            let total = dv.len() as u64;
            let groups = compute::oracle::gather_groups(dv.parts, key);
            cl.pack_checked(&sizes(&groups), "group_map_rebalanced");
            let emitted: Vec<U> = groups
                .into_iter()
                .flat_map(|(k, items)| f(&k, items))
                .collect();
            let communication = total + emitted.len() as u64;
            let out = DistVec::from_parts(compute::balance(emitted, cl.config.machines));
            cl.account(
                Superstep::new("group_map_rebalanced", costs::GROUP_MAP, communication),
                &out,
            );
            out
        }

        enum Tagged<A, B> {
            Left(A),
            Right(B),
        }

        /// Tags both sides into one stream, gathers it, and splits every
        /// group back into its sides.
        pub(super) fn cogroup_map<A, B, K: Ord, U>(
            cl: &mut Cluster,
            a: DistVec<A>,
            b: DistVec<B>,
            key_a: impl Fn(&A) -> K,
            key_b: impl Fn(&B) -> K,
            f: impl Fn(&K, Vec<A>, Vec<B>) -> Vec<U>,
        ) -> DistVec<U> {
            let total = (a.len() + b.len()) as u64;
            cl.apply_step(Superstep::new("cogroup_map", costs::GROUP_MAP, total));
            let mut parts: Vec<Vec<Tagged<A, B>>> = a
                .parts
                .into_iter()
                .map(|p| p.into_iter().map(Tagged::Left).collect())
                .collect();
            parts.resize_with(parts.len().max(b.parts.len()), Vec::new);
            for (i, p) in b.parts.into_iter().enumerate() {
                parts[i].extend(p.into_iter().map(Tagged::Right));
            }
            let groups = compute::oracle::gather_groups(parts, |t| match t {
                Tagged::Left(x) => key_a(x),
                Tagged::Right(y) => key_b(y),
            });
            let (machine_of_group, _) = cl.pack_checked(&sizes(&groups), "cogroup_map");
            let mut parts: Vec<Vec<U>> = (0..cl.config.machines).map(|_| Vec::new()).collect();
            for ((k, items), machine) in groups.into_iter().zip(machine_of_group) {
                let (mut lefts, mut rights) = (Vec::new(), Vec::new());
                for t in items {
                    match t {
                        Tagged::Left(x) => lefts.push(x),
                        Tagged::Right(y) => rights.push(y),
                    }
                }
                parts[machine].extend(f(&k, lefts, rights));
            }
            let out = DistVec::from_parts(parts);
            cl.observe(&out, "cogroup_map");
            out
        }
    }

    /// Whether a side's second fields strictly ascend in arrival order.
    fn ascending<K>(side: &Group<'_, (K, u32)>) -> bool {
        side.iter().zip(side.iter().skip(1)).all(|(x, y)| x.1 < y.1)
    }

    /// A group's outputs, chosen by its key: none, one, or one per item plus
    /// a trailer.
    fn emit<K: std::hash::Hash>(k: &K, items: Vec<(K, String)>) -> Vec<String> {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        match h.finish() % 3 {
            0 => Vec::new(),
            1 => vec![format!("{} items", items.len())],
            _ => items
                .into_iter()
                .map(|(_, s)| s)
                .chain(std::iter::once("end".to_string()))
                .collect(),
        }
    }

    /// Runs `run` on a pool of `threads` threads.
    fn on_threads<R: Send>(threads: usize, run: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(run)
    }

    /// Every grouping primitive against its owned oracle run on `parts`, and
    /// the local passes against sequential ones: identical per-machine
    /// outputs and ledgers, at 1, 2 and 4 threads.
    fn assert_grouping_matches_owned<K>(parts: Vec<Vec<(K, String)>>, case: &str)
    where
        K: Ord + std::hash::Hash + Clone + Send + Sync + std::fmt::Debug,
    {
        let items: usize = parts.iter().map(Vec::len).sum();
        let config = MpcConfig::lenient(items.max(1), 0.5).with_machines(parts.len().max(1));
        let key = |(k, _): &(K, String)| k.clone();
        let owned_view = |g: Group<'_, (K, String)>| g.iter().cloned().collect::<Vec<_>>();
        // The right side of a cogroup: each machine's odd positions, with the
        // payload upper-cased so the sides cannot be confused.
        let split = |parts: &[Vec<(K, String)>]| {
            let side = |odd: bool| -> Vec<Vec<(K, String)>> {
                parts
                    .iter()
                    .map(|p| {
                        p.iter()
                            .enumerate()
                            .filter(|(i, _)| (i % 2 == 1) == odd)
                            .map(|(_, (k, s))| {
                                (k.clone(), if odd { s.to_uppercase() } else { s.clone() })
                            })
                            .collect()
                    })
                    .collect()
            };
            (side(false), side(true))
        };
        let co = |k: &K, lefts: Vec<(K, String)>, rights: Vec<(K, String)>| {
            let mut out = emit(k, lefts);
            out.extend(rights.into_iter().map(|(_, s)| s));
            out
        };
        let (left, right) = split(&parts);

        let mut want = Cluster::new(config.clone());
        let expected = [
            owned::group_map(&mut want, DistVec::from_parts(parts.clone()), key, emit).parts,
            owned::group_map_rebalanced(&mut want, DistVec::from_parts(parts.clone()), key, emit)
                .parts,
            owned::cogroup_map(
                &mut want,
                DistVec::from_parts(left.clone()),
                DistVec::from_parts(right.clone()),
                key,
                key,
                co,
            )
            .parts,
        ];
        // The local passes, run part by part on the calling thread.
        let expected_local: Vec<[Vec<String>; 2]> = parts
            .iter()
            .map(|part| {
                let mapped = part.iter().map(|(_, s)| format!("{s}!"));
                let kept = part.iter().filter(|(_, s)| s.len() % 2 == 0);
                [mapped.collect(), kept.map(|(_, s)| s.clone()).collect()]
            })
            .collect();
        for threads in [1, 2, 4] {
            let got_local: Vec<[Vec<String>; 2]> = on_threads(threads, || {
                let mut cl = Cluster::new(config.clone());
                let dv = DistVec::from_parts(parts.clone());
                let mapped = cl.map(&dv, |(_, s)| format!("{s}!"));
                let kept = cl.filter(dv, |(_, s)| s.len() % 2 == 0);
                let kept = kept
                    .parts
                    .into_iter()
                    .map(|p| p.into_iter().map(|(_, s)| s));
                mapped
                    .parts
                    .into_iter()
                    .zip(kept)
                    .map(|(m, k)| [m, k.collect()])
                    .collect()
            });
            assert_eq!(
                got_local, expected_local,
                "{case}, {threads} threads: local"
            );

            let (got, ledger) = on_threads(threads, || {
                let mut cl = Cluster::new(config.clone());
                let view = cl.group_map_view(DistVec::from_parts(parts.clone()), key, |k, g| {
                    emit(k, owned_view(g))
                });
                let rebalanced =
                    cl.group_map_rebalanced(DistVec::from_parts(parts.clone()), key, |k, g| {
                        emit(k, owned_view(g))
                    });
                let cogrouped = cl.cogroup_map(
                    DistVec::from_parts(left.clone()),
                    DistVec::from_parts(right.clone()),
                    key,
                    key,
                    |k, l, r| co(k, owned_view(l), owned_view(r)),
                );
                (
                    [view.parts, rebalanced.parts, cogrouped.parts],
                    cl.ledger().clone(),
                )
            });
            assert_eq!(got, expected, "{case}, {threads} threads");
            assert_eq!(&ledger, want.ledger(), "{case}, {threads} threads: ledger");

            // The owned adapter charges and places exactly like the view.
            let (adapted, ledger) = on_threads(threads, || {
                let mut cl = Cluster::new(config.clone());
                let out = cl.group_map(DistVec::from_parts(parts.clone()), key, emit);
                (out.parts, cl.ledger().clone())
            });
            let mut once = Cluster::new(config.clone());
            owned::group_map(&mut once, DistVec::from_parts(parts.clone()), key, emit);
            assert_eq!(adapted, expected[0], "{case}, {threads} threads: adapter");
            assert_eq!(&ledger, once.ledger(), "{case}, {threads} threads: adapter");
        }
    }

    #[test]
    fn grouping_primitives_match_their_owned_oracle_runs() {
        let mut rng = StdRng::seed_from_u64(29);
        for round in 0..12 {
            let machines = rng.gen_range(1..9);
            let items = rng.gen_range(0..300);
            let span = rng.gen_range(1..40u32);
            let parts = keyed_parts(&mut rng, machines, items, |r| {
                (
                    r.gen_range(0..3u64),
                    r.gen_range(0..span),
                    r.gen_range(0..2u32),
                )
            });
            assert_grouping_matches_owned(parts, &format!("tuple keys, round {round}"));
            let parts = keyed_parts(&mut rng, machines, items, |r| {
                format!("k{}", r.gen_range(0..25))
            });
            assert_grouping_matches_owned(parts, &format!("string keys, round {round}"));
            let parts = keyed_parts(&mut rng, machines, items, |_| 3u32);
            assert_grouping_matches_owned(parts, &format!("one group, round {round}"));
            let mut next = 0u64;
            let parts = keyed_parts(&mut rng, machines, items, |_| {
                next += 1;
                next.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            assert_grouping_matches_owned(parts, &format!("distinct, round {round}"));
        }
        assert_grouping_matches_owned::<u64>(vec![Vec::new(); 3], "empty input");
        assert_grouping_matches_owned::<u64>(vec![Vec::new()], "empty single machine");
        // A few huge groups beside many tiny ones: packing puts the huge
        // ones on the lowest machines.
        for machines in [3, 8] {
            let parts = keyed_parts(&mut rng, machines, 3000, |r| {
                if r.gen_range(0..10) < 9 {
                    r.gen_range(0..3u32)
                } else {
                    r.gen_range(3..400u32)
                }
            });
            assert_grouping_matches_owned(parts, &format!("huge beside tiny, {machines} machines"));
        }
        // Just below and at the size where local passes leave the calling
        // thread.
        for items in [compute::INLINE_ITEMS - 1, compute::INLINE_ITEMS] {
            let parts = keyed_parts(&mut rng, 5, items, |r| r.gen_range(0..900u32));
            assert_grouping_matches_owned(parts, &format!("{items} items"));
        }
    }

    #[test]
    fn oversized_groups_panic_like_the_owned_oracle_before_any_group_runs() {
        fn parts() -> Vec<Vec<u32>> {
            vec![(0..12).collect(), (0..9).collect()]
        }
        fn ran<T>(_: &u32, _: Group<'_, T>) -> Option<u32> {
            panic!("a group ran")
        }
        type Run = fn(&mut Cluster);
        let cases: [(&str, Run, Run); 3] = [
            (
                "group_map",
                |cl| {
                    cl.group_map_view(DistVec::from_parts(parts()), |v| v % 2, ran);
                },
                |cl| {
                    owned::group_map(cl, DistVec::from_parts(parts()), |v| v % 2, |_, v| v);
                },
            ),
            (
                "group_map_rebalanced",
                |cl| {
                    cl.group_map_rebalanced(DistVec::from_parts(parts()), |v| v % 2, ran);
                },
                |cl| {
                    let dv = DistVec::from_parts(parts());
                    owned::group_map_rebalanced(cl, dv, |v| v % 2, |_, v| v);
                },
            ),
            (
                "cogroup_map",
                |cl| {
                    let [a, b] = [0, 1].map(|i| DistVec::from_parts(vec![parts()[i].clone()]));
                    cl.cogroup_map(a, b, |v| v % 2, |v| v % 2, |k, l, _| ran(k, l));
                },
                |cl| {
                    let [a, b] = [0, 1].map(|i| DistVec::from_parts(vec![parts()[i].clone()]));
                    owned::cogroup_map(cl, a, b, |v| v % 2, |v| v % 2, |_, l, _| l);
                },
            ),
        ];
        let panic_of = |run: Run| -> String {
            let config = MpcConfig::new(10_000, 0.5).with_machines(3).with_space(10);
            let err = std::panic::catch_unwind(move || run(&mut Cluster::new(config)))
                .expect_err("strict cluster must refuse");
            err.downcast_ref::<String>()
                .cloned()
                .expect("formatted message")
        };
        for (primitive, view, oracle) in cases {
            let got = panic_of(view);
            assert!(
                got.contains(&format!("space budget exceeded in `{primitive}`")),
                "{primitive}: {got}"
            );
            assert_eq!(got, panic_of(oracle), "{primitive}");
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 2^32 items")]
    fn a_gather_of_2_pow_32_items_is_refused() {
        // Zero-sized items: 2^32 of them take no memory.
        let _ = group::gather(vec![vec![(); 1 << 32]], |_| 0u8);
    }

    #[test]
    fn group_map_runs_each_group_once() {
        let mut cl = cluster(1000, 0.5);
        let items: Vec<(u32, u32)> = (0..1000).map(|i| (i % 17, i)).collect();
        let dv = cl.distribute(items);
        let out = cl.group_map(
            dv,
            |&(g, _)| g,
            |&g, items| {
                vec![(
                    g,
                    items.len() as u32,
                    items.iter().map(|&(_, v)| v).min().unwrap(),
                )]
            },
        );
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat.len(), 17);
        for (g, count, min) in flat {
            let expected = (0..1000u32).filter(|i| i % 17 == g).count() as u32;
            assert_eq!(count, expected);
            assert_eq!(min, g);
        }
    }

    #[test]
    #[should_panic(expected = "space budget exceeded")]
    fn strict_mode_panics_on_oversized_group() {
        let mut cl = Cluster::new(MpcConfig::new(10_000, 0.5).with_space(10).strict());
        let items: Vec<u32> = (0..1000).collect();
        let dv = DistVec::from_parts(vec![items]);
        // All items share one group: cannot fit on a machine with space 10.
        let _ = cl.group_map(dv, |_| 0u32, |_, items| items);
    }

    #[test]
    fn lenient_mode_records_an_oversized_group() {
        let mut cl = Cluster::new(MpcConfig::lenient(10_000, 0.5).with_space(10));
        cl.set_phase(Some("gather"));
        let items: Vec<u32> = (0..1000).collect();
        let dv = DistVec::from_parts(vec![items]);
        let mut out = cl.group_map(dv, |_| 0u32, |_, items| items).into_inner();
        out.sort_unstable();
        assert_eq!(
            out,
            (0..1000).collect::<Vec<u32>>(),
            "every item comes back"
        );
        let ledger = cl.ledger();
        assert!(ledger.space_violations > 0);
        assert!(ledger.violations_by_phase["gather"] > 0);
    }

    #[test]
    fn cogroup_map_joins_both_sides_per_key() {
        let mut cl = cluster(1000, 0.5);
        // Left: 2 items per key 0..10; right: 1 query per even key, plus a
        // right-only key 99.
        let left: Vec<(u32, u32)> = (0..20).map(|i| (i % 10, i)).collect();
        let mut right: Vec<(u32, &'static str)> = (0..10).step_by(2).map(|k| (k, "q")).collect();
        right.push((99, "lonely"));
        let ldv = cl.distribute(left);
        let rdv = cl.distribute(right);
        let out = cl.cogroup_map(
            ldv,
            rdv,
            |&(k, _)| k,
            |&(k, _)| k,
            |&k, lefts, rights| Some((k, lefts.len(), rights.len())),
        );
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat.len(), 11);
        for &(k, nl, nr) in &flat {
            if k == 99 {
                assert_eq!((nl, nr), (0, 1));
            } else {
                assert_eq!(nl, 2, "key {k}");
                assert_eq!(nr, usize::from(k % 2 == 0), "key {k}");
            }
        }
        assert_eq!(cl.ledger().primitive_counts["cogroup_map"], 1);
        assert_eq!(cl.rounds(), costs::GROUP_MAP);
    }

    #[test]
    fn cogroup_map_preserves_side_order_within_groups() {
        let mut cl = Cluster::new(MpcConfig::new(600, 0.5).with_machines(7));
        let left: Vec<(u32, u32)> = (0..300).map(|i| (i % 3, i)).collect();
        let right: Vec<(u32, u32)> = (0..90).map(|i| (i % 3, 1000 + i)).collect();
        let ldv = cl.distribute(left);
        let rdv = cl.distribute(right);
        let out = cl.cogroup_map(
            ldv,
            rdv,
            |&(k, _)| k,
            |&(k, _)| k,
            |&k, lefts, rights| {
                // Each side must arrive in its own global order.
                assert!(ascending(&lefts), "key {k}");
                assert!(ascending(&rights), "key {k}");
                Some((k, lefts.len() + rights.len()))
            },
        );
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat, vec![(0, 130), (1, 130), (2, 130)]);
    }

    #[test]
    fn cogroup_map_keeps_side_order_under_scattered_tuple_keys() {
        // Both sides scattered over the machines with tuple keys that differ
        // only in their high part, the right side shuffled: each side still
        // arrives in its own global order.
        let mut rng = StdRng::seed_from_u64(23);
        let mut cl = Cluster::new(MpcConfig::new(2000, 0.5).with_machines(5));
        let key = |i: u32| ((i as u64 % 4) << 40, i % 3);
        let left: Vec<((u64, u32), u32)> = (0..400).map(|i| (key(i), i)).collect();
        let mut right: Vec<((u64, u32), u32)> =
            (0..150).map(|i| (key(i * 7), 10_000 + i)).collect();
        right.shuffle(&mut rng);
        let expected_right: Vec<u32> = right.iter().map(|&(_, v)| v).collect();
        let ldv = cl.distribute(left);
        let rdv = cl.distribute(right);
        let out = cl.cogroup_map(
            ldv,
            rdv,
            |&(k, _)| k,
            |&(k, _)| k,
            |&k, lefts, rights| {
                assert!(ascending(&lefts), "key {k:?}");
                Some((k, rights.iter().map(|&(_, v)| v).collect::<Vec<_>>()))
            },
        );
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat.len(), 12);
        for (k, rights) in flat {
            let in_arrival: Vec<u32> = expected_right
                .iter()
                .copied()
                .filter(|&v| key((v - 10_000) * 7) == k)
                .collect();
            assert_eq!(rights, in_arrival, "key {k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "space budget exceeded in `cogroup_map`")]
    fn strict_mode_panics_on_oversized_cogroup() {
        let mut cl = Cluster::new(MpcConfig::new(10_000, 0.5).with_space(10).strict());
        let left: Vec<u32> = (0..30).collect();
        let right: Vec<u32> = (0..30).collect();
        let ldv = cl.distribute(left);
        let rdv = cl.distribute(right);
        let _ = cl.cogroup_map(
            ldv,
            rdv,
            |_| 0u32,
            |_| 0u32,
            |_, l, _| l.iter().copied().collect::<Vec<_>>(),
        );
    }

    #[test]
    fn group_map_rebalanced_spreads_emitted_copies() {
        // One group emitting far more than s must not overload any machine:
        // the outputs leave on the wire, balanced.
        let mut cl = Cluster::new(MpcConfig::new(400, 0.5).with_space(64).strict());
        let items: Vec<u32> = (0..40).collect();
        let dv = cl.distribute(items);
        let out = cl.group_map_rebalanced(
            dv,
            |_| 0u32,
            |_, items| {
                items
                    .iter()
                    .flat_map(|&v| (0..10).map(move |c| (v, c)))
                    .collect::<Vec<_>>()
            },
        );
        assert!(out.max_load() <= cl.config().space);
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat.len(), 400);
        assert_eq!(flat[0], (0, 0));
        assert_eq!(flat[399], (39, 9));
        assert_eq!(cl.ledger().primitive_counts["group_map_rebalanced"], 1);
    }

    #[test]
    fn flat_map_rebalanced_multicast_is_balanced_and_charged() {
        let mut cl = Cluster::new(MpcConfig::new(100, 0.5).with_space(32).strict());
        let dv = cl.distribute((0..20u32).collect());
        let rounds_before = cl.rounds();
        // Every item fans out 15-fold: piled beside its source this would
        // overload a machine; balanced it fits.
        let out = cl.flat_map_rebalanced(&dv, |&v| (0..15u32).map(|c| (v, c)).collect());
        assert_eq!(out.len(), 300);
        assert!(out.max_load() <= cl.config().space);
        assert_eq!(cl.rounds() - rounds_before, costs::MULTICAST);
        assert!(cl.ledger().communication >= 300);
    }

    #[test]
    fn charged_multicast_leaves_the_ledger_of_a_materialized_one() {
        for machines in [1, 7, 64] {
            for volume in [0usize, 3, 64, 65, 10_000, 123_457] {
                let config = MpcConfig::lenient(100_000, 0.5).with_machines(machines);
                let mut built = Cluster::new(config.clone());
                let mut charged = Cluster::new(config);
                // One source item fans out `volume` copies; the phase holds
                // only the multicast's load profile.
                let dv = built.distribute(vec![()]);
                let _ = charged.distribute(vec![()]);
                built.set_phase(Some("tree"));
                charged.set_phase(Some("tree"));
                let out = built.flat_map_rebalanced(&dv, |_| vec![0u8; volume]);
                assert_eq!(out.len(), volume);
                charged.charge_multicast(volume);
                assert_eq!(
                    built.ledger(),
                    charged.ledger(),
                    "machines={machines} volume={volume}"
                );
            }
        }
    }

    /// Per-machine parts of keyed items.
    type Parts = Vec<Vec<(u32, String)>>;

    /// Keyed items on `machines` machines, as the charge-only primitives'
    /// tests need them: no items, one group, all-distinct keys, and skewed
    /// group sizes (key `k` holding `2^k` items), scattered over the machines.
    fn charge_cases(rng: &mut StdRng, machines: usize) -> Vec<(&'static str, Parts)> {
        let mut next = 0u32;
        let skewed: Vec<u32> = (0..8u32)
            .flat_map(|k| std::iter::repeat_n(k, 1 << k))
            .collect();
        let mut at = 0;
        vec![
            ("empty", keyed_parts(rng, machines, 0, |_| 0u32)),
            ("one group", keyed_parts(rng, machines, 40, |_| 7u32)),
            (
                "all distinct",
                keyed_parts(rng, machines, 90, |_| {
                    next += 1;
                    next.wrapping_mul(0x9E37_79B9)
                }),
            ),
            (
                "skewed",
                keyed_parts(rng, machines, skewed.len(), |_| {
                    at += 1;
                    skewed[at - 1]
                }),
            ),
        ]
    }

    /// The groups `group_map_view` forms over `parts`: distinct keys
    /// ascending, each with its items in arrival order.
    fn groups_of(parts: &[Vec<(u32, String)>]) -> (Vec<u32>, Parts) {
        let mut groups: std::collections::BTreeMap<u32, Vec<(u32, String)>> = Default::default();
        for item in parts.iter().flatten() {
            groups.entry(item.0).or_default().push(item.clone());
        }
        groups.into_iter().unzip()
    }

    #[test]
    fn charge_only_primitives_leave_the_ledger_of_materialized_ones() {
        let mut rng = StdRng::seed_from_u64(37);
        for machines in [1, 7, 64] {
            for (case, parts) in charge_cases(&mut rng, machines) {
                let case = format!("{case}, {machines} machines");
                let config = MpcConfig::lenient(10_000, 0.5).with_machines(machines);
                let dv = DistVec::from_parts(parts.clone());
                // A second vector of another shape: the items moved one
                // machine over.
                let mut rotated = parts.clone();
                rotated.rotate_right(1);
                let other = DistVec::from_parts(rotated);
                let key = |(k, _): &(u32, String)| *k;
                let rank_key = |(k, s): &(u32, String)| (*k, s.len() as u64);
                let (keys, groups) = groups_of(&parts);
                let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();

                // Group `g` of the sized twins emits `g % 3` outputs.
                let emitted = |g: usize| g % 3;
                let even = |&(k, _): &(u32, String)| k % 2 == 0;
                let count = |part: &Vec<(u32, String)>, f: &dyn Fn(&(u32, String)) -> usize| {
                    part.iter().map(f).sum::<usize>()
                };
                let kept_shape = Shape::from_loads(
                    parts
                        .iter()
                        .map(|p| count(p, &|t| usize::from(even(t))))
                        .collect(),
                );
                let spread_shape = Shape::from_loads(
                    parts
                        .iter()
                        .map(|p| count(p, &|(k, _)| *k as usize % 3))
                        .collect(),
                );
                for threads in [1, 4] {
                    let ((built, grouped, shapes), (charged, sized, charged_shapes)) =
                        on_threads(threads, || {
                            let mut cl = Cluster::new(config.clone());
                            cl.set_phase(Some("step"));
                            let mapped = cl.map(&dv, |&(k, _)| k);
                            let ranked = cl.rank_search(&dv, rank_key, other.clone(), rank_key);
                            let ranked = cl.map(&ranked, |((k, _), r)| k + *r as u32);
                            let joined = cl.concat(mapped, ranked);
                            let copies = cl.flat_map_rebalanced(&dv, |&(k, _)| vec![k; 3]);
                            let copies_shape = copies.shape();
                            let all = cl.concat(joined.clone(), copies);
                            let view = cl.group_map_view(dv.clone(), key, |k, g| {
                                emit(k, g.iter().cloned().collect())
                            });
                            let rebalanced = cl.group_map_rebalanced(dv.clone(), key, |k, g| {
                                emit(k, g.iter().cloned().collect())
                            });
                            let again = cl.group_map_rebalanced(dv.clone(), key, |k, g| {
                                emit(k, g.iter().cloned().collect())
                            });
                            let kept = cl.filter(dv.clone(), even);
                            let spread =
                                cl.flat_map(&dv, |&(k, _)| vec![String::new(); k as usize % 3]);
                            let answered =
                                cl.rank_search_multi(&dv, rank_key, other.clone(), |q| {
                                    (q.0, vec![1, q.1.len() as u64])
                                });
                            let placed = cl.group_map_sized(&sizes, |g| {
                                std::iter::repeat_n(g.to_string(), emitted(g))
                            });
                            let placed_shape = placed.shape();
                            let built = (
                                cl.ledger().clone(),
                                [view.parts, rebalanced.parts, placed.parts],
                                [
                                    joined.shape(),
                                    copies_shape,
                                    all.shape(),
                                    again.shape(),
                                    kept.shape(),
                                    spread.shape(),
                                    answered.shape(),
                                    placed_shape,
                                ],
                            );

                            let mut cl = Cluster::new(config.clone());
                            cl.set_phase(Some("step"));
                            cl.charge_map(&dv.shape());
                            cl.charge_rank_search(dv.len(), &other.shape());
                            cl.charge_map(&other.shape());
                            let joined = cl.charge_concat(&dv.shape(), &other.shape());
                            let copies = cl.charge_multicast(3 * dv.len());
                            let all = cl.charge_concat(&joined, &copies);
                            let run = |g: usize| emit(&keys[g], groups[g].clone());
                            let view = cl.group_map_sized(&sizes, run);
                            let rebalanced = cl.group_map_rebalanced_sized(&sizes, run);
                            let again = cl.charge_group_map_rebalanced(&sizes, rebalanced.len());
                            cl.charge_filter(&kept_shape);
                            cl.charge_flat_map(&spread_shape);
                            let answered = cl.charge_rank_search_multi(
                                dv.len() as u64,
                                other.len(),
                                2 * other.len() as u64,
                            );
                            let placement = cl.charge_group_map_sized(&sizes, emitted);
                            // The placement read back as the machines' parts.
                            let mut placed = vec![Vec::new(); machines];
                            for g in 0..sizes.len() {
                                let outputs = std::iter::repeat_n(g.to_string(), emitted(g));
                                placed[placement.machine(g)].extend(outputs);
                            }
                            let charged = (
                                cl.ledger().clone(),
                                [view.parts, rebalanced.parts, placed],
                                [
                                    joined,
                                    copies,
                                    all,
                                    again,
                                    kept_shape.clone(),
                                    spread_shape.clone(),
                                    answered,
                                    placement.shape().clone(),
                                ],
                            );
                            (built, charged)
                        });
                    assert_eq!(grouped, sized, "{case}, {threads} threads: outputs");
                    assert_eq!(shapes, charged_shapes, "{case}, {threads} threads: shapes");
                    assert_eq!(built, charged, "{case}, {threads} threads: ledger");
                }
            }
        }
    }

    #[test]
    fn charge_only_primitives_panic_like_materialized_ones() {
        fn parts() -> Vec<Vec<u32>> {
            vec![(0..12).collect(), (0..9).collect(), Vec::new()]
        }
        fn ran(_: usize) -> Option<u32> {
            panic!("a group ran")
        }
        // Keyed by parity: 11 even items, 10 odd ones.
        const SIZES: [usize; 2] = [11, 10];
        type Run = fn(&mut Cluster);
        let cases: [(&str, Run, Run); 10] = [
            (
                "map",
                |cl| {
                    cl.map(&DistVec::from_parts(parts()), |&v| v);
                },
                |cl| cl.charge_map(&DistVec::from_parts(parts()).shape()),
            ),
            (
                "concat",
                |cl| {
                    let dv = DistVec::from_parts(vec![Vec::new(), (0..9).collect()]);
                    cl.concat(dv.clone(), dv);
                },
                |cl| {
                    let shape =
                        DistVec::from_parts(vec![Vec::<u32>::new(), (0..9).collect()]).shape();
                    cl.charge_concat(&shape, &shape);
                },
            ),
            (
                "rank_search",
                |cl| {
                    let dv = DistVec::from_parts(parts());
                    cl.rank_search(&dv, |&v| (0, v as u64), dv.clone(), |&v| (0, v as u64));
                },
                |cl| {
                    let dv = DistVec::from_parts(parts());
                    cl.charge_rank_search(dv.len(), &dv.shape());
                },
            ),
            (
                "group_map",
                |cl| {
                    cl.group_map_view(DistVec::from_parts(parts()), |v| v % 2, |_, _| ran(0));
                },
                |cl| {
                    cl.group_map_sized(&SIZES, ran);
                },
            ),
            (
                "group_map_rebalanced",
                |cl| {
                    cl.group_map_rebalanced(DistVec::from_parts(parts()), |v| v % 2, |_, _| ran(0));
                },
                |cl| {
                    cl.group_map_rebalanced_sized(&SIZES, ran);
                },
            ),
            (
                "group_map_rebalanced",
                |cl| {
                    cl.group_map_rebalanced(DistVec::from_parts(parts()), |v| v % 2, |_, _| ran(0));
                },
                |cl| {
                    cl.charge_group_map_rebalanced(&SIZES, 0);
                },
            ),
            (
                "group_map",
                |cl| {
                    cl.group_map_view(DistVec::from_parts(parts()), |v| v % 2, |_, _| ran(0));
                },
                |cl| {
                    cl.charge_group_map_sized(&SIZES, |_| 1);
                },
            ),
            (
                "filter",
                |cl| {
                    cl.filter(DistVec::from_parts(parts()), |_| true);
                },
                |cl| cl.charge_filter(&DistVec::from_parts(parts()).shape()),
            ),
            (
                "flat_map",
                |cl| {
                    cl.flat_map(&DistVec::from_parts(parts()), |&v| vec![v]);
                },
                |cl| cl.charge_flat_map(&DistVec::from_parts(parts()).shape()),
            ),
            (
                // 40 packages come home rebalanced, 14 on a machine.
                "rank_search_multi",
                |cl| {
                    let dv = DistVec::from_parts(parts());
                    let queries = DistVec::from_parts(vec![(0..40).collect(), Vec::new()]);
                    cl.rank_search_multi(&dv, |&v| (0u32, v as u64), queries, |&q| (0, vec![q]));
                },
                |cl| {
                    cl.charge_rank_search_multi(21, 40, 40);
                },
            ),
        ];
        let panic_of = |run: Run| -> String {
            let config = MpcConfig::new(10_000, 0.5).with_machines(3).with_space(10);
            let err = std::panic::catch_unwind(move || run(&mut Cluster::new(config)))
                .expect_err("strict cluster must refuse");
            err.downcast_ref::<String>()
                .cloned()
                .expect("formatted message")
        };
        for (primitive, built, charged) in cases {
            let want = panic_of(built);
            assert!(
                want.contains(&format!("space budget exceeded in `{primitive}`")),
                "{primitive}: {want}"
            );
            assert_eq!(panic_of(charged), want, "{primitive}");
        }
    }

    #[test]
    fn charged_multicast_panics_like_a_materialized_one() {
        let panic_of = |f: Box<dyn FnOnce() + std::panic::UnwindSafe>| -> String {
            let err = std::panic::catch_unwind(f).expect_err("strict cluster must refuse");
            err.downcast_ref::<String>()
                .cloned()
                .expect("formatted message")
        };
        let config = || MpcConfig::new(1000, 0.5).with_machines(4).with_space(10);
        let built = panic_of(Box::new(move || {
            let mut cl = Cluster::new(config());
            let dv = cl.distribute(vec![0u32; 8]);
            let _ = cl.flat_map_rebalanced(&dv, |_| vec![0u32; 6]);
        }));
        let charged = panic_of(Box::new(move || {
            let mut cl = Cluster::new(config());
            let _ = cl.distribute(vec![0u32; 8]);
            cl.charge_multicast(48);
        }));
        assert!(
            built.contains("space budget exceeded in `multicast`"),
            "{built}"
        );
        assert_eq!(built, charged);
    }

    #[test]
    fn phase_scope_prefixes_inner_phase_labels() {
        let mut cl = cluster(500, 0.5);
        cl.set_phase_scope(Some("outer-L1"));
        cl.set_phase(Some("inner"));
        let dv = cl.distribute((0..500u32).collect());
        let _ = cl.sort_by_key(dv, |&x| x);
        cl.set_phase(None::<String>);
        cl.charge_rounds("extra", 2); // attributed to the bare scope
        cl.set_phase_scope(None::<String>);
        cl.set_phase(Some("inner"));
        cl.charge_rounds("extra", 1); // unscoped phase
        let ledger = cl.ledger();
        assert_eq!(ledger.rounds_by_phase["outer-L1/inner"], costs::SORT);
        assert_eq!(ledger.rounds_by_phase["outer-L1"], 2);
        assert_eq!(ledger.rounds_by_phase["inner"], 1);
    }

    #[test]
    fn ledger_tracks_phases_and_primitives() {
        let mut cl = cluster(500, 0.5);
        cl.set_phase(Some("setup"));
        let dv = cl.distribute((0..500u32).collect());
        let dv = cl.sort_by_key(dv, |&x| std::cmp::Reverse(x));
        cl.set_phase(Some("work"));
        let _ = cl.sort_by_key(dv, |&x| x);
        assert_eq!(cl.ledger().rounds_by_phase["setup"], costs::SORT);
        assert_eq!(cl.ledger().rounds_by_phase["work"], costs::SORT);
        assert_eq!(cl.ledger().primitive_counts["sort"], 2);
        assert!(cl.ledger().communication >= 1000);
    }

    #[test]
    fn map_charges_no_rounds() {
        let mut cl = cluster(100, 0.5);
        let dv = cl.distribute((0..100u32).collect());
        let doubled = cl.map(&dv, |&x| x * 2);
        assert_eq!(cl.rounds(), 0);
        assert_eq!(doubled.len(), 100);
        assert_eq!(
            doubled.iter().copied().sum::<u32>(),
            (0..100).map(|x| x * 2).sum()
        );
    }

    #[test]
    fn cogroup_map_works_on_a_single_machine() {
        // m = 1: every group lands on machine 0; the join must still run and
        // keep each side's order.
        let mut cl = Cluster::new(MpcConfig::new(200, 0.5).with_machines(1));
        let left: Vec<(u32, u32)> = (0..40).map(|i| (i % 4, i)).collect();
        let right: Vec<(u32, u32)> = (0..12).map(|i| (i % 4, 100 + i)).collect();
        let ldv = cl.distribute(left);
        let rdv = cl.distribute(right);
        let out = cl.cogroup_map(
            ldv,
            rdv,
            |&(k, _)| k,
            |&(k, _)| k,
            |&k, lefts, rights| {
                assert!(ascending(&lefts), "key {k}");
                assert!(ascending(&rights), "key {k}");
                Some((k, lefts.len(), rights.len()))
            },
        );
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat, vec![(0, 10, 3), (1, 10, 3), (2, 10, 3), (3, 10, 3)]);
        assert_eq!(cl.rounds(), costs::GROUP_MAP);
    }

    #[test]
    fn cogroup_map_handles_all_empty_inputs() {
        // Both sides empty (and on a single machine): no groups run, the
        // output is empty on every machine, accounting still happens.
        for machines in [1, 5] {
            let mut cl = Cluster::new(MpcConfig::new(100, 0.5).with_machines(machines));
            let ldv = cl.empty::<(u32, u32)>();
            let rdv = cl.empty::<(u32, u32)>();
            let out = cl.cogroup_map(ldv, rdv, |&(k, _)| k, |&(k, _)| k, |&k, _, _| Some(k));
            assert_eq!(out.len(), 0, "machines={machines}");
            assert_eq!(out.machines(), machines);
            assert_eq!(cl.rounds(), costs::GROUP_MAP);
            assert_eq!(cl.ledger().space_violations, 0);
        }
    }

    #[test]
    fn cogroup_map_one_sided_empty_still_runs_groups() {
        let mut cl = Cluster::new(MpcConfig::new(100, 0.5).with_machines(1));
        let ldv = cl.distribute(vec![(0u32, 1u32), (1, 2)]);
        let rdv = cl.empty::<(u32, u32)>();
        let out = cl.cogroup_map(
            ldv,
            rdv,
            |&(k, _)| k,
            |&(k, _)| k,
            |&k, lefts, rights| Some((k, lefts.len(), rights.len())),
        );
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat, vec![(0, 1, 0), (1, 1, 0)]);
    }

    #[test]
    fn flat_map_rebalanced_works_on_a_single_machine_and_empty_input() {
        let mut cl = Cluster::new(MpcConfig::new(100, 0.5).with_machines(1));
        let dv = cl.distribute((0..10u32).collect());
        let out = cl.flat_map_rebalanced(&dv, |&v| vec![v, v]);
        let mut flat = out.into_inner();
        flat.sort_unstable();
        assert_eq!(flat.len(), 20);
        assert_eq!(cl.rounds(), costs::MULTICAST);

        // All-empty shards: the multicast emits nothing, charges its rounds,
        // and returns an empty vector with one part per machine.
        for machines in [1, 7] {
            let mut cl = Cluster::new(MpcConfig::new(100, 0.5).with_machines(machines));
            let dv = cl.empty::<u32>();
            let out = cl.flat_map_rebalanced(&dv, |&v| vec![v]);
            assert_eq!(out.len(), 0, "machines={machines}");
            assert_eq!(out.machines(), machines);
            assert_eq!(cl.rounds(), costs::MULTICAST);
        }
    }

    #[test]
    fn group_map_rebalanced_single_machine_and_empty() {
        let mut cl = Cluster::new(MpcConfig::new(100, 0.5).with_machines(1));
        let dv = cl.distribute((0..10u32).collect());
        let copied = |_: &u32, items: Group<'_, u32>| items.iter().copied().collect::<Vec<_>>();
        let out = cl.group_map_rebalanced(dv, |&v| v % 2, copied);
        assert_eq!(out.len(), 10);

        let empty = cl.empty::<u32>();
        let out = cl.group_map_rebalanced(empty, |&v| v, copied);
        assert_eq!(out.len(), 0);
        assert_eq!(out.machines(), 1);
    }

    #[test]
    fn fault_events_fire_at_their_supersteps() {
        use crate::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::delay(0, 1, 3).and_kill(1, 2);
        let mut cl = Cluster::new(MpcConfig::new(1000, 0.5).with_faults(plan));
        cl.set_phase(Some("work"));
        let dv = cl.distribute((0..1000u32).collect());
        assert_eq!(cl.superstep(), 0, "distribute is free: no barrier yet");
        let dv = cl.sort_by_key(dv, |&x| x); // superstep 1 → the delay fires
        assert_eq!(cl.superstep(), 1);
        assert_eq!(cl.ledger().stall_rounds, 3);
        assert!(cl.poll_kills().is_empty(), "no kill yet");
        let _ = cl.sort_by_key(dv, |&x| x); // superstep 2 → the kill fires
        assert_eq!(cl.poll_kills(), vec![1]);
        assert!(cl.poll_kills().is_empty(), "kills drain exactly once");
        let ledger = cl.ledger();
        assert_eq!(ledger.fault_events.len(), 2);
        assert_eq!(ledger.fault_events[0].kind, FaultKind::Delay(3));
        assert_eq!(ledger.fault_events[1].kind, FaultKind::Kill);
        assert_eq!(ledger.fault_events[1].phase.as_deref(), Some("work"));
        assert_eq!(ledger.superstep_spans["work"], (1, 2));
        assert_eq!(
            ledger.rounds,
            2 * costs::SORT,
            "stalls must not add synchronous rounds"
        );
        assert_eq!(ledger.kills(), 1);
    }

    #[test]
    fn past_due_fault_events_fire_at_the_next_barrier() {
        use crate::faults::FaultPlan;
        // Scheduled for superstep 5, but the run has fewer barriers per phase:
        // the event fires as soon as the clock reaches it, never silently
        // skipped while barriers keep happening.
        let mut cl = Cluster::new(MpcConfig::new(1000, 0.5).with_faults(FaultPlan::kill(2, 2)));
        let dv = cl.distribute((0..1000u32).collect());
        let dv = cl.sort_by_key(dv, |&x| x);
        let dv = cl.sort_by_key(dv, |&x| x);
        let _ = cl.sort_by_key(dv, |&x| x);
        assert_eq!(cl.superstep(), 3);
        assert_eq!(cl.poll_kills(), vec![2]);
        // Events beyond the final superstep simply do not fire.
        let ledger = cl.ledger();
        assert_eq!(ledger.fault_events.len(), 1);
        assert_eq!(ledger.fault_events[0].superstep, 2);
    }

    #[test]
    fn reset_ledger_rearms_the_fault_plan() {
        use crate::faults::FaultPlan;
        let mut cl = Cluster::new(MpcConfig::new(1000, 0.5).with_faults(FaultPlan::kill(1, 1)));
        let dv = cl.distribute((0..1000u32).collect());
        let _ = cl.sort_by_key(dv, |&x| x);
        assert_eq!(cl.poll_kills(), vec![1]);
        cl.reset_ledger();
        assert_eq!(cl.superstep(), 0);
        let dv = cl.distribute((0..1000u32).collect());
        let _ = cl.sort_by_key(dv, |&x| x);
        assert_eq!(cl.poll_kills(), vec![1], "schedule replays after reset");
    }

    #[test]
    #[should_panic(expected = "at least 2 machines")]
    fn kill_on_single_machine_cluster_is_rejected() {
        use crate::faults::FaultPlan;
        let cfg = MpcConfig::new(100, 0.5)
            .with_machines(1)
            .with_faults(FaultPlan::kill(0, 1));
        let _ = Cluster::new(cfg);
    }

    #[test]
    #[should_panic(expected = "targets machine")]
    fn fault_plan_must_target_existing_machines() {
        use crate::faults::FaultPlan;
        let cfg = MpcConfig::new(100, 0.5)
            .with_machines(4)
            .with_faults(FaultPlan::delay(9, 1, 1));
        let _ = Cluster::new(cfg);
    }

    #[test]
    fn charge_superstep_advances_clock_and_charges_both_measures() {
        let mut cl = cluster(100, 0.5);
        cl.set_phase(Some("checkpoint"));
        cl.charge_superstep("checkpoint", costs::CHECKPOINT, 42);
        assert_eq!(cl.superstep(), 1);
        assert_eq!(cl.rounds(), costs::CHECKPOINT);
        assert_eq!(cl.ledger().communication, 42);
        assert_eq!(cl.ledger().comm_by_phase["checkpoint"], 42);
        // Zero-round charges are not barriers.
        cl.charge_superstep("free", 0, 0);
        assert_eq!(cl.superstep(), 1);
    }

    #[test]
    fn ledger_identical_across_thread_counts() {
        // The compute/account split must keep accounting off the worker
        // threads: same history, same ledger, at any parallelism.
        let run = || {
            let mut cl = Cluster::new(MpcConfig::new(3000, 0.5));
            let dv = cl.distribute((0..3000u32).rev().collect::<Vec<_>>());
            let dv = cl.sort_by_key(dv, |&x| x);
            let dv = cl.map(&dv, |&x| (x % 37, x));
            let dv = cl.group_map(dv, |&(g, _)| g, |&g, items| vec![(g, items.len() as u32)]);
            let mut flat = dv.into_inner();
            flat.sort_unstable();
            (flat, cl.ledger().clone())
        };
        let sequential = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(run);
        for threads in [2, 4] {
            let parallel = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(run);
            assert_eq!(sequential.0, parallel.0, "outputs at {threads} threads");
            assert_eq!(sequential.1, parallel.1, "ledger at {threads} threads");
        }
    }
}
