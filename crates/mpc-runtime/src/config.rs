//! Configuration of the simulated MPC cluster.

use crate::faults::FaultPlan;

/// Parameters of the simulated cluster.
///
/// The defaults follow the paper's model: for an input of size `n` and scalability
/// parameter `δ ∈ (0, 1)` there are `⌈n^δ⌉` machines with `Θ(n^{1−δ})` space each
/// (the `Õ(·)` poly-log slack is exposed as [`MpcConfig::space_slack`]).
#[derive(Clone, Debug)]
pub struct MpcConfig {
    /// Problem size the space budget is derived from.
    pub n: usize,
    /// Scalability parameter `δ` (fully scalable algorithms must work for any value
    /// in `(0, 1)`).
    pub delta: f64,
    /// Number of machines `m`.
    pub machines: usize,
    /// Local space per machine `s`, in items.
    pub space: usize,
    /// Whether exceeding `space` should panic (strict mode) or merely be recorded in
    /// the ledger.
    pub enforce_space: bool,
    /// Multiplicative slack applied to `n^{1−δ}` when deriving `space`
    /// (stands in for the `Õ(·)` poly-log factors of the model).
    pub space_slack: f64,
    /// Deterministic fault schedule (kills/delays) the cluster injects; empty
    /// by default. **Orthogonal to space enforcement**: attaching a plan never
    /// touches [`MpcConfig::enforce_space`], so a strict cluster stays strict
    /// through recovery and a lenient one keeps recording.
    pub faults: FaultPlan,
    /// Forces level checkpointing in pipelines that support recovery (the LIS
    /// merge tree) even when no faults are scheduled and no witness is
    /// requested — useful for measuring the checkpoint overhead in isolation.
    /// Pipelines checkpoint anyway whenever `faults` is non-empty.
    pub checkpoints: bool,
}

impl MpcConfig {
    /// Builds a configuration for input size `n` and scalability parameter `delta`,
    /// with a poly-logarithmic slack of `4·log₂(n+2)` on the space budget.
    ///
    /// The budget is a **hard invariant**: any primitive that would place more
    /// than `space` items on one machine panics. This is the default because the
    /// paper's algorithms are fully scalable — they never need more. Use
    /// [`MpcConfig::lenient`] for ablation runs (e.g. forced, off-paper `(H, G)`
    /// choices in `exp_ablation`) that may overshoot and only record violations.
    pub fn new(n: usize, delta: f64) -> Self {
        Self::lenient(n, delta).strict()
    }

    /// Like [`MpcConfig::new`], but merely *records* space violations in the
    /// ledger instead of panicking. This is the explicit opt-out used by the
    /// ablation binaries and by tests that run deliberately non-conformant
    /// baselines or force pathological parameter choices.
    pub fn lenient(n: usize, delta: f64) -> Self {
        assert!(
            delta > 0.0 && delta < 1.0,
            "δ must lie strictly between 0 and 1"
        );
        let nf = n.max(2) as f64;
        let machines = nf.powf(delta).ceil() as usize;
        let space_slack = 4.0 * nf.log2();
        let space = (nf.powf(1.0 - delta) * space_slack).ceil() as usize;
        Self {
            n,
            delta,
            machines: machines.max(1),
            space: space.max(16),
            enforce_space: false,
            space_slack,
            faults: FaultPlan::none(),
            checkpoints: false,
        }
    }

    /// Overrides the machine count.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines.max(1);
        self
    }

    /// Overrides the per-machine space budget.
    pub fn with_space(mut self, space: usize) -> Self {
        self.space = space.max(1);
        self
    }

    /// Enables strict enforcement: any primitive that would place more than `space`
    /// items on a machine panics instead of recording a violation.
    pub fn strict(mut self) -> Self {
        self.enforce_space = true;
        self
    }

    /// Disables strict enforcement on an already-built configuration (violations
    /// are recorded in the ledger instead of panicking).
    pub fn recording(mut self) -> Self {
        self.enforce_space = false;
        self
    }

    /// Attaches a deterministic fault schedule (see [`FaultPlan`]). Does
    /// **not** change space enforcement: `MpcConfig::new(..).with_faults(..)`
    /// is still strict, `lenient(..).with_faults(..)` still records.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Forces level checkpointing in recovery-capable pipelines even without a
    /// fault plan (see [`MpcConfig::checkpoints`]).
    pub fn with_checkpoints(mut self, checkpoints: bool) -> Self {
        self.checkpoints = checkpoints;
        self
    }

    /// The theoretical per-machine space `n^{1−δ}` without the poly-log slack.
    pub fn base_space(&self) -> usize {
        (self.n.max(2) as f64).powf(1.0 - self.delta).ceil() as usize
    }

    /// Total space across all machines.
    pub fn total_space(&self) -> usize {
        self.machines.saturating_mul(self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_machine_count_and_space() {
        let cfg = MpcConfig::new(1 << 16, 0.5);
        assert_eq!(cfg.machines, 256);
        assert!(cfg.space >= 256, "space must cover n^(1-δ)");
        assert!(cfg.total_space() >= 1 << 16, "cluster must hold the input");
    }

    #[test]
    fn new_is_strict_and_lenient_records() {
        assert!(MpcConfig::new(1000, 0.5).enforce_space);
        assert!(!MpcConfig::lenient(1000, 0.5).enforce_space);
        assert!(MpcConfig::lenient(1000, 0.5).strict().enforce_space);
        assert!(!MpcConfig::new(1000, 0.5).recording().enforce_space);
        // Budget derivation is identical on both paths.
        let strict = MpcConfig::new(1 << 14, 0.4);
        let lenient = MpcConfig::lenient(1 << 14, 0.4);
        assert_eq!(strict.space, lenient.space);
        assert_eq!(strict.machines, lenient.machines);
    }

    #[test]
    fn scalability_parameter_changes_shape() {
        let low = MpcConfig::new(1 << 20, 0.25);
        let high = MpcConfig::new(1 << 20, 0.75);
        assert!(low.machines < high.machines);
        assert!(low.base_space() > high.base_space());
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn rejects_delta_one() {
        MpcConfig::new(100, 1.0);
    }

    #[test]
    fn fault_and_checkpoint_options_do_not_touch_space_enforcement() {
        // Regression (PR 6): attaching a fault plan or forcing checkpoints must
        // compose with strict()/lenient()/recording() without silently flipping
        // the strict-space default in either direction.
        let plan = FaultPlan::kill(1, 10).and_delay(0, 5, 2);
        let strict = MpcConfig::new(1000, 0.5).with_faults(plan.clone());
        assert!(strict.enforce_space, "with_faults disabled strict panics");
        assert_eq!(strict.faults, plan);

        let lenient = MpcConfig::lenient(1000, 0.5).with_faults(plan.clone());
        assert!(!lenient.enforce_space, "with_faults enabled strictness");
        assert_eq!(lenient.faults, plan);

        // The enforcement toggles, in turn, must not drop the plan.
        assert_eq!(strict.clone().recording().faults, plan);
        assert_eq!(lenient.clone().strict().faults, plan);

        let ckpt = MpcConfig::new(1000, 0.5).with_checkpoints(true);
        assert!(ckpt.enforce_space && ckpt.checkpoints);
        assert!(
            ckpt.recording().checkpoints,
            "recording dropped checkpoints"
        );
        assert!(
            MpcConfig::lenient(1000, 0.5)
                .with_checkpoints(true)
                .strict()
                .checkpoints,
            "strict dropped checkpoints"
        );

        // And the default stays: no faults, no forced checkpoints, strict.
        let default = MpcConfig::new(1000, 0.5);
        assert!(default.faults.is_empty());
        assert!(!default.checkpoints);
        assert!(default.enforce_space);
    }

    #[test]
    fn builders() {
        let cfg = MpcConfig::new(1000, 0.5)
            .with_machines(7)
            .with_space(123)
            .strict();
        assert_eq!(cfg.machines, 7);
        assert_eq!(cfg.space, 123);
        assert!(cfg.enforce_space);
    }
}
