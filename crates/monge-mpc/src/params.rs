//! Tunable parameters of the MPC multiplication.

use mpc_runtime::MpcConfig;

/// How the §3.3 routing delivers union points to the active subgrids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Lemma 3.12 pierced intervals: an active subgrid receives only the points
    /// whose color lies in `[opt(r0,c0), opt(r1,c1)]` — the interval of demarcation
    /// lines piercing it. Colors outside the interval shift every candidate `F_q`
    /// uniformly inside the subgrid and cannot change any `opt` comparison, so the
    /// output is identical while each point travels to `O(1)` subgrids instead of
    /// every active subgrid in its row/column bands.
    Pierced,
    /// Baseline: ship the whole row/column point ranges to every active subgrid
    /// (a factor-`H` relaxation in routed volume). Kept for ablation; measured by
    /// the ledger's `comm_by_phase["combine-route"]`.
    Bands,
}

/// Parameters of [`crate::mul_batch`].
#[derive(Clone, Debug)]
pub struct MulParams {
    /// Fan-out `H` of the §3.1 split. `0` selects the paper's `n^{(1−δ)/10}`
    /// (clamped to at least 2).
    pub h: usize,
    /// Grid spacing `G` of §3.2/3.3. `0` selects the paper's `n^{1−δ}`.
    pub g: usize,
    /// Instances of size at most this are gathered onto one machine and multiplied
    /// with the sequential steady-ant kernel. `0` selects a quarter of the machine
    /// space budget (a gathered instance stores both operands — `2n` items — and
    /// the greedy packing may co-locate instances, so `s/4` keeps the gather
    /// within the budget on strict clusters).
    pub local_threshold: usize,
    /// Strategy for the §3.3 routing of the combine.
    pub routing: Routing,
}

impl Default for MulParams {
    fn default() -> Self {
        Self {
            h: 0,
            g: 0,
            local_threshold: 0,
            routing: Routing::Pierced,
        }
    }
}

impl MulParams {
    /// The paper's parameter choices for every `0` field, resolved against the
    /// cluster configuration and the instance size `n`.
    ///
    /// # Panics
    ///
    /// If a split of `n` would make more than `u16::MAX` subproblems:
    /// `min(H, n) > u16::MAX`, since every subproblem's points carry a `u16`
    /// color.
    pub fn resolved(&self, cfg: &MpcConfig, n: usize) -> ResolvedParams {
        let nf = (n.max(2)) as f64;
        // The paper's fan-out must be honored exactly: the tree descent's round
        // bound rests on the height `log_H n ≤ 10/(1−δ)`, so `H = n^{(1−δ)/10}`
        // is only floored at the binary split, never capped.
        let h = if self.h == 0 {
            (nf.powf((1.0 - cfg.delta) / 10.0).round() as usize).max(2)
        } else {
            self.h.max(2)
        };
        assert!(
            h.min(n) <= u16::MAX as usize,
            "fan-out H = {h} at n = {n} makes more than {} colors",
            u16::MAX
        );
        let g = if self.g == 0 {
            (nf.powf(1.0 - cfg.delta).ceil() as usize).max(4)
        } else {
            self.g.max(2)
        };
        let local_threshold = if self.local_threshold == 0 {
            (cfg.space / 4).max(4)
        } else {
            self.local_threshold
        };
        ResolvedParams {
            h,
            g,
            local_threshold,
            routing: self.routing,
        }
    }

    /// The §1.4 warmup baseline: binary splits, so the recursion depth (and hence
    /// the round count) grows as `Θ(log n)` instead of `O(1)`.
    pub fn warmup() -> Self {
        Self {
            h: 2,
            ..Self::default()
        }
    }

    /// Overrides the fan-out `H`.
    pub fn with_h(mut self, h: usize) -> Self {
        self.h = h;
        self
    }

    /// Overrides the grid spacing `G`.
    pub fn with_g(mut self, g: usize) -> Self {
        self.g = g;
        self
    }

    /// Overrides the local-solve threshold.
    pub fn with_local_threshold(mut self, t: usize) -> Self {
        self.local_threshold = t;
        self
    }

    /// Selects the routing strategy.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }
}

/// Fully resolved parameters for one instance size.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedParams {
    /// Split fan-out `H`.
    pub h: usize,
    /// Grid spacing `G`.
    pub g: usize,
    /// Gather-and-solve-locally threshold.
    pub local_threshold: usize,
    /// Routing strategy.
    pub routing: Routing,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_scale_with_n_and_delta() {
        let cfg = MpcConfig::new(1 << 20, 0.5);
        let p = MulParams::default().resolved(&cfg, 1 << 20);
        assert!(p.h >= 2);
        assert_eq!(p.g, 1 << 10);
        assert_eq!(p.local_threshold, cfg.space / 4);

        let cfg2 = MpcConfig::new(1 << 20, 0.75);
        let p2 = MulParams::default().resolved(&cfg2, 1 << 20);
        assert!(
            p2.g < p.g,
            "larger δ ⇒ smaller per-machine space ⇒ smaller G"
        );
    }

    #[test]
    fn fan_out_is_never_capped() {
        // The tree descent's O(1) height rests on H = n^{(1−δ)/10} being honored,
        // so the resolution must not clamp it from above; at n near usize::MAX and
        // small δ the paper's H exceeds the old ceiling of 64.
        let n = usize::MAX;
        let cfg = MpcConfig::new(n, 0.05);
        let p = MulParams::default().resolved(&cfg, n);
        let expected = ((n as f64).powf((1.0 - 0.05) / 10.0)).round() as usize;
        assert_eq!(p.h, expected.max(2));
        assert!(p.h > 64, "paper fan-out {} must not be capped at 64", p.h);
    }

    #[test]
    #[should_panic(expected = "more than 65535 colors")]
    fn a_fan_out_beyond_u16_colors_is_rejected() {
        let cfg = MpcConfig::new(1 << 16, 0.5);
        let _ = MulParams::default().with_h(1 << 16).resolved(&cfg, 1 << 16);
    }

    #[test]
    fn a_fan_out_with_u16_colors_is_accepted() {
        let cfg = MpcConfig::new(1 << 20, 0.5);
        let p = MulParams::default().with_h(1 << 16).resolved(&cfg, 1000);
        assert_eq!(p.h, 1 << 16, "only min(H, n) = 1000 colors are made");
        let p = MulParams::default()
            .with_h(u16::MAX as usize)
            .resolved(&cfg, 1 << 20);
        assert_eq!(p.h, u16::MAX as usize);
    }

    #[test]
    fn warmup_uses_binary_splits() {
        let cfg = MpcConfig::new(1 << 16, 0.5);
        let p = MulParams::warmup().resolved(&cfg, 1 << 16);
        assert_eq!(p.h, 2);
    }

    #[test]
    fn explicit_overrides_win() {
        let cfg = MpcConfig::new(4096, 0.5);
        let p = MulParams::default()
            .with_h(7)
            .with_g(33)
            .with_local_threshold(10)
            .resolved(&cfg, 4096);
        assert_eq!((p.h, p.g, p.local_threshold), (7, 33, 10));
    }
}
