//! A Local-Estimation-Driven (LED) policy in the spirit of Zhou et al. \[60\].
//!
//! LED, like LSQ, gives every dispatcher a persistent local *estimate* of
//! each server's backlog. Unlike LSQ it also *evolves* the estimate between
//! probes using the known service rates: every round the estimate is reduced
//! by the server's expected departures (`µ_s`) and increased by the jobs this
//! dispatcher sent. Occasional probes re-anchor the estimate to the truth.
//!
//! The paper lists LED among the recent state-of-the-art techniques in its
//! related-work section but does not plot it in the main figures; we include
//! it as an extension baseline for completeness and for the ablation
//! experiments.

use crate::common::{mark_availability_flips, ArgminMode, BatchArgmin, NamedFactory, RateTable};
use rand::Rng;
use rand::RngCore;
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatchPolicy, DispatcherId,
    PolicyFactory, ServerId, StateReader, StateWriter,
};
use std::sync::Arc;

/// Probing / ranking flavour for LED.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedVariant {
    /// Uniform probing, estimated-queue-length ranking.
    Uniform,
    /// Rate-proportional probing, estimated-expected-delay ranking.
    Heterogeneous,
}

/// The LED policy.
#[derive(Debug, Clone)]
pub struct LedPolicy {
    variant: LedVariant,
    name: &'static str,
    probes_per_round: usize,
    /// Local backlog estimates (fractional because of the rate decay).
    estimates: Vec<f64>,
    rates: Vec<f64>,
    /// Reciprocal rates for the expected-delay ranking.
    inv_rates: Vec<f64>,
    rate_sampler: Option<Arc<AliasSampler>>,
    /// Warm argmin engine over the estimates: the tournament tree lives
    /// across rounds; decayed/probed estimates are repaired as dirty keys.
    picker: BatchArgmin,
    /// False only for the per-batch-rebuild reference configuration
    /// ([`LedFactory::per_batch_rebuild`], the bench baseline).
    warm: bool,
}

impl LedPolicy {
    /// Uniform-probing LED.
    pub fn uniform(num_servers: usize, probes_per_round: usize) -> Self {
        LedPolicy {
            variant: LedVariant::Uniform,
            name: "LED",
            probes_per_round,
            estimates: vec![0.0; num_servers],
            rates: vec![1.0; num_servers],
            inv_rates: vec![1.0; num_servers],
            rate_sampler: None,
            picker: BatchArgmin::new(ArgminMode::Indexed),
            warm: true,
        }
    }

    /// Heterogeneity-aware LED.
    pub fn heterogeneous(spec: &ClusterSpec, probes_per_round: usize) -> Self {
        Self::heterogeneous_with_table(spec, probes_per_round, RateTable::build(spec))
    }

    /// hLED probing through an existing rate-proportional table over
    /// `spec`'s rates (see [`RateTable`]).
    fn heterogeneous_with_table(
        spec: &ClusterSpec,
        probes_per_round: usize,
        table: Arc<AliasSampler>,
    ) -> Self {
        LedPolicy {
            variant: LedVariant::Heterogeneous,
            name: "hLED",
            probes_per_round,
            estimates: vec![0.0; spec.num_servers()],
            rates: spec.rates().to_vec(),
            inv_rates: scd_model::reciprocal_rates(spec.rates()),
            rate_sampler: Some(table),
            picker: BatchArgmin::new(ArgminMode::Indexed),
            warm: true,
        }
    }

    /// Switches the argmin engine mode. [`ArgminMode::Scan`] is the
    /// bit-identical oracle: it follows the same warm priority lifecycle, so
    /// it picks exactly the servers the warm tree picks for equal seeds.
    pub fn with_mode(mut self, mode: ArgminMode) -> Self {
        self.picker = BatchArgmin::new(mode);
        self
    }

    /// Reverts to the per-batch tree rebuild (fresh priorities and an `O(n)`
    /// rebuild every batch) — the pre-warm-path reference configuration kept
    /// for the engine-throughput baseline.
    pub fn per_batch_rebuild(mut self) -> Self {
        self.warm = false;
        self
    }

    /// The current local estimates (exposed for tests).
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Lazy per-cluster (re)initialization, keyed on the cluster *size*
    /// only: rates are static for a policy's lifetime (one run — the
    /// `ClusterSpec` contract), so the warm path pays no per-round `O(n)`
    /// change detection. A size change invalidates the warm tree.
    fn sync_dimensions(&mut self, ctx: &DispatchContext<'_>) {
        let n = ctx.num_servers();
        if self.estimates.len() != n {
            self.estimates = vec![0.0; n];
            self.rates = ctx.rates().to_vec();
            self.inv_rates = scd_model::reciprocal_rates(ctx.rates());
            self.picker.invalidate();
        }
    }

    fn probe_target(&self, n: usize, rng: &mut dyn RngCore) -> usize {
        match self.variant {
            LedVariant::Uniform => rng.gen_range(0..n),
            LedVariant::Heterogeneous => self
                .rate_sampler
                .as_ref()
                .expect("heterogeneous variant carries a sampler")
                .sample(rng),
        }
    }
}

impl DispatchPolicy for LedPolicy {
    fn policy_name(&self) -> &str {
        self.name
    }

    fn observe_round(&mut self, ctx: &DispatchContext<'_>, rng: &mut dyn RngCore) {
        self.sync_dimensions(ctx);
        let rates = ctx.rates();
        // Evolve the estimates by the expected departures of one round. Only
        // positive estimates actually change (zero stays zero), so only those
        // dirty the warm tree — in a lightly loaded view most slots stay
        // clean. (A mostly-positive view dirties ~n slots; `apply_updates`
        // then falls back to its O(n) internal rebuild, no worse than the
        // per-batch path.)
        for (i, (est, &mu)) in self.estimates.iter_mut().zip(rates).enumerate() {
            if *est > 0.0 {
                *est = (*est - mu).max(0.0);
                self.picker.mark_dirty(i);
            }
        }
        // Re-anchor a few entries with the ground truth. Like LSQ, only
        // probes that actually move the estimate dirty the warm tree (LED's
        // keys live on per-dispatcher estimates the engine cannot see, so
        // the marks are policy-derived).
        let n = ctx.num_servers();
        for probe in 0..self.probes_per_round {
            let target = self.probe_target(n, rng);
            // The target is always *drawn* (the policy stream must not
            // depend on the scenario); a probe the scenario loses — or one
            // sent to a down server — simply fails to re-anchor.
            if !ctx.probe_delivered(probe as u64, ServerId::new(target)) {
                continue;
            }
            let truth = ctx.queue_len(ServerId::new(target)) as f64;
            if self.estimates[target] != truth {
                self.estimates[target] = truth;
                self.picker.mark_dirty(target);
            }
        }
        mark_availability_flips(&mut self.picker, ctx);
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(batch);
        self.dispatch_into(ctx, batch, &mut out, rng);
        out
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        if batch == 0 {
            return;
        }
        self.sync_dimensions(ctx);
        mark_availability_flips(&mut self.picker, ctx);
        let n = ctx.num_servers();
        let estimates = &mut self.estimates;
        let inv = &self.inv_rates;
        let variant = self.variant;
        // Down servers are not candidates under an active availability mask.
        let mask = ctx.active_mask();
        let key = move |i: usize, est: f64| match mask {
            Some(avail) if !avail.is_up(i) => f64::INFINITY,
            _ => match variant {
                LedVariant::Uniform => est,
                LedVariant::Heterogeneous => (est + 1.0) * inv[i],
            },
        };
        if self.warm {
            self.picker.begin_warm(n, |i| key(i, estimates[i]), rng);
        } else {
            self.picker.begin(n, |i| key(i, estimates[i]), rng);
        }
        for _ in 0..batch {
            let target = self.picker.pick(|i| key(i, estimates[i]));
            estimates[target] += 1.0;
            self.picker.update(target, key(target, estimates[target]));
            out.push(ServerId::new(target));
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        let mut w = StateWriter::new();
        w.u8(u8::from(self.warm));
        // The evolving backlog estimates (fractional, so exact bit patterns)
        // plus the warm priority epoch. Rates and the probe sampler are
        // static per run and come back from the factory.
        w.f64s(&self.estimates);
        if self.warm {
            self.picker.save_warm_state(&mut w);
        }
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        let warm = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(format!(
                    "{} checkpoint: invalid warm flag byte {other}",
                    self.name
                ))
            }
        };
        if warm != self.warm {
            return Err(format!(
                "{} checkpoint warm-mode flag does not match this configuration",
                self.name
            ));
        }
        let estimates = r.f64s()?;
        if estimates.len() != self.estimates.len() {
            return Err(format!(
                "{} checkpoint covers {} servers, this cluster has {}",
                self.name,
                estimates.len(),
                self.estimates.len()
            ));
        }
        self.estimates = estimates;
        if warm {
            self.picker.restore_warm_state(&mut r)?;
        }
        r.finish()
    }
}

/// Factory for [`LedPolicy`].
#[derive(Debug, Clone)]
pub struct LedFactory {
    variant: LedVariant,
    probes_per_round: usize,
    mode: ArgminMode,
    warm: bool,
    table: RateTable,
}

impl LedFactory {
    /// Uniform-probing LED with one probe per round.
    pub fn new() -> Self {
        LedFactory {
            variant: LedVariant::Uniform,
            probes_per_round: 1,
            mode: ArgminMode::Indexed,
            warm: true,
            table: RateTable::default(),
        }
    }

    /// Heterogeneity-aware LED with one probe per round.
    pub fn heterogeneous() -> Self {
        LedFactory {
            variant: LedVariant::Heterogeneous,
            ..LedFactory::new()
        }
    }

    /// Overrides the number of probes per round.
    pub fn with_probes(mut self, probes_per_round: usize) -> Self {
        self.probes_per_round = probes_per_round;
        self
    }

    /// Factory for the scan-mode reference — bit-identical decisions to the
    /// warm-tree default for equal seeds (same warm priority lifecycle).
    pub fn scan(mut self) -> Self {
        self.mode = ArgminMode::Scan;
        self
    }

    /// Factory for the pre-warm-path reference: fresh priorities and an
    /// `O(n)` tree rebuild every batch (the PR 2 dispatch path, kept as the
    /// engine-throughput baseline).
    pub fn per_batch_rebuild(mut self) -> Self {
        self.warm = false;
        self
    }

    /// The same configuration wrapped in a [`NamedFactory`].
    pub fn named(self) -> NamedFactory {
        let name = PolicyFactory::name(&self).to_string();
        NamedFactory::new(name, move |d, spec| self.build(d, spec))
    }
}

impl Default for LedFactory {
    fn default() -> Self {
        LedFactory::new()
    }
}

impl PolicyFactory for LedFactory {
    fn name(&self) -> &str {
        match self.variant {
            LedVariant::Uniform => "LED",
            LedVariant::Heterogeneous => "hLED",
        }
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        let policy = match self.variant {
            LedVariant::Uniform => LedPolicy::uniform(spec.num_servers(), self.probes_per_round),
            LedVariant::Heterogeneous => LedPolicy::heterogeneous_with_table(
                spec,
                self.probes_per_round,
                self.table.for_cluster(spec),
            ),
        };
        let policy = policy.with_mode(self.mode);
        Box::new(if self.warm {
            policy
        } else {
            policy.per_batch_rebuild()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimates_decay_by_the_service_rate() {
        let queues = vec![0u64, 0];
        let rates = vec![2.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = LedPolicy::uniform(2, 0);
        // Seed some backlog estimate by dispatching.
        let _ = policy.dispatch_batch(&ctx, 6, &mut rng);
        let before: f64 = policy.estimates().iter().sum();
        assert!((before - 6.0).abs() < 1e-12);
        policy.observe_round(&ctx, &mut rng);
        let after: f64 = policy.estimates().iter().sum();
        assert!(after < before, "estimates must decay between rounds");
        assert!(policy.estimates().iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn probes_reanchor_to_truth() {
        let queues = vec![50u64, 0];
        let rates = vec![1.0, 1.0];
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = LedPolicy::uniform(2, 10);
        policy.observe_round(&ctx, &mut rng);
        assert!((policy.estimates()[0] - 50.0).abs() < 1e-12);
        let out = policy.dispatch_batch(&ctx, 1, &mut rng);
        assert_eq!(out[0].index(), 1);
    }

    #[test]
    fn heterogeneous_variant_prefers_fast_servers() {
        let queues = vec![0u64, 0];
        let rates = vec![10.0, 1.0];
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let ctx = DispatchContext::new(&queues, &rates, 1, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut policy = LedPolicy::heterogeneous(&spec, 2);
        assert_eq!(policy.policy_name(), "hLED");
        policy.observe_round(&ctx, &mut rng);
        let out = policy.dispatch_batch(&ctx, 10, &mut rng);
        let to_fast = out.iter().filter(|s| s.index() == 0).count();
        assert!(to_fast >= 8, "fast server received only {to_fast} of 10");
    }

    #[test]
    fn factories_build_the_right_variant() {
        let spec = ClusterSpec::from_rates(vec![1.0, 2.0]).unwrap();
        let f = LedFactory::new();
        assert_eq!(f.name(), "LED");
        assert_eq!(f.build(DispatcherId::new(0), &spec).policy_name(), "LED");
        let h = LedFactory::heterogeneous().with_probes(4);
        assert_eq!(h.name(), "hLED");
        assert_eq!(h.build(DispatcherId::new(0), &spec).policy_name(), "hLED");
        assert_eq!(LedFactory::new().named().name(), "LED");
    }
}
