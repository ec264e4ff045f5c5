//! Service processes: how many jobs each server can complete per round.
//!
//! Following Section 6.1 of the paper, the per-round service capacity of
//! server `s` is geometrically distributed with mean `µ_s`
//! (`c_s(t) ~ Geom(1/(1+µ_s))`, counting the number of failures before the
//! first success, so `E[c_s(t)] = µ_s`). A deterministic model is provided
//! for tests and worked examples.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Declarative description of the service process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ServiceModel {
    /// `c_s(t) ~ Geometric` with mean `µ_s` (the paper's model).
    #[default]
    Geometric,
    /// `c_s(t) = round(µ_s)` deterministically — useful for exact unit tests.
    Deterministic,
}

impl ServiceModel {
    /// Instantiates the per-server samplers for a cluster with the given
    /// rates.
    pub fn build(&self, rates: &[f64]) -> Vec<ServiceProcess> {
        rates
            .iter()
            .map(|&mu| match self {
                ServiceModel::Geometric => ServiceProcess::geometric(mu),
                ServiceModel::Deterministic => ServiceProcess::deterministic(mu),
            })
            .collect()
    }
}

/// A per-server sampler of round service capacities.
#[derive(Debug, Clone)]
pub enum ServiceProcess {
    /// Geometric capacity with mean `mu`: success probability `1/(1+µ)`.
    Geometric {
        /// Mean capacity per round.
        mu: f64,
        /// Precomputed `1/ln(1 - p)` for the inverse-CDF draw — the engine
        /// samples every server every round, so recomputing the logarithm
        /// per draw would double the cost of the departure phase.
        inv_ln_q: f64,
    },
    /// Fixed capacity `round(µ)` every round.
    Deterministic {
        /// The fixed capacity.
        capacity: u64,
    },
}

impl ServiceProcess {
    /// Geometric process with mean `mu`.
    ///
    /// # Panics
    /// Panics if `mu` is not finite and strictly positive.
    pub fn geometric(mu: f64) -> Self {
        assert!(
            mu.is_finite() && mu > 0.0,
            "service rate must be positive, got {mu}"
        );
        let p = 1.0 / (1.0 + mu);
        ServiceProcess::Geometric {
            mu,
            inv_ln_q: 1.0 / (1.0 - p).ln(),
        }
    }

    /// Deterministic process completing `round(mu)` jobs per round.
    pub fn deterministic(mu: f64) -> Self {
        ServiceProcess::Deterministic {
            capacity: mu.round().max(0.0) as u64,
        }
    }

    /// The mean capacity per round.
    pub fn mean(&self) -> f64 {
        match self {
            ServiceProcess::Geometric { mu, .. } => *mu,
            ServiceProcess::Deterministic { capacity } => *capacity as f64,
        }
    }

    /// Draws the capacity for one round.
    ///
    /// The geometric draw uses the inverse-CDF method
    /// `⌊ln(U)/ln(1−p)⌋` with success probability `p = 1/(1+µ)`, which gives
    /// the number of failures before the first success and therefore has mean
    /// `(1−p)/p = µ`. The `1/ln(1−p)` factor is precomputed at construction.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            ServiceProcess::Geometric { inv_ln_q, .. } => {
                // U ∈ (0, 1); guard against a literal zero from the generator.
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                geometric_draw(u, *inv_ln_q)
            }
            ServiceProcess::Deterministic { capacity } => *capacity,
        }
    }
}

/// `⌊ln(u) · inv_ln_q⌋` clamped to `[0, u64::MAX]`, for `u ∈ (0, 1)` and
/// `inv_ln_q = 1/ln(1−p) < 0`. The product is then ≥ 0 (or −0.0), where
/// truncation equals the floor, and `as` saturates exactly where the clamps
/// would (mapping NaN to 0 as they do): the same value without a libm
/// `floor` call per draw.
fn geometric_draw(u: f64, inv_ln_q: f64) -> u64 {
    (u.ln() * inv_ln_q) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometric_mean_matches_mu() {
        let mut rng = StdRng::seed_from_u64(3);
        for &mu in &[0.5, 1.0, 5.0, 40.0] {
            let process = ServiceProcess::geometric(mu);
            assert_eq!(process.mean(), mu);
            let draws = 60_000;
            let total: u64 = (0..draws).map(|_| process.sample(&mut rng)).sum();
            let mean = total as f64 / draws as f64;
            assert!(
                (mean - mu).abs() < 0.05 * mu.max(1.0),
                "µ = {mu}: empirical mean {mean}"
            );
        }
    }

    #[test]
    fn geometric_variance_matches_theory() {
        // Var[Geom(p)] (failures before success) = (1-p)/p² = µ(1+µ).
        let mu = 3.0;
        let process = ServiceProcess::geometric(mu);
        let mut rng = StdRng::seed_from_u64(11);
        let draws = 120_000;
        let samples: Vec<f64> = (0..draws)
            .map(|_| process.sample(&mut rng) as f64)
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / draws as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws as f64;
        let expected = mu * (1.0 + mu);
        assert!(
            (var - expected).abs() < 0.05 * expected,
            "variance {var} vs expected {expected}"
        );
    }

    #[test]
    fn saturating_cast_matches_the_clamped_floor() {
        fn clamped_floor(u: f64, inv_ln_q: f64) -> u64 {
            let draws = (u.ln() * inv_ln_q).floor();
            if draws < 0.0 {
                0
            } else if draws > u64::MAX as f64 {
                u64::MAX
            } else {
                draws as u64
            }
        }
        let inv_ln_qs: Vec<f64> = [0.01, 0.5, 1.0, 4.0, 1e3, 1e6]
            .iter()
            .map(|&mu| match ServiceProcess::geometric(mu) {
                ServiceProcess::Geometric { inv_ln_q, .. } => inv_ln_q,
                ServiceProcess::Deterministic { .. } => unreachable!(),
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5E_4F1CE);
        let extremes = [f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0];
        let draws = (0..10_000_000)
            .map(|_| rng.gen::<f64>().max(f64::MIN_POSITIVE))
            .chain(extremes);
        for u in draws {
            for &inv_ln_q in &inv_ln_qs {
                assert_eq!(
                    geometric_draw(u, inv_ln_q),
                    clamped_floor(u, inv_ln_q),
                    "u = {u:e}, 1/ln(1-p) = {inv_ln_q:e}"
                );
            }
        }
    }

    #[test]
    fn deterministic_rounds_the_rate() {
        let process = ServiceProcess::deterministic(2.6);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(process.sample(&mut rng), 3);
        assert_eq!(process.mean(), 3.0);
    }

    #[test]
    fn model_builds_one_process_per_server() {
        let rates = [1.0, 5.0, 10.0];
        let geo = ServiceModel::Geometric.build(&rates);
        assert_eq!(geo.len(), 3);
        assert_eq!(geo[2].mean(), 10.0);
        let det = ServiceModel::Deterministic.build(&rates);
        assert_eq!(det[1].mean(), 5.0);
        assert_eq!(ServiceModel::default(), ServiceModel::Geometric);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn geometric_rejects_non_positive_rates() {
        ServiceProcess::geometric(0.0);
    }
}
