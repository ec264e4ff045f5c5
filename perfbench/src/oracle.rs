//! The product-form law of weighted-random dispatch, solved independently
//! of the engine.
//!
//! Under WR every server `s` receives `Poisson(ρ·µ_s)` arrivals per round
//! (Poisson superposition over the dispatchers, thinned by `µ_s/Σµ`) and
//! draws a `Geom(1/(1+µ_s))` service capacity, independently of every other
//! server. The engine observes queue lengths at round start, so each server
//! is the chain `q' = (q + A − C)⁺` started empty, and the across-server
//! occupancy histogram of the measured rounds `warmup..rounds` is a sample
//! of the class-weighted mixture of `avg_t Pᵗ·δ₀`.

/// State-space truncation of the per-server chain. The benchmark's runs
/// are a few dozen rounds long, so the mass that could reach the top state
/// is far below the check in [`horizon_law`].
const Q_CAP: usize = 512;

/// Tolerance on the total-variation distance between the engine's WR
/// occupancy and the exact law over `n` servers: the bound the mean-field
/// oracle tests use at `n = 10⁵`, widened like the sampling noise,
/// `∝ 1/√n`, for smaller smoke-test clusters.
pub fn tv_tolerance(n: usize) -> f64 {
    5e-3 * (100_000.0 / n as f64).sqrt().max(1.0)
}

/// Poisson pmf with the residual tail folded into the last entry.
fn poisson_pmf(lambda: f64) -> Vec<f64> {
    let len = (lambda + 12.0 * lambda.sqrt() + 24.0).ceil() as usize;
    let mut pmf = Vec::with_capacity(len + 1);
    pmf.push((-lambda).exp());
    for k in 1..len {
        let prev = pmf[k - 1];
        pmf.push(prev * lambda / k as f64);
    }
    let tail = 1.0 - pmf.iter().sum::<f64>();
    pmf.push(tail.max(0.0));
    pmf
}

/// `avg_{t = warmup..rounds-1} Pᵗ·δ₀` for one server of rate `mu` fed at
/// rate `lambda`.
///
/// # Errors
/// Fails when more than `1e-12` of the mass reaches the truncation state.
fn horizon_law(mu: f64, lambda: f64, warmup: u64, rounds: u64) -> Result<Vec<f64>, String> {
    let pois = poisson_pmf(lambda);
    let p = 1.0 / (1.0 + mu);
    let fail = mu / (1.0 + mu);
    let mut fail_pow = vec![1.0; Q_CAP];
    for k in 1..Q_CAP {
        fail_pow[k] = fail_pow[k - 1] * fail;
    }
    let mut dist = vec![0.0; Q_CAP];
    dist[0] = 1.0;
    let mut law = vec![0.0; Q_CAP];
    let mut after = vec![0.0; Q_CAP];
    for t in 0..rounds {
        if t >= warmup {
            for (acc, &w) in law.iter_mut().zip(&dist) {
                *acc += w;
            }
        }
        after.iter_mut().for_each(|w| *w = 0.0);
        for (x, &w) in dist.iter().enumerate().filter(|(_, &w)| w != 0.0) {
            for (a, &pa) in pois.iter().enumerate() {
                after[(x + a).min(Q_CAP - 1)] += w * pa;
            }
        }
        // P(C = k) = fail^k · p, P(C ≥ x) = fail^x.
        dist.iter_mut().for_each(|w| *w = 0.0);
        for (x, &w) in after.iter().enumerate().filter(|(_, &w)| w != 0.0) {
            dist[0] += w * fail_pow[x];
            for y in 1..=x {
                dist[y] += w * fail_pow[x - y] * p;
            }
        }
    }
    let measured = (rounds - warmup) as f64;
    law.iter_mut().for_each(|w| *w /= measured);
    if law[Q_CAP - 1] > 1e-12 {
        return Err(format!(
            "oracle truncation reached: {} of the mass at q = {}",
            law[Q_CAP - 1],
            Q_CAP - 1
        ));
    }
    Ok(law)
}

/// The occupancy law of a cluster whose servers fall into rate classes
/// `(µ, count)`, under WR at offered load `load`.
///
/// # Errors
/// See [`horizon_law`].
pub fn wr_occupancy_law(
    classes: &[(f64, usize)],
    load: f64,
    warmup: u64,
    rounds: u64,
) -> Result<Vec<f64>, String> {
    let total: usize = classes.iter().map(|&(_, count)| count).sum();
    let mut law = vec![0.0; Q_CAP];
    for &(mu, count) in classes {
        let part = horizon_law(mu, load * mu, warmup, rounds)?;
        let weight = count as f64 / total as f64;
        for (acc, w) in law.iter_mut().zip(part) {
            *acc += weight * w;
        }
    }
    Ok(law)
}

/// Total-variation distance between two distributions over `0, 1, 2, …`.
pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    let at = |v: &[f64], k: usize| v.get(k).copied().unwrap_or(0.0);
    0.5 * (0..a.len().max(b.len()))
        .map(|k| (at(a, k) - at(b, k)).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laws_are_probability_vectors() {
        let law = wr_occupancy_law(&[(1.0, 5), (4.0, 5)], 0.9, 8, 24).unwrap();
        assert!((law.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(law.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn a_chain_that_never_leaves_zero_is_a_point_mass() {
        // Rate-0 arrivals: the queue stays empty.
        let law = horizon_law(2.0, 0.0, 0, 5).unwrap();
        assert!((law[0] - 1.0).abs() < 1e-15);
        assert_eq!(total_variation(&law, &[1.0]), 0.0);
    }
}
