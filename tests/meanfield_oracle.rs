//! Mean-field oracle: the engine's empirical queue-length distribution at
//! n = 10⁵–10⁶ must match an analytically solved per-server law.
//!
//! Under weighted-random (`WR`) dispatch the engine is **exactly** a
//! product-form system — no asymptotics needed:
//!
//! * Arrivals: each of the `m` dispatchers draws `Poisson(ρ·Σµ/m)` jobs and
//!   routes each independently to server `s` with probability `µ_s/Σµ`.
//!   Poisson superposition + thinning ⇒ server `s` receives
//!   `A_s ~ Poisson(ρ·µ_s)` arrivals per round, independent across servers.
//! * Services: every round, every server draws a capacity
//!   `C_s ~ Geom(p = 1/(1+µ_s))` (failures before the first success, mean
//!   `µ_s`), independent of everything else.
//! * The tracker observes queue lengths at **round start**, and a round
//!   serves same-round arrivals, so the observed chain is
//!   `q' = (q + A − C)⁺`.
//!
//! The across-server occupancy histogram at n = 10⁵ is therefore a sample
//! of `n` independent copies of this one-dimensional Markov chain — the
//! mean-field regime where the empirical distribution concentrates on the
//! per-server law. The oracle solves that law in-test, twice over:
//!
//! 1. the **exact finite-horizon law** `avg_{t=warmup..rounds-1} Pᵗ·δ₀`
//!    (what the run actually measures, bias-free — deviations here are pure
//!    sampling noise and pin the engine's arrival/service/observation
//!    semantics end to end), and
//! 2. the **mean-field fixed point** `π = πP` by power iteration (the
//!    steady state; the horizon is chosen long enough that the finite run
//!    probes it, which the test asserts analytically as well).
//!
//! Heterogeneity enters as a mixture: with rate classes the aggregate
//! occupancy histogram must match the class-weighted mixture of per-class
//! laws. SCD has no closed form; the suite closes with a dominance sanity
//! check — coordinated dispatch must beat the load-oblivious WR fixed point.

use scd::prelude::*;

/// Internal truncation of the oracle's state space. The stationary tails
/// here decay geometrically; mass beyond this cap is far below every
/// tolerance used (asserted in `solve` via the conserved-mass check).
const Q_CAP: usize = 192;

/// Poisson pmf `[P(A=0), …]` with the residual tail mass folded into the
/// last entry, so the vector sums to exactly 1.
fn poisson_pmf(lambda: f64) -> Vec<f64> {
    let mut pmf = Vec::with_capacity(65);
    pmf.push((-lambda).exp());
    for k in 1..64usize {
        let prev = *pmf.last().unwrap();
        pmf.push(prev * lambda / k as f64);
    }
    let tail = 1.0 - pmf.iter().sum::<f64>();
    pmf.push(tail.max(0.0));
    pmf
}

/// One exact transition of the per-server chain: convolve with the arrival
/// pmf (overflow clamped into the top state), then apply the geometric
/// service `q' = (x − C)⁺` in closed form.
fn step(dist: &[f64], pois: &[f64], mu: f64, qf_pow: &[f64]) -> Vec<f64> {
    let q = dist.len();
    let mut after = vec![0.0; q];
    for (x, &w) in dist.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        for (a, &pa) in pois.iter().enumerate() {
            after[(x + a).min(q - 1)] += w * pa;
        }
    }
    // P(C = k) = (1-p)^k p with p = 1/(1+µ); P(C ≥ x) = (1-p)^x.
    let p = 1.0 / (1.0 + mu);
    let mut next = vec![0.0; q];
    for (x, &w) in after.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        next[0] += w * qf_pow[x];
        for y in 1..=x {
            next[y] += w * qf_pow[x - y] * p;
        }
    }
    next
}

/// Precomputed powers of the geometric failure probability `(µ/(1+µ))^k`.
fn failure_powers(mu: f64) -> Vec<f64> {
    let qf = mu / (1.0 + mu);
    let mut pow = Vec::with_capacity(Q_CAP + 1);
    pow.push(1.0);
    for _ in 0..Q_CAP {
        pow.push(pow.last().unwrap() * qf);
    }
    pow
}

/// The per-server oracle for one `(µ, λ)` class: the exact law the run
/// measures (averaged over the measured observation rounds) and the
/// stationary fixed point.
struct ClassOracle {
    /// `avg_{t=warmup..rounds-1} Pᵗ·δ₀` — observation at round start is the
    /// state after `t` transitions from the empty initial queue.
    horizon: Vec<f64>,
    /// `π = πP` to within an L1 residual of 1e-12.
    fixed_point: Vec<f64>,
}

fn solve(mu: f64, lambda: f64, warmup: usize, rounds: usize) -> ClassOracle {
    let pois = poisson_pmf(lambda);
    let qf_pow = failure_powers(mu);

    let mut dist = vec![0.0; Q_CAP];
    dist[0] = 1.0;
    let mut horizon = vec![0.0; Q_CAP];
    for t in 0..rounds {
        if t >= warmup {
            for (acc, &w) in horizon.iter_mut().zip(&dist) {
                *acc += w;
            }
        }
        dist = step(&dist, &pois, mu, &qf_pow);
    }
    let measured = (rounds - warmup) as f64;
    for w in &mut horizon {
        *w /= measured;
    }

    let mut fixed_point = dist; // warm-start from the end of the horizon
    for _ in 0..30_000 {
        let next = step(&fixed_point, &pois, mu, &qf_pow);
        let residual: f64 = fixed_point
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .sum();
        fixed_point = next;
        if residual < 1e-12 {
            break;
        }
    }
    for dist in [&horizon, &fixed_point] {
        let mass: f64 = dist.iter().sum();
        assert!(
            (mass - 1.0).abs() < 1e-9,
            "oracle mass leaked past the truncation: {mass}"
        );
    }
    ClassOracle {
        horizon,
        fixed_point,
    }
}

/// Element-wise mixture of per-class laws weighted by class population.
fn mixture(parts: &[(f64, &[f64])]) -> Vec<f64> {
    let mut out = vec![0.0; Q_CAP];
    for (weight, dist) in parts {
        for (acc, &w) in out.iter_mut().zip(*dist) {
            *acc += weight * w;
        }
    }
    out
}

fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    let long = a.len().max(b.len());
    0.5 * (0..long)
        .map(|k| (a.get(k).copied().unwrap_or(0.0) - b.get(k).copied().unwrap_or(0.0)).abs())
        .sum::<f64>()
}

fn max_bucket_gap(a: &[f64], b: &[f64]) -> f64 {
    let long = a.len().max(b.len());
    (0..long)
        .map(|k| (a.get(k).copied().unwrap_or(0.0) - b.get(k).copied().unwrap_or(0.0)).abs())
        .fold(0.0, f64::max)
}

fn mean_of(dist: &[f64]) -> f64 {
    dist.iter()
        .enumerate()
        .map(|(k, &w)| k as f64 * w)
        .sum::<f64>()
}

const LOAD: f64 = 0.7;
const WARMUP: u64 = 100;
const ROUNDS: u64 = 180;

/// A mean-field-scale run: histogram-only metrics (the per-server vectors
/// at n = 10⁵⁻⁶ are exactly what this PR removes from the hot path).
fn run(rates: Vec<f64>, policy: &str, seed: u64) -> SimReport {
    let config = SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
        .dispatchers(10)
        .rounds(ROUNDS)
        .warmup_rounds(WARMUP)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: LOAD })
        .histogram_metrics(true)
        .build()
        .unwrap();
    let factory = factory_by_name(policy).unwrap();
    Simulation::new(config)
        .unwrap()
        .run(factory.as_ref())
        .unwrap()
}

#[test]
fn homogeneous_wr_matches_the_mean_field_oracle_at_1e5() {
    let n = 100_000usize;
    let report = run(vec![1.0; n], "WR", 20_210_701);
    let empirical = report.queue_length_distribution();
    assert_eq!(
        report.queue_occupancy.iter().sum::<u64>(),
        (ROUNDS - WARMUP) * n as u64,
        "one observation per server per measured round"
    );

    let oracle = solve(1.0, LOAD, WARMUP as usize, ROUNDS as usize);
    // Against the exact finite-horizon law: pure sampling noise
    // (≥ 10⁵ independent servers × 80 rounds of observations).
    let tv = total_variation(&empirical, &oracle.horizon);
    assert!(tv < 5e-3, "TV(empirical, exact law) = {tv}");
    let gap = max_bucket_gap(&empirical, &oracle.horizon);
    assert!(gap < 2e-3, "worst bucket gap = {gap}");

    // The horizon probes the steady state (analytic statement, no noise)…
    let settle = total_variation(&oracle.horizon, &oracle.fixed_point);
    assert!(settle < 0.01, "horizon vs fixed point TV = {settle}");
    // …so the run matches the mean-field fixed point as well.
    let tv_pi = total_variation(&empirical, &oracle.fixed_point);
    assert!(tv_pi < 0.015, "TV(empirical, fixed point) = {tv_pi}");

    // Internal consistency: the histogram's mean is the tracked backlog.
    let per_server_backlog = report.queues.mean_total_backlog / n as f64;
    assert!(
        (mean_of(&empirical) - per_server_backlog).abs() < 1e-9,
        "occupancy mean {} vs tracked backlog {}",
        mean_of(&empirical),
        per_server_backlog
    );
    // And the zero bucket is exactly the idle fraction.
    assert!((empirical[0] - report.queues.mean_idle_fraction).abs() < 1e-12);
}

#[test]
fn bimodal_wr_matches_the_mixture_oracle_at_1e5() {
    // Two rate classes, 50/50: slow µ = 0.5 and fast µ = 2.0. The aggregate
    // occupancy histogram must match the population-weighted mixture of the
    // two per-class laws (each with its own thinned arrival rate ρ·µ).
    let n = 100_000usize;
    let mut rates = vec![0.5; n / 2];
    rates.resize(n, 2.0);
    let report = run(rates, "WR", 20_210_702);
    let empirical = report.queue_length_distribution();

    let slow = solve(0.5, LOAD * 0.5, WARMUP as usize, ROUNDS as usize);
    let fast = solve(2.0, LOAD * 2.0, WARMUP as usize, ROUNDS as usize);
    let horizon = mixture(&[(0.5, &slow.horizon), (0.5, &fast.horizon)]);
    let fixed_point = mixture(&[(0.5, &slow.fixed_point), (0.5, &fast.fixed_point)]);

    let tv = total_variation(&empirical, &horizon);
    assert!(tv < 5e-3, "TV(empirical, exact mixture law) = {tv}");
    let gap = max_bucket_gap(&empirical, &horizon);
    assert!(gap < 2e-3, "worst bucket gap = {gap}");

    let settle = total_variation(&horizon, &fixed_point);
    assert!(settle < 0.01, "horizon vs fixed point TV = {settle}");
    let tv_pi = total_variation(&empirical, &fixed_point);
    assert!(tv_pi < 0.015, "TV(empirical, fixed point) = {tv_pi}");
}

#[test]
fn scd_beats_the_wr_fixed_point_at_mean_field_scale() {
    // No closed form for SCD — the sanity check is dominance: coordinated
    // water-filling dispatch must hold a smaller per-server backlog than
    // the load-oblivious WR steady state, at a scale where the compressed
    // class sampler carries every round (homogeneous rates ⇒ one rate
    // class, grouped trimming ⇒ O(#distinct queue lengths) solves).
    let n = 20_000usize;
    let report = run(vec![1.0; n], "SCD", 20_210_703);
    let oracle = solve(1.0, LOAD, WARMUP as usize, ROUNDS as usize);
    let scd_backlog = report.queues.mean_total_backlog / n as f64;
    let wr_backlog = mean_of(&oracle.fixed_point);
    assert!(
        scd_backlog < 0.5 * wr_backlog,
        "SCD per-server backlog {scd_backlog} should be well under WR's {wr_backlog}"
    );
    // SCD's empirical distribution is still a probability law over the
    // occupancy buckets.
    let dist = report.queue_length_distribution();
    assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

/// The full mean-field target: n = 10⁶ servers, single shard. Ignored in
/// tier-1 (minutes in debug builds); CI's "Mean-field oracle at n = 10^6"
/// step runs it in release with
/// `cargo test --release --test meanfield_oracle -- --ignored` — the
/// tolerances tighten with the extra order of magnitude of samples.
#[test]
#[ignore = "n = 1e6 is a release-mode scale test"]
fn homogeneous_wr_matches_the_mean_field_oracle_at_1e6() {
    let n = 1_000_000usize;
    let report = run(vec![1.0; n], "WR", 20_210_706);
    let empirical = report.queue_length_distribution();
    let oracle = solve(1.0, LOAD, WARMUP as usize, ROUNDS as usize);
    let tv = total_variation(&empirical, &oracle.horizon);
    assert!(tv < 2e-3, "TV(empirical, exact law) = {tv}");
    let tv_pi = total_variation(&empirical, &oracle.fixed_point);
    assert!(tv_pi < 0.012, "TV(empirical, fixed point) = {tv_pi}");
}
