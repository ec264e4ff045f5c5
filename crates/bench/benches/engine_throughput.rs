//! End-to-end engine throughput: rounds/second on the paper's 100-server /
//! 10-dispatcher cluster at 0.99 offered load, one row per in-repo
//! accelerator.
//!
//! Run with `cargo bench --bench engine_throughput`. Writes the measurements
//! to `BENCH_engine.json` at the workspace root so future PRs can compare
//! against a recorded baseline (see `crates/bench/README.md` for the
//! methodology).
//!
//! Every row is an ablation: baseline and optimized run the same engine on
//! the same system and differ in exactly one switch the repository keeps as
//! a reference path.
//!
//! * **SCD** — the warm-started verified solver vs `cold_solve()` (trimming
//!   fixpoints re-derived from scratch every solve). Decisions are
//!   bit-identical, so this is a same-trajectory comparison.
//! * **JSQ / SED / LSQ / LED** — warm-tree dispatch (one tournament per
//!   policy instance across rounds, per-epoch priorities, dirty-key repair)
//!   vs `per_batch_rebuild()` (fresh priorities and an `O(n)` tree rebuild
//!   every batch). The two paths consume the RNG differently, so these are
//!   same-workload, not same-trajectory, comparisons.
//! * **SHARD** — the bench system on the sharded round engine: one shard
//!   (bit-identical to the unsharded engine) vs a 4-way split of servers
//!   and dispatchers. The split wins even on a single core because per-round
//!   costs are superlinear in `n` and `m` (solver and tree work shrink per
//!   shard); more cores add parallel speedup on top.
//! * **SCD@10K** — SCD on a 10⁴-server bimodal cluster: the class-compressed
//!   sampler vs `classic_sampler()` (the dense per-server alias chain).

use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_core::policy::ScdFactory;
use scd_model::{ClusterSpec, PolicyFactory, RateProfile};
use scd_policies::{JsqFactory, LedFactory, LsqFactory, SedFactory};
use scd_sim::{ArrivalSpec, ServiceModel, ShardedSimulation, SimConfig, Simulation};
use std::time::Instant;

const SERVERS: usize = 100;
const DISPATCHERS: usize = 10;
const OFFERED_LOAD: f64 = 0.99;
const ROUNDS: u64 = 2_000;
const SEED: u64 = 7;
/// Identifies this bench definition's run in the recorded history; bump it
/// when the baseline or the optimized engine changes meaning, so earlier
/// recordings stay auditable.
const RUN_LABEL: &str =
    "one-switch ablations (SCD warm vs cold_solve, JSQ/SED/LSQ/LED warm tree vs \
     per_batch_rebuild, SHARD k=4 vs k=1, SCD@10K compressed vs classic sampler); the legacy \
     round loop, WR, SWEEP, DELTA and IWL rows are retired";

/// Interleaved measurement pairs per policy; `CRITERION_QUICK=1` drops to a
/// single pair (CI smoke test).
fn repetitions() -> usize {
    if std::env::var_os("CRITERION_QUICK").is_some() {
        1
    } else {
        9
    }
}

fn bench_config() -> SimConfig {
    let mut cluster_rng = StdRng::seed_from_u64(SEED);
    let spec = RateProfile::paper_moderate()
        .materialize(SERVERS, &mut cluster_rng)
        .expect("valid profile");
    SimConfig {
        spec,
        num_dispatchers: DISPATCHERS,
        rounds: ROUNDS,
        warmup_rounds: 0,
        seed: SEED,
        arrivals: ArrivalSpec::PoissonOfferedLoad {
            offered_load: OFFERED_LOAD,
        },
        services: ServiceModel::Geometric,
        measure_decision_times: false,
        histogram_metrics: false,
        scenario: scd_sim::ScenarioSpec::default(),
        workload: scd_sim::WorkloadSpec::default(),
    }
}

/// Best-of-N rounds/second for a pair of closures that each simulate
/// `total_rounds` rounds. The two candidates are measured in strict
/// alternation (A, B, A, B, ...) so that drifting machine load hits both
/// equally; the minimum elapsed time per candidate estimates its unloaded
/// cost.
fn measure_pair(
    total_rounds: u64,
    mut baseline: impl FnMut() -> u64,
    mut optimized: impl FnMut() -> u64,
) -> (f64, f64) {
    // One untimed warm-up run each.
    let mut checksum = baseline();
    checksum = checksum.wrapping_add(optimized());
    let mut best_baseline = f64::INFINITY;
    let mut best_optimized = f64::INFINITY;
    for _ in 0..repetitions() {
        let start = Instant::now();
        checksum = checksum.wrapping_add(baseline());
        best_baseline = best_baseline.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        checksum = checksum.wrapping_add(optimized());
        best_optimized = best_optimized.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(checksum);
    (
        total_rounds as f64 / best_baseline,
        total_rounds as f64 / best_optimized,
    )
}

struct PolicyResult {
    policy: &'static str,
    baseline: f64,
    optimized: f64,
}

fn main() {
    let config = bench_config();
    println!(
        "engine throughput: {SERVERS} servers, {DISPATCHERS} dispatchers, load {OFFERED_LOAD}, \
         {ROUNDS} rounds, best of {}",
        repetitions()
    );

    let mut results: Vec<PolicyResult> = Vec::new();

    // One engine-level row: `(name, baseline, optimized)`, both run on the
    // same engine.
    type Row = (&'static str, Box<dyn PolicyFactory>, Box<dyn PolicyFactory>);
    let rows: Vec<Row> = vec![
        (
            "SCD",
            Box::new(ScdFactory::new().cold_solve()),
            Box::new(ScdFactory::new()),
        ),
        (
            "JSQ",
            Box::new(JsqFactory::new().per_batch_rebuild()),
            Box::new(JsqFactory::new()),
        ),
        (
            "SED",
            Box::new(SedFactory::new().per_batch_rebuild()),
            Box::new(SedFactory::new()),
        ),
        (
            "LSQ",
            Box::new(LsqFactory::new().per_batch_rebuild()),
            Box::new(LsqFactory::new()),
        ),
        (
            "LED",
            Box::new(LedFactory::new().per_batch_rebuild()),
            Box::new(LedFactory::new()),
        ),
    ];

    let simulation = Simulation::new(config.clone()).expect("valid configuration");
    for (policy, baseline_factory, optimized_factory) in rows {
        let (baseline, optimized) = measure_pair(
            ROUNDS,
            || {
                simulation
                    .run(baseline_factory.as_ref())
                    .expect("clean run")
                    .jobs_completed
            },
            || {
                simulation
                    .run(optimized_factory.as_ref())
                    .expect("clean run")
                    .jobs_completed
            },
        );
        println!(
            "  {policy:<5} baseline {baseline:>12.0} rounds/s | optimized {optimized:>12.0} \
             rounds/s | speedup {:.2}x",
            optimized / baseline
        );
        results.push(PolicyResult {
            policy,
            baseline,
            optimized,
        });
    }

    // The sharded engine: one shard (bit-identical to the unsharded round
    // loop, run sequentially) vs a 4-way striped split of servers and
    // dispatchers fanned out over `SHARDS` threads.
    const SHARDS: usize = 4;
    let single = ShardedSimulation::new(config.clone(), 1).expect("valid configuration");
    let split = ShardedSimulation::new(config.clone(), SHARDS).expect("valid configuration");
    let shard_factory = ScdFactory::new();
    let (baseline, optimized) = measure_pair(
        ROUNDS,
        || {
            single
                .run(&shard_factory)
                .expect("clean run")
                .jobs_completed
        },
        || {
            split
                .run_parallel(&shard_factory, SHARDS)
                .expect("clean run")
                .jobs_completed
        },
    );
    println!(
        "  SHARD baseline {baseline:>12.0} rounds/s | optimized {optimized:>12.0} rounds/s | \
         speedup {:.2}x  (k=1 sequential vs k={SHARDS} on {SHARDS} threads, SCD)",
        optimized / baseline
    );
    results.push(PolicyResult {
        policy: "SHARD",
        baseline,
        optimized,
    });

    // The mean-field scale row: SCD on a 10⁴-server **bimodal** cluster
    // (two rate classes — the shape the class-compressed sampler targets;
    // a continuous rate profile would make every server its own class and
    // disable compression). Baseline is the dense per-server
    // fill/normalize/alias dispatch chain (`classic_sampler`, the PR 8
    // path); optimized is the default compressed kernel. Same engine, same
    // grouped-trimming solver — the row isolates the sampler
    // representation, which is the per-round O(n) → O(C) term at scale.
    const SCALE_SERVERS: usize = 10_000;
    const SCALE_ROUNDS: u64 = 200;
    let mut scale_rates = vec![1.0; SCALE_SERVERS / 2];
    scale_rates.resize(SCALE_SERVERS, 4.0);
    let scale_config = SimConfig {
        spec: ClusterSpec::from_rates(scale_rates).expect("valid rates"),
        num_dispatchers: DISPATCHERS,
        rounds: SCALE_ROUNDS,
        warmup_rounds: 0,
        seed: SEED,
        arrivals: ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 },
        services: ServiceModel::Geometric,
        measure_decision_times: false,
        histogram_metrics: true,
        scenario: scd_sim::ScenarioSpec::default(),
        workload: scd_sim::WorkloadSpec::default(),
    };
    let scale_sim = Simulation::new(scale_config).expect("valid configuration");
    let dense = ScdFactory::new().classic_sampler();
    let compressed = ScdFactory::new();
    let (baseline, optimized) = measure_pair(
        SCALE_ROUNDS,
        || scale_sim.run(&dense).expect("clean run").jobs_completed,
        || {
            scale_sim
                .run(&compressed)
                .expect("clean run")
                .jobs_completed
        },
    );
    println!(
        "  SCD@10K baseline {baseline:>10.0} rounds/s | optimized {optimized:>12.0} rounds/s | \
         speedup {:.2}x  (dense per-server sampler vs compressed classes, {SCALE_SERVERS} \
         servers bimodal, load 0.9)",
        optimized / baseline
    );
    results.push(PolicyResult {
        policy: "SCD@10K",
        baseline,
        optimized,
    });

    if std::env::var_os("CRITERION_QUICK").is_some() {
        println!("CRITERION_QUICK set: smoke run, not recording BENCH_engine.json");
        return;
    }

    let mut rows = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "        {{\"policy\": \"{}\", \"baseline_rounds_per_sec\": {:.1}, \
             \"optimized_rounds_per_sec\": {:.1}, \"speedup\": {:.3}}}",
            r.policy,
            r.baseline,
            r.optimized,
            r.optimized / r.baseline
        ));
    }
    let new_run = format!(
        "    {{\n      \"label\": \"{RUN_LABEL}\",\n      \"config\": {{\"servers\": {SERVERS}, \
         \"dispatchers\": {DISPATCHERS}, \"offered_load\": {OFFERED_LOAD}, \"rounds\": {ROUNDS}, \
         \"seed\": {SEED}, \"rate_profile\": \"U[1,10]\", \"services\": \"geometric\"}},\n      \
         \"repetitions\": {reps},\n      \"results\": [\n{rows}\n      ]\n    }}",
        reps = repetitions()
    );

    // Append to the recorded run history (`runs` array), replacing any
    // earlier recording with this run's label so re-runs do not pile up.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let previous_runs = std::fs::read_to_string(out_path).ok().and_then(|existing| {
        let start = existing.find("\"runs\": [\n")? + "\"runs\": [\n".len();
        let end = existing.rfind("\n  ]")?;
        let mut inner = existing[start..end].to_string();
        if let Some(stale) = inner.find(&format!("\"label\": \"{RUN_LABEL}\"")) {
            // Drop the run object holding the stale label (it starts at the
            // "    {" preceding the label) and everything after it.
            let object_start = inner[..stale].rfind("    {")?;
            inner.truncate(object_start);
            let trimmed = inner.trim_end().trim_end_matches(',').to_string();
            inner = trimmed;
        }
        let inner = inner.trim_end().to_string();
        (!inner.is_empty()).then_some(inner)
    });
    let runs = match previous_runs {
        Some(previous) => format!("{previous},\n{new_run}"),
        None => new_run,
    };
    let json = format!(
        "{{\n  \"benchmark\": \"engine_throughput\",\n  \"unit\": \"rounds_per_sec\",\n  \
         \"runs\": [\n{runs}\n  ]\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
