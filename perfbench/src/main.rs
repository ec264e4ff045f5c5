//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper|meanfield|adversity|fabric|all> --seed N \
//!           --seconds S --trace <0|1> [--size full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that yields the per-layer metrics. Each workload
//! prints its metrics with their units, the machine fingerprint, and as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The binary doubles as the fabric workload's shard worker.

mod layers;
mod oracle;
mod output;
mod workloads;

use layers::{replay, time_per_call, PolicyTrace};
use output::{median, Metric, Outcome, END_TO_END, PER_LAYER};
use scd_policies::factory_by_name;
use scd_sim::fabric::{decode_frame, encode_final_frame};
use scd_sim::{merge_shard_reports, EngineCheckpoint, SimConfig, Simulation};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{exit, Command};
use std::time::{Duration, Instant};
use workloads::{run_unit, setup, Checker, Engine, Mode, Prepared, Size, Unit, Workload};

const USAGE: &str = "usage: perfbench --workload <paper|meanfield|adversity|fabric|all> \
                     --seed N --seconds S --trace <0|1> [--size full|tiny]";

/// Set-ups timed before the first unit, and after each unit (within
/// [`SETUP_BUDGET`]); `setup_s` is the median of them all, so it samples
/// the same stretch of machine time as the throughputs do.
const SETUP_REPS: usize = 16;

/// Time budget of one batch of set-ups.
const SETUP_BUDGET: Duration = Duration::from_millis(50);

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if value == "all" => workload = Some(None),
                "--workload" => {
                    workload = Some(Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    ))
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("invalid --seed {value}"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("invalid --seconds {value}"))?;
                    if !(0.0..=600.0).contains(&s) {
                        return Err(format!("--seconds {s} outside 0..=600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("invalid --trace {value}")),
                    })
                }
                "--size" => {
                    size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("invalid --size {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shard") {
        // The fabric workload spawns this binary as its shard worker.
        match scd_experiments::fabric::worker_main(args) {
            Ok(code) => exit(code),
            Err(failure) => {
                eprintln!("perfbench worker: {}", failure.message);
                exit(failure.code);
            }
        }
    }
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            exit(2);
        }
    };
    let code = match options.workload {
        Some(workload) => run_one(workload, &options),
        None => run_all(&options),
    };
    exit(code);
}

/// Runs every workload in its own child process, one after another, so
/// each reports its own peak RSS.
fn run_all(options: &Options) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the benchmark binary");
        return 1;
    };
    let mut code = 0;
    for workload in Workload::ALL {
        let size = if options.size == Size::Tiny {
            "tiny"
        } else {
            "full"
        };
        let status = Command::new(&exe)
            .args([
                "--workload",
                workload.name(),
                "--seed",
                &options.seed.to_string(),
            ])
            .args(["--seconds", &options.seconds.to_string()])
            .args([
                "--trace",
                if options.trace { "1" } else { "0" },
                "--size",
                size,
            ])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            code = 1;
        }
    }
    code
}

fn run_one(workload: Workload, options: &Options) -> i32 {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={:?}",
        workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.size
    );
    println!("fingerprint {}", output::fingerprint());
    let outcome = match measure(workload, options) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", workload.name());
            return 1;
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let listed: &[Metric] = if options.trace { PER_LAYER } else { END_TO_END };
    for metric in listed {
        println!(
            "metric {:<42} {:>16.6} {}",
            metric.name,
            outcome
                .metrics
                .get(metric.name)
                .copied()
                .unwrap_or(f64::NAN),
            metric.unit
        );
    }
    println!(
        "metric {:<42} {:>16.6} frac ({} of {} runs failed)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    match outcome.json(listed) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            1
        }
    }
}

/// Sets the workload up, repeats its unit for the measured time (starting
/// no repetition that would overrun it) and derives the metrics of the
/// requested mode.
fn measure(workload: Workload, options: &Options) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    // A fixed number of set-ups before the first unit keeps the allocation
    // history up to the peak-RSS reading independent of timing.
    let prepared = time_setups(workload, options, None, &mut setup_times)?;
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let mut outcome = Outcome::default();
    let mut checker = Checker::default();
    if options.trace {
        measure_traced(&prepared, deadline, &mut checker, &mut outcome)?;
    } else {
        let mut all = Vec::new();
        let mut scd = Vec::new();
        loop {
            let started = Instant::now();
            let unit = run_unit(&prepared, Mode::Plain);
            for verdict in checker.check(&prepared, &unit) {
                outcome.record(verdict);
            }
            all.push(throughput(&unit, |_| true));
            scd.push(throughput(&unit, |run| run.scd));
            if all.len() == 1 {
                // Later units repeat the first one's work; reading the peak
                // here keeps the timing-dependent set-up batches out of it.
                let rss =
                    output::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
                outcome.metrics.insert("peak_rss_mb", rss);
            }
            time_setups(workload, options, Some(SETUP_BUDGET), &mut setup_times)?;
            if Instant::now() + started.elapsed() > deadline {
                break;
            }
        }
        outcome.metrics.insert("rounds_per_s", median(&mut all));
        outcome.metrics.insert("scd_rounds_per_s", median(&mut scd));
    }
    outcome.metrics.insert("setup_s", median(&mut setup_times));
    Ok(outcome)
}

/// Sets the workload up [`SETUP_REPS`] times (fewer once `budget` is
/// spent), appending each set-up's seconds to `times`; returns the last
/// set-up.
fn time_setups(
    workload: Workload,
    options: &Options,
    budget: Option<Duration>,
    times: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let began = Instant::now();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        let built = setup(workload, options.size, options.seed)?;
        times.push(start.elapsed().as_secs_f64());
        prepared = Some(built);
        if budget.is_some_and(|budget| began.elapsed() >= budget) {
            break;
        }
    }
    Ok(prepared.expect("at least one set-up"))
}

/// Simulated rounds per host second over the unit's runs that `pick`
/// selects.
fn throughput(unit: &Unit, pick: impl Fn(&workloads::Run) -> bool) -> f64 {
    let (rounds, wall) = unit
        .runs
        .iter()
        .filter(|run| pick(run))
        .fold((0u64, 0.0), |(r, w), run| (r + run.rounds, w + run.wall_s));
    rounds as f64 / wall
}

/// The traced run: alternates a plain and a traced repetition of the unit
/// until the deadline, checks that tracing changed no report, and derives
/// the per-layer metrics.
fn measure_traced(
    prepared: &Prepared,
    deadline: Instant,
    checker: &mut Checker,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut captured: Option<Unit> = None;
    loop {
        let started = Instant::now();
        let plain = run_unit(prepared, Mode::Plain);
        let verdicts = checker.check(prepared, &plain);
        let traced = run_unit(
            prepared,
            Mode::Traced {
                capture: captured.is_none(),
            },
        );
        for ((verdict, a), b) in verdicts.into_iter().zip(&plain.runs).zip(&traced.runs) {
            outcome.record(verdict);
            outcome.record(transparency(a, b));
        }
        for (name, value) in unit_layers(&plain, &traced) {
            samples.entry(name).or_default().push(value);
        }
        if captured.is_none() {
            captured = Some(traced);
        }
        if Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
    for (name, mut values) in samples {
        outcome.metrics.insert(name, median(&mut values));
    }
    let captured = captured.expect("at least one traced repetition");
    let snapshots = captured
        .runs
        .iter()
        .filter(|run| run.scd)
        .filter_map(|run| run.traces.as_ref())
        .flatten()
        .find(|trace| !trace.snapshots.is_empty())
        .ok_or("the traced SCD run captured no snapshots")?;
    let replayed = replay(
        &snapshots.snapshots,
        &snapshots.rates,
        prepared.config.histogram_metrics,
    )?;
    outcome.metrics.extend(replayed);
    match prepared.workload {
        Workload::Adversity => adversity_layers(prepared, checker, outcome)?,
        Workload::Fabric => fabric_layers(prepared, outcome)?,
        _ => {}
    }
    for metric in PER_LAYER {
        outcome.metrics.entry(metric.name).or_insert(0.0);
    }
    Ok(())
}

/// The transparency guard: a traced run must reproduce its plain twin's
/// report, and the jobs the decorator saw in measured rounds must be the
/// report's dispatched jobs.
fn transparency(plain: &workloads::Run, traced: &workloads::Run) -> Result<(), String> {
    if plain.report != traced.report {
        return Err(format!(
            "{}: the traced report differs from the untraced one",
            traced.label
        ));
    }
    if let (Some(traces), Ok(report)) = (&traced.traces, &traced.report) {
        let seen: u64 = traces.iter().map(|t| t.measured_jobs).sum();
        if seen != report.jobs_dispatched {
            return Err(format!(
                "{}: the policies dispatched {seen} measured jobs, the report counts {}",
                traced.label, report.jobs_dispatched
            ));
        }
    }
    Ok(())
}

/// Per-repetition layer numbers from one plain/traced pair.
fn unit_layers(plain: &Unit, traced: &Unit) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let (mut plain_s, mut traced_s, mut covered_ns, mut rounds) = (0.0, 0.0, 0u64, 0u64);
    let mut scd_calls = 0u64;
    let mut scd_hits = 0u64;
    for (a, b) in plain.runs.iter().zip(&traced.runs) {
        let Some(traces) = &b.traces else { continue };
        let sum = |f: fn(&PolicyTrace) -> u64| traces.iter().map(f).sum::<u64>();
        let (dispatch_ns, observe_ns, jobs) = (
            sum(|t| t.dispatch_ns),
            sum(|t| t.observe_ns),
            sum(|t| t.jobs),
        );
        plain_s += a.wall_s;
        traced_s += b.wall_s;
        covered_ns += dispatch_ns + observe_ns;
        rounds += b.rounds;
        let key = b.label.to_ascii_lowercase();
        if let Some(metric) = PER_LAYER
            .iter()
            .find(|m| m.name == format!("policies.{key}.dispatch_ns_per_job"))
        {
            out.push((metric.name, dispatch_ns as f64 / jobs.max(1) as f64));
        }
        if let Some(metric) = PER_LAYER
            .iter()
            .find(|m| m.name == format!("policies.{key}.observe_ns_per_round"))
        {
            out.push((metric.name, observe_ns as f64 / b.rounds as f64));
        }
        if b.scd {
            scd_calls += sum(|t| t.dispatch_calls);
            scd_hits += sum(|t| t.memo_hits);
        }
    }
    let traced_ns = traced_s * 1e9;
    out.push(("trace_overhead_frac", traced_s / plain_s - 1.0));
    out.push(("policies.dispatch_share", covered_ns as f64 / traced_ns));
    out.push((
        "sim.engine.self_ns_per_round",
        (traced_ns - covered_ns as f64) / rounds as f64,
    ));
    out.push((
        "model.round_cache.memo_hits_per_scd_call",
        scd_hits as f64 / scd_calls.max(1) as f64,
    ));
    if let Some(fabric) = &plain.fabric {
        let (fabric_run, in_process) = (&plain.runs[0], &plain.runs[1]);
        out.push(("sim.shard.inprocess_s", in_process.wall_s));
        out.push((
            "sim.fabric.overhead_ratio",
            fabric_run.wall_s / in_process.wall_s,
        ));
        out.push(("sim.fabric.attempts", fabric.attempts as f64));
        out.push((
            "sim.fabric.checkpoints_taken",
            fabric.checkpoints_taken as f64,
        ));
        out.push(("sim.fabric.rounds_replayed", fabric.rounds_replayed as f64));
    }
    out
}

/// Scenario counters (exact, summed over the workload's runs) and the
/// standalone workload-sampler loop.
fn adversity_layers(
    prepared: &Prepared,
    checker: &Checker,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut totals = [0u64; 4];
    for report in checker.reference().iter().flatten() {
        if let Some(d) = report.degradation {
            for (total, v) in totals.iter_mut().zip([
                d.server_down_rounds,
                d.stale_decision_rounds,
                d.probes_dropped,
                d.arrivals_lost,
            ]) {
                *total += v;
            }
        }
    }
    for (name, total) in [
        "sim.scenario.server_down_rounds",
        "sim.scenario.stale_decision_rounds",
        "sim.scenario.probes_dropped",
        "sim.scenario.arrivals_lost",
    ]
    .into_iter()
    .zip(totals)
    {
        outcome.metrics.insert(name, total as f64);
    }
    outcome.metrics.insert(
        "sim.workload.sample_ns_per_round",
        workload_sample_ns(&prepared.config)?,
    );
    Ok(())
}

/// Nanoseconds per round of `WorkloadSampler::begin_round` +
/// `sample_into` over the run's rounds.
fn workload_sample_ns(config: &SimConfig) -> Result<f64, String> {
    let m = config.num_dispatchers;
    let base = config
        .arrivals
        .per_dispatcher_rates(m, config.spec.total_rate())
        .map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(m);
    let reps = [(); 5];
    let per_run = time_per_call(&reps, |()| {
        let mut sampler = config.workload.sampler(config.seed, &base);
        for round in 0..config.rounds {
            let g = sampler.begin_round(round);
            out.clear();
            sampler.sample_into(round, g, &mut out);
            black_box(&out);
        }
    });
    Ok(per_run / config.rounds as f64)
}

/// Shard merge, engine checkpoint codec and fabric frame codec, timed on
/// this workload's own shard reports and state.
fn fabric_layers(prepared: &Prepared, outcome: &mut Outcome) -> Result<(), String> {
    let Engine::Fabric { sharded, .. } = &prepared.engine else {
        return Ok(());
    };
    let factory = factory_by_name("SCD").expect("SCD is registered");
    let reports = sharded
        .run_shards(factory.as_ref(), 1)
        .map_err(|e| e.to_string())?;
    let reps = [(); 9];
    let merge_ns = time_per_call(&reps, |()| {
        black_box(merge_shard_reports(&reports).is_ok());
    });
    let frame = encode_final_frame(&reports[0]).map_err(|e| e.to_string())?;
    let frame_encode_ns = time_per_call(&reps, |()| {
        black_box(encode_final_frame(&reports[0]).is_ok());
    });
    let frame_decode_ns = time_per_call(&reps, |()| {
        black_box(decode_frame(&frame).is_ok());
    });
    let shard = Simulation::new(sharded.shard_config(0).clone()).map_err(|e| e.to_string())?;
    let checkpoint = shard
        .checkpoint(factory.as_ref(), prepared.shape.rounds / 2)
        .map_err(|e| e.to_string())?;
    let bytes = checkpoint.to_bytes().map_err(|e| e.to_string())?;
    if EngineCheckpoint::from_bytes(&bytes).map_err(|e| e.to_string())? != checkpoint {
        outcome.record(Err("checkpoint: decode(encode(c)) != c".to_string()));
    }
    let encode_ns = time_per_call(&reps, |()| {
        black_box(checkpoint.to_bytes().is_ok());
    });
    let decode_ns = time_per_call(&reps, |()| {
        black_box(EngineCheckpoint::from_bytes(&bytes).is_ok());
    });
    for (name, value) in [
        ("sim.shard.merge_ns", merge_ns),
        ("sim.fabric.frame_encode_ns", frame_encode_ns),
        ("sim.fabric.frame_decode_ns", frame_decode_ns),
        ("sim.fabric.frame_bytes", frame.len() as f64),
        ("sim.checkpoint.encode_ns", encode_ns),
        ("sim.checkpoint.decode_ns", decode_ns),
        ("sim.checkpoint.bytes", bytes.len() as f64),
    ] {
        outcome.metrics.insert(name, value);
    }
    Ok(())
}
