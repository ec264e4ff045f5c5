//! The four workloads: how each is set up, run and checked.
//!
//! A workload is a fixed *unit* of simulation work derived from the seed:
//! one or more policy runs on identical inputs. The harness repeats the
//! unit for the measured time; every repetition must reproduce the first
//! one's reports exactly.

use crate::layers::{PolicyTrace, TracedFactory};
use crate::oracle::{total_variation, tv_tolerance, wr_occupancy_law};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_model::{ClusterSpec, PolicyFactory, RateProfile};
use scd_policies::factory_by_name;
use scd_sim::fabric::{run_fabric, FabricSpec, InjectedFault, WorkerFaultPlan};
use scd_sim::{
    ArrivalSpec, ScenarioSpec, ServiceModel, ShardedSimulation, SimConfig, SimError, SimReport,
    Simulation, StalenessSpec, WorkloadSpec,
};
use std::path::PathBuf;
use std::time::Instant;

/// The bursty MMPP preset with the 3:1 job-size mix.
const BURSTY_PRESET: &str = include_str!("../../presets/bursty.workload");

/// Shard (worker-process) count of the fabric workload.
pub const FABRIC_SHARDS: usize = 2;

/// Salt separating the cluster draw from the run's own streams.
const CLUSTER_SALT: u64 = 0xC1A5_7E12_BE7C_0001;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Figure-3 cell: n = 100, U[1, 10] rates, m = 10, load 0.99, six
    /// policies back to back.
    Paper,
    /// n = 10⁵ bimodal {1, 4} rates, m = 10, load 0.9, histogram-only
    /// metrics; SCD and WR.
    Meanfield,
    /// The paper cluster at load 0.5 under the bursty workload preset and
    /// crash/churn/staleness/probe-loss faults; SCD and LSQ.
    Adversity,
    /// SCD on the paper cluster as two supervised worker processes with
    /// checkpoints and one injected crash, against the in-process k = 2 run.
    Fabric,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Meanfield,
        Workload::Adversity,
        Workload::Fabric,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Meanfield => "meanfield",
            Workload::Adversity => "adversity",
            Workload::Fabric => "fabric",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full benchmark size, or a seconds-long smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The fixed shape of a workload at a size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub m: usize,
    pub load: f64,
    pub rounds: u64,
    pub warmup: u64,
    pub policies: &'static [&'static str],
    /// Fabric checkpoint cadence in rounds.
    pub checkpoint_every: u64,
}

impl Shape {
    pub fn of(workload: Workload, size: Size) -> Shape {
        let tiny = size == Size::Tiny;
        let base = Shape {
            n: 100,
            m: 10,
            load: 0.99,
            rounds: if tiny { 300 } else { 4_000 },
            warmup: if tiny { 50 } else { 500 },
            policies: &["SCD", "JSQ", "SED", "LSQ", "LED", "WR"],
            checkpoint_every: 0,
        };
        match workload {
            Workload::Paper => base,
            Workload::Meanfield => Shape {
                n: if tiny { 2_000 } else { 100_000 },
                load: 0.9,
                rounds: 16,
                warmup: 6,
                policies: &["SCD", "WR"],
                ..base
            },
            Workload::Adversity => Shape {
                load: 0.5,
                policies: &["SCD", "LSQ"],
                ..base
            },
            Workload::Fabric => Shape {
                rounds: if tiny { 400 } else { 8_000 },
                warmup: if tiny { 40 } else { 800 },
                policies: &["SCD"],
                checkpoint_every: if tiny { 100 } else { 1_000 },
                ..base
            },
        }
    }
}

/// The constructed engine of a workload.
pub enum Engine {
    Single(Simulation),
    Fabric {
        sharded: ShardedSimulation,
        spec: FabricSpec,
    },
}

/// A workload after set-up: configuration, shape and engine.
pub struct Prepared {
    pub workload: Workload,
    pub shape: Shape,
    pub config: SimConfig,
    pub engine: Engine,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The paper's moderate-heterogeneity cluster, drawn from the seed.
fn paper_cluster(n: usize, seed: u64) -> Result<ClusterSpec, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ CLUSTER_SALT);
    RateProfile::paper_moderate()
        .materialize(n, &mut rng)
        .map_err(err)
}

/// The adversity scenario: server crash/repair, dispatcher churn, views up
/// to three rounds stale, and 10% probe loss.
fn adversity_scenario() -> ScenarioSpec {
    ScenarioSpec {
        server_fail_rate: 0.002,
        server_repair_rate: 0.05,
        dispatcher_fail_rate: 0.002,
        dispatcher_repair_rate: 0.1,
        staleness: StalenessSpec::UniformPerRound { max_k: 3 },
        probe_loss_rate: 0.1,
        ..ScenarioSpec::default()
    }
}

/// The fabric worker: this very binary, which acts as a shard worker when
/// its first argument is `--shard`.
fn resolve_worker() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "the benchmark binary {} is not a file",
            exe.display()
        ))
    }
}

/// Builds the cluster, validates the configuration and constructs the
/// engine — everything a run needs before its first round.
///
/// # Errors
/// Any configuration or construction error.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<Prepared, String> {
    let shape = Shape::of(workload, size);
    let cluster = match workload {
        Workload::Meanfield => {
            let mut rates = vec![1.0; shape.n / 2];
            rates.resize(shape.n, 4.0);
            ClusterSpec::from_rates(rates).map_err(err)?
        }
        _ => paper_cluster(shape.n, seed)?,
    };
    let mut builder = SimConfig::builder(cluster)
        .dispatchers(shape.m)
        .rounds(shape.rounds)
        .warmup_rounds(shape.warmup)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad {
            offered_load: shape.load,
        })
        .services(ServiceModel::Geometric)
        .histogram_metrics(workload == Workload::Meanfield);
    if workload == Workload::Adversity {
        builder = builder
            .workload(WorkloadSpec::from_key_values(BURSTY_PRESET).map_err(err)?)
            .scenario(adversity_scenario());
    }
    let config = builder.build().map_err(err)?;
    let engine = match workload {
        Workload::Fabric => {
            let sharded = ShardedSimulation::new(config.clone(), FABRIC_SHARDS).map_err(err)?;
            let mut spec = FabricSpec::new(resolve_worker()?, "SCD", FABRIC_SHARDS);
            spec.checkpoint_every = shape.checkpoint_every;
            spec.injected.push(InjectedFault {
                shard: 0,
                fault: WorkerFaultPlan {
                    fail_after_checkpoint: Some(1),
                    ..WorkerFaultPlan::default()
                },
                persistent: false,
            });
            Engine::Fabric { sharded, spec }
        }
        _ => Engine::Single(Simulation::new(config.clone()).map_err(err)?),
    };
    Ok(Prepared {
        workload,
        shape,
        config,
        engine,
    })
}

/// One timed run of a unit.
pub struct Run {
    /// The policy name, or `fabric` for the worker-process run.
    pub label: &'static str,
    pub scd: bool,
    pub rounds: u64,
    pub wall_s: f64,
    pub report: Result<SimReport, String>,
    /// The decorator's records, when the run was traced.
    pub traces: Option<Vec<PolicyTrace>>,
}

/// What the fabric run did besides its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricStats {
    pub attempts: usize,
    pub lost_shards: Vec<usize>,
    pub checkpoints_taken: u64,
    pub rounds_replayed: u64,
}

/// One repetition of a workload's unit.
pub struct Unit {
    pub runs: Vec<Run>,
    pub fabric: Option<FabricStats>,
}

/// How a unit is run: plain, or through the tracing decorator (optionally
/// capturing snapshots for the layer replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Traced { capture: bool },
}

fn timed_run(
    prepared: &Prepared,
    label: &'static str,
    mode: Mode,
    go: impl Fn(&dyn PolicyFactory) -> Result<SimReport, SimError>,
) -> Run {
    let factory = factory_by_name(label).expect("workload policies are registered");
    let shape = &prepared.shape;
    let (wall_s, report, traces) = match mode {
        Mode::Plain => {
            let start = Instant::now();
            let report = go(factory.as_ref());
            (start.elapsed().as_secs_f64(), report, None)
        }
        Mode::Traced { capture } => {
            let traced = TracedFactory::new(
                factory.as_ref(),
                shape.warmup,
                shape.rounds,
                shape.n,
                capture,
            );
            let start = Instant::now();
            let report = go(&traced);
            let wall = start.elapsed().as_secs_f64();
            (wall, report, Some(traced.finish()))
        }
    };
    Run {
        label,
        scd: label == "SCD",
        rounds: shape.rounds,
        wall_s,
        report: report.map_err(err),
        traces,
    }
}

/// Runs one repetition of the workload's unit.
pub fn run_unit(prepared: &Prepared, mode: Mode) -> Unit {
    match &prepared.engine {
        Engine::Single(sim) => Unit {
            runs: prepared
                .shape
                .policies
                .iter()
                .map(|&name| timed_run(prepared, name, mode, |f| sim.run(f)))
                .collect(),
            fabric: None,
        },
        Engine::Fabric { sharded, spec } => {
            let start = Instant::now();
            let outcome = run_fabric(&prepared.config, spec);
            let wall_s = start.elapsed().as_secs_f64();
            let fabric = outcome.as_ref().ok().map(|o| FabricStats {
                attempts: o.attempts.len(),
                lost_shards: o.lost_shards.clone(),
                checkpoints_taken: o.checkpoints_taken,
                rounds_replayed: o.rounds_replayed,
            });
            let fabric_run = Run {
                label: "fabric",
                scd: true,
                rounds: prepared.shape.rounds,
                wall_s,
                report: outcome.map(|o| o.report).map_err(err),
                traces: None,
            };
            let in_process = timed_run(prepared, "SCD", mode, |f| sharded.run(f));
            Unit {
                runs: vec![fabric_run, in_process],
                fabric,
            }
        }
    }
}

/// Job conservation: every measured job dispatched either completed (and
/// has a response time) or is still in flight.
fn conservation(report: &SimReport) -> Result<(), String> {
    let policy = &report.policy;
    if report.jobs_dispatched == 0 {
        return Err(format!("{policy}: no jobs were dispatched"));
    }
    if report.jobs_completed > report.jobs_dispatched
        || report.jobs_completed + report.jobs_in_flight != report.jobs_dispatched
    {
        return Err(format!(
            "{policy}: dispatched {} != completed {} + in flight {}",
            report.jobs_dispatched, report.jobs_completed, report.jobs_in_flight
        ));
    }
    if report.response_times.count() != report.jobs_completed {
        return Err(format!(
            "{policy}: {} response times recorded for {} completed jobs",
            report.response_times.count(),
            report.jobs_completed
        ));
    }
    Ok(())
}

/// Checks a unit's outputs; returns one verdict per run. The expensive
/// oracle is solved once and kept.
#[derive(Default)]
pub struct Checker {
    reference: Option<Vec<Result<SimReport, String>>>,
    reference_fabric: Option<FabricStats>,
    wr_law: Option<Vec<f64>>,
}

impl Checker {
    /// The verdicts of `unit`: the workload's output checks plus, after
    /// the first unit, exact agreement with the first unit's reports.
    pub fn check(&mut self, prepared: &Prepared, unit: &Unit) -> Vec<Result<(), String>> {
        let mut verdicts: Vec<Result<(), String>> = unit
            .runs
            .iter()
            .map(|run| {
                run.report
                    .as_ref()
                    .map_err(|e| format!("{}: {e}", run.label))
                    .and_then(conservation)
            })
            .collect();
        let reports: Vec<Option<&SimReport>> =
            unit.runs.iter().map(|r| r.report.as_ref().ok()).collect();
        match prepared.workload {
            Workload::Paper => check_paper(unit, &reports, &mut verdicts),
            Workload::Meanfield => self.check_meanfield(prepared, unit, &reports, &mut verdicts),
            Workload::Adversity => check_adversity(unit, &reports, &mut verdicts),
            Workload::Fabric => check_fabric(unit, &reports, &mut verdicts),
        }
        match &self.reference {
            None => self.reference = Some(unit.runs.iter().map(|r| r.report.clone()).collect()),
            Some(reference) => {
                for ((verdict, run), expected) in verdicts.iter_mut().zip(&unit.runs).zip(reference)
                {
                    if verdict.is_ok() && run.report != *expected {
                        *verdict = Err(format!(
                            "{}: the report differs from the first repetition's",
                            run.label
                        ));
                    }
                }
            }
        }
        if let Some(stats) = &unit.fabric {
            match &self.reference_fabric {
                None => self.reference_fabric = Some(stats.clone()),
                Some(expected) if expected != stats => {
                    verdicts[0] = Err(format!("fabric: recovery {stats:?} differs from the first repetition's {expected:?}"));
                }
                Some(_) => {}
            }
        }
        verdicts
    }

    /// The first unit's reports (for the exact scenario counters).
    pub fn reference(&self) -> &[Result<SimReport, String>] {
        self.reference.as_deref().unwrap_or(&[])
    }

    fn check_meanfield(
        &mut self,
        prepared: &Prepared,
        unit: &Unit,
        reports: &[Option<&SimReport>],
        verdicts: &mut [Result<(), String>],
    ) {
        let shape = &prepared.shape;
        let (Some(wr_at), Some(scd_at)) = (position(unit, "WR"), position(unit, "SCD")) else {
            return;
        };
        if let Some(wr) = reports[wr_at] {
            let observed: u64 = wr.queue_occupancy.iter().sum();
            let expected = (shape.rounds - shape.warmup) * shape.n as u64;
            if observed != expected {
                fail(
                    verdicts,
                    wr_at,
                    format!("WR: {observed} occupancy observations, expected {expected}"),
                );
            }
            if self.wr_law.is_none() {
                let classes = [(1.0, shape.n / 2), (4.0, shape.n - shape.n / 2)];
                match wr_occupancy_law(&classes, shape.load, shape.warmup, shape.rounds) {
                    Ok(law) => self.wr_law = Some(law),
                    Err(e) => fail(verdicts, wr_at, format!("WR oracle: {e}")),
                }
            }
            if let Some(law) = &self.wr_law {
                let tv = total_variation(&wr.queue_length_distribution(), law);
                let tolerance = tv_tolerance(shape.n);
                if tv.is_nan() || tv >= tolerance {
                    fail(
                        verdicts,
                        wr_at,
                        format!("WR: TV to the product-form law {tv} >= {tolerance}"),
                    );
                }
            }
            if let Some(scd) = reports[scd_at] {
                if scd.queues.mean_total_backlog >= wr.queues.mean_total_backlog {
                    fail(
                        verdicts,
                        scd_at,
                        format!(
                            "SCD backlog {} not below WR's {}",
                            scd.queues.mean_total_backlog, wr.queues.mean_total_backlog
                        ),
                    );
                }
            }
        }
    }
}

fn position(unit: &Unit, label: &str) -> Option<usize> {
    unit.runs.iter().position(|r| r.label == label)
}

fn fail(verdicts: &mut [Result<(), String>], at: usize, message: String) {
    if verdicts[at].is_ok() {
        verdicts[at] = Err(message);
    }
}

/// Figure 3's claim: SCD's mean response time is below every baseline's.
fn check_paper(unit: &Unit, reports: &[Option<&SimReport>], verdicts: &mut [Result<(), String>]) {
    let Some(scd_at) = position(unit, "SCD") else {
        return;
    };
    let Some(scd) = reports[scd_at] else { return };
    for (run, report) in unit.runs.iter().zip(reports) {
        if let Some(other) = report.filter(|_| !run.scd) {
            if scd.mean_response_time() >= other.mean_response_time() {
                let message = format!(
                    "SCD mean response {} not below {}'s {}",
                    scd.mean_response_time(),
                    run.label,
                    other.mean_response_time()
                );
                fail(verdicts, scd_at, message);
            }
        }
    }
}

/// Every fault family of the scenario must have fired.
fn check_adversity(
    unit: &Unit,
    reports: &[Option<&SimReport>],
    verdicts: &mut [Result<(), String>],
) {
    for (at, (run, report)) in unit.runs.iter().zip(reports).enumerate() {
        let Some(report) = report else { continue };
        let Some(d) = report.degradation else {
            fail(
                verdicts,
                at,
                format!(
                    "{}: no degradation metrics under an active scenario",
                    run.label
                ),
            );
            continue;
        };
        let mut counters = vec![
            ("server_down_rounds", d.server_down_rounds),
            ("dispatcher_offline_rounds", d.dispatcher_offline_rounds),
            ("arrivals_lost", d.arrivals_lost),
            ("stale_decision_rounds", d.stale_decision_rounds),
        ];
        if run.label == "LSQ" {
            counters.push(("probes_dropped", d.probes_dropped));
        }
        if let Some((name, _)) = counters.iter().find(|(_, v)| *v == 0) {
            fail(
                verdicts,
                at,
                format!("{}: degradation counter {name} is 0", run.label),
            );
        }
    }
}

/// The merged fabric report must equal the in-process k = 2 report bit for
/// bit, after exactly one recovery from a verified checkpoint.
fn check_fabric(unit: &Unit, reports: &[Option<&SimReport>], verdicts: &mut [Result<(), String>]) {
    if let Some(stats) = &unit.fabric {
        if !stats.lost_shards.is_empty() {
            fail(
                verdicts,
                0,
                format!("fabric: shards {:?} were lost", stats.lost_shards),
            );
        }
        if stats.attempts != FABRIC_SHARDS + 1 {
            fail(
                verdicts,
                0,
                format!(
                    "fabric: {} attempts, expected {}",
                    stats.attempts,
                    FABRIC_SHARDS + 1
                ),
            );
        }
        if stats.checkpoints_taken == 0 {
            fail(verdicts, 0, "fabric: no checkpoint was taken".to_string());
        }
    }
    if let (Some(fabric), Some(in_process)) = (reports[0], reports[1]) {
        if fabric != in_process {
            fail(
                verdicts,
                0,
                "fabric: the merged report differs from the in-process k = 2 report".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_unit(workload: Workload) -> (Prepared, Unit) {
        let prepared = setup(workload, Size::Tiny, 7).unwrap();
        let unit = run_unit(&prepared, Mode::Plain);
        (prepared, unit)
    }

    #[test]
    fn tiny_in_process_workloads_pass_their_checks() {
        for workload in [Workload::Paper, Workload::Meanfield, Workload::Adversity] {
            let (prepared, unit) = tiny_unit(workload);
            let mut checker = Checker::default();
            let verdicts = checker.check(&prepared, &unit);
            assert_eq!(verdicts.len(), prepared.shape.policies.len());
            assert!(
                verdicts.iter().all(Result::is_ok),
                "{}: {verdicts:?}",
                workload.name()
            );
            // A repetition reproduces the first unit exactly.
            let again = run_unit(&prepared, Mode::Plain);
            assert!(checker.check(&prepared, &again).iter().all(Result::is_ok));
        }
    }

    #[test]
    fn traced_runs_reproduce_the_plain_reports() {
        let (prepared, plain) = tiny_unit(Workload::Adversity);
        let traced = run_unit(&prepared, Mode::Traced { capture: true });
        for (a, b) in plain.runs.iter().zip(&traced.runs) {
            assert_eq!(a.report, b.report, "{}", a.label);
            let jobs: u64 = b
                .traces
                .as_ref()
                .unwrap()
                .iter()
                .map(|t| t.measured_jobs)
                .sum();
            assert_eq!(jobs, a.report.as_ref().unwrap().jobs_dispatched);
        }
    }

    #[test]
    fn a_corrupted_report_counts_into_the_error_rate() {
        let (prepared, mut unit) = tiny_unit(Workload::Paper);
        // Invent a completed job: SCD's report no longer conserves jobs.
        let report = unit.runs[0].report.as_mut().unwrap();
        report.jobs_completed += 1;
        let mut outcome = crate::output::Outcome::default();
        for verdict in Checker::default().check(&prepared, &unit) {
            outcome.record(verdict);
        }
        assert_eq!((outcome.attempted, outcome.failed), (6, 1));
        assert!(
            outcome.failures[0].contains("completed"),
            "{:?}",
            outcome.failures
        );
        outcome.metrics.insert("rounds_per_s", 1.0);
        let line = outcome.json(&crate::output::END_TO_END[..1]).unwrap();
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 6, \"failed\": 1"),
            "{line}"
        );
    }
}
