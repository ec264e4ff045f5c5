//! The three-phase round engine (Section 2 of the paper).

use crate::checkpoint::{
    check_queue_segments, DecisionState, EngineCheckpoint, HistogramState, ScenarioState,
    TrackerState,
};
use crate::config::SimConfig;
use crate::queues::QueueArena;
use crate::report::{DegradationMetrics, QueueSummary, SimReport};
use crate::scenario::StalenessSpec;
use crate::trace::RunTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_metrics::{DecisionTimeHistogram, QueueLengthTracker, ResponseTimeHistogram};
use scd_model::{
    Availability, CacheDemand, DegradedView, DispatchContext, DispatcherId, ModelError,
    PolicyFactory, ProbeLossOracle, RoundCache, ServerId,
};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Errors produced when configuring or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
    /// A policy returned an invalid assignment (wrong arity or unknown
    /// server).
    PolicyViolation {
        /// Name of the offending policy.
        policy: String,
        /// The dispatcher that produced the bad assignment.
        dispatcher: usize,
        /// The underlying validation error.
        source: ModelError,
    },
    /// An I/O failure talking to a process-fabric worker (spawn, stdin
    /// hand-off, pipe read, wait). Carries the worker's process id (0 when
    /// the process never spawned) and the shard it was running, so a fleet
    /// log line identifies the exact worker.
    Io {
        /// OS process id of the worker, or 0 if spawning itself failed.
        worker: u32,
        /// The shard the worker was assigned.
        shard: usize,
        /// Human-readable cause (the underlying `std::io::Error` text).
        cause: String,
    },
    /// A process-fabric frame failed to decode (truncated, bad checksum,
    /// wrong version, malformed payload).
    Codec {
        /// The shard whose frame was rejected.
        shard: usize,
        /// The typed codec failure.
        cause: crate::fabric::CodecError,
    },
    /// Shard reports disagree on run identity (shard count, config digest,
    /// policy or round clock) and were refused by the merge — merging
    /// reports of different runs would silently produce nonsense statistics.
    MergeMismatch(String),
    /// A checkpoint could not be captured or restored: the requested
    /// round is out of range, the checkpoint was taken under a different
    /// configuration (digest mismatch), its shape disagrees with the
    /// resuming run, or a policy rejected its state blob.
    Checkpoint(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation configuration: {msg}"),
            SimError::PolicyViolation {
                policy,
                dispatcher,
                source,
            } => write!(
                f,
                "policy {policy} misbehaved at dispatcher {dispatcher}: {source}"
            ),
            SimError::Io {
                worker,
                shard,
                cause,
            } => write!(f, "worker {worker} (shard {shard}) I/O failure: {cause}"),
            SimError::Codec { shard, cause } => {
                write!(f, "shard {shard} report frame rejected: {cause}")
            }
            SimError::MergeMismatch(msg) => write!(f, "refusing to merge shard reports: {msg}"),
            SimError::Checkpoint(msg) => write!(f, "checkpoint rejected: {msg}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidConfig(_) => None,
            SimError::PolicyViolation { source, .. } => Some(source),
            SimError::Io { .. } => None,
            SimError::Codec { cause, .. } => Some(cause),
            SimError::MergeMismatch(_) => None,
            SimError::Checkpoint(_) => None,
        }
    }
}

/// How (and whether) the round loop emits checkpoints: capture one every
/// `every` rounds (0 = never), and — for
/// [`Simulation::checkpoint`] — stop the run right after capturing at
/// `stop_at`. Each capture is handed to `sink`, whose error aborts the run.
struct CheckpointPlan<'a> {
    every: u64,
    stop_at: Option<u64>,
    sink: &'a mut dyn FnMut(EngineCheckpoint) -> Result<(), SimError>,
}

// Seed-stream separation: each stochastic stream of the run is seeded from
// the master seed and a distinct tag (plus a per-dispatcher index for the
// policy streams), so that the arrival and departure processes are identical
// across policies while policy-internal randomness stays independent per
// dispatcher. The derivation lives in `scd_model::streams` so the sharded
// engine ([`crate::shard`]) can derive per-shard sub-masters with the same
// splitmix64 scheme.
use scd_model::streams::{
    counter_draw, derive_stream_seed, unit_f64, ARRIVAL_STREAM_TAG, FAULT_STREAM_TAG,
    POLICY_STREAM_TAG, PROBE_LOSS_STREAM_TAG, SERVICE_STREAM_TAG, STALENESS_STREAM_TAG,
};

/// Per-round scenario state needed to build a **per-dispatcher** context:
/// under an active scenario dispatchers may look at different (stale) queue
/// views, so the single shared context of the fair-weather path is replaced
/// by one built on demand per dispatcher. Availability and probe loss are
/// always current — only the queue-length view goes stale (failure
/// detection is modelled as out-of-band).
struct ScenarioRound<'a> {
    rates: &'a [f64],
    snapshot: &'a [u64],
    /// Ring buffer of the last `ring.len()` snapshots (indexed by
    /// `round % ring.len()`), present only when staleness is possible.
    ring: Option<&'a [Vec<u64>]>,
    /// Per-dispatcher effective view age for this round (already clamped to
    /// `round`, so the ring lookup never reaches before round 0).
    k_effs: &'a [u64],
    /// The shared per-round cache, refreshed from this round's *fresh*
    /// snapshot — attachable only to dispatchers whose effective view *is*
    /// that snapshot (`k_eff == 0`). Stale-view dispatchers must not see
    /// solver tables computed against a state they do not observe.
    cache: Option<&'a RoundCache>,
    avail: &'a Availability,
    oracle: Option<&'a ProbeLossOracle>,
    m: usize,
    round: u64,
}

impl<'a> ScenarioRound<'a> {
    /// The context dispatcher `d` dispatches with this round.
    fn ctx(&self, d: usize) -> DispatchContext<'a> {
        let k_eff = self.k_effs[d];
        let view: &'a [u64] = if k_eff == 0 {
            self.snapshot
        } else {
            let ring = self
                .ring
                .expect("a snapshot ring exists whenever staleness is possible");
            &ring[((self.round - k_eff) as usize) % ring.len()]
        };
        // `ctx.round()` stays the *current* round even for stale views:
        // policies time-stamp their internal state with it, and the view age
        // is an information defect, not time travel.
        match self.cache {
            // Fresh view: the shared cache describes exactly this snapshot,
            // so cache-backed dispatch kernels stay bit-identical to the
            // fair-weather path (the `k = 0` scenario equivalence test pins
            // this). Masked rounds bypass the cache inside the policies.
            Some(cache) if k_eff == 0 => {
                DispatchContext::with_cache(self.snapshot, self.rates, self.m, self.round, cache)
            }
            _ => DispatchContext::new(view, self.rates, self.m, self.round),
        }
        .with_degraded(DegradedView::new(self.avail, self.oracle, d))
    }
}

/// A configured simulation, ready to run any number of policies on identical
/// stochastic inputs.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Validates the configuration and creates the simulation.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations
    /// (zero dispatchers, zero rounds, warm-up at least as long as the run).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        if config.num_dispatchers == 0 {
            return Err(SimError::InvalidConfig(
                "the system must contain at least one dispatcher".into(),
            ));
        }
        if config.rounds == 0 {
            return Err(SimError::InvalidConfig(
                "the simulation must run for at least one round".into(),
            ));
        }
        if config.warmup_rounds >= config.rounds {
            return Err(SimError::InvalidConfig(format!(
                "warm-up ({}) must be shorter than the run ({})",
                config.warmup_rounds, config.rounds
            )));
        }
        config
            .scenario
            .validate(config.spec.num_servers(), config.num_dispatchers)?;
        config.validate_scale()?;
        config.arrivals.validate(config.num_dispatchers)?;
        config.workload.validate(
            &config.arrivals,
            config.num_dispatchers,
            config.rounds,
            config.spec.total_rate(),
        )?;
        Ok(Simulation { config })
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the configured system under the given policy and collects the
    /// result.
    ///
    /// For a fixed configuration (and therefore fixed seed) the arrival and
    /// service processes are identical across calls, so reports for
    /// different policies are directly comparable (the paper's methodology).
    ///
    /// # Errors
    /// Returns [`SimError::PolicyViolation`] if the policy returns an
    /// assignment with the wrong number of destinations or an out-of-range
    /// server.
    pub fn run(&self, factory: &dyn PolicyFactory) -> Result<SimReport, SimError> {
        let report = self.run_inner(factory, None, None, None)?;
        Ok(report.expect("a run without a stop round always completes"))
    }

    /// Runs the simulation up to (but not including) `at_round` and
    /// returns the [`EngineCheckpoint`] capturing its state at that round
    /// boundary. [`resume_from`](Simulation::resume_from) on the result
    /// completes the run bit-identically to an uninterrupted
    /// [`run`](Simulation::run) (pinned by the resume tests).
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] if `at_round` is 0 or past the end of the
    /// run, plus every error [`run`](Simulation::run) can produce.
    pub fn checkpoint(
        &self,
        factory: &dyn PolicyFactory,
        at_round: u64,
    ) -> Result<EngineCheckpoint, SimError> {
        if at_round == 0 || at_round >= self.config.rounds {
            return Err(SimError::Checkpoint(format!(
                "checkpoint round {at_round} outside the resumable range 1..{}",
                self.config.rounds
            )));
        }
        let mut captured = None;
        let mut sink = |ckpt: EngineCheckpoint| {
            captured = Some(ckpt);
            Ok(())
        };
        let report = self.run_inner(
            factory,
            None,
            None,
            Some(CheckpointPlan {
                every: 0,
                stop_at: Some(at_round),
                sink: &mut sink,
            }),
        )?;
        debug_assert!(report.is_none(), "the run stops at the capture round");
        captured.ok_or_else(|| {
            SimError::Checkpoint("the run ended before the requested checkpoint round".into())
        })
    }

    /// Resumes a run from a checkpoint and completes it, producing the
    /// same report an uninterrupted [`run`](Simulation::run) would have.
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] if the checkpoint's config digest does not
    /// match this configuration, its shape disagrees with the cluster, or
    /// a policy rejects its state blob — plus every error
    /// [`run`](Simulation::run) can produce.
    pub fn resume_from(
        &self,
        factory: &dyn PolicyFactory,
        checkpoint: &EngineCheckpoint,
    ) -> Result<SimReport, SimError> {
        let report = self.run_inner(factory, None, Some(checkpoint), None)?;
        Ok(report.expect("a resumed run without a stop round always completes"))
    }

    /// Runs the simulation (optionally resumed from `resume`), handing a
    /// checkpoint to `sink` every `every` rounds — at rounds that are
    /// positive multiples of `every`, skipping the resume round itself
    /// (the worker just received that state; re-emitting it would be
    /// retry fuel without progress). `every == 0` captures nothing, which
    /// makes this exactly [`run`](Simulation::run) /
    /// [`resume_from`](Simulation::resume_from).
    ///
    /// # Errors
    /// Everything [`resume_from`](Simulation::resume_from) can produce,
    /// plus any error returned by `sink` (which aborts the run).
    pub fn run_with_checkpoints(
        &self,
        factory: &dyn PolicyFactory,
        every: u64,
        resume: Option<&EngineCheckpoint>,
        sink: &mut dyn FnMut(EngineCheckpoint) -> Result<(), SimError>,
    ) -> Result<SimReport, SimError> {
        let report = self.run_inner(
            factory,
            None,
            resume,
            Some(CheckpointPlan {
                every,
                stop_at: None,
                sink,
            }),
        )?;
        Ok(report.expect("a run without a stop round always completes"))
    }

    /// Like [`run`](Simulation::run), additionally recording a per-job event
    /// trace: every raw sampled arrival count (replayable bit-exactly via
    /// [`WorkloadSpec::replay`](crate::WorkloadSpec::replay)) plus
    /// arrival/dispatch/service events renderable with
    /// [`chrome_trace_json`](crate::chrome_trace_json). Tracing never
    /// perturbs the run: the report is bit-identical to
    /// [`run`](Simulation::run).
    ///
    /// # Errors
    /// Same conditions as [`run`](Simulation::run).
    pub fn run_traced(
        &self,
        factory: &dyn PolicyFactory,
    ) -> Result<(SimReport, RunTrace), SimError> {
        let mut trace = RunTrace::new(
            self.config.num_dispatchers,
            self.config.spec.num_servers(),
            self.config.rounds,
        );
        let report = self.run_inner(factory, Some(&mut trace), None, None)?;
        Ok((
            report.expect("a traced run without a stop round always completes"),
            trace,
        ))
    }

    fn run_inner(
        &self,
        factory: &dyn PolicyFactory,
        mut trace: Option<&mut RunTrace>,
        resume: Option<&EngineCheckpoint>,
        mut checkpoints: Option<CheckpointPlan<'_>>,
    ) -> Result<Option<SimReport>, SimError> {
        let config = &self.config;
        let spec = &config.spec;
        let n = spec.num_servers();
        let m = config.num_dispatchers;
        let rates = spec.rates();

        // Independent RNG streams (see `derive_stream_seed` above).
        let mut arrival_rng =
            StdRng::seed_from_u64(derive_stream_seed(config.seed, ARRIVAL_STREAM_TAG, 0));
        let mut service_rng =
            StdRng::seed_from_u64(derive_stream_seed(config.seed, SERVICE_STREAM_TAG, 0));
        let mut policy_rngs: Vec<StdRng> = (0..m)
            .map(|d| {
                StdRng::seed_from_u64(derive_stream_seed(config.seed, POLICY_STREAM_TAG, d as u64))
            })
            .collect();

        // ---- Workload layer (crates/sim/src/workload.rs) ----
        // An inert (default) workload leaves the stationary arrival path —
        // and its RNG stream — untouched, bit for bit (the goldens in
        // `tests/engine_golden.rs` pin this). An *active* workload replaces
        // the arrival samplers entirely: the stateful `arrival_rng` is never
        // consumed, and every draw is a counter-mode pure function of the
        // workload seed, the dispatcher's **global** id and the round, so
        // sharded and unsharded runs see one global schedule.
        let wl_active = !config.workload.is_inert();
        let wl_rates: Vec<f64> = if wl_active {
            config.arrivals.per_dispatcher_rates(m, spec.total_rate())?
        } else {
            Vec::new()
        };
        let mut wl_sampler = if wl_active {
            Some(config.workload.sampler(config.seed, &wl_rates))
        } else {
            None
        };

        let arrival_processes = if wl_active {
            Vec::new()
        } else {
            config.arrivals.build(m, spec.total_rate())?
        };
        let service_processes = config.services.build(rates);

        let mut policies: Vec<_> = (0..m)
            .map(|d| factory.build(DispatcherId::new(d), spec))
            .collect();

        // Per-server FIFO queues, run-length encoded by arrival round, in
        // one chunked arena; the arena tracks each queue's length, so no
        // separate length mirror exists to drift out of sync.
        let mut queues = QueueArena::new(n);
        // Jobs dispatched to each server this round, not yet in its queue.
        // Nothing reads the queues between the snapshot and the departures,
        // so dispatch only counts here and the departure pass folds each
        // count into its queue; all zeros at every round boundary.
        let mut pending: Vec<u64> = vec![0; n];

        // Buffers reused across rounds — after warm-up the loop below
        // performs no heap allocations.
        let mut snapshot: Vec<u64> = vec![0; n];
        let mut arrivals: Vec<u64> = Vec::with_capacity(m);
        let mut assignment: Vec<ServerId> = Vec::new();
        // Dispatchers run in ascending batch-size order (engine-known before
        // any dispatch): consecutive SCD estimates `m·a(d)` then differ
        // minimally, which is exactly what the solver's in-round warm seeds
        // want. Order is decision-invisible — each dispatcher owns its RNG
        // stream and sees the same snapshot, and same-round counts add up per
        // server — so reports are bit-identical to the `0..m` order.
        let mut dispatch_order: Vec<u32> = (0..m as u32).collect();
        // Shared per-round compute cache: derived tables (reciprocal rates,
        // loads, solver keys) are identical across the m dispatchers of a
        // round, so the engine computes them once and hands out immutable
        // views through the context. The refresh is graded on the policies'
        // own declarations: runs that never read the cache (JSQ, WR, ...)
        // skip it entirely, reciprocal-only consumers (SED) skip the
        // per-round solver-table fills.
        let mut round_cache = RoundCache::new();
        let cache_demand = policies
            .iter()
            .map(|p| p.round_cache_demand())
            .max()
            .unwrap_or(CacheDemand::None);

        let mut response_times = ResponseTimeHistogram::new();
        // Histogram-only mode keeps no per-server metric vectors — at
        // mean-field scale (n = 10⁵ .. 10⁶) the occupancy histogram plus
        // scalar totals are the entire metrics footprint.
        let mut tracker = if config.histogram_metrics {
            QueueLengthTracker::histogram_only(n)
        } else {
            QueueLengthTracker::new(n)
        };
        // Count-bucketed recorder: recording a timing sample is O(1) and
        // allocation-free, so the measured configuration pays (almost) no
        // instrumentation overhead beyond the two `Instant` reads — see
        // crates/bench/README.md, "Measurement-mode overhead".
        let mut decision_times = if config.measure_decision_times {
            Some(DecisionTimeHistogram::new())
        } else {
            None
        };
        let mut jobs_dispatched = 0u64;
        let mut jobs_completed = 0u64;

        // ---- Scenario layer (crates/sim/src/scenario.rs) ----
        // With the default (inert) scenario none of this state is allocated
        // or consulted and the round loop below is bit-identical to the
        // pre-scenario engine. Every schedule is drawn in counter mode
        // (`counter_draw`) from seeds keyed by *global* entity ids, so a
        // sharded run replays the identical schedule regardless of layout.
        let scenario = &config.scenario;
        let scn_active = !scenario.is_inert();
        let scn_seed = scenario.resolved_seed(config.seed);
        let server_faults = scn_active && scenario.server_fail_rate > 0.0;
        let server_fault_seeds: Vec<u64> = if server_faults {
            (0..n)
                .map(|s| {
                    derive_stream_seed(scn_seed, FAULT_STREAM_TAG, scenario.server_global_id(s))
                })
                .collect()
        } else {
            Vec::new()
        };
        let dispatcher_faults = scn_active && scenario.dispatcher_fail_rate > 0.0;
        let dispatcher_fault_seeds: Vec<u64> = if dispatcher_faults {
            (0..m)
                .map(|d| {
                    // Dispatchers share the fault tag with servers but live
                    // in the upper half of the index space.
                    let index = (1u64 << 63) | scenario.dispatcher_global_id(d);
                    derive_stream_seed(scn_seed, FAULT_STREAM_TAG, index)
                })
                .collect()
        } else {
            Vec::new()
        };
        let max_k = scenario.staleness.max_k();
        let ring_depth = (max_k + 1) as usize;
        let mut ring: Option<Vec<Vec<u64>>> = if scn_active && max_k > 0 {
            Some(vec![vec![0u64; n]; ring_depth])
        } else {
            None
        };
        let stale_seeds: Vec<u64> = match scenario.staleness {
            StalenessSpec::UniformPerRound { max_k } if scn_active && max_k > 0 => (0..m)
                .map(|d| {
                    derive_stream_seed(
                        scn_seed,
                        STALENESS_STREAM_TAG,
                        scenario.dispatcher_global_id(d),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        let oracle: Option<ProbeLossOracle> = if scn_active && scenario.probe_loss_rate > 0.0 {
            let seeds = (0..m)
                .map(|d| {
                    derive_stream_seed(
                        scn_seed,
                        PROBE_LOSS_STREAM_TAG,
                        scenario.dispatcher_global_id(d),
                    )
                })
                .collect();
            Some(ProbeLossOracle::new(seeds, scenario.probe_loss_rate))
        } else {
            None
        };
        let scn_len = |len: usize| if scn_active { len } else { 0 };
        let mut avail = Availability::all_up(scn_len(n));
        let mut dispatcher_up: Vec<bool> = vec![true; scn_len(m)];
        let mut k_effs: Vec<u64> = vec![0; scn_len(m)];
        let mut degradation = DegradationMetrics::default();

        // ---- Checkpoint restore (crates/sim/src/checkpoint.rs) ----
        // Applied after the normal state construction above, so everything a
        // checkpoint does not capture (stream seeds, fault schedules, warm
        // caches) is already in its round-0 form and the restore only
        // overwrites the state that actually advances. The contract: after
        // this block the resumed loop consumes RNG draws and produces
        // decisions bit-identically to the uninterrupted run.
        let start_round = if let Some(ckpt) = resume {
            let digest = config.digest();
            let mismatch = |what: &str| {
                Err(SimError::Checkpoint(format!(
                    "checkpoint does not fit this run: {what}"
                )))
            };
            if ckpt.config_digest != digest {
                return Err(SimError::Checkpoint(format!(
                    "checkpoint was taken under config digest {:#018x}, this run is {digest:#018x}",
                    ckpt.config_digest
                )));
            }
            if ckpt.round == 0 || ckpt.round >= config.rounds {
                return mismatch(&format!(
                    "round {} outside the resumable range 1..{}",
                    ckpt.round, config.rounds
                ));
            }
            if ckpt.num_servers != n || ckpt.num_dispatchers != m {
                return mismatch(&format!(
                    "shape is {} servers x {} dispatchers, this run is {n} x {m}",
                    ckpt.num_servers, ckpt.num_dispatchers
                ));
            }
            if ckpt.queues.len() != n || ckpt.policy_rngs.len() != m || ckpt.policy_state.len() != m
            {
                return mismatch("per-server / per-dispatcher vector widths disagree");
            }
            check_queue_segments(ckpt.round, &ckpt.queues).map_err(SimError::Checkpoint)?;
            for (s, segments) in ckpt.queues.iter().enumerate() {
                for &(arrival_round, count) in segments {
                    queues.push(s, arrival_round, count);
                }
            }
            arrival_rng = StdRng::from_state(ckpt.arrival_rng);
            service_rng = StdRng::from_state(ckpt.service_rng);
            for (rng, &state) in policy_rngs.iter_mut().zip(&ckpt.policy_rngs) {
                *rng = StdRng::from_state(state);
            }
            response_times = ResponseTimeHistogram::from_raw_parts(
                ckpt.response_times.counts.clone(),
                ckpt.response_times.count,
                ckpt.response_times.raw_sum,
            )
            .map_err(SimError::Checkpoint)?;
            let t = &ckpt.tracker;
            if t.num_servers != n {
                return mismatch(&format!("tracker covers {} servers", t.num_servers));
            }
            if config.histogram_metrics != t.per_server_sum.is_empty() {
                return mismatch("metrics mode (full vs. histogram-only) disagrees");
            }
            tracker = QueueLengthTracker::from_raw_parts(
                t.num_servers,
                t.per_server_sum.clone(),
                t.per_server_max.clone(),
                t.idle_rounds.clone(),
                t.occupancy.clone(),
                t.total_sum,
                t.total_max,
                t.rounds,
            )
            .map_err(SimError::Checkpoint)?;
            decision_times = match (&ckpt.decision_times, config.measure_decision_times) {
                (Some(d), true) => Some(
                    DecisionTimeHistogram::from_raw_parts(
                        d.counts.clone(),
                        (d.count, d.sum, d.min, d.max),
                    )
                    .map_err(SimError::Checkpoint)?,
                ),
                (None, false) => None,
                _ => return mismatch("decision-time measurement presence disagrees"),
            };
            jobs_dispatched = ckpt.jobs_dispatched;
            jobs_completed = ckpt.jobs_completed;
            match (&ckpt.scenario, scn_active) {
                (Some(s), true) => {
                    if s.server_up.len() != n || s.dispatcher_up.len() != m || s.k_effs.len() != m {
                        return mismatch("scenario vector widths disagree");
                    }
                    for (server, &up) in s.server_up.iter().enumerate() {
                        if !up {
                            avail.set(server, false);
                        }
                    }
                    avail.refresh();
                    dispatcher_up.copy_from_slice(&s.dispatcher_up);
                    k_effs.copy_from_slice(&s.k_effs);
                    match (ring.as_mut(), &s.ring) {
                        (Some(dst), Some(src)) => {
                            if src.len() != dst.len() || src.iter().any(|row| row.len() != n) {
                                return mismatch("snapshot-ring shape disagrees");
                            }
                            for (dst_row, src_row) in dst.iter_mut().zip(src) {
                                dst_row.copy_from_slice(src_row);
                            }
                        }
                        (None, None) => {}
                        _ => return mismatch("snapshot-ring presence disagrees"),
                    }
                    degradation = s.degradation;
                    match oracle.as_ref() {
                        Some(oracle) => oracle.preload_dropped(s.oracle_dropped),
                        None if s.oracle_dropped != 0 => {
                            return mismatch("probe-loss tally without a probe-loss oracle");
                        }
                        None => {}
                    }
                }
                (None, false) => {}
                _ => return mismatch("scenario-state presence disagrees"),
            }
            for (d, (policy, blob)) in policies.iter_mut().zip(&ckpt.policy_state).enumerate() {
                policy.restore_state(blob).map_err(|msg| {
                    SimError::Checkpoint(format!("policy state of dispatcher {d}: {msg}"))
                })?;
            }
            ckpt.round
        } else {
            0
        };
        let warmup = config.warmup_rounds;

        for round in start_round..config.rounds {
            if let Some(plan) = checkpoints.as_mut() {
                let stopping = plan.stop_at == Some(round);
                let periodic =
                    plan.every > 0 && round % plan.every == 0 && round != 0 && round != start_round;
                if stopping || periodic {
                    let capture = EngineCheckpoint {
                        config_digest: config.digest(),
                        round,
                        num_servers: n,
                        num_dispatchers: m,
                        queues: (0..n).map(|s| queues.segments(s).collect()).collect(),
                        arrival_rng: arrival_rng.state(),
                        service_rng: service_rng.state(),
                        policy_rngs: policy_rngs.iter().map(|rng| rng.state()).collect(),
                        response_times: HistogramState {
                            counts: response_times.bucket_counts().to_vec(),
                            count: response_times.count(),
                            raw_sum: response_times.raw_sum(),
                        },
                        tracker: {
                            let (
                                num_servers,
                                per_server_sum,
                                per_server_max,
                                idle_rounds,
                                occupancy,
                                total_sum,
                                total_max,
                                rounds,
                            ) = tracker.raw_parts();
                            TrackerState {
                                num_servers,
                                per_server_sum,
                                per_server_max,
                                idle_rounds,
                                occupancy,
                                total_sum,
                                total_max,
                                rounds,
                            }
                        },
                        decision_times: decision_times.as_ref().map(|hist| {
                            let (count, sum, min, max) = hist.raw_parts();
                            DecisionState {
                                counts: hist.bucket_counts().to_vec(),
                                count,
                                sum,
                                min,
                                max,
                            }
                        }),
                        jobs_dispatched,
                        jobs_completed,
                        scenario: scn_active.then(|| ScenarioState {
                            server_up: (0..n).map(|s| avail.is_up(s)).collect(),
                            dispatcher_up: dispatcher_up.clone(),
                            k_effs: k_effs.clone(),
                            ring: ring.clone(),
                            degradation,
                            oracle_dropped: oracle.as_ref().map_or(0, |o| o.dropped()),
                        }),
                        policy_state: policies
                            .iter()
                            .map(|policy| {
                                let mut blob = Vec::new();
                                policy.save_state(&mut blob);
                                blob
                            })
                            .collect(),
                    };
                    (plan.sink)(capture)?;
                    if stopping {
                        return Ok(None);
                    }
                }
            }
            let measured_round = round >= warmup;
            if scn_active {
                // Phase 0: faults and information defects. One counter-mode
                // draw per entity per round; the draw itself is
                // state-independent (only its *interpretation* depends on
                // the current up/down state), so the schedule is a pure
                // function of `(scenario seed, global id, round)`.
                avail.begin_round();
                if server_faults {
                    for (s, &fault_seed) in server_fault_seeds.iter().enumerate() {
                        let u = unit_f64(counter_draw(fault_seed, round));
                        if avail.is_up(s) {
                            if u < scenario.server_fail_rate {
                                avail.set(s, false);
                            }
                        } else if u < scenario.server_repair_rate {
                            avail.set(s, true);
                        }
                    }
                }
                avail.refresh();
                degradation.server_down_rounds += (n - avail.num_up()) as u64;
                if dispatcher_faults {
                    for d in 0..m {
                        let u = unit_f64(counter_draw(dispatcher_fault_seeds[d], round));
                        if dispatcher_up[d] {
                            if u < scenario.dispatcher_fail_rate {
                                dispatcher_up[d] = false;
                            }
                        } else if u < scenario.dispatcher_repair_rate {
                            dispatcher_up[d] = true;
                        }
                    }
                }
                degradation.dispatcher_offline_rounds +=
                    dispatcher_up.iter().filter(|&&up| !up).count() as u64;
                // Each dispatcher's view age for this round, clamped to the
                // history that exists.
                for d in 0..m {
                    let k = match scenario.staleness {
                        StalenessSpec::Fresh => 0,
                        StalenessSpec::Fixed { k } => k,
                        StalenessSpec::UniformPerRound { max_k } => {
                            if max_k == 0 {
                                0
                            } else {
                                counter_draw(stale_seeds[d], round) % (max_k + 1)
                            }
                        }
                    };
                    let k_eff = k.min(round);
                    k_effs[d] = k_eff;
                    if k_eff > 0 && dispatcher_up[d] {
                        degradation.stale_decision_rounds += 1;
                    }
                }
            }
            // The queue-length snapshot every dispatcher observes this round.
            for (slot, len) in snapshot.iter_mut().zip(queues.lens()) {
                *slot = len;
            }
            if measured_round {
                tracker.observe(&snapshot);
            }
            if let Some(ring) = ring.as_mut() {
                ring[(round as usize) % ring_depth].copy_from_slice(&snapshot);
            }
            // Fair-weather fast path: one context (and one shared cache
            // refresh) serves every dispatcher. Under an active scenario
            // each dispatcher builds its own context (stale views differ
            // per dispatcher, and a shared solver table would be computed
            // against a view some dispatchers do not see); the cache is a
            // pure accelerator, so skipping it is decision-invisible.
            // The cache is refreshed whenever a policy wants it — also under
            // an active scenario, where it describes this round's *fresh*
            // snapshot and is attached only to fresh-view dispatchers
            // (`ScenarioRound::ctx`).
            let cache_ready = cache_demand > CacheDemand::None;
            if cache_ready {
                round_cache.begin_round_for(&snapshot, rates, cache_demand);
            }
            let shared_ctx: Option<DispatchContext<'_>> = if scn_active {
                None
            } else if cache_ready {
                Some(DispatchContext::with_cache(
                    &snapshot,
                    rates,
                    m,
                    round,
                    &round_cache,
                ))
            } else {
                Some(DispatchContext::new(&snapshot, rates, m, round))
            };
            let scn_round: Option<ScenarioRound<'_>> = if scn_active {
                Some(ScenarioRound {
                    rates,
                    snapshot: &snapshot,
                    ring: ring.as_deref(),
                    k_effs: &k_effs,
                    cache: if cache_ready {
                        Some(&round_cache)
                    } else {
                        None
                    },
                    avail: &avail,
                    oracle: oracle.as_ref(),
                    m,
                    round,
                })
            } else {
                None
            };
            let ctx_for = |d: usize| match shared_ctx {
                Some(ctx) => ctx,
                None => scn_round
                    .as_ref()
                    .expect("a scenario round exists whenever there is no shared context")
                    .ctx(d),
            };

            // Phase 1: arrivals. Arrivals are always *sampled* (the stream
            // must not depend on the scenario), then jobs arriving at an
            // offline dispatcher — or while no server is up — are lost.
            arrivals.clear();
            match wl_sampler.as_mut() {
                Some(sampler) => {
                    let g = sampler.begin_round(round);
                    sampler.sample_into(round, g, &mut arrivals);
                }
                None => {
                    arrivals.extend(arrival_processes.iter().map(|p| p.sample(&mut arrival_rng)));
                }
            }
            if let Some(trace) = trace.as_deref_mut() {
                // Raw sampled counts, recorded *before* scenario zeroing:
                // replaying the trace under the same scenario re-applies
                // the identical losses.
                for (d, &count) in arrivals.iter().enumerate() {
                    trace.record_sampled_arrival(round, d, count);
                }
            }
            if scn_active {
                let no_server_up = avail.num_up() == 0;
                for d in 0..m {
                    if (!dispatcher_up[d] || no_server_up) && arrivals[d] > 0 {
                        degradation.arrivals_lost =
                            degradation.arrivals_lost.saturating_add(arrivals[d]);
                        arrivals[d] = 0;
                    }
                }
            }
            if let Some(trace) = trace.as_deref_mut() {
                for (d, &count) in arrivals.iter().enumerate() {
                    trace.record_arrival(round, d as u32, count);
                }
            }

            // Phase 2: dispatching. All dispatchers see the same snapshot and
            // act independently (so the iteration order is free — see
            // `dispatch_order` above). Under an active scenario the views may
            // differ per dispatcher; offline dispatchers still observe (their
            // failure silences their arrivals, not their bookkeeping).
            for d in 0..m {
                let ctx = ctx_for(d);
                policies[d].observe_round(&ctx, &mut policy_rngs[d]);
            }
            dispatch_order.sort_unstable_by_key(|&d| (arrivals[d as usize], d));
            for &d in &dispatch_order {
                let d = d as usize;
                let batch = arrivals[d] as usize;
                if batch == 0 {
                    continue;
                }
                assignment.clear();
                let ctx = ctx_for(d);
                match decision_times.as_mut() {
                    // Warm-up decisions are never recorded, so they skip the
                    // two `Instant::now()` reads as well — warm-up rounds
                    // run at full (unmeasured) speed.
                    Some(samples) if measured_round => {
                        let start = Instant::now();
                        policies[d].dispatch_into(
                            &ctx,
                            batch,
                            &mut assignment,
                            &mut policy_rngs[d],
                        );
                        samples.record(start.elapsed().as_secs_f64() * 1e6);
                    }
                    _ => {
                        policies[d].dispatch_into(
                            &ctx,
                            batch,
                            &mut assignment,
                            &mut policy_rngs[d],
                        );
                    }
                }
                // Fused validate + count: a policy violation aborts the
                // whole run (the partial counts are discarded with it),
                // so validation and counting share one pass, with the
                // same error semantics as `validate_assignment` (arity
                // first, then the first out-of-range or down destination
                // in order). Each same-server run adds to `pending` once
                // and yields one trace event. The queues themselves are
                // untouched until departures fold the counts in: same-
                // round pushes merge into one RLE segment anyway, so the
                // queue state is identical to pushing here, but the
                // scattered writes land in one dense vector instead of
                // n queue tails. On perfbench's n = 10^5 `meanfield`
                // workload this cut the engine's own time per round from
                // 35–46 ms to 16–19 ms on a 2-core box, doubling rounds/s.
                let violation = |source| SimError::PolicyViolation {
                    policy: factory.name().to_string(),
                    dispatcher: d,
                    source,
                };
                if assignment.len() != batch {
                    return Err(violation(ModelError::AssignmentArity {
                        got: assignment.len(),
                        expected: batch,
                    }));
                }
                let mut i = 0;
                while i < assignment.len() {
                    let server = assignment[i];
                    if server.index() >= n {
                        return Err(violation(ModelError::UnknownServer {
                            server: server.index(),
                            num_servers: n,
                        }));
                    }
                    if scn_active && !avail.is_up(server.index()) {
                        return Err(violation(ModelError::ServerDown {
                            server: server.index(),
                        }));
                    }
                    let mut count = 1u64;
                    while i + (count as usize) < assignment.len()
                        && assignment[i + count as usize] == server
                    {
                        count += 1;
                    }
                    pending[server.index()] += count;
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.record_dispatch(round, d as u32, server.index() as u32, count);
                    }
                    i += count as usize;
                }
                if measured_round {
                    jobs_dispatched += batch as u64;
                }
            }

            // Phase 3: departures. Each server takes its share of the round's
            // arrivals out of `pending` (leaving it zero for the next round)
            // and draws its capacity; `serve` then drains the stored
            // segments, serves the new arrivals directly and stores only
            // what is left — the completions, and their order, of pushing
            // the arrivals first and popping after. Capacities are drawn
            // for every server every round (even idle ones) so the service
            // stream does not depend on either the policy under test or the
            // scenario; a down server's draw is then discarded — its queue
            // freezes until repair (it received no jobs: dispatching to it
            // is a policy violation), so it keeps the push-only path. Whole
            // segments complete at once, so this phase costs
            // O(servers + segments touched), not O(jobs).
            let mut arrived_total = 0u64;
            let mut arrived_peak = 0u64;
            for s in 0..n {
                let arrived = std::mem::take(&mut pending[s]);
                arrived_total += arrived;
                arrived_peak = arrived_peak.max(arrived);
                let capacity = service_processes[s].sample(&mut service_rng);
                if scn_active && !avail.is_up(s) {
                    queues.push(s, round, arrived);
                    continue;
                }
                queues.serve(s, round, arrived, capacity, |arrival_round, count| {
                    if arrival_round >= warmup {
                        response_times.record_many(round - arrival_round + 1, count);
                        jobs_completed += count;
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.record_service(round, s as u32, arrival_round, count);
                    }
                });
            }
            // Herding indicator: a round where one server received a strict
            // majority of the (at least two) dispatched jobs — the signature
            // failure mode of stale uncoordinated views.
            if scn_active && arrived_total >= 2 && 2 * arrived_peak > arrived_total {
                degradation.herding_rounds += 1;
            }
        }

        let jobs_in_flight = jobs_dispatched.saturating_sub(jobs_completed);
        // Computed from the occupancy histogram's exact integer zero-bucket
        // in both metric modes (identical to the across-server average of
        // the per-server idle fractions, with one rounding instead of n).
        let mean_idle_fraction = tracker.mean_idle_fraction();

        Ok(Some(SimReport {
            policy: factory.name().to_string(),
            rounds: config.rounds,
            warmup_rounds: warmup,
            offered_load: config.offered_load(),
            jobs_dispatched,
            jobs_completed,
            jobs_in_flight,
            response_times,
            queues: QueueSummary {
                mean_total_backlog: tracker.mean_total_backlog(),
                max_total_backlog: tracker.max_total_backlog(),
                worst_mean_queue: tracker.worst_mean_queue(),
                mean_idle_fraction,
            },
            queue_occupancy: tracker.into_occupancy(),
            decision_times_us: decision_times,
            degradation: scn_active.then(|| {
                let mut metrics = degradation;
                metrics.probes_dropped = oracle.as_ref().map_or(0, |o| o.dropped());
                metrics
            }),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use crate::services::ServiceModel;
    use scd_model::{BoxedPolicy, ClusterSpec, DispatchPolicy, ServerId};

    /// A policy that always targets server 0 — turns the engine into an
    /// easily checkable deterministic queueing system.
    struct AllToFirst;

    impl DispatchPolicy for AllToFirst {
        fn policy_name(&self) -> &str {
            "all-to-first"
        }
        fn dispatch_batch(
            &mut self,
            _ctx: &DispatchContext<'_>,
            batch: usize,
            _rng: &mut dyn rand::RngCore,
        ) -> Vec<ServerId> {
            vec![ServerId::new(0); batch]
        }
    }

    /// A policy that returns garbage, to exercise the validation path.
    struct Broken;

    impl DispatchPolicy for Broken {
        fn policy_name(&self) -> &str {
            "broken"
        }
        fn dispatch_batch(
            &mut self,
            _ctx: &DispatchContext<'_>,
            _batch: usize,
            _rng: &mut dyn rand::RngCore,
        ) -> Vec<ServerId> {
            vec![ServerId::new(999)]
        }
    }

    fn factory_of<P: DispatchPolicy + Default + 'static>(name: &'static str) -> impl PolicyFactory {
        struct F<P> {
            name: &'static str,
            _marker: std::marker::PhantomData<fn() -> P>,
        }
        impl<P: DispatchPolicy + Default + 'static> PolicyFactory for F<P> {
            fn name(&self) -> &str {
                self.name
            }
            fn build(&self, _d: DispatcherId, _s: &ClusterSpec) -> BoxedPolicy {
                Box::new(P::default())
            }
        }
        F::<P> {
            name,
            _marker: std::marker::PhantomData,
        }
    }

    impl Default for AllToFirst {
        fn default() -> Self {
            AllToFirst
        }
    }
    impl Default for Broken {
        fn default() -> Self {
            Broken
        }
    }

    fn deterministic_config() -> SimConfig {
        SimConfig {
            spec: ClusterSpec::from_rates(vec![2.0, 1.0]).unwrap(),
            num_dispatchers: 1,
            rounds: 10,
            warmup_rounds: 0,
            seed: 1,
            arrivals: ArrivalSpec::Deterministic { jobs_per_round: 2 },
            services: ServiceModel::Deterministic,
            measure_decision_times: false,
            histogram_metrics: false,
            scenario: crate::scenario::ScenarioSpec::default(),
            workload: crate::workload::WorkloadSpec::default(),
        }
    }

    #[test]
    fn deterministic_single_server_pipeline() {
        // 2 jobs arrive each round, all go to server 0 which serves exactly 2
        // per round → every job finishes in the round it arrived (RT = 1).
        let sim = Simulation::new(deterministic_config()).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        assert_eq!(report.policy, "all-to-first");
        assert_eq!(report.jobs_dispatched, 20);
        assert_eq!(report.jobs_completed, 20);
        assert_eq!(report.jobs_in_flight, 0);
        assert_eq!(report.response_times.max(), 1);
        assert!((report.mean_response_time() - 1.0).abs() < 1e-12);
        assert_eq!(
            report.queues.max_total_backlog, 0.0,
            "queues observed at round start"
        );
    }

    #[test]
    fn overload_builds_a_backlog() {
        // 3 jobs/round onto a server that serves 2/round → 1 job/round backlog.
        let mut config = deterministic_config();
        config.arrivals = ArrivalSpec::Deterministic { jobs_per_round: 3 };
        config.rounds = 20;
        let sim = Simulation::new(config).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        assert_eq!(report.jobs_dispatched, 60);
        assert!(report.jobs_in_flight >= 18, "backlog should accumulate");
        // Queue at the start of round t is t (one unserved job per past round).
        assert_eq!(report.queues.max_total_backlog, 19.0);
    }

    #[test]
    fn warmup_rounds_are_excluded_from_statistics() {
        let mut config = deterministic_config();
        config.rounds = 10;
        config.warmup_rounds = 5;
        let sim = Simulation::new(config).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        // Only rounds 5..10 are measured: 2 jobs per round.
        assert_eq!(report.jobs_dispatched, 10);
        assert_eq!(report.response_times.count(), 10);
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(3)
            .rounds(300)
            .seed(42)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
            .build()
            .unwrap();
        let sim = Simulation::new(config).unwrap();
        let a = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let b = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        assert_eq!(a.jobs_dispatched, b.jobs_dispatched);
        assert_eq!(a.response_times, b.response_times);
    }

    #[test]
    fn arrival_stream_is_policy_independent() {
        // Two different policies under the same seed must see the same total
        // number of dispatched jobs (the arrival stream does not depend on
        // dispatching decisions).
        use scd_core::policy::ScdFactory;
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(2)
            .rounds(200)
            .seed(11)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.7 })
            .build()
            .unwrap();
        let sim = Simulation::new(config).unwrap();
        let a = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let b = sim.run(&ScdFactory::new()).unwrap();
        assert_eq!(a.jobs_dispatched, b.jobs_dispatched);
    }

    #[test]
    fn histogram_metrics_mode_matches_full_mode_except_worst_mean_queue() {
        // Histogram-only mode drops per-server state; every report field
        // except worst_mean_queue (which degrades to the across-server mean)
        // must be bit-identical to the full-tracking run.
        use scd_core::policy::ScdFactory;
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0, 2.0]).unwrap();
        let build = |histogram: bool| {
            SimConfig::builder(spec.clone())
                .dispatchers(2)
                .rounds(200)
                .warmup_rounds(20)
                .seed(7)
                .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
                .histogram_metrics(histogram)
                .build()
                .unwrap()
        };
        let full = Simulation::new(build(false))
            .unwrap()
            .run(&ScdFactory::new())
            .unwrap();
        let histo = Simulation::new(build(true))
            .unwrap()
            .run(&ScdFactory::new())
            .unwrap();
        assert_eq!(full.jobs_dispatched, histo.jobs_dispatched);
        assert_eq!(full.response_times, histo.response_times);
        assert_eq!(full.queue_occupancy, histo.queue_occupancy);
        assert!(!full.queue_occupancy.is_empty());
        assert_eq!(
            full.queues.mean_total_backlog,
            histo.queues.mean_total_backlog
        );
        assert_eq!(
            full.queues.max_total_backlog,
            histo.queues.max_total_backlog
        );
        assert_eq!(
            full.queues.mean_idle_fraction,
            histo.queues.mean_idle_fraction
        );
        // Degraded statistic: total backlog averaged over servers.
        assert!(
            (histo.queues.worst_mean_queue - histo.queues.mean_total_backlog / 4.0).abs() < 1e-12
        );
        assert!(full.queues.worst_mean_queue >= histo.queues.worst_mean_queue);
        // The occupancy histogram carries the full measured mass:
        // (rounds - warmup) * num_servers observations.
        let mass: u64 = full.queue_occupancy.iter().sum();
        assert_eq!(mass, 180 * 4);
        // And its normalization is a probability distribution.
        let dist = full.queue_length_distribution();
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn policy_violations_are_reported_not_panicked() {
        let sim = Simulation::new(deterministic_config()).unwrap();
        let err = sim.run(&factory_of::<Broken>("broken")).unwrap_err();
        match &err {
            SimError::PolicyViolation {
                policy, dispatcher, ..
            } => {
                assert_eq!(policy, "broken");
                assert_eq!(*dispatcher, 0);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("broken"));
        assert!(err.source().is_some());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = deterministic_config();
        config.num_dispatchers = 0;
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));

        let mut config = deterministic_config();
        config.rounds = 0;
        assert!(Simulation::new(config).is_err());

        let mut config = deterministic_config();
        config.warmup_rounds = config.rounds;
        assert!(Simulation::new(config).is_err());

        // Arrival-spec defects surface as InvalidConfig, not panics.
        let mut config = deterministic_config();
        config.arrivals = ArrivalSpec::PoissonRates {
            rates: vec![1.0, 2.0],
        };
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));
        let mut config = deterministic_config();
        config.arrivals = ArrivalSpec::PoissonOfferedLoad {
            offered_load: f64::NAN,
        };
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));

        // Workload defects too.
        let mut config = deterministic_config();
        config.workload.modulation = crate::workload::ModulationSpec::Diurnal {
            period: 100,
            amplitude: 0.5,
        };
        // Deterministic arrivals cannot be modulated.
        assert!(matches!(
            Simulation::new(config),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn traced_run_matches_untraced_and_replays() {
        let spec = ClusterSpec::from_rates(vec![3.0, 1.0, 2.0]).unwrap();
        let config = SimConfig::builder(spec)
            .dispatchers(2)
            .rounds(200)
            .seed(17)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.8 })
            .build()
            .unwrap();
        let sim = Simulation::new(config.clone()).unwrap();
        let plain = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let (traced, trace) = sim
            .run_traced(&factory_of::<AllToFirst>("all-to-first"))
            .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert_eq!(trace.rounds, 200);
        assert!(!trace.events.is_empty());

        // Replaying the recorded arrivals reproduces the report bit-exactly.
        let mut replay_config = config;
        replay_config.workload.replay = Some(trace.arrivals.clone());
        let replay_sim = Simulation::new(replay_config).unwrap();
        let replayed = replay_sim
            .run(&factory_of::<AllToFirst>("all-to-first"))
            .unwrap();
        assert_eq!(plain, replayed);
    }

    /// The deferred arrival fold relies on each round's arrivals at a
    /// server forming exactly one queue segment. On a 2000-server bimodal
    /// cluster, for SCD, WR and SCD under crashes plus stale views, every
    /// captured queue holds strictly increasing arrival rounds (at most one
    /// segment per round), survives the checkpoint codec's segment check,
    /// and resumes into the uninterrupted report.
    #[test]
    fn captured_queues_hold_one_segment_per_arrival_round() {
        use crate::scenario::ScenarioSpec;
        use scd_core::policy::ScdFactory;
        use scd_policies::WeightedRandomFactory;

        let rates: Vec<f64> = (0..2000)
            .map(|s| if s % 2 == 0 { 1.0 } else { 4.0 })
            .collect();
        let fair = SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
            .dispatchers(10)
            .rounds(48)
            .warmup_rounds(8)
            .seed(2024)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
            .build()
            .unwrap();
        let mut degraded = fair.clone();
        degraded.scenario = ScenarioSpec {
            server_fail_rate: 0.05,
            server_repair_rate: 0.2,
            staleness: StalenessSpec::UniformPerRound { max_k: 2 },
            ..ScenarioSpec::default()
        };
        let scd = ScdFactory::new();
        let wr = WeightedRandomFactory::new();
        let cases: [(&SimConfig, &dyn PolicyFactory); 3] =
            [(&fair, &scd), (&fair, &wr), (&degraded, &scd)];
        for (config, factory) in cases {
            let name = factory.name();
            let sim = Simulation::new(config.clone()).unwrap();
            let straight = sim.run(factory).unwrap();
            let mut captured = Vec::new();
            let checkpointed = sim
                .run_with_checkpoints(factory, 12, None, &mut |ckpt| {
                    captured.push(ckpt);
                    Ok(())
                })
                .unwrap();
            assert_eq!(
                checkpointed, straight,
                "{name}: checkpointing perturbed the run"
            );
            assert_eq!(
                captured.len(),
                3,
                "{name}: checkpoints at rounds 12, 24, 36"
            );
            let mut deepest = 0;
            for ckpt in &captured {
                for (server, segments) in ckpt.queues.iter().enumerate() {
                    assert!(
                        segments.windows(2).all(|pair| pair[0].0 < pair[1].0),
                        "{name}: queue {server} at round {} holds {segments:?}",
                        ckpt.round
                    );
                    deepest = deepest.max(segments.len());
                }
                let decoded = EngineCheckpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap();
                assert_eq!(&decoded, ckpt);
                let resumed = sim.resume_from(factory, &decoded).unwrap();
                assert_eq!(
                    resumed, straight,
                    "{name}: resume at {} diverged",
                    ckpt.round
                );
            }
            assert!(deepest >= 2, "{name}: no queue ever spanned two rounds");
        }
    }

    /// Overload grows queues across many arena chunks; checkpoints of
    /// those queues round-trip through the codec and resume into the
    /// uninterrupted report.
    #[test]
    fn multi_chunk_queues_checkpoint_and_resume_exactly() {
        use crate::queues::CHUNK_SEGMENTS;
        use scd_policies::WeightedRandomFactory;

        let rates: Vec<f64> = (0..64).map(|s| 1.0 + (s % 4) as f64).collect();
        let config = SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
            .dispatchers(4)
            .rounds(60)
            .warmup_rounds(0)
            .seed(77)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 1.5 })
            .build()
            .unwrap();
        let factory = WeightedRandomFactory::new();
        let sim = Simulation::new(config).unwrap();
        let straight = sim.run(&factory).unwrap();
        let mut captured = Vec::new();
        sim.run_with_checkpoints(&factory, 15, None, &mut |ckpt| {
            captured.push(ckpt);
            Ok(())
        })
        .unwrap();
        let last = captured.last().expect("checkpoints at rounds 15, 30, 45");
        let deepest = last.queues.iter().map(Vec::len).max().unwrap();
        assert!(
            deepest > 2 * CHUNK_SEGMENTS,
            "deepest queue spans only {deepest} segments"
        );
        for ckpt in &captured {
            let decoded = EngineCheckpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap();
            assert_eq!(sim.resume_from(&factory, &decoded).unwrap(), straight);
        }
    }

    #[test]
    fn decision_times_are_collected_when_requested() {
        let mut config = deterministic_config();
        config.measure_decision_times = true;
        config.rounds = 50;
        let sim = Simulation::new(config).unwrap();
        let report = sim.run(&factory_of::<AllToFirst>("all-to-first")).unwrap();
        let samples = report.decision_times_us.expect("decision times requested");
        assert_eq!(
            samples.len(),
            50,
            "one timed decision per round (batch > 0)"
        );
        assert!(samples.min() >= 0.0);
        assert!(samples.max() >= samples.min());
    }
}
