//! Per-layer measurement from outside the engine.
//!
//! The round loop's one public seam is the policy factory, so the traced
//! run wraps the real factory in [`TracedFactory`]: every policy object it
//! builds forwards each call to the real policy, timing `dispatch_into` and
//! `observe_round`, and keeps a bounded sample of the queue snapshots its
//! dispatcher saw. The decorator reads only side-effect-free accessors
//! (`queue_lengths`, `rates`, `solver_memo_stats`), so a traced run must
//! produce the untraced report bit for bit; the harness checks that.
//!
//! After the run, [`replay`] times the `core`, `model` and `metrics`
//! public functions on the captured snapshots.

use scd_core::iwl::compute_iwl;
use scd_core::solver::{solve, SolverKind};
use scd_core::{ArrivalEstimator, TournamentTree};
use scd_metrics::QueueLengthTracker;
use scd_model::{
    AliasSampler, BoxedPolicy, CacheDemand, ClassPartition, ClusterSpec, DispatchContext,
    DispatchPolicy, DispatcherId, PolicyFactory, RoundCache, ServerId,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bound on the queue-length entries one traced run copies.
const CAPTURE_ENTRIES: usize = 2_000_000;

/// Upper bound on the snapshots one dispatcher-0 policy object captures.
const CAPTURE_SNAPSHOTS: usize = 32;

/// One queue snapshot a dispatcher decided on, with its batch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The queue lengths the policy saw.
    pub queues: Vec<u64>,
    /// The dispatcher's batch size that round.
    pub batch: u64,
    /// The dispatcher count of the context (for the arrival estimate).
    pub dispatchers: usize,
}

/// What the decorator recorded for one policy object (one dispatcher of
/// one engine).
#[derive(Debug, Clone, Default)]
pub struct PolicyTrace {
    /// Nanoseconds inside `dispatch_into`/`dispatch_batch`.
    pub dispatch_ns: u64,
    /// Dispatch calls.
    pub dispatch_calls: u64,
    /// Jobs dispatched over the whole run.
    pub jobs: u64,
    /// Jobs dispatched in measured (post-warm-up) rounds.
    pub measured_jobs: u64,
    /// Nanoseconds inside `observe_round`.
    pub observe_ns: u64,
    /// Solver-memo hits that occurred during this object's dispatch calls.
    pub memo_hits: u64,
    /// The cluster rates, copied with the first snapshot.
    pub rates: Vec<f64>,
    /// Sampled snapshots (dispatcher 0 only).
    pub snapshots: Vec<Snapshot>,
}

/// A forwarding decorator over a real policy factory.
pub struct TracedFactory<'a> {
    inner: &'a dyn PolicyFactory,
    warmup: u64,
    stride: u64,
    capture: usize,
    sink: Arc<Mutex<Vec<PolicyTrace>>>,
}

impl<'a> TracedFactory<'a> {
    /// Wraps `inner` for a run of `rounds` rounds (`warmup` unmeasured) on
    /// `n` servers; with `capture` set, dispatcher 0 samples snapshots.
    pub fn new(
        inner: &'a dyn PolicyFactory,
        warmup: u64,
        rounds: u64,
        n: usize,
        capture: bool,
    ) -> Self {
        let capture = if capture {
            (CAPTURE_ENTRIES / n.max(1)).clamp(2, CAPTURE_SNAPSHOTS)
        } else {
            0
        };
        TracedFactory {
            inner,
            warmup,
            stride: (rounds / CAPTURE_SNAPSHOTS as u64).max(1),
            capture,
            sink: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The traces of every policy object the run built and dropped.
    pub fn finish(self) -> Vec<PolicyTrace> {
        std::mem::take(&mut *self.sink.lock().expect("trace sink poisoned"))
    }
}

impl PolicyFactory for TracedFactory<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self, dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(TracedPolicy {
            inner: self.inner.build(dispatcher, spec),
            warmup: self.warmup,
            stride: self.stride,
            capture: if dispatcher.index() == 0 {
                self.capture
            } else {
                0
            },
            trace: PolicyTrace::default(),
            sink: Arc::clone(&self.sink),
        })
    }
}

struct TracedPolicy {
    inner: BoxedPolicy,
    warmup: u64,
    stride: u64,
    capture: usize,
    trace: PolicyTrace,
    sink: Arc<Mutex<Vec<PolicyTrace>>>,
}

impl TracedPolicy {
    fn record_dispatch(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        ns: u64,
        memo_before: u64,
    ) {
        let t = &mut self.trace;
        t.dispatch_ns += ns;
        t.dispatch_calls += 1;
        t.jobs += batch as u64;
        if ctx.round() >= self.warmup {
            t.measured_jobs += batch as u64;
        }
        t.memo_hits += memo_hits(ctx).saturating_sub(memo_before);
        if t.snapshots.len() < self.capture && ctx.round() % self.stride == 0 {
            if t.rates.is_empty() {
                t.rates = ctx.rates().to_vec();
            }
            t.snapshots.push(Snapshot {
                queues: ctx.queue_lengths().to_vec(),
                batch: batch as u64,
                dispatchers: ctx.num_dispatchers(),
            });
        }
    }
}

fn memo_hits(ctx: &DispatchContext<'_>) -> u64 {
    ctx.cache().map_or(0, |cache| cache.solver_memo_stats().0)
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl DispatchPolicy for TracedPolicy {
    fn policy_name(&self) -> &str {
        self.inner.policy_name()
    }

    fn observe_round(&mut self, ctx: &DispatchContext<'_>, rng: &mut dyn rand::RngCore) {
        let start = Instant::now();
        self.inner.observe_round(ctx, rng);
        self.trace.observe_ns += elapsed_ns(start);
    }

    fn round_cache_demand(&self) -> CacheDemand {
        self.inner.round_cache_demand()
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<ServerId> {
        let memo_before = memo_hits(ctx);
        let start = Instant::now();
        let out = self.inner.dispatch_batch(ctx, batch, rng);
        let ns = elapsed_ns(start);
        self.record_dispatch(ctx, batch, ns, memo_before);
        out
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn rand::RngCore,
    ) {
        let memo_before = memo_hits(ctx);
        let start = Instant::now();
        self.inner.dispatch_into(ctx, batch, out, rng);
        let ns = elapsed_ns(start);
        self.record_dispatch(ctx, batch, ns, memo_before);
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.trace));
        }
    }
}

/// Median nanoseconds per call of `op` over the `inputs`, each timed in a
/// batch long enough (about 50 µs) to swamp the clock's own cost.
pub fn time_per_call<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    let mut samples = Vec::with_capacity(inputs.len());
    for input in inputs {
        let start = Instant::now();
        op(input);
        let once = start.elapsed().as_nanos().max(1) as f64;
        let reps = (50_000.0 / once).clamp(1.0, 1_000.0) as u32;
        let start = Instant::now();
        for _ in 0..reps {
            op(input);
        }
        samples.push(start.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    crate::output::median(&mut samples)
}

/// Replays the `core`, `model` and `metrics` layer functions on `snapshots`
/// of a cluster with `rates` and returns their per-call costs by metric
/// name. `histogram_only` selects the metrics mode the run used.
///
/// # Errors
/// Reports a solver or sampler rejection of a captured snapshot.
pub fn replay(
    snapshots: &[Snapshot],
    rates: &[f64],
    histogram_only: bool,
) -> Result<Vec<(&'static str, f64)>, String> {
    if snapshots.is_empty() {
        return Err("the traced run captured no snapshots".to_string());
    }
    let n = rates.len();
    let estimate =
        |s: &Snapshot| ArrivalEstimator::ScaledByDispatchers.estimate(s.batch, s.dispatchers);
    let solutions = snapshots
        .iter()
        .map(|s| {
            solve(&s.queues, rates, estimate(s), SolverKind::Fast)
                .map(|sol| sol.probabilities)
                .map_err(|e| format!("replayed solve failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let iwl_ns = time_per_call(snapshots, |s| {
        black_box(compute_iwl(&s.queues, rates, estimate(s)));
    });
    let solve_ns = time_per_call(snapshots, |s| {
        black_box(solve(&s.queues, rates, estimate(s), SolverKind::Fast).ok());
    });
    let mut tree = TournamentTree::new();
    let index_rebuild_ns = time_per_call(snapshots, |s| {
        tree.rebuild(n, |i| (s.queues[i] as f64 + 1.0) / rates[i], |i| i as u64);
        black_box(tree.argmin());
    });
    let mut partition = ClassPartition::new();
    let mut classes = Vec::with_capacity(snapshots.len());
    for s in snapshots {
        let viable = partition.build(&s.queues, rates);
        classes.push(if viable {
            partition.num_classes() as f64
        } else {
            0.0
        });
    }
    let class_build_ns = time_per_call(snapshots, |s| {
        black_box(partition.build(&s.queues, rates));
    });
    let mut cache = RoundCache::new();
    let cache_refresh_ns = time_per_call(snapshots, |s| {
        cache.begin_round(&s.queues, rates);
        black_box(cache.scd_keys().len());
    });
    let mut sampler =
        AliasSampler::new(&solutions[0]).map_err(|e| format!("alias build failed: {e}"))?;
    let alias_build_ns = time_per_call(&solutions, |p| {
        black_box(sampler.rebuild(p).is_ok());
    });
    let mut tracker = if histogram_only {
        QueueLengthTracker::histogram_only(n)
    } else {
        QueueLengthTracker::new(n)
    };
    let tracker_observe_ns = time_per_call(snapshots, |s| {
        tracker.observe(&s.queues);
    });
    black_box(tracker.rounds());
    Ok(vec![
        ("core.solver.solve_ns", solve_ns),
        ("core.iwl.ns", iwl_ns),
        ("core.index.rebuild_ns", index_rebuild_ns),
        ("model.class_partition.build_ns", class_build_ns),
        (
            "model.class_partition.classes",
            crate::output::median(&mut classes),
        ),
        ("model.round_cache.refresh_ns", cache_refresh_ns),
        ("model.alias.build_ns", alias_build_ns),
        ("metrics.tracker.observe_ns", tracker_observe_ns),
    ])
}
