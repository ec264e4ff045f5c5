//! Round-based multi-dispatcher / multi-server queueing simulator.
//!
//! This crate is the substrate on which the paper's evaluation (Section 6)
//! runs. It implements the system model of Section 2 exactly:
//!
//! * the system operates in discrete, synchronous rounds;
//! * each round has three phases — **arrivals** (each dispatcher receives a
//!   stochastic batch of jobs), **dispatching** (each dispatcher immediately
//!   and independently forwards every job to a server, all dispatchers seeing
//!   the same queue-length snapshot), and **departures** (each server
//!   completes a stochastic number of jobs from the front of its FIFO queue);
//! * arrivals are Poisson per dispatcher, service capacities are Geometric
//!   with mean `µ_s` (Section 6.1), but deterministic processes are also
//!   provided for tests.
//!
//! Reproducibility is central: for a fixed seed the arrival and departure
//! processes are *identical across policies*, because they are drawn from
//! dedicated RNG streams whose consumption does not depend on dispatching
//! decisions. This mirrors the paper's "same random seed across all
//! algorithms" methodology.
//!
//! Performance notes (see `ARCHITECTURE.md` for the full picture): the round
//! loop is allocation-free in steady state; derived per-round tables that
//! are identical across dispatchers (reciprocal rates, loads, solver keys)
//! are computed **once** per round into a shared
//! [`scd_model::RoundCache`] and handed to every policy through the context;
//! and the [`runner::fan_out`] primitive — scoped threads work-stealing
//! over an atomic index — is the single parallelism primitive every higher
//! layer (comparisons, replications, experiment sweep grids) builds on, all
//! of them bit-identical to sequential runs.
//!
//! For the next order of magnitude, the [`shard`] module partitions the
//! servers into `k` independent shards — each with its own queues, RNG
//! sub-streams and policy instances — steps them concurrently through the
//! same `fan_out`, and merges their serializable [`ShardReport`]s into one
//! [`SimReport`] (bit-identical to [`Simulation::run`] for `k = 1`).
//!
//! # Example
//!
//! ```
//! use scd_sim::{ArrivalSpec, ServiceModel, SimConfig, Simulation};
//! use scd_model::{ClusterSpec, PolicyFactory};
//! use scd_core::policy::ScdFactory;
//!
//! let spec = ClusterSpec::from_rates(vec![4.0, 2.0, 1.0, 1.0]).unwrap();
//! let config = SimConfig::builder(spec)
//!     .dispatchers(2)
//!     .rounds(200)
//!     .warmup_rounds(50)
//!     .seed(7)
//!     .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
//!     .build()
//!     .unwrap();
//! let report = Simulation::new(config).unwrap().run(&ScdFactory::new()).unwrap();
//! assert!(report.response_times.count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod fabric;
pub mod queues;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod services;
pub mod shard;
pub mod trace;
pub mod workload;

pub use arrivals::ArrivalSpec;
pub use checkpoint::EngineCheckpoint;
pub use config::{SimConfig, SimConfigBuilder};
pub use engine::{SimError, Simulation};
pub use fabric::{
    decode_frame, decode_shard_report, encode_checkpoint_frame, encode_final_frame,
    encode_progress_frame, peek_frame_len, CheckpointFrame, CodecError, FabricOutcome, FabricSpec,
    Frame, FrameKind, InjectedFault, ProgressFrame, WorkerFailure, WorkerFaultPlan,
    EXIT_CONFIG_REJECTED, EXIT_RESUME_REJECTED,
};
pub use queues::QueueArena;
pub use report::{DegradationMetrics, QueueSummary, SimReport};
pub use runner::{
    fan_out, run_comparison, run_comparison_parallel, run_replications, ComparisonResult,
};
pub use scenario::{ScenarioSpec, StalenessSpec, MAX_STALENESS};
pub use services::ServiceModel;
pub use shard::{merge_shard_reports, ShardPlan, ShardReport, ShardedSimulation};
pub use trace::{chrome_trace_json, write_chrome_trace, RunTrace, TraceEvent};
pub use workload::{ArrivalTrace, JobClass, MmppPhase, ModulationSpec, WorkloadSpec};
