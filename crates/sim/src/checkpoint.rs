//! Engine checkpoints: a serializable snapshot of a mid-run simulation.
//!
//! A checkpoint captures everything the round loop cannot re-derive at a
//! round boundary: the round counter, the RLE segment queues, the exact
//! positions of the three RNG stream families, every metrics accumulator,
//! the scenario layer's fault/staleness state, and one opaque state blob
//! per dispatcher policy
//! (see [`DispatchPolicy::save_state`](scd_model::DispatchPolicy::save_state)).
//! The queue-length snapshot, warm caches and argmin trees are deliberately
//! **not** captured: every round rewrites the snapshot from the queues
//! before anything reads it, and the rest are pure accelerators, rebuilt on
//! restore from the captured state.
//!
//! The contract, pinned by the resume tests: a run resumed from a
//! checkpoint produces a report **bit-identical** to the uninterrupted
//! run, including every RNG draw after the checkpoint round.
//!
//! The wire form ([`EngineCheckpoint::to_bytes`]) reuses the fabric
//! codec's little-endian primitives and is what a v3 `Checkpoint` frame
//! carries as its state blob. Decoding is strict: truncation, lying
//! lengths, bad tag bytes and trailing bytes are all classified
//! [`CodecError`]s, never panics.

use crate::fabric::codec::{ByteReader, ByteWriter, CodecError};
use crate::report::DegradationMetrics;

/// Layout version of the serialized checkpoint; bumped on any change.
/// Version 2 dropped the previous round's queue-length snapshot.
const CHECKPOINT_VERSION: u8 = 2;

/// Mid-run state of a response-time histogram.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistogramState {
    pub(crate) counts: Vec<u64>,
    pub(crate) count: u64,
    pub(crate) raw_sum: u128,
}

/// Mid-run state of the queue-length tracker (both metric modes).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrackerState {
    pub(crate) num_servers: usize,
    pub(crate) per_server_sum: Vec<u128>,
    pub(crate) per_server_max: Vec<u64>,
    pub(crate) idle_rounds: Vec<u64>,
    pub(crate) occupancy: Vec<u64>,
    pub(crate) total_sum: u128,
    pub(crate) total_max: u64,
    pub(crate) rounds: u64,
}

/// Mid-run state of the decision-time histogram.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecisionState {
    pub(crate) counts: Vec<u64>,
    pub(crate) count: u64,
    pub(crate) sum: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
}

/// Mid-run state of the scenario layer (present iff the run's scenario is
/// active).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScenarioState {
    pub(crate) server_up: Vec<bool>,
    pub(crate) dispatcher_up: Vec<bool>,
    pub(crate) k_effs: Vec<u64>,
    pub(crate) ring: Option<Vec<Vec<u64>>>,
    pub(crate) degradation: DegradationMetrics,
    pub(crate) oracle_dropped: u64,
}

/// A serializable snapshot of a [`Simulation`](crate::Simulation) run at a
/// round boundary, sufficient to resume it bit-identically.
///
/// Produced by [`Simulation::checkpoint`](crate::Simulation::checkpoint)
/// and [`Simulation::run_with_checkpoints`](crate::Simulation::run_with_checkpoints);
/// consumed by [`Simulation::resume_from`](crate::Simulation::resume_from),
/// which refuses a checkpoint whose
/// [`config_digest`](EngineCheckpoint::config_digest) does not match the
/// resuming configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    pub(crate) config_digest: u64,
    pub(crate) round: u64,
    pub(crate) num_servers: usize,
    pub(crate) num_dispatchers: usize,
    pub(crate) queues: Vec<Vec<(u64, u64)>>,
    pub(crate) arrival_rng: [u64; 4],
    pub(crate) service_rng: [u64; 4],
    pub(crate) policy_rngs: Vec<[u64; 4]>,
    pub(crate) response_times: HistogramState,
    pub(crate) tracker: TrackerState,
    pub(crate) decision_times: Option<DecisionState>,
    pub(crate) jobs_dispatched: u64,
    pub(crate) jobs_completed: u64,
    pub(crate) scenario: Option<ScenarioState>,
    pub(crate) policy_state: Vec<Vec<u8>>,
}

impl EngineCheckpoint {
    /// The round the checkpoint was taken at: the first round a resumed
    /// run executes.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Digest of the `SimConfig` the checkpointed run was configured with;
    /// resuming under any other configuration is refused.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Jobs dispatched on this shard so far — what a worker advertises in
    /// the progress heartbeat accompanying each checkpoint frame.
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs_dispatched
    }

    /// Serializes the checkpoint into the strict little-endian layout a v3
    /// `Checkpoint` frame carries.
    ///
    /// # Errors
    /// Returns [`CodecError::Malformed`] only if a length exceeds the u32
    /// wire width — impossible for checkpoints produced by the engine.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = ByteWriter::new();
        w.u8(CHECKPOINT_VERSION);
        w.u64(self.config_digest);
        w.u64(self.round);
        w.len(self.num_servers)?;
        w.len(self.num_dispatchers)?;
        w.len(self.queues.len())?;
        for segments in &self.queues {
            w.len(segments.len())?;
            for &(arrival_round, count) in segments {
                w.u64(arrival_round);
                w.u64(count);
            }
        }
        write_rng(&mut w, &self.arrival_rng);
        write_rng(&mut w, &self.service_rng);
        w.len(self.policy_rngs.len())?;
        for state in &self.policy_rngs {
            write_rng(&mut w, state);
        }
        w.counts(&self.response_times.counts)?;
        w.u64(self.response_times.count);
        w.u128(self.response_times.raw_sum);
        let t = &self.tracker;
        w.len(t.num_servers)?;
        w.len(t.per_server_sum.len())?;
        for &sum in &t.per_server_sum {
            w.u128(sum);
        }
        w.counts(&t.per_server_max)?;
        w.counts(&t.idle_rounds)?;
        w.counts(&t.occupancy)?;
        w.u128(t.total_sum);
        w.u64(t.total_max);
        w.u64(t.rounds);
        match &self.decision_times {
            None => w.u8(0),
            Some(d) => {
                w.u8(1);
                w.u64(d.count);
                w.f64(d.sum);
                w.f64(d.min);
                w.f64(d.max);
                w.counts(&d.counts)?;
            }
        }
        w.u64(self.jobs_dispatched);
        w.u64(self.jobs_completed);
        match &self.scenario {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                write_bools(&mut w, &s.server_up)?;
                write_bools(&mut w, &s.dispatcher_up)?;
                w.counts(&s.k_effs)?;
                match &s.ring {
                    None => w.u8(0),
                    Some(ring) => {
                        w.u8(1);
                        w.len(ring.len())?;
                        for row in ring {
                            w.counts(row)?;
                        }
                    }
                }
                let d = &s.degradation;
                for v in [
                    d.server_down_rounds,
                    d.dispatcher_offline_rounds,
                    d.arrivals_lost,
                    d.probes_dropped,
                    d.stale_decision_rounds,
                    d.herding_rounds,
                    d.shards_lost,
                    d.rounds_lost,
                    d.checkpoints_taken,
                    d.rounds_replayed,
                ] {
                    w.u64(v);
                }
                w.u64(s.oracle_dropped);
            }
        }
        w.len(self.policy_state.len())?;
        for blob in &self.policy_state {
            w.len(blob.len())?;
            w.bytes(blob);
        }
        Ok(w.into_bytes())
    }

    /// Deserializes a checkpoint produced by
    /// [`to_bytes`](EngineCheckpoint::to_bytes).
    ///
    /// Strict: unknown layout versions, truncation, invalid tag bytes,
    /// trailing bytes and queue segments the engine cannot have produced
    /// (an empty segment, arrival rounds that do not strictly increase or
    /// do not precede the checkpoint round, counts whose sum overflows)
    /// are all rejected. Cross-field
    /// consistency (vector widths against the resuming configuration) is
    /// checked by
    /// [`Simulation::resume_from`](crate::Simulation::resume_from), not
    /// here.
    ///
    /// # Errors
    /// A classified [`CodecError`]; never panics on any input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::UnsupportedVersion { got: version });
        }
        let config_digest = r.u64()?;
        let round = r.u64()?;
        let num_servers = r.len()?;
        let num_dispatchers = r.len()?;
        let num_queues = r.len()?;
        let mut queues = Vec::with_capacity(bounded(num_queues, &r));
        for _ in 0..num_queues {
            let num_segments = r.len()?;
            let mut segments = Vec::with_capacity(bounded(num_segments, &r));
            for _ in 0..num_segments {
                let arrival_round = r.u64()?;
                let count = r.u64()?;
                segments.push((arrival_round, count));
            }
            queues.push(segments);
        }
        check_queue_segments(round, &queues).map_err(CodecError::Malformed)?;
        let arrival_rng = read_rng(&mut r)?;
        let service_rng = read_rng(&mut r)?;
        let num_policy_rngs = r.len()?;
        let mut policy_rngs = Vec::with_capacity(bounded(num_policy_rngs, &r));
        for _ in 0..num_policy_rngs {
            policy_rngs.push(read_rng(&mut r)?);
        }
        let response_times = HistogramState {
            counts: r.counts()?,
            count: r.u64()?,
            raw_sum: r.u128()?,
        };
        let tracker_servers = r.len()?;
        let num_sums = r.len()?;
        let mut per_server_sum = Vec::with_capacity(bounded(num_sums, &r));
        for _ in 0..num_sums {
            per_server_sum.push(r.u128()?);
        }
        let tracker = TrackerState {
            num_servers: tracker_servers,
            per_server_sum,
            per_server_max: r.counts()?,
            idle_rounds: r.counts()?,
            occupancy: r.counts()?,
            total_sum: r.u128()?,
            total_max: r.u64()?,
            rounds: r.u64()?,
        };
        let decision_times = match r.u8()? {
            0 => None,
            1 => Some(DecisionState {
                count: r.u64()?,
                sum: r.f64()?,
                min: r.f64()?,
                max: r.f64()?,
                counts: r.counts()?,
            }),
            tag => {
                return Err(CodecError::Malformed(format!(
                    "decision-time option tag must be 0 or 1, got {tag}"
                )));
            }
        };
        let jobs_dispatched = r.u64()?;
        let jobs_completed = r.u64()?;
        let scenario = match r.u8()? {
            0 => None,
            1 => {
                let server_up = read_bools(&mut r)?;
                let dispatcher_up = read_bools(&mut r)?;
                let k_effs = r.counts()?;
                let ring = match r.u8()? {
                    0 => None,
                    1 => {
                        let depth = r.len()?;
                        let mut ring = Vec::with_capacity(bounded(depth, &r));
                        for _ in 0..depth {
                            ring.push(r.counts()?);
                        }
                        Some(ring)
                    }
                    tag => {
                        return Err(CodecError::Malformed(format!(
                            "ring option tag must be 0 or 1, got {tag}"
                        )));
                    }
                };
                let degradation = DegradationMetrics {
                    server_down_rounds: r.u64()?,
                    dispatcher_offline_rounds: r.u64()?,
                    arrivals_lost: r.u64()?,
                    probes_dropped: r.u64()?,
                    stale_decision_rounds: r.u64()?,
                    herding_rounds: r.u64()?,
                    shards_lost: r.u64()?,
                    rounds_lost: r.u64()?,
                    checkpoints_taken: r.u64()?,
                    rounds_replayed: r.u64()?,
                };
                let oracle_dropped = r.u64()?;
                Some(ScenarioState {
                    server_up,
                    dispatcher_up,
                    k_effs,
                    ring,
                    degradation,
                    oracle_dropped,
                })
            }
            tag => {
                return Err(CodecError::Malformed(format!(
                    "scenario option tag must be 0 or 1, got {tag}"
                )));
            }
        };
        let num_blobs = r.len()?;
        let mut policy_state = Vec::with_capacity(bounded(num_blobs, &r));
        for _ in 0..num_blobs {
            let len = r.len()?;
            policy_state.push(r.take(len)?.to_vec());
        }
        if r.remaining() != 0 {
            return Err(CodecError::Malformed(format!(
                "{} unread bytes after the last checkpoint field",
                r.remaining()
            )));
        }
        Ok(EngineCheckpoint {
            config_digest,
            round,
            num_servers,
            num_dispatchers,
            queues,
            arrival_rng,
            service_rng,
            policy_rngs,
            response_times,
            tracker,
            decision_times,
            jobs_dispatched,
            jobs_completed,
            scenario,
            policy_state,
        })
    }
}

/// Checks that `queues` is a queue state the round engine can hold at the
/// boundary of round `round`: every segment holds at least one job, each
/// queue's arrival rounds strictly increase (same-round arrivals always
/// merge into one segment) and lie before `round`, and the counts summed
/// over every queue fit in a `u64` (so no queue length and no backlog
/// total can overflow). Resuming from anything else would corrupt the
/// queues' FIFO order or response times instead of failing.
///
/// # Errors
/// A message naming the first offending server.
pub(crate) fn check_queue_segments(round: u64, queues: &[Vec<(u64, u64)>]) -> Result<(), String> {
    let mut total = 0u64;
    for (server, segments) in queues.iter().enumerate() {
        let mut previous: Option<u64> = None;
        for &(arrival_round, count) in segments {
            if count == 0 {
                return Err(format!(
                    "queue {server} has an empty segment for round {arrival_round}"
                ));
            }
            if arrival_round >= round {
                return Err(format!(
                    "queue {server} holds jobs arriving in round {arrival_round}, \
                     not before the checkpoint round {round}"
                ));
            }
            if previous.is_some_and(|p| p >= arrival_round) {
                return Err(format!(
                    "queue {server} arrival rounds are not strictly increasing at {arrival_round}"
                ));
            }
            previous = Some(arrival_round);
            total = total
                .checked_add(count)
                .ok_or_else(|| format!("queued job counts overflow at queue {server}"))?;
        }
    }
    Ok(())
}

fn write_rng(w: &mut ByteWriter, state: &[u64; 4]) {
    for &word in state {
        w.u64(word);
    }
}

fn read_rng(r: &mut ByteReader<'_>) -> Result<[u64; 4], CodecError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn write_bools(w: &mut ByteWriter, bools: &[bool]) -> Result<(), CodecError> {
    w.len(bools.len())?;
    for &b in bools {
        w.u8(u8::from(b));
    }
    Ok(())
}

fn read_bools(r: &mut ByteReader<'_>) -> Result<Vec<bool>, CodecError> {
    let len = r.len()?;
    let bytes = r.take(len)?;
    bytes
        .iter()
        .map(|&b| match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!(
                "bool byte must be 0 or 1, got {other}"
            ))),
        })
        .collect()
}

/// Caps a declared element count by what the remaining bytes could
/// possibly hold, so a lying length prefix cannot trigger a giant
/// pre-allocation (each element is at least one byte on the wire).
fn bounded(declared: usize, r: &ByteReader<'_>) -> usize {
    declared.min(r.remaining())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> EngineCheckpoint {
        EngineCheckpoint {
            config_digest: 0xFEED_FACE_CAFE_BEEF,
            round: 120,
            num_servers: 3,
            num_dispatchers: 2,
            queues: vec![vec![(100, 2), (119, 1)], vec![], vec![(118, 5)]],
            arrival_rng: [1, 2, 3, 4],
            service_rng: [5, 6, 7, 8],
            policy_rngs: vec![[9, 10, 11, 12], [13, 14, 15, 16]],
            response_times: HistogramState {
                counts: vec![10, 4, 1],
                count: 15,
                raw_sum: 1u128 << 70,
            },
            tracker: TrackerState {
                num_servers: 3,
                per_server_sum: vec![100, 0, 77],
                per_server_max: vec![9, 0, 6],
                idle_rounds: vec![1, 120, 0],
                occupancy: vec![50, 40, 30],
                total_sum: 177,
                total_max: 15,
                rounds: 120,
            },
            decision_times: Some(DecisionState {
                counts: vec![2, 0, 1],
                count: 3,
                sum: 4.5,
                min: 0.25,
                max: f64::NAN,
            }),
            jobs_dispatched: 240,
            jobs_completed: 232,
            scenario: Some(ScenarioState {
                server_up: vec![true, false, true],
                dispatcher_up: vec![true, true],
                k_effs: vec![0, 2],
                ring: Some(vec![vec![1, 2, 3], vec![4, 5, 6]]),
                degradation: DegradationMetrics {
                    server_down_rounds: 40,
                    arrivals_lost: 7,
                    ..DegradationMetrics::default()
                },
                oracle_dropped: 11,
            }),
            policy_state: vec![vec![1, 2, 3], vec![]],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_for_bit() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        let back = EngineCheckpoint::from_bytes(&bytes).unwrap();
        // NaN in the decision histogram breaks derived PartialEq, so
        // compare through a second encode instead.
        assert_eq!(bytes, back.to_bytes().unwrap());
        assert_eq!(back.round(), 120);
        assert_eq!(back.config_digest(), 0xFEED_FACE_CAFE_BEEF);
        assert!(back.decision_times.unwrap().max.is_nan());
    }

    #[test]
    fn minimal_checkpoint_round_trips() {
        let mut ckpt = sample_checkpoint();
        ckpt.decision_times = None;
        ckpt.scenario = None;
        let bytes = ckpt.to_bytes().unwrap();
        assert_eq!(EngineCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let bytes = sample_checkpoint().to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                EngineCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn version_skew_and_tag_garbage_are_classified() {
        let mut bytes = sample_checkpoint().to_bytes().unwrap();
        let original = bytes.clone();
        bytes[0] = 99;
        assert!(matches!(
            EngineCheckpoint::from_bytes(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion { got: 99 }
        ));
        // A version-1 checkpoint still carried the previous round's
        // snapshot after the queues; it is refused by version, before any
        // of its layout is read.
        let mut v1 = original.clone();
        v1[0] = 1;
        let queues_end = 1 + 8 + 8 + 4 + 4 + 4 + (4 + 2 * 16) + 4 + (4 + 16);
        let mut snapshot = 3u32.to_le_bytes().to_vec();
        for len in [3u64, 0, 5] {
            snapshot.extend_from_slice(&len.to_le_bytes());
        }
        v1.splice(queues_end..queues_end, snapshot);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&v1).unwrap_err(),
            CodecError::UnsupportedVersion { got: 1 }
        ));
        let mut trailing = original;
        trailing.push(0);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&trailing).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    /// A checkpoint's policy blobs are untrusted bytes too: every
    /// truncation and every flipped byte of a real blob, for every policy
    /// that checkpoints private state, must be refused as a checkpoint
    /// error or resume into a clean run — never a panic.
    #[test]
    fn corrupt_policy_blobs_are_refused_or_survived() {
        use crate::{ArrivalSpec, SimConfig, SimError, Simulation};
        use scd_model::{ClusterSpec, PolicyFactory, StateWriter};
        use scd_policies::{JsqFactory, LedFactory, LsqFactory, RoundRobinFactory, SedFactory};

        const AT: u64 = 6;
        let config = SimConfig::builder(ClusterSpec::from_rates(vec![1.0, 2.0, 3.0, 4.0]).unwrap())
            .dispatchers(2)
            .rounds(AT + 4)
            .warmup_rounds(1)
            .seed(17)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
            .build()
            .unwrap();
        let sim = Simulation::new(config).unwrap();
        let resume_with = |factory: &dyn PolicyFactory, ckpt: &EngineCheckpoint, blob: Vec<u8>| {
            let mut bad = ckpt.clone();
            bad.policy_state[0] = blob;
            let result = sim.resume_from(factory, &bad);
            assert!(
                matches!(result, Ok(_) | Err(SimError::Checkpoint(_))),
                "{}: a corrupt blob produced {result:?}",
                factory.name()
            );
        };

        let factories: Vec<Box<dyn PolicyFactory>> = vec![
            Box::new(JsqFactory::new()),
            Box::new(SedFactory::new()),
            Box::new(LsqFactory::new()),
            Box::new(LedFactory::new()),
            Box::new(RoundRobinFactory::new()),
        ];
        for factory in &factories {
            let ckpt = sim.checkpoint(factory.as_ref(), AT).unwrap();
            let blob = ckpt.policy_state[0].clone();
            assert!(!blob.is_empty(), "{} saves no state", factory.name());
            for len in 0..blob.len() {
                resume_with(factory.as_ref(), &ckpt, blob[..len].to_vec());
            }
            for i in 0..blob.len() {
                let mut flipped = blob.clone();
                flipped[i] ^= 0xFF;
                resume_with(factory.as_ref(), &ckpt, flipped);
            }
        }

        // A warm JSQ blob in the layout that still carried a sync round and
        // a list of its own placements, naming server 99 of a 4-server
        // cluster: warm flag, 4-slot mirror, sync round, placements, then a
        // well-formed warm picker state.
        let jsq = JsqFactory::new();
        let ckpt = sim.checkpoint(&jsq, AT).unwrap();
        let mut w = StateWriter::new();
        w.u8(1);
        w.u64s(&[0; 4]);
        w.opt_u64(Some(AT - 1));
        w.u32s(&[99]);
        w.u8(1);
        w.u32(1);
        w.u64s(&[1, 2, 3, 4]);
        resume_with(&jsq, &ckpt, w.into_bytes());
    }

    /// Queue segments the engine cannot produce — an arrival round in the
    /// future, rounds out of order, a queue length past `u64::MAX`, an
    /// empty segment, a backlog total past `u64::MAX` — are refused by the
    /// decoder and again by resume, never pushed into the queues.
    #[test]
    fn malformed_queue_segments_are_refused() {
        use crate::{ArrivalSpec, SimConfig, SimError, Simulation};
        use scd_model::ClusterSpec;
        use scd_policies::JsqFactory;

        const AT: u64 = 6;
        let config = SimConfig::builder(ClusterSpec::from_rates(vec![1.0, 2.0, 3.0, 4.0]).unwrap())
            .dispatchers(2)
            .rounds(AT + 4)
            .warmup_rounds(1)
            .seed(17)
            .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
            .build()
            .unwrap();
        let sim = Simulation::new(config).unwrap();
        let jsq = JsqFactory::new();
        let ckpt = sim.checkpoint(&jsq, AT).unwrap();
        let cases: [&[Vec<(u64, u64)>]; 6] = [
            &[vec![(106, 3)]],
            &[vec![(4, 1), (2, 1)]],
            &[vec![(1, u64::MAX), (2, 5)]],
            &[vec![(2, 0)]],
            &[vec![(AT, 1)]],
            &[vec![(1, u64::MAX)], vec![(1, 1)], vec![], vec![]],
        ];
        for queues in cases {
            let mut bad = ckpt.clone();
            bad.queues[..queues.len()].clone_from_slice(queues);
            let resumed = sim.resume_from(&jsq, &bad);
            assert!(
                matches!(resumed, Err(SimError::Checkpoint(_))),
                "{queues:?}: resume gave {resumed:?}"
            );
            let decoded = EngineCheckpoint::from_bytes(&bad.to_bytes().unwrap());
            assert!(
                matches!(decoded, Err(CodecError::Malformed(_))),
                "{queues:?}: decode gave {decoded:?}"
            );
        }
    }

    #[test]
    fn lying_length_prefixes_do_not_allocate_or_panic() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        // The queue count is the first length field after the fixed
        // header (1 + 8 + 8 + 4 + 4 bytes in).
        let mut lying = bytes;
        lying[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(EngineCheckpoint::from_bytes(&lying).is_err());
    }
}
