//! Run-length-encoded per-server FIFO queues.
//!
//! The engine only needs each queued job's *arrival round* to compute its
//! response time, and all jobs that join a server in the same round are
//! interchangeable. Storing one `(arrival_round, count)` segment per round
//! instead of one entry per job makes enqueueing and the departure phase cost
//! `O(distinct arrival rounds touched)` instead of `O(jobs)` — at high load a
//! server can absorb dozens of jobs per round but only ever appends one
//! segment per round (the engine counts a round's arrivals first and pushes
//! the total) and drains a handful.
//!
//! In steady state the segment ring buffer reaches a stable capacity and the
//! queue performs no further heap allocations.

use std::collections::VecDeque;

/// One run of jobs that arrived at the same round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    /// The round the jobs arrived in.
    round: u64,
    /// How many of them are still queued.
    count: u64,
}

/// A FIFO queue of jobs represented as run-length-encoded arrival-round
/// segments.
#[derive(Debug, Clone, Default)]
pub struct SegmentQueue {
    segments: VecDeque<Segment>,
    len: u64,
}

impl SegmentQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SegmentQueue::default()
    }

    /// Number of queued jobs.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments currently stored (exposed for tests).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Enqueues `count` jobs that arrived in `round`. Jobs pushed for the
    /// round already at the back of the queue merge into its segment, so a
    /// whole arrival batch costs one segment at most.
    ///
    /// Rounds must be pushed in non-decreasing order (the engine's round loop
    /// guarantees this); this is debug-asserted.
    pub fn push(&mut self, round: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.len += count;
        if let Some(last) = self.segments.back_mut() {
            debug_assert!(last.round <= round, "arrival rounds must be monotone");
            if last.round == round {
                last.count += count;
                return;
            }
        }
        self.segments.push_back(Segment { round, count });
    }

    /// Visits every stored segment in FIFO order as `(arrival_round, count)`
    /// pairs — the checkpoint serializer walks these; re-`push`ing them in
    /// order onto an empty queue reconstructs the queue exactly.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.segments.iter().map(|s| (s.round, s.count))
    }

    /// Dequeues up to `capacity` jobs in FIFO order, invoking
    /// `completed(arrival_round, count)` once per drained (partial) segment.
    /// Returns the number of jobs dequeued.
    pub fn pop(&mut self, capacity: u64, mut completed: impl FnMut(u64, u64)) -> u64 {
        let mut remaining = capacity.min(self.len);
        let dequeued = remaining;
        self.len -= dequeued;
        while remaining > 0 {
            let front = self
                .segments
                .front_mut()
                .expect("segment bookkeeping is consistent");
            if front.count > remaining {
                front.count -= remaining;
                completed(front.round, remaining);
                break;
            }
            let Segment { round, count } = *front;
            self.segments.pop_front();
            completed(round, count);
            remaining -= count;
        }
        dequeued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_same_round_jobs_into_one_segment() {
        let mut q = SegmentQueue::new();
        for _ in 0..10 {
            q.push(3, 1);
        }
        q.push(3, 5);
        assert_eq!(q.len(), 15);
        assert_eq!(q.num_segments(), 1);
        q.push(4, 2);
        assert_eq!(q.num_segments(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn zero_count_pushes_are_ignored() {
        let mut q = SegmentQueue::new();
        q.push(1, 0);
        assert!(q.is_empty());
        assert_eq!(q.num_segments(), 0);
    }

    #[test]
    fn pop_respects_fifo_order_and_partial_segments() {
        let mut q = SegmentQueue::new();
        q.push(1, 3);
        q.push(2, 2);
        q.push(5, 4);

        let mut drained: Vec<(u64, u64)> = Vec::new();
        let n = q.pop(4, |round, count| drained.push((round, count)));
        assert_eq!(n, 4);
        assert_eq!(drained, vec![(1, 3), (2, 1)]);
        assert_eq!(q.len(), 5);

        drained.clear();
        let n = q.pop(100, |round, count| drained.push((round, count)));
        assert_eq!(n, 5);
        assert_eq!(drained, vec![(2, 1), (5, 4)]);
        assert!(q.is_empty());
        assert_eq!(q.num_segments(), 0);
    }

    #[test]
    fn pop_on_empty_queue_is_a_no_op() {
        let mut q = SegmentQueue::new();
        let n = q.pop(7, |_, _| panic!("nothing to complete"));
        assert_eq!(n, 0);
    }

    #[test]
    fn matches_a_per_job_vecdeque_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut rle = SegmentQueue::new();
        let mut reference: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        for round in 0..500u64 {
            let arrivals = rng.gen_range(0..6u64);
            rle.push(round, arrivals);
            for _ in 0..arrivals {
                reference.push_back(round);
            }
            let capacity = rng.gen_range(0..6u64);
            let mut popped: Vec<u64> = Vec::new();
            rle.pop(capacity, |r, c| {
                for _ in 0..c {
                    popped.push(r);
                }
            });
            for _ in 0..capacity.min(reference.len() as u64) {
                let expected = reference.pop_front().unwrap();
                assert_eq!(popped.remove(0), expected);
            }
            assert!(popped.is_empty());
            assert_eq!(rle.len(), reference.len() as u64);
        }
    }
}
