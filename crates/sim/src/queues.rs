//! Run-length-encoded per-server FIFO queues, stored together in one arena.
//!
//! The engine only needs each queued job's *arrival round* to compute its
//! response time, and all jobs that join a server in the same round are
//! interchangeable. A queue is therefore a FIFO of `(arrival_round, count)`
//! segments — one per round that left jobs behind — and the departure phase
//! costs `O(segments touched)`, not `O(jobs)`.
//!
//! All `n` queues live in one [`QueueArena`]:
//!
//! * a per-server header array holds each queue's job count and the
//!   positions of its first and last segment (chunk index and slot);
//! * one shared `Vec` of fixed [`CHUNK_SEGMENTS`]-segment chunks (64 bytes
//!   each) holds the segments, and a parallel `next` index per chunk links
//!   a queue's chunks head to tail;
//! * an intrusive LIFO free list, threaded through the same `next` indices,
//!   takes a chunk back the moment its last segment drains and hands it to
//!   the next queue that needs one.
//!
//! The arena's footprint is `O(n + live segments)`, it is allocated once
//! per run and grows only to the peak number of live chunks, and dropping
//! it frees three buffers instead of `n` ring buffers. There is one
//! representation for every queue length: no inline cap, no spill path.
//!
//! The engine folds a round's arrivals in with [`QueueArena::serve`], which
//! drains the old segments, serves this round's arrivals directly, and
//! stores only what is left — the same completions, in the same FIFO order,
//! as pushing the arrivals first and popping after.

/// Segments per arena chunk.
pub const CHUNK_SEGMENTS: usize = 4;

/// The last slot of a chunk.
const LAST_SLOT: usize = CHUNK_SEGMENTS - 1;

/// The null position / chunk index: an empty queue's ends, the end of a
/// chunk list.
const NIL: u32 = u32::MAX;

/// Chunks the arena can address: every position
/// `chunk · CHUNK_SEGMENTS + slot` stays below [`NIL`].
const MAX_CHUNKS: usize = NIL as usize / CHUNK_SEGMENTS;

/// One run of jobs that arrived in the same round.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    /// The round the jobs arrived in.
    round: u64,
    /// How many of them are still queued.
    count: u64,
}

/// A fixed block of segments: 64 bytes, the size of a cache line. (Aligning
/// it to one measured no faster, and an over-aligned `Vec` cannot grow by
/// `realloc` in place, so every growth step held both copies.)
#[derive(Debug, Clone, Copy, Default)]
struct Chunk([Segment; CHUNK_SEGMENTS]);

/// One queue's header: its job count and the positions
/// (`chunk · CHUNK_SEGMENTS + slot`) of its first and last live segment,
/// both [`NIL`] when the queue is empty. A queue's live segments run from
/// `head` to the end of its chunk, through whole chunks, and into the tail
/// chunk up to `tail`.
#[derive(Debug, Clone, Copy)]
struct Header {
    len: u64,
    head: u32,
    tail: u32,
}

fn chunk_of(pos: u32) -> usize {
    pos as usize / CHUNK_SEGMENTS
}

fn slot_of(pos: u32) -> usize {
    pos as usize % CHUNK_SEGMENTS
}

/// The FIFO queues of `n` servers in one chunked arena.
#[derive(Debug, Clone)]
pub struct QueueArena {
    headers: Vec<Header>,
    chunks: Vec<Chunk>,
    /// `next[c]`: the chunk after `c` in its queue or on the free list;
    /// meaningless for a queue's tail chunk, which is never followed.
    next: Vec<u32>,
    /// Head of the free-chunk list.
    free: u32,
}

impl QueueArena {
    /// Creates `num_servers` empty queues.
    pub fn new(num_servers: usize) -> Self {
        let empty = Header {
            len: 0,
            head: NIL,
            tail: NIL,
        };
        QueueArena {
            headers: vec![empty; num_servers],
            chunks: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }

    /// Number of jobs queued at server `s`.
    pub fn len(&self, s: usize) -> u64 {
        self.headers[s].len
    }

    /// Every queue's length, in server order.
    pub fn lens(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.headers.iter().map(|h| h.len)
    }

    /// Visits server `s`'s segments in FIFO order as `(arrival_round,
    /// count)` pairs — the checkpoint serializer walks these; re-`push`ing
    /// them in order onto an empty queue reconstructs the queue exactly.
    pub fn segments(&self, s: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        let Header { head, tail, .. } = self.headers[s];
        let mut pos = head;
        std::iter::from_fn(move || {
            if pos == NIL {
                return None;
            }
            let Segment { round, count } = self.chunks[chunk_of(pos)].0[slot_of(pos)];
            pos = if pos == tail {
                NIL
            } else if slot_of(pos) == LAST_SLOT {
                self.next[chunk_of(pos)] * CHUNK_SEGMENTS as u32
            } else {
                pos + 1
            };
            Some((round, count))
        })
    }

    /// Enqueues `count` jobs that arrived in `round` at server `s`. Jobs
    /// pushed for the round already at the back of the queue merge into its
    /// segment, so a whole arrival batch costs one segment at most.
    ///
    /// Rounds must be pushed in non-decreasing order per queue (the engine's
    /// round loop and the checkpoint's segment check guarantee this); this
    /// is debug-asserted.
    pub fn push(&mut self, s: usize, round: u64, count: u64) {
        if count == 0 {
            return;
        }
        let header = &mut self.headers[s];
        header.len += count;
        let segment = Segment { round, count };
        let tail = header.tail;
        if tail != NIL {
            let chunk = &mut self.chunks[chunk_of(tail)].0;
            let last = &mut chunk[slot_of(tail)];
            debug_assert!(last.round <= round, "arrival rounds must be monotone");
            if last.round == round {
                last.count += count;
                return;
            }
            if slot_of(tail) != LAST_SLOT {
                chunk[slot_of(tail) + 1] = segment;
                header.tail = tail + 1;
                return;
            }
        }
        let c = if self.free != NIL {
            let c = self.free;
            self.free = self.next[c as usize];
            c as usize
        } else {
            let c = self.chunks.len();
            assert!(
                c < MAX_CHUNKS,
                "queue arena is limited to {MAX_CHUNKS} chunks"
            );
            self.chunks.push(Chunk::default());
            self.next.push(NIL);
            c
        };
        self.chunks[c].0[0] = segment;
        let pos = (c * CHUNK_SEGMENTS) as u32;
        if tail == NIL {
            header.head = pos;
        } else {
            self.next[chunk_of(tail)] = c as u32;
        }
        header.tail = pos;
    }

    /// One round of service at server `s`: `arrived` jobs joined in `round`
    /// and up to `capacity` jobs complete, oldest first. Drains the stored
    /// segments, serves this round's arrivals directly, and stores only the
    /// arrivals left over. `completed(arrival_round, count)` runs once per
    /// drained (partial) segment in FIFO order — exactly the calls that
    /// `push(s, round, arrived)` followed by a FIFO pop of `capacity` would
    /// make. Returns the number of jobs dequeued.
    pub fn serve(
        &mut self,
        s: usize,
        round: u64,
        arrived: u64,
        capacity: u64,
        mut completed: impl FnMut(u64, u64),
    ) -> u64 {
        let mut header = self.headers[s];
        let old = capacity.min(header.len);
        header.len -= old;
        let mut remaining = old;
        while remaining > 0 {
            let pos = header.head;
            let front = &mut self.chunks[chunk_of(pos)].0[slot_of(pos)];
            debug_assert!(front.round < round, "stored segments precede the round");
            if front.count > remaining {
                front.count -= remaining;
                completed(front.round, remaining);
                break;
            }
            let Segment { round: r, count } = *front;
            completed(r, count);
            remaining -= count;
            if pos == header.tail {
                header.head = NIL;
                header.tail = NIL;
            } else if slot_of(pos) == LAST_SLOT {
                header.head = self.next[chunk_of(pos)] * CHUNK_SEGMENTS as u32;
            } else {
                header.head = pos + 1;
                continue;
            }
            // The segment was its chunk's last live one.
            self.next[chunk_of(pos)] = self.free;
            self.free = chunk_of(pos) as u32;
        }
        self.headers[s] = header;
        let direct = (capacity - old).min(arrived);
        if direct > 0 {
            completed(round, direct);
        }
        if arrived > direct {
            self.push(s, round, arrived - direct);
        }
        old + direct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Chunks ever allocated (live plus free): the arena's high-water mark.
    fn chunks_allocated(arena: &QueueArena) -> usize {
        arena.chunks.len()
    }

    /// Chunks on the free list.
    fn free_chunks(arena: &QueueArena) -> usize {
        let mut count = 0;
        let mut c = arena.free;
        while c != NIL {
            count += 1;
            c = arena.next[c as usize];
        }
        count
    }

    /// Collects `serve`'s completions as `(round, count)` pairs.
    fn serve_all(
        arena: &mut QueueArena,
        s: usize,
        round: u64,
        arrived: u64,
        capacity: u64,
    ) -> (u64, Vec<(u64, u64)>) {
        let mut drained = Vec::new();
        let n = arena.serve(s, round, arrived, capacity, |r, c| drained.push((r, c)));
        (n, drained)
    }

    #[test]
    fn push_merges_same_round_jobs_into_one_segment() {
        let mut q = QueueArena::new(1);
        for _ in 0..10 {
            q.push(0, 3, 1);
        }
        q.push(0, 3, 5);
        assert_eq!(q.len(0), 15);
        assert_eq!(q.segments(0).count(), 1);
        q.push(0, 4, 2);
        assert_eq!(q.segments(0).count(), 2);
    }

    #[test]
    fn zero_count_pushes_are_ignored() {
        let mut q = QueueArena::new(1);
        q.push(0, 1, 0);
        assert_eq!(q.len(0), 0);
        assert_eq!(q.segments(0).count(), 0);
        assert_eq!(chunks_allocated(&q), 0);
    }

    #[test]
    fn pop_respects_fifo_order_and_partial_segments() {
        let mut q = QueueArena::new(1);
        q.push(0, 1, 3);
        q.push(0, 2, 2);
        q.push(0, 5, 4);

        let (n, drained) = serve_all(&mut q, 0, 6, 0, 4);
        assert_eq!(n, 4);
        assert_eq!(drained, vec![(1, 3), (2, 1)]);
        assert_eq!(q.len(0), 5);

        let (n, drained) = serve_all(&mut q, 0, 7, 0, 100);
        assert_eq!(n, 5);
        assert_eq!(drained, vec![(2, 1), (5, 4)]);
        assert_eq!(q.len(0), 0);
        assert_eq!(q.segments(0).count(), 0);
        assert_eq!(free_chunks(&q), chunks_allocated(&q));
    }

    #[test]
    fn pop_on_empty_queue_is_a_no_op() {
        let mut q = QueueArena::new(2);
        let n = q.serve(1, 0, 0, 7, |_, _| panic!("nothing to complete"));
        assert_eq!(n, 0);
        assert_eq!(chunks_allocated(&q), 0);
    }

    #[test]
    fn serve_drains_old_segments_then_this_rounds_arrivals() {
        let mut q = QueueArena::new(1);
        q.push(0, 1, 2);
        // Capacity covers the backlog and part of the arrivals: the rest of
        // the arrivals become the only stored segment.
        let (n, drained) = serve_all(&mut q, 0, 3, 5, 4);
        assert_eq!(n, 4);
        assert_eq!(drained, vec![(1, 2), (3, 2)]);
        assert_eq!(q.segments(0).collect::<Vec<_>>(), vec![(3, 3)]);
        // Zero capacity stores every arrival behind the backlog.
        let (n, drained) = serve_all(&mut q, 0, 4, 2, 0);
        assert_eq!((n, drained), (0, vec![]));
        assert_eq!(q.segments(0).collect::<Vec<_>>(), vec![(3, 3), (4, 2)]);
        // Enough capacity for everything empties the queue and frees its
        // chunk; the arrivals never touch the arena.
        let (n, drained) = serve_all(&mut q, 0, 5, 6, 100);
        assert_eq!(n, 11);
        assert_eq!(drained, vec![(3, 3), (4, 2), (5, 6)]);
        assert_eq!(q.len(0), 0);
        assert_eq!(free_chunks(&q), 1);
    }

    /// A per-job FIFO of arrival rounds, the reference the arena must match.
    #[derive(Default)]
    struct Reference {
        jobs: VecDeque<u64>,
    }

    impl Reference {
        fn serve(&mut self, round: u64, arrived: u64, capacity: u64) -> Vec<u64> {
            self.jobs
                .extend(std::iter::repeat_n(round, arrived as usize));
            let n = (capacity as usize).min(self.jobs.len());
            self.jobs.drain(..n).collect()
        }
    }

    fn expand(drained: &[(u64, u64)]) -> Vec<u64> {
        drained
            .iter()
            .flat_map(|&(r, c)| std::iter::repeat_n(r, c as usize))
            .collect()
    }

    /// Chunks on server `s`'s list, head to tail.
    fn live_chunks(arena: &QueueArena, s: usize) -> usize {
        let Header { head, tail, .. } = arena.headers[s];
        if head == NIL {
            return 0;
        }
        let mut count = 1;
        let mut c = chunk_of(head);
        while c != chunk_of(tail) {
            count += 1;
            c = arena.next[c] as usize;
        }
        count
    }

    #[test]
    fn matches_a_per_job_vecdeque_reference() {
        // Many interleaved servers sharing one arena, in three regimes per
        // server: filling (queues reach well past two chunks), draining to
        // empty (chunks go back on the free list) and refilling (the free
        // list is reused instead of growing the arena). Every `serve`
        // edge case occurs: zero capacity, capacity at least backlog plus
        // arrivals, and rounds with no arrivals.
        const SERVERS: usize = 37;
        let mut rng = StdRng::seed_from_u64(99);
        let mut arena = QueueArena::new(SERVERS);
        let mut reference: Vec<Reference> = (0..SERVERS).map(|_| Reference::default()).collect();
        let mut was_busy = [false; SERVERS];
        let (mut deepest, mut peak_live, mut refills) = (0, 0, 0);
        let (mut zero_capacity, mut overwhelm, mut no_arrivals) = (0, 0, 0);
        for round in 0..900u64 {
            let phase = (round / 150) % 3;
            for s in 0..SERVERS {
                let arrived = match rng.gen_range(0..4) {
                    0 => 0,
                    _ => rng.gen_range(1..6u64),
                };
                let capacity = match (phase, rng.gen_range(0..8)) {
                    (_, 0) => 0,
                    (0, _) => rng.gen_range(0..4u64),
                    (1, _) => rng.gen_range(5..40u64),
                    _ => rng.gen_range(0..7u64),
                };
                let len = arena.len(s);
                zero_capacity += u32::from(capacity == 0);
                overwhelm += u32::from(capacity >= len + arrived);
                no_arrivals += u32::from(arrived == 0);
                refills += u32::from(len == 0 && was_busy[s] && arrived > capacity);
                was_busy[s] |= len > 0;
                let (n, drained) = serve_all(&mut arena, s, round, arrived, capacity);
                let expected = reference[s].serve(round, arrived, capacity);
                assert_eq!(expand(&drained), expected, "server {s}, round {round}");
                assert_eq!(n, expected.len() as u64);
                assert!(
                    drained.windows(2).all(|w| w[0].0 < w[1].0),
                    "one completion call per segment"
                );
                assert_eq!(arena.len(s), reference[s].jobs.len() as u64);
                let stored = expand(&arena.segments(s).collect::<Vec<_>>());
                assert!(stored.iter().eq(reference[s].jobs.iter()));
                deepest = deepest.max(arena.segments(s).count());
                let live: usize = (0..SERVERS).map(|q| live_chunks(&arena, q)).sum();
                assert_eq!(live + free_chunks(&arena), chunks_allocated(&arena));
                peak_live = peak_live.max(live);
            }
        }
        assert!(
            deepest > 2 * CHUNK_SEGMENTS,
            "queues spanned {deepest} segments"
        );
        assert!(zero_capacity > 0 && overwhelm > 0 && no_arrivals > 0 && refills > 0);
        // The arena grows only when the free list is empty, so it never
        // holds more chunks than were ever live at once.
        assert_eq!(chunks_allocated(&arena), peak_live);
    }

    #[test]
    fn drained_chunks_are_reused_before_the_arena_grows() {
        let mut q = QueueArena::new(2);
        for round in 0..12 {
            q.push(0, round, 1);
        }
        assert_eq!(chunks_allocated(&q), 3);
        q.serve(0, 12, 0, u64::MAX, |_, _| {});
        assert_eq!(free_chunks(&q), 3);
        for round in 12..24 {
            q.push(1, round, 2);
        }
        assert_eq!(chunks_allocated(&q), 3, "the free list served every chunk");
        assert_eq!(free_chunks(&q), 0);
        assert_eq!(q.len(1), 24);
    }

    #[test]
    fn captured_multi_chunk_queues_restore_exactly() {
        // Capture → checkpoint segment check → restore into a fresh arena:
        // the restored queues hold the same segments and then serve exactly
        // like the originals.
        let mut rng = StdRng::seed_from_u64(7);
        let mut original = QueueArena::new(5);
        for round in 0..40u64 {
            for s in 0..5 {
                let capacity = rng.gen_range(0..3u64);
                original.serve(s, round, rng.gen_range(0..4u64), capacity, |_, _| {});
            }
        }
        let captured: Vec<Vec<(u64, u64)>> =
            (0..5).map(|s| original.segments(s).collect()).collect();
        assert!(captured.iter().any(|q| q.len() > 2 * CHUNK_SEGMENTS));
        crate::checkpoint::check_queue_segments(40, &captured).unwrap();
        let mut restored = QueueArena::new(5);
        for (s, segments) in captured.iter().enumerate() {
            for &(round, count) in segments {
                restored.push(s, round, count);
            }
        }
        for round in 40..80u64 {
            for s in 0..5 {
                assert_eq!(restored.len(s), original.len(s));
                assert!(restored.segments(s).eq(original.segments(s)));
                let (arrived, capacity) = (rng.gen_range(0..3u64), rng.gen_range(0..5u64));
                let a = serve_all(&mut original, s, round, arrived, capacity);
                let b = serve_all(&mut restored, s, round, arrived, capacity);
                assert_eq!(a, b);
            }
        }
    }
}
