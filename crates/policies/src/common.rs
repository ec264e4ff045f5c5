//! Shared helpers for the baseline policies.

use rand::Rng;
use rand::RngCore;
use scd_core::index::{scan_argmin, TournamentTree};
use scd_model::{
    AliasSampler, BoxedPolicy, ClusterSpec, DispatchContext, DispatcherId, PolicyFactory,
    StateReader, StateWriter,
};
use std::sync::{Arc, Mutex, PoisonError};

/// The boxed builder closure a [`NamedFactory`] wraps.
type BoxedBuilder = Arc<dyn Fn(DispatcherId, &ClusterSpec) -> BoxedPolicy + Send + Sync>;

/// A [`PolicyFactory`] defined by a name and a boxed closure — removes the
/// boilerplate of writing a dedicated factory struct for every policy
/// variant.
///
/// # Example
/// ```
/// use scd_policies::NamedFactory;
/// use scd_policies::jsq::JsqPolicy;
/// use scd_model::PolicyFactory;
///
/// let factory = NamedFactory::new("my-jsq", |_d, _spec| Box::new(JsqPolicy::new()));
/// assert_eq!(factory.name(), "my-jsq");
/// ```
#[derive(Clone)]
pub struct NamedFactory {
    name: String,
    builder: BoxedBuilder,
}

impl NamedFactory {
    /// Creates a factory from a display name and a builder closure.
    pub fn new<F>(name: impl Into<String>, builder: F) -> Self
    where
        F: Fn(DispatcherId, &ClusterSpec) -> BoxedPolicy + Send + Sync + 'static,
    {
        NamedFactory {
            name: name.into(),
            builder: Arc::new(builder),
        }
    }
}

impl std::fmt::Debug for NamedFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedFactory")
            .field("name", &self.name)
            .finish()
    }
}

impl PolicyFactory for NamedFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        (self.builder)(dispatcher, spec)
    }
}

/// The cluster's rate-proportional alias table (`p_s ∝ µ_s`), built once and
/// shared by every dispatcher a factory builds for that cluster.
///
/// WR samples destinations from this table, and the `h*` variants
/// (hJSQ(d), hLSQ, hLED) sample probes from it. It depends only on the
/// rates, so the `m` dispatchers of a run can share one immutable copy
/// instead of holding `m`. The memo keeps the last cluster's rates and
/// table: a factory asked for a different cluster (another sweep cell, or
/// another shard's server subset) builds and keeps a new one. Clones of a
/// factory share its memo.
#[derive(Debug, Default, Clone)]
pub(crate) struct RateTable {
    last: Arc<Mutex<Option<RatesAndTable>>>,
}

/// A memo entry: the rates a table was built over, and the table.
type RatesAndTable = (Vec<f64>, Arc<AliasSampler>);

impl RateTable {
    /// The alias table over `spec`'s rates: the memoized one when `spec`
    /// has the rates of the last call, a freshly built one otherwise.
    pub(crate) fn for_cluster(&self, spec: &ClusterSpec) -> Arc<AliasSampler> {
        let lock = || self.last.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((rates, table)) = lock().as_ref() {
            if rates.as_slice() == spec.rates() {
                return Arc::clone(table);
            }
        }
        // Built outside the lock: concurrent shards asking for different
        // subsets do not wait on each other's O(n) builds.
        let table = RateTable::build(spec);
        *lock() = Some((spec.rates().to_vec(), Arc::clone(&table)));
        table
    }

    /// A fresh table over `spec`'s rates, memoized nowhere — for a policy
    /// built outside a factory.
    pub(crate) fn build(spec: &ClusterSpec) -> Arc<AliasSampler> {
        Arc::new(AliasSampler::new(spec.rates()).expect("cluster rates are strictly positive"))
    }
}

/// How an argmin-family policy (JSQ, SED, LSQ, LED, …) answers its repeated
/// "currently best server" queries while placing a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArgminMode {
    /// Tournament-tree indexed queue view: `O(n)` rebuild per batch, then
    /// `O(log n)` per placed job. The default.
    #[default]
    Indexed,
    /// Reference `O(n)`-per-job scan over the same `(key, priority, index)`
    /// order. Kept for equivalence testing and as the
    /// `BENCH_engine.json` apples-to-apples baseline.
    Scan,
}

/// Number of batches a warm [`BatchArgmin`] keeps one set of tie-breaking
/// priorities before redrawing them (the *priority epoch*).
///
/// Warm pickers draw their per-server priorities once per epoch instead of
/// once per batch: the point of random priorities is to decorrelate the
/// tie-breaking orders of *different dispatchers* (each has its own RNG
/// stream, hence its own priority permutation), and that holds whether the
/// permutation is redrawn every batch or every 64. Redrawing periodically
/// still guarantees that, *within* one dispatcher, no server is favored among
/// equal keys forever. Both warm modes (indexed and scan) apply the identical
/// refresh rule, so RNG consumption — and therefore every pick — stays
/// bit-identical between them.
pub const PRIORITY_EPOCH_BATCHES: u32 = 64;

/// The batch argmin engine shared by the argmin-family policies.
///
/// At the start of every batch, [`begin`](BatchArgmin::begin) draws one
/// random `u64` priority per server from the dispatcher's RNG — a uniformly
/// random tie-breaking order among equal keys, which plays the role
/// [`argmin_random_ties`] played in the scan-only implementation (random
/// tie-breaking prevents many dispatchers sharing one snapshot from
/// systematically piling onto low-index servers). Both modes then minimize
/// the identical composite key `(key, priority, index)` and consume the RNG
/// identically, so **indexed and scan dispatch pick the same servers for
/// equal seeds** — the engine-level reports are bit-identical.
///
/// # Warm batches
///
/// Policies whose keys change at only `O(probes + batch)` positions between
/// rounds (LSQ, LED) use [`begin_warm`](BatchArgmin::begin_warm) instead:
/// the tournament tree survives across batches, priorities are per *instance*
/// (redrawn every [`PRIORITY_EPOCH_BATCHES`] batches), and only the keys the
/// policy [marked dirty](BatchArgmin::mark_dirty) since the previous batch
/// are repaired — `O(dirty · log n)` instead of the `O(n)` per-batch rebuild.
/// The scan mode follows the same priority lifecycle, so it remains the
/// bit-identical oracle for the warm path too.
#[derive(Debug, Clone, Default)]
pub struct BatchArgmin {
    mode: ArgminMode,
    n: usize,
    prios: Vec<u64>,
    tree: TournamentTree,
    /// True when the warm state (priorities + tree) describes the current
    /// cluster; cleared by [`invalidate`](BatchArgmin::invalidate) and by any
    /// per-batch [`begin`](BatchArgmin::begin).
    warm_ready: bool,
    /// Batches since the warm priorities were last drawn.
    batches_in_epoch: u32,
    /// Slots whose keys changed since the last warm batch (deduplicated via
    /// `dirty_flags`).
    dirty: Vec<u32>,
    dirty_flags: Vec<bool>,
}

impl BatchArgmin {
    /// Creates the engine in the given mode.
    pub fn new(mode: ArgminMode) -> Self {
        BatchArgmin {
            mode,
            ..BatchArgmin::default()
        }
    }

    /// The active mode.
    pub fn mode(&self) -> ArgminMode {
        self.mode
    }

    /// Starts a batch over `n` servers: draws one priority per server (both
    /// modes, so RNG consumption is identical) and, in indexed mode, rebuilds
    /// the tournament from `key`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn begin<K>(&mut self, n: usize, key: K, rng: &mut dyn RngCore)
    where
        K: FnMut(usize) -> f64,
    {
        assert!(n > 0, "argmin over an empty cluster");
        self.n = n;
        self.warm_ready = false;
        self.dirty.clear();
        self.prios.clear();
        self.prios.extend((0..n).map(|_| rng.next_u64()));
        if self.mode == ArgminMode::Indexed {
            let prios = &self.prios;
            self.tree.rebuild(n, key, |i| prios[i]);
        }
    }

    /// Starts a *warm* batch over `n` servers.
    ///
    /// On the first call (or after [`invalidate`](BatchArgmin::invalidate), a
    /// cluster-size change, or a completed priority epoch) this draws fresh
    /// per-server priorities and, in indexed mode, rebuilds the tournament —
    /// exactly like [`begin`](BatchArgmin::begin). On every other call it
    /// consumes **no randomness** and repairs only the keys marked dirty
    /// since the previous batch. The refresh decision depends only on
    /// mode-independent state, so indexed and scan warm pickers consume the
    /// RNG identically and pick identical servers for equal seeds.
    ///
    /// `key` must reflect the policy's *current* keys; between warm batches
    /// the policy must [`mark_dirty`](BatchArgmin::mark_dirty) every slot
    /// whose key it changed outside [`update`](BatchArgmin::update).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn begin_warm<K>(&mut self, n: usize, key: K, rng: &mut dyn RngCore)
    where
        K: FnMut(usize) -> f64,
    {
        assert!(n > 0, "argmin over an empty cluster");
        let refresh =
            !self.warm_ready || self.n != n || self.batches_in_epoch >= PRIORITY_EPOCH_BATCHES;
        if refresh {
            self.n = n;
            self.prios.clear();
            self.prios.extend((0..n).map(|_| rng.next_u64()));
            self.batches_in_epoch = 0;
            self.warm_ready = true;
            self.dirty.clear();
            self.dirty_flags.clear();
            self.dirty_flags.resize(n, false);
            if self.mode == ArgminMode::Indexed {
                let prios = &self.prios;
                self.tree.rebuild(n, key, |i| prios[i]);
            }
        } else {
            if self.mode == ArgminMode::Indexed {
                self.tree.apply_updates(&self.dirty, key);
            }
            for &slot in &self.dirty {
                self.dirty_flags[slot as usize] = false;
            }
            self.dirty.clear();
        }
        self.batches_in_epoch += 1;
    }

    /// Records that `slot`'s key changed *between* warm batches (a probe
    /// overwrote a local estimate, an estimate decayed, ...). The repair is
    /// deferred to the next [`begin_warm`](BatchArgmin::begin_warm); marks
    /// are deduplicated, so marking is `O(1)` and idempotent. A no-op before
    /// the first warm batch or after an invalidation (the next warm batch
    /// rebuilds everything anyway).
    pub fn mark_dirty(&mut self, slot: usize) {
        if !self.warm_ready || slot >= self.dirty_flags.len() {
            return;
        }
        if !self.dirty_flags[slot] {
            self.dirty_flags[slot] = true;
            self.dirty.push(slot as u32);
        }
    }

    /// Discards all warm state; the next
    /// [`begin_warm`](BatchArgmin::begin_warm) redraws priorities and
    /// rebuilds from scratch. Policies call this when the cluster (rates or
    /// size) changes under them.
    pub fn invalidate(&mut self) {
        self.warm_ready = false;
        self.dirty.clear();
    }

    /// The server currently minimizing `(key, priority, index)`. The `key`
    /// closure is consulted only in scan mode (the tree already holds the
    /// keys); it must agree with the keys passed to
    /// [`begin`](BatchArgmin::begin) / [`update`](BatchArgmin::update).
    pub fn pick<K>(&self, key: K) -> usize
    where
        K: FnMut(usize) -> f64,
    {
        match self.mode {
            ArgminMode::Indexed => self.tree.argmin(),
            ArgminMode::Scan => scan_argmin(self.n, key, |i| self.prios[i]),
        }
    }

    /// Records that `slot`'s key changed (after the caller placed a job on
    /// it). `O(log n)` in indexed mode, free in scan mode.
    pub fn update(&mut self, slot: usize, key: f64) {
        if self.mode == ArgminMode::Indexed {
            self.tree.update_key(slot, key);
        }
    }

    /// Serializes the warm-epoch state (priorities + epoch counter) into an
    /// engine-checkpoint blob.
    ///
    /// The RNG-bearing warm state is exactly the per-instance priorities and
    /// the position within the priority epoch: losing them across a resume
    /// would force the next [`begin_warm`](BatchArgmin::begin_warm) onto the
    /// refresh branch, consuming `n` extra RNG draws the uninterrupted run
    /// never made. The tournament tree and dirty set are *not* written —
    /// [`restore_warm_state`](BatchArgmin::restore_warm_state) marks every
    /// slot dirty, so the first warm batch after a resume repairs the whole
    /// tree from the policy's live keys without touching the RNG.
    pub fn save_warm_state(&self, w: &mut StateWriter) {
        w.u8(u8::from(self.warm_ready));
        if self.warm_ready {
            w.u32(self.batches_in_epoch);
            w.u64s(&self.prios);
        }
    }

    /// Restores warm-epoch state captured by
    /// [`save_warm_state`](BatchArgmin::save_warm_state).
    ///
    /// After this call the next [`begin_warm`](BatchArgmin::begin_warm) with
    /// the same cluster size takes the non-refresh branch (consuming no
    /// randomness, exactly like the uninterrupted run) and repairs all keys
    /// from the live key closure, because every slot is marked dirty here.
    ///
    /// # Errors
    /// Returns a message when the blob is truncated or malformed.
    pub fn restore_warm_state(&mut self, r: &mut StateReader<'_>) -> Result<(), String> {
        match r.u8()? {
            0 => {
                self.invalidate();
                Ok(())
            }
            1 => {
                let batches_in_epoch = r.u32()?;
                let prios = r.u64s()?;
                if prios.is_empty() {
                    return Err("warm picker state covers zero servers".to_string());
                }
                let n = prios.len();
                self.n = n;
                self.prios = prios;
                self.batches_in_epoch = batches_in_epoch;
                self.warm_ready = true;
                if self.mode == ArgminMode::Indexed {
                    // Placeholder keys: every slot is marked dirty below, so
                    // the next begin_warm overwrites them from live keys.
                    let prios = &self.prios;
                    self.tree.rebuild(n, |_| 0.0, |i| prios[i]);
                }
                self.dirty = (0..n as u32).collect();
                self.dirty_flags = vec![true; n];
                Ok(())
            }
            other => Err(format!("invalid warm-ready flag byte {other}")),
        }
    }
}

/// Round tracker for a policy's persistent mirror of the engine's queue
/// snapshot (see [`sync_snapshot_mirror`]). Not checkpointed: a restored
/// policy starts unsynced and its first sync runs the same full compare
/// every round runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotSync {
    /// The round whose snapshot the mirror was last synced to.
    synced_round: Option<u64>,
}

/// Resyncs a policy's persistent local mirror of the true queue lengths to
/// this round's snapshot, marking every changed slot dirty on the warm
/// `picker`.
///
/// The mirror invariant this maintains: after syncing at round `t`, `local`
/// equals the round-`t` snapshot. Between syncs the policy overlays its own
/// in-batch placements on the mirror; one compare-and-mark pass over all `n`
/// slots repairs both those and the engine's queue changes. The pass marks
/// exactly the slots whose mirrored value changed and consumes no
/// randomness.
///
/// A cluster-size change resets the mirror and invalidates the picker.
/// Syncing twice in one round (observe + dispatch) is a no-op.
pub fn sync_snapshot_mirror(
    local: &mut Vec<u64>,
    picker: &mut BatchArgmin,
    sync: &mut SnapshotSync,
    ctx: &DispatchContext<'_>,
) {
    let queues = ctx.queue_lengths();
    let round = ctx.round();
    if local.len() != queues.len() {
        local.clear();
        local.extend_from_slice(queues);
        picker.invalidate();
        sync.synced_round = Some(round);
        return;
    }
    if sync.synced_round == Some(round) {
        return;
    }
    for (s, (mine, &truth)) in local.iter_mut().zip(queues).enumerate() {
        if *mine != truth {
            *mine = truth;
            picker.mark_dirty(s);
        }
    }
    sync.synced_round = Some(round);
}

/// Propagates this round's availability flips into a warm picker's dirty
/// set: a server that crashed or repaired changes its effective key (to or
/// from `+∞`) without a queue-length change, which the snapshot-diff sync of
/// [`sync_snapshot_mirror`] cannot see. Reads the **raw** availability mask
/// (not [`DispatchContext::active_mask`]) on purpose — when the last down
/// server repairs, the active mask disappears but the repaired slot still
/// needs re-keying. A no-op on the fair-weather path (no mask attached) and
/// before the first warm batch.
pub fn mark_availability_flips(picker: &mut BatchArgmin, ctx: &DispatchContext<'_>) {
    if let Some(avail) = ctx.availability() {
        for &s in avail.changed() {
            picker.mark_dirty(s as usize);
        }
    }
}

/// Returns the index minimizing `score`, breaking ties uniformly at random.
///
/// Random tie-breaking matters: with many dispatchers sharing the same
/// queue-length view, deterministic tie-breaking (e.g. lowest index) would
/// systematically overload low-index servers.
///
/// # Panics
/// Panics if `n == 0`.
pub fn argmin_random_ties<F>(n: usize, score: F, rng: &mut dyn RngCore) -> usize
where
    F: Fn(usize) -> f64,
{
    assert!(n > 0, "argmin over an empty range");
    let mut best = 0usize;
    let mut best_score = score(0);
    let mut ties = 1u32;
    for i in 1..n {
        let s = score(i);
        if s < best_score {
            best = i;
            best_score = s;
            ties = 1;
        } else if s == best_score {
            // Reservoir sampling over the tied set: replace with prob 1/ties.
            ties += 1;
            if rng.gen_range(0..ties) == 0 {
                best = i;
            }
        }
    }
    best
}

/// Samples `count` *distinct* indices uniformly from `0..n` (partial
/// Fisher-Yates). When `count >= n` every index is returned.
///
/// # Panics
/// Panics if `n == 0`.
pub fn sample_distinct(n: usize, count: usize, rng: &mut dyn RngCore) -> Vec<usize> {
    let mut pool = Vec::new();
    sample_distinct_into(n, count, &mut pool, rng);
    pool
}

/// Buffer-reusing variant of [`sample_distinct`]: fills `pool` with the
/// sampled indices, reusing its allocation. Consumes the RNG identically to
/// [`sample_distinct`].
///
/// # Panics
/// Panics if `n == 0`.
pub fn sample_distinct_into(n: usize, count: usize, pool: &mut Vec<usize>, rng: &mut dyn RngCore) {
    assert!(n > 0, "cannot sample from an empty range");
    pool.clear();
    pool.extend(0..n);
    if count >= n {
        return;
    }
    for i in 0..count {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rate_table_is_memoized_for_the_last_cluster() {
        let memo = RateTable::default();
        let spec = ClusterSpec::from_rates(vec![1.0, 2.0, 3.0]).unwrap();
        let first = memo.for_cluster(&spec);
        assert!(Arc::ptr_eq(&first, &memo.for_cluster(&spec.clone())));
        let other = ClusterSpec::from_rates(vec![1.0, 2.0, 4.0]).unwrap();
        let second = memo.for_cluster(&other);
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&second, &memo.for_cluster(&other)));
        // Only the last cluster is kept: going back rebuilds.
        assert!(!Arc::ptr_eq(&first, &memo.for_cluster(&spec)));
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn argmin_finds_unique_minimum() {
        let scores = [5.0, 2.0, 7.0, 2.5];
        let mut rng = StdRng::seed_from_u64(0);
        let idx = argmin_random_ties(4, |i| scores[i], &mut rng);
        assert_eq!(idx, 1);
    }

    #[test]
    fn argmin_breaks_ties_roughly_uniformly() {
        let scores = [1.0, 3.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..30_000 {
            counts[argmin_random_ties(4, |i| scores[i], &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        for &i in &[0usize, 2, 3] {
            let freq = counts[i] as f64 / 30_000.0;
            assert!((freq - 1.0 / 3.0).abs() < 0.02, "index {i}: {freq}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn argmin_on_empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        argmin_random_ties(0, |_| 0.0, &mut rng);
    }

    #[test]
    fn sample_distinct_returns_unique_indices() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let picks = sample_distinct(10, 4, &mut rng);
            assert_eq!(picks.len(), 4);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicates in {picks:?}");
            assert!(picks.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn sample_distinct_saturates_at_population_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let picks = sample_distinct(3, 10, &mut rng);
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    fn sample_distinct_covers_all_indices_over_time() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..500 {
            for p in sample_distinct(6, 2, &mut rng) {
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn batch_argmin_modes_agree_and_consume_rng_identically() {
        let mut keys = vec![3.0f64, 1.0, 1.0, 4.0, 1.0, 2.0];
        let mut keys2 = keys.clone();
        let mut indexed = BatchArgmin::new(ArgminMode::Indexed);
        let mut scan = BatchArgmin::new(ArgminMode::Scan);
        assert_eq!(indexed.mode(), ArgminMode::Indexed);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for _round in 0..50 {
            indexed.begin(keys.len(), |i| keys[i], &mut rng_a);
            scan.begin(keys2.len(), |i| keys2[i], &mut rng_b);
            for _job in 0..8 {
                let a = indexed.pick(|i| keys[i]);
                let b = scan.pick(|i| keys2[i]);
                assert_eq!(a, b, "indexed and scan picks diverged");
                keys[a] += 1.0;
                keys2[b] += 1.0;
                indexed.update(a, keys[a]);
                scan.update(b, keys2[b]);
            }
            // Both modes must have consumed the RNG identically.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn batch_argmin_ties_spread_over_batches() {
        // With all-equal keys the per-batch priorities act as a random
        // permutation: over many batches every server must win sometimes.
        let keys = [1.0f64; 5];
        let mut picker = BatchArgmin::new(ArgminMode::Indexed);
        let mut rng = StdRng::seed_from_u64(3);
        let mut wins = [0usize; 5];
        for _ in 0..2_000 {
            picker.begin(5, |i| keys[i], &mut rng);
            wins[picker.pick(|i| keys[i])] += 1;
        }
        for (i, &w) in wins.iter().enumerate() {
            let freq = w as f64 / 2_000.0;
            assert!((freq - 0.2).abs() < 0.04, "server {i} won {freq}");
        }
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn batch_argmin_rejects_empty_clusters() {
        let mut picker = BatchArgmin::new(ArgminMode::Indexed);
        let mut rng = StdRng::seed_from_u64(0);
        picker.begin(0, |_| 0.0, &mut rng);
    }

    /// The warm path's core guarantee: warm-indexed and warm-scan pickers
    /// driven through many batches — with out-of-batch key mutations marked
    /// dirty, crossing several priority epochs — pick identical servers and
    /// consume the RNG identically.
    #[test]
    fn warm_indexed_and_warm_scan_agree_across_epochs() {
        let mut case_rng = StdRng::seed_from_u64(0x77A2);
        for case in 0..20 {
            let n = case_rng.gen_range(1..30usize);
            let mut keys_a: Vec<f64> = (0..n).map(|_| case_rng.gen_range(0..6) as f64).collect();
            let mut keys_b = keys_a.clone();
            let seed = case_rng.gen::<u64>();
            let mut indexed = BatchArgmin::new(ArgminMode::Indexed);
            let mut scan = BatchArgmin::new(ArgminMode::Scan);
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut mut_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            // 3 * PRIORITY_EPOCH_BATCHES batches → at least two refreshes.
            for batch in 0..(3 * PRIORITY_EPOCH_BATCHES) {
                // Out-of-batch mutations (probes / decay), marked dirty.
                for _ in 0..mut_rng.gen_range(0..4usize) {
                    let slot = mut_rng.gen_range(0..n);
                    let value = mut_rng.gen_range(0..6) as f64;
                    keys_a[slot] = value;
                    keys_b[slot] = value;
                    indexed.mark_dirty(slot);
                    scan.mark_dirty(slot);
                }
                indexed.begin_warm(n, |i| keys_a[i], &mut rng_a);
                scan.begin_warm(n, |i| keys_b[i], &mut rng_b);
                for job in 0..mut_rng.gen_range(1..6usize) {
                    let a = indexed.pick(|i| keys_a[i]);
                    let b = scan.pick(|i| keys_b[i]);
                    assert_eq!(a, b, "case {case} batch {batch} job {job}");
                    keys_a[a] += 1.0;
                    keys_b[b] += 1.0;
                    indexed.update(a, keys_a[a]);
                    scan.update(b, keys_b[b]);
                }
                assert_eq!(
                    rng_a.gen::<u64>(),
                    rng_b.gen::<u64>(),
                    "case {case} batch {batch}: warm modes consumed the RNG differently"
                );
            }
        }
    }

    /// Warm batches consume randomness only at epoch boundaries; every other
    /// batch must leave the RNG untouched.
    #[test]
    fn warm_batches_draw_priorities_only_at_epoch_refresh() {
        let keys = [2.0f64, 1.0, 3.0];
        let mut picker = BatchArgmin::new(ArgminMode::Indexed);
        let mut rng = StdRng::seed_from_u64(9);
        picker.begin_warm(3, |i| keys[i], &mut rng);
        let mut probe = rng.clone();
        let expected = probe.gen::<u64>();
        for batch in 1..PRIORITY_EPOCH_BATCHES {
            picker.begin_warm(3, |i| keys[i], &mut rng);
            let mut check = rng.clone();
            assert_eq!(
                check.gen::<u64>(),
                expected,
                "batch {batch} consumed randomness mid-epoch"
            );
        }
        // The epoch is exhausted: the next warm batch redraws 3 priorities.
        picker.begin_warm(3, |i| keys[i], &mut rng);
        let mut check = rng.clone();
        assert_ne!(check.gen::<u64>(), expected);
    }

    /// A cluster-size change or an explicit invalidation forces a refresh on
    /// the next warm batch; dirty marks for the old cluster are discarded.
    #[test]
    fn warm_state_invalidation_forces_a_rebuild() {
        let keys4 = [4.0f64, 3.0, 2.0, 1.0];
        let keys2 = [5.0f64, 0.5];
        let mut picker = BatchArgmin::new(ArgminMode::Indexed);
        let mut rng = StdRng::seed_from_u64(11);
        picker.begin_warm(4, |i| keys4[i], &mut rng);
        assert_eq!(picker.pick(|i| keys4[i]), 3);
        picker.mark_dirty(2);
        // Shrink: the stale tree and the dirty mark must both be dropped.
        picker.begin_warm(2, |i| keys2[i], &mut rng);
        assert_eq!(picker.pick(|i| keys2[i]), 1);
        picker.invalidate();
        // mark_dirty after invalidation is a harmless no-op.
        picker.mark_dirty(0);
        picker.begin_warm(2, |i| keys2[i], &mut rng);
        assert_eq!(picker.pick(|i| keys2[i]), 1);
    }

    /// Checkpoint contract of the warm picker: a picker restored mid-epoch
    /// from saved warm state must pick the same servers *and* consume the
    /// RNG identically to the original continuing uninterrupted — including
    /// across the next epoch refresh.
    #[test]
    fn warm_state_save_restore_continues_bit_identically() {
        let mut keys_a = vec![3.0f64, 1.0, 4.0, 1.0, 5.0];
        let mut keys_b;
        let mut original = BatchArgmin::new(ArgminMode::Indexed);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        // Advance partway into an epoch, leaving the tree warm.
        for _ in 0..10 {
            original.begin_warm(5, |i| keys_a[i], &mut rng);
            let p = original.pick(|i| keys_a[i]);
            keys_a[p] += 1.0;
            original.update(p, keys_a[p]);
        }
        // Checkpoint: warm state + RNG state.
        let mut w = StateWriter::new();
        original.save_warm_state(&mut w);
        let blob = w.into_bytes();
        keys_b = keys_a.clone();
        let mut rng_b = StdRng::from_state(rng.state());
        let mut restored = BatchArgmin::new(ArgminMode::Indexed);
        let mut r = StateReader::new(&blob);
        restored.restore_warm_state(&mut r).unwrap();
        r.finish().unwrap();
        // Mutate a key out-of-batch on both sides (probe-style), then run
        // far enough to cross the next epoch refresh.
        keys_a[2] = 0.5;
        keys_b[2] = 0.5;
        original.mark_dirty(2);
        restored.mark_dirty(2);
        for batch in 0..(2 * PRIORITY_EPOCH_BATCHES) {
            original.begin_warm(5, |i| keys_a[i], &mut rng);
            restored.begin_warm(5, |i| keys_b[i], &mut rng_b);
            for job in 0..3 {
                let a = original.pick(|i| keys_a[i]);
                let b = restored.pick(|i| keys_b[i]);
                assert_eq!(a, b, "batch {batch} job {job}: restored pick diverged");
                keys_a[a] += 1.0;
                keys_b[b] += 1.0;
                original.update(a, keys_a[a]);
                restored.update(b, keys_b[b]);
            }
            assert_eq!(rng.gen::<u64>(), rng_b.gen::<u64>(), "batch {batch}");
        }
    }

    /// A cold picker round-trips as "not warm"; corrupt blobs are refused.
    #[test]
    fn warm_state_restore_rejects_corrupt_blobs() {
        let cold = BatchArgmin::new(ArgminMode::Indexed);
        let mut w = StateWriter::new();
        cold.save_warm_state(&mut w);
        let blob = w.into_bytes();
        let mut fresh = BatchArgmin::new(ArgminMode::Indexed);
        let mut r = StateReader::new(&blob);
        fresh.restore_warm_state(&mut r).unwrap();
        r.finish().unwrap();
        // Bad flag byte.
        let mut r = StateReader::new(&[9]);
        assert!(fresh.restore_warm_state(&mut r).is_err());
        // Warm flag with truncated body.
        let mut r = StateReader::new(&[1, 0, 0]);
        assert!(fresh.restore_warm_state(&mut r).is_err());
    }

    #[test]
    fn named_factory_builds_and_reports_name() {
        let factory = NamedFactory::new("test-jsq", |_d, _s| {
            Box::new(crate::jsq::JsqPolicy::new()) as BoxedPolicy
        });
        assert_eq!(factory.name(), "test-jsq");
        let spec = ClusterSpec::homogeneous(3, 1.0).unwrap();
        let policy = factory.build(DispatcherId::new(0), &spec);
        assert_eq!(policy.policy_name(), "JSQ");
        assert!(format!("{factory:?}").contains("test-jsq"));
    }
}
