//! Per-round shared compute cache.
//!
//! Within one simulation round every dispatcher observes the *same* queue
//! snapshot and the *same* (static) service rates, so the derived tables the
//! decision procedures consume — reciprocal rates `1/µ_s`, loads `q_s/µ_s`
//! (Algorithm 3's water-filling inputs) and the Corollary 1 candidate keys
//! `(2q_s + 1)/µ_s` — are identical across all `m` dispatchers. Before this
//! cache existed every policy instance recomputed them privately, paying the
//! `O(n)` setup `m` times per round.
//!
//! A [`RoundCache`] is owned by the simulation engine, refreshed **once** at
//! the start of each round ([`RoundCache::begin_round`]), and handed to every
//! dispatcher as an immutable view through
//! [`DispatchContext::with_cache`](crate::DispatchContext::with_cache).
//! Dispatcher independence is preserved: policies only *read* the tables, and
//! every per-dispatcher quantity (arrival estimates, local queue copies,
//! RNG streams) stays inside the policy objects.
//!
//! The tables are computed with exactly the arithmetic the policies would use
//! privately (`1.0/µ`, then multiplications by the reciprocal), so runs with
//! and without the cache are **bit-identical** — the property the engine
//! equivalence tests pin down.
//!
//! # The per-round solver memo
//!
//! Beyond the derived tables, the cache carries a *solver memo*: within one
//! round, a dispatcher's SCD solve is a pure function of `(queue snapshot,
//! rates, a_est, solver kind)` — and the snapshot and rates are fixed for
//! the round. With `m` dispatchers whose batch-size estimates collide (the
//! common case under the paper's `a_est = m·a(d)` estimator at equal
//! arrival rates), up to `m` identical Algorithm-1/4 solves per round dedupe
//! to one solve per *distinct* estimate. The memo is engine-owned,
//! invalidated by [`begin_round`](RoundCache::begin_round), and accessed
//! through interior mutability ([`std::cell::RefCell`]) so policies can
//! populate it through the same shared immutable view they read the tables
//! from. Dispatcher independence is preserved: the memo is a pure function
//! cache — a hit returns bit-for-bit the vector a fresh solve would produce,
//! never any policy's private state.

/// The reciprocal-rate table `inv[s] = 1.0/µ_s`, as a fresh vector.
///
/// Every reciprocal-rate table in the workspace (the [`RoundCache`], the SCD
/// solver scratch, the SED/LSQ/LED key functions) is built from this one
/// expression — the cached/uncached equivalence guarantees depend on every
/// reciprocal being computed as exactly `1.0/µ`.
pub fn reciprocal_rates(rates: &[f64]) -> Vec<f64> {
    rates.iter().map(|&mu| 1.0 / mu).collect()
}

/// Refreshes a cached reciprocal-rate table (`inv[s] = 1.0/µ_s`) if `rates`
/// changed since the last call, using `snapshot` as the change detector.
/// Policies and scratches that keep a `(snapshot, inv)` pair across rounds
/// ([`RoundCache`], the SCD solver scratch, the SED policy) all refresh it
/// through here.
pub fn refresh_reciprocal_rates(snapshot: &mut Vec<f64>, inv: &mut Vec<f64>, rates: &[f64]) {
    if snapshot != rates {
        snapshot.clear();
        snapshot.extend_from_slice(rates);
        inv.clear();
        inv.extend(rates.iter().map(|&mu| 1.0 / mu));
    }
}

/// How much of the shared per-round cache a policy consumes; the engine
/// refreshes only what the most demanding policy of the run declares
/// (ordering: `None < ReciprocalRates < SolverTables`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CacheDemand {
    /// The policy never reads the cache (the default).
    #[default]
    None,
    /// Only [`RoundCache::inv_rates`] — static per run, refreshed for free.
    ReciprocalRates,
    /// The full per-round tables: [`RoundCache::loads`] and
    /// [`RoundCache::scd_keys`] too (two `O(n)` fills per round).
    SolverTables,
}

/// Upper bound on live solver-memo entries per round. One entry exists per
/// distinct `(a_est, kind)` pair, which is bounded by the dispatcher count;
/// the cap keeps the linear memo scan cheap for very wide systems (excess
/// distinct estimates simply solve unmemoized).
const SOLVER_MEMO_CAP: usize = 32;

/// Warm-start seeds for an iterative solver, plus accept/fallback counters.
///
/// The cells are opaque to this crate: the SCD solver (in `scd-core`) stores
/// the previous solve's water level and Lagrange multiplier here and uses
/// them to seed the next solve's trimming iterations. Seeds are **hints, not
/// state**: every use is verified against the current inputs and discarded
/// on verification failure, so a stale (or adversarial) seed can cost time
/// but never change a result. They therefore survive
/// [`RoundCache::begin_round`] deliberately — the previous round's level is
/// exactly the warm start the next round wants.
///
/// Interior mutability (like the solver memo) lets the solver update the
/// seeds through the shared immutable view policies hold.
#[derive(Debug, Clone, Default)]
pub struct WarmSeeds {
    level: std::cell::Cell<Option<f64>>,
    lambda: std::cell::Cell<Option<f64>>,
    /// `(Σ_S q, Σ_S µ, |S|)` of the last accepted level's active set,
    /// valid only within the round (generation) it was computed in: the
    /// sums read the round's queue snapshot, which the next `begin_round*`
    /// invalidates.
    level_sums: std::cell::Cell<Option<(f64, f64, usize)>>,
    /// The cache generation `level_sums` belongs to.
    sums_generation: std::cell::Cell<u64>,
    /// Bumped by the owner on every round refresh (see
    /// [`RoundCache::begin_round_for`]).
    generation: std::cell::Cell<u64>,
    accepts: std::cell::Cell<u64>,
    fallbacks: std::cell::Cell<u64>,
}

impl WarmSeeds {
    /// Creates empty seeds (first use always takes the cold path).
    pub fn new() -> Self {
        WarmSeeds::default()
    }

    /// The previous solve's water level, if any.
    pub fn level(&self) -> Option<f64> {
        self.level.get()
    }

    /// Stores the accepted water level for the next solve.
    pub fn set_level(&self, level: f64) {
        self.level.set(Some(level));
    }

    /// The previous solve's Lagrange multiplier, if any.
    pub fn lambda(&self) -> Option<f64> {
        self.lambda.get()
    }

    /// Stores the accepted multiplier for the next solve.
    pub fn set_lambda(&self, lambda: f64) {
        self.lambda.set(Some(lambda));
    }

    /// The `(Σ_S q, Σ_S µ, |S|)` sums of the last accepted level's active
    /// set, if they were recorded **in the current generation** (i.e. for
    /// this round's snapshot). Within one round the snapshot is fixed, so a
    /// later solve of the same round can derive its level candidate from
    /// these sums in `O(1)` instead of a membership pass.
    pub fn level_sums(&self) -> Option<(f64, f64, usize)> {
        if self.sums_generation.get() == self.generation.get() {
            self.level_sums.get()
        } else {
            None
        }
    }

    /// Records the accepted level's active-set sums for the current
    /// generation.
    pub fn set_level_sums(&self, sq: f64, smu: f64, count: usize) {
        self.level_sums.set(Some((sq, smu, count)));
        self.sums_generation.set(self.generation.get());
    }

    /// Starts a new generation (round): in-round caches like
    /// [`level_sums`](WarmSeeds::level_sums) become stale; the cross-round
    /// seeds (level, lambda) stay.
    pub fn advance_generation(&self) {
        self.generation.set(self.generation.get().wrapping_add(1));
    }

    /// Counts one verified warm solve.
    pub fn record_accept(&self) {
        self.accepts.set(self.accepts.get() + 1);
    }

    /// Counts one rejected warm attempt (the solve fell back to cold).
    pub fn record_fallback(&self) {
        self.fallbacks.set(self.fallbacks.get() + 1);
    }

    /// Cumulative `(accepts, fallbacks)` over this seed store's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.accepts.get(), self.fallbacks.get())
    }

    /// Drops the seeds (counters survive); the next solve runs cold.
    pub fn clear(&self) {
        self.level.set(None);
        self.lambda.set(None);
        self.level_sums.set(None);
    }
}

/// One memoized per-round solver result.
#[derive(Debug, Clone, Default)]
struct SolverMemoEntry {
    /// The estimate the solve was keyed by (compared bit-for-bit).
    a_est: f64,
    /// Caller-chosen discriminant for the solver algorithm.
    kind: u8,
    /// The ideal workload the solve produced.
    iwl: f64,
    /// The probability vector the solve produced.
    probabilities: Vec<f64>,
    /// The alias table built from `probabilities`, once some dispatcher
    /// attached it ([`RoundCache::sampler_memo_attach`]); later dispatchers
    /// with the same estimate copy the finished table instead of rebuilding
    /// it.
    sampler: crate::sampler::AliasSampler,
    /// Whether `sampler` holds the table for this entry's probabilities.
    has_sampler: bool,
    /// Whether `sampler` is a **class-level** table over the round's
    /// [`ClassPartition`](crate::ClassPartition) (its columns are class
    /// indices, resolved to servers by a second uniform member draw) rather
    /// than a per-server table. Per-server consumers must never draw from a
    /// class table and vice versa — the lookup paths filter on this flag.
    class_sampler: bool,
}

/// Derived per-round tables shared (read-only) by all dispatchers of a round.
///
/// All buffers are reused across rounds; after the first round at a given
/// cluster size [`begin_round`](RoundCache::begin_round) performs no heap
/// allocations. The reciprocal rates are recomputed only when the rates
/// change, which happens once per simulation run.
///
/// # Example
/// ```
/// use scd_model::RoundCache;
/// let mut cache = RoundCache::new();
/// cache.begin_round(&[3, 0], &[2.0, 1.0]);
/// assert_eq!(cache.inv_rates(), &[0.5, 1.0]);
/// assert_eq!(cache.loads(), &[1.5, 0.0]);
/// assert_eq!(cache.scd_keys(), &[3.5, 1.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundCache {
    /// The rates the reciprocals were computed for (change detector).
    rates_snapshot: Vec<f64>,
    /// Reciprocal rates `1/µ_s`.
    inv_rates: Vec<f64>,
    /// Loads `q_s/µ_s` (computed as `q_s · (1/µ_s)`).
    loads: Vec<f64>,
    /// Corollary 1 candidate keys `(2q_s + 1)/µ_s` (same reciprocal trick).
    scd_keys: Vec<f64>,
    /// The queue snapshot the tables were last refreshed from; the class
    /// partition is built from it.
    queues_snapshot: Vec<u64>,
    /// Warm-start seeds for the SCD solver (see [`WarmSeeds`]).
    warm: WarmSeeds,
    /// Per-round solver memo (see the module docs). Entries beyond
    /// `memo_live` are dead but keep their buffers for reuse.
    memo: std::cell::RefCell<Vec<SolverMemoEntry>>,
    /// Number of live memo entries this round.
    memo_live: std::cell::Cell<usize>,
    /// Cumulative (per cache lifetime, i.e. per run) memo hit counter.
    memo_hits: std::cell::Cell<u64>,
    /// Cumulative memo miss counter.
    memo_misses: std::cell::Cell<u64>,
    /// The round's `(rate, q)` class partition
    /// ([`ClassPartition`](crate::ClassPartition)), built lazily on the
    /// first [`class_partition`](RoundCache::class_partition) call of a
    /// round through the same interior mutability the memo uses.
    classes: std::cell::RefCell<crate::ClassPartition>,
    /// The `round_generation` the partition was last built for.
    classes_generation: std::cell::Cell<u64>,
    /// Bumped by every `begin_round*`; 0 means "no round begun yet".
    round_generation: std::cell::Cell<u64>,
}

impl RoundCache {
    /// Creates an empty cache; call
    /// [`begin_round`](RoundCache::begin_round) before reading any table.
    pub fn new() -> Self {
        RoundCache::default()
    }

    /// Recomputes all per-round tables from this round's queue snapshot
    /// (equivalent to [`begin_round_for`](RoundCache::begin_round_for) with
    /// [`CacheDemand::SolverTables`]).
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length.
    pub fn begin_round(&mut self, queues: &[u64], rates: &[f64]) {
        self.begin_round_for(queues, rates, CacheDemand::SolverTables);
    }

    /// Recomputes the per-round tables a run actually consumes: with
    /// [`CacheDemand::ReciprocalRates`] only the (static) reciprocal rates
    /// are kept fresh and the per-round solver tables are cleared, so a
    /// policy reading beyond its declared demand fails loudly instead of
    /// seeing stale data.
    ///
    /// # Panics
    /// Panics if `queues` and `rates` differ in length.
    pub fn begin_round_for(&mut self, queues: &[u64], rates: &[f64], demand: CacheDemand) {
        assert_eq!(
            queues.len(),
            rates.len(),
            "queue-length and rate vectors must describe the same cluster"
        );
        refresh_reciprocal_rates(&mut self.rates_snapshot, &mut self.inv_rates, rates);
        // The memoized solves (and the warm in-round sums) describe the
        // previous round's snapshot.
        self.memo_live.set(0);
        self.warm.advance_generation();
        self.round_generation
            .set(self.round_generation.get().wrapping_add(1));
        self.queues_snapshot.clear();
        self.queues_snapshot.extend_from_slice(queues);
        self.loads.clear();
        self.scd_keys.clear();
        if demand < CacheDemand::SolverTables {
            return;
        }
        self.loads.extend(
            queues
                .iter()
                .zip(&self.inv_rates)
                .map(|(&q, &inv_mu)| q as f64 * inv_mu),
        );
        self.scd_keys.extend(
            queues
                .iter()
                .zip(&self.inv_rates)
                .map(|(&q, &inv_mu)| (2.0 * q as f64 + 1.0) * inv_mu),
        );
    }

    /// The warm-start seed store the SCD solver shares across rounds (see
    /// [`WarmSeeds`]). Seeds survive `begin_round*` on purpose — they are
    /// verified hints, not per-round state.
    pub fn warm_seeds(&self) -> &WarmSeeds {
        &self.warm
    }

    /// Number of servers the tables describe.
    pub fn num_servers(&self) -> usize {
        self.inv_rates.len()
    }

    /// Reciprocal rates `1/µ_s`.
    pub fn inv_rates(&self) -> &[f64] {
        &self.inv_rates
    }

    /// Loads `q_s/µ_s` of the current round's snapshot.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Corollary 1 candidate keys `(2q_s + 1)/µ_s` of the current snapshot.
    pub fn scd_keys(&self) -> &[f64] {
        &self.scd_keys
    }

    /// Looks up a memoized solver result for this round.
    ///
    /// On a hit, copies the memoized probability vector into `out` (cleared
    /// first) and returns the memoized ideal workload — bit-for-bit what the
    /// corresponding fresh solve produced. `a_est` is compared by bit
    /// pattern; `kind` is an opaque discriminant chosen by the caller (the
    /// solver crate tags its algorithms). Hits and misses are counted; see
    /// [`solver_memo_stats`](RoundCache::solver_memo_stats).
    ///
    /// Only valid between [`begin_round`](RoundCache::begin_round) calls:
    /// the memo is keyed by `(a_est, kind)` alone because the remaining
    /// solver inputs (snapshot, rates) are fixed within a round.
    pub fn solver_memo_lookup(&self, a_est: f64, kind: u8, out: &mut Vec<f64>) -> Option<f64> {
        let memo = self.memo.borrow();
        for entry in &memo[..self.memo_live.get()] {
            if entry.kind == kind && entry.a_est.to_bits() == a_est.to_bits() {
                if entry.probabilities.is_empty() {
                    // The entry was created by the dispatch-kernel path
                    // ([`sampler_memo_build_draw`](RoundCache::sampler_memo_build_draw)),
                    // which stores only the finished table: there is no
                    // distribution to return, so report a miss and let the
                    // caller re-solve instead of handing back an empty
                    // vector. (A solved distribution always has one entry
                    // per server, so emptiness is an unambiguous marker.)
                    break;
                }
                out.clear();
                out.extend_from_slice(&entry.probabilities);
                self.memo_hits.set(self.memo_hits.get() + 1);
                return Some(entry.iwl);
            }
        }
        self.memo_misses.set(self.memo_misses.get() + 1);
        None
    }

    /// Stores one solver result in the per-round memo, reusing a dead
    /// entry's buffer when available. Beyond a fixed cap of live entries
    /// (32 — one entry exists per distinct estimate, bounded by the
    /// dispatcher count) the store is silently dropped; later equal
    /// estimates simply solve again.
    pub fn solver_memo_store(&self, a_est: f64, kind: u8, iwl: f64, probabilities: &[f64]) {
        let live = self.memo_live.get();
        if live >= SOLVER_MEMO_CAP {
            return;
        }
        let mut memo = self.memo.borrow_mut();
        if live < memo.len() {
            let entry = &mut memo[live];
            entry.a_est = a_est;
            entry.kind = kind;
            entry.iwl = iwl;
            entry.probabilities.clear();
            entry.probabilities.extend_from_slice(probabilities);
            entry.has_sampler = false;
            entry.class_sampler = false;
        } else {
            memo.push(SolverMemoEntry {
                a_est,
                kind,
                iwl,
                probabilities: probabilities.to_vec(),
                sampler: crate::sampler::AliasSampler::default(),
                has_sampler: false,
                class_sampler: false,
            });
        }
        self.memo_live.set(live + 1);
    }

    /// Draws `batch` destinations straight from the memoized **alias
    /// table** for `(a_est, kind)`, with zero copying: the table lives
    /// inside the memo entry ([`sampler_memo_build_draw`]) and the draws
    /// are bit-identical to draws from any private rebuild of the same
    /// probabilities. Returns the memoized ideal workload on a hit; `None`
    /// when no entry (or no table) exists — the caller solves and calls
    /// [`sampler_memo_build_draw`](RoundCache::sampler_memo_build_draw).
    ///
    /// Hits count toward [`solver_memo_stats`](RoundCache::solver_memo_stats);
    /// misses are not counted here (the caller's fallback path counts its
    /// own lookup).
    ///
    /// [`sampler_memo_build_draw`]: RoundCache::sampler_memo_build_draw
    pub fn sampler_memo_draw(
        &self,
        a_est: f64,
        kind: u8,
        batch: usize,
        out: &mut Vec<crate::ServerId>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<f64> {
        let memo = self.memo.borrow();
        for entry in &memo[..self.memo_live.get()] {
            if entry.kind == kind && entry.a_est.to_bits() == a_est.to_bits() {
                if !entry.has_sampler || entry.class_sampler {
                    // No table yet, or a class-level table whose columns are
                    // class indices — either way this per-server consumer
                    // must solve for itself.
                    return None;
                }
                out.extend((0..batch).map(|_| crate::ServerId::new(entry.sampler.sample(rng))));
                self.memo_hits.set(self.memo_hits.get() + 1);
                return Some(entry.iwl);
            }
        }
        None
    }

    /// Builds the alias table for `(a_est, kind)` **in place inside a fresh
    /// memo entry** — via [`AliasSampler::rebuild_with_total`] when the
    /// caller knows the exact index-order weight sum, the validating
    /// [`AliasSampler::rebuild`] otherwise — draws `batch` destinations
    /// from it, and returns `true`. Returns `false` without drawing when
    /// the memo is at capacity (the caller builds a private table instead).
    ///
    /// The created entry carries an **empty probability vector**: dispatch
    /// consumers share finished tables, so storing the distribution twice
    /// would be pure copying cost.
    /// [`solver_memo_lookup`](RoundCache::solver_memo_lookup) treats such
    /// an entry as a miss (emptiness is unambiguous — a solved
    /// distribution always has one entry per server), so mixing the two
    /// consumption styles under one key is safe, merely unshared.
    ///
    /// [`AliasSampler::rebuild_with_total`]: crate::AliasSampler::rebuild_with_total
    /// [`AliasSampler::rebuild`]: crate::AliasSampler::rebuild
    #[allow(clippy::too_many_arguments)] // engine-facing dispatch path: full decision state
    pub fn sampler_memo_build_draw(
        &self,
        a_est: f64,
        kind: u8,
        iwl: f64,
        weights: &[f64],
        total: Option<f64>,
        batch: usize,
        out: &mut Vec<crate::ServerId>,
        rng: &mut dyn rand::RngCore,
    ) -> bool {
        let live = self.memo_live.get();
        if live >= SOLVER_MEMO_CAP {
            return false;
        }
        let mut memo = self.memo.borrow_mut();
        if live >= memo.len() {
            memo.push(SolverMemoEntry::default());
        }
        let entry = &mut memo[live];
        entry.a_est = a_est;
        entry.kind = kind;
        entry.iwl = iwl;
        entry.probabilities.clear();
        match total {
            Some(total) if total > 0.0 => entry.sampler.rebuild_with_total(weights, total),
            _ => {
                if entry.sampler.rebuild(weights).is_err() {
                    // Degenerate weights cannot come out of a successful
                    // solve; refuse the entry and let the caller's private
                    // rebuild surface the error.
                    return false;
                }
            }
        }
        entry.has_sampler = true;
        entry.class_sampler = false;
        self.memo_live.set(live + 1);
        out.extend((0..batch).map(|_| crate::ServerId::new(entry.sampler.sample(rng))));
        true
    }

    /// The round's `(rate, q)` class partition
    /// ([`ClassPartition`](crate::ClassPartition)), built lazily from the
    /// cache's own tracked snapshot on the first call of each round and
    /// shared by every later caller of the round. Returns `None` when the
    /// snapshot is not viable for compression (see the partition's module
    /// docs) or no round has begun — the decision is a pure function of the
    /// round state, so resumed and sharded replays agree on it.
    pub fn class_partition(&self) -> Option<std::cell::Ref<'_, crate::ClassPartition>> {
        let round = self.round_generation.get();
        if self.classes_generation.get() != round {
            let mut part = self.classes.borrow_mut();
            part.build(&self.queues_snapshot, &self.rates_snapshot);
            drop(part);
            self.classes_generation.set(round);
        }
        let part = self.classes.borrow();
        if part.is_built() {
            Some(part)
        } else {
            None
        }
    }

    /// Draws `batch` destinations from the memoized **class-level alias
    /// table** for `(a_est, kind)`: per job, one alias draw picks a class
    /// and one further `u64` picks a uniform member of that class through
    /// the round's [`class_partition`](RoundCache::class_partition).
    /// Returns the memoized ideal workload on a hit; `None` when no
    /// class-table entry exists (per-server entries under the same key are
    /// skipped — the flags keep the two consumption styles apart).
    ///
    /// # Panics
    /// Debug builds panic if the partition was not built this round (a
    /// class entry can only have been stored through
    /// [`class_sampler_memo_build_draw`](RoundCache::class_sampler_memo_build_draw),
    /// which requires it).
    pub fn class_sampler_memo_draw(
        &self,
        a_est: f64,
        kind: u8,
        batch: usize,
        out: &mut Vec<crate::ServerId>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<f64> {
        let memo = self.memo.borrow();
        for entry in &memo[..self.memo_live.get()] {
            if entry.kind == kind && entry.a_est.to_bits() == a_est.to_bits() {
                if !entry.has_sampler || !entry.class_sampler {
                    return None;
                }
                let part = self.classes.borrow();
                debug_assert!(
                    part.is_built(),
                    "class memo entry stored without a built partition"
                );
                out.extend((0..batch).map(|_| {
                    let class = entry.sampler.sample(rng);
                    crate::ServerId::new(part.member(class, rng.next_u64()) as usize)
                }));
                self.memo_hits.set(self.memo_hits.get() + 1);
                return Some(entry.iwl);
            }
        }
        None
    }

    /// Builds a **class-level** alias table for `(a_est, kind)` in place
    /// inside a fresh memo entry (the class-partition counterpart of
    /// [`sampler_memo_build_draw`](RoundCache::sampler_memo_build_draw)),
    /// draws `batch` destinations through the two-level scheme of
    /// [`class_sampler_memo_draw`](RoundCache::class_sampler_memo_draw),
    /// and returns `true`. Returns `false` without drawing when the memo is
    /// at capacity or the weights are degenerate (the caller builds a
    /// private table instead). `weights` must be indexed by canonical class
    /// order; the partition must have been built this round.
    #[allow(clippy::too_many_arguments)] // engine-facing dispatch path: full decision state
    pub fn class_sampler_memo_build_draw(
        &self,
        a_est: f64,
        kind: u8,
        iwl: f64,
        weights: &[f64],
        total: Option<f64>,
        batch: usize,
        out: &mut Vec<crate::ServerId>,
        rng: &mut dyn rand::RngCore,
    ) -> bool {
        let live = self.memo_live.get();
        if live >= SOLVER_MEMO_CAP {
            return false;
        }
        let mut memo = self.memo.borrow_mut();
        if live >= memo.len() {
            memo.push(SolverMemoEntry::default());
        }
        let entry = &mut memo[live];
        entry.a_est = a_est;
        entry.kind = kind;
        entry.iwl = iwl;
        entry.probabilities.clear();
        match total {
            Some(total) if total > 0.0 => entry.sampler.rebuild_with_total(weights, total),
            _ => {
                if entry.sampler.rebuild(weights).is_err() {
                    return false;
                }
            }
        }
        entry.has_sampler = true;
        entry.class_sampler = true;
        self.memo_live.set(live + 1);
        let part = self.classes.borrow();
        debug_assert!(
            part.is_built(),
            "class tables require a built partition for the member draws"
        );
        out.extend((0..batch).map(|_| {
            let class = entry.sampler.sample(rng);
            crate::ServerId::new(part.member(class, rng.next_u64()) as usize)
        }));
        true
    }

    /// Cumulative `(hits, misses)` of the solver memo over this cache's
    /// lifetime (i.e. over a simulation run — the counters survive
    /// [`begin_round`](RoundCache::begin_round), only the entries are
    /// invalidated).
    pub fn solver_memo_stats(&self) -> (u64, u64) {
        (self.memo_hits.get(), self.memo_misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_private_computation() {
        let queues = [4u64, 0, 7];
        let rates = [2.0, 0.5, 7.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&queues, &rates);
        assert_eq!(cache.num_servers(), 3);
        for s in 0..3 {
            let inv = 1.0 / rates[s];
            // Bit-identical, not merely close: the cache must reproduce the
            // exact expression policies used privately.
            assert_eq!(cache.inv_rates()[s], inv);
            assert_eq!(cache.loads()[s], queues[s] as f64 * inv);
            assert_eq!(cache.scd_keys()[s], (2.0 * queues[s] as f64 + 1.0) * inv);
        }
    }

    #[test]
    fn rounds_refresh_loads_but_not_reciprocals() {
        let rates = [2.0, 4.0];
        let mut cache = RoundCache::new();
        cache.begin_round(&[0, 0], &rates);
        let inv_before = cache.inv_rates().to_vec();
        cache.begin_round(&[5, 1], &rates);
        assert_eq!(cache.inv_rates(), &inv_before[..]);
        assert_eq!(cache.loads(), &[2.5, 0.25]);
    }

    #[test]
    fn rate_changes_rebuild_the_reciprocals() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[1], &[2.0]);
        assert_eq!(cache.inv_rates(), &[0.5]);
        cache.begin_round(&[1, 1], &[2.0, 8.0]);
        assert_eq!(cache.inv_rates(), &[0.5, 0.125]);
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn mismatched_lengths_panic() {
        RoundCache::new().begin_round(&[1, 2], &[1.0]);
    }

    #[test]
    fn reciprocal_only_demand_skips_and_clears_solver_tables() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[3, 1], &[2.0, 1.0]);
        assert_eq!(cache.loads().len(), 2);
        // A reciprocal-only round keeps inv_rates fresh but empties the
        // per-round tables so out-of-contract reads fail loudly.
        cache.begin_round_for(&[4, 2], &[2.0, 1.0], CacheDemand::ReciprocalRates);
        assert_eq!(cache.inv_rates(), &[0.5, 1.0]);
        assert!(cache.loads().is_empty());
        assert!(cache.scd_keys().is_empty());
    }

    #[test]
    fn cache_demand_orders_none_below_reciprocals_below_tables() {
        assert!(CacheDemand::None < CacheDemand::ReciprocalRates);
        assert!(CacheDemand::ReciprocalRates < CacheDemand::SolverTables);
        assert_eq!(CacheDemand::default(), CacheDemand::None);
    }

    #[test]
    fn solver_memo_round_trips_and_counts() {
        let cache = RoundCache::new();
        let mut out = Vec::new();
        assert_eq!(cache.solver_memo_lookup(6.0, 0, &mut out), None);
        cache.solver_memo_store(6.0, 0, 1.25, &[0.5, 0.5]);
        assert_eq!(cache.solver_memo_lookup(6.0, 0, &mut out), Some(1.25));
        assert_eq!(out, vec![0.5, 0.5]);
        // Different kind or different estimate: miss.
        assert_eq!(cache.solver_memo_lookup(6.0, 1, &mut out), None);
        assert_eq!(cache.solver_memo_lookup(7.0, 0, &mut out), None);
        assert_eq!(cache.solver_memo_stats(), (1, 3));
    }

    #[test]
    fn begin_round_invalidates_memo_entries_but_keeps_counters() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[1, 2], &[1.0, 2.0]);
        cache.solver_memo_store(4.0, 0, 2.0, &[1.0, 0.0]);
        let mut out = Vec::new();
        assert!(cache.solver_memo_lookup(4.0, 0, &mut out).is_some());
        cache.begin_round(&[3, 2], &[1.0, 2.0]);
        // New round, same estimate: the old solve no longer applies.
        assert_eq!(cache.solver_memo_lookup(4.0, 0, &mut out), None);
        assert_eq!(cache.solver_memo_stats(), (1, 1));
    }

    #[test]
    fn solver_memo_store_saturates_at_the_cap() {
        let cache = RoundCache::new();
        let mut out = Vec::new();
        for i in 0..(SOLVER_MEMO_CAP + 5) {
            cache.solver_memo_store(i as f64, 0, 0.0, &[1.0]);
        }
        // Entries within the cap are retrievable; the overflow was dropped.
        assert!(cache
            .solver_memo_lookup((SOLVER_MEMO_CAP - 1) as f64, 0, &mut out)
            .is_some());
        assert!(cache
            .solver_memo_lookup(SOLVER_MEMO_CAP as f64, 0, &mut out)
            .is_none());
    }

    #[test]
    fn warm_seeds_round_trip_and_survive_rounds() {
        let mut cache = RoundCache::new();
        cache.begin_round(&[1, 2], &[1.0, 2.0]);
        assert_eq!(cache.warm_seeds().level(), None);
        cache.warm_seeds().set_level(1.25);
        cache.warm_seeds().set_lambda(-0.5);
        cache.warm_seeds().record_accept();
        cache.warm_seeds().record_fallback();
        // Seeds are verified hints: they deliberately survive the per-round
        // invalidation that clears the solver memo.
        cache.begin_round(&[5, 2], &[1.0, 2.0]);
        assert_eq!(cache.warm_seeds().level(), Some(1.25));
        assert_eq!(cache.warm_seeds().lambda(), Some(-0.5));
        assert_eq!(cache.warm_seeds().stats(), (1, 1));
        cache.warm_seeds().clear();
        assert_eq!(cache.warm_seeds().level(), None);
        assert_eq!(cache.warm_seeds().stats(), (1, 1), "counters survive clear");
    }

    #[test]
    fn probability_lookup_misses_sampler_only_entries() {
        // The dispatch kernel stores table-only entries (empty probability
        // vector); a probability-memo consumer hitting the same key must
        // see a miss and re-solve, never an empty distribution.
        use rand::SeedableRng;
        let mut cache = RoundCache::new();
        cache.begin_round(&[3, 1], &[2.0, 1.0]);
        let mut out = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut draws = Vec::new();
        assert!(cache.sampler_memo_build_draw(
            6.0,
            0,
            1.25,
            &[0.5, 0.5],
            None,
            4,
            &mut draws,
            &mut rng
        ));
        assert_eq!(draws.len(), 4);
        assert_eq!(
            cache.solver_memo_lookup(6.0, 0, &mut out),
            None,
            "table-only entries must not satisfy probability lookups"
        );
        // The table itself keeps serving draws.
        assert!(cache
            .sampler_memo_draw(6.0, 0, 2, &mut draws, &mut rng)
            .is_some());
    }

    #[test]
    fn reciprocal_helper_matches_the_refresh_path() {
        let rates = [2.0, 0.5, 7.0];
        let fresh = reciprocal_rates(&rates);
        let mut snapshot = Vec::new();
        let mut inv = Vec::new();
        refresh_reciprocal_rates(&mut snapshot, &mut inv, &rates);
        assert_eq!(fresh, inv);
    }
}
