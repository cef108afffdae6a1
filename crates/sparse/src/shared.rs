//! A thread-shared cache of symbolic LU analyses keyed by (sparsity pattern,
//! ordering).
//!
//! A transient run amortizes one symbolic analysis across all of its
//! factorizations; a [`crate::SparseLu`] session extends that across runs on
//! one topology. [`SymbolicCache`] lifts the amortization one more level:
//! across **independent solver sessions running concurrently on different
//! threads**. A fleet of parameter-sweep or Monte-Carlo jobs over the same
//! matrix pattern performs exactly **one** symbolic analysis total — the
//! first session to factorize a pattern publishes its [`SymbolicLu`] behind
//! an [`Arc`], and every other session (on any thread) derives its numeric
//! factors from it with [`SparseLu::from_symbolic`], paying only for the
//! numeric elimination.
//!
//! Concurrency contract:
//!
//! * `factorize` is safe to call from any number of threads.
//! * While a pattern's pilot analysis is in flight, other threads requesting
//!   the same pattern **block** until it is published (instead of redundantly
//!   analyzing it themselves) — this is what makes "exactly one analysis per
//!   pattern" a guarantee rather than a fast path.
//! * If the pilot fails (singular matrix, fill budget), the slot is released
//!   and one of the waiters retries as the new pilot — an unlucky pilot never
//!   wedges the cache.
//!
//! Patterns are keyed by a 64-bit fingerprint of `(n, indptr, indices)` plus
//! the requested [`OrderingMethod`]; a (vanishingly unlikely) fingerprint
//! collision is detected by an exact pattern comparison and degrades to an
//! unshared fresh factorization, never to a wrong result.
//!
//! # Residency
//!
//! By default the cache is unbounded (the batch-sweep case: a plan's worth of
//! patterns, then the cache is dropped). A **resident** process — the
//! `exi-serve` daemon keeping a fleet-wide warm cache across arbitrary client
//! traffic — must bound it: [`SymbolicCache::with_capacity`] caps the number
//! of published analyses and evicts the least-recently-used entry when a new
//! pattern would exceed the cap. Hit/miss/eviction counters are snapshotted
//! by [`SymbolicCache::stats`] in the [`CacheStats`] style of
//! `exi_sim::RunStats`, so a long-lived server can watch its hit rate and
//! working-set churn.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::csr::CsrMatrix;
use crate::error::SparseResult;
use crate::lu::{LuOptions, LuWorkspace, SparseLu, SymbolicLu};
use crate::ordering::OrderingMethod;

/// How a [`SymbolicCache::factorize`] call obtained its factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorSource {
    /// The call ran a full symbolic analysis (and published it to the cache
    /// when it was the pattern's pilot).
    Analyzed,
    /// The call reused a cached analysis and performed numeric-only work.
    Shared,
}

/// How long one [`SymbolicCache::factorize_timed`] call spent blocked on the
/// cache instead of doing numeric work: lock acquisitions plus any condvar
/// waits on another thread's in-flight pilot analysis.
///
/// Callers fold this into their own accounting (`exi_sim::RunStats` splits
/// per-job runtime into active solver time and cache wait with it) so a
/// contended cache shows up as *wait*, never misattributed as solve time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheWait {
    /// Times the call blocked on an in-flight pilot slot (one per condvar
    /// wait; zero whenever the pattern was already published or this call
    /// was the pilot).
    pub events: usize,
    /// Total time blocked: lock acquisition plus in-flight condvar waits.
    pub blocked: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PatternKey {
    fingerprint: u64,
    ordering: OrderingMethod,
}

#[derive(Debug)]
enum Slot {
    /// A pilot factorization for this pattern is in flight on some thread.
    InFlight,
    /// The published analysis, stamped with the tick of its last use for LRU
    /// eviction.
    Ready {
        symbolic: Arc<SymbolicLu>,
        last_used: u64,
    },
}

/// A point-in-time snapshot of a shared cache's residency counters
/// (`exi_sim::RunStats` style: plain counts, cheap to copy, safe to diff
/// between two snapshots).
///
/// Returned by [`SymbolicCache::stats`] (and mirrored by the evaluation-plan
/// cache in `exi-sim`); a resident daemon surfaces these fleet-wide in its
/// `ServerStats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently cached (published analyses; in-flight pilots
    /// count too — they hold a slot).
    pub entries: usize,
    /// Configured capacity; `None` for an unbounded cache.
    pub capacity: Option<usize>,
    /// Lookups served from a published entry.
    pub hits: u64,
    /// Lookups that found no published entry and ran (or waited on) a fresh
    /// analysis.
    pub misses: u64,
    /// Published entries dropped to keep the cache within its capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (`0.0` before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The mutex-guarded interior of a [`SymbolicCache`]: the slot map plus the
/// LRU clock and the residency counters (kept under the same lock so a
/// [`CacheStats`] snapshot is internally consistent).
#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<PatternKey, Slot>,
    /// Monotonic use clock; every hit or publish stamps its slot.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheState {
    /// Stamps `key`'s Ready slot as just-used.
    fn touch(&mut self, key: PatternKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(Slot::Ready { last_used, .. }) = self.slots.get_mut(&key) {
            *last_used = tick;
        }
    }

    /// Evicts least-recently-used **published** entries (never an in-flight
    /// pilot, never `keep`) until the cache fits `capacity`.
    fn evict_to_capacity(&mut self, capacity: usize, keep: PatternKey) {
        while self.slots.len() > capacity {
            let victim = self
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } if *k != keep => Some((*k, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    self.slots.remove(&k);
                    self.evictions += 1;
                }
                // Everything else is in flight (or is the entry just
                // published): nothing evictable, accept the overshoot.
                None => break,
            }
        }
    }
}

/// A shareable, blocking cache of symbolic LU analyses (see the module docs).
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones to every session
/// that should pool its symbolic work. Unbounded by default
/// ([`SymbolicCache::new`]); a resident process should bound it with
/// [`SymbolicCache::with_capacity`] so the working set is LRU-evicted instead
/// of leaking.
#[derive(Debug, Default)]
pub struct SymbolicCache {
    state: Mutex<CacheState>,
    published: Condvar,
    capacity: Option<usize>,
}

impl SymbolicCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        SymbolicCache::default()
    }

    /// Creates an empty cache holding at most `capacity` published analyses
    /// (minimum 1); the least-recently-used entry is evicted to admit a new
    /// pattern.
    pub fn with_capacity(capacity: usize) -> Self {
        SymbolicCache {
            capacity: Some(capacity.max(1)),
            ..SymbolicCache::default()
        }
    }

    /// The configured capacity; `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of patterns currently known to the cache (published or in
    /// flight).
    pub fn patterns(&self) -> usize {
        self.state
            .lock()
            .expect("symbolic cache poisoned")
            .slots
            .len()
    }

    /// Returns `true` when no pattern has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.patterns() == 0
    }

    /// Snapshot of the residency counters (entries, capacity, hits, misses,
    /// evictions) — internally consistent, taken under the cache lock.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("symbolic cache poisoned");
        CacheStats {
            entries: state.slots.len(),
            capacity: self.capacity,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }

    /// Whether a published (ready, not merely in-flight) analysis exists for
    /// the pattern identified by `fingerprint` (see [`pattern_fingerprint`])
    /// under `ordering`.
    ///
    /// Does not touch the hit/miss counters or the LRU clock — this is a
    /// scheduling query, not a lookup: the batch runner uses it to skip
    /// pilot election for patterns some earlier batch (or the main-thread
    /// pre-publication pass) already published, so a warm fleet never
    /// re-serializes its first wave.
    pub fn is_published(&self, fingerprint: u64, ordering: OrderingMethod) -> bool {
        let key = PatternKey {
            fingerprint,
            ordering,
        };
        matches!(
            self.state
                .lock()
                .expect("symbolic cache poisoned")
                .slots
                .get(&key),
            Some(Slot::Ready { .. })
        )
    }

    /// Factorizes `a`, reusing the cached symbolic analysis for its pattern
    /// when one exists (numeric-only work) and publishing a fresh analysis
    /// when it does not. Blocks while another thread is analyzing the same
    /// pattern. Returns the factor plus how it was obtained.
    ///
    /// A cached pivot order that turns out not to be numerically viable for
    /// `a`'s values (vanished pivot, excessive growth) falls back to a fresh,
    /// re-pivoting factorization; the published analysis is left untouched so
    /// the fallback stays a per-call event.
    ///
    /// # Errors
    ///
    /// Propagates [`SparseLu::factorize_with`] errors (singularity, fill
    /// budget, non-square input).
    pub fn factorize(
        &self,
        a: &CsrMatrix,
        options: &LuOptions,
        ws: &mut LuWorkspace,
    ) -> SparseResult<(SparseLu, FactorSource)> {
        self.factorize_timed(a, options, ws)
            .map(|(lu, source, _)| (lu, source))
    }

    /// As [`SymbolicCache::factorize`], additionally reporting how long the
    /// call spent blocked on the cache (lock acquisition plus condvar waits
    /// on an in-flight pilot) as a [`CacheWait`].
    ///
    /// This is the accounting entry point for schedulers that must not
    /// misattribute contention as solve time: on a warm cache the wait is a
    /// single uncontended lock acquisition and `events` is 0.
    ///
    /// # Errors
    ///
    /// See [`SymbolicCache::factorize`].
    pub fn factorize_timed(
        &self,
        a: &CsrMatrix,
        options: &LuOptions,
        ws: &mut LuWorkspace,
    ) -> SparseResult<(SparseLu, FactorSource, CacheWait)> {
        let key = PatternKey {
            fingerprint: pattern_fingerprint(a),
            ordering: options.ordering,
        };
        let mut wait = CacheWait::default();
        loop {
            let acquire = Instant::now();
            let mut state = self.state.lock().expect("symbolic cache poisoned");
            wait.blocked += acquire.elapsed();
            match state.slots.get(&key) {
                Some(Slot::Ready { symbolic, .. }) => {
                    let symbolic = Arc::clone(symbolic);
                    state.hits += 1;
                    state.touch(key);
                    drop(state);
                    if !symbolic.matches_pattern(a) {
                        // Fingerprint collision: do not share, do not poison.
                        let lu = SparseLu::factorize_with(a, options)?;
                        return Ok((lu, FactorSource::Analyzed, wait));
                    }
                    return match SparseLu::from_symbolic(symbolic, a, options, ws) {
                        Ok(lu) => Ok((lu, FactorSource::Shared, wait)),
                        // The frozen pivot order is not viable for these
                        // values: re-pivot from scratch for this caller only.
                        Err(_) => {
                            let lu = SparseLu::factorize_with(a, options)?;
                            Ok((lu, FactorSource::Analyzed, wait))
                        }
                    };
                }
                Some(Slot::InFlight) => {
                    // Another thread is running the pilot analysis; wait for
                    // it to publish (or release) the slot and re-check. The
                    // re-check accounts the hit or miss, not this wait — but
                    // the blocked time is the caller's to report, so a
                    // serialized schedule can't masquerade as solve time.
                    wait.events += 1;
                    let blocked = Instant::now();
                    let guard = self.published.wait(state).expect("symbolic cache poisoned");
                    wait.blocked += blocked.elapsed();
                    drop(guard);
                    continue;
                }
                None => {
                    state.misses += 1;
                    state.slots.insert(key, Slot::InFlight);
                    drop(state);
                    // Release the slot on every exit path: publish on
                    // success, remove on failure so a waiter can retry.
                    let result = SparseLu::factorize_with(a, options);
                    let mut state = self.state.lock().expect("symbolic cache poisoned");
                    match result {
                        Ok(lu) => {
                            state.tick += 1;
                            let last_used = state.tick;
                            state.slots.insert(
                                key,
                                Slot::Ready {
                                    symbolic: lu.shared_symbolic(),
                                    last_used,
                                },
                            );
                            if let Some(capacity) = self.capacity {
                                state.evict_to_capacity(capacity, key);
                            }
                            drop(state);
                            self.published.notify_all();
                            return Ok((lu, FactorSource::Analyzed, wait));
                        }
                        Err(e) => {
                            state.slots.remove(&key);
                            drop(state);
                            self.published.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }
}

/// 64-bit fingerprint of a matrix's sparsity pattern (dimension + CSR
/// structure, not values).
///
/// This is the hash [`SymbolicCache`] keys its slots by (collisions are
/// verified against the exact pattern before any sharing happens). It is
/// public so schedulers that group work by pattern — e.g. the batch runner's
/// deterministic pilot election — use the **same** grouping the cache will,
/// instead of maintaining a parallel hash that could silently drift.
pub fn pattern_fingerprint(a: &CsrMatrix) -> u64 {
    let mut hasher = DefaultHasher::new();
    a.rows().hash(&mut hasher);
    a.cols().hash(&mut hasher);
    a.indptr().hash(&mut hasher);
    a.indices().hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn tridiag(n: usize, d: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, d);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn first_call_analyzes_second_call_shares() {
        let cache = SymbolicCache::new();
        let a = tridiag(20, 3.0);
        let mut ws = LuWorkspace::new();
        let (lu1, src1) = cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
        assert_eq!(src1, FactorSource::Analyzed);
        assert_eq!(cache.patterns(), 1);
        let b = tridiag(20, 5.0);
        let (lu2, src2) = cache.factorize(&b, &LuOptions::default(), &mut ws).unwrap();
        assert_eq!(src2, FactorSource::Shared);
        assert_eq!(cache.patterns(), 1);
        // The derived factor solves its own matrix, not the pilot's.
        let rhs = vec![1.0; 20];
        let x1 = lu1.solve(&rhs).unwrap();
        let x2 = lu2.solve(&rhs).unwrap();
        assert!(x1.iter().zip(&x2).any(|(p, q)| (p - q).abs() > 1e-6));
    }

    #[test]
    fn shared_factor_with_identical_values_is_bit_identical() {
        let cache = SymbolicCache::new();
        let a = tridiag(30, 2.5);
        let mut ws = LuWorkspace::new();
        let (pilot, _) = cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
        let (derived, src) = cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
        assert_eq!(src, FactorSource::Shared);
        let rhs: Vec<f64> = (0..30).map(|i| (i as f64).cos()).collect();
        assert_eq!(pilot.solve(&rhs).unwrap(), derived.solve(&rhs).unwrap());
    }

    #[test]
    fn distinct_patterns_get_distinct_slots() {
        let cache = SymbolicCache::new();
        let mut ws = LuWorkspace::new();
        let with = |ordering| LuOptions {
            ordering,
            ..LuOptions::default()
        };
        let rcm = with(OrderingMethod::Rcm);
        cache.factorize(&tridiag(10, 3.0), &rcm, &mut ws).unwrap();
        cache.factorize(&tridiag(11, 3.0), &rcm, &mut ws).unwrap();
        assert_eq!(cache.patterns(), 2);
        // A different ordering is a different key even for the same pattern.
        let opts = with(OrderingMethod::MinDegree);
        let (_, src) = cache.factorize(&tridiag(10, 3.0), &opts, &mut ws).unwrap();
        assert_eq!(src, FactorSource::Analyzed);
        assert_eq!(cache.patterns(), 3);
    }

    #[test]
    fn failed_pilot_releases_the_slot() {
        let cache = SymbolicCache::new();
        let mut ws = LuWorkspace::new();
        // Structurally singular: an empty column.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let singular = t.to_csr();
        assert!(cache
            .factorize(&singular, &LuOptions::default(), &mut ws)
            .is_err());
        assert!(cache.is_empty(), "failed pilot must not leave a slot");
        // A well-posed matrix with the same pattern can now pilot the slot.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let still_singular = t.to_csr();
        assert!(cache
            .factorize(&still_singular, &LuOptions::default(), &mut ws)
            .is_err());
    }

    #[test]
    fn concurrent_same_pattern_callers_share_one_analysis() {
        let cache = Arc::new(SymbolicCache::new());
        let mut handles = Vec::new();
        for k in 0..8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                let a = tridiag(64, 3.0 + k as f64 * 0.1);
                let mut ws = LuWorkspace::new();
                let (lu, src) = cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
                let x = lu.solve(&vec![1.0; 64]).unwrap();
                assert!(x.iter().all(|v| v.is_finite()));
                src
            }));
        }
        let sources: Vec<FactorSource> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let analyzed = sources
            .iter()
            .filter(|s| **s == FactorSource::Analyzed)
            .count();
        assert_eq!(analyzed, 1, "exactly one pilot analysis: {sources:?}");
        assert_eq!(cache.patterns(), 1);
    }

    #[test]
    fn warm_lookup_reports_zero_wait_events() {
        let cache = SymbolicCache::new();
        let mut ws = LuWorkspace::new();
        let a = tridiag(16, 3.0);
        let (_, _, pilot_wait) = cache
            .factorize_timed(&a, &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(pilot_wait.events, 0, "the pilot never waits on itself");
        let (_, src, warm_wait) = cache
            .factorize_timed(&a, &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(src, FactorSource::Shared);
        assert_eq!(warm_wait.events, 0, "published pattern must not block");
    }

    #[test]
    fn is_published_reflects_ready_slots_only() {
        let cache = SymbolicCache::new();
        let mut ws = LuWorkspace::new();
        let a = tridiag(12, 3.0);
        let fp = pattern_fingerprint(&a);
        let rcm = LuOptions {
            ordering: OrderingMethod::Rcm,
            ..LuOptions::default()
        };
        assert!(!cache.is_published(fp, OrderingMethod::Rcm));
        cache.factorize(&a, &rcm, &mut ws).unwrap();
        assert!(cache.is_published(fp, OrderingMethod::Rcm));
        // A different ordering is a different slot.
        assert!(!cache.is_published(fp, OrderingMethod::MinDegree));
        // The query is side-effect free: no hit/miss accounting.
        let before = cache.stats();
        cache.is_published(fp, OrderingMethod::Rcm);
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = SymbolicCache::new();
        let mut ws = LuWorkspace::new();
        let a = tridiag(16, 3.0);
        cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
        cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
        cache.factorize(&a, &LuOptions::default(), &mut ws).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, None);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = SymbolicCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let mut ws = LuWorkspace::new();
        // Three distinct patterns into a 2-slot cache.
        cache
            .factorize(&tridiag(10, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        cache
            .factorize(&tridiag(11, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        // Touch pattern 10 so pattern 11 becomes the LRU victim.
        let (_, src) = cache
            .factorize(&tridiag(10, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(src, FactorSource::Shared);
        cache
            .factorize(&tridiag(12, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(cache.patterns(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Pattern 10 survived (hit); pattern 11 was evicted (miss again).
        let (_, src10) = cache
            .factorize(&tridiag(10, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(src10, FactorSource::Shared);
        let (_, src11) = cache
            .factorize(&tridiag(11, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(src11, FactorSource::Analyzed);
    }

    #[test]
    fn capacity_floor_is_one_entry() {
        let cache = SymbolicCache::with_capacity(0);
        assert_eq!(cache.capacity(), Some(1));
        let mut ws = LuWorkspace::new();
        cache
            .factorize(&tridiag(10, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        cache
            .factorize(&tridiag(11, 3.0), &LuOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(cache.patterns(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn cache_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SymbolicCache>();
        assert_send_sync::<Arc<SymbolicCache>>();
        assert_send_sync::<SymbolicLu>();
        assert_send_sync::<SparseLu>();
        assert_send_sync::<LuWorkspace>();
        assert_send_sync::<CsrMatrix>();
    }
}
