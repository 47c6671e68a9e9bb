//! A canonical-outcome cache in front of the registry.
//!
//! [`RouteCache`] keys every request by `(canonical router name,`
//! [`circuit::RouteRequest::fingerprint`]`)` — a canonical hash of the
//! answer-relevant inputs (circuit, device graph, resolved spec knobs;
//! budget, parallelism, and request ids deliberately excluded). A solved
//! outcome for the key is memoized and returned without any solving; the
//! clone is stamped `telemetry.cache_hit = true`. Failed outcomes
//! (timeouts, unsatisfiable-with-these-knobs) and unproven incumbents are
//! *not* memoized, so a retry under a bigger budget re-solves instead of
//! replaying the failure. Everything else routes exactly as the plain
//! registry would.
//!
//! The memo is a **capacity-limited LRU** store: a long-running daemon
//! funnels every request through one shared cache, so unbounded growth
//! would eventually exhaust memory. Every hit refreshes an entry's
//! recency; inserting past capacity evicts the least-recently-used key and
//! bumps the eviction counter reported by [`RouteCache::stats`].
//!
//! Serving layers that bring their own solver (e.g. a daemon routing
//! through a `RouteSupervisor`) compose via the split surface:
//! [`RouteCache::lookup`] before solving, [`RouteCache::admit`] after —
//! [`RouteCache::route`] is exactly that composition over the wrapped
//! registry.
//!
//! Soundness: a hit replays a result computed from identical inputs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use circuit::{RouteOutcome, RouteQuality, RouteRequest};

use crate::supervisor::completed_quantized;
use crate::{RouterRegistry, UnknownRouter};

/// Default capacity of the memoized-outcome map. Outcome rows are small
/// (a routed circuit plus telemetry), so the map can afford to be deep.
pub const DEFAULT_OUTCOME_CAPACITY: usize = 1024;

/// Cache key: canonical router name plus the request's canonical
/// fingerprint.
type Key = (&'static str, u64);

/// The memoization gate: *solved* outcomes whose quality is exactly
/// [`RouteQuality::Optimal`] are cached, and so are completed searches over
/// quantized weights ([`completed_quantized`]): a re-solve would repeat the
/// same search. Other `Degraded` results (heuristic fallbacks, unproven
/// incumbents from expired anytime searches) and warm-retry stamps must
/// never be replayed as the router's real answer — a retry should get the
/// chance to do better.
fn memoizable(outcome: &RouteOutcome) -> bool {
    (outcome.solved() && outcome.quality() == RouteQuality::Optimal) || completed_quantized(outcome)
}

/// One stored value plus its last-use stamp (a monotone logical clock;
/// larger = more recently used).
struct Entry<T> {
    value: T,
    stamp: u64,
}

/// A capacity-limited map with least-recently-used eviction. Eviction
/// scans for the minimum stamp — O(capacity), which is bounded and tiny
/// next to a solve — so no intrusive list is needed.
struct Lru<T> {
    map: HashMap<Key, Entry<T>>,
    capacity: usize,
    evictions: u64,
}

impl<T> Lru<T> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn touch(&mut self, key: &Key, stamp: u64) -> Option<&mut T> {
        let entry = self.map.get_mut(key)?;
        entry.stamp = stamp;
        Some(&mut entry.value)
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry if the map is full. A zero capacity stores nothing: the
    /// incoming value is dropped on the floor and counted as evicted.
    fn insert(&mut self, key: Key, value: T, stamp: u64) {
        if self.capacity == 0 {
            self.evictions += 1;
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(&oldest) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k) {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, Entry { value, stamp });
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// A point-in-time snapshot of the cache's occupancy and traffic, for
/// daemon `stats` verbs and capacity tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Memoized outcomes currently held.
    pub outcomes: usize,
    /// Capacity of the outcome map.
    pub outcome_capacity: usize,
    /// Lookups served from the memo ([`RouteCache::lookup`] hits).
    pub hits: u64,
    /// Lookups that fell through to a solve.
    pub misses: u64,
    /// Outcomes dropped by LRU eviction since construction.
    pub outcome_evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the memo (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A memoizing front end over a [`RouterRegistry`]. Interior mutability
/// (a mutexed map) keeps the routing surface `&self`, matching the
/// registry; the lock is held only around map access, never across a
/// solve, so concurrent requests at worst both solve.
pub struct RouteCache {
    registry: RouterRegistry,
    outcomes: Mutex<Lru<RouteOutcome>>,
    /// Logical clock stamping every map access.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for RouteCache {
    fn default() -> Self {
        Self::new(RouterRegistry::standard())
    }
}

impl RouteCache {
    /// A cache in front of the given registry with the default capacity
    /// ([`DEFAULT_OUTCOME_CAPACITY`]).
    pub fn new(registry: RouterRegistry) -> Self {
        Self::with_capacities(registry, DEFAULT_OUTCOME_CAPACITY)
    }

    /// A cache with an explicit LRU capacity. A zero capacity disables the
    /// memo (nothing is stored; every insert counts as an eviction).
    pub fn with_capacities(registry: RouterRegistry, outcome_capacity: usize) -> Self {
        RouteCache {
            registry,
            outcomes: Mutex::new(Lru::new(outcome_capacity)),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &RouterRegistry {
        &self.registry
    }

    /// Number of memoized (solved) outcomes.
    pub fn cached_outcomes(&self) -> usize {
        lock_or_recover(&self.outcomes).len()
    }

    /// Occupancy, traffic, and eviction counters.
    pub fn stats(&self) -> CacheStats {
        let outcomes = lock_or_recover(&self.outcomes);
        CacheStats {
            outcomes: outcomes.len(),
            outcome_capacity: outcomes.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            outcome_evictions: outcomes.evictions,
        }
    }

    /// Drops all memoized outcomes (counters survive).
    pub fn clear(&self) {
        lock_or_recover(&self.outcomes).clear();
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The memo half of the cache: returns the stored outcome for this
    /// `(router, fingerprint)` key, stamped `cache_hit` and re-stamped
    /// with the *new* request's id — or `None` on a miss. Counts toward
    /// [`CacheStats::hits`]/[`CacheStats::misses`] and refreshes the
    /// entry's LRU recency. Serving layers that solve through their own
    /// stack (e.g. a supervisor) call this before solving and
    /// [`RouteCache::admit`] after.
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] listing the valid names.
    pub fn lookup(
        &self,
        name: &str,
        request: &RouteRequest<'_>,
    ) -> Result<Option<RouteOutcome>, UnknownRouter> {
        let canonical = self.registry.canonical(name)?;
        let key = (canonical, request.fingerprint());
        let stamp = self.tick();
        let hit = lock_or_recover(&self.outcomes)
            .touch(&key, stamp)
            .map(|stored| {
                let mut out = stored.clone();
                out.telemetry_mut().cache_hit = true;
                out.with_request_id(request.request_id())
            });
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        Ok(hit)
    }

    /// The store half: memoizes `outcome` for this key when it passes the
    /// gate (solved and [`RouteQuality::Optimal`], or a completed quantized
    /// search — other degraded or failed answers are never replayed).
    /// Returns whether it was stored.
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] listing the valid names.
    pub fn admit(
        &self,
        name: &str,
        request: &RouteRequest<'_>,
        outcome: &RouteOutcome,
    ) -> Result<bool, UnknownRouter> {
        let canonical = self.registry.canonical(name)?;
        if !memoizable(outcome) {
            return Ok(false);
        }
        let key = (canonical, request.fingerprint());
        let stamp = self.tick();
        lock_or_recover(&self.outcomes).insert(key, outcome.clone(), stamp);
        Ok(true)
    }

    /// Routes `request` through the cache: a hit replays the memoized
    /// outcome (stamped `cache_hit`), a miss routes through the registry
    /// and admits the outcome for next time. The memoized outcome keeps
    /// the original solve's wall time and telemetry; only the `cache_hit`
    /// stamp distinguishes the replay.
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] listing the valid names.
    pub fn route(
        &self,
        name: &str,
        request: &RouteRequest<'_>,
    ) -> Result<RouteOutcome, UnknownRouter> {
        if let Some(hit) = self.lookup(name, request)? {
            return Ok(hit);
        }
        let outcome = self.registry.route(name, request)?;
        self.admit(name, request, &outcome)?;
        Ok(outcome)
    }
}

/// Poison-tolerant lock: a panicking worker thread cannot wedge the cache
/// for every other request.
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Circuit;
    use std::time::Duration;

    fn fig3() -> (Circuit, arch::ConnectivityGraph) {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(0, 2);
        c.cx(3, 2);
        c.cx(0, 3);
        (
            c,
            arch::ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        )
    }

    #[test]
    fn exact_repeat_is_served_from_the_cache() {
        let (c, g) = fig3();
        let cache = RouteCache::default();
        let request = RouteRequest::new(&c, &g);
        let cold = cache.route("nl-satmap", &request).expect("known");
        assert!(cold.solved());
        assert!(!cold.telemetry().cache_hit);
        assert_eq!(cache.cached_outcomes(), 1);

        let hit = cache.route("nl-satmap", &request).expect("known");
        assert!(hit.telemetry().cache_hit);
        assert_eq!(hit.solved(), cold.solved());
        assert_eq!(
            hit.routed().expect("solved").swap_count(),
            cold.routed().expect("solved").swap_count()
        );
        // The replay carries the original telemetry, not a re-solve's.
        assert_eq!(hit.telemetry().sat_calls, cold.telemetry().sat_calls);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn timed_out_solve_is_not_memoized() {
        let mut c = Circuit::new(8);
        for i in 0..7 {
            c.cx(i, i + 1);
            c.cx(0, 7 - i);
        }
        let g = arch::devices::tokyo();
        let cache = RouteCache::default();
        let failed = cache
            .route(
                "nl-satmap",
                &RouteRequest::new(&c, &g).with_budget(Duration::from_millis(1)),
            )
            .expect("known");
        assert!(!failed.solved());
        assert_eq!(cache.cached_outcomes(), 0, "failures are not memoized");

        // Same fingerprint (budget is excluded): the retry re-solves
        // instead of replaying the failure.
        let retry = cache
            .route("nl-satmap", &RouteRequest::new(&c, &g))
            .expect("known");
        assert!(retry.solved());
        assert!(!retry.telemetry().cache_hit);
    }

    #[test]
    fn different_routers_do_not_share_entries() {
        let (c, g) = fig3();
        let cache = RouteCache::default();
        let request = RouteRequest::new(&c, &g);
        let a = cache.route("nl-satmap", &request).expect("known");
        let b = cache.route("sabre", &request).expect("known");
        assert!(!b.telemetry().cache_hit);
        assert_eq!(cache.cached_outcomes(), 2);
        assert!(a.solved() && b.solved());
        // Aliases resolve to the canonical entry and share its memo.
        let via_alias = cache.route("nl-satmap", &request).expect("known");
        assert!(via_alias.telemetry().cache_hit);
    }

    #[test]
    fn only_proven_or_completed_quantized_outcomes_are_memoized() {
        use circuit::RoutedCircuit;
        use sat::SolverTelemetry;
        let solved = || {
            RouteOutcome::new(
                "stub",
                Ok(RoutedCircuit::new(vec![0, 1], Vec::new())),
                SolverTelemetry::new(),
                Duration::ZERO,
            )
        };
        let degraded = |reason: &str| {
            solved()
                .with_quality(RouteQuality::Degraded)
                .with_diagnostic("degraded_reason", reason)
        };
        assert!(memoizable(&solved()));
        assert!(memoizable(&degraded("quantized")), "a completed search");
        assert!(!memoizable(&solved().with_quality(RouteQuality::Degraded)));
        assert!(!memoizable(&degraded("budget-exhausted")));
        assert!(!memoizable(&degraded("timeout")));
        assert!(!memoizable(
            &solved().with_quality(RouteQuality::WarmRetry(1))
        ));
        let failed = RouteOutcome::new(
            "stub",
            Err(circuit::RouteError::Timeout),
            SolverTelemetry::new(),
            Duration::ZERO,
        )
        .with_quality(RouteQuality::Degraded)
        .with_diagnostic("degraded_reason", "quantized");
        assert!(!memoizable(&failed));
    }

    #[test]
    fn clear_forgets_everything() {
        let (c, g) = fig3();
        let cache = RouteCache::default();
        let request = RouteRequest::new(&c, &g);
        let _ = cache.route("satmap", &request).expect("known");
        cache.clear();
        assert_eq!(cache.cached_outcomes(), 0);
        let again = cache.route("satmap", &request).expect("known");
        assert!(!again.telemetry().cache_hit);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_key() {
        let mut lru: Lru<u32> = Lru::new(2);
        lru.insert(("a", 0), 1, 0);
        lru.insert(("b", 0), 2, 1);
        // Touch "a": "b" becomes the oldest.
        assert_eq!(lru.touch(&("a", 0), 2).copied(), Some(1));
        lru.insert(("c", 0), 3, 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions, 1);
        assert!(lru.touch(&("b", 0), 4).is_none(), "LRU entry evicted");
        assert!(lru.touch(&("a", 0), 5).is_some(), "touched entry kept");
        // Replacing an existing key never evicts.
        lru.insert(("c", 0), 9, 6);
        assert_eq!(lru.evictions, 1);
        assert_eq!(lru.touch(&("c", 0), 7).copied(), Some(9));
    }

    #[test]
    fn zero_capacity_disables_a_tier() {
        let mut lru: Lru<u32> = Lru::new(0);
        lru.insert(("a", 0), 1, 0);
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.evictions, 1, "dropped inserts count as evictions");
    }

    #[test]
    fn outcome_capacity_bounds_a_long_running_cache() {
        let (c, g) = fig3();
        let cache = RouteCache::with_capacities(RouterRegistry::standard(), 2);
        // Three distinct fingerprints through a capacity-2 memo: the
        // oldest entry must fall out, and the counters must say so.
        let base = RouteRequest::new(&c, &g);
        let swapped = RouteRequest::new(&c, &g).with_swaps_per_gap(2);
        let strategic =
            RouteRequest::new(&c, &g).with_strategy(circuit::SearchStrategy::CoreGuided);
        for request in [&base, &swapped, &strategic] {
            assert!(cache.route("nl-satmap", request).expect("known").solved());
        }
        let stats = cache.stats();
        assert_eq!(stats.outcomes, 2);
        assert_eq!(stats.outcome_capacity, 2);
        assert!(stats.outcome_evictions >= 1, "{stats:?}");
        // The freshest entry is still a hit; the evicted one re-solves.
        assert!(
            cache
                .route("nl-satmap", &strategic)
                .expect("known")
                .telemetry()
                .cache_hit
        );
        assert!(
            !cache
                .route("nl-satmap", &base)
                .expect("known")
                .telemetry()
                .cache_hit
        );
    }

    #[test]
    fn lookup_and_admit_compose_for_external_solvers() {
        let (c, g) = fig3();
        let cache = RouteCache::default();
        let request = RouteRequest::new(&c, &g).with_request_id(5);
        assert!(cache.lookup("sabre", &request).expect("known").is_none());
        // Solve outside the cache (as a daemon's supervisor would) and
        // hand the outcome back.
        let outcome = cache
            .registry()
            .route("sabre", &request)
            .expect("known name");
        assert!(cache.admit("sabre", &request, &outcome).expect("known"));
        let hit = cache
            .lookup("sabre", &request.clone().with_request_id(6))
            .expect("known")
            .expect("memoized");
        assert!(hit.telemetry().cache_hit);
        assert_eq!(
            hit.telemetry().request_id,
            Some(6),
            "replays are re-stamped with the new request's id"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Unknown names error through the same surface.
        assert!(cache.lookup("nope", &request).is_err());
        assert!(cache.admit("nope", &request, &outcome).is_err());
    }
}
