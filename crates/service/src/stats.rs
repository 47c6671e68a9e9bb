//! Daemon-level counters behind the `stats` verb.
//!
//! Every `route` line lands in exactly one of three buckets at the door —
//! `rejected` (typed invalid request), `shed` (admission control or a
//! full queue said no), or `admitted` — and every admitted request is
//! eventually `completed` (as `solved` or `failed`; aborted requests
//! complete with a typed [`circuit::RouteError::Cancelled`] failure). The
//! reconciliation invariants tests assert after a drain:
//!
//! ```text
//! received  == rejected + shed + admitted
//! admitted  == completed + in_flight + queued     (after drain: == completed)
//! completed == solved + failed
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use circuit::RouteOutcome;
use routers::CacheStats;

/// Monotonic daemon counters plus the in-flight gauge. All relaxed
/// atomics: the counters order nothing, they only count.
#[derive(Debug, Default)]
pub struct ServiceStats {
    received: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    solved: AtomicU64,
    failed: AtomicU64,
    aborted: AtomicU64,
    worker_panics: AtomicU64,
    in_flight: AtomicU64,
}

impl ServiceStats {
    /// Counts a parsed `route` line.
    pub fn route_received(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request bounced at the door with a typed
    /// `InvalidRequest` (unknown router, impossible circuit).
    pub fn route_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed by admission control, a full queue, or a
    /// draining daemon.
    pub fn route_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request accepted onto the work queue.
    pub fn route_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an `abort` verb that found (and cancelled) a live handle.
    pub fn abort_hit(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a worker picking a job up.
    pub fn enter_flight(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the job done and folds its outcome into the counters.
    pub fn finish_flight(&self, outcome: &RouteOutcome) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if outcome.solved() {
            self.solved.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.worker_panics
            .fetch_add(outcome.telemetry().worker_panics, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently being served by a worker.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Requests that finished (solved or failed).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests shed at the door.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            received: self.received.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            solved: self.solved.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }
}

/// One consistent-enough reading of the daemon's counters (each field is
/// individually atomic; the set is only exact when the daemon is quiet,
/// which is when the tests reconcile it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `route` lines parsed.
    pub received: u64,
    /// Bounced at the door as invalid.
    pub rejected: u64,
    /// Shed by admission control / full queue / draining.
    pub shed: u64,
    /// Accepted onto the work queue.
    pub admitted: u64,
    /// Finished (solved + failed).
    pub completed: u64,
    /// Finished with a routed circuit.
    pub solved: u64,
    /// Finished with a typed error (including `Cancelled`).
    pub failed: u64,
    /// `abort` verbs that hit a live request.
    pub aborted: u64,
    /// Worker panics absorbed across all served requests.
    pub worker_panics: u64,
    /// Currently on a worker.
    pub in_flight: u64,
}

impl StatsSnapshot {
    /// Renders the `stats` response row, folding in the queue depth, the
    /// worker-pool width, the drain flag, and the route cache's counters.
    pub fn to_json(
        &self,
        queue_depth: usize,
        workers: usize,
        draining: bool,
        cache: &CacheStats,
    ) -> String {
        format!(
            concat!(
                "{{\"type\":\"stats\",\"received\":{},\"rejected\":{},\"shed\":{},",
                "\"admitted\":{},\"completed\":{},\"solved\":{},\"failed\":{},",
                "\"aborted\":{},\"worker_panics\":{},\"in_flight\":{},",
                "\"queue_depth\":{},\"workers\":{},\"draining\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4},",
                "\"cache_outcomes\":{},\"cache_evictions\":{}}}"
            ),
            self.received,
            self.rejected,
            self.shed,
            self.admitted,
            self.completed,
            self.solved,
            self.failed,
            self.aborted,
            self.worker_panics,
            self.in_flight,
            queue_depth,
            workers,
            draining,
            cache.hits,
            cache.misses,
            cache.hit_rate(),
            cache.outcomes,
            cache.outcome_evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::RouteError;
    use sat::SolverTelemetry;
    use std::time::Duration;

    #[test]
    fn counters_reconcile() {
        let stats = ServiceStats::default();
        for _ in 0..5 {
            stats.route_received();
        }
        stats.route_rejected();
        stats.route_shed();
        for _ in 0..3 {
            stats.route_admitted();
        }
        let solved = RouteOutcome::new(
            "satmap",
            Ok(circuit::RoutedCircuit::new(vec![0], vec![])),
            SolverTelemetry {
                worker_panics: 2,
                ..SolverTelemetry::default()
            },
            Duration::ZERO,
        );
        let failed = RouteOutcome::new(
            "satmap",
            Err(RouteError::Cancelled),
            SolverTelemetry::new(),
            Duration::ZERO,
        );
        for outcome in [&solved, &solved, &failed] {
            stats.enter_flight();
            stats.finish_flight(outcome);
        }
        let s = stats.snapshot();
        assert_eq!(s.received, s.rejected + s.shed + s.admitted);
        assert_eq!(s.admitted, s.completed);
        assert_eq!(s.completed, s.solved + s.failed);
        assert_eq!((s.solved, s.failed), (2, 1));
        assert_eq!(s.worker_panics, 4);
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn stats_row_is_valid_json_with_every_field() {
        let stats = ServiceStats::default();
        stats.route_received();
        let row = stats
            .snapshot()
            .to_json(3, 4, false, &routers::CacheStats::default());
        let v = crate::wire::parse_json(&row).expect("stats row must parse");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("stats"));
        assert_eq!(v.get("received").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(v.get("queue_depth").and_then(|n| n.as_u64()), Some(3));
        assert_eq!(v.get("workers").and_then(|n| n.as_u64()), Some(4));
        assert_eq!(v.get("draining").and_then(|b| b.as_bool()), Some(false));
        for key in ["cache_hits", "cache_hit_rate", "worker_panics", "aborted"] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }
}
