//! Solver-effort accounting that flows *up* the stack.
//!
//! Every layer above the SAT solver (the MaxSAT engine, the SATMAP slice
//! loop, the OLSQ baselines) produces a [`SolverTelemetry`] describing the
//! work a call performed; parents absorb their children's records, and the
//! experiment runner reports the totals next to swap counts so the paper
//! tables show solver effort, not just solution quality.

use std::time::Duration;

/// Aggregated solver effort for one routing (or MaxSAT) call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverTelemetry {
    /// Number of individual SAT-solver invocations.
    pub sat_calls: u64,
    /// Conflicts across all SAT calls.
    pub conflicts: u64,
    /// Branching decisions across all SAT calls.
    pub decisions: u64,
    /// Unit propagations across all SAT calls.
    pub propagations: u64,
    /// Solver restarts across all SAT calls.
    pub restarts: u64,
    /// Learned-clause database reductions across all SAT calls.
    pub db_reductions: u64,
    /// Clause-arena garbage collections across all SAT calls.
    pub compactions: u64,
    /// Route attempts that panicked and were caught by the routing
    /// supervisor (summed across its retry ladder).
    pub worker_panics: u64,
    /// Peak clause-arena footprint in bytes observed across the call tree
    /// (a gauge: absorbing a child takes the maximum, not the sum).
    pub arena_bytes: u64,
    /// Time spent building encodings (clauses, totalizers).
    pub encode_time: Duration,
    /// Time spent inside SAT `solve` calls.
    pub solve_time: Duration,
    /// Slices solved by the local relaxation (0 for monolithic solving).
    pub slices: u64,
    /// Backtracking steps taken across slice boundaries.
    pub backtracks: u64,
    /// MaxSAT engine only: name of the search strategy that produced the
    /// answer. `None` outside MaxSAT.
    pub strategy: Option<&'static str>,
    /// Weight strata the core-guided search partitioned the softs into
    /// (0 outside the stratified core-guided path; 1 = uniform weights,
    /// no stratification took effect). A gauge: absorbing takes the max.
    pub strata: u64,
    /// Core-exhaustion probes that paid an extra weight unit into the
    /// lower bound (UNSAT re-solves against a freshly relaxed core's
    /// tightened totalizer bound, inside one search iteration).
    pub exhaustion_steps: u64,
    /// Soft indicators asserted hard because their weight exceeded the
    /// incumbent-minus-lower-bound gap (RC2-style hardening).
    pub hardened_softs: u64,
    /// Whether this outcome was served from a route cache without solving.
    pub cache_hit: bool,
    /// Whether the solve warm-started from a prior session's clause DB and
    /// bounds instead of encoding and searching from scratch.
    pub warm_start: bool,
    /// Clauses carried into the solve from a prior session's arena instead
    /// of being re-emitted (0 for cold solves).
    pub reused_clauses: u64,
    /// Caller-assigned correlation id of the request this effort served
    /// (`None` outside a server or sweep context). Travels in the
    /// telemetry so it survives aggregation and reaches the JSON row.
    pub request_id: Option<u64>,
}

impl SolverTelemetry {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a child call's effort into this record.
    pub fn absorb(&mut self, child: &SolverTelemetry) {
        self.sat_calls += child.sat_calls;
        self.conflicts += child.conflicts;
        self.decisions += child.decisions;
        self.propagations += child.propagations;
        self.restarts += child.restarts;
        self.db_reductions += child.db_reductions;
        self.compactions += child.compactions;
        self.worker_panics += child.worker_panics;
        self.arena_bytes = self.arena_bytes.max(child.arena_bytes);
        self.encode_time += child.encode_time;
        self.solve_time += child.solve_time;
        self.slices += child.slices;
        self.backtracks += child.backtracks;
        if child.strategy.is_some() {
            self.strategy = child.strategy;
        }
        self.strata = self.strata.max(child.strata);
        self.exhaustion_steps += child.exhaustion_steps;
        self.hardened_softs += child.hardened_softs;
        self.cache_hit |= child.cache_hit;
        self.warm_start |= child.warm_start;
        self.reused_clauses += child.reused_clauses;
        // The parent's id identifies the request being served; a child
        // call's id only fills the gap when the parent has none.
        if self.request_id.is_none() {
            self.request_id = child.request_id;
        }
    }
}

impl std::fmt::Display for SolverTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sat_calls={} conflicts={} restarts={} slices={} backtracks={} encode={:.3}s solve={:.3}s",
            self.sat_calls,
            self.conflicts,
            self.restarts,
            self.slices,
            self.backtracks,
            self.encode_time.as_secs_f64(),
            self.solve_time.as_secs_f64()
        )?;
        if let Some(s) = self.strategy {
            write!(f, " strategy={s}")?;
        }
        if self.strata > 0 {
            write!(
                f,
                " strata={} exhaustion={} hardened={}",
                self.strata, self.exhaustion_steps, self.hardened_softs
            )?;
        }
        if self.cache_hit {
            write!(f, " cache_hit")?;
        }
        if self.warm_start {
            write!(f, " warm_start reused_clauses={}", self.reused_clauses)?;
        }
        if let Some(id) = self.request_id {
            write!(f, " request={id}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut parent = SolverTelemetry {
            sat_calls: 1,
            conflicts: 10,
            slices: 1,
            ..SolverTelemetry::new()
        };
        let child = SolverTelemetry {
            sat_calls: 2,
            conflicts: 5,
            backtracks: 3,
            compactions: 1,
            arena_bytes: 1024,
            encode_time: Duration::from_millis(4),
            solve_time: Duration::from_millis(6),
            ..SolverTelemetry::new()
        };
        parent.absorb(&child);
        assert_eq!(parent.sat_calls, 3);
        assert_eq!(parent.conflicts, 15);
        assert_eq!(parent.slices, 1);
        assert_eq!(parent.backtracks, 3);
        assert_eq!(parent.compactions, 1);
        assert_eq!(parent.arena_bytes, 1024, "gauge absorbs by max");
        parent.absorb(&SolverTelemetry {
            arena_bytes: 512,
            ..SolverTelemetry::new()
        });
        assert_eq!(parent.arena_bytes, 1024, "smaller child keeps the peak");
        assert_eq!(parent.encode_time, Duration::from_millis(4));
        assert_eq!(parent.solve_time, Duration::from_millis(6));
    }

    #[test]
    fn absorb_keeps_the_parent_request_id() {
        let mut parent = SolverTelemetry {
            request_id: Some(3),
            ..SolverTelemetry::new()
        };
        parent.absorb(&SolverTelemetry {
            request_id: Some(9),
            ..SolverTelemetry::new()
        });
        assert_eq!(parent.request_id, Some(3), "parent id wins");
        let mut empty = SolverTelemetry::new();
        empty.absorb(&parent);
        assert_eq!(empty.request_id, Some(3), "child id fills a gap");
        assert!(empty.to_string().contains("request=3"));
    }

    #[test]
    fn display_is_compact() {
        let t = SolverTelemetry::new();
        let s = t.to_string();
        assert!(s.contains("sat_calls=0"));
        assert!(s.contains("solve=0.000s"));
    }

    #[test]
    fn absorb_stratification_fields() {
        let mut parent = SolverTelemetry {
            strata: 2,
            exhaustion_steps: 3,
            hardened_softs: 1,
            ..SolverTelemetry::new()
        };
        parent.absorb(&SolverTelemetry {
            strata: 5,
            exhaustion_steps: 4,
            hardened_softs: 2,
            ..SolverTelemetry::new()
        });
        assert_eq!(parent.strata, 5, "strata is a gauge: max wins");
        assert_eq!(parent.exhaustion_steps, 7, "exhaustion steps sum");
        assert_eq!(parent.hardened_softs, 3, "hardened softs sum");
        assert!(parent
            .to_string()
            .contains("strata=5 exhaustion=7 hardened=3"));
        assert!(
            !SolverTelemetry::new().to_string().contains("strata="),
            "no stratified search, no noise"
        );
    }
}
