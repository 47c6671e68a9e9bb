//! Solver statistics.

/// Counters accumulated across all solve calls of a [`crate::Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned-clause database reductions.
    pub reductions: u64,
    /// Total literals across all learned clauses.
    pub learned_literals: u64,
    /// Total literals across all learned clauses *before* conflict-clause
    /// minimization ran (so `learned_literals <= premin_literals` witnesses
    /// that minimization never grows a clause).
    pub premin_literals: u64,
    /// Garbage-collecting compactions of the flat clause arena.
    pub compactions: u64,
    /// Current clause-arena footprint in bytes (a gauge, not a counter).
    pub arena_bytes: u64,
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conflicts={} decisions={} propagations={} restarts={} reductions={}",
            self.conflicts, self.decisions, self.propagations, self.restarts, self.reductions
        )
    }
}
