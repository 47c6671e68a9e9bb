//! Solver statistics.

/// Counters accumulated across all solve calls of a [`crate::Solver`] (or
/// merged across the workers of a [`crate::PortfolioBackend`]).
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
    /// Learned clauses exported to portfolio peers (clause sharing).
    pub clauses_exported: u64,
    /// Learned clauses imported from portfolio peers (clause sharing).
    pub clauses_imported: u64,
    /// Garbage-collecting compactions of the flat clause arena.
    pub compactions: u64,
    /// Portfolio workers that panicked mid-race and were retired (the race
    /// continues on the survivors; see [`crate::PortfolioBackend`]).
    pub worker_panics: u64,
    /// Current clause-arena footprint in bytes (a gauge, not a counter;
    /// portfolios report the sum over their live workers).
    pub arena_bytes: u64,
    /// Portfolio backends only: index of the worker that produced the most
    /// recent definitive answer. Single-threaded backends leave it `None`.
    pub last_winner: Option<u32>,
}

impl Stats {
    /// Elementwise sum of the counters (winner taken from `other` when
    /// set) — how a portfolio merges per-worker statistics.
    pub fn merge(&mut self, other: &Stats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.reductions += other.reductions;
        self.learned_literals += other.learned_literals;
        self.premin_literals += other.premin_literals;
        self.clauses_exported += other.clauses_exported;
        self.clauses_imported += other.clauses_imported;
        self.compactions += other.compactions;
        self.worker_panics += other.worker_panics;
        self.arena_bytes += other.arena_bytes;
        if other.last_winner.is_some() {
            self.last_winner = other.last_winner;
        }
    }

    /// The work performed since `base` was snapshotted from the same
    /// solver: counters are subtracted, while the [`Stats::arena_bytes`]
    /// gauge and [`Stats::last_winner`] carry the *current* values. Used
    /// by the portfolio to account a cloned worker's effort without
    /// double-counting the history it inherited from its template.
    pub fn delta_since(&self, base: &Stats) -> Stats {
        Stats {
            conflicts: self.conflicts.saturating_sub(base.conflicts),
            decisions: self.decisions.saturating_sub(base.decisions),
            propagations: self.propagations.saturating_sub(base.propagations),
            restarts: self.restarts.saturating_sub(base.restarts),
            reductions: self.reductions.saturating_sub(base.reductions),
            learned_literals: self.learned_literals.saturating_sub(base.learned_literals),
            premin_literals: self.premin_literals.saturating_sub(base.premin_literals),
            clauses_exported: self.clauses_exported.saturating_sub(base.clauses_exported),
            clauses_imported: self.clauses_imported.saturating_sub(base.clauses_imported),
            compactions: self.compactions.saturating_sub(base.compactions),
            worker_panics: self.worker_panics.saturating_sub(base.worker_panics),
            arena_bytes: self.arena_bytes,
            last_winner: self.last_winner,
        }
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conflicts={} decisions={} propagations={} restarts={} reductions={}",
            self.conflicts, self.decisions, self.propagations, self.restarts, self.reductions
        )?;
        if let Some(w) = self.last_winner {
            write!(f, " winner={w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_keeps_winner() {
        let mut a = Stats {
            conflicts: 3,
            restarts: 1,
            ..Stats::default()
        };
        let b = Stats {
            conflicts: 4,
            reductions: 2,
            last_winner: Some(2),
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.conflicts, 7);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.reductions, 2);
        assert_eq!(a.last_winner, Some(2));
        assert_eq!(a.clauses_exported, 0);
        // Merging a winner-less record keeps the previous winner.
        a.merge(&Stats::default());
        assert_eq!(a.last_winner, Some(2));
    }

    #[test]
    fn delta_since_subtracts_counters_but_keeps_gauges() {
        let base = Stats {
            conflicts: 10,
            clauses_exported: 2,
            arena_bytes: 4096,
            ..Stats::default()
        };
        let now = Stats {
            conflicts: 15,
            clauses_exported: 5,
            compactions: 1,
            arena_bytes: 8192,
            last_winner: Some(1),
            ..Stats::default()
        };
        let d = now.delta_since(&base);
        assert_eq!(d.conflicts, 5);
        assert_eq!(d.clauses_exported, 3);
        assert_eq!(d.compactions, 1);
        assert_eq!(d.arena_bytes, 8192, "gauge carries the current value");
        assert_eq!(d.last_winner, Some(1));
    }

    #[test]
    fn display_includes_winner_when_set() {
        let s = Stats {
            last_winner: Some(1),
            ..Stats::default()
        };
        assert!(s.to_string().contains("winner=1"));
        assert!(!Stats::default().to_string().contains("winner"));
    }
}
