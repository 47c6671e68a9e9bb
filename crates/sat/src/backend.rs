//! The backend abstraction decoupling consumers from the bundled CDCL
//! solver.
//!
//! Everything above this crate (the MaxSAT engine, the QMR encoders, the
//! OLSQ baselines) talks to satisfiability through two traits:
//!
//! * [`ClauseSink`] — anything that accepts fresh variables and clauses
//!   (solvers *and* passive instance builders like WCNF containers), the
//!   interface CNF encoders are written against;
//! * [`SatBackend`] — a full incremental SAT solver: clause loading,
//!   assumption-based solving under a [`ResourceBudget`], model and
//!   UNSAT-core extraction, and [`Stats`] reporting.
//!
//! The bundled [`Solver`] implements both and is re-exported as
//! [`DefaultBackend`], the alias generic consumers name instead of the
//! concrete type — swapping in an alternative backend is then a one-line
//! change per call site.

use crate::budget::ResourceBudget;
use crate::clause_list::ClauseList;
use crate::lit::{Lit, Var};
use crate::solver::{SolveResult, Solver};
use crate::stats::Stats;

/// Sink for freshly created variables and emitted clauses.
///
/// Implemented by [`Solver`] here and by `maxsat::WcnfInstance` on the hard
/// side, so CNF encodings serve both the MaxSAT engine and direct SAT
/// consumers.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Emits a clause.
    fn emit(&mut self, lits: &[Lit]);
}

/// An incremental SAT solver usable by the layers above.
///
/// # Examples
///
/// ```
/// use sat::{DefaultBackend, ResourceBudget, SatBackend, SolveResult};
///
/// let mut backend = DefaultBackend::default();
/// let a = backend.new_var().positive();
/// SatBackend::add_clause(&mut backend, &[a]);
/// let result = backend.solve_under_assumptions(&[], &ResourceBudget::unlimited());
/// assert_eq!(result, SolveResult::Sat);
/// assert_eq!(backend.model_value(a), Some(true));
/// ```
pub trait SatBackend: ClauseSink {
    /// Short identifier for telemetry and experiment tables.
    fn backend_name(&self) -> &'static str;

    /// Number of variables created so far.
    fn num_vars(&self) -> usize;

    /// Number of problem clauses loaded so far. Advisory: backends that do
    /// not track a clause count may return 0. The MaxSAT layer reports it
    /// as the number of clauses a warm start reuses.
    fn num_clauses(&self) -> usize {
        0
    }

    /// Ensures at least `n` variables exist.
    fn reserve_vars(&mut self, n: usize);

    /// Adds a clause; returns `false` if the formula is now known
    /// unsatisfiable at the top level.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Adds every clause of `clauses`, in order; returns `false` if any
    /// [`SatBackend::add_clause`] call would have.
    ///
    /// Must behave exactly like calling [`SatBackend::add_clause`] on each
    /// clause in turn, which is what the default does. A backend may size
    /// its storage for the whole list first, as [`Solver`] does.
    fn add_clauses(&mut self, clauses: &ClauseList) -> bool {
        let mut ok = true;
        for c in clauses {
            ok &= self.add_clause(c);
        }
        ok
    }

    /// Solves under `assumptions` within `budget`. The budget is armed (see
    /// [`ResourceBudget::arm`]) on entry, so a deadline inherited from a
    /// parent call is honored as-is.
    fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: &ResourceBudget,
    ) -> SolveResult;

    /// The value of `l` in the last satisfying model, if any.
    fn model_value(&self, l: Lit) -> Option<bool>;

    /// The full model of the last SAT answer as booleans per variable.
    fn model(&self) -> Vec<bool>;

    /// Subset of assumptions responsible for the last UNSAT answer.
    fn unsat_core(&self) -> &[Lit];

    /// Statistics accumulated across all solve calls.
    fn stats(&self) -> &Stats;
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn emit(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits.iter().copied());
    }
}

impl SatBackend for Solver {
    fn backend_name(&self) -> &'static str {
        "cdcl"
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        Solver::num_clauses(self)
    }

    fn reserve_vars(&mut self, n: usize) {
        Solver::reserve_vars(self, n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn add_clauses(&mut self, clauses: &ClauseList) -> bool {
        Solver::add_clauses(self, clauses)
    }

    fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: &ResourceBudget,
    ) -> SolveResult {
        Solver::solve_under_assumptions(self, assumptions, budget)
    }

    fn model_value(&self, l: Lit) -> Option<bool> {
        Solver::model_value(self, l)
    }

    fn model(&self) -> Vec<bool> {
        Solver::model(self)
    }

    fn unsat_core(&self) -> &[Lit] {
        Solver::unsat_core(self)
    }

    fn stats(&self) -> &Stats {
        Solver::stats(self)
    }
}

/// The backend generic consumers default to: the bundled CDCL solver.
pub type DefaultBackend = Solver;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceBudget;

    /// Exercises the whole trait surface through a generic function, the
    /// way `maxsat` and `olsq` consume it.
    fn roundtrip<B: SatBackend + Default>() {
        let mut backend = B::default();
        backend.reserve_vars(2);
        assert_eq!(backend.num_vars(), 2);
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        assert!(backend.add_clause(&[a, b]));
        assert!(backend.add_clause(&[!a]));
        let r = backend.solve_under_assumptions(&[], &ResourceBudget::unlimited());
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(backend.model_value(b), Some(true));
        assert!(backend.model()[b.var().index()]);
        assert!(backend.stats().decisions <= backend.stats().propagations + 8);

        // Failed assumptions produce a core.
        let r = backend.solve_under_assumptions(&[!b], &ResourceBudget::unlimited());
        assert_eq!(r, SolveResult::Unsat);
        assert!(backend.unsat_core().contains(&!b));
    }

    #[test]
    fn default_backend_satisfies_contract() {
        roundtrip::<DefaultBackend>();
        assert_eq!(DefaultBackend::default().backend_name(), "cdcl");
    }

    #[test]
    fn clause_sink_emit_matches_add_clause() {
        let mut s = DefaultBackend::default();
        let a = ClauseSink::new_var(&mut s).positive();
        s.emit(&[a]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
    }
}
