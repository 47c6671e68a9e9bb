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
//! concrete type — swapping in an alternative backend (or a portfolio of
//! them) is then a one-line change per call site.

use crate::budget::ResourceBudget;
use crate::clause_list::ClauseList;
use crate::config::SolverConfig;
use crate::exchange::ExchangePort;
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

    /// Applies search-diversification knobs ([`SolverConfig`]), if the
    /// backend supports them. The default is a no-op so third-party
    /// backends compose into a [`crate::PortfolioBackend`] unchanged (the
    /// portfolio then diversifies only the backends that opt in).
    fn configure(&mut self, config: &SolverConfig) {
        let _ = config;
    }

    /// Requests a portfolio of `width` diversified workers, if the backend
    /// races one. The default is a no-op: single-threaded backends simply
    /// ignore the hint, so generic callers can pass a width without
    /// knowing the backend's shape.
    fn set_portfolio_width(&mut self, width: usize) {
        let _ = width;
    }

    /// Attaches this backend to a portfolio clause exchange (or detaches
    /// it with `None`): while attached, the backend may export learned
    /// clauses and import peers'. The default is a no-op, so backends
    /// without clause-sharing support simply race without cooperating.
    fn set_clause_exchange(&mut self, port: Option<ExchangePort>) {
        let _ = port;
    }

    /// Number of variables created so far.
    fn num_vars(&self) -> usize;

    /// Number of problem clauses loaded so far. Advisory: backends that do
    /// not track a clause count may return 0. Consumers use
    /// `num_vars() + num_clauses()` as the instance-size signal behind the
    /// small-instance sharing and portfolio gates.
    fn num_clauses(&self) -> usize {
        0
    }

    /// Snapshots the full solver state — clause arena (problem *and*
    /// learned clauses), saved phases, activities — as an independent
    /// backend. Returns `None` when the backend cannot snapshot itself.
    ///
    /// This is the warm-start primitive: a MaxSAT session stashes a solved
    /// backend and later solves of the same instance resume from the
    /// snapshot instead of re-emitting the encoding. Reuse is sound
    /// because learned clauses are consequences of the loaded formula and
    /// every bound travels as an assumption, never an asserted clause
    /// (the PR 5 conservative-extension argument).
    ///
    /// `where Self: Sized` keeps [`SatBackend`] object-safe; `dyn`
    /// consumers simply cannot snapshot.
    fn snapshot(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
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

    fn configure(&mut self, config: &SolverConfig) {
        Solver::set_config(self, *config);
    }

    fn set_clause_exchange(&mut self, port: Option<ExchangePort>) {
        Solver::set_clause_exchange(self, port);
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        Solver::num_clauses(self)
    }

    fn snapshot(&self) -> Option<Self> {
        // The flat clause arena makes this a set of contiguous memcpys
        // (~5.5x cheaper than re-emitting clauses, per `arena/*` benches).
        // Any attached exchange port is dropped: a cloned port would
        // duplicate its single-producer export slot.
        let mut snap = self.clone();
        Solver::set_clause_exchange(&mut snap, None);
        Some(snap)
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
