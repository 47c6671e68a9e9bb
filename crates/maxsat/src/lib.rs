//! An anytime weighted partial MaxSAT solver.
//!
//! This crate plays the role of **Open-WBO-Inc-MCS** in the SATMAP
//! (MICRO 2022) reproduction: a linear SAT-UNSAT search on top of the
//! [`sat`] CDCL solver that returns the best model found so far when
//! interrupted — the property the paper exploits to handle large circuits.
//!
//! * [`WcnfInstance`] — weighted partial MaxSAT instances plus WCNF I/O,
//! * [`encodings`] — at-most-one / exactly-one and (generalized) totalizer
//!   CNF encodings shared with the QMR encoders,
//! * [`solve`] — the anytime optimization loop,
//! * [`strategy`] — its two searches: the paper's linear SAT-UNSAT descent
//!   and a weight-stratified core-guided search. Every call runs exactly
//!   the one [`SolveOptions::strategy`] names; choosing it is the
//!   caller's job.
//!
//! Each call is sequential: it loads the instance into one backend and
//! drives it on the calling thread, so the same instance and options do
//! the same work whenever the budget does not bind. The engine is generic
//! over [`sat::SatBackend`] and never names the concrete solver: [`solve`]
//! uses the workspace default backend, while [`solve_with_backend`]
//! accepts any implementation. Budgets are the
//! shared deadline-based [`ResourceBudget`]; the solver effort of every
//! call is reported in [`MaxSatOutcome::telemetry`].
//!
//! # Examples
//!
//! ```
//! use maxsat::{WcnfInstance, solve, MaxSatStatus};
//! use sat::ResourceBudget;
//!
//! let mut inst = WcnfInstance::new();
//! let a = inst.new_var().positive();
//! inst.add_hard([a]);
//! inst.add_soft(3, [!a]);
//! let out = solve(&inst, ResourceBudget::unlimited());
//! assert_eq!(out.status, MaxSatStatus::Optimal);
//! assert_eq!(out.cost, Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encodings;
mod session;
mod solve;
pub mod strategy;
mod wcnf;

pub use sat::{ResourceBudget, SolverTelemetry};
pub use session::MaxSatSession;
pub use solve::{
    solve, solve_with_backend, solve_with_options, solve_with_session, MaxSatOutcome, MaxSatStatus,
    SolveOptions,
};
pub use strategy::{CoreGuided, LinearSatUnsat, SearchContext, SearchStrategy, Strategy};
pub use wcnf::{SoftClause, WcnfInstance};
