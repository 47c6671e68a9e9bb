//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the satisfiability substrate for the SATMAP reproduction:
//! the `maxsat` crate drives it in a loop to solve the qubit mapping and
//! routing (QMR) optimization problem from *"Qubit Mapping and Routing via
//! MaxSAT"* (MICRO 2022).
//!
//! Features:
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * a flat clause arena with garbage-collecting compaction — clause
//!   storage is one contiguous buffer, so snapshotting a loaded solver for
//!   a warm start is a `memcpy` (see [`clause`][ClauseRef]),
//! * flat clause lists ([`ClauseList`]) loaded in one pre-sized bulk call
//!   ([`SatBackend::add_clauses`]),
//! * VSIDS decision heuristic with phase saving,
//! * first-UIP conflict analysis with clause minimization,
//! * Luby restarts and activity/LBD-guided learned-clause reduction,
//! * incremental solving under assumptions with UNSAT-core extraction,
//! * cooperative deadline-based budgets ([`ResourceBudget`]) for anytime
//!   callers — nested calls inherit and can never overshoot a parent's
//!   deadline — with thread-safe cancellation ([`CancelToken`]),
//! * a backend abstraction ([`SatBackend`]) so higher layers are generic
//!   over the solver implementation,
//! * seeded fault injection ([`ChaosBackend`]) for resilience tests,
//! * solver-effort accounting ([`SolverTelemetry`]) that higher layers
//!   aggregate and report,
//! * DIMACS CNF input/output ([`dimacs`]).
//!
//! # Examples
//!
//! ```
//! use sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause([a, b]);   //  a ∨ b
//! solver.add_clause([!a, b]);  // ¬a ∨ b
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod budget;
pub mod chaos;
mod clause;
mod clause_list;
pub mod dimacs;
mod lit;
mod order;
mod solver;
mod stats;
pub mod telemetry;
pub mod trim;

pub use backend::{ClauseSink, DefaultBackend, SatBackend};
pub use budget::{CancelRegistry, CancelToken, ResourceBudget};
pub use chaos::{ChaosBackend, FaultPlan};
pub use clause::ClauseRef;
pub use clause_list::{ClauseList, Clauses};
pub use lit::{LBool, Lit, Var};
pub use solver::{SolveResult, Solver};
pub use stats::Stats;
pub use telemetry::SolverTelemetry;
pub use trim::trim_core;
