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
//!   storage is one contiguous buffer, so cloning a formula for a
//!   portfolio worker is a `memcpy` (see [`clause`][ClauseRef]),
//! * flat clause lists ([`ClauseList`]) loaded in one pre-sized bulk call
//!   ([`SatBackend::add_clauses`]),
//! * VSIDS decision heuristic with phase saving,
//! * first-UIP conflict analysis with clause minimization,
//! * Luby restarts and activity/LBD-guided learned-clause reduction,
//! * portfolio clause sharing: bounded lock-free export channels
//!   ([`ClauseExchange`], one per race) carry low-LBD learned clauses
//!   between racing workers, imported at restart boundaries,
//! * incremental solving under assumptions with UNSAT-core extraction,
//! * cooperative deadline-based budgets ([`ResourceBudget`]) for anytime
//!   callers — nested calls inherit and can never overshoot a parent's
//!   deadline — with thread-safe cancellation ([`CancelToken`]),
//! * a backend abstraction ([`SatBackend`]) so higher layers are generic
//!   over the solver implementation,
//! * deterministic search diversification ([`SolverConfig`]) and a
//!   multi-threaded portfolio backend ([`PortfolioBackend`]) racing
//!   diversified workers to the first definitive answer — a library
//!   component only: no layer of the routing stack uses it, and every
//!   route solves on one plain [`Solver`] on the calling thread,
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
pub mod config;
pub mod dimacs;
pub mod exchange;
mod lit;
mod order;
pub mod portfolio;
mod solver;
mod stats;
pub mod telemetry;
pub mod trim;

pub use backend::{ClauseSink, DefaultBackend, SatBackend};
pub use budget::{CancelRegistry, CancelToken, ResourceBudget};
pub use chaos::{ChaosBackend, FaultPlan};
pub use clause::ClauseRef;
pub use clause_list::{ClauseList, Clauses};
pub use config::{PhaseInit, SolverConfig};
pub use exchange::{ClauseExchange, ExchangePort, DEFAULT_MIN_INSTANCE_SIZE};
pub use lit::{LBool, Lit, Var};
pub use portfolio::{auto_width, auto_width_for_jobs, PortfolioBackend, MAX_AUTO_WIDTH};
pub use solver::{SolveResult, Solver};
pub use stats::Stats;
pub use telemetry::SolverTelemetry;
pub use trim::trim_core;
