//! Constraint-based QMR baselines for the SATMAP (MICRO 2022) reproduction.
//!
//! The two exact tools of the paper's Q1 comparison, rebuilt on the same
//! MaxSAT substrate so the comparison isolates *encoding* differences (the
//! factor the paper credits for SATMAP's 3×-more-solved / 20–400×-faster
//! results):
//!
//! * [`Exhaustive`] — EX-MQT analogue: the naive `O(|Phys|²·|Logic|·|C|)`
//!   encoding with pairwise injectivity and per-edge frame axioms;
//! * [`Transition`] — TB-OLSQ analogue: transition-based (time-coordinate)
//!   encoding with order-encoded schedules and iterative block deepening.
//!
//! Both routers are generic over [`sat::SatBackend`] (the concrete solver
//! is never named here), take their deadline-based
//! [`sat::ResourceBudget`] and search strategy from each
//! [`circuit::RouteRequest`], and report [`sat::SolverTelemetry`] through
//! the returned [`circuit::RouteOutcome`].
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, Router};
//! use olsq::Transition;
//! let mut c = Circuit::new(2);
//! c.cx(0, 1);
//! let g = arch::devices::linear(2);
//! assert_eq!(Transition::default().route(&c, &g)?.swap_count(), 0);
//! # Ok::<(), circuit::RouteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exhaustive;
mod transition;

pub use exhaustive::Exhaustive;
pub use transition::Transition;

/// The `maxsat` engine options a request resolves to for these baselines:
/// the search strategy from the request's strategy knob.
pub(crate) fn engine_options(request: &circuit::RouteRequest<'_>) -> maxsat::SolveOptions {
    let strategy = match request.strategy() {
        // The baselines solve unweighted swap-count objectives only, so
        // the `Auto` default always lands on linear.
        circuit::SearchStrategy::Auto | circuit::SearchStrategy::Linear => {
            maxsat::Strategy::LinearSatUnsat
        }
        circuit::SearchStrategy::CoreGuided => maxsat::Strategy::CoreGuided,
    };
    maxsat::SolveOptions::default().with_strategy(strategy)
}
