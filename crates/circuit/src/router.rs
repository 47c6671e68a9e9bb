//! The common interface implemented by every QMR solver in this repository
//! (SATMAP, its relaxations, the heuristic baselines, and the
//! constraint-based baselines).
//!
//! Routers are *request-driven*: the single entry point
//! [`Router::route_request`] takes a [`RouteRequest`] (circuit + device +
//! per-request budget/objective/strategy knobs) and answers with a
//! [`RouteOutcome`] (routed circuit or typed failure, always with
//! telemetry and wall-clock timing). The trait is dyn-safe, so harnesses
//! dispatch through `Box<dyn Router>` — typically obtained from a router
//! registry — instead of naming concrete solver types.

use arch::ConnectivityGraph;

use crate::circuit::Circuit;
use crate::request::{RouteOutcome, RouteRequest};
use crate::routed::RoutedCircuit;

/// Why routing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The request was malformed before any solving started: the circuit
    /// cannot fit the device, the device graph is disconnected, or a knob
    /// is degenerate (see [`RouteRequest::validate`]).
    InvalidRequest(String),
    /// The solver's resource budget expired before any solution was found.
    Timeout,
    /// The instance is unsatisfiable under the solver's constraints (e.g.
    /// no schedule exists within the configured swaps-per-gap).
    Unsatisfiable(String),
    /// Admission control shed the request before any encoding was paid
    /// for: its predicted encoding size exceeds what the budgeted solver
    /// could finish (see the supervisor's admission limit). Retry with a
    /// bigger budget, a heuristic router, or a smaller circuit.
    Overloaded(String),
    /// The solver crashed (a panic was caught at an isolation boundary)
    /// and no usable partial answer survived. Retryable: supervisors treat
    /// it like a timeout and re-attempt or degrade.
    Internal(String),
    /// The client (or an operator) cancelled the request while it was
    /// queued or solving — the per-request abort handle fired. Not
    /// retryable: cancellation is the caller saying *stop*, so supervisors
    /// return it immediately instead of escalating or degrading.
    Cancelled,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            RouteError::Timeout => write!(f, "routing budget exhausted"),
            RouteError::Unsatisfiable(why) => write!(f, "instance unsatisfiable: {why}"),
            RouteError::Overloaded(why) => write!(f, "request shed by admission control: {why}"),
            RouteError::Internal(why) => write!(f, "internal solver failure: {why}"),
            RouteError::Cancelled => write!(f, "request cancelled by abort handle"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A qubit mapping and routing algorithm.
///
/// Implementations provide [`Router::route_request`]; the convenience
/// [`Router::route`] wraps a default request (unlimited budget, serial
/// solving) for callers that only want the routed circuit.
pub trait Router {
    /// Short identifier used in experiment tables (e.g. `"satmap"`).
    fn name(&self) -> &str;

    /// Solves QMR for the request, returning a [`RouteOutcome`] that
    /// always carries the solver effort spent and the wall-clock time of
    /// the attempt — including effort spent on failed attempts, which the
    /// experiment tables must not under-report.
    fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome;

    /// Convenience wrapper: routes `circuit` on `graph` under a default
    /// request and discards telemetry.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidRequest`] for malformed inputs,
    /// [`RouteError::Timeout`] if the budget expired without a solution,
    /// [`RouteError::Unsatisfiable`] if no solution exists.
    fn route(
        &self,
        circuit: &Circuit,
        graph: &ConnectivityGraph,
    ) -> Result<RoutedCircuit, RouteError> {
        self.route_request(&RouteRequest::new(circuit, graph))
            .into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::SolverTelemetry;

    #[test]
    fn error_display() {
        assert!(RouteError::Timeout.to_string().contains("budget"));
        assert!(RouteError::Unsatisfiable("x".into())
            .to_string()
            .contains('x'));
        assert!(RouteError::InvalidRequest("y".into())
            .to_string()
            .contains("invalid request: y"));
        assert!(RouteError::Overloaded("too big".into())
            .to_string()
            .contains("admission control: too big"));
        assert!(RouteError::Internal("worker died".into())
            .to_string()
            .contains("internal solver failure: worker died"));
        assert!(RouteError::Cancelled.to_string().contains("cancelled"));
    }

    /// A stub proving the trait is dyn-safe and that the provided `route`
    /// delegates through `route_request`.
    struct Always;

    impl Router for Always {
        fn name(&self) -> &str {
            "always"
        }

        fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome {
            RouteOutcome::capture(self.name(), || {
                (
                    request.validate().map(|()| {
                        crate::RoutedCircuit::new(
                            (0..request.circuit().num_qubits()).collect(),
                            Vec::new(),
                        )
                    }),
                    SolverTelemetry::default(),
                )
            })
        }
    }

    #[test]
    fn provided_route_goes_through_route_request() {
        let c = Circuit::new(2);
        let g = arch::devices::linear(2);
        let boxed: Box<dyn Router> = Box::new(Always);
        let routed = boxed.route(&c, &g).expect("routes");
        assert_eq!(routed.swap_count(), 0);

        let oversized = Circuit::new(9);
        assert!(matches!(
            boxed.route(&oversized, &g),
            Err(RouteError::InvalidRequest(_))
        ));
    }
}
