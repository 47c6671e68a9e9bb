//! **SATMAP** — optimal qubit mapping and routing (QMR) via MaxSAT.
//!
//! Reproduction of the core contribution of *"Qubit Mapping and Routing via
//! MaxSAT"* (MICRO 2022): a sketching-inspired Boolean encoding of QMR
//! solved with an anytime MaxSAT engine, plus the paper's two relaxations.
//!
//! * [`encode`] — the Fig. 5 encoding (Hard A–D + soft no-op rewards);
//! * [`SatMap`] — the router: monolithic (**NL-SATMAP**) or with the
//!   locally optimal relaxation of Section V (**SATMAP**), including
//!   backtracking across slice boundaries;
//! * [`CyclicSatMap`] — the cyclic-circuit relaxation of Section VI
//!   (**CYC-SATMAP**), for QAOA-style repeated circuits;
//! * [`circuit::Objective::Fidelity`] — the weighted (noise-aware) variant
//!   of §Q6, selected per request.
//!
//! All routers serve the request-driven [`circuit::Router`] interface:
//! budgets, objectives, slicing, and the MaxSAT search strategy are
//! properties of each [`circuit::RouteRequest`], and every call answers
//! with a [`circuit::RouteOutcome`] carrying telemetry and wall-clock
//! timing. Each request is solved on the thread that routes it, by one
//! sequential anytime MaxSAT search, as in the paper; parallelism comes
//! from routing several requests at once (the experiment runner's
//! `--jobs`, the daemon's worker pool). Solutions can be checked with the independent verifier in
//! [`circuit::verify`].
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, RouteRequest, Router, verify::verify};
//! use satmap::{SatMap, SatMapConfig};
//! use std::time::Duration;
//!
//! // The paper's running example (Fig. 3).
//! let mut c = Circuit::new(4);
//! c.cx(0, 1);
//! c.cx(0, 2);
//! c.cx(3, 2);
//! c.cx(0, 3);
//! let graph = arch::ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
//! let router = SatMap::new(SatMapConfig::monolithic());
//! let request = RouteRequest::new(&c, &graph).with_budget(Duration::from_secs(30));
//! let outcome = router.route_request(&request);
//! let routed = outcome.routed().expect("solves");
//! verify(&c, &graph, routed).expect("solution verifies");
//! assert_eq!(routed.swap_count(), 1); // the single green swap of Fig. 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod config;
mod cyclic;
pub mod encode;
mod solver;

pub use artifact::{EncodedArtifact, RouteSession};
pub use circuit::Objective;
pub use config::SatMapConfig;
pub use cyclic::CyclicSatMap;
pub use solver::{encoding_estimate, SatMap, ENCODING_GUARD_LIMIT};
