//! Name-indexed construction of every QMR router in the workspace.
//!
//! The experiment runner, the bench harness, the examples, and the
//! integration tests all dispatch through `Box<dyn Router>`; this crate is
//! the one place that knows the concrete types behind the names. Routers
//! are request-driven ([`circuit::RouteRequest`]), so the registry needs
//! no per-router configuration: budgets, objectives, slicing, and the
//! search strategy all arrive with each request.
//!
//! Registered names (aliases in parentheses):
//!
//! | name | router |
//! |---|---|
//! | `satmap` | SATMAP, locally optimal relaxation (slice 25) |
//! | `nl-satmap` | NL-SATMAP, monolithic MaxSAT |
//! | `cyc-satmap` | CYC-SATMAP, cyclic relaxation |
//! | `olsq` (`ex-mqt`) | exhaustive-encoding baseline |
//! | `olsq-tb` (`tb-olsq`) | transition-based baseline |
//! | `sabre` | SABRE heuristic |
//! | `tket` | t\|ket⟩-style heuristic |
//! | `astar` (`mqth-astar`) | MQT-style A* heuristic |
//!
//! The three SAT-based SATMAP variants are built over the bundled CDCL
//! solver ([`StandardBackend`]) and solve each request on the calling
//! thread. Every SAT-based router honors the request's
//! [`circuit::SearchStrategy`]: the MaxSAT engine's linear
//! SAT-UNSAT search, the core-guided lower-bounding search, or `Auto`
//! (the default): core-guided for the SATMAP variants, linear for the
//! OLSQ baselines.
//!
//! Two front ends layer over the registry: [`RouteCache`] (memoization)
//! and [`RouteSupervisor`] (admission control, a retry/escalation ladder
//! with warm-started retries, heuristic degradation, and panic isolation —
//! see [`supervisor`]).
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, RouteRequest};
//! use routers::RouterRegistry;
//! use std::time::Duration;
//!
//! let mut c = Circuit::new(2);
//! c.cx(0, 1);
//! let g = arch::devices::linear(2);
//! let registry = RouterRegistry::standard();
//! let router = registry.create("satmap")?;
//! let request = RouteRequest::new(&c, &g).with_budget(Duration::from_secs(5));
//! let outcome = router.route_request(&request);
//! assert!(outcome.solved());
//! # Ok::<(), routers::UnknownRouter>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod supervisor;

pub use cache::{CacheStats, RouteCache, DEFAULT_OUTCOME_CAPACITY};
pub use supervisor::{admission_verdict, RoutePolicy, RouteSupervisor};

use circuit::Router;
use heuristics::{AStar, Sabre, Tket};
use olsq::{Exhaustive, Transition};
use sat::DefaultBackend;
use satmap::{CyclicSatMap, SatMap, SatMapConfig};

/// A router that can be shared across suite-runner worker threads.
pub type BoxedRouter = Box<dyn Router + Send + Sync>;

/// The backend the registry builds SAT routers over — exported so
/// embedders (the `routed` daemon, custom supervisors) can name the same
/// stack, or substitute a decorated one (e.g.
/// `ChaosBackend<DefaultBackend>`) for fault injection.
pub type StandardBackend = DefaultBackend;

pub(crate) type Backend = StandardBackend;

#[derive(Clone)]
struct Entry {
    name: &'static str,
    aliases: &'static [&'static str],
    summary: &'static str,
    build: fn() -> BoxedRouter,
}

/// Requested router name is not registered. The error lists every valid
/// name so callers (CLI flags, config files) can self-correct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownRouter {
    requested: String,
    known: Vec<&'static str>,
}

impl UnknownRouter {
    /// The name that failed to resolve.
    pub fn requested(&self) -> &str {
        &self.requested
    }

    /// Every name the registry would have accepted.
    pub fn known(&self) -> &[&'static str] {
        &self.known
    }
}

impl std::fmt::Display for UnknownRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown router '{}'; valid names: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownRouter {}

/// Constructs any registered router by name.
///
/// [`RouterRegistry::standard`] registers the full workspace line-up; the
/// registry itself is data, so embedders can live with a subset via
/// [`RouterRegistry::with_names`].
pub struct RouterRegistry {
    entries: Vec<Entry>,
}

impl Default for RouterRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl RouterRegistry {
    /// The full workspace line-up: every solver family of the paper's
    /// comparison.
    pub fn standard() -> Self {
        let entries: Vec<Entry> = vec![
            Entry {
                name: "satmap",
                aliases: &[],
                summary: "SATMAP: locally optimal MaxSAT relaxation (slice 25)",
                build: || Box::new(SatMap::<Backend>::with_backend(SatMapConfig::default())),
            },
            Entry {
                name: "nl-satmap",
                aliases: &[],
                summary: "NL-SATMAP: monolithic MaxSAT (optimal modulo swaps-per-gap)",
                build: || Box::new(SatMap::<Backend>::with_backend(SatMapConfig::monolithic())),
            },
            Entry {
                name: "cyc-satmap",
                aliases: &[],
                summary: "CYC-SATMAP: cyclic relaxation for repeated circuits",
                build: || {
                    Box::new(CyclicSatMap::<Backend>::with_backend(
                        SatMapConfig::default(),
                    ))
                },
            },
            Entry {
                name: "olsq",
                aliases: &["ex-mqt"],
                summary: "exhaustive-encoding constraint baseline (EX-MQT analogue)",
                build: || Box::new(Exhaustive::<Backend>::with_backend()),
            },
            Entry {
                name: "olsq-tb",
                aliases: &["tb-olsq"],
                summary: "transition-based constraint baseline (TB-OLSQ analogue)",
                build: || Box::new(Transition::<Backend>::with_backend()),
            },
            Entry {
                name: "sabre",
                aliases: &[],
                summary: "SABRE bidirectional lookahead heuristic",
                build: || Box::new(Sabre::default()),
            },
            Entry {
                name: "tket",
                aliases: &[],
                summary: "t|ket>-style greedy lookahead heuristic",
                build: || Box::new(Tket::default()),
            },
            Entry {
                name: "astar",
                aliases: &["mqth-astar"],
                summary: "MQT-style layer-by-layer A* heuristic",
                build: || Box::new(AStar::default()),
            },
        ];
        RouterRegistry { entries }
    }

    /// A registry restricted to the given names (aliases resolve to their
    /// canonical entry; duplicates collapse).
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] if any requested name is not registered.
    pub fn with_names(names: &[&str]) -> Result<Self, UnknownRouter> {
        let standard = Self::standard();
        let mut entries: Vec<Entry> = Vec::new();
        for &n in names {
            let entry = standard.find(n).ok_or_else(|| standard.unknown(n))?;
            if !entries.iter().any(|e| e.name == entry.name) {
                entries.push(entry.clone());
            }
        }
        Ok(RouterRegistry { entries })
    }

    /// The canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// `(name, one-line summary)` pairs for help texts.
    pub fn descriptions(&self) -> Vec<(&'static str, &'static str)> {
        self.entries.iter().map(|e| (e.name, e.summary)).collect()
    }

    /// Resolves `name` (or an alias) to its canonical registered name —
    /// the key under which [`RouteCache`] files its entries.
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] listing the valid names.
    pub fn canonical(&self, name: &str) -> Result<&'static str, UnknownRouter> {
        self.find(name)
            .map(|e| e.name)
            .ok_or_else(|| self.unknown(name))
    }

    fn find(&self, name: &str) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
    }

    fn unknown(&self, name: &str) -> UnknownRouter {
        UnknownRouter {
            requested: name.to_string(),
            known: self.names(),
        }
    }

    /// Constructs the router registered under `name` (or one of its
    /// aliases).
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] listing the valid names.
    pub fn create(&self, name: &str) -> Result<BoxedRouter, UnknownRouter> {
        self.find(name)
            .map(|e| (e.build)())
            .ok_or_else(|| self.unknown(name))
    }

    /// Constructs the router and serves one request with it — the
    /// "name + request" one-shot entry point.
    ///
    /// # Errors
    ///
    /// [`UnknownRouter`] listing the valid names.
    pub fn route(
        &self,
        name: &str,
        request: &circuit::RouteRequest<'_>,
    ) -> Result<circuit::RouteOutcome, UnknownRouter> {
        Ok(self
            .create(name)?
            .route_request(request)
            .with_request_id(request.request_id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{Circuit, RouteRequest};

    #[test]
    fn every_name_constructs() {
        let registry = RouterRegistry::standard();
        assert_eq!(
            registry.names(),
            vec![
                "satmap",
                "nl-satmap",
                "cyc-satmap",
                "olsq",
                "olsq-tb",
                "sabre",
                "tket",
                "astar"
            ]
        );
        for name in registry.names() {
            let router = registry.create(name).expect("registered");
            assert!(!router.name().is_empty());
        }
        assert_eq!(registry.descriptions().len(), 8);
    }

    #[test]
    fn aliases_resolve_to_same_router() {
        let registry = RouterRegistry::standard();
        assert_eq!(
            registry.create("ex-mqt").expect("alias").name(),
            registry.create("olsq").expect("canonical").name()
        );
        assert_eq!(
            registry.create("mqth-astar").expect("alias").name(),
            "mqth-astar"
        );
    }

    #[test]
    fn unknown_name_lists_valid_ones() {
        let registry = RouterRegistry::standard();
        let err = match registry.create("qiskit") {
            Err(e) => e,
            Ok(_) => panic!("'qiskit' must not resolve"),
        };
        assert_eq!(err.requested(), "qiskit");
        let msg = err.to_string();
        for name in registry.names() {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
    }

    #[test]
    fn with_names_subsets_dedupes_and_rejects() {
        let subset = RouterRegistry::with_names(&["tket", "ex-mqt"]).expect("subset");
        assert_eq!(subset.names(), vec!["tket", "olsq"]);
        let deduped =
            RouterRegistry::with_names(&["olsq", "ex-mqt", "olsq"]).expect("aliases collapse");
        assert_eq!(deduped.names(), vec!["olsq"]);
        assert!(RouterRegistry::with_names(&["nope"]).is_err());
    }

    #[test]
    fn one_shot_route_by_name() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let g = arch::devices::linear(2);
        let registry = RouterRegistry::standard();
        let outcome = registry
            .route("tket", &RouteRequest::new(&c, &g))
            .expect("known name");
        assert!(outcome.solved());
        assert!(registry.route("nope", &RouteRequest::new(&c, &g)).is_err());
    }
}
