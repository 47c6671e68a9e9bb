//! The request/response surface of the routing API.
//!
//! Every router in the workspace serves the same two types:
//!
//! * [`RouteRequest`] — *what to route and under which resources*: the
//!   circuit, the device graph, and a [`RouteSpec`] of per-request knobs
//!   (budget, objective, slicing, encoding quantization, search strategy,
//!   and an optional repeated-structure declaration);
//! * [`RouteOutcome`] — *what happened*: the routed circuit or a typed
//!   [`RouteError`], always together with the [`sat::SolverTelemetry`]
//!   spent, the wall-clock time of the attempt, and solver-specific
//!   diagnostics.
//!
//! Requests make budgets and objectives a property of the *call*, not the
//! router: the same boxed [`crate::Router`] can serve an unlimited
//! interactive request and a 2-second sweep request back to back. The
//! budget threads unchanged through every nested MaxSAT and SAT call (see
//! [`sat::ResourceBudget`]). A request is routed on the thread that
//! serves it; callers that want more cores busy route more requests at
//! once.
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, RouteRequest};
//! use std::time::Duration;
//!
//! let mut c = Circuit::new(2);
//! c.cx(0, 1);
//! let g = arch::devices::linear(2);
//! let request = RouteRequest::new(&c, &g).with_budget(Duration::from_secs(2));
//! assert!(request.validate().is_ok());
//! assert_eq!(request.budget().remaining_time(), Some(Duration::from_secs(2)));
//! ```

use std::time::{Duration, Instant};

use arch::{ConnectivityGraph, NoiseModel};
use sat::{ResourceBudget, SolverTelemetry};

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::routed::RoutedCircuit;
use crate::router::RouteError;

/// What the MaxSAT objective minimizes (ignored by pure heuristics).
#[derive(Clone, Debug, Default)]
pub enum Objective {
    /// Minimize the number of inserted SWAPs (the paper's main mode).
    #[default]
    SwapCount,
    /// Maximize circuit fidelity under a noise model (the paper's Q6 mode):
    /// soft-clause weights encode per-edge log-infidelities of SWAPs and of
    /// the two-qubit gates themselves.
    Fidelity(NoiseModel),
}

/// Per-request override of a router's slicing strategy (Section V of the
/// paper). Routers without a slicing notion ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Slicing {
    /// Keep whatever the router was constructed with.
    #[default]
    RouterDefault,
    /// Solve one monolithic instance (NL-SATMAP behaviour).
    Monolithic,
    /// Locally optimal relaxation with this many two-qubit gates per slice.
    Sliced(usize),
}

/// Which MaxSAT search strategy the SAT-based routers run per request
/// (pure heuristics ignore it). Mirrors `maxsat::Strategy` without a
/// dependency on the engine crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// The router's default search. The SATMAP routers run the stratified
    /// core-guided search for every objective, so `Auto` behaves exactly
    /// like [`SearchStrategy::CoreGuided`] there; the OLSQ baselines run
    /// the linear search.
    #[default]
    Auto,
    /// Model-improving linear SAT-UNSAT search (the paper's behaviour).
    Linear,
    /// OLL-style core-guided lower-bounding search.
    CoreGuided,
}

/// Declares that the request's circuit is `prefix ; C ; C ; … ; C`: a
/// gate prefix followed by `cycles` identical copies of a subcircuit
/// (QAOA's shape, Section VI of the paper). Cyclic-aware routers solve the
/// subcircuit once and stitch copies; everyone else routes the flat gate
/// list and loses nothing but time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepeatedStructure {
    /// Number of leading gates (by index) forming the prefix. The prefix
    /// must not contain two-qubit gates.
    pub prefix_len: usize,
    /// How many identical copies of the subcircuit follow the prefix.
    pub cycles: usize,
}

/// The per-request knobs of a [`RouteRequest`], separated out so sweep
/// harnesses can apply one spec across many circuits.
///
/// # Examples
///
/// ```
/// use circuit::{RouteSpec, Slicing};
/// use std::time::Duration;
/// let spec = RouteSpec {
///     budget: Duration::from_secs(2).into(),
///     slicing: Slicing::Sliced(10),
///     ..RouteSpec::default()
/// };
/// assert_eq!(spec.slicing, Slicing::Sliced(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteSpec {
    /// Compilation budget for the whole request; armed once when routing
    /// starts and inherited by every nested MaxSAT/SAT call.
    pub budget: ResourceBudget,
    /// Optimization objective.
    pub objective: Objective,
    /// Slicing override for routers with a locally optimal relaxation.
    pub slicing: Slicing,
    /// Override of the paper's `n` (SWAP slots per gap); `None` keeps the
    /// router default of 1.
    pub swaps_per_gap: Option<usize>,
    /// Override of the MaxSAT totalizer weight quantization (see
    /// `maxsat::SolveOptions::totalizer_units`).
    pub totalizer_units: Option<u64>,
    /// Which MaxSAT search strategy drives the optimization.
    pub strategy: SearchStrategy,
    /// Repeated-structure declaration for cyclic-aware routers.
    pub repetition: Option<RepeatedStructure>,
    /// Caller-assigned correlation id, stamped into the outcome's
    /// telemetry and JSON row so server responses, sweep rows, and client
    /// logs are joinable. Latency-metadata only, like the budget: it is
    /// **excluded** from [`RouteRequest::fingerprint`], so two requests
    /// that differ only in id share cache entries and warm-start sessions.
    pub request_id: Option<u64>,
}

/// One routing request: a circuit, a device, and the [`RouteSpec`] knobs.
///
/// Build with [`RouteRequest::new`] plus the `with_*` methods, or apply a
/// prebuilt spec with [`RouteRequest::with_spec`]. Routers answer with a
/// [`RouteOutcome`].
#[derive(Clone, Debug)]
pub struct RouteRequest<'a> {
    circuit: &'a Circuit,
    graph: &'a ConnectivityGraph,
    spec: RouteSpec,
}

impl<'a> RouteRequest<'a> {
    /// A request with default knobs: unlimited budget, swap-count
    /// objective, router-default slicing, serial solving.
    pub fn new(circuit: &'a Circuit, graph: &'a ConnectivityGraph) -> Self {
        Self::with_spec(circuit, graph, RouteSpec::default())
    }

    /// A request carrying a prebuilt spec.
    pub fn with_spec(circuit: &'a Circuit, graph: &'a ConnectivityGraph, spec: RouteSpec) -> Self {
        RouteRequest {
            circuit,
            graph,
            spec,
        }
    }

    /// Sets the compilation budget (a plain [`Duration`] converts to a
    /// wall-clock budget).
    #[must_use]
    pub fn with_budget(mut self, budget: impl Into<ResourceBudget>) -> Self {
        self.spec.budget = budget.into();
        self
    }

    /// Sets the optimization objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.spec.objective = objective;
        self
    }

    /// Sets the slicing override.
    #[must_use]
    pub fn with_slicing(mut self, slicing: Slicing) -> Self {
        self.spec.slicing = slicing;
        self
    }

    /// Sets the number of SWAP slots per gap (the paper's `n`).
    #[must_use]
    pub fn with_swaps_per_gap(mut self, n: usize) -> Self {
        self.spec.swaps_per_gap = Some(n);
        self
    }

    /// Sets the totalizer weight quantization.
    #[must_use]
    pub fn with_totalizer_units(mut self, units: u64) -> Self {
        self.spec.totalizer_units = Some(units);
        self
    }

    /// Sets the MaxSAT search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.spec.strategy = strategy;
        self
    }

    /// Declares the circuit's repeated structure.
    #[must_use]
    pub fn with_repetition(mut self, repetition: RepeatedStructure) -> Self {
        self.spec.repetition = Some(repetition);
        self
    }

    /// Attaches a caller-assigned correlation id (see
    /// [`RouteSpec::request_id`]).
    #[must_use]
    pub fn with_request_id(mut self, id: u64) -> Self {
        self.spec.request_id = Some(id);
        self
    }

    /// The circuit to route.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// The device connectivity graph.
    pub fn graph(&self) -> &'a ConnectivityGraph {
        self.graph
    }

    /// The full spec.
    pub fn spec(&self) -> &RouteSpec {
        &self.spec
    }

    /// The (unarmed) request budget.
    pub fn budget(&self) -> &ResourceBudget {
        &self.spec.budget
    }

    /// The optimization objective.
    pub fn objective(&self) -> &Objective {
        &self.spec.objective
    }

    /// The slicing override.
    pub fn slicing(&self) -> Slicing {
        self.spec.slicing
    }

    /// The `n`-swaps-per-gap override.
    pub fn swaps_per_gap(&self) -> Option<usize> {
        self.spec.swaps_per_gap
    }

    /// The totalizer quantization override.
    pub fn totalizer_units(&self) -> Option<u64> {
        self.spec.totalizer_units
    }

    /// The MaxSAT search strategy.
    pub fn strategy(&self) -> SearchStrategy {
        self.spec.strategy
    }

    /// The repeated-structure declaration, if any.
    pub fn repetition(&self) -> Option<RepeatedStructure> {
        self.spec.repetition
    }

    /// The caller-assigned correlation id, if any.
    pub fn request_id(&self) -> Option<u64> {
        self.spec.request_id
    }

    /// Checks the preconditions shared by every router, so malformed
    /// inputs fail with [`RouteError::InvalidRequest`] before any solver
    /// work starts.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidRequest`] when the circuit has no qubits, the
    /// device has no qubits, the circuit needs more logical qubits than
    /// the device has physical ones, the device graph is disconnected (and
    /// the circuit has two-qubit gates), a knob is degenerate (zero swap
    /// slots per gap, zero-gate slices), or a declared repetition does not
    /// match the gate list.
    pub fn validate(&self) -> Result<(), RouteError> {
        let invalid = |why: String| Err(RouteError::InvalidRequest(why));
        if self.circuit.num_qubits() == 0 {
            return invalid("circuit has no qubits".into());
        }
        if self.graph.num_qubits() == 0 {
            return invalid("device has no qubits".into());
        }
        if self.circuit.num_qubits() > self.graph.num_qubits() {
            return invalid(format!(
                "{} logical qubits exceed {} physical qubits",
                self.circuit.num_qubits(),
                self.graph.num_qubits()
            ));
        }
        if self.circuit.num_two_qubit_gates() > 0
            && self.circuit.num_qubits() > 1
            && !self.graph.is_connected()
        {
            // A disconnected device may still work if the interaction
            // graph fits inside one component, but none of the paper's
            // devices are disconnected; reject for clarity.
            return invalid("device connectivity graph is disconnected".into());
        }
        if self.spec.swaps_per_gap == Some(0) {
            return invalid("swaps_per_gap must be at least 1".into());
        }
        if self.spec.slicing == Slicing::Sliced(0) {
            return invalid("slice size must be at least 1".into());
        }
        if let Some(rep) = self.spec.repetition {
            self.validate_repetition(rep)?;
        }
        Ok(())
    }

    fn validate_repetition(&self, rep: RepeatedStructure) -> Result<(), RouteError> {
        let invalid = |why: String| Err(RouteError::InvalidRequest(why));
        if rep.cycles == 0 {
            return invalid("repetition must have at least one cycle".into());
        }
        let gates = self.circuit.gates();
        if rep.prefix_len > gates.len() {
            return invalid(format!(
                "repetition prefix of {} gates exceeds the {}-gate circuit",
                rep.prefix_len,
                gates.len()
            ));
        }
        if gates[..rep.prefix_len].iter().any(|g| g.is_two_qubit()) {
            return invalid("repetition prefix must not contain two-qubit gates".into());
        }
        let body = &gates[rep.prefix_len..];
        if !body.len().is_multiple_of(rep.cycles) {
            return invalid(format!(
                "{} gates after the prefix do not divide into {} cycles",
                body.len(),
                rep.cycles
            ));
        }
        let sub_len = body.len() / rep.cycles;
        let first = &body[..sub_len];
        for c in 1..rep.cycles {
            if &body[c * sub_len..(c + 1) * sub_len] != first {
                return invalid(format!("cycle {c} differs from the first repetition"));
            }
        }
        Ok(())
    }

    /// The declared subcircuit bounds `(prefix_len, sub_len)` when a
    /// repetition is present (after [`RouteRequest::validate`] succeeded).
    pub fn repeated_subcircuit_len(&self) -> Option<(usize, usize)> {
        let rep = self.spec.repetition?;
        let body = self.circuit.len().checked_sub(rep.prefix_len)?;
        Some((rep.prefix_len, body / rep.cycles.max(1)))
    }

    /// A canonical 64-bit fingerprint of everything that determines the
    /// routing *answer*: the gate list, the device graph, and the
    /// answer-relevant spec knobs (objective — including the noise model's
    /// error rates under [`Objective::Fidelity`] — slicing, swaps per gap,
    /// totalizer quantization, search strategy, repetition).
    ///
    /// The budget and the correlation [`RouteSpec::request_id`] are
    /// deliberately **excluded**: they change
    /// how long the answer takes (or how it is logged), not what it is, so
    /// a request retried with a bigger budget or resubmitted under a new
    /// server id maps to the same cache key (and can warm-start from the
    /// earlier attempt's session).
    /// Conversely every fingerprint-relevant knob is also hashed by value,
    /// so two specs that resolve identically collide on purpose.
    ///
    /// The hash is FNV-1a over a canonical byte serialization — stable
    /// across processes and platforms (floats hash via [`f64::to_bits`]),
    /// unlike [`std::hash::RandomState`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        // Circuit: arity tag + mnemonic + operands + parameter per gate.
        h.usize(self.circuit.num_qubits());
        h.usize(self.circuit.len());
        for gate in self.circuit.gates() {
            match gate {
                Gate::One { kind, qubit, param } => {
                    h.byte(1);
                    h.str(kind.qasm_name());
                    h.usize(qubit.0);
                    h.f64(param.unwrap_or(0.0));
                }
                Gate::Two { kind, a, b, param } => {
                    h.byte(2);
                    h.str(kind.qasm_name());
                    h.usize(a.0);
                    h.usize(b.0);
                    h.f64(param.unwrap_or(0.0));
                }
            }
        }
        // Device: size + edge list (names are cosmetic and excluded).
        h.usize(self.graph.num_qubits());
        h.usize(self.graph.num_edges());
        for &(a, b) in self.graph.edges() {
            h.usize(a);
            h.usize(b);
        }
        // Spec: only the answer-relevant knobs.
        match &self.spec.objective {
            Objective::SwapCount => h.byte(0),
            Objective::Fidelity(noise) => {
                h.byte(1);
                for q in 0..self.graph.num_qubits() {
                    h.f64(noise.sq_error(q));
                }
                for &(a, b) in self.graph.edges() {
                    h.f64(noise.cx_error(a, b));
                }
            }
        }
        match self.spec.slicing {
            Slicing::RouterDefault => h.byte(0),
            Slicing::Monolithic => h.byte(1),
            Slicing::Sliced(n) => {
                h.byte(2);
                h.usize(n);
            }
        }
        h.usize(self.spec.swaps_per_gap.map_or(0, |n| n + 1));
        h.u64(self.spec.totalizer_units.map_or(0, |u| u.wrapping_add(1)));
        // Byte 2 belonged to a retired strategy; the others keep their
        // values so existing fingerprints stay valid.
        h.byte(match self.spec.strategy {
            SearchStrategy::Linear => 0,
            SearchStrategy::CoreGuided => 1,
            SearchStrategy::Auto => 3,
        });
        match self.spec.repetition {
            None => h.byte(0),
            Some(rep) => {
                h.byte(1);
                h.usize(rep.prefix_len);
                h.usize(rep.cycles);
            }
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across processes —
/// exactly what a persistent cache key needs (the std hasher is seeded
/// per-process by design).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// How trustworthy a served [`RouteOutcome`] is — the stamp a resilience
/// layer (retry ladder, heuristic fallback) leaves so callers and caches
/// can tell a proven answer from a best-effort one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouteQuality {
    /// The answer carries the router's full proof strength (for SATMAP's
    /// monolithic mode, optimal modulo the configured knobs), served on
    /// the first attempt. The default: plain routers without a supervisor
    /// produce either this or a typed failure.
    #[default]
    Optimal,
    /// Same proof strength as [`RouteQuality::Optimal`], proven on retry
    /// `n` of the escalation ladder. The retry may warm-start from the
    /// failed attempt's session; its clause DB and bounds are a
    /// conservative extension of the instance, so the re-solve proves the
    /// *same* optimum.
    WarmRetry(u32),
    /// Best-effort only: the escalation ladder fell back to a heuristic
    /// router, or the solver returned an incumbent it could not prove
    /// optimal before the budget died. Usable, but not canonical — caches
    /// must never memoize it as the answer for the fingerprint.
    Degraded,
}

impl RouteQuality {
    /// Stable lowercase label for JSON rows (`optimal` / `warm_retry` /
    /// `degraded`; retry counts travel in the separate `attempts` field).
    pub fn label(&self) -> &'static str {
        match self {
            RouteQuality::Optimal => "optimal",
            RouteQuality::WarmRetry(_) => "warm_retry",
            RouteQuality::Degraded => "degraded",
        }
    }

    /// True when the answer carries the router's full proof strength
    /// (first-attempt or warm-retried — both are equally trustworthy).
    pub fn is_proven(&self) -> bool {
        !matches!(self, RouteQuality::Degraded)
    }
}

impl std::fmt::Display for RouteQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteQuality::WarmRetry(n) => write!(f, "warm_retry({n})"),
            other => f.write_str(other.label()),
        }
    }
}

/// The response to a [`RouteRequest`]: the routed circuit or a typed
/// failure, always carrying the solver effort spent, the wall-clock time
/// of the attempt, and solver-specific diagnostics.
///
/// Failed attempts carry their telemetry too — a timed-out run is exactly
/// the one whose effort the experiment tables must not under-report.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    router: String,
    result: Result<RoutedCircuit, RouteError>,
    telemetry: SolverTelemetry,
    wall_time: Duration,
    diagnostics: Vec<(String, String)>,
    quality: RouteQuality,
    attempts: u32,
}

impl RouteOutcome {
    /// Assembles an outcome from its parts.
    pub fn new(
        router: &str,
        result: Result<RoutedCircuit, RouteError>,
        telemetry: SolverTelemetry,
        wall_time: Duration,
    ) -> Self {
        RouteOutcome {
            router: router.to_string(),
            result,
            telemetry,
            wall_time,
            diagnostics: Vec::new(),
            quality: RouteQuality::Optimal,
            attempts: 1,
        }
    }

    /// Runs `f`, timing it, and wraps its result and telemetry — the
    /// one-liner router implementations build their outcome with.
    pub fn capture(
        router: &str,
        f: impl FnOnce() -> (Result<RoutedCircuit, RouteError>, SolverTelemetry),
    ) -> Self {
        let started = Instant::now();
        let (result, telemetry) = f();
        Self::new(router, result, telemetry, started.elapsed())
    }

    /// Appends a solver-specific diagnostic key/value pair.
    #[must_use]
    pub fn with_diagnostic(mut self, key: &str, value: impl ToString) -> Self {
        self.diagnostics.push((key.to_string(), value.to_string()));
        self
    }

    /// Returns a copy with the result replaced, keeping telemetry, wall
    /// time, and diagnostics — for harnesses that re-judge a result (e.g.
    /// after independent verification).
    #[must_use]
    pub fn with_result(mut self, result: Result<RoutedCircuit, RouteError>) -> Self {
        self.result = result;
        self
    }

    /// Name of the router that served the request.
    pub fn router(&self) -> &str {
        &self.router
    }

    /// The routed circuit or the typed failure.
    pub fn result(&self) -> &Result<RoutedCircuit, RouteError> {
        &self.result
    }

    /// The routed circuit, when routing succeeded.
    pub fn routed(&self) -> Option<&RoutedCircuit> {
        self.result.as_ref().ok()
    }

    /// The failure, when routing failed.
    pub fn error(&self) -> Option<&RouteError> {
        self.result.as_ref().err()
    }

    /// True when routing produced a solution.
    pub fn solved(&self) -> bool {
        self.result.is_ok()
    }

    /// Consumes the outcome, keeping only the result.
    #[allow(clippy::missing_errors_doc)]
    pub fn into_result(self) -> Result<RoutedCircuit, RouteError> {
        self.result
    }

    /// Consumes the outcome into `(result, telemetry)`.
    #[allow(clippy::missing_errors_doc)]
    pub fn into_parts(self) -> (Result<RoutedCircuit, RouteError>, SolverTelemetry) {
        (self.result, self.telemetry)
    }

    /// Solver effort spent on the attempt (empty for pure heuristics).
    pub fn telemetry(&self) -> &SolverTelemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry — the hook caches and warm-start
    /// layers use to stamp `cache_hit`/`warm_start` onto an outcome they
    /// serve or replay.
    pub fn telemetry_mut(&mut self) -> &mut SolverTelemetry {
        &mut self.telemetry
    }

    /// Wall-clock duration of the attempt.
    pub fn wall_time(&self) -> Duration {
        self.wall_time
    }

    /// Returns the outcome stamped with a quality grade (see
    /// [`RouteQuality`]; new outcomes default to
    /// [`RouteQuality::Optimal`]).
    #[must_use]
    pub fn with_quality(mut self, quality: RouteQuality) -> Self {
        self.quality = quality;
        self
    }

    /// Returns the outcome stamped with the number of attempts a
    /// supervisor spent serving it (new outcomes default to 1).
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Returns the outcome stamped with the request's correlation id (see
    /// [`RouteSpec::request_id`]). The id lives in the telemetry so it
    /// survives `absorb` aggregation and lands in the JSON row; serving
    /// layers (registry, cache, supervisor, daemon) stamp it from the
    /// request they answered, which also re-stamps cache replays with the
    /// *new* request's id.
    #[must_use]
    pub fn with_request_id(mut self, id: Option<u64>) -> Self {
        if id.is_some() {
            self.telemetry.request_id = id;
        }
        self
    }

    /// The trustworthiness grade of this answer.
    pub fn quality(&self) -> RouteQuality {
        self.quality
    }

    /// How many attempts (first try + retries + fallback) served this
    /// outcome. 1 for plain, unsupervised routing.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// All solver-specific diagnostics, in insertion order.
    pub fn diagnostics(&self) -> &[(String, String)] {
        &self.diagnostics
    }

    /// Looks up one diagnostic by key.
    pub fn diagnostic(&self, key: &str) -> Option<&str> {
        self.diagnostics
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the outcome as one JSON object — the row schema shared
    /// by the experiment sweeps (`SATMAP_ROWS_JSON`) and the bench report
    /// (`BENCH_satmap.json`).
    pub fn to_json(&self) -> String {
        let t = &self.telemetry;
        let mut out = String::from("{");
        out.push_str(&format!("\"router\":\"{}\"", escape_json(&self.router)));
        out.push_str(&format!(",\"solved\":{}", self.solved()));
        match &self.result {
            Ok(routed) => {
                out.push_str(&format!(",\"swaps\":{}", routed.swap_count()));
                out.push_str(&format!(",\"added_gates\":{}", routed.added_gates()));
                out.push_str(",\"error\":null");
            }
            Err(e) => {
                out.push_str(",\"swaps\":null,\"added_gates\":null");
                out.push_str(&format!(",\"error\":\"{}\"", escape_json(&e.to_string())));
            }
        }
        out.push_str(&format!(",\"wall_s\":{:.6}", self.wall_time.as_secs_f64()));
        out.push_str(&format!(",\"sat_calls\":{}", t.sat_calls));
        out.push_str(&format!(",\"conflicts\":{}", t.conflicts));
        out.push_str(&format!(",\"decisions\":{}", t.decisions));
        out.push_str(&format!(",\"propagations\":{}", t.propagations));
        out.push_str(&format!(",\"restarts\":{}", t.restarts));
        out.push_str(&format!(",\"db_reductions\":{}", t.db_reductions));
        out.push_str(&format!(",\"compactions\":{}", t.compactions));
        out.push_str(&format!(",\"arena_bytes\":{}", t.arena_bytes));
        match t.request_id {
            Some(id) => out.push_str(&format!(",\"request_id\":{id}")),
            None => out.push_str(",\"request_id\":null"),
        }
        out.push_str(&format!(",\"quality\":\"{}\"", self.quality.label()));
        out.push_str(&format!(",\"attempts\":{}", self.attempts));
        out.push_str(&format!(",\"worker_panics\":{}", t.worker_panics));
        out.push_str(&format!(",\"cache_hit\":{}", t.cache_hit));
        out.push_str(&format!(",\"warm_start\":{}", t.warm_start));
        out.push_str(&format!(",\"reused_clauses\":{}", t.reused_clauses));
        out.push_str(&format!(",\"encode_s\":{:.6}", t.encode_time.as_secs_f64()));
        out.push_str(&format!(",\"solve_s\":{:.6}", t.solve_time.as_secs_f64()));
        out.push_str(&format!(",\"slices\":{}", t.slices));
        out.push_str(&format!(",\"backtracks\":{}", t.backtracks));
        match t.strategy {
            Some(s) => out.push_str(&format!(",\"strategy\":\"{}\"", escape_json(s))),
            None => out.push_str(",\"strategy\":null"),
        }
        out.push_str(&format!(",\"strata\":{}", t.strata));
        out.push_str(&format!(",\"exhaustion_steps\":{}", t.exhaustion_steps));
        out.push_str(&format!(",\"hardened_softs\":{}", t.hardened_softs));
        out.push_str(",\"diagnostics\":{");
        for (i, (k, v)) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal — shared by
/// the harnesses that extend the [`RouteOutcome::to_json`] row schema with
/// their own fields.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routed::RoutedOp;

    fn fig3() -> Circuit {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(0, 2);
        c.cx(3, 2);
        c.cx(0, 3);
        c
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = fig3();
        let g = arch::devices::tokyo();
        let req = RouteRequest::new(&c, &g)
            .with_budget(Duration::from_secs(1))
            .with_objective(Objective::SwapCount)
            .with_slicing(Slicing::Sliced(5))
            .with_swaps_per_gap(2)
            .with_totalizer_units(100);
        assert_eq!(req.slicing(), Slicing::Sliced(5));
        assert_eq!(req.swaps_per_gap(), Some(2));
        assert_eq!(req.totalizer_units(), Some(100));
        assert_eq!(
            req.budget().remaining_time(),
            Some(Duration::from_secs(1)),
            "unarmed budget reports its full allowance"
        );
        assert!(req.validate().is_ok());
    }

    #[test]
    fn validate_rejects_oversized_circuit() {
        let c = Circuit::new(3);
        let g = arch::devices::linear(2);
        let err = RouteRequest::new(&c, &g).validate().unwrap_err();
        assert!(matches!(err, RouteError::InvalidRequest(_)), "{err}");
        assert!(err.to_string().contains("3 logical"));
    }

    #[test]
    fn validate_rejects_zero_qubit_circuit_and_device() {
        let empty = Circuit::new(0);
        let g = arch::devices::linear(2);
        assert!(matches!(
            RouteRequest::new(&empty, &g).validate(),
            Err(RouteError::InvalidRequest(_))
        ));
        let c = Circuit::new(0);
        let g0 = arch::ConnectivityGraph::from_edges(0, []);
        assert!(matches!(
            RouteRequest::new(&c, &g0).validate(),
            Err(RouteError::InvalidRequest(_))
        ));
    }

    #[test]
    fn validate_rejects_disconnected_device() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        let g = arch::ConnectivityGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(matches!(
            RouteRequest::new(&c, &g).validate(),
            Err(RouteError::InvalidRequest(_))
        ));
        // Gate-free circuits tolerate disconnection (no movement needed).
        let free = Circuit::new(3);
        assert!(RouteRequest::new(&free, &g).validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let c = fig3();
        let g = arch::devices::tokyo();
        assert!(matches!(
            RouteRequest::new(&c, &g).with_swaps_per_gap(0).validate(),
            Err(RouteError::InvalidRequest(_))
        ));
        assert!(matches!(
            RouteRequest::new(&c, &g)
                .with_slicing(Slicing::Sliced(0))
                .validate(),
            Err(RouteError::InvalidRequest(_))
        ));
    }

    #[test]
    fn validate_checks_repetition_shape() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.cx(0, 1);
        let g = arch::devices::linear(2);
        let ok = RouteRequest::new(&c, &g).with_repetition(RepeatedStructure {
            prefix_len: 1,
            cycles: 2,
        });
        assert!(ok.validate().is_ok());
        assert_eq!(ok.repeated_subcircuit_len(), Some((1, 1)));

        for bad in [
            RepeatedStructure {
                prefix_len: 1,
                cycles: 0,
            },
            RepeatedStructure {
                prefix_len: 9,
                cycles: 1,
            },
            RepeatedStructure {
                prefix_len: 0,
                cycles: 2, // prefix would contain a 2q gate boundary mismatch
            },
        ] {
            let req = RouteRequest::new(&c, &g).with_repetition(bad);
            assert!(
                matches!(req.validate(), Err(RouteError::InvalidRequest(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn outcome_accessors_and_json() {
        let routed = RoutedCircuit::new(vec![0, 1], vec![RoutedOp::Logical(0)]);
        let outcome = RouteOutcome::new(
            "satmap",
            Ok(routed),
            SolverTelemetry::default(),
            Duration::from_millis(5),
        )
        .with_diagnostic("slice", 25);
        assert!(outcome.solved());
        assert_eq!(outcome.router(), "satmap");
        assert_eq!(outcome.diagnostic("slice"), Some("25"));
        assert!(outcome.routed().is_some());
        let json = outcome.to_json();
        assert!(json.contains("\"router\":\"satmap\""));
        assert!(json.contains("\"solved\":true"));
        assert!(json.contains("\"error\":null"));
        assert!(json.contains("\"diagnostics\":{\"slice\":\"25\"}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn failed_outcome_keeps_telemetry_and_reports_error_json() {
        let telemetry = SolverTelemetry {
            sat_calls: 3,
            ..SolverTelemetry::default()
        };
        let outcome = RouteOutcome::new(
            "olsq",
            Err(RouteError::Timeout),
            telemetry,
            Duration::from_millis(7),
        );
        assert!(!outcome.solved());
        assert_eq!(outcome.telemetry().sat_calls, 3);
        let json = outcome.to_json();
        assert!(json.contains("\"solved\":false"));
        assert!(json.contains("budget"));
        assert!(json.contains("\"swaps\":null"));
    }

    #[test]
    fn capture_times_the_closure() {
        let outcome = RouteOutcome::capture("x", || {
            std::thread::sleep(Duration::from_millis(2));
            (Err(RouteError::Timeout), SolverTelemetry::default())
        });
        assert!(outcome.wall_time() >= Duration::from_millis(2));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn json_carries_cache_and_warm_start_fields() {
        let telemetry = SolverTelemetry {
            cache_hit: true,
            warm_start: true,
            reused_clauses: 42,
            ..SolverTelemetry::default()
        };
        let outcome = RouteOutcome::new(
            "satmap",
            Err(RouteError::Timeout),
            telemetry,
            Duration::from_millis(1),
        );
        let json = outcome.to_json();
        assert!(json.contains("\"cache_hit\":true"));
        assert!(json.contains("\"warm_start\":true"));
        assert!(json.contains("\"reused_clauses\":42"));
    }

    #[test]
    fn quality_and_attempts_default_and_stamp_into_json() {
        let routed = RoutedCircuit::new(vec![0, 1], vec![RoutedOp::Logical(0)]);
        let outcome = RouteOutcome::new(
            "satmap",
            Ok(routed),
            SolverTelemetry {
                worker_panics: 2,
                ..SolverTelemetry::default()
            },
            Duration::from_millis(1),
        );
        assert_eq!(outcome.quality(), RouteQuality::Optimal);
        assert_eq!(outcome.attempts(), 1);
        assert!(outcome.quality().is_proven());
        let json = outcome.to_json();
        assert!(json.contains("\"quality\":\"optimal\""));
        assert!(json.contains("\"attempts\":1"));
        assert!(json.contains("\"worker_panics\":2"));

        let retried = outcome
            .clone()
            .with_quality(RouteQuality::WarmRetry(2))
            .with_attempts(3);
        assert_eq!(retried.quality(), RouteQuality::WarmRetry(2));
        assert!(retried.quality().is_proven());
        assert_eq!(retried.quality().to_string(), "warm_retry(2)");
        assert!(retried.to_json().contains("\"quality\":\"warm_retry\""));
        assert!(retried.to_json().contains("\"attempts\":3"));

        let degraded = outcome
            .with_quality(RouteQuality::Degraded)
            .with_attempts(0);
        assert!(!degraded.quality().is_proven());
        assert_eq!(degraded.attempts(), 1, "attempts clamp to at least 1");
        assert!(degraded.to_json().contains("\"quality\":\"degraded\""));
    }

    #[test]
    fn request_id_threads_into_telemetry_and_json_but_not_fingerprint() {
        let c = fig3();
        let g = arch::devices::tokyo();
        let req = RouteRequest::new(&c, &g).with_request_id(77);
        assert_eq!(req.request_id(), Some(77));
        // Ids are latency/logging metadata: the cache key ignores them.
        assert_eq!(
            req.fingerprint(),
            RouteRequest::new(&c, &g).fingerprint(),
            "request_id must not perturb the fingerprint"
        );
        let outcome = RouteOutcome::new(
            "satmap",
            Err(RouteError::Timeout),
            SolverTelemetry::default(),
            Duration::from_millis(1),
        );
        assert!(outcome.to_json().contains("\"request_id\":null"));
        let stamped = outcome.clone().with_request_id(req.request_id());
        assert_eq!(stamped.telemetry().request_id, Some(77));
        assert!(stamped.to_json().contains("\"request_id\":77"));
        // Stamping None keeps an existing id (cache replays re-stamp with
        // the new request's id only when one is present).
        assert_eq!(
            stamped.with_request_id(None).telemetry().request_id,
            Some(77)
        );
    }

    #[test]
    fn fingerprint_is_deterministic_and_canonical() {
        let c = fig3();
        let g = arch::devices::tokyo();
        let base = RouteRequest::new(&c, &g).fingerprint();
        assert_eq!(base, RouteRequest::new(&c, &g).fingerprint());
        // Latency-only knobs do not perturb the key: a retried request
        // with a bigger budget or a new correlation id hits the same entry.
        assert_eq!(
            base,
            RouteRequest::new(&c, &g)
                .with_budget(Duration::from_secs(9))
                .with_request_id(7)
                .fingerprint()
        );
    }

    #[test]
    fn fingerprint_separates_answer_relevant_inputs() {
        let c = fig3();
        let g = arch::devices::tokyo();
        let base = RouteRequest::new(&c, &g).fingerprint();
        // One mutated gate.
        let mut c2 = fig3();
        c2.cx(1, 2);
        assert_ne!(base, RouteRequest::new(&c2, &g).fingerprint());
        // A different device.
        let g2 = arch::devices::tokyo_minus();
        assert_ne!(base, RouteRequest::new(&c, &g2).fingerprint());
        // Each answer-relevant knob.
        assert_ne!(
            base,
            RouteRequest::new(&c, &g)
                .with_slicing(Slicing::Monolithic)
                .fingerprint()
        );
        assert_ne!(
            base,
            RouteRequest::new(&c, &g)
                .with_swaps_per_gap(2)
                .fingerprint()
        );
        assert_ne!(
            base,
            RouteRequest::new(&c, &g)
                .with_totalizer_units(100)
                .fingerprint()
        );
        assert_ne!(
            base,
            RouteRequest::new(&c, &g)
                .with_strategy(SearchStrategy::CoreGuided)
                .fingerprint()
        );
        assert_ne!(
            base,
            RouteRequest::new(&c, &g)
                .with_objective(Objective::Fidelity(arch::NoiseModel::synthetic(&g, 7)))
                .fingerprint()
        );
        // Two distinct noise seeds give distinct error rates.
        assert_ne!(
            RouteRequest::new(&c, &g)
                .with_objective(Objective::Fidelity(arch::NoiseModel::synthetic(&g, 7)))
                .fingerprint(),
            RouteRequest::new(&c, &g)
                .with_objective(Objective::Fidelity(arch::NoiseModel::synthetic(&g, 8)))
                .fingerprint()
        );
    }
}
