//! The SATMAP router: monolithic solving, the locally optimal relaxation
//! with backtracking (Section V), and plumbing shared with the cyclic
//! relaxation (Section VI).
//!
//! The router is generic over the SAT backend ([`sat::SatBackend`]); the
//! default instantiation uses the workspace's bundled CDCL solver. Each
//! call is driven by a [`circuit::RouteRequest`]: its
//! [`sat::ResourceBudget`] is armed when routing starts and its deadline
//! is inherited by every MaxSAT and SAT call below, so nested solver work
//! can never overshoot the routing request's allowance; its objective,
//! slicing, and strategy knobs override the construction-time
//! [`SatMapConfig`] defaults. Every MaxSAT call runs on the calling
//! thread. Solver effort is aggregated into the
//! returned [`circuit::RouteOutcome`].

use std::marker::PhantomData;
use std::time::Instant;

use arch::ConnectivityGraph;
use circuit::{
    Circuit, RouteError, RouteOutcome, RouteQuality, RouteRequest, RoutedCircuit, RoutedOp, Router,
};
use maxsat::{MaxSatSession, MaxSatStatus};
use sat::{DefaultBackend, ResourceBudget, SatBackend, SolverTelemetry};

use crate::artifact::{EncodedArtifact, RouteSession};
use crate::config::{Resolved, SatMapConfig};
use crate::encode::{routed_from_solution, EncodeShape, QmrEncoding};

/// The SATMAP qubit mapping and routing solver.
///
/// With `slice_size: None` this is **NL-SATMAP** (one monolithic MaxSAT
/// problem, optimal modulo the `n`-swaps-per-gap restriction); with a slice
/// size it is **SATMAP** (locally optimal relaxation with backtracking and,
/// when backtracking is exhausted, leading-slot deepening).
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, RouteRequest, Router, verify::verify};
/// use satmap::{SatMap, SatMapConfig};
/// use std::time::Duration;
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// c.cx(0, 2);
/// let graph = arch::devices::tokyo();
/// let router = SatMap::new(SatMapConfig::default());
/// let request = RouteRequest::new(&c, &graph).with_budget(Duration::from_secs(30));
/// let outcome = router.route_request(&request);
/// let routed = outcome.routed().expect("solves");
/// verify(&c, &graph, routed).expect("solution verifies");
/// ```
#[derive(Debug)]
pub struct SatMap<B: SatBackend + Default + Send = DefaultBackend> {
    config: SatMapConfig,
    _backend: PhantomData<fn() -> B>,
}

impl<B: SatBackend + Default + Send> Clone for SatMap<B> {
    fn clone(&self) -> Self {
        SatMap {
            config: self.config.clone(),
            _backend: PhantomData,
        }
    }
}

impl SatMap {
    /// Creates a router with the given configuration and the default SAT
    /// backend.
    pub fn new(config: SatMapConfig) -> Self {
        Self::with_backend(config)
    }
}

/// Per-slice solving state kept for backtracking. Encodings are large
/// (O(slice · |Logic| · |Phys|) clauses), so only a recent window keeps
/// them in memory; evicted ones are rebuilt on demand from the slice plus
/// the recorded pin and exclusion clauses.
struct SliceState {
    enc: Option<QmrEncoding>,
    /// Final maps excluded by backtracking (Example 10 clauses).
    forbidden: Vec<Vec<usize>>,
    /// Leading swap slots the slice was (re)built with.
    leading_slots: usize,
    /// Decoded solution: final map + this slice's op contribution
    /// (gate indices local to the slice).
    final_map: Vec<usize>,
    initial_map: Vec<usize>,
    ops: Vec<RoutedOp>,
}

/// How many slice encodings stay resident for backtracking.
const ENCODING_WINDOW: usize = 4;

/// Ceiling on [`encoding_estimate`] above which a *budgeted* request is
/// shed before any encoding is paid for (the analogue of the paper's 5 GB
/// per-tool cap). Shared with admission control in the routing supervisor,
/// which uses the same estimate to reject oversized requests up front.
pub const ENCODING_GUARD_LIMIT: usize = 6_000_000;

/// Cheap upper-bound proxy for the size of the Fig. 5 encoding of
/// `circuit` on `graph` with `swaps_per_gap` SWAP slots per gap: mapping
/// states × (mapping + swap variables per state). Costs O(1) — no
/// encoding is built — so admission control can call it on every request.
pub fn encoding_estimate(
    circuit: &Circuit,
    graph: &ConnectivityGraph,
    swaps_per_gap: usize,
) -> usize {
    let states = circuit.num_two_qubit_gates().max(1) * swaps_per_gap.max(1);
    let per_state =
        circuit.num_qubits() * (graph.num_qubits() + 2 * graph.num_edges()) + graph.num_qubits();
    states.saturating_mul(per_state)
}

/// Memory guard: refuses instances whose encoding would dwarf any
/// realistic budget, *before* paying the encode cost.
fn guard_memory(
    circuit: &Circuit,
    graph: &ConnectivityGraph,
    p: &Resolved,
) -> Result<(), RouteError> {
    let estimate = encoding_estimate(circuit, graph, p.swaps_per_gap);
    if p.budget.is_limited() && estimate > ENCODING_GUARD_LIMIT {
        return Err(RouteError::Overloaded(format!(
            "encoding estimate {estimate} exceeds the guard limit {ENCODING_GUARD_LIMIT}"
        )));
    }
    Ok(())
}

/// Maps a monolithic MaxSAT outcome onto the routing result.
fn decode_monolithic(
    circuit: &Circuit,
    enc: &QmrEncoding,
    out: maxsat::MaxSatOutcome,
    n: usize,
) -> Result<RoutedCircuit, RouteError> {
    match out.status {
        MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
            let model = out.model.expect("status implies model");
            let (maps, swaps) = enc.decode(&model);
            Ok(routed_from_solution(circuit, enc, &maps, &swaps, n, 0))
        }
        MaxSatStatus::Unsat => Err(RouteError::Unsatisfiable(format!(
            "no routing with n = {n} swaps per gap; increase swaps_per_gap"
        ))),
        MaxSatStatus::Unknown => Err(RouteError::Timeout),
    }
}

/// Proof status of a routing attempt's accepted models, threaded through
/// every solver call of the attempt. Starts proven; a
/// [`MaxSatStatus::Feasible`] answer downgrades it and records *why* the
/// proof was lost, so a `degraded` row is diagnosable: weight
/// quantization caps the claim at Feasible even when the search ran to
/// completion (`"quantized"`), while an expiring budget returns whatever
/// incumbent the anytime search held (`"budget-exhausted"`).
pub(crate) struct Proof {
    proved: bool,
    reason: Option<&'static str>,
}

impl Proof {
    pub(crate) fn new() -> Self {
        Proof {
            proved: true,
            reason: None,
        }
    }

    /// Downgrades the proof when `out` accepted an unproven incumbent. A
    /// completed search over quantized weights reads `quantized`; any other
    /// unproven answer reads `budget-exhausted`, which overrides an earlier
    /// `quantized` so the route stays worth a retry with more budget.
    pub(crate) fn observe(&mut self, out: &maxsat::MaxSatOutcome) {
        if matches!(out.status, MaxSatStatus::Feasible) {
            self.proved = false;
            if out.quantum > 1 && !out.budget_exhausted {
                self.reason.get_or_insert("quantized");
            } else {
                self.reason = Some("budget-exhausted");
            }
        }
    }
}

/// The diagnostics every SATMAP-family outcome carries (`satmap`,
/// `nl-satmap`, `cyc-satmap`), regardless of which entry point produced
/// it.
pub(crate) fn stamp_diagnostics(outcome: RouteOutcome, p: &Resolved) -> RouteOutcome {
    outcome
        .with_diagnostic(
            "slice_size",
            p.slice_size.map_or("none".into(), |s| s.to_string()),
        )
        .with_diagnostic("swaps_per_gap", p.swaps_per_gap)
        .with_diagnostic("strategy", p.options.strategy.name())
}

/// Stamps the outcome's quality from the proof status of its accepted
/// model: a solved result whose optimality was *not* certified (the
/// anytime search returned an incumbent, not a proof) is `Degraded` and
/// carries a `degraded_reason` diagnostic; everything else keeps the
/// `Optimal` default.
pub(crate) fn stamp_quality(outcome: RouteOutcome, proof: &Proof) -> RouteOutcome {
    if outcome.solved() && !proof.proved {
        let outcome = outcome.with_quality(RouteQuality::Degraded);
        match proof.reason {
            Some(reason) => outcome.with_diagnostic("degraded_reason", reason),
            None => outcome,
        }
    } else {
        outcome
    }
}

/// Records a solved slice and evicts encodings outside the backtracking
/// window (shared by the forward path and the deepening fallback).
fn push_solved(solved: &mut Vec<SliceState>, state: SliceState, telemetry: &mut SolverTelemetry) {
    solved.push(state);
    telemetry.slices += 1;
    if solved.len() > ENCODING_WINDOW {
        let evict = solved.len() - ENCODING_WINDOW - 1;
        solved[evict].enc = None;
    }
}

impl<B: SatBackend + Default + Send> SatMap<B> {
    /// Creates a router with the given configuration and an explicit SAT
    /// backend type.
    pub fn with_backend(config: SatMapConfig) -> Self {
        SatMap {
            config,
            _backend: PhantomData,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SatMapConfig {
        &self.config
    }

    /// One MaxSAT call on the generic backend, charging effort to
    /// `telemetry`.
    fn solve_instance(
        &self,
        enc: &QmrEncoding,
        p: &Resolved,
        budget: &ResourceBudget,
        telemetry: &mut SolverTelemetry,
    ) -> maxsat::MaxSatOutcome {
        let out = maxsat::solve_with_options::<B>(enc.instance(), budget, &p.options);
        telemetry.absorb(&out.telemetry);
        out
    }

    /// Builds a slice encoding, charging the build time to `telemetry`.
    fn build_encoding(
        &self,
        slice: &Circuit,
        graph: &ConnectivityGraph,
        shape: EncodeShape,
        p: &Resolved,
        telemetry: &mut SolverTelemetry,
    ) -> QmrEncoding {
        let start = Instant::now();
        let enc = QmrEncoding::build(slice, graph, p.swaps_per_gap, shape, &p.objective);
        telemetry.encode_time += start.elapsed();
        enc
    }

    /// Routes the whole request under the already-resolved parameters,
    /// returning the result plus the solver effort spent — including
    /// effort spent on failed attempts. `proof` is downgraded when any
    /// accepted model is an unproven incumbent ([`MaxSatStatus::Feasible`],
    /// e.g. a cancelled anytime search): the solution still verifies but
    /// must be stamped [`circuit::RouteQuality::Degraded`].
    pub(crate) fn route_impl(
        &self,
        request: &RouteRequest<'_>,
        p: &Resolved,
        proof: &mut Proof,
    ) -> (Result<RoutedCircuit, RouteError>, SolverTelemetry) {
        let mut telemetry = SolverTelemetry::new();
        if let Err(e) = request.validate() {
            return (Err(e), telemetry);
        }
        let (circuit, graph) = (request.circuit(), request.graph());
        let budget = p.budget.arm();
        let result = match p.slice_size {
            Some(size) if !Self::is_monolithic(circuit, p) => {
                self.route_sliced(circuit, graph, size, p, &budget, &mut telemetry, proof)
            }
            _ => self
                .build_artifact(request, p, &mut telemetry)
                .and_then(|artifact| {
                    // A cold route keeps no session. Building one only to
                    // drop it raised the peak RSS of perfbench's
                    // `weighted_core` from 27.5 to 33.9 MiB (the heap
                    // fragments; the search work is the same).
                    let out = self.solve_instance(artifact.encoding(), p, &budget, &mut telemetry);
                    proof.observe(&out);
                    decode_monolithic(circuit, artifact.encoding(), out, p.swaps_per_gap)
                }),
        };
        (result, telemetry)
    }

    /// True when the resolved parameters route `circuit` as one monolithic
    /// instance — the path the encode/solve split and warm-start sessions
    /// cover. Multi-slice requests interleave encoding and solving (each
    /// slice's encoding depends on the previous slice's final map), so
    /// their artifacts cannot be prebuilt.
    fn is_monolithic(circuit: &Circuit, p: &Resolved) -> bool {
        match p.slice_size {
            None => true,
            Some(size) => circuit.num_two_qubit_gates() <= size,
        }
    }

    /// Builds the monolithic encoding artifact under already-resolved
    /// parameters, charging the build time to `telemetry`.
    fn build_artifact(
        &self,
        request: &RouteRequest<'_>,
        p: &Resolved,
        telemetry: &mut SolverTelemetry,
    ) -> Result<EncodedArtifact, RouteError> {
        guard_memory(request.circuit(), request.graph(), p)?;
        let start = Instant::now();
        let enc = QmrEncoding::build(
            request.circuit(),
            request.graph(),
            p.swaps_per_gap,
            EncodeShape::first_slice(),
            &p.objective,
        );
        let encode_time = start.elapsed();
        telemetry.encode_time += encode_time;
        Ok(EncodedArtifact {
            enc,
            fingerprint: request.fingerprint(),
            encode_time,
        })
    }

    /// One MaxSAT search over a monolithic artifact (NL-SATMAP), resuming
    /// from — and re-depositing — the engine session in `session`; a
    /// `None` session solves cold. [`SatMap::solve_artifact`] and
    /// [`SatMap::route_with_session`] solve here; [`Router::route_request`]
    /// keeps no session and calls `solve_instance` on the same artifact.
    fn solve_monolithic(
        &self,
        artifact: &EncodedArtifact,
        p: &Resolved,
        budget: &ResourceBudget,
        session: &mut Option<MaxSatSession<B>>,
        telemetry: &mut SolverTelemetry,
        proof: &mut Proof,
    ) -> maxsat::MaxSatOutcome {
        let out = maxsat::solve_with_session::<B>(artifact.instance(), budget, &p.options, session);
        telemetry.absorb(&out.telemetry);
        proof.observe(&out);
        out
    }

    /// Encode half of the encode/solve split: builds the circuit→WCNF
    /// artifact for `request` without solving it. The artifact is keyed by
    /// the request's canonical [`RouteRequest::fingerprint`] and can be
    /// solved any number of times with [`SatMap::solve_artifact`].
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidRequest`] when the request fails validation or
    /// resolves to the multi-slice path (whose encodings depend on
    /// intermediate solutions); [`RouteError::Overloaded`] when the memory
    /// guard trips.
    pub fn encode_request(
        &self,
        request: &RouteRequest<'_>,
    ) -> Result<EncodedArtifact, RouteError> {
        request.validate()?;
        let p = self.config.resolve(request);
        if !Self::is_monolithic(request.circuit(), &p) {
            return Err(RouteError::InvalidRequest(
                "encode/solve split covers the monolithic path only; request \
                 Slicing::Monolithic or a circuit that fits in one slice"
                    .into(),
            ));
        }
        self.build_artifact(request, &p, &mut SolverTelemetry::new())
    }

    /// Solve half of the encode/solve split: one MaxSAT search over a
    /// prebuilt artifact, warm-starting from — and re-depositing — the
    /// engine session in `session`. `request` must be the request the
    /// artifact was encoded from (checked by fingerprint); its budget and
    /// strategy knobs still apply per call, so the same artifact can be
    /// re-solved under a bigger budget.
    pub fn solve_artifact(
        &self,
        artifact: &EncodedArtifact,
        request: &RouteRequest<'_>,
        session: &mut Option<MaxSatSession<B>>,
    ) -> RouteOutcome {
        let p = self.config.resolve(request);
        let mut proof = Proof::new();
        let outcome = RouteOutcome::capture(self.name(), || {
            let mut telemetry = SolverTelemetry::new();
            if request.fingerprint() != artifact.fingerprint() {
                return (
                    Err(RouteError::InvalidRequest(
                        "request does not match the artifact's fingerprint".into(),
                    )),
                    telemetry,
                );
            }
            let budget = p.budget.arm();
            let out =
                self.solve_monolithic(artifact, &p, &budget, session, &mut telemetry, &mut proof);
            (
                decode_monolithic(request.circuit(), artifact.encoding(), out, p.swaps_per_gap),
                telemetry,
            )
        });
        stamp_diagnostics(stamp_quality(outcome, &proof), &p)
    }

    /// Routes with warm-start session reuse. A `None` slot (or one left by
    /// a *different* request — fingerprints are compared) starts cold:
    /// encode, solve, deposit the session. A matching slot skips
    /// re-encoding and warm-starts the MaxSAT search from the prior
    /// solve's clause database, incumbent model, and bound — sound because
    /// the carried clause DB is a conservative extension of the instance
    /// (see [`maxsat::MaxSatSession`]). Multi-slice requests fall back to
    /// the cold [`Router::route_request`] path and leave the slot
    /// untouched.
    pub fn route_with_session(
        &self,
        request: &RouteRequest<'_>,
        slot: &mut Option<RouteSession<B>>,
    ) -> RouteOutcome {
        let p = self.config.resolve(request);
        if !Self::is_monolithic(request.circuit(), &p) {
            return self.route_request(request);
        }
        let mut proof = Proof::new();
        let outcome = RouteOutcome::capture(self.name(), || {
            let mut telemetry = SolverTelemetry::new();
            if let Err(e) = request.validate() {
                return (Err(e), telemetry);
            }
            let budget = p.budget.arm();
            let (artifact, mut session) = match slot.take() {
                Some(s) if s.fingerprint() == request.fingerprint() => (s.artifact, s.session),
                _ => match self.build_artifact(request, &p, &mut telemetry) {
                    Ok(artifact) => (artifact, None),
                    Err(e) => return (Err(e), telemetry),
                },
            };
            let out = self.solve_monolithic(
                &artifact,
                &p,
                &budget,
                &mut session,
                &mut telemetry,
                &mut proof,
            );
            let result =
                decode_monolithic(request.circuit(), artifact.encoding(), out, p.swaps_per_gap);
            *slot = Some(RouteSession { artifact, session });
            (result, telemetry)
        });
        stamp_diagnostics(stamp_quality(outcome, &proof), &p)
    }

    /// Section V: slice, solve each slice pinned to the previous final map,
    /// and backtrack (excluding final maps) when a slice is unsatisfiable.
    /// When the backtrack budget is exhausted, fall back to *leading-slot
    /// deepening*: rebuild the stuck slice with more swap slots before its
    /// first gate, which can always absorb a bad entry map and therefore
    /// keeps the relaxation complete.
    #[allow(clippy::too_many_arguments)]
    fn route_sliced(
        &self,
        circuit: &Circuit,
        graph: &ConnectivityGraph,
        slice_size: usize,
        p: &Resolved,
        budget: &ResourceBudget,
        telemetry: &mut SolverTelemetry,
        proof: &mut Proof,
    ) -> Result<RoutedCircuit, RouteError> {
        let slices = circuit.slices(slice_size);
        let n = p.swaps_per_gap;

        let mut solved: Vec<SliceState> = Vec::with_capacity(slices.len());
        let mut backtracks_left = p.backtrack_limit;
        let mut i = 0usize;
        while i < slices.len() {
            if budget.expired() {
                return Err(RouteError::Timeout);
            }
            let shape = if i == 0 {
                EncodeShape::first_slice()
            } else {
                EncodeShape::continuation(n)
            };
            let mut enc = self.build_encoding(&slices[i], graph, shape, p, telemetry);
            if i > 0 {
                enc.pin_initial_map(&solved[i - 1].final_map);
            }
            let out = self.solve_instance(&enc, p, budget, telemetry);
            proof.observe(&out);
            match out.status {
                MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                    let model = out.model.expect("status implies model");
                    let (maps, swaps) = enc.decode(&model);
                    let ops = routed_from_solution(&slices[i], &enc, &maps, &swaps, n, 0)
                        .ops()
                        .to_vec();
                    let state = SliceState {
                        enc: Some(enc),
                        forbidden: Vec::new(),
                        leading_slots: shape.leading_slots,
                        final_map: maps.last().expect("≥1 state").clone(),
                        initial_map: maps.first().expect("≥1 state").clone(),
                        ops,
                    };
                    push_solved(&mut solved, state, telemetry);
                    i += 1;
                }
                MaxSatStatus::Unknown => return Err(RouteError::Timeout),
                MaxSatStatus::Unsat => {
                    // Backtrack: forbid the previous slice's final map and
                    // re-solve it (Example 10).
                    if i == 0 {
                        return Err(RouteError::Unsatisfiable(format!(
                            "first slice unsolvable with n = {n} swaps per gap"
                        )));
                    }
                    loop {
                        if backtracks_left == 0 {
                            // Backtracking exhausted: deepen the stuck
                            // slice's leading slots instead of giving up.
                            let pin = solved[i - 1].final_map.clone();
                            let state = self.solve_slice_deepened(
                                &slices[i], graph, &pin, p, budget, telemetry, proof,
                            )?;
                            push_solved(&mut solved, state, telemetry);
                            i += 1;
                            break;
                        }
                        backtracks_left -= 1;
                        telemetry.backtracks += 1;
                        if budget.expired() {
                            return Err(RouteError::Timeout);
                        }
                        let prev_idx = solved.len() - 1;
                        let prev_initial = if prev_idx == 0 {
                            None
                        } else {
                            Some(solved[prev_idx - 1].final_map.clone())
                        };
                        let prev_shape = if prev_idx == 0 {
                            EncodeShape::first_slice()
                        } else {
                            EncodeShape::continuation(solved[prev_idx].leading_slots)
                        };
                        let prev = solved.last_mut().expect("i > 0");
                        let bad = prev.final_map.clone();
                        prev.forbidden.push(bad.clone());
                        if prev.enc.is_none() {
                            // Rebuild the evicted encoding with its pin and
                            // all recorded exclusions.
                            let build_start = Instant::now();
                            let mut rebuilt = QmrEncoding::build(
                                &slices[prev_idx],
                                graph,
                                n,
                                prev_shape,
                                &p.objective,
                            );
                            telemetry.encode_time += build_start.elapsed();
                            if let Some(pin) = &prev_initial {
                                rebuilt.pin_initial_map(pin);
                            }
                            for f in &prev.forbidden {
                                rebuilt.forbid_final_map(f);
                            }
                            prev.enc = Some(rebuilt);
                        } else if let Some(enc) = prev.enc.as_mut() {
                            enc.forbid_final_map(&bad);
                        }
                        let prev_enc = prev.enc.as_ref().expect("just ensured");
                        let retry = maxsat::solve_with_options::<B>(
                            prev_enc.instance(),
                            budget,
                            &p.options,
                        );
                        telemetry.absorb(&retry.telemetry);
                        proof.observe(&retry);
                        match retry.status {
                            MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                                let model = retry.model.expect("status implies model");
                                let prev_enc =
                                    prev.enc.as_ref().expect("resident during backtrack");
                                let (maps, swaps) = prev_enc.decode(&model);
                                prev.final_map = maps.last().expect("≥1 state").clone();
                                prev.initial_map = maps.first().expect("≥1 state").clone();
                                prev.ops = routed_from_solution(
                                    &slices[prev_idx],
                                    prev_enc,
                                    &maps,
                                    &swaps,
                                    n,
                                    0,
                                )
                                .ops()
                                .to_vec();
                                break; // resume forward from slice i
                            }
                            MaxSatStatus::Unknown => return Err(RouteError::Timeout),
                            MaxSatStatus::Unsat => {
                                // This slice has no alternative final map:
                                // backtrack one more level.
                                solved.pop();
                                i -= 1;
                                if i == 0 && solved.is_empty() {
                                    return Err(RouteError::Unsatisfiable(format!(
                                        "exhausted all final maps with n = {n}"
                                    )));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Stitch slices into one routed circuit.
        let initial_map = solved
            .first()
            .map(|s| s.initial_map.clone())
            .unwrap_or_else(|| (0..circuit.num_qubits()).collect());
        let mut ops: Vec<RoutedOp> = Vec::new();
        let mut gate_offset = 0usize;
        for (slice, state) in slices.iter().zip(&solved) {
            ops.extend(state.ops.iter().map(|op| match *op {
                RoutedOp::Logical(k) => RoutedOp::Logical(k + gate_offset),
                swap => swap,
            }));
            gate_offset += slice.len();
        }
        Ok(RoutedCircuit::new(initial_map, ops))
    }

    /// Solves one pinned slice, doubling the number of leading swap slots
    /// until satisfiable. With enough leading slots any entry map can be
    /// reshaped before the first gate, so this always terminates with a
    /// solution, a timeout, or a genuinely unsatisfiable slice.
    #[allow(clippy::too_many_arguments)]
    fn solve_slice_deepened(
        &self,
        slice: &Circuit,
        graph: &ConnectivityGraph,
        pin: &[usize],
        p: &Resolved,
        budget: &ResourceBudget,
        telemetry: &mut SolverTelemetry,
        proof: &mut Proof,
    ) -> Result<SliceState, RouteError> {
        let n = p.swaps_per_gap;
        // Routing every logical qubit home costs at most diameter swaps.
        let max_lead = (graph.diameter().max(1) * slice.num_qubits()).max(2 * n);
        let mut lead = 2 * n;
        loop {
            if budget.expired() {
                return Err(RouteError::Timeout);
            }
            let shape = EncodeShape::continuation(lead);
            let mut enc = self.build_encoding(slice, graph, shape, p, telemetry);
            enc.pin_initial_map(pin);
            let out = self.solve_instance(&enc, p, budget, telemetry);
            proof.observe(&out);
            match out.status {
                MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                    let model = out.model.expect("status implies model");
                    let (maps, swaps) = enc.decode(&model);
                    let ops = routed_from_solution(slice, &enc, &maps, &swaps, n, 0)
                        .ops()
                        .to_vec();
                    return Ok(SliceState {
                        enc: Some(enc),
                        forbidden: Vec::new(),
                        leading_slots: lead,
                        final_map: maps.last().expect("≥1 state").clone(),
                        initial_map: maps.first().expect("≥1 state").clone(),
                        ops,
                    });
                }
                MaxSatStatus::Unknown => return Err(RouteError::Timeout),
                MaxSatStatus::Unsat if lead < max_lead => {
                    lead = (lead * 2).min(max_lead);
                }
                MaxSatStatus::Unsat => {
                    return Err(RouteError::Unsatisfiable(format!(
                        "slice unsolvable even with {lead} leading swap slots"
                    )));
                }
            }
        }
    }
}

impl<B: SatBackend + Default + Send> Router for SatMap<B> {
    fn name(&self) -> &str {
        if self.config.slice_size.is_some() {
            "satmap"
        } else {
            "nl-satmap"
        }
    }

    fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome {
        let p = self.config.resolve(request);
        let mut proof = Proof::new();
        let outcome =
            RouteOutcome::capture(self.name(), || self.route_impl(request, &p, &mut proof));
        stamp_diagnostics(stamp_quality(outcome, &proof), &p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify::verify;
    use std::time::Duration;

    fn fig3() -> (Circuit, ConnectivityGraph) {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(0, 2);
        c.cx(3, 2);
        c.cx(0, 3);
        (
            c,
            ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        )
    }

    fn feasible(quantum: u64, budget_exhausted: bool) -> maxsat::MaxSatOutcome {
        maxsat::MaxSatOutcome {
            status: MaxSatStatus::Feasible,
            model: Some(Vec::new()),
            cost: Some(0),
            iterations: 1,
            quantum,
            strategy: "core-guided",
            budget_exhausted,
            telemetry: SolverTelemetry::new(),
        }
    }

    #[test]
    fn budget_exhaustion_outranks_quantization_in_the_proof() {
        let mut proof = Proof::new();
        proof.observe(&feasible(4, false));
        assert_eq!(proof.reason, Some("quantized"));
        proof.observe(&feasible(4, true));
        assert_eq!(proof.reason, Some("budget-exhausted"));
        proof.observe(&feasible(4, false));
        assert_eq!(
            proof.reason,
            Some("budget-exhausted"),
            "never downgraded back"
        );
        assert!(!proof.proved);
        // A quantized search that ran out of budget reads as such.
        let mut proof = Proof::new();
        proof.observe(&feasible(4, true));
        assert_eq!(proof.reason, Some("budget-exhausted"));
    }

    #[test]
    fn default_swap_count_route_runs_core_guided_search() {
        let (c, g) = fig3();
        let outcome =
            SatMap::new(SatMapConfig::default()).route_request(&RouteRequest::new(&c, &g));
        assert_eq!(outcome.quality(), RouteQuality::Optimal);
        assert_eq!(outcome.routed().expect("solves").swap_count(), 1);
        assert_eq!(outcome.telemetry().strategy, Some("core-guided"));
        assert_eq!(outcome.diagnostic("strategy"), Some("core-guided"));
    }

    #[test]
    fn default_fidelity_route_labels_the_search_that_ran() {
        let (c, g) = fig3();
        let noise = arch::NoiseModel::synthetic(&g, 7);
        let outcome = SatMap::new(SatMapConfig::monolithic()).route_request(
            &RouteRequest::new(&c, &g).with_objective(circuit::Objective::Fidelity(noise)),
        );
        assert!(outcome.solved());
        assert_eq!(outcome.diagnostic("strategy"), outcome.telemetry().strategy);
    }

    #[test]
    fn fidelity_route_on_its_floor_is_proven_optimal() {
        // Every gate runs best on the cheapest edge, with no swap: the
        // optimum is exactly the per-gate floors the encoding emits as
        // constants, so the quantized search proves it.
        let g = arch::devices::tokyo();
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.cx(0, 1);
        }
        let noise = arch::NoiseModel::synthetic(&g, 7);
        let outcome = SatMap::new(SatMapConfig::default()).route_request(
            &RouteRequest::new(&c, &g).with_objective(circuit::Objective::Fidelity(noise)),
        );
        assert_eq!(outcome.quality(), RouteQuality::Optimal);
        assert_eq!(outcome.diagnostic("degraded_reason"), None);
        assert_eq!(outcome.routed().expect("solves").swap_count(), 0);
    }

    #[test]
    fn sliced_default_and_linear_routes_both_verify() {
        // Slice optima may differ between the two searches (each slice is
        // pinned to the previous slice's final map), so only verification
        // is compared, not costs.
        let g = arch::devices::grid(2, 3);
        let c = circuit::generators::random_local(6, 12, 3, 0.0, 11);
        let router = SatMap::new(SatMapConfig::sliced(3));
        for strategy in [
            circuit::SearchStrategy::Auto,
            circuit::SearchStrategy::Linear,
        ] {
            let outcome = router.route_request(&RouteRequest::new(&c, &g).with_strategy(strategy));
            assert!(outcome.telemetry().slices > 1, "{strategy:?}: sliced");
            let routed = outcome
                .routed()
                .unwrap_or_else(|| panic!("{strategy:?}: {:?}", outcome.error()));
            verify(&c, &g, routed).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        }
    }

    #[test]
    fn monolithic_solves_fig3_optimally() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::monolithic());
        let routed = router.route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
        assert_eq!(routed.swap_count(), 1);
        assert_eq!(router.name(), "nl-satmap");
    }

    #[test]
    fn sliced_solves_fig3() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::sliced(2));
        let routed = router.route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
        // Locally optimal: possibly more swaps than the global optimum,
        // but it must still verify and stay small here.
        assert!(routed.swap_count() <= 2, "got {}", routed.swap_count());
        assert_eq!(router.name(), "satmap");
    }

    #[test]
    fn request_slicing_overrides_config() {
        let (c, g) = fig3();
        // A monolithic-by-default router asked to slice, and vice versa.
        let router = SatMap::new(SatMapConfig::monolithic());
        let sliced = router
            .route_request(&RouteRequest::new(&c, &g).with_slicing(circuit::Slicing::Sliced(2)));
        assert_eq!(sliced.diagnostic("slice_size"), Some("2"));
        verify(&c, &g, sliced.routed().expect("solves")).expect("verifies");

        let router = SatMap::new(SatMapConfig::sliced(2));
        let mono = router
            .route_request(&RouteRequest::new(&c, &g).with_slicing(circuit::Slicing::Monolithic));
        assert_eq!(mono.diagnostic("slice_size"), Some("none"));
        assert_eq!(mono.routed().expect("solves").swap_count(), 1);
    }

    #[test]
    fn backtracking_recovers_from_bad_slice_boundary() {
        // Example 9's shape: slicing can strand the map; backtracking (or
        // a leading swap slot) must still deliver a verified solution.
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(0, 2);
        c.cx(0, 1);
        let g = arch::devices::linear(3);
        let router = SatMap::new(SatMapConfig::sliced(1));
        let routed = router.route(&c, &g).expect("solves with backtracking");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn deepening_rescues_exhausted_backtracking() {
        // With a zero backtrack budget the router must still solve sliced
        // instances by deepening leading slots instead of erroring out.
        let mut config = SatMapConfig::sliced(2);
        config.backtrack_limit = 0;
        let c = circuit::generators::random_local(5, 10, 4, 0.1, 3);
        let g = arch::devices::tokyo_minus();
        let router = SatMap::new(config);
        let routed = router.route(&c, &g).expect("deepening completes");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn warm_session_reroutes_fig3_identically() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::monolithic());
        let request = RouteRequest::new(&c, &g);
        let mut slot = None;
        let cold = router.route_with_session(&request, &mut slot);
        let cold_swaps = cold.routed().expect("solves").swap_count();
        assert!(!cold.telemetry().warm_start);
        assert_eq!(cold.telemetry().reused_clauses, 0);
        let session = slot.as_ref().expect("cold route deposits a session");
        assert_eq!(session.fingerprint(), request.fingerprint());
        assert!(session.reusable_clauses() > 0);

        let warm = router.route_with_session(&request, &mut slot);
        let warm_routed = warm.routed().expect("solves");
        assert!(warm.telemetry().warm_start);
        assert!(warm.telemetry().reused_clauses > 0);
        assert_eq!(
            warm.telemetry().encode_time,
            Duration::ZERO,
            "warm route must reuse the artifact, not re-encode"
        );
        assert_eq!(warm_routed.swap_count(), cold_swaps);
        verify(&c, &g, warm_routed).expect("verifies");
    }

    #[test]
    fn encode_solve_split_matches_route_request() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::monolithic());
        let request = RouteRequest::new(&c, &g);
        let artifact = router.encode_request(&request).expect("monolithic encodes");
        assert_eq!(artifact.fingerprint(), request.fingerprint());
        let mut session = None;
        let out = router.solve_artifact(&artifact, &request, &mut session);
        let routed = out.routed().expect("solves");
        verify(&c, &g, routed).expect("verifies");
        assert_eq!(routed.swap_count(), 1);
        // Re-solving the same artifact warm-starts from the session.
        let again = router.solve_artifact(&artifact, &request, &mut session);
        assert!(again.telemetry().warm_start);
        assert_eq!(again.routed().expect("solves").swap_count(), 1);
    }

    #[test]
    fn encode_request_covers_only_the_monolithic_path() {
        let (c, g) = fig3();
        // Four gates at slice size 2: multi-slice, no prebuilt artifact.
        let router = SatMap::new(SatMapConfig::sliced(2));
        assert!(matches!(
            router.encode_request(&RouteRequest::new(&c, &g)),
            Err(RouteError::InvalidRequest(_))
        ));
        // Within one slice the sliced router takes the monolithic path.
        let router = SatMap::new(SatMapConfig::sliced(25));
        assert!(router.encode_request(&RouteRequest::new(&c, &g)).is_ok());
    }

    #[test]
    fn solve_artifact_rejects_a_mismatched_request() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::monolithic());
        let artifact = router
            .encode_request(&RouteRequest::new(&c, &g))
            .expect("encodes");
        let mut c2 = c.clone();
        c2.cx(1, 3);
        let out = router.solve_artifact(&artifact, &RouteRequest::new(&c2, &g), &mut None);
        assert!(matches!(out.error(), Some(RouteError::InvalidRequest(_))));
    }

    #[test]
    fn mutated_request_re_encodes_cold() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::monolithic());
        let mut slot = None;
        let _ = router.route_with_session(&RouteRequest::new(&c, &g), &mut slot);
        // One extra gate changes the fingerprint: the stale session must
        // not warm-start, and the slot is replaced by the new request's.
        let mut c2 = c.clone();
        c2.cx(1, 3);
        let req2 = RouteRequest::new(&c2, &g);
        let out = router.route_with_session(&req2, &mut slot);
        assert!(!out.telemetry().warm_start);
        verify(&c2, &g, out.routed().expect("solves")).expect("verifies");
        assert_eq!(
            slot.as_ref().expect("slot refilled").fingerprint(),
            req2.fingerprint()
        );
    }

    #[test]
    fn multi_slice_requests_fall_back_to_the_cold_path() {
        let c = circuit::generators::random_local(5, 10, 4, 0.1, 3);
        let g = arch::devices::tokyo_minus();
        let router = SatMap::new(SatMapConfig::sliced(2));
        let mut slot = None;
        let out = router.route_with_session(&RouteRequest::new(&c, &g), &mut slot);
        verify(&c, &g, out.routed().expect("solves")).expect("verifies");
        assert!(!out.telemetry().warm_start);
        assert!(slot.is_none(), "sliced path holds no session");
    }

    #[test]
    fn too_many_logical_qubits_rejected() {
        let c = Circuit::new(25);
        let g = arch::devices::tokyo();
        let router = SatMap::new(SatMapConfig::default());
        assert!(matches!(
            router.route(&c, &g),
            Err(RouteError::InvalidRequest(_))
        ));
    }

    #[test]
    fn zero_budget_times_out_on_nontrivial_input() {
        let mut c = Circuit::new(8);
        for i in 0..7 {
            c.cx(i, i + 1);
            c.cx(0, 7 - i);
        }
        let g = arch::devices::tokyo();
        let router = SatMap::new(SatMapConfig::default());
        let outcome = router.route_request(&RouteRequest::new(&c, &g).with_budget(Duration::ZERO));
        assert!(matches!(outcome.error(), Some(RouteError::Timeout)));
    }

    #[test]
    fn oversized_budgeted_request_is_shed_as_overloaded() {
        // Enough two-qubit gates that the encoding estimate blows past the
        // guard limit; with a limited budget the guard must shed the
        // request *before* encoding — typed Overloaded, near-zero effort.
        let mut c = Circuit::new(20);
        for k in 0..4_000 {
            c.cx(k % 20, (k + 1) % 20);
        }
        let g = arch::devices::tokyo();
        assert!(encoding_estimate(&c, &g, 1) > ENCODING_GUARD_LIMIT);
        let router = SatMap::new(SatMapConfig::monolithic());
        let outcome =
            router.route_request(&RouteRequest::new(&c, &g).with_budget(Duration::from_secs(5)));
        assert!(matches!(outcome.error(), Some(RouteError::Overloaded(_))));
        assert_eq!(
            outcome.telemetry().encode_time,
            Duration::ZERO,
            "admission control must not pay the encode cost"
        );
    }

    #[test]
    fn routed_outcomes_default_to_optimal_quality() {
        let (c, g) = fig3();
        let router = SatMap::new(SatMapConfig::monolithic());
        let outcome = router.route_request(&RouteRequest::new(&c, &g));
        assert!(outcome.solved());
        assert_eq!(outcome.quality(), RouteQuality::Optimal);
        assert_eq!(outcome.attempts(), 1);
    }

    #[test]
    fn larger_circuit_on_tokyo_verifies() {
        let c = circuit::generators::random_local(6, 12, 3, 0.2, 9);
        let g = arch::devices::tokyo();
        let router = SatMap::new(SatMapConfig::sliced(4));
        let routed = router.route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn telemetry_accounts_for_slices_and_sat_calls() {
        let c = circuit::generators::random_local(5, 12, 4, 0.0, 2);
        let g = arch::devices::tokyo_minus();
        let router = SatMap::new(SatMapConfig::sliced(3));
        let outcome = router.route_request(&RouteRequest::new(&c, &g));
        let routed = outcome.routed().expect("solves");
        verify(&c, &g, routed).expect("verifies");
        let telemetry = outcome.telemetry();
        assert!(telemetry.slices >= 4, "12 gates / 3 per slice: {telemetry}");
        assert!(telemetry.sat_calls > 0);
        assert!(telemetry.solve_time > Duration::ZERO);
        assert!(telemetry.encode_time > Duration::ZERO);
        assert!(outcome.wall_time() > Duration::ZERO);
    }
}
