//! The cyclic-circuit relaxation (Section VI).
//!
//! For a circuit of the form `prefix ; C ; C ; … ; C` (e.g. QAOA, Fig. 7),
//! solve the MaxSAT constraints for the repeated subcircuit `C` *once*,
//! with the added hard constraint that the final map equals the initial map
//! (realized by a trailing swap layer, Fig. 8), then stitch copies of the
//! solution to cover every repetition.
//!
//! The repeated structure is declared on the request
//! ([`circuit::RepeatedStructure`]), so the router serves the same
//! dyn-safe [`Router`] interface as everyone else; requests without a
//! declaration are treated as a single repetition. Composes with the local
//! relaxation: large subcircuits are sliced, and a restore layer closes
//! the cycle.

use std::marker::PhantomData;
use std::time::Instant;

use arch::ConnectivityGraph;
use circuit::{
    Circuit, RepeatedStructure, RouteError, RouteOutcome, RouteRequest, RouteSpec, RoutedCircuit,
    RoutedOp, Router,
};
use maxsat::MaxSatStatus;
use sat::{DefaultBackend, ResourceBudget, SatBackend, SolverTelemetry};

use crate::config::{Resolved, SatMapConfig};
use crate::encode::{routed_from_solution, EncodeShape, QmrEncoding};
use crate::solver::{stamp_diagnostics, stamp_quality, Proof, SatMap};

/// CYC-SATMAP: the cyclic relaxation router for repeated circuits.
///
/// Declare the repetition on the request and the router solves the
/// subcircuit once; the convenience [`CyclicSatMap::route_repeated`]
/// assembles the full circuit and the request in one call.
///
/// # Examples
///
/// ```
/// use circuit::{qaoa, verify::verify};
/// use satmap::{CyclicSatMap, SatMapConfig};
///
/// let edges = qaoa::three_regular_graph(6, 1);
/// let sub = qaoa::qaoa_subcircuit(6, &edges, 0.4, 0.3);
/// let mut prefix = circuit::Circuit::new(6);
/// for q in 0..6 { prefix.h(q); }
/// let graph = arch::devices::tokyo();
/// let router = CyclicSatMap::new(SatMapConfig::default());
/// let (full, routed) = router.route_repeated(&prefix, &sub, 2, &graph)?;
/// verify(&full, &graph, &routed).expect("verifies");
/// # Ok::<(), circuit::RouteError>(())
/// ```
#[derive(Debug)]
pub struct CyclicSatMap<B: SatBackend + Default + Send = DefaultBackend> {
    config: SatMapConfig,
    _backend: PhantomData<fn() -> B>,
}

impl<B: SatBackend + Default + Send> Clone for CyclicSatMap<B> {
    fn clone(&self) -> Self {
        CyclicSatMap {
            config: self.config.clone(),
            _backend: PhantomData,
        }
    }
}

impl CyclicSatMap {
    /// Creates a cyclic router with the given configuration and the
    /// default SAT backend.
    pub fn new(config: SatMapConfig) -> Self {
        Self::with_backend(config)
    }
}

impl<B: SatBackend + Default + Send> CyclicSatMap<B> {
    /// Creates a cyclic router with an explicit SAT backend type.
    pub fn with_backend(config: SatMapConfig) -> Self {
        CyclicSatMap {
            config,
            _backend: PhantomData,
        }
    }

    /// Convenience wrapper: assembles `prefix ; sub × cycles`, declares
    /// the repetition on a default request, and routes it, returning the
    /// assembled circuit together with its routed solution.
    ///
    /// For per-call budgets and knobs, assemble the circuit yourself and
    /// call [`Router::route_request`] with
    /// [`circuit::RouteRequest::with_repetition`].
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidRequest`] if the prefix contains two-qubit
    /// gates or the shape is degenerate; [`RouteError::Unsatisfiable`] if
    /// the subproblem has no solution; [`RouteError::Timeout`] on budget
    /// expiry.
    pub fn route_repeated(
        &self,
        prefix: &Circuit,
        sub: &Circuit,
        cycles: usize,
        graph: &ConnectivityGraph,
    ) -> Result<(Circuit, RoutedCircuit), RouteError> {
        if prefix.num_qubits() != sub.num_qubits() {
            return Err(RouteError::InvalidRequest(
                "prefix and subcircuit qubit counts differ".into(),
            ));
        }
        let mut full = Circuit::named(&format!("{}x{}", sub.name(), cycles), sub.num_qubits());
        full.extend_from(prefix);
        for _ in 0..cycles {
            full.extend_from(sub);
        }
        let request = RouteRequest::new(&full, graph).with_repetition(RepeatedStructure {
            prefix_len: prefix.len(),
            cycles,
        });
        self.route_request(&request)
            .into_result()
            .map(|routed| (full, routed))
    }

    /// Routes the whole request, returning the result plus the solver
    /// effort spent — the telemetry is reported even when routing fails,
    /// so timed-out attempts still account for their work.
    fn route_impl(
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
        // Without a declared repetition the whole circuit is one cycle.
        let (prefix_len, sub_len) = request
            .repeated_subcircuit_len()
            .unwrap_or((0, circuit.len()));
        let cycles = request.repetition().map_or(1, |r| r.cycles);
        let mut sub = Circuit::named("cycle", circuit.num_qubits());
        for g in &circuit.gates()[prefix_len..prefix_len + sub_len] {
            sub.push(g.clone());
        }
        let budget = p.budget.arm();

        // Solve the subcircuit once, cyclically.
        let sub_routed = match self.solve_subcircuit(&sub, graph, p, &budget, &mut telemetry, proof)
        {
            Ok(r) => r,
            Err(e) => return (Err(e), telemetry),
        };
        debug_assert_eq!(sub_routed.final_map(), sub_routed.initial_map());

        // Stitch: prefix 1q gates, then `cycles` copies of the subcircuit
        // ops with shifted gate indices.
        let initial_map = sub_routed.initial_map().to_vec();
        let mut ops: Vec<RoutedOp> = (0..prefix_len).map(RoutedOp::Logical).collect();
        for cycle in 0..cycles {
            let offset = prefix_len + cycle * sub_len;
            for op in sub_routed.ops() {
                ops.push(match *op {
                    RoutedOp::Logical(k) => RoutedOp::Logical(k + offset),
                    RoutedOp::Swap(a, b) => RoutedOp::Swap(a, b),
                });
            }
        }
        (Ok(RoutedCircuit::new(initial_map, ops)), telemetry)
    }

    /// Solves `sub` with the final-map = initial-map constraint, slicing if
    /// configured and the subcircuit is large enough.
    fn solve_subcircuit(
        &self,
        sub: &Circuit,
        graph: &ConnectivityGraph,
        p: &Resolved,
        budget: &ResourceBudget,
        telemetry: &mut SolverTelemetry,
        proof: &mut Proof,
    ) -> Result<RoutedCircuit, RouteError> {
        let n = p.swaps_per_gap;
        let monolithic = match p.slice_size {
            Some(size) => sub.num_two_qubit_gates() <= size,
            None => true,
        };
        if monolithic {
            let encode_start = Instant::now();
            let mut enc = QmrEncoding::build(
                sub,
                graph,
                n,
                EncodeShape {
                    leading_slots: 0,
                    trailing_swaps: true,
                },
                &p.objective,
            );
            enc.require_cyclic();
            telemetry.encode_time += encode_start.elapsed();
            let out = maxsat::solve_with_options::<B>(enc.instance(), budget, &p.options);
            telemetry.absorb(&out.telemetry);
            proof.observe(&out);
            return match out.status {
                MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                    let model = out.model.expect("status implies model");
                    let (maps, swaps) = enc.decode(&model);
                    Ok(routed_from_solution(sub, &enc, &maps, &swaps, n, 0))
                }
                MaxSatStatus::Unsat => Err(RouteError::Unsatisfiable(format!(
                    "cyclic subcircuit unsolvable with n = {n}"
                ))),
                MaxSatStatus::Unknown => Err(RouteError::Timeout),
            };
        }
        // Composed with slicing: route the subcircuit normally, then close
        // the cycle by solving a final "restore" slice that must land on
        // the initial map (an empty slice whose exit is pinned).
        let inner = SatMap::<B>::with_backend(SatMapConfig {
            slice_size: p.slice_size,
            swaps_per_gap: p.swaps_per_gap,
            backtrack_limit: p.backtrack_limit,
            totalizer_units: p.options.totalizer_units,
        });
        let spec = RouteSpec {
            // The budget is already armed: the inner route inherits the
            // deadline and cannot extend it.
            budget: budget.clone(),
            objective: p.objective.clone(),
            ..RouteSpec::default()
        };
        let inner_request = RouteRequest::with_spec(sub, graph, spec);
        let inner_p = inner.config().resolve(&inner_request);
        let (inner_result, inner_telemetry) = inner.route_impl(&inner_request, &inner_p, proof);
        telemetry.absorb(&inner_telemetry);
        let routed = inner_result?;
        let initial = routed.initial_map().to_vec();
        let final_map = routed.final_map();
        if final_map == initial {
            return Ok(routed);
        }
        let restore = self.solve_restore(
            &final_map,
            &initial,
            graph,
            sub.num_qubits(),
            p,
            budget,
            telemetry,
            proof,
        )?;
        let mut ops = routed.ops().to_vec();
        ops.extend(restore);
        Ok(RoutedCircuit::new(initial, ops))
    }

    /// Finds a swap sequence transforming `from` into `to` (both
    /// logical→physical maps) using an empty pinned encoding with enough
    /// leading swap slots.
    #[allow(clippy::too_many_arguments)]
    fn solve_restore(
        &self,
        from: &[usize],
        to: &[usize],
        graph: &ConnectivityGraph,
        num_logical: usize,
        p: &Resolved,
        budget: &ResourceBudget,
        telemetry: &mut SolverTelemetry,
        proof: &mut Proof,
    ) -> Result<Vec<RoutedOp>, RouteError> {
        // Upper bound on swaps needed: routing each qubit home costs at
        // most diameter swaps.
        let max_slots = (graph.diameter() * num_logical).max(1);
        let empty = Circuit::new(num_logical);
        // Grow the slot count geometrically until satisfiable.
        let mut slots = num_logical.max(2);
        loop {
            if budget.expired() {
                return Err(RouteError::Timeout);
            }
            let encode_start = Instant::now();
            let mut enc = QmrEncoding::build(
                &empty,
                graph,
                1,
                EncodeShape {
                    leading_slots: slots,
                    trailing_swaps: false,
                },
                &p.objective,
            );
            enc.pin_initial_map(from);
            enc.pin_final_map(to);
            telemetry.encode_time += encode_start.elapsed();
            let out = maxsat::solve_with_options::<B>(enc.instance(), budget, &p.options);
            telemetry.absorb(&out.telemetry);
            proof.observe(&out);
            match out.status {
                MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                    let model = out.model.expect("status implies model");
                    let (_, swaps) = enc.decode(&model);
                    return Ok(swaps
                        .into_iter()
                        .flatten()
                        .map(|(a, b)| RoutedOp::Swap(a, b))
                        .collect());
                }
                MaxSatStatus::Unknown => return Err(RouteError::Timeout),
                MaxSatStatus::Unsat if slots < max_slots => {
                    slots = (slots * 2).min(max_slots);
                }
                MaxSatStatus::Unsat => {
                    return Err(RouteError::Unsatisfiable(
                        "cannot restore cyclic map".into(),
                    ))
                }
            }
        }
    }
}

impl<B: SatBackend + Default + Send> Router for CyclicSatMap<B> {
    fn name(&self) -> &str {
        "cyc-satmap"
    }

    /// Routes the request, honoring a declared
    /// [`circuit::RepeatedStructure`]; without one the whole circuit is
    /// treated as a single repetition.
    fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome {
        let p = self.config.resolve(request);
        let mut proof = Proof::new();
        let outcome =
            RouteOutcome::capture(self.name(), || self.route_impl(request, &p, &mut proof));
        stamp_diagnostics(stamp_quality(outcome, &proof), &p)
            .with_diagnostic("cycles", request.repetition().map_or(1, |r| r.cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify::verify;

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

    #[test]
    fn fig8_running_example_two_swaps_per_cycle() {
        let (sub, g) = fig3();
        let prefix = Circuit::new(4);
        let router = CyclicSatMap::new(SatMapConfig::monolithic());
        let (full, routed) = router.route_repeated(&prefix, &sub, 3, &g).expect("solves");
        verify(&full, &g, &routed).expect("verifies");
        // Fig. 8: two swaps per repetition (one to route, one to restore).
        assert_eq!(routed.swap_count(), 2 * 3);
        assert_eq!(routed.final_map(), routed.initial_map());
    }

    #[test]
    fn declared_repetition_on_request_matches_convenience_api() {
        let (sub, g) = fig3();
        let full = sub.repeated(2);
        let router = CyclicSatMap::new(SatMapConfig::monolithic());
        let outcome = router.route_request(&RouteRequest::new(&full, &g).with_repetition(
            RepeatedStructure {
                prefix_len: 0,
                cycles: 2,
            },
        ));
        assert_eq!(outcome.diagnostic("cycles"), Some("2"));
        let routed = outcome.routed().expect("solves");
        verify(&full, &g, routed).expect("verifies");
        assert_eq!(routed.final_map(), routed.initial_map());
        assert!(outcome.telemetry().sat_calls > 0);
    }

    #[test]
    fn outcomes_carry_the_satmap_diagnostics() {
        let (c, g) = fig3();
        let outcome =
            CyclicSatMap::new(SatMapConfig::default()).route_request(&RouteRequest::new(&c, &g));
        assert!(outcome.solved());
        assert_eq!(outcome.diagnostic("strategy"), Some("core-guided"));
        assert_eq!(outcome.diagnostic("slice_size"), Some("25"));
        assert_eq!(outcome.diagnostic("swaps_per_gap"), Some("1"));
        assert_eq!(outcome.diagnostic("cycles"), Some("1"));
    }

    #[test]
    fn qaoa_on_tokyo_verifies() {
        let edges = circuit::qaoa::three_regular_graph(6, 2);
        let sub = circuit::qaoa::qaoa_subcircuit(6, &edges, 0.4, 0.3);
        let mut prefix = Circuit::new(6);
        for q in 0..6 {
            prefix.h(q);
        }
        let g = arch::devices::tokyo();
        let router = CyclicSatMap::new(SatMapConfig::monolithic());
        let (full, routed) = router.route_repeated(&prefix, &sub, 2, &g).expect("solves");
        verify(&full, &g, &routed).expect("verifies");
    }

    #[test]
    fn rejects_two_qubit_prefix() {
        let (sub, g) = fig3();
        let mut prefix = Circuit::new(4);
        prefix.cx(0, 1);
        let router = CyclicSatMap::new(SatMapConfig::monolithic());
        assert!(matches!(
            router.route_repeated(&prefix, &sub, 2, &g),
            Err(RouteError::InvalidRequest(_))
        ));
    }

    #[test]
    fn sliced_cyclic_composition_verifies() {
        let edges = circuit::qaoa::three_regular_graph(6, 4);
        let sub = circuit::qaoa::qaoa_subcircuit(6, &edges, 0.4, 0.3);
        let prefix = Circuit::new(6);
        let g = arch::devices::tokyo();
        // Slice size smaller than the subcircuit forces composition.
        let router = CyclicSatMap::new(SatMapConfig::sliced(4));
        let (full, routed) = router.route_repeated(&prefix, &sub, 3, &g).expect("solves");
        verify(&full, &g, &routed).expect("verifies");
        assert_eq!(routed.final_map(), routed.initial_map());
    }

    #[test]
    fn degraded_quantized_route_explains_itself() {
        // A weighted (fidelity) objective with a coarse quantum can only
        // claim Feasible even when the search runs to completion, so the
        // outcome is rightly degraded — but the row must say *why*.
        let (sub, g) = fig3();
        let noise = arch::NoiseModel::synthetic(&g, 7);
        let router = CyclicSatMap::new(SatMapConfig::monolithic().with_totalizer_units(1));
        let outcome = router.route_request(
            &RouteRequest::new(&sub, &g).with_objective(circuit::Objective::Fidelity(noise)),
        );
        assert!(outcome.solved());
        assert_eq!(outcome.quality(), circuit::RouteQuality::Degraded);
        assert_eq!(outcome.diagnostic("degraded_reason"), Some("quantized"));
    }

    #[test]
    fn proven_route_carries_no_degraded_reason() {
        let (sub, g) = fig3();
        let router = CyclicSatMap::new(SatMapConfig::monolithic());
        let outcome = router.route_request(&RouteRequest::new(&sub, &g));
        assert!(outcome.solved());
        assert_eq!(outcome.quality(), circuit::RouteQuality::Optimal);
        assert_eq!(outcome.diagnostic("degraded_reason"), None);
    }

    #[test]
    fn telemetry_flows_through_cyclic_composition() {
        let (sub, g) = fig3();
        let full = sub.repeated(2);
        let router = CyclicSatMap::new(SatMapConfig::monolithic());
        let outcome = router.route_request(&RouteRequest::new(&full, &g).with_repetition(
            RepeatedStructure {
                prefix_len: 0,
                cycles: 2,
            },
        ));
        assert!(outcome.solved());
        assert!(outcome.telemetry().sat_calls > 0, "{}", outcome.telemetry());
    }
}
