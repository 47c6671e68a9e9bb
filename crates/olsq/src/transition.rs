//! TB-OLSQ-style baseline: a *transition-based* ("time coordinate")
//! encoding (Tan & Cong, ICCAD 2020).
//!
//! Gates are assigned to a small number of *blocks*; all gates in a block
//! execute under the same mapping, and between blocks a *transition* may
//! apply any set of disjoint SWAPs. The solver iteratively deepens the
//! block count until satisfiable, then minimizes the number of SWAPs.
//!
//! TB-OLSQ's SMT formulation uses integer time coordinates; here the
//! integer arithmetic is emulated with order-encoded Booleans
//! (`time_le(g, k)` chains), which is what makes this encoding heavier
//! than SATMAP's sketch-based one — reproducing the paper's Q1 gap from
//! the same cause it identifies (theory reasoning vs. plain SAT).

use std::marker::PhantomData;

use arch::ConnectivityGraph;
use circuit::{Circuit, RouteError, RouteOutcome, RouteRequest, RoutedCircuit, RoutedOp, Router};
use maxsat::encodings::{at_most_one, exactly_one};
use maxsat::{MaxSatStatus, WcnfInstance};
use sat::{DefaultBackend, Lit, SatBackend, SolverTelemetry, Var};

/// The transition-based router (TB-OLSQ analogue), generic over the SAT
/// backend driving the MaxSAT engine. The deepening budget and search
/// strategy come from each [`RouteRequest`].
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Router, verify::verify};
/// use olsq::Transition;
/// let mut c = Circuit::new(3);
/// c.cx(0, 1);
/// c.cx(0, 2);
/// let g = arch::devices::linear(3);
/// let routed = Transition::default().route(&c, &g)?;
/// verify(&c, &g, &routed).expect("verifies");
/// # Ok::<(), circuit::RouteError>(())
/// ```
#[derive(Debug)]
pub struct Transition<B: SatBackend + Default + Send = DefaultBackend> {
    _backend: PhantomData<fn() -> B>,
}

impl<B: SatBackend + Default + Send> Clone for Transition<B> {
    fn clone(&self) -> Self {
        Transition {
            _backend: PhantomData,
        }
    }
}

impl Default for Transition {
    fn default() -> Self {
        Transition {
            _backend: PhantomData,
        }
    }
}

impl<B: SatBackend + Default + Send> Transition<B> {
    /// Creates the router with an explicit SAT backend type.
    pub fn with_backend() -> Self {
        Transition {
            _backend: PhantomData,
        }
    }
}

/// Decoded model: initial map, per-gate block, per-transition swap sets.
type DecodedSchedule = (Vec<usize>, Vec<usize>, Vec<Vec<(usize, usize)>>);

struct TransitionEncoding {
    instance: WcnfInstance,
    map_var: Vec<Vec<Vec<Var>>>, // [block][q][p]
    time_le: Vec<Vec<Var>>,      // [gate][block]: scheduled at block ≤ k
    swap_var: Vec<Vec<Var>>,     // [transition][edge]
    edges: Vec<(usize, usize)>,
    blocks: usize,
}

impl TransitionEncoding {
    fn build(circuit: &Circuit, graph: &ConnectivityGraph, blocks: usize) -> Self {
        let interactions = circuit.two_qubit_interactions();
        let (nl, np) = (circuit.num_qubits(), graph.num_qubits());
        let mut instance = WcnfInstance::new();
        let map_var: Vec<Vec<Vec<Var>>> = (0..blocks)
            .map(|_| {
                (0..nl)
                    .map(|_| (0..np).map(|_| instance.new_var()).collect())
                    .collect()
            })
            .collect();
        let time_le: Vec<Vec<Var>> = (0..interactions.len())
            .map(|_| (0..blocks).map(|_| instance.new_var()).collect())
            .collect();
        let edges = graph.edges().to_vec();
        let swap_var: Vec<Vec<Var>> = (0..blocks.saturating_sub(1))
            .map(|_| (0..edges.len()).map(|_| instance.new_var()).collect())
            .collect();

        let m = |k: usize, q: usize, p: usize| map_var[k][q][p].positive();
        let tle = |g: usize, k: usize| time_le[g][k].positive();
        let sw = |t: usize, e: usize| swap_var[t][e].positive();

        // Injectivity per block (compact only-one, like TB-OLSQ).
        for k in 0..blocks {
            for q in 0..nl {
                let lits: Vec<Lit> = (0..np).map(|p| m(k, q, p)).collect();
                exactly_one(&mut instance, &lits);
            }
            for p in 0..np {
                let lits: Vec<Lit> = (0..nl).map(|q| m(k, q, p)).collect();
                at_most_one(&mut instance, &lits);
            }
        }

        // Order-encoded schedule: monotone chains, final block mandatory.
        for g in 0..interactions.len() {
            for k in 0..blocks - 1 {
                instance.add_hard([!tle(g, k), tle(g, k + 1)]);
            }
            instance.add_hard([tle(g, blocks - 1)]);
        }

        // Dependencies: an earlier gate sharing a qubit is scheduled no
        // later than the dependent gate.
        for (i, &(_, a1, b1)) in interactions.iter().enumerate() {
            for (j, &(_, a2, b2)) in interactions.iter().enumerate().skip(i + 1) {
                let shares = [a1, b1].iter().any(|q| *q == a2 || *q == b2);
                if shares {
                    for k in 0..blocks {
                        instance.add_hard([!tle(j, k), tle(i, k)]);
                    }
                }
            }
        }

        // Executability: gate scheduled exactly at block k runs under map k.
        for (g, &(_, a, b)) in interactions.iter().enumerate() {
            for k in 0..blocks {
                for p in 0..np {
                    // (tle(g,k) ∧ ¬tle(g,k−1) ∧ map(a,p,k)) → ⋁ map(b,p',k)
                    let mut clause = vec![!tle(g, k), !m(k, a.0, p)];
                    if k > 0 {
                        clause.push(tle(g, k - 1));
                    }
                    clause.extend(graph.neighbors(p).iter().map(|&p2| m(k, b.0, p2)));
                    instance.add_hard(clause);
                }
            }
        }

        // Transitions: disjoint swap sets with touched-style frame axioms.
        for t in 0..blocks.saturating_sub(1) {
            // At most one swap touching each physical qubit.
            for p in 0..np {
                let incident: Vec<Lit> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, &(x, y))| x == p || y == p)
                    .map(|(e, _)| sw(t, e))
                    .collect();
                at_most_one(&mut instance, &incident);
            }
            let touched: Vec<Lit> = (0..np).map(|_| instance.new_var().positive()).collect();
            for (p, &touched_p) in touched.iter().enumerate() {
                let mut any = vec![!touched_p];
                for (e, &(x, y)) in edges.iter().enumerate() {
                    if x == p || y == p {
                        instance.add_hard([!sw(t, e), touched_p]);
                        any.push(sw(t, e));
                    }
                }
                instance.add_hard(any);
            }
            for (e, &(x, y)) in edges.iter().enumerate() {
                for q in 0..nl {
                    instance.add_hard([!sw(t, e), !m(t, q, x), m(t + 1, q, y)]);
                    instance.add_hard([!sw(t, e), !m(t, q, y), m(t + 1, q, x)]);
                }
            }
            for (p, &touched_p) in touched.iter().enumerate() {
                for q in 0..nl {
                    instance.add_hard([touched_p, !m(t, q, p), m(t + 1, q, p)]);
                }
            }
            // Soft: minimize swaps.
            for e in 0..edges.len() {
                instance.add_soft(1, [!sw(t, e)]);
            }
        }

        TransitionEncoding {
            instance,
            map_var,
            time_le,
            swap_var,
            edges,
            blocks,
        }
    }

    fn decode(&self, model: &[bool], num_gates: usize) -> DecodedSchedule {
        let value = |v: Var| model.get(v.index()).copied().unwrap_or(false);
        let initial: Vec<usize> = self.map_var[0]
            .iter()
            .map(|row| row.iter().position(|&v| value(v)).expect("total map"))
            .collect();
        let block_of: Vec<usize> = (0..num_gates)
            .map(|g| {
                (0..self.blocks)
                    .find(|&k| value(self.time_le[g][k]))
                    .expect("scheduled")
            })
            .collect();
        let swaps: Vec<Vec<(usize, usize)>> = self
            .swap_var
            .iter()
            .map(|tr| {
                tr.iter()
                    .enumerate()
                    .filter(|&(_, &v)| value(v))
                    .map(|(e, _)| self.edges[e])
                    .collect()
            })
            .collect();
        (initial, block_of, swaps)
    }
}

impl<B: SatBackend + Default + Send> Transition<B> {
    fn route_impl(
        &self,
        request: &RouteRequest<'_>,
    ) -> (Result<RoutedCircuit, RouteError>, SolverTelemetry) {
        let mut telemetry = SolverTelemetry::new();
        if let Err(e) = request.validate() {
            return (Err(e), telemetry);
        }
        let (circuit, graph) = (request.circuit(), request.graph());
        let options = crate::engine_options(request);
        let budget = request.budget().arm();
        let interactions = circuit.two_qubit_interactions();
        let max_blocks = interactions.len().max(1) + 1;
        let mut blocks = 1usize;
        loop {
            if budget.expired() {
                return (Err(RouteError::Timeout), telemetry);
            }
            // Memory guard (5 GB cap analogue): the dependency matrix grows
            // as |C|²·K; refuse rather than thrash.
            let g2 = interactions.len() * interactions.len();
            if request.budget().is_limited() && g2.saturating_mul(blocks) > 80_000_000 {
                return (Err(RouteError::Timeout), telemetry);
            }
            let encode_start = std::time::Instant::now();
            let enc = TransitionEncoding::build(circuit, graph, blocks);
            telemetry.encode_time += encode_start.elapsed();
            let out = maxsat::solve_with_options::<B>(&enc.instance, &budget, &options);
            telemetry.absorb(&out.telemetry);
            match out.status {
                MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                    let model = out.model.expect("status implies model");
                    let (initial, block_of, swaps) = enc.decode(&model, interactions.len());
                    let routed = assemble(circuit, &interactions, initial, &block_of, &swaps);
                    return (Ok(routed), telemetry);
                }
                MaxSatStatus::Unknown => return (Err(RouteError::Timeout), telemetry),
                MaxSatStatus::Unsat if blocks < max_blocks => {
                    blocks = (blocks * 2).min(max_blocks);
                }
                MaxSatStatus::Unsat => {
                    return (
                        Err(RouteError::Unsatisfiable(
                            "no transition schedule found".into(),
                        )),
                        telemetry,
                    )
                }
            }
        }
    }
}

impl<B: SatBackend + Default + Send> Router for Transition<B> {
    fn name(&self) -> &str {
        "tb-olsq"
    }

    fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome {
        RouteOutcome::capture(self.name(), || self.route_impl(request))
            .with_diagnostic("encoding", "transition-based")
    }
}

/// Interleaves block-scheduled gates and transition swaps into a routed op
/// sequence (single-qubit gates follow their preceding two-qubit gate's
/// block; leading ones run first).
fn assemble(
    circuit: &Circuit,
    interactions: &[(usize, circuit::Qubit, circuit::Qubit)],
    initial: Vec<usize>,
    block_of: &[usize],
    swaps: &[Vec<(usize, usize)>],
) -> RoutedCircuit {
    // Assign every gate index a block: 2q gates use their schedule; 1q
    // gates inherit the block of the previous 2q gate on any of their
    // qubits (0 if none), which preserves per-qubit order.
    let num_blocks = swaps.len() + 1;
    let mut block_of_gate = vec![0usize; circuit.len()];
    let mut last_block_per_qubit = vec![0usize; circuit.num_qubits()];
    let mut next_2q = 0usize;
    for (k, g) in circuit.gates().iter().enumerate() {
        if g.is_two_qubit() {
            let b = block_of[next_2q];
            debug_assert_eq!(interactions[next_2q].0, k);
            next_2q += 1;
            block_of_gate[k] = b;
            for q in g.qubits() {
                last_block_per_qubit[q.0] = b;
            }
        } else {
            let b = g
                .qubits()
                .iter()
                .map(|q| last_block_per_qubit[q.0])
                .max()
                .unwrap_or(0);
            block_of_gate[k] = b;
        }
    }
    let mut ops = Vec::new();
    for b in 0..num_blocks {
        if b > 0 {
            for &(x, y) in &swaps[b - 1] {
                ops.push(RoutedOp::Swap(x, y));
            }
        }
        for (k, &bk) in block_of_gate.iter().enumerate() {
            if bk == b {
                ops.push(RoutedOp::Logical(k));
            }
        }
    }
    RoutedCircuit::new(initial, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify::verify;

    #[test]
    fn solves_paper_example() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(0, 2);
        c.cx(3, 2);
        c.cx(0, 3);
        let g = ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let routed = Transition::default().route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
        // Transition-based scheduling also needs exactly one swap here.
        assert_eq!(routed.swap_count(), 1);
    }

    #[test]
    fn zero_swap_when_one_block_suffices() {
        let c = circuit::generators::graycode(5);
        let g = arch::devices::linear(5);
        let routed = Transition::default().route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
        assert_eq!(routed.swap_count(), 0);
    }

    #[test]
    fn respects_dependencies_across_blocks() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.h(1);
        c.cx(1, 3);
        c.cx(0, 2);
        let g = arch::devices::linear(4);
        let routed = Transition::default().route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn times_out_gracefully() {
        let c = circuit::generators::random_local(8, 40, 7, 0.0, 5);
        let g = arch::devices::tokyo();
        let request = RouteRequest::new(&c, &g).with_budget(std::time::Duration::ZERO);
        let outcome = Transition::<DefaultBackend>::default().route_request(&request);
        assert!(matches!(outcome.error(), Some(RouteError::Timeout)));
    }
}
