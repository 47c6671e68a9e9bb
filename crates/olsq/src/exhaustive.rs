//! EX-MQT-style baseline: the *naive* constraint encoding of QMR.
//!
//! Semantically identical to SATMAP's encoding but deliberately built the
//! way the earlier exact mappers (Wille/Burgholzer/Zulehner, DAC 2019)
//! built theirs — the paper attributes EX-MQT's poor scalability to
//! encoding size, and this module reproduces that size:
//!
//! * **pairwise** injectivity clauses, `O(|Phys|² · |Logic|)` per state
//!   (instead of the sequential only-one encoding);
//! * gate executability via full **edge-pair enumeration** with a Tseitin
//!   auxiliary per (gate, directed edge);
//! * swap effects with **per-edge frame axioms**,
//!   `O(|Edges| · |Logic| · |Phys|)` clauses per slot (no `touched`
//!   auxiliaries);
//! * no slicing, no relaxations: one monolithic MaxSAT instance.

use std::marker::PhantomData;

use arch::ConnectivityGraph;
use circuit::{Circuit, RouteError, RouteOutcome, RouteRequest, RoutedCircuit, RoutedOp, Router};
use maxsat::{MaxSatStatus, WcnfInstance};
use sat::{DefaultBackend, Lit, SatBackend, SolverTelemetry, Var};

/// The exhaustive-encoding router (EX-MQT analogue), generic over the SAT
/// backend driving the MaxSAT engine. The solve budget and search
/// strategy come from each [`RouteRequest`].
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Router, verify::verify};
/// use olsq::Exhaustive;
/// let mut c = Circuit::new(3);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// let g = arch::devices::linear(3);
/// let routed = Exhaustive::default().route(&c, &g)?;
/// verify(&c, &g, &routed).expect("verifies");
/// # Ok::<(), circuit::RouteError>(())
/// ```
#[derive(Debug)]
pub struct Exhaustive<B: SatBackend + Default + Send = DefaultBackend> {
    _backend: PhantomData<fn() -> B>,
}

impl<B: SatBackend + Default + Send> Clone for Exhaustive<B> {
    fn clone(&self) -> Self {
        Exhaustive {
            _backend: PhantomData,
        }
    }
}

impl Default for Exhaustive {
    fn default() -> Self {
        Exhaustive {
            _backend: PhantomData,
        }
    }
}

impl<B: SatBackend + Default + Send> Exhaustive<B> {
    /// Creates the router with an explicit SAT backend type.
    pub fn with_backend() -> Self {
        Exhaustive {
            _backend: PhantomData,
        }
    }
}

struct NaiveEncoding {
    instance: WcnfInstance,
    map_var: Vec<Vec<Vec<Var>>>, // [state][q][p]
    swap_var: Vec<Vec<Var>>,     // [slot][edge or noop]
    edges: Vec<(usize, usize)>,
    num_states: usize,
}

impl NaiveEncoding {
    fn build(circuit: &Circuit, graph: &ConnectivityGraph) -> Self {
        let interactions = circuit.two_qubit_interactions();
        let num_states = interactions.len().max(1);
        let num_slots = num_states - 1;
        let (nl, np) = (circuit.num_qubits(), graph.num_qubits());
        let mut instance = WcnfInstance::new();
        let map_var: Vec<Vec<Vec<Var>>> = (0..num_states)
            .map(|_| {
                (0..nl)
                    .map(|_| (0..np).map(|_| instance.new_var()).collect())
                    .collect()
            })
            .collect();
        let edges = graph.edges().to_vec();
        let swap_var: Vec<Vec<Var>> = (0..num_slots)
            .map(|_| (0..=edges.len()).map(|_| instance.new_var()).collect())
            .collect();
        let m = |s: usize, q: usize, p: usize| map_var[s][q][p].positive();
        let sw = |slot: usize, e: usize| swap_var[slot][e].positive();

        for s in 0..num_states {
            // Injectivity, fully pairwise (the blowup).
            for q in 0..nl {
                let lits: Vec<Lit> = (0..np).map(|p| m(s, q, p)).collect();
                instance.add_hard(lits); // at least one
                for p1 in 0..np {
                    for p2 in (p1 + 1)..np {
                        instance.add_hard([!m(s, q, p1), !m(s, q, p2)]);
                    }
                }
            }
            for p in 0..np {
                for q1 in 0..nl {
                    for q2 in (q1 + 1)..nl {
                        instance.add_hard([!m(s, q1, p), !m(s, q2, p)]);
                    }
                }
            }
        }

        // Gate executability: Tseitin aux per (gate, directed edge).
        for (s, &(_, a, b)) in interactions.iter().enumerate() {
            let mut any = Vec::new();
            for &(x, y) in &edges {
                for (px, py) in [(x, y), (y, x)] {
                    let aux = instance.new_var().positive();
                    instance.add_hard([!aux, m(s, a.0, px)]);
                    instance.add_hard([!aux, m(s, b.0, py)]);
                    instance.add_hard([!m(s, a.0, px), !m(s, b.0, py), aux]);
                    any.push(aux);
                }
            }
            instance.add_hard(any);
        }

        // Swap slots: pairwise exactly-one + naive per-edge frame axioms.
        for slot in 0..num_slots {
            let n_choices = edges.len() + 1;
            let all: Vec<Lit> = (0..n_choices).map(|e| sw(slot, e)).collect();
            instance.add_hard(all);
            for e1 in 0..n_choices {
                for e2 in (e1 + 1)..n_choices {
                    instance.add_hard([!sw(slot, e1), !sw(slot, e2)]);
                }
            }
            for (e, &(x, y)) in edges.iter().enumerate() {
                for q in 0..nl {
                    // Movement across the chosen edge.
                    instance.add_hard([!sw(slot, e), !m(slot, q, x), m(slot + 1, q, y)]);
                    instance.add_hard([!sw(slot, e), !m(slot, q, y), m(slot + 1, q, x)]);
                    // Naive frame: every other position copied, per edge.
                    for p in 0..np {
                        if p != x && p != y {
                            instance.add_hard([!sw(slot, e), !m(slot, q, p), m(slot + 1, q, p)]);
                        }
                    }
                }
            }
            // No-op frame.
            let noop = sw(slot, edges.len());
            for q in 0..nl {
                for p in 0..np {
                    instance.add_hard([!noop, !m(slot, q, p), m(slot + 1, q, p)]);
                }
            }
            instance.add_soft(1, [noop]);
        }

        NaiveEncoding {
            instance,
            map_var,
            swap_var,
            edges,
            num_states,
        }
    }

    fn decode(&self, model: &[bool]) -> (Vec<usize>, Vec<Option<(usize, usize)>>) {
        let value = |v: Var| model.get(v.index()).copied().unwrap_or(false);
        let initial: Vec<usize> = self.map_var[0]
            .iter()
            .map(|row| {
                row.iter()
                    .position(|&v| value(v))
                    .expect("total map in model")
            })
            .collect();
        let swaps = self
            .swap_var
            .iter()
            .map(|slot| {
                let e = slot
                    .iter()
                    .position(|&v| value(v))
                    .expect("exactly-one swap");
                if e == self.edges.len() {
                    None
                } else {
                    Some(self.edges[e])
                }
            })
            .collect();
        (initial, swaps)
    }
}

impl<B: SatBackend + Default + Send> Exhaustive<B> {
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
        // Memory guard (the paper's 5 GB cap analogue): the naive encoding
        // grows as |C|·|Edges|·|Logic|·|Phys| and is the reason EX-MQT
        // stops early; refuse rather than thrash.
        let est = circuit.num_two_qubit_gates().max(1)
            * graph.num_edges()
            * circuit.num_qubits()
            * graph.num_qubits();
        if request.budget().is_limited() && est > 40_000_000 {
            return (Err(RouteError::Timeout), telemetry);
        }
        let encode_start = std::time::Instant::now();
        let enc = NaiveEncoding::build(circuit, graph);
        telemetry.encode_time += encode_start.elapsed();
        let out = maxsat::solve_with_options::<B>(&enc.instance, &budget, &options);
        telemetry.absorb(&out.telemetry);
        match out.status {
            MaxSatStatus::Optimal | MaxSatStatus::Feasible => {
                let model = out.model.expect("status implies model");
                let (initial, swaps) = enc.decode(&model);
                let mut ops = Vec::new();
                let mut two_q_seen = 0usize;
                for (k, g) in circuit.gates().iter().enumerate() {
                    if g.is_two_qubit() {
                        if two_q_seen > 0 {
                            if let Some((x, y)) = swaps[two_q_seen - 1] {
                                ops.push(RoutedOp::Swap(x, y));
                            }
                        }
                        two_q_seen += 1;
                    }
                    ops.push(RoutedOp::Logical(k));
                }
                let _ = enc.num_states;
                (Ok(RoutedCircuit::new(initial, ops)), telemetry)
            }
            MaxSatStatus::Unsat => (
                Err(RouteError::Unsatisfiable(
                    "no routing with one swap per gap".into(),
                )),
                telemetry,
            ),
            MaxSatStatus::Unknown => (Err(RouteError::Timeout), telemetry),
        }
    }
}

impl<B: SatBackend + Default + Send> Router for Exhaustive<B> {
    fn name(&self) -> &str {
        "ex-mqt"
    }

    fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome {
        RouteOutcome::capture(self.name(), || self.route_impl(request))
            .with_diagnostic("encoding", "naive-exhaustive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify::verify;

    #[test]
    fn solves_paper_example_with_one_swap() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(0, 2);
        c.cx(3, 2);
        c.cx(0, 3);
        let g = ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let routed = Exhaustive::default().route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
        assert_eq!(routed.swap_count(), 1, "optimal like SATMAP");
    }

    #[test]
    fn agrees_with_zero_swap_instances() {
        let c = circuit::generators::graycode(4);
        let g = arch::devices::linear(4);
        let routed = Exhaustive::default().route(&c, &g).expect("solves");
        verify(&c, &g, &routed).expect("verifies");
        assert_eq!(routed.swap_count(), 0);
    }

    #[test]
    fn times_out_gracefully() {
        let c = circuit::generators::random_local(8, 60, 7, 0.0, 1);
        let g = arch::devices::tokyo();
        let request = RouteRequest::new(&c, &g).with_budget(std::time::Duration::ZERO);
        let outcome = Exhaustive::<DefaultBackend>::default().route_request(&request);
        assert!(matches!(outcome.error(), Some(RouteError::Timeout)));
    }
}
