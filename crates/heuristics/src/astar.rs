//! An MQTH-style router (Zulehner, Paler, Wille — TCAD 2018): exhaustive
//! A* search for the cheapest swap sequence between consecutive topological
//! layers, with an expansion cap and a shortest-path fallback to stay
//! total. The paper reports a mean 5.19× cost ratio against this baseline.

use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use arch::ConnectivityGraph;
use circuit::{
    Circuit, Gate, RouteError, RouteOutcome, RouteRequest, RoutedCircuit, RoutedOp, Router,
};
use sat::SolverTelemetry;

use crate::placement::degree_matching_placement;

/// A*-router configuration.
#[derive(Clone, Debug)]
pub struct AStarConfig {
    /// Maximum node expansions per layer before falling back to greedy
    /// shortest-path routing (keeps worst-case time bounded, mirroring
    /// MQTH's layer-local application of A*).
    pub max_expansions: usize,
}

impl Default for AStarConfig {
    fn default() -> Self {
        AStarConfig {
            max_expansions: 20_000,
        }
    }
}

/// The A*-based router.
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Router, verify::verify};
/// use heuristics::AStar;
/// let c = circuit::generators::qft(4);
/// let g = arch::devices::tokyo();
/// let routed = AStar::default().route(&c, &g)?;
/// verify(&c, &g, &routed).expect("verifies");
/// # Ok::<(), circuit::RouteError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct AStar {
    config: AStarConfig,
}

impl AStar {
    /// Creates a router with the given configuration.
    pub fn new(config: AStarConfig) -> Self {
        AStar { config }
    }
}

/// A physical qubit in a search state. Every device whose all-pairs
/// distance table fits in memory has at most 2^16 qubits.
type Phys = u16;

/// An open-list entry: a search state and its costs. Only `f` and `g`
/// take part in the ordering, so equal-cost entries leave the heap in an
/// order fixed by the sequence of pushes and pops alone.
struct Node {
    f: usize,
    g: usize,
    state: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Node {}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on f, tie-break on larger g (deeper first).
        other.f.cmp(&self.f).then_with(|| self.g.cmp(&other.g))
    }
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// FxHash (the rustc hasher): one rotate, xor and multiply per word. Its
/// keys are search states the A* search derives by swaps, not values a
/// request spells out, and the map's iteration order is never read.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

impl AStar {
    /// Admissible heuristic: each swap can reduce the distance of at most
    /// two blocked pairs by one each.
    fn heuristic(graph: &ConnectivityGraph, pos: &[Phys], pairs: &[(usize, usize)]) -> usize {
        let total: usize = pairs
            .iter()
            .map(|&(a, b)| {
                graph
                    .distance(pos[a].into(), pos[b].into())
                    .saturating_sub(1)
            })
            .sum();
        total.div_ceil(2)
    }

    /// Finds a swap sequence making every pair in `pairs` *simultaneously*
    /// adjacent, starting from `pos` (logical → physical). Returns `None`
    /// when the expansion cap is hit (the caller then routes the layer's
    /// gates one at a time).
    fn solve_layer(
        &self,
        graph: &ConnectivityGraph,
        pos: &[usize],
        pairs: &[(usize, usize)],
    ) -> Option<Vec<(usize, usize)>> {
        if pairs
            .iter()
            .all(|&(a, b)| graph.are_adjacent(pos[a], pos[b]))
        {
            return Some(Vec::new());
        }
        assert!(
            graph.num_qubits() <= usize::from(Phys::MAX) + 1,
            "A* search states hold at most 2^16 physical qubits"
        );
        let n = pos.len();
        // Every state ever pushed, stored flat: state `s` places logical
        // qubit `q` on `states[s * n + q]`, and `trail[s]` names the state
        // it was expanded from and the swap that led from there to it.
        let mut states: Vec<Phys> = pos.iter().map(|&p| p as Phys).collect();
        let mut trail: Vec<(usize, (Phys, Phys))> = vec![(usize::MAX, (0, 0))];
        let mut best_g: HashMap<Box<[Phys]>, usize, BuildHasherDefault<FxHasher>> =
            HashMap::default();
        let mut open = BinaryHeap::new();
        open.push(Node {
            f: Self::heuristic(graph, &states, pairs),
            g: 0,
            state: 0,
        });
        best_g.insert(states.as_slice().into(), 0);
        let mut expansions = 0usize;
        let mut current: Vec<Phys> = Vec::with_capacity(n);
        let mut child: Vec<Phys> = Vec::with_capacity(n);
        let mut relevant: Vec<Phys> = Vec::new();

        while let Some(node) = open.pop() {
            current.clear();
            current.extend_from_slice(&states[node.state * n..(node.state + 1) * n]);
            if pairs
                .iter()
                .all(|&(a, b)| graph.are_adjacent(current[a].into(), current[b].into()))
            {
                let mut swaps = Vec::with_capacity(node.g);
                let mut s = node.state;
                while s != 0 {
                    let (parent, (x, y)) = trail[s];
                    swaps.push((usize::from(x), usize::from(y)));
                    s = parent;
                }
                swaps.reverse();
                return Some(swaps);
            }
            expansions += 1;
            if expansions > self.config.max_expansions {
                break;
            }
            if best_g.get(current.as_slice()).is_some_and(|&g| g < node.g) {
                continue; // stale entry
            }
            // Expand: swaps on edges touching a qubit of a blocked pair.
            relevant.clear();
            for &(a, b) in pairs {
                if !graph.are_adjacent(current[a].into(), current[b].into()) {
                    relevant.push(current[a]);
                    relevant.push(current[b]);
                }
            }
            relevant.sort_unstable();
            relevant.dedup();
            for &p in &relevant {
                for &p2 in graph.neighbors(p.into()) {
                    let p2 = p2 as Phys;
                    child.clear();
                    child.extend(current.iter().map(|&m| {
                        if m == p {
                            p2
                        } else if m == p2 {
                            p
                        } else {
                            m
                        }
                    }));
                    let g2 = node.g + 1;
                    match best_g.get_mut(child.as_slice()) {
                        Some(g) if *g <= g2 => continue,
                        Some(g) => *g = g2,
                        None => {
                            best_g.insert(child.as_slice().into(), g2);
                        }
                    }
                    open.push(Node {
                        f: g2 + Self::heuristic(graph, &child, pairs),
                        g: g2,
                        state: trail.len(),
                    });
                    states.extend_from_slice(&child);
                    trail.push((node.state, (p.min(p2), p.max(p2))));
                }
            }
        }

        None
    }
}

impl AStar {
    /// The routing pass proper, after request validation.
    fn route_impl(
        &self,
        circuit: &Circuit,
        graph: &ConnectivityGraph,
    ) -> Result<RoutedCircuit, RouteError> {
        let initial = degree_matching_placement(circuit, graph);
        let mut pos = initial.clone();
        let mut ops = Vec::new();

        let apply_swap = |pos: &mut Vec<usize>, ops: &mut Vec<RoutedOp>, x: usize, y: usize| {
            ops.push(RoutedOp::Swap(x, y));
            for m in pos.iter_mut() {
                if *m == x {
                    *m = y;
                } else if *m == y {
                    *m = x;
                }
            }
        };

        for layer in circuit.topological_layers() {
            let pairs: Vec<(usize, usize)> = layer
                .iter()
                .filter_map(|&k| match &circuit.gates()[k] {
                    Gate::Two { a, b, .. } => Some((a.0, b.0)),
                    Gate::One { .. } => None,
                })
                .collect();
            match self.solve_layer(graph, &pos, &pairs) {
                Some(swaps) => {
                    for (x, y) in swaps {
                        apply_swap(&mut pos, &mut ops, x, y);
                    }
                    for &k in &layer {
                        ops.push(RoutedOp::Logical(k));
                    }
                }
                None => {
                    // Expansion cap hit: route the layer's gates one at a
                    // time along shortest paths (always correct, since each
                    // gate executes immediately after its own swaps).
                    for &k in &layer {
                        if let Gate::Two { a, b, .. } = &circuit.gates()[k] {
                            while !graph.are_adjacent(pos[a.0], pos[b.0]) {
                                let path = graph
                                    .shortest_path(pos[a.0], pos[b.0])
                                    .expect("device is connected");
                                apply_swap(&mut pos, &mut ops, path[0], path[1]);
                            }
                        }
                        ops.push(RoutedOp::Logical(k));
                    }
                }
            }
        }
        Ok(RoutedCircuit::new(initial, ops))
    }
}

impl Router for AStar {
    fn name(&self) -> &str {
        "mqth-astar"
    }

    fn route_request(&self, request: &RouteRequest<'_>) -> RouteOutcome {
        RouteOutcome::capture(self.name(), || {
            let result = request
                .validate()
                .and_then(|()| self.route_impl(request.circuit(), request.graph()));
            (result, SolverTelemetry::default())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::verify::verify;

    #[test]
    fn routes_paper_example_optimally_per_layer() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(0, 2);
        c.cx(3, 2);
        c.cx(0, 3);
        let g = ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let routed = AStar::default().route(&c, &g).expect("routes");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn layer_search_is_optimal_on_small_case() {
        // One blocked pair at distance 2: exactly one swap suffices.
        let g = arch::devices::linear(3);
        let astar = AStar::default();
        let swaps = astar.solve_layer(&g, &[0, 2], &[(0, 1)]).expect("found");
        assert_eq!(swaps.len(), 1);
    }

    #[test]
    fn search_states_hold_qubits_beyond_255() {
        let g = arch::devices::linear(300);
        let pos = [250, 262, 299];
        let swaps = AStar::default()
            .solve_layer(&g, &pos, &[(0, 1)])
            .expect("found");
        assert_eq!(swaps.len(), 11);
        let mut pos = pos.to_vec();
        for (x, y) in swaps {
            assert!(g.are_adjacent(x, y) && x >= 250);
            for m in pos.iter_mut() {
                if *m == x {
                    *m = y;
                } else if *m == y {
                    *m = x;
                }
            }
        }
        assert!(g.are_adjacent(pos[0], pos[1]));
        assert_eq!(pos[2], 299);

        let mut c = Circuit::new(300);
        c.cx(0, 299);
        c.cx(10, 280);
        c.cx(299, 150);
        let routed = AStar::default().route(&c, &g).expect("routes");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn routes_random_circuits() {
        let g = arch::devices::tokyo();
        for seed in 0..3 {
            let c = circuit::generators::random_local(10, 50, 9, 0.2, seed);
            let routed = AStar::default().route(&c, &g).expect("routes");
            verify(&c, &g, &routed).expect("verifies");
        }
    }

    #[test]
    fn fallback_still_verifies() {
        // Absurdly small expansion cap forces the greedy fallback.
        let g = arch::devices::tokyo_minus();
        let c = circuit::generators::random_local(12, 40, 11, 0.1, 2);
        let astar = AStar::new(AStarConfig { max_expansions: 1 });
        let routed = astar.route(&c, &g).expect("routes");
        verify(&c, &g, &routed).expect("verifies");
    }

    #[test]
    fn heuristic_is_zero_at_goal() {
        let g = arch::devices::linear(3);
        assert_eq!(AStar::heuristic(&g, &[0, 1], &[(0, 1)]), 0);
        assert_eq!(AStar::heuristic(&g, &[0, 2], &[(0, 1)]), 1);
    }
}
