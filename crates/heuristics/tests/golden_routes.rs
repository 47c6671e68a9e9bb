//! Golden routes: the heuristic baselines must keep producing exactly the
//! same routed circuits. Each expected value is an FNV-1a digest of the
//! initial map and the op list, recorded before the search data structures
//! were reworked for speed (k-way extended set, compact A* states); any
//! change to tie-breaking or search order shows up here.

use circuit::{RoutedCircuit, RoutedOp, Router};
use heuristics::{AStar, Sabre, Tket};

/// Suite circuits routed on `tokyo`: a small named RevLib stand-in, an
/// adder with one-qubit gates, and a random circuit that needs many swaps.
const CIRCUITS: [&str; 3] = ["4mod5-v0_18", "adder_8q_149g_t2", "rand_10q_438g_t3"];

/// `(router, circuit, digest)`.
const GOLDEN: [(&str, &str, u64); 9] = [
    ("sabre", "4mod5-v0_18", 0xea68_5469_0c53_bd0f),
    ("sabre", "adder_8q_149g_t2", 0x4c9c_ace2_6ffc_7ee4),
    ("sabre", "rand_10q_438g_t3", 0xcf8c_236d_52c3_e64c),
    ("mqth-astar", "4mod5-v0_18", 0xe61c_e109_942d_e95a),
    ("mqth-astar", "adder_8q_149g_t2", 0x3f88_1753_068e_5cc8),
    ("mqth-astar", "rand_10q_438g_t3", 0x77d8_d4c9_9f67_6173),
    ("tket", "4mod5-v0_18", 0xa114_aa2d_1fec_ee9c),
    ("tket", "adder_8q_149g_t2", 0x447b_e3ae_dbf7_3c16),
    ("tket", "rand_10q_438g_t3", 0x37a6_775b_fd73_4ec2),
];

fn digest(routed: &RoutedCircuit) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: usize| {
        for b in (word as u64).to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(routed.initial_map().len());
    routed.initial_map().iter().for_each(|&p| eat(p));
    for op in routed.ops() {
        match *op {
            RoutedOp::Logical(k) => {
                eat(0);
                eat(k);
            }
            RoutedOp::Swap(x, y) => {
                eat(1);
                eat(x);
                eat(y);
            }
        }
    }
    hash
}

#[test]
fn heuristic_routes_match_recorded_digests() {
    let suite = circuit::suite::suite();
    let graph = arch::devices::tokyo();
    let routers: [&dyn Router; 3] = [&Sabre::default(), &AStar::default(), &Tket::default()];
    let mut mismatches = Vec::new();
    for &(router_name, circuit_name, want) in &GOLDEN {
        assert!(CIRCUITS.contains(&circuit_name));
        let router = routers
            .iter()
            .find(|r| r.name() == router_name)
            .expect("known router");
        let circuit = &suite
            .iter()
            .find(|b| b.name == circuit_name)
            .expect("suite circuit")
            .circuit;
        let routed = router.route(circuit, &graph).expect("routes");
        circuit::verify::verify(circuit, &graph, &routed).expect("verifies");
        let got = digest(&routed);
        if got != want {
            mismatches.push(format!(
                "(\"{router_name}\", \"{circuit_name}\", {got:#018x}), swaps {}",
                routed.swap_count()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests differ:\n{}",
        mismatches.join("\n")
    );
}
