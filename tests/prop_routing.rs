//! Property tests across the whole stack: random circuits on random
//! devices route and verify with every router, and the exact solvers'
//! costs are mutually consistent.

use proptest::prelude::*;

use circuit::{
    verify::verify, Circuit, Objective, RouteRequest, RoutedCircuit, RoutedOp, Router,
    SearchStrategy,
};
use heuristics::{Sabre, Tket};
use satmap::{SatMap, SatMapConfig};

/// Strategy: a random circuit over `n` qubits with up to `max_gates`
/// two-qubit gates plus sprinkled single-qubit gates.
fn circuit_strategy(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec((0..n, 0..n, prop::bool::ANY), 1..=max_gates).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for (a, b, with_h) in specs {
            if a != b {
                c.cx(a, b);
            }
            if with_h {
                c.h(a);
            }
        }
        c
    })
}

/// The fidelity encoding's exact quantized objective: the sum of
/// `NoiseModel::fidelity_weight` over inserted SWAPs and executed
/// two-qubit gates. Two proven-optimal routings must agree on this
/// integer even when their float log-infidelities collide in the last
/// bits or the optima place gates differently.
fn quantized_infidelity(routed: &RoutedCircuit, source: &Circuit, noise: &arch::NoiseModel) -> u64 {
    let mut map = routed.initial_map().to_vec();
    let mut total = 0u64;
    for op in routed.ops() {
        match op {
            RoutedOp::Swap(a, b) => {
                if a != b {
                    total += arch::NoiseModel::fidelity_weight(noise.swap_fidelity(*a, *b));
                    for m in map.iter_mut() {
                        if *m == *a {
                            *m = *b;
                        } else if *m == *b {
                            *m = *a;
                        }
                    }
                }
            }
            RoutedOp::Logical(k) => {
                if let circuit::Gate::Two { a, b, .. } = &source.gates()[*k] {
                    total +=
                        arch::NoiseModel::fidelity_weight(noise.cx_fidelity(map[a.0], map[b.0]));
                }
            }
        }
    }
    total
}

fn devices() -> Vec<arch::ConnectivityGraph> {
    vec![
        arch::devices::linear(6),
        arch::devices::ring(6),
        arch::devices::grid(2, 3),
        arch::devices::tokyo_minus(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn heuristics_always_produce_verified_solutions(
        c in circuit_strategy(6, 12),
        device_idx in 0usize..4,
    ) {
        let graph = &devices()[device_idx];
        for router in [Box::new(Sabre::default()) as Box<dyn Router>, Box::new(Tket::default())] {
            let routed = router.route(&c, graph);
            let routed = routed.expect("heuristics are total on connected devices");
            prop_assert!(verify(&c, graph, &routed).is_ok(),
                "{} produced an invalid routing", router.name());
        }
    }

    #[test]
    fn sliced_satmap_verified_and_bounded_below_by_monolithic(
        c in circuit_strategy(5, 8),
    ) {
        let graph = arch::devices::grid(2, 3);
        let mono = SatMap::new(SatMapConfig::monolithic()).route(&c, &graph);
        let sliced = SatMap::new(SatMapConfig::sliced(2)).route(&c, &graph);
        if let Ok(m) = &mono {
            prop_assert!(verify(&c, &graph, m).is_ok());
            if let Ok(s) = &sliced {
                prop_assert!(verify(&c, &graph, s).is_ok());
                // Local optimality can cost extra swaps but never beats the
                // global optimum.
                prop_assert!(s.swap_count() >= m.swap_count(),
                    "sliced {} < monolithic {}", s.swap_count(), m.swap_count());
            }
        }
    }

    #[test]
    fn dispatched_route_costs_match_forced_serial_linear(
        c in circuit_strategy(4, 6),
        weighted in prop::bool::ANY,
    ) {
        // The default (`Auto`) request runs core-guided search; both
        // requests prove optimality under an unlimited budget, so its
        // objective value must match a forced linear solve exactly —
        // weighted and unweighted alike.
        let graph = arch::devices::ring(4);
        let router = SatMap::new(SatMapConfig::monolithic());
        let objective = if weighted {
            Objective::Fidelity(arch::NoiseModel::synthetic(&graph, 7))
        } else {
            Objective::SwapCount
        };
        let dispatched = router.route_request(
            &RouteRequest::new(&c, &graph)
                .with_objective(objective.clone())
                .with_strategy(SearchStrategy::Auto),
        );
        let forced = router.route_request(
            &RouteRequest::new(&c, &graph)
                .with_objective(objective.clone())
                .with_strategy(SearchStrategy::Linear),
        );
        let d = dispatched.routed().expect("default request solves");
        let f = forced.routed().expect("forced request solves");
        prop_assert!(verify(&c, &graph, d).is_ok());
        prop_assert!(verify(&c, &graph, f).is_ok());
        match &objective {
            Objective::Fidelity(noise) => prop_assert_eq!(
                quantized_infidelity(d, &c, noise),
                quantized_infidelity(f, &c, noise),
                "the default search changed the weighted optimum"
            ),
            Objective::SwapCount => prop_assert_eq!(
                d.added_gates(),
                f.added_gates(),
                "the default search changed the swap optimum"
            ),
        }
    }

    #[test]
    fn satmap_cost_lower_bounds_heuristics(c in circuit_strategy(5, 6)) {
        let graph = arch::devices::tokyo_minus();
        let opt = SatMap::new(SatMapConfig::monolithic())
            .route(&c, &graph)
            .expect("small instances solve");
        prop_assert!(verify(&c, &graph, &opt).is_ok());
        let heuristic = Tket::default().route(&c, &graph).expect("tket is total");
        prop_assert!(opt.swap_count() <= heuristic.swap_count());
    }
}
