//! Property tests for the warm-start machinery: a cache hit must replay
//! the cold answer exactly, and a warm-started re-solve must land on the
//! same optimal cost as a cold solve — across random small circuits and
//! one-gate mutations of them.

use circuit::{Circuit, RouteRequest, Router, SearchStrategy};
use proptest::prelude::*;
use routers::RouteCache;
use satmap::{SatMap, SatMapConfig};
use std::time::Duration;

/// A small circuit from a proptest-drawn gate list, clamped onto `n`
/// qubits (mirrors the clamp-lit idiom of the maxsat strategy proptests:
/// arbitrary integers in, always-valid structures out).
fn build_circuit(n: usize, gates: &[(u8, u8)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(a, b) in gates {
        let a = a as usize % n;
        let mut b = b as usize % n;
        if a == b {
            b = (b + 1) % n;
        }
        c.cx(a, b);
    }
    c
}

fn line4() -> arch::ConnectivityGraph {
    arch::ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
}

fn swaps(outcome: &circuit::RouteOutcome) -> usize {
    outcome
        .routed()
        .expect("small instances solve")
        .swap_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit replays the memoized outcome byte-for-byte where it
    /// matters: same solvedness, same swap count, same telemetry counters
    /// — only the `cache_hit` stamp differs.
    #[test]
    fn cache_hit_replays_the_cold_outcome(
        gates in prop::collection::vec((0u8..=255, 0u8..=255), 1..8),
    ) {
        let c = build_circuit(4, &gates);
        let g = line4();
        let cache = RouteCache::default();
        let request = RouteRequest::new(&c, &g);
        let cold = cache.route("nl-satmap", &request).expect("known name");
        let hit = cache.route("nl-satmap", &request).expect("known name");
        prop_assert!(cold.solved());
        prop_assert!(!cold.telemetry().cache_hit);
        prop_assert!(hit.telemetry().cache_hit);
        prop_assert_eq!(swaps(&hit), swaps(&cold));
        prop_assert_eq!(hit.telemetry().sat_calls, cold.telemetry().sat_calls);
        prop_assert_eq!(hit.telemetry().warm_start, cold.telemetry().warm_start);
    }

    /// Warm-starting from a prior session reaches the same optimal swap
    /// count a cold solve reaches, for both search strategies — the
    /// observable face of the conservative-extension argument.
    #[test]
    fn warm_resolve_matches_the_cold_optimum(
        gates in prop::collection::vec((0u8..=255, 0u8..=255), 1..8),
        core_guided in prop::bool::ANY,
    ) {
        let c = build_circuit(4, &gates);
        let g = line4();
        let strategy = if core_guided {
            SearchStrategy::CoreGuided
        } else {
            SearchStrategy::Linear
        };
        let router = SatMap::new(SatMapConfig::monolithic());
        let request = RouteRequest::new(&c, &g)
            .with_budget(Duration::from_secs(30))
            .with_strategy(strategy);
        let cold = router.route_request(&request);
        prop_assert!(cold.solved());

        let mut slot = None;
        let first = router.route_with_session(&request, &mut slot);
        let warm = router.route_with_session(&request, &mut slot);
        prop_assert!(!first.telemetry().warm_start);
        prop_assert!(warm.telemetry().warm_start);
        prop_assert!(warm.telemetry().reused_clauses > 0);
        prop_assert_eq!(swaps(&first), swaps(&cold));
        prop_assert_eq!(swaps(&warm), swaps(&cold));
    }

    /// Mutating one gate changes the fingerprint: the session slot
    /// re-encodes cold for the mutant and lands on the same optimum a
    /// fresh solve of the mutant finds; a second solve of the mutant then
    /// warm-starts and agrees again.
    #[test]
    fn one_gate_mutation_reencodes_then_warms_to_the_same_optimum(
        gates in prop::collection::vec((0u8..=255, 0u8..=255), 2..8),
        mutation in (0u8..=255, 0u8..=255),
    ) {
        let base = build_circuit(4, &gates);
        let mut mutated_gates = gates.clone();
        let last = mutated_gates.len() - 1;
        mutated_gates[last] = mutation;
        let mutant = build_circuit(4, &mutated_gates);
        let g = line4();
        let router = SatMap::new(SatMapConfig::monolithic());

        let mut slot = None;
        let _ = router.route_with_session(&RouteRequest::new(&base, &g), &mut slot);
        let request = RouteRequest::new(&mutant, &g);
        let fresh = router.route_request(&request);
        let via_slot = router.route_with_session(&request, &mut slot);
        prop_assert!(fresh.solved());
        // The drawn mutation can collide with the original gate (clamping
        // is modular), in which case the fingerprint — and so the warm
        // path — is legitimately reused.
        prop_assert_eq!(via_slot.telemetry().warm_start, mutant == base);
        prop_assert_eq!(swaps(&via_slot), swaps(&fresh));

        let warm = router.route_with_session(&request, &mut slot);
        prop_assert!(warm.telemetry().warm_start);
        prop_assert_eq!(swaps(&warm), swaps(&fresh));
    }
}
