//! Chaos suite: seeded fault injection against the routing supervisor.
//!
//! Every scenario installs a deterministic [`FaultPlan`] (spurious
//! cancellations, artificial slowdowns, panics) under the supervisor's SAT
//! stack and checks the soundness contract end to end:
//!
//! * every request returns an outcome — solved or a typed failure, never a
//!   process panic;
//! * any outcome stamped `Optimal` or `WarmRetry` has exactly the
//!   fault-free cost (faults may slow the search or force retries, but a
//!   proven answer is never silently wrong);
//! * `Degraded` outcomes still verify as valid routings.
//!
//! Tests that install the global fault plan are serialized behind a mutex
//! and restore the previous plan on exit (even on assertion failure), so
//! they compose with the rest of the test binary.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use circuit::verify::verify;
use circuit::{Circuit, RouteQuality, RouteRequest};
use proptest::prelude::*;
use routers::{RoutePolicy, RouteSupervisor, RouterRegistry};
use sat::chaos::{install_plan, silence_panic_reports};
use sat::{ChaosBackend, DefaultBackend, FaultPlan};

/// The supervised SAT stack with fault injection at the solver boundary.
type ChaosStack = ChaosBackend<DefaultBackend>;

/// Serializes every test that touches the process-global fault plan.
static PLAN_GUARD: Mutex<()> = Mutex::new(());

/// Restores the previously installed plan when dropped, so a failing
/// assertion cannot leak faults into unrelated tests.
struct PlanScope {
    prev: Option<FaultPlan>,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        install_plan(self.prev.take());
    }
}

fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    let lock = PLAN_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    silence_panic_reports();
    let _scope = PlanScope {
        prev: install_plan(Some(plan)),
        _lock: lock,
    };
    f()
}

/// Policy tuned for test wall-clock: tight backoffs, the standard ladder.
fn test_policy() -> RoutePolicy {
    RoutePolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RoutePolicy::default()
    }
}

fn chaos_supervisor() -> RouteSupervisor<ChaosStack> {
    RouteSupervisor::with_registry_and_policy(RouterRegistry::standard(), test_policy())
}

fn fig3() -> (Circuit, arch::ConnectivityGraph) {
    let mut c = Circuit::new(4);
    c.cx(0, 1);
    c.cx(0, 2);
    c.cx(3, 2);
    c.cx(0, 3);
    (
        c,
        arch::ConnectivityGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    )
}

/// Fault-free optimal swap count (computed on the plain backend, no chaos
/// in the stack, before any plan is installed).
fn baseline_swaps(c: &Circuit, g: &arch::ConnectivityGraph) -> usize {
    let supervisor = RouteSupervisor::new();
    let out = supervisor
        .route("nl-satmap", &RouteRequest::new(c, g))
        .expect("known router");
    assert_eq!(
        out.quality(),
        RouteQuality::Optimal,
        "baseline must be fault-free optimal"
    );
    out.routed().expect("baseline solves").swap_count()
}

/// One seeded scenario: route under the installed faults and check the
/// soundness contract against the fault-free baseline.
fn run_scenario(c: &Circuit, g: &arch::ConnectivityGraph, baseline: usize, plan: FaultPlan) {
    with_plan(plan, || {
        let supervisor = chaos_supervisor();
        let request = RouteRequest::new(c, g).with_budget(Duration::from_secs(10));
        let out = supervisor
            .route("nl-satmap", &request)
            .expect("known router");
        assert!(out.attempts() >= 1);
        match out.routed() {
            Some(routed) => {
                verify(c, g, routed).expect("chaos outcome verifies");
                match out.quality() {
                    RouteQuality::Optimal | RouteQuality::WarmRetry(_) => assert_eq!(
                        routed.swap_count(),
                        baseline,
                        "proven outcome must be cost-correct (quality {})",
                        out.quality()
                    ),
                    // Degraded answers may cost more — they say so.
                    RouteQuality::Degraded => {}
                }
            }
            // Typed failure: allowed (the enum is the contract); with the
            // sabre fallback configured it should be rare.
            None => assert!(out.error().is_some()),
        }
    });
}

#[test]
fn sixty_four_seeded_fault_scenarios_stay_sound() {
    let (fig, line) = fig3();
    let tokyo_minus = arch::devices::tokyo_minus();
    let rand4 = circuit::generators::random_local(4, 5, 3, 0.1, 11);
    let linear4 = arch::devices::linear(4);
    let rand5 = circuit::generators::random_local(5, 7, 3, 0.1, 23);
    let fixtures: Vec<(&Circuit, &arch::ConnectivityGraph)> = vec![
        (&fig, &line),
        (&fig, &tokyo_minus),
        (&rand4, &linear4),
        (&rand5, &tokyo_minus),
    ];
    let mut scenarios = 0u64;
    for (c, g) in fixtures {
        let baseline = baseline_swaps(c, g);
        for _ in 0..16u64 {
            scenarios += 1;
            let seed = 0x00C0_FFEE ^ scenarios.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let plan = FaultPlan::seeded(seed)
                .cancel_prob(0.35)
                .panic_prob(0.20)
                .delay_with(0.25, Duration::from_micros(200));
            run_scenario(c, g, baseline, plan);
        }
    }
    assert!(scenarios >= 64, "acceptance floor: got {scenarios}");
}

#[test]
fn certain_panics_are_counted_on_the_fallback_outcome() {
    // Every SAT call panics, so every attempt of the ladder panics and is
    // caught; the heuristic fallback answers, and its outcome must count
    // each caught panic, not just the last attempt's.
    let (c, g) = fig3();
    with_plan(FaultPlan::seeded(7).panic_prob(1.0), || {
        let supervisor = chaos_supervisor();
        let request = RouteRequest::new(&c, &g).with_budget(Duration::from_secs(10));
        for router in ["nl-satmap", "satmap"] {
            let out = supervisor.route(router, &request).expect("known router");
            assert!(out.solved(), "{router}: fallback must deliver");
            assert_eq!(out.quality(), RouteQuality::Degraded, "{router}");
            verify(&c, &g, out.routed().expect("solved")).expect("verifies");
            let max_attempts = test_policy().max_attempts;
            assert_eq!(out.attempts(), max_attempts, "{router}");
            assert_eq!(
                out.telemetry().worker_panics,
                u64::from(max_attempts),
                "{router}: every panicked attempt is counted: {}",
                out.telemetry()
            );
        }
    });
}

#[test]
fn certain_cancellation_still_returns_a_usable_outcome() {
    // Every SAT call is cancelled: no attempt can ever prove anything, so
    // the ladder must exhaust and degrade to the heuristic fallback.
    let (c, g) = fig3();
    let plan = FaultPlan::seeded(3).cancel_prob(1.0);
    with_plan(plan, || {
        let supervisor = chaos_supervisor();
        let request = RouteRequest::new(&c, &g).with_budget(Duration::from_secs(2));
        let out = supervisor
            .route("nl-satmap", &request)
            .expect("known router");
        assert!(out.solved(), "fallback must deliver");
        assert_eq!(out.quality(), RouteQuality::Degraded);
        assert_eq!(out.attempts(), test_policy().max_attempts);
        verify(&c, &g, out.routed().expect("solved")).expect("verifies");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random circuits × random seeded fault plans: an outcome always
    /// comes back, no panic escapes, and proven outcomes are cost-correct.
    #[test]
    fn random_circuits_survive_random_faults(
        qubits in 4usize..=5,
        gates in 3usize..=7,
        circuit_seed in 0u64..1_000,
        fault_seed in 0u64..u64::MAX,
        cancel_pct in 0u32..60,
        panic_pct in 0u32..40,
    ) {
        let c = circuit::generators::random_local(qubits, gates, 3, 0.1, circuit_seed);
        let g = arch::devices::linear(qubits);
        let baseline = baseline_swaps(&c, &g);
        let plan = FaultPlan::seeded(fault_seed)
            .cancel_prob(f64::from(cancel_pct) / 100.0)
            .panic_prob(f64::from(panic_pct) / 100.0)
            .delay_with(0.2, Duration::from_micros(100));
        run_scenario(&c, &g, baseline, plan);
    }
}
