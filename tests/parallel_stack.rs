//! Cross-layer tests of how the stack uses cores: every request is solved
//! by one plain CDCL solver on the thread that routes it, so concurrent
//! requests do exactly the work sequential ones do; cooperative
//! cancellation reaches a solve on another thread through the
//! budget-inheritance chain; and the multi-core experiment runner's rows
//! and work counts do not depend on the job count.

use std::time::{Duration, Instant};

use circuit::{verify::verify, Circuit, RouteRequest, RouteSpec, Slicing};
use experiments::runner::{run_suite, run_tool};
use routers::RouterRegistry;
use sat::{CancelToken, DefaultBackend, Lit, ResourceBudget, SatBackend, SolveResult};

/// The paper's Fig. 3a running example.
fn fig3() -> Circuit {
    let mut c = Circuit::new(4);
    c.cx(0, 1);
    c.cx(0, 2);
    c.cx(3, 2);
    c.cx(0, 3);
    c
}

/// Small workloads spanning the suite's circuit families.
fn small_workloads() -> Vec<(String, Circuit)> {
    vec![
        ("fig3".into(), fig3()),
        ("qft4".into(), circuit::generators::qft(4)),
        ("graycode6".into(), circuit::generators::graycode(6)),
        (
            "random_local".into(),
            circuit::generators::random_local(5, 10, 4, 0.2, 1),
        ),
        ("ising6".into(), circuit::generators::ising_model(6, 1)),
    ]
}

#[test]
fn concurrent_routes_do_the_work_of_sequential_ones() {
    // Cores go to whole requests: routing the same requests on four
    // threads at once must reproduce the sequential answers and the exact
    // solver effort, for the sliced, monolithic and cyclic routers.
    let inputs = [
        (
            "nl-satmap",
            arch::devices::tokyo_minus(),
            Slicing::RouterDefault,
        ),
        ("satmap", arch::devices::tokyo(), Slicing::Sliced(4)),
        ("cyc-satmap", arch::devices::tokyo(), Slicing::Sliced(4)),
    ];
    let work = |o: &circuit::RouteOutcome| {
        let t = o.telemetry();
        (
            o.routed().map(|r| r.added_gates()),
            t.sat_calls,
            t.conflicts,
            t.decisions,
            t.propagations,
        )
    };
    for (router_name, graph, slicing) in inputs {
        let router = RouterRegistry::standard()
            .create(router_name)
            .expect("registered");
        let workloads = small_workloads();
        let route = |circuit: &Circuit| {
            router.route_request(&RouteRequest::new(circuit, &graph).with_slicing(slicing))
        };
        let sequential: Vec<_> = workloads.iter().map(|(_, c)| work(&route(c))).collect();
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = workloads
                .iter()
                .map(|(_, c)| s.spawn(move || work(&route(c))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("route thread"))
                .collect()
        });
        for ((name, _), (seq, conc)) in workloads.iter().zip(sequential.iter().zip(&concurrent)) {
            assert!(seq.0.is_some(), "{router_name}/{name}: solves");
            assert_eq!(seq, conc, "{router_name}/{name}: work depends on threading");
        }
    }
}

#[test]
fn core_guided_routing_costs_match_linear_requests() {
    // The same registry router serves the small workloads under the
    // linear and the core-guided strategy; both prove optimality
    // (unlimited budget), so the SWAP counts must be identical — the
    // strategy changes the route to the optimum, never the optimum. Each
    // request reports the strategy that ran.
    let graph = arch::devices::tokyo_minus();
    let router = RouterRegistry::standard()
        .create("nl-satmap")
        .expect("registered");
    for (name, circuit) in small_workloads() {
        let [linear, core] = [
            circuit::SearchStrategy::Linear,
            circuit::SearchStrategy::CoreGuided,
        ]
        .map(|strategy| {
            router.route_request(&RouteRequest::new(&circuit, &graph).with_strategy(strategy))
        });
        assert_eq!(linear.telemetry().strategy, Some("linear-sat-unsat"));
        assert_eq!(core.telemetry().strategy, Some("core-guided"));
        assert_eq!(core.diagnostic("strategy"), Some("core-guided"));
        let linear = linear
            .into_result()
            .unwrap_or_else(|e| panic!("{name}: linear failed: {e}"));
        let core = core
            .into_result()
            .unwrap_or_else(|e| panic!("{name}: core-guided failed: {e}"));
        verify(&circuit, &graph, &core).unwrap_or_else(|e| panic!("{name}: unverified: {e}"));
        assert_eq!(
            linear.added_gates(),
            core.added_gates(),
            "{name}: core-guided search must reproduce the optimal cost"
        );
    }
}

#[test]
fn core_guided_strategy_routes_the_fig3_example() {
    // The per-request strategy knob reaches the MaxSAT engine: a pure
    // core-guided route of the running example still verifies and reports
    // its strategy through the outcome telemetry and the JSON row.
    let graph = arch::devices::tokyo_minus();
    let router = RouterRegistry::standard()
        .create("nl-satmap")
        .expect("registered");
    let circuit = fig3();
    let outcome = router.route_request(
        &RouteRequest::new(&circuit, &graph).with_strategy(circuit::SearchStrategy::CoreGuided),
    );
    let routed = outcome.routed().expect("solves");
    verify(&circuit, &graph, routed).expect("verifies");
    assert_eq!(routed.swap_count(), 1, "fig3 optimum");
    assert_eq!(outcome.telemetry().strategy, Some("core-guided"));
    assert!(outcome.to_json().contains("\"strategy\":\"core-guided\""));
}

/// Hard pigeonhole clauses: would run far longer than any test timeout.
fn load_pigeonhole<B: SatBackend>(backend: &mut B, pigeons: usize, holes: usize) {
    backend.reserve_vars(pigeons * holes);
    let var = |p: usize, h: usize| Lit::from_dimacs((p * holes + h + 1) as i64);
    for p in 0..pigeons {
        let row: Vec<Lit> = (0..holes).map(|h| var(p, h)).collect();
        backend.add_clause(&row);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                backend.add_clause(&[!var(p1, h), !var(p2, h)]);
            }
        }
    }
}

#[test]
fn cancellation_kills_workers_mid_search_without_panic() {
    // Stress: repeatedly kill a solve running on a worker thread (as the
    // daemon's `abort` verb does) from another thread; every round must
    // come back Unknown promptly, leave no panic, and still charge the
    // effort spent to the solver's statistics.
    let started = Instant::now();
    for round in 0..5u64 {
        let mut solver = DefaultBackend::default();
        load_pigeonhole(&mut solver, 10, 9);
        let (budget, token) = ResourceBudget::unlimited().cancellable();
        let stats = std::thread::scope(|s| {
            let worker = s.spawn(move || {
                let r = solver.solve_under_assumptions(&[], &budget);
                assert_eq!(r, SolveResult::Unknown, "round {round}: cancel must win");
                *solver.stats()
            });
            std::thread::sleep(Duration::from_millis(10 + 7 * round));
            token.cancel();
            worker.join().expect("worker must not panic")
        });
        assert!(
            stats.decisions > 0 || stats.propagations > 0,
            "round {round}: a killed solve must still charge telemetry"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cancellation must cut each solve to ~the kill delay"
    );
}

#[test]
fn child_worker_cannot_outlive_parent_budget() {
    // The worker's budget is a child of the caller's: cancelling the
    // *parent* (as an experiment sweep teardown would) must stop the
    // worker's solve, even though the worker armed its own child budget.
    let (parent, parent_token) = ResourceBudget::unlimited().cancellable();
    let (child, _child_token) = parent.cancellable();
    let mut solver = DefaultBackend::default();
    load_pigeonhole(&mut solver, 10, 9);
    let started = Instant::now();
    std::thread::scope(|s| {
        let worker = s.spawn(move || solver.solve_under_assumptions(&[], &child));
        std::thread::sleep(Duration::from_millis(30));
        parent_token.cancel();
        assert_eq!(worker.join().expect("worker"), SolveResult::Unknown);
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the worker's solve outlived the cancelled ancestor budget"
    );
}

#[test]
fn cancel_token_reaches_a_plain_solver_deep_in_the_chain() {
    // Any solver armed with a descendant budget stops when an ancestor
    // token fires, regardless of nesting depth.
    let mut solver = DefaultBackend::default();
    load_pigeonhole(&mut solver, 10, 9);
    let (root, token) = ResourceBudget::unlimited().cancellable();
    let deep = root
        .limit_time(Duration::from_secs(3600))
        .arm()
        .limit_time(Duration::from_secs(1800))
        .arm();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        });
        let started = Instant::now();
        let r = solver.solve_under_assumptions(&[], &deep);
        assert_eq!(r, SolveResult::Unknown);
        assert!(started.elapsed() < Duration::from_secs(30));
    });
}

#[test]
fn routing_telemetry_carries_arena_fields() {
    // The arena counters must flow through maxsat into RouteOutcome and
    // its JSON row — the schema the experiment sweeps and
    // BENCH_satmap.json share.
    let graph = arch::devices::tokyo_minus();
    let router = RouterRegistry::standard()
        .create("nl-satmap")
        .expect("registered");
    let circuit = fig3();
    let request = RouteRequest::new(&circuit, &graph);
    let outcome = router.route_request(&request);
    assert!(outcome.solved(), "fig3 routes");
    assert!(
        outcome.telemetry().arena_bytes > 0,
        "solver arena footprint must reach routing telemetry: {}",
        outcome.telemetry()
    );
    let json = outcome.to_json();
    for key in ["\"compactions\":", "\"arena_bytes\":"] {
        assert!(json.contains(key), "row schema must carry {key}: {json}");
    }
}

#[test]
fn jobs_4_runner_rows_match_jobs_1() {
    // The acceptance criterion behind `--jobs N`: outputs are order-stable
    // and solution-identical for any job count (wall-clock columns aside,
    // which no fixed schedule could pin down), and since every request
    // solves on one thread, the solver work behind each row is identical
    // too.
    let suite: Vec<circuit::suite::Benchmark> = small_workloads()
        .into_iter()
        .map(|(name, circuit)| circuit::suite::Benchmark { name, circuit })
        .collect();
    let graph = arch::devices::tokyo();
    for (router_name, slicing) in [
        ("satmap", Slicing::Sliced(4)),
        ("nl-satmap", Slicing::RouterDefault),
    ] {
        let spec = RouteSpec {
            slicing,
            ..RouteSpec::default()
        };
        let router = RouterRegistry::standard()
            .create(router_name)
            .expect("registered");
        let serial = run_suite(&*router, &suite, &graph, &spec, 1);
        let parallel = run_suite(&*router, &suite, &graph, &spec, 4);
        let rows = |outcomes: &[experiments::runner::RunOutcome]| -> Vec<String> {
            outcomes
                .iter()
                .map(|o| {
                    let t = &o.telemetry;
                    format!(
                        "{}|{}|{:?}|{:?}|sat_calls={}|conflicts={}|decisions={}|propagations={}",
                        o.name,
                        o.size,
                        o.cost,
                        o.error,
                        t.sat_calls,
                        t.conflicts,
                        t.decisions,
                        t.propagations
                    )
                })
                .collect()
        };
        assert_eq!(
            rows(&serial),
            rows(&parallel),
            "{router_name}: --jobs 4 must reproduce --jobs 1 (timing aside)"
        );
        // And the parallel path agrees with the plain single-instance API.
        for (bench, row) in suite.iter().zip(&parallel) {
            let direct = run_tool(&*router, bench, &graph, &spec);
            assert_eq!(direct.cost, row.cost, "{router_name}/{}", bench.name);
        }
    }
}

#[test]
fn cancel_token_chain_is_shared_not_copied() {
    // Guard against a regression to `Copy` semantics: cloning a budget
    // must share the token, not snapshot it.
    let token = CancelToken::new();
    let a = ResourceBudget::unlimited().with_cancel(token.clone());
    let b = a.clone().limit_time(Duration::from_secs(5)).arm();
    token.cancel();
    assert!(a.expired());
    assert!(b.expired(), "derived budgets observe the same token");
}
