//! Cross-layer tests of the parallel solving subsystem: request-time
//! portfolio sizing against serial solving on the paper's workloads,
//! cooperative cancellation through the budget-inheritance chain, and the
//! multi-core experiment runner's determinism.

use std::time::{Duration, Instant};

use circuit::{verify::verify, Circuit, Parallelism, RouteRequest, RouteSpec, Slicing};
use experiments::runner::{run_suite, run_tool};
use routers::RouterRegistry;
use sat::{
    CancelToken, DefaultBackend, Lit, PortfolioBackend, ResourceBudget, SatBackend, SolveResult,
};

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
fn portfolio_routing_costs_match_serial_requests() {
    // The same registry router serves a serial and a 4-wide-portfolio
    // request. Monolithic routes solve to optimality (unlimited budget),
    // so the SWAP counts must be identical: the portfolio changes the
    // wall-clock route to the optimum, never the optimum itself. Sliced
    // routes pin each slice to the previous slice's final map, and a
    // slice's optimum is rarely unique — so they solve every slice on one
    // worker whatever the request asks, and must match serial too. The
    // cyclic router slices and then restores the initial map, the same
    // per-slice pinning on a second path.
    let inputs = [
        (
            "nl-satmap",
            arch::devices::tokyo_minus(),
            Slicing::RouterDefault,
        ),
        ("satmap", arch::devices::tokyo(), Slicing::Sliced(4)),
        ("cyc-satmap", arch::devices::tokyo(), Slicing::Sliced(4)),
    ];
    for (router_name, graph, slicing) in inputs {
        let router = RouterRegistry::standard()
            .create(router_name)
            .expect("registered");
        for (name, circuit) in small_workloads() {
            let name = format!("{router_name}/{name}");
            let request = RouteRequest::new(&circuit, &graph).with_slicing(slicing);
            let serial = router
                .route_request(&request.clone().with_parallelism(Parallelism::Serial))
                .into_result()
                .unwrap_or_else(|e| panic!("{name}: serial failed: {e}"));
            let wide = router
                .route_request(&request.with_parallelism(Parallelism::Width(4)))
                .into_result()
                .unwrap_or_else(|e| panic!("{name}: portfolio failed: {e}"));
            verify(&circuit, &graph, &wide).unwrap_or_else(|e| panic!("{name}: unverified: {e}"));
            assert_eq!(
                serial.added_gates(),
                wide.added_gates(),
                "{name}: portfolio must reproduce the serial cost"
            );
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
    assert!(outcome.to_json().contains("\"clauses_imported\":"));
}

#[test]
fn portfolio_telemetry_reports_winner_through_the_stack() {
    let graph = arch::devices::tokyo_minus();
    let router = RouterRegistry::standard()
        .create("nl-satmap")
        .expect("registered");
    let circuit = fig3();
    let request = RouteRequest::new(&circuit, &graph).with_parallelism(Parallelism::Width(4));
    let outcome = router.route_request(&request);
    assert!(outcome.solved(), "fig3 routes");
    assert!(outcome.telemetry().sat_calls > 0);
    assert!(
        outcome.telemetry().winning_worker.is_some(),
        "the winning worker index must flow up into telemetry: {}",
        outcome.telemetry()
    );
    assert_eq!(outcome.diagnostic("portfolio_width"), Some("4"));
}

#[test]
fn auto_race_on_fig3_dispatches_one_linear_worker_without_sharing() {
    // Dispatch regression: a fig3-sized request under the `Auto` hints
    // (parallelism and strategy) must resolve to a width-1 linear plan
    // that exchanges no clauses — the bench data says the parallel
    // machinery loses on instances this small, and the decision must be
    // visible in telemetry and the JSON row.
    let graph = arch::devices::tokyo_minus();
    let router = RouterRegistry::standard()
        .create("nl-satmap")
        .expect("registered");
    let circuit = fig3();
    let outcome = router.route_request(
        &RouteRequest::new(&circuit, &graph)
            .with_parallelism(Parallelism::Auto)
            .with_strategy(circuit::SearchStrategy::Auto),
    );
    let routed = outcome.routed().expect("solves");
    verify(&circuit, &graph, routed).expect("verifies");
    assert_eq!(routed.swap_count(), 1, "fig3 optimum");
    let t = outcome.telemetry();
    assert_eq!(t.dispatch_width, 1, "small instances stay width 1");
    assert_eq!(t.strategy, Some("linear-sat-unsat"), "unweighted: linear");
    assert_eq!(
        (t.clauses_exported, t.clauses_imported),
        (0, 0),
        "no exchange for a lone worker"
    );
    assert!(
        t.dispatch_hardness > 0 && t.dispatch_hardness < maxsat::dispatch::SMALL_INSTANCE,
        "fig3 sits below the small-instance gate, got {}",
        t.dispatch_hardness
    );
    let row = outcome.to_json();
    assert!(row.contains("\"dispatch_width\":1"), "{row}");
    assert!(row.contains("\"strategy\":\"linear-sat-unsat\""), "{row}");
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
    // Stress: repeatedly kill a racing portfolio mid-search from another
    // thread; every round must come back Unknown promptly, leave no panic,
    // and still charge the effort spent to the merged statistics.
    let started = Instant::now();
    for round in 0..5u64 {
        let mut p = PortfolioBackend::<DefaultBackend>::with_width(3);
        load_pigeonhole(&mut p, 10, 9);
        let (budget, token) = ResourceBudget::unlimited().cancellable();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10 + 7 * round));
                token.cancel();
            });
            let r = p.solve_under_assumptions(&[], &budget);
            assert_eq!(r, SolveResult::Unknown, "round {round}: cancel must win");
        });
        assert!(
            p.stats().decisions > 0 || p.stats().propagations > 0,
            "round {round}: killed workers must still charge telemetry"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cancellation must cut each race to ~the kill delay"
    );
}

#[test]
fn child_worker_cannot_outlive_parent_budget() {
    // The race token is a child of the caller's token: cancelling the
    // *parent* (as an experiment sweep teardown would) must stop the whole
    // portfolio, even though each worker armed its own child budget.
    let (parent, parent_token) = ResourceBudget::unlimited().cancellable();
    let (child, _child_token) = parent.cancellable();
    let mut p = PortfolioBackend::<DefaultBackend>::with_width(2);
    load_pigeonhole(&mut p, 10, 9);
    let started = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            parent_token.cancel();
        });
        let r = p.solve_under_assumptions(&[], &child);
        assert_eq!(r, SolveResult::Unknown);
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "grandchild workers outlived the cancelled ancestor budget"
    );
}

#[test]
fn cancel_token_reaches_a_plain_solver_deep_in_the_chain() {
    // Not just portfolios: any solver armed with a descendant budget stops
    // when an ancestor token fires, regardless of nesting depth.
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
fn sharing_portfolio_maxsat_costs_match_serial_backend() {
    // The acceptance bar for clause sharing: a width-4 sharing portfolio
    // driven by the MaxSAT engine must land on exactly the optimal costs
    // the serial backend proves, across weighted instances. (Sharing is on
    // by default, so the width-4 path here races cooperating workers.)
    use maxsat::{solve_with_options, MaxSatStatus, SolveOptions, WcnfInstance};

    let build_instances = || -> Vec<WcnfInstance> {
        let mut instances = Vec::new();
        // Weighted choice chain.
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        let c = inst.new_var().positive();
        inst.add_hard([a, b]);
        inst.add_hard([!a, c]);
        inst.add_soft(5, [!a]);
        inst.add_soft(2, [!b]);
        inst.add_soft(1, [!c]);
        instances.push(inst);
        // Pigeonhole-flavoured: every pigeon placed softly, holes exclusive.
        let mut php = WcnfInstance::new();
        let vars: Vec<_> = (0..6).map(|_| php.new_var().positive()).collect();
        for p in 0..3 {
            php.add_soft(1 + p as u64, [vars[2 * p], vars[2 * p + 1]]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    php.add_hard([!vars[2 * p1 + h], !vars[2 * p2 + h]]);
                }
            }
        }
        instances.push(php);
        instances
    };

    for (i, inst) in build_instances().into_iter().enumerate() {
        let serial = maxsat::solve(&inst, ResourceBudget::unlimited());
        let portfolio = solve_with_options::<PortfolioBackend<DefaultBackend>>(
            &inst,
            &ResourceBudget::unlimited(),
            &SolveOptions::default().with_portfolio_width(4),
        );
        assert_eq!(serial.status, portfolio.status, "instance {i}");
        assert_eq!(
            serial.cost, portfolio.cost,
            "instance {i}: sharing portfolio must reproduce the serial optimum"
        );
        if serial.status == MaxSatStatus::Optimal {
            let model = portfolio.model.expect("optimal outcome has a model");
            assert_eq!(inst.cost_of(&model), portfolio.cost, "instance {i}");
        }
    }
}

#[test]
fn sharing_on_and_off_portfolios_agree_and_cooperate() {
    // Same hard UNSAT race with sharing on and off: identical answers,
    // and the sharing side must actually move clauses (nonzero imports).
    // PHP(7,6) sits below the default sharing size gate, so the sharing
    // side opens it explicitly — the override the gate documents.
    let mut with_sharing = PortfolioBackend::<DefaultBackend>::with_width(4);
    with_sharing.set_sharing_min_instance_size(0);
    load_pigeonhole(&mut with_sharing, 7, 6);
    let mut without = PortfolioBackend::<DefaultBackend>::with_width(4);
    without.set_sharing(false);
    load_pigeonhole(&mut without, 7, 6);
    let unlimited = ResourceBudget::unlimited();
    assert_eq!(
        with_sharing.solve_under_assumptions(&[], &unlimited),
        SolveResult::Unsat
    );
    assert_eq!(
        without.solve_under_assumptions(&[], &unlimited),
        SolveResult::Unsat
    );
    assert!(
        with_sharing.stats().clauses_imported > 0,
        "sharing race must import peer clauses: {}",
        with_sharing.stats()
    );
    assert_eq!(
        without.stats().clauses_imported,
        0,
        "sharing off must not import"
    );
}

#[test]
fn routing_telemetry_carries_arena_and_sharing_fields() {
    // The new counters must flow through maxsat into RouteOutcome and its
    // JSON row — the schema the experiment sweeps and BENCH_satmap.json
    // share.
    let graph = arch::devices::tokyo_minus();
    let router = RouterRegistry::standard()
        .create("nl-satmap")
        .expect("registered");
    let circuit = fig3();
    let request = RouteRequest::new(&circuit, &graph).with_parallelism(Parallelism::Width(2));
    let outcome = router.route_request(&request);
    assert!(outcome.solved(), "fig3 routes");
    assert!(
        outcome.telemetry().arena_bytes > 0,
        "solver arena footprint must reach routing telemetry: {}",
        outcome.telemetry()
    );
    let json = outcome.to_json();
    for key in [
        "\"clauses_exported\":",
        "\"clauses_imported\":",
        "\"compactions\":",
        "\"arena_bytes\":",
    ] {
        assert!(json.contains(key), "row schema must carry {key}: {json}");
    }
}

#[test]
fn diversified_workers_agree_on_unsat() {
    // Diversification changes the search order, never the answer.
    for n in 0..5usize {
        let mut s = sat::Solver::with_config(sat::SolverConfig::diversified(n));
        load_pigeonhole(&mut s, 4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat, "worker {n} preset");
    }
}

#[test]
fn jobs_4_runner_rows_match_jobs_1() {
    // The acceptance criterion behind `--jobs N`: outputs are order-stable
    // and solution-identical for any job count (wall-clock columns aside,
    // which no fixed schedule could pin down).
    let suite: Vec<circuit::suite::Benchmark> = small_workloads()
        .into_iter()
        .map(|(name, circuit)| circuit::suite::Benchmark { name, circuit })
        .collect();
    let graph = arch::devices::tokyo();
    let router = RouterRegistry::standard()
        .create("satmap")
        .expect("registered");
    let spec = RouteSpec {
        slicing: Slicing::Sliced(4),
        // Auto resolves against the job count inside run_suite — the
        // budget-aware portfolio sizing under test here.
        parallelism: Parallelism::Auto,
        ..RouteSpec::default()
    };
    let serial = run_suite(&*router, &suite, &graph, &spec, 1);
    let parallel = run_suite(&*router, &suite, &graph, &spec, 4);
    let rows = |outcomes: &[experiments::runner::RunOutcome]| -> Vec<String> {
        outcomes
            .iter()
            .map(|o| format!("{}|{}|{:?}|{:?}", o.name, o.size, o.cost, o.error))
            .collect()
    };
    assert_eq!(
        rows(&serial),
        rows(&parallel),
        "--jobs 4 must reproduce --jobs 1 byte-for-byte (timing aside)"
    );
    // And the parallel path agrees with the plain single-instance API.
    for (bench, row) in suite.iter().zip(&parallel) {
        let direct = run_tool(&*router, bench, &graph, &spec);
        assert_eq!(direct.cost, row.cost, "{}", bench.name);
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
