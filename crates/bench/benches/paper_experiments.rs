//! Criterion benchmarks, one group per table/figure of the paper.
//!
//! These measure *scaled-down* instances so `cargo bench` finishes quickly;
//! the full-size regenerations (with per-instance budgets and the whole
//! 160-circuit suite) are produced by the `satmap-experiments` binary.
//!
//! Every router is constructed by name through `routers::RouterRegistry`
//! and driven by a `RouteRequest` carrying the per-call budget — no
//! concrete router type appears in this harness.

use bench::{bench_budget, fig3, fig3_mutants, small_workloads};
use circuit::{Objective, RepeatedStructure, RouteRequest, Router, Slicing};
use criterion::{criterion_group, BenchmarkId, Criterion};
use routers::{BoxedRouter, RouterRegistry};
use sat::{ResourceBudget, Solver};

fn create(name: &str) -> BoxedRouter {
    RouterRegistry::standard()
        .create(name)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Routes one circuit under the bench budget (the request every group
/// shares).
fn route<'a>(
    circuit: &'a circuit::Circuit,
    graph: &'a arch::ConnectivityGraph,
) -> RouteRequest<'a> {
    RouteRequest::new(circuit, graph).with_budget(bench_budget())
}

/// Fig. 1 / Table I / Figs. 10–11 (Q1): constraint-based tools on the same
/// instance — SATMAP vs the TB-OLSQ and EX-MQT analogues.
fn q1_constraint_tools(c: &mut Criterion) {
    let mut group = c.benchmark_group("q1_constraint_tools");
    group.sample_size(10);
    let circuit = fig3();
    let graph = arch::devices::tokyo_minus();
    let tools: Vec<(&str, BoxedRouter)> = vec![
        ("satmap", create("nl-satmap")),
        ("tb-olsq", create("olsq-tb")),
        ("ex-mqt", create("olsq")),
    ];
    for (name, tool) in &tools {
        group.bench_with_input(BenchmarkId::new(*name, "fig3"), &circuit, |b, circ| {
            b.iter(|| tool.route_request(&route(circ, &graph)))
        });
    }
    group.finish();
}

/// Fig. 12 (Q2): heuristic routers on the small workload set.
fn q2_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("q2_heuristics");
    let graph = arch::devices::tokyo();
    let workloads = small_workloads();
    let tools: Vec<(&str, BoxedRouter)> = vec![
        ("mqth-astar", create("astar")),
        ("sabre", create("sabre")),
        ("tket", create("tket")),
    ];
    for (name, tool) in &tools {
        for (i, w) in workloads.iter().enumerate() {
            group.bench_with_input(BenchmarkId::new(*name, i), w, |b, circ| {
                b.iter(|| tool.route_request(&route(circ, &graph)))
            });
        }
    }
    group.finish();
}

/// Fig. 2 / Table II / Fig. 13 (Q3): slice-size ablation — the local
/// relaxation at several slice sizes vs NL-SATMAP, all through one router
/// with per-request `Slicing` overrides.
fn q3_slice_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("q3_slice_sizes");
    group.sample_size(10);
    let graph = arch::devices::tokyo_minus();
    let circuit = circuit::generators::random_local(5, 12, 4, 0.1, 3);
    let satmap = create("satmap");
    for slice in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sliced", slice), &circuit, |b, circ| {
            b.iter(|| {
                satmap.route_request(&route(circ, &graph).with_slicing(Slicing::Sliced(slice)))
            })
        });
    }
    let nl = create("nl-satmap");
    group.bench_with_input(BenchmarkId::new("nl-satmap", 0), &circuit, |b, circ| {
        b.iter(|| nl.route_request(&route(circ, &graph)))
    });
    group.finish();
}

/// Table IV (Q3): cyclic relaxation on QAOA vs unrolled solving.
fn q3_qaoa_cyclic(c: &mut Criterion) {
    let mut group = c.benchmark_group("q3_qaoa_cyclic");
    group.sample_size(10);
    let graph = arch::devices::tokyo();
    let n = 6usize;
    let cycles = 2usize;
    let edges = circuit::qaoa::three_regular_graph(n, 1);
    let sub = circuit::qaoa::qaoa_subcircuit(n, &edges, 0.4, 0.3);
    let full = sub.repeated(cycles);
    let repetition = RepeatedStructure {
        prefix_len: 0,
        cycles,
    };

    let cyc = create("cyc-satmap");
    group.bench_function("cyc-satmap", |b| {
        b.iter(|| cyc.route_request(&route(&full, &graph).with_repetition(repetition)))
    });
    let sm = create("satmap");
    group.bench_function("satmap-unrolled", |b| {
        b.iter(|| sm.route_request(&route(&full, &graph)))
    });
    let tket = create("tket");
    group.bench_function("tket", |b| {
        b.iter(|| tket.route_request(&route(&full, &graph)))
    });
    group.finish();
}

/// Fig. 14 (Q4): the same workload across Tokyo− / Tokyo / Tokyo+.
fn q4_architectures(c: &mut Criterion) {
    let mut group = c.benchmark_group("q4_architectures");
    group.sample_size(10);
    let circuit = circuit::generators::random_local(6, 10, 5, 0.1, 4);
    let satmap = create("satmap");
    let tket = create("tket");
    for graph in [
        arch::devices::tokyo_minus(),
        arch::devices::tokyo(),
        arch::devices::tokyo_plus(),
    ] {
        group.bench_with_input(
            BenchmarkId::new("satmap", graph.name()),
            &circuit,
            |b, circ| b.iter(|| satmap.route_request(&route(circ, &graph))),
        );
        group.bench_with_input(
            BenchmarkId::new("tket", graph.name()),
            &circuit,
            |b, circ| b.iter(|| tket.route_request(&route(circ, &graph))),
        );
    }
    group.finish();
}

/// Figs. 15–16 (Q5): solve time as the instance grows (the scalability
/// axis behind the time-budget sweep).
fn q5_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("q5_scaling");
    group.sample_size(10);
    let graph = arch::devices::tokyo_minus();
    let satmap = create("satmap");
    for gates in [4usize, 8, 16] {
        let circuit = circuit::generators::random_local(5, gates, 4, 0.0, 9);
        group.bench_with_input(BenchmarkId::new("satmap", gates), &circuit, |b, circ| {
            b.iter(|| satmap.route_request(&route(circ, &graph).with_slicing(Slicing::Sliced(4))))
        });
    }
    group.finish();
}

/// Q6: the weighted (fidelity) objective vs plain swap minimization —
/// selected per request on the same router.
fn q6_noise(c: &mut Criterion) {
    let mut group = c.benchmark_group("q6_noise");
    group.sample_size(10);
    let graph = arch::devices::tokyo();
    let noise = arch::NoiseModel::synthetic(&graph, 2022);
    let circuit = circuit::generators::random_local(4, 6, 3, 0.0, 5);
    let router = create("nl-satmap");
    group.bench_function("swap-count", |b| {
        b.iter(|| router.route_request(&route(&circuit, &graph)))
    });
    group.bench_function("fidelity", |b| {
        b.iter(|| {
            router.route_request(
                &route(&circuit, &graph).with_objective(Objective::Fidelity(noise.clone())),
            )
        })
    });
    group.finish();
}

/// Ablation: the `n` swaps-per-gap parameter (DESIGN.md design decision),
/// a per-request knob.
fn ablation_swaps_per_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_swaps_per_gap");
    group.sample_size(10);
    let graph = arch::devices::tokyo_minus();
    let circuit = circuit::generators::random_local(5, 8, 4, 0.0, 6);
    let router = create("nl-satmap");
    for n in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("n", n), &circuit, |b, circ| {
            b.iter(|| router.route_request(&route(circ, &graph).with_swaps_per_gap(n)))
        });
    }
    group.finish();
}

/// The weight-stratified core-guided search on the fidelity objective:
/// the exact WCNF behind the `q6_noise/fidelity` headline row (tokyo +
/// synthetic noise, first slice), solved by the full refinement stack
/// (stratification + core trimming + exhaustion + hardening, the
/// engine's default core-guided configuration), by the plain OLL loop
/// those refinements extend, and by the linear SAT-UNSAT descent. The
/// encoding already charges every gate its cheapest edge as a constant,
/// so the core-guided searches only pay for placements above that floor
/// and for swaps; the weighted softs carry few distinct weights, so the
/// diversity cap folds them into one stratum.
fn weighted_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_core");
    group.sample_size(10);
    let graph = arch::devices::tokyo();
    let noise = arch::NoiseModel::synthetic(&graph, 2022);
    let circuit = circuit::generators::random_local(4, 6, 3, 0.0, 5);
    let encoding = satmap::encode::QmrEncoding::build(
        &circuit,
        &graph,
        1,
        satmap::encode::EncodeShape::first_slice(),
        &Objective::Fidelity(noise),
    );
    let core = maxsat::SolveOptions::default().with_strategy(maxsat::Strategy::CoreGuided);
    let configs = [
        ("stratified", core),
        ("plain", core.plain_core_guided()),
        (
            "linear",
            maxsat::SolveOptions::default().with_strategy(maxsat::Strategy::LinearSatUnsat),
        ),
    ];
    for (label, options) in &configs {
        group.bench_function(*label, |b| {
            b.iter(|| {
                let out = maxsat::solve_with_options::<Solver>(
                    encoding.instance(),
                    &ResourceBudget::unlimited(),
                    options,
                );
                assert!(out.cost.is_some(), "unexpected {:?}", out.status);
                out
            })
        });
    }
    group.finish();
}

/// Warm-start re-routing (the encode/solve split): the mutate-one-gate
/// Fig. 3 family routed three ways. `cold` encodes and solves each member
/// from scratch; `warm` re-routes each member through its own session
/// slot, the way a supervised retry resumes the failed attempt (encoding
/// skipped, clause DB and incumbent carried; each iteration resumes the
/// session the previous one left); `cache-hit` replays the memoized
/// outcome through `routers::RouteCache` without touching a solver. The
/// three medians land in `BENCH_satmap.json` as the `warmstart/*` rows the
/// schema check requires.
fn warmstart(c: &mut Criterion) {
    let mut group = c.benchmark_group("warmstart");
    group.sample_size(10);
    let graph = arch::devices::tokyo_minus();
    let family = fig3_mutants();
    let router = satmap::SatMap::new(satmap::SatMapConfig::monolithic());

    group.bench_function("cold", |b| {
        b.iter(|| {
            for circ in &family {
                assert!(router.route_request(&route(circ, &graph)).solved());
            }
        })
    });

    let mut slots: Vec<Option<satmap::RouteSession<_>>> = family
        .iter()
        .map(|circ| {
            let mut slot = None;
            assert!(router
                .route_with_session(&route(circ, &graph), &mut slot)
                .solved());
            slot
        })
        .collect();
    group.bench_function("warm", |b| {
        b.iter(|| {
            for (circ, slot) in family.iter().zip(&mut slots) {
                let out = router.route_with_session(&route(circ, &graph), slot);
                assert!(out.telemetry().warm_start && out.solved());
            }
        })
    });

    let cache = routers::RouteCache::default();
    for circ in &family {
        let out = cache
            .route("nl-satmap", &route(circ, &graph))
            .expect("registered");
        assert!(out.solved());
    }
    group.bench_function("cache-hit", |b| {
        b.iter(|| {
            for circ in &family {
                let out = cache
                    .route("nl-satmap", &route(circ, &graph))
                    .expect("registered");
                assert!(out.telemetry().cache_hit);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    q1_constraint_tools,
    q2_heuristics,
    q3_slice_sizes,
    q3_qaoa_cyclic,
    q4_architectures,
    q5_scaling,
    q6_noise,
    ablation_swaps_per_gap,
    weighted_core,
    warmstart
);

fn main() {
    benches();
    // Emit the machine-readable report next to the human-readable stdout
    // (satisfying CI's harness-error check: a failed write fails the run).
    let path = bench::write_bench_json().expect("write BENCH_satmap.json");
    println!("bench report written to {}", path.display());
}
