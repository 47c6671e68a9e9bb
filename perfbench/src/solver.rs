//! The solver workloads (`encode_heavy`, `search_heavy`, `weighted_core`):
//! one closed-loop client routing through the registry's router in-process.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use circuit::{RouteOutcome, RouteQuality, Router};
use routers::{BoxedRouter, RouteCache, RouterRegistry, StandardBackend};
use satmap::{SatMap, SatMapConfig};

use crate::stats::{self, metric, Report};
use crate::trace::Tracer;
use crate::workloads::{Kind, SolverWorkload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

const EXPECTED_COSTS: &str = include_str!("../expected_costs.txt");

/// The work counts of one answer. They must repeat exactly, pass after
/// pass and run after run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    pub added_gates: usize,
    pub slices: u64,
    pub backtracks: u64,
    pub sat_calls: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub quality: &'static str,
    pub attempts: u32,
}

/// Expected added gates of the one-slice and monolithic instances, keyed by
/// `(workload, instance)`.
fn expected_costs() -> HashMap<(&'static str, &'static str), usize> {
    EXPECTED_COSTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "expected_costs.txt: bad line {l:?}");
            let cost = f[2].parse().expect("expected_costs.txt: cost is a number");
            ((f[0], f[1]), cost)
        })
        .collect()
}

/// Checks one answer and returns its work counts. A correct answer is a
/// routed circuit that `circuit::verify` accepts, from a search that ran to
/// completion on the first attempt (`optimal`, or on `weighted_core`
/// `degraded` because weights were quantized).
fn check(wl: &SolverWorkload, i: usize, outcome: &RouteOutcome) -> Result<Signature, String> {
    let name = &wl.instances[i].name;
    let routed = outcome
        .routed()
        .ok_or_else(|| format!("{name}: not solved: {:?}", outcome.error()))?;
    circuit::verify::verify(&wl.instances[i].circuit, &wl.graph, routed)
        .map_err(|e| format!("{name}: routed circuit fails verify: {e:?}"))?;
    let completed = match outcome.quality() {
        RouteQuality::Optimal => true,
        RouteQuality::Degraded => {
            wl.kind == Kind::WeightedCore
                && outcome.diagnostic("degraded_reason") == Some("quantized")
        }
        RouteQuality::WarmRetry(_) => false,
    };
    if !completed {
        return Err(format!(
            "{name}: search did not complete (quality {}, reason {:?})",
            outcome.quality(),
            outcome.diagnostic("degraded_reason")
        ));
    }
    if outcome.attempts() != 1 {
        return Err(format!("{name}: {} attempts", outcome.attempts()));
    }
    let t = outcome.telemetry();
    Ok(Signature {
        added_gates: routed.added_gates(),
        slices: t.slices,
        backtracks: t.backtracks,
        sat_calls: t.sat_calls,
        conflicts: t.conflicts,
        decisions: t.decisions,
        propagations: t.propagations,
        quality: outcome.quality().label(),
        attempts: outcome.attempts(),
    })
}

/// On instances solved as one MaxSAT instance (one slice, or monolithic)
/// the cost is proven, so it must equal the expected file's.
fn check_cost(
    wl: &SolverWorkload,
    i: usize,
    sig: &Signature,
    expected: &HashMap<(&str, &str), usize>,
) -> Result<(), String> {
    if sig.slices > 1 {
        return Ok(());
    }
    let name = wl.instances[i].name.as_str();
    match expected.get(&(wl.kind.name(), name)) {
        Some(&cost) if cost == sig.added_gates => Ok(()),
        Some(&cost) => Err(format!(
            "{name}: {} added gates, expected {cost}",
            sig.added_gates
        )),
        None => Err(format!("{name}: no expected cost in expected_costs.txt")),
    }
}

fn router_for(wl: &SolverWorkload) -> BoxedRouter {
    RouterRegistry::standard()
        .create(wl.router)
        .expect("workload routers are registered")
}

/// One set-up: build the inputs, then route every request once, checking
/// each answer. Returns the reference signatures.
fn setup(
    kind: Kind,
    expected: &HashMap<(&str, &str), usize>,
    errors: &mut Vec<String>,
) -> (SolverWorkload, BoxedRouter, Vec<Option<Signature>>) {
    let wl = SolverWorkload::build(kind);
    let router = router_for(&wl);
    let reference = (0..wl.instances.len())
        .map(|i| {
            let outcome = router.route_request(&wl.request(i));
            let checked = check(&wl, i, &outcome)
                .and_then(|sig| check_cost(&wl, i, &sig, expected).map(|()| sig));
            checked
                .map_err(|e| errors.push(format!("set-up: {e}")))
                .ok()
        })
        .collect();
    (wl, router, reference)
}

fn header(wl: &SolverWorkload, seed: u64) -> Vec<String> {
    vec![format!(
        "router={} device=tokyo objective={} parallelism=serial budget_ms={} instances={} seed={seed}",
        wl.router,
        match wl.objective {
            circuit::Objective::SwapCount => "swap-count",
            circuit::Objective::Fidelity(_) => "fidelity(synthetic noise, seed 2022)",
        },
        wl.budget.as_millis(),
        wl.instances.len(),
    )]
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, process_start: Instant) -> Result<Report, String> {
    let expected = expected_costs();
    let mut errors = Vec::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for s in 0..SETUPS {
        let start = if s == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (wl, router, reference) = setup(kind, &expected, &mut errors);
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, _, previous)) = &built {
            if *previous != reference {
                errors.push(format!(
                    "set-up {s}: work counts differ from the previous set-up"
                ));
            }
        }
        built = Some((wl, router, reference));
    }
    let (wl, router, reference) = built.expect("at least one set-up");
    let n = wl.instances.len();

    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let cpu0 = stats::process_cpu_seconds().map_err(|e| e.to_string())?;
    let host0 = stats::host_ticks().map_err(|e| e.to_string())?;
    let window = Instant::now();
    let mut passes = 0;
    let mut pass_s = Vec::new();
    loop {
        let pass = Instant::now();
        for i in 0..n {
            let request = wl.request(i);
            let t = Instant::now();
            let outcome = router.route_request(&request);
            latencies.push(stats::ms(t.elapsed()));
            answers.push((i, outcome));
        }
        passes += 1;
        let last_pass = pass.elapsed().as_secs_f64();
        pass_s.push(last_pass);
        if window.elapsed().as_secs_f64() + last_pass > seconds {
            break;
        }
    }
    let cpu_s = stats::process_cpu_seconds().map_err(|e| e.to_string())? - cpu0;
    let steal = stats::steal_pct(host0, stats::host_ticks().map_err(|e| e.to_string())?);
    let peak_rss_mb = stats::peak_rss_mb().map_err(|e| e.to_string())?;

    let mut solved = 0u64;
    for (i, outcome) in &answers {
        match check(&wl, *i, outcome) {
            Ok(sig) if Some(&sig) == reference[*i].as_ref() => solved += 1,
            Ok(sig) => errors.push(format!(
                "{}: work counts drifted: {sig:?} vs set-up {:?}",
                wl.instances[*i].name, reference[*i]
            )),
            Err(e) => errors.push(e),
        }
    }
    let attempted = answers.len() as u64;
    // Whole passes only, so every request weighs the same in the samples.
    let total_ms: f64 = latencies.iter().sum();
    latencies.sort_by(f64::total_cmp);
    let routed_2q: usize = wl
        .instances
        .iter()
        .zip(reference.iter().flatten())
        .map(|(inst, s)| inst.circuit.num_two_qubit_gates() + s.added_gates)
        .sum();

    let mut notes = header(&wl, seed);
    notes.push(format!(
        "added_gates={}",
        reference
            .iter()
            .flatten()
            .map(|s| s.added_gates)
            .sum::<usize>()
    ));
    notes.push(format!(
        "passes={passes} requests_per_pass={n} samples={attempted} p50_beyond={} p90_beyond={} \
         host_steal_pct={steal:.2}",
        stats::beyond(latencies.len(), 0.5),
        stats::beyond(latencies.len(), 0.9),
    ));
    notes.push(format!(
        "pass_s={:?}",
        pass_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
    notes.push(format!(
        "setup_s={:?}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    ));
    for (inst, sig) in wl.instances.iter().zip(&reference) {
        if let Some(sig) = sig {
            notes.push(format!(
                "  {:<18} added_gates={:<4} slices={:<2} sat_calls={:<3} conflicts={}",
                inst.name, sig.added_gates, sig.slices, sig.sat_calls, sig.conflicts
            ));
        }
    }

    Ok(Report {
        correct: errors.is_empty(),
        attempted,
        failed: attempted - solved,
        metrics: vec![
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("throughput_rps", attempted as f64 / (total_ms / 1e3), "1/s"),
            metric("route_p50_ms", stats::percentile(&latencies, 0.5), "ms"),
            metric("route_p90_ms", stats::percentile(&latencies, 0.9), "ms"),
            metric("cpu_ms_per_req", cpu_s * 1e3 / attempted as f64, "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("routed_2q_gates", routed_2q as f64, "count"),
            metric("solved_frac", solved as f64 / attempted as f64, "fraction"),
        ],
        notes,
        errors,
    })
}

/// Work counts of one replay pass; identical on every pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counts {
    wcnf_vars: u64,
    wcnf_hard: u64,
    wcnf_soft: u64,
    slices: u64,
    backtracks: u64,
    sat_calls: u64,
    strata: u64,
    exhaustion_steps: u64,
    hardened_softs: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    cache_hits: u64,
    cache_misses: u64,
    attempts: u64,
    added_gates: u64,
}

/// Encode and solve time of multi-slice requests, read from their rows.
#[derive(Default)]
struct RowTimes {
    encode: Duration,
    solve: Duration,
}

/// One replay of the request sequence through the layers' public calls:
/// parse → fingerprint → cache lookup → encode → solve (or, for
/// multi-slice requests, the whole sliced route) → admit → verify →
/// serialize. With a disabled tracer the same calls run without spans.
fn replay(
    wl: &SolverWorkload,
    lines: &[String],
    monolithic: &[bool],
    tracer: &mut Tracer,
    pass: u64,
    times: &mut RowTimes,
    errors: &mut Vec<String>,
) -> Counts {
    let cache = RouteCache::new(RouterRegistry::standard());
    let config = match wl.router {
        "nl-satmap" => SatMapConfig::monolithic(),
        _ => SatMapConfig::default(),
    };
    let satmap = SatMap::<StandardBackend>::with_backend(config);
    let mut counts = Counts::default();
    let n = wl.instances.len();
    for i in 0..n {
        let rid = pass * n as u64 + i as u64;
        let name = &wl.instances[i].name;
        tracer.span("request", rid, |t| {
            if let Err(e) = t.span("service.parse", rid, |_| {
                service::wire::parse_request(&lines[i])
            }) {
                errors.push(format!("{name}: line does not parse: {e}"));
            }
            let request = wl.request(i);
            black_box(t.span("circuit.fingerprint", rid, |_| request.fingerprint()));
            let hit = t.span("registry.cache_lookup", rid, |_| {
                cache.lookup(wl.router, &request)
            });
            if !matches!(hit, Ok(None)) {
                errors.push(format!("{name}: unexpected cache lookup result"));
            }
            let outcome = if monolithic[i] {
                let artifact = match t.span("core.encode", rid, |_| satmap.encode_request(&request))
                {
                    Ok(a) => a,
                    Err(e) => {
                        errors.push(format!("{name}: encode_request failed: {e}"));
                        return;
                    }
                };
                let wcnf = artifact.instance();
                counts.wcnf_vars += wcnf.num_vars() as u64;
                counts.wcnf_hard += wcnf.hard_clauses().len() as u64;
                counts.wcnf_soft += wcnf.soft_clauses().len() as u64;
                t.span("maxsat.solve", rid, |_| {
                    satmap.solve_artifact(&artifact, &request, &mut None)
                })
            } else {
                let o = t.span("core.route", rid, |_| satmap.route_request(&request));
                times.encode += o.telemetry().encode_time;
                times.solve += o.telemetry().solve_time;
                o
            };
            let _ = t.span("registry.admit", rid, |_| {
                cache.admit(wl.router, &request, &outcome)
            });
            let verified = t.span("circuit.verify", rid, |_| {
                outcome
                    .routed()
                    .map(|r| circuit::verify::verify(&wl.instances[i].circuit, &wl.graph, r))
            });
            if !matches!(verified, Some(Ok(()))) {
                errors.push(format!("{name}: replayed answer fails verify"));
            }
            black_box(t.span("service.serialize", rid, |_| outcome.to_json()));
            let tel = outcome.telemetry();
            counts.slices += tel.slices;
            counts.backtracks += tel.backtracks;
            counts.sat_calls += tel.sat_calls;
            counts.strata += tel.strata;
            counts.exhaustion_steps += tel.exhaustion_steps;
            counts.hardened_softs += tel.hardened_softs;
            counts.conflicts += tel.conflicts;
            counts.decisions += tel.decisions;
            counts.propagations += tel.propagations;
            counts.attempts += u64::from(outcome.attempts());
            counts.added_gates += outcome.routed().map_or(0, |r| r.added_gates() as u64);
        });
    }
    let cache_stats = cache.stats();
    counts.cache_hits = cache_stats.hits;
    counts.cache_misses = cache_stats.misses;
    counts
}

/// The traced run: per-layer metrics and the cost of tracing.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Result<Report, String> {
    let expected = expected_costs();
    let mut errors = Vec::new();
    let started = Instant::now();
    let (wl, _router, reference) = setup(kind, &expected, &mut errors);
    let n = wl.instances.len();
    let lines: Vec<String> = (0..n).map(|i| wl.line(i)).collect();
    let monolithic: Vec<bool> = reference
        .iter()
        .map(|s| s.as_ref().is_some_and(|s| s.slices <= 1))
        .collect();
    let reference_counts = Counts {
        added_gates: reference
            .iter()
            .flatten()
            .map(|s| s.added_gates as u64)
            .sum(),
        conflicts: reference.iter().flatten().map(|s| s.conflicts).sum(),
        sat_calls: reference.iter().flatten().map(|s| s.sat_calls).sum(),
        ..Counts::default()
    };

    let mut traced = Tracer::new(true);
    let mut times = RowTimes::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first: Option<Counts> = None;
    let mut pass = 0u64;
    loop {
        let pair = Instant::now();
        // Alternate which side of the pair runs first, so drift in the
        // host's speed does not read as tracing overhead.
        for traced_side in [!pass.is_multiple_of(2), pass.is_multiple_of(2)] {
            let t = Instant::now();
            let counts = if traced_side {
                replay(
                    &wl,
                    &lines,
                    &monolithic,
                    &mut traced,
                    pass,
                    &mut times,
                    &mut errors,
                )
            } else {
                let mut off = Tracer::new(false);
                let mut ignored = RowTimes::default();
                replay(
                    &wl,
                    &lines,
                    &monolithic,
                    &mut off,
                    pass,
                    &mut ignored,
                    &mut errors,
                )
            };
            let side = if traced_side {
                &mut traced_s
            } else {
                &mut plain_s
            };
            side.push(t.elapsed().as_secs_f64());
            match &first {
                None => first = Some(counts),
                Some(f) if *f != counts => {
                    errors.push(format!("replay work counts drifted: {counts:?} vs {f:?}"))
                }
                Some(_) => {}
            }
        }
        pass += 1;
        if started.elapsed().as_secs_f64() + pair.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let c = first.expect("at least one replay");
    for (what, got, want) in [
        ("added_gates", c.added_gates, reference_counts.added_gates),
        ("conflicts", c.conflicts, reference_counts.conflicts),
        ("sat_calls", c.sat_calls, reference_counts.sat_calls),
    ] {
        if got != want {
            errors.push(format!("replay {what} {got} differs from routed {want}"));
        }
    }

    let traced_requests = (n as u64 * pass) as f64;
    let mean_us = |name: &str| {
        let (count, total) = traced.total(name);
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / 1e3
        }
    };
    let encode_ms =
        (traced.total("core.encode").1 as f64 / 1e6 + stats::ms(times.encode)) / traced_requests;
    let solve_ms =
        (traced.total("maxsat.solve").1 as f64 / 1e6 + stats::ms(times.solve)) / traced_requests;
    let overhead = (stats::median(&traced_s) / stats::median(&plain_s) - 1.0) * 100.0;
    let path =
        std::path::PathBuf::from(format!(".bench_out/trace-{}-seed{seed}.jsonl", kind.name()));
    if let Err(e) = traced.write_jsonl(&path) {
        errors.push(format!("writing {}: {e}", path.display()));
    }

    let mut notes = header(&wl, seed);
    notes.push(format!(
        "replay pairs={pass} plain_pass_s={:.4} traced_pass_s={:.4} spans={} -> {}",
        stats::median(&plain_s),
        stats::median(&traced_s),
        traced.spans().len(),
        path.display()
    ));
    notes.push("off this workload's path (reported as 0): registry.supervise_ms, heuristics.*, service.loopback_overhead_ms".into());

    let count = |v: u64| v as f64;
    let metrics = vec![
        metric("core.encode_ms", encode_ms, "ms"),
        metric("core.wcnf_vars", count(c.wcnf_vars), "count"),
        metric("core.wcnf_hard", count(c.wcnf_hard), "count"),
        metric("core.wcnf_soft", count(c.wcnf_soft), "count"),
        metric("core.slices", count(c.slices), "count"),
        metric("core.backtracks", count(c.backtracks), "count"),
        metric("maxsat.solve_ms", solve_ms, "ms"),
        metric("maxsat.sat_calls", count(c.sat_calls), "count"),
        metric("maxsat.strata", count(c.strata), "count"),
        metric(
            "maxsat.exhaustion_steps",
            count(c.exhaustion_steps),
            "count",
        ),
        metric("maxsat.hardened_softs", count(c.hardened_softs), "count"),
        metric("sat.conflicts", count(c.conflicts), "count"),
        metric("sat.decisions", count(c.decisions), "count"),
        metric("sat.propagations", count(c.propagations), "count"),
        metric(
            "sat.props_per_ms",
            c.propagations as f64 / (solve_ms * n as f64),
            "1/ms",
        ),
        metric("service.parse_us", mean_us("service.parse"), "us"),
        metric(
            "circuit.fingerprint_us",
            mean_us("circuit.fingerprint"),
            "us",
        ),
        metric(
            "registry.cache_lookup_us",
            mean_us("registry.cache_lookup"),
            "us",
        ),
        metric("service.serialize_us", mean_us("service.serialize"), "us"),
        metric("registry.cache_hits", count(c.cache_hits), "count"),
        metric("registry.cache_misses", count(c.cache_misses), "count"),
        metric("registry.supervise_ms", 0.0, "ms"),
        metric("registry.attempts", count(c.attempts), "count"),
        metric("heuristics.sabre_ms", 0.0, "ms"),
        metric("heuristics.tket_ms", 0.0, "ms"),
        metric("heuristics.astar_ms", 0.0, "ms"),
        metric("service.loopback_overhead_ms", 0.0, "ms"),
        metric("circuit.verify_us", mean_us("circuit.verify"), "us"),
        metric("trace.overhead_pct", overhead, "%"),
    ];
    Ok(Report {
        correct: errors.is_empty(),
        attempted: traced_requests as u64,
        failed: (errors.len() as u64).min(traced_requests as u64),
        metrics,
        notes,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every time-to-proof instance proves on its first attempt, well
    /// inside its budget, at the cost the expected file records.
    #[test]
    fn time_to_proof_instances_prove_well_inside_their_budget() {
        let expected = expected_costs();
        for kind in [Kind::EncodeHeavy, Kind::SearchHeavy, Kind::WeightedCore] {
            let wl = SolverWorkload::build(kind);
            let router = router_for(&wl);
            for i in 0..wl.instances.len() {
                let started = Instant::now();
                let outcome = router.route_request(&wl.request(i));
                let took = started.elapsed();
                let name = &wl.instances[i].name;
                let sig = check(&wl, i, &outcome).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(sig.attempts, 1, "{name}");
                check_cost(&wl, i, &sig, &expected).unwrap_or_else(|e| panic!("{e}"));
                assert!(
                    took < wl.budget / 4,
                    "{name}: {took:?} of a {:?} budget",
                    wl.budget
                );
            }
        }
    }

    #[test]
    fn expected_costs_cover_only_known_instances() {
        for (workload, instance) in expected_costs().keys() {
            let kind = Kind::parse(workload).expect("known workload");
            let wl = SolverWorkload::build(kind);
            assert!(
                wl.instances.iter().any(|i| i.name == *instance),
                "{workload}/{instance} is not in the workload"
            );
        }
    }
}
