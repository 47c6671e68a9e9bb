//! `service_mix`: heuristic routers served by an in-process `routed`
//! daemon over loopback to one closed-loop client on one persistent
//! connection.

use std::hint::black_box;
use std::time::Instant;

use circuit::{RouteOutcome, RouteQuality, RouteRequest};
use routers::{RouteCache, RouteSupervisor, RouterRegistry};
use service::wire::{self, JsonValue, Request, RouteCommand};
use service::{Daemon, DaemonConfig, ServiceClient};

use crate::pin::Pinned;
use crate::solver::SETUPS;
use crate::stats::{self, metric, Report};
use crate::trace::Tracer;
use crate::workloads::{MixLine, ServiceMix, SERVICE_BUDGET_MS, SERVICE_DEVICE};

/// Timed positions the traced replay covers after the warm set.
const REPLAY_POSITIONS: usize = 100;

/// What a served row must agree with: the in-process answer for the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Answer {
    added_gates: u64,
    attempts: u64,
}

fn command(line: &str) -> Result<RouteCommand, String> {
    match wire::parse_request(line) {
        Ok(Request::Route(cmd)) => Ok(*cmd),
        Ok(other) => Err(format!("not a route line: {other:?}")),
        Err(e) => Err(format!("line does not parse: {e}")),
    }
}

/// Checks an outcome the way a served row is judged: solved on the first
/// attempt with full quality, and the routed circuit passes verify.
fn judge(cmd: &RouteCommand, outcome: &RouteOutcome) -> Result<Answer, String> {
    let routed = outcome
        .routed()
        .ok_or_else(|| format!("not solved: {:?}", outcome.error()))?;
    circuit::verify::verify(&cmd.circuit, &cmd.graph, routed)
        .map_err(|e| format!("routed circuit fails verify: {e:?}"))?;
    if outcome.quality() != RouteQuality::Optimal || outcome.attempts() != 1 {
        return Err(format!(
            "quality {} after {} attempts",
            outcome.quality(),
            outcome.attempts()
        ));
    }
    Ok(Answer {
        added_gates: routed.added_gates() as u64,
        attempts: u64::from(outcome.attempts()),
    })
}

/// The in-process answer for one line, through the same registry the
/// daemon's supervisor routes with.
fn reference(line: &MixLine) -> Result<Answer, String> {
    let cmd = command(&line.line)?;
    let request = RouteRequest::with_spec(&cmd.circuit, &cmd.graph, cmd.spec.clone());
    let outcome = RouterRegistry::standard()
        .route(&cmd.router, &request)
        .map_err(|e| e.to_string())?;
    judge(&cmd, &outcome).map_err(|e| format!("{}: in-process: {e}", line.label))
}

/// References for many lines, split over two threads (after the timed
/// window, with the CPU mask widened again).
fn references(lines: &[MixLine]) -> Vec<Result<Answer, String>> {
    let half = lines.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = lines
            .chunks(half.max(1))
            .map(|chunk| s.spawn(move || chunk.iter().map(reference).collect::<Vec<_>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Compares one served row with the in-process answer for its line.
fn check_row(row: &str, want: &Answer, cache_hit: bool) -> Result<(), String> {
    let v = wire::parse_json(row).map_err(|e| format!("row does not parse: {e}"))?;
    let field = |k: &str| v.get(k);
    if field("solved").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("row not solved: {row}"));
    }
    let got = Answer {
        added_gates: field("added_gates")
            .and_then(JsonValue::as_u64)
            .unwrap_or(u64::MAX),
        attempts: field("attempts").and_then(JsonValue::as_u64).unwrap_or(0),
    };
    if got != *want {
        return Err(format!("row {got:?} differs from in-process {want:?}"));
    }
    if field("quality").and_then(JsonValue::as_str) != Some("optimal") {
        return Err(format!("row quality is not optimal: {row}"));
    }
    if field("cache_hit").and_then(JsonValue::as_bool) != Some(cache_hit) {
        return Err(format!("row cache_hit is not {cache_hit}"));
    }
    Ok(())
}

struct Served {
    daemon: Daemon,
    client: ServiceClient,
}

impl Served {
    fn start() -> Result<Self, String> {
        // One closed-loop client never has two requests in flight, so one
        // worker serves it; more would only vary which thread (and which
        // allocator arena) handles each request.
        let daemon: Daemon = Daemon::bind(DaemonConfig {
            workers: Some(1),
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let client = ServiceClient::connect(daemon.local_addr())
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        Ok(Served { daemon, client })
    }

    /// Sends one line and waits for its outcome row.
    fn route(&mut self, line: &str) -> Result<String, String> {
        let id = self
            .client
            .submit_route(line)
            .map_err(|e| format!("submitting: {e}"))?
            .id();
        self.client.wait(id).map_err(|e| format!("waiting: {e}"))
    }

    /// The daemon's `(cache_hits, cache_misses)`.
    fn cache_counts(&mut self) -> Result<(u64, u64), String> {
        let row = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        let v = wire::parse_json(&row).map_err(|e| format!("stats row: {e}"))?;
        let get = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stats row lacks {k}: {row}"))
        };
        Ok((get("cache_hits")?, get("cache_misses")?))
    }

    /// Drains the daemon and waits for all its threads.
    fn stop(mut self) -> Result<(), String> {
        let drained = self.client.drain().map_err(|e| format!("drain: {e}"));
        drop(self.client);
        self.daemon.drain();
        self.daemon.join();
        drained.map(|_| ())
    }
}

fn header(mix: &ServiceMix) -> String {
    format!(
        "device={SERVICE_DEVICE} routers=tket,astar,sabre(<=450 gates) parallelism=serial \
         budget_ms={SERVICE_BUDGET_MS} warm_lines={} repeat_share=2/5 seed={}",
        mix.warm.len(),
        mix.seed
    )
}

/// One set-up: inputs, in-process references, daemon, connection, and
/// the warm-up pass that fills the daemon's cache.
fn setup(seed: u64, errors: &mut Vec<String>) -> Result<(ServiceMix, Vec<Answer>, Served), String> {
    let mix = ServiceMix::build(seed);
    let mut refs = Vec::with_capacity(mix.warm.len());
    for line in &mix.warm {
        refs.push(reference(line)?);
    }
    let mut served = Served::start()?;
    for (line, want) in mix.warm.iter().zip(&refs) {
        let row = served.route(&line.line)?;
        if let Err(e) = check_row(&row, want, false) {
            errors.push(format!("warm-up {}: {e}", line.label));
        }
    }
    Ok((mix, refs, served))
}

/// The untraced run: end-to-end metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    process_start: Instant,
    pinned: &Pinned,
) -> Result<Report, String> {
    let mut errors = Vec::new();
    let mut setup_s = Vec::new();
    let mut built: Option<(ServiceMix, Vec<Answer>, Served)> = None;
    for s in 0..SETUPS {
        let start = if s == 0 {
            process_start
        } else {
            Instant::now()
        };
        let next = setup(seed, &mut errors)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, refs, previous)) = built.replace(next) {
            previous.stop()?;
            if built.as_ref().is_some_and(|b| b.1 != refs) {
                errors.push(format!(
                    "set-up {s}: answers differ from the previous set-up"
                ));
            }
        }
    }
    let (mix, refs, mut served) = built.expect("at least one set-up");
    let setup_rss_mb = stats::peak_rss_mb().map_err(|e| e.to_string())?;

    let mut latencies = Vec::new();
    let mut rows = Vec::new();
    let cpu0 = stats::process_cpu_seconds().map_err(|e| e.to_string())?;
    let host0 = stats::host_ticks().map_err(|e| e.to_string())?;
    let window = Instant::now();
    let mut k = 0;
    while k == 0 || window.elapsed().as_secs_f64() < seconds {
        let line = mix.position(k).line;
        let t = Instant::now();
        let row = served.route(&line)?;
        latencies.push(stats::ms(t.elapsed()));
        rows.push(row);
        k += 1;
    }
    let cpu_s = stats::process_cpu_seconds().map_err(|e| e.to_string())? - cpu0;
    let steal = stats::steal_pct(host0, stats::host_ticks().map_err(|e| e.to_string())?);
    let peak_rss_mb = stats::peak_rss_mb().map_err(|e| e.to_string())?;

    let repeats = (0..k).filter(|&k| ServiceMix::is_repeat(k)).count() as u64;
    let (hits, misses) = served.cache_counts()?;
    let want = (repeats, mix.warm.len() as u64 + (k as u64 - repeats));
    if (hits, misses) != want {
        errors.push(format!(
            "daemon cache hits/misses {:?}, expected {want:?}",
            (hits, misses)
        ));
    }
    served.stop()?;

    // Lines are regenerated from their positions rather than kept, so the
    // timed window's memory holds only the rows.
    let lines: Vec<MixLine> = (0..k).map(|k| mix.position(k)).collect();
    let fresh: Vec<MixLine> = lines
        .iter()
        .enumerate()
        .filter(|(k, _)| !ServiceMix::is_repeat(*k))
        .map(|(_, line)| line.clone())
        .collect();
    pinned
        .release()
        .map_err(|e| format!("widening the CPU mask: {e}"))?;
    let mut fresh_refs = references(&fresh).into_iter();
    let mut solved = 0u64;
    for (k, (line, row)) in lines.iter().zip(&rows).enumerate() {
        let want = if ServiceMix::is_repeat(k) {
            let warm = mix.warm.iter().position(|w| w.line == line.line);
            warm.map(|i| Ok(refs[i]))
        } else {
            fresh_refs.next()
        };
        let verdict = match want {
            Some(Ok(want)) => check_row(row, &want, ServiceMix::is_repeat(k)),
            Some(Err(e)) => Err(e),
            None => Err("repeat line is not in the warm set".into()),
        };
        match verdict {
            Ok(()) => solved += 1,
            Err(e) => errors.push(format!("position {k} {}: {e}", line.label)),
        }
    }

    let attempted = rows.len() as u64;
    let total_ms: f64 = latencies.iter().sum();
    latencies.sort_by(f64::total_cmp);
    let added_gates: u64 = refs.iter().map(|a| a.added_gates).sum();
    let routed_2q: u64 = added_gates
        + mix
            .warm
            .iter()
            .map(|l| l.two_qubit_gates as u64)
            .sum::<u64>();
    let notes = vec![
        header(&mix),
        format!("added_gates={added_gates} (warm set) setup_peak_rss_mb={setup_rss_mb:.1}"),
        format!(
            "samples={} repeats={repeats} p50_beyond={} p90_beyond={} host_steal_pct={steal:.2}",
            latencies.len(),
            stats::beyond(latencies.len(), 0.5),
            stats::beyond(latencies.len(), 0.9)
        ),
        format!(
            "setup_s={:?}",
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        ),
    ];
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
    cache_hits: u64,
    cache_misses: u64,
    attempts: u64,
    added_gates: u64,
}

/// One in-process replay of `lines` in the daemon's per-request order:
/// parse → fingerprint → cache lookup → supervise (on a miss) → admit →
/// verify → serialize. Returns the counts and each line's outcome.
fn replay(
    lines: &[MixLine],
    tracer: &mut Tracer,
    pass: u64,
    errors: &mut Vec<String>,
) -> (Counts, Vec<Option<RouteOutcome>>) {
    let cache = RouteCache::new(RouterRegistry::standard());
    let supervisor = RouteSupervisor::new();
    let mut counts = Counts::default();
    let mut outcomes = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let rid = pass * lines.len() as u64 + i as u64;
        let outcome = tracer.span("request", rid, |t| {
            let cmd = match t.span("service.parse", rid, |_| command(&line.line)) {
                Ok(cmd) => cmd,
                Err(e) => {
                    errors.push(format!("{}: {e}", line.label));
                    return None;
                }
            };
            let request = RouteRequest::with_spec(&cmd.circuit, &cmd.graph, cmd.spec.clone());
            black_box(t.span("circuit.fingerprint", rid, |_| request.fingerprint()));
            let hit = t.span("registry.cache_lookup", rid, |_| {
                cache.lookup(&cmd.router, &request)
            });
            let outcome = match hit {
                Ok(Some(hit)) => hit,
                Ok(None) => {
                    let served = t.span("registry.supervise", rid, |_| {
                        supervisor.route(&cmd.router, &request)
                    });
                    let outcome = match served {
                        Ok(o) => o,
                        Err(e) => {
                            errors.push(format!("{}: {e}", line.label));
                            return None;
                        }
                    };
                    let _ = t.span("registry.admit", rid, |_| {
                        cache.admit(&cmd.router, &request, &outcome)
                    });
                    outcome
                }
                Err(e) => {
                    errors.push(format!("{}: {e}", line.label));
                    return None;
                }
            };
            let verified = t.span("circuit.verify", rid, |_| {
                outcome
                    .routed()
                    .map(|r| circuit::verify::verify(&cmd.circuit, &cmd.graph, r))
            });
            if !matches!(verified, Some(Ok(()))) {
                errors.push(format!("{}: replayed answer fails verify", line.label));
            }
            black_box(t.span("service.serialize", rid, |_| outcome.to_json()));
            Some(outcome)
        });
        if let Some(o) = &outcome {
            counts.attempts += u64::from(o.attempts());
            counts.added_gates += o.routed().map_or(0, |r| r.added_gates() as u64);
        }
        outcomes.push(outcome);
    }
    let s = cache.stats();
    counts.cache_hits = s.hits;
    counts.cache_misses = s.misses;
    (counts, outcomes)
}

/// The traced run: per-layer metrics and the cost of tracing.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let started = Instant::now();
    let mut errors = Vec::new();
    let mix = ServiceMix::build(seed);
    let lines: Vec<MixLine> = mix
        .warm
        .iter()
        .cloned()
        .chain((0..REPLAY_POSITIONS).map(|k| mix.position(k)))
        .collect();
    let repeats = (0..REPLAY_POSITIONS)
        .filter(|&k| ServiceMix::is_repeat(k))
        .count() as u64;
    let expected = Counts {
        cache_hits: repeats,
        cache_misses: lines.len() as u64 - repeats,
        attempts: lines.len() as u64,
        added_gates: 0,
    };

    // One untimed replay first, as the untraced run's set-up does.
    replay(&lines, &mut Tracer::new(false), 0, &mut errors);
    let mut traced = Tracer::new(true);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first: Option<Counts> = None;
    let mut answers = Vec::new();
    let mut pass = 0u64;
    loop {
        let pair = Instant::now();
        // Alternate which side of the pair runs first, so drift in the
        // host's speed does not read as tracing overhead.
        for traced_side in [!pass.is_multiple_of(2), pass.is_multiple_of(2)] {
            let t = Instant::now();
            let counts = if traced_side {
                let (counts, outcomes) = replay(&lines, &mut traced, pass, &mut errors);
                answers = outcomes;
                traced_s.push(t.elapsed().as_secs_f64());
                counts
            } else {
                let (counts, _) = replay(&lines, &mut Tracer::new(false), pass, &mut errors);
                plain_s.push(t.elapsed().as_secs_f64());
                counts
            };
            match &first {
                None => first = Some(counts),
                Some(f) if *f != counts => {
                    errors.push(format!("replay counts drifted: {counts:?} vs {f:?}"))
                }
                Some(_) => {}
            }
        }
        pass += 1;
        // Leave room for the heuristic probe and the loopback pass, which
        // each cost about one replay.
        if started.elapsed().as_secs_f64() + 2.0 * pair.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let c = first.expect("at least one replay");
    if (c.cache_hits, c.cache_misses, c.attempts)
        != (
            expected.cache_hits,
            expected.cache_misses,
            expected.attempts,
        )
    {
        errors.push(format!("replay counts {c:?}, expected {expected:?}"));
    }

    // Per-line wall time of the traced in-process path (median over
    // passes), without the verify span: the daemon does not verify.
    let mut per_request = std::collections::HashMap::<u64, f64>::new();
    for s in traced.spans() {
        let ms = s.duration_ns() as f64 / 1e6;
        match s.name {
            "request" => *per_request.entry(s.request).or_default() += ms,
            "circuit.verify" => *per_request.entry(s.request).or_default() -= ms,
            _ => {}
        }
    }
    let mut per_line: Vec<Vec<f64>> = vec![Vec::new(); lines.len()];
    for (request, ms) in per_request {
        per_line[(request % lines.len() as u64) as usize].push(ms);
    }
    let in_process_ms: Vec<f64> = per_line.iter().map(|v| stats::median(v)).collect();

    // Heuristic probe: each router's own `route_request` on the misses.
    let mut probe = Tracer::new(true);
    let registry = RouterRegistry::standard();
    let mut seen = std::collections::HashSet::new();
    for (i, (line, answer)) in lines.iter().zip(&answers).enumerate() {
        if !seen.insert(line.line.as_str()) {
            continue;
        }
        let cmd = command(&line.line)?;
        let request = RouteRequest::with_spec(&cmd.circuit, &cmd.graph, cmd.spec.clone());
        let router = registry.create(line.router).map_err(|e| e.to_string())?;
        let name = match line.router {
            "sabre" => "heuristics.sabre",
            "tket" => "heuristics.tket",
            _ => "heuristics.astar",
        };
        let outcome = probe.span(name, i as u64, |_| router.route_request(&request));
        let gates = |o: &RouteOutcome| o.routed().map(|r| r.added_gates());
        if answer.as_ref().and_then(gates) != gates(&outcome) {
            errors.push(format!(
                "{}: direct route differs from supervised",
                line.label
            ));
        }
    }

    // Loopback: the same lines through a fresh daemon.
    let mut served = Served::start()?;
    let mut overhead_ms = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let t = Instant::now();
        let row = served.route(&line.line)?;
        overhead_ms.push(stats::ms(t.elapsed()) - in_process_ms[i]);
        let want = answers[i].as_ref().map(|o| Answer {
            added_gates: o.routed().map_or(u64::MAX, |r| r.added_gates() as u64),
            attempts: u64::from(o.attempts()),
        });
        let hit = answers[i].as_ref().is_some_and(|o| o.telemetry().cache_hit);
        match want.map(|w| check_row(&row, &w, hit)) {
            Some(Ok(())) => {}
            Some(Err(e)) => errors.push(format!("loopback {}: {e}", line.label)),
            None => errors.push(format!("loopback {}: no in-process answer", line.label)),
        }
    }
    served.stop()?;

    let mean = |t: &Tracer, name: &str, scale: f64| {
        let (count, total) = t.total(name);
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / scale
        }
    };
    let overhead = (stats::median(&traced_s) / stats::median(&plain_s) - 1.0) * 100.0;
    let path = std::path::PathBuf::from(format!(".bench_out/trace-service_mix-seed{seed}.jsonl"));
    if let Err(e) = traced.write_jsonl(&path) {
        errors.push(format!("writing {}: {e}", path.display()));
    }
    let notes = vec![
        header(&mix),
        format!(
            "replay lines={} (warm {} + timed {REPLAY_POSITIONS}) pairs={pass} plain_pass_s={:.4} \
             traced_pass_s={:.4} spans={} -> {}",
            lines.len(),
            mix.warm.len(),
            stats::median(&plain_s),
            stats::median(&traced_s),
            traced.spans().len(),
            path.display()
        ),
        "off this workload's path (reported as 0): core.*, maxsat.*, sat.*".into(),
    ];
    let count = |v: u64| v as f64;
    let metrics = vec![
        metric("core.encode_ms", 0.0, "ms"),
        metric("core.wcnf_vars", 0.0, "count"),
        metric("core.wcnf_hard", 0.0, "count"),
        metric("core.wcnf_soft", 0.0, "count"),
        metric("core.slices", 0.0, "count"),
        metric("core.backtracks", 0.0, "count"),
        metric("maxsat.solve_ms", 0.0, "ms"),
        metric("maxsat.sat_calls", 0.0, "count"),
        metric("maxsat.strata", 0.0, "count"),
        metric("maxsat.exhaustion_steps", 0.0, "count"),
        metric("maxsat.hardened_softs", 0.0, "count"),
        metric("sat.conflicts", 0.0, "count"),
        metric("sat.decisions", 0.0, "count"),
        metric("sat.propagations", 0.0, "count"),
        metric("sat.props_per_ms", 0.0, "1/ms"),
        metric(
            "service.parse_us",
            mean(&traced, "service.parse", 1e3),
            "us",
        ),
        metric(
            "circuit.fingerprint_us",
            mean(&traced, "circuit.fingerprint", 1e3),
            "us",
        ),
        metric(
            "registry.cache_lookup_us",
            mean(&traced, "registry.cache_lookup", 1e3),
            "us",
        ),
        metric(
            "service.serialize_us",
            mean(&traced, "service.serialize", 1e3),
            "us",
        ),
        metric("registry.cache_hits", count(c.cache_hits), "count"),
        metric("registry.cache_misses", count(c.cache_misses), "count"),
        metric(
            "registry.supervise_ms",
            mean(&traced, "registry.supervise", 1e6),
            "ms",
        ),
        metric("registry.attempts", count(c.attempts), "count"),
        metric(
            "heuristics.sabre_ms",
            mean(&probe, "heuristics.sabre", 1e6),
            "ms",
        ),
        metric(
            "heuristics.tket_ms",
            mean(&probe, "heuristics.tket", 1e6),
            "ms",
        ),
        metric(
            "heuristics.astar_ms",
            mean(&probe, "heuristics.astar", 1e6),
            "ms",
        ),
        metric(
            "service.loopback_overhead_ms",
            overhead_ms.iter().sum::<f64>() / overhead_ms.len() as f64,
            "ms",
        ),
        metric(
            "circuit.verify_us",
            mean(&traced, "circuit.verify", 1e3),
            "us",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ];
    let attempted = lines.len() as u64 * pass;
    Ok(Report {
        correct: errors.is_empty(),
        attempted,
        failed: (errors.len() as u64).min(attempted),
        metrics,
        notes,
        errors,
    })
}
