//! Shared experiment infrastructure: request specs, tool invocation,
//! verified outcomes, multi-core suite sweeps, JSON row emission, and
//! small table-formatting helpers.
//!
//! Every route call goes through a [`circuit::RouteRequest`] built from
//! one [`RouteSpec`] per sweep, so the per-instance budget, objective, and
//! search strategy are properties of the *run*, not of the router — the
//! routers themselves come out of [`routers::RouterRegistry`] as
//! `Box<dyn Router>`.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use arch::ConnectivityGraph;
use circuit::request::escape_json;
use circuit::suite::Benchmark;
use circuit::{verify::verify, RouteError, RouteRequest, RouteSpec, Router};
use sat::SolverTelemetry;

/// Result of running one tool on one benchmark.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Benchmark name.
    pub name: String,
    /// Two-qubit gate count (the paper's circuit-size measure).
    pub size: usize,
    /// Name of the router that served the request.
    pub router: String,
    /// Added CNOT gates (3 per SWAP) if solved.
    pub cost: Option<usize>,
    /// Wall-clock time of the attempt.
    pub seconds: f64,
    /// Solver effort spent by the attempt (zero for pure heuristics).
    pub telemetry: SolverTelemetry,
    /// Error, when unsolved.
    pub error: Option<RouteError>,
    /// The row in the shared JSON schema (see [`circuit::RouteOutcome::to_json`]),
    /// extended with `bench` and `size` fields.
    pub json: String,
}

impl RunOutcome {
    /// True when the tool produced a verified solution.
    pub fn solved(&self) -> bool {
        self.cost.is_some()
    }
}

/// Per-instance time budget taken from `SATMAP_BUDGET_MS` (default 2000).
pub fn env_budget() -> Duration {
    let ms = std::env::var("SATMAP_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000u64);
    Duration::from_millis(ms)
}

/// Worker-thread count for suite sweeps, taken from `SATMAP_JOBS`
/// (default 1; the `satmap-experiments --jobs N` flag sets it).
pub fn env_jobs() -> usize {
    std::env::var("SATMAP_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// The sweep spec the experiment runners share: the `SATMAP_BUDGET_MS`
/// per-instance budget.
pub fn env_spec() -> RouteSpec {
    RouteSpec {
        budget: env_budget().into(),
        ..RouteSpec::default()
    }
}

/// Benchmark-count cap from `SATMAP_SUITE_LIMIT` (default: full suite).
/// When capped, the suite is subsampled uniformly so all size tiers stay
/// represented.
pub fn env_suite() -> Vec<Benchmark> {
    let full = circuit::suite::suite();
    let limit: usize = std::env::var("SATMAP_SUITE_LIMIT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(full.len());
    if limit >= full.len() {
        return full;
    }
    let stride = full.len() as f64 / limit as f64;
    (0..limit)
        .map(|i| full[(i as f64 * stride) as usize].clone())
        .collect()
}

/// Runs `router` on one benchmark under `spec`, verifying any claimed
/// solution with the independent verifier. A solution that fails
/// verification is treated as unsolved (and flagged in the outcome's
/// error).
pub fn run_tool(
    router: &dyn Router,
    bench: &Benchmark,
    graph: &ConnectivityGraph,
    spec: &RouteSpec,
) -> RunOutcome {
    let request = RouteRequest::with_spec(&bench.circuit, graph, spec.clone());
    let outcome = router.route_request(&request);
    let size = bench.circuit.num_two_qubit_gates();
    let (cost, error) = match outcome.result() {
        Ok(routed) => match verify(&bench.circuit, graph, routed) {
            Ok(()) => (Some(routed.added_gates()), None),
            Err(e) => (
                None,
                Some(RouteError::Unsatisfiable(format!(
                    "verification failed: {e}"
                ))),
            ),
        },
        // Effort spent on failed attempts still counts toward the
        // solver-effort tables.
        Err(e) => (None, Some(e.clone())),
    };
    // Render the JSON row from the *verified* status, so a solution the
    // verifier rejected is not reported as solved. Diagnostics, telemetry,
    // and timing carry over unchanged; only the rare rejected path pays
    // for an outcome clone.
    let row = match (&error, outcome.solved()) {
        (Some(e), true) => outcome.clone().with_result(Err(e.clone())).to_json(),
        _ => outcome.to_json(),
    };
    let json = format!(
        "{{\"bench\":\"{}\",\"size\":{},{}",
        escape_json(&bench.name),
        size,
        &row[1..]
    );
    RunOutcome {
        name: bench.name.clone(),
        size,
        router: outcome.router().to_string(),
        cost,
        seconds: outcome.wall_time().as_secs_f64(),
        telemetry: *outcome.telemetry(),
        error,
        json,
    }
}

/// Runs `router` over the whole suite on `jobs` worker threads pulling
/// from a shared instance queue ([`std::thread::scope`]; `jobs = 1` runs
/// inline with no threads).
///
/// Results land at their benchmark's index, so the output order — and
/// therefore every table derived from it — is identical for any job count.
/// Each [`run_tool`] call arms its own per-instance budget as a fresh
/// request, so parallel workers neither share nor extend deadlines. Each
/// request solves on the worker that took it, so `jobs` only sets how
/// many cores the sweep keeps busy.
///
/// When `SATMAP_ROWS_JSON` names a file, one JSON object per row is
/// appended to it (NDJSON) in suite order — the same row schema
/// `BENCH_satmap.json` embeds (see [`circuit::RouteOutcome::to_json`]),
/// each stamped with its suite index as `request_id`.
pub fn run_suite(
    router: &(dyn Router + Sync),
    suite: &[Benchmark],
    graph: &ConnectivityGraph,
    spec: &RouteSpec,
    jobs: usize,
) -> Vec<RunOutcome> {
    let jobs = jobs.clamp(1, suite.len().max(1));
    let outcomes: Vec<RunOutcome> = if jobs == 1 {
        suite
            .iter()
            .enumerate()
            .map(|(i, b)| run_tool(router, b, graph, &spec_for_row(spec, i)))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunOutcome>>> =
            suite.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(bench) = suite.get(i) else { break };
                    let outcome = run_tool(router, bench, graph, &spec_for_row(spec, i));
                    *slots[i].lock().expect("result slot") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every queue index was claimed by exactly one worker")
            })
            .collect()
    };
    if let Err(e) = append_json_rows(&outcomes) {
        eprintln!("warning: could not write SATMAP_ROWS_JSON rows: {e}");
    }
    outcomes
}

/// The spec for suite row `i`: stamped with the row's index as its
/// request id, so every emitted JSON row is traceable back to its
/// benchmark position. The id is excluded from the request fingerprint,
/// so stamping never splits warm-start or cache keys.
fn spec_for_row(spec: &RouteSpec, i: usize) -> RouteSpec {
    RouteSpec {
        request_id: Some(i as u64),
        ..spec.clone()
    }
}

/// Appends each outcome's JSON row to the `SATMAP_ROWS_JSON` file (no-op
/// when the variable is unset).
fn append_json_rows(outcomes: &[RunOutcome]) -> std::io::Result<()> {
    let Some(path) = std::env::var_os("SATMAP_ROWS_JSON") else {
        return Ok(());
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for o in outcomes {
        writeln!(file, "{}", o.json)?;
    }
    Ok(())
}

/// Sums the solver effort across a set of outcomes.
pub fn total_telemetry(outcomes: &[RunOutcome]) -> SolverTelemetry {
    let mut total = SolverTelemetry::default();
    for o in outcomes {
        total.absorb(&o.telemetry);
    }
    total
}

/// Summary over a set of outcomes: `(solved, largest circuit solved)`.
pub fn solved_summary(outcomes: &[RunOutcome]) -> (usize, usize) {
    let solved = outcomes.iter().filter(|o| o.solved()).count();
    let largest = outcomes
        .iter()
        .filter(|o| o.solved())
        .map(|o| o.size)
        .max()
        .unwrap_or(0);
    (solved, largest)
}

/// Geometric-mean helper ignoring non-finite entries.
pub fn mean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    finite.iter().sum::<f64>() / finite.len() as f64
}

/// Formats a row of fixed-width cells.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Serializes tests that mutate the process environment.
#[cfg(test)]
pub(crate) static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use routers::RouterRegistry;

    fn registry() -> RouterRegistry {
        RouterRegistry::standard()
    }

    #[test]
    fn run_tool_verifies_and_reports() {
        let bench = Benchmark {
            name: "tiny".into(),
            circuit: circuit::generators::qft(4),
        };
        let g = arch::devices::tokyo();
        let tket = registry().create("tket").expect("registered");
        let out = run_tool(tket.as_ref(), &bench, &g, &RouteSpec::default());
        assert!(out.solved());
        assert_eq!(out.size, 12);
        assert_eq!(out.router, "tket");
        assert!(
            out.cost.expect("cost").is_multiple_of(3),
            "cost counts CNOTs per swap"
        );
        // A heuristic spends no solver effort.
        assert_eq!(out.telemetry.sat_calls, 0);
        assert!(out.json.starts_with("{\"bench\":\"tiny\",\"size\":12,"));
        assert!(out.json.contains("\"router\":\"tket\""));
    }

    #[test]
    fn run_tool_reports_solver_effort_for_sat_routers() {
        let bench = Benchmark {
            name: "tiny".into(),
            circuit: circuit::generators::qft(3),
        };
        let g = arch::devices::tokyo();
        let satmap = registry().create("nl-satmap").expect("registered");
        let out = run_tool(satmap.as_ref(), &bench, &g, &RouteSpec::default());
        assert!(out.solved());
        assert!(out.telemetry.sat_calls > 0, "{}", out.telemetry);
        let total = total_telemetry(std::slice::from_ref(&out));
        assert_eq!(total.sat_calls, out.telemetry.sat_calls);
    }

    #[test]
    fn summary_counts() {
        let stub = |name: &str, size, cost, error| RunOutcome {
            name: name.into(),
            size,
            router: "stub".into(),
            cost,
            seconds: 0.1,
            telemetry: SolverTelemetry::default(),
            error,
            json: String::new(),
        };
        let outcomes = vec![
            stub("a", 10, Some(3), None),
            stub("b", 99, None, Some(RouteError::Timeout)),
        ];
        assert_eq!(solved_summary(&outcomes), (1, 10));
    }

    #[test]
    fn mean_ignores_nan() {
        assert!((mean(&[1.0, 3.0, f64::NAN]) - 2.0).abs() < 1e-9);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn run_suite_rows_are_identical_for_any_job_count() {
        // run_suite reads SATMAP_ROWS_JSON; hold the env lock so the
        // JSON-row test cannot interleave its env mutation with this run.
        let _guard = super::ENV_LOCK.lock().expect("env lock");
        let suite: Vec<Benchmark> = (3..=6)
            .map(|n| Benchmark {
                name: format!("qft{n}"),
                circuit: circuit::generators::qft(n),
            })
            .collect();
        let g = arch::devices::tokyo();
        // Unlimited budget keeps the router deterministic (always optimal),
        // so everything except wall-clock must match byte-for-byte.
        let router = registry().create("satmap").expect("registered");
        let spec = RouteSpec {
            slicing: circuit::Slicing::Sliced(4),
            ..RouteSpec::default()
        };
        let serial = run_suite(&*router, &suite, &g, &spec, 1);
        let parallel = run_suite(&*router, &suite, &g, &spec, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name, "row order must not depend on --jobs");
            assert_eq!(s.size, p.size);
            assert_eq!(s.cost, p.cost, "{}: costs must match", s.name);
            assert_eq!(s.error, p.error);
        }
    }

    #[test]
    fn run_suite_appends_json_rows() {
        let _guard = super::ENV_LOCK.lock().expect("env lock");
        let path = std::env::temp_dir().join(format!("satmap_rows_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("SATMAP_ROWS_JSON", &path);
        let suite = vec![Benchmark {
            name: "qft3".into(),
            circuit: circuit::generators::qft(3),
        }];
        let g = arch::devices::tokyo();
        let tket = registry().create("tket").expect("registered");
        run_suite(&*tket, &suite, &g, &RouteSpec::default(), 1);
        run_suite(&*tket, &suite, &g, &RouteSpec::default(), 1);
        std::env::remove_var("SATMAP_ROWS_JSON");
        let text = std::fs::read_to_string(&path).expect("rows written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one object per row, appended across runs");
        for line in lines {
            assert!(line.starts_with("{\"bench\":\"qft3\""));
            assert!(line.ends_with("}}"));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn env_jobs_defaults_and_parses() {
        let _guard = super::ENV_LOCK.lock().expect("env lock");
        std::env::remove_var("SATMAP_JOBS");
        assert_eq!(env_jobs(), 1);
        std::env::set_var("SATMAP_JOBS", "4");
        assert_eq!(env_jobs(), 4);
        std::env::set_var("SATMAP_JOBS", "0");
        assert_eq!(env_jobs(), 1, "zero jobs falls back to serial");
        std::env::remove_var("SATMAP_JOBS");
    }

    #[test]
    fn env_suite_subsamples() {
        let _guard = super::ENV_LOCK.lock().expect("env lock");
        std::env::set_var("SATMAP_SUITE_LIMIT", "16");
        let s = env_suite();
        assert_eq!(s.len(), 16);
        std::env::remove_var("SATMAP_SUITE_LIMIT");
    }
}
