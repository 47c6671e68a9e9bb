//! Shared fixtures for the criterion benchmarks in `benches/`, plus the
//! machine-readable report writer.
//!
//! Each benchmark group corresponds to one table or figure of the SATMAP
//! paper (scaled down so `cargo bench` terminates in minutes; the full
//! regeneration lives in the `satmap-experiments` binary). After all
//! groups run, the harness calls [`write_bench_json`] to emit
//! `BENCH_satmap.json` — per-benchmark and per-group median nanoseconds
//! plus one Fig. 3 outcome row per router — so the perf trajectory is
//! comparable PR-over-PR without parsing stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::time::Duration;

use circuit::request::escape_json;
use circuit::Circuit;
use criterion::BenchResult;

/// Per-call budget used by constraint-based routers inside benchmarks.
/// Overridable via `SATMAP_BENCH_BUDGET_MS` (CI uses a smaller value for
/// its smoke run).
pub fn bench_budget() -> Duration {
    let ms = std::env::var("SATMAP_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500u64);
    Duration::from_millis(ms)
}

/// A small fixed workload set representative of the paper's suite.
pub fn small_workloads() -> Vec<Circuit> {
    vec![
        circuit::generators::qft(4),
        circuit::generators::graycode(6),
        circuit::generators::random_local(5, 10, 4, 0.2, 1),
        circuit::generators::ising_model(6, 1),
    ]
}

/// The paper's Fig. 3 running example.
pub fn fig3() -> Circuit {
    let mut c = Circuit::new(4);
    c.cx(0, 1);
    c.cx(0, 2);
    c.cx(3, 2);
    c.cx(0, 3);
    c
}

/// The mutate-one-gate family behind the `warmstart` bench group: the
/// Fig. 3 running example plus two variants that each change exactly one
/// gate — the "edit a circuit, re-route it" pattern the encode/solve
/// split and the route cache are built for.
pub fn fig3_mutants() -> Vec<Circuit> {
    let base = fig3();
    let mut swap_target = Circuit::new(4);
    swap_target.cx(0, 1);
    swap_target.cx(0, 2);
    swap_target.cx(3, 2);
    swap_target.cx(1, 3);
    let mut swap_middle = Circuit::new(4);
    swap_middle.cx(0, 1);
    swap_middle.cx(0, 2);
    swap_middle.cx(1, 2);
    swap_middle.cx(0, 3);
    vec![base, swap_target, swap_middle]
}

/// Default output path of the bench report: `BENCH_satmap.json` at the
/// workspace root (bench binaries run with the *package* directory as
/// cwd, so a bare relative path would land in `crates/bench/`).
/// `SATMAP_BENCH_JSON` overrides it entirely.
pub fn bench_json_path() -> std::path::PathBuf {
    if let Some(p) = std::env::var_os("SATMAP_BENCH_JSON") {
        return p.into();
    }
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .join("BENCH_satmap.json")
}

/// Routes the Fig. 3 running example through every registered router and
/// returns one [`circuit::RouteOutcome::to_json`] row per router — the
/// same row schema the experiment sweeps emit via `SATMAP_ROWS_JSON`, so
/// the bench report and the sweeps stay machine-comparable.
pub fn route_rows() -> Vec<String> {
    let registry = routers::RouterRegistry::standard();
    let circuit = fig3();
    let graph = arch::devices::tokyo_minus();
    registry
        .names()
        .into_iter()
        .map(|name| {
            let request = circuit::RouteRequest::new(&circuit, &graph).with_budget(bench_budget());
            registry
                .route(name, &request)
                .expect("registered name")
                .to_json()
        })
        .collect()
}

/// Drains the results criterion collected and writes `BENCH_satmap.json`.
///
/// Layout: `benchmarks` maps every full benchmark id to its median ns;
/// `groups` maps each group (the id segment before the first `/`) to the
/// median over its members' medians; `routes` holds one Fig. 3 outcome
/// row per registered router in the shared
/// [`circuit::RouteOutcome::to_json`] schema.
///
/// # Errors
///
/// Propagates I/O failures from writing the report file.
pub fn write_bench_json() -> std::io::Result<std::path::PathBuf> {
    let results = criterion::take_results();
    let path = bench_json_path();
    let mut file = std::fs::File::create(&path)?;
    file.write_all(render_report(&results, &route_rows()).as_bytes())?;
    Ok(path)
}

/// Renders the report (see [`write_bench_json`]) as a JSON string.
pub fn render_report(results: &[BenchResult], route_rows: &[String]) -> String {
    let mut out = String::from("{\n  \"schema_version\": 2,\n  \"benchmarks\": {");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {}",
            escape_json(&r.id),
            r.median_ns
        ));
    }
    out.push_str("\n  },\n  \"groups\": {");

    let mut groups: Vec<(String, Vec<u128>)> = Vec::new();
    for r in results {
        let group = r.id.split('/').next().unwrap_or(&r.id).to_string();
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, medians)) => medians.push(r.median_ns),
            None => groups.push((group, vec![r.median_ns])),
        }
    }
    for (i, (group, medians)) in groups.iter_mut().enumerate() {
        medians.sort_unstable();
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {}",
            escape_json(group),
            medians[medians.len() / 2]
        ));
    }
    out.push_str("\n  },\n  \"routes\": [");
    for (i, row) in route_rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(row);
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_includes_benchmarks_and_group_medians() {
        let results = vec![
            BenchResult {
                id: "q1/satmap/fig3".into(),
                median_ns: 30,
            },
            BenchResult {
                id: "q1/tket/fig3".into(),
                median_ns: 10,
            },
            BenchResult {
                id: "solo".into(),
                median_ns: 5,
            },
        ];
        let json = render_report(&results, &[]);
        assert!(json.contains("\"q1/satmap/fig3\": 30"));
        assert!(json.contains("\"q1\": 30"), "group median of 10,30 is 30");
        assert!(json.contains("\"solo\": 5"));
        // Minimal well-formedness: balanced braces, no trailing comma.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn empty_report_is_valid() {
        let json = render_report(&[], &[]);
        assert!(json.contains("\"benchmarks\": {\n  }"));
        assert!(json.contains("\"routes\": [\n  ]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn route_rows_cover_every_registered_router() {
        let rows = route_rows();
        assert_eq!(
            rows.len(),
            routers::RouterRegistry::standard().names().len()
        );
        for row in &rows {
            assert!(row.starts_with("{\"router\":\""), "{row}");
            assert_eq!(row.matches('{').count(), row.matches('}').count());
        }
        let json = render_report(&[], &rows);
        assert!(json.contains("\"routes\": [\n    {\"router\":"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
