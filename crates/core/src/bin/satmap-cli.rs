//! `satmap-cli` — compile an OpenQASM 2.0 circuit onto a device.
//!
//! Reads a circuit, solves QMR with SATMAP (or a relaxation variant),
//! verifies the solution independently, and prints the physical circuit
//! (SWAPs decomposed into CNOTs) as OpenQASM.
//!
//! ```console
//! $ satmap-cli input.qasm --device tokyo --slice 25 --budget-ms 5000
//! ```
//!
//! Devices: `tokyo` (default), `tokyo-`, `tokyo+`, `linear<N>`, `grid<R>x<C>`.

use std::process::ExitCode;
use std::time::Duration;

use circuit::{verify::verify, RouteRequest, Router};
use satmap::{SatMap, SatMapConfig};

struct Options {
    input: String,
    device: String,
    slice: Option<usize>,
    budget_ms: u64,
    stats_only: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut device = "tokyo".to_string();
    let mut slice = Some(25usize);
    let mut budget_ms = 30_000u64;
    let mut stats_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--device" => device = args.next().ok_or("--device needs a value")?,
            "--slice" => {
                let v = args.next().ok_or("--slice needs a value")?;
                slice = if v == "none" {
                    None
                } else {
                    Some(v.parse().map_err(|_| format!("bad slice size '{v}'"))?)
                };
            }
            "--budget-ms" => {
                budget_ms = args
                    .next()
                    .ok_or("--budget-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad budget".to_string())?;
            }
            "--stats" => stats_only = true,
            "--help" | "-h" => return Err(
                "usage: satmap-cli <input.qasm> [--device tokyo|tokyo-|tokyo+|linearN|gridRxC] \
                           [--slice N|none] [--budget-ms MS] [--stats]"
                    .into(),
            ),
            other if input.is_none() && !other.starts_with('-') => input = Some(arg),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Options {
        input: input.ok_or("missing input file (see --help)")?,
        device,
        slice,
        budget_ms,
        stats_only,
    })
}

fn device_by_name(name: &str) -> Result<arch::ConnectivityGraph, String> {
    match name {
        "tokyo" => Ok(arch::devices::tokyo()),
        "tokyo-" => Ok(arch::devices::tokyo_minus()),
        "tokyo+" => Ok(arch::devices::tokyo_plus()),
        other => {
            if let Some(n) = other.strip_prefix("linear") {
                let n: usize = n.parse().map_err(|_| format!("bad device '{other}'"))?;
                return Ok(arch::devices::linear(n));
            }
            if let Some(spec) = other.strip_prefix("grid") {
                let (r, c) = spec
                    .split_once('x')
                    .ok_or_else(|| format!("bad device '{other}'"))?;
                let r: usize = r.parse().map_err(|_| format!("bad device '{other}'"))?;
                let c: usize = c.parse().map_err(|_| format!("bad device '{other}'"))?;
                return Ok(arch::devices::grid(r, c));
            }
            Err(format!("unknown device '{other}'"))
        }
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&options.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", options.input);
            return ExitCode::FAILURE;
        }
    };
    let logical = match circuit::qasm::parse(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let graph = match device_by_name(&options.device) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let config = SatMapConfig {
        slice_size: options.slice,
        ..SatMapConfig::default()
    };
    let router = SatMap::new(config);
    let request =
        RouteRequest::new(&logical, &graph).with_budget(Duration::from_millis(options.budget_ms));
    let start = std::time::Instant::now();
    let outcome = router.route_request(&request);
    let routed = match outcome.into_result() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("routing failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = verify(&logical, &graph, &routed) {
        eprintln!("internal error: verifier rejected solution: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "routed {} ({} qubits, {} two-qubit gates) onto {} in {:.2?}: {} swaps, {} added CNOTs",
        options.input,
        logical.num_qubits(),
        logical.num_two_qubit_gates(),
        graph.name(),
        start.elapsed(),
        routed.swap_count(),
        routed.added_gates()
    );
    eprintln!("initial map: {:?}", routed.initial_map());
    if !options.stats_only {
        let physical = routed.to_physical_circuit(&logical, graph.num_qubits());
        print!("{}", circuit::qasm::print(&physical));
    }
    ExitCode::SUCCESS
}
