//! `perfbench`: the repository's benchmark. One run measures one workload
//! for a fixed time and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! replay (`--trace 1`). Any wrong answer or drifting work count makes the
//! run fail. See `NOTES.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload encode_heavy --seed 1 --seconds 10 --trace 0
//! ```

mod pin;
mod service_mix;
mod solver;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::Kind;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err(usage());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(
                    Kind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = match pin::to_first_allowed_cpu() {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("perfbench: pinning to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={} source_hash={} \
         nproc={nproc} pinned_cpu={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_HASH"),
        pinned.cpu,
    );
    let report = match (args.workload, args.trace) {
        (Kind::ServiceMix, false) => {
            service_mix::run(args.seed, args.seconds, process_start, &pinned)
        }
        (Kind::ServiceMix, true) => service_mix::run_traced(args.seed, args.seconds),
        (kind, false) => solver::run(kind, args.seed, args.seconds, process_start),
        (kind, true) => solver::run_traced(kind, args.seed, args.seconds),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        println!("# ERROR {e}");
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
