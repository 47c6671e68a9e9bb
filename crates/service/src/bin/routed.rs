//! The `routed` daemon binary.
//!
//! ```text
//! routed [--addr HOST:PORT] [--workers N] [--queue N]
//!        [--outcomes N] [--fallback NAME|none]
//! ```
//!
//! Prints `listening HOST:PORT` on stdout once the socket is bound (the
//! CI e2e script reads the port from that line), then serves until a
//! client sends `drain`.

use service::{Daemon, DaemonConfig};

fn main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(why) => {
            eprintln!("routed: {why}");
            eprintln!(
                "usage: routed [--addr HOST:PORT] [--workers N] [--queue N] \
                 [--outcomes N] [--fallback NAME|none]"
            );
            std::process::exit(2);
        }
    };
    let daemon: Daemon = match Daemon::bind(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("routed: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening {}", daemon.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    daemon.join();
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:7878".into(),
        ..DaemonConfig::default()
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = Some(parse_count(&value("--workers")?, "--workers")?),
            "--queue" => config.queue_capacity = parse_count(&value("--queue")?, "--queue")?,
            "--outcomes" => {
                config.outcome_capacity = parse_size(&value("--outcomes")?, "--outcomes")?;
            }
            "--fallback" => {
                let name = value("--fallback")?;
                config.policy.fallback = (name != "none").then_some(name);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(config)
}

fn parse_count(text: &str, flag: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} must be a positive integer, got '{text}'")),
    }
}

fn parse_size(text: &str, flag: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .map_err(|_| format!("{flag} must be an integer, got '{text}'"))
}
