//! Chaos tests: a panic injected under the daemon's SAT stack must degrade
//! that one request — never kill the daemon, never poison the cache with
//! the degraded answer — and the daemon's `stats` must count every
//! attempt that panicked.
//!
//! Follows the registry chaos-suite idiom: the process-global
//! [`FaultPlan`] is installed under a scope guard that restores the
//! previous plan even on assertion failure. This file is its own test
//! binary, so the plan cannot leak into unrelated tests.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use circuit::{Circuit, RouteRequest};
use routers::{RoutePolicy, RouterRegistry};
use sat::chaos::{install_plan, silence_panic_reports};
use sat::{ChaosBackend, DefaultBackend, FaultPlan};
use service::wire::{self, parse_json};
use service::{Daemon, DaemonConfig};

/// The supervised SAT stack with fault injection at the solver boundary.
type ChaosStack = ChaosBackend<DefaultBackend>;

/// Serializes every test that touches the process-global fault plan.
static PLAN_GUARD: Mutex<()> = Mutex::new(());

/// Restores the previously installed plan when dropped.
struct PlanScope {
    prev: Option<FaultPlan>,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        install_plan(self.prev.take());
    }
}

fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    let lock = PLAN_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    silence_panic_reports();
    let _scope = PlanScope {
        prev: install_plan(Some(plan)),
        _lock: lock,
    };
    f()
}

fn fig3() -> Circuit {
    let mut c = Circuit::new(4);
    c.cx(0, 1);
    c.cx(0, 2);
    c.cx(3, 2);
    c.cx(0, 3);
    c
}

#[test]
fn daemon_survives_injected_worker_panics_without_poisoning_the_cache() {
    // Fault-free reference cost, computed before any plan is installed.
    let reference = RouterRegistry::standard()
        .route(
            "satmap",
            &RouteRequest::new(&fig3(), &arch::devices::linear(4)),
        )
        .expect("known router")
        .routed()
        .expect("fault-free satmap solves fig3")
        .swap_count();

    // Tight backoffs so the retry ladder burns milliseconds, not seconds.
    let daemon: Daemon<ChaosStack> = Daemon::bind(DaemonConfig {
        workers: Some(1),
        policy: RoutePolicy {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..RoutePolicy::default()
        },
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut client = service::ServiceClient::connect(daemon.local_addr()).expect("connect");
    let line = wire::route_line("satmap", "linear:4", &fig3(), &[]);

    // Phase 1: every SAT call panics. The supervisor's ladder exhausts and
    // degrades to the heuristic fallback — the daemon answers and lives.
    let chaos_row = with_plan(FaultPlan::seeded(0xC0FFEE).panic_prob(1.0), || {
        let id = client.submit_route(&line).expect("submit").id();
        client.wait(id).expect("an outcome, not a dead daemon")
    });
    let v = parse_json(&chaos_row).expect("row parses");
    assert_eq!(
        v.get("solved").and_then(|s| s.as_bool()),
        Some(true),
        "the fallback heuristic still routes: {chaos_row}"
    );
    assert_eq!(
        v.get("quality").and_then(|q| q.as_str()),
        Some("degraded"),
        "a panic-exhausted ladder must stamp the degraded quality: {chaos_row}"
    );
    assert_eq!(
        v.get("cache_hit").and_then(|h| h.as_bool()),
        Some(false),
        "{chaos_row}"
    );

    // Phase 2: plan restored. The identical request must NOT replay the
    // degraded answer — unproven outcomes are never memoized — and now
    // proves the fault-free optimum.
    let id = client.submit_route(&line).expect("submit").id();
    let clean_row = client.wait(id).expect("outcome");
    let v = parse_json(&clean_row).expect("row parses");
    assert_eq!(
        v.get("cache_hit").and_then(|h| h.as_bool()),
        Some(false),
        "the degraded outcome must not have been admitted to the cache: {clean_row}"
    );
    assert_eq!(
        v.get("quality").and_then(|q| q.as_str()),
        Some("optimal"),
        "{clean_row}"
    );
    assert_eq!(
        v.get("swaps").and_then(|s| s.as_u64()),
        Some(reference as u64),
        "{clean_row}"
    );

    // Both requests completed as solved; the daemon drains cleanly.
    let stats_row = client.stats().expect("stats");
    let stats = parse_json(&stats_row).expect("row");
    assert_eq!(
        stats.get("completed").and_then(|c| c.as_u64()),
        Some(2),
        "{stats_row}"
    );
    assert_eq!(
        stats.get("solved").and_then(|s| s.as_u64()),
        Some(2),
        "{stats_row}"
    );
    assert_eq!(
        stats.get("failed").and_then(|f| f.as_u64()),
        Some(0),
        "{stats_row}"
    );
    client.drain().expect("drain");
    daemon.join();
}

#[test]
fn daemon_stats_count_every_panicked_attempt() {
    // Every SAT call panics: each attempt of the supervisor's ladder is
    // caught, and the fallback answers. The outcome row and the daemon's
    // `stats` must both count all of them.
    let policy = RoutePolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RoutePolicy::default()
    };
    let max_attempts = u64::from(policy.max_attempts);
    let daemon: Daemon<ChaosStack> = Daemon::bind(DaemonConfig {
        workers: Some(1),
        policy,
        ..DaemonConfig::default()
    })
    .expect("bind");
    let mut client = service::ServiceClient::connect(daemon.local_addr()).expect("connect");
    let line = wire::route_line("nl-satmap", "linear:4", &fig3(), &[]);
    let (row, stats_row) = with_plan(FaultPlan::seeded(0xBAD).panic_prob(1.0), || {
        let id = client.submit_route(&line).expect("submit").id();
        let row = client.wait(id).expect("an outcome, not a dead daemon");
        (row, client.stats().expect("stats"))
    });
    let v = parse_json(&row).expect("row parses");
    assert_eq!(
        v.get("solved").and_then(|s| s.as_bool()),
        Some(true),
        "{row}"
    );
    assert_eq!(
        v.get("worker_panics").and_then(|p| p.as_u64()),
        Some(max_attempts),
        "{row}"
    );
    let stats = parse_json(&stats_row).expect("stats row parses");
    assert_eq!(
        stats.get("worker_panics").and_then(|p| p.as_u64()),
        Some(max_attempts),
        "{stats_row}"
    );
    client.drain().expect("drain");
    daemon.join();
}
