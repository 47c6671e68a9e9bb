//! The `routed` daemon: accept loop, worker pool, admission control,
//! per-request abort, drain.
//!
//! # Anatomy
//!
//! ```text
//! TCP accept loop ─► one reader thread per connection
//!                      │  parse line (wire) ── error row on bad JSON
//!                      │  route: resolve router, validate, estimate
//!                      │    ├─ reject (InvalidRequest row)
//!                      │    ├─ shed   (Overloaded row; estimate or full queue)
//!                      │    └─ admit  (ack row with the server-assigned id)
//!                      ▼
//!            BoundedQueue<Job> ─► worker pool (N threads)
//!                                   cache.lookup ─► supervisor.route ─► cache.admit
//!                                   outcome row ─► the job's connection
//! ```
//!
//! Everything is `std::net` + threads: the daemon serves a handful of
//! long-lived clients doing CPU-bound solves, so a blocking reader thread
//! per connection costs nothing that matters and keeps the crate free of
//! an async runtime.
//!
//! # Admission control
//!
//! A `route` line is admitted, rejected, or shed *before* any encode or
//! solve work, in O(request size): unknown routers and impossible
//! circuits bounce as `InvalidRequest`; requests that fail the
//! supervisor's admission rule ([`routers::admission_verdict`]: a
//! budgeted encoding-based route whose size estimate exceeds the
//! policy's admission limit) are shed as
//! [`RouteError::Overloaded`], as is everything when the work
//! queue is full or the daemon is draining. Shedding at the door is the
//! service-level choice: under overload the daemon answers cheaply and
//! keeps latency bounded instead of queueing heuristic-degraded answers.
//!
//! # Abort and drain
//!
//! Every admitted request gets a server-assigned id (acked to the client)
//! and a [`sat::CancelToken`] registered in a [`sat::CancelRegistry`];
//! `abort <id>` fires the token from any connection. The supervisor
//! notices between solver checkpoints and answers
//! [`RouteError::Cancelled`] without burning retries or fallback work.
//! `drain` stops admissions, lets queued and in-flight work finish,
//! reports, and shuts the daemon down.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use circuit::{escape_json, RouteError, RouteOutcome, RouteRequest};
use routers::{RouteCache, RoutePolicy, RouteSupervisor, RouterRegistry, StandardBackend};
use sat::{CancelRegistry, SatBackend, SolverTelemetry};

use crate::queue::BoundedQueue;
use crate::stats::ServiceStats;
use crate::wire::{self, Request, RouteCommand, WireError};

/// Construction knobs for a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free one (read it back with
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Worker-pool width; `None` runs one worker per available core. Each
    /// worker routes one request at a time on its own thread.
    pub workers: Option<usize>,
    /// Work-queue capacity; a full queue sheds.
    pub queue_capacity: usize,
    /// Retry/escalation/admission policy for the shared supervisor.
    pub policy: RoutePolicy,
    /// Route-cache memo capacity (see [`routers::RouteCache`]).
    pub outcome_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            workers: None,
            queue_capacity: 64,
            policy: RoutePolicy::default(),
            outcome_capacity: routers::DEFAULT_OUTCOME_CAPACITY,
        }
    }
}

/// One admitted unit of work: the decoded command, the server-assigned
/// id (already stamped into the spec), and the connection to answer on.
struct Job {
    id: u64,
    command: RouteCommand,
    writer: LineWriter,
}

/// A connection's write half, shared between its reader thread (acks,
/// stats) and whichever worker finishes its jobs. Rows are written as
/// one locked `write_all` each, so concurrent writers interleave whole
/// lines, never bytes.
type LineWriter = Arc<Mutex<TcpStream>>;

fn write_line(writer: &LineWriter, row: &str) {
    let mut line = String::with_capacity(row.len() + 1);
    line.push_str(row);
    line.push('\n');
    let mut stream = match writer.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    // A vanished client is not a daemon error; drop the row.
    let _ = stream.write_all(line.as_bytes());
}

struct Shared<B: SatBackend + Default + Send + 'static> {
    supervisor: RouteSupervisor<B>,
    cache: RouteCache,
    queue: BoundedQueue<Job>,
    stats: ServiceStats,
    cancels: CancelRegistry,
    next_id: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    workers: usize,
}

/// A running routing daemon. Generic over the SAT backend its SATMAP
/// solves run on — the default is the registry's standard backend;
/// chaos tests substitute a fault-injecting one.
///
/// # Examples
///
/// ```
/// use service::{Daemon, DaemonConfig, ServiceClient};
///
/// let daemon: Daemon = Daemon::bind(DaemonConfig {
///     workers: Some(1),
///     ..DaemonConfig::default()
/// })?;
/// let mut client = ServiceClient::connect(daemon.local_addr())?;
///
/// let mut c = circuit::Circuit::new(2);
/// c.cx(0, 1);
/// let line = service::wire::route_line("sabre", "linear:2", &c, &[]);
/// let id = client.submit_route(&line)?.id();
/// let row = client.wait(id)?;
/// assert!(row.contains("\"solved\":true"));
///
/// client.drain()?;
/// daemon.join();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Daemon<B: SatBackend + Default + Send + 'static = StandardBackend> {
    shared: Arc<Shared<B>>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: SatBackend + Default + Send + 'static> Daemon<B> {
    /// Binds the listener, spawns the worker pool and the accept loop,
    /// and returns the running daemon.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn bind(config: DaemonConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let worker_count = config
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1);
        let shared = Arc::new(Shared {
            supervisor: RouteSupervisor::with_registry_and_policy(
                RouterRegistry::standard(),
                config.policy,
            ),
            cache: RouteCache::with_capacities(RouterRegistry::standard(), config.outcome_capacity),
            queue: BoundedQueue::new(config.queue_capacity),
            stats: ServiceStats::default(),
            cancels: CancelRegistry::default(),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            workers: worker_count,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("routed-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("routed-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawning the accept thread")
        };
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The address the daemon actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic drain: stop admitting, finish queued and in-flight
    /// work, release the accept loop and the workers. The client-side
    /// `drain` verb does exactly this (plus a report row). Idempotent.
    pub fn drain(&self) {
        drain_and_release(&self.shared);
    }

    /// Waits for the accept loop and every worker to exit — i.e. until
    /// someone drains the daemon (a client's `drain` verb or
    /// [`Daemon::drain`]).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn drain_and_release<B: SatBackend + Default + Send + 'static>(shared: &Shared<B>) {
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue.close();
    while !shared.queue.is_empty() || shared.stats.in_flight() > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    shared.shutdown.store(true, Ordering::SeqCst);
}

fn accept_loop<B: SatBackend + Default + Send + 'static>(
    listener: &TcpListener,
    shared: &Arc<Shared<B>>,
) {
    // Nonblocking + poll so the loop can notice shutdown without a
    // connection arriving. 5ms is imperceptible next to a solve.
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("routed-conn".into())
                    .spawn(move || serve_connection(&shared, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_connection<B: SatBackend + Default + Send + 'static>(
    shared: &Arc<Shared<B>>,
    stream: TcpStream,
) {
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let _ = stream.set_nodelay(true);
    let writer: LineWriter = Arc::new(Mutex::new(stream));
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match wire::parse_request(&line) {
            Err(e) => write_line(&writer, &error_row(&e)),
            Ok(Request::Route(command)) => handle_route(shared, *command, &writer),
            Ok(Request::Abort { request_id }) => {
                let aborted = shared.cancels.cancel(request_id);
                if aborted {
                    shared.stats.abort_hit();
                }
                write_line(
                    &writer,
                    &format!(
                        "{{\"type\":\"abort\",\"request_id\":{request_id},\"aborted\":{aborted}}}"
                    ),
                );
            }
            Ok(Request::Stats) => write_line(&writer, &stats_row(shared)),
            Ok(Request::Drain) => {
                drain_and_release(shared);
                write_line(
                    &writer,
                    &format!(
                        "{{\"type\":\"drain\",\"completed\":{},\"shed\":{}}}",
                        shared.stats.completed(),
                        shared.stats.shed()
                    ),
                );
                break;
            }
        }
    }
}

fn handle_route<B: SatBackend + Default + Send + 'static>(
    shared: &Arc<Shared<B>>,
    mut command: RouteCommand,
    writer: &LineWriter,
) {
    shared.stats.route_received();
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    command.spec.request_id = Some(id);

    // Door checks, all O(request size): router name, request validity,
    // predicted encoding size. No solver work has been paid for yet.
    let canonical = match shared.cache.registry().canonical(&command.router) {
        Ok(canonical) => canonical,
        Err(unknown) => {
            shared.stats.route_rejected();
            write_line(
                writer,
                &door_row(
                    &command.router,
                    id,
                    RouteError::InvalidRequest(unknown.to_string()),
                ),
            );
            return;
        }
    };
    let request = RouteRequest::with_spec(&command.circuit, &command.graph, command.spec.clone());
    if let Err(e) = request.validate() {
        shared.stats.route_rejected();
        write_line(writer, &door_row(&command.router, id, e));
        return;
    }
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.route_shed();
        write_line(
            writer,
            &door_row(
                &command.router,
                id,
                RouteError::Overloaded("daemon is draining".into()),
            ),
        );
        return;
    }
    let limit = shared.supervisor.policy().admission_limit;
    if let Err(shed) = routers::admission_verdict(canonical, &request, limit) {
        shared.stats.route_shed();
        write_line(writer, &door_row(&command.router, id, shed));
        return;
    }
    drop(request);

    // Admitted: attach the abort handle, then enqueue. The ack is written
    // under the connection's write lock *before* the queue push so no
    // worker can emit the outcome row first.
    let (budget, token) = command.spec.budget.cancellable();
    command.spec.budget = budget;
    shared.cancels.insert(id, token);
    let job = Job {
        id,
        command,
        writer: Arc::clone(writer),
    };
    {
        let mut stream = match writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        match shared.queue.try_push(job) {
            Ok(()) => {
                shared.stats.route_admitted();
                let _ = stream
                    .write_all(format!("{{\"type\":\"ack\",\"request_id\":{id}}}\n").as_bytes());
            }
            Err(job) => {
                shared.cancels.complete(id);
                shared.stats.route_shed();
                let row = door_row(
                    &job.command.router,
                    id,
                    RouteError::Overloaded("work queue is full".into()),
                );
                let _ = stream.write_all(format!("{row}\n").as_bytes());
            }
        }
    }
}

fn worker_loop<B: SatBackend + Default + Send + 'static>(shared: &Arc<Shared<B>>) {
    while let Some(job) = shared.queue.pop() {
        shared.stats.enter_flight();
        let outcome = serve_job(shared, &job);
        shared.cancels.complete(job.id);
        // Settle the accounting before publishing the row: a client that
        // has seen its outcome must find it reflected in `stats`.
        shared.stats.finish_flight(&outcome);
        write_line(&job.writer, &outcome_row(&outcome));
    }
}

fn serve_job<B: SatBackend + Default + Send + 'static>(
    shared: &Shared<B>,
    job: &Job,
) -> RouteOutcome {
    let command = &job.command;
    let request = RouteRequest::with_spec(&command.circuit, &command.graph, command.spec.clone());
    // Identical earlier answer? Serve it without solving (re-stamped with
    // this request's id by lookup).
    match shared.cache.lookup(&command.router, &request) {
        Ok(Some(hit)) => return hit,
        Ok(None) => {}
        Err(unknown) => {
            return failure_outcome(
                &command.router,
                job.id,
                RouteError::InvalidRequest(unknown.to_string()),
            )
        }
    }
    // The supervisor owns retries, degradation, and per-attempt panic
    // isolation; this outer boundary only guards daemon-level bugs so a
    // worker thread can never die.
    let served = catch_unwind(AssertUnwindSafe(|| {
        shared.supervisor.route(&command.router, &request)
    }));
    match served {
        Ok(Ok(outcome)) => {
            let _ = shared.cache.admit(&command.router, &request, &outcome);
            outcome
        }
        Ok(Err(unknown)) => failure_outcome(
            &command.router,
            job.id,
            RouteError::InvalidRequest(unknown.to_string()),
        ),
        Err(panic) => {
            let why = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            failure_outcome(&command.router, job.id, RouteError::Internal(why))
        }
    }
}

fn failure_outcome(router: &str, id: u64, error: RouteError) -> RouteOutcome {
    RouteOutcome::new(router, Err(error), SolverTelemetry::new(), Duration::ZERO)
        .with_request_id(Some(id))
}

/// A door verdict (reject/shed) rendered as a full outcome row, so
/// clients parse exactly one response shape for every served request.
fn door_row(router: &str, id: u64, error: RouteError) -> String {
    outcome_row(&failure_outcome(router, id, error))
}

/// Reframes a [`RouteOutcome::to_json`] row as a typed response line by
/// splicing `"type":"outcome"` in front of its first field.
fn outcome_row(outcome: &RouteOutcome) -> String {
    let row = outcome.to_json();
    format!("{{\"type\":\"outcome\",{}", &row[1..])
}

fn error_row(e: &WireError) -> String {
    format!(
        "{{\"type\":\"error\",\"error\":\"{}\"}}",
        escape_json(&e.to_string())
    )
}

fn stats_row<B: SatBackend + Default + Send + 'static>(shared: &Shared<B>) -> String {
    shared.stats.snapshot().to_json(
        shared.queue.len(),
        shared.workers,
        shared.draining.load(Ordering::SeqCst),
        &shared.cache.stats(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pool_runs_one_worker_per_core() {
        let daemon: Daemon = Daemon::bind(DaemonConfig::default()).expect("binds");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(daemon.shared.workers, cores);
        assert_eq!(daemon.workers.len(), cores);
        daemon.drain();
        daemon.join();
    }

    #[test]
    fn outcome_row_is_typed_and_parses() {
        let row = door_row("satmap", 3, RouteError::Overloaded("queue".into()));
        let v = crate::wire::parse_json(&row).expect("row must parse");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("outcome"));
        assert_eq!(v.get("request_id").and_then(|n| n.as_u64()), Some(3));
        assert_eq!(v.get("solved").and_then(|b| b.as_bool()), Some(false));
        assert!(v
            .get("error")
            .and_then(|e| e.as_str())
            .unwrap()
            .contains("shed"));
    }

    #[test]
    fn wire_error_rows_escape() {
        let row = error_row(&WireError::new("bad \"quote\""));
        assert!(crate::wire::parse_json(&row).is_ok(), "{row}");
    }
}
