//! `routed`: qubit routing as a service.
//!
//! A daemon that serves the workspace's whole router line-up — SATMAP's
//! MaxSAT relaxations, the constraint baselines, the heuristics — over a
//! line-delimited JSON protocol on TCP, built on `std::net` and threads
//! (no async runtime, no serde: the wire layer is hand-rolled and
//! strict). The interesting parts:
//!
//! * **[`wire`]** — the protocol: one request line in, one response row
//!   out, with typed errors mapping into
//!   [`circuit::RouteError::InvalidRequest`].
//! * **[`server`]** — the [`Daemon`]: a bounded work queue feeding a
//!   worker pool, O(1) admission control ([`satmap::encoding_estimate`]
//!   before any encoding is paid for, shed as
//!   [`circuit::RouteError::Overloaded`]), dispatch through a shared
//!   [`routers::RouteSupervisor`] (retries, degradation, panic
//!   isolation) and [`routers::RouteCache`] (memoization + LRU
//!   eviction), server-assigned request ids with per-request abort
//!   handles ([`sat::CancelRegistry`]), `stats` introspection and
//!   graceful `drain`.
//! * **[`client`]** — a blocking [`ServiceClient`] that demultiplexes
//!   completion-ordered outcome rows.
//! * **[`catalog`]** — the device names the wire accepts.
//!
//! Two binaries ship with the crate: `routed` (the daemon) and
//! `routed-client` (submit request files, print rows — the CI loopback
//! e2e driver).
//!
//! # Examples
//!
//! ```
//! use service::{Daemon, DaemonConfig, ServiceClient, Submission};
//!
//! let daemon: Daemon = Daemon::bind(DaemonConfig {
//!     workers: Some(2),
//!     ..DaemonConfig::default()
//! })?;
//!
//! let mut c = circuit::Circuit::new(2);
//! c.cx(0, 1);
//! let line = service::wire::route_line("sabre", "linear:2", &c, &[]);
//!
//! let mut client = ServiceClient::connect(daemon.local_addr())?;
//! let id = client.submit_route(&line)?.id();
//! let row = client.wait(id)?;
//! assert!(row.contains("\"solved\":true"));
//!
//! client.drain()?;
//! daemon.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod queue;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{ServiceClient, Submission};
pub use server::{Daemon, DaemonConfig};
pub use stats::{ServiceStats, StatsSnapshot};
