//! Quantum-circuit IR, benchmarks, and QMR solution checking.
//!
//! The circuit substrate of the SATMAP (MICRO 2022) reproduction:
//!
//! * [`Circuit`] / [`Gate`] — the logical-circuit IR, with slicing and
//!   repetition (the structures the paper's relaxations exploit);
//! * [`qasm`] — an OpenQASM 2.0 subset parser/printer;
//! * [`generators`], [`qaoa`], [`suite`] — benchmark families standing in
//!   for the paper's RevLib/Quipper/ScaffoldCC collection and its QAOA
//!   workloads;
//! * [`RoutedCircuit`] — QMR solutions (initial map + gates + SWAPs);
//! * [`verify`] — the independent solution verifier;
//! * [`Router`] / [`RouteRequest`] / [`RouteOutcome`] — the request-driven
//!   interface every mapping algorithm implements (see [`request`]).
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, Gate};
//! let mut c = Circuit::new(3);
//! c.h(0);
//! c.cx(0, 1);
//! c.cx(1, 2);
//! assert_eq!(c.num_two_qubit_gates(), 2);
//! assert_eq!(c.slices(1).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod gate;
pub mod generators;
pub mod qaoa;
pub mod qasm;
pub mod request;
mod routed;
mod router;
pub mod suite;
pub mod verify;

pub use circuit::Circuit;
pub use gate::{Gate, OneQubitKind, Qubit, TwoQubitKind};
pub use request::{
    escape_json, Objective, RepeatedStructure, RouteOutcome, RouteQuality, RouteRequest, RouteSpec,
    SearchStrategy, Slicing,
};
pub use routed::{RoutedCircuit, RoutedOp};
pub use router::{RouteError, Router};
