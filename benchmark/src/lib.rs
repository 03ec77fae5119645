//! End-to-end benchmark of ParaLog as its two kinds of users meet it:
//! operators streaming an application's event log into `paralogd` over its
//! real Unix sockets, and people reproducing the paper's co-simulated
//! slowdown/speedup figures. See `README.md` for the metric and workload
//! definitions and `FINDINGS.md` for shapes deliberately left out.
//!
//! The program under test receives only generated bytes: workload names
//! live in [`workloads`] and nowhere in `crates/`.

pub mod capture;
pub mod driver;
pub mod json;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;
