//! # ParaLog
//!
//! A from-scratch reproduction of **"ParaLog: Enabling and Accelerating
//! Online Parallel Monitoring of Multithreaded Applications"** (Vlachos et
//! al., ASPLOS 2010): a platform in which every thread of a multithreaded
//! application is monitored *online* by a paired lifeguard thread performing
//! instruction-grain analysis, with hardware-style accelerators
//! (Inheritance Tracking, Idempotent Filters, Metadata TLB) parallelized via
//! delayed advertising and ConflictAlert messages.
//!
//! This facade crate re-exports the whole workspace under one name. Most
//! users want [`core`] (the composable `MonitorSession` API, the `Platform`
//! shim and the experiment runners), [`lifeguards`] (TaintCheck, AddrCheck,
//! MemCheck, LockSet, HappensBefore, plus the open `LifeguardRegistry` for
//! out-of-tree analyses) and [`workloads`] (the synthetic SPLASH-2/PARSEC-like
//! benchmarks). See `examples/custom_lifeguard.rs` for the session-builder
//! quickstart.
//!
//! # Quickstart
//!
//! ```rust
//! use paralog::core::{MonitorConfig, MonitoringMode, Platform};
//! use paralog::lifeguards::LifeguardKind;
//! use paralog::workloads::{Benchmark, WorkloadSpec};
//!
//! // Monitor a 2-thread LU-like workload with TaintCheck, in parallel.
//! let workload = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.05).build();
//! let config = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
//! let outcome = Platform::run(&workload, &config);
//! assert!(outcome.metrics.execution_cycles() > 0);
//! ```

#![forbid(unsafe_code)]

// Compile-check and run the README's example blocks as doctests (the CI
// docs step executes them workspace-wide), so the quickstart cannot rot
// silently when the API moves.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use paralog_accel as accel;
pub use paralog_core as core;
pub use paralog_daemon as daemon;
pub use paralog_events as events;
pub use paralog_lifeguards as lifeguards;
pub use paralog_meta as meta;
pub use paralog_order as order;
pub use paralog_sim as sim;
pub use paralog_workloads as workloads;
