//! The ParaLog platform: online parallel monitoring of multithreaded
//! applications (Vlachos et al., ASPLOS 2010).
//!
//! This crate assembles the whole system of Figure 2:
//!
//! * [`MonitorSession`] composes one monitored run from pluggable seams:
//!   an event source (simulated workload, or replay of captured logs,
//!   buffered or decoded from a live byte stream), a backend (the deterministic simulator or the
//!   real-thread executor), and any lifeguard — bundled shorthand, registry
//!   name, or an out-of-tree [`LifeguardFactory`](paralog_lifeguards::LifeguardFactory);
//! * [`Platform::run`] — a thin shim over a workload session — simulates a
//!   workload under one of three [`MonitoringMode`]s: no monitoring, the
//!   timesliced state of the art, or ParaLog's parallel monitoring — on the
//!   paper's CMP model;
//! * [`MonitorConfig`] exposes every design knob evaluated in the paper
//!   (accelerators on/off, per-block vs. per-core capture, arc reduction,
//!   ConflictAlert barrier vs. flush-only, SC vs. TSO, damage containment);
//! * [`RunMetrics`] reports the Figure 6/7/8 quantities (execution time,
//!   useful / waiting-for-dependence / waiting-for-application breakdowns,
//!   accelerator and capture statistics);
//! * [`experiment`] regenerates every table and figure of the evaluation.
//!
//! # Example
//!
//! ```rust
//! use paralog_core::{MonitorConfig, MonitoringMode, Platform};
//! use paralog_lifeguards::LifeguardKind;
//! use paralog_workloads::{Benchmark, WorkloadSpec};
//!
//! let workload = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.02).build();
//! let base = Platform::run(
//!     &workload,
//!     &MonitorConfig::new(MonitoringMode::None, LifeguardKind::TaintCheck),
//! );
//! let monitored = Platform::run(
//!     &workload,
//!     &MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck),
//! );
//! let slowdown = monitored.metrics.slowdown_vs(base.metrics.execution_cycles());
//! assert!(slowdown >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod experiment;
pub mod metrics;
pub mod platform;
pub mod reference;
pub mod session;

pub use config::{CaMode, MonitorConfig, MonitoringMode};
pub use metrics::{AppBuckets, LgBuckets, PhaseBreakdown, RunMetrics, TRANSPORT_BYTES_PER_CYCLE};
pub use paralog_lifeguards::{SessionEvent, SessionEventObserver};
pub use platform::{Platform, RunOutcome};
pub use reference::Reference;
pub use session::coop::{CoopLane, CoopSession, LaneSet, LaneStep, Sweep, LANE_BUDGET};
pub use session::pool::{PoolCounters, PoolTask, TaskPoll, WorkerPool};
pub use session::{
    Backend, BackendMode, BufferedStream, DeterministicBackend, EventSource, FaultyReader,
    MonitorSession, MonitorSessionBuilder, RecordStream, ReplaySource, SessionError, SessionPlan,
    SourceInput, SourceStats, StreamStatus, StreamingReplaySource, ThreadedBackend,
};
