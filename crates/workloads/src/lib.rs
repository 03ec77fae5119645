//! Synthetic SPLASH-2/PARSEC-like workloads for the ParaLog evaluation.
//!
//! Table 1 of the paper evaluates eight benchmarks; this crate generates
//! deterministic multithreaded instruction streams that reproduce each
//! benchmark's *monitoring-relevant character* — instruction mix, sharing
//! pattern, working-set size and high-level event rate — without the real
//! binaries (see DESIGN.md for the substitution argument).
//!
//! # Example
//!
//! ```rust
//! use paralog_workloads::{Benchmark, WorkloadSpec};
//!
//! let w = WorkloadSpec::benchmark(Benchmark::Swaptions, 4).scale(0.1).build();
//! assert_eq!(w.thread_count(), 4);
//! assert!(w.high_level_ops() > 0, "swaptions churns malloc/free");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod adversarial;
pub mod gen;
pub mod spec;

pub use adversarial::AdversarialCapture;
pub use gen::Workload;
pub use spec::{
    Benchmark, InstrMix, WorkloadSpec, PRIVATE_BASE, PRIVATE_STRIDE, RACY_WINDOW_WORDS, SHARED_BASE,
};
