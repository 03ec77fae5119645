//! Order capturing and enforcement for ParaLog (§3, §5).
//!
//! Online parallel monitoring is only correct if each lifeguard processes its
//! thread's events in an order consistent with the application's inter-thread
//! dependences. This crate provides the machinery:
//!
//! * [`OrderCapture`] — converts coherence conflicts into
//!   [`DependenceArc`](paralog_events::DependenceArc)s under the paper's two
//!   capture policies (per-block FDR-style vs. per-core conservative) and
//!   three reduction levels (none / direct / RTR-style transitive);
//! * [`ProgressTable`] / [`SharedProgressTable`] — the globally advertised
//!   per-lifeguard progress counters (§5.2), and [`CachePadded`], which
//!   keeps each of them — and each lane and register slot of the replay
//!   path — on a cache line of its own;
//! * [`replay_gate`] — the one replay gate: a head's arcs, then §5.4
//!   ConflictAlert serialization, reporting the first unmet condition; and
//!   [`OrderEnforcer`], the co-simulation's arc gate over the same scan,
//!   with dependence-stall accounting (the *Waiting for Dependence* bucket
//!   of Figure 7);
//! * [`CaBroadcaster`] / [`CaPolicy`] / [`CaBarrier`] — the ConflictAlert
//!   mechanism for high-level events and logical races (§4.3, §5.4);
//! * [`RangeTable`] — syscall race detection from CA memory-range
//!   parameters (§5.4).
//!
//! # Example
//!
//! ```rust
//! use paralog_order::{CapturePolicy, OrderCapture, Reduction};
//! use paralog_events::{ArcKind, Rid, ThreadId};
//!
//! let mut capture = OrderCapture::new(2, CapturePolicy::PerBlock, Reduction::Transitive);
//! let arc = capture
//!     .on_conflict(ThreadId(1), Rid(4), ThreadId(0), Rid(9), ArcKind::Raw)
//!     .expect("first conflict is recorded");
//! assert_eq!(arc.src_rid, Rid(9));
//! // A second conflict on an older record of thread 0 is implied — dropped.
//! assert!(capture
//!     .on_conflict(ThreadId(1), Rid(5), ThreadId(0), Rid(7), ArcKind::War)
//!     .is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod capture;
pub mod conflict_alert;
pub mod enforce;
pub mod progress;
pub mod range_table;

pub use capture::{CapturePolicy, CaptureStats, OrderCapture, Reduction};
pub use conflict_alert::{CaActions, CaBarrier, CaBroadcaster, CaPolicy};
pub use enforce::{replay_gate, Gate, OrderEnforcer};
pub use progress::{CachePadded, ProgressTable, SharedProgressTable};
pub use range_table::{RangeEntry, RangeTable};
