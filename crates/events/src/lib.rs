//! Event vocabulary for the ParaLog online parallel-monitoring platform.
//!
//! This crate defines the data that flows between the monitored application
//! and its lifeguards (Figure 1/2 of the ASPLOS 2010 paper):
//!
//! * [`isa`] — the instruction-grain ISA of the monitored application and the
//!   high-level operations ([`Op`]) routed through the wrapper library;
//! * [`record`] — per-thread event stream records ([`EventRecord`]), the
//!   ConflictAlert broadcast records ([`CaRecord`]) and the handler-facing
//!   metadata operations ([`MetaOp`]);
//! * [`arc`] — inter-thread happened-before [`DependenceArc`]s captured from
//!   cache coherence traffic;
//! * [`ring`] — the bounded per-thread [`LogRing`] with full/empty
//!   backpressure, the transport between application and lifeguard cores;
//! * [`codec`] — a lossless varint/delta compression codec substantiating the
//!   "~1 byte per compressed record" assumption.
//!
//! # Example
//!
//! ```rust
//! use paralog_events::{EventRecord, Instr, LogRing, MemRef, Reg, Rid};
//!
//! let mut ring = LogRing::new(16);
//! let load = Instr::Load { dst: Reg::new(0), src: MemRef::new(0x1000, 4) };
//! ring.push(EventRecord::instr(Rid(1), load)).expect("ring has space");
//! let record = ring.pop().expect("record available");
//! assert_eq!(record.rid, Rid(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod arc;
pub mod codec;
pub mod inline;
pub mod isa;
pub mod record;
pub mod ring;
pub mod types;

pub use arc::{ArcKind, DependenceArc};
pub use inline::InlineVec;
pub use isa::{AccessKind, BarrierId, Instr, LockId, MemRef, Op, Reg, SyscallKind, NUM_REGS};
pub use record::{
    check_view, dataflow_view, ArcList, CaPhase, CaRecord, EventPayload, EventRecord,
    HighLevelKind, MetaOp, ProduceList, VersionId,
};
pub use ring::{LogRing, DEFAULT_CAPACITY};
pub use types::{blocks_of, Addr, AddrRange, BlockId, Rid, ThreadId, LINE_BYTES};
