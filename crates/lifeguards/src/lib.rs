//! Instruction-grain lifeguards for the ParaLog platform.
//!
//! A *lifeguard* (§2) maintains metadata (shadow state) for every application
//! memory location and register, updates it on application events, and checks
//! invariants against it. This crate bundles five, each reached through its
//! [`LifeguardKind`]:
//!
//! * [`TaintCheck`](LifeguardKind::TaintCheck) — dynamic taint analysis (the
//!   paper's primary lifeguard);
//! * [`AddrCheck`](LifeguardKind::AddrCheck) — memory-allocation checking
//!   (the second evaluated lifeguard);
//! * [`MemCheck`](LifeguardKind::MemCheck) — initialized-ness tracking (the
//!   §4.1 example of high-level IT conflicts);
//! * [`LockSet`] — Eraser-style race detection (the §5.3 example of a
//!   lifeguard needing the fast-path/slow-path atomicity split);
//! * [`HappensBefore`] — FastTrack-style happens-before race detection
//!   (packed epochs with read vector clocks on the interned wide-word
//!   tier);
//!
//! plus the [`Lifeguard`] trait they implement, the declarative
//! [`LifeguardSpec`] the platform wires accelerators from, and the calibrated
//! [`CostModel`].
//!
//! Every analysis comes in two forms: per-thread sequential [`Lifeguard`]s
//! (what the co-simulation and the deterministic backend drive) and a
//! `Send + Sync` [`ConcurrentLifeguard`] for real-thread replay — §5.3's
//! synchronization-free fast paths, with mutex-guarded slow paths only for
//! rare structural events. The three byte-shadow analyses are written once
//! and driven both ways: TaintCheck and MemCheck are two rule tables over
//! the crate-private `dataflow` engine (one transfer function, both forms),
//! and AddrCheck's two thin forms call one check and one malloc/free update.
//! The two race detectors keep a sequential `HashMap` model beside their CAS
//! form ([`LockSetConcurrent`], [`HappensBeforeConcurrent`]) on purpose: no
//! sequential reference covers them, so the model is what the parity table
//! checks the CAS form against. An out-of-tree analysis reaches the lanes by
//! implementing [`ConcurrentLifeguard`] itself (worked example on
//! [`factory::LifeguardFactory::concurrent`]); without one it stays on the
//! sequential loop.
//!
//! # Example
//!
//! ```rust
//! use paralog_lifeguards::{HandlerCtx, LifeguardFamily, LifeguardKind};
//! use paralog_events::{AddrRange, MemRef, MetaOp, Reg, Rid, ThreadId};
//!
//! let family = LifeguardFamily::new(
//!     LifeguardKind::TaintCheck,
//!     AddrRange::new(0x1000_0000, 0x1000_0000),
//! );
//! let mut lifeguard = family.thread(ThreadId(0));
//! let mut ctx = HandlerCtx::new();
//! lifeguard.handle(
//!     &MetaOp::MemToReg { dst: Reg::new(0), src: MemRef::new(0x1000_0000, 4) },
//!     Rid(1),
//!     &mut ctx,
//! );
//! assert!(ctx.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod addrcheck;
pub mod cost;
mod dataflow;
pub mod factory;
pub mod happensbefore;
pub mod lifeguard;
pub mod lockset;
pub mod memcheck;
pub mod taintcheck;

pub use addrcheck::ALLOCATED;
pub use cost::CostModel;
pub use factory::{
    ConcurrentLifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind, LifeguardRegistry,
    MetadataShape, SessionEvent, SessionEventObserver, VersionedMeta,
};
pub use happensbefore::{HappensBefore, HappensBeforeConcurrent, HbShared, HbWide};
pub use lifeguard::{
    join_atomic_shadow, snapshot_byte, snapshot_coverage, EventView, Fingerprint, HandlerCtx,
    Lifeguard, LifeguardSpec, SnapshotCoverage, Violation, ViolationKind, ViolationLog,
};
pub use lockset::{LockSet, LockSetConcurrent, LockSetShared, VarState};
pub use memcheck::UNDEFINED;
pub use taintcheck::TAINTED;
