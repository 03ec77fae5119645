//! ParaLog's parallelized lifeguard hardware accelerators (§4).
//!
//! Three accelerators make instruction-grain monitoring affordable, each
//! keeping state that *remote* events can silently invalidate in the parallel
//! setting:
//!
//! | Accelerator | Caches | Instruction-level remote conflicts | High-level remote conflicts |
//! |---|---|---|---|
//! | [`InheritanceTracker`] (IT) | inherits-from addresses per register | **delayed advertising** | ConflictAlert flush |
//! | [`IdempotentFilter`] (IF) | recently seen checks | delayed advertising | ConflictAlert invalidation |
//! | [`MetadataTlb`] (M-TLB) | app→metadata page mappings | — (mappings change only on high-level events) | ConflictAlert flush |
//!
//! # Example: the Figure 3 scenario
//!
//! ```rust
//! use paralog_accel::InheritanceTracker;
//! use paralog_events::{Instr, MemRef, MetaOp, Reg, Rid};
//!
//! let mut it = InheritanceTracker::new(None);
//! let a = MemRef::new(0x100, 4);
//! let b = MemRef::new(0x200, 4);
//! // load r0 <- A; mov r1 <- r0; store B <- r1
//! let mut ops = Vec::new();
//! it.process(&Instr::Load { dst: Reg::new(0), src: a }, Rid(10), &mut ops);
//! it.process(&Instr::MovRR { dst: Reg::new(1), src: Reg::new(0) }, Rid(11), &mut ops);
//! assert!(ops.is_empty(), "both absorbed");
//! it.process(&Instr::Store { dst: b, src: Reg::new(1) }, Rid(12), &mut ops);
//! assert_eq!(ops, vec![MetaOp::MemToMem { dst: b, src: a }]);
//! // Delayed advertising: progress stays before rid 10 while rows hold it.
//! assert_eq!(it.advertisable_progress(), Rid(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod ifilter;
pub mod it;
pub mod mtlb;

pub use ifilter::{IdempotentFilter, IfStats};
pub use it::{FlushReason, InheritanceTracker, ItEntry, ItStats};
pub use mtlb::{MetadataTlb, MtlbStats, PAGE_BYTES};
