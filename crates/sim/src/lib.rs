//! CMP hardware substrate for the ParaLog platform.
//!
//! The paper evaluates ParaLog on a Simics-simulated 16-core CMP (Table 1).
//! This crate is our stand-in for that substrate: a deterministic,
//! cycle-accounted model of
//!
//! * private per-core L1 caches and a shared, inclusive L2 ([`cache`]),
//! * an invalidation-based coherence directory whose acknowledgements carry
//!   FDR-style `(thread, record-id)` timestamps ([`coherence`]),
//! * TSO store buffers with store-to-load forwarding and SC-violation
//!   detection ([`tso`]),
//! * the application heap ([`heap`]) and synchronization ([`sync`]),
//! * and the discrete-event scheduler that keeps it all deterministic
//!   ([`des`]).
//!
//! # Example
//!
//! ```rust
//! use paralog_sim::{MachineConfig, MemorySystem};
//! use paralog_events::{AccessKind, ArcKind, Rid};
//!
//! let mut mem = MemorySystem::new(&MachineConfig::paper(4));
//! mem.access(0, Rid(5), 0x1000, 4, AccessKind::Write);
//! // Core 1 reads core 0's dirty line: a RAW dependence surfaces.
//! let result = mem.access(1, Rid(1), 0x1000, 4, AccessKind::Read);
//! assert_eq!(result.touches[0].kind, ArcKind::Raw);
//! assert_eq!(result.touches[0].block_rid, Rid(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod coherence;
pub mod config;
pub mod des;
pub mod heap;
pub mod sync;
pub mod tso;

pub use cache::{CacheStats, LineInfo, SetAssocCache};
pub use coherence::{AccessResult, CoherenceStats, MemorySystem, RemoteTouch};
pub use config::{CacheConfig, MachineConfig, MemoryModel, TsoConfig};
pub use des::Scheduler;
pub use heap::{Heap, HeapError, HEAP_BASE, HEAP_SIZE};
pub use sync::{
    barrier_flag, barrier_slot, lock_word, BarrierOutcome, BarrierTable, LockAttempt, LockTable,
};
pub use tso::{PendingStore, StoreBuffer};
