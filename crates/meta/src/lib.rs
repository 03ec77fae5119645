//! Metadata substrate for ParaLog lifeguards.
//!
//! Lifeguards maintain *metadata* (shadow state) for every application memory
//! location (§2). This crate provides:
//!
//! * [`ShadowMemory`] — the two-level, bit-packed shadow structure both
//!   evaluated lifeguards use (2 bits/byte for TAINTCHECK, 1 bit/byte for
//!   ADDRCHECK), including the application→metadata address mapping that the
//!   Metadata TLB accelerates;
//! * [`AtomicShadow`] — the lock-free mirror of the same layout shared by
//!   the real-thread replay executor (§5.3 synchronization-free fast path);
//! * [`WordTable`] — the word-granular companion: one CAS-able `AtomicU64`
//!   per key (the packed fast path), plus a reference-counted
//!   [`WideInterner`] for per-location state that outgrows a single word
//!   (LockSet's candidate masks, HappensBefore's read vector clocks);
//! * [`VersionTable`] — the one produce/consume table backing TSO versioned
//!   metadata (§5.5) on every replay path: a mutex over a map of the
//!   outstanding versions;
//! * [`Fingerprint`] — the order-insensitive metadata fingerprint
//!   equivalence tests compare across platforms and backends.
//!
//! # Example
//!
//! ```rust
//! use paralog_meta::ShadowMemory;
//! use paralog_events::AddrRange;
//!
//! let mut taint = ShadowMemory::new(2);
//! taint.set_range(AddrRange::new(0x1000, 4), 0b01); // taint a word
//! taint.copy_range(0x2000, 0x1000, 4);              // propagation
//! assert_eq!(taint.join_range(AddrRange::new(0x2000, 4)), 0b01);
//! ```

#![warn(missing_debug_implementations)]

pub mod atomic;
pub mod fingerprint;
pub mod lane_cell;
pub mod shadow;
pub mod table;
pub mod versions;

pub use atomic::AtomicShadow;
pub use fingerprint::Fingerprint;
pub use lane_cell::LaneCell;
pub use shadow::{ShadowMemory, CHUNK_APP_BYTES, META_BASE};
pub use table::{MetaWord, PackedWordTable, WideInterner, WordTable, MAX_WIDE_IDS};
pub use versions::VersionTable;
