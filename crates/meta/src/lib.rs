//! Metadata substrate for ParaLog lifeguards.
//!
//! Lifeguards maintain *metadata* (shadow state) for every application memory
//! location (§2). This crate provides:
//!
//! * [`AtomicShadow`] — the one byte shadow: a lock-free `AtomicU8` of
//!   metadata per application byte, held by the sequential and the
//!   concurrent form of every byte-shadow lifeguard (§5.3
//!   synchronization-free fast path), next to [`meta_addr`] /
//!   [`meta_footprint`], the application→metadata address mapping of the
//!   *modelled* machine (2 bits/byte for TAINTCHECK, 1 bit/byte for
//!   ADDRCHECK) that the Metadata TLB accelerates;
//! * [`WordTable`] — the word-granular companion: one CAS-able `AtomicU64`
//!   per key (the packed fast path), plus a reference-counted wide tier —
//!   one mutex over a slab of the live values — for per-location state
//!   that outgrows a single word (LockSet's candidate masks,
//!   HappensBefore's read vector clocks);
//! * [`VersionTable`] — the one produce/consume table backing TSO versioned
//!   metadata (§5.5) on every replay path: a mutex over a map of the
//!   outstanding versions;
//! * [`Fingerprint`] — the order-insensitive metadata fingerprint
//!   equivalence tests compare across platforms and backends.
//!
//! # Example
//!
//! ```rust
//! use paralog_meta::{meta_footprint, AtomicShadow};
//!
//! let taint = AtomicShadow::new();
//! taint.fill_range(0x1000, 4, 0b01); // taint a word
//! let v = taint.join_range(0x1000, 4); // propagation: join the source...
//! taint.fill_range(0x2000, 4, v); // ...into the destination
//! assert!(taint.eq_range(0x2000, 4, 0b01));
//! // The modelled machine packs that word's 2-bit taint into one byte.
//! assert_eq!(meta_footprint(2, 0x2000, 4).len, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod atomic;
mod chunks;
pub mod fingerprint;
pub mod table;
pub mod versions;

pub use atomic::{meta_addr, meta_footprint, AtomicShadow};
pub use fingerprint::Fingerprint;
pub use table::{MetaWord, PackedWordTable, WideGuard, WordTable, MAX_WIDE_IDS};
pub use versions::VersionTable;
