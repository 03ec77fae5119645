//! Versioned metadata for TSO support (§5.5).
//!
//! When a load violates SC relative to a remote write, the R→W dependence is
//! *reversed*: the writer's lifeguard first *produces* a version — a copy of
//! the current metadata for the conflicting range — and the reader's
//! lifeguard *consumes* that version instead of waiting for (or racing with)
//! the writer. The version id combines the consuming thread's id with the
//! record id of its SC-violating load, so ids are unique per dynamic load.
//!
//! # Layout
//!
//! One [`VersionTable`] serves every replay path: the co-simulation, the
//! sequential reference loop and the concurrent lanes. It is a single mutex
//! over a hash map of the versions that are *outstanding* — produced and not
//! yet taken by their last consumer, or bypassed and not yet produced. A
//! retired version leaves the map, so residency is the outstanding set by
//! construction: there is nothing to reclaim, and a far-future or hostile
//! record id costs one entry like any other. That is sized to the traffic:
//! the paper benchmarks captured under TSO carry at most 97 versions per
//! million records, and SC captures carry none.
//!
//! # Wait or bypass
//!
//! The table never blocks: [`consume`](VersionTable::consume) of a version
//! that has not been produced yet returns `None`, and the caller decides
//! what that means. The deterministic paths **bypass**: delivery order
//! guarantees the producer has not applied its store either, so the live
//! shadow is still the pre-store state; they read it and call
//! [`bypass`](VersionTable::bypass) so the eventual snapshot retires
//! properly. On real threads that read would race the producer's store, so a
//! concurrent lane reports itself gated and *whoever drives the lane*
//! decides how to wait — the §5.5 "reader waits for the writer's pre-store
//! copy" hand-off.

use paralog_events::{AddrRange, VersionId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// One version's lifecycle state.
#[derive(Debug)]
enum Slot {
    /// Consumers that proceeded before the version existed (the pre-store
    /// state was still current shadow, so no snapshot was needed).
    Bypassed(u32),
    /// Produced and awaiting its remaining consumers.
    Live {
        range: AddrRange,
        snapshot: Vec<u8>,
        consumers: u32,
    },
}

/// A structurally invalid produce. Internally generated traffic asserts
/// these away via the panicking [`produce`](VersionTable::produce); paths
/// replaying an externally captured stream call
/// [`try_produce`](VersionTable::try_produce) and report a malformed stream,
/// so corrupt input can never poison the lock or kill a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionError(pub String);

impl std::fmt::Display for VersionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for VersionError {}

/// Everything behind the table's one lock.
#[derive(Debug, Default)]
struct State {
    slots: HashMap<VersionId, Slot>,
    produced: u64,
    consumed: u64,
    outstanding: usize,
    peak: usize,
}

/// Table of produced-but-not-yet-consumed metadata versions, shared by all
/// of a session's lifeguard threads.
#[derive(Debug)]
pub struct VersionTable {
    threads: usize,
    state: Mutex<State>,
}

impl VersionTable {
    /// An empty table for `threads` monitored streams (a produced version
    /// must name a consumer thread below `threads`).
    pub fn new(threads: usize) -> Self {
        VersionTable {
            threads,
            state: Mutex::default(),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("version table lock poisoned")
    }

    /// Publishes versioned metadata for `id` covering `range`, to be
    /// consumed by `consumers` reader records (several pre-drain loads of
    /// the same block may share one snapshot).
    ///
    /// # Panics
    ///
    /// Panics where [`try_produce`](Self::try_produce) returns an error.
    pub fn produce(&self, id: VersionId, range: AddrRange, snapshot: Vec<u8>, consumers: u32) {
        self.try_produce(id, range, snapshot, consumers)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`produce`](Self::produce), for callers replaying
    /// untrusted streams.
    ///
    /// # Errors
    ///
    /// A snapshot whose length mismatches the range, zero consumers, a
    /// consumer thread outside the table, or an id that is already live
    /// (ids are unique per dynamic conflict). The table is left as it was.
    pub fn try_produce(
        &self,
        id: VersionId,
        range: AddrRange,
        snapshot: Vec<u8>,
        consumers: u32,
    ) -> Result<(), VersionError> {
        if snapshot.len() as u64 != range.len {
            return Err(VersionError(format!("snapshot length mismatch for {id}")));
        }
        if consumers == 0 {
            return Err(VersionError(format!("version without consumers: {id}")));
        }
        if id.consumer.index() >= self.threads {
            return Err(VersionError(format!(
                "version {id} names a consumer thread outside the {}-thread table",
                self.threads
            )));
        }
        let mut state = self.state();
        // Consumers that already passed read the live (still pre-store)
        // shadow; only the remainder need the snapshot.
        let already = match state.slots.get(&id) {
            None => 0,
            Some(Slot::Bypassed(n)) => *n,
            Some(Slot::Live { .. }) => return Err(VersionError(format!("duplicate version {id}"))),
        };
        state.produced += 1;
        let consumers = consumers.saturating_sub(already);
        if consumers == 0 {
            state.slots.remove(&id);
            return Ok(());
        }
        let live = Slot::Live {
            range,
            snapshot,
            consumers,
        };
        state.slots.insert(id, live);
        state.outstanding += 1;
        state.peak = state.peak.max(state.outstanding);
        Ok(())
    }

    /// Notes that a consumer of `id` proceeded before production: the
    /// producer had not applied its store, so the live shadow was still the
    /// correct pre-store state (§5.5 without the stall). Only for callers
    /// whose [`consume`](Self::consume) of `id` just returned `None`.
    pub fn bypass(&self, id: VersionId) {
        let mut state = self.state();
        state.consumed += 1;
        match state.slots.entry(id).or_insert(Slot::Bypassed(0)) {
            Slot::Bypassed(n) => *n += 1,
            Slot::Live { .. } => unreachable!("bypass of an available version {id}"),
        }
    }

    /// Whether `id` has been produced and not yet retired.
    pub fn is_available(&self, id: VersionId) -> bool {
        matches!(self.state().slots.get(&id), Some(Slot::Live { .. }))
    }

    /// Consumes one reference to the version, or `None` if the producer has
    /// not reached its produce point yet. The last consumer retires it.
    pub fn consume(&self, id: VersionId) -> Option<(AddrRange, Vec<u8>)> {
        let mut guard = self.state();
        let state = &mut *guard;
        let Entry::Occupied(mut slot) = state.slots.entry(id) else {
            return None;
        };
        let Slot::Live {
            range,
            snapshot,
            consumers,
        } = slot.get_mut()
        else {
            return None;
        };
        state.consumed += 1;
        *consumers -= 1;
        if *consumers > 0 {
            return Some((*range, snapshot.clone()));
        }
        let out = (*range, std::mem::take(snapshot));
        slot.remove();
        state.outstanding -= 1;
        Some(out)
    }

    /// Versions produced so far.
    pub fn produced(&self) -> u64 {
        self.state().produced
    }

    /// Versions consumed so far (bypasses included).
    pub fn consumed(&self) -> u64 {
        self.state().consumed
    }

    /// Most versions ever outstanding at once (a hardware table's size).
    pub fn peak_outstanding(&self) -> usize {
        self.state().peak
    }

    /// Versions currently outstanding (produced, not yet retired).
    pub fn outstanding(&self) -> usize {
        self.state().outstanding
    }

    /// Entries the table holds right now: the outstanding versions plus ids
    /// bypassed and not yet produced.
    pub fn resident(&self) -> usize {
        self.state().slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::{Rid, ThreadId};

    fn vid(t: u16, r: u64) -> VersionId {
        VersionId {
            consumer: ThreadId(t),
            consumer_rid: Rid(r),
        }
    }

    #[test]
    fn produce_then_consume() {
        let t = VersionTable::new(2);
        let id = vid(0, 2);
        let r = AddrRange::new(0x100, 4);
        assert!(!t.is_available(id));
        t.produce(id, r, vec![0b11, 0, 0, 0b01], 1);
        assert!(t.is_available(id));
        assert_eq!(t.consume(id), Some((r, vec![0b11, 0, 0, 0b01])));
        assert!(!t.is_available(id));
        assert_eq!((t.produced(), t.consumed(), t.outstanding()), (1, 1, 0));
        assert_eq!(t.peak_outstanding(), 1);
    }

    #[test]
    fn consume_before_produce_stalls() {
        let t = VersionTable::new(2);
        assert!(t.consume(vid(1, 5)).is_none());
        assert_eq!(t.consumed(), 0);
        assert_eq!(t.resident(), 0, "a miss leaves nothing behind");
    }

    #[test]
    fn peak_outstanding_tracks_high_water() {
        let t = VersionTable::new(2);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        t.produce(vid(0, 2), AddrRange::new(8, 1), vec![1], 1);
        t.consume(vid(0, 1));
        t.produce(vid(1, 1), AddrRange::new(16, 1), vec![0], 1);
        assert_eq!((t.peak_outstanding(), t.outstanding()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate version")]
    fn duplicate_produce_panics() {
        let t = VersionTable::new(1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_snapshot_length_panics() {
        let t = VersionTable::new(1);
        t.produce(vid(0, 1), AddrRange::new(0, 4), vec![0], 1);
    }

    #[test]
    fn shared_version_consumed_by_each_reader() {
        let t = VersionTable::new(1);
        let id = vid(0, 9);
        t.produce(id, AddrRange::new(0, 2), vec![1, 0], 2);
        assert!(t.consume(id).is_some());
        assert!(t.is_available(id), "one consumer left");
        assert!(t.consume(id).is_some());
        assert!(!t.is_available(id), "retired after last consumer");
        assert_eq!(t.consumed(), 2);
    }

    #[test]
    fn bypass_then_produce_skips_satisfied_readers() {
        let t = VersionTable::new(4);
        let id = vid(2, 40);
        t.bypass(id);
        t.bypass(id);
        // Both readers already passed: the snapshot retires immediately.
        t.produce(id, AddrRange::new(0, 1), vec![7], 2);
        assert!(!t.is_available(id));
        assert_eq!((t.outstanding(), t.resident()), (0, 0));
        // One of three readers passed early: two consumes drain it.
        let id2 = vid(2, 41);
        t.bypass(id2);
        t.produce(id2, AddrRange::new(0, 1), vec![7], 3);
        assert!(t.consume(id2).is_some());
        assert!(t.is_available(id2), "one consumer left");
        assert!(t.consume(id2).is_some());
        assert!(!t.is_available(id2), "retired after last consumer");
        assert_eq!(t.consumed(), 5, "bypasses count as consumption");
        assert_eq!(t.produced(), 2);
    }

    #[test]
    fn residency_is_the_outstanding_set_whatever_the_rids() {
        // Dense neighbours, far-future ids, and ids 2^21 apart (they shared
        // a cell in the chunk ring this table replaced).
        let rids = [1u64, 129, (1 << 29) - 1, 1 << 62, 2176, 2176 + (1 << 21)];
        let t = VersionTable::new(2);
        for (n, &r) in rids.iter().enumerate() {
            t.produce(vid(1, r), AddrRange::new(r, 1), vec![n as u8], 1);
            assert_eq!((t.resident(), t.outstanding()), (n + 1, n + 1));
        }
        for (n, &r) in rids.iter().enumerate() {
            assert_eq!(t.consume(vid(1, r)).map(|(_, s)| s), Some(vec![n as u8]));
            assert_eq!(t.resident(), t.outstanding());
        }
        assert_eq!((t.resident(), t.peak_outstanding()), (0, rids.len()));
        // A hostile consume annotation costs one entry, not a first level
        // grown to its rid.
        t.bypass(vid(0, (1 << 29) - 1));
        assert_eq!((t.resident(), t.outstanding()), (1, 0));
    }

    #[test]
    fn concurrent_out_of_range_consumer_is_an_error_not_a_panic() {
        let t = VersionTable::new(2);
        let err = t
            .try_produce(vid(7, 1), AddrRange::new(0, 1), vec![0], 1)
            .expect_err("consumer thread 7 is outside a 2-thread table");
        assert!(err.to_string().contains("outside the 2-thread table"));
        assert!(!t.is_available(vid(7, 1)));
        assert!(t.consume(vid(7, 1)).is_none());
        assert_eq!((t.produced(), t.resident()), (0, 0));
    }

    #[test]
    fn concurrent_duplicate_produce_is_an_error_via_try_produce() {
        let t = VersionTable::new(1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        let err = t
            .try_produce(vid(0, 1), AddrRange::new(0, 1), vec![9], 1)
            .expect_err("duplicate");
        assert!(err.to_string().contains("duplicate version"));
        // The table keeps working: the original version is intact.
        assert_eq!((t.produced(), t.outstanding()), (1, 1));
        assert_eq!(t.consume(vid(0, 1)).map(|(_, s)| s), Some(vec![0]));
    }

    #[test]
    fn concurrent_producers_race_distinct_ids_safely() {
        // Four producers publish disjoint id sets for two polling consumers:
        // every snapshot arrives intact and the accounting balances.
        const PER_PRODUCER: u64 = 256;
        let snapshot_for = |rid: u64| vec![(rid % 251) as u8; 8];
        let t = VersionTable::new(2);
        std::thread::scope(|scope| {
            let table = &t;
            for p in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let rid = 1 + p / 2 * PER_PRODUCER + i;
                        let id = vid((p % 2) as u16, rid);
                        table.produce(id, AddrRange::new(rid * 8, 8), snapshot_for(rid), 1);
                    }
                });
            }
            for consumer in 0..2u16 {
                scope.spawn(move || {
                    for rid in 1..=(2 * PER_PRODUCER) {
                        let got = loop {
                            match table.consume(vid(consumer, rid)) {
                                Some(version) => break version,
                                None => std::thread::yield_now(),
                            }
                        };
                        assert_eq!(got, (AddrRange::new(rid * 8, 8), snapshot_for(rid)));
                    }
                });
            }
        });
        assert_eq!(
            (t.produced(), t.consumed()),
            (4 * PER_PRODUCER, 4 * PER_PRODUCER)
        );
        assert_eq!((t.outstanding(), t.resident()), (0, 0));
        assert!(t.peak_outstanding() >= 1);
    }
}
