//! The §5.5 version table + TSO streaming replay on real threads.
//!
//! The invariants:
//!
//! * `VersionTable` matches the model a produce/consume/bypass trace
//!   defines: every consume returns the snapshot its produce published,
//!   every probe of an unproduced id misses, and availability, the
//!   produced/consumed/outstanding/peak accounting and residency follow
//!   the trace (property-tested over random interleaved traces);
//! * under genuine producer/consumer thread races every snapshot arrives
//!   intact and the accounting still balances;
//! * a §5.5 versioned capture (the Figure 5 Dekker pattern) replays on
//!   every driver of the parity table (`common/parity.rs`) with
//!   fingerprints, violations and version traffic identical to the live
//!   deterministic run — including a capture whose consume annotations
//!   land on records already in a ring;
//! * a TSO capture truncated before its produce point deadlocks every lane
//!   driver loudly (the consumer lane parks on a version no lane can
//!   produce, once its peer finished) instead of hanging or silently
//!   bypassing, while the sequential drivers bypass it.

mod common;

use common::parity;
use paralog::events::{AddrRange, Rid, ThreadId, VersionId};
use paralog::meta::VersionTable;
use proptest::prelude::*;

fn vid(t: u16, r: u64) -> VersionId {
    VersionId {
        consumer: ThreadId(t),
        consumer_rid: Rid(r),
    }
}

/// One step of a version-table trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceOp {
    Bypass(u16, u64),
    Produce(u16, u64, u32),
    Consume(u16, u64),
    /// Consume of an id that is never produced (the stall probe).
    Miss(u16, u64),
}

/// Expands per-id specs into one interleaved, *valid* trace: bypasses
/// precede the produce, consumes follow it, and up to `window` ids stay
/// outstanding simultaneously so the peak counter gets exercised.
fn build_trace(ids: &[(u16, u64, u32)], window: usize) -> Vec<TraceOp> {
    let mut seen = std::collections::HashSet::new();
    let mut trace = Vec::new();
    let mut pending: std::collections::VecDeque<(u16, u64, u32)> = Default::default();
    for &(t, r, consumers) in ids {
        if !seen.insert((t, r)) {
            continue; // version ids are unique per dynamic conflict
        }
        let bypasses = (r % u64::from(consumers + 1)) as u32;
        for _ in 0..bypasses {
            trace.push(TraceOp::Bypass(t, r));
        }
        trace.push(TraceOp::Produce(t, r, consumers));
        if r % 5 == 0 {
            trace.push(TraceOp::Miss(t, r + 100_000));
        }
        if consumers > bypasses {
            pending.push_back((t, r, consumers - bypasses));
        }
        while pending.len() > window {
            let (t, r, consumes) = pending.pop_front().expect("nonempty");
            for _ in 0..consumes {
                trace.push(TraceOp::Consume(t, r));
            }
        }
    }
    while let Some((t, r, consumes)) = pending.pop_front() {
        for _ in 0..consumes {
            trace.push(TraceOp::Consume(t, r));
        }
    }
    trace
}

fn snapshot_for(r: u64) -> Vec<u8> {
    vec![(r % 251) as u8; 8]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model equivalence: the table applied to any valid trace behaves like
    /// the sequential model the trace itself defines, counters included.
    #[test]
    fn concurrent_table_matches_sequential_model(
        ids in proptest::collection::vec((0u16..3, 1u64..600, 1u32..4), 1..48),
        window in 1usize..5,
    ) {
        let trace = build_trace(&ids, window);
        let table = VersionTable::new(3);
        let range = |r: u64| AddrRange::new(0x1000 + r * 8, 8);
        // The model: consumers that passed early per id not yet produced,
        // consumers still owed per live id, and the counters.
        let mut bypassed = std::collections::HashMap::new();
        let mut live = std::collections::HashMap::new();
        let (mut produced, mut consumed, mut peak) = (0u64, 0u64, 0usize);
        for op in &trace {
            let (TraceOp::Bypass(t, r)
            | TraceOp::Produce(t, r, _)
            | TraceOp::Consume(t, r)
            | TraceOp::Miss(t, r)) = *op;
            match *op {
                TraceOp::Bypass(..) => {
                    table.bypass(vid(t, r));
                    *bypassed.entry((t, r)).or_insert(0u32) += 1;
                    consumed += 1;
                }
                TraceOp::Produce(_, _, consumers) => {
                    table.produce(vid(t, r), range(r), snapshot_for(r), consumers);
                    produced += 1;
                    let remaining = consumers - bypassed.remove(&(t, r)).unwrap_or(0);
                    if remaining > 0 {
                        live.insert((t, r), remaining);
                    }
                    peak = peak.max(live.len());
                }
                TraceOp::Consume(..) => {
                    let got = table.consume(vid(t, r));
                    prop_assert_eq!(got, Some((range(r), snapshot_for(r))), "wrong snapshot");
                    consumed += 1;
                    let remaining = live.get_mut(&(t, r)).expect("trace consumes live ids");
                    *remaining -= 1;
                    if *remaining == 0 {
                        live.remove(&(t, r));
                    }
                }
                TraceOp::Miss(..) => prop_assert!(table.consume(vid(t, r)).is_none()),
            }
            prop_assert_eq!(table.is_available(vid(t, r)), live.contains_key(&(t, r)));
            prop_assert_eq!(table.outstanding(), live.len());
            prop_assert_eq!(table.resident(), live.len() + bypassed.len());
        }
        prop_assert_eq!(table.produced(), produced);
        prop_assert_eq!(table.consumed(), consumed);
        prop_assert_eq!(table.peak_outstanding(), peak);
        prop_assert_eq!(table.resident(), table.outstanding(), "residency is the outstanding set");
        prop_assert_eq!(table.outstanding(), 0, "the trace drains");
    }

    /// N racing producer threads against one consumer per thread id: every
    /// snapshot must arrive intact regardless of interleaving, and the
    /// final accounting must balance — the invariant the deterministic
    /// model cannot check.
    #[test]
    fn racing_producers_and_consumers_preserve_snapshots(
        per_producer in 16u64..96,
        consumers_per_version in 1u32..3,
    ) {
        let table = VersionTable::new(2);
        let total = 2 * per_producer;
        std::thread::scope(|scope| {
            let t = &table;
            for p in 0..2u64 {
                scope.spawn(move || {
                    for i in 0..per_producer {
                        let r = 1 + p * per_producer + i;
                        t.produce(
                            vid((r % 2) as u16, r),
                            AddrRange::new(0x1000 + r * 8, 8),
                            snapshot_for(r),
                            consumers_per_version,
                        );
                    }
                });
            }
            for c in 0..2u16 {
                scope.spawn(move || {
                    for r in 1..=total {
                        if r % 2 != u64::from(c) {
                            continue;
                        }
                        for _ in 0..consumers_per_version {
                            loop {
                                if let Some((range, snap)) = t.consume(vid(c, r)) {
                                    assert_eq!(range, AddrRange::new(0x1000 + r * 8, 8));
                                    assert_eq!(snap, snapshot_for(r));
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        prop_assert_eq!(table.produced(), total);
        prop_assert_eq!(table.consumed(), total * u64::from(consumers_per_version));
        prop_assert_eq!(table.outstanding(), 0);
        prop_assert!(table.peak_outstanding() >= 1);
    }
}

// --- parity rows (the table is `common/parity.rs`) ---------------------------

#[test]
fn tso_capture_replays_identically_on_both_backends() {
    parity::dekker_taintcheck_pads();
}

#[test]
fn consume_annotations_on_ring_resident_records_are_captured() {
    parity::ring_resident_consumes();
}

#[test]
fn truncated_tso_capture_deadlocks_threaded_replay() {
    parity::unproduced_consume();
}
