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
//!   `ThreadedBackend` — raw or through the codec wire form — with
//!   fingerprints, violations and version traffic identical to the live
//!   deterministic run — including a capture whose consume annotations
//!   land on records already in a ring;
//! * a TSO capture truncated before its produce point deadlocks the
//!   threaded replay loudly (the gated consumer lane's flat-run
//!   detector) instead of hanging or silently bypassing.

mod common;

use paralog::core::{
    DeterministicBackend, MonitorConfig, MonitorSession, MonitoringMode, Platform, ReplaySource,
    SessionError, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, EventRecord, Instr, MemRef, Op, Reg, Rid, SyscallKind, ThreadId, VersionId,
};
use paralog::lifeguards::{LifeguardKind, Violation, ViolationKind};
use paralog::meta::VersionTable;
use paralog::workloads::Workload;
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

/// Builds the Figure 5 Dekker pattern (same shape as `tso_figure5.rs`):
/// each thread taints a buffer via a read() syscall, writes its own flag
/// clean, and reads the other's — with `pad` spacers controlling how the
/// stores sit in the store buffers (some pads manifest the SC violation).
fn dekker(pad: usize) -> Workload {
    dekker_after(|_, buf| {
        let mut ops = vec![Op::Syscall {
            kind: SyscallKind::ReadInput,
            buf: Some(buf),
        }];
        ops.extend((0..pad).map(|_| Op::Instr(Instr::Nop)));
        ops
    })
}

/// The Dekker pattern with each thread running `prelude(theirs, buf)`
/// before it writes its own flag.
fn dekker_after(prelude: impl Fn(MemRef, AddrRange) -> Vec<Op>) -> Workload {
    let a = MemRef::new(0x2000_0000, 8);
    let b = MemRef::new(0x2000_0100, 8);
    let side = |mine: MemRef, theirs: MemRef, buf: AddrRange| {
        let mut ops = prelude(theirs, buf);
        ops.push(Op::Instr(Instr::MovRI { dst: Reg(0) }));
        ops.push(Op::Instr(Instr::Store {
            dst: mine,
            src: Reg(0),
        }));
        ops.push(Op::Instr(Instr::Load {
            dst: Reg(1),
            src: theirs,
        }));
        ops.push(Op::Instr(Instr::Store {
            dst: MemRef::new(mine.addr + 0x40, 8),
            src: Reg(1),
        }));
        ops
    };
    Workload {
        name: "figure5-cross-backend".into(),
        benchmark: None,
        threads: vec![
            side(a, b, AddrRange::new(a.addr, 8)),
            side(b, a, AddrRange::new(b.addr, 8)),
        ],
        heap: AddrRange::new(0x1000_0000, 0x1000_0000),
        locks: 0,
    }
}

fn violation_keys(violations: &[Violation]) -> Vec<(u16, u64, ViolationKind)> {
    let mut keys: Vec<_> = violations
        .iter()
        .map(|v| (v.tid.0, v.rid.0, v.kind))
        .collect();
    keys.sort_by_key(|&(tid, rid, _)| (tid, rid));
    keys
}

/// Acceptance: a §5.5 versioned stream replays on `ThreadedBackend` with
/// fingerprints and violations identical to `DeterministicBackend` — both
/// from the raw captured records and from the codec wire form — and the
/// version traffic matches the live run's.
#[test]
fn tso_capture_replays_identically_on_both_backends() {
    let any_versions: u64 = [0usize, 1, 2, 3, 5, 8]
        .into_iter()
        .map(|pad| assert_replays_like_the_live_run(&dekker(pad), &format!("pad={pad}")))
        .sum();
    assert!(
        any_versions > 0,
        "at least one pad must manifest the SC violation, or the versioned \
         replay path went untested"
    );
}

/// A capture whose consume annotations land on records already in a ring:
/// each thread loads the other's flag four times before it writes its own,
/// and those loads leave staging at once (no older store of theirs is
/// buffered), so the flag store that drains later versions them where they
/// wait for their lifeguard. A capture that cloned records as they left
/// staging kept only the one annotation on the staged load.
#[test]
fn consume_annotations_on_ring_resident_records_are_captured() {
    let early_loads = |theirs, _| {
        (0..4)
            .map(|_| {
                Op::Instr(Instr::Load {
                    dst: Reg(2),
                    src: theirs,
                })
            })
            .collect()
    };
    let versions = assert_replays_like_the_live_run(&dekker_after(early_loads), "early loads");
    assert!(versions > 1, "only the staged load was versioned");
}

/// Asserts `w`'s TSO capture carries every §5.5 annotation its live run
/// acted on and replays like it on both backends — raw, and on
/// `ThreadedBackend` through the codec wire form too. Returns the versions
/// the capture produces.
fn assert_replays_like_the_live_run(w: &Workload, case: &str) -> u64 {
    let mut cfg =
        MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck).with_tso();
    cfg.collect_streams = true;
    let live = Platform::run(w, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");

    // The collected capture must carry every §5.5 annotation the live
    // run acted on.
    let produces: u64 = streams
        .iter()
        .flatten()
        .map(|r| r.produce_versions.len() as u64)
        .sum();
    let consumes: u64 = streams
        .iter()
        .flatten()
        .filter(|r| r.consume_version.is_some())
        .count() as u64;
    assert_eq!(produces, live.versions_produced, "{case}: lost produce");
    assert_eq!(consumes, live.versions_consumed, "{case}: lost consume");

    // Deterministic lifeguard-only ingestion of the raw capture.
    let det = MonitorSession::builder()
        .source(ReplaySource::new(streams.clone(), w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        det.metrics.fingerprint, live.fingerprint,
        "{case}: deterministic ingestion diverged from the live run"
    );

    // Threaded replay of the raw capture.
    let thr = MonitorSession::builder()
        .source(ReplaySource::new(streams.clone(), w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        thr.metrics.fingerprint, det.metrics.fingerprint,
        "{case}: threaded replay diverged from deterministic"
    );
    assert_eq!(
        violation_keys(&thr.metrics.violations),
        violation_keys(&det.metrics.violations),
        "{case}: violations diverged"
    );
    assert_eq!(thr.metrics.versions_produced, live.versions_produced);
    assert_eq!(thr.metrics.versions_consumed, live.versions_consumed);

    // Threaded replay of the codec-encoded wire form, read a few bytes at a
    // time (the decode path must deliver annotations intact too).
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let src = StreamingReplaySource::new(common::short_reads(encoded), w.heap);
    let wire = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        wire.metrics.fingerprint, det.metrics.fingerprint,
        "{case}: codec-decoded threaded replay diverged"
    );
    assert_eq!(
        violation_keys(&wire.metrics.violations),
        violation_keys(&det.metrics.violations),
        "{case}: codec-decoded violations diverged"
    );
    produces
}

/// A consume annotation whose producer never reaches its produce point (a
/// truncated TSO capture) must fail loudly: the gated consumer lane's
/// flat-run detector reports `Deadlock` instead of hanging — and
/// instead of silently bypassing, which would race the producer's store on
/// real threads.
#[test]
fn truncated_tso_capture_deadlocks_threaded_replay() {
    let heap = AddrRange::new(0x1000_0000, 0x1000_0000);
    let mem = MemRef::new(0x2000_0000, 8);
    let mut consumer = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg(0),
            src: mem,
        },
    );
    consumer.consume_version = Some((vid(0, 1), mem));
    // Thread 1 (the would-be producer) is already exhausted: nothing will
    // ever produce v<T0,#1>.
    let streams = vec![vec![consumer], vec![]];
    let started = std::time::Instant::now();
    let err = MonitorSession::builder()
        .source(ReplaySource::new(streams, heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .err();
    match err {
        Some(SessionError::Deadlock(detail)) => {
            assert!(
                detail.contains("version"),
                "deadlock report should name the version wait: {detail}"
            );
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    // The lanes' severed-input window is the only detector: nothing waits
    // out a multi-second grace.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "deadlock took {:?}",
        started.elapsed()
    );
}
