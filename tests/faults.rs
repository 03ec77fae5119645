//! Fault injection: the monitor under a hostile transport.
//!
//! `FaultyReader` drives `StreamingReplaySource` with the four fault
//! classes a real socket exhibits — short reads, transient stalls, byte
//! corruption, truncation — on both backends. The robustness contract:
//!
//! * corruption anywhere in the wire stream is reported as
//!   `MalformedStream` (the codec's chained per-record checksum), never a
//!   panic, a poisoned lock or a hung worker;
//! * truncation mid-record is `MalformedStream`; truncation at a record
//!   boundary that severs dependence arcs is `Deadlock`;
//! * semantically invalid TSO annotations inside a well-framed stream
//!   (duplicate produce, zero consumers), and a record naming a thread
//!   outside its session, are `MalformedStream`, not a worker panic;
//! * transient stalls and arbitrary fragmentation change *nothing*: the
//!   run completes with the same fingerprint and violations as a clean
//!   transport.

use paralog::core::{
    DeterministicBackend, FaultyReader, MonitorConfig, MonitorSession, MonitoringMode, Platform,
    RunOutcome, SessionError, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventRecord, HighLevelKind, Instr,
    MemRef, Reg, Rid, SyscallKind, ThreadId, VersionId,
};
use paralog::lifeguards::{LifeguardKind, Violation, ViolationKind};
use paralog::workloads::{Benchmark, WorkloadSpec};
use proptest::prelude::*;
use std::io::{Cursor, Read};

const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000,
};

/// Runs encoded per-thread wire streams through `FaultyReader`s configured
/// by `configure`, on the chosen backend.
fn run_faulty(
    encoded: &[Vec<u8>],
    threaded: bool,
    configure: impl Fn(FaultyReader<Cursor<Vec<u8>>>, usize) -> FaultyReader<Cursor<Vec<u8>>>,
) -> Result<RunOutcome, SessionError> {
    let readers: Vec<Box<dyn Read + Send>> = encoded
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let reader = FaultyReader::new(Cursor::new(bytes.clone()), 0x5eed + i as u64);
            Box::new(configure(reader, i)) as Box<dyn Read + Send>
        })
        .collect();
    let src = StreamingReplaySource::new(readers, HEAP);
    let builder = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck);
    let builder = if threaded {
        builder.backend(ThreadedBackend)
    } else {
        builder.backend(DeterministicBackend)
    };
    builder.build().unwrap().run()
}

/// A small single-thread stream exercising every wire section: plain
/// instructions, a produce/consume version pair and delta-coded addresses.
fn annotated_stream() -> Vec<EventRecord> {
    let m = MemRef::new(HEAP.start + 0x10, 4);
    let vid = VersionId {
        consumer: ThreadId(0),
        consumer_rid: Rid(5),
    };
    let mut recs = vec![
        EventRecord::instr(
            Rid(1),
            Instr::Load {
                dst: Reg::new(0),
                src: m,
            },
        ),
        EventRecord::instr(
            Rid(2),
            Instr::Alu2 {
                dst: Reg::new(1),
                a: Reg::new(0),
                b: Reg::new(2),
            },
        ),
        EventRecord::instr(
            Rid(3),
            Instr::Store {
                dst: m,
                src: Reg::new(1),
            },
        ),
        EventRecord::instr(Rid(4), Instr::Nop),
        EventRecord::instr(
            Rid(5),
            Instr::Load {
                dst: Reg::new(2),
                src: m,
            },
        ),
        EventRecord::instr(Rid(6), Instr::Nop),
    ];
    recs[2].produce_versions.push((vid, m, 1));
    recs[4].consume_version = Some((vid, m));
    recs
}

#[test]
fn corruption_at_every_offset_is_malformed_not_fatal() {
    let bytes = encode(&annotated_stream());
    for offset in 0..bytes.len() {
        let err = run_faulty(std::slice::from_ref(&bytes), false, |r, _| {
            r.corrupt_byte(offset as u64)
        })
        .err();
        assert!(
            matches!(err, Some(SessionError::MalformedStream(_))),
            "offset {offset}/{}: expected MalformedStream, got {err:?}",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The threaded sampling of the exhaustive sweep above: real workers
    // must fail the run and exit — not panic, not hang — for any corrupted
    // offset, composed with arbitrary fragmentation.
    #[test]
    fn threaded_workers_report_corruption_and_exit(
        offset in 0usize..34,
        seed in 0u64..1000,
    ) {
        let bytes = encode(&annotated_stream());
        let offset = offset % bytes.len();
        let err = run_faulty(std::slice::from_ref(&bytes), true, |r, _| {
            // Re-seed so fragmentation varies independently of the offset.
            let _ = seed;
            r.short_reads().corrupt_byte(offset as u64)
        })
        .err();
        prop_assert!(
            matches!(err, Some(SessionError::MalformedStream(_))),
            "offset {offset}: expected MalformedStream, got {err:?}"
        );
    }
}

#[test]
fn mid_record_truncation_is_malformed_on_both_backends() {
    let bytes = encode(&annotated_stream());
    for threaded in [false, true] {
        let err = run_faulty(std::slice::from_ref(&bytes), threaded, |r, _| {
            r.truncate_at(bytes.len() as u64 - 1)
        })
        .err();
        assert!(
            matches!(err, Some(SessionError::MalformedStream(_))),
            "threaded={threaded}: expected MalformedStream, got {err:?}"
        );
    }
}

#[test]
fn boundary_truncation_severing_arcs_is_deadlock_on_both_backends() {
    // Thread 1's only record depends on thread 0's tail; cut thread 0's
    // wire at a clean record boundary so the producer record never
    // arrives. Workers must report Deadlock and exit, not hang.
    let t0: Vec<EventRecord> = (1..=10)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut dependent = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg::new(0),
            src: MemRef::new(HEAP.start, 4),
        },
    );
    dependent
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(9), ArcKind::Raw));
    let boundary = encode(&t0[..5]).len() as u64;
    let encoded = vec![encode(&t0), encode(&[dependent])];
    for threaded in [false, true] {
        let started = std::time::Instant::now();
        let err = run_faulty(&encoded, threaded, |r, i| {
            if i == 0 {
                r.truncate_at(boundary)
            } else {
                r
            }
        })
        .err();
        assert!(
            matches!(err, Some(SessionError::Deadlock(_))),
            "threaded={threaded}: expected Deadlock, got {err:?}"
        );
        // The lanes' severed-input window is the only detector: nothing
        // waits out a multi-second grace.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "threaded={threaded}: deadlock took {:?}",
            started.elapsed()
        );
    }
}

#[test]
fn a_record_naming_a_thread_outside_its_session_is_malformed_on_both_backends() {
    // A 2-thread capture whose thread 1 names thread 7 as an arc source, or
    // carries a ConflictAlert copy issued by thread 9. Either would index
    // the progress or range table out of bounds and panic the replay; the
    // lane's input refuses the record instead.
    let t0: Vec<EventRecord> = (1..=4)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut arc = EventRecord::instr(Rid(1), Instr::Nop);
    arc.arcs
        .push(DependenceArc::new(ThreadId(7), Rid(1), ArcKind::Raw));
    let ca = EventRecord::ca(
        Rid(1),
        CaRecord {
            what: HighLevelKind::Syscall(SyscallKind::ReadInput),
            phase: CaPhase::Begin,
            range: Some(AddrRange::new(HEAP.start, 64)),
            issuer: ThreadId(9),
            issuer_rid: Rid(3),
            seq: 0,
        },
    );
    for (rec, named) in [(arc, "arc source T7"), (ca, "ConflictAlert issuer T9")] {
        let encoded = vec![encode(&t0), encode(&[rec])];
        for threaded in [false, true] {
            let err = run_faulty(&encoded, threaded, |r, _| r).err();
            match err {
                Some(SessionError::MalformedStream(detail)) => assert!(
                    detail.contains("record #1") && detail.contains(named),
                    "threaded={threaded}: unexpected detail {detail:?}"
                ),
                other => panic!("threaded={threaded}: expected MalformedStream, got {other:?}"),
            }
        }
    }
}

#[test]
fn duplicate_produce_annotation_is_malformed_on_both_backends() {
    // A well-framed stream (checksums intact) whose *semantics* are
    // corrupt: two records publish the same version id. The platform must
    // report the stream, not panic a worker or poison the version table.
    let m = MemRef::new(HEAP.start + 0x20, 4);
    let vid = VersionId {
        consumer: ThreadId(0),
        consumer_rid: Rid(9),
    };
    let mut recs: Vec<EventRecord> = (1..=4)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    recs[0].produce_versions.push((vid, m, 1));
    recs[1].produce_versions.push((vid, m, 1));
    let encoded = vec![encode(&recs)];
    for threaded in [false, true] {
        let err = run_faulty(&encoded, threaded, |r, _| r).err();
        match err {
            Some(SessionError::MalformedStream(detail)) => assert!(
                detail.contains("produce annotation"),
                "threaded={threaded}: unexpected detail {detail:?}"
            ),
            other => panic!("threaded={threaded}: expected MalformedStream, got {other:?}"),
        }
    }
}

/// Replays a one-thread stream of three `Nop`s whose first record produces
/// version `<consumer, 2>` for `consumers` readers: both backends must call
/// the stream malformed.
fn assert_produce_annotation_is_malformed(consumer: u16, consumers: u32) {
    let m = MemRef::new(HEAP.start + 0x20, 4);
    let vid = VersionId {
        consumer: ThreadId(consumer),
        consumer_rid: Rid(2),
    };
    let mut recs: Vec<EventRecord> = (1..=3)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    recs[0].produce_versions.push((vid, m, consumers));
    let encoded = vec![encode(&recs)];
    for threaded in [false, true] {
        let err = run_faulty(&encoded, threaded, |r, _| r).err();
        assert!(
            matches!(err, Some(SessionError::MalformedStream(_))),
            "threaded={threaded}: expected MalformedStream, got {err:?}"
        );
    }
}

#[test]
fn zero_consumer_produce_annotation_is_malformed_on_both_backends() {
    assert_produce_annotation_is_malformed(0, 0);
}

#[test]
fn out_of_range_consumer_produce_annotation_is_malformed_on_both_backends() {
    // Consumer thread 7 of a 1-thread session: no lane could ever consume
    // the version, and both replay paths share the table that says so.
    assert_produce_annotation_is_malformed(7, 1);
}

#[test]
fn wrapping_address_range_is_malformed_on_both_backends() {
    // A 4-byte store at 2^64 - 2, and a `ReadInput`-End ConflictAlert over
    // (2^64 - 9, 64). Analysing either as the empty range `start + len`
    // wraps to would silently drop it; both are a malformed stream.
    let store = EventRecord::instr(
        Rid(1),
        Instr::Store {
            dst: MemRef::new(u64::MAX - 1, 4),
            src: Reg::new(0),
        },
    );
    let input = EventRecord::ca(
        Rid(1),
        CaRecord {
            what: HighLevelKind::Syscall(SyscallKind::ReadInput),
            phase: CaPhase::End,
            range: Some(AddrRange::new(u64::MAX - 8, 64)),
            issuer: ThreadId(0),
            issuer_rid: Rid(1),
            seq: 0,
        },
    );
    for rec in [store, input] {
        let encoded = vec![encode(std::slice::from_ref(&rec))];
        for threaded in [false, true] {
            let err = run_faulty(&encoded, threaded, |r, _| r).err();
            match err {
                Some(SessionError::MalformedStream(detail)) => assert!(
                    detail.contains("address range wraps"),
                    "threaded={threaded}: unexpected detail {detail:?}"
                ),
                other => panic!("threaded={threaded}: expected MalformedStream, got {other:?}"),
            }
        }
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

#[test]
fn transient_stalls_and_fragmentation_change_nothing() {
    // A realistic multi-thread capture through a transport that stalls
    // with WouldBlock every ~9 bytes and fragments every read: both
    // backends must recover and match the clean run exactly.
    let w = WorkloadSpec::benchmark(Benchmark::Lu, 2)
        .scale(0.05)
        .build();
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let live = Platform::run(&w, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();

    for threaded in [false, true] {
        let readers: Vec<Box<dyn Read + Send>> = encoded
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                Box::new(
                    FaultyReader::new(Cursor::new(bytes.clone()), 0xF00 + i as u64)
                        .short_reads()
                        .stall_every(9),
                ) as Box<dyn Read + Send>
            })
            .collect();
        let src = StreamingReplaySource::new(readers, w.heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let outcome = builder.build().unwrap().run().unwrap_or_else(|e| {
            panic!("threaded={threaded}: faulted transport should recover, got {e}")
        });
        assert_eq!(
            outcome.metrics.fingerprint, live.fingerprint,
            "threaded={threaded}: stalls changed the outcome"
        );
        assert_eq!(
            violation_keys(&outcome.metrics.violations),
            violation_keys(&live.violations),
            "threaded={threaded}"
        );
    }
}
