//! Fault injection: the monitor under a hostile transport.
//!
//! `FaultyReader` drives `StreamingReplaySource` with the four fault
//! classes a real socket exhibits — short reads, transient stalls, byte
//! corruption, truncation — on both backends. The robustness contract:
//!
//! * corruption anywhere in the wire stream is reported as
//!   `MalformedStream` (the codec's chained per-record checksum), never a
//!   panic, a poisoned lock or a hung worker;
//! * truncation mid-record is `MalformedStream`;
//! * an address range that wraps the address space is `MalformedStream`.
//!
//! The rows below run on the drivers of the parity table
//! (`common/parity.rs`), whose wire drivers all read through a fragmenting,
//! stalling `FaultyReader`: truncation at a record boundary that severs
//! dependence arcs is `Deadlock` (here on the two backends' wire drivers;
//! `session` and `streaming` run the rest); semantically invalid TSO
//! annotations inside a well-framed stream (duplicate produce, zero or
//! out-of-range consumers), and a record naming a thread outside its
//! session, are `MalformedStream`; and transient stalls and fragmentation
//! change *nothing*.

mod common;

use common::parity;
use paralog::core::{
    DeterministicBackend, FaultyReader, MonitorSession, RunOutcome, SessionError,
    StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, MemRef, Reg, Rid, SyscallKind,
    ThreadId, VersionId,
};
use paralog::lifeguards::LifeguardKind;
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
    recs[2].push_produce_version(vid, m, 1);
    recs[4].set_consume_version(vid, m);
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
    use parity::Driver;
    parity::severed_arc(&[Driver::SequentialWire, Driver::PoolWire]);
}

#[test]
fn a_record_naming_a_thread_outside_its_session_is_malformed_on_both_backends() {
    parity::thread_outside_session();
}

#[test]
fn duplicate_produce_annotation_is_malformed_on_both_backends() {
    parity::duplicate_produce();
}

#[test]
fn zero_consumer_produce_annotation_is_malformed_on_both_backends() {
    parity::zero_consumer_produce();
}

#[test]
fn out_of_range_consumer_produce_annotation_is_malformed_on_both_backends() {
    parity::out_of_range_consumer_produce();
}

#[test]
fn transient_stalls_and_fragmentation_change_nothing() {
    parity::lu_taintcheck();
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
