//! Streaming ingestion: incremental, bounded-memory event sources.
//!
//! The tentpole invariants:
//!
//! * source-side resident buffering stays within two transport chunks even
//!   for large streams (asserted against the source's high-water stats);
//! * the incremental decoder is split-point oblivious (property test over
//!   random chunkings);
//! * a producer thread writing into `ByteFeed`s, waiting while the
//!   session's buffered bytes are over a cap, drives a live session on both
//!   backends and matches the equivalent buffered run;
//! * a wire stream truncated mid-record reports `MalformedStream`;
//! * a producer that drops mid-session resolves as soon as its lanes run
//!   out: `Deadlock` when it severs arcs, on the step the last lane parks,
//!   and a clean drain at a record boundary.
//!
//! Two tests run rows of the parity table (`common/parity.rs`): streamed
//! replay against the live capture on the wire drivers, plus the two-chunk
//! residency bound on that capture; and a wire stream severed at a record
//! boundary, which the hand-stepped lanes report as `Deadlock` rather than
//! hanging (`session` and `faults` run it on the other drivers).

mod common;

use common::{parity, violation_keys};
use paralog::core::session::DEFAULT_CHUNK_BYTES;
use paralog::core::{
    DeterministicBackend, MonitorSession, ReplaySource, SessionError, StreamingReplaySource,
    ThreadedBackend,
};
use paralog::events::codec::{encode, StreamDecoder};
use paralog::events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventRecord, HighLevelKind, Instr,
    MemRef, Reg, Rid, SyscallKind, ThreadId,
};
use paralog::lifeguards::{LifeguardKind, ViolationKind};
use proptest::prelude::*;

#[test]
fn streaming_replay_matches_buffered_on_both_backends() {
    let (case, reference) = parity::barnes_taintcheck_wire();
    // The same capture read a whole chunk at a time decodes within two.
    let encoded = case.streams.iter().map(|s| encode(s)).collect();
    let src = StreamingReplaySource::from_encoded(encoded, case.heap);
    let stats = src.stats();
    let out = MonitorSession::builder()
        .source(src)
        .lifeguard(case.lifeguard)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(parity::Key::of(&out.metrics), reference, "streamed != live");
    assert!(
        stats.peak_buffered_bytes() <= 2 * DEFAULT_CHUNK_BYTES,
        "decode residency {} blew the two-chunk budget",
        stats.peak_buffered_bytes()
    );
}

#[test]
fn large_stream_stays_within_memory_cap() {
    // ~200k records in one thread: far larger than the transport chunk, so
    // the bound only holds if decoding is genuinely incremental.
    let n = 200_000u64;
    let stream: Vec<EventRecord> = (0..n)
        .map(|i| {
            EventRecord::instr(
                Rid(i + 1),
                Instr::Load {
                    dst: Reg::new((i % 8) as u8),
                    src: MemRef::new(0x1000_0000 + (i % 4096) * 8, 8),
                },
            )
        })
        .collect();
    let encoded = encode(&stream);
    let wire_len = encoded.len();
    let cap = 2 * DEFAULT_CHUNK_BYTES;
    assert!(
        wire_len >= 8 * DEFAULT_CHUNK_BYTES,
        "stream must dwarf the chunk"
    );
    let heap = AddrRange::new(0x1000_0000, 0x1000_0000);
    let src = StreamingReplaySource::from_encoded(vec![encoded], heap);
    let stats = src.stats();
    let out = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.metrics.records, n);
    assert!(
        stats.peak_buffered_bytes() <= cap,
        "peak residency {} for a {} byte wire stream exceeds the {} byte cap",
        stats.peak_buffered_bytes(),
        wire_len,
        cap
    );
}

#[test]
fn truncated_wire_stream_deadlocks_not_hangs() {
    parity::severed_arc(&[parity::Driver::LanesWire]);
}

#[test]
fn mid_record_truncation_is_malformed_not_deadlock() {
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let stream = vec![EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg::new(0),
            src: MemRef::new(0x7777_7777, 4),
        },
    )];
    let mut bytes = encode(&stream);
    bytes.truncate(bytes.len() - 1); // cut inside the last record
    for threaded in [false, true] {
        let src = StreamingReplaySource::from_encoded(vec![bytes.clone()], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let err = builder.build().unwrap().run().err();
        assert!(
            matches!(err, Some(SessionError::MalformedStream(_))),
            "threaded={threaded}: expected MalformedStream, got {err:?}"
        );
    }
}

#[test]
fn byte_feed_drives_a_live_session_on_both_backends() {
    use paralog::daemon::transport::{ByteFeed, SessionBuffer};
    use std::sync::Arc;
    use std::time::Duration;

    // Thread 0 reads unverified input and stores it to a shared word;
    // thread 1 loads that word behind a RAW arc and jumps through it.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let input = AddrRange::new(heap.start, 16);
    let shared = MemRef::new(heap.start + 0x100, 4);
    let mut t0 = vec![
        EventRecord::ca(
            Rid(1),
            CaRecord {
                what: HighLevelKind::Syscall(SyscallKind::ReadInput),
                phase: CaPhase::End,
                range: Some(input),
                issuer: ThreadId(0),
                issuer_rid: Rid(1),
                seq: u64::MAX,
            },
        ),
        EventRecord::instr(
            Rid(2),
            Instr::Load {
                dst: Reg::new(0),
                src: MemRef::new(input.start, 4),
            },
        ),
        EventRecord::instr(
            Rid(3),
            Instr::Store {
                dst: shared,
                src: Reg::new(0),
            },
        ),
    ];
    t0.extend((4..=400).map(|i| {
        EventRecord::instr(
            Rid(i),
            Instr::Load {
                dst: Reg::new(2),
                src: MemRef::new(heap.start + 0x200 + (i % 64) * 4, 4),
            },
        )
    }));
    let mut t1: Vec<EventRecord> = (1..=50)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut dependent = EventRecord::instr(
        Rid(51),
        Instr::Load {
            dst: Reg::new(1),
            src: shared,
        },
    );
    dependent
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(3), ArcKind::Raw));
    t1.push(dependent);
    t1.push(EventRecord::instr(
        Rid(52),
        Instr::JmpReg {
            target: Reg::new(1),
        },
    ));
    t1.extend((53..=100).map(|i| EventRecord::instr(Rid(i), Instr::Nop)));
    let wire = [encode(&t0), encode(&t1)];

    let reference = MonitorSession::builder()
        .source(ReplaySource::new(vec![t0, t1], heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        violation_keys(&reference.metrics.violations),
        vec![(1, 52, ViolationKind::TaintedJump)],
        "the taint crosses the arc to thread 1's jump"
    );

    // The producer writes both streams in 24-byte pieces, round-robin, and
    // waits while the session holds more than `CAP` unread bytes: the
    // daemon's back-pressure rule.
    const CAP: usize = 64;
    for threaded in [false, true] {
        let total = Arc::new(SessionBuffer::default());
        let (writers, readers): (Vec<_>, Vec<_>) =
            (0..2).map(|_| ByteFeed::pair(Arc::clone(&total))).unzip();
        let producer = std::thread::spawn({
            let wire = wire.clone();
            move || {
                let mut pieces = [wire[0].chunks(24), wire[1].chunks(24)];
                let mut wrote = true;
                while wrote {
                    wrote = false;
                    for (writer, pieces) in writers.iter().zip(&mut pieces) {
                        let Some(piece) = pieces.next() else { continue };
                        while total.bytes() > CAP {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        writer.write(piece);
                        wrote = true;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Dropping the writers ends the streams.
            }
        });
        let readers = readers
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn std::io::Read + Send>)
            .collect();
        let builder = MonitorSession::builder()
            .source(StreamingReplaySource::new(readers, heap))
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let live = builder.build().unwrap().run().unwrap();
        producer.join().expect("producer");
        assert_eq!(live.metrics.records, 500, "threaded={threaded}");
        assert_eq!(
            live.metrics.fingerprint, reference.metrics.fingerprint,
            "threaded={threaded}"
        );
        assert_eq!(
            violation_keys(&live.metrics.violations),
            violation_keys(&reference.metrics.violations),
            "threaded={threaded}"
        );
    }
}

// --- producer-drop determinism ----------------------------------------------

/// A producer that vanishes mid-session with *severed* dependence arcs
/// (a consumer's producer record can never arrive) must resolve to
/// `Deadlock` promptly — on the threaded backend when the gated lane parks
/// with its peer finished and its blocker unmet, on the deterministic
/// backend when no stream can advance. Never a hang.
#[test]
fn dropped_producer_with_severed_arcs_deadlocks_fast() {
    use paralog::daemon::transport::ByteFeed;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let t0: Vec<EventRecord> = (1..=10)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut dependent = EventRecord::instr(Rid(1), Instr::Nop);
    dependent
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(9), ArcKind::Sync));
    // Thread 0's wire stream is cut at record 5 — the arc target (#9)
    // will never arrive once the producer drops.
    let t0_prefix = encode(&t0[..5]);
    let t1_whole = encode(&[dependent]);

    for threaded in [false, true] {
        let total = std::sync::Arc::default();
        let (w0, r0) = ByteFeed::pair(std::sync::Arc::clone(&total));
        let (w1, r1) = ByteFeed::pair(total);
        let producer = std::thread::spawn({
            let t0_prefix = t0_prefix.clone();
            let t1_whole = t1_whole.clone();
            move || {
                // Let the session see live `Blocked` polls first.
                std::thread::sleep(std::time::Duration::from_millis(30));
                w0.write(&t0_prefix);
                w1.write(&t1_whole);
                // Dropping both writers severs the input mid-session.
            }
        });
        let src = StreamingReplaySource::new(vec![Box::new(r0), Box::new(r1)], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let started = std::time::Instant::now();
        let err = builder.build().unwrap().run().err();
        let elapsed = started.elapsed();
        producer.join().expect("producer");
        assert!(
            matches!(err, Some(SessionError::Deadlock(_))),
            "threaded={threaded}: expected Deadlock, got {err:?}"
        );
        assert!(
            elapsed < std::time::Duration::from_millis(1500),
            "threaded={threaded}: severed input took {elapsed:?} to resolve \
             (it is decided once the input ends)"
        );
    }
}

/// A producer that vanishes at a record boundary with no dangling arcs is
/// a *clean* end of input: both backends drain and report exactly the
/// delivered prefix.
#[test]
fn dropped_producer_at_record_boundary_drains_clean() {
    use paralog::daemon::transport::ByteFeed;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let recs: Vec<EventRecord> = (1..=40)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let bytes = encode(&recs);
    for threaded in [false, true] {
        let total = std::sync::Arc::default();
        let (w0, r0) = ByteFeed::pair(std::sync::Arc::clone(&total));
        let (w1, r1) = ByteFeed::pair(total);
        let producer = std::thread::spawn({
            let bytes = bytes.clone();
            move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                w0.write(&bytes);
                w1.write(&bytes);
            }
        });
        let src = StreamingReplaySource::new(vec![Box::new(r0), Box::new(r1)], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let out =
            builder.build().unwrap().run().unwrap_or_else(|e| {
                panic!("threaded={threaded}: clean drop must drain, got {e:?}")
            });
        producer.join().expect("producer");
        assert_eq!(out.metrics.records, 80, "threaded={threaded}");
    }
}

// --- incremental decoder property tests ------------------------------------

/// A modest record generator: loads/stores walking an address neighborhood
/// (exercising delta encoding), ALU ops, jumps, CA records with and without
/// ranges, and occasional arcs.
fn record_strategy() -> impl Strategy<Value = EventRecord> {
    let mem = || {
        (
            0u64..0x2_0000,
            prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        )
            .prop_map(|(a, s)| MemRef::new(0x1000_0000 + a, s))
    };
    prop_oneof![
        4 => (0u8..8, mem()).prop_map(|(r, m)| Instr::Load {
            dst: Reg::new(r),
            src: m,
        }),
        4 => (0u8..8, mem()).prop_map(|(r, m)| Instr::Store {
            dst: m,
            src: Reg::new(r),
        }),
        2 => (0u8..8, 0u8..8).prop_map(|(a, b)| Instr::MovRR {
            dst: Reg::new(a),
            src: Reg::new(b),
        }),
        1 => (0u8..8).prop_map(|r| Instr::JmpReg { target: Reg::new(r) }),
        1 => Just(Instr::Nop),
    ]
    .prop_map(|instr| EventRecord::instr(Rid(0), instr))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chopping one wire stream at arbitrary points and feeding the pieces
    /// must reproduce the batch decode exactly.
    #[test]
    fn incremental_decode_is_split_point_oblivious(
        recs in proptest::collection::vec(record_strategy(), 1..120),
        cuts in proptest::collection::vec(0usize..4096, 0..24),
        arc_every in 3usize..9,
    ) {
        // Re-rid sequentially (the codec reconstructs rids from positions)
        // and sprinkle arcs so flag paths are exercised.
        let mut recs = recs;
        for (i, rec) in recs.iter_mut().enumerate() {
            rec.rid = Rid(i as u64 + 1);
            if i % arc_every == 0 {
                rec.arcs.push(DependenceArc::new(
                    ThreadId((i % 3) as u16),
                    Rid((i / 2) as u64 + 1),
                    ArcKind::Raw,
                ));
            }
        }
        let bytes = encode(&recs);
        let batch = paralog::events::codec::decode(&bytes).expect("valid stream");

        // Split points: sorted, deduped offsets into the byte stream.
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % bytes.len().max(1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut sd = StreamDecoder::new();
        let mut out = Vec::new();
        let mut prev = 0usize;
        for p in points.into_iter().chain(std::iter::once(bytes.len())) {
            sd.feed(&bytes[prev..p]);
            prev = p;
            while let Some(rec) = sd.next_record().expect("valid stream") {
                out.push(rec);
            }
        }
        prop_assert_eq!(&out, &batch);
        prop_assert!(sd.is_clean());
        prop_assert_eq!(out, recs);
    }
}
