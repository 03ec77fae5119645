//! The composable `MonitorSession` API: cross-backend equivalence and the
//! open lifeguard registry.
//!
//! The tentpole invariants:
//!
//! * the **same session** (source × lifeguard × config) produces identical
//!   violations and shadow fingerprints on the deterministic and the
//!   real-threaded backend;
//! * pre-captured streams ingested through a `ReplaySource` — raw or via
//!   the compressed codec wire form — reproduce the live capture's final
//!   metadata;
//! * a custom lifeguard defined *here*, outside `crates/lifeguards`, runs
//!   through `MonitorSession` (directly and via the registry) with no edits
//!   to platform code.

use paralog::core::{
    Backend, BufferedStream, CoopSession, DeterministicBackend, LaneStep, MonitorConfig,
    MonitorSession, MonitoringMode, Platform, RecordStream, Reference, ReplaySource, RunMetrics,
    SessionError, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AccessKind, AddrRange, CaPhase, CaRecord, EventPayload, EventRecord, HighLevelKind, Instr,
    MemRef, MetaOp, Reg, Rid, SyscallKind, ThreadId,
};
use paralog::lifeguards::{
    EventView, Fingerprint, HandlerCtx, Lifeguard, LifeguardFactory, LifeguardFamily,
    LifeguardKind, LifeguardRegistry, LifeguardSpec, Violation, ViolationKind,
};
use paralog::order::CaPolicy;
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};
use std::cell::RefCell;
use std::rc::Rc;

fn workload(bench: Benchmark, threads: usize) -> Workload {
    WorkloadSpec::benchmark(bench, threads).scale(0.05).build()
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
fn deterministic_and_threaded_backends_agree() {
    for bench in [Benchmark::Fluidanimate, Benchmark::Barnes] {
        let w = workload(bench, 4);
        let det = MonitorSession::builder()
            .source(w.clone())
            .lifeguard(LifeguardKind::TaintCheck)
            .backend(DeterministicBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let thr = MonitorSession::builder()
            .source(w)
            .lifeguard(LifeguardKind::TaintCheck)
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            det.metrics.fingerprint, thr.metrics.fingerprint,
            "{bench}: backends disagree on final metadata"
        );
        assert!(
            thr.metrics.matches_reference(),
            "{bench}: threaded replay diverged from its own capture"
        );
        assert_eq!(
            violation_keys(det.metrics.violations.as_slice()),
            violation_keys(thr.metrics.violations.as_slice()),
            "{bench}: backends disagree on violations"
        );
    }
}

fn taint_replay(source: ReplaySource, backend: impl Backend + 'static) -> RunMetrics {
    MonitorSession::builder()
        .source(source)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(backend)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics
}

/// Every driver of one capture is a legal schedule of the same arcs, so
/// each must land on the capture's sequential-reference metadata. The
/// capture is the smallest Barnes one found whose run-to-block schedule
/// exposed an under-ordered store pair (a WAR arc stamped older than the
/// remote core's last store once its L1 line was evicted).
#[test]
fn every_replay_driver_matches_the_sequential_reference() {
    let w = WorkloadSpec::benchmark(Benchmark::Barnes, 2)
        .scale(0.5)
        .seed(4)
        .inject_bugs(true)
        .build();
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck)
        .with_equivalence_check();
    cfg.collect_streams = true;
    let mut machine = cfg.machine_for(2);
    machine.l1d.size_bytes = 1024;
    cfg.machine = Some(machine);
    let capture = Platform::run(&w, &cfg).metrics;
    let reference = capture.reference_fingerprint.expect("check enabled");
    assert_eq!(capture.fingerprint, reference, "capture itself diverged");
    let streams = capture.streams.clone().expect("collection enabled");

    let lanes = |run_to_block: bool| -> RunMetrics {
        let boxed = streams
            .iter()
            .map(|s| Box::new(BufferedStream::new(s.clone())) as Box<dyn RecordStream>)
            .collect();
        let (session, mut lanes) =
            CoopSession::start(&LifeguardKind::TaintCheck, w.heap, boxed, None).unwrap();
        while !session.is_complete() {
            for lane in &mut lanes {
                while lane.step(64) == LaneStep::Progressed && run_to_block {}
            }
        }
        session.report().expect("complete").unwrap()
    };
    let source = || ReplaySource::new(streams.clone(), w.heap);
    let drivers = [
        ("lanes, alternating", lanes(false)),
        ("lanes, run-to-block", lanes(true)),
        ("threaded backend", taint_replay(source(), ThreadedBackend)),
        (
            "deterministic backend",
            taint_replay(source(), DeterministicBackend),
        ),
    ];
    for (driver, metrics) in &drivers {
        assert_eq!(
            metrics.fingerprint, reference,
            "{driver}: metadata diverged from the sequential reference"
        );
        assert_eq!(
            violation_keys(&metrics.violations),
            violation_keys(&capture.violations),
            "{driver}: violations diverged from the capture"
        );
    }
}

/// With one byte shadow under both lifeguard forms, an error in it would
/// cancel out of every form-against-form comparison. This pins both forms
/// against the oracle that shares nothing with them (`Reference` keeps a
/// `BTreeMap`), on one hand-built stream aimed at the places the shared
/// container changes shape: a ~200 KiB allocation across four chunks and a
/// directory-table seam, 4-byte accesses before, across and after every
/// chunk boundary inside it, and one store to the simulator's far sentinel
/// in the spill tier. The two dataflow forms also share their transfer
/// function, so the stream carries every `dataflow_view` arm: sequential
/// against lane no longer cross-checks propagation, this does.
fn forms_match_the_oracle_across_shadow_seams(kind: LifeguardKind) {
    const CHUNK: u64 = 64 * 1024;
    const TABLE_SEAM: u64 = 512 * CHUNK;
    let heap = AddrRange::new(TABLE_SEAM - 0x100_0000, 0x200_0000);
    let block = AddrRange::new(TABLE_SEAM - 100 * 1024, 200 * 1024);
    let (clean, dirty) = (Reg::new(0), Reg::new(1));

    fn instr(records: &mut Vec<EventRecord>, instr: Instr) {
        let rid = Rid(records.len() as u64 + 1);
        records.push(EventRecord::instr(rid, instr));
    }
    fn ca(records: &mut Vec<EventRecord>, what: HighLevelKind, phase: CaPhase, range: AddrRange) {
        let rid = Rid(records.len() as u64 + 1);
        let ca = CaRecord {
            what,
            phase,
            range: Some(range),
            issuer: ThreadId(0),
            issuer_rid: rid,
            seq: u64::MAX,
        };
        records.push(EventRecord::ca(rid, ca));
    }
    let store = |addr, src| Instr::Store {
        dst: MemRef::new(addr, 4),
        src,
    };
    let mut records = Vec::new();
    // Allocated (AddrCheck), undefined (MemCheck), then tainted (TaintCheck).
    ca(&mut records, HighLevelKind::Malloc, CaPhase::End, block);
    let input = HighLevelKind::Syscall(SyscallKind::ReadInput);
    ca(&mut records, input, CaPhase::End, block);
    instr(&mut records, Instr::MovRI { dst: clean });
    let seams = (block.start / CHUNK + 1..=block.end() / CHUNK).map(|ci| ci * CHUNK);
    for (i, seam) in seams.enumerate() {
        // Clean stores just below and across the seam, a dirty load just
        // above it, carried to a word past the block (unallocated heap).
        instr(&mut records, store(seam - 8, clean));
        instr(&mut records, store(seam - 2, clean));
        let src = MemRef::new(seam + 4, 4);
        instr(&mut records, Instr::Load { dst: dirty, src });
        instr(
            &mut records,
            store(block.end() + 0x100 + 8 * i as u64, dirty),
        );
    }
    // The remaining arms of the transfer function both forms now share,
    // each result carried to its own word past the block: a move, a unary
    // op, a join of a clean and a dirty register (dirty second, so copying
    // `a` would show), a join with a dirty word of the block, and a swap
    // that leaves that word clean and the register dirty.
    let word = |i: u64| MemRef::new(block.start + 0x40 * (i + 1), 4);
    let arms = [
        Instr::MovRR {
            dst: Reg::new(2),
            src: dirty,
        },
        Instr::Alu1 {
            dst: Reg::new(2),
            a: dirty,
        },
        Instr::Alu2 {
            dst: Reg::new(2),
            a: clean,
            b: dirty,
        },
        Instr::AluMem {
            dst: Reg::new(2),
            a: clean,
            src: word(0),
        },
        Instr::Rmw {
            mem: word(1),
            reg: Reg::new(2),
        },
    ];
    for (i, arm) in arms.into_iter().enumerate() {
        instr(&mut records, Instr::MovRI { dst: Reg::new(2) });
        instr(&mut records, arm);
        instr(
            &mut records,
            store(block.end() + 0x400 + 8 * i as u64, Reg::new(2)),
        );
    }
    instr(&mut records, store(0xFFF_FFFF_F000, dirty));
    instr(&mut records, Instr::JmpReg { target: dirty });
    // Freed up to just past the table seam: the rest stays allocated.
    let freed = AddrRange::new(block.start, TABLE_SEAM + 0x800 - block.start);
    ca(&mut records, HighLevelKind::Free, CaPhase::Begin, freed);

    let mut oracle = Reference::new(kind, 1, false);
    for rec in &records {
        match &rec.payload {
            EventPayload::Instr(instr) => oracle.on_instr(0, rec.rid, instr),
            EventPayload::Ca(ca) => oracle.on_high_level(ca.what, ca.phase, ca.range),
        }
    }
    let sequential = MonitorSession::builder()
        .source(ReplaySource::new(vec![records.clone()], heap))
        .lifeguard(kind)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics;
    let stream = Box::new(BufferedStream::new(records)) as Box<dyn RecordStream>;
    let (session, mut lanes) = CoopSession::start(&kind, heap, vec![stream], None).unwrap();
    while !session.is_complete() {
        lanes[0].step(64);
    }
    let concurrent = session.report().expect("complete").unwrap();

    let empty = Reference::new(kind, 1, false).fingerprint();
    assert_ne!(
        oracle.fingerprint(),
        empty,
        "{kind}: the stream left no mark"
    );
    assert_eq!(sequential.fingerprint, oracle.fingerprint(), "{kind}");
    assert_eq!(concurrent.fingerprint, oracle.fingerprint(), "{kind}");
    assert!(
        !sequential.violations.is_empty(),
        "{kind}: nothing to report"
    );
    assert_eq!(
        violation_keys(&sequential.violations),
        violation_keys(&concurrent.violations),
        "{kind}"
    );
}

#[test]
fn both_forms_match_the_oracle_across_shadow_seams() {
    for kind in [
        LifeguardKind::TaintCheck,
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
    ] {
        forms_match_the_oracle_across_shadow_seams(kind);
    }
}

#[test]
fn replay_source_reproduces_live_capture() {
    let w = workload(Benchmark::Barnes, 4);
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let live = Platform::run(&w, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");

    // Raw streams through the deterministic (lifeguard-only) backend.
    let replay = MonitorSession::builder()
        .source(ReplaySource::new(streams.clone(), w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(replay.metrics.fingerprint, live.fingerprint);
    assert_eq!(replay.metrics.records, live.records);
    assert_eq!(
        violation_keys(&replay.metrics.violations),
        violation_keys(&live.violations)
    );

    // The same streams through the codec wire form.
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let decoded = MonitorSession::builder()
        .source(StreamingReplaySource::from_encoded(encoded, w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(decoded.metrics.fingerprint, live.fingerprint);

    // And through the real-thread backend: three-way agreement.
    let threaded = MonitorSession::builder()
        .source(ReplaySource::new(streams, w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(threaded.metrics.fingerprint, live.fingerprint);
}

#[test]
fn push_source_feeds_an_online_session() {
    use paralog::daemon::transport::ByteFeed;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let buf = AddrRange::new(0x1000_0000, 16);
    // An online feed: unverified input arrives, flows into a register, and
    // is used as a jump target.
    let records = [
        EventRecord::ca(
            Rid(1),
            CaRecord {
                what: HighLevelKind::Syscall(SyscallKind::ReadInput),
                phase: CaPhase::End,
                range: Some(buf),
                issuer: ThreadId(0),
                issuer_rid: Rid(1),
                seq: u64::MAX,
            },
        ),
        EventRecord::instr(
            Rid(2),
            Instr::Load {
                dst: Reg::new(0),
                src: MemRef::new(buf.start, 4),
            },
        ),
        EventRecord::instr(
            Rid(3),
            Instr::JmpReg {
                target: Reg::new(0),
            },
        ),
    ];
    // The producer pushes the wire bytes a few at a time while the session
    // runs; dropping the writer ends the stream.
    let wire = encode(&records);
    let (writer, reader) = ByteFeed::pair(std::sync::Arc::default());
    let producer = std::thread::spawn(move || {
        for piece in wire.chunks(3) {
            writer.write(piece);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });

    let out = MonitorSession::builder()
        .source(StreamingReplaySource::new(vec![Box::new(reader)], heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    producer.join().expect("producer");
    assert_eq!(out.metrics.records, 3);
    assert_eq!(out.metrics.violations.len(), 1);
    assert_eq!(out.metrics.violations[0].kind, ViolationKind::TaintedJump);
    assert_eq!(out.metrics.violations[0].rid, Rid(3));
}

#[test]
fn threaded_backend_replays_tso_workloads() {
    // TSO captures carry §5.5 versioned metadata; the threaded backend
    // resolves the produce/consume annotations against the session's
    // `VersionTable` instead of rejecting the plan.
    for bench in [Benchmark::Lu, Benchmark::Ocean] {
        let w = workload(bench, 4);
        let out = MonitorSession::builder()
            .source(w)
            .config(
                MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck).with_tso(),
            )
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            out.metrics.matches_reference(),
            "{bench}: TSO threaded replay diverged from its deterministic capture"
        );
        assert_eq!(
            out.metrics.versions_produced, out.metrics.versions_consumed,
            "{bench}: every produced version must find its consumer"
        );
    }
}

#[test]
fn every_bundled_lifeguard_replays_threaded_lock_free() {
    // Every bundled analysis replays on the real-thread backend through its
    // hand-written lock-free §5.3 form and must agree with the deterministic
    // backend on final metadata and violations.
    let w = workload(Benchmark::Fluidanimate, 4);
    for kind in [
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
        LifeguardKind::LockSet,
    ] {
        let det = MonitorSession::builder()
            .source(w.clone())
            .lifeguard(kind)
            .backend(DeterministicBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let thr = MonitorSession::builder()
            .source(w.clone())
            .lifeguard(kind)
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            det.metrics.fingerprint, thr.metrics.fingerprint,
            "{kind}: locked threaded replay disagrees on final metadata"
        );
        assert!(
            thr.metrics.matches_reference(),
            "{kind}: threaded replay diverged from its own capture"
        );
        assert_eq!(
            violation_keys(&det.metrics.violations),
            violation_keys(&thr.metrics.violations),
            "{kind}: locked threaded replay disagrees on violations"
        );
    }
}

#[test]
fn syscall_race_violations_agree_across_backends() {
    // §5.4 parity: thread 1 has a read() in flight (CA-Begin .. CA-End with
    // a buffer range, broadcast into every stream); thread 0 touches the
    // buffer inside the window. The deterministic backend polices the range
    // table during ingestion — the threaded backend must now report the
    // *same* SyscallRace (and downstream taint) instead of silently
    // diverging on racy-syscall workloads.
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let buf = AddrRange::new(heap.start + 0x100, 32);
    let ca = |phase, rid: u64| {
        EventRecord::ca(
            Rid(rid),
            CaRecord {
                what: HighLevelKind::Syscall(SyscallKind::ReadInput),
                phase,
                range: Some(buf),
                issuer: ThreadId(1),
                issuer_rid: Rid(rid),
                seq: u64::MAX,
            },
        )
    };
    // Thread 0's stream: the broadcast CA window around a racing load, and
    // a jump consuming the (conservatively tainted) loaded value.
    let t0 = vec![
        ca(CaPhase::Begin, 1),
        EventRecord::instr(
            Rid(2),
            Instr::Load {
                dst: Reg::new(0),
                src: MemRef::new(buf.start + 4, 4),
            },
        ),
        ca(CaPhase::End, 3),
        EventRecord::instr(
            Rid(4),
            Instr::JmpReg {
                target: Reg::new(0),
            },
        ),
    ];
    // Thread 1's stream: its own copies of the CA records.
    let t1 = vec![ca(CaPhase::Begin, 1), ca(CaPhase::End, 2)];
    let src = ReplaySource::new(vec![t0, t1], heap);

    let det = MonitorSession::builder()
        .source(src.clone())
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let thr = MonitorSession::builder()
        .source(src.clone())
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let det_keys = violation_keys(&det.metrics.violations);
    assert!(
        det_keys
            .iter()
            .any(|&(_, _, kind)| kind == ViolationKind::SyscallRace),
        "deterministic ingestion must flag the racing access"
    );
    assert!(
        det_keys
            .iter()
            .any(|&(_, _, kind)| kind == ViolationKind::TaintedJump),
        "conservative taint must reach the jump"
    );
    assert_eq!(
        det_keys,
        violation_keys(&thr.metrics.violations),
        "threaded backend diverges on racy-syscall violations"
    );
    assert_eq!(det.metrics.fingerprint, thr.metrics.fingerprint);

    // The lock-free forms police the same table: AddrCheck subscribes to
    // no syscall ranges, so both backends must agree there too (no spurious
    // hits from a policy-less range table).
    let det = MonitorSession::builder()
        .source(src.clone())
        .lifeguard(LifeguardKind::AddrCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let thr = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::AddrCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        violation_keys(&det.metrics.violations),
        violation_keys(&thr.metrics.violations)
    );
    assert_eq!(det.metrics.fingerprint, thr.metrics.fingerprint);
}

#[test]
fn truncated_streams_are_reported_as_deadlock() {
    // Thread 1's record depends on a producer record that never appears
    // (truncated capture): ingestion must fail loudly, not hang.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let mut dependent = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg::new(0),
            src: MemRef::new(heap.start, 4),
        },
    );
    dependent.arcs.push(paralog::events::DependenceArc::new(
        ThreadId(0),
        Rid(99),
        paralog::events::ArcKind::Raw,
    ));
    let src = ReplaySource::new(
        vec![
            vec![EventRecord::instr(Rid(1), Instr::Nop)],
            vec![dependent],
        ],
        heap,
    );
    // The threaded backend must report the same condition (after the
    // lanes' flat-run grace window) instead of hanging forever, and both
    // name the stuck head's blocker the same way.
    for threaded in [false, true] {
        let builder = MonitorSession::builder()
            .source(src.clone())
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        match builder.build().unwrap().run().err() {
            Some(SessionError::Deadlock(detail)) => assert!(
                detail.contains("T1 gated at #1 waiting on T0 reaching #99"),
                "threaded={threaded}: {detail}"
            ),
            other => panic!("threaded={threaded}: expected Deadlock, got {other:?}"),
        }
    }
}

#[test]
fn empty_sources_are_rejected_by_both_backends() {
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    for backend in [false, true] {
        let builder = MonitorSession::builder()
            .source(ReplaySource::new(Vec::new(), heap))
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if backend {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let err = builder.build().unwrap().run().err();
        assert_eq!(err, Some(SessionError::EmptySource));
    }
}

// --- a custom lifeguard defined entirely outside `crates/lifeguards` -------

/// Analysis-wide state of the out-of-tree example: per-thread write tallies
/// and a forbidden address range.
#[derive(Debug)]
struct TallyShared {
    writes: Vec<u64>,
    forbidden: AddrRange,
}

/// A write-tally / forbidden-range lifeguard: counts every memory write per
/// thread and reports a violation when one lands in the forbidden range.
#[derive(Debug)]
struct WriteTally {
    shared: Rc<RefCell<TallyShared>>,
    tid: ThreadId,
    spec: LifeguardSpec,
}

impl Lifeguard for WriteTally {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        if let MetaOp::CheckAccess {
            mem,
            kind: AccessKind::Write | AccessKind::Rmw,
        } = op
        {
            let mut shared = self.shared.borrow_mut();
            shared.writes[self.tid.index()] += 1;
            if shared.forbidden.overlaps(&mem.range()) {
                ctx.report(Violation {
                    tid: self.tid,
                    rid,
                    kind: ViolationKind::UnallocatedAccess,
                    addr: Some(mem.addr),
                });
            }
        }
    }

    fn handle_ca(&mut self, _ca: &CaRecord, _own: bool, _rid: Rid, _ctx: &mut HandlerCtx) {}

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        vec![0; range.len as usize]
    }

    fn fingerprint(&self) -> u64 {
        let shared = self.shared.borrow();
        let mut fp = Fingerprint::new();
        for (t, n) in shared.writes.iter().enumerate() {
            fp.mix(t as u64, *n);
        }
        fp.finish()
    }
}

#[derive(Debug)]
struct WriteTallyFactory {
    forbidden: AddrRange,
    threads: usize,
}

impl LifeguardFactory for WriteTallyFactory {
    fn name(&self) -> &str {
        "WriteTally"
    }

    fn build(&self, _heap: AddrRange) -> LifeguardFamily {
        let shared = Rc::new(RefCell::new(TallyShared {
            writes: vec![0; self.threads],
            forbidden: self.forbidden,
        }));
        LifeguardFamily::from_constructor("WriteTally", move |tid| {
            Box::new(WriteTally {
                shared: Rc::clone(&shared),
                tid,
                spec: LifeguardSpec {
                    name: "WriteTally",
                    view: EventView::Check,
                    uses_it: false,
                    uses_if: false,
                    uses_mtlb: false,
                    ca_policy: CaPolicy::new(),
                    bits_per_byte: 0,
                },
            })
        })
    }
}

#[test]
fn custom_lifeguard_runs_through_the_session_api() {
    let w = workload(Benchmark::Lu, 2);
    // Forbid part of the private working set so violations actually fire.
    let forbidden = AddrRange::new(paralog::workloads::PRIVATE_BASE, 0x400);
    let factory = WriteTallyFactory {
        forbidden,
        threads: w.thread_count(),
    };
    let out = MonitorSession::builder()
        .source(w.clone())
        .lifeguard_factory(factory)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(out.metrics.records > 0);
    assert!(
        out.metrics.delivered_ops > 0,
        "custom analysis received deliveries"
    );
    assert!(
        !out.metrics.violations.is_empty(),
        "forbidden-range writes must be reported"
    );
    assert!(out
        .metrics
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::UnallocatedAccess));

    // The same analysis resolved through an open registry, driving a replay
    // source instead of the simulator — no platform edits anywhere.
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let streams = Platform::run(&w, &cfg).metrics.streams.expect("collected");
    let mut registry = LifeguardRegistry::builtin();
    registry.register(WriteTallyFactory {
        forbidden,
        threads: w.thread_count(),
    });
    let replayed = MonitorSession::builder()
        .source(ReplaySource::new(streams, w.heap))
        .registry(registry)
        .lifeguard_named("WriteTally")
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        replayed.metrics.fingerprint, out.metrics.fingerprint,
        "write tallies agree between live capture and replay ingestion"
    );
}

#[test]
fn shadowing_a_builtin_name_does_not_inherit_its_reference() {
    // A custom factory registered under a bundled name must NOT get that
    // bundled analysis' sequential reference attached: the reference would
    // compare TaintCheck metadata against a foreign analysis.
    #[derive(Debug)]
    struct Impostor;
    impl LifeguardFactory for Impostor {
        fn name(&self) -> &str {
            "TaintCheck"
        }
        fn build(&self, heap: AddrRange) -> LifeguardFamily {
            LifeguardKind::MemCheck.build(heap)
        }
    }

    let w = workload(Benchmark::Lu, 2);
    let mut registry = LifeguardRegistry::builtin();
    registry.register(Impostor);
    let out = MonitorSession::builder()
        .source(w.clone())
        .registry(registry)
        .lifeguard_named("TaintCheck")
        .config(
            MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck)
                .with_equivalence_check(),
        )
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        out.metrics.reference_fingerprint, None,
        "custom factories run without a bundled reference"
    );
    // The genuine builtin resolved by name still gets one.
    let genuine = MonitorSession::builder()
        .source(w)
        .lifeguard_named("TaintCheck")
        .config(
            MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck)
                .with_equivalence_check(),
        )
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(genuine.metrics.reference_fingerprint.is_some());
    assert!(genuine.metrics.matches_reference());
}

/// MEMCHECK whose concurrent form panics on its hundredth record.
#[derive(Debug)]
struct PanicsInApply;

#[derive(Debug)]
struct Bomb {
    inner: Box<dyn paralog::lifeguards::ConcurrentLifeguard>,
    applied: std::sync::atomic::AtomicU64,
}

impl paralog::lifeguards::ConcurrentLifeguard for Bomb {
    fn apply(
        &self,
        tid: ThreadId,
        rec: &EventRecord,
        versioned: Option<&paralog::lifeguards::VersionedMeta>,
    ) {
        let n = self
            .applied
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        assert!(n < 100, "the analysis blew up");
        self.inner.apply(tid, rec, versioned);
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn violations(&self) -> Vec<Violation> {
        self.inner.violations()
    }
}

impl LifeguardFactory for PanicsInApply {
    fn name(&self) -> &str {
        "PanicsInApply"
    }

    fn build(&self, heap: AddrRange) -> LifeguardFamily {
        LifeguardKind::MemCheck.build(heap)
    }

    fn concurrent(
        &self,
        heap: AddrRange,
        threads: usize,
    ) -> Option<Box<dyn paralog::lifeguards::ConcurrentLifeguard>> {
        Some(Box::new(Bomb {
            inner: LifeguardKind::MemCheck.concurrent(heap, threads)?,
            applied: std::sync::atomic::AtomicU64::new(0),
        }))
    }
}

/// Runs `source` under [`PanicsInApply`] on the threaded backend and
/// returns the run's error, failing if the run panics, hangs or succeeds.
fn threaded_run_error(source: impl paralog::core::EventSource + Send + 'static) -> SessionError {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MonitorSession::builder()
                .source(source)
                .lifeguard_factory(PanicsInApply)
                .backend(ThreadedBackend)
                .build()
                .unwrap()
                .run()
                .map(|out| out.metrics.records)
        }));
        let _ = tx.send(run);
    });
    let run = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("a panicking lane must not hang the run");
    match run {
        Ok(Err(err)) => err,
        Ok(Ok(records)) => panic!("the run succeeded with {records} records"),
        Err(_) => panic!("the lane's panic escaped the run"),
    }
}

#[test]
fn a_panicking_analysis_fails_the_threaded_run() {
    // One lane, then a two-lane workload: either way the lane's panic comes
    // back as the run's error, naming the thread and the message.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let one_lane = ReplaySource::new(
        vec![(1..=200)
            .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
            .collect()],
        heap,
    );
    let errors = [
        (1, threaded_run_error(one_lane)),
        (2, threaded_run_error(workload(Benchmark::Lu, 2))),
    ];
    for (lanes, err) in errors {
        let SessionError::LanePanicked { tid, message } = &err else {
            panic!("{lanes} lanes: expected LanePanicked, got {err:?}");
        };
        assert!(tid.index() < lanes, "{lanes} lanes: {tid}");
        assert!(
            message.contains("the analysis blew up") && !message.contains('\n'),
            "{lanes} lanes: {message:?}"
        );
        assert!(err.to_string().contains("panicked"), "{err}");
    }
}
