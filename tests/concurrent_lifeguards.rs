//! Lock-free fast-path MemCheck & LockSet (§5.3): cross-backend parity and
//! the concurrent-form seam.
//!
//! The tentpole invariants:
//!
//! * all five bundled `LifeguardKind`s resolve to **hand-written
//!   lock-free concurrent forms**, while a custom factory without one
//!   stays on the sequential loop and is refused by name — by
//!   `ThreadedBackend` and by `paralogd` — not silently wrapped;
//! * the concurrent forms replay SC and TSO captures on `ThreadedBackend`
//!   with fingerprints and violations identical to the deterministic
//!   backend — from the raw captured records and from the codec wire form;
//! * under genuine thread races (the nightly TSan job's target) the
//!   lock-free fast paths converge to the sequential analyses' metadata
//!   and never double-report.

mod common;

use paralog::core::{
    DeterministicBackend, MonitorConfig, MonitorSession, MonitoringMode, Platform, ReplaySource,
    SessionError, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventRecord, HighLevelKind, Instr,
    LockId, MemRef, Op, Reg, Rid, SyscallKind, ThreadId, VersionId,
};
use paralog::lifeguards::{
    EventView, HandlerCtx, LifeguardFactory, LifeguardFamily, LifeguardKind, Violation,
    ViolationKind,
};
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};
use proptest::prelude::*;

const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000_0000,
};

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

// ---------------------------------------------------------------------------
// The concurrent-form seam
// ---------------------------------------------------------------------------

/// Every bundled analysis resolves to its hand-written lock-free
/// concurrent form. The forms are crate-private; each one's `Debug` names
/// the analysis it runs (the dataflow engine serves two).
#[test]
fn all_bundled_kinds_resolve_to_lock_free_concurrent_forms() {
    let expected = [
        (LifeguardKind::TaintCheck, "TaintCheck"),
        (LifeguardKind::AddrCheck, "AddrCheck"),
        (LifeguardKind::MemCheck, "MemCheck"),
        (LifeguardKind::LockSet, "LockSetConcurrent"),
        (LifeguardKind::HappensBefore, "HappensBeforeConcurrent"),
    ];
    for (kind, form) in expected {
        let conc = kind.concurrent(HEAP, 2).expect("bundled kinds replay");
        let dbg = format!("{conc:?}");
        assert!(
            dbg.contains(form),
            "{kind} should resolve to {form}, got {dbg}"
        );
    }
}

/// A factory that overrides only `build`.
#[derive(Debug)]
struct SequentialOnly;

impl LifeguardFactory for SequentialOnly {
    fn name(&self) -> &str {
        "SequentialOnly"
    }
    fn build(&self, heap: AddrRange) -> LifeguardFamily {
        LifeguardKind::TaintCheck.build(heap)
    }
}

/// The seam that is left is a named refusal, not a hole: a factory with no
/// concurrent form replays a capture on the sequential loop with the
/// reference fingerprint, `ThreadedBackend` answers `Unsupported`, and
/// `paralogd` answers `ERR` on ATTACH without disturbing a neighbour.
#[test]
fn a_sequential_only_factory_replays_in_order_and_the_lanes_refuse_it_by_name() {
    assert!(SequentialOnly.concurrent(HEAP, 2).is_none());

    let w = workload(Benchmark::Swaptions, 2);
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let live = Platform::run(&w, &cfg).metrics;
    let streams = live.streams.as_ref().expect("collection enabled");
    let session = |threaded: bool| {
        let builder = MonitorSession::builder()
            .source(ReplaySource::new(streams.clone(), w.heap))
            .lifeguard_factory(SequentialOnly);
        if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        }
        .build()
        .unwrap()
        .run()
    };

    let det = session(false).expect("the sequential loop serves it");
    assert_eq!(det.metrics.fingerprint, live.fingerprint);
    assert_eq!(
        violation_keys(&det.metrics.violations),
        violation_keys(&live.violations)
    );

    match session(true) {
        Err(SessionError::Unsupported(_)) => {}
        other => panic!("the lanes must refuse a sequential-only factory: {other:?}"),
    }

    #[cfg(unix)]
    {
        use paralog::daemon::client::{Control, Producer};
        use paralog::daemon::proto::AttachRequest;
        use paralog::daemon::supervisor::{Daemon, DaemonConfig};

        let sock = |tag: &str| {
            std::env::temp_dir().join(format!("plgd-{}-seam{tag}.sock", std::process::id()))
        };
        let mut config = DaemonConfig::new(sock("d"), sock("c"));
        config.workers = 2;
        config.registry.register(SequentialOnly);
        let daemon = Daemon::spawn(config).expect("daemon spawns");
        let request = |lifeguard: &str| AttachRequest {
            name: lifeguard.into(),
            lifeguard: lifeguard.into(),
            threads: 2,
            tso: false,
            heap: w.heap,
            mode: paralog::core::BackendMode::Auto,
        };

        // The neighbour attaches first and streams after the refusal.
        let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
        let mut neighbour =
            Producer::attach(daemon.data_socket(), &request("TaintCheck")).expect("attaches");

        let refused = Producer::attach(daemon.data_socket(), &request("SequentialOnly"))
            .expect_err("no concurrent form, no session");
        assert!(
            refused.to_string().contains("ERR"),
            "ATTACH answers ERR: {refused}"
        );

        neighbour.send_capture(&encoded, 4096).expect("streams");
        let id = neighbour.session_id();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let status = loop {
            let status = Control::connect(daemon.control_socket())
                .and_then(|mut ctl| ctl.status(id))
                .expect("status");
            if status.iter().any(|l| l == "state done") {
                break status;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the neighbour never finished: {status:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert!(
            status.contains(&format!("fingerprint {:016x}", live.fingerprint)),
            "the neighbour ends ok with the reference fingerprint: {status:?}"
        );
        daemon.shutdown();
    }
}

// ---------------------------------------------------------------------------
// SC capture parity (workload-driven, raw and codec wire form)
// ---------------------------------------------------------------------------

/// All five bundled lifeguards replay SC captures on `ThreadedBackend`
/// with fingerprints and violations identical to the deterministic backend
/// — from the live run, the raw collected streams, and the codec wire form.
#[test]
fn sc_captures_replay_identically_on_both_backends() {
    // Fluidanimate: fine-grained locking (LockSet's home turf); Swaptions:
    // malloc/free churn (MemCheck's structural slow path, and the CA
    // records TaintCheck and AddrCheck write metadata on). HappensBefore
    // sees no sync-space traffic in these captures, so every cross-thread
    // conflicting pair races — the captured dependence arcs order those
    // pairs, which is exactly what makes its reports and poisoned metadata
    // backend-deterministic.
    for (kind, bench) in [
        (LifeguardKind::TaintCheck, Benchmark::Swaptions),
        (LifeguardKind::AddrCheck, Benchmark::Swaptions),
        (LifeguardKind::MemCheck, Benchmark::Swaptions),
        (LifeguardKind::MemCheck, Benchmark::Fluidanimate),
        (LifeguardKind::LockSet, Benchmark::Fluidanimate),
        (LifeguardKind::LockSet, Benchmark::Radiosity),
        (LifeguardKind::HappensBefore, Benchmark::Fluidanimate),
        (LifeguardKind::HappensBefore, Benchmark::Radiosity),
    ] {
        let w = workload(bench, 4);
        let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, kind);
        cfg.collect_streams = true;
        let live = Platform::run(&w, &cfg).metrics;
        let streams = live.streams.clone().expect("collection enabled");

        // Deterministic lifeguard-only ingestion of the raw capture.
        let det = MonitorSession::builder()
            .source(ReplaySource::new(streams.clone(), w.heap))
            .lifeguard(kind)
            .backend(DeterministicBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            det.metrics.fingerprint, live.fingerprint,
            "{kind}/{bench}: ingestion diverged from the live run"
        );

        // Threaded replay of the raw capture (the new lock-free forms).
        let thr = MonitorSession::builder()
            .source(ReplaySource::new(streams.clone(), w.heap))
            .lifeguard(kind)
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            thr.metrics.fingerprint, det.metrics.fingerprint,
            "{kind}/{bench}: threaded replay diverged on final metadata"
        );
        assert_eq!(
            violation_keys(&thr.metrics.violations),
            violation_keys(&det.metrics.violations),
            "{kind}/{bench}: threaded replay diverged on violations"
        );

        // Threaded replay of the codec wire form, read a few bytes at a time.
        let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
        let src = StreamingReplaySource::new(common::short_reads(encoded), w.heap);
        let wire = MonitorSession::builder()
            .source(src)
            .lifeguard(kind)
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            wire.metrics.fingerprint, det.metrics.fingerprint,
            "{kind}/{bench}: codec-decoded threaded replay diverged"
        );
        assert_eq!(
            violation_keys(&wire.metrics.violations),
            violation_keys(&det.metrics.violations),
            "{kind}/{bench}: codec-decoded violations diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// TSO capture parity (§5.5 versioned metadata through the new forms)
// ---------------------------------------------------------------------------

/// The Figure 5 Dekker pattern reshaped for MEMCHECK: each side mallocs its
/// own flag region (marking it undefined), defines its flag with a store,
/// then reads the other's flag — under TSO the read may consume the
/// producer's *pre-store* (still-undefined) version, which must flow into
/// the reader's downstream store identically on both backends.
fn dekker_memcheck(pad: usize) -> Workload {
    let a = MemRef::new(0x2000_0000, 8);
    let b = MemRef::new(0x2000_0100, 8);
    let side = |mine: MemRef, theirs: MemRef| {
        let mut ops = vec![Op::Malloc {
            range: AddrRange::new(mine.addr, 8),
        }];
        for _ in 0..pad {
            ops.push(Op::Instr(Instr::Nop));
        }
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
        name: "figure5-memcheck".into(),
        benchmark: None,
        threads: vec![side(a, b), side(b, a)],
        heap: AddrRange::new(0x1000_0000, 0x1000_0000),
        locks: 0,
    }
}

/// Acceptance: a §5.5 versioned stream replays on `ThreadedBackend` with
/// fingerprints and violations identical to `DeterministicBackend` — raw
/// capture and codec wire form — under each byte-shadow lifeguard (the
/// Dekker sides malloc, so every kind has metadata for the versions to
/// carry).
fn dekker_tso_capture_replays_identically_on_both_backends(kind: LifeguardKind) {
    let mut any_versions = 0u64;
    for pad in [0usize, 1, 2, 3, 5, 8] {
        let w = dekker_memcheck(pad);
        let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, kind).with_tso();
        cfg.collect_streams = true;
        let live = Platform::run(&w, &cfg).metrics;
        let streams = live.streams.clone().expect("collection enabled");
        any_versions += live.versions_produced;

        let det = MonitorSession::builder()
            .source(ReplaySource::new(streams.clone(), w.heap))
            .lifeguard(kind)
            .backend(DeterministicBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            det.metrics.fingerprint, live.fingerprint,
            "{kind} pad={pad}: deterministic ingestion diverged from the live run"
        );

        let thr = MonitorSession::builder()
            .source(ReplaySource::new(streams.clone(), w.heap))
            .lifeguard(kind)
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            thr.metrics.fingerprint, det.metrics.fingerprint,
            "{kind} pad={pad}: threaded TSO replay diverged on final metadata"
        );
        assert_eq!(
            violation_keys(&thr.metrics.violations),
            violation_keys(&det.metrics.violations),
            "{kind} pad={pad}: threaded TSO replay diverged on violations"
        );
        assert_eq!(thr.metrics.versions_produced, live.versions_produced);
        assert_eq!(thr.metrics.versions_consumed, live.versions_consumed);

        let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
        let src = StreamingReplaySource::new(common::short_reads(encoded), w.heap);
        let wire = MonitorSession::builder()
            .source(src)
            .lifeguard(kind)
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            wire.metrics.fingerprint, det.metrics.fingerprint,
            "{kind} pad={pad}: codec-decoded TSO replay diverged"
        );
    }
    assert!(
        any_versions > 0,
        "{kind}: no pad manifested a store-buffer version; its §5.5 path \
         went untested"
    );
}

#[test]
fn memcheck_tso_capture_replays_identically_on_both_backends() {
    for kind in [
        LifeguardKind::TaintCheck,
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
    ] {
        dekker_tso_capture_replays_identically_on_both_backends(kind);
    }
}

/// A consumed §5.5 version is the metadata the consumer *logically* read:
/// T1's load of X was satisfied before T0's store to X became visible, hence
/// before the malloc that follows that store, so ADDRCHECK must judge it
/// against the producer's pre-store snapshot (unallocated) on every backend
/// — not against the live shadow, which by delivery time (the arc to the
/// malloc) says allocated.
#[test]
fn addrcheck_versioned_read_agrees_across_backends() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let x = MemRef::new(heap.start + 0x40, 4);
    let version = VersionId {
        consumer: ThreadId(1),
        consumer_rid: Rid(1),
    };

    let mut produce = store(1, x.addr);
    produce.produce_versions.push((version, x, 1));
    let malloc = EventRecord::ca(
        Rid(2),
        CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(AddrRange::new(heap.start, 0x100)),
            issuer: ThreadId(0),
            issuer_rid: Rid(2),
            seq: u64::MAX, // own-stream record: no cross-thread ordering
        },
    );
    let mut consume = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg(0),
            src: x,
        },
    );
    consume.consume_version = Some((version, x));
    consume.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(2),
        kind: ArcKind::Raw,
    });
    let streams = vec![vec![produce, malloc], vec![consume]];

    let det = MonitorSession::builder()
        .source(ReplaySource::new(streams.clone(), heap))
        .lifeguard(LifeguardKind::AddrCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let thr = MonitorSession::builder()
        .source(ReplaySource::new(streams, heap))
        .lifeguard(LifeguardKind::AddrCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let unallocated = |tid, rid| (tid, rid, ViolationKind::UnallocatedAccess);
    assert_eq!(
        violation_keys(&det.metrics.violations),
        vec![unallocated(0, 1), unallocated(1, 1)],
        "the producer's store and the consumer's versioned load both \
         precede the malloc"
    );
    assert_eq!(
        violation_keys(&thr.metrics.violations),
        violation_keys(&det.metrics.violations)
    );
    assert_eq!(thr.metrics.fingerprint, det.metrics.fingerprint);
}

/// TSO *workloads* replay end to end through the new forms on the
/// real-thread backend, reproducing their own deterministic capture
/// (LockSet keeps no byte shadow — its all-clean snapshots must still flow
/// through the produce/consume machinery without divergence).
#[test]
fn tso_workloads_replay_through_new_forms() {
    for (kind, bench) in [
        (LifeguardKind::MemCheck, Benchmark::Ocean),
        (LifeguardKind::LockSet, Benchmark::Fluidanimate),
        (LifeguardKind::HappensBefore, Benchmark::Fluidanimate),
    ] {
        let w = workload(bench, 4);
        let out = MonitorSession::builder()
            .source(w)
            .config(MonitorConfig::new(MonitoringMode::Parallel, kind).with_tso())
            .backend(ThreadedBackend)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            out.metrics.matches_reference(),
            "{kind}/{bench}: TSO threaded replay diverged from its capture"
        );
        assert_eq!(
            out.metrics.versions_produced, out.metrics.versions_consumed,
            "{kind}/{bench}: every produced version must find its consumer"
        );
    }
}

// ---------------------------------------------------------------------------
// Hand-built LockSet race capture: deterministic attribution via arcs
// ---------------------------------------------------------------------------

fn lock_ca(rid: u64, tid: u16, lock: u32, acquire: bool) -> EventRecord {
    EventRecord::ca(
        Rid(rid),
        CaRecord {
            what: if acquire {
                HighLevelKind::Lock(LockId(lock))
            } else {
                HighLevelKind::Unlock(LockId(lock))
            },
            phase: if acquire {
                CaPhase::End
            } else {
                CaPhase::Begin
            },
            range: None,
            issuer: ThreadId(tid),
            issuer_rid: Rid(rid),
            seq: u64::MAX,
        },
    )
}

fn store(rid: u64, addr: u64) -> EventRecord {
    EventRecord::instr(
        Rid(rid),
        Instr::Store {
            dst: MemRef::new(addr, 4),
            src: Reg(0),
        },
    )
}

/// A hand-built capture whose race report is attribution-deterministic
/// (the racing write carries a WAW arc to the prior write, so both
/// backends must deliver — and report — in the same order), replayed raw
/// and through the codec wire form.
#[test]
fn lockset_race_capture_agrees_across_backends() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let var = 0x200u64;
    let protected = 0x300u64;

    // Thread 0: lock-disciplined write to `protected`, bare write to `var`.
    let t0 = vec![
        lock_ca(1, 0, 7, true),
        store(2, protected),
        lock_ca(3, 0, 7, false),
        store(4, var),
    ];
    // Thread 1: same discipline on `protected` (ordered after T0's unlock
    // via a sync arc), then an unprotected write to `var` ordered after
    // T0's by its captured WAW arc — the access that empties the candidate
    // set and must report the race, on both backends.
    let mut t1_lock = lock_ca(1, 1, 7, true);
    t1_lock.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(3),
        kind: ArcKind::Sync,
    });
    let mut t1_prot = store(2, protected);
    t1_prot.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(2),
        kind: ArcKind::Waw,
    });
    let mut t1_race = store(4, var);
    t1_race.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(4),
        kind: ArcKind::Waw,
    });
    let t1 = vec![t1_lock, t1_prot, lock_ca(3, 1, 7, false), t1_race];

    let streams = vec![t0, t1];
    let run = |backend: bool, streams: Vec<Vec<EventRecord>>| {
        let builder = MonitorSession::builder()
            .source(ReplaySource::new(streams, heap))
            .lifeguard(LifeguardKind::LockSet);
        let builder = if backend {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        builder.build().unwrap().run().unwrap()
    };

    let det = run(false, streams.clone());
    assert_eq!(
        violation_keys(&det.metrics.violations),
        vec![(1, 4, ViolationKind::DataRace)],
        "the arc-ordered racing write reports, the disciplined one does not"
    );
    let thr = run(true, streams.clone());
    assert_eq!(thr.metrics.fingerprint, det.metrics.fingerprint);
    assert_eq!(
        violation_keys(&thr.metrics.violations),
        violation_keys(&det.metrics.violations)
    );

    // Codec wire form through the threaded backend.
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let wire = MonitorSession::builder()
        .source(StreamingReplaySource::new(
            common::short_reads(encoded),
            heap,
        ))
        .lifeguard(LifeguardKind::LockSet)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(wire.metrics.fingerprint, det.metrics.fingerprint);
    assert_eq!(
        violation_keys(&wire.metrics.violations),
        violation_keys(&det.metrics.violations)
    );
}

// ---------------------------------------------------------------------------
// Hand-built HappensBefore captures: deterministic attribution via arcs
// ---------------------------------------------------------------------------

/// An atomic read-modify-write on a sync-space word — HappensBefore's
/// acquire shape (join the word's published vector clock, then republish).
fn sync_rmw(rid: u64, addr: u64) -> EventRecord {
    EventRecord::instr(
        Rid(rid),
        Instr::Rmw {
            mem: MemRef::new(addr, 8),
            reg: Reg(0),
        },
    )
}

/// A hand-built true-race capture for HAPPENSBEFORE. The lock hand-off
/// (sync-space Rmw/Store joined by a Sync arc) orders the protected writes,
/// so they stay silent; the bare writes to `var` carry no happens-before
/// edge, and the WAW arc to the prior write pins which access completes the
/// race — both backends must report it exactly once, at thread 1's write,
/// and converge on the poisoned (unknown-order) word state. Replayed raw
/// and through the codec wire form.
#[test]
fn happensbefore_race_capture_agrees_across_backends() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let lock = paralog::lifeguards::lockset::SYNC_SPACE_START;
    let protected = 0x300u64;
    let var = 0x200u64;

    // Thread 0: acquire, protected write, release, then a bare write.
    let t0 = vec![
        sync_rmw(1, lock),
        store(2, protected),
        store(3, lock),
        store(4, var),
    ];
    // Thread 1: the acquire is arc-ordered after T0's release, so its
    // vector-clock join covers T0's protected write. The bare write is
    // arc-ordered after T0's by its captured WAW arc but carries no
    // happens-before edge — the access that must report the race.
    let mut t1_acq = sync_rmw(1, lock);
    t1_acq.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(3),
        kind: ArcKind::Sync,
    });
    let mut t1_prot = store(2, protected);
    t1_prot.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(2),
        kind: ArcKind::Waw,
    });
    let mut t1_race = store(4, var);
    t1_race.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(4),
        kind: ArcKind::Waw,
    });
    let t1 = vec![t1_acq, t1_prot, store(3, lock), t1_race];

    let streams = vec![t0, t1];
    let run = |threaded: bool, streams: Vec<Vec<EventRecord>>| {
        let builder = MonitorSession::builder()
            .source(ReplaySource::new(streams, heap))
            .lifeguard(LifeguardKind::HappensBefore);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        builder.build().unwrap().run().unwrap()
    };

    let det = run(false, streams.clone());
    assert_eq!(
        violation_keys(&det.metrics.violations),
        vec![(1, 4, ViolationKind::DataRace)],
        "the arc-ordered racing write reports exactly once, the \
         lock-disciplined writes stay silent"
    );
    let thr = run(true, streams.clone());
    assert_eq!(thr.metrics.fingerprint, det.metrics.fingerprint);
    assert_eq!(
        violation_keys(&thr.metrics.violations),
        violation_keys(&det.metrics.violations)
    );

    // Codec wire form through the threaded backend.
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let wire = MonitorSession::builder()
        .source(StreamingReplaySource::new(
            common::short_reads(encoded),
            heap,
        ))
        .lifeguard(LifeguardKind::HappensBefore)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(wire.metrics.fingerprint, det.metrics.fingerprint);
    assert_eq!(
        violation_keys(&wire.metrics.violations),
        violation_keys(&det.metrics.violations)
    );
}

/// The race-free counterpart: every shared write rides the lock hand-off,
/// so HAPPENSBEFORE must stay silent on both backends with identical
/// final metadata.
#[test]
fn happensbefore_disciplined_capture_is_silent_on_both_backends() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let lock = paralog::lifeguards::lockset::SYNC_SPACE_START;
    let var = 0x200u64;

    let t0 = vec![sync_rmw(1, lock), store(2, var), store(3, lock)];
    let mut t1_acq = sync_rmw(1, lock);
    t1_acq.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(3),
        kind: ArcKind::Sync,
    });
    let mut t1_var = store(2, var);
    t1_var.arcs.push(DependenceArc {
        src: ThreadId(0),
        src_rid: Rid(2),
        kind: ArcKind::Waw,
    });
    let t1 = vec![t1_acq, t1_var, store(3, lock)];

    let streams = vec![t0, t1];
    let det = MonitorSession::builder()
        .source(ReplaySource::new(streams.clone(), heap))
        .lifeguard(LifeguardKind::HappensBefore)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        det.metrics.violations.is_empty(),
        "lock-disciplined hand-off must not race: {:?}",
        det.metrics.violations
    );
    let thr = MonitorSession::builder()
        .source(ReplaySource::new(streams, heap))
        .lifeguard(LifeguardKind::HappensBefore)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(thr.metrics.violations.is_empty());
    assert_eq!(thr.metrics.fingerprint, det.metrics.fingerprint);
}

// ---------------------------------------------------------------------------
// Racing-threads properties (the nightly TSan job races these)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The byte-shadow lock-free fast paths under genuine races: threads
    /// replay disjoint slabs on real threads — a prelude that dirties the
    /// slab (MemCheck: malloc → undefined; TaintCheck: read() → tainted;
    /// AddrCheck: malloc → allocated), then stores that clean and loads
    /// that propagate or check. The final shadow must match the sequential
    /// family applied in any order, and no worker's propagation may leak
    /// into another slab.
    #[test]
    fn memcheck_racing_disjoint_slabs_match_sequential(
        kind in 0usize..3,
        threads in 2usize..5,
        blocks in 4u64..24,
    ) {
        let kind = [
            LifeguardKind::TaintCheck,
            LifeguardKind::AddrCheck,
            LifeguardKind::MemCheck,
        ][kind];
        let conc = kind.concurrent(HEAP, threads).expect("lock-free form");
        let slab = |t: usize| HEAP.start + t as u64 * 0x1000;
        let stream = |t: usize| {
            let base = slab(t);
            let mut recs = vec![EventRecord::ca(
                Rid(1),
                CaRecord {
                    what: if kind == LifeguardKind::TaintCheck {
                        HighLevelKind::Syscall(SyscallKind::ReadInput)
                    } else {
                        HighLevelKind::Malloc
                    },
                    phase: CaPhase::End,
                    range: Some(AddrRange::new(base, blocks * 8)),
                    issuer: ThreadId(t as u16),
                    issuer_rid: Rid(1),
                    seq: u64::MAX,
                },
            )];
            let mut rid = 2u64;
            for b in 0..blocks {
                // Clean even blocks; leave odd blocks as the prelude left
                // them.
                if b % 2 == 0 {
                    recs.push(EventRecord::instr(Rid(rid), Instr::MovRI { dst: Reg(0) }));
                    rid += 1;
                    recs.push(EventRecord::instr(Rid(rid), Instr::Store {
                        dst: MemRef::new(base + b * 8, 8),
                        src: Reg(0),
                    }));
                    rid += 1;
                } else {
                    recs.push(EventRecord::instr(Rid(rid), Instr::Load {
                        dst: Reg(1),
                        src: MemRef::new(base + b * 8, 8),
                    }));
                    rid += 1;
                }
            }
            recs
        };
        let streams: Vec<Vec<EventRecord>> = (0..threads).map(stream).collect();
        std::thread::scope(|scope| {
            for (t, recs) in streams.iter().enumerate() {
                let conc = &*conc;
                scope.spawn(move || {
                    for rec in recs {
                        conc.apply(ThreadId(t as u16), rec, None);
                    }
                });
            }
        });
        // Sequential reference: the same records thread by thread.
        let family = kind.build(HEAP);
        let mut lgs: Vec<_> = (0..threads)
            .map(|t| family.thread(ThreadId(t as u16)))
            .collect();
        for (t, recs) in streams.iter().enumerate() {
            for rec in recs {
                let mut ctx = HandlerCtx::new();
                match &rec.payload {
                    paralog::events::EventPayload::Instr(instr) => {
                        let op = match lgs[t].spec().view {
                            EventView::Dataflow => paralog::events::dataflow_view(instr),
                            EventView::Check => paralog::events::check_view(instr),
                        };
                        if let Some(op) = op {
                            lgs[t].handle(&op, rec.rid, &mut ctx);
                        }
                    }
                    paralog::events::EventPayload::Ca(ca) => {
                        lgs[t].handle_ca(ca, ca.issuer == ThreadId(t as u16), rec.rid, &mut ctx);
                    }
                }
            }
        }
        prop_assert_eq!(conc.fingerprint(), lgs[0].fingerprint(),
            "{}: racing disjoint-slab replay must converge to the sequential shadow", kind);
        prop_assert!(conc.violations().is_empty());
    }

    /// LockSet's CAS fast path under genuine races: every thread holds the
    /// same lock mask and writes every shared word, so the per-word
    /// transitions are confluent — the final state must match the
    /// sequential family, and an empty mask must yield *exactly one*
    /// DataRace per word no matter how many writers race the report.
    #[test]
    fn lockset_racing_writers_converge_and_report_once(
        threads in 2usize..5,
        words in 1u64..12,
        lock_choice in 0u32..64,
    ) {
        // The offline proptest shim has no `option` module; 0 encodes "no
        // lock held" (the racing case), anything else a shared lock id.
        let lock_mask: Option<u32> = (lock_choice != 0).then_some(lock_choice - 1);
        let conc = LifeguardKind::LockSet.concurrent(HEAP, threads).expect("lock-free form");
        let stream = |t: usize| {
            let mut recs = Vec::new();
            let mut rid = 1u64;
            if let Some(lock) = lock_mask {
                recs.push(lock_ca(rid, t as u16, lock, true));
                rid += 1;
            }
            for w in 0..words {
                recs.push(store(rid, 0x4000 + w * 4));
                rid += 1;
            }
            // A second pass so every thread contributes its held set to the
            // candidate intersection regardless of interleaving.
            for w in 0..words {
                recs.push(store(rid, 0x4000 + w * 4));
                rid += 1;
            }
            recs
        };
        let streams: Vec<Vec<EventRecord>> = (0..threads).map(stream).collect();
        std::thread::scope(|scope| {
            for (t, recs) in streams.iter().enumerate() {
                let conc = &*conc;
                scope.spawn(move || {
                    for rec in recs {
                        conc.apply(ThreadId(t as u16), rec, None);
                    }
                });
            }
        });
        let races = u64::from(lock_mask.is_none()) * words;
        prop_assert_eq!(conc.violations().len() as u64, races,
            "exactly one report per unprotected word, none when locked");
        // Sequential reference: same streams, thread by thread.
        let family = LifeguardKind::LockSet.build(HEAP);
        let mut lgs: Vec<_> = (0..threads)
            .map(|t| family.thread(ThreadId(t as u16)))
            .collect();
        let mut seq_violations = 0usize;
        for (t, recs) in streams.iter().enumerate() {
            for rec in recs {
                let mut ctx = HandlerCtx::new();
                match &rec.payload {
                    paralog::events::EventPayload::Instr(instr) => {
                        if let Some(op) = paralog::events::check_view(instr) {
                            lgs[t].handle(&op, rec.rid, &mut ctx);
                        }
                    }
                    paralog::events::EventPayload::Ca(ca) => {
                        lgs[t].handle_ca(ca, ca.issuer == ThreadId(t as u16), rec.rid, &mut ctx);
                    }
                }
                seq_violations += ctx.violations.len();
            }
        }
        prop_assert_eq!(seq_violations as u64, races);
        prop_assert_eq!(conc.fingerprint(), lgs[0].fingerprint(),
            "racing same-mask writers must converge to the sequential state");
    }

    /// HappensBefore's CAS fast path under genuine races: every thread
    /// writes every shared word with no sync-space traffic, so every word
    /// is a true race. Poison-on-race makes the outcome schedule-free: each
    /// word must report *exactly once* no matter how many writers race the
    /// report, and the final metadata must converge to the sequential
    /// family's poisoned state.
    #[test]
    fn happensbefore_racing_writers_poison_and_report_once(
        threads in 2usize..5,
        words in 1u64..12,
    ) {
        let conc = LifeguardKind::HappensBefore
            .concurrent(HEAP, threads)
            .expect("lock-free form");
        let stream = |_t: usize| {
            let mut recs = Vec::new();
            let mut rid = 1u64;
            // Two passes so later writers keep hammering already-poisoned
            // words — the exactly-once latch is what's under test.
            for _pass in 0..2 {
                for w in 0..words {
                    recs.push(store(rid, 0x4000 + w * 4));
                    rid += 1;
                }
            }
            recs
        };
        let streams: Vec<Vec<EventRecord>> = (0..threads).map(stream).collect();
        std::thread::scope(|scope| {
            for (t, recs) in streams.iter().enumerate() {
                let conc = &*conc;
                scope.spawn(move || {
                    for rec in recs {
                        conc.apply(ThreadId(t as u16), rec, None);
                    }
                });
            }
        });
        prop_assert_eq!(conc.violations().len() as u64, words,
            "exactly one DataRace per racing word, however many writers race the report");
        // Sequential reference: same streams, thread by thread.
        let family = LifeguardKind::HappensBefore.build(HEAP);
        let mut lgs: Vec<_> = (0..threads)
            .map(|t| family.thread(ThreadId(t as u16)))
            .collect();
        let mut seq_violations = 0usize;
        for (t, recs) in streams.iter().enumerate() {
            for rec in recs {
                let mut ctx = HandlerCtx::new();
                if let paralog::events::EventPayload::Instr(instr) = &rec.payload {
                    if let Some(op) = paralog::events::check_view(instr) {
                        lgs[t].handle(&op, rec.rid, &mut ctx);
                    }
                }
                seq_violations += ctx.violations.len();
            }
        }
        prop_assert_eq!(seq_violations as u64, words);
        prop_assert_eq!(conc.fingerprint(), lgs[0].fingerprint(),
            "racing writers must converge to the sequential poisoned state");
    }
}
