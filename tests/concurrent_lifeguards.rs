//! Lock-free fast-path MemCheck & LockSet (§5.3): the concurrent-form seam,
//! racing-thread properties, and the lifeguard rows of the parity table.
//!
//! The tentpole invariants:
//!
//! * all five bundled `LifeguardKind`s resolve to **hand-written
//!   lock-free concurrent forms**, while a custom factory without one
//!   stays on the sequential loop and is refused by name — by
//!   `ThreadedBackend` and by `paralogd` — not silently wrapped;
//! * the concurrent forms replay SC and TSO captures, and hand-built
//!   LockSet, HappensBefore and versioned AddrCheck streams, identically on
//!   every driver of the parity table (`common/parity.rs`);
//! * under genuine thread races (the nightly TSan job's target) the
//!   lock-free fast paths converge to the sequential analyses' metadata
//!   and never double-report.

mod common;

use common::parity::{self, lock_ca, store};
use common::violation_keys;
use paralog::core::{
    DeterministicBackend, MonitorConfig, MonitorSession, MonitoringMode, Platform, ReplaySource,
    SessionError, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, MemRef, Reg, Rid, SyscallKind,
    ThreadId,
};
use paralog::lifeguards::{
    EventView, HandlerCtx, LifeguardFactory, LifeguardFamily, LifeguardKind,
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
// Parity rows (the table is `common/parity.rs`)
// ---------------------------------------------------------------------------

#[test]
fn sc_captures_replay_identically_on_both_backends() {
    parity::sc_lifeguard_workloads();
}

#[test]
fn memcheck_tso_capture_replays_identically_on_both_backends() {
    parity::dekker_malloc_pads();
}

#[test]
fn addrcheck_versioned_read_agrees_across_backends() {
    parity::addrcheck_versioned_read();
}

#[test]
fn tso_workloads_replay_through_new_forms() {
    parity::tso_lifeguard_workloads();
}

#[test]
fn lockset_race_capture_agrees_across_backends() {
    parity::lockset_race();
}

#[test]
fn happensbefore_race_capture_agrees_across_backends() {
    parity::happensbefore_race();
}

#[test]
fn happensbefore_disciplined_capture_is_silent_on_both_backends() {
    parity::happensbefore_disciplined();
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
