//! The composable `MonitorSession` API: the open lifeguard registry, and
//! the session-level rows of the parity table.
//!
//! The invariants:
//!
//! * a custom lifeguard defined *here*, outside `crates/lifeguards`, runs
//!   through `MonitorSession` (directly and via the registry) with no edits
//!   to platform code, and never inherits a bundled analysis' reference;
//! * a panicking analysis fails its threaded run with `LanePanicked`;
//! * a wire stream pushed into a `ByteFeed` while the session runs is
//!   monitored online;
//! * the rows below replay their captures on the drivers of
//!   `common/parity.rs`, the one definition of cross-driver agreement
//!   (every driver, except a severed arc: the raw drivers here).

mod common;

use common::parity;
use paralog::core::{
    MonitorConfig, MonitorSession, MonitoringMode, Platform, ReplaySource, SessionError,
    StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AccessKind, AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, MemRef, MetaOp,
    Reg, Rid, SyscallKind, ThreadId,
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

// --- parity rows ------------------------------------------------------------

#[test]
fn deterministic_and_threaded_backends_agree() {
    parity::fluidanimate_taintcheck();
}

#[test]
fn replay_source_reproduces_live_capture() {
    parity::barnes_taintcheck_raw();
}

#[test]
fn every_replay_driver_matches_the_sequential_reference() {
    parity::barnes_small_l1();
}

#[test]
fn both_forms_match_the_oracle_across_shadow_seams() {
    parity::shadow_seams();
}

#[test]
fn threaded_backend_replays_tso_workloads() {
    parity::tso_taintcheck_workloads();
}

#[test]
fn every_bundled_lifeguard_replays_threaded_lock_free() {
    parity::fluidanimate_lock_free_forms();
}

#[test]
fn syscall_race_violations_agree_across_backends() {
    parity::syscall_race();
}

#[test]
fn a_run_never_crosses_an_in_flight_syscall_range() {
    parity::syscall_race_mid_run();
}

#[test]
fn an_arc_into_a_run_waits_for_the_whole_run() {
    parity::arc_into_a_run();
}

#[test]
fn empty_sources_are_rejected_by_both_backends() {
    parity::empty_source();
}

#[test]
fn truncated_streams_are_reported_as_deadlock() {
    parity::severed_arc(&parity::Driver::RAW);
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
