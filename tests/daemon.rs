//! End-to-end exercise of `paralogd`: external producers over Unix-domain
//! sockets, N sessions multiplexed over one shared worker pool.
//!
//! The tentpole invariants:
//!
//! * two *concurrent* sessions with different lifeguards, each fed by its
//!   own producer process-alike over the data socket, finish with
//!   fingerprints and violations **identical** to in-process replays of
//!   the same captures;
//! * a session detached while its producer is mid-stream drains what
//!   arrived and reports partial (but valid) metrics;
//! * a stalled producer on session A never delays session B (shared-pool
//!   isolation), and A's lanes demonstrably traverse the real
//!   `WouldBlock` → `Blocked` path while stalled;
//! * a malformed handshake and mid-stream corruption surface as errors on
//!   the control surface without taking the daemon down;
//! * an analysis that panics fails its own session, naming the panic, and
//!   costs the pool no worker;
//! * graceful shutdown drains live sessions to partial metrics — no
//!   hangs, no poisoned locks — and wakes every blocked connection reader,
//!   whether it waits on a silent producer or above its session's cap.

#![cfg(unix)]

use paralog::core::{
    MonitorConfig, MonitorSession, MonitoringMode, Platform, StreamingReplaySource,
};
use paralog::daemon::client::{Control, Producer};
use paralog::daemon::proto::{self, AttachRequest};
use paralog::daemon::supervisor::{Daemon, DaemonConfig};
use paralog::events::codec::encode;
use paralog::events::{AddrRange, ArcKind, DependenceArc, EventRecord, Instr, Rid, ThreadId};
use paralog::lifeguards::{
    ConcurrentLifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind, VersionedMeta, Violation,
};
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Unique, short socket paths (the `sun_path` limit is ~108 bytes).
fn sock_path(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("plgd-{}-{tag}{n}.sock", std::process::id()))
}

fn spawn_daemon(tag: &str) -> Daemon {
    let mut config =
        DaemonConfig::new(sock_path(&format!("{tag}d")), sock_path(&format!("{tag}c")));
    config.workers = 4;
    Daemon::spawn(config).expect("daemon spawns")
}

/// Captures a workload's annotated streams plus the live run's results.
fn capture(
    bench: Benchmark,
    threads: usize,
    kind: LifeguardKind,
) -> (Workload, Vec<Vec<u8>>, u64, Vec<Violation>) {
    let w = WorkloadSpec::benchmark(bench, threads).scale(0.05).build();
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, kind);
    cfg.collect_streams = true;
    let live = Platform::run(&w, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");
    let encoded = streams.iter().map(|s| encode(s)).collect();
    (w, encoded, live.fingerprint, live.violations)
}

/// A no-arc capture: per-thread independent records, so any record-boundary
/// prefix drains to valid partial metrics.
fn independent_capture(threads: usize, per_thread: u64) -> (AddrRange, Vec<Vec<u8>>) {
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let encoded = (0..threads)
        .map(|_| {
            let recs: Vec<EventRecord> = (1..=per_thread)
                .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
                .collect();
            encode(&recs)
        })
        .collect();
    (heap, encoded)
}

fn attach_request(
    name: &str,
    kind: LifeguardKind,
    threads: usize,
    heap: AddrRange,
) -> AttachRequest {
    AttachRequest {
        name: name.into(),
        lifeguard: kind.name().into(),
        threads,
        tso: false,
        heap,
        mode: paralog::core::BackendMode::Auto,
    }
}

/// Polls `STATUS <id>` until the session leaves the running/draining
/// states; returns the final status block.
fn await_done(daemon: &Daemon, id: u64) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut ctl = Control::connect(daemon.control_socket()).expect("control connects");
        let status = ctl.status(id).expect("status");
        let state = field(&status, "state");
        match state.as_deref() {
            Some("done") | Some("failed") => return status,
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "session {id} never finished; status: {status:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// First `<key> <rest>` status line's `<rest>`.
fn field(lines: &[String], key: &str) -> Option<String> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{key} ")).map(str::to_string))
}

/// `(tid, rid)` keys of `violation <tid> <rid> ...` status lines, sorted.
fn status_violation_ids(lines: &[String]) -> Vec<(u16, u64)> {
    let mut keys: Vec<(u16, u64)> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("violation "))
        .map(|rest| {
            let mut it = rest.split_ascii_whitespace();
            let tid = it.next().expect("tid").parse().expect("tid number");
            let rid = it.next().expect("rid").parse().expect("rid number");
            (tid, rid)
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn violation_ids(violations: &[Violation]) -> Vec<(u16, u64)> {
    let mut keys: Vec<(u16, u64)> = violations.iter().map(|v| (v.tid.0, v.rid.0)).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn two_concurrent_sessions_match_in_process_replay() {
    // Two different captures, two different lifeguards, one daemon, one
    // shared pool. Both producers stream concurrently.
    let (wa, enc_a, fp_a, viol_a) = capture(Benchmark::Barnes, 4, LifeguardKind::TaintCheck);
    let (wb, enc_b, fp_b, viol_b) = capture(Benchmark::Lu, 2, LifeguardKind::MemCheck);

    // In-process references over the same encoded bytes.
    let ref_a = MonitorSession::builder()
        .source(StreamingReplaySource::from_encoded(enc_a.clone(), wa.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(ref_a.metrics.fingerprint, fp_a);

    let daemon = spawn_daemon("pair");
    let mut prod_a = Producer::attach(
        daemon.data_socket(),
        &attach_request("barnes", LifeguardKind::TaintCheck, 4, wa.heap),
    )
    .expect("A attaches");
    let mut prod_b = Producer::attach(
        daemon.data_socket(),
        &attach_request("lu", LifeguardKind::MemCheck, 2, wb.heap),
    )
    .expect("B attaches");
    assert_ne!(prod_a.session_id(), prod_b.session_id());

    // Stream both captures concurrently in small frames so the sessions
    // genuinely interleave on the shared pool.
    let feeder_a = std::thread::spawn(move || {
        prod_a.send_capture(&enc_a, 512).expect("A streams");
        prod_a.session_id()
    });
    let feeder_b = std::thread::spawn(move || {
        prod_b.send_capture(&enc_b, 512).expect("B streams");
        prod_b.session_id()
    });
    let id_a = feeder_a.join().expect("A feeder");
    let id_b = feeder_b.join().expect("B feeder");

    let status_a = await_done(&daemon, id_a);
    let status_b = await_done(&daemon, id_b);
    assert_eq!(field(&status_a, "state").as_deref(), Some("done"));
    assert_eq!(field(&status_b, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status_a, "fingerprint"),
        Some(format!("{fp_a:016x}")),
        "session A fingerprint diverged from the in-process run"
    );
    assert_eq!(
        field(&status_b, "fingerprint"),
        Some(format!("{fp_b:016x}")),
        "session B fingerprint diverged from the in-process run"
    );
    assert_eq!(status_violation_ids(&status_a), violation_ids(&viol_a));
    assert_eq!(status_violation_ids(&status_b), violation_ids(&viol_b));

    // STATUS surfaces the metadata substrate and a throughput figure.
    assert!(
        field(&status_a, "metadata").is_some(),
        "STATUS reports the factory's metadata shape"
    );
    let _rate: f64 = field(&status_a, "records_per_sec")
        .expect("records_per_sec line")
        .parse()
        .expect("throughput is numeric");

    // Lanes model no cycles, so STATUS prints no modelled phase split.
    assert!(
        !status_a.iter().any(|l| l.starts_with("phase_")),
        "STATUS carries no phase_ line: {status_a:?}"
    );

    // LIST sees both, finished.
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    let listed = ctl.list().unwrap();
    let sessions = listed.iter().filter(|l| l.starts_with("session ")).count();
    assert_eq!(sessions, 2, "LIST: {listed:?}");
    drop(ctl);
    // ... and closes with what the pool did to get there.
    let pool = pool_counters(&daemon);
    assert_eq!(pool["workers"], 4);
    assert!(
        pool["slices"] > 0
            && ["idle_sleeps", "wakes", "backstops"]
                .iter()
                .all(|key| pool.contains_key(*key)),
        "{pool:?}"
    );
    for report in daemon.shutdown() {
        report.result.expect("both sessions finished clean");
    }
}

#[test]
fn detach_while_running_drains_to_partial_metrics() {
    let (heap, encoded) = independent_capture(2, 400);
    let daemon = spawn_daemon("det");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("hang", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches");
    let id = producer.session_id();

    // Send only a prefix of each thread's capture (at a record boundary:
    // encode() of a record prefix is a byte prefix of the full stream),
    // then keep the connection open — the producer is alive but idle.
    let half: Vec<EventRecord> = (1..=200u64)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let half = encode(&half);
    assert!(encoded[0].starts_with(&half), "prefix property");
    producer.send(0, &half).unwrap();
    producer.send(1, &half).unwrap();

    // Wait until the session has demonstrably ingested, then detach.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut ctl = Control::connect(daemon.control_socket()).unwrap();
        let status = ctl.status(id).unwrap();
        let records: u64 = field(&status, "records").expect("records").parse().unwrap();
        if records >= 400 {
            break;
        }
        assert!(Instant::now() < deadline, "never ingested: {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    let reply = ctl.detach(id).unwrap();
    assert!(reply[0].starts_with("OK"), "detach: {reply:?}");

    let status = await_done(&daemon, id);
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(field(&status, "records").as_deref(), Some("400"));
    drop(producer);
    daemon.shutdown();
}

#[test]
fn stalled_producer_never_delays_other_sessions() {
    let (heap, full) = independent_capture(1, 2000);
    let daemon = spawn_daemon("iso");

    // Session A: attaches, sends a token amount, then stalls (connection
    // open, no further bytes).
    let mut stalled = Producer::attach(
        daemon.data_socket(),
        &attach_request("stalled", LifeguardKind::TaintCheck, 1, heap),
    )
    .expect("A attaches");
    let id_a = stalled.session_id();
    let token: Vec<EventRecord> = (1..=10u64)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    stalled.send(0, &encode(&token)).unwrap();

    // Session B: streams a full capture and must finish while A stalls.
    let mut runner = Producer::attach(
        daemon.data_socket(),
        &attach_request("runner", LifeguardKind::TaintCheck, 1, heap),
    )
    .expect("B attaches");
    let id_b = runner.session_id();
    runner.send_capture(&full, 256).unwrap();
    let status_b = await_done(&daemon, id_b);
    assert_eq!(field(&status_b, "state").as_deref(), Some("done"));
    assert_eq!(field(&status_b, "records").as_deref(), Some("2000"));

    // A is still running — and its lane has demonstrably been through the
    // real non-blocking path (`WouldBlock` → `StreamStatus::Blocked`).
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    let status_a = ctl.status(id_a).unwrap();
    assert_eq!(field(&status_a, "state").as_deref(), Some("running"));
    let blocked: u64 = field(&status_a, "blocked_polls")
        .expect("blocked_polls while running")
        .parse()
        .unwrap();
    assert!(blocked > 0, "stalled session never saw a Blocked poll");

    // Un-stall A; it finishes too.
    stalled.finish().unwrap();
    let status_a = await_done(&daemon, id_a);
    assert_eq!(field(&status_a, "state").as_deref(), Some("done"));
    assert_eq!(field(&status_a, "records").as_deref(), Some("10"));
    daemon.shutdown();
}

#[test]
fn dropped_producer_with_severed_arcs_fails_the_session_promptly() {
    use paralog::events::{ArcKind, DependenceArc, ThreadId};

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    // Thread 1's only record depends on thread 0's record #9; thread 0's
    // stream is cut (at a clean frame + record boundary) at #5.
    let t0: Vec<EventRecord> = (1..=10u64)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut dependent = EventRecord::instr(Rid(1), Instr::Nop);
    dependent
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(9), ArcKind::Sync));

    let daemon = spawn_daemon("sever");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("severed", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches");
    let id = producer.session_id();
    producer.send(0, &encode(&t0[..5])).unwrap();
    producer.send(1, &encode(&[dependent])).unwrap();
    drop(producer); // connection gone mid-session, arcs dangling

    let started = Instant::now();
    let status = await_done(&daemon, id);
    let elapsed = started.elapsed();
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));
    let error = field(&status, "error").expect("error line");
    assert!(error.contains("gated"), "unexpected error: {error}");
    assert!(
        elapsed < Duration::from_secs(2),
        "severed-arc detach took {elapsed:?} to resolve"
    );
    daemon.shutdown();
}

#[test]
fn status_names_what_each_parked_lane_waits_on() {
    // Thread 1's first record waits on thread 0's #5, and at first only
    // thread 1's frames arrive: its lane parks there, and STATUS says so.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let nops = || -> Vec<EventRecord> {
        (1..=10u64)
            .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
            .collect()
    };
    let mut t1 = nops();
    t1[0]
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(5), ArcKind::Raw));
    let encoded = vec![encode(&nops()), encode(&t1)];
    let reference = MonitorSession::builder()
        .source(StreamingReplaySource::from_encoded(encoded.clone(), heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics
        .fingerprint;

    let daemon = spawn_daemon("lane");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("parked", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches");
    let id = producer.session_id();
    producer.send(1, &encoded[1]).expect("thread 1 streams");
    let lanes = |status: &[String]| -> Vec<String> {
        let lanes = status.iter().filter(|l| l.starts_with("lane "));
        lanes.cloned().collect()
    };
    let watchdog = Instant::now() + Duration::from_secs(10);
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    loop {
        let status = ctl.status(id).unwrap();
        if lanes(&status) == ["lane T1 gated at #1 waiting on T0 reaching #5"] {
            break;
        }
        assert!(
            Instant::now() < watchdog,
            "no parked lane named: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    producer.send(0, &encoded[0]).expect("thread 0 streams");
    producer.finish().expect("ends every thread");
    let status = await_done(&daemon, id);
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{reference:016x}"))
    );
    assert_eq!(
        lanes(&status),
        Vec::<String>::new(),
        "an ended session parks no lane"
    );
    daemon.shutdown();
}

#[test]
fn malformed_handshake_is_rejected_without_killing_the_daemon() {
    let daemon = spawn_daemon("hs");

    // Garbage greeting → ERR and a dropped connection.
    let mut raw = UnixStream::connect(daemon.data_socket()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR"), "got {reply:?}");

    // Unknown lifeguard → ERR with the reason.
    let (heap, _) = independent_capture(1, 1);
    let err = Producer::attach(
        daemon.data_socket(),
        &AttachRequest {
            name: "x".into(),
            lifeguard: "NoSuchAnalysis".into(),
            threads: 1,
            tso: false,
            heap,
            mode: paralog::core::BackendMode::Auto,
        },
    )
    .expect_err("unknown lifeguard must be rejected");
    assert!(err.to_string().contains("unknown lifeguard"), "{err}");

    // The daemon is fine: a well-formed attach still works end to end.
    let (heap, encoded) = independent_capture(1, 50);
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("ok", LifeguardKind::AddrCheck, 1, heap),
    )
    .expect("daemon survived the bad handshakes");
    producer.send_capture(&encoded, 64).unwrap();
    let status = await_done(&daemon, producer.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    daemon.shutdown();
}

#[test]
fn mid_stream_corruption_fails_the_session_not_the_daemon() {
    let (heap, _) = independent_capture(1, 1);
    let daemon = spawn_daemon("corr");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("corrupt", LifeguardKind::TaintCheck, 1, heap),
    )
    .expect("attaches");
    let id = producer.session_id();

    // A well-framed frame whose payload is codec garbage: the transport
    // layer is fine, the decode layer must flag the stream.
    producer
        .send(0, &[0xde, 0xad, 0xbe, 0xef, 0x99, 0x99])
        .unwrap();
    producer.finish().unwrap();
    let status = await_done(&daemon, id);
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));
    let error = field(&status, "error").expect("failed sessions carry the error");
    assert!(
        error.contains("malformed") || error.contains("checksum") || error.contains("decode"),
        "unexpected error: {error}"
    );

    // A frame for a thread the session never declared: transport-level
    // protocol fault; same containment.
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("badtid", LifeguardKind::TaintCheck, 1, heap),
    )
    .expect("daemon still accepting");
    let id = producer.session_id();
    producer.send(7, b"whatever").unwrap();
    let status = await_done(&daemon, id);
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));

    // Daemon still healthy: PING answers, and a clean session completes.
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    assert_eq!(ctl.command("PING").unwrap(), vec!["OK pong".to_string()]);
    let (heap, encoded) = independent_capture(2, 30);
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("after", LifeguardKind::LockSet, 2, heap),
    )
    .expect("attaches after corruption");
    producer.send_capture(&encoded, 64).unwrap();
    let status = await_done(&daemon, producer.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    daemon.shutdown();
}

#[test]
fn a_record_that_never_ends_fails_its_session_and_spares_its_neighbour() {
    // `NOP|FLAG_ARCS` claiming 2^40 arcs, then 16 MB of valid 3-byte arcs:
    // every prefix is a plausible record start, so without a cap on a
    // record's wire size the decoder re-parses it from its first byte on
    // every feed, for minutes, growing a buffer the session cap never sees.
    let mut hostile = vec![0x00, 0x19, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
    hostile.resize(16 << 20, 0x01);
    let (w, encoded, fingerprint, violations) =
        capture(Benchmark::Lu, 2, LifeguardKind::TaintCheck);

    let daemon = spawn_daemon("endless");
    let mut attacker = Producer::attach(
        daemon.data_socket(),
        &attach_request("endless", LifeguardKind::TaintCheck, 1, w.heap),
    )
    .expect("attaches");
    let hostile_id = attacker.session_id();
    let mut neighbour = Producer::attach(
        daemon.data_socket(),
        &attach_request("lu", LifeguardKind::TaintCheck, 2, w.heap),
    )
    .expect("attaches");
    let neighbour_id = neighbour.session_id();
    let attack = std::thread::spawn(move || {
        // The daemon hangs up once the session fails; until then, keep
        // pushing.
        hostile
            .chunks(32 * 1024)
            .try_for_each(|frame| attacker.send(0, frame))
            .expect_err("the daemon swallowed a record it should have refused")
    });
    neighbour.send_capture(&encoded, 512).expect("streams");

    let status = await_done(&daemon, hostile_id);
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));
    let error = field(&status, "error").expect("failed sessions carry the error");
    assert!(
        error.contains("malformed") && error.contains("record exceeds 65536 bytes"),
        "unexpected error: {error}"
    );
    attack.join().expect("attacker thread");

    let status = await_done(&daemon, neighbour_id);
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{fingerprint:016x}"))
    );
    assert_eq!(status_violation_ids(&status), violation_ids(&violations));
    daemon.shutdown();
}

#[test]
fn a_record_naming_a_thread_outside_its_session_fails_it_and_spares_the_pool() {
    // Thread 1 of a 2-thread session names thread 7 as an arc source. Were
    // the record gated, it would index the progress table out of bounds and
    // panic a pool worker (then, on the poisoned lane lock, the next one):
    // with two workers, no session after it would ever run.
    let mut config = DaemonConfig::new(sock_path("oobd"), sock_path("oobc"));
    config.workers = 2;
    let daemon = Daemon::spawn(config).expect("daemon spawns");
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let t0: Vec<EventRecord> = (1..=4)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut hostile = EventRecord::instr(Rid(1), Instr::Nop);
    hostile
        .arcs
        .push(DependenceArc::new(ThreadId(7), Rid(1), ArcKind::Raw));
    let mut attacker = Producer::attach(
        daemon.data_socket(),
        &attach_request("oob", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches");
    let hostile_id = attacker.session_id();
    // The daemon may hang up once the session fails.
    let _ = attacker.send_capture(&[encode(&t0), encode(&[hostile])], 64);
    let status = await_done(&daemon, hostile_id);
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));
    let error = field(&status, "error").expect("failed sessions carry the error");
    assert!(
        error.contains("malformed") && error.contains("arc source T7"),
        "unexpected error: {error}"
    );

    let (w, encoded, fingerprint, violations) =
        capture(Benchmark::Lu, 2, LifeguardKind::TaintCheck);
    let mut neighbour = Producer::attach(
        daemon.data_socket(),
        &attach_request("lu", LifeguardKind::TaintCheck, 2, w.heap),
    )
    .expect("attaches after the hostile session");
    neighbour.send_capture(&encoded, 512).expect("streams");
    let status = await_done(&daemon, neighbour.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{fingerprint:016x}"))
    );
    assert_eq!(status_violation_ids(&status), violation_ids(&violations));
    daemon.shutdown();
}

#[test]
fn a_thread_ended_early_leaves_its_session_to_finish_clean() {
    let (w, encoded, fingerprint, violations) =
        capture(Benchmark::Lu, 2, LifeguardKind::TaintCheck);
    assert!(
        encoded[0].len() < 1 << 20,
        "thread 0's whole stream fits under the session's buffer cap"
    );
    let daemon = spawn_daemon("endt");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("lu", LifeguardKind::TaintCheck, 2, w.heap),
    )
    .expect("attaches");
    // Thread 0 streams to its end and is ended alone; thread 1 streams on.
    for chunk in encoded[0].chunks(512) {
        producer.send(0, chunk).expect("thread 0 streams");
    }
    producer.finish_thread(0).expect("ends thread 0");
    for chunk in encoded[1].chunks(512) {
        producer.send(1, chunk).expect("thread 1 streams on");
    }
    producer.finish().expect("ends the rest");
    let status = await_done(&daemon, producer.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{fingerprint:016x}"))
    );
    assert_eq!(status_violation_ids(&status), violation_ids(&violations));
    daemon.shutdown();
}

#[test]
fn ending_a_thread_outside_its_session_fails_it_and_spares_its_neighbour() {
    let (w, encoded, fingerprint, violations) =
        capture(Benchmark::Lu, 2, LifeguardKind::TaintCheck);
    let daemon = spawn_daemon("endx");
    let mut neighbour = Producer::attach(
        daemon.data_socket(),
        &attach_request("lu", LifeguardKind::TaintCheck, 2, w.heap),
    )
    .expect("attaches");
    let (heap, prefix) = independent_capture(2, 16);
    let mut hostile = Producer::attach(
        daemon.data_socket(),
        &attach_request("endx", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches");
    hostile.send(0, &prefix[0]).expect("streams");
    // The daemon may hang up once the session fails.
    let _ = hostile.finish_thread(7);
    let status = await_done(&daemon, hostile.session_id());
    assert_eq!(field(&status, "name").as_deref(), Some("endx"));
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));
    let error = field(&status, "error").expect("failed sessions carry the error");
    assert!(
        error.contains("malformed") && error.contains("thread 7"),
        "unexpected error: {error}"
    );

    neighbour.send_capture(&encoded, 512).expect("streams");
    let status = await_done(&daemon, neighbour.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{fingerprint:016x}"))
    );
    assert_eq!(status_violation_ids(&status), violation_ids(&violations));
    daemon.shutdown();
}

/// TAINTCHECK whose concurrent form panics on the session's 100th record.
#[derive(Debug)]
struct PanicsInApply;

#[derive(Debug)]
struct Bomb {
    inner: Box<dyn ConcurrentLifeguard>,
    applied: AtomicU64,
}

impl ConcurrentLifeguard for Bomb {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
        let n = self.applied.fetch_add(1, Ordering::Relaxed);
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
        "panics-in-apply"
    }

    fn build(&self, heap: AddrRange) -> LifeguardFamily {
        LifeguardKind::TaintCheck.build(heap)
    }

    fn concurrent(&self, heap: AddrRange, threads: usize) -> Option<Box<dyn ConcurrentLifeguard>> {
        Some(Box::new(Bomb {
            inner: LifeguardKind::TaintCheck.concurrent(heap, threads)?,
            applied: AtomicU64::new(0),
        }))
    }
}

#[test]
fn a_panicking_analysis_fails_its_session_and_keeps_the_pool() {
    // Two workers. Were the panic to unwind out of the sweep, it would take
    // the worker with it and poison the lane's lock, and the next sweep of
    // that session would take the other: nothing after it would ever run.
    let mut config = DaemonConfig::new(sock_path("bombd"), sock_path("bombc"));
    config.workers = 2;
    config.registry.register(PanicsInApply);
    let daemon = Daemon::spawn(config).expect("daemon spawns");
    let (w, encoded, fingerprint, violations) =
        capture(Benchmark::Lu, 2, LifeguardKind::TaintCheck);

    let mut request = attach_request("bomb", LifeguardKind::TaintCheck, 2, w.heap);
    request.lifeguard = PanicsInApply.name().into();
    let mut bomb = Producer::attach(daemon.data_socket(), &request).expect("attaches");
    let mut neighbour = Producer::attach(
        daemon.data_socket(),
        &attach_request("lu", LifeguardKind::TaintCheck, 2, w.heap),
    )
    .expect("attaches");
    // The daemon may hang up once the session fails.
    let _ = bomb.send_capture(&encoded, 512);
    neighbour.send_capture(&encoded, 512).expect("streams");

    let status = await_done(&daemon, bomb.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));
    let error = field(&status, "error").expect("failed sessions carry the error");
    assert!(
        error.contains("panicked") && error.contains("the analysis blew up"),
        "unexpected error: {error}"
    );

    let status = await_done(&daemon, neighbour.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{fingerprint:016x}"))
    );
    assert_eq!(status_violation_ids(&status), violation_ids(&violations));

    let (heap, later) = independent_capture(2, 500);
    let mut after = Producer::attach(
        daemon.data_socket(),
        &attach_request("after", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches after the panic");
    after.send_capture(&later, 256).expect("streams");
    let status = await_done(&daemon, after.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(field(&status, "records").as_deref(), Some("1000"));
    assert_eq!(pool_counters(&daemon)["workers"], 2);
    daemon.shutdown();
}

#[test]
fn graceful_shutdown_reports_partial_metrics() {
    let (heap, encoded) = independent_capture(2, 300);
    let daemon = spawn_daemon("shut");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("partial", LifeguardKind::TaintCheck, 2, heap),
    )
    .expect("attaches");

    // A record-boundary prefix, then the producer goes quiet mid-session.
    let third: Vec<EventRecord> = (1..=100u64)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let third = encode(&third);
    assert!(encoded[0].starts_with(&third));
    producer.send(0, &third).unwrap();
    producer.send(1, &third).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut ctl = Control::connect(daemon.control_socket()).unwrap();
        let status = ctl.status(producer.session_id()).unwrap();
        if field(&status, "records")
            .expect("records")
            .parse::<u64>()
            .unwrap()
            >= 200
        {
            break;
        }
        assert!(Instant::now() < deadline, "never ingested");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shut down with the producer still attached: the session must drain
    // to partial metrics, not hang and not poison anything.
    let reports = daemon.shutdown();
    assert_eq!(reports.len(), 1);
    let metrics = reports[0]
        .result
        .as_ref()
        .expect("graceful shutdown drains to a valid partial report");
    assert_eq!(metrics.records, 200, "exactly the delivered prefix");
}

#[test]
fn live_watch_streams_violations_and_the_end_line() {
    // AddrCheck flags unallocated heap accesses: craft a capture with two
    // deterministic violations and watch them arrive over the feed.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let recs = vec![
        EventRecord::instr(
            Rid(1),
            Instr::Load {
                dst: paralog::events::Reg::new(0),
                src: paralog::events::MemRef::new(heap.start + 16, 4),
            },
        ),
        EventRecord::instr(Rid(2), Instr::Nop),
        EventRecord::instr(
            Rid(3),
            Instr::Store {
                dst: paralog::events::MemRef::new(heap.start + 64, 4),
                src: paralog::events::Reg::new(0),
            },
        ),
    ];
    let encoded = vec![encode(&recs)];
    let daemon = spawn_daemon("watch");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("watched", LifeguardKind::AddrCheck, 1, heap),
    )
    .expect("attaches");
    let id = producer.session_id();
    let watcher = std::thread::spawn({
        let control = daemon.control_socket().to_path_buf();
        move || {
            let ctl = Control::connect(control).expect("watch connects");
            let mut lines = Vec::new();
            ctl.watch(id, |l| lines.push(l.to_string())).expect("watch");
            lines
        }
    });
    // Give the watcher a beat to subscribe, then stream.
    std::thread::sleep(Duration::from_millis(50));
    producer.send_capture(&encoded, 16).unwrap();
    let lines = watcher.join().expect("watcher");
    let violations = lines.iter().filter(|l| l.starts_with("violation ")).count();
    assert_eq!(violations, 2, "feed lines: {lines:?}");
    assert!(
        lines.last().is_some_and(|l| l.starts_with("end ok")),
        "feed must terminate with the end line: {lines:?}"
    );
    daemon.shutdown();
}

#[test]
fn a_finished_sessions_throughput_stays_at_its_final_average() {
    let (heap, encoded) = independent_capture(2, 2000);
    let daemon = spawn_daemon("rate");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("rate", LifeguardKind::AddrCheck, 2, heap),
    )
    .expect("attaches");
    let id = producer.session_id();
    producer.send_capture(&encoded, 512).expect("streams");
    let first = await_done(&daemon, id);
    assert_eq!(field(&first, "state").as_deref(), Some("done"));
    std::thread::sleep(Duration::from_millis(150));
    let mut ctl = Control::connect(daemon.control_socket()).expect("control connects");
    let second = ctl.status(id).expect("status");
    let rate = |lines: &[String]| field(lines, "records_per_sec").expect("records_per_sec line");
    assert_eq!(
        rate(&first),
        rate(&second),
        "a finished session's rate is measured attach to finish, not to now"
    );
    daemon.shutdown();
}

/// The `<key>=<value>` fields of `LIST`'s closing `pool` line, from one
/// reading.
fn pool_counters(daemon: &Daemon) -> std::collections::BTreeMap<String, u64> {
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    let listed = ctl.list().unwrap();
    let pool = listed.last().expect("pool line");
    pool.strip_prefix("pool ")
        .unwrap_or_else(|| panic!("LIST must close with the pool line: {listed:?}"))
        .split_ascii_whitespace()
        .map(|f| {
            let (key, value) = f.split_once('=').expect("key=value");
            (key.to_string(), value.parse().expect("numeric counter"))
        })
        .collect()
}

#[test]
fn stalled_many_lane_session_costs_a_one_worker_pool_idle_slices_only() {
    // One worker, and a four-lane session with nothing to deliver ahead of
    // the runner in the queue: each of its slices must hand the worker back
    // after one pass over its lanes.
    let (heap, full) = independent_capture(1, 2000);
    let mut config = DaemonConfig::new(sock_path("oned"), sock_path("onec"));
    config.workers = 1;
    let daemon = Daemon::spawn(config).expect("daemon spawns");
    let mut stalled = Producer::attach(
        daemon.data_socket(),
        &attach_request("stalled", LifeguardKind::TaintCheck, 4, heap),
    )
    .expect("A attaches");
    let id_a = stalled.session_id();
    let mut runner = Producer::attach(
        daemon.data_socket(),
        &attach_request("runner", LifeguardKind::TaintCheck, 1, heap),
    )
    .expect("B attaches");
    runner.send_capture(&full, 256).unwrap();
    let status_b = await_done(&daemon, runner.session_id());
    assert_eq!(field(&status_b, "state").as_deref(), Some("done"));
    assert_eq!(field(&status_b, "records").as_deref(), Some("2000"));

    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    let status_a = ctl.status(id_a).unwrap();
    assert_eq!(field(&status_a, "state").as_deref(), Some("running"));
    assert_eq!(field(&status_a, "records").as_deref(), Some("0"));
    let pool = pool_counters(&daemon);
    assert_eq!(pool["workers"], 1);
    assert_eq!(pool["live_tasks"], 4, "A's tasks only: {pool:?}");
    assert!(
        pool["idle_slices"] > 0 && pool["idle_sleeps"] > 0,
        "{pool:?}"
    );
    assert!(
        pool["wakes"] + pool["backstops"] <= pool["idle_sleeps"],
        "an idle wait ends on a wake, on the backstop, or at once: {pool:?}"
    );
    assert!(
        pool["slices"] > pool["idle_slices"],
        "B's slices ran: {pool:?}"
    );

    stalled.finish().unwrap();
    let status_a = await_done(&daemon, id_a);
    assert_eq!(field(&status_a, "state").as_deref(), Some("done"));
    daemon.shutdown();
}

/// The per-session buffer cap of the back-pressure tests.
const SMALL_CAP: usize = 64 * 1024;

/// Thread 1's wire for a two-thread session: a first record gated on a
/// thread-0 record that never comes, so everything behind it piles up in
/// the session's feeds — far more than [`SMALL_CAP`] and a socket buffer.
fn gated_backlog() -> Vec<u8> {
    let mut gated = EventRecord::instr(Rid(1), Instr::Nop);
    gated
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(9), ArcKind::Sync));
    let mut t1 = vec![gated];
    t1.extend((2..=600_000u64).map(|i| EventRecord::instr(Rid(i), Instr::Nop)));
    let wire = encode(&t1);
    assert!(
        wire.len() > 8 * SMALL_CAP,
        "the backlog must outgrow cap and socket"
    );
    wire
}

/// Attaches a two-thread TAINTCHECK session `name` over a raw connection
/// whose timeouts make a daemon that wedges its producer fail the test
/// rather than hang it. Returns the connection, a reader on it, and the
/// session id.
fn attach_raw(
    daemon: &Daemon,
    name: &str,
    heap: AddrRange,
    timeout: Duration,
) -> (UnixStream, BufReader<UnixStream>, u64) {
    let mut stream = UnixStream::connect(daemon.data_socket()).unwrap();
    stream.set_write_timeout(Some(timeout)).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    let request = attach_request(name, LifeguardKind::TaintCheck, 2, heap);
    stream
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let id: u64 = reply
        .trim()
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("attach refused: {reply:?}"))
        .parse()
        .unwrap();
    (stream, reader, id)
}

/// Polls `STATUS <id>` until the session buffers more than `cap` bytes:
/// its connection's reader has stopped reading.
fn await_above_cap(daemon: &Daemon, id: u64, cap: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    loop {
        let status = ctl.status(id).unwrap();
        let buffered: usize = field(&status, "buffered_bytes").unwrap().parse().unwrap();
        if buffered > cap {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "never back-pressured: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn producer_of_a_failed_session_above_its_buffer_cap_gets_an_error_not_a_wedge() {
    use std::io::Read;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let wire = gated_backlog();
    let mut config = DaemonConfig::new(sock_path("capd"), sock_path("capc"));
    config.workers = 2;
    config.session_buffer_bytes = SMALL_CAP;
    let daemon = Daemon::spawn(config).expect("daemon spawns");
    let (mut stream, mut reader, id) = attach_raw(&daemon, "wedged", heap, Duration::from_secs(10));

    let (failed_tx, failed_rx) = std::sync::mpsc::channel();
    let producer = std::thread::spawn(move || {
        for chunk in wire.chunks(32 * 1024) {
            if let Err(e) = stream.write_all(&proto::data_frame(1, chunk)) {
                failed_tx.send((Instant::now(), e.kind())).unwrap();
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
                return rest;
            }
        }
        panic!("the daemon swallowed a backlog it should have pushed back on");
    });

    // Once the session sits above its cap its reader has stopped reading the
    // connection; now fail it (the detach severs the awaited arc).
    await_above_cap(&daemon, id, SMALL_CAP);
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    ctl.detach(id).unwrap();
    let status = await_done(&daemon, id);
    let failed_at = Instant::now();
    assert_eq!(field(&status, "state").as_deref(), Some("failed"));

    let (errored_at, kind) = failed_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("the producer's write must fail within a second of the session");
    assert!(
        matches!(
            kind,
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
        ),
        "write failed with {kind:?}, not a closed connection"
    );
    assert!(errored_at.saturating_duration_since(failed_at) < Duration::from_secs(1));
    let said = producer.join().expect("producer thread");
    assert!(
        said.starts_with("ERR session failed:"),
        "the daemon must say why it hung up: {said:?}"
    );
    daemon.shutdown();
}

#[test]
fn subscriber_that_never_reads_is_counted_not_silently_dropped() {
    // ADDRCHECK flags every load of an unallocated heap: far more feed
    // lines than a socket buffer plus a subscriber's channel hold.
    const LOADS: u64 = 20_000;
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let recs: Vec<EventRecord> = (1..=LOADS)
        .map(|i| {
            EventRecord::instr(
                Rid(i),
                Instr::Load {
                    dst: paralog::events::Reg::new(0),
                    src: paralog::events::MemRef::new(heap.start + (i % 64) * 4, 4),
                },
            )
        })
        .collect();
    let encoded = vec![encode(&recs)];
    let daemon = spawn_daemon("lost");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("flood", LifeguardKind::AddrCheck, 1, heap),
    )
    .expect("attaches");
    let id = producer.session_id();

    // The silent subscriber: asks for the feed and never reads a byte.
    let mut silent = UnixStream::connect(daemon.control_socket()).unwrap();
    silent
        .write_all(format!("WATCH {id}\n").as_bytes())
        .unwrap();
    let reader = std::thread::spawn({
        let control = daemon.control_socket().to_path_buf();
        move || {
            let ctl = Control::connect(control).expect("watch connects");
            let mut lines = Vec::new();
            ctl.watch(id, |l| lines.push(l.to_string())).expect("watch");
            lines
        }
    });
    // Give both a beat to subscribe, then stream.
    std::thread::sleep(Duration::from_millis(100));
    producer.send_capture(&encoded, 4096).unwrap();

    let status = await_done(&daemon, id);
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    let lost: u64 = field(&status, "watch_lines_lost")
        .expect("STATUS counts lost feed lines")
        .parse()
        .unwrap();
    assert!(lost > 0, "the silent subscriber cannot have kept up");

    // The subscriber that does read is told, just ahead of the end line.
    let lines = reader.join().expect("reader");
    let [.., told, end] = lines.as_slice() else {
        panic!("feed too short: {lines:?}");
    };
    assert_eq!(told, &format!("lost {lost}"));
    assert!(end.starts_with(&format!("end ok records={LOADS} violations={LOADS} ")));
    drop(silent);
    daemon.shutdown();
}

#[test]
fn oversized_frame_is_a_transport_protocol_fault() {
    // A frame-level protocol violation (oversized header) is rejected at
    // the parser; the full daemon-side containment of it is exercised by
    // the mid-stream-corruption test above.
    let mut hdr = [0u8; 6];
    hdr[2..].copy_from_slice(&(proto::MAX_FRAME_BYTES + 1).to_le_bytes());
    assert!(proto::FrameParser::new().feed(&hdr, |_| ()).is_err());
}

/// Reads one control response: its lines up to the terminating `.`.
fn read_response(reader: &mut BufReader<&UnixStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            return lines;
        }
        match line.trim_end() {
            "." => return lines,
            l => lines.push(l.to_string()),
        }
    }
}

#[test]
fn a_control_command_split_across_the_read_timeout_is_kept_whole() {
    let daemon = spawn_daemon("split");
    let mut raw = UnixStream::connect(daemon.control_socket()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"PI").unwrap();
    // The command arrives in two reads: the handler keeps the first half
    // while it blocks for the rest.
    std::thread::sleep(Duration::from_millis(400));
    raw.write_all(b"NG\n").unwrap();
    assert_eq!(
        read_response(&mut BufReader::new(&raw)),
        vec!["OK pong".to_string()]
    );
    daemon.shutdown();
}

#[test]
fn an_over_long_control_line_is_refused_and_the_daemon_keeps_serving() {
    let daemon = spawn_daemon("long");
    let mut raw = UnixStream::connect(daemon.control_socket()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The daemon may close before reading it all; the reply is what counts.
    let _ = raw.write_all(&vec![b'A'; proto::MAX_HANDSHAKE_BYTES + 1000]);
    let mut reader = BufReader::new(&raw);
    assert_eq!(
        read_response(&mut reader),
        vec!["ERR line too long".to_string()]
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "closed");
    let mut ctl = Control::connect(daemon.control_socket()).unwrap();
    assert_eq!(ctl.command("PING").unwrap(), vec!["OK pong".to_string()]);
    daemon.shutdown();
}

#[test]
fn shutdown_wakes_a_silent_reader_and_one_parked_above_its_cap() {
    use std::io::Read;

    let (w, encoded, fingerprint, violations) = capture(Benchmark::Lu, 2, LifeguardKind::MemCheck);
    let mut config = DaemonConfig::new(sock_path("wakd"), sock_path("wakc"));
    config.workers = 2;
    config.session_buffer_bytes = SMALL_CAP;
    let daemon = Daemon::spawn(config).expect("daemon spawns");

    // A producer that attaches and never sends: its reader blocks in `read`.
    let silent = Producer::attach(
        daemon.data_socket(),
        &attach_request("silent", LifeguardKind::TaintCheck, 2, w.heap),
    )
    .expect("attaches");

    // A producer that outgrows the cap behind an arc that never comes: its
    // reader parks on the session's buffer.
    let wire = gated_backlog();
    let (mut stream, mut reader, parked_id) =
        attach_raw(&daemon, "parked", w.heap, Duration::from_secs(30));
    let parked = std::thread::spawn(move || {
        for chunk in wire.chunks(32 * 1024) {
            if stream.write_all(&proto::data_frame(1, chunk)).is_err() {
                break;
            }
        }
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });
    await_above_cap(&daemon, parked_id, SMALL_CAP);

    // A healthy session replays on the same pool past both blocked readers.
    let mut healthy = Producer::attach(
        daemon.data_socket(),
        &attach_request("healthy", LifeguardKind::MemCheck, 2, w.heap),
    )
    .expect("attaches");
    healthy.send_capture(&encoded, 512).expect("streams");
    let status = await_done(&daemon, healthy.session_id());
    assert_eq!(field(&status, "state").as_deref(), Some("done"));
    assert_eq!(
        field(&status, "fingerprint"),
        Some(format!("{fingerprint:016x}")),
        "the healthy session diverged from its in-process run"
    );
    assert_eq!(status_violation_ids(&status), violation_ids(&violations));

    // Both readers are still blocked when the daemon shuts down.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(daemon.shutdown()).unwrap());
    let reports = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must wake both blocked readers, not wait on them");
    let result = |name: &str| {
        &reports
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no report for {name}"))
            .result
    };
    assert_eq!(result("silent").as_ref().expect("drains empty").records, 0);
    assert!(result("parked").is_err(), "its arc was severed");
    assert_eq!(
        result("healthy").as_ref().expect("finished").fingerprint,
        fingerprint
    );
    let said = parked.join().expect("parked producer");
    assert!(
        said.starts_with("ERR session failed:"),
        "the parked producer is told why: {said:?}"
    );
    drop(silent);
}

#[test]
fn shutdown_ends_an_idle_control_connection_and_an_open_watch() {
    // ADDRCHECK flags a load of the unallocated heap: one violation line
    // shows the watch is open on a session that is still live.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let load = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: paralog::events::Reg::new(0),
            src: paralog::events::MemRef::new(heap.start + 16, 4),
        },
    );
    let daemon = spawn_daemon("idle");
    let mut producer = Producer::attach(
        daemon.data_socket(),
        &attach_request("idle", LifeguardKind::AddrCheck, 1, heap),
    )
    .expect("attaches");
    let id = producer.session_id();
    // Every read below is bounded by this watchdog, not paced by a sleep.
    let watchdog = Some(Duration::from_secs(10));

    let mut watch = UnixStream::connect(daemon.control_socket()).unwrap();
    watch.set_read_timeout(watchdog).unwrap();
    watch.write_all(format!("WATCH {id}\n").as_bytes()).unwrap();
    let mut watch = BufReader::new(watch);
    producer.send(0, &encode(&[load])).unwrap();
    let mut line = String::new();
    watch.read_line(&mut line).expect("the violation arrives");
    assert!(line.starts_with("violation 0 1 "), "{line:?}");

    // An idle connection whose handler is in its read loop.
    let idle = UnixStream::connect(daemon.control_socket()).unwrap();
    idle.set_read_timeout(watchdog).unwrap();
    let mut idle_reader = BufReader::new(&idle);
    (&idle).write_all(b"PING\n").unwrap();
    assert_eq!(read_response(&mut idle_reader), vec!["OK pong".to_string()]);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(daemon.shutdown()).unwrap());
    let reports = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must not wait on an idle connection or a watch");
    assert_eq!(reports[0].result.as_ref().expect("drains").records, 1);

    let mut rest = String::new();
    assert_eq!(
        idle_reader
            .read_line(&mut rest)
            .expect("EOF, not the watchdog"),
        0,
        "the idle connection is closed: {rest:?}"
    );
    let mut tail = Vec::new();
    loop {
        let mut line = String::new();
        if watch
            .read_line(&mut line)
            .expect("the watch ends, not the watchdog")
            == 0
        {
            break;
        }
        tail.push(line.trim_end().to_string());
    }
    assert!(
        matches!(tail.as_slice(), [end, dot] if end.starts_with("end ok records=1 violations=1 ") && dot == "."),
        "the watch ends with its end line, then `.`: {tail:?}"
    );
    drop(producer);
}
