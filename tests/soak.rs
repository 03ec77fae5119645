//! Unbounded-uptime soaks: sweep the rid and mask spaces far past their
//! steady-state windows and prove residency stays bounded.
//!
//! Three layers keep a long-running monitor's memory flat:
//!
//! * the [`VersionTable`] holds only the outstanding versions, so version
//!   storage tracks the producer/consumer lead, not the rids replayed or
//!   how far apart they lie;
//! * the LOCKSET mask interner frees a candidate-set id the moment its
//!   last word moves on, so the 2^16 cap on live masks survives unbounded
//!   churn of distinct lock combinations;
//! * the HAPPENSBEFORE vector-clock interner frees read-VC ids the same
//!   way when a write demotes a word back to a packed epoch — and when an
//!   adversarial workload pins the whole id space live, it must degrade
//!   *soundly* (affected words report rather than miss races) with one
//!   `DegradedPrecision` diagnostic.
//!
//! The long sweeps run single-threaded for throughput (residency bounds
//! do not depend on interleaving); the mask-cycling and racing-producer
//! soaks run real threads against the interner's and the version table's
//! mutexes — those are what the nightly TSan job is pointed at. The default profile is CI-sized; `PARALOG_SOAK=1` runs the full
//! multi-billion-rid sweep.

use paralog::core::{BufferedStream, CoopSession, RecordStream};
use paralog::events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, LockId, MemRef, Reg, Rid,
    ThreadId, VersionId,
};
use paralog::lifeguards::{
    ConcurrentLifeguard, HappensBeforeConcurrent, LifeguardKind, LockSetConcurrent, SessionEvent,
};
use paralog::meta::VersionTable;
use paralog::workloads::adversarial::{self, AdversarialCapture};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Full profile: multi-billion-rid / half-million-combination sweeps for
/// the nightly soak. Default: the same code paths at CI scale.
fn full_profile() -> bool {
    std::env::var("PARALOG_SOAK").as_deref() == Ok("1")
}

/// How far producers run ahead of the consumer in the racing soak, in
/// versions: the outstanding window — and with it the residency bound
/// under test — is a known constant.
const PRODUCER_LEAD: usize = 128;

#[test]
fn version_residency_is_bounded_over_a_rid_sweep() {
    // One version per 128 rids over ≥ 100 × 16,384 of them (~210M rids;
    // PARALOG_SOAK=1 sweeps 2000 ×, ~4.2B rids), produced and consumed in
    // turn. Storage indexed by rid would grow with the span; the table
    // holds the outstanding versions, so it never holds more than the one
    // in flight.
    let versions: u64 = if full_profile() { 2_000 } else { 100 } * 16_384;
    let table = VersionTable::new(2);
    let range = AddrRange::new(0x1000_0000, 4);
    let vid = |c: u64| VersionId {
        consumer: ThreadId(1),
        consumer_rid: Rid(c * 128 + 1),
    };

    for c in 0..versions {
        table.produce(vid(c), range, vec![0xAB; 4], 1);
        assert_eq!(table.resident(), 1, "version {c}: retired versions linger");
        let (_, snapshot) = table.consume(vid(c)).expect("just produced");
        assert_eq!(snapshot, vec![0xAB; 4]);
    }

    assert_eq!(table.produced(), versions);
    assert_eq!(table.consumed(), versions);
    assert_eq!(table.outstanding(), 0, "every version retired");
    assert_eq!(
        table.peak_outstanding(),
        1,
        "the lead is one version, independent of the sweep length"
    );
    assert_eq!(table.resident(), 0, "a quiesced table holds nothing");
}

fn rec_access(rid: u64, addr: u64, write: bool) -> EventRecord {
    let mem = MemRef::new(addr, 4);
    EventRecord::instr(
        Rid(rid),
        if write {
            Instr::Store {
                dst: mem,
                src: Reg::new(0),
            }
        } else {
            Instr::Load {
                dst: Reg::new(0),
                src: mem,
            }
        },
    )
}

fn rec_lock(rid: u64, tid: u16, id: u32, acquire: bool) -> EventRecord {
    EventRecord::ca(
        Rid(rid),
        CaRecord {
            what: if acquire {
                HighLevelKind::Lock(LockId(id))
            } else {
                HighLevelKind::Unlock(LockId(id))
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

/// One worker's slice of the mask-cycling soak: monitored threads `ta` and
/// `tb` share one fresh variable per iteration under a three-lock
/// combination drawn from `lock_base + [0, 32)`, then refine it down to a
/// single lock — interning one unique mask per iteration and releasing it
/// again.
fn cycle_masks(
    conc: &LockSetConcurrent,
    iterations: u64,
    lock_base: u32,
    addr_base: u64,
    (ta, tb): (u16, u16),
) {
    let mut rid = [1u64; 2];
    let mut next = |side: usize| {
        rid[side] += 1;
        rid[side]
    };
    for i in 0..iterations {
        // lcm(11, 13, 7) = 1001 distinct combinations before the pattern
        // repeats, each interned afresh every time it comes round.
        let combo = [
            lock_base + (i % 11) as u32,
            lock_base + 11 + (i % 13) as u32,
            lock_base + 24 + (i % 7) as u32,
        ];
        let addr = addr_base + i * 4;
        for &l in &combo {
            conc.apply(ThreadId(ta), &rec_lock(next(0), ta, l, true), None);
        }
        conc.apply(ThreadId(ta), &rec_access(next(0), addr, true), None);
        for &l in &combo {
            conc.apply(ThreadId(tb), &rec_lock(next(1), tb, l, true), None);
        }
        // Second thread writes: the variable goes shared-modified with the
        // full combination as its interned candidate set.
        conc.apply(ThreadId(tb), &rec_access(next(1), addr, true), None);
        // Drop all but one lock and touch the variable again: the candidate
        // set refines to the surviving single lock (one of only 11 reused
        // masks), releasing the iteration's unique combination id.
        conc.apply(ThreadId(ta), &rec_lock(next(0), ta, combo[1], false), None);
        conc.apply(ThreadId(ta), &rec_lock(next(0), ta, combo[2], false), None);
        conc.apply(ThreadId(ta), &rec_access(next(0), addr, true), None);
        conc.apply(ThreadId(ta), &rec_lock(next(0), ta, combo[0], false), None);
        for &l in &combo {
            conc.apply(ThreadId(tb), &rec_lock(next(1), tb, l, false), None);
        }
    }
}

#[test]
fn interner_residency_is_bounded_over_mask_cycling() {
    // Two OS threads, four monitored streams, disjoint lock and address
    // spaces: each iteration interns a fresh three-lock mask and releases
    // it, cycling far more distinct combinations through the interner than
    // its peak residency — without ever saturating.
    let iterations: u64 = if full_profile() { 500_000 } else { 20_000 };
    let conc = Arc::new(LockSetConcurrent::new(4));
    let workers: Vec<_> = [
        (0u32, 0x1000_0000u64, (0u16, 1u16)),
        (32, 0x5000_0000, (2, 3)),
    ]
    .into_iter()
    .map(|(lock_base, addr_base, tids)| {
        let conc = Arc::clone(&conc);
        thread::spawn(move || cycle_masks(&conc, iterations, lock_base, addr_base, tids))
    })
    .collect();
    for w in workers {
        w.join().expect("soak worker must not panic");
    }

    assert!(!conc.degraded(), "cycling must never exhaust the id space");
    assert!(
        conc.session_events().is_empty(),
        "no degradation diagnostics on a healthy run"
    );
    assert!(
        conc.violations().is_empty(),
        "consistently locked sharing must stay silent: {:?}",
        conc.violations()
    );
    // Steady state: the permanent full set, ≤ 2 × 11 single-lock masks and
    // one in-flight combination per worker — a combination is freed by the
    // refinement that displaces it.
    let peak = conc.peak_interned_masks();
    assert!(
        peak <= 1 + 2 * 11 + 2,
        "peak interner residency {peak} is not bounded ({} combinations cycled)",
        2 * iterations
    );
    let live = conc.interned_masks();
    assert!(live <= 1 + 2 * 11, "finished run still holds {live} masks");
}

/// A sync-space record for HAPPENSBEFORE: an `Rmw` is the acquire shape
/// (join the word's published vector clock, then republish), a `Store`
/// the release shape (publish only).
fn rec_sync(rid: u64, addr: u64, rmw: bool) -> EventRecord {
    let mem = MemRef::new(addr, 8);
    EventRecord::instr(
        Rid(rid),
        if rmw {
            Instr::Rmw {
                mem,
                reg: Reg::new(0),
            }
        } else {
            Instr::Store {
                dst: mem,
                src: Reg::new(0),
            }
        },
    )
}

/// One worker's slice of the read-VC cycling soak: per iteration, threads
/// `ta` and `tb` both read a fresh word (inflating it to an interned
/// two-entry vector clock — distinct every iteration because `ta`'s clock
/// advances at each sync publish), then `tb` acquires `ta`'s release and
/// writes the word, demoting it back to a packed epoch and releasing the
/// iteration's unique VC id.
fn cycle_read_vcs(
    conc: &HappensBeforeConcurrent,
    iterations: u64,
    sync_word: u64,
    addr_base: u64,
    (ta, tb): (u16, u16),
) {
    let mut rid = [1u64; 2];
    let mut next = |side: usize| {
        rid[side] += 1;
        rid[side]
    };
    for i in 0..iterations {
        let addr = addr_base + i * 4;
        // Two readers inflate the fresh word to an interned read VC.
        conc.apply(ThreadId(ta), &rec_access(next(0), addr, false), None);
        conc.apply(ThreadId(tb), &rec_access(next(1), addr, false), None);
        // ta releases (publishing its clock, bumping it for the next
        // iteration's distinct VC); tb acquires, ordering both reads
        // before its write.
        conc.apply(ThreadId(ta), &rec_sync(next(0), sync_word, false), None);
        conc.apply(ThreadId(tb), &rec_sync(next(1), sync_word, true), None);
        // The ordered write demotes the word to a packed write epoch and
        // releases the interned id.
        conc.apply(ThreadId(tb), &rec_access(next(1), addr, true), None);
    }
}

#[test]
fn hb_interner_residency_is_bounded_over_read_vc_cycling() {
    // Two OS threads, four monitored streams, disjoint address and sync
    // spaces: each iteration interns a fresh two-reader vector clock and
    // releases it via the ordered write — cycling far more distinct VCs
    // through the interner than its peak residency, without saturating.
    let iterations: u64 = if full_profile() { 500_000 } else { 20_000 };
    let sync_space = paralog::lifeguards::lockset::SYNC_SPACE_START;
    let conc = Arc::new(HappensBeforeConcurrent::new(4));
    let workers: Vec<_> = [
        (sync_space, 0x0100_0000u64, (0u16, 1u16)),
        (sync_space + 128, 0x0500_0000, (2, 3)),
    ]
    .into_iter()
    .map(|(sync_word, addr_base, tids)| {
        let conc = Arc::clone(&conc);
        thread::spawn(move || cycle_read_vcs(&conc, iterations, sync_word, addr_base, tids))
    })
    .collect();
    for w in workers {
        w.join().expect("soak worker must not panic");
    }

    assert!(!conc.degraded(), "cycling must never exhaust the id space");
    assert!(
        conc.session_events().is_empty(),
        "no degradation diagnostics on a healthy run"
    );
    assert!(
        conc.violations().is_empty(),
        "sync-ordered sharing must stay silent: {:?}",
        conc.violations()
    );
    // Steady state, per worker: the sync word's published clock, the
    // iteration's read VC, and one more of either while an update holds the
    // successor beside the value it displaces.
    let peak = conc.peak_interned_vcs();
    assert!(
        peak <= 1 + 2 * 3,
        "peak interner residency {peak} is not bounded ({} VCs cycled)",
        2 * iterations
    );
    let live = conc.interned_vcs();
    assert!(live <= 1 + 2, "finished run still holds {live} VCs");
}

#[test]
fn hb_interner_exhaustion_degrades_soundly_past_two_to_the_sixteen() {
    // An adversarial workload pins more than 2^16 *distinct* two-reader
    // vector clocks live at once (no word is ever written, so no id is
    // ever released). The interner must saturate — completing the session with exactly one
    // DegradedPrecision diagnostic and sound (never-miss) reporting on
    // the degraded words.
    let conc = HappensBeforeConcurrent::new(2);
    let sync_word = paralog::lifeguards::lockset::SYNC_SPACE_START;

    // A genuine unordered race first, while precision is intact.
    conc.apply(ThreadId(0), &rec_access(1, 0xFF_0000, true), None);
    conc.apply(ThreadId(1), &rec_access(1, 0xFF_0000, true), None);
    assert_eq!(conc.violations().len(), 1, "pre-saturation race reports");

    // Thread 0 bumps its clock before each fresh word, so every word's
    // two-entry read VC is a distinct interned value. 66_000 > 2^16 words
    // exhaust the id space.
    let mut rid = [2u64, 2u64];
    let mut next = |side: usize| {
        rid[side] += 1;
        rid[side]
    };
    let word = |i: u64| 0x0100_0000 + i * 4;
    for i in 1u64..=66_000 {
        conc.apply(ThreadId(0), &rec_sync(next(0), sync_word, false), None);
        conc.apply(ThreadId(0), &rec_access(next(0), word(i), false), None);
        conc.apply(ThreadId(1), &rec_access(next(1), word(i), false), None);
    }

    assert!(conc.degraded(), "66k live read VCs must exhaust 2^16 ids");
    let events = conc.session_events();
    assert_eq!(events.len(), 1, "one diagnostic per session");
    let SessionEvent::DegradedPrecision { lifeguard, detail } = &events[0];
    assert_eq!(*lifeguard, "HappensBefore");
    assert!(detail.contains("vector-clock interner"), "got: {detail}");
    // Read-read sharing is race-free: saturation must not have fabricated
    // reports while the words were only being created.
    assert_eq!(
        conc.violations().len(),
        1,
        "saturation alone must not fabricate race reports"
    );
    // Soundness of the degradation: a word that spilled after exhaustion
    // lost its ordering metadata, so a later access — even a trivially
    // hb-ordered same-thread re-read — must report rather than risk
    // missing a real race.
    conc.apply(ThreadId(0), &rec_access(next(0), word(66_000), false), None);
    assert_eq!(
        conc.violations().len(),
        2,
        "degraded words must report later accesses (spurious but sound)"
    );
}

/// Many producer threads publish into one consumer's rid space while it
/// polls and consumes. This is the TSan target for the version table's one
/// mutex: four producers and a polling consumer, all on the same map.
#[test]
fn version_table_races_cleanly_with_many_producers() {
    let producers = 4u64;
    let versions: u64 = if full_profile() { 16 } else { 2 } * 16_384;
    let table = Arc::new(VersionTable::new(2));
    let range = AddrRange::new(0x2000_0000, 4);
    let vid = |c: u64| VersionId {
        consumer: ThreadId(1),
        consumer_rid: Rid(c * 128 + 7),
    };
    // Version c is produced by thread c % producers: adjacent versions come
    // from different threads, so inserts, polls and removals interleave.
    // Backpressure sleeps rather than spin-yields: the soak must also pass
    // on a single hardware thread without starving the consumer.
    let cursor = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let table = Arc::clone(&table);
            let cursor = Arc::clone(&cursor);
            thread::spawn(move || {
                for c in (p..versions).step_by(producers as usize) {
                    while c.saturating_sub(cursor.load(Ordering::Acquire)) >= PRODUCER_LEAD as u64 {
                        thread::sleep(Duration::from_micros(200));
                    }
                    table.produce(vid(c), range, vec![p as u8; 4], 1);
                }
            })
        })
        .collect();
    for c in 0..versions {
        // Poll (as a gated lane's driver does) until our version lands.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !table.is_available(vid(c)) {
            assert!(
                std::time::Instant::now() < deadline,
                "version {c}: no producer delivered"
            );
            thread::yield_now();
        }
        let (_, snapshot) = table.consume(vid(c)).expect("available implies consumable");
        assert_eq!(snapshot, vec![(c % producers) as u8; 4]);
        cursor.store(c, Ordering::Release);
    }
    for h in handles {
        h.join().expect("producer must not panic");
    }

    assert_eq!((table.produced(), table.consumed()), (versions, versions));
    assert_eq!((table.outstanding(), table.resident()), (0, 0));
    let peak = table.peak_outstanding();
    assert!(
        peak <= PRODUCER_LEAD,
        "{peak} versions outstanding under {producers} producers held to a lead of \
         {PRODUCER_LEAD}"
    );
}

/// Open file descriptors for this process (linux); `None` elsewhere so
/// the churn soak still runs its residency assertions.
#[cfg(unix)]
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
}

/// This process's threads serving a daemon connection — one reader per
/// producer connection, one handler per control connection — from
/// `/proc/self/task`; `None` where that is not readable. Counted by name
/// (a thread's `comm` is its name cut to 15 bytes) because the harness
/// runs other tests' threads beside the churn.
#[cfg(unix)]
fn connection_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm")).is_ok_and(|name| {
                    name.starts_with("paralogd-reader") || name.starts_with("paralogd-ctl-co")
                })
            })
            .count(),
    )
}

/// Attach/detach churn against one long-lived daemon: every iteration
/// attaches two sessions over fresh Unix-socket connections, streams one
/// to completion and detaches the other mid-stream, then waits for both
/// to settle. Session state must fully drain (`resident_sessions` back to
/// zero) and the process must leak neither fds nor threads across the
/// churn: every connection's reader thread exits with its connection.
#[cfg(unix)]
#[test]
fn daemon_attach_detach_churn_leaves_no_residue() {
    use paralog::daemon::client::{Control, Producer};
    use paralog::daemon::proto::AttachRequest;
    use paralog::daemon::supervisor::{Daemon, DaemonConfig};
    use paralog::events::codec::encode;
    use paralog::lifeguards::LifeguardKind;
    use std::time::Instant;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let recs: Vec<EventRecord> = (1..=64u64)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let encoded = encode(&recs);
    // A record-aligned prefix: the chained-checksum codec makes the
    // encoding of a record prefix a byte prefix of the full encoding.
    let prefix = encode(&recs[..32]);
    assert!(encoded.starts_with(&prefix));

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut config = DaemonConfig::new(
        dir.join(format!("plgd-churn-{pid}-d.sock")),
        dir.join(format!("plgd-churn-{pid}-c.sock")),
    );
    config.workers = 2;
    let daemon = Daemon::spawn(config).expect("daemon spawns");

    let iterations = if full_profile() { 400 } else { 25 };
    let mut baseline_fds = None;
    // Before any connection: none.
    let baseline_threads = connection_threads();
    for i in 0..iterations {
        let attach = |name: &str, kind: LifeguardKind| AttachRequest {
            name: name.into(),
            lifeguard: kind.name().into(),
            threads: 1,
            tso: false,
            heap,
            mode: paralog::core::BackendMode::Auto,
        };
        let mut full = Producer::attach(
            daemon.data_socket(),
            &attach("churn-full", LifeguardKind::TaintCheck),
        )
        .expect("attach streams-to-completion session");
        let mut cut = Producer::attach(
            daemon.data_socket(),
            &attach("churn-cut", LifeguardKind::MemCheck),
        )
        .expect("attach detached-mid-stream session");
        let (full_id, cut_id) = (full.session_id(), cut.session_id());

        full.send(0, &encoded).unwrap();
        full.finish().unwrap();
        // The cut session gets a record-aligned prefix, then a DETACH.
        cut.send(0, &prefix).unwrap();

        let mut ctl = Control::connect(daemon.control_socket()).unwrap();
        // Wait for the prefix to be fed and applied before detaching —
        // detach closes the feeds wherever the reader got to, and cutting
        // mid-record is (correctly) a MalformedStream failure, which is
        // the corruption suite's territory, not the churn's.
        let applied = Instant::now() + Duration::from_secs(30);
        loop {
            let status = ctl.status(cut_id).unwrap();
            let records = status
                .iter()
                .find_map(|l| l.strip_prefix("records "))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if records >= 32 {
                break;
            }
            assert!(
                Instant::now() < applied,
                "iteration {i}: prefix never applied: {status:?}"
            );
            thread::sleep(Duration::from_millis(2));
        }
        ctl.detach(cut_id).unwrap();
        drop(cut);

        let deadline = Instant::now() + Duration::from_secs(30);
        for id in [full_id, cut_id] {
            loop {
                let status = ctl.status(id).unwrap();
                let state = status
                    .iter()
                    .find_map(|l| l.strip_prefix("state "))
                    .expect("state line");
                if state == "done" || state == "failed" {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "iteration {i}: session {id} never settled: {status:?}"
                );
                thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(
            daemon.resident_sessions(),
            0,
            "iteration {i}: drained sessions still hold replay state"
        );
        // Let the first iterations warm up lazily-created fds (threads,
        // epoll-free accept loops), then hold the line.
        if i == 2 {
            baseline_fds = open_fds();
        }
    }
    if let Some(base) = baseline_fds {
        let now = open_fds().expect("fd table readable once it was before");
        assert!(now <= base + 8, "fd growth across churn: {base} -> {now}");
    }
    if let Some(base) = baseline_threads {
        // Connections close as their handles drop; their threads follow.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = connection_threads().expect("task list readable once it was before");
            if now <= base {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "connection threads across churn: {base} -> {now}"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
    let reports = daemon.shutdown();
    assert_eq!(reports.len(), 2 * iterations);
    for r in &reports {
        assert!(
            r.result.is_ok(),
            "session {} ({}): {:?}",
            r.id,
            r.name,
            r.result
        );
    }
}

// ---------------------------------------------------------------------------
// Adversarial presets: each generator is paired with the bound it stresses
// ---------------------------------------------------------------------------

/// Replays an adversarial capture through the cooperative lane machinery
/// (the daemon's form) to completion, round-robin with a small budget so
/// lanes genuinely interleave and gate on each other.
/// Records a lane delivers per turn in [`coop_replay`] — how far one lane
/// runs ahead of its peers.
const COOP_STEP_BUDGET: usize = 64;

fn coop_replay(
    kind: LifeguardKind,
    cap: &AdversarialCapture,
) -> (CoopSession, paralog::core::RunMetrics) {
    let streams: Vec<Box<dyn RecordStream>> = cap
        .streams
        .iter()
        .cloned()
        .map(|s| Box::new(BufferedStream::new(s)) as Box<dyn RecordStream>)
        .collect();
    let (session, mut lanes) =
        CoopSession::start(&kind, cap.heap, streams, None).expect("session starts");
    while !session.is_complete() {
        for lane in &mut lanes {
            lane.step(COOP_STEP_BUDGET);
        }
    }
    let metrics = session
        .report()
        .expect("complete")
        .unwrap_or_else(|e| panic!("{}: adversarial replay failed: {e}", cap.name));
    (session, metrics)
}

/// Preset `cycle_lock_masks` vs its bound: cycling far more distinct lock
/// combinations than the 2^16 id space keeps `peak_interned_masks` small,
/// precision intact, and consistently locked sharing silent.
#[test]
fn adversarial_lock_mask_cycling_stays_bounded() {
    let iterations: u64 = if full_profile() { 200_000 } else { 10_000 };
    let cap = adversarial::cycle_lock_masks(iterations);
    let conc = LockSetConcurrent::new(2);
    // Record-by-record round-robin: the refinement writes interleave
    // deterministically between the two monitored threads.
    let mut cursors = [0usize; 2];
    loop {
        let mut progressed = false;
        for (t, cursor) in cursors.iter_mut().enumerate() {
            if let Some(rec) = cap.streams[t].get(*cursor) {
                conc.apply(ThreadId(t as u16), rec, None);
                *cursor += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    assert!(!conc.degraded(), "bound violated: {}", cap.bound);
    assert!(
        conc.violations().is_empty(),
        "locked sharing must stay silent: {:?}",
        conc.violations()
    );
    // The permanent full set, the 11 single-lock masks variables settle
    // on, and the one combination in flight.
    let peak = conc.peak_interned_masks();
    assert!(
        peak <= 1 + 11 + 1,
        "peak interner residency {peak} breaks the bound ({} combinations cycled): {}",
        iterations,
        cap.bound
    );
}

/// Preset `exhaust_read_vcs` vs its bound: pinning more live read VCs than
/// the id space must degrade with *exactly one* `DegradedPrecision`
/// diagnostic — surfaced through the cooperative session's event channel,
/// the same path `paralogd ctl STATUS` reports.
#[test]
fn adversarial_read_vc_exhaustion_degrades_exactly_once() {
    // 66_000 > 2^16 is the exhaustion threshold; the preset cannot be
    // scaled below it and still hit its bound.
    let cap = adversarial::exhaust_read_vcs(66_000, paralog::lifeguards::lockset::SYNC_SPACE_START);
    let (_, metrics) = coop_replay(LifeguardKind::HappensBefore, &cap);
    assert_eq!(metrics.records, cap.records());
    let degradations = metrics
        .events
        .iter()
        .filter(|e| matches!(e, SessionEvent::DegradedPrecision { .. }))
        .count();
    assert_eq!(
        degradations,
        1,
        "bound violated ({} events total): {}",
        metrics.events.len(),
        cap.bound
    );
    assert!(
        metrics.violations.is_empty(),
        "read-only sharing must not fabricate race reports on saturation"
    );
}

/// Preset `rid_sweep` vs its bound: versions whose consumer rids lie 128
/// apart span a million rids (16 million under `PARALOG_SOAK=1`), and
/// `peak_outstanding` must stay at the producer/consumer lead — the step
/// budget the producing lane runs ahead by.
#[test]
fn adversarial_rid_sweep_residency_follows_the_outstanding_set() {
    let versions: u64 = if full_profile() { 131_072 } else { 8_192 };
    let cap = adversarial::rid_sweep(versions, 128);
    let (session, metrics) = coop_replay(LifeguardKind::TaintCheck, &cap);
    assert_eq!(metrics.versions_produced, versions);
    assert_eq!(metrics.versions_consumed, versions);
    let peak = session.versions_peak_outstanding();
    assert!(
        peak <= COOP_STEP_BUDGET,
        "{peak} versions outstanding over a {versions}-version sweep: {}",
        cap.bound
    );
}

/// Preset `arc_fanout` vs its bound: a capture where nearly every record
/// gates on a peer must still drain on both the deterministic round-robin
/// backend and the cooperative lanes — gating is stalling, never deadlock —
/// and the stall traffic must show up in the order-wait phase.
#[test]
fn adversarial_arc_fanout_replays_without_deadlock() {
    use paralog::core::{DeterministicBackend, MonitorSession, ReplaySource};
    let rounds: u64 = if full_profile() { 20_000 } else { 2_000 };
    let cap = adversarial::arc_fanout(6, rounds);

    let det = MonitorSession::builder()
        .source(ReplaySource::new(cap.streams.clone(), cap.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap_or_else(|e| panic!("bound violated ({e}): {}", cap.bound))
        .metrics;
    assert_eq!(det.records, cap.records());
    assert!(
        det.dependence_stalls > 0,
        "the storm never gated — it is not adversarial"
    );
    let phases = det.phases.expect("replay reports phases");
    assert!(
        phases.order_wait > 0,
        "stall traffic must surface in the order-wait phase"
    );

    let (_, coop) = coop_replay(LifeguardKind::TaintCheck, &cap);
    assert_eq!(
        coop.fingerprint, det.fingerprint,
        "gating pressure must not change the analysis result"
    );
}
