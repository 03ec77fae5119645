//! Checked-in benchmark snapshots, the repository's one microbenchmark
//! harness: the byte-shadow suite (`BENCH_shadow.json`), the version-table
//! suite (`BENCH_versions.json`), the concurrency suite
//! (`BENCH_concurrent.json`) and the co-simulation suite
//! (`BENCH_sim.json`).
//!
//! All four share one schema — [`MatrixResult`] plus
//! [`to_json`]/[`parse_json`] — one timer ([`Rounds`]) and one command line
//! ([`run_bin`]), so the CI bench-smoke step diffs every file with the same
//! non-blocking `::warning::` machinery, and a later run always has a
//! checked-in reading to be compared against.

use paralog_core::{
    CoopSession, EventSource, LaneSet, MonitorConfig, MonitorSession, MonitoringMode, Platform,
    RecordStream, SessionError, SourceInput, StreamStatus, ThreadedBackend, WorkerPool,
    LANE_BUDGET,
};
use paralog_events::codec::{encode, StreamDecoder};
use paralog_events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventRecord, HighLevelKind, Instr,
    LockId, MemRef, Op, Reg, Rid, ThreadId, VersionId,
};
use paralog_lifeguards::{ConcurrentLifeguard, LifeguardFactory, LifeguardKind};
use paralog_meta::{AtomicShadow, VersionTable};
use paralog_sim::{MachineConfig, MemorySystem};
use paralog_workloads::{adversarial, Benchmark, WorkloadSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured suite plus the parameters it ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Work units timed per round.
    pub records_per_thread: u64,
    /// Series key → best-of-iters ns per work unit.
    pub series: BTreeMap<String, f64>,
    /// The machine the series were measured on: set by [`run_bin`] when it
    /// writes a baseline; `None` in a baseline written before the field
    /// existed.
    pub machine: Option<Machine>,
}

/// The host a snapshot ran on, written beside its series so a reading is
/// never compared with one from another machine unawares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Processors available to the process.
    pub cores: usize,
    /// The processor's model name (`/proc/cpuinfo`), `unknown` elsewhere.
    pub cpu: String,
}

impl Machine {
    /// Describes this host.
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            // The schema's strings are unescaped.
            cpu: cpu.replace(['"', '\\'], ""),
        }
    }
}

/// Serializes a result as the checked-in `BENCH_*.json` schema.
pub fn to_json(result: &MatrixResult) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 1,\n");
    if let Some(machine) = &result.machine {
        out.push_str(&format!(
            "  \"machine\": {{\"cores\": {}, \"cpu\": \"{}\"}},\n",
            machine.cores, machine.cpu
        ));
    }
    out.push_str(&format!(
        "  \"records_per_thread\": {},\n",
        result.records_per_thread
    ));
    out.push_str("  \"series\": {\n");
    let last = result.series.len().saturating_sub(1);
    for (i, (key, ns)) in result.series.iter().enumerate() {
        out.push_str(&format!("    \"{key}\": {ns:.1}"));
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Parses the schema written by [`to_json`].
/// Hand-rolled (the workspace takes no external dependencies) and
/// deliberately strict about shape: `None` on anything unexpected.
pub fn parse_json(text: &str) -> Option<MatrixResult> {
    let field = |name: &str| -> Option<&str> {
        let tag = format!("\"{name}\"");
        let at = text.find(&tag)? + tag.len();
        let rest = text[at..].trim_start().strip_prefix(':')?;
        Some(rest.trim_start())
    };
    if !field("schema")?.starts_with('1') {
        return None;
    }
    let records_per_thread: u64 = {
        let rest = field("records_per_thread")?;
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        rest[..end].parse().ok()?
    };
    let series_text = field("series")?.strip_prefix('{')?;
    let series_text = &series_text[..series_text.find('}')?];
    let mut series = BTreeMap::new();
    for entry in series_text.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value: f64 = value.trim().parse().ok()?;
        series.insert(key.to_string(), value);
    }
    if series.is_empty() {
        return None;
    }
    let machine = match field("machine") {
        None => None,
        Some(rest) => {
            let block = rest.strip_prefix('{')?.split('}').next()?;
            let cores = block
                .split_once("\"cores\":")?
                .1
                .split(',')
                .next()?
                .trim()
                .parse()
                .ok()?;
            // The last field: a model name may hold a comma.
            let cpu = block.split_once("\"cpu\":")?.1.trim();
            let cpu = cpu.strip_prefix('"')?.strip_suffix('"')?.to_string();
            Some(Machine { cores, cpu })
        }
    };
    Some(MatrixResult {
        records_per_thread,
        series,
        machine,
    })
}

/// A series must be at least this many times slower than the baseline
/// before a snapshot `--check` warns (>30% regression).
pub const REGRESSION_TOLERANCE: f64 = 1.3;

/// The series of one suite, timed together so that their rounds
/// interleave: a shared or frequency-scaled host can change speed for
/// seconds at a time, and a series whose rounds ran back to back could land
/// wholly in a slow phase that its neighbours never saw.
#[derive(Default)]
pub struct Rounds<'a> {
    series: Vec<Series<'a>>,
}

/// One series of a [`Rounds`] and its best round so far.
struct Series<'a> {
    key: String,
    /// Work units one round does.
    units: u64,
    run: Box<dyn FnMut() + 'a>,
    /// Fewest nanoseconds per unit of any timed round.
    best: f64,
}

impl<'a> Rounds<'a> {
    /// Adds series `key`, whose `run` does `units` work units per round.
    pub fn add(&mut self, key: impl Into<String>, units: u64, run: impl FnMut() + 'a) {
        self.series.push(Series {
            key: key.into(),
            units,
            run: Box::new(run),
            best: f64::INFINITY,
        });
    }

    /// Best-of-`iters` nanoseconds per work unit of every series. One
    /// *discarded* warm-up round of each series comes first: the first
    /// round after process start pays allocator and page-fault warm-up that
    /// the checked-in baselines (measured hot, late in a full run) never
    /// see, and discarding it keeps quick-profile `--check` runs comparable
    /// to the committed numbers. Then each pass runs every series once, in
    /// turn: `iters` passes, and a full run ([`FULL_ITERS`] or more) keeps
    /// passing until [`FULL_WINDOW`] has gone by.
    pub fn run(mut self, iters: usize) -> BTreeMap<String, f64> {
        for series in &mut self.series {
            (series.run)();
        }
        let window = FULL_WINDOW * u32::from(iters >= FULL_ITERS);
        let started = Instant::now();
        let mut passes = 0;
        while passes < iters.max(1) || started.elapsed() < window {
            passes += 1;
            for series in &mut self.series {
                let start = Instant::now();
                (series.run)();
                let ns = start.elapsed().as_nanos() as f64 / series.units as f64;
                series.best = series.best.min(ns);
            }
        }
        self.series.into_iter().map(|s| (s.key, s.best)).collect()
    }
}

/// [`Rounds::run`] of one series.
pub fn best_of(units: u64, iters: usize, run: impl FnMut()) -> f64 {
    let mut rounds = Rounds::default();
    rounds.add("", units, run);
    rounds.run(iters)[""]
}

/// Unaligned base, so no range starts or ends on a word boundary.
const SHADOW_BASE: u64 = 0x1000_0003;

/// A byte shadow shaped like a paced TaintCheck session's at its end
/// (`taint_paced`: about 1.5 k written lines in 628 written 1 KiB blocks,
/// 23.5 k non-zero bytes): 628 blocks over 20 chunks, two or three written
/// lines in each (1,570), 15 non-zero bytes in each line (23,550).
fn paced_footprint() -> AtomicShadow {
    const CHUNK: u64 = 64 * 1024;
    let shadow = AtomicShadow::new();
    for block in 0..628u64 {
        let base = 0x2000_0000 + block / 32 * CHUNK + block % 32 * 2048;
        for line in 0..2 + block % 2 {
            shadow.fill_range(base + line * 320 + block % 4 * 4, 15, 1);
        }
    }
    shadow
}

/// The byte-shadow suite: [`AtomicShadow`]'s range primitives at 4 B (the
/// co-simulation's typical operation), 64 B and 4 KiB, plus `first_touch` —
/// construct, one 4-byte fill, drop: what a session pays before its first
/// record — and `fingerprint/taint_paced`, the verdict a paced session pays
/// at its end ([`paced_footprint`]). Keys are `"<op>/<len>"`; values are ns
/// per *call* (not per byte), so the series diff catches fast-path
/// regressions that per-byte throughput would hide at large lengths. `reps`
/// calls are timed per round, `reps / 256` (at least one) of the
/// fingerprint.
pub fn shadow_matrix(reps: u64, iters: usize) -> MatrixResult {
    let shadow = AtomicShadow::new();
    shadow.fill_range(SHADOW_BASE, 8192, 1);
    let shadow = &shadow;
    let paced = paced_footprint();
    let mut rounds = Rounds::default();
    for len in [4u64, 64, 4096] {
        rounds.add(format!("fill_range/{len}"), reps, move || {
            for _ in 0..reps {
                shadow.fill_range(black_box(SHADOW_BASE), len, 1);
            }
        });
        rounds.add(format!("join_range/{len}"), reps, move || {
            for _ in 0..reps {
                black_box(shadow.join_range(black_box(SHADOW_BASE), len));
            }
        });
        rounds.add(format!("eq_range/{len}"), reps, move || {
            for _ in 0..reps {
                black_box(shadow.eq_range(black_box(SHADOW_BASE), len, 1));
            }
        });
    }
    rounds.add("first_touch", reps, || {
        for _ in 0..reps {
            let fresh = AtomicShadow::new();
            fresh.fill_range(black_box(SHADOW_BASE), 4, 1);
            black_box(&fresh);
        }
    });
    let fingerprints = (reps / 256).max(1);
    rounds.add("fingerprint/taint_paced", fingerprints, || {
        for _ in 0..fingerprints {
            black_box(black_box(&paced).fingerprint());
        }
    });
    MatrixResult {
        records_per_thread: reps,
        series: rounds.run(iters),
        machine: None,
    }
}

/// The version-table suite: §5.5 windowed churn, availability polling, the
/// bypass-heavy worst case, and a sparse-rid sweep. Values are ns
/// per operation; `ops` operations are timed per round
/// (`records_per_thread` records `ops` in the snapshot).
pub fn versions_matrix(ops: u64, iters: usize) -> MatrixResult {
    const WINDOW: u64 = 32;
    const THREADS: u16 = 4;
    let vid = |t: u16, r: u64| VersionId {
        consumer: ThreadId(t),
        consumer_rid: Rid(r),
    };
    let range = AddrRange::new(0x1000, 16);
    let snapshot = || vec![0b01u8; 16];
    let polled = VersionTable::new(THREADS.into());
    for t in 0..THREADS {
        for r in 1..=WINDOW {
            polled.produce(vid(t, r), range, snapshot(), 1);
        }
    }
    let mut rounds = Rounds::default();

    let churn_ops = ops * u64::from(THREADS) * 2;
    rounds.add(format!("churn/w{WINDOW}"), churn_ops, || {
        let table = VersionTable::new(THREADS.into());
        for r in 1..=ops {
            for t in 0..THREADS {
                table.produce(vid(t, r), range, snapshot(), 1);
                if r > WINDOW {
                    black_box(table.consume(vid(t, r - WINDOW)));
                }
            }
        }
        for r in (ops - WINDOW + 1).max(1)..=ops {
            for t in 0..THREADS {
                black_box(table.consume(vid(t, r)));
            }
        }
        black_box(table.peak_outstanding());
    });

    rounds.add("poll", ops, || {
        let mut hits = 0u64;
        for r in 1..=ops {
            hits += u64::from(polled.is_available(vid((r % 4) as u16, r % (WINDOW * 2) + 1)));
        }
        black_box(hits);
    });

    rounds.add("bypass", ops, || {
        let table = VersionTable::new(1);
        for r in 1..=ops {
            let id = vid(0, r);
            table.bypass(id);
            table.produce(id, range, snapshot(), 1);
        }
        black_box(table.outstanding());
    });

    // One version per 128 rids, produced and consumed in turn: the stride
    // that cost the removed chunked layout a chunk per version.
    let sweep = ops.min(2048);
    rounds.add("sparse_rids", sweep, || {
        let table = VersionTable::new(1);
        for c in 0..sweep {
            let id = vid(0, c * 128 + 1);
            table.produce(id, range, snapshot(), 1);
            black_box(table.consume(id));
        }
        black_box(table.peak_outstanding());
    });

    MatrixResult {
        records_per_thread: ops,
        series: rounds.run(iters),
        machine: None,
    }
}

/// The heap the concurrency suite's byte-shadow analyses track.
const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000_0000,
};

/// One thread's arc-free, violation-free stream: `head`, then `records`
/// alternating loads and stores of `size` bytes walking `slab` in `stride`
/// steps — after the first pass every access is its analysis' §5.3 fast
/// path.
fn slab_stream(
    head: EventRecord,
    records: u64,
    slab: AddrRange,
    size: u8,
    stride: u64,
) -> Vec<EventRecord> {
    let mut recs = vec![head];
    for i in 0..records {
        let mem = MemRef::new(
            slab.start + (i * stride) % (slab.len - u64::from(size)),
            size,
        );
        let instr = if i % 2 == 0 {
            Instr::Load {
                dst: Reg(0),
                src: mem,
            }
        } else {
            Instr::Store {
                dst: mem,
                src: Reg(0),
            }
        };
        recs.push(EventRecord::instr(Rid(i + 2), instr));
    }
    recs
}

/// An own-stream ConflictAlert (no cross-thread ordering).
fn own_ca(tid: u16, what: HighLevelKind, range: Option<AddrRange>) -> EventRecord {
    EventRecord::ca(
        Rid(1),
        CaRecord {
            what,
            phase: CaPhase::End,
            range,
            issuer: ThreadId(tid),
            issuer_rid: Rid(1),
            seq: u64::MAX,
        },
    )
}

/// The byte-shadow analyses' check stream: a malloc of an own heap slab,
/// then 8-byte accesses inside it.
fn check_stream(tid: u16, records: u64) -> Vec<EventRecord> {
    let slab = AddrRange::new(HEAP.start + u64::from(tid) * 0x10_000, 0x8000);
    let head = own_ca(tid, HighLevelKind::Malloc, Some(slab));
    slab_stream(head, records, slab, 8, 16)
}

/// An exclusive slab in data space, well below the sync-object region, for
/// the race detectors: 32-byte (8-granule) accesses — the memcpy/struct-sweep
/// shape — make each record a run of per-granule checks.
fn race_slab(tid: u16) -> AddrRange {
    AddrRange::new(0x0100_0000 + u64::from(tid) * 0x10_000, 0x8000)
}

/// LOCKSET's stream: acquire an own lock, then same-thread `Exclusive`
/// re-accesses (a single load-acquire each).
fn lockset_stream(tid: u16, records: u64) -> Vec<EventRecord> {
    let lock = HighLevelKind::Lock(LockId(u32::from(tid)));
    slab_stream(own_ca(tid, lock, None), records, race_slab(tid), 32, 32)
}

/// HAPPENSBEFORE's stream: one `Rmw` on an own sync word establishes the
/// thread's epoch, then same-epoch re-accesses (a single load-acquire each).
fn happensbefore_stream(tid: u16, records: u64) -> Vec<EventRecord> {
    let own_lock = paralog_lifeguards::lockset::SYNC_SPACE_START + u64::from(tid) * 64;
    let head = Instr::Rmw {
        mem: MemRef::new(own_lock, 8),
        reg: Reg(0),
    };
    let head = EventRecord::instr(Rid(1), head);
    slab_stream(head, records, race_slab(tid), 32, 32)
}

/// Replays one pre-built stream per thread against `conc` on real threads.
fn replay(conc: &dyn ConcurrentLifeguard, streams: &[Vec<EventRecord>]) {
    std::thread::scope(|scope| {
        for (tid, stream) in streams.iter().enumerate() {
            scope.spawn(move || {
                let tid = ThreadId(tid as u16);
                for rec in stream {
                    conc.apply(tid, rec, None);
                }
            });
        }
    });
}

/// One stream of a capture every round replays afresh, read where it lies
/// rather than cloned into each session first.
#[derive(Debug)]
struct SharedStream {
    records: Arc<[EventRecord]>,
    at: usize,
}

impl RecordStream for SharedStream {
    fn next_batch(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<StreamStatus, SessionError> {
        let rest = &self.records[self.at..];
        if rest.is_empty() {
            return Ok(StreamStatus::Exhausted);
        }
        let n = rest.len().min(max);
        out.extend_from_slice(&rest[..n]);
        self.at += n;
        Ok(StreamStatus::Yielded)
    }
}

/// A capture whose streams every round replays afresh.
#[derive(Debug)]
struct SharedCapture(Vec<Arc<[EventRecord]>>);

impl EventSource for SharedCapture {
    fn thread_count(&self) -> usize {
        self.0.len()
    }

    fn heap(&self) -> AddrRange {
        HEAP
    }

    fn open(self: Box<Self>) -> SourceInput {
        SourceInput::Streams(
            self.0
                .into_iter()
                .map(|records| Box::new(SharedStream { records, at: 0 }) as Box<dyn RecordStream>)
                .collect(),
        )
    }
}

/// A session over `captures` under `kind`, its lanes pooled in one set.
fn lane_session(
    kind: LifeguardKind,
    heap: AddrRange,
    captures: &[Arc<[EventRecord]>],
) -> (CoopSession, LaneSet) {
    let streams = captures
        .iter()
        .map(|records| {
            let records = Arc::clone(records);
            Box::new(SharedStream { records, at: 0 }) as Box<dyn RecordStream>
        })
        .collect();
    let (session, lanes) =
        CoopSession::start(&kind, heap, streams, None).expect("bundled kinds replay on lanes");
    (session, LaneSet::new(lanes))
}

/// Replays one session over `captures` under `kind` to completion, its
/// [`LaneSet`] swept by `drivers` threads, each from its own home lane.
fn sweep_session(
    kind: LifeguardKind,
    heap: AddrRange,
    captures: &[Arc<[EventRecord]>],
    drivers: usize,
) {
    let (session, set) = lane_session(kind, heap, captures);
    std::thread::scope(|scope| {
        for home in 0..drivers {
            let (session, set) = (&session, &set);
            scope.spawn(move || {
                while !session.is_complete() {
                    if set.sweep(home, LANE_BUDGET).delivered == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    black_box(session.report());
}

/// Replays one session over `captures` under `kind` to completion on a
/// fresh [`WorkerPool`] of `workers`, one task per lane, as `paralogd`
/// schedules a session; the pool's start and join are in it.
fn pool_session(
    kind: LifeguardKind,
    heap: AddrRange,
    captures: &[Arc<[EventRecord]>],
    workers: usize,
) {
    let (session, set) = lane_session(kind, heap, captures);
    let pool = WorkerPool::new(workers);
    set.submit(&session, &pool);
    // Every task runs until the session completes: the join is the wait.
    assert!(pool.shutdown().is_none(), "no slice panicked");
    black_box(session.report());
}

/// Records between two arcs of a [`handoff_stream`].
const HANDOFF_ARC_EVERY: usize = 64;

/// [`check_stream`] with a sparse arc to the sibling of a two-lane capture:
/// every 64th record waits for the sibling's previous rid, lane 1 half a
/// period after lane 0, so each lane is now and then gated on the other.
/// Every arc points at a smaller rid, so the capture cannot deadlock.
fn handoff_stream(tid: u16, records: u64) -> Vec<EventRecord> {
    let mut recs = check_stream(tid, records);
    let sibling = ThreadId(1 - tid);
    let first = HANDOFF_ARC_EVERY / 2 * usize::from(tid) + HANDOFF_ARC_EVERY;
    for rec in recs.iter_mut().skip(first).step_by(HANDOFF_ARC_EVERY) {
        let needed = Rid(rec.rid.0 - 1);
        rec.arcs
            .push(DependenceArc::new(sibling, needed, ArcKind::Sync));
    }
    recs
}

/// The concurrency suite, on real OS threads — the timing of §5.3's claim
/// that lifeguard fast paths need no synchronisation across lifeguard
/// threads. `records` records per thread are timed per round.
///
/// * `<analysis>_replay/lockfree/{2,4}` — what the lock-free form each
///   [`LifeguardKind`] resolves to costs per record at two and four
///   threads: AddrCheck (`concurrent_replay`) and MemCheck over the check
///   stream, LockSet and HappensBefore over their fast-path streams.
/// * `lane_sweep/drivers/{1,2}` — MemCheck's two streams through one
///   session's [`LaneSet`], swept by one driver and by two, per record.
///   Two drivers must be no slower than one: if they are, the lanes share a
///   cache line they write per record.
/// * `lane_sweep/arc_fanout` — [`adversarial::arc_fanout`]'s hub and two
///   spokes under TaintCheck, swept by one driver, per record: nearly every
///   record carries an arc, so a lane's plain runs are about one record
///   long and this is what the gate and the hand-off between lanes cost
///   when runs buy nothing.
/// * `lane_pool/arc_fanout/{1,2}` — the same storm on a [`WorkerPool`] of
///   one worker and of two, one task per lane as `paralogd` runs a
///   session, per record, pool start and join included. Two workers must
///   be no slower than one: a sweep holds a chain of coupled lanes, so the
///   second worker finds it held instead of trading the lanes between
///   cores.
/// * `lane_handoff/threaded/2` — two MemCheck lanes on a
///   [`ThreadedBackend`] (two pool workers on a two-processor machine),
///   each gated every 64 records on the sibling lane the other worker
///   holds, per record: what handing lanes between the workers costs,
///   idle waits and wakes included, pool start and join too.
/// * `concurrent_versions/{uncontended,handoff}` — the §5.5
///   produce→consume hand-off through [`VersionTable`]'s one mutex, per
///   version (`records / 2` of them): one thread doing the whole lifecycle,
///   and a producer thread racing a polling consumer.
/// * `decode/{plain,tso_annotated,capture}` — a wire turned back into
///   records by [`StreamDecoder::decode_into`] in a lane's 256-record
///   batches, per record: the check stream's loads and stores; the same
///   with a §5.5 produce and consume note on every 16th record, which costs
///   its record an allocation; and `ocean_capture`'s two streams, the mix
///   of opcodes, address deltas and arcs the daemon decodes on `taint_sat`.
pub fn concurrent_matrix(records: u64, iters: usize) -> MatrixResult {
    type Stream = fn(u16, u64) -> Vec<EventRecord>;
    let replays: [(&str, LifeguardKind, Stream); 4] = [
        ("concurrent_replay", LifeguardKind::AddrCheck, check_stream),
        ("memcheck_replay", LifeguardKind::MemCheck, check_stream),
        ("lockset_replay", LifeguardKind::LockSet, lockset_stream),
        (
            "happensbefore_replay",
            LifeguardKind::HappensBefore,
            happensbefore_stream,
        ),
    ];
    let mut rounds = Rounds::default();
    for (name, kind, stream) in replays {
        for threads in [2u16, 4] {
            let streams: Vec<_> = (0..threads).map(|t| stream(t, records)).collect();
            let conc = kind
                .concurrent(HEAP, threads.into())
                .expect("bundled kinds replay");
            rounds.add(
                format!("{name}/lockfree/{threads}"),
                u64::from(threads) * records,
                move || {
                    replay(&*conc, &streams);
                    black_box(conc.fingerprint());
                },
            );
        }
    }

    const LANES: u16 = 2;
    let captures: Vec<Arc<[EventRecord]>> = (0..LANES)
        .map(|t| check_stream(t, records).into())
        .collect();
    for drivers in [1, 2] {
        let captures = captures.clone();
        rounds.add(
            format!("lane_sweep/drivers/{drivers}"),
            u64::from(LANES) * records,
            move || sweep_session(LifeguardKind::MemCheck, HEAP, &captures, drivers),
        );
    }
    let storm = adversarial::arc_fanout(2, records);
    let storm_records = storm.streams.iter().map(|s| s.len() as u64).sum();
    let storm_streams: Vec<Arc<[EventRecord]>> = storm.streams.into_iter().map(Arc::from).collect();
    let storm_heap = storm.heap;
    for workers in [1, 2] {
        let storm_streams = storm_streams.clone();
        rounds.add(
            format!("lane_pool/arc_fanout/{workers}"),
            storm_records,
            move || {
                pool_session(
                    LifeguardKind::TaintCheck,
                    storm_heap,
                    &storm_streams,
                    workers,
                )
            },
        );
    }
    rounds.add("lane_sweep/arc_fanout", storm_records, move || {
        sweep_session(LifeguardKind::TaintCheck, storm_heap, &storm_streams, 1);
    });

    let handoff: Vec<Arc<[EventRecord]>> = (0..LANES)
        .map(|t| handoff_stream(t, records).into())
        .collect();
    rounds.add(
        "lane_handoff/threaded/2",
        u64::from(LANES) * records,
        move || {
            let outcome = MonitorSession::builder()
                .source(SharedCapture(handoff.clone()))
                .lifeguard(LifeguardKind::MemCheck)
                .backend(ThreadedBackend)
                .build()
                .and_then(MonitorSession::run)
                .expect("the hand-off capture replays clean");
            black_box(outcome.metrics.fingerprint);
        },
    );

    let versions = records / 2;
    let vid = |r: u64| VersionId {
        consumer: ThreadId(0),
        consumer_rid: Rid(r),
    };
    let range = AddrRange::new(0x1000, 16);
    let snapshot = || vec![0b01u8; 16];
    rounds.add("concurrent_versions/uncontended", versions, move || {
        let table = VersionTable::new(2);
        for r in 1..=versions {
            table.produce(vid(r), range, snapshot(), 1);
            black_box(table.consume(vid(r)));
        }
        black_box(table.outstanding());
    });
    rounds.add("concurrent_versions/handoff", versions, move || {
        let table = VersionTable::new(1);
        std::thread::scope(|scope| {
            let t = &table;
            scope.spawn(move || {
                for r in 1..=versions {
                    t.produce(vid(r), range, snapshot(), 1);
                }
            });
            scope.spawn(move || {
                for r in 1..=versions {
                    while t.consume(vid(r)).map(black_box).is_none() {
                        std::thread::yield_now();
                    }
                }
            });
        });
        black_box(table.peak_outstanding());
    });

    let plain = check_stream(0, records);
    let mut annotated = plain.clone();
    let mem = MemRef::new(HEAP.start, 8);
    for rec in annotated.iter_mut().step_by(16) {
        rec.push_produce_version(vid(rec.rid.0), mem, 1);
        rec.set_consume_version(vid(rec.rid.0 + 1), mem);
    }
    for (name, streams) in [
        ("decode/plain", vec![plain]),
        ("decode/tso_annotated", vec![annotated]),
        ("decode/capture", ocean_capture(records)),
    ] {
        let units = streams.iter().map(|s| s.len() as u64).sum();
        let wires: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
        let mut batch = Vec::with_capacity(DECODE_BATCH);
        rounds.add(name, units, move || {
            for wire in &wires {
                let mut stream = StreamDecoder::new();
                stream.feed(wire);
                loop {
                    batch.clear();
                    let got = stream.decode_into(&mut batch, DECODE_BATCH);
                    if got.expect("own encoding decodes") == 0 {
                        break;
                    }
                    black_box(&batch);
                }
            }
        });
    }

    MatrixResult {
        records_per_thread: records,
        series: rounds.run(iters),
        machine: None,
    }
}

/// The streams of a co-simulated Ocean ×2 under TaintCheck, `slots`
/// generator slots per thread: the end-to-end `taint_sat` workload's
/// application at a small scale, so its opcode mix and its arcs.
fn ocean_capture(slots: u64) -> Vec<Vec<EventRecord>> {
    let mut spec = WorkloadSpec::benchmark(Benchmark::Ocean, 2)
        .inject_bugs(true)
        .seed(1);
    spec.ops_per_thread = slots as usize;
    let mut config = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    config.collect_streams = true;
    Platform::run(&spec.build(), &config)
        .metrics
        .streams
        .expect("streams were collected")
}

/// The co-simulation suite: what [`Platform::run`] costs the host, the
/// work behind every figure and every benchmark set-up. One fixed
/// application — Barnes ×4 under TaintCheck with injected bugs, seed 1,
/// `slots` generator slots per thread — is co-simulated in each mode the
/// way the end-to-end benchmark's set-up runs it (the parallel run collects
/// its streams and checks equivalence). `cosim/none` is ns per application
/// op (that run captures no records), `cosim/timesliced` and
/// `cosim/parallel` ns per record their run captured. `coherence/access`
/// replays the application's memory accesses, round-robin over its
/// threads, through a fresh [`MemorySystem`] of the parallel run's machine:
/// ns per access, the system's construction included.
pub fn sim_matrix(slots: u64, iters: usize) -> MatrixResult {
    let mut spec = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
        .inject_bugs(true)
        .seed(1);
    spec.ops_per_thread = slots as usize;
    let workload = &spec.build();
    let mut rounds = Rounds::default();
    for (key, mode) in [
        ("cosim/none", MonitoringMode::None),
        ("cosim/timesliced", MonitoringMode::Timesliced),
        ("cosim/parallel", MonitoringMode::Parallel),
    ] {
        let mut config = MonitorConfig::new(mode, LifeguardKind::TaintCheck);
        if mode == MonitoringMode::Parallel {
            config.collect_streams = true;
            config = config.with_equivalence_check();
        }
        let units = match mode {
            MonitoringMode::None => workload.total_ops() as u64,
            _ => Platform::run(workload, &config).metrics.records,
        };
        rounds.add(key, units, move || {
            black_box(Platform::run(workload, &config));
        });
    }

    let mut streams: Vec<_> = workload
        .threads
        .iter()
        .map(|ops| {
            ops.iter().filter_map(|op| match op {
                Op::Instr(instr) => instr.mem_access(),
                _ => None,
            })
        })
        .collect();
    let mut trace = Vec::new();
    loop {
        let before = trace.len();
        for (core, stream) in streams.iter_mut().enumerate() {
            trace.extend(stream.next().map(|access| (core, access)));
        }
        if trace.len() == before {
            break;
        }
    }
    let machine = MachineConfig::paper(2 * workload.thread_count());
    rounds.add("coherence/access", trace.len() as u64, move || {
        let mut mem = MemorySystem::new(&machine);
        for (i, &(core, (at, kind))) in trace.iter().enumerate() {
            let rid = Rid(i as u64 + 1);
            black_box(mem.access(core, rid, at.addr, u64::from(at.size), kind));
        }
    });

    MatrixResult {
        records_per_thread: slots,
        series: rounds.run(iters),
        machine: None,
    }
}

/// Records a replay lane pulls per refill.
const DECODE_BATCH: usize = 256;

/// Best-of window of a full run, which rewrites the checked-in baseline.
const FULL_ITERS: usize = 7;
/// Least time the passes of a full run take, so that a short suite's
/// baseline does not land wholly in one of a shared host's speed phases.
const FULL_WINDOW: Duration = Duration::from_secs(1);
/// Best-of window of a `--check` run. The quick profile keeps the full unit
/// count (so per-unit numbers stay comparable to the committed baseline —
/// fixed per-round overhead amortizes identically) and only cuts the
/// window.
const QUICK_ITERS: usize = 3;

/// The checked-in baseline `file_name` at the repository root.
fn baseline_path(file_name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name)
}

/// The whole `main` of a snapshot bin: runs `matrix(units, iters)`, prints
/// it under `title` in ns per `unit`, then either rewrites the checked-in
/// `file_name` at the repository root, with the [`Machine`] it ran on
/// (`--out <path>` overrides where) or,
/// under `--check`, diffs a quick profile against it and exits 0 whatever
/// it finds (non-blocking). An unknown flag exits 2.
pub fn run_bin(
    file_name: &str,
    title: &str,
    unit: &str,
    units: u64,
    matrix: fn(u64, usize) -> MatrixResult,
) {
    let mut out = baseline_path(file_name);
    let mut checking = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => checking = true,
            "--out" => out = PathBuf::from(args.next().expect("--out requires a path")),
            other => {
                eprintln!("unknown flag {other:?} (expected --check, --out <path>)");
                std::process::exit(2);
            }
        }
    }
    let iters = if checking { QUICK_ITERS } else { FULL_ITERS };
    let mut result = matrix(units, iters);
    let machine = Machine::detect();
    println!(
        "{title} ({units} {unit}s/round, ns/{unit}, best of ≥{iters}; {} × {}):",
        machine.cores, machine.cpu
    );
    result.machine = Some(machine);
    for (key, ns) in &result.series {
        println!("  {key:<32} {ns:10.1}");
    }
    if checking {
        std::process::exit(check_against(file_name, &out, &result));
    }
    std::fs::write(&out, to_json(&result)).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    println!("wrote {}", out.display());
}

/// The `--check` body: diff `fresh` against the baseline at `path`,
/// emitting one GitHub Actions `::warning::` line per series past
/// [`REGRESSION_TOLERANCE`]. Always returns exit code 0 — the bench-smoke
/// step is non-blocking by design (shared CI runners jitter far too much
/// for a hard gate).
fn check_against(name: &str, path: &Path, fresh: &MatrixResult) -> i32 {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!(
            "::warning::{name} missing at {} — run the bench bin to regenerate",
            path.display()
        );
        return 0;
    };
    let Some(baseline) = parse_json(&text) else {
        println!("::warning::{name} is unparseable — run the bench bin to regenerate");
        return 0;
    };
    let mut regressed = 0usize;
    for (key, fresh_ns) in &fresh.series {
        let Some(base_ns) = baseline.series.get(key) else {
            println!("::warning::series {key} missing from {name} baseline");
            continue;
        };
        if *fresh_ns > base_ns * REGRESSION_TOLERANCE {
            regressed += 1;
            println!(
                "::warning::bench regression: {key} {fresh_ns:.1} ns vs baseline {base_ns:.1} (>{:.0}%)",
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
        }
    }
    let measured_on = baseline.machine.map_or(String::new(), |m| {
        format!(" (baseline measured on {} × {})", m.cores, m.cpu)
    });
    println!(
        "bench-smoke: {name}{measured_on}: {} series checked, {regressed} regressed past the {REGRESSION_TOLERANCE}x tolerance (non-blocking)",
        fresh.series.len()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut result = MatrixResult {
            records_per_thread: 4096,
            series: [("fill_range/4", 12.5), ("churn/w32", 0.1)]
                .map(|(key, ns)| (key.to_string(), ns))
                .into(),
            machine: None,
        };
        let parsed = parse_json(&to_json(&result)).expect("own output parses");
        assert_eq!(parsed, result);
        result.machine = Some(Machine {
            cores: 2,
            cpu: "Intel(R) Xeon(R) CPU @ 2.10GHz, stepping 7".into(),
        });
        let parsed = parse_json(&to_json(&result)).expect("own output parses");
        assert_eq!(parsed, result);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("").is_none());
        assert!(parse_json("{\"schema\": 2}").is_none());
        assert!(
            parse_json("{\"schema\": 1, \"records_per_thread\": 4096, \"series\": {}}").is_none()
        );
    }

    #[test]
    fn shadow_matrix_round_trips_through_the_snapshot_schema() {
        let result = shadow_matrix(4, 1);
        assert_eq!(result.series.len(), 3 * 3 + 2);
        assert!(result.series.contains_key("first_touch"));
        assert!(result.series.contains_key("fingerprint/taint_paced"));
        let parsed = parse_json(&to_json(&result)).expect("own output parses");
        assert_eq!(parsed.series.len(), result.series.len());
        assert!(result
            .series
            .values()
            .all(|ns| ns.is_finite() && *ns >= 0.0));
    }

    #[test]
    fn versions_matrix_covers_every_lifecycle_shape() {
        let result = versions_matrix(64, 1);
        for key in ["churn/w32", "poll", "bypass", "sparse_rids"] {
            assert!(result.series.contains_key(key), "missing series {key}");
        }
        let parsed = parse_json(&to_json(&result)).expect("own output parses");
        assert_eq!(parsed.series.len(), result.series.len());
    }

    #[test]
    fn sim_matrix_times_every_mode_and_the_memory_system() {
        let result = sim_matrix(100, 1);
        let keys: Vec<&str> = result.series.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "coherence/access",
                "cosim/none",
                "cosim/parallel",
                "cosim/timesliced"
            ]
        );
        assert!(result.series.values().all(|ns| ns.is_finite() && *ns > 0.0));
    }

    #[test]
    fn checked_in_baselines_cover_every_series() {
        let suites: [(&str, MatrixResult); 4] = [
            ("BENCH_shadow.json", shadow_matrix(4, 1)),
            ("BENCH_versions.json", versions_matrix(64, 1)),
            ("BENCH_concurrent.json", concurrent_matrix(64, 1)),
            ("BENCH_sim.json", sim_matrix(100, 1)),
        ];
        for (file_name, fresh) in suites {
            let text = std::fs::read_to_string(baseline_path(file_name))
                .unwrap_or_else(|e| panic!("read {file_name}: {e}"));
            let baseline =
                parse_json(&text).unwrap_or_else(|| panic!("{file_name} is unparseable"));
            assert!(
                baseline.series.keys().eq(fresh.series.keys()),
                "{file_name} lists {:?}, the suite measures {:?}: regenerate it",
                baseline.series.keys().collect::<Vec<_>>(),
                fresh.series.keys().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn best_of_discards_the_warm_up_round() {
        // The closure runs iters + 1 times; only the last `iters` are
        // candidates for the reported minimum.
        let mut calls = 0u32;
        let ns = best_of(1, 3, || calls += 1);
        assert_eq!(calls, 4);
        assert!(ns.is_finite());
    }
}
