//! Microbenchmarks for the lifeguard concurrency layer.
//!
//! Three questions, answered on real OS threads:
//!
//! * **`concurrent_replay` / `memcheck_replay` / `lockset_replay` /
//!   `happensbefore_replay`** — what does the lock-free §5.3 form each
//!   [`LifeguardKind`] resolves to cost per record at two and four threads?
//!   Each series replays fast-path-shaped per-thread streams (AddrCheck for
//!   the IF class, MemCheck for the dataflow engine's propagation, LockSet
//!   and HappensBefore for the fast-path/slow-path race-detection class).
//! * **`lane_sweep`** — do two drivers sweeping one session's [`LaneSet`]
//!   replay its two independent lanes in parallel? `memcheck_replay`'s two
//!   streams, through the lanes (gates, progress, the lane locks) and swept
//!   by one thread and by two. Two drivers must be no slower than one: if
//!   they are, the lanes share a cache line they write per record.
//! * **`concurrent_versions`** — what does the §5.5 produce→consume
//!   hand-off cost through the one mutex of [`VersionTable`], both
//!   uncontended (one thread doing the whole lifecycle, comparable with
//!   `bench_versions`' single-thread series) and as a genuine cross-thread
//!   hand-off with a polling consumer?

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paralog_core::{CoopSession, LaneSet, RecordStream, SessionError, StreamStatus};
use paralog_events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, LockId, MemRef, Reg, Rid,
    ThreadId, VersionId,
};
use paralog_lifeguards::{ConcurrentLifeguard, LifeguardFactory, LifeguardKind};
use paralog_meta::VersionTable;
use std::sync::Arc;

const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000_0000,
};

/// Records per thread and per iteration in the replay series.
const RECORDS: u64 = 4096;

/// One thread's arc-free, violation-free stream: `head`, then alternating
/// loads and stores of `size` bytes walking `slab` in `stride` steps — after
/// the first pass every access is its analysis' §5.3 fast path.
fn slab_stream(head: EventRecord, slab: AddrRange, size: u8, stride: u64) -> Vec<EventRecord> {
    let mut recs = vec![head];
    for i in 0..RECORDS {
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
fn check_stream(tid: u16) -> Vec<EventRecord> {
    let slab = AddrRange::new(HEAP.start + u64::from(tid) * 0x10_000, 0x8000);
    slab_stream(own_ca(tid, HighLevelKind::Malloc, Some(slab)), slab, 8, 16)
}

/// An exclusive slab in data space, well below the sync-object region, for
/// the race detectors: 32-byte (8-granule) accesses — the memcpy/struct-sweep
/// shape — make each record a run of per-granule checks.
fn race_slab(tid: u16) -> AddrRange {
    AddrRange::new(0x0100_0000 + u64::from(tid) * 0x10_000, 0x8000)
}

/// LOCKSET's stream: acquire an own lock, then same-thread `Exclusive`
/// re-accesses (a single load-acquire each).
fn lockset_stream(tid: u16) -> Vec<EventRecord> {
    let lock = HighLevelKind::Lock(LockId(u32::from(tid)));
    slab_stream(own_ca(tid, lock, None), race_slab(tid), 32, 32)
}

/// HAPPENSBEFORE's stream: one `Rmw` on an own sync word establishes the
/// thread's epoch, then same-epoch re-accesses (a single load-acquire each).
fn happensbefore_stream(tid: u16) -> Vec<EventRecord> {
    let own_lock = paralog_lifeguards::lockset::SYNC_SPACE_START + u64::from(tid) * 64;
    let head = Instr::Rmw {
        mem: MemRef::new(own_lock, 8),
        reg: Reg(0),
    };
    slab_stream(EventRecord::instr(Rid(1), head), race_slab(tid), 32, 32)
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

/// Benchmarks one bundled analysis' concurrent form over per-thread streams
/// on real threads.
fn bench_replay(
    c: &mut Criterion,
    group_name: &str,
    kind: LifeguardKind,
    stream: fn(u16) -> Vec<EventRecord>,
) {
    for threads in [2usize, 4] {
        let streams: Vec<Vec<EventRecord>> = (0..threads as u16).map(stream).collect();
        let mut group = c.benchmark_group(group_name);
        group.sample_size(10);
        group.throughput(Throughput::Elements(threads as u64 * RECORDS));

        // The series keeps the name it had beside the deleted `locked` one,
        // so readings stay comparable across that change.
        let conc = kind
            .concurrent(HEAP, threads)
            .expect("bundled kinds replay");
        group.bench_function(BenchmarkId::new("lockfree", threads), |b| {
            b.iter(|| {
                replay(&*conc, &streams);
                black_box(conc.fingerprint())
            })
        });
        group.finish();
    }
}

fn bench_concurrent_replay(c: &mut Criterion) {
    type Stream = fn(u16) -> Vec<EventRecord>;
    let series: [(&str, LifeguardKind, Stream); 4] = [
        // The IF-class check stream through AddrCheck (the PR 4 series).
        ("concurrent_replay", LifeguardKind::AddrCheck, check_stream),
        // Dataflow (definedness) propagation through MemCheck.
        ("memcheck_replay", LifeguardKind::MemCheck, check_stream),
        // Eraser state-machine checks through LockSet.
        ("lockset_replay", LifeguardKind::LockSet, lockset_stream),
        // FastTrack epoch checks through HappensBefore.
        (
            "happensbefore_replay",
            LifeguardKind::HappensBefore,
            happensbefore_stream,
        ),
    ];
    for (group, kind, stream) in series {
        bench_replay(c, group, kind, stream);
    }
}

/// One stream of a capture every iteration replays afresh, read where it
/// lies rather than cloned into each session first.
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

fn bench_lane_sweep(c: &mut Criterion) {
    const LANES: u16 = 2;
    let streams: Vec<Arc<[EventRecord]>> = (0..LANES).map(|t| check_stream(t).into()).collect();
    let mut group = c.benchmark_group("lane_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(LANES) * RECORDS));
    for drivers in [1, 2] {
        group.bench_function(BenchmarkId::new("drivers", drivers), |b| {
            b.iter(|| {
                let boxed = streams
                    .iter()
                    .map(|records| {
                        let records = Arc::clone(records);
                        Box::new(SharedStream { records, at: 0 }) as Box<dyn RecordStream>
                    })
                    .collect();
                let (session, lanes) =
                    CoopSession::start(&LifeguardKind::MemCheck, HEAP, boxed, None)
                        .expect("MemCheck replays on lanes");
                let set = LaneSet::new(lanes);
                std::thread::scope(|scope| {
                    for home in 0..drivers {
                        let (session, set) = (&session, &set);
                        scope.spawn(move || {
                            while !session.is_complete() {
                                if set.sweep(home, 512).delivered == 0 {
                                    std::thread::yield_now();
                                }
                            }
                        });
                    }
                });
                black_box(session.report())
            })
        });
    }
    group.finish();
}

const VERSIONS: u64 = 2048;

fn vid(t: u16, r: u64) -> VersionId {
    VersionId {
        consumer: ThreadId(t),
        consumer_rid: Rid(r),
    }
}

fn bench_concurrent_versions(c: &mut Criterion) {
    let range = AddrRange::new(0x1000, 16);
    let snapshot = || vec![0b01u8; 16];

    let mut group = c.benchmark_group("concurrent_versions");
    group.throughput(Throughput::Elements(VERSIONS));

    // Uncontended lifecycle: one thread produces and consumes through the
    // shared table (lock, hash, insert, lock, hash, remove).
    group.bench_function("uncontended", |b| {
        b.iter(|| {
            let table = VersionTable::new(2);
            for r in 1..=VERSIONS {
                table.produce(vid(0, r), range, snapshot(), 1);
                black_box(table.consume(vid(0, r)));
            }
            black_box(table.outstanding())
        })
    });

    // Cross-thread hand-off: a producer thread publishes while the consumer
    // thread polls and consumes — the actual §5.5 threaded-replay shape
    // (consumer-side wait included).
    group.bench_function("handoff", |b| {
        b.iter(|| {
            let table = VersionTable::new(1);
            std::thread::scope(|scope| {
                let t = &table;
                scope.spawn(move || {
                    for r in 1..=VERSIONS {
                        t.produce(vid(0, r), range, snapshot(), 1);
                    }
                });
                scope.spawn(move || {
                    for r in 1..=VERSIONS {
                        loop {
                            if let Some(v) = t.consume(vid(0, r)) {
                                black_box(v);
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            });
            black_box(table.peak_outstanding())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_concurrent_replay,
    bench_lane_sweep,
    bench_concurrent_versions
);
criterion_main!(benches);
