//! Microbenchmarks for the lifeguard concurrency layer.
//!
//! Two questions, answered on real OS threads:
//!
//! * **`concurrent_replay` / `memcheck_replay` / `lockset_replay` /
//!   `happensbefore_replay`** — what does the generic [`LockedConcurrent`]
//!   fallback's mutex cost each bundled analysis, versus the lock-free §5.3
//!   form its [`LifeguardKind`] resolves to? Each series replays identical
//!   fast-path-shaped per-thread streams through both forms; the ratio is
//!   the serialization tax quoted in the PR description / ROADMAP (AddrCheck
//!   for the IF class, MemCheck for the dataflow engine's propagation,
//!   LockSet and HappensBefore for the fast-path/slow-path race-detection
//!   class).
//! * **`concurrent_versions`** — what does the §5.5 produce→consume
//!   hand-off cost through the one mutex of [`VersionTable`], both
//!   uncontended (one thread doing the whole lifecycle, comparable with
//!   `bench_versions`' single-thread series) and as a genuine cross-thread
//!   hand-off with a polling consumer?
//!
//! [`LockedConcurrent`]: paralog_lifeguards::LockedConcurrent

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paralog_events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, LockId, MemRef, Reg, Rid,
    ThreadId, VersionId,
};
use paralog_lifeguards::{ConcurrentLifeguard, LifeguardFactory, LifeguardKind, LockedConcurrent};
use paralog_meta::VersionTable;

const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000_0000,
};

/// Records per thread and per iteration in the replay series.
const RECORDS: u64 = 4096;

/// One thread's arc-free, violation-free check stream: a malloc of its own
/// slab, then loads and stores inside it — the §5.3 fast-path shape where
/// the locked fallback's mutex is pure overhead.
fn check_stream(tid: u16) -> Vec<EventRecord> {
    let slab = AddrRange::new(HEAP.start + u64::from(tid) * 0x10_000, 0x8000);
    let mut recs = vec![EventRecord::ca(
        Rid(1),
        CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(slab),
            issuer: ThreadId(tid),
            issuer_rid: Rid(1),
            seq: u64::MAX, // own-stream record: no cross-thread ordering
        },
    )];
    for i in 0..RECORDS {
        let mem = MemRef::new(slab.start + (i * 16) % (slab.len - 8), 8);
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

/// One thread's lock-disciplined check stream for LOCKSET: acquire an own
/// lock, then loads and stores inside an exclusive slab — after the first
/// touch every access is the §5.3 fast path (same-thread `Exclusive`
/// re-access, a single load-acquire), where the locked fallback's mutex is
/// pure overhead.
fn lockset_stream(tid: u16) -> Vec<EventRecord> {
    // Data space well below the sync-object region.
    let slab = AddrRange::new(0x0100_0000 + u64::from(tid) * 0x10_000, 0x8000);
    let mut recs = vec![EventRecord::ca(
        Rid(1),
        CaRecord {
            what: HighLevelKind::Lock(LockId(u32::from(tid))),
            phase: CaPhase::End,
            range: None,
            issuer: ThreadId(tid),
            issuer_rid: Rid(1),
            seq: u64::MAX, // own-stream record: no cross-thread ordering
        },
    )];
    for i in 0..RECORDS {
        // 32-byte (8-granule) accesses — the memcpy/struct-sweep shape —
        // so each record is a run of Eraser state-machine checks: after the
        // first pass all of them are the §5.3 fast path (same-thread
        // `Exclusive` re-access), where the locked fallback still pays its
        // mutex plus the sequential handler's per-record bookkeeping.
        let mem = MemRef::new(slab.start + (i * 32) % (slab.len - 32), 32);
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

/// One thread's sync-disciplined check stream for HAPPENSBEFORE: one `Rmw`
/// on an own per-thread sync word establishes the thread's epoch, then loads
/// and stores inside an exclusive slab — after the first touch of each
/// granule every access is the §5.3 fast path (same-epoch re-access, a
/// single load-acquire), where the locked fallback's mutex is pure overhead.
fn happensbefore_stream(tid: u16) -> Vec<EventRecord> {
    let own_lock = paralog_lifeguards::lockset::SYNC_SPACE_START + u64::from(tid) * 64;
    // Data space well below the sync-object region.
    let slab = AddrRange::new(0x0100_0000 + u64::from(tid) * 0x10_000, 0x8000);
    let mut recs = vec![EventRecord::instr(
        Rid(1),
        Instr::Rmw {
            mem: MemRef::new(own_lock, 8),
            reg: Reg(0),
        },
    )];
    for i in 0..RECORDS {
        // 32-byte (8-granule) accesses — the memcpy/struct-sweep shape —
        // so each record is a run of FastTrack epoch checks: after the
        // first pass all of them are same-epoch re-accesses.
        let mem = MemRef::new(slab.start + (i * 32) % (slab.len - 32), 32);
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

/// Benchmarks one bundled analysis' lock-free form against the generic
/// [`LockedConcurrent`] wrapping of the same family, over identical
/// per-thread streams on real threads.
fn bench_lockfree_vs_locked(
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

        // The lock-free §5.3 form every session replays.
        let free = kind
            .concurrent(HEAP, threads)
            .expect("bundled kinds replay");
        group.bench_function(BenchmarkId::new("lockfree", threads), |b| {
            b.iter(|| {
                replay(&*free, &streams);
                black_box(free.fingerprint())
            })
        });

        // The generic mutex-serialized fallback this analysis used before
        // it graduated.
        // SAFETY: the bundled families are self-contained.
        let locked = unsafe { LockedConcurrent::new(kind.build(HEAP), threads) };
        group.bench_function(BenchmarkId::new("locked", threads), |b| {
            b.iter(|| {
                replay(&locked, &streams);
                black_box(locked.fingerprint())
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
        bench_lockfree_vs_locked(c, group, kind, stream);
    }
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

criterion_group!(benches, bench_concurrent_replay, bench_concurrent_versions);
criterion_main!(benches);
