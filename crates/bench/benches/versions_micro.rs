//! Microbenchmark for the flat two-level `VersionTable`.
//!
//! Measures the §5.5 produce→consume lifecycle — windowed churn (the shape
//! a TSO drain produces: versions retire a few records after they are
//! published), availability polling, and the consume-miss/bypass path —
//! against a `naive` baseline reimplementing the seed's `HashMap`-keyed
//! table verbatim. The ratio between the two series is the satellite
//! speedup quoted in the PR description.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paralog_events::{AddrRange, Rid, ThreadId, VersionId};
use paralog_meta::{ConcurrentVersionTable, VersionTable};
use std::collections::HashMap;

/// The seed's version table: `HashMap` keyed by the full `VersionId`.
/// Kept here as the before/after baseline.
#[derive(Default)]
struct NaiveVersionTable {
    entries: HashMap<VersionId, (AddrRange, Vec<u8>, u32)>,
    bypassed: HashMap<VersionId, u32>,
}

impl NaiveVersionTable {
    fn produce(&mut self, id: VersionId, range: AddrRange, snapshot: Vec<u8>, consumers: u32) {
        let already = self.bypassed.remove(&id).unwrap_or(0);
        let remaining = consumers.saturating_sub(already);
        if remaining == 0 {
            return;
        }
        self.entries.insert(id, (range, snapshot, remaining));
    }

    fn bypass(&mut self, id: VersionId) {
        *self.bypassed.entry(id).or_insert(0) += 1;
    }

    fn is_available(&self, id: VersionId) -> bool {
        self.entries.contains_key(&id)
    }

    fn consume(&mut self, id: VersionId) -> Option<(AddrRange, Vec<u8>)> {
        let entry = self.entries.get_mut(&id)?;
        entry.2 -= 1;
        if entry.2 == 0 {
            let (range, bytes, _) = self.entries.remove(&id).expect("present");
            Some((range, bytes))
        } else {
            Some((entry.0, entry.1.clone()))
        }
    }
}

const THREADS: u16 = 4;
const OPS: u64 = 4096;
/// Outstanding window between produce and consume (§5.5 drains are short).
const WINDOW: u64 = 32;

fn vid(t: u16, r: u64) -> VersionId {
    VersionId {
        consumer: ThreadId(t),
        consumer_rid: Rid(r),
    }
}

/// Windowed produce→consume churn across `THREADS` consumer threads:
/// `op(id, true)` publishes, `op(id, false)` retires.
fn churn(op: &mut impl FnMut(VersionId, bool)) {
    for r in 1..=OPS {
        for t in 0..THREADS {
            op(vid(t, r), true);
            if r > WINDOW {
                op(vid(t, r - WINDOW), false);
            }
        }
    }
    for r in (OPS - WINDOW + 1).max(1)..=OPS {
        for t in 0..THREADS {
            op(vid(t, r), false);
        }
    }
}

fn bench_versions(c: &mut Criterion) {
    let snapshot = || vec![0b01u8; 16];
    let range = AddrRange::new(0x1000, 16);

    let mut group = c.benchmark_group("versions_churn");
    group.throughput(Throughput::Elements(OPS * u64::from(THREADS)));
    group.bench_function(BenchmarkId::new("flat", WINDOW), |b| {
        b.iter(|| {
            let mut table = VersionTable::new();
            churn(&mut |id, produce| {
                if produce {
                    table.produce(id, range, snapshot(), 1);
                } else {
                    black_box(table.consume(id));
                }
            });
            black_box(table.peak_outstanding())
        })
    });
    group.bench_function(BenchmarkId::new("naive", WINDOW), |b| {
        b.iter(|| {
            let mut table = NaiveVersionTable::default();
            churn(&mut |id, produce| {
                if produce {
                    table.produce(id, range, snapshot(), 1);
                } else {
                    black_box(table.consume(id));
                }
            });
            black_box(table.entries.len())
        })
    });
    group.finish();

    // Availability polling: the consumer side's stall loop re-checks the
    // same id until the producer publishes (the hot read).
    let mut group = c.benchmark_group("versions_poll");
    group.throughput(Throughput::Elements(OPS));
    let mut flat = VersionTable::new();
    let mut naive = NaiveVersionTable::default();
    for t in 0..THREADS {
        for r in 1..=WINDOW {
            flat.produce(vid(t, r), range, snapshot(), 1);
            naive.produce(vid(t, r), range, snapshot(), 1);
        }
    }
    group.bench_function("flat", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for r in 1..=OPS {
                hits += u64::from(flat.is_available(vid((r % 4) as u16, r % (WINDOW * 2) + 1)));
            }
            black_box(hits)
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for r in 1..=OPS {
                hits += u64::from(naive.is_available(vid((r % 4) as u16, r % (WINDOW * 2) + 1)));
            }
            black_box(hits)
        })
    });
    group.finish();

    // Epoch reclamation's cost on a chunk-striding sweep (one version per
    // dense chunk, the worst allocation rate per op): drained chunks are
    // freed at each simulated batch boundary and spares reused. The soak
    // suite pins the residency bound itself.
    const SWEEP_CHUNKS: u64 = 1024;
    const SWEEP_EPOCH: u64 = 64;
    let mut group = c.benchmark_group("versions_reclamation");
    group.throughput(Throughput::Elements(SWEEP_CHUNKS));
    group.bench_function("reclaim_on", |b| {
        b.iter(|| {
            let table = ConcurrentVersionTable::new(1);
            for c in 0..SWEEP_CHUNKS {
                let id = vid(0, c * ConcurrentVersionTable::CHUNK_RIDS + 1);
                table.produce(id, range, snapshot(), 1);
                black_box(table.consume(id));
                if c % SWEEP_EPOCH == 0 {
                    table.advance_epoch(ThreadId(0));
                }
            }
            black_box(table.peak_dense_resident())
        })
    });
    group.finish();

    // Bypass-heavy runs: every consumer outruns its producer (§5.5 without
    // the stall), the worst case for table occupancy bookkeeping.
    let mut group = c.benchmark_group("versions_bypass");
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("flat", |b| {
        b.iter(|| {
            let mut table = VersionTable::new();
            for r in 1..=OPS {
                let id = vid(0, r);
                table.bypass(id);
                table.produce(id, range, snapshot(), 1);
            }
            black_box(table.outstanding())
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut table = NaiveVersionTable::default();
            for r in 1..=OPS {
                let id = vid(0, r);
                table.bypass(id);
                table.produce(id, range, snapshot(), 1);
            }
            black_box(table.entries.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_versions);
criterion_main!(benches);
