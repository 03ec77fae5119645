//! Online, bounded-memory log ingestion through the streaming session seam.
//!
//! Captures a workload's event streams, compresses them to the codec wire
//! form, then monitors them three ways and checks all agree:
//!
//! 1. buffered `ReplaySource` (the baseline: whole streams in memory);
//! 2. `StreamingReplaySource` — decode-as-you-go from byte readers, one
//!    8 KiB transport chunk at a time — on the deterministic backend;
//! 3. the same streaming source on the real-thread backend;
//!
//! and finally drives a live session from a producer thread writing into a
//! `ByteFeed`, back-pressured on the session's buffered bytes the way
//! `paralogd`'s connection readers are. Run with `cargo run --release --example
//! streaming_ingestion`.

use paralog::core::session::DEFAULT_CHUNK_BYTES;
use paralog::core::{MonitorConfig, MonitoringMode, Platform};
use paralog::core::{MonitorSession, ReplaySource, StreamingReplaySource, ThreadedBackend};
use paralog::daemon::transport::{ByteFeed, SessionBuffer};
use paralog::events::codec::encode;
use paralog::events::{EventRecord, Instr, MemRef, Reg, Rid};
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, WorkloadSpec};
use std::sync::Arc;

fn main() {
    // 1. Capture + compress.
    let workload = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
        .scale(0.1)
        .build();
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let live = Platform::run(&workload, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
    println!(
        "captured {} records across {} threads -> {} wire bytes ({:.2} B/record)",
        live.records,
        streams.len(),
        wire_bytes,
        wire_bytes as f64 / live.records as f64
    );

    // 2. Buffered baseline.
    let buffered = MonitorSession::builder()
        .source(ReplaySource::new(streams, workload.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();

    // 3. Streaming, deterministic backend.
    let src = StreamingReplaySource::from_encoded(encoded.clone(), workload.heap);
    let stats = src.stats();
    let streamed = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    println!(
        "streamed (deterministic): fingerprint match: {}, peak decode residency {} B of {} wire B (chunk {} B)",
        streamed.metrics.fingerprint == buffered.metrics.fingerprint,
        stats.peak_buffered_bytes(),
        wire_bytes,
        DEFAULT_CHUNK_BYTES,
    );
    assert!(
        stats.peak_buffered_bytes() <= 2 * DEFAULT_CHUNK_BYTES,
        "residency blew the cap"
    );

    // 4. Streaming, real-thread backend.
    let src = StreamingReplaySource::from_encoded(encoded, workload.heap);
    let threaded = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    println!(
        "streamed (threaded)     : fingerprint match: {}, {} arc spins",
        threaded.metrics.fingerprint == buffered.metrics.fingerprint,
        threaded.metrics.dependence_stalls,
    );

    // 5. A live feed: the producer thread writes the wire bytes of a
    // 20 000-record stream into a `ByteFeed` and waits whenever the session
    // holds more than 4 KiB it has not read yet.
    const CAP: usize = 4096;
    let heap = workload.heap;
    let live: Vec<EventRecord> = (0..20_000u64)
        .map(|i| {
            EventRecord::instr(
                Rid(i + 1),
                Instr::Load {
                    dst: Reg::new((i % 8) as u8),
                    src: MemRef::new(heap.start + (i % 512) * 8, 8),
                },
            )
        })
        .collect();
    let wire = encode(&live);
    let total = Arc::new(SessionBuffer::default());
    let (writer, reader) = ByteFeed::pair(Arc::clone(&total));
    let producer = std::thread::spawn(move || {
        let mut waits = 0u32;
        for piece in wire.chunks(512) {
            while total.bytes() > CAP {
                waits += 1;
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            writer.write(piece);
        }
        // Dropping the writer ends the stream.
        waits
    });
    let online = MonitorSession::builder()
        .source(StreamingReplaySource::new(vec![Box::new(reader)], heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let waits = producer.join().expect("producer");
    println!(
        "live byte feed          : {} records monitored online, the producer waited {} times on the {} B cap",
        online.metrics.records, waits, CAP
    );
    let reference = MonitorSession::builder()
        .source(ReplaySource::new(vec![live], heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(online.metrics.records, reference.metrics.records);
    assert_eq!(online.metrics.fingerprint, reference.metrics.fingerprint);

    assert_eq!(streamed.metrics.fingerprint, buffered.metrics.fingerprint);
    assert_eq!(threaded.metrics.fingerprint, buffered.metrics.fingerprint);
    println!("\nall three ingestion paths agree on final metadata; memory stayed within the cap.");
}
