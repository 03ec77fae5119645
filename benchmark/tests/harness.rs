//! Tiny-scale smoke tests of the harness itself: the numbers the benchmark
//! prints are only as good as its schedule, its record → due-time mapping,
//! its percentiles and its oracle checks.

use paralog::daemon::proto::{FrameEvent, FrameParser};
use paralog::events::{AddrRange, ArcKind, DependenceArc, EventRecord, Instr, Rid, ThreadId};
use paralog::lifeguards::LifeguardKind;
use paralog_benchmark::capture::{Capture, Oracle};
use paralog_benchmark::driver::{run_round, spawn_daemon, Endpoints, Pacing, PendingControl, Plan};
use paralog_benchmark::json::{self, Value};
use paralog_benchmark::report::{self, Better, Outcome, END_TO_END, PER_LAYER};
use paralog_benchmark::schedule::{peer_dependences, Schedule};
use paralog_benchmark::stats::{geomean, median, percentile};
use paralog_benchmark::trace::Tracer;
use paralog_benchmark::workloads::{self, capture_apps, App};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `name`'s applications from `seed`, shortened to 1 % of their length.
fn tiny_apps(name: &str, seed: u64, frame_records: usize) -> Vec<App> {
    shrunk_apps(name, seed, frame_records, 0.01)
}

fn shrunk_apps(name: &str, seed: u64, frame_records: usize, shrink: f64) -> Vec<App> {
    let def = workloads::find(name).expect("workload exists");
    let specs = def
        .specs(seed)
        .into_iter()
        .map(|spec| spec.scale(shrink))
        .collect();
    capture_apps(specs, def.lifeguard, frame_records, &mut Tracer::disabled())
        .expect("tiny co-simulation matches its reference")
}

#[test]
fn schedule_is_causal_and_covers_every_byte_once() {
    for name in ["taint_sat", "race_sat", "arc_storm", "cosim_fig6"] {
        for app in tiny_apps(name, 3, 64) {
            let Plan {
                capture,
                schedule,
                frames,
            } = &app.plan;
            let threads = capture.threads();
            // Rounds only ever move forward and end at the streams' lengths.
            let mut sent = vec![0usize; threads];
            for end in &schedule.ends {
                assert!((0..threads).all(|t| end[t] >= sent[t] && end[t] - sent[t] <= 64));
                assert_ne!(end, &sent, "every round sends something");
                // No record waits on a peer record of a later round.
                for t in 0..threads {
                    for i in sent[t]..end[t] {
                        for (src, rid) in peer_dependences(&capture.streams[t][i], t) {
                            if let Some(index) = capture.index_of(src, rid) {
                                assert!(index < end[src], "{name}: {t}:{i} waits on {src}:{index}");
                            }
                        }
                    }
                }
                sent.clone_from(end);
            }
            let lengths: Vec<usize> = capture.streams.iter().map(Vec::len).collect();
            assert_eq!(sent, lengths);
            // The rounds' payloads tile each thread's wire bytes exactly.
            let mut offset = vec![0usize; threads];
            for ranges in schedule.payload_ranges(capture) {
                for (t, range) in ranges.into_iter().enumerate() {
                    assert_eq!(range.start, offset[t]);
                    offset[t] = range.end;
                }
            }
            let wire_lengths: Vec<usize> = capture.wire.iter().map(Vec::len).collect();
            assert_eq!(offset, wire_lengths);
            // And the rendered frames parse back to those same bytes.
            let mut parsed = vec![Vec::new(); threads];
            let mut parser = FrameParser::new();
            for frame in frames {
                parser
                    .feed(frame, |event| match event {
                        FrameEvent::Data { tid, payload } => {
                            parsed[tid as usize].extend_from_slice(payload)
                        }
                        other => panic!("unexpected {other:?}"),
                    })
                    .expect("rendered frames parse");
            }
            assert!(parser.at_boundary());
            assert_eq!(parsed, capture.wire);
        }
    }
}

/// Two threads; `t1`'s second record waits on `t0`'s fifth.
fn hand_built() -> Capture {
    let nop = |rid| EventRecord::instr(Rid(rid), Instr::Nop);
    let t0: Vec<EventRecord> = (1..=6).map(nop).collect();
    // Thread 1's ids start at 10: the mapping must not assume a base of 1.
    let mut t1: Vec<EventRecord> = (10..=13).map(nop).collect();
    t1[1]
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(5), ArcKind::Raw));
    Capture::encode(
        "hand-built".into(),
        LifeguardKind::TaintCheck,
        AddrRange::new(0x1000, 0x1000),
        vec![t0, t1],
        Oracle {
            records: 10,
            violations: 0,
            fingerprint: 0,
        },
    )
}

#[test]
fn record_to_round_mapping_on_a_hand_built_capture() {
    let capture = hand_built();
    let schedule = Schedule::causal(&capture, 2);
    // t1 is held at one record until the round that carries t0's fifth.
    assert_eq!(
        schedule.ends,
        vec![vec![2, 1], vec![4, 1], vec![6, 3], vec![6, 4]]
    );
    assert_eq!(capture.index_of(1, 11), Some(1));
    assert_eq!(capture.index_of(1, 9), None, "below the stream's first id");
    assert_eq!(capture.index_of(1, 14), None, "past the stream's last id");
    assert_eq!(schedule.round_of(0, 0), 0);
    assert_eq!(schedule.round_of(0, 4), 2);
    assert_eq!(schedule.round_of(1, 0), 0);
    assert_eq!(
        schedule.round_of(1, 1),
        2,
        "the gated record goes out with its source"
    );
    assert_eq!(schedule.round_of(1, 3), 3);
    assert_eq!(schedule.records_through(0), 3);
    assert_eq!(schedule.records_through(3), 10);
    // Frame rounds with nothing for a thread carry no frame for it.
    let frames = schedule.render(&capture);
    let mut tids = Vec::new();
    FrameParser::new()
        .feed(&frames[1], |event| {
            if let FrameEvent::Data { tid, .. } = event {
                tids.push(tid);
            }
        })
        .unwrap();
    assert_eq!(tids, vec![0]);
}

#[test]
fn order_statistics() {
    let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&mut samples, 50.0), 50.0);
    assert_eq!(percentile(&mut samples, 90.0), 90.0);
    assert_eq!(percentile(&mut samples, 99.0), 99.0);
    assert_eq!(percentile(&mut samples, 100.0), 100.0);
    assert_eq!(percentile(&mut [7.0], 90.0), 7.0);
    assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 50.0), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
}

#[test]
fn same_seed_gives_identical_wire_bytes() {
    // Per application: its wire streams, then its rendered frame rounds.
    let bytes = |seed| -> Vec<Vec<Vec<u8>>> {
        tiny_apps("cosim_fig6", seed, 256)
            .into_iter()
            .flat_map(|app| [app.plan.capture.wire, app.plan.frames])
            .collect()
    };
    let first = bytes(11);
    assert_eq!(first, bytes(11));
    assert_ne!(first, bytes(12), "the seed must reach the generator");
}

#[test]
fn spans_nest_and_self_time_excludes_children() {
    let mut tracer = Tracer::enabled();
    let outer = tracer.enter("outer", 1);
    let inner = tracer.enter("inner", 1);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tracer.exit(inner);
    tracer.exit(outer);
    let spans = tracer.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[0].parent, None);
    let own = tracer.self_times();
    let total = spans[0].end_ns - spans[0].start_ns;
    assert_eq!(own["outer"] + own["inner"], total);
    assert!(own["inner"] >= 2_000_000);
    // A disabled tracer records nothing and still times.
    let mut off = Tracer::disabled();
    let ((), seconds) = off.timed("x", 0, || {
        std::thread::sleep(std::time::Duration::from_millis(1))
    });
    assert!(seconds >= 0.001 && off.spans().is_empty());
}

fn socket_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_round_through_the_daemon_meets_its_oracle_and_a_wrong_oracle_fails_it() {
    // Long enough that the capture still holds tainted jumps to report.
    let mut app = shrunk_apps("taint_sat", 5, 128, 0.1).pop().unwrap();
    let daemon = spawn_daemon(&socket_dir("round")).expect("daemon spawns");
    let endpoints = Endpoints::of(&daemon);
    let control = || {
        PendingControl::open(&endpoints.control)
            .and_then(PendingControl::ready)
            .expect("control connects")
    };
    let mut tracer = Tracer::enabled();
    for pacing in [Pacing::Saturate, Pacing::Rate(200_000.0)] {
        let round = run_round(&endpoints, &app.plan, pacing, control(), &mut tracer, 1);
        assert_eq!(round.failure, None);
        assert_eq!(round.records, app.plan.capture.oracle.records);
        assert_eq!(round.detect_ms.len(), app.plan.capture.oracle.violations);
        assert!(
            !round.detect_ms.is_empty(),
            "the capture still has violations"
        );
        assert_eq!(
            round.late_ms.len(),
            if pacing == Pacing::Saturate {
                0
            } else {
                app.plan.frames.len()
            }
        );
        assert!(round.wall_s > 0.0 && round.drain_ms >= 0.0);
    }
    assert!(tracer.self_times().contains_key("daemon.send"));

    app.plan.capture.oracle.fingerprint ^= 1;
    let round = run_round(
        &endpoints,
        &app.plan,
        Pacing::Saturate,
        control(),
        &mut tracer,
        2,
    );
    let reason = round
        .failure
        .expect("a wrong fingerprint must fail the round");
    assert!(reason.contains("oracle mismatch"), "{reason}");
    assert!(!round.stuck);
    daemon.shutdown();
}

#[test]
fn a_daemon_that_drops_the_feed_fails_the_round_without_hanging() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixListener;

    let app = tiny_apps("taint_sat", 5, 128).pop().unwrap();
    let dir = socket_dir("fake");
    let endpoints = Endpoints {
        data: dir.join("data.sock"),
        control: dir.join("ctl.sock"),
    };
    let _ = std::fs::remove_file(&endpoints.data);
    let _ = std::fs::remove_file(&endpoints.control);
    let data = UnixListener::bind(&endpoints.data).unwrap();
    let control = UnixListener::bind(&endpoints.control).unwrap();
    std::thread::scope(|scope| {
        // Accepts the attach, then never reads a frame.
        let producer_side = scope.spawn(move || {
            let (stream, _) = data.accept().unwrap();
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).unwrap();
            assert!(line.starts_with("PARALOG ATTACH v1"));
            (&stream).write_all(b"OK 7\n").unwrap();
            stream
        });
        // Answers PING, then hangs up on WATCH.
        scope.spawn(move || {
            let (stream, _) = control.accept().unwrap();
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "PING\n");
            (&stream).write_all(b"OK pong\n.\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "WATCH 7\n");
        });
        let ready = PendingControl::open(&endpoints.control)
            .and_then(PendingControl::ready)
            .expect("the fake answers PING");
        let round = run_round(
            &endpoints,
            &app.plan,
            Pacing::Saturate,
            ready,
            &mut Tracer::disabled(),
            1,
        );
        assert_eq!(round.session_id, 7);
        let reason = round.failure.expect("a dropped feed fails the round");
        assert!(reason.contains("feed closed"), "{reason}");
        drop(producer_side.join().unwrap());
    });
}

#[test]
fn disturbed_rounds_are_checked_but_not_timed() {
    use paralog_benchmark::driver::Round;
    use paralog_benchmark::workloads::Window;
    let round = |app, drain_ms, stolen| Round {
        app,
        drain_ms,
        jiffies: (stolen, 100),
        ..Round::default()
    };
    let window = Window {
        rounds: vec![
            // Application 0: the round that lost 5 % of the machine is left out.
            round(0, 10.0, 0),
            round(0, 12.0, 1),
            round(0, 90.0, 5),
            // Application 1: every round was disturbed, so the calmest
            // quarter of them counts, which of two rounds is one.
            round(1, 50.0, 9),
            round(1, 30.0, 2),
            Round {
                failure: Some("lost".into()),
                ..round(1, 1.0, 0)
            },
        ],
    };
    assert_eq!((window.attempted(), window.failed()), (6, 1));
    assert_eq!(window.disturbed_rounds(), 2);
    // Mean over the applications of their medians: (11 + 30) / 2, over 3 rounds.
    assert_eq!(window.typical(|r| r.drain_ms), Some((20.5, 3)));
    assert_eq!(Window::default().typical(|r| r.drain_ms), None);
}

fn outcome(records_per_s: f64) -> Outcome {
    let mut metrics = BTreeMap::new();
    metrics.insert("records_per_s", records_per_s);
    metrics.insert("drain_ms", 40.0);
    Outcome {
        workload: "taint_sat",
        seed: 1,
        seconds: 10.0,
        trace: false,
        attempted: 80,
        failed: 0,
        metrics,
        samples: BTreeMap::from([("drain_ms", 80)]),
        notes: Vec::new(),
    }
}

#[test]
fn result_files_parse_and_compare_applies_the_bounds() {
    let machine = report::Machine::detect();
    let line = json::parse(&outcome(5e6).contract_line()).expect("contract line is JSON");
    let Value::Object(keys) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("metrics")
            .and_then(|m| m.get("records_per_s"))
            .and_then(|m| m.get("unit"))
            .and_then(Value::as_str),
        Some("records/s")
    );

    let base = outcome(5e6).result_file(&machine);
    assert!(json::parse(&base).unwrap().get("machine").is_some());
    // 12 % slower is inside records_per_s's 25 % bound; 30 % is not.
    let (_, pass) = report::compare(&base, &outcome(4.4e6).result_file(&machine)).unwrap();
    assert!(pass);
    let (text, pass) = report::compare(&base, &outcome(3.5e6).result_file(&machine)).unwrap();
    assert!(!pass && text.contains("REGRESSED"));
    // Faster is never a regression.
    assert!(
        report::compare(&base, &outcome(9e6).result_file(&machine))
            .unwrap()
            .1
    );
    // A failed run never passes.
    let mut failed = outcome(5e6);
    failed.failed = 1;
    assert!(
        !report::compare(&base, &failed.result_file(&machine))
            .unwrap()
            .1
    );
}

#[test]
fn benchmark_json_mirrors_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON");
    let array = |key: &str| match spec.get(key) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let listed: Vec<(String, String)> = array("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let defined: Vec<(String, String)> = workloads::ALL
        .iter()
        .map(|d| (d.name.to_string(), d.why.to_string()))
        .collect();
    assert_eq!(listed, defined);
    assert!(defined.iter().all(|(_, why)| why.len() <= 200));

    let listed: Vec<(String, String, String, f64)> = array("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let defined: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.into(),
                m.unit.into(),
                m.better.as_str().into(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(listed, defined);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));

    let listed: Vec<(String, String, String)> = array("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let defined: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.0.into(), m.1.into(), m.2.as_str().into()))
        .collect();
    assert_eq!(listed, defined);
}
