//! `paralog-benchmark`: one command that generates a workload from a seed,
//! drives `paralogd` (or the co-simulation) with it, checks every result
//! against an oracle and prints every metric.
//!
//! ```text
//! paralog-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! paralog-benchmark --compare <baseline.json> <candidate.json>
//! ```

use paralog::daemon::Daemon;
use paralog_benchmark::driver::{spawn_daemon, Endpoints, Round};
use paralog_benchmark::layers::{measure_offline, sample_status};
use paralog_benchmark::report::{self, Machine, Outcome};
use paralog_benchmark::stats::{geomean, median, percentile};
use paralog_benchmark::trace::Tracer;
use paralog_benchmark::workloads::{self, prepare, run_window, warm_up, App, Definition, Window};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: &'static Definition,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|d| d.name).collect();
    format!(
        "usage: paralog-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         paralog-benchmark --compare <baseline.json> <candidate.json>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where sockets, traces and result files go: `out/` beside this package's
/// sources, addressed relative to the working directory so socket paths stay
/// within `sun_path`'s ~100 bytes however deep the checkout sits.
fn out_dir() -> std::io::Result<PathBuf> {
    let dir = if Path::new("benchmark/src").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One complete set-up: generate, co-simulate, encode, schedule, spawn the
/// daemon and stream the warm-up rounds.
fn set_up(
    def: &Definition,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(Vec<App>, Daemon), String> {
    let apps = prepare(def, seed, tracer)?;
    let daemon = spawn_daemon(dir).map_err(|e| format!("daemon spawn: {e}"))?;
    warm_up(&apps, &Endpoints::of(&daemon))?;
    Ok((apps, daemon))
}

/// Geometric means over the applications' set-up co-simulations.
fn simulated(apps: &[App]) -> (f64, f64) {
    let slowdowns: Vec<f64> = apps.iter().map(|a| a.cosim.slowdown_parallel()).collect();
    let speedups: Vec<f64> = apps
        .iter()
        .map(|a| a.cosim.speedup_vs_timesliced())
        .collect();
    (geomean(&slowdowns), geomean(&speedups))
}

/// The 90th percentile of one round's detect latencies.
fn p90_ms(round: &Round) -> f64 {
    percentile(&mut round.detect_ms.clone(), 90.0)
}

fn report_failures(window: &Window) {
    for reason in window.failures() {
        eprintln!("FAILED: {reason}");
    }
}

fn run_untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let def = args.workload;
    let mut tracer = Tracer::disabled();
    // Each repeat sets up from scratch (fresh captures, fresh daemon) and
    // then measures its share of the window, so neither `setup_s` nor the
    // window's numbers hang on one heap layout or one daemon's thread
    // placement.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut window = Window::default();
    let mut simulated_ratios = None;
    let mut simulated_cycles: Option<Vec<[u64; 3]>> = None;
    let mut peak_rss_mb = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (apps, daemon) = set_up(def, args.seed, dir, &mut tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        window.absorb(run_window(
            &apps,
            &Endpoints::of(&daemon),
            def.pacing,
            args.seconds / SETUP_REPEATS as f64,
            &mut tracer,
        ));
        daemon.shutdown();
        simulated_ratios = Some(simulated(&apps));
        // Simulated time is a function of the seed alone: however fast the
        // host ran this repeat, the cycles must be the first repeat's.
        let cycles: Vec<[u64; 3]> = apps.iter().map(|app| app.cosim.cycles()).collect();
        if simulated_cycles
            .as_ref()
            .is_some_and(|first| *first != cycles)
        {
            return Err(format!(
                "simulated cycles {cycles:?} differ between set-ups of one seed"
            ));
        }
        simulated_cycles = Some(cycles);
        // The high-water mark of the first repeat only: each later one
        // ratchets it by however much freed memory the allocator kept,
        // which differs from run to run.
        if peak_rss_mb.is_none() {
            peak_rss_mb = report::peak_rss_mb();
        }
    }
    report_failures(&window);

    let nothing = || "no round succeeded, so there is nothing to report".to_string();
    let mut metrics = BTreeMap::new();
    let mut samples = BTreeMap::new();
    let mut notes = Vec::new();
    notes.push(("bench.cpu_stolen_ratio", "ratio", window.cpu_stolen_ratio()));
    notes.push((
        "bench.disturbed_rounds",
        "count",
        window.disturbed_rounds() as f64,
    ));
    metrics.insert(
        "records_per_s",
        window.streamed_records_per_s().ok_or_else(nothing)?,
    );
    let mut detect = window.detect_ms();
    if detect.is_empty() {
        return Err("no violation was reported, so there is no latency to report".into());
    }
    let (p50, _) = window
        .typical(|r| percentile(&mut r.detect_ms.clone(), 50.0))
        .ok_or_else(nothing)?;
    metrics.insert("detect_latency_p50_ms", p50);
    samples.insert("detect_latency_p50_ms", detect.len());
    // The tail is a diagnostic, not a gate: where the hypervisor withholds
    // a tenth of the processors' time, a tenth of the samples measure that.
    notes.push((
        "bench.detect_latency_p90_ms",
        "ms",
        window.typical(p90_ms).ok_or_else(nothing)?.0,
    ));
    notes.push((
        "bench.detect_latency_p99_ms",
        "ms",
        percentile(&mut detect, 99.0),
    ));
    notes.push((
        "bench.detect_latency_max_ms",
        "ms",
        percentile(&mut detect, 100.0),
    ));
    let mut late = window.late_ms();
    if !late.is_empty() {
        notes.push((
            "bench.generator_late_p99_ms",
            "ms",
            percentile(&mut late, 99.0),
        ));
    }
    let (drain_ms, rounds) = window.typical(|r| r.drain_ms).ok_or_else(nothing)?;
    metrics.insert("drain_ms", drain_ms);
    samples.insert("drain_ms", rounds);
    metrics.insert("setup_s", median(&mut setup_s));
    samples.insert("setup_s", setup_s.len());
    metrics.insert(
        "peak_rss_mb",
        peak_rss_mb.ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    let (slowdown, speedup) = simulated_ratios.expect("SETUP_REPEATS is at least one");
    metrics.insert("sim_slowdown_parallel", slowdown);
    metrics.insert("sim_speedup_vs_timesliced", speedup);
    Ok(Outcome {
        workload: def.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        attempted: window.attempted(),
        failed: window.failed(),
        metrics,
        samples,
        notes,
    })
}

fn run_traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let def = args.workload;
    let mut tracer = Tracer::enabled();
    let (apps, daemon) = set_up(def, args.seed, dir, &mut tracer)?;
    let endpoints = Endpoints::of(&daemon);
    let mut metrics = measure_offline(&apps, &mut tracer)?;

    // Four daemon windows of an eighth of the time each, tracing off-on-on-off
    // so drift over the run cancels; the throughput ratio of the traced to
    // the untraced pair is the tracing overhead. A STATUS sampler runs
    // beside the traced windows only.
    let slice = args.seconds / 8.0;
    let window = |tracer: &mut Tracer| run_window(&apps, &endpoints, def.pacing, slice, tracer);
    let sampled = |tracer: &mut Tracer, first_id: u64| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| sample_status(&endpoints.control, first_id, &stop));
            let traced = window(tracer);
            stop.store(true, Ordering::Release);
            (traced, sampler.join().expect("status sampler panicked"))
        })
    };
    let next_id = |w: &Window| w.rounds.last().map_or(1, |r| r.session_id + 1);
    let mut untraced = window(&mut Tracer::disabled());
    let (mut traced, mut status) = sampled(&mut tracer, next_id(&untraced));
    let (more, more_status) = sampled(&mut tracer, next_id(&traced));
    traced.absorb(more);
    status.absorb(more_status);
    untraced.absorb(window(&mut Tracer::disabled()));
    daemon.shutdown();
    report_failures(&untraced);
    report_failures(&traced);

    let nothing = || "no round succeeded, so there is nothing to report".to_string();
    let typical = |window: &Window, field: fn(&Round) -> f64| {
        window
            .typical(field)
            .map(|(value, _)| value)
            .ok_or_else(nothing)
    };
    let (traced_rate, rounds) = traced
        .typical(|r| r.records as f64 / r.wall_s)
        .ok_or_else(nothing)?;
    let untraced_rate = untraced.streamed_records_per_s().ok_or_else(nothing)?;
    let mut detect = traced.detect_ms();
    if detect.is_empty() {
        return Err("no violation was reported, so there is no latency to report".into());
    }
    metrics.insert("daemon.attach_ms", typical(&traced, |r| r.attach_ms)?);
    metrics.insert(
        "daemon.send_blocked_ms",
        typical(&traced, |r| r.send_blocked_ms)?,
    );
    metrics.insert(
        "daemon.blocked_polls",
        status.blocked_polls.values().sum::<u64>() as f64
            / status.blocked_polls.len().max(1) as f64,
    );
    metrics.insert(
        "daemon.buffered_bytes_peak",
        status.buffered_bytes_peak as f64,
    );
    metrics.insert(
        "daemon.watch_lines_lost",
        traced
            .rounds
            .iter()
            .map(|r| r.watch_lines_lost)
            .sum::<u64>() as f64,
    );
    metrics.insert(
        "daemon.residual_ns_per_record",
        1e9 / traced_rate - metrics["core.coop.wire_ns_per_record"],
    );
    metrics.insert(
        "lifeguards.violations_per_round",
        detect.len() as f64 / rounds as f64,
    );
    let mut late = traced.late_ms();
    metrics.insert(
        "bench.generator_late_p99_ms",
        if late.is_empty() {
            0.0
        } else {
            percentile(&mut late, 99.0)
        },
    );
    metrics.insert("bench.detect_latency_p90_ms", typical(&traced, p90_ms)?);
    metrics.insert("bench.detect_latency_p99_ms", percentile(&mut detect, 99.0));
    metrics.insert(
        "bench.detect_latency_max_ms",
        percentile(&mut detect, 100.0),
    );
    metrics.insert("bench.trace_overhead_ratio", traced_rate / untraced_rate);

    let path = dir.join(format!("trace-{}.jsonl", def.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut notes = Vec::new();
    for (name, ns) in tracer.self_times() {
        notes.push((name, "self_ms", ns as f64 / 1e6));
    }
    let mut samples = BTreeMap::new();
    samples.insert("bench.detect_latency_p99_ms", detect.len());
    Ok(Outcome {
        workload: def.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: true,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        metrics,
        samples,
        notes,
    })
}

fn compare(baseline: &str, candidate: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (report, pass) = report::compare(&read(baseline)?, &read(candidate)?)?;
    print!("{report}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, baseline, candidate] => match compare(baseline, candidate) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = out_dir()
        .map_err(|e| format!("out directory: {e}"))
        .and_then(|dir| {
            let outcome = if args.trace {
                run_traced(&args, &dir)
            } else {
                run_untraced(&args, &dir)
            }?;
            let path = dir.join(format!(
                "result-{}-seed{}-trace{}.json",
                outcome.workload,
                outcome.seed,
                u8::from(outcome.trace)
            ));
            std::fs::write(&path, outcome.result_file(&Machine::detect()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(outcome)
        });
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.lines());
            println!("{}", outcome.contract_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
