//! The five workloads: what each generates from the seed, why it exists,
//! and the measured window all of them share.
//!
//! Every workload has the same shape. Set-up generates its applications
//! from the seed, co-simulates each under the three monitoring modes (the
//! parallel run is the capture and the oracle), encodes and schedules the
//! capture, spawns the daemon and streams one discarded warm-up round. The
//! measured window then repeats *passes*: one round per application, each a
//! fresh session through the daemon's real sockets.

use crate::capture::{cosimulate, Capture, CoSim};
use crate::driver::{run_round, Endpoints, Pacing, PendingControl, Plan, Round};
use crate::stats::median;
use crate::trace::Tracer;
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, InstrMix, Workload, WorkloadSpec};
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug)]
pub struct Definition {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The analysis captured and replayed.
    pub lifeguard: LifeguardKind,
    /// Records per thread per frame round.
    pub frame_records: usize,
    /// Closed loop at saturation, or open loop at a fixed rate.
    pub pacing: Pacing,
    specs: fn(u64) -> Vec<WorkloadSpec>,
}

/// Ocean rather than Barnes: Barnes x2's simulated lifeguard stalls swing
/// its slowdown by +-8 % from seed to seed at any affordable scale, Ocean
/// x2's by +-1 %, and the daemon sees the same shape from either (one
/// dependence arc per ~2800 records, a few hundred tainted jumps a round).
fn ocean_tainted(seed: u64) -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::benchmark(Benchmark::Ocean, 2)
        .scale(12.0)
        .inject_bugs(true)
        .seed(seed)]
}

/// [`ocean_tainted`] at a quarter of the length, so that at the paced rate a
/// round lasts ~0.35 s and a window holds ~28 of them, with fresh input
/// every ~200 slots and twice the indirect jumps. Plain Ocean reports its
/// ~60 violations from an eighth of its frame rounds (only while the one
/// input buffer is still tainted), so a single late frame round moved a
/// round's 90th percentile threefold; this one reports ~400, from more than
/// four frame rounds in five, and one late frame round is 1 % of them.
fn ocean_tainted_dense(seed: u64) -> Vec<WorkloadSpec> {
    let mut spec = WorkloadSpec::benchmark(Benchmark::Ocean, 2)
        .scale(3.0)
        .inject_bugs(true)
        .syscall_rate(0.005)
        .seed(seed);
    spec.mix.indirect_jump = 0.02;
    vec![spec]
}

/// Fluidanimate's fine-grained locking with its shared accesses piled onto
/// a few hot words: ~13 dependence arcs per thousand records (36x
/// [`ocean_tainted`]) and ~600 distinct racy words for LOCKSET to report.
/// LOCKSET rather than HAPPENSBEFORE, and a skew that keeps the reports in
/// the hundreds, because of two things the daemon does today (FINDINGS.md):
/// vector-clock churn trips a panic in the wide-metadata interner about
/// once in several hundred rounds, and a round that reports thousands of
/// violations can outrun the live feed's 1024-line buffer and lose lines.
fn fluid_racy(seed: u64) -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::benchmark(Benchmark::Fluidanimate, 2)
        .scale(20.0)
        .zipf(1.5)
        .race_rate(0.001)
        .seed(seed)]
}

/// Three threads doing little but copy through one shared word, kept in
/// step by a barrier every 200 slots: nearly every record is a coherence
/// conflict with a peer's, so the capture carries ~1 dependence arc per
/// record (~2700x [`ocean_tainted`]) and lanes gate on each other constantly.
/// The barriers are what make the arc density the same for every seed;
/// without them it swings 2x with the interleaving the seed happens to give.
fn arc_storm(seed: u64) -> Vec<WorkloadSpec> {
    let mut spec = WorkloadSpec::benchmark(Benchmark::Barnes, 3)
        .scale(5.0)
        .inject_bugs(true)
        .seed(seed);
    spec.name = "ArcStorm".into();
    spec.mix = InstrMix {
        load_compute_store: 0.0,
        copy: 0.88,
        compute: 0.0,
        pointer_chase: 0.0,
        load_use: 0.10,
        indirect_jump: 0.02,
    };
    spec.shared_words = 1;
    spec.shared_fraction = 1.0;
    spec.shared_write_fraction = 0.5;
    spec.locks = 0;
    spec.lock_every = None;
    spec.barrier_every = Some(200);
    vec![spec]
}

/// The paper's Figure 6 sample: two 2-thread and two 4-thread benchmarks.
fn fig6(seed: u64) -> Vec<WorkloadSpec> {
    [
        (Benchmark::Barnes, 2),
        (Benchmark::Swaptions, 2),
        (Benchmark::Lu, 4),
        (Benchmark::Fluidanimate, 4),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (bench, threads))| {
        WorkloadSpec::benchmark(bench, threads)
            .scale(8.0)
            .inject_bugs(true)
            .seed(seed.wrapping_add(i as u64))
    })
    .collect()
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Definition; 5] = [
    Definition {
        name: "taint_sat",
        why: "sparse arcs at saturation: frame parse, decode and byte-shadow analysis do the work, so events and daemon transport gains show here",
        lifeguard: LifeguardKind::TaintCheck,
        frame_records: 4096,
        pacing: Pacing::Saturate,
        specs: ocean_tainted,
    },
    Definition {
        name: "race_sat",
        why: "lockset on a skewed racy app: 36x denser arcs, lock and barrier records, the word-table wide tier with interned lock masks; taint_sat's layers used differently",
        lifeguard: LifeguardKind::LockSet,
        frame_records: 4096,
        pacing: Pacing::Saturate,
        specs: fluid_racy,
    },
    Definition {
        name: "arc_storm",
        why: "three threads copying through one shared word: order enforcement and gated-lane rescheduling dominate; the bypass workload for codec and analysis optimisations",
        lifeguard: LifeguardKind::TaintCheck,
        frame_records: 4096,
        pacing: Pacing::Saturate,
        specs: arc_storm,
    },
    Definition {
        name: "taint_paced",
        why: "a tainted Ocean with a violation in most frames, offered open loop at a tenth of saturation: latency comes from idle sleeps and the feed path, not queueing",
        lifeguard: LifeguardKind::TaintCheck,
        frame_records: 512,
        pacing: Pacing::Rate(500_000.0),
        specs: ocean_tainted_dense,
    },
    Definition {
        name: "cosim_fig6",
        why: "the paper's Figure 6 sample: four apps co-simulated unmonitored, timesliced and parallel at set-up, their captures streamed on up to 4 lanes over 2 workers",
        lifeguard: LifeguardKind::TaintCheck,
        frame_records: 4096,
        pacing: Pacing::Saturate,
        specs: fig6,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Definition> {
    ALL.iter().find(|def| def.name == name)
}

/// One generated, co-simulated, captured and scheduled application.
#[derive(Debug)]
pub struct App {
    /// The generated application (kept for in-window co-simulation).
    pub workload: Workload,
    /// Host seconds spent generating it.
    pub gen_s: f64,
    /// The set-up co-simulation; later ones must reproduce its cycles.
    pub cosim: CoSim,
    /// The capture, scheduled and rendered.
    pub plan: Plan,
}

impl Definition {
    /// The applications this workload generates from `seed`.
    pub fn specs(&self, seed: u64) -> Vec<WorkloadSpec> {
        (self.specs)(seed)
    }
}

/// Generates `def`'s applications from `seed` and takes each through
/// co-simulation, encoding and scheduling.
///
/// # Errors
///
/// A co-simulation that diverges from its sequential reference.
pub fn prepare(def: &Definition, seed: u64, tracer: &mut Tracer) -> Result<Vec<App>, String> {
    capture_apps(def.specs(seed), def.lifeguard, def.frame_records, tracer)
}

/// Builds, co-simulates, encodes and schedules each of `specs`.
///
/// # Errors
///
/// A co-simulation that diverges from its sequential reference.
pub fn capture_apps(
    specs: Vec<WorkloadSpec>,
    lifeguard: LifeguardKind,
    frame_records: usize,
    tracer: &mut Tracer,
) -> Result<Vec<App>, String> {
    specs
        .into_iter()
        .map(|spec| {
            let (workload, gen_s) = tracer.timed("workloads.gen", 0, || spec.build());
            let mut cosim = cosimulate(&workload, lifeguard, tracer, 0)?;
            let (capture, _) = tracer.timed("events.encode", 0, || {
                Capture::from_cosim(&workload, lifeguard, &mut cosim)
            });
            let (plan, _) = tracer.timed("bench.schedule", 0, || Plan::new(capture, frame_records));
            Ok(App {
                workload,
                gen_s,
                cosim,
                plan,
            })
        })
        .collect()
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Daemon rounds, in order.
    pub rounds: Vec<Round>,
}

impl Window {
    /// Folds `other`'s rounds into this window.
    pub fn absorb(&mut self, other: Window) {
        self.rounds.extend(other.rounds);
    }

    /// Rounds attempted.
    pub fn attempted(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Rounds that failed.
    pub fn failed(&self) -> u64 {
        self.rounds.iter().filter(|r| r.failure.is_some()).count() as u64
    }

    /// Every failure reason, for the operator.
    pub fn failures(&self) -> impl Iterator<Item = &str> {
        self.rounds.iter().filter_map(|r| r.failure.as_deref())
    }

    /// Share of the processors' time the hypervisor gave to someone else
    /// while rounds ran: the first thing to look at when one run reads
    /// unlike the rest.
    pub fn cpu_stolen_ratio(&self) -> f64 {
        let (stolen, total) = self
            .rounds
            .iter()
            .fold((0, 0), |sum, r| (sum.0 + r.jiffies.0, sum.1 + r.jiffies.1));
        stolen as f64 / total.max(1) as f64
    }

    /// The rounds whose timings count, grouped by application: the
    /// successful and *undisturbed* ones, that is, those during which the
    /// hypervisor withheld at most
    /// [`STOLEN_LIMIT`](crate::driver::STOLEN_LIMIT) of the processors'
    /// time. Measured on this box, one stolen 10 ms tick in a 130 ms round
    /// costs 8 % of its throughput, and the stolen share swings between 0
    /// and 15 % in episodes of tens of seconds. Every round is still
    /// attempted, checked and counted as such. An application with fewer
    /// undisturbed rounds than a quarter of its successful ones counts that
    /// quarter, least disturbed first: in a bad episode a median over the
    /// calmest rounds reads nearer a calm run than one over all of them or
    /// over the one or two the limit let through.
    fn counted(&self) -> Vec<Vec<&Round>> {
        let apps = self.rounds.iter().map(|r| r.app + 1).max().unwrap_or(0);
        (0..apps)
            .map(|app| {
                let mut ok: Vec<&Round> = self
                    .rounds
                    .iter()
                    .filter(|r| r.app == app && r.failure.is_none())
                    .collect();
                // Stable, so rounds of equal share keep their order.
                ok.sort_by(|a, b| a.stolen_share().total_cmp(&b.stolen_share()));
                let undisturbed = ok.iter().filter(|r| !r.disturbed()).count();
                ok.truncate(undisturbed.max(ok.len().div_ceil(4)));
                ok
            })
            .filter(|rounds| !rounds.is_empty())
            .collect()
    }

    /// Successful rounds whose timings do not count.
    pub fn disturbed_rounds(&self) -> usize {
        let ok = self.rounds.iter().filter(|r| r.failure.is_none()).count();
        ok - self.counted().iter().map(Vec::len).sum::<usize>()
    }

    /// The mean over applications of the median of `field` over each one's
    /// counted rounds, with the number of rounds behind it; `None` for a
    /// window in which no round succeeded. Medians, because a round that
    /// met a slow moment of the machine should not set the figure; per
    /// application, because one median over rounds of unlike applications
    /// lands on whichever happens to sit in the middle.
    pub fn typical(&self, field: impl Fn(&Round) -> f64) -> Option<(f64, usize)> {
        let counted = self.counted();
        let rounds = counted.iter().map(Vec::len).sum();
        let medians: Vec<f64> = counted
            .iter()
            .map(|rounds| median(&mut rounds.iter().map(|r| field(r)).collect::<Vec<_>>()))
            .collect();
        (!medians.is_empty()).then(|| (medians.iter().sum::<f64>() / medians.len() as f64, rounds))
    }

    /// Records per second of a typical round.
    pub fn streamed_records_per_s(&self) -> Option<f64> {
        self.typical(|r| r.records as f64 / r.wall_s)
            .map(|(rate, _)| rate)
    }

    /// Every detect-latency sample of the counted rounds.
    pub fn detect_ms(&self) -> Vec<f64> {
        self.samples(|r| &r.detect_ms)
    }

    /// Every generator-lateness sample of the counted rounds.
    pub fn late_ms(&self) -> Vec<f64> {
        self.samples(|r| &r.late_ms)
    }

    fn samples(&self, field: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
        self.counted()
            .into_iter()
            .flatten()
            .flat_map(|r| field(r).iter().copied())
            .collect()
    }
}

/// Streams one discarded round per application (always at saturation: the
/// point is warm allocators and page tables, not a paced measurement).
///
/// # Errors
///
/// Any warm-up round that fails: the window would only repeat it.
pub fn warm_up(apps: &[App], endpoints: &Endpoints) -> Result<(), String> {
    let mut tracer = Tracer::disabled();
    for app in apps {
        let control = PendingControl::open(&endpoints.control)
            .and_then(PendingControl::ready)
            .map_err(|e| format!("warm-up control connection: {e}"))?;
        let round = run_round(
            endpoints,
            &app.plan,
            Pacing::Saturate,
            control,
            &mut tracer,
            0,
        );
        if let Some(reason) = round.failure {
            return Err(format!(
                "warm-up round of {}: {reason}",
                app.plan.capture.label
            ));
        }
    }
    Ok(())
}

/// Runs whole passes over `apps` until `seconds` have elapsed (always at
/// least one).
pub fn run_window(
    apps: &[App],
    endpoints: &Endpoints,
    pacing: Pacing,
    seconds: f64,
    tracer: &mut Tracer,
) -> Window {
    let mut window = Window::default();
    let started = Instant::now();
    let mut pending = PendingControl::open(&endpoints.control);
    let mut round_no = 0u32;
    'window: loop {
        for (index, app) in apps.iter().enumerate() {
            round_no += 1;
            // Open the next round's control connection before this round
            // so the daemon's accept poll overlaps the round.
            let control = std::mem::replace(&mut pending, PendingControl::open(&endpoints.control))
                .and_then(PendingControl::ready);
            let round = match control {
                Ok(control) => run_round(endpoints, &app.plan, pacing, control, tracer, round_no),
                Err(e) => Round {
                    failure: Some(format!("control connection: {e}")),
                    stuck: true,
                    ..Round::default()
                },
            };
            let stuck = round.stuck;
            window.rounds.push(Round {
                app: index,
                ..round
            });
            if stuck {
                break 'window;
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    window
}
