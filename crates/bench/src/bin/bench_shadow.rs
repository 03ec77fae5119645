//! Regenerates (or checks) the checked-in `BENCH_shadow.json`: the
//! byte-shadow suite — `AtomicShadow`'s range primitives at 4 B, 64 B and
//! 4 KiB, and the cost of a session's first touch.
//!
//! Usage:
//!
//! * `cargo run --release -p paralog-bench --bin bench_shadow`
//!   — run the full suite, print it, and rewrite `BENCH_shadow.json`
//!   at the repository root (override with `--out <path>`);
//! * `... --bin bench_shadow -- --check` — run a quick profile and diff it
//!   against the checked-in baseline, emitting a non-blocking GitHub
//!   Actions `::warning::` line per regressed series. Always exits 0.

use paralog_bench::snapshot::{check_against, shadow_matrix, to_json};
use std::path::PathBuf;

const FULL_REPS: u64 = 2048;
const FULL_ITERS: usize = 7;
/// Quick profiles keep the full rep count (so per-call numbers stay
/// comparable to the committed baseline — fixed per-round overhead
/// amortizes identically) and only cut the best-of window.
const QUICK_REPS: u64 = FULL_REPS;
const QUICK_ITERS: usize = 3;

fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shadow.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = default_out();
    let mut i = 0;
    let mut checking = false;
    let mut quick = false;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => checking = true,
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).expect("--out requires a path"));
            }
            other => {
                eprintln!("unknown flag {other:?} (expected --check, --quick, --out <path>)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let (reps, iters) = if checking || quick {
        (QUICK_REPS, QUICK_ITERS)
    } else {
        (FULL_REPS, FULL_ITERS)
    };
    let result = shadow_matrix(reps, iters);
    println!("shadow suite ({reps} calls/round, ns/call, best of {iters}):");
    for (key, ns) in &result.series {
        println!("  {key:<24} {ns:10.1}");
    }
    if checking {
        std::process::exit(check_against("BENCH_shadow.json", &out, &result));
    }
    std::fs::write(&out, to_json(&result)).expect("write BENCH_shadow.json");
    println!("wrote {}", out.display());
}
