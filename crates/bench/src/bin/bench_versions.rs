//! Regenerates (or checks) the checked-in `BENCH_versions.json`: the §5.5
//! version-table suite — windowed churn, availability polling, the
//! bypass-heavy worst case, and a sparse-rid sweep.
//!
//! Usage mirrors `bench_shadow`:
//!
//! * `cargo run --release -p paralog-bench --bin bench_versions`
//!   — run the full suite, print it, and rewrite `BENCH_versions.json`
//!   at the repository root (override with `--out <path>`);
//! * `... --bin bench_versions -- --check` — run a quick profile and diff
//!   it against the checked-in baseline, emitting a non-blocking GitHub
//!   Actions `::warning::` line per regressed series. Always exits 0.

use paralog_bench::snapshot::{check_against, to_json, versions_matrix};
use std::path::PathBuf;

const FULL_OPS: u64 = 4096;
const FULL_ITERS: usize = 7;
/// Quick profiles keep the full op count (so per-op numbers stay
/// comparable to the committed baseline — fixed per-round overhead
/// amortizes identically) and only cut the best-of window.
const QUICK_OPS: u64 = FULL_OPS;
const QUICK_ITERS: usize = 3;

fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_versions.json")
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
    let (ops, iters) = if checking || quick {
        (QUICK_OPS, QUICK_ITERS)
    } else {
        (FULL_OPS, FULL_ITERS)
    };
    let result = versions_matrix(ops, iters);
    println!("version-table suite ({ops} ops/round, ns/op, best of {iters}):");
    for (key, ns) in &result.series {
        println!("  {key:<24} {ns:10.1}");
    }
    if checking {
        std::process::exit(check_against("BENCH_versions.json", &out, &result));
    }
    std::fs::write(&out, to_json(&result)).expect("write BENCH_versions.json");
    println!("wrote {}", out.display());
}
