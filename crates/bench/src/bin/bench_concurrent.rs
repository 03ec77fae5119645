//! Regenerates (or checks) the checked-in `BENCH_concurrent.json`: the
//! §5.3 concurrency suite — the lifeguards' lock-free forms, lane sweeps
//! and the version table's hand-off on real threads.
//!
//! Usage mirrors `bench_shadow`:
//!
//! * `cargo run --release -p paralog-bench --bin bench_concurrent`
//!   — run the full suite, print it, and rewrite `BENCH_concurrent.json`
//!   at the repository root (override with `--out <path>`);
//! * `... --bin bench_concurrent -- --check` — run a quick profile and diff
//!   it against the checked-in baseline, emitting a non-blocking GitHub
//!   Actions `::warning::` line per regressed series. Always exits 0.

use paralog_bench::snapshot::{concurrent_matrix, run_bin};

fn main() {
    run_bin(
        "BENCH_concurrent.json",
        "concurrency suite",
        "record",
        4096,
        concurrent_matrix,
    );
}
