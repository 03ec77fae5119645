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

use paralog_bench::snapshot::{run_bin, versions_matrix};

fn main() {
    run_bin(
        "BENCH_versions.json",
        "version-table suite",
        "op",
        4096,
        versions_matrix,
    );
}
