//! Prints Table 1: the simulated machine parameters and benchmark inputs.
//!
//! Usage: `cargo run --release -p paralog-bench --bin table1 [--check FILE]`

fn main() {
    paralog_bench::emit(&format!("{}\n", paralog_core::experiment::table1()));
}
