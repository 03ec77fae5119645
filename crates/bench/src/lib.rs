//! Shared helpers for the ParaLog benchmark harness.
//!
//! The `bin/` targets regenerate the paper's tables and figures and the
//! checked-in `BENCH_*.json` snapshots of [`snapshot`], the one
//! microbenchmark harness.

#![forbid(unsafe_code)]

pub mod snapshot;

/// Workload scale used by the full figure binaries (relative to the
/// calibrated base duration).
pub const FULL_SCALE: f64 = 1.0;

/// Parses an optional `--scale <f64>` command-line override. A `--scale`
/// without a positive number after it ends the process with exit code 2
/// rather than silently running the (slow) default.
pub fn scale_from_args(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    parse_scale(&args, default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// The `--scale` value in `args`, `default` when the flag is absent.
fn parse_scale(args: &[String], default: f64) -> Result<f64, String> {
    let Some(at) = args.iter().position(|a| a == "--scale") else {
        return Ok(default);
    };
    let value = args.get(at + 1).ok_or("--scale requires a value")?;
    match value.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("--scale {value:?} is not a positive number")),
    }
}

/// Parses an optional `--quick` flag (quarter-scale run).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Ends a figure or table bin: prints `output`, or, with `--check <file>`,
/// compares it byte for byte with `file` — a pinned co-simulation output —
/// and exits 1 naming the first line that differs. A `--check` without a
/// readable file exits 2.
pub fn emit(output: &str) {
    let args: Vec<String> = std::env::args().collect();
    let Some(at) = args.iter().position(|a| a == "--check") else {
        print!("{output}");
        return;
    };
    let pinned = args
        .get(at + 1)
        .ok_or_else(|| "--check requires a file".to_string())
        .and_then(|path| {
            std::fs::read_to_string(path).map_err(|err| format!("--check {path:?}: {err}"))
        })
        .unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        });
    if let Some(diff) = first_difference(&pinned, output) {
        eprintln!("{diff}");
        std::process::exit(1);
    }
}

/// The first line where `output` departs from `pinned`, described for a
/// reader (`None` stands for a side that ended); `None` when the two are
/// byte-identical.
fn first_difference(pinned: &str, output: &str) -> Option<String> {
    if pinned == output {
        return None;
    }
    let (mut want, mut got) = (pinned.split_inclusive('\n'), output.split_inclusive('\n'));
    // Unequal texts differ at some line, so the search ends.
    (1..).find_map(|line| {
        let (w, g) = (want.next(), got.next());
        (w != g).then(|| {
            format!("line {line} differs from the pinned output:\n  pinned: {w:?}\n  now:    {g:?}")
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert_eq!(scale_from_args(0.5), 0.5);
    }

    #[test]
    fn scale_flag_parses_or_fails_loudly() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        assert_eq!(parse_scale(&args("figure6 --quick"), 0.25), Ok(0.25));
        assert_eq!(parse_scale(&args("figure6 --scale 0.02"), 1.0), Ok(0.02));
        for bad in [
            "figure6 --scale",
            "figure6 --scale banana",
            "figure6 --scale -1",
        ] {
            assert!(
                parse_scale(&args(bad), 1.0).is_err(),
                "{bad:?} must not run"
            );
        }
    }

    #[test]
    fn first_difference_names_the_first_differing_line() {
        let pinned = "a\nb\nc\n";
        assert_eq!(first_difference(pinned, pinned), None);
        // A changed line, a missing trailing newline, output that stops early.
        for (output, line) in [("a\nB\nc\n", 2), ("a\nb\nc", 3), ("a\n", 2)] {
            let said = first_difference(pinned, output).expect("differs");
            assert!(said.starts_with(&format!("line {line} ")), "{said}");
        }
    }
}
