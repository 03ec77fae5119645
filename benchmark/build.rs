//! Records the compiler's version for the `machine` block of every result.

fn main() {
    // Without this Cargo reruns the script, and rebuilds the package, whenever
    // any file under the package changes: every run writes to `out/`.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
}
