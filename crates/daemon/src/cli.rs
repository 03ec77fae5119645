//! The `paralogd` command-line surface.
//!
//! Two subcommands:
//!
//! * `paralogd serve --socket <path> --control <path> [--workers N]` —
//!   run the daemon until `SHUTDOWN` arrives over the control socket,
//!   then print per-session summaries;
//! * `paralogd ctl --control <path> <COMMAND...>` — send one control
//!   command (`LIST`, `STATUS 3`, `DETACH 3`, `WATCH 3`, `SHUTDOWN`,
//!   `PING`) and print the response block.
//!
//! Argument parsing is hand-rolled (the workspace takes no external
//! dependencies).

use crate::client::Control;
use crate::supervisor::{Daemon, DaemonConfig};

const USAGE: &str = "\
paralogd — ParaLog online-monitoring daemon

USAGE:
    paralogd serve --socket <path> --control <path> [--workers <n>]
    paralogd ctl --control <path> <COMMAND> [ARGS...]
    paralogd help

SERVE:
    --socket <path>    producer-facing Unix-domain socket
    --control <path>   admin Unix-domain socket
    --workers <n>      shared worker pool size (default: one per core)

CTL COMMANDS:
    LIST               one line per session, then the pool's counters
    STATUS <id>        session detail (state, metrics, violations, parked lanes)
    DETACH <id>        close a session's inputs; it drains to a report
    WATCH <id>         stream the session's live violation/event feed
    SHUTDOWN           drain every session and exit
    PING               liveness check
";

/// Runs the CLI against `args` (without the program name). Returns the
/// process exit code.
///
/// # Errors
///
/// A message for stderr (exit code 2): bad usage, socket failures.
pub fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("ctl") => ctl(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}

fn take_flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<Option<String>, String> {
    if args[*i] != flag {
        return Ok(None);
    }
    *i += 1;
    let value = args
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    *i += 1;
    Ok(Some(value.clone()))
}

fn serve(args: &[String]) -> Result<i32, String> {
    let mut socket = None;
    let mut control = None;
    let mut workers = 0usize;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = take_flag_value(args, &mut i, "--socket")? {
            socket = Some(v);
        } else if let Some(v) = take_flag_value(args, &mut i, "--control")? {
            control = Some(v);
        } else if let Some(v) = take_flag_value(args, &mut i, "--workers")? {
            workers = v
                .parse()
                .map_err(|_| "--workers requires an integer".to_string())?;
        } else {
            return Err(format!("unknown serve flag {:?}\n\n{USAGE}", args[i]));
        }
    }
    let socket = socket.ok_or("serve requires --socket <path>")?;
    let control = control.ok_or("serve requires --control <path>")?;
    let mut config = DaemonConfig::new(socket, control);
    config.workers = workers;
    let daemon = Daemon::spawn(config).map_err(|e| format!("failed to start daemon: {e}"))?;
    println!(
        "paralogd listening data={} control={} workers={}",
        daemon.data_socket().display(),
        daemon.control_socket().display(),
        daemon.worker_count()
    );
    daemon.wait_shutdown_requested();
    println!("paralogd draining {} session(s)", daemon.session_count());
    let mut failed = false;
    for report in daemon.shutdown() {
        match report.result {
            Ok(metrics) => println!(
                "session {} name={} lifeguard={} records={} violations={} fingerprint={:016x}",
                report.id,
                report.name,
                report.lifeguard,
                metrics.records,
                metrics.violations.len(),
                metrics.fingerprint
            ),
            Err(err) => {
                failed = true;
                println!(
                    "session {} name={} lifeguard={} error: {err}",
                    report.id, report.name, report.lifeguard
                );
            }
        }
    }
    Ok(i32::from(failed))
}

fn ctl(args: &[String]) -> Result<i32, String> {
    let mut control = None;
    let mut i = 0;
    while i < args.len() {
        match take_flag_value(args, &mut i, "--control")? {
            Some(v) => control = Some(v),
            None => break,
        }
    }
    let control = control.ok_or("ctl requires --control <path>")?;
    let command = args[i..].join(" ");
    if command.is_empty() {
        return Err(format!("ctl requires a command\n\n{USAGE}"));
    }
    let mut conn =
        Control::connect(&control).map_err(|e| format!("cannot reach daemon at {control}: {e}"))?;
    if command.to_ascii_uppercase().starts_with("WATCH") {
        let id = command
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("usage: WATCH <id>")?;
        conn.watch(id, |line| println!("{line}"))
            .map_err(|e| format!("watch failed: {e}"))?;
        return Ok(0);
    }
    let lines = conn
        .command(&command)
        .map_err(|e| format!("command failed: {e}"))?;
    let failed = lines.first().is_some_and(|l| l.starts_with("ERR"));
    for line in lines {
        println!("{line}");
    }
    Ok(i32::from(failed))
}
