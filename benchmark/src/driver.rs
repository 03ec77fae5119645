//! The load generator: one producer connection and one `WATCH` connection
//! per round, driven from one generator thread, with a watchdog on every
//! blocking call. A stuck round is a *failed* round, never a hung benchmark.
//!
//! A round is one fresh session, as a reconnecting producer makes: attach,
//! subscribe to the live feed, stream the capture's frame rounds, send the
//! end-all frame, and read the feed to its `end` line.

use crate::capture::{Capture, Oracle};
use crate::schedule::Schedule;
use crate::trace::Tracer;
use paralog::core::BackendMode;
use paralog::daemon::proto::{self, AttachRequest};
use paralog::daemon::{Daemon, DaemonConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pool workers of the daemon under test (the box has two cores).
pub const DAEMON_WORKERS: usize = 2;

/// Longest a single socket write may block before the round fails.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest the feed may stay silent before the round fails.
const WATCH_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest a whole round may take.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);
/// How long before a paced frame round is due the generator stops sleeping
/// and spins (a twelfth of `taint_paced`'s 2 ms frame period).
const PACING_SPIN: Duration = Duration::from_micros(150);

/// A capture ready to stream: its causal frame schedule and the rendered
/// socket bytes of each frame round.
#[derive(Debug)]
pub struct Plan {
    /// The capture and its oracle.
    pub capture: Capture,
    /// Which records each frame round carries.
    pub schedule: Schedule,
    /// Socket bytes per frame round.
    pub frames: Vec<Vec<u8>>,
}

impl Plan {
    /// Schedules and renders `capture` at `frame_records` per thread per
    /// frame round.
    pub fn new(capture: Capture, frame_records: usize) -> Plan {
        let schedule = Schedule::causal(&capture, frame_records);
        let frames = schedule.render(&capture);
        Plan {
            capture,
            schedule,
            frames,
        }
    }
}

/// Spawns the in-process daemon under test on sockets inside `dir`.
///
/// # Errors
///
/// Socket binding failures.
pub fn spawn_daemon(dir: &Path) -> std::io::Result<Daemon> {
    let tag = std::process::id();
    let mut config = DaemonConfig::new(
        dir.join(format!("{tag}.data.sock")),
        dir.join(format!("{tag}.ctl.sock")),
    );
    config.workers = DAEMON_WORKERS;
    Daemon::spawn(config)
}

/// Jiffies the hypervisor withheld from this guest and jiffies in total,
/// summed over all processors since boot (the `cpu` line of `/proc/stat`).
fn stolen_and_total_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// What one round measured. Timing fields are meaningful only when
/// `failure` is `None`.
#[derive(Debug, Default)]
pub struct Round {
    /// Index of the application streamed, among the workload's.
    pub app: usize,
    /// Why the round failed, if it did.
    pub failure: Option<String>,
    /// The failure was a watchdog expiry: the session may still be wedged
    /// inside the daemon, so the window should stop.
    pub stuck: bool,
    /// Daemon-assigned session id (0 if the attach failed).
    pub session_id: u64,
    /// Records the daemon reported applied.
    pub records: u64,
    /// Attach start → `end ok` line read.
    pub wall_s: f64,
    /// Connect + handshake.
    pub attach_ms: f64,
    /// Producer time inside `write` (back-pressure).
    pub send_blocked_ms: f64,
    /// End-all frame written → `end ok` line read.
    pub drain_ms: f64,
    /// Per violation: feed line read − due time of the frame round carrying
    /// the record.
    pub detect_ms: Vec<f64>,
    /// Per frame round of a paced run: how late the generator sent it.
    pub late_ms: Vec<f64>,
    /// Violations the session counted that never reached the feed.
    pub watch_lines_lost: u64,
    /// Jiffies the hypervisor withheld from this guest during the round,
    /// and jiffies in total (all processors).
    pub jiffies: (u64, u64),
}

/// Largest share of the processors' time the hypervisor may withhold during
/// a round before the round counts as disturbed.
pub const STOLEN_LIMIT: f64 = 0.01;

impl Round {
    /// Whether another tenant of the host took more than [`STOLEN_LIMIT`]
    /// of the processors' time during the round.
    pub fn disturbed(&self) -> bool {
        self.stolen_share() > STOLEN_LIMIT
    }

    /// Share of the processors' time the hypervisor withheld during the
    /// round.
    pub fn stolen_share(&self) -> f64 {
        self.jiffies.0 as f64 / self.jiffies.1.max(1) as f64
    }
}

/// The parsed `end ok` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EndOk {
    records: u64,
    violations: usize,
    fingerprint: u64,
}

/// Everything the feed reader saw, stamped as it was read.
#[derive(Debug, Default)]
struct WatchLog {
    violations: Vec<(usize, u64, Instant)>,
    end: Option<(Instant, Result<EndOk, String>)>,
    /// Set when the feed ended without an `end` line.
    error: Option<String>,
    timed_out: bool,
}

fn parse_end_ok(rest: &str) -> Option<EndOk> {
    let mut end = EndOk {
        records: 0,
        violations: 0,
        fingerprint: 0,
    };
    let mut seen = 0;
    for field in rest.split_ascii_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "records" => end.records = value.parse().ok()?,
            "violations" => end.violations = value.parse().ok()?,
            "fingerprint" => end.fingerprint = u64::from_str_radix(value, 16).ok()?,
            _ => continue,
        }
        seen += 1;
    }
    (seen == 3).then_some(end)
}

/// Reads the live feed to its terminator, stamping each line on arrival.
fn read_feed(reader: &mut BufReader<UnixStream>, deadline: Instant) -> WatchLog {
    let mut log = WatchLog::default();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                log.error = Some("feed closed before its end line".into());
                return log;
            }
            Ok(_) => {}
            Err(e) => {
                log.timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                log.error = Some(format!("feed read: {e}"));
                return log;
            }
        }
        let now = Instant::now();
        let text = line.trim_end();
        if text == "." {
            if log.end.is_none() {
                log.error = Some("feed terminated without an end line".into());
            }
            return log;
        }
        if let Some(rest) = text.strip_prefix("violation ") {
            let mut fields = rest.split_ascii_whitespace();
            let parsed = fields
                .next()
                .and_then(|t| t.parse().ok())
                .zip(fields.next().and_then(|r| r.parse().ok()));
            match parsed {
                Some((tid, rid)) => log.violations.push((tid, rid, now)),
                None => {
                    log.error = Some(format!("unparsable feed line {text:?}"));
                    return log;
                }
            }
        } else if let Some(rest) = text.strip_prefix("end ok ") {
            let end = parse_end_ok(rest).ok_or_else(|| format!("unparsable end line {text:?}"));
            log.end = Some((now, end));
        } else if let Some(rest) = text.strip_prefix("end err ") {
            log.end = Some((now, Err(format!("session failed: {rest}"))));
        }
        if now > deadline {
            log.timed_out = true;
            log.error = Some("round deadline passed while reading the feed".into());
            return log;
        }
    }
}

/// A control connection the daemon may not have accepted yet. The daemon
/// accepts control connections on a 20 ms poll, so the generator opens the
/// next round's connection before the current round starts and only
/// [`ready`](PendingControl::ready)s it afterwards: the wait overlaps the
/// round instead of preceding the next one.
#[derive(Debug)]
pub struct PendingControl(UnixStream);

impl PendingControl {
    /// Connects without waiting for the daemon's handler thread.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn open(control: &Path) -> std::io::Result<PendingControl> {
        UnixStream::connect(control).map(PendingControl)
    }

    /// Waits for the daemon to answer `PING`.
    ///
    /// # Errors
    ///
    /// Socket failures or a daemon that does not answer in time.
    pub fn ready(self) -> std::io::Result<ReadyControl> {
        let writer = self.0;
        writer.set_read_timeout(Some(WATCH_TIMEOUT))?;
        writer.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let mut ready = ReadyControl {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        };
        let reply = ready.command("PING")?;
        if reply.first().map(String::as_str) != Some("OK pong") {
            return Err(std::io::Error::other(format!("PING answered {reply:?}")));
        }
        Ok(ready)
    }
}

/// A control connection whose handler thread is known to be serving it.
#[derive(Debug)]
pub struct ReadyControl {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl ReadyControl {
    /// Sends one command and collects its response block.
    ///
    /// # Errors
    ///
    /// Socket failures, timeouts, or a connection closed mid-response.
    pub fn command(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let reply = reply.trim_end();
            if reply == "." {
                return Ok(lines);
            }
            lines.push(reply.to_string());
        }
    }
}

/// Where the daemon under test listens.
#[derive(Debug, Clone)]
pub struct Endpoints {
    /// Producer-facing socket.
    pub data: PathBuf,
    /// Admin socket.
    pub control: PathBuf,
}

impl Endpoints {
    /// The sockets of `daemon`.
    pub fn of(daemon: &Daemon) -> Endpoints {
        Endpoints {
            data: daemon.data_socket().to_path_buf(),
            control: daemon.control_socket().to_path_buf(),
        }
    }
}

fn attach(endpoints: &Endpoints, capture: &Capture) -> Result<(UnixStream, u64), String> {
    let request = AttachRequest {
        name: "bench".into(),
        lifeguard: capture.lifeguard.name().into(),
        threads: capture.threads(),
        tso: false,
        heap: capture.heap,
        mode: BackendMode::Auto,
    };
    let io = |e: std::io::Error| format!("attach: {e}");
    let mut stream = UnixStream::connect(&endpoints.data).map_err(io)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).map_err(io)?;
    stream.set_read_timeout(Some(WRITE_TIMEOUT)).map_err(io)?;
    stream
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .map_err(io)?;
    // Byte-wise so nothing past the reply line is consumed.
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    while reply.last() != Some(&b'\n') && reply.len() < proto::MAX_HANDSHAKE_BYTES {
        if stream.read(&mut byte).map_err(io)? == 0 {
            return Err("attach: daemon closed the connection".into());
        }
        reply.push(byte[0]);
    }
    let reply = String::from_utf8_lossy(&reply);
    let id = reply
        .trim()
        .strip_prefix("OK ")
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("attach rejected: {}", reply.trim()))?;
    Ok((stream, id))
}

/// How fast the generator offers records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop, one client: each frame round is written as soon as the
    /// socket accepted the previous one.
    Saturate,
    /// Open loop at this many records per second: each frame round is due
    /// when its last record would have been produced at that rate, however
    /// late the previous ones went out.
    Rate(f64),
}

/// Streams `plan` through the daemon as one fresh session and checks the
/// result against the oracle. `control` must be a [`ReadyControl`] opened
/// before the round; it is consumed by the `WATCH`.
pub fn run_round(
    endpoints: &Endpoints,
    plan: &Plan,
    pacing: Pacing,
    control: ReadyControl,
    tracer: &mut Tracer,
    round_no: u32,
) -> Round {
    let mut round = Round::default();
    let jiffies_before = stolen_and_total_jiffies();
    let root = tracer.enter("bench.round", round_no);
    let started = Instant::now();
    let deadline = started + ROUND_DEADLINE;

    let span = tracer.enter("daemon.attach", round_no);
    let attached = attach(endpoints, &plan.capture);
    tracer.exit(span);
    let (mut data, session_id) = match attached {
        Ok(ok) => ok,
        Err(reason) => {
            round.failure = Some(reason);
            tracer.exit(root);
            return round;
        }
    };
    round.session_id = session_id;
    round.attach_ms = started.elapsed().as_secs_f64() * 1e3;

    let ReadyControl {
        mut reader,
        mut writer,
    } = control;
    if let Err(e) = writer.write_all(format!("WATCH {session_id}\n").as_bytes()) {
        round.failure = Some(format!("WATCH: {e}"));
        tracer.exit(root);
        return round;
    }

    let mut due = Vec::with_capacity(plan.frames.len());
    let mut send_failure = None;
    let mut end_written = started;
    let log = std::thread::scope(|scope| {
        let feed = scope.spawn(move || read_feed(&mut reader, deadline));
        let stream_start = Instant::now();
        for (r, frame) in plan.frames.iter().enumerate() {
            let due_at = match pacing {
                Pacing::Saturate => Instant::now(),
                Pacing::Rate(rate) => {
                    let at = stream_start
                        + Duration::from_secs_f64(plan.schedule.records_through(r) as f64 / rate);
                    // Sleep to just short of the due time and spin the rest:
                    // a sleep alone wakes 50-100 us late (timer slack and
                    // the processor's wake-up), more when the host is busy,
                    // and every microsecond of it lands in the latencies.
                    if let Some(nap) = at
                        .checked_duration_since(Instant::now())
                        .and_then(|wait| wait.checked_sub(PACING_SPIN))
                    {
                        std::thread::sleep(nap);
                    }
                    while Instant::now() < at {
                        std::hint::spin_loop();
                    }
                    round
                        .late_ms
                        .push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                    at
                }
            };
            due.push(due_at);
            let span = tracer.enter("daemon.send", round_no);
            let before = Instant::now();
            let sent = data.write_all(frame);
            round.send_blocked_ms += before.elapsed().as_secs_f64() * 1e3;
            tracer.exit(span);
            if let Err(e) = sent {
                send_failure = Some(format!("frame round {r} write: {e}"));
                break;
            }
            if Instant::now() > deadline {
                send_failure = Some(format!("round deadline passed at frame round {r}"));
                break;
            }
        }
        if send_failure.is_none() {
            if let Err(e) = data.write_all(&proto::end_all_frame()) {
                send_failure = Some(format!("end-all write: {e}"));
            }
        }
        end_written = Instant::now();
        if send_failure.is_some() {
            // Unblock the reader: dropping the producer makes the daemon
            // drain the session and terminate the feed.
            let _ = data.shutdown(std::net::Shutdown::Both);
        }
        let span = tracer.enter("daemon.drain", round_no);
        let log = feed.join().expect("feed reader panicked");
        tracer.exit(span);
        log
    });
    drop(writer);
    tracer.exit(root);
    if let (Some(before), Some(after)) = (jiffies_before, stolen_and_total_jiffies()) {
        round.jiffies = (after.0 - before.0, after.1 - before.1);
    }

    if let Some(reason) = send_failure {
        round.stuck = true;
        round.failure = Some(reason);
        return round;
    }
    if let Some(reason) = log.error {
        round.stuck = log.timed_out;
        round.failure = Some(reason);
        return round;
    }
    let (ended, end) = log.end.expect("a feed without an error has an end line");
    let end = match end {
        Ok(end) => end,
        Err(reason) => {
            round.failure = Some(reason);
            return round;
        }
    };
    let Oracle {
        records,
        violations,
        fingerprint,
    } = plan.capture.oracle;
    if (end.records, end.violations, end.fingerprint) != (records, violations, fingerprint) {
        round.failure = Some(format!(
            "oracle mismatch: daemon records={} violations={} fingerprint={:016x}, \
             oracle records={records} violations={violations} fingerprint={fingerprint:016x}",
            end.records, end.violations, end.fingerprint
        ));
        return round;
    }
    round.watch_lines_lost = (end.violations as u64).saturating_sub(log.violations.len() as u64);
    if log.violations.len() != end.violations {
        round.failure = Some(format!(
            "the feed carried {} violation lines for {} violations",
            log.violations.len(),
            end.violations
        ));
        return round;
    }
    for (tid, rid, seen) in log.violations {
        let Some(index) = plan.capture.index_of(tid, rid) else {
            round.failure = Some(format!("violation names unknown record {tid}:{rid}"));
            return round;
        };
        let sent = due[plan.schedule.round_of(tid, index)];
        round
            .detect_ms
            .push(seen.saturating_duration_since(sent).as_secs_f64() * 1e3);
    }
    round.records = end.records;
    round.wall_s = (ended - started).as_secs_f64();
    round.drain_ms = ended.saturating_duration_since(end_written).as_secs_f64() * 1e3;
    round
}
