//! The `paralogd` supervisor: external producers in, monitored sessions
//! out.
//!
//! One daemon owns two Unix-domain listeners and one shared
//! [`WorkerPool`]:
//!
//! * the **data socket** accepts producer connections, one blocking reader
//!   thread each. A connection handshakes ([`proto::AttachRequest`]), then
//!   streams frames; its reader splits frame payloads into per-thread
//!   [`ByteFeed`]s, behind which a [`StreamingReplaySource`] decodes
//!   records incrementally, and [`wake`](WorkerPool::wake)s the pool after
//!   every read it fed, so the bytes are analysed as soon as they land.
//!   Above the session's buffer cap the reader stops reading and waits on
//!   the session's [`SessionBuffer`] until lanes drain it back under; the
//!   kernel's socket buffer pushes back on the producer meanwhile. The
//!   session itself is a [`CoopSession`] whose lanes, pooled in one
//!   [`LaneSet`], are swept by one task per lane on the shared pool — N
//!   sessions multiplex over one fixed set of workers;
//! * the **control socket** serves the line protocol (`LIST`, `STATUS`,
//!   `DETACH`, `WATCH`, `SHUTDOWN`, `PING`), one handler thread per
//!   connection.
//!
//! Both listeners block in `accept`; [`Daemon::shutdown`] wakes each with a
//! connection of its own, and wakes a blocked reader by shutting its socket
//! down — no thread on the data path sleeps on a clock.
//!
//! Lifecycle per session: **attach** (handshake, lanes submitted) →
//! **running** → **draining** (producer finished, detached, or daemon
//! shutting down: feeds closed, lanes deliver what is buffered) →
//! **done/failed** (report composed, heavy session state dropped; the
//! `SessionEntry` that remains is bookkeeping only). A dropped producer
//! therefore yields *partial but valid* `RunMetrics` when its streams end
//! on record boundaries with no dangling arcs, and a deterministic
//! [`SessionError`] otherwise — never a wedged session.

use crate::proto::{self, AttachRequest, FrameEvent, FrameParser};
use crate::transport::{ByteFeed, FeedWriter, SessionBuffer};
use paralog_core::{
    CoopSession, EventSource, LaneSet, PoolTask, RunMetrics, SessionError, SourceInput,
    StreamingReplaySource, TaskPoll, WorkerPool,
};
use paralog_lifeguards::{LifeguardRegistry, MetadataShape, SessionEventObserver};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long graceful shutdown waits for draining sessions before aborting
/// the stragglers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration for [`Daemon::spawn`].
#[derive(Debug)]
pub struct DaemonConfig {
    /// Path of the producer-facing Unix-domain socket.
    pub data_socket: PathBuf,
    /// Path of the admin Unix-domain socket.
    pub control_socket: PathBuf,
    /// Worker threads in the shared pool (0 = one per core, min 2).
    pub workers: usize,
    /// Lifeguard resolution for handshakes.
    pub registry: LifeguardRegistry,
    /// Per-session buffered-byte cap: past it the connection's reader stops
    /// reading and the kernel socket buffer back-pressures the producer.
    pub session_buffer_bytes: usize,
}

impl DaemonConfig {
    /// Defaults: builtin registry, auto-sized pool, 1 MiB per-session cap.
    pub fn new(data_socket: impl Into<PathBuf>, control_socket: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            data_socket: data_socket.into(),
            control_socket: control_socket.into(),
            workers: 0,
            registry: LifeguardRegistry::builtin(),
            session_buffer_bytes: 1 << 20,
        }
    }
}

/// Final account of one session, returned by [`Daemon::shutdown`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Daemon-assigned session id.
    pub id: u64,
    /// Producer-chosen label.
    pub name: String,
    /// Lifeguard that ran.
    pub lifeguard: String,
    /// Monitored thread count.
    pub threads: usize,
    /// Full metrics on a clean drain (partial if the producer detached
    /// early), the first error otherwise.
    pub result: Result<RunMetrics, SessionError>,
}

/// Live-feed subscribers of one session plus the published-violation
/// cursor. Shared (separately from the entry) with the lifeguard's event
/// observer, so no `Arc` cycle runs through the session.
#[derive(Default)]
struct Watchers {
    subscribers: AtomicUsize,
    senders: Mutex<Vec<SyncSender<String>>>,
    /// Violations already pushed to subscribers (prefix of the lifeguard's
    /// accumulation order).
    cursor: Mutex<usize>,
    /// Lines some subscriber's full channel refused.
    lost: AtomicU64,
}

impl Watchers {
    fn publish(&self, line: String) {
        if self.subscribers.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut senders = self.senders.lock().expect("poisoned");
        senders.retain(|tx| match tx.try_send(line.clone()) {
            Ok(()) => true,
            // A slow subscriber loses lines rather than stalling replay —
            // and is told how many before the feed ends.
            Err(TrySendError::Full(_)) => {
                self.lost.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        self.subscribers.store(senders.len(), Ordering::Relaxed);
    }

    fn lines_lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Ends the feed: each subscriber drains what its channel still holds,
    /// finds it disconnected, and closes with the session's stored report —
    /// so the closing lines cannot be among the lines a full channel drops.
    fn close(&self) {
        self.senders.lock().expect("poisoned").clear();
        self.subscribers.store(0, Ordering::Relaxed);
    }
}

/// One attached session as the daemon tracks it.
struct SessionEntry {
    id: u64,
    name: String,
    lifeguard: String,
    threads: usize,
    tso: bool,
    /// The metadata substrate the lifeguard replays on, straight from its
    /// factory's
    /// [`metadata_shape`](paralog_lifeguards::LifeguardFactory::metadata_shape) —
    /// `STATUS` surfaces it so operators can see which tier a session's
    /// footprint lives in.
    shape: MetadataShape,
    /// When the handshake completed — where the applied-record throughput
    /// `STATUS` reports is measured from.
    attached_at: Instant,
    /// When the session finished — where that throughput is measured to,
    /// once it has. Stamped by [`finalize`](Self::finalize), whose
    /// exactly-once latch it is.
    finished_at: OnceLock<Instant>,
    /// The live session handle; taken (dropped) once the report is
    /// composed so finished sessions do not pin multi-megabyte metadata.
    session: Mutex<Option<CoopSession>>,
    /// Producer-side feed writers, one per thread; cleared at finalize.
    feeds: Mutex<Vec<FeedWriter>>,
    buffered: Arc<SessionBuffer>,
    detaching: AtomicBool,
    report: Mutex<Option<Result<RunMetrics, SessionError>>>,
    watchers: Arc<Watchers>,
}

impl SessionEntry {
    fn state(&self) -> &'static str {
        match &*self.report.lock().expect("poisoned") {
            Some(Ok(_)) => "done",
            Some(Err(_)) => "failed",
            None if self.detaching.load(Ordering::Relaxed) => "draining",
            None => "running",
        }
    }

    /// Closes every feed: lanes drain what is buffered, then finish. The
    /// caller wakes the pool.
    fn close_feeds(&self) {
        for feed in self.feeds.lock().expect("poisoned").iter() {
            feed.close();
        }
        self.detaching.store(true, Ordering::Relaxed);
    }

    fn session_handle(&self) -> Option<CoopSession> {
        self.session.lock().expect("poisoned").clone()
    }

    /// Pushes violations the live feed has not seen yet — only those: the
    /// read past the cursor touches no lock when nothing is new. `session`
    /// is the caller's own handle (lane tasks hold one) so this never
    /// touches the entry's session lock.
    fn publish_new_violations(&self, session: &CoopSession) {
        if self.watchers.subscribers.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut cursor = self.watchers.cursor.lock().expect("poisoned");
        self.publish_past(&mut cursor, session);
    }

    fn publish_past(&self, cursor: &mut usize, session: &CoopSession) {
        for v in session.violations_since(*cursor) {
            self.watchers.publish(violation_line(&v));
            *cursor += 1;
        }
    }

    /// Called by every lane task that finds `session` complete; the first
    /// stores the report, flushes the live feed, and drops the heavy
    /// session state.
    fn finalize(&self, session: &CoopSession) {
        if self.finished_at.set(Instant::now()).is_err() {
            return;
        }
        let result = session.report().expect("a complete session has its report");
        // Cursor lock serializes against WATCH subscription: a watcher
        // either registers before this flush (and gets the tail, then the
        // close) or after the report is stored (and reads it whole).
        let mut cursor = self.watchers.cursor.lock().expect("poisoned");
        self.publish_past(&mut cursor, session);
        {
            // The report goes in last and under its own lock: whoever reads
            // the session as over finds its heavy state already gone.
            let mut report = self.report.lock().expect("poisoned");
            self.feeds.lock().expect("poisoned").clear();
            *self.session.lock().expect("poisoned") = None;
            *report = Some(result);
        }
        self.watchers.close();
        // A reader parked above the cap answers its producer now.
        self.buffered.release();
    }

    fn report_for(&self) -> Option<Result<RunMetrics, SessionError>> {
        self.report.lock().expect("poisoned").clone()
    }

    /// Runs `f` over the stored report under its lock, for a reader that
    /// needs a line or a count of it and not a clone of its violations and
    /// events.
    fn with_report<R>(&self, f: impl FnOnce(Option<&Result<RunMetrics, SessionError>>) -> R) -> R {
        f(self.report.lock().expect("poisoned").as_ref())
    }

    /// The records a successful session's report counts.
    fn reported_records(&self) -> Option<u64> {
        self.with_report(|report| match report {
            Some(Ok(m)) => Some(m.records),
            _ => None,
        })
    }
}

fn violation_line(v: &paralog_lifeguards::Violation) -> String {
    match v.addr {
        Some(addr) => format!("violation {} {} {:#x} {}", v.tid.0, v.rid.0, addr, v.kind),
        None => format!("violation {} {} - {}", v.tid.0, v.rid.0, v.kind),
    }
}

/// The feed's closing line for a session that ended with `result`.
fn end_line(result: &Result<RunMetrics, SessionError>) -> String {
    match result {
        Ok(m) => format!(
            "end ok records={} violations={} fingerprint={:016x}",
            m.records,
            m.violations.len(),
            m.fingerprint
        ),
        Err(e) => format!("end err {e}"),
    }
}

/// One session's lanes as seen from one of them: a pool task whose slice
/// is [`LaneSet::slice`] from `home`. A session submits one per lane, so
/// as many workers can serve it as it has lanes.
struct LaneTask {
    lanes: Arc<LaneSet>,
    home: usize,
    session: CoopSession,
    entry: Arc<SessionEntry>,
}

impl PoolTask for LaneTask {
    fn run(&mut self) -> TaskPoll {
        let poll = self.lanes.slice(&self.session, self.home);
        match poll {
            TaskPoll::Done => self.entry.finalize(&self.session),
            TaskPoll::AgainIdle => {}
            TaskPoll::Again | TaskPoll::AgainWake => {
                self.entry.publish_new_violations(&self.session);
            }
        }
        poll
    }
}

struct DaemonInner {
    data_socket: PathBuf,
    control_socket: PathBuf,
    registry: LifeguardRegistry,
    session_buffer_bytes: usize,
    pool: WorkerPool,
    sessions: Mutex<BTreeMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    /// Refuse new attaches (set at the start of shutdown).
    shutting_down: AtomicBool,
    /// Tells the accept, reader and control threads to exit.
    stop_threads: AtomicBool,
    /// A clone of every producer connection a reader thread serves, by
    /// connection number, so shutdown can end a blocking read; the reader
    /// removes its own as it exits.
    producers: Mutex<BTreeMap<u64, UnixStream>>,
    /// `SHUTDOWN` over the control socket parks here for the owner of the
    /// [`Daemon`] handle to act on.
    shutdown_requested: (Mutex<bool>, Condvar),
}

impl DaemonInner {
    fn request_shutdown(&self) {
        let (flag, cv) = &self.shutdown_requested;
        *flag.lock().expect("poisoned") = true;
        cv.notify_all();
    }

    /// Builds a session from a parsed handshake. The `Err` string goes
    /// back to the producer as `ERR <reason>` — the daemon itself is
    /// unaffected.
    fn attach(self: &Arc<Self>, req: &AttachRequest) -> Result<Arc<SessionEntry>, String> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err("daemon is shutting down".into());
        }
        let factory = self
            .registry
            .get(&req.lifeguard)
            .ok_or_else(|| format!("unknown lifeguard {:?}", req.lifeguard))?;
        let buffered = Arc::new(SessionBuffer::with_cap(self.session_buffer_bytes));
        let mut writers = Vec::with_capacity(req.threads);
        let mut readers: Vec<Box<dyn Read + Send>> = Vec::with_capacity(req.threads);
        for _ in 0..req.threads {
            let (w, r) = ByteFeed::pair(Arc::clone(&buffered));
            writers.push(w);
            readers.push(Box::new(r));
        }
        let source = StreamingReplaySource::new(readers, req.heap);
        let SourceInput::Streams(streams) = Box::new(source).open() else {
            unreachable!("streaming sources resolve to streams");
        };
        let watchers = Arc::new(Watchers::default());
        let observer_watchers = Arc::clone(&watchers);
        let observer: SessionEventObserver =
            Arc::new(move |ev| observer_watchers.publish(format!("event {ev}")));
        let (session, lanes) =
            CoopSession::start(factory.as_ref(), req.heap, streams, Some(observer))
                .map_err(|e| e.to_string())?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SessionEntry {
            id,
            name: req.name.clone(),
            lifeguard: req.lifeguard.clone(),
            threads: req.threads,
            tso: req.tso,
            shape: factory.metadata_shape(),
            attached_at: Instant::now(),
            finished_at: OnceLock::new(),
            session: Mutex::new(Some(session.clone())),
            feeds: Mutex::new(writers),
            buffered,
            detaching: AtomicBool::new(false),
            report: Mutex::new(None),
            watchers,
        });
        self.sessions
            .lock()
            .expect("poisoned")
            .insert(id, Arc::clone(&entry));
        let lanes = Arc::new(LaneSet::new(lanes));
        for home in 0..req.threads {
            self.pool.submit(Box::new(LaneTask {
                lanes: Arc::clone(&lanes),
                home,
                session: session.clone(),
                entry: Arc::clone(&entry),
            }));
        }
        Ok(entry)
    }

    fn entry(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.sessions.lock().expect("poisoned").get(&id).cloned()
    }
}

/// A running daemon. Dropping it performs a best-effort shutdown; call
/// [`shutdown`](Daemon::shutdown) for the orderly variant that returns the
/// per-session reports.
pub struct Daemon {
    inner: Arc<DaemonInner>,
    /// The data socket's accept loop; it returns its live reader threads.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    control: Option<JoinHandle<()>>,
    finished: bool,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("data_socket", &self.inner.data_socket)
            .field("control_socket", &self.inner.control_socket)
            .field("sessions", &self.session_count())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds both sockets (replacing stale files) and starts the accept,
    /// control, and pool threads.
    ///
    /// # Errors
    ///
    /// Socket binding failures.
    pub fn spawn(config: DaemonConfig) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_file(&config.data_socket);
        let _ = std::fs::remove_file(&config.control_socket);
        let data = UnixListener::bind(&config.data_socket)?;
        let control = UnixListener::bind(&config.control_socket)?;
        let inner = Arc::new(DaemonInner {
            data_socket: config.data_socket,
            control_socket: config.control_socket,
            registry: config.registry,
            session_buffer_bytes: config.session_buffer_bytes.max(64 * 1024),
            pool: WorkerPool::new(config.workers),
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            stop_threads: AtomicBool::new(false),
            producers: Mutex::new(BTreeMap::new()),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("paralogd-accept".into())
                .spawn(move || data_loop(&inner, &data))?
        };
        let ctl = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("paralogd-control".into())
                .spawn(move || control_loop(&inner, &control))?
        };
        Ok(Daemon {
            inner,
            accept: Some(accept),
            control: Some(ctl),
            finished: false,
        })
    }

    /// The producer-facing socket path.
    pub fn data_socket(&self) -> &Path {
        &self.inner.data_socket
    }

    /// The admin socket path.
    pub fn control_socket(&self) -> &Path {
        &self.inner.control_socket
    }

    /// Worker threads in the shared pool.
    pub fn worker_count(&self) -> usize {
        self.inner.pool.worker_count()
    }

    /// Sessions ever attached (including finished ones still listed).
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().expect("poisoned").len()
    }

    /// Sessions still holding live replay state — the residency counter
    /// the soak churn loop asserts against: a finished or failed session
    /// drops its heavy state at finalize, so this returns to zero however
    /// many attach/detach cycles ran.
    pub fn resident_sessions(&self) -> usize {
        self.inner
            .sessions
            .lock()
            .expect("poisoned")
            .values()
            .filter(|e| e.session.lock().expect("poisoned").is_some())
            .count()
    }

    /// Whether `SHUTDOWN` arrived over the control socket.
    pub fn shutdown_requested(&self) -> bool {
        *self.inner.shutdown_requested.0.lock().expect("poisoned")
    }

    /// Blocks until `SHUTDOWN` arrives (the `paralogd serve` main loop).
    pub fn wait_shutdown_requested(&self) {
        let (flag, cv) = &self.inner.shutdown_requested;
        let mut requested = flag.lock().expect("poisoned");
        while !*requested {
            requested = cv.wait(requested).expect("poisoned");
        }
    }

    /// Programmatic equivalent of the control-socket `SHUTDOWN`.
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Graceful shutdown: stop accepting, close every session's feeds (so
    /// lanes drain what is buffered and report **partial metrics**), wait
    /// out the drain, abort stragglers, then tear down the pool and both
    /// sockets. Returns one [`SessionReport`] per session ever attached.
    pub fn shutdown(mut self) -> Vec<SessionReport> {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> Vec<SessionReport> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        let inner = &self.inner;
        inner.shutting_down.store(true, Ordering::Release);
        let entries: Vec<Arc<SessionEntry>> = inner
            .sessions
            .lock()
            .expect("poisoned")
            .values()
            .cloned()
            .collect();
        for entry in &entries {
            entry.close_feeds();
        }
        inner.pool.wake();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while entries
            .iter()
            .any(|e| e.report.lock().expect("poisoned").is_none())
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        for entry in &entries {
            if entry.report.lock().expect("poisoned").is_none() {
                if let Some(session) = entry.session_handle() {
                    session.abort("daemon shutdown with the session still wedged");
                }
            }
        }
        // The join: an aborted lane folds on its next step, so every task
        // finishes. A worker's panic has no caller to resume into here.
        let _ = inner.pool.shutdown();
        inner.stop_threads.store(true, Ordering::Release);
        // Joined before the readers are woken, so none can register after.
        let readers = join_accept_loop(self.accept.take(), &inner.data_socket);
        // The read half only: a reader blocked in `read` wakes to its end,
        // and one a session's end woke above the cap can still write its
        // `ERR` line. Each connection closes as its reader returns.
        for conn in inner.producers.lock().expect("poisoned").values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        for entry in inner.sessions.lock().expect("poisoned").values() {
            entry.buffered.release();
        }
        for reader in readers.into_iter().flatten() {
            let _ = reader.join();
        }
        let _ = join_accept_loop(self.control.take(), &inner.control_socket);
        let _ = std::fs::remove_file(&inner.data_socket);
        let _ = std::fs::remove_file(&inner.control_socket);
        entries
            .iter()
            .map(|e| SessionReport {
                id: e.id,
                name: e.name.clone(),
                lifeguard: e.lifeguard.clone(),
                threads: e.threads,
                result: e.report_for().unwrap_or_else(|| {
                    Err(SessionError::Deadlock(
                        "session never drained before daemon teardown".into(),
                    ))
                }),
            })
            .collect()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------------
// Data plane: one blocking reader thread per producer connection
// ---------------------------------------------------------------------------

/// Wakes the accept loop blocked on the listener at `path` with a
/// connection of its own, and joins it. A loop that cannot be reached (its
/// socket file is gone) is left to the process rather than waited for.
fn join_accept_loop<T>(handle: Option<JoinHandle<T>>, path: &Path) -> Option<T> {
    let handle = handle?;
    if UnixStream::connect(path).is_err() && !handle.is_finished() {
        return None;
    }
    handle.join().ok()
}

/// Blocks in `accept` and hands each connection to `serve` until the daemon
/// stops; [`join_accept_loop`]'s own connection is what wakes it then.
fn accept_until_stopped(
    inner: &DaemonInner,
    listener: &UnixListener,
    mut serve: impl FnMut(UnixStream),
) {
    loop {
        let accepted = listener.accept();
        if inner.stop_threads.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => serve(stream),
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Out of fds or the like: let connections close before retrying.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The data socket's accept loop: one reader thread per producer
/// connection, each registered (a clone of its socket) so shutdown can end
/// its read. Returns the readers still running when the daemon stopped.
fn data_loop(inner: &Arc<DaemonInner>, listener: &UnixListener) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u64;
    accept_until_stopped(inner, listener, |stream| {
        readers.retain(|r| !r.is_finished());
        let Ok(clone) = stream.try_clone() else {
            return;
        };
        let conn = next_conn;
        next_conn += 1;
        inner
            .producers
            .lock()
            .expect("poisoned")
            .insert(conn, clone);
        let spawned = {
            let inner = Arc::clone(inner);
            std::thread::Builder::new()
                .name("paralogd-reader".into())
                .spawn(move || {
                    read_producer(&inner, stream);
                    inner.producers.lock().expect("poisoned").remove(&conn);
                })
        };
        match spawned {
            Ok(reader) => readers.push(reader),
            Err(_) => {
                inner.producers.lock().expect("poisoned").remove(&conn);
            }
        }
    });
    readers
}

enum ConnState {
    Handshaking {
        line: Vec<u8>,
    },
    Streaming {
        entry: Arc<SessionEntry>,
        parser: FrameParser,
    },
}

struct Conn {
    stream: UnixStream,
    state: ConnState,
}

/// Serves one producer connection with blocking reads: handshakes, then
/// shovels frame payloads into the session's feeds and wakes the pool after
/// each read. Back-pressure is applied here by *not reading* while the
/// session sits above its buffered-byte cap.
fn read_producer(inner: &Arc<DaemonInner>, stream: UnixStream) {
    let mut conn = Conn {
        stream,
        state: ConnState::Handshaking { line: Vec::new() },
    };
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if let ConnState::Streaming { entry, .. } = &conn.state {
            if !entry.buffered.wait_under_cap() {
                // Released above the cap: the session is over, so nothing
                // will ever drain its buffer and the producer would sit in
                // `write` for good — or the daemon is stopping.
                let reason = entry.with_report(|report| {
                    report.map(|result| match result {
                        Ok(_) => "session already ended".to_string(),
                        Err(e) => format!("session failed: {e}"),
                    })
                });
                if let Some(reason) = reason {
                    let _ = conn.stream.write_all(format!("ERR {reason}\n").as_bytes());
                }
                return;
            }
        }
        let alive = match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn_ended(&mut conn);
                false
            }
            Ok(n) => conn_bytes(inner, &mut conn, &buf[..n]),
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn_ended(&mut conn);
                false
            }
        };
        // Whatever the read fed or closed, a lane may now run.
        inner.pool.wake();
        if !alive {
            return;
        }
    }
}

/// Orderly or not, the connection is gone: close the session's feeds so
/// its lanes drain and report. A mid-frame cut is a transport fault the
/// session fails on explicitly (the feed bytes alone might happen to end
/// on a record boundary and mask the truncation).
fn conn_ended(conn: &mut Conn) {
    if let ConnState::Streaming { entry, parser } = &conn.state {
        if !parser.at_boundary() {
            if let Some(session) = entry.session_handle() {
                session.fail(SessionError::MalformedStream(
                    "producer connection ended mid-frame".into(),
                ));
            }
        }
        entry.close_feeds();
    }
}

/// Feeds freshly read bytes through the connection's state machine.
/// Returns whether the connection stays alive.
fn conn_bytes(inner: &Arc<DaemonInner>, conn: &mut Conn, mut bytes: &[u8]) -> bool {
    if let ConnState::Handshaking { line } = &mut conn.state {
        let nl = bytes.iter().position(|&b| b == b'\n');
        match nl {
            None => {
                line.extend_from_slice(bytes);
                if line.len() > proto::MAX_HANDSHAKE_BYTES {
                    let _ = conn.stream.write_all(b"ERR handshake too long\n");
                    return false;
                }
                return true;
            }
            Some(pos) => {
                line.extend_from_slice(&bytes[..pos]);
                bytes = &bytes[pos + 1..];
                let parsed = std::str::from_utf8(line)
                    .map_err(|_| "handshake is not UTF-8".to_string())
                    .and_then(|s| proto::parse_attach(s.trim_end_matches('\r')))
                    .and_then(|req| inner.attach(&req).map(|entry| (req, entry)));
                match parsed {
                    Ok((_req, entry)) => {
                        if conn
                            .stream
                            .write_all(format!("OK {}\n", entry.id).as_bytes())
                            .is_err()
                        {
                            entry.close_feeds();
                            return false;
                        }
                        conn.state = ConnState::Streaming {
                            entry,
                            parser: FrameParser::new(),
                        };
                    }
                    Err(reason) => {
                        // A malformed handshake costs exactly this
                        // connection; the daemon keeps serving.
                        let _ = conn.stream.write_all(format!("ERR {reason}\n").as_bytes());
                        return false;
                    }
                }
            }
        }
    }
    let ConnState::Streaming { entry, parser } = &mut conn.state else {
        return true;
    };
    if bytes.is_empty() {
        return true;
    }
    let feeds = entry.feeds.lock().expect("poisoned").clone();
    if feeds.is_empty() {
        return false; // session already finalized; drop the producer
    }
    let threads = entry.threads;
    let mut fault: Option<String> = None;
    let fed = parser.feed(bytes, |event| match event {
        FrameEvent::Data { tid, payload } => {
            let Some(feed) = feeds.get(tid as usize) else {
                if fault.is_none() {
                    fault = Some(format!(
                        "frame for thread {tid} but the session declared {threads}"
                    ));
                }
                return;
            };
            feed.write(payload);
        }
        FrameEvent::EndThread { tid } => {
            if let Some(feed) = feeds.get(tid as usize) {
                feed.close();
            }
        }
        FrameEvent::EndAll => {
            for feed in &feeds {
                feed.close();
            }
        }
    });
    let fault = fault.or(fed.err());
    if let Some(detail) = fault {
        // Mid-stream protocol corruption: fail *this* session on the
        // control surface, drain it, drop the producer — daemon lives on.
        if let Some(session) = entry.session_handle() {
            session.fail(SessionError::MalformedStream(detail));
        }
        entry.close_feeds();
        return false;
    }
    true
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

fn control_loop(inner: &Arc<DaemonInner>, listener: &UnixListener) {
    accept_until_stopped(inner, listener, |stream| {
        let inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name("paralogd-ctl-conn".into())
            .spawn(move || control_conn(&inner, stream));
    });
}

/// Serves one control connection: one command per line (at most
/// [`proto::MAX_HANDSHAKE_BYTES`]), each response terminated by a lone `.`.
fn control_conn(inner: &Arc<DaemonInner>, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    // A line read in part before a timeout is kept for the next read.
    let mut line = Vec::new();
    loop {
        if inner.stop_threads.load(Ordering::Acquire) {
            return;
        }
        let room = proto::MAX_HANDSHAKE_BYTES + 1 - line.len();
        match std::io::BufRead::read_until(&mut (&mut reader).take(room as u64), b'\n', &mut line) {
            Ok(0) if line.is_empty() => return,
            Ok(_) => {}
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        if line.len() > proto::MAX_HANDSHAKE_BYTES {
            let _ = respond_err(&mut writer, "line too long");
            return;
        }
        let text = String::from_utf8_lossy(&std::mem::take(&mut line)).into_owned();
        let command = text.trim();
        if command.is_empty() {
            continue;
        }
        let mut parts = command.split_ascii_whitespace();
        let verb = parts.next().unwrap_or("").to_ascii_uppercase();
        let arg = parts.next();
        let ok = match verb.as_str() {
            "PING" => respond(&mut writer, &["OK pong".into()]),
            "LIST" => {
                let sessions = inner.sessions.lock().expect("poisoned");
                let mut lines: Vec<String> = sessions
                    .values()
                    .map(|e| {
                        let records = e
                            .session_handle()
                            .map(|s| s.records())
                            .or_else(|| e.reported_records())
                            .unwrap_or(0);
                        format!(
                            "session {} name={} lifeguard={} threads={} state={} records={}",
                            e.id,
                            e.name,
                            e.lifeguard,
                            e.threads,
                            e.state(),
                            records
                        )
                    })
                    .collect();
                drop(sessions);
                let pool = inner.pool.counters();
                lines.push(format!(
                    "pool workers={} live_tasks={} slices={} idle_slices={} idle_sleeps={} wakes={} \
                     backstops={}",
                    inner.pool.worker_count(),
                    inner.pool.live_tasks(),
                    pool.slices,
                    pool.idle_slices,
                    pool.idle_sleeps,
                    pool.wakes,
                    pool.backstops
                ));
                respond(&mut writer, &lines)
            }
            "STATUS" => match arg.and_then(|a| a.parse::<u64>().ok()) {
                Some(id) => match inner.entry(id) {
                    Some(entry) => respond(&mut writer, &status_lines(&entry)),
                    None => respond_err(&mut writer, &format!("no session {id}")),
                },
                None => respond_err(&mut writer, "usage: STATUS <id>"),
            },
            "DETACH" => match arg.and_then(|a| a.parse::<u64>().ok()) {
                Some(id) => match inner.entry(id) {
                    Some(entry) => {
                        entry.close_feeds();
                        inner.pool.wake();
                        respond(&mut writer, &[format!("OK detaching {id}")])
                    }
                    None => respond_err(&mut writer, &format!("no session {id}")),
                },
                None => respond_err(&mut writer, "usage: DETACH <id>"),
            },
            "WATCH" => match arg.and_then(|a| a.parse::<u64>().ok()) {
                Some(id) => match inner.entry(id) {
                    Some(entry) => {
                        watch_conn(inner, &entry, &mut writer);
                        return; // a watch consumes the connection
                    }
                    None => respond_err(&mut writer, &format!("no session {id}")),
                },
                None => respond_err(&mut writer, "usage: WATCH <id>"),
            },
            "SHUTDOWN" => {
                let ok = respond(&mut writer, &["OK shutting down".into()]);
                inner.request_shutdown();
                ok
            }
            other => respond_err(&mut writer, &format!("unknown command {other:?}")),
        };
        if !ok {
            return;
        }
    }
}

fn respond(writer: &mut UnixStream, lines: &[String]) -> bool {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(".\n");
    writer.write_all(out.as_bytes()).is_ok()
}

fn respond_err(writer: &mut UnixStream, reason: &str) -> bool {
    respond(writer, &[format!("ERR {reason}")])
}

fn status_lines(entry: &Arc<SessionEntry>) -> Vec<String> {
    let mut lines = vec![
        format!("session {}", entry.id),
        format!("name {}", entry.name),
        format!("lifeguard {}", entry.lifeguard),
        format!("threads {}", entry.threads),
        format!("tso {}", u8::from(entry.tso)),
        format!("metadata {}", entry.shape),
        format!("state {}", entry.state()),
        format!("buffered_bytes {}", entry.buffered.bytes()),
        format!("watch_lines_lost {}", entry.watchers.lines_lost()),
    ];
    // Applied-record throughput over the session's wall-clock lifetime so
    // far (finished sessions keep reporting their final average).
    let applied = entry
        .session_handle()
        .map(|s| s.records())
        .or_else(|| entry.reported_records())
        .unwrap_or(0);
    let end = entry
        .finished_at
        .get()
        .copied()
        .unwrap_or_else(Instant::now);
    let elapsed = end
        .duration_since(entry.attached_at)
        .as_secs_f64()
        .max(1e-6);
    lines.push(format!("records_per_sec {:.0}", applied as f64 / elapsed));
    let report = entry.report_for();
    match (&report, entry.session_handle()) {
        (Some(Err(err)), _) => {
            lines.push(format!("error {err}"));
        }
        (Some(Ok(metrics)), _) => push_metrics_lines(&mut lines, metrics),
        (None, Some(session)) => {
            lines.push(format!("blocked_polls {}", session.blocked_polls()));
            let metrics = session.snapshot_metrics();
            push_metrics_lines(&mut lines, &metrics);
        }
        (None, None) => lines.push("error session state unavailable".into()),
    }
    lines
}

fn push_metrics_lines(lines: &mut Vec<String>, metrics: &RunMetrics) {
    lines.push(format!("records {}", metrics.records));
    lines.push(format!("stalls {}", metrics.dependence_stalls));
    lines.push(format!("fingerprint {:016x}", metrics.fingerprint));
    for v in &metrics.violations {
        lines.push(violation_line(v));
    }
    for ev in &metrics.events {
        lines.push(format!("event {ev}"));
    }
}

/// Streams a session's live feed over the control connection until the
/// session ends (`lost <n>` if the subscribers' channels ever overflowed,
/// the `end` line, then `.`), the subscriber disconnects, or the daemon
/// stops.
fn watch_conn(inner: &Arc<DaemonInner>, entry: &Arc<SessionEntry>, writer: &mut UnixStream) {
    let rx = {
        // Serialized against the publisher via the cursor lock: either the
        // session is already over (report the whole thing) or we register
        // before any further line is published.
        let cursor = entry.watchers.cursor.lock().expect("poisoned");
        let over = entry.with_report(|report| {
            report.map(|result| {
                let mut lines = Vec::new();
                if let Ok(m) = result {
                    lines.extend(m.violations.iter().map(violation_line));
                    lines.extend(m.events.iter().map(|ev| format!("event {ev}")));
                }
                lines.push(end_line(result));
                lines
            })
        });
        if let Some(lines) = over {
            drop(cursor);
            let _ = respond(writer, &lines);
            return;
        }
        // Backlog: everything published so far, straight from the session.
        if let Some(session) = entry.session_handle() {
            let mut out = String::new();
            for v in session.violations_since(0).iter().take(*cursor) {
                out.push_str(&violation_line(v));
                out.push('\n');
            }
            if !out.is_empty() && writer.write_all(out.as_bytes()).is_err() {
                return;
            }
        }
        let (tx, rx) = sync_channel::<String>(1024);
        entry.watchers.senders.lock().expect("poisoned").push(tx);
        entry.watchers.subscribers.fetch_add(1, Ordering::Relaxed);
        rx
    };
    loop {
        if inner.stop_threads.load(Ordering::Acquire) {
            let _ = writer.write_all(b".\n");
            return;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(mut line) => {
                line.push('\n');
                if writer.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // The session ended and everything queued went out.
                let mut lines = Vec::new();
                match entry.watchers.lines_lost() {
                    0 => {}
                    lost => lines.push(format!("lost {lost}")),
                }
                lines.extend(entry.with_report(|report| report.map(end_line)));
                let _ = respond(writer, &lines);
                return;
            }
        }
    }
}
