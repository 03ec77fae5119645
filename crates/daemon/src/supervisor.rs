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
//! Every daemon wait ends on its event. Both listeners block in `accept`,
//! and [`Daemon::shutdown`] wakes each with a connection of its own, ends
//! every connection thread's blocking `read` through the clone registered
//! at accept, and waits for each session's end on the condvar that end
//! notifies; a `WATCH` ends when that end closes its channel. The only
//! clocks bound waits that might never end: the drain deadline and the
//! pause after a failed `accept`.
//!
//! Lifecycle per session: **attach** (handshake, lanes submitted) →
//! **running** → **draining** (producer finished, detached, or daemon
//! shutting down: feeds closed, lanes deliver what is buffered) →
//! **done/failed** (report composed, heavy session state dropped; the
//! `SessionEntry` that remains is bookkeeping only). A dropped producer
//! therefore yields *partial but valid* `RunMetrics` when its streams end
//! on record boundaries with no dangling arcs, and a deterministic
//! [`SessionError`] otherwise — never a wedged session. The entry's one
//! lifecycle field is its [`Phase`]: `Live` until done or failed, then `Over`.

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
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// Where a session is in its life. The move from `Live` to `Over` is the
/// session's exactly-once end: it stores the report and drops the heavy
/// session state in one step, so whoever reads the session as over finds
/// that state already gone.
#[allow(clippy::large_enum_variant)] // one per session, never moved
enum Phase {
    Live {
        /// The live session handle; dropped with the phase, so finished
        /// sessions do not pin multi-megabyte metadata.
        session: CoopSession,
        /// Producer-side feed writers, one per thread.
        feeds: Vec<FeedWriter>,
        /// The feeds were closed: lanes deliver what is buffered, then end.
        draining: bool,
    },
    Over {
        /// When the session finished — where the throughput `STATUS`
        /// reports is measured to.
        at: Instant,
        result: Result<RunMetrics, SessionError>,
    },
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
    /// The connection's reader feeds frames under this lock; `STATUS` and
    /// `LIST` clone the session handle out of it before calling into it.
    phase: Mutex<Phase>,
    /// Notified when `phase` moves to `Over`.
    over: Condvar,
    buffered: Arc<SessionBuffer>,
    watchers: Arc<Watchers>,
}

impl SessionEntry {
    fn phase(&self) -> MutexGuard<'_, Phase> {
        self.phase.lock().expect("poisoned")
    }

    fn state(&self) -> &'static str {
        match &*self.phase() {
            Phase::Over { result: Ok(_), .. } => "done",
            Phase::Over { result: Err(_), .. } => "failed",
            Phase::Live { draining: true, .. } => "draining",
            Phase::Live { .. } => "running",
        }
    }

    /// Closes every feed: lanes drain what is buffered, then finish. The
    /// caller wakes the pool.
    fn close_feeds(&self) {
        if let Phase::Live {
            feeds, draining, ..
        } = &mut *self.phase()
        {
            feeds.iter().for_each(FeedWriter::close);
            *draining = true;
        }
    }

    /// Reads the phase: `live` gets the session handle, cloned out of the
    /// lock so that nothing it calls into holds up the connection's reader;
    /// `over` reads the report in place.
    fn read<R>(
        &self,
        live: impl FnOnce(CoopSession) -> R,
        over: impl FnOnce(Instant, &Result<RunMetrics, SessionError>) -> R,
    ) -> R {
        let phase = self.phase();
        match &*phase {
            Phase::Live { session, .. } => {
                let session = session.clone();
                drop(phase);
                live(session)
            }
            Phase::Over { at, result } => over(*at, result),
        }
    }

    /// Fails a live session with `err` and closes its feeds.
    fn fail(&self, err: SessionError) {
        if let Phase::Live { session, .. } = &*self.phase() {
            session.fail(err);
        }
        self.close_feeds();
    }

    /// Waits for the phase to move to `Over`, up to `deadline`; returns the
    /// session handle if it is still live then.
    fn wait_over(&self, deadline: Instant) -> Option<CoopSession> {
        let left = deadline.saturating_duration_since(Instant::now());
        let (phase, _) = self
            .over
            .wait_timeout_while(self.phase(), left, |p| matches!(p, Phase::Live { .. }))
            .expect("poisoned");
        match &*phase {
            Phase::Live { session, .. } => Some(session.clone()),
            Phase::Over { .. } => None,
        }
    }

    /// Pushes violations the live feed has not seen yet — only those: the
    /// read past the cursor touches no lock when nothing is new. `session`
    /// is the caller's own handle (lane tasks hold one) so this never
    /// touches the entry's phase lock.
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
    /// flushes the live feed and moves the phase to `Over`.
    fn finalize(&self, session: &CoopSession) {
        // Cursor lock serializes against WATCH subscription: a watcher
        // either registers before this flush (and gets the tail, then the
        // close) or after the phase moved (and reads the report whole).
        let mut cursor = self.watchers.cursor.lock().expect("poisoned");
        let mut phase = self.phase();
        if let Phase::Over { .. } = *phase {
            return;
        }
        self.publish_past(&mut cursor, session);
        *phase = Phase::Over {
            at: Instant::now(),
            result: session.report().expect("a complete session has its report"),
        };
        drop(phase);
        drop(cursor);
        self.over.notify_all();
        self.watchers.close();
        // A reader parked above the cap answers its producer now.
        self.buffered.release();
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
    /// Tells the accept loops to exit.
    stop_threads: AtomicBool,
    /// A clone of every connection a reader or control thread serves, by
    /// connection number, so shutdown can end a blocking read; the thread
    /// removes its own as it exits.
    conns: Mutex<BTreeMap<u64, UnixStream>>,
    next_conn: AtomicU64,
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
            phase: Mutex::new(Phase::Live {
                session: session.clone(),
                feeds: writers,
                draining: false,
            }),
            over: Condvar::new(),
            buffered,
            watchers,
        });
        {
            // Under the lock shutdown sets it under: refused, or drained.
            let mut sessions = self.sessions.lock().expect("poisoned");
            if self.shutting_down.load(Ordering::Acquire) {
                return Err("daemon is shutting down".into());
            }
            sessions.insert(id, Arc::clone(&entry));
        }
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
    /// The control socket's accept loop; its connection threads are not
    /// joined, as a `WATCH` may be writing to a client that never reads.
    control: Option<JoinHandle<Vec<JoinHandle<()>>>>,
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
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("paralogd-accept".into())
                .spawn(move || {
                    accept_until_stopped(&inner, &data, "paralogd-reader", read_producer)
                })?
        };
        let ctl = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("paralogd-control".into())
                .spawn(move || {
                    accept_until_stopped(&inner, &control, "paralogd-ctl-conn", control_conn)
                })?
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
            .filter(|e| matches!(*e.phase(), Phase::Live { .. }))
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
        let entries: Vec<Arc<SessionEntry>> = {
            let sessions = inner.sessions.lock().expect("poisoned");
            inner.shutting_down.store(true, Ordering::Release);
            sessions.values().cloned().collect()
        };
        for entry in &entries {
            entry.close_feeds();
        }
        inner.pool.wake();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        for entry in &entries {
            if let Some(session) = entry.wait_over(deadline) {
                session.abort("daemon shutdown with the session still wedged");
            }
        }
        // The join: an aborted lane folds on its next step, so every task
        // finishes, and each session's phase is `Over`, its watchers closed.
        // A worker's panic has no caller to resume into here.
        let _ = inner.pool.shutdown();
        inner.stop_threads.store(true, Ordering::Release);
        // Both joined before any connection is ended, so none can register
        // after.
        let readers = join_accept_loop(self.accept.take(), &inner.data_socket);
        let _ = join_accept_loop(self.control.take(), &inner.control_socket);
        // The read half only: a thread blocked in `read` wakes to its end,
        // a reader a session's end woke above the cap can still write its
        // `ERR` line, and a watcher its `end` line. Each connection closes
        // as its thread returns.
        for conn in inner.conns.lock().expect("poisoned").values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        for entry in inner.sessions.lock().expect("poisoned").values() {
            entry.buffered.release();
        }
        for reader in readers.into_iter().flatten() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&inner.data_socket);
        let _ = std::fs::remove_file(&inner.control_socket);
        entries
            .iter()
            .map(|e| SessionReport {
                id: e.id,
                name: e.name.clone(),
                lifeguard: e.lifeguard.clone(),
                threads: e.threads,
                result: match &*e.phase() {
                    Phase::Over { result, .. } => result.clone(),
                    Phase::Live { .. } => Err(SessionError::Deadlock(
                        "session never drained before daemon teardown".into(),
                    )),
                },
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

/// Blocks in `accept` until the daemon stops ([`join_accept_loop`]'s own
/// connection is what wakes it then), serving each connection on a thread
/// of its own named `name`. Returns the threads still running when the
/// daemon stopped.
fn accept_until_stopped(
    inner: &Arc<DaemonInner>,
    listener: &UnixListener,
    name: &str,
    serve: fn(&Arc<DaemonInner>, UnixStream),
) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if inner.stop_threads.load(Ordering::Acquire) {
            return threads;
        }
        match accepted {
            Ok((stream, _)) => {
                threads.retain(|t| !t.is_finished());
                threads.extend(serve_conn(inner, stream, name, serve));
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Out of fds or the like: let connections close before retrying.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Registers a clone of `stream`, so shutdown can end a blocking read on
/// it, and serves it on a new thread, which removes the clone as it exits.
fn serve_conn(
    inner: &Arc<DaemonInner>,
    stream: UnixStream,
    name: &str,
    serve: fn(&Arc<DaemonInner>, UnixStream),
) -> Option<JoinHandle<()>> {
    let clone = stream.try_clone().ok()?;
    let conn = inner.next_conn.fetch_add(1, Ordering::Relaxed);
    inner.conns.lock().expect("poisoned").insert(conn, clone);
    let spawned = std::thread::Builder::new().name(name.into()).spawn({
        let inner = Arc::clone(inner);
        move || {
            serve(&inner, stream);
            inner.conns.lock().expect("poisoned").remove(&conn);
        }
    });
    if spawned.is_err() {
        // A thread that never started cannot remove its clone.
        inner.conns.lock().expect("poisoned").remove(&conn);
    }
    spawned.ok()
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
                let reason = entry.read(
                    |_| None,
                    |_, result| match result {
                        Ok(_) => Some("session already ended".to_string()),
                        Err(e) => Some(format!("session failed: {e}")),
                    },
                );
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
        if parser.at_boundary() {
            entry.close_feeds();
        } else {
            entry.fail(SessionError::MalformedStream(
                "producer connection ended mid-frame".into(),
            ));
        }
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
    let phase = entry.phase();
    let Phase::Live { feeds, .. } = &*phase else {
        return false; // session already over; drop the producer
    };
    let threads = entry.threads;
    let mut fault: Option<String> = None;
    let fed = parser.feed(bytes, |event| {
        let (tid, payload) = match event {
            FrameEvent::Data { tid, payload } => (tid, Some(payload)),
            FrameEvent::EndThread { tid } => (tid, None),
            FrameEvent::EndAll => {
                feeds.iter().for_each(FeedWriter::close);
                return;
            }
        };
        match (feeds.get(tid as usize), payload) {
            (Some(feed), Some(payload)) => {
                feed.write(payload);
            }
            (Some(feed), None) => feed.close(),
            (None, _) => {
                fault.get_or_insert_with(|| {
                    format!("frame for thread {tid} but the session declared {threads}")
                });
            }
        }
    });
    drop(phase);
    let Some(detail) = fault.or(fed.err()) else {
        return true;
    };
    // Mid-stream protocol corruption: fail *this* session on the control
    // surface, drain it, drop the producer — daemon lives on.
    entry.fail(SessionError::MalformedStream(detail));
    false
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

/// Serves one control connection: one command per line (at most
/// [`proto::MAX_HANDSHAKE_BYTES`]), each response terminated by a lone `.`.
/// Each read blocks until a line, the client's hangup, or shutdown ending
/// the read half.
fn control_conn(inner: &Arc<DaemonInner>, stream: UnixStream) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        let room = proto::MAX_HANDSHAKE_BYTES as u64 + 1;
        match std::io::BufRead::read_until(&mut (&mut reader).take(room), b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
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
                        format!(
                            "session {} name={} lifeguard={} threads={} state={} records={}",
                            e.id,
                            e.name,
                            e.lifeguard,
                            e.threads,
                            e.state(),
                            e.read(
                                |session| session.records(),
                                |_, result| result.as_ref().map_or(0, |m| m.records),
                            )
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
                        watch_conn(&entry, &mut writer);
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
    let rate = |records: u64, end: Instant| {
        let elapsed = end.duration_since(entry.attached_at).as_secs_f64();
        format!("records_per_sec {:.0}", records as f64 / elapsed.max(1e-6))
    };
    lines.extend(entry.read(
        |session| {
            let mut lines = vec![
                rate(session.records(), Instant::now()),
                format!("blocked_polls {}", session.blocked_polls()),
            ];
            push_metrics_lines(&mut lines, &session.snapshot_metrics());
            let parked = session.parked_lanes().into_iter();
            lines.extend(parked.map(|waits| format!("lane {waits}")));
            lines
        },
        |at, result| match result {
            Ok(metrics) => {
                let mut lines = vec![rate(metrics.records, at)];
                push_metrics_lines(&mut lines, metrics);
                lines
            }
            Err(err) => vec![rate(0, at), format!("error {err}")],
        },
    ));
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
/// the `end` line, then `.`) or the subscriber disconnects. The daemon's
/// shutdown ends every session, so it ends every feed too.
fn watch_conn(entry: &SessionEntry, writer: &mut UnixStream) {
    let rx = {
        // Serialized against the publisher via the cursor lock: either the
        // session is already over (report the whole thing) or we register
        // before any further line is published.
        let mut cursor = entry.watchers.cursor.lock().expect("poisoned");
        let over = |_, result: &Result<RunMetrics, SessionError>| {
            let mut lines = Vec::new();
            if let Ok(m) = result {
                lines.extend(m.violations.iter().map(violation_line));
                lines.extend(m.events.iter().map(|ev| format!("event {ev}")));
            }
            lines.push(end_line(result));
            Err(lines)
        };
        let session = match entry.read(Ok, over) {
            Ok(session) => session,
            Err(lines) => {
                drop(cursor);
                let _ = respond(writer, &lines);
                return;
            }
        };
        // Violations found while nobody watched were never published: do
        // it now, so the backlog holds every one found so far.
        entry.publish_past(&mut cursor, &session);
        // Backlog: everything published so far, straight from the session.
        let mut out = String::new();
        for v in session.violations_since(0).iter().take(*cursor) {
            out.push_str(&violation_line(v));
            out.push('\n');
        }
        if !out.is_empty() && writer.write_all(out.as_bytes()).is_err() {
            return;
        }
        let (tx, rx) = sync_channel::<String>(1024);
        entry.watchers.senders.lock().expect("poisoned").push(tx);
        entry.watchers.subscribers.fetch_add(1, Ordering::Relaxed);
        rx
    };
    while let Ok(mut line) = rx.recv() {
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            return;
        }
    }
    // The session ended and everything queued went out.
    let mut lines = Vec::new();
    match entry.watchers.lines_lost() {
        0 => {}
        lost => lines.push(format!("lost {lost}")),
    }
    lines.extend(entry.read(|_| None, |_, result| Some(end_line(result))));
    let _ = respond(writer, &lines);
}
