//! Event sources: where a monitoring session's event streams come from.
//!
//! ParaLog's original harness hard-wired the built-in workload simulator as
//! the only producer of events. [`EventSource`] opens that seam: a session
//! can monitor
//!
//! * a simulated [`Workload`] (the classic co-simulated capture),
//! * a [`ReplaySource`] of pre-captured per-thread streams, or
//! * a [`StreamingReplaySource`] decoding the codec wire form lazily from
//!   any `io::Read`, with bounded resident buffering.
//!
//! The last is also the one live path. `paralogd` writes each frame's
//! payload into a non-blocking `ByteFeed` (in the daemon crate) and the
//! session reads it back through a `StreamingReplaySource`; a producer that
//! must not outrun the monitor waits while the session's buffered bytes
//! are over its cap. An in-process producer does the same.
//!
//! # The streaming protocol
//!
//! Ingestion is *incremental*: a source resolves to one [`RecordStream`]
//! per monitored thread, and backends pull bounded batches on demand with
//! [`RecordStream::next_batch`]. Each pull returns one of three states:
//!
//! * [`StreamStatus::Yielded`] — at least one record was appended to the
//!   caller's buffer; pull again for more.
//! * [`StreamStatus::Blocked`] — nothing is available *yet*, but the
//!   producer is still alive (an online feed that has not caught up). The
//!   backend must keep the session parked — this is **not** a deadlock,
//!   and backends distinguish it from an unsatisfiable dependence arc.
//! * [`StreamStatus::Exhausted`] — the stream ended; no record will ever
//!   arrive again. Once every stream is exhausted, any record still gated
//!   on an unmet arc can never be released: *that* is reported as
//!   [`SessionError::Deadlock`] (a truncated or malformed capture).
//!
//! The contract is what makes ingestion online with bounded memory: a
//! backend holds at most one batch per thread, a decoding source holds at
//! most one transport chunk plus one partial record, and nobody ever
//! materializes a whole stream. `Exhausted`/`Blocked` are sticky per the
//! obvious reading: after `Exhausted`, every later pull returns
//! `Exhausted`; after `Blocked`, any state may follow.
//!
//! Both replay loops consume the protocol through one cursor, `LaneInput`,
//! which holds the only reading of the three states.

use paralog_events::codec::StreamDecoder;
use paralog_events::{AddrRange, EventPayload, EventRecord};
use paralog_workloads::Workload;
use std::fmt;
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::SessionError;

/// Result of one [`RecordStream::next_batch`] pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// At least one record was appended to the caller's buffer.
    Yielded,
    /// No records are available yet; the producer may still supply more.
    Blocked,
    /// The stream is complete; no further records will ever arrive.
    Exhausted,
}

/// One monitored thread's incremental record stream (see the module docs
/// for the yielded/blocked/exhausted protocol).
///
/// Streams are `Send` so the real-thread backend can move each one into the
/// worker that owns it.
pub trait RecordStream: Send + fmt::Debug {
    /// Pulls up to `max` records, appending them to `out`.
    ///
    /// # Errors
    ///
    /// [`SessionError::MalformedStream`] when the underlying transport
    /// yields bytes that can never decode to a record (corruption, or a
    /// wire stream truncated mid-record).
    fn next_batch(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<StreamStatus, SessionError>;

    /// Cumulative wire bytes consumed from the underlying transport so far.
    ///
    /// Already-materialized (raw) streams have no transport and report `0`,
    /// which is what makes the replay cycle model's transport phase vanish
    /// for raw captures while wire replays of the *same* capture charge the
    /// decode traffic (the analysis phase stays identical either way).
    fn transport_bytes(&self) -> u64 {
        0
    }
}

/// The concrete input an [`EventSource`] resolves to when the session runs.
#[derive(Debug)]
pub enum SourceInput {
    /// A workload to co-simulate: the application side runs under the
    /// deterministic machine model and produces events online.
    Workload(Workload),
    /// One incremental record stream per monitored thread.
    Streams(Vec<Box<dyn RecordStream>>),
}

impl SourceInput {
    /// Wraps already-materialized per-thread streams (each becomes a
    /// [`BufferedStream`]).
    pub fn from_buffered(streams: Vec<Vec<EventRecord>>) -> Self {
        SourceInput::Streams(
            streams
                .into_iter()
                .map(|s| Box::new(BufferedStream::new(s)) as Box<dyn RecordStream>)
                .collect(),
        )
    }
}

/// A producer of per-thread event streams for one monitoring session.
///
/// Implementations describe their shape (`thread_count`, `heap`) up front
/// and are consumed into a [`SourceInput`] when the session runs.
pub trait EventSource: fmt::Debug {
    /// Number of monitored application threads.
    fn thread_count(&self) -> usize;

    /// The monitored application's heap region (lifeguards like AddrCheck
    /// scope their checks to it).
    fn heap(&self) -> AddrRange;

    /// Resolves this source into concrete backend input.
    fn open(self: Box<Self>) -> SourceInput;
}

/// The built-in simulated application: events are captured online while the
/// workload executes on the modeled CMP.
impl EventSource for Workload {
    fn thread_count(&self) -> usize {
        Workload::thread_count(self)
    }

    fn heap(&self) -> AddrRange {
        self.heap
    }

    fn open(self: Box<Self>) -> SourceInput {
        SourceInput::Workload(*self)
    }
}

/// An already-materialized stream served through the incremental protocol:
/// yields bounded batches until drained, then reports `Exhausted`. The
/// adapter every buffered source ([`ReplaySource`], the threaded backend's
/// workload captures) reduces to.
#[derive(Debug)]
pub struct BufferedStream {
    records: std::vec::IntoIter<EventRecord>,
}

impl BufferedStream {
    /// Wraps a materialized stream.
    pub fn new(records: Vec<EventRecord>) -> Self {
        BufferedStream {
            records: records.into_iter(),
        }
    }
}

impl RecordStream for BufferedStream {
    fn next_batch(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<StreamStatus, SessionError> {
        if self.records.len() == 0 {
            return Ok(StreamStatus::Exhausted);
        }
        out.extend(self.records.by_ref().take(max));
        Ok(StreamStatus::Yielded)
    }
}

/// Records pulled from a stream per refill — the backend-side buffering
/// bound (each thread holds at most one batch).
pub(crate) const INGEST_BATCH: usize = 256;

/// What one [`LaneInput::refill`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refill {
    /// The batch holds records; [`LaneInput::head`] is the first.
    Ready,
    /// Nothing arrived, and the producer is still there: come back later.
    Lagging,
    /// The stream ended and every record it carried was consumed.
    Ended,
}

/// One lane's input cursor: the stream, the one batch pulled from it, and
/// how far into the batch the lane has got. The stream writes a record into
/// the batch once and every later stage — gate, produce, consume, police,
/// apply — reads it there through [`head`](Self::head).
///
/// Every pulled record's arc sources and ConflictAlert issuer are checked
/// against the session's thread count here, so the progress and range
/// tables those index never see a thread outside the session.
pub(crate) struct LaneInput {
    stream: Box<dyn RecordStream>,
    /// Threads in the session: the bound on every thread a record names.
    threads: usize,
    batch: Vec<EventRecord>,
    /// Index in `batch` of the next record to deliver.
    head: usize,
    /// The stream reported `Exhausted`: no pull will ever yield again.
    eof: bool,
}

impl LaneInput {
    pub(crate) fn new(stream: Box<dyn RecordStream>, threads: usize) -> Self {
        LaneInput {
            stream,
            threads,
            batch: Vec::with_capacity(INGEST_BATCH),
            head: 0,
            eof: false,
        }
    }

    /// The next record to deliver, if the batch still holds one.
    pub(crate) fn head(&self) -> Option<&EventRecord> {
        self.batch.get(self.head)
    }

    /// The batch's undelivered records, the head first.
    pub(crate) fn pending(&self) -> &[EventRecord] {
        &self.batch[self.head..]
    }

    /// Steps past the head record (it was delivered).
    pub(crate) fn advance(&mut self) {
        self.advance_by(1);
    }

    /// Steps past the `n` records from the head (they were delivered).
    pub(crate) fn advance_by(&mut self, n: usize) {
        debug_assert!(n <= self.pending().len(), "past the batch");
        self.head += n;
    }

    /// Whether the stream ended and its last record was delivered.
    pub(crate) fn ended(&self) -> bool {
        self.eof && self.head().is_none()
    }

    /// See [`RecordStream::transport_bytes`].
    pub(crate) fn transport_bytes(&self) -> u64 {
        self.stream.transport_bytes()
    }

    /// Replaces the consumed batch with one pull of up to [`INGEST_BATCH`]
    /// records. Call only once [`head`](Self::head) is `None`.
    pub(crate) fn refill(&mut self) -> Result<Refill, SessionError> {
        debug_assert!(self.head().is_none(), "refill drops undelivered records");
        if self.eof {
            return Ok(Refill::Ended);
        }
        self.batch.clear();
        self.head = 0;
        let status = self.stream.next_batch(&mut self.batch, INGEST_BATCH)?;
        self.eof = matches!(status, StreamStatus::Exhausted);
        // Most records carry no arc and no ConflictAlert: nothing to check.
        for rec in &self.batch {
            if !rec.arcs.is_empty() || matches!(rec.payload, EventPayload::Ca(_)) {
                self.check_threads(rec)?;
            }
        }
        // What arrived counts whatever the status: a stream may deliver a
        // partial batch and *then* report `Blocked` or `Exhausted`. Nothing
        // from a live stream (`WouldBlock` behind a non-blocking reader, or
        // an empty `Yielded`, a protocol violation) is a lagging producer.
        Ok(if !self.batch.is_empty() {
            Refill::Ready
        } else if self.eof {
            Refill::Ended
        } else {
            Refill::Lagging
        })
    }

    /// Refuses `rec` if an arc source or its ConflictAlert issuer is not a
    /// thread of the session.
    fn check_threads(&self, rec: &EventRecord) -> Result<(), SessionError> {
        let issuer = match &rec.payload {
            EventPayload::Ca(ca) => Some(("ConflictAlert issuer", ca.issuer)),
            EventPayload::Instr(_) => None,
        };
        let named = rec.arcs.iter().map(|arc| ("arc source", arc.src));
        match named.chain(issuer).find(|(_, t)| t.index() >= self.threads) {
            None => Ok(()),
            Some((what, t)) => Err(SessionError::MalformedStream(format!(
                "record {} names {what} {t}, outside the session's {} threads",
                rec.rid, self.threads
            ))),
        }
    }
}

/// Replays pre-captured per-thread streams — externally captured logs
/// ingested by a lifeguard-only session (no application co-simulation).
///
/// This is the *buffered* convenience shape: the streams are materialized
/// up front and served through the incremental protocol as
/// [`BufferedStream`]s, so it shares every code path with — and is the
/// equivalence baseline for — [`StreamingReplaySource`].
#[derive(Debug, Clone)]
pub struct ReplaySource {
    streams: Vec<Vec<EventRecord>>,
    heap: AddrRange,
}

impl ReplaySource {
    /// Wraps per-thread streams captured earlier (e.g. a parallel run's
    /// [`RunMetrics::streams`](crate::RunMetrics)). `heap` is the monitored
    /// application's heap region.
    pub fn new(streams: Vec<Vec<EventRecord>>, heap: AddrRange) -> Self {
        ReplaySource { streams, heap }
    }
}

impl EventSource for ReplaySource {
    fn thread_count(&self) -> usize {
        self.streams.len()
    }

    fn heap(&self) -> AddrRange {
        self.heap
    }

    fn open(self: Box<Self>) -> SourceInput {
        SourceInput::from_buffered(self.streams)
    }
}

/// Buffering statistics of a streaming source, shared with the handle the
/// caller kept (the source itself is consumed when the session runs).
#[derive(Debug, Default)]
pub struct SourceStats {
    peak_buffered: AtomicUsize,
}

impl SourceStats {
    /// High-water mark of bytes resident in any one stream's decode buffer
    /// — the quantity [`DEFAULT_CHUNK_BYTES`] bounds.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered.load(Ordering::Relaxed)
    }

    fn note(&self, buffered: usize) {
        self.peak_buffered.fetch_max(buffered, Ordering::Relaxed);
    }
}

/// The transport chunk [`StreamingReplaySource`] reads: the memory cap per
/// stream is one chunk plus one partial record.
pub const DEFAULT_CHUNK_BYTES: usize = 8 * 1024;

/// Streams codec-encoded logs from arbitrary byte readers, decoding
/// incrementally — the genuinely *online* ingestion shape: a session can
/// monitor a log as it is produced (a file being appended, a socket, a
/// pipe), holding only one transport chunk plus one partial record per
/// thread in memory.
///
/// The [`stats`](Self::stats) handle reports the observed high-water mark
/// so tests (and operators) can verify residency stays within budget.
pub struct StreamingReplaySource {
    readers: Vec<Box<dyn Read + Send>>,
    heap: AddrRange,
    stats: Arc<SourceStats>,
}

impl fmt::Debug for StreamingReplaySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingReplaySource")
            .field("threads", &self.readers.len())
            .finish_non_exhaustive()
    }
}

impl StreamingReplaySource {
    /// One codec wire stream per monitored thread, each read lazily.
    pub fn new(readers: Vec<Box<dyn Read + Send>>, heap: AddrRange) -> Self {
        StreamingReplaySource {
            readers,
            heap,
            stats: Arc::new(SourceStats::default()),
        }
    }

    /// Convenience: streams served from in-memory encoded bytes (tests,
    /// benchmarks). The bytes are still decoded incrementally.
    pub fn from_encoded(encoded: Vec<Vec<u8>>, heap: AddrRange) -> Self {
        StreamingReplaySource::new(
            encoded
                .into_iter()
                .map(|bytes| Box::new(std::io::Cursor::new(bytes)) as Box<dyn Read + Send>)
                .collect(),
            heap,
        )
    }

    /// The buffering-statistics handle (keep a clone before the session
    /// consumes the source).
    pub fn stats(&self) -> Arc<SourceStats> {
        Arc::clone(&self.stats)
    }
}

impl EventSource for StreamingReplaySource {
    fn thread_count(&self) -> usize {
        self.readers.len()
    }

    fn heap(&self) -> AddrRange {
        self.heap
    }

    fn open(self: Box<Self>) -> SourceInput {
        let stats = self.stats;
        SourceInput::Streams(
            self.readers
                .into_iter()
                .map(|reader| {
                    Box::new(DecodingStream {
                        reader,
                        decoder: StreamDecoder::new(),
                        chunk: vec![0; DEFAULT_CHUNK_BYTES],
                        eof: false,
                        stats: Arc::clone(&stats),
                        wire_bytes: 0,
                    }) as Box<dyn RecordStream>
                })
                .collect(),
        )
    }
}

/// Incremental decode of one codec wire stream from a byte reader.
struct DecodingStream {
    reader: Box<dyn Read + Send>,
    decoder: StreamDecoder,
    /// Reusable transport chunk, [`DEFAULT_CHUNK_BYTES`] long.
    chunk: Vec<u8>,
    eof: bool,
    stats: Arc<SourceStats>,
    /// Cumulative wire bytes fed to the decoder (transport accounting).
    wire_bytes: u64,
}

impl fmt::Debug for DecodingStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodingStream")
            .field("records", &self.decoder.records())
            .field("eof", &self.eof)
            .finish_non_exhaustive()
    }
}

impl RecordStream for DecodingStream {
    fn next_batch(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<StreamStatus, SessionError> {
        let start = out.len();
        // Why the pull stopped, if short of `max`.
        let idle = loop {
            self.decoder
                .decode_into(out, max - (out.len() - start))
                .map_err(|e| SessionError::MalformedStream(e.to_string()))?;
            if out.len() - start >= max {
                break StreamStatus::Yielded;
            }
            if self.eof {
                break StreamStatus::Exhausted;
            }
            // Refill one bounded transport chunk. A blocking reader blocks
            // here — from the session's view that *is* the producer wait.
            match self.reader.read(&mut self.chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.decoder.feed(&self.chunk[..n]);
                    self.wire_bytes += n as u64;
                    self.stats.note(self.decoder.buffered());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Non-blocking transports surface the producer wait
                // explicitly.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    break StreamStatus::Blocked
                }
                Err(e) => {
                    return Err(SessionError::MalformedStream(format!(
                        "wire stream read failed: {e}"
                    )))
                }
            }
        };
        if out.len() > start {
            Ok(StreamStatus::Yielded)
        } else if idle == StreamStatus::Exhausted && !self.decoder.is_clean() {
            Err(SessionError::MalformedStream(
                "wire stream ended mid-record (truncated transport)".into(),
            ))
        } else {
            Ok(idle)
        }
    }

    fn transport_bytes(&self) -> u64 {
        self.wire_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::codec::encode;
    use paralog_events::{Instr, MemRef, Reg, Rid};

    const HEAP: AddrRange = AddrRange {
        start: 0x1000_0000,
        len: 0x1000_0000,
    };

    fn drain(stream: &mut dyn RecordStream, max: usize) -> (Vec<EventRecord>, StreamStatus) {
        let mut out = Vec::new();
        loop {
            let before = out.len();
            match stream.next_batch(&mut out, max).unwrap() {
                StreamStatus::Yielded => {
                    assert!(out.len() > before, "Yielded must append records")
                }
                status => return (out, status),
            }
        }
    }

    #[test]
    fn buffered_stream_respects_batch_bound() {
        let recs: Vec<EventRecord> = (1..=10)
            .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
            .collect();
        let mut s = BufferedStream::new(recs.clone());
        let mut out = Vec::new();
        assert_eq!(s.next_batch(&mut out, 4).unwrap(), StreamStatus::Yielded);
        assert_eq!(out.len(), 4);
        let (rest, status) = drain(&mut s, 4);
        assert_eq!(rest.len(), 6);
        assert_eq!(status, StreamStatus::Exhausted);
        assert_eq!(
            s.next_batch(&mut out, 4).unwrap(),
            StreamStatus::Exhausted,
            "exhausted is sticky"
        );
    }

    /// Answers each pull with the next scripted (records, status) pair.
    #[derive(Debug)]
    struct Scripted(std::vec::IntoIter<(u64, Result<StreamStatus, SessionError>)>);

    impl RecordStream for Scripted {
        fn next_batch(
            &mut self,
            out: &mut Vec<EventRecord>,
            _max: usize,
        ) -> Result<StreamStatus, SessionError> {
            let (records, status) = self.0.next().expect("pulled past the script");
            out.extend((0..records).map(|i| EventRecord::instr(Rid(i), Instr::Nop)));
            status
        }
    }

    #[test]
    fn lane_input_reads_the_stream_protocol_in_one_place() {
        use StreamStatus::{Blocked, Exhausted, Yielded};
        let broken = || SessionError::MalformedStream("scripted".into());
        // One pull per row: what the stream appends and says, what the
        // cursor makes of it.
        let ladder = [
            ((3, Ok(Yielded)), Ok(Refill::Ready)),
            // A partial batch, *then* `Blocked`: the records count.
            ((2, Ok(Blocked)), Ok(Refill::Ready)),
            ((0, Ok(Blocked)), Ok(Refill::Lagging)),
            // An empty `Yielded` is a lagging producer, not a spin.
            ((0, Ok(Yielded)), Ok(Refill::Lagging)),
            ((0, Err(broken())), Err(broken())),
            ((1, Ok(Exhausted)), Ok(Refill::Ready)),
        ];
        let script: Vec<_> = ladder.iter().map(|(pull, _)| pull.clone()).collect();
        let mut input = LaneInput::new(Box::new(Scripted(script.into_iter())), 1);
        assert!(input.head().is_none() && !input.ended());
        for ((records, _), want) in ladder {
            assert_eq!(input.refill(), want);
            for rid in 0..records {
                assert_eq!(input.head().expect("pulled").rid, Rid(rid));
                assert!(!input.ended());
                input.advance();
            }
            assert!(input.head().is_none(), "the batch is the pull, no more");
        }
        // `Exhausted` is sticky: the stream is never asked again.
        assert!(input.ended());
        assert_eq!(input.refill(), Ok(Refill::Ended));
        assert_eq!(input.refill(), Ok(Refill::Ended));

        let bare = vec![(0, Ok(Exhausted))];
        let mut input = LaneInput::new(Box::new(Scripted(bare.into_iter())), 1);
        assert_eq!(input.refill(), Ok(Refill::Ended), "no records, no batch");
        assert!(input.ended());
    }

    #[test]
    fn streaming_replay_decodes_lazily_within_cap() {
        let stream: Vec<EventRecord> = (0..40_000)
            .map(|i| {
                EventRecord::instr(
                    Rid(i + 1),
                    Instr::Load {
                        dst: Reg::new(0),
                        src: MemRef::new(0x1000 + i * 4, 4),
                    },
                )
            })
            .collect();
        let encoded = encode(&stream);
        assert!(
            encoded.len() >= 8 * DEFAULT_CHUNK_BYTES,
            "the stream spans chunks"
        );
        let src = StreamingReplaySource::from_encoded(vec![encoded], HEAP);
        let stats = src.stats();
        match Box::new(src).open() {
            SourceInput::Streams(mut s) => {
                let (recs, status) = drain(s[0].as_mut(), 32);
                assert_eq!(recs, stream);
                assert_eq!(status, StreamStatus::Exhausted);
            }
            SourceInput::Workload(_) => panic!("streams"),
        }
        assert!(
            stats.peak_buffered_bytes() <= 2 * DEFAULT_CHUNK_BYTES,
            "resident bytes {} exceed the chunk cap",
            stats.peak_buffered_bytes()
        );
    }

    #[test]
    fn streaming_replay_flags_truncated_wire() {
        let stream = vec![EventRecord::instr(
            Rid(1),
            Instr::Load {
                dst: Reg::new(0),
                src: MemRef::new(0x12345, 4),
            },
        )];
        let mut encoded = encode(&stream);
        encoded.truncate(encoded.len() - 1);
        let src = StreamingReplaySource::from_encoded(vec![encoded], HEAP);
        match Box::new(src).open() {
            SourceInput::Streams(mut s) => {
                let mut out = Vec::new();
                let err = s[0].next_batch(&mut out, 16).unwrap_err();
                assert!(matches!(err, SessionError::MalformedStream(_)));
            }
            SourceInput::Workload(_) => panic!("streams"),
        }
    }
}
