//! The genuinely non-blocking byte path between the socket pump and a
//! session's decoding streams.
//!
//! [`ByteFeed::pair`] returns a ([`FeedWriter`], [`FeedReader`]) couple over
//! one shared buffer. The pump thread writes each frame's payload through
//! the writer; the session's
//! [`StreamingReplaySource`](paralog_core::StreamingReplaySource) reads
//! through the reader, which
//! implements [`io::Read`] with **real `WouldBlock` semantics**: an empty
//! buffer whose producer is still attached returns
//! [`io::ErrorKind::WouldBlock`], which the decoding stream surfaces as
//! [`StreamStatus::Blocked`](paralog_core::StreamStatus) — the live-producer
//! path the replay protocol was designed around, exercised here by an
//! actual non-blocking reader rather than a fault-injection fake.
//!
//! Closing the writer (or dropping every clone) makes further reads return
//! `Ok(0)` (EOF) once the buffer drains, which the decoder resolves to
//! `Exhausted` at a record boundary or `MalformedStream` mid-record —
//! producer-drop is always deterministic, never a hang.
//!
//! All feeds of one session share a byte counter so the supervisor can
//! apply a per-session buffering cap: past the cap it simply stops reading
//! that session's socket and the kernel's socket buffer pushes back on the
//! producer.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

struct FeedInner {
    buf: Mutex<VecDeque<u8>>,
    /// Latched by [`FeedWriter::close`] or the last writer drop.
    closed: AtomicBool,
    /// Session-wide buffered-byte counter (shared across the session's
    /// feeds), maintained on write/read.
    total: Arc<SessionBuffer>,
}

/// Bytes a session currently holds across all its feeds.
#[derive(Debug, Default)]
pub struct SessionBuffer(std::sync::atomic::AtomicUsize);

impl SessionBuffer {
    /// Current buffered bytes.
    pub fn bytes(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Constructor namespace for feed pairs.
#[derive(Debug)]
pub struct ByteFeed;

impl ByteFeed {
    /// A connected writer/reader pair charging `total` for buffered bytes.
    pub fn pair(total: Arc<SessionBuffer>) -> (FeedWriter, FeedReader) {
        let inner = Arc::new(FeedInner {
            buf: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            total,
        });
        (
            FeedWriter {
                inner: Arc::clone(&inner),
            },
            FeedReader { inner },
        )
    }
}

/// Producer side of a feed. Cloneable; the feed closes when [`close`]d
/// explicitly or when the last writer clone drops.
///
/// [`close`]: FeedWriter::close
pub struct FeedWriter {
    inner: Arc<FeedInner>,
}

impl std::fmt::Debug for FeedWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedWriter")
            .field("closed", &self.inner.closed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Clone for FeedWriter {
    fn clone(&self) -> Self {
        FeedWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl FeedWriter {
    /// Appends `bytes`; returns `false` (bytes discarded) once the feed is
    /// closed.
    pub fn write(&self, bytes: &[u8]) -> bool {
        let mut buf = self.inner.buf.lock().expect("poisoned");
        if self.inner.closed.load(Ordering::Acquire) {
            return false;
        }
        buf.extend(bytes);
        self.inner.total.0.fetch_add(bytes.len(), Ordering::Relaxed);
        true
    }

    /// Marks end-of-stream: the reader drains what is buffered, then sees
    /// EOF. Idempotent. Taken under the buffer lock so a concurrent reader
    /// can never observe "empty but not closed" after a close completed.
    pub fn close(&self) {
        let _buf = self.inner.buf.lock().expect("poisoned");
        self.inner.closed.store(true, Ordering::Release);
    }

    /// Whether the feed was closed.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

impl Drop for FeedWriter {
    fn drop(&mut self) {
        // `self` plus the reader's Arc: this was the last writer clone —
        // a vanished producer must surface as EOF, not a forever-Blocked
        // stream.
        if Arc::strong_count(&self.inner) <= 2 {
            self.close();
        }
    }
}

/// Consumer side of a feed: a non-blocking [`io::Read`].
pub struct FeedReader {
    inner: Arc<FeedInner>,
}

impl std::fmt::Debug for FeedReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedReader")
            .field("closed", &self.inner.closed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl io::Read for FeedReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut buf = self.inner.buf.lock().expect("poisoned");
        if buf.is_empty() {
            return if self.inner.closed.load(Ordering::Acquire) {
                Ok(0) // EOF
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        // One `copy_from_slice` out of the ring's front slice and one
        // `drain`; a read that meets the ring's wrap-around point is short.
        let n = io::Read::read(&mut *buf, out)?;
        self.inner.total.0.fetch_sub(n, Ordering::Relaxed);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn empty_open_feed_would_block() {
        let (writer, mut reader) = ByteFeed::pair(Arc::default());
        let mut buf = [0u8; 8];
        assert_eq!(
            reader.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert!(writer.write(b"abc"));
        assert_eq!(reader.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
    }

    #[test]
    fn close_drains_then_eofs() {
        let total = Arc::new(SessionBuffer::default());
        let (writer, mut reader) = ByteFeed::pair(Arc::clone(&total));
        writer.write(b"tail");
        writer.close();
        assert!(!writer.write(b"late"), "post-close writes are discarded");
        let mut buf = [0u8; 2];
        assert_eq!(reader.read(&mut buf).unwrap(), 2);
        assert_eq!(reader.read(&mut buf).unwrap(), 2);
        assert_eq!(reader.read(&mut buf).unwrap(), 0, "EOF after drain");
        assert_eq!(total.bytes(), 0, "reads pay the buffer debt back");
    }

    #[test]
    fn dropping_last_writer_closes() {
        let (writer, mut reader) = ByteFeed::pair(Arc::default());
        let clone = writer.clone();
        drop(writer);
        let mut buf = [0u8; 1];
        assert_eq!(
            reader.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "a surviving clone keeps the feed open"
        );
        drop(clone);
        assert_eq!(reader.read(&mut buf).unwrap(), 0, "last drop is EOF");
    }

    #[test]
    fn session_buffer_is_shared() {
        let total = Arc::new(SessionBuffer::default());
        let (w1, _r1) = ByteFeed::pair(Arc::clone(&total));
        let (w2, _r2) = ByteFeed::pair(Arc::clone(&total));
        w1.write(&[0; 10]);
        w2.write(&[0; 5]);
        assert_eq!(total.bytes(), 15);
    }
}
