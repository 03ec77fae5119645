//! The genuinely non-blocking byte path between a producer connection's
//! reader thread and a session's decoding streams.
//!
//! [`ByteFeed::pair`] returns a ([`FeedWriter`], [`FeedReader`]) couple over
//! one shared buffer. The connection's reader thread writes each frame's
//! payload through the writer; the session's
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
//! All feeds of one session share a [`SessionBuffer`], which counts their
//! bytes against the session's cap. Back-pressure is the reader thread's:
//! above the cap it stops reading its socket and
//! [`wait_under_cap`](SessionBuffer::wait_under_cap)s, so the kernel's
//! socket buffer pushes back on the producer. A feed read that brings the
//! total back under the cap wakes it, and so does
//! [`release`](SessionBuffer::release) once the session is over or the
//! daemon stops — no poll interval sits between a drained feed and the
//! next socket read.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct FeedInner {
    buf: Mutex<VecDeque<u8>>,
    /// Latched by [`FeedWriter::close`] or the last writer drop.
    closed: AtomicBool,
    /// Session-wide buffered-byte counter (shared across the session's
    /// feeds), maintained on write/read.
    total: Arc<SessionBuffer>,
}

/// Bytes a session currently holds across all its feeds, and the cap its
/// producer connection is held to.
#[derive(Debug)]
pub struct SessionBuffer {
    bytes: AtomicUsize,
    cap: usize,
    /// Latched by [`release`](Self::release): nothing waits any more.
    released: Mutex<bool>,
    under_cap: Condvar,
}

impl Default for SessionBuffer {
    /// An uncapped buffer: it counts bytes, and nothing ever waits on it.
    fn default() -> Self {
        SessionBuffer::with_cap(usize::MAX)
    }
}

impl SessionBuffer {
    /// A buffer whose [`wait_under_cap`](Self::wait_under_cap) waits while
    /// it holds more than `cap` bytes.
    pub fn with_cap(cap: usize) -> Self {
        SessionBuffer {
            bytes: AtomicUsize::new(0),
            cap,
            released: Mutex::new(false),
            under_cap: Condvar::new(),
        }
    }

    /// Current buffered bytes.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    fn over_cap(&self) -> bool {
        self.bytes() > self.cap
    }

    /// Blocks while the buffer is over its cap and not
    /// [`release`](Self::release)d. Returns whether it is under the cap.
    pub fn wait_under_cap(&self) -> bool {
        let mut released = self.released.lock().expect("poisoned");
        while self.over_cap() && !*released {
            released = self.under_cap.wait(released).expect("poisoned");
        }
        !self.over_cap()
    }

    /// Ends every wait, now and to come: the session is over, or the
    /// daemon is stopping.
    pub fn release(&self) {
        *self.released.lock().expect("poisoned") = true;
        self.under_cap.notify_all();
    }

    fn add(&self, n: usize) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        let before = self.bytes.fetch_sub(n, Ordering::Relaxed);
        if before > self.cap && before - n <= self.cap {
            // Under the lock, so a waiter between its check and its wait
            // cannot miss the notification.
            let _released = self.released.lock().expect("poisoned");
            self.under_cap.notify_all();
        }
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
        self.inner.total.add(bytes.len());
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
        self.inner.total.sub(n);
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

    #[test]
    fn a_read_back_under_the_cap_ends_the_wait() {
        let total = Arc::new(SessionBuffer::with_cap(4));
        let (writer, mut reader) = ByteFeed::pair(Arc::clone(&total));
        writer.write(b"abcdef");
        assert!(total.over_cap());
        let waiter = std::thread::spawn({
            let total = Arc::clone(&total);
            move || total.wait_under_cap()
        });
        let mut buf = [0u8; 1];
        reader.read_exact(&mut buf).unwrap();
        assert!(total.over_cap(), "five bytes are still over four");
        reader.read_exact(&mut buf).unwrap();
        assert!(waiter.join().unwrap(), "woken under the cap");
    }

    #[test]
    fn release_ends_a_wait_over_the_cap_for_good() {
        let total = Arc::new(SessionBuffer::with_cap(1));
        let (writer, _reader) = ByteFeed::pair(Arc::clone(&total));
        writer.write(b"abc");
        let waiter = std::thread::spawn({
            let total = Arc::clone(&total);
            move || total.wait_under_cap()
        });
        total.release();
        assert!(!waiter.join().unwrap(), "released, still over the cap");
        assert!(!total.wait_under_cap(), "a released buffer never waits");
    }
}
