//! The per-thread log buffer connecting an application core to its lifeguard
//! core.
//!
//! LBA instantiates the event stream as a circular log buffer (e.g. 64 KB) in
//! the last-level cache; with compression the average record is under 1 byte
//! (§2). If the buffer is full the *application* core stalls; if it is empty
//! the *lifeguard* core stalls. [`LogRing`] models exactly that contract, with
//! capacity expressed in records.
//!
//! The ring additionally supports in-place *annotation* of a still-buffered
//! record, which the TSO version protocol uses to attach a `consume_version`
//! note to an already-retired load (§5.5, Figure 5).

use crate::record::EventRecord;
use crate::types::Rid;
use std::collections::VecDeque;

/// Default capacity in records: a 64 KB buffer at ~1 byte per compressed
/// record (§2).
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

/// A single-producer single-consumer log buffer with stall accounting.
#[derive(Debug)]
pub struct LogRing {
    buf: VecDeque<EventRecord>,
    capacity: usize,
    produced: u64,
    consumed: u64,
    full_rejections: u64,
    empty_rejections: u64,
    closed: bool,
}

impl LogRing {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log ring capacity must be non-zero");
        LogRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            produced: 0,
            consumed: 0,
            full_rejections: 0,
            empty_rejections: 0,
            closed: false,
        }
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the ring is at capacity (producer must stall).
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever pushed.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Total records ever popped.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// How many pushes were rejected because the ring was full.
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// How many pops found the ring empty.
    pub fn empty_rejections(&self) -> u64 {
        self.empty_rejections
    }

    /// Marks the producing thread as finished; the consumer can distinguish
    /// "empty for now" from "no more records will ever arrive".
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether the producer has finished and all records were consumed.
    pub fn is_drained(&self) -> bool {
        self.closed && self.buf.is_empty()
    }

    /// Whether the producer has closed the ring.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Appends a record.
    ///
    /// # Errors
    ///
    /// Returns the record back if the ring is full; the caller (the
    /// application core) must stall and retry.
    // The "large" Err payload is the point: full rings hand the record
    // back to the producer without boxing it onto the heap.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, record: EventRecord) -> Result<(), EventRecord> {
        // Closed-ness is checked before capacity: a push-after-close on a
        // full ring is a producer bug, not a backpressure event, and must
        // not be miscounted as a `full_rejection`.
        debug_assert!(!self.closed, "push after close");
        if self.closed {
            // Release builds (assert compiled out): refuse the record
            // without polluting the backpressure accounting.
            return Err(record);
        }
        if self.is_full() {
            self.full_rejections += 1;
            return Err(record);
        }
        self.buf.push_back(record);
        self.produced += 1;
        Ok(())
    }

    /// Delivers the oldest record *in place*: `f` receives a borrow of the
    /// record, which is then discarded without ever being moved or cloned
    /// out of the ring. This is the zero-copy delivery path the lifeguard
    /// engines use — the hardware analogue is the event-delivery unit
    /// reading the log buffer directly from the last-level cache.
    ///
    /// Returns `None` (and counts an empty rejection) if the ring is empty.
    pub fn pop_with<R>(&mut self, f: impl FnOnce(&EventRecord) -> R) -> Option<R> {
        match self.buf.front() {
            Some(rec) => {
                let out = f(rec);
                self.buf.pop_front();
                self.consumed += 1;
                Some(out)
            }
            None => {
                self.empty_rejections += 1;
                None
            }
        }
    }

    /// Removes and returns the oldest record, or `None` if the ring is empty
    /// (the lifeguard core must stall and retry).
    pub fn pop(&mut self) -> Option<EventRecord> {
        match self.buf.pop_front() {
            Some(r) => {
                self.consumed += 1;
                Some(r)
            }
            None => {
                self.empty_rejections += 1;
                None
            }
        }
    }

    /// Peeks at the oldest record without consuming it.
    pub fn peek(&self) -> Option<&EventRecord> {
        self.buf.front()
    }

    /// Applies `f` to every buffered record, counting how many report a
    /// modification (TSO drain-time annotation of all pre-drain readers of a
    /// block, §5.5).
    pub fn annotate_matching<F>(&mut self, mut f: F) -> usize
    where
        F: FnMut(&mut EventRecord) -> bool,
    {
        let mut n = 0;
        for rec in self.buf.iter_mut() {
            if f(rec) {
                n += 1;
            }
        }
        n
    }

    /// Mutates the still-buffered record with id `rid` in place.
    ///
    /// Returns `true` if the record was found (i.e. the consumer has not yet
    /// popped it). Used by the TSO order-capturing hardware to annotate a
    /// pending load record with a `consume_version` note.
    pub fn annotate<F>(&mut self, rid: Rid, f: F) -> bool
    where
        F: FnOnce(&mut EventRecord),
    {
        // Records are pushed in rid order, one per retired event, so the
        // offset of `rid` from the oldest buffered record is direct.
        let oldest_rid = match self.buf.front() {
            Some(r) => r.rid,
            None => return false,
        };
        if rid < oldest_rid {
            return false;
        }
        let offset = (rid.0 - oldest_rid.0) as usize;
        match self.buf.get_mut(offset) {
            Some(rec) if rec.rid == rid => {
                f(rec);
                true
            }
            // High-level records can interleave CA records that share the rid
            // counter; fall back to a scan if the direct index misses.
            _ => {
                for rec in self.buf.iter_mut() {
                    if rec.rid == rid {
                        f(rec);
                        return true;
                    }
                }
                false
            }
        }
    }
}

impl Default for LogRing {
    fn default() -> Self {
        LogRing::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, MemRef};
    use crate::record::VersionId;
    use crate::types::ThreadId;

    fn rec(rid: u64) -> EventRecord {
        EventRecord::instr(Rid(rid), Instr::Nop)
    }

    #[test]
    fn fifo_order_and_counters() {
        let mut ring = LogRing::new(4);
        for i in 1..=3 {
            ring.push(rec(i)).unwrap();
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pop().unwrap().rid, Rid(1));
        assert_eq!(ring.pop().unwrap().rid, Rid(2));
        assert_eq!(ring.produced(), 3);
        assert_eq!(ring.consumed(), 2);
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let mut ring = LogRing::new(2);
        ring.push(rec(1)).unwrap();
        ring.push(rec(2)).unwrap();
        let rejected = ring.push(rec(3));
        assert!(rejected.is_err());
        assert_eq!(rejected.unwrap_err().rid, Rid(3));
        assert_eq!(ring.full_rejections(), 1);
        // Draining one slot lets the push proceed.
        ring.pop().unwrap();
        ring.push(rec(3)).unwrap();
        assert!(ring.is_full());
    }

    #[test]
    fn pop_with_delivers_borrow_and_consumes() {
        let mut ring = LogRing::new(4);
        ring.push(rec(1)).unwrap();
        ring.push(rec(2)).unwrap();
        let seen = ring.pop_with(|r| r.rid).unwrap();
        assert_eq!(seen, Rid(1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.consumed(), 1);
        assert!(ring.pop_with(|r| r.rid).is_some());
        assert!(ring.pop_with(|_| ()).is_none());
        assert_eq!(ring.empty_rejections(), 1);
    }

    #[test]
    fn empty_pop_counts() {
        let mut ring = LogRing::new(2);
        assert!(ring.pop().is_none());
        assert_eq!(ring.empty_rejections(), 1);
    }

    #[test]
    fn close_and_drain() {
        let mut ring = LogRing::new(2);
        ring.push(rec(1)).unwrap();
        ring.close();
        assert!(ring.is_closed());
        assert!(!ring.is_drained());
        ring.pop().unwrap();
        assert!(ring.is_drained());
    }

    #[test]
    fn annotate_buffered_record() {
        let mut ring = LogRing::new(8);
        for i in 1..=4 {
            ring.push(rec(i)).unwrap();
        }
        let v = VersionId {
            consumer: ThreadId(0),
            consumer_rid: Rid(3),
        };
        let m = MemRef::new(0x40, 4);
        assert!(ring.annotate(Rid(3), |r| r.set_consume_version(v, m)));
        ring.pop();
        ring.pop();
        let third = ring.pop().unwrap();
        assert_eq!(third.consume_version(), Some((v, m)));
    }

    #[test]
    fn annotate_missing_record_fails() {
        let mut ring = LogRing::new(8);
        ring.push(rec(5)).unwrap();
        assert!(!ring.annotate(Rid(4), |_| {}));
        assert!(!ring.annotate(Rid(6), |_| {}));
        let mut empty = LogRing::new(2);
        assert!(!empty.annotate(Rid(1), |_| {}));
    }

    #[test]
    fn annotate_with_interleaved_duplicate_rids_scans() {
        // CA records can share a rid with a neighbouring record in rare
        // shapes; the scan fallback must still find the right record.
        let mut ring = LogRing::new(8);
        ring.push(rec(1)).unwrap();
        ring.push(rec(1)).unwrap(); // duplicate rid on purpose
        ring.push(rec(3)).unwrap();
        assert!(ring.annotate(Rid(3), |r| {
            r.push_produce_version(
                VersionId {
                    consumer: ThreadId(1),
                    consumer_rid: Rid(3),
                },
                MemRef::new(0, 4),
                1,
            );
        }));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = LogRing::new(0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn push_after_close_refused_without_rejection_count() {
        // Release builds compile the assert out; the ring must still
        // refuse the record without polluting backpressure accounting.
        let mut ring = LogRing::new(1);
        ring.push(rec(1)).unwrap();
        ring.close();
        assert!(ring.push(rec(2)).is_err());
        assert_eq!(ring.full_rejections(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "push after close")]
    fn push_after_close_asserts_even_when_full() {
        let mut ring = LogRing::new(1);
        ring.push(rec(1)).unwrap();
        ring.close();
        // A closed full ring is a producer bug — the closed check must win
        // over (and not be miscounted as) a full rejection.
        let _ = ring.push(rec(2));
    }
}
