//! The globally advertised progress table (§5.2).
//!
//! Lifeguard threads share a memory-mapped table of progress counters indexed
//! by thread id; `progress[t]` holds the record id up to which *every* piece
//! of lifeguard work for thread `t` — including state still cached inside
//! accelerators, per delayed advertising (§4.2) — has completed.
//!
//! Two implementations: [`ProgressTable`] for the deterministic simulator and
//! the sequential replay loop, and [`SharedProgressTable`] (atomics) for the
//! replay lanes, each of whose entries lives on its own cache line
//! ([`CachePadded`]) to avoid coherence ping-pong between workers.

use paralog_events::{Rid, ThreadId};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// A value alone on its cache line, so a write to it never invalidates a
/// neighbour another core is working on. 128 bytes, not 64: x86's
/// adjacent-line prefetcher moves lines in pairs, so two values 64 B apart
/// still trade a line pair between cores.
///
/// The one padding type of the workspace. It pads exactly what one replay
/// worker writes per record while another works beside it: a progress
/// slot, a lane, a lane's register slot.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Progress table used inside the single-threaded simulator.
#[derive(Debug, Clone)]
pub struct ProgressTable {
    slots: Vec<Rid>,
}

impl ProgressTable {
    /// Creates a table for `threads` lifeguard threads, all at [`Rid::ZERO`].
    pub fn new(threads: usize) -> Self {
        ProgressTable {
            slots: vec![Rid::ZERO; threads],
        }
    }

    /// Number of threads covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Currently advertised progress of `thread`.
    pub fn get(&self, thread: ThreadId) -> Rid {
        self.slots[thread.index()]
    }

    /// Advertises `progress` for `thread`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if progress would move backwards — advertised
    /// progress is monotone by construction (delayed advertising may *hold
    /// back* but never regress).
    pub fn advertise(&mut self, thread: ThreadId, progress: Rid) {
        debug_assert!(
            progress >= self.slots[thread.index()],
            "progress of {thread} regressed: {} -> {}",
            self.slots[thread.index()],
            progress
        );
        self.slots[thread.index()] = progress;
    }

    /// Whether an arc requiring `src`'s progress to reach `rid` is satisfied.
    pub fn satisfies(&self, src: ThreadId, rid: Rid) -> bool {
        self.get(src) >= rid
    }
}

/// Progress table shared between real OS threads (the demonstration
/// executor). Entries are release-published and acquire-read, mirroring the
/// hardware's memory-mapped counter semantics.
#[derive(Debug)]
pub struct SharedProgressTable {
    slots: Vec<CachePadded<AtomicU64>>,
}

impl SharedProgressTable {
    /// Creates a table for `threads` lifeguard threads.
    pub fn new(threads: usize) -> Self {
        SharedProgressTable {
            slots: (0..threads).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Number of threads covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Currently advertised progress of `thread`.
    pub fn get(&self, thread: ThreadId) -> Rid {
        Rid(self.slots[thread.index()].load(Ordering::Acquire))
    }

    /// Advertises `progress` for `thread` (release ordering so metadata
    /// writes by the advertiser are visible to readers that observe it).
    pub fn advertise(&self, thread: ThreadId, progress: Rid) {
        self.slots[thread.index()].store(progress.0, Ordering::Release);
    }

    /// Whether an arc requiring `src`'s progress to reach `rid` is satisfied.
    pub fn satisfies(&self, src: ThreadId, rid: Rid) -> bool {
        self.get(src) >= rid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut p = ProgressTable::new(2);
        assert_eq!(p.get(ThreadId(0)), Rid::ZERO);
        p.advertise(ThreadId(0), Rid(5));
        assert!(p.satisfies(ThreadId(0), Rid(5)));
        assert!(!p.satisfies(ThreadId(0), Rid(6)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "regressed")]
    fn regression_detected_in_debug() {
        let mut p = ProgressTable::new(1);
        p.advertise(ThreadId(0), Rid(5));
        p.advertise(ThreadId(0), Rid(3));
    }

    #[test]
    fn shared_table_roundtrip() {
        let p = SharedProgressTable::new(2);
        p.advertise(ThreadId(1), Rid(9));
        assert_eq!(p.get(ThreadId(1)), Rid(9));
        assert!(p.satisfies(ThreadId(1), Rid(9)));
        assert!(!p.satisfies(ThreadId(0), Rid(1)));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn shared_table_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedProgressTable>();
    }

    #[test]
    fn cache_padded_slots_own_their_line_pairs() {
        use paralog_events::NUM_REGS;
        use std::mem::{align_of, size_of};
        use std::sync::Mutex;
        // A progress slot, a stream's register slot, and a value wider than
        // a line pair, as a lane behind its mutex can be: each starts a
        // pair and no neighbour shares one.
        assert_eq!(size_of::<CachePadded<AtomicU64>>(), 128);
        assert_eq!(size_of::<CachePadded<[AtomicU64; NUM_REGS / 8]>>(), 128);
        assert_eq!(align_of::<CachePadded<[AtomicU64; NUM_REGS / 8]>>(), 128);
        type Lane = CachePadded<Mutex<[u64; 16]>>;
        assert_eq!(align_of::<Lane>(), 128);
        assert_eq!(size_of::<Lane>(), 256);
    }
}
