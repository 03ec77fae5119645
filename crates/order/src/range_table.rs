//! The hardware range table for syscall race detection (§5.4).
//!
//! System calls execute in the kernel, outside event capture, so their
//! accesses to user buffers generate no dependence arcs. The wrapper library
//! includes the buffer range in the syscall's CA-Begin/CA-End messages; at
//! the lifeguard side a per-thread range table (one entry per core) holds the
//! ranges of currently in-flight system calls. The order-enforcing component
//! checks every delivered memory access against the table: a hit means the
//! access is *concurrent with* the system call — a race the lifeguard
//! typically resolves conservatively (TaintCheck taints the destination and
//! warns).

use paralog_events::{AddrRange, CaPhase, CaRecord, HighLevelKind, ThreadId};

/// One in-flight high-level event with a memory range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    /// The issuing thread.
    pub issuer: ThreadId,
    /// The event class (which syscall / library call).
    pub what: HighLevelKind,
    /// The affected memory range.
    pub range: AddrRange,
}

/// Per-lifeguard-thread range table with one slot per core in the system.
#[derive(Debug, Clone)]
pub struct RangeTable {
    slots: Vec<Option<RangeEntry>>,
}

impl RangeTable {
    /// Creates a table with one slot per core.
    pub fn new(cores: usize) -> Self {
        RangeTable {
            slots: vec![None; cores],
        }
    }

    /// Inserts the range for `issuer`'s in-flight event (CA-Begin).
    ///
    /// The paper sizes the table at one entry per core: a thread has at most
    /// one in-flight system call, so the slot is simply overwritten.
    pub fn insert(&mut self, issuer: ThreadId, what: HighLevelKind, range: AddrRange) {
        self.slots[issuer.index()] = Some(RangeEntry {
            issuer,
            what,
            range,
        });
    }

    /// Removes `issuer`'s entry (CA-End). Idempotent.
    pub fn remove(&mut self, issuer: ThreadId) {
        self.slots[issuer.index()] = None;
    }

    /// Upkeep for one ConflictAlert record whose policy says `track_range`:
    /// a Begin carrying a range opens the issuer's window, its End closes
    /// it. Every replay path calls this rather than re-deriving the rule.
    pub fn on_ca(&mut self, ca: &CaRecord) {
        match (ca.phase, ca.range) {
            (CaPhase::Begin, Some(range)) => self.insert(ca.issuer, ca.what, range),
            (CaPhase::End, _) => self.remove(ca.issuer),
            (CaPhase::Begin, None) => {}
        }
    }

    /// Checks an access against all in-flight ranges; returns the racing
    /// entry if the access overlaps one (excluding the accessor's own
    /// syscall, which is ordered by program order).
    pub fn check(&self, accessor: ThreadId, access: AddrRange) -> Option<RangeEntry> {
        self.slots
            .iter()
            .flatten()
            .find(|e| e.issuer != accessor && e.range.overlaps(&access))
            .copied()
    }

    /// In-flight entries. A replay lane delivers a run of records without
    /// [`check`](Self::check)ing each only while this is 0.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::SyscallKind;

    const READ: HighLevelKind = HighLevelKind::Syscall(SyscallKind::ReadInput);

    #[test]
    fn detects_overlapping_access_from_other_thread() {
        let mut t = RangeTable::new(4);
        t.insert(ThreadId(1), READ, AddrRange::new(0x1000, 0x100));
        let hit = t.check(ThreadId(0), AddrRange::new(0x1080, 4));
        assert_eq!(hit.map(|e| e.issuer), Some(ThreadId(1)));
    }

    #[test]
    fn own_syscall_is_not_a_race() {
        let mut t = RangeTable::new(4);
        t.insert(ThreadId(1), READ, AddrRange::new(0x1000, 0x100));
        assert!(t.check(ThreadId(1), AddrRange::new(0x1080, 4)).is_none());
    }

    #[test]
    fn non_overlapping_access_misses() {
        let mut t = RangeTable::new(4);
        t.insert(ThreadId(1), READ, AddrRange::new(0x1000, 0x100));
        assert!(t.check(ThreadId(0), AddrRange::new(0x2000, 4)).is_none());
    }

    #[test]
    fn remove_ends_the_window() {
        let mut t = RangeTable::new(4);
        t.insert(ThreadId(1), READ, AddrRange::new(0x1000, 0x100));
        assert_eq!(t.in_flight(), 1);
        t.remove(ThreadId(1));
        assert_eq!(t.in_flight(), 0);
        assert!(t.check(ThreadId(0), AddrRange::new(0x1080, 4)).is_none());
        t.remove(ThreadId(1)); // idempotent
    }

    #[test]
    fn on_ca_opens_at_begin_and_closes_at_end() {
        let ca = |phase, range| CaRecord {
            what: READ,
            phase,
            range,
            issuer: ThreadId(1),
            issuer_rid: paralog_events::Rid(7),
            seq: 0,
        };
        let buf = AddrRange::new(0x1000, 0x100);
        let mut t = RangeTable::new(4);
        t.on_ca(&ca(CaPhase::Begin, None));
        assert_eq!(t.in_flight(), 0, "a Begin without a range tracks nothing");
        t.on_ca(&ca(CaPhase::Begin, Some(buf)));
        let hit = t.check(ThreadId(0), AddrRange::new(0x1080, 4));
        assert_eq!(
            hit.map(|e| (e.issuer, e.what, e.range)),
            Some((ThreadId(1), READ, buf))
        );
        t.on_ca(&ca(CaPhase::End, Some(buf)));
        assert_eq!(t.in_flight(), 0);
        t.on_ca(&ca(CaPhase::End, None)); // a stray End is a no-op
        assert!(t.check(ThreadId(0), AddrRange::new(0x1080, 4)).is_none());
    }

    #[test]
    fn one_slot_per_issuer_overwrites() {
        let mut t = RangeTable::new(4);
        t.insert(ThreadId(1), READ, AddrRange::new(0x1000, 0x100));
        t.insert(ThreadId(1), READ, AddrRange::new(0x5000, 0x10));
        assert!(t.check(ThreadId(0), AddrRange::new(0x1000, 4)).is_none());
        assert!(t.check(ThreadId(0), AddrRange::new(0x5000, 4)).is_some());
    }
}
