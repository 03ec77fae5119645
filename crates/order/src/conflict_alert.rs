//! ConflictAlert: broadcast ordering for high-level events (§4.3, §5.4).
//!
//! High-level events (malloc/free, system calls) can conflict with
//! instruction-grain events *without* any coherence traffic linking them —
//! the paper's *logical races* (a `free` builds its block bookkeeping near
//! the range boundary while a racing access touches the middle). The wrapper
//! library therefore broadcasts **ConflictAlert** messages: every executing
//! thread's capture unit inserts a CA record into its stream, and the issuer
//! serializes — it does not proceed past the send until every other capture
//! unit acknowledges.
//!
//! At the lifeguard side a CA record can (per-lifeguard configuration)
//! invalidate/flush each accelerator, act as a barrier across lifeguard
//! threads, and (for the issuer's own lifeguard) drive the metadata update —
//! all decided by [`CaPolicy`].

use paralog_events::{AddrRange, CaPhase, CaRecord, HighLevelKind, Rid, SyscallKind, ThreadId};
use std::collections::HashMap;

/// Actions a lifeguard takes when it meets a CA record (§4.4, §5.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaActions {
    /// Flush the Inheritance Tracking table (deliver pending rows).
    pub flush_it: bool,
    /// Invalidate the Idempotent Filter cache.
    pub flush_if: bool,
    /// Flush Metadata-TLB mappings (for the affected range if present).
    pub flush_mtlb: bool,
    /// Stall until all lifeguard threads reach this CA (and the issuer's
    /// metadata update has been applied) — the conservative barrier the
    /// paper describes for malloc/free in SWAPTIONS.
    pub barrier: bool,
    /// Track the range in the per-thread range table (syscall race
    /// detection): insert on Begin, remove on End.
    pub track_range: bool,
}

/// Per-lifeguard subscription: which high-level events matter, at which
/// phase, and with which actions.
#[derive(Debug, Clone, Default)]
pub struct CaPolicy {
    rules: Vec<(HighLevelKind, CaPhase, CaActions)>,
}

impl CaPolicy {
    /// An empty policy (no CA reactions).
    pub fn new() -> Self {
        CaPolicy::default()
    }

    /// Adds a rule; later rules override earlier ones for the same
    /// `(kind, phase)`.
    #[must_use]
    pub fn on(mut self, kind: HighLevelKind, phase: CaPhase, actions: CaActions) -> Self {
        self.rules.push((kind, phase, actions));
        self
    }

    /// Actions for a CA record (zero-actions default if unsubscribed).
    /// Matching is by event *class* — lock/barrier identity payloads are
    /// ignored, syscall kinds are distinguished.
    pub fn actions(&self, kind: HighLevelKind, phase: CaPhase) -> CaActions {
        let mut out = CaActions::default();
        for (k, p, a) in &self.rules {
            if k.class_eq(&kind) && *p == phase {
                out = *a;
            }
        }
        out
    }

    /// Whether any rule (at either phase) subscribes to `kind`'s class with a
    /// non-trivial action — used by the platform to decide whether an event
    /// must be broadcast at all.
    pub fn subscribes(&self, kind: HighLevelKind) -> bool {
        self.rules
            .iter()
            .any(|(k, _, a)| k.class_eq(&kind) && *a != CaActions::default())
    }

    /// Convenience: the policy TAINTCHECK uses. TaintCheck needs correct
    /// ordering of high-level events, but it gets that ordering from
    /// dependence arcs (pointer publication orders remote accesses after the
    /// allocation) and from the range table for system calls (§5.4) — so its
    /// CA records flush accelerator state without the conservative global
    /// barrier ADDRCHECK needs. Racing accesses to in-flight `read()`
    /// buffers are resolved conservatively via [`RangeTable`] hits.
    ///
    /// [`RangeTable`]: crate::RangeTable
    pub fn taintcheck() -> Self {
        let flush = CaActions {
            flush_it: true,
            flush_if: false,
            flush_mtlb: true,
            barrier: false,
            track_range: false,
        };
        CaPolicy::new()
            .on(HighLevelKind::Malloc, CaPhase::End, flush)
            .on(HighLevelKind::Free, CaPhase::Begin, flush)
            .on(
                HighLevelKind::Syscall(SyscallKind::ReadInput),
                CaPhase::Begin,
                CaActions {
                    track_range: true,
                    ..Default::default()
                },
            )
            .on(
                HighLevelKind::Syscall(SyscallKind::ReadInput),
                CaPhase::End,
                CaActions {
                    flush_it: true,
                    track_range: true,
                    ..Default::default()
                },
            )
    }

    /// Convenience: ADDRCHECK's policy — only allocation-library ordering
    /// matters (§6): barrier + IF/M-TLB invalidation on malloc-end and
    /// free-begin.
    pub fn addrcheck() -> Self {
        let a = CaActions {
            flush_it: false,
            flush_if: true,
            flush_mtlb: true,
            barrier: true,
            track_range: false,
        };
        CaPolicy::new()
            .on(HighLevelKind::Malloc, CaPhase::End, a)
            .on(HighLevelKind::Free, CaPhase::Begin, a)
    }
}

/// Application-side broadcaster: allocates the global CA sequence and builds
/// the per-thread records.
#[derive(Debug, Default)]
pub struct CaBroadcaster {
    next_seq: u64,
    broadcasts: u64,
}

impl CaBroadcaster {
    /// Creates a broadcaster.
    pub fn new() -> Self {
        CaBroadcaster::default()
    }

    /// Broadcasts ever issued.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// Issues one broadcast: returns the CA record to insert into **every**
    /// executing thread's stream (each thread stamps its own rid on the
    /// containing [`EventRecord`](paralog_events::EventRecord)).
    pub fn broadcast(
        &mut self,
        what: HighLevelKind,
        phase: CaPhase,
        range: Option<AddrRange>,
        issuer: ThreadId,
        issuer_rid: Rid,
    ) -> CaRecord {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.broadcasts += 1;
        CaRecord {
            what,
            phase,
            range,
            issuer,
            issuer_rid,
            seq,
        }
    }
}

/// Lifeguard-side barrier coordination for CA records with
/// [`CaActions::barrier`].
///
/// A lifeguard arriving at CA `seq` registers; it may pass once every
/// *participating* lifeguard (the threads executing at broadcast time, whose
/// capture units acknowledged the message) has arrived **and** the issuer's
/// lifeguard has applied the metadata update for the event.
#[derive(Debug)]
pub struct CaBarrier {
    default_participants: usize,
    expected: HashMap<u64, usize>,
    arrived: HashMap<u64, Vec<ThreadId>>,
    update_applied: HashMap<u64, bool>,
}

impl CaBarrier {
    /// Creates barrier state; `participants` is the default expected arrival
    /// count (override per broadcast with [`CaBarrier::expect`]).
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "CA barrier needs participants");
        CaBarrier {
            default_participants: participants,
            expected: HashMap::new(),
            arrived: HashMap::new(),
            update_applied: HashMap::new(),
        }
    }

    /// Sets the participant count for `seq` (the threads executing when the
    /// broadcast was issued — finished threads never see the record).
    pub fn expect(&mut self, seq: u64, participants: usize) {
        self.expected.insert(seq, participants);
    }

    /// Registers `thread`'s arrival at CA `seq` (idempotent).
    pub fn arrive(&mut self, seq: u64, thread: ThreadId) {
        let list = self.arrived.entry(seq).or_default();
        if !list.contains(&thread) {
            list.push(thread);
        }
    }

    /// Whether all participating lifeguards have arrived at `seq`.
    pub fn all_arrived(&self, seq: u64) -> bool {
        let expected = self
            .expected
            .get(&seq)
            .copied()
            .unwrap_or(self.default_participants);
        self.arrived
            .get(&seq)
            .map(|l| l.len() >= expected)
            .unwrap_or(false)
    }

    /// Marks the issuer's metadata update for `seq` as applied.
    pub fn mark_applied(&mut self, seq: u64) {
        self.update_applied.insert(seq, true);
    }

    /// Whether the issuer applied the update for `seq`.
    pub fn is_applied(&self, seq: u64) -> bool {
        self.update_applied.get(&seq).copied().unwrap_or(false)
    }

    /// Whether `thread` may pass its CA record for `seq`: everyone arrived
    /// and (for non-issuers) the update is applied. The issuer may pass as
    /// soon as everyone arrived — it is the one applying the update.
    pub fn may_pass(&self, seq: u64, thread: ThreadId, issuer: ThreadId) -> bool {
        if !self.all_arrived(seq) {
            return false;
        }
        thread == issuer || self.is_applied(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_lookup_defaults_to_no_action() {
        let p = CaPolicy::addrcheck();
        let a = p.actions(HighLevelKind::Malloc, CaPhase::End);
        assert!(a.barrier && a.flush_if && a.flush_mtlb && !a.flush_it);
        let none = p.actions(HighLevelKind::Malloc, CaPhase::Begin);
        assert_eq!(none, CaActions::default());
        let none = p.actions(
            HighLevelKind::Barrier(paralog_events::BarrierId(0)),
            CaPhase::Begin,
        );
        assert_eq!(none, CaActions::default());
    }

    #[test]
    fn later_rules_override() {
        let p = CaPolicy::new()
            .on(
                HighLevelKind::Free,
                CaPhase::Begin,
                CaActions {
                    flush_it: true,
                    ..Default::default()
                },
            )
            .on(
                HighLevelKind::Free,
                CaPhase::Begin,
                CaActions {
                    flush_if: true,
                    ..Default::default()
                },
            );
        let a = p.actions(HighLevelKind::Free, CaPhase::Begin);
        assert!(a.flush_if && !a.flush_it);
    }

    #[test]
    fn taintcheck_tracks_read_syscall_ranges() {
        let p = CaPolicy::taintcheck();
        assert!(
            p.actions(
                HighLevelKind::Syscall(SyscallKind::ReadInput),
                CaPhase::Begin
            )
            .track_range
        );
        // TaintCheck orders syscalls via the range table, not a barrier;
        // the End record still flushes IT.
        let end = p.actions(HighLevelKind::Syscall(SyscallKind::ReadInput), CaPhase::End);
        assert!(end.flush_it && end.track_range && !end.barrier);
        // The allocation-library events flush accelerator state too.
        assert!(p.actions(HighLevelKind::Malloc, CaPhase::End).flush_it);
    }

    #[test]
    fn broadcaster_assigns_increasing_seq() {
        let mut b = CaBroadcaster::new();
        let c1 = b.broadcast(
            HighLevelKind::Malloc,
            CaPhase::End,
            None,
            ThreadId(0),
            Rid(5),
        );
        let c2 = b.broadcast(
            HighLevelKind::Free,
            CaPhase::Begin,
            None,
            ThreadId(1),
            Rid(9),
        );
        assert!(c2.seq > c1.seq);
        assert_eq!(b.broadcasts(), 2);
        assert_eq!(c1.issuer, ThreadId(0));
        assert_eq!(c1.issuer_rid, Rid(5));
    }

    #[test]
    fn barrier_requires_everyone_and_issuer_update() {
        let mut b = CaBarrier::new(3);
        let issuer = ThreadId(0);
        b.arrive(7, ThreadId(0));
        b.arrive(7, ThreadId(1));
        assert!(!b.may_pass(7, ThreadId(1), issuer));
        b.arrive(7, ThreadId(2));
        // Issuer may pass (it applies the update); remotes must wait.
        assert!(b.may_pass(7, ThreadId(0), issuer));
        assert!(!b.may_pass(7, ThreadId(1), issuer));
        b.mark_applied(7);
        assert!(b.may_pass(7, ThreadId(1), issuer));
        assert!(b.may_pass(7, ThreadId(2), issuer));
    }

    #[test]
    fn arrival_is_idempotent() {
        let mut b = CaBarrier::new(2);
        b.arrive(1, ThreadId(0));
        b.arrive(1, ThreadId(0));
        assert!(!b.all_arrived(1));
        b.arrive(1, ThreadId(1));
        assert!(b.all_arrived(1));
    }
}
