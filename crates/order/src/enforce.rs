//! Order enforcing at the lifeguard side (§5.2, Figure 4b).
//!
//! Before a record is delivered, each of its dependence arcs `(t, i)` is
//! checked against the progress table. If `progress[t] >= i` for every arc
//! the record is ready; otherwise the consumer spins — a generic
//! "dependence stall" event is delivered to the lifeguard in the meantime,
//! which is where the *Waiting for Dependence* time of Figure 7 comes from.
//!
//! [`replay_gate`] is that rule for stream replay, with §5.4's ConflictAlert
//! serialization stated the same way; both replay loops gate every head
//! through it. The co-simulation gates arcs through [`OrderEnforcer`], which
//! shares the arc scan, and models §5.4 as the hardware rendezvous it is
//! ([`CaBarrier`](crate::CaBarrier)).

use crate::conflict_alert::CaPolicy;
use crate::progress::ProgressTable;
use paralog_events::{EventPayload, EventRecord, Rid, ThreadId};

/// Result of gating one record against the progress table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Every arc is satisfied; the record may be delivered.
    Ready,
    /// The first unsatisfied condition: the consumer must stall until
    /// `src`'s progress reaches `needed`.
    Blocked {
        /// Thread whose progress is awaited.
        src: ThreadId,
        /// Progress value that unblocks the record.
        needed: Rid,
    },
}

/// §5.2: the first arc of `record` whose source has not reached its rid.
#[inline]
fn arc_gate(record: &EventRecord, satisfied: &impl Fn(ThreadId, Rid) -> bool) -> Gate {
    match record.arcs.iter().find(|a| !satisfied(a.src, a.src_rid)) {
        None => Gate::Ready,
        Some(arc) => Gate::Blocked {
            src: arc.src,
            needed: arc.src_rid,
        },
    }
}

/// The replay gate of thread `tid`'s head record: its §5.2 arcs first, then
/// §5.4 ConflictAlert serialization; the first unmet condition is reported.
/// `satisfied(t, i)` says whether thread `t`'s advertised progress has
/// reached rid `i`.
///
/// A *non-issuer* copy of a broadcast CA record (barrier or syscall-range
/// class) may not be delivered until the issuer's lifeguard has applied its
/// own copy — the issuer's copy is the one that performs the metadata
/// update (taint the read() buffer, clear the allocation, ...), and every
/// remote stream's copy marks where that update is ordered relative to the
/// remote thread's accesses. The live co-simulation enforces this through
/// the [`CaBarrier`](crate::CaBarrier) and the application-side broadcast
/// serialization; replay enforces it by gating on the issuer's advertised
/// progress (`progress[issuer] >= issuer_rid` ⇔ the issuer applied its
/// copy). Broadcasts are globally sequence-ordered, so these gates cannot
/// cycle. An own-stream-only record (`seq == u64::MAX`), the issuer's own
/// copy and flush-only classes (ordered via data arcs) pass.
#[inline]
pub fn replay_gate(
    record: &EventRecord,
    tid: ThreadId,
    ca_policy: &CaPolicy,
    satisfied: impl Fn(ThreadId, Rid) -> bool,
) -> Gate {
    let gate = arc_gate(record, &satisfied);
    let EventPayload::Ca(ca) = &record.payload else {
        return gate;
    };
    let actions = ca_policy.actions(ca.what, ca.phase);
    let serialized =
        (actions.barrier || actions.track_range) && ca.seq != u64::MAX && ca.issuer != tid;
    if gate == Gate::Ready && serialized && !satisfied(ca.issuer, ca.issuer_rid) {
        Gate::Blocked {
            src: ca.issuer,
            needed: ca.issuer_rid,
        }
    } else {
        gate
    }
}

/// Per-lifeguard order-enforcing frontend with stall statistics.
///
/// A gate rescans the record's arcs from the first on every poll: a record
/// rarely carries more than its two inline arcs, and progress counters are
/// monotone, so the verdict of a rescan never differs from resuming where
/// the last poll stopped.
#[derive(Debug, Clone, Default)]
pub struct OrderEnforcer {
    stalls: u64,
}

impl OrderEnforcer {
    /// Creates an enforcer with zeroed statistics.
    pub fn new() -> Self {
        OrderEnforcer::default()
    }

    /// Gates `record` against `progress`. The first failing arc is reported;
    /// gate again after the producer advances.
    pub fn gate(&mut self, record: &EventRecord, progress: &ProgressTable) -> Gate {
        arc_gate(record, &|src, rid| progress.satisfies(src, rid))
    }

    /// Accounts one dependence-stall episode.
    pub fn record_stall(&mut self) {
        self.stalls += 1;
    }

    /// Stall episodes.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict_alert::CaActions;
    use paralog_events::{ArcKind, CaPhase, CaRecord, DependenceArc, HighLevelKind, Instr};

    fn record_with_arcs(arcs: Vec<DependenceArc>) -> EventRecord {
        let mut r = EventRecord::instr(Rid(1), Instr::Nop);
        r.arcs = arcs.into();
        r
    }

    #[test]
    fn no_arcs_is_ready() {
        let mut e = OrderEnforcer::new();
        let p = ProgressTable::new(2);
        assert_eq!(e.gate(&record_with_arcs(vec![]), &p), Gate::Ready);
    }

    #[test]
    fn blocked_until_progress() {
        let mut e = OrderEnforcer::new();
        let mut p = ProgressTable::new(2);
        let rec = record_with_arcs(vec![DependenceArc::new(ThreadId(0), Rid(5), ArcKind::Raw)]);
        let blocked = Gate::Blocked {
            src: ThreadId(0),
            needed: Rid(5),
        };
        assert_eq!(e.gate(&rec, &p), blocked);
        p.advertise(ThreadId(0), Rid(4));
        assert_eq!(e.gate(&rec, &p), blocked);
        p.advertise(ThreadId(0), Rid(5));
        assert_eq!(e.gate(&rec, &p), Gate::Ready);
    }

    #[test]
    fn multiple_arcs_all_must_hold() {
        let mut e = OrderEnforcer::new();
        let mut p = ProgressTable::new(3);
        let rec = record_with_arcs(vec![
            DependenceArc::new(ThreadId(0), Rid(2), ArcKind::War),
            DependenceArc::new(ThreadId(2), Rid(7), ArcKind::Waw),
        ]);
        assert_eq!(
            e.gate(&rec, &p),
            Gate::Blocked {
                src: ThreadId(0),
                needed: Rid(2)
            },
            "the first unmet arc is reported"
        );
        p.advertise(ThreadId(0), Rid(2));
        assert_eq!(
            e.gate(&rec, &p),
            Gate::Blocked {
                src: ThreadId(2),
                needed: Rid(7)
            }
        );
        p.advertise(ThreadId(2), Rid(9));
        assert_eq!(e.gate(&rec, &p), Gate::Ready);
    }

    #[test]
    fn replay_gate_checks_arcs_then_the_ca_issuer() {
        let barrier = CaActions {
            barrier: true,
            ..CaActions::default()
        };
        let flush = CaActions {
            flush_it: true,
            ..CaActions::default()
        };
        let policy = CaPolicy::new()
            .on(HighLevelKind::Malloc, CaPhase::Begin, barrier)
            .on(HighLevelKind::Free, CaPhase::Begin, flush);
        // A copy of the CA thread 0 issued as its record 7.
        let ca = |what, seq| {
            EventRecord::ca(
                Rid(3),
                CaRecord {
                    what,
                    phase: CaPhase::Begin,
                    range: None,
                    issuer: ThreadId(0),
                    issuer_rid: Rid(7),
                    seq,
                },
            )
        };
        let mut p = ProgressTable::new(3);
        let gate = |rec: &EventRecord, tid, p: &ProgressTable| {
            replay_gate(rec, ThreadId(tid), &policy, |t, i| p.satisfies(t, i))
        };
        let blocked = |src, needed| Gate::Blocked {
            src: ThreadId(src),
            needed: Rid(needed),
        };
        let mut remote = ca(HighLevelKind::Malloc, 4);
        remote
            .arcs
            .push(DependenceArc::new(ThreadId(2), Rid(5), ArcKind::Raw));
        assert_eq!(gate(&remote, 1, &p), blocked(2, 5), "arcs come first");
        p.advertise(ThreadId(2), Rid(5));
        assert_eq!(gate(&remote, 1, &p), blocked(0, 7), "then the issuer");
        // What §5.4 does not serialize passes while the issuer is at 0: its
        // own copy, an own-stream-only record, a flush-only class.
        assert_eq!(gate(&remote, 0, &p), Gate::Ready);
        assert_eq!(
            gate(&ca(HighLevelKind::Malloc, u64::MAX), 1, &p),
            Gate::Ready
        );
        assert_eq!(gate(&ca(HighLevelKind::Free, 4), 1, &p), Gate::Ready);
        p.advertise(ThreadId(0), Rid(7));
        assert_eq!(gate(&remote, 1, &p), Gate::Ready);
    }

    #[test]
    fn stall_accounting() {
        let mut e = OrderEnforcer::new();
        e.record_stall();
        e.record_stall();
        assert_eq!(e.stalls(), 2);
    }
}
