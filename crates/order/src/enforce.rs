//! Order enforcing at the lifeguard side (§5.2, Figure 4b).
//!
//! Before a record is delivered, each of its dependence arcs `(t, i)` is
//! checked against the progress table. If `progress[t] >= i` for every arc
//! the record is ready; otherwise the consumer spins — a generic
//! "dependence stall" event is delivered to the lifeguard in the meantime,
//! which is where the *Waiting for Dependence* time of Figure 7 comes from.

use crate::progress::ProgressTable;
use paralog_events::{EventRecord, Rid, ThreadId};

/// Result of gating one record against the progress table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Every arc is satisfied; the record may be delivered.
    Ready,
    /// The first unsatisfied arc: the consumer must stall until `src`'s
    /// progress reaches `needed`.
    Blocked {
        /// Thread whose progress is awaited.
        src: ThreadId,
        /// Progress value that unblocks the record.
        needed: Rid,
    },
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
        match record
            .arcs
            .iter()
            .find(|a| !progress.satisfies(a.src, a.src_rid))
        {
            None => Gate::Ready,
            Some(arc) => Gate::Blocked {
                src: arc.src,
                needed: arc.src_rid,
            },
        }
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
    use paralog_events::{ArcKind, DependenceArc, Instr};

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
    fn stall_accounting() {
        let mut e = OrderEnforcer::new();
        e.record_stall();
        e.record_stall();
        assert_eq!(e.stalls(), 2);
    }
}
