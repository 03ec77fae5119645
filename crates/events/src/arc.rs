//! Inter-thread dependence arcs.
//!
//! The order-capturing hardware observes cache-coherence messages and records
//! *happened-before* dependence arcs in the event stream of the thread at the
//! **receiving end** of the arc (§5.1): if thread `t`'s event `i` must be
//! processed before thread `t'`'s event `i'`, then `t'`'s record for `i'`
//! carries a [`DependenceArc`] naming `(t, i)`.

use crate::types::{Rid, ThreadId};
use std::fmt;

/// The conflict type that gave rise to an arc.
///
/// Lifeguard enforcement treats all kinds identically; the distinction feeds
/// statistics and the TSO logic (only `War` arcs may be SC-violating and
/// reversed into versioned metadata, §5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArcKind {
    /// Read-after-write: source wrote, destination reads.
    #[default]
    Raw,
    /// Write-after-read: source read, destination writes.
    War,
    /// Write-after-write.
    Waw,
    /// Synchronization edge materialized by lock/barrier traffic.
    Sync,
}

impl fmt::Display for ArcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArcKind::Raw => "RAW",
            ArcKind::War => "WAR",
            ArcKind::Waw => "WAW",
            ArcKind::Sync => "SYNC",
        };
        f.write_str(s)
    }
}

/// A happened-before edge from `(src, src_rid)` to the event record that
/// carries the arc.
///
/// Enforcement rule (§5.2): the carrying record may only be delivered to its
/// lifeguard once `progress[src] >= src_rid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DependenceArc {
    /// Thread at the producing end of the arc.
    pub src: ThreadId,
    /// Record id of the producing event in `src`'s stream.
    pub src_rid: Rid,
    /// Conflict type.
    pub kind: ArcKind,
}

impl DependenceArc {
    /// Creates an arc.
    pub fn new(src: ThreadId, src_rid: Rid, kind: ArcKind) -> Self {
        DependenceArc { src, src_rid, kind }
    }

    /// Whether `self` is implied by `other` for the same source thread
    /// (an arc to an earlier or equal record of the same thread adds no
    /// ordering information).
    pub fn implied_by(&self, other: &DependenceArc) -> bool {
        self.src == other.src && self.src_rid <= other.src_rid
    }
}

impl fmt::Display for DependenceArc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}{})", self.kind, self.src, self.src_rid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implication_is_per_thread() {
        let a = DependenceArc::new(ThreadId(1), Rid(5), ArcKind::Raw);
        let b = DependenceArc::new(ThreadId(1), Rid(7), ArcKind::War);
        let c = DependenceArc::new(ThreadId(2), Rid(7), ArcKind::War);
        assert!(a.implied_by(&b));
        assert!(!b.implied_by(&a));
        assert!(a.implied_by(&a));
        assert!(!a.implied_by(&c));
    }

    #[test]
    fn display_mentions_source() {
        let a = DependenceArc::new(ThreadId(3), Rid(9), ArcKind::Waw);
        assert_eq!(a.to_string(), "WAW(T3#9)");
    }
}
