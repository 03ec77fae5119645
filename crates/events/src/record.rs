//! Event records — the unit of the per-thread event stream — and the
//! metadata-operation events delivered to lifeguard handlers.
//!
//! Figure 1/2 of the paper: the event-capture hardware turns each retired
//! instruction (and each rare high-level event) into a compressed record; the
//! event-delivery hardware on the lifeguard side decompresses records and
//! invokes registered handlers. [`EventRecord`] is the on-stream form;
//! [`MetaOp`] is the handler-facing form (after accelerators have absorbed,
//! filtered or coalesced events).

use crate::arc::DependenceArc;
use crate::inline::InlineVec;
use crate::isa::{AccessKind, Instr, MemRef, Reg, SyscallKind};
use crate::types::{AddrRange, Rid, ThreadId};
use std::fmt;

/// Inline-capacity arc list: most records carry zero arcs, contended ones
/// one or two; more spills to the heap.
pub type ArcList = InlineVec<DependenceArc, 2>;

/// Inline-capacity produce-version list (one entry per SC-violating remote
/// reader — almost always one).
pub type ProduceList = InlineVec<(VersionId, MemRef, u32), 1>;

/// Identifier of a TSO metadata version: the paper combines the *consumer*
/// thread's id with its current event record id (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VersionId {
    /// Thread that will consume the versioned metadata.
    pub consumer: ThreadId,
    /// Record id of the consuming (SC-violating) load.
    pub consumer_rid: Rid,
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v<{},{}>", self.consumer, self.consumer_rid)
    }
}

/// The high-level event class named by a ConflictAlert message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HighLevelKind {
    /// Heap allocation.
    Malloc,
    /// Heap release.
    Free,
    /// System call of the given kind.
    Syscall(SyscallKind),
    /// Lock acquisition (captured for lifeguards like LockSet).
    Lock(crate::isa::LockId),
    /// Lock release.
    Unlock(crate::isa::LockId),
    /// Barrier participation.
    Barrier(crate::isa::BarrierId),
}

impl HighLevelKind {
    /// Whether two kinds belong to the same subscription class: payloads
    /// (lock/barrier identity) are ignored, syscall kinds are distinguished.
    /// ConflictAlert policies subscribe per class, not per dynamic instance.
    pub fn class_eq(&self, other: &HighLevelKind) -> bool {
        match (self, other) {
            (HighLevelKind::Malloc, HighLevelKind::Malloc)
            | (HighLevelKind::Free, HighLevelKind::Free)
            | (HighLevelKind::Lock(_), HighLevelKind::Lock(_))
            | (HighLevelKind::Unlock(_), HighLevelKind::Unlock(_))
            | (HighLevelKind::Barrier(_), HighLevelKind::Barrier(_)) => true,
            (HighLevelKind::Syscall(a), HighLevelKind::Syscall(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for HighLevelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HighLevelKind::Malloc => f.write_str("malloc"),
            HighLevelKind::Free => f.write_str("free"),
            HighLevelKind::Syscall(k) => write!(f, "syscall:{k}"),
            HighLevelKind::Lock(l) => write!(f, "lock:{}", l.0),
            HighLevelKind::Unlock(l) => write!(f, "unlock:{}", l.0),
            HighLevelKind::Barrier(b) => write!(f, "barrier:{}", b.0),
        }
    }
}

/// Whether a ConflictAlert record marks the beginning or end of its high-level
/// event (§5.4: CA-Begin / CA-End).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaPhase {
    /// Broadcast before the call.
    Begin,
    /// Broadcast after the call.
    End,
}

/// A ConflictAlert record as it appears in an event stream.
///
/// The issuing thread's own stream carries the same record (with
/// `issuer == self`), which is how its own lifeguard learns to perform the
/// metadata update for the event; remote lifeguards use the record to flush
/// accelerator state and to order themselves against the issuer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaRecord {
    /// What kind of high-level event this is.
    pub what: HighLevelKind,
    /// Begin or end of the event.
    pub phase: CaPhase,
    /// Optional memory-range parameter (malloc/free extent, syscall buffer).
    pub range: Option<AddrRange>,
    /// Thread that issued the high-level event.
    pub issuer: ThreadId,
    /// Record id of this CA record *in the issuer's stream*.
    pub issuer_rid: Rid,
    /// Global sequence number of the broadcast (total order over all CAs).
    pub seq: u64,
}

/// Payload of one event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPayload {
    /// A retired application instruction.
    Instr(Instr),
    /// A ConflictAlert broadcast record.
    Ca(CaRecord),
}

/// One record of a per-thread event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Per-thread record id (retirement counter value, §5.1).
    pub rid: Rid,
    /// What happened.
    pub payload: EventPayload,
    /// Inter-thread dependence arcs that must be satisfied before delivery.
    /// Inline up to two arcs, so capturing the common case never allocates.
    pub arcs: ArcList,
    /// The §5.5 TSO notes, out of line: only SC-violating records of TSO
    /// captures carry any, so every other record pays one null pointer for
    /// them. `Some` only while it holds a note, so derived equality holds.
    tso: Option<Box<TsoNotes>>,
}

/// The TSO annotations of one record (§5.5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TsoNotes {
    /// Versions the record's lifeguard must *produce* (copy current
    /// metadata) before processing the record, each with the number of
    /// reader records that will consume it.
    produce: ProduceList,
    /// Version the record's lifeguard must *consume* (read versioned
    /// metadata instead of current) when processing it.
    consume: Option<(VersionId, MemRef)>,
}

// Every replay lane holds a batch of 256 of these (30 KiB at 120 B, inside
// a 48 KiB L1d) and each byte of one is written once per record replayed —
// for ~4 B of wire — so growing the record is a deliberate act, not a side
// effect of a new field.
const _: () = assert!(std::mem::size_of::<EventRecord>() <= 128);

impl EventRecord {
    /// Creates a record with no arcs or annotations.
    pub(crate) fn new(rid: Rid, payload: EventPayload) -> Self {
        EventRecord {
            rid,
            payload,
            arcs: ArcList::new(),
            tso: None,
        }
    }

    /// Creates a plain instruction record with no arcs or annotations.
    pub fn instr(rid: Rid, instr: Instr) -> Self {
        EventRecord::new(rid, EventPayload::Instr(instr))
    }

    /// Creates a ConflictAlert record.
    pub fn ca(rid: Rid, ca: CaRecord) -> Self {
        EventRecord::new(rid, EventPayload::Ca(ca))
    }

    /// TSO annotation: the versions this record's lifeguard must produce
    /// before processing it, with each one's consumer count (§5.5).
    pub fn produce_versions(&self) -> &[(VersionId, MemRef, u32)] {
        self.tso.as_ref().map_or(&[], |notes| &notes.produce)
    }

    /// TSO annotation: the version this record's lifeguard must consume
    /// when processing it (§5.5).
    pub fn consume_version(&self) -> Option<(VersionId, MemRef)> {
        self.tso.as_ref().and_then(|notes| notes.consume)
    }

    /// Whether the record carries any TSO annotation (and so owns a heap
    /// allocation for it).
    pub fn has_tso_notes(&self) -> bool {
        self.tso.is_some()
    }

    /// Adds a version this record's lifeguard must produce.
    pub fn push_produce_version(&mut self, version: VersionId, mem: MemRef, consumers: u32) {
        self.notes_mut().produce.push((version, mem, consumers));
    }

    /// Sets the version this record's lifeguard must consume.
    pub fn set_consume_version(&mut self, version: VersionId, mem: MemRef) {
        self.notes_mut().consume = Some((version, mem));
    }

    fn notes_mut(&mut self) -> &mut TsoNotes {
        self.tso.get_or_insert_with(Box::default)
    }

    /// The instruction payload, if this is an instruction record.
    pub fn as_instr(&self) -> Option<&Instr> {
        match &self.payload {
            EventPayload::Instr(i) => Some(i),
            EventPayload::Ca(_) => None,
        }
    }
}

/// A metadata operation delivered to a lifeguard event handler.
///
/// This is the post-accelerator view: Inheritance Tracking may coalesce a
/// chain of instruction records into a single [`MetaOp::MemToMem`]; Idempotent
/// Filters may drop [`MetaOp::CheckAccess`] events entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    /// metadata(dst) ← metadata(src): load.
    MemToReg { dst: Reg, src: MemRef },
    /// metadata(dst) ← metadata(src): store.
    RegToMem { dst: MemRef, src: Reg },
    /// metadata(dst) ← metadata(src): register move.
    RegToReg { dst: Reg, src: Reg },
    /// metadata(dst) ← clean (immediate overwrite).
    ImmToReg { dst: Reg },
    /// metadata(dst) ← clean: a store of provably-clean data, produced by
    /// Inheritance Tracking when a register's row inherits from an
    /// immediate.
    ImmToMem { dst: MemRef },
    /// metadata(dst) ← metadata(src): memory-to-memory copy produced by IT.
    MemToMem { dst: MemRef, src: MemRef },
    /// metadata(dst) ← metadata(a) ⊔ metadata(b) (binary ALU).
    AluRR { dst: Reg, a: Reg, b: Option<Reg> },
    /// metadata(dst) ← metadata(a) ⊔ metadata(src) (ALU with memory source).
    AluRM { dst: Reg, a: Reg, src: MemRef },
    /// Invariant check on a memory access (AddrCheck-style).
    CheckAccess { mem: MemRef, kind: AccessKind },
    /// Critical-use check of an indirect jump target.
    CheckJmp { target: Reg },
    /// Atomic read-modify-write (lock word traffic).
    RmwOp { mem: MemRef, reg: Reg },
}

impl MetaOp {
    /// The memory operand this op reads metadata for, if any.
    pub fn mem_src(&self) -> Option<MemRef> {
        match *self {
            MetaOp::MemToReg { src, .. }
            | MetaOp::MemToMem { src, .. }
            | MetaOp::AluRM { src, .. } => Some(src),
            MetaOp::CheckAccess { mem, .. } | MetaOp::RmwOp { mem, .. } => Some(mem),
            _ => None,
        }
    }

    /// The memory operand this op writes metadata for, if any.
    pub fn mem_dst(&self) -> Option<MemRef> {
        match *self {
            MetaOp::RegToMem { dst, .. }
            | MetaOp::MemToMem { dst, .. }
            | MetaOp::ImmToMem { dst } => Some(dst),
            _ => None,
        }
    }
}

/// The one-to-one instruction → metadata-op decoding used when Inheritance
/// Tracking is disabled (the non-accelerated path of Figure 8).
///
/// Returns the op for the *propagation* (dataflow-tracking) view. Lifeguards
/// that only check accesses (AddrCheck) instead use [`check_view`].
pub fn dataflow_view(instr: &Instr) -> Option<MetaOp> {
    match *instr {
        Instr::Load { dst, src } => Some(MetaOp::MemToReg { dst, src }),
        Instr::Store { dst, src } => Some(MetaOp::RegToMem { dst, src }),
        Instr::MovRR { dst, src } => Some(MetaOp::RegToReg { dst, src }),
        Instr::MovRI { dst } => Some(MetaOp::ImmToReg { dst }),
        Instr::Alu1 { dst, a } => Some(MetaOp::AluRR { dst, a, b: None }),
        Instr::Alu2 { dst, a, b } => Some(MetaOp::AluRR { dst, a, b: Some(b) }),
        Instr::AluMem { dst, a, src } => Some(MetaOp::AluRM { dst, a, src }),
        Instr::JmpReg { target } => Some(MetaOp::CheckJmp { target }),
        Instr::Rmw { mem, reg } => Some(MetaOp::RmwOp { mem, reg }),
        Instr::Nop => None,
    }
}

/// The access-check decoding used by memory-checker lifeguards: every memory
/// access becomes a [`MetaOp::CheckAccess`].
pub fn check_view(instr: &Instr) -> Option<MetaOp> {
    instr
        .mem_access()
        .map(|(mem, kind)| MetaOp::CheckAccess { mem, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Rid;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn instr_record_roundtrip() {
        let i = Instr::MovRI { dst: r(1) };
        let rec = EventRecord::instr(Rid(4), i);
        assert_eq!(rec.as_instr(), Some(&i));
        assert!(rec.arcs.is_empty());
        assert!(rec.consume_version().is_none());
        assert!(!rec.has_tso_notes());
    }

    #[test]
    fn ca_record_has_no_instr() {
        let ca = CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(AddrRange::new(0x1000, 64)),
            issuer: ThreadId(0),
            issuer_rid: Rid(10),
            seq: 1,
        };
        let rec = EventRecord::ca(Rid(5), ca);
        assert!(rec.as_instr().is_none());
        match rec.payload {
            EventPayload::Ca(c) => assert_eq!(c.what, HighLevelKind::Malloc),
            EventPayload::Instr(_) => panic!("expected CA payload"),
        }
    }

    #[test]
    fn dataflow_view_covers_all_dataflow_instrs() {
        let m = MemRef::new(0x80, 4);
        assert!(matches!(
            dataflow_view(&Instr::Load { dst: r(0), src: m }),
            Some(MetaOp::MemToReg { .. })
        ));
        assert!(matches!(
            dataflow_view(&Instr::Alu2 {
                dst: r(0),
                a: r(1),
                b: r(2)
            }),
            Some(MetaOp::AluRR { b: Some(_), .. })
        ));
        assert!(matches!(
            dataflow_view(&Instr::JmpReg { target: r(3) }),
            Some(MetaOp::CheckJmp { .. })
        ));
        assert_eq!(dataflow_view(&Instr::Nop), None);
    }

    #[test]
    fn check_view_only_covers_memory_accesses() {
        let m = MemRef::new(0x80, 4);
        assert!(matches!(
            check_view(&Instr::Load { dst: r(0), src: m }),
            Some(MetaOp::CheckAccess {
                kind: AccessKind::Read,
                ..
            })
        ));
        assert!(matches!(
            check_view(&Instr::Store { dst: m, src: r(0) }),
            Some(MetaOp::CheckAccess {
                kind: AccessKind::Write,
                ..
            })
        ));
        assert_eq!(check_view(&Instr::MovRI { dst: r(0) }), None);
    }

    #[test]
    fn meta_op_operand_queries() {
        let m = MemRef::new(0x80, 4);
        let n = MemRef::new(0x200, 4);
        let op = MetaOp::MemToMem { dst: n, src: m };
        assert_eq!(op.mem_src(), Some(m));
        assert_eq!(op.mem_dst(), Some(n));
        assert_eq!(MetaOp::ImmToReg { dst: r(0) }.mem_src(), None);
    }

    #[test]
    fn version_id_display() {
        let v = VersionId {
            consumer: ThreadId(0),
            consumer_rid: Rid(2),
        };
        assert_eq!(v.to_string(), "v<T0,#2>");
    }
}
