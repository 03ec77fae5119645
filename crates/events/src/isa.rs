//! The instruction-grain ISA of the monitored application.
//!
//! ParaLog monitors x86 binaries; lifeguard semantics, however, only depend on
//! the *dataflow shape* of each instruction — which registers/memory locations
//! are sources, which is the destination, and whether the instruction is a
//! "critical use" such as an indirect jump. This module defines a compact
//! RISC-ish ISA that captures exactly that shape, which is all the event
//! capture hardware of Figure 1 extracts anyway (address computation, memory
//! access, data movement, computation).
//!
//! High-level operations (`malloc`/`free`/locks/barriers/system calls) are
//! [`Op`] variants rather than instructions, mirroring the paper's event mux
//! which routes *rare* events differently from *frequent* ones.

use crate::types::{Addr, AddrRange};
use std::fmt;

/// Number of architectural registers tracked per thread.
pub const NUM_REGS: usize = 16;

/// An architectural register of the monitored application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Returns the register index, guaranteed `< NUM_REGS` for registers
    /// constructed through [`Reg::new`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a register, validating the index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_REGS`.
    pub fn new(idx: u8) -> Reg {
        assert!(
            (idx as usize) < NUM_REGS,
            "register index {idx} out of range (< {NUM_REGS})"
        );
        Reg(idx)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A memory operand: address plus access size in bytes (1, 2, 4 or 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemRef {
    /// Byte address of the access.
    pub addr: Addr,
    /// Access width in bytes.
    pub size: u8,
}

impl MemRef {
    /// Creates a memory operand.
    pub fn new(addr: Addr, size: u8) -> MemRef {
        MemRef { addr, size }
    }

    /// The accessed bytes as an address range.
    #[inline]
    pub fn range(&self) -> AddrRange {
        AddrRange::new(self.addr, self.size as u64)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m[{:#x};{}]", self.addr, self.size)
    }
}

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write (both a read and a write for ordering).
    Rmw,
}

impl AccessKind {
    /// Whether the access observes memory.
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Rmw)
    }

    /// Whether the access mutates memory.
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Rmw)
    }
}

/// One dynamic instruction of the monitored application.
///
/// Variants map one-to-one onto the dataflow patterns the lifeguards care
/// about. Taint/initializedness propagation is defined over sources and
/// destinations; AddrCheck-style lifeguards only look at [`Instr::mem_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `dst ← mem` (load).
    Load { dst: Reg, src: MemRef },
    /// `mem ← src` (store).
    Store { dst: MemRef, src: Reg },
    /// `dst ← src` (register move).
    MovRR { dst: Reg, src: Reg },
    /// `dst ← imm` (immediate load; clears propagated state).
    MovRI { dst: Reg },
    /// `dst ← op(a)` (unary computation; propagates `a`'s state).
    Alu1 { dst: Reg, a: Reg },
    /// `dst ← op(a, b)` (binary computation; joins both states).
    Alu2 { dst: Reg, a: Reg, b: Reg },
    /// `dst ← op(a, mem)` (computation with a memory source).
    AluMem { dst: Reg, a: Reg, src: MemRef },
    /// Indirect jump through `target` — a *critical use* for TaintCheck.
    JmpReg { target: Reg },
    /// Atomic read-modify-write on `mem` using `reg` (lock primitives).
    Rmw { mem: MemRef, reg: Reg },
    /// Computation with no tracked dataflow.
    Nop,
}

impl Instr {
    /// The memory access performed by this instruction, if any.
    pub fn mem_access(&self) -> Option<(MemRef, AccessKind)> {
        match *self {
            Instr::Load { src, .. } => Some((src, AccessKind::Read)),
            Instr::Store { dst, .. } => Some((dst, AccessKind::Write)),
            Instr::AluMem { src, .. } => Some((src, AccessKind::Read)),
            Instr::Rmw { mem, .. } => Some((mem, AccessKind::Rmw)),
            _ => None,
        }
    }

    /// The destination register, if the instruction writes one.
    pub fn dst_reg(&self) -> Option<Reg> {
        match *self {
            Instr::Load { dst, .. }
            | Instr::MovRR { dst, .. }
            | Instr::MovRI { dst }
            | Instr::Alu1 { dst, .. }
            | Instr::Alu2 { dst, .. }
            | Instr::AluMem { dst, .. } => Some(dst),
            Instr::Rmw { reg, .. } => Some(reg),
            Instr::Store { .. } | Instr::JmpReg { .. } | Instr::Nop => None,
        }
    }

    /// Source registers of the instruction (up to two).
    pub fn src_regs(&self) -> [Option<Reg>; 2] {
        match *self {
            Instr::Store { src, .. } => [Some(src), None],
            Instr::MovRR { src, .. } => [Some(src), None],
            Instr::Alu1 { a, .. } => [Some(a), None],
            Instr::Alu2 { a, b, .. } => [Some(a), Some(b)],
            Instr::AluMem { a, .. } => [Some(a), None],
            Instr::JmpReg { target } => [Some(target), None],
            Instr::Rmw { reg, .. } => [Some(reg), None],
            Instr::Load { .. } | Instr::MovRI { .. } | Instr::Nop => [None, None],
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Load { dst, src } => write!(f, "mov {dst} <- {src}"),
            Instr::Store { dst, src } => write!(f, "mov {dst} <- {src}"),
            Instr::MovRR { dst, src } => write!(f, "mov {dst} <- {src}"),
            Instr::MovRI { dst } => write!(f, "mov {dst} <- imm"),
            Instr::Alu1 { dst, a } => write!(f, "alu {dst} <- {a}"),
            Instr::Alu2 { dst, a, b } => write!(f, "alu {dst} <- {a}, {b}"),
            Instr::AluMem { dst, a, src } => write!(f, "alu {dst} <- {a}, {src}"),
            Instr::JmpReg { target } => write!(f, "jmp *{target}"),
            Instr::Rmw { mem, reg } => write!(f, "xchg {mem}, {reg}"),
            Instr::Nop => write!(f, "nop"),
        }
    }
}

/// Kind of a modeled system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    /// `read()`-like: the kernel writes unverified input into a user buffer.
    /// TaintCheck taints the buffer (§5.4).
    ReadInput,
    /// `write()`-like: the kernel reads a user buffer; TaintCheck checks the
    /// buffer has no tainted bytes flowing to critical sinks.
    WriteOutput,
    /// Any other system call (no buffer semantics).
    Other,
}

impl fmt::Display for SyscallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyscallKind::ReadInput => "read",
            SyscallKind::WriteOutput => "write",
            SyscallKind::Other => "syscall",
        };
        f.write_str(s)
    }
}

/// Identifier of an application lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifier of an application barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// One operation of an application thread's program: either an instruction or
/// a high-level (rare) event routed through the wrapper library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A frequent, instruction-grain event.
    Instr(Instr),
    /// Heap allocation of `range` (resolved at generation time).
    Malloc { range: AddrRange },
    /// Heap release of `range`.
    Free { range: AddrRange },
    /// Acquire `lock`, spinning on its lock word at `addr`.
    Lock { lock: LockId, addr: Addr },
    /// Release `lock` by storing to its lock word at `addr`.
    Unlock { lock: LockId, addr: Addr },
    /// All-thread barrier.
    Barrier { barrier: BarrierId },
    /// System call, optionally touching a user buffer.
    Syscall {
        kind: SyscallKind,
        buf: Option<AddrRange>,
    },
}

impl Op {
    /// Whether this is a rare, high-level event (routed via ConflictAlert).
    pub fn is_high_level(&self) -> bool {
        !matches!(self, Op::Instr(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn reg_new_validates() {
        assert_eq!(Reg::new(15).index(), 15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_new_rejects_out_of_range() {
        let _ = Reg::new(16);
    }

    #[test]
    fn mem_access_classification() {
        let m = MemRef::new(0x100, 4);
        assert_eq!(
            Instr::Load { dst: r(0), src: m }.mem_access(),
            Some((m, AccessKind::Read))
        );
        assert_eq!(
            Instr::Store { dst: m, src: r(1) }.mem_access(),
            Some((m, AccessKind::Write))
        );
        assert_eq!(
            Instr::Rmw { mem: m, reg: r(1) }.mem_access(),
            Some((m, AccessKind::Rmw))
        );
        assert_eq!(Instr::MovRI { dst: r(0) }.mem_access(), None);
        assert!(AccessKind::Rmw.reads() && AccessKind::Rmw.writes());
        assert!(AccessKind::Read.reads() && !AccessKind::Read.writes());
    }

    #[test]
    fn dataflow_shape() {
        let m = MemRef::new(0x40, 8);
        let alu = Instr::Alu2 {
            dst: r(2),
            a: r(0),
            b: r(1),
        };
        assert_eq!(alu.dst_reg(), Some(r(2)));
        assert_eq!(alu.src_regs(), [Some(r(0)), Some(r(1))]);
        let st = Instr::Store { dst: m, src: r(3) };
        assert_eq!(st.dst_reg(), None);
        assert_eq!(st.src_regs(), [Some(r(3)), None]);
        assert_eq!(Instr::Nop.dst_reg(), None);
    }

    #[test]
    fn high_level_classification() {
        assert!(Op::Malloc {
            range: AddrRange::new(0, 8)
        }
        .is_high_level());
        assert!(!Op::Instr(Instr::Nop).is_high_level());
        assert!(Op::Syscall {
            kind: SyscallKind::Other,
            buf: None
        }
        .is_high_level());
    }

    #[test]
    fn displays_are_informative() {
        let m = MemRef::new(0x100, 4);
        assert!(Instr::Load { dst: r(0), src: m }.to_string().contains("r0"));
        assert!(Instr::JmpReg { target: r(5) }.to_string().contains("*r5"));
        assert_eq!(SyscallKind::ReadInput.to_string(), "read");
    }
}
