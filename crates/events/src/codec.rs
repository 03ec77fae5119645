//! Log compression codec.
//!
//! LBA reports that compression reduces the average event record to under one
//! byte (§2); the 64 KB log buffer therefore holds ~64 K records. This module
//! implements a real codec — opcode nibble packing, delta-encoded addresses
//! against a rolling reference, LEB128 varints — so that the record-size claim
//! is *measured* on our streams rather than assumed (see the `codec` bench).
//!
//! The codec is lossless for the fields the lifeguard needs: payload, arcs and
//! TSO annotations; `rid`s are reconstructed from stream position plus an
//! explicit base.
//!
//! # Integrity
//!
//! Every record is followed by a one-byte *chained* checksum: a rolling
//! 8-bit state folded over every payload byte since the start of the stream
//! (including the rid-base varint), sampled at each record boundary. The
//! per-byte fold is a bijection in the byte, so any single corrupted byte is
//! *guaranteed* to be detected at the next record boundary as long as the
//! framing (the byte-consumption pattern) is unchanged; a corruption that
//! shifts framing is caught either structurally or by the now-misaligned
//! checksum chain with probability `255/256` per subsequent boundary —
//! compounding, since the chain never resynchronizes. One byte per record
//! keeps the stream within the paper's compactness envelope.

use crate::arc::{ArcKind, DependenceArc};
use crate::isa::{Instr, MemRef, Reg, SyscallKind, NUM_REGS};
use crate::record::{CaPhase, CaRecord, EventPayload, EventRecord, HighLevelKind, VersionId};
use crate::types::{AddrRange, Rid, ThreadId};
use std::fmt;

/// Error produced when decoding a corrupt or truncated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    at: usize,
    what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid log stream at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Internal decode outcome: the incremental decoder must tell "the buffered
/// bytes end mid-record — feed more and retry" apart from "these bytes can
/// never be a valid record". [`StreamDecoder::decode_into`] turns the first
/// into "feed more" (or, past [`MAX_RECORD_WIRE_BYTES`], into corruption).
#[derive(Debug)]
enum Fault {
    /// The input ran out mid-record; more bytes may complete it.
    Incomplete,
    /// The bytes are structurally invalid regardless of what follows.
    Corrupt(DecodeError),
}

const OP_LOAD: u8 = 0;
const OP_STORE: u8 = 1;
const OP_MOV_RR: u8 = 2;
const OP_MOV_RI: u8 = 3;
const OP_ALU1: u8 = 4;
const OP_ALU2: u8 = 5;
const OP_ALU_MEM: u8 = 6;
const OP_JMP: u8 = 7;
const OP_RMW: u8 = 8;
const OP_NOP: u8 = 9;
const OP_CA: u8 = 10;

/// Flag bits stored alongside the opcode.
const FLAG_ARCS: u8 = 0x10;
const FLAG_PRODUCE: u8 = 0x20;
const FLAG_CONSUME: u8 = 0x40;
/// Every flag bit a record may carry; the rest of the high nibble is
/// reserved and refused.
const FLAGS_KNOWN: u8 = FLAG_ARCS | FLAG_PRODUCE | FLAG_CONSUME;

/// Odd multiplier of the checksum fold (odd ⇒ the multiply is a bijection
/// on `u8`, so the whole fold is a bijection in the folded byte).
const CHECK_MUL: u8 = 0x9b;

/// One step of the rolling record checksum. XOR mixes the byte in,
/// multiply and rotate diffuse it so byte *order* matters (a pure XOR
/// accumulator would miss transpositions).
fn fold_check(state: u8, byte: u8) -> u8 {
    (state ^ byte).wrapping_mul(CHECK_MUL).rotate_left(3)
}

/// Streaming encoder holding the delta-compression context.
#[derive(Debug, Default)]
pub struct Encoder {
    out: Vec<u8>,
    last_addr: u64,
    records: u64,
    started: bool,
    /// Rolling checksum state over every payload byte emitted so far.
    check: u8,
    /// Prefix of `out` already folded into `check` (ends after the previous
    /// record's checksum byte).
    checked: usize,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Number of records encoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Encoded bytes so far.
    pub fn bytes(&self) -> usize {
        self.out.len()
    }

    /// Average encoded bytes per record (the paper's headline metric).
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.out.len() as f64 / self.records as f64
        }
    }

    /// Appends one record to the stream.
    pub fn push(&mut self, rec: &EventRecord) {
        // Keep headroom for a worst-case record without recomputing a bound
        // per push: doubling from a page-sized floor amortizes to one branch
        // here, so the varint emitters never growth-check byte-at-a-time.
        if self.out.capacity() - self.out.len() < MAX_RECORD_BYTES {
            self.out.reserve(self.out.capacity().max(4096));
        }
        if !self.started {
            self.started = true;
            write_uvarint(&mut self.out, rec.rid.0);
        }
        self.records += 1;
        let mut flags = 0u8;
        if !rec.arcs.is_empty() {
            flags |= FLAG_ARCS;
        }
        if !rec.produce_versions().is_empty() {
            flags |= FLAG_PRODUCE;
        }
        if rec.consume_version().is_some() {
            flags |= FLAG_CONSUME;
        }
        match &rec.payload {
            EventPayload::Instr(i) => self.encode_instr(i, flags),
            EventPayload::Ca(ca) => self.encode_ca(ca, flags),
        }
        if flags & FLAG_ARCS != 0 {
            write_uvarint(&mut self.out, rec.arcs.len() as u64);
            for a in &rec.arcs {
                self.out.push(arc_kind_code(a.kind));
                write_uvarint(&mut self.out, a.src.0 as u64);
                write_uvarint(&mut self.out, a.src_rid.0);
            }
        }
        if flags & FLAG_PRODUCE != 0 {
            write_uvarint(&mut self.out, rec.produce_versions().len() as u64);
            for (v, m, consumers) in rec.produce_versions() {
                write_uvarint(&mut self.out, v.consumer.0 as u64);
                write_uvarint(&mut self.out, v.consumer_rid.0);
                self.encode_memref(*m);
                write_uvarint(&mut self.out, u64::from(*consumers));
            }
        }
        if let Some((v, m)) = rec.consume_version() {
            write_uvarint(&mut self.out, v.consumer.0 as u64);
            write_uvarint(&mut self.out, v.consumer_rid.0);
            self.encode_memref(m);
        }
        // Fold this record's bytes (plus the rid base, on the first record)
        // into the chain and sample it as the record's trailing checksum.
        // The checksum byte itself stays outside the chain.
        let mut state = self.check;
        for &b in &self.out[self.checked..] {
            state = fold_check(state, b);
        }
        self.check = state;
        self.out.push(state);
        self.checked = self.out.len();
    }

    /// Finishes the stream and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    fn encode_instr(&mut self, i: &Instr, flags: u8) {
        match *i {
            Instr::Load { dst, src } => {
                self.out.push(OP_LOAD | flags);
                self.out.push(pack_reg_size(dst, src.size));
                self.encode_addr(src.addr);
            }
            Instr::Store { dst, src } => {
                self.out.push(OP_STORE | flags);
                self.out.push(pack_reg_size(src, dst.size));
                self.encode_addr(dst.addr);
            }
            Instr::MovRR { dst, src } => {
                self.out.push(OP_MOV_RR | flags);
                self.out.push(pack_regs(dst, src));
            }
            Instr::MovRI { dst } => {
                self.out.push(OP_MOV_RI | flags);
                self.out.push(dst.0);
            }
            Instr::Alu1 { dst, a } => {
                self.out.push(OP_ALU1 | flags);
                self.out.push(pack_regs(dst, a));
            }
            Instr::Alu2 { dst, a, b } => {
                self.out.push(OP_ALU2 | flags);
                self.out.push(pack_regs(dst, a));
                self.out.push(b.0);
            }
            Instr::AluMem { dst, a, src } => {
                self.out.push(OP_ALU_MEM | flags);
                self.out.push(pack_regs(dst, a));
                self.out.push(size_code(src.size));
                self.encode_addr(src.addr);
            }
            Instr::JmpReg { target } => {
                self.out.push(OP_JMP | flags);
                self.out.push(target.0);
            }
            Instr::Rmw { mem, reg } => {
                self.out.push(OP_RMW | flags);
                self.out.push(pack_reg_size(reg, mem.size));
                self.encode_addr(mem.addr);
            }
            Instr::Nop => {
                self.out.push(OP_NOP | flags);
            }
        }
    }

    fn encode_ca(&mut self, ca: &CaRecord, flags: u8) {
        self.out.push(OP_CA | flags);
        let (code, payload) = high_level_code(ca.what);
        let mut tag = code << 2;
        if ca.phase == CaPhase::End {
            tag |= 0b01;
        }
        if ca.range.is_some() {
            tag |= 0b10;
        }
        self.out.push(tag);
        if let Some(p) = payload {
            write_uvarint(&mut self.out, p);
        }
        write_uvarint(&mut self.out, ca.issuer.0 as u64);
        write_uvarint(&mut self.out, ca.issuer_rid.0);
        write_uvarint(&mut self.out, ca.seq);
        if let Some(r) = ca.range {
            self.encode_addr(r.start);
            write_uvarint(&mut self.out, r.len);
        }
    }

    fn encode_memref(&mut self, m: MemRef) {
        self.out.push(size_code(m.size));
        self.encode_addr(m.addr);
    }

    fn encode_addr(&mut self, addr: u64) {
        let delta = addr.wrapping_sub(self.last_addr) as i64;
        write_ivarint(&mut self.out, delta);
        self.last_addr = addr;
    }
}

/// Headroom covering any record with at most two arcs, one produce note
/// and a consume note (the overwhelmingly common case) at full-width
/// varints. Records running past it are still encoded correctly — `Vec`
/// grows — just without the pre-reserved fast path.
const MAX_RECORD_BYTES: usize = 256;

/// Encodes a whole slice of records (convenience wrapper over [`Encoder`]).
pub fn encode(records: &[EventRecord]) -> Vec<u8> {
    let mut enc = Encoder::new();
    // Pre-size to the measured common case (~2–3 bytes/record) so steady
    // pushes never reallocate mid-stream.
    enc.out.reserve(records.len() * 4);
    for r in records {
        enc.push(r);
    }
    enc.finish()
}

/// Longest wire form of one record (the first one's includes the stream's
/// rid-base varint): the paper's whole log buffer. 255 peers × 3 arc kinds
/// plus a produce entry per peer at full-width varints is under 20 KiB;
/// what the cap stops is a hostile count (2⁴⁰ arcs, each one valid) that
/// stays "incomplete" forever, re-parsed from its first byte on every feed
/// while the decode buffer grows without bound.
pub const MAX_RECORD_WIRE_BYTES: usize = 64 * 1024;

/// Decodes a stream produced by [`encode`] / [`Encoder`]: the whole-buffer
/// case of [`StreamDecoder::decode_into`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or corrupt input.
pub fn decode(bytes: &[u8]) -> Result<Vec<EventRecord>, DecodeError> {
    let mut stream = StreamDecoder::new();
    stream.feed(bytes);
    let mut out = Vec::new();
    stream.decode_into(&mut out, usize::MAX)?;
    if !stream.is_clean() {
        return Err(DecodeError {
            at: bytes.len(),
            what: "truncated record",
        });
    }
    Ok(out)
}

/// Bytes [`read_plain`] sees past a record boundary: the longest record it
/// recognises (head, packed registers, size code, a 9-byte address delta
/// and the check byte) is 13.
const WINDOW: usize = 16;

/// A plain record [`read_plain`] recognised, with the decode state after it.
struct Plain {
    instr: Instr,
    /// Wire bytes of the record, its check byte included.
    len: usize,
    last_addr: u64,
    check: u8,
}

/// The window path of [`StreamDecoder::decode_into`]: parses the record at
/// the head of `w` at fixed offsets when it is a plain instruction (no flag
/// bit, not a ConflictAlert) and its chained checksum holds. It recognises
/// records and never refuses one: anything else — a flag, a CA, an unknown
/// opcode, an out-of-range whole-byte register, a bad size code, a wrapping
/// address range, an address delta past 9 varint bytes, a checksum
/// mismatch — is `None`, and [`Decoder::read_record`] re-parses the record
/// from its first byte, so every error and its offset come from there.
fn read_plain(w: &[u8; WINDOW], last_addr: u64, check: u8) -> Option<Plain> {
    let mut addr = last_addr;
    // The memory operand at `w[at..]` and the offset past its address delta.
    let mut operand = |at: usize, size: u8| -> Option<(MemRef, usize)> {
        let mut raw = 0u64;
        for (i, &b) in w[at..at + 9].iter().enumerate() {
            raw |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                addr = last_addr.wrapping_add(zigzag_decode(raw) as u64);
                addr.checked_add(u64::from(size))?;
                return Some((MemRef::new(addr, size), at + i + 1));
            }
        }
        None
    };
    let whole_reg = |b: u8| (usize::from(b) < NUM_REGS).then_some(Reg(b));
    let (instr, end) = match w[0] {
        OP_LOAD => {
            let (dst, size) = unpack_reg_size(w[1]);
            let (src, end) = operand(2, size)?;
            (Instr::Load { dst, src }, end)
        }
        OP_STORE => {
            let (src, size) = unpack_reg_size(w[1]);
            let (dst, end) = operand(2, size)?;
            (Instr::Store { dst, src }, end)
        }
        OP_MOV_RR => {
            let (dst, src) = unpack_regs(w[1]);
            (Instr::MovRR { dst, src }, 2)
        }
        OP_MOV_RI => (
            Instr::MovRI {
                dst: whole_reg(w[1])?,
            },
            2,
        ),
        OP_ALU1 => {
            let (dst, a) = unpack_regs(w[1]);
            (Instr::Alu1 { dst, a }, 2)
        }
        OP_ALU2 => {
            let (dst, a) = unpack_regs(w[1]);
            let b = whole_reg(w[2])?;
            (Instr::Alu2 { dst, a, b }, 3)
        }
        OP_ALU_MEM => {
            let (dst, a) = unpack_regs(w[1]);
            let (src, end) = operand(3, decode_size(w[2])?)?;
            (Instr::AluMem { dst, a, src }, end)
        }
        OP_JMP => (
            Instr::JmpReg {
                target: whole_reg(w[1])?,
            },
            2,
        ),
        OP_RMW => {
            let (reg, size) = unpack_reg_size(w[1]);
            let (mem, end) = operand(2, size)?;
            (Instr::Rmw { mem, reg }, end)
        }
        OP_NOP => (Instr::Nop, 1),
        _ => return None,
    };
    let state = w[..end]
        .iter()
        .fold(check, |state, &b| fold_check(state, b));
    (state == w[end]).then_some(Plain {
        instr,
        len: end + 1,
        last_addr: addr,
        check: state,
    })
}

struct Decoder<'a> {
    /// The buffered wire, cut at [`MAX_RECORD_WIRE_BYTES`] past `fold_from`.
    bytes: &'a [u8],
    pos: usize,
    /// End of the last complete record; `check` covers the bytes before it.
    fold_from: usize,
    last_addr: u64,
    check: u8,
}

impl<'a> Decoder<'a> {
    fn err(&self, what: &'static str) -> Fault {
        Fault::Corrupt(DecodeError { at: self.pos, what })
    }

    fn read_byte(&mut self, _what: &'static str) -> Result<u8, Fault> {
        let b = *self.bytes.get(self.pos).ok_or(Fault::Incomplete)?;
        self.pos += 1;
        Ok(b)
    }

    /// Folds the record just read (with the rid-base varint, for the first)
    /// into the chain — the mirror of [`Encoder::push`] — and compares it
    /// with the trailing checksum byte, which stays outside the fold.
    fn read_check(&mut self) -> Result<(), Fault> {
        let got = *self.bytes.get(self.pos).ok_or(Fault::Incomplete)?;
        let mut state = self.check;
        for &b in &self.bytes[self.fold_from..self.pos] {
            state = fold_check(state, b);
        }
        if got != state {
            return Err(self.err("record checksum mismatch"));
        }
        self.check = state;
        self.pos += 1;
        self.fold_from = self.pos;
        Ok(())
    }

    fn read_uvarint(&mut self, what: &'static str) -> Result<u64, Fault> {
        let mut shift = 0u32;
        let mut acc = 0u64;
        loop {
            let b = self.read_byte(what)?;
            acc |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(acc);
            }
            shift += 7;
            if shift >= 64 {
                return Err(self.err("varint overflow"));
            }
        }
    }

    /// A varint that must fit `T` (a thread id, a count, a lock id): a value
    /// past `T`'s range is refused as `what`, never truncated into a
    /// different, valid-looking value.
    fn read_narrow<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, Fault> {
        let wide = self.read_uvarint(what)?;
        T::try_from(wide).map_err(|_| self.err(what))
    }

    /// A register named by a whole byte; every other register is a 4-bit
    /// field and so always in range.
    fn read_reg(&mut self, what: &'static str) -> Result<Reg, Fault> {
        let idx = self.read_byte(what)?;
        if usize::from(idx) < NUM_REGS {
            Ok(Reg(idx))
        } else {
            Err(self.err("register out of range"))
        }
    }

    fn read_addr(&mut self) -> Result<u64, Fault> {
        let delta = zigzag_decode(self.read_uvarint("addr delta")?);
        let addr = self.last_addr.wrapping_add(delta as u64);
        self.last_addr = addr;
        Ok(addr)
    }

    /// Outside bytes become address ranges here, so this is where one that
    /// wraps the address space is refused: downstream range arithmetic
    /// ([`AddrRange::end`]) is a plain add.
    fn checked_range(&self, start: u64, len: u64) -> Result<AddrRange, Fault> {
        match start.checked_add(len) {
            Some(_) => Ok(AddrRange::new(start, len)),
            None => Err(self.err("address range wraps")),
        }
    }

    fn read_operand(&mut self, size: u8) -> Result<MemRef, Fault> {
        let addr = self.read_addr()?;
        self.checked_range(addr, u64::from(size))?;
        Ok(MemRef::new(addr, size))
    }

    fn read_memref(&mut self) -> Result<MemRef, Fault> {
        let size =
            decode_size(self.read_byte("memref size")?).ok_or_else(|| self.err("bad size"))?;
        self.read_operand(size)
    }

    /// The window path: decodes records while [`read_plain`] recognises the
    /// one at the head of the next [`WINDOW`] bytes and `out` is shorter
    /// than `limit`, and returns the rid of the record it stopped at.
    fn read_plain_run(&mut self, mut rid: Rid, out: &mut Vec<EventRecord>, limit: usize) -> Rid {
        while out.len() < limit {
            let Some(window) = self.bytes.get(self.fold_from..self.fold_from + WINDOW) else {
                break;
            };
            let window: [u8; WINDOW] = window.try_into().expect("a window's length");
            let Some(plain) = read_plain(&window, self.last_addr, self.check) else {
                break;
            };
            out.push(EventRecord::instr(rid, plain.instr));
            rid = rid.next();
            self.fold_from += plain.len;
            self.last_addr = plain.last_addr;
            self.check = plain.check;
        }
        self.pos = self.fold_from;
        rid
    }

    /// `rid` is `None` for the stream's first record, which the rid-base
    /// varint precedes.
    fn read_record(&mut self, rid: Option<Rid>) -> Result<EventRecord, Fault> {
        let rid = match rid {
            Some(rid) => rid,
            None => Rid(self.read_uvarint("rid base")?),
        };
        let head = self.read_byte("opcode")?;
        let opcode = head & 0x0f;
        let flags = head & 0xf0;
        if flags & !FLAGS_KNOWN != 0 {
            return Err(self.err("reserved flag"));
        }
        let payload = if opcode == OP_CA {
            EventPayload::Ca(self.read_ca()?)
        } else {
            EventPayload::Instr(self.read_instr(opcode)?)
        };
        let mut rec = EventRecord::new(rid, payload);
        if flags & FLAG_ARCS != 0 {
            let n = self.read_uvarint("arc count")?;
            for _ in 0..n {
                let kind =
                    decode_arc_kind(self.read_byte("arc kind")?).ok_or(self.err("bad arc"))?;
                let src = ThreadId(self.read_narrow("arc src out of range")?);
                let src_rid = Rid(self.read_uvarint("arc rid")?);
                rec.arcs.push(DependenceArc::new(src, src_rid, kind));
            }
        }
        if flags & FLAG_PRODUCE != 0 {
            let n = self.read_uvarint("produce count")?;
            for _ in 0..n {
                let v = self.read_version()?;
                let m = self.read_memref()?;
                let consumers = self.read_narrow("consumer count out of range")?;
                rec.push_produce_version(v, m, consumers);
            }
        }
        if flags & FLAG_CONSUME != 0 {
            let v = self.read_version()?;
            let m = self.read_memref()?;
            rec.set_consume_version(v, m);
        }
        self.read_check()?;
        Ok(rec)
    }

    fn read_version(&mut self) -> Result<VersionId, Fault> {
        let consumer = ThreadId(self.read_narrow("version thread out of range")?);
        let consumer_rid = Rid(self.read_uvarint("version rid")?);
        Ok(VersionId {
            consumer,
            consumer_rid,
        })
    }

    fn read_instr(&mut self, opcode: u8) -> Result<Instr, Fault> {
        Ok(match opcode {
            OP_LOAD => {
                let (reg, size) = unpack_reg_size(self.read_byte("reg")?);
                Instr::Load {
                    dst: reg,
                    src: self.read_operand(size)?,
                }
            }
            OP_STORE => {
                let (reg, size) = unpack_reg_size(self.read_byte("reg")?);
                Instr::Store {
                    dst: self.read_operand(size)?,
                    src: reg,
                }
            }
            OP_MOV_RR => {
                let (dst, src) = unpack_regs(self.read_byte("regs")?);
                Instr::MovRR { dst, src }
            }
            OP_MOV_RI => Instr::MovRI {
                dst: self.read_reg("reg")?,
            },
            OP_ALU1 => {
                let (dst, a) = unpack_regs(self.read_byte("regs")?);
                Instr::Alu1 { dst, a }
            }
            OP_ALU2 => {
                let (dst, a) = unpack_regs(self.read_byte("regs")?);
                let b = self.read_reg("reg b")?;
                Instr::Alu2 { dst, a, b }
            }
            OP_ALU_MEM => {
                let (dst, a) = unpack_regs(self.read_byte("regs")?);
                let size = decode_size(self.read_byte("size")?).ok_or(self.err("bad size"))?;
                Instr::AluMem {
                    dst,
                    a,
                    src: self.read_operand(size)?,
                }
            }
            OP_JMP => Instr::JmpReg {
                target: self.read_reg("reg")?,
            },
            OP_RMW => {
                let (reg, size) = unpack_reg_size(self.read_byte("reg")?);
                Instr::Rmw {
                    mem: self.read_operand(size)?,
                    reg,
                }
            }
            OP_NOP => Instr::Nop,
            _ => return Err(self.err("unknown opcode")),
        })
    }

    fn read_ca(&mut self) -> Result<CaRecord, Fault> {
        let tag = self.read_byte("ca tag")?;
        let err = self.err("bad CA kind");
        let what =
            decode_high_level(tag >> 2, || self.read_narrow("ca id out of range"))?.ok_or(err)?;
        let phase = if tag & 0b01 != 0 {
            CaPhase::End
        } else {
            CaPhase::Begin
        };
        let has_range = tag & 0b10 != 0;
        let issuer = ThreadId(self.read_narrow("ca issuer out of range")?);
        let issuer_rid = Rid(self.read_uvarint("ca issuer rid")?);
        let seq = self.read_uvarint("ca seq")?;
        let range = if has_range {
            let start = self.read_addr()?;
            let len = self.read_uvarint("ca len")?;
            Some(self.checked_range(start, len)?)
        } else {
            None
        };
        Ok(CaRecord {
            what,
            phase,
            range,
            issuer,
            issuer_rid,
            seq,
        })
    }
}

/// Incremental decoder: [`decode`] is its whole-buffer case.
///
/// Wire bytes are [`feed`](StreamDecoder::feed) in whatever chunks the
/// transport delivers — split points may fall anywhere, including inside a
/// varint — and complete records are pulled a batch at a time with
/// [`decode_into`](StreamDecoder::decode_into). A pull that reaches the end
/// of the buffered bytes mid-record rewinds to the record boundary: feed
/// more bytes and retry. Delta-compression context (rolling address
/// reference, implicit record ids, checksum chain) carries across feeds, so
/// any chunking of the same stream decodes to the same records or to the
/// same error at the same offset.
///
/// Memory stays bounded: consumed bytes are reclaimed on every `feed` and a
/// record may not outgrow [`MAX_RECORD_WIRE_BYTES`], so the internal buffer
/// never holds more than one partial record of that size plus the most
/// recent chunk ([`buffered`](StreamDecoder::buffered) reports the current
/// residency).
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (reclaimed on the next feed).
    pos: usize,
    /// Absolute stream offset of `buf[0]` (keeps error positions global).
    offset: usize,
    /// Record id of the next record, once the first one was decoded.
    next_rid: Option<Rid>,
    last_addr: u64,
    /// Rolling checksum chain state, carried across feeds like `last_addr`.
    check: u8,
    records: u64,
}

impl StreamDecoder {
    /// A decoder with no bytes buffered.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends transport bytes, reclaiming the already-consumed prefix.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.offset += self.pos;
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently resident in the decode buffer (unconsumed tail plus
    /// any not-yet-reclaimed prefix).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether every fed byte has been consumed. `false` after the producer
    /// ends the stream means it was truncated mid-record.
    pub fn is_clean(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Decodes up to `max` complete records from the buffered bytes,
    /// appending them to `out`, and returns how many. Fewer than `max`
    /// means the buffered bytes end at a record boundary or mid-record (the
    /// partial record stays buffered): feed more and retry.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the bytes are structurally invalid or a
    /// record outgrows [`MAX_RECORD_WIRE_BYTES`] — corruption is permanent,
    /// unlike running out of buffered bytes. Records decoded ahead of the
    /// fault are in `out`.
    pub fn decode_into(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<usize, DecodeError> {
        let wire = &self.buf[self.pos..];
        let mut d = Decoder {
            bytes: wire,
            pos: 0,
            fold_from: 0,
            last_addr: self.last_addr,
            check: self.check,
        };
        let before = out.len();
        let fault = loop {
            // The window path first: past the first record, whose rid base
            // only the general path reads.
            if let Some(rid) = self.next_rid {
                self.next_rid = Some(d.read_plain_run(rid, out, before.saturating_add(max)));
            }
            // State is committed at record boundaries only (`d.fold_from`
            // and `d.check` move only past a whole record, on either
            // path), so a partial or faulty record rewinds to its first
            // byte.
            self.last_addr = d.last_addr;
            if out.len() - before == max || d.fold_from == wire.len() {
                break None;
            }
            let cap = d.fold_from + MAX_RECORD_WIRE_BYTES;
            d.bytes = &wire[..wire.len().min(cap)];
            match d.read_record(self.next_rid) {
                Ok(rec) => {
                    self.next_rid = Some(rec.rid.next());
                    out.push(rec);
                }
                Err(Fault::Incomplete) if wire.len() < cap => break None,
                Err(Fault::Incomplete) => {
                    break Some(DecodeError {
                        at: cap,
                        what: "record exceeds 65536 bytes",
                    })
                }
                Err(Fault::Corrupt(e)) => break Some(e),
            }
        };
        let got = out.len() - before;
        let base = self.offset + self.pos;
        self.pos += d.fold_from;
        self.check = d.check;
        self.records += got as u64;
        match fault {
            // Rebase from this call's slice to the absolute stream offset.
            Some(e) => Err(DecodeError {
                at: base + e.at,
                what: e.what,
            }),
            None => Ok(got),
        }
    }

    /// Decodes the next complete record — [`decode_into`](Self::decode_into)
    /// with `max = 1`, at a `Vec` per call — or `Ok(None)` when the buffered
    /// bytes end mid-record (feed more and retry).
    ///
    /// # Errors
    ///
    /// As [`decode_into`](Self::decode_into).
    pub fn next_record(&mut self) -> Result<Option<EventRecord>, DecodeError> {
        let mut one = Vec::with_capacity(1);
        self.decode_into(&mut one, 1)?;
        Ok(one.pop())
    }
}

fn pack_regs(a: Reg, b: Reg) -> u8 {
    (a.0 << 4) | (b.0 & 0x0f)
}

fn unpack_regs(b: u8) -> (Reg, Reg) {
    (Reg(b >> 4), Reg(b & 0x0f))
}

fn size_code(size: u8) -> u8 {
    match size {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3,
    }
}

fn decode_size(code: u8) -> Option<u8> {
    match code {
        0 => Some(1),
        1 => Some(2),
        2 => Some(4),
        3 => Some(8),
        _ => None,
    }
}

fn pack_reg_size(reg: Reg, size: u8) -> u8 {
    (reg.0 << 4) | size_code(size)
}

fn unpack_reg_size(b: u8) -> (Reg, u8) {
    (Reg(b >> 4), 1 << (b & 0x03))
}

fn arc_kind_code(k: ArcKind) -> u8 {
    match k {
        ArcKind::Raw => 0,
        ArcKind::War => 1,
        ArcKind::Waw => 2,
        ArcKind::Sync => 3,
    }
}

fn decode_arc_kind(b: u8) -> Option<ArcKind> {
    match b {
        0 => Some(ArcKind::Raw),
        1 => Some(ArcKind::War),
        2 => Some(ArcKind::Waw),
        3 => Some(ArcKind::Sync),
        _ => None,
    }
}

fn high_level_code(h: HighLevelKind) -> (u8, Option<u64>) {
    match h {
        HighLevelKind::Malloc => (0, None),
        HighLevelKind::Free => (1, None),
        HighLevelKind::Syscall(SyscallKind::ReadInput) => (2, None),
        HighLevelKind::Syscall(SyscallKind::WriteOutput) => (3, None),
        HighLevelKind::Syscall(SyscallKind::Other) => (4, None),
        HighLevelKind::Lock(l) => (5, Some(u64::from(l.0))),
        HighLevelKind::Unlock(l) => (6, Some(u64::from(l.0))),
        HighLevelKind::Barrier(b) => (7, Some(u64::from(b.0))),
    }
}

fn decode_high_level(
    b: u8,
    payload: impl FnOnce() -> Result<u32, Fault>,
) -> Result<Option<HighLevelKind>, Fault> {
    Ok(match b {
        0 => Some(HighLevelKind::Malloc),
        1 => Some(HighLevelKind::Free),
        2 => Some(HighLevelKind::Syscall(SyscallKind::ReadInput)),
        3 => Some(HighLevelKind::Syscall(SyscallKind::WriteOutput)),
        4 => Some(HighLevelKind::Syscall(SyscallKind::Other)),
        5 => Some(HighLevelKind::Lock(crate::isa::LockId(payload()?))),
        6 => Some(HighLevelKind::Unlock(crate::isa::LockId(payload()?))),
        7 => Some(HighLevelKind::Barrier(crate::isa::BarrierId(payload()?))),
        _ => None,
    })
}

fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    // Single-byte values (same-line address deltas, small ids) dominate the
    // streams; skip the staging buffer entirely for them.
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    // Emit into a fixed stack buffer, then append with one bounds-checked
    // memcpy instead of up to ten growth-checked pushes.
    let mut buf = [0u8; 10];
    let mut n = 0;
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = b;
            n += 1;
            break;
        }
        buf[n] = b | 0x80;
        n += 1;
    }
    out.extend_from_slice(&buf[..n]);
}

fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    write_uvarint(out, zigzag_encode(v));
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            out.clear();
            write_uvarint(&mut out, v);
            let mut d = Decoder {
                bytes: &out,
                pos: 0,
                fold_from: 0,
                last_addr: 0,
                check: 0,
            };
            assert_eq!(d.read_uvarint("t").unwrap(), v);
        }
    }

    fn sample_records() -> Vec<EventRecord> {
        let m = MemRef::new(0x1000, 4);
        let n = MemRef::new(0x1004, 4);
        let mut recs = vec![
            EventRecord::instr(Rid(1), Instr::Load { dst: r(0), src: m }),
            EventRecord::instr(
                Rid(2),
                Instr::Alu2 {
                    dst: r(1),
                    a: r(0),
                    b: r(2),
                },
            ),
            EventRecord::instr(Rid(3), Instr::Store { dst: n, src: r(1) }),
            EventRecord::instr(Rid(4), Instr::JmpReg { target: r(1) }),
            EventRecord::ca(
                Rid(5),
                CaRecord {
                    what: HighLevelKind::Malloc,
                    phase: CaPhase::End,
                    range: Some(AddrRange::new(0x2000, 128)),
                    issuer: ThreadId(1),
                    issuer_rid: Rid(77),
                    seq: 3,
                },
            ),
        ];
        recs[2]
            .arcs
            .push(DependenceArc::new(ThreadId(1), Rid(9), ArcKind::Raw));
        recs[2]
            .arcs
            .push(DependenceArc::new(ThreadId(2), Rid(4), ArcKind::War));
        recs[0].set_consume_version(
            VersionId {
                consumer: ThreadId(0),
                consumer_rid: Rid(1),
            },
            m,
        );
        recs[3].push_produce_version(
            VersionId {
                consumer: ThreadId(2),
                consumer_rid: Rid(42),
            },
            n,
            2,
        );
        recs
    }

    /// One record per opcode (both CA encodings), carrying 0–3 arcs (the
    /// third spills), a two-entry produce list and a consume note.
    fn golden_records() -> Vec<EventRecord> {
        use crate::isa::LockId;
        let m = MemRef::new(0x1000, 4);
        let n = MemRef::new(0x0ff8, 8);
        let ca = |what, phase, range, seq| {
            EventPayload::Ca(CaRecord {
                what,
                phase,
                range,
                issuer: ThreadId(1),
                issuer_rid: Rid(40),
                seq,
            })
        };
        let instrs = [
            Instr::Load { dst: r(0), src: m },
            Instr::Store { dst: n, src: r(1) },
            Instr::MovRR {
                dst: r(2),
                src: r(3),
            },
            Instr::MovRI { dst: r(4) },
            Instr::Alu1 { dst: r(5), a: r(6) },
            Instr::Alu2 {
                dst: r(7),
                a: r(8),
                b: r(9),
            },
            Instr::AluMem {
                dst: r(10),
                a: r(11),
                src: MemRef::new(0x2001, 1),
            },
            Instr::JmpReg { target: r(12) },
            Instr::Rmw {
                mem: MemRef::new(0x3000, 8),
                reg: r(13),
            },
            Instr::Nop,
        ];
        let read = HighLevelKind::Syscall(SyscallKind::ReadInput);
        let cas = [
            ca(read, CaPhase::Begin, Some(AddrRange::new(0x4000, 256)), 7),
            ca(HighLevelKind::Unlock(LockId(3)), CaPhase::End, None, 8),
        ];
        let mut recs: Vec<EventRecord> = instrs
            .into_iter()
            .map(EventPayload::Instr)
            .chain(cas)
            .zip(100..)
            .map(|(payload, rid)| EventRecord::new(Rid(rid), payload))
            .collect();
        let arc = |t, rid, kind| DependenceArc::new(ThreadId(t), Rid(rid), kind);
        recs[1].arcs.push(arc(2, 90, ArcKind::Raw));
        recs[2]
            .arcs
            .extend([arc(3, 91, ArcKind::War), arc(0, 300, ArcKind::Waw)]);
        recs[3].arcs.extend([
            arc(1, 5, ArcKind::Sync),
            arc(2, 92, ArcKind::Raw),
            arc(3, 93, ArcKind::War),
        ]);
        let vid = |t, rid| VersionId {
            consumer: ThreadId(t),
            consumer_rid: Rid(rid),
        };
        recs[4].push_produce_version(vid(2, 17), m, 1);
        recs[4].push_produce_version(vid(3, 18), n, 2);
        recs[5].set_consume_version(vid(0, 105), m);
        recs
    }

    /// The wire bytes of [`golden_records`], captured before the in-memory
    /// record was shrunk to 128 B. Neither a layout change nor anything
    /// else may move one: a stream written by an older producer must still
    /// decode.
    const GOLDEN_WIRE: [u8; 93] = [
        0x64, 0x00, 0x02, 0x80, 0x40, 0x94, 0x11, 0x13, 0x0f, 0x01, 0x00, 0x02, 0x5a, 0xc2, 0x12,
        0x23, 0x02, 0x01, 0x03, 0x5b, 0x02, 0x00, 0xac, 0x02, 0xc3, 0x13, 0x04, 0x03, 0x03, 0x01,
        0x05, 0x00, 0x02, 0x5c, 0x01, 0x03, 0x5d, 0x51, 0x24, 0x56, 0x02, 0x02, 0x11, 0x02, 0x10,
        0x01, 0x03, 0x12, 0x03, 0x0f, 0x02, 0xef, 0x45, 0x78, 0x09, 0x00, 0x69, 0x02, 0x10, 0xa9,
        0x06, 0xab, 0x00, 0x82, 0x40, 0x50, 0x07, 0x0c, 0xdd, 0x08, 0xd3, 0xfe, 0x3f, 0xda, 0x09,
        0x0e, 0x0a, 0x0a, 0x01, 0x28, 0x07, 0x80, 0x40, 0x80, 0x02, 0x6a, 0x0a, 0x19, 0x03, 0x01,
        0x28, 0x08, 0x99,
    ];

    #[test]
    fn wire_format_is_pinned() {
        let recs = golden_records();
        assert_eq!(encode(&recs), GOLDEN_WIRE, "a wire byte moved");
        assert_eq!(decode(&GOLDEN_WIRE).unwrap(), recs);
    }

    #[test]
    fn decoding_the_common_case_allocates_nothing() {
        for rec in decode(&GOLDEN_WIRE).unwrap() {
            let annotated = !rec.produce_versions().is_empty() || rec.consume_version().is_some();
            assert_eq!(rec.has_tso_notes(), annotated, "rid {}", rec.rid);
            assert_eq!(rec.arcs.is_spilled(), rec.arcs.len() > 2, "rid {}", rec.rid);
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let recs = sample_records();
        let bytes = encode(&recs);
        let back = decode(&bytes).unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn empty_stream() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn sequential_stream_is_compact() {
        // A stride-4 load loop — the common case — should approach ~4 bytes
        // per record: opcode, packed reg/size, 1-byte delta, and the
        // per-record integrity byte.
        let mut recs = Vec::new();
        for i in 0..1000u64 {
            recs.push(EventRecord::instr(
                Rid(i + 1),
                Instr::Load {
                    dst: r(0),
                    src: MemRef::new(0x10000 + i * 4, 4),
                },
            ));
        }
        let bytes = encode(&recs);
        let per_record = bytes.len() as f64 / recs.len() as f64;
        assert!(
            per_record < 4.5,
            "expected compact encoding, got {per_record}"
        );
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn truncated_stream_errors() {
        let recs = sample_records();
        let bytes = encode(&recs);
        let err = decode(&bytes[..bytes.len() - 2]);
        assert!(err.is_err());
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("invalid log stream"));
    }

    #[test]
    fn corrupt_opcode_errors() {
        let bytes = vec![0x00, 0x0f]; // rid base 0, opcode 0x0f = unknown
        assert!(decode(&bytes).is_err());
        let err = decode(&amid(&[0x0f])).expect_err("unknown opcode");
        assert!(err.to_string().contains("unknown opcode"), "{err}");
        // A `NOP` whose framing and checksum hold but whose head byte sets
        // the reserved flag bit, first and amid valid records.
        for wire in [sealed(&[OP_NOP | 0x80]), amid(&[OP_NOP | 0x80])] {
            let err = decode(&wire).expect_err("reserved flag");
            assert!(err.to_string().contains("reserved flag"), "{err}");
        }
    }

    /// One hand-built record after a zero rid base, sealed with its chained
    /// checksum, so only the field under test can be wrong.
    fn sealed(body: &[u8]) -> Vec<u8> {
        sealed_all(&[body])
    }

    /// Hand-built records after a zero rid base, each sealed with its
    /// chained checksum.
    fn sealed_all(bodies: &[&[u8]]) -> Vec<u8> {
        let (mut wire, mut check, mut folded) = (vec![0x00], 0, 0);
        for body in bodies {
            wire.extend_from_slice(body);
            check = wire[folded..]
                .iter()
                .fold(check, |state, &b| fold_check(state, b));
            wire.push(check);
            folded = wire.len();
        }
        wire
    }

    /// Eight `Alu1` records: 24 wire bytes, more than a window.
    const TAIL: [&[u8]; 8] = [&[OP_ALU1, 0x12]; 8];

    /// `body` sealed between a first `NOP` and [`TAIL`]: past the first
    /// record and with a whole window buffered, where the window path sees
    /// it before the general path does.
    fn amid(body: &[u8]) -> Vec<u8> {
        sealed_all(&[&[&[OP_NOP][..], body][..], &TAIL].concat())
    }

    #[test]
    fn out_of_range_ids_and_counts_are_corrupt_not_truncated() {
        let varint = |v: u64| {
            let mut out = Vec::new();
            write_uvarint(&mut out, v);
            out
        };
        let memref = [2, 0]; // four bytes at address delta 0
                             // Each record names a thread id through `thread` or a 32-bit id or
                             // count through `wide`, and says which field that is.
        let records = |thread: &[u8], wide: &[u8]| {
            [
                (
                    [&[OP_NOP | FLAG_ARCS, 1, 1][..], thread, &[1]].concat(),
                    "arc src",
                ),
                (
                    [&[OP_NOP | FLAG_PRODUCE, 1, 0, 1][..], &memref, wide].concat(),
                    "consumer count",
                ),
                (
                    [&[OP_NOP | FLAG_CONSUME][..], thread, &[1], &memref].concat(),
                    "version thread",
                ),
                ([&[OP_CA, 0][..], thread, &[1, 0]].concat(), "ca issuer"),
                ([&[OP_CA, 5 << 2][..], wide, &[0, 1, 0]].concat(), "ca id"),
                ([&[OP_CA, 6 << 2][..], wide, &[0, 1, 0]].concat(), "ca id"),
                ([&[OP_CA, 7 << 2][..], wide, &[0, 1, 0]].concat(), "ca id"),
            ]
        };
        for (body, what) in records(&varint(7), &varint(7)) {
            for wire in [sealed(&body), amid(&body)] {
                decode(&wire).unwrap_or_else(|err| panic!("{what}: {err}"));
            }
        }
        // 65,543 is thread 7 and 2^32 + 7 is id 7 once cast with `as`.
        for (body, what) in records(&varint(65_543), &varint((1 << 32) + 7)) {
            for wire in [sealed(&body), amid(&body)] {
                let err = decode(&wire).expect_err(what);
                assert!(
                    err.to_string().contains(&format!("{what} out of range")),
                    "{what}: {err}"
                );
            }
        }
    }

    #[test]
    fn whole_byte_registers_out_of_range_are_corrupt() {
        // `MovRI.dst`, `Alu2.b` and `JmpReg.target` each take a byte of
        // their own; register 15 is the last one the machine has.
        let records = |reg: u8| {
            [
                vec![OP_MOV_RI, reg],
                vec![OP_ALU2, 0x01, reg],
                vec![OP_JMP, reg],
            ]
        };
        for body in records(NUM_REGS as u8 - 1) {
            for wire in [sealed(&body), amid(&body)] {
                decode(&wire).unwrap_or_else(|err| panic!("{body:?}: {err}"));
            }
        }
        for reg in [NUM_REGS as u8, 200] {
            for body in records(reg) {
                for wire in [sealed(&body), amid(&body)] {
                    let err = decode(&wire).expect_err("register 16 and up");
                    assert!(err.to_string().contains("register out of range"), "{err}");
                }
            }
        }
    }

    #[test]
    fn wrapping_address_ranges_are_corrupt() {
        let store = |rid, addr| {
            EventRecord::instr(
                Rid(rid),
                Instr::Store {
                    dst: MemRef::new(addr, 4),
                    src: Reg::new(0),
                },
            )
        };
        let input = |rid, start, len| {
            EventRecord::ca(
                Rid(rid),
                CaRecord {
                    what: HighLevelKind::Syscall(SyscallKind::ReadInput),
                    phase: CaPhase::End,
                    range: Some(AddrRange::new(start, len)),
                    issuer: ThreadId(0),
                    issuer_rid: Rid(rid),
                    seq: 0,
                },
            )
        };
        // Each record first, and amid valid ones.
        let amid = |recs: &[EventRecord]| {
            let nop = EventRecord::instr(Rid(0), Instr::Nop);
            let alu = EventRecord::instr(Rid(0), Instr::Alu1 { dst: r(1), a: r(2) });
            let mut all: Vec<_> = [&[nop][..], recs, &vec![alu; 8]].concat();
            for (rid, rec) in all.iter_mut().enumerate() {
                rec.rid = Rid(rid as u64 + 1);
            }
            all
        };
        for rec in [store(1, u64::MAX - 1), input(1, u64::MAX - 8, 64)] {
            for recs in [vec![rec.clone()], amid(&[rec])] {
                let err = decode(&encode(&recs)).expect_err("range wraps");
                assert!(err.to_string().contains("address range wraps"), "{err}");
            }
        }
        // The last bytes of the address space are addressable, and a delta
        // across its middle is not an overflow.
        let top = [
            store(1, u64::MAX - 4),
            input(2, i64::MAX as u64, 1),
            input(3, 0, 8),
        ];
        assert_eq!(decode(&encode(&top)).expect("no range wraps"), top);
        let top = amid(&top);
        assert_eq!(decode(&encode(&top)).expect("no range wraps"), top);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let recs = sample_records();
        let bytes = encode(&recs);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                decode(&bad).is_err(),
                "flip at offset {i}/{} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn checksum_mismatch_is_corruption_not_incomplete() {
        // Flip a payload byte of the first record while keeping framing
        // intact: the streaming decoder must report a permanent error, not
        // "feed more bytes".
        let recs = sample_records();
        let mut bytes = encode(&recs);
        // Offset 2 is inside the first record's body (0 = rid base,
        // 1 = head byte with the consume flag, 2 = reg/size pack).
        bytes[2] ^= 0xFF;
        let mut sd = StreamDecoder::new();
        sd.feed(&bytes);
        let err = sd.next_record().expect_err("corruption is permanent");
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    /// Streams `bytes` through a [`StreamDecoder`] in the given chunk sizes
    /// (cycled), pulling `max` records at a time.
    fn stream_decode(
        bytes: &[u8],
        chunks: &[usize],
        max: usize,
    ) -> Result<Vec<EventRecord>, DecodeError> {
        let mut sd = StreamDecoder::new();
        let mut out = Vec::new();
        let (mut at, mut sizes) = (0, chunks.iter().cycle());
        while at < bytes.len() {
            let n = (*sizes.next().unwrap()).min(bytes.len() - at);
            sd.feed(&bytes[at..at + n]);
            at += n;
            while sd.decode_into(&mut out, max)? == max {}
            // One partial record at most is ever resident.
            assert!(sd.buffered() <= MAX_RECORD_BYTES + n);
        }
        assert_eq!(sd.records(), out.len() as u64);
        assert!(sd.is_clean(), "every byte consumed");
        Ok(out)
    }

    #[test]
    fn stream_decoder_matches_batch_byte_at_a_time() {
        // A seeded random chunking beside the fixed ones.
        let mut lcg = 0x5eed_u64;
        let random: Vec<usize> = (0..64)
            .map(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                1 + (lcg >> 60) as usize
            })
            .collect();
        let wraps = |start, len| {
            encode(&[EventRecord::ca(
                Rid(1),
                CaRecord {
                    what: HighLevelKind::Syscall(SyscallKind::ReadInput),
                    phase: CaPhase::End,
                    range: Some(AddrRange::new(start, len)),
                    issuer: ThreadId(0),
                    issuer_rid: Rid(1),
                    seq: 0,
                },
            )])
        };
        let mut flipped = encode(&sample_records());
        flipped[9] ^= 0xFF;
        // The good stream, `corrupt_opcode_errors`' and
        // `wrapping_address_ranges_are_corrupt`'s, and a mid-stream flip:
        // every chunking and batch size yields what `decode` yields, down
        // to the error offset.
        let streams = [
            encode(&sample_records()),
            vec![0x00, 0x0f],
            wraps(u64::MAX - 8, 64),
            flipped,
        ];
        for bytes in &streams {
            let whole = decode(bytes);
            for chunks in [&[1][..], &[3], &[bytes.len()], &random] {
                for max in [1, 3, 256] {
                    assert_eq!(
                        stream_decode(bytes, chunks, max),
                        whole,
                        "chunks {chunks:?}, max {max}"
                    );
                }
            }
        }
        assert_eq!(decode(&streams[0]).unwrap(), sample_records());
    }

    /// Decodes `bytes` fed in `chunk`-byte pieces, pulling after each: the
    /// records decoded ahead of any fault, and the fault (a tail left over
    /// is a truncated record, as in [`decode`]).
    fn decode_in_chunks(bytes: &[u8], chunk: usize) -> (Vec<EventRecord>, Option<DecodeError>) {
        let mut sd = StreamDecoder::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            sd.feed(piece);
            if let Err(err) = sd.decode_into(&mut out, usize::MAX) {
                return (out, Some(err));
            }
        }
        let truncated = (!sd.is_clean()).then_some(DecodeError {
            at: bytes.len(),
            what: "truncated record",
        });
        (out, truncated)
    }

    /// Per record of `wire` a whole-buffer decode meets, the faulty one
    /// included, whether the window path recognises it there.
    fn window_verdicts(wire: &[u8]) -> Vec<bool> {
        let mut sd = StreamDecoder::new();
        sd.feed(wire);
        let mut verdicts = Vec::new();
        while !sd.is_clean() {
            let window = wire.get(sd.pos..sd.pos + WINDOW);
            verdicts.push(match (sd.next_rid, window) {
                (Some(_), Some(w)) => {
                    read_plain(w.try_into().unwrap(), sd.last_addr, sd.check).is_some()
                }
                _ => false,
            });
            if sd.decode_into(&mut Vec::new(), 1) != Ok(1) {
                break;
            }
        }
        verdicts
    }

    #[test]
    fn window_path_matches_the_general_path() {
        let mem = |addr, size| MemRef::new(addr, size);
        let load = |addr, size| Instr::Load {
            dst: r(1),
            src: mem(addr, size),
        };
        let store = |addr, size| Instr::Store {
            dst: mem(addr, size),
            src: r(15),
        };
        let alu_mem = |size| Instr::AluMem {
            dst: r(10),
            a: r(11),
            src: mem(0x2000 + u64::from(size), size),
        };
        let (alu1, wide) = (Instr::Alu1 { dst: r(6), a: r(7) }, r(15));
        // Every plain opcode and size, the widest whole-byte registers, a
        // 6-byte address delta, a 10-byte one there and back, an arc, a CA
        // and a tail: each with whether the window path takes it.
        let (near, far) = (0x1000 + (1 << 40), 0x1000 + (1 << 40) + (1 << 62));
        let instrs = [
            (Instr::Nop, false), // the first record
            (load(0x1000, 1), true),
            (load(0x1008, 2), true),
            (store(0x1010, 4), true),
            (store(0x0ff0, 8), true),
            (
                Instr::MovRR {
                    dst: r(4),
                    src: r(5),
                },
                true,
            ),
            (Instr::MovRI { dst: wide }, true),
            (alu1, true),
            (
                Instr::Alu2 {
                    dst: r(8),
                    a: r(9),
                    b: wide,
                },
                true,
            ),
            (alu_mem(1), true),
            (alu_mem(2), true),
            (alu_mem(4), true),
            (alu_mem(8), true),
            (Instr::JmpReg { target: wide }, true),
            (
                Instr::Rmw {
                    mem: mem(0x3000, 8),
                    reg: r(12),
                },
                true,
            ),
            (load(near, 4), true),
            (load(far, 4), false),
            (load(0x1000, 4), false),
            (Instr::Nop, true),
            (store(0x1010, 4), false), // gets an arc
            (Instr::Nop, false),       // becomes a CA
            (alu1, true),
            (alu1, true),
            (alu1, true),
            (alu1, true),
            // The last five have less than a window after them.
            (alu1, false),
            (alu1, false),
            (alu1, false),
            (alu1, false),
            (alu1, false),
        ];
        let mut recs: Vec<_> = instrs
            .iter()
            .zip(1..)
            .map(|(&(instr, _), rid)| EventRecord::instr(Rid(rid), instr))
            .collect();
        recs[19]
            .arcs
            .push(DependenceArc::new(ThreadId(1), Rid(9), ArcKind::Raw));
        recs[20].payload = EventPayload::Ca(CaRecord {
            what: HighLevelKind::Lock(crate::isa::LockId(3)),
            phase: CaPhase::Begin,
            range: None,
            issuer: ThreadId(0),
            issuer_rid: Rid(21),
            seq: 4,
        });
        let good = encode(&recs);
        let expected: Vec<bool> = instrs.iter().map(|&(_, window)| window).collect();
        assert_eq!(window_verdicts(&good), expected);
        assert_eq!(decode(&good).unwrap(), recs);

        // Records the window path steps aside for, each amid valid ones:
        // the general path refuses all but the 10-byte delta.
        let ten_byte_delta = [&[OP_LOAD, 0x02][..], &[0x80; 9], &[0x01]].concat();
        let eleven_byte_delta = [&[OP_LOAD, 0x02][..], &[0x80; 10], &[0x01]].concat();
        let mut flipped_check = amid(&[OP_ALU1, 0x34]);
        flipped_check[5] ^= 0x01; // rid base, NOP, its check, ALU1 body
        let stepped_aside = [
            amid(&[OP_MOV_RI, NUM_REGS as u8]),
            amid(&[OP_ALU2, 0x01, NUM_REGS as u8]),
            amid(&[OP_JMP, 200]),
            amid(&[OP_ALU_MEM, 0x12, 4, 0]),
            amid(&[OP_STORE, 0x02, 3]), // 4 bytes at u64::MAX - 1
            amid(&ten_byte_delta),
            amid(&eleven_byte_delta),
            amid(&[OP_NOP | 0x80]),
            flipped_check,
        ];
        for wire in &stepped_aside {
            assert_eq!(window_verdicts(wire)[..2], [false, false], "{wire:?}");
            let valid = wire == &stepped_aside[5];
            assert_eq!(decode(wire).is_ok(), valid, "{wire:?}");
        }

        // Every single-byte flip and every truncation: a whole-buffer decode
        // (window path engaged) and a byte-at-a-time one (where the window
        // path takes no record: a plain record is complete before 16 bytes
        // past its start have arrived) agree on the records and on the
        // error, offset included.
        for wire in std::iter::once(&good).chain(&stepped_aside) {
            let mut variants: Vec<Vec<u8>> = (0..=wire.len()).map(|n| wire[..n].to_vec()).collect();
            for at in 0..wire.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut bad = wire.clone();
                    bad[at] ^= mask;
                    variants.push(bad);
                }
            }
            for bytes in &variants {
                let whole = decode_in_chunks(bytes, bytes.len());
                assert_eq!(decode_in_chunks(bytes, 1), whole, "{bytes:?}");
                let (recs, fault) = whole;
                assert_eq!(decode(bytes), fault.map_or(Ok(recs), Err));
            }
        }
    }

    /// `NOP|FLAG_ARCS` claiming 2⁴⁰ arcs, then valid 3-byte arcs without
    /// end: every prefix is a plausible record start.
    fn endless_record(len: usize) -> Vec<u8> {
        let mut wire = vec![0x00, OP_NOP | FLAG_ARCS];
        write_uvarint(&mut wire, 1 << 40);
        assert_eq!(wire.len(), 8);
        wire.resize(len, 0x01); // arc: kind WAR, src thread 1, rid 1
        wire
    }

    #[test]
    fn a_record_that_never_ends_is_corrupt_at_the_cap() {
        const CHUNK: usize = 8 * 1024;
        let wire = endless_record(16 << 20);
        let started = std::time::Instant::now();
        let mut sd = StreamDecoder::new();
        let mut out = Vec::new();
        let err = wire
            .chunks(CHUNK)
            .find_map(|chunk| {
                sd.feed(chunk);
                assert!(sd.buffered() <= MAX_RECORD_WIRE_BYTES + CHUNK);
                sd.decode_into(&mut out, 256).err()
            })
            .expect("refused");
        assert!(out.is_empty());
        let said = err.to_string();
        assert!(
            said.contains(&format!("record exceeds {MAX_RECORD_WIRE_BYTES} bytes")),
            "{said}"
        );
        // The verdict is the record's, not the chunking's.
        assert_eq!(decode(&wire).unwrap_err(), err);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));

        // A record of exactly the cap (the first one's span includes the
        // rid base) is a record; one arc more is not.
        let mut rec = EventRecord::instr(Rid(128), Instr::Nop);
        for _ in 0..(MAX_RECORD_WIRE_BYTES - 7) / 3 {
            rec.arcs
                .push(DependenceArc::new(ThreadId(1), Rid(1), ArcKind::War));
        }
        let widest = encode(std::slice::from_ref(&rec));
        assert_eq!(widest.len(), MAX_RECORD_WIRE_BYTES);
        assert_eq!(decode(&widest).unwrap(), [rec.clone()]);
        rec.arcs
            .push(DependenceArc::new(ThreadId(1), Rid(1), ArcKind::War));
        assert_eq!(decode(&encode(&[rec])).unwrap_err(), err);
    }

    #[test]
    fn stream_decoder_reports_partial_tail() {
        let bytes = encode(&sample_records());
        let mut sd = StreamDecoder::new();
        sd.feed(&bytes[..bytes.len() - 2]);
        while sd.next_record().unwrap().is_some() {}
        assert!(!sd.is_clean(), "truncated mid-record leaves a partial tail");
        // Feeding the missing tail completes the record.
        sd.feed(&bytes[bytes.len() - 2..]);
        assert!(sd.next_record().unwrap().is_some());
        assert!(sd.is_clean());
    }

    #[test]
    fn stream_decoder_flags_corruption() {
        let mut sd = StreamDecoder::new();
        sd.feed(&[0x00, 0x0f]); // rid base 0, opcode 0x0f = unknown
        let err = sd.next_record().expect_err("corrupt opcode");
        assert!(err.to_string().contains("invalid log stream"));
    }

    #[test]
    fn encoder_reports_rate() {
        let mut enc = Encoder::new();
        assert_eq!(enc.bytes_per_record(), 0.0);
        for rec in sample_records() {
            enc.push(&rec);
        }
        assert_eq!(enc.records(), 5);
        assert!(enc.bytes_per_record() > 0.0);
    }
}
