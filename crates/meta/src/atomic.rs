//! The byte shadow: one lock-free `AtomicU8` of metadata per application
//! byte, and the application→metadata address mapping of the modelled
//! machine.
//!
//! One container serves every byte-shadow lifeguard in both forms. The
//! concurrent forms share it across real threads without any locks on the
//! hot path — the §5.3 synchronization-free fast path, valid for lifeguards
//! (like TaintCheck) whose application reads map to metadata reads and
//! whose enforced arcs carry the release/acquire edges. The sequential
//! forms hold the same type behind an `Rc`: the co-simulation issues well
//! under one shadow operation per record, a handful of bytes each, which no
//! denser host layout makes measurably cheaper end to end (ARCHITECTURE.md,
//! "Tried and removed").
//!
//! Chunks of 64 KiB of application space live in a lazily grown chunk
//! directory (`chunks.rs`): hot-path accesses after the first touch are two
//! array indexes and an atomic byte access, and `join`/`fill` run
//! chunk-resident slice loops instead of re-walking the index per byte.
//! Each chunk's head marks, one bit per 64 B line (sixteen words per
//! chunk, boxed so the directory's slots stay small), the lines that ever
//! held a non-zero byte, so [`AtomicShadow::fingerprint`] reads only those
//! lines instead of the whole materialized footprint: a session's
//! footprint is a few thousand written lines spread over hundreds of KiB
//! of chunks.
//!
//! The paper's §6 metadata widths (2 bits per byte for TAINTCHECK, 1 for
//! ADDRCHECK) live where they matter to the results — in the *modelled*
//! machine: [`meta_addr`] and [`meta_footprint`] place a lifeguard's
//! metadata accesses in the simulated address space from
//! `LifeguardSpec::bits_per_byte`, feeding the lifeguard-core cache model
//! and the M-TLB. The host-side container is an implementation detail.

use crate::chunks::ChunkDir;
use crate::fingerprint::Fingerprint;
use paralog_events::{Addr, AddrRange, MemRef};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Base virtual address of the metadata space (far above application space).
const META_BASE: Addr = 0x4000_0000_0000;

/// The metadata virtual address shadowing `app_addr` at `bits` metadata
/// bits per application byte — what the M-TLB computes in hardware and
/// handler code computes in software via the two-level walk.
///
/// One metadata byte covers `8 / bits` application bytes — always fewer
/// than a cache line — so two application addresses whose metadata share a
/// byte always share an application cache line, and any write conflict
/// between them is already ordered by captured arcs: the §5.3
/// *bit-manipulation data race* argument (condition 3).
pub fn meta_addr(bits: u32, app_addr: Addr) -> Addr {
    // `app_addr * bits / 8`, the multiplication split around the division
    // so that no application address overflows it (widths are at most 8;
    // 0, a lifeguard without a byte shadow, maps everything to the base).
    let bits = u64::from(bits);
    META_BASE.wrapping_add(app_addr / 8 * bits + app_addr % 8 * bits / 8)
}

/// The metadata addresses (first through last byte) touched when shadowing
/// an access of `size` bytes at `app_addr`; feeds the lifeguard-core cache
/// model.
pub fn meta_footprint(bits: u32, app_addr: Addr, size: u64) -> AddrRange {
    let first = meta_addr(bits, app_addr);
    let last = meta_addr(bits, app_addr + (size.max(1) - 1));
    AddrRange::new(first, last.wrapping_sub(first) + 1)
}

/// Application bytes per shadow chunk.
const CHUNK: u64 = 64 * 1024;

/// Dense span: 2^17 chunks × 64 KiB = 8 GiB of application space —
/// covering every address region the platform uses (heap, private, shared,
/// sync words). Addresses beyond it take the spill lock (rare sentinel
/// ranges only).
const DENSE_CHUNKS: u64 = 1 << 17;

/// Application bytes per marked line of a chunk: one cache line.
const LINE: usize = 64;

/// Mark words per chunk, one bit per line.
const MARK_WORDS: usize = CHUNK as usize / LINE / u64::BITS as usize;

/// A chunk's line marks, boxed so that a directory table slot holds one
/// pointer of them instead of 128 bytes.
type Marks = Box<[AtomicU64; MARK_WORDS]>;

/// A lock-free shadow memory: one `AtomicU8` per application byte in
/// lazily materialized 64 KiB chunks. Untouched bytes read clean (0).
#[derive(Debug)]
pub struct AtomicShadow {
    /// Each chunk's head: bit `i % 64` of word `i / 64` is set once line
    /// `i` (see [`line_marks`]) held a non-zero byte, and is never cleared.
    chunks: ChunkDir<AtomicU8, Marks>,
}

impl Default for AtomicShadow {
    fn default() -> Self {
        AtomicShadow::new()
    }
}

/// The chunk-resident segments of `addr..addr + len`: `(chunk index, byte
/// range within the chunk)`, ascending.
#[inline]
fn segments(addr: u64, len: u64) -> impl Iterator<Item = (u64, std::ops::Range<usize>)> {
    let end = addr + len;
    let mut a = addr;
    std::iter::from_fn(move || {
        (a < end).then(|| {
            let lo = a % CHUNK;
            let n = (CHUNK - lo).min(end - a);
            let seg = (a / CHUNK, lo as usize..(lo + n) as usize);
            a += n;
            seg
        })
    })
}

/// Marks the lines that `seg`, a non-empty byte range of one chunk,
/// touches, with a read-modify-write only for a mark word missing one of
/// its bits. A range inside one line (any access that crosses no 64 B
/// boundary) costs one relaxed load and a bit test.
#[inline]
fn mark_lines(marks: &[AtomicU64; MARK_WORDS], seg: &Range<usize>) {
    let (first, last) = (seg.start / LINE, (seg.end - 1) / LINE);
    if first == last {
        let bit = 1 << (first % u64::BITS as usize);
        let word = &marks[first / u64::BITS as usize];
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    } else {
        mark_wide(marks, seg);
    }
}

/// [`mark_lines`] over several lines, out of line so that the one-line
/// case stays small enough to inline into `fill_range`.
#[inline(never)]
fn mark_wide(marks: &[AtomicU64; MARK_WORDS], seg: &Range<usize>) {
    for (w, bits) in line_marks(seg) {
        if marks[w].load(Ordering::Relaxed) & bits != bits {
            marks[w].fetch_or(bits, Ordering::Relaxed);
        }
    }
}

/// The marks of the lines that `seg`, a non-empty byte range of one
/// chunk, touches: `(mark word, bits of that word)`, ascending.
#[inline]
fn line_marks(seg: &Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    const BITS: usize = u64::BITS as usize;
    let (first, last) = (seg.start / LINE, (seg.end - 1) / LINE);
    (first / BITS..last / BITS + 1).map(move |w| {
        let lo = first.max(w * BITS) - w * BITS;
        let hi = last.min(w * BITS + BITS - 1) - w * BITS;
        (w, (u64::MAX >> (BITS - 1 - hi)) & (u64::MAX << lo))
    })
}

impl AtomicShadow {
    /// An empty shadow; chunks materialize on first write.
    pub fn new() -> Self {
        AtomicShadow {
            chunks: ChunkDir::new(DENSE_CHUNKS, CHUNK as usize),
        }
    }

    /// Chunk-resident ranged OR: one index walk per chunk segment, then a
    /// straight slice loop.
    pub fn join_range(&self, addr: u64, len: u64) -> u8 {
        segments(addr, len).fold(0, |acc, (ci, seg)| {
            let joined = self.chunks.with(ci, false, |c| {
                c[seg]
                    .iter()
                    .fold(0, |acc, byte| acc | byte.load(Ordering::Acquire))
            });
            acc | joined.unwrap_or(0)
        })
    }

    /// Chunk-resident ranged store. Writing clean (zero) metadata to a
    /// never-touched chunk is skipped entirely, preserving sparsity. A
    /// non-zero store marks its lines in the chunk's head first (see
    /// [`mark_lines`]).
    pub fn fill_range(&self, addr: u64, len: u64, v: u8) {
        for (ci, seg) in segments(addr, len) {
            self.chunks.with_head(ci, v != 0, |marks, c| {
                // Relaxed: a fingerprint taken once the writers finished
                // sees every mark through the session's own
                // synchronisation; one taken mid-run is a racy snapshot
                // either way.
                if v != 0 {
                    mark_lines(marks, &seg);
                }
                for byte in &c[seg] {
                    byte.store(v, Ordering::Release);
                }
            });
        }
    }

    /// Chunk-resident ranged equality: whether every byte of the range
    /// holds exactly `v`. Untouched chunks read as clean (all-zero), so a
    /// never-written range equals `v` iff `v == 0`.
    pub fn eq_range(&self, addr: u64, len: u64, v: u8) -> bool {
        segments(addr, len).all(|(ci, seg)| {
            self.chunks
                .with(ci, false, |c| {
                    c[seg].iter().all(|byte| byte.load(Ordering::Acquire) == v)
                })
                .unwrap_or(v == 0)
        })
    }

    /// Copies the shadow of `addr..addr+len` out byte-wise (the §5.5
    /// produce-version snapshot). Untouched chunks contribute clean zeros
    /// without allocating.
    pub fn snapshot(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        let mut off = 0;
        for (ci, seg) in segments(addr, len) {
            let dst = &mut out[off..off + seg.len()];
            off += seg.len();
            self.chunks.with(ci, false, |c| {
                for (dst, byte) in dst.iter_mut().zip(&c[seg]) {
                    *dst = byte.load(Ordering::Acquire);
                }
            });
        }
        out
    }

    /// Joins (bitwise-ORs) the shadow of one memory operand.
    pub fn join(&self, mem: MemRef) -> u8 {
        self.join_range(mem.addr, u64::from(mem.size))
    }

    /// Fills one memory operand's shadow with `v`.
    pub fn fill(&self, mem: MemRef, v: u8) {
        self.fill_range(mem.addr, u64::from(mem.size), v);
    }

    /// Order-insensitive fingerprint: every non-clean byte mixed in as
    /// `(application address, value)`. Only lines that ever held a
    /// non-zero byte are read.
    pub fn fingerprint(&self) -> u64 {
        // One byte of every marked line first. These loads do not depend on
        // each other, so the cache misses of lines last written on another
        // core overlap; the scan below would take them one line at a time
        // (`taint_paced`'s cold fingerprint: 328 -> 254 µs).
        let mut touched = 0;
        self.chunks.for_each_head(|_, marks, data| {
            for_each_marked_line(marks, |line| {
                touched |= data[line * LINE].load(Ordering::Relaxed);
            });
        });
        std::hint::black_box(touched);
        let mut fp = Fingerprint::new();
        self.chunks.for_each_head(|ci, marks, data| {
            for_each_marked_line(marks, |line| {
                let start = line * LINE;
                for (off, byte) in (start..).zip(&data[start..start + LINE]) {
                    let v = byte.load(Ordering::Acquire);
                    if v != 0 {
                        fp.mix(ci * CHUNK + off as u64, u64::from(v));
                    }
                }
            });
        });
        fp.finish()
    }
}

/// Calls `f(line)` for every line `marks` has set, ascending.
#[inline]
fn for_each_marked_line(marks: &[AtomicU64; MARK_WORDS], mut f: impl FnMut(usize)) {
    for (w, word) in marks.iter().enumerate() {
        let mut marked = word.load(Ordering::Relaxed);
        while marked != 0 {
            f(w * u64::BITS as usize + marked.trailing_zeros() as usize);
            marked &= marked - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_addr_mapping() {
        // TAINTCHECK: 1 metadata byte per 4 application bytes; ADDRCHECK: 8.
        assert_eq!(meta_addr(2, 0), META_BASE);
        assert_eq!(meta_addr(2, 4), META_BASE + 1);
        assert_eq!(meta_addr(1, 8), META_BASE + 1);
        // Footprint of an aligned 4-byte access in 2-bit shadow = 1 metadata
        // byte; unaligned accesses straddle two.
        assert_eq!(meta_footprint(2, 0, 4).len, 1);
        assert_eq!(meta_footprint(2, 4, 4).len, 1);
        assert_eq!(meta_footprint(2, 2, 4).len, 2);
        // No application address overflows the mapping, and a lifeguard
        // without a byte shadow touches the base only.
        assert_eq!(meta_footprint(2, u64::MAX - 3, 4).len, 1);
        assert_eq!(meta_footprint(8, u64::MAX - 3, 4).len, 4);
        assert_eq!(meta_footprint(0, 0x1234, 4), AddrRange::new(META_BASE, 1));
    }

    #[test]
    fn bit_manipulation_race_condition_three() {
        // Two app addresses whose metadata share a byte must share an app
        // cache line (64B) — §5.3 condition 3.
        for a in 0u64..256 {
            for b in (a + 1)..256 {
                if meta_addr(2, a) == meta_addr(2, b) {
                    assert_eq!(a / 64, b / 64, "addrs {a},{b} share meta byte across lines");
                }
            }
        }
    }

    #[test]
    fn lazy_chunks_cover_dense_and_spill() {
        let far = (DENSE_CHUNKS + 10) * CHUNK + 0x100;
        let shadow = AtomicShadow::new();
        shadow.fill_range(0x1000, 4, 3);
        shadow.fill_range(far, 4, 5);
        assert_eq!(shadow.join_range(0x1000, 4), 3);
        assert_eq!(shadow.join_range(far, 4), 5);
        // Untouched addresses read clean without allocating.
        assert_eq!(shadow.join_range(0x9999_0000, 8), 0);
        assert!(!shadow.chunks.is_materialized(0x9999_0000 / CHUNK));
    }

    #[test]
    fn clean_fills_do_not_allocate() {
        let shadow = AtomicShadow::new();
        shadow.fill_range(0x4000, 64, 0);
        assert!(!shadow.chunks.is_materialized(0x4000 / CHUNK));
    }

    #[test]
    fn ranges_crossing_chunks_stay_consistent() {
        let shadow = AtomicShadow::new();
        let boundary = CHUNK * 3;
        shadow.fill_range(boundary - 8, 16, 1);
        assert_eq!(shadow.join_range(boundary - 8, 16), 1);
        assert_eq!(shadow.join_range(boundary - 1, 2), 1);
        shadow.fill_range(boundary - 8, 16, 0);
        assert_eq!(shadow.join_range(boundary - 8, 16), 0);
    }

    #[test]
    fn eq_range_and_snapshot_cover_chunk_seams_and_clean_space() {
        let shadow = AtomicShadow::new();
        let boundary = CHUNK * 5;
        shadow.fill_range(boundary - 4, 8, 1);
        assert!(shadow.eq_range(boundary - 4, 8, 1));
        assert!(!shadow.eq_range(boundary - 5, 9, 1), "leading clean byte");
        assert!(shadow.eq_range(0x7000, 64, 0), "untouched space is clean");
        assert!(!shadow.eq_range(0x7000, 64, 1));
        let snap = shadow.snapshot(boundary - 6, 12);
        assert_eq!(snap, vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0]);
        assert_eq!(shadow.snapshot(0x9000, 4), vec![0; 4], "clean snapshot");
    }

    #[test]
    fn fingerprint_tracks_nonzero_bytes() {
        let shadow = AtomicShadow::new();
        let before = shadow.fingerprint();
        shadow.fill(MemRef::new(0x2000, 4), 1);
        assert_ne!(shadow.fingerprint(), before);
        shadow.fill(MemRef::new(0x2000, 4), 0);
        assert_eq!(shadow.fingerprint(), before);

        // Bytes over several lines and chunks: the first and last byte of
        // a chunk, both sides of a line seam, a range over four lines, a
        // write straddling a 4 KiB seam (two mark words), one over three
        // mark words, and the spill tier; write `i` stores `i + 1`.
        let line = LINE as u64;
        let far = (DENSE_CHUNKS + 3) * CHUNK + 5 * line;
        let writes = [
            (CHUNK, 1),
            (2 * CHUNK - 1, 1),
            (3 * CHUNK + line - 2, 4),
            (4 * CHUNK + 7 * line - 10, 2 * line + 20),
            (5 * CHUNK + 4096 - 6, 12),
            (6 * CHUNK + 1000, 8000),
            (far, 8),
        ];
        let of = |writes: &[(u64, u64)]| {
            let mut fp = Fingerprint::new();
            for (i, &(addr, len)) in writes.iter().enumerate() {
                for a in addr..addr + len {
                    fp.mix(a, i as u64 + 1);
                }
            }
            fp.finish()
        };
        for (i, &(addr, len)) in writes.iter().enumerate() {
            shadow.fill_range(addr, len, i as u8 + 1);
        }
        assert_eq!(shadow.fingerprint(), of(&writes));
        // A zeroed line keeps its mark; what it holds decides.
        for k in (0..writes.len()).rev() {
            let (addr, len) = writes[k];
            shadow.fill_range(addr, len, 0);
            assert_eq!(shadow.fingerprint(), of(&writes[..k]), "write {k} zeroed");
        }
        assert_eq!(shadow.fingerprint(), before, "every byte zeroed back");
    }

    #[test]
    fn line_marks_cover_exactly_the_touched_lines() {
        let marks = |seg: Range<usize>| line_marks(&seg).collect::<Vec<_>>();
        let chunk = CHUNK as usize;
        // One line, whole or in part, and a line seam.
        assert_eq!(marks(0..1), [(0, 1)]);
        assert_eq!(marks(5 * LINE..6 * LINE), [(0, 1 << 5)]);
        assert_eq!(marks(LINE - 1..LINE + 1), [(0, 0b11)]);
        // A 4 KiB seam: the last line of word 0 and the first of word 1.
        assert_eq!(marks(4096 - 2..4096 + 2), [(0, 1 << 63), (1, 1)]);
        // Lines 15 through 140: the top of word 0, all of 1, 13 bits of 2.
        assert_eq!(
            marks(1000..9000),
            [(0, u64::MAX << 15), (1, u64::MAX), (2, (1 << 13) - 1)]
        );
        // The whole chunk fills all sixteen words.
        let whole: Vec<_> = (0..MARK_WORDS).map(|w| (w, u64::MAX)).collect();
        assert_eq!(MARK_WORDS, 16);
        assert_eq!(marks(0..chunk), whole);
        // The chunk's last byte: word 15, bit 63.
        assert_eq!(marks(chunk - 1..chunk), [(15, 1 << 63)]);

        // `fill_range` sets exactly those bits, in one line or over a mark
        // word seam, keeps them through a clean store, and a clean store
        // marks nothing.
        let shadow = AtomicShadow::new();
        shadow.fill_range(CHUNK + 3 * LINE as u64 + 8, 4, 1);
        shadow.fill_range(CHUNK + 4096 - 2, 4, 1);
        shadow.fill_range(CHUNK + 2 * chunk as u64 - 1, 1, 1);
        shadow.fill_range(CHUNK + 4096 - 2, 4, 0);
        shadow.fill_range(CHUNK + 5000, 64, 0);
        let head = |ci| {
            shadow
                .chunks
                .with_head(ci, false, |marks, _| {
                    marks
                        .iter()
                        .map(|w| w.load(Ordering::Relaxed))
                        .collect::<Vec<_>>()
                })
                .expect("materialized")
        };
        let mut want = vec![0; MARK_WORDS];
        (want[0], want[1]) = (1 << 63 | 1 << 3, 1);
        assert_eq!(head(1), want);
        want = vec![0; MARK_WORDS];
        want[15] = 1 << 63;
        assert_eq!(head(2), want);
    }

    #[test]
    fn concurrent_first_touch_is_race_free() {
        let shadow = AtomicShadow::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let shadow = &shadow;
                scope.spawn(move || {
                    for i in 0..64 {
                        shadow.fill_range(CHUNK * 7 + t * 256 + i, 1, 1);
                    }
                });
            }
        });
        assert_eq!(shadow.join_range(CHUNK * 7, 4 * 256), 1);
    }
}
