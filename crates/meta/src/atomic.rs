//! Lock-free atomic shadow memory for real-thread replay.
//!
//! The deterministic simulator establishes *that* the ordering design is
//! correct; the real-thread executor demonstrates it holds under genuine
//! concurrency, sharing this shadow without any locks on the hot path — the
//! §5.3 synchronization-free fast path, valid for lifeguards (like
//! TaintCheck) whose application reads map to metadata reads and whose
//! enforced arcs carry the release/acquire edges.
//!
//! Earlier revisions pre-scanned the whole captured streams to build the
//! chunk index up front. Streaming ingestion removed that option — a
//! replayed stream's footprint is unknown until its tail arrives — so the
//! index is now **lazily grown**: a flat first level of [`OnceLock`] slots
//! (one per 64 KiB application chunk) covering the dense application span,
//! initialized race-free by whichever worker touches a chunk first, plus a
//! mutex-protected spill map for far outliers. Hot-path accesses after the
//! first touch remain a plain array index and an atomic byte access — no
//! locks, no hashing.

use crate::fingerprint::Fingerprint;
use paralog_events::MemRef;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Application bytes per atomic shadow chunk.
const CHUNK: u64 = 64 * 1024;

/// Dense first-level span: 2^17 chunks × 64 KiB = 8 GiB of application
/// space — covering every address region the platform uses (heap, private,
/// shared, sync words) with a 2 MiB slot table. Addresses beyond it take
/// the spill lock (rare sentinel ranges only).
const DENSE_CHUNKS: u64 = 1 << 17;

/// A lock-free shadow memory: one `AtomicU8` per application byte behind a
/// flat, lazily initialized first-level chunk index. Mirroring
/// [`ShadowMemory`](crate::ShadowMemory)'s layout, a hot-path access is a
/// direct array index off the high address bits — no hashing — and
/// `join`/`fill` run chunk-resident slice loops instead of re-walking the
/// index per byte.
#[derive(Debug)]
pub struct AtomicShadow {
    /// First level: chunk index → chunk, initialized on first touch.
    dense: Box<[OnceLock<Box<[AtomicU8]>>]>,
    /// Outlier chunks beyond the dense span. `Arc` lets an accessor clone a
    /// handle out of the lock and run its slice loop without holding it.
    spill: Mutex<BTreeMap<u64, Arc<[AtomicU8]>>>,
}

impl Default for AtomicShadow {
    fn default() -> Self {
        AtomicShadow::new()
    }
}

fn new_chunk() -> Vec<AtomicU8> {
    (0..CHUNK).map(|_| AtomicU8::new(0)).collect()
}

impl AtomicShadow {
    /// An empty shadow; chunks materialize on first write.
    pub fn new() -> Self {
        AtomicShadow {
            dense: (0..DENSE_CHUNKS).map(|_| OnceLock::new()).collect(),
            spill: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` over the chunk shadowing `a..`'s segment. With `create`
    /// unset, untouched chunks are skipped (reads of clean memory must not
    /// allocate); otherwise the chunk is initialized race-free first.
    fn with_chunk<R>(&self, ci: u64, create: bool, f: impl FnOnce(&[AtomicU8]) -> R) -> Option<R> {
        if ci < DENSE_CHUNKS {
            let slot = &self.dense[ci as usize];
            return match (slot.get(), create) {
                (Some(chunk), _) => Some(f(chunk)),
                (None, true) => Some(f(slot.get_or_init(|| new_chunk().into_boxed_slice()))),
                (None, false) => None,
            };
        }
        let chunk: Arc<[AtomicU8]> = {
            let mut spill = self.spill.lock().expect("poisoned");
            match (spill.get(&ci), create) {
                (Some(chunk), _) => Arc::clone(chunk),
                (None, true) => {
                    let chunk: Arc<[AtomicU8]> = new_chunk().into();
                    spill.insert(ci, Arc::clone(&chunk));
                    chunk
                }
                (None, false) => return None,
            }
        };
        Some(f(&chunk))
    }

    /// Chunk-resident ranged OR: one index walk per chunk segment, then a
    /// straight slice loop.
    pub fn join_range(&self, addr: u64, len: u64) -> u8 {
        let mut acc = 0;
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let seg_end = end.min((a / CHUNK + 1) * CHUNK);
            let lo = (a % CHUNK) as usize;
            let hi = lo + (seg_end - a) as usize;
            if let Some(v) = self.with_chunk(a / CHUNK, false, |c| {
                c[lo..hi]
                    .iter()
                    .fold(0, |acc, byte| acc | byte.load(Ordering::Acquire))
            }) {
                acc |= v;
            }
            a = seg_end;
        }
        acc
    }

    /// Chunk-resident ranged store. Writing clean (zero) metadata to a
    /// never-touched chunk is skipped entirely, preserving sparsity.
    pub fn fill_range(&self, addr: u64, len: u64, v: u8) {
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let seg_end = end.min((a / CHUNK + 1) * CHUNK);
            let lo = (a % CHUNK) as usize;
            let hi = lo + (seg_end - a) as usize;
            self.with_chunk(a / CHUNK, v != 0, |c| {
                for byte in &c[lo..hi] {
                    byte.store(v, Ordering::Release);
                }
            });
            a = seg_end;
        }
    }

    /// Chunk-resident ranged equality: whether every byte of the range
    /// holds exactly `v`. Untouched chunks read as clean (all-zero), so a
    /// never-written range equals `v` iff `v == 0`.
    pub fn eq_range(&self, addr: u64, len: u64, v: u8) -> bool {
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let seg_end = end.min((a / CHUNK + 1) * CHUNK);
            let lo = (a % CHUNK) as usize;
            let hi = lo + (seg_end - a) as usize;
            let seg_eq = self
                .with_chunk(a / CHUNK, false, |c| {
                    c[lo..hi]
                        .iter()
                        .all(|byte| byte.load(Ordering::Acquire) == v)
                })
                .unwrap_or(v == 0);
            if !seg_eq {
                return false;
            }
            a = seg_end;
        }
        true
    }

    /// Copies the shadow of `addr..addr+len` out byte-wise (the §5.5
    /// produce-version snapshot). Untouched chunks contribute clean zeros
    /// without allocating.
    pub fn snapshot(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let seg_end = end.min((a / CHUNK + 1) * CHUNK);
            let lo = (a % CHUNK) as usize;
            let hi = lo + (seg_end - a) as usize;
            let off = (a - addr) as usize;
            self.with_chunk(a / CHUNK, false, |c| {
                for (dst, byte) in out[off..off + (hi - lo)].iter_mut().zip(&c[lo..hi]) {
                    *dst = byte.load(Ordering::Acquire);
                }
            });
            a = seg_end;
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

    /// Order-insensitive fingerprint, compatible with the deterministic
    /// lifeguards' metadata fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        let mut mix_chunk = |ci: u64, data: &[AtomicU8]| {
            let chunk_base = ci * CHUNK;
            for (off, byte) in data.iter().enumerate() {
                let v = byte.load(Ordering::Acquire);
                if v != 0 {
                    fp.mix(chunk_base + off as u64, u64::from(v));
                }
            }
        };
        for (i, slot) in self.dense.iter().enumerate() {
            if let Some(data) = slot.get() {
                mix_chunk(i as u64, data);
            }
        }
        for (ci, data) in self.spill.lock().expect("poisoned").iter() {
            mix_chunk(*ci, data);
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(shadow.dense[0x9999_0000 / CHUNK as usize].get().is_none());
    }

    #[test]
    fn clean_fills_do_not_allocate() {
        let shadow = AtomicShadow::new();
        shadow.fill_range(0x4000, 64, 0);
        assert!(shadow.dense[(0x4000 / CHUNK) as usize].get().is_none());
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
