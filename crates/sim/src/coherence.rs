//! The shared-memory system: private L1s, shared inclusive L2, and an
//! invalidation-based (MESI-flavoured) directory that doubles as the
//! order-capturing substrate.
//!
//! Following FDR/RTR (§5.1), every L1 line carries the record id of its
//! core's last access/write; when an access by core *c* forces a coherence
//! action at a remote core *o* (invalidation or dirty downgrade), the
//! acknowledgement carries *o*'s timestamp back to *c*, where it surfaces as
//! a [`RemoteTouch`] — the raw material for dependence arcs. Silent L1
//! evictions lose the per-line timestamp; the directory keeps a conservative
//! fallback so no ordering is ever missed (arcs may only be conservative,
//! never absent).
//!
//! # Layout
//!
//! Every access of the co-simulation probes the directory, so its layout is
//! chosen for the host. Block states sit in pages of 64 adjacent blocks
//! (4 KiB of address space), found through a `HashMap` keyed by page number
//! under a one-multiply hasher (`PageHasher`) instead of SipHash, so a
//! streaming walk re-probes a page already in the host's cache, and pages
//! are 85–97 % full on the Figure 6 applications, so they cost no memory a
//! per-block map did not. A block's sharers keep their insertion order — it
//! orders the [`RemoteTouch`]es, and those become arcs and wire bytes — and
//! up to two of them sit inline in the block's entry, enough for all but a
//! few percent of those applications' blocks. Nothing is indexed by core,
//! so a machine may have any number of cores.

use crate::cache::{LineInfo, SetAssocCache};
use crate::config::MachineConfig;
use paralog_events::{blocks_of, AccessKind, Addr, ArcKind, BlockId, InlineVec, Rid};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A coherence action some remote core suffered because of a local access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTouch {
    /// The remote core whose copy was invalidated or downgraded.
    pub remote_core: usize,
    /// The block involved.
    pub block: BlockId,
    /// The conflict type (RAW: we read their dirty data; WAR: we invalidated
    /// a block they read; WAW: we invalidated a block they wrote).
    pub kind: ArcKind,
    /// FDR-style per-block timestamp: the remote core's last access (for
    /// WAR/WAW) or last write (for RAW) to the block, as carried by the
    /// coherence acknowledgement.
    pub block_rid: Rid,
    /// The remote core's last *write* to the block ([`Rid::ZERO`] if it never
    /// wrote it). Lets TSO reversal keep the write-after-write ordering even
    /// when the read-after part is versioned away (§5.5).
    pub block_write_rid: Rid,
    /// The remote core's *current* retirement counter — the conservative
    /// timestamp used by the reduced-hardware capture alternative (§5.1).
    pub core_rid: Rid,
}

/// Result of one memory access through the hierarchy.
#[derive(Debug, Clone, Default)]
pub struct AccessResult {
    /// Cycles the access takes.
    pub latency: u64,
    /// Remote coherence actions the access caused.
    pub touches: Vec<RemoteTouch>,
}

/// Directory state for one block.
#[derive(Debug, Clone, Default)]
struct BlockDir {
    /// Sharer cores and the rid of their last directory-visible read, in
    /// the order they joined; two fit inline.
    readers: InlineVec<(usize, Rid), 2>,
    /// Owning core (Modified) and the rid of its last directory-visible write.
    writer: Option<(usize, Rid)>,
    /// The block's most recent writer ever, kept after downgrades: FDR
    /// attaches the write timestamp to the data, so *every* new reader —
    /// not just the one that forced the downgrade — receives the RAW
    /// ordering when it pulls the block in.
    last_writer: Option<(usize, Rid)>,
}

/// Blocks per directory page: 64 blocks of 64 bytes cover 4 KiB of
/// address space.
const PAGE_BLOCKS: u64 = 64;

/// The coherence directory: the state of every block ever touched, held in
/// pages of [`PAGE_BLOCKS`] adjacent blocks keyed by page number. A block
/// nobody touched holds [`BlockDir::default`].
#[derive(Debug, Default)]
struct Directory {
    pages: HashMap<u64, Box<[BlockDir]>, BuildHasherDefault<PageHasher>>,
}

impl Directory {
    /// `block`'s state, created (empty) on first touch.
    fn block_mut(&mut self, block: BlockId) -> &mut BlockDir {
        let page = self
            .pages
            .entry(block.0 / PAGE_BLOCKS)
            .or_insert_with(|| (0..PAGE_BLOCKS).map(|_| BlockDir::default()).collect());
        &mut page[(block.0 % PAGE_BLOCKS) as usize]
    }

    /// `block`'s state, if its page was ever touched.
    fn block(&self, block: BlockId) -> Option<&BlockDir> {
        let page = self.pages.get(&(block.0 / PAGE_BLOCKS))?;
        Some(&page[(block.0 % PAGE_BLOCKS) as usize])
    }
}

/// Hashes a page number with one folded 64 × 64 → 128-bit multiply: both
/// halves of the product feed the result, so the low bits the table indexes
/// by depend on every bit of the key (pages a power-of-two stride apart do
/// not share a bucket), at a fraction of SipHash's cost. Keys are local
/// addresses, not attacker-chosen, so no per-process seed is needed.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-core counters of coherence activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoherenceStats {
    /// Invalidations this core's accesses sent to remote L1s.
    pub invalidations_caused: u64,
    /// Dirty-line downgrades this core's reads forced.
    pub downgrades_caused: u64,
    /// Invalidations this core's L1 suffered.
    pub invalidations_suffered: u64,
}

/// The full memory system of the simulated CMP.
#[derive(Debug)]
pub struct MemorySystem {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    dir: Directory,
    /// Latest retirement counter per core, used for the conservative capture
    /// policy and for directory fallback timestamps.
    core_rid: Vec<Rid>,
    stats: Vec<CoherenceStats>,
    config: MachineConfig,
}

impl MemorySystem {
    /// Builds the hierarchy for `config`.
    pub fn new(config: &MachineConfig) -> Self {
        MemorySystem {
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(&config.l1d))
                .collect(),
            l2: SetAssocCache::new(&config.l2),
            dir: Directory::default(),
            core_rid: vec![Rid::ZERO; config.cores],
            stats: vec![CoherenceStats::default(); config.cores],
            config: *config,
        }
    }

    /// The machine configuration this system models.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Publishes core `c`'s current retirement counter (called by the core at
    /// every retirement; feeds the conservative capture policy).
    pub fn set_core_rid(&mut self, core: usize, rid: Rid) {
        self.core_rid[core] = rid;
    }

    /// Coherence statistics for `core`.
    pub fn coherence_stats(&self, core: usize) -> CoherenceStats {
        self.stats[core]
    }

    /// Performs a memory access by `core` for record `rid`, covering every
    /// block the access spans.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: usize,
        rid: Rid,
        addr: Addr,
        size: u64,
        kind: AccessKind,
    ) -> AccessResult {
        assert!(core < self.l1.len(), "core {core} out of range");
        let mut result = AccessResult::default();
        for block in blocks_of(addr, size) {
            self.access_block(core, rid, block, kind, &mut result);
        }
        result
    }

    fn access_block(
        &mut self,
        core: usize,
        rid: Rid,
        block: BlockId,
        kind: AccessKind,
        result: &mut AccessResult,
    ) {
        let writes = kind.writes();
        let reads = kind.reads();

        // --- Directory actions & remote touches -------------------------
        let dir = self.dir.block_mut(block);
        let mut needs_remote = false;

        if writes {
            // Collect WAR touches from remote sharers and a WAW/RAW touch
            // from a remote owner, then invalidate all remote copies.
            //
            // Timestamps are monotone: under TSO a store *drains* with a rid
            // older than reads the same core retired meanwhile, so every
            // update below takes the maximum of old and new rids. Sharers
            // are acknowledged in the order they joined: that order is the
            // order of the touches.
            let writer = dir.writer.take();
            // The core's own reader entry survives its write (its rid may be
            // a younger load that must stay visible to later invalidation
            // acks); writer rids stay write-only so WAW arcs follow the
            // total drain order.
            let mut own_reads = Rid::ZERO;
            for (o, dir_rid) in &dir.readers {
                if *o == core {
                    own_reads = own_reads.max(*dir_rid);
                    continue;
                }
                needs_remote = true;
                let line = self.l1[*o].invalidate(block);
                let mut block_rid = line
                    .map(|l| l.last_access)
                    .unwrap_or(*dir_rid)
                    .max(*dir_rid);
                let mut block_write_rid = line.map(|l| l.last_write).unwrap_or(Rid::ZERO);
                if let Some((w, wrid)) = writer {
                    if w == *o {
                        // Once the line is evicted the reader entry's rid may
                        // predate the core's own store; the ack must cover it.
                        block_rid = block_rid.max(wrid);
                        block_write_rid = block_write_rid.max(wrid);
                    }
                }
                self.stats[core].invalidations_caused += 1;
                self.stats[*o].invalidations_suffered += 1;
                result.touches.push(RemoteTouch {
                    remote_core: *o,
                    block,
                    kind: ArcKind::War,
                    block_rid,
                    block_write_rid,
                    core_rid: self.core_rid[*o],
                });
            }
            if let Some((o, dir_rid)) = writer {
                // A core that is both owner and sharer was already touched
                // via the reader path; its `last_access` timestamp covers the
                // write as well.
                if o != core && !dir.readers.iter().any(|(r, _)| *r == o) {
                    needs_remote = true;
                    let line = self.l1[o].invalidate(block);
                    let block_rid = line.map(|l| l.last_access).unwrap_or(dir_rid).max(dir_rid);
                    let block_write_rid =
                        line.map(|l| l.last_write).unwrap_or(Rid::ZERO).max(dir_rid);
                    self.stats[core].invalidations_caused += 1;
                    self.stats[o].invalidations_suffered += 1;
                    // If the remote core also read the line after writing it,
                    // `last_access` covers that too; classify by its role.
                    result.touches.push(RemoteTouch {
                        remote_core: o,
                        block,
                        kind: ArcKind::Waw,
                        block_rid,
                        block_write_rid,
                        core_rid: self.core_rid[o],
                    });
                }
            }
            let own_prior_write = match writer {
                Some((o, wrid)) if o == core => wrid,
                _ => Rid::ZERO,
            };
            dir.writer = Some((core, rid.max(own_prior_write)));
            dir.last_writer = Some((core, rid.max(own_prior_write)));
            dir.readers.clear();
            let reader_rid = if reads { rid.max(own_reads) } else { own_reads };
            if reader_rid > Rid::ZERO {
                dir.readers.push((core, reader_rid));
            }
        } else {
            // Read: force a downgrade of a remote dirty owner (RAW), then
            // join the sharer set.
            let mut raw_touched = false;
            if let Some((o, dir_rid)) = dir.writer {
                if o != core {
                    needs_remote = true;
                    // Owner keeps a Shared copy; its line becomes clean.
                    let block_rid = match self.l1[o].peek_mut(block) {
                        Some(info) => {
                            info.dirty = false;
                            info.last_write.max(dir_rid)
                        }
                        None => dir_rid,
                    };
                    self.stats[core].downgrades_caused += 1;
                    raw_touched = true;
                    result.touches.push(RemoteTouch {
                        remote_core: o,
                        block,
                        kind: ArcKind::Raw,
                        block_rid,
                        block_write_rid: block_rid,
                        core_rid: self.core_rid[o],
                    });
                    dir.writer = None;
                    if !dir.readers.iter().any(|(r, _)| *r == o) {
                        dir.readers.push((o, dir_rid));
                    }
                } else {
                    // We own it dirty; nothing to do at the directory.
                }
            }
            // A new sharer of an already-downgraded block still receives the
            // last writer's timestamp with the data (FDR semantics): without
            // this, only the downgrading reader would be ordered after the
            // write.
            if !raw_touched && !self.l1[core].contains(block) {
                if let Some((w, wrid)) = dir.last_writer {
                    if w != core && wrid > Rid::ZERO {
                        result.touches.push(RemoteTouch {
                            remote_core: w,
                            block,
                            kind: ArcKind::Raw,
                            block_rid: wrid,
                            block_write_rid: wrid,
                            core_rid: self.core_rid[w],
                        });
                    }
                }
            }
            match dir
                .readers
                .as_mut_slice()
                .iter_mut()
                .find(|(r, _)| *r == core)
            {
                Some(entry) => entry.1 = entry.1.max(rid),
                None => dir.readers.push((core, rid)),
            }
        }

        // --- Latency & fills ---------------------------------------------
        let l1_hit = {
            let probe = self.l1[core].probe(block);
            match probe {
                Some(info) => {
                    info.last_access = info.last_access.max(rid);
                    if writes {
                        info.last_write = info.last_write.max(rid);
                        info.dirty = true;
                    }
                    true
                }
                None => false,
            }
        };

        if l1_hit {
            result.latency = result.latency.max(if writes && needs_remote {
                // Upgrade: had the line Shared, needed invalidations.
                self.config.l2.latency + self.config.coherence_latency
            } else {
                self.config.l1d.latency
            });
            return;
        }

        // L1 miss: consult L2.
        let l2_hit = self.l2.probe(block).is_some();
        let mut latency = if l2_hit {
            self.config.l2.latency
        } else {
            self.config.mem_latency
        };
        if needs_remote {
            latency += self.config.coherence_latency;
        }
        result.latency = result.latency.max(latency);

        if !l2_hit {
            if let Some((victim, _)) = self.l2.insert(block, LineInfo::default()) {
                // Inclusive L2: back-invalidate every L1 copy of the victim.
                self.back_invalidate(victim);
            }
        }
        let info = LineInfo {
            last_access: rid,
            last_write: if writes { rid } else { Rid::ZERO },
            dirty: writes,
        };
        if let Some((_victim, _vinfo)) = self.l1[core].insert(block, info) {
            // Dirty victims write back to L2; timestamps survive in the
            // directory, so nothing further to record.
        }
    }

    fn back_invalidate(&mut self, block: BlockId) {
        for l1 in &mut self.l1 {
            l1.invalidate(block);
        }
        // Sharer bookkeeping stays in the directory on purpose: its rids act
        // as the conservative fallback once line timestamps are gone.
    }

    /// Functionally warms the caches for an access, mirroring the paper's
    /// measurement methodology (§6: functional simulation warms caches
    /// before the timed window). Installs the block in `core`'s L1 and the
    /// shared L2 and updates directory membership with [`Rid::ZERO`]
    /// timestamps — which the order-capture layer treats as "no ordering
    /// information", so warming never fabricates dependence arcs. No latency
    /// is charged and hit/miss statistics are not touched.
    pub fn warm_access(&mut self, core: usize, addr: Addr, size: u64, kind: AccessKind) {
        for block in blocks_of(addr, size) {
            let dir = self.dir.block_mut(block);
            if kind.writes() {
                for &(o, _) in dir.readers.iter() {
                    if o != core {
                        self.l1[o].invalidate(block);
                    }
                }
                dir.readers.clear();
                if let Some((o, _)) = dir.writer.take() {
                    if o != core {
                        self.l1[o].invalidate(block);
                    }
                }
                dir.writer = Some((core, Rid::ZERO));
                dir.last_writer = Some((core, Rid::ZERO));
            } else {
                if let Some((o, _)) = dir.writer {
                    if o != core {
                        dir.writer = None;
                        if !dir.readers.iter().any(|(r, _)| *r == o) {
                            dir.readers.push((o, Rid::ZERO));
                        }
                    }
                }
                if !dir.readers.iter().any(|(r, _)| *r == core) {
                    dir.readers.push((core, Rid::ZERO));
                }
            }
            if !self.l2.contains(block) {
                if let Some((victim, _)) = self.l2.insert(block, LineInfo::default()) {
                    self.back_invalidate(victim);
                }
            }
            if !self.l1[core].contains(block) {
                self.l1[core].insert(
                    block,
                    LineInfo {
                        last_access: Rid::ZERO,
                        last_write: Rid::ZERO,
                        dirty: kind.writes(),
                    },
                );
            }
        }
    }

    /// Raises the last-access timestamp of `core`'s resident lines covering
    /// the access, without coherence traffic or latency — used for
    /// store-to-load forwarding, which never reaches the cache but must be
    /// visible to later invalidation acknowledgements (§5.5).
    pub fn bump_line_access(&mut self, core: usize, addr: Addr, size: u64, rid: Rid) {
        for block in blocks_of(addr, size) {
            if let Some(info) = self.l1[core].peek_mut(block) {
                info.last_access = info.last_access.max(rid);
            }
        }
    }

    /// Test/diagnostic helper: current sharers of a block (directory view).
    pub fn sharers(&self, block: BlockId) -> Vec<usize> {
        match self.dir.block(block) {
            Some(d) => {
                let mut v: Vec<usize> = d.readers.iter().map(|(c, _)| *c).collect();
                if let Some((o, _)) = d.writer {
                    if !v.contains(&o) {
                        v.push(o);
                    }
                }
                v.sort_unstable();
                v
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(cores: usize) -> MemorySystem {
        MemorySystem::new(&MachineConfig::paper(cores))
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let mut m = machine(2);
        let r = m.access(0, Rid(1), 0x1000, 4, AccessKind::Read);
        assert_eq!(r.latency, 90);
        assert!(r.touches.is_empty());
        // Second access is an L1 hit.
        let r2 = m.access(0, Rid(2), 0x1000, 4, AccessKind::Read);
        assert_eq!(r2.latency, 2);
    }

    #[test]
    fn l2_hit_after_remote_fill() {
        let mut m = machine(2);
        m.access(0, Rid(1), 0x1000, 4, AccessKind::Read);
        // Core 1 misses L1 but hits the shared L2.
        let r = m.access(1, Rid(1), 0x1000, 4, AccessKind::Read);
        assert_eq!(r.latency, 6);
        assert!(r.touches.is_empty(), "read-read sharing produces no arcs");
    }

    #[test]
    fn raw_touch_on_reading_dirty_remote() {
        let mut m = machine(2);
        m.access(0, Rid(5), 0x1000, 4, AccessKind::Write);
        let r = m.access(1, Rid(2), 0x1000, 4, AccessKind::Read);
        assert_eq!(r.touches.len(), 1);
        let t = r.touches[0];
        assert_eq!(t.remote_core, 0);
        assert_eq!(t.kind, ArcKind::Raw);
        assert_eq!(t.block_rid, Rid(5));
        assert!(r.latency >= 6 + 4, "downgrade adds coherence latency");
    }

    #[test]
    fn war_touch_on_writing_shared() {
        let mut m = machine(4);
        m.access(0, Rid(3), 0x2000, 4, AccessKind::Read);
        m.access(1, Rid(8), 0x2000, 4, AccessKind::Read);
        let r = m.access(2, Rid(1), 0x2000, 4, AccessKind::Write);
        let mut remotes: Vec<_> = r
            .touches
            .iter()
            .map(|t| (t.remote_core, t.block_rid))
            .collect();
        remotes.sort_unstable();
        assert_eq!(remotes, vec![(0, Rid(3)), (1, Rid(8))]);
        assert!(r.touches.iter().all(|t| t.kind == ArcKind::War));
        // Both remote copies are gone.
        assert_eq!(m.sharers(BlockId::containing(0x2000)), vec![2]);
    }

    #[test]
    fn waw_touch_on_overwriting_dirty_remote() {
        let mut m = machine(2);
        m.access(0, Rid(4), 0x3000, 8, AccessKind::Write);
        let r = m.access(1, Rid(9), 0x3000, 8, AccessKind::Write);
        assert_eq!(r.touches.len(), 1);
        assert_eq!(r.touches[0].kind, ArcKind::Waw);
        assert_eq!(r.touches[0].block_rid, Rid(4));
    }

    #[test]
    fn owner_later_read_extends_war_window() {
        // Owner writes at rid 4, reads again at rid 9 (L1 hit, silent to the
        // directory); a remote write must see block_rid = 9 via the line
        // timestamp carried in the invalidation ack.
        let mut m = machine(2);
        m.access(0, Rid(4), 0x3000, 8, AccessKind::Write);
        m.access(0, Rid(9), 0x3000, 8, AccessKind::Read);
        let r = m.access(1, Rid(1), 0x3000, 8, AccessKind::Write);
        assert_eq!(r.touches.len(), 1);
        assert_eq!(r.touches[0].block_rid, Rid(9));
    }

    #[test]
    fn rmw_touches_both_owner_and_sharers() {
        let mut m = machine(3);
        m.access(0, Rid(2), 0x4000, 4, AccessKind::Write);
        m.access(1, Rid(6), 0x4000, 4, AccessKind::Read);
        // Core 1's read downgraded core 0; now core 2 RMWs: WAR from core 1,
        // WAW from... core 0 is only a sharer now (downgraded), so WAR from
        // both, with core 0's last access being its write at rid 2.
        let r = m.access(2, Rid(1), 0x4000, 4, AccessKind::Rmw);
        let mut seen: Vec<_> = r.touches.iter().map(|t| t.remote_core).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn conservative_core_rid_at_least_block_rid() {
        let mut m = machine(2);
        m.access(0, Rid(5), 0x1000, 4, AccessKind::Write);
        m.set_core_rid(0, Rid(12));
        let r = m.access(1, Rid(2), 0x1000, 4, AccessKind::Read);
        let t = r.touches[0];
        assert_eq!(t.block_rid, Rid(5));
        assert_eq!(t.core_rid, Rid(12));
        assert!(
            t.core_rid >= t.block_rid,
            "per-core counter is conservative"
        );
    }

    #[test]
    fn spanning_access_touches_two_blocks() {
        let mut m = machine(2);
        m.access(0, Rid(1), 0x1000, 4, AccessKind::Write); // block A
        m.access(0, Rid(2), 0x1040, 4, AccessKind::Write); // block B
        let r = m.access(1, Rid(1), 0x103c, 8, AccessKind::Write);
        assert_eq!(r.touches.len(), 2);
    }

    #[test]
    fn same_core_never_touches_itself() {
        let mut m = machine(2);
        m.access(0, Rid(1), 0x1000, 4, AccessKind::Write);
        let r = m.access(0, Rid(2), 0x1000, 4, AccessKind::Read);
        assert!(r.touches.is_empty());
        let r = m.access(0, Rid(3), 0x1000, 4, AccessKind::Write);
        assert!(r.touches.is_empty());
    }

    #[test]
    fn eviction_falls_back_to_directory_rid() {
        // Fill core 0's L1 set so the interesting block is evicted, then have
        // core 1 write it: the arc must still appear, with the directory rid.
        let mut m = machine(2);
        let sets = MachineConfig::paper(2).l1d.sets() as u64;
        m.access(0, Rid(7), 0x0, 4, AccessKind::Read);
        // Evict block 0 from core 0's L1 by filling its set (same set every
        // `sets` blocks; 4 ways).
        for i in 1..=4u64 {
            m.access(0, Rid(7 + i), i * sets * 64, 4, AccessKind::Read);
        }
        let r = m.access(1, Rid(1), 0x0, 4, AccessKind::Write);
        assert_eq!(
            r.touches.len(),
            1,
            "directory keeps sharer after silent eviction"
        );
        assert_eq!(r.touches[0].block_rid, Rid(7));
    }

    #[test]
    fn evicted_reader_and_writer_ack_covers_the_write() {
        // Core 0 reads (rid 3) then writes (rid 7) the block, so it is both a
        // sharer and the directory's writer; its line is then evicted. Core
        // 1's store is acknowledged via the reader path, whose timestamp must
        // still order it after core 0's store.
        let mut m = machine(2);
        let sets = MachineConfig::paper(2).l1d.sets() as u64;
        m.access(0, Rid(3), 0x0, 4, AccessKind::Read);
        m.access(0, Rid(7), 0x0, 4, AccessKind::Write);
        for i in 1..=4u64 {
            m.access(0, Rid(7 + i), i * sets * 64, 4, AccessKind::Read);
        }
        let r = m.access(1, Rid(1), 0x0, 4, AccessKind::Write);
        assert_eq!(r.touches.len(), 1);
        assert_eq!(r.touches[0].kind, ArcKind::War);
        assert!(r.touches[0].block_rid >= Rid(7), "{:?}", r.touches[0]);
        assert_eq!(r.touches[0].block_write_rid, Rid(7));
    }

    #[test]
    fn more_than_64_cores_keep_their_sharers() {
        // Core 65 reads, then core 0 writes: the write acknowledges a sharer
        // past the 64th core, so no directory state may be sized by cores.
        let mut m = machine(70);
        m.access(65, Rid(3), 0x1000, 4, AccessKind::Read);
        let r = m.access(0, Rid(5), 0x1000, 4, AccessKind::Write);
        assert_eq!(r.touches.len(), 1);
        assert_eq!(r.touches[0].remote_core, 65);
        assert_eq!(r.touches[0].kind, ArcKind::War);
        assert_eq!(m.sharers(BlockId::containing(0x1000)), vec![0]);
        // Core 69 reads and then writes, so it is both sharer and owner: the
        // next remote write acknowledges it once, through the reader path.
        m.access(69, Rid(7), 0x2000, 4, AccessKind::Read);
        m.access(69, Rid(8), 0x2000, 4, AccessKind::Write);
        let r = m.access(1, Rid(2), 0x2000, 4, AccessKind::Write);
        assert_eq!(r.touches.len(), 1, "{:?}", r.touches);
        assert_eq!(r.touches[0].remote_core, 69);
        assert_eq!(r.touches[0].kind, ArcKind::War);
        assert_eq!(r.touches[0].block_write_rid, Rid(8));
    }

    #[test]
    fn blocks_on_both_sides_of_a_page_seam_are_independent() {
        let last = (PAGE_BLOCKS - 1) * 64;
        let first_of_next = PAGE_BLOCKS * 64;
        let mut m = machine(2);
        m.access(0, Rid(1), last, 4, AccessKind::Write);
        m.access(1, Rid(1), first_of_next, 4, AccessKind::Read);
        assert_eq!(m.sharers(BlockId::containing(last)), vec![0]);
        assert_eq!(m.sharers(BlockId::containing(first_of_next)), vec![1]);
        // A write to one side conflicts with its own sharer only.
        let r = m.access(1, Rid(2), first_of_next, 4, AccessKind::Write);
        assert!(r.touches.is_empty(), "{:?}", r.touches);
        let r = m.access(1, Rid(3), last, 4, AccessKind::Write);
        assert_eq!(r.touches.len(), 1);
        assert_eq!(
            (r.touches[0].remote_core, r.touches[0].kind),
            (0, ArcKind::Waw)
        );
        // One access spanning the seam touches both pages' blocks.
        let r = m.access(0, Rid(4), first_of_next - 4, 8, AccessKind::Write);
        assert_eq!(r.touches.len(), 2);
    }

    #[test]
    fn metadata_blocks_keep_state_apart_from_application_blocks() {
        // The lifeguard cores' metadata lives far above the application's
        // addresses; a block there shares its page offset with application
        // blocks but none of their state.
        let app = 0x4000;
        let meta = paralog_meta::meta_addr(2, app);
        assert_ne!(BlockId::containing(meta), BlockId::containing(app));
        let mut m = machine(4);
        m.access(0, Rid(1), app, 4, AccessKind::Write);
        m.access(2, Rid(1), meta, 1, AccessKind::Write);
        assert_eq!(m.sharers(BlockId::containing(app)), vec![0]);
        assert_eq!(m.sharers(BlockId::containing(meta)), vec![2]);
        let r = m.access(3, Rid(2), meta, 1, AccessKind::Read);
        assert_eq!(r.touches.len(), 1);
        assert_eq!(r.touches[0].remote_core, 2);
        assert_eq!(m.sharers(BlockId::containing(app)), vec![0]);
    }

    #[test]
    fn untouched_blocks_have_no_sharers() {
        let mut m = machine(2);
        assert!(m.sharers(BlockId(7)).is_empty(), "page never touched");
        m.access(0, Rid(1), 7 * 64, 4, AccessKind::Read);
        assert_eq!(m.sharers(BlockId(7)), vec![0]);
        assert!(m.sharers(BlockId(8)).is_empty(), "neighbour in a live page");
        m.warm_access(1, 9 * 64, 4, AccessKind::Write);
        assert_eq!(m.sharers(BlockId(9)), vec![1]);
        assert!(m.sharers(BlockId(10)).is_empty());
    }

    #[test]
    fn stats_track_invalidations() {
        let mut m = machine(2);
        m.access(0, Rid(1), 0x1000, 4, AccessKind::Read);
        m.access(1, Rid(1), 0x1000, 4, AccessKind::Write);
        assert_eq!(m.coherence_stats(1).invalidations_caused, 1);
        assert_eq!(m.coherence_stats(0).invalidations_suffered, 1);
        assert_eq!(m.coherence_stats(0).invalidations_caused, 0);
    }
}
