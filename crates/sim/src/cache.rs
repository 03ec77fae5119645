//! Set-associative cache tag arrays with LRU replacement.
//!
//! The simulator tracks tags and per-line bookkeeping only — the monitored
//! program's data values are irrelevant to lifeguard dataflow, so no data
//! array exists. Each L1 line carries the FDR-style per-block timestamps
//! (§5.1): the record id of the owning core's last access and last write,
//! which get piggy-backed on coherence acknowledgements.
//!
//! A cache is one flat array of `sets × assoc` lines with a fill count per
//! set, not a `Vec` per set: a lookup scans the set's resident prefix in
//! place, a fill writes the next free slot or overwrites the victim, and an
//! invalidation moves the set's last line into the hole. Victims are chosen
//! by the smallest LRU stamp, and stamps are unique per cache, so where a
//! line sits inside its set never changes which one is evicted.

use crate::config::CacheConfig;
use paralog_events::{BlockId, Rid};

/// Per-line bookkeeping carried by L1 lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineInfo {
    /// Record id of this core's most recent access to the line.
    pub last_access: Rid,
    /// Record id of this core's most recent write to the line.
    pub last_write: Rid,
    /// Whether the line holds modifications not yet written back.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockId,
    lru: u64,
    info: LineInfo,
}

impl Line {
    /// What an unused slot holds; only slots below their set's length are
    /// ever read.
    const EMPTY: Line = Line {
        block: BlockId(0),
        lru: 0,
        info: LineInfo {
            last_access: Rid::ZERO,
            last_write: Rid::ZERO,
            dirty: false,
        },
    };
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their block resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative, LRU, tag-only cache.
///
/// Set `s` owns slots `s * assoc ..` of the flat line array, of which the
/// first `len[s]` are resident.
#[derive(Debug)]
pub struct SetAssocCache {
    lines: Vec<Line>,
    len: Vec<usize>,
    assoc: usize,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two (index math relies on
    /// masking) or the geometry is degenerate.
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        SetAssocCache {
            lines: vec![Line::EMPTY; sets * config.assoc],
            len: vec![0; sets],
            assoc: config.assoc,
            set_mask: sets as u64 - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The set `block` maps to and the slot range of its resident lines.
    fn set_of(&self, block: BlockId) -> (usize, std::ops::Range<usize>) {
        let set = (block.0 & self.set_mask) as usize;
        let base = set * self.assoc;
        (set, base..base + self.len[set])
    }

    /// The slot holding `block`, if resident.
    fn slot(&self, block: BlockId) -> Option<usize> {
        let (_, range) = self.set_of(block);
        let start = range.start;
        self.lines[range]
            .iter()
            .position(|l| l.block == block)
            .map(|i| start + i)
    }

    /// Counter statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `block` is resident (does not touch LRU or stats).
    pub fn contains(&self, block: BlockId) -> bool {
        self.slot(block).is_some()
    }

    /// Looks up `block`, updating LRU and hit/miss counters. Returns the
    /// line's bookkeeping for in-place update on a hit.
    pub fn probe(&mut self, block: BlockId) -> Option<&mut LineInfo> {
        self.tick += 1;
        match self.slot(block) {
            Some(at) => {
                self.stats.hits += 1;
                let line = &mut self.lines[at];
                line.lru = self.tick;
                Some(&mut line.info)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inspects a resident line without touching LRU or counters.
    pub fn peek(&self, block: BlockId) -> Option<&LineInfo> {
        self.slot(block).map(|at| &self.lines[at].info)
    }

    /// Inserts `block` (after a miss), evicting the LRU line of its set if
    /// full. Returns the displaced `(block, info)` if an eviction happened.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is already resident (callers must
    /// `probe` first).
    pub fn insert(&mut self, block: BlockId, info: LineInfo) -> Option<(BlockId, LineInfo)> {
        debug_assert!(!self.contains(block), "insert of resident block {block}");
        self.tick += 1;
        let line = Line {
            block,
            lru: self.tick,
            info,
        };
        let (set, range) = self.set_of(block);
        if range.len() < self.assoc {
            self.lines[range.end] = line;
            self.len[set] += 1;
            return None;
        }
        let start = range.start;
        let victim = start
            + self.lines[range]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("non-empty set");
        let evicted = std::mem::replace(&mut self.lines[victim], line);
        self.stats.evictions += 1;
        Some((evicted.block, evicted.info))
    }

    /// Removes `block` if resident, returning its bookkeeping.
    pub fn invalidate(&mut self, block: BlockId) -> Option<LineInfo> {
        let (set, range) = self.set_of(block);
        let at = self.slot(block)?;
        let info = self.lines[at].info;
        self.lines[at] = self.lines[range.end - 1];
        self.len[set] -= 1;
        Some(info)
    }

    /// Mutable access to a resident line without touching LRU or counters.
    pub fn peek_mut(&mut self, block: BlockId) -> Option<&mut LineInfo> {
        self.slot(block).map(|at| &mut self.lines[at].info)
    }

    /// Number of resident lines (test/debug aid).
    pub fn resident(&self) -> usize {
        self.len.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways, 64B lines.
        SetAssocCache::new(&CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            latency: 1,
        })
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c = tiny();
        assert!(c.probe(BlockId(1)).is_none());
        c.insert(BlockId(1), LineInfo::default());
        assert!(c.probe(BlockId(1)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_coldest_way() {
        let mut c = tiny();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.insert(BlockId(0), LineInfo::default());
        c.insert(BlockId(4), LineInfo::default());
        // Touch 0 so 4 becomes LRU.
        assert!(c.probe(BlockId(0)).is_some());
        let evicted = c.insert(BlockId(8), LineInfo::default());
        assert_eq!(evicted.map(|(b, _)| b), Some(BlockId(4)));
        assert!(c.contains(BlockId(0)));
        assert!(c.contains(BlockId(8)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_returns_info() {
        let mut c = tiny();
        let info = LineInfo {
            last_access: Rid(7),
            last_write: Rid(5),
            dirty: true,
        };
        c.insert(BlockId(3), info);
        assert_eq!(c.invalidate(BlockId(3)), Some(info));
        assert_eq!(c.invalidate(BlockId(3)), None);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        c.insert(BlockId(0), LineInfo::default());
        c.insert(BlockId(4), LineInfo::default());
        let before = c.stats();
        assert!(c.peek(BlockId(4)).is_some());
        assert_eq!(c.stats(), before);
        // Peek must not have promoted 4: probing 4... instead verify that 0
        // stays LRU (it was inserted first and never re-touched).
        let evicted = c.insert(BlockId(8), LineInfo::default());
        assert_eq!(evicted.map(|(b, _)| b), Some(BlockId(0)));
    }

    #[test]
    fn sets_partition_blocks() {
        let mut c = tiny();
        // 4 sets: blocks 0..8 fill without conflict except same-set pairs.
        for b in 0..8 {
            c.insert(BlockId(b), LineInfo::default());
        }
        assert_eq!(c.resident(), 8);
        assert_eq!(c.stats().evictions, 0);
    }

    /// The layout the flat tag array replaced — a `Vec` per set, victims
    /// `swap_remove`d and fills pushed at the end — kept as the model the
    /// flat one must agree with.
    struct VecPerSet {
        sets: Vec<Vec<(BlockId, u64, LineInfo)>>,
        tick: u64,
    }

    impl VecPerSet {
        fn new(sets: usize) -> Self {
            VecPerSet {
                sets: vec![Vec::new(); sets],
                tick: 0,
            }
        }

        fn set(&mut self, block: BlockId) -> &mut Vec<(BlockId, u64, LineInfo)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(block.0 % n) as usize]
        }

        fn probe(&mut self, block: BlockId) -> Option<LineInfo> {
            self.tick += 1;
            let tick = self.tick;
            let line = self.set(block).iter_mut().find(|l| l.0 == block)?;
            line.1 = tick;
            Some(line.2)
        }

        fn insert(&mut self, block: BlockId, info: LineInfo, ways: usize) -> Option<BlockId> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set(block);
            let mut evicted = None;
            if set.len() >= ways {
                let at = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
                evicted = Some(set.swap_remove(at).0);
            }
            set.push((block, tick, info));
            evicted
        }

        fn invalidate(&mut self, block: BlockId) -> Option<LineInfo> {
            let set = self.set(block);
            let at = set.iter().position(|l| l.0 == block)?;
            Some(set.swap_remove(at).2)
        }

        fn resident(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    fn info(rid: u64) -> LineInfo {
        LineInfo {
            last_access: Rid(rid),
            last_write: Rid(rid / 2),
            dirty: rid % 2 == 1,
        }
    }

    #[test]
    fn invalidating_a_middle_way_keeps_the_old_victim_order() {
        let mut c = SetAssocCache::new(&CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 4,
            latency: 1,
        });
        let mut model = VecPerSet::new(4);
        // Set 0 holds blocks 0, 4, 8, …: fill it past its four ways.
        for b in [0, 4, 8, 12, 16] {
            assert_eq!(
                c.insert(BlockId(b), info(b)).map(|(v, _)| v),
                model.insert(BlockId(b), info(b), 4)
            );
        }
        assert_eq!(c.invalidate(BlockId(8)), model.invalidate(BlockId(8)));
        assert_eq!(c.resident(), model.resident());
        assert!(c.probe(BlockId(12)).is_some());
        model.probe(BlockId(12));
        for b in [20, 24, 28, 32] {
            assert_eq!(
                c.insert(BlockId(b), info(b)).map(|(v, _)| v),
                model.insert(BlockId(b), info(b), 4),
                "victim for block {b}"
            );
            assert_eq!(c.resident(), model.resident());
        }
    }

    #[test]
    fn flat_layout_agrees_with_a_vec_per_set_on_a_long_mixed_run() {
        let config = CacheConfig {
            size_bytes: 8 * 4 * 64,
            line_bytes: 64,
            assoc: 4,
            latency: 1,
        };
        let mut c = SetAssocCache::new(&config);
        let mut model = VecPerSet::new(config.sets());
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = BlockId(x % 96);
            match (x >> 32) % 4 {
                0 | 1 => {
                    let got = c.probe(block).map(|i| *i);
                    assert_eq!(got, model.probe(block), "probe {block} at {step}");
                    if got.is_none() {
                        assert_eq!(
                            c.insert(block, info(step)).map(|(v, _)| v),
                            model.insert(block, info(step), 4),
                            "fill {block} at {step}"
                        );
                    }
                }
                2 => assert_eq!(c.invalidate(block), model.invalidate(block)),
                _ => assert_eq!(c.peek(block).copied(), {
                    let set = model.set(block);
                    set.iter().find(|l| l.0 == block).map(|l| l.2)
                }),
            }
            assert_eq!(c.resident(), model.resident(), "at {step}");
        }
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.probe(BlockId(0));
        c.insert(BlockId(0), LineInfo::default());
        c.probe(BlockId(0));
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(&CacheConfig {
            size_bytes: 192,
            line_bytes: 64,
            assoc: 1,
            latency: 1,
        });
    }
}
