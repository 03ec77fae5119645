//! Versioned metadata for TSO support (§5.5).
//!
//! When a load violates SC relative to a remote write, the R→W dependence is
//! *reversed*: the writer's lifeguard first *produces* a version — a copy of
//! the current metadata for the conflicting range — and the reader's
//! lifeguard *consumes* that version instead of waiting for (or racing with)
//! the writer. The version id combines the consuming thread's id with the
//! record id of its SC-violating load, so ids are unique per dynamic load.
//!
//! # Layout
//!
//! A [`VersionId`] is `(consumer thread, consumer record id)` — and record
//! ids are *stream positions*, dense and monotonically increasing per
//! thread. The table therefore mirrors the flat two-level treatment that
//! replaced `ShadowMemory`'s hash map: per consumer thread, a dense
//! first-level array indexed by `rid / CHUNK_RIDS` points at lazily
//! allocated fixed-size chunks of slots indexed by the low rid bits. A
//! lookup is two array indexes — no hashing, no probing — and the hot
//! produce→consume window of a run keeps hitting the same one or two
//! resident chunks. Fully retired chunks are freed, so a long (streaming)
//! run's table residency tracks the *outstanding* window, not stream
//! length. Pathological far-future rids beyond the dense budget land in a
//! sorted spill tier instead of growing the first level without bound.
//!
//! # Concurrent form
//!
//! [`VersionTable`] is single-threaded — the shape both deterministic
//! delivery paths need. Concurrent replay (lanes on real threads) instead
//! shares a [`ConcurrentVersionTable`]: the same two-level rid-chunk
//! layout, made safe across producer and consumer OS threads by mirroring
//! [`AtomicShadow`](crate::AtomicShadow)'s lazy-chunk design:
//!
//! * the table is **sharded by consumer thread** (a [`VersionId`] *is*
//!   `(consumer thread, consumer rid)`), so each shard is touched by
//!   exactly one consumer plus whichever producer threads publish versions
//!   for it — never by unrelated traffic;
//! * each shard's first level is a fixed ring of *cells* indexed by
//!   `chunk_index % CONC_DENSE_CHUNKS`, each a small mutex over an
//!   optional tagged chunk. All chunk work happens under the cell lock —
//!   which is what makes a drained chunk safe to *reclaim*: no thread can
//!   hold the chunk outside its lock. Two live windows that collide on a
//!   cell (rid ranges ≥ `CONC_DENSE_CHUNKS * CHUNK_RIDS` apart) park the
//!   newcomer in a mutex-protected spill map instead;
//! * reclamation is **epoch-deferred** (the quiescence scheme): when a
//!   chunk's last slot retires it is queued, stamped with the shard's
//!   current epoch, and the shard's consumer frees it at a later
//!   [`advance_epoch`](ConcurrentVersionTable::advance_epoch) call (a
//!   replay lane invokes one per stream batch). A chunk is only freed
//!   if it drained in an *earlier* epoch and is still empty under its cell
//!   lock, so the hot window's drain→refill churn reuses resident chunks
//!   (plus a small per-shard spare pool) instead of thrashing the
//!   allocator, and a rid sweep over billions of records holds O(window)
//!   chunks instead of O(history);
//! * each chunk slot pairs a tiny per-slot mutex (guarding the snapshot
//!   payload hand-off) with an **atomic availability flag**, so the
//!   consumer-side poll ([`ConcurrentVersionTable::is_available`]) is two
//!   array indexes under the (uncontended in steady state) cell lock;
//! * the table never blocks: a consumer whose version has not been
//!   produced yet gets `None` from
//!   [`consume`](ConcurrentVersionTable::consume) and its replay lane
//!   reports itself gated, so *whoever drives the lane* (a pool worker, a
//!   dedicated OS thread) decides how to wait — the §5.5 "reader waits for
//!   the writer's pre-store copy" hand-off on real threads.
//!
//! The §5.5 mapping differs between the two forms in one deliberate way:
//! the deterministic paths may **bypass** (a consumer that runs before its
//! producer reads the live shadow, which delivery order still guarantees
//! is pre-store), but on real threads that guarantee would race with the
//! producer's store, so concurrent replay lanes always wait for the
//! produced snapshot instead. Both forms keep identical produce/consume
//! accounting, which is what the model-equivalence property tests pin.

use paralog_events::{AddrRange, VersionId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Slots per second-level chunk (covers 128 consecutive record ids).
const CHUNK_RIDS: u64 = 128;

/// First-level budget: rids below `DENSE_CHUNKS * CHUNK_RIDS` (≈ half a
/// billion records per thread) index the dense array directly; anything
/// beyond spills to the sorted side tier.
const DENSE_CHUNKS: u64 = 1 << 22;

/// One version's lifecycle state.
#[derive(Debug)]
enum Slot {
    /// Consumers that proceeded before the version existed (the pre-store
    /// state was still current shadow, so no snapshot was needed).
    Bypassed(u32),
    /// Produced and awaiting its remaining consumers.
    Live {
        range: AddrRange,
        snapshot: Vec<u8>,
        consumers: u32,
    },
}

/// A chunk of `CHUNK_RIDS` slots plus its occupancy count (for
/// reclamation).
#[derive(Debug)]
struct Chunk {
    occupied: u32,
    slots: Box<[Option<Slot>]>,
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk {
            occupied: 0,
            slots: (0..CHUNK_RIDS).map(|_| None).collect(),
        })
    }
}

/// One consumer thread's chunked slot space.
#[derive(Debug, Default)]
struct ThreadVersions {
    dense: Vec<Option<Box<Chunk>>>,
    spill: BTreeMap<u64, Box<Chunk>>,
    /// One reclaimed chunk kept for reuse: the outstanding window crosses
    /// chunk boundaries constantly, and drain→refill churn must not turn
    /// into an allocation per window step.
    spare: Option<Box<Chunk>>,
}

impl ThreadVersions {
    /// A fresh (all-vacant) chunk, reusing the spare when one is parked.
    fn fresh_chunk(&mut self) -> Box<Chunk> {
        self.spare.take().unwrap_or_else(Chunk::new)
    }

    /// Parks a fully drained chunk for reuse (at most one is kept).
    fn park(&mut self, chunk: Box<Chunk>) {
        debug_assert!(chunk.occupied == 0);
        self.spare.get_or_insert(chunk);
    }
}

/// A structurally invalid produce: duplicate id, zero consumers, snapshot
/// length mismatch, or a consumer thread outside the table. Internally
/// generated traffic asserts these away via the panicking `produce`
/// wrappers; ingestion paths (replaying an externally captured wire
/// stream) call `try_produce` instead and surface the error as a malformed
/// stream, so corrupt input can never poison a lock or kill a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionError(pub String);

impl std::fmt::Display for VersionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for VersionError {}

/// Table of produced-but-not-yet-consumed metadata versions, shared by all
/// lifeguard threads.
#[derive(Debug, Default)]
pub struct VersionTable {
    threads: Vec<ThreadVersions>,
    produced: u64,
    consumed: u64,
    outstanding: usize,
    peak: usize,
}

impl VersionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VersionTable::default()
    }

    /// The slot for `id`, allocating its chunk (and growing the per-thread
    /// first level) when `create` is set; `None` when absent and not
    /// creating.
    fn slot_mut(&mut self, id: VersionId, create: bool) -> Option<&mut Option<Slot>> {
        let tid = id.consumer.index();
        if self.threads.len() <= tid {
            if !create {
                return None;
            }
            self.threads.resize_with(tid + 1, ThreadVersions::default);
        }
        let per = &mut self.threads[tid];
        let ci = id.consumer_rid.0 / CHUNK_RIDS;
        let si = (id.consumer_rid.0 % CHUNK_RIDS) as usize;
        let chunk = if ci < DENSE_CHUNKS {
            let ci = ci as usize;
            if per.dense.len() <= ci {
                if !create {
                    return None;
                }
                per.dense.resize_with(ci + 1, || None);
            }
            if per.dense[ci].is_none() {
                if !create {
                    return None;
                }
                let chunk = per.fresh_chunk();
                per.dense[ci] = Some(chunk);
            }
            per.dense[ci].as_mut().expect("just ensured")
        } else if per.spill.contains_key(&ci) {
            per.spill.get_mut(&ci).expect("just checked")
        } else if create {
            let chunk = per.fresh_chunk();
            per.spill.entry(ci).or_insert(chunk)
        } else {
            return None;
        };
        Some(&mut chunk.slots[si])
    }

    /// Vacates `id`'s slot and frees its chunk when that was the last
    /// occupied slot (the reclamation that keeps long streams bounded).
    fn vacate(&mut self, id: VersionId) {
        let per = &mut self.threads[id.consumer.index()];
        let ci = id.consumer_rid.0 / CHUNK_RIDS;
        let si = (id.consumer_rid.0 % CHUNK_RIDS) as usize;
        if ci < DENSE_CHUNKS {
            let chunk = per.dense[ci as usize].as_mut().expect("occupied chunk");
            chunk.slots[si] = None;
            chunk.occupied -= 1;
            if chunk.occupied == 0 {
                let chunk = per.dense[ci as usize].take().expect("present");
                per.park(chunk);
            }
        } else {
            let chunk = per.spill.get_mut(&ci).expect("occupied chunk");
            chunk.slots[si] = None;
            chunk.occupied -= 1;
            if chunk.occupied == 0 {
                let chunk = per.spill.remove(&ci).expect("present");
                per.park(chunk);
            }
        }
    }

    /// Bumps the occupancy of `id`'s (existing) chunk.
    fn note_occupied(&mut self, id: VersionId) {
        let per = &mut self.threads[id.consumer.index()];
        let ci = id.consumer_rid.0 / CHUNK_RIDS;
        let chunk = if ci < DENSE_CHUNKS {
            per.dense[ci as usize].as_mut().expect("just created")
        } else {
            per.spill.get_mut(&ci).expect("just created")
        };
        chunk.occupied += 1;
    }

    /// Publishes versioned metadata for `id` covering `range`, to be
    /// consumed by `consumers` reader records (several pre-drain loads of
    /// the same block may share one snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the id is already present (version ids are unique per
    /// dynamic conflict), `consumers` is zero, or the snapshot length
    /// mismatches the range.
    pub fn produce(&mut self, id: VersionId, range: AddrRange, snapshot: Vec<u8>, consumers: u32) {
        self.try_produce(id, range, snapshot, consumers)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`produce`](Self::produce): structural violations
    /// (duplicate id, zero consumers, snapshot length mismatch) come back
    /// as a [`VersionError`] instead, for callers replaying untrusted
    /// streams.
    pub fn try_produce(
        &mut self,
        id: VersionId,
        range: AddrRange,
        snapshot: Vec<u8>,
        consumers: u32,
    ) -> Result<(), VersionError> {
        if snapshot.len() as u64 != range.len {
            return Err(VersionError(format!("snapshot length mismatch for {id}")));
        }
        if consumers == 0 {
            return Err(VersionError(format!("version without consumers: {id}")));
        }
        self.produced += 1;
        let slot = self.slot_mut(id, true).expect("created");
        // Consumers that already passed read the live (still pre-store)
        // shadow; only the remainder need the snapshot.
        let (already, was_occupied) = match slot {
            None => (0, false),
            Some(Slot::Bypassed(n)) => (*n, true),
            Some(Slot::Live { .. }) => return Err(VersionError(format!("duplicate version {id}"))),
        };
        let remaining = consumers.saturating_sub(already);
        if remaining == 0 {
            if was_occupied {
                self.vacate(id);
            }
            return Ok(());
        }
        *slot = Some(Slot::Live {
            range,
            snapshot,
            consumers: remaining,
        });
        if !was_occupied {
            self.note_occupied(id);
        }
        self.outstanding += 1;
        self.peak = self.peak.max(self.outstanding);
        Ok(())
    }

    /// Notes that a consumer of `id` proceeded before production: the
    /// producer had not applied its store, so the live shadow was still the
    /// correct pre-store state (§5.5 without the stall).
    pub fn bypass(&mut self, id: VersionId) {
        self.consumed += 1;
        let slot = self.slot_mut(id, true).expect("created");
        match slot {
            None => {
                *slot = Some(Slot::Bypassed(1));
                self.note_occupied(id);
            }
            Some(Slot::Bypassed(n)) => *n += 1,
            Some(Slot::Live { .. }) => unreachable!("bypass of an available version {id}"),
        }
    }

    /// Whether `id` has been produced and not yet consumed.
    pub fn is_available(&self, id: VersionId) -> bool {
        let Some(per) = self.threads.get(id.consumer.index()) else {
            return false;
        };
        let ci = id.consumer_rid.0 / CHUNK_RIDS;
        let si = (id.consumer_rid.0 % CHUNK_RIDS) as usize;
        let chunk = if ci < DENSE_CHUNKS {
            per.dense.get(ci as usize).and_then(Option::as_ref)
        } else {
            per.spill.get(&ci)
        };
        matches!(chunk.map(|c| &c.slots[si]), Some(Some(Slot::Live { .. })))
    }

    /// Consumes the version (one reference), or `None` if the producer has
    /// not reached its produce point yet — the consumer must stall. The
    /// entry is retired when its last consumer takes it.
    pub fn consume(&mut self, id: VersionId) -> Option<(AddrRange, Vec<u8>)> {
        let slot = self.slot_mut(id, false)?;
        let Some(Slot::Live {
            range,
            snapshot,
            consumers,
        }) = slot
        else {
            return None;
        };
        *consumers -= 1;
        let retired = *consumers == 0;
        let out = if retired {
            (*range, std::mem::take(snapshot))
        } else {
            (*range, snapshot.clone())
        };
        self.consumed += 1;
        if retired {
            self.outstanding -= 1;
            self.vacate(id);
        }
        Some(out)
    }

    /// Versions produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Versions consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Largest number of simultaneously outstanding versions — bounds the
    /// hardware table size this would need.
    pub fn peak_outstanding(&self) -> usize {
        self.peak
    }

    /// Versions currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// Dense first-level cells of one concurrent shard. Chunk indexes map into
/// the ring modulo this count (covering ≈ 2 million in-flight records per
/// thread before two live windows can collide on a cell), so an unbounded
/// rid sweep keeps reusing the same cells instead of growing the first
/// level.
const CONC_DENSE_CHUNKS: u64 = 1 << 14;

/// Drained chunks parked per shard for reuse: the outstanding window
/// crosses chunk boundaries constantly, and drain→refill churn must not
/// turn into an allocation per window step.
const SPARE_CHUNKS: usize = 2;

/// One chunk of the concurrent table: per-slot payload mutexes plus the
/// lock-free availability flags the consumer-side poll reads.
#[derive(Debug)]
struct ConcChunk {
    /// 1 when the slot holds a produced, not-yet-retired version. Purely a
    /// polling accelerator — all payload hand-off happens under the slot
    /// mutex.
    avail: Box<[AtomicU8]>,
    /// Occupied (non-`None`) slots, maintained by the slot transitions;
    /// lets the spill tier reclaim a fully drained chunk.
    occupied: AtomicU32,
    slots: Box<[Mutex<Option<Slot>>]>,
}

impl ConcChunk {
    fn new() -> Self {
        ConcChunk {
            avail: (0..CHUNK_RIDS).map(|_| AtomicU8::new(0)).collect(),
            occupied: AtomicU32::new(0),
            slots: (0..CHUNK_RIDS).map(|_| Mutex::new(None)).collect(),
        }
    }
}

/// A dense cell's occupant: the chunk plus the full chunk index it serves
/// (the `tag` disambiguates window wraps that alias the same cell) and a
/// flag keeping the drained-chunk retire queue duplicate-free.
#[derive(Debug)]
struct DenseChunk {
    tag: u64,
    queued: bool,
    chunk: Box<ConcChunk>,
}

/// One consumer thread's shard: the dense cell ring, the collision spill
/// tier and the epoch/retire state.
#[derive(Debug)]
struct Shard {
    /// First level: `chunk index % CONC_DENSE_CHUNKS` → cell. Every access
    /// to a dense chunk happens under its cell lock, which is the whole
    /// reclamation-safety argument: a sweep that holds the cell lock and
    /// sees the chunk empty knows no other thread holds it at all.
    dense: Box<[Mutex<Option<DenseChunk>>]>,
    /// Chunks whose cell was occupied by a *different* live window when
    /// they were created (rid ranges ≥ the dense span apart). `Arc` only
    /// so the handle can be cloned out of the map borrow; all spill work
    /// still happens under the cell + spill locks.
    spill: Mutex<BTreeMap<u64, Arc<ConcChunk>>>,
    /// The shard's quiescence clock: advanced by its consumer at stream
    /// batch boundaries.
    epoch: AtomicU64,
    /// Fully drained dense chunks awaiting a later epoch's sweep, each
    /// stamped with the epoch it drained in.
    drained: Mutex<Vec<(u64, u64)>>,
    /// Reclaimed chunks parked for reuse. Boxed on purpose: a `ConcChunk`
    /// is ~`CHUNK_RIDS` mutexes wide, and the pool hands the same
    /// allocation back to the dense ring without moving it by value.
    #[allow(clippy::vec_box)]
    spare: Mutex<Vec<Box<ConcChunk>>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            dense: (0..CONC_DENSE_CHUNKS).map(|_| Mutex::new(None)).collect(),
            spill: Mutex::new(BTreeMap::new()),
            epoch: AtomicU64::new(0),
            drained: Mutex::new(Vec::new()),
            spare: Mutex::new(Vec::new()),
        }
    }

    fn fresh_chunk(&self) -> Box<ConcChunk> {
        self.spare
            .lock()
            .expect("poisoned")
            .pop()
            .unwrap_or_else(|| Box::new(ConcChunk::new()))
    }
}

/// The `Send + Sync` version table shared by a session's concurrent
/// replay lanes: same §5.5 semantics and accounting as [`VersionTable`], safe
/// across real producer/consumer threads. See the module docs for the
/// sharded-chunk + atomic-availability design.
#[derive(Debug)]
pub struct ConcurrentVersionTable {
    shards: Box<[Shard]>,
    produced: AtomicU64,
    consumed: AtomicU64,
    outstanding: AtomicUsize,
    peak: AtomicUsize,
    dense_resident: AtomicUsize,
    dense_peak: AtomicUsize,
    reclaimed: AtomicU64,
}

impl ConcurrentVersionTable {
    /// Record ids per dense chunk — the granule at which the epoch sweep
    /// allocates and reclaims version storage.
    pub const CHUNK_RIDS: u64 = CHUNK_RIDS;

    /// Rid span of one full dense ring: rids this far apart alias the same
    /// cell (the window-wrap case the spill tier absorbs). Soaks that want
    /// to prove residency stays bounded sweep many multiples of this.
    pub const WINDOW_RIDS: u64 = CONC_DENSE_CHUNKS * CHUNK_RIDS;

    /// An empty table for `threads` monitored streams (version ids name
    /// their consumer thread, which must be below `threads`).
    pub fn new(threads: usize) -> Self {
        ConcurrentVersionTable {
            shards: (0..threads.max(1)).map(|_| Shard::new()).collect(),
            produced: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            dense_resident: AtomicUsize::new(0),
            dense_peak: AtomicUsize::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    fn split(id: VersionId) -> (u64, usize) {
        (
            id.consumer_rid.0 / CHUNK_RIDS,
            (id.consumer_rid.0 % CHUNK_RIDS) as usize,
        )
    }

    /// Runs `f` over the chunk holding chunk index `ci` of `shard`. With
    /// `create` unset, untouched chunks are skipped (availability polls of
    /// never-produced ids must not allocate).
    ///
    /// The cell lock (taken first, held throughout) is the linchpin: it
    /// serializes every accessor of this cell's chunk *and* the tier
    /// decision for aliasing chunk indexes, so the epoch sweep can free a
    /// drained chunk under the same lock without any hazard tracking, and
    /// a chunk index can never be live in the dense ring and the spill map
    /// at once.
    fn with_chunk<R>(
        &self,
        shard: &Shard,
        ci: u64,
        create: bool,
        f: impl FnOnce(&ConcChunk) -> R,
    ) -> Option<R> {
        let cell = &shard.dense[(ci % CONC_DENSE_CHUNKS) as usize];
        let mut guard = cell.lock().expect("poisoned");
        if matches!(&*guard, Some(d) if d.tag == ci) {
            let d = guard.as_mut().expect("just matched");
            let out = f(&d.chunk);
            let enqueue = !d.queued && d.chunk.occupied.load(Ordering::Relaxed) == 0;
            if enqueue {
                d.queued = true;
            }
            // Lock order is cell → nothing: drop the cell guard before the
            // retire queue (the sweep takes queue → cell).
            drop(guard);
            if enqueue {
                let epoch = shard.epoch.load(Ordering::Relaxed);
                shard.drained.lock().expect("poisoned").push((ci, epoch));
            }
            return Some(out);
        }
        // Dense miss: the chunk may be parked in the spill tier (a window
        // wrap collided on this cell when it was created), be creatable, or
        // be absent. The cell guard stays held so the tier decision cannot
        // race another accessor of an aliasing chunk index.
        let vacant = guard.is_none();
        let mut spill = shard.spill.lock().expect("poisoned");
        if let Some(chunk) = spill.get(&ci).map(Arc::clone) {
            let out = f(&chunk);
            if chunk.occupied.load(Ordering::Relaxed) == 0 {
                spill.remove(&ci);
            }
            return Some(out);
        }
        if !create {
            return None;
        }
        if vacant {
            drop(spill);
            let now = self.dense_resident.fetch_add(1, Ordering::Relaxed) + 1;
            self.dense_peak.fetch_max(now, Ordering::Relaxed);
            let d = guard.insert(DenseChunk {
                tag: ci,
                queued: false,
                chunk: shard.fresh_chunk(),
            });
            let out = f(&d.chunk);
            let enqueue = !d.queued && d.chunk.occupied.load(Ordering::Relaxed) == 0;
            if enqueue {
                d.queued = true;
            }
            drop(guard);
            if enqueue {
                let epoch = shard.epoch.load(Ordering::Relaxed);
                shard.drained.lock().expect("poisoned").push((ci, epoch));
            }
            return Some(out);
        }
        // Collision: an older live window owns the cell; park this chunk in
        // the spill tier (reclaimed the moment it drains, as above).
        let chunk = Arc::new(ConcChunk::new());
        let out = f(&chunk);
        if chunk.occupied.load(Ordering::Relaxed) != 0 {
            spill.insert(ci, chunk);
        }
        Some(out)
    }

    /// Advances `consumer`'s shard epoch and sweeps its retire queue: a
    /// dense chunk that fully drained in an *earlier* epoch and is still
    /// empty under its cell lock is freed to the shard's spare pool. The
    /// threaded backend calls this at every stream batch boundary (and once
    /// more when the stream ends), so residency tracks the outstanding
    /// window while the window's own churn never frees a chunk that is
    /// about to be refilled. A no-op when `consumer` is outside the table.
    pub fn advance_epoch(&self, consumer: paralog_events::ThreadId) {
        let Some(shard) = self.shards.get(consumer.index()) else {
            return;
        };
        let now = shard.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let ready = {
            let mut queue = shard.drained.lock().expect("poisoned");
            let (ready, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut *queue)
                .into_iter()
                .partition(|&(_, e)| e < now);
            *queue = keep;
            ready
        };
        for (ci, _) in ready {
            let cell = &shard.dense[(ci % CONC_DENSE_CHUNKS) as usize];
            let mut guard = cell.lock().expect("poisoned");
            let empty = matches!(
                &*guard,
                Some(d) if d.tag == ci && d.chunk.occupied.load(Ordering::Relaxed) == 0
            );
            if empty {
                let d = guard.take().expect("just matched");
                self.dense_resident.fetch_sub(1, Ordering::Relaxed);
                self.reclaimed.fetch_add(1, Ordering::Relaxed);
                let mut spare = shard.spare.lock().expect("poisoned");
                if spare.len() < SPARE_CHUNKS {
                    spare.push(d.chunk);
                }
            } else if let Some(d) = guard.as_mut().filter(|d| d.tag == ci) {
                // Refilled since it drained; it re-queues on its next
                // drain. (A vacated or superseded cell needs nothing.)
                d.queued = false;
            }
        }
    }

    /// Publishes versioned metadata for `id` covering `range`. Semantics
    /// (and panics) match
    /// [`VersionTable::produce`]: consumers that already bypassed are
    /// subtracted, and a fully pre-bypassed version retires immediately.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present, `consumers` is zero, or the
    /// snapshot length mismatches the range.
    pub fn produce(&self, id: VersionId, range: AddrRange, snapshot: Vec<u8>, consumers: u32) {
        self.try_produce(id, range, snapshot, consumers)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`produce`](Self::produce): structural violations
    /// (duplicate id, zero consumers, snapshot length mismatch, consumer
    /// thread outside the table) come back as a [`VersionError`] instead,
    /// so workers replaying untrusted streams can report a malformed
    /// stream rather than poison the table's locks.
    pub fn try_produce(
        &self,
        id: VersionId,
        range: AddrRange,
        snapshot: Vec<u8>,
        consumers: u32,
    ) -> Result<(), VersionError> {
        if snapshot.len() as u64 != range.len {
            return Err(VersionError(format!("snapshot length mismatch for {id}")));
        }
        if consumers == 0 {
            return Err(VersionError(format!("version without consumers: {id}")));
        }
        let Some(shard) = self.shards.get(id.consumer.index()) else {
            return Err(VersionError(format!(
                "version {id} names a consumer thread outside the {}-thread table",
                self.shards.len()
            )));
        };
        let (ci, si) = Self::split(id);
        self.with_chunk(shard, ci, true, |chunk| {
            let mut slot = chunk.slots[si].lock().expect("poisoned");
            let already = match &*slot {
                None => 0,
                Some(Slot::Bypassed(n)) => *n,
                Some(Slot::Live { .. }) => {
                    return Err(VersionError(format!("duplicate version {id}")));
                }
            };
            let was_occupied = slot.is_some();
            let remaining = consumers.saturating_sub(already);
            if remaining == 0 {
                // Every reader already bypassed: nothing to publish.
                *slot = None;
                if was_occupied {
                    chunk.occupied.fetch_sub(1, Ordering::Relaxed);
                }
            } else {
                *slot = Some(Slot::Live {
                    range,
                    snapshot,
                    consumers: remaining,
                });
                if !was_occupied {
                    chunk.occupied.fetch_add(1, Ordering::Relaxed);
                }
                // Count the version outstanding *before* publishing its
                // availability flag (both under the cell lock): once the
                // flag is visible a consumer may retire the version and
                // decrement, so incrementing after releasing the lock
                // could observe the decrement first and wrap.
                let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak.fetch_max(now, Ordering::Relaxed);
                chunk.avail[si].store(1, Ordering::Release);
            }
            Ok(())
        })
        .expect("chunk created")?;
        self.produced.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Notes that a consumer of `id` proceeded before production (the
    /// deterministic paths' §5.5-without-the-stall case; real-thread
    /// consumers wait instead — see the module docs).
    pub fn bypass(&self, id: VersionId) {
        self.consumed.fetch_add(1, Ordering::Relaxed);
        let shard = self
            .shards
            .get(id.consumer.index())
            .expect("version id's consumer thread is within the table's thread count");
        let (ci, si) = Self::split(id);
        self.with_chunk(shard, ci, true, |chunk| {
            let mut slot = chunk.slots[si].lock().expect("poisoned");
            match &mut *slot {
                None => {
                    *slot = Some(Slot::Bypassed(1));
                    chunk.occupied.fetch_add(1, Ordering::Relaxed);
                }
                Some(Slot::Bypassed(n)) => *n += 1,
                Some(Slot::Live { .. }) => unreachable!("bypass of an available version {id}"),
            }
        })
        .expect("chunk created");
    }

    /// Whether `id` has been produced and not yet retired — a two-index
    /// poll of the availability flag under the (steady-state uncontended)
    /// cell lock.
    pub fn is_available(&self, id: VersionId) -> bool {
        let Some(shard) = self.shards.get(id.consumer.index()) else {
            return false;
        };
        let (ci, si) = Self::split(id);
        self.with_chunk(shard, ci, false, |chunk| {
            chunk.avail[si].load(Ordering::Acquire) != 0
        })
        .unwrap_or(false)
    }

    /// Consumes one reference to `id`'s version, or `None` when the
    /// producer has not published it yet. The entry retires (and its flag
    /// clears) when the last consumer takes it.
    pub fn consume(&self, id: VersionId) -> Option<(AddrRange, Vec<u8>)> {
        let shard = self.shards.get(id.consumer.index())?;
        let (ci, si) = Self::split(id);
        let (out, retired) = self.with_chunk(shard, ci, false, |chunk| {
            let mut slot = chunk.slots[si].lock().expect("poisoned");
            let Some(Slot::Live {
                range,
                snapshot,
                consumers,
            }) = &mut *slot
            else {
                return None;
            };
            *consumers -= 1;
            let retired = *consumers == 0;
            let out = if retired {
                (*range, std::mem::take(snapshot))
            } else {
                (*range, snapshot.clone())
            };
            if retired {
                chunk.avail[si].store(0, Ordering::Release);
                *slot = None;
                chunk.occupied.fetch_sub(1, Ordering::Relaxed);
            }
            Some((out, retired))
        })??;
        self.consumed.fetch_add(1, Ordering::Relaxed);
        if retired {
            self.outstanding.fetch_sub(1, Ordering::Relaxed);
        }
        Some(out)
    }

    /// Versions produced so far.
    pub fn produced(&self) -> u64 {
        self.produced.load(Ordering::Relaxed)
    }

    /// Versions consumed so far (bypasses included, as in the sequential
    /// table).
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Largest number of simultaneously outstanding versions observed.
    pub fn peak_outstanding(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Versions currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Dense chunks currently resident across all shards — the quantity
    /// epoch reclamation bounds to the outstanding window.
    pub fn dense_resident(&self) -> usize {
        self.dense_resident.load(Ordering::Relaxed)
    }

    /// High-water mark of [`dense_resident`](Self::dense_resident).
    pub fn peak_dense_resident(&self) -> usize {
        self.dense_peak.load(Ordering::Relaxed)
    }

    /// Dense chunks freed by epoch sweeps so far.
    pub fn reclaimed_chunks(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::{Rid, ThreadId};

    fn vid(t: u16, r: u64) -> VersionId {
        VersionId {
            consumer: ThreadId(t),
            consumer_rid: Rid(r),
        }
    }

    #[test]
    fn produce_then_consume() {
        let mut t = VersionTable::new();
        let id = vid(0, 2);
        let r = AddrRange::new(0x100, 4);
        assert!(!t.is_available(id));
        t.produce(id, r, vec![0b11, 0, 0, 0b01], 1);
        assert!(t.is_available(id));
        let (range, snap) = t.consume(id).expect("available");
        assert_eq!(range, r);
        assert_eq!(snap, vec![0b11, 0, 0, 0b01]);
        assert!(!t.is_available(id));
        assert_eq!(t.produced(), 1);
        assert_eq!(t.consumed(), 1);
    }

    #[test]
    fn consume_before_produce_stalls() {
        let mut t = VersionTable::new();
        assert!(t.consume(vid(1, 5)).is_none());
        assert_eq!(t.consumed(), 0);
    }

    #[test]
    fn peak_outstanding_tracks_high_water() {
        let mut t = VersionTable::new();
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        t.produce(vid(0, 2), AddrRange::new(8, 1), vec![1], 1);
        t.consume(vid(0, 1));
        t.produce(vid(1, 1), AddrRange::new(16, 1), vec![0], 1);
        assert_eq!(t.peak_outstanding(), 2);
        assert_eq!(t.outstanding(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate version")]
    fn duplicate_produce_panics() {
        let mut t = VersionTable::new();
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_snapshot_length_panics() {
        let mut t = VersionTable::new();
        t.produce(vid(0, 1), AddrRange::new(0, 4), vec![0], 1);
    }

    #[test]
    fn shared_version_consumed_by_each_reader() {
        let mut t = VersionTable::new();
        let id = vid(0, 9);
        t.produce(id, AddrRange::new(0, 2), vec![1, 0], 2);
        assert!(t.consume(id).is_some());
        assert!(t.is_available(id), "one consumer left");
        assert!(t.consume(id).is_some());
        assert!(!t.is_available(id), "retired after last consumer");
        assert_eq!(t.consumed(), 2);
    }

    #[test]
    fn bypass_then_produce_skips_satisfied_readers() {
        let mut t = VersionTable::new();
        let id = vid(2, 40);
        t.bypass(id);
        t.bypass(id);
        // Both readers already passed: the snapshot retires immediately.
        t.produce(id, AddrRange::new(0, 1), vec![7], 2);
        assert!(!t.is_available(id));
        assert_eq!(t.outstanding(), 0);
        // One of three readers passed early: two consumes drain it.
        let id2 = vid(2, 41);
        t.bypass(id2);
        t.produce(id2, AddrRange::new(0, 1), vec![7], 3);
        assert!(t.consume(id2).is_some());
        assert!(t.consume(id2).is_some());
        assert!(!t.is_available(id2));
    }

    #[test]
    fn drained_chunks_are_reclaimed() {
        let mut t = VersionTable::new();
        // Walk a long rid space, consuming as we go: residency must track
        // the outstanding window, not the rid high-water mark.
        for r in 1..=(CHUNK_RIDS * 8) {
            let id = vid(0, r);
            t.produce(id, AddrRange::new(0, 1), vec![1], 1);
            assert!(t.consume(id).is_some());
        }
        assert_eq!(t.outstanding(), 0);
        let live_chunks =
            t.threads[0].dense.iter().filter(|c| c.is_some()).count() + t.threads[0].spill.len();
        assert_eq!(live_chunks, 0, "fully retired chunks are freed");
    }

    #[test]
    fn far_future_rids_use_the_spill_tier() {
        let mut t = VersionTable::new();
        let far = vid(1, DENSE_CHUNKS * CHUNK_RIDS + 17);
        t.produce(far, AddrRange::new(0, 1), vec![3], 1);
        assert!(t.is_available(far));
        assert!(
            t.threads[1].dense.is_empty(),
            "outliers must not grow the dense first level"
        );
        assert_eq!(t.consume(far).map(|(_, s)| s), Some(vec![3]));
        assert!(t.threads[1].spill.is_empty(), "spill chunk reclaimed");
    }

    #[test]
    fn concurrent_produce_then_consume() {
        let t = ConcurrentVersionTable::new(2);
        let id = vid(0, 2);
        let r = AddrRange::new(0x100, 4);
        assert!(!t.is_available(id));
        assert!(t.consume(id).is_none(), "consume before produce misses");
        t.produce(id, r, vec![0b11, 0, 0, 0b01], 1);
        assert!(t.is_available(id));
        assert_eq!(t.consume(id), Some((r, vec![0b11, 0, 0, 0b01])));
        assert!(!t.is_available(id));
        assert_eq!((t.produced(), t.consumed(), t.outstanding()), (1, 1, 0));
        assert_eq!(t.peak_outstanding(), 1);
    }

    #[test]
    fn concurrent_shared_and_bypassed_versions_account_like_sequential() {
        let t = ConcurrentVersionTable::new(4);
        let id = vid(2, 40);
        t.bypass(id);
        t.bypass(id);
        // Both readers already passed: the snapshot retires immediately.
        t.produce(id, AddrRange::new(0, 1), vec![7], 2);
        assert!(!t.is_available(id));
        assert_eq!(t.outstanding(), 0);
        // One of three readers passed early: two consumes drain it.
        let id2 = vid(2, 41);
        t.bypass(id2);
        t.produce(id2, AddrRange::new(0, 1), vec![7], 3);
        assert!(t.consume(id2).is_some());
        assert!(t.is_available(id2), "one consumer left");
        assert!(t.consume(id2).is_some());
        assert!(!t.is_available(id2), "retired after last consumer");
        assert_eq!(t.consumed(), 5, "bypasses count as consumption");
    }

    #[test]
    #[should_panic(expected = "duplicate version")]
    fn concurrent_duplicate_produce_panics() {
        let t = ConcurrentVersionTable::new(1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
    }

    #[test]
    fn concurrent_window_wrap_collisions_use_the_spill_tier_and_reclaim() {
        let t = ConcurrentVersionTable::new(2);
        // A far-future rid aliases cell 17 of the ring; with the cell
        // vacant it lives densely like any other chunk.
        let far = vid(1, CONC_DENSE_CHUNKS * CHUNK_RIDS + 17 * CHUNK_RIDS);
        assert!(!t.is_available(far), "a miss polls without allocating");
        t.produce(far, AddrRange::new(0, 1), vec![3], 1);
        assert!(t.is_available(far));
        assert!(t.shards[1].spill.lock().unwrap().is_empty());
        // A *live* near rid aliasing the same cell collides and parks in
        // the spill tier instead of evicting the resident window.
        let near = vid(1, 17 * CHUNK_RIDS + 5);
        t.produce(near, AddrRange::new(8, 1), vec![9], 1);
        assert!(t.is_available(far) && t.is_available(near));
        assert_eq!(
            t.shards[1].spill.lock().unwrap().len(),
            1,
            "the colliding window must not displace the resident chunk"
        );
        assert_eq!(t.consume(near).map(|(_, s)| s), Some(vec![9]));
        assert!(
            t.shards[1].spill.lock().unwrap().is_empty(),
            "a drained spill chunk is reclaimed immediately"
        );
        assert_eq!(t.consume(far).map(|(_, s)| s), Some(vec![3]));
        // The spill entry is rebuilt transparently while the collision
        // persists.
        t.produce(far, AddrRange::new(0, 1), vec![4], 1);
        t.produce(near, AddrRange::new(8, 1), vec![5], 1);
        assert_eq!(t.consume(near).map(|(_, s)| s), Some(vec![5]));
        assert_eq!(t.consume(far).map(|(_, s)| s), Some(vec![4]));
        assert!(t.shards[1].spill.lock().unwrap().is_empty());
    }

    #[test]
    fn epoch_sweep_reclaims_drained_dense_chunks() {
        let t = ConcurrentVersionTable::new(1);
        let consumer = ThreadId(0);
        // Sweep a rid range 64 chunks long with a one-version window,
        // advancing the epoch every "batch" the way the threaded backend
        // does.
        for batch in 0..64u64 {
            for i in 0..CHUNK_RIDS {
                let id = vid(0, batch * CHUNK_RIDS + i);
                t.produce(id, AddrRange::new(0, 1), vec![1], 1);
                assert!(t.consume(id).is_some());
            }
            t.advance_epoch(consumer);
        }
        t.advance_epoch(consumer);
        assert!(
            t.dense_resident() <= 2,
            "residency must track the window, not the swept range (got {})",
            t.dense_resident()
        );
        assert!(t.peak_dense_resident() <= 3);
        assert!(t.reclaimed_chunks() >= 60, "sweeps must actually free");
        // The freed cells are reused transparently.
        let again = vid(0, 3 * CHUNK_RIDS + 1);
        t.produce(again, AddrRange::new(0, 1), vec![7], 1);
        assert_eq!(t.consume(again).map(|(_, s)| s), Some(vec![7]));
    }

    #[test]
    fn epoch_sweep_spares_the_still_occupied_and_refilled() {
        let t = ConcurrentVersionTable::new(1);
        let held = vid(0, 5);
        t.produce(held, AddrRange::new(0, 1), vec![1], 1);
        // Drain a neighbor chunk, then refill it before the sweep runs.
        let churn = vid(0, CHUNK_RIDS + 3);
        t.produce(churn, AddrRange::new(0, 1), vec![2], 1);
        assert!(t.consume(churn).is_some());
        t.produce(churn, AddrRange::new(0, 1), vec![3], 1);
        t.advance_epoch(ThreadId(0));
        t.advance_epoch(ThreadId(0));
        assert_eq!(t.dense_resident(), 2, "occupied chunks are never freed");
        assert!(t.is_available(held) && t.is_available(churn));
        assert!(t.consume(held).is_some() && t.consume(churn).is_some());
    }

    #[test]
    fn concurrent_out_of_range_consumer_is_an_error_not_a_panic() {
        let t = ConcurrentVersionTable::new(2);
        let err = t
            .try_produce(vid(7, 1), AddrRange::new(0, 1), vec![0], 1)
            .expect_err("consumer thread 7 is outside a 2-thread table");
        assert!(err.to_string().contains("outside the 2-thread table"));
        assert!(!t.is_available(vid(7, 1)));
        assert!(t.consume(vid(7, 1)).is_none());
        assert_eq!(t.produced(), 0);
    }

    #[test]
    fn concurrent_duplicate_produce_is_an_error_via_try_produce() {
        let t = ConcurrentVersionTable::new(1);
        t.produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1);
        let err = t
            .try_produce(vid(0, 1), AddrRange::new(0, 1), vec![0], 1)
            .expect_err("duplicate");
        assert!(err.to_string().contains("duplicate version"));
        // The table keeps working: the original version is intact.
        assert!(t.is_available(vid(0, 1)));
        assert!(t.consume(vid(0, 1)).is_some());
    }

    #[test]
    fn concurrent_producers_race_distinct_ids_safely() {
        // Four producer threads publish disjoint id sets for two consumer
        // shards while both consumers poll: every snapshot must
        // arrive intact and the accounting must balance.
        const PER_PRODUCER: u64 = 256;
        let t = ConcurrentVersionTable::new(2);
        std::thread::scope(|scope| {
            let table = &t;
            for p in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let consumer = (p % 2) as u16;
                        let rid = 1 + p / 2 * PER_PRODUCER + i;
                        let id = vid(consumer, rid);
                        table.produce(
                            id,
                            AddrRange::new(rid * 8, 8),
                            vec![(rid % 251) as u8; 8],
                            1,
                        );
                    }
                });
            }
            for consumer in 0..2u16 {
                scope.spawn(move || {
                    for rid in 1..=(2 * PER_PRODUCER) {
                        let id = vid(consumer, rid);
                        loop {
                            if let Some((range, snap)) = table.consume(id) {
                                assert_eq!(range, AddrRange::new(rid * 8, 8));
                                assert_eq!(snap, vec![(rid % 251) as u8; 8]);
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(t.produced(), 4 * PER_PRODUCER);
        assert_eq!(t.consumed(), 4 * PER_PRODUCER);
        assert_eq!(t.outstanding(), 0);
        assert!(t.peak_outstanding() >= 1);
    }
}
