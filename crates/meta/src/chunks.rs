//! The lazily grown chunk directory under [`AtomicShadow`](crate::AtomicShadow)
//! and [`PackedWordTable`](crate::PackedWordTable), each chunk with a head
//! its owner keeps beside the elements: the byte shadow's marks of the
//! 64 B lines that ever held a non-zero byte.
//!
//! A replayed stream's footprint is unknown until its tail arrives, so the
//! index grows on demand: a top level of [`OnceLock`]ed tables, each
//! holding [`TABLE_SLOTS`] `OnceLock`ed chunks, covers the dense span; a
//! mutex-protected map holds the far outliers beyond it. Whichever worker
//! touches a table or chunk first initializes it race-free; after that a
//! hot-path access is two array indexes — no locks, no hashing.
//!
//! The two levels are sized to measured traffic: a session touches at most
//! 26 byte-shadow chunks and 100 word-table chunks, so a flat first level
//! over the same span (131,072 and 262,144 slots) would be 3 MiB and 6 MiB
//! of `OnceLock`s faulted in per session to hold a few dozen pointers.
//!
//! Each chunk carries its *head* of type `H` in its table slot, so every
//! slot of a materialized table pays for one: the byte shadow boxes its
//! sixteen mark words (a 512-slot table stays 16 KiB instead of 76 KiB),
//! and the word table keeps none (`H = ()`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Chunks per second-level table.
const TABLE_SLOTS: u64 = 512;

/// One materialized chunk: its owner's summary and its elements.
#[derive(Debug)]
struct Chunk<T, H> {
    head: H,
    data: Box<[T]>,
}

type Table<T, H> = Box<[OnceLock<Chunk<T, H>>]>;

/// `chunk index → chunk of T` with lazily materialized chunks, each with a
/// head `H`.
#[derive(Debug)]
pub(crate) struct ChunkDir<T, H = ()> {
    /// Dense span: table `ci / TABLE_SLOTS`, slot `ci % TABLE_SLOTS`.
    tables: Box<[OnceLock<Table<T, H>>]>,
    /// Outlier chunks beyond the dense span. `Arc` lets an accessor clone a
    /// handle out of the lock and work without holding it.
    spill: Mutex<BTreeMap<u64, Arc<Chunk<T, H>>>>,
    chunk_len: usize,
}

impl<T: Default, H: Default> ChunkDir<T, H> {
    /// An empty directory of `chunk_len`-element chunks whose dense span
    /// covers chunk indices below `dense_chunks` (a multiple of
    /// [`TABLE_SLOTS`]).
    pub(crate) fn new(dense_chunks: u64, chunk_len: usize) -> Self {
        assert_eq!(dense_chunks % TABLE_SLOTS, 0, "whole tables only");
        ChunkDir {
            tables: (0..dense_chunks / TABLE_SLOTS)
                .map(|_| OnceLock::new())
                .collect(),
            spill: Mutex::new(BTreeMap::new()),
            chunk_len,
        }
    }

    fn new_chunk(&self) -> Chunk<T, H> {
        Chunk {
            head: H::default(),
            data: (0..self.chunk_len).map(|_| T::default()).collect(),
        }
    }

    /// Runs `f` over chunk `ci`. With `create` unset, an untouched chunk is
    /// skipped (reads of clean metadata must not allocate); otherwise it is
    /// initialized race-free first.
    #[inline]
    pub(crate) fn with<R>(&self, ci: u64, create: bool, f: impl FnOnce(&[T]) -> R) -> Option<R> {
        self.with_head(ci, create, |_, data| f(data))
    }

    /// [`with`](Self::with), `f` also given the chunk's head.
    #[inline]
    pub(crate) fn with_head<R>(
        &self,
        ci: u64,
        create: bool,
        f: impl FnOnce(&H, &[T]) -> R,
    ) -> Option<R> {
        let slot = (ci % TABLE_SLOTS) as usize;
        if let Some(table) = self.tables.get((ci / TABLE_SLOTS) as usize) {
            let chunk = if create {
                table.get_or_init(|| (0..TABLE_SLOTS).map(|_| OnceLock::new()).collect())[slot]
                    .get_or_init(|| self.new_chunk())
            } else {
                table.get()?[slot].get()?
            };
            return Some(f(&chunk.head, &chunk.data));
        }
        let chunk = {
            let mut spill = self.spill.lock().expect("poisoned");
            match spill.get(&ci) {
                Some(chunk) => Arc::clone(chunk),
                None if create => {
                    let chunk = Arc::new(self.new_chunk());
                    spill.insert(ci, Arc::clone(&chunk));
                    chunk
                }
                None => return None,
            }
        };
        Some(f(&chunk.head, &chunk.data))
    }

    /// Calls `f(chunk index, chunk)` for every materialized chunk in
    /// ascending index order (the dense span, then the spill tier).
    pub(crate) fn for_each(&self, mut f: impl FnMut(u64, &[T])) {
        self.for_each_head(|ci, _, data| f(ci, data));
    }

    /// [`for_each`](Self::for_each), `f` also given each chunk's head.
    pub(crate) fn for_each_head(&self, mut f: impl FnMut(u64, &H, &[T])) {
        for (ti, table) in self.tables.iter().enumerate() {
            let Some(table) = table.get() else { continue };
            for (slot, chunk) in table.iter().enumerate() {
                if let Some(chunk) = chunk.get() {
                    f(
                        ti as u64 * TABLE_SLOTS + slot as u64,
                        &chunk.head,
                        &chunk.data,
                    );
                }
            }
        }
        // Handles out, lock dropped: `f` may come back through `with`.
        let spill: Vec<(u64, Arc<Chunk<T, H>>)> = {
            let spill = self.spill.lock().expect("poisoned");
            spill.iter().map(|(ci, c)| (*ci, Arc::clone(c))).collect()
        };
        for (ci, chunk) in &spill {
            f(*ci, &chunk.head, &chunk.data);
        }
    }

    /// Whether chunk `ci` has been materialized.
    #[cfg(test)]
    pub(crate) fn is_materialized(&self, ci: u64) -> bool {
        self.with(ci, false, |_| ()).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    #[test]
    fn grows_lazily_and_iterates_in_ascending_order() {
        const DENSE: u64 = 256 * TABLE_SLOTS;
        let dir: ChunkDir<AtomicU8> = ChunkDir::new(DENSE, 16);
        assert_eq!(dir.tables.len(), 256);
        assert!(dir.tables.iter().all(|t| t.get().is_none()));
        assert!(dir.spill.lock().unwrap().is_empty());
        // Reads of untouched chunks allocate nothing at any level.
        assert_eq!(dir.with(3, false, |_| ()), None);
        assert_eq!(dir.with(DENSE + 7, false, |_| ()), None);
        assert!(dir.tables.iter().all(|t| t.get().is_none()));

        // Both sides of a table seam, the last dense chunk, and the spill
        // tier — touched out of order.
        let touched = [DENSE + 7, TABLE_SLOTS, DENSE - 1, TABLE_SLOTS - 1, DENSE];
        for (i, &ci) in touched.iter().enumerate() {
            dir.with(ci, true, |c| {
                assert_eq!(c.len(), 16);
                c[0].store(i as u8 + 1, Ordering::Relaxed);
            })
            .expect("created");
            assert!(dir.is_materialized(ci));
        }
        assert!(!dir.is_materialized(TABLE_SLOTS + 1), "neighbour untouched");
        assert_eq!(
            dir.tables.iter().filter(|t| t.get().is_some()).count(),
            3,
            "tables 0, 1 and 255"
        );
        assert_eq!(dir.spill.lock().unwrap().len(), 2);

        let mut seen = Vec::new();
        dir.for_each(|ci, c| seen.push((ci, c[0].load(Ordering::Relaxed))));
        assert_eq!(
            seen,
            vec![
                (TABLE_SLOTS - 1, 4),
                (TABLE_SLOTS, 2),
                (DENSE - 1, 3),
                (DENSE, 5),
                (DENSE + 7, 1)
            ]
        );
    }
}
