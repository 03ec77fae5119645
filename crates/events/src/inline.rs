//! A hand-rolled inline small-vector for the event-capture hot path.
//!
//! Every retired instruction materializes an [`EventRecord`]; with `Vec`
//! fields, each record that carries even one dependence arc or TSO
//! annotation costs a heap allocation on the capture path and another on
//! clone-to-ring delivery. [`InlineVec`] stores up to `N` elements inline
//! (the overwhelmingly common case is zero or one arc per record) and only
//! spills to the heap beyond that, making the common capture/deliver cycle
//! allocation-free.
//!
//! # Why the slots stay inline
//!
//! The inline slots are most of `EventRecord`'s size, and moving them out of
//! line was measured. With `ArcList` and `ProduceList` as plain `Vec`s,
//! every call site compiled unchanged, the release test suite passed, and
//! `size_of::<EventRecord>()` fell from 240 to 152 B. The end-to-end
//! benchmark (two processors, alternated pairs, inline | `Vec`) then split
//! by workload:
//!
//! * `taint_sat` (0.36 arcs per 1000 records, 3 pairs) gained:
//!   `records_per_s` 11.81 12.24 12.67 | 13.19 14.09 13.57 M (median
//!   +11 %), `peak_rss_mb` 203–205 → 142.
//! * `arc_storm` (968 arcs per 1000 records, 5 pairs) lost, because nearly
//!   every decoded record then allocates: `records_per_s` 4.68 4.39 4.31
//!   4.62 4.45 | 3.85 3.70 3.64 3.71 3.63 M (median −17 %), `drain_ms`
//!   26.4 26.8 27.6 26.6 26.8 | 32.3 33.8 34.4 33.1 33.0 (median +24 %,
//!   against a 25 % bound), `detect_latency_p50_ms` median 28.6 → 34.1.
//!
//! So a smaller record is worth having only in a form that does not cost
//! an allocation per decoded record. That form is the one used now: the
//! slots stay inline, the spill shrinks from a 24 B `Vec` to one thin
//! pointer (`Option<Box<Vec<T>>>`, so `ArcList` is 48 B, not 64, with both
//! arcs still inline), and the §5.5 notes, which only SC-violating records
//! of TSO captures carry, move behind one pointer of their own. The record
//! is 120 B and a 256-record lane batch 30 KiB, inside a 48 KiB L1d.
//! Against the 240 B layout (same two-processor box, alternated pairs,
//! 10 s windows, 240 B → 120 B medians; 120 B had the higher
//! `records_per_s` in every pair):
//!
//! * `taint_sat`, seed 1, 10 pairs: `records_per_s` 13.9 → 16.2 M
//!   (+17 %, 240 B IQR 13.6–14.2), `drain_ms` 21.6 → 18.5,
//!   `peak_rss_mb` 203 → 120; seed 2, 5 pairs: 14.2 → 16.7 M.
//! * `arc_storm`, 5 pairs: `records_per_s` 5.68 → 6.29 M (+11 %),
//!   `drain_ms` 21.5 → 19.4, `peak_rss_mb` 125 → 80.
//! * `race_sat`, 5 pairs: 10.0 → 11.5 M (+15 %), RSS 365 → 214 MB.
//! * `cosim_fig6`, 5 pairs: 13.9 → 16.0 M (+15 %), `setup_s` 5.23 →
//!   4.67, RSS 845 → 487 MB.
//!
//! The element type must be `Copy + Default`: events are plain-old-data,
//! and the inline buffer is a plain `[T; N]` whose unused tail holds
//! `T::default()` fillers that are never read — no `unsafe` anywhere.
//!
//! [`EventRecord`]: crate::record::EventRecord

use std::fmt;
use std::ops::Deref;

/// A small-vector holding up to `N` elements inline before spilling.
pub struct InlineVec<T: Copy, const N: usize> {
    /// Inline storage; the first `len` slots are the elements iff `spill`
    /// is `None`, the rest is filler.
    inline: [T; N],
    /// Element count of `inline` (unused once spilled).
    len: u8,
    /// Heap storage holding *all* elements once length exceeds `N`: one
    /// thin pointer, so an unspilled list pays 8 B for it, not a `Vec`'s 24.
    #[allow(clippy::box_collection)] // the box is what makes it thin
    spill: Option<Box<Vec<T>>>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    pub fn new() -> Self {
        const {
            assert!(
                N > 0 && N <= u8::MAX as usize,
                "inline capacity out of range"
            )
        };
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            spill: None,
        }
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether elements currently live on the heap (diagnostic aid).
    pub fn is_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// All elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(spill) => spill,
            None => &self.inline[..self.len as usize],
        }
    }

    /// All elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(spill) => spill,
            None => &mut self.inline[..self.len as usize],
        }
    }

    /// Appends an element, spilling to the heap past `N`.
    pub fn push(&mut self, value: T) {
        if let Some(spill) = &mut self.spill {
            spill.push(value);
            return;
        }
        let len = self.len as usize;
        if len < N {
            self.inline[len] = value;
            self.len += 1;
            return;
        }
        // First spill: move the inline prefix to the heap.
        let mut spill = Vec::with_capacity(N * 2);
        spill.extend_from_slice(&self.inline);
        spill.push(value);
        self.spill = Some(Box::new(spill));
        self.len = 0;
    }

    /// Drops all elements and any heap storage, so the next push is
    /// inline again.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill = None;
    }

    /// Iterates the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        // Flat copy: `T: Copy` makes the inline array (filler tail
        // included) bitwise-copyable, and the struct invariant carries over
        // unchanged. This runs on the clone-to-ring delivery hot path.
        InlineVec {
            inline: self.inline,
            len: self.len,
            spill: self.spill.clone(),
        }
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Equal when the elements are, whichever tier (or inline capacity) holds
/// them.
impl<T: Copy + PartialEq, const N: usize, const M: usize> PartialEq<InlineVec<T, M>>
    for InlineVec<T, N>
{
    fn eq(&self, other: &InlineVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::new();
        out.extend(iter);
        out
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert!(!v.is_spilled(), "fits inline");
        assert_eq!(v.as_slice(), &[1, 2]);
        v.push(3);
        assert!(v.is_spilled(), "third element exceeds inline capacity");
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn clone_eq_and_debug() {
        let mut a: InlineVec<u8, 2> = InlineVec::new();
        a.extend([5, 6, 7]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[5, 6, 7]");
        let c: InlineVec<u8, 2> = [5, 6].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn from_vec_and_deref() {
        let v: InlineVec<u8, 2> = vec![9, 8].into();
        assert!(!v.is_spilled());
        // Deref coercion to slice APIs.
        assert_eq!(v.first(), Some(&9));
        assert_eq!(v.iter().copied().max(), Some(9));
        let w: InlineVec<u8, 2> = vec![1, 2, 3, 4].into();
        assert!(w.is_spilled());
        assert_eq!(&w[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn clear_resets_both_tiers() {
        let mut v: InlineVec<u8, 1> = InlineVec::new();
        v.push(1);
        v.clear();
        assert!(v.is_empty());
        v.extend([1, 2, 3]);
        assert!(v.is_spilled());
        v.clear();
        assert!(v.is_empty());
        v.push(9);
        assert_eq!(v.as_slice(), &[9]);
    }

    #[test]
    fn clear_after_a_spill_pushes_inline_again() {
        let mut v: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        assert!(v.is_spilled());
        v.clear();
        assert!(!v.is_spilled(), "clear frees the heap tier");
        v.push(4);
        v.push(5);
        assert!(!v.is_spilled(), "refills up to capacity stay inline");
        assert_eq!(v.as_slice(), &[4, 5]);
    }

    #[test]
    fn clone_of_a_spilled_list_owns_its_heap() {
        let mut a: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        let b = a.clone();
        assert!(b.is_spilled());
        a.push(4);
        assert_eq!(b.as_slice(), &[1, 2, 3], "the clone's spill is its own");
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn spilled_and_unspilled_lists_with_the_same_elements_are_equal() {
        let spilled: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        let inline: InlineVec<u32, 4> = [1, 2, 3].into_iter().collect();
        assert!(spilled.is_spilled() && !inline.is_spilled());
        assert_eq!(spilled, inline);
        assert_eq!(inline, spilled);
        let shorter: InlineVec<u32, 4> = [1, 2].into_iter().collect();
        assert_ne!(spilled, shorter);
    }

    #[test]
    fn iterate_by_reference() {
        let mut v: InlineVec<u16, 2> = InlineVec::new();
        v.extend([10, 20]);
        let sum: u16 = (&v).into_iter().sum();
        assert_eq!(sum, 30);
    }
}
