//! A per-lane slot for state only one replay lane touches at a time.

use std::cell::UnsafeCell;

/// A per-lane slot for one replay lane's private state.
///
/// The state is single-owner by protocol: only the worker currently
/// replaying thread `t` touches slot `t`, and lane hand-off between pool
/// threads is ordered by the backend's own synchronization. A `Mutex` here
/// costs two locked RMW ops per record on x86 for a lock nobody contends,
/// so the slot is an [`UnsafeCell`] with the ownership contract on
/// [`with`](Self::with), checked at runtime in debug builds.
#[derive(Debug, Default)]
pub struct LaneCell<T> {
    value: UnsafeCell<T>,
    #[cfg(debug_assertions)]
    entered: std::sync::atomic::AtomicBool,
}

// SAFETY: cross-thread access is confined to one owner at a time by the
// lane protocol (see `with`); the cell itself adds no sharing.
unsafe impl<T: Send> Sync for LaneCell<T> {}

impl<T> LaneCell<T> {
    /// Wraps `value` in a lane slot.
    pub fn new(value: T) -> Self {
        LaneCell {
            value: UnsafeCell::new(value),
            #[cfg(debug_assertions)]
            entered: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Runs `f` with exclusive access to the slot.
    ///
    /// # Safety
    ///
    /// The caller must be the slot's current owner: no other call to `with`
    /// on this slot may overlap this one, and any hand-off of ownership
    /// between threads must happen-before the new owner's first call. The
    /// replay backends uphold this by construction (one worker or lane per
    /// replayed thread; migrations ordered by the scheduler).
    pub unsafe fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::Ordering;
            assert!(
                !self.entered.swap(true, Ordering::Acquire),
                "LaneCell entered concurrently — single-owner contract violated"
            );
        }
        // SAFETY: exclusivity is the caller's contract, stated above.
        let out = f(unsafe { &mut *self.value.get() });
        #[cfg(debug_assertions)]
        self.entered
            .store(false, std::sync::atomic::Ordering::Release);
        out
    }
}
