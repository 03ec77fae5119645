//! Deterministic discrete-event scheduling.
//!
//! The whole platform — application cores, lifeguard cores, store-buffer
//! drains — is simulated on one OS thread by always stepping the entity with
//! the smallest local clock (ties broken by entity index). Because shared
//! state is only touched by the globally-earliest entity, every run is
//! deterministic and the interleaving is a legal fine-grained schedule of the
//! modeled machine.

/// Tracks per-entity local clocks and picks the next entity to step.
#[derive(Debug, Clone)]
pub struct Scheduler {
    clocks: Vec<u64>,
    done: Vec<bool>,
    steps: u64,
}

impl Scheduler {
    /// Creates a scheduler for `entities` entities, all at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `entities` is zero.
    pub fn new(entities: usize) -> Self {
        assert!(entities > 0, "scheduler needs at least one entity");
        Scheduler {
            clocks: vec![0; entities],
            done: vec![false; entities],
            steps: 0,
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether no entities exist (never true; see [`Scheduler::new`]).
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Local clock of `entity`.
    pub fn clock(&self, entity: usize) -> u64 {
        self.clocks[entity]
    }

    /// Advances `entity`'s clock by `cycles`.
    pub fn advance(&mut self, entity: usize, cycles: u64) {
        self.clocks[entity] += cycles;
    }

    /// Moves `entity`'s clock forward to at least `time` (no-op if already
    /// past it).
    pub fn advance_to(&mut self, entity: usize, time: u64) {
        if self.clocks[entity] < time {
            self.clocks[entity] = time;
        }
    }

    /// Marks `entity` as finished; it will not be picked again.
    pub fn finish(&mut self, entity: usize) {
        self.done[entity] = true;
    }

    /// Whether every entity has finished.
    pub fn all_finished(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Picks the unfinished entity with the smallest clock (smallest index on
    /// ties) and counts the step. Returns `None` when all are finished.
    pub fn pick_next(&mut self) -> Option<usize> {
        // One pass with no data-dependent branch: a finished entity's key
        // is `u64::MAX`, and a strict `<` keeps the first (smallest-index)
        // minimum. A live clock never reaches `u64::MAX`.
        let mut best = (0, u64::MAX);
        for (i, (&t, &d)) in self.clocks.iter().zip(&self.done).enumerate() {
            let key = if d { u64::MAX } else { t };
            if key < best.1 {
                best = (i, key);
            }
        }
        (best.1 != u64::MAX).then(|| {
            self.steps += 1;
            best.0
        })
    }

    /// Total steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The largest clock over all entities — the run's execution time once
    /// everything has finished.
    pub fn max_clock(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_min_clock_with_index_tiebreak() {
        let mut s = Scheduler::new(3);
        s.advance(0, 10);
        s.advance(1, 5);
        s.advance(2, 5);
        assert_eq!(s.pick_next(), Some(1), "smaller index wins ties");
        s.advance(1, 1);
        assert_eq!(s.pick_next(), Some(2));
    }

    #[test]
    fn finished_entities_are_skipped() {
        let mut s = Scheduler::new(2);
        s.finish(0);
        assert_eq!(s.pick_next(), Some(1));
        s.finish(1);
        assert_eq!(s.pick_next(), None);
        assert!(s.all_finished());
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut s = Scheduler::new(1);
        s.advance(0, 50);
        s.advance_to(0, 30);
        assert_eq!(s.clock(0), 50);
        s.advance_to(0, 80);
        assert_eq!(s.clock(0), 80);
    }

    #[test]
    fn max_clock_reports_execution_time() {
        let mut s = Scheduler::new(2);
        s.advance(0, 7);
        s.advance(1, 19);
        assert_eq!(s.max_clock(), 19);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_scheduler_rejected() {
        let _ = Scheduler::new(0);
    }
}
