//! The worker pool every session's lanes are scheduled on.
//!
//! A *fixed* set of OS workers runs [`PoolTask`]s: `paralogd` multiplexes
//! N sessions × K lanes over one pool, and
//! [`ThreadedBackend`](super::ThreadedBackend) runs one session on a pool
//! of its own. The unit of scheduling is one home lane of a session's
//! [`LaneSet`](super::coop::LaneSet): a worker checks a task out of the
//! global FIFO, runs one bounded [`PoolTask::run`] *slice* — one sweep of
//! the session's lanes from the task's home, at most
//! [`LANE_BUDGET`](super::coop::LANE_BUDGET) records over all of them — and
//! requeues it behind every other task. That round-robin is the isolation
//! property the daemon suite asserts: a session whose producer stalls
//! reports [`TaskPoll::AgainIdle`] after one pass over its lanes, in
//! microseconds, and goes to the back of the queue, so its lanes can never
//! monopolize a worker that session B's runnable lanes are waiting for.
//!
//! Workers that see only idle polls back off into an *idle wait* (the pool
//! has nothing runnable — burning cores polling stalled producers would
//! starve the *host*): a condvar wait on the pool's wake generation, which
//! three things bump — [`submit`](WorkerPool::submit), an outside
//! [`wake`](WorkerPool::wake) (`paralogd`'s reader threads call it after
//! every feed write or close), and a slice that reports
//! [`TaskPoll::AgainWake`] because it left work another worker can take. A
//! wait ends on the first bump after the slice that started it, so bytes
//! that arrive, or a lane made runnable by a peer, are picked up at once
//! rather than after a sleep. The wait still times out after `IDLE_SLEEP`,
//! for the one thing no wake announces: a gate on a coupled lane clearing
//! (a gated slice wakes nobody, or three coupled lanes on two workers would
//! ping-pong between cores); deadlock is decided on a lane's step. Coupled
//! lanes mostly do not need the pool to meet again: a sweep keeps a gated
//! lane while it steps that lane's blocker
//! ([`LaneSet::sweep`](super::coop::LaneSet::sweep)), so a chain of them
//! stays on the worker that holds it, and another worker's slices on the
//! same session find the chain held, go flat and back off into the wait.
//! Stopping the pool ends only the other wait, an untimed one on an empty
//! queue: [`shutdown`](WorkerPool::shutdown) sets `stop` under the queue
//! lock, as `submit` pushes, so no worker misses either. It is how a caller
//! joins its tasks, and a task waiting on a lagging producer keeps backing
//! off meanwhile.
//!
//! The pool counts what it does ([`PoolCounters`], the `pool` line of
//! `ctl LIST`): slices per record says how much scheduling a session's
//! records cost, idle slices and waits say how much of the pool's time
//! went to polling sessions with nothing to do, wakes how many of those
//! waits an event cut short, and backstops how many ran to `IDLE_SLEEP`
//! because nothing announced what they waited for.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a [`PoolTask::run`] slice reports back to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// Made progress and has more to do: requeue (behind everyone else).
    Again,
    /// [`Again`](Self::Again), and the slice left work another worker can
    /// take: also wake an idle worker.
    AgainWake,
    /// Runnable but found nothing to do (producer lagging, gate unmet):
    /// requeue, and let the worker back off if the whole pool looks idle.
    AgainIdle,
    /// Terminal: drop the task.
    Done,
}

/// One schedulable unit of work. `run` must be bounded (no internal
/// blocking or spinning) — blocking is expressed by returning
/// [`TaskPoll::AgainIdle`] and being rescheduled.
pub trait PoolTask: Send {
    /// Runs one bounded slice.
    fn run(&mut self) -> TaskPoll;
}

struct PoolShared {
    queue: Mutex<VecDeque<Box<dyn PoolTask>>>,
    available: Condvar,
    stop: AtomicBool,
    /// Live (submitted, not yet `Done`) tasks — the idle-backoff signal.
    live: AtomicUsize,
    /// Bumped by every wake; an idle wait ends once it moves past the value
    /// read before the slice that started the wait.
    wake_gen: AtomicU64,
    /// Workers inside an idle wait: a wake takes `idle` to notify only
    /// when there is one.
    waiting: AtomicUsize,
    idle: Mutex<()>,
    woken: Condvar,
    /// Statistics only (`Relaxed`): they publish no other data.
    slices: AtomicU64,
    idle_slices: AtomicU64,
    idle_sleeps: AtomicU64,
    wakes: AtomicU64,
    backstops: AtomicU64,
}

impl PoolShared {
    fn wake(&self) {
        // `SeqCst` on both sides, against the waiter's `waiting` increment
        // then `wake_gen` load: either this load sees the waiter, or the
        // waiter sees this bump and never waits.
        self.wake_gen.fetch_add(1, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) > 0 {
            // Under `idle`, so a waiter between its check and its wait
            // cannot miss the notification.
            let _idle = self.idle.lock().expect("poisoned");
            self.woken.notify_all();
        }
    }

    /// Waits out an idle streak: until the wake generation moves past
    /// `seen` (at once if it already has), or `IDLE_SLEEP` passes.
    fn idle_wait(&self, seen: u64) {
        self.idle_sleeps.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + IDLE_SLEEP;
        let mut idle = self.idle.lock().expect("poisoned");
        self.waiting.fetch_add(1, Ordering::SeqCst);
        // A wake counts only when a notification ended a wait that
        // blocked; a wake that had already landed counts as neither.
        let mut blocked = false;
        let ended = loop {
            if self.wake_gen.load(Ordering::SeqCst) != seen {
                break blocked.then_some(&self.wakes);
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break Some(&self.backstops);
            };
            let (guard, waited) = self.woken.wait_timeout(idle, left).expect("poisoned");
            idle = guard;
            if waited.timed_out() {
                break Some(&self.backstops);
            }
            blocked = true;
        };
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        if let Some(count) = ended {
            count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What the pool has done since it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounters {
    /// [`PoolTask::run`] calls.
    pub slices: u64,
    /// Slices that reported [`TaskPoll::AgainIdle`].
    pub idle_slices: u64,
    /// Idle waits: times a worker backed off after an idle streak.
    pub idle_sleeps: u64,
    /// Idle waits a wake ended while the worker was blocked in them.
    pub wakes: u64,
    /// Idle waits that ran to the `IDLE_SLEEP` backstop: nothing announced
    /// what ended them. The rest of the idle waits found a wake already
    /// landed.
    pub backstops: u64,
}

/// A fixed-size worker pool over [`PoolTask`]s.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    count: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.count)
            .field("live_tasks", &self.shared.live.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Consecutive idle polls before a worker starts sleeping between slices.
const IDLE_STREAK_BACKOFF: u32 = 8;
/// Backstop of an idle wait, for what no wake announces: a gate on a
/// coupled lane clearing.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

impl WorkerPool {
    /// Spawns `workers` OS threads (0 = one per available core, clamped to
    /// at least 2 so one stalled session can never own the whole pool).
    pub fn new(workers: usize) -> Self {
        let count = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 32)
        } else {
            workers.clamp(1, 256)
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            wake_gen: AtomicU64::new(0),
            waiting: AtomicUsize::new(0),
            idle: Mutex::new(()),
            woken: Condvar::new(),
            slices: AtomicU64::new(0),
            idle_slices: AtomicU64::new(0),
            idle_sleeps: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            backstops: AtomicU64::new(0),
        });
        let workers = (0..count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("paralog-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
            count,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.count
    }

    /// Tasks submitted and not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Slice and idle counts since the pool started.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            slices: self.shared.slices.load(Ordering::Relaxed),
            idle_slices: self.shared.idle_slices.load(Ordering::Relaxed),
            idle_sleeps: self.shared.idle_sleeps.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
            backstops: self.shared.backstops.load(Ordering::Relaxed),
        }
    }

    /// Enqueues a task, and wakes idle workers to poll it.
    pub fn submit(&self, task: Box<dyn PoolTask>) {
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        self.shared.queue.lock().expect("poisoned").push_back(task);
        self.shared.available.notify_one();
        self.shared.wake();
    }

    /// Ends every idle wait under way, and the next one of every worker
    /// polling now: something a task waits on happened (bytes arrived, a
    /// feed closed). Cheap when no worker waits.
    pub fn wake(&self) {
        self.shared.wake();
    }

    /// Stops the workers and joins them: queued tasks keep being polled,
    /// idle waits included, until they report [`TaskPoll::Done`]. Returns
    /// the payload of the first worker that panicked (it ran nothing more).
    pub fn shutdown(&self) -> Option<Box<dyn Any + Send>> {
        {
            let _queue = self.shared.queue.lock().expect("poisoned");
            self.shared.stop.store(true, Ordering::Release);
            self.shared.available.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("poisoned"));
        let mut panic = None;
        for handle in workers {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        panic
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut idle_streak = 0u32;
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("poisoned");
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("poisoned");
            }
        };
        let Some(mut task) = task else {
            return; // stopped with an empty queue
        };
        shared.slices.fetch_add(1, Ordering::Relaxed);
        // Read before the slice: a wake during it ends the wait it may end in.
        let seen = shared.wake_gen.load(Ordering::SeqCst);
        match task.run() {
            poll @ (TaskPoll::Again | TaskPoll::AgainWake) => {
                idle_streak = 0;
                shared.queue.lock().expect("poisoned").push_back(task);
                shared.available.notify_one();
                if poll == TaskPoll::AgainWake {
                    shared.wake();
                }
            }
            TaskPoll::AgainIdle => {
                idle_streak += 1;
                shared.idle_slices.fetch_add(1, Ordering::Relaxed);
                shared.queue.lock().expect("poisoned").push_back(task);
                // Everything this worker touches is idle: wait for a wake
                // so stalled producers don't turn the pool into a spin farm.
                // (Runnable work still drains — other workers keep going,
                // and Again resets the streak.)
                if idle_streak >= IDLE_STREAK_BACKOFF {
                    shared.idle_wait(seen);
                }
            }
            TaskPoll::Done => {
                idle_streak = 0;
                shared.live.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct CountTo {
        n: Arc<AtomicU64>,
        target: u64,
    }

    impl PoolTask for CountTo {
        fn run(&mut self) -> TaskPoll {
            if self.n.fetch_add(1, Ordering::Relaxed) + 1 >= self.target {
                TaskPoll::Done
            } else {
                TaskPoll::Again
            }
        }
    }

    #[test]
    fn tasks_run_to_completion_and_drain() {
        let pool = WorkerPool::new(3);
        let counters: Vec<Arc<AtomicU64>> = (0..8).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for n in &counters {
            pool.submit(Box::new(CountTo {
                n: Arc::clone(n),
                target: 100,
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.live_tasks() > 0 {
            assert!(std::time::Instant::now() < deadline, "pool wedged");
            std::thread::yield_now();
        }
        for n in &counters {
            assert_eq!(n.load(Ordering::Relaxed), 100);
        }
        pool.shutdown();
    }

    struct IdleUntil {
        flag: Arc<AtomicBool>,
    }

    impl PoolTask for IdleUntil {
        fn run(&mut self) -> TaskPoll {
            if self.flag.load(Ordering::Relaxed) {
                TaskPoll::Done
            } else {
                TaskPoll::AgainIdle
            }
        }
    }

    #[test]
    fn idle_tasks_do_not_starve_runnable_ones() {
        // One worker, an always-idle task ahead of real work: round-robin
        // must still complete the runnable task.
        let pool = WorkerPool::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        pool.submit(Box::new(IdleUntil {
            flag: Arc::clone(&flag),
        }));
        let n = Arc::new(AtomicU64::new(0));
        pool.submit(Box::new(CountTo {
            n: Arc::clone(&n),
            target: 50,
        }));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while n.load(Ordering::Relaxed) < 50 {
            assert!(
                std::time::Instant::now() < deadline,
                "idle task starved the runnable one"
            );
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Relaxed);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.live_tasks() > 0 {
            assert!(std::time::Instant::now() < deadline, "pool wedged");
            std::thread::yield_now();
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_right_after_submit_runs_every_task_to_done_backing_off_while_idle() {
        // Shutdown is how a caller joins its tasks, so a task waiting on a
        // lagging producer must not spin its worker meanwhile.
        let pool = WorkerPool::new(1);
        let n = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        pool.submit(Box::new(IdleUntil {
            flag: Arc::clone(&flag),
        }));
        pool.submit(Box::new(CountTo {
            n: Arc::clone(&n),
            target: 100,
        }));
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag.store(true, Ordering::Relaxed);
        });
        assert!(pool.shutdown().is_none(), "no task panicked");
        producer.join().unwrap();
        assert_eq!(pool.live_tasks(), 0, "every task ran to Done");
        assert_eq!(n.load(Ordering::Relaxed), 100);
        assert!(pool.counters().idle_sleeps > 0, "{:?}", pool.counters());
    }

    #[test]
    fn a_wake_cuts_an_idle_wait_short() {
        let pool = WorkerPool::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        pool.submit(Box::new(IdleUntil {
            flag: Arc::clone(&flag),
        }));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.counters().backstops < 2 {
            assert!(std::time::Instant::now() < deadline, "never backed off");
            std::thread::yield_now();
        }
        // Nothing else wakes a lone idle task: every wait but the one under
        // way ran to the backstop, and a counted wake is one of these,
        // notified.
        let counters = pool.counters();
        assert_eq!(counters.wakes, 0, "{counters:?}");
        assert!(
            counters.idle_sleeps.saturating_sub(counters.backstops) <= 1,
            "{counters:?}"
        );
        let mut sent = 0u64;
        while pool.counters().wakes == 0 {
            assert!(std::time::Instant::now() < deadline, "a wake never landed");
            pool.wake();
            sent += 1;
            std::thread::yield_now();
        }
        let counters = pool.counters();
        assert!(counters.wakes <= sent, "{counters:?} after {sent} wakes");
        assert!(
            counters.wakes + counters.backstops <= counters.idle_sleeps,
            "{counters:?}"
        );
        flag.store(true, Ordering::Relaxed);
        assert!(pool.shutdown().is_none());
        assert_eq!(pool.live_tasks(), 0);
    }

    #[test]
    fn an_idle_pool_stops_at_once_every_time() {
        // A worker that checked `stop` and has not yet waited must still
        // see the shutdown: the queue wait has no clock to fall back on.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..200 {
                let pool = WorkerPool::new(2);
                assert!(pool.shutdown().is_none());
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("an idle pool's shutdown was lost");
        cycles.join().expect("every cycle stopped cleanly");
    }
}
