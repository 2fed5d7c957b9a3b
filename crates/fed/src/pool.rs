//! Persistent, core-clamped worker pool for the runner's fan-outs.
//!
//! The runner used to re-spawn a `crossbeam::scope` of worker threads for
//! every round's client fan-out and every eval sweep — thousands of thread
//! spawns per run, plus fresh `Timeline` lanes and cold `refil_nn` scratch
//! arenas on each. A [`WorkerPool`] is created once per runner (lazily, on
//! the first dispatch that wants more than one worker) and reused for every
//! subsequent dispatch: the threads park on a condvar between jobs, each
//! slot's [`Lane`] is revived in place with [`Timeline::rearm`], and the
//! workers' thread-local scratch pools stay warm across rounds.
//!
//! Scheduling semantics are identical to the scoped pool it replaces: a job
//! is a closure run once per participating slot (`0..workers`), workers
//! pull work items off a caller-owned shared counter, and results land in
//! slot-indexed cells — so outputs stay byte-identical at any thread count.
//!
//! # Safety
//!
//! [`WorkerPool::run`] hands the borrowed job closure to the worker threads
//! by erasing its lifetime. This is sound for the same reason scoped
//! threads are: `run` does not return until every participating worker has
//! finished the job (a condvar completion barrier), so the closure — and
//! everything it borrows — outlives every use. Workers never touch the job
//! pointer outside the generation that published it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use refil_telemetry::Lane;

/// A job published to the pool: the erased closure plus how many leading
/// slots participate.
#[derive(Clone, Copy)]
struct Job {
    /// Lifetime-erased borrow of the caller's closure; valid for the whole
    /// generation because [`WorkerPool::run`] blocks until `active == 0`.
    task: *const (dyn Fn(usize) + Sync),
    workers: usize,
}

// SAFETY: the raw pointer targets a `Sync` closure and is only
// dereferenced while the publishing `run` call keeps the underlying borrow
// alive.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per published job; workers use it to tell "new job" from
    /// spurious wakeups and to run each job exactly once.
    generation: u64,
    /// Participating workers still inside the current job.
    active: usize,
    /// Workers whose job closure panicked this generation.
    panicked: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers: new job published, or shutdown.
    dispatch: Condvar,
    /// Signals the driver: all participating workers finished.
    complete: Condvar,
}

/// A fixed-size pool of persistent worker threads plus one reusable
/// [`Lane`] per slot. Created via [`WorkerPool::new`]; dropping the pool
/// shuts the threads down and joins them.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    lanes: Vec<Mutex<Lane>>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes whole dispatches (job + post-job lane merge) so two
    /// threads sharing one runner cannot interleave jobs or clobber each
    /// other's lanes. Held via [`WorkerPool::serialize`].
    serial: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `size` persistent workers (at least 1).
    pub(crate) fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                active: 0,
                panicked: 0,
                shutdown: false,
            }),
            dispatch: Condvar::new(),
            complete: Condvar::new(),
        });
        let handles = (0..size)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("refil-worker-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        let lanes = (0..size).map(|_| Mutex::new(Lane::detached())).collect();
        Self {
            shared,
            lanes,
            handles,
            serial: Mutex::new(()),
        }
    }

    /// Takes the dispatch lock: hold the guard around a [`WorkerPool::run`]
    /// call *and* the lane reads that follow it, so concurrent dispatches on
    /// a shared pool cannot interleave.
    pub(crate) fn serialize(&self) -> MutexGuard<'_, ()> {
        self.serial.lock().expect("pool dispatch lock poisoned")
    }

    /// Number of worker threads.
    pub(crate) fn size(&self) -> usize {
        self.handles.len()
    }

    /// Runs `task` once on each of the first `workers` slots, blocking until
    /// every participating worker has returned.
    ///
    /// # Panics
    ///
    /// Panics if `workers` exceeds the pool size, and re-raises (as a fresh
    /// panic, after all workers finished the job) if any worker's closure
    /// panicked — matching the joined-scope semantics it replaces.
    pub(crate) fn run(&self, workers: usize, task: &(dyn Fn(usize) + Sync)) {
        assert!(
            workers <= self.size(),
            "job wants {workers} workers but the pool has {}",
            self.size()
        );
        if workers == 0 {
            return;
        }
        // SAFETY: erasing the closure's lifetime is sound because we hold
        // `state` through publication and do not return until
        // `active == 0`, so the borrow outlives every dereference (see
        // module docs).
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        debug_assert!(state.job.is_none() && state.active == 0, "pool reentered");
        state.job = Some(Job { task, workers });
        state.generation += 1;
        state.active = workers;
        state.panicked = 0;
        self.shared.dispatch.notify_all();
        while state.active > 0 {
            state = self
                .shared
                .complete
                .wait(state)
                .expect("pool state poisoned");
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        assert!(panicked == 0, "{panicked} pool worker(s) panicked");
    }

    /// The persistent [`Lane`] for worker slot `slot`. Workers lock it for
    /// the duration of a job; the driver locks it afterwards to merge.
    pub(crate) fn lane(&self, slot: usize) -> MutexGuard<'_, Lane> {
        self.lanes[slot].lock().expect("pool lane poisoned")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.dispatch.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    seen_generation = state.generation;
                    break;
                }
                state = shared.dispatch.wait(state).expect("pool state poisoned");
            }
            state.job
        };
        let Some(job) = job else { continue };
        if slot >= job.workers {
            continue;
        }
        // SAFETY: the publishing `run` call blocks until we decrement
        // `active`, keeping the closure borrow alive (module docs).
        let task = unsafe { &*job.task };
        let outcome = catch_unwind(AssertUnwindSafe(|| task(slot)));
        let mut state = shared.state.lock().expect("pool state poisoned");
        if outcome.is_err() {
            state.panicked += 1;
        }
        state.active -= 1;
        if state.active == 0 {
            shared.complete.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_participating_slot_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(3, &|slot| {
            hits[slot].fetch_add(1, Ordering::SeqCst);
        });
        let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1, 1, 1, 0]);
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(2, &|_slot| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn shared_counter_scheduling_covers_all_items() {
        let pool = WorkerPool::new(4);
        let next = AtomicUsize::new(0);
        let done: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        pool.run(4, &|_slot| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = done.get(i) else { break };
            cell.fetch_add(1, Ordering::SeqCst);
        });
        assert!(done.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn worker_panic_is_reraised_after_the_job_completes() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|slot| {
                if slot == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(err.is_err(), "worker panic must surface to the driver");
        // The pool survives a panicked job and keeps serving.
        let ran = AtomicUsize::new(0);
        pool.run(2, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(3);
        pool.run(3, &|_| {});
        drop(pool); // must not hang or leak threads
    }
}
