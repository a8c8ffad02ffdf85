//! The one persistent executor behind every data-parallel pass.
//!
//! The paper's accelerator is a *fixed* array of cores that stream
//! resident BS-CSR packets; nothing is instantiated per query. This
//! module is the host-side counterpart: one process-wide pool of worker
//! threads, created lazily on first use and sized by
//! [`std::thread::available_parallelism`], that the multi-core engine
//! (one task per partition), the prune pass and the CPU baseline (one
//! task per row range) all submit to. After the pool exists, no query
//! spawns a thread.
//!
//! Emulated cores stay a *semantic* parameter — they fix the row
//! partitioning and the per-core `k`, and so the answers. The executor
//! only decides how many of those partitions run at once, which never
//! changes a result.
//!
//! Three properties the callers rely on:
//!
//! - **The caller works too.** [`run_tasks`] claims tasks on the calling
//!   thread alongside the workers, so a call never idles waiting for a
//!   handoff, and a call with one task (or a pool of width one) runs
//!   inline without touching the pool at all.
//! - **Panics reach the caller.** A panicking task is caught on the
//!   thread that ran it; once every task of the call has finished, the
//!   first panic is resumed on the caller, so a serving tier's
//!   `catch_unwind` sees it exactly as if the work had run inline. The
//!   workers survive.
//! - **Resident per-thread state.** [`with_resident`] lends each thread
//!   one long-lived value per type — the engine's `BatchScratch` on the
//!   workers, the batch's query block on the caller — so warm calls
//!   reuse their buffers instead of rebuilding them.
//!
//! Everything here is safe std code. Workers only run `'static` tasks,
//! so callers share their inputs through `Arc`s (BS-CSR partitions and
//! CSR arrays clone in O(1)); when [`run_tasks`] returns, the task
//! closure has been dropped, so those `Arc`s are unique again.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

/// Locks a mutex, recovering the guard if a holder panicked: task
/// panics are caught outside every guard, so poison carries no torn
/// state here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A submitted call, seen from a worker: claim and run its tasks until
/// none are left unclaimed.
trait Claimable: Send + Sync {
    fn run_claimed(&self);
}

/// Completion state of one call.
struct Progress<T> {
    /// One slot per task, filled when that task finishes.
    results: Vec<Option<Result<T, Payload>>>,
    /// Tasks not yet finished.
    left: usize,
}

/// One [`run_tasks`] call: the task closure, a claim counter, and the
/// result slots.
struct Call<T, F> {
    /// The task body; taken (and dropped) by the caller once every task
    /// has finished, so nothing it captured outlives the call.
    body: RwLock<Option<F>>,
    tasks: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    progress: Mutex<Progress<T>>,
    finished: Condvar,
}

impl<T, F> Claimable for Call<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn run_claimed(&self) {
        loop {
            // ordering: the counter only hands out distinct indices (RMW
            // atomicity); the task inputs are published by the queue
            // mutex and the results by `progress`.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            let out = {
                let body = self.body.read().unwrap_or_else(PoisonError::into_inner);
                match body.as_ref() {
                    Some(f) => catch_unwind(AssertUnwindSafe(|| f(i))),
                    // Unreachable: the body is only taken after all
                    // `tasks` indices have finished, and `i` is one of
                    // them that has not.
                    None => return,
                }
            };
            let mut progress = lock(&self.progress);
            progress.results[i] = Some(out);
            progress.left -= 1;
            if progress.left == 0 {
                self.finished.notify_all();
            }
        }
    }
}

/// The queue workers take calls from: one ticket per worker invited to
/// help with a call.
struct Shared {
    tickets: Mutex<VecDeque<Arc<dyn Claimable>>>,
    ready: Condvar,
}

struct Executor {
    shared: Arc<Shared>,
    workers: usize,
}

/// The process-wide executor, started on first use.
// alloc-ok(fn): runs once per process — the queue and the workers.
fn executor() -> &'static Executor {
    static EXECUTOR: OnceLock<Executor> = OnceLock::new();
    EXECUTOR.get_or_init(|| {
        let shared = Arc::new(Shared {
            tickets: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        // The caller of every call works alongside the pool, so
        // `available_parallelism` threads run tasks with one fewer
        // dedicated worker.
        let wanted = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let mut workers = 0;
        for w in 0..wanted {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("tkspmv-exec-{w}"))
                .spawn(move || worker_loop(&shared));
            // A refused spawn only narrows the pool; callers always
            // make progress on their own thread.
            workers += usize::from(spawned.is_ok());
        }
        Executor { shared, workers }
    })
}

/// Body of every worker: take a ticket, help with its call, repeat.
fn worker_loop(shared: &Shared) {
    loop {
        let call = {
            let mut tickets = lock(&shared.tickets);
            loop {
                if let Some(call) = tickets.pop_front() {
                    break call;
                }
                tickets = shared
                    .ready
                    .wait(tickets)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        call.run_claimed();
    }
}

/// Runs `f(0) .. f(tasks - 1)` on the executor and returns the results
/// in index order.
///
/// The calling thread claims tasks too; with `tasks <= 1`, or a pool of
/// width one, every task runs inline on the caller. Tasks run in no
/// particular order and concurrently, so `f` must not depend on either.
/// When this returns, `f` has been dropped.
///
/// # Panics
///
/// If any task panics, the first panic (by task index) is resumed on
/// the caller after every task has finished.
// alloc-ok(fn): per-call bookkeeping — one shared call record, its
// result slots and the returned vector; the ticket queue keeps its
// capacity warm, so the count is fixed by `tasks`, never by the stream.
pub fn run_tasks<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    // (A single task never starts the pool.)
    if tasks <= 1 || executor().workers == 0 {
        return (0..tasks).map(f).collect();
    }
    let exec = executor();
    let call = Arc::new(Call {
        body: RwLock::new(Some(f)),
        tasks,
        next: AtomicUsize::new(0),
        progress: Mutex::new(Progress {
            results: (0..tasks).map(|_| None).collect(),
            left: tasks,
        }),
        finished: Condvar::new(),
    });
    let helpers = exec.workers.min(tasks - 1);
    {
        let mut tickets = lock(&exec.shared.tickets);
        for _ in 0..helpers {
            tickets.push_back(Arc::clone(&call) as Arc<dyn Claimable>);
        }
    }
    for _ in 0..helpers {
        exec.shared.ready.notify_one();
    }
    call.run_claimed();

    let results = {
        let mut progress = lock(&call.progress);
        while progress.left > 0 {
            progress = call
                .finished
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut progress.results)
    };
    // Every task has finished, so nothing reads the body again; drop it
    // here so the caller's shared inputs are unique once more. (A
    // worker's leftover ticket may keep the emptied record alive a
    // little longer.)
    drop(
        call.body
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take(),
    );
    let mut out = Vec::with_capacity(tasks);
    let mut panicked = None;
    for slot in results {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(payload)) => {
                panicked.get_or_insert(payload);
            }
            // `left == 0` means every slot was filled.
            None => {}
        }
    }
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    out
}

thread_local! {
    /// This thread's resident values: one per type, plus one more for
    /// each nested borrow of that type that has happened.
    // alloc-ok: const-initialised empty list, allocation-free.
    static RESIDENT: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Lends `f` this thread's resident `T`, creating it with
/// [`Default`] on the thread's first use and keeping it for the next
/// call. Workers live for the process, so their resident values are
/// built once; the same holds for any long-lived calling thread.
///
/// Re-entrant: a nested call for the same `T` (a task run while the
/// outer value is lent out) gets a fresh value of its own. A panic in
/// `f` discards the value.
// alloc-ok(fn): the boxed value is built once per thread and type; warm
// calls move the same box out of and back into a capacity-warm list.
pub fn with_resident<T: Default + 'static, R>(f: impl FnOnce(&mut T) -> R) -> R {
    let taken = RESIDENT.with(|slots| {
        let mut slots = slots.borrow_mut();
        let at = slots.iter().position(|s| s.is::<T>())?;
        slots.swap_remove(at).downcast::<T>().ok()
    });
    let mut value = taken.unwrap_or_default();
    let out = f(&mut value);
    RESIDENT.with(|slots| slots.borrow_mut().push(value));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_tasks(37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert!(run_tasks(0, |i| i).is_empty());
        assert_eq!(run_tasks(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn body_is_dropped_before_return() {
        let shared = Arc::new(vec![1u64, 2, 3]);
        let captured = Arc::clone(&shared);
        let sums = run_tasks(8, move |i| captured.iter().sum::<u64>() + i as u64);
        assert_eq!(sums[7], 13);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn first_panic_reaches_the_caller_and_the_pool_survives() {
        let caught = catch_unwind(|| {
            run_tasks(16, |i| {
                assert!(i != 3 && i != 9, "task {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the task panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "task 3 failed");
        assert_eq!(run_tasks(16, |i| i).len(), 16);
    }

    #[test]
    fn nested_calls_complete() {
        let out = run_tasks(4, |i| {
            run_tasks(4, move |j| i * 4 + j).iter().sum::<usize>()
        });
        assert_eq!(out, vec![6, 22, 38, 54]);
    }

    #[test]
    fn resident_values_persist_per_thread_and_nest() {
        with_resident(|v: &mut Vec<u8>| v.clear());
        with_resident(|v: &mut Vec<u8>| v.push(1));
        let len = with_resident(|v: &mut Vec<u8>| {
            v.push(2);
            // A nested borrow of the same type gets its own value.
            let inner = with_resident(|w: &mut Vec<u8>| w.len());
            assert_eq!(inner, 0);
            v.len()
        });
        assert_eq!(len, 2);
    }
}
