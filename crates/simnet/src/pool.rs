//! `simnet::pool` — the process-wide persistent worker pool.
//!
//! Every fan-out in this repository runs on this one pool: sweeps of
//! independent simulations ([`crate::par::map`]) and the data-parallel
//! training step (worker shards, codecs and the ring fold, through
//! [`crate::par::map_mut`]). Threads are spawned lazily the first time a
//! width is requested and then parked on a condvar, so dispatching a
//! fan-out costs a mutex lock and a wake-up (microseconds), not a
//! `thread::spawn` per call.
//!
//! # Exclusivity: one fan-out at a time, by design
//!
//! The pool is deliberately *non-reentrant*: [`run`] hands the pool to one
//! fan-out at a time, and any [`run`] call that finds the pool busy (a
//! nested call from inside a worker, or a concurrent call from another
//! thread) executes its closure inline on the caller's thread instead. So
//! when `par::map` is fanning simulation cells across N workers, a training
//! step inside one cell runs serially: N busy threads total, never N×M.
//!
//! # Determinism contract
//!
//! [`run`] guarantees only that `f(w)` is called exactly once for every
//! `w in 0..workers`, by *some* thread, with all calls returning before
//! [`run`] does. Which OS thread runs which index, and in what real-time
//! order, is unspecified — callers must make worker identity and execution
//! order feed back into nothing (claim work through an atomic cursor,
//! write results into per-index slots, commit in a canonical order
//! afterwards). Every caller in this crate follows that shape, which is why
//! worker count changes wall-clock time and not a single output byte.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One posted fan-out: the erased closure plus completion bookkeeping.
struct Job {
    /// Monotonic id so a worker never runs the same job twice.
    gen: u64,
    /// The caller's closure, lifetime-erased. Valid until every index has
    /// been run and [`run`] observes completion — workers only dereference
    /// it inside `f(w)` calls, all of which happen-before that observation.
    f: ErasedFn,
    /// Number of logical worker indices in this fan-out.
    workers: usize,
    /// Next unclaimed worker index.
    next: AtomicUsize,
    /// Completed index count + first panic payload, under the done lock.
    done: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    /// Signaled when the last index completes.
    done_cv: Condvar,
}

/// A lifetime-erased `&(dyn Fn(usize) + Sync)`.
///
/// The `'static` is a lie told to the type system (see [`erase`]): the
/// pointee lives exactly until [`run`] returns, and [`run`] does not
/// return until every dereference has happened-before it. The `Sync`
/// bound was checked at [`run`]'s signature, so sharing across pool
/// threads is sound; `Send`/`Sync` then come for free (`&T: Send + Sync`
/// where `T: Sync`).
type ErasedFn = &'static (dyn Fn(usize) + Sync);

/// Erases the caller-stack lifetime of a fan-out closure.
///
/// # Safety
/// The returned reference must not be dereferenced after the closure's
/// real lifetime ends. [`run`] upholds this: it blocks until all `f(w)`
/// calls complete and clears the postbox before returning, and parked
/// workers never dereference a job they have already seen.
#[allow(unsafe_code)]
fn erase(f: &(dyn Fn(usize) + Sync)) -> ErasedFn {
    unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedFn>(f) }
}

/// The pool: a postbox the dispatcher drops jobs into and workers watch.
struct Pool {
    /// The currently posted job, if any.
    postbox: Mutex<Option<Arc<Job>>>,
    /// Signaled when a new job is posted.
    posted: Condvar,
    /// Parked pool threads spawned so far (grown lazily by [`run`]).
    threads: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();
/// Whether a fan-out currently owns the pool (see module docs).
static BUSY: AtomicBool = AtomicBool::new(false);
/// Monotonic job id source.
static NEXT_GEN: AtomicUsize = AtomicUsize::new(1);

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        postbox: Mutex::new(None),
        posted: Condvar::new(),
        threads: Mutex::new(0),
    })
}

/// Claims and runs indices of `job` until the cursor is exhausted,
/// recording completions (and the first panic) in the job's done state.
/// Both the dispatching thread and pool threads drive jobs through this
/// one function, so an index is never skipped even if no pool thread
/// wakes in time — whoever is awake claims the remainder.
fn drive(job: &Job) {
    loop {
        let w = job.next.fetch_add(1, Ordering::Relaxed);
        if w >= job.workers {
            return;
        }
        let f = job.f;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(w)));
        let mut done = job.done.lock().expect("pool done lock poisoned");
        if let Err(payload) = result {
            if done.1.is_none() {
                done.1 = Some(payload);
            }
        }
        done.0 += 1;
        if done.0 == job.workers {
            job.done_cv.notify_all();
        }
    }
}

/// Body of one parked pool thread: wait for an unseen job, help drive it,
/// repeat forever. Threads never exit; a handful of parked threads is the
/// price of nanosecond dispatch.
fn worker_loop() {
    let pool = pool();
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut slot = pool.postbox.lock().expect("pool postbox poisoned");
            loop {
                match slot.as_ref() {
                    Some(job) if job.gen != last_gen => break Arc::clone(job),
                    _ => slot = pool.posted.wait(slot).expect("pool postbox poisoned"),
                }
            }
        };
        last_gen = job.gen;
        drive(&job);
    }
}

/// Ensures at least `n` pool threads exist.
fn ensure_threads(n: usize) {
    let pool = pool();
    let mut count = pool.threads.lock().expect("pool thread count poisoned");
    while *count < n {
        std::thread::Builder::new()
            .name(format!("aiacc-pool-{count}"))
            .spawn(worker_loop)
            .expect("spawning a pool worker");
        *count += 1;
    }
}

/// Runs `f(w)` exactly once for every `w in 0..workers`, returning after
/// all calls complete. The caller's thread participates (it drives indices
/// alongside the pool threads), so `run(1, f)` — or any call finding the
/// pool busy — degenerates to an inline loop with zero dispatch cost.
///
/// # Panics
/// If any `f(w)` panics, the panic is resumed on the caller's thread after
/// every other index has finished (results are never silently dropped
/// mid-fan-out).
pub fn run(workers: usize, f: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 {
        for w in 0..workers {
            f(w);
        }
        return;
    }
    if BUSY.swap(true, Ordering::Acquire) {
        // A nested call from inside a worker, or a concurrent fan-out
        // elsewhere: run inline. Exactly the same calls happen, just on this
        // one thread, and a panic waits for every other index as it does on
        // the pool.
        let mut first_panic = None;
        for w in 0..workers {
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(w))) {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        return;
    }
    // Drop-guard so the lease is released even if we unwind.
    struct Lease;
    impl Drop for Lease {
        fn drop(&mut self) {
            BUSY.store(false, Ordering::Release);
        }
    }
    let _lease = Lease;
    ensure_threads(workers - 1);
    let job = Arc::new(Job {
        gen: NEXT_GEN.fetch_add(1, Ordering::Relaxed) as u64,
        f: erase(f),
        workers,
        next: AtomicUsize::new(0),
        done: Mutex::new((0, None)),
        done_cv: Condvar::new(),
    });
    let pool = pool();
    {
        let mut slot = pool.postbox.lock().expect("pool postbox poisoned");
        *slot = Some(Arc::clone(&job));
        pool.posted.notify_all();
    }
    // Help out: claim indices until the cursor runs dry...
    drive(&job);
    // ...then wait for in-flight indices on other threads.
    let mut done = job.done.lock().expect("pool done lock poisoned");
    while done.0 < job.workers {
        done = job.done_cv.wait(done).expect("pool done lock poisoned");
    }
    let payload = done.1.take();
    drop(done);
    {
        // Clear the postbox (if a later fan-out has not already replaced
        // it) so the erased closure pointer never outlives this call.
        let mut slot = pool.postbox.lock().expect("pool postbox poisoned");
        if slot.as_ref().is_some_and(|j| j.gen == job.gen) {
            *slot = None;
        }
    }
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_runs_exactly_once() {
        for workers in [1, 2, 3, 8, 17] {
            let hits: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
            run(workers, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {w} of {workers}");
            }
        }
    }

    #[test]
    fn nested_fanout_runs_inline() {
        let total = AtomicU64::new(0);
        run(4, &|_| {
            // The outer fan-out holds the lease, so this runs inline on
            // whichever thread drives it — no deadlock, same call count.
            run(3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn repeated_fanouts_reuse_threads() {
        for round in 0..200u64 {
            let sum = AtomicU64::new(0);
            run(4, &|w| {
                sum.fetch_add(round + w as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4 * round + 6);
        }
    }

    #[test]
    fn worker_panic_propagates_after_completion() {
        let survivors = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, &|w| {
                if w == 2 {
                    panic!("boom");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(survivors.load(Ordering::Relaxed), 3);
    }
}
