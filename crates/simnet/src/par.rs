//! `aiacc-par`: a deterministic fan-out runner for independent simulations.
//!
//! Every sweep in this repository — figure generators, the batched
//! auto-tuner, ablations — evaluates *independent, fully-seeded*
//! simulations. Each job is a pure function of its input, so executing the
//! jobs on N worker threads and collecting results **in submission order**
//! yields output bit-identical to a serial run: parallelism changes only
//! wall-clock time, never a single byte of any table or report. This is the
//! same argument the paper makes for filling idle link capacity with
//! concurrent gradient streams, applied to our own harness (see
//! `DESIGN.md`, "Deterministic parallel execution").
//!
//! The worker count is the process-wide override installed with
//! [`set_jobs`] (the `--jobs N` flag of `aiacc-sim` and `repro`), else
//! [`std::thread::available_parallelism`].
//!
//! # One fan-out at a time
//!
//! A fan-out spawns `workers − 1` scoped threads and the caller's thread
//! joins them in claiming work, so no thread outlives the call. Only one
//! fan-out runs at a time in the process: a fan-out that finds another one
//! running — a nested call from inside a worker, or a concurrent call from
//! another thread — runs inline on its caller's thread instead. So when
//! [`map`] fans simulation cells across N workers, a training step inside
//! one cell runs serially: N busy threads in total, never N×M. Which thread
//! runs which index is unspecified, so every caller claims work through an
//! atomic cursor and writes results into per-index slots; that is why the
//! worker count changes wall-clock time and not a single output byte.
//!
//! # Example
//! ```
//! use aiacc_simnet::par;
//! // Results arrive in submission order regardless of worker interleaving.
//! let squares = par::map_indexed(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide worker-count override; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `0` clears) a process-wide worker-count override that
/// takes precedence over the detected CPU count.
///
/// Calling this is optional: it exists so CLI `--jobs N` flags and tests can
/// steer the fan-out. Changing the worker count never changes results —
/// only how long they take.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`map`] uses: the [`set_jobs`] override if installed,
/// else the machine's available parallelism (at least 1).
pub fn jobs() -> usize {
    let over = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f(0..n)` on up to `jobs` threads and returns the results **in
/// index order**. With `jobs <= 1` (or fewer than two items) everything
/// runs inline on the caller's thread — the parallel and serial paths
/// produce identical output by construction, because each slot `i` holds
/// exactly `f(i)` either way.
///
/// Work is claimed dynamically in chunks (an atomic cursor advanced
/// `chunk` indices at a time), so stragglers don't serialize the batch and
/// tiny jobs don't thrash the cursor; determinism is unaffected because
/// execution order never feeds back into any result. If another fan-out is
/// already running (see the module docs), the whole map runs inline, so
/// nested fan-outs never oversubscribe the machine.
///
/// # Panics
/// Panics if `f` panics for any index (worker panics propagate to the
/// caller once the fan-out completes).
pub fn map_indexed<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Chunked claiming: aim for ~8 claims per worker so dynamic balancing
    // survives while cursor traffic stays negligible for large `n`.
    let chunk = (n / (workers * 8)).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    fan_out(workers, &|_w| loop {
        let lo = next.fetch_add(chunk, Ordering::Relaxed);
        if lo >= n {
            break;
        }
        let hi = (lo + chunk).min(n);
        for (i, slot) in slots.iter().enumerate().take(hi).skip(lo) {
            let result = f(i);
            *slot.lock().expect("result slot poisoned") = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
        .collect()
}

/// Runs `f(i, &mut items[i])` for every item on up to `jobs` threads and
/// returns the results **in index order** — the in-place counterpart of
/// [`map_indexed`] for coarse items that own their output (one gradient
/// buffer per training worker, one block of a reduction).
/// Each item is visited exactly once, by one thread, so results depend on
/// neither the worker count nor the interleaving. Runs inline when
/// `jobs <= 1`, for fewer than two items, or when another fan-out is
/// running.
///
/// # Panics
/// Panics if `f` panics for any index, once every other index has run.
pub fn map_mut<T, R, F>(items: &mut [T], jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // The cursor only hands out indices; each lane's data passes between
    // threads through its mutex and the fan-out's thread joins.
    let next = AtomicUsize::new(0);
    let lanes: Vec<Mutex<(&mut T, Option<R>)>> =
        items.iter_mut().map(|t| Mutex::new((t, None))).collect();
    fan_out(workers, &|_w| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let mut lane = lanes[i].lock().expect("lane poisoned by a panicking worker");
        let (item, out) = &mut *lane;
        *out = Some(f(i, item));
    });
    lanes
        .into_iter()
        .map(|m| {
            m.into_inner().expect("lane poisoned by a panicking worker").1.expect("every lane ran")
        })
        .collect()
}

/// Maps `f` over `items` with the ambient worker count ([`jobs`]), returning
/// results in item order. The convenience form every sweep uses.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), jobs(), |i| f(&items[i]))
}

/// Whether a fan-out is running somewhere in the process (the lease that
/// makes nested and concurrent fan-outs run inline; see the module docs).
static BUSY: AtomicBool = AtomicBool::new(false);

/// Calls `f(w)` exactly once for every `w in 0..workers` and returns after
/// every call has. Holding the [`BUSY`] lease, it spawns `workers − 1`
/// scoped threads and drives indices on the caller's thread too; without
/// the lease it runs every index inline.
///
/// # Panics
/// If any `f(w)` panics, the first panic is resumed on the caller's thread
/// once every other index has finished.
fn fan_out(workers: usize, f: &(dyn Fn(usize) + Sync)) {
    /// Releases the lease even if the fan-out unwinds.
    struct Lease;
    impl Drop for Lease {
        fn drop(&mut self) {
            BUSY.store(false, Ordering::Release);
        }
    }
    let next = AtomicUsize::new(0);
    let first_panic = Mutex::new(None);
    let drive = || loop {
        let w = next.fetch_add(1, Ordering::Relaxed);
        if w >= workers {
            return;
        }
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(w))) {
            first_panic.lock().expect("panic slot poisoned").get_or_insert(payload);
        }
    };
    if BUSY.swap(true, Ordering::Acquire) {
        drive();
    } else {
        let _lease = Lease;
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(drive);
            }
            drive();
        });
    }
    if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::MutexGuard;

    /// Serializes the tests that fan out. The [`BUSY`] lease is process
    /// global, so a fan-out in one test would otherwise change whether a
    /// concurrent test's map takes the lease or runs inline.
    fn lease_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let _lease = lease_lock();
        // Make early jobs the slowest so workers finish out of order.
        let out = map_indexed(16, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i as u64) * 50));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let _lease = lease_lock();
        let f = |i: usize| (i as f64).sqrt() * 3.0 + i as f64;
        let serial = map_indexed(33, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(map_indexed(33, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let _lease = lease_lock();
        let count = AtomicU32::new(0);
        let out = map_indexed(100, 8, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_borrows_items() {
        let _lease = lease_lock();
        let items = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens = map(&items, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn override_takes_precedence() {
        // Save/restore around the assertion: other tests read the override.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn map_mut_visits_each_item_once_in_place() {
        let _lease = lease_lock();
        for jobs in [1, 2, 4, 16] {
            let mut items: Vec<u64> = (0..11).collect();
            let out = map_mut(&mut items, jobs, |i, v| {
                *v *= 3;
                i as u64 + *v
            });
            assert_eq!(items, (0..11).map(|v| v * 3).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(out, (0..11).map(|i| i * 4).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert!(map_mut(&mut [] as &mut [u8], 4, |_, _| ()).is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let _lease = lease_lock();
        // Every other index still runs before the panic reaches the caller,
        // on the threads of a fan-out and inline inside another fan-out.
        let survivors = |inline: bool| {
            let count = AtomicU32::new(0);
            let run = || {
                let indexed = std::panic::catch_unwind(|| {
                    map_indexed(8, 4, |i| {
                        assert!(i != 5, "boom");
                        count.fetch_add(1, Ordering::Relaxed);
                    })
                });
                let mut items = [0u8; 8];
                let in_place = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    map_mut(&mut items, 4, |i, _| {
                        assert!(i != 2, "boom");
                        count.fetch_add(1, Ordering::Relaxed);
                    })
                }));
                assert!(indexed.is_err() && in_place.is_err());
            };
            if inline {
                map_indexed(2, 2, |i| {
                    if i == 0 {
                        run()
                    }
                });
            } else {
                run();
            }
            count.load(Ordering::Relaxed)
        };
        assert_eq!(survivors(false), 14, "fanned out");
        assert_eq!(survivors(true), 14, "inline");
    }

    #[test]
    fn nested_fanout_runs_inline() {
        let _lease = lease_lock();
        // The outer fan-out holds the lease, so each inner map runs inline
        // on the thread that runs its outer item: no deadlock, no extra
        // threads, same call count. The sleep gives spawned threads time to
        // claim inner items, were any spawned.
        let inner_calls = AtomicU32::new(0);
        map_indexed(4, 4, |_| {
            let outer = std::thread::current().id();
            let inner = map_indexed(3, 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                inner_calls.fetch_add(1, Ordering::Relaxed);
                std::thread::current().id()
            });
            assert!(inner.iter().all(|&id| id == outer), "inner call left its outer thread");
        });
        assert_eq!(inner_calls.load(Ordering::Relaxed), 12);
    }
}
