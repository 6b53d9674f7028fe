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
//! Worker count resolution, in priority order:
//!
//! 1. an explicit process-wide override installed with [`set_jobs`]
//!    (the `--jobs N` flag of `aiacc-sim` and `repro`),
//! 2. the `AIACC_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! # Example
//! ```
//! use aiacc_simnet::par;
//! // Results arrive in submission order regardless of worker interleaving.
//! let squares = par::map_indexed(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide worker-count override; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `0` clears) a process-wide worker-count override that
/// takes precedence over `AIACC_JOBS` and the detected CPU count.
///
/// Calling this is optional: it exists so CLI `--jobs N` flags and tests can
/// steer the fan-out without touching the environment. Changing the worker
/// count never changes results — only how long they take.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`map`] uses: the [`set_jobs`] override if installed,
/// else `AIACC_JOBS`, else the machine's available parallelism (at least 1).
pub fn jobs() -> usize {
    let over = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();
    *ENV_DEFAULT.get_or_init(|| {
        std::env::var("AIACC_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Runs `f(0..n)` on up to `jobs` workers of the shared persistent pool
/// ([`crate::pool`]) and returns the results **in index order**. With
/// `jobs <= 1` (or fewer than two items) everything runs inline on the
/// caller's thread — the parallel and serial paths produce identical output
/// by construction, because each slot `i` holds exactly `f(i)` either way.
///
/// Work is claimed dynamically in chunks (an atomic cursor advanced
/// `chunk` indices at a time), so stragglers don't serialize the batch and
/// tiny jobs don't thrash the cursor; determinism is unaffected because
/// execution order never feeds back into any result. If the pool is
/// already owned by an enclosing fan-out, the whole map runs inline, so
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
    crate::pool::run(workers, &|_w| loop {
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

/// Runs `f(i, &mut items[i])` for every item on up to `jobs` workers of the
/// shared pool and returns the results **in index order** — the in-place
/// counterpart of [`map_indexed`] for coarse items that own their output
/// (one gradient buffer per training worker, one block of a reduction).
/// Each item is visited exactly once, by one thread, so results depend on
/// neither the worker count nor the interleaving. Runs inline when
/// `jobs <= 1`, for fewer than two items, or when the pool is busy.
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
    // threads through its mutex and the pool's completion wait.
    let next = AtomicUsize::new(0);
    let lanes: Vec<Mutex<(&mut T, Option<R>)>> =
        items.iter_mut().map(|t| Mutex::new((t, None))).collect();
    crate::pool::run(workers, &|_w| loop {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_arrive_in_submission_order() {
        // Make early jobs the slowest so workers finish out of order.
        let out = map_indexed(16, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i as u64) * 50));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let f = |i: usize| (i as f64).sqrt() * 3.0 + i as f64;
        let serial = map_indexed(33, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(map_indexed(33, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
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
        let result = std::panic::catch_unwind(|| {
            map_indexed(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
