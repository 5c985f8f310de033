//! The parallelism primitives of the evaluation engine's cell scheduler.
//!
//! The pipeline has exactly one level of parallelism: the engine fans the
//! independent `(workload, strategy)` cells of an evaluation matrix out
//! over its workers, and every stage inside a cell runs serially. That
//! fan-out follows one discipline: **fan out over independent jobs, then
//! merge in a deterministic order that does not depend on execution
//! interleaving**. This crate provides the building block:
//!
//! - [`parallel_map_seeded`] — an index-ordered parallel map over a
//!   work-stealing queue (each worker owns a deque seeded with the jobs
//!   the caller homes on it, pops locally from the front and steals from
//!   other workers' backs when its own runs dry): results come back in
//!   job-index order regardless of which worker ran which job, so callers
//!   get scheduling-independent output for free.
//!
//! [`Parallelism`] carries a thread-count knob through configuration
//! structs whose derived `Debug` rendering doubles as a cache
//! fingerprint: its `Debug` output is a constant, because the thread
//! count must never change *what* is computed, only *how fast*.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// A thread-count knob, carried by `nimage_core::BuildOptions::threads`.
///
/// No pipeline stage reads it: the engine's cell scheduler is the only
/// fan-out, and takes its worker count from `EngineOptions::n_threads`.
/// The `Debug` rendering is a constant so that embedding a `Parallelism`
/// in a fingerprinted options struct (whose `Debug` output feeds the
/// content keys of the artifact cache) does not perturb cache keys.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Single-threaded execution (the default).
    pub const fn serial() -> Parallelism {
        Parallelism(1)
    }

    /// An explicit thread count.
    pub const fn threads(n: usize) -> Parallelism {
        Parallelism(n)
    }

    /// The raw knob value.
    pub const fn raw(self) -> usize {
        self.0
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::serial()
    }
}

impl fmt::Debug for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Constant on purpose — see the type docs. Do NOT include
        // `self.0` here: it would split cache keys by thread count.
        f.write_str("Parallelism(..)")
    }
}

/// Measured work-size cutoffs below which a fan-out loses to a plain
/// serial loop.
///
/// [`workers_for`] applies them: under the cutoff it returns 1, making the
/// "parallel" path literally the serial path (`parallel_map_seeded` with
/// one worker is a plain loop), so a sub-1× speedup is impossible by
/// construction.
///
/// Every cutoff here is crossed by some bundled workload (pinned by
/// `core/tests/determinism.rs::live_cutoffs`); a fan-out no workload
/// reaches is deleted rather than kept behind a cutoff, and so is one
/// that cannot pay. Trace replay has no cutoff because it is a serial
/// memoised scan whose whole cost (≈ 0.8 ms on the largest small-scale
/// trace) is below what splitting it could save. Compilation and shard
/// pre-lowering have none because they no longer fan out: nested under
/// the engine's cell scheduler they put up to four threads on two cores,
/// and making both serial took `awfy_vm`'s `pass_ms` down by about 11 %
/// (DESIGN.md §11).
pub mod cutoff {
    /// Eval-matrix cells: minimum (strategy, workload) cells before the
    /// engine shards them over its workers. A cell is milliseconds of
    /// work, so two cells already amortize a spawn.
    pub const RUN_MIN_CELLS: usize = 2;
}

/// The host's available parallelism (cached after the first query;
/// at least 1).
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves the worker count for a fan-out given its work size: `threads`
/// when `work` is at or above the fan-out's measured cutoff, else 1 (the
/// serial path). See [`cutoff`] for the thresholds and their provenance.
///
/// The result is additionally capped at [`host_parallelism`]: a thread
/// count above the hardware's cannot run concurrently, so the extra
/// workers are pure spawn-and-contend overhead — on a single-CPU host
/// every "parallel" arm would otherwise hover at ~1× minus noise.
pub fn workers_for(threads: usize, work: usize, min_work: usize) -> usize {
    if work < min_work {
        1
    } else {
        threads.min(host_parallelism()).max(1)
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A work-stealing job queue: each worker owns a deque seeded with its
/// share of the jobs, pops locally from the front and steals from other
/// workers' backs when its own runs dry.
struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Creates a queue with one deque per worker.
    fn new(n_workers: usize) -> StealQueue {
        StealQueue {
            deques: (0..n_workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    /// Appends a job to `worker`'s own deque.
    fn seed(&self, worker: usize, job: usize) {
        lock_unpoisoned(&self.deques[worker]).push_back(job);
    }

    /// Takes the next job for `worker`: its own front, else a steal from
    /// another worker's back, else `None` (all deques dry).
    fn pop(&self, worker: usize) -> Option<usize> {
        if let Some(j) = lock_unpoisoned(&self.deques[worker]).pop_front() {
            return Some(j);
        }
        let n = self.deques.len();
        for victim in (worker + 1..n).chain(0..worker) {
            if let Some(j) = lock_unpoisoned(&self.deques[victim]).pop_back() {
                return Some(j);
            }
        }
        None
    }
}

/// Runs `f(0..n_jobs)` across up to `threads` workers and returns the
/// results in job-index order. Job `j` is seeded onto worker
/// `home(j) % n_workers` (in job order), and stealing rebalances from
/// there. The seeding decides only which jobs tend to run next to each
/// other — results are still in job-index order and every job still runs
/// exactly once, whatever `home` returns. With `threads <= 1` (or fewer
/// than two jobs) this degenerates to a plain serial loop, so the serial
/// and parallel paths share one code path and trivially agree.
///
/// The output order — and therefore everything a caller derives from it —
/// is independent of scheduling; determinism of a parallel stage reduces
/// to the purity of `f`.
pub fn parallel_map_seeded<T, H, F>(threads: usize, n_jobs: usize, home: H, f: F) -> Vec<T>
where
    T: Send,
    H: Fn(usize) -> usize,
    F: Fn(usize) -> T + Sync,
{
    let n_workers = threads.clamp(1, n_jobs.max(1));
    if n_workers <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let queue = StealQueue::new(n_workers);
    for j in 0..n_jobs {
        queue.seed(home(j) % n_workers, j);
    }
    // Mutex-of-Option slots rather than OnceLock: they only need `T: Send`,
    // and each slot is written exactly once (its job runs on one worker).
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let (queue, slots_ref, f) = (&queue, &slots, &f);
    std::thread::scope(|scope| {
        for w in 0..n_workers {
            scope.spawn(move || {
                while let Some(j) = queue.pop(w) {
                    *lock_unpoisoned(&slots_ref[j]) = Some(f(j));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| lock_unpoisoned(&s).take().expect("every seeded job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_debug_is_thread_count_invariant() {
        assert_eq!(
            format!("{:?}", Parallelism::serial()),
            format!("{:?}", Parallelism::threads(8)),
            "Debug doubles as a cache fingerprint and must not leak the knob"
        );
        assert_eq!(Parallelism::default().raw(), 1);
        assert_eq!(Parallelism::threads(3).raw(), 3);
    }

    #[test]
    fn steal_queue_drains_own_then_steals() {
        let q = StealQueue::new(2);
        q.seed(0, 10);
        q.seed(0, 11);
        q.seed(1, 20);
        assert_eq!(q.pop(0), Some(10), "own deque pops front");
        assert_eq!(q.pop(1), Some(20));
        assert_eq!(q.pop(1), Some(11), "steals from the other worker's back");
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for threads in [1, 2, 8] {
            let out = parallel_map_seeded(threads, 100, |j| j, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once_in_index_order_under_any_seeding() {
        // Identity seeding, then constant, striding, reversed
        // and far-out-of-range homes (reduced modulo the worker count).
        let homes: [fn(usize) -> usize; 5] =
            [|j| j, |_| 0, |j| j / 8, |j| 63 - j, |j| usize::MAX - j];
        for home in homes {
            for threads in [1, 2, 3, 8] {
                let calls: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
                let out = parallel_map_seeded(threads, 64, home, |j| {
                    calls[j].fetch_add(1, Ordering::Relaxed);
                    j * 3
                });
                assert_eq!(out, (0..64).map(|j| j * 3).collect::<Vec<_>>());
                assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map_seeded(8, 0, |j| j, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_seeded(8, 1, |j| j, |i| i + 1), vec![1]);
    }

    #[test]
    fn workers_for_applies_cutoff() {
        let cap = host_parallelism();
        assert!(cap >= 1);
        assert_eq!(workers_for(4, 7, 8), 1, "under cutoff: serial");
        assert_eq!(workers_for(4, 8, 8), 4.min(cap), "at cutoff: parallel");
        assert_eq!(workers_for(4, 1_000_000, 8), 4.min(cap));
        assert_eq!(workers_for(1, 1_000_000, 8), 1, "threads=1 stays serial");
        assert_eq!(workers_for(4, 0, 0), 4.min(cap), "zero cutoff never gates");
    }

    #[test]
    fn workers_for_never_exceeds_the_host() {
        for threads in [1, 2, 64, 4096] {
            assert!(workers_for(threads, usize::MAX, 0) <= host_parallelism());
        }
    }
}
