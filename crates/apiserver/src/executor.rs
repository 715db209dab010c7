//! Parallel shard executor: a persistent worker pool, thread-per-shard up
//! to a configurable cap.
//!
//! Namespace shards are structurally independent (PR 2), which makes them
//! the unit of parallelism: a mutation batch that spans namespaces can run
//! each shard's slice on its own worker thread, with the coordinator thread
//! only assigning global commit tickets in arrival order and merging the
//! per-shard outcomes in a deterministic (shard-name) order.
//!
//! The executor is deliberately dumb: it knows nothing about stores or
//! shards, only how to map `Send` work items across up to `threads` worker
//! threads. Determinism falls out of the structure around it — each item is
//! a whole shard (so per-shard event order is the ticket order the
//! coordinator assigned), items never share state, and results come back in
//! item order regardless of which thread ran them or how they interleaved.
//!
//! Workers are *pooled*: they are spawned lazily on the first batch that
//! needs more than one lane, then parked on their per-lane channels between
//! batches. A pump loop committing thousands of small cross-namespace
//! batches pays the thread-spawn cost once, not once per batch. Resizing
//! the cap (or dropping the executor) drains the channels and joins every
//! worker; a single-lane batch never touches the pool at all.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Environment variable configuring the shard worker cap for a process.
///
/// Accepts a positive integer, or `max` / `0` for the machine's available
/// parallelism. Unset or unparsable values mean 1 (inline execution), which
/// keeps tests and single-threaded tools deterministic-by-default.
pub const SHARD_THREADS_ENV: &str = "DSPACE_SHARD_THREADS";

/// A unit of pooled work: one lane's item slice, type-erased so the same
/// long-lived worker can serve batches of any item/result type.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One parked worker: its job channel plus the handle to join on shutdown.
#[derive(Debug)]
struct Worker {
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// The persistent lane workers. Lane 0 is always the coordinator thread,
/// so a pool serving `threads` lanes holds `threads - 1` workers.
#[derive(Debug)]
struct WorkerPool {
    workers: Vec<Worker>,
    /// Live worker threads; each worker decrements it on exit, so tests
    /// can observe that a dropped pool joined cleanly.
    live: Arc<AtomicUsize>,
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            workers: Vec::new(),
            live: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Grows the pool to at least `n` workers (never shrinks; shrinking
    /// happens by dropping the whole pool on a cap change).
    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (tx, rx) = mpsc::channel::<Job>();
            let live = Arc::clone(&self.live);
            live.fetch_add(1, Ordering::SeqCst);
            let handle = std::thread::Builder::new()
                .name(format!("dspace-shard-{}", self.workers.len() + 1))
                .spawn(move || {
                    // Park on the channel between batches; a dropped sender
                    // is the shutdown signal.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                })
                .expect("spawn shard worker");
            self.workers.push(Worker {
                tx,
                handle: Some(handle),
            });
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close every channel first so all workers unpark, then join.
        for w in &mut self.workers {
            let (closed, _) = mpsc::channel::<Job>();
            w.tx = closed;
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                h.join().expect("shard worker panicked");
            }
        }
    }
}

/// Maps work items across up to a fixed number of worker threads.
///
/// With more items than threads, items are multiplexed round-robin onto the
/// workers (item `i` runs on lane `i % workers`), each lane running its
/// items in order. With `threads <= 1` (or a single item) everything runs
/// inline on the caller's thread — no pool, no channels, and trivially
/// bit-identical to the multi-threaded schedule because items are
/// independent.
#[derive(Debug)]
pub struct ShardExecutor {
    threads: usize,
    /// Lazily created on the first multi-lane batch; parked between
    /// batches; dropped (joining its threads) on resize and on drop.
    pool: Option<WorkerPool>,
}

impl Default for ShardExecutor {
    fn default() -> Self {
        ShardExecutor::new(1)
    }
}

impl ShardExecutor {
    /// Creates an executor with a worker cap (clamped to at least 1). No
    /// threads are spawned until a batch actually needs them.
    pub fn new(threads: usize) -> Self {
        ShardExecutor {
            threads: threads.max(1),
            pool: None,
        }
    }

    /// Creates an executor from [`SHARD_THREADS_ENV`] (default: 1).
    pub fn from_env() -> Self {
        let threads = match std::env::var(SHARD_THREADS_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("max") || v == "0" => available_parallelism(),
            Ok(v) => v.parse().unwrap_or(1),
            Err(_) => 1,
        };
        ShardExecutor::new(threads)
    }

    /// The worker cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Changes the worker cap (clamped to at least 1). The existing pool is
    /// shut down — every worker joins — and a right-sized one is built
    /// lazily on the next multi-lane batch.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.threads {
            self.threads = threads;
            self.pool = None;
        }
    }

    /// Number of pooled worker threads currently alive (0 while the pool
    /// is cold). Diagnostics/bench: `> 0` means the pool is warm.
    pub fn pooled_workers(&self) -> usize {
        self.pool
            .as_ref()
            .map(|p| p.live.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Runs `work` over every item, returning results in item order.
    ///
    /// Items are distributed round-robin over `min(threads, items)` lanes;
    /// lane 0 runs on the calling thread, so a single-lane run touches
    /// neither the pool nor any channel (and never spawns).
    pub fn run<T, R, F>(&mut self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.into_iter().map(work).collect();
        }
        let mut lanes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            lanes[i % workers].push((i, item));
        }
        let pool = self.pool.get_or_insert_with(WorkerPool::new);
        pool.ensure(workers - 1);
        let work = Arc::new(work);
        let (done_tx, done_rx) = mpsc::channel::<Vec<(usize, R)>>();
        let mut rest = lanes.drain(1..);
        for worker in &pool.workers[..workers - 1] {
            let lane = rest.next().expect("one lane per dispatched worker");
            let work = Arc::clone(&work);
            let done = done_tx.clone();
            let job: Job = Box::new(move || {
                let out: Vec<(usize, R)> =
                    lane.into_iter().map(|(i, item)| (i, work(item))).collect();
                let _ = done.send(out);
            });
            worker.tx.send(job).expect("shard worker channel open");
        }
        drop(done_tx);
        drop(rest);
        // Lane 0 runs here: the coordinator thread is a worker too.
        let mut indexed: Vec<(usize, R)> = Vec::new();
        for (i, item) in lanes.remove(0) {
            indexed.push((i, work(item)));
        }
        for _ in 0..workers - 1 {
            indexed.extend(done_rx.recv().expect("shard worker panicked"));
        }
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    #[cfg(test)]
    fn liveness_handle(&mut self) -> Arc<AtomicUsize> {
        Arc::clone(&self.pool.get_or_insert_with(WorkerPool::new).live)
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 4, 8] {
            let mut ex = ShardExecutor::new(threads);
            let items: Vec<usize> = (0..37).collect();
            let out = ex.run(items, |i| i * 2);
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        let mut ex = ShardExecutor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(ex.run(empty, |i| i).is_empty());
        assert_eq!(ex.run(vec![7u32], |i| i + 1), vec![8]);
        // Inline runs never warm the pool.
        assert_eq!(ex.pooled_workers(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let ex = ShardExecutor::new(0);
        assert_eq!(ex.threads(), 1);
    }

    #[test]
    fn mutating_owned_state_is_safe_per_lane() {
        // Each item owns its state; workers only touch disjoint items.
        let mut ex = ShardExecutor::new(4);
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i]).collect();
        let out = ex.run(items, |mut v| {
            v.push(v[0] * 10);
            v
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i as u64, i as u64 * 10]);
        }
    }

    /// Runs a batch and records which thread served each item.
    fn thread_ids(ex: &mut ShardExecutor, items: usize) -> Vec<ThreadId> {
        ex.run((0..items).collect(), |_| std::thread::current().id())
    }

    #[test]
    fn pool_reuses_the_same_threads_across_batches() {
        let mut ex = ShardExecutor::new(3);
        let first = thread_ids(&mut ex, 12);
        assert_eq!(ex.pooled_workers(), 2, "two workers beside the caller");
        let second = thread_ids(&mut ex, 12);
        // Item i runs on lane i % workers, and each lane is pinned to one
        // pooled thread: the schedule is identical batch over batch.
        assert_eq!(first, second, "lanes must stay pinned to their threads");
        let distinct: HashSet<ThreadId> = first.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "3 lanes on 3 distinct threads");
        assert!(
            first.contains(&std::thread::current().id()),
            "lane 0 runs on the coordinator"
        );
    }

    #[test]
    fn drop_joins_all_workers() {
        let mut ex = ShardExecutor::new(4);
        let _ = thread_ids(&mut ex, 8);
        let live = ex.liveness_handle();
        assert_eq!(live.load(Ordering::SeqCst), 3);
        drop(ex);
        // Drop joins synchronously, so by now every worker has exited.
        assert_eq!(live.load(Ordering::SeqCst), 0, "drop must join workers");
    }

    #[test]
    fn resize_shuts_down_and_rebuilds_the_pool() {
        let mut ex = ShardExecutor::new(4);
        let _ = thread_ids(&mut ex, 8);
        let live = ex.liveness_handle();
        assert_eq!(live.load(Ordering::SeqCst), 3);
        ex.set_threads(2);
        assert_eq!(live.load(Ordering::SeqCst), 0, "resize joins old workers");
        assert_eq!(ex.pooled_workers(), 0, "pool is cold after resize");
        let ids = thread_ids(&mut ex, 8);
        let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "rebuilt at the new cap");
        assert_eq!(ex.pooled_workers(), 1);
    }
}
