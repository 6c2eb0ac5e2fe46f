//! Persistent worker pool for the sharded executor.
//!
//! One OS thread per worker, each with its own job channel (job `k` of a
//! batch goes to worker `k % threads`). Jobs are type-erased
//! function-pointer calls over raw state pointers; the caller blocks
//! until every job of a batch completes (a `parking_lot` mutex + condvar
//! countdown), which is what makes the lifetime erasure sound: no job
//! pointer outlives the `run` call that lent it out.

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A type-erased unit of batch work: `run(state, ctx)`.
#[derive(Debug)]
pub(crate) struct Job {
    /// Monomorphized lane entry point (`shard::lane_job::<M, N>`).
    pub run: unsafe fn(*mut (), *const ()),
    /// Exclusive pointer to one lane's `Task<M, N>`.
    pub state: *mut (),
    /// Shared pointer to the batch's `TickCtx`.
    pub ctx: *const (),
}

// SAFETY: a Job is only constructed by the sharded core, which (a) requires
// `M: Send, N: Send` at construction time for any core that owns a pool
// and checks there that `Task<M, N>: Send` and `TickCtx: Sync`, (b) hands
// each task's pointer to exactly one job per batch, and (c) blocks on the
// countdown until every job returns, so the pointed-to task and ctx
// strictly outlive the worker's use of them.
unsafe impl Send for Job {}

/// Countdown the caller parks on while a batch is in flight.
type DoneGate = Arc<(Mutex<usize>, Condvar)>;

/// Fixed set of persistent workers executing [`Job`]s.
#[derive(Debug)]
pub(crate) struct ShardPool {
    txs: Vec<Sender<Job>>,
    done: DoneGate,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `threads` workers (at least one).
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let done: DoneGate = Arc::new((Mutex::new(0), Condvar::new()));
        let mut txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = unbounded::<Job>();
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                for job in rx.iter() {
                    // SAFETY: upheld by the Job construction contract above.
                    unsafe { (job.run)(job.state, job.ctx) };
                    let mut remaining = done.0.lock();
                    *remaining -= 1;
                    if *remaining == 0 {
                        done.1.notify_one();
                    }
                }
            }));
            txs.push(tx);
        }
        ShardPool { txs, done, handles }
    }

    /// Worker count.
    pub(crate) fn threads(&self) -> usize {
        self.txs.len()
    }

    /// Dispatches `jobs` (job `k` to worker `k % threads`) and blocks
    /// until all of them have run.
    pub(crate) fn run(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        *self.done.0.lock() = jobs.len();
        for (k, job) in jobs.into_iter().enumerate() {
            self.txs[k % self.txs.len()]
                .send(job)
                .expect("pool worker alive while pool exists");
        }
        let mut remaining = self.done.0.lock();
        while *remaining > 0 {
            self.done.1.wait(&mut remaining);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // disconnect the channels so the worker loops terminate
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_job_and_blocks_until_done() {
        unsafe fn bump(state: *mut (), ctx: *const ()) {
            let slot = unsafe { &mut *(state as *mut u64) };
            let add = unsafe { &*(ctx as *const u64) };
            *slot += *add;
        }
        let pool = ShardPool::new(3);
        let mut slots = [0u64; 8];
        let add = 7u64;
        for _round in 0..5 {
            let jobs = slots
                .iter_mut()
                .map(|s| Job {
                    run: bump,
                    state: s as *mut u64 as *mut (),
                    ctx: &add as *const u64 as *const (),
                })
                .collect();
            pool.run(jobs);
        }
        assert!(slots.iter().all(|&s| s == 35));
    }
}
