//! Persistent GF(256) worker pool.
//!
//! The paper hides erasure encoding behind data injection by running it on
//! spare CPU cores (§4.1.2, Fig 11). PR 1 made the per-call kernels fast;
//! this module removes the *dispatch* cost: [`encode_parallel_into`]
//! (crate::encode_parallel_into) used to spawn fresh `std::thread::scope`
//! threads per submessage, paying thread creation + teardown on every
//! 2 MiB encode. The [`EncodePool`] keeps long-lived workers blocked on a
//! channel instead, so dispatching a stripe costs one enqueue + wakeup.
//!
//! Its two users are the two ends of an EC transfer: the **sender** submits
//! each submessage's encode as an owned job, and the **receiver** stripes
//! each in-place decode across the same workers — the core the encode
//! leaves idle.
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!                 │                EncodePool                  │
//!   submit ──────▶│ channel ─▶ worker 0 ─┐  (long-lived,       │
//!   (owned job)   │         ─▶ worker 1 ─┤   blocked on recv)  │
//!   encode_striped│         ─▶   ...    ─┤                     │
//!   reconstruct_  │         ─▶ worker N ─┘                     │
//!   striped ─────▶│                │                           │
//!   (borrowed     │                │                           │
//!    stripes)     │                │                           │
//!                 └────────────────┼───────────────────────────┘
//!                                  ▼
//!            latch.complete() ──▶ caller wait()/wait_helping()
//! ```
//!
//! Two kinds of work share the workers:
//!
//! * **Borrowed stripes** ([`EncodePool::encode_striped`],
//!   [`EncodePool::reconstruct_striped`]): one column-stripe dispatcher
//!   splits the shard length, hands each stripe its columns of every
//!   output (parity, or the erased data shards), runs the first inline and
//!   sends the rest to the workers. The caller's borrows are erased to
//!   `'static` for the channel crossing and a latch guard guarantees every
//!   stripe finishes (even on unwind) before the borrows die — the same
//!   discipline `std::thread::scope` enforces, without the spawn.
//! * **Owned jobs** ([`EncodePool::submit`] → [`PendingEncode::wait`]): an
//!   async split for pipelining. The EC sender submits submessage *i+1*'s
//!   encode (buffers move into the job) and keeps injecting submessage *i*;
//!   `wait` returns the buffers once parity is computed.
//!
//! Waiters **help**: while blocked on a latch they drain queued tasks, so
//! nested dispatch (an owned job striping across the pool) cannot deadlock
//! even with a single worker. Workers catch panics per task — a poisoned
//! job reports at `wait`, a poisoned stripe re-raises on the caller once
//! every stripe has finished, and the pool stays usable (panic
//! containment).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};

use crate::codec::{decode_len, EcError, ErasureCode};
use crate::kernel::STRIP_BYTES;

/// Completion latch: counts outstanding tasks and records whether any of
/// them panicked.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    poisoned: bool,
}

impl Latch {
    fn new(tasks: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: tasks,
                poisoned: false,
            }),
            done: Condvar::new(),
        }
    }

    /// Registers one more outstanding task. Counting *up* at dispatch time
    /// (rather than reserving every slot in advance) means a panic between
    /// dispatches leaves the latch waiting only for tasks that actually
    /// exist — the unwind guard can never hang on phantom completions.
    fn add_task(&self) {
        self.state.lock().expect("latch mutex poisoned").remaining += 1;
    }

    /// Marks one task finished (`poisoned` when it panicked).
    fn complete(&self, poisoned: bool) {
        let mut st = self.state.lock().expect("latch mutex poisoned");
        st.remaining -= 1;
        st.poisoned |= poisoned;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Non-blocking completion check; `Some(poisoned)` when all done.
    fn try_done(&self) -> Option<bool> {
        let st = self.state.lock().expect("latch mutex poisoned");
        (st.remaining == 0).then_some(st.poisoned)
    }

    /// Blocks until all tasks finish, draining queued pool tasks while
    /// waiting (work-helping, which makes nested dispatch deadlock-free).
    /// Returns whether any task panicked.
    fn wait_helping(&self, core: &Arc<PoolCore>) -> bool {
        loop {
            if let Some(poisoned) = self.try_done() {
                return poisoned;
            }
            match core.rx.try_recv() {
                Ok(Task::Shutdown) => {
                    // A worker's shutdown sentinel; hand it back.
                    let _ = core.tx.send(Task::Shutdown);
                    std::thread::yield_now();
                }
                Ok(task) => run_task(core, task),
                Err(_) => {
                    let st = self.state.lock().expect("latch mutex poisoned");
                    if st.remaining > 0 {
                        // Short timeout: re-poll the queue so a task that
                        // lands while we hold no lock still gets helped.
                        let _ = self
                            .done
                            .wait_timeout(st, Duration::from_micros(200))
                            .expect("latch mutex poisoned");
                    }
                }
            }
        }
    }
}

/// An owned encode job: the erasure code plus the data and parity buffers,
/// moved into the pool for the duration of the encode and handed back by
/// [`PendingEncode::wait`].
pub struct EncodeJob {
    /// The code to encode with (`Arc` so jobs can cross threads while the
    /// caller keeps using the same instance).
    pub code: Arc<dyn ErasureCode>,
    /// `k` data shards (all the same length).
    pub data: Vec<Vec<u8>>,
    /// `m` parity shards (same length as the data shards; overwritten).
    pub parity: Vec<Vec<u8>>,
}

struct PendingSlot {
    latch: Latch,
    result: Mutex<Option<EncodeJob>>,
}

/// Handle to an in-flight [`EncodeJob`]. Dropping it without waiting is
/// allowed — the worker finishes the encode and discards the buffers.
pub struct PendingEncode {
    slot: Arc<PendingSlot>,
    core: Arc<PoolCore>,
}

impl PendingEncode {
    /// True once the encode has finished (never blocks).
    pub fn is_ready(&self) -> bool {
        self.slot.latch.try_done().is_some()
    }

    /// Blocks until the encode finishes and returns the job's buffers with
    /// parity computed. Helps drain the pool queue while waiting.
    ///
    /// # Panics
    /// Re-raises a worker panic (e.g. inconsistent shard shapes) on the
    /// caller; the pool itself stays usable.
    pub fn wait(self) -> EncodeJob {
        let poisoned = self.slot.latch.wait_helping(&self.core);
        let job = self
            .slot
            .result
            .lock()
            .expect("pending mutex poisoned")
            .take()
            .expect("worker stores the job before completing the latch");
        assert!(
            !poisoned,
            "EncodePool worker panicked while encoding a submitted job"
        );
        job
    }
}

struct ScopedTask {
    func: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

struct OwnedTask {
    job: EncodeJob,
    stripes: usize,
    slot: Arc<PendingSlot>,
}

enum Task {
    Scoped(ScopedTask),
    Owned(Box<OwnedTask>),
    Shutdown,
}

struct PoolCore {
    tx: Sender<Task>,
    rx: Receiver<Task>,
}

fn run_task(core: &Arc<PoolCore>, task: Task) {
    match task {
        Task::Scoped(t) => {
            let poisoned = catch_unwind(AssertUnwindSafe(t.func)).is_err();
            t.latch.complete(poisoned);
        }
        Task::Owned(t) => {
            let OwnedTask { job, stripes, slot } = *t;
            let EncodeJob { code, data, parity } = job;
            let poisoned = {
                let mut parity = parity;
                let res = catch_unwind(AssertUnwindSafe(|| {
                    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
                    let mut views: Vec<&mut [u8]> =
                        parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                    if stripes <= 1 {
                        code.encode_into(&refs, &mut views);
                    } else {
                        encode_striped_on(core, code.as_ref(), &refs, &mut views, stripes);
                    }
                }));
                *slot.result.lock().expect("pending mutex poisoned") =
                    Some(EncodeJob { code, data, parity });
                res.is_err()
            };
            slot.latch.complete(poisoned);
        }
        Task::Shutdown => unreachable!("shutdown handled by the worker loop"),
    }
}

/// One stripe's work: a column range of the sources, and the same range of
/// every output buffer.
type StripeWork<'a> = dyn Fn(Range<usize>, &mut [&mut [u8]]) + Sync + 'a;

/// The one column-stripe dispatcher, shared by the striped encode (outputs
/// = parity) and the striped decode (outputs = the erased data shards),
/// on the caller's thread and on workers running nested owned jobs alike:
/// carve `[0, len)` into `stripes` cache-line-aligned column stripes, hand
/// each its range of every output, dispatch all but the first to the pool,
/// run the first inline, and wait (helping) for the rest.
///
/// # Panics
/// Re-raises a stripe's panic once every dispatched stripe has finished.
fn stripe_on(
    core: &Arc<PoolCore>,
    len: usize,
    outs: &mut [&mut [u8]],
    stripes: usize,
    work: &StripeWork<'_>,
) {
    const STRIPE_ALIGN: usize = 64;
    let stripes = stripes.max(1);
    if stripes == 1 || len < stripes * STRIPE_ALIGN {
        work(0..len, outs);
        return;
    }

    // Carve [0, len) into `stripes` aligned stripes (last takes the tail).
    // The latch counts *up* as stripes are dispatched (`add_task`), so an
    // unwind mid-carving — e.g. a short output failing `split_at_mut` —
    // leaves the guard waiting only for stripes that were actually sent,
    // never on phantom completions.
    let base = len / stripes / STRIPE_ALIGN * STRIPE_ALIGN;
    let latch = Arc::new(Latch::new(0));
    let mut out_tails: Vec<&mut [u8]> = outs.iter_mut().map(|o| &mut **o).collect();

    // The latch guard: every dispatched stripe must finish before the
    // borrows die, even if the inline stripe below unwinds.
    struct WaitGuard<'a> {
        latch: &'a Latch,
        core: &'a Arc<PoolCore>,
    }
    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            self.latch.wait_helping(self.core);
        }
    }

    let mut inline: Option<(Range<usize>, Vec<&mut [u8]>)> = None;
    {
        let guard = WaitGuard {
            latch: &latch,
            core,
        };
        let mut offset = 0usize;
        for i in 0..stripes {
            let size = if i == stripes - 1 { len - offset } else { base };
            if size == 0 {
                continue;
            }
            let mut stripe_outs = Vec::with_capacity(out_tails.len());
            for v in out_tails.iter_mut() {
                let taken = std::mem::take(v);
                let (head, tail) = taken.split_at_mut(size);
                stripe_outs.push(head);
                *v = tail;
            }
            let cols = offset..offset + size;
            offset += size;
            if i == 0 {
                // First stripe runs inline on the caller (it is "thread 0"
                // of the requested width).
                inline = Some((cols, stripe_outs));
                continue;
            }
            let task_latch = latch.clone();
            latch.add_task();
            let func: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let mut outs = stripe_outs;
                work(cols, &mut outs);
            });
            // SAFETY: the closure borrows `work` (and through it the
            // caller's sources) and the output stripes, all outliving this
            // function body; the WaitGuard blocks (helping) until the
            // task's latch completes before any of those borrows can end —
            // the same guarantee `std::thread::scope` provides for its
            // spawns.
            let func: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(func) };
            assert!(
                core.tx
                    .send(Task::Scoped(ScopedTask {
                        func,
                        latch: task_latch,
                    }))
                    .is_ok(),
                "pool workers hold the receiver for the pool's lifetime"
            );
        }
        if let Some((cols, mut stripe_outs)) = inline.take() {
            // Inline stripe: runs on the caller, outside the latch. A
            // panic here unwinds through the guard, which drains the
            // dispatched stripes before the borrows are freed.
            work(cols, &mut stripe_outs);
        }
        drop(guard); // blocks until every stripe completes
    }
    let poisoned = latch.try_done().expect("guard waited");
    assert!(!poisoned, "EncodePool worker panicked in a column stripe");
}

/// The striped encode: [`stripe_on`] over the parity buffers.
fn encode_striped_on(
    core: &Arc<PoolCore>,
    code: &dyn ErasureCode,
    data: &[&[u8]],
    parity: &mut [&mut [u8]],
    stripes: usize,
) {
    let len = data.first().map_or(0, |d| d.len());
    assert!(data.iter().all(|d| d.len() == len), "ragged data shards");
    stripe_on(core, len, parity, stripes, &|cols, parity| {
        let data: Vec<&[u8]> = data.iter().map(|d| &d[cols.clone()]).collect();
        code.encode_into(&data, parity);
    });
}

/// A persistent pool of encode workers (the paper's spare-core model).
///
/// Workers live as long as the pool and block on a channel between jobs;
/// see the module docs for the dispatch paths. Dropping the pool drains
/// outstanding work, then shuts the workers down cleanly.
pub struct EncodePool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

impl EncodePool {
    /// Spawns a pool of `workers` (≥ 1) encode threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::unbounded();
        let core = Arc::new(PoolCore { tx, rx });
        let handles = (0..workers)
            .map(|_| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name("sdr-encode".into())
                    .spawn(move || worker_loop(&core))
                    .expect("spawn encode worker")
            })
            .collect();
        EncodePool {
            core,
            workers: handles,
        }
    }

    /// The process-wide shared pool, sized to the host's available
    /// parallelism (capped at 16).
    pub fn global() -> &'static EncodePool {
        static GLOBAL: OnceLock<EncodePool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            EncodePool::new(cores.min(16))
        })
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Submits an owned encode job; `stripes` > 1 additionally splits the
    /// shard length across the pool. Returns immediately — the caller
    /// overlaps other work and collects the buffers via
    /// [`PendingEncode::wait`].
    pub fn submit(&self, job: EncodeJob, stripes: usize) -> PendingEncode {
        let slot = Arc::new(PendingSlot {
            latch: Latch::new(1),
            result: Mutex::new(None),
        });
        assert!(
            self.core
                .tx
                .send(Task::Owned(Box::new(OwnedTask {
                    job,
                    stripes,
                    slot: slot.clone(),
                })))
                .is_ok(),
            "pool workers hold the receiver for the pool's lifetime"
        );
        PendingEncode {
            slot,
            core: self.core.clone(),
        }
    }

    /// Encodes `data` into caller-owned `parity` split column-wise into
    /// `stripes` stripes across the pool (first stripe inline on the
    /// caller). Blocks until the encode completes.
    ///
    /// # Panics
    /// Propagates worker panics and shape inconsistencies.
    pub fn encode_striped(
        &self,
        code: &dyn ErasureCode,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
        stripes: usize,
    ) {
        encode_striped_on(&self.core, code, data, parity, stripes);
    }

    /// [`ErasureCode::reconstruct_data`] split column-wise into `stripes`
    /// stripes across the pool (first stripe inline on the caller): the
    /// erased data shards are rebuilt straight into the caller's `missing`
    /// buffers. Blocks until every stripe is done.
    ///
    /// The shape and the erasure pattern are checked before any stripe
    /// starts, so nothing is written on `Err`.
    ///
    /// # Panics
    /// Re-raises a stripe's panic once every dispatched stripe has
    /// finished.
    pub fn reconstruct_striped(
        &self,
        code: &dyn ErasureCode,
        shards: &[Option<&[u8]>],
        missing: &mut [&mut [u8]],
        stripes: usize,
    ) -> Result<(), EcError> {
        let len = decode_len(shards, missing, code.data_shards(), code.total_shards())?;
        let present: Vec<bool> = shards.iter().map(Option::is_some).collect();
        if !code.can_recover(&present) {
            return Err(EcError::Unrecoverable);
        }
        stripe_on(&self.core, len, missing, stripes, &|cols, missing| {
            let shards: Vec<Option<&[u8]>> =
                shards.iter().map(|s| s.map(|s| &s[cols.clone()])).collect();
            code.reconstruct_data(&shards, missing)
                .expect("the erasure pattern was checked before striping")
        });
        Ok(())
    }

    /// The EC receiver's decode width for shards of `len` bytes: a stripe
    /// per worker, none narrower than one kernel strip.
    pub fn decode_stripes(&self, len: usize) -> usize {
        (len / STRIP_BYTES).clamp(1, self.size())
    }
}

impl Drop for EncodePool {
    fn drop(&mut self) {
        // FIFO channel: sentinels land behind all outstanding work, so
        // queued jobs finish before the workers exit.
        for _ in &self.workers {
            let _ = self.core.tx.send(Task::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(core: &Arc<PoolCore>) {
    while let Ok(task) = core.rx.recv() {
        if matches!(task, Task::Shutdown) {
            return;
        }
        run_task(core, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::ReedSolomon;

    fn job(k: usize, m: usize, len: usize) -> EncodeJob {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(k, m));
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let parity = vec![vec![0u8; len]; m];
        EncodeJob { code, data, parity }
    }

    #[test]
    fn owned_job_round_trips_buffers_with_parity() {
        let pool = EncodePool::new(2);
        let j = job(4, 2, 4096);
        let refs: Vec<&[u8]> = j.data.iter().map(|d| d.as_slice()).collect();
        let expect = j.code.encode(&refs);
        drop(refs);
        let done = pool.submit(j, 1).wait();
        assert_eq!(done.parity, expect);
    }

    #[test]
    fn striped_owned_job_matches_serial() {
        let pool = EncodePool::new(2);
        let j = job(6, 3, 64 * 1024 + 13);
        let refs: Vec<&[u8]> = j.data.iter().map(|d| d.as_slice()).collect();
        let expect = j.code.encode(&refs);
        drop(refs);
        let done = pool.submit(j, 4).wait();
        assert_eq!(done.parity, expect);
    }

    #[test]
    fn single_worker_pool_handles_nested_striping() {
        // One worker + nested dispatch: only the helping waiter prevents
        // deadlock here.
        let pool = EncodePool::new(1);
        let j = job(4, 2, 32 * 1024);
        let refs: Vec<&[u8]> = j.data.iter().map(|d| d.as_slice()).collect();
        let expect = j.code.encode(&refs);
        drop(refs);
        let done = pool.submit(j, 3).wait();
        assert_eq!(done.parity, expect);
    }

    #[test]
    fn pending_is_ready_eventually() {
        let pool = EncodePool::new(1);
        let pending = pool.submit(job(4, 2, 1024), 1);
        while !pending.is_ready() {
            std::thread::yield_now();
        }
        let done = pending.wait();
        assert_eq!(done.parity.len(), 2);
    }

    #[test]
    fn dropping_pending_does_not_hang_pool() {
        let pool = EncodePool::new(1);
        drop(pool.submit(job(4, 2, 1024), 1));
        // Pool still serves new jobs afterwards.
        let done = pool.submit(job(4, 2, 1024), 1).wait();
        assert_eq!(done.parity.len(), 2);
    }
}
