//! Persistent GF(256) worker pool.
//!
//! The paper hides erasure encoding behind data injection by running it on
//! spare CPU cores (§4.1.2, Fig 11). The [`EncodePool`] keeps long-lived
//! workers blocked on a channel, so handing them work costs one enqueue +
//! wakeup, not a thread spawn.
//!
//! Its two users are the two ends of an EC transfer: the **sender** submits
//! each submessage's encode as an owned job, and the **receiver** stripes
//! each in-place decode across the same workers — the core the encode
//! leaves idle.
//!
//! ```text
//!                  ┌───────────────────────────────────────────┐
//!   submit ───────▶│ task = boxed closure + latch              │
//!   (one task per  │ channel ─▶ worker 0 ─┐  (long-lived,      │
//!    owned job)    │         ─▶ worker 1 ─┤   blocked on recv) │
//!   encode_striped │         ─▶   ...    ─┤                    │
//!   reconstruct_   │         ─▶ worker N ─┘                    │
//!   striped ──────▶│                │                          │
//!   (one task per  │                │                          │
//!    stripe)       └────────────────┼──────────────────────────┘
//!                                   ▼
//!             latch.complete() ──▶ caller wait()/wait_helping()
//! ```
//!
//! The workers run one kind of task: a boxed closure and the latch it
//! completes. Two entry points build them:
//!
//! * [`EncodePool::submit`] → [`PendingEncode::wait`]: an async split for
//!   pipelining. The task owns an [`EncodeJob`] (its two buffers move into
//!   it); the EC sender submits submessage *i+1*'s encode and keeps
//!   injecting submessage *i*, and `wait` returns the buffers once parity
//!   is computed.
//! * Column stripes ([`EncodePool::encode_striped`],
//!   [`EncodePool::reconstruct_striped`]): one dispatcher splits the shard
//!   length, hands each stripe its columns of every output (parity, or the
//!   erased data shards), runs the first inline and sends the rest to the
//!   workers. The caller's borrows are erased to `'static` for the channel
//!   crossing and a latch guard guarantees every stripe finishes (even on
//!   unwind) before the borrows die — the same discipline
//!   `std::thread::scope` enforces, without the spawn.
//!
//! Waiters **help**: while blocked on a latch they run queued tasks
//! themselves, so a caller waiting on its own stripes never waits behind
//! busy workers — with a 1-worker pool busy on a parity job, a decode's
//! stripes still finish, on the caller's thread. Workers catch panics per
//! task — a poisoned job reports at `wait`, a poisoned stripe re-raises on
//! the caller once every stripe has finished, and the pool stays usable
//! (panic containment).

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

    /// Blocks until all tasks finish, running queued pool tasks while
    /// waiting (work-helping: the caller never waits behind busy workers
    /// for tasks it could run itself). Returns whether any task panicked.
    fn wait_helping(&self, core: &PoolCore) -> bool {
        loop {
            if let Some(poisoned) = self.try_done() {
                return poisoned;
            }
            match core.rx.try_recv() {
                Ok(Some(task)) => task.run(),
                Ok(None) => {
                    // A worker's shutdown sentinel; hand it back.
                    let _ = core.tx.send(None);
                    std::thread::yield_now();
                }
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

/// An owned encode job: the erasure code plus one submessage's data and
/// parity, each one flat buffer of rows [`EncodeJob::stride`] apart, moved
/// into the pool for the duration of the encode and handed back by
/// [`PendingEncode::wait`].
pub struct EncodeJob {
    /// The code to encode with (`Arc` so jobs can cross threads while the
    /// caller keeps using the same instance).
    pub code: Arc<dyn ErasureCode>,
    /// The `k` data shards of `len` bytes, shard `i` at `i·stride(len)`.
    pub data: Vec<u8>,
    /// The `m` parity shards, laid out as `data` (overwritten).
    pub parity: Vec<u8>,
}

/// What a row of an [`EncodeJob`] holds beyond its shard.
const ROW_PAD: usize = 64;

impl EncodeJob {
    /// Bytes from one row's start to the next for shards of `len` bytes:
    /// one cache line more than `len`. Rows a power of two apart (64 KiB
    /// chunks back to back) put a column's `k + m` bytes in one cache set,
    /// where the fused kernel's loads evict each other: MDS(32,8) on
    /// 64 KiB shards then encodes ≈ 25 % slower than at this stride (GFNI
    /// tier, 2-vCPU Xeon).
    pub const fn stride(len: usize) -> usize {
        len + ROW_PAD
    }

    /// Encodes the data rows into the parity rows.
    ///
    /// # Panics
    /// When the buffers are not `k` and `m` rows of one stride.
    fn encode(&mut self) {
        let (k, m) = (self.code.data_shards(), self.code.parity_shards());
        let stride = self.data.len() / k;
        assert!(
            stride >= ROW_PAD && self.data.len() == k * stride && self.parity.len() == m * stride,
            "EncodeJob buffers are not k and m rows of one stride"
        );
        let len = stride - ROW_PAD;
        let data: Vec<&[u8]> = self.data.chunks_exact(stride).map(|r| &r[..len]).collect();
        let rows = self.parity.chunks_exact_mut(stride);
        let mut parity: Vec<&mut [u8]> = rows.map(|r| &mut r[..len]).collect();
        self.code.encode_into(&data, &mut parity);
    }
}

/// Handle to an in-flight [`EncodeJob`]. Dropping it without waiting is
/// allowed — the worker finishes the encode and discards the buffers.
pub struct PendingEncode {
    latch: Arc<Latch>,
    job: Arc<Mutex<Option<EncodeJob>>>,
    core: Arc<PoolCore>,
}

impl PendingEncode {
    /// True once the encode has finished (never blocks).
    pub fn is_ready(&self) -> bool {
        self.latch.try_done().is_some()
    }

    /// Blocks until the encode finishes and returns the job's buffers with
    /// parity computed. Helps drain the pool queue while waiting.
    ///
    /// # Panics
    /// Re-raises a worker panic (e.g. inconsistent shard shapes) on the
    /// caller; the pool itself stays usable.
    pub fn wait(self) -> EncodeJob {
        let poisoned = self.latch.wait_helping(&self.core);
        assert!(
            !poisoned,
            "EncodePool worker panicked while encoding a submitted job"
        );
        let job = self.job.lock().expect("pending mutex poisoned").take();
        job.expect("the task stores the job before completing the latch")
    }
}

/// The one kind of pool work: a closure and the latch it completes.
struct Task {
    func: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

impl Task {
    /// Runs the closure, catching a panic, and completes the latch.
    fn run(self) {
        let poisoned = catch_unwind(AssertUnwindSafe(self.func)).is_err();
        self.latch.complete(poisoned);
    }
}

/// The channel both ends share: a worker (or a helping waiter) receives
/// tasks, `None` is a worker's shutdown sentinel.
struct PoolCore {
    tx: Sender<Option<Task>>,
    rx: Receiver<Option<Task>>,
}

impl PoolCore {
    fn send(&self, task: Task) {
        assert!(
            self.tx.send(Some(task)).is_ok(),
            "pool workers hold the receiver for the pool's lifetime"
        );
    }
}

/// One stripe's work: a column range of the sources, and the same range of
/// every output buffer.
type StripeWork<'a> = dyn Fn(Range<usize>, &mut [&mut [u8]]) + Sync + 'a;

/// The one column-stripe dispatcher, shared by the striped encode (outputs
/// = parity) and the striped decode (outputs = the erased data shards):
/// carve `[0, len)` into `stripes` cache-line-aligned column stripes, hand
/// each its range of every output, dispatch all but the first to the pool,
/// run the first inline, and wait (helping) for the rest.
///
/// # Panics
/// Re-raises a stripe's panic once every dispatched stripe has finished.
fn stripe_on(
    core: &PoolCore,
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
        core: &'a PoolCore,
    }
    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            self.latch.wait_helping(self.core);
        }
    }

    let guard = WaitGuard {
        latch: &latch,
        core,
    };
    let mut inline = None;
    let mut offset = 0usize;
    for i in 0..stripes {
        let size = if i == stripes - 1 { len - offset } else { base };
        if size == 0 {
            continue;
        }
        let mut stripe_outs = Vec::with_capacity(out_tails.len());
        for v in out_tails.iter_mut() {
            let (head, tail) = std::mem::take(v).split_at_mut(size);
            stripe_outs.push(head);
            *v = tail;
        }
        let cols = offset..offset + size;
        offset += size;
        if i == 0 {
            // First stripe runs inline on the caller (it is "thread 0" of
            // the requested width).
            inline = Some((cols, stripe_outs));
            continue;
        }
        latch.add_task();
        let func: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let mut outs = stripe_outs;
            work(cols, &mut outs);
        });
        // SAFETY: the closure borrows `work` (and through it the caller's
        // sources) and the output stripes, all outliving this function
        // body; the WaitGuard blocks (helping) until the task's latch
        // completes before any of those borrows can end — the same
        // guarantee `std::thread::scope` provides for its spawns.
        let func: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(func) };
        core.send(Task {
            func,
            latch: latch.clone(),
        });
    }
    if let Some((cols, mut stripe_outs)) = inline {
        // Inline stripe: runs on the caller, outside the latch. A panic
        // here unwinds through the guard, which drains the dispatched
        // stripes before the borrows are freed.
        work(cols, &mut stripe_outs);
    }
    drop(guard); // blocks until every stripe completes
    let poisoned = latch.try_done().expect("guard waited");
    assert!(!poisoned, "EncodePool worker panicked in a column stripe");
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

    /// Submits an owned encode job: one task that encodes the job's data
    /// rows into its parity rows. Returns immediately — the caller
    /// overlaps other work and collects the buffers via
    /// [`PendingEncode::wait`].
    pub fn submit(&self, job: EncodeJob) -> PendingEncode {
        let latch = Arc::new(Latch::new(1));
        let slot = Arc::new(Mutex::new(None));
        let out = slot.clone();
        self.core.send(Task {
            func: Box::new(move || {
                let mut job = job;
                job.encode();
                *out.lock().expect("pending mutex poisoned") = Some(job);
            }),
            latch: latch.clone(),
        });
        PendingEncode {
            latch,
            job: slot,
            core: self.core.clone(),
        }
    }

    /// Encodes `data` into caller-owned `parity` split column-wise into
    /// `stripes` stripes across the pool (first stripe inline on the
    /// caller) — Figure 11's multi-threaded encode. Parity is written
    /// strictly in place; shards shorter than one cache line per stripe
    /// encode on the caller alone. Blocks until the encode completes.
    ///
    /// # Panics
    /// When the shard counts or lengths are inconsistent (checked before
    /// any stripe starts), and re-raises a stripe's panic once every
    /// dispatched stripe has finished.
    pub fn encode_striped(
        &self,
        code: &dyn ErasureCode,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
        stripes: usize,
    ) {
        assert_eq!(data.len(), code.data_shards());
        assert_eq!(parity.len(), code.parity_shards());
        let len = data.first().map_or(0, |d| d.len());
        assert!(data.iter().all(|d| d.len() == len), "ragged data shards");
        assert!(
            parity.iter().all(|p| p.len() == len),
            "ragged parity shards"
        );
        stripe_on(&self.core, len, parity, stripes, &|cols, parity| {
            let data: Vec<&[u8]> = data.iter().map(|d| &d[cols.clone()]).collect();
            code.encode_into(&data, parity);
        });
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
            let _ = self.core.tx.send(None);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(core: &PoolCore) {
    while let Ok(Some(task)) = core.rx.recv() {
        task.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::ReedSolomon;

    fn job(k: usize, m: usize, len: usize) -> EncodeJob {
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(k, m));
        let stride = EncodeJob::stride(len);
        let data = (0..k * stride).map(|j| ((j / stride * 31 + j * 7) % 256) as u8);
        EncodeJob {
            code,
            data: data.collect(),
            parity: vec![0u8; m * stride],
        }
    }

    /// The job's data rows, and their serial encode.
    fn rows_and_parity(j: &EncodeJob) -> (Vec<&[u8]>, Vec<Vec<u8>>) {
        let stride = j.data.len() / j.code.data_shards();
        let len = stride - ROW_PAD;
        let rows: Vec<&[u8]> = j.data.chunks_exact(stride).map(|r| &r[..len]).collect();
        let parity = j.code.encode(&rows);
        (rows, parity)
    }

    /// The parity rows of a finished job.
    fn parity_rows(j: &EncodeJob) -> Vec<&[u8]> {
        let stride = j.parity.len() / j.code.parity_shards();
        j.parity
            .chunks_exact(stride)
            .map(|r| &r[..stride - ROW_PAD])
            .collect()
    }

    #[test]
    fn owned_job_round_trips_buffers_with_parity() {
        let pool = EncodePool::new(2);
        let j = job(4, 2, 4096);
        let expect = rows_and_parity(&j).1;
        let (data, parity) = (j.data.as_ptr(), j.parity.as_ptr());
        let done = pool.submit(j).wait();
        assert_eq!(parity_rows(&done), expect);
        // The same two buffers come back: nothing was reallocated.
        assert_eq!((done.data.as_ptr(), done.parity.as_ptr()), (data, parity));
    }

    #[test]
    fn pending_is_ready_eventually() {
        let pool = EncodePool::new(1);
        let pending = pool.submit(job(4, 2, 1024));
        while !pending.is_ready() {
            std::thread::yield_now();
        }
        let done = pending.wait();
        assert_eq!(parity_rows(&done).len(), 2);
    }

    #[test]
    fn dropping_pending_does_not_hang_pool() {
        let pool = EncodePool::new(1);
        drop(pool.submit(job(4, 2, 1024)));
        // Pool still serves new jobs afterwards.
        let done = pool.submit(job(4, 2, 1024)).wait();
        assert_eq!(parity_rows(&done).len(), 2);
    }

    /// The one worker holds a task for up to 10 s: a striped caller that
    /// runs its own queued stripes returns while the worker still holds.
    #[test]
    fn busy_single_worker_cannot_stall_a_striped_caller() {
        use std::sync::mpsc;
        let pool = EncodePool::new(1);
        let (started_tx, started) = mpsc::channel();
        let (release, held) = mpsc::channel::<()>();
        pool.core.send(Task {
            func: Box::new(move || {
                started_tx.send(()).expect("the test waits for the start");
                let _ = held.recv_timeout(Duration::from_secs(10));
            }),
            latch: Arc::new(Latch::new(1)),
        });
        // Once the worker holds, the queue has only the caller's stripes.
        started.recv().expect("the worker runs the holding task");
        let j = job(4, 2, 32 * 1024);
        let (refs, expect) = rows_and_parity(&j);
        let mut parity = vec![vec![0u8; 32 * 1024]; 2];
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        pool.encode_striped(j.code.as_ref(), &refs, &mut views, 3);
        assert!(
            release.send(()).is_ok(),
            "the stripes waited for the worker"
        );
        assert_eq!(parity, expect);
    }
}
