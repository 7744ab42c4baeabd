//! Persistent GF(256) worker pool.
//!
//! The paper hides erasure encoding behind data injection by running it on
//! spare CPU cores (§4.1.2, Fig 11). The [`EncodePool`] keeps long-lived
//! workers blocked on a channel, so handing them work costs one enqueue +
//! wakeup, not a thread spawn.
//!
//! Its two users are the two ends of an EC transfer, and both stripe the
//! work column-wise across the workers, in place in node memory: the
//! **sender** encodes a submessage's parity when its parity submessage
//! opens, and the **receiver** rebuilds a submessage's missing data chunks.
//!
//! ```text
//!                  ┌───────────────────────────────────────────┐
//!   encode_striped │ task = boxed closure + latch              │
//!   reconstruct_   │ channel ─▶ worker 0 ─┐  (long-lived,      │
//!   striped ──────▶│         ─▶ worker 1 ─┤   blocked on recv) │
//!   (one task per  │         ─▶   ...    ─┤                    │
//!    stripe but    │         ─▶ worker N ─┘                    │
//!    the first)    └────────────────┼──────────────────────────┘
//!                                   ▼
//!             latch.complete() ──▶ caller wait_helping()
//! ```
//!
//! The workers run one kind of task: a boxed closure and the latch it
//! completes. One dispatcher builds them for both entry points
//! ([`EncodePool::encode_striped`], [`EncodePool::reconstruct_striped`]):
//! it splits the shard length, hands each stripe its columns of every
//! output (parity, or the erased data shards), runs the first inline and
//! sends the rest to the workers. The caller's borrows are erased to
//! `'static` for the channel crossing and a latch guard guarantees every
//! stripe finishes (even on unwind) before the borrows die — the same
//! discipline `std::thread::scope` enforces, without the spawn.
//!
//! Waiters **help**: while blocked on a latch they run queued tasks
//! themselves, so a caller waiting on its own stripes never waits behind
//! busy workers — with a 1-worker pool busy on another caller's stripe,
//! a decode's stripes still finish, on the caller's thread. Workers catch
//! panics per task — a poisoned stripe re-raises on the caller once every
//! stripe has finished, and the pool stays usable (panic containment).

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

    /// The EC stack's stripe width for shards of `len` bytes, encode and
    /// decode alike: a stripe per worker, none narrower than one kernel
    /// strip.
    pub fn stripes(&self, len: usize) -> usize {
        (len / STRIP_BYTES).clamp(1, self.size())
    }
}

impl Drop for EncodePool {
    fn drop(&mut self) {
        // FIFO channel: sentinels land behind all outstanding work, so
        // queued tasks finish before the workers exit.
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

    /// The serial encode of RS(k, m) over patterned `len`-byte shards.
    fn shards_and_parity(
        k: usize,
        m: usize,
        len: usize,
    ) -> (ReedSolomon, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let code = ReedSolomon::new(k, m);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = code.encode(&refs);
        (code, data, parity)
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
        let (code, data, expect) = shards_and_parity(4, 2, 32 * 1024);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; 32 * 1024]; 2];
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        pool.encode_striped(&code, &refs, &mut views, 3);
        assert!(
            release.send(()).is_ok(),
            "the stripes waited for the worker"
        );
        assert_eq!(parity, expect);
    }

    /// Dropping the pool with a backlog of queued tasks runs the backlog
    /// (FIFO shutdown sentinels) and joins every worker without hanging.
    #[test]
    fn drop_with_queued_work_shuts_down_cleanly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = EncodePool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(16));
        let (code, data, expect) = shards_and_parity(4, 2, 16 * 1024);
        let code = Arc::new(code);
        for _ in 0..16 {
            let (code, data, expect, ran) =
                (code.clone(), data.clone(), expect.clone(), ran.clone());
            pool.core.send(Task {
                func: Box::new(move || {
                    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    assert_eq!(code.encode(&refs), expect);
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
                latch: latch.clone(),
            });
        }
        drop(pool); // runs the backlog, then joins the worker
        assert_eq!(ran.load(Ordering::SeqCst), 16, "every queued task ran");
        assert_eq!(latch.try_done(), Some(false), "and none panicked");
    }
}
