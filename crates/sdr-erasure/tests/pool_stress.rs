//! Stress tests for the persistent [`EncodePool`]: concurrent submits
//! from many threads, worker panic containment (owned jobs and the column
//! stripes the striped encode and decode share), and clean drop/shutdown
//! with work still queued.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sdr_erasure::{
    encode_parallel_into, EcError, EncodeJob, EncodePool, ErasureCode, ReedSolomon, XorCode,
};

fn job_with_len(code: Arc<dyn ErasureCode>, len: usize, seed: usize) -> EncodeJob {
    let k = code.data_shards();
    let m = code.parity_shards();
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 31 + j * 7 + seed * 131) % 256) as u8)
                .collect()
        })
        .collect();
    let parity = vec![vec![0u8; len]; m];
    EncodeJob { code, data, parity }
}

/// Many threads submitting owned jobs concurrently: every job's parity
/// must match its serial encode, with no cross-job corruption.
#[test]
fn concurrent_submits_from_many_threads() {
    let pool = Arc::new(EncodePool::new(3));
    let rs: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 3));
    let xor: Arc<dyn ErasureCode> = Arc::new(XorCode::new(8, 4));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let pool = pool.clone();
            let code: Arc<dyn ErasureCode> = if t % 2 == 0 { rs.clone() } else { xor.clone() };
            s.spawn(move || {
                for round in 0..24usize {
                    let seed = t * 1000 + round;
                    let j = job_with_len(code.clone(), 8 * 1024 + (round % 7) * 64, seed);
                    let refs: Vec<&[u8]> = j.data.iter().map(|d| d.as_slice()).collect();
                    let expect = j.code.encode(&refs);
                    drop(refs);
                    // Alternate striped and unstriped submissions.
                    let done = pool.submit(j, 1 + round % 3).wait();
                    assert_eq!(done.parity, expect, "t={t} round={round}");
                }
            });
        }
    });
}

/// Scoped (borrowed-stripe) dispatch racing owned jobs on the same pool.
#[test]
fn scoped_and_owned_work_interleave() {
    let pool = Arc::new(EncodePool::new(2));
    let rs = ReedSolomon::new(5, 2);
    let data: Vec<Vec<u8>> = (0..5)
        .map(|i| (0..96 * 1024).map(|j| ((i * 17 + j) % 256) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let expect = rs.encode(&refs);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let pool = pool.clone();
            let rs = &rs;
            let refs = &refs;
            let expect = &expect;
            s.spawn(move || {
                for _ in 0..8 {
                    let mut parity = vec![vec![0u8; 96 * 1024]; 2];
                    let mut views: Vec<&mut [u8]> =
                        parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                    pool.encode_striped(rs, refs, &mut views, 4);
                    drop(views);
                    assert_eq!(&parity, expect);
                }
            });
        }
    });
}

/// A job with inconsistent shapes panics inside the worker; the panic is
/// contained — reported at `wait()` — and the pool keeps serving.
#[test]
fn worker_panic_is_contained_and_pool_survives() {
    let pool = EncodePool::new(2);
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2));

    // Ragged parity: encode_into asserts inside the worker.
    let bad = EncodeJob {
        code: code.clone(),
        data: vec![vec![0u8; 1024]; 4],
        parity: vec![vec![0u8; 1024], vec![0u8; 512]],
    };
    let pending = pool.submit(bad, 1);
    let err = catch_unwind(AssertUnwindSafe(move || pending.wait()));
    assert!(err.is_err(), "poisoned job must re-raise at wait()");

    // The pool is still fully functional afterwards — repeatedly.
    for seed in 0..8 {
        let j = job_with_len(code.clone(), 4096, seed);
        let refs: Vec<&[u8]> = j.data.iter().map(|d| d.as_slice()).collect();
        let expect = j.code.encode(&refs);
        drop(refs);
        assert_eq!(pool.submit(j, 2).wait().parity, expect, "seed={seed}");
    }
}

/// The pooled `encode_parallel_into` propagates shape panics to the
/// caller (as a plain `encode_into` would) without wedging the
/// global pool for later calls.
#[test]
fn striped_shape_panic_propagates_and_pool_recovers() {
    let code = ReedSolomon::new(2, 1);
    let data: Vec<Vec<u8>> = vec![vec![1u8; 64 * 1024]; 2];
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let mut short = vec![0u8; 32];
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut views: Vec<&mut [u8]> = vec![short.as_mut_slice()];
        encode_parallel_into(&code, &refs, &mut views, 2);
    }));
    assert!(err.is_err());

    // Global pool still encodes correctly after the panic.
    let expect = code.encode(&refs);
    let mut parity = vec![vec![0u8; 64 * 1024]];
    {
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        encode_parallel_into(&code, &refs, &mut views, 2);
    }
    assert_eq!(parity, expect);
}

/// Dropping the pool with a backlog of queued jobs completes the backlog
/// (FIFO shutdown sentinels) and joins every worker without hanging.
#[test]
fn drop_with_queued_work_shuts_down_cleanly() {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2));
    let pool = EncodePool::new(1);
    let pendings: Vec<_> = (0..16)
        .map(|seed| {
            let j = job_with_len(code.clone(), 16 * 1024, seed);
            pool.submit(j, 1)
        })
        .collect();
    drop(pool); // waits for the backlog, then joins workers
    for (seed, p) in pendings.into_iter().enumerate() {
        assert!(p.is_ready(), "job {seed} completed before shutdown");
        let done = p.wait();
        assert_eq!(done.parity.len(), 2);
    }
}

/// A panic *during stripe carving* (short parity slice hitting
/// `split_at_mut` mid-carve) must propagate to the caller, not hang the
/// latch guard waiting on stripes that were never dispatched.
#[test]
fn carving_panic_propagates_instead_of_hanging() {
    let pool = EncodePool::new(1);
    let code = ReedSolomon::new(2, 1);
    let data: Vec<Vec<u8>> = vec![vec![7u8; 64 * 1024]; 2];
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    // Parity shorter than the shard length: the second stripe's
    // split_at_mut panics after stripe 0 was already dispatched.
    let mut short = vec![0u8; 40 * 1024];
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut views: Vec<&mut [u8]> = vec![short.as_mut_slice()];
        pool.encode_striped(&code, &refs, &mut views, 4);
    }));
    assert!(err.is_err(), "carving panic must propagate");
    // And the pool still works.
    let expect = code.encode(&refs);
    let mut parity = vec![vec![0u8; 64 * 1024]];
    {
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        pool.encode_striped(&code, &refs, &mut views, 2);
    }
    assert_eq!(parity, expect);
}

/// An RS code whose decode stripes are observable: the stripe starting at
/// column `boom_at` panics at once; every other stripe holds until the
/// test releases it (or 200 ms pass), then decodes and counts itself
/// finished. A caller that re-raised before waiting for them is back
/// while they still hold, and reads a short count. A stripe's first column
/// is read off the address of its first present shard (shard 1, whose
/// column 0 is at `base`).
struct StripeBomb {
    rs: ReedSolomon,
    base: usize,
    boom_at: usize,
    released: (Mutex<bool>, Condvar),
    finished: AtomicUsize,
}

impl StripeBomb {
    fn release(&self) {
        *self.released.0.lock().unwrap() = true;
        self.released.1.notify_all();
    }
}

impl ErasureCode for StripeBomb {
    fn data_shards(&self) -> usize {
        self.rs.data_shards()
    }

    fn parity_shards(&self) -> usize {
        self.rs.parity_shards()
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        self.rs.encode_into(data, parity)
    }

    fn encode_row(&self, data: &[&[u8]], row: usize, out: &mut [u8]) {
        self.rs.encode_row(data, row, out)
    }

    fn can_recover(&self, present: &[bool]) -> bool {
        self.rs.can_recover(present)
    }

    fn reconstruct_data(
        &self,
        shards: &[Option<&[u8]>],
        missing: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        let col = shards[1].expect("shard 1 is present").as_ptr() as usize - self.base;
        assert!(col != self.boom_at, "stripe at column {col} blew up");
        let (released, cv) = &self.released;
        let held = released.lock().unwrap();
        let _ = cv
            .wait_timeout_while(held, Duration::from_millis(200), |r| !*r)
            .unwrap();
        let res = self.rs.reconstruct_data(shards, missing);
        self.finished.fetch_add(1, Ordering::SeqCst);
        res
    }
}

/// A decode stripe that panics — the inline one on the caller, or one
/// dispatched to a worker — re-raises on the caller only once every other
/// stripe has finished (their output borrows end with the call), and the
/// pool then still serves owned encode jobs.
#[test]
fn decode_stripe_panic_reraises_after_every_stripe_finished() {
    const LEN: usize = 64 * 1024;
    const STRIPES: usize = 4;
    // A worker per dispatched stripe: the holding stripes must not keep
    // the bomb queued behind them.
    let pool = EncodePool::new(STRIPES - 1);
    let rs = ReedSolomon::new(4, 2);
    let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 * 3 + 1; LEN]).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let shards: Vec<Vec<u8>> = data.iter().cloned().chain(rs.encode(&refs)).collect();
    // Stripes start every LEN / STRIPES columns: 0 runs inline, the rest
    // are dispatched.
    for boom_at in [0, 2 * LEN / STRIPES] {
        let code = StripeBomb {
            rs: rs.clone(),
            base: shards[1].as_ptr() as usize,
            boom_at,
            released: (Mutex::new(false), Condvar::new()),
            finished: AtomicUsize::new(0),
        };
        let views: Vec<Option<&[u8]>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i != 0).then_some(s.as_slice()))
            .collect();
        let mut out = vec![0u8; LEN];
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.reconstruct_striped(&code, &views, &mut [&mut out[..]], STRIPES)
        }));
        let finished = code.finished.load(Ordering::SeqCst);
        code.release();
        assert!(err.is_err(), "stripe at {boom_at}: the panic must re-raise");
        assert_eq!(
            finished,
            STRIPES - 1,
            "stripe at {boom_at}: re-raised before the other stripes finished"
        );
        // Every stripe but the failed one rebuilt its columns.
        let failed = boom_at..boom_at + LEN / STRIPES;
        for (c, (&got, &want)) in out.iter().zip(&data[0]).enumerate() {
            if !failed.contains(&c) {
                assert_eq!(got, want, "stripe at {boom_at}: column {c}");
            }
        }
        // The pool still serves owned jobs.
        let code: Arc<dyn ErasureCode> = Arc::new(rs.clone());
        for seed in 0..4 {
            let j = job_with_len(code.clone(), 8 * 1024, seed);
            let refs: Vec<&[u8]> = j.data.iter().map(|d| d.as_slice()).collect();
            let expect = j.code.encode(&refs);
            drop(refs);
            assert_eq!(pool.submit(j, 2).wait().parity, expect, "seed={seed}");
        }
    }
}
