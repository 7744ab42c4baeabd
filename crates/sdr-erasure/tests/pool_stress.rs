//! Stress tests for the persistent [`EncodePool`]: concurrent submits
//! from many threads, worker panic containment, and clean drop/shutdown
//! with work still queued.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sdr_erasure::{encode_parallel_into, EncodeJob, EncodePool, ErasureCode, ReedSolomon, XorCode};

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
