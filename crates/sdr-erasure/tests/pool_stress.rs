//! Stress tests for the persistent [`EncodePool`]: concurrent striped
//! encodes and decodes from many threads, worker panic containment (the
//! column stripes the striped encode and decode share), and shape panics
//! that must propagate instead of hanging.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use sdr_erasure::{EcError, EncodePool, ErasureCode, ReedSolomon, XorCode};

/// `k` patterned data shards of `len` bytes.
fn data_with_len(k: usize, len: usize, seed: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 31 + j * 7 + seed * 131) % 256) as u8)
                .collect()
        })
        .collect()
}

/// `code`'s parity over `data`, encoded through `pool` in `stripes`
/// column stripes.
fn striped_parity(
    pool: &EncodePool,
    code: &dyn ErasureCode,
    data: &[Vec<u8>],
    stripes: usize,
) -> Vec<Vec<u8>> {
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; data[0].len()]; code.parity_shards()];
    let mut views: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    pool.encode_striped(code, &refs, &mut views, stripes);
    parity
}

/// Many threads encoding and decoding column-striped on one pool at once:
/// every encode must match its serial encode and every decode must rebuild
/// the erased shard, with no cross-caller corruption.
#[test]
fn concurrent_submits_from_many_threads() {
    let pool = EncodePool::new(3);
    let rs = ReedSolomon::new(6, 3);
    let xor = XorCode::new(8, 4);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let pool = &pool;
            let code: &dyn ErasureCode = if t % 2 == 0 { &rs } else { &xor };
            s.spawn(move || {
                for round in 0..24usize {
                    let len = 8 * 1024 + (round % 7) * 64;
                    let data = data_with_len(code.data_shards(), len, t * 1000 + round);
                    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    let expect = code.encode(&refs);
                    let parity = striped_parity(pool, code, &data, 1 + round % 4);
                    assert_eq!(parity, expect, "t={t} round={round}");

                    // Erase data shard `round % k` and rebuild it striped.
                    let lost = round % code.data_shards();
                    let shards: Vec<Option<&[u8]>> = refs
                        .iter()
                        .copied()
                        .chain(parity.iter().map(Vec::as_slice))
                        .enumerate()
                        .map(|(i, s)| (i != lost).then_some(s))
                        .collect();
                    let mut out = vec![0u8; len];
                    pool.reconstruct_striped(code, &shards, &mut [&mut out[..]], 3)
                        .expect("one erasure is recoverable");
                    assert!(out == data[lost], "t={t} round={round}: rebuilt shard");
                }
            });
        }
    });
}

/// An RS code whose encode panics on every stripe but the one starting at
/// column 0 (read off the address of data shard 0, which starts at
/// `base`): every dispatched stripe blows up, whichever thread runs it,
/// and the inline one does not.
struct DispatchedBomb {
    rs: ReedSolomon,
    base: usize,
}

impl ErasureCode for DispatchedBomb {
    fn data_shards(&self) -> usize {
        self.rs.data_shards()
    }

    fn parity_shards(&self) -> usize {
        self.rs.parity_shards()
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        let col = data[0].as_ptr() as usize - self.base;
        assert!(col == 0, "the stripe at column {col} blew up");
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
        self.rs.reconstruct_data(shards, missing)
    }
}

/// Dispatched stripes that panic are contained by the task that ran them —
/// reported to the caller, who re-raises — and the pool keeps serving.
#[test]
fn worker_panic_is_contained_and_pool_survives() {
    let pool = EncodePool::new(2);
    let rs = ReedSolomon::new(4, 2);
    let data = data_with_len(4, 64 * 1024, 0);
    let err = catch_unwind(AssertUnwindSafe(|| {
        let bomb = DispatchedBomb {
            rs: rs.clone(),
            base: data[0].as_ptr() as usize,
        };
        striped_parity(&pool, &bomb, &data, 4)
    }));
    assert!(
        err.is_err(),
        "a poisoned stripe must re-raise on the caller"
    );

    // The pool is still fully functional afterwards — repeatedly.
    for seed in 0..8 {
        let data = data_with_len(4, 4096, seed);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = rs.encode(&refs);
        assert_eq!(striped_parity(&pool, &rs, &data, 2), expect, "seed={seed}");
    }
}

/// The global pool's `encode_striped` propagates shape panics to the
/// caller (as a plain `encode_into` would) without wedging the pool for
/// later calls.
#[test]
fn striped_shape_panic_propagates_and_pool_recovers() {
    let code = ReedSolomon::new(2, 1);
    let data: Vec<Vec<u8>> = vec![vec![1u8; 64 * 1024]; 2];
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let mut short = vec![0u8; 32];
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut views: Vec<&mut [u8]> = vec![short.as_mut_slice()];
        EncodePool::global().encode_striped(&code, &refs, &mut views, 2);
    }));
    assert!(err.is_err());

    // Global pool still encodes correctly after the panic.
    let expect = code.encode(&refs);
    let mut parity = vec![vec![0u8; 64 * 1024]];
    {
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        EncodePool::global().encode_striped(&code, &refs, &mut views, 2);
    }
    assert_eq!(parity, expect);
}

/// A parity slice shorter than the shards must propagate a panic to the
/// caller, not hang the latch guard waiting on stripes that were never
/// dispatched. (`encode_striped` refuses the shape before carving; the
/// dispatcher's count-up latch covers a panic mid-carve.)
#[test]
fn carving_panic_propagates_instead_of_hanging() {
    let pool = EncodePool::new(1);
    let code = ReedSolomon::new(2, 1);
    let data: Vec<Vec<u8>> = vec![vec![7u8; 64 * 1024]; 2];
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    // Parity shorter than the shard length.
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
/// pool then still serves striped encodes.
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
        // The pool still serves striped encodes.
        for seed in 0..4 {
            let data = data_with_len(4, 8 * 1024, seed);
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let expect = rs.encode(&refs);
            assert_eq!(
                striped_parity(&pool, &rs, &data, STRIPES),
                expect,
                "seed={seed}"
            );
        }
    }
}
