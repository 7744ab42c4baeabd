//! Multi-threaded erasure encoding.
//!
//! The paper hides EC encoding behind data injection by running it on spare
//! CPU cores (Section 4.1.2, Figure 11: XOR saturates 400 Gbit/s with 4
//! cores, MDS needs ~8). Erasure codes are column-wise independent, so we
//! split the shard length into per-thread stripes and encode each stripe
//! concurrently on the persistent [`EncodePool`] — no locks, no shared
//! mutable state, and no per-call thread spawn.

use crate::codec::ErasureCode;
use crate::pool::EncodePool;

/// Stripe alignment: keep per-thread slices cache-line aligned.
const STRIPE_ALIGN: usize = 64;

/// Encodes `data` with `code` into **caller-owned** parity buffers using up
/// to `threads` worker threads — the zero-steady-state-allocation encode
/// entry point: parity is written strictly in place, letting callers pool
/// and reuse their staging buffers across submessages.
///
/// Equivalent to [`ErasureCode::encode_into`] but with the shard length
/// divided into independent column stripes. Falls back to single-threaded
/// encoding for small shards (< one stripe per thread), in which case the
/// call performs no heap allocation at all.
///
/// # Panics
/// Panics when shard counts or lengths are inconsistent.
pub fn encode_parallel_into(
    code: &dyn ErasureCode,
    data: &[&[u8]],
    parity: &mut [&mut [u8]],
    threads: usize,
) {
    assert_eq!(data.len(), code.data_shards());
    assert_eq!(parity.len(), code.parity_shards());
    let len = data.first().map_or(0, |d| d.len());
    assert!(data.iter().all(|d| d.len() == len), "ragged data shards");
    assert!(
        parity.iter().all(|p| p.len() == len),
        "ragged parity shards"
    );
    let threads = threads.max(1);

    if threads == 1 || len < threads * STRIPE_ALIGN {
        code.encode_into(data, parity);
        return;
    }

    EncodePool::global().encode_striped(code, data, parity, threads);
}

/// Encodes `data` with `code` using up to `threads` worker threads,
/// returning freshly allocated parity shards.
///
/// Allocating convenience wrapper over [`encode_parallel_into`].
pub fn encode_parallel(code: &dyn ErasureCode, data: &[&[u8]], threads: usize) -> Vec<Vec<u8>> {
    let len = data.first().map_or(0, |d| d.len());
    let mut parity = vec![vec![0u8; len]; code.parity_shards()];
    {
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        encode_parallel_into(code, data, &mut views, threads);
    }
    parity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::ReedSolomon;
    use crate::xor::XorCode;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        let mut rng = SmallRng::seed_from_u64(123);
        (0..k)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect()
    }

    #[test]
    fn parallel_rs_matches_serial() {
        let code = ReedSolomon::new(8, 3);
        let data = random_data(8, 64 * 1024 + 13);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs);
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(
                encode_parallel(&code, &refs, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_xor_matches_serial() {
        let code = XorCode::new(32, 8);
        let data = random_data(32, 17 * 1024);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs);
        assert_eq!(encode_parallel(&code, &refs, 4), serial);
    }

    #[test]
    fn tiny_shards_fall_back_to_serial() {
        let code = ReedSolomon::new(4, 2);
        let data = random_data(4, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs);
        assert_eq!(encode_parallel(&code, &refs, 8), serial);
    }

    #[test]
    fn encode_into_writes_caller_buffers_in_place() {
        // The zero-allocation contract: parity lands in exactly the
        // buffers the caller provided — same backing storage, no swaps.
        let code = ReedSolomon::new(6, 3);
        let data = random_data(6, 8 * 1024 + 5);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expect = code.encode(&refs);

        let mut parity = vec![vec![0xAAu8; 8 * 1024 + 5]; 3];
        let ptrs: Vec<*const u8> = parity.iter().map(|p| p.as_ptr()).collect();
        for threads in [1, 4] {
            for p in parity.iter_mut() {
                p.fill(0xAA);
            }
            {
                let mut views: Vec<&mut [u8]> =
                    parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                encode_parallel_into(&code, &refs, &mut views, threads);
            }
            assert_eq!(parity, expect, "threads={threads}");
            for (p, &ptr) in parity.iter().zip(&ptrs) {
                assert_eq!(p.as_ptr(), ptr, "parity buffer was reallocated");
            }
        }
    }

    #[test]
    fn pooled_path_matches_serial_reference() {
        let code = ReedSolomon::new(8, 3);
        let data = random_data(8, 96 * 1024 + 31);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut serial = vec![vec![0u8; 96 * 1024 + 31]; 3];
        {
            let mut views: Vec<&mut [u8]> = serial.iter_mut().map(|p| p.as_mut_slice()).collect();
            code.encode_into(&refs, &mut views);
        }
        for threads in [2, 3, 8] {
            let mut pooled = vec![vec![0u8; 96 * 1024 + 31]; 3];
            {
                let mut views: Vec<&mut [u8]> =
                    pooled.iter_mut().map(|p| p.as_mut_slice()).collect();
                encode_parallel_into(&code, &refs, &mut views, threads);
            }
            assert_eq!(pooled, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "ragged parity shards")]
    fn encode_into_rejects_wrong_parity_len() {
        let code = XorCode::new(2, 1);
        let data = random_data(2, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut short = vec![0u8; 32];
        let mut views: Vec<&mut [u8]> = vec![short.as_mut_slice()];
        encode_parallel_into(&code, &refs, &mut views, 1);
    }

    #[test]
    fn zero_length_is_fine() {
        let code = XorCode::new(2, 1);
        let data = [vec![], vec![]];
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p = encode_parallel(&code, &refs, 4);
        assert_eq!(p, vec![Vec::<u8>::new()]);
    }
}
