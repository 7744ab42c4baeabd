//! # sdr-erasure — erasure-coding substrate for SDR-RDMA
//!
//! The paper's EC-based reliability layer (Section 4.1.2) encodes each data
//! submessage of `k` chunks into `m` parity chunks so the receiver can repair
//! chunk drops in place. The authors use Intel ISA-L for the MDS code and a
//! hand-rolled AVX-512 XOR code; this crate provides from-scratch
//! equivalents:
//!
//! * [`gf256`] — compile-time GF(2^8) tables and scalar field arithmetic.
//! * [`kernel`] — runtime-dispatched SIMD tiers (GFNI `GF2P8AFFINEQB` and
//!   SSSE3/AVX2 nibble-shuffle on x86_64, NEON on aarch64, scalar
//!   reference) behind the [`Kernel`] vtable: the two fused multi-source
//!   operations the codes call, the GF(256) one multi-output and one-pass
//!   (each source block loaded once per group of outputs).
//! * [`Matrix`] — Vandermonde construction and Gauss–Jordan inversion.
//! * [`ReedSolomon`] — systematic MDS code: recovers from **any** `m`
//!   erasures among `k + m` shards; encode and decode are one multi-output
//!   kernel call over the whole shard.
//! * [`XorCode`] — the paper's XOR modulo-group code: parity `i` is the XOR
//!   of data blocks `j ≡ i (mod m)`; tolerates one loss per group.
//! * [`pool`] — the persistent [`EncodePool`]: long-lived workers fed over
//!   a channel, one kind of task (a closure and its latch) and one
//!   column-stripe dispatcher with two entry points:
//!   [`EncodePool::encode_striped`], the EC sender's in-place encode into
//!   its staging region and Figure 11's multi-threaded encode, and
//!   [`EncodePool::reconstruct_striped`], the receiver's in-place decode
//!   (the paper's spare-core model: the caller runs one stripe, the
//!   workers the rest).
//! * [`crc32c`] — runtime-dispatched CRC32C (Castagnoli) behind the
//!   [`Crc32c`] vtable: the x86_64 `CRC32` instruction tier, three
//!   interleaved chains per 4032 B block (18.8 GiB/s on 64 KiB and on 4 KiB
//!   inputs, 6.2 on 256 B ones, which stay on the serial chain), over the
//!   portable slice-by-8 fallback (1.3 GiB/s at every length; one
//!   `fig11` run on the development container), pinnable via
//!   `SDR_CRC32C_KERNEL`. Every integrity check in the stack — control
//!   trailers, per-packet payload checksums, EC shard audits, the
//!   whole-message delivery digest — funnels through this primitive;
//!   [`Crc32cHasher`] streams large buffers incrementally.
//!
//! # Kernel dispatch
//!
//! The widest tier the host supports is selected once at startup
//! ([`Kernel::active`]); pin a tier with
//! `SDR_GF256_KERNEL=scalar|ssse3|avx2|gfni|neon` for A/B runs. The
//! `fig11` binary (`cargo run --release -p sdr-bench --bin fig11`) prints
//! the encode rows under whatever tier is pinned; one full run per tier on
//! a 2-vCPU Xeon with GFNI/AVX-512, 1-thread row of its 128 MiB,
//! k = 32, m = 8 encode table (the one-pass kernel: eight parity rows per
//! source pass on GFNI, four on AVX2, row by row on SSSE3 and scalar):
//!
//! | tier   | MDS(32,8) encode, 1 thread |
//! |--------|----------------------------|
//! | scalar | 1.87 Gbit/s                |
//! | ssse3  | 6.72 Gbit/s                |
//! | avx2   | 30.8 Gbit/s (16.5× scalar) |
//! | gfni   | 68.3 Gbit/s (36.5× scalar) |
//!
//! XOR(32,8) encode, which needs no GF(256) multiply, reads 103–181 Gbit/s
//! in the same runs, consistent with the paper's claim that XOR hides
//! 400 Gbit/s injection behind 4 cores. The repository benchmark's
//! `erasure.rs.encode_gibps` probe times the same kernel under the
//! auto-selected tier.

#![warn(missing_docs)]

pub mod codec;
pub mod crc32c;
pub mod gf256;
pub mod kernel;
pub mod matrix;
pub mod pool;
pub mod rs;
pub mod xor;

pub use codec::{EcError, ErasureCode};
pub use crc32c::{crc32c, Crc32c, Crc32cHasher};
pub use kernel::Kernel;
pub use matrix::Matrix;
pub use pool::EncodePool;
pub use rs::ReedSolomon;
pub use xor::XorCode;

/// The column-striped encode ([`EncodePool::encode_striped`]) against the
/// serial one.
#[cfg(test)]
mod parallel {
    use crate::{EncodePool, ErasureCode};

    /// Freshly allocated parity of `data`, encoded over the global pool in
    /// `stripes` column stripes.
    pub(crate) fn striped_parity(
        code: &dyn ErasureCode,
        data: &[&[u8]],
        stripes: usize,
    ) -> Vec<Vec<u8>> {
        let len = data.first().map_or(0, |d| d.len());
        let mut parity = vec![vec![0u8; len]; code.parity_shards()];
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        EncodePool::global().encode_striped(code, data, &mut views, stripes);
        parity
    }

    mod tests {
        use super::striped_parity;
        use crate::{EncodePool, ErasureCode, ReedSolomon, XorCode};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn random_data(k: usize, len: usize) -> Vec<Vec<u8>> {
            let mut rng = SmallRng::seed_from_u64(123);
            (0..k)
                .map(|_| (0..len).map(|_| rng.random()).collect())
                .collect()
        }

        /// The striped parity of random `len`-byte shards equals the
        /// serial encode at every width in `stripes`.
        fn matches_serial(code: &dyn ErasureCode, len: usize, stripes: &[usize]) {
            let data = random_data(code.data_shards(), len);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let serial = code.encode(&refs);
            for &n in stripes {
                assert_eq!(striped_parity(code, &refs, n), serial, "stripes={n}");
            }
        }

        #[test]
        fn parallel_rs_matches_serial() {
            matches_serial(&ReedSolomon::new(8, 3), 64 * 1024 + 13, &[1, 2, 3, 4, 8]);
        }

        #[test]
        fn parallel_xor_matches_serial() {
            matches_serial(&XorCode::new(32, 8), 17 * 1024, &[4]);
        }

        #[test]
        fn tiny_shards_fall_back_to_serial() {
            matches_serial(&ReedSolomon::new(4, 2), 16, &[8]);
        }

        #[test]
        fn pooled_path_matches_serial_reference() {
            matches_serial(&ReedSolomon::new(8, 3), 96 * 1024 + 31, &[2, 3, 8]);
        }

        #[test]
        fn zero_length_is_fine() {
            matches_serial(&XorCode::new(2, 1), 0, &[4]);
        }

        #[test]
        fn encode_into_writes_caller_buffers_in_place() {
            // Parity lands in exactly the buffers the caller provided —
            // same backing storage, no swaps.
            let code = ReedSolomon::new(6, 3);
            let data = random_data(6, 8 * 1024 + 5);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let mut parity = vec![vec![0xAAu8; 8 * 1024 + 5]; 3];
            let ptrs: Vec<*const u8> = parity.iter().map(|p| p.as_ptr()).collect();
            for stripes in [1, 4] {
                let mut views: Vec<&mut [u8]> =
                    parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                EncodePool::global().encode_striped(&code, &refs, &mut views, stripes);
                assert_eq!(parity, code.encode(&refs), "stripes={stripes}");
                let now: Vec<*const u8> = parity.iter().map(|p| p.as_ptr()).collect();
                assert_eq!(now, ptrs, "parity buffer was reallocated");
                parity.iter_mut().for_each(|p| p.fill(0xAA));
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
            EncodePool::global().encode_striped(&code, &refs, &mut views, 1);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_shards(k: usize, len: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), len), k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// MDS invariant: any erasure pattern with ≥ k survivors recovers
        /// the exact original data.
        #[test]
        fn rs_recovers_any_k_subset(
            data in arb_shards(6, 96),
            pattern in proptest::collection::vec(any::<bool>(), 9),
        ) {
            let code = ReedSolomon::new(6, 3);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = code.encode(&refs);
            let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some)
                .chain(parity.into_iter().map(Some)).collect();
            let survivors = pattern.iter().filter(|&&p| p).count();
            for (s, &keep) in shards.iter_mut().zip(&pattern) {
                if !keep { *s = None; }
            }
            let res = code.reconstruct(&mut shards);
            if survivors >= 6 {
                prop_assert!(res.is_ok());
                for (i, d) in data.iter().enumerate() {
                    prop_assert_eq!(shards[i].as_ref().unwrap(), d);
                }
            } else {
                prop_assert_eq!(res, Err(EcError::Unrecoverable));
            }
        }

        /// XOR invariant: recovery succeeds iff every modulo group has at
        /// most one missing member (counting its parity only when a data
        /// block is missing), and recovered data is exact.
        #[test]
        fn xor_recovery_matches_group_rule(
            data in arb_shards(8, 64),
            pattern in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let code = XorCode::new(8, 4);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = code.encode(&refs);
            let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some)
                .chain(parity.into_iter().map(Some)).collect();
            for (s, &keep) in shards.iter_mut().zip(&pattern) {
                if !keep { *s = None; }
            }
            let expect_ok = code.can_recover(&pattern);
            let res = code.reconstruct(&mut shards);
            prop_assert_eq!(res.is_ok(), expect_ok);
            if expect_ok {
                for (i, d) in data.iter().enumerate() {
                    prop_assert_eq!(shards[i].as_ref().unwrap(), d);
                }
            }
        }

        /// The column-striped encode is bit-identical to the serial one at
        /// arbitrary lengths and stripe counts.
        #[test]
        fn parallel_encode_equals_serial(
            len in 1usize..4096,
            threads in 1usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng, rngs::SmallRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let data: Vec<Vec<u8>> = (0..5)
                .map(|_| (0..len).map(|_| rng.random()).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let rs = ReedSolomon::new(5, 2);
            prop_assert_eq!(parallel::striped_parity(&rs, &refs, threads), rs.encode(&refs));
        }
    }
}
