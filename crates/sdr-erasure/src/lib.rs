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
//!   operations the codes call.
//! * [`Matrix`] — Vandermonde construction and Gauss–Jordan inversion.
//! * [`ReedSolomon`] — systematic MDS code: recovers from **any** `m`
//!   erasures among `k + m` shards; encode is cache-blocked into ~32 KiB
//!   strips driven through the fused kernel.
//! * [`XorCode`] — the paper's XOR modulo-group code: parity `i` is the XOR
//!   of data blocks `j ≡ i (mod m)`; tolerates one loss per group.
//! * [`pool`] — the persistent [`EncodePool`]: long-lived workers fed over
//!   channels, with an async [`EncodePool::submit`]/[`PendingEncode::wait`]
//!   split so reliability layers overlap encoding with injection (the
//!   paper's spare-core model), and [`EncodePool::reconstruct_striped`],
//!   the receiver's in-place decode column-striped over the same workers.
//! * [`encode_parallel`] / [`encode_parallel_into`] — column-striped
//!   multi-threaded encoding used to hide the encode cost behind injection
//!   (Figure 11); dispatches stripes to the pool (no per-call thread
//!   spawn); the `_into` form writes caller-owned parity buffers and
//!   allocates nothing in the single-thread path.
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
//! `SDR_GF256_KERNEL=scalar|ssse3|avx2|gfni|neon` for A/B runs. One run of
//! `cargo bench -p sdr-bench --bench fig11_ec_encode` on the development
//! container (GFNI/AVX-512 x86_64), single-thread rows:
//!
//! | tier   | one-source `mul_add_multi` 64 KiB | MDS(32,8) encode, 1 thread |
//! |--------|-----------------------------------|----------------------------|
//! | scalar | 1.86 GiB/s                        | 0.28 GiB/s                 |
//! | ssse3  | 9.30 GiB/s                        | 1.34 GiB/s                 |
//! | avx2   | 16.5 GiB/s                        | 2.07 GiB/s (7.5× scalar)   |
//! | gfni   | 30.1 GiB/s                        | 3.94 GiB/s (14.3× scalar)  |
//!
//! XOR(32,8) serial encode reaches 19.8 GiB/s (≈170 Gbit/s) on the same
//! core, consistent with the paper's claim that XOR hides 400 Gbit/s
//! injection behind 4 cores.

#![warn(missing_docs)]

pub mod codec;
pub mod crc32c;
pub mod gf256;
pub mod kernel;
pub mod matrix;
pub mod parallel;
pub mod pool;
pub mod rs;
pub mod xor;

pub use codec::{EcError, ErasureCode};
pub use crc32c::{crc32c, Crc32c, Crc32cHasher};
pub use kernel::Kernel;
pub use matrix::Matrix;
pub use parallel::{encode_parallel, encode_parallel_into};
pub use pool::{EncodeJob, EncodePool, PendingEncode};
pub use rs::ReedSolomon;
pub use xor::XorCode;

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

        /// Parallel encoding is bit-identical to serial encoding for both
        /// codes at arbitrary lengths and thread counts.
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
            prop_assert_eq!(encode_parallel(&rs, &refs, threads), rs.encode(&refs));
        }
    }
}
