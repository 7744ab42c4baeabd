//! Differential tests: every kernel tier available on this host must agree
//! bit-for-bit with this file's own byte-wise loops on the two operations
//! the erasure codes call — `mul_add_multi` and `xor_multi` — across all
//! 256 coefficients, 1..=33 sources, lengths from 0 to beyond 4 KiB, and
//! misaligned head/tail windows. SIMD kernels process 16/32/64-byte blocks
//! with scalar tails, so every (offset mod 64, length mod 64) combination
//! is a distinct code path.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdr_erasure::Kernel;

/// Schoolbook carry-less multiply in GF(2^8) mod 0x11D: the reference
/// shares no table with the crate under test.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1D;
        }
        b >>= 1;
    }
    p
}

/// `dst[i] ^= Σ_j coeffs[j] · srcs[j][i]`, one byte at a time.
fn ref_mul_add_multi(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    for (src, &c) in srcs.iter().zip(coeffs) {
        for (d, s) in dst.iter_mut().zip(*src) {
            *d ^= gf_mul(c, *s);
        }
    }
}

/// `dst[i] ^= Σ_j srcs[j][i]`, one byte at a time.
fn ref_xor_multi(dst: &mut [u8], srcs: &[&[u8]]) {
    for src in srcs {
        for (d, s) in dst.iter_mut().zip(*src) {
            *d ^= *s;
        }
    }
}

fn random_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random()).collect()
}

/// Runs both operations of every tier on the window `[lo..hi]` of `srcs`
/// over `base` and compares whole buffers with the references, so a write
/// outside the window fails too. `mul_add_multi` overwrites its (one)
/// output, `xor_multi` accumulates into it.
fn check_all_tiers(base: &[u8], srcs: &[Vec<u8>], coeffs: &[u8], lo: usize, hi: usize) {
    let views: Vec<&[u8]> = srcs.iter().map(|s| &s[lo..hi]).collect();
    let mut want = base.to_vec();
    want[lo..hi].fill(0);
    ref_mul_add_multi(&mut want[lo..hi], &views, coeffs);
    let mut want_xor = base.to_vec();
    ref_xor_multi(&mut want_xor[lo..hi], &views);
    for kernel in Kernel::all() {
        let what = || {
            format!(
                "kernel={} n={} coeffs={coeffs:?} window={lo}..{hi}",
                kernel.name(),
                srcs.len()
            )
        };
        let mut got = base.to_vec();
        kernel.mul_add_multi(&mut [&mut got[lo..hi]], &views, coeffs);
        assert_eq!(got, want, "mul_add_multi {}", what());
        let mut got = base.to_vec();
        kernel.xor_multi(&mut got[lo..hi], &views);
        assert_eq!(got, want_xor, "xor_multi {}", what());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One-source calls: random coefficient × random length (0..~4 KiB) ×
    /// random head misalignment.
    #[test]
    fn all_kernels_match_reference(
        c: u8,
        len in 0usize..4200,
        head in 0usize..65,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let total = head + len;
        let src = random_bytes(&mut rng, total);
        let base = random_bytes(&mut rng, total);
        check_all_tiers(&base, &[src], &[c], head, total);
    }

    /// 1..=33 sources with 0, 1 and general coefficients mixed in one call,
    /// across lengths and misalignment.
    #[test]
    fn fused_multi_matches_fold(
        n_srcs in 1usize..=33,
        len in 0usize..2100,
        head in 0usize..65,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let total = head + len;
        let srcs: Vec<Vec<u8>> = (0..n_srcs).map(|_| random_bytes(&mut rng, total)).collect();
        // Every third coefficient is forced to 0 or 1: the row-by-row
        // bodies skip the one and degrade the other to XOR inside the fused
        // block loop; the one-pass bodies multiply both like any other.
        let coeffs: Vec<u8> = (0..n_srcs)
            .map(|j| if j % 3 == 2 { (j / 3 % 2) as u8 } else { rng.random() })
            .collect();
        let base = random_bytes(&mut rng, total);
        check_all_tiers(&base, &srcs, &coeffs, head, total);
    }
}

/// Exhaustive over all 256 coefficients at a block-straddling length, one
/// source at a time (catches any single bad table entry by name) and 32 to
/// a call (0 and 1 sit among general coefficients in the first).
#[test]
fn exhaustive_coefficients() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let srcs: Vec<Vec<u8>> = (0..32).map(|_| random_bytes(&mut rng, 257)).collect();
    let base = random_bytes(&mut rng, 257);
    for c in 0..=255u8 {
        check_all_tiers(&base, &srcs[..1], &[c], 0, 257);
    }
    for first in (0..=255u8).step_by(32) {
        let coeffs: Vec<u8> = (first..=first + 31).collect();
        check_all_tiers(&base, &srcs, &coeffs, 0, 257);
    }
}

/// Every (length, offset) in a small exhaustive grid around the SIMD block
/// sizes: the scalar-tail boundary must be correct everywhere.
#[test]
fn exhaustive_small_geometry() {
    let mut rng = SmallRng::seed_from_u64(7);
    let srcs: Vec<Vec<u8>> = (0..3).map(|_| random_bytes(&mut rng, 200)).collect();
    let base = random_bytes(&mut rng, 200);
    for head in 0..72 {
        for len in 0..(200 - head) {
            check_all_tiers(&base, &srcs, &[97, 1, 0], head, head + len);
        }
    }
}

/// The paper's (32, 8) MDS encode — the production multi-output call,
/// pinned to each tier in turn — equals the byte-wise reference applied to the
/// code's parity rows.
#[test]
fn full_rs_encode_agrees_across_kernels() {
    use sdr_erasure::ReedSolomon;
    const K: usize = 32;
    const M: usize = 8;
    const LEN: usize = 4096 + 13;
    let mut rng = SmallRng::seed_from_u64(42);
    let data: Vec<Vec<u8>> = (0..K).map(|_| random_bytes(&mut rng, LEN)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let rs = ReedSolomon::new(K, M);
    let mut want = vec![vec![0u8; LEN]; M];
    for (i, p) in want.iter_mut().enumerate() {
        ref_mul_add_multi(p, &refs, rs.parity_row(i));
    }

    for kernel in Kernel::all() {
        let mut parity = vec![vec![0xAAu8; LEN]; M];
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        rs.encode_into_with_kernel(kernel, &refs, &mut views);
        assert_eq!(parity, want, "kernel={}", kernel.name());
    }
}

// ---------------------------------------------------------------------------
// CRC32C tiers: the same cross-tier differential discipline for the
// integrity primitive — every tier on this host must agree with a
// bit-at-a-time Castagnoli reference on arbitrary windows and splits.
// ---------------------------------------------------------------------------

/// Deliberately naive bit-at-a-time CRC32C (reflected 0x82F63B78).
fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random length (0..~9 KiB, straddling the MTU-sized payload grain) ×
    /// random head misalignment × a random incremental split: every CRC32C
    /// tier equals the bitwise reference, one-shot and streamed. The
    /// hardware tier walks qwords with a byte tail, so misaligned heads
    /// and odd tails are distinct code paths exactly as in the GF(256)
    /// kernels above.
    #[test]
    fn all_crc32c_tiers_match_bitwise_reference(
        len in 0usize..9000,
        head in 0usize..9,
        cut in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let buf = random_bytes(&mut rng, head + len);
        let window = &buf[head..];
        let want = crc32c_bitwise(window);
        let split = (cut * window.len() as f64) as usize;
        for tier in sdr_erasure::Crc32c::all() {
            prop_assert_eq!(
                tier.checksum(window), want,
                "tier={} len={} head={}", tier.name(), len, head
            );
            let mut h = sdr_erasure::Crc32cHasher::with_kernel(tier);
            h.update(&window[..split]);
            h.update(&window[split..]);
            prop_assert_eq!(
                h.finalize(), want,
                "tier={} incremental split={} len={}", tier.name(), split, len
            );
        }
    }
}

/// x86_64 hosts must register every hardware CRC tier they can run — CI on
/// such hosts must never silently differential-test a lower tier against
/// itself: `sse42` iff SSE4.2, `vpclmul` iff it and AVX-512F/VL,
/// VPCLMULQDQ and PCLMULQDQ; the best registered tier is last.
#[cfg(target_arch = "x86_64")]
#[test]
fn sse42_crc_tier_registered_when_host_supports_it() {
    use std::arch::is_x86_feature_detected as has;
    let has_sse42 = has!("sse4.2");
    let has_vpclmul =
        has_sse42 && has!("avx512f") && has!("avx512vl") && has!("vpclmulqdq") && has!("pclmulqdq");
    for (name, host_has) in [("sse42", has_sse42), ("vpclmul", has_vpclmul)] {
        assert_eq!(
            sdr_erasure::Crc32c::by_name(name).is_some(),
            host_has,
            "{name} CRC tier registration must match host feature detection"
        );
    }
    let names: Vec<_> = sdr_erasure::Crc32c::all()
        .iter()
        .map(|k| k.name())
        .collect();
    let best = if has_vpclmul {
        "vpclmul"
    } else if has_sse42 {
        "sse42"
    } else {
        "slice8"
    };
    assert_eq!(*names.last().unwrap(), best);
}

/// Hosts advertising GFNI + AVX-512 must actually register the `gfni` tier
/// — otherwise CI would silently fall back to AVX2 and the differential
/// coverage above would never exercise the affine kernels.
#[cfg(target_arch = "x86_64")]
#[test]
fn gfni_tier_registered_when_host_supports_it() {
    let host_has = std::arch::is_x86_feature_detected!("gfni")
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vbmi");
    assert_eq!(
        Kernel::by_name("gfni").is_some(),
        host_has,
        "gfni tier registration must match host feature detection"
    );
    if host_has {
        // And it outranks AVX2 in the auto-selection order unless pinned.
        let names: Vec<_> = Kernel::all().iter().map(|k| k.name()).collect();
        assert_eq!(*names.last().unwrap(), "gfni");
    }
}
