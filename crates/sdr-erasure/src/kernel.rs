//! Runtime-dispatched SIMD kernels for GF(2^8) slice arithmetic.
//!
//! The erasure hot path is `dst[i] ^= Σ_j c_j·src_j[i]` over 64 KiB chunks.
//! The classic scalar form walks a 256-byte product-table row one byte at a
//! time; production RS codecs (ISA-L, reed-solomon-erasure) instead split
//! every source byte into low/high nibbles and use a byte-shuffle
//! instruction as a 16-entry parallel table lookup:
//!
//! ```text
//! c·x = LO[c][x & 0xF] ^ HI[c][x >> 4]      (linearity of GF multiply)
//! ```
//!
//! `PSHUFB`/`VPSHUFB` (x86) and `TBL` (NEON) evaluate 16/32 such lookups
//! per instruction; `GF2P8AFFINEQB` (GFNI) multiplies 64 bytes at once.
//! Each tier — GFNI, AVX2, SSSE3 on x86_64, NEON on aarch64, and the scalar
//! reference — is a [`Kernel`]: a name and the two operations the codes
//! call, selected **once** at startup.
//!
//! Both operations are *fused*: [`Kernel::mul_add_multi`] (Reed–Solomon
//! encode and decode) and [`Kernel::xor_multi`] (the modulo-group code)
//! accumulate `k` sources into one destination per memory pass, so the
//! destination strip is loaded and stored once instead of `k` times, which
//! matters exactly when the encode is memory-bound (Figure 11's regime).
//!
//! Dispatch can be pinned for testing/benchmarks with the
//! `SDR_GF256_KERNEL` environment variable (`scalar`, or a SIMD kernel
//! name from [`Kernel::all`]: `ssse3`, `avx2`, `gfni`, `neon`).

use std::sync::OnceLock;

/// Cache-block width for multi-destination walks (encode): strips of this
/// size keep one parity strip plus the streaming source window inside
/// L1/L2 while the encode matrix is applied row by row.
pub const STRIP_BYTES: usize = 32 * 1024;

// ---------------------------------------------------------------------------
// Compile-time nibble tables.
// ---------------------------------------------------------------------------

/// Carry-less multiply in GF(2^8) mod 0x11D, usable in const context.
const fn gf_mul_const(mut a: u8, mut b: u8) -> u8 {
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

const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            lo[c][x] = gf_mul_const(c as u8, x as u8);
            hi[c][x] = gf_mul_const(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();
/// `NIB_LO[c][x] = c·x` for `x < 16`.
static NIB_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;
/// `NIB_HI[c][x] = c·(x << 4)` for `x < 16`.
static NIB_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

/// The 8×8 GF(2) bit-matrix (packed as the qword `GF2P8AFFINEQB` expects)
/// that multiplies every byte by `c` in GF(2^8) mod 0x11D.
///
/// `GF2P8MULB` is useless here — it is hard-wired to the AES polynomial
/// 0x11B — but multiplication by a constant is GF(2)-linear, so it is
/// exactly an affine transform: `dst.bit[i] = parity(matrix.byte[7-i] &
/// x)`, and we need `dst.bit[i] = Σ_k x_k · bit_i(c·2^k)`, i.e.
/// `matrix.byte[7-i].bit[k] = bit_i(c·2^k)`.
#[cfg(target_arch = "x86_64")]
const fn gfni_matrix(c: u8) -> u64 {
    let mut pow = [0u8; 8];
    let mut k = 0;
    while k < 8 {
        pow[k] = gf_mul_const(c, 1 << k);
        k += 1;
    }
    let mut bytes = [0u8; 8];
    let mut i = 0;
    while i < 8 {
        let mut row = 0u8;
        let mut k = 0;
        while k < 8 {
            row |= ((pow[k] >> i) & 1) << k;
            k += 1;
        }
        bytes[7 - i] = row;
        i += 1;
    }
    u64::from_le_bytes(bytes)
}

#[cfg(target_arch = "x86_64")]
const fn build_gfni_matrices() -> [u64; 256] {
    let mut m = [0u64; 256];
    let mut c = 0usize;
    while c < 256 {
        m[c] = gfni_matrix(c as u8);
        c += 1;
    }
    m
}

/// `GFNI_MATRICES[c]` = affine matrix computing `x ↦ c·x` (mod 0x11D).
#[cfg(target_arch = "x86_64")]
static GFNI_MATRICES: [u64; 256] = build_gfni_matrices();

// ---------------------------------------------------------------------------
// Scalar kernels (256-byte product-table row walk): the scalar tier, and
// the sub-block tails of every SIMD kernel.
// ---------------------------------------------------------------------------

fn xor_scalar(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

fn mul_add_scalar(dst: &mut [u8], src: &[u8], c: u8) {
    match c {
        0 => {}
        1 => xor_scalar(dst, src),
        _ => {
            let row = &crate::gf256::MUL[c as usize];
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= row[*s as usize];
            }
        }
    }
}

fn mul_add_multi_scalar(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
    for (src, &c) in srcs.iter().zip(coeffs) {
        mul_add_scalar(dst, src, c);
    }
}

fn xor_multi_scalar(dst: &mut [u8], srcs: &[&[u8]]) {
    for src in srcs {
        xor_scalar(dst, src);
    }
}

// ---------------------------------------------------------------------------
// x86_64 SIMD kernels (SSSE3 PSHUFB, AVX2 VPSHUFB).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure SSSE3 is available. Every `srcs[j]` must be at
    /// least `dst.len()` long (checked by the safe wrapper).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_add_multi_ssse3(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        let mask = _mm_set1_epi8(0x0F);
        let n = dst.len() & !15;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = _mm_loadu_si128(dp.add(i) as *const __m128i);
            for (src, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
                if c == 1 {
                    acc = _mm_xor_si128(acc, s);
                    continue;
                }
                let lo_t = _mm_loadu_si128(NIB_LO[c as usize].as_ptr() as *const __m128i);
                let hi_t = _mm_loadu_si128(NIB_HI[c as usize].as_ptr() as *const __m128i);
                let lo = _mm_shuffle_epi8(lo_t, _mm_and_si128(s, mask));
                let hi = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
                acc = _mm_xor_si128(acc, _mm_xor_si128(lo, hi));
            }
            _mm_storeu_si128(dp.add(i) as *mut __m128i, acc);
            i += 16;
        }
        for (src, &c) in srcs.iter().zip(coeffs) {
            mul_add_scalar(&mut dst[n..], &src[n..], c);
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available. Every `srcs[j]` must be at
    /// least `dst.len()` long (checked by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_add_multi_avx2(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        // Note: re-broadcasting the nibble tables per (block, source) looks
        // like loop-invariant waste, but hoisting all k pairs into a stack
        // array measured performance-neutral to slightly slower on AVX2
        // hosts (the table loads hit L1 and the staging init is pure
        // overhead), so the simpler form stays.
        let mask = _mm256_set1_epi8(0x0F);
        let n = dst.len() & !31;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = _mm256_loadu_si256(dp.add(i) as *const __m256i);
            for (src, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                if c == 1 {
                    acc = _mm256_xor_si256(acc, s);
                    continue;
                }
                let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    NIB_LO[c as usize].as_ptr() as *const __m128i,
                ));
                let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    NIB_HI[c as usize].as_ptr() as *const __m128i,
                ));
                let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask));
                let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
                acc = _mm256_xor_si256(acc, _mm256_xor_si256(lo, hi));
            }
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, acc);
            i += 32;
        }
        for (src, &c) in srcs.iter().zip(coeffs) {
            mul_add_scalar(&mut dst[n..], &src[n..], c);
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available. Every `srcs[j]` must be at
    /// least `dst.len()` long (checked by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_multi_avx2(dst: &mut [u8], srcs: &[&[u8]]) {
        let n = dst.len() & !31;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = _mm256_loadu_si256(dp.add(i) as *const __m256i);
            for src in srcs {
                acc = _mm256_xor_si256(
                    acc,
                    _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i),
                );
            }
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, acc);
            i += 32;
        }
        for src in srcs {
            xor_scalar(&mut dst[n..], &src[n..]);
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 GFNI kernels: GF2P8AFFINEQB over 64-byte ZMM blocks. One affine
// instruction evaluates c·x for 64 bytes — no nibble split, no table
// shuffle — using the per-coefficient bit matrices in GFNI_MATRICES.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod gfni {
    use super::*;
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure GFNI + AVX-512F are available. Every `srcs[j]`
    /// must be at least `dst.len()` long (checked by the safe wrapper).
    #[target_feature(enable = "gfni,avx512f")]
    pub unsafe fn mul_add_multi_gfni(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        let n = dst.len() & !63;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = _mm512_loadu_si512(dp.add(i) as *const _);
            for (src, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let s = _mm512_loadu_si512(src.as_ptr().add(i) as *const _);
                if c == 1 {
                    acc = _mm512_xor_si512(acc, s);
                    continue;
                }
                let mat = _mm512_set1_epi64(GFNI_MATRICES[c as usize] as i64);
                acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8::<0>(s, mat));
            }
            _mm512_storeu_si512(dp.add(i) as *mut _, acc);
            i += 64;
        }
        for (src, &c) in srcs.iter().zip(coeffs) {
            mul_add_scalar(&mut dst[n..], &src[n..], c);
        }
    }

    /// # Safety
    /// Caller must ensure AVX-512F is available. Every `srcs[j]` must be
    /// at least `dst.len()` long (checked by the safe wrapper).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor_multi_zmm(dst: &mut [u8], srcs: &[&[u8]]) {
        let n = dst.len() & !63;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = _mm512_loadu_si512(dp.add(i) as *const _);
            for src in srcs {
                acc = _mm512_xor_si512(acc, _mm512_loadu_si512(src.as_ptr().add(i) as *const _));
            }
            _mm512_storeu_si512(dp.add(i) as *mut _, acc);
            i += 64;
        }
        for src in srcs {
            xor_scalar(&mut dst[n..], &src[n..]);
        }
    }
}

// Safe wrappers.
// SAFETY (all five): each is reachable only through the private fields of
// the tier static it is installed in — `detect_available` hands that static
// out only after `is_x86_feature_detected!` confirmed the tier's features,
// and `Kernel::{mul_add_multi, xor_multi}` assert every source is
// `dst.len()` long before calling through.
#[cfg(target_arch = "x86_64")]
mod x86_entry {
    use super::*;

    pub fn mul_add_multi_ssse3(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        unsafe { x86::mul_add_multi_ssse3(dst, srcs, coeffs) }
    }

    pub fn mul_add_multi_avx2(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        unsafe { x86::mul_add_multi_avx2(dst, srcs, coeffs) }
    }
    pub fn xor_multi_avx2(dst: &mut [u8], srcs: &[&[u8]]) {
        unsafe { x86::xor_multi_avx2(dst, srcs) }
    }

    pub fn mul_add_multi_gfni(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        unsafe { gfni::mul_add_multi_gfni(dst, srcs, coeffs) }
    }
    pub fn xor_multi_gfni(dst: &mut [u8], srcs: &[&[u8]]) {
        unsafe { gfni::xor_multi_zmm(dst, srcs) }
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON kernels (vqtbl1q_u8 is the 16-entry shuffle).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::*;
    use core::arch::aarch64::*;

    /// # Safety
    /// NEON is mandatory on aarch64; unsafe only for the intrinsics.
    /// Every `srcs[j]` must be at least `dst.len()` long.
    #[target_feature(enable = "neon")]
    pub unsafe fn mul_add_multi_neon(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        let mask = vdupq_n_u8(0x0F);
        let n = dst.len() & !15;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = vld1q_u8(dp.add(i));
            for (src, &c) in srcs.iter().zip(coeffs) {
                if c == 0 {
                    continue;
                }
                let s = vld1q_u8(src.as_ptr().add(i));
                if c == 1 {
                    acc = veorq_u8(acc, s);
                    continue;
                }
                let lo_t = vld1q_u8(NIB_LO[c as usize].as_ptr());
                let hi_t = vld1q_u8(NIB_HI[c as usize].as_ptr());
                let lo = vqtbl1q_u8(lo_t, vandq_u8(s, mask));
                let hi = vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4));
                acc = veorq_u8(acc, veorq_u8(lo, hi));
            }
            vst1q_u8(dp.add(i), acc);
            i += 16;
        }
        for (src, &c) in srcs.iter().zip(coeffs) {
            mul_add_scalar(&mut dst[n..], &src[n..], c);
        }
    }

    /// # Safety
    /// NEON is mandatory on aarch64; unsafe only for the intrinsics.
    /// Every `srcs[j]` must be at least `dst.len()` long.
    #[target_feature(enable = "neon")]
    pub unsafe fn xor_multi_neon(dst: &mut [u8], srcs: &[&[u8]]) {
        let n = dst.len() & !15;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let mut acc = vld1q_u8(dp.add(i));
            for src in srcs {
                acc = veorq_u8(acc, vld1q_u8(src.as_ptr().add(i)));
            }
            vst1q_u8(dp.add(i), acc);
            i += 16;
        }
        for src in srcs {
            xor_scalar(&mut dst[n..], &src[n..]);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon_entry {
    use super::*;

    pub fn mul_add_multi_neon(dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        unsafe { neon::mul_add_multi_neon(dst, srcs, coeffs) }
    }
    pub fn xor_multi_neon(dst: &mut [u8], srcs: &[&[u8]]) {
        unsafe { neon::xor_multi_neon(dst, srcs) }
    }
}

// ---------------------------------------------------------------------------
// The dispatch vtable.
// ---------------------------------------------------------------------------

/// The two fused GF(2^8) operations the erasure codes call, for one
/// instruction-set tier.
///
/// Both methods check shape invariants (equal lengths) and are safe; the
/// unsafe SIMD entries behind them are only installed after runtime
/// feature detection.
pub struct Kernel {
    name: &'static str,
    mul_add_multi: fn(&mut [u8], &[&[u8]], &[u8]),
    xor_multi: fn(&mut [u8], &[&[u8]]),
}

/// Scalar tier: 256-byte product-table row walk. Production on targets
/// with no SIMD tier, and the reference every test compares against.
static SCALAR: Kernel = Kernel {
    name: "scalar",
    mul_add_multi: mul_add_multi_scalar,
    xor_multi: xor_multi_scalar,
};

#[cfg(target_arch = "x86_64")]
static SSSE3: Kernel = Kernel {
    name: "ssse3",
    mul_add_multi: x86_entry::mul_add_multi_ssse3,
    // Plain XOR needs no shuffle: the scalar loop already compiles to the
    // 128-bit form on every x86_64 target.
    xor_multi: xor_multi_scalar,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernel = Kernel {
    name: "avx2",
    mul_add_multi: x86_entry::mul_add_multi_avx2,
    xor_multi: x86_entry::xor_multi_avx2,
};

/// GFNI/AVX-512 tier: one `GF2P8AFFINEQB` per 64-byte block replaces the
/// whole nibble-split-and-shuffle dance.
#[cfg(target_arch = "x86_64")]
static GFNI: Kernel = Kernel {
    name: "gfni",
    mul_add_multi: x86_entry::mul_add_multi_gfni,
    xor_multi: x86_entry::xor_multi_gfni,
};

#[cfg(target_arch = "aarch64")]
static NEON: Kernel = Kernel {
    name: "neon",
    mul_add_multi: neon_entry::mul_add_multi_neon,
    xor_multi: neon_entry::xor_multi_neon,
};

fn detect_available() -> Vec<&'static Kernel> {
    #[allow(unused_mut)]
    let mut found: Vec<&'static Kernel> = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            found.push(&SSSE3);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push(&AVX2);
        }
        if std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
        {
            found.push(&GFNI);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        found.push(&NEON);
    }
    found
}

fn available() -> &'static [&'static Kernel] {
    static AVAILABLE: OnceLock<Vec<&'static Kernel>> = OnceLock::new();
    AVAILABLE.get_or_init(detect_available)
}

fn select_active() -> &'static Kernel {
    if let Ok(name) = std::env::var("SDR_GF256_KERNEL") {
        if let Some(k) = available().iter().find(|k| k.name == name) {
            return k;
        }
        eprintln!(
            "SDR_GF256_KERNEL={name} not available on this host; \
             using best (have: {:?})",
            Kernel::all().iter().map(|k| k.name()).collect::<Vec<_>>()
        );
    }
    // Widest SIMD tier if any; otherwise scalar.
    available().last().expect("scalar tier always present")
}

impl Kernel {
    /// The kernel the erasure codes are using: the widest tier the host
    /// supports, selected once (overridable via `SDR_GF256_KERNEL`).
    pub fn active() -> &'static Kernel {
        static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
        ACTIVE.get_or_init(select_active)
    }

    /// All tiers usable on this host, slowest first. Always contains
    /// `scalar`; SIMD tiers appear when detected.
    pub fn all() -> &'static [&'static Kernel] {
        available()
    }

    /// The scalar reference tier (the pre-SIMD baseline).
    pub fn scalar() -> &'static Kernel {
        &SCALAR
    }

    /// Looks a tier up by name (`"scalar"`, `"ssse3"`, `"avx2"`, …).
    pub fn by_name(name: &str) -> Option<&'static Kernel> {
        available().iter().copied().find(|k| k.name == name)
    }

    /// This tier's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Fused accumulate: `dst[i] ^= Σ_j coeffs[j] · srcs[j][i]`, one
    /// destination pass for all sources.
    ///
    /// # Panics
    /// Panics when `srcs.len() != coeffs.len()` or any source length
    /// differs from `dst.len()`.
    #[inline]
    pub fn mul_add_multi(&self, dst: &mut [u8], srcs: &[&[u8]], coeffs: &[u8]) {
        assert_eq!(srcs.len(), coeffs.len());
        for s in srcs {
            assert_eq!(s.len(), dst.len());
        }
        (self.mul_add_multi)(dst, srcs, coeffs);
    }

    /// Fused XOR accumulate: `dst[i] ^= Σ_j srcs[j][i]`.
    ///
    /// # Panics
    /// Panics when any source length differs from `dst.len()`.
    #[inline]
    pub fn xor_multi(&self, dst: &mut [u8], srcs: &[&[u8]]) {
        for s in srcs {
            assert_eq!(s.len(), dst.len());
        }
        (self.xor_multi)(dst, srcs);
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256;

    #[test]
    fn nibble_tables_match_mul_table() {
        for c in 0..256usize {
            for x in 0..256usize {
                let expect = gf256::MUL[c][x];
                let got = NIB_LO[c][x & 0xF] ^ NIB_HI[c][x >> 4];
                assert_eq!(got, expect, "c={c} x={x}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gfni_affine_matrices_encode_field_multiplication() {
        // Software evaluation of the GF2P8AFFINEQB semantics:
        // dst.bit[i] = parity(matrix.byte[7-i] & x). Every (c, x) pair must
        // equal the product table without touching the instruction itself,
        // so this holds even on hosts without GFNI.
        for c in 0..256usize {
            let m = GFNI_MATRICES[c].to_le_bytes();
            for x in 0..256usize {
                let mut y = 0u8;
                for i in 0..8 {
                    let parity = (m[7 - i] & x as u8).count_ones() & 1;
                    y |= (parity as u8) << i;
                }
                assert_eq!(y, gf256::MUL[c][x], "c={c} x={x}");
            }
        }
    }

    #[test]
    fn active_is_among_available() {
        let names: Vec<_> = Kernel::all().iter().map(|k| k.name()).collect();
        assert!(names.contains(&"scalar"));
        assert!(names.contains(&Kernel::active().name()));
    }

    #[test]
    fn every_kernel_matches_scalar_on_odd_lengths() {
        let src: Vec<u8> = (0..1003).map(|i| (i * 31 % 256) as u8).collect();
        let base: Vec<u8> = (0..1003).map(|i| (i * 7 % 256) as u8).collect();
        for k in Kernel::all() {
            for c in [0u8, 1, 2, 133, 255] {
                let mut want = base.clone();
                mul_add_scalar(&mut want, &src, c);
                let mut got = base.clone();
                k.mul_add_multi(&mut got, &[&src[..]], &[c]);
                assert_eq!(got, want, "kernel={} c={c} mul_add_multi", k.name());
            }
            let mut want = base.clone();
            xor_scalar(&mut want, &src);
            let mut got = base.clone();
            k.xor_multi(&mut got, &[&src[..]]);
            assert_eq!(got, want, "kernel={} xor_multi", k.name());
        }
    }

    #[test]
    fn fused_multi_matches_repeated_single() {
        let srcs: Vec<Vec<u8>> = (0..5)
            .map(|j| (0..777).map(|i| ((i * 13 + j * 89) % 256) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
        let coeffs = [7u8, 0, 1, 255, 88];
        for k in Kernel::all() {
            let mut want = vec![3u8; 777];
            for (s, &c) in refs.iter().zip(&coeffs) {
                mul_add_scalar(&mut want, s, c);
            }
            let mut got = vec![3u8; 777];
            k.mul_add_multi(&mut got, &refs, &coeffs);
            assert_eq!(got, want, "kernel={} mul_add_multi", k.name());

            let mut want = vec![9u8; 777];
            for s in &refs {
                xor_scalar(&mut want, s);
            }
            let mut got = vec![9u8; 777];
            k.xor_multi(&mut got, &refs);
            assert_eq!(got, want, "kernel={} xor_multi", k.name());
        }
    }
}
