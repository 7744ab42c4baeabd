//! Runtime-dispatched CRC32C (Castagnoli) kernels.
//!
//! Every integrity check PR 10 adds — control-datagram trailers, per-packet
//! payload checksums, EC shard validation, the whole-message delivery
//! digest — funnels through this one primitive, so it must stay off the
//! goodput critical path. Three tiers, selected **once** at startup into a
//! [`Crc32c`] vtable exactly like the GF(2^8) [`Kernel`](crate::Kernel):
//!
//! * `vpclmul` — carry-less folding on 512-bit `VPCLMULQDQ` (below), the
//!   method of Gopal et al., "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction" (Intel, 2009), 64 B per fold; registered
//!   when the host has `avx512f`, `avx512vl`, `vpclmulqdq`, `pclmulqdq`
//!   and `sse4.2`.
//! * `sse42` — the x86_64 `CRC32` instruction (`_mm_crc32_u64`), the
//!   hardware tier ISA-L and the kernel's `crc32c-intel` use, run as
//!   **three interleaved chains** (below).
//! * `slice8` — the classic slice-by-8 table walk (8 × 256 u32 tables
//!   built at compile time), the portable software fallback.
//!
//! A tier is an instruction-set level: within a level a faster path
//! replaces the body (three chains replaced `sse42`'s one), and a row is
//! added only for a new level. GiB/s by input length, `fig11`'s table on
//! the 2.1 GHz reference host, median of five runs (each call's window
//! chosen by the last checksum, so calls do not overlap):
//!
//! | tier      | 256 B | 4 KiB | 64 KiB |
//! |-----------|-------|-------|--------|
//! | `slice8`  | 1.19  | 1.21  | 1.20   |
//! | `sse42`   | 5.95  | 17.5  | 17.3   |
//! | `vpclmul` | 12.2  | 54.7  | 61.0   |
//!
//! # Folding (`vpclmul`)
//!
//! The raw state after a message `M` is `M(x) · x³² mod P`, once the
//! incoming state is XORed into `M`'s first 4 bytes. So a 16 B lane `L`
//! that starts `d` bytes before another lane `B` may be replaced by
//! `L · x⁸ᵈ mod P` XORed into `B` without changing the result, and what
//! is left of the input is `d` bytes shorter. Split `L`'s 128 bits
//! into its two qwords, `L = H · x⁶⁴ ⊕ G`, and the fold is two carry-less
//! multiplies by 32-bit constants, `H · (x^(8d+64) mod P) ⊕ G · (x^(8d)
//! mod P)`, each at most 127 bits: a lane again, with no reduction. In the
//! reflected representation each constant sits in the low half of its
//! qword, which costs it 32 powers of `x`, and the reflected product comes
//! out one bit low, which costs one more; so the constants for distance
//! `d` are `x^(8d+31) mod P` and `x^(8d−33) mod P`, built by `const fn`
//! from the same `mul_mod_p` square-and-multiply that builds `sse42`'s
//! merge tables (checked against `slice8` over zero bytes in the tests).
//!
//! A 512-bit `VPCLMULQDQ` folds four lanes at once, 64 B; a fold is two
//! multiplies and one three-way XOR (`vpternlogq`), the input line XORed
//! in as the third operand. Each accumulator is a dependency chain one
//! multiply plus one XOR deep per turn, and the multiplies of every fold
//! share one port, so the accumulators must be enough to cover a chain's
//! latency and few enough to leave the merge short. Four (256 B a turn)
//! measured best, `fig11` GiB/s at 4 KiB / 64 KiB with the merge below
//! as a serial chain in all three: two 46–49 / 48–61, four 49–54 /
//! 59–70, eight 47–51 / 57–63. After the last whole turn the four merge
//! into the last with 192, 128 and 64 B folds whose multiplies are
//! independent (only their XORs chain: 256 B 10.1–10.7 → 12.6–13.6 and
//! 4 KiB 49–54 → 55–56 against three chained 64 B folds), any whole lines
//! left fold in with 64 B folds, and the four lanes narrow to one with
//! 48, 32 and 16 B folds. That lane and the sub-line tail run `sse42`'s
//! serial loop, as does every input under 256 B — one serial loop for
//! both tiers. Each turn asks for its four lines 1 KiB ahead, past the
//! input's end too: `bulk_sr_4k` posts its source buffer cold and hashes
//! it packet after packet, and without the prefetch its
//! `wall_ns_per_pkt` read 6–7 % higher (seeds 7 / 8, 17 of 20 pairs).
//!
//! # Why three chains (`sse42`)
//!
//! `CRC32 r64, m64` has a 3-cycle latency and a 1-per-cycle throughput.
//! One chain — each step waiting for the state the last one produced —
//! is therefore latency-bound at 8 B / 3 cycles (7.0–7.6 GiB/s on the
//! 2.1 GHz reference host, at every length), a third of what the port can
//! retire. So the tier cuts each *block* of the input into three equal stripes and
//! runs one chain per stripe, the three `crc32` ops of an iteration
//! independent of each other: the incoming state feeds chain 0, chains 1
//! and 2 start at 0. The raw state transition is linear over GF(2) in
//! (state, data) jointly, so
//!
//! ```text
//! step(c, A‖B) = shift_|B|(step(c, A)) ⊕ step(0, B)
//! ```
//!
//! where `shift_n(c) = step(c, 0ⁿ) = c · x⁸ⁿ mod P` advances a state over
//! `n` zero bytes. A block's three chain states merge with that identity
//! twice. `shift_n` is itself linear in `c`, so for the one stripe length
//! it is four 256-entry tables (one per state byte, XORed), 4 KiB built
//! by `const fn` from `x⁸ⁿ mod P`. The merge needs no instruction beyond
//! SSE4.2 (a carry-less-multiply merge would, and the tier registers on
//! `sse4.2` alone). Because the contract is the raw `step(state, data)`,
//! [`Crc32cHasher`] streams through the same code: every `update` lays
//! its own block grid from its first byte.
//!
//! # Where the stripe length came from
//!
//! Measured on this host over 256 B … 256 KiB, not tuned to one size
//! (each call's state feeding the next, so nothing overlaps across calls;
//! GiB/s, one chain → this tier): 256 B 7.4 → 7.2, 2 KiB 7.6 → 7.3,
//! 4 KiB 7.5 → 21.3, 64 KiB 7.6 → 20.2, 256 KiB 7.5 → 20.2 (7.0 → 17–19
//! when the bytes come from DRAM).
//!
//! * **Stripe 1344 B** (block 4032 B): a merge costs two dependent table
//!   walks (≈ 20 cycles), so stripes want to be long; but the commonest
//!   input is one default-MTU payload, and 3 × 1344 is the largest
//!   multiple of a cache line that makes 4 KiB a *single* block (plus a
//!   64 B serial tail). 3 × 2728 gains 6 % at 64 KiB+ and loses 16 % at
//!   4 KiB; 3 × 680 and 3 × 448 lose 2–5 % at both.
//! * **Under one block** — 256 B packets, the 16 B CTS, control trailers
//!   — and every tail: the serial loop. Short, independent inputs already
//!   overlap with the work around them in the out-of-order window, and
//!   nothing the stack or the benchmark hashes today lies between 256 B
//!   and 4 KiB.
//!
//! Each chain prefetches its stripe eight lines ahead. One chain consumes
//! a line every ~24 cycles and the hardware prefetcher keeps up; three
//! consume one every ~8 and, when the bytes are in DRAM (`bulk_sr_4k`
//! posts its source buffer cold) and DRAM is slow, demand misses alone do
//! not. On a quiet host it is a tie (`wall_ns_per_pkt`, ten 20 s rounds:
//! lower in 7, median −2 %); in this host's recurring slow-memory spells
//! the unprefetched kernel read 0–10 % under the one-chain parent and
//! this one 11–35 % under it, five rounds of five.
//!
//! Dispatch can be pinned for testing/benchmarks with the
//! `SDR_CRC32C_KERNEL` environment variable (`slice8`, `sse42`,
//! `vpclmul`).
//!
//! The polynomial is Castagnoli 0x1EDC6F41 (reflected 0x82F63B78) — the
//! iSCSI/RDMA choice, *not* the zlib CRC32 — with the conventional
//! `!0` init and final complement, so `crc32c(b"123456789") ==
//! 0xE306_9283` (the RFC 3720 check value).

use std::sync::OnceLock;

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

// ---------------------------------------------------------------------------
// Compile-time slice-by-8 tables.
// ---------------------------------------------------------------------------

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // t[k][b] extends t[k-1][b] by one extra zero byte, so one 8-byte
    // slice lookup composes eight single-byte steps.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

// ---------------------------------------------------------------------------
// Software tier: slice-by-8.
// ---------------------------------------------------------------------------

fn step_slice8(mut crc: u32, mut data: &[u8]) -> u32 {
    let t = &TABLES;
    while data.len() >= 8 {
        let w = u64::from_le_bytes(data[..8].try_into().unwrap()) ^ crc as u64;
        crc = t[7][(w & 0xFF) as usize]
            ^ t[6][((w >> 8) & 0xFF) as usize]
            ^ t[5][((w >> 16) & 0xFF) as usize]
            ^ t[4][((w >> 24) & 0xFF) as usize]
            ^ t[3][((w >> 32) & 0xFF) as usize]
            ^ t[2][((w >> 40) & 0xFF) as usize]
            ^ t[1][((w >> 48) & 0xFF) as usize]
            ^ t[0][((w >> 56) & 0xFF) as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

// ---------------------------------------------------------------------------
// Arithmetic mod P: the hardware tiers' merge tables and fold constants.
// ---------------------------------------------------------------------------

/// `a · b mod P` on reflected 32-bit polynomials (bit 31 is x⁰) — the
/// representation the raw CRC state lives in.
#[cfg(target_arch = "x86_64")]
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `xᵉ mod P`, reflected, by square-and-multiply.
#[cfg(target_arch = "x86_64")]
const fn x_pow_mod_p(mut e: usize) -> u32 {
    let mut xe = 1u32 << 31;
    let mut sq = 1u32 << 30;
    while e != 0 {
        if e & 1 != 0 {
            xe = mul_mod_p(xe, sq);
        }
        sq = mul_mod_p(sq, sq);
        e >>= 1;
    }
    xe
}

// ---------------------------------------------------------------------------
// Hardware tier: the x86_64 CRC32 instruction (SSE4.2), three chains.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod sse42 {
    use super::{mul_mod_p, x_pow_mod_p};
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8, _mm_prefetch, _MM_HINT_T0};

    /// The "advance over `n` zero bytes" operator, `step(c, 0ⁿ) = c · x⁸ⁿ
    /// mod P`, as four byte-indexed tables: it is linear in `c`, so it is
    /// the XOR of the products of `c`'s four bytes, one lookup each.
    type Shift = [[u32; 256]; 4];

    const fn build_shift(n: usize) -> Shift {
        let xn = x_pow_mod_p(8 * n);
        let mut t = [[0u32; 256]; 4];
        let mut j = 0;
        while j < 4 {
            let mut b = 0usize;
            while b < 256 {
                t[j][b] = mul_mod_p((b as u32) << (8 * j), xn);
                b += 1;
            }
            j += 1;
        }
        t
    }

    /// Stripe of a block: 3 × 1344 B = 4032 B, so one default-MTU payload
    /// (4 KiB) is a single block plus a 64 B serial tail.
    pub(super) const STRIPE: usize = 1344;

    /// How far ahead of each chain its stripe is prefetched: eight lines,
    /// what one chain consumes in a DRAM round trip (a line per ~24
    /// cycles, ~100 ns).
    const PREFETCH_AHEAD: usize = 512;

    // The chains walk whole cache lines; a ragged stripe would drop its tail.
    const _: () = assert!(STRIPE.is_multiple_of(64));

    static SHIFT: Shift = build_shift(STRIPE);

    #[inline(always)]
    pub(super) fn shift(c: u64) -> u64 {
        let t = &SHIFT;
        (t[0][(c & 0xFF) as usize]
            ^ t[1][((c >> 8) & 0xFF) as usize]
            ^ t[2][((c >> 16) & 0xFF) as usize]
            ^ t[3][((c >> 24) & 0xFF) as usize]) as u64
    }

    #[inline(always)]
    fn qword(q: &[u8]) -> u64 {
        u64::from_le_bytes(q.try_into().expect("chunks_exact(8)"))
    }

    /// Every whole `3 × STRIPE`-byte block at the head of `data` runs as
    /// three independent chains, one per stripe (the incoming state feeds
    /// the first, the others start at 0), merged per block with
    /// `step(c, A‖B) = shift_|B|(step(c, A)) ⊕ step(0, B)`, twice; what is
    /// left runs the serial qword/byte loop — which is all an input under
    /// one block (256 B packets, CTS, control trailers) ever runs.
    #[target_feature(enable = "sse4.2")]
    pub fn step(crc: u32, mut data: &[u8]) -> u32 {
        let mut c = crc as u64;
        // One compare keeps the block bookkeeping (≈ 3 ns a call) off the
        // short inputs, which are most calls.
        if data.len() >= 3 * STRIPE {
            let mut blocks = data.chunks_exact(3 * STRIPE);
            for block in &mut blocks {
                let (s0, rest) = block.split_at(STRIPE);
                let (s1, s2) = rest.split_at(STRIPE);
                let (mut c1, mut c2) = (0u64, 0u64);
                // A cache line of each stripe per turn, asking for the lines
                // `PREFETCH_AHEAD` further on first (see the module docs; the
                // address may lie past the input, which a prefetch may).
                for ((l0, l1), l2) in s0
                    .chunks_exact(64)
                    .zip(s1.chunks_exact(64))
                    .zip(s2.chunks_exact(64))
                {
                    for l in [l0, l1, l2] {
                        let ahead = l.as_ptr().wrapping_add(PREFETCH_AHEAD);
                        _mm_prefetch::<_MM_HINT_T0>(ahead as *const i8);
                    }
                    for ((q0, q1), q2) in l0
                        .chunks_exact(8)
                        .zip(l1.chunks_exact(8))
                        .zip(l2.chunks_exact(8))
                    {
                        c = _mm_crc32_u64(c, qword(q0));
                        c1 = _mm_crc32_u64(c1, qword(q1));
                        c2 = _mm_crc32_u64(c2, qword(q2));
                    }
                }
                c = shift(shift(c) ^ c1) ^ c2;
            }
            data = blocks.remainder();
        }
        let mut qwords = data.chunks_exact(8);
        for q in &mut qwords {
            c = _mm_crc32_u64(c, qword(q));
        }
        let mut c = c as u32;
        for &b in qwords.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }
}

#[cfg(target_arch = "x86_64")]
fn step_sse42(crc: u32, data: &[u8]) -> u32 {
    // SAFETY: `step` needs SSE4.2, and SSE42 is only installed in the
    // vtable after `is_x86_feature_detected!("sse4.2")` (`detect_available`).
    unsafe { sse42::step(crc, data) }
}

// ---------------------------------------------------------------------------
// Hardware tier: carry-less folding on 512-bit VPCLMULQDQ.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod vpclmul {
    use super::{sse42, x_pow_mod_p};
    use std::arch::x86_64::*;

    /// The pair that carries a 16 B lane `d` bytes forward (module docs):
    /// `[x^(8d+31), x^(8d−33)] mod P`, multiplied into the lane's low
    /// qword (its high-degree half, reflected) and its high qword.
    const fn fold(d: usize) -> [u64; 2] {
        [
            x_pow_mod_p(8 * d + 31) as u64,
            x_pow_mod_p(8 * d - 33) as u64,
        ]
    }

    pub(super) const K256: [u64; 2] = fold(256);
    pub(super) const K192: [u64; 2] = fold(192);
    pub(super) const K128: [u64; 2] = fold(128);
    pub(super) const K64: [u64; 2] = fold(64);
    pub(super) const K48: [u64; 2] = fold(48);
    pub(super) const K32: [u64; 2] = fold(32);
    pub(super) const K16: [u64; 2] = fold(16);

    /// How far ahead of the four lines it folds a turn prefetches.
    const PREFETCH_AHEAD: usize = 1024;

    /// Every input of 256 B or more folds 256 B per turn into four 512-bit
    /// accumulators (the incoming state XORed into the first 4 bytes),
    /// which merge into the last with 192, 128 and 64 B folds, take any
    /// whole lines left with 64 B folds, and narrow to one 16 B lane with
    /// 48, 32 and 16 B folds; that lane and the tail, and every shorter
    /// input, run `sse42::step`.
    #[target_feature(enable = "avx512f,avx512vl,vpclmulqdq,pclmulqdq,sse4.2")]
    pub fn step(crc: u32, data: &[u8]) -> u32 {
        if data.len() < 256 {
            return sse42::step(crc, data);
        }
        // SAFETY: a `&[u8; 64]` is 64 readable bytes, and `loadu` takes
        // any alignment.
        let load = |l: &[u8; 64]| unsafe { _mm512_loadu_si512(l.as_ptr().cast()) };
        let wide = |k: [u64; 2]| _mm512_broadcast_i32x4(_mm_set_epi64x(k[1] as i64, k[0] as i64));
        // Each 16 B lane of `a` carried the distance `k` was built for
        // and XORed onto the same lane of `b`.
        let fold = |a: __m512i, k: __m512i, b: __m512i| {
            let p0 = _mm512_clmulepi64_epi128::<0x00>(a, k);
            let p1 = _mm512_clmulepi64_epi128::<0x11>(a, k);
            _mm512_ternarylogic_epi64::<0x96>(p0, p1, b)
        };
        let fold_lane = |a: __m128i, k: [u64; 2], b: __m128i| {
            let k = _mm_set_epi64x(k[1] as i64, k[0] as i64);
            let p0 = _mm_clmulepi64_si128::<0x00>(a, k);
            let p1 = _mm_clmulepi64_si128::<0x11>(a, k);
            _mm_ternarylogic_epi64::<0x96>(p0, p1, b)
        };

        let (lines, tail) = data.as_chunks::<64>();
        let (first, rest) = lines.split_at(4);
        let mut acc: [__m512i; 4] = std::array::from_fn(|i| load(&first[i]));
        let state = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        acc[0] = _mm512_xor_si512(acc[0], state);
        let (turns, left) = rest.as_chunks::<4>();
        let k256 = wide(K256);
        for turn in turns {
            for (a, l) in acc.iter_mut().zip(turn) {
                // The address may lie past the input, which a prefetch may.
                let ahead = l.as_ptr().wrapping_add(PREFETCH_AHEAD);
                _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
                *a = fold(*a, k256, load(l));
            }
        }
        // The three merge folds are independent: only their XORs chain.
        let k64 = wide(K64);
        let [a0, a1, a2, a3] = acc;
        let mut a = fold(a0, wide(K192), fold(a1, wide(K128), fold(a2, k64, a3)));
        for l in left {
            a = fold(a, k64, load(l));
        }
        let mut x = _mm512_extracti32x4_epi32::<3>(a);
        x = fold_lane(_mm512_extracti32x4_epi32::<0>(a), K48, x);
        x = fold_lane(_mm512_extracti32x4_epi32::<1>(a), K32, x);
        x = fold_lane(_mm512_extracti32x4_epi32::<2>(a), K16, x);
        let mut last = [0u8; 16];
        last[..8].copy_from_slice(&_mm_cvtsi128_si64(x).to_le_bytes());
        last[8..].copy_from_slice(&_mm_extract_epi64::<1>(x).to_le_bytes());
        sse42::step(sse42::step(0, &last), tail)
    }
}

#[cfg(target_arch = "x86_64")]
fn step_vpclmul(crc: u32, data: &[u8]) -> u32 {
    // SAFETY: `step` needs the features it enables, and VPCLMUL is only
    // installed in the vtable after `is_x86_feature_detected!` confirmed
    // each of them (`detect_available`).
    unsafe { vpclmul::step(crc, data) }
}

// ---------------------------------------------------------------------------
// The dispatch vtable.
// ---------------------------------------------------------------------------

/// A CRC32C kernel for one instruction-set tier.
///
/// `step` is the raw state transition (no init / final complement), which
/// is what lets [`Crc32cHasher`] checksum a message held in pieces without
/// staging a contiguous copy.
pub struct Crc32c {
    name: &'static str,
    step: fn(u32, &[u8]) -> u32,
}

/// Portable software tier.
static SLICE8: Crc32c = Crc32c {
    name: "slice8",
    step: step_slice8,
};

#[cfg(target_arch = "x86_64")]
static SSE42: Crc32c = Crc32c {
    name: "sse42",
    step: step_sse42,
};

#[cfg(target_arch = "x86_64")]
static VPCLMUL: Crc32c = Crc32c {
    name: "vpclmul",
    step: step_vpclmul,
};

fn detect_available() -> Vec<&'static Crc32c> {
    #[allow(unused_mut)]
    let mut found: Vec<&'static Crc32c> = vec![&SLICE8];
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("sse4.2") {
            found.push(&SSE42);
            if has!("avx512f") && has!("avx512vl") && has!("vpclmulqdq") && has!("pclmulqdq") {
                found.push(&VPCLMUL);
            }
        }
    }
    found
}

fn available() -> &'static [&'static Crc32c] {
    static AVAILABLE: OnceLock<Vec<&'static Crc32c>> = OnceLock::new();
    AVAILABLE.get_or_init(detect_available)
}

fn select_active() -> &'static Crc32c {
    if let Ok(name) = std::env::var("SDR_CRC32C_KERNEL") {
        if let Some(k) = available().iter().find(|k| k.name == name) {
            return k;
        }
        eprintln!(
            "SDR_CRC32C_KERNEL={name} not available on this host; \
             using best (have: {:?})",
            Crc32c::all().iter().map(|k| k.name()).collect::<Vec<_>>()
        );
    }
    available().last().expect("slice8 tier always present")
}

impl Crc32c {
    /// The kernel the integrity checks are using: the best tier the host
    /// has, selected once (overridable via
    /// `SDR_CRC32C_KERNEL`).
    pub fn active() -> &'static Crc32c {
        static ACTIVE: OnceLock<&'static Crc32c> = OnceLock::new();
        ACTIVE.get_or_init(select_active)
    }

    /// All tiers usable on this host, slowest first. Always contains
    /// `slice8`; `sse42` and then `vpclmul` appear when detected.
    pub fn all() -> &'static [&'static Crc32c] {
        available()
    }

    /// The portable software tier (the differential-test reference).
    pub fn software() -> &'static Crc32c {
        &SLICE8
    }

    /// Looks a tier up by name (`"slice8"`, `"sse42"`, `"vpclmul"`).
    pub fn by_name(name: &str) -> Option<&'static Crc32c> {
        available().iter().copied().find(|k| k.name == name)
    }

    /// This tier's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-shot checksum of `data` (init `!0`, final complement).
    pub fn checksum(&self, data: &[u8]) -> u32 {
        !(self.step)(!0u32, data)
    }
}

/// Incremental CRC32C over a byte stream.
pub struct Crc32cHasher {
    kernel: &'static Crc32c,
    state: u32,
}

impl Crc32cHasher {
    /// A hasher on the active kernel.
    pub fn new() -> Self {
        Self::with_kernel(Crc32c::active())
    }

    /// A hasher pinned to a specific tier.
    pub fn with_kernel(kernel: &'static Crc32c) -> Self {
        Self {
            kernel,
            state: !0u32,
        }
    }

    /// Absorbs the next `data` bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = (self.kernel.step)(self.state, data);
    }

    /// The checksum of everything absorbed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32cHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32C of `data` on the active kernel.
pub fn crc32c(data: &[u8]) -> u32 {
    Crc32c::active().checksum(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference state transition, deliberately naive.
    fn step_bitwise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn crc_bitwise(data: &[u8]) -> u32 {
        !step_bitwise(!0, data)
    }

    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn rfc3720_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        for k in Crc32c::all() {
            assert_eq!(k.checksum(b"123456789"), 0xE306_9283, "tier {}", k.name());
        }
    }

    #[test]
    fn empty_and_single_byte() {
        for k in Crc32c::all() {
            assert_eq!(k.checksum(b""), 0, "tier {}", k.name());
            assert_eq!(
                k.checksum(b"\x00"),
                crc_bitwise(b"\x00"),
                "tier {}",
                k.name()
            );
        }
    }

    #[test]
    fn tiers_match_bitwise_reference_on_odd_lengths() {
        // Odd lengths exercise the per-byte tails on both tiers.
        for len in [1usize, 3, 7, 8, 9, 15, 63, 64, 65, 255, 1021, 4096, 4099] {
            let buf = pseudo_random(len);
            let want = crc_bitwise(&buf);
            for k in Crc32c::all() {
                assert_eq!(k.checksum(&buf), want, "tier {} len {}", k.name(), len);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shift_tables_advance_a_state_over_that_many_zero_bytes() {
        use super::sse42::{shift, STRIPE};
        let zeros = vec![0u8; STRIPE];
        for c in [0u32, 1, 0x8000_0000, !0, 0xDEAD_BEEF, 0x0102_0408] {
            assert_eq!(shift(c as u64) as u32, step_slice8(c, &zeros));
        }
    }

    /// Each fold pair is `[x^(8d+31), x^(8d−33)] mod P`: `x³¹` (state bit
    /// 0) advanced over `d` zero bytes, and `x⁷` (state bit 24) over `d − 5`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_x_to_those_powers_mod_p() {
        use super::vpclmul::{K128, K16, K192, K256, K32, K48, K64};
        let zeros = vec![0u8; 256];
        let folds = [
            (16, K16),
            (32, K32),
            (48, K48),
            (64, K64),
            (128, K128),
            (192, K192),
            (256, K256),
        ];
        for (d, k) in folds {
            let want = [
                step_slice8(1, &zeros[..d]),
                step_slice8(1 << 24, &zeros[..d - 5]),
            ];
            assert_eq!(k, want.map(u64::from), "fold distance {d}");
        }
    }

    /// Not sampled, enumerated: every length from 0 through two blocks plus
    /// 64 B, at every head offset 0..=8, on every tier — each count of
    /// blocks, tail qwords and tail bytes the interleaved kernel can be
    /// asked for, and every transition between them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_length_through_two_blocks_matches_bitwise_reference() {
        let max = 2 * 3 * sse42::STRIPE + 64;
        let buf = pseudo_random(8 + max);
        for head in 0..=8 {
            let window = &buf[head..head + max];
            let mut state = !0u32; // the reference's raw state over window[..len]
            for len in 0..=max {
                if len > 0 {
                    state = step_bitwise(state, &window[len - 1..len]);
                }
                for k in Crc32c::all() {
                    let got = k.checksum(&window[..len]);
                    assert_eq!(got, !state, "tier {} len {len} head {head}", k.name());
                }
            }
        }
    }

    /// A 2 MiB message streamed through [`Crc32cHasher`] from a non-initial
    /// state (a 5-byte preamble went in first) with the split at every byte
    /// within ±9 of every stripe and block boundary of the first three
    /// blocks, and of every 64 B line (so every 256 B fold turn) boundary
    /// of the first KiB — measured from the front (the first update ends
    /// there) and from the back (the second update is that long).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn streamed_splits_around_every_stripe_and_block_boundary() {
        const LEN: usize = (2 << 20) + 77;
        let buf = pseudo_random(5 + LEN);
        let want = crc_bitwise(&buf);
        let (preamble, body) = buf.split_at(5);
        let mut splits = std::collections::BTreeSet::new();
        let stripes = (0..=9).map(|stripe| stripe * sse42::STRIPE);
        for boundary in stripes.chain((0..=1024).step_by(64)) {
            for at in boundary.saturating_sub(9)..=boundary + 9 {
                splits.insert(at);
                splits.insert(LEN - at);
            }
        }
        for k in Crc32c::all() {
            for &split in &splits {
                let mut h = Crc32cHasher::with_kernel(k);
                h.update(preamble);
                h.update(&body[..split]);
                h.update(&body[split..]);
                assert_eq!(h.finalize(), want, "tier {} split {split}", k.name());
            }
        }
    }

    /// A pin is a promise about which tier runs: when `SDR_CRC32C_KERNEL`
    /// names one, it is the active tier — on a host that cannot honour the
    /// pin this fails instead of testing another tier under its name.
    #[test]
    fn a_pinned_tier_is_the_active_one() {
        if let Ok(pin) = std::env::var("SDR_CRC32C_KERNEL") {
            assert_eq!(Crc32c::active().name(), pin);
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        let want = crc32c(&data);
        for split in [0usize, 1, 7, 8, 9, 500, 999, 1000] {
            let mut h = Crc32cHasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn single_bit_flip_always_detected() {
        // CRC32C detects every 1-bit error by construction; this pins the
        // property the corruption→loss reclassification leans on.
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let clean = crc32c(&data);
        let mut flipped = data.clone();
        for bit in [0usize, 1, 7, 100, 1000, 2047] {
            flipped.copy_from_slice(&data);
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&flipped), clean, "bit {bit}");
        }
    }
}
