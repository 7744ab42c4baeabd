//! Arithmetic over GF(2^8) with the AES-friendly reduction polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the field used by Reed–Solomon
//! storage codes.
//!
//! Tables are generated at compile time: a 512-entry exponent table (doubled
//! to skip the `mod 255` in multiplication), a log table, and the full
//! 256×256 product table used by the hot slice kernels.

const fn build_exp_log() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        // Multiply x by the generator (2) with reduction by 0x11D.
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11D;
        }
        i += 1;
    }
    // Duplicate so exp[log a + log b] needs no modulo.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_exp_log();
/// `EXP[i] = g^i` for `i` in `0..512` (period 255, duplicated).
pub static EXP: [u8; 512] = TABLES.0;
/// `LOG[x] = log_g(x)` for nonzero `x`; `LOG[0]` is unused.
pub static LOG: [u8; 256] = TABLES.1;

const fn build_mul_table() -> [[u8; 256]; 256] {
    let (exp, log) = build_exp_log();
    let mut t = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let mut b = 1usize;
        while b < 256 {
            t[a][b] = exp[log[a] as usize + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    t
}

/// Full product table: `MUL[a][b] = a·b` in GF(2^8). 64 KiB, fits in L2.
pub static MUL: [[u8; 256]; 256] = build_mul_table();

/// Field addition (= subtraction): XOR.
#[inline(always)]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline(always)]
pub fn mul(a: u8, b: u8) -> u8 {
    MUL[a as usize][b as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics on `a == 0`, which has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let d = LOG[a as usize] as usize + 255 - LOG[b as usize] as usize;
    EXP[d]
}

/// Exponentiation `a^n`.
#[inline]
pub fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as u64 * n as u64) % 255;
    EXP[l as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_are_inverse() {
        for x in 1..=255u16 {
            let x = x as u8;
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
    }

    #[test]
    fn multiplication_matches_schoolbook() {
        // Carry-less multiply with reduction, bit by bit.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
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
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                assert_eq!(
                    mul(a as u8, b as u8),
                    slow_mul(a as u8, b as u8),
                    "{a} * {b}"
                );
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u16 {
            let a = a as u8;
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(div(a, a), 1);
        }
        // Distributivity spot checks.
        for (a, b, c) in [(3u8, 7u8, 9u8), (200, 131, 77), (255, 254, 253)] {
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 7, 130, 255] {
            let mut acc = 1u8;
            for n in 0..20u32 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inv_zero_panics() {
        inv(0);
    }
}
