//! A fixed integer hasher for the maps looked up once per packet or per
//! datagram: the fabric's link table, node memory's block tables, and the
//! layers' QP, peer and flow tables.
//!
//! Their keys are node ids, QP addresses, flow ids and block addresses.
//! std's default SipHash costs more than the probe itself there and buys
//! nothing: no key is chosen by an adversary, and iteration order cannot
//! reach the simulation (the default `RandomState` already changes it from
//! process to process, and every seeded run is reproducible). [`IntHasher`]
//! folds each integer a key writes into its state with one 64 × 64 → 128-bit
//! multiply whose halves are XORed together, so the bucket index (low bits)
//! and the tag (high bits) both depend on every input bit: block addresses
//! aligned to large powers of two spread as well as sequential ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`IntHasher`] (build with `IntMap::default()`).
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// 2⁶⁴ / φ: odd, with its bits spread across the word.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fixed, unkeyed hasher behind [`IntMap`] (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * u128::from(MUL);
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
}

impl Hasher for IntHasher {
    /// Byte strings (no key here writes one) fold a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(b.into());
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(x.into());
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn aligned_and_sequential_keys_spread_over_low_and_high_bits() {
        // 4 KiB-aligned addresses and small sequential ids: 1024 keys each
        // must land in nearly 1024 distinct buckets of a 1024-bucket
        // table (low bits) and use most of the 128 tag values (top 7 bits).
        for keys in [
            (0..1024u64).map(|i| i << 12).collect::<Vec<_>>(),
            (0..1024u64).collect(),
        ] {
            let buckets: std::collections::HashSet<u64> =
                keys.iter().map(|&k| hash(k) & 1023).collect();
            let tags: std::collections::HashSet<u64> =
                keys.iter().map(|&k| hash(k) >> 57).collect();
            assert!(buckets.len() > 600, "{} buckets", buckets.len());
            assert!(tags.len() > 120, "{} tags", tags.len());
        }
    }

    #[test]
    fn tuple_keys_depend_on_every_field() {
        assert_ne!(hash((1u32, 2u32)), hash((2u32, 1u32)));
        assert_ne!(hash((0u32, 1u64)), hash((0u32, 2u64)));
        let mut m: IntMap<(u32, u64), u64> = IntMap::default();
        for a in 0..16u32 {
            for b in 0..16u64 {
                m.insert((a, b), a as u64 * 16 + b);
            }
        }
        assert_eq!(m.len(), 256);
        assert_eq!(m[&(3, 9)], 57);
    }
}
