//! Systematic Reed–Solomon coding — the paper's MDS scheme.
//!
//! An `RS(k, m)` code recovers the `k` data shards from **any** `k` of the
//! `k + m` transmitted shards (Maximum Distance Separable). The encode
//! matrix is derived from a Vandermonde matrix normalized so its top `k`
//! rows are the identity (systematic form), the standard construction used
//! by ISA-L and other storage codecs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::codec::{decode_len, EcError, ErasureCode};
use crate::kernel::{Kernel, STRIP_BYTES};
use crate::matrix::Matrix;

/// GF(256) bounds the shard count, so survivor/source reference arrays fit
/// on the stack — no per-call allocation in the encode path.
const MAX_SHARDS: usize = 256;

/// Decode-matrix cache entries retained per `(k, m)` shape (small: under
/// steady loss the survivor set repeats across polls, so a handful of
/// patterns covers almost every decode).
const DECODE_CACHE_CAP: usize = 8;

/// One decode cache per `(k, m)` shape, shared process-wide. The systematic
/// encode matrix is a pure function of the shape, so two independently
/// built `RS(k, m)` codes invert identical survivor submatrices — a striped
/// message decoding on many receivers (or the EC receiver's full-size and
/// tail codes across transfers) should pay each erasure pattern's O(k³)
/// inversion once, not once per code instance.
fn shared_decode_cache(k: usize, m: usize) -> Arc<DecodeCache> {
    static REGISTRY: OnceLock<Mutex<HashMap<(usize, usize), Arc<DecodeCache>>>> = OnceLock::new();
    let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut g = reg.lock().expect("decode-cache registry poisoned");
    g.entry((k, m))
        .or_insert_with(|| Arc::new(DecodeCache::new(DECODE_CACHE_CAP)))
        .clone()
}

/// An LRU of inverted `k × k` survivor submatrices, keyed by the survivor
/// index set. Reconstruction inverts the encode rows of the `k` shards it
/// holds — O(k³) work that repeats identically whenever the same erasure
/// pattern recurs, which is the common case under steady loss (the same
/// chunk positions of a striped message fail together, and the EC receiver
/// decodes many submessages with the same drop shape). Shared across
/// clones of the code and safe from the encode pool's worker threads.
struct DecodeCache {
    /// `(survivor indices, inverse)`, most-recently-used last.
    entries: Mutex<Vec<(Vec<u8>, Arc<Matrix>)>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecodeCache {
    fn new(cap: usize) -> Self {
        DecodeCache {
            entries: Mutex::new(Vec::with_capacity(cap)),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached inverse for `survivors`, or `invert()`'s result (cached
    /// on success). `None` when the submatrix is singular — never cached;
    /// with per-key success this cannot happen for MDS codes, but the
    /// cache stays agnostic.
    fn get_or_insert(
        &self,
        survivors: &[u8],
        invert: impl FnOnce() -> Option<Matrix>,
    ) -> Option<Arc<Matrix>> {
        if self.cap == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return invert().map(Arc::new);
        }
        {
            let mut e = self.entries.lock().expect("decode cache poisoned");
            if let Some(pos) = e.iter().position(|(key, _)| key.as_slice() == survivors) {
                let entry = e.remove(pos);
                let inv = entry.1.clone();
                e.push(entry); // move to MRU
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(inv);
            }
        }
        // Invert outside the lock: concurrent decoders of distinct
        // patterns don't serialize on the O(k³) work.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let inv = Arc::new(invert()?);
        let mut e = self.entries.lock().expect("decode cache poisoned");
        if !e.iter().any(|(key, _)| key.as_slice() == survivors) {
            if e.len() >= self.cap {
                e.remove(0); // evict LRU
            }
            e.push((survivors.to_vec(), inv.clone()));
        }
        Some(inv)
    }
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("cap", &self.cap)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

/// A systematic `RS(k, m)` Reed–Solomon code over GF(2^8).
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// Full `(k+m) × k` systematic encode matrix (top `k` rows identity).
    matrix: Matrix,
    /// Inverted survivor submatrices — the process-wide cache shared by
    /// every `RS(k, m)` of this shape (and all clones).
    decode_cache: Arc<DecodeCache>,
}

impl ReedSolomon {
    /// Builds an `RS(k, m)` code.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1`, `m ≥ 1` and `k + m ≤ 256` (the GF(256) field
    /// size bounds the number of distinct shards).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1 && m >= 1, "need at least one data and parity shard");
        assert!(k + m <= 256, "GF(256) supports at most 256 shards");
        let v = Matrix::vandermonde(k + m, k);
        let top_inv = v
            .select_rows(&(0..k).collect::<Vec<_>>())
            .inverse()
            .expect("leading Vandermonde square is invertible");
        let matrix = v.mul(&top_inv);
        // Sanity: systematic form.
        debug_assert!((0..k).all(|i| (0..k).all(|j| matrix[(i, j)] == u8::from(i == j))));
        ReedSolomon {
            k,
            m,
            matrix,
            decode_cache: shared_decode_cache(k, m),
        }
    }

    /// Decode-cache hit/miss counters (observability: a steady repeated
    /// erasure pattern must stop paying the O(k³) inversion).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (
            self.decode_cache.hits.load(Ordering::Relaxed),
            self.decode_cache.misses.load(Ordering::Relaxed),
        )
    }

    /// The parity row for parity shard `i`: the `k` coefficients applied
    /// to the data shards. Public so benchmarks and external encoders can
    /// drive the [`Kernel`] kernels directly.
    ///
    /// # Panics
    /// Panics when `i ≥ m`.
    pub fn parity_row(&self, i: usize) -> &[u8] {
        assert!(i < self.m, "parity row {i} out of range");
        self.matrix.row(self.k + i)
    }

    /// [`ErasureCode::encode_into`] through an explicit kernel tier — the
    /// single implementation of the cache-blocked strip walk. Production
    /// encoding passes [`Kernel::active`]; benchmarks pin tiers to compare
    /// them, guaranteed to measure the exact production code path.
    ///
    /// # Panics
    /// Panics when shard counts or lengths are inconsistent.
    pub fn encode_into_with_kernel(&self, kern: &Kernel, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        assert_eq!(parity.len(), self.m, "expected {} parity shards", self.m);
        let len = data[0].len();
        assert!(data.iter().all(|d| d.len() == len), "ragged data shards");
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(p.len(), len, "ragged parity shard {i}");
        }
        // Cache-blocked matrix walk: process ~32 KiB strips so each parity
        // strip stays in L1/L2 while all k sources stream through the fused
        // kernel exactly once per parity row.
        let mut strip_srcs: [&[u8]; MAX_SHARDS] = [&[]; MAX_SHARDS];
        let mut s = 0;
        while s < len {
            let e = (s + STRIP_BYTES).min(len);
            for (j, d) in data.iter().enumerate() {
                strip_srcs[j] = &d[s..e];
            }
            for (i, p) in parity.iter_mut().enumerate() {
                let dst = &mut p[s..e];
                dst.fill(0);
                kern.mul_add_multi(dst, &strip_srcs[..self.k], self.parity_row(i));
            }
            s = e;
        }
    }
}

impl ErasureCode for ReedSolomon {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.m
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        self.encode_into_with_kernel(Kernel::active(), data, parity);
    }

    fn encode_row(&self, data: &[&[u8]], row: usize, out: &mut [u8]) {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        out.fill(0);
        Kernel::active().mul_add_multi(out, data, self.parity_row(row));
    }

    fn can_recover(&self, present: &[bool]) -> bool {
        present.len() == self.k + self.m && present.iter().filter(|&&p| p).count() >= self.k
    }

    /// Rebuilds the erased data shards as `inv(rows of k survivors) ×
    /// survivors`, cache-blocked like the encode: each ~32 KiB output strip
    /// stays in L1/L2 while the `k` survivor strips stream through the fused
    /// kernel, once per output.
    fn reconstruct_data(
        &self,
        shards: &[Option<&[u8]>],
        missing: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        let len = decode_len(shards, missing, self.k, self.k + self.m)?;
        if missing.is_empty() {
            return Ok(());
        }
        // The first k survivors, kept as the decode-cache key: GF(256)
        // bounds indices to u8 and k + m, so it lives on the stack and the
        // only allocations left on this path are the k×k submatrix and its
        // inverse on a cache miss — O(k²) bytes, independent of the shard
        // length.
        let (mut key, mut held) = ([0u8; MAX_SHARDS], 0);
        for (i, _) in shards.iter().enumerate().filter(|(_, s)| s.is_some()) {
            if held == self.k {
                break;
            }
            key[held] = i as u8;
            held += 1;
        }
        if held < self.k {
            return Err(EcError::Unrecoverable);
        }
        let survivors = &key[..self.k];

        // The k×k submatrix inverse of the encode rows for the shards we
        // hold (data = inv(rows) × held_shards): O(k³) to build, so the
        // LRU keyed by the survivor set skips it when the erasure pattern
        // repeats.
        let inv = self
            .decode_cache
            .get_or_insert(survivors, || {
                let rows: Vec<usize> = survivors.iter().map(|&i| usize::from(i)).collect();
                self.matrix.select_rows(&rows).inverse()
            })
            .ok_or(EcError::Unrecoverable)?;

        let kern = Kernel::active();
        let mut strip_srcs: [&[u8]; MAX_SHARDS] = [&[]; MAX_SHARDS];
        let mut s = 0;
        while s < len {
            let e = (s + STRIP_BYTES).min(len);
            for (col, &src) in survivors.iter().enumerate() {
                strip_srcs[col] = &shards[usize::from(src)].expect("a survivor")[s..e];
            }
            let holes = (0..self.k).filter(|&d| shards[d].is_none());
            for (out, d) in missing.iter_mut().zip(holes) {
                let dst = &mut out[s..e];
                dst.fill(0);
                kern.mul_add_multi(dst, &strip_srcs[..self.k], inv.row(d));
            }
            s = e;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_shards(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect()
    }

    fn roundtrip(k: usize, m: usize, erase: &[usize]) {
        let code = ReedSolomon::new(k, m);
        let data = random_shards(k, 257, 99);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs);

        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        for &e in erase {
            shards[e] = None;
        }
        code.reconstruct(&mut shards).expect("recoverable");
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "data shard {i}");
        }
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(shards[k + i].as_ref().unwrap(), p, "parity shard {i}");
        }
    }

    #[test]
    fn recovers_any_m_erasures() {
        roundtrip(4, 2, &[0, 1]); // two data
        roundtrip(4, 2, &[4, 5]); // two parity
        roundtrip(4, 2, &[1, 5]); // mixed
        roundtrip(8, 3, &[0, 4, 7]);
        roundtrip(32, 8, &[0, 5, 9, 13, 20, 31, 33, 39]); // the paper's split
    }

    #[test]
    fn fails_beyond_m_erasures() {
        let code = ReedSolomon::new(4, 2);
        let data = random_shards(4, 64, 7);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(code.reconstruct(&mut shards), Err(EcError::Unrecoverable));
    }

    #[test]
    fn can_recover_counts_survivors() {
        let code = ReedSolomon::new(3, 2);
        assert!(code.can_recover(&[true, true, true, false, false]));
        assert!(code.can_recover(&[false, false, true, true, true]));
        assert!(!code.can_recover(&[false, false, true, true, false]));
        assert!(!code.can_recover(&[true, true])); // wrong length
    }

    #[test]
    fn parity_is_deterministic_and_nontrivial() {
        let code = ReedSolomon::new(3, 2);
        let data = random_shards(3, 128, 5);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p1 = code.encode(&refs);
        let p2 = code.encode(&refs);
        assert_eq!(p1, p2);
        assert_ne!(p1[0], p1[1], "distinct parity rows");
        assert!(p1[0].iter().any(|&b| b != 0));
    }

    #[test]
    fn zero_length_shards_are_rejected_by_reconstruct() {
        let code = ReedSolomon::new(2, 1);
        let mut shards: Vec<Option<Vec<u8>>> = vec![None, None, None];
        assert_eq!(code.reconstruct(&mut shards), Err(EcError::Unrecoverable));
    }

    #[test]
    fn ragged_shards_are_rejected() {
        let code = ReedSolomon::new(2, 1);
        let mut shards = vec![Some(vec![0u8; 4]), Some(vec![0u8; 5]), None];
        assert_eq!(code.reconstruct(&mut shards), Err(EcError::ShapeMismatch));
    }

    #[test]
    #[should_panic(expected = "at most 256 shards")]
    fn field_size_limit() {
        ReedSolomon::new(250, 10);
    }

    /// Erasure patterns drawn with repeats: every reconstruction through
    /// the decode-matrix cache must be byte-identical to the uncached
    /// baseline, and repeated patterns must hit the cache.
    #[test]
    fn decode_cache_differential_vs_uncached() {
        let (k, m) = (8usize, 3usize);
        // Private cache at the shipped capacity: the differential must not
        // see hits/misses other tests feed into the shared (8,3) cache.
        let cached = with_private_cache(ReedSolomon::new(k, m), DECODE_CACHE_CAP);
        let uncached = with_private_cache(ReedSolomon::new(k, m), 0);
        let data = random_shards(k, 513, 17);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = cached.encode(&refs);
        assert_eq!(parity, uncached.encode(&refs), "encode unaffected");

        let mut rng = SmallRng::seed_from_u64(23);
        // A few distinct patterns drawn repeatedly (steady-loss shape).
        let patterns: Vec<Vec<usize>> = (0..4)
            .map(|_| {
                let mut e: Vec<usize> = (0..k + m).collect();
                for i in 0..m {
                    let j = rng.random_range(i..k + m);
                    e.swap(i, j);
                }
                e.truncate(m);
                e
            })
            .collect();
        for round in 0..24 {
            let erase = &patterns[round % patterns.len()];
            let stage = |code: &ReedSolomon| {
                let mut shards: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(parity.iter().cloned().map(Some))
                    .collect();
                for &e in erase {
                    shards[e] = None;
                }
                code.reconstruct(&mut shards).expect("recoverable");
                shards
            };
            assert_eq!(
                stage(&cached),
                stage(&uncached),
                "round {round} pattern {erase:?}"
            );
        }
        let (hits, misses) = cached.decode_cache_stats();
        assert!(
            hits >= 20,
            "repeated patterns must hit the cache: {hits} hits / {misses} misses"
        );
        assert!(misses <= 4, "one miss per distinct pattern: {misses}");
        let (uh, _) = uncached.decode_cache_stats();
        assert_eq!(uh, 0, "capacity 0 disables caching");
    }

    /// Detaches `code` (and its clones) onto a private decode cache of
    /// `cap` entries; `0` caches nothing — the uncached reference the
    /// differential compares against.
    fn with_private_cache(mut code: ReedSolomon, cap: usize) -> ReedSolomon {
        code.decode_cache = Arc::new(DecodeCache::new(cap));
        code
    }

    /// Reconstructs with `erase`d shards through `code` (shards built from
    /// `data`/`parity`).
    fn decode_with(code: &ReedSolomon, data: &[Vec<u8>], parity: &[Vec<u8>], erase: &[usize]) {
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        for &e in erase {
            shards[e] = None;
        }
        code.reconstruct(&mut shards).expect("recoverable");
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "data shard {i}");
        }
    }

    /// Two *independently built* codes of the same shape share one decode
    /// cache: a pattern inverted through one is a hit through the other,
    /// and eviction happens in the one shared LRU. (Shape (10, 2) is used
    /// by no other test, so the counters are ours.)
    #[test]
    fn shared_cache_spans_instances_of_equal_shape_and_evicts() {
        let (k, m) = (10usize, 2usize);
        let a = ReedSolomon::new(k, m);
        let b = ReedSolomon::new(k, m);
        assert_eq!(a.decode_cache.cap, 8, "the shared cache's one capacity");
        let data = random_shards(k, 96, 41);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = a.encode(&refs);
        let (h0, m0) = a.decode_cache_stats();

        // Eight distinct patterns through `a` fill the shared cache...
        for i in 0..8 {
            decode_with(&a, &data, &parity, &[i, i + 1]);
        }
        // ...and are hits through the *other* instance.
        decode_with(&b, &data, &parity, &[0, 1]);
        // A ninth pattern through `b` evicts the shared LRU entry, which by
        // now is [1, 2] ([0, 1] was just touched).
        decode_with(&b, &data, &parity, &[9, 11]);
        decode_with(&a, &data, &parity, &[2, 3]); // hit: retained
        decode_with(&a, &data, &parity, &[1, 2]); // miss: evicted
        let (h1, m1) = a.decode_cache_stats();
        assert_eq!(
            (h1 - h0, m1 - m0),
            (2, 10),
            "shared hits/misses across instances"
        );
        let (hb, mb) = b.decode_cache_stats();
        assert_eq!((hb, mb), (h1, m1), "one cache, one counter set");
    }

    /// The LRU evicts the oldest pattern and clones share one cache.
    #[test]
    fn decode_cache_evicts_and_is_shared_across_clones() {
        let code = with_private_cache(ReedSolomon::new(4, 2), 2);
        let clone = code.clone();
        let data = random_shards(4, 64, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs);
        let run = |c: &ReedSolomon, erase: [usize; 2]| {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            for e in erase {
                shards[e] = None;
            }
            c.reconstruct(&mut shards).expect("recoverable");
        };
        run(&code, [0, 1]); // miss → cached
        run(&clone, [0, 1]); // hit through the clone (shared cache)
        run(&code, [2, 3]); // miss → cached
        run(&code, [0, 4]); // miss → evicts [0,1]'s survivors (LRU)
        run(&code, [0, 1]); // miss again (evicted)
        let (hits, misses) = code.decode_cache_stats();
        assert_eq!((hits, misses), (1, 4));
    }
}
