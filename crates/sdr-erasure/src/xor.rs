//! The paper's XOR modulo-group code (Section 5.1.1).
//!
//! Parity block `i` (of `m`) is the XOR of all data blocks `j` with
//! `j mod m == i`. Encoding is pure XOR — trivially vectorizable and ~2×
//! cheaper than MDS in the paper's Figure 11 — but each modulo group
//! tolerates only a **single** lost block, so resilience collapses at high
//! drop rates (the paper observes fallback at ≈1e-3 vs MDS beyond 1e-2).

use crate::codec::{decode_len, EcError, ErasureCode};
use crate::kernel::{Kernel, STRIP_BYTES};

/// Stack budget for fused-XOR source batches. Unlike Reed–Solomon, `k` is
/// **not** field-bounded for the XOR code, so groups larger than this are
/// folded in batches rather than assumed to fit.
const XOR_BATCH: usize = 256;

/// XORs all of `group`'s slices into `dst` through the fused kernel, in
/// stack-sized batches so arbitrarily large modulo groups stay safe.
fn xor_group_into<'a>(kern: &Kernel, dst: &mut [u8], group: impl Iterator<Item = &'a [u8]>) {
    let mut batch: [&[u8]; XOR_BATCH] = [&[]; XOR_BATCH];
    let mut n = 0;
    for src in group {
        batch[n] = src;
        n += 1;
        if n == XOR_BATCH {
            kern.xor_multi(dst, &batch[..n]);
            n = 0;
        }
    }
    if n > 0 {
        kern.xor_multi(dst, &batch[..n]);
    }
}

/// The XOR modulo-group code `XOR(k, m)`.
#[derive(Clone, Copy, Debug)]
pub struct XorCode {
    k: usize,
    m: usize,
}

impl XorCode {
    /// Builds an `XOR(k, m)` code.
    ///
    /// # Panics
    /// Panics unless `1 ≤ m ≤ k`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(m >= 1 && m <= k, "need 1 ≤ m ≤ k");
        XorCode { k, m }
    }

    /// Data indices belonging to modulo group `i`.
    fn group(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.k).filter(move |j| j % self.m == i)
    }
}

impl ErasureCode for XorCode {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.m
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        assert_eq!(parity.len(), self.m, "expected {} parity shards", self.m);
        let len = data[0].len();
        assert!(data.iter().all(|d| d.len() == len), "ragged data shards");
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(p.len(), len, "ragged parity shard {i}");
        }
        // Cache-blocked fused XOR: each ~32 KiB parity strip is written
        // once per batch while its modulo-group sources stream through.
        let kern = Kernel::active();
        let mut s = 0;
        while s < len {
            let e = (s + STRIP_BYTES).min(len);
            for (i, p) in parity.iter_mut().enumerate() {
                let dst = &mut p[s..e];
                dst.fill(0);
                xor_group_into(kern, dst, self.group(i).map(|j| &data[j][s..e]));
            }
            s = e;
        }
    }

    fn encode_row(&self, data: &[&[u8]], row: usize, out: &mut [u8]) {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        out.fill(0);
        xor_group_into(Kernel::active(), out, self.group(row).map(|j| data[j]));
    }

    fn can_recover(&self, present: &[bool]) -> bool {
        if present.len() != self.k + self.m {
            return false;
        }
        (0..self.m).all(|i| {
            let missing_data = self.group(i).filter(|&j| !present[j]).count();
            let parity_present = present[self.k + i];
            // One missing data block is repairable iff the group's parity
            // arrived; with zero missing the parity doesn't matter.
            missing_data == 0 || (missing_data == 1 && parity_present)
        })
    }

    /// Rebuilds each erased data shard as its group's parity ⊕ the
    /// group's surviving data shards.
    fn reconstruct_data(
        &self,
        shards: &[Option<&[u8]>],
        missing: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        decode_len(shards, missing, self.k, self.k + self.m)?;
        if !(0..self.m).all(|i| {
            let missing_data = self.group(i).filter(|&j| shards[j].is_none()).count();
            missing_data == 0 || (missing_data == 1 && shards[self.k + i].is_some())
        }) {
            return Err(EcError::Unrecoverable);
        }
        let kern = Kernel::active();
        let holes = (0..self.k).filter(|&j| shards[j].is_none());
        for (out, hole) in missing.iter_mut().zip(holes) {
            let group = hole % self.m;
            out.copy_from_slice(shards[self.k + group].expect("checked above"));
            xor_group_into(
                kern,
                out,
                self.group(group)
                    .filter(|&j| j != hole)
                    .map(|j| shards[j].expect("one hole per group")),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn make(k: usize, m: usize, len: usize) -> (XorCode, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let code = XorCode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(17);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs);
        (code, data, parity)
    }

    fn as_shards(data: &[Vec<u8>], parity: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        data.iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect()
    }

    #[test]
    fn one_loss_per_group_recovers() {
        let (code, data, parity) = make(8, 4, 100);
        // Erase data 0 (group 0), 5 (group 1), 6 (group 2): one per group.
        let mut shards = as_shards(&data, &parity);
        for e in [0usize, 5, 6] {
            shards[e] = None;
        }
        code.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "shard {i}");
        }
    }

    #[test]
    fn two_losses_in_same_group_fail() {
        let (code, data, parity) = make(8, 4, 100);
        // Data 0 and 4 are both in group 0 (0 % 4 == 4 % 4).
        let mut shards = as_shards(&data, &parity);
        shards[0] = None;
        shards[4] = None;
        assert_eq!(code.reconstruct(&mut shards), Err(EcError::Unrecoverable));
        assert!(!code.can_recover(&[
            false, true, true, true, false, true, true, true, true, true, true, true
        ]));
    }

    #[test]
    fn lost_parity_alone_is_fine() {
        let (code, data, parity) = make(6, 3, 64);
        let mut shards = as_shards(&data, &parity);
        shards[6] = None;
        shards[8] = None;
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[6].as_ref().unwrap(), &parity[0]);
        assert_eq!(shards[8].as_ref().unwrap(), &parity[2]);
        let _ = data;
    }

    #[test]
    fn lost_parity_plus_data_in_same_group_fails() {
        let (code, data, parity) = make(6, 3, 64);
        let mut shards = as_shards(&data, &parity);
        shards[0] = None; // group 0 data
        shards[6] = None; // group 0 parity
        assert_eq!(code.reconstruct(&mut shards), Err(EcError::Unrecoverable));
        let _ = data;
        let _ = parity;
    }

    #[test]
    fn parity_is_group_xor() {
        let (code, data, parity) = make(4, 2, 16);
        let _ = code;
        // Group 0: data 0 ^ data 2; group 1: data 1 ^ data 3.
        for b in 0..16 {
            assert_eq!(parity[0][b], data[0][b] ^ data[2][b]);
            assert_eq!(parity[1][b], data[1][b] ^ data[3][b]);
        }
    }

    #[test]
    fn groups_larger_than_one_batch_encode_and_recover() {
        // k is not field-bounded for the XOR code: with (k, m) = (600, 2)
        // each modulo group holds 300 > XOR_BATCH/2 members, and the fused
        // path must batch rather than overrun its stack staging array.
        let (code, data, parity) = make(600, 2, 96);
        // Parity is still the plain group XOR.
        for b in 0..96 {
            let want = (0..600)
                .filter(|j| j % 2 == 0)
                .fold(0u8, |a, j| a ^ data[j][b]);
            assert_eq!(parity[0][b], want, "byte {b}");
        }
        // And single-loss recovery works through the batched path.
        let mut shards = as_shards(&data, &parity);
        shards[4] = None; // group 0
        shards[7] = None; // group 1
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[4].as_ref().unwrap(), &data[4]);
        assert_eq!(shards[7].as_ref().unwrap(), &data[7]);
        // So does the parity refill, byte-identical to the encode.
        let mut shards = as_shards(&data, &parity);
        shards[600] = None; // group 0's parity
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[600].as_ref().unwrap(), &parity[0]);
    }

    #[test]
    fn paper_config_32_8_tolerates_spread_losses() {
        let (code, data, parity) = make(32, 8, 64);
        // 8 losses, one in each modulo group: 0..8 are in groups 0..8
        let mut shards = as_shards(&data, &parity);
        for e in 0..8 {
            shards[e] = None;
        }
        code.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d);
        }
    }
}
