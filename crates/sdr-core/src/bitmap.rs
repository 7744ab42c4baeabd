//! Atomic bitmaps: the heart of SDR's partial message completion (§3.1.1).
//!
//! Two levels, mirroring the paper's backend/frontend split (§3.2.1):
//!
//! * a **per-packet bitmap** maintained by the backend (on hardware: in DPA
//!   memory) tracking individual packet arrivals, and
//! * a **chunk bitmap** exposed to the reliability layer (on hardware: in
//!   host memory), where a bit is set only when *all* packets of the chunk
//!   have arrived.
//!
//! Both are lock-free: DPA workers (or simulated backends) update them with
//! atomic fetch-or / fetch-add, and the reliability layer polls without
//! synchronization. Completion detection uses a per-chunk arrival counter so
//! the worker that lands the final packet of a chunk — and only that worker
//! — publishes the chunk bit, exactly like the receive DPA worker in §3.4.2.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A fixed-size lock-free bitmap.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
    bits: usize,
}

impl AtomicBitmap {
    /// Creates a bitmap of `bits` zeroed bits.
    pub fn new(bits: usize) -> Self {
        let words = (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitmap { words, bits }
    }

    /// Capacity in bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True when the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Sets bit `i`; returns `true` if it was previously clear.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        let prev = self.words[i / 64].fetch_or(1 << (i % 64), Ordering::AcqRel);
        prev & (1 << (i % 64)) == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64].load(Ordering::Acquire) & (1 << (i % 64)) != 0
    }

    /// Clears every bit (slot recycling on repost, §5.4.1).
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Release);
        }
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// True when the first `n` bits are all set.
    pub fn first_n_set(&self, n: usize) -> bool {
        debug_assert!(n <= self.bits);
        let full_words = n / 64;
        for w in &self.words[..full_words] {
            if w.load(Ordering::Acquire) != u64::MAX {
                return false;
            }
        }
        let rem = n % 64;
        if rem == 0 {
            return true;
        }
        let mask = (1u64 << rem) - 1;
        self.words[full_words].load(Ordering::Acquire) & mask == mask
    }

    /// Calls `f` with the index of every clear bit among the first `n`
    /// (the drops a reliability layer must repair), in ascending order.
    ///
    /// This is the allocation-free workhorse behind
    /// [`missing_in_first_n`](Self::missing_in_first_n): reliability
    /// layers poll bitmaps every fraction of an RTT, and building a fresh
    /// `Vec` per poll turns a read-only scan into steady-state garbage.
    pub fn for_each_missing_in_first_n(&self, n: usize, mut f: impl FnMut(usize)) {
        for (wi, w) in self.words.iter().enumerate() {
            let base = wi * 64;
            if base >= n {
                break;
            }
            let val = w.load(Ordering::Acquire);
            let upto = (n - base).min(64);
            let mut missing = !val;
            while missing != 0 {
                let b = missing.trailing_zeros() as usize;
                if b >= upto {
                    break;
                }
                f(base + b);
                missing &= missing - 1;
            }
        }
    }

    /// Indices of clear bits among the first `n`, collected into a `Vec`.
    /// Prefer [`for_each_missing_in_first_n`](Self::for_each_missing_in_first_n)
    /// on hot paths.
    pub fn missing_in_first_n(&self, n: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_missing_in_first_n(n, |i| out.push(i));
        out
    }

    /// Highest index `c` such that bits `0..c` are all set (the cumulative
    /// ACK point of §4.1.1), limited to the first `n` bits.
    pub fn cumulative_prefix(&self, n: usize) -> usize {
        let mut c = 0;
        for (wi, w) in self.words.iter().enumerate() {
            let base = wi * 64;
            if base >= n {
                break;
            }
            let val = w.load(Ordering::Acquire);
            if val == u64::MAX {
                c = (base + 64).min(n);
                continue;
            }
            let first_clear = (!val).trailing_zeros() as usize;
            c = (base + first_clear).min(n);
            break;
        }
        c
    }

    /// Highest set bit index, if any bit is set — the receive high-water
    /// mark telemetry scans against (everything below it either arrived or
    /// was lost on its first pass).
    pub fn highest_set(&self) -> Option<usize> {
        for (wi, w) in self.words.iter().enumerate().rev() {
            let val = w.load(Ordering::Acquire);
            if val != 0 {
                return Some(wi * 64 + 63 - val.leading_zeros() as usize);
            }
        }
        None
    }

    /// Number of set bits among the first `n` — one atomic load per 64
    /// bits, so range occupancy (`count_set_in_first_n(hi) −
    /// count_set_in_first_n(lo)`) stays cheap on poll cadences.
    pub fn count_set_in_first_n(&self, n: usize) -> usize {
        debug_assert!(n <= self.bits);
        let full_words = n / 64;
        let mut c: usize = self.words[..full_words]
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum();
        let rem = n % 64;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            c += (self.words[full_words].load(Ordering::Acquire) & mask).count_ones() as usize;
        }
        c
    }

    /// Copies out the raw words (for ACK encoding).
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect()
    }

    /// Sets every bit of `mask` in word `word` with a single atomic RMW,
    /// returning the word's previous value — the batched form of
    /// [`set`](Self::set) used by the DPA batch-completion path (one
    /// `fetch_or` per up-to-64 packets instead of one per packet).
    ///
    /// # Panics
    /// Debug-asserts that `mask` stays within the bitmap's final word.
    #[inline]
    pub fn set_word_bits(&self, word: usize, mask: u64) -> u64 {
        debug_assert!(word < self.words.len());
        debug_assert!(
            word * 64 + (64 - mask.leading_zeros() as usize) <= self.bits || mask == 0,
            "mask exceeds bitmap length"
        );
        self.words[word].fetch_or(mask, Ordering::AcqRel)
    }
}

/// Backend per-packet bitmap + frontend chunk bitmap, coupled by per-chunk
/// arrival counters.
#[derive(Debug)]
pub struct TwoLevelBitmap {
    packet_bits: AtomicBitmap,
    chunk_bits: AtomicBitmap,
    chunk_arrivals: Box<[AtomicU32]>,
    packets_per_chunk: u32,
    total_packets: usize,
    total_chunks: usize,
}

impl TwoLevelBitmap {
    /// Creates bitmaps for a message of `total_packets` packets with
    /// `packets_per_chunk` packets per frontend chunk (the last chunk may be
    /// partial).
    pub fn new(total_packets: usize, packets_per_chunk: u32) -> Self {
        assert!(packets_per_chunk >= 1);
        assert!(total_packets >= 1);
        let total_chunks = total_packets.div_ceil(packets_per_chunk as usize);
        TwoLevelBitmap {
            packet_bits: AtomicBitmap::new(total_packets),
            chunk_bits: AtomicBitmap::new(total_chunks),
            chunk_arrivals: (0..total_chunks).map(|_| AtomicU32::new(0)).collect(),
            packets_per_chunk,
            total_packets,
            total_chunks,
        }
    }

    /// Total packets tracked.
    pub fn total_packets(&self) -> usize {
        self.total_packets
    }

    /// Total frontend chunks.
    pub fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Packets per frontend chunk (the shape parameter a slot-recycling
    /// repost compares before reusing this bitmap in place).
    pub fn packets_per_chunk(&self) -> u32 {
        self.packets_per_chunk
    }

    /// Packets expected in chunk `c` (handles the partial last chunk).
    pub fn chunk_target(&self, c: usize) -> u32 {
        debug_assert!(c < self.total_chunks);
        if c + 1 == self.total_chunks {
            let rem = self.total_packets as u32 - c as u32 * self.packets_per_chunk;
            rem.min(self.packets_per_chunk)
        } else {
            self.packets_per_chunk
        }
    }

    /// Records the arrival of packet `pkt`. Returns `Some(chunk)` when this
    /// packet completes its chunk (the caller then owns publishing the
    /// chunk bit — already done here — and any host notification).
    /// Duplicate arrivals are idempotent.
    pub fn record_packet(&self, pkt: usize) -> Option<usize> {
        debug_assert!(pkt < self.total_packets, "packet {pkt} out of range");
        if !self.packet_bits.set(pkt) {
            return None; // duplicate (retransmitted chunk overlap)
        }
        let chunk = pkt / self.packets_per_chunk as usize;
        let arrived = self.chunk_arrivals[chunk].fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.chunk_target(chunk) {
            self.chunk_bits.set(chunk);
            Some(chunk)
        } else {
            None
        }
    }

    /// Records a whole word's worth of packet arrivals in one pass: one
    /// `fetch_or` on the packet bitmap, one `fetch_add` per spanned chunk
    /// (instead of per packet), and `on_chunk` called for every chunk this
    /// batch completes. Returns `(newly_recorded, duplicate)` packet
    /// counts. Semantically identical to calling
    /// [`record_packet`](Self::record_packet) for each set bit of `mask`
    /// — the §3.4.2 invariant (exactly one completion observation per
    /// chunk, across racing workers) is preserved because arrival counts
    /// come from the atomic `fetch_or`'s delta.
    ///
    /// `mask` bits must lie within `total_packets` (debug-asserted).
    pub fn record_packet_word(
        &self,
        word: usize,
        mask: u64,
        mut on_chunk: impl FnMut(usize),
    ) -> (u32, u32) {
        if mask == 0 {
            return (0, 0);
        }
        let base = word * 64;
        debug_assert!(
            base + (64 - mask.leading_zeros() as usize) <= self.total_packets,
            "packet mask out of range"
        );
        let prev = self.packet_bits.set_word_bits(word, mask);
        let new_bits = mask & !prev;
        let dups = (mask & prev).count_ones();
        if new_bits == 0 {
            return (0, dups);
        }
        let ppc = self.packets_per_chunk as usize;
        let lo_chunk = (base + new_bits.trailing_zeros() as usize) / ppc;
        let hi_chunk = (base + 63 - new_bits.leading_zeros() as usize) / ppc;
        for c in lo_chunk..=hi_chunk {
            // Bits of this word belonging to chunk `c`.
            let s = (c * ppc).max(base) - base;
            let e = ((c + 1) * ppc).min(base + 64) - base;
            let chunk_mask = if e - s == 64 {
                u64::MAX
            } else {
                ((1u64 << (e - s)) - 1) << s
            };
            let arrived_here = (new_bits & chunk_mask).count_ones();
            if arrived_here == 0 {
                continue;
            }
            let arrived =
                self.chunk_arrivals[c].fetch_add(arrived_here, Ordering::AcqRel) + arrived_here;
            if arrived == self.chunk_target(c) {
                self.chunk_bits.set(c);
                on_chunk(c);
            }
        }
        (new_bits.count_ones(), dups)
    }

    /// The frontend chunk bitmap polled by reliability layers.
    pub fn chunks(&self) -> &AtomicBitmap {
        &self.chunk_bits
    }

    /// The backend per-packet bitmap.
    pub fn packets(&self) -> &AtomicBitmap {
        &self.packet_bits
    }

    /// True when every chunk is complete.
    pub fn is_complete(&self) -> bool {
        self.chunk_bits.first_n_set(self.total_chunks)
    }

    /// Resets all state for slot reuse (the repost cost measured in §5.4.1).
    pub fn reset(&self) {
        self.packet_bits.clear_all();
        self.chunk_bits.clear_all();
        for c in self.chunk_arrivals.iter() {
            c.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_and_count() {
        let b = AtomicBitmap::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(129), "second set reports already-set");
        assert!(b.get(64));
        assert!(!b.get(1));
        assert_eq!(b.count_set(), 3);
        b.clear_all();
        assert_eq!(b.count_set(), 0);
    }

    #[test]
    fn highest_set_and_ranged_counts() {
        let b = AtomicBitmap::new(200);
        assert_eq!(b.highest_set(), None);
        assert_eq!(b.count_set_in_first_n(200), 0);
        b.set(3);
        b.set(64);
        b.set(131);
        assert_eq!(b.highest_set(), Some(131));
        assert_eq!(b.count_set_in_first_n(3), 0);
        assert_eq!(b.count_set_in_first_n(4), 1);
        assert_eq!(b.count_set_in_first_n(64), 1);
        assert_eq!(b.count_set_in_first_n(65), 2);
        assert_eq!(b.count_set_in_first_n(131), 2);
        assert_eq!(b.count_set_in_first_n(132), 3);
        assert_eq!(b.count_set_in_first_n(200), 3);
        // Range occupancy by subtraction (the telemetry first-pass scan).
        assert_eq!(b.count_set_in_first_n(132) - b.count_set_in_first_n(4), 2);
    }

    #[test]
    fn first_n_set_handles_word_boundaries() {
        let b = AtomicBitmap::new(130);
        for i in 0..130 {
            b.set(i);
        }
        assert!(b.first_n_set(130));
        assert!(b.first_n_set(64));
        assert!(b.first_n_set(65));
        let b2 = AtomicBitmap::new(130);
        for i in 0..129 {
            b2.set(i);
        }
        assert!(!b2.first_n_set(130));
        assert!(b2.first_n_set(129));
    }

    #[test]
    fn missing_and_cumulative() {
        let b = AtomicBitmap::new(100);
        for i in 0..100 {
            if i != 7 && i != 70 {
                b.set(i);
            }
        }
        assert_eq!(b.missing_in_first_n(100), vec![7, 70]);
        assert_eq!(b.cumulative_prefix(100), 7);
        b.set(7);
        assert_eq!(b.cumulative_prefix(100), 70);
        b.set(70);
        assert_eq!(b.cumulative_prefix(100), 100);
    }

    #[test]
    fn missing_scan_variants_agree() {
        // Holes straddling word boundaries, at 0, and at the very end.
        let b = AtomicBitmap::new(200);
        let holes = [0usize, 63, 64, 65, 127, 128, 199];
        for i in 0..200 {
            if !holes.contains(&i) {
                b.set(i);
            }
        }
        for n in [1usize, 63, 64, 65, 100, 128, 199, 200] {
            let collected = b.missing_in_first_n(n);
            let mut via_closure = Vec::new();
            b.for_each_missing_in_first_n(n, |i| via_closure.push(i));
            let expect: Vec<usize> = holes.iter().copied().filter(|&h| h < n).collect();
            assert_eq!(collected, expect, "n={n}");
            assert_eq!(via_closure, expect, "n={n}");
        }
    }

    #[test]
    fn missing_scan_on_empty_and_full() {
        let b = AtomicBitmap::new(130);
        let mut all = 0;
        b.for_each_missing_in_first_n(130, |_| all += 1);
        assert_eq!(all, 130, "all clear → all missing");
        for i in 0..130 {
            b.set(i);
        }
        let mut calls = 0;
        b.for_each_missing_in_first_n(130, |_| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn two_level_chunk_completion_fires_once() {
        // Figure 4's example: 4 packets, 2 per chunk.
        let t = TwoLevelBitmap::new(4, 2);
        assert_eq!(t.record_packet(0), None);
        assert_eq!(t.record_packet(1), Some(0), "chunk 0 complete");
        assert!(t.chunks().get(0));
        assert!(!t.chunks().get(1));
        assert_eq!(t.record_packet(3), None);
        assert_eq!(t.record_packet(2), Some(1));
        assert!(t.is_complete());
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let t = TwoLevelBitmap::new(4, 2);
        assert_eq!(t.record_packet(0), None);
        assert_eq!(t.record_packet(0), None, "duplicate ignored");
        assert_eq!(t.record_packet(0), None);
        assert_eq!(t.record_packet(1), Some(0));
        assert_eq!(t.record_packet(1), None);
    }

    #[test]
    fn partial_last_chunk() {
        // 5 packets, 2 per chunk → chunks of 2, 2, 1.
        let t = TwoLevelBitmap::new(5, 2);
        assert_eq!(t.total_chunks(), 3);
        assert_eq!(t.chunk_target(0), 2);
        assert_eq!(t.chunk_target(2), 1);
        assert_eq!(t.record_packet(4), Some(2), "single-packet chunk");
        assert!(!t.is_complete());
    }

    #[test]
    fn drop_burst_masked_within_chunk() {
        // §3.1.1: with 16-packet chunks, dropping 7 packets inside one chunk
        // appears to the upper layer as a single chunk drop.
        let t = TwoLevelBitmap::new(32, 16);
        for p in 0..32 {
            // Drop packets 3..10 (all inside chunk 0).
            if !(3..10).contains(&p) {
                t.record_packet(p);
            }
        }
        assert!(!t.chunks().get(0));
        assert!(t.chunks().get(1));
        assert_eq!(t.chunks().missing_in_first_n(2), vec![0]);
    }

    #[test]
    fn reset_recycles_slot() {
        let t = TwoLevelBitmap::new(4, 2);
        t.record_packet(0);
        t.record_packet(1);
        t.reset();
        assert_eq!(t.packets().count_set(), 0);
        assert_eq!(t.chunks().count_set(), 0);
        assert_eq!(t.record_packet(1), None);
        assert_eq!(t.record_packet(0), Some(0), "counter reset too");
    }

    #[test]
    fn record_packet_word_matches_per_packet_reference() {
        // Word-batched recording must be observationally identical to the
        // per-packet path: same bitmaps, same chunk completions, same
        // duplicate counts — across chunk sizes straddling word boundaries.
        for &ppc in &[3u32, 16, 64, 100] {
            let total = 200usize;
            let batched = TwoLevelBitmap::new(total, ppc);
            let reference = TwoLevelBitmap::new(total, ppc);
            // Deterministic scattered arrival pattern with duplicates.
            let mut state = 0x1234_5678u64;
            let mut arrivals: Vec<usize> = Vec::new();
            for _ in 0..300 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                arrivals.push((state >> 33) as usize % total);
            }
            let mut ref_chunks = Vec::new();
            for &p in &arrivals {
                if let Some(c) = reference.record_packet(p) {
                    ref_chunks.push(c);
                }
            }
            // Batch the same arrivals word by word, in arrival order per
            // word (duplicates collapse inside a word's mask, so feed each
            // occurrence as its own word-call to keep counts comparable).
            let mut got_chunks = Vec::new();
            let mut new_total = 0u32;
            let mut dup_total = 0u32;
            for &p in &arrivals {
                let (n, d) =
                    batched.record_packet_word(p / 64, 1u64 << (p % 64), |c| got_chunks.push(c));
                new_total += n;
                dup_total += d;
            }
            got_chunks.sort_unstable();
            ref_chunks.sort_unstable();
            assert_eq!(got_chunks, ref_chunks, "ppc={ppc}");
            assert_eq!(
                batched.packets().snapshot_words(),
                reference.packets().snapshot_words(),
                "ppc={ppc}"
            );
            assert_eq!(
                batched.chunks().snapshot_words(),
                reference.chunks().snapshot_words(),
                "ppc={ppc}"
            );
            assert_eq!(new_total as usize + dup_total as usize, arrivals.len());
        }
    }

    #[test]
    fn record_packet_word_full_word_mask_spanning_chunks() {
        // One call covering 64 packets across several 16-packet chunks:
        // all spanned chunks complete in a single batch.
        let t = TwoLevelBitmap::new(128, 16);
        let mut done = Vec::new();
        let (n, d) = t.record_packet_word(0, u64::MAX, |c| done.push(c));
        assert_eq!((n, d), (64, 0));
        assert_eq!(done, vec![0, 1, 2, 3]);
        // Re-recording the same word is all duplicates, no new chunks.
        let (n, d) = t.record_packet_word(0, u64::MAX, |_| panic!("no new chunks"));
        assert_eq!((n, d), (0, 64));
        assert!(!t.is_complete());
        let (n, _) = t.record_packet_word(1, u64::MAX, |_| {});
        assert_eq!(n, 64);
        assert!(t.is_complete());
    }

    #[test]
    fn concurrent_word_batches_complete_each_chunk_exactly_once() {
        // Racing word-granular writers (the batched DPA workers): every
        // chunk still publishes exactly once.
        let t = Arc::new(TwoLevelBitmap::new(64 * 1024, 16));
        let completions = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for worker in 0..4u64 {
                let t = t.clone();
                let completions = completions.clone();
                s.spawn(move || {
                    // Each worker owns a striped set of nibbles in every
                    // word, so words are contended but bits are disjoint.
                    let nibble_mask: u64 = (0..16)
                        .map(|i| 0xFu64 << (i * 4))
                        .enumerate()
                        .filter(|(i, _)| (*i as u64) % 4 == worker)
                        .map(|(_, m)| m)
                        .fold(0, |a, m| a | m);
                    for word in 0..(64 * 1024 / 64) {
                        let (new, dup) = t.record_packet_word(word, nibble_mask, |_| {
                            completions.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!((new, dup), (16, 0), "disjoint bits must all be new");
                    }
                });
            }
        });
        assert!(t.is_complete());
        assert_eq!(completions.load(Ordering::Relaxed), 4096);
    }

    #[test]
    fn concurrent_workers_complete_each_chunk_exactly_once() {
        // The §3.4.2 invariant: across racing workers, exactly one observes
        // each chunk completion.
        let t = Arc::new(TwoLevelBitmap::new(64 * 1024, 16));
        let completions = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for worker in 0..4 {
                let t = t.clone();
                let completions = completions.clone();
                s.spawn(move || {
                    // Interleaved packet ranges: worker w takes pkt % 4 == w.
                    for pkt in (worker..64 * 1024).step_by(4) {
                        if t.record_packet(pkt).is_some() {
                            completions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(completions.load(Ordering::Relaxed), 4096);
        assert!(t.is_complete());
    }
}
