//! Concurrency stress for the DPA engine: random interleavings across
//! workers with losses, duplicates and stale generations must never corrupt
//! the bitmaps — the final missing set always matches a single-threaded
//! reference.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdr_core::imm::ImmLayout;
use sdr_dpa::{DpaConfig, DpaCqe, DpaEngine};

#[test]
fn random_interleavings_with_drops_and_duplicates() {
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let eng = DpaEngine::start(DpaConfig {
            workers: 4,
            msg_slots: 8,
            ring_capacity: 8192,
            layout: ImmLayout::default(),
        });
        let l = eng.table().layout();
        let total = 2048usize;
        eng.table().post(2, 7, total, 16);

        // Build the stream: each packet 0–2 times (drop/dup), plus stale
        // generation noise, then shuffle.
        let mut stream: Vec<DpaCqe> = Vec::new();
        let mut expect_missing: Vec<usize> = Vec::new();
        for pkt in 0..total {
            let copies = match rng.random_range(0..10) {
                0 => 0, // dropped
                1..=7 => 1,
                _ => 2, // duplicated (retransmission overlap)
            };
            if copies == 0 {
                expect_missing.push(pkt);
            }
            for _ in 0..copies {
                stream.push(DpaCqe {
                    imm: l.encode(2, pkt as u32, 0),
                    generation: 7,
                    null_write: false,
                });
            }
            if rng.random_range(0..20) == 0 {
                stream.push(DpaCqe {
                    imm: l.encode(2, pkt as u32, 0),
                    generation: 6, // stale
                    null_write: false,
                });
            }
        }
        stream.shuffle(&mut rng);
        for cqe in stream {
            eng.dispatch(cqe);
        }
        // Drain.
        while eng.backlog() > 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        let missing = eng.table().missing_packets(2);
        let st = eng.shutdown();
        assert_eq!(missing, expect_missing, "seed {seed}");
        assert_eq!(
            st.packets as usize,
            total - expect_missing.len(),
            "seed {seed}: each surviving packet counted once"
        );
        assert_eq!(st.bad_offset, 0);
    }
}

#[test]
fn parallel_messages_do_not_interfere() {
    let eng = DpaEngine::start(DpaConfig {
        workers: 3,
        msg_slots: 16,
        ring_capacity: 8192,
        layout: ImmLayout::default(),
    });
    let l = eng.table().layout();
    // 16 concurrent messages, interleaved packet streams.
    for slot in 0..16 {
        eng.table().post(slot, 1, 256, 8);
    }
    for pkt in 0..256u32 {
        for slot in 0..16u32 {
            eng.dispatch(DpaCqe {
                imm: l.encode(slot, pkt, 0),
                generation: 1,
                null_write: false,
            });
        }
    }
    for slot in 0..16 {
        while !eng.table().is_complete(slot) {
            std::thread::yield_now();
        }
    }
    let st = eng.shutdown();
    assert_eq!(st.packets, 16 * 256);
    assert_eq!(st.chunks, 16 * 32);
    assert_eq!(st.duplicates, 0);
}

/// The batched datapath must be observationally identical to one-at-a-time
/// processing: same stats, same missing sets — across adversarial streams
/// mixing slots, duplicates, stale generations, nulls and bad offsets.
#[test]
fn process_batch_matches_single_cqe_reference() {
    use sdr_dpa::{DpaMsgTable, ProcessStats};

    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xBA7C + seed);
        let layout = ImmLayout::default();
        let batched = DpaMsgTable::new(4, layout);
        let reference = DpaMsgTable::new(4, layout);
        for t in [&batched, &reference] {
            t.post(0, 3, 500, 16); // straddles word boundaries (500 pkts)
            t.post(2, 1, 64, 64);
        }

        let mut stream: Vec<DpaCqe> = Vec::new();
        for _ in 0..3000 {
            let slot = *[0u32, 0, 0, 2, 3].choose(&mut rng).unwrap(); // 3 = never posted
            let (total, generation) = match slot {
                0 => (500u32, 3u32),
                2 => (64, 1),
                _ => (500, 0),
            };
            let pkt = rng.random_range(0..total + 8); // +8 → bad offsets
            let generation = if rng.random_range(0..10) == 0 {
                generation.wrapping_sub(1) // stale
            } else {
                generation
            };
            stream.push(DpaCqe {
                imm: layout.encode(slot, pkt, 0),
                generation,
                null_write: rng.random_range(0..40) == 0,
            });
        }

        let mut batch_stats = ProcessStats::default();
        // Random batch boundaries, including batches of 1.
        let mut i = 0;
        while i < stream.len() {
            let end = (i + rng.random_range(1usize..200)).min(stream.len());
            batched.process_batch(&stream[i..end], &mut batch_stats);
            i = end;
        }
        let mut ref_stats = ProcessStats::default();
        for &cqe in &stream {
            reference.process(cqe, &mut ref_stats);
        }

        assert_eq!(batch_stats, ref_stats, "seed {seed}");
        for slot in [0usize, 2] {
            assert_eq!(
                batched.missing_packets(slot),
                reference.missing_packets(slot),
                "seed {seed} slot {slot}"
            );
        }
    }
}

/// The drain size is an engine constant, not an outcome: the same
/// completions fed to the table one at a time (the pre-batching behavior)
/// and in slices of the engine's 256 land the same final state under loss
/// and duplication.
#[test]
fn batch_budget_does_not_change_outcomes() {
    use sdr_dpa::{DpaMsgTable, ProcessStats};

    for budget in [1usize, 4, 256] {
        let l = ImmLayout::default();
        let table = DpaMsgTable::new(8, l);
        let total = 2048usize;
        table.post(1, 2, total, 16);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut stream: Vec<DpaCqe> = Vec::new();
        let mut expect_missing: Vec<usize> = Vec::new();
        for pkt in 0..total {
            let copies = match rng.random_range(0..10) {
                0 => 0,
                1..=7 => 1,
                _ => 2,
            };
            if copies == 0 {
                expect_missing.push(pkt);
            }
            for _ in 0..copies {
                stream.push(DpaCqe {
                    imm: l.encode(1, pkt as u32, 0),
                    generation: 2,
                    null_write: false,
                });
            }
        }
        stream.shuffle(&mut rng);
        let mut st = ProcessStats::default();
        for slice in stream.chunks(budget) {
            table.process_batch(slice, &mut st);
        }
        assert_eq!(table.missing_packets(1), expect_missing, "budget {budget}");
        assert_eq!(
            st.packets as usize,
            total - expect_missing.len(),
            "budget {budget}"
        );
    }
}

/// Batched reposts racing live workers: while workers drain completions
/// for active slots, the host retires + `post_batch`-recycles completed
/// slots (same shape → in-place bitmap reset). Every message epoch must
/// complete exactly, with stale-generation leakage filtered — proving the
/// recycled bitmap is indistinguishable from a fresh allocation under
/// concurrency.
#[test]
fn batched_repost_races_with_workers() {
    use sdr_dpa::SlotPost;

    let eng = DpaEngine::start(DpaConfig {
        workers: 4,
        msg_slots: 4,
        ring_capacity: 8192,
        layout: ImmLayout::default(),
    });
    let l = eng.table().layout();
    let total = 256usize;
    let epochs = 40u32;
    let mut reposts: Vec<SlotPost> = (0..4)
        .map(|slot| SlotPost {
            slot,
            generation: 0,
            total_packets: total,
            pkts_per_chunk: 16,
        })
        .collect();
    eng.table().post_batch(&reposts);
    for gen in 0..epochs {
        // Inject all four slots' packets, plus stale noise from the
        // previous epoch that must be filtered by the recycled slots.
        for pkt in 0..total as u32 {
            for slot in 0..4u32 {
                eng.dispatch(DpaCqe {
                    imm: l.encode(slot, pkt, 0),
                    generation: gen,
                    null_write: false,
                });
                if gen > 0 && pkt % 64 == 0 {
                    eng.dispatch(DpaCqe {
                        imm: l.encode(slot, pkt, 0),
                        generation: gen - 1, // stale
                        null_write: false,
                    });
                }
            }
        }
        for slot in 0..4 {
            while !eng.table().is_complete(slot) {
                std::thread::yield_now();
            }
        }
        // Retire + batch-repost the whole table for the next epoch while
        // stale completions may still be in flight.
        for slot in 0..4 {
            eng.table().complete(slot);
        }
        for p in reposts.iter_mut() {
            p.generation = gen + 1;
        }
        if gen + 1 < epochs {
            eng.table().post_batch(&reposts);
        }
    }
    let st = eng.shutdown();
    assert_eq!(st.packets, 4 * total as u64 * epochs as u64);
    assert_eq!(st.chunks, 4 * (total as u64 / 16) * epochs as u64);
    assert_eq!(st.bad_offset, 0);
    // All stale injections were either filtered by generation or counted
    // as duplicates within their own epoch — never recorded as packets.
    assert!(st.generation_filtered > 0, "stale noise must be filtered");
}
