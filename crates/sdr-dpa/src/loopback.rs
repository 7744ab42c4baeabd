//! Loopback stress harness — the `ib_write_bw`-style benchmark of §5.4.1.
//!
//! A generator (the "client") emulates the send side: for each in-flight
//! message it produces one packet-completion record per MTU and stripes them
//! across the worker rings. The host frontend (the "server") emulates a
//! reliability layer by busy-polling the completion bitmap of the oldest
//! in-flight Write, acking it (slot complete + repost) when all chunks have
//! arrived — including the repost cost (slot reallocation, bitmap cleanup)
//! that makes small messages slower than RC Writes in Figure 14.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::engine::{DpaConfig, DpaEngine};
use crate::ring::DpaCqe;
use crate::table::ProcessStats;

/// Loopback benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct LoopbackConfig {
    /// Engine shape (workers, slots, rings).
    pub dpa: DpaConfig,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Transport write (packet) size in bytes. The paper's line-rate tests
    /// use 4 KiB; the packet-rate stress tests use 64 B (§5.4.2–§5.4.3).
    pub mtu_bytes: u64,
    /// Bitmap chunk size in bytes.
    pub chunk_bytes: u64,
    /// In-flight Writes (16 in Figure 14).
    pub inflight: usize,
    /// Total messages to transfer.
    pub messages: u64,
    /// Probability the generator "drops" a packet (never enqueues its
    /// completion); the host retransmits from the bitmap.
    pub drop_rate: f64,
    /// Generator RNG seed.
    pub seed: u64,
    /// Batched repost: the host retires every completed in-flight slot per
    /// drain and reposts them in one [`DpaMsgTable::post_batch`] sweep
    /// (bitmap recycling included). `false` reproduces the one-at-a-time
    /// `post` baseline for A/B runs.
    pub batch_repost: bool,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        LoopbackConfig {
            dpa: DpaConfig::default(),
            msg_bytes: 16 << 20,
            mtu_bytes: 4096,
            chunk_bytes: 64 * 1024,
            inflight: 16,
            messages: 64,
            drop_rate: 0.0,
            seed: 1,
            batch_repost: false,
        }
    }
}

/// Results of a loopback run.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputReport {
    /// Messages completed.
    pub messages: u64,
    /// Packet completions dispatched (including retransmissions).
    pub packets: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Packet-processing rate (packets/s).
    pub pkts_per_sec: f64,
    /// Message goodput in Gbit/s (message bytes × 8 / elapsed).
    pub goodput_gbps: f64,
    /// Messages per second (repost-rate bound for small messages).
    pub msgs_per_sec: f64,
    /// Merged worker statistics.
    pub stats: ProcessStats,
}

/// Runs the loopback benchmark to completion.
pub fn run_loopback(cfg: LoopbackConfig) -> ThroughputReport {
    assert!(cfg.inflight >= 1 && cfg.inflight <= cfg.dpa.msg_slots);
    assert!(cfg.chunk_bytes.is_multiple_of(cfg.mtu_bytes));
    let pkts_per_msg = cfg.msg_bytes.div_ceil(cfg.mtu_bytes).max(1) as usize;
    let pkts_per_chunk = (cfg.chunk_bytes / cfg.mtu_bytes) as u32;
    let layout = cfg.dpa.layout;
    assert!(
        pkts_per_msg <= layout.max_packet_offset() as usize + 1,
        "message too large for the immediate offset field"
    );

    let eng = DpaEngine::start(cfg.dpa);
    let table = eng.table().clone();
    let slots = table.slot_count();

    // Simple xorshift for drop decisions (cheap; off the measurement path
    // when drop_rate == 0).
    let mut rng_state = cfg.seed | 1;
    let mut coin = |p: f64| -> bool {
        if p <= 0.0 {
            return false;
        }
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        (rng_state >> 11) as f64 / (1u64 << 53) as f64 * 4096.0 % 1.0 < p
    };

    let mut inflight: VecDeque<(usize, u32)> = VecDeque::with_capacity(cfg.inflight);
    let mut next_seq = 0u64;
    let mut completed = 0u64;
    let mut packets = 0u64;
    // Reused batched-repost scratch (no allocation on the measured path).
    let mut reposts: Vec<crate::table::SlotPost> = Vec::with_capacity(cfg.inflight);
    let start = Instant::now();

    while completed < cfg.messages {
        // Fill the in-flight window (post + inject). In batched mode the
        // whole refill reposts through one `post_batch` sweep — the
        // symmetric counterpart of the workers' `process_batch` drain.
        reposts.clear();
        while inflight.len() + reposts.len() < cfg.inflight && next_seq < cfg.messages {
            let slot = (next_seq % slots as u64) as usize;
            let generation = (next_seq / slots as u64) as u32;
            reposts.push(crate::table::SlotPost {
                slot,
                generation,
                total_packets: pkts_per_msg,
                pkts_per_chunk,
            });
            next_seq += 1;
        }
        if cfg.batch_repost {
            table.post_batch(&reposts);
        } else {
            for p in &reposts {
                table.post(p.slot, p.generation, p.total_packets, p.pkts_per_chunk);
            }
        }
        for p in &reposts {
            for pkt in 0..pkts_per_msg {
                if coin(cfg.drop_rate) {
                    continue;
                }
                packets += 1;
                eng.dispatch(DpaCqe {
                    imm: layout.encode(p.slot as u32, pkt as u32, 0),
                    generation: p.generation,
                    null_write: false,
                });
            }
            inflight.push_back((p.slot, p.generation));
        }

        // Busy-poll the oldest Write's bitmap (the server loop of §5.4.1).
        let &(slot, generation) = inflight.front().expect("window non-empty");
        if table.is_complete(slot) {
            table.complete(slot); // "ACK" + release
            inflight.pop_front();
            completed += 1;
            // Batched mode: retire the whole run of completed slots behind
            // the front in the same drain, so the next refill reposts them
            // together in one sweep.
            if cfg.batch_repost {
                while let Some(&(s, _)) = inflight.front() {
                    if !table.is_complete(s) {
                        break;
                    }
                    table.complete(s);
                    inflight.pop_front();
                    completed += 1;
                }
            }
        } else if cfg.drop_rate > 0.0 && eng.backlog() == 0 {
            // Pipeline drained but chunks missing: retransmit from the
            // bitmap (what the SR layer would do after its RTO).
            for pkt in table.missing_packets(slot) {
                if coin(cfg.drop_rate) {
                    continue;
                }
                packets += 1;
                eng.dispatch(DpaCqe {
                    imm: layout.encode(slot as u32, pkt as u32, 0),
                    generation,
                    null_write: false,
                });
            }
        } else {
            std::hint::spin_loop();
        }
    }

    let elapsed = start.elapsed();
    let stats = eng.shutdown();
    let secs = elapsed.as_secs_f64().max(1e-9);
    ThroughputReport {
        messages: completed,
        packets,
        elapsed,
        pkts_per_sec: packets as f64 / secs,
        goodput_gbps: completed as f64 * cfg.msg_bytes as f64 * 8.0 / secs / 1e9,
        msgs_per_sec: completed as f64 / secs,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::imm::ImmLayout;

    fn quick_cfg() -> LoopbackConfig {
        LoopbackConfig {
            dpa: DpaConfig {
                workers: 2,
                msg_slots: 8,
                ring_capacity: 2048,
                layout: ImmLayout::default(),
            },
            msg_bytes: 256 * 1024,
            mtu_bytes: 4096,
            chunk_bytes: 64 * 1024,
            inflight: 4,
            messages: 32,
            drop_rate: 0.0,
            seed: 3,
            batch_repost: false,
        }
    }

    #[test]
    fn lossless_loopback_completes_exactly() {
        let r = run_loopback(quick_cfg());
        assert_eq!(r.messages, 32);
        assert_eq!(r.packets, 32 * 64); // 256 KiB / 4 KiB
        assert_eq!(r.stats.packets, r.packets);
        assert_eq!(r.stats.duplicates, 0);
        assert!(r.pkts_per_sec > 0.0);
        assert!(r.goodput_gbps > 0.0);
    }

    #[test]
    fn lossy_loopback_retransmits_to_completion() {
        let cfg = LoopbackConfig {
            drop_rate: 0.05,
            messages: 16,
            ..quick_cfg()
        };
        let r = run_loopback(cfg);
        assert_eq!(r.messages, 16);
        // Retransmissions mean more dispatches than the minimum...
        assert!(r.packets >= 16 * 64);
        // ...and every message still completed (bitmap-driven repair).
        assert_eq!(r.stats.bad_offset, 0);
    }

    #[test]
    fn small_messages_are_repost_bound() {
        // Figure 14's left panel: with 4 KiB messages the msgs/s rate is
        // limited by repost work, so per-message cost dwarfs per-packet
        // cost. Just verify the harness runs and counts sanely.
        let cfg = LoopbackConfig {
            msg_bytes: 4096,
            messages: 256,
            ..quick_cfg()
        };
        let r = run_loopback(cfg);
        assert_eq!(r.messages, 256);
        assert_eq!(r.packets, 256);
    }

    #[test]
    fn batched_repost_completes_like_baseline() {
        // The batched repost sweep must deliver the same message/packet
        // accounting as per-slot posts, lossless and lossy (where reposted
        // slots recycle dirty bitmaps).
        for drop_rate in [0.0, 0.05] {
            let base = run_loopback(LoopbackConfig {
                drop_rate,
                ..quick_cfg()
            });
            let batched = run_loopback(LoopbackConfig {
                drop_rate,
                batch_repost: true,
                ..quick_cfg()
            });
            assert_eq!(batched.messages, base.messages, "drop={drop_rate}");
            assert_eq!(batched.stats.bad_offset, 0);
            assert_eq!(batched.stats.generation_filtered, 0);
            if drop_rate == 0.0 {
                // Deterministic generator: identical packet counts.
                assert_eq!(batched.packets, base.packets);
                assert_eq!(batched.stats.packets, base.stats.packets);
                assert_eq!(batched.stats.duplicates, 0);
            }
        }
    }

    #[test]
    fn sixty_four_byte_packet_stress_mode() {
        // §5.4.2 methodology: 64 B transport writes scale the packet count.
        let cfg = LoopbackConfig {
            msg_bytes: 64 * 256,
            mtu_bytes: 64,
            chunk_bytes: 64 * 16,
            messages: 8,
            ..quick_cfg()
        };
        let r = run_loopback(cfg);
        assert_eq!(r.messages, 8);
        assert_eq!(r.packets, 8 * 256);
    }
}
