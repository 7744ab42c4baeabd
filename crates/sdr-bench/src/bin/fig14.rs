//! Figure 14 — SDR loopback throughput with 16 in-flight Writes and 64 KiB
//! bitmap chunks. Left: goodput vs message size (small messages are
//! repost-bound, large ones saturate). Right: receive-worker scaling at
//! 16 MiB messages.
//!
//! Substitution note: the paper measures 400 Gbit/s RoCEv2 on BlueField-3;
//! here the same receive datapath (generation check + two-level bitmap
//! update + chunk publication + repost) runs on host threads, so absolute
//! Gbit/s depends on the machine. The *shape* — repost-bound small
//! messages, saturation by ~512 KiB, near-linear worker scaling up to the
//! physical core count — is the reproduced result.

use sdr_bench::{bytes_label, fmt, table_header, table_row};
use sdr_core::ImmLayout;
use sdr_dpa::{run_loopback, DpaConfig, LoopbackConfig};

fn cfg(msg_bytes: u64, workers: usize, messages: u64) -> LoopbackConfig {
    LoopbackConfig {
        dpa: DpaConfig {
            workers,
            msg_slots: 64,
            ring_capacity: 8192,
            layout: ImmLayout::default(),
        },
        msg_bytes,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        inflight: 16,
        messages,
        drop_rate: 0.0,
        seed: 1,
        batch_repost: false,
    }
}

fn main() {
    println!("# Figure 14 — SDR loopback throughput (16 in-flight, 64 KiB chunks)");
    let smoke = sdr_bench::smoke();
    let scale = if smoke { 16 } else { 1 };

    table_header(
        "Left: throughput vs message size (2 receive workers)",
        &["message", "goodput [Gbit/s]", "messages/s", "pkts/s [M]"],
    );
    for shift in [16u32, 18, 19, 20, 22, 24, 26] {
        let msg = 1u64 << shift;
        // Scale message count so each row runs ~the same volume.
        let messages = (((1u64 << 32) / msg) / scale).clamp(8, 4096);
        let r = run_loopback(cfg(msg, 2, messages));
        table_row(&[
            bytes_label(msg),
            fmt(r.goodput_gbps),
            fmt(r.msgs_per_sec),
            fmt(r.pkts_per_sec / 1e6),
        ]);
    }
    println!(
        "Expected shape: throughput rises with message size — small messages\n\
         are bound by receive repost overhead (slot reallocation, key-table\n\
         update, bitmap cleanup) — and saturates by ~512 KiB (paper: line\n\
         rate at 512 KiB with 20 of 256 DPA threads)."
    );

    table_header(
        "Right: worker scaling at 16 MiB messages",
        &["receive workers", "goodput [Gbit/s]", "pkts/s [M]"],
    );
    for workers in [1usize, 2, 4, 8] {
        let r = run_loopback(cfg(16 << 20, workers, 192 / scale));
        table_row(&[
            workers.to_string(),
            fmt(r.goodput_gbps),
            fmt(r.pkts_per_sec / 1e6),
        ]);
    }
    println!(
        "Expected shape: near-linear scaling up to the physical core count\n\
         (2 on this host); beyond that, oversubscription flattens the curve."
    );
}
