//! Ablations of the SDR design choices the paper argues for:
//!
//! 1. **Per-packet Writes vs multi-packet UC messages** (§3.2.1): how often
//!    does a whole message die under loss/reordering with conventional ePSN
//!    semantics, vs per-packet delivery?
//! 2. **Generation count** (§3.3.2): how far can slot reuse outrun in-flight
//!    stragglers before stale completions would corrupt bitmaps?
//! 3. **Go-Back-N vs Selective Repeat** (§4): the model-level gap that
//!    justifies studying SR as the ARQ representative.

use bytes::Bytes;
use sdr_bench::{fmt, table_header, table_row};
use sdr_model::{gbn_summary, sr_summary, Channel, GbnConfig, SrConfig};
use sdr_sim::{Engine, Fabric, LinkConfig, LossModel, QpType, SimTime, WriteWr};

/// Ablation 1: deliver 100 × 40-packet messages over a lossy, reordering
/// link, with conventional multi-packet UC messages vs per-packet Writes.
fn epsn_ablation(p_drop: f64, jitter_us: u64, per_packet: bool, seed: u64) -> (u64, u64) {
    let mut eng = Engine::new();
    let fab = Fabric::new();
    let a = fab.add_node(1 << 22);
    let b = fab.add_node(1 << 22);
    let mut cfg = LinkConfig::intra_dc(8e9)
        .with_loss(LossModel::Iid { p: p_drop })
        .with_seed(seed);
    if jitter_us > 0 {
        cfg = cfg.with_reorder_jitter(SimTime::from_micros(jitter_us));
    }
    fab.link_duplex(a, b, cfg);
    let qa = fab.node_mut(a, |n| {
        let cq = n.create_cq();
        n.create_qp(QpType::Uc, cq, cq)
    });
    let qb = fab.node_mut(b, |n| {
        let cq = n.create_cq();
        n.create_qp(QpType::Uc, cq, cq)
    });
    let addr_a = sdr_sim::QpAddr { node: a, qp: qa };
    let addr_b = sdr_sim::QpAddr { node: b, qp: qb };
    fab.node_mut(a, |n| n.connect_qp(qa, addr_b));
    fab.node_mut(b, |n| n.connect_qp(qb, addr_a));
    let mr = fab.node_mut(b, |n| n.alloc_mr(1 << 20));

    let msg = Bytes::from(vec![7u8; 40 * 4096]);
    for _ in 0..100 {
        let wr = WriteWr {
            remote_mkey: mr.mkey,
            remote_offset: 0,
            data: msg.clone(),
            imm: Some(1),
            crc: None,
            wr_id: 0,
            signaled: false,
        };
        if per_packet {
            fab.post_uc_write_per_packet(&mut eng, addr_a, wr).unwrap();
        } else {
            fab.post_uc_write(&mut eng, addr_a, wr).unwrap();
        }
        eng.run();
    }
    fab.node(b, |n| (n.stats().writes_landed, n.stats().poisoned_msgs))
}

fn main() {
    println!("# Ablations — SDR design choices");

    table_header(
        "1. ePSN semantics: packets landed out of 4000 (100 × 40-pkt msgs)",
        &["scenario", "multi-packet UC", "per-packet SDR"],
    );
    for (label, p, jitter) in [
        ("0.5% loss, no reordering", 0.005, 0u64),
        ("0.5% loss + reordering", 0.005, 500),
        ("lossless + reordering", 0.0, 500),
    ] {
        let (multi, poisoned) = epsn_ablation(p, jitter, false, 42);
        let (per_pkt, _) = epsn_ablation(p, jitter, true, 42);
        table_row(&[
            label.to_string(),
            format!("{multi} ({poisoned} msgs poisoned)"),
            per_pkt.to_string(),
        ]);
    }
    println!(
        "Per-packet Writes lose only the dropped packets; conventional\n\
         multi-packet UC messages are poisoned wholesale by any PSN gap —\n\
         including pure reordering with zero loss (§2.3, §3.2.1)."
    );

    table_header(
        "2. Message-ID wraparound safety (§3.3.2)",
        &[
            "link rate",
            "msg size",
            "slots",
            "wraparound time [ms]",
            "safe RTT budget",
        ],
    );
    // Wraparound time = slots × msg_size / bandwidth; generations multiply it.
    for (bw, label) in [(400e9f64, "400 Gbit/s"), (800e9, "800 Gbit/s")] {
        for msg in [16u64 << 20, 1 << 20] {
            let wrap_ms = 1024.0 * msg as f64 * 8.0 / bw * 1e3;
            table_row(&[
                label.to_string(),
                sdr_bench::bytes_label(msg),
                "1024".into(),
                fmt(wrap_ms),
                format!("{} with 4 generations", fmt(4.0 * wrap_ms)),
            ]);
        }
    }
    println!(
        "The paper's example: 800 Gbit/s and 16 MiB messages wrap the 10-bit\n\
         ID space in ~100 ms (safe below 100 ms RTT); faster links or smaller\n\
         messages shrink the margin, and each extra generation buys a full\n\
         extra wraparound period."
    );

    table_header(
        "3. Go-Back-N vs Selective Repeat (128 MiB, 400 Gbit/s, 25 ms RTT)",
        &["P_drop", "GBN mean slowdown", "SR mean slowdown", "GBN/SR"],
    );
    for p in [1e-6, 1e-5, 1e-4] {
        let ch = Channel::new(400e9, 0.025, p);
        let ideal = ch.ideal_time(128 << 20);
        let gbn = gbn_summary(&ch, 128 << 20, &GbnConfig::bdp_window(&ch, 3.0), 4000, 1).mean;
        let sr = sr_summary(&ch, 128 << 20, &SrConfig::rto_multiple(&ch, 3.0), 4000, 1).mean;
        table_row(&[
            format!("{p:.0e}"),
            fmt(gbn / ideal),
            fmt(sr / ideal),
            fmt(gbn / sr),
        ]);
    }
    println!(
        "SR dominates GBN (Bertsekas–Gallager ordering): each drop costs GBN\n\
         a window re-injection on top of the timeout."
    );
}
