//! Quickstart: the Table 1 API end to end.
//!
//! Builds two simulated nodes, connects an SDR queue pair, transfers a
//! message over a lossless link, then repeats over a lossy link to show the
//! core SDR feature: the receive bitmap reports exactly which chunks are
//! missing, and a streaming retransmission repairs them.
//!
//! Run with: `cargo run --release --example quickstart`

use sdr_rdma::core::testkit::{pattern, sdr_pair};
use sdr_rdma::core::SdrConfig;
use sdr_rdma::sim::{LinkConfig, LossModel};

fn main() {
    // --- 1. Lossless transfer -------------------------------------------
    let cfg = SdrConfig {
        max_msg_bytes: 1 << 20,
        msg_slots: 8,
        chunk_bytes: 64 * 1024, // one bitmap bit per 16 packets
        ..SdrConfig::default()
    };
    let mut p = sdr_pair(LinkConfig::intra_dc(8e9), cfg, 16 << 20);
    let data = pattern(1 << 20, 42);
    let src = p.ctx_a.alloc_buffer(1 << 20);
    let dst = p.ctx_b.alloc_buffer(1 << 20);
    p.ctx_a.write_buffer(src, &data);

    // Receiver posts a buffer (this sends the clear-to-send credit) …
    let rh = p
        .qp_b
        .recv_post(&mut p.eng, dst, data.len() as u64)
        .unwrap();
    // … sender fires a one-shot send with a user immediate …
    let sh = p
        .qp_a
        .send_post(&mut p.eng, src, data.len() as u64, Some(0xFEED_F00D))
        .unwrap();
    p.eng.run();

    assert!(p.qp_a.send_poll(&sh).unwrap());
    assert!(p.qp_b.recv_is_complete(&rh).unwrap());
    assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
    println!(
        "lossless: 1 MiB delivered, immediate = {:#x?}, completed at {}",
        p.qp_b.recv_imm_get(&rh).unwrap().unwrap(),
        p.eng.now()
    );
    p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();

    // --- 2. Lossy transfer: partial completion + repair ------------------
    let cfg = SdrConfig {
        max_msg_bytes: 1 << 20,
        msg_slots: 8,
        chunk_bytes: 64 * 1024,
        ..SdrConfig::default()
    };
    let link = LinkConfig::intra_dc(8e9)
        .with_loss(LossModel::Iid { p: 0.03 })
        .with_seed(7);
    let mut p = sdr_pair(link, cfg, 16 << 20);
    let src = p.ctx_a.alloc_buffer(1 << 20);
    let dst = p.ctx_b.alloc_buffer(1 << 20);
    p.ctx_a.write_buffer(src, &data);

    let rh = p
        .qp_b
        .recv_post(&mut p.eng, dst, data.len() as u64)
        .unwrap();
    p.eng.run(); // let the CTS arrive
    let sh = p
        .qp_a
        .send_stream_start(&mut p.eng, src, data.len() as u64, None)
        .unwrap();
    p.qp_a
        .send_stream_continue(&mut p.eng, &sh, 0, data.len() as u64, |_, _| {})
        .unwrap();
    p.eng.run();

    // The partial completion bitmap: this is SDR's contribution.
    let bm = p.qp_b.recv_bitmap(&rh).unwrap();
    let missing = bm.chunks().missing_in_first_n(bm.total_chunks());
    println!(
        "lossy: {} of {} chunks arrived, missing {:?}",
        bm.chunks().count_set(),
        bm.total_chunks(),
        missing
    );

    // A reliability layer would now retransmit exactly those chunks.
    let mut rounds = 0;
    while !bm.is_complete() {
        rounds += 1;
        for c in bm.chunks().missing_in_first_n(bm.total_chunks()) {
            let off = c as u64 * 64 * 1024;
            let len = (64 * 1024).min(data.len() as u64 - off);
            p.qp_a
                .send_stream_continue(&mut p.eng, &sh, off, len, |_, _| {})
                .unwrap();
        }
        p.eng.run();
    }
    p.qp_a.send_stream_end(&sh).unwrap();
    assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
    println!("repaired in {rounds} retransmission round(s); data verified");
}
