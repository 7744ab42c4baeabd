//! Differential validation of the Go-Back-N protocol against the
//! closed-form `sdr-model::gbn` baseline — the same protocol-vs-model
//! methodology the paper applies to SR (§4.2), extended to the third
//! scheme. Three checks:
//!
//! * the DES completion time tracks the model mean across loss/RTT points
//!   within ±15% — the window-aware model charges one `RTO + rewind`
//!   round per rewind *window* (with the first round's RTO overlapping
//!   the base injection), so shared-window repairs no longer need the old
//!   [0.5×, 2×] slack, and the receiver completes on the last arrival, not
//!   on its next poll, so the cadence no longer needs the last 5%;
//! * completion time is monotone in the loss rate;
//! * the Bertsekas–Gallager dominance the paper cites (§4): on a lossy WAN
//!   the full GBN protocol stack completes no faster than the SR stack,
//!   and rewinds re-inject strictly more chunks than SR retransmits.

mod common;

use common::{capture, took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_model::{gbn_summary, Channel, GbnConfig};
use sdr_reliability::{
    GbnProtoConfig, GbnReceiver, GbnReport, GbnSender, SrProtoConfig, SrReceiver, SrReport,
    SrSender,
};
use sdr_sim::LinkConfig;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

fn run_gbn(km: f64, p_drop: f64, seed: u64, msg: u64) -> GbnReport {
    let link = LinkConfig::wan(km, 8e9, p_drop).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg(), msg, seed);
    let model_ch = h.model_channel(8e9, p_drop);
    let proto = GbnProtoConfig::bdp_window(&model_ch, h.rtt, 3.0);

    let (report, cb) = capture::<GbnReport>();
    GbnSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        cb,
    );
    GbnReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        |_e, _t| {},
    );
    h.run(60_000_000);
    assert!(
        h.delivered_ok(),
        "km={km} p={p_drop} seed={seed}: delivery intact"
    );
    took(&report, "GBN sender")
}

fn run_sr(km: f64, p_drop: f64, seed: u64, msg: u64) -> SrReport {
    let link = LinkConfig::wan(km, 8e9, p_drop).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg(), msg, seed);
    let proto = SrProtoConfig::rto_3rtt(h.rtt);

    let (report, cb) = capture::<SrReport>();
    SrSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        cb,
    );
    SrReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        |_e, _t| {},
    );
    h.run(60_000_000);
    took(&report, "SR sender")
}

/// Model mean for the same deployment the DES runs.
fn model_mean(km: f64, p_drop: f64, msg: u64, seed: u64) -> f64 {
    let rtt = sdr_sim::rtt_from_km(km).as_secs_f64();
    let ch = Channel::new(8e9, rtt, p_drop);
    gbn_summary(&ch, msg, &GbnConfig::bdp_window(&ch, 3.0), 6000, seed).mean
}

/// The DES protocol tracks the closed-form model within ±15% across a
/// loss × RTT grid (it reads 1.02, 0.87, 0.98, 1.11 on the four points).
/// The window-aware model repairs every hole a rewind window spans in one
/// serialized `RTO + rewind` round (retransmitted copies re-drop
/// independently) and overlaps the first round's RTO with the base
/// injection — leaving only genuinely unmodeled protocol overheads (the
/// cumulative ACK's RTT/4 cadence while the base is stuck, per-packet
/// headers, detection jitter), which fit inside the band.
#[test]
fn gbn_protocol_tracks_model_completion_time() {
    let msg = 4u64 << 20; // 64 chunks
    let points = [
        // (km, p_drop) — loss × RTT grid, lossless anchor included.
        (100.0, 0.0),
        (25.0, 0.005),
        (100.0, 0.0015),
        (200.0, 0.001),
    ];
    for (km, p_drop) in points {
        let model = model_mean(km, p_drop, msg, 77);
        // Average several seeds: a DES run is one sample of the same
        // stochastic process the model summarizes.
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let des: f64 = seeds
            .iter()
            .map(|&s| run_gbn(km, p_drop, s, msg).duration.as_secs_f64())
            .sum::<f64>()
            / seeds.len() as f64;
        eprintln!(
            "gbn differential km={km} p={p_drop}: DES {des:.5}s vs model {model:.5}s \
             (ratio {:.2})",
            des / model
        );
        assert!(
            des >= model * 0.85 && des <= model * 1.15,
            "km={km} p={p_drop}: DES {des:.5}s vs model {model:.5}s outside ±15%"
        );
    }
}

/// Completion time grows with the loss rate (the model's shape).
#[test]
fn gbn_completion_monotone_in_loss() {
    let msg = 2u64 << 20;
    let t0 = run_gbn(100.0, 0.0, 9, msg).duration;
    let t1 = run_gbn(100.0, 0.02, 9, msg).duration;
    assert!(
        t1 > t0,
        "2% loss ({t1}) must cost more than lossless ({t0})"
    );
}

/// The §4 dominance gap on a lossy WAN: SR's selective repair beats GBN's
/// window rewinds in both completion time and bytes re-injected.
#[test]
fn sr_dominates_gbn_on_lossy_wan() {
    let msg = 2u64 << 20;
    let (km, p_drop) = (100.0, 0.01);
    let mut gbn_total = 0.0;
    let mut sr_total = 0.0;
    let mut gbn_chunks = 0u64;
    let mut sr_chunks = 0u64;
    for seed in [11u64, 12, 13] {
        let g = run_gbn(km, p_drop, seed, msg);
        let s = run_sr(km, p_drop, seed, msg);
        assert!(g.rewinds > 0, "seed {seed}: 1% loss must rewind");
        gbn_total += g.duration.as_secs_f64();
        sr_total += s.duration.as_secs_f64();
        gbn_chunks += g.retransmitted;
        sr_chunks += s.retransmitted;
    }
    assert!(
        gbn_total >= sr_total,
        "GBN {gbn_total:.5}s must not beat SR {sr_total:.5}s"
    );
    assert!(
        gbn_chunks > sr_chunks,
        "GBN re-injects whole windows ({gbn_chunks} chunks) where SR repairs \
         holes ({sr_chunks} chunks)"
    );
}
