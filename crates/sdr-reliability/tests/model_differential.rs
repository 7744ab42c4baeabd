//! Differential validation of the Selective Repeat protocol against
//! `sdr-model::sr` — what `gbn_differential` does for Go-Back-N, on the
//! benchmark's own link configurations. The paper's SR (§4.1.1, §5.2.1)
//! resends a chunk once per wire loss and repairs it in one round trip;
//! the model encodes exactly that, so the DES sender is held to both:
//!
//! * **work** — chunks retransmitted ≤ data packets the wire dropped (+ 2
//!   per transfer for repairs that cross an ACK already in flight): a
//!   sender that resends what was never lost fails here however fast it
//!   finishes;
//! * **time** — mean completion within [0.85, 1.10] of the model's
//!   analytic mean for SR-NACK on the same channel. The receiver acts on
//!   arrivals — a hole is reported one margin after wire order exposes it,
//!   completion the instant the last chunk lands — so what is left above 1
//!   (1.06 and 1.07 on the two 400G points) is headers, the margin and
//!   repairs queueing behind the first pass in the one device FIFO; the
//!   model charges a full RTT per repair where the DES overlaps repairs
//!   with the first pass, hence the room below (0.98 and 0.86 on the 8G
//!   points).

mod common;

use common::{capture, took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_model::{sr_mean_analytic, Channel, SrConfig};
use sdr_reliability::{SrProtoConfig, SrReceiver, SrReport, SrSender};
use sdr_sim::LinkConfig;

struct Point {
    name: &'static str,
    km: f64,
    bw: f64,
    p_drop: f64,
    mtu: u64,
    chunk: u64,
    msg: u64,
}

/// The benchmark's three SR links: `bulk_sr_4k`, `bulk_sr_256b` and the
/// `adaptive_step` link at its stepped rate and one notch past it.
const POINTS: [Point; 4] = [
    Point {
        name: "100km/400G/1e-4, 4 KiB MTU",
        km: 100.0,
        bw: 400e9,
        p_drop: 1e-4,
        mtu: 4096,
        chunk: 64 << 10,
        msg: 32 << 20,
    },
    Point {
        name: "100km/400G/1e-4, 256 B MTU",
        km: 100.0,
        bw: 400e9,
        p_drop: 1e-4,
        mtu: 256,
        chunk: 4096,
        msg: 16 << 20,
    },
    Point {
        name: "1000km/8G/3e-3",
        km: 1000.0,
        bw: 8e9,
        p_drop: 3e-3,
        mtu: 4096,
        chunk: 64 << 10,
        msg: 16 << 20,
    },
    Point {
        name: "1000km/8G/1e-2",
        km: 1000.0,
        bw: 8e9,
        p_drop: 1e-2,
        mtu: 4096,
        chunk: 64 << 10,
        msg: 16 << 20,
    },
];

const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// One SR-NACK transfer; returns the sender's report and the data packets
/// the forward link dropped (it carries nothing else: ACKs and CTS ride
/// the reverse direction).
fn run_sr(pt: &Point, seed: u64) -> (SrReport, u64) {
    let cfg = SdrConfig {
        max_msg_bytes: pt.msg,
        msg_slots: 16,
        mtu_bytes: pt.mtu,
        chunk_bytes: pt.chunk,
        ..SdrConfig::default()
    };
    let link = LinkConfig::wan(pt.km, pt.bw, pt.p_drop).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg, pt.msg, seed);
    let proto = SrProtoConfig::nack(h.rtt);
    let (report, cb) = capture::<SrReport>();
    SrReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        pt.msg,
        proto,
        |_e, _t| {},
    );
    SrSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        pt.msg,
        proto,
        cb,
    );
    h.run(200_000_000);
    assert!(h.delivered_ok(), "{} seed {seed}: delivery intact", pt.name);
    let dropped =
        h.p.fabric
            .link_stats(h.p.node_a, h.p.node_b)
            .expect("forward link")
            .dropped;
    (took(&report, "SR sender"), dropped)
}

#[test]
fn sr_nack_retransmits_what_the_wire_lost_and_tracks_the_model() {
    for pt in &POINTS {
        let (mut retx, mut lost, mut des) = (0, 0, 0.0);
        for seed in SEEDS {
            let (rep, dropped) = run_sr(pt, seed);
            assert!(rep.outcome.is_delivered(), "{} seed {seed}", pt.name);
            assert!(
                rep.retransmitted <= dropped + 2,
                "{} seed {seed}: {} chunks retransmitted for {dropped} dropped packets",
                pt.name,
                rep.retransmitted
            );
            retx += rep.retransmitted;
            lost += dropped;
            des += rep.duration.as_secs_f64() / SEEDS.len() as f64;
        }
        let rtt = sdr_sim::rtt_from_km(pt.km).as_secs_f64();
        let ch = Channel::new(pt.bw, rtt, pt.p_drop)
            .with_mtu_bytes(pt.mtu)
            .with_chunk_bytes(pt.chunk);
        let model = sr_mean_analytic(&ch, pt.msg, &SrConfig::nack(&ch));
        eprintln!(
            "sr differential {}: {retx} chunks retransmitted / {lost} packets dropped, \
             DES {des:.6}s vs model {model:.6}s (ratio {:.2})",
            pt.name,
            des / model
        );
        assert!(
            (0.85..=1.10).contains(&(des / model)),
            "{}: DES {des:.6}s vs model {model:.6}s outside [0.85, 1.10]",
            pt.name
        );
    }
}
