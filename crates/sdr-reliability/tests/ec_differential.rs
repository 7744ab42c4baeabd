//! Differential validation of the erasure-coding protocol against
//! `sdr-model::ec` — what `model_differential` does for Selective Repeat,
//! on the `bulk_ec_lossy` link (3750 km / 400G / 1e-2, MDS(32,8), 64 KiB
//! chunks). The paper's EC (§4.1.2, §4.2.3) resolves in place what parity
//! covers and selective-repeats, once, the submessages it does not; the
//! DES receiver is held to both halves:
//!
//! * **work** — every fallback round the receiver asks for is served once
//!   and only once (`EcReport.fallback_rounds` = NACK datagrams sent), a
//!   pass leaves one NACK, not one per submessage, and the bytes resent
//!   are what the NACKs named: submessages NACKed × submessage size. A
//!   receiver that re-NACKs a repair still in flight fails here however
//!   fast it finishes.
//! * **time** — against the model's own timeline, transfer by transfer.
//!   A transfer that needs no fallback must sit on the model's success
//!   path (wire time + one round trip). One that does is compared with the
//!   model's fallback path for the same number of failed submessages and a
//!   repair that arrives whole: `first arrival + FTO + RTT/2 + repair +
//!   RTT`. The DES must come in **below** it, by `β·RTT` less the margin:
//!   the model keeps the paper's `FTO = (M + ⌈M/R⌉)·T_INJ + β·RTT` on
//!   purpose — `fig03`/`fig10` reproduce the paper with it — while the DES
//!   receiver NACKs on wire order the moment the pass has gone by, one
//!   margin (`RTT/64`) after it, and keeps the FTO only for a tail nothing
//!   follows.
//!
//! The sampled model (`ec_summary`, what the advisor ranks EC by) is
//! printed next to the DES mean and held to a loose band only. It charges
//! the fallback far more than either timeline above: besides `β·RTT`, its
//! SR fallback wants *every* resent chunk delivered and pays an RTO per
//! re-drop, where the protocol needs any `k` of `k + m` present — at
//! p_chunk = 0.15 that is one to two RTOs per fallback. So the advisor
//! over-charges EC's fallback path; ROADMAP's fidelity item (c) records it
//! beside the SR under-rating.

mod common;

use common::{capture, first_pass_arrival, swallowing, took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_model::{ec_summary, wire_chunks, Channel, EcConfig, SrConfig};
use sdr_reliability::{
    EcCodeChoice, EcProtoConfig, EcReceiver, EcRecvStats, EcReport, EcSender, REPAIR_MARGIN_DIV,
};
use sdr_sim::{tx_time, Event, LinkConfig, LossModel, SimTime};

const KM: f64 = 3750.0;
const BW: f64 = 400e9;
const P_DROP: f64 = 1e-2;
const MTU: u64 = 4096;
const CHUNK: u64 = 64 << 10;
const K: usize = 32;
const M: usize = 8;
/// Eight submessages: about one fails per transfer (P ≈ 0.12 each).
const MSG: u64 = 16 << 20;
const SUBMESSAGE: u64 = K as u64 * CHUNK;
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

struct Run {
    report: EcReport,
    stats: EcRecvStats,
    /// Submessages NACKed, each time one was (`ec.nack.order` + `.timer`).
    nacked: u64,
    /// Of those, on a clock rather than on wire order.
    by_timer: u64,
    /// Data bytes the forward link carried beyond the first pass.
    resent_bytes: u64,
    /// The receiver's `ec-nack` events: one per submessage per NACK.
    nack_events: Vec<Event>,
    /// Send contexts left in the sender's QP after the run.
    live_sends: usize,
}

/// One EC transfer over `link`; the forward direction is additionally dark
/// during each of `blackouts` (`[from, to)`, absolute).
fn run_ec(link: LinkConfig, seed: u64, blackouts: &[(SimTime, SimTime)]) -> Run {
    let cfg = SdrConfig {
        max_msg_bytes: SUBMESSAGE,
        msg_slots: 64,
        mtu_bytes: MTU,
        chunk_bytes: CHUNK,
        ..SdrConfig::default()
    };
    let mut h = ProtoHarness::new(link.with_seed(seed), cfg, MSG, seed);
    // The model loses data, never a CTS, NACK or ACK: neither does the
    // reverse direction here (a lost final ACK costs one heartbeat, which
    // `control_path_loss` covers).
    let (a, b) = (h.p.node_a, h.p.node_b);
    h.p.fabric.set_link_loss(b, a, LossModel::Perfect);
    for &(from, to) in blackouts {
        h.black_out_forward(from, to);
    }
    let ch = h.model_channel(BW, P_DROP);
    let proto = EcProtoConfig::for_channel(K, M, EcCodeChoice::Mds, &ch, MSG, h.rtt);
    let (report, on_sent) = capture::<EcReport>();
    let (stats, on_recv) = capture::<EcRecvStats>();
    EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        MSG,
        proto,
        move |eng, _at, s| on_recv(eng, s),
    );
    EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        MSG,
        proto,
        on_sent,
    );
    h.run(200_000_000);
    assert!(h.delivered_ok(), "seed {seed}: delivery intact");
    // The forward link carries data packets only (CTS, NACKs and ACKs ride
    // the reverse direction), all of them one MTU.
    let sent = h.p.fabric.link_stats(h.p.node_a, h.p.node_b).unwrap().sent;
    let first_pass = (MSG + MSG / K as u64 * M as u64) / MTU;
    let reg = h.p.fabric.metrics();
    let by_timer = reg.counter_value("ec.nack.timer");
    let nack_events = h.p.fabric.recorder(b).events();
    Run {
        report: took(&report, "EC sender"),
        stats: took(&stats, "EC receiver"),
        nacked: reg.counter_value("ec.nack.order") + by_timer,
        by_timer,
        resent_bytes: (sent - first_pass) * MTU,
        nack_events: nack_events
            .into_iter()
            // (By label, so this file also builds against the tree before
            // the event existed, where the first directed test must fail.)
            .filter(|e| e.kind.label() == "ec-nack")
            .collect(),
        live_sends: h.p.qp_a.live_sends(),
    }
}

/// When first-pass data packet `n` (wire order `D0..D7, P0..P7`) reaches
/// the receiver on the lossless link.
fn arrives(n: u64) -> SimTime {
    first_pass_arrival(KM, BW, MTU, n)
}

const PKTS_PER_CHUNK: u64 = CHUNK / MTU;

/// Ten of submessage 1's 32 data chunks: 22 + 8 parity < 32, so it cannot
/// decode, and it is the only one touched.
fn ten_chunks_of_submessage_1() -> (SimTime, SimTime) {
    let first = (K as u64 + 2) * PKTS_PER_CHUNK;
    swallowing(KM, BW, MTU, first, first + 10 * PKTS_PER_CHUNK)
}

#[test]
fn a_fallback_is_served_once() {
    let link = LinkConfig::wan(KM, BW, 0.0);
    let r = run_ec(link, 1, &[ten_chunks_of_submessage_1()]);
    assert!(r.report.outcome.is_delivered());
    // The repair takes a round trip; the FTO on this link is 12.9 ms, and
    // re-arming with it re-NACKed the repair in flight (2 / 2 / 4 MiB).
    assert_eq!(r.stats.fallback_nacks, 1, "NACKs sent");
    assert_eq!(r.report.fallback_rounds, 1, "rounds served");
    assert_eq!(r.resent_bytes, SUBMESSAGE, "one submessage resent");
    // Nothing else was touched, and submessage 1 decodes as soon as the
    // repair has brought it two of its ten chunks back (24 + 8 = k).
    assert_eq!(r.stats.decoded_submessages, 1);
    // All 2L = 16 sends the transfer opened — the re-injected one among
    // them — were released when the positive ACK came.
    assert_eq!(r.live_sends, 0, "send contexts left after delivery");
}

#[test]
fn a_lost_repair_is_renacked_no_sooner_than_a_round_trip() {
    let link = LinkConfig::wan(KM, BW, 0.0);
    let rtt = sdr_sim::rtt_from_km(KM);
    let margin = rtt / REPAIR_MARGIN_DIV;
    // The first pass ends with packet 5119; the repair reaches the receiver
    // a round trip and the margin later. Everything that arrives in a
    // window around that instant is lost: the whole repair, nothing else.
    let pass_end = arrives((MSG + MSG / K as u64 * M as u64) / MTU - 1);
    let repair_lost = (pass_end + rtt - rtt / 8, pass_end + rtt + rtt / 8);
    let r = run_ec(link, 1, &[ten_chunks_of_submessage_1(), repair_lost]);
    assert!(r.report.outcome.is_delivered());
    assert_eq!(r.resent_bytes, 2 * SUBMESSAGE, "the repair, twice");
    assert_eq!(r.report.fallback_rounds, 2);
    let [first, second] = r.nack_events[..] else {
        panic!("two NACKs expected: {:?}", r.nack_events);
    };
    // The first cites order — the slot after submessage 1's parity (8 data
    // + 8 parity slots: P1 is slot 9) passed it, or P1's own last chunk —
    // and leaves one margin after the pass; the second cites the clock.
    assert_eq!((first.a, second.a), (1, 1));
    assert!(first.b == 9 || first.b == 10, "passed by slot {}", first.b);
    assert_eq!(second.b, u64::MAX);
    assert_eq!((r.nacked, r.by_timer), (2, 1));
    let first_at = SimTime(first.at_ps);
    assert!(
        first_at <= pass_end + margin,
        "{first_at:?} vs {pass_end:?}"
    );
    // Not before a round trip and the margin; and no later than that plus
    // the pass time the repair is allowed on the wire plus one heartbeat.
    let gap = SimTime(second.at_ps) - first_at;
    assert!(gap >= rtt + margin, "re-NACKed after {gap:?}");
    assert!(gap <= rtt + margin + rtt / 8 + tx_time(MSG * 5 / 4, BW) * 2);
}

#[test]
fn ec_falls_back_once_per_failed_submessage_and_tracks_the_model() {
    let rtt = sdr_sim::rtt_from_km(KM).as_secs_f64();
    let ch = Channel::new(BW, rtt, P_DROP)
        .with_mtu_bytes(MTU)
        .with_chunk_bytes(CHUNK);
    let ec = EcConfig::mds(K as u32, M as u32);
    let t_inj = ch.t_inj();
    let pass = wire_chunks(&ec, ch.chunks_for(MSG)) as f64 * t_inj;
    // The model's two timelines (`sdr_model::ec_sample` with the repair's
    // own losses left out).
    let success = pass + rtt;
    let fallback = |failed: u64| {
        let fto = pass + ec.beta * rtt;
        let first_arrival = t_inj + rtt / 2.0;
        first_arrival + fto + rtt / 2.0 + (failed * K as u64) as f64 * t_inj + rtt
    };
    let early = ec.beta * rtt - rtt / REPAIR_MARGIN_DIV as f64;

    let (mut des_mean, mut fallbacks) = (0.0, 0);
    for seed in SEEDS {
        let r = run_ec(LinkConfig::wan(KM, BW, P_DROP), seed, &[]);
        let des = r.report.duration.as_secs_f64();
        des_mean += des / SEEDS.len() as f64;
        assert!(r.report.outcome.is_delivered(), "seed {seed}");

        // Work.
        assert_eq!(
            r.report.fallback_rounds, r.stats.fallback_nacks,
            "seed {seed}: rounds served = rounds asked for"
        );
        assert!(
            r.stats.fallback_nacks <= u64::from(r.nacked > r.by_timer) + r.by_timer,
            "seed {seed}: {} NACKs for {} submessages ({} on a clock) — \
             one pass, one NACK",
            r.stats.fallback_nacks,
            r.nacked,
            r.by_timer
        );
        assert_eq!(
            r.resent_bytes,
            r.nacked * SUBMESSAGE,
            "seed {seed}: bytes resent are the submessages NACKed, once each"
        );

        // Time.
        let (model, band) = match r.nacked {
            0 => (success, 0.99..=1.01),
            n => (fallback(n) - early, 0.99..=1.01),
        };
        eprintln!(
            "ec differential seed {seed}: {} submessages NACKed ({} on a clock) in {} rounds, \
             DES {des:.6}s vs model timeline {model:.6}s (ratio {:.3})",
            r.nacked,
            r.by_timer,
            r.stats.fallback_nacks,
            des / model
        );
        if r.by_timer == 0 {
            assert!(
                band.contains(&(des / model)),
                "seed {seed}: DES {des:.6}s vs {model:.6}s outside {band:?}"
            );
            fallbacks += u32::from(r.nacked > 0);
        }
    }
    assert!(
        fallbacks >= 3,
        "the link should force fallbacks: {fallbacks}"
    );

    // The sampled model the advisor ranks EC by, most favourable fallback
    // (an SR that learns of a drop in one RTT).
    let sampled = ec_summary(&ch, MSG, &ec, &SrConfig::nack(&ch), 4000, 11).mean;
    eprintln!(
        "ec differential mean: DES {des_mean:.6}s vs sampled model {sampled:.6}s (ratio {:.2})",
        des_mean / sampled
    );
    assert!(
        (0.50..=0.90).contains(&(des_mean / sampled)),
        "DES mean {des_mean:.6}s vs sampled model {sampled:.6}s outside [0.50, 0.90]"
    );
}
