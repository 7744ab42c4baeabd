//! Differential test for the streaming EC sender: under every loss
//! pattern it must deliver byte-identical data and stage exactly the
//! parity a serial `ErasureCode::encode_into` of the same submessages
//! yields (`common::serial_parity`) — the pipeline changes *when* parity is
//! encoded, never *what*.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{capture, serial_parity, took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::{
    EcCodeChoice, EcProtoConfig, EcReceiver, EcRecvStats, EcReport, EcSender, SchemeSpec,
};
use sdr_sim::LinkConfig;

const CHUNK: usize = 64 * 1024;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 1 << 20,
        msg_slots: 64,
        chunk_bytes: CHUNK as u64,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

struct Outcome {
    data: Vec<u8>,
    delivered_ok: bool,
    parity: Vec<u8>,
    stats: EcRecvStats,
    /// The sender's report, once it finished.
    report: Option<EcReport>,
    /// Send contexts left in the sender's QP after the run.
    live_sends: usize,
}

fn run_one(
    code: EcCodeChoice,
    k: usize,
    m: usize,
    p_drop: f64,
    seed: u64,
    msg: u64,
    stripes: usize,
) -> Outcome {
    let link = LinkConfig::wan(50.0, 8e9, p_drop).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg(), msg, seed ^ 0x5EED);
    let model_ch = h.model_channel(8e9, p_drop);
    let mut proto = EcProtoConfig::for_channel(k, m, code, &model_ch, msg, h.rtt);
    proto.linger_acks = 60;
    proto.encode_stripes = stripes;

    let (report, on_sent) = capture::<EcReport>();
    let tx = Rc::new(EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        on_sent,
    ));
    // The staging region goes back to node memory when the sender
    // finishes, so the parity is read at the receiver's completion instant
    // — the positive ACK has not reached the sender yet.
    let stats = Rc::new(RefCell::new((EcRecvStats::default(), Vec::new())));
    let s2 = stats.clone();
    EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        move |_e, _t, st| *s2.borrow_mut() = (st, tx.staged_parity()),
    );
    h.run(80_000_000);

    let (final_stats, parity) = stats.take();
    Outcome {
        delivered_ok: h.delivered_ok(),
        live_sends: h.p.qp_a.live_sends(),
        data: h.data,
        parity,
        stats: final_stats,
        report: report.take(),
    }
}

/// The streamed sender delivers intact and stages exactly the serial
/// reference's parity across code families, tails, and loss rates
/// (including loss-free).
#[test]
fn streamed_sender_matches_serial_reference() {
    let cases = [
        // (code, k, m, p_drop, seed, msg_bytes)
        (EcCodeChoice::Mds, 4, 2, 0.0, 11u64, 1u64 << 20),
        (EcCodeChoice::Mds, 4, 2, 0.05, 12, 1 << 20),
        (EcCodeChoice::Mds, 3, 2, 0.10, 13, 832 * 1024), // 13 chunks: tail submessage
        (EcCodeChoice::Xor, 4, 2, 0.02, 14, 1 << 20),
        (EcCodeChoice::Xor, 3, 1, 0.08, 15, 832 * 1024),
    ];
    for (code, k, m, p_drop, seed, msg) in cases {
        let streamed = run_one(code, k, m, p_drop, seed, msg, 1);
        let tag = format!("code={code:?} k={k} m={m} p={p_drop} seed={seed}");
        let report = streamed.report.expect("streamed sender finished");
        assert!(report.outcome.is_delivered(), "{tag}: {}", report.outcome);
        assert_eq!(
            report.staged_at_first_byte, 0,
            "{tag}: the first byte left before any parity was harvested"
        );
        assert_eq!(streamed.live_sends, 0, "{tag}: all 2L sends released");
        assert!(streamed.delivered_ok, "{tag}: streamed delivery intact");
        assert!(
            streamed.parity == serial_parity(&streamed.data, CHUNK, code, k, m),
            "{tag}: staged parity differs from the serial encode"
        );
        let resolved = streamed.stats.complete_submessages + streamed.stats.decoded_submessages;
        assert_eq!(
            resolved,
            msg.div_ceil((k * CHUNK) as u64),
            "{tag}: every submessage resolved exactly once"
        );
    }
}

/// The sender the scheme table starts — what an adaptive segment runs — is
/// the same `EcSender` behind `dyn SchemeSender`: asked for its staged
/// parity the instant the receiver completes (the final ACK is still on the
/// wire, so the staging is live), it answers with the serial encode, and an
/// ARQ sender with `None`.
#[test]
fn scheme_table_sender_stages_the_serial_parity() {
    let (k, m, msg) = (4usize, 2usize, 1u64 << 20);
    for (spec, code) in [
        (SchemeSpec::EcMds { k: 4, m: 2 }, Some(EcCodeChoice::Mds)),
        (SchemeSpec::EcXor { k: 4, m: 2 }, Some(EcCodeChoice::Xor)),
        (SchemeSpec::SrNack, None),
    ] {
        let link = LinkConfig::wan(50.0, 8e9, 0.02).with_seed(16);
        let mut h = ProtoHarness::new(link, cfg(), msg, 16);
        let (tx, rx) = h.start_scheme(spec, 8e9, |_e, _repairs| {});
        while !rx.is_complete() {
            assert!(h.p.eng.step(), "{spec}: receiver never completed");
        }
        assert!(!tx.is_done(), "{spec}: the final ACK is still in flight");
        let want = code.map(|code| serial_parity(&h.data, CHUNK, code, k, m));
        assert!(tx.staged_parity() == want, "{spec}: staged parity");
        h.run(80_000_000);
        assert!(tx.is_done() && h.delivered_ok(), "{spec}: delivered");
        assert_eq!(h.p.qp_a.live_sends(), 0, "{spec}: sends released");
    }
}

/// Striping an in-flight submessage's encode across the pool
/// (`encode_stripes > 1`) changes *where* parity bytes are computed, never
/// their value or the protocol's behavior: delivery, staged parity and the
/// resolution path must match the single-stripe sender bit-for-bit.
#[test]
fn striped_encode_jobs_match_unstriped() {
    let cases = [
        // (code, k, m, p_drop, seed, msg_bytes, stripes)
        (EcCodeChoice::Mds, 4, 2, 0.0, 21u64, 1u64 << 20, 2),
        (EcCodeChoice::Mds, 3, 2, 0.05, 22, 832 * 1024, 4), // tail submessage
        (EcCodeChoice::Xor, 4, 2, 0.02, 23, 1 << 20, 3),
    ];
    for (code, k, m, p_drop, seed, msg, stripes) in cases {
        let striped = run_one(code, k, m, p_drop, seed, msg, stripes);
        let serial = run_one(code, k, m, p_drop, seed, msg, 1);
        let tag = format!("code={code:?} k={k} m={m} p={p_drop} stripes={stripes}");
        assert!(
            striped.report.is_some() && serial.report.is_some(),
            "{tag}: finished"
        );
        assert!(striped.delivered_ok, "{tag}: striped delivery intact");
        assert_eq!(
            striped.parity, serial.parity,
            "{tag}: parity bytes identical across stripe widths"
        );
        assert_eq!(
            (
                striped.stats.complete_submessages,
                striped.stats.decoded_submessages
            ),
            (
                serial.stats.complete_submessages,
                serial.stats.decoded_submessages
            ),
            "{tag}: resolution path identical"
        );
    }
}

/// The streamed sender's time-to-first-byte must not pay the message's
/// parity encode. Asserted as the counted fact, not as a wall-clock race
/// against a reference encode (two `Instant` spans on shared cores lose
/// that race by scheduling luck): when the first data byte was injected,
/// no parity submessage had been harvested from the encode pipeline. The
/// duration itself, `ttfb_wall`, is `fig11`'s to report.
#[test]
fn streamed_ttfb_does_not_pay_full_staging() {
    let msg = 1u64 << 20;
    let link = LinkConfig::wan(50.0, 8e9, 0.0).with_seed(77);
    let mut h = ProtoHarness::new(link, cfg(), msg, 9);
    let model_ch = h.model_channel(8e9, 0.0);
    let proto = EcProtoConfig::for_channel(4, 2, EcCodeChoice::Mds, &model_ch, msg, h.rtt);
    let (rep, cb) = capture::<EcReport>();
    EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        cb,
    );
    EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        |_e, _t, _st| {},
    );
    h.run(30_000_000);
    let streamed = took(&rep, "EC sender");
    assert!(streamed.outcome.is_delivered() && h.delivered_ok());
    assert_eq!(
        streamed.staged_at_first_byte, 0,
        "the first byte left before any parity was harvested"
    );
}
