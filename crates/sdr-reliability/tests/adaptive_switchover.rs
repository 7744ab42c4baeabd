//! End-to-end adaptive scheme switching (the estimator → advisor →
//! handover loop of `adapt`):
//!
//! * the acceptance scenario — a transfer that starts under SR on a clean
//!   channel, suffers a mid-transfer loss step past the fig09 boundary,
//!   hands over to EC with byte-identical delivery and exactly-once
//!   completion, and finishes within 1.3× of the static oracle (the best
//!   single scheme with perfect foreknowledge of the step);
//! * handover edge cases: a switch proposed while the last submessage is
//!   in flight, `SwitchPropose`/`SwitchAck` loss healed by re-proposal,
//!   and the estimator's cold-start gate never switching before N packets.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::testkit::Adaptive;
use sdr_reliability::{
    recommend, AdaptConfig, AdaptRecvReport, AdaptReport, EcCodeChoice, EcProtoConfig, EcReceiver,
    EcSender, EstimatorRegistry, SchemeSpec, SrProtoConfig, SrReceiver, SrSender, TelemetryConfig,
};
use sdr_sim::{LinkConfig, LossModel, NodeId, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// Fast-converging estimator for test-sized transfers (the default is
/// tuned for long-lived flows).
fn test_telemetry(min_packets: u64) -> TelemetryConfig {
    TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets,
    }
}

struct Scenario {
    msg: u64,
    seg: u64,
    p_before: f64,
    p_after: f64,
    /// Loss-step instant (sim seconds).
    step_at: f64,
    seed: u64,
    min_packets: u64,
    initial: SchemeSpec,
    /// Total-blackout window `(from, to)` in sim seconds: every datagram —
    /// data, ACKs, `SwitchPropose`, `SwitchAck` — is dropped inside it.
    outage: Option<(f64, f64)>,
}

struct AdaptOutcome {
    report: AdaptReport,
    recv: AdaptRecvReport,
    ok: bool,
    recv_done_at: SimTime,
    /// Sender estimator state at the end of the run — what a per-peer
    /// registry would keep alive for the next transfer.
    est_loss: Option<f64>,
    est_rtt: Option<SimTime>,
    /// `adapt.advisor.runs`: advisor evaluations the controller paid for.
    advisor_runs: u64,
}

fn run_adaptive(sc: &Scenario) -> AdaptOutcome {
    let link = LinkConfig::wan(KM, BW, sc.p_before).with_seed(sc.seed);
    let mut h = ProtoHarness::new(link, cfg(), sc.msg, sc.seed ^ 0xADA);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, sc.seg);
    acfg.telemetry = test_telemetry(sc.min_packets);

    // The loss step: an ISP congestion episode starting mid-transfer.
    let (fab, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
    let p_after = sc.p_after;
    h.p.eng
        .schedule_at(SimTime::from_secs_f64(sc.step_at), move |eng| {
            let stats = fab.link_stats(a, b).unwrap();
            eprintln!(
                "  [step {:.1}ms] set loss to {p_after:e} (link sent {} dropped {})",
                eng.now().as_secs_f64() * 1e3,
                stats.sent,
                stats.dropped
            );
            fab.set_loss_duplex(a, b, LossModel::Iid { p: p_after });
        });
    if let Some((from, to)) = sc.outage {
        let (fab, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
        h.p.eng
            .schedule_at(SimTime::from_secs_f64(from), move |_eng| {
                fab.set_loss_duplex(a, b, LossModel::Iid { p: 1.0 });
            });
        let (fab, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
        let p_after = sc.p_after;
        h.p.eng
            .schedule_at(SimTime::from_secs_f64(to), move |_eng| {
                fab.set_loss_duplex(a, b, LossModel::Iid { p: p_after });
            });
    }

    let Adaptive { tx, rx, reports } = h.start_adaptive(sc.initial, &acfg);
    h.run(120_000_000);
    eprintln!(
        "  tx est: seen {} lost-est {:?} rtt {:?} | rx est: seen {} lost-est {:?}",
        tx.estimator(|e| e.packets_seen()),
        tx.estimator(|e| e.loss_estimate()),
        tx.estimator(|e| e.rtt_estimate()),
        rx.estimator(|e| e.packets_seen()),
        rx.estimator(|e| e.loss_estimate()),
    );
    let (report, recv_done_at, recv) = reports.take().unwrap();
    AdaptOutcome {
        report,
        recv,
        ok: h.delivered_ok(),
        recv_done_at,
        est_loss: tx.estimator(|e| e.loss_estimate()),
        est_rtt: tx.estimator(|e| e.rtt_estimate()),
        advisor_runs: h.p.fabric.metrics().counter_value("adapt.advisor.runs"),
    }
}

/// A full-message static run of one scheme over the same stepped channel —
/// the oracle candidates. Returns the receiver-side completion instant
/// (sim-time zero to full delivery), directly comparable with the
/// adaptive receiver's completion instant.
fn run_static(sc: &Scenario, which: SchemeSpec) -> SimTime {
    let link = LinkConfig::wan(KM, BW, sc.p_before).with_seed(sc.seed);
    // The oracle sends the whole message as one SDR transfer, so its QP
    // needs a message-sized slot (the adaptive run works in segments).
    let static_cfg = SdrConfig {
        max_msg_bytes: sc.msg,
        msg_slots: 64,
        ..cfg()
    };
    let mut h = ProtoHarness::new(link, static_cfg, sc.msg, sc.seed ^ 0xADA);
    let rtt = h.rtt;
    let (fab, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
    let p_after = sc.p_after;
    h.p.eng
        .schedule_at(SimTime::from_secs_f64(sc.step_at), move |_eng| {
            fab.set_loss_duplex(a, b, LossModel::Iid { p: p_after });
        });

    let done = Rc::new(RefCell::new(None));
    match which {
        SchemeSpec::SrRto | SchemeSpec::SrNack => {
            let proto = if which == SchemeSpec::SrNack {
                SrProtoConfig::nack(rtt)
            } else {
                SrProtoConfig::rto_3rtt(rtt)
            };
            SrSender::start(
                &mut h.p.eng,
                &h.p.qp_a,
                h.ctrl_a.clone(),
                h.ctrl_b.addr(),
                h.src,
                sc.msg,
                proto,
                |_e, _rep| {},
            );
            let d = done.clone();
            SrReceiver::start(
                &mut h.p.eng,
                &h.p.qp_b,
                h.ctrl_b.clone(),
                h.ctrl_a.addr(),
                h.dst,
                sc.msg,
                proto,
                move |eng, _t| *d.borrow_mut() = Some(eng.now()),
            );
        }
        SchemeSpec::EcMds { k, m } => {
            let model_ch = h.model_channel(BW, sc.p_after);
            let proto = EcProtoConfig::for_channel(
                k as usize,
                m as usize,
                EcCodeChoice::Mds,
                &model_ch,
                sc.msg,
                rtt,
            );
            EcSender::start(
                &mut h.p.eng,
                &h.p.qp_a,
                &h.p.ctx_a,
                h.ctrl_a.clone(),
                h.ctrl_b.addr(),
                h.src,
                sc.msg,
                proto,
                |_e, _rep| {},
            );
            let d = done.clone();
            EcReceiver::start(
                &mut h.p.eng,
                &h.p.qp_b,
                &h.p.ctx_b,
                h.ctrl_b.clone(),
                h.ctrl_a.addr(),
                h.dst,
                sc.msg,
                proto,
                move |eng, _t, _s| *d.borrow_mut() = Some(eng.now()),
            );
        }
        other => panic!("no static runner for {other}"),
    }
    h.run(120_000_000);
    assert!(h.delivered_ok(), "static {which} delivery intact");
    let taken = done.borrow_mut().take();
    taken.expect("static receiver finished")
}

/// A 4 MiB max-message QP limits segments, not the whole transfer.
fn acceptance_scenario(seed: u64) -> Scenario {
    Scenario {
        msg: 40 << 20,
        seg: 2 << 20,
        p_before: 1e-6,
        p_after: 3e-3,
        step_at: 0.008,
        seed,
        min_packets: 768,
        initial: SchemeSpec::SrNack,
        outage: None,
    }
}

/// The acceptance scenario: SR on a clean channel, loss step past the
/// fig09 boundary, handover to EC, byte-identical delivery, exactly-once
/// completion, within 1.3× of the static oracle.
#[test]
fn adaptive_switches_sr_to_ec_and_tracks_the_oracle() {
    let sc = acceptance_scenario(7);
    let out = run_adaptive(&sc);
    eprintln!(
        "adaptive done {:.2} ms, switches {}, history {}",
        out.report.duration.as_secs_f64() * 1e3,
        out.report.switches,
        out.report
            .history
            .iter()
            .map(|(t, e, s)| format!("[{e}@{:.1}ms {s}]", t.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert!(
        out.ok,
        "delivery must be byte-identical across the handover"
    );
    assert!(
        out.report.switches >= 1,
        "the loss step must trigger a handover: {:?}",
        out.report
    );
    assert!(
        out.report.final_spec.is_ec(),
        "the transfer must finish under EC, got {}",
        out.report.final_spec
    );
    assert_eq!(
        out.recv.switches, out.report.switches,
        "both sides switched"
    );
    assert_eq!(out.recv.segments, out.report.segments);
    // The history starts under SR and ends under EC.
    assert_eq!(out.report.history[0].2, SchemeSpec::SrNack);
    // Every committed handover was advised, and the metrics say so.
    assert!(
        out.advisor_runs >= out.report.switches,
        "{} advisor runs for {} switches",
        out.advisor_runs,
        out.report.switches
    );

    // Static oracle: best single scheme with perfect foreknowledge,
    // compared on receiver-side completion instants (the same clock both
    // deployments start: sim-zero to full delivery).
    let sr = run_static(&sc, SchemeSpec::SrNack);
    let ec = run_static(&sc, SchemeSpec::EcMds { k: 32, m: 8 });
    let oracle = sr.min(ec);
    let ratio = out.recv_done_at.as_secs_f64() / oracle.as_secs_f64();
    eprintln!(
        "adaptive delivered {:.2} ms vs oracle {:.2} ms (SR {:.4} / EC {:.4}) → ratio {ratio:.3}",
        out.recv_done_at.as_secs_f64() * 1e3,
        oracle.as_secs_f64() * 1e3,
        sr.as_secs_f64() * 1e3,
        ec.as_secs_f64() * 1e3,
    );
    assert!(
        ratio <= 1.3,
        "adaptive must finish within 1.3x of the oracle: {ratio:.3}"
    );
    assert!(out.recv_done_at > SimTime::ZERO);
}

/// `SwitchPropose`/`SwitchAck` loss heals via re-proposal: a total
/// blackout swallows the first proposals (and their ACKs) outright; the
/// controller keeps re-proposing on its cadence and the handover still
/// commits once the channel returns, with intact delivery.
#[test]
fn lost_propose_and_ack_heal_via_reproposal() {
    let mut sc = acceptance_scenario(9);
    // The estimator turns confident ~20 ms in; black out the control (and
    // data) path right across the first proposal window.
    sc.outage = Some((0.018, 0.030));
    let out = run_adaptive(&sc);
    assert!(out.ok, "delivery intact across outage and handover");
    assert!(
        out.report.switches >= 1,
        "handover must still commit after the blackout: {:?}",
        out.report
    );
    assert!(out.report.final_spec.is_ec(), "finishes under EC");
    assert_eq!(out.recv.switches, out.report.switches);
    // Re-proposals are paced at the nominal RTT, so healing shows up as
    // at least one re-send beyond the original (which died in the
    // blackout together with any early re-sends).
    assert!(
        out.report.proposals >= 2,
        "healing means at least one re-proposal: {}",
        out.report.proposals
    );
}

/// Estimator cold start: with the confidence gate set beyond the whole
/// transfer, a lossy channel from the first byte never triggers a switch —
/// the controller must not flap on startup noise. The same scenario with a
/// warm gate does switch (the positive control).
#[test]
fn cold_estimator_never_switches_before_n_samples() {
    let lossy_from_start = |min_packets: u64, seed: u64| Scenario {
        msg: 40 << 20,
        seg: 2 << 20,
        p_before: 3e-3,
        p_after: 3e-3,
        step_at: 0.001,
        seed,
        min_packets,
        initial: SchemeSpec::SrNack,
        outage: None,
    };
    let cold = run_adaptive(&lossy_from_start(u64::MAX, 15));
    assert!(cold.ok, "cold run delivers intact");
    assert_eq!(
        cold.report.proposals, 0,
        "an unconfident estimator proposes nothing"
    );
    assert_eq!(cold.report.switches, 0);
    assert_eq!(cold.report.final_spec, SchemeSpec::SrNack);

    let warm = run_adaptive(&lossy_from_start(512, 15));
    assert!(warm.ok);
    assert!(
        warm.report.switches >= 1,
        "positive control: the warm estimator must switch: {:?}",
        warm.report
    );
}

/// Cold-vs-warm-start A/B: the cold transfer opens blind under SR on a
/// channel that is lossy from the first byte, pays the discovery period,
/// and hands over to EC mid-flight. Between transfers the sender's
/// estimator is parked in a per-peer [`EstimatorRegistry`] (what the flow
/// manager keeps long-lived); the warm transfer's initial spec comes from
/// the advisor fed with the registry estimate. What a warm start buys is
/// checked directly: the registry hands over a confident estimate, the
/// transfer opens under the advisor's pick, and it needs no more handovers
/// than the cold one.
///
/// Its delivery time is bounded, not required to win. The advisor ranks
/// schemes with `sdr-model`, whose SR pays a full timeout per loss; the
/// DES sender repairs a loss in one round trip and resends nothing else,
/// so on this link SR is the faster *static* scheme from 3e-3 up to at
/// least 3e-2 (cold 60.8 ms vs warm 65.8 ms here) and the advisor's EC
/// pick costs its parity overhead. The bound says following the model's
/// advice from the first byte costs at most 15 % over discovering the
/// channel blind.
#[test]
fn warm_registry_start_opens_under_the_advisors_pick() {
    let scenario = |initial: SchemeSpec| Scenario {
        msg: 40 << 20,
        seg: 2 << 20,
        p_before: 3e-3,
        p_after: 3e-3,
        step_at: 0.001,
        seed: 15,
        min_packets: 512,
        initial,
        outage: None,
    };
    // A (cold): blind SR start, mid-transfer discovery and handover.
    let cold = run_adaptive(&scenario(SchemeSpec::SrNack));
    assert!(cold.ok, "cold run delivers intact");
    assert!(
        cold.report.switches >= 1,
        "cold run must discover the loss mid-transfer: {:?}",
        cold.report
    );

    // Park the estimator in a registry, as between two flows to one peer.
    let peer = NodeId(1);
    let mut registry = EstimatorRegistry::new(test_telemetry(512), SimTime::from_secs_f64(60.0));
    registry
        .checkout(peer, cold.recv_done_at)
        .borrow_mut()
        .seed(cold.est_loss, cold.est_rtt);
    let (loss, rtt) = registry
        .estimate(peer, cold.recv_done_at)
        .expect("the cold transfer must leave a confident registry entry");
    assert!(
        loss > 1e-3,
        "estimate must reflect the 3e-3 channel: {loss:e}"
    );

    // B (warm): initial spec from the advisor over the registry estimate.
    let ch = sdr_model::Channel::new(BW, rtt.as_secs_f64(), loss);
    let rec = recommend(&ch, 2 << 20, 2000, 7);
    let warm_spec = rec.scheme;
    assert!(
        warm_spec.is_ec(),
        "at {loss:e} the advisor must pick EC, got {warm_spec}"
    );
    let warm = run_adaptive(&scenario(warm_spec));
    assert!(warm.ok, "warm run delivers intact");
    assert_eq!(
        warm.report.history[0].2, warm_spec,
        "warm run opens under the seeded scheme"
    );
    assert!(
        warm.report.switches <= cold.report.switches,
        "a warm start must not need more handovers: warm {} vs cold {}",
        warm.report.switches,
        cold.report.switches
    );
    eprintln!(
        "cold delivered {:.2} ms ({} switches), warm delivered {:.2} ms ({} switches)",
        cold.recv_done_at.as_secs_f64() * 1e3,
        cold.report.switches,
        warm.recv_done_at.as_secs_f64() * 1e3,
        warm.report.switches
    );
    assert!(
        warm.recv_done_at.as_secs_f64() <= cold.recv_done_at.as_secs_f64() * 1.15,
        "a warm start must stay within 15% of the cold one: warm {:?} vs cold {:?}",
        warm.recv_done_at,
        cold.recv_done_at
    );
}

/// A switch proposed while the last submessage is in flight can never
/// apply: the receiver bumps the commit epoch past the end of the
/// transfer, acks idempotently, and both sides finish under the old
/// scheme with intact delivery (no slot-geometry divergence).
#[test]
fn switch_proposed_on_the_last_submessage_is_a_no_op() {
    let sc = Scenario {
        msg: 8 << 20,
        seg: 2 << 20,
        p_before: 1e-6,
        p_after: 1e-6,
        step_at: 0.001,
        seed: 21,
        min_packets: u64::MAX, // the controller itself stays quiet
        initial: SchemeSpec::SrNack,
        outage: None,
    };
    let link = LinkConfig::wan(KM, BW, sc.p_before).with_seed(sc.seed);
    let mut h = ProtoHarness::new(link, cfg(), sc.msg, sc.seed ^ 0xADA);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, sc.seg);
    acfg.telemetry = test_telemetry(sc.min_packets);

    let Adaptive { rx, reports, .. } = h.start_adaptive(sc.initial, &acfg);
    // With a 1.5 RTT lead (≈ 12.6 MiB) the receiver posts all 4 segments
    // immediately, so by 8 ms the last submessage is in flight and every
    // epoch has started. Inject a foreign EC handover proposal targeting
    // the last submessage.
    let ep = h.ctrl_a.clone();
    let dst = h.ctrl_b.addr();
    h.p.eng
        .schedule_at(SimTime::from_secs_f64(0.008), move |eng| {
            ep.send(
                eng,
                dst,
                &sdr_reliability::CtrlMsg::SwitchPropose {
                    seq: 999,
                    epoch: 3,
                    spec: SchemeSpec::EcMds { k: 32, m: 8 },
                },
            );
        });
    h.run(60_000_000);
    let (report, _, recv) = reports.take().unwrap();
    assert!(h.delivered_ok(), "delivery intact");
    assert_eq!(recv.switches, 0, "the late proposal never applies");
    assert_eq!(report.switches, 0);
    assert_eq!(report.final_spec, SchemeSpec::SrNack);
    assert_eq!(rx.current_spec(), SchemeSpec::SrNack);
}

/// Slot lifecycle across handovers: with a deliberately small slot table
/// the 20-segment pipelined transfer (SR slots, then EC data+parity
/// slots after the switch) must wrap it several times — any slot held past
/// its segment (a missed release) or released twice would fail a post
/// mid-run. Afterwards the whole table re-posts cleanly, proving every
/// slot was released exactly once across the switches.
#[test]
fn slots_release_exactly_once_across_switches() {
    let sc = acceptance_scenario(7);
    let link = LinkConfig::wan(KM, BW, sc.p_before).with_seed(sc.seed);
    let small_cfg = SdrConfig {
        msg_slots: 16,
        ..cfg()
    };
    let mut h = ProtoHarness::new(link, small_cfg, sc.msg, sc.seed ^ 0xADA);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, sc.seg);
    acfg.telemetry = test_telemetry(sc.min_packets);
    let (fab, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
    let p_after = sc.p_after;
    h.p.eng
        .schedule_at(SimTime::from_secs_f64(sc.step_at), move |_eng| {
            fab.set_loss_duplex(a, b, LossModel::Iid { p: p_after });
        });
    let run = h.start_adaptive(sc.initial, &acfg);
    h.run(120_000_000);
    let report = took(&run.reports.tx, "adaptive sender");
    assert!(h.delivered_ok());
    assert!(report.switches >= 1, "a handover happened: {report:?}");
    // Every slot of the wrapped table is reusable after convergence.
    h.teardown()
        .unwrap_or_else(|e| panic!("unclean teardown: {e}"));
}

/// Starting under the dominated GBN baseline, the controller adapts away
/// from it once the estimator is confident (no fig09 gate applies to
/// leaving GBN — it is dominated everywhere).
#[test]
fn adapts_away_from_gbn_baseline() {
    let sc = Scenario {
        msg: 40 << 20,
        seg: 2 << 20,
        p_before: 1e-3,
        p_after: 1e-3,
        step_at: 0.001,
        seed: 33,
        min_packets: 512,
        initial: SchemeSpec::Gbn,
        outage: None,
    };
    let out = run_adaptive(&sc);
    assert!(out.ok, "delivery intact");
    assert!(
        out.report.switches >= 1,
        "must adapt away from GBN: {:?}",
        out.report
    );
    assert_ne!(out.report.final_spec, SchemeSpec::Gbn);
    assert_eq!(out.recv.switches, out.report.switches);
}
