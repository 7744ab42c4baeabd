//! Abort/teardown edge cases for the adaptive layer: the windows where a
//! teardown races other machinery.
//!
//! * abort landing **mid-handover** — between `SwitchPropose` and
//!   `SwitchAck`, polled via [`AdaptiveSender::has_pending_switch`];
//! * abort with **linger-ACKs in flight** — a wave of scheme ACKs (and a
//!   `SegDone` watermark) already on the wire toward the sender when it
//!   tears down;
//! * a **deadline expiring exactly at the completion instant** — the tie
//!   is resolved by event order, but either way the run must be clean.
//!
//! Every case asserts the teardown contract: exactly-once terminal
//! reports on both ends, a fully drained engine (no leaked timers or
//! pump events), and every receive slot released exactly once (the whole
//! table re-posts).

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::testkit::{Adaptive, Reports};
use sdr_reliability::{
    AbortReason, AdaptConfig, AdaptiveReceiver, AdaptiveSender, SchemeSpec, TelemetryConfig,
    TransferOutcome,
};
use sdr_sim::{Engine, LinkConfig, LossModel, SimTime};

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

struct Deployment {
    h: ProtoHarness,
    tx: AdaptiveSender,
    rx: AdaptiveReceiver,
    reports: Reports,
}

/// Stands up a 40 MiB adaptive transfer (2 MiB segments) over a seeded
/// WAN link; `min_packets` tunes how eagerly the controller proposes.
fn deploy(p_loss: f64, seed: u64, min_packets: u64, deadline: Option<SimTime>) -> Deployment {
    let link = LinkConfig::wan(KM, BW, p_loss).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg(), 40 << 20, seed ^ 0xAB0);
    let mut acfg = AdaptConfig::new(BW, h.rtt, 2 << 20);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets,
    };
    acfg.deadline = deadline;
    let Adaptive { tx, rx, reports } = h.start_adaptive(SchemeSpec::SrNack, &acfg);
    Deployment { h, tx, rx, reports }
}

/// The teardown contract every edge case must satisfy.
fn assert_clean(d: &mut Deployment) {
    d.h.teardown()
        .unwrap_or_else(|e| panic!("unclean teardown: {e}"));
}

/// Abort exactly inside the `SwitchPropose` → `SwitchAck` window: a loss
/// step triggers a proposal, a blackout swallows propose and ack so the
/// handshake stays pending, and a poller aborts the sender the moment
/// [`AdaptiveSender::has_pending_switch`] reports the open window (after
/// the outage, so the peer notification gets through). Both ends land on
/// `Aborted`, the half-committed handover notwithstanding.
#[test]
fn abort_mid_handover_between_propose_and_ack() {
    let mut d = deploy(1e-6, 9, 768, None);
    // Loss step past the fig09 boundary at 8 ms, then a total blackout
    // right across the first proposal window (estimator turns confident
    // ~20 ms in) — proposals are sent but cannot be acked.
    let (fab, a, b) = (d.h.p.fabric.clone(), d.h.p.node_a, d.h.p.node_b);
    d.h.p
        .eng
        .schedule_at(SimTime::from_secs_f64(0.008), move |_eng| {
            fab.set_loss_duplex(a, b, LossModel::Iid { p: 3e-3 });
        });
    let (fab, a, b) = (d.h.p.fabric.clone(), d.h.p.node_a, d.h.p.node_b);
    d.h.p
        .eng
        .schedule_at(SimTime::from_secs_f64(0.018), move |_eng| {
            fab.set_link_down(a, b, true);
            fab.set_link_down(b, a, true);
        });
    let (fab, a, b) = (d.h.p.fabric.clone(), d.h.p.node_a, d.h.p.node_b);
    d.h.p
        .eng
        .schedule_at(SimTime::from_secs_f64(0.030), move |_eng| {
            fab.set_link_down(a, b, false);
            fab.set_link_down(b, a, false);
        });
    // Poll for the open handshake window from just after the heal; the
    // re-proposal beats its ack by at least one RTT, so the first polls
    // must see it pending.
    let aborted_mid_handover = Rc::new(RefCell::new(false));
    let tx = d.tx.clone();
    let seen = aborted_mid_handover.clone();
    d.h.p
        .eng
        .schedule_recurring_at(SimTime::from_secs_f64(0.0305), move |eng: &mut Engine| {
            if tx.is_done() {
                return None;
            }
            if tx.has_pending_switch() {
                *seen.borrow_mut() = true;
                assert!(tx.abort(eng, AbortReason::Requested));
                return None;
            }
            Some(eng.now() + SimTime::from_secs_f64(0.001))
        });
    d.h.run(120_000_000);
    assert!(
        *aborted_mid_handover.borrow(),
        "the poller must catch the propose→ack window"
    );
    let tx_rep = took(&d.reports.tx, "adaptive sender");
    let (_, rx_rep) = d.reports.rx.borrow_mut().take().expect("receiver reported");
    assert_eq!(tx_rep.outcome.abort_reason(), Some(AbortReason::Requested));
    assert_eq!(
        rx_rep.outcome.abort_reason(),
        Some(AbortReason::Requested),
        "the peer inherits the originator's reason"
    );
    assert_eq!(tx_rep.switches, 0, "the handover never committed");
    assert!(d.tx.is_done() && d.rx.is_complete());
    assert_clean(&mut d);
}

/// Abort while a wave of scheme ACKs is in flight toward the sender: the
/// receiver has been acking a healthy transfer for milliseconds when the
/// sender tears down mid-stream. The lingering ACKs arriving after the
/// abort must neither resurrect segments nor double-complete anything,
/// and the peer notification still lands between them.
#[test]
fn abort_with_linger_acks_in_flight() {
    let mut d = deploy(1e-6, 13, u64::MAX, None);
    // 6 ms in, ~⅓ through serialization: ACK traffic is continuous
    // (one-way latency 5 ms means several segments' ACKs are airborne).
    let tx = d.tx.clone();
    d.h.p
        .eng
        .schedule_at(SimTime::from_secs_f64(0.006), move |eng| {
            assert!(tx.abort(eng, AbortReason::Requested));
        });
    d.h.run(120_000_000);
    let tx_rep = took(&d.reports.tx, "adaptive sender");
    let (_, rx_rep) = d.reports.rx.borrow_mut().take().expect("receiver reported");
    assert_eq!(tx_rep.outcome.abort_reason(), Some(AbortReason::Requested));
    assert_eq!(rx_rep.outcome.abort_reason(), Some(AbortReason::Requested));
    assert!(
        tx_rep.duration >= SimTime::from_secs_f64(0.006),
        "duration covers start → abort"
    );
    // A second abort on either end is a no-op, not a double teardown.
    assert!(!d.tx.abort(&mut d.h.p.eng, AbortReason::Requested));
    assert!(!d.rx.abort(&mut d.h.p.eng, AbortReason::Requested));
    assert_clean(&mut d);
}

/// A deadline equal to the natural completion instant: run once without a
/// deadline to measure the sender's completion time `T`, then replay the
/// identical deployment with `deadline = T` (the timer and the completing
/// event collide on the same tick) and with `deadline = T + 1 ns` (the
/// sender's completion strictly wins). The tie may go either way; the
/// contract is that both replays are clean, the landed bytes are intact,
/// and the one-tick-later deadline never fires on the sender. The
/// *receiver's* delivery includes the end-to-end digest round trip, which
/// lands after the sender's final ACK — so with the deadline pinned at
/// `T` the receiver legitimately aborts mid-verification; its buffer is
/// nonetheless byte-identical (the wire here loses packets but never
/// corrupts them).
#[test]
fn deadline_expiring_exactly_at_completion() {
    let natural = {
        let mut d = deploy(1e-4, 17, u64::MAX, None);
        d.h.run(120_000_000);
        let rep = took(&d.reports.tx, "baseline sender");
        assert_eq!(rep.outcome, TransferOutcome::Delivered);
        assert!(d.h.delivered_ok());
        rep.duration
    };

    // Tie: deadline timer and final-completion event share the instant.
    {
        let mut d = deploy(1e-4, 17, u64::MAX, Some(natural));
        d.h.run(120_000_000);
        let tx_rep = took(&d.reports.tx, "tie sender");
        let (_, rx_rep) = d.reports.rx.borrow_mut().take().expect("tie receiver");
        // Every bitmap completed before `T`, but the receiver's Delivered
        // now waits on the digest verdict — a round trip the tie deadline
        // cuts off. Either verdict-in-time or a deadline abort is legal;
        // the bytes must be intact regardless (loss-only wire).
        match rx_rep.outcome {
            TransferOutcome::Delivered => {}
            TransferOutcome::Aborted { reason: r, .. } => assert_eq!(r, AbortReason::Deadline),
        }
        assert!(d.h.delivered_ok(), "delivery intact under the tie");
        match tx_rep.outcome {
            TransferOutcome::Delivered => assert!(tx_rep.duration <= natural),
            TransferOutcome::Aborted { reason: r, .. } => {
                assert_eq!(r, AbortReason::Deadline);
                assert_eq!(tx_rep.duration, natural, "aborted exactly at the tie");
            }
        }
        assert_clean(&mut d);
    }

    // A nanosecond of headroom: completion must win.
    {
        let mut d = deploy(1e-4, 17, u64::MAX, Some(natural + SimTime::from_nanos(1)));
        d.h.run(120_000_000);
        let tx_rep = took(&d.reports.tx, "headroom sender");
        assert_eq!(tx_rep.outcome, TransferOutcome::Delivered);
        assert_eq!(tx_rep.duration, natural, "same deployment, same instant");
        assert!(d.h.delivered_ok());
        assert_clean(&mut d);
    }
}
