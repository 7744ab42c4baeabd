//! The resume handshake, one directed case per outcome.
//!
//! A resumed sender does not know what landed: it paces `ResumeQuery` at
//! the nominal RTT until the receiver's `ResumeState` carries the delivery
//! manifest back, then sends exactly the undelivered segments — or, when
//! the manifest is already full, finishes at once and keeps answering the
//! receiver's digest probes. Every case starts both ends of a fresh pair at
//! 0 from a journal written by [`ProtoHarness::journal`], the way a
//! supervisor restarts a crashed transfer (`chaos_soak` drives the same
//! path from real crashes, sampled).

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{capture, took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::{
    AbortReason, AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, AdaptiveSender,
    ControlEndpoint, CtrlMsg, DeliveryManifest, SchemeSpec, TransferOutcome,
};
use sdr_sim::{EventKind, LinkConfig, SimTime};

const BW: f64 = 8e9;
const MSG: u64 = 1 << 20;
/// Eight segments per message.
const SEG: u64 = 128 * 1024;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: SEG,
        msg_slots: 16,
        chunk_bytes: 32 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

fn deployment(link: LinkConfig) -> ProtoHarness {
    ProtoHarness::new(link.with_seed(0x2E5), cfg(), MSG, 0x2E5)
}

type RxCell = Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>>;

/// A resumed transfer: the sender, and what each end reported.
struct Resume {
    tx: AdaptiveSender,
    tx_cell: Rc<RefCell<Option<AdaptReport>>>,
    /// When the sender reported.
    tx_at: Rc<RefCell<Option<SimTime>>>,
    /// Stays empty when no receiver was resumed.
    rx_cell: RxCell,
}

/// Resumes both ends from a journal of `manifest` at 0, the receiver
/// first (as a supervisor restarts them).
fn resume(h: &mut ProtoHarness, manifest: DeliveryManifest, acfg: &AdaptConfig) -> Resume {
    let rx_cell: RxCell = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let p = &mut h.p;
    let _rx = AdaptiveController::resume_receiver(
        &mut p.eng,
        &p.qp_b,
        &p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        manifest,
        SchemeSpec::SrNack,
        acfg.clone(),
        move |_e, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    Resume {
        rx_cell,
        ..resume_sender(h, acfg)
    }
}

/// Resumes the sender alone at 0.
fn resume_sender(h: &mut ProtoHarness, acfg: &AdaptConfig) -> Resume {
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let tx_at = Rc::new(RefCell::new(None));
    let at = tx_at.clone();
    let p = &mut h.p;
    let tx = AdaptiveController::resume_sender(
        &mut p.eng,
        &p.qp_a,
        &p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        MSG,
        SchemeSpec::SrNack,
        acfg.clone(),
        None,
        None,
        move |eng, rep| {
            assert!(at.replace(Some(eng.now())).is_none(), "done fires once");
            tx_cb(eng, rep)
        },
    );
    Resume {
        tx,
        tx_cell,
        tx_at,
        rx_cell: Rc::new(RefCell::new(None)),
    }
}

/// Installs a peer on node B that answers nothing and records what it
/// is sent.
fn silent_peer(h: &ProtoHarness) -> Rc<RefCell<Vec<CtrlMsg>>> {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    h.ctrl_b
        .set_handler(move |_e, _src, msg| s.borrow_mut().push(msg));
    seen
}

fn drained(h: &mut ProtoHarness) {
    h.run(20_000_000);
    assert_eq!(h.p.eng.pending_events(), 0, "nothing left armed");
}

/// Flight-recorder events of `kind` on the sender's node, the whole run
/// (the ring must not have wrapped for the count to mean anything).
fn recorded(h: &ProtoHarness, kind: EventKind) -> usize {
    let rec = h.p.fabric.recorder(h.p.node_a);
    let events = rec.events();
    assert_eq!(rec.recorded(), events.len() as u64, "the ring kept it all");
    events.iter().filter(|e| e.kind == kind).count()
}

/// (a) Half the segments landed in a previous life: the plan is the other
/// half, the bytes end up identical, and the sender's report counts
/// exactly the segments it re-sent.
#[test]
fn a_partial_manifest_resends_exactly_the_undelivered_segments() {
    let mut h = deployment(LinkConfig::wan(50.0, BW, 1e-3));
    let acfg = AdaptConfig::new(BW, h.rtt, SEG);
    let manifest = h.journal(SEG, &[0, 1, 2, 5]);
    let undelivered = manifest.undelivered();
    let r = resume(&mut h, manifest, &acfg);
    drained(&mut h);

    let tx = took(&r.tx_cell, "resumed sender");
    let (_, rx) = r.rx_cell.borrow_mut().take().expect("resumed receiver");
    assert_eq!(tx.outcome, TransferOutcome::Delivered);
    assert_eq!(rx.outcome, TransferOutcome::Delivered);
    assert!(h.delivered_ok(), "byte-identical");
    assert_eq!(undelivered, [3, 4, 6, 7]);
    assert_eq!(tx.segments, 4, "the sender sent the undelivered four");
    assert_eq!(rx.segments, 4, "the receiver received them");
    // Wire epochs are plan indices.
    let epochs: Vec<u32> = tx.history.iter().map(|&(_, e, _)| e).collect();
    assert_eq!(epochs, [0, 1, 2, 3]);
    assert_eq!(recorded(&h, EventKind::Resume), 1);
    assert!(r.tx.queries() >= 1);
}

/// (b) Everything landed before the crash: the sender reports `Delivered`
/// with zero segments the moment the manifest arrives, and the receiver
/// still verifies the landed bytes against the source's digest.
#[test]
fn a_full_manifest_delivers_at_once_after_the_digest_check() {
    let mut h = deployment(LinkConfig::wan(50.0, BW, 0.0));
    let acfg = AdaptConfig::new(BW, h.rtt, SEG);
    let manifest = h.journal(SEG, &[0, 1, 2, 3, 4, 5, 6, 7]);
    let r = resume(&mut h, manifest, &acfg);
    drained(&mut h);

    let tx = took(&r.tx_cell, "resumed sender");
    let tx_at = r.tx_at.borrow().expect("sender reported");
    let (rx_at, rx) = r.rx_cell.borrow_mut().take().expect("resumed receiver");
    assert_eq!(tx.outcome, TransferOutcome::Delivered);
    assert_eq!(tx.segments, 0, "nothing to send");
    assert!(tx.history.is_empty());
    // One query's round trip (plus two control datagrams' serialization).
    assert!(
        tx_at >= h.rtt && tx_at < h.rtt + SimTime::from_micros(1),
        "delivered on the first answer: {tx_at:?}"
    );
    assert_eq!(tx.duration, tx_at, "timed from the resume");
    assert_eq!(rx.outcome, TransferOutcome::Delivered, "the digest matched");
    assert_eq!(rx.segments, 0);
    assert!(
        rx_at > tx_at,
        "the digest answer comes from the resolved sender"
    );
    assert_eq!(recorded(&h, EventKind::Resume), 0, "no plan started");
    assert_eq!(h.p.qp_a.stats().sends_completed, 0, "no data sent");
}

/// (c) A peer that never answers: the sender queries once per RTT until its
/// deadline, aborts there with `Deadline`, and tells the peer.
#[test]
fn an_unanswered_resume_aborts_at_its_deadline_and_tells_the_peer() {
    let mut h = deployment(LinkConfig::wan(50.0, BW, 0.0));
    let seen = silent_peer(&h);
    let mut acfg = AdaptConfig::new(BW, h.rtt, SEG);
    let deadline = h.rtt * 7 / 2;
    acfg.deadline = Some(deadline);
    let Resume {
        tx, tx_cell, tx_at, ..
    } = resume_sender(&mut h, &acfg);
    drained(&mut h);

    let rep = took(&tx_cell, "resumed sender");
    assert_eq!(rep.outcome.abort_reason(), Some(AbortReason::Deadline));
    assert_eq!(
        *tx_at.borrow(),
        Some(deadline),
        "aborted at start + deadline"
    );
    assert_eq!(rep.duration, deadline);
    assert_eq!(rep.segments, 0);
    // At 0, RTT, 2 RTT and 3 RTT.
    assert_eq!(tx.queries(), 4);
    let seen = seen.borrow();
    let queries = seen.iter().filter(|m| **m == CtrlMsg::ResumeQuery).count();
    assert_eq!(queries, 4, "every query reached the peer: {seen:?}");
    let aborts: Vec<&CtrlMsg> = seen
        .iter()
        .filter(|m| matches!(m, CtrlMsg::Abort { .. }))
        .collect();
    assert_eq!(
        aborts,
        [&CtrlMsg::Abort {
            reason: AbortReason::Deadline
        }],
        "one best-effort notify"
    );
    assert!(tx.is_done());
}

/// (d) `ResumeState` arrives duplicated and reordered by the wire, again
/// for every query the receiver answers, and once with the wrong segment
/// size and once for the wrong message length from a third endpoint: only
/// the first geometry-matching answer starts a plan, and only one plan
/// ever starts.
#[test]
fn duplicated_reordered_and_foreign_answers_start_one_plan() {
    let link = LinkConfig::wan(50.0, BW, 1e-3)
        .with_duplication(0.3)
        .with_reordering(0.3, 6);
    let mut h = deployment(link);
    let acfg = AdaptConfig::new(BW, h.rtt, SEG);
    let delivered = [1, 4, 6];
    let manifest = h.journal(SEG, &delivered);
    let undelivered = manifest.undelivered().len() as u32;

    // A third endpoint on the receiver's node: before any real answer
    // can land, two foreign-geometry states; after the plan started, a
    // late copy of the real one.
    let rogue = Rc::new(ControlEndpoint::new(&h.p.fabric, h.p.node_b));
    let to = h.ctrl_a.addr();
    let mut half = DeliveryManifest::new(MSG / 2, SEG);
    half.mark_delivered(0);
    let mut coarse = DeliveryManifest::new(MSG, 2 * SEG);
    coarse.mark_delivered(0);
    let mut real = DeliveryManifest::new(MSG, SEG);
    for id in delivered {
        real.mark_delivered(id);
    }
    for (at, manifest) in [
        (SimTime::ZERO, coarse),
        (SimTime::ZERO, half),
        (h.rtt * 3 / 2, real),
    ] {
        let rogue = rogue.clone();
        h.p.eng.schedule_at(at, move |eng| {
            rogue.send(eng, to, &CtrlMsg::ResumeState { manifest, base: 0 });
        });
    }
    let r = resume(&mut h, manifest, &acfg);
    drained(&mut h);

    let tx = took(&r.tx_cell, "resumed sender");
    let (_, rx) = r.rx_cell.borrow_mut().take().expect("resumed receiver");
    assert_eq!(tx.outcome, TransferOutcome::Delivered);
    assert_eq!(rx.outcome, TransferOutcome::Delivered);
    assert!(h.delivered_ok(), "byte-identical");
    assert_eq!(tx.segments, undelivered, "the real plan, not a foreign one");
    assert_eq!(rx.segments, undelivered);
    assert_eq!(recorded(&h, EventKind::Resume), 1, "exactly one plan");
    assert!(
        h.ctrl_a.filter_stats().duplicates > 0,
        "the wire did duplicate control datagrams"
    );
}

/// (e) An abort while still querying, with no deadline to fall back on:
/// `done` fires once with `Requested`, the queries stop, and the engine
/// drains.
#[test]
fn an_abort_while_querying_stops_the_queries() {
    let mut h = deployment(LinkConfig::wan(50.0, BW, 0.0));
    let seen = silent_peer(&h);
    let acfg = AdaptConfig::new(BW, h.rtt, SEG);
    let Resume {
        tx, tx_cell, tx_at, ..
    } = resume_sender(&mut h, &acfg);
    let at = h.rtt * 5 / 2;
    h.p.eng.run_until(at);
    assert_eq!(tx.queries(), 3, "still querying at 2.5 RTT");
    assert!(!tx.is_done());

    assert!(tx.abort(&mut h.p.eng, AbortReason::Requested));
    assert!(!tx.abort(&mut h.p.eng, AbortReason::Requested), "once");
    drained(&mut h);

    let rep = took(&tx_cell, "aborted sender");
    assert_eq!(rep.outcome.abort_reason(), Some(AbortReason::Requested));
    assert_eq!(*tx_at.borrow(), Some(at));
    assert_eq!(rep.duration, at);
    assert_eq!(tx.queries(), 3, "no query after the abort");
    let seen = seen.borrow();
    assert_eq!(
        seen.last(),
        Some(&CtrlMsg::Abort {
            reason: AbortReason::Requested
        }),
        "the peer is told"
    );
}
