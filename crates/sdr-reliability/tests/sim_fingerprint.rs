//! Committed sim fingerprints: the stack's behaviour, pinned case by case,
//! so `cargo test` tells a refactor from a behaviour change.
//!
//! Every case is a small (≈ 1 MiB) deterministic deployment:
//!
//! * every [`SchemeSpec::candidates`] row, started through the scheme table,
//!   over four wires — clean, i.i.d. loss 1e-3, reordering, bit flips;
//! * one adaptive transfer that hands over, and one its deadline aborts;
//! * three resumes: a partial manifest, a full one (the receiver re-runs
//!   the digest check), and a peer that never answers (the deadline ends
//!   it);
//! * a 64-flow SR-NACK and a 64-flow EC [`FlowManager`] population.
//!
//! A case hashes what the stack already exposes: every report's outcome and
//! instant, both link directions' `LinkStats`, both `NodeStats`, both SDR
//! QPs' `SdrStats` (the per-transfer cases), each control endpoint's
//! `sent_count()` and `filter_stats()`, and the engine's
//! `executed_events()`. Its line in `sim_fingerprints.txt` is that hash
//! plus the event, control-datagram and wire-packet counts in the clear,
//! so a moved row shows roughly what moved.
//!
//! A mismatch prints the case, the committed line, the line the run gave,
//! and the replacement line. A change that moves a row on purpose pastes
//! the replacement into the table and names the row in CHANGES.md; a
//! change that means to move nothing leaves the table alone.

mod common;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use common::{flow_world, ProtoHarness};
use sdr_core::testkit::pattern;
use sdr_core::{SdrConfig, SdrQp};
use sdr_reliability::{
    AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, ControlEndpoint, FlowCfg,
    FlowReport, RxFlowDone, SchemeSpec, TelemetryConfig, TransferOutcome,
};
use sdr_sim::{Engine, Fabric, LinkConfig, NodeId, SimTime};

const TABLE: &str = include_str!("sim_fingerprints.txt");

const BW: f64 = 8e9;
const KM: f64 = 5.0;
const MSG: u64 = 1 << 20;
/// Adaptive segments: eight per message.
const SEG: u64 = 128 * 1024;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: MSG,
        msg_slots: 16,
        mtu_bytes: 4096,
        chunk_bytes: 32 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    /// A report's instant and outcome (abort reason, and how much of the
    /// manifest an abort carried out).
    fn outcome(&mut self, at: SimTime, o: &TransferOutcome) {
        let reason = o.abort_reason().map_or(0, |r| 1 + r as u64);
        let journal = o
            .manifest()
            .map_or(u64::MAX, |m| m.delivered_segments().into());
        self.words(&[at.as_picos(), reason, journal]);
    }
}

/// Reports land here in completion order.
type Log = Rc<RefCell<Fnv>>;

fn log() -> Log {
    Rc::new(RefCell::new(Fnv::new()))
}

fn log_tx(log: &Log) -> impl FnOnce(&mut Engine, AdaptReport) + 'static {
    let log = log.clone();
    move |eng, r| {
        let mut h = log.borrow_mut();
        h.outcome(eng.now(), &r.outcome);
        h.words(&[
            r.duration.as_picos(),
            r.segments.into(),
            r.switches,
            r.retransmits,
        ]);
    }
}

fn log_rx(log: &Log) -> impl FnOnce(&mut Engine, SimTime, AdaptRecvReport) + 'static {
    let log = log.clone();
    move |eng, at, r| {
        let mut h = log.borrow_mut();
        h.outcome(eng.now(), &r.outcome);
        h.words(&[at.as_picos(), r.segments.into(), r.switches]);
    }
}

/// One case's result: the hash and the counts its line shows in the clear.
struct Row {
    hash: u64,
    events: u64,
    ctrl: (u64, u64),
    wire: (u64, u64),
}

impl Row {
    fn line(&self, name: &str) -> String {
        format!(
            "{name} {:016x} events={} ctrl={}/{} wire={}/{}",
            self.hash, self.events, self.ctrl.0, self.ctrl.1, self.wire.0, self.wire.1
        )
    }
}

/// Folds the end state of a finished run into `log` and seals the row.
fn seal(
    log: &Log,
    eng: &Engine,
    fabric: &Fabric,
    (a, b): (NodeId, NodeId),
    qps: &[&SdrQp],
    (ctrl_a, ctrl_b): (&ControlEndpoint, &ControlEndpoint),
) -> Row {
    let mut h = log.borrow_mut();
    let mut wire = [0; 2];
    for (k, (from, to)) in [(a, b), (b, a)].into_iter().enumerate() {
        let s = fabric.link_stats(from, to).expect("linked");
        wire[k] = s.sent;
        h.words(&[
            s.sent,
            s.dropped,
            s.delivered,
            s.bytes,
            s.duplicated,
            s.reordered,
            s.corrupted,
        ]);
        let n = fabric.node(from, |n| n.stats());
        h.words(&[
            n.writes_landed,
            n.null_writes,
            n.crc_skipped,
            n.access_faults,
            n.rnr_drops,
            n.poisoned_msgs,
            n.cqes,
        ]);
    }
    for qp in qps {
        let s = qp.stats();
        h.words(&[
            s.packets_received,
            s.duplicate_packets,
            s.late_null_discarded,
            s.generation_filtered,
            s.inactive_slot_drops,
            s.bad_offset,
            s.chunks_completed,
            s.sends_completed,
            s.recvs_posted,
            s.cts_sent,
            s.cts_received,
            s.cts_corrupt,
            s.payload_corrupt,
        ]);
    }
    for ep in [ctrl_a, ctrl_b] {
        let f = ep.filter_stats();
        h.words(&[
            ep.sent_count(),
            f.stale,
            f.duplicates,
            f.malformed,
            f.corrupt,
        ]);
    }
    h.word(eng.executed_events());
    Row {
        hash: h.0,
        events: eng.executed_events(),
        ctrl: (ctrl_a.sent_count(), ctrl_b.sent_count()),
        wire: (wire[0], wire[1]),
    }
}

fn seal_pair(log: &Log, h: &ProtoHarness) -> Row {
    let p = &h.p;
    let qps = [&p.qp_a, &p.qp_b];
    let ctrl = (&*h.ctrl_a, &*h.ctrl_b);
    seal(log, &p.eng, &p.fabric, (p.node_a, p.node_b), &qps, ctrl)
}

/// The wires every scheme row runs over.
const WIRES: [&str; 4] = ["clean", "iid1e-3", "reorder", "corrupt"];

fn wire(name: &str, nudge: SimTime) -> LinkConfig {
    match name {
        "clean" => link(0.0, nudge),
        "iid1e-3" => link(1e-3, nudge),
        "reorder" => link(0.0, nudge).with_reordering(0.05, 8),
        "corrupt" => link(0.0, nudge).with_corruption(1e-6),
        other => unreachable!("no wire {other}"),
    }
}

/// The seeded 5 km link every case runs on, `nudge` longer one way.
fn link(p_drop: f64, nudge: SimTime) -> LinkConfig {
    let mut link = LinkConfig::wan(KM, BW, p_drop).with_seed(0x5EED);
    link.one_way_delay += nudge;
    link
}

fn deployment(link: LinkConfig) -> ProtoHarness {
    ProtoHarness::new(link, cfg(), MSG, 0xF1)
}

fn run(h: &mut ProtoHarness) {
    h.run(20_000_000);
    assert_eq!(h.p.eng.pending_events(), 0, "the case drains");
}

/// One scheme run, A → B, started through the scheme table.
fn scheme_case(spec: SchemeSpec, wire_name: &str, nudge: SimTime) -> Row {
    let mut h = deployment(wire(wire_name, nudge));
    let log = log();
    let (sent, landed) = (log.clone(), log.clone());
    let _run = h.start_scheme_with(
        spec,
        BW,
        move |eng, repairs| sent.borrow_mut().words(&[eng.now().as_picos(), repairs]),
        move |eng, at| {
            landed
                .borrow_mut()
                .words(&[eng.now().as_picos(), at.as_picos()])
        },
    );
    run(&mut h);
    assert!(h.delivered_ok(), "{spec} over {wire_name}: delivered");
    seal_pair(&log, &h)
}

/// An adaptive transfer under `acfg`, both ends started at 0; returns
/// whether it delivered and the handovers the sender committed.
fn adaptive_case(link: LinkConfig, initial: SchemeSpec, acfg: AdaptConfig) -> (Row, bool, u64) {
    let mut h = deployment(link);
    let log = log();
    let (tx, _rx) = h.start_adaptive_with(initial, &acfg, log_tx(&log), log_rx(&log));
    run(&mut h);
    (seal_pair(&log, &h), h.delivered_ok(), tx.switches())
}

fn adapt_cfg(rtt: SimTime) -> AdaptConfig {
    let mut acfg = AdaptConfig::new(BW, rtt, SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 64.0,
        min_packets: 32,
    };
    acfg
}

/// GBN on a 1 % channel: the estimator turns confident in the first
/// segments and the controller hands over.
fn handover_case(nudge: SimTime) -> Row {
    let link = link(1e-2, nudge);
    let rtt = link.rtt();
    let (row, delivered, switches) = adaptive_case(link, SchemeSpec::Gbn, adapt_cfg(rtt));
    assert!(
        delivered && switches > 0,
        "handover: delivered across a switch"
    );
    row
}

/// A deadline well short of the transfer: both ends abort on their own.
fn deadline_case(nudge: SimTime) -> Row {
    let link = link(1e-3, nudge);
    let mut acfg = adapt_cfg(link.rtt());
    acfg.deadline = Some(link.rtt() * 8);
    let (row, delivered, _) = adaptive_case(link, SchemeSpec::SrNack, acfg);
    assert!(!delivered, "deadline: aborted before the end");
    row
}

/// A resume from a journal of `delivered` segments, both ends re-entering
/// at 0 (the receiver first, as a supervisor restarts them).
fn resume_case(delivered: &[u32], nudge: SimTime) -> (Row, ProtoHarness) {
    let link = link(1e-3, nudge);
    let mut h = deployment(link);
    let acfg = adapt_cfg(h.rtt);
    let manifest = h.journal(SEG, delivered);
    let log = log();
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
        log_rx(&log),
    );
    let _tx = AdaptiveController::resume_sender(
        &mut p.eng,
        &p.qp_a,
        &p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        MSG,
        SchemeSpec::SrNack,
        acfg,
        None,
        None,
        log_tx(&log),
    );
    run(&mut h);
    assert!(h.delivered_ok(), "resume: delivered");
    (seal_pair(&log, &h), h)
}

/// A resuming sender whose peer runs nothing: it queries until its
/// deadline, three and a half round trips in.
fn unanswered_case(nudge: SimTime) -> Row {
    let link = link(0.0, nudge);
    let mut h = deployment(link);
    let mut acfg = adapt_cfg(h.rtt);
    acfg.deadline = Some(h.rtt * 7 / 2);
    let log = log();
    let p = &mut h.p;
    let _tx = AdaptiveController::resume_sender(
        &mut p.eng,
        &p.qp_a,
        &p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        MSG,
        SchemeSpec::SrNack,
        acfg,
        None,
        None,
        log_tx(&log),
    );
    run(&mut h);
    seal_pair(&log, &h)
}

/// 64 flows × 16 KiB over one pair of managers (4 shards × 8 slots, so
/// half the opens park).
fn population_case(spec: SchemeSpec, nudge: SimTime) -> Row {
    const FLOWS: u64 = 64;
    const FLOW: u64 = MSG / FLOWS;
    let link = link(1e-3, nudge);
    let qp = SdrConfig {
        max_msg_bytes: FLOW,
        msg_slots: 8,
        chunk_bytes: 4096,
        ..cfg()
    };
    let mut w = flow_world(link.clone(), FlowCfg::new(qp, BW, link.rtt()));
    let log = log();
    let l = log.clone();
    w.mgr_b.on_rx_done(move |eng, d: RxFlowDone| {
        let mut h = l.borrow_mut();
        h.words(&[
            eng.now().as_picos(),
            d.id,
            d.bytes,
            d.at.as_picos(),
            d.decoded.into(),
        ]);
    });
    for i in 0..FLOWS {
        let src = w.ctx_a.alloc_buffer(FLOW);
        w.ctx_a.write_buffer(src, &pattern(FLOW as usize, i));
        let l = log.clone();
        w.mgr_a.open_flow_with_spec(
            &mut w.eng,
            w.node_b,
            src,
            FLOW,
            spec,
            move |eng, r: FlowReport| {
                let mut h = l.borrow_mut();
                h.words(&[
                    eng.now().as_picos(),
                    r.id,
                    r.done_at.as_picos(),
                    r.retransmits,
                ]);
                h.words(&[
                    r.open_retries.into(),
                    r.delivered.into(),
                    r.spec.is_ec().into(),
                ]);
            },
        );
    }
    w.eng.set_event_limit(20_000_000);
    w.eng.run();
    assert_eq!(w.eng.pending_events(), 0, "population drains");
    let st = w.mgr_a.stats();
    assert_eq!(
        (st.tx_done, st.delivered),
        (FLOWS, FLOWS),
        "every flow delivered"
    );
    let nodes = (w.mgr_a.node(), w.node_b);
    seal(&log, &w.eng, &w.fabric, nodes, &[], (&w.ctrl_a, &w.ctrl_b))
}

type Case = Box<dyn Fn(SimTime) -> Row>;

/// Every case, by the name its table line starts with.
fn cases() -> Vec<(String, Case)> {
    let mut out: Vec<(String, Case)> = Vec::new();
    for spec in SchemeSpec::candidates() {
        for w in WIRES {
            out.push((
                format!("scheme/{spec}/{w}"),
                Box::new(move |nudge| scheme_case(spec, w, nudge)),
            ));
        }
    }
    out.push(("adaptive/handover".into(), Box::new(handover_case)));
    out.push(("adaptive/deadline".into(), Box::new(deadline_case)));
    out.push((
        "resume/partial".into(),
        Box::new(|nudge| resume_case(&[0, 1, 2, 5], nudge).0),
    ));
    out.push((
        "resume/full".into(),
        Box::new(|nudge| resume_case(&[0, 1, 2, 3, 4, 5, 6, 7], nudge).0),
    ));
    out.push(("resume/unanswered".into(), Box::new(unanswered_case)));
    out.push((
        "flows/SR-NACK/64".into(),
        Box::new(|nudge| population_case(SchemeSpec::SrNack, nudge)),
    ));
    out.push((
        "flows/EC/64".into(),
        Box::new(|nudge| population_case(SchemeSpec::EcMds { k: 0, m: 2 }, nudge)),
    ));
    out
}

/// The committed table: case name → its whole line.
fn table() -> BTreeMap<&'static str, &'static str> {
    TABLE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| (l.split_whitespace().next().expect("named row"), l.trim()))
        .collect()
}

#[test]
fn every_case_matches_its_committed_fingerprint() {
    let mut want = table();
    let mut moved = Vec::new();
    for (name, case) in cases() {
        let got = case(SimTime::ZERO).line(&name);
        match want.remove(name.as_str()) {
            Some(line) if line == got => {}
            line => moved.push(format!(
                "case {name}\n  expected: {}\n  got:      {got}\n  replacement line:\n{got}",
                line.unwrap_or("(no row)")
            )),
        }
    }
    for name in want.keys() {
        moved.push(format!("table row {name} has no case: delete it"));
    }
    assert!(
        moved.is_empty(),
        "{} sim fingerprint(s) moved; a change that means to move them pastes the \
         replacement lines into tests/sim_fingerprints.txt and names the rows in CHANGES.md\n\n{}",
        moved.len(),
        moved.join("\n\n")
    );
}

/// The table's own mutant check: one row re-run with the link's one-way
/// delay a picosecond longer must hash differently, or the cases are not
/// sensitive enough to pin anything.
#[test]
fn a_picosecond_of_delay_moves_a_fingerprint() {
    let name = "scheme/SR-NACK/iid1e-3";
    let base = scheme_case(SchemeSpec::SrNack, "iid1e-3", SimTime::ZERO);
    let nudged = scheme_case(SchemeSpec::SrNack, "iid1e-3", SimTime(1));
    assert_ne!(base.hash, nudged.hash, "{name}: 1 ps of delay must move it");
    assert_eq!(
        table().get(name).copied(),
        Some(base.line(name).as_str()),
        "{name}: the unnudged run is the committed row"
    );
}
