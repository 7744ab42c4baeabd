//! Scheme-conformance suite: every reliability scheme built on the shared
//! runtime — SR (RTO and NACK), EC and GBN — must satisfy the same
//! contract, exercised through one generic harness:
//!
//! * **delivery**: the receive buffer holds exactly the sent bytes after
//!   convergence, across loss seeds (including heavy loss where control
//!   datagrams drop too — the linger-ACK tolerance);
//! * **completion**: the sender's done callback fires exactly once and the
//!   receiver observes completion;
//! * **buffer release, exactly once**: after the linger countdown the
//!   receiver releases every posted slot back to the QP — proven by
//!   wrapping the (deliberately small) slot table with fresh posts, which
//!   would fail with `SlotBusy` if any slot were still held;
//! * **send contexts have an end of life**: once a transfer is over —
//!   delivered or aborted — the sender's QP holds none of its send
//!   contexts (`SdrQp::live_sends`), per transfer, per adaptive segment
//!   and per flow; and a credit that lands after the end opens nothing.
//!
//! The same rows then run under the *population* driver: SR-NACK and EC as
//! a 1-flow and a 64-flow [`FlowManager`] population. The cores are the
//! ones the per-transfer arms just exercised; what these arms pin is that
//! the second driver schedules them to the same contract.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{flow_world, took, FlowWorld, ProtoHarness};
use sdr_core::testkit::pattern;
use sdr_core::SdrConfig;
use sdr_reliability::{AbortReason, AdaptConfig, FlowCfg, FlowReport, SchemeSpec, TelemetryConfig};
use sdr_sim::{propagation_delay_km, tx_time, LinkConfig, SimTime, DEFAULT_HEADER_BYTES};

const BW: f64 = 8e9;

/// Small slot table so the release check can wrap it: EC at k=4 over a
/// 1 MiB message uses exactly 2L = 8 slots.
fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 1 << 20,
        msg_slots: 8,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// The per-transfer rows: one spec per scheme family, each started through
/// the scheme table exactly as the adaptive controller starts a segment.
const ALL_SCHEMES: [SchemeSpec; 4] = [
    SchemeSpec::SrRto,
    SchemeSpec::SrNack,
    SchemeSpec::EcMds { k: 4, m: 2 },
    SchemeSpec::Gbn,
];

struct Outcome {
    delivered_ok: bool,
    sender_done: bool,
    receiver_complete: bool,
    receiver_released: bool,
}

fn run_scheme(spec: SchemeSpec, p_drop: f64, seed: u64, msg: u64) -> (ProtoHarness, Outcome) {
    run_scheme_on(spec, LinkConfig::wan(50.0, BW, p_drop), seed, msg)
}

fn run_scheme_on(
    spec: SchemeSpec,
    link: LinkConfig,
    seed: u64,
    msg: u64,
) -> (ProtoHarness, Outcome) {
    let mut h = ProtoHarness::new(link.with_seed(seed), cfg(), msg, seed ^ 0xC0);

    let sender_done = Rc::new(RefCell::new(0u32));
    let d = sender_done.clone();
    let (_tx, rx) = h.start_scheme(spec, BW, move |_e, _repairs| *d.borrow_mut() += 1);

    h.run(80_000_000);

    let outcome = Outcome {
        delivered_ok: h.delivered_ok(),
        sender_done: *sender_done.borrow() == 1,
        receiver_complete: rx.is_complete(),
        receiver_released: rx.is_released(),
    };
    (h, outcome)
}

/// Every scheme delivers intact data and converges (sender done, receiver
/// complete and released) across loss seeds, including loss-free.
#[test]
fn all_schemes_deliver_under_loss_seeds() {
    let msg = 1u64 << 20;
    for scheme in ALL_SCHEMES {
        for (p_drop, seed) in [(0.0, 31u64), (0.01, 32), (0.03, 33)] {
            let (_h, o) = run_scheme(scheme, p_drop, seed, msg);
            let tag = format!("{scheme} p={p_drop} seed={seed}");
            assert!(o.delivered_ok, "{tag}: delivery intact");
            assert!(o.sender_done, "{tag}: sender done exactly once");
            assert!(o.receiver_complete, "{tag}: receiver complete");
            assert!(o.receiver_released, "{tag}: buffers released");
        }
    }
}

/// Receivers act on wire order (a chunk completing past a gap is news, a
/// chunk past a submessage's parity condemns it), and order is an
/// assumption about the wire. Where it fails — every fifth packet displaced
/// by up to 40 of its own serialization slots, two and a half chunks — the
/// price must be spurious repairs, never a loss: every scheme still
/// delivers byte-identical, and the wire's disorder adds at most one
/// spurious copy of each chunk to the duplicates the receiver drops (a
/// chunk resent once is from then on resent only on time evidence).
#[test]
fn a_reordering_wire_costs_spurious_repairs_never_loss() {
    let msg = 1u64 << 20;
    let packets = msg / cfg().mtu_bytes;
    for scheme in ALL_SCHEMES {
        for (p_drop, seed) in [(0.0, 71u64), (0.01, 72)] {
            let tag = format!("{scheme} p={p_drop} seed={seed}");
            let duplicates = |link: LinkConfig| {
                let (h, o) = run_scheme_on(scheme, link, seed, msg);
                assert!(o.delivered_ok, "{tag}: delivery intact");
                assert!(o.sender_done, "{tag}: sender done exactly once");
                assert!(o.receiver_complete && o.receiver_released, "{tag}");
                h.p.qp_b.stats().duplicate_packets
            };
            let in_order = duplicates(LinkConfig::wan(50.0, BW, p_drop));
            let displaced = duplicates(LinkConfig::wan(50.0, BW, p_drop).with_reordering(0.2, 40));
            assert!(
                displaced <= in_order + packets,
                "{tag}: {displaced} duplicate packets on the reordering wire, \
                 {in_order} in order, {packets} in the message"
            );
        }
    }
}

/// Buffer release is real and exactly-once: after convergence the small
/// slot table can be completely re-wrapped with fresh posts — a held slot
/// would fail with `SlotBusy`, a double release would have errored inside
/// the driver's exactly-once path.
#[test]
fn released_slots_are_reusable_across_the_whole_table() {
    for scheme in ALL_SCHEMES {
        let (mut h, o) = run_scheme(scheme, 0.005, 41, 1 << 20);
        assert!(o.receiver_released, "{scheme}: released");
        assert_eq!(
            h.p.qp_b.stats().recvs_posted,
            scheme.sends(1 << 20, cfg().chunk_bytes),
            "{scheme}: expected slot usage"
        );
        // The receive sequence continues from the slots used, so `msg_slots`
        // fresh posts walk every slot index once — including each slot the
        // scheme itself just released. Any slot still held fails the post.
        h.teardown().unwrap_or_else(|e| panic!("{scheme}: {e}"));
    }
}

/// A transfer's send contexts end with it. Every send a scheme opened is
/// ended *and released* when the transfer finishes, so the QP's context
/// table — which every CTS credit walks — is empty again: after a delivered
/// transfer of every scheme, and after one aborted mid-flight with sends
/// open.
#[test]
fn send_contexts_are_released_when_a_transfer_ends() {
    for scheme in ALL_SCHEMES {
        let (h, o) = run_scheme(scheme, 0.005, 41, 1 << 20);
        assert!(o.sender_done && o.delivered_ok, "{scheme}: delivered");
        assert_eq!(h.p.qp_a.live_sends(), 0, "{scheme}: after delivery");

        let mut h = ProtoHarness::new(LinkConfig::wan(50.0, BW, 0.0), cfg(), 1 << 20, 7);
        let done = Rc::new(RefCell::new(0u32));
        let d = done.clone();
        let (tx, rx) = h.start_scheme(scheme, BW, move |_e, _| *d.borrow_mut() += 1);
        // Half a round trip past the first credit: the first pass is on
        // the wire, every send is open, nothing is acknowledged.
        let mid_flight = h.rtt;
        h.p.eng.run_until(mid_flight);
        let sends = scheme.sends(1 << 20, cfg().chunk_bytes) as usize;
        assert_eq!(h.p.qp_a.live_sends(), sends, "{scheme}: open mid-flight");
        assert!(tx.abort(&mut h.p.eng, AbortReason::Requested));
        assert_eq!(h.p.qp_a.live_sends(), 0, "{scheme}: after abort");
        assert_eq!(*done.borrow(), 1, "{scheme}: abort reports once");
        rx.quiesce(&mut h.p.eng);
        h.run(1_000_000);
        assert_eq!(h.p.eng.pending_events(), 0, "{scheme}: drained");
    }
}

/// The adaptive twin: every segment is one scheme run, so every segment
/// releases what it opened — across a handover too. Three 4 MiB segments
/// (a few pipeline leads each at 100 km) opened under the GBN baseline on
/// a lossy channel: the estimator turns confident during the first and the
/// controller hands over to the scheme the advisor prefers.
#[test]
fn adaptive_segments_release_their_sends_across_a_handover() {
    let (msg, seg) = (12u64 << 20, 4u64 << 20);
    let cfg = SdrConfig {
        max_msg_bytes: seg,
        msg_slots: 64,
        ..cfg()
    };
    let link = LinkConfig::wan(100.0, BW, 3e-3).with_seed(15);
    let mut h = ProtoHarness::new(link, cfg, msg, 15);
    let mut acfg = AdaptConfig::new(BW, h.rtt, seg);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 256,
    };
    let run = h.start_adaptive(SchemeSpec::Gbn, &acfg);
    h.run(120_000_000);
    let report = took(&run.reports.tx, "adaptive sender");
    assert!(report.outcome.is_delivered() && h.delivered_ok());
    let specs: Vec<_> = report.history.iter().map(|&(_, _, s)| s).collect();
    assert!(
        specs.len() == 3 && specs[0] == SchemeSpec::Gbn && specs[2] != SchemeSpec::Gbn,
        "three segments with a handover between them: {specs:?}"
    );
    assert!(report.switches >= 1);
    assert_eq!(h.p.qp_a.live_sends(), 0, "every segment released its sends");
}

/// A credit that lands after the end opens nothing. Every candidate spec,
/// started as the adaptive controller starts a segment: the reverse path
/// goes dark when a quarter of the run's credits have landed (none of an
/// ARQ run's one, those of the first data submessages of an EC run's `2L`),
/// the sender is aborted with the rest outstanding, the path heals and the
/// receiver's heartbeat re-issues them.
/// The closed sender must leave them alone — the sequence a late credit
/// names belongs to whoever sends next on the QP. One guard serves all
/// schemes ([`StreamTx::ready`](sdr_reliability::runtime::StreamTx::ready)
/// under `TxDriver`); this is its regression.
#[test]
fn a_credit_that_lands_after_the_end_opens_nothing() {
    const KM: f64 = 50.0;
    let msg = 1u64 << 20;
    let cfg = SdrConfig {
        msg_slots: 64,
        chunk_bytes: 16 * 1024,
        ..cfg()
    };
    // When the receiver's `n`-th CTS (posted back to back at 0) lands.
    let cts = tx_time(20 + DEFAULT_HEADER_BYTES as u64, BW);
    let cts_lands = |n: u64| cts * (n + 1) + propagation_delay_km(KM);
    for spec in SchemeSpec::candidates() {
        let mut h = ProtoHarness::new(LinkConfig::wan(KM, BW, 0.0), cfg, msg, 3);
        let sends = spec.sends(msg, cfg.chunk_bytes);
        let landed = sends / 4;
        let (fabric, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
        h.p.eng.schedule_at(cts_lands(landed) - cts / 2, move |_e| {
            fabric.set_link_down(b, a, true);
        });
        let done = Rc::new(RefCell::new(0u32));
        let d = done.clone();
        let (tx, rx) = h.start_scheme(spec, BW, move |_e, _| *d.borrow_mut() += 1);

        h.p.eng.run_until(h.rtt * 2);
        let qp = h.p.qp_a.clone();
        assert_eq!(qp.next_send_seq(), landed, "{spec}: one open per credit");
        assert_eq!(qp.live_sends() as u64, landed, "{spec}");
        assert_eq!(*done.borrow(), 0, "{spec}: still running");
        // `start_sender`'s callback carries the repair effort, not the
        // outcome: that it first fires inside `abort` is what says Aborted.
        assert!(tx.abort(&mut h.p.eng, AbortReason::Requested), "{spec}");
        assert_eq!(*done.borrow(), 1, "{spec}: the abort reports");
        assert!(!tx.abort(&mut h.p.eng, AbortReason::Requested), "{spec}");
        assert_eq!(qp.live_sends(), 0, "{spec}: every open send released");

        h.p.fabric.set_link_down(h.p.node_b, h.p.node_a, false);
        h.p.eng.run_until(h.rtt * 8);
        assert!(qp.has_cts(landed), "{spec}: the next credit did land");
        assert_eq!(qp.next_send_seq(), landed, "{spec}: and opened nothing");
        assert_eq!(qp.live_sends(), 0, "{spec}");
        assert_eq!(*done.borrow(), 1, "{spec}: reported exactly once");
        assert!(tx.is_done());

        rx.quiesce(&mut h.p.eng);
        h.run(1_000_000);
        assert_eq!(h.p.eng.pending_events(), 0, "{spec}: no live timer");
    }
}

/// Linger-ACK tolerance: at heavy loss (10% — where a 16-packet chunk
/// survives intact only ~19% of the time and every tenth control datagram
/// drops) the final ACK is lost often; the linger repeats must still
/// unblock the sender on every scheme.
#[test]
fn linger_acks_tolerate_final_ack_loss() {
    let msg = 512u64 * 1024;
    for scheme in ALL_SCHEMES {
        for seed in [51u64, 52] {
            let (_h, o) = run_scheme(scheme, 0.10, seed, msg);
            let tag = format!("{scheme} seed={seed}");
            assert!(o.sender_done, "{tag}: sender must complete at 10% loss");
            assert!(o.delivered_ok, "{tag}: delivery intact");
            assert!(o.receiver_released, "{tag}: buffers released");
        }
    }
}

// ---------------------------------------------------------------------------
// Population-driver arm
// ---------------------------------------------------------------------------

const POPULATION_SPECS: [SchemeSpec; 2] = [SchemeSpec::SrNack, SchemeSpec::EcMds { k: 0, m: 4 }];
/// `(flows, per-flow divisor)`: the lone flow carries the per-transfer
/// rows' message; the 64-flow population splits a few of them.
const POPULATIONS: [(usize, u64); 2] = [(1, 1), (64, 4)];

struct PopOutcome {
    /// Every flow of every wave landed byte-identical.
    delivered_ok: bool,
    /// Every sender callback fired exactly once, reporting delivery under
    /// the requested scheme family.
    senders_done: bool,
    /// Both managers hold no live flow and no parked open, and the
    /// sender's shard QPs no send context.
    drained: bool,
    /// Opens that had to wait for a slot (then got one).
    parked: u64,
    /// Every sender report, in completion order.
    reports: Vec<FlowReport>,
    /// When the engine ran dry after the last wave.
    ended_at: SimTime,
}

/// Runs `waves` back-to-back populations of `flows` × `msg`-byte flows
/// A→B under `spec` over one pair of managers (8 slots × `shards` QPs).
fn run_population(
    spec: SchemeSpec,
    flows: usize,
    (p_drop, seed): (f64, u64),
    msg: u64,
    shards: usize,
    waves: usize,
) -> PopOutcome {
    let link = LinkConfig::wan(50.0, 8e9, p_drop).with_seed(seed);
    let rtt = SimTime::from_secs_f64(2.0 * 50.0 * 5e-6);
    let mut fc = FlowCfg::new(cfg(), 8e9, rtt);
    fc.shards = shards;
    let FlowWorld {
        mut eng,
        ctx_a,
        ctx_b,
        mgr_a,
        mgr_b,
        node_b: b,
        ..
    } = flow_world(link, fc);
    // id → (address, length) of each resolved receive flow.
    let landed = Rc::new(RefCell::new(std::collections::HashMap::new()));
    let l = landed.clone();
    mgr_b.on_rx_done(move |_e, d| {
        l.borrow_mut().insert(d.id, (d.addr, d.bytes));
    });
    let reports = Rc::new(RefCell::new(Vec::new()));
    let mut out = PopOutcome {
        delivered_ok: true,
        senders_done: true,
        drained: true,
        parked: 0,
        reports: Vec::new(),
        ended_at: SimTime::ZERO,
    };
    for wave in 0..waves {
        let mut ids = Vec::new();
        for i in 0..flows {
            let tag = (wave * flows + i) as u64;
            let src = ctx_a.alloc_buffer(msg);
            ctx_a.write_buffer(src, &pattern(msg as usize, tag));
            let r = reports.clone();
            let id = mgr_a.open_flow_with_spec(&mut eng, b, src, msg, spec, move |_e, rep| {
                r.borrow_mut().push(rep)
            });
            ids.push((id, tag));
        }
        eng.set_event_limit(eng.executed_events() + 80_000_000);
        eng.run();
        for (id, tag) in ids {
            let reps = reports.borrow();
            let mine: Vec<_> = reps.iter().filter(|r| r.id == id).collect();
            out.senders_done &=
                mine.len() == 1 && mine[0].delivered && mine[0].spec.is_ec() == spec.is_ec();
            out.delivered_ok &= landed.borrow().get(&id).is_some_and(|&(addr, len)| {
                len == msg && ctx_b.read_buffer(addr, len as usize) == pattern(msg as usize, tag)
            });
        }
        out.drained &= mgr_a.live_flows() == (0, 0)
            && mgr_b.live_flows() == (0, 0)
            && mgr_b.parked_opens() == 0
            && mgr_a.live_sends() == 0;
    }
    out.parked = mgr_b.stats().parked_opens;
    out.reports = reports.take();
    out.ended_at = eng.now();
    out
}

/// The population twin of `all_schemes_deliver_under_loss_seeds`.
#[test]
fn populations_deliver_under_loss_seeds() {
    for spec in POPULATION_SPECS {
        for (flows, div) in POPULATIONS {
            for row in [(0.0, 31u64), (0.01, 32), (0.03, 33)] {
                let o = run_population(spec, flows, row, (1 << 20) / div, 4, 1);
                let tag = format!("{spec} × {flows} flows, (p, seed) = {row:?}");
                assert!(o.delivered_ok, "{tag}: delivery intact");
                assert!(o.senders_done, "{tag}: every sender done exactly once");
                assert!(o.drained, "{tag}: managers drained");
            }
        }
    }
}

/// The population twin of `released_slots_are_reusable_across_the_whole_
/// table`: two waves through one shard's 8 slots. Slots are the admission
/// currency, so a slot a resolved flow failed to give back would strand
/// the parked opens queued behind it (and a wave could never drain).
#[test]
fn population_slots_recycle_exactly_once() {
    for spec in POPULATION_SPECS {
        let o = run_population(spec, 64, (0.005, 41), 256 * 1024, 1, 2);
        assert!(o.parked > 0, "{spec}: 64 flows must queue for 8 slots");
        assert!(o.drained, "{spec}: every parked open was admitted");
        assert!(
            o.delivered_ok && o.senders_done,
            "{spec}: both waves deliver"
        );
    }
}

/// The population twin of `linger_acks_tolerate_final_ack_loss`: at 10 %
/// loss every tenth `FlowDone` and `FlowFin` drops; the linger repeats
/// must still unblock every sender and the countdown must still retire
/// every receive flow whose `FlowFin` never came.
#[test]
fn population_lingers_tolerate_final_ack_loss() {
    for spec in POPULATION_SPECS {
        for (flows, div) in POPULATIONS {
            for seed in [51u64, 52] {
                let o = run_population(spec, flows, (0.10, seed), 512 * 1024 / div, 4, 1);
                let tag = format!("{spec} × {flows} flows, seed={seed}");
                assert!(o.senders_done, "{tag}: senders must complete at 10% loss");
                assert!(o.delivered_ok, "{tag}: delivery intact");
                assert!(o.drained, "{tag}: receive flows retired");
            }
        }
    }
}

/// The manager runs what it reports. It hosts SR-NACK and EC, so a
/// population asked for any other ARQ spec runs SR-NACK — advertised in
/// `FlowOpen`, named in the report, silence backstop armed — and is
/// indistinguishable from one asked for SR-NACK outright. (It used to
/// report the spec it was asked for while running SR-NACK on both ends
/// with the RTO never armed.)
#[test]
fn population_asked_for_another_arq_spec_runs_and_reports_sr_nack() {
    let run = |spec| run_population(spec, 16, (0.03, 33), 256 * 1024, 4, 1);
    let want = run(SchemeSpec::SrNack);
    assert!(want.delivered_ok && want.senders_done && want.drained);
    assert!(want.reports.iter().all(|r| r.spec == SchemeSpec::SrNack));
    for asked in [SchemeSpec::SrRto, SchemeSpec::Gbn] {
        let got = run(asked);
        assert!(got.delivered_ok, "{asked}: delivery intact");
        assert_eq!(got.reports.len(), want.reports.len());
        for (g, w) in got.reports.iter().zip(&want.reports) {
            // `FlowReport` is not `PartialEq`; its `Debug` prints every field.
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "asked for {asked}");
        }
        assert_eq!(got.ended_at, want.ended_at, "{asked}: same last event");
    }
}
