//! The population's `arrival_wake`: a [`FlowManager`]'s control plane
//! speaks when there is news. Completion is acted on in the event that
//! delivers the completing packet, a clean population's datagram count has
//! no term in `lifetime / interval`, every datagram the quiet protocol
//! relies on can be lost without wedging a flow, and a parked open is
//! acknowledged instead of re-asked.
//!
//! The links are lossless and the losses scripted. Nothing here computes
//! an instant from link arithmetic: the simulator is deterministic, so a
//! *dry run* of a scenario finds when the datagram of interest reaches the
//! far end ([`FlowWorld::resolved`]) and the real run darkens the link for
//! two nanoseconds around that instant ([`FlowWorld::swallow_at`]).
//!
//! [`FlowManager`]: sdr_reliability::FlowManager

mod common;

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use common::{flow_world, FlowWorld};
use sdr_core::testkit::pattern;
use sdr_core::SdrConfig;
use sdr_reliability::{FlowCfg, FlowReport, RxFlowDone};
use sdr_sim::{LinkConfig, NodeId, SimTime};

const KM: f64 = 10.0;
const BW: f64 = 10e9;
const CHUNK: u64 = 64 << 10;

/// A lossless 10 km / 10 Gbit/s pair of managers with `shards × slots`
/// receive slots.
fn world(shards: usize, slots: usize) -> FlowWorld {
    world_on(LinkConfig::wan(KM, BW, 0.0), BW, shards, slots)
}

fn world_on(link: LinkConfig, bw: f64, shards: usize, slots: usize) -> FlowWorld {
    let qp = SdrConfig {
        msg_slots: slots,
        ..SdrConfig::default()
    };
    let mut cfg = FlowCfg::new(qp, bw, link.rtt());
    cfg.shards = shards;
    flow_world(link, cfg)
}

/// What the two ends reported, in the order they reported it.
#[derive(Default)]
struct Capture {
    reports: RefCell<HashMap<u64, FlowReport>>,
    rx: RefCell<Vec<RxFlowDone>>,
}

/// Opens `n` flows of `bytes` A → B (flow `i` carries `pattern(bytes, i)`).
fn open(w: &mut FlowWorld, n: u64, bytes: u64) -> Rc<Capture> {
    let cap = Rc::new(Capture::default());
    let c = cap.clone();
    w.mgr_b.on_rx_done(move |_eng, d| c.rx.borrow_mut().push(d));
    for i in 0..n {
        let src = w.ctx_a.alloc_buffer(bytes);
        w.ctx_a.write_buffer(src, &pattern(bytes as usize, i));
        let c = cap.clone();
        let id = w
            .mgr_a
            .open_flow(&mut w.eng, w.node_b, src, bytes, move |_eng, rep| {
                c.reports.borrow_mut().insert(rep.id, rep);
            });
        assert_eq!(id, i + 1);
    }
    cap
}

/// Runs to quiescence and checks what every scenario here must end with:
/// each flow delivered byte-identical, resolved exactly once on the
/// receiver (so its slots were released exactly once), both managers
/// drained.
fn finish(w: &mut FlowWorld, cap: &Capture, n: u64, bytes: u64) {
    w.eng.set_event_limit(w.eng.executed_events() + 50_000_000);
    w.eng.run();
    let reports = cap.reports.borrow();
    let rx = cap.rx.borrow();
    assert_eq!(reports.len() as u64, n, "every flow reports");
    assert_eq!(rx.len() as u64, n, "every flow resolves exactly once");
    for d in rx.iter() {
        assert!(reports[&d.id].delivered, "flow {} not delivered", d.id);
        let got = w.ctx_b.read_buffer(d.addr, bytes as usize);
        assert_eq!(
            got,
            pattern(bytes as usize, d.id - 1),
            "flow {} corrupt",
            d.id
        );
    }
    assert_eq!(
        counter(w, "rx.wake.complete"),
        n,
        "one completing arrival each"
    );
    assert_eq!(w.mgr_b.stats().rx_done, n);
    assert_eq!(w.mgr_a.live_flows(), (0, 0), "sender drained");
    assert_eq!(w.mgr_b.live_flows(), (0, 0), "receiver drained");
    assert_eq!(w.mgr_b.parked_opens(), 0, "parking lot drained");
}

fn counter(w: &FlowWorld, name: &str) -> u64 {
    w.fabric.metrics().counter_value(name)
}

fn nodes(w: &FlowWorld) -> (NodeId, NodeId) {
    (w.mgr_a.node(), w.node_b)
}

/// Dry-run helper: steps until registry counter `name` reaches `value` —
/// the step that got it there sent the datagram of interest last — and
/// returns when that datagram reaches the far end of `src → dst`.
fn lands_after(w: &mut FlowWorld, name: &str, value: u64, src: NodeId, dst: NodeId) -> SimTime {
    w.step_until(|w| counter(w, name) == value);
    let nth = w.fabric.link_stats(src, dst).expect("linked").sent;
    w.step_until(|w| w.resolved(src, dst) >= nth)
}

/// Steps until `cond` holds and returns the instant of the last delivery
/// on `src → dst` up to then — the arrival that made it hold, when an
/// arrival did.
fn last_delivery_until(
    w: &mut FlowWorld,
    src: NodeId,
    dst: NodeId,
    cond: impl Fn(&FlowWorld) -> bool,
) -> SimTime {
    let mut last = SimTime::ZERO;
    while !cond(w) {
        let before = w.resolved(src, dst);
        assert!(w.eng.step(), "ran dry before the condition held");
        if w.resolved(src, dst) > before {
            last = w.eng.now();
        }
    }
    last
}

/// (a) The arrival that completes a flow is the event that reports it,
/// frees its slots and admits the next parked open: `RxFlowDone.at` is the
/// completing packet's delivery instant, not a poll boundary.
#[test]
fn completion_and_admission_happen_in_the_completing_arrival() {
    let bytes = 2 * CHUNK;
    let mut w = world(1, 2);
    let (a, b) = nodes(&w);
    let cap = open(&mut w, 3, bytes);
    w.step_until(|w| w.mgr_b.parked_opens() == 1);
    let sent = w.ctrl_b.sent_count();
    let resolved = cap.clone();
    let delivery = last_delivery_until(&mut w, a, b, |_| !resolved.rx.borrow().is_empty());
    // Everything below happened in the event that resolved the flow.
    let done = cap.rx.borrow()[0];
    assert_eq!(done.at, w.eng.now());
    assert_eq!(done.at, delivery, "resolved at a packet's delivery instant");
    assert_eq!(
        w.mgr_b.parked_opens(),
        0,
        "the freed slot was re-let at once"
    );
    assert_eq!(counter(&w, "flow.drained"), 1);
    assert!(
        w.ctrl_b.sent_count() >= sent + 2,
        "FlowDone and the parked open's FlowAck left in that event"
    );
    finish(&mut w, &cap, 3, bytes);
}

/// (b) A clean population says what its chunks and handshakes give it to
/// say: per flow one `FlowOpen`, one `FlowAck` (plus the doubling heals
/// while the sender's queue keeps it waiting), an ACK and one repeat per
/// chunk that does not complete it, a telemetry report every fourth of
/// those, one `FlowDone`, one `FlowFin` — however long the flow lives.
/// (At the parent each flow also ACKed every `rx_ack_interval` of its
/// lifetime: ~50 datagrams here.)
#[test]
fn a_clean_population_has_no_datagram_per_interval() {
    const N: u64 = 50;
    const CHUNKS: u64 = 4;
    let mut w = world(4, 16);
    let cap = open(&mut w, N, CHUNKS * CHUNK);
    finish(&mut w, &cap, N, CHUNKS * CHUNK);
    let news = counter(&w, "flow.ack.news");
    let repeat = counter(&w, "flow.ack.repeat");
    let heals = counter(&w, "flow.heal.handshake");
    assert_eq!(news, N * (CHUNKS - 1), "one ACK per non-completing chunk");
    // (A repeat is dropped when the flow's next chunk gets there first.)
    assert!(repeat <= news, "each repeated at most once");
    assert_eq!(counter(&w, "ctrl.tx.FlowParked"), 0);
    assert_eq!(counter(&w, "flow.open.probe"), 0);
    assert_eq!(w.mgr_a.stats().open_retries, 0);
    assert_eq!(w.mgr_a.stats().retransmits, 0);
    // Sender side: FlowOpen + FlowFin.
    assert_eq!(w.ctrl_a.sent_count(), 2 * N);
    // Receiver side: FlowAck, the ACKs, one Telemetry (it rides the fourth
    // of a flow's four to six speaking steps), and FlowDone with however
    // many of its linger repeats beat the sender's FlowFin.
    let flow_done = w.ctrl_b.sent_count() - (N + heals + news + repeat + N);
    assert!((N..=N * 9).contains(&flow_done), "{flow_done} FlowDones");
    // The heal clock doubles: a flow waiting `t` for its first packet is
    // healed about log2(t / interval) times, not t / interval.
    assert!(heals <= 4 * N, "{heals} handshake heals for {N} flows");
}

/// One two-chunk flow, its last packet swallowed on the way forward
/// (`lost`, once a dry run has found when it lands). Chunk 0 is ACKed — a
/// news ACK and one repeat — and then the receiver has nothing to say:
/// chunk 1 never completes, so nothing arrives. The sender's RTO ends the
/// silence, and which chunks it resends is what the sender heard.
fn tail_loss(lost: Option<SimTime>) -> (FlowWorld, Rc<Capture>) {
    let mut w = world(1, 2);
    let (a, b) = nodes(&w);
    let cap = open(&mut w, 1, 2 * CHUNK);
    if let Some(at) = lost {
        w.swallow_at(a, b, at);
    }
    (w, cap)
}

/// When the flow's last packet lands, when chunk 0's news ACK reaches the
/// sender, and when (that ACK swallowed) its repeat does.
fn scripted_instants() -> (SimTime, SimTime, SimTime) {
    let (mut w, _cap) = tail_loss(None);
    let (a, b) = nodes(&w);
    let pkt = last_delivery_until(&mut w, a, b, |w| counter(w, "rx.wake.complete") == 1);
    let (mut w, _cap) = tail_loss(Some(pkt));
    let ack = lands_after(&mut w, "flow.ack.news", 1, b, a);
    let (mut w, _cap) = tail_loss(Some(pkt));
    w.swallow_at(b, a, ack);
    let repeat = lands_after(&mut w, "flow.ack.repeat", 1, b, a);
    assert!(repeat > ack);
    (pkt, ack, repeat)
}

/// (c) A news ACK the wire swallows is healed by its one repeat: when the
/// RTO ends the silence, the sender resends the chunk the wire lost and
/// not the one whose first ACK it lost.
#[test]
fn a_lost_news_ack_is_healed_by_its_repeat() {
    let (pkt, ack, _) = scripted_instants();
    let (mut w, cap) = tail_loss(Some(pkt));
    let (a, b) = nodes(&w);
    w.swallow_at(b, a, ack);
    finish(&mut w, &cap, 1, 2 * CHUNK);
    assert_eq!(w.fabric.link_stats(a, b).unwrap().dropped, 1);
    assert_eq!(w.fabric.link_stats(b, a).unwrap().dropped, 1);
    assert_eq!(counter(&w, "flow.ack.repeat"), 1);
    assert_eq!(w.mgr_a.stats().retransmits, 1, "one chunk lost, one resent");
}

/// (d) ACK and repeat both swallowed: the receiver has no timer left, so
/// the sender's RTO is the only clock — its first expiry resends the lost
/// chunk and, spuriously, the one it never heard about; the bitmap drops
/// the duplicate, the repair completes the flow, and `FlowDone` (which
/// the linger repeats) ends it. One back-off step, one spurious chunk,
/// never a wedge.
#[test]
fn a_doubly_lost_ack_costs_one_spurious_resend_never_a_wedge() {
    let (pkt, ack, repeat) = scripted_instants();
    let (mut w, cap) = tail_loss(Some(pkt));
    let (a, b) = nodes(&w);
    w.swallow_at(b, a, ack);
    w.swallow_at(b, a, repeat);
    finish(&mut w, &cap, 1, 2 * CHUNK);
    assert_eq!(w.fabric.link_stats(a, b).unwrap().dropped, 1);
    assert_eq!(w.fabric.link_stats(b, a).unwrap().dropped, 2);
    assert_eq!(
        w.mgr_a.stats().retransmits,
        2,
        "the lost chunk and one more"
    );
    assert_eq!(counter(&w, "sr.retx.rto"), 2, "one RTO expiry, both chunks");
}

/// Three eight-chunk flows over two slots: flow 3 parks until one of the
/// others resolves.
fn three_over_two() -> (FlowWorld, Rc<Capture>) {
    let mut w = world(1, 2);
    let cap = open(&mut w, 3, 8 * CHUNK);
    (w, cap)
}

/// (e) The `FlowAck` of a parked open's admission is swallowed: only the
/// receiver knows the admission happened, and it heals it — the sender,
/// told its open is parked, re-asks nothing.
#[test]
fn a_lost_admission_ack_is_healed_by_the_receiver() {
    let (mut w, _cap) = three_over_two();
    let (a, b) = nodes(&w);
    let ack = lands_after(&mut w, "flow.drained", 1, b, a);
    let (mut w, cap) = three_over_two();
    w.swallow_at(b, a, ack);
    finish(&mut w, &cap, 3, 8 * CHUNK);
    assert_eq!(w.fabric.link_stats(b, a).unwrap().dropped, 1);
    assert!(counter(&w, "flow.heal.handshake") >= 1);
    assert_eq!(counter(&w, "ctrl.tx.FlowParked"), 1);
    assert_eq!(
        w.ctrl_a.sent_count(),
        6,
        "three FlowOpens, three FlowFins, no re-ask"
    );
    assert_eq!(w.mgr_a.stats().open_retries, 0);
    assert_eq!(counter(&w, "flow.open.probe"), 0);
}

/// (f) `FlowParked` itself is swallowed: the sender's short retry clock
/// is still running, and its next `FlowOpen` is answered with another.
#[test]
fn a_lost_flow_parked_is_answered_again_on_the_next_retry() {
    let (mut w, _cap) = three_over_two();
    let (a, b) = nodes(&w);
    let parked = lands_after(&mut w, "ctrl.tx.FlowParked", 1, b, a);
    let (mut w, cap) = three_over_two();
    w.swallow_at(b, a, parked);
    finish(&mut w, &cap, 3, 8 * CHUNK);
    assert_eq!(w.fabric.link_stats(b, a).unwrap().dropped, 1);
    assert_eq!(
        counter(&w, "ctrl.tx.FlowParked"),
        2,
        "asked twice, told twice"
    );
    assert_eq!(cap.reports.borrow()[&3].open_retries, 1);
    assert_eq!(w.mgr_a.stats().open_retries, 1);
    assert_eq!(counter(&w, "flow.open.probe"), 0);
}

/// (g) Slots recycle under churn on a lossy wire — late packets, repairs
/// and duplicates land in slots that have changed hands. A hook names its
/// flow, not its slot, so nothing a predecessor's traffic does can step
/// the successor: every news ACK is owed to a chunk of the flow that sent
/// it (each chunk completes once, the last one is `FlowDone`'s), and every
/// flow resolves once, by its own completing arrival.
#[test]
fn a_recycled_slot_is_stepped_only_by_its_own_arrivals() {
    const N: u64 = 200;
    const CHUNKS: u64 = 3;
    let link = LinkConfig::wan(KM, BW, 0.01).with_seed(11);
    let mut w = world_on(link, BW, 2, 2);
    let cap = open(&mut w, N, CHUNKS * CHUNK);
    finish(&mut w, &cap, N, CHUNKS * CHUNK);
    assert!(w.mgr_b.stats().parked_opens >= N - 4);
    assert!(w.mgr_a.stats().retransmits > 0, "1% loss forces repairs");
    assert!(counter(&w, "flow.ack.news") <= N * (CHUNKS - 1));
}

/// Queueing is not failure: a parking lot that takes more than
/// `OPEN_RETRY_CAP` rounds of the open-retry clock to drain (~3 840 RTT;
/// this one takes ~10 000) delivers every flow. At the parent each wait
/// in the lot burnt a retry, and the tail of this population reported
/// `delivered: false` with nothing lost.
#[test]
fn a_long_wait_in_the_parking_lot_is_not_an_abandoned_open() {
    const N: u64 = 200;
    let bw = 1e9;
    let link = LinkConfig::wan(1.0, bw, 0.0);
    let rtt = link.rtt();
    let mut w = world_on(link, bw, 2, 2);
    let cap = open(&mut w, N, CHUNK);
    finish(&mut w, &cap, N, CHUNK);
    let last = cap.reports.borrow().values().map(|r| r.done_at).max();
    assert!(
        last.unwrap() > rtt * 4_000,
        "the lot outlasts the retry cap"
    );
    assert_eq!(w.mgr_a.stats().delivered, N);
    assert_eq!(
        w.mgr_a.stats().open_retries,
        0,
        "answered opens do not retry"
    );
}

/// The open burst does not retry against its own serialization: a
/// lossless 1 000-flow burst (the benchmark's `flows_1k` deployment, one
/// chunk per flow) asks once per flow.
#[test]
fn a_lossless_open_burst_never_re_asks() {
    const N: u64 = 1000;
    let mut w = world(16, 64);
    let cap = open(&mut w, N, CHUNK);
    finish(&mut w, &cap, N, CHUNK);
    assert_eq!(w.mgr_a.stats().open_retries, 0);
    assert_eq!(counter(&w, "flow.open.probe"), 0);
    assert_eq!(w.ctrl_a.sent_count(), 2 * N, "FlowOpen + FlowFin each");
}
