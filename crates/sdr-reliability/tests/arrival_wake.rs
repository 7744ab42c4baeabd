//! The edges of the receivers' arrival-driven steps ([`RxDriver`] under
//! every scheme): completion is acted on at the arrival instant, a clean
//! transfer says no more than the heartbeat used to say, a hole costs one
//! ACK and one round trip, an SR receiver left with nothing to say leaves
//! silence to its sender's clock without wedging, a wake that is
//! pending when the receiver is torn down wakes nobody — not the old
//! driver, not the slot's next owner — and a slot a later sequence's
//! packet passed is neither re-credited nor left unobserved.
//!
//! The links here are lossless and the losses scripted (a forward
//! blackout that swallows chosen packets), so every instant below is
//! arithmetic on the link: the receiver posts at 0, its CTS takes one
//! serialization and one propagation delay, the sender streams the whole
//! message from that instant without a gap. A lost ACK is found the way
//! `flow_news` finds one: a dry run of the same scenario — the simulator
//! is deterministic — says when it reaches the sender, and the real run
//! darkens the reverse wire a nanosecond either side of that instant.
//!
//! [`RxDriver`]: sdr_reliability::runtime::RxDriver

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{first_pass_arrival, swallowing, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::{SchemeReceiver, SchemeSender, SchemeSpec, REPAIR_MARGIN_DIV};
use sdr_sim::{tx_time, LinkConfig, SimTime, DEFAULT_HEADER_BYTES};

const KM: f64 = 100.0;
const BW: f64 = 400e9;
const MTU: u64 = 4096;
const CHUNK: u64 = 64 << 10;
const PKTS_PER_CHUNK: u64 = CHUNK / MTU;
const MSG: u64 = 4 << 20;
const PACKETS: u64 = MSG / MTU;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: MSG,
        msg_slots: 16,
        mtu_bytes: MTU,
        chunk_bytes: CHUNK,
        ..SdrConfig::default()
    }
}

fn one_way() -> SimTime {
    sdr_sim::propagation_delay_km(KM)
}

fn rtt() -> SimTime {
    one_way() * 2
}

fn pkt_time() -> SimTime {
    tx_time(MTU + DEFAULT_HEADER_BYTES as u64, BW)
}

/// When first-pass data packet `n` (wire order) is delivered.
fn arrives(n: u64) -> SimTime {
    first_pass_arrival(KM, BW, MTU, n)
}

struct Run {
    h: ProtoHarness,
    /// The receiver's `done` instant.
    done_at: SimTime,
    /// Repair effort the sender reported (chunks resent / rounds served).
    repairs: u64,
    /// Control datagrams the receiving side sent, linger repeats included.
    rx_datagrams: u64,
}

/// One transfer of `spec` on the lossless link, the forward direction dark
/// while first-pass packets `lost` (a range) are delivered.
fn run(spec: SchemeSpec, lost: Option<(u64, u64)>) -> Run {
    run_on(spec, MSG, lost, &[])
}

/// A `msg`-byte transfer of `spec`, started: the forward wire swallows
/// first-pass packets `lost`, the reverse wire the datagrams it delivers
/// at the instants `acks`. Returns both ends and the sender's repair
/// count cell.
fn start(
    spec: SchemeSpec,
    msg: u64,
    lost: Option<(u64, u64)>,
    acks: &[SimTime],
) -> (ProtoHarness, Ends, Rc<Cell<u64>>) {
    let mut h = ProtoHarness::new(LinkConfig::wan(KM, BW, 0.0), cfg(), msg, 5);
    if let Some((from, to)) = lost {
        let (dark, light) = swallowing(KM, BW, MTU, from, to);
        h.black_out_forward(dark, light);
    }
    let ns = SimTime::from_nanos(1);
    for &at in acks {
        for (when, down) in [(at - ns, true), (at + ns, false)] {
            let (fabric, a, b) = (h.p.fabric.clone(), h.p.node_a, h.p.node_b);
            h.p.eng.schedule_at(when, move |_eng| {
                fabric.set_link_down(b, a, down);
            });
        }
    }
    let repairs = Rc::new(Cell::new(0));
    let r = repairs.clone();
    let ends = h.start_scheme(spec, BW, move |_e, n| r.set(n));
    (h, ends, repairs)
}

/// A started transfer's sender and receiver.
type Ends = (Box<dyn SchemeSender>, SchemeReceiver);

/// [`run`] for the transfer [`start`] describes.
fn run_on(spec: SchemeSpec, msg: u64, lost: Option<(u64, u64)>, acks: &[SimTime]) -> Run {
    let (mut h, (_tx, rx), repairs) = start(spec, msg, lost, acks);
    // `start_scheme` gives the receiver a no-op done callback; completion
    // is read back from the engine clock by stepping until it shows.
    let mut done_at = None;
    h.p.eng.set_event_limit(50_000_000);
    while h.p.eng.step() {
        if done_at.is_none() && rx.is_complete() {
            done_at = Some(h.p.eng.now());
        }
    }
    assert!(h.delivered_ok(), "{spec}: delivery intact");
    assert!(rx.is_released(), "{spec}: slots released");
    Run {
        done_at: done_at.unwrap_or_else(|| panic!("{spec}: receiver never completed")),
        repairs: repairs.get(),
        rx_datagrams: h.ctrl_b.sent_count(),
        h,
    }
}

const SCHEMES: [SchemeSpec; 4] = [
    SchemeSpec::SrRto,
    SchemeSpec::SrNack,
    SchemeSpec::Gbn,
    SchemeSpec::EcMds { k: 32, m: 8 },
];

/// (a) On a clean transfer `done` fires the instant the last data packet
/// is delivered — for EC the last packet of the last *data* submessage;
/// parity is still on the wire — not on the next heartbeat.
#[test]
fn completion_is_acted_on_at_the_arrival_instant() {
    for spec in SCHEMES {
        let r = run(spec, None);
        assert_eq!(r.done_at, arrives(PACKETS - 1), "{spec}");
        // Heartbeats: RTT/4 for the ARQ schemes, RTT/8 for EC.
        assert_ne!(r.done_at.0 % (rtt() / 8).0, 0, "{spec}: on a poll boundary");
        assert_eq!(r.repairs, 0, "{spec}");
        let reg = r.h.p.fabric.metrics();
        assert_eq!(reg.counter_value("rx.wake.hole"), 0, "{spec}");
        assert_eq!(reg.counter_value("ec.nack.order"), 0, "{spec}");
    }
}

/// (b) A clean transfer sends its ACKs (the ARQ schemes' heartbeat, or
/// an SR receiver's paced news ACKs), the final ACK and its linger repeats
/// — no more control datagrams than before receivers listened to arrivals
/// (these are that tree's counts on this link: its receivers polled at
/// the same cadence and noticed completion one poll late).
#[test]
fn a_clean_transfer_sends_no_more_control_datagrams() {
    for (spec, before) in SCHEMES.into_iter().zip(DATAGRAMS_BEFORE) {
        let r = run(spec, None);
        assert!(
            r.rx_datagrams <= before,
            "{spec}: {} control datagrams, {before} before",
            r.rx_datagrams
        );
    }
}

/// What `run(spec, None).rx_datagrams` read at the parent commit, in
/// [`SCHEMES`] order.
const DATAGRAMS_BEFORE: [u64; 4] = [30, 30, 30, 26];

/// (c) One packet lost in mid-message under SR-NACK: the next chunk to
/// complete exposes the hole, one ACK says so a margin later, one chunk is
/// resent, and it lands one round trip and the margin after the exposure.
#[test]
fn a_hole_costs_one_ack_one_chunk_and_one_round_trip() {
    let clean = run(SchemeSpec::SrNack, None);
    let hole = PACKETS / PKTS_PER_CHUNK / 2;
    let lost = hole * PKTS_PER_CHUNK + 3;
    let r = run(SchemeSpec::SrNack, Some((lost, lost + 1)));
    let reg = r.h.p.fabric.metrics();
    assert_eq!(r.repairs, 1, "one chunk resent");
    assert_eq!(reg.counter_value("sr.retx.hole"), 1, "on order evidence");
    assert_eq!(reg.counter_value("rx.wake.hole"), 1, "one early step");
    assert_eq!(reg.counter_value("rx.wake.complete"), 1);

    // The chunk after the hole completes with its last packet; the ACK
    // leaves a margin later, and the sender — its device long idle — puts
    // the chunk back on the wire the moment the ACK arrives. The hole
    // fills when the copy of the one lost packet, the chunk's fourth,
    // lands.
    let margin = rtt() / REPAIR_MARGIN_DIV;
    let exposed = arrives((hole + 2) * PKTS_PER_CHUNK - 1);
    let repaired = exposed + margin + rtt() + pkt_time() * 4;
    let ack_wire_time = r.done_at - repaired;
    assert!(
        r.done_at >= repaired && ack_wire_time < SimTime::from_nanos(10),
        "repair landed at {:?}, expected {repaired:?} plus the ACK's serialization",
        r.done_at
    );

    // Exactly three datagrams more than the clean run, which ACKs its
    // first chunk and then completes inside one ACK interval: the ACK
    // naming the hole, one ACK an interval later for the chunks that
    // landed behind it, and that ACK's one repeat. Then the receiver is
    // silent until the repair lands — the RTT/4 heartbeat it no longer
    // runs spoke twice more in that wait.
    assert!(
        exposed + margin + rtt() / 2 < r.done_at,
        "the wait outlasts both"
    );
    assert_eq!(r.rx_datagrams, clean.rx_datagrams + 3);
}

/// The per-transfer twin of `flow_news`' tail loss: a two-chunk transfer
/// whose last packet the forward wire swallows. Chunk 0 is ACKed — a news
/// ACK and its one repeat — and then the receiver has nothing to say:
/// chunk 1 never completes, so nothing arrives. Which chunks the sender's
/// clock resends is what the sender heard.
const TAIL_MSG: u64 = 2 * CHUNK;

/// The forward loss of [`TAIL_MSG`]'s tail: its last first-pass packet.
const TAIL_LOST: Option<(u64, u64)> = Some((TAIL_MSG / MTU - 1, TAIL_MSG / MTU));

/// When B's `n`-th control datagram reaches A in a dry run of the tail
/// loss whose reverse wire swallows the datagrams delivered at `acks`.
fn nth_ack_lands(spec: SchemeSpec, acks: &[SimTime], n: u64) -> SimTime {
    let (mut h, _ends, _repairs) = start(spec, TAIL_MSG, TAIL_LOST, acks);
    let (a, b) = (h.p.node_a, h.p.node_b);
    while h.ctrl_b.sent_count() < n {
        assert!(h.p.eng.step(), "{spec}: ran dry before datagram {n}");
    }
    let nth = h.p.fabric.link_stats(b, a).expect("linked").sent;
    loop {
        let s = h.p.fabric.link_stats(b, a).expect("linked");
        if s.delivered + s.dropped >= nth {
            return h.p.eng.now();
        }
        assert!(h.p.eng.step(), "{spec}: datagram {n} never landed");
    }
}

/// What a tail-loss run dropped and resent: `(forward drops, reverse
/// drops, chunks resent, sr.retx.overdue, sr.retx.rto)`.
fn tail_costs(r: &Run) -> (u64, u64, u64, u64, u64) {
    let (a, b) = (r.h.p.node_a, r.h.p.node_b);
    let reg = r.h.p.fabric.metrics();
    (
        r.h.p.fabric.link_stats(a, b).unwrap().dropped,
        r.h.p.fabric.link_stats(b, a).unwrap().dropped,
        r.repairs,
        reg.counter_value("sr.retx.overdue"),
        reg.counter_value("sr.retx.rto"),
    )
}

/// Receiver datagrams of a tail-loss run: chunk 0's news ACK, its repeat,
/// the final ACK and its 25 linger repeats — nothing in the silence.
const TAIL_DATAGRAMS: u64 = 28;

/// (e) A news ACK the wire swallows is healed by its one repeat: the
/// sender resends the chunk the wire lost and not the one whose first ACK
/// it lost. Under SR-NACK the repeat shows chunk 1 a round trip overdue
/// and repairs it at once; under SR-RTO the RTO resends what the repeat
/// left unacknowledged.
#[test]
fn a_lost_news_ack_is_healed_by_its_repeat() {
    for (spec, overdue, rto) in [(SchemeSpec::SrNack, 1, 0), (SchemeSpec::SrRto, 0, 1)] {
        let ack = nth_ack_lands(spec, &[], 1);
        let r = run_on(spec, TAIL_MSG, TAIL_LOST, &[ack]);
        assert_eq!(tail_costs(&r), (1, 1, 1, overdue, rto), "{spec}");
        assert_eq!(r.rx_datagrams, TAIL_DATAGRAMS, "{spec}");
    }
}

/// (f) News ACK and repeat both swallowed: the receiver has no timer left,
/// so the sender's RTO is the only clock — its first expiry resends the
/// lost chunk and, spuriously, the one it never heard about; the bitmap
/// drops the duplicate, and the repair completes the transfer. One RTO
/// expiry, one spurious chunk, never a wedge.
#[test]
fn a_doubly_lost_ack_costs_one_spurious_resend_never_a_wedge() {
    for spec in [SchemeSpec::SrNack, SchemeSpec::SrRto] {
        let ack = nth_ack_lands(spec, &[], 1);
        let repeat = nth_ack_lands(spec, &[ack], 2);
        assert!(repeat > ack, "{spec}");
        let r = run_on(spec, TAIL_MSG, TAIL_LOST, &[ack, repeat]);
        assert_eq!(tail_costs(&r), (1, 2, 2, 0, 2), "{spec}");
        assert_eq!(r.rx_datagrams, TAIL_DATAGRAMS, "{spec}");
    }
}

/// (d) A wake pending at teardown wakes nobody. The hole is exposed, the
/// step it asked for is a margin away — and the receiver is quiesced in
/// between: nothing more is sent, the slot is released exactly once, and
/// when a successor's transfer lands in the same slot the old driver
/// hears nothing of it.
#[test]
fn a_pending_wake_dies_with_the_receiver() {
    let cfg = SdrConfig {
        msg_slots: 1,
        generations: 2,
        ..cfg()
    };
    let mut h = ProtoHarness::new(LinkConfig::wan(KM, BW, 0.0), cfg, MSG, 6);
    let hole = PACKETS / PKTS_PER_CHUNK / 2;
    let lost = hole * PKTS_PER_CHUNK;
    let (dark, light) = swallowing(KM, BW, MTU, lost, lost + 1);
    h.black_out_forward(dark, light);
    let (tx, first) = h.start_scheme(SchemeSpec::SrNack, BW, |_e, _n| {});

    // Run to just past the exposure: the wake is pending, not yet served.
    let margin = rtt() / REPAIR_MARGIN_DIV;
    let exposed = arrives((hole + 2) * PKTS_PER_CHUNK - 1);
    h.p.eng.run_until(exposed + margin / 2);
    let reg = h.p.fabric.metrics().clone();
    assert_eq!(reg.counter_value("rx.wake.hole"), 1, "the wake is pending");
    let sent = h.ctrl_b.sent_count();
    assert!(first.quiesce(&mut h.p.eng), "released by this call");
    assert!(!first.quiesce(&mut h.p.eng), "exactly once");
    tx.abort(&mut h.p.eng, sdr_reliability::AbortReason::Requested);
    h.run(10_000_000);
    assert_eq!(h.ctrl_b.sent_count(), sent, "the pending step never ran");
    assert!(first.is_released() && !first.is_complete());

    // A successor reuses the one slot (next generation) for a clean
    // transfer: it completes on its own arrival, and the predecessor's
    // driver is not woken — one completion wake, still no completion there.
    let (_tx, second) = h.start_scheme(SchemeSpec::SrNack, BW, |_e, _n| {});
    h.run(10_000_000);
    assert!(second.is_complete() && h.delivered_ok());
    assert_eq!(reg.counter_value("rx.wake.complete"), 1);
    assert_eq!(reg.counter_value("rx.wake.hole"), 1);
    assert!(!first.is_complete(), "the old driver heard nothing");
}

/// Sends open in sequence order, so a packet on a later receive
/// sequence proves an earlier slot's credit was spent: the heal stops
/// re-crediting that slot and counts it as observed, although not one
/// packet of its own landed.
#[test]
fn a_slot_passed_by_a_later_sequence_is_settled() {
    use sdr_core::testkit::{sdr_pair, SdrPair};
    use sdr_reliability::runtime::{CtrlSink, RxCommon, RxScheme, RxStep};
    use sdr_reliability::CtrlMsg;
    use sdr_sim::Engine;
    struct Idle;
    impl RxScheme for Idle {
        type Done = ();
        fn poll(&mut self, _: &mut Engine, _: &mut RxCommon, _: CtrlSink<'_>) -> bool {
            false
        }
        fn final_ack(&self) -> CtrlMsg {
            CtrlMsg::EcAck
        }
        fn done_payload(&self) {}
    }
    let cfg = SdrConfig::default();
    let mut p = sdr_pair(sdr_sim::LinkConfig::intra_dc(8e9), cfg, 8 << 20);
    let len = cfg.chunk_bytes;
    let (src, dst) = (p.ctx_a.alloc_buffer(len), p.ctx_b.alloc_buffer(2 * len));
    let mut common = RxCommon::new(&p.qp_b);
    common.post(&mut p.eng, dst, len);
    let mut rx = RxStep::new(common, Idle, 0);
    let iv = SimTime::from_secs_f64(1e-5);
    p.eng.run();
    let credits = |p: &SdrPair| p.qp_a.stats().cts_received;
    let mut step = |p: &mut SdrPair| {
        let before = credits(p);
        rx.poll(&mut p.eng, &mut |_, _| {});
        p.eng.run();
        let observed = rx.common().observed();
        (credits(p) - before, observed, rx.next_step(p.eng.now(), iv))
    };

    // Nothing landed yet: the slot is re-credited, the heal clock runs.
    let (reissued, observed, next) = step(&mut p);
    assert_eq!((reissued, observed), (1, false));
    assert!(next.is_some());

    // The sender opens the slot's send and none of its packets land;
    // the next send lands on a later receive sequence.
    p.qp_a
        .send_stream_start(&mut p.eng, src, len, None)
        .unwrap();
    p.qp_b.recv_post(&mut p.eng, dst + len, len).unwrap();
    p.eng.run();
    p.qp_a.send_post(&mut p.eng, src, len, None).unwrap();
    p.eng.run();
    assert_eq!(p.qp_b.highest_landed_seq(), Some(1));
    let (reissued, observed, next) = step(&mut p);
    assert_eq!(reissued, 0, "a spent credit is not re-issued");
    assert!(observed, "a passed slot is observed");
    assert_eq!(next, None, "nothing is left to heal");
}

/// An EC transfer whose whole first pass dies — data and parity alike —
/// still completes: nothing lands, so the receiver can observe nothing
/// and its FTO never arms, but it keeps healing the credits of its
/// unsettled slots, and a heal that reaches the sender more than a round
/// trip (plus one margin) after a send left proves that send lost. The
/// sender re-injects each such send once; younger heals, which cross the
/// first pass on a doubling clock from `rtt / 8`, resend nothing.
#[test]
fn an_ec_transfer_whose_whole_first_pass_died_completes() {
    const KM: f64 = 1000.0;
    const BW: f64 = 8e9;
    let cfg = SdrConfig {
        max_msg_bytes: 2 << 20,
        msg_slots: 32,
        mtu_bytes: MTU,
        chunk_bytes: CHUNK,
        ..SdrConfig::default()
    };
    let msg = 1 << 20;
    let mut h = ProtoHarness::new(LinkConfig::wan(KM, BW, 0.0), cfg, msg, 9);
    let rtt = h.rtt;
    h.black_out_forward(SimTime::ZERO, rtt * 3);
    let (_tx, rx) = h.start_scheme(SchemeSpec::EcMds { k: 32, m: 8 }, BW, |_e, _n| {});
    h.run(5_000_000);
    let wire = h.p.fabric.link_stats(h.p.node_a, h.p.node_b).unwrap();
    // 16 data chunks and 8 parity chunks of 16 packets each.
    let first_pass = msg / MTU + 8 * PKTS_PER_CHUNK;
    assert_eq!(wire.dropped, first_pass, "the whole first pass died");
    assert!(rx.is_complete(), "the transfer completes");
    assert!(h.delivered_ok(), "delivery intact");
    assert_eq!(wire.sent, 2 * first_pass, "each send is re-injected once");
    h.teardown().unwrap();
}
