//! The edges of the receivers' arrival-driven steps ([`RxDriver`] under
//! every scheme): completion is acted on at the arrival instant, a clean
//! transfer says no more than the heartbeat says, a hole costs one ACK and
//! one round trip, and a wake that is pending when the receiver is torn
//! down wakes nobody — not the old driver, not the slot's next owner.
//!
//! The links here are lossless and the losses scripted (a forward
//! blackout that swallows chosen packets), so every instant below is
//! arithmetic on the link: the receiver posts at 0, its CTS takes one
//! serialization and one propagation delay, the sender streams the whole
//! message from that instant without a gap.
//!
//! [`RxDriver`]: sdr_reliability::runtime::RxDriver

mod common;

use common::{first_pass_arrival, swallowing, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::{SchemeSpec, REPAIR_MARGIN_DIV};
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
    let mut h = ProtoHarness::new(LinkConfig::wan(KM, BW, 0.0), cfg(), MSG, 5);
    if let Some((from, to)) = lost {
        let (dark, light) = swallowing(KM, BW, MTU, from, to);
        h.black_out_forward(dark, light);
    }
    let repairs = std::rc::Rc::new(std::cell::Cell::new(0));
    let r = repairs.clone();
    let (_tx, rx) = h.start_scheme(spec, BW, move |_e, n| r.set(n));
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

/// (b) Arrivals in order are not news: a clean transfer sends the
/// heartbeat's ACKs, the final ACK and its linger repeats — no more
/// control datagrams than before receivers listened to arrivals (these
/// are that tree's counts on this link: its receivers polled at the same
/// cadence and noticed completion one poll late).
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

    // Exactly one datagram more than the heartbeat would have sent over
    // the same span: both runs share the heartbeats before the exposure;
    // from the early step on the heartbeat runs every RTT/4 until the
    // repair lands.
    let heartbeats_waiting = (r.done_at - (exposed + margin)).0 / (rtt() / 4).0;
    assert_eq!(r.rx_datagrams, clean.rx_datagrams + 1 + heartbeats_waiting);
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
