//! The SR sender core on its own — no engine, no QP, no driver: feed it
//! departure stamps, `now` and decoded ACKs, collect what it resends,
//! check the deadline it hands back and the reason it counted. Each
//! sequence runs under both sets of timeout inputs the tree passes it: the
//! per-transfer driver's (`rto = 3 RTT`, overdue after `RTT + RTT/64`) and
//! the flow manager's population-scaled ones (an RTO widened by control
//! pacing, overdue after `rto/2 + pace horizon`).

use proptest::prelude::*;
use sdr_core::AtomicBitmap;
use sdr_reliability::ack::{build_sr_ack, CtrlMsg, MAX_NACKS, MAX_SACK_BITS};
use sdr_reliability::{SrTrace, SrTxCore, REPAIR_MARGIN_DIV};
use sdr_sim::{EventKind, FlightRecorder, Registry, SimTime};

const RTT: SimTime = SimTime(1_000_000);
const CHUNKS: usize = 8;
/// First-pass serialization per chunk: chunk `c` leaves the wire at
/// `(c + 1) · STEP`.
const STEP: SimTime = SimTime(10_000);

/// `(name, rto, overdue)` as each driver derives them.
fn inputs() -> [(&'static str, SimTime, SimTime); 2] {
    let horizon = SimTime(RTT.0 / 10);
    let wide_rto = SimTime(RTT.0 * 10);
    [
        (
            "per-transfer",
            SimTime(RTT.0 * 3),
            SimTime(RTT.0 + RTT.0 / REPAIR_MARGIN_DIV),
        ),
        ("population", wide_rto, SimTime(wide_rto.0 / 2 + horizon.0)),
    ]
}

fn departs(c: usize) -> SimTime {
    SimTime((c as u64 + 1) * STEP.0)
}

/// A core whose first pass of `chunks` left the wire back to back, plus
/// the registry its reasons are counted in.
fn sent_core(chunks: usize) -> (SrTxCore, Registry) {
    let reg = Registry::new();
    let mut core = SrTxCore::new(chunks, SrTrace::new(&reg));
    for c in 0..chunks {
        core.record_sent(c, departs(c));
    }
    (core, reg)
}

/// `(hole, overdue, rto, stale)` as the registry saw them.
fn reasons(reg: &Registry) -> (u64, u64, u64, u64) {
    (
        reg.counter_value("sr.retx.hole"),
        reg.counter_value("sr.retx.overdue"),
        reg.counter_value("sr.retx.rto"),
        reg.counter_value("sr.nack.stale"),
    )
}

/// The snapshot of a receiver holding exactly `have` of `total` chunks.
fn snapshot(total: usize, have: &[usize]) -> CtrlMsg {
    let bm = AtomicBitmap::new(total);
    for &c in have {
        bm.set(c);
    }
    build_sr_ack(&bm, total, true)
}

#[test]
fn ack_then_nack_claims_respect_the_guard() {
    for (name, rto, overdue) in inputs() {
        let (mut core, reg) = sent_core(CHUNKS);
        let mut sent = Vec::new();
        // Every repair queues behind the same device: it leaves the wire
        // `STEP` after it was asked for.
        let queue = |now: SimTime| SimTime(now.0 + STEP.0);

        // One RTT in the receiver holds 0, 1 and 4: 2 and 3 are holes by
        // wire order and go out at once under either driver's inputs —
        // there is no guard on a chunk that was never resent.
        let msg = snapshot(CHUNKS, &[0, 1, 4]);
        let p = core.on_ctrl(RTT, &msg, rto, Some(overdue), |c| {
            sent.push(c);
            queue(RTT)
        });
        assert!(!p.complete, "{name}");
        assert_eq!(
            p.ack_rtt,
            Some(RTT - departs(0)),
            "{name}: the sample runs from departure, not from post"
        );
        assert_eq!(p.rearm, None, "{name}: no backoff to heal");
        assert_eq!(sent, vec![2, 3], "{name}: first report");
        assert_eq!(reasons(&reg), (2, 0, 0, 0), "{name}");

        // The same report again while the repairs are in flight — up to
        // one tick short of `overdue` after they *left the wire* — is
        // absorbed and counted stale. The tail past the high-water mark
        // (5, 6, 7) is not overdue either under the population inputs;
        // under the per-transfer ones it is, a round trip after it left.
        sent.clear();
        let left = queue(RTT);
        let early = SimTime(left.0 + overdue.0 - 1);
        core.on_ctrl(early, &msg, rto, Some(overdue), |c| {
            sent.push(c);
            queue(early)
        });
        let tail: Vec<usize> = (5..CHUNKS)
            .filter(|&c| early.0 - departs(c).0 >= overdue.0)
            .collect();
        assert_eq!(sent, tail, "{name}: repairs in flight are left alone");
        assert_eq!(reasons(&reg).3, 2, "{name}: both holes counted stale");

        // One tick later the snapshot lacks them a full `overdue` after
        // their repair left: time evidence, they go again.
        sent.clear();
        let due = SimTime(left.0 + overdue.0);
        core.on_ctrl(due, &msg, rto, Some(overdue), |c| {
            sent.push(c);
            queue(due)
        });
        assert_eq!(&sent[..2], &[2, 3], "{name}: the repair was lost too");
        let (hole, over, timer, stale) = reasons(&reg);
        assert_eq!((hole, timer, stale), (2, 0, 2), "{name}");
        assert_eq!(
            hole + over,
            core.retransmitted(),
            "{name}: the reasons sum to the report"
        );

        // ACKs not driving repair (scheme without NACKs, or first pass
        // still being injected): acks apply, holes wait for the RTO.
        let (mut quiet, reg) = sent_core(CHUNKS);
        let late = SimTime(overdue.0 * 4);
        quiet.on_ctrl(late, &msg, rto, None, |_| panic!("{name}: repaired"));
        assert_eq!(quiet.acks(), 1, "{name}");
        assert_eq!(reasons(&reg), (0, 0, 0, 0), "{name}");

        // A retransmitted chunk's ACK is ambiguous: no sample (Karn).
        let all: Vec<usize> = (0..4).collect();
        let p = core.on_ctrl(
            SimTime(due.0 + RTT.0),
            &snapshot(CHUNKS, &all),
            rto,
            None,
            |_| panic!(),
        );
        assert_eq!(p.ack_rtt, None, "{name}: Karn's rule");
    }
}

#[test]
fn expiry_backs_off_and_progress_heals_it() {
    for (name, rto, overdue) in inputs() {
        let (mut core, reg) = sent_core(CHUNKS);
        let mut sent = Vec::new();

        // The clock of chunk 0 starts when it left the wire: one tick
        // short of an RTO after *that* nothing fires, and the deadline is
        // its departure plus one RTO.
        let first = SimTime(departs(0).0 + rto.0);
        let next = core.on_tick(SimTime(first.0 - 1), rto, |_| panic!("{name}"));
        assert_eq!(next, Some(first), "{name}: sleep to the earliest expiry");

        // Chunks 0..6 get acked; at 7's expiry 6 and 7 go together, and
        // the deadline that comes back is computed from the stamps the
        // resends just earned (they queue `STEP` deep), under the doubled
        // timeout.
        let mut six = snapshot(CHUNKS, &[0, 1, 2, 3, 4, 5]);
        core.on_ctrl(RTT, &six, rto, None, |_| panic!("{name}"));
        let t = SimTime(departs(7).0 + rto.0);
        let next = core.on_tick(t, rto, |c| {
            sent.push(c);
            SimTime(t.0 + STEP.0)
        });
        assert_eq!(sent, vec![6, 7], "{name}: both stragglers retransmit");
        assert_eq!(
            next,
            Some(SimTime(t.0 + STEP.0 + rto.0 * 2)),
            "{name}: new stamps, doubled timeout"
        );
        assert_eq!(reasons(&reg), (0, 0, 2, 0), "{name}: the timer's doing");

        // Progress after backed-off silence pulls the scan back to one
        // base RTO from now; completion needs no timer at all.
        let t2 = SimTime(t.0 + RTT.0);
        six = snapshot(CHUNKS, &[0, 1, 2, 3, 4, 5, 6]);
        let p = core.on_ctrl(t2, &six, rto, Some(overdue), |_| panic!("{name}"));
        assert_eq!(p.rearm, Some(SimTime(t2.0 + rto.0)), "{name}: backoff heal");
        assert_eq!(p.ack_rtt, None, "{name}: retransmitted chunk, no sample");
        let all: Vec<usize> = (0..CHUNKS).collect();
        let done = snapshot(CHUNKS, &all);
        let p = core.on_ctrl(SimTime(t2.0 + 1), &done, rto, Some(overdue), |_| panic!());
        assert!(p.complete, "{name}");
        assert_eq!(p.rearm, None, "{name}: nothing left to time");
        assert_eq!(core.on_tick(SimTime(rto.0 * 9), rto, |_| panic!()), None);
        assert_eq!((core.retransmitted(), core.acks()), (2, 3), "{name}");
    }
}

#[test]
fn a_lost_tail_is_repaired_by_the_first_snapshot_a_round_trip_after_it_left() {
    for (name, rto, overdue) in inputs() {
        let (mut core, reg) = sent_core(CHUNKS);
        let rec = FlightRecorder::new(64);
        core.set_trace(rec.clone(), 9);
        // The receiver holds everything but the last chunk: no hole below
        // its high-water mark, so no report can name what is missing.
        let have: Vec<usize> = (0..CHUNKS - 1).collect();
        let msg = snapshot(CHUNKS, &have);
        let CtrlMsg::SrAck {
            nacks, sack_len, ..
        } = &msg
        else {
            panic!()
        };
        assert!(
            nacks.is_empty() && *sack_len == 0,
            "{name}: nothing to list"
        );

        let left = departs(CHUNKS - 1);
        let mut sent = Vec::new();
        let early = SimTime(left.0 + overdue.0 - 1);
        core.on_ctrl(early, &msg, rto, Some(overdue), |_| panic!("{name}: early"));
        let due = SimTime(left.0 + overdue.0);
        assert!(due.0 < left.0 + rto.0, "{name}: well inside the RTO");
        core.on_ctrl(due, &msg, rto, Some(overdue), |c| {
            sent.push(c);
            due
        });
        assert_eq!(sent, vec![CHUNKS - 1], "{name}");
        assert_eq!(reasons(&reg), (0, 1, 0, 0), "{name}: time evidence");
        assert!(
            rec.events().iter().all(|e| e.kind != EventKind::RtoFire),
            "{name}: the timer never fired"
        );

        // A window cut at its cap says nothing about what lies past it.
        let (mut core, _) = sent_core(MAX_SACK_BITS * 2);
        let cut = CtrlMsg::SrAck {
            cumulative: 0,
            window_start: 0,
            sack_bits: vec![0; MAX_SACK_BITS / 64],
            sack_len: MAX_SACK_BITS as u32,
            nacks: vec![],
        };
        let far = SimTime(rto.0 * 100);
        let mut sent = Vec::new();
        core.on_ctrl(far, &cut, rto, Some(overdue), |c| {
            sent.push(c);
            far
        });
        assert_eq!(
            sent,
            (0..MAX_SACK_BITS).collect::<Vec<_>>(),
            "{name}: only what the window describes"
        );
    }
}

#[test]
fn a_copy_still_queued_is_never_resent() {
    for (name, rto, overdue) in inputs() {
        let (mut core, reg) = sent_core(CHUNKS);
        let msg = snapshot(CHUNKS, &[0, 1, 3]);
        // The repair of hole 2 is told it will sit in the device FIFO for
        // a long time: its stamp is far in the future.
        let queued_until = SimTime(rto.0 * 50);
        let mut sent = Vec::new();
        core.on_ctrl(RTT, &msg, rto, Some(overdue), |c| {
            sent.push(c);
            queued_until
        });
        assert_eq!(sent[0], 2, "{name}");
        // Until it has left — and a round trip more — neither a hole
        // report nor the RTO scan may touch it again.
        for k in 1..40u64 {
            let now = SimTime(RTT.0 + rto.0 * k);
            core.on_ctrl(now, &msg, rto, Some(overdue), |c| {
                assert_ne!(c, 2, "{name}: ack at {now:?}");
                now
            });
            core.on_tick(now, rto, |c| {
                assert_ne!(c, 2, "{name}: scan at {now:?}");
                now
            });
        }
        assert!(reasons(&reg).3 >= 39, "{name}: every report counted stale");
        let mut again = Vec::new();
        let due = SimTime(queued_until.0 + overdue.0);
        core.on_ctrl(due, &msg, rto, Some(overdue), |c| {
            again.push(c);
            due
        });
        assert!(again.contains(&2), "{name}: overdue once it really left");
    }
}

#[test]
fn a_self_contradicting_ack_is_dropped_whole() {
    let (mut core, _) = sent_core(CHUNKS);
    let rto = SimTime(RTT.0 * 3);
    let bad = |cumulative, window_start, nacks: &[u32]| CtrlMsg::SrAck {
        cumulative,
        window_start,
        sack_bits: vec![],
        sack_len: 0,
        nacks: nacks.to_vec(),
    };
    for msg in [
        bad(4, 2, &[]),     // the description ends before it begins
        bad(1, 6, &[3, 2]), // holes out of order
        bad(1, 6, &[2, 2]), // a hole twice
        bad(3, 6, &[2]),    // a hole below the cumulative point
        bad(1, 6, &[6]),    // a hole past the description
        CtrlMsg::GbnAck { cumulative: 8 },
    ] {
        let p = core.on_ctrl(RTT, &msg, rto, Some(RTT), |_| panic!("{msg:?}"));
        assert!(!p.complete);
        assert_eq!(core.acks(), 0, "{msg:?}");
    }
    // Nothing was acked: the scan still finds every chunk.
    let mut unacked = Vec::new();
    core.on_tick(SimTime(rto.0 * 2), rto, |c| {
        unacked.push(c);
        SimTime::ZERO
    });
    assert_eq!(unacked, (0..CHUNKS).collect::<Vec<_>>());
}

/// What a fresh core acks from `msg`: everything the RTO scan does not
/// find afterwards.
fn acked_by(total: usize, msg: &CtrlMsg) -> Vec<bool> {
    let (mut core, _) = sent_core(total);
    let rto = SimTime(RTT.0 * 3);
    core.on_ctrl(RTT, msg, rto, None, |_| unreachable!());
    let mut acked = vec![true; total];
    core.on_tick(SimTime(u64::MAX / 2), rto, |c| {
        acked[c] = false;
        SimTime::ZERO
    });
    acked
}

/// `build_sr_ack` → `on_ctrl` round trip: exactly the received chunks
/// below the description's end get acked, and never a hole. Returns the
/// ACK it checked.
fn check_round_trip(total: usize, have: &[bool]) -> CtrlMsg {
    let bm = AtomicBitmap::new(total);
    for (c, _) in have.iter().enumerate().filter(|(_, h)| **h) {
        bm.set(c);
    }
    let msg = build_sr_ack(&bm, total, true);
    let CtrlMsg::SrAck {
        window_start,
        sack_len,
        nacks,
        ..
    } = &msg
    else {
        panic!()
    };
    let end = (*window_start + *sack_len) as usize;
    let holes = have.iter().filter(|h| !**h).count();
    let high_water = have.iter().rposition(|h| *h).map_or(0, |c| c + 1);
    let open = have[..high_water].iter().filter(|h| !**h).count();
    if open <= MAX_NACKS {
        assert_eq!(nacks.len(), open, "every hole listed");
        assert_eq!((end, *sack_len), (high_water, 0), "no window needed");
    } else {
        assert_eq!(nacks.len(), MAX_NACKS, "list full, window takes over");
        assert_eq!(end, high_water.min(*window_start as usize + MAX_SACK_BITS));
    }
    let acked = acked_by(total, &msg);
    for c in 0..total {
        assert_eq!(acked[c], have[c] && c < end, "chunk {c} (end {end})");
    }
    assert_eq!(msg, CtrlMsg::decode(msg.encode()).unwrap(), "one datagram");
    assert!(holes > 0 || acked.iter().all(|a| *a));
    msg
}

#[test]
fn sparse_holes_across_a_long_message_fit_one_datagram() {
    // 4 096 chunks, holes 1 500 apart: the old window-at-cumulative format
    // needed three round trips to describe this; the snapshot does it in
    // one ACK of a cumulative point and two more list entries.
    let total = 4096;
    let mut have = vec![true; total];
    for h in [700, 2200, 3700] {
        have[h] = false;
    }
    assert_eq!(
        check_round_trip(total, &have),
        CtrlMsg::SrAck {
            cumulative: 700,
            window_start: 4096,
            sack_bits: vec![],
            sack_len: 0,
            nacks: vec![700, 2200, 3700],
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn a_snapshot_acks_exactly_what_it_describes(
        total in 1usize..3000,
        seed in any::<u64>(),
        // Loss from a handful of holes to far more than the list holds.
        loss_permille in 0u64..400,
        // How much of the message the first pass has reached.
        reach_permille in 0u64..=1000,
    ) {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let reach = total * reach_permille as usize / 1000;
        let have: Vec<bool> = (0..total)
            .map(|c| c < reach && next() % 1000 >= loss_permille)
            .collect();
        check_round_trip(total, &have);
    }
}
