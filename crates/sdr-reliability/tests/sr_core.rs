//! The SR sender core on its own — no engine, no QP, no driver: feed it
//! `now` and decoded ACKs, collect what it resends, check the deadline it
//! hands back. Each sequence runs under both sets of timeout inputs the
//! tree passes it: the per-transfer driver's (`rto = 3 RTT`, claim guard =
//! `cfg.tick = RTT/4`) and the flow manager's population-scaled ones (an
//! RTO widened by control pacing, claim guard = `rto/2 + pace horizon`).

use sdr_reliability::ack::CtrlMsg;
use sdr_reliability::SrTxCore;
use sdr_sim::SimTime;

const RTT: SimTime = SimTime(1_000_000);
const CHUNKS: usize = 8;

/// `(name, rto, claim guard)` as each driver derives them.
fn inputs() -> [(&'static str, SimTime, SimTime); 2] {
    let horizon = SimTime(RTT.0 / 10);
    let wide_rto = SimTime(RTT.0 * 10);
    [
        ("per-transfer", SimTime(RTT.0 * 3), SimTime(RTT.0 / 4)),
        ("population", wide_rto, SimTime(wide_rto.0 / 2 + horizon.0)),
    ]
}

/// An SrAck with `cumulative` chunks in order, `sacked` beyond them, and
/// `nacks` reported as holes.
fn ack(cumulative: u32, sacked: &[u32], nacks: &[u32]) -> CtrlMsg {
    let len = sacked.iter().map(|c| c - cumulative + 1).max().unwrap_or(0);
    let mut bits = vec![0u64; (len as usize).div_ceil(64)];
    for c in sacked {
        let b = (c - cumulative) as usize;
        bits[b / 64] |= 1 << (b % 64);
    }
    CtrlMsg::SrAck {
        cumulative,
        window_start: cumulative,
        sack_bits: bits,
        sack_len: len,
        nacks: nacks.to_vec(),
    }
}

fn at(t: u64) -> SimTime {
    SimTime(t)
}

#[test]
fn ack_then_nack_claims_respect_the_guard() {
    for (name, rto, guard) in inputs() {
        let mut core = SrTxCore::new(CHUNKS);
        core.all_sent_at(at(0));
        let mut sent = Vec::new();

        // One RTT in: 0,1 cumulative, 4 selective, 2 and 3 reported lost.
        let msg = ack(2, &[4], &[2, 3]);
        let p = core.on_ctrl(RTT, &msg, rto, Some(guard), |c| sent.push(c));
        assert!(!p.complete, "{name}");
        assert_eq!(p.ack_rtt, Some(RTT), "{name}: clean first-pass sample");
        assert_eq!(p.rearm, None, "{name}: no backoff to heal");
        // The claim fires only once the chunk's last send is a guard old.
        let claimed = if RTT >= guard { vec![2, 3] } else { vec![] };
        assert_eq!(sent, claimed, "{name}: first NACK");

        // The same NACK again right at the guard boundary measured from
        // the *latest* send: already-claimed chunks stay quiet until a
        // full guard has passed since their resend.
        let first_claim_at = if RTT >= guard { RTT } else { guard };
        sent.clear();
        let p = core.on_ctrl(first_claim_at, &msg, rto, Some(guard), |c| sent.push(c));
        assert_eq!(
            sent,
            if RTT >= guard { vec![] } else { vec![2, 3] },
            "{name}: duplicate NACK inside the guard window is absorbed"
        );
        assert_eq!(p.ack_rtt, None, "{name}: nothing newly acked");
        sent.clear();
        let dup = SimTime(first_claim_at.0 + guard.0 - 1);
        core.on_ctrl(dup, &msg, rto, Some(guard), |c| sent.push(c));
        assert!(sent.is_empty(), "{name}: one tick short of the guard");
        let again = SimTime(first_claim_at.0 + guard.0);
        core.on_ctrl(again, &msg, rto, Some(guard), |c| sent.push(c));
        assert_eq!(sent, vec![2, 3], "{name}: a guard later the claim reopens");
        assert_eq!(core.retransmitted(), 4, "{name}");

        // NACKs not honoured (scheme without them, or first pass still
        // being injected): acks apply, holes wait for the RTO.
        let mut quiet = SrTxCore::new(CHUNKS);
        quiet.all_sent_at(at(0));
        let late = SimTime(guard.0 * 4);
        quiet.on_ctrl(late, &msg, rto, None, |_| panic!("{name}: claimed"));
        assert_eq!(quiet.acks(), 1, "{name}");

        // A retransmitted chunk's ACK is ambiguous: no sample (Karn).
        let p = core.on_ctrl(
            SimTime(again.0 + RTT.0),
            &ack(4, &[], &[]),
            rto,
            None,
            |_| {},
        );
        assert_eq!(p.ack_rtt, None, "{name}: Karn's rule");
    }
}

#[test]
fn expiry_backs_off_and_progress_heals_it() {
    for (name, rto, guard) in inputs() {
        let mut core = SrTxCore::new(CHUNKS);
        core.all_sent_at(at(0));
        let mut sent = Vec::new();

        // Before the RTO nothing fires; the deadline is one RTO out.
        let next = core.on_tick(SimTime(rto.0 - 1), rto, |c| sent.push(c));
        assert!(sent.is_empty(), "{name}");
        assert_eq!(next, Some(rto), "{name}: sleep to the earliest expiry");

        // Chunks 0..6 get acked; 6 and 7 expire together and back off.
        core.on_ctrl(RTT, &ack(6, &[], &[]), rto, Some(guard), |_| {});
        let next = core.on_tick(rto, rto, |c| sent.push(c));
        assert_eq!(sent, vec![6, 7], "{name}: both stragglers retransmit");
        assert_eq!(
            next,
            Some(SimTime(rto.0 * 3)),
            "{name}: a firing scan doubles the effective RTO"
        );

        // Progress after backed-off silence pulls the scan back to one
        // base RTO from now; completion needs no timer at all.
        let t = SimTime(rto.0 + RTT.0);
        let p = core.on_ctrl(t, &ack(7, &[], &[]), rto, Some(guard), |_| {});
        assert_eq!(p.rearm, Some(SimTime(t.0 + rto.0)), "{name}: backoff heal");
        assert_eq!(p.ack_rtt, None, "{name}: retransmitted chunk, no sample");
        let p = core.on_ctrl(
            SimTime(t.0 + 1),
            &ack(8, &[], &[]),
            rto,
            Some(guard),
            |_| {},
        );
        assert!(p.complete, "{name}");
        assert_eq!(p.rearm, None, "{name}: nothing left to time");
        assert_eq!(core.on_tick(SimTime(rto.0 * 9), rto, |_| panic!()), None);
        assert_eq!((core.retransmitted(), core.acks()), (2, 3), "{name}");
    }
}
