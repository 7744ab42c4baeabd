//! The scheme table is checked where it can drift: what a spec *says* it
//! costs against what starting it actually consumes, what the advisor can
//! return against what the wire can carry, and the EC ladder against the
//! order its two readers assume.

mod common;

use common::ProtoHarness;
use sdr_core::SdrConfig;
use sdr_reliability::{CtrlMsg, SchemeSpec};
use sdr_sim::LinkConfig;

const BW: f64 = 8e9;
const CHUNK: u64 = 64 * 1024;

/// Room for the widest row: 40 chunks at k = 8 is L = 5, ten slots.
fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 16,
        chunk_bytes: CHUNK,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// `sends` is what a host budgets by — the adaptive sender derives each
/// segment's first send sequence from it, the receiver checks slot room
/// against it — so a run started through the table must consume exactly
/// that many send sequences and receive slots, tails included.
#[test]
fn a_started_spec_consumes_exactly_the_sends_it_declares() {
    // 40 chunks leave a short tail submessage at every ladder `k`.
    let arq = [SchemeSpec::SrRto, SchemeSpec::SrNack, SchemeSpec::Gbn];
    let rows = (arq.into_iter().chain(SchemeSpec::EC_LADDER))
        .map(|spec| (spec, 40 * CHUNK))
        // XOR clamps the tail's parity to its one data chunk.
        .chain([(SchemeSpec::EcXor { k: 4, m: 2 }, 9 * CHUNK)]);
    for (spec, msg) in rows {
        let link = LinkConfig::wan(50.0, BW, 0.0).with_seed(7);
        let mut h = ProtoHarness::new(link, cfg(), msg, 0x7AB1E);
        let (send0, recv0) = (h.p.qp_a.next_send_seq(), h.p.qp_b.next_recv_seq());
        let (tx, rx) = h.start_scheme(spec, BW, |_e, _repairs| {});
        h.run(20_000_000);
        assert!(tx.is_done() && rx.is_released(), "{spec}: ran to the end");
        assert!(h.delivered_ok(), "{spec}: delivery intact");
        let want = spec.sends(msg, CHUNK);
        assert_eq!(h.p.qp_a.next_send_seq() - send0, want, "{spec}: sends");
        assert_eq!(h.p.qp_b.next_recv_seq() - recv0, want, "{spec}: slots");
    }
}

/// Whatever `recommend` returns, the controller proposes: every candidate
/// must survive `SwitchPropose` encode → decode unchanged.
#[test]
fn every_recommendable_spec_round_trips_through_switch_propose() {
    for (i, spec) in SchemeSpec::candidates().enumerate() {
        let msg = CtrlMsg::SwitchPropose {
            seq: i as u32,
            epoch: 3,
            spec,
        };
        assert_eq!(CtrlMsg::decode(msg.encode()), Some(msg), "{spec}");
    }
    assert!(
        SchemeSpec::EC_LADDER
            .iter()
            .all(|rung| SchemeSpec::candidates().any(|c| c == *rung)),
        "the advisor evaluates every rung"
    );
}

/// `stronger` walks the ladder one rung at a time, each rung strictly
/// more parity per data chunk than the last, and stops on the top one.
#[test]
fn stronger_is_strictly_monotone_and_ends_on_the_last_rung() {
    let parity_fraction = |s: SchemeSpec| match s {
        SchemeSpec::EcMds { k, m } => f64::from(m) / f64::from(k),
        other => panic!("{other} on the EC ladder"),
    };
    for pair in SchemeSpec::EC_LADDER.windows(2) {
        assert_eq!(pair[0].stronger(), pair[1]);
        assert!(parity_fraction(pair[0]) < parity_fraction(pair[1]));
    }
    let top = SchemeSpec::EC_LADDER[SchemeSpec::EC_LADDER.len() - 1];
    assert_eq!(top.stronger(), top);
    // Off the ladder: XOR hardens to the MDS code of its shape; a split
    // the advisor never names and the ARQ specs stay what they are.
    assert_eq!(
        SchemeSpec::EcXor { k: 32, m: 8 }.stronger(),
        SchemeSpec::EcMds { k: 32, m: 8 }
    );
    for fixed in [
        SchemeSpec::EcMds { k: 4, m: 2 },
        SchemeSpec::SrRto,
        SchemeSpec::SrNack,
        SchemeSpec::Gbn,
    ] {
        assert_eq!(fixed.stronger(), fixed);
    }
}
