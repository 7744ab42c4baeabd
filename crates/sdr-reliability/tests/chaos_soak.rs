//! Chaos soak: proptest-generated fault scripts over adaptive transfers.
//!
//! Every case is a [`SoakCase`]: a two-node deployment with a randomized
//! [`FaultPlan`] (loss steps, Gilbert–Elliott shifts, blackouts, flaps,
//! diurnal drift, receiver crash/restart) on the duplex link — possibly
//! over a wire that also duplicates, reorders and corrupts packets — and
//! an adaptive transfer with an optional per-transfer deadline. Running it
//! ([`SoakCase::run`]) checks the teardown contract and the survivability
//! trichotomy: delivered byte-identical, aborted with a manifest, or
//! resumed from the crashed receiver's journal by the supervisor. The `chaos_soak` bench runs the same cases, drawn from
//! its own distribution.
//!
//! Fault plans are finite by construction (blackouts heal, flaps end up,
//! drift rests at its floor, restarts re-attach), so an undeadlined
//! transfer must always deliver. Each case is derived deterministically
//! from a drawn 48-bit key; a failure message carries the
//! `CHAOS_CASE=<key>` one-liner that replays exactly that deployment via
//! the [`chaos_one`] test, and both nodes' flight-recorder timelines
//! ([`ProtoHarness::forensics`] says how to read one). Replay with
//! `SDR_TRACE=0` to confirm forensics never perturb the run. The
//! handshake soak has the same shape under `HANDSHAKE_CASE=<key>` /
//! [`handshake_one`].
//!
//! The acceptance demos ride along as directed cases: a 40 MiB transfer
//! surviving a 2 s mid-transfer blackout with only O(log) resends per
//! in-flight chunk (RTO backoff); the same transfer under a deadline
//! shorter than the outage aborting cleanly on both ends; and a 40 MiB
//! transfer whose receiver restarts ~60 % delivered, resuming to a
//! byte-identical finish while retransmitting none of the
//! already-delivered bytes.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sdr_core::SdrConfig;
use sdr_reliability::testkit::{
    draw_faults, draw_unfaithful, Arm, Draw, ProtoHarness, SoakCase, Verdict,
};
use sdr_reliability::{AbortReason, SchemeSpec, TelemetryConfig, TransferOutcome};
use sdr_sim::{FaultEvent, FaultPlan, LinkConfig, LossModel, RestartSide, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;

/// The proptest RNG behind the shared draws.
struct Rng(TestRng);

impl Draw for Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn next_f64(&mut self) -> f64 {
        self.0.next_f64()
    }
}

/// Node B crashes at `at` and re-attaches `dead` later.
fn crash_b(at: SimTime, dead: SimTime) -> FaultEvent {
    FaultEvent::PeerRestart {
        at,
        side: RestartSide::B,
        dead_time: dead,
    }
}

/// Draws a full case from the deterministic per-case RNG, with its
/// one-line description.
fn gen_case(key: u64) -> (SoakCase, String) {
    let mut rng = Rng(TestRng::for_case(key));
    let msg = [2u64 << 20, 4 << 20, 8 << 20][rng.below(3) as usize];
    let initial = [
        SchemeSpec::SrNack,
        SchemeSpec::SrRto,
        SchemeSpec::Gbn,
        SchemeSpec::EcMds { k: 32, m: 8 },
    ][rng.below(4) as usize];
    let p_base = 10f64.powf(-(2.5 + rng.next_f64() * 2.0));
    let n = 1 + rng.below(3);
    let mut plan = draw_faults(&mut rng, n);
    let (dup_p, reorder) = draw_unfaithful(&mut rng);
    // Half the wires also flip bits, at densities from 1e-6 up to 2e-5
    // per bit (~45% of 4 KiB data packets at the top). The checksummed
    // planes must turn every flip into a loss or a clean abort.
    let corrupt_p = if rng.below(2) == 0 {
        0.0
    } else {
        10f64.powf(-(4.7 + rng.next_f64() * 1.3))
    };
    // A third of the runs crash the receiver mid-flight; the supervisor
    // resumes it from its manifest one re-attach later.
    if rng.below(3) == 0 {
        let at = SimTime::from_secs_f64(0.002 + rng.next_f64() * 0.010);
        let dead = SimTime::from_secs_f64(0.001 + rng.next_f64() * 0.004);
        plan = plan.with(crash_b(at, dead));
    }
    // A third of the runs are undeadlined (must deliver), a third run
    // under a generous deadline (must deliver within it), a third under a
    // tight one sized to the faulted region (usually aborts).
    let deadline = match rng.below(3) {
        0 => None,
        1 => Some(SimTime::from_secs_f64(1.5)),
        _ => Some(SimTime::from_secs_f64(0.004 + rng.next_f64() * 0.010)),
    };
    let link_seed = rng.0.next_u64();
    let mut link = LinkConfig::wan(KM, BW, p_base)
        .with_seed(link_seed)
        .with_duplication(dup_p)
        .with_corruption(corrupt_p);
    if let Some((p, span)) = reorder {
        link = link.with_reordering(p, span);
    }
    let desc = format!(
        "msg={}MiB initial={initial} faults={} deadline={deadline:?} dup={dup_p:.3} \
         reorder={reorder:?} corrupt={corrupt_p:.1e}",
        msg >> 20,
        plan.events.len(),
    );
    let case = SoakCase {
        plan,
        deadline,
        ..SoakCase::new(link, msg, link_seed ^ 0xC0DE, initial)
    };
    (case, desc)
}

/// Runs one chaos case, returning its outcome line.
fn run_chaos(key: u64) -> Result<String, String> {
    let (case, desc) = gen_case(key);
    let (h, v) = case.run();
    let v = v.map_err(|e| format!("{e} [{desc} loss={:?}]{}", case.link.loss, h.forensics()))?;
    Ok(format!(
        "{desc} → {} (tx={:?} rx={:?}) done={:.2}ms",
        v.arm,
        v.tx.outcome.abort_reason(),
        v.rx.outcome.abort_reason(),
        v.rx_done.as_secs_f64() * 1e3,
    ))
}

/// Case budget: `CHAOS_CASES` in the environment overrides the default
/// (CI sweeps a larger matrix than a local `cargo test`).
fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]
    /// The soak: every generated deployment must satisfy the
    /// survivability trichotomy.
    #[test]
    fn chaos_soak_survives_or_aborts_cleanly(case_key in 0u64..(1u64 << 48)) {
        match run_chaos(case_key) {
            Ok(line) => eprintln!("chaos {case_key}: {line}"),
            Err(e) => prop_assert!(
                false,
                "{e}\n  reproduce: CHAOS_CASE={case_key} cargo test -p sdr-reliability \
                 --test chaos_soak chaos_one -- --nocapture"
            ),
        }
    }
}

/// Replays one soak case by key: `CHAOS_CASE=<key> cargo test -p
/// sdr-reliability --test chaos_soak chaos_one -- --nocapture`. A no-op
/// when the variable is unset.
#[test]
fn chaos_one() {
    let Ok(key) = std::env::var("CHAOS_CASE") else {
        return;
    };
    let key: u64 = key.parse().expect("CHAOS_CASE must be a case key");
    match run_chaos(key) {
        Ok(line) => eprintln!("chaos {key}: {line}"),
        Err(e) => panic!("chaos case {key} failed: {e}"),
    }
}

/// The 40 MiB acceptance deployment: SR-NACK over 2 MiB segments, 4 MiB
/// SDR sends and 64 slots.
fn demo(link: LinkConfig, data_seed: u64) -> SoakCase {
    let base = SoakCase::new(link, 40 << 20, data_seed, SchemeSpec::SrNack);
    SoakCase {
        cfg: SdrConfig {
            max_msg_bytes: 4 << 20,
            msg_slots: 64,
            ..base.cfg
        },
        segment_bytes: 2 << 20,
        ..base
    }
}

/// A controller that never turns confident, so never hands over.
fn quiet() -> TelemetryConfig {
    TelemetryConfig {
        min_packets: u64::MAX,
        ..TelemetryConfig::default()
    }
}

/// Runs a directed case, panicking with the forensics when it breaks the
/// trichotomy.
fn passes(case: SoakCase) -> (ProtoHarness, Verdict) {
    let (h, v) = case.run();
    match v {
        Ok(v) => (h, v),
        Err(e) => panic!("{e}{}", h.forensics()),
    }
}

/// The blackout and restart demos quiesce well inside 5 M events (the
/// restart demo takes ≈ 24 k); a repair storm that multiplies their work
/// fails here, not only at the soak's 120 M budget.
fn within_demo_budget(h: &ProtoHarness) {
    let n = h.p.eng.executed_events();
    assert!(
        n < 5_000_000,
        "the demo spent {n} events, over its 5 M budget"
    );
}

/// The two blackout demos: the 40 MiB transfer under a quiet controller,
/// total blackout from 8 ms to 2.008 s on both directions.
fn blackout_demo(deadline: Option<SimTime>) -> Verdict {
    let (h, v) = passes(SoakCase {
        telemetry: quiet(),
        deadline,
        plan: FaultPlan::new_duplex().with(FaultEvent::Blackout {
            at: SimTime::from_secs_f64(0.008),
            duration: SimTime::from_secs_f64(2.0),
        }),
        ..demo(LinkConfig::wan(KM, BW, 1e-4).with_seed(11), 0xB1AC)
    });
    within_demo_budget(&h);
    v
}

/// Acceptance demo 1: the 40 MiB transfer crosses a 2 s total blackout
/// and still delivers byte-identical — and RTO backoff keeps the repair
/// bill at O(log(outage/rto)) resends per in-flight chunk instead of the
/// linear outage/rto a fixed timer would pay.
#[test]
fn forty_mib_transfer_survives_two_second_blackout() {
    let v = blackout_demo(None);
    assert_eq!(v.arm, Arm::Delivered, "byte-identical across the blackout");
    assert!(
        v.rx_done > SimTime::from_secs_f64(2.008),
        "completion lands after the heal: {:?}",
        v.rx_done
    );
    // O(log) resends: the armed in-flight window at the outage is bounded
    // by the credited segment pipeline (~6 segments × 32 chunks). A fixed
    // 3-RTT timer would resend each ~66 times across 2 s; backoff caps it
    // near log2(66) ≈ 7 (plus the post-heal NACK sweep and baseline-loss
    // repair). 2400 ≈ 192 chunks × 12 — well under a quarter of the
    // fixed-timer bill.
    let retransmits = v.tx.retransmits;
    eprintln!(
        "blackout demo: done {:.3}s retransmits {retransmits}",
        v.rx_done.as_secs_f64()
    );
    assert!(retransmits >= 1, "the outage must actually force resends");
    assert!(
        retransmits <= 2400,
        "O(log) resend bound blown: {retransmits} retransmits"
    );
}

/// Acceptance demo 2: the same deployment under a 400 ms deadline — the
/// outage outlives the budget, so both ends abort cleanly.
#[test]
fn deadline_shorter_than_outage_aborts_cleanly_on_both_ends() {
    let deadline = SimTime::from_secs_f64(0.4);
    let v = blackout_demo(Some(deadline));
    assert_eq!(v.arm, Arm::Aborted);
    // Both ends sit in the blackout when their (independent) deadlines
    // fire; the peer notification is swallowed by the outage, so each
    // side's own timer is what kills it.
    assert_eq!(v.tx.outcome.abort_reason(), Some(AbortReason::Deadline));
    assert_eq!(v.rx.outcome.abort_reason(), Some(AbortReason::Deadline));
    assert_eq!(
        v.tx.duration, deadline,
        "the sender aborts exactly at its deadline"
    );
}

/// The forensics acceptance check: a deployment whose fault script
/// provably produces a scheme handover (a loss step past the fig09
/// boundary), RTO fires (a blackout outliving the 3-RTT chunk timer) and
/// fault events must leave both nodes' flight recorders telling exactly
/// that story, stamped in monotone sim time. This is the dump a failing
/// soak case appends to its error message.
#[test]
fn flight_recorder_tells_the_two_node_story() {
    // The same shape as the switchover acceptance scenario, but injected
    // through a FaultPlan so the fabric records the script: a loss step
    // at 8 ms (forces the SR→EC handover) and a 100 ms blackout at 18 ms
    // (outlives the 3-RTT ≈ 30 ms chunk timer, so the RTO backstop
    // provably fires into the outage).
    let plan = FaultPlan::new_duplex()
        .with(FaultEvent::SetLoss {
            at: SimTime::from_secs_f64(0.008),
            model: LossModel::Iid { p: 3e-3 },
        })
        .with(FaultEvent::Blackout {
            at: SimTime::from_secs_f64(0.018),
            duration: SimTime::from_secs_f64(0.1),
        });
    let (h, v) = passes(SoakCase {
        telemetry: TelemetryConfig {
            loss_alpha: 1.0 / 1024.0,
            min_packets: 768,
        },
        plan,
        ..demo(LinkConfig::wan(KM, BW, 1e-6).with_seed(9), 9 ^ 0xADA)
    });
    assert_eq!(
        v.arm,
        Arm::Delivered,
        "byte-identical across step and blackout"
    );
    assert!(
        v.tx.switches >= 1,
        "the loss step must force a handover: {:?}",
        v.tx
    );

    // Both recorders must carry the story. RTO fires live on the sender
    // (node A); the handover and the injected faults appear on both (a
    // link fault is observable from either side).
    for (name, node, want) in [
        (
            "A",
            h.p.node_a,
            &[
                "scheme-handover",
                "rto-fire",
                "rto-backoff",
                "fault-loss",
                "fault-blackout",
            ][..],
        ),
        (
            "B",
            h.p.node_b,
            &["scheme-handover", "fault-loss", "fault-blackout"][..],
        ),
    ] {
        let rec = h.p.fabric.recorder(node);
        let events = rec.events();
        assert!(!events.is_empty(), "node {name} recorded nothing");
        for w in events.windows(2) {
            assert!(
                w[0].at_ps <= w[1].at_ps,
                "node {name} stamps must be monotone: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        let tl = rec.timeline(usize::MAX);
        for pat in want {
            assert!(
                tl.contains(pat),
                "node {name} timeline is missing `{pat}`:\n{tl}"
            );
        }
    }
    eprintln!("forensics demo:{}", h.forensics());
}

/// Acceptance demo 3: a 40 MiB transfer whose receiver crashes roughly
/// 60 % delivered. The crash aborts both ends with
/// [`AbortReason::Restart`] (the receiver's report keeping the delivery
/// journal); 5 ms later the supervisor bumps the control incarnation,
/// re-posts the ring, and resumes both ends from the manifest. The resume
/// plan covers exactly the undelivered tail — zero already-delivered
/// bytes are retransmitted, well under the ≤ 50 % acceptance bound — and
/// the finish is byte-identical with nothing leaked on either end.
#[test]
fn forty_mib_receiver_restart_resumes_to_completion() {
    // 40 MiB at 8 Gbps serializes in ~42 ms; the receiver's CTS credits
    // take one 5 ms one-way to reach the sender and data another 5 ms
    // back, so arrivals span ~10–52 ms. A crash at 35 ms catches ~25 MB
    // (~60 %) delivered.
    let crash = crash_b(SimTime::from_secs_f64(0.035), SimTime::from_secs_f64(0.005));
    let case = SoakCase {
        plan: FaultPlan::new_duplex().with(crash),
        ..demo(LinkConfig::wan(KM, BW, 1e-4).with_seed(29), 0x4E57A27)
    };
    let msg = case.msg;
    let (h, v) = passes(case);
    within_demo_budget(&h);
    assert_eq!(
        v.arm,
        Arm::Resumed,
        "the crash must catch the transfer mid-flight"
    );
    assert_eq!(v.tx.outcome.abort_reason(), Some(AbortReason::Restart));
    let r = v.resumed.expect("second life");
    let frac = r.manifest.delivered_bytes() as f64 / msg as f64;
    assert!(
        (0.35..=0.85).contains(&frac),
        "crash should land mid-flight, got {:.0}% delivered",
        frac * 100.0
    );

    // Second life: resumed to a byte-identical finish (the verdict checks
    // the receiver's plan is exactly the undelivered segments), the sender
    // re-sending only those.
    assert_eq!(r.tx.outcome, TransferOutcome::Delivered);
    assert_eq!(r.rx.outcome, TransferOutcome::Delivered);
    let undelivered = r.manifest.undelivered().len() as u32;
    assert_eq!(r.tx.segments, undelivered);
    eprintln!(
        "restart demo: {:.0}% delivered at crash, resumed {} of {} segments, done {:.3}s, \
         {} second-life repair retransmits",
        frac * 100.0,
        undelivered,
        r.manifest.total_segments(),
        r.rx_done.as_secs_f64(),
        r.tx.retransmits,
    );
}

/// The middle arm of the trichotomy, directed: the receiver crashes
/// mid-transfer and nobody resumes it. Both ends land on
/// `Aborted { reason: Restart, .. }`, the receiver's report carries a
/// partially-filled manifest (enough for any later supervisor to resume
/// from), and the teardown contract holds regardless.
#[test]
fn receiver_restart_without_resume_aborts_with_manifest() {
    // Arrivals span ~10–18.4 ms (one credit one-way plus one data
    // one-way behind a ~8.4 ms serialization): 14 ms is mid-flight.
    let crash = crash_b(SimTime::from_secs_f64(0.014), SimTime::from_secs_f64(0.002));
    let link = LinkConfig::wan(KM, BW, 1e-4).with_seed(31);
    let case = SoakCase {
        telemetry: quiet(),
        plan: FaultPlan::new_duplex().with(crash),
        resume: false,
        ..SoakCase::new(link, 8 << 20, 0xDEAD, SchemeSpec::SrNack)
    };
    let seg = case.segment_bytes;
    let (_, v) = passes(case);
    assert_eq!(
        v.arm,
        Arm::Aborted,
        "the crash must catch the transfer mid-flight"
    );
    assert_eq!(v.tx.outcome.abort_reason(), Some(AbortReason::Restart));
    assert_eq!(v.rx.outcome.abort_reason(), Some(AbortReason::Restart));
    let m = v.rx.outcome.manifest().expect("abort keeps the manifest");
    assert!(
        m.delivered_segments() > 0 && !m.is_complete(),
        "manifest must be partially filled: {}/{}",
        m.delivered_segments(),
        m.total_segments()
    );
    assert_eq!(
        m.delivered_bytes(),
        u64::from(m.delivered_segments()) * seg,
        "full segments only in an interior journal"
    );
}

/// One handshake-idempotency case: a 4 MiB transfer over a wire that
/// aggressively duplicates (4–10 %) and displaces (2–10 %, span ≤ 16)
/// every packet, with a receiver crash/resume thrown in. Every control
/// handshake — segment start/done, watermarks, resume query/state — must
/// tolerate replayed and reordered datagrams without double-applying
/// anything: undeadlined, the run must end delivered (in its first life
/// or its resumed one), byte-identical, with nothing leaked. Returns the
/// outcome line and the duplicates the stamp filters absorbed.
fn run_handshake(case_key: u64) -> Result<(String, u64), String> {
    let mut rng = TestRng::for_case(case_key);
    let dup = 0.04 + rng.next_f64() * 0.06;
    let (rp, span) = (0.02 + rng.next_f64() * 0.08, 2 + rng.below(14) as u32);
    let at = SimTime::from_secs_f64(0.002 + rng.next_f64() * 0.006);
    let dead = SimTime::from_secs_f64(0.001 + rng.next_f64() * 0.002);
    let seed = rng.next_u64();
    let link = LinkConfig::wan(KM, BW, 1e-4)
        .with_seed(seed)
        .with_duplication(dup)
        .with_reordering(rp, span);
    let case = SoakCase {
        plan: FaultPlan::new_duplex().with(crash_b(at, dead)),
        ..SoakCase::new(link, 4 << 20, seed ^ 0x1D3, SchemeSpec::SrNack)
    };
    let desc = format!("dup={dup:.3} reorder=({rp:.3},{span})");
    let (h, v) = case.run();
    let v = v.map_err(|e| {
        format!(
            "{e} [{desc} crash_at={at:?} dead={dead:?}]{}",
            h.forensics()
        )
    })?;
    // Whether the filter *absorbed* duplicates is a per-case coin flip at
    // the low end of the dup range — the directed replay test below pins
    // cases where it provably does.
    let (sa, sb) = (h.ctrl_a.filter_stats(), h.ctrl_b.filter_stats());
    let line = format!(
        "{desc} resumed={} → delivered (dups filtered a={} b={}, stale a={} b={})",
        v.resumed.is_some(),
        sa.duplicates,
        sb.duplicates,
        sa.stale,
        sb.stale,
    );
    Ok((line, sa.duplicates + sb.duplicates))
}

/// Directed companion to the handshake soak: replays keys whose wire
/// draws are known to duplicate control datagrams, so the stamp filter
/// is *provably seen* absorbing replays end to end (the per-case soak
/// cannot demand that at the low end of its dup range). Deterministic —
/// every case is seeded from its key.
#[test]
fn handshake_replay_filter_absorbs_duplicates() {
    let mut absorbed = 0u64;
    for key in [6613580890358u64, 77890745894402, 103739764918175] {
        let (_, dups) = run_handshake(key).unwrap_or_else(|e| panic!("case {key}: {e}"));
        absorbed += dups;
    }
    assert!(absorbed > 0, "replayed control datagrams must be filtered");
}

/// Case budget for the handshake soak (`HANDSHAKE_CASES` overrides).
fn handshake_cases() -> u32 {
    std::env::var("HANDSHAKE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(handshake_cases()))]
    /// Handshake idempotency soak: a duplicating, reordering wire must
    /// never double-apply a control handshake.
    #[test]
    fn handshake_idempotent_under_dup_and_reorder(case_key in 0u64..(1u64 << 48)) {
        match run_handshake(case_key) {
            Ok((line, _)) => eprintln!("handshake {case_key}: {line}"),
            Err(e) => prop_assert!(
                false,
                "{e}\n  reproduce: HANDSHAKE_CASE={case_key} cargo test -p sdr-reliability \
                 --test chaos_soak handshake_one -- --nocapture"
            ),
        }
    }
}

/// Replays one handshake soak case by key: `HANDSHAKE_CASE=<key> cargo
/// test -p sdr-reliability --test chaos_soak handshake_one --
/// --nocapture`. A no-op when the variable is unset.
#[test]
fn handshake_one() {
    let Ok(key) = std::env::var("HANDSHAKE_CASE") else {
        return;
    };
    let key: u64 = key.parse().expect("HANDSHAKE_CASE must be a case key");
    match run_handshake(key) {
        Ok((line, _)) => eprintln!("handshake {key}: {line}"),
        Err(e) => panic!("handshake case {key} failed: {e}"),
    }
}
