//! Chaos soak: proptest-generated fault scripts over adaptive transfers.
//!
//! Every case builds a two-node deployment, applies a randomized
//! [`FaultPlan`] (loss steps, Gilbert–Elliott shifts, blackouts, flaps,
//! diurnal drift, receiver crash/restart) to the duplex link — possibly
//! over a wire that also duplicates and reorders packets — runs an
//! adaptive transfer with an optional per-transfer deadline, and asserts
//! the survivability trichotomy: every case must land in exactly one of
//!
//! * **delivered** — byte-identical, within the deadline when one is set;
//! * **aborted with a manifest** — terminal reports on both ends, the
//!   receiver's report carrying the delivery journal of everything that
//!   landed before the teardown;
//! * **resumed** — a mid-transfer receiver restart aborts both ends with
//!   [`AbortReason::Restart`], and after the re-attach a supervisor
//!   resumes from the crashed receiver's manifest
//!   ([`AdaptiveController::resume_receiver`] /
//!   [`AdaptiveController::resume_sender`]); the second life then lands
//!   in one of the first two arms, byte-identical when delivered.
//!
//! In every arm the teardown contract holds on both ends: every timer
//! cancelled (the engine drains to zero pending events), every receive
//! slot released exactly once (the whole table re-posts afterwards).
//!
//! Fault plans are finite by construction (blackouts heal, flaps end up,
//! drift rests at its floor, restarts re-attach), so an undeadlined
//! transfer must always deliver. Each case is derived deterministically
//! from a drawn 48-bit key; a failure message carries the
//! `CHAOS_CASE=<key>` one-liner that replays exactly that deployment via
//! the [`chaos_one`] test. The handshake soak has the same shape under
//! `HANDSHAKE_CASE=<key>` / [`handshake_one`].
//!
//! The acceptance demos ride along as directed tests: a 40 MiB transfer
//! surviving a 2 s mid-transfer blackout with only O(log) resends per
//! in-flight chunk (RTO backoff); the same transfer under a deadline
//! shorter than the outage aborting cleanly on both ends; and a 40 MiB
//! transfer whose receiver restarts ~60 % delivered, resuming to a
//! byte-identical finish while retransmitting none of the
//! already-delivered bytes.
//!
//! # How to read a flight-recorder dump
//!
//! Every failure message ends with both nodes' flight-recorder timelines
//! (node A = sender, node B = receiver), the last events each node's
//! fixed-capacity ring retained, oldest first:
//!
//! ```text
//!   [      8.000000 ms] fault-loss       a=0 b=0
//!   [     10.251433 ms] switch-propose   a=1 b=4032008
//!   [     15.320771 ms] scheme-handover  a=6 b=4032008
//!   [     18.000000 ms] fault-blackout   a=1 b=100000000000
//!   [     48.812004 ms] rto-fire         a=6 b=32
//!   [     48.812004 ms] rto-backoff     a=6 b=1
//! ```
//!
//! The bracketed stamp is sim time; each node's events are monotone in it
//! (one engine records them in execution order). The label is the
//! [`sdr_sim::EventKind`]; `a`/`b` are its two payload words, documented
//! per kind — scheme events carry `a` = epoch and `b` = a scheme code
//! (1 SR-RTO, 2 SR-NACK, 3 GBN, `4_000_000 + k·1000 + m` MDS(k, m),
//! `5_000_000 + …` XOR), RTO events carry `a` = transfer/flow id with
//! `b` = chunks expired or the new backoff exponent, and `fault-*`
//! events mirror the injected [`FaultPlan`] (appearing on *both* nodes:
//! a link fault is observable from either side). Reading a dump
//! backwards from the failure instant usually answers "what was the
//! stack doing": which scheme each end was under (last `scheme-start` /
//! `scheme-handover`), whether the wire was dark (`fault-blackout`
//! `a=1` without its healing `a=0`), and whether repair was still making
//! progress (advancing `rto-fire` stamps with climbing `rto-backoff`
//! exponents are a live backstop; a frozen tail means teardown already
//! happened — look for `abort`/`incarnation`). Replay the exact case
//! with the `CHAOS_CASE=<key>` one-liner in the same message, e.g. with
//! `SDR_TRACE=0` to confirm forensics never perturb the run.

mod common;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::{capture, took, ProtoHarness};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sdr_core::SdrConfig;
use sdr_reliability::{
    AbortReason, AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, AdaptiveReceiver,
    AdaptiveSender, ResumingSender, SchemeSpec, TelemetryConfig, TransferOutcome,
};
use sdr_sim::{FaultEvent, FaultPlan, LinkConfig, LossModel, RestartSide, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;
const SEG: u64 = 1 << 20;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 2 << 20,
        msg_slots: 32,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// One generated chaos deployment.
struct ChaosCase {
    msg: u64,
    initial: SchemeSpec,
    p_base: f64,
    plan: FaultPlan,
    deadline: Option<SimTime>,
    link_seed: u64,
    /// Wire duplication probability (0 = faithful wire).
    dup_p: f64,
    /// Wire displacement `(p, span)` when drawn.
    reorder: Option<(f64, u32)>,
    /// Per-bit corruption density (0 = honest wire).
    corrupt_p: f64,
    /// Receiver crash `(at, dead_time)` when drawn; the matching
    /// [`FaultEvent::PeerRestart`] is already in `plan`.
    restart: Option<(SimTime, SimTime)>,
}

/// Draws a full case from the deterministic per-case RNG. Every plan is
/// finite and rests at a recoverable loss rate, so delivery is always
/// reachable once the script has played out.
fn gen_case(rng: &mut TestRng) -> ChaosCase {
    let msg = [2u64 << 20, 4 << 20, 8 << 20][rng.below(3) as usize];
    let initial = [
        SchemeSpec::SrNack,
        SchemeSpec::SrRto,
        SchemeSpec::Gbn,
        SchemeSpec::EcMds { k: 32, m: 8 },
    ][rng.below(4) as usize];
    let p_base = 10f64.powf(-(2.5 + rng.next_f64() * 2.0));
    let mut plan = FaultPlan::new_duplex();
    let n = 1 + rng.below(3);
    for _ in 0..n {
        let at = SimTime::from_secs_f64(0.0005 + rng.next_f64() * 0.012);
        let ev = match rng.below(5) {
            0 => FaultEvent::SetLoss {
                at,
                model: LossModel::Iid {
                    p: 10f64.powf(-(2.0 + rng.next_f64() * 2.0)),
                },
            },
            1 => FaultEvent::SetLoss {
                at,
                model: LossModel::GilbertElliott {
                    p_good_to_bad: 0.001 + rng.next_f64() * 0.004,
                    p_bad_to_good: 0.02 + rng.next_f64() * 0.1,
                    loss_good: 1e-5,
                    loss_bad: 0.1 + rng.next_f64() * 0.15,
                },
            },
            2 => FaultEvent::Blackout {
                at,
                duration: SimTime::from_secs_f64(0.0003 + rng.next_f64() * 0.0022),
            },
            3 => FaultEvent::Flap {
                at,
                cycles: 1 + rng.below(3) as u32,
                down: SimTime::from_secs_f64(0.0002 + rng.next_f64() * 0.0006),
                up: SimTime::from_secs_f64(0.0003 + rng.next_f64() * 0.0008),
            },
            _ => FaultEvent::Drift {
                at,
                period: SimTime::from_secs_f64(0.004),
                steps: 4,
                floor_p: 1e-4,
                peak_p: 0.008 + rng.next_f64() * 0.01,
                cycles: 1,
            },
        };
        plan = plan.with(ev);
    }
    // Half the wires are unfaithful: duplication and/or displacement on
    // top of the loss process (the incarnation-stamped control plane must
    // absorb both without double-applying anything).
    let dup_p = if rng.below(2) == 0 {
        0.0
    } else {
        0.002 + rng.next_f64() * 0.03
    };
    let reorder = if rng.below(2) == 0 {
        None
    } else {
        Some((0.01 + rng.next_f64() * 0.06, 2 + rng.below(14) as u32))
    };
    // Half the wires also flip bits, at densities from 1e-6 up to 2e-5
    // per bit (~45% of 4 KiB data packets at the top). The checksummed
    // planes must turn every flip into a loss or a clean abort — the gate
    // below is byte-identical delivery or clean abort, never silence.
    let corrupt_p = if rng.below(2) == 0 {
        0.0
    } else {
        10f64.powf(-(4.7 + rng.next_f64() * 1.3))
    };
    // A third of the runs crash the receiver mid-flight; a supervisor
    // resumes it from its manifest one re-attach later.
    let restart = if rng.below(3) == 0 {
        let at = SimTime::from_secs_f64(0.002 + rng.next_f64() * 0.010);
        let dead = SimTime::from_secs_f64(0.001 + rng.next_f64() * 0.004);
        plan = plan.with(FaultEvent::PeerRestart {
            at,
            side: RestartSide::B,
            dead_time: dead,
        });
        Some((at, dead))
    } else {
        None
    };
    // A third of the runs are undeadlined (must deliver), a third run
    // under a generous deadline (must deliver within it), a third under a
    // tight one sized to the faulted region (usually aborts).
    let deadline = match rng.below(3) {
        0 => None,
        1 => Some(SimTime::from_secs_f64(1.5)),
        _ => Some(SimTime::from_secs_f64(0.004 + rng.next_f64() * 0.010)),
    };
    ChaosCase {
        msg,
        initial,
        p_base,
        plan,
        deadline,
        link_seed: rng.next_u64(),
        dup_p,
        reorder,
        corrupt_p,
        restart,
    }
}

/// Second-life report cells filled by the resumed controllers.
type TxCell = Rc<RefCell<Option<AdaptReport>>>;
type RxCell = Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>>;
/// Handle to the second-life querying sender, once spawned.
type RsCell = Rc<RefCell<Option<ResumingSender>>>;

/// Wires crash/restart orchestration onto a running deployment: when
/// node B restarts mid-transfer, the hook (firing at the crash instant)
/// aborts both ends with [`AbortReason::Restart`] and — when `resume` is
/// set — schedules the supervisor's recovery just after the NIC
/// re-attaches: bump the control endpoint's incarnation, re-post its
/// receive ring, resume the receiver from the crashed life's manifest and
/// the sender via the `ResumeQuery` handshake, pre-seeded with the first
/// life's channel estimate. Returns the `fired` flag: set iff the crash
/// caught the transfer mid-flight (a restart after completion is a no-op).
#[allow(clippy::too_many_arguments)]
fn arm_restart_resume(
    h: &ProtoHarness,
    tx: &AdaptiveSender,
    rx: &AdaptiveReceiver,
    initial: SchemeSpec,
    acfg: &AdaptConfig,
    dead_time: SimTime,
    resume: bool,
    tx2_cell: TxCell,
    rx2_cell: RxCell,
    rs_cell: RsCell,
) -> Rc<Cell<bool>> {
    let fired = Rc::new(Cell::new(false));
    let flag = fired.clone();
    let (tx, rx) = (tx.clone(), rx.clone());
    let (qp_a, ctx_a, ctrl_a) = (h.p.qp_a.clone(), h.p.ctx_a.clone(), h.ctrl_a.clone());
    let (qp_b, ctx_b, ctrl_b) = (h.p.qp_b.clone(), h.p.ctx_b.clone(), h.ctrl_b.clone());
    let (src, dst, msg) = (h.src, h.dst, h.msg);
    let acfg = acfg.clone();
    h.p.fabric.on_restart(h.p.node_b, move |eng, _inc| {
        if rx.is_complete() || flag.get() {
            return;
        }
        flag.set(true);
        // Snapshot the journal and the channel estimate before tearing
        // down (both survive the teardown, but not a second crash).
        let manifest = rx.manifest();
        let (prior_loss, prior_rtt) = tx.estimator(|e| (e.loss_estimate(), e.rtt_estimate()));
        rx.abort(eng, AbortReason::Restart);
        tx.abort(eng, AbortReason::Restart);
        if !resume {
            return;
        }
        let (qp_a, ctx_a, ctrl_a) = (qp_a.clone(), ctx_a.clone(), ctrl_a.clone());
        let (qp_b, ctx_b, ctrl_b) = (qp_b.clone(), ctx_b.clone(), ctrl_b.clone());
        let (acfg, tx2_cell, rx2_cell) = (acfg.clone(), tx2_cell.clone(), rx2_cell.clone());
        let rs_cell = rs_cell.clone();
        // Strictly after the fabric re-attach at `+dead_time`.
        eng.schedule_in(dead_time + SimTime::from_micros(10), move |eng| {
            ctrl_b.bump_incarnation();
            ctrl_b.reattach();
            let rc = rx2_cell;
            let _rx2 = AdaptiveController::resume_receiver(
                eng,
                &qp_b,
                &ctx_b,
                ctrl_b.clone(),
                ctrl_a.addr(),
                dst,
                manifest,
                initial,
                acfg.clone(),
                move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
            );
            let tc = tx2_cell;
            let rs = AdaptiveController::resume_sender(
                eng,
                &qp_a,
                &ctx_a,
                ctrl_a.clone(),
                ctrl_b.addr(),
                src,
                msg,
                initial,
                acfg,
                prior_loss,
                prior_rtt,
                move |_eng, rep| *tc.borrow_mut() = Some(rep),
            );
            *rs_cell.borrow_mut() = Some(rs);
        });
    });
    fired
}

/// Events per node a failure dump retains — enough to cover the final
/// scheme epoch plus the fault script around it without drowning the
/// actual assertion message.
const FORENSIC_WINDOW: usize = 48;

/// Renders both nodes' flight-recorder timelines (see the module docs
/// for how to read one). Appended to every soak failure message so a CI
/// log carries the forensics next to the `CHAOS_CASE` replay key.
fn forensics(h: &ProtoHarness) -> String {
    format!(
        "\n  --- node A flight recorder (last {FORENSIC_WINDOW}) ---\n{}\
         \n  --- node B flight recorder (last {FORENSIC_WINDOW}) ---\n{}",
        h.p.fabric.recorder(h.p.node_a).timeline(FORENSIC_WINDOW),
        h.p.fabric.recorder(h.p.node_b).timeline(FORENSIC_WINDOW),
    )
}

/// Runs one chaos case and checks every survivability invariant,
/// returning a short outcome line on success.
fn run_chaos(case_key: u64) -> Result<String, String> {
    let mut rng = TestRng::for_case(case_key);
    let sc = gen_case(&mut rng);
    let mut link = LinkConfig::wan(KM, BW, sc.p_base).with_seed(sc.link_seed);
    if sc.dup_p > 0.0 {
        link = link.with_duplication(sc.dup_p);
    }
    if let Some((p, span)) = sc.reorder {
        link = link.with_reordering(p, span);
    }
    if sc.corrupt_p > 0.0 {
        link = link.with_corruption(sc.corrupt_p);
    }
    let mut h = ProtoHarness::new(link, cfg(), sc.msg, sc.link_seed ^ 0xC0DE);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 512,
    };
    acfg.deadline = sc.deadline;

    h.p.fabric
        .apply_fault_plan(&mut h.p.eng, h.p.node_a, h.p.node_b, &sc.plan)
        .map_err(|e| format!("fault plan rejected: {e}"))?;

    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let tx1 = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        sc.msg,
        sc.initial,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: RxCell = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let rx1 = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        sc.msg,
        sc.initial,
        acfg.clone(),
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    let tx2_cell: TxCell = Rc::new(RefCell::new(None));
    let rx2_cell: RxCell = Rc::new(RefCell::new(None));
    let fired = sc.restart.map(|(_, dead)| {
        arm_restart_resume(
            &h,
            &tx1,
            &rx1,
            sc.initial,
            &acfg,
            dead,
            true,
            tx2_cell.clone(),
            rx2_cell.clone(),
            Rc::new(RefCell::new(None)),
        )
    });
    const LIMIT: u64 = 120_000_000;
    h.run(LIMIT);

    let resumed = fired.as_ref().is_some_and(|f| f.get());
    let dump = forensics(&h);
    let err = |msg: String| {
        Err(format!(
            "{msg} [msg={} MiB initial={} p_base={:.1e} faults={} deadline={:?} \
             dup={:.3} reorder={:?} corrupt={:.1e} restart={:?} resumed={resumed}]{dump}",
            sc.msg >> 20,
            sc.initial,
            sc.p_base,
            sc.plan.events.len(),
            sc.deadline,
            sc.dup_p,
            sc.reorder,
            sc.corrupt_p,
            sc.restart,
        ))
    };

    // Terminal reports on both ends, no runaway simulation.
    if h.p.eng.executed_events() >= LIMIT {
        return err(format!(
            "event limit hit before quiescence (now={:?} pending={} tx={:?} rx={:?})",
            h.p.eng.now(),
            h.p.eng.pending_events(),
            tx_cell.borrow().as_ref().map(|r| r.outcome.clone()),
            rx_cell.borrow().as_ref().map(|(_, r)| r.outcome.clone()),
        ));
    }
    let Some(tx) = tx_cell.borrow_mut().take() else {
        return err("sender never reported".into());
    };
    let Some((rx_done, rx)) = rx_cell.borrow_mut().take() else {
        return err("receiver never reported".into());
    };

    // Teardown leaves nothing armed: the engine must have fully drained.
    if h.p.eng.pending_events() != 0 {
        return err(format!(
            "leaked {} pending events after {:?}/{:?}",
            h.p.eng.pending_events(),
            tx.outcome,
            rx.outcome,
        ));
    }

    // The survivability trichotomy.
    let mut arm = "delivered";
    if resumed {
        arm = "resumed";
        // Phase 1 must have torn down as a crash: the receiver's report
        // carries the journal the supervisor resumed from, and the sender
        // is dead too (`Restart` from the hook, or its own deadline
        // racing the crash instant).
        if rx.outcome.abort_reason() != Some(AbortReason::Restart) {
            return err(format!("crashed receiver reported {:?}", rx.outcome));
        }
        let Some(m) = rx.outcome.manifest() else {
            return err("restart teardown lost the manifest".into());
        };
        // A complete manifest on a crash is legal: every bitmap finished
        // but the crash landed inside the digest-verification window, so
        // Delivered was never declared. The second life re-verifies the
        // landed bytes over an empty plan (zero segments re-sent).
        if tx.outcome.abort_reason() != Some(AbortReason::Restart) && sc.deadline.is_none() {
            return err(format!("first-life sender reported {:?}", tx.outcome));
        }
        let Some(tx2) = tx2_cell.borrow_mut().take() else {
            return err("resumed sender never reported".into());
        };
        let Some((_, rx2)) = rx2_cell.borrow_mut().take() else {
            return err("resumed receiver never reported".into());
        };
        // The second life is itself bound by the dichotomy below.
        match (&tx2.outcome, &rx2.outcome) {
            (TransferOutcome::Delivered, TransferOutcome::Delivered) => {
                if !h.delivered_ok() {
                    return err("resumed to completion but bytes differ".into());
                }
                // The resume plan covers exactly the crashed life's
                // undelivered segments: nothing delivered is re-sent.
                let want = m.undelivered().len() as u32;
                if rx2.segments != want {
                    return err(format!(
                        "resume plan mismatch: {} segments in the second life, {want} undelivered",
                        rx2.segments
                    ));
                }
            }
            (TransferOutcome::Aborted { .. }, TransferOutcome::Delivered) => {
                if sc.deadline.is_none() {
                    return err("resumed sender aborted without a deadline".into());
                }
                if !h.delivered_ok() {
                    return err("resumed receiver delivered but bytes differ".into());
                }
            }
            (TransferOutcome::Delivered, TransferOutcome::Aborted { .. }) => {
                // Legal only under a deadline: the sender's Delivered is
                // final-ACK-gated (or immediate off a complete manifest)
                // while the receiver's includes the digest round trip, so
                // a deadline can expire in between.
                if sc.deadline.is_none() {
                    return err("resumed sender delivered while receiver aborted".into());
                }
            }
            (TransferOutcome::Aborted { .. }, TransferOutcome::Aborted { .. }) => {
                if sc.deadline.is_none() {
                    return err("second life aborted without a deadline".into());
                }
            }
        }
    } else {
        match (&tx.outcome, &rx.outcome) {
            (TransferOutcome::Delivered, TransferOutcome::Delivered) => {
                if !h.delivered_ok() {
                    return err("delivered but bytes differ".into());
                }
                if let Some(d) = sc.deadline {
                    if tx.duration > d {
                        return err(format!(
                            "delivered past deadline: {:?} > {d:?}",
                            tx.duration
                        ));
                    }
                }
            }
            (TransferOutcome::Aborted { .. }, TransferOutcome::Delivered) => {
                // The receiver finished; the sender's deadline beat the
                // final ACKs. The data must still be intact.
                arm = "aborted";
                if sc.deadline.is_none() {
                    return err("sender aborted without a deadline".into());
                }
                if !h.delivered_ok() {
                    return err("receiver delivered but bytes differ".into());
                }
            }
            (TransferOutcome::Delivered, TransferOutcome::Aborted { .. }) => {
                // The sender finishes on the final ACK, which the
                // receiver's scheme drivers emit at bitmap completion —
                // *before* the digest verdict gates the receiver's own
                // Delivered. A deadline can expire inside that window;
                // without one the receiver must reach a verdict too.
                arm = "aborted";
                if sc.deadline.is_none() {
                    return err("sender delivered while receiver aborted".into());
                }
            }
            (
                TransferOutcome::Aborted { reason: a, .. },
                TransferOutcome::Aborted { reason: b, .. },
            ) => {
                arm = "aborted";
                if sc.deadline.is_none() {
                    return err(format!("aborted ({a}/{b}) without a deadline"));
                }
                for r in [*a, *b] {
                    if r == AbortReason::Requested {
                        return err("nobody requested an abort".into());
                    }
                }
                // An abort always hands back the journal: the layer above
                // can resume later even when nobody does here.
                if rx.outcome.manifest().is_none() {
                    return err("receiver abort lost the manifest".into());
                }
            }
        }
    }

    // Every receive slot was released exactly once: the whole table
    // re-posts cleanly (a held slot or double release would refuse).
    let slots = cfg().msg_slots;
    let spare = h.p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..slots {
        h.p.qp_b
            .recv_post(&mut h.p.eng, spare, 64 * 1024)
            .map_err(|e| format!("slot {n} not released exactly once: {e:?}"))?;
    }

    Ok(format!(
        "msg={}MiB initial={} faults={} deadline={:?} dup={:.3} reorder={:?} \
         corrupt={:.1e} → {arm} (tx={:?} rx={:?}) done={:.2}ms",
        sc.msg >> 20,
        sc.initial,
        sc.plan.events.len(),
        sc.deadline,
        sc.dup_p,
        sc.reorder,
        sc.corrupt_p,
        tx.outcome.abort_reason(),
        rx.outcome.abort_reason(),
        rx_done.as_secs_f64() * 1e3,
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
    /// survivability dichotomy.
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

/// Shared deployment for the two acceptance demos: 40 MiB adaptive
/// transfer, SR-NACK, quiet controller, total blackout from 8 ms to
/// 2.008 s on both directions.
fn blackout_demo(
    deadline: Option<SimTime>,
) -> (
    ProtoHarness,
    AdaptReport,
    Option<(SimTime, AdaptRecvReport)>,
) {
    let msg: u64 = 40 << 20;
    let link = LinkConfig::wan(KM, BW, 1e-4).with_seed(11);
    let demo_cfg = SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        ..cfg()
    };
    let mut h = ProtoHarness::new(link, demo_cfg, msg, 0xB1AC);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    // The controller stays quiet: the demo isolates pure SR survivability.
    acfg.telemetry = TelemetryConfig {
        min_packets: u64::MAX,
        ..TelemetryConfig::default()
    };
    acfg.deadline = deadline;
    let plan = FaultPlan::new_duplex().with(FaultEvent::Blackout {
        at: SimTime::from_secs_f64(0.008),
        duration: SimTime::from_secs_f64(2.0),
    });
    h.p.fabric
        .apply_fault_plan(&mut h.p.eng, h.p.node_a, h.p.node_b, &plan)
        .unwrap();
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let _tx = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>> = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let _rx = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg,
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    h.run(5_000_000);
    let tx = took(&tx_cell, "adaptive sender");
    let rx = rx_cell.borrow_mut().take();
    (h, tx, rx)
}

/// Acceptance demo 1: the 40 MiB transfer crosses a 2 s total blackout
/// and still delivers byte-identical — and RTO backoff keeps the repair
/// bill at O(log(outage/rto)) resends per in-flight chunk instead of the
/// linear outage/rto a fixed timer would pay.
#[test]
fn forty_mib_transfer_survives_two_second_blackout() {
    let (h, tx, rx) = blackout_demo(None);
    let (rx_done, rx) = rx.expect("receiver completed");
    assert!(h.delivered_ok(), "byte-identical across the blackout");
    assert_eq!(tx.outcome, TransferOutcome::Delivered);
    assert_eq!(rx.outcome, TransferOutcome::Delivered);
    assert!(
        rx_done > SimTime::from_secs_f64(2.008),
        "completion lands after the heal: {rx_done:?}"
    );
    assert_eq!(h.p.eng.pending_events(), 0, "engine fully drained");
    // O(log) resends: the armed in-flight window at the outage is bounded
    // by the credited segment pipeline (~6 segments × 32 chunks). A fixed
    // 3-RTT timer would resend each ~66 times across 2 s; backoff caps it
    // near log2(66) ≈ 7 (plus the post-heal NACK sweep and baseline-loss
    // repair). 2400 ≈ 192 chunks × 12 — well under a quarter of the
    // fixed-timer bill.
    eprintln!(
        "blackout demo: done {:.3}s retransmits {}",
        rx_done.as_secs_f64(),
        tx.retransmits
    );
    assert!(
        tx.retransmits >= 1,
        "the outage must actually force resends"
    );
    assert!(
        tx.retransmits <= 2400,
        "O(log) resend bound blown: {} retransmits",
        tx.retransmits
    );
}

/// The forensics acceptance check: a deployment whose fault script
/// provably produces a scheme handover (a loss step past the fig09
/// boundary), RTO fires (a blackout outliving the 3-RTT chunk timer) and
/// fault events must leave both nodes' flight recorders telling exactly
/// that story, stamped in monotone sim time. This is the dump a failing
/// soak case appends to its error message (see the module docs for how
/// to read one).
#[test]
fn flight_recorder_tells_the_two_node_story() {
    let msg: u64 = 40 << 20;
    let link = LinkConfig::wan(KM, BW, 1e-6).with_seed(9);
    let demo_cfg = SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        ..cfg()
    };
    let mut h = ProtoHarness::new(link, demo_cfg, msg, 9 ^ 0xADA);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 768,
    };
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
    h.p.fabric
        .apply_fault_plan(&mut h.p.eng, h.p.node_a, h.p.node_b, &plan)
        .unwrap();
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let _tx = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: RxCell = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let _rx = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg,
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    h.run(120_000_000);
    let tx = took(&tx_cell, "adaptive sender");
    assert!(h.delivered_ok(), "byte-identical across step and blackout");
    assert!(
        tx.switches >= 1,
        "the loss step must force a handover: {tx:?}"
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
    eprintln!("forensics demo:{}", forensics(&h));
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
    let msg: u64 = 40 << 20;
    let link = LinkConfig::wan(KM, BW, 1e-4).with_seed(29);
    let demo_cfg = SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        ..cfg()
    };
    let mut h = ProtoHarness::new(link, demo_cfg, msg, 0x4E57A27);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 512,
    };
    // 40 MiB at 8 Gbps serializes in ~42 ms; the receiver's CTS credits
    // take one 5 ms one-way to reach the sender and data another 5 ms
    // back, so arrivals span ~10–52 ms. A crash at 35 ms catches ~25 MB
    // (~60 %) delivered.
    let dead = SimTime::from_secs_f64(0.005);
    let plan = FaultPlan::new_duplex().with(FaultEvent::PeerRestart {
        at: SimTime::from_secs_f64(0.035),
        side: RestartSide::B,
        dead_time: dead,
    });
    h.p.fabric
        .apply_fault_plan(&mut h.p.eng, h.p.node_a, h.p.node_b, &plan)
        .unwrap();
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let tx1 = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: RxCell = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let rx1 = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    let tx2_cell: TxCell = Rc::new(RefCell::new(None));
    let rx2_cell: RxCell = Rc::new(RefCell::new(None));
    let rs_cell: RsCell = Rc::new(RefCell::new(None));
    let fired = arm_restart_resume(
        &h,
        &tx1,
        &rx1,
        SchemeSpec::SrNack,
        &acfg,
        dead,
        true,
        tx2_cell.clone(),
        rx2_cell.clone(),
        rs_cell.clone(),
    );
    h.run(5_000_000);
    eprintln!(
        "restart demo: now={:?} executed={} pending={} tx1={} rx1={} tx2={} rx2={:?} rs={:?}",
        h.p.eng.now(),
        h.p.eng.executed_events(),
        h.p.eng.pending_events(),
        tx_cell.borrow().is_some(),
        rx_cell.borrow().is_some(),
        tx2_cell.borrow().is_some(),
        rx2_cell
            .borrow()
            .as_ref()
            .map(|(t, r)| (*t, r.segments, r.outcome.abort_reason())),
        rs_cell.borrow().as_ref().map(|rs| (
            rs.is_resolved(),
            rs.queries(),
            rs.sender().map(|s| s.is_done())
        )),
    );
    assert!(
        h.p.eng.executed_events() < 5_000_000,
        "event limit hit before quiescence"
    );
    assert!(fired.get(), "the crash must catch the transfer mid-flight");

    // First life: both ends dead with `Restart`, journal preserved.
    let tx = took(&tx_cell, "first-life sender");
    let (_, rx) = rx_cell.borrow_mut().take().expect("first-life receiver");
    assert_eq!(tx.outcome.abort_reason(), Some(AbortReason::Restart));
    assert_eq!(rx.outcome.abort_reason(), Some(AbortReason::Restart));
    let m = rx.outcome.manifest().expect("crash keeps the manifest");
    let frac = m.delivered_bytes() as f64 / msg as f64;
    assert!(
        (0.35..=0.85).contains(&frac),
        "crash should land mid-flight, got {:.0}% delivered",
        frac * 100.0
    );

    // Second life: resumed to a byte-identical finish, re-sending only
    // the undelivered tail.
    let tx2 = took(&tx2_cell, "resumed sender");
    let (rx2_done, rx2) = rx2_cell.borrow_mut().take().expect("resumed receiver");
    assert_eq!(tx2.outcome, TransferOutcome::Delivered);
    assert_eq!(rx2.outcome, TransferOutcome::Delivered);
    let undelivered = m.undelivered().len() as u32;
    assert_eq!(
        rx2.segments, undelivered,
        "the resume plan must cover exactly the undelivered segments"
    );
    assert_eq!(tx2.segments, undelivered);
    assert!(h.delivered_ok(), "byte-identical across the restart");
    eprintln!(
        "restart demo: {:.0}% delivered at crash, resumed {} of {} segments, done {:.3}s, \
         {} second-life repair retransmits",
        frac * 100.0,
        undelivered,
        m.total_segments(),
        rx2_done.as_secs_f64(),
        tx2.retransmits,
    );

    // Teardown contract across both lives.
    assert_eq!(h.p.eng.pending_events(), 0, "engine fully drained");
    let spare = h.p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..demo_cfg.msg_slots {
        h.p.qp_b
            .recv_post(&mut h.p.eng, spare, 64 * 1024)
            .unwrap_or_else(|e| panic!("slot {n} not released exactly once: {e:?}"));
    }
    // The stamped control plane stayed parseable end to end.
    assert_eq!(h.ctrl_a.filter_stats().malformed, 0);
    assert_eq!(h.ctrl_b.filter_stats().malformed, 0);
}

/// The middle arm of the trichotomy, directed: the receiver crashes
/// mid-transfer and nobody resumes it. Both ends land on
/// `Aborted { reason: Restart, .. }`, the receiver's report carries a
/// partially-filled manifest (enough for any later supervisor to resume
/// from), and the teardown contract holds regardless.
#[test]
fn receiver_restart_without_resume_aborts_with_manifest() {
    let msg: u64 = 8 << 20;
    let link = LinkConfig::wan(KM, BW, 1e-4).with_seed(31);
    let mut h = ProtoHarness::new(link, cfg(), msg, 0xDEAD);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, SEG);
    acfg.telemetry = TelemetryConfig {
        min_packets: u64::MAX,
        ..TelemetryConfig::default()
    };
    // Arrivals span ~10–18.4 ms (one credit one-way plus one data
    // one-way behind a ~8.4 ms serialization): 14 ms is mid-flight.
    let dead = SimTime::from_secs_f64(0.002);
    let plan = FaultPlan::new_duplex().with(FaultEvent::PeerRestart {
        at: SimTime::from_secs_f64(0.014),
        side: RestartSide::B,
        dead_time: dead,
    });
    h.p.fabric
        .apply_fault_plan(&mut h.p.eng, h.p.node_a, h.p.node_b, &plan)
        .unwrap();
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let tx1 = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: RxCell = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let rx1 = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    let fired = arm_restart_resume(
        &h,
        &tx1,
        &rx1,
        SchemeSpec::SrNack,
        &acfg,
        dead,
        false,
        Rc::new(RefCell::new(None)),
        Rc::new(RefCell::new(None)),
        Rc::new(RefCell::new(None)),
    );
    h.run(120_000_000);
    assert!(fired.get(), "the crash must catch the transfer mid-flight");
    let tx = took(&tx_cell, "sender");
    let (_, rx) = rx_cell.borrow_mut().take().expect("receiver reported");
    assert_eq!(tx.outcome.abort_reason(), Some(AbortReason::Restart));
    assert_eq!(rx.outcome.abort_reason(), Some(AbortReason::Restart));
    let m = rx.outcome.manifest().expect("abort keeps the manifest");
    assert!(
        m.delivered_segments() > 0 && !m.is_complete(),
        "manifest must be partially filled: {}/{}",
        m.delivered_segments(),
        m.total_segments()
    );
    assert_eq!(
        m.delivered_bytes(),
        u64::from(m.delivered_segments()) * SEG,
        "full segments only in an interior journal"
    );
    assert_eq!(h.p.eng.pending_events(), 0, "engine fully drained");
    let spare = h.p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..cfg().msg_slots {
        h.p.qp_b
            .recv_post(&mut h.p.eng, spare, 64 * 1024)
            .unwrap_or_else(|e| panic!("slot {n} not released exactly once: {e:?}"));
    }
}

/// One handshake-idempotency case: a 4 MiB transfer over a wire that
/// aggressively duplicates (4–10 %) and displaces (2–10 %, span ≤ 16)
/// every packet, with a receiver crash/resume thrown in. Every control
/// handshake — segment start/done, watermarks, resume query/state — must
/// tolerate replayed and reordered datagrams without double-applying
/// anything: the run must end byte-identical, the stamp filter must
/// actually be seen absorbing duplicates, and nothing may leak.
fn run_handshake(case_key: u64) -> Result<(String, u64), String> {
    let mut rng = TestRng::for_case(case_key);
    let msg: u64 = 4 << 20;
    let dup = 0.04 + rng.next_f64() * 0.06;
    let (rp, span) = (0.02 + rng.next_f64() * 0.08, 2 + rng.below(14) as u32);
    let at = SimTime::from_secs_f64(0.002 + rng.next_f64() * 0.006);
    let dead = SimTime::from_secs_f64(0.001 + rng.next_f64() * 0.002);
    let seed = rng.next_u64();
    let link = LinkConfig::wan(KM, BW, 1e-4)
        .with_seed(seed)
        .with_duplication(dup)
        .with_reordering(rp, span);
    let mut h = ProtoHarness::new(link, cfg(), msg, seed ^ 0x1D3);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 512,
    };
    let plan = FaultPlan::new_duplex().with(FaultEvent::PeerRestart {
        at,
        side: RestartSide::B,
        dead_time: dead,
    });
    h.p.fabric
        .apply_fault_plan(&mut h.p.eng, h.p.node_a, h.p.node_b, &plan)
        .map_err(|e| format!("fault plan rejected: {e}"))?;
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let tx1 = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: RxCell = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let rx1 = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    let tx2_cell: TxCell = Rc::new(RefCell::new(None));
    let rx2_cell: RxCell = Rc::new(RefCell::new(None));
    let fired = arm_restart_resume(
        &h,
        &tx1,
        &rx1,
        SchemeSpec::SrNack,
        &acfg,
        dead,
        true,
        tx2_cell.clone(),
        rx2_cell.clone(),
        Rc::new(RefCell::new(None)),
    );
    const LIMIT: u64 = 120_000_000;
    h.run(LIMIT);

    let dump = forensics(&h);
    let err = |msg: String| {
        Err(format!(
            "{msg} [dup={dup:.3} reorder=({rp:.3},{span}) crash_at={at:?} dead={dead:?} \
             resumed={}]{dump}",
            fired.get()
        ))
    };
    if h.p.eng.executed_events() >= LIMIT {
        return err("event limit hit before quiescence".into());
    }
    if h.p.eng.pending_events() != 0 {
        return err(format!(
            "leaked {} pending events",
            h.p.eng.pending_events()
        ));
    }
    // No deadline anywhere: whichever life ran last must have delivered.
    if fired.get() {
        let Some((_, rx)) = rx_cell.borrow_mut().take() else {
            return err("crashed receiver never reported".into());
        };
        if rx.outcome.abort_reason() != Some(AbortReason::Restart)
            || rx.outcome.manifest().is_none()
        {
            return err(format!("crashed receiver reported {:?}", rx.outcome));
        }
        let Some(tx2) = tx2_cell.borrow_mut().take() else {
            return err("resumed sender never reported".into());
        };
        let Some((_, rx2)) = rx2_cell.borrow_mut().take() else {
            return err("resumed receiver never reported".into());
        };
        if !tx2.outcome.is_delivered() || !rx2.outcome.is_delivered() {
            return err(format!(
                "resumed life must deliver: tx={:?} rx={:?}",
                tx2.outcome, rx2.outcome
            ));
        }
    } else {
        let Some(tx) = tx_cell.borrow_mut().take() else {
            return err("sender never reported".into());
        };
        let Some((_, rx)) = rx_cell.borrow_mut().take() else {
            return err("receiver never reported".into());
        };
        if !tx.outcome.is_delivered() || !rx.outcome.is_delivered() {
            return err(format!(
                "undeadlined run must deliver: tx={:?} rx={:?}",
                tx.outcome, rx.outcome
            ));
        }
    }
    if !h.delivered_ok() {
        return err("delivered but bytes differ".into());
    }
    // The stamp filter never misparsed a datagram. (Whether it *absorbed*
    // duplicates is a per-case coin flip at the low end of the dup range —
    // the directed replay test below pins cases where it provably does.)
    let (sa, sb) = (h.ctrl_a.filter_stats(), h.ctrl_b.filter_stats());
    if sa.malformed + sb.malformed != 0 {
        return err(format!("malformed control datagrams: a={sa:?} b={sb:?}"));
    }
    let spare = h.p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..cfg().msg_slots {
        h.p.qp_b
            .recv_post(&mut h.p.eng, spare, 64 * 1024)
            .map_err(|e| format!("slot {n} not released exactly once: {e:?}"))?;
    }
    let line = format!(
        "dup={dup:.3} reorder=({rp:.3},{span}) resumed={} → delivered \
         (dups filtered a={} b={}, stale a={} b={})",
        fired.get(),
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

/// Acceptance demo 2: the same deployment under a 400 ms deadline — the
/// outage outlives the budget, so both ends abort cleanly: `Aborted`
/// outcome on both reports, zero leaked slots or timers.
#[test]
fn deadline_shorter_than_outage_aborts_cleanly_on_both_ends() {
    let deadline = SimTime::from_secs_f64(0.4);
    let (mut h, tx, rx) = blackout_demo(Some(deadline));
    let (_, rx) = rx.expect("receiver reported");
    // Both ends sit in the blackout when their (independent) deadlines
    // fire; the peer notification is swallowed by the outage, so each
    // side's own timer is what kills it.
    assert_eq!(tx.outcome.abort_reason(), Some(AbortReason::Deadline));
    assert_eq!(rx.outcome.abort_reason(), Some(AbortReason::Deadline));
    assert_eq!(
        tx.duration, deadline,
        "the sender aborts exactly at its deadline"
    );
    assert_eq!(h.p.eng.pending_events(), 0, "all timers torn down");
    // Every receive slot came back exactly once.
    let spare = h.p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..64 {
        h.p.qp_b
            .recv_post(&mut h.p.eng, spare, 64 * 1024)
            .unwrap_or_else(|e| panic!("slot {n} not released exactly once: {e:?}"));
    }
}
