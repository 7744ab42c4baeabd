//! Chaos soak bench — transfer survivability vs fault density.
//!
//! Companion to the `sdr-reliability` chaos soak *test* (which asserts
//! the delivery-or-clean-abort dichotomy on randomized fault scripts):
//! this binary quantifies it. Per fault-density bucket (0–3 scripted
//! fault events on the duplex link) it runs a matrix of seeded adaptive
//! transfers under a fixed operational deadline and reports the survival
//! rate (delivered byte-identical within the deadline) and the p50/p99
//! completion time of the survivors. Half the wires also duplicate and
//! reorder packets (the soak test's unfaithful-wire ranges); each row
//! reports what the stack filtered — stale/duplicate control datagrams
//! dropped by the incarnation-stamp filter (`ctrl.*`) and wire-level
//! duplicates/displacements (`link.*`) — straight from the same
//! `sdr-trace` registry the engine exports, so the published survival
//! numbers and the filter counters can never drift apart.
//!
//! A second sweep replaces the scripted faults with a bit-flipping wire
//! (corruption density 0 → 1e-4 per bit) and reports what the integrity
//! machinery absorbed: packets the link corrupted (`link.corrupted`),
//! payloads the NIC refused to DMA (`crc_skipped`), control datagrams the
//! CRC32C trailer dropped (`ctrl.corrupt`).
//!
//! Every case — survivor or not — must still satisfy the dichotomy:
//! terminal reports on both ends, a fully drained engine, every receive
//! slot released exactly once, zero malformed control datagrams, and
//! delivery (even a partial one cut by the deadline) always lands
//! byte-identical — silent corruption aborts the binary.
//!
//! Emits machine-readable `BENCH_chaos.json`. `SDR_BENCH_SMOKE=1` runs a
//! reduced matrix for CI. Each case derives from a deterministic key
//! printed on failure, so any row reproduces exactly.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sdr_bench::{fmt, table_header, table_row};
use sdr_core::testkit::{pattern, sdr_pair};
use sdr_core::SdrConfig;
use sdr_reliability::{
    AbortReason, AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, ControlEndpoint,
    DeliveryManifest, SchemeSpec, TelemetryConfig, TransferOutcome,
};
use sdr_sim::{FaultEvent, FaultPlan, LinkConfig, LossModel, RestartSide, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;
const MSG: u64 = 4 << 20;
const SEG: u64 = 1 << 20;
/// Operational deadline per transfer. Calibrated against the fault-free
/// worst case (~40 ms: a GBN tail loss eats one full RTO backoff ramp on
/// top of the ~12 ms nominal run), so a clean channel always survives
/// while dense fault scripts can genuinely blow the budget.
const DEADLINE_S: f64 = 0.050;
const EVENT_LIMIT: u64 = 120_000_000;

fn qp_cfg() -> SdrConfig {
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

/// splitmix64 — the per-case deterministic stream (the bench's analogue
/// of the test suite's proptest `TestRng::for_case`).
struct CaseRng(u64);

impl CaseRng {
    fn for_case(key: u64) -> Self {
        CaseRng(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC5A5_C5A5_C5A5_C5A5)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws `density` fault events in the same families and ranges the soak
/// test sweeps: i.i.d. steps, Gilbert–Elliott shifts, blackouts, flaps,
/// diurnal drift. Plans are finite and rest at a recoverable rate.
fn gen_plan(rng: &mut CaseRng, density: u32) -> FaultPlan {
    let mut plan = FaultPlan::new_duplex();
    for _ in 0..density {
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
    plan
}

enum CaseOutcome {
    /// Delivered byte-identical within the deadline, at this instant.
    Survived(f64),
    /// Aborted cleanly (deadline) on at least one end.
    Aborted,
}

/// What the stack's filters absorbed during one case, read from the
/// fabric's `sdr-trace` registry (both nodes share the counters), plus a
/// full snapshot for the JSON report.
#[derive(Default)]
struct CaseWire {
    /// Control datagrams dropped as stale incarnations.
    ctrl_stale: u64,
    /// Control datagrams dropped as duplicates/replays.
    ctrl_dupes: u64,
    /// Control datagrams dropped by the CRC32C trailer.
    ctrl_corrupt: u64,
    /// Wire-level packet duplications injected by the link.
    link_dup: u64,
    /// Wire-level packet displacements injected by the link.
    link_reorder: u64,
    /// Wire-level packets the link flipped bits in.
    link_corrupt: u64,
    /// Write payloads whose checksum failed at the NIC: the DMA was
    /// suppressed, the packet became a loss (summed over both nodes).
    nic_crc_skipped: u64,
    /// `{"fabric": .., "engine": ..}` registry snapshot of this case.
    snapshot: String,
}

impl CaseWire {
    fn accumulate(&mut self, other: &CaseWire) {
        self.ctrl_stale += other.ctrl_stale;
        self.ctrl_dupes += other.ctrl_dupes;
        self.ctrl_corrupt += other.ctrl_corrupt;
        self.link_dup += other.link_dup;
        self.link_reorder += other.link_reorder;
        self.link_corrupt += other.link_corrupt;
        self.nic_crc_skipped += other.nic_crc_skipped;
    }
}

/// Runs one seeded case at the given fault density and per-bit corruption
/// rate; panics on any dichotomy violation (the bench is also a gate).
fn run_case(key: u64, density: u32, corrupt_p: f64) -> (CaseOutcome, CaseWire) {
    let mut rng = CaseRng::for_case(key);
    let initial = [
        SchemeSpec::SrNack,
        SchemeSpec::SrRto,
        SchemeSpec::Gbn,
        SchemeSpec::EcMds { k: 32, m: 8 },
    ][rng.below(4) as usize];
    // Baseline loss stays at or below 1e-3: the scripted faults are the
    // stressor here, not a pathological resting channel (the soak test
    // covers those — it has no fixed deadline to calibrate).
    let p_base = 10f64.powf(-(3.0 + rng.next_f64() * 2.0));
    let plan = gen_plan(&mut rng, density);
    let link_seed = rng.next_u64();
    // Half the wires are unfaithful (the soak test's ranges): the stamp
    // filter must absorb duplicated and displaced control datagrams
    // without double-applying a handshake, and the row reports how many.
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

    let mut link = LinkConfig::wan(KM, BW, p_base).with_seed(link_seed);
    if dup_p > 0.0 {
        link = link.with_duplication(dup_p);
    }
    if let Some((rp, span)) = reorder {
        link = link.with_reordering(rp, span);
    }
    if corrupt_p > 0.0 {
        link = link.with_corruption(corrupt_p);
    }
    let mut p = sdr_pair(link, qp_cfg(), 64 << 20);
    let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
    let data = pattern(MSG as usize, link_seed ^ 0xC0DE);
    let src = p.ctx_a.alloc_buffer(MSG);
    let dst = p.ctx_b.alloc_buffer(MSG);
    p.ctx_a.write_buffer(src, &data);
    let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
    if !plan.events.is_empty() {
        p.fabric
            .apply_fault_plan(&mut p.eng, p.node_a, p.node_b, &plan)
            .unwrap_or_else(|e| panic!("case {key}: fault plan rejected: {e}"));
    }

    let mut acfg = AdaptConfig::new(BW, rtt, SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 512,
    };
    acfg.deadline = Some(SimTime::from_secs_f64(DEADLINE_S));

    let tx_cell: Rc<RefCell<Option<AdaptReport>>> = Rc::new(RefCell::new(None));
    let tc = tx_cell.clone();
    let _tx = AdaptiveController::start_sender(
        &mut p.eng,
        &p.qp_a,
        &p.ctx_a,
        ctrl_a.clone(),
        ctrl_b.addr(),
        src,
        MSG,
        initial,
        acfg.clone(),
        move |_e, r| *tc.borrow_mut() = Some(r),
    );
    let rx_cell: Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>> = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let _rx = AdaptiveController::start_receiver(
        &mut p.eng,
        &p.qp_b,
        &p.ctx_b,
        ctrl_b.clone(),
        ctrl_a.addr(),
        dst,
        MSG,
        initial,
        acfg,
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );
    p.eng.set_event_limit(EVENT_LIMIT);
    p.eng.run();

    // The dichotomy, enforced exactly as in the soak test.
    assert!(
        p.eng.executed_events() < EVENT_LIMIT,
        "case {key} density {density}: event limit hit before quiescence"
    );
    let tx = tx_cell
        .borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("case {key}: sender never reported"));
    let (rx_done, rx) = rx_cell
        .borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("case {key}: receiver never reported"));
    assert_eq!(
        p.eng.pending_events(),
        0,
        "case {key}: teardown leaked events ({:?}/{:?})",
        tx.outcome,
        rx.outcome
    );
    let spare = p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..qp_cfg().msg_slots {
        p.qp_b
            .recv_post(&mut p.eng, spare, 64 * 1024)
            .unwrap_or_else(|e| panic!("case {key}: slot {n} not released exactly once: {e:?}"));
    }

    // What the filters absorbed, straight from the fabric registry (the
    // same counters the control plane and links increment on their hot
    // paths — not a parallel bookkeeping).
    let reg = p.fabric.metrics();
    assert_eq!(
        reg.counter_value("ctrl.malformed"),
        0,
        "case {key}: the stamped control plane must stay parseable"
    );
    let wire = CaseWire {
        ctrl_stale: reg.counter_value("ctrl.stale"),
        ctrl_dupes: reg.counter_value("ctrl.duplicates"),
        ctrl_corrupt: reg.counter_value("ctrl.corrupt"),
        link_dup: reg.counter_value("link.duplicated"),
        link_reorder: reg.counter_value("link.reordered"),
        link_corrupt: reg.counter_value("link.corrupted"),
        nic_crc_skipped: p.fabric.node(p.node_a, |n| n.stats().crc_skipped)
            + p.fabric.node(p.node_b, |n| n.stats().crc_skipped),
        snapshot: format!(
            "{{\"fabric\": {}, \"engine\": {}}}",
            reg.snapshot().to_json(),
            p.eng.metrics().snapshot().to_json()
        ),
    };

    let outcome = match (tx.outcome, rx.outcome) {
        (TransferOutcome::Delivered, TransferOutcome::Delivered) => {
            assert_eq!(
                p.ctx_b.read_buffer(dst, MSG as usize),
                data,
                "case {key}: delivered but bytes differ"
            );
            assert!(
                tx.duration <= SimTime::from_secs_f64(DEADLINE_S),
                "case {key}: delivered past the deadline"
            );
            CaseOutcome::Survived(rx_done.as_secs_f64())
        }
        (TransferOutcome::Delivered, TransferOutcome::Aborted { reason: r, .. }) => {
            // The sender's Delivered rides the final scheme ACK; the
            // receiver's waits on the whole-message digest round trip. A
            // deadline expiring inside that window is a clean abort — but
            // the sender's Delivered implies every bitmap completed over
            // the checksummed wire, so the landed bytes must already be
            // identical (the zero-silent-corruption gate).
            assert_eq!(
                r,
                AbortReason::Deadline,
                "case {key}: sender delivered while receiver aborted ({r})"
            );
            assert_eq!(
                p.ctx_b.read_buffer(dst, MSG as usize),
                data,
                "case {key}: receiver aborted mid-verification with corrupt bytes"
            );
            CaseOutcome::Aborted
        }
        (TransferOutcome::Aborted { reason: r, .. }, _) => {
            assert_ne!(
                r,
                AbortReason::Requested,
                "case {key}: nobody requested an abort"
            );
            eprintln!(
                "  abort: key={key} density={density} initial={initial} p_base={p_base:.1e} reason={r}"
            );
            CaseOutcome::Aborted
        }
    };
    (outcome, wire)
}

/// Segment size of the restart sweep (finer than the fault sweep's so the
/// delivered fraction at crash has sub-⅛ resolution on a 4 MiB message).
const RESTART_SEG: u64 = 512 << 10;

/// Per-case result of the restart/resume sweep.
struct RestartStats {
    /// The crash landed mid-transfer (first life aborted with `Restart`).
    crashed: bool,
    /// Second life delivered byte-identical.
    resumed_ok: bool,
    /// Fraction of the message delivered when the receiver died.
    delivered_frac: f64,
    /// Already-delivered bytes the resume plan re-sent (0 when the plan
    /// covers exactly the undelivered tail).
    retx_delivered: u64,
    /// Second-life chunk-level repair retransmits (channel loss, not
    /// resume overhead).
    repair_retx: u64,
}

/// One crash/resume case: a 4 MiB adaptive transfer whose receiver dies
/// mid-delivery, re-attaches after a drawn dead time, and resumes from
/// the delivery manifest. Panics on any survivability violation — the
/// resume must finish byte-identical with a drained engine and every
/// receive slot released exactly once across both lives.
fn run_restart_case(key: u64) -> RestartStats {
    let mut rng = CaseRng::for_case(key);
    let p_base = 10f64.powf(-(3.0 + rng.next_f64()));
    // CTS credits spend one 5 ms one-way reaching the sender and data
    // another 5 ms returning, so 4 MiB arrivals span ~10–14.2 ms; a crash
    // drawn inside that window lands mid-delivery.
    let crash_at = SimTime::from_secs_f64(0.0108 + rng.next_f64() * 0.0024);
    let dead = SimTime::from_secs_f64(0.001 + rng.next_f64() * 0.002);
    let link_seed = rng.next_u64();

    let link = LinkConfig::wan(KM, BW, p_base).with_seed(link_seed);
    let mut p = sdr_pair(link, qp_cfg(), 64 << 20);
    let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
    let data = pattern(MSG as usize, link_seed ^ 0xC0DE);
    let src = p.ctx_a.alloc_buffer(MSG);
    let dst = p.ctx_b.alloc_buffer(MSG);
    p.ctx_a.write_buffer(src, &data);
    let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
    let plan = FaultPlan::new_duplex().with(FaultEvent::PeerRestart {
        at: crash_at,
        side: RestartSide::B,
        dead_time: dead,
    });
    p.fabric
        .apply_fault_plan(&mut p.eng, p.node_a, p.node_b, &plan)
        .unwrap_or_else(|e| panic!("case {key}: fault plan rejected: {e}"));

    let mut acfg = AdaptConfig::new(BW, rtt, RESTART_SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 512,
    };
    // Undeadlined: the plan is finite, so the resume must always land.
    acfg.deadline = None;

    let initial = SchemeSpec::SrNack;
    let tx_cell: Rc<RefCell<Option<AdaptReport>>> = Rc::new(RefCell::new(None));
    let tc = tx_cell.clone();
    let tx = AdaptiveController::start_sender(
        &mut p.eng,
        &p.qp_a,
        &p.ctx_a,
        ctrl_a.clone(),
        ctrl_b.addr(),
        src,
        MSG,
        initial,
        acfg.clone(),
        move |_e, r| *tc.borrow_mut() = Some(r),
    );
    let rx_cell: Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>> = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let rx = AdaptiveController::start_receiver(
        &mut p.eng,
        &p.qp_b,
        &p.ctx_b,
        ctrl_b.clone(),
        ctrl_a.addr(),
        dst,
        MSG,
        initial,
        acfg.clone(),
        move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
    );

    // The supervisor: on the crash instant, snapshot the journal and the
    // channel estimate, abort both ends, then resume both strictly after
    // the fabric re-attach.
    let fired = Rc::new(Cell::new(false));
    let manifest_cell: Rc<RefCell<Option<DeliveryManifest>>> = Rc::new(RefCell::new(None));
    let tx2_cell: Rc<RefCell<Option<AdaptReport>>> = Rc::new(RefCell::new(None));
    let rx2_cell: Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>> = Rc::new(RefCell::new(None));
    {
        let flag = fired.clone();
        let (tx, rx) = (tx.clone(), rx.clone());
        let (qp_a, ctx_a, ctrl_a) = (p.qp_a.clone(), p.ctx_a.clone(), ctrl_a.clone());
        let (qp_b, ctx_b, ctrl_b) = (p.qp_b.clone(), p.ctx_b.clone(), ctrl_b.clone());
        let (mc, tc, rc) = (manifest_cell.clone(), tx2_cell.clone(), rx2_cell.clone());
        let acfg2 = acfg.clone();
        p.fabric.on_restart(p.node_b, move |eng, _inc| {
            if rx.is_complete() || flag.get() {
                return;
            }
            flag.set(true);
            let manifest = rx.manifest();
            *mc.borrow_mut() = Some(manifest.clone());
            let (prior_loss, prior_rtt) = tx.estimator(|e| (e.loss_estimate(), e.rtt_estimate()));
            rx.abort(eng, AbortReason::Restart);
            tx.abort(eng, AbortReason::Restart);
            let (qp_a, ctx_a, ctrl_a) = (qp_a.clone(), ctx_a.clone(), ctrl_a.clone());
            let (qp_b, ctx_b, ctrl_b) = (qp_b.clone(), ctx_b.clone(), ctrl_b.clone());
            let (acfg2, tc, rc) = (acfg2.clone(), tc.clone(), rc.clone());
            eng.schedule_in(dead + SimTime::from_micros(10), move |eng| {
                ctrl_b.bump_incarnation();
                ctrl_b.reattach();
                let _rx2 = AdaptiveController::resume_receiver(
                    eng,
                    &qp_b,
                    &ctx_b,
                    ctrl_b.clone(),
                    ctrl_a.addr(),
                    dst,
                    manifest,
                    initial,
                    acfg2.clone(),
                    move |_eng, t, rep| *rc.borrow_mut() = Some((t, rep)),
                );
                let _rs = AdaptiveController::resume_sender(
                    eng,
                    &qp_a,
                    &ctx_a,
                    ctrl_a.clone(),
                    ctrl_b.addr(),
                    src,
                    MSG,
                    initial,
                    acfg2,
                    prior_loss,
                    prior_rtt,
                    move |_eng, rep| *tc.borrow_mut() = Some(rep),
                );
            });
        });
    }

    p.eng.set_event_limit(EVENT_LIMIT);
    p.eng.run();
    assert!(
        p.eng.executed_events() < EVENT_LIMIT,
        "restart case {key}: event limit hit before quiescence"
    );
    assert_eq!(
        p.eng.pending_events(),
        0,
        "restart case {key}: teardown leaked events"
    );
    let spare = p.ctx_b.alloc_buffer(64 * 1024);
    for n in 0..qp_cfg().msg_slots {
        p.qp_b
            .recv_post(&mut p.eng, spare, 64 * 1024)
            .unwrap_or_else(|e| panic!("restart case {key}: slot {n} leaked: {e:?}"));
    }

    if !fired.get() {
        // The crash raced a completed transfer; the first life must have
        // delivered normally.
        let tx1 = tx_cell.borrow_mut().take().expect("sender report");
        assert_eq!(tx1.outcome, TransferOutcome::Delivered);
        return RestartStats {
            crashed: false,
            resumed_ok: false,
            delivered_frac: 1.0,
            retx_delivered: 0,
            repair_retx: 0,
        };
    }
    let m = manifest_cell.borrow_mut().take().expect("journal snapshot");
    let tx2 = tx2_cell
        .borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("restart case {key}: resumed sender never reported"));
    let (_, rx2) = rx2_cell
        .borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("restart case {key}: resumed receiver never reported"));
    let resumed_ok = tx2.outcome == TransferOutcome::Delivered
        && rx2.outcome == TransferOutcome::Delivered
        && p.ctx_b.read_buffer(dst, MSG as usize) == data;
    // The second life's bytes beyond the undelivered tail re-send
    // delivered data (MSG divides evenly into RESTART_SEG segments).
    let undelivered_bytes = MSG - m.delivered_bytes();
    let planned_bytes = u64::from(tx2.segments) * RESTART_SEG;
    RestartStats {
        crashed: true,
        resumed_ok,
        delivered_frac: m.delivered_bytes() as f64 / MSG as f64,
        retx_delivered: planned_bytes.saturating_sub(undelivered_bytes),
        repair_retx: tx2.retransmits,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let smoke = sdr_bench::smoke();
    // 50 cases per density bound a survival-rate estimate to a ±7-point
    // 95% binomial CI — enough to distinguish the densities' rates —
    // where the old 20 (±11 points) could not.
    let cases: u64 = if smoke { 5 } else { 50 };
    println!("# Chaos soak — survival rate and completion tail vs fault density");
    println!(
        "deployment: {} km ({:.2} ms RTT), {} Gbit/s, 4 MiB adaptive transfers, \
         deadline {:.0} ms, {cases} cases per density",
        KM,
        2.0 * KM * 5e-6 * 1e3 + 4096.0 * 8.0 / BW * 1e3,
        BW / 1e9,
        DEADLINE_S * 1e3
    );

    table_header(
        "survivability vs scripted fault events per transfer",
        &[
            "faults",
            "cases",
            "survived",
            "rate",
            "p50 ms",
            "p99 ms",
            "worst ms",
            "ctrl drops",
            "wire dup",
            "wire reo",
        ],
    );
    let mut json = String::from("{\n  \"bench\": \"chaos_soak\",\n");
    json.push_str(&format!(
        "  \"deadline_ms\": {:.1}, \"cases_per_density\": {cases},\n  \"rows\": [\n",
        DEADLINE_S * 1e3
    ));
    // Registry snapshot of the last (densest) case, embedded below so the
    // JSON carries one full specimen of what the stack exports.
    let mut last_snapshot = String::from("{}");
    for density in 0u32..=3 {
        let mut done_ms: Vec<f64> = Vec::new();
        let mut aborted = 0u64;
        let mut bucket = CaseWire::default();
        for n in 0..cases {
            // Disjoint key ranges per bucket keep every case independent.
            let key = (u64::from(density) << 32) | n;
            let (outcome, wire) = run_case(key, density, 0.0);
            match outcome {
                CaseOutcome::Survived(t) => done_ms.push(t * 1e3),
                CaseOutcome::Aborted => aborted += 1,
            }
            bucket.accumulate(&wire);
            last_snapshot = wire.snapshot;
        }
        done_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let survived = done_ms.len() as u64;
        let rate = survived as f64 / cases as f64;
        let (p50, p99, worst) = if done_ms.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN)
        } else {
            (
                percentile(&done_ms, 0.50),
                percentile(&done_ms, 0.99),
                *done_ms.last().unwrap(),
            )
        };
        table_row(&[
            density.to_string(),
            cases.to_string(),
            survived.to_string(),
            format!("{:.0}%", rate * 100.0),
            fmt(p50),
            fmt(p99),
            fmt(worst),
            format!("{}+{}", bucket.ctrl_stale, bucket.ctrl_dupes),
            bucket.link_dup.to_string(),
            bucket.link_reorder.to_string(),
        ]);
        json.push_str(&format!(
            "    {{\"fault_density\": {density}, \"cases\": {cases}, \"survived\": {survived}, \
             \"survival_rate\": {rate:.3}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
             \"aborted\": {aborted}, \"ctrl_stale\": {}, \"ctrl_duplicates\": {}, \
             \"link_duplicated\": {}, \"link_reordered\": {}}}{}\n",
            bucket.ctrl_stale,
            bucket.ctrl_dupes,
            bucket.link_dup,
            bucket.link_reorder,
            if density == 3 { "" } else { "," }
        ));
        // A fault-free channel at these loss rates never blows a 2.3x
        // deadline; faulted buckets may abort but must mostly survive.
        if density == 0 {
            assert_eq!(survived, cases, "fault-free bucket must fully survive");
        } else {
            assert!(
                rate >= 0.5,
                "density {density}: survival collapsed to {rate:.2}"
            );
        }
    }
    json.push_str("  ],\n");

    // ------------------------------------------------------------------
    // Corruption-density sweep: a bit-flipping wire instead of scripted
    // faults. The integrity machinery (control CRC trailers, the NIC's
    // pre-DMA payload check, EC shard audits, the whole-message delivery
    // digest) must turn every flip into a loss: each case either delivers
    // byte-identical or aborts cleanly — silent corruption is the one
    // outcome that can never appear, and run_case panics if it does. The
    // row reports what the wire flipped (`link.corrupted`), what the NIC
    // refused to DMA (`crc_skipped`), and what the control plane's CRC
    // trailer dropped (`ctrl.corrupt`).
    // ------------------------------------------------------------------
    let corrupt_densities = [0.0_f64, 1e-6, 1e-5, 1e-4];
    table_header(
        "integrity vs per-bit corruption density (no scripted faults)",
        &[
            "flip/bit",
            "cases",
            "survived",
            "rate",
            "p50 ms",
            "p99 ms",
            "wire flips",
            "nic drops",
            "ctrl crc",
        ],
    );
    json.push_str("  \"corruption_rows\": [\n");
    for (i, &cp) in corrupt_densities.iter().enumerate() {
        let mut done_ms: Vec<f64> = Vec::new();
        let mut aborted = 0u64;
        let mut bucket = CaseWire::default();
        for n in 0..cases {
            // Key space disjoint from the fault buckets (0–3) and the
            // restart sweep (4).
            let key = (8u64 << 32) | ((i as u64) << 24) | n;
            let (outcome, wire) = run_case(key, 0, cp);
            match outcome {
                CaseOutcome::Survived(t) => done_ms.push(t * 1e3),
                CaseOutcome::Aborted => aborted += 1,
            }
            bucket.accumulate(&wire);
        }
        done_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let survived = done_ms.len() as u64;
        let rate = survived as f64 / cases as f64;
        let (p50, p99) = if done_ms.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (percentile(&done_ms, 0.50), percentile(&done_ms, 0.99))
        };
        let jnum = |v: f64| {
            if v.is_nan() {
                String::from("null")
            } else {
                format!("{v:.3}")
            }
        };
        table_row(&[
            format!("{cp:.0e}"),
            cases.to_string(),
            survived.to_string(),
            format!("{:.0}%", rate * 100.0),
            fmt(p50),
            fmt(p99),
            bucket.link_corrupt.to_string(),
            bucket.nic_crc_skipped.to_string(),
            bucket.ctrl_corrupt.to_string(),
        ]);
        json.push_str(&format!(
            "    {{\"corrupt_per_bit\": {cp:e}, \"cases\": {cases}, \"survived\": {survived}, \
             \"survival_rate\": {rate:.3}, \"p50_ms\": {}, \"p99_ms\": {}, \
             \"aborted\": {aborted}, \"link_corrupted\": {}, \"nic_crc_skipped\": {}, \
             \"ctrl_corrupt\": {}}}{}\n",
            jnum(p50),
            jnum(p99),
            bucket.link_corrupt,
            bucket.nic_crc_skipped,
            bucket.ctrl_corrupt,
            if i == corrupt_densities.len() - 1 {
                ""
            } else {
                ","
            }
        ));
        if cp == 0.0 {
            assert_eq!(survived, cases, "clean-wire bucket must fully survive");
        } else {
            // The sweep must actually exercise the guards: the wire
            // flipped packets and the NIC caught data-plane flips before
            // they reached memory. (Survival itself may legitimately fall
            // to zero at the densest setting — corruption behaves as loss
            // and the deadline does the rest.)
            assert!(
                bucket.link_corrupt > 0,
                "corruption {cp:e}: the wire never flipped a packet"
            );
            assert!(
                bucket.nic_crc_skipped > 0,
                "corruption {cp:e}: no corrupt payload reached the pre-DMA check"
            );
        }
    }
    json.push_str("  ],\n");

    // ------------------------------------------------------------------
    // Restart/resume sweep: crash the receiver mid-delivery, resume from
    // the manifest, and quantify how much already-delivered data the
    // second life re-sends (the acceptance bound is ≤ 50 %; the plan-based
    // resume should sit at 0).
    // ------------------------------------------------------------------
    let restart_cases: u64 = if smoke { 4 } else { 12 };
    let mut crashed = 0u64;
    let mut resumed = 0u64;
    let mut frac_sum = 0.0f64;
    let mut retx_frac_sum = 0.0f64;
    let mut repair_sum = 0u64;
    for n in 0..restart_cases {
        let key = (4u64 << 32) | n; // disjoint from the density buckets
        let s = run_restart_case(key);
        if !s.crashed {
            continue;
        }
        crashed += 1;
        if s.resumed_ok {
            resumed += 1;
        }
        frac_sum += s.delivered_frac;
        let delivered_bytes = s.delivered_frac * MSG as f64;
        let retx_frac = if delivered_bytes > 0.0 {
            s.retx_delivered as f64 / delivered_bytes
        } else {
            0.0
        };
        retx_frac_sum += retx_frac;
        repair_sum += s.repair_retx;
        assert!(
            retx_frac <= 0.5,
            "restart case {key}: resume re-sent {:.0}% of delivered bytes",
            retx_frac * 100.0
        );
    }
    assert!(crashed > 0, "no restart case crashed mid-transfer");
    assert_eq!(
        resumed, crashed,
        "every undeadlined resume must deliver byte-identical"
    );
    let mean_frac = frac_sum / crashed as f64;
    let mean_retx_frac = retx_frac_sum / crashed as f64;
    table_header(
        "resume after mid-transfer receiver restart",
        &[
            "cases",
            "crashed",
            "resumed",
            "rate",
            "avg done@crash",
            "avg retx of delivered",
            "repair retx",
        ],
    );
    table_row(&[
        restart_cases.to_string(),
        crashed.to_string(),
        resumed.to_string(),
        format!("{:.0}%", resumed as f64 / crashed as f64 * 100.0),
        format!("{:.0}%", mean_frac * 100.0),
        format!("{:.1}%", mean_retx_frac * 100.0),
        repair_sum.to_string(),
    ]);
    json.push_str(&format!(
        "  \"restart\": {{\"cases\": {restart_cases}, \"crashed\": {crashed}, \
         \"resumed\": {resumed}, \"resume_success_rate\": {:.3}, \
         \"mean_delivered_frac_at_crash\": {mean_frac:.3}, \
         \"mean_retx_of_delivered_frac\": {mean_retx_frac:.4}, \
         \"second_life_repair_retransmits\": {repair_sum}}}\n",
        resumed as f64 / crashed as f64
    ));

    // One full registry specimen (the last density-3 case): every
    // counter, gauge and histogram the stack exported during that run.
    json.push_str(&format!("  ,\"metrics\": {last_snapshot}\n"));
    json.push_str("}\n");
    println!(
        "\nExpected shape: survival starts at 100% on the fault-free bucket\n\
         and degrades gently with density; the completion tail (p99)\n\
         stretches as blackouts and RTO backoff ramps push survivors\n\
         toward the deadline. Non-survivors abort cleanly — the dichotomy\n\
         is asserted per case, so this bench doubles as a gate. On the\n\
         corrupting wire, survival tracks the flip density (corruption is\n\
         reclassified as loss, so dense flips turn into deadline aborts)\n\
         while every delivery stays byte-identical. The resume sweep\n\
         re-sends 0% of already-delivered bytes: the manifest plan covers\n\
         exactly the undelivered tail."
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("\nwrote BENCH_chaos.json");
}
