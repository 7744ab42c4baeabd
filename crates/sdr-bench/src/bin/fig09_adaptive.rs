//! Figure 9, adaptive edition — mid-transfer loss steps across the SR ⇄ EC
//! boundary, adaptive scheme switching vs the static oracle.
//!
//! Figure 9 maps where each scheme wins *statically*; this harness answers
//! the operational question the paper leaves open: when the drop rate
//! steps mid-transfer (Figure 2's congestion episodes), how close does the
//! `estimate → advise → hand over` loop get to the best single scheme
//! chosen with perfect foreknowledge of the step?
//!
//! Scenario: 40 MiB over an 8 Gbit/s, 1000 km (6.67 ms RTT) link, 2 MiB
//! segments. The channel starts at `P_drop = 1e-6` and steps to the row's
//! rate at 8 ms (~20% in). Per row the table reports the adaptive
//! transfer's delivery time, static runs on the same stepped channel —
//! SR-NACK, MDS-EC(32,8), and whatever scheme the adaptive transfer ended
//! on (the controller's own answer to "which single scheme?", which at
//! 1e-2 is a split in neither fixed column) — the oracle (their minimum),
//! the adaptive/oracle ratio, and the committed handovers.
//!
//! All the columns are timed at the same instant — the receiver's
//! digest-verified delivery — because all of them run through the same
//! `AdaptiveController` pipeline (same segmentation, same digest round
//! trip); the static columns simply never hand over (`min_gain = ∞`).
//!
//! Emits machine-readable `BENCH_fig09.json` next to `BENCH_fig11.json`.
//! `SDR_BENCH_SMOKE=1` runs a single step.

use std::cell::RefCell;
use std::rc::Rc;

use sdr_bench::{fmt, table_header, table_row};
use sdr_core::testkit::{pattern, sdr_pair};
use sdr_core::SdrConfig;
use sdr_reliability::{
    AdaptConfig, AdaptReport, AdaptiveController, ControlEndpoint, SchemeSpec, TelemetryConfig,
};
use sdr_sim::{LinkConfig, LossModel, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;
const MSG: u64 = 40 << 20;
const SEG: u64 = 2 << 20;
const P_BEFORE: f64 = 1e-6;
const STEP_AT: f64 = 0.008;
const SEED: u64 = 9;

fn qp_cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: SEG * 2,
        msg_slots: 64,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

struct Deployment {
    p: sdr_core::testkit::SdrPair,
    ctrl_a: Rc<ControlEndpoint>,
    ctrl_b: Rc<ControlEndpoint>,
    rtt: SimTime,
    data: Vec<u8>,
    src: u64,
    dst: u64,
}

fn deploy(p_after: f64) -> Deployment {
    let link = LinkConfig::wan(KM, BW, P_BEFORE).with_seed(SEED);
    let mut p = sdr_pair(link, qp_cfg(), 128 << 20);
    let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
    let data = pattern(MSG as usize, SEED ^ 0xF19);
    let src = p.ctx_a.alloc_buffer(MSG);
    let dst = p.ctx_b.alloc_buffer(MSG);
    p.ctx_a.write_buffer(src, &data);
    let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
    let (fab, a, b) = (p.fabric.clone(), p.node_a, p.node_b);
    p.eng
        .schedule_at(SimTime::from_secs_f64(STEP_AT), move |_eng| {
            fab.set_loss_duplex(a, b, LossModel::Iid { p: p_after });
        });
    Deployment {
        p,
        ctrl_a,
        ctrl_b,
        rtt,
        data,
        src,
        dst,
    }
}

/// Runs one transfer that opens under `spec` — adapting from there, or
/// pinned to it when `adapt` is false; returns `(digest-verified delivery
/// instant, report, registry snapshot)`. The snapshot is the fabric +
/// engine metrics of this deployment, embedded in the JSON artifact so
/// the adaptive counters (`adapt.proposals`, `adapt.handovers`, `ctrl.*`)
/// ship with the timing numbers they explain.
fn run(p_after: f64, spec: SchemeSpec, adapt: bool) -> (f64, AdaptReport, String) {
    let mut d = deploy(p_after);
    let mut acfg = AdaptConfig::new(BW, d.rtt, SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 768,
    };
    if !adapt {
        // No predicted gain is ever worth a handshake: a static column.
        acfg.min_gain = f64::INFINITY;
    }
    let rep = Rc::new(RefCell::new(None));
    let r2 = rep.clone();
    let _tx = AdaptiveController::start_sender(
        &mut d.p.eng,
        &d.p.qp_a,
        &d.p.ctx_a,
        d.ctrl_a.clone(),
        d.ctrl_b.addr(),
        d.src,
        MSG,
        spec,
        acfg.clone(),
        move |_e, r| *r2.borrow_mut() = Some(r),
    );
    let done = Rc::new(RefCell::new(None));
    let d2 = done.clone();
    let _rx = AdaptiveController::start_receiver(
        &mut d.p.eng,
        &d.p.qp_b,
        &d.p.ctx_b,
        d.ctrl_b.clone(),
        d.ctrl_a.addr(),
        d.dst,
        MSG,
        spec,
        acfg,
        move |_e, t, _rep| *d2.borrow_mut() = Some(t),
    );
    d.p.eng.set_event_limit(200_000_000);
    d.p.eng.run();
    assert_eq!(
        d.p.ctx_b.read_buffer(d.dst, MSG as usize),
        d.data,
        "{spec} delivery intact"
    );
    let report = rep.borrow_mut().take().expect("sender finished");
    assert!(adapt || report.switches == 0, "static {spec} handed over");
    let t = done.borrow_mut().take().expect("receiver finished");
    let snapshot = format!(
        "{{\"fabric\": {}, \"engine\": {}}}",
        d.p.fabric.metrics().snapshot().to_json(),
        d.p.eng.metrics().snapshot().to_json()
    );
    (t.as_secs_f64(), report, snapshot)
}

fn main() {
    let smoke = sdr_bench::smoke();
    println!("# Figure 9 (adaptive) — loss steps across the SR/EC boundary, mid-transfer handover");
    println!(
        "deployment: {KM} km ({:.2} ms RTT), {} Gbit/s, {} MiB in {} MiB segments, \
         step {P_BEFORE:e} → p at {:.0} ms",
        sdr_sim::rtt_from_km(KM).as_secs_f64() * 1e3,
        BW / 1e9,
        MSG >> 20,
        SEG >> 20,
        STEP_AT * 1e3
    );
    // The 1e-2 row is the ROADMAP gap the conservative first-split rule
    // closes: the estimator reads the step as ~2e-3 when confidence first
    // arrives, the advisor's point estimate picks a split that is too
    // weak, and the late refinement handshake used to blow the oracle
    // ratio. With the step-freshness detector the first committed split
    // is one rung stronger than the (under-)estimate suggests.
    let steps: &[f64] = if smoke {
        &[3e-3]
    } else {
        &[1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    };

    table_header(
        "adaptive vs static oracle (delivery time, ms)",
        &[
            "P_after",
            "adaptive",
            "SR NACK",
            "EC(32,8)",
            "final static",
            "oracle",
            "ratio",
            "switches",
            "final",
        ],
    );
    let mut json = String::from("{\n  \"fig\": \"09_adaptive\",\n  \"rows\": [\n");
    let mut last_snapshot = String::from("{}");
    for (n, &p_after) in steps.iter().enumerate() {
        let (adaptive, report, snapshot) = run(p_after, SchemeSpec::SrNack, true);
        last_snapshot = snapshot;
        const EC_32_8: SchemeSpec = SchemeSpec::EcMds { k: 32, m: 8 };
        let (sr, ..) = run(p_after, SchemeSpec::SrNack, false);
        let (ec, ..) = run(p_after, EC_32_8, false);
        // The scheme the adaptive run ended on, held from the first byte.
        let fin = match report.final_spec {
            SchemeSpec::SrNack => sr,
            EC_32_8 => ec,
            other => run(p_after, other, false).0,
        };
        let oracle = sr.min(ec).min(fin);
        let ratio = adaptive / oracle;
        table_row(&[
            format!("{p_after:.0e}"),
            fmt(adaptive * 1e3),
            fmt(sr * 1e3),
            fmt(ec * 1e3),
            fmt(fin * 1e3),
            fmt(oracle * 1e3),
            format!("{ratio:.3}"),
            report.switches.to_string(),
            report.final_spec.to_string(),
        ]);
        json.push_str(&format!(
            "    {{\"p_after\": {p_after:e}, \"adaptive_ms\": {:.3}, \"sr_nack_ms\": {:.3}, \
             \"ec_ms\": {:.3}, \"final_static_ms\": {:.3}, \"oracle_ms\": {:.3}, \
             \"ratio\": {ratio:.4}, \"switches\": {}, \"proposals\": {}, \
             \"final\": \"{}\"}}{}\n",
            adaptive * 1e3,
            sr * 1e3,
            ec * 1e3,
            fin * 1e3,
            oracle * 1e3,
            report.switches,
            report.proposals,
            report.final_spec,
            if n + 1 < steps.len() { "," } else { "" }
        ));
        // Steps decisively past the boundary (hysteresis-cleared within
        // the estimator's convergence window) must hand over; marginal
        // steps may legitimately ride out the transfer on SR.
        if p_after >= 3e-3 {
            assert!(
                report.switches >= 1,
                "a step to {p_after:e} must hand over (got {report:?})"
            );
            // The conservative first-split rule: the first EC split the
            // controller commits while the estimate is still climbing
            // must not be the advisor's weakest ladder rung — a step to
            // 1e-2 read as ~1e-3 used to commit (32,4), whose 4-chunk
            // parity budget the converged channel blows through.
            let first_ec = report
                .history
                .iter()
                .map(|(_, _, s)| *s)
                .find(|s| s.is_ec());
            if let Some(spec) = first_ec {
                assert_ne!(
                    spec,
                    sdr_reliability::SchemeSpec::EcMds { k: 32, m: 4 },
                    "a fresh upward step must commit a stronger first split"
                );
            }
        }
        // One envelope for every row: within 1.3x of the best static
        // scheme. A run that never handed over *is* the static SR column —
        // same pipeline, same stopping instant — so it can only tie it. A
        // run that did may beat every static column, and at 1e-2 does
        // (0.889): SR while the channel is clean, then (16,8) for the rest
        // is better than any one scheme held from the first byte, which is
        // the point of adapting.
        assert!(
            ratio <= 1.3 && (report.switches > 0 || ratio >= 0.999),
            "adaptive must stay within 1.3x of the oracle at {p_after:e}: {ratio:.3}"
        );
    }
    json.push_str("  ],\n");
    // Registry specimen of the final (highest-step) adaptive row: the
    // adapt.* / ctrl.* counters behind the table above.
    json.push_str(&format!("  \"metrics\": {last_snapshot}\n}}\n"));
    println!(
        "\nExpected shape: steps at or past the fig09 boundary hand over to\n\
         EC and the adaptive run tracks the oracle within ~1.3x (estimator\n\
         convergence + one handshake RTT + the pipeline lead); steps below\n\
         the boundary stay on SR and track it even closer."
    );
    std::fs::write("BENCH_fig09.json", &json).expect("write BENCH_fig09.json");
    println!("\nwrote BENCH_fig09.json");
}
