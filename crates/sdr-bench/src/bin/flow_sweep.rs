//! Many-flow sweep — one node serving 100/1k/10k concurrent transfers.
//!
//! Companion to the `sdr-reliability` flow-engine tests: this binary
//! quantifies what the `FlowManager` buys at population scale. Per row it
//! opens `n` equal-sized flows at t = 0 against a 16-shard manager (1024
//! concurrent admissions; the rest park and recycle slots), runs to
//! quiescence, and reports aggregate goodput, per-flow completion
//! p50/p99, Jain's fairness index over per-flow goodput, and simulator
//! events executed. Every column is sim time or a count; the stack's
//! wall-clock cost at these populations is the benchmark's `flows_1k` and
//! `flows_10k_churn` rows. A single-flow baseline per size anchors the
//! ideal: `min(n × g1, link bandwidth)`.
//!
//! Fairness is Jain's index over per-flow *completion times* of a
//! same-size population opened together: a fluid-fair scheduler finishes
//! everyone in lockstep (→ 1.0), FIFO serialization spreads completions
//! uniformly (→ 0.75). The fairness rows use multi-chunk flows — a
//! single-chunk flow is one indivisible work item, so its "fair share"
//! is whole-chunk granular by construction.
//!
//! Gates (the bench doubles as a test): every flow delivers byte-exact,
//! the 100-flow row reaches ≥ 0.8× ideal aggregate goodput, the 1k-flow
//! row keeps Jain ≥ 0.9, and the 10k-flow row completes inside its event
//! budget with the parking lot fully drained.
//!
//! Emits machine-readable `BENCH_flows.json` (rows + an `sdr-trace`
//! registry snapshot of the fairness row). `SDR_BENCH_SMOKE=1` runs a
//! reduced matrix (50/200 flows) for CI; the `--gate` argument runs the
//! full-size 100/1000 rows without the 10k tail — the goodput and
//! fairness gates at production scale, CI-affordable.

use std::cell::RefCell;
use std::rc::Rc;

use sdr_bench::{fmt, table_header, table_row};
use sdr_core::testkit::pattern;
use sdr_core::{SdrConfig, SdrContext};
use sdr_reliability::{ControlEndpoint, FlowCfg, FlowManager, FlowReport, RxFlowDone};
use sdr_sim::{Engine, Fabric, LinkConfig, SimTime};

const BW: f64 = 10e9;
const KM: f64 = 10.0;
const P_DROP: f64 = 1e-4;
const NODE_MEM: usize = 1 << 30;
const EVENT_LIMIT: u64 = 400_000_000;

fn qp_cfg() -> SdrConfig {
    SdrConfig {
        msg_slots: 64,
        ..SdrConfig::default()
    }
}

struct RowStats {
    agg_gbps: f64,
    p50_ms: f64,
    p99_ms: f64,
    jain: f64,
    events: u64,
    retransmits: u64,
    parked_opens: u64,
    /// `{"fabric": .., "engine": ..}` registry snapshot of the row.
    snapshot: String,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Jain's fairness index: 1.0 = perfectly even, 1/n = fully concentrated.
fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// Runs one row: `n` flows of `bytes` each, all opened at t = 0. Verifies
/// byte-exact delivery for every `verify_stride`-th flow and panics on
/// any non-delivery, event-limit hit, or leftover parked open.
fn run_row(n: u64, bytes: u64, verify_stride: u64) -> RowStats {
    let mut eng = Engine::new();
    let fabric = Fabric::new();
    let node_a = fabric.add_node(NODE_MEM);
    let node_b = fabric.add_node(NODE_MEM);
    fabric.link_duplex(node_a, node_b, LinkConfig::wan(KM, BW, P_DROP).with_seed(7));
    let rtt = fabric.rtt(node_a, node_b).unwrap();
    let ctx_a = SdrContext::new(&fabric, node_a);
    let ctx_b = SdrContext::new(&fabric, node_b);
    let ctrl_a = Rc::new(ControlEndpoint::new(&fabric, node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&fabric, node_b));
    let mut cfg = FlowCfg::new(qp_cfg(), BW, rtt);
    cfg.shards = 16;
    let mgr_a = FlowManager::new(&fabric, node_a, ctrl_a, cfg.clone());
    let mgr_b = FlowManager::new(&fabric, node_b, ctrl_b, cfg);
    FlowManager::connect(&mgr_a, &mgr_b);

    let reports: Rc<RefCell<Vec<FlowReport>>> = Rc::new(RefCell::new(Vec::new()));
    let rx: Rc<RefCell<Vec<RxFlowDone>>> = Rc::new(RefCell::new(Vec::new()));
    let r = rx.clone();
    mgr_b.on_rx_done(move |_eng, d| r.borrow_mut().push(d));
    for i in 0..n {
        let src = ctx_a.alloc_buffer(bytes);
        ctx_a.write_buffer(src, &pattern(bytes as usize, i));
        let rep = reports.clone();
        mgr_a.open_flow(&mut eng, node_b, src, bytes, move |_e, r| {
            rep.borrow_mut().push(r)
        });
    }
    eng.set_event_limit(EVENT_LIMIT);
    eng.run();
    let events = eng.executed_events();
    assert!(
        events < EVENT_LIMIT,
        "row n={n}: event limit hit before quiescence"
    );

    let reports = reports.borrow();
    let rx = rx.borrow();
    assert_eq!(reports.len() as u64, n, "row n={n}: every flow must report");
    assert_eq!(rx.len() as u64, n, "row n={n}: every flow must arrive");
    let mut last_done = SimTime::ZERO;
    let mut durations_ms: Vec<f64> = Vec::with_capacity(n as usize);
    for rep in reports.iter() {
        assert!(rep.delivered, "row n={n}: flow {} not delivered", rep.id);
        let t = rep.done_at.saturating_sub(rep.opened_at).as_secs_f64();
        durations_ms.push(t * 1e3);
        last_done = last_done.max(rep.done_at);
    }
    for done in rx.iter() {
        // Flow ids are assigned sequentially from 1 in open order, so the
        // id recovers which pattern this flow carried.
        let i = done.id - 1;
        if i.is_multiple_of(verify_stride) {
            let got = ctx_b.read_buffer(done.addr, bytes as usize);
            assert_eq!(
                got,
                pattern(bytes as usize, i),
                "row n={n}: flow {} corrupt",
                done.id
            );
        }
    }
    assert_eq!(mgr_b.parked_opens(), 0, "row n={n}: parking lot must drain");
    let (tx_live, rx_live) = mgr_a.live_flows();
    assert_eq!((tx_live, rx_live), (0, 0), "row n={n}: flows must drain");
    // The aggregate bookkeeping must agree with the report walk — the
    // same invariant `flow_many.rs` asserts, cross-checked here where the
    // published numbers actually come from.
    let st = mgr_a.stats();
    assert_eq!(st.delivered, n, "row n={n}: FlowStats.delivered drifted");
    assert_eq!(
        st.bytes_delivered,
        n * bytes,
        "row n={n}: FlowStats.bytes_delivered drifted"
    );
    durations_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    RowStats {
        agg_gbps: n as f64 * bytes as f64 * 8.0 / last_done.as_secs_f64() / 1e9,
        p50_ms: percentile(&durations_ms, 0.50),
        p99_ms: percentile(&durations_ms, 0.99),
        jain: jain(&durations_ms),
        events,
        retransmits: st.retransmits,
        parked_opens: mgr_b.stats().parked_opens,
        snapshot: format!(
            "{{\"fabric\": {}, \"engine\": {}}}",
            fabric.metrics().snapshot().to_json(),
            eng.metrics().snapshot().to_json()
        ),
    }
}

fn main() {
    let smoke = sdr_bench::smoke();
    let gate_only = std::env::args().any(|a| a == "--gate");
    // (population, flow bytes); the first row carries the goodput gate,
    // the second the fairness gate, the third the scale gate. `--gate`
    // runs the full-size first two rows without the long 10k tail — the
    // CI shape for gating goodput and fairness at production scale.
    let rows: &[(u64, u64)] = if smoke {
        &[(50, 256 << 10), (200, 256 << 10)]
    } else if gate_only {
        &[(100, 256 << 10), (1000, 256 << 10)]
    } else {
        &[(100, 256 << 10), (1000, 256 << 10), (10_000, 32 << 10)]
    };
    println!("# Many-flow sweep — aggregate goodput, fairness, and scale");
    println!(
        "deployment: {KM} km ({:.0} µs RTT), {} Gbit/s, p_drop {P_DROP:e}, \
         16 shards × {} slots = 1024 concurrent admissions",
        2.0 * KM * 5e-6 * 1e6 + 4096.0 * 8.0 / BW * 1e6,
        BW / 1e9,
        qp_cfg().msg_slots
    );

    table_header(
        "population sweep (all flows open at t=0)",
        &[
            "flows", "size", "agg Gb/s", "ideal", "eff", "p50 ms", "p99 ms", "Jain", "events",
            "parked",
        ],
    );
    let mut json = String::from("{\n  \"bench\": \"flow_sweep\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n  \"rows\": [\n"));
    let mut gate_snapshot = String::from("{}");
    for (idx, &(n, bytes)) in rows.iter().enumerate() {
        // Single-flow baseline at this size anchors the ideal.
        let single = run_row(1, bytes, 1);
        let row = run_row(n, bytes, if n > 1000 { 37 } else { 1 });
        let ideal_gbps = (n as f64 * single.agg_gbps).min(BW / 1e9);
        let eff = row.agg_gbps / ideal_gbps;
        table_row(&[
            n.to_string(),
            sdr_bench::bytes_label(bytes),
            fmt(row.agg_gbps),
            fmt(ideal_gbps),
            format!("{:.2}", eff),
            fmt(row.p50_ms),
            fmt(row.p99_ms),
            format!("{:.3}", row.jain),
            row.events.to_string(),
            row.parked_opens.to_string(),
        ]);
        json.push_str(&format!(
            "    {{\"flows\": {n}, \"flow_bytes\": {bytes}, \
             \"agg_goodput_gbps\": {:.4}, \"single_flow_gbps\": {:.4}, \
             \"ideal_gbps\": {ideal_gbps:.4}, \"efficiency\": {eff:.4}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"jain\": {:.4}, \
             \"events\": {}, \
             \"retransmits\": {}, \"parked_opens\": {}}}{}\n",
            row.agg_gbps,
            single.agg_gbps,
            row.p50_ms,
            row.p99_ms,
            row.jain,
            row.events,
            row.retransmits,
            row.parked_opens,
            if idx + 1 == rows.len() { "" } else { "," }
        ));
        // The gates: goodput must not collapse under fan-out, and DRR must
        // keep an equal-sized population finishing evenly.
        if idx == 0 {
            assert!(
                eff >= 0.8,
                "{n}-flow aggregate goodput collapsed: {:.2} Gb/s vs ideal {ideal_gbps:.2}",
                row.agg_gbps
            );
        }
        if idx == 1 {
            assert!(
                row.jain >= 0.9,
                "{n}-flow fairness collapsed: Jain {:.3}",
                row.jain
            );
            gate_snapshot = row.snapshot;
        }
    }
    json.push_str("  ],\n");
    // Registry specimen of the fairness row: the same counters the engine
    // increments on its hot paths.
    json.push_str(&format!("  \"metrics\": {gate_snapshot}\n}}\n"));

    println!(
        "\nExpected shape: the 100-flow row saturates the link (eff ≥ 0.8 of\n\
         the single-flow-times-N ideal, capped at line rate); the 1k-flow\n\
         row — all admitted concurrently under DRR — finishes nearly in\n\
         lockstep (Jain ≥ 0.9); the 10k-flow row wraps the 1024 admission\n\
         slots ~10× deep, so its p99 stretches with parking-lot queueing\n\
         while the engine stays allocation- and event-bounded."
    );
    std::fs::write("BENCH_flows.json", &json).expect("write BENCH_flows.json");
    println!("\nwrote BENCH_flows.json");
}
