//! EC parity staging has a lifetime: the sender's staging region goes back
//! to node memory when the sender finishes, the receiver's parity scratch
//! when its slots are released, and the next transfer of the same geometry
//! is handed the same blocks. Checked on all three EC hosts:
//!
//! * `EcSender` / `EcReceiver` back to back on one pair, and a
//!   `FlowManager` EC population in rounds — the node-memory high-water
//!   mark of both nodes stops moving after the first transfers;
//! * an adaptive transfer whose pipelined EC segments are live side by
//!   side — every live segment's staged parity equals a serial encode of
//!   its own data (the canary for a block handed to two owners at once).

mod common;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::{capture, flow_world, serial_parity, took, ProtoHarness};
use sdr_core::testkit::pattern;
use sdr_core::SdrConfig;
use sdr_reliability::testkit::Adaptive;
use sdr_reliability::{
    AdaptConfig, AdaptiveSender, EcCodeChoice, EcProtoConfig, EcReceiver, EcSender, FlowCfg,
    SchemeSpec, TransferOutcome,
};
use sdr_sim::{Engine, Fabric, LinkConfig, NodeId, SimTime};

const CHUNK: usize = 64 * 1024;

fn cfg(max_msg_bytes: u64) -> SdrConfig {
    SdrConfig {
        max_msg_bytes,
        msg_slots: 64,
        chunk_bytes: CHUNK as u64,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

fn high_water(fabric: &Fabric, node: NodeId) -> u64 {
    fabric.node(node, |n| n.mem().high_water())
}

#[test]
fn back_to_back_transfers_reuse_their_staging() {
    const MSG: u64 = 1 << 20;
    let link = LinkConfig::wan(50.0, 8e9, 0.02).with_seed(41);
    let mut h = ProtoHarness::new(link, cfg(MSG), MSG, 0xEC);
    let model_ch = h.model_channel(8e9, 0.02);
    // 16 chunks at (4, 2): four data and four parity submessages.
    let proto = EcProtoConfig::for_channel(4, 2, EcCodeChoice::Mds, &model_ch, MSG, h.rtt);
    let before = (
        high_water(&h.p.fabric, h.p.node_a),
        high_water(&h.p.fabric, h.p.node_b),
    );
    let mut marks = Vec::new();
    let mut decoded = 0;
    for round in 0..8u8 {
        h.p.ctx_b.write_buffer(h.dst, &vec![round; MSG as usize]);
        let (rep, cb) = capture();
        EcSender::start(
            &mut h.p.eng,
            &h.p.qp_a,
            &h.p.ctx_a,
            h.ctrl_a.clone(),
            h.ctrl_b.addr(),
            h.src,
            MSG,
            proto,
            cb,
        );
        let stats = Rc::new(Cell::new(None));
        let s = stats.clone();
        EcReceiver::start(
            &mut h.p.eng,
            &h.p.qp_b,
            &h.p.ctx_b,
            h.ctrl_b.clone(),
            h.ctrl_a.addr(),
            h.dst,
            MSG,
            proto,
            move |_e, _t, st| s.set(Some(st)),
        );
        h.run(80_000_000);
        assert_eq!(
            took(&rep, "EC sender").outcome,
            TransferOutcome::Delivered,
            "round {round}"
        );
        assert!(h.delivered_ok(), "round {round}: delivery intact");
        decoded += stats.take().expect("receiver done").decoded_submessages;
        marks.push((
            high_water(&h.p.fabric, h.p.node_a),
            high_water(&h.p.fabric, h.p.node_b),
        ));
    }
    assert!(decoded > 0, "2% loss must exercise the parity scratch");
    // Each side staged 4 × 2 parity chunks somewhere...
    let parity = 8 * CHUNK as u64;
    assert_eq!(
        marks[0],
        (before.0 + parity, before.1 + parity),
        "first transfer"
    );
    // ...and every later transfer staged them in the same place.
    assert!(
        marks[1..].iter().all(|m| *m == marks[1]),
        "node memory kept growing: {marks:?}"
    );
    assert_eq!(marks[1], marks[0]);
}

#[test]
fn flow_population_reuses_its_staging_round_after_round() {
    const FLOWS: usize = 6;
    const LEN: u64 = 1 << 20;
    let link = LinkConfig::wan(50.0, 10e9, 0.01).with_seed(43);
    let rtt = SimTime::from_secs_f64(2.0 * 50.0 * 5e-6);
    let mut w = flow_world(link, FlowCfg::new(SdrConfig::default(), 10e9, rtt));
    let (node_a, node_b) = (w.mgr_a.node(), w.mgr_b.node());
    let srcs: Vec<u64> = (0..FLOWS)
        .map(|i| {
            let src = w.ctx_a.alloc_buffer(LEN);
            w.ctx_a.write_buffer(src, &pattern(LEN as usize, i as u64));
            src
        })
        .collect();
    // Receive buffers come from a fixed arena, so what moves node B's
    // high-water mark is parity scratch alone.
    let arena = w.ctx_b.alloc_buffer(FLOWS as u64 * LEN);
    let next = Cell::new(0);
    w.mgr_b.set_rx_allocator(move |len| {
        assert_eq!(len, LEN);
        let slot = next.replace((next.get() + 1) % FLOWS as u64);
        arena + slot * LEN
    });
    let landed = Rc::new(RefCell::new(Vec::new()));
    let l = landed.clone();
    w.mgr_b
        .on_rx_done(move |_e, d| l.borrow_mut().push((d.id, d.addr)));

    let mut marks = Vec::new();
    for round in 0..8 {
        let delivered = Rc::new(Cell::new(0));
        for &src in &srcs {
            let d = delivered.clone();
            w.mgr_a.open_flow_with_spec(
                &mut w.eng,
                node_b,
                src,
                LEN,
                SchemeSpec::EcMds { k: 16, m: 4 },
                move |_e, rep| {
                    assert!(matches!(rep.spec, SchemeSpec::EcMds { k: 16, m: 4 }));
                    d.set(d.get() + usize::from(rep.delivered));
                },
            );
        }
        w.eng.set_event_limit(60_000_000 * (round + 1));
        w.eng.run();
        assert_eq!(delivered.get(), FLOWS, "round {round}");
        for (id, addr) in landed.borrow_mut().drain(..) {
            let i = (id - 1) as usize % FLOWS;
            assert!(
                w.ctx_b.read_buffer(addr, LEN as usize) == pattern(LEN as usize, i as u64),
                "round {round}: flow {id} corrupt"
            );
        }
        assert_eq!(w.mgr_a.live_flows(), (0, 0));
        assert_eq!(w.mgr_b.live_flows(), (0, 0));
        marks.push((high_water(&w.fabric, node_a), high_water(&w.fabric, node_b)));
    }
    assert!(
        marks[1..].iter().all(|m| *m == marks[1]),
        "node memory kept growing: {marks:?}"
    );
}

/// Samples the adaptive sender every 100 us: the staged parity of every
/// live EC segment must be the serial encode of that segment's bytes.
fn watch_parity(
    eng: &mut Engine,
    tx: AdaptiveSender,
    data: Rc<Vec<u8>>,
    seg: usize,
    (k, m): (usize, usize),
    most_live: Rc<Cell<usize>>,
) {
    if tx.is_done() {
        return;
    }
    let live = tx.staged_parity();
    most_live.set(most_live.get().max(live.len()));
    for (epoch, parity) in live {
        let lo = epoch as usize * seg;
        let want = serial_parity(&data[lo..lo + seg], CHUNK, EcCodeChoice::Mds, k, m);
        assert!(
            parity == want,
            "segment {epoch} holds parity that is not its own ({} live)",
            most_live.get()
        );
    }
    eng.schedule_in(SimTime::from_micros(100), move |eng| {
        watch_parity(eng, tx, data, seg, (k, m), most_live)
    });
}

#[test]
fn concurrently_live_adaptive_segments_never_share_staging() {
    const MSG: u64 = 16 << 20;
    const SEG: u64 = 1 << 20;
    const BW: f64 = 8e9;
    let link = LinkConfig::wan(1000.0, BW, 3e-3).with_seed(47);
    let mut h = ProtoHarness::new(link, cfg(2 * SEG), MSG, 0xADA);
    let mut acfg = AdaptConfig::new(BW, h.rtt, SEG);
    // Pin the scheme: every segment runs EC(8, 2), several in flight.
    acfg.min_gain = f64::INFINITY;
    let spec = SchemeSpec::EcMds { k: 8, m: 2 };
    let before = high_water(&h.p.fabric, h.p.node_a);
    let Adaptive { tx, reports, .. } = h.start_adaptive(spec, &acfg);
    let most_live = Rc::new(Cell::new(0));
    watch_parity(
        &mut h.p.eng,
        tx,
        Rc::new(h.data.clone()),
        SEG as usize,
        (8, 2),
        most_live.clone(),
    );
    h.run(120_000_000);
    assert_eq!(
        took(&reports.tx, "adaptive sender").outcome,
        TransferOutcome::Delivered
    );
    assert!(h.delivered_ok());
    assert!(
        most_live.get() >= 2,
        "the scenario must keep EC segments live side by side ({})",
        most_live.get()
    );
    // 16 segments of 2 × 2 parity chunks each, a pipeline's worth of them
    // live at once: staging stays at one block per live segment (one of
    // slack for a peak between samples), not one per segment.
    let staged = high_water(&h.p.fabric, h.p.node_a) - before;
    assert!(
        staged <= (most_live.get() as u64 + 1) * 4 * CHUNK as u64,
        "sender staging grew to {staged} B with {} segments live",
        most_live.get()
    );
}
