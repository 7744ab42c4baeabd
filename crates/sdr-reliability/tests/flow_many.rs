//! Many-flow engine integration: populations of concurrent transfers
//! multiplexed over one control plane, one shared tick, and a fair
//! injection arbiter.

mod common;

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use common::{flow_world as world, FlowWorld};
use sdr_core::testkit::pattern;
use sdr_core::SdrConfig;
use sdr_reliability::ack::SchemeSpec;
use sdr_reliability::{FlowCfg, FlowReport, RxFlowDone};
use sdr_sim::{Engine, LinkConfig, SimTime};

/// Shared capture for completion reports and receive notices.
#[derive(Default)]
struct Capture {
    reports: RefCell<HashMap<u64, FlowReport>>,
    rx: RefCell<HashMap<u64, RxFlowDone>>,
}

fn wire_capture(w: &FlowWorld) -> Rc<Capture> {
    let cap = Rc::new(Capture::default());
    let c = cap.clone();
    w.mgr_b.on_rx_done(move |_eng, d| {
        c.rx.borrow_mut().insert(d.id, d);
    });
    cap
}

/// Opens `sizes.len()` flows A→B (flow i carries `pattern(sizes[i], i)`),
/// runs to quiescence, and asserts byte-exact delivery for every flow.
fn run_flows(link: LinkConfig, cfg: FlowCfg, sizes: &[u64], event_limit: u64) -> FlowWorld {
    let mut w = world(link, cfg);
    let cap = wire_capture(&w);
    let mut srcs = Vec::new();
    for (i, &len) in sizes.iter().enumerate() {
        let data = pattern(len as usize, i as u64);
        let src = w.ctx_a.alloc_buffer(len);
        w.ctx_a.write_buffer(src, &data);
        srcs.push(src);
    }
    let c = cap.clone();
    for (i, &len) in sizes.iter().enumerate() {
        let cc = c.clone();
        let id = w
            .mgr_a
            .open_flow(&mut w.eng, w.node_b, srcs[i], len, move |_eng, rep| {
                cc.reports.borrow_mut().insert(rep.id, rep);
            });
        assert_eq!(id, i as u64 + 1, "flow ids are assigned sequentially");
    }
    w.eng.set_event_limit(event_limit);
    w.eng.run();
    let reports = cap.reports.borrow();
    let rx = cap.rx.borrow();
    assert_eq!(reports.len(), sizes.len(), "every flow must report");
    assert_eq!(rx.len(), sizes.len(), "every flow must arrive");
    for (i, &len) in sizes.iter().enumerate() {
        let id = i as u64 + 1;
        let rep = &reports[&id];
        assert!(rep.delivered, "flow {id} not delivered");
        assert_eq!(rep.bytes, len);
        let done = &rx[&id];
        assert_eq!(done.bytes, len);
        let got = w.ctx_b.read_buffer(done.addr, len as usize);
        assert_eq!(got, pattern(len as usize, i as u64), "flow {id} corrupt");
    }
    // The manager's aggregate bookkeeping (`FlowStats`, maintained once
    // at completion time) must agree with a walk of the per-flow
    // `FlowReport`s — benches read the former, so any drift between the
    // two would silently skew every published number.
    let st = w.mgr_a.stats();
    assert_eq!(st.tx_done as usize, reports.len(), "tx_done vs reports");
    assert_eq!(
        st.delivered,
        reports.values().filter(|r| r.delivered).count() as u64,
        "FlowStats.delivered vs FlowReport walk"
    );
    assert_eq!(
        st.bytes_delivered,
        reports
            .values()
            .filter(|r| r.delivered)
            .map(|r| r.bytes)
            .sum::<u64>(),
        "FlowStats.bytes_delivered vs FlowReport walk"
    );
    assert_eq!(
        st.retransmits,
        reports.values().map(|r| r.retransmits).sum::<u64>(),
        "FlowStats.retransmits vs FlowReport walk"
    );
    assert_eq!(
        st.open_retries,
        reports.values().map(|r| u64::from(r.open_retries)).sum(),
        "FlowStats.open_retries vs FlowReport walk (all delivered)"
    );
    drop((reports, rx));
    let (tx_live, rx_live) = w.mgr_a.live_flows();
    assert_eq!((tx_live, rx_live), (0, 0), "sender must fully drain");
    w
}

fn base_cfg(bandwidth_bps: f64, rtt: SimTime) -> FlowCfg {
    FlowCfg::new(SdrConfig::default(), bandwidth_bps, rtt)
}

#[test]
fn many_arq_flows_deliver_byte_exact() {
    // Varied sizes, including chunk-unaligned tails and sub-chunk mice.
    let link = LinkConfig::intra_dc(100e9);
    let cfg = base_cfg(100e9, SimTime::from_micros(4));
    let sizes: Vec<u64> = (0..40)
        .map(|i| match i % 4 {
            0 => 64 * 1024,
            1 => 256 * 1024 + 3000, // unaligned tail
            2 => 1000,              // sub-chunk mouse
            _ => 1 << 20,
        })
        .collect();
    run_flows(link, cfg, &sizes, 40_000_000);
}

#[test]
fn lossy_link_flows_all_deliver_with_retransmits() {
    let link = LinkConfig::wan(50.0, 10e9, 0.01);
    let rtt = SimTime::from_secs_f64(2.0 * 50.0 * 5e-6); // ~0.5 ms
    let cfg = base_cfg(10e9, rtt);
    let sizes: Vec<u64> = (0..20).map(|_| 512 * 1024).collect();
    let w = run_flows(link, cfg, &sizes, 40_000_000);
    assert!(
        w.mgr_a.stats().retransmits > 0,
        "1% loss must force repairs"
    );
}

#[test]
fn ec_flows_decode_without_full_data() {
    let link = LinkConfig::wan(50.0, 10e9, 0.02);
    let rtt = SimTime::from_secs_f64(2.0 * 50.0 * 5e-6);
    let cfg = base_cfg(10e9, rtt);
    let mut w = world(link, cfg);
    let cap = wire_capture(&w);
    let n = 12usize;
    let len = 1u64 << 20; // 16 chunks
    let mut srcs = Vec::new();
    for i in 0..n {
        let data = pattern(len as usize, i as u64);
        let src = w.ctx_a.alloc_buffer(len);
        w.ctx_a.write_buffer(src, &data);
        srcs.push(src);
    }
    for (i, &src) in srcs.iter().enumerate() {
        let c = cap.clone();
        w.mgr_a.open_flow_with_spec(
            &mut w.eng,
            w.node_b,
            src,
            len,
            SchemeSpec::EcMds { k: 16, m: 4 },
            move |_eng, rep| {
                c.reports.borrow_mut().insert(rep.id, rep);
            },
        );
        let _ = i;
    }
    w.eng.set_event_limit(60_000_000);
    w.eng.run();
    let reports = cap.reports.borrow();
    let rx = cap.rx.borrow();
    assert_eq!(reports.len(), n);
    assert_eq!(rx.len(), n);
    for (i, _) in srcs.iter().enumerate() {
        let id = i as u64 + 1;
        assert!(reports[&id].delivered);
        assert!(matches!(
            reports[&id].spec,
            SchemeSpec::EcMds { k: 16, m: 4 }
        ));
        let got = w.ctx_b.read_buffer(rx[&id].addr, len as usize);
        assert_eq!(got, pattern(len as usize, i as u64), "flow {id} corrupt");
    }
    // At 2% i.i.d. loss across 12 MiB-scale flows, at least one flow
    // should have resolved by decode rather than waiting out retransmits.
    assert!(
        rx.values().any(|d| d.decoded) || w.mgr_a.stats().retransmits > 0,
        "losses must be repaired by decode or fallback NACKs"
    );
}

#[test]
fn slot_recycling_admits_far_more_flows_than_slots() {
    // 4 shards × 16 slots = 64 concurrent admissions; open 300 flows.
    let link = LinkConfig::intra_dc(100e9);
    let cfg = base_cfg(100e9, SimTime::from_micros(4));
    let sizes: Vec<u64> = (0..300).map(|i| 32 * 1024 + (i % 7) * 1000).collect();
    let w = run_flows(link, cfg, &sizes, 100_000_000);
    assert!(
        w.mgr_b.stats().parked_opens > 0,
        "300 flows over 64 slots must exercise the admission queue"
    );
    assert_eq!(w.mgr_b.parked_opens(), 0, "the parking lot must drain");
}

#[test]
fn elephant_does_not_starve_mice() {
    let link = LinkConfig::intra_dc(10e9);
    let cfg = base_cfg(10e9, SimTime::from_micros(4));
    let mut w = world(link, cfg);
    let _cap = wire_capture(&w);
    let elephant_len = 12u64 << 20;
    let mouse_len = 64u64 * 1024;
    let done: Rc<RefCell<HashMap<u64, SimTime>>> = Rc::new(RefCell::new(HashMap::new()));
    let src = w.ctx_a.alloc_buffer(elephant_len);
    w.ctx_a
        .write_buffer(src, &pattern(elephant_len as usize, 99));
    let d = done.clone();
    let elephant = w
        .mgr_a
        .open_flow(&mut w.eng, w.node_b, src, elephant_len, move |_e, rep| {
            d.borrow_mut().insert(rep.id, rep.done_at);
        });
    let mut mice = Vec::new();
    for i in 0..30 {
        let src = w.ctx_a.alloc_buffer(mouse_len);
        w.ctx_a.write_buffer(src, &pattern(mouse_len as usize, i));
        let d = done.clone();
        mice.push(
            w.mgr_a
                .open_flow(&mut w.eng, w.node_b, src, mouse_len, move |_e, rep| {
                    d.borrow_mut().insert(rep.id, rep.done_at);
                }),
        );
    }
    w.eng.set_event_limit(60_000_000);
    w.eng.run();
    let done = done.borrow();
    assert_eq!(done.len(), 31, "all flows complete");
    let elephant_at = done[&elephant];
    for m in &mice {
        assert!(
            done[m].0 < elephant_at.0 / 2,
            "mouse {m} finished at {:?}, elephant at {:?} — starved",
            done[m],
            elephant_at
        );
    }
}

#[test]
fn warm_registry_steers_new_flows_to_ec() {
    // Lossy enough that the estimator's confident loss estimate clears the
    // EC threshold after one population of ARQ flows has run.
    let link = LinkConfig::wan(50.0, 10e9, 0.02);
    let rtt = SimTime::from_secs_f64(2.0 * 50.0 * 5e-6);
    let cfg = base_cfg(10e9, rtt);
    let mut w = world(link, cfg);
    let _cap = wire_capture(&w);
    // Cold: no estimate yet → ARQ.
    assert!(matches!(
        w.mgr_a.choose_spec(w.eng.now(), w.node_b, 1 << 20),
        SchemeSpec::SrNack
    ));
    let len = 1u64 << 20;
    for i in 0..8 {
        let src = w.ctx_a.alloc_buffer(len);
        w.ctx_a.write_buffer(src, &pattern(len as usize, i));
        w.mgr_a
            .open_flow(&mut w.eng, w.node_b, src, len, |_e, _r| {});
    }
    w.eng.set_event_limit(40_000_000);
    w.eng.run();
    let (loss, _rtt) = w
        .mgr_a
        .registry_estimate(w.eng.now(), w.node_b)
        .expect("aggregate traffic must warm the registry");
    assert!(
        loss > 2e-3,
        "estimated loss {loss} should reflect ~2% drops"
    );
    // Warm: the same call now picks EC with sized parity.
    match w.mgr_a.choose_spec(w.eng.now(), w.node_b, len) {
        SchemeSpec::EcMds { k, m } => {
            assert_eq!(k, 16);
            assert!(m >= 1);
        }
        other => panic!("warm registry should pick EC, got {other:?}"),
    }
    // And stale entries age out.
    let later = SimTime(w.eng.now().0 + u64::MAX / 2);
    assert_eq!(w.mgr_a.sweep_registry(later), 1);
    assert!(w.mgr_a.registry_estimate(later, w.node_b).is_none());
}

/// The flow twin of `corruption.rs`'s k=4, m=2 decode-around case: one
/// landed data chunk of an EC flow keeps getting corrupted in receiver
/// memory (post-DMA — a stray local write, not the wire) after its bitmap
/// bit is set. EC flows run the same receive policy as `EcReceiver`, so
/// the arrival-CRC audit must demote the stale chunk before anything
/// trusts it and the code must decode around it from parity: the flow
/// resolves by decode and delivers byte-identical data. (A receiver that
/// took the set bits at face value would deliver the poisoned byte.)
#[test]
fn ec_flow_stale_chunk_is_demoted_and_decoded_around() {
    let link = LinkConfig::wan(50.0, 10e9, 0.0);
    let rtt = SimTime::from_secs_f64(2.0 * 50.0 * 5e-6);
    let mut w = world(link, base_cfg(10e9, rtt));
    let cap = wire_capture(&w);
    let len = 256u64 * 1024; // 4 chunks
    let data = pattern(len as usize, 77);
    let src = w.ctx_a.alloc_buffer(len);
    w.ctx_a.write_buffer(src, &data);
    // Pin the destination so the poke knows where chunk 0 will land.
    let dst = w.ctx_b.alloc_buffer(len);
    w.mgr_b.set_rx_allocator(move |_bytes| dst);
    let c = cap.clone();
    w.mgr_a.open_flow_with_spec(
        &mut w.eng,
        w.node_b,
        src,
        len,
        SchemeSpec::EcMds { k: 4, m: 2 },
        move |_eng, rep| {
            c.reports.borrow_mut().insert(rep.id, rep);
        },
    );
    // Poke one byte of chunk 0 every 2 µs. Pokes before the chunk lands
    // are overwritten by the arriving write; the first poke *after* it
    // lands makes the chunk stale at the next poll. Stop at resolution so
    // the decode's repair is not re-corrupted.
    let (ctx, c) = (w.ctx_b.clone(), cap.clone());
    let (addr, bad) = (dst + 7, data[7] ^ 0x80);
    w.eng
        .schedule_recurring_at(SimTime::from_nanos(500), move |eng: &mut Engine| {
            if !c.rx.borrow().is_empty() {
                return None;
            }
            ctx.write_buffer(addr, &[bad]);
            Some(eng.now() + SimTime::from_nanos(2_000))
        });
    w.eng.set_event_limit(20_000_000);
    w.eng.run();

    assert!(cap.reports.borrow()[&1].delivered, "sender completed");
    let done = cap.rx.borrow()[&1];
    assert!(
        done.decoded,
        "the stale chunk is decoded around, not trusted"
    );
    assert_eq!(
        w.ctx_b.read_buffer(dst, len as usize),
        data,
        "decode repaired the poisoned chunk"
    );
    assert_eq!(w.mgr_b.live_flows(), (0, 0), "receiver fully drained");
}

/// The control endpoint keeps replay state per live stream only: 20 000
/// flows through one pair of endpoints leave nothing behind (one table
/// entry per flow, forever, at the parent of this test).
#[test]
fn replay_filter_table_tracks_live_flows_not_history() {
    const ROUNDS: usize = 5_000;
    const PER_ROUND: usize = 4;
    const LEN: u64 = 4096;
    let link = LinkConfig::intra_dc(100e9);
    let mut w = world(link, base_cfg(100e9, SimTime::from_micros(4)));
    let src = w.ctx_a.alloc_buffer(LEN);
    let dst = w.ctx_b.alloc_buffer(LEN);
    w.mgr_b.set_rx_allocator(move |_len| dst);
    let delivered = Rc::new(RefCell::new(0usize));
    let mut most = 0;
    for _ in 0..ROUNDS {
        for _ in 0..PER_ROUND {
            let d = delivered.clone();
            w.mgr_a
                .open_flow(&mut w.eng, w.node_b, src, LEN, move |_e, rep| {
                    *d.borrow_mut() += usize::from(rep.delivered);
                });
        }
        most = most
            .max(w.ctrl_a.live_streams())
            .max(w.ctrl_b.live_streams());
        w.eng.run();
        assert_eq!(w.ctrl_a.live_streams(), 0, "sender side, drained");
        assert_eq!(w.ctrl_b.live_streams(), 0, "receiver side, drained");
    }
    assert_eq!(*delivered.borrow(), ROUNDS * PER_ROUND);
    assert!(most <= PER_ROUND, "streams {most} > live flows {PER_ROUND}");
    assert_eq!(w.ctrl_b.filter_stats(), Default::default());
}

/// A `FlowOpen` that surfaces after its flow has come and gone — the
/// first attempt, overtaken by its own retry — is numbered below
/// everything the replay window of the (retired) stream ever saw, so only
/// the peer's retirement watermark stands between it and a ghost receive
/// flow that posts buffers and polls for data nobody will send.
#[test]
fn flow_open_replayed_after_fin_is_dropped() {
    use bytes::BytesMut;
    use sdr_reliability::ack::{CtrlMsg, CtrlStamp};
    use sdr_reliability::control::FLOW_XFER_BIT;

    const LEN: u64 = 64 * 1024;
    let link = LinkConfig::intra_dc(100e9);
    let mut w = world(link, base_cfg(100e9, SimTime::from_micros(4)));
    let cap = wire_capture(&w);
    let node_a = w.mgr_a.node();
    // The first open (datagram 0 of A's endpoint) dies on a dark wire;
    // the retry (datagram 1) gets through once it heals.
    w.fabric.set_link_down(node_a, w.node_b, true);
    let fab = w.fabric.clone();
    let node_b = w.node_b;
    w.eng.schedule_in(SimTime::from_micros(3), move |_e| {
        fab.set_link_down(node_a, node_b, false);
    });
    let src = w.ctx_a.alloc_buffer(LEN);
    let c = cap.clone();
    let id = w
        .mgr_a
        .open_flow(&mut w.eng, w.node_b, src, LEN, move |_e, rep| {
            c.reports.borrow_mut().insert(rep.id, rep);
        });
    w.eng.run();
    let rep = cap.reports.borrow()[&id].clone();
    assert!(rep.delivered && rep.open_retries >= 1, "{rep:?}");
    assert_eq!(w.mgr_b.live_flows(), (0, 0), "FlowFin retired the flow");
    assert_eq!(w.ctrl_b.live_streams(), 0);

    // Datagram 0 turns up after all.
    let mut frame = BytesMut::new();
    CtrlStamp {
        xfer: FLOW_XFER_BIT | id,
        inc: 0,
        dst_inc: 0,
        seq: 0,
    }
    .encode_into(&mut frame);
    CtrlMsg::FlowOpen {
        bytes: LEN,
        spec: rep.spec,
    }
    .encode_into(&mut frame);
    let crc = sdr_erasure::crc32c(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    w.fabric
        .post_ud_send(
            &mut w.eng,
            w.ctrl_a.addr(),
            w.ctrl_b.addr(),
            frame.freeze(),
            None,
        )
        .unwrap();
    w.eng.set_event_limit(w.eng.executed_events() + 100_000);
    w.eng.run();
    assert_eq!(w.eng.pending_events(), 0, "a ghost flow polls forever");
    assert_eq!(w.mgr_b.live_flows(), (0, 0));
    assert_eq!(w.mgr_b.stats().rx_done, 1, "admitted once");
    assert_eq!(w.ctrl_b.filter_stats().stale, 1, "dropped at the endpoint");
    assert_eq!(w.ctrl_b.live_streams(), 0);
}
