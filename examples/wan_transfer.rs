//! Inter-datacenter transfer: Selective Repeat vs Erasure Coding vs the
//! Go-Back-N commodity baseline — plus the adaptive controller that
//! switches between them mid-transfer.
//!
//! Runs the full protocol stacks (SDR SDK + reliability layers) over a
//! simulated lossy long-haul link and compares completion times against the
//! closed-form model predictions — the workflow a deployment engineer would
//! use to choose a scheme for a specific datacenter pair. The GBN run shows
//! why the software-defined schemes exist at all: the same link, the same
//! loss, but whole-window rewinds instead of selective repair. The final
//! run shows what happens when the channel refuses to sit still: the drop
//! rate steps three orders of magnitude mid-transfer and the adaptive
//! controller re-advises on live telemetry and hands the tail of the
//! transfer from SR to EC.
//!
//! Run with: `cargo run --release --example wan_transfer`

use std::cell::RefCell;
use std::rc::Rc;

use sdr_rdma::core::testkit::{pattern, sdr_pair};
use sdr_rdma::core::SdrConfig;
use sdr_rdma::model;
use sdr_rdma::reliability::{
    AdaptConfig, AdaptiveController, ControlEndpoint, EcCodeChoice, EcProtoConfig, EcReceiver,
    EcSender, GbnProtoConfig, GbnReceiver, GbnSender, SchemeSpec, SrProtoConfig, SrReceiver,
    SrSender, TelemetryConfig,
};
use sdr_rdma::sim::{LinkConfig, LossModel, SimTime};

const KM: f64 = 200.0;
const BW: f64 = 8e9;
const P_DROP: f64 = 0.002;
const MSG: u64 = 4 << 20;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        chunk_bytes: 64 * 1024,
        ..SdrConfig::default()
    }
}

fn main() {
    let rtt_s = sdr_rdma::sim::rtt_from_km(KM).as_secs_f64();
    let ch = model::Channel::new(BW, rtt_s, P_DROP);
    println!(
        "deployment: {KM} km ({:.2} ms RTT), {} Gbit/s, P_drop {P_DROP}, message {} MiB",
        rtt_s * 1e3,
        BW / 1e9,
        MSG >> 20
    );
    println!("model ideal time: {:.3} ms", ch.ideal_time(MSG) * 1e3);
    println!(
        "model SR RTO mean: {:.3} ms | model EC(32,8) mean: {:.3} ms",
        model::sr_mean_analytic(&ch, MSG, &model::SrConfig::rto_multiple(&ch, 3.0)) * 1e3,
        model::ec_summary(
            &ch,
            MSG,
            &model::EcConfig::mds(32, 8),
            &model::SrConfig::rto_multiple(&ch, 3.0),
            4000,
            1
        )
        .mean
            * 1e3
    );

    // ---- Full-stack SR run ---------------------------------------------
    {
        let mut p = sdr_pair(
            LinkConfig::wan(KM, BW, P_DROP).with_seed(11),
            cfg(),
            64 << 20,
        );
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(MSG as usize, 1);
        let src = p.ctx_a.alloc_buffer(MSG);
        let dst = p.ctx_b.alloc_buffer(MSG);
        p.ctx_a.write_buffer(src, &data);
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let proto = SrProtoConfig::rto_3rtt(rtt);
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        SrSender::start(
            &mut p.eng,
            &p.qp_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            MSG,
            proto,
            move |_e, rep| *o.borrow_mut() = Some(rep),
        );
        SrReceiver::start(
            &mut p.eng,
            &p.qp_b,
            ctrl_b,
            ctrl_a.addr(),
            dst,
            MSG,
            proto,
            |_e, _t| {},
        );
        p.eng.run();
        let rep = out.borrow_mut().take().expect("SR transfer finished");
        assert_eq!(p.ctx_b.read_buffer(dst, MSG as usize), data);
        println!(
            "DES  SR RTO: {:.3} ms ({} chunks retransmitted)",
            rep.duration.as_secs_f64() * 1e3,
            rep.retransmitted
        );
    }

    // ---- Full-stack EC run ---------------------------------------------
    {
        let mut p = sdr_pair(
            LinkConfig::wan(KM, BW, P_DROP).with_seed(12),
            cfg(),
            64 << 20,
        );
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(MSG as usize, 2);
        let src = p.ctx_a.alloc_buffer(MSG);
        let dst = p.ctx_b.alloc_buffer(MSG);
        p.ctx_a.write_buffer(src, &data);
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let model_ch = model::Channel::new(BW, rtt.as_secs_f64(), P_DROP);
        let proto = EcProtoConfig::for_channel(8, 2, EcCodeChoice::Mds, &model_ch, MSG, rtt);
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        EcSender::start(
            &mut p.eng,
            &p.qp_a,
            &p.ctx_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            MSG,
            proto,
            move |_e, rep| *o.borrow_mut() = Some(rep),
        );
        let stats = Rc::new(RefCell::new(None));
        let s = stats.clone();
        EcReceiver::start(
            &mut p.eng,
            &p.qp_b,
            &p.ctx_b,
            ctrl_b,
            ctrl_a.addr(),
            dst,
            MSG,
            proto,
            move |_e, _t, st| *s.borrow_mut() = Some(st),
        );
        p.eng.run();
        let rep = out.borrow_mut().take().expect("EC transfer finished");
        let st = stats.borrow_mut().take().expect("receiver finished");
        assert_eq!(p.ctx_b.read_buffer(dst, MSG as usize), data);
        println!(
            "DES  EC(8,2): {:.3} ms ({} submessages decoded in place, {} fallback rounds)",
            rep.duration.as_secs_f64() * 1e3,
            st.decoded_submessages,
            rep.fallback_rounds
        );
    }

    // ---- Full-stack GBN run (the commodity-NIC baseline) ---------------
    {
        let mut p = sdr_pair(
            LinkConfig::wan(KM, BW, P_DROP).with_seed(11),
            cfg(),
            64 << 20,
        );
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(MSG as usize, 3);
        let src = p.ctx_a.alloc_buffer(MSG);
        let dst = p.ctx_b.alloc_buffer(MSG);
        p.ctx_a.write_buffer(src, &data);
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let model_ch = model::Channel::new(BW, rtt.as_secs_f64(), P_DROP);
        let proto = GbnProtoConfig::bdp_window(&model_ch, rtt, 3.0);
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        GbnSender::start(
            &mut p.eng,
            &p.qp_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            MSG,
            proto,
            move |_e, rep| *o.borrow_mut() = Some(rep),
        );
        GbnReceiver::start(
            &mut p.eng,
            &p.qp_b,
            ctrl_b,
            ctrl_a.addr(),
            dst,
            MSG,
            proto,
            |_e, _t| {},
        );
        p.eng.run();
        let rep = out.borrow_mut().take().expect("GBN transfer finished");
        assert_eq!(p.ctx_b.read_buffer(dst, MSG as usize), data);
        println!(
            "DES  GBN(W={}): {:.3} ms ({} chunks re-injected over {} rewinds — \
             same link/seed as SR, whole windows instead of holes)",
            proto.window_chunks,
            rep.duration.as_secs_f64() * 1e3,
            rep.retransmitted,
            rep.rewinds
        );
    }
    println!("(absolute times include headers and, where a timer repairs, its RTO; shapes match the model)");

    // ---- Adaptive run: a loss step mid-transfer -------------------------
    // A longer haul where EC pays once the channel degrades: the transfer
    // starts under SR on a clean link; at 8 ms the drop rate steps
    // 1e-6 → 3e-3 (past the fig09 boundary); the controller re-advises on
    // live telemetry and hands the remaining segments over to EC.
    {
        const A_KM: f64 = 1000.0;
        const A_MSG: u64 = 40 << 20;
        let mut p = sdr_pair(
            LinkConfig::wan(A_KM, BW, 1e-6).with_seed(7),
            cfg(),
            128 << 20,
        );
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(A_MSG as usize, 4);
        let src = p.ctx_a.alloc_buffer(A_MSG);
        let dst = p.ctx_b.alloc_buffer(A_MSG);
        p.ctx_a.write_buffer(src, &data);
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let (fab, a, b) = (p.fabric.clone(), p.node_a, p.node_b);
        p.eng
            .schedule_at(SimTime::from_secs_f64(0.008), move |_eng| {
                fab.set_loss_duplex(a, b, LossModel::Iid { p: 3e-3 });
            });

        let mut acfg = AdaptConfig::new(BW, rtt, 2 << 20);
        acfg.telemetry = TelemetryConfig {
            loss_alpha: 1.0 / 1024.0,
            min_packets: 768,
        };
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        AdaptiveController::start_sender(
            &mut p.eng,
            &p.qp_a,
            &p.ctx_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            A_MSG,
            SchemeSpec::SrNack,
            acfg.clone(),
            move |_e, rep| *o.borrow_mut() = Some(rep),
        );
        AdaptiveController::start_receiver(
            &mut p.eng,
            &p.qp_b,
            &p.ctx_b,
            ctrl_b,
            ctrl_a.addr(),
            dst,
            A_MSG,
            SchemeSpec::SrNack,
            acfg,
            |_e, _t, _rep| {},
        );
        p.eng.run();
        let rep = out.borrow_mut().take().expect("adaptive transfer finished");
        assert_eq!(p.ctx_b.read_buffer(dst, A_MSG as usize), data);
        println!(
            "\nDES adaptive ({A_KM} km, {} MiB, loss step 1e-6 → 3e-3 at 8 ms): \
             {:.3} ms, {} handover(s), finished under {}",
            A_MSG >> 20,
            rep.duration.as_secs_f64() * 1e3,
            rep.switches,
            rep.final_spec
        );
        for (t, e, s) in &rep.history {
            if *e == 0 || rep.history[*e as usize - 1].2 != *s {
                println!("  segment {e} @ {:.1} ms → {s}", t.as_secs_f64() * 1e3);
            }
        }
    }
}
