//! `adaptive_step`: PR 4's acceptance scenario — a 40 MiB adaptive
//! transfer in 2 MiB segments whose channel steps from 1e-6 to 3e-3 loss
//! 8 ms in — run back-to-back on one pair. The static SR-NACK and
//! EC(32,8) runs on the same stepped channel (the "oracle") are a traced
//! side measurement: they are the bulk deployments with a loss step.

use std::cell::Cell;
use std::rc::Rc;

use sdr_rdma::core::testkit::{sdr_pair, SdrPair};
use sdr_rdma::reliability::{
    AdaptConfig, AdaptiveController, ControlEndpoint, SchemeSpec, TelemetryConfig, TransferOutcome,
};
use sdr_rdma::sim::{Engine, LinkConfig, SimTime};

use crate::bulk::{qp_cfg, Bulk, LossStep, Scheme};
use crate::span::Spans;
use crate::stats::median;
use crate::workload::{
    digest, fabric_counts, iterate, same_bytes, scrub, write_source, Counts, Delivered, Deployment,
    Spec, C,
};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;
const MSG: u64 = 40 << 20;
const SEG: u64 = 2 << 20;
/// Once the controller hands over to EC, every 2 MiB segment
/// bump-allocates fresh parity staging on both ends — about 16 MiB of
/// never-used node memory per transfer. The node arena reserves half a
/// message per transfer (twice what the advisor's usual (32,8) split
/// takes); the iteration cap keeps the process under 1 GB touched (see
/// `bulk::EC_MAX_ITERS` for why).
const MAX_ITERS: u32 = 12;
const BATCH: u32 = 4;
const STEP: LossStep = LossStep {
    before: 1e-6,
    after: 3e-3,
    at: SimTime::from_millis(8),
};

pub const ADAPTIVE_STEP: Spec = Spec {
    name: "adaptive_step",
    why: "40 MiB adaptive transfers, loss steps 1e-6 -> 3e-3 at +8 ms (1000 km / 8G): the adapt.rs path \
          (segments, EpochGate, telemetry -> advisor -> handover) the engine unification will rewrite",
    batch: BATCH,
    payload_bytes: BATCH as u64 * MSG,
    mtu: 4096,
    line_rate_bps: BW,
    sim_iters: 8,
    max_iters: MAX_ITERS,
    build: |seed, spans| Box::new(Adaptive::build(link(), MSG, Some(STEP), seed, spans)),    rung: |l| l.adapt_4k,
    fully_warm: false,
    oracle: Some(static_oracle_ms),
};

fn link() -> LinkConfig {
    LinkConfig::wan(KM, BW, STEP.before)
}

pub struct Adaptive {
    p: SdrPair,
    msg: u64,
    step: Option<LossStep>,
    ctrl_a: Rc<ControlEndpoint>,
    ctrl_b: Rc<ControlEndpoint>,
    cfg: AdaptConfig,
    src: u64,
    src_digest: u32,
    dst: u64,
    switches: u64,
    proposals: u64,
    retx: u64,
    /// Per-iteration: the transfer in flight and when it was started.
    out: Rc<Outcome>,
    started_at: SimTime,
}

impl Adaptive {
    /// An adaptive transfer of `msg` bytes in 2 MiB segments over `link`,
    /// optionally with a per-iteration loss step.
    pub fn build(
        link: LinkConfig,
        msg: u64,
        step: Option<LossStep>,
        seed: u64,
        spans: &mut Spans,
    ) -> Adaptive {
        let bw = link.bandwidth_bps;
        let parity_arena = msg / 2 * u64::from(BATCH * (MAX_ITERS + 1));
        let node_mem = (2 * msg + parity_arena + (64 << 20)) as usize;
        let p = sdr_pair(
            link.with_seed(seed),
            qp_cfg(SEG * 2, 4096, 64 << 10, 64),
            node_mem,
        );
        let rtt = p
            .fabric
            .rtt(p.node_a, p.node_b)
            .expect("duplex link installed");
        let src = p.ctx_a.alloc_buffer(msg);
        let dst = p.ctx_b.alloc_buffer(msg);
        let src_digest = write_source(&p.fabric, p.node_a, src, msg, seed);
        spans.time("pretouch", 0, |_| scrub(&p.fabric, p.node_b, dst, msg, 0));
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let mut cfg = AdaptConfig::new(bw, rtt, SEG);
        // The acceptance scenario's estimator: a long loss memory and a
        // 768-packet confidence floor.
        cfg.telemetry = TelemetryConfig {
            loss_alpha: 1.0 / 1024.0,
            min_packets: 768,
            ..TelemetryConfig::default()
        };
        Adaptive {
            p,
            msg,
            step,
            ctrl_a,
            ctrl_b,
            cfg,
            src,
            src_digest,
            dst,
            switches: 0,
            proposals: 0,
            retx: 0,
            out: Rc::default(),
            started_at: SimTime::ZERO,
        }
    }
}

#[derive(Default)]
struct Outcome {
    delivered_at: Cell<Option<SimTime>>,
    sender_ok: Cell<bool>,
    receiver_ok: Cell<bool>,
    switches: Cell<u64>,
    proposals: Cell<u64>,
    retx: Cell<u64>,
}

impl Deployment for Adaptive {
    fn prepare(&mut self, iter: u32) {
        scrub(&self.p.fabric, self.p.node_b, self.dst, self.msg, iter);
        if let Some(step) = self.step {
            step.arm(&mut self.p);
        }
    }

    fn open(&mut self) {
        let out = Rc::new(Outcome::default());
        self.started_at = self.p.eng.now();
        let (rx_out, tx_out) = (out.clone(), out.clone());
        AdaptiveController::start_receiver(
            &mut self.p.eng,
            &self.p.qp_b,
            &self.p.ctx_b,
            self.ctrl_b.clone(),
            self.ctrl_a.addr(),
            self.dst,
            self.msg,
            SchemeSpec::SrNack,
            self.cfg.clone(),
            move |_eng, at, rep| {
                rx_out.delivered_at.set(Some(at));
                rx_out
                    .receiver_ok
                    .set(rep.outcome == TransferOutcome::Delivered);
            },
        );
        AdaptiveController::start_sender(
            &mut self.p.eng,
            &self.p.qp_a,
            &self.p.ctx_a,
            self.ctrl_a.clone(),
            self.ctrl_b.addr(),
            self.src,
            self.msg,
            SchemeSpec::SrNack,
            self.cfg.clone(),
            move |_eng, rep| {
                tx_out
                    .sender_ok
                    .set(rep.outcome == TransferOutcome::Delivered);
                tx_out.switches.set(rep.switches);
                tx_out.proposals.set(rep.proposals);
                tx_out.retx.set(rep.retransmits);
            },
        );
        self.out = out;
    }

    fn engine(&mut self) -> &mut Engine {
        &mut self.p.eng
    }

    fn verify(&mut self) -> Delivered {
        let intact = same_bytes(
            &self.p.fabric,
            self.p.node_a,
            self.src,
            self.p.node_b,
            self.dst,
            self.msg,
        );
        let out = &self.out;
        self.switches += out.switches.get();
        self.proposals += out.proposals.get();
        self.retx += out.retx.get();
        Delivered::one_transfer(
            self.started_at,
            out.delivered_at.get(),
            intact && out.sender_ok.get() && out.receiver_ok.get(),
        )
    }

    fn counts(&self) -> Counts {
        let mut c = fabric_counts(
            &self.p.eng,
            &self.p.fabric,
            self.p.node_a,
            self.p.node_b,
            [&self.ctrl_a, &self.ctrl_b],
        );
        c[C::RetxChunks] = self.retx;
        c[C::AdaptSwitches] = self.switches;
        c[C::AdaptProposals] = self.proposals;
        c
    }

    fn source_intact(&self) -> bool {
        digest(&self.p.fabric, self.p.node_a, self.src, self.msg) == self.src_digest
    }
}

/// Median sim completion (ms) of `iters` static SR-NACK and `iters` static
/// EC(32,8) 40 MiB transfers over the same stepped channel, plus how many
/// of them failed to deliver. The oracle is the smaller median.
fn static_oracle_ms(seed: u64, iters: u32, spans: &mut Spans) -> (f64, f64, u64) {
    let mut failed = 0;
    let mut run = |scheme: Scheme, scratch: u64, slots: usize, max_msg: u64| {
        let mut d = Bulk::build(
            scheme,
            link(),
            Some(STEP),
            qp_cfg(max_msg, 4096, 64 << 10, slots),
            MSG,
            scratch,
            seed,
            spans,
        );
        let ms: Vec<f64> = (0..iters)
            .map(|i| {
                let s = iterate(&mut d, i, 1, spans).delivered;
                failed += s.failed;
                s.completions_ms[0]
            })
            .collect();
        median(&ms)
    };
    let sr = run(Scheme::Sr, 0, 64, MSG);
    // 20 submessages of 32 × 64 KiB: 40 slots; parity 10 MiB per transfer.
    let ec = run(Scheme::Ec, (MSG / 4) * u64::from(iters + 1), 64, MSG);
    (sr, ec, failed)
}
