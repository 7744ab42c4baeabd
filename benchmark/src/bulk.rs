//! The three single-pair bulk workloads: transfers issued back-to-back on
//! one connected `sdr_pair`, the next only after the previous delivered
//! (closed loop, one client). One iteration = one batch of transfers.

use std::cell::Cell;
use std::rc::Rc;

use sdr_rdma::core::testkit::{sdr_pair, SdrPair};
use sdr_rdma::core::SdrConfig;
use sdr_rdma::model::Channel;
use sdr_rdma::reliability::{
    ControlEndpoint, EcCodeChoice, EcProtoConfig, EcReceiver, EcSender, SrProtoConfig, SrReceiver,
    SrSender, TransferOutcome,
};
use sdr_rdma::sim::{Engine, LinkConfig, LossModel, SimTime};

use crate::span::Spans;
use crate::workload::{
    digest, fabric_counts, same_bytes, scrub, write_source, Counts, Delivered, Deployment, Spec, C,
};

const BW: f64 = 400e9;
const CHUNK_64K: u64 = 64 << 10;
const EC_K: usize = 32;
/// What one in-place decode rebuilds a submessage from: k chunks.
pub const EC_SUBMESSAGE_BYTES: u64 = EC_K as u64 * CHUNK_64K;
const EC_M: usize = 8;

pub const BULK_SR_4K: Spec = Spec {
    name: "bulk_sr_4k",
    why:
        "64 MiB SR-NACK transfers, 4 KiB MTU, 100 km / 400G / 1e-4: the per-byte data path (inject \
          copy, CRC32C passes, NIC DMA) does the work; flow engine, EC and adapt do none",
    batch: 6,
    payload_bytes: 6 * (64 << 20),
    mtu: 4096,
    line_rate_bps: BW,
    sim_iters: 8,
    max_iters: 1000,
    build: |seed, spans| {
        Box::new(Bulk::build(
            Scheme::Sr,
            LinkConfig::wan(100.0, BW, 1e-4),
            None,
            qp_cfg(64 << 20, 4096, CHUNK_64K, 16),
            64 << 20,
            0,
            seed,
            spans,
        ))
    },
    rung: |l| l.sr_4k,
    fully_warm: false,
    oracle: None,
};

pub const BULK_SR_256B: Spec = Spec {
    name: "bulk_sr_256b",
    why: "16 MiB SR-NACK transfers, 256 B MTU, same link: byte costs vanish, per-packet constants \
          (dispatch, link pump, NIC, bitmap) do the work; a zero-copy/CRC win must not move it",
    batch: 12,
    payload_bytes: 12 * (16 << 20),
    mtu: 256,
    line_rate_bps: BW,
    sim_iters: 8,
    max_iters: 1000,
    build: |seed, spans| {
        Box::new(Bulk::build(
            Scheme::Sr,
            LinkConfig::wan(100.0, BW, 1e-4),
            None,
            qp_cfg(16 << 20, 256, 4096, 16),
            16 << 20,
            0,
            seed,
            spans,
        ))
    },
    rung: |l| l.sr_256b,
    fully_warm: false,
    oracle: None,
};

/// Both ends bump-allocate fresh parity staging per transfer
/// (`EcSender::start`, `EcReceiver::start`): 16 MiB each at MDS(32,8) over
/// 64 MiB, so every transfer touches 32 MiB of never-used node memory. The
/// iteration cap keeps the process near 1 GB touched — past roughly
/// 1.3 GB this class of VM serves first-touch faults about seven times
/// slower, and late iterations would time the hypervisor. Not batched:
/// at 1e-2 loss over 16 k packets a transfer's work is even enough, and
/// with so few transfers every one is worth a wall sample of its own.
const EC_MAX_ITERS: u32 = 26;

pub const BULK_EC_LOSSY: Spec = Spec {
    name: "bulk_ec_lossy",
    why: "64 MiB EC-MDS(32,8) transfers, 3750 km / 400G / 1e-2: the only row where sdr-erasure \
          (encode, in-place decode, shard audits) and the EC FTO/fallback path work; SR rows bypass it",
    batch: 1,
    payload_bytes: 64 << 20,
    mtu: 4096,
    line_rate_bps: BW,
    sim_iters: 15,
    max_iters: EC_MAX_ITERS,
    build: |seed, spans| {
        let msg: u64 = 64 << 20;
        let parity = msg / EC_K as u64 * EC_M as u64;
        Box::new(Bulk::build(
            Scheme::Ec,
            LinkConfig::wan(3750.0, BW, 1e-2),
            None,
            // One slot per data and per parity submessage: 2L ≤ msg_slots.
            qp_cfg(msg / 32, 4096, CHUNK_64K, 64),
            msg,
            // The warm-up iteration rides the same arena.
            parity * u64::from(EC_MAX_ITERS + 1),
            seed,
            spans,
        ))
    },
    rung: |l| l.ec_4k,
    fully_warm: false,
    oracle: None,
};

pub fn qp_cfg(max_msg: u64, mtu: u64, chunk: u64, slots: usize) -> SdrConfig {
    SdrConfig {
        max_msg_bytes: max_msg,
        msg_slots: slots,
        mtu_bytes: mtu,
        chunk_bytes: chunk,
        ..SdrConfig::default()
    }
}

#[derive(Clone, Copy)]
pub enum Scheme {
    Sr,
    Ec,
}

/// A mid-transfer loss step: every iteration starts at `before` and steps
/// to `after` once `at` has elapsed (the adaptive scenario's channel).
#[derive(Clone, Copy)]
pub struct LossStep {
    pub before: f64,
    pub after: f64,
    pub at: SimTime,
}

impl LossStep {
    /// Resets the duplex link to `before` and schedules the step.
    pub fn arm(&self, p: &mut SdrPair) {
        let (fabric, a, b, after) = (p.fabric.clone(), p.node_a, p.node_b, self.after);
        fabric.set_loss_duplex(a, b, LossModel::Iid { p: self.before });
        p.eng.schedule_in(self.at, move |_eng| {
            fabric.set_loss_duplex(a, b, LossModel::Iid { p: after });
        });
    }
}

pub struct Bulk {
    scheme: Scheme,
    step: Option<LossStep>,
    p: SdrPair,
    ctrl_a: Rc<ControlEndpoint>,
    ctrl_b: Rc<ControlEndpoint>,
    rtt: SimTime,
    /// Drop rate the EC fallback timeout is provisioned for.
    p_drop: f64,
    bw: f64,
    msg: u64,
    src: u64,
    src_digest: u32,
    dst: u64,
    retx: u64,
    ec_decoded: u64,
    ec_fallback: u64,
    ec_encoded_bytes: u64,
    /// Per-iteration: the transfer in flight and when it was started.
    out: Rc<Outcome>,
    started_at: SimTime,
}

impl Bulk {
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        scheme: Scheme,
        link: LinkConfig,
        step: Option<LossStep>,
        cfg: SdrConfig,
        msg: u64,
        scratch_bytes: u64,
        seed: u64,
        spans: &mut Spans,
    ) -> Bulk {
        let p_drop = step.map_or(link.loss.mean_drop_rate(), |s| s.after);
        let bw = link.bandwidth_bps;
        let node_mem = (2 * msg + scratch_bytes + (16 << 20)) as usize;
        let p = sdr_pair(link.with_seed(seed), cfg, node_mem);
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
        Bulk {
            scheme,
            step,
            p,
            ctrl_a,
            ctrl_b,
            rtt,
            p_drop,
            bw,
            msg,
            src,
            src_digest,
            dst,
            retx: 0,
            ec_decoded: 0,
            ec_fallback: 0,
            ec_encoded_bytes: 0,
            out: Rc::default(),
            started_at: SimTime::ZERO,
        }
    }
}

/// What the completion callbacks of one transfer leave behind.
#[derive(Default)]
struct Outcome {
    delivered_at: Cell<Option<SimTime>>,
    sender_ok: Cell<bool>,
    retx: Cell<u64>,
    ec_decoded: Cell<u64>,
    ec_fallback: Cell<u64>,
}

impl Deployment for Bulk {
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
        match self.scheme {
            Scheme::Sr => {
                let proto = SrProtoConfig::nack(self.rtt);
                // Receiver first: its CTS races the sender start.
                SrReceiver::start(
                    &mut self.p.eng,
                    &self.p.qp_b,
                    self.ctrl_b.clone(),
                    self.ctrl_a.addr(),
                    self.dst,
                    self.msg,
                    proto,
                    move |eng, _t| rx_out.delivered_at.set(Some(eng.now())),
                );
                SrSender::start(
                    &mut self.p.eng,
                    &self.p.qp_a,
                    self.ctrl_a.clone(),
                    self.ctrl_b.addr(),
                    self.src,
                    self.msg,
                    proto,
                    move |_eng, rep| {
                        tx_out
                            .sender_ok
                            .set(rep.outcome == TransferOutcome::Delivered);
                        tx_out.retx.set(rep.retransmitted);
                    },
                );
            }
            Scheme::Ec => {
                let ch = Channel::new(self.bw, self.rtt.as_secs_f64(), self.p_drop);
                let proto = EcProtoConfig::for_channel(
                    EC_K,
                    EC_M,
                    EcCodeChoice::Mds,
                    &ch,
                    self.msg,
                    self.rtt,
                );
                EcReceiver::start(
                    &mut self.p.eng,
                    &self.p.qp_b,
                    &self.p.ctx_b,
                    self.ctrl_b.clone(),
                    self.ctrl_a.addr(),
                    self.dst,
                    self.msg,
                    proto,
                    move |eng, _t, stats| {
                        rx_out.delivered_at.set(Some(eng.now()));
                        rx_out.ec_decoded.set(stats.decoded_submessages);
                    },
                );
                EcSender::start(
                    &mut self.p.eng,
                    &self.p.qp_a,
                    &self.p.ctx_a,
                    self.ctrl_a.clone(),
                    self.ctrl_b.addr(),
                    self.src,
                    self.msg,
                    proto,
                    move |_eng, rep| {
                        tx_out
                            .sender_ok
                            .set(rep.outcome == TransferOutcome::Delivered);
                        tx_out.ec_fallback.set(rep.fallback_rounds);
                    },
                );
                self.ec_encoded_bytes += self.msg;
            }
        }
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
        self.retx += out.retx.get();
        self.ec_decoded += out.ec_decoded.get();
        self.ec_fallback += out.ec_fallback.get();
        Delivered::one_transfer(
            self.started_at,
            out.delivered_at.get(),
            intact && out.sender_ok.get(),
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
        c[C::EcDecoded] = self.ec_decoded;
        c[C::EcFallbackRounds] = self.ec_fallback;
        c[C::EcEncodedBytes] = self.ec_encoded_bytes;
        c
    }

    fn source_intact(&self) -> bool {
        digest(&self.p.fabric, self.p.node_a, self.src, self.msg) == self.src_digest
    }
}
