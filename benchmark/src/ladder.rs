//! The layer ladder: one lossless 16 MiB packet train pushed through
//! successively taller public entry points, once at 4 KiB and once at
//! 256 B MTU. A layer's self cost is its rung minus the rung below, so the
//! rungs sum to the top by construction.
//!
//! ```text
//! rung 1  Fabric::post_uc_write        link pump + NIC DMA + CRC verify + CQE
//! rung 2  SdrQp::recv_post/send_post   + inject copy, CRC attach, imm, receive scan
//! rung 3  SrSender/SrReceiver          + chunk timers, acks, CTS pump
//! rung 4  one-flow FlowManager         + open handshake, DRR, shared tick   (4 KiB)
//! side    EcSender/EcReceiver          rung 2 + encode + EC control         (4 KiB)
//! side    AdaptiveController           rung 3 + segments, epochs, telemetry (4 KiB)
//! ```

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use sdr_rdma::core::testkit::{sdr_pair, SdrPair};
use sdr_rdma::core::{RecvHandle, SdrConfig, SendHandle};
use sdr_rdma::sim::{
    CqId, Engine, Fabric, LinkConfig, MkeyId, NodeId, QpAddr, QpNum, QpType, Waker, WriteWr,
};

use crate::adaptive::Adaptive;
use crate::bulk::{qp_cfg, Bulk, Scheme};
use crate::flows::Flows;
use crate::span::Spans;
use crate::stats::{fast_quarter_mean, median};
use crate::workload::{
    digest, fill_pattern, iterate, same_bytes, scrub, write_source, Counts, Delivered, Deployment,
    C,
};

/// The train: 16 MiB, i.e. 4096 packets at 4 KiB and 65 536 at 256 B.
pub const TRAIN: u64 = 16 << 20;
/// Timed rounds (after one warm-up round). Every round runs every rung
/// once, back to back, so a slow spell of the host hits a rung and the
/// rung below it alike.
pub const ROUNDS: usize = 7;

/// The ladder's link: the bulk workloads' 100 km / 400 Gbit/s, lossless.
fn link() -> LinkConfig {
    LinkConfig::wan(100.0, 400e9, 0.0)
}

/// One rung's result.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rung {
    /// Host ns per payload packet of the train.
    pub ns_per_pkt: f64,
    /// Packets the rung put on the data direction of the wire per payload
    /// packet (1.25 for MDS(32,8) parity; 1 where not counted).
    pub wire_per_pkt: f64,
}

/// Every rung of the ladder.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ladder {
    pub fabric_4k: Rung,
    pub fabric_256b: Rung,
    pub qp_4k: Rung,
    pub qp_256b: Rung,
    pub sr_4k: Rung,
    pub sr_256b: Rung,
    pub flow_4k: Rung,
    pub ec_4k: Rung,
    pub adapt_4k: Rung,
    /// Trains that did not arrive byte-identical (expect 0).
    pub failed: u64,
}

/// A rung under measurement: its deployment, the rung it stands on, and
/// one ns-per-packet sample per timed round.
struct Step {
    name: &'static str,
    mtu: u64,
    below: Option<usize>,
    dep: Box<dyn Deployment>,
    ns_per_pkt: Vec<f64>,
    wire_pkts: u64,
}

/// Measures every rung. The bottom rung is the fast-quarter mean of its
/// own samples; each rung above is the rung below plus the median of the
/// *same-round* differences, so rungs sum to the top by construction and a
/// rung's self cost is a paired estimate. A rung within noise of the one
/// below can therefore read a few ns negative; it is reported as measured.
pub fn run(seed: u64, spans: &mut Spans) -> Ladder {
    let mut steps: Vec<Step> = Vec::new();
    let mut add = |name, mtu, below, dep: Box<dyn Deployment>| -> usize {
        steps.push(Step {
            name,
            mtu,
            below,
            dep,
            ns_per_pkt: Vec::new(),
            wire_pkts: 0,
        });
        steps.len() - 1
    };
    let mut rungs_at = |mtu: u64, chunk: u64, spans: &mut Spans| -> [usize; 3] {
        let cfg = qp_cfg(TRAIN, mtu, chunk, 16);
        let fabric = add(
            "ladder.fabric",
            mtu,
            None,
            Box::new(FabricRung::build(mtu, seed)),
        );
        let qp = add(
            "ladder.qp",
            mtu,
            Some(fabric),
            Box::new(QpRung::build(cfg, seed)),
        );
        let sr_dep = Bulk::build(Scheme::Sr, link(), None, cfg, TRAIN, 0, seed, spans);
        [
            fabric,
            qp,
            add("ladder.sr", mtu, Some(qp), Box::new(sr_dep)),
        ]
    };
    let [fabric_4k, qp_4k, sr_4k] = rungs_at(4096, 64 << 10, spans);
    let [fabric_256b, qp_256b, sr_256b] = rungs_at(256, 4096, spans);
    let flow_dep = Flows::build(1, TRAIN, link(), 1, seed, spans);
    let flow_4k = add("ladder.flow", 4096, Some(sr_4k), Box::new(flow_dep));
    // MDS(32,8) over 64 KiB chunks: 8 submessages, 4 MiB parity per train.
    let parity_arena = TRAIN / 4 * (ROUNDS as u64 + 1);
    let ec_cfg = qp_cfg(TRAIN / 8, 4096, 64 << 10, 16);
    let ec_dep = Bulk::build(
        Scheme::Ec,
        link(),
        None,
        ec_cfg,
        TRAIN,
        parity_arena,
        seed,
        spans,
    );
    let ec_4k = add("ladder.ec", 4096, Some(qp_4k), Box::new(ec_dep));
    let adapt_dep = Adaptive::build(link(), TRAIN, None, seed, spans);
    let adapt_4k = add("ladder.adapt", 4096, Some(sr_4k), Box::new(adapt_dep));

    let mut failed = 0;
    for round in 0..=ROUNDS as u32 {
        for step in &mut steps {
            let (sample, _) = spans.time(step.name, round, |spans| {
                iterate(step.dep.as_mut(), round, 1, spans)
            });
            failed += sample.delivered.failed;
            // Round 0 is the warm-up.
            if round > 0 {
                let pkts = (TRAIN / step.mtu) as f64;
                step.ns_per_pkt.push(sample.wall().as_nanos() as f64 / pkts);
                step.wire_pkts += sample.counts[C::FwdPkts];
            }
        }
    }

    let mut rungs: Vec<Rung> = Vec::with_capacity(steps.len());
    for step in &steps {
        let ns_per_pkt = match step.below {
            None => fast_quarter_mean(&step.ns_per_pkt),
            Some(below) => {
                let paired: Vec<f64> = step
                    .ns_per_pkt
                    .iter()
                    .zip(&steps[below].ns_per_pkt)
                    .map(|(mine, base)| mine - base)
                    .collect();
                rungs[below].ns_per_pkt + median(&paired)
            }
        };
        let sent = step.wire_pkts as f64 / (ROUNDS as u64 * (TRAIN / step.mtu)) as f64;
        rungs.push(Rung {
            ns_per_pkt,
            wire_per_pkt: if sent == 0.0 { 1.0 } else { sent },
        });
    }
    Ladder {
        fabric_4k: rungs[fabric_4k],
        fabric_256b: rungs[fabric_256b],
        qp_4k: rungs[qp_4k],
        qp_256b: rungs[qp_256b],
        sr_4k: rungs[sr_4k],
        sr_256b: rungs[sr_256b],
        flow_4k: rungs[flow_4k],
        ec_4k: rungs[ec_4k],
        adapt_4k: rungs[adapt_4k],
        failed,
    }
}

// ---------------------------------------------------------------------------
// Rung 1: the bare fabric
// ---------------------------------------------------------------------------

/// One connected UC QP per node and a registered destination: what an
/// `SdrQp` sits on, minus the `SdrQp`. The source is one shared `Bytes`
/// sliced per packet and the CRCs are computed at build time, so the timed
/// region holds only what the fabric itself does per packet.
struct FabricRung {
    eng: Engine,
    fabric: Fabric,
    node_a: NodeId,
    node_b: NodeId,
    qp_a: QpNum,
    dst: u64,
    dst_key: MkeyId,
    mtu: u64,
    train: Bytes,
    train_digest: u32,
    crcs: Vec<u32>,
    cqes: Rc<Cell<u64>>,
}

impl FabricRung {
    fn build(mtu: u64, seed: u64) -> FabricRung {
        let eng = Engine::new();
        let fabric = Fabric::new();
        let node_a = fabric.add_node(1 << 20);
        let node_b = fabric.add_node((TRAIN + (1 << 20)) as usize);
        fabric.link_duplex(node_a, node_b, link().with_seed(seed));
        let uc_qp = |node: NodeId| -> (QpNum, CqId) {
            fabric.node_mut(node, |n| {
                let (send_cq, recv_cq) = (n.create_cq(), n.create_cq());
                (n.create_qp(QpType::Uc, send_cq, recv_cq), recv_cq)
            })
        };
        let (qp_a, _) = uc_qp(node_a);
        let (qp_b, recv_cq) = uc_qp(node_b);
        let (addr_a, addr_b) = (
            QpAddr {
                node: node_a,
                qp: qp_a,
            },
            QpAddr {
                node: node_b,
                qp: qp_b,
            },
        );
        fabric.node_mut(node_a, |n| n.connect_qp(qp_a, addr_b));
        fabric.node_mut(node_b, |n| n.connect_qp(qp_b, addr_a));
        let (dst, dst_key) = fabric.node_mut(node_b, |n| {
            let dst = n.mem_mut().alloc(TRAIN);
            (dst, n.reg_mr(dst, TRAIN))
        });
        scrub(&fabric, node_b, dst, TRAIN, 0);

        let mut data = vec![0u8; TRAIN as usize];
        fill_pattern(&mut data, seed);
        let crcs = data
            .chunks(mtu as usize)
            .map(sdr_rdma::erasure::crc32c)
            .collect();
        let train_digest = sdr_rdma::erasure::crc32c(&data);

        // The receive side of a verbs consumer: drain the CQ when kicked.
        let cqes = Rc::new(Cell::new(0));
        let (seen, fab) = (cqes.clone(), fabric.clone());
        fabric.node_mut(node_b, |n| {
            n.set_cq_waker(
                recv_cq,
                Waker::new(move |_eng| {
                    while fab.node_mut(node_b, |n| n.poll_cq(recv_cq)).is_some() {
                        seen.set(seen.get() + 1);
                    }
                }),
            )
        });
        FabricRung {
            eng,
            fabric,
            node_a,
            node_b,
            qp_a,
            dst,
            dst_key,
            mtu,
            train: Bytes::copy_from_slice(&data),
            train_digest,
            crcs,
            cqes,
        }
    }
}

impl Deployment for FabricRung {
    fn prepare(&mut self, iter: u32) {
        scrub(&self.fabric, self.node_b, self.dst, TRAIN, iter);
        self.cqes.set(0);
    }

    fn open(&mut self) {
        let src = QpAddr {
            node: self.node_a,
            qp: self.qp_a,
        };
        let mtu = self.mtu as usize;
        for (pkt, &crc) in self.crcs.iter().enumerate() {
            let lo = pkt * mtu;
            self.fabric
                .post_uc_write(
                    &mut self.eng,
                    src,
                    WriteWr {
                        remote_mkey: self.dst_key,
                        remote_offset: lo as u64,
                        data: self.train.slice(lo..lo + mtu),
                        imm: Some(pkt as u32),
                        crc: Some(crc),
                        wr_id: pkt as u64,
                        signaled: false,
                    },
                )
                .expect("connected UC QP over an installed link");
        }
    }

    fn engine(&mut self) -> &mut Engine {
        &mut self.eng
    }

    fn verify(&mut self) -> Delivered {
        let ok = self.cqes.get() == self.crcs.len() as u64
            && digest(&self.fabric, self.node_b, self.dst, TRAIN) == self.train_digest;
        Delivered {
            attempted: 1,
            failed: u64::from(!ok),
            ..Delivered::default()
        }
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }

    fn source_intact(&self) -> bool {
        sdr_rdma::erasure::crc32c(&self.train) == self.train_digest
    }
}

// ---------------------------------------------------------------------------
// Rung 2: the SDR queue pair
// ---------------------------------------------------------------------------

/// Table 1's one-shot flow on a connected pair: `recv_post` (sends the
/// CTS), `send_post`, run, poll the bitmap, `recv_complete`.
struct QpRung {
    p: SdrPair,
    src: u64,
    src_digest: u32,
    dst: u64,
    posted: Option<(RecvHandle, SendHandle)>,
}

impl QpRung {
    fn build(cfg: SdrConfig, seed: u64) -> QpRung {
        let p = sdr_pair(link().with_seed(seed), cfg, (TRAIN + (16 << 20)) as usize);
        let src = p.ctx_a.alloc_buffer(TRAIN);
        let dst = p.ctx_b.alloc_buffer(TRAIN);
        let src_digest = write_source(&p.fabric, p.node_a, src, TRAIN, seed);
        scrub(&p.fabric, p.node_b, dst, TRAIN, 0);
        QpRung {
            p,
            src,
            src_digest,
            dst,
            posted: None,
        }
    }
}

impl Deployment for QpRung {
    fn prepare(&mut self, iter: u32) {
        scrub(&self.p.fabric, self.p.node_b, self.dst, TRAIN, iter);
    }

    fn open(&mut self) {
        let rh = self
            .p
            .qp_b
            .recv_post(&mut self.p.eng, self.dst, TRAIN)
            .expect("a free receive slot");
        let sh = self
            .p
            .qp_a
            .send_post(&mut self.p.eng, self.src, TRAIN, None)
            .expect("a free send context");
        self.posted = Some((rh, sh));
    }

    fn engine(&mut self) -> &mut Engine {
        &mut self.p.eng
    }

    fn verify(&mut self) -> Delivered {
        let (rh, sh) = self.posted.take().expect("verify follows open");
        let complete = self.p.qp_b.recv_is_complete(&rh) == Ok(true);
        let released = self.p.qp_b.recv_complete(&mut self.p.eng, &rh).is_ok();
        self.p.qp_a.send_release(sh);
        let ok = complete
            && released
            && same_bytes(
                &self.p.fabric,
                self.p.node_a,
                self.src,
                self.p.node_b,
                self.dst,
                TRAIN,
            );
        Delivered {
            attempted: 1,
            failed: u64::from(!ok),
            ..Delivered::default()
        }
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }

    fn source_intact(&self) -> bool {
        digest(&self.p.fabric, self.p.node_a, self.src, TRAIN) == self.src_digest
    }
}
