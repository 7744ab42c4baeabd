//! The two `FlowManager` workloads: a fixed population of equal flows
//! opened together at one sim instant (closed: nothing arrives on a
//! schedule, so there is no generator lateness to report).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sdr_rdma::core::{SdrConfig, SdrContext};
use sdr_rdma::reliability::{ControlEndpoint, FlowCfg, FlowManager, FlowReport, RxFlowDone};
use sdr_rdma::sim::{Engine, Fabric, LinkConfig, NodeId, SimTime};

use crate::span::Spans;
use crate::workload::{
    digest, fabric_counts, same_bytes, scrub, write_source, Counts, Delivered, Deployment, Spec, C,
};

const BW: f64 = 10e9;
const SLOTS: usize = 64;

/// 10 km, 10 Gbit/s, 1e-4 loss: the flow engine's reference deployment.
fn metro_link() -> LinkConfig {
    LinkConfig::wan(10.0, BW, 1e-4)
}

pub const FLOWS_1K: Spec = Spec {
    name: "flows_1k",
    why: "1000 x 256 KiB flows admitted at once (10 km, 10G, 1e-4): steady-state DRR injection, shared \
          tick and population-scaled acks do the work; admission does none (ROADMAP reference row)",
    batch: 1,
    payload_bytes: 1000 * (256 << 10),
    mtu: 4096,
    line_rate_bps: BW,
    sim_iters: 5,
    max_iters: 400,
    build: |seed, spans| Box::new(Flows::build(1000, 256 << 10, metro_link(), 16, seed, spans)),    rung: |l| l.flow_4k,
    fully_warm: true,
    oracle: None,
};

pub const FLOWS_10K_CHURN: Spec = Spec {
    name: "flows_10k_churn",
    why: "10000 x 32 KiB flows over 1024 slots: 8976 parked opens, so FlowOpen/Ack/Fin handshakes and \
          slot recycling dominate; a flows_1k gain paid for by open/close cost shows here",
    batch: 1,
    payload_bytes: 10_000 * (32 << 10),
    mtu: 4096,
    line_rate_bps: BW,
    sim_iters: 3,
    max_iters: 400,
    build: |seed, spans| Box::new(Flows::build(10_000, 32 << 10, metro_link(), 16, seed, spans)),    rung: |l| l.flow_4k,
    fully_warm: true,
    oracle: None,
};

pub struct Flows {
    eng: Engine,
    fabric: Fabric,
    node_a: NodeId,
    node_b: NodeId,
    ctrl_a: Rc<ControlEndpoint>,
    ctrl_b: Rc<ControlEndpoint>,
    mgr_a: FlowManager,
    mgr_b: FlowManager,
    n: u64,
    bytes: u64,
    src_base: u64,
    src_digest: u32,
    dst_base: u64,
    /// Bump cursor of the receive allocator, rewound every iteration: the
    /// destination arena is recycled across iterations, never within one
    /// (a late duplicate may still land in a slot's buffer until the slot
    /// itself is released, so a buffer is not reused while its iteration
    /// is live).
    dst_next: Rc<Cell<u64>>,
    reports: Rc<RefCell<Vec<FlowReport>>>,
    arrivals: Rc<RefCell<Vec<RxFlowDone>>>,
    retx: u64,
    opened: u64,
    /// Per-iteration: id of the first flow opened and the sim instant.
    first_id: u64,
    opened_at: SimTime,
}

impl Flows {
    /// `n` flows of `bytes` each (at most the default 16 MiB message size)
    /// between two managers with `shards` × 64 receive slots.
    pub fn build(
        n: u64,
        bytes: u64,
        link: LinkConfig,
        shards: usize,
        seed: u64,
        spans: &mut Spans,
    ) -> Flows {
        let bw = link.bandwidth_bps;
        let arena = n * bytes;
        // Arena plus headroom for the shards' control rings.
        let node_mem = (arena + (64 << 20)) as usize;
        let eng = Engine::new();
        let fabric = Fabric::new();
        let node_a = fabric.add_node(node_mem);
        let node_b = fabric.add_node(node_mem);
        fabric.link_duplex(node_a, node_b, link.with_seed(seed));
        let rtt = fabric.rtt(node_a, node_b).expect("duplex link installed");
        let ctx_a = SdrContext::new(&fabric, node_a);
        let ctx_b = SdrContext::new(&fabric, node_b);
        let ctrl_a = Rc::new(ControlEndpoint::new(&fabric, node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&fabric, node_b));
        let qp = SdrConfig {
            msg_slots: SLOTS,
            ..SdrConfig::default()
        };
        let mut cfg = FlowCfg::new(qp, bw, rtt);
        cfg.shards = shards;
        let mgr_a = FlowManager::new(&fabric, node_a, ctrl_a.clone(), cfg.clone());
        let mgr_b = FlowManager::new(&fabric, node_b, ctrl_b.clone(), cfg);
        FlowManager::connect(&mgr_a, &mgr_b);

        let src_base = ctx_a.alloc_buffer(arena);
        let dst_base = ctx_b.alloc_buffer(arena);
        let src_digest = write_source(&fabric, node_a, src_base, arena, seed);
        spans.time("pretouch", 0, |_| {
            scrub(&fabric, node_b, dst_base, arena, 0)
        });

        let dst_next = Rc::new(Cell::new(0));
        let cursor = dst_next.clone();
        mgr_b.set_rx_allocator(move |len| {
            let at = cursor.get();
            assert!(at + len <= arena, "receive arena exhausted");
            cursor.set(at + len);
            dst_base + at
        });
        let arrivals: Rc<RefCell<Vec<RxFlowDone>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = arrivals.clone();
        mgr_b.on_rx_done(move |_eng, done| sink.borrow_mut().push(done));

        Flows {
            eng,
            fabric,
            node_a,
            node_b,
            ctrl_a,
            ctrl_b,
            mgr_a,
            mgr_b,
            n,
            bytes,
            src_base,
            src_digest,
            dst_base,
            dst_next,
            reports: Rc::new(RefCell::new(Vec::with_capacity(n as usize))),
            arrivals,
            retx: 0,
            opened: 0,
            first_id: 0,
            opened_at: SimTime::ZERO,
        }
    }

    /// Counts flows of this iteration that did not deliver byte-identical.
    fn count_failed(&self) -> u64 {
        let first_id = self.first_id;
        let reports = self.reports.borrow();
        let arrivals = self.arrivals.borrow();
        let slot = |id: u64| id.checked_sub(first_id).filter(|&i| i < self.n);
        let mut reported = vec![false; self.n as usize];
        for i in reports
            .iter()
            .filter(|r| r.delivered)
            .filter_map(|r| slot(r.id))
        {
            reported[i as usize] = true;
        }
        let mut ok = vec![false; self.n as usize];
        for done in arrivals.iter() {
            let Some(i) = slot(done.id) else { continue };
            ok[i as usize] = reported[i as usize]
                && done.bytes == self.bytes
                && same_bytes(
                    &self.fabric,
                    self.node_a,
                    self.src_base + i * self.bytes,
                    self.node_b,
                    done.addr,
                    self.bytes,
                );
        }
        let mut failed = ok.iter().filter(|&&good| !good).count() as u64;
        // Drained managers are part of "delivered": a parked open or a
        // live flow left behind would leak into the next iteration.
        if failed == 0 && (self.mgr_b.parked_opens() != 0 || self.mgr_a.live_flows() != (0, 0)) {
            failed = 1;
        }
        failed
    }
}

impl Deployment for Flows {
    fn prepare(&mut self, iter: u32) {
        scrub(
            &self.fabric,
            self.node_b,
            self.dst_base,
            self.n * self.bytes,
            iter,
        );
        self.dst_next.set(0);
        self.reports.borrow_mut().clear();
        self.arrivals.borrow_mut().clear();
    }

    fn open(&mut self) {
        self.opened_at = self.eng.now();
        for i in 0..self.n {
            let sink = self.reports.clone();
            let id = self.mgr_a.open_flow(
                &mut self.eng,
                self.node_b,
                self.src_base + i * self.bytes,
                self.bytes,
                move |_eng, report| sink.borrow_mut().push(report),
            );
            if i == 0 {
                self.first_id = id;
            }
        }
        self.opened += self.n;
    }

    fn engine(&mut self) -> &mut Engine {
        &mut self.eng
    }

    fn verify(&mut self) -> Delivered {
        let failed = self.count_failed();
        let reports = self.reports.borrow();
        let last_done = reports
            .iter()
            .map(|r| r.done_at)
            .max()
            .unwrap_or(self.opened_at);
        self.retx += reports.iter().map(|r| r.retransmits).sum::<u64>();
        Delivered {
            sim_elapsed_s: last_done.saturating_sub(self.opened_at).as_secs_f64(),
            completions_ms: reports
                .iter()
                .map(|r| r.done_at.saturating_sub(r.opened_at).as_secs_f64() * 1e3)
                .collect(),
            attempted: self.n,
            failed,
        }
    }

    fn counts(&self) -> Counts {
        let mut c = fabric_counts(
            &self.eng,
            &self.fabric,
            self.node_a,
            self.node_b,
            [&self.ctrl_a, &self.ctrl_b],
        );
        c[C::RetxChunks] = self.retx;
        c[C::FlowsOpened] = self.opened;
        c
    }

    fn source_intact(&self) -> bool {
        digest(
            &self.fabric,
            self.node_a,
            self.src_base,
            self.n * self.bytes,
        ) == self.src_digest
    }
}
