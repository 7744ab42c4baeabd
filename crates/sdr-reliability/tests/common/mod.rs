//! Shared integration-test harness: the sdr_pair + control-endpoint +
//! payload + report-capture wiring every protocol integration test
//! otherwise re-implements. Keeping it here means a protocol-signature
//! change is one edit, not one per test file.

// Each test binary compiles its own copy; not every test uses every
// helper.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::testkit::{pattern, sdr_pair, SdrPair};
use sdr_core::{SdrConfig, SdrContext};
use sdr_erasure::{ErasureCode, ReedSolomon, XorCode};
use sdr_reliability::scheme::{self, SchemeEnv, SchemeReceiver, SchemeSender};
use sdr_reliability::{
    ControlEndpoint, DeliveryManifest, EcCodeChoice, FlowCfg, FlowManager, SchemeSpec,
};
use sdr_sim::{tx_time, Engine, Fabric, LinkConfig, NodeId, SimTime, DEFAULT_HEADER_BYTES};

/// Node memory given to each side of the pair.
pub const NODE_MEM: usize = 64 << 20;

/// A ready-to-run protocol deployment: two connected SDR nodes, a control
/// endpoint on each, a deterministic payload staged in the sender's memory
/// and a destination buffer on the receiver.
pub struct ProtoHarness {
    /// The underlying two-node SDR pair (engine, fabric, QPs, contexts).
    pub p: SdrPair,
    /// Control endpoint on node A (the sender by convention).
    pub ctrl_a: Rc<ControlEndpoint>,
    /// Control endpoint on node B (the receiver by convention).
    pub ctrl_b: Rc<ControlEndpoint>,
    /// Propagation RTT between the nodes.
    pub rtt: SimTime,
    /// The payload written at `src`.
    pub data: Vec<u8>,
    /// Sender-side buffer address holding `data`.
    pub src: u64,
    /// Receiver-side destination buffer address.
    pub dst: u64,
    /// Message length in bytes.
    pub msg: u64,
}

impl ProtoHarness {
    /// Builds the deployment: `link` duplex between two nodes, one SDR QP
    /// pair under `cfg`, payload `pattern(msg, data_seed)` staged at
    /// `src`.
    pub fn new(link: LinkConfig, cfg: SdrConfig, msg: u64, data_seed: u64) -> Self {
        let p = sdr_pair(link, cfg, NODE_MEM);
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(msg as usize, data_seed);
        let src = p.ctx_a.alloc_buffer(msg);
        let dst = p.ctx_b.alloc_buffer(msg);
        p.ctx_a.write_buffer(src, &data);
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        ProtoHarness {
            p,
            ctrl_a,
            ctrl_b,
            rtt,
            data,
            src,
            dst,
            msg,
        }
    }

    /// The model channel matching this deployment's link (`bandwidth_bps`
    /// must equal the link's configured rate).
    pub fn model_channel(&self, bandwidth_bps: f64, p_drop: f64) -> sdr_model::Channel {
        sdr_model::Channel::new(bandwidth_bps, self.rtt.as_secs_f64(), p_drop)
    }

    /// Starts one run of `spec` over the whole payload, A → B, through the
    /// production scheme table — the two functions the adaptive controller
    /// starts every segment with — on the raw control endpoints
    /// (`bandwidth_bps` must equal the link's configured rate). `sent`
    /// is the sender's done callback.
    pub fn start_scheme(
        &mut self,
        spec: SchemeSpec,
        bandwidth_bps: f64,
        sent: impl FnOnce(&mut Engine, u64) + 'static,
    ) -> (Box<dyn SchemeSender>, SchemeReceiver) {
        self.start_scheme_with(spec, bandwidth_bps, sent, |_e, _at| {})
    }

    /// [`start_scheme`](Self::start_scheme) with the receiver's done
    /// callback too (it gets the completion instant).
    pub fn start_scheme_with(
        &mut self,
        spec: SchemeSpec,
        bandwidth_bps: f64,
        sent: impl FnOnce(&mut Engine, u64) + 'static,
        landed: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> (Box<dyn SchemeSender>, SchemeReceiver) {
        let p = &mut self.p;
        let tx_env = SchemeEnv {
            qp: &p.qp_a,
            ctx: &p.ctx_a,
            ctrl: self.ctrl_a.clone(),
            peer: self.ctrl_b.addr(),
            addr: self.src,
            bytes: self.msg,
            bandwidth_bps,
            rtt: self.rtt,
            trace: None,
        };
        let tx = scheme::start_sender(&mut p.eng, spec, tx_env, None, sent);
        let rx_env = SchemeEnv {
            qp: &p.qp_b,
            ctx: &p.ctx_b,
            ctrl: self.ctrl_b.clone(),
            peer: self.ctrl_a.addr(),
            addr: self.dst,
            bytes: self.msg,
            bandwidth_bps,
            rtt: self.rtt,
            trace: None,
        };
        let rx = scheme::start_receiver(&mut p.eng, spec, rx_env, None, landed);
        (tx, rx)
    }

    /// What a previous life of an adaptive transfer in `segment_bytes`
    /// segments left behind when segments `delivered` had landed: their
    /// bytes in the destination buffer, their bits in the returned
    /// manifest.
    pub fn journal(&self, segment_bytes: u64, delivered: &[u32]) -> DeliveryManifest {
        let mut m = DeliveryManifest::new(self.msg, segment_bytes);
        for &id in delivered {
            let (off, len) = m.segment(id);
            let bytes = &self.data[off as usize..(off + len) as usize];
            self.p.ctx_b.write_buffer(self.dst + off, bytes);
            m.mark_delivered(id);
        }
        m
    }

    /// Scripts a loss: the forward (A → B) direction is dark during
    /// `[from, to)` (absolute), so exactly the packets delivered in that
    /// window are dropped. With [`first_pass_arrival`] the window can be
    /// put around chosen packets.
    pub fn black_out_forward(&mut self, from: SimTime, to: SimTime) {
        for (at, down) in [(from, true), (to, false)] {
            let (fabric, a, b) = (self.p.fabric.clone(), self.p.node_a, self.p.node_b);
            self.p.eng.schedule_in(at, move |_eng| {
                fabric.set_link_down(a, b, down);
            });
        }
    }

    /// Runs the simulation to quiescence under an event budget.
    pub fn run(&mut self, event_limit: u64) {
        self.p.eng.set_event_limit(event_limit);
        self.p.eng.run();
    }

    /// The bytes currently in the destination buffer.
    pub fn delivered(&self) -> Vec<u8> {
        self.p.ctx_b.read_buffer(self.dst, self.msg as usize)
    }

    /// True when the destination buffer holds exactly the sent payload.
    pub fn delivered_ok(&self) -> bool {
        self.delivered() == self.data
    }
}

/// When the `n`-th data packet of a transfer's first pass (wire order) is
/// delivered on a lossless `LinkConfig::wan(km, bandwidth_bps, _)` link
/// carrying `mtu`-byte payloads, both ends started at 0: the receiver's
/// first CTS takes one serialization and one propagation delay, and the
/// sender streams the whole first pass from that instant without a gap.
pub fn first_pass_arrival(km: f64, bandwidth_bps: f64, mtu: u64, n: u64) -> SimTime {
    let one_way = sdr_sim::propagation_delay_km(km);
    let hdr = DEFAULT_HEADER_BYTES as u64;
    let cts = tx_time(20 + hdr, bandwidth_bps) + one_way;
    cts + tx_time(mtu + hdr, bandwidth_bps) * (n + 1) + one_way
}

/// The forward blackout (for [`ProtoHarness::black_out_forward`]) that
/// swallows exactly first-pass packets `from..to` on such a link: dark from
/// half a packet before `from` lands to half a packet before `to` does.
pub fn swallowing(km: f64, bandwidth_bps: f64, mtu: u64, from: u64, to: u64) -> (SimTime, SimTime) {
    let half = tx_time(mtu, bandwidth_bps) / 2;
    let lands = |n| first_pass_arrival(km, bandwidth_bps, mtu, n);
    (lands(from) - half, lands(to) - half)
}

/// A capture cell for a protocol completion report: `capture()` yields the
/// shared cell plus a callback that stores the report into it.
pub fn capture<T: 'static>() -> (Rc<RefCell<Option<T>>>, impl FnOnce(&mut Engine, T)) {
    let cell: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
    let c = cell.clone();
    (cell, move |_eng: &mut Engine, rep: T| {
        *c.borrow_mut() = Some(rep);
    })
}

/// Takes the captured report, panicking with `what` when the protocol
/// never completed.
pub fn took<T>(cell: &Rc<RefCell<Option<T>>>, what: &str) -> T {
    cell.borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("{what} did not complete"))
}

/// Two nodes joined by `link`, each running a [`FlowManager`] under `cfg`
/// over its own control endpoint, connected to each other: the many-flow
/// twin of [`ProtoHarness`].
pub struct FlowWorld {
    pub eng: Engine,
    pub fabric: Fabric,
    pub ctx_a: SdrContext,
    pub ctx_b: SdrContext,
    pub ctrl_a: Rc<ControlEndpoint>,
    pub ctrl_b: Rc<ControlEndpoint>,
    pub mgr_a: FlowManager,
    pub mgr_b: FlowManager,
    pub node_b: NodeId,
}

impl FlowWorld {
    /// Packets the link `src → dst` has finished with — delivered or
    /// dropped. A link is a FIFO, so the packet that was the `n`-th it
    /// accepted (`link_stats().sent == n` right after the send) reaches
    /// the far end at the instant this count reaches `n`.
    pub fn resolved(&self, src: NodeId, dst: NodeId) -> u64 {
        let s = self.fabric.link_stats(src, dst).expect("linked");
        s.delivered + s.dropped
    }

    /// Steps the engine until `cond` holds and returns that instant.
    pub fn step_until(&mut self, cond: impl Fn(&FlowWorld) -> bool) -> SimTime {
        while !cond(self) {
            assert!(self.eng.step(), "ran dry before the condition held");
        }
        self.eng.now()
    }

    /// Scripts a loss: the direction `src → dst` is dark for a nanosecond
    /// either side of `at` (absolute), which swallows exactly the packet
    /// delivered at that instant. A dry run of the same scenario — the
    /// simulator is deterministic — finds `at` with
    /// [`resolved`](Self::resolved) and [`step_until`](Self::step_until).
    pub fn swallow_at(&mut self, src: NodeId, dst: NodeId, at: SimTime) {
        let ns = SimTime::from_nanos(1);
        for (when, down) in [(at - ns, true), (at + ns, false)] {
            let fabric = self.fabric.clone();
            self.eng.schedule_at(when, move |_eng| {
                fabric.set_link_down(src, dst, down);
            });
        }
    }
}

pub fn flow_world(link: LinkConfig, cfg: FlowCfg) -> FlowWorld {
    const NODE_MEM: usize = 256 << 20;
    let eng = Engine::new();
    let fabric = Fabric::new();
    let node_a = fabric.add_node(NODE_MEM);
    let node_b = fabric.add_node(NODE_MEM);
    fabric.link_duplex(node_a, node_b, link);
    let ctx_a = SdrContext::new(&fabric, node_a);
    let ctx_b = SdrContext::new(&fabric, node_b);
    let ctrl_a = Rc::new(ControlEndpoint::new(&fabric, node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&fabric, node_b));
    let mgr_a = FlowManager::new(&fabric, node_a, ctrl_a.clone(), cfg.clone());
    let mgr_b = FlowManager::new(&fabric, node_b, ctrl_b.clone(), cfg);
    FlowManager::connect(&mgr_a, &mgr_b);
    FlowWorld {
        eng,
        fabric,
        ctx_a,
        ctx_b,
        ctrl_a,
        ctrl_b,
        mgr_a,
        mgr_b,
        node_b,
    }
}

/// The EC reference: every submessage of `data` (`k` chunks of `chunk`
/// bytes, shorter tail; XOR parity clamped to the tail size) encoded
/// serially, parity concatenated in submessage order — the layout of the
/// sender's staging region.
pub fn serial_parity(data: &[u8], chunk: usize, code: EcCodeChoice, k: usize, m: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for sub in data.chunks(k * chunk) {
        let shards: Vec<&[u8]> = sub.chunks(chunk).collect();
        let code: Box<dyn ErasureCode> = match code {
            EcCodeChoice::Mds => Box::new(ReedSolomon::new(shards.len(), m)),
            EcCodeChoice::Xor => Box::new(XorCode::new(shards.len(), m.min(shards.len()))),
        };
        let mut parity = vec![vec![0u8; chunk]; code.parity_shards()];
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        code.encode_into(&shards, &mut views);
        out.extend(parity.into_iter().flatten());
    }
    out
}
