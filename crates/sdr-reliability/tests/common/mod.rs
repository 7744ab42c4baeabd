//! Shared integration-test helpers. The per-transfer deployment
//! ([`ProtoHarness`]) lives in `sdr_reliability::testkit` (the chaos bench
//! builds the same deployment) and is re-exported here; what stays is
//! test-only: report capture, scripted first-pass losses, the many-flow
//! twin, and the serial EC reference.

// Each test binary compiles its own copy; not every test uses every
// helper.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::SdrContext;
use sdr_erasure::{ErasureCode, ReedSolomon, XorCode};
use sdr_reliability::{ControlEndpoint, EcCodeChoice, FlowCfg, FlowManager};
use sdr_sim::{tx_time, Engine, Fabric, LinkConfig, NodeId, SimTime, DEFAULT_HEADER_BYTES};

#[allow(unused_imports)]
pub use sdr_reliability::testkit::ProtoHarness;

/// A capture cell for a completion report: `capture()` yields the shared
/// cell plus a callback that stores the report into it.
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
