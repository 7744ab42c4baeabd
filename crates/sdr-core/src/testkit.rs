//! Ready-made two-node SDR topologies for tests, examples and benchmarks.

use sdr_sim::{Engine, Fabric, LinkConfig, NodeId};

use crate::config::SdrConfig;
use crate::context::SdrContext;
use crate::qp::SdrQp;

/// A connected two-node SDR deployment: node A ↔ node B over symmetric
/// links, with one SDR QP pair already connected.
pub struct SdrPair {
    /// The discrete-event engine driving the deployment.
    pub eng: Engine,
    /// The shared fabric.
    pub fabric: Fabric,
    /// Context on node A (by convention, the sender in most tests).
    pub ctx_a: SdrContext,
    /// Context on node B.
    pub ctx_b: SdrContext,
    /// SDR QP on node A.
    pub qp_a: SdrQp,
    /// SDR QP on node B.
    pub qp_b: SdrQp,
    /// Node A id.
    pub node_a: NodeId,
    /// Node B id.
    pub node_b: NodeId,
}

/// Builds a connected pair with `mem` bytes of node memory on each side.
pub fn sdr_pair(link: LinkConfig, cfg: SdrConfig, mem: usize) -> SdrPair {
    let eng = Engine::new();
    let fabric = Fabric::new();
    let node_a = fabric.add_node(mem);
    let node_b = fabric.add_node(mem);
    fabric.link_duplex(node_a, node_b, link);
    let ctx_a = SdrContext::new(&fabric, node_a);
    let ctx_b = SdrContext::new(&fabric, node_b);
    let qp_a = ctx_a.qp_create(cfg).expect("valid config");
    let qp_b = ctx_b.qp_create(cfg).expect("valid config");
    qp_a.connect(qp_b.info()).expect("shape matches");
    qp_b.connect(qp_a.info()).expect("shape matches");
    SdrPair {
        eng,
        fabric,
        ctx_a,
        ctx_b,
        qp_a,
        qp_b,
        node_a,
        node_b,
    }
}

/// Deterministic pseudo-random payload for correctness checks.
pub fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}
