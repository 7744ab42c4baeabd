//! A dropped `FlowManager` pair gives its node memory back. A manager
//! owns its control endpoint and its shards' QPs, and it installs a flow
//! handler on the one and a CTS callback on each of the others; a callback
//! that held the manager strongly would close a manager → endpoint (or
//! QP) → callback → manager cycle and keep both nodes' memory alive after
//! the last handle is gone. One test in its own process, so the
//! resident-set reading is this test's alone.

use std::rc::Rc;

use sdr_core::testkit::pattern;
use sdr_core::{SdrConfig, SdrContext};
use sdr_reliability::{ControlEndpoint, FlowCfg, FlowManager};
use sdr_sim::{Fabric, LinkConfig};

/// Bytes written into node A's memory per build: the pages a leak keeps.
const WRITTEN: usize = 32 << 20;

/// This process's resident set, in bytes (`/proc/self/statm`'s second
/// field, in pages; 4 KiB pages assumed).
fn rss_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    pages * 4096
}

/// Builds two connected `FlowManager`s over their own control endpoints,
/// writes [`WRITTEN`] bytes into node A's memory and drops the whole
/// deployment.
fn build_write_drop(data: &[u8]) {
    let fabric = Fabric::new();
    let mem = WRITTEN + (16 << 20);
    let (node_a, node_b) = (fabric.add_node(mem), fabric.add_node(mem));
    let link = LinkConfig::wan(10.0, 10e9, 0.0);
    fabric.link_duplex(node_a, node_b, link);
    let rtt = fabric.rtt(node_a, node_b).expect("duplex link installed");
    let cfg = FlowCfg::new(SdrConfig::default(), 10e9, rtt);
    let [mgr_a, mgr_b] = [node_a, node_b].map(|node| {
        let ctrl = Rc::new(ControlEndpoint::new(&fabric, node));
        FlowManager::new(&fabric, node, ctrl, cfg.clone())
    });
    FlowManager::connect(&mgr_a, &mgr_b);
    let ctx_a = SdrContext::new(&fabric, node_a);
    let addr = ctx_a.alloc_buffer(WRITTEN as u64);
    ctx_a.write_buffer(addr, data);
}

#[test]
fn a_dropped_flow_manager_pair_releases_its_node_memory() {
    let data = pattern(WRITTEN, 1);
    // The first build warms the allocator; growth counts from after it.
    build_write_drop(&data);
    let base = rss_bytes();
    for build in 1..20 {
        build_write_drop(&data);
        let grown = rss_bytes().saturating_sub(base);
        assert!(
            grown < WRITTEN,
            "build {build}: resident set grew {grown} B since the first build"
        );
    }
}
