//! A dropped deployment gives its memory back. A QP's completion-queue
//! wakers live in the node, so a waker that held the fabric strongly
//! would close a fabric → node → waker → fabric cycle and keep every
//! node's memory alive after the last handle is gone. One test in its own
//! process, so the resident-set reading is this test's alone.

use sdr_core::testkit::{pattern, sdr_pair};
use sdr_core::SdrConfig;
use sdr_sim::LinkConfig;

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

/// Builds an `sdr_pair`, writes [`WRITTEN`] bytes into node A's memory and
/// drops the whole deployment.
fn build_write_drop(data: &[u8]) {
    let p = sdr_pair(
        LinkConfig::wan(10.0, 10e9, 0.0),
        SdrConfig::default(),
        WRITTEN + (8 << 20),
    );
    let addr = p.ctx_a.alloc_buffer(WRITTEN as u64);
    p.ctx_a.write_buffer(addr, data);
}

#[test]
fn a_dropped_sdr_pair_releases_its_node_memory() {
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
