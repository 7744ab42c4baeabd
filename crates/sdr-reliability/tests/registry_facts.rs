//! One count per fact: the fabric's registry reads the stack's own stats
//! structs — every link's `LinkStats`, every node's `NodeStats`, every
//! control endpoint's counts, every flow manager's `FlowStats` — so what
//! it reports is exactly what the structs say, whether or not the
//! `sdr-trace` kill switch is on. Every test here runs with the switch
//! off: a registry that still counted through gated mirrors would read 0.

mod common;

use std::collections::BTreeMap;

use common::{flow_world, ProtoHarness};
use sdr_core::testkit::pattern;
use sdr_core::SdrConfig;
use sdr_reliability::{FlowCfg, SchemeSpec};
use sdr_sim::{set_trace_enabled, Fabric, LinkConfig, LinkStats, NodeId, NodeStats, Registry};

/// The registry's counters whose names start with `prefix`.
fn counters(reg: &Registry, prefix: &str) -> BTreeMap<String, u64> {
    let snap = reg.snapshot();
    let found = snap.counters.into_iter();
    found.filter(|(n, _)| n.starts_with(prefix)).collect()
}

/// `facts` summed by name.
fn summed(facts: impl IntoIterator<Item = (&'static str, u64)>) -> BTreeMap<String, u64> {
    let mut sum = BTreeMap::new();
    for (name, v) in facts {
        *sum.entry(name.to_string()).or_default() += v;
    }
    sum
}

/// `link.*` and `nic.*` read as the sum of both directions' `LinkStats`
/// and both nodes' `NodeStats`.
fn assert_wire_facts(fabric: &Fabric, (a, b): (NodeId, NodeId)) {
    let links = [(a, b), (b, a)].map(|(x, y)| fabric.link_stats(x, y).expect("linked"));
    let want = summed(links.iter().flat_map(|s| s.facts()));
    assert_eq!(counters(fabric.metrics(), "link."), want);
    assert!(want["link.sent"] > 0 && want["link.dropped"] > 0);
    let nodes = [a, b].map(|n| fabric.node(n, |n| n.stats()));
    let want = summed(nodes.iter().flat_map(|s| s.facts()));
    assert_eq!(counters(fabric.metrics(), "nic."), want);
    assert!(want["nic.writes_landed"] > 0);
}

/// Every field of the wire structs is one `u64` fact with a name: a
/// field added without its registry name fails here.
#[test]
fn the_wire_structs_name_every_field() {
    let fields = |bytes: usize| bytes / size_of::<u64>();
    assert_eq!(
        fields(size_of::<LinkStats>()),
        LinkStats::default().facts().len()
    );
    assert_eq!(
        fields(size_of::<NodeStats>()),
        NodeStats::default().facts().len()
    );
}

/// A flow population over a lossy wire: the registry's `link.*`,
/// `nic.*`, `ctrl.*` and `flow.*` are the structs' sums.
#[test]
fn the_registry_reads_the_structs_with_tracing_off() {
    set_trace_enabled(false);
    let link = LinkConfig::wan(10.0, 10e9, 2e-3).with_seed(3);
    let mut w = flow_world(
        link.clone(),
        FlowCfg::new(SdrConfig::default(), 10e9, link.rtt()),
    );
    let bytes = 256 << 10;
    for i in 0..16 {
        let src = w.ctx_a.alloc_buffer(bytes);
        w.ctx_a.write_buffer(src, &pattern(bytes as usize, i));
        w.mgr_a
            .open_flow(&mut w.eng, w.node_b, src, bytes, |_eng, _rep| {});
    }
    w.eng.set_event_limit(50_000_000);
    w.eng.run();
    let reg = w.fabric.metrics().clone();
    let (a, b) = (w.ctx_a.node(), w.node_b);
    assert_wire_facts(&w.fabric, (a, b));

    let eps = [&w.ctrl_a, &w.ctrl_b];
    let filters = eps.map(|e| e.filter_stats());
    let ctrl = |name: &str| reg.counter_value(name);
    assert_eq!(ctrl("ctrl.sent"), eps.iter().map(|e| e.sent_count()).sum());
    assert_eq!(ctrl("ctrl.stale"), filters.iter().map(|f| f.stale).sum());
    let dups: u64 = filters.iter().map(|f| f.duplicates).sum();
    assert_eq!(ctrl("ctrl.duplicates"), dups);
    let malformed: u64 = filters.iter().map(|f| f.malformed).sum();
    assert_eq!(ctrl("ctrl.malformed"), malformed);
    assert_eq!(
        ctrl("ctrl.corrupt"),
        filters.iter().map(|f| f.corrupt).sum()
    );

    let stats = [w.mgr_a.stats(), w.mgr_b.stats()];
    let want = summed(stats.iter().flat_map(|s| s.facts()));
    for (name, v) in &want {
        assert_eq!(reg.counter_value(name), *v, "{name}");
    }
    assert_eq!(want["flow.opened"], 16);
    assert!(want["flow.injected"] > 0 && want["flow.urgent"] > 0);
}

/// Per message name, every datagram sent counts under `ctrl.tx.<Name>`
/// and every one the peer's filter accepts under `ctrl.rx.<Name>`: on a
/// lossless wire the two agree name by name, and the sent names sum to
/// the endpoints' `sent_count`s (no `Seg` envelope doubles one here).
#[test]
fn per_message_counts_balance_on_a_lossless_sr_transfer() {
    set_trace_enabled(false);
    let cfg = SdrConfig {
        max_msg_bytes: 4 << 20,
        ..SdrConfig::default()
    };
    let mut h = ProtoHarness::new(LinkConfig::wan(100.0, 100e9, 0.0), cfg, 4 << 20, 1);
    let _ends = h.start_scheme(SchemeSpec::SrNack, 100e9, |_e, _n| {});
    h.run(5_000_000);
    assert!(h.delivered_ok());
    let reg = h.p.fabric.metrics();
    let tx = counters(reg, "ctrl.tx.");
    let rx = counters(reg, "ctrl.rx.");
    assert_eq!(tx.len(), rx.len(), "every message has both names");
    for (name, sent) in &tx {
        let got = &rx[&name.replacen("ctrl.tx.", "ctrl.rx.", 1)];
        assert_eq!(sent, got, "{name}");
    }
    assert!(tx["ctrl.tx.SrAck"] > 0);
    let sent = h.ctrl_a.sent_count() + h.ctrl_b.sent_count();
    assert_eq!(tx.values().sum::<u64>(), sent);
}

/// The EC sender encodes parity while its data packets are still on the
/// wire; reading the data rows must not mark them written, or every one
/// of those packets is hashed again at the receiving NIC.
///
/// Write stamps are per 4 KiB page, so the layout keeps every write off
/// the message's pages: the message starts on a fresh page (the QP's
/// credit buffers, allocated just before it, take credits all transfer
/// long) and is one submessage (the staging regions of neighbouring
/// submessages would share a page, encoded at different instants).
#[test]
fn a_clean_wire_ec_transfer_hashes_each_payload_once() {
    const PAGE: u64 = 4096;
    set_trace_enabled(false);
    let msg = 32 * (64 << 10);
    let cfg = SdrConfig {
        max_msg_bytes: msg,
        msg_slots: 32,
        chunk_bytes: 64 << 10,
        ..SdrConfig::default()
    };
    let mut h = ProtoHarness::new(LinkConfig::wan(100.0, 400e9, 0.0), cfg, msg, 2);
    h.src = h.p.ctx_a.alloc_buffer(msg + PAGE).next_multiple_of(PAGE);
    h.p.ctx_a.write_buffer(h.src, &h.data);
    let _ends = h.start_scheme(SchemeSpec::EcMds { k: 32, m: 8 }, 400e9, |_e, _n| {});
    h.run(5_000_000);
    assert!(h.delivered_ok());
    let reg = h.p.fabric.metrics();
    assert!(reg.counter_value("nic.writes_landed") > 0);
    assert_eq!(reg.counter_value("nic.crc.rehashed"), 0);
}
