//! The metric catalogue: every name the binary can emit, with its unit,
//! clock, direction and regression bound. `BENCHMARK.json` mirrors this
//! table and a self-test keeps the two in lockstep.

/// Which clock a metric is read from. The two are never mixed in one
/// metric: sim-clock numbers are the paper's results and repeat exactly
/// per seed; wall-clock (and host) numbers are the cost of running the
/// stack and are compared within a bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Wall,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

/// End-to-end metrics, emitted by every workload of the untraced run.
///
/// The bounds are sized for the acceptance driver, which compares runs at
/// *different* seeds on a shared 2-vCPU VM: each is at least three times
/// the widest quartile spread ten seeds showed on any workload (README,
/// "Spreads") — except `setup_s`, which the driver exempts from the spread
/// test and which already carries the largest bound it allows. For a sim metric that spread is the seed-to-seed variation
/// of the loss pattern, not noise — two runs at one seed agree exactly,
/// and `compare` holds a host-only change to exactly that.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Clock::Wall, Better::Lower, 0.25),
    e2e("wall_ns_per_pkt", "ns", Clock::Wall, Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Clock::Wall, Better::Lower, 0.25),
    e2e(
        "sim_goodput_gbps",
        "Gbit/s",
        Clock::Sim,
        Better::Higher,
        0.10,
    ),
    e2e(
        "sim_completion_stretch_mean",
        "ratio",
        Clock::Sim,
        Better::Lower,
        0.10,
    ),
    e2e(
        "sim_completion_stretch_tail",
        "ratio",
        Clock::Sim,
        Better::Lower,
        0.20,
    ),
    e2e(
        "sim_fairness_jain",
        "ratio",
        Clock::Sim,
        Better::Higher,
        0.08,
    ),
    e2e("wire_efficiency", "ratio", Clock::Sim, Better::Higher, 0.15),
];

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};
use Clock::{Sim, Wall};

/// Per-layer metrics (layer = crate.module), emitted by the traced run.
/// Three sources, all outside the program: **counts** from registry
/// snapshots and report structs (per iteration of this workload),
/// **ladder** rungs (self cost = rung − rung below), **probes** (unit cost
/// of one public call in isolation); the **ledger** multiplies the first
/// by the others.
pub const PER_LAYER: &[MetricDef] = &[
    // sdr-sim
    layer("sim.engine.events_per_pkt", "1/pkt", Sim, Lower),
    layer("sim.engine.dispatch_ns", "ns", Wall, Lower),
    layer("sim.engine.rearm_ns", "ns", Wall, Lower),
    layer("sim.fabric.ns_per_pkt_4k", "ns", Wall, Lower),
    layer("sim.fabric.ns_per_pkt_256b", "ns", Wall, Lower),
    layer("sim.completion_ms_p50", "ms", Sim, Lower),
    layer("sim.completion_ms_p99", "ms", Sim, Lower),
    layer("sim.link.drop_ratio", "ratio", Sim, Lower),
    layer("sim.link.ctrl_share", "ratio", Sim, Lower),
    // sdr-core
    layer("core.qp.self_ns_per_pkt_4k", "ns", Wall, Lower),
    layer("core.qp.self_ns_per_pkt_256b", "ns", Wall, Lower),
    layer("core.bitmap.set_ns", "ns", Wall, Lower),
    layer("core.bitmap.scan_ns_per_kbit", "ns", Wall, Lower),
    // sdr-erasure
    layer("erasure.crc32c.gibps_4k", "GiB/s", Wall, Higher),
    layer("erasure.crc32c.est_share", "ratio", Wall, Lower),
    layer("erasure.rs.encode_gibps", "GiB/s", Wall, Higher),
    layer("erasure.rs.reconstruct_gibps", "GiB/s", Wall, Higher),
    layer("erasure.rs.est_share", "ratio", Wall, Lower),
    // sdr-reliability
    layer("reliability.control.ns_per_datagram", "ns", Wall, Lower),
    layer("reliability.control.datagrams_per_pkt", "1/pkt", Sim, Lower),
    layer("reliability.control.filtered", "count/iter", Sim, Lower),
    layer("reliability.sr.self_ns_per_pkt_4k", "ns", Wall, Lower),
    layer("reliability.sr.self_ns_per_pkt_256b", "ns", Wall, Lower),
    layer("reliability.sr.retx_chunks", "count/iter", Sim, Lower),
    layer("reliability.ec.self_ns_per_pkt_4k", "ns", Wall, Lower),
    layer(
        "reliability.ec.decoded_submessages",
        "count/iter",
        Sim,
        Lower,
    ),
    layer("reliability.ec.fallback_rounds", "count/iter", Sim, Lower),
    layer("reliability.flow.self_ns_per_pkt_4k", "ns", Wall, Lower),
    layer("reliability.flow.open_ns", "ns", Wall, Lower),
    layer("reliability.flow.drr_ns_per_item", "ns", Wall, Lower),
    layer("reliability.flow.due_ns_per_op", "ns", Wall, Lower),
    layer("reliability.flow.parked_opens", "count/iter", Sim, Lower),
    layer("reliability.flow.urgent_ratio", "ratio", Sim, Lower),
    layer("reliability.adapt.self_ns_per_pkt_4k", "ns", Wall, Lower),
    layer("reliability.adapt.switches", "count/iter", Sim, Lower),
    layer("reliability.adapt.proposals", "count/iter", Sim, Lower),
    layer("reliability.adapt.oracle_ratio", "ratio", Sim, Lower),
    layer("reliability.advisor.recommend_us", "us", Wall, Lower),
    // sdr-dpa (no DES underneath: probes only)
    layer("dpa.ring.ns_per_cqe", "ns", Wall, Lower),
    layer("dpa.table.ns_per_cqe", "ns", Wall, Lower),
    layer("dpa.table.repost_ns", "ns", Wall, Lower),
    layer("dpa.rx_loop.ns_per_cqe", "ns", Wall, Lower),
    layer("dpa.threaded_mpps", "Mpkt/s", Wall, Higher),
    // sdr-trace
    layer("trace.counter_inc_ns", "ns", Wall, Lower),
    layer("trace.recorder_record_ns", "ns", Wall, Lower),
    layer("trace.overhead_share", "ratio", Wall, Lower),
    // benchmark side, this workload
    layer("host.allocs_per_pkt", "1/pkt", Wall, Lower),
    layer("host.alloc_bytes_per_pkt", "B/pkt", Wall, Lower),
    layer("host.minor_faults_per_pkt", "1/pkt", Wall, Lower),
    layer("host.unattributed_share", "ratio", Wall, Lower),
    layer("bench.span_overhead_share", "ratio", Wall, Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contract's rule for workload and metric names.
#[cfg(test)]
pub fn well_formed_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract_limits() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(well_formed_name(m.name), "bad metric name {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the widest bound");
    }
}
