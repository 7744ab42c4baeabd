//! What a workload is, what one timed iteration yields, and the helpers
//! every deployment shares (seeded inputs, warm memory, byte verification,
//! counter snapshots).

use std::time::Duration;

use sdr_rdma::reliability::ControlEndpoint;
use sdr_rdma::sim::{Engine, Fabric, NodeId, SimTime};

use crate::host;
use crate::ladder::{Ladder, Rung};
use crate::span::Spans;

/// Event budget per iteration: far above any healthy iteration (the
/// largest runs ~1.5 M events), low enough that a livelock surfaces as a
/// counted failure in seconds instead of a hung process.
const EVENT_LIMIT: u64 = 200_000_000;

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Transfers issued back-to-back per iteration, each only after the
    /// previous one delivered and the engine drained (a population of
    /// flows opened together counts as one). Batching evens out how much
    /// work an iteration holds: a single 256 B-MTU transfer puts anywhere
    /// from 65.8 k to 98 k packets on the wire depending on its losses.
    pub batch: u32,
    /// Application payload bytes moved per iteration (all of the batch).
    pub payload_bytes: u64,
    /// SDR MTU of the deployment.
    pub mtu: u64,
    /// Line rate of the deployment's link, bits per second.
    pub line_rate_bps: f64,
    /// Iterations whose sim-clock samples form the `sim_*` metrics. Fixed
    /// per workload so those metrics are a pure function of the seed, no
    /// matter how many further iterations the wall-clock budget allows.
    pub sim_iters: u32,
    /// Hard cap on iterations (deployments that bump-allocate per transfer
    /// size their node memory for this many).
    pub max_iters: u32,
    /// Builds the deployment: allocate, fill sources from the seed,
    /// pre-touch destinations, connect. Timed as `setup_s`.
    pub build: fn(seed: u64, spans: &mut Spans) -> Box<dyn Deployment>,
    /// The ladder rung this workload's data packets ride: the unit cost
    /// the ledger prices them at.
    pub rung: fn(&Ladder) -> Rung,
    /// True when set-up writes every byte the timed region touches, so the
    /// warm-memory guard applies (a cold run reads 1.0 faults per packet).
    pub fully_warm: bool,
    /// The oracle an adaptive workload is held against (`None` elsewhere).
    pub oracle: Option<StaticOracle>,
}

/// Median sim completion (ms) of `iters` static SR and of `iters` static EC
/// transfers over a workload's channel, and how many of them failed.
pub type StaticOracle = fn(seed: u64, iters: u32, spans: &mut Spans) -> (f64, f64, u64);

impl Spec {
    /// `pkt` for every per-packet metric: payload bytes ÷ MTU — a constant
    /// of the workload, so sending more packets cannot improve the number.
    pub fn pkts(&self) -> u64 {
        self.payload_bytes / self.mtu
    }
}

/// A warm, persistent deployment that can run its workload repeatedly.
/// The runner owns the clock: it calls these in order and times `open`
/// and the engine run from outside ([`iterate`]).
pub trait Deployment {
    /// Untimed: scrub destinations and reset per-iteration bookkeeping.
    fn prepare(&mut self, iter: u32);

    /// Issues the iteration's transfers (`open_flow` / `*::start` calls).
    fn open(&mut self);

    /// The engine that drives them to quiescence.
    fn engine(&mut self) -> &mut Engine;

    /// Byte-verifies every delivery of the iteration just run.
    fn verify(&mut self) -> Delivered;

    /// Cumulative counters since the deployment was built.
    fn counts(&self) -> Counts;

    /// True while the seeded source bytes still hash to their setup-time
    /// digest (verification compares destinations against them).
    fn source_intact(&self) -> bool;
}

/// What one iteration delivered, on the sim clock.
#[derive(Clone, Debug, Default)]
pub struct Delivered {
    /// Sim seconds from the first open to the last delivery (summed over
    /// the rounds of a batch).
    pub sim_elapsed_s: f64,
    /// Sim completion time of each flow / transfer, milliseconds.
    pub completions_ms: Vec<f64>,
    /// Transfers issued.
    pub attempted: u64,
    /// Transfers not delivered byte-identical (abort, mismatch, event
    /// limit, missing report).
    pub failed: u64,
}

impl Delivered {
    /// One bulk transfer started at `started`; it counts as delivered only
    /// when the receiver reported a delivery instant and `ok` holds (bytes
    /// identical, both ends reported `Delivered`).
    pub fn one_transfer(started: SimTime, delivered: Option<SimTime>, ok: bool) -> Delivered {
        let took = delivered
            .unwrap_or(started)
            .saturating_sub(started)
            .as_secs_f64();
        Delivered {
            sim_elapsed_s: took,
            completions_ms: vec![took * 1e3],
            attempted: 1,
            failed: u64::from(!(ok && delivered.is_some())),
        }
    }
}

/// One iteration as the runner saw it: the sim-clock outcome plus the
/// host-side cost of producing it, observed from outside.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub delivered: Delivered,
    /// Wall time inside the `open_flow` / `*::start` calls.
    pub open: Duration,
    /// Wall time inside `Engine::run`.
    pub run: Duration,
    /// Minor page faults, heap allocations and bytes requested during
    /// `open` + `run` (the heap pair reads 0 unless counting is on).
    pub minor_faults: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Counter deltas over the whole iteration.
    pub counts: Counts,
}

impl Sample {
    /// Host time the program spent on this iteration.
    pub fn wall(&self) -> Duration {
        self.open + self.run
    }
}

/// Runs one iteration of `dep` — `batch` rounds of prepare / open / run /
/// verify — under the runner's clocks and spans. Only `open` and `run`
/// are on the clock; scrubbing and verification are the benchmark's own
/// work.
pub fn iterate(dep: &mut dyn Deployment, iter: u32, batch: u32, spans: &mut Spans) -> Sample {
    let counts0 = dep.counts();
    let mut sample = Sample::default();
    for round in 0..batch {
        dep.prepare(iter * batch + round);
        let (faults0, (allocs0, bytes0)) = (host::minor_faults(), host::alloc_counters());
        let ((), open) = spans.time("open", iter, |_| dep.open());
        let eng = dep.engine();
        eng.set_event_limit(eng.executed_events() + EVENT_LIMIT);
        let (_, run) = spans.time("run", iter, |_| dep.engine().run());
        let (faults1, (allocs1, bytes1)) = (host::minor_faults(), host::alloc_counters());
        let (delivered, _) = spans.time("verify", iter, |_| dep.verify());
        sample.open += open;
        sample.run += run;
        sample.minor_faults += faults1 - faults0;
        sample.allocs += allocs1 - allocs0;
        sample.alloc_bytes += bytes1 - bytes0;
        sample.delivered.sim_elapsed_s += delivered.sim_elapsed_s;
        sample
            .delivered
            .completions_ms
            .extend(delivered.completions_ms);
        sample.delivered.attempted += delivered.attempted;
        sample.delivered.failed += delivered.failed;
    }
    sample.counts = dep.counts().since(&counts0);
    sample
}

/// One counter of a [`Counts`] snapshot. Registry names (`engine.events`,
/// `link.*`, `ctrl.*`, `flow.*`) where the stack registers one;
/// report-struct sums for what the registry cannot see yet (ROADMAP "one
/// stats spine").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum C {
    Events,
    LinkSent,
    LinkDropped,
    /// Bytes / packets serialized sender → receiver (data direction).
    FwdBytes,
    FwdPkts,
    /// Bytes serialized receiver → sender (acks, CTS, telemetry).
    RevBytes,
    /// Control datagrams sent by both endpoints, and by the sender's alone
    /// (those ride the data direction and are part of `FwdPkts`).
    CtrlDatagrams,
    CtrlDatagramsFwd,
    /// `ctrl.stale + duplicates + corrupt + malformed`.
    CtrlFiltered,
    RetxChunks,
    EcDecoded,
    EcFallbackRounds,
    /// Data bytes fed through Reed–Solomon encode.
    EcEncodedBytes,
    FlowsOpened,
    FlowParked,
    FlowInjected,
    FlowUrgent,
    AdaptSwitches,
    AdaptProposals,
}

const N_COUNTS: usize = C::AdaptProposals as usize + 1;

/// Counter snapshot, indexed by [`C`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts([u64; N_COUNTS]);

impl std::ops::Index<C> for Counts {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<C> for Counts {
    fn index_mut(&mut self, c: C) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counts {
    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }
}

/// The part of [`Counts`] every DES deployment reads the same way: the
/// engine and fabric registries, the two directions of the one link, and
/// both control endpoints (`ctrl[0]` is the sender's).
pub fn fabric_counts(
    eng: &Engine,
    fabric: &Fabric,
    a: NodeId,
    b: NodeId,
    ctrl: [&ControlEndpoint; 2],
) -> Counts {
    let reg = fabric.metrics();
    let fwd = fabric.link_stats(a, b).unwrap_or_default();
    let rev = fabric.link_stats(b, a).unwrap_or_default();
    let mut c = Counts::default();
    c[C::Events] = eng.metrics().counter_value("engine.events");
    c[C::LinkSent] = reg.counter_value("link.sent");
    c[C::LinkDropped] = reg.counter_value("link.dropped");
    c[C::FwdBytes] = fwd.bytes;
    c[C::FwdPkts] = fwd.sent;
    c[C::RevBytes] = rev.bytes;
    c[C::CtrlDatagrams] = ctrl.iter().map(|e| e.sent_count()).sum();
    c[C::CtrlDatagramsFwd] = ctrl[0].sent_count();
    c[C::CtrlFiltered] = [
        "ctrl.stale",
        "ctrl.duplicates",
        "ctrl.corrupt",
        "ctrl.malformed",
    ]
    .iter()
    .map(|n| reg.counter_value(n))
    .sum();
    c[C::FlowParked] = reg.counter_value("flow.parked");
    c[C::FlowInjected] = reg.counter_value("flow.injected");
    c[C::FlowUrgent] = reg.counter_value("flow.urgent");
    c
}

/// Fills `buf` with a seeded xorshift64 stream, eight bytes per step (the
/// testkit's byte-at-a-time `pattern` would dominate `setup_s` at 256 MiB).
pub fn fill_pattern(buf: &mut [u8], seed: u64) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&next().to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = next().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Writes the seeded source pattern for `[addr, addr+len)` into node
/// memory, one 1 MiB staging block at a time; returns its CRC32C so the
/// end of the run can prove the source was never mutated.
pub fn write_source(fabric: &Fabric, node: NodeId, addr: u64, len: u64, seed: u64) -> u32 {
    const BLOCK: u64 = 1 << 20;
    let mut staging = vec![0u8; BLOCK as usize];
    let mut digest = sdr_rdma::erasure::Crc32cHasher::new();
    let mut off = 0;
    while off < len {
        let n = BLOCK.min(len - off) as usize;
        fill_pattern(
            &mut staging[..n],
            seed ^ (off / BLOCK).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        digest.update(&staging[..n]);
        fabric.node_mut(node, |nd| nd.mem_mut().write(addr + off, &staging[..n]));
        off += n as u64;
    }
    digest.finalize()
}

/// CRC32C of a node-memory range.
pub fn digest(fabric: &Fabric, node: NodeId, addr: u64, len: u64) -> u32 {
    fabric.node(node, |n| {
        sdr_rdma::erasure::crc32c(n.mem().read(addr, len as usize))
    })
}

/// Overwrites a destination range. During setup this is the pre-touch (the
/// node arena is lazily zeroed, so the first write is what faults the
/// pages in); between iterations it is the scrub that keeps a stale copy
/// of the previous delivery from passing verification.
pub fn scrub(fabric: &Fabric, node: NodeId, addr: u64, len: u64, iter: u32) {
    let byte = 0xA0 | (iter as u8 & 0x0F);
    fabric.node_mut(node, |n| n.mem_mut().fill(addr, len as usize, byte));
}

/// True when `len` bytes at `dst` on node `b` equal `len` bytes at `src`
/// on node `a` — compared in place, no copies.
pub fn same_bytes(fabric: &Fabric, a: NodeId, src: u64, b: NodeId, dst: u64, len: u64) -> bool {
    fabric.node(a, |na| {
        fabric.node(b, |nb| {
            na.mem().read(src, len as usize) == nb.mem().read(dst, len as usize)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_seeded_and_handles_ragged_tails() {
        let mut a = vec![0u8; 37];
        let mut b = vec![0u8; 37];
        let mut c = vec![0u8; 37];
        fill_pattern(&mut a, 7);
        fill_pattern(&mut b, 7);
        fill_pattern(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().any(|&x| x != 0));
        // A longer buffer extends the same stream.
        let mut d = vec![0u8; 64];
        fill_pattern(&mut d, 7);
        assert_eq!(&d[..32], &a[..32]);
    }

    #[test]
    fn counts_delta_and_sum_are_inverse() {
        let mut a = Counts::default();
        a[C::Events] = 10;
        a[C::FwdBytes] = 100;
        a[C::RetxChunks] = 3;
        let mut b = a;
        b[C::Events] = 25;
        b[C::FwdBytes] = 180;
        b[C::AdaptProposals] = 1;
        let d = b.since(&a);
        assert_eq!(
            (
                d[C::Events],
                d[C::FwdBytes],
                d[C::RetxChunks],
                d[C::AdaptProposals]
            ),
            (15, 80, 0, 1)
        );
        assert_eq!(a.plus(&d), b);
    }
}
