//! The many-flow engine: one node driving thousands of concurrent
//! transfers over a shared control plane, a shared tick, and a fair
//! injection arbiter.
//!
//! Everything else in this crate runs *one* transfer per protocol object:
//! one tick loop, one control endpoint binding, one estimator warmed from
//! cold. That is the right shape for validating schemes against the
//! models, and the wrong shape for the paper's planetary-scale pitch — a
//! storage or inference front-end node serves **flows as a population**:
//! thousands live at once, most are short, and they share one wire. The
//! [`FlowManager`] is the population-scale runtime:
//!
//! * **Sharded slot/QP table** — flows hash over `shards` QP pairs per
//!   peer (`flow_id % shards`, computed identically on both ends), so
//!   admission pressure on one slot table never serializes the node and
//!   the per-QP order-based CTS matching stays shallow.
//! * **One control plane** — every flow's control traffic rides a single
//!   [`ControlEndpoint`], demultiplexed by the
//!   [`FLOW_XFER_BIT`]-tagged stamp `xfer`
//!   (the flow id). The stamp's replay filter is already
//!   keyed per `(peer, xfer)`, so each flow gets its own dedup window for
//!   free — and gives it back: when the last flow of an id with a peer is
//!   gone the manager [retires](ControlEndpoint::retire_stream) the
//!   stream, so the table tracks live flows, not history.
//! * **One shared tick** — a single recurring wheel timer serves *all*
//!   flows through a [`DueIndex`] (a min-heap of per-flow deadlines with
//!   lazy invalidation). A node with 10 000 parked flows wakes exactly
//!   when the earliest deadline is due, not 10 000 times per RTO. Most
//!   flows have no deadline most of the time: a deadline is a *silence*
//!   clock (an RTO, a handshake heal, one ACK repeat, the final-ACK
//!   linger), and what a flow does about *news* it does when the news
//!   arrives — a control datagram, or a chunk completing in one of its
//!   receive slots ([`SdrQp::set_chunk_hook`]). The control plane's cost
//!   scales with events, not with `flows × time`.
//! * **Fair injection** — senders never write to the wire directly; they
//!   enqueue chunk work items into a per-peer [`DrrArbiter`]
//!   (deficit-round-robin with per-flow weights) and a pacing pump drains
//!   it, keeping the link busy only a small horizon ahead of now
//!   ([`Fabric::tx_busy_until`]). Scheduling stays late-bound: an
//!   elephant's backlog waits in the arbiter where mice overtake it every
//!   round, not in a deep device queue where nothing can.
//! * **Warm starts** — a per-peer [`EstimatorRegistry`] outlives flows;
//!   short flows open under the scheme the *aggregate* traffic to that
//!   peer has justified (EC beyond the loss threshold, SR-NACK below),
//!   instead of each flow re-learning the channel from cold.
//!
//! ## Flow lifecycle
//!
//! ```text
//! sender                               receiver
//! open_flow → FlowOpen ─────────────▶ admit (slots free?) or park
//!   (retried until answered)           recv_post data [+ parity]
//!           ◀────────── FlowParked    (parked: stop re-asking)
//!           ◀───────────── FlowAck    (admitted: the receiver's recv seqs;
//! order stream starts by seq,          re-sent with the CTS, on a doubling
//! start on CTS, enqueue chunks         clock, until the first packet lands)
//! into the DRR arbiter
//!   pump: inject while wire <
//!   horizon ahead ───────────────▶    on a chunk completing: SrAck a
//!   ACK-driven repair, and the  ◀──    margin later, repeated once
//!   RTO for silence                    [+ Telemetry]; EC: NACK on its FTO
//! complete on FlowDone         ◀──    on the completing arrival: FlowDone,
//!   FlowFin ─────────────────────▶    slots freed, next parked open admitted;
//!                                      FlowFin cuts the FlowDone linger short
//! ```
//!
//! Every message of the handshake is covered against loss by whichever
//! end knows it is owed. The sender re-sends `FlowOpen` on a backed-off
//! retry deadline until it is *answered* — with `FlowAck` (duplicates get
//! the admission snapshot again) or `FlowParked` (so do they). A parked
//! open is then the receiver's move: the sender keeps only a slow liveness
//! probe, and the admission's `FlowAck` — like a lost CTS — is healed by
//! the receiver, which alone knows the admission happened, until the
//! flow's first packet shows the sender does too. From then on an ARQ
//! flow's receiver speaks only when an arrival gives it something to say
//! (see [`RxStep::next_step`] for why that cannot wedge); the final
//! `FlowDone` is linger-repeated until `FlowFin`.
//!
//! ## What lives here, and what does not
//!
//! This module owns what is genuinely population-scale: admission and
//! parking, per-shard stream-start ordering, DRR injection, the shared
//! tick, the population-scaled cadence *values*, and the
//! `FlowOpen/Parked/Ack/Fin/Done` handshake. It owns no protocol logic and
//! no send handles. A sender flow hosts the same [`SrTxCore`] that
//! [`SrSender`](crate::SrSender) runs (its `resend` sink is the urgent
//! lane instead of the stream) over the same [`StreamTx`]: the shard's
//! `starts` index says *whose* send the QP's next sequence is, the stream
//! opens it on credit, the pump injects ranges through it, and
//! `finish_tx` closes — ends and releases — it. A receiver flow is the same [`RxStep`]
//! over the same SR / EC receive policies that
//! [`RxDriver`](crate::runtime::RxDriver) steps, subscribed to its slots'
//! arrivals the same way — its timer is a due-index entry instead of a
//! private loop, moved by the step's own rule, with no heartbeat added.
//! EC flows run one submessage per flow (`k` = data chunks): the
//! standalone sender's `ParityStager` encodes the parity in place, striped
//! over the shared [`EncodePool`], when the parity stream starts; the
//! receiver decodes in place in node memory, and an
//! FTO NACK makes the sender selective-repeat the submessage's data chunks
//! through the SR core's overdue test.
//!
//! [`EncodePool`]: sdr_erasure::EncodePool
//! [`Fabric::tx_busy_until`]: sdr_sim::Fabric::tx_busy_until

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::rc::{Rc, Weak};

use sdr_core::{SdrConfig, SdrContext, SdrQp};
use sdr_sim::{
    Counter, Engine, EventKind, Fabric, FlightRecorder, Histogram, IntMap, NodeId, QpAddr, SimTime,
    TimerHandle,
};

use crate::ack::{CtrlMsg, SchemeSpec};
use crate::control::{ControlEndpoint, FLOW_XFER_BIT};
use crate::ec::{EcProtoConfig, EcRxScheme, ParityStager};
use crate::runtime::{backed_off, tick_loop, RxCommon, RxScheme, RxStep, StreamTx, Tick};
use crate::scheme::RxPolicy;
use crate::sr::{SrRxScheme, SrTrace, SrTxCore};
use crate::telemetry::{ChannelEstimator, EstimatorRegistry, TelemetryConfig, TelemetryCounters};

/// Work-item tag bit marking a parity-stream chunk (data chunks use the
/// plain index).
pub const PARITY_TAG: u32 = 1 << 31;

/// Give up opening a flow after this many unanswered `FlowOpen` rounds.
/// Only the short retry clock counts: an open the receiver acknowledged as
/// parked is queued, not unanswered, however long it waits.
const OPEN_RETRY_CAP: u32 = 64;

/// Exponent cap for the open-retry backoff (`open_retry << n`), and where
/// a parked open's liveness probe starts doubling from.
const OPEN_BACKOFF_CAP: u32 = 6;

/// A cumulative `Telemetry` report rides every n-th receiver step that
/// spoke.
const TELEMETRY_EVERY: u32 = 4;

/// Final-ACK linger repeats after a receive flow resolves.
const LINGER_ACKS: u32 = 8;

/// Warm loss estimate above which new flows open under EC.
const EC_LOSS_THRESHOLD: f64 = 2e-3;

/// The one ARQ scheme the manager hosts: every flow that is not EC runs it,
/// whatever ARQ spec the caller named.
const FLOW_ARQ: SchemeSpec = SchemeSpec::SrNack;

/// Parity overprovision factor:
/// `m ≈ ceil(chunks × chunk_loss × factor) + 1`.
const EC_PARITY_FACTOR: f64 = 3.0;

// ---------------------------------------------------------------------------
// Deficit-round-robin arbiter
// ---------------------------------------------------------------------------

/// One unit of injection work: a chunk of some flow's data or parity
/// stream. `tag` is the chunk index, with [`PARITY_TAG`] set for parity
/// chunks; `bytes` is the chunk's wire length (the last data chunk may be
/// short).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Chunk index (data), or `PARITY_TAG | index` (parity).
    pub tag: u32,
    /// Chunk length in bytes.
    pub bytes: u64,
}

struct FlowQueue {
    q: VecDeque<WorkItem>,
    backlog_bytes: u64,
    deficit: u64,
    weight: u64,
    queued: bool,
}

/// Deficit-round-robin injection arbiter with per-flow weights and
/// per-flow byte-accurate backlog accounting.
///
/// Flows [`register`](Self::register) once, [`enqueue`](Self::enqueue)
/// chunk work items as they become sendable (initial injection, RTO
/// expiry, NACK repair), and the pump [`poll`](Self::poll)s items out
/// under DRR: the head-of-ring flow serves items while its deficit
/// affords them; when it cannot afford its next item it earns
/// `quantum × weight` and rotates to the back. An elephant's multi-
/// megabyte backlog therefore advances at most one quantum per round past
/// any backlogged mouse — no starvation, bounded per-round unfairness
/// (the classic DRR bound: `quantum × weight + one item` per flow per
/// round).
///
/// Steady-state polls and enqueues allocate nothing: per-flow queues are
/// retained ring buffers, and the active ring reuses its capacity.
pub struct DrrArbiter {
    quantum: u64,
    flows: IntMap<u64, FlowQueue>,
    active: VecDeque<u64>,
    total_backlog: u64,
}

impl DrrArbiter {
    /// An empty arbiter granting `quantum` bytes per flow per round.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        DrrArbiter {
            quantum,
            flows: IntMap::default(),
            active: VecDeque::new(),
            total_backlog: 0,
        }
    }

    /// Registers flow `key` with the given weight (≥ 1: a weight-2 flow
    /// earns twice the quantum per round). Re-registering resets the
    /// flow's queue.
    pub fn register(&mut self, key: u64, weight: u64) {
        assert!(weight >= 1, "weight must be at least 1");
        let prev = self.flows.insert(
            key,
            FlowQueue {
                q: VecDeque::new(),
                backlog_bytes: 0,
                deficit: 0,
                weight,
                queued: false,
            },
        );
        if let Some(p) = prev {
            self.total_backlog -= p.backlog_bytes;
        }
    }

    /// Drops flow `key` and its backlog; returns the dropped byte count.
    /// Any stale active-ring entry is skipped lazily by `poll`.
    pub fn deregister(&mut self, key: u64) -> u64 {
        match self.flows.remove(&key) {
            Some(f) => {
                self.total_backlog -= f.backlog_bytes;
                f.backlog_bytes
            }
            None => 0,
        }
    }

    /// Queues one work item for flow `key` (FIFO per flow) and activates
    /// the flow in the service ring.
    pub fn enqueue(&mut self, key: u64, item: WorkItem) {
        let f = self.flows.get_mut(&key).expect("flow registered");
        f.q.push_back(item);
        f.backlog_bytes += item.bytes;
        self.total_backlog += item.bytes;
        if !f.queued {
            f.queued = true;
            self.active.push_back(key);
        }
    }

    /// The next item to inject under DRR, with its flow key. `None` when
    /// no flow has backlog.
    pub fn poll(&mut self) -> Option<(u64, WorkItem)> {
        loop {
            let key = *self.active.front()?;
            let Some(f) = self.flows.get_mut(&key) else {
                // Deregistered while active: drop the stale ring entry.
                self.active.pop_front();
                continue;
            };
            let Some(&head) = f.q.front() else {
                // Drained while at the head (emptied by a previous poll):
                // retire from the ring with no deficit carry-over.
                f.deficit = 0;
                f.queued = false;
                self.active.pop_front();
                continue;
            };
            if f.deficit >= head.bytes {
                f.deficit -= head.bytes;
                f.q.pop_front();
                f.backlog_bytes -= head.bytes;
                self.total_backlog -= head.bytes;
                if f.q.is_empty() {
                    f.deficit = 0;
                    f.queued = false;
                    self.active.pop_front();
                }
                return Some((key, head));
            }
            // Cannot afford the head item: earn one round's quantum and
            // rotate to the back of the ring.
            f.deficit += self.quantum * f.weight;
            self.active.pop_front();
            self.active.push_back(key);
        }
    }

    /// Bytes queued across all flows.
    pub fn total_backlog(&self) -> u64 {
        self.total_backlog
    }

    /// True when any flow has queued work.
    pub fn has_work(&self) -> bool {
        self.total_backlog > 0
    }
}

// ---------------------------------------------------------------------------
// Due-deadline index
// ---------------------------------------------------------------------------

/// Identifies a flow in the due index: sender flows by id, receiver flows
/// by `(peer, id)` (ids are only unique per *sender*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKey {
    /// A sender-side flow (locally assigned id).
    Tx(u64),
    /// A receiver-side flow (opened by `peer`).
    Rx(NodeId, u64),
}

/// Min-heap of `(deadline, stamp, flow)` entries driving the shared tick:
/// one recurring timer pops everything due and sleeps to the earliest
/// remainder, so a node with thousands of parked flows wakes once per
/// deadline, not once per flow per interval.
///
/// Entries are lazily invalidated: rescheduling a flow pushes a new entry
/// with a fresh stamp and leaves the old one to be skipped at pop time
/// (the flow records its live stamp). Pushes and pops reuse the heap's
/// capacity — the steady state allocates nothing.
#[derive(Default)]
pub struct DueIndex {
    heap: BinaryHeap<Reverse<(SimTime, u64, FlowKey)>>,
}

impl DueIndex {
    /// An empty index.
    pub fn new() -> Self {
        DueIndex::default()
    }

    /// Queues `(at, stamp, key)`.
    pub fn push(&mut self, at: SimTime, stamp: u64, key: FlowKey) {
        self.heap.push(Reverse((at, stamp, key)));
    }

    /// The earliest entry, without removing it.
    pub fn peek(&self) -> Option<(SimTime, u64, FlowKey)> {
        self.heap.peek().map(|Reverse(e)| *e)
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, FlowKey)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

// ---------------------------------------------------------------------------
// Configuration and reports
// ---------------------------------------------------------------------------

/// Tuning for a [`FlowManager`]: the QP shape, the shard count and the
/// link. Every cadence the manager runs at is derived from these (see
/// `Cadence`), so there is nothing else to keep consistent with them.
#[derive(Clone, Debug)]
pub struct FlowCfg {
    /// Per-shard SDR QP configuration (slot table depth, chunk size…).
    pub qp: SdrConfig,
    /// QP pairs per peer; flows hash over them by `flow_id % shards`.
    pub shards: usize,
    /// Link bandwidth toward peers (pacing and FTO computation).
    pub bandwidth_bps: f64,
    /// Nominal round-trip time (every cadence derives from it).
    pub rtt: SimTime,
}

impl FlowCfg {
    /// A four-shard configuration for the given QP shape and link.
    pub fn new(qp: SdrConfig, bandwidth_bps: f64, rtt: SimTime) -> Self {
        FlowCfg {
            qp,
            shards: 4,
            bandwidth_bps,
            rtt,
        }
    }
}

/// On-the-wire cost budgeted per control datagram, in bits: a couple
/// hundred bytes of ack/telemetry payload plus the per-packet link
/// header. Used to pace the control plane against the population size.
const CTRL_WIRE_BITS: f64 = 2048.0;

/// Fraction of link bandwidth the reverse control path may consume.
/// Acks, telemetry, CTS credits and final acks all share that path with
/// any reverse data traffic; letting per-flow polls run at a fixed
/// cadence saturates it once enough flows poll at once.
const CTRL_BUDGET_FRAC: f64 = 0.05;

/// Minimum per-flow control cadence that keeps `live` flows' poll
/// traffic within [`CTRL_BUDGET_FRAC`] of the link.
fn ctrl_pacing(cfg: &FlowCfg, live: usize) -> SimTime {
    SimTime::from_secs_f64(
        live.max(1) as f64 * CTRL_WIRE_BITS / (CTRL_BUDGET_FRAC * cfg.bandwidth_bps),
    )
}

/// The manager's base cadences, derived once from its [`FlowCfg`]. The
/// population-dependent stretch ([`ctrl_pacing`]) is applied on top at the
/// point of use; the protocol cores receive the results as arguments.
struct Cadence {
    /// How far ahead of now the pacer keeps the wire busy: four chunks of
    /// serialization.
    pace_horizon: SimTime,
    /// Receiver silence cadence (ACK repeat, handshake heal, linger),
    /// before the population's control pacing.
    ack_interval: SimTime,
    /// Sender per-chunk retransmission timeout (ARQ flows).
    rto: SimTime,
    /// `FlowOpen` retry base interval, before the population's control
    /// pacing is added (`Inner::tx_open_retry`); backed off exponentially.
    open_retry: SimTime,
}

impl Cadence {
    /// The RTO is floored by the full sent-to-acked pipeline, not just the
    /// RTT: a repair stamped when it was *queued* on the urgent lane sits
    /// up to a pacing horizon before the pump restamps it with its
    /// departure, then one way across, then — its first ACK lost — an ack
    /// interval until the repeat, then the ack's way back. On fat
    /// short-RTT links the horizon dominates the RTT, and an RTT-only RTO
    /// expires chunks that are merely queued — a retransmit storm that
    /// feeds on its own queueing.
    fn derive(cfg: &FlowCfg) -> Self {
        let rtt = cfg.rtt;
        let chunk_serialize =
            SimTime::from_secs_f64(cfg.qp.chunk_bytes as f64 * 8.0 / cfg.bandwidth_bps);
        let pace_horizon = SimTime(chunk_serialize.0.saturating_mul(4).max(1));
        let ack_interval = SimTime((rtt.0 / 4).max(1));
        let pipeline = pace_horizon.0 + rtt.0 + ack_interval.0;
        Cadence {
            pace_horizon,
            ack_interval,
            rto: SimTime(rtt.0.saturating_mul(3).max(pipeline.saturating_mul(2))),
            open_retry: SimTime(rtt.0.saturating_mul(2)),
        }
    }
}

/// Sender-side completion report for one flow.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// The flow id.
    pub id: u64,
    /// Peer node the flow was sent to.
    pub peer: NodeId,
    /// Message bytes.
    pub bytes: u64,
    /// Scheme the flow ran under.
    pub spec: SchemeSpec,
    /// When `open_flow` was called.
    pub opened_at: SimTime,
    /// When the final acknowledgment arrived (or the open was abandoned).
    pub done_at: SimTime,
    /// Chunk retransmissions (RTO + NACK repairs).
    pub retransmits: u64,
    /// Unanswered `FlowOpen` rounds beyond the first (the short retry
    /// clock). A parked open's liveness probes are not in here, nor in
    /// [`FlowStats::open_retries`]: the registry counts them, as
    /// `flow.open.probe`.
    pub open_retries: u32,
    /// True when the transfer fully completed; false when the open was
    /// abandoned after [`OPEN_RETRY_CAP`] unanswered rounds.
    pub delivered: bool,
}

/// Receiver-side completion notice for one flow.
#[derive(Clone, Copy, Debug)]
pub struct RxFlowDone {
    /// The sender-assigned flow id.
    pub id: u64,
    /// The sending node.
    pub peer: NodeId,
    /// Destination buffer address (as allocated at admission).
    pub addr: u64,
    /// Message bytes.
    pub bytes: u64,
    /// When the message fully resolved.
    pub at: SimTime,
    /// True when the flow resolved by erasure decode (EC only).
    pub decoded: bool,
}

/// Aggregate manager counters (diagnostics and benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowStats {
    /// Flows opened on this node (sender side).
    pub opened: u64,
    /// Sender flows completed (delivered or abandoned).
    pub tx_done: u64,
    /// Receiver flows resolved.
    pub rx_done: u64,
    /// Chunk retransmissions across all sender flows.
    pub retransmits: u64,
    /// Receive flows resolved by erasure decode.
    pub decoded: u64,
    /// Admissions parked for lack of slots (then admitted later).
    pub parked_opens: u64,
    /// `FlowOpen` retry datagrams sent on the short retry clock (the sum
    /// of [`FlowReport::open_retries`]; liveness probes excluded).
    pub open_retries: u64,
    /// Work items injected by the pump.
    pub injected: u64,
    /// Sender flows that fully delivered (`tx_done` minus abandoned
    /// opens). Maintained here once so benches read the aggregate instead
    /// of recomputing it by walking [`FlowReport`]s; `flow_many.rs`
    /// asserts the two bookkeepings agree.
    pub delivered: u64,
    /// Message bytes across delivered sender flows, ditto.
    pub bytes_delivered: u64,
}

// ---------------------------------------------------------------------------
// Flow state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxPhase {
    /// `FlowOpen` sent, awaiting `FlowAck`.
    Opening,
    /// Seqs assigned; stream starts queued behind CTS arrival.
    Starting,
    /// Streams open; chunks flow through the arbiter.
    Streaming,
}

struct TxFlow {
    peer: NodeId,
    peer_ctrl: QpAddr,
    src_addr: u64,
    bytes: u64,
    chunks: usize,
    spec: SchemeSpec,
    phase: TxPhase,
    /// The flow's sends on its shard's QP: the data stream, then (EC) the
    /// parity stream.
    stream: StreamTx,
    /// EC flows: the parity staging, taken at `open_flow` and encoded in
    /// place when the parity stream starts.
    parity: Option<ParityStager>,
    /// Initial work items still awaiting first injection; a chunk's
    /// clocks start when its injection leaves the wire, so the flow enters
    /// the due index only once this reaches zero.
    uninjected: usize,
    /// The SR sender protocol. EC flows host it too: their fallback is
    /// selective repeat through the same overdue test.
    sr: SrTxCore,
    est: Rc<RefCell<ChannelEstimator>>,
    last_telem: TelemetryCounters,
    opened_at: SimTime,
    open_retries: u32,
    /// `Some(n)` once the receiver said the open is parked: the short
    /// retry clock is off and `n` liveness probes have gone out.
    probes: Option<u32>,
    stamp: u64,
    done: Option<Box<dyn FnOnce(&mut Engine, FlowReport)>>,
}

struct RxFlow {
    peer_ctrl: QpAddr,
    shard: usize,
    bytes: u64,
    dst_addr: u64,
    /// The same receive step the per-transfer driver runs, stepped from
    /// the due index.
    rx: RxStep<RxPolicy>,
    /// Steps that said something so far (telemetry rides every
    /// [`TELEMETRY_EVERY`]-th).
    spoken: u32,
    /// The final acknowledgment, snapshotted at resolution for the linger
    /// repeats: `FlowDone` doubles as the closing telemetry report.
    final_ack: Option<CtrlMsg>,
    stamp: u64,
    /// The live due entry's deadline (`SimTime::MAX` when the flow has
    /// none), so an arrival only ever moves it earlier.
    due: SimTime,
}

struct PendingOpen {
    src: QpAddr,
    peer_node: NodeId,
    flow: u64,
    bytes: u64,
    spec: SchemeSpec,
}

struct Shard {
    qp: SdrQp,
    /// Stream starts pending CTS: the flow that owns each send seq the
    /// receiver announced (sends open strictly in seq order).
    starts: BTreeMap<u64, u64>,
    /// Opens parked for lack of receive slots on this shard.
    pending: VecDeque<PendingOpen>,
}

struct Port {
    peer_ctrl: QpAddr,
    shards: Vec<Shard>,
    arbiter: DrrArbiter,
    /// Retransmit fast-lane, drained ahead of the fair ring. Repairs are
    /// latency-critical — they pin recv slots and hold back completions —
    /// and queueing them behind a large population's fresh chunks lets
    /// the receiver re-NACK (and the sender re-claim) the same hole many
    /// times over before the first repair even reaches the wire. Volume
    /// is loss-proportional, so the bypass cannot starve the ring.
    urgent: VecDeque<(u64, WorkItem)>,
    pump_armed: bool,
}

/// Registry handles for the manager's hot paths, bound once at
/// construction (`flow.*` family in the fabric registry) plus the node's
/// flight recorder. Increments are lock-free and allocation-free; the
/// whole family is a no-op under the `sdr-trace` kill-switch.
struct FlowTrace {
    /// `flow.opened`: sender flows opened.
    opened: Counter,
    /// `flow.admitted`: receiver admissions granted (posts + FlowAck).
    admitted: Counter,
    /// `flow.parked`: opens parked for lack of receive slots.
    parked: Counter,
    /// `flow.drained`: parked opens later admitted.
    drained: Counter,
    /// `flow.injected`: work items injected by the DRR pump.
    injected: Counter,
    /// `flow.urgent`: repairs queued through the urgent fast lane.
    urgent: Counter,
    /// `flow.ack.news`: receive steps an arrival asked for that spoke.
    ack_news: Counter,
    /// `flow.ack.repeat`: receive steps that spoke with nothing new to say
    /// (the one repeat of a news ACK; an EC flow's clock-driven NACK).
    ack_repeat: Counter,
    /// `flow.heal.handshake`: `FlowAck`s re-sent (with the CTS) because no
    /// packet of an admitted flow has landed yet.
    heal_handshake: Counter,
    /// `flow.open.parked`: `FlowParked` datagrams sent.
    open_parked: Counter,
    /// `flow.open.probe`: liveness probes sent for opens known parked.
    open_probe: Counter,
    /// `flow.completion_us`: per-flow open→final-ACK time (delivered
    /// flows only), microseconds.
    completion_us: Histogram,
    /// `sr.*`: why the flows' SR cores resent, shared with every
    /// per-transfer SR sender on the fabric.
    sr: SrTrace,
    /// This node's flight recorder (slot park/drain events).
    recorder: FlightRecorder,
}

impl FlowTrace {
    fn new(fabric: &Fabric, node: NodeId) -> FlowTrace {
        let reg = fabric.metrics();
        FlowTrace {
            opened: reg.counter("flow.opened"),
            admitted: reg.counter("flow.admitted"),
            parked: reg.counter("flow.parked"),
            drained: reg.counter("flow.drained"),
            injected: reg.counter("flow.injected"),
            urgent: reg.counter("flow.urgent"),
            ack_news: reg.counter("flow.ack.news"),
            ack_repeat: reg.counter("flow.ack.repeat"),
            heal_handshake: reg.counter("flow.heal.handshake"),
            open_parked: reg.counter("flow.open.parked"),
            open_probe: reg.counter("flow.open.probe"),
            completion_us: reg.histogram("flow.completion_us"),
            sr: SrTrace::new(reg),
            recorder: fabric.recorder(node),
        }
    }
}

struct Inner {
    ports: IntMap<NodeId, Port>,
    tx_flows: IntMap<u64, TxFlow>,
    rx_flows: IntMap<(NodeId, u64), RxFlow>,
    /// `(peer, flow)` keys currently parked in some shard's pending queue.
    parked: HashSet<(NodeId, u64)>,
    due: DueIndex,
    next_flow: u64,
    next_stamp: u64,
    tick: Option<TimerHandle>,
    tick_next: SimTime,
    registry: EstimatorRegistry,
    finished_tx: Vec<(Box<dyn FnOnce(&mut Engine, FlowReport)>, FlowReport)>,
    finished_rx: Vec<RxFlowDone>,
    on_rx_done: Option<Box<dyn FnMut(&mut Engine, RxFlowDone)>>,
    rx_alloc: Option<Box<dyn FnMut(u64) -> u64>>,
    stats: FlowStats,
    trace: FlowTrace,
}

struct ManagerCore {
    fabric: Fabric,
    ctx: SdrContext,
    ep: Rc<ControlEndpoint>,
    node: NodeId,
    cfg: FlowCfg,
    cad: Cadence,
    inner: RefCell<Inner>,
}

impl ManagerCore {
    /// The EC protocol config a flow of `bytes` runs under `spec`: one
    /// submessage spanning the whole message (`k` = its chunks). `None`
    /// for ARQ specs and for shapes EC cannot carry (unaligned, `k` not
    /// the message's chunk count, or `k + m` past the GF(256) shard
    /// limit) — both ends apply the same test to the same `FlowOpen`.
    fn ec_proto(&self, spec: SchemeSpec, bytes: u64) -> Option<EcProtoConfig> {
        let chunk = self.cfg.qp.chunk_bytes;
        let chunks = self.cfg.qp.chunks_for(bytes) as usize;
        let (code, k, m) = spec.ec_shape()?;
        if k != chunks || m == 0 || chunks + m > 255 || !bytes.is_multiple_of(chunk) {
            return None;
        }
        // FTO: worst-case injection of data+parity plus two RTTs.
        let inj = SimTime::from_secs_f64(
            (chunks + m) as f64 * chunk as f64 * 8.0 / self.cfg.bandwidth_bps,
        );
        Some(EcProtoConfig {
            k,
            m,
            code,
            poll_interval: self.cad.ack_interval,
            fto: inj
                .saturating_add(self.cfg.rtt)
                .saturating_add(self.cfg.rtt),
            rtt: self.cfg.rtt,
            linger_acks: LINGER_ACKS,
        })
    }
}

/// The many-flow engine (see the module docs for the architecture).
pub struct FlowManager {
    core: Rc<ManagerCore>,
}

impl FlowManager {
    /// Creates a manager on `node`, taking over `ctrl`'s *flow* handler
    /// (the classic handler slot stays free for single-transfer
    /// protocols sharing the endpoint).
    pub fn new(fabric: &Fabric, node: NodeId, ctrl: Rc<ControlEndpoint>, cfg: FlowCfg) -> Self {
        assert!(cfg.shards >= 1, "at least one shard");
        // Registry entries untouched for a thousand RTTs are stale.
        let registry = EstimatorRegistry::new(
            TelemetryConfig::default(),
            SimTime(cfg.rtt.0.saturating_mul(1000)),
        );
        let core = Rc::new(ManagerCore {
            fabric: fabric.clone(),
            ctx: SdrContext::new(fabric, node),
            ep: ctrl,
            node,
            cad: Cadence::derive(&cfg),
            cfg,
            inner: RefCell::new(Inner {
                ports: IntMap::default(),
                tx_flows: IntMap::default(),
                rx_flows: IntMap::default(),
                parked: HashSet::new(),
                due: DueIndex::new(),
                next_flow: 1,
                next_stamp: 0,
                tick: None,
                tick_next: SimTime::MAX,
                registry,
                finished_tx: Vec::new(),
                finished_rx: Vec::new(),
                on_rx_done: None,
                rx_alloc: None,
                stats: FlowStats::default(),
                trace: FlowTrace::new(fabric, node),
            }),
        });
        // The endpoint is the core's own, so its handler reaches the core
        // through a `Weak`: a strong capture would close a core →
        // endpoint → handler → core cycle and keep the deployment alive.
        let weak = Rc::downgrade(&core);
        core.ep.set_flow_handler(move |eng, src, flow, msg| {
            if let Some(c) = weak.upgrade() {
                Self::on_ctrl(&c, eng, src, flow, msg);
            }
        });
        FlowManager { core }
    }

    /// This manager's node.
    pub fn node(&self) -> NodeId {
        self.core.node
    }

    /// Connects two managers: creates `shards` QP pairs between them and
    /// registers each as the other's port. Flows may then open in either
    /// direction.
    pub fn connect(a: &FlowManager, b: &FlowManager) {
        assert_eq!(
            a.core.cfg.shards, b.core.cfg.shards,
            "both ends must agree on the shard count"
        );
        let shards = a.core.cfg.shards;
        let mut qps_a = Vec::with_capacity(shards);
        let mut qps_b = Vec::with_capacity(shards);
        for _ in 0..shards {
            let qa = a.core.ctx.qp_create(a.core.cfg.qp).expect("valid config");
            let qb = b.core.ctx.qp_create(b.core.cfg.qp).expect("valid config");
            qa.connect(qb.info()).expect("shape matches");
            qb.connect(qa.info()).expect("shape matches");
            qps_a.push(qa);
            qps_b.push(qb);
        }
        a.add_port(b.core.node, b.core.ep.addr(), qps_a);
        b.add_port(a.core.node, a.core.ep.addr(), qps_b);
    }

    fn add_port(&self, peer: NodeId, peer_ctrl: QpAddr, qps: Vec<SdrQp>) {
        let core = &self.core;
        for (i, qp) in qps.iter().enumerate() {
            // The core owns the shard's QP, so the callback holds the
            // core weakly, as the flow handler does.
            let weak = Rc::downgrade(core);
            // CTS arrival may unblock the head of this shard's start
            // queue; each start can cascade into the next.
            qp.set_cts_callback(move |eng, _seq, _len| {
                let Some(c) = weak.upgrade() else { return };
                {
                    let mut inner = c.inner.borrow_mut();
                    inner.try_starts(&c, eng, peer, i);
                }
                Self::pump_kick(&c, eng, peer);
            });
        }
        let shards = qps
            .into_iter()
            .map(|qp| Shard {
                qp,
                starts: BTreeMap::new(),
                pending: VecDeque::new(),
            })
            .collect();
        self.core.inner.borrow_mut().ports.insert(
            peer,
            Port {
                peer_ctrl,
                shards,
                // DRR quantum: one chunk.
                arbiter: DrrArbiter::new(self.core.cfg.qp.chunk_bytes),
                urgent: VecDeque::new(),
                pump_armed: false,
            },
        );
    }

    /// Replaces the receive-buffer allocator (default: fresh
    /// [`SdrContext::alloc_buffer`] per admitted flow). A bench recycling
    /// completed buffers installs its pool here.
    pub fn set_rx_allocator(&self, f: impl FnMut(u64) -> u64 + 'static) {
        self.core.inner.borrow_mut().rx_alloc = Some(Box::new(f));
    }

    /// Installs the receiver-side completion callback, fired once per
    /// resolved incoming flow (before its ACK linger).
    pub fn on_rx_done(&self, f: impl FnMut(&mut Engine, RxFlowDone) + 'static) {
        self.core.inner.borrow_mut().on_rx_done = Some(Box::new(f));
    }

    /// Opens a flow of `bytes` from `src_addr` toward `peer`, choosing the
    /// scheme from the peer's registry estimate (EC beyond the loss
    /// threshold, SR-NACK otherwise). `done` fires exactly once with the
    /// completion report. Returns the flow id.
    pub fn open_flow(
        &self,
        eng: &mut Engine,
        peer: NodeId,
        src_addr: u64,
        bytes: u64,
        done: impl FnOnce(&mut Engine, FlowReport) + 'static,
    ) -> u64 {
        let spec = self.choose_spec(eng.now(), peer, bytes);
        self.open_flow_with_spec(eng, peer, src_addr, bytes, spec, done)
    }

    /// [`open_flow`](Self::open_flow) with an explicit scheme (tests and
    /// callers that know better than the registry).
    pub fn open_flow_with_spec(
        &self,
        eng: &mut Engine,
        peer: NodeId,
        src_addr: u64,
        bytes: u64,
        spec: SchemeSpec,
        done: impl FnOnce(&mut Engine, FlowReport) + 'static,
    ) -> u64 {
        assert!(bytes > 0, "empty flows are not a thing");
        let core = &self.core;
        let now = eng.now();
        let (id, peer_ctrl, first_deadline) = {
            let mut inner = core.inner.borrow_mut();
            let id = inner.next_flow;
            inner.next_flow += 1;
            let port = inner.ports.get(&peer).expect("peer connected");
            let peer_ctrl = port.peer_ctrl;
            let shard = (id % core.cfg.shards as u64) as usize;
            let chunk = core.cfg.qp.chunk_bytes;
            let chunks = core.cfg.qp.chunks_for(bytes) as usize;
            // EC flows run one submessage spanning the message.
            let spec = spec.with_k(chunks as u16);
            let (spec, parity) = match core.ec_proto(spec, bytes) {
                // The staging region is taken now; the parity is encoded
                // into it when the parity stream starts.
                Some(ec) => {
                    let stager = ParityStager::new(&core.ctx, src_addr, bytes, chunk, &ec);
                    (spec, Some(stager))
                }
                // Everything else runs as the one ARQ scheme the manager
                // hosts — another ARQ spec, or an EC shape it cannot carry
                // (unaligned, oversized) — and that is the spec `FlowOpen`
                // advertises and the report names.
                None => (FLOW_ARQ, None),
            };
            let sends = 1 + parity.is_some() as usize;
            let stream = StreamTx::new(&port.shards[shard].qp, sends);
            let est = inner.registry.checkout(peer, now);
            let mut sr = SrTxCore::new(chunks, inner.trace.sr.clone());
            sr.set_trace(inner.trace.recorder.clone(), id);
            let flow = TxFlow {
                peer,
                peer_ctrl,
                src_addr,
                bytes,
                chunks,
                spec,
                phase: TxPhase::Opening,
                stream,
                parity,
                uninjected: 0,
                sr,
                est,
                last_telem: TelemetryCounters::default(),
                opened_at: now,
                open_retries: 0,
                probes: None,
                stamp: 0,
                done: Some(Box::new(done)),
            };
            inner.tx_flows.insert(id, flow);
            inner.stats.opened += 1;
            inner.trace.opened.inc();
            let at = now.saturating_add(inner.tx_open_retry(core));
            inner.schedule(FlowKey::Tx(id), at);
            (id, peer_ctrl, at)
        };
        let spec = core.inner.borrow().tx_flows[&id].spec;
        core.ep
            .send_flow(eng, peer_ctrl, id, &CtrlMsg::FlowOpen { bytes, spec });
        Self::ensure_tick(core, eng, first_deadline);
        id
    }

    /// Scheme a fresh flow toward `peer` would open under right now.
    ///
    /// EC erasures are *chunks* (a chunk with any packet missing is an
    /// erasure), so the packet-loss estimate is first amplified to a
    /// chunk-loss probability before sizing parity.
    pub fn choose_spec(&self, now: SimTime, peer: NodeId, bytes: u64) -> SchemeSpec {
        let core = &self.core;
        let chunk = core.cfg.qp.chunk_bytes;
        let chunks = core.cfg.qp.chunks_for(bytes) as usize;
        let inner = core.inner.borrow();
        match inner.registry.estimate(peer, now) {
            Some((loss, _rtt))
                if loss > EC_LOSS_THRESHOLD && bytes.is_multiple_of(chunk) && chunks + 1 < 255 =>
            {
                let pkts_per_chunk = (chunk / core.cfg.qp.mtu_bytes).max(1) as f64;
                let chunk_loss = 1.0 - (1.0 - loss.min(1.0)).powf(pkts_per_chunk);
                let m = ((chunks as f64 * chunk_loss * EC_PARITY_FACTOR).ceil() as usize + 1)
                    .clamp(1, 255 - chunks);
                SchemeSpec::EcMds {
                    k: chunks as u16,
                    m: m as u16,
                }
            }
            _ => FLOW_ARQ,
        }
    }

    /// Confident `(loss, rtt)` toward `peer`, if the registry has one.
    pub fn registry_estimate(&self, now: SimTime, peer: NodeId) -> Option<(f64, SimTime)> {
        self.core.inner.borrow().registry.estimate(peer, now)
    }

    /// Ages out stale registry entries; returns how many were evicted.
    pub fn sweep_registry(&self, now: SimTime) -> usize {
        self.core.inner.borrow_mut().registry.sweep(now)
    }

    /// Live flows `(sender-side, receiver-side)`.
    pub fn live_flows(&self) -> (usize, usize) {
        let inner = self.core.inner.borrow();
        (inner.tx_flows.len(), inner.rx_flows.len())
    }

    /// Send contexts live across every shard QP ([`SdrQp::live_sends`]):
    /// zero once the sender flows have drained.
    pub fn live_sends(&self) -> usize {
        let inner = self.core.inner.borrow();
        let shards = inner.ports.values().flat_map(|p| &p.shards);
        shards.map(|sh| sh.qp.live_sends()).sum()
    }

    /// Opens parked for admission right now.
    pub fn parked_opens(&self) -> usize {
        self.core.inner.borrow().parked.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FlowStats {
        self.core.inner.borrow().stats
    }

    // -- control dispatch ---------------------------------------------------

    fn on_ctrl(core: &Rc<ManagerCore>, eng: &mut Engine, src: QpAddr, flow: u64, msg: CtrlMsg) {
        {
            let mut inner = core.inner.borrow_mut();
            match msg {
                // Sender → receiver.
                CtrlMsg::FlowOpen { bytes, spec } => {
                    inner.on_flow_open(core, eng, src, flow, bytes, spec);
                }
                CtrlMsg::FlowFin => inner.on_flow_fin(src, flow),
                // Receiver → sender.
                CtrlMsg::FlowAck {
                    data_seq,
                    parity_seq,
                } => inner.on_flow_ack(core, eng, flow, data_seq, parity_seq),
                CtrlMsg::FlowParked => inner.on_flow_parked(core, eng.now(), flow),
                ack @ CtrlMsg::SrAck { .. } => inner.on_sr_ack(core, eng, flow, &ack),
                CtrlMsg::FlowDone { seen, lost } => {
                    inner.on_flow_done(core, eng, flow, TelemetryCounters { seen, lost })
                }
                CtrlMsg::EcNack { failed } => inner.on_ec_nack(core, eng, flow, &failed),
                CtrlMsg::Telemetry { seen, lost } => {
                    inner.on_telemetry(flow, TelemetryCounters { seen, lost })
                }
                // Anything else is not flow traffic; drop it.
                _ => {}
            }
            // The datagram may have ended its flow, or have arrived for
            // one that is long gone (a linger repeat crossing our
            // `FlowFin`): either way the endpoint keeps no stream for it.
            inner.retire_idle(core, src, flow);
        }
        Self::settle(core, eng);
    }

    /// A posted slot of receive flow `(peer, id)` completed a chunk. When
    /// the flow's step calls that news, its due entry moves forward to the
    /// instant asked for — and is served here if that is now, so the
    /// arrival that completes a flow is the event that sends `FlowDone`,
    /// frees its slots and admits the next parked open. The hook names the
    /// flow, not the slot: one that outlived its flow finds nothing.
    fn on_chunk(
        weak: &Weak<ManagerCore>,
        eng: &mut Engine,
        peer: NodeId,
        id: u64,
        slot: usize,
        chunk: usize,
    ) {
        let Some(core) = weak.upgrade() else { return };
        let core = &core;
        {
            let mut inner = core.inner.borrow_mut();
            let now = eng.now();
            let Some(flow) = inner.rx_flows.get_mut(&(peer, id)) else {
                return;
            };
            match flow.rx.arrival(slot, chunk, now) {
                Some(at) if at < flow.due => inner.schedule(FlowKey::Rx(peer, id), at),
                _ => return,
            }
            inner.run_due(core, eng);
        }
        Self::settle(core, eng);
    }

    /// What every entry point owes once it has released `Inner`: the
    /// completion callbacks it queued, a kick for pumps it gave work, and
    /// the shared tick moved to cover deadlines it pushed.
    fn settle(core: &Rc<ManagerCore>, eng: &mut Engine) {
        Self::drain_finished(core, eng);
        Self::pump_kick_all(core, eng);
        Self::retick(core, eng);
    }

    // -- shared tick --------------------------------------------------------

    /// Arms (or pulls forward) the shared tick so it fires by `at`.
    fn ensure_tick(core: &Rc<ManagerCore>, eng: &mut Engine, at: SimTime) {
        let mut inner = core.inner.borrow_mut();
        match inner.tick {
            Some(h) => {
                if at < inner.tick_next {
                    let _ = eng.reschedule(h, at);
                    inner.tick_next = at;
                }
            }
            None => {
                let delay = SimTime(at.saturating_sub(eng.now()).0.max(1));
                let c = core.clone();
                let h = tick_loop(eng, delay, move |eng| Self::tick(&c, eng));
                inner.tick = Some(h);
                inner.tick_next = at;
            }
        }
    }

    fn tick(core: &Rc<ManagerCore>, eng: &mut Engine) -> Tick {
        {
            let mut inner = core.inner.borrow_mut();
            inner.run_due(core, eng);
        }
        Self::drain_finished(core, eng);
        Self::pump_kick_all(core, eng);
        // Decide the next wake *after* the drains: completion callbacks may
        // have opened new flows with earlier deadlines.
        let mut inner = core.inner.borrow_mut();
        match inner.due.peek() {
            Some((at, _, _)) => {
                let at = at.max(eng.now().saturating_add(SimTime(1)));
                inner.tick_next = at;
                Tick::Until(at)
            }
            None => {
                inner.tick = None;
                inner.tick_next = SimTime::MAX;
                Tick::Stop
            }
        }
    }

    /// Invokes queued completion callbacks outside any `Inner` borrow (a
    /// callback may re-enter the manager, e.g. to open the next flow).
    fn drain_finished(core: &Rc<ManagerCore>, eng: &mut Engine) {
        loop {
            let mut tx = {
                let mut inner = core.inner.borrow_mut();
                if inner.finished_tx.is_empty() && inner.finished_rx.is_empty() {
                    return;
                }
                std::mem::take(&mut inner.finished_tx)
            };
            for (cb, report) in tx.drain(..) {
                cb(eng, report);
            }
            let rx = {
                let mut inner = core.inner.borrow_mut();
                if inner.finished_tx.is_empty() {
                    // Hand the drained vec's capacity back for reuse.
                    inner.finished_tx = tx;
                }
                std::mem::take(&mut inner.finished_rx)
            };
            if !rx.is_empty() {
                let cb = core.inner.borrow_mut().on_rx_done.take();
                if let Some(mut f) = cb {
                    for d in rx {
                        f(eng, d);
                    }
                    let mut inner = core.inner.borrow_mut();
                    if inner.on_rx_done.is_none() {
                        inner.on_rx_done = Some(f);
                    }
                }
            }
        }
    }

    // -- pacing pump --------------------------------------------------------

    /// Ensures `peer`'s pump is armed when its arbiter has work.
    fn pump_kick(core: &Rc<ManagerCore>, eng: &mut Engine, peer: NodeId) {
        let arm = {
            let mut inner = core.inner.borrow_mut();
            match inner.ports.get_mut(&peer) {
                Some(p) if (p.arbiter.has_work() || !p.urgent.is_empty()) && !p.pump_armed => {
                    p.pump_armed = true;
                    true
                }
                _ => false,
            }
        };
        if arm {
            let c = core.clone();
            eng.schedule_recurring_in(SimTime(1), move |eng| {
                let next = Self::pump(&c, eng, peer);
                // A pump round may have pushed the first RTO deadline for a
                // freshly injected flow; make sure the shared tick covers it.
                Self::retick(&c, eng);
                next
            });
        }
    }

    fn pump_kick_all(core: &Rc<ManagerCore>, eng: &mut Engine) {
        // Small fixed scratch: the overwhelmingly common case is 1 peer.
        let peers: Vec<NodeId> = {
            let inner = core.inner.borrow();
            inner
                .ports
                .iter()
                .filter(|(_, p)| (p.arbiter.has_work() || !p.urgent.is_empty()) && !p.pump_armed)
                .map(|(n, _)| *n)
                .collect()
        };
        for peer in peers {
            Self::pump_kick(core, eng, peer);
        }
    }

    /// One pump round: inject arbiter work until the wire is busy a full
    /// horizon ahead, then sleep until it drains back under the horizon.
    fn pump(core: &Rc<ManagerCore>, eng: &mut Engine, peer: NodeId) -> Option<SimTime> {
        let mut inner = core.inner.borrow_mut();
        let inner = &mut *inner;
        let now = eng.now();
        let horizon = core.cad.pace_horizon;
        let rto = inner.tx_rto(core);
        let port = inner.ports.get_mut(&peer)?;
        loop {
            let busy = core
                .fabric
                .tx_busy_until(core.node, peer)
                .unwrap_or(now)
                .max(now);
            if busy >= now.saturating_add(horizon) {
                // Wire saturated a horizon ahead: resume when it drains.
                return Some(
                    busy.saturating_sub(horizon)
                        .max(now.saturating_add(SimTime(1))),
                );
            }
            // Repairs first, then the fair ring.
            let Some((fid, item)) = port.urgent.pop_front().or_else(|| port.arbiter.poll()) else {
                port.pump_armed = false;
                return None;
            };
            let Some(flow) = inner.tx_flows.get_mut(&fid) else {
                continue; // completed while queued
            };
            // Send 0 is the data stream, send 1 the parity stream.
            let parity = item.tag & PARITY_TAG != 0;
            let c = (item.tag & !PARITY_TAG) as u64;
            let off = c * core.cfg.qp.chunk_bytes;
            let sr = &mut flow.sr;
            let stamp = |_, at| {
                if !parity {
                    sr.record_sent(c as usize, at);
                }
            };
            if !flow
                .stream
                .inject(eng, parity as usize, off, item.bytes, stamp)
            {
                continue; // its stream is not open
            }
            inner.stats.injected += 1;
            inner.trace.injected.inc();
            if flow.uninjected > 0 {
                flow.uninjected -= 1;
                if flow.uninjected == 0 && !flow.spec.is_ec() {
                    // Initial injection done: the RTO clock starts.
                    // (`retick` after this pump round arms or pulls
                    // forward the shared tick to cover it.)
                    let at = eng.now().saturating_add(rto);
                    inner.next_stamp += 1;
                    let stamp = inner.next_stamp;
                    flow.stamp = stamp;
                    inner.due.push(at, stamp, FlowKey::Tx(fid));
                }
            }
        }
    }

    /// Re-arms (or pulls forward) the shared tick from the due index.
    /// `Inner` methods push deadlines while the manager borrow is held and
    /// cannot touch the engine-side timer themselves; every entry point
    /// that may have pushed one (control dispatch, pump rounds) calls this
    /// after releasing the borrow.
    fn retick(core: &Rc<ManagerCore>, eng: &mut Engine) {
        let at = {
            let inner = core.inner.borrow();
            match inner.due.peek() {
                Some((at, _, _)) if inner.tick.is_none() || at < inner.tick_next => Some(at),
                _ => None,
            }
        };
        if let Some(at) = at {
            Self::ensure_tick(core, eng, at.max(eng.now().saturating_add(SimTime(1))));
        }
    }
}

impl Inner {
    /// The receiver's silence cadence: the configured interval, stretched
    /// so the whole rx population stays inside the control budget. It
    /// spaces what a receive flow says *unprompted* — the one repeat of a
    /// news ACK, the handshake heal (doubling from here), the `FlowDone`
    /// linger — all per-flow timers whose aggregate rate is `flows /
    /// interval` on the reverse path that also carries the CTS credits and
    /// final acks that complete flows. News
    /// ACKs need no such budget: the data paces them, one per chunk at
    /// most.
    fn rx_ack_interval(&self, core: &ManagerCore) -> SimTime {
        core.cad
            .ack_interval
            .max(ctrl_pacing(&core.cfg, self.rx_flows.len()))
    }

    /// Sender RTO widened by a round trip of control pacing. A chunk's ACK
    /// leaves a margin after the chunk lands, but the cover for that ACK's
    /// loss is its repeat, one population-scaled
    /// [`rx_ack_interval`](Self::rx_ack_interval) later, and after the
    /// repeat the receiver is silent: this RTO *is* the silence clock. It
    /// must outlast the repeat (an unwidened one would resend chunks whose
    /// ACK is about to be said again, for every ACK the wire drops), and
    /// both ACKs may queue behind the population's handshake bursts.
    /// `flow.urgent` per dropped data packet is what it was under polled
    /// ACKs (42 / 43 against 40 / 44 over six `flows_1k` iterations).
    fn tx_rto(&self, core: &ManagerCore) -> SimTime {
        core.cad.rto.saturating_add(self.tx_widening(core))
    }

    /// A round trip of control pacing at the sender population's size:
    /// what every sender clock that waits for an answer is widened by.
    fn tx_widening(&self, core: &ManagerCore) -> SimTime {
        let pace = ctrl_pacing(&core.cfg, self.tx_flows.len());
        SimTime(pace.0.saturating_mul(2))
    }

    /// How long an ACK may lack a chunk after its latest copy was stamped
    /// before that counts as loss (the SR core's time evidence): half the
    /// widened RTO plus the pacing horizon a repair can sit on the urgent
    /// lane under its provisional stamp. A snapshot is as old as its ACK's
    /// way back, and the reverse path is shared with the population's
    /// handshake bursts (an admission wave is a credit and a `FlowAck` per
    /// flow): one population's worth of control pacing — what the RTO
    /// carries twice — is the allowance for that queueing. Kept, not
    /// tightened: ACKs now follow arrivals, so a chunk still missing when
    /// a later one lands is reported as a hole (order evidence) and one
    /// with nothing behind it is the RTO's; the time evidence is left the
    /// lost repair, where half an RTO is already the faster clock.
    fn tx_overdue(&self, core: &ManagerCore) -> SimTime {
        SimTime(self.tx_rto(core).0 / 2 + core.cad.pace_horizon.0)
    }

    /// `FlowOpen` retry base, widened like the RTO by a round trip of
    /// control pacing: a population opens in bursts, and an answer queued
    /// behind the burst's own opens, credits and `FlowAck`s is not a lost
    /// one. (Without it a lossless 1 000-flow burst re-asked 625 times.)
    fn tx_open_retry(&self, core: &ManagerCore) -> SimTime {
        core.cad.open_retry.saturating_add(self.tx_widening(core))
    }

    /// Pushes a fresh due entry for `key` (lazy-invalidating any older
    /// one) and records the stamp/deadline on the flow.
    fn schedule(&mut self, key: FlowKey, at: SimTime) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        match key {
            FlowKey::Tx(id) => {
                self.tx_flows.get_mut(&id).expect("live flow").stamp = stamp;
            }
            FlowKey::Rx(peer, id) => {
                let flow = self.rx_flows.get_mut(&(peer, id)).expect("live flow");
                (flow.stamp, flow.due) = (stamp, at);
            }
        }
        self.due.push(at, stamp, key);
    }

    /// Moves receive flow `(peer, id)`'s due entry to `at`; `None` leaves
    /// it without one — nothing steps it until an arrival asks.
    fn schedule_rx(&mut self, peer: NodeId, id: u64, at: Option<SimTime>) {
        match at {
            Some(at) => self.schedule(FlowKey::Rx(peer, id), at),
            None => {
                let flow = self.rx_flows.get_mut(&(peer, id)).expect("live flow");
                (flow.stamp, flow.due) = (u64::MAX, SimTime::MAX);
            }
        }
    }

    fn run_due(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine) {
        let now = eng.now();
        while let Some((at, stamp, key)) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            let live = match key {
                FlowKey::Tx(id) => self.tx_flows.get(&id).is_some_and(|f| f.stamp == stamp),
                FlowKey::Rx(p, id) => self
                    .rx_flows
                    .get(&(p, id))
                    .is_some_and(|f| f.stamp == stamp),
            };
            if !live {
                continue;
            }
            match key {
                FlowKey::Tx(id) => self.service_tx(core, eng, id),
                FlowKey::Rx(peer, id) => self.service_rx(core, eng, peer, id),
            }
        }
    }

    // -- sender side --------------------------------------------------------

    /// Runs `f` on sender flow `id`'s SR core with the peer's urgent lane
    /// as the `resend(chunk)` sink, and accounts the repairs it queued.
    fn repair<R>(
        &mut self,
        core: &ManagerCore,
        id: u64,
        now: SimTime,
        f: impl FnOnce(&mut SrTxCore, &mut dyn FnMut(usize) -> SimTime) -> R,
    ) -> R {
        let flow = self.tx_flows.get_mut(&id).expect("live flow");
        let port = self.ports.get_mut(&flow.peer).expect("port");
        let (chunk, bytes) = (core.cfg.qp.chunk_bytes, flow.bytes);
        let before = flow.sr.retransmitted();
        let r = f(&mut flow.sr, &mut |c| {
            // The last chunk may be short.
            let bytes = chunk.min(bytes - c as u64 * chunk);
            port.urgent.push_back((
                id,
                WorkItem {
                    tag: c as u32,
                    bytes,
                },
            ));
            // Provisional: the pump restamps the copy with its departure
            // when it reaches the device.
            now
        });
        let queued = flow.sr.retransmitted() - before;
        self.stats.retransmits += queued;
        self.trace.urgent.add(queued);
        r
    }

    fn service_tx(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, id: u64) {
        let now = eng.now();
        let (rto, open_retry) = (self.tx_rto(core), self.tx_open_retry(core));
        let flow = self.tx_flows.get_mut(&id).expect("validated");
        match flow.phase {
            TxPhase::Opening => {
                let backoff = match &mut flow.probes {
                    // Parked: the open is answered and queued, so this is a
                    // liveness probe — it finds a receiver that lost its
                    // state, in O(log wait) datagrams — and no evidence of
                    // failure, however many go out.
                    Some(sent) => {
                        *sent += 1;
                        self.trace.open_probe.inc();
                        OPEN_BACKOFF_CAP + *sent
                    }
                    None => {
                        flow.open_retries += 1;
                        if flow.open_retries > OPEN_RETRY_CAP {
                            self.finish_tx(core, eng, id, false);
                            return;
                        }
                        self.stats.open_retries += 1;
                        flow.open_retries.min(OPEN_BACKOFF_CAP)
                    }
                };
                let (dst, bytes, spec) = (flow.peer_ctrl, flow.bytes, flow.spec);
                core.ep
                    .send_flow(eng, dst, id, &CtrlMsg::FlowOpen { bytes, spec });
                self.schedule(
                    FlowKey::Tx(id),
                    now.saturating_add(backed_off(open_retry, backoff)),
                );
            }
            // A lost CTS heals from the receiver side; nothing to do.
            TxPhase::Starting => {}
            TxPhase::Streaming => {
                if flow.spec.is_ec() {
                    return; // EC repair is NACK-driven
                }
                let next = self.repair(core, id, now, |sr, resend| sr.on_tick(now, rto, resend));
                if let Some(at) = next {
                    self.schedule(FlowKey::Tx(id), at.max(now.saturating_add(SimTime(1))));
                }
            }
        }
    }

    /// The receiver queued our open: stop the short retry clock. From
    /// here the next move is the receiver's (it heals its own `FlowAck`);
    /// what stays armed is the liveness probe, doubling from the retry
    /// clock's cap. An answer to a probe changes nothing — its clock is
    /// already running.
    fn on_flow_parked(&mut self, core: &ManagerCore, now: SimTime, id: u64) {
        let first_probe = backed_off(self.tx_open_retry(core), OPEN_BACKOFF_CAP);
        let Some(flow) = self.tx_flows.get_mut(&id) else {
            return;
        };
        if flow.phase == TxPhase::Opening && flow.probes.is_none() {
            flow.probes = Some(0);
            self.schedule(FlowKey::Tx(id), now.saturating_add(first_probe));
        }
    }

    fn on_flow_ack(
        &mut self,
        core: &Rc<ManagerCore>,
        eng: &mut Engine,
        id: u64,
        data_seq: u64,
        parity_seq: u64,
    ) {
        let Some(flow) = self.tx_flows.get_mut(&id) else {
            return; // duplicate ack after completion
        };
        if flow.phase != TxPhase::Opening {
            return; // duplicate ack (open retry crossed the first ack)
        }
        flow.phase = TxPhase::Starting;
        // Park the deadline: open retries stop, CTS healing is the
        // receiver's job from here.
        flow.stamp = u64::MAX;
        let peer = flow.peer;
        let shard_idx = (id % core.cfg.shards as u64) as usize;
        let has_parity = flow.parity.is_some();
        let port = self.ports.get_mut(&peer).expect("port");
        port.arbiter.register(id, 1);
        let shard = &mut port.shards[shard_idx];
        shard.starts.insert(data_seq, id);
        if has_parity {
            // The receiver posts data then parity, so the flow's sends open
            // in that order.
            debug_assert!(data_seq < parity_seq && parity_seq != u64::MAX);
            shard.starts.insert(parity_seq, id);
        }
        self.try_starts(core, eng, peer, shard_idx);
    }

    /// Opens every start at the head of the shard's seq-ordered queue
    /// whose CTS credit has arrived, and floods its chunks into the
    /// arbiter. Starts strictly in seq order: the flow that owns the QP's
    /// next send seq opens its next send, or nobody does.
    fn try_starts(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, peer: NodeId, shard: usize) {
        let chunk = core.cfg.qp.chunk_bytes;
        let Some(port) = self.ports.get_mut(&peer) else {
            return;
        };
        loop {
            let sh = &mut port.shards[shard];
            let seq = sh.qp.next_send_seq();
            let Some(&fid) = sh.starts.get(&seq) else {
                break;
            };
            let flow = self.tx_flows.get_mut(&fid).expect("started flow is live");
            let Some(send) = flow.stream.ready() else {
                break; // the credit has not landed
            };
            let parity = send == 1;
            let (addr, len) = if parity {
                // Encode the parity into the staging taken at `open_flow`.
                flow.parity.as_mut().expect("ec flow").staged(0)
            } else {
                (flow.src_addr, flow.bytes)
            };
            flow.stream.open(eng, addr, len);
            sh.starts.remove(&seq);
            if parity {
                for c in 0..(len / chunk) as usize {
                    port.arbiter.enqueue(
                        fid,
                        WorkItem {
                            tag: PARITY_TAG | c as u32,
                            bytes: chunk,
                        },
                    );
                    flow.uninjected += 1;
                }
            } else {
                for c in 0..flow.chunks {
                    let off = c as u64 * chunk;
                    port.arbiter.enqueue(
                        fid,
                        WorkItem {
                            tag: c as u32,
                            bytes: chunk.min(flow.bytes - off),
                        },
                    );
                    flow.uninjected += 1;
                }
                // Streaming begins once the data stream is open (a parity
                // stream may still be queued behind other flows' starts).
                flow.phase = TxPhase::Streaming;
            }
        }
    }

    /// One `SrAck` for sender flow `id`: the SR core applies it; what is
    /// population-scale here is the inputs — the RTO widened by control
    /// pacing, the overdue age of [`tx_overdue`](Self::tx_overdue), ACKs
    /// driving repair only once the first pass is fully injected (until
    /// then unsent chunks carry no stamp) — and the resend sink, the
    /// urgent lane.
    fn on_sr_ack(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, id: u64, ack: &CtrlMsg) {
        let now = eng.now();
        let (rto, overdue) = (self.tx_rto(core), self.tx_overdue(core));
        let Some(flow) = self.tx_flows.get_mut(&id) else {
            return; // late ack after completion
        };
        if flow.phase != TxPhase::Streaming {
            return;
        }
        let overdue = (flow.uninjected == 0).then_some(overdue);
        let est = flow.est.clone();
        let p = self.repair(core, id, now, |sr, resend| {
            sr.on_ctrl(now, ack, rto, overdue, resend)
        });
        if let Some(s) = p.ack_rtt {
            est.borrow_mut().observe_rtt(s);
        }
        if p.complete {
            self.finish_tx(core, eng, id, true);
        } else if let Some(at) = p.rearm {
            self.schedule(FlowKey::Tx(id), at);
        }
    }

    /// Final acknowledgment: absorb the receiver's closing first-pass
    /// counters — per-poll telemetry stops at resolution, so this is the
    /// only way the observation's tail reaches the shared estimator —
    /// then complete the flow.
    fn on_flow_done(
        &mut self,
        core: &Rc<ManagerCore>,
        eng: &mut Engine,
        id: u64,
        report: TelemetryCounters,
    ) {
        if self
            .tx_flows
            .get(&id)
            .is_some_and(|f| f.phase == TxPhase::Streaming)
        {
            self.on_telemetry(id, report);
            self.finish_tx(core, eng, id, true);
        }
    }

    /// Flow-EC fallback (§4.1.2): the flow's one submessage failed to
    /// resolve by the FTO, so selective-repeat its data chunks — through
    /// the SR core's overdue test, which also absorbs NACK storms.
    fn on_ec_nack(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, id: u64, failed: &[u32]) {
        let now = eng.now();
        let overdue = self.tx_overdue(core);
        let Some(flow) = self.tx_flows.get_mut(&id) else {
            return;
        };
        if flow.phase != TxPhase::Streaming || flow.uninjected > 0 || !failed.contains(&0) {
            return;
        }
        let chunks = 0..flow.chunks as u32;
        self.repair(core, id, now, |sr, resend| {
            sr.claim(now, overdue, chunks, resend)
        });
    }

    /// Per-flow cumulative report → delta, then into the *shared* per-peer
    /// estimator (its own absorb would conflate many flows' counters).
    fn on_telemetry(&mut self, id: u64, report: TelemetryCounters) {
        let Some(flow) = self.tx_flows.get_mut(&id) else {
            return;
        };
        if let Some((seen, lost)) = flow.last_telem.advance(report) {
            flow.est.borrow_mut().observe_packets(seen, lost);
        }
    }

    /// Retires the control endpoint's replay stream for flow `id` with
    /// the peer at `peer_ctrl`, unless a flow of that id is still live
    /// with that peer in either direction (ids are per manager, so our
    /// flow `id` to a peer and the peer's flow `id` to us share a stream).
    fn retire_idle(&self, core: &ManagerCore, peer_ctrl: QpAddr, id: u64) {
        let key = (peer_ctrl.node, id);
        let live = self
            .tx_flows
            .get(&id)
            .is_some_and(|f| f.peer_ctrl == peer_ctrl)
            || self.rx_flows.contains_key(&key)
            || self.parked.contains(&key);
        if !live {
            core.ep.retire_stream(peer_ctrl, FLOW_XFER_BIT | id);
        }
    }

    fn finish_tx(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, id: u64, delivered: bool) {
        let mut flow = self.tx_flows.remove(&id).expect("live flow");
        self.retire_idle(core, flow.peer_ctrl, id);
        if let Some(port) = self.ports.get_mut(&flow.peer) {
            port.arbiter.deregister(id);
        }
        flow.stream.close();
        if let Some(stager) = &mut flow.parity {
            stager.release();
        }
        if delivered {
            // Cut the receiver's ACK linger short (best-effort, once).
            core.ep
                .send_flow(eng, flow.peer_ctrl, id, &CtrlMsg::FlowFin);
        }
        self.finished_tx.push((
            flow.done.take().expect("reported once"),
            FlowReport {
                id,
                peer: flow.peer,
                bytes: flow.bytes,
                spec: flow.spec,
                opened_at: flow.opened_at,
                done_at: eng.now(),
                retransmits: flow.sr.retransmitted(),
                open_retries: flow.open_retries,
                delivered,
            },
        ));
        self.stats.tx_done += 1;
        if delivered {
            self.stats.delivered += 1;
            self.stats.bytes_delivered += flow.bytes;
            let us = eng.now().saturating_sub(flow.opened_at).as_picos() / 1_000_000;
            self.trace.completion_us.record(us);
        }
    }

    // -- receiver side ------------------------------------------------------

    fn on_flow_open(
        &mut self,
        core: &Rc<ManagerCore>,
        eng: &mut Engine,
        src: QpAddr,
        id: u64,
        bytes: u64,
        spec: SchemeSpec,
    ) {
        let peer_node = src.node;
        if let Some(flow) = self.rx_flows.get(&(peer_node, id)) {
            // Duplicate open (our FlowAck was lost): re-send the snapshot.
            core.ep.send_flow(eng, src, id, &flow_ack(flow.rx.common()));
            return;
        }
        if self.parked.contains(&(peer_node, id)) {
            // Still queued: say so again (the first answer was lost, or
            // this is the sender's liveness probe).
            self.send_parked(core, eng, src, id);
            return;
        }
        let open = PendingOpen {
            src,
            peer_node,
            flow: id,
            bytes,
            spec,
        };
        if !self.try_admit(core, eng, &open) {
            let shard = (id % core.cfg.shards as u64) as usize;
            if let Some(port) = self.ports.get_mut(&peer_node) {
                port.shards[shard].pending.push_back(open);
                self.parked.insert((peer_node, id));
                self.stats.parked_opens += 1;
                self.trace.parked.inc();
                self.trace.recorder.record(
                    eng.now().as_picos(),
                    EventKind::SlotPark,
                    id,
                    shard as u64,
                );
                self.send_parked(core, eng, src, id);
            }
        }
    }

    fn send_parked(&self, core: &ManagerCore, eng: &mut Engine, dst: QpAddr, id: u64) {
        core.ep.send_flow(eng, dst, id, &CtrlMsg::FlowParked);
        self.trace.open_parked.inc();
    }

    /// Attempts to admit one open: posts the receive buffers, subscribes
    /// the flow to their arrivals, answers with the admission snapshot and
    /// starts the handshake-heal clock. `false` when the shard's slot
    /// table cannot take the posts.
    fn try_admit(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, open: &PendingOpen) -> bool {
        let now = eng.now();
        let shard_idx = (open.flow % core.cfg.shards as u64) as usize;
        let ec = core.ec_proto(open.spec, open.bytes);
        let needed = if ec.is_some() { 2 } else { 1 };
        let Some(port) = self.ports.get_mut(&open.peer_node) else {
            return false; // no port to that peer (mis-addressed open)
        };
        let qp = &port.shards[shard_idx].qp;
        if !qp.can_recv_post(needed) {
            return false;
        }
        let dst_addr = match &mut self.rx_alloc {
            Some(f) => f(open.bytes),
            None => core.ctx.alloc_buffer(open.bytes),
        };
        // The same receive policies the per-transfer receivers run, over
        // this flow's freshly posted slot(s).
        let mut common = RxCommon::new(qp);
        let est = self.registry.checkout(open.peer_node, now);
        let scheme = match ec {
            Some(ec) => {
                let (ctx, bytes) = (&core.ctx, open.bytes);
                RxPolicy::Ec(Box::new(EcRxScheme::post(
                    eng,
                    &mut common,
                    ctx,
                    dst_addr,
                    bytes,
                    &ec,
                )))
            }
            None => {
                common.post(eng, dst_addr, open.bytes);
                let chunks = core.cfg.qp.chunks_for(open.bytes) as usize;
                let (rtt, iv) = (core.cfg.rtt, core.cad.ack_interval);
                RxPolicy::Sr(SrRxScheme::new(chunks, true, rtt, iv))
            }
        };
        common.bind_estimator(est);
        let (peer, id, weak) = (open.peer_node, open.flow, Rc::downgrade(core));
        common.subscribe(move |eng, slot, chunk| {
            FlowManager::on_chunk(&weak, eng, peer, id, slot, chunk)
        });
        let mut rx = RxStep::new(common, scheme, LINGER_ACKS);
        let ack = flow_ack(rx.common());
        let iv = self.rx_ack_interval(core);
        let first_step = rx.next_step(now, iv);
        let flow = RxFlow {
            peer_ctrl: open.src,
            shard: shard_idx,
            bytes: open.bytes,
            dst_addr,
            rx,
            spoken: 0,
            final_ack: None,
            stamp: 0,
            due: SimTime::MAX,
        };
        self.rx_flows.insert((peer, id), flow);
        self.schedule_rx(peer, id, first_step);
        core.ep.send_flow(eng, open.src, open.flow, &ack);
        self.trace.admitted.inc();
        true
    }

    /// Admits as many of the shard's parked opens as now fit (called when
    /// a resolve frees slots).
    fn admit_pending(
        &mut self,
        core: &Rc<ManagerCore>,
        eng: &mut Engine,
        peer: NodeId,
        shard: usize,
    ) {
        loop {
            let Some(open) = self
                .ports
                .get_mut(&peer)
                .and_then(|p| p.shards[shard].pending.pop_front())
            else {
                return;
            };
            if self.try_admit(core, eng, &open) {
                self.parked.remove(&(open.peer_node, open.flow));
                self.trace.drained.inc();
                self.trace.recorder.record(
                    eng.now().as_picos(),
                    EventKind::SlotDrain,
                    open.flow,
                    shard as u64,
                );
            } else {
                // Still no room: park it back at the front and stop.
                self.ports.get_mut(&peer).expect("port").shards[shard]
                    .pending
                    .push_front(open);
                return;
            }
        }
    }

    /// One due receive flow: run the shared receive step with the
    /// flow-stamped endpoint as its sink, then put the flow's due entry
    /// where the step's own rule says ([`RxStep::next_step`], at the
    /// population-scaled interval) — which for an ARQ flow that has said
    /// its news and repeated it is nowhere. Flow-only behaviour wraps it:
    /// while no packet has landed the admission's `FlowAck` is healed
    /// along with the CTS; a cumulative `Telemetry` report rides every few
    /// steps that spoke; slots are the admission currency, so they are
    /// released at resolution — the completing arrival's own step — rather
    /// than after the linger; and the final ACK is `FlowDone` (closing
    /// telemetry included).
    fn service_rx(&mut self, core: &Rc<ManagerCore>, eng: &mut Engine, peer: NodeId, id: u64) {
        let iv = self.rx_ack_interval(core);
        let now = eng.now();
        let key = (peer, id);
        let Some(flow) = self.rx_flows.get_mut(&key) else {
            return;
        };
        let dst = flow.peer_ctrl;
        let spoke = Cell::new(false);
        let mut send = |eng: &mut Engine, msg: &CtrlMsg| {
            spoke.set(true);
            core.ep.send_flow(eng, dst, id, msg)
        };
        let first = flow.rx.completed_at().is_none();
        if !flow.rx.poll(eng, &mut send) {
            if spoke.get() {
                flow.spoken += 1;
                if flow.spoken.is_multiple_of(TELEMETRY_EVERY) {
                    let TelemetryCounters { seen, lost } = flow.rx.common().counters();
                    send(eng, &CtrlMsg::Telemetry { seen, lost });
                }
                if flow.rx.on_news() {
                    self.trace.ack_news.inc();
                } else {
                    self.trace.ack_repeat.inc();
                }
            }
            if !flow.rx.common().observed() {
                // Only this end knows the admission happened: until data
                // shows the sender does too, re-send it with the credit.
                send(eng, &flow_ack(flow.rx.common()));
                self.trace.heal_handshake.inc();
            }
            let next = flow.rx.next_step(now, iv);
            self.schedule_rx(peer, id, next);
            return;
        }
        if first {
            // The message is fully present: free the slots (admission
            // capacity), snapshot the final ACK for the linger, notify.
            flow.rx.release(eng);
            let TelemetryCounters { seen, lost } = flow.rx.common().counters();
            flow.final_ack = Some(CtrlMsg::FlowDone { seen, lost });
            let decoded = flow.rx.scheme().done_payload();
            self.stats.rx_done += 1;
            self.stats.decoded += u64::from(decoded);
            self.finished_rx.push(RxFlowDone {
                id,
                peer,
                addr: flow.dst_addr,
                bytes: flow.bytes,
                at: now,
                decoded,
            });
        }
        // Repeat the final ACK so a lost one cannot wedge the sender;
        // FlowFin (or the countdown) retires the flow.
        send(eng, flow.final_ack.as_ref().expect("resolved"));
        let shard = flow.shard;
        match flow.rx.linger(eng) {
            Tick::Stop => {
                self.rx_flows.remove(&key);
                self.retire_idle(core, dst, id);
            }
            _ => self.schedule(FlowKey::Rx(peer, id), now.saturating_add(iv)),
        }
        if first {
            // Freed slots: admit whoever was parked on this shard.
            self.admit_pending(core, eng, peer, shard);
        }
    }

    fn on_flow_fin(&mut self, src: QpAddr, id: u64) {
        // The sender is satisfied: no more final-ACK repeats needed.
        if let Some(f) = self.rx_flows.get(&(src.node, id)) {
            if f.rx.completed_at().is_some() {
                self.rx_flows.remove(&(src.node, id));
            }
        }
    }
}

/// The admission snapshot: the receive seqs the flow's slots consumed
/// (`u64::MAX` for the parity seq of an ARQ flow).
fn flow_ack(rx: &RxCommon) -> CtrlMsg {
    CtrlMsg::FlowAck {
        data_seq: rx.slot_seq(0),
        parity_seq: if rx.slots() > 1 {
            rx.slot_seq(1)
        } else {
            u64::MAX
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn item(tag: u32, bytes: u64) -> WorkItem {
        WorkItem { tag, bytes }
    }

    #[test]
    fn drr_is_fifo_per_flow_and_byte_exact() {
        let mut arb = DrrArbiter::new(1024);
        arb.register(1, 1);
        arb.register(2, 1);
        for c in 0..4 {
            arb.enqueue(1, item(c, 1024));
            arb.enqueue(2, item(c, 1024));
        }
        assert_eq!(arb.total_backlog(), 8 * 1024);
        let mut got: HashMap<u64, Vec<u32>> = HashMap::new();
        while let Some((k, it)) = arb.poll() {
            got.entry(k).or_default().push(it.tag);
        }
        assert_eq!(got[&1], vec![0, 1, 2, 3]);
        assert_eq!(got[&2], vec![0, 1, 2, 3]);
        assert_eq!(arb.total_backlog(), 0);
        assert!(!arb.has_work());
    }

    #[test]
    fn drr_elephant_cannot_starve_mice() {
        // One elephant with a deep backlog, nine mice with one item each:
        // every mouse is served within the first rotation.
        let mut arb = DrrArbiter::new(1024);
        arb.register(0, 1);
        for c in 0..1000 {
            arb.enqueue(0, item(c, 1024));
        }
        for f in 1..10 {
            arb.register(f, 1);
            arb.enqueue(f, item(0, 1024));
        }
        let mut polls_to_serve: HashMap<u64, usize> = HashMap::new();
        for n in 0..1009 {
            let (k, _) = arb.poll().expect("work remains");
            polls_to_serve.entry(k).or_insert(n);
        }
        for f in 1..10 {
            assert!(
                polls_to_serve[&f] < 20,
                "mouse {f} first served at poll {}",
                polls_to_serve[&f]
            );
        }
    }

    #[test]
    fn drr_weight_doubles_share() {
        // Quantum = item size: a weight-2 flow earns exactly two items per
        // round against a weight-1 flow's one.
        let mut arb = DrrArbiter::new(100);
        arb.register(1, 1);
        arb.register(2, 2);
        for c in 0..300 {
            arb.enqueue(1, item(c, 100));
            arb.enqueue(2, item(c, 100));
        }
        let mut served = [0u64; 3];
        for _ in 0..90 {
            let (k, _) = arb.poll().expect("backlogged");
            served[k as usize] += 1;
        }
        assert_eq!(served[1] * 2, served[2]);
    }

    #[test]
    fn drr_deregister_drops_backlog_and_stale_ring_entries() {
        let mut arb = DrrArbiter::new(64);
        arb.register(1, 1);
        arb.register(2, 1);
        arb.enqueue(1, item(0, 64));
        arb.enqueue(2, item(0, 64));
        assert_eq!(arb.deregister(1), 64);
        let (k, _) = arb.poll().expect("flow 2 remains");
        assert_eq!(k, 2);
        assert_eq!(arb.poll(), None);
        assert_eq!(arb.deregister(1), 0);
    }

    #[test]
    fn due_index_pops_in_deadline_order() {
        let mut due = DueIndex::new();
        due.push(SimTime(30), 3, FlowKey::Tx(3));
        due.push(SimTime(10), 1, FlowKey::Tx(1));
        due.push(SimTime(20), 2, FlowKey::Rx(NodeId(7), 2));
        assert_eq!(due.peek(), Some((SimTime(10), 1, FlowKey::Tx(1))));
        assert_eq!(due.pop(), Some((SimTime(10), 1, FlowKey::Tx(1))));
        assert_eq!(due.pop(), Some((SimTime(20), 2, FlowKey::Rx(NodeId(7), 2))));
        assert_eq!(due.pop(), Some((SimTime(30), 3, FlowKey::Tx(3))));
        assert_eq!(due.pop(), None);
    }

    #[derive(Clone, Debug)]
    struct FlowProgram {
        weight: u64,
        sizes: Vec<u64>,
    }

    fn flow_program() -> impl Strategy<Value = FlowProgram> {
        (1u64..4, proptest::collection::vec(1u64..5000, 1..30))
            .prop_map(|(weight, sizes)| FlowProgram { weight, sizes })
    }

    proptest! {
        /// Randomized flow populations: every enqueued item is delivered
        /// exactly once, in per-flow FIFO order, and no backlogged flow
        /// waits longer than the DRR service bound for its first item.
        #[test]
        fn drr_delivery_is_byte_exact_and_starvation_free(
            programs in proptest::collection::vec(flow_program(), 1..12)
        ) {
            let quantum = 1024u64;
            let mut arb = DrrArbiter::new(quantum);
            let mut expect: HashMap<u64, VecDeque<(u32, u64)>> = HashMap::new();
            let mut total_items = 0usize;
            for (f, p) in programs.iter().enumerate() {
                let key = f as u64;
                arb.register(key, p.weight);
                let exp = expect.entry(key).or_default();
                for (c, &s) in p.sizes.iter().enumerate() {
                    arb.enqueue(key, item(c as u32, s));
                    exp.push_back((c as u32, s));
                    total_items += 1;
                }
            }
            // Service bound: every poll either delivers an item (at most
            // total_items times) or rotates the ring, and each full ring
            // rotation grants every flow one quantum × weight — so a flow
            // whose head item is `s` bytes is first served within
            // total_items + n_flows × ceil(s / quantum) polls.
            let n_flows = programs.len();
            let mut first_served: HashMap<u64, usize> = HashMap::new();
            let mut polls = 0usize;
            while let Some((k, it)) = arb.poll() {
                first_served.entry(k).or_insert(polls);
                polls += 1;
                let exp = expect.get_mut(&k).expect("registered");
                let (tag, bytes) = exp.pop_front().expect("not over-delivered");
                prop_assert_eq!(it.tag, tag, "per-flow FIFO order");
                prop_assert_eq!(it.bytes, bytes);
            }
            for (key, exp) in &expect {
                prop_assert!(exp.is_empty(), "flow {} shorted {} items", key, exp.len());
            }
            prop_assert_eq!(arb.total_backlog(), 0);
            for (f, p) in programs.iter().enumerate() {
                let head = p.sizes[0];
                let bound = total_items + n_flows * (head.div_ceil(quantum) as usize + 1);
                let served_at = first_served[&(f as u64)];
                prop_assert!(
                    served_at <= bound,
                    "flow {} first served at poll {} > bound {}",
                    f, served_at, bound
                );
            }
        }

        /// Interleaved arrivals: enqueue/poll in random order still
        /// conserves bytes exactly.
        #[test]
        fn drr_interleaved_arrivals_conserve_bytes(
            ops in proptest::collection::vec((0u64..6, 1u64..2000, any::<bool>()), 1..200)
        ) {
            let mut arb = DrrArbiter::new(512);
            for f in 0..6 {
                arb.register(f, 1);
            }
            let mut queued: u64 = 0;
            let mut served: u64 = 0;
            for (tag, (f, s, poll_now)) in ops.into_iter().enumerate() {
                arb.enqueue(f, item(tag as u32, s));
                queued += s;
                if poll_now {
                    if let Some((_, it)) = arb.poll() {
                        served += it.bytes;
                    }
                }
                prop_assert_eq!(arb.total_backlog(), queued - served);
            }
            while let Some((_, it)) = arb.poll() {
                served += it.bytes;
            }
            prop_assert_eq!(queued, served);
            prop_assert_eq!(arb.total_backlog(), 0);
        }
    }
}
