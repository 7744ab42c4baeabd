//! Adaptive scheme switching: mid-transfer SR ⇄ EC ⇄ GBN handover driven
//! by live channel telemetry.
//!
//! The paper's central claim (§2.1, §5.2) is that no single reliability
//! scheme wins everywhere and that SDR's value is picking per deployment —
//! but a static pick is only as good as the channel assumption it was made
//! under, and Figure 2 shows WAN drop rates drifting three orders of
//! magnitude within hours. This module closes the loop the paper leaves
//! open: **estimate → advise → hand over**, continuously.
//!
//! # The loop
//!
//! 1. **Estimate** ([`telemetry`](crate::telemetry)): the receiver's
//!    [`RxDriver`](crate::runtime::RxDriver) first-pass-scans its bitmaps
//!    each step and report and feeds a [`ChannelEstimator`]; counters that
//!    moved ride [`CtrlMsg::Telemetry`] datagrams to the sender, whose own estimator
//!    adds RTT samples from ACK round-trips (SR chunk ACKs under Karn's
//!    rule, `SwitchPropose → SwitchAck` handshakes).
//! 2. **Advise**: on the controller cadence (`rtt / CADENCE_DIV`) the
//!    sender re-runs [`advisor::recommend`] against the *live* estimate
//!    for the bytes still ahead — only when its advice could become a
//!    proposal. The gates run cheapest first: no handshake in flight, no
//!    blackout, a [confident](ChannelEstimator::is_confident) estimate, and
//!    a proposal target (a pipeline lead past the next unstarted segment)
//!    that has not started yet; then the advisor, whose pick must beat the
//!    running scheme by the minimum gain; then, for a pick that crosses the
//!    SR ⇄ EC divide, the Figure 9 boundary cleared by the `HYSTERESIS`
//!    factor ([`SchemeSpec::fig09_verdict`], which settles the gate without
//!    finishing the boundary search) — a cold or noisy estimate hovering at
//!    the boundary cannot flap the scheme.
//! 3. **Hand over**: the transfer runs as a pipeline of *segments*
//!    (submessages of [`segment_bytes`](AdaptConfig::segment_bytes)), each
//!    a complete run of one scheme started through the
//!    [scheme table](crate::scheme) — the controller never learns which
//!    protocol object a spec stands for. The receiver throttles the
//!    pipeline: it posts the next segment's buffers (whose CTS credits are
//!    what allow the sender to inject) whenever less than
//!    `PIPELINE_LEAD_RTTS` round trips' worth of data at line rate
//!    is outstanding, so the wire never idles across boundaries. A
//!    switch is a two-message handshake: [`CtrlMsg::SwitchPropose`] names
//!    the first not-yet-started segment, [`CtrlMsg::SwitchAck`] commits it
//!    (the receiver bumps the epoch past segments it already started, and
//!    re-acks idempotently). Segments already in flight **drain** under
//!    their scheme; the sender will not start the switch segment until the
//!    ACK arrives, and either message dropping is healed by re-proposal on
//!    the controller cadence. Scheme control traffic rides
//!    [`CtrlMsg::Seg`] epoch envelopes, so an ACK lingering from a
//!    pre-handover segment identifies itself and is dropped instead of
//!    poisoning a successor scheme; once the sender's
//!    [`CtrlMsg::SegDone`] watermark confirms a segment's final ACK
//!    round-trip, the receiver [quiesces](crate::runtime::RxDriver::quiesce)
//!    its driver — slots released exactly once — freeing the table for
//!    successors.
//!
//! Delivery stays byte-identical across any switch sequence: segments
//! partition the message, every segment is delivered by a scheme's own
//! intact-delivery contract, and epoch gating keeps stale control traffic
//! out of successor segments.
//!
//! # Resume
//!
//! A crashed transfer's next life plans only what its receiver's
//! [`DeliveryManifest`] says is missing. The sender does not hold that
//! journal, so a resumed [`AdaptiveSender`] starts in a *querying* phase:
//! it paces [`CtrlMsg::ResumeQuery`] at the nominal RTT and acts on
//! nothing but a [`CtrlMsg::ResumeState`] of its own geometry. The first
//! one ends the phase — into the plan of the undelivered segments, started
//! exactly as a fresh transfer starts, or straight to `Delivered` when
//! nothing is missing. One control handler, one deadline, one abort path,
//! one report and one digest answer serve both phases.
//!
//! [`ChannelEstimator`]: crate::telemetry::ChannelEstimator
//! [`CtrlMsg::Telemetry`]: crate::ack::CtrlMsg::Telemetry
//! [`CtrlMsg::SwitchPropose`]: crate::ack::CtrlMsg::SwitchPropose
//! [`CtrlMsg::SwitchAck`]: crate::ack::CtrlMsg::SwitchAck
//! [`CtrlMsg::Seg`]: crate::ack::CtrlMsg::Seg
//! [`CtrlMsg::SegDone`]: crate::ack::CtrlMsg::SegDone
//! [`advisor::recommend`]: crate::advisor::recommend

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::{SdrContext, SdrQp};
use sdr_model::Channel;
use sdr_sim::{Counter, Engine, EventKind, Gauge, QpAddr, SimTime, TimerHandle};

use crate::ack::{CtrlMsg, SchemeSpec, MAX_MANIFEST_SEGMENTS};
use crate::advisor;
use crate::control::{ControlEndpoint, CtrlHandler, CtrlPath};
use crate::runtime::{tick_loop, AbortReason, Completion, DeliveryManifest, Tick, TransferOutcome};
use crate::scheme::{self, SchemeEnv, SchemeReceiver, SchemeSender};
use crate::telemetry::{ChannelEstimator, TelemetryConfig, TelemetryCounters};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Both control loops tick every `rtt / CADENCE_DIV`: the sender's
/// controller (advisor re-runs, proposal re-sends, the segment-creation
/// pump) and the receiver's housekeeping (telemetry reports, pipeline
/// posting, quiescing).
const CADENCE_DIV: u64 = 4;

/// How much data, in RTTs at line rate, the receiver keeps posted ahead of
/// the observed injection frontier. 1.5 keeps the wire full across segment
/// boundaries; more would deepen the pipeline and slow the reaction to a
/// committed switch (a switch first applies to a segment nothing has been
/// posted for).
const PIPELINE_LEAD_RTTS: f64 = 1.5;

/// SR ⇄ EC hysteresis factor: switch toward EC only when the loss estimate
/// exceeds the fig09 boundary by this factor, back to SR only when it
/// falls below boundary ÷ factor.
pub(crate) const HYSTERESIS: f64 = 2.0;

/// The SR ⇄ EC hysteresis gates as verdicts on the Figure 9 boundary `b`
/// for [`SchemeSpec::fig09_verdict`], each monotone in `b` with `None` (no
/// crossing in range) above every rate: moving onto EC stays put unless
/// `loss` is past `b · HYSTERESIS` ...
pub(crate) fn stay_off_ec(loss: f64) -> impl Fn(Option<f64>) -> bool {
    move |b| b.is_none_or(|b| loss <= b * HYSTERESIS)
}

/// ... and leaving EC stays put while `loss` is at or above
/// `b / HYSTERESIS`.
pub(crate) fn stay_on_ec(loss: f64) -> impl Fn(Option<f64>) -> bool {
    move |b| b.is_some_and(|b| loss >= b / HYSTERESIS)
}

/// Stochastic trials per advisor candidate on each controller tick, and
/// the seed of that evaluation (mixed with the segment index per run).
const ADVISOR_TRIALS: usize = 300;
const ADVISOR_SEED: u64 = 0x5D12;

/// The sender's blackout detector trips after this many nominal RTTs
/// without a single control datagram (ACK, telemetry, anything): the
/// controller then decays the estimator's confidence once — a pre-outage
/// loss estimate says nothing about the channel that comes back — and
/// proposes no handovers until traffic resumes and the estimator re-earns
/// confidence on post-heal observations.
const BLACKOUT_RTTS: u64 = 8;

/// Tuning for an adaptive transfer. Both endpoints must be constructed
/// with the same values (like a static deployment agrees on protocol
/// configs out-of-band). Everything else about the control loop — its
/// cadence, pipeline lead, hysteresis, advisor sampling and blackout
/// threshold — is a constant of this module, and each segment's protocol
/// config is what [`scheme`] derives from the nominal
/// channel given here.
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Nominal line rate (the advisor's bandwidth input and the pipeline
    /// lead calculation).
    pub bandwidth_bps: f64,
    /// Nominal RTT; protocol configs and the control cadences derive from
    /// it, and the controller uses it until live RTT samples take over.
    pub rtt: SimTime,
    /// Segment (submessage) size — the handover granularity. Must be a
    /// multiple of the QP's chunk size; every scheme change takes effect
    /// at a segment boundary, after in-flight segments drain.
    pub segment_bytes: u64,
    /// Minimum predicted improvement before proposing any handover: the
    /// running scheme's predicted mean must exceed the recommended
    /// scheme's by this factor. Near-tie flips (SR-RTO ⇄ SR-NACK on a
    /// clean channel) are advisor sort noise — proposing them wastes the
    /// single in-flight handshake slot right when a real shift may need
    /// it.
    pub min_gain: f64,
    /// Estimator tuning (shared by both endpoints' estimators).
    pub telemetry: TelemetryConfig,
    /// Optional transfer deadline, measured from each endpoint's own start
    /// instant. When it expires before completion the endpoint aborts
    /// locally — timers cancelled, slots released exactly once, the
    /// completion callback fired with
    /// [`Aborted(Deadline)`](TransferOutcome::Aborted) — and best-effort
    /// notifies the peer with [`CtrlMsg::Abort`].
    /// Both ends arm the deadline *independently*: the notify datagram
    /// rides the same unreliable path as everything else and may die in
    /// the very blackout that caused the miss, so neither end waits to be
    /// told. `None` (the default) = no deadline.
    pub deadline: Option<SimTime>,
}

impl AdaptConfig {
    /// Defaults for a deployment: a 3 % minimum predicted gain, the
    /// default estimator, no deadline.
    pub fn new(bandwidth_bps: f64, rtt: SimTime, segment_bytes: u64) -> Self {
        AdaptConfig {
            bandwidth_bps,
            rtt,
            segment_bytes,
            min_gain: 1.03,
            telemetry: TelemetryConfig::default(),
            deadline: None,
        }
    }

    /// The pipeline lead in packets.
    fn lead_packets(&self, qp: &SdrQp) -> u64 {
        let bytes = PIPELINE_LEAD_RTTS * self.rtt.as_secs_f64() * self.bandwidth_bps / 8.0;
        (bytes / qp.config().mtu_bytes as f64).ceil() as u64
    }
}

/// Records a scheme event (start, handover, proposal, ack) for `epoch` in
/// the node's flight recorder, with the spec as its trace code.
fn note_scheme(ep: &ControlEndpoint, eng: &Engine, kind: EventKind, epoch: u32, spec: SchemeSpec) {
    let rec = ep.recorder();
    rec.record(eng.now().as_picos(), kind, epoch as u64, spec.trace_code());
}

/// Segment table: `(offset, len)` partitioning `[0, msg_bytes)`, at most
/// [`MAX_MANIFEST_SEGMENTS`] of them — past that the receiver's delivery
/// manifest no longer fits the `ResumeState` datagram a resume needs.
fn segments(msg_bytes: u64, segment_bytes: u64) -> Vec<(u64, u64)> {
    assert!(msg_bytes > 0, "empty transfer");
    let n = msg_bytes.div_ceil(segment_bytes);
    assert!(
        n <= MAX_MANIFEST_SEGMENTS as u64,
        "{n} segments: a transfer has at most {MAX_MANIFEST_SEGMENTS}"
    );
    let mut out = Vec::new();
    let mut off = 0;
    while off < msg_bytes {
        let len = segment_bytes.min(msg_bytes - off);
        out.push((off, len));
        off += len;
    }
    out
}

/// CRC32C over the *whole message* `[base, base+len)`, hashed where it
/// lies in node memory. Deliberately message-scoped, not plan-scoped: a
/// resume's plan covers only the undelivered remainder, but bytes
/// delivered in a previous life were journaled at bitmap completion —
/// *before* any digest verdict — so they are exactly as suspect as this
/// life's. Both ends hold the full buffer in every life (the sender its
/// source, the receiver its destination), so the full-range digest is
/// always computable and always comparable.
fn message_digest(ctx: &SdrContext, base: u64, len: u64) -> u32 {
    ctx.fabric().node(ctx.node(), |n| {
        sdr_erasure::crc32c(n.mem().read(base, len as usize))
    })
}

// ---------------------------------------------------------------------------
// Epoch gate: the CtrlPath segments ride
// ---------------------------------------------------------------------------

/// The [`CtrlPath`] one segment's scheme rides: outgoing messages are
/// wrapped in [`CtrlMsg::Seg`] envelopes carrying the segment's epoch, and
/// the adaptive master handler dispatches only live-epoch envelopes back
/// in — stale linger ACKs from a pre-handover segment identify themselves
/// and die here instead of acking chunks of a successor scheme.
struct EpochGate {
    epoch: u32,
    ep: Rc<ControlEndpoint>,
    handler: RefCell<Option<CtrlHandler>>,
}

impl EpochGate {
    fn new(epoch: u32, ep: Rc<ControlEndpoint>) -> Rc<Self> {
        Rc::new(EpochGate {
            epoch,
            ep,
            handler: RefCell::new(None),
        })
    }

    /// Delivers an unwrapped inner message to the bound scheme handler
    /// (taken out during the call so the handler may send re-entrantly).
    fn dispatch(&self, eng: &mut Engine, src: QpAddr, msg: CtrlMsg) {
        let taken = self.handler.borrow_mut().take();
        if let Some(mut f) = taken {
            f(eng, src, msg);
            let mut slot = self.handler.borrow_mut();
            if slot.is_none() {
                *slot = Some(f);
            }
        }
    }
}

impl CtrlPath for EpochGate {
    fn send_ctrl(&self, eng: &mut Engine, dst: QpAddr, msg: &CtrlMsg) {
        self.ep.send(
            eng,
            dst,
            &CtrlMsg::Seg {
                epoch: self.epoch,
                inner: Box::new(msg.clone()),
            },
        );
    }

    fn install_handler(&self, f: CtrlHandler) {
        *self.handler.borrow_mut() = Some(f);
    }
}

// ---------------------------------------------------------------------------
// Sender: the adaptive controller
// ---------------------------------------------------------------------------

/// Sender-side transfer outcome.
#[derive(Clone, Debug)]
pub struct AdaptReport {
    /// Transfer start to the last segment's final ACK.
    pub duration: SimTime,
    /// Segments transferred.
    pub segments: u32,
    /// `SwitchPropose` datagrams sent (including healing re-sends).
    pub proposals: u64,
    /// Handovers committed and applied.
    pub switches: u64,
    /// `(start instant, epoch, scheme)` per segment, in start order.
    pub history: Vec<(SimTime, u32, SchemeSpec)>,
    /// Scheme the transfer finished under.
    pub final_spec: SchemeSpec,
    /// How the transfer ended: delivered, or aborted (deadline, local
    /// request, or peer notification) with `segments` counting only the
    /// segments that fully completed.
    pub outcome: TransferOutcome,
    /// Repair effort summed over completed segments: chunks retransmitted
    /// (SR/GBN) plus fallback repair rounds (EC). The survivability
    /// bound: a transfer crossing an outage of length `T` needs only
    /// `O(log(T / rto))` resends per in-flight chunk under RTO backoff.
    pub retransmits: u64,
}

/// An in-flight handover handshake (sender side).
struct PendingSwitch {
    seq: u32,
    epoch: u32,
    spec: SchemeSpec,
    acked: bool,
    /// First transmission instant (the RTT sample's send edge).
    first_sent: SimTime,
    /// Last (re-)transmission instant (paces healing re-proposals).
    last_sent: SimTime,
    /// A healing re-proposal went out: the ACK is ambiguous between
    /// copies, so it yields no RTT sample (Karn's rule, like the chunk
    /// ACK path).
    resent: bool,
}

struct TxSeg {
    epoch: u32,
    gate: Rc<EpochGate>,
    /// Keeps the segment's protocol object alive; its callbacks drive
    /// everything.
    sender: Box<dyn SchemeSender>,
}

struct TxInner {
    qp: SdrQp,
    ctx: SdrContext,
    ep: Rc<ControlEndpoint>,
    peer: QpAddr,
    local_addr: u64,
    /// Full message length — the digest scope, which outlives any one
    /// life's plan (see [`message_digest`]).
    msg_bytes: u64,
    /// The plan: `(offset, len)` of each segment this life sends, in wire
    /// epoch order. Empty until it starts.
    segs: Vec<(u64, u64)>,
    /// A resume's start instant, until the receiver's manifest arrives
    /// (for good, if the transfer ends first): the querying phase, in which
    /// the only message acted on is a matching [`CtrlMsg::ResumeState`].
    querying: Option<SimTime>,
    /// `ResumeQuery` datagrams sent (including healing re-sends).
    queries: u64,
    cfg: AdaptConfig,
    est: Rc<RefCell<ChannelEstimator>>,
    current_spec: SchemeSpec,
    /// Next segment index to create a scheme sender for.
    next_create: u32,
    /// First SDR send sequence of segment `next_create` (CTS watch point).
    next_first_seq: u64,
    /// Segments whose senders are alive (created, not yet done).
    live: Vec<TxSeg>,
    /// Segments completed (final ACK processed).
    done_count: u32,
    pending: Option<PendingSwitch>,
    next_seq: u32,
    proposals: u64,
    switches: u64,
    retransmits: u64,
    history: Vec<(SimTime, u32, SchemeSpec)>,
    completion: Completion<AdaptReport>,
    /// The controller loop's timer (cancelled on abort so the engine
    /// drains immediately instead of ticking to the next cadence point).
    ctl_timer: Option<TimerHandle>,
    /// The query loop's timer, while querying.
    query_timer: Option<TimerHandle>,
    /// The armed deadline (cancelled at natural completion so the engine
    /// does not idle until a far-future no-op firing).
    deadline_timer: Option<TimerHandle>,
    /// Whole-message CRC32C of the source buffer, computed lazily on the
    /// first [`CtrlMsg::DigestQuery`] and cached: the source bytes never
    /// change, so one computation answers every duplicate query the
    /// receiver paces while waiting for [`CtrlMsg::DigestState`].
    digest: Option<u32>,
    /// Blackout edge state: set on the silence threshold crossing (with a
    /// one-time confidence decay), cleared when traffic resumes.
    in_blackout: bool,
    /// `adapt.loss_ppm`: the controller's live loss estimate in parts per
    /// million, published each advisor run (the advisor's input, so a
    /// snapshot explains the decision next to it in the timeline).
    g_loss: Gauge,
    /// `adapt.rtt_us`: the live RTT estimate in microseconds, ditto.
    g_rtt: Gauge,
    /// `adapt.advisor.runs`: advisor evaluations paid for — ticks whose
    /// advice could still become a proposal.
    advisor_runs: Counter,
}

impl TxInner {
    /// The report of this transfer ending `outcome` at `now` with
    /// `segments` of them complete.
    fn report(&self, now: SimTime, segments: u32, outcome: TransferOutcome) -> AdaptReport {
        // A life that ends before its plan starts is timed from its resume.
        let since = self.querying.or(self.completion.started());
        AdaptReport {
            duration: now.saturating_sub(since.unwrap_or(now)),
            segments,
            proposals: self.proposals,
            switches: self.switches,
            history: self.history.clone(),
            final_spec: self.current_spec,
            outcome,
            retransmits: self.retransmits,
        }
    }
}

/// The adaptive sender: runs the transfer as a receiver-throttled pipeline
/// of segments under the currently-committed scheme and hosts the
/// controller loop that re-advises and proposes handovers. Construct with
/// [`AdaptiveController::start_sender`], or
/// [`resume_sender`](AdaptiveController::resume_sender) for a later life
/// of a crashed transfer, which queries the receiver's manifest first.
/// Cloning yields another handle to the same transfer (cheap `Rc`
/// semantics).
#[derive(Clone)]
pub struct AdaptiveSender {
    inner: Rc<RefCell<TxInner>>,
}

/// Namespace for the adaptive control plane's entry points.
pub struct AdaptiveController;

impl AdaptiveController {
    /// Starts an adaptive transfer of `[local_addr, local_addr+msg_bytes)`
    /// under `initial`, re-advising on the controller cadence. `done` fires
    /// exactly once, after every segment's final ACK. The peer must run
    /// [`start_receiver`](Self::start_receiver) with the same `initial`
    /// and `cfg`.
    #[allow(clippy::too_many_arguments)]
    pub fn start_sender(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ep: Rc<ControlEndpoint>,
        peer: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        initial: SchemeSpec,
        cfg: AdaptConfig,
        done: impl FnOnce(&mut Engine, AdaptReport) + 'static,
    ) -> AdaptiveSender {
        let segs = segments(msg_bytes, cfg.segment_bytes);
        let tx = Self::tx_new(qp, ctx, ep, peer, local_addr, msg_bytes, initial, cfg, done);
        Self::tx_begin(&tx.inner, eng, segs);
        tx
    }

    /// Resumes the sending half of a crashed adaptive transfer: a sender
    /// in the querying phase (see the [module docs](self#resume)), which
    /// then sends exactly the undelivered segments — or, off a full
    /// manifest, finishes `Delivered` at once and keeps answering the
    /// receiver's digest probes. `prior_loss` / `prior_rtt` warm-start the
    /// estimator from the previous life's estimates (read them off the old
    /// handle before it died); `None` starts cold. The peer must re-enter
    /// via [`resume_receiver`](Self::resume_receiver) on the same transfer
    /// id; whichever end restarted must have bumped its
    /// [incarnation](crate::ControlEndpoint::bump_incarnation) first so
    /// the stamp filter retires the dead life's stragglers. `done` fires
    /// exactly once. The deadline runs from the resume, and afresh from
    /// the plan's start.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_sender(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ep: Rc<ControlEndpoint>,
        peer: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        initial: SchemeSpec,
        cfg: AdaptConfig,
        prior_loss: Option<f64>,
        prior_rtt: Option<SimTime>,
        done: impl FnOnce(&mut Engine, AdaptReport) + 'static,
    ) -> AdaptiveSender {
        let pace = cfg.rtt;
        let tx = Self::tx_new(qp, ctx, ep, peer, local_addr, msg_bytes, initial, cfg, done);
        {
            let mut i = tx.inner.borrow_mut();
            i.querying = Some(eng.now());
            i.est.borrow_mut().seed(prior_loss, prior_rtt);
        }
        // Query now, then heal at the nominal RTT — an answer cannot
        // possibly return sooner, and each query is answered idempotently.
        Self::tx_query(&tx.inner, eng);
        let me = tx.inner.clone();
        let t = tick_loop(eng, pace, move |eng| {
            Self::tx_query(&me, eng);
            Tick::Again
        });
        tx.inner.borrow_mut().query_timer = Some(t);
        Self::tx_arm_deadline(&tx.inner, eng);
        tx
    }

    /// A sender with no plan yet and its master control handler installed.
    #[allow(clippy::too_many_arguments)]
    fn tx_new(
        qp: &SdrQp,
        ctx: &SdrContext,
        ep: Rc<ControlEndpoint>,
        peer: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        initial: SchemeSpec,
        cfg: AdaptConfig,
        done: impl FnOnce(&mut Engine, AdaptReport) + 'static,
    ) -> AdaptiveSender {
        let qcfg = qp.config();
        assert!(
            cfg.segment_bytes >= qcfg.chunk_bytes
                && cfg.segment_bytes.is_multiple_of(qcfg.chunk_bytes),
            "segment size must be a positive multiple of the chunk size"
        );
        assert!(
            msg_bytes.is_multiple_of(qcfg.chunk_bytes),
            "adaptive transfers require chunk-aligned messages (EC segments)"
        );
        assert!(
            cfg.segment_bytes <= qcfg.max_msg_bytes,
            "segment fits a slot"
        );
        let est = Rc::new(RefCell::new(ChannelEstimator::new(cfg.telemetry)));
        let reg = ep.metrics();
        let (g_loss, g_rtt) = (reg.gauge("adapt.loss_ppm"), reg.gauge("adapt.rtt_us"));
        let advisor_runs = reg.counter("adapt.advisor.runs");
        let inner = Rc::new(RefCell::new(TxInner {
            qp: qp.clone(),
            ctx: ctx.clone(),
            ep: ep.clone(),
            peer,
            local_addr,
            msg_bytes,
            segs: Vec::new(),
            querying: None,
            queries: 0,
            cfg,
            est,
            current_spec: initial,
            next_create: 0,
            next_first_seq: 0,
            live: Vec::new(),
            done_count: 0,
            pending: None,
            next_seq: 1,
            proposals: 0,
            switches: 0,
            retransmits: 0,
            history: Vec::new(),
            completion: Completion::new(done),
            ctl_timer: None,
            query_timer: None,
            deadline_timer: None,
            digest: None,
            in_blackout: false,
            g_loss,
            g_rtt,
            advisor_runs,
        }));
        // Master control handler: the resume handshake while querying,
        // then epoch-gate scheme traffic, absorb telemetry, drive the
        // handshakes.
        let me = inner.clone();
        ep.set_handler(move |eng, src, msg| Self::tx_on_ctrl(&me, eng, src, msg));
        AdaptiveSender { inner }
    }

    /// Starts the plan: `segs` is the list of `(offset, len)` submessages
    /// this life will actually send — the full partition on a fresh start,
    /// the undelivered remainder on a resume. Wire epochs are plan
    /// indices, identical on both ends because both build the plan from
    /// the same manifest snapshot. The estimator is as constructed (and
    /// seeded) until here: a querying sender feeds it nothing.
    fn tx_begin(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine, segs: Vec<(u64, u64)>) {
        let decide = {
            let mut i = inner.borrow_mut();
            i.completion.mark_started(eng.now());
            // The blackout detector measures silence from a defined instant.
            i.est.borrow_mut().note_progress(eng.now());
            i.next_first_seq = i.qp.next_send_seq();
            i.segs = segs;
            i.cfg.rtt / CADENCE_DIV
        };

        // Segment 0 starts unconditionally (its scheme sender waits for
        // the CTS internally); later segments are created by the pump as
        // their credits arrive.
        Self::tx_create_segment(inner, eng);

        // The controller loop: create credited segments, re-advise, heal
        // proposals.
        let me = inner.clone();
        let ctl = tick_loop(eng, decide, move |eng| Self::control_tick(&me, eng));
        inner.borrow_mut().ctl_timer = Some(ctl);
        Self::tx_arm_deadline(inner, eng);
    }

    /// Arms the local deadline from now, if one is configured: it fires a
    /// full abort (peer notified best-effort; it arms its own copy
    /// independently). A query loop whose peer never answers ends here too.
    fn tx_arm_deadline(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine) {
        let Some(d) = inner.borrow().cfg.deadline else {
            return;
        };
        let me = inner.clone();
        let h = eng.schedule_in_handle(d, move |eng| {
            Self::tx_abort(&me, eng, AbortReason::Deadline, true);
        });
        inner.borrow_mut().deadline_timer = Some(h);
    }

    /// Sends one [`CtrlMsg::ResumeQuery`].
    fn tx_query(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine) {
        let (ep, peer) = {
            let mut i = inner.borrow_mut();
            i.queries += 1;
            (i.ep.clone(), i.peer)
        };
        ep.send(eng, peer, &CtrlMsg::ResumeQuery);
    }

    /// Creates the scheme sender for segment `next_create` under the
    /// scheme committed for it.
    fn tx_create_segment(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine) {
        let mut i = inner.borrow_mut();
        let epoch = i.next_create;
        debug_assert!((epoch as usize) < i.segs.len());
        // Commit a handover that applies from this segment.
        if let Some(p) = &i.pending {
            if p.acked && p.epoch == epoch {
                i.current_spec = p.spec;
                i.switches += 1;
                i.pending = None;
                note_scheme(&i.ep, eng, EventKind::SchemeHandover, epoch, i.current_spec);
            }
        }
        let spec = i.current_spec;
        let gate = EpochGate::new(epoch, i.ep.clone());
        let (off, len) = i.segs[epoch as usize];
        i.history.push((eng.now(), epoch, spec));
        note_scheme(&i.ep, eng, EventKind::SchemeStart, epoch, spec);
        i.next_first_seq += spec.sends(len, i.qp.config().chunk_bytes);
        i.next_create += 1;
        let env = SchemeEnv {
            qp: &i.qp,
            ctx: &i.ctx,
            ctrl: gate.clone(),
            peer: i.peer,
            addr: i.local_addr + off,
            bytes: len,
            bandwidth_bps: i.cfg.bandwidth_bps,
            rtt: i.cfg.rtt,
            // A chaos timeline then shows which segment's timers fired.
            trace: Some((i.ep.recorder().clone(), epoch as u64)),
        };
        // Starting a scheme schedules events and installs handlers; it never
        // calls back into its host, so the borrow stays open across it.
        let me = inner.clone();
        let sender =
            scheme::start_sender(eng, spec, env, Some(i.est.clone()), move |eng, repairs| {
                me.borrow_mut().retransmits += repairs;
                Self::tx_on_segment_done(&me, eng, epoch)
            });
        i.live.push(TxSeg {
            epoch,
            gate,
            sender,
        });
    }

    /// Creates every segment whose first CTS credit has arrived, stopping
    /// at the drain barrier: an un-acked proposal targeting a segment
    /// means the receiver may commit a different scheme there — wait for
    /// the ACK (healed by re-proposal) before creating it. The
    /// `next_send_seq` guard keeps send-sequence order: a segment is only
    /// created once every earlier segment allocated all its sends.
    fn tx_pump_segments(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine) {
        loop {
            let create = {
                let i = inner.borrow();
                let e = i.next_create;
                // A late in-flight credit or ACK must not resurrect an
                // aborted transfer: a segment created after teardown has
                // nobody left to abort its timers.
                !i.completion.is_done()
                    && (e as usize) < i.segs.len()
                    && i.qp.has_cts(i.next_first_seq)
                    && i.qp.next_send_seq() == i.next_first_seq
                    && !matches!(&i.pending, Some(p) if !p.acked && p.epoch <= e)
            };
            if !create {
                return;
            }
            Self::tx_create_segment(inner, eng);
        }
    }

    fn tx_on_segment_done(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine, epoch: u32) {
        let finished = {
            let mut i = inner.borrow_mut();
            if i.completion.is_done() {
                return;
            }
            let Some(pos) = i.live.iter().position(|s| s.epoch == epoch) else {
                return; // duplicate completion: already retired
            };
            i.live.swap_remove(pos);
            i.done_count += 1;
            i.done_count as usize == i.segs.len()
        };
        if finished {
            let (cb, timer) = {
                let mut i = inner.borrow_mut();
                let report = i.report(eng.now(), i.segs.len() as u32, TransferOutcome::Delivered);
                let cb = i.completion.finish().map(|cb| (cb, report));
                (cb, i.deadline_timer.take())
            };
            // The deadline lost the race to completion: cancel it so the
            // engine drains now instead of idling to a no-op firing.
            if let Some(t) = timer {
                eng.cancel(t);
            }
            // Final completion watermark: the receiver may quiesce every
            // lingering driver (loss of this one is healed by the linger
            // countdown backstop).
            let (ep, peer, below) = {
                let i = inner.borrow();
                (i.ep.clone(), i.peer, i.segs.len() as u32)
            };
            ep.send(eng, peer, &CtrlMsg::SegDone { below });
            if let Some((cb, report)) = cb {
                cb(eng, report);
            }
        } else {
            // A completed segment may have been the drain barrier's blocker.
            Self::tx_pump_segments(inner, eng);
        }
    }

    /// Tears the sender down before completion: the completion is marked
    /// finished *first* (so the segment aborts below hit the is-done guard
    /// in [`tx_on_segment_done`](Self::tx_on_segment_done) instead of
    /// corrupting counts), then every live segment sender is aborted
    /// (stream quiesced, scheme timers cancelled), the controller, query
    /// and deadline timers are cancelled, the peer is notified best-effort
    /// (when `notify_peer`), and the user callback fires with
    /// [`Aborted(reason)`](TransferOutcome::Aborted). Returns `false` if
    /// the transfer had already finished.
    fn tx_abort(
        inner: &Rc<RefCell<TxInner>>,
        eng: &mut Engine,
        reason: AbortReason,
        notify_peer: bool,
    ) -> bool {
        let (cb, live, timers) = {
            let mut i = inner.borrow_mut();
            if i.completion.is_done() {
                return false;
            }
            let report = i.report(eng.now(), i.done_count, TransferOutcome::aborted(reason));
            let cb = i.completion.finish().map(|cb| (cb, report));
            let live = std::mem::take(&mut i.live);
            let timers = [
                i.ctl_timer.take(),
                i.query_timer.take(),
                i.deadline_timer.take(),
            ];
            i.ep.recorder().record(
                eng.now().as_picos(),
                EventKind::Abort,
                reason as u64,
                i.done_count as u64,
            );
            (cb, live, timers)
        };
        for t in timers.into_iter().flatten() {
            eng.cancel(t);
        }
        for seg in &live {
            seg.sender.abort(eng, reason);
        }
        drop(live);
        if notify_peer {
            let (ep, peer) = {
                let i = inner.borrow();
                (i.ep.clone(), i.peer)
            };
            ep.send(eng, peer, &CtrlMsg::Abort { reason });
        }
        if let Some((cb, report)) = cb {
            cb(eng, report);
        }
        true
    }

    fn tx_on_ctrl(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine, src: QpAddr, msg: CtrlMsg) {
        if inner.borrow().querying.is_some() {
            // Only the manifest counts: a digest probe is answered once the
            // manifest says nothing is left to send, and the rest are
            // stragglers of the surviving side's old handlers (other
            // lives' traffic already died in the stamp filter).
            if let CtrlMsg::ResumeState { manifest, base } = msg {
                Self::tx_on_resume_state(inner, eng, manifest, base);
            }
            return;
        }
        // Any datagram from the peer proves the channel is alive — feed
        // the blackout detector before dispatching.
        {
            let i = inner.borrow();
            i.est.borrow_mut().note_progress(eng.now());
        }
        match msg {
            CtrlMsg::Seg { epoch, inner: m } => {
                let gate = {
                    let i = inner.borrow();
                    i.live
                        .iter()
                        .find(|s| s.epoch == epoch)
                        .map(|s| s.gate.clone())
                };
                if let Some(g) = gate {
                    g.dispatch(eng, src, *m);
                }
                // A final ACK may complete a segment; new credits may have
                // arrived alongside — pump either way.
                Self::tx_pump_segments(inner, eng);
            }
            CtrlMsg::Telemetry { seen, lost } => {
                let est = inner.borrow().est.clone();
                est.borrow_mut()
                    .absorb_report(TelemetryCounters { seen, lost });
            }
            CtrlMsg::SwitchAck { seq, epoch } => Self::tx_on_switch_ack(inner, eng, seq, epoch),
            CtrlMsg::Abort { reason } => {
                // The peer already tore down; propagate its reason so both
                // ends report the same cause (and do not notify back).
                Self::tx_abort(inner, eng, reason, false);
            }
            CtrlMsg::DigestQuery => Self::tx_on_digest_query(inner, eng),
            _ => {}
        }
    }

    /// The receiver's manifest, while querying. The first answer of this
    /// transfer's geometry (and a send sequence this QP has not passed)
    /// ends the phase: the query loop and the handshake's deadline stop,
    /// and either the transfer finishes — everything landed in a previous
    /// life — or the plan of the undelivered segments starts. Answers of
    /// another geometry, and every answer after an abort, are ignored.
    fn tx_on_resume_state(
        inner: &Rc<RefCell<TxInner>>,
        eng: &mut Engine,
        manifest: DeliveryManifest,
        base: u64,
    ) {
        let seg_ids = manifest.undelivered();
        let (timers, finished, ep, qp) = {
            let mut i = inner.borrow_mut();
            if i.completion.is_done()
                || manifest.msg_bytes() != i.msg_bytes
                || manifest.segment_bytes() != i.cfg.segment_bytes
                || base < i.qp.next_send_seq()
            {
                return;
            }
            let finished = if seg_ids.is_empty() {
                let report = i.report(eng.now(), 0, TransferOutcome::Delivered);
                i.completion.finish().map(|cb| (cb, report))
            } else {
                None
            };
            i.querying = None;
            let timers = [i.query_timer.take(), i.deadline_timer.take()];
            (timers, finished, i.ep.clone(), i.qp.clone())
        };
        for t in timers.into_iter().flatten() {
            eng.cancel(t);
        }
        if let Some((cb, report)) = finished {
            // A crash can land inside the verification window (every bitmap
            // complete, digest verdict pending): the resumed receiver
            // re-verifies, and the master handler now answers its probes.
            cb(eng, report);
            return;
        }
        let segs: Vec<(u64, u64)> = seg_ids.iter().map(|&id| manifest.segment(id)).collect();
        ep.recorder().record(
            eng.now().as_picos(),
            EventKind::Resume,
            segs.len() as u64,
            base,
        );
        // Realign the order-matched send sequence: the receiver's posts
        // for this plan start at `base`, ahead of where this sender's
        // opens stopped (credits the dead life never consumed are dropped
        // with the skipped sequences).
        qp.align_send_seq(base).expect("base checked non-rewinding");
        Self::tx_begin(inner, eng, segs);
    }

    /// Answers the receiver's end-of-transfer digest probe from the
    /// source buffer. The sender's own completion fires on the final ACK
    /// (or at once, off a full manifest), which races the query on an
    /// independent control path — the master handler stays installed
    /// precisely so a late query is still answered. Duplicates are free:
    /// the digest is computed once and every re-query gets the cached
    /// value.
    fn tx_on_digest_query(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine) {
        let (ep, peer, crc) = {
            let mut i = inner.borrow_mut();
            let crc = match i.digest {
                Some(c) => c,
                None => {
                    let c = message_digest(&i.ctx, i.local_addr, i.msg_bytes);
                    i.digest = Some(c);
                    c
                }
            };
            (i.ep.clone(), i.peer, crc)
        };
        ep.send(eng, peer, &CtrlMsg::DigestState { crc });
    }

    fn tx_on_switch_ack(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine, seq: u32, epoch: u32) {
        {
            let mut i = inner.borrow_mut();
            if i.completion.is_done() {
                return;
            }
            let segs = i.segs.len() as u32;
            let now = eng.now();
            let Some(p) = &mut i.pending else { return };
            if p.seq != seq || p.acked {
                return; // stale handshake or duplicate ack
            }
            p.acked = true;
            p.epoch = p.epoch.max(epoch); // receiver-final epoch
                                          // Karn's rule: only a never-retransmitted handshake yields an
                                          // RTT sample — after a re-proposal the ACK is ambiguous
                                          // between copies.
            let sample = (!p.resent).then(|| now.saturating_sub(p.first_sent));
            let acked_epoch = p.epoch;
            if p.epoch >= segs {
                // Proposed while the last segments were already in flight:
                // the handover never applies.
                i.pending = None;
            }
            if let Some(sample) = sample {
                i.est.borrow_mut().observe_rtt(sample);
            }
            i.ep.recorder().record(
                now.as_picos(),
                EventKind::SwitchAck,
                acked_epoch as u64,
                seq as u64,
            );
        }
        // The ack may have been the drain barrier's blocker.
        Self::tx_pump_segments(inner, eng);
    }

    fn control_tick(inner: &Rc<RefCell<TxInner>>, eng: &mut Engine) -> Tick {
        // Credits may have arrived since the last wire event.
        Self::tx_pump_segments(inner, eng);
        // Completion watermark: lets the receiver release the slots of
        // segments whose final ACK round-trip finished (cumulative, so a
        // dropped report is covered by the next tick's).
        {
            let i = inner.borrow();
            if i.completion.is_done() {
                return Tick::Stop;
            }
            let below = i
                .live
                .iter()
                .map(|s| s.epoch)
                .min()
                .unwrap_or(i.next_create);
            if below > 0 {
                let (ep, peer) = (i.ep.clone(), i.peer);
                drop(i);
                ep.send(eng, peer, &CtrlMsg::SegDone { below });
            }
        }
        let mut i = inner.borrow_mut();
        if i.completion.is_done() {
            return Tick::Stop;
        }
        let now = eng.now();
        // Blackout edge detection: prolonged control-path silence (no
        // ACKs, no telemetry, nothing) means the channel is dark, not
        // merely lossy. On entry the estimator's confidence is decayed
        // exactly once — the pre-outage loss estimate says nothing about
        // the channel that comes back — which also closes the proposal
        // gates below until post-heal traffic re-earns confidence.
        let dark = i.est.borrow().blackout(now, i.cfg.rtt * BLACKOUT_RTTS);
        if dark && !i.in_blackout {
            i.in_blackout = true;
            i.est.borrow_mut().decay_confidence();
        } else if !dark && i.in_blackout {
            i.in_blackout = false;
        }
        // Heal an in-flight handshake: re-propose until acked, paced at
        // the nominal RTT — an ACK cannot possibly have returned sooner,
        // so re-sending every controller tick would only burn datagrams
        // and (per Karn) forfeit the handshake's RTT sample.
        let heal_pace = i.cfg.rtt;
        if let Some(p) = &mut i.pending {
            if !p.acked && now.saturating_sub(p.last_sent) >= heal_pace {
                p.last_sent = now;
                p.resent = true;
                let msg = CtrlMsg::SwitchPropose {
                    seq: p.seq,
                    epoch: p.epoch,
                    spec: p.spec,
                };
                i.proposals += 1;
                let (ep, peer) = (i.ep.clone(), i.peer);
                ep.send(eng, peer, &msg);
            }
            return Tick::Again;
        }
        if i.in_blackout {
            // A dark channel: nothing to learn from, nothing worth
            // proposing into (the handshake could not complete anyway).
            return Tick::Again;
        }
        // Re-advise against the live estimate for the bytes not yet
        // started.
        let next_unstarted = i.next_create;
        if next_unstarted as usize >= i.segs.len() {
            return Tick::Again; // nothing left to switch
        }
        let Some(loss) = i.est.borrow().loss_estimate() else {
            return Tick::Again; // cold estimator: never switch
        };
        let rtt = i
            .est
            .borrow()
            .rtt_estimate()
            .unwrap_or(i.cfg.rtt)
            .as_secs_f64();
        let remaining: u64 = i.segs[next_unstarted as usize..].iter().map(|s| s.1).sum();
        // Publish the advisor's inputs: a metrics snapshot taken near a
        // handover then explains the decision.
        i.g_loss.set((loss * 1e6) as i64);
        i.g_rtt.set((rtt * 1e6) as i64);
        // A proposal targets a pipeline-lead's worth of segments ahead of
        // the next unstarted one: the handshake RTT then overlaps segments
        // that keep flowing under the old scheme instead of stalling the
        // drain barrier. When that lands past the end, no handover could
        // apply — the remaining submessages are already in flight — so the
        // advice is not worth paying for. The gate reads nothing the
        // advisor or the boundary search writes (both are pure), so
        // running it first changes no decision.
        let headroom = (i.cfg.lead_packets(&i.qp) * i.qp.config().mtu_bytes)
            .div_ceil(i.cfg.segment_bytes) as u32;
        let target_epoch = next_unstarted + headroom;
        if target_epoch as usize >= i.segs.len() {
            return Tick::Again;
        }
        let ch = Channel::new(i.cfg.bandwidth_bps, rtt, loss)
            .with_mtu_bytes(i.qp.config().mtu_bytes)
            .with_chunk_bytes(i.qp.config().chunk_bytes);
        let seed = ADVISOR_SEED ^ ((next_unstarted as u64) << 8);
        i.advisor_runs.inc();
        let rec = advisor::recommend(&ch, remaining, ADVISOR_TRIALS, seed);
        let mut target = rec.scheme;
        if target == i.current_spec {
            return Tick::Again;
        }
        // The switch must be worth a handshake: require a minimum
        // predicted gain over the running scheme (near-ties are noise).
        let current_mean = rec
            .candidates
            .iter()
            .find(|c| c.scheme == i.current_spec)
            .map(|c| c.summary.mean);
        if let Some(cm) = current_mean {
            if cm <= rec.summary.mean * i.cfg.min_gain {
                return Tick::Again;
            }
        }
        // Crossing the SR ⇄ EC boundary needs hysteresis clearance; moves
        // that do not cross it (SR-RTO ⇄ SR-NACK, leaving GBN) only need
        // the confidence gate already applied above. The gates ask which
        // side of them the boundary lies on, never for the number.
        let (bw, current) = (i.cfg.bandwidth_bps, i.current_spec);
        let to_ec = target.is_ec() && !current.is_ec();
        let from_ec = current.is_ec() && !target.is_ec();
        if (to_ec && target.fig09_verdict(bw, rtt, remaining, stay_off_ec(loss)))
            || (from_ec && current.fig09_verdict(bw, rtt, remaining, stay_on_ec(loss)))
        {
            return Tick::Again;
        }
        if to_ec && i.est.borrow().loss_step_fresh() {
            // Conservative first split: the estimate is confident but
            // still climbing through a fresh upward step, so the advisor
            // ran against an underestimate — commit the next-stronger
            // split than its point recommendation. Applied *after* the
            // boundary gate, which is judged on the advisor's own pick:
            // a stronger code's boundary sits at higher loss, and gating
            // on it would suppress exactly the handover this rule is
            // meant to harden.
            target = target.stronger();
        }
        // Propose at the target epoch; everything below it drains as-is.
        let seq = i.next_seq;
        i.next_seq += 1;
        i.pending = Some(PendingSwitch {
            seq,
            epoch: target_epoch,
            spec: target,
            acked: false,
            first_sent: now,
            last_sent: now,
            resent: false,
        });
        i.proposals += 1;
        let msg = CtrlMsg::SwitchPropose {
            seq,
            epoch: target_epoch,
            spec: target,
        };
        note_scheme(&i.ep, eng, EventKind::SwitchPropose, target_epoch, target);
        let (ep, peer) = (i.ep.clone(), i.peer);
        ep.send(eng, peer, &msg);
        Tick::Again
    }
}

impl AdaptiveSender {
    /// True once the transfer ended: every segment acked, a resume found
    /// nothing left to send, or an abort.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().completion.is_done()
    }

    /// `ResumeQuery` datagrams sent (including healing re-sends); 0 unless
    /// [resumed](AdaptiveController::resume_sender).
    pub fn queries(&self) -> u64 {
        self.inner.borrow().queries
    }

    /// The scheme currently committed on the sender.
    pub fn current_spec(&self) -> SchemeSpec {
        self.inner.borrow().current_spec
    }

    /// Handovers committed so far.
    pub fn switches(&self) -> u64 {
        self.inner.borrow().switches
    }

    /// True while a handover handshake is in flight (proposed, not yet
    /// acked) — the window where an abort must tear down a half-committed
    /// switch.
    pub fn has_pending_switch(&self) -> bool {
        self.inner
            .borrow()
            .pending
            .as_ref()
            .is_some_and(|p| !p.acked)
    }

    /// Aborts the transfer now, querying or running: live segment senders
    /// quiesce, every timer is cancelled, the peer is notified
    /// best-effort, and the completion callback fires exactly once with
    /// [`Aborted(reason)`](TransferOutcome::Aborted). Returns `false` if
    /// the transfer had already finished (delivered or aborted).
    pub fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool {
        AdaptiveController::tx_abort(&self.inner, eng, reason, true)
    }

    /// `(segment, staged parity)` of every erasure-coded segment in flight
    /// (see [`SchemeSender::staged_parity`]). Test observability: concurrently
    /// live segments stage into node memory side by side, and each must
    /// hold exactly its own segment's parity.
    pub fn staged_parity(&self) -> Vec<(u32, Vec<u8>)> {
        let i = self.inner.borrow();
        i.live
            .iter()
            .filter_map(|seg| Some((seg.epoch, seg.sender.staged_parity()?)))
            .collect()
    }

    /// Reads the sender-side channel estimator.
    pub fn estimator<R>(&self, f: impl FnOnce(&ChannelEstimator) -> R) -> R {
        f(&self.inner.borrow().est.borrow())
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// Receiver-side transfer outcome.
#[derive(Clone, Debug)]
pub struct AdaptRecvReport {
    /// Segments received.
    pub segments: u32,
    /// Handovers applied.
    pub switches: u64,
    /// How the transfer ended on this side: delivered, or aborted with
    /// `segments` counting only the segments fully received.
    pub outcome: TransferOutcome,
}

struct RxSeg {
    epoch: u32,
    recv: SchemeReceiver,
    complete: bool,
}

struct RxInner {
    qp: SdrQp,
    ctx: SdrContext,
    ep: Rc<ControlEndpoint>,
    peer: QpAddr,
    buf_addr: u64,
    /// Full message length — the digest scope, which outlives any one
    /// life's plan (see [`message_digest`]).
    msg_bytes: u64,
    segs: Vec<(u64, u64)>,
    /// Plan-index (wire epoch) → original segment id in the manifest's
    /// full-message geometry. Identity on a fresh start; the undelivered
    /// subset on a resume.
    seg_ids: Vec<u32>,
    /// The durable delivery journal: one bit per *original* segment,
    /// marked as its scheme driver completes. This is the one piece of
    /// receiver state the crash model assumes survives (an application
    /// journal / NVM log); an abort's outcome carries it out so the next
    /// life can be planned from it.
    manifest: DeliveryManifest,
    /// The manifest snapshot this life was planned against — the
    /// idempotent answer to every [`CtrlMsg::ResumeQuery`], so a resuming
    /// sender builds the *same* plan no matter how queries and answers
    /// duplicate or reorder.
    resume_base: DeliveryManifest,
    /// The receive sequence the plan's first post got — the `base` every
    /// [`CtrlMsg::ResumeState`] answer carries so the resuming sender can
    /// realign its order-matched send sequence.
    resume_seq_base: u64,
    cfg: AdaptConfig,
    est: Rc<RefCell<ChannelEstimator>>,
    /// The counters the last [`CtrlMsg::Telemetry`] carried: a report
    /// goes out only when they moved.
    reported: TelemetryCounters,
    current_spec: SchemeSpec,
    /// Next segment index to post (start a scheme receiver for).
    next_start: u32,
    /// Live segments: receiving, or complete and lingering their final
    /// ACK until a later segment's data lets them be quiesced.
    live: Vec<RxSeg>,
    done_segments: u32,
    /// Accepted-but-not-yet-applied handover: `(seq, first epoch, spec)`.
    pending: Option<(u32, u32, SchemeSpec)>,
    /// Last applied handover (for idempotent re-acks of its proposal).
    committed: Option<(u32, u32, SchemeSpec)>,
    switches: u64,
    /// End-of-transfer verification state: the CRC32C of the landed plan
    /// bytes, computed when the last segment's bitmap completes. Delivered
    /// is *not* declared at that point — a bitmap-complete buffer can
    /// still hold corrupt bytes (a corrupted duplicate of an
    /// already-recorded packet overwrites clean memory while its bit
    /// stays set), so the receiver paces [`CtrlMsg::DigestQuery`] at the
    /// housekeeping cadence until the sender's [`CtrlMsg::DigestState`]
    /// arrives and compares. Match → Delivered; mismatch → both ends
    /// abort with [`AbortReason::Corrupt`].
    verifying: Option<u32>,
    done_at: Option<SimTime>,
    done_cb: Option<Box<dyn FnOnce(&mut Engine, SimTime, AdaptRecvReport)>>,
    /// The housekeeping loop's timer (cancelled on abort).
    hk_timer: Option<TimerHandle>,
    /// The armed deadline (cancelled at natural completion).
    deadline_timer: Option<TimerHandle>,
}

/// The adaptive receiver: posts segments under the committed scheme with a
/// pipeline lead so the wire stays full across boundaries, feeds the
/// channel estimator from every bitmap poll, ships telemetry reports, and
/// answers handover proposals. Construct with
/// [`AdaptiveController::start_receiver`]. Cloning yields another handle
/// to the same transfer (cheap `Rc` semantics).
#[derive(Clone)]
pub struct AdaptiveReceiver {
    inner: Rc<RefCell<RxInner>>,
}

impl AdaptiveController {
    /// Starts the receiving half of an adaptive transfer into
    /// `[buf_addr, buf_addr+msg_bytes)`. `done` fires exactly once, when
    /// the last segment is fully delivered.
    #[allow(clippy::too_many_arguments)]
    pub fn start_receiver(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ep: Rc<ControlEndpoint>,
        peer: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        initial: SchemeSpec,
        cfg: AdaptConfig,
        done: impl FnOnce(&mut Engine, SimTime, AdaptRecvReport) + 'static,
    ) -> AdaptiveReceiver {
        let segs = segments(msg_bytes, cfg.segment_bytes);
        let seg_ids: Vec<u32> = (0..segs.len() as u32).collect();
        let manifest = DeliveryManifest::new(msg_bytes, cfg.segment_bytes);
        Self::start_receiver_plan(
            eng,
            qp,
            ctx,
            ep,
            peer,
            buf_addr,
            segs,
            seg_ids,
            manifest.clone(),
            manifest,
            initial,
            cfg,
            Box::new(done),
        )
    }

    /// Resumes the receiving half of a crashed adaptive transfer from its
    /// delivery `manifest` (the journal carried out by the previous life's
    /// [`Aborted`](TransferOutcome::Aborted) outcome). The plan covers
    /// only the undelivered segments; already-delivered bytes are never
    /// re-received. Every [`CtrlMsg::ResumeQuery`] from the peer is
    /// answered with this manifest snapshot so both ends build the
    /// identical plan. A manifest that is already complete completes the
    /// transfer immediately (`done` fires with zero segments) while the
    /// handler stays installed to keep answering queries.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_receiver(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ep: Rc<ControlEndpoint>,
        peer: QpAddr,
        buf_addr: u64,
        manifest: DeliveryManifest,
        initial: SchemeSpec,
        cfg: AdaptConfig,
        done: impl FnOnce(&mut Engine, SimTime, AdaptRecvReport) + 'static,
    ) -> AdaptiveReceiver {
        assert_eq!(
            manifest.segment_bytes(),
            cfg.segment_bytes,
            "resume must run under the original segment geometry"
        );
        let seg_ids = manifest.undelivered();
        let segs: Vec<(u64, u64)> = seg_ids.iter().map(|&id| manifest.segment(id)).collect();
        let resume_base = manifest.clone();
        Self::start_receiver_plan(
            eng,
            qp,
            ctx,
            ep,
            peer,
            buf_addr,
            segs,
            seg_ids,
            manifest,
            resume_base,
            initial,
            cfg,
            Box::new(done),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn start_receiver_plan(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ep: Rc<ControlEndpoint>,
        peer: QpAddr,
        buf_addr: u64,
        segs: Vec<(u64, u64)>,
        seg_ids: Vec<u32>,
        manifest: DeliveryManifest,
        resume_base: DeliveryManifest,
        initial: SchemeSpec,
        cfg: AdaptConfig,
        done: Box<dyn FnOnce(&mut Engine, SimTime, AdaptRecvReport)>,
    ) -> AdaptiveReceiver {
        let est = Rc::new(RefCell::new(ChannelEstimator::new(cfg.telemetry)));
        let telemetry_interval = cfg.rtt / CADENCE_DIV;
        // Captured before the first post: the plan's k-th buffer gets
        // sequence `resume_seq_base + k`, and the peer's k-th stream must
        // meet it.
        let resume_seq_base = qp.next_recv_seq();
        let msg_bytes = manifest.msg_bytes();
        let inner = Rc::new(RefCell::new(RxInner {
            qp: qp.clone(),
            ctx: ctx.clone(),
            ep: ep.clone(),
            peer,
            buf_addr,
            msg_bytes,
            segs,
            seg_ids,
            manifest,
            resume_base,
            resume_seq_base,
            cfg,
            est,
            reported: TelemetryCounters::default(),
            current_spec: initial,
            next_start: 0,
            live: Vec::new(),
            done_segments: 0,
            pending: None,
            committed: None,
            switches: 0,
            verifying: None,
            done_at: None,
            done_cb: Some(done),
            hk_timer: None,
            deadline_timer: None,
        }));

        // Master handler: handover proposals and resume queries arrive
        // here (scheme receivers emit but do not consume control traffic).
        let me = inner.clone();
        ep.set_handler(move |eng, src, msg| Self::rx_on_ctrl(&me, eng, src, msg));

        // An already-complete plan (resume of a fully-delivered manifest):
        // nothing to receive, but the previous life journaled those
        // deliveries at bitmap completion — possibly *before* any digest
        // verdict, when the crash landed inside the verification window —
        // so under payload checksums this life still verifies the landed
        // bytes end-to-end before declaring Delivered (the housekeeping
        // loop below paces the digest probes). Without checksums it
        // finishes immediately. Either way the master handler stays
        // installed so the peer's ResumeQuery keeps getting its
        // idempotent answer.
        if inner.borrow().segs.is_empty() {
            Self::rx_verify(&inner, eng);
            if inner.borrow().done_at.is_some() {
                return AdaptiveReceiver { inner };
            }
        } else {
            // Fill the initial pipeline window.
            Self::rx_fill_pipeline(&inner, eng);
        }

        // Housekeeping loop: telemetry reports, pipeline refills, quiescing
        // of drained predecessors.
        let me = inner.clone();
        let hk = tick_loop(eng, telemetry_interval, move |eng| Self::rx_tick(&me, eng));
        inner.borrow_mut().hk_timer = Some(hk);

        // The receiver arms the deadline independently of the sender: the
        // sender's Abort notify may die in the very outage that caused
        // the miss, and without a local deadline the housekeeping loop
        // would tick forever.
        let deadline = inner.borrow().cfg.deadline;
        if let Some(d) = deadline {
            let me = inner.clone();
            let h = eng.schedule_in_handle(d, move |eng| {
                Self::rx_abort(&me, eng, AbortReason::Deadline, true);
            });
            inner.borrow_mut().deadline_timer = Some(h);
        }
        AdaptiveReceiver { inner }
    }

    /// Receiver-side teardown before completion: `done_at` is stamped
    /// *first* (so segment-completion callbacks racing in via
    /// [`rx_on_segment_done`](Self::rx_on_segment_done) hit its guard),
    /// then every live driver quiesces — slots released exactly once,
    /// scheme tick timers cancelled — the housekeeping and deadline
    /// timers are cancelled, the peer is notified best-effort (when
    /// `notify_peer`), and the user callback fires with
    /// [`Aborted(reason)`](TransferOutcome::Aborted). Returns `false` if
    /// the transfer had already finished.
    fn rx_abort(
        inner: &Rc<RefCell<RxInner>>,
        eng: &mut Engine,
        reason: AbortReason,
        notify_peer: bool,
    ) -> bool {
        let (cb, live, timers) = {
            let mut i = inner.borrow_mut();
            if i.done_at.is_some() {
                return false;
            }
            i.done_at = Some(eng.now());
            let report = AdaptRecvReport {
                segments: i.done_segments,
                switches: i.switches,
                outcome: TransferOutcome::Aborted {
                    reason,
                    manifest: Some(i.manifest.clone()),
                },
            };
            let cb = i.done_cb.take().map(|cb| (cb, report));
            let live = std::mem::take(&mut i.live);
            let timers = [i.hk_timer.take(), i.deadline_timer.take()];
            i.ep.recorder().record(
                eng.now().as_picos(),
                EventKind::Abort,
                reason as u64,
                i.done_segments as u64,
            );
            (cb, live, timers)
        };
        for t in timers.into_iter().flatten() {
            eng.cancel(t);
        }
        for seg in &live {
            seg.recv.quiesce(eng);
        }
        drop(live);
        if notify_peer {
            let (ep, peer) = {
                let i = inner.borrow();
                (i.ep.clone(), i.peer)
            };
            ep.send(eng, peer, &CtrlMsg::Abort { reason });
        }
        if let Some((cb, report)) = cb {
            cb(eng, eng.now(), report);
        }
        true
    }

    /// Posts segments while the outstanding (posted-but-unobserved) data
    /// stays below the pipeline lead — the receiver-side throttle that
    /// keeps the wire full without racing unboundedly ahead (every posted
    /// segment is one the scheme can no longer be changed for) — and while
    /// the slot table has room (lingering pre-handover drivers hold their
    /// slots until the sender's `SegDone` watermark confirms their final
    /// ACK).
    fn rx_fill_pipeline(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine) {
        loop {
            let start = {
                let i = inner.borrow();
                let e = i.next_start as usize;
                // No segment starts after teardown (see tx_pump_segments).
                if i.done_at.is_some() || e >= i.segs.len() {
                    return;
                }
                let lead = i.cfg.lead_packets(&i.qp);
                let outstanding: u64 = i
                    .live
                    .iter()
                    .filter(|s| !s.complete)
                    .map(|s| {
                        let (observed, total) = s.recv.frontier();
                        total.saturating_sub(observed)
                    })
                    .sum();
                // The spec this segment would start under (a pending
                // handover commits exactly at its epoch).
                let spec = match i.pending {
                    Some((_, pe, spec)) if pe == i.next_start => spec,
                    _ => i.current_spec,
                };
                let slots = spec.sends(i.segs[e].1, i.qp.config().chunk_bytes);
                outstanding < lead && i.qp.can_recv_post(slots)
            };
            if !start {
                return;
            }
            Self::rx_start_segment(inner, eng);
        }
    }

    fn rx_start_segment(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine) {
        let mut i = inner.borrow_mut();
        let epoch = i.next_start;
        debug_assert!((epoch as usize) < i.segs.len());
        if let Some((seq, pe, spec)) = i.pending {
            debug_assert!(pe >= epoch, "pending switch cannot target the past");
            if pe == epoch {
                i.current_spec = spec;
                i.committed = Some((seq, pe, spec));
                i.switches += 1;
                i.pending = None;
                note_scheme(&i.ep, eng, EventKind::SchemeHandover, pe, spec);
            }
        }
        let spec = i.current_spec;
        let (off, len) = i.segs[epoch as usize];
        note_scheme(&i.ep, eng, EventKind::SchemeStart, epoch, spec);
        i.next_start += 1;
        let env = SchemeEnv {
            qp: &i.qp,
            ctx: &i.ctx,
            ctrl: EpochGate::new(epoch, i.ep.clone()),
            peer: i.peer,
            addr: i.buf_addr + off,
            bytes: len,
            bandwidth_bps: i.cfg.bandwidth_bps,
            rtt: i.cfg.rtt,
            trace: None,
        };
        // (The borrow stays open across the start: see tx_create_segment.)
        let me = inner.clone();
        let recv = scheme::start_receiver(eng, spec, env, Some(i.est.clone()), move |eng, _at| {
            Self::rx_on_segment_done(&me, eng, epoch)
        });
        i.live.push(RxSeg {
            epoch,
            recv,
            complete: false,
        });
    }

    fn rx_on_segment_done(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine, epoch: u32) {
        let finished = {
            let mut i = inner.borrow_mut();
            if i.done_at.is_some() {
                return;
            }
            let Some(seg) = i.live.iter_mut().find(|s| s.epoch == epoch) else {
                return;
            };
            if seg.complete {
                return; // duplicate completion
            }
            seg.complete = true;
            // Journal the delivery under its *original* segment id: the
            // manifest speaks full-message geometry across lives.
            let id = i.seg_ids[epoch as usize];
            i.manifest.mark_delivered(id);
            i.done_segments += 1;
            i.done_segments as usize == i.segs.len()
        };
        if finished {
            Self::rx_verify(inner, eng);
        } else {
            // Completion freed pipeline budget.
            Self::rx_fill_pipeline(inner, eng);
        }
    }

    /// Every segment's bitmap is complete — but that is a *claim*, not
    /// delivery: chunk-granular retransmits can land a corrupted duplicate
    /// over an already-recorded packet, so the landed bytes must be
    /// digest-checked against the source before Delivered is declared.
    /// Computes the local digest, stores it as the verifying state, and
    /// sends the first [`CtrlMsg::DigestQuery`] (the housekeeping tick
    /// re-sends it until the answer lands — query and answer cross the
    /// same corrupting wire as everything else).
    fn rx_verify(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine) {
        let (ep, peer) = {
            let mut i = inner.borrow_mut();
            if i.done_at.is_some() || i.verifying.is_some() {
                return;
            }
            i.verifying = Some(message_digest(&i.ctx, i.buf_addr, i.msg_bytes));
            (i.ep.clone(), i.peer)
        };
        ep.send(eng, peer, &CtrlMsg::DigestQuery);
    }

    /// Declares the transfer Delivered: fires the completion callback
    /// exactly once and cancels the deadline. (The housekeeping timer
    /// observes `done_at` on its next tick and stops itself.)
    fn rx_deliver(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine) {
        let (cb, timer) = {
            let mut i = inner.borrow_mut();
            if i.done_at.is_some() {
                return;
            }
            i.done_at = Some(eng.now());
            let report = AdaptRecvReport {
                segments: i.segs.len() as u32,
                switches: i.switches,
                outcome: TransferOutcome::Delivered,
            };
            (
                i.done_cb.take().map(|cb| (cb, report)),
                i.deadline_timer.take(),
            )
        };
        if let Some(t) = timer {
            eng.cancel(t);
        }
        if let Some((cb, report)) = cb {
            cb(eng, eng.now(), report);
        }
    }

    fn rx_on_ctrl(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine, _src: QpAddr, msg: CtrlMsg) {
        if let CtrlMsg::ResumeQuery = msg {
            // Answer with the snapshot this life was planned against —
            // never the live manifest, or a query racing in-flight segment
            // completions would hand the resuming sender a *different*
            // plan than the one this receiver posted. Idempotent under any
            // duplication/reordering of queries and answers.
            let (ep, peer, snap, base) = {
                let i = inner.borrow();
                (
                    i.ep.clone(),
                    i.peer,
                    i.resume_base.clone(),
                    i.resume_seq_base,
                )
            };
            ep.send(
                eng,
                peer,
                &CtrlMsg::ResumeState {
                    manifest: snap,
                    base,
                },
            );
            return;
        }
        if let CtrlMsg::Abort { reason } = msg {
            // The sender already tore down; propagate its reason so both
            // ends report the same cause (and do not notify back).
            Self::rx_abort(inner, eng, reason, false);
            return;
        }
        if let CtrlMsg::SegDone { below } = msg {
            // The sender finished these segments: their lingering drivers
            // have nothing left to re-ACK — quiesce them (slots release
            // exactly once; the successor segments need the table space).
            let quiesce = {
                let mut i = inner.borrow_mut();
                let mut out = Vec::new();
                let mut k = 0;
                while k < i.live.len() {
                    if i.live[k].complete && i.live[k].epoch < below {
                        out.push(i.live.swap_remove(k).recv);
                    } else {
                        k += 1;
                    }
                }
                out
            };
            for r in &quiesce {
                r.quiesce(eng);
            }
            return;
        }
        if let CtrlMsg::DigestState { crc } = msg {
            // The sender's whole-plan digest of its source buffer. The
            // message itself crossed the checksummed control plane, so a
            // corrupted copy was already dropped — what arrives here is
            // trustworthy. Compare against the landed bytes: equal means
            // end-to-end byte-identical delivery; different means
            // corruption survived every packet-level check, and the only
            // honest outcome is a clean abort on both ends.
            let local = {
                let i = inner.borrow();
                if i.done_at.is_some() {
                    return; // duplicate answer after the verdict
                }
                i.verifying
            };
            let Some(local) = local else {
                return; // stray answer before verification started
            };
            if local == crc {
                Self::rx_deliver(inner, eng);
            } else {
                Self::rx_abort(inner, eng, AbortReason::Corrupt, true);
            }
            return;
        }
        let CtrlMsg::SwitchPropose { seq, epoch, spec } = msg else {
            return;
        };
        let reply = {
            let mut i = inner.borrow_mut();
            let next_unstarted = i.next_start;
            let effective = match (&i.pending, &i.committed) {
                (Some((ps, pe, _)), _) if *ps == seq => *pe, // idempotent re-ack
                (_, Some((cs, ce, _))) if *cs == seq => *ce, // already applied
                _ => {
                    // New handshake: accept from the proposed epoch or the
                    // first segment not yet started, whichever is later.
                    let e = epoch.max(next_unstarted);
                    i.pending = Some((seq, e, spec));
                    e
                }
            };
            note_scheme(&i.ep, eng, EventKind::SwitchAck, effective, spec);
            CtrlMsg::SwitchAck {
                seq,
                epoch: effective,
            }
        };
        let (ep, peer) = {
            let i = inner.borrow();
            (i.ep.clone(), i.peer)
        };
        ep.send(eng, peer, &reply);
    }

    fn rx_tick(inner: &Rc<RefCell<RxInner>>, eng: &mut Engine) -> Tick {
        // Keep the pipeline full (frontier moved since the last event).
        if inner.borrow().done_at.is_none() {
            Self::rx_fill_pipeline(inner, eng);
        }
        // (Completed segments quiesce on the sender's SegDone watermark —
        // see rx_on_ctrl; pipelined later-segment data proves nothing
        // about earlier final ACKs, so it must not trigger releases.)
        let (report, done) = {
            let i = inner.borrow();
            // Segments step only on news: scan what landed since.
            for s in &i.live {
                s.recv.feed_estimator();
            }
            let counters = i.est.borrow().counters();
            (counters, i.done_at.is_some())
        };
        if done {
            return Tick::Stop;
        }
        let (ep, peer, verifying, moved) = {
            let mut i = inner.borrow_mut();
            let moved = std::mem::replace(&mut i.reported, report) != report;
            (i.ep.clone(), i.peer, i.verifying.is_some(), moved)
        };
        if verifying {
            // Heal the digest handshake: query and answer are single
            // datagrams over a lossy, corrupting wire, so re-ask at the
            // housekeeping cadence until the verdict lands. Telemetry
            // stops — every bitmap is complete, there is nothing left to
            // estimate for.
            ep.send(eng, peer, &CtrlMsg::DigestQuery);
            return Tick::Again;
        }
        // Only news: a report the sender already absorbed says nothing.
        if moved {
            let TelemetryCounters { seen, lost } = report;
            ep.send(eng, peer, &CtrlMsg::Telemetry { seen, lost });
        }
        Tick::Again
    }
}

impl AdaptiveReceiver {
    /// True once every segment is fully delivered.
    pub fn is_complete(&self) -> bool {
        self.inner.borrow().done_at.is_some()
    }

    /// The scheme currently committed on the receiver.
    pub fn current_spec(&self) -> SchemeSpec {
        self.inner.borrow().current_spec
    }

    /// Handovers applied so far.
    pub fn switches(&self) -> u64 {
        self.inner.borrow().switches
    }

    /// Aborts the receiving half now: live drivers quiesce (slots
    /// released exactly once), the housekeeping and deadline timers are
    /// cancelled, the peer is notified best-effort, and the completion
    /// callback fires exactly once with
    /// [`Aborted(reason)`](TransferOutcome::Aborted). Returns `false` if
    /// the transfer had already finished (delivered or aborted).
    pub fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool {
        AdaptiveController::rx_abort(&self.inner, eng, reason, true)
    }

    /// Reads the receiver-side channel estimator.
    pub fn estimator<R>(&self, f: impl FnOnce(&ChannelEstimator) -> R) -> R {
        f(&self.inner.borrow().est.borrow())
    }

    /// A snapshot of the live delivery journal (full-message geometry;
    /// segments delivered in previous lives stay marked).
    pub fn manifest(&self) -> DeliveryManifest {
        self.inner.borrow().manifest.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_table_partitions_the_message() {
        assert_eq!(segments(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(segments(8, 4), vec![(0, 4), (4, 4)]);
        assert_eq!(segments(3, 4), vec![(0, 3)]);
        let segs = segments(1 << 20, 256 * 1024);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), 1 << 20);
    }
}
