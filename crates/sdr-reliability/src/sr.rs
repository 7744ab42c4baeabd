//! Selective Repeat reliability over SDR (§4.1.1) — a policy over the
//! [`runtime`](crate::runtime) building blocks.
//!
//! Sender: streaming SDR sends inject message chunks; each unacknowledged
//! chunk carries a retransmission timeout (`RTO = RTT + α·RTT`) in a
//! [`ChunkTimers`] table, stamped with the instant the chunk *leaves the
//! wire*. ACKs remove what the receiver holds from the retransmission scan;
//! in NACK mode they also drive repair, and every retransmission cites its
//! evidence ([`SrTxCore`]): a hole below the receiver's high-water mark
//! goes out at once (wire order — the 1-RTT repair of §5.2.1), anything
//! else an ACK lacks goes out once a round trip has passed since it left
//! (time — this is what repairs a lost repair or a lost tail), and the
//! RTO scan remains for a silent control channel. A transfer therefore
//! retransmits about one chunk per packet the wire dropped, which is what
//! `sdr-model/src/sr.rs` charges and `tests/model_differential.rs` checks.
//!
//! Receiver: an [`RxScheme`] that speaks only on news, each ACK encoding
//! the *whole* SDR chunk bitmap ([`build_sr_ack`]: cumulative point, the
//! holes below the high-water mark, a selective window as the fallback).
//! What is news and when it is said is [`SrRxScheme`]'s `on_chunk`; after a
//! news ACK and its one repeat the receiver is silent until its next
//! arrival, and the sender's RTO times the silence ([`RxStep::next_step`]
//! is why that cannot wedge). Every SR receiver runs this one policy — per
//! transfer, as an adaptive segment, as a flow. CTS healing, completion,
//! linger-ACK repeats and buffer release all come from the shared
//! [`RxStep`].
//!
//! What each kind of evidence assumes of the wire — on both sides, for the
//! receiver's hole wake-up rests on the same order rule as the sender's
//! at-once repair: order assumes packets of one transfer are not overtaken
//! (**a link is a FIFO**; not so under `LinkConfig::with_reordering` /
//! `with_reorder_jitter` or multipath); time assumes the ACK's own delay
//! stays inside the margin ([`REPAIR_MARGIN_DIV`]). When either fails the
//! cost is one spurious chunk per mistaken verdict — the receiver's bitmap
//! drops the duplicate — never a loss.

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::SdrQp;
use sdr_sim::{Counter, Engine, FlightRecorder, QpAddr, Registry, SimTime};

use crate::ack::{build_sr_ack, CtrlMsg, MAX_SACK_BITS};
use crate::control::CtrlPath;
use crate::runtime::{
    ChunkTimers, CtrlSink, RxCommon, RxDriver, RxScheme, RxStep, StreamTx, TransferOutcome,
    TxDriver, TxProgress, TxScheme,
};
use crate::telemetry::ChannelEstimator;

/// The evidence margin as a fraction of the RTT, the one slack every
/// evidence rule allows the wire. Time: a snapshot must lack a chunk
/// `RTT + RTT/64` after it left the wire before that counts as loss — the
/// margin covers the ACK's own serialization and queueing. Order: a
/// receiver that sees the wire move past something it lacks (an SR hole,
/// an EC submessage's parity) says so `RTT/64` later — long enough for the
/// rest of a burst to share the datagram and for a packet displaced by a
/// few slots to land, short enough to add 1.6 % of a round trip to a
/// repair that costs a whole one.
pub const REPAIR_MARGIN_DIV: u64 = 64;

/// Selective Repeat protocol tuning.
#[derive(Clone, Copy, Debug)]
pub struct SrProtoConfig {
    /// Chunk retransmission timeout.
    pub rto: SimTime,
    /// The receiver's base ACK interval (see [`SrRxScheme`]), also its
    /// CTS-heal and final-ACK linger cadence.
    pub ack_interval: SimTime,
    /// Propagation round trip of the path: how long after a chunk leaves
    /// the wire an ACK can first show it. ACK-driven repair of a chunk an
    /// ACK lacks waits this long (plus [`REPAIR_MARGIN_DIV`]'s margin).
    pub rtt: SimTime,
    /// Enable the NACK optimization (the receiver lists holes and ACKs
    /// drive repair; off, only the RTO retransmits).
    pub nack: bool,
    /// How many extra final ACKs the receiver repeats before releasing the
    /// buffer (tolerates ACK loss on the control path).
    pub linger_acks: u32,
}

impl SrProtoConfig {
    /// The paper's `SR RTO` scenario: `RTO = 3 RTT`.
    pub fn rto_3rtt(rtt: SimTime) -> Self {
        SrProtoConfig {
            rto: rtt * 3,
            ack_interval: rtt / 4,
            rtt,
            nack: false,
            linger_acks: 25,
        }
    }

    /// The paper's `SR NACK` scenario: hole reports enable 1-RTT repair.
    pub fn nack(rtt: SimTime) -> Self {
        SrProtoConfig {
            nack: true, // the RTO stays as a safety net; NACKs do the work
            ..Self::rto_3rtt(rtt)
        }
    }
}

/// Sender-side transfer outcome.
#[derive(Clone, Debug)]
pub struct SrReport {
    /// Write completion time: first injection to final-ACK reception
    /// (§4.2.1's `T_protocol`).
    pub duration: SimTime,
    /// Chunks retransmitted.
    pub retransmitted: u64,
    /// ACK datagrams processed.
    pub acks: u64,
    /// How the transfer ended ([`TransferOutcome::Aborted`] after
    /// [`SrSender::abort`]; `duration` then covers start → abort).
    pub outcome: TransferOutcome,
}

/// Registry counters saying *why* each chunk was resent (`sr.retx.*`) and
/// how many hole reports were held back (`sr.nack.stale`). Every SR sender
/// on a fabric shares the handles, so they sum across transfers and flows;
/// [`SrReport::retransmitted`] is one transfer's share of the three
/// `sr.retx.*` counts.
#[derive(Clone)]
pub struct SrTrace {
    /// `sr.retx.hole`: ordering evidence — the receiver holds a chunk sent
    /// after this one, and this one had never been resent.
    hole: Counter,
    /// `sr.retx.overdue`: time evidence — a snapshot still lacks the chunk
    /// a round trip after its latest copy left the wire.
    overdue: Counter,
    /// `sr.retx.rto`: the timer — no snapshot said anything for an RTO.
    rto: Counter,
    /// `sr.nack.stale`: a reported hole whose repair is still in flight.
    stale: Counter,
}

impl SrTrace {
    /// Binds (or retrieves) the `sr.*` family in `reg`.
    pub fn new(reg: &Registry) -> Self {
        SrTrace {
            hole: reg.counter("sr.retx.hole"),
            overdue: reg.counter("sr.retx.overdue"),
            rto: reg.counter("sr.retx.rto"),
            stale: reg.counter("sr.nack.stale"),
        }
    }
}

/// The Selective Repeat sender protocol as plain data: ACK application,
/// the Karn-gated RTT sample, evidence-based repair and the RTO scan over
/// one [`ChunkTimers`] table. It holds no timer and no QP — the caller
/// passes `now`, the timeout values in force and a `resend(chunk)` sink
/// that returns the copy's departure stamp, and schedules the deadline
/// that comes back. One copy runs under both drivers: [`SrSender`] resends
/// straight into its stream at the configured RTO; the
/// [`FlowManager`](crate::flow::FlowManager) queues resends on its urgent
/// lane at population-scaled timeouts.
///
/// **One repair rule.** Every retransmission cites evidence that the wire
/// lost the chunk's latest copy:
///
/// * *order* — an ACK lists the chunk as a hole below the receiver's
///   high-water mark and it was never resent: something sent after it
///   arrived, so on an in-order wire it is gone. Resent at once (the
///   paper's 1-RTT repair, §5.2.1). Under reordering the evidence can be
///   wrong; that costs one spurious chunk, never a loss.
/// * *time* — an ACK lacks the chunk (a hole already repaired once, or a
///   chunk past everything the receiver has seen) and its latest copy left
///   the wire at least `overdue` ago — one round trip plus a margin for the
///   ACK's own queueing. The snapshot was taken after that copy would have
///   arrived, so it did not (RACK-style detection, RFC 8985, exact because
///   stamps are departures). This is what repairs a lost repair and a lost
///   tail, which no hole report can name.
/// * *silence* — nothing acked the chunk for an RTO: the scan, with its
///   backoff, for when the control channel itself is dark.
pub struct SrTxCore {
    timers: ChunkTimers,
    retransmitted: u64,
    acks: u64,
    trace: SrTrace,
}

impl SrTxCore {
    /// A sender for a message of `total_chunks`, nothing sent yet.
    pub fn new(total_chunks: usize, trace: SrTrace) -> Self {
        SrTxCore {
            timers: ChunkTimers::new(total_chunks),
            retransmitted: 0,
            acks: 0,
            trace,
        }
    }

    /// Records RTO scans that fire as `rto-fire`/`rto-backoff` events
    /// under transfer `id` (see [`ChunkTimers::set_trace`]).
    pub fn set_trace(&mut self, rec: FlightRecorder, id: u64) {
        self.timers.set_trace(rec, id);
    }

    /// The latest copy of chunk `c` leaves the sender's wire at `departs`
    /// (first pass or repair — whoever puts it on the device reports it).
    pub fn record_sent(&mut self, c: usize, departs: SimTime) {
        self.timers.record_sent(c, departs);
    }

    /// Chunks retransmitted so far, whatever the evidence.
    pub fn retransmitted(&self) -> u64 {
        self.retransmitted
    }

    /// ACK datagrams applied so far.
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Applies one [`CtrlMsg::SrAck`] (anything else is ignored): acks
    /// what the snapshot holds — the cumulative prefix, every chunk below
    /// `window_start` that is not a listed hole, the set bits of the
    /// selective window — then, when `overdue` is `Some`, repairs what it
    /// lacks under the rule above. `None` means ACKs do not drive repair
    /// (yet): the scheme runs without NACKs, or the first pass is still
    /// being injected.
    ///
    /// An ACK whose hole list is not ascending inside `[cumulative,
    /// window_start)` contradicts itself and is dropped whole — acking a
    /// hole would lose data.
    pub fn on_ctrl(
        &mut self,
        now: SimTime,
        msg: &CtrlMsg,
        rto: SimTime,
        overdue: Option<SimTime>,
        mut resend: impl FnMut(usize) -> SimTime,
    ) -> TxProgress {
        let CtrlMsg::SrAck {
            cumulative,
            window_start,
            sack_bits,
            sack_len,
            nacks,
        } = msg
        else {
            return TxProgress::default();
        };
        let listed_in_order = nacks.windows(2).all(|w| w[0] < w[1])
            && nacks.first().is_none_or(|h| h >= cumulative)
            && nacks.last().is_none_or(|h| h < window_start);
        if window_start < cumulative || !listed_in_order {
            return TxProgress::default();
        }
        // Nothing past the message exists to ack or repair, whatever a
        // malformed ACK claims.
        let total = self.timers.total();
        let (cumulative, window_start) = (
            (*cumulative as usize).min(total),
            (*window_start as usize).min(total),
        );
        let window_len = (*sack_len as usize).min(total - window_start);
        self.acks += 1;
        let backoff_before = self.timers.backoff();
        // At most one RTT sample per ACK: the first chunk this ACK newly
        // acknowledges, if it was never retransmitted (Karn's rule).
        let mut rtt_sample = None;
        let mut ack = |timers: &mut ChunkTimers, c: usize| {
            if timers.mark_acked(c) && rtt_sample.is_none() {
                rtt_sample = timers.rtt_sample(c, now);
            }
        };
        let first = self.timers.first_unacked().unwrap_or(cumulative);
        for c in first..cumulative {
            ack(&mut self.timers, c);
        }
        let mut holes = nacks.iter().map(|&h| h as usize).peekable();
        for c in cumulative..window_start {
            if holes.next_if_eq(&c).is_none() {
                ack(&mut self.timers, c);
            }
        }
        for b in 0..window_len {
            if sack_bits
                .get(b / 64)
                .is_some_and(|w| w >> (b % 64) & 1 == 1)
            {
                ack(&mut self.timers, window_start + b);
            }
        }
        if let Some(overdue) = overdue {
            for &h in nacks {
                let h = h as usize;
                if !self.timers.is_unacked(h) {
                    continue; // an ACK overtaken by a later one
                }
                if !self.timers.was_resent(h) {
                    self.trace.hole.inc();
                    self.resent(h, resend(h));
                } else if !self.repair_overdue(h, now, overdue, &mut resend) {
                    self.trace.stale.inc();
                }
            }
            // Holes the list had no room for (the window's clear bits),
            // and — when the window stops short of its cap, so it reached
            // the high-water mark — everything past it.
            let lacking_end = if (*sack_len as usize) < MAX_SACK_BITS {
                total
            } else {
                window_start + window_len
            };
            for c in window_start..lacking_end {
                self.repair_overdue(c, now, overdue, &mut resend);
            }
        }
        let complete = self.timers.is_complete();
        // Backoff heal: this ACK made progress after backed-off silence (a
        // blackout just ended), so the scan may be parked at a far
        // backed-off deadline — pull it back to one base RTO from now.
        let healed = backoff_before > 0 && self.timers.backoff() == 0 && !complete;
        TxProgress {
            complete,
            rearm: healed.then(|| now.saturating_add(rto)),
            ack_rtt: rtt_sample,
        }
    }

    /// Time-evidence repair of a set of chunks outside any ACK (the EC
    /// flow fallback names a whole submessage): retransmits each that is
    /// unacked and whose latest copy left the wire at least `overdue` ago.
    pub fn claim(
        &mut self,
        now: SimTime,
        overdue: SimTime,
        chunks: impl IntoIterator<Item = u32>,
        mut resend: impl FnMut(usize) -> SimTime,
    ) {
        for c in chunks {
            self.repair_overdue(c as usize, now, overdue, &mut resend);
        }
    }

    /// The RTO scan: retransmits every chunk unacked for `rto` (scaled by
    /// the backoff) since its latest copy left the wire and returns the
    /// earliest next expiry — `None` once everything is acked.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        rto: SimTime,
        mut resend: impl FnMut(usize) -> SimTime,
    ) -> Option<SimTime> {
        let mut fired = 0;
        let next = self.timers.take_expired(now, rto, |c| {
            fired += 1;
            resend(c)
        });
        self.retransmitted += fired;
        self.trace.rto.add(fired);
        next
    }

    /// Resends `c` when the time evidence holds; `true` when it did.
    fn repair_overdue(
        &mut self,
        c: usize,
        now: SimTime,
        overdue: SimTime,
        resend: &mut impl FnMut(usize) -> SimTime,
    ) -> bool {
        let due = self.timers.overdue(c, now, overdue);
        if due {
            self.trace.overdue.inc();
            self.resent(c, resend(c));
        }
        due
    }

    fn resent(&mut self, c: usize, departs: SimTime) {
        self.timers.record_resent(c, departs);
        self.retransmitted += 1;
    }
}

/// [`SrTxCore`] as a [`TxScheme`]: under the per-transfer driver resends
/// go straight into the stream and the timeouts are the configured ones.
pub struct SrTx {
    core: SrTxCore,
    cfg: SrProtoConfig,
    /// When bound, newly acked never-retransmitted chunks feed ACK
    /// round-trip RTT samples into the estimator.
    telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
}

impl TxScheme for SrTx {
    type Report = SrReport;

    fn on_sent(&mut self, _send: usize, chunk: usize, departs: SimTime) {
        self.core.record_sent(chunk, departs);
    }

    fn on_begin(&mut self, _now: SimTime) -> Option<SimTime> {
        // No chunk leaves the wire before now, so none expires sooner.
        Some(self.cfg.rto)
    }

    fn on_tick(&mut self, eng: &mut Engine, stream: &StreamTx) -> Option<SimTime> {
        let (now, rto) = (eng.now(), self.cfg.rto);
        self.core.on_tick(now, rto, |c| stream.resend_chunk(eng, c))
    }

    fn on_ctrl(&mut self, eng: &mut Engine, stream: &StreamTx, msg: CtrlMsg) -> TxProgress {
        let overdue = (self.cfg.nack && stream.is_open())
            .then(|| self.cfg.rtt + self.cfg.rtt / REPAIR_MARGIN_DIV);
        let (now, rto) = (eng.now(), self.cfg.rto);
        let p = self
            .core
            .on_ctrl(now, &msg, rto, overdue, |c| stream.resend_chunk(eng, c));
        if let (Some(sample), Some(est)) = (p.ack_rtt, &self.telemetry) {
            est.borrow_mut().observe_rtt(sample);
        }
        p
    }

    fn report(&self, duration: SimTime, outcome: TransferOutcome) -> SrReport {
        SrReport {
            duration,
            retransmitted: self.core.retransmitted(),
            acks: self.core.acks(),
            outcome,
        }
    }
}

/// The SR sender protocol object: the per-transfer driver over [`SrTx`]
/// (`is_done` and `abort` are the driver's).
pub type SrSender = TxDriver<SrTx>;

impl TxDriver<SrTx> {
    /// Starts an SR-protected transfer of `[local_addr, local_addr +
    /// msg_bytes)` to the connected peer. `done` fires at completion with
    /// the sender-side report. The receiver must run [`SrReceiver`].
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        _peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        done: impl FnOnce(&mut Engine, SrReport) + 'static,
    ) -> SrSender {
        let scheme = SrTx {
            core: SrTxCore::new(
                qp.config().chunks_for(msg_bytes) as usize,
                SrTrace::new(&qp.metrics()),
            ),
            cfg,
            telemetry: None,
        };
        TxDriver::spawn(eng, qp, &ctrl, local_addr, msg_bytes, scheme, done)
    }

    /// Binds a channel estimator: ACK round trips then feed RTT samples
    /// into it (the sender half of the adaptive telemetry loop).
    pub fn bind_estimator(&self, est: Rc<RefCell<ChannelEstimator>>) {
        self.scheme_mut(|s| s.telemetry = Some(est));
    }

    /// Binds a flight recorder to the retransmission timers (see
    /// [`SrTxCore::set_trace`]).
    pub fn bind_trace(&self, rec: FlightRecorder, id: u64) {
        self.scheme_mut(|s| s.core.set_trace(rec, id));
    }
}

/// The SR receive policy of every SR receiver (per transfer, adaptive
/// segment, flow): one bitmap, one cumulative + selective ACK per step
/// (with holes in NACK mode), a step only on news.
pub struct SrRxScheme {
    total_chunks: usize,
    nack: bool,
    /// How long an arrival's report waits for the rest of its burst.
    margin: SimTime,
    /// The base ACK interval.
    interval: SimTime,
    /// One interval after the last ACK: in-order news waits for it.
    paced: SimTime,
    /// One past the highest chunk an arrival reported complete.
    next_expected: usize,
}

impl SrRxScheme {
    /// The policy for a message of `total_chunks` on a path of round trip
    /// `rtt`, speaking at most once per `interval` on in-order news;
    /// `nack` turns hole reports on.
    pub(crate) fn new(total_chunks: usize, nack: bool, rtt: SimTime, interval: SimTime) -> Self {
        SrRxScheme {
            total_chunks,
            nack,
            margin: rtt / REPAIR_MARGIN_DIV,
            interval,
            paced: SimTime::ZERO,
            next_expected: 0,
        }
    }
}

impl RxScheme for SrRxScheme {
    type Done = ();

    /// Every completed chunk is news: nothing else would ever acknowledge
    /// it. Completion is acted on at once. In NACK mode a chunk completing
    /// above the next one expected is the order evidence the sender's
    /// repair rule acts on (on a FIFO wire the skipped chunks are lost);
    /// its ACK leaves a margin later, so a burst of holes shares it and the
    /// skipped chunks' stragglers land first. Other news waits a margin
    /// too, and one interval after the last ACK: a streaming transfer ACKs
    /// once an interval. Where the wire reorders, the price is an ACK
    /// listing a hole that is about to fill and one spurious repair.
    fn on_chunk(
        &mut self,
        rx: &RxCommon,
        _slot: usize,
        chunk: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        let exposed = self.nack && chunk > self.next_expected;
        self.next_expected = self.next_expected.max(chunk + 1);
        rx.wake_if_complete(now).or_else(|| {
            let soon = now.saturating_add(self.margin);
            if exposed {
                rx.note_hole_wake();
                return Some(soon);
            }
            Some(soon.max(self.paced))
        })
    }

    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon, send: CtrlSink<'_>) -> bool {
        let bitmap = rx.bitmap(0);
        if bitmap.is_complete() {
            return true;
        }
        // An ACK before any chunk completed would acknowledge nothing.
        if self.next_expected > 0 {
            send(
                eng,
                &build_sr_ack(bitmap.chunks(), self.total_chunks, self.nack),
            );
            self.paced = eng.now().saturating_add(self.interval);
        }
        false
    }

    /// What [`build_sr_ack`] yields for a complete bitmap: everything
    /// cumulative, an empty window (a constant, so the linger repeats
    /// don't need the released slot's bitmap).
    fn final_ack(&self) -> CtrlMsg {
        CtrlMsg::SrAck {
            cumulative: self.total_chunks as u32,
            window_start: self.total_chunks as u32,
            sack_bits: Vec::new(),
            sack_len: 0,
            nacks: Vec::new(),
        }
    }

    fn done_payload(&self) {}
}

/// The SR receiver protocol object: the per-transfer driver over the SR
/// receive policy (`is_complete`, `is_released`, `quiesce` and
/// `frontier` are the driver's).
pub type SrReceiver = RxDriver<SrRxScheme>;

impl RxDriver<SrRxScheme> {
    /// Posts the receive buffer and starts the receive loop. `done` fires
    /// when all chunks have arrived (receiver-side completion instant).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        done: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> SrReceiver {
        let mut common = RxCommon::new(qp);
        common.post(eng, buf_addr, msg_bytes);
        let total_chunks = qp.config().chunks_for(msg_bytes) as usize;
        let scheme = SrRxScheme::new(total_chunks, cfg.nack, cfg.rtt, cfg.ack_interval);
        let rx = RxStep::new(common, scheme, cfg.linger_acks);
        RxDriver::spawn(
            eng,
            cfg.ack_interval,
            ctrl,
            peer_ctrl,
            rx,
            move |eng, t, ()| done(eng, t),
        )
    }
}
