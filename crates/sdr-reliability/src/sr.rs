//! Selective Repeat reliability over SDR (§4.1.1) — a policy over the
//! [`runtime`](crate::runtime) building blocks.
//!
//! Sender: streaming SDR sends inject message chunks; each unacknowledged
//! chunk carries a retransmission timeout (`RTO = RTT + α·RTT`) in a
//! [`ChunkTimers`] table; expiry retransmits the chunk via the
//! [`StreamTx`] slot. ACKs remove acknowledged ranges from the
//! retransmission scan; in NACK mode reported holes retransmit immediately
//! through the timers' claim guard (1-RTT repair instead of an RTO, §5.2.1).
//!
//! Receiver: an [`RxScheme`] that, per poll, encodes the SDR chunk bitmap
//! into a cumulative + selective ACK (plus holes in NACK mode). Poll
//! cadence, CTS healing, completion, linger-ACK repeats and buffer release
//! all come from the shared [`RxDriver`].

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::SdrQp;
use sdr_sim::{Engine, FlightRecorder, QpAddr, SimTime};

use crate::ack::{build_sr_ack, CtrlMsg};
use crate::control::CtrlPath;
use crate::runtime::{
    ChunkTimers, CtrlSink, RxCommon, RxDriver, RxScheme, RxStep, StreamTx, TransferOutcome,
    TxDriver, TxProgress, TxScheme,
};
use crate::telemetry::ChannelEstimator;

/// Selective Repeat protocol tuning.
#[derive(Clone, Copy, Debug)]
pub struct SrProtoConfig {
    /// Chunk retransmission timeout.
    pub rto: SimTime,
    /// Receiver bitmap-poll / ACK cadence.
    pub ack_interval: SimTime,
    /// Sender retransmission-scan cadence.
    pub tick: SimTime,
    /// Enable the NACK optimization (receiver reports holes; sender
    /// retransmits without waiting for the RTO).
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
            tick: rtt / 4,
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

/// The Selective Repeat sender protocol as plain data: ACK application,
/// the Karn-gated RTT sample, the NACK claim and the RTO scan over one
/// [`ChunkTimers`] table. It holds no timer and no QP — the caller passes
/// `now`, the timeout values in force and a `resend(chunk)` sink, and
/// schedules the deadline that comes back. One copy runs under both
/// drivers: [`SrSender`] resends straight into its stream at the
/// configured RTO; the [`FlowManager`](crate::flow::FlowManager) queues
/// resends on its urgent lane at population-scaled timeouts.
pub struct SrTxCore {
    timers: ChunkTimers,
    retransmitted: u64,
    acks: u64,
}

impl SrTxCore {
    /// A sender for a message of `total_chunks`, nothing sent yet.
    pub fn new(total_chunks: usize) -> Self {
        SrTxCore {
            timers: ChunkTimers::new(total_chunks),
            retransmitted: 0,
            acks: 0,
        }
    }

    /// Records RTO scans that fire as `rto-fire`/`rto-backoff` events
    /// under transfer `id` (see [`ChunkTimers::set_trace`]).
    pub fn set_trace(&mut self, rec: FlightRecorder, id: u64) {
        self.timers.set_trace(rec, id);
    }

    /// The whole message was injected at `now`.
    pub fn all_sent_at(&mut self, now: SimTime) {
        self.timers.all_sent_at(now);
    }

    /// Chunk `c` was (re)injected at `now` (paced injection stamps chunks
    /// one by one as they reach the wire).
    pub fn record_sent(&mut self, c: usize, now: SimTime) {
        self.timers.record_sent(c, now);
    }

    /// Chunks retransmitted so far (RTO expiries + NACK claims).
    pub fn retransmitted(&self) -> u64 {
        self.retransmitted
    }

    /// ACK datagrams applied so far.
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Applies one [`CtrlMsg::SrAck`] (anything else is ignored): acks the
    /// cumulative prefix and the selective window, then — when
    /// `nack_guard` is `Some` — retransmits the reported holes through the
    /// claim guard. `None` means NACKs are not honoured (yet): the scheme
    /// runs without them, or the first pass is still being injected.
    pub fn on_ctrl(
        &mut self,
        now: SimTime,
        msg: &CtrlMsg,
        rto: SimTime,
        nack_guard: Option<SimTime>,
        resend: impl FnMut(usize),
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
        self.acks += 1;
        let backoff_before = self.timers.backoff();
        // At most one RTT sample per ACK: the first chunk this ACK newly
        // acknowledges, if it was never retransmitted (Karn's rule).
        let mut rtt_sample = None;
        if let Some(first) = self.timers.first_unacked() {
            if first < *cumulative as usize {
                rtt_sample = self.timers.rtt_sample(first, now);
            }
        }
        self.timers.ack_prefix(*cumulative as usize);
        for b in 0..(*sack_len as usize) {
            if sack_bits
                .get(b / 64)
                .is_some_and(|w| w >> (b % 64) & 1 == 1)
            {
                let c = *window_start as usize + b;
                if self.timers.mark_acked(c) && rtt_sample.is_none() {
                    rtt_sample = self.timers.rtt_sample(c, now);
                }
            }
        }
        if let Some(guard) = nack_guard {
            self.claim(now, guard, nacks.iter().copied(), resend);
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

    /// The NACK fast path: retransmits each of `chunks` that is unacked
    /// and was last sent at least `guard` ago, so duplicate reports within
    /// the guard window don't double-send.
    pub fn claim(
        &mut self,
        now: SimTime,
        guard: SimTime,
        chunks: impl IntoIterator<Item = u32>,
        mut resend: impl FnMut(usize),
    ) {
        for c in chunks {
            if self.timers.claim_for_resend(c as usize, now, guard) {
                resend(c as usize);
                self.retransmitted += 1;
            }
        }
    }

    /// The RTO scan: retransmits every chunk unacked for `rto` (scaled by
    /// the backoff) and returns the earliest next expiry — `None` once
    /// everything is acked.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        rto: SimTime,
        mut resend: impl FnMut(usize),
    ) -> Option<SimTime> {
        let retransmitted = &mut self.retransmitted;
        self.timers.take_expired(now, rto, |c| {
            resend(c);
            *retransmitted += 1;
        })
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

    fn on_begin(&mut self, now: SimTime) -> SimTime {
        self.core.all_sent_at(now);
        self.cfg.rto
    }

    fn on_tick(&mut self, eng: &mut Engine, stream: &StreamTx) -> Option<SimTime> {
        let (now, rto) = (eng.now(), self.cfg.rto);
        self.core.on_tick(now, rto, |c| stream.resend_chunk(eng, c))
    }

    fn on_ctrl(&mut self, eng: &mut Engine, stream: &StreamTx, msg: CtrlMsg) -> TxProgress {
        let guard = (self.cfg.nack && stream.is_open()).then_some(self.cfg.tick);
        let (now, rto) = (eng.now(), self.cfg.rto);
        let p = self
            .core
            .on_ctrl(now, &msg, rto, guard, |c| stream.resend_chunk(eng, c));
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
        peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        done: impl FnOnce(&mut Engine, SrReport) + 'static,
    ) -> SrSender {
        Self::start_with_telemetry(
            eng, qp, ctrl, peer_ctrl, local_addr, msg_bytes, cfg, None, done,
        )
    }

    /// [`start`](Self::start) with an optional channel estimator bound:
    /// ACK round-trips then feed RTT samples into it (the sender half of
    /// the adaptive telemetry loop).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_telemetry(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        _peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
        done: impl FnOnce(&mut Engine, SrReport) + 'static,
    ) -> SrSender {
        let scheme = SrTx {
            core: SrTxCore::new(qp.config().chunks_for(msg_bytes) as usize),
            cfg,
            telemetry,
        };
        TxDriver::spawn(eng, qp, &ctrl, local_addr, msg_bytes, scheme, done)
    }

    /// Binds a flight recorder to the retransmission timers (see
    /// [`SrTxCore::set_trace`]).
    pub fn bind_trace(&self, rec: FlightRecorder, id: u64) {
        self.scheme_mut(|s| s.core.set_trace(rec, id));
    }
}

/// The SR receive policy: one bitmap, one cumulative + selective ACK per
/// poll (with holes in NACK mode).
pub struct SrRxScheme {
    pub(crate) total_chunks: usize,
    pub(crate) nack: bool,
}

impl RxScheme for SrRxScheme {
    type Done = ();

    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon, send: CtrlSink<'_>) -> bool {
        let bitmap = rx.bitmap(0);
        // Nothing arrived yet? The CTS may have been lost on the
        // unreliable control path — re-issue it.
        rx.heal_cts(eng, 0, &bitmap);
        if bitmap.is_complete() {
            return true;
        }
        send(
            eng,
            &build_sr_ack(bitmap.chunks(), self.total_chunks, self.nack),
        );
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
    /// Posts the receive buffer and starts the poll/ACK loop. `done` fires
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
        Self::start_with_telemetry(
            eng, qp, ctrl, peer_ctrl, buf_addr, msg_bytes, cfg, None, done,
        )
    }

    /// [`start`](Self::start) with an optional channel estimator bound to
    /// the driver: every poll then feeds first-pass gap counts into it
    /// (the receiver half of the adaptive telemetry loop).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_telemetry(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
        done: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> SrReceiver {
        let mut common = RxCommon::new(qp);
        common.post(eng, buf_addr, msg_bytes);
        if let Some(est) = telemetry {
            common.bind_estimator(est);
        }
        let scheme = SrRxScheme {
            total_chunks: qp.config().chunks_for(msg_bytes) as usize,
            nack: cfg.nack,
        };
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
