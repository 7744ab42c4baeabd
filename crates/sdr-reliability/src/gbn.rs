//! Go-Back-N reliability over SDR — the commodity-NIC baseline, and the
//! runtime's composability proof.
//!
//! The paper restricts its protocol study to Selective Repeat because SR's
//! efficiency provably dominates Go-Back-N (§4, citing Bertsekas &
//! Gallager); `sdr-model/src/gbn.rs` models the gap but nothing implemented
//! it. This module does, as a third policy over the
//! [`runtime`](crate::runtime) building blocks — no new timer, lifecycle or
//! control plumbing, which is precisely the paper's software-defined claim:
//!
//! * **Sender**: one [`StreamTx`] slot and one [`ChunkTimers`] table, like
//!   SR — but the only timer that matters is the *base* (first unacked
//!   chunk). When it expires, the sender rewinds: it re-injects the whole
//!   window `[base, base + W)`, the behavior of a NIC whose transport keeps
//!   no selective state. Every rewind re-sends chunks that already arrived,
//!   which is the `min(W, M − i)·T_INJ` per-drop penalty the model charges.
//! * **Receiver**: an [`RxScheme`] whose ACK carries *only* the cumulative
//!   point ([`CtrlMsg::GbnAck`]) — it deliberately ignores the selective
//!   information SDR's bitmap offers, emulating an in-order transport.
//!
//! Validated differentially against the closed-form `sdr-model::gbn` in
//! `tests/gbn_differential.rs`, including the SR-dominance ordering.

use std::rc::Rc;

use sdr_core::SdrQp;
use sdr_sim::{Engine, EventKind, FlightRecorder, QpAddr, SimTime};

use crate::ack::CtrlMsg;
use crate::control::CtrlPath;
use crate::runtime::{
    ChunkTimers, CtrlSink, RxCommon, RxDriver, RxScheme, RxStep, StreamTx, TransferOutcome,
    TxDriver, TxProgress, TxScheme, RTO_BACKOFF_CAP,
};

/// Go-Back-N protocol tuning.
#[derive(Clone, Copy, Debug)]
pub struct GbnProtoConfig {
    /// Base-chunk retransmission timeout (the only timer GBN keeps).
    pub rto: SimTime,
    /// Send window in chunks: how much a rewind re-injects.
    pub window_chunks: usize,
    /// Receiver bitmap-poll / ACK cadence.
    pub ack_interval: SimTime,
    /// Final-ACK repeats before the receiver releases its buffer.
    pub linger_acks: u32,
}

impl GbnProtoConfig {
    /// A well-tuned commodity NIC: window sized to the bandwidth–delay
    /// product, `RTO = rto_mult · RTT` — mirroring
    /// `sdr_model::GbnConfig::bdp_window` so protocol and model are
    /// directly comparable.
    pub fn bdp_window(ch: &sdr_model::Channel, rtt: SimTime, rto_mult: f64) -> Self {
        let window = (ch.bdp_bytes() / ch.chunk_bytes as f64).ceil() as usize;
        GbnProtoConfig {
            rto: SimTime::from_secs_f64(rto_mult * ch.rtt_s),
            window_chunks: window.max(1),
            ack_interval: rtt / 4,
            linger_acks: 25,
        }
    }
}

/// Sender-side transfer outcome.
#[derive(Clone, Debug)]
pub struct GbnReport {
    /// Write completion time: first injection to final-ACK reception.
    pub duration: SimTime,
    /// Chunks re-injected by rewinds (including already-delivered ones —
    /// the GBN waste SR avoids).
    pub retransmitted: u64,
    /// Window rewinds served (one per base-timer expiry).
    pub rewinds: u64,
    /// ACK datagrams processed.
    pub acks: u64,
    /// How the transfer ended ([`TransferOutcome::Aborted`] after
    /// [`GbnSender::abort`]; `duration` then covers start → abort).
    pub outcome: TransferOutcome,
}

/// The GBN send policy: one [`ChunkTimers`] table used only for its
/// cumulative cursor, and a single base timer.
pub struct GbnTx {
    timers: ChunkTimers,
    cfg: GbnProtoConfig,
    /// The single GBN timer: (re)armed at begin, on every rewind and on
    /// every base advance — classic Go-Back-N keeps no per-chunk state, so
    /// consecutive holes serialize one RTO each (exactly what the model
    /// charges per drop).
    timer_armed_at: SimTime,
    /// RTO backoff exponent: each rewind doubles the effective RTO (capped
    /// at [`RTO_BACKOFF_CAP`]); a base advance resets it — so a blackout
    /// costs O(log outage/RTO) window rewinds instead of outage/RTO.
    backoff: u32,
    retransmitted: u64,
    rewinds: u64,
    acks: u64,
    /// Optional flight-recorder binding `(recorder, transfer id)`: window
    /// rewinds record `rto-fire`/`rto-backoff` events like the SR sender's
    /// [`ChunkTimers`] trace does.
    trace: Option<(FlightRecorder, u64)>,
}

impl GbnTx {
    /// The base RTO scaled by the current backoff exponent.
    fn rto_effective(&self) -> SimTime {
        self.cfg.rto * (1u64 << self.backoff)
    }
}

impl TxScheme for GbnTx {
    type Report = GbnReport;

    fn on_begin(&mut self, now: SimTime) -> Option<SimTime> {
        self.timer_armed_at = now;
        // GBN keeps exactly one timer, so the driver's loop sleeps
        // straight to its expiry; ack-restarts push it out.
        Some(self.cfg.rto)
    }

    /// The GBN repair rule: when the base timer expires, rewind — re-inject
    /// the entire window from the first unacked chunk and restart the
    /// timer. No selective state: a later hole waits its own full RTO
    /// after the earlier one repairs (the serialization the model charges).
    fn on_tick(&mut self, eng: &mut Engine, stream: &StreamTx) -> Option<SimTime> {
        let now = eng.now();
        let base = self.timers.first_unacked()?;
        // Effective RTO: doubled per rewind while the base is not moving
        // (capped), reset by the ack-restart in `on_ctrl` — the exponential
        // backoff that keeps a blackout from charging one rewind per RTO.
        if now.saturating_sub(self.timer_armed_at) >= self.rto_effective() {
            let sent = stream.resend_window(eng, base, self.cfg.window_chunks);
            self.timer_armed_at = now;
            self.backoff = (self.backoff + 1).min(RTO_BACKOFF_CAP);
            self.retransmitted += sent as u64;
            self.rewinds += 1;
            if let Some((rec, id)) = &self.trace {
                rec.record(now.as_picos(), EventKind::RtoFire, *id, sent as u64);
                rec.record(
                    now.as_picos(),
                    EventKind::RtoBackoff,
                    *id,
                    self.backoff as u64,
                );
            }
        }
        Some(self.timer_armed_at.saturating_add(self.rto_effective()))
    }

    fn on_ctrl(&mut self, eng: &mut Engine, _stream: &StreamTx, msg: CtrlMsg) -> TxProgress {
        // Cumulative ACKs only.
        let CtrlMsg::GbnAck { cumulative } = msg else {
            return TxProgress::default();
        };
        self.acks += 1;
        let base_before = self.timers.first_unacked();
        self.timers.ack_prefix(cumulative as usize);
        // Base advanced → the in-order prefix is moving: restart the timer
        // (the classic GBN ack-restart rule, which restarts the backoff
        // with it) and push the sleeping watch out to the new deadline.
        let advanced = self.timers.first_unacked() != base_before;
        if advanced {
            self.timer_armed_at = eng.now();
            self.backoff = 0;
        }
        TxProgress {
            complete: self.timers.is_complete(),
            rearm: advanced.then(|| self.timer_armed_at.saturating_add(self.cfg.rto)),
            ack_rtt: None,
        }
    }

    fn report(&self, duration: SimTime, outcome: TransferOutcome) -> GbnReport {
        GbnReport {
            duration,
            retransmitted: self.retransmitted,
            rewinds: self.rewinds,
            acks: self.acks,
            outcome,
        }
    }
}

/// The GBN sender protocol object: the per-transfer driver over [`GbnTx`]
/// (`is_done` and `abort` are the driver's).
pub type GbnSender = TxDriver<GbnTx>;

impl TxDriver<GbnTx> {
    /// Starts a GBN-protected transfer of `[local_addr, local_addr +
    /// msg_bytes)` to the connected peer. `done` fires at completion with
    /// the sender-side report. The receiver must run [`GbnReceiver`].
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        _peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: GbnProtoConfig,
        done: impl FnOnce(&mut Engine, GbnReport) + 'static,
    ) -> GbnSender {
        let scheme = GbnTx {
            timers: ChunkTimers::new(qp.config().chunks_for(msg_bytes) as usize),
            cfg,
            timer_armed_at: SimTime::ZERO,
            backoff: 0,
            retransmitted: 0,
            rewinds: 0,
            acks: 0,
            trace: None,
        };
        TxDriver::spawn(eng, qp, &ctrl, local_addr, msg_bytes, scheme, done)
    }

    /// Binds a flight recorder: window rewinds record `rto-fire` (b =
    /// chunks re-injected) and `rto-backoff` (b = new exponent) events
    /// under transfer `id`.
    pub fn bind_trace(&self, rec: FlightRecorder, id: u64) {
        self.scheme_mut(|s| s.trace = Some((rec, id)));
    }
}

/// The GBN receive policy: the ACK carries only the cumulative prefix —
/// SDR's selective bitmap state is deliberately discarded, like an in-order
/// commodity transport would.
pub struct GbnRxScheme {
    pub(crate) total_chunks: usize,
}

impl RxScheme for GbnRxScheme {
    type Done = ();

    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon, send: CtrlSink<'_>) -> bool {
        let bitmap = rx.bitmap(0);
        let cumulative = bitmap.chunks().cumulative_prefix(self.total_chunks);
        if cumulative == self.total_chunks {
            return true;
        }
        let cumulative = cumulative as u32;
        send(eng, &CtrlMsg::GbnAck { cumulative });
        false
    }

    /// The cumulative-ACK clock: an ACK every interval, news or not, as an
    /// in-order transport's receiver would.
    fn deadline(&self, now: SimTime, interval: SimTime) -> Option<SimTime> {
        Some(now.saturating_add(interval))
    }

    fn final_ack(&self) -> CtrlMsg {
        CtrlMsg::GbnAck {
            cumulative: self.total_chunks as u32,
        }
    }

    fn done_payload(&self) {}
}

/// The GBN receiver protocol object: the per-transfer driver over the GBN
/// receive policy (`is_complete`, `is_released`, `quiesce` and
/// `frontier` are the driver's).
pub type GbnReceiver = RxDriver<GbnRxScheme>;

impl RxDriver<GbnRxScheme> {
    /// Posts the receive buffer and starts the poll/ACK loop. `done` fires
    /// when the cumulative prefix covers the whole message.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: GbnProtoConfig,
        done: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> GbnReceiver {
        let mut common = RxCommon::new(qp);
        common.post(eng, buf_addr, msg_bytes);
        let scheme = GbnRxScheme {
            total_chunks: qp.config().chunks_for(msg_bytes) as usize,
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
