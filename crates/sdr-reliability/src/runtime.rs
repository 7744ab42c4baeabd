//! The software-defined scheme runtime (§4): the shared building blocks
//! reliability schemes are composed from.
//!
//! The paper's central architectural claim is that reliability is
//! *software-defined*: SDR exposes a partial-completion bitmap and leaves
//! the scheme — Selective Repeat, Erasure Coding, Go-Back-N, or anything
//! else — to host software composed from a small set of common mechanisms.
//! This module is that mechanism layer. A scheme is a plain-data *core*
//! (what to repair, what to say) and the code here is what *schedules* it:
//!
//! * [`tick_loop`] — **timer management**: one recurring engine event
//!   (boxed once, re-armed in place) that runs until the policy says
//!   [`Tick::Stop`]. Policies whose next action has a known time return
//!   [`Tick::Until`] and *sleep to the deadline* — the SR sender sleeps to
//!   its earliest chunk RTO and the GBN sender to its base timer, instead
//!   of polling every quarter-RTT — and the returned [`TimerHandle`] lets
//!   completion cancel the loop outright.
//! * [`ChunkTimers`] — **retransmission timers + ACK bookkeeping** for ARQ
//!   senders: per-chunk *departure* stamps, acked flags with a monotone
//!   first-unacked cursor, the RTO expiry scan and the overdue test behind
//!   time-based repair. A stamp is the instant the chunk's last packet
//!   leaves the sender's wire — not when it was posted: a post only parks
//!   packets in the device FIFO, possibly milliseconds deep — so every
//!   clock that starts from a stamp (RTO, overdue test, Karn RTT sample)
//!   starts when the bytes do, and a chunk still queued has a stamp in the
//!   future and is never resent.
//! * [`StreamTx`] — **sender message-slot lifecycle**, for every send of a
//!   transfer: open in send-sequence order on credit and never after the
//!   end, inject any range (first pass and repair alike; every injection
//!   reports the departure stamps it earned), end *and release* exactly
//!   once. The SDR send API is called from here and nowhere else in the
//!   crate (CI's send-lifecycle audit): the SR, GBN and EC senders and the
//!   flow population all hold one, and differ only in who decides when a
//!   range is injected.
//! * [`TxDriver`] + [`TxScheme`] — the **per-transfer sender driver**:
//!   open-now-or-on-CTS, the timer loop, control dispatch, and the
//!   exactly-once finish shared by completion and abort ([`Completion`]).
//!   SR, GBN and EC senders are each a [`TxScheme`] under it.
//! * [`RxStep`] + [`RxScheme`] — the **receive step**: one scheme poll,
//!   the first-pass telemetry feed, completion detection, the final-ACK
//!   linger countdown, the exactly-once slot release, and the rule for
//!   *when the next step runs* ([`RxStep::next_step`]). It is plain state
//!   stepped by whoever owns the timer, and every owner subscribes it to
//!   its slots' chunk completions ([`SdrQp::set_chunk_hook`]): an arrival
//!   the scheme calls *news* ([`RxScheme::on_chunk`] — the message is
//!   complete, wire order exposed a hole, a submessage can be decided)
//!   pulls the owner's timer forward, so completion and repair are acted
//!   on when the bitmap changes, not when a poll clock next fires.
//!   [`RxDriver`] wraps it in a [`tick_loop`] for one transfer and caps
//!   the rule with a *heartbeat*, there for silence (a lost CTS, a lost
//!   tail, the linger repeats). The
//!   [`FlowManager`](crate::flow::FlowManager) steps thousands of them
//!   from its shared due index and adds no heartbeat: a flow whose scheme
//!   leaves silence to its sender has no timer at all between one
//!   arrival's ACK (and its one repeat) and the next arrival.
//!
//! `sr.rs`, `ec.rs` and `gbn.rs` contain only what is genuinely different
//! between the schemes: the ACK wire policy and the repair rule. Adding a
//! new scheme means implementing [`RxScheme`] plus a [`TxScheme`] — no new
//! timer, lifecycle or control plumbing.

use std::cell::RefCell;
use std::num::NonZeroU64;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use sdr_core::{RecvHandle, SdrQp, SendHandle, TwoLevelBitmap};
use sdr_sim::{Counter, Engine, EventKind, FlightRecorder, QpAddr, Registry, SimTime, TimerHandle};

use crate::ack::CtrlMsg;
use crate::control::CtrlPath;
use crate::telemetry::{ChannelEstimator, FirstPassCursor, TelemetryCounters};

// ---------------------------------------------------------------------------
// Failure semantics
// ---------------------------------------------------------------------------

/// Maximum retransmission-timeout backoff exponent: an unacknowledged
/// timeout at most doubles the effective RTO this many times (a 64× cap).
/// The cap bounds the post-heal discovery latency after a long blackout
/// while still collapsing the retransmission storm to
/// O(log blackout / RTO) copies per chunk.
pub const RTO_BACKOFF_CAP: u32 = 6;

/// Why a transfer ended without delivering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The transfer's deadline expired before delivery.
    Deadline,
    /// The local application tore the transfer down.
    Requested,
    /// The peer announced an abort on the control path.
    Peer,
    /// The local endpoint crashed and restarted: volatile protocol state
    /// is gone, but registered memory — and the receiver's
    /// [`DeliveryManifest`] checkpoint — survives for a resume.
    Restart,
    /// The end-to-end digest check failed: wire corruption survived the
    /// packet-level checksums (a corrupted duplicate overwrote memory
    /// whose bitmap bit was already set) and the delivered bytes would
    /// have been wrong. A clean abort — never a silent corruption.
    Corrupt,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Deadline => write!(f, "deadline"),
            AbortReason::Requested => write!(f, "requested"),
            AbortReason::Peer => write!(f, "peer"),
            AbortReason::Restart => write!(f, "restart"),
            AbortReason::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// Per-segment completion checkpoint of an adaptive transfer.
///
/// The receiver marks a segment delivered the instant its scheme receiver
/// completes (every byte of the segment landed and verified). The manifest
/// lives in host memory above the NIC, so it **survives an abort and a
/// crash/restart** — it is exactly what
/// [`TransferOutcome::Aborted`] hands back, and what
/// [`AdaptiveController::resume_receiver`] resumes from: only segments not
/// marked delivered are retransmitted, and delivered bytes are never
/// re-sent.
///
/// [`AdaptiveController::resume_receiver`]: crate::adapt::AdaptiveController::resume_receiver
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryManifest {
    msg_bytes: u64,
    segment_bytes: u64,
    /// Bit `i` = segment `i` fully delivered. `total_segments()` bits.
    done: Vec<u64>,
}

impl DeliveryManifest {
    /// An all-undelivered manifest for a `msg_bytes` transfer partitioned
    /// into `segment_bytes` segments.
    pub fn new(msg_bytes: u64, segment_bytes: u64) -> Self {
        assert!(msg_bytes > 0, "empty transfer");
        assert!(segment_bytes > 0, "zero segment size");
        let n = msg_bytes.div_ceil(segment_bytes);
        DeliveryManifest {
            msg_bytes,
            segment_bytes,
            done: vec![0; (n as usize).div_ceil(64)],
        }
    }

    /// Total message length in bytes.
    pub fn msg_bytes(&self) -> u64 {
        self.msg_bytes
    }

    /// Segment (submessage) size the message is partitioned into.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Number of segments in the partition.
    pub fn total_segments(&self) -> u32 {
        self.msg_bytes.div_ceil(self.segment_bytes) as u32
    }

    /// `(offset, len)` of segment `i` within the message.
    pub fn segment(&self, i: u32) -> (u64, u64) {
        let off = i as u64 * self.segment_bytes;
        debug_assert!(off < self.msg_bytes);
        (off, self.segment_bytes.min(self.msg_bytes - off))
    }

    /// Marks segment `i` delivered; returns `true` when newly marked.
    pub fn mark_delivered(&mut self, i: u32) -> bool {
        debug_assert!(i < self.total_segments());
        let (w, b) = (i as usize / 64, i % 64);
        let newly = self.done[w] >> b & 1 == 0;
        self.done[w] |= 1 << b;
        newly
    }

    /// True when segment `i` has been delivered.
    pub fn is_delivered(&self, i: u32) -> bool {
        self.done[i as usize / 64] >> (i % 64) & 1 == 1
    }

    /// Segments delivered so far.
    pub fn delivered_segments(&self) -> u32 {
        self.done.iter().map(|w| w.count_ones()).sum()
    }

    /// Bytes delivered so far (sum of delivered segment lengths).
    pub fn delivered_bytes(&self) -> u64 {
        (0..self.total_segments())
            .filter(|&i| self.is_delivered(i))
            .map(|i| self.segment(i).1)
            .sum()
    }

    /// True once every segment is delivered.
    pub fn is_complete(&self) -> bool {
        self.delivered_segments() == self.total_segments()
    }

    /// Indices of the segments not yet delivered, in offset order — the
    /// resume plan both ends rebuild identically from the same manifest.
    pub fn undelivered(&self) -> Vec<u32> {
        (0..self.total_segments())
            .filter(|&i| !self.is_delivered(i))
            .collect()
    }

    /// Serializes for the [`CtrlMsg::ResumeState`] wire reply.
    ///
    /// [`CtrlMsg::ResumeState`]: crate::ack::CtrlMsg::ResumeState
    pub(crate) fn encode_into(&self, b: &mut bytes::BytesMut) {
        use bytes::BufMut;
        b.put_u64_le(self.msg_bytes);
        b.put_u64_le(self.segment_bytes);
        for w in &self.done {
            b.put_u64_le(*w);
        }
    }

    /// Parses a wire manifest; `None` on malformed input (bad geometry,
    /// truncation, or stray bits past the last segment).
    pub(crate) fn decode_from(buf: &mut impl bytes::Buf) -> Option<Self> {
        if buf.remaining() < 16 {
            return None;
        }
        let msg_bytes = buf.get_u64_le();
        let segment_bytes = buf.get_u64_le();
        if msg_bytes == 0 || segment_bytes == 0 {
            return None;
        }
        let n = msg_bytes.div_ceil(segment_bytes);
        // A control datagram caps at a couple KiB; reject absurd segment
        // counts before allocating.
        if n > (crate::ack::MAX_SACK_BITS * 64) as u64 {
            return None;
        }
        let words = (n as usize).div_ceil(64);
        if buf.remaining() < words * 8 {
            return None;
        }
        let done: Vec<u64> = (0..words).map(|_| buf.get_u64_le()).collect();
        let tail = n as usize % 64;
        if tail != 0 && done[words - 1] >> tail != 0 {
            return None; // bits past the last segment
        }
        Some(DeliveryManifest {
            msg_bytes,
            segment_bytes,
            done,
        })
    }
}

/// How a transfer ended: delivered byte-identical, or aborted with a
/// reason. Every scheme report carries one, so an aborted transfer reports
/// `Aborted{..}` instead of hanging its completion callback. An adaptive
/// *receiver* abort additionally carries the [`DeliveryManifest`]
/// checkpoint a resume restarts from; scheme-level and sender-side aborts
/// carry `None` (the sender learns delivery state from the peer's
/// `ResumeState`, never from local guesses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Every byte was delivered and acknowledged.
    Delivered,
    /// The transfer was torn down before delivery.
    Aborted {
        /// Why it was torn down.
        reason: AbortReason,
        /// The receiver's per-segment completion checkpoint, when this
        /// side maintains one (adaptive receiver aborts).
        manifest: Option<DeliveryManifest>,
    },
}

impl TransferOutcome {
    /// An aborted outcome with no manifest (scheme-level and sender-side
    /// teardowns).
    pub fn aborted(reason: AbortReason) -> Self {
        TransferOutcome::Aborted {
            reason,
            manifest: None,
        }
    }

    /// True for the delivered outcome.
    pub fn is_delivered(&self) -> bool {
        matches!(self, TransferOutcome::Delivered)
    }

    /// The abort reason, when aborted.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            TransferOutcome::Delivered => None,
            TransferOutcome::Aborted { reason, .. } => Some(*reason),
        }
    }

    /// The surviving delivery checkpoint, when aborted with one.
    pub fn manifest(&self) -> Option<&DeliveryManifest> {
        match self {
            TransferOutcome::Delivered => None,
            TransferOutcome::Aborted { manifest, .. } => manifest.as_ref(),
        }
    }
}

impl std::fmt::Display for TransferOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferOutcome::Delivered => write!(f, "delivered"),
            TransferOutcome::Aborted { reason, manifest } => match manifest {
                Some(m) => write!(
                    f,
                    "aborted({reason}, {}/{} segments delivered)",
                    m.delivered_segments(),
                    m.total_segments()
                ),
                None => write!(f, "aborted({reason})"),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Timer management
// ---------------------------------------------------------------------------

/// Outcome of one recurring tick: run again after the interval, sleep to a
/// deadline, or stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Re-arm the tick one interval from now.
    Again,
    /// Sleep until the given absolute deadline (clamped a tick past now) —
    /// the path schemes whose next action has a *known* time take (the
    /// earliest RTO expiry, the FTO, a linger deadline) instead of polling
    /// every interval.
    Until(SimTime),
    /// Tear the tick down (the protocol object is done).
    Stop,
}

/// Runs `f` at `interval` cadence (or at the deadlines it returns via
/// [`Tick::Until`]) until it returns [`Tick::Stop`]. The first invocation
/// happens one interval from now.
///
/// The loop is one recurring engine event re-armed in place — the closure
/// is boxed exactly once for the lifetime of the loop (the old
/// implementation re-boxed a shim closure every tick). The returned
/// [`TimerHandle`] lets the owner [`cancel`](Engine::cancel) the loop the
/// moment the protocol completes (so a deadline sleep never outlives the
/// transfer and stretches the simulation) or
/// [`reschedule`](Engine::reschedule) it when an external event moves the
/// next deadline earlier.
pub fn tick_loop(
    eng: &mut Engine,
    interval: SimTime,
    mut f: impl FnMut(&mut Engine) -> Tick + 'static,
) -> TimerHandle {
    eng.schedule_recurring_in(interval, move |eng| match f(eng) {
        Tick::Again => Some(eng.now().saturating_add(interval)),
        // Clamp: a deadline at-or-before now would re-fire at the same
        // instant forever; one tick of slack keeps buggy policies visible
        // (event limit) without wedging the instant.
        Tick::Until(t) => Some(t.max(eng.now().saturating_add(SimTime(1)))),
        Tick::Stop => None,
    })
}

/// `base << exp`, saturating: an interval after `exp` doublings of a clock
/// that backs off without a cap.
pub(crate) fn backed_off(base: SimTime, exp: u32) -> SimTime {
    SimTime(
        base.0
            .saturating_mul(1u64.checked_shl(exp).unwrap_or(u64::MAX)),
    )
}

// ---------------------------------------------------------------------------
// Retransmission timers
// ---------------------------------------------------------------------------

/// Per-chunk retransmission state for ARQ senders: acked flags, departure
/// stamps (when the chunk's latest copy left, or will leave, the sender's
/// wire), a monotone first-unacked cursor and an exponential RTO backoff.
///
/// Acks are monotone while a message is live, so the cursor never rewinds —
/// the expiry scan and `first_unacked` are amortized O(1) per chunk over
/// the transfer, not O(total) per tick.
///
/// **Backoff**: each expiry scan that retransmits anything doubles the
/// effective timeout (`base << backoff`, capped at [`RTO_BACKOFF_CAP`]);
/// any ACK progress (a chunk newly acked) resets it. On a live channel
/// ACKs flow every RTT, so the backoff stays at zero and behavior matches
/// a fixed RTO; during a blackout no ACKs arrive, the scan cadence decays
/// geometrically, and each chunk is retransmitted O(log outage/RTO) times
/// instead of outage/RTO times. Karn's rule still governs RTT *sampling*
/// ([`rtt_sample`](Self::rtt_sample)) — only never-retransmitted chunks
/// yield samples.
pub struct ChunkTimers {
    acked: Vec<bool>,
    acked_count: usize,
    last_sent: Vec<SimTime>,
    /// Chunks that have been retransmitted at least once — their ACK
    /// round-trips are ambiguous (Karn's rule) and never yield RTT samples.
    resent: Vec<bool>,
    cursor: usize,
    /// Current RTO backoff exponent (`0..=RTO_BACKOFF_CAP`).
    backoff: u32,
    /// Optional flight-recorder binding `(recorder, transfer id)`: RTO
    /// scans that fire record [`EventKind::RtoFire`]/[`EventKind::RtoBackoff`]
    /// stamped with the transfer id, so chaos forensics can reconstruct
    /// the retransmission clock of a failing transfer.
    trace: Option<(FlightRecorder, u64)>,
}

impl ChunkTimers {
    /// Timers for a message of `total` chunks, nothing sent or acked yet.
    pub fn new(total: usize) -> Self {
        ChunkTimers {
            acked: vec![false; total],
            acked_count: 0,
            last_sent: vec![SimTime::ZERO; total],
            resent: vec![false; total],
            cursor: 0,
            backoff: 0,
            trace: None,
        }
    }

    /// Binds a flight recorder: subsequent RTO scans that retransmit
    /// anything record `rto-fire` (b = chunks expired) and `rto-backoff`
    /// (b = new exponent) events under transfer `id`.
    pub fn set_trace(&mut self, rec: FlightRecorder, id: u64) {
        self.trace = Some((rec, id));
    }

    /// The current backoff exponent (zero while ACKs keep arriving).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// The effective retransmission timeout: `base << backoff`.
    pub fn effective_timeout(&self, base: SimTime) -> SimTime {
        SimTime(base.0.saturating_mul(1u64 << self.backoff))
    }

    /// Total chunks tracked.
    pub fn total(&self) -> usize {
        self.acked.len()
    }

    /// Chunks acked so far.
    pub fn acked_count(&self) -> usize {
        self.acked_count
    }

    /// True once every chunk is acked.
    pub fn is_complete(&self) -> bool {
        self.acked_count == self.acked.len()
    }

    /// Stamps chunk `c`: its latest copy leaves the wire at `departs`.
    pub fn record_sent(&mut self, c: usize, departs: SimTime) {
        self.last_sent[c] = departs;
    }

    /// Stamps a retransmission of chunk `c` leaving the wire at `departs`.
    /// From here on its ACK is ambiguous between copies (Karn's rule).
    pub fn record_resent(&mut self, c: usize, departs: SimTime) {
        self.last_sent[c] = departs;
        self.resent[c] = true;
    }

    /// True when chunk `c` is in range and not acked yet.
    pub fn is_unacked(&self, c: usize) -> bool {
        self.acked.get(c) == Some(&false)
    }

    /// True once chunk `c` has been retransmitted at least once.
    pub fn was_resent(&self, c: usize) -> bool {
        self.resent[c]
    }

    /// Marks chunk `c` acked; returns `true` when it was newly acked.
    /// Out-of-range indices (a stale or corrupt ACK) are ignored. Any new
    /// ack is forward progress, so it resets the RTO backoff (the
    /// Karn-compliant *restart*: the retransmission clock returns to the
    /// base timeout, while RTT sampling stays governed by
    /// [`rtt_sample`](Self::rtt_sample)'s never-retransmitted rule).
    pub fn mark_acked(&mut self, c: usize) -> bool {
        if c < self.acked.len() && !self.acked[c] {
            self.acked[c] = true;
            self.acked_count += 1;
            self.backoff = 0;
            true
        } else {
            false
        }
    }

    /// Acks every chunk below `n` (a cumulative ACK point).
    pub fn ack_prefix(&mut self, n: usize) {
        for c in self.cursor..n.min(self.acked.len()) {
            self.mark_acked(c);
        }
        self.advance_cursor();
    }

    /// The lowest unacked chunk, if any (the GBN base / SR scan floor).
    pub fn first_unacked(&mut self) -> Option<usize> {
        self.advance_cursor();
        (self.cursor < self.acked.len()).then_some(self.cursor)
    }

    /// True when chunk `c` is unacked and its latest copy left the wire at
    /// least `age` ago — the time evidence behind a repair: an ACK that
    /// still lacks the chunk a round trip after it departed means it (or
    /// its repair) was lost. A copy still queued on the device (a stamp in
    /// the future) is never overdue.
    pub fn overdue(&self, c: usize, now: SimTime, age: SimTime) -> bool {
        self.is_unacked(c) && now.saturating_sub(self.last_sent[c]) >= age
    }

    /// Calls `resend` for every unacked chunk whose timeout expired at
    /// `now` and stamps it with the departure instant `resend` returns
    /// (the periodic RTO scan). The timeout in effect is
    /// `timeout << backoff`; a scan that retransmits anything doubles the
    /// backoff (capped at [`RTO_BACKOFF_CAP`]), so consecutive
    /// unproductive rounds — a blackout — space out geometrically. Returns
    /// the earliest next expiry among the chunks still unacked after the
    /// scan, computed from the *new* stamps under the *post-scan* backoff
    /// (`None` once everything is acked) — the deadline the sender's tick
    /// loop sleeps to instead of polling.
    pub fn take_expired(
        &mut self,
        now: SimTime,
        timeout: SimTime,
        mut resend: impl FnMut(usize) -> SimTime,
    ) -> Option<SimTime> {
        self.advance_cursor();
        let eff = self.effective_timeout(timeout);
        let mut fired = false;
        let mut expired = 0u64;
        let mut earliest_sent: Option<SimTime> = None;
        for c in self.cursor..self.acked.len() {
            if !self.acked[c] {
                if now.saturating_sub(self.last_sent[c]) >= eff {
                    let departs = resend(c);
                    self.record_resent(c, departs);
                    fired = true;
                    expired += 1;
                }
                let sent = self.last_sent[c];
                earliest_sent = Some(earliest_sent.map_or(sent, |n: SimTime| n.min(sent)));
            }
        }
        if fired {
            self.backoff = (self.backoff + 1).min(RTO_BACKOFF_CAP);
            if let Some((rec, id)) = &self.trace {
                rec.record(now.as_picos(), EventKind::RtoFire, *id, expired);
                rec.record(
                    now.as_picos(),
                    EventKind::RtoBackoff,
                    *id,
                    self.backoff as u64,
                );
            }
        }
        let eff_after = self.effective_timeout(timeout);
        earliest_sent.map(|s| s.saturating_add(eff_after))
    }

    /// The ACK round-trip of chunk `c` acked at `now`: `now − departure`,
    /// but only for chunks never retransmitted — a retransmitted chunk's
    /// ACK is ambiguous between copies (Karn's rule), so it yields no
    /// sample. Call right after [`mark_acked`](Self::mark_acked) reports a
    /// *newly* acked chunk; this is the telemetry feed for the adaptive
    /// controller's RTT estimate.
    pub fn rtt_sample(&self, c: usize, now: SimTime) -> Option<SimTime> {
        (c < self.acked.len() && !self.resent[c]).then(|| now.saturating_sub(self.last_sent[c]))
    }

    fn advance_cursor(&mut self) {
        while self.cursor < self.acked.len() && self.acked[self.cursor] {
            self.cursor += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Sender message-slot lifecycle
// ---------------------------------------------------------------------------

/// One open send: its handle and the length it was opened over (never
/// zero, which keeps `Option<TxSend>` two words).
#[derive(Clone, Copy)]
struct TxSend {
    hdl: SendHandle,
    len: NonZeroU64,
}

/// The sender half of the message-slot lifecycle, for every send of one
/// transfer — and the only code in this crate that calls the SDR send API.
///
/// # The contract
///
/// A transfer is `N` SDR sends, fixed when it starts: one for an ARQ
/// transfer, `2L` (data then parity submessages) for an EC transfer, one or
/// two for a flow. Each send walks the same four steps, and each step has
/// one call site, here:
///
/// 1. **open**, strictly in send-sequence order and only on credit.
///    [`ready`](Self::ready) is the gate: the next unopened send, if the
///    CTS for the QP's next send sequence has landed (§3.1.3: matching is
///    order-based, so the n-th open answers the n-th post) — and never once
///    the transfer is closed, so a credit that lands after the end opens
///    nothing and the sequence it names stays free for the next transfer.
///    The owner supplies the send's `(addr, len)` to [`open`](Self::open)
///    only then, so bytes that are produced late (an EC parity submessage,
///    harvested from the encode pipeline) are produced right before they
///    are needed.
/// 2. **inject** any range of an open send, any number of times
///    ([`inject`](Self::inject); first pass and retransmission are the same
///    call). Who decides *when* — the per-transfer driver at once, a flow
///    population through its arbiter — is the owner's business: the sink.
/// 3. **end** and
/// 4. **release**, together, exactly once, for every send that was opened
///    ([`close`](Self::close)). Release is part of the lifecycle, not an
///    optimisation: an ended stream's context stays in the QP until it is
///    released, every CTS credit walks the QP's contexts, and a sender that
///    only ends leaves one behind per transfer for the life of the QP
///    ([`SdrQp::live_sends`] counts them).
///
/// The first send lives inline: it is all an ARQ transfer or an ARQ flow
/// has, so a flow population pays no heap allocation per open (and a flow
/// table little memory per flow).
pub struct StreamTx {
    qp: SdrQp,
    /// Sends the transfer makes in all (`N`).
    planned: usize,
    /// Sends `0..opened` have been opened.
    opened: usize,
    /// Send 0, while open.
    first: Option<TxSend>,
    /// Sends `1..`, while open (an EC transfer's, an EC flow's parity).
    rest: Vec<TxSend>,
    closed: bool,
}

impl StreamTx {
    /// The lifecycle of a transfer of `sends` SDR sends over `qp`, none
    /// open yet.
    pub fn new(qp: &SdrQp, sends: usize) -> Self {
        StreamTx {
            qp: qp.clone(),
            planned: sends,
            opened: 0,
            first: None,
            rest: Vec::new(),
            closed: false,
        }
    }

    /// True once every send of the transfer has been opened.
    pub fn is_open(&self) -> bool {
        self.opened == self.planned
    }

    /// The index of the send to open next, when it may open now: the
    /// transfer is not closed, has sends left, and the credit for the QP's
    /// next send sequence has landed.
    pub fn ready(&self) -> Option<usize> {
        let due = !self.closed && self.opened < self.planned;
        (due && self.qp.has_cts(self.qp.next_send_seq())).then_some(self.opened)
    }

    /// Opens the send [`ready`](Self::ready) just named over `[addr, addr +
    /// len)`; nothing is injected yet.
    pub fn open(&mut self, eng: &mut Engine, addr: u64, len: u64) {
        debug_assert!(!self.closed && self.opened < self.planned);
        let hdl = self
            .qp
            .send_stream_start(eng, addr, len, None)
            .expect("`ready` saw the credit");
        let len = NonZeroU64::new(len).expect("the QP opens no empty send");
        let send = TxSend { hdl, len };
        match self.opened {
            0 => self.first = Some(send),
            _ => self.rest.push(send),
        }
        self.opened += 1;
    }

    fn send(&self, i: usize) -> Option<TxSend> {
        match i.checked_sub(1) {
            None => self.first,
            Some(i) => self.rest.get(i).copied(),
        }
    }

    /// Injects `[off, off + len)` of send `i` — first pass or repair;
    /// `departed(chunk, at)` hears when each chunk's copy will have left the
    /// wire. Returns `false`, having done nothing, when send `i` is not
    /// open (not yet, or the transfer is closed).
    pub fn inject(
        &self,
        eng: &mut Engine,
        i: usize,
        off: u64,
        len: u64,
        departed: impl FnMut(usize, SimTime),
    ) -> bool {
        let Some(send) = self.send(i) else {
            return false;
        };
        self.qp
            .send_stream_continue(eng, &send.hdl, off, len, departed)
            .expect("a range of an open send");
        true
    }

    /// Injects the whole of send `i` (see [`inject`](Self::inject)).
    pub fn inject_all(
        &self,
        eng: &mut Engine,
        i: usize,
        departed: impl FnMut(usize, SimTime),
    ) -> bool {
        self.send(i)
            .is_some_and(|send| self.inject(eng, i, 0, send.len.get(), departed))
    }

    /// Retransmits chunk `c` of send 0; returns when the copy will have
    /// left the wire (it queues behind whatever the device still holds).
    pub fn resend_chunk(&self, eng: &mut Engine, c: usize) -> SimTime {
        let msg_bytes = self.first.expect("resend only after begin").len.get();
        let chunk_bytes = self.qp.config().chunk_bytes;
        let off = c as u64 * chunk_bytes;
        let len = chunk_bytes.min(msg_bytes - off);
        let mut departs = eng.now();
        self.inject(eng, 0, off, len, |_, at| departs = at);
        departs
    }

    /// Retransmits the window `[from, from + count)` of send 0, clamped to
    /// the message (a Go-Back-N rewind). Returns how many chunks were
    /// re-injected.
    pub fn resend_window(&self, eng: &mut Engine, from: usize, count: usize) -> usize {
        let msg_bytes = self.first.expect("resend only after begin").len.get();
        let chunk_bytes = self.qp.config().chunk_bytes;
        let end = (from + count).min(msg_bytes.div_ceil(chunk_bytes) as usize);
        if from >= end {
            return 0;
        }
        let off = from as u64 * chunk_bytes;
        let len = (end as u64 * chunk_bytes).min(msg_bytes) - off;
        self.inject(eng, 0, off, len, |_, _| {});
        end - from
    }

    /// Closes the transfer: ends and releases every open send, and opens
    /// none from here on. The exactly-once close completion and abort share
    /// and a handover teardown can run early — repeated calls find nothing
    /// left to do.
    pub fn close(&mut self) {
        self.closed = true;
        for send in self.first.take().into_iter().chain(self.rest.drain(..)) {
            let _ = self.qp.send_stream_end(&send.hdl);
            self.qp.send_release(send.hdl);
        }
    }
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

/// Exactly-once completion plumbing: the transfer's start instant plus the
/// scheme's done callback, armed once and never re-fired.
pub struct Completion<R> {
    started: Option<SimTime>,
    /// Taken by [`finish`](Self::finish): `None` means done.
    cb: Option<Box<dyn FnOnce(&mut Engine, R)>>,
}

impl<R> Completion<R> {
    /// Wraps the scheme's done callback.
    pub fn new(cb: impl FnOnce(&mut Engine, R) + 'static) -> Self {
        Completion {
            started: None,
            cb: Some(Box::new(cb)),
        }
    }

    /// True once [`finish`](Self::finish) has run.
    pub fn is_done(&self) -> bool {
        self.cb.is_none()
    }

    /// Records the first-injection instant (idempotent).
    pub fn mark_started(&mut self, now: SimTime) {
        self.started.get_or_insert(now);
    }

    /// The first-injection instant, if any.
    pub fn started(&self) -> Option<SimTime> {
        self.started
    }

    /// Elapsed time since the first injection (zero when never started).
    pub fn elapsed(&self, now: SimTime) -> SimTime {
        now.saturating_sub(self.started.unwrap_or(now))
    }

    /// Marks the transfer done and hands back the callback (exactly once;
    /// `None` on repeats). The caller invokes it *after* dropping any
    /// `RefCell` borrow of the protocol state, since the callback may
    /// re-enter the protocol object.
    pub fn finish(&mut self) -> Option<Box<dyn FnOnce(&mut Engine, R)>> {
        self.cb.take()
    }
}

// ---------------------------------------------------------------------------
// Per-transfer sender driver
// ---------------------------------------------------------------------------

/// What a sender policy tells its scheduler after a control message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxProgress {
    /// Every chunk is acknowledged: the transfer is delivered.
    pub complete: bool,
    /// Move the retransmission timer to this deadline (an ack-restart, or
    /// the pull-back after backed-off silence ended).
    pub rearm: Option<SimTime>,
    /// ACK round-trip of a never-retransmitted chunk this message newly
    /// acknowledged (Karn's rule) — the estimator's RTT feed.
    pub ack_rtt: Option<SimTime>,
}

/// A sender policy under the per-transfer [`TxDriver`]: how the message
/// splits into sends, the timers and the repair rule over one [`StreamTx`].
/// The driver owns when things run — opening on credit, the timer loop,
/// control dispatch, completion and abort.
pub trait TxScheme: 'static {
    /// The sender-side report handed to the done callback.
    type Report;

    /// SDR sends the message takes, opened in this order: one streaming
    /// send unless the scheme splits the message.
    fn sends(&self) -> usize {
        1
    }

    /// `(addr, len)` of send `i`, asked right before it opens — its credit
    /// has landed — so a scheme that produces a send's bytes late produces
    /// them here. `msg` is the transfer's whole message, and the default:
    /// the one send of an unsplit message.
    fn span(&mut self, _i: usize, msg: (u64, u64)) -> (u64, u64) {
        msg
    }

    /// The first pass of send `send` is being injected: `chunk`'s last
    /// packet leaves the wire at `departs`. Schemes that time chunks
    /// individually stamp their timers here.
    fn on_sent(&mut self, _send: usize, _chunk: usize, _departs: SimTime) {}

    /// The first send just opened and was handed to the device at `now`.
    /// Returns the first timer interval; `None` when the scheme keeps no
    /// sender-side timer (its receiver times the silence).
    fn on_begin(&mut self, now: SimTime) -> Option<SimTime>;

    /// One timer wake: retransmit whatever expired through `stream` and
    /// return the next deadline (`None` once nothing is left to time).
    fn on_tick(&mut self, _eng: &mut Engine, _stream: &StreamTx) -> Option<SimTime> {
        None
    }

    /// One control message from the peer.
    fn on_ctrl(&mut self, eng: &mut Engine, stream: &StreamTx, msg: CtrlMsg) -> TxProgress;

    /// The transfer ended, delivered or aborted, and its sends are closed:
    /// the scheme gives back what it held for them.
    fn on_end(&mut self) {}

    /// The report for a transfer that ended `outcome` after `duration`.
    fn report(&self, duration: SimTime, outcome: TransferOutcome) -> Self::Report;

    /// The parity staged for the whole message, when the scheme stages any
    /// (test observability; see `EcSender::staged_parity`).
    fn staged_parity(&mut self) -> Option<Vec<u8>> {
        None
    }
}

struct TxState<S: TxScheme> {
    stream: StreamTx,
    /// `(addr, len)` of the whole message.
    msg: (u64, u64),
    scheme: S,
    completion: Completion<S::Report>,
    /// The retransmission loop, once armed: it sleeps to the deadline the
    /// scheme returns ([`Tick::Until`]) and is cancelled the moment the
    /// transfer ends, so no stale wake outlives it.
    tick: Option<TimerHandle>,
}

/// The per-transfer sender driver: opens and injects each send as soon as
/// its CTS credit allows, runs the scheme's timer, feeds it control
/// messages, and ends the transfer exactly once — delivered or aborted.
pub struct TxDriver<S: TxScheme> {
    inner: Rc<RefCell<TxState<S>>>,
}

impl<S: TxScheme> TxDriver<S> {
    /// Starts sending `[local_addr, local_addr + msg_bytes)` under
    /// `scheme`; `done` fires exactly once with the scheme's report.
    pub fn spawn(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: &Rc<dyn CtrlPath>,
        local_addr: u64,
        msg_bytes: u64,
        scheme: S,
        done: impl FnOnce(&mut Engine, S::Report) + 'static,
    ) -> Self {
        let inner = Rc::new(RefCell::new(TxState {
            stream: StreamTx::new(qp, scheme.sends()),
            msg: (local_addr, msg_bytes),
            scheme,
            completion: Completion::new(done),
            tick: None,
        }));
        // The handler borrows the state per message, never across engine
        // calls. `ctrl` is any `CtrlPath`: the raw endpoint for static
        // deployments, the adaptive layer's epoch gate otherwise.
        let me = inner.clone();
        ctrl.install_handler(Box::new(move |eng, _src, msg| Self::on_ctrl(&me, eng, msg)));
        // Open what is credited already; every later credit opens more,
        // until all sends are.
        Self::pump(&inner, eng);
        if !inner.borrow().stream.is_open() {
            let me = inner.clone();
            qp.set_cts_callback(move |eng, _seq, _len| Self::pump(&me, eng));
        }
        TxDriver { inner }
    }

    /// True once the transfer completed or aborted.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().completion.is_done()
    }

    /// Tears the transfer down now: the timer is cancelled, every send is
    /// closed (exactly once), and the done callback fires with
    /// [`TransferOutcome::Aborted`]. Idempotent — returns `false` when the
    /// transfer already completed or aborted. Local only: propagating the
    /// abort to the peer is the control plane's job (the adaptive layer
    /// announces it via `CtrlMsg::Abort`).
    pub fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool {
        Self::finish(&self.inner, eng, TransferOutcome::aborted(reason))
    }

    /// Mutates scheme state (trace binding).
    pub fn scheme_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.borrow_mut().scheme)
    }

    /// Opens, in order, every send whose credit has landed and injects its
    /// first pass; the first one starts the transfer's clock and the
    /// scheme's timer. A stale CTS hook may re-fire after the end — the
    /// stream is closed by then, [`StreamTx::ready`] names nothing, and no
    /// send sequence that belongs to a later transfer is consumed.
    fn pump(inner: &Rc<RefCell<TxState<S>>>, eng: &mut Engine) {
        let mut first = None;
        {
            let mut i = inner.borrow_mut();
            let TxState {
                stream,
                msg,
                scheme,
                completion,
                ..
            } = &mut *i;
            while let Some(send) = stream.ready() {
                let (addr, len) = scheme.span(send, *msg);
                stream.open(eng, addr, len);
                stream.inject_all(eng, send, |c, at| scheme.on_sent(send, c, at));
                if send == 0 {
                    let now = eng.now();
                    completion.mark_started(now);
                    first = scheme.on_begin(now);
                }
            }
        }
        let Some(first) = first else { return };
        // The send was just handed to the device, so the first deadline is
        // at least one interval out; after that every wake sleeps to the
        // scheme's next deadline. ACKs are event-driven and never wait on
        // this loop.
        let me = inner.clone();
        let h = tick_loop(eng, first, move |eng| {
            let mut i = me.borrow_mut();
            if i.completion.is_done() {
                return Tick::Stop;
            }
            let TxState { stream, scheme, .. } = &mut *i;
            // `None`: everything is acked and the ACK handler is about to
            // finish (and cancel this loop).
            scheme.on_tick(eng, stream).map_or(Tick::Stop, Tick::Until)
        });
        inner.borrow_mut().tick = Some(h);
    }

    fn on_ctrl(inner: &Rc<RefCell<TxState<S>>>, eng: &mut Engine, msg: CtrlMsg) {
        let complete = {
            let mut i = inner.borrow_mut();
            if i.completion.is_done() {
                return;
            }
            let TxState {
                stream,
                scheme,
                tick,
                ..
            } = &mut *i;
            let p = scheme.on_ctrl(eng, stream, msg);
            if let (false, Some(at), Some(h)) = (p.complete, p.rearm, *tick) {
                let _ = eng.reschedule(h, at);
            }
            p.complete
        };
        if complete {
            Self::finish(inner, eng, TransferOutcome::Delivered);
        }
    }

    /// The exactly-once end of a transfer, shared by completion and abort.
    fn finish(inner: &Rc<RefCell<TxState<S>>>, eng: &mut Engine, outcome: TransferOutcome) -> bool {
        let (cb, report) = {
            let mut i = inner.borrow_mut();
            let Some(cb) = i.completion.finish() else {
                return false;
            };
            i.stream.close();
            // The loop may be asleep until a far deadline: cancel it so
            // the drained simulation ends with the transfer.
            if let Some(h) = i.tick.take() {
                eng.cancel(h);
            }
            i.scheme.on_end();
            let report = i.scheme.report(i.completion.elapsed(eng.now()), outcome);
            (cb, report)
        };
        cb(eng, report);
        true
    }
}

// ---------------------------------------------------------------------------
// Receive step and per-transfer receiver driver
// ---------------------------------------------------------------------------

/// The sink a receive policy emits control messages through. The driver
/// supplies it, so a scheme never knows which path (raw endpoint, epoch
/// gate, flow-stamped endpoint) its traffic rides.
pub type CtrlSink<'a> = &'a mut dyn FnMut(&mut Engine, &CtrlMsg);

/// Registry counters for the steps a receiver takes ahead of its heartbeat
/// (`rx.wake.*`), by the news that caused them. Every receiver on a fabric
/// shares the handles.
struct RxTrace {
    /// `rx.wake.complete`: the arrival that completed the message.
    complete: Counter,
    /// `rx.wake.hole`: an arrival that wire order says exposed a hole.
    hole: Counter,
}

impl RxTrace {
    /// Binds (or retrieves) the `rx.wake.*` family in `reg`.
    fn new(reg: &Registry) -> Self {
        RxTrace {
            complete: reg.counter("rx.wake.complete"),
            hole: reg.counter("rx.wake.hole"),
        }
    }
}

/// Scheme-independent receiver state: the QP, the posted receive slots and
/// the first-pass telemetry scan. Handed to the [`RxScheme`] on every poll.
pub struct RxCommon {
    qp: SdrQp,
    hdls: Vec<RecvHandle>,
    /// Chunks of the posted slots no arrival has reported complete yet
    /// (see [`RxStep::arrival`]).
    chunks_left: usize,
    /// A packet has landed on a posted slot: the peer holds the credit (and
    /// whatever handshake led to it), so nothing of the receiver's is left
    /// to heal. Learned by [`heal_cts`](Self::heal_cts) and by arrivals.
    seen: bool,
    trace: RxTrace,
    /// Channel telemetry, when bound: the estimator plus one first-pass
    /// cursor per posted slot. The step scans after every scheme poll.
    telemetry: Option<(Rc<RefCell<ChannelEstimator>>, Vec<FirstPassCursor>)>,
    /// Everything the scans fed the estimator so far — what a receiver
    /// reports to its sender.
    counters: TelemetryCounters,
}

impl RxCommon {
    /// Receiver plumbing over `qp`.
    pub fn new(qp: &SdrQp) -> Self {
        RxCommon {
            qp: qp.clone(),
            hdls: Vec::new(),
            chunks_left: 0,
            seen: false,
            trace: RxTrace::new(&qp.metrics()),
            telemetry: None,
            counters: TelemetryCounters::default(),
        }
    }

    /// Binds a channel estimator: after every poll the step first-pass
    /// scans each slot's packet bitmap and feeds the gap counts into it
    /// (the loss half of the telemetry loop; see
    /// [`telemetry`](crate::telemetry)).
    pub fn bind_estimator(&mut self, est: Rc<RefCell<ChannelEstimator>>) {
        let cursors = vec![FirstPassCursor::default(); self.hdls.len()];
        self.telemetry = Some((est, cursors));
    }

    /// Posts a receive buffer and tracks its slot for lifecycle management.
    /// Returns the handle's index among this receiver's slots.
    pub fn post(&mut self, eng: &mut Engine, addr: u64, len: u64) -> usize {
        let hdl = self.qp.recv_post(eng, addr, len).expect("receive post");
        self.hdls.push(hdl);
        self.chunks_left += self.qp.config().chunks_for(len) as usize;
        if let Some((_, cursors)) = &mut self.telemetry {
            cursors.resize(self.hdls.len(), FirstPassCursor::default());
        }
        self.hdls.len() - 1
    }

    /// Subscribes `hook(eng, slot, chunk)` to the chunk completions of every
    /// posted slot. The hooks live in the QP's slots and die with them
    /// (`recv_complete`), so an owner should reach itself through a `Weak`:
    /// the hooks then keep nothing alive and a stale one can do no more
    /// than miss.
    pub fn subscribe(&self, hook: impl Fn(&mut Engine, usize, usize) + Clone + 'static) {
        for (slot, hdl) in self.hdls.iter().enumerate() {
            let hook = hook.clone();
            self.qp
                .set_chunk_hook(hdl, move |eng, chunk| hook(eng, slot, chunk))
                .expect("freshly posted slot");
        }
    }

    /// True once a packet has landed on a posted slot (as of the last poll
    /// or arrival): the peer has the credit, the handshake needs no more
    /// healing.
    pub fn seen_packet(&self) -> bool {
        self.seen
    }

    /// One telemetry pass: first-pass scan every slot's packet bitmap and
    /// feed the estimator. No-op without a bound estimator.
    fn feed_estimator(&mut self) {
        let Some((est, cursors)) = &mut self.telemetry else {
            return;
        };
        let (mut seen, mut lost) = (0u64, 0u64);
        for (i, hdl) in self.hdls.iter().enumerate() {
            if let Ok(bm) = self.qp.recv_bitmap(hdl) {
                let (s, l) = cursors[i].scan(bm.packets());
                seen += s;
                lost += l;
            }
        }
        if seen > 0 {
            self.counters.seen += seen;
            self.counters.lost += lost;
            est.borrow_mut().observe_packets(seen, lost);
        }
    }

    /// The news every policy reports: `Some(now)` — step at once — when
    /// the arrival being reported completed the last chunk the posted slots
    /// lacked, so completion is acted on at the arrival instant.
    pub fn wake_if_complete(&self, now: SimTime) -> Option<SimTime> {
        (self.chunks_left == 0).then(|| {
            self.trace.complete.inc();
            now
        })
    }

    /// Counts one early step taken because wire order exposed a hole
    /// (`rx.wake.hole`).
    pub(crate) fn note_hole_wake(&self) {
        self.trace.hole.inc();
    }

    /// Cumulative first-pass counters fed to the bound estimator so far.
    pub fn counters(&self) -> TelemetryCounters {
        self.counters
    }

    /// `(observed, total)` packet counts across the posted slots, where
    /// `observed` is each slot's first-pass high-water mark — how far the
    /// sender's injection has *reached*, independent of holes. The
    /// adaptive receiver posts the next segment once the outstanding
    /// remainder falls below its pipeline lead, keeping the wire full
    /// across segment boundaries.
    pub fn frontier(&self) -> (u64, u64) {
        let (mut observed, mut total) = (0u64, 0u64);
        for h in &self.hdls {
            if let Ok(bm) = self.qp.recv_bitmap(h) {
                let p = bm.packets();
                observed += p.highest_set().map_or(0, |x| x as u64 + 1);
                total += p.len() as u64;
            }
        }
        (observed, total)
    }

    /// Number of posted slots.
    pub fn slots(&self) -> usize {
        self.hdls.len()
    }

    /// The receive sequence number posted slot `i` consumed (what a
    /// sender must match its send sequence against).
    pub fn slot_seq(&self, i: usize) -> u64 {
        self.hdls[i].seq()
    }

    /// The bitmap of posted slot `i`.
    pub fn bitmap(&self, i: usize) -> Arc<TwoLevelBitmap> {
        self.qp.recv_bitmap(&self.hdls[i]).expect("live handle")
    }

    /// Re-issues slot `i`'s CTS when nothing has arrived on it yet — the
    /// lost-credit healing every scheme performs on its poll cadence
    /// (CTS rides the unreliable control path). Returns `true` when the
    /// slot has seen at least one packet (schemes arm arrival-triggered
    /// timers off this).
    pub fn heal_cts(&mut self, eng: &mut Engine, i: usize, bitmap: &TwoLevelBitmap) -> bool {
        if bitmap.packets().count_set() == 0 {
            let _ = self.qp.resend_cts(eng, &self.hdls[i]);
            false
        } else {
            self.seen = true;
            true
        }
    }

    /// The QP's bitmap chunk size.
    pub fn chunk_bytes(&self) -> u64 {
        self.qp.config().chunk_bytes
    }

    /// Re-checks `data` — the bytes of slot `i`'s chunk `chunk`, wherever
    /// the caller holds them — against the arrival CRCs the QP recorded as
    /// the packets landed. `false` means some packet was overwritten by a
    /// corrupted duplicate *after* its bit was recorded: the bytes are
    /// stale and must not feed a decode (a later clean duplicate heals the
    /// memory and the recorded CRCs in place, so a NACK-driven resend
    /// converges). A handle the QP no longer honours reads `false` too:
    /// nothing was checked, so nothing is vouched for.
    pub fn verify_chunk(&self, i: usize, chunk: usize, data: &[u8]) -> bool {
        let cfg = self.qp.config();
        let ppc = (cfg.chunk_bytes / cfg.mtu_bytes) as usize;
        self.qp
            .verify_packet_range(&self.hdls[i], chunk * ppc, data)
            .unwrap_or(false)
    }
}

/// A reliability scheme's receive policy: what to scan and what to say.
/// The [`RxStep`] supplies CTS healing access, completion detection, the
/// linger countdown and the exactly-once slot release; whoever steps it
/// supplies the cadence and the control sink.
pub trait RxScheme: 'static {
    /// Scheme-specific payload for the done callback (receiver statistics).
    type Done;

    /// One bitmap poll: emit whatever repair traffic the scheme calls for
    /// through `send` and return `true` once the whole message is
    /// delivered (the stepper then sends the final ACK). Runs once per
    /// step — heartbeat or news — until it reports completion.
    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon, send: CtrlSink<'_>) -> bool;

    /// News from the bitmap: `chunk` of posted slot `slot` completed at
    /// `now`. Returns when the next step should run if that is sooner than
    /// the heartbeat would — `Some(now)` to act at the arrival instant, a
    /// later instant to let a burst of news share one step — and `None`
    /// when the arrival changes nothing the peer needs to hear. The answer
    /// is a hint about *when*, never about *what*: the step it brings
    /// forward reads the bitmaps like any other.
    ///
    /// The default knows the one piece of news common to every scheme: the
    /// message just became complete.
    fn on_chunk(
        &mut self,
        rx: &RxCommon,
        _slot: usize,
        _chunk: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        rx.wake_if_complete(now)
    }

    /// Whether silence is this receiver's to time. `true` — the default —
    /// when it must keep stepping with nothing arriving: it runs a clock of
    /// its own (EC's FTO) or its sender counts on a periodic ACK. `false`
    /// when every step it needs is caused by an arrival and its sender's
    /// RTO times the rest; see [`RxStep::next_step`] for what that buys and
    /// why it cannot wedge.
    fn times_silence(&self) -> bool {
        true
    }

    /// The scheme's final positive ACK.
    fn final_ack(&self) -> CtrlMsg;

    /// The payload handed to the done callback at the completion instant.
    fn done_payload(&self) -> Self::Done;

    /// Called exactly once, right after the step released its slots:
    /// every posted buffer's key is gone and its root-table slot points at
    /// the NULL key, so no packet can reach the bytes any more. A scheme
    /// that allocated node memory behind its slots gives it back here.
    fn released(&mut self) {}
}

/// One receiver's progress, stepped at the owner's cadence: poll until the
/// scheme reports delivery, then repeat the final ACK for `linger` further
/// steps (its loss on the control path must not strand the sender) and
/// release every posted slot exactly once. Plain state — no timer, no
/// callback: the owner feeds it its slots' arrivals
/// ([`arrival`](Self::arrival)), steps it, and moves its own timer —
/// [`RxDriver`] a [`tick_loop`], the flow manager a due-index entry — to
/// where [`next_step`](Self::next_step) says.
pub struct RxStep<S: RxScheme> {
    common: RxCommon,
    scheme: S,
    completed_at: Option<SimTime>,
    lingers_left: u32,
    released: bool,
    /// The earliest step the scheme asked for on an arrival and no step
    /// has served yet.
    wake: Option<SimTime>,
    /// The step that just ran served `wake`: an arrival had asked for it
    /// (see [`on_news`](Self::on_news)).
    on_news: bool,
    /// Handshake-heal steps scheduled so far (the doubling exponent).
    heals: u32,
}

impl<S: RxScheme> RxStep<S> {
    /// A receiver over `common`'s posted slots that repeats its final ACK
    /// `linger_acks` times after the completing step.
    pub fn new(common: RxCommon, scheme: S, linger_acks: u32) -> Self {
        RxStep {
            common,
            scheme,
            completed_at: None,
            lingers_left: linger_acks,
            released: false,
            wake: None,
            on_news: false,
            heals: 0,
        }
    }

    /// First half of a step: one scheme poll while the message is still
    /// incomplete, then the telemetry scan of the bitmaps' new high-water
    /// ranges (it rides the same cadence). Returns `true` from the
    /// completing poll on — the caller then sends the final ACK and calls
    /// [`linger`](Self::linger).
    pub fn poll(&mut self, eng: &mut Engine, send: CtrlSink<'_>) -> bool {
        self.on_news = self.wake.is_some_and(|at| at <= eng.now());
        if self.on_news {
            self.wake = None;
        }
        if self.completed_at.is_none() && self.scheme.poll(eng, &mut self.common, send) {
            self.completed_at = Some(eng.now());
        }
        self.common.feed_estimator();
        self.completed_at.is_some()
    }

    /// News from the owner's subscription: `chunk` of posted slot `slot`
    /// completed at `now`. Asks the scheme ([`RxScheme::on_chunk`]) and
    /// returns when the next step should run, if the arrival moves it
    /// ahead of whatever the owner's timer is set to; the request stays on
    /// record until a step serves it, so [`next_step`](Self::next_step)
    /// never sleeps past it. Nothing is news once the message is complete.
    pub fn arrival(&mut self, slot: usize, chunk: usize, now: SimTime) -> Option<SimTime> {
        if self.completed_at.is_some() {
            return None;
        }
        self.common.chunks_left = self.common.chunks_left.saturating_sub(1);
        self.common.seen = true;
        let at = self.scheme.on_chunk(&self.common, slot, chunk, now)?;
        self.wake = Some(self.wake.map_or(at, |w| w.min(at)));
        self.wake
    }

    /// True when the step that just ran was one an arrival asked for: what
    /// it said was news, and is owed one repeat.
    pub fn on_news(&self) -> bool {
        self.on_news
    }

    /// When the step after the one that just ran at `now` (and did not
    /// complete the message) is due — the one rule every owner's timer
    /// follows; `interval` is the owner's cadence. `None`: no step until
    /// the next arrival asks for one.
    ///
    /// * **Before the first packet the receiver owns the clock.** Only it
    ///   knows it posted: the credit — and whatever handshake of the
    ///   owner's rides along — may be lost, and the peer, holding nothing,
    ///   times nothing. The heal steps run on a doubling interval, so a
    ///   peer that is merely slow to start (a long injection queue) costs
    ///   O(log wait) of them.
    /// * **A scheme that [times silence](RxScheme::times_silence)** steps
    ///   every `interval`.
    /// * **Otherwise: news, one repeat, then the sender's clock.** A step
    ///   an arrival asked for spoke; what it said is repeated once, one
    ///   `interval` later, to cover its own loss, and after that the
    ///   receiver has no timer until its next arrival. This cannot wedge a
    ///   transfer: (1) every step reports the *whole* bitmap, so the ACK of
    ///   any later arrival stands in for every ACK lost before it; (2) what
    ///   the receiver lacks it will never announce by itself, but the
    ///   sender's RTO resends it after a bounded silence, and its landing
    ///   is an arrival; (3) what the receiver holds and the sender never
    ///   heard of — an ACK and its repeat both lost — the RTO resends
    ///   spuriously, once per back-off step, until (1) applies or the
    ///   message completes, and completion is not left to this rule: the
    ///   final ACK is repeated by the linger countdown however quiet the
    ///   wire. So two lost datagrams cost a bounded number of duplicate
    ///   chunks, which the bitmap drops.
    ///
    /// Whatever the rule says, a step an arrival already asked for is
    /// never slept past.
    pub fn next_step(&mut self, now: SimTime, interval: SimTime) -> Option<SimTime> {
        let clock = if !self.common.seen {
            let wait = backed_off(interval, self.heals);
            self.heals += 1;
            Some(now.saturating_add(wait))
        } else if self.scheme.times_silence() || self.on_news {
            Some(now.saturating_add(interval))
        } else {
            None
        };
        match (self.wake, clock) {
            (Some(wake), Some(clock)) => Some(wake.min(clock)),
            (wake, clock) => wake.or(clock),
        }
    }

    /// Second half of a completed step: count one final-ACK repeat down;
    /// when none are left, release the slots and stop.
    pub fn linger(&mut self, eng: &mut Engine) -> Tick {
        if self.lingers_left == 0 {
            self.release(eng);
            Tick::Stop
        } else {
            self.lingers_left -= 1;
            Tick::Again
        }
    }

    /// Releases every posted slot back to the QP now. Exactly once: the
    /// latch makes a later call (the linger countdown racing a quiesce, or
    /// an owner that frees slots at resolution) a no-op. Returns `true`
    /// when this call performed the release.
    pub fn release(&mut self, eng: &mut Engine) -> bool {
        if self.released {
            return false;
        }
        for h in &self.common.hdls {
            let _ = self.common.qp.recv_complete(eng, h);
        }
        self.released = true;
        self.scheme.released();
        true
    }

    /// The completion instant, if reached.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// True once every posted slot has been released back to the QP.
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// The scheme's state (statistics, the final ACK).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The slot-level state (bitmaps, counters, frontier).
    pub fn common(&self) -> &RxCommon {
        &self.common
    }
}

struct RxState<S: RxScheme> {
    rx: RxStep<S>,
    ctrl: Rc<dyn CtrlPath>,
    peer_ctrl: QpAddr,
    done_cb: Option<Box<dyn FnOnce(&mut Engine, SimTime, S::Done)>>,
    /// The step loop's one timer: news pulls it forward, quiesce cancels
    /// it.
    tick: Option<TimerHandle>,
    /// The heartbeat interval.
    interval: SimTime,
    /// When `tick` fires next, so news only ever moves it earlier.
    next_step: SimTime,
}

/// The per-transfer receiver driver: steps one [`RxStep`] on a heartbeat
/// and ahead of it when an arrival is news, sends its traffic to
/// `peer_ctrl` over `ctrl`, and fires the completion callback exactly once.
///
/// The heartbeat is for silence — a lost CTS, a lost tail, the linger
/// repeats — and nothing else waits on it: every posted slot's
/// chunk-completion hook ([`SdrQp::set_chunk_hook`]) reports to the step,
/// and when the scheme calls the arrival news ([`RxScheme::on_chunk`]) the
/// driver moves its *one* timer to the instant asked for. A step run early
/// is an ordinary step; the heartbeat resumes one interval after it. The
/// heartbeat is this owner's addition: between steps the timer sits where
/// [`RxStep::next_step`] puts it, or one interval out, whichever is sooner
/// — a per-transfer sender's RTO is a few round trips and counts on the
/// periodic ACK.
pub struct RxDriver<S: RxScheme> {
    inner: Rc<RefCell<RxState<S>>>,
}

impl<S: RxScheme> RxDriver<S> {
    /// Starts the receive loop: `rx` is stepped every `tick`, and sooner
    /// when its slots' arrivals are news, until its scheme reports
    /// completion; `done` then fires exactly once; the final ACK repeats
    /// for the step's linger count before every posted slot is released
    /// (exactly once) and the loop stops.
    pub fn spawn(
        eng: &mut Engine,
        tick: SimTime,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        rx: RxStep<S>,
        done: impl FnOnce(&mut Engine, SimTime, S::Done) + 'static,
    ) -> Self {
        let inner = Rc::new(RefCell::new(RxState {
            rx,
            ctrl,
            peer_ctrl,
            done_cb: Some(Box::new(done)),
            tick: None,
            interval: tick,
            next_step: eng.now().saturating_add(tick),
        }));
        let me = inner.clone();
        let h = tick_loop(eng, tick, move |eng| Self::tick(&me, eng));
        inner.borrow_mut().tick = Some(h);
        let me = Rc::downgrade(&inner);
        inner
            .borrow()
            .rx
            .common()
            .subscribe(move |eng, slot, chunk| Self::on_chunk(&me, eng, slot, chunk));
        RxDriver { inner }
    }

    /// A posted slot completed a chunk: when the step calls it news, pull
    /// the timer forward to the instant it asks for.
    fn on_chunk(weak: &Weak<RefCell<RxState<S>>>, eng: &mut Engine, slot: usize, chunk: usize) {
        let Some(inner) = weak.upgrade() else { return };
        let mut st = inner.borrow_mut();
        let Some(at) = st.rx.arrival(slot, chunk, eng.now()) else {
            return;
        };
        if let (true, Some(h)) = (at < st.next_step, st.tick) {
            if eng.reschedule(h, at) {
                st.next_step = at;
            }
        }
    }

    fn tick(inner: &Rc<RefCell<RxState<S>>>, eng: &mut Engine) -> Tick {
        let mut st = inner.borrow_mut();
        if st.rx.is_released() {
            return Tick::Stop;
        }
        let first = st.rx.completed_at().is_none();
        // Every path below that goes round again sleeps one heartbeat.
        st.next_step = eng.now().saturating_add(st.interval);
        {
            let RxState {
                rx,
                ctrl,
                peer_ctrl,
                interval,
                next_step,
                ..
            } = &mut *st;
            let mut send = |eng: &mut Engine, msg: &CtrlMsg| ctrl.send_ctrl(eng, *peer_ctrl, msg);
            if !rx.poll(eng, &mut send) {
                // ...unless the step's own rule — in practice an arrival
                // that already asked for one — says sooner.
                if let Some(at) = rx.next_step(eng.now(), *interval) {
                    *next_step = at.min(*next_step);
                }
                return Tick::Until(*next_step);
            }
            send(eng, &rx.scheme().final_ack());
        }
        if first {
            if let Some(cb) = st.done_cb.take() {
                let (now, payload) = (eng.now(), st.rx.scheme().done_payload());
                drop(st);
                cb(eng, now, payload);
                st = inner.borrow_mut();
            }
        }
        // Keep re-ACKing for a while (the final ACK can drop), then release
        // the buffers — exactly once.
        st.rx.linger(eng)
    }

    /// Quiesce-and-rebind support for scheme handovers: releases every
    /// posted slot *now* (exactly once — the same latch the natural linger
    /// countdown uses, so racing the countdown is safe) and tears the poll
    /// loop down. The adaptive receiver calls this on a completed
    /// segment's driver once the sender's `SegDone` watermark confirms the
    /// final ACK round-trip — from then on the remaining linger repeats
    /// would only hold slots the successor scheme needs. Returns `true`
    /// when this call performed the release.
    pub fn quiesce(&self, eng: &mut Engine) -> bool {
        let mut st = self.inner.borrow_mut();
        if !st.rx.release(eng) {
            return false;
        }
        // Tear the poll loop down now instead of letting it wake once
        // more only to observe the release.
        if let Some(h) = st.tick.take() {
            eng.cancel(h);
        }
        true
    }

    /// True once the scheme reported completion.
    pub fn is_complete(&self) -> bool {
        self.inner.borrow().rx.completed_at().is_some()
    }

    /// True once every posted slot has been released back to the QP.
    pub fn is_released(&self) -> bool {
        self.inner.borrow().rx.is_released()
    }

    /// Reads scheme-specific state (mid-run statistics).
    pub fn scheme<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(self.inner.borrow().rx.scheme())
    }

    /// `(observed, total)` packets across this driver's slots (see
    /// [`RxCommon::frontier`]).
    pub fn frontier(&self) -> (u64, u64) {
        self.inner.borrow().rx.common().frontier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_chunk_fails_closed_on_a_stale_handle() {
        use sdr_core::testkit::{pattern, sdr_pair};
        use sdr_core::{SdrConfig, SdrError};
        let cfg = SdrConfig::default();
        let mut p = sdr_pair(sdr_sim::LinkConfig::intra_dc(8e9), cfg, 8 << 20);
        let len = 4 * cfg.chunk_bytes;
        let data = pattern(len as usize, 5);
        let src = p.ctx_a.alloc_buffer(len);
        let dst = p.ctx_b.alloc_buffer(len);
        p.ctx_a.write_buffer(src, &data);
        let mut rx = RxCommon::new(&p.qp_b);
        let slot = rx.post(&mut p.eng, dst, len);
        p.eng.run();
        p.qp_a.send_post(&mut p.eng, src, len, None).unwrap();
        p.eng.run();
        let chunk = &data[cfg.chunk_bytes as usize..2 * cfg.chunk_bytes as usize];
        assert!(rx.verify_chunk(slot, 1, chunk), "live handle, clean bytes");

        // Retire the receive and let the QP's slot ring wrap onto the same
        // slot: the handle's sequence has moved on.
        let hdl = rx.hdls[slot];
        p.qp_b.recv_complete(&mut p.eng, &hdl).unwrap();
        for _ in 0..cfg.msg_slots {
            let h = p.qp_b.recv_post(&mut p.eng, dst, len).unwrap();
            p.qp_b.recv_complete(&mut p.eng, &h).unwrap();
        }
        assert_eq!(
            p.qp_b.verify_packet_range(&hdl, 16, chunk),
            Err(SdrError::BadHandle)
        );
        assert!(
            !rx.verify_chunk(slot, 1, chunk),
            "bytes nothing checked are not vouched for"
        );
    }

    #[test]
    fn chunk_timers_track_acks_and_cursor() {
        let mut t = ChunkTimers::new(4);
        assert_eq!(t.total(), 4);
        assert!(!t.is_complete());
        assert_eq!(t.first_unacked(), Some(0));
        assert!(t.mark_acked(1));
        assert!(!t.mark_acked(1), "re-ack is not new");
        assert!(!t.mark_acked(99), "out of range ignored");
        assert_eq!(t.first_unacked(), Some(0), "cursor stops at the hole");
        t.ack_prefix(2);
        assert_eq!(t.first_unacked(), Some(2));
        t.ack_prefix(4);
        assert!(t.is_complete());
        assert_eq!(t.first_unacked(), None);
    }

    /// Stamps every chunk as having left the wire at `at`.
    fn all_departed(t: &mut ChunkTimers, at: SimTime) {
        for c in 0..t.total() {
            t.record_sent(c, at);
        }
    }

    #[test]
    fn chunk_timers_expiry_scan_and_claim_guard() {
        let mut t = ChunkTimers::new(3);
        let t0 = SimTime::from_secs_f64(1.0);
        let rto = SimTime::from_secs_f64(0.5);
        all_departed(&mut t, t0);
        // Nothing expired right after departure; the deadline is one RTO out.
        let mut hits = Vec::new();
        let next = t.take_expired(t0, rto, |_| unreachable!());
        assert_eq!(next, Some(t0 + rto), "sleep-to deadline is one RTO out");
        // After an RTO, every unacked chunk fires once and takes the stamp
        // its resend reports — here a device queue a quarter RTO deep.
        let t1 = t0 + rto;
        let queue = rto / 4;
        t.mark_acked(1);
        let next = t.take_expired(t1, rto, |c| {
            hits.push(c);
            t1 + queue
        });
        assert_eq!(hits, vec![0, 2]);
        assert!(t.was_resent(0) && !t.was_resent(1) && t.was_resent(2));
        assert_eq!(
            next,
            Some(t1 + queue + rto * 2),
            "the deadline runs from the new stamps under the doubled RTO"
        );
        let _ = t.take_expired(t1, rto, |_| unreachable!("stamped chunks do not re-fire"));
        // The claim guard is the overdue test: age is measured from
        // departure, a copy still queued (stamp in the future) has none,
        // acked chunks never qualify.
        assert!(!t.overdue(0, t1, SimTime(1)), "still queued");
        assert!(!t.overdue(0, t1 + queue + rto - SimTime(1), rto));
        assert!(t.overdue(0, t1 + queue + rto, rto));
        assert!(!t.overdue(1, t1 + rto * 9, rto), "acked chunks never claim");
        assert!(!t.overdue(99, t1 + rto * 9, rto), "out of range ignored");
    }

    #[test]
    fn rtt_samples_follow_karns_rule() {
        let mut t = ChunkTimers::new(3);
        let t0 = SimTime::from_secs_f64(1.0);
        let rtt = SimTime::from_secs_f64(0.01);
        let rto = SimTime::from_secs_f64(0.05);
        all_departed(&mut t, t0);
        // Chunk 0 acked on its first transmission: clean sample.
        assert!(t.mark_acked(0));
        assert_eq!(t.rtt_sample(0, t0 + rtt), Some(rtt));
        // Chunk 1 expires and is retransmitted: its later ACK is ambiguous.
        let _ = t.take_expired(t0 + rto, rto, |_| t0 + rto);
        assert!(t.mark_acked(1));
        assert_eq!(t.rtt_sample(1, t0 + rto + rtt), None, "Karn's rule");
        // Out-of-range chunks never sample.
        assert_eq!(t.rtt_sample(99, t0), None);
    }

    #[test]
    fn rto_backoff_doubles_on_silence_and_resets_on_progress() {
        let mut t = ChunkTimers::new(2);
        let t0 = SimTime::ZERO;
        let rto = SimTime::from_secs_f64(0.1);
        all_departed(&mut t, t0);
        assert_eq!(t.backoff(), 0);
        // Consecutive unproductive rounds: the backoff climbs one per
        // firing scan and saturates at the cap (64× the base RTO).
        let mut now = t0;
        for round in 1..=10u32 {
            now = now.saturating_add(t.effective_timeout(rto));
            let mut fired = 0;
            let next = t.take_expired(now, rto, |_| {
                fired += 1;
                now
            });
            assert_eq!(fired, 2, "both chunks retransmit each round");
            assert_eq!(t.backoff(), round.min(RTO_BACKOFF_CAP));
            assert_eq!(next, Some(now + rto * (1u64 << t.backoff())));
        }
        assert_eq!(t.effective_timeout(rto), rto * 64, "capped at 64×");
        // ACK progress restarts the clock at the base timeout.
        assert!(t.mark_acked(0));
        assert_eq!(t.backoff(), 0);
        let next = t.take_expired(now, rto, |_| unreachable!());
        assert_eq!(next, Some(now + rto), "post-progress deadline is base RTO");
    }

    #[test]
    fn completion_fires_exactly_once_and_tracks_start() {
        let mut c: Completion<u32> = Completion::new(|_eng, _r| {});
        assert!(!c.is_done());
        let t1 = SimTime::from_secs_f64(1.0);
        let t2 = SimTime::from_secs_f64(3.0);
        c.mark_started(t1);
        c.mark_started(t2); // idempotent
        assert_eq!(c.started(), Some(t1));
        assert_eq!(c.elapsed(t2), t2.saturating_sub(t1));
        assert!(c.finish().is_some());
        assert!(c.is_done());
        assert!(c.finish().is_none(), "second finish yields nothing");
    }

    #[test]
    fn delivery_manifest_tracks_segments_and_bytes() {
        // 10 bytes in 4-byte segments: (0,4) (4,4) (8,2).
        let mut m = DeliveryManifest::new(10, 4);
        assert_eq!(m.total_segments(), 3);
        assert_eq!(m.segment(2), (8, 2));
        assert_eq!(m.delivered_bytes(), 0);
        assert!(!m.is_complete());
        assert!(m.mark_delivered(2));
        assert!(!m.mark_delivered(2), "re-mark is not new");
        assert_eq!(m.delivered_bytes(), 2, "tail segment is short");
        assert_eq!(m.undelivered(), vec![0, 1]);
        m.mark_delivered(0);
        m.mark_delivered(1);
        assert!(m.is_complete());
        assert_eq!(m.delivered_bytes(), 10);
        assert!(m.undelivered().is_empty());
    }

    #[test]
    fn delivery_manifest_wire_roundtrip_rejects_corruption() {
        let mut m = DeliveryManifest::new(40 << 20, 2 << 20);
        for i in [0, 3, 7, 19] {
            m.mark_delivered(i);
        }
        let mut b = bytes::BytesMut::new();
        m.encode_into(&mut b);
        let mut wire = b.freeze();
        assert_eq!(DeliveryManifest::decode_from(&mut wire), Some(m.clone()));
        // Truncated.
        let mut b2 = bytes::BytesMut::new();
        m.encode_into(&mut b2);
        let mut short = b2.freeze().slice(0..17);
        assert_eq!(DeliveryManifest::decode_from(&mut short), None);
        // Stray bits past the last segment.
        let mut b3 = bytes::BytesMut::new();
        m.encode_into(&mut b3);
        let mut bad = b3.to_vec();
        *bad.last_mut().unwrap() |= 0x80; // segment 20 of 20 (bit 20 set)
        assert_eq!(
            DeliveryManifest::decode_from(&mut bytes::Bytes::from(bad)),
            None
        );
        // Zero geometry.
        let mut zeros = bytes::Bytes::from_static(&[0u8; 16]);
        assert_eq!(DeliveryManifest::decode_from(&mut zeros), None);
    }

    #[test]
    fn tick_loop_reschedules_until_stop() {
        let mut eng = Engine::new();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        tick_loop(&mut eng, SimTime::from_secs_f64(1.0), move |_eng| {
            *c.borrow_mut() += 1;
            if *c.borrow() == 3 {
                Tick::Stop
            } else {
                Tick::Again
            }
        });
        eng.run();
        assert_eq!(*count.borrow(), 3);
    }
}
