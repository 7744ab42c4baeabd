//! Erasure-coding reliability over SDR (§4.1.2) — a policy over the
//! [`runtime`](crate::runtime) building blocks.
//!
//! The sender splits the message into `L = M/k` data submessages of `k`
//! bitmap chunks each, erasure-codes each into a parity submessage of `m`
//! chunks, and transmits all `2L` as SDR messages (data streams stay open
//! so failed submessages can be selective-repeated; a parity submessage is
//! injected once, whole). Encoding uses the `sdr-erasure` MDS
//! (Reed–Solomon) or XOR codes.
//!
//! What lives here is EC's own: geometry, the parity pipeline, the send
//! policy [`EcTx`] and the receive policy [`EcRxScheme`]. No send handles:
//! opening on credit, injecting and closing every send is [`StreamTx`]'s,
//! and [`EcSender`] is `TxDriver<EcTx>` as the ARQ senders are.
//!
//! The receiver is an [`RxScheme`] ([`EcRxScheme`]) that acts on arrivals:
//! a submessage is resolved — all data chunks present, or enough
//! data+parity chunks for in-place decoding — the moment the chunk that
//! makes it decidable lands, and one the wire has moved past while it was
//! still short is NACKed (switching it to Selective Repeat, the paper's
//! fallback scheme) one margin later, on wire-order evidence, as the SR
//! sender repairs on it. The paper's fallback timeout `FTO = (M +
//! ⌈M/R⌉)·T_INJ + β·RTT`, armed at the first observed packet, survives as
//! the timer for what order cannot see — a tail nothing follows — and a
//! NACKed submessage is not NACKed again before its repair could have
//! landed. Each NACK leaves at its due instant, the deadline the policy
//! names to the shared [`RxStep`]; the rest of the step rule (news, its
//! one repeat, the CTS heal at `poll_interval` = RTT/8 doubling), the
//! positive-ACK linger and the exactly-once buffer release are the step's.
//!
//! # The in-place encode
//!
//! Parity is encoded when its submessage opens, in place in node memory:
//! inside one borrow the sender reads the submessage's data chunks where
//! they lie in the user buffer and writes the parity straight into its
//! staging region, column-striped across the [`EncodePool`] (the caller
//! runs one stripe, the workers the rest). Data submessages need no
//! encode, so the first byte leaves before any parity exists, and the
//! sender holds no encode buffer.
//!
//! ```text
//!  sim thread   │ inject D0 D1 … D(L-1) │ enc P0 │ inject P0 │ enc P1 │ inject P1 │ …
//!  encode pool  │                       │ enc P0 │           │ enc P1 │           │ …
//!               │                       (stripes: caller + workers)
//! ```
//!
//! Encoding one submessage ahead on a worker overlapped nothing in
//! practice: the receiver posts all `2L` slots at once, so the parity
//! credits land in one burst and the sender waited on the encodes one
//! after another, after copying the data in and the parity out.
//!
//! # The in-place decode
//!
//! The receiver's decode is zero-copy, as the NIC's writes are: inside one
//! borrow of node memory it reads the present data chunks where they landed
//! in the user buffer and the present parity where it landed in its scratch
//! block, and rebuilds only the missing data chunks, straight into the user
//! buffer (`ErasureCode::reconstruct_data`; erased parity is never
//! rebuilt). The GF(256) work is split into column stripes on the same
//! [`EncodePool`] at the encode's width — one per worker, none narrower
//! than a kernel strip. It allocates no chunk buffer.

use std::rc::Rc;
use std::time::{Duration, Instant};

use sdr_core::{SdrContext, SdrQp, TwoLevelBitmap};
use sdr_erasure::{EncodePool, ErasureCode, ReedSolomon, XorCode};
use sdr_sim::{Counter, Engine, EventKind, FlightRecorder, QpAddr, SimTime};

use crate::ack::{CtrlMsg, MAX_EC_NACKS};
use crate::control::CtrlPath;
use crate::runtime::{
    CtrlSink, RxCommon, RxDriver, RxScheme, RxStep, StreamTx, TransferOutcome, TxDriver,
    TxProgress, TxScheme,
};
use crate::sr::REPAIR_MARGIN_DIV;

/// Which erasure code protects the submessages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcCodeChoice {
    /// Reed–Solomon MDS: any ≤ m chunk drops per submessage recoverable.
    Mds,
    /// XOR modulo-group code: one drop per group recoverable.
    Xor,
}

/// EC protocol tuning.
#[derive(Clone, Copy, Debug)]
pub struct EcProtoConfig {
    /// Data chunks per submessage (`k`).
    pub k: usize,
    /// Parity chunks per submessage (`m`).
    pub m: usize,
    /// Code family.
    pub code: EcCodeChoice,
    /// Receiver step interval: the news repeat's delay and the CTS-heal
    /// clock's base.
    pub poll_interval: SimTime,
    /// Fallback timeout, armed when the receiver first observes a packet
    /// (or a slot a later sequence's packet passed).
    pub fto: SimTime,
    /// Propagation round trip of the path: a NACKed submessage's repair
    /// cannot land sooner, so it is not NACKed again sooner.
    pub rtt: SimTime,
    /// Final-ACK repeats before releasing buffers.
    pub linger_acks: u32,
}

impl EcProtoConfig {
    /// Builds a config with the paper's FTO formula
    /// `(M + ⌈M/R⌉)·T_INJ + β·RTT` (β = 0.5) for a given deployment.
    pub fn for_channel(
        k: usize,
        m: usize,
        code: EcCodeChoice,
        ch: &sdr_model::Channel,
        msg_bytes: u64,
        rtt: SimTime,
    ) -> Self {
        let m_chunks = ch.chunks_for(msg_bytes);
        let parity = submessages(m_chunks, k) * m as u64;
        let fto_s = (m_chunks + parity) as f64 * ch.t_inj() + 0.5 * ch.rtt_s;
        EcProtoConfig {
            k,
            m,
            code,
            poll_interval: rtt / 8,
            fto: SimTime::from_secs_f64(fto_s),
            rtt,
            linger_acks: 25,
        }
    }

    /// The wire time the FTO allows one pass of data and parity: the FTO
    /// less its `β·RTT` of slack. A repair is part of a pass, so it is also
    /// the most a repair spends on the wire.
    fn pass_time(&self) -> SimTime {
        self.fto.saturating_sub(self.rtt / 2)
    }
}

/// Geometry of one submessage.
#[derive(Clone, Copy, Debug)]
struct SubGeom {
    /// First data chunk (message-global index).
    chunk_start: u64,
    /// Data chunks in this submessage (`k`, shorter for the tail).
    k_eff: usize,
    /// Parity chunks (`m`, clamped for XOR tails).
    m_eff: usize,
}

/// `L`: the data submessages a message of `total_chunks` splits into at `k`
/// chunks each. A transfer takes `2L` sends and receive slots — what
/// [`SchemeSpec::sends`](crate::SchemeSpec::sends) tells a host.
pub(crate) fn submessages(total_chunks: u64, k: usize) -> u64 {
    total_chunks.div_ceil(k as u64)
}

fn geometry(total_chunks: u64, k: usize, m: usize, code: EcCodeChoice) -> Vec<SubGeom> {
    (0..submessages(total_chunks, k))
        .map(|i| {
            let chunk_start = i * k as u64;
            let k_eff = (total_chunks - chunk_start).min(k as u64) as usize;
            let m_eff = match code {
                EcCodeChoice::Mds => m,
                EcCodeChoice::Xor => m.min(k_eff),
            };
            SubGeom {
                chunk_start,
                k_eff,
                m_eff,
            }
        })
        .collect()
}

/// One code instance per submessage. [`ReedSolomon::new`] is a registry
/// lookup — each shape is built once per process — and every instance of a
/// shape shares its decode cache.
fn codes_for(choice: EcCodeChoice, geoms: &[SubGeom]) -> Vec<Box<dyn ErasureCode>> {
    let code = |g: &SubGeom| -> Box<dyn ErasureCode> {
        match choice {
            EcCodeChoice::Mds => Box::new(ReedSolomon::new(g.k_eff, g.m_eff)),
            EcCodeChoice::Xor => Box::new(XorCode::new(g.k_eff, g.m_eff)),
        }
    };
    geoms.iter().map(code).collect()
}

/// Rebuilds the data chunks `present` marks missing straight into `data`
/// (the submessage's `k` chunks), from its present chunks and the present
/// chunks of `parity`, column-striped over the [`EncodePool`] at its
/// stripe width.
fn decode_in_place(
    code: &dyn ErasureCode,
    data: &mut [u8],
    parity: &[u8],
    present: &[bool],
    chunk_len: usize,
) {
    let k = data.len() / chunk_len;
    let mut shards: Vec<Option<&[u8]>> = Vec::with_capacity(present.len());
    let mut holes: Vec<&mut [u8]> = Vec::new();
    for (chunk, &p) in data.chunks_exact_mut(chunk_len).zip(present) {
        if p {
            shards.push(Some(chunk));
        } else {
            shards.push(None);
            holes.push(chunk);
        }
    }
    let parity = parity.chunks_exact(chunk_len).zip(&present[k..]);
    shards.extend(parity.map(|(chunk, &p)| p.then_some(chunk)));
    let pool = EncodePool::global();
    pool.reconstruct_striped(code, &shards, &mut holes, pool.stripes(chunk_len))
        .expect("can_recover checked");
}

/// Sender-side transfer outcome.
#[derive(Clone, Debug)]
pub struct EcReport {
    /// First injection to positive-ACK reception.
    pub duration: SimTime,
    /// Fallback NACK rounds served.
    pub fallback_rounds: u64,
    /// Wall-clock time from `EcSender::start` entry to the first data
    /// injection — the host-side cost paid before the first byte leaves:
    /// the staging region's allocation, not any parity encode.
    pub ttfb_wall: Duration,
    /// Parity submessages already encoded when the first data byte was
    /// injected — the counted form of the same fact: parity is encoded
    /// when its submessage opens, so a sender reads 0 here; staging up
    /// front would read every submessage.
    pub staged_at_first_byte: usize,
    /// How the transfer ended ([`TransferOutcome::Aborted`] after
    /// [`EcSender::abort`]; `duration` then covers start → abort).
    pub outcome: TransferOutcome,
}

/// The sender's parity staging: the region in local memory that parity
/// submessages are sent from, filled submessage by submessage in place.
/// Plain state over the shared [`EncodePool`] — whoever owns the sends
/// ([`EcTx::span`](TxScheme::span) under the driver, the flow manager's
/// stream starts) calls [`staged`](Self::staged) right before a parity
/// submessage opens, and [`release`](Self::release) at the sender's end of
/// life.
pub(crate) struct ParityStager {
    ctx: SdrContext,
    local_addr: u64,
    chunk_bytes: u64,
    geoms: Vec<SubGeom>,
    /// One code instance per submessage.
    codes: Vec<Box<dyn ErasureCode>>,
    /// Base of the staging region in node memory; `None` once
    /// [`release`](Self::release) has returned it.
    parity_addr: Option<u64>,
    parity_offsets: Vec<u64>,
    parity_total_bytes: u64,
    /// Parity submessages encoded into the staging region: parity opens in
    /// order, so these are submessages `0..encoded`.
    encoded: usize,
}

impl ParityStager {
    /// Allocates the staging region for the `msg_bytes` message at
    /// `local_addr`. Nothing is encoded until a parity submessage opens.
    pub(crate) fn new(
        ctx: &SdrContext,
        local_addr: u64,
        msg_bytes: u64,
        chunk_bytes: u64,
        cfg: &EcProtoConfig,
    ) -> Self {
        assert!(
            msg_bytes.is_multiple_of(chunk_bytes),
            "EC layer requires chunk-aligned messages"
        );
        let geoms = geometry(msg_bytes / chunk_bytes, cfg.k, cfg.m, cfg.code);
        let codes = codes_for(cfg.code, &geoms);
        let mut parity_offsets = Vec::with_capacity(geoms.len());
        let mut off = 0u64;
        for g in &geoms {
            parity_offsets.push(off);
            off += g.m_eff as u64 * chunk_bytes;
        }
        ParityStager {
            ctx: ctx.clone(),
            local_addr,
            chunk_bytes,
            geoms,
            codes,
            parity_addr: Some(ctx.alloc_buffer(off)),
            parity_offsets,
            parity_total_bytes: off,
            encoded: 0,
        }
    }

    /// Submessages in the message.
    pub(crate) fn submessages(&self) -> usize {
        self.geoms.len()
    }

    /// `(addr, len)` of data submessage `idx` in the user buffer.
    fn data(&self, idx: usize) -> (u64, u64) {
        let g = self.geoms[idx];
        (
            self.local_addr + g.chunk_start * self.chunk_bytes,
            g.k_eff as u64 * self.chunk_bytes,
        )
    }

    /// `(addr, len)` of parity submessage `idx` in the staging region.
    fn parity(&self, idx: usize) -> (u64, u64) {
        let base = self.parity_addr.expect("parity staging already released");
        (
            base + self.parity_offsets[idx],
            self.geoms[idx].m_eff as u64 * self.chunk_bytes,
        )
    }

    /// Encodes submessage `idx` inside one borrow of node memory: its data
    /// chunks are read where they lie in the user buffer and its parity is
    /// written straight into the staging region, column-striped over the
    /// [`EncodePool`]. Only the parity pages are stamped written, so the
    /// data packets still in flight keep their carried checksums.
    fn encode(&self, idx: usize) {
        let chunk = self.chunk_bytes as usize;
        let ((data_addr, data_len), (parity_addr, parity_len)) = (self.data(idx), self.parity(idx));
        let code = &*self.codes[idx];
        self.ctx.fabric().node_mut(self.ctx.node(), |n| {
            let (data, parity) = n.mem_mut().read_write(
                (data_addr, data_len as usize),
                (parity_addr, parity_len as usize),
            );
            let data: Vec<&[u8]> = data.chunks_exact(chunk).collect();
            let mut parity: Vec<&mut [u8]> = parity.chunks_exact_mut(chunk).collect();
            let pool = EncodePool::global();
            pool.encode_striped(code, &data, &mut parity, pool.stripes(chunk));
        });
    }

    /// Encodes every parity submessage up to `p` not yet encoded and
    /// returns `p`'s `(addr, len)` in the staging region.
    pub(crate) fn staged(&mut self, p: usize) -> (u64, u64) {
        while self.encoded <= p {
            self.encode(self.encoded);
            self.encoded += 1;
        }
        self.parity(p)
    }

    /// Returns the staging region to node memory (the next stager of the
    /// same geometry reuses it). The sender's end of life, not `Drop`:
    /// handler closures keep the owning state alive long after the
    /// transfer is over. Packets still on the wire keep the parity they
    /// were posted with ([`SdrContext::free_buffer`]).
    pub(crate) fn release(&mut self) {
        let base = self.parity_addr.take().expect("released once");
        self.ctx.free_buffer(base, self.parity_total_bytes);
    }
}

/// The EC send policy: `2L` sends — data submessages `0..L` straight from
/// the user buffer, then parity `L..2L` out of the stager, each encoded
/// when its credit lands — and a fallback that re-injects a NACKed data
/// submessage whole. No timer: the FTO is the receiver's.
///
/// One loss the receiver cannot time: a send none of whose packets
/// landed. The receiver keeps re-crediting that slot instead (until
/// anything at or past it lands). A re-credit arriving more than a round
/// trip plus one margin (`rtt /` [`REPAIR_MARGIN_DIV`], SR's overdue
/// test) after the send's latest departure left after the send would have
/// landed, so it proves the send lost: the sender re-injects it whole. A
/// younger one may have crossed the packets (the heal clock starts at
/// `rtt / 8`) and is ignored.
pub struct EcTx {
    stager: ParityStager,
    rtt: SimTime,
    /// Per send, when its latest copy leaves the wire.
    departed: Vec<SimTime>,
    started_wall: Instant,
    ttfb_wall: Duration,
    staged_at_first_byte: usize,
    fallback_rounds: u64,
}

impl EcTx {
    /// Injects send `send` whole again, restamping its departure.
    fn reinject(&mut self, eng: &mut Engine, stream: &StreamTx, send: usize) {
        let last = &mut self.departed[send];
        stream.inject_all(eng, send, |_, at| *last = (*last).max(at));
    }
}

impl TxScheme for EcTx {
    type Report = EcReport;

    fn sends(&self) -> usize {
        2 * self.stager.submessages()
    }

    /// Data needs no encoding, so the first byte leaves before any parity
    /// exists; parity `p` is encoded here, as it opens.
    fn span(&mut self, i: usize, _msg: (u64, u64)) -> (u64, u64) {
        match i.checked_sub(self.stager.submessages()) {
            None => self.stager.data(i),
            Some(p) => self.stager.staged(p),
        }
    }

    fn on_sent(&mut self, send: usize, _chunk: usize, departs: SimTime) {
        self.departed[send] = self.departed[send].max(departs);
    }

    fn on_begin(&mut self, _now: SimTime) -> Option<SimTime> {
        self.ttfb_wall = self.started_wall.elapsed();
        self.staged_at_first_byte = self.stager.encoded;
        None
    }

    /// Positive ACK finishes; NACK selective-repeats the data submessages
    /// it names (those already open — the rest have yet to go out at all).
    fn on_ctrl(&mut self, eng: &mut Engine, stream: &StreamTx, msg: CtrlMsg) -> TxProgress {
        let mut progress = TxProgress::default();
        match msg {
            CtrlMsg::EcAck => progress.complete = true,
            CtrlMsg::EcNack { failed } => {
                self.fallback_rounds += 1;
                let l = self.stager.submessages();
                for f in failed.into_iter().map(|f| f as usize).filter(|&f| f < l) {
                    self.reinject(eng, stream, f);
                }
            }
            _ => {}
        }
        progress
    }

    fn on_recredit(&mut self, eng: &mut Engine, stream: &StreamTx, send: usize) {
        let overdue = self.rtt + self.rtt / REPAIR_MARGIN_DIV;
        if eng.now() >= self.departed[send].saturating_add(overdue) {
            self.reinject(eng, stream, send);
        }
    }

    /// The parity staging goes back to node memory.
    fn on_end(&mut self) {
        self.stager.release();
    }

    fn report(&self, duration: SimTime, outcome: TransferOutcome) -> EcReport {
        EcReport {
            duration,
            fallback_rounds: self.fallback_rounds,
            ttfb_wall: self.ttfb_wall,
            staged_at_first_byte: self.staged_at_first_byte,
            outcome,
        }
    }

    fn staged_parity(&mut self) -> Option<Vec<u8>> {
        let st = &mut self.stager;
        // The last submessage's parity ends where the region does.
        let (addr, len) = st.staged(st.submessages() - 1);
        let total = st.parity_total_bytes;
        Some(st.ctx.read_buffer(addr + len - total, total as usize))
    }
}

/// The EC sender protocol object: the per-transfer driver over [`EcTx`]
/// (`is_done` and `abort` are the driver's; EC keeps no sender-side
/// retransmission timer, so an abort has only the sends to close).
pub type EcSender = TxDriver<EcTx>;

impl TxDriver<EcTx> {
    /// Starts an EC-protected transfer. `msg_bytes` must be a multiple of
    /// the QP's bitmap chunk size (chunk-granular shards). The receiver
    /// must run [`EcReceiver`] with the same configuration.
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ctrl: Rc<dyn CtrlPath>,
        _peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: EcProtoConfig,
        done: impl FnOnce(&mut Engine, EcReport) + 'static,
    ) -> EcSender {
        let chunk_bytes = qp.config().chunk_bytes;
        // Parity is encoded into the stager's region as each parity
        // submessage opens.
        let stager = ParityStager::new(ctx, local_addr, msg_bytes, chunk_bytes, &cfg);
        let scheme = EcTx {
            started_wall: Instant::now(),
            rtt: cfg.rtt,
            departed: vec![SimTime::ZERO; 2 * stager.submessages()],
            stager,
            ttfb_wall: Duration::ZERO,
            staged_at_first_byte: 0,
            fallback_rounds: 0,
        };
        assert!(
            scheme.sends() <= qp.config().msg_slots,
            "need 2L ≤ msg_slots in-flight descriptors"
        );
        TxDriver::spawn(eng, qp, &ctrl, local_addr, msg_bytes, scheme, done)
    }

    /// Raw bytes of the whole parity staging region, encoding every
    /// submessage's parity not yet encoded first. Test observability: the
    /// sender must stage exactly what a serial encode of the same data
    /// yields.
    ///
    /// # Panics
    /// Panics once the transfer has finished — the region went back to
    /// node memory and may already belong to another transfer.
    pub fn staged_parity(&self) -> Vec<u8> {
        let staged = self.scheme_mut(|s| s.staged_parity());
        staged.expect("EC stages parity")
    }
}

/// Receiver-side statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcRecvStats {
    /// Submessages completed without decoding (all data chunks arrived).
    pub complete_submessages: u64,
    /// Submessages recovered by erasure decoding.
    pub decoded_submessages: u64,
    /// Fallback NACK rounds sent.
    pub fallback_nacks: u64,
    /// Staged chunks rejected by the arrival-CRC audit: a corrupted
    /// duplicate overwrote recorded memory after the chunk's bits were
    /// set, so the staged bytes no longer match what the NIC verified on
    /// arrival. The chunk is treated as absent — decoded around or
    /// re-delivered via the fallback NACK (clean re-arrivals heal the
    /// memory and the recorded CRCs in place).
    pub stale_chunks: u64,
}

/// Registry counters and the recorder behind the EC receiver's early
/// actions, so each cites its evidence as `sr.retx.*` does for the SR
/// sender. Every EC receiver on a fabric shares the handles.
#[derive(Clone)]
struct EcTrace {
    /// `ec.wake.decodable`: an arrival brought a submessage's present
    /// chunks up to `k` and it was resolved on the spot.
    decodable: Counter,
    /// `ec.nack.order`: submessages NACKed because the wire moved past
    /// their parity while they were still short.
    nack_order: Counter,
    /// `ec.nack.timer`: submessages NACKed on a clock — the FTO for a tail
    /// nothing followed, or a repair that is overdue.
    nack_timer: Counter,
    /// One `ec-nack` event per submessage NACKed, naming the slot that
    /// passed it when the evidence was order.
    recorder: FlightRecorder,
}

impl EcTrace {
    fn new(ctx: &SdrContext) -> Self {
        let reg = ctx.fabric().metrics();
        EcTrace {
            decodable: reg.counter("ec.wake.decodable"),
            nack_order: reg.counter("ec.nack.order"),
            nack_timer: reg.counter("ec.nack.timer"),
            recorder: ctx.fabric().recorder(ctx.node()),
        }
    }
}

/// The EC receive policy: resolve submessages (directly or by in-place
/// decoding) as their chunks land, fall back to Selective Repeat for the
/// ones the evidence says cannot resolve, and report delivery once
/// everything is resolved. Slots `0..L` are the data submessages, `L..2L`
/// the parity scratch buffers.
///
/// # When a submessage is NACKed
///
/// Every unresolved submessage carries the instant its NACK is due, and
/// each step NACKs, in one datagram, the ones whose instant has come.
/// Three things set it, the earliest wins:
///
/// * **order** — the submessage has been *passed*: a chunk completed at or
///   beyond the end of its parity slot in posting order (the last chunk of
///   `P_s`, or any chunk of a later slot). The sender posts `D0..D(L-1),
///   P0..P(L-1)` into one device FIFO and **a link is a FIFO**, so nothing
///   more of the first pass is coming for it; if it is still short it will
///   stay short. Due one margin (`rtt /` [`REPAIR_MARGIN_DIV`]) after the
///   evidence, so the submessages a pass leaves short go in one NACK.
///   Where the assumption fails (`LinkConfig::with_reordering`, multipath)
///   a straggler may still have resolved it: the price is one submessage
///   resent in vain, never a loss — the same bargain as the SR sender's
///   order rule.
/// * **the FTO** — the paper's `(M + ⌈M/R⌉)·T_INJ + β·RTT` from the first
///   observed packet (or slot a later sequence passed), now only the timer
///   for what order cannot see: a tail submessage whose last parity chunk
///   was itself lost, so nothing follows it on the wire.
/// * **a NACK** — the repair cannot land sooner than a round trip, the
///   margin and its own time on the wire after the NACK left, so that is
///   the soonest the submessage is NACKed again. (Re-arming with the FTO
///   alone re-NACKed repairs still in flight whenever `β·RTT + T_pass <
///   RTT`, and the sender served every fallback twice.)
///
/// The earliest `due` is the policy's [`RxScheme::deadline`]. A submessage
/// resolves on an arrival, or on the look just before a NACK names it.
pub struct EcRxScheme {
    ctx: SdrContext,
    fto: SimTime,
    /// One NACK's batching window, and the slack on every time test.
    margin: SimTime,
    /// The soonest a NACKed submessage is NACKed again.
    renack: SimTime,
    buf_addr: u64,
    chunk_bytes: u64,
    geoms: Vec<SubGeom>,
    /// One code instance per submessage.
    codes: Vec<Box<dyn ErasureCode>>,
    /// Per-shard presence flags (data then parity) of the submessage being
    /// resolved, cleared and refilled, never reallocated, across polls.
    present: Vec<bool>,
    parity_addrs: Vec<u64>,
    subs: Vec<SubState>,
    unresolved: usize,
    /// Every submessage below this index has been passed.
    passed_below: usize,
    fto_armed: bool,
    trace: EcTrace,
    /// Receiver statistics so far.
    pub(crate) stats: EcRecvStats,
}

/// Where one submessage stands with the receiver.
#[derive(Clone, Copy)]
struct SubState {
    resolved: bool,
    /// When its NACK is due; `SimTime::MAX` while nothing says one will be
    /// needed.
    due: SimTime,
    /// NACKed at least once: from then on only the clock that spaces its
    /// NACKs moves `due`.
    nacked: bool,
    /// The slot whose arrival passed it, while its pending `due` rests on
    /// that (order evidence); `None` when it rests on a clock.
    passed_by: Option<u32>,
}

impl RxScheme for EcRxScheme {
    type Done = EcRecvStats;

    /// A step: arm the FTO once a slot is observed, NACK what is due. The
    /// FTO arms off *packet* observation, not chunk completion, which heavy
    /// loss may deny the whole first pass (the conformance suite's
    /// heavy-loss rows); a slot a later sequence's packet passed counts.
    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon, send: CtrlSink<'_>) -> bool {
        if rx.observed() {
            self.arm_fto(eng.now());
        }
        self.nack_due(eng, rx, send);
        self.unresolved == 0
    }

    /// The earliest NACK due — the FTO, a re-NACK, or order evidence.
    fn deadline(&self, _now: SimTime, _interval: SimTime) -> Option<SimTime> {
        let open = self.subs.iter().filter(|sub| !sub.resolved);
        open.map(|sub| sub.due)
            .filter(|&due| due < SimTime::MAX)
            .min()
    }

    /// A chunk of submessage `s = slot mod L` landed. If that brings its
    /// present chunks to `k` it is resolved here and now — the decode
    /// happens when the last needed chunk lands, and touches this
    /// submessage only. If the chunk lies past other submessages' parity
    /// they have been passed: their NACK falls due one margin from now.
    fn on_chunk(
        &mut self,
        rx: &RxCommon,
        slot: usize,
        chunk: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        let l = self.geoms.len();
        let s = slot % l;
        self.arm_fto(now);
        if !self.subs[s].resolved {
            let g = self.geoms[s];
            let (data_bm, parity_bm) = (rx.bitmap(s), rx.bitmap(l + s));
            let have = data_bm.chunks().count_set_in_first_n(g.k_eff)
                + parity_bm.chunks().count_set_in_first_n(g.m_eff);
            if have >= g.k_eff {
                self.trace.decodable.inc();
                self.try_resolve(rx, s, &data_bm, &parity_bm);
                if self.unresolved == 0 {
                    return Some(now);
                }
            }
        }
        if slot < l {
            return None;
        }
        let last_of_slot = chunk + 1 == self.geoms[s].m_eff;
        let passed = if last_of_slot { s + 1 } else { s };
        let due = now.saturating_add(self.margin);
        let mut condemned = false;
        for sub in self.subs.iter_mut().take(passed).skip(self.passed_below) {
            if !sub.resolved && !sub.nacked && due < sub.due {
                sub.due = due;
                sub.passed_by = Some(slot as u32);
                condemned = true;
            }
        }
        self.passed_below = self.passed_below.max(passed);
        // (The clocks' own instants are `deadline`'s to name.)
        condemned.then_some(due)
    }

    fn final_ack(&self) -> CtrlMsg {
        CtrlMsg::EcAck
    }

    fn done_payload(&self) -> EcRecvStats {
        self.stats
    }

    /// The parity scratch buffers go back to node memory, last first, so
    /// the next receiver of the same geometry is handed them in posting
    /// order.
    fn released(&mut self) {
        for (addr, g) in self.parity_addrs.drain(..).zip(&self.geoms).rev() {
            self.ctx
                .free_buffer(addr, g.m_eff as u64 * self.chunk_bytes);
        }
    }
}

impl EcRxScheme {
    /// Posts the data buffers (slices of the user buffer at `buf_addr`),
    /// then the parity scratch buffers, on `common` — the same order the
    /// sender issues sends — and returns the policy over them.
    pub(crate) fn post(
        eng: &mut Engine,
        common: &mut RxCommon,
        ctx: &SdrContext,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: &EcProtoConfig,
    ) -> Self {
        let chunk_bytes = common.chunk_bytes();
        assert!(msg_bytes.is_multiple_of(chunk_bytes));
        let geoms = geometry(msg_bytes / chunk_bytes, cfg.k, cfg.m, cfg.code);
        let codes = codes_for(cfg.code, &geoms);
        for g in &geoms {
            let addr = buf_addr + g.chunk_start * chunk_bytes;
            common.post(eng, addr, g.k_eff as u64 * chunk_bytes);
        }
        let mut parity_addrs = Vec::with_capacity(geoms.len());
        for g in &geoms {
            let len = g.m_eff as u64 * chunk_bytes;
            let addr = ctx.alloc_buffer(len);
            parity_addrs.push(addr);
            common.post(eng, addr, len);
        }
        let margin = cfg.rtt / REPAIR_MARGIN_DIV;
        EcRxScheme {
            ctx: ctx.clone(),
            fto: cfg.fto,
            margin,
            renack: cfg
                .rtt
                .saturating_add(margin)
                .saturating_add(cfg.pass_time()),
            buf_addr,
            chunk_bytes,
            subs: vec![
                SubState {
                    resolved: false,
                    due: SimTime::MAX,
                    nacked: false,
                    passed_by: None,
                };
                geoms.len()
            ],
            unresolved: geoms.len(),
            passed_below: 0,
            fto_armed: false,
            geoms,
            codes,
            present: Vec::with_capacity(cfg.k + cfg.m),
            parity_addrs,
            trace: EcTrace::new(ctx),
            stats: EcRecvStats::default(),
        }
    }

    /// Arms the FTO at the first observed arrival (§4.1.2): from here every
    /// submessage has a NACK due at the latest when it expires.
    fn arm_fto(&mut self, now: SimTime) {
        if !self.fto_armed {
            self.fto_armed = true;
            let expiry = now.saturating_add(self.fto);
            for sub in &mut self.subs {
                sub.due = expiry.min(sub.due);
            }
        }
    }

    /// Fallback (§4.1.2): NACKs, in one datagram, every unresolved
    /// submessage whose NACK is due, so the sender selective-repeats them,
    /// and holds each back until its repair has had time to land.
    fn nack_due(&mut self, eng: &mut Engine, rx: &RxCommon, send: CtrlSink<'_>) {
        let now = eng.now();
        let due = |sub: &SubState| !sub.resolved && sub.due <= now;
        // With one due, a NACK names every submessage order evidence has
        // condemned too, however recently — the margin batches a burst, it
        // is not owed to each.
        let named = |sub: &SubState| due(sub) || (!sub.resolved && sub.passed_by.is_some());
        if !self.subs.iter().any(due) {
            return;
        }
        // Look once more at what the NACK would name: a clean duplicate
        // that healed a stale chunk completes no chunk, so no arrival
        // brought it here.
        let l = self.geoms.len();
        for s in 0..l {
            if named(&self.subs[s]) {
                let (data_bm, parity_bm) = (rx.bitmap(s), rx.bitmap(l + s));
                self.try_resolve(rx, s, &data_bm, &parity_bm);
            }
        }
        if !self.subs.iter().any(due) {
            return;
        }
        // What one datagram cannot name stays due for the next step.
        let mut failed = Vec::new();
        for (s, sub) in self.subs.iter_mut().enumerate() {
            if !named(sub) {
                continue;
            }
            if failed.len() == MAX_EC_NACKS {
                break;
            }
            let passed_by = sub.passed_by.take();
            match passed_by {
                Some(_) => self.trace.nack_order.inc(),
                None => self.trace.nack_timer.inc(),
            }
            self.trace.recorder.record(
                now.as_picos(),
                EventKind::EcNack,
                s as u64,
                passed_by.map_or(u64::MAX, u64::from),
            );
            sub.due = now.saturating_add(self.renack);
            sub.nacked = true;
            failed.push(s as u32);
        }
        self.stats.fallback_nacks += 1;
        send(eng, &CtrlMsg::EcNack { failed });
    }

    /// Resolves submessage `s` if the chunks present allow it: all data
    /// there, or enough data + parity for an in-place decode.
    fn try_resolve(
        &mut self,
        rx: &RxCommon,
        s: usize,
        data_bm: &TwoLevelBitmap,
        parity_bm: &TwoLevelBitmap,
    ) {
        let chunk_len = self.chunk_bytes as usize;
        let l = self.geoms.len();
        let g = self.geoms[s];
        // Shard `i` of the submessage is data chunk `i` or parity
        // chunk `i − k`: its receive slot, its chunk index there, and
        // where its bytes live.
        let (k, m) = (g.k_eff, g.m_eff);
        let shard_at = |i: usize| {
            if i < k {
                let off = (g.chunk_start + i as u64) * self.chunk_bytes;
                (s, i, self.buf_addr + off)
            } else {
                let off = (i - k) as u64 * self.chunk_bytes;
                (l + s, i - k, self.parity_addrs[s] + off)
            }
        };
        let present = &mut self.present;
        // Word-level scans (one atomic load per 64 chunks, like the SR
        // ACK path) and retained scratch vectors: the no-loss steady
        // state allocates nothing and touches no per-chunk atomics.
        present.clear();
        present.resize(k + m, true);
        data_bm
            .chunks()
            .for_each_missing_in_first_n(k, |c| present[c] = false);
        parity_bm
            .chunks()
            .for_each_missing_in_first_n(m, |c| present[k + c] = false);
        // What the bitmaps say is an upper bound on what is usable: if
        // even that cannot resolve, no byte needs reading.
        if !self.codes[s].can_recover(present) {
            return;
        }
        // Arrival-CRC audit of a submessage that is about to be used:
        // hash each present chunk where it lies and compare against the
        // CRCs recorded when its packets landed. A mismatch means the
        // chunk was written after its bits were set — not by the wire,
        // whose corrupt packets the NIC drops before they commit, but by
        // a post-DMA write — so demote it to absent *before* any decision
        // reads the presence flags: stale bytes never feed a decode and
        // never silently resolve a submessage. The audit only ever
        // demotes, hence the re-test.
        self.ctx.fabric().node(self.ctx.node(), |n| {
            for (i, p) in present.iter_mut().enumerate().filter(|(_, p)| **p) {
                let (slot, c, addr) = shard_at(i);
                if !rx.verify_chunk(slot, c, n.mem().read(addr, chunk_len)) {
                    *p = false;
                    self.stats.stale_chunks += 1;
                }
            }
        });
        // Every data chunk landed and still matches its arrival CRCs —
        // no decode needed. (The bitmap's `first_n_set` alone would not
        // be sound: a set bit only proves a clean packet landed *once*; a
        // corrupted duplicate may have overwritten it since.)
        if present[..k].iter().all(|&p| p) {
            self.subs[s].resolved = true;
            self.unresolved -= 1;
            self.stats.complete_submessages += 1;
            return;
        }
        if !self.codes[s].can_recover(present) {
            return;
        }
        // Decode in place, inside one borrow of node memory: the present
        // data chunks are read where the NIC landed them in the user
        // buffer, the present parity where it landed in its scratch block,
        // and only the missing data chunks are written — straight into the
        // user buffer.
        let data_addr = self.buf_addr + g.chunk_start * self.chunk_bytes;
        let (data, parity) = (
            (data_addr, k * chunk_len),
            (self.parity_addrs[s], m * chunk_len),
        );
        let code = &*self.codes[s];
        self.ctx.fabric().node_mut(self.ctx.node(), |n| {
            let (parity, data) = n.mem_mut().read_write(parity, data);
            decode_in_place(code, data, parity, present, chunk_len);
        });
        self.subs[s].resolved = true;
        self.unresolved -= 1;
        self.stats.decoded_submessages += 1;
    }
}

/// The EC receiver protocol object: the per-transfer driver over the EC
/// receive policy (`is_complete`, `is_released`, `quiesce` and
/// `frontier` are the driver's).
pub type EcReceiver = RxDriver<EcRxScheme>;

impl RxDriver<EcRxScheme> {
    /// Posts all data and parity buffers and starts the receive loop. `done`
    /// fires when every data submessage is present or decoded.
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: EcProtoConfig,
        done: impl FnOnce(&mut Engine, SimTime, EcRecvStats) + 'static,
    ) -> EcReceiver {
        let mut common = RxCommon::new(qp);
        let scheme = EcRxScheme::post(eng, &mut common, ctx, buf_addr, msg_bytes, &cfg);
        let rx = RxStep::new(common, scheme, cfg.linger_acks);
        RxDriver::spawn(eng, cfg.poll_interval, ctrl, peer_ctrl, rx, done)
    }

    /// Receiver statistics so far.
    pub fn stats(&self) -> EcRecvStats {
        self.scheme(|s| s.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The receiver's decode rebuilds exactly the missing data chunks, in
    /// place, in a small submessage and in one wider than the paper's
    /// largest.
    #[test]
    fn decode_in_place_rebuilds_only_the_missing_chunks() {
        const CHUNK: usize = 4096 + 64;
        for (k, m, lost) in [(4, 2, vec![1, 4]), (60, 8, vec![0, 9, 33, 59, 61])] {
            let code = ReedSolomon::new(k, m);
            let data: Vec<u8> = (0..k * CHUNK).map(|i| (i * 7 % 251) as u8).collect();
            let refs: Vec<&[u8]> = data.chunks_exact(CHUNK).collect();
            let parity: Vec<u8> = code.encode(&refs).concat();
            let mut present = vec![true; k + m];
            let mut landed = data.clone();
            for &i in &lost {
                present[i] = false;
                if i < k {
                    landed[i * CHUNK..(i + 1) * CHUNK].fill(0xEE);
                }
            }
            decode_in_place(&code, &mut landed, &parity, &present, CHUNK);
            assert!(landed == data, "({k}, {m}) lost {lost:?}");
        }
    }

    #[test]
    fn geometry_handles_tails() {
        // 10 chunks, k = 4, m = 2 → submessages of 4, 4, 2.
        let g = geometry(10, 4, 2, EcCodeChoice::Mds);
        assert_eq!(g.len(), 3);
        assert_eq!((g[0].k_eff, g[0].m_eff, g[0].chunk_start), (4, 2, 0));
        assert_eq!((g[2].k_eff, g[2].m_eff, g[2].chunk_start), (2, 2, 8));
        // XOR clamps parity to the tail size.
        let g = geometry(9, 4, 2, EcCodeChoice::Xor);
        assert_eq!(g[2].k_eff, 1);
        assert_eq!(g[2].m_eff, 1);
    }
}
