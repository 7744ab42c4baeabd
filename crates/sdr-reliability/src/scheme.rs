//! The scheme table: everything a reliability scheme *is*, in one place.
//!
//! A scheme is one [`SchemeSpec`] variant — the value `SwitchPropose` and
//! `FlowOpen` carry, the advisor ranks and every report names — and one
//! row here. The rows answer the only questions a host (the adaptive
//! controller, the flow manager, a test) may ask of a spec, so no host
//! matches on a variant itself:
//!
//! * **what the model says of it** — [`SchemeSpec::candidates`] (the EC
//!   splits among them are [`SchemeSpec::EC_LADDER`], which
//!   [`SchemeSpec::stronger`] steps along), [`SchemeSpec::model_summary`],
//!   [`SchemeSpec::fig09_verdict`];
//! * **what it costs in SDR messages** — [`SchemeSpec::sends`], from the
//!   submessage count the EC sender and receiver post by;
//! * **how it runs** — [`start_sender`] / [`start_receiver`] alone map a
//!   spec to its protocol object and config, and hand back the few things
//!   a host does to a running scheme without knowing which one it is.

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::{SdrContext, SdrQp};
use sdr_model::{
    ec_summary, fig09_boundary_verdict, gbn_summary, sr_summary, Channel, EcConfig, GbnConfig,
    SrConfig, Summary,
};
use sdr_sim::{Engine, FlightRecorder, QpAddr, SimTime};

use crate::ack::CtrlMsg;
use crate::control::CtrlPath;
use crate::ec::{self, EcCodeChoice, EcProtoConfig, EcReport, EcRxScheme, EcSender};
use crate::gbn::{GbnProtoConfig, GbnReport, GbnRxScheme, GbnSender};
use crate::runtime::{
    AbortReason, CtrlSink, RxCommon, RxDriver, RxScheme, RxStep, TxDriver, TxScheme,
};
use crate::sr::{SrProtoConfig, SrReport, SrRxScheme, SrSender};
use crate::telemetry::ChannelEstimator;

/// The paper's `RTO = 3 RTT`: the timeout multiplier of every RTO-driven
/// clock a spec stands for — SR-RTO, GBN's base timer, and the SR fallback
/// the EC model and the Figure 9 boundary are evaluated against.
const RTO_RTTS: f64 = 3.0;

/// A wire-compact description of a reliability scheme — what the adaptive
/// handover protocol carries in [`CtrlMsg::SwitchPropose`] so both ends
/// rebind to the same policy. Protocol tunables (RTO, poll cadence, FTO)
/// are derived deterministically on each side from the deployment's nominal
/// channel, exactly like a static deployment derives them out-of-band.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeSpec {
    /// Selective Repeat, RTO-driven (`RTO = 3 RTT`).
    SrRto,
    /// Selective Repeat with the NACK optimization.
    SrNack,
    /// MDS (Reed–Solomon) erasure coding with the given split.
    EcMds {
        /// Data chunks per submessage.
        k: u16,
        /// Parity chunks per submessage.
        m: u16,
    },
    /// XOR erasure coding with the given split.
    EcXor {
        /// Data chunks per submessage.
        k: u16,
        /// Parity chunks per submessage.
        m: u16,
    },
    /// Go-Back-N with a BDP window (the commodity baseline — a valid
    /// *starting* scheme the controller adapts away from).
    Gbn,
}

impl std::fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeSpec::SrRto => write!(f, "SR-RTO"),
            SchemeSpec::SrNack => write!(f, "SR-NACK"),
            SchemeSpec::EcMds { k, m } => write!(f, "EC-MDS({k},{m})"),
            SchemeSpec::EcXor { k, m } => write!(f, "EC-XOR({k},{m})"),
            SchemeSpec::Gbn => write!(f, "GBN"),
        }
    }
}

impl SchemeSpec {
    /// True for erasure-coding specs.
    pub fn is_ec(&self) -> bool {
        matches!(self, SchemeSpec::EcMds { .. } | SchemeSpec::EcXor { .. })
    }

    /// The MDS splits the advisor evaluates (Figure 10d), weakest first:
    /// ordered by parity fraction `m/k`.
    pub const EC_LADDER: [SchemeSpec; 4] = [
        SchemeSpec::EcMds { k: 32, m: 4 },
        SchemeSpec::EcMds { k: 32, m: 8 },
        SchemeSpec::EcMds { k: 16, m: 8 },
        SchemeSpec::EcMds { k: 8, m: 8 },
    ];

    /// Every spec [`recommend`](crate::recommend) evaluates, and so can
    /// return: both SR variants, the ladder, the XOR alternative, and GBN —
    /// ranked so the report shows the Bertsekas–Gallager gap (§4), never
    /// chosen.
    pub fn candidates() -> impl Iterator<Item = SchemeSpec> {
        [SchemeSpec::SrRto, SchemeSpec::SrNack]
            .into_iter()
            .chain(Self::EC_LADDER)
            .chain([SchemeSpec::EcXor { k: 32, m: 8 }, SchemeSpec::Gbn])
    }

    /// True for the Selective Repeat variants — the ARQ the advisor's
    /// tie-break prefers (GBN, though ARQ too, is the dominated baseline).
    pub fn is_sr(&self) -> bool {
        matches!(self, SchemeSpec::SrRto | SchemeSpec::SrNack)
    }

    /// `(code, k, m)` of an erasure-coding spec, `None` for ARQ.
    pub(crate) fn ec_shape(&self) -> Option<(EcCodeChoice, usize, usize)> {
        match *self {
            SchemeSpec::EcMds { k, m } => Some((EcCodeChoice::Mds, k as usize, m as usize)),
            SchemeSpec::EcXor { k, m } => Some((EcCodeChoice::Xor, k as usize, m as usize)),
            _ => None,
        }
    }

    /// The same code family and parity count over submessages of `k` data
    /// chunks; ARQ specs have no split and come back unchanged.
    pub(crate) fn with_k(self, k: u16) -> SchemeSpec {
        match self {
            SchemeSpec::EcMds { m, .. } => SchemeSpec::EcMds { k, m },
            SchemeSpec::EcXor { m, .. } => SchemeSpec::EcXor { k, m },
            arq => arq,
        }
    }

    /// The `sdr-model` config of an EC spec.
    fn model_ec(&self) -> Option<EcConfig> {
        self.ec_shape().map(|(code, k, m)| match code {
            EcCodeChoice::Mds => EcConfig::mds(k as u32, m as u32),
            EcCodeChoice::Xor => EcConfig::xor(k as u32, m as u32),
        })
    }

    /// Predicted completion time of `bytes` on `ch` under this spec:
    /// `trials` samples from its family's `sdr-model` sampler. Each family
    /// draws from its own stream of `seed`, so adding a candidate never
    /// shifts another's samples.
    pub fn model_summary(&self, ch: &Channel, bytes: u64, trials: usize, seed: u64) -> Summary {
        let sr_rto = SrConfig::rto_multiple(ch, RTO_RTTS);
        let ec = |stream: u64| {
            let cfg = self.model_ec().expect("EC spec");
            ec_summary(ch, bytes, &cfg, &sr_rto, trials, seed ^ stream)
        };
        match *self {
            SchemeSpec::SrRto => sr_summary(ch, bytes, &sr_rto, trials, seed),
            SchemeSpec::SrNack => sr_summary(ch, bytes, &SrConfig::nack(ch), trials, seed ^ 1),
            SchemeSpec::EcMds { .. } => ec(2),
            SchemeSpec::EcXor { .. } => ec(3),
            SchemeSpec::Gbn => gbn_summary(
                ch,
                bytes,
                &GbnConfig::bdp_window(ch, RTO_RTTS),
                trials,
                seed ^ 4,
            ),
        }
    }

    /// `verdict` of the packet drop rate above which this EC spec beats SR
    /// for `bytes` on the deployment ([`fig09_boundary_verdict`]): `None`
    /// for ARQ specs and when the crossing lies outside the probed range.
    /// `verdict` must be monotone in the rate, `None` ranking above every
    /// rate; the search stops once the answer's side of it is known.
    pub fn fig09_verdict(
        &self,
        bandwidth_bps: f64,
        rtt_s: f64,
        bytes: u64,
        verdict: impl Fn(Option<f64>) -> bool,
    ) -> bool {
        match self.model_ec() {
            Some(ec) => fig09_boundary_verdict(bandwidth_bps, rtt_s, bytes, &ec, RTO_RTTS, verdict),
            None => verdict(None),
        }
    }

    /// The next-stronger split on [`EC_LADDER`](Self::EC_LADDER); XOR
    /// hardens to the MDS code of its shape (XOR corrects one erasure per
    /// group). The last rung, an off-ladder split and the ARQ specs come
    /// back unchanged.
    ///
    /// The conservative first-split rule steps by it: a controller that
    /// commits its *first* EC split while the loss estimate is still
    /// climbing through a fresh upward step
    /// ([`ChannelEstimator::loss_step_fresh`]) was advised against an
    /// underestimate — a step to 1e-2 read as ~2e-3 recommends (32,4),
    /// whose per-submessage drop budget the real channel blows through,
    /// and the refinement handshake lands too late. One rung stronger costs
    /// a few percent of parity; one rung too weak costs RTO-bound repair
    /// rounds.
    pub fn stronger(self) -> SchemeSpec {
        if let SchemeSpec::EcXor { k, m } = self {
            return SchemeSpec::EcMds { k, m };
        }
        let rung = Self::EC_LADDER.iter().position(|s| *s == self);
        rung.and_then(|r| Self::EC_LADDER.get(r + 1).copied())
            .unwrap_or(self)
    }

    /// SDR sends — and receive slots — a `bytes`-long run consumes: one
    /// streaming send for ARQ, `2L` (data + parity submessages) for EC. A
    /// host learns from it the run's first send sequence (so which CTS
    /// credit says the receiver posted it) and whether the slots fit.
    pub fn sends(&self, bytes: u64, chunk_bytes: u64) -> u64 {
        match self.ec_shape() {
            Some((_, k, _)) => 2 * ec::submessages(bytes.div_ceil(chunk_bytes), k),
            None => 1,
        }
    }

    /// The compact `u64` flight-recorder events carry in their `b`
    /// payload: `1`=SR-RTO, `2`=SR-NACK, `3`=GBN, and
    /// `4_000_000 + k·1000 + m` / `5_000_000 + k·1000 + m` for EC-MDS /
    /// EC-XOR splits — e.g. `4032004` reads as MDS(32,4).
    pub fn trace_code(&self) -> u64 {
        match *self {
            SchemeSpec::SrRto => 1,
            SchemeSpec::SrNack => 2,
            SchemeSpec::Gbn => 3,
            SchemeSpec::EcMds { k, m } => 4_000_000 + k as u64 * 1000 + m as u64,
            SchemeSpec::EcXor { k, m } => 5_000_000 + k as u64 * 1000 + m as u64,
        }
    }

    /// The config this spec runs under in `env`: every timeout and window
    /// derives from the nominal channel and the QP's geometry, so both
    /// ends compute the same one, as a static deployment agrees on them
    /// out of band.
    fn proto(&self, env: &SchemeEnv) -> Proto {
        let q = env.qp.config();
        let ch = Channel::new(env.bandwidth_bps, env.rtt.as_secs_f64(), 0.0)
            .with_mtu_bytes(q.mtu_bytes)
            .with_chunk_bytes(q.chunk_bytes);
        match *self {
            SchemeSpec::SrRto => Proto::Sr(SrProtoConfig::rto_3rtt(env.rtt)),
            SchemeSpec::SrNack => Proto::Sr(SrProtoConfig::nack(env.rtt)),
            SchemeSpec::Gbn => Proto::Gbn(GbnProtoConfig::bdp_window(&ch, env.rtt, RTO_RTTS)),
            SchemeSpec::EcMds { .. } | SchemeSpec::EcXor { .. } => {
                let (code, k, m) = self.ec_shape().expect("EC spec");
                Proto::Ec(EcProtoConfig::for_channel(
                    k, m, code, &ch, env.bytes, env.rtt,
                ))
            }
        }
    }
}

/// A spec resolved to the config of the driver that runs it.
enum Proto {
    Sr(SrProtoConfig),
    Ec(EcProtoConfig),
    Gbn(GbnProtoConfig),
}

/// Every scheme's receive policy as one static type, dispatched by `match`
/// — no `dyn` on the per-poll path. Both hosts run it, subscribed to its
/// slots' arrivals: [`start_receiver`] under the per-transfer [`RxDriver`],
/// the flow manager stepped from its due index (SR and EC only: the
/// baseline is never hosted in a population).
pub enum RxPolicy {
    /// Selective Repeat, with or without hole reports.
    Sr(SrRxScheme),
    /// Erasure coding (boxed: its per-submessage state dwarfs the ARQ
    /// policies a population mostly runs).
    Ec(Box<EcRxScheme>),
    /// Go-Back-N.
    Gbn(GbnRxScheme),
}

impl RxScheme for RxPolicy {
    /// True when the message resolved by erasure decode.
    type Done = bool;

    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon, send: CtrlSink<'_>) -> bool {
        match self {
            RxPolicy::Sr(s) => s.poll(eng, rx, send),
            RxPolicy::Ec(s) => s.poll(eng, rx, send),
            RxPolicy::Gbn(s) => s.poll(eng, rx, send),
        }
    }

    fn on_chunk(
        &mut self,
        rx: &RxCommon,
        slot: usize,
        chunk: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        match self {
            RxPolicy::Sr(s) => s.on_chunk(rx, slot, chunk, now),
            RxPolicy::Ec(s) => s.on_chunk(rx, slot, chunk, now),
            RxPolicy::Gbn(s) => s.on_chunk(rx, slot, chunk, now),
        }
    }

    fn times_silence(&self) -> bool {
        match self {
            RxPolicy::Sr(s) => s.times_silence(),
            RxPolicy::Ec(s) => s.times_silence(),
            RxPolicy::Gbn(s) => s.times_silence(),
        }
    }

    fn final_ack(&self) -> CtrlMsg {
        match self {
            RxPolicy::Sr(s) => s.final_ack(),
            RxPolicy::Ec(s) => s.final_ack(),
            RxPolicy::Gbn(s) => s.final_ack(),
        }
    }

    fn done_payload(&self) -> bool {
        matches!(self, RxPolicy::Ec(s) if s.stats.decoded_submessages > 0)
    }

    fn released(&mut self) {
        if let RxPolicy::Ec(s) = self {
            s.released();
        }
    }
}

/// Where one run of a scheme lives. Both ends fill it from the same
/// deployment values, so both derive the same timeouts and windows.
pub struct SchemeEnv<'a> {
    /// The connected SDR QP.
    pub qp: &'a SdrQp,
    /// Node memory (EC stages parity and posts parity buffers in it).
    pub ctx: &'a SdrContext,
    /// The path scheme control traffic rides: the raw endpoint, or a
    /// host's envelope around it (the adaptive layer's epoch gate).
    pub ctrl: Rc<dyn CtrlPath>,
    /// The peer's control address.
    pub peer: QpAddr,
    /// Source (sender) or destination (receiver) buffer address.
    pub addr: u64,
    /// Bytes to move. EC needs a multiple of the QP's chunk size.
    pub bytes: u64,
    /// Nominal line rate.
    pub bandwidth_bps: f64,
    /// Nominal round-trip time.
    pub rtt: SimTime,
    /// Recorder and transfer id a sender's retransmission clock reports
    /// its firings under (SR and GBN keep one; EC's timeout is the
    /// receiver's).
    pub trace: Option<(FlightRecorder, u64)>,
}

/// A running scheme sender, whichever scheme it is.
pub trait SchemeSender {
    /// True once the transfer completed or aborted.
    fn is_done(&self) -> bool;

    /// Tears the transfer down now — timers cancelled, send slots
    /// released, the done callback fired — unless it already ended
    /// (`false`). Local only: telling the peer is the host's job.
    fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool;

    /// The parity an erasure-coding sender staged for the whole run (see
    /// [`EcSender::staged_parity`]); `None` for ARQ senders.
    fn staged_parity(&self) -> Option<Vec<u8>>;
}

impl<S: TxScheme> SchemeSender for TxDriver<S> {
    fn is_done(&self) -> bool {
        self.is_done()
    }

    fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool {
        self.abort(eng, reason)
    }

    fn staged_parity(&self) -> Option<Vec<u8>> {
        self.scheme_mut(|s| s.staged_parity())
    }
}

/// A running scheme receiver, whichever scheme it is: `is_complete`,
/// `is_released`, `quiesce` and `frontier` are the driver's.
pub type SchemeReceiver = RxDriver<RxPolicy>;

/// Starts the sender of one run of `spec` in `env`; an SR sender feeds ACK
/// round trips into `estimator`. `done` fires exactly once — at the final
/// ACK or at [`abort`](SchemeSender::abort) — with the run's repair effort:
/// chunks retransmitted (SR, GBN) or fallback rounds served (EC). The peer
/// must run [`start_receiver`] with the same spec.
pub fn start_sender(
    eng: &mut Engine,
    spec: SchemeSpec,
    env: SchemeEnv,
    estimator: Option<Rc<RefCell<ChannelEstimator>>>,
    done: impl FnOnce(&mut Engine, u64) + 'static,
) -> Box<dyn SchemeSender> {
    let (proto, e) = (spec.proto(&env), env);
    match proto {
        Proto::Sr(p) => {
            let done = move |eng: &mut Engine, r: SrReport| done(eng, r.retransmitted);
            let tx = SrSender::start(eng, e.qp, e.ctrl, e.peer, e.addr, e.bytes, p, done);
            if let Some(est) = estimator {
                tx.bind_estimator(est);
            }
            if let Some((rec, id)) = e.trace {
                tx.bind_trace(rec, id);
            }
            Box::new(tx)
        }
        Proto::Ec(p) => {
            let done = move |eng: &mut Engine, r: EcReport| done(eng, r.fallback_rounds);
            let tx = EcSender::start(eng, e.qp, e.ctx, e.ctrl, e.peer, e.addr, e.bytes, p, done);
            Box::new(tx)
        }
        Proto::Gbn(p) => {
            let done = move |eng: &mut Engine, r: GbnReport| done(eng, r.retransmitted);
            let tx = GbnSender::start(eng, e.qp, e.ctrl, e.peer, e.addr, e.bytes, p, done);
            if let Some((rec, id)) = e.trace {
                tx.bind_trace(rec, id);
            }
            Box::new(tx)
        }
    }
}

/// Starts the receiver of one run of `spec` in `env`: posts
/// [`spec.sends(..)`](SchemeSpec::sends) receive slots and polls them,
/// feeding first-pass loss counts into `estimator`. `done` fires exactly
/// once, the instant the last byte is in place.
pub fn start_receiver(
    eng: &mut Engine,
    spec: SchemeSpec,
    env: SchemeEnv,
    estimator: Option<Rc<RefCell<ChannelEstimator>>>,
    done: impl FnOnce(&mut Engine, SimTime) + 'static,
) -> SchemeReceiver {
    let (proto, e) = (spec.proto(&env), env);
    let total_chunks = e.qp.config().chunks_for(e.bytes) as usize;
    let mut common = RxCommon::new(e.qp);
    let (policy, poll_interval, linger_acks) = match proto {
        Proto::Sr(p) => {
            common.post(eng, e.addr, e.bytes);
            let sr = SrRxScheme::new(total_chunks, p.nack, p.rtt);
            (RxPolicy::Sr(sr), p.ack_interval, p.linger_acks)
        }
        Proto::Ec(p) => {
            let ec = EcRxScheme::post(eng, &mut common, e.ctx, e.addr, e.bytes, &p);
            (RxPolicy::Ec(Box::new(ec)), p.poll_interval, p.linger_acks)
        }
        Proto::Gbn(p) => {
            common.post(eng, e.addr, e.bytes);
            let gbn = GbnRxScheme { total_chunks };
            (RxPolicy::Gbn(gbn), p.ack_interval, p.linger_acks)
        }
    };
    if let Some(est) = estimator {
        common.bind_estimator(est);
    }
    let rx = RxStep::new(common, policy, linger_acks);
    RxDriver::spawn(eng, poll_interval, e.ctrl, e.peer, rx, move |eng, at, _| {
        done(eng, at)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_send_counts_cover_ec_geometry() {
        let chunk = 64 * 1024;
        // ARQ schemes: one streaming send per segment.
        assert_eq!(SchemeSpec::SrNack.sends(1 << 20, chunk), 1);
        assert_eq!(SchemeSpec::Gbn.sends(1 << 20, chunk), 1);
        // EC: 2L sends. 1 MiB = 16 chunks; k=4 → L=4 → 8 sends.
        assert_eq!(SchemeSpec::EcMds { k: 4, m: 2 }.sends(1 << 20, chunk), 8);
        // Tail rounding: 17 chunks at k=4 → L=5 → 10.
        assert_eq!(
            SchemeSpec::EcMds { k: 4, m: 2 }.sends(17 * chunk, chunk),
            10
        );
        // k larger than the segment: one submessage.
        assert_eq!(SchemeSpec::EcXor { k: 32, m: 8 }.sends(1 << 20, chunk), 2);
    }

    /// The controller's two Figure 9 gates, decided by the early-exit
    /// search, say what they would of the full search's boundary: on every
    /// deployment × EC ladder rung, at losses 1e-12 and 1e-6 either side of
    /// each gate and a factor 2 either side, and — where no crossing lies
    /// in range — at losses below, inside and above the probed rates.
    #[test]
    fn fig09_verdict_equals_the_full_search() {
        use crate::adapt::{stay_off_ec, stay_on_ec, HYSTERESIS};
        use sdr_model::{fig09_boundary_p_packet, rtt_from_km};

        let deployments = [
            (8e9, rtt_from_km(1000.0), 2 << 20),
            (1e9, 0.01, 2 << 20),
            (1e9, 0.001, 16 << 20), // no crossing in range
        ];
        let mut crossings = 0;
        for (bw, rtt, bytes) in deployments {
            for spec in SchemeSpec::EC_LADDER {
                let ec = spec.model_ec().expect("EC rung");
                let full = fig09_boundary_p_packet(bw, rtt, bytes, &ec, RTO_RTTS);
                let losses: Vec<f64> = match full {
                    Some(b) => [b * HYSTERESIS, b / HYSTERESIS]
                        .into_iter()
                        .flat_map(|g| {
                            [1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0]
                                .map(|f| g * f)
                        })
                        .collect(),
                    None => vec![1e-10, 1e-6, 1e-3, 0.2],
                };
                crossings += usize::from(full.is_some());
                for loss in losses {
                    let (off, on) = (stay_off_ec(loss), stay_on_ec(loss));
                    for (name, gate) in [
                        ("to EC", &off as &dyn Fn(Option<f64>) -> bool),
                        ("from EC", &on),
                    ] {
                        assert_eq!(
                            spec.fig09_verdict(bw, rtt, bytes, gate),
                            gate(full),
                            "{name} gate, {spec} on {bw:e} b/s, {rtt} s, {bytes} B, \
                             loss {loss:e}, full boundary {full:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(crossings, 8, "a crossing on every rung of the first two");
    }
}
