//! Ready-made protocol deployments and the survivability verdict, for
//! tests and benchmarks.
//!
//! [`ProtoHarness`] is a two-node SDR pair with a control endpoint on each
//! side and a deterministic payload staged for A → B. On top of it sit the
//! pieces every fault-driven check shares: an adaptive-pair starter that
//! captures both reports ([`ProtoHarness::start_adaptive`]), the teardown
//! check ([`ProtoHarness::teardown`]), the flight-recorder dump
//! ([`ProtoHarness::forensics`]), and the fault-event draw
//! ([`draw_faults`]) behind the [`Draw`] trait, so each sampler keeps its
//! own RNG. A [`SoakCase`] is one deployment as a value;
//! [`SoakCase::run`] is the one entry point that also arms the crash →
//! resume supervisor and decides the survivability trichotomy.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sdr_core::testkit::{pattern, sdr_pair, SdrPair};
use sdr_core::SdrConfig;
use sdr_sim::{Engine, FaultEvent, FaultPlan, LinkConfig, LossModel, RestartSide, SimTime};

use crate::scheme::{self, SchemeEnv, SchemeReceiver, SchemeSender};
use crate::{
    AbortReason, AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, AdaptiveReceiver,
    AdaptiveSender, ControlEndpoint, DeliveryManifest, SchemeSpec, TelemetryConfig,
    TransferOutcome,
};

/// Node memory given to each side of the pair.
const NODE_MEM: usize = 64 << 20;

/// Event budget of a [`SoakCase`] run; a run that spends it never
/// quiesced.
const SOAK_EVENT_LIMIT: u64 = 120_000_000;

/// Flight-recorder events per node a [`forensics`](ProtoHarness::forensics)
/// dump retains: enough for the final scheme epoch plus the fault script
/// around it.
const FORENSIC_WINDOW: usize = 48;

/// A ready-to-run protocol deployment: two connected SDR nodes, a control
/// endpoint on each, a deterministic payload staged in the sender's memory
/// and a destination buffer on the receiver.
pub struct ProtoHarness {
    /// The underlying two-node SDR pair (engine, fabric, QPs, contexts).
    pub p: SdrPair,
    /// Control endpoint on node A (the sender by convention).
    pub ctrl_a: Rc<ControlEndpoint>,
    /// Control endpoint on node B (the receiver by convention).
    pub ctrl_b: Rc<ControlEndpoint>,
    /// Propagation RTT between the nodes.
    pub rtt: SimTime,
    /// The payload written at `src`.
    pub data: Vec<u8>,
    /// Sender-side buffer address holding `data`.
    pub src: u64,
    /// Receiver-side destination buffer address.
    pub dst: u64,
    /// Message length in bytes.
    pub msg: u64,
    /// The event budget of the last [`run`](Self::run).
    event_limit: u64,
}

impl ProtoHarness {
    /// Builds the deployment: `link` duplex between two nodes, one SDR QP
    /// pair under `cfg`, payload `pattern(msg, data_seed)` staged at
    /// `src`.
    pub fn new(link: LinkConfig, cfg: SdrConfig, msg: u64, data_seed: u64) -> Self {
        let p = sdr_pair(link, cfg, NODE_MEM);
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(msg as usize, data_seed);
        let src = p.ctx_a.alloc_buffer(msg);
        let dst = p.ctx_b.alloc_buffer(msg);
        p.ctx_a.write_buffer(src, &data);
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        ProtoHarness {
            p,
            ctrl_a,
            ctrl_b,
            rtt,
            data,
            src,
            dst,
            msg,
            event_limit: u64::MAX,
        }
    }

    /// The model channel matching this deployment's link (`bandwidth_bps`
    /// must equal the link's configured rate).
    pub fn model_channel(&self, bandwidth_bps: f64, p_drop: f64) -> sdr_model::Channel {
        sdr_model::Channel::new(bandwidth_bps, self.rtt.as_secs_f64(), p_drop)
    }

    /// Starts one run of `spec` over the whole payload, A → B, through the
    /// production scheme table — the two functions the adaptive controller
    /// starts every segment with — on the raw control endpoints
    /// (`bandwidth_bps` must equal the link's configured rate). `sent`
    /// is the sender's done callback.
    pub fn start_scheme(
        &mut self,
        spec: SchemeSpec,
        bandwidth_bps: f64,
        sent: impl FnOnce(&mut Engine, u64) + 'static,
    ) -> (Box<dyn SchemeSender>, SchemeReceiver) {
        self.start_scheme_with(spec, bandwidth_bps, sent, |_e, _at| {})
    }

    /// [`start_scheme`](Self::start_scheme) with the receiver's done
    /// callback too (it gets the completion instant).
    pub fn start_scheme_with(
        &mut self,
        spec: SchemeSpec,
        bandwidth_bps: f64,
        sent: impl FnOnce(&mut Engine, u64) + 'static,
        landed: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> (Box<dyn SchemeSender>, SchemeReceiver) {
        let p = &mut self.p;
        let tx_env = SchemeEnv {
            qp: &p.qp_a,
            ctx: &p.ctx_a,
            ctrl: self.ctrl_a.clone(),
            peer: self.ctrl_b.addr(),
            addr: self.src,
            bytes: self.msg,
            bandwidth_bps,
            rtt: self.rtt,
            trace: None,
        };
        let tx = scheme::start_sender(&mut p.eng, spec, tx_env, None, sent);
        let rx_env = SchemeEnv {
            qp: &p.qp_b,
            ctx: &p.ctx_b,
            ctrl: self.ctrl_b.clone(),
            peer: self.ctrl_a.addr(),
            addr: self.dst,
            bytes: self.msg,
            bandwidth_bps,
            rtt: self.rtt,
            trace: None,
        };
        let rx = scheme::start_receiver(&mut p.eng, spec, rx_env, None, landed);
        (tx, rx)
    }

    /// Starts an adaptive transfer of the whole payload, A → B, both ends
    /// at the current instant (the sender first), each reporting into
    /// the returned [`Reports`].
    pub fn start_adaptive(&mut self, initial: SchemeSpec, acfg: &AdaptConfig) -> Adaptive {
        let reports = Reports::default();
        let (tx, rx) = self.start_adaptive_with(initial, acfg, reports.sent(), reports.landed());
        Adaptive { tx, rx, reports }
    }

    /// [`start_adaptive`](Self::start_adaptive) with the two ends' done
    /// callbacks given.
    pub fn start_adaptive_with(
        &mut self,
        initial: SchemeSpec,
        acfg: &AdaptConfig,
        sent: impl FnOnce(&mut Engine, AdaptReport) + 'static,
        landed: impl FnOnce(&mut Engine, SimTime, AdaptRecvReport) + 'static,
    ) -> (AdaptiveSender, AdaptiveReceiver) {
        let p = &mut self.p;
        let tx = AdaptiveController::start_sender(
            &mut p.eng,
            &p.qp_a,
            &p.ctx_a,
            self.ctrl_a.clone(),
            self.ctrl_b.addr(),
            self.src,
            self.msg,
            initial,
            acfg.clone(),
            sent,
        );
        let rx = AdaptiveController::start_receiver(
            &mut p.eng,
            &p.qp_b,
            &p.ctx_b,
            self.ctrl_b.clone(),
            self.ctrl_a.addr(),
            self.dst,
            self.msg,
            initial,
            acfg.clone(),
            landed,
        );
        (tx, rx)
    }

    /// The crash → resume supervisor. When node B restarts while `first`
    /// is still receiving, the hook (firing at the crash instant) snapshots
    /// the receiver's journal and the sender's channel estimate, aborts
    /// both ends with [`AbortReason::Restart`] and — when `resume` is set —
    /// resumes both just after the NIC re-attaches at `+dead_time`: bump
    /// the control endpoint's incarnation, re-post its receive ring, resume
    /// the receiver from the crashed life's manifest and the sender through
    /// the `ResumeQuery` handshake, pre-seeded with the first life's
    /// estimate. A restart after completion is a no-op.
    fn supervise(
        &self,
        first: &Adaptive,
        initial: SchemeSpec,
        acfg: &AdaptConfig,
        dead_time: SimTime,
        resume: bool,
    ) -> Crash {
        let crash = Crash {
            fired: Rc::new(Cell::new(false)),
            resume,
            second: Reports::default(),
        };
        let (fired, second) = (crash.fired.clone(), crash.second.clone());
        let (tx, rx) = (first.tx.clone(), first.rx.clone());
        let (qp_a, ctx_a, ctrl_a) = (
            self.p.qp_a.clone(),
            self.p.ctx_a.clone(),
            self.ctrl_a.clone(),
        );
        let (qp_b, ctx_b, ctrl_b) = (
            self.p.qp_b.clone(),
            self.p.ctx_b.clone(),
            self.ctrl_b.clone(),
        );
        let (src, dst, msg) = (self.src, self.dst, self.msg);
        let acfg = acfg.clone();
        self.p.fabric.on_restart(self.p.node_b, move |eng, _inc| {
            if rx.is_complete() || fired.get() {
                return;
            }
            fired.set(true);
            // Both survive the teardown, but not a second crash.
            let manifest = rx.manifest();
            let (prior_loss, prior_rtt) = tx.estimator(|e| (e.loss_estimate(), e.rtt_estimate()));
            rx.abort(eng, AbortReason::Restart);
            tx.abort(eng, AbortReason::Restart);
            if !resume {
                return;
            }
            let (qp_a, ctx_a, ctrl_a) = (qp_a.clone(), ctx_a.clone(), ctrl_a.clone());
            let (qp_b, ctx_b, ctrl_b) = (qp_b.clone(), ctx_b.clone(), ctrl_b.clone());
            let (acfg, second) = (acfg.clone(), second.clone());
            // Strictly after the fabric re-attach at `+dead_time`.
            eng.schedule_in(dead_time + SimTime::from_micros(10), move |eng| {
                ctrl_b.bump_incarnation();
                ctrl_b.reattach();
                AdaptiveController::resume_receiver(
                    eng,
                    &qp_b,
                    &ctx_b,
                    ctrl_b.clone(),
                    ctrl_a.addr(),
                    dst,
                    manifest,
                    initial,
                    acfg.clone(),
                    second.landed(),
                );
                AdaptiveController::resume_sender(
                    eng,
                    &qp_a,
                    &ctx_a,
                    ctrl_a.clone(),
                    ctrl_b.addr(),
                    src,
                    msg,
                    initial,
                    acfg,
                    prior_loss,
                    prior_rtt,
                    second.sent(),
                );
            });
        });
        crash
    }

    /// What a previous life of an adaptive transfer in `segment_bytes`
    /// segments left behind when segments `delivered` had landed: their
    /// bytes in the destination buffer, their bits in the returned
    /// manifest.
    pub fn journal(&self, segment_bytes: u64, delivered: &[u32]) -> DeliveryManifest {
        let mut m = DeliveryManifest::new(self.msg, segment_bytes);
        for &id in delivered {
            let (off, len) = m.segment(id);
            let bytes = &self.data[off as usize..(off + len) as usize];
            self.p.ctx_b.write_buffer(self.dst + off, bytes);
            m.mark_delivered(id);
        }
        m
    }

    /// Scripts a loss: the forward (A → B) direction is dark during
    /// `[from, to)` (absolute), so exactly the packets delivered in that
    /// window are dropped.
    pub fn black_out_forward(&mut self, from: SimTime, to: SimTime) {
        for (at, down) in [(from, true), (to, false)] {
            let (fabric, a, b) = (self.p.fabric.clone(), self.p.node_a, self.p.node_b);
            self.p.eng.schedule_in(at, move |_eng| {
                fabric.set_link_down(a, b, down);
            });
        }
    }

    /// Runs the simulation to quiescence under an event budget.
    pub fn run(&mut self, event_limit: u64) {
        self.event_limit = event_limit;
        self.p.eng.set_event_limit(event_limit);
        self.p.eng.run();
    }

    /// The teardown contract, checked after a [`run`](Self::run): the
    /// run quiesced inside its event budget, nothing is left armed (every
    /// timer cancelled, the engine drained to zero pending events), and
    /// every receive slot on B was released exactly once — the whole
    /// table re-posts (a held slot or a double release would refuse).
    /// The re-posts stay posted, so check last.
    pub fn teardown(&mut self) -> Result<(), String> {
        let eng = &self.p.eng;
        if eng.executed_events() >= self.event_limit {
            return Err(format!(
                "event limit hit before quiescence (now={:?} pending={})",
                eng.now(),
                eng.pending_events()
            ));
        }
        if eng.pending_events() != 0 {
            return Err(format!("leaked {} pending events", eng.pending_events()));
        }
        let spare = self.p.ctx_b.alloc_buffer(64 * 1024);
        for n in 0..self.p.qp_b.config().msg_slots {
            self.p
                .qp_b
                .recv_post(&mut self.p.eng, spare, 64 * 1024)
                .map_err(|e| format!("slot {n} not released exactly once: {e:?}"))?;
        }
        Ok(())
    }

    /// The bytes currently in the destination buffer.
    pub fn delivered(&self) -> Vec<u8> {
        self.p.ctx_b.read_buffer(self.dst, self.msg as usize)
    }

    /// True when the destination buffer holds exactly the sent payload.
    pub fn delivered_ok(&self) -> bool {
        self.delivered() == self.data
    }

    /// Both nodes' flight-recorder timelines (node A = sender, node B =
    /// receiver), the last 48 events each ring retained,
    /// oldest first — what a failing soak case appends to its message:
    ///
    /// ```text
    ///   [      8.000000 ms] fault-loss       a=0 b=0
    ///   [     10.251433 ms] switch-propose   a=1 b=4032008
    ///   [     15.320771 ms] scheme-handover  a=6 b=4032008
    ///   [     18.000000 ms] fault-blackout   a=1 b=100000000000
    ///   [     48.812004 ms] rto-fire         a=6 b=32
    ///   [     48.812004 ms] rto-backoff     a=6 b=1
    /// ```
    ///
    /// The bracketed stamp is sim time; each node's events are monotone in
    /// it (one engine records them in execution order). The label is the
    /// [`sdr_sim::EventKind`]; `a`/`b` are its two payload words,
    /// documented per kind — scheme events carry `a` = epoch and `b` = a
    /// scheme code (1 SR-RTO, 2 SR-NACK, 3 GBN, `4_000_000 + k·1000 + m`
    /// MDS(k, m), `5_000_000 + …` XOR), RTO events carry `a` =
    /// transfer/flow id with `b` = chunks expired or the new backoff
    /// exponent, and `fault-*` events mirror the injected [`FaultPlan`]
    /// (appearing on *both* nodes: a link fault is observable from either
    /// side). Reading a dump backwards from the failure instant usually
    /// answers "what was the stack doing": which scheme each end was under
    /// (last `scheme-start` / `scheme-handover`), whether the wire was dark
    /// (`fault-blackout` `a=1` without its healing `a=0`), and whether
    /// repair was still making progress (advancing `rto-fire` stamps with
    /// climbing `rto-backoff` exponents are a live backstop; a frozen tail
    /// means teardown already happened — look for `abort`/`incarnation`).
    pub fn forensics(&self) -> String {
        format!(
            "\n  --- node A flight recorder (last {FORENSIC_WINDOW}) ---\n{}\
             \n  --- node B flight recorder (last {FORENSIC_WINDOW}) ---\n{}",
            self.p
                .fabric
                .recorder(self.p.node_a)
                .timeline(FORENSIC_WINDOW),
            self.p
                .fabric
                .recorder(self.p.node_b)
                .timeline(FORENSIC_WINDOW),
        )
    }
}

/// Where the two ends of an adaptive transfer report.
#[derive(Clone, Default)]
pub struct Reports {
    /// The sender's report.
    pub tx: Rc<RefCell<Option<AdaptReport>>>,
    /// The receiver's completion instant and report.
    pub rx: Rc<RefCell<Option<(SimTime, AdaptRecvReport)>>>,
}

impl Reports {
    fn sent(&self) -> impl FnOnce(&mut Engine, AdaptReport) + 'static {
        let cell = self.tx.clone();
        move |_eng, rep| *cell.borrow_mut() = Some(rep)
    }

    fn landed(&self) -> impl FnOnce(&mut Engine, SimTime, AdaptRecvReport) + 'static {
        let cell = self.rx.clone();
        move |_eng, t, rep| *cell.borrow_mut() = Some((t, rep))
    }

    /// Takes both reports, or names the end that never reported.
    pub fn take(&self) -> Result<(AdaptReport, SimTime, AdaptRecvReport), String> {
        let tx = self.tx.borrow_mut().take().ok_or("sender never reported")?;
        let (done, rx) = self
            .rx
            .borrow_mut()
            .take()
            .ok_or("receiver never reported")?;
        Ok((tx, done, rx))
    }
}

/// A started adaptive transfer: both ends and their [`Reports`].
pub struct Adaptive {
    /// The sending end (node A).
    pub tx: AdaptiveSender,
    /// The receiving end (node B).
    pub rx: AdaptiveReceiver,
    /// Where both ends report.
    pub reports: Reports,
}

/// An armed crash → resume supervisor (see [`ProtoHarness::supervise`]).
struct Crash {
    /// Set once a restart caught the transfer mid-flight.
    fired: Rc<Cell<bool>>,
    resume: bool,
    /// Where the resumed second life's two ends report.
    second: Reports,
}

/// Which arm of the survivability trichotomy a transfer landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Both ends delivered, byte-identical, within the deadline.
    Delivered,
    /// Torn down cleanly — by a deadline, or by a crash nobody resumed —
    /// the receiver's report carrying its delivery journal.
    Aborted,
    /// A crash aborted the first life and a second life resumed from its
    /// journal, itself delivered or cleanly aborted.
    Resumed,
}

impl std::fmt::Display for Arm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Arm::Delivered => "delivered",
            Arm::Aborted => "aborted",
            Arm::Resumed => "resumed",
        })
    }
}

/// A transfer that passed the trichotomy verdict of [`SoakCase::run`]: its
/// arm and what it reported.
#[derive(Debug)]
pub struct Verdict {
    /// The arm it landed in.
    pub arm: Arm,
    /// The first life's sender report.
    pub tx: AdaptReport,
    /// When the first life's receiver reported.
    pub rx_done: SimTime,
    /// The first life's receiver report.
    pub rx: AdaptRecvReport,
    /// The second life, when the transfer was [`Arm::Resumed`].
    pub resumed: Option<Resumed>,
}

/// The second life of a resumed transfer.
#[derive(Debug)]
pub struct Resumed {
    /// The journal the crashed first life handed over.
    pub manifest: DeliveryManifest,
    /// The resumed sender's report.
    pub tx: AdaptReport,
    /// When the resumed receiver reported.
    pub rx_done: SimTime,
    /// The resumed receiver's report.
    pub rx: AdaptRecvReport,
}

/// The survivability trichotomy, decided once for every soak, directed
/// test and bench: a finished adaptive transfer (`first`, optionally under
/// a `crash` supervisor, with per-life `deadline`) must be
///
/// * **delivered** — byte-identical on both ends, within the deadline;
/// * **aborted with a manifest** — by its deadline (never `Requested`:
///   nobody asks), or by a crash nobody resumed; the receiver's report
///   carries the journal of everything that landed before the teardown;
/// * **resumed** — a crash aborted both ends with
///   [`AbortReason::Restart`], the receiver's journal in hand, and the
///   second life is itself delivered or aborted by the rules above; when
///   it delivers, it re-sent exactly the journal's undelivered segments.
///
/// In every arm the stamped control plane parsed every datagram (zero
/// malformed on both endpoints). Returns the arm and the reports, or what
/// broke. [`SoakCase::run`] checks [`ProtoHarness::teardown`] before it.
fn verdict(
    h: &ProtoHarness,
    first: &Reports,
    crash: Option<&Crash>,
    deadline: Option<SimTime>,
) -> Result<Verdict, String> {
    let (tx, rx_done, rx) = first.take()?;
    let (sa, sb) = (h.ctrl_a.filter_stats(), h.ctrl_b.filter_stats());
    if sa.malformed + sb.malformed != 0 {
        return Err(format!("malformed control datagrams: a={sa:?} b={sb:?}"));
    }
    let mut v = Verdict {
        arm: Arm::Aborted,
        tx,
        rx_done,
        rx,
        resumed: None,
    };
    let Some(crash) = crash.filter(|c| c.fired.get()) else {
        v.arm = life(h, deadline, &v.tx, &v.rx)?;
        return Ok(v);
    };
    // The first life tore down as a crash: the receiver's report carries
    // the journal, and the sender is dead too (`Restart` from the hook,
    // or its own deadline racing the crash instant). A complete journal
    // is legal: every bitmap finished but the crash landed inside the
    // digest round trip, so the second life re-verifies over an empty
    // plan.
    if v.rx.outcome.abort_reason() != Some(AbortReason::Restart) {
        return Err(format!("crashed receiver reported {:?}", v.rx.outcome));
    }
    let Some(manifest) = v.rx.outcome.manifest().cloned() else {
        return Err("restart teardown lost the manifest".into());
    };
    if v.tx.outcome.abort_reason() != Some(AbortReason::Restart) && deadline.is_none() {
        return Err(format!("first-life sender reported {:?}", v.tx.outcome));
    }
    if !crash.resume {
        return Ok(v);
    }
    let (tx2, rx2_done, rx2) = crash.second.take().map_err(|e| format!("resumed {e}"))?;
    if life(h, deadline, &tx2, &rx2)? == Arm::Delivered {
        // Nothing delivered before the crash is sent again.
        let want = manifest.undelivered().len() as u32;
        if rx2.segments != want {
            return Err(format!(
                "resume plan mismatch: {} segments in the second life, {want} undelivered",
                rx2.segments
            ));
        }
    }
    v.arm = Arm::Resumed;
    v.resumed = Some(Resumed {
        manifest,
        tx: tx2,
        rx_done: rx2_done,
        rx: rx2,
    });
    Ok(v)
}

/// One undisturbed life's two reports: [`Arm::Delivered`] or
/// [`Arm::Aborted`], or what broke.
fn life(
    h: &ProtoHarness,
    deadline: Option<SimTime>,
    tx: &AdaptReport,
    rx: &AdaptRecvReport,
) -> Result<Arm, String> {
    use TransferOutcome::{Aborted, Delivered};
    let intact = |what: &str| {
        if h.delivered_ok() {
            Ok(())
        } else {
            Err(format!("{what} but bytes differ"))
        }
    };
    match (&tx.outcome, &rx.outcome) {
        (Delivered, Delivered) => {
            intact("delivered")?;
            if let Some(d) = deadline.filter(|&d| tx.duration > d) {
                return Err(format!(
                    "delivered past deadline: {:?} > {d:?}",
                    tx.duration
                ));
            }
            return Ok(Arm::Delivered);
        }
        // The receiver finished; the sender's deadline beat the final
        // ACKs. The data must still be intact.
        (Aborted { .. }, Delivered) => intact("receiver delivered")?,
        // The sender's Delivered rides the final scheme ACK, the
        // receiver's waits on the whole-message digest round trip: only a
        // deadline may expire in between, and every bitmap completed over
        // the checksummed wire, so the landed bytes are already identical
        // (the zero-silent-corruption gate).
        (Delivered, Aborted { reason, .. }) => {
            if *reason != AbortReason::Deadline {
                return Err(format!(
                    "sender delivered while receiver aborted ({reason})"
                ));
            }
            intact("receiver aborted mid-verification")?;
        }
        (Aborted { .. }, Aborted { .. }) => {}
    }
    // Fault plans are finite, so only a deadline ends a life early.
    if deadline.is_none() {
        return Err(format!(
            "aborted without a deadline: tx={} rx={}",
            tx.outcome, rx.outcome
        ));
    }
    if [&tx.outcome, &rx.outcome]
        .iter()
        .any(|o| o.abort_reason() == Some(AbortReason::Requested))
    {
        return Err("nobody requested an abort".into());
    }
    // An abort always hands back the journal: the layer above can resume
    // later even when nobody does here.
    if !rx.outcome.is_delivered() && rx.outcome.manifest().is_none() {
        return Err("receiver abort lost the manifest".into());
    }
    Ok(Arm::Aborted)
}

/// One soak deployment as a value: the wire, the payload, the fault
/// script and the transfer that runs through it, on a 1 MiB-segment
/// adaptive pair by default. [`run`](Self::run) is the one way every soak
/// sampler, directed case and bench row executes it.
#[derive(Clone, Debug)]
pub struct SoakCase {
    /// The duplex link (its rate is the adaptive controller's bandwidth).
    pub link: LinkConfig,
    /// Message length in bytes.
    pub msg: u64,
    /// Seed of the payload pattern.
    pub data_seed: u64,
    /// The scheme both ends start under.
    pub initial: SchemeSpec,
    /// Injected into the link before the transfer starts. A
    /// [`FaultEvent::PeerRestart`] of side B arms the crash supervisor.
    pub plan: FaultPlan,
    /// The SDR QP pair's configuration.
    pub cfg: SdrConfig,
    /// Adaptive segment size.
    pub segment_bytes: u64,
    /// The adaptive controller's estimator tuning.
    pub telemetry: TelemetryConfig,
    /// Per-life transfer deadline.
    pub deadline: Option<SimTime>,
    /// Whether the supervisor resumes a crashed transfer.
    pub resume: bool,
}

impl SoakCase {
    /// A fault-free undeadlined case over `link`: 2 MiB messages per SDR
    /// send at most, 32 slots, 64 KiB chunks, 1 MiB segments, an
    /// estimator confident after 512 packets, resume on crash.
    pub fn new(link: LinkConfig, msg: u64, data_seed: u64, initial: SchemeSpec) -> Self {
        SoakCase {
            link,
            msg,
            data_seed,
            initial,
            plan: FaultPlan::new_duplex(),
            cfg: SdrConfig {
                max_msg_bytes: 2 << 20,
                msg_slots: 32,
                mtu_bytes: 4096,
                chunk_bytes: 64 * 1024,
                channels: 2,
                generations: 2,
                ..SdrConfig::default()
            },
            segment_bytes: 1 << 20,
            telemetry: TelemetryConfig {
                loss_alpha: 1.0 / 1024.0,
                min_packets: 512,
            },
            deadline: None,
            resume: true,
        }
    }

    /// Builds the deployment, injects the plan, starts the adaptive pair
    /// (supervised when the plan restarts B), runs it to quiescence under
    /// its event budget (120 M), then checks [`teardown`](ProtoHarness::teardown)
    /// and the survivability trichotomy: delivered byte-identical, aborted
    /// with a manifest, or resumed from the crashed life's journal. The
    /// harness comes back for reporting.
    pub fn run(&self) -> (ProtoHarness, Result<Verdict, String>) {
        let mut h = ProtoHarness::new(self.link.clone(), self.cfg, self.msg, self.data_seed);
        let mut acfg = AdaptConfig::new(self.link.bandwidth_bps, h.rtt, self.segment_bytes);
        acfg.telemetry = self.telemetry;
        acfg.deadline = self.deadline;
        let p = &mut h.p;
        if let Err(e) = p
            .fabric
            .apply_fault_plan(&mut p.eng, p.node_a, p.node_b, &self.plan)
        {
            return (h, Err(format!("fault plan rejected: {e}")));
        }
        let first = h.start_adaptive(self.initial, &acfg);
        let crash = self.plan.events.iter().find_map(|ev| match *ev {
            FaultEvent::PeerRestart {
                side: RestartSide::B,
                dead_time,
                ..
            } => Some(h.supervise(&first, self.initial, &acfg, dead_time, self.resume)),
            _ => None,
        });
        h.run(SOAK_EVENT_LIMIT);
        let v = h
            .teardown()
            .and_then(|()| verdict(&h, &first.reports, crash.as_ref(), self.deadline));
        (h, v)
    }
}

/// The two draws a soak sampler's RNG offers the shared distributions.
pub trait Draw {
    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64;
    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64;
}

/// `n` fault events on a duplex plan, each at 0.5–12.5 ms from one of five
/// families: an i.i.d. loss step (1e-4–1e-2), a Gilbert–Elliott shift, a
/// 0.3–2.5 ms blackout, 1–3 flaps, or one 4 ms diurnal drift cycle
/// peaking at 0.8–1.8 %. Every plan is finite and rests at a recoverable
/// loss rate, so delivery stays reachable once it has played out.
pub fn draw_faults(rng: &mut impl Draw, n: u64) -> FaultPlan {
    let mut plan = FaultPlan::new_duplex();
    for _ in 0..n {
        let at = SimTime::from_secs_f64(0.0005 + rng.next_f64() * 0.012);
        let ev = match rng.below(5) {
            0 => FaultEvent::SetLoss {
                at,
                model: LossModel::Iid {
                    p: 10f64.powf(-(2.0 + rng.next_f64() * 2.0)),
                },
            },
            1 => FaultEvent::SetLoss {
                at,
                model: LossModel::GilbertElliott {
                    p_good_to_bad: 0.001 + rng.next_f64() * 0.004,
                    p_bad_to_good: 0.02 + rng.next_f64() * 0.1,
                    loss_good: 1e-5,
                    loss_bad: 0.1 + rng.next_f64() * 0.15,
                },
            },
            2 => FaultEvent::Blackout {
                at,
                duration: SimTime::from_secs_f64(0.0003 + rng.next_f64() * 0.0022),
            },
            3 => FaultEvent::Flap {
                at,
                cycles: 1 + rng.below(3) as u32,
                down: SimTime::from_secs_f64(0.0002 + rng.next_f64() * 0.0006),
                up: SimTime::from_secs_f64(0.0003 + rng.next_f64() * 0.0008),
            },
            _ => FaultEvent::Drift {
                at,
                period: SimTime::from_secs_f64(0.004),
                steps: 4,
                floor_p: 1e-4,
                peak_p: 0.008 + rng.next_f64() * 0.01,
                cycles: 1,
            },
        };
        plan = plan.with(ev);
    }
    plan
}

/// Half the wires are unfaithful twice over: a coin for duplication
/// (0.2–3.2 % of packets) and a coin for displacement (1–7 %, span 2–15).
/// The incarnation-stamped control plane must absorb both without
/// double-applying a handshake. Returns `(dup_p, reorder)`.
pub fn draw_unfaithful(rng: &mut impl Draw) -> (f64, Option<(f64, u32)>) {
    let dup_p = if rng.below(2) == 0 {
        0.0
    } else {
        0.002 + rng.next_f64() * 0.03
    };
    let reorder = if rng.below(2) == 0 {
        None
    } else {
        Some((0.01 + rng.next_f64() * 0.06, 2 + rng.below(14) as u32))
    };
    (dup_p, reorder)
}
