//! # sdr-reliability — software-defined reliability over the SDR SDK
//!
//! The paper's Section 4, organized the way the paper argues reliability
//! *should* be organized: schemes are **software-defined** — small policies
//! over the SDR bitmap that exist once and run wherever a transfer runs.
//! The crate therefore splits every scheme into a **core** and puts
//! **drivers** underneath:
//!
//! ## Cores × drivers
//!
//! A *core* is the protocol as plain data: no timer, no QP handle, no
//! callback. It takes `now` plus a decoded control message or a bitmap,
//! emits actions through caller-supplied closure sinks (`resend(chunk)`,
//! which answers with the instant the copy leaves the wire, and
//! `send(CtrlMsg)`) and returns its next deadline. A *driver* owns
//! scheduling — when the core runs, what its sinks are wired to, and which
//! timeout values it is handed — and nothing else. There are two:
//!
//! | core | per-transfer driver | population driver |
//! |---|---|---|
//! | [`SrTxCore`] — ACK application, Karn RTT sample, evidence-based repair (hole by wire order → at once; lacking for a round trip since it left the wire → overdue; silence → RTO scan), `sr.retx.*` reasons | [`SrSender`] = [`TxDriver`]`<SrTx>`: own [`tick_loop`](runtime::tick_loop), resends straight into its [`StreamTx`] and stamps the departure it returns, `rto` and overdue age `rtt + rtt/64` from [`SrProtoConfig`] | [`FlowManager`] sender flow: shared [`DueIndex`], resends onto the urgent lane (stamped provisionally, restamped with the departure when the pump injects them), RTO and overdue age widened by the population's control pacing |
//! | SR receive policy ([`sr::SrRxScheme`]) in an [`RxStep`] — CTS heal, one ACK describing the whole bitmap (cumulative point + holes below the high-water mark, selective window as fallback), spoken only on news: completion at once, a hole exposed by wire order one margin later, other chunks one margin later but no sooner than one base ACK interval after the last ACK; each news ACK repeated once, then silence until the next arrival — the sender's RTO times it | [`SrReceiver`] = [`RxDriver`]`<SrRxScheme>`: base interval `ack_interval`; its one timer parked in the engine while silent | [`FlowManager`] receive flow: base interval the manager's `ack_interval`, the repeat a population-scaled interval after; no due entry while silent |
//! | EC receive policy ([`ec::EcRxScheme`]) in an [`RxStep`] — audited in-place decode, fallback NACK when due (wire order passed the submessage; the FTO for a tail; a round trip since its last NACK) | [`EcReceiver`] = [`RxDriver`]`<EcRxScheme>`: resolves a submessage on the arrival that makes it decidable, NACKs at its due instant (one margin after order evidence) | [`FlowManager`] EC receive flow (one submessage per flow): the same arrival subscription, its NACK deadline a due-index entry |
//! | EC parity staging (`ParityStager`: in-place encode, striped over the shared encode pool) | [`EcSender`] = [`TxDriver`]`<EcTx>`: `2L` sends, parity `p` encoded when its credit lands, a NACKed data submessage re-injected whole | [`FlowManager`] EC sender flow (parity stream start) |
//! | [`StreamTx`] — every send of a transfer: open in sequence order on credit and never after the end, inject ranges, end and release exactly once; the crate's only caller of the SDR send API | [`TxDriver`]: injects a send whole the moment it opens, repairs straight into it | [`FlowManager`] sender flow: the shard's `starts` index picks whose send opens, chunks go through the DRR arbiter and the pump |
//! | GBN base timer + window rewind ([`gbn::GbnTx`]), cumulative-only ACK | [`GbnSender`] / [`GbnReceiver`] | — (the manager hosts one ARQ scheme: a flow asked to run GBN or SR-RTO runs, and reports, SR-NACK) |
//!
//! The drivers' shared parts live in [`runtime`]: [`TxDriver`] (begin now
//! or on CTS, the timer loop, control dispatch, exactly-once finish for
//! completion *and* abort) over a [`TxScheme`](runtime::TxScheme);
//! [`RxStep`] (CTS heal, scheme poll, first-pass telemetry feed,
//! completion, linger countdown, exactly-once slot release, and the one
//! rule for when the next step runs: news, its repeat, the scheme's
//! deadline, the heal clock) over an [`RxScheme`], which both drivers
//! subscribe to its slots' chunk completions — [`RxDriver`] moves its one
//! timer by the rule, the flow manager a due-index entry; plus [`runtime::ChunkTimers`] and
//! [`runtime::Completion`]. What stays specific to the population driver
//! is what is genuinely population-scale — admission and parking, DRR
//! injection, the shared tick, `FlowOpen/Parked/Ack/Fin/Done` — see
//! [`flow`].
//!
//! ### How a scheme is registered
//!
//! A scheme is described once, by a [`SchemeSpec`] value, and [`scheme`] is
//! the only module that matches on it. Adding one takes:
//!
//! 1. **its own file** — an [`RxScheme`], a [`TxScheme`](runtime::TxScheme)
//!    (or, like EC, its own sender) and the proto config they run under,
//!    as `sr.rs`, `ec.rs` and `gbn.rs` do;
//! 2. **one `SchemeSpec` variant** in [`ack`], with its wire tag and
//!    `Display`;
//! 3. **one row in `scheme.rs`** — an arm in each table function: what
//!    `sdr-model` predicts for it ([`SchemeSpec::model_summary`], and a
//!    place among [`SchemeSpec::candidates`] if the advisor should rank
//!    it), how many SDR sends a run takes ([`SchemeSpec::sends`]), the
//!    sender and config [`scheme::start_sender`] starts for it, and its
//!    [`RxPolicy`](scheme::RxPolicy) variant, which
//!    [`scheme::start_receiver`] posts and polls.
//!
//! No host changes: the adaptive controller starts every segment through
//! those two functions and holds the [`SchemeSender`] / [`SchemeReceiver`]
//! they return; the flow manager steps the same `RxPolicy` and asks a spec
//! only whether it [is EC](SchemeSpec::is_ec). CI counts the lines naming
//! a variant file by file, so a match cannot regrow in a host unnoticed.
//!
//! ## The schemes
//!
//! * [`SrSender`]/[`SrReceiver`] — Selective Repeat with per-chunk RTO and
//!   cumulative + selective ACKs; optional NACK optimization (§4.1.1): one
//!   retransmission per wire loss, each citing order, time or silence as
//!   its evidence (see [`sr`]).
//! * [`EcSender`]/[`EcReceiver`] — Erasure Coding with MDS (Reed–Solomon)
//!   or XOR codes, chunk-granular submessages, a streaming encode→inject
//!   pipeline on the persistent encode pool, in-place receiver decoding,
//!   and the FTO-triggered Selective Repeat fallback (§4.1.2).
//! * [`GbnSender`]/[`GbnReceiver`] — Go-Back-N, the commodity-NIC baseline
//!   whose cumulative-only ACKs force whole-window rewinds; implemented to
//!   exhibit the Bertsekas–Gallager efficiency gap the paper cites when
//!   justifying SR as the ARQ representative.
//! * [`recommend`] — the model-guided protocol advisor: pick and tune the
//!   scheme per deployment (§5.2's "guided choice"), with GBN evaluated as
//!   the baseline candidate.
//!
//! ## The adaptive control plane
//!
//! A static pick is only as good as the channel assumption it was made
//! under (Figure 2 shows WAN drop rates drifting three orders of
//! magnitude). Two modules close the loop:
//!
//! * [`telemetry`] — the online [`ChannelEstimator`]: EWMA loss from the
//!   receiver's first-pass bitmap scans (fed after every receive step,
//!   and by the adaptive receiver before each report) and RTT from ACK
//!   round-trips, with confidence gating so cold estimates cannot flap.
//! * [`adapt`] — the [`AdaptiveController`]: runs the transfer as a
//!   receiver-throttled pipeline of segments, re-runs the advisor against
//!   the live estimate, and executes mid-transfer SR ⇄ EC ⇄ GBN handovers
//!   over the control plane ([`CtrlMsg::SwitchPropose`] /
//!   [`CtrlMsg::SwitchAck`], epoch-gated scheme traffic, drain semantics,
//!   exactly-once slot release across the switch) with hysteresis around
//!   the fig09 boundary ([`SchemeSpec::fig09_verdict`]).
//!
//! Everything runs on the deterministic discrete-event substrate, so the
//! protocol implementations can be validated against the closed-form models
//! in `sdr-model` — which the integration tests in this crate (including
//! the scheme-conformance suite run against all three schemes, the GBN
//! protocol-vs-model differential and the adaptive switchover suite) and
//! in the workspace `tests/` directory do.
//!
//! ## The flow manager ([`flow`])
//!
//! The per-transfer drivers run *one* transfer well; a real node serves
//! thousands at once. [`FlowManager`] is the population driver over the
//! same cores:
//!
//! * **One control plane, one tick.** All flows to all peers multiplex
//!   over a single [`ControlEndpoint`] (the flow id rides in the control
//!   stamp) and a single engine timer driven by a [`DueIndex`] of
//!   per-flow deadlines — service cost scales with *due* flows, not live
//!   ones. Per-peer state is sharded over a small set of QPs
//!   ([`FlowCfg::shards`](flow::FlowCfg::shards)); receive slots are the
//!   admission currency, and opens that find no free slot park in a
//!   per-shard FIFO that drains as resolving flows free slots, so a
//!   population 10× deeper than the slot table completes instead of
//!   thrashing.
//! * **Fair injection.** Senders do not write to the wire directly: every
//!   chunk passes through a per-peer deficit-round-robin arbiter
//!   ([`DrrArbiter`], one quantum ≈ one chunk) pumped only while the
//!   link's busy horizon is within a few chunks of serialization —
//!   elephants cannot
//!   starve mice, and fairness is measured where it is felt: a same-size
//!   population opened together finishes nearly in lockstep
//!   (completion-time Jain ≥ 0.95 at 1k flows). Repairs (NACK'd or
//!   RTO-expired chunks) bypass the ring through an urgent lane: a lost
//!   chunk pins a receive slot and a completion, so re-sending it beats
//!   injecting new first-pass data that would queue *behind* the very
//!   population that re-NACKs it.
//! * **A control plane that speaks when there is news.** A receive flow
//!   is subscribed to its slots' chunk completions: a completed chunk is
//!   ACKed by [`SrReceiver`]'s rule (whole bitmap, repeated once), the
//!   arrival that completes a flow sends `FlowDone`, frees its slots and
//!   admits the next parked open in the same event, and between arrivals
//!   an ARQ flow has no timer at all — the sender's RTO times the silence.
//!   An open that finds no slot is answered `FlowParked`, not re-asked.
//!   What a flow does say unprompted (the ACK repeat, the handshake heal,
//!   the final-ACK linger) runs at a cadence
//!   stretched so the whole rx population stays inside a fixed fraction
//!   of link bandwidth, and sender RTOs and open retries are widened by
//!   the matching pacing term, so an answer queued behind the
//!   population's own traffic does not read as a loss.
//! * **Warm-start estimation.** A long-lived per-peer
//!   [`EstimatorRegistry`](telemetry::EstimatorRegistry) outlives the
//!   flows that feed it (each flow's final ack carries its closing
//!   first-pass loss counters), ages out stale peers, and steers *new*
//!   flows: a confident loss estimate past the EC threshold opens the
//!   next flow under EC with parity sized from the estimate
//!   (chunk-loss-amplified — any lost packet erases its chunk), instead
//!   of re-learning the channel from cold per flow.
//!
//! ## Failure semantics
//!
//! Channels do not just drop packets — they go dark, duplicate, reorder,
//! and endpoints crash mid-transfer (`sdr-sim`'s fault fabric scripts
//! blackouts, flaps, loss steps, duplicate/reorder injection and peer
//! restarts against in-flight traffic). The crate's survivability
//! contract:
//!
//! * **RTO backoff.** Every retransmission clock — [`ChunkTimers`] for SR,
//!   the single base timer in GBN — backs off exponentially while timeouts
//!   fire without ACK progress, capped at
//!   2^[`RTO_BACKOFF_CAP`] × the base RTO, and
//!   resets to the base RTO on any newly-acked chunk. On a merely lossy
//!   channel ACKs flow every RTT, so backoff stays pinned at zero and
//!   behavior matches a fixed-RTO scheme; only true silence (a blackout)
//!   climbs the exponent, bounding resends per chunk to O(log outage/RTO)
//!   instead of outage/RTO. Karn's rule still governs RTT *sampling*
//!   (only never-retransmitted chunks contribute samples).
//! * **Deadlines and abort.** Every transfer ends one of three ways — the
//!   survivability *trichotomy*, captured by
//!   [`TransferOutcome`]: `Delivered`,
//!   `Aborted { reason, manifest }`
//!   ([`AbortReason`]) — or aborted and then
//!   **resumed to completion** in a later life (below). An abort —
//!   deadline expiry, an explicit [`AdaptiveSender::abort`] /
//!   [`AdaptiveReceiver::abort`], a crash
//!   ([`AbortReason::Restart`]), or a
//!   peer's [`CtrlMsg::Abort`] notification — is a
//!   clean local teardown: scheme timers cancelled, receive slots released
//!   exactly once, the completion callback fired exactly once, zero
//!   events left pending. The [`AdaptConfig::deadline`](adapt::AdaptConfig)
//!   is armed *independently on both ends*, because the abort notification
//!   rides the same unreliable control path as everything else and may die
//!   in the very outage that caused the miss.
//! * **Incarnation-stamped control plane.** Every control datagram a
//!   [`ControlEndpoint`] sends is prefixed with a 20-byte little-endian
//!   [`CtrlStamp`]: transfer id (u64), endpoint
//!   incarnation (u32), destination incarnation echo (u32),
//!   per-incarnation send sequence (u32). The receive
//!   path keeps a per-(peer, transfer) filter — highest incarnation wins,
//!   a 128-entry sliding window dedups sequence numbers — and drops
//!   stale-incarnation and duplicate datagrams before they reach any
//!   handler ([`CtrlFilterStats`] counts the
//!   kills). On top of that filter every handshake (CTS, `SwitchPropose` /
//!   `SwitchAck`, `SegDone`, `Abort`, `ResumeQuery` / `ResumeState`) is
//!   idempotent, so a wire that duplicates or reorders control traffic
//!   cannot double-commit a handover or resurrect a dead transfer. After a
//!   crash, [`ControlEndpoint::bump_incarnation`] +
//!   [`ControlEndpoint::reattach`] retire the dead life in *both*
//!   directions: its own stragglers arrive at the peer stamped with the
//!   old incarnation and die in the filter, while in-flight traffic the
//!   peer addressed to the old life arrives carrying a stale incarnation
//!   echo and is dropped before it can touch the new life (only
//!   `ResumeQuery` — the read-only probe that re-teaches a sender the
//!   live incarnation — crosses that boundary).
//! * **Resumable transfers.** The receiver journals per-segment delivery
//!   in a [`DeliveryManifest`] — a bitmap over
//!   the full-message segment geometry, the one piece of state the crash
//!   model assumes durable. An aborted receiver's outcome carries the
//!   manifest out; a new life re-enters via
//!   [`AdaptiveController::resume_receiver`] (plans only the undelivered
//!   segments) while the sender re-enters via
//!   [`AdaptiveController::resume_sender`]: an [`AdaptiveSender`] whose
//!   first phase paces [`CtrlMsg::ResumeQuery`] datagrams at the nominal
//!   RTT until a [`CtrlMsg::ResumeState`] answer carries the manifest back
//!   (the receiver answers every query with the same planned-against
//!   snapshot, so duplication and reordering cannot fork the plan). Its
//!   one control handler, deadline, abort and digest answer serve the
//!   query and the transfer alike. Both ends then run the identical
//!   undelivered-segment plan — wire epochs are plan indices — delivering
//!   the remainder
//!   byte-identical without re-receiving a single already-delivered
//!   segment; a previous life's loss/RTT estimates can
//!   [seed](telemetry::ChannelEstimator::seed) the new sender's estimator
//!   so the controller need not re-earn confidence from zero.
//! * **Blackout detection.** The sender's [`ChannelEstimator`] doubles as
//!   a liveness monitor: any peer datagram notes progress, and eight
//!   nominal RTTs of silence (`adapt`'s `BLACKOUT_RTTS`) trip the
//!   controller into blackout mode — the estimator's confidence is decayed
//!   once (a pre-outage loss estimate says nothing about the healed
//!   channel) and no handovers are proposed until post-heal traffic
//!   re-earns confidence.
//! * **End-to-end integrity: corruption is reclassified as loss.** A wire
//!   can flip bits, not just drop packets (`LinkConfig::with_corruption`
//!   scripts it), and nothing in this crate ever trusts a payload it
//!   cannot verify. The checksums sit at four layers, outermost first:
//!
//!   1. **Control datagrams** carry a CRC32C trailer
//!      (`control::seal_ctrl_frame`), verified *before* the incarnation
//!      filter — a flipped handshake dies at the gate (`ctrl.corrupt`
//!      counts it) and its sender's pacing loop simply re-sends, so the
//!      control plane parses only clean frames (`ctrl.malformed` stays
//!      zero even on a corrupting wire).
//!   2. **Data packets** carry a per-payload CRC32C attached at send
//!      (always: integrity is not configurable). The simulated NIC
//!      verifies it *before* the DMA commits, exactly like a real
//!      NIC's ICRC check: a corrupt payload never reaches memory (the
//!      `crc_skipped` NIC stat), its bitmap bit stays clear, and the
//!      scheme machinery — SR NACK/RTO, GBN rewind, EC parity — repairs
//!      it as an ordinary loss. The **NIC verifies, `SdrQp` records**:
//!      the payload's CRC rides the completion
//!      (`sdr_sim::PayloadCheck::Landed`) and becomes the packet's
//!      arrival CRC without another pass over the bytes; `SdrQp`
//!      re-reads memory only for the completions the NIC did not vouch
//!      for. The receiving NIC hashes a payload only when it may differ
//!      from what the sending NIC hashed at post (the wire corrupted it,
//!      or node memory's write stamps say a source page was written
//!      since, counted by `nic.crc.rehashed`); otherwise the carried CRC
//!      is the payload's, so a clean packet is hashed once. Because data
//!      packets name the send buffer and are read at delivery, this is
//!      also the layer that catches a source range modified *while its
//!      packets are in flight* (it no longer matches the CRC taken at
//!      post time) — the repair re-reads the source, so what lands is
//!      what the source holds. The [`ChannelEstimator`] consequently
//!      *sees* corruption as loss, so the adaptive controller reacts to a
//!      corrupting channel the same way it reacts to a lossy one: by
//!      handing over to a stronger scheme.
//!   3. **EC receivers audit shard checksums before decode** — a decoder
//!      fed a stale chunk would launder corruption into k clean-looking
//!      outputs — demoting stale chunks to absent, decoding around them
//!      when parity allows, and re-NACKing through the fallback path when
//!      it does not (`EcRecvStats::stale_chunks`).
//!   4. **Delivery is digest-verified.** After all bitmaps complete, the
//!      receiver runs a whole-message CRC32C handshake
//!      ([`CtrlMsg::DigestQuery`](ack::CtrlMsg::DigestQuery) /
//!      [`CtrlMsg::DigestState`](ack::CtrlMsg::DigestState)) against the
//!      sender's source buffer: match → `Delivered`, mismatch →
//!      [`AbortReason::Corrupt`] — which also catches a *source* buffer
//!      mutated after its bytes landed, something no wire checksum can
//!      see. One
//!      consequence: the sender's `Delivered` rides the final scheme ACK
//!      while the receiver's waits on the digest round trip, so a
//!      deadline expiring inside that window can legitimately leave a
//!      delivered sender beside a cleanly-aborted receiver — the bytes
//!      are still byte-identical, and the chaos suites assert exactly
//!      that.
//!
//!   All four funnel through the one runtime-dispatched
//!   `sdr_erasure::crc32c` primitive (hardware `vpclmul` folding /
//!   `sse42` / portable `slice8`, differentially tested tier-against-tier,
//!   every tier bit-identical), and the whole
//!   stack holds under `SDR_CRC32C_KERNEL=slice8`. The contract the
//!   corruption soak enforces: **byte-identical delivery or a clean
//!   abort — never silent corruption.**
//! * **Chaos conformance.** The `chaos_soak` suite drives random transfers
//!   under proptest-generated fault plans (loss steps, blackouts, flaps,
//!   duplication, reordering — and, on half the wires, persistent bit
//!   corruption) and asserts the trichotomy: every run delivers
//!   byte-identical data within its deadline, aborts cleanly on both ends
//!   (manifest in hand, no leaked slots, timers or pending events), or
//!   resumes across a scripted restart and completes. The deployment, the
//!   crash → resume supervisor and the verdict live once, in [`testkit`],
//!   for that suite, the directed tests and the `chaos_soak` bench alike.
//!
//! [`RxDriver`]: runtime::RxDriver
//! [`CtrlMsg::SwitchPropose`]: ack::CtrlMsg::SwitchPropose
//! [`CtrlMsg::SwitchAck`]: ack::CtrlMsg::SwitchAck

#![warn(missing_docs)]

pub mod ack;
pub mod adapt;
pub mod advisor;
pub mod control;
pub mod ec;
pub mod flow;
pub mod gbn;
pub mod runtime;
pub mod scheme;
pub mod sr;
pub mod telemetry;
pub mod testkit;

pub use ack::{
    build_sr_ack, CtrlMsg, CtrlStamp, SchemeSpec, CTRL_STAMP_BYTES, MAX_NACKS, MAX_SACK_BITS,
};
pub use adapt::{
    AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, AdaptiveReceiver, AdaptiveSender,
};
pub use advisor::{recommend, Candidate, Recommendation};
pub use control::{ControlEndpoint, CtrlFilterStats, CtrlPath};
pub use ec::{EcCodeChoice, EcProtoConfig, EcReceiver, EcRecvStats, EcReport, EcSender};
pub use flow::{
    DrrArbiter, DueIndex, FlowCfg, FlowKey, FlowManager, FlowReport, FlowStats, RxFlowDone,
    WorkItem,
};
pub use gbn::{GbnProtoConfig, GbnReceiver, GbnReport, GbnSender};
pub use runtime::{
    AbortReason, ChunkTimers, Completion, DeliveryManifest, RxCommon, RxDriver, RxScheme, RxStep,
    StreamTx, TransferOutcome, TxDriver, RTO_BACKOFF_CAP,
};
pub use scheme::{SchemeEnv, SchemeReceiver, SchemeSender};
pub use sr::{SrProtoConfig, SrReceiver, SrReport, SrSender, SrTrace, SrTxCore, REPAIR_MARGIN_DIV};
pub use telemetry::{ChannelEstimator, EstimatorRegistry, TelemetryConfig, TelemetryCounters};

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::testkit::{pattern, sdr_pair, SdrPair};
    use sdr_core::SdrConfig;
    use sdr_sim::{LinkConfig, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// 1 MiB max messages, 64 KiB chunks, enough slots for EC tests.
    fn cfg() -> SdrConfig {
        SdrConfig {
            max_msg_bytes: 1 << 20,
            msg_slots: 64,
            mtu_bytes: 4096,
            chunk_bytes: 64 * 1024,
            channels: 2,
            generations: 2,
            ..SdrConfig::default()
        }
    }

    fn wan_pair(p_drop: f64, seed: u64) -> SdrPair {
        // A scaled-down WAN: 8 Gbit/s over 100 km.
        let link = LinkConfig::wan(100.0, 8e9, p_drop).with_seed(seed);
        sdr_pair(link, cfg(), 64 << 20)
    }

    struct SrRun {
        report: SrReport,
        recv_done: SimTime,
        ok: bool,
    }

    fn run_sr(p_drop: f64, seed: u64, msg_bytes: u64, nack: bool) -> SrRun {
        let mut p = wan_pair(p_drop, seed);
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(msg_bytes as usize, seed);
        let src = p.ctx_a.alloc_buffer(msg_bytes);
        let dst = p.ctx_b.alloc_buffer(msg_bytes);
        p.ctx_a.write_buffer(src, &data);

        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let proto = if nack {
            SrProtoConfig::nack(rtt)
        } else {
            SrProtoConfig::rto_3rtt(rtt)
        };

        let report = Rc::new(RefCell::new(None));
        let recv_done = Rc::new(RefCell::new(SimTime::ZERO));
        let r2 = report.clone();
        let _tx = SrSender::start(
            &mut p.eng,
            &p.qp_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            msg_bytes,
            proto,
            move |_eng, rep| {
                *r2.borrow_mut() = Some(rep);
            },
        );
        let rd = recv_done.clone();
        let _rx = SrReceiver::start(
            &mut p.eng,
            &p.qp_b,
            ctrl_b.clone(),
            ctrl_a.addr(),
            dst,
            msg_bytes,
            proto,
            move |eng, _t| {
                *rd.borrow_mut() = eng.now();
            },
        );
        p.eng.set_event_limit(30_000_000);
        p.eng.run();
        let ok = p.ctx_b.read_buffer(dst, msg_bytes as usize) == data;
        let rep = report.borrow_mut().take().expect("sender must finish");
        let recv_done_at = *recv_done.borrow();
        SrRun {
            report: rep,
            recv_done: recv_done_at,
            ok,
        }
    }

    #[test]
    fn sr_lossless_completes_in_about_injection_plus_rtt() {
        let r = run_sr(0.0, 1, 1 << 20, false);
        assert!(r.ok);
        assert_eq!(r.report.retransmitted, 0);
        // 1 MiB at 8 Gbit/s ≈ 1.05 ms injection (+ headers) + RTT 0.67 ms
        // + ACK cadence slack. Anything under 3 ms is sane.
        let secs = r.report.duration.as_secs_f64();
        assert!(secs > 0.0015 && secs < 0.003, "duration {secs}");
        assert!(r.recv_done > SimTime::ZERO);
    }

    #[test]
    fn sr_recovers_from_heavy_loss_with_rto() {
        let r = run_sr(0.02, 7, 1 << 20, false);
        assert!(r.ok, "data must be intact after SR repair");
        assert!(r.report.retransmitted > 0, "2% loss must retransmit");
    }

    #[test]
    fn sr_nack_repairs_faster_than_rto() {
        // Same seed → same drop pattern on the data path; NACK detection
        // (~1 RTT) must beat RTO detection (3 RTT).
        let rto = run_sr(0.01, 21, 1 << 20, false);
        let nack = run_sr(0.01, 21, 1 << 20, true);
        assert!(rto.ok && nack.ok);
        assert!(nack.report.retransmitted > 0, "loss expected");
        assert!(
            nack.report.duration < rto.report.duration,
            "NACK {} should beat RTO {}",
            nack.report.duration,
            rto.report.duration
        );
    }

    struct EcRun {
        report: EcReport,
        stats: EcRecvStats,
        ok: bool,
    }

    fn run_ec(
        p_drop: f64,
        seed: u64,
        msg_bytes: u64,
        code: EcCodeChoice,
        k: usize,
        m: usize,
    ) -> EcRun {
        let mut p = wan_pair(p_drop, seed);
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let data = pattern(msg_bytes as usize, seed ^ 0xEC);
        let src = p.ctx_a.alloc_buffer(msg_bytes);
        let dst = p.ctx_b.alloc_buffer(msg_bytes);
        p.ctx_a.write_buffer(src, &data);

        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let model_ch = sdr_model::Channel::new(8e9, rtt.as_secs_f64(), p_drop);
        let proto = EcProtoConfig::for_channel(k, m, code, &model_ch, msg_bytes, rtt);

        let report = Rc::new(RefCell::new(None));
        let stats = Rc::new(RefCell::new(EcRecvStats::default()));
        let r2 = report.clone();
        let _tx = EcSender::start(
            &mut p.eng,
            &p.qp_a,
            &p.ctx_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            msg_bytes,
            proto,
            move |_eng, rep| {
                *r2.borrow_mut() = Some(rep);
            },
        );
        let s2 = stats.clone();
        EcReceiver::start(
            &mut p.eng,
            &p.qp_b,
            &p.ctx_b,
            ctrl_b.clone(),
            ctrl_a.addr(),
            dst,
            msg_bytes,
            proto,
            move |_eng, _t, st| {
                *s2.borrow_mut() = st;
            },
        );
        p.eng.set_event_limit(30_000_000);
        p.eng.run();
        let ok = p.ctx_b.read_buffer(dst, msg_bytes as usize) == data;
        let rep = report.borrow_mut().take().expect("sender must finish");
        let final_stats = *stats.borrow();
        EcRun {
            report: rep,
            stats: final_stats,
            ok,
        }
    }

    #[test]
    fn ec_lossless_never_decodes() {
        let r = run_ec(0.0, 2, 1 << 20, EcCodeChoice::Mds, 4, 2);
        assert!(r.ok);
        assert_eq!(r.stats.decoded_submessages, 0, "nothing to repair");
        assert_eq!(r.stats.complete_submessages, 4); // 16 chunks / k=4
        assert_eq!(r.report.fallback_rounds, 0);
    }

    #[test]
    fn ec_recovers_drops_in_place_without_retransmission() {
        // Moderate loss: parity absorbs the drops; no NACK round needed.
        let r = run_ec(0.005, 3, 1 << 20, EcCodeChoice::Mds, 4, 2);
        assert!(r.ok, "decoded data must equal the original");
        assert!(
            r.stats.decoded_submessages > 0,
            "with 0.5% packet loss some submessage should need decoding: {:?}",
            r.stats
        );
        assert_eq!(r.report.fallback_rounds, 0, "parity should suffice");
    }

    #[test]
    fn ec_falls_back_to_sr_under_extreme_loss() {
        // 20% packet loss: chunk drops overwhelm (4,1) parity; the FTO
        // NACK path must kick in and still deliver intact data.
        let r = run_ec(0.20, 4, 512 * 1024, EcCodeChoice::Mds, 4, 1);
        assert!(r.ok, "fallback must still deliver correct data");
        assert!(
            r.report.fallback_rounds > 0,
            "expected at least one NACK round: {:?}",
            r.report
        );
    }

    #[test]
    fn ec_xor_code_end_to_end() {
        let r = run_ec(0.005, 5, 1 << 20, EcCodeChoice::Xor, 4, 2);
        assert!(r.ok);
        assert_eq!(
            r.stats.complete_submessages + r.stats.decoded_submessages,
            4
        );
    }

    #[test]
    fn des_sr_matches_model_prediction_lossless() {
        // Cross-validation: the DES protocol and the closed-form model must
        // agree on the lossless baseline (injection + RTT) within protocol
        // overhead (ACK cadence, headers).
        let r = run_sr(0.0, 11, 1 << 20, false);
        let rtt = sdr_sim::rtt_from_km(100.0).as_secs_f64();
        let model_ch = sdr_model::Channel::new(8e9, rtt, 0.0);
        let ideal = model_ch.ideal_time(1 << 20);
        let des = r.report.duration.as_secs_f64();
        assert!(
            des >= ideal && des < ideal * 1.6,
            "DES {des} vs model ideal {ideal}"
        );
    }
}
