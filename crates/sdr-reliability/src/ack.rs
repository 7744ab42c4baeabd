//! Control-path wire formats for the example reliability layers (§4.1).
//!
//! The SR ACK compactly encodes the receiver's chunk bitmap (§4.1.1): a
//! **cumulative ACK** (highest chunk for which all previous chunks
//! arrived) and a **selective ACK** window (as much bitmap as fits in the
//! ACK payload). The NACK variant lists the holes below the receiver's
//! high-water mark so the sender can retransmit after one RTT instead of
//! an RTO, and — since a list of holes under a high-water mark *is* the
//! bitmap — describes the whole message in one datagram, with the window
//! as the fallback past [`MAX_NACKS`] holes ([`build_sr_ack`]). The EC
//! layer uses a positive ACK once all submessages are recoverable and a
//! NACK listing the failed data submessages (§4.1.2).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::runtime::{AbortReason, DeliveryManifest};

/// Maximum selective-ACK window carried per ACK (bits). Chosen so the whole
/// message fits comfortably in one 4 KiB control datagram.
pub const MAX_SACK_BITS: usize = 1024;
/// Maximum explicit NACK entries per ACK.
pub const MAX_NACKS: usize = 128;

/// The `(transfer, incarnation, seq)` stamp every control datagram carries
/// on the wire (16 bytes, prepended by the control endpoint before the
/// message body). Receivers use it to drop **stale-incarnation** traffic
/// (datagrams sent by a peer's pre-crash life) and **duplicates** (the
/// wire may copy any datagram), making every control handshake idempotent
/// under duplication and reordering without per-message logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrlStamp {
    /// Transfer identity (agreed out-of-band, like the QP wireup).
    pub xfer: u64,
    /// Sender's incarnation — bumped on every crash/restart, so one
    /// comparison retires an old life's entire in-flight window.
    pub inc: u32,
    /// Destination's incarnation as last learned by the sender (the
    /// *incarnation echo*). A restarted node drops datagrams echoing its
    /// previous life: whatever the peer sent before it observed the crash
    /// — including traffic still serializing on the wire at the crash
    /// instant — cannot leak into the resumed transfer. The peer
    /// re-learns the live incarnation from the first accepted datagram of
    /// the new life ([`CtrlMsg::ResumeQuery`] is exempt from the echo
    /// check, bootstrapping that exchange).
    pub dst_inc: u32,
    /// Per-endpoint monotone datagram sequence (dedup key within an
    /// incarnation).
    pub seq: u32,
}

/// Wire size of a [`CtrlStamp`].
pub const CTRL_STAMP_BYTES: usize = 20;

impl CtrlStamp {
    /// Appends the 20-byte wire form.
    pub fn encode_into(&self, b: &mut BytesMut) {
        b.put_u64_le(self.xfer);
        b.put_u32_le(self.inc);
        b.put_u32_le(self.dst_inc);
        b.put_u32_le(self.seq);
    }

    /// Parses a stamp prefix; `None` when truncated.
    pub fn decode_from(buf: &mut impl Buf) -> Option<CtrlStamp> {
        if buf.remaining() < CTRL_STAMP_BYTES {
            return None;
        }
        Some(CtrlStamp {
            xfer: buf.get_u64_le(),
            inc: buf.get_u32_le(),
            dst_inc: buf.get_u32_le(),
            seq: buf.get_u32_le(),
        })
    }
}

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

impl SchemeSpec {
    /// True for erasure-coding specs.
    pub fn is_ec(&self) -> bool {
        matches!(self, SchemeSpec::EcMds { .. } | SchemeSpec::EcXor { .. })
    }

    fn encode_into(&self, b: &mut BytesMut) {
        let (kind, k, m) = match *self {
            SchemeSpec::SrRto => (0u8, 0u16, 0u16),
            SchemeSpec::SrNack => (1, 0, 0),
            SchemeSpec::EcMds { k, m } => (2, k, m),
            SchemeSpec::EcXor { k, m } => (3, k, m),
            SchemeSpec::Gbn => (4, 0, 0),
        };
        b.put_u8(kind);
        b.put_u16_le(k);
        b.put_u16_le(m);
    }

    fn decode_from(buf: &mut impl Buf) -> Option<SchemeSpec> {
        if buf.remaining() < 5 {
            return None;
        }
        let kind = buf.get_u8();
        let k = buf.get_u16_le();
        let m = buf.get_u16_le();
        match kind {
            0 => Some(SchemeSpec::SrRto),
            1 => Some(SchemeSpec::SrNack),
            2 if k >= 1 && m >= 1 => Some(SchemeSpec::EcMds { k, m }),
            3 if k >= 1 && m >= 1 => Some(SchemeSpec::EcXor { k, m }),
            4 => Some(SchemeSpec::Gbn),
            _ => None,
        }
    }
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

/// A control-path message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Selective Repeat acknowledgment.
    SrAck {
        /// All chunks `< cumulative` have been received.
        cumulative: u32,
        /// First chunk index covered by `sack_bits`.
        window_start: u32,
        /// Selective window: bit `i` = chunk `window_start + i` received.
        sack_bits: Vec<u64>,
        /// Number of valid bits in `sack_bits`.
        sack_len: u32,
        /// Explicit holes (NACK optimization; empty in plain RTO mode).
        nacks: Vec<u32>,
    },
    /// EC receiver: all data submessages recovered — release the message.
    EcAck,
    /// EC receiver: these data submessages are unrecoverable; selective
    /// repeat them (§4.1.2 fallback).
    EcNack {
        /// Indices of failed data submessages.
        failed: Vec<u32>,
    },
    /// Go-Back-N acknowledgment: purely cumulative — the commodity-NIC
    /// baseline carries no selective state at all, which is exactly the
    /// information loss that makes GBN rewind whole windows.
    GbnAck {
        /// All chunks `< cumulative` have been received in order.
        cumulative: u32,
    },
    /// Epoch envelope for adaptive transfers: scheme traffic of segment
    /// `epoch` rides inside it, so ACKs lingering from before a scheme
    /// handover are identifiable (and droppable) instead of poisoning the
    /// successor scheme's sender. One level deep — a nested `Seg` is
    /// malformed.
    Seg {
        /// Segment index the inner message belongs to.
        epoch: u32,
        /// The scheme's own control message.
        inner: Box<CtrlMsg>,
    },
    /// Adaptive handover, step 1 (sender → receiver): from segment `epoch`
    /// onward, run `spec`. Re-sent on the controller cadence until the
    /// matching [`SwitchAck`](CtrlMsg::SwitchAck) arrives (the healing path
    /// when either direction drops). `seq` identifies the handshake: a
    /// delayed duplicate ACK from an *earlier* committed handover must not
    /// satisfy a later proposal.
    SwitchPropose {
        /// Handshake identifier (monotone per proposal).
        seq: u32,
        /// First segment the new scheme applies to.
        epoch: u32,
        /// The scheme to rebind to.
        spec: SchemeSpec,
    },
    /// Adaptive handover, step 2 (receiver → sender): commitment to run
    /// handshake `seq`'s scheme from segment `epoch` onward. The receiver
    /// may bump the epoch past segments it has already started under the
    /// old scheme.
    SwitchAck {
        /// Handshake identifier being committed.
        seq: u32,
        /// First segment the new scheme applies to (receiver-final).
        epoch: u32,
    },
    /// Receiver → sender channel telemetry: cumulative first-pass packet
    /// counts from the receive bitmaps. Cumulative, so datagram loss only
    /// delays the estimate (the next report re-covers the gap); the sender
    /// feeds deltas into its [`ChannelEstimator`].
    ///
    /// [`ChannelEstimator`]: crate::telemetry::ChannelEstimator
    Telemetry {
        /// Packets that should have arrived so far (first-pass high-water).
        seen: u64,
        /// Packets missing on their first pass so far.
        lost: u64,
    },
    /// Sender → receiver completion watermark: every segment below `below`
    /// has been fully acknowledged on the sender. The receiver may quiesce
    /// those segments' lingering drivers (releasing their slots exactly
    /// once) — the *only* safe trigger, since pipelined later-segment data
    /// proves nothing about earlier final ACKs. Cumulative and re-sent on
    /// the controller cadence, so datagram loss only delays the release;
    /// the per-driver linger countdown remains the backstop.
    SegDone {
        /// All segments `< below` are complete at the sender.
        below: u32,
    },
    /// Either end → peer: this transfer is being torn down before
    /// completion (deadline expiry or an explicit abort). Best-effort — the
    /// datagram rides the same unreliable control path as everything else
    /// and may be lost, which is exactly why both ends also arm their
    /// *local* deadline timers instead of waiting to be told. Carries the
    /// originator's reason so both ends report the same cause.
    Abort {
        /// Why the originator tore the transfer down.
        reason: AbortReason,
    },
    /// Resuming sender → receiver: what does the delivery manifest say?
    /// Paced at the nominal RTT until the matching
    /// [`ResumeState`](CtrlMsg::ResumeState) arrives (either direction may
    /// drop); duplicates are harmless — the receiver always answers with
    /// its resume-start snapshot.
    ResumeQuery,
    /// Receiver → resuming sender: the per-segment delivery checkpoint.
    /// Both ends rebuild the identical retransmission plan (the manifest's
    /// undelivered segments, in offset order) from this one message.
    ResumeState {
        /// The receiver's checkpoint, snapshot at resume start so repeated
        /// queries get byte-identical answers.
        manifest: DeliveryManifest,
        /// The receive sequence number the resumed plan's first post got.
        /// CTS matching is order-based, and the crash desynchronized the
        /// two counters (a receiver posts ahead of the sender's opens) —
        /// the resuming sender fast-forwards its send sequence to this
        /// base so the k-th stream of the plan meets the k-th posted
        /// buffer.
        base: u64,
    },
    /// Flow sender → receiver: open flow `xfer & !FLOW_XFER_BIT` (the flow
    /// id rides in the control stamp, not the payload). Re-sent on the
    /// sender's open-retry cadence until *an answer* arrives — the
    /// [`FlowAck`](CtrlMsg::FlowAck) of an admission or the
    /// [`FlowParked`](CtrlMsg::FlowParked) of a queued open; after the
    /// latter only as a slow liveness probe. Duplicates are harmless: the
    /// receiver answers every copy with whichever of the two is true.
    FlowOpen {
        /// Message length in bytes.
        bytes: u64,
        /// Reliability scheme this flow runs under (fixed for the flow's
        /// lifetime — per-flow adaptation is the estimator registry picking
        /// a better scheme for the *next* flow, not mid-flow switching).
        spec: SchemeSpec,
    },
    /// Flow receiver → sender: admission snapshot. Carries the
    /// receiver-assigned receive sequence numbers so the sender can order
    /// its stream opens correctly no matter how admissions from concurrent
    /// flows interleaved on the receiver. Only the receiver knows when a
    /// parked open is admitted, so it heals this message itself: re-sent
    /// (with the CTS) on a doubling interval until the flow's first packet
    /// lands.
    FlowAck {
        /// Receive sequence the data message was posted under.
        data_seq: u64,
        /// Receive sequence of the parity message (`u64::MAX` when the
        /// flow's scheme carries no parity).
        parity_seq: u64,
    },
    /// Flow sender → receiver: the flow is fully acknowledged at the
    /// sender; the receiver may cut its ACK linger short. Best-effort and
    /// sent once — loss merely means the receiver lingers its full
    /// countdown.
    FlowFin,
    /// Flow receiver → sender: the flow resolved (data fully present or
    /// decoded). Doubles as the final acknowledgment *and* the receiver's
    /// closing telemetry: the cumulative first-pass counters ride along so
    /// the sender's per-peer estimator absorbs the full channel
    /// observation even though per-poll [`Telemetry`](CtrlMsg::Telemetry)
    /// stops at resolution. Linger-repeated until
    /// [`FlowFin`](CtrlMsg::FlowFin) (or the countdown) retires the flow.
    FlowDone {
        /// Cumulative first-pass packets scanned (arrived + gaps).
        seen: u64,
        /// Cumulative first-pass gaps.
        lost: u64,
    },
    /// Flow receiver → sender: the open is queued for admission (no receive
    /// slot is free) — stop re-asking, the next move is the receiver's.
    /// Sent when an open is parked and in answer to every duplicate of a
    /// parked open, so its loss costs one more
    /// [`FlowOpen`](CtrlMsg::FlowOpen) retry. Queueing is not failure: a
    /// sender that holds one no longer counts its waiting toward giving up.
    FlowParked,
    /// Receiver → sender: every segment's data has landed — what is the
    /// whole-message CRC32C? Paced on the receiver's tick cadence until
    /// the matching [`DigestState`](CtrlMsg::DigestState) arrives (either
    /// direction may drop); duplicates are harmless — the sender always
    /// answers from its cached digest.
    DigestQuery,
    /// Sender → receiver: the CRC32C over the entire posted message. The
    /// receiver compares it against the bytes that actually landed:
    /// equality is the end-to-end delivery proof; a mismatch means wire
    /// corruption survived the packet-level checks (a corrupted duplicate
    /// overwrote an already-recorded packet after its bit was set) and
    /// the transfer aborts as [`AbortReason::Corrupt`] instead of
    /// delivering silently wrong bytes.
    DigestState {
        /// CRC32C over the sender's whole message.
        crc: u32,
    },
}

const TAG_SR_ACK: u8 = 1;
const TAG_EC_ACK: u8 = 2;
const TAG_EC_NACK: u8 = 3;
const TAG_GBN_ACK: u8 = 4;
const TAG_SEG: u8 = 5;
const TAG_SWITCH_PROPOSE: u8 = 6;
const TAG_SWITCH_ACK: u8 = 7;
const TAG_TELEMETRY: u8 = 8;
const TAG_SEG_DONE: u8 = 9;
const TAG_ABORT: u8 = 10;
const TAG_RESUME_QUERY: u8 = 11;
const TAG_RESUME_STATE: u8 = 12;
const TAG_FLOW_OPEN: u8 = 13;
const TAG_FLOW_ACK: u8 = 14;
const TAG_FLOW_FIN: u8 = 15;
const TAG_FLOW_DONE: u8 = 16;
const TAG_DIGEST_QUERY: u8 = 17;
const TAG_DIGEST_STATE: u8 = 18;
const TAG_FLOW_PARKED: u8 = 19;

fn abort_reason_to_wire(r: AbortReason) -> u8 {
    match r {
        AbortReason::Deadline => 0,
        AbortReason::Requested => 1,
        AbortReason::Peer => 2,
        AbortReason::Restart => 3,
        AbortReason::Corrupt => 4,
    }
}

fn abort_reason_from_wire(b: u8) -> Option<AbortReason> {
    match b {
        0 => Some(AbortReason::Deadline),
        1 => Some(AbortReason::Requested),
        2 => Some(AbortReason::Peer),
        3 => Some(AbortReason::Restart),
        4 => Some(AbortReason::Corrupt),
        _ => None,
    }
}

impl CtrlMsg {
    /// Serializes to a control datagram.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Appends the wire form to `b` — what [`encode`](Self::encode) wraps,
    /// for senders that build stamp, body and trailer in one buffer.
    pub fn encode_into(&self, b: &mut BytesMut) {
        match self {
            CtrlMsg::SrAck {
                cumulative,
                window_start,
                sack_bits,
                sack_len,
                nacks,
            } => {
                assert!(*sack_len as usize <= MAX_SACK_BITS);
                assert!(nacks.len() <= MAX_NACKS);
                b.put_u8(TAG_SR_ACK);
                b.put_u32_le(*cumulative);
                b.put_u32_le(*window_start);
                b.put_u32_le(*sack_len);
                b.put_u16_le(sack_bits.len() as u16);
                b.put_u16_le(nacks.len() as u16);
                for w in sack_bits {
                    b.put_u64_le(*w);
                }
                for n in nacks {
                    b.put_u32_le(*n);
                }
            }
            CtrlMsg::EcAck => b.put_u8(TAG_EC_ACK),
            CtrlMsg::EcNack { failed } => {
                b.put_u8(TAG_EC_NACK);
                b.put_u16_le(failed.len() as u16);
                for f in failed {
                    b.put_u32_le(*f);
                }
            }
            CtrlMsg::GbnAck { cumulative } => {
                b.put_u8(TAG_GBN_ACK);
                b.put_u32_le(*cumulative);
            }
            CtrlMsg::Seg { epoch, inner } => {
                assert!(
                    !matches!(**inner, CtrlMsg::Seg { .. }),
                    "Seg envelopes do not nest"
                );
                b.put_u8(TAG_SEG);
                b.put_u32_le(*epoch);
                inner.encode_into(b);
            }
            CtrlMsg::SwitchPropose { seq, epoch, spec } => {
                b.put_u8(TAG_SWITCH_PROPOSE);
                b.put_u32_le(*seq);
                b.put_u32_le(*epoch);
                spec.encode_into(b);
            }
            CtrlMsg::SwitchAck { seq, epoch } => {
                b.put_u8(TAG_SWITCH_ACK);
                b.put_u32_le(*seq);
                b.put_u32_le(*epoch);
            }
            CtrlMsg::Telemetry { seen, lost } => {
                b.put_u8(TAG_TELEMETRY);
                b.put_u64_le(*seen);
                b.put_u64_le(*lost);
            }
            CtrlMsg::SegDone { below } => {
                b.put_u8(TAG_SEG_DONE);
                b.put_u32_le(*below);
            }
            CtrlMsg::Abort { reason } => {
                b.put_u8(TAG_ABORT);
                b.put_u8(abort_reason_to_wire(*reason));
            }
            CtrlMsg::ResumeQuery => b.put_u8(TAG_RESUME_QUERY),
            CtrlMsg::ResumeState { manifest, base } => {
                b.put_u8(TAG_RESUME_STATE);
                b.put_u64_le(*base);
                manifest.encode_into(b);
            }
            CtrlMsg::FlowOpen { bytes, spec } => {
                b.put_u8(TAG_FLOW_OPEN);
                b.put_u64_le(*bytes);
                spec.encode_into(b);
            }
            CtrlMsg::FlowAck {
                data_seq,
                parity_seq,
            } => {
                b.put_u8(TAG_FLOW_ACK);
                b.put_u64_le(*data_seq);
                b.put_u64_le(*parity_seq);
            }
            CtrlMsg::FlowFin => b.put_u8(TAG_FLOW_FIN),
            CtrlMsg::FlowDone { seen, lost } => {
                b.put_u8(TAG_FLOW_DONE);
                b.put_u64_le(*seen);
                b.put_u64_le(*lost);
            }
            CtrlMsg::FlowParked => b.put_u8(TAG_FLOW_PARKED),
            CtrlMsg::DigestQuery => b.put_u8(TAG_DIGEST_QUERY),
            CtrlMsg::DigestState { crc } => {
                b.put_u8(TAG_DIGEST_STATE);
                b.put_u32_le(*crc);
            }
        }
    }

    /// Parses a control datagram; `None` on malformed input (corrupt or
    /// truncated datagrams are simply dropped, like any unreliable packet).
    pub fn decode(mut buf: impl Buf) -> Option<CtrlMsg> {
        if buf.remaining() < 1 {
            return None;
        }
        match buf.get_u8() {
            TAG_SR_ACK => {
                if buf.remaining() < 4 + 4 + 4 + 2 + 2 {
                    return None;
                }
                let cumulative = buf.get_u32_le();
                let window_start = buf.get_u32_le();
                let sack_len = buf.get_u32_le();
                let n_words = buf.get_u16_le() as usize;
                let n_nacks = buf.get_u16_le() as usize;
                if buf.remaining() < n_words * 8 + n_nacks * 4 {
                    return None;
                }
                let sack_bits = (0..n_words).map(|_| buf.get_u64_le()).collect();
                let nacks = (0..n_nacks).map(|_| buf.get_u32_le()).collect();
                Some(CtrlMsg::SrAck {
                    cumulative,
                    window_start,
                    sack_bits,
                    sack_len,
                    nacks,
                })
            }
            TAG_EC_ACK => Some(CtrlMsg::EcAck),
            TAG_EC_NACK => {
                if buf.remaining() < 2 {
                    return None;
                }
                let n = buf.get_u16_le() as usize;
                if buf.remaining() < n * 4 {
                    return None;
                }
                Some(CtrlMsg::EcNack {
                    failed: (0..n).map(|_| buf.get_u32_le()).collect(),
                })
            }
            TAG_GBN_ACK => {
                if buf.remaining() < 4 {
                    return None;
                }
                Some(CtrlMsg::GbnAck {
                    cumulative: buf.get_u32_le(),
                })
            }
            TAG_SEG => {
                if buf.remaining() < 4 {
                    return None;
                }
                let epoch = buf.get_u32_le();
                let inner = CtrlMsg::decode(buf)?;
                // One level deep: a nested envelope is malformed.
                if matches!(inner, CtrlMsg::Seg { .. }) {
                    return None;
                }
                Some(CtrlMsg::Seg {
                    epoch,
                    inner: Box::new(inner),
                })
            }
            TAG_SWITCH_PROPOSE => {
                if buf.remaining() < 8 {
                    return None;
                }
                let seq = buf.get_u32_le();
                let epoch = buf.get_u32_le();
                let spec = SchemeSpec::decode_from(&mut buf)?;
                Some(CtrlMsg::SwitchPropose { seq, epoch, spec })
            }
            TAG_SWITCH_ACK => {
                if buf.remaining() < 8 {
                    return None;
                }
                let seq = buf.get_u32_le();
                let epoch = buf.get_u32_le();
                Some(CtrlMsg::SwitchAck { seq, epoch })
            }
            TAG_TELEMETRY => {
                if buf.remaining() < 16 {
                    return None;
                }
                let seen = buf.get_u64_le();
                let lost = buf.get_u64_le();
                Some(CtrlMsg::Telemetry { seen, lost })
            }
            TAG_SEG_DONE => {
                if buf.remaining() < 4 {
                    return None;
                }
                Some(CtrlMsg::SegDone {
                    below: buf.get_u32_le(),
                })
            }
            TAG_ABORT => {
                if buf.remaining() < 1 {
                    return None;
                }
                Some(CtrlMsg::Abort {
                    reason: abort_reason_from_wire(buf.get_u8())?,
                })
            }
            TAG_RESUME_QUERY => Some(CtrlMsg::ResumeQuery),
            TAG_RESUME_STATE => {
                if buf.remaining() < 8 {
                    return None;
                }
                let base = buf.get_u64_le();
                Some(CtrlMsg::ResumeState {
                    manifest: DeliveryManifest::decode_from(&mut buf)?,
                    base,
                })
            }
            TAG_FLOW_OPEN => {
                if buf.remaining() < 8 {
                    return None;
                }
                let bytes = buf.get_u64_le();
                let spec = SchemeSpec::decode_from(&mut buf)?;
                Some(CtrlMsg::FlowOpen { bytes, spec })
            }
            TAG_FLOW_ACK => {
                if buf.remaining() < 16 {
                    return None;
                }
                let data_seq = buf.get_u64_le();
                let parity_seq = buf.get_u64_le();
                Some(CtrlMsg::FlowAck {
                    data_seq,
                    parity_seq,
                })
            }
            TAG_FLOW_FIN => Some(CtrlMsg::FlowFin),
            TAG_FLOW_DONE => {
                if buf.remaining() < 16 {
                    return None;
                }
                let seen = buf.get_u64_le();
                let lost = buf.get_u64_le();
                Some(CtrlMsg::FlowDone { seen, lost })
            }
            TAG_FLOW_PARKED => Some(CtrlMsg::FlowParked),
            TAG_DIGEST_QUERY => Some(CtrlMsg::DigestQuery),
            TAG_DIGEST_STATE => {
                if buf.remaining() < 4 {
                    return None;
                }
                Some(CtrlMsg::DigestState {
                    crc: buf.get_u32_le(),
                })
            }
            _ => None,
        }
    }
}

/// Builds the SR ACK for the receiver's current chunk bitmap — a snapshot
/// of the *whole* bitmap, not of a window behind the cumulative point:
///
/// * `cumulative`: every chunk below it arrived;
/// * `nacks` (when `with_nacks`): the first [`MAX_NACKS`] holes below the
///   high-water mark (one past the highest chunk that arrived) — chunks the
///   wire's order says were lost, since something sent after them got here;
/// * `window_start`: where that description ends — the high-water mark when
///   every hole fit in `nacks`, else one past the last hole listed. Every
///   chunk in `[cumulative, window_start)` that is not listed arrived;
/// * the selective window carries the bitmap on from `window_start`, up to
///   the high-water mark or [`MAX_SACK_BITS`], whichever is nearer. A
///   window shorter than [`MAX_SACK_BITS`] therefore reaches the high-water
///   mark: nothing past its end had arrived when the snapshot was taken.
///
/// With a handful of holes the whole message state is a cumulative point
/// and a short list, however long the message; the window only carries
/// bits in plain RTO mode (no hole list, so `window_start` is the
/// cumulative point) and when more than [`MAX_NACKS`] holes are open.
pub fn build_sr_ack(
    chunks: &sdr_core::AtomicBitmap,
    total_chunks: usize,
    with_nacks: bool,
) -> CtrlMsg {
    let cumulative = chunks.cumulative_prefix(total_chunks);
    let high_water = chunks
        .highest_set()
        .map_or(0, |c| c + 1)
        .clamp(cumulative, total_chunks);

    // The bitmap's allocation-free missing-bit scan — one atomic load per
    // 64-chunk word instead of one per chunk — finds every hole below the
    // high-water mark: the first MAX_NACKS are listed, the rest are cleared
    // in an otherwise all-present window.
    let list_cap = if with_nacks { MAX_NACKS } else { 0 };
    let mut nacks = Vec::new();
    let mut window_start = high_water;
    let mut sack_bits = Vec::new();
    let mut window_len = 0;
    chunks.for_each_missing_in_first_n(high_water, |idx| {
        if nacks.len() < list_cap {
            nacks.push(idx as u32);
            return;
        }
        if sack_bits.is_empty() {
            // The first hole the list cannot take: the window opens behind
            // the last one it did — without a list, at this hole, which is
            // the cumulative point.
            window_start = nacks.last().map_or(idx, |&last| last as usize + 1);
            window_len = (high_water - window_start).min(MAX_SACK_BITS);
            sack_bits = vec![u64::MAX; window_len.div_ceil(64)];
            let rem = window_len % 64;
            if rem != 0 {
                *sack_bits.last_mut().expect("window_len > 0") &= (1u64 << rem) - 1;
            }
        }
        let i = idx - window_start;
        if i < window_len {
            sack_bits[i / 64] &= !(1 << (i % 64));
        }
    });
    CtrlMsg::SrAck {
        cumulative: cumulative as u32,
        window_start: window_start as u32,
        sack_bits,
        sack_len: window_len as u32,
        nacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::AtomicBitmap;

    #[test]
    fn sr_ack_roundtrip() {
        let msg = CtrlMsg::SrAck {
            cumulative: 17,
            window_start: 17,
            sack_bits: vec![0b1011, u64::MAX],
            sack_len: 100,
            nacks: vec![18, 21],
        };
        assert_eq!(CtrlMsg::decode(msg.encode()), Some(msg));
    }

    #[test]
    fn encode_into_appends_and_slices_decode() {
        // What the endpoint does: body appended behind a stamp in one
        // buffer, parsed straight from a byte slice on the other side.
        let msgs = [
            CtrlMsg::Seg {
                epoch: 3,
                inner: Box::new(CtrlMsg::SrAck {
                    cumulative: 17,
                    window_start: 17,
                    sack_bits: vec![0b1011, u64::MAX],
                    sack_len: 100,
                    nacks: vec![18, 21],
                }),
            },
            CtrlMsg::EcNack { failed: vec![0, 5] },
            CtrlMsg::FlowFin,
        ];
        for msg in msgs {
            let mut b = BytesMut::new();
            b.put_u32_le(0xFEED_F00D);
            msg.encode_into(&mut b);
            assert_eq!(&b[4..], &msg.encode()[..]);
            let mut wire: &[u8] = &b;
            assert_eq!(wire.get_u32_le(), 0xFEED_F00D);
            assert_eq!(CtrlMsg::decode(wire), Some(msg));
        }
    }

    #[test]
    fn ec_messages_roundtrip() {
        assert_eq!(
            CtrlMsg::decode(CtrlMsg::EcAck.encode()),
            Some(CtrlMsg::EcAck)
        );
        let nack = CtrlMsg::EcNack {
            failed: vec![0, 5, 63],
        };
        assert_eq!(CtrlMsg::decode(nack.encode()), Some(nack));
    }

    #[test]
    fn gbn_ack_roundtrip_and_truncation() {
        let ack = CtrlMsg::GbnAck { cumulative: 4097 };
        assert_eq!(CtrlMsg::decode(ack.encode()), Some(ack));
        let mut enc = CtrlMsg::GbnAck { cumulative: 7 }.encode().to_vec();
        enc.truncate(3);
        assert_eq!(CtrlMsg::decode(Bytes::from(enc)), None);
    }

    #[test]
    fn adaptive_messages_roundtrip() {
        let msgs = [
            CtrlMsg::Seg {
                epoch: 7,
                inner: Box::new(CtrlMsg::GbnAck { cumulative: 12 }),
            },
            CtrlMsg::Seg {
                epoch: 0,
                inner: Box::new(CtrlMsg::SrAck {
                    cumulative: 3,
                    window_start: 3,
                    sack_bits: vec![0b101],
                    sack_len: 5,
                    nacks: vec![4],
                }),
            },
            CtrlMsg::SwitchPropose {
                seq: 3,
                epoch: 9,
                spec: SchemeSpec::EcMds { k: 32, m: 8 },
            },
            CtrlMsg::SwitchPropose {
                seq: 0,
                epoch: 1,
                spec: SchemeSpec::SrNack,
            },
            CtrlMsg::SwitchAck { seq: 3, epoch: 9 },
            CtrlMsg::Telemetry {
                seen: u64::MAX / 3,
                lost: 42,
            },
            CtrlMsg::SegDone { below: 17 },
            CtrlMsg::Abort {
                reason: AbortReason::Deadline,
            },
            CtrlMsg::Abort {
                reason: AbortReason::Requested,
            },
            CtrlMsg::Abort {
                reason: AbortReason::Peer,
            },
            CtrlMsg::Abort {
                reason: AbortReason::Restart,
            },
            CtrlMsg::Abort {
                reason: AbortReason::Corrupt,
            },
            CtrlMsg::DigestQuery,
            CtrlMsg::DigestState { crc: 0xE306_9283 },
        ];
        for msg in msgs {
            assert_eq!(CtrlMsg::decode(msg.encode()), Some(msg));
        }
        // Truncated digest state is malformed.
        let enc = CtrlMsg::DigestState { crc: 7 }.encode();
        assert_eq!(CtrlMsg::decode(enc.slice(0..enc.len() - 1)), None);
    }

    #[test]
    fn flow_messages_roundtrip() {
        let msgs = [
            CtrlMsg::FlowOpen {
                bytes: 1 << 40,
                spec: SchemeSpec::SrNack,
            },
            CtrlMsg::FlowOpen {
                bytes: 65536,
                spec: SchemeSpec::EcMds { k: 16, m: 4 },
            },
            CtrlMsg::FlowAck {
                data_seq: 123_456,
                parity_seq: u64::MAX,
            },
            CtrlMsg::FlowAck {
                data_seq: 0,
                parity_seq: 1,
            },
            CtrlMsg::FlowFin,
            CtrlMsg::FlowDone {
                seen: 1 << 33,
                lost: 42,
            },
            CtrlMsg::FlowParked,
        ];
        for msg in msgs {
            assert_eq!(CtrlMsg::decode(msg.encode()), Some(msg));
        }
    }

    #[test]
    fn flow_open_truncation_rejected() {
        let mut enc = CtrlMsg::FlowOpen {
            bytes: 4096,
            spec: SchemeSpec::SrRto,
        }
        .encode()
        .to_vec();
        enc.truncate(enc.len() - 1);
        assert_eq!(CtrlMsg::decode(Bytes::from(enc)), None);
        let mut ack = CtrlMsg::FlowAck {
            data_seq: 9,
            parity_seq: 10,
        }
        .encode()
        .to_vec();
        ack.truncate(12);
        assert_eq!(CtrlMsg::decode(Bytes::from(ack)), None);
    }

    #[test]
    fn resume_messages_roundtrip() {
        assert_eq!(
            CtrlMsg::decode(CtrlMsg::ResumeQuery.encode()),
            Some(CtrlMsg::ResumeQuery)
        );
        let mut manifest = DeliveryManifest::new(40 << 20, 2 << 20);
        for i in 0..12 {
            manifest.mark_delivered(i);
        }
        let msg = CtrlMsg::ResumeState {
            manifest,
            base: 777,
        };
        assert_eq!(CtrlMsg::decode(msg.encode()), Some(msg));
        // A truncated manifest is malformed.
        let enc = CtrlMsg::ResumeState {
            manifest: DeliveryManifest::new(1 << 20, 1 << 18),
            base: 0,
        }
        .encode();
        let cut = enc.slice(0..enc.len() - 1);
        assert_eq!(CtrlMsg::decode(cut), None);
    }

    #[test]
    fn ctrl_stamp_roundtrip_and_truncation() {
        let s = CtrlStamp {
            xfer: 0xDEAD_BEEF_0102_0304,
            inc: 7,
            dst_inc: 3,
            seq: u32::MAX - 1,
        };
        let mut b = BytesMut::new();
        s.encode_into(&mut b);
        assert_eq!(b.len(), CTRL_STAMP_BYTES);
        let mut wire = b.freeze();
        assert_eq!(CtrlStamp::decode_from(&mut wire), Some(s));
        assert_eq!(wire.remaining(), 0, "stamp consumes exactly its bytes");
        let mut short = Bytes::from_static(&[0u8; CTRL_STAMP_BYTES - 1]);
        assert_eq!(CtrlStamp::decode_from(&mut short), None);
    }

    #[test]
    fn nested_seg_envelopes_are_malformed() {
        // Hand-build a Seg-in-Seg datagram; the decoder must reject it.
        let inner = CtrlMsg::Seg {
            epoch: 1,
            inner: Box::new(CtrlMsg::EcAck),
        }
        .encode();
        let mut b = BytesMut::new();
        b.put_u8(5); // TAG_SEG
        b.put_u32_le(2);
        b.extend_from_slice(&inner);
        assert_eq!(CtrlMsg::decode(b.freeze()), None);
        // A zero-parity EC spec is malformed too.
        let mut b = BytesMut::new();
        b.put_u8(6); // TAG_SWITCH_PROPOSE
        b.put_u32_le(1); // seq
        b.put_u32_le(0); // epoch
        b.put_u8(2); // EcMds
        b.put_u16_le(4);
        b.put_u16_le(0);
        assert_eq!(CtrlMsg::decode(b.freeze()), None);
    }

    #[test]
    fn malformed_datagrams_are_dropped() {
        assert_eq!(CtrlMsg::decode(Bytes::new()), None);
        assert_eq!(CtrlMsg::decode(Bytes::from_static(&[99])), None);
        // Abort with an unknown reason byte, and a truncated abort.
        assert_eq!(CtrlMsg::decode(Bytes::from_static(&[10, 7])), None);
        assert_eq!(CtrlMsg::decode(Bytes::from_static(&[10])), None);
        // Truncated SR ACK.
        let mut enc = CtrlMsg::SrAck {
            cumulative: 1,
            window_start: 1,
            sack_bits: vec![7],
            sack_len: 10,
            nacks: vec![],
        }
        .encode()
        .to_vec();
        enc.truncate(6);
        assert_eq!(CtrlMsg::decode(Bytes::from(enc)), None);
    }

    #[test]
    fn build_sr_ack_encodes_bitmap_state() {
        let bm = AtomicBitmap::new(40);
        for i in 0..36 {
            if i != 5 && i != 20 {
                bm.set(i);
            }
        }
        // Holes fit the list: the description runs to the high-water mark
        // (36) and there is nothing left for a window to say.
        assert_eq!(
            build_sr_ack(&bm, 40, true),
            CtrlMsg::SrAck {
                cumulative: 5,
                window_start: 36,
                sack_bits: vec![],
                sack_len: 0,
                nacks: vec![5, 20],
            }
        );
        // Plain RTO mode lists nothing: the window opens at the cumulative
        // point and carries the bitmap up to the high-water mark.
        let CtrlMsg::SrAck {
            cumulative,
            window_start,
            sack_bits,
            sack_len,
            nacks,
        } = build_sr_ack(&bm, 40, false)
        else {
            panic!()
        };
        assert_eq!((cumulative, window_start, sack_len), (5, 5, 31));
        assert!(nacks.is_empty());
        // Bit 0 of the window is chunk 5 (missing); bit 15 is chunk 20.
        assert_eq!(sack_bits, vec![((1u64 << 31) - 1) & !1 & !(1 << 15)]);
        // Nothing arrived yet: an empty description, not a list of holes.
        assert_eq!(
            build_sr_ack(&AtomicBitmap::new(40), 40, true),
            CtrlMsg::SrAck {
                cumulative: 0,
                window_start: 0,
                sack_bits: vec![],
                sack_len: 0,
                nacks: vec![],
            }
        );
    }

    #[test]
    fn build_sr_ack_falls_back_to_list_plus_window() {
        // Every other chunk of 3 000 missing: 1 500 holes. The list takes
        // the first MAX_NACKS, the window the next MAX_SACK_BITS chunks,
        // and the sender is told (sack_len at its cap) that the
        // description stops short of the high-water mark.
        let total = 3000;
        let bm = AtomicBitmap::new(total);
        for i in (1..total).step_by(2) {
            bm.set(i);
        }
        let CtrlMsg::SrAck {
            cumulative,
            window_start,
            sack_bits,
            sack_len,
            nacks,
        } = build_sr_ack(&bm, total, true)
        else {
            panic!()
        };
        assert_eq!(cumulative, 0);
        let listed: Vec<u32> = (0..MAX_NACKS as u32).map(|i| i * 2).collect();
        assert_eq!(nacks, listed);
        assert_eq!(window_start as usize, 2 * MAX_NACKS - 1);
        assert_eq!(sack_len as usize, MAX_SACK_BITS);
        // The window starts on a received chunk and alternates from there.
        assert!(sack_bits.iter().all(|w| *w == 0x5555_5555_5555_5555));
    }

    #[test]
    fn complete_bitmap_acks_everything() {
        let bm = AtomicBitmap::new(16);
        for i in 0..16 {
            bm.set(i);
        }
        let CtrlMsg::SrAck {
            cumulative,
            sack_len,
            nacks,
            ..
        } = build_sr_ack(&bm, 16, true)
        else {
            panic!()
        };
        assert_eq!(cumulative, 16);
        assert_eq!(sack_len, 0);
        assert!(nacks.is_empty());
    }
}
