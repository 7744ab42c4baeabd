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
//!
//! # One table
//!
//! Each message is one row of the `ctrl_msgs!` table below — `TAG => Name
//! { field: Type, ..; list: [Item; CAP], .. } if condition;` — and the
//! row is its whole wire format: the tag byte, the fields in row order, a
//! `u16` count per list, then each list's items. The row generates the
//! [`CtrlMsg`] variant, its encoder and an exact-length decoder; list caps
//! and the `if` condition are asserted on encode and checked on decode, so
//! decode accepts exactly what encode emits. Fields are read through
//! `Wire`, whose integer impl holds the codec's one bounds check.
//!
//! Adding a message is adding a row with an unused tag, plus its frame in
//! the test corpus (which fails until every tag has one); a field of a new
//! shape is one more `Wire` impl beside the table.

use bytes::{Buf, Bytes, BytesMut};

use crate::runtime::{AbortReason, DeliveryManifest};
pub use crate::scheme::SchemeSpec;

/// Maximum selective-ACK window carried per ACK (bits). Chosen so the whole
/// message fits comfortably in one control datagram.
pub const MAX_SACK_BITS: usize = 1024;
/// Maximum explicit NACK entries per ACK.
pub const MAX_NACKS: usize = 128;

/// Size of every control receive buffer, and so the largest frame (stamp,
/// body and CRC32C trailer) that arrives whole: the NIC truncates a longer
/// UD send, and the truncated frame fails its CRC on every copy.
pub(crate) const CTRL_BUF_BYTES: usize = 2048;
/// Size of the CRC32C trailer sealing every control frame.
pub(crate) const CTRL_CRC_BYTES: usize = 4;
/// What a message body may take of a receive buffer.
const CTRL_BODY_BYTES: usize = CTRL_BUF_BYTES - CTRL_STAMP_BYTES - CTRL_CRC_BYTES;
/// Most segments a [`CtrlMsg::ResumeState`] can describe: the manifest
/// bitmap words that fit behind its tag, base and geometry (249 words).
pub(crate) const MAX_MANIFEST_SEGMENTS: usize = (CTRL_BODY_BYTES - 1 - 8 - 16) / 8 * 64;
/// Most submessages one [`CtrlMsg::EcNack`] names (what fits its body).
pub(crate) const MAX_EC_NACKS: usize = (CTRL_BODY_BYTES - 1 - 2) / 4;

/// A value with a little-endian wire form.
pub(crate) trait Wire: Sized {
    /// Appends the wire form.
    fn put(&self, b: &mut BytesMut);
    /// Consumes one value; `None` if the bytes run out or form none.
    fn take<B: Buf>(buf: &mut B) -> Option<Self>;
}

macro_rules! wire_ints {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, b: &mut BytesMut) {
                b.extend_from_slice(&self.to_le_bytes());
            }

            fn take<B: Buf>(buf: &mut B) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                if buf.remaining() < N {
                    return None;
                }
                let v = <$t>::from_le_bytes(buf.chunk()[..N].try_into().ok()?);
                buf.advance(N);
                Some(v)
            }
        }
    )*};
}
wire_ints!(u8, u16, u32, u64);

impl<T: Wire> Wire for Box<T> {
    fn put(&self, b: &mut BytesMut) {
        (**self).put(b);
    }

    fn take<B: Buf>(buf: &mut B) -> Option<Self> {
        T::take(buf).map(Box::new)
    }
}

/// True when `words` is exactly a `len`-bit bitmap: `ceil(len / 64)`
/// words, and no bit set at or past `len`.
fn bits_fit(words: &[u64], len: usize) -> bool {
    let tail = len % 64;
    words.len() == len.div_ceil(64) && (tail == 0 || words[words.len() - 1] >> tail == 0)
}

/// The `(transfer, incarnation, seq)` stamp every control datagram carries
/// on the wire (20 bytes, prepended by the control endpoint before the
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
        self.put(b);
    }
}

impl Wire for CtrlStamp {
    fn put(&self, b: &mut BytesMut) {
        self.xfer.put(b);
        self.inc.put(b);
        self.dst_inc.put(b);
        self.seq.put(b);
    }

    fn take<B: Buf>(buf: &mut B) -> Option<Self> {
        Some(CtrlStamp {
            xfer: Wire::take(buf)?,
            inc: Wire::take(buf)?,
            dst_inc: Wire::take(buf)?,
            seq: Wire::take(buf)?,
        })
    }
}

/// A kind byte and a `(k, m)` split, zero for the ARQ kinds.
impl Wire for SchemeSpec {
    fn put(&self, b: &mut BytesMut) {
        let (kind, k, m) = match *self {
            SchemeSpec::SrRto => (0u8, 0u16, 0u16),
            SchemeSpec::SrNack => (1, 0, 0),
            SchemeSpec::EcMds { k, m } => (2, k, m),
            SchemeSpec::EcXor { k, m } => (3, k, m),
            SchemeSpec::Gbn => (4, 0, 0),
        };
        kind.put(b);
        k.put(b);
        m.put(b);
    }

    fn take<B: Buf>(buf: &mut B) -> Option<Self> {
        match (u8::take(buf)?, u16::take(buf)?, u16::take(buf)?) {
            (0, 0, 0) => Some(SchemeSpec::SrRto),
            (1, 0, 0) => Some(SchemeSpec::SrNack),
            (2, k @ 1.., m @ 1..) => Some(SchemeSpec::EcMds { k, m }),
            (3, k @ 1.., m @ 1..) => Some(SchemeSpec::EcXor { k, m }),
            (4, 0, 0) => Some(SchemeSpec::Gbn),
            _ => None,
        }
    }
}

/// One byte: the reason's position in the enum's declaration.
impl Wire for AbortReason {
    fn put(&self, b: &mut BytesMut) {
        (*self as u8).put(b);
    }

    fn take<B: Buf>(buf: &mut B) -> Option<Self> {
        use AbortReason::*;
        let all = [Deadline, Requested, Peer, Restart, Corrupt];
        all.get(usize::from(u8::take(buf)?)).copied()
    }
}

/// Message and segment size, then the delivered-segment bitmap. At most
/// [`MAX_MANIFEST_SEGMENTS`] segments, so a manifest always fits its
/// datagram.
impl Wire for DeliveryManifest {
    fn put(&self, b: &mut BytesMut) {
        self.msg_bytes.put(b);
        self.segment_bytes.put(b);
        self.done.iter().for_each(|w| w.put(b));
    }

    fn take<B: Buf>(buf: &mut B) -> Option<Self> {
        let (msg_bytes, segment_bytes) = (u64::take(buf)?, u64::take(buf)?);
        let n = (segment_bytes > 0).then(|| msg_bytes.div_ceil(segment_bytes))?;
        if !(1..=MAX_MANIFEST_SEGMENTS as u64).contains(&n) {
            return None;
        }
        let done: Vec<u64> = (0..(n as usize).div_ceil(64))
            .map(|_| u64::take(buf))
            .collect::<Option<_>>()?;
        bits_fit(&done, n as usize).then_some(DeliveryManifest {
            msg_bytes,
            segment_bytes,
            done,
        })
    }
}

/// Generates [`CtrlMsg`] and its codec from the table of rows (see the
/// module docs).
macro_rules! ctrl_msgs {
    ($(
        $(#[$doc:meta])*
        $tag:literal => $name:ident $({
            $($(#[$fdoc:meta])* $field:ident: $ty:ty),*
            $(; $($(#[$ldoc:meta])* $list:ident: [$item:ty; $cap:expr]),+)? $(,)?
        })? $(if $valid:expr)?;
    )*) => {
        /// A control-path message.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum CtrlMsg {$(
            $(#[$doc])*
            $name $({
                $($(#[$fdoc])* $field: $ty,)*
                $($($(#[$ldoc])* $list: Vec<$item>,)+)?
            })?,
        )*}

        /// The table's rows, in order: what [`CtrlMsg::row`] numbers.
        enum Row {$($name),*}

        impl CtrlMsg {
            /// Every message's tag, in table order.
            #[cfg(test)]
            pub(crate) const TAGS: &'static [u8] = &[$($tag),*];

            /// Messages in the table.
            pub(crate) const ROWS: usize = [$(Row::$name),*].len();

            /// `ctrl.tx.<Name>` per message, in table order.
            pub(crate) const TX_NAMES: [&'static str; Self::ROWS] =
                [$(concat!("ctrl.tx.", stringify!($name))),*];

            /// `ctrl.rx.<Name>` per message, in table order.
            pub(crate) const RX_NAMES: [&'static str; Self::ROWS] =
                [$(concat!("ctrl.rx.", stringify!($name))),*];

            /// The message's row in the table (its index in the name lists).
            pub(crate) fn row(&self) -> usize {
                match self {$(CtrlMsg::$name { .. } => Row::$name as usize,)*}
            }

            /// True when the wire can carry the message: every list within
            /// its cap and the row's condition met.
            #[allow(unused_variables)]
            fn valid(&self) -> bool {
                match self {$(
                    CtrlMsg::$name $({ $($field,)* $($($list,)+)? })? => {
                        true $($($(&& $list.len() <= $cap)+)?)? $(&& $valid)?
                    }
                )*}
            }
        }

        impl Wire for CtrlMsg {
            fn put(&self, b: &mut BytesMut) {
                assert!(self.valid(), "not encodable: {self:?}");
                match self {$(
                    CtrlMsg::$name $({ $($field,)* $($($list,)+)? })? => {
                        b.extend_from_slice(&[$tag]);
                        $(
                            $($field.put(b);)*
                            $(
                                $(($list.len() as u16).put(b);)+
                                $($list.iter().for_each(|x| x.put(b));)+
                            )?
                        )?
                    }
                )*}
            }

            fn take<B: Buf>(buf: &mut B) -> Option<Self> {
                let msg = match u8::take(buf)? {
                    $($tag => {
                        $(
                            $(let $field = <$ty as Wire>::take(buf)?;)*
                            $(
                                $(let $list = u16::take(buf)?;)+
                                $(let $list = (0..$list).map(|_| Wire::take(buf)).collect::<Option<_>>()?;)+
                            )?
                        )?
                        CtrlMsg::$name $({ $($field,)* $($($list,)+)? })?
                    })*
                    _ => return None,
                };
                msg.valid().then_some(msg)
            }
        }
    };
}

ctrl_msgs! {
    /// Selective Repeat acknowledgment.
    1 => SrAck {
        /// All chunks `< cumulative` have been received.
        cumulative: u32,
        /// First chunk index covered by `sack_bits`.
        window_start: u32,
        /// Number of valid bits in `sack_bits`.
        sack_len: u32;
        /// Selective window: bit `i` = chunk `window_start + i` received.
        sack_bits: [u64; MAX_SACK_BITS / 64],
        /// Explicit holes (NACK optimization; empty in plain RTO mode).
        nacks: [u32; MAX_NACKS],
    } if bits_fit(sack_bits, *sack_len as usize);
    /// EC receiver: all data submessages recovered — release the message.
    2 => EcAck;
    /// EC receiver: these data submessages are unrecoverable; selective
    /// repeat them (§4.1.2 fallback).
    3 => EcNack {
        ;
        /// Indices of failed data submessages.
        failed: [u32; MAX_EC_NACKS],
    };
    /// Go-Back-N acknowledgment: purely cumulative — the commodity-NIC
    /// baseline carries no selective state at all, which is exactly the
    /// information loss that makes GBN rewind whole windows.
    4 => GbnAck {
        /// All chunks `< cumulative` have been received in order.
        cumulative: u32,
    };
    /// Epoch envelope for adaptive transfers: scheme traffic of segment
    /// `epoch` rides inside it, so ACKs lingering from before a scheme
    /// handover are identifiable (and droppable) instead of poisoning the
    /// successor scheme's sender. One level deep — a nested `Seg` is
    /// malformed.
    5 => Seg {
        /// Segment index the inner message belongs to.
        epoch: u32,
        /// The scheme's own control message.
        inner: Box<CtrlMsg>,
    } if !matches!(**inner, CtrlMsg::Seg { .. });
    /// Adaptive handover, step 1 (sender → receiver): from segment `epoch`
    /// onward, run `spec`. Re-sent on the controller cadence until the
    /// matching [`SwitchAck`](CtrlMsg::SwitchAck) arrives (the healing path
    /// when either direction drops). `seq` identifies the handshake: a
    /// delayed duplicate ACK from an *earlier* committed handover must not
    /// satisfy a later proposal.
    6 => SwitchPropose {
        /// Handshake identifier (monotone per proposal).
        seq: u32,
        /// First segment the new scheme applies to.
        epoch: u32,
        /// The scheme to rebind to.
        spec: SchemeSpec,
    };
    /// Adaptive handover, step 2 (receiver → sender): commitment to run
    /// handshake `seq`'s scheme from segment `epoch` onward. The receiver
    /// may bump the epoch past segments it has already started under the
    /// old scheme.
    7 => SwitchAck {
        /// Handshake identifier being committed.
        seq: u32,
        /// First segment the new scheme applies to (receiver-final).
        epoch: u32,
    };
    /// Receiver → sender channel telemetry: cumulative first-pass packet
    /// counts from the receive bitmaps. Cumulative, so datagram loss only
    /// delays the estimate (the next report re-covers the gap); the sender
    /// feeds deltas into its [`ChannelEstimator`].
    ///
    /// [`ChannelEstimator`]: crate::telemetry::ChannelEstimator
    8 => Telemetry {
        /// Packets that should have arrived so far (first-pass high-water).
        seen: u64,
        /// Packets missing on their first pass so far.
        lost: u64,
    };
    /// Sender → receiver completion watermark: every segment below `below`
    /// has been fully acknowledged on the sender. The receiver may quiesce
    /// those segments' lingering drivers (releasing their slots exactly
    /// once) — the *only* safe trigger, since pipelined later-segment data
    /// proves nothing about earlier final ACKs. Cumulative and re-sent on
    /// the controller cadence, so datagram loss only delays the release;
    /// the per-driver linger countdown remains the backstop.
    9 => SegDone {
        /// All segments `< below` are complete at the sender.
        below: u32,
    };
    /// Either end → peer: this transfer is being torn down before
    /// completion (deadline expiry or an explicit abort). Best-effort — the
    /// datagram rides the same unreliable control path as everything else
    /// and may be lost, which is exactly why both ends also arm their
    /// *local* deadline timers instead of waiting to be told. Carries the
    /// originator's reason so both ends report the same cause.
    10 => Abort {
        /// Why the originator tore the transfer down.
        reason: AbortReason,
    };
    /// Resuming sender → receiver: what does the delivery manifest say?
    /// Paced at the nominal RTT until the matching
    /// [`ResumeState`](CtrlMsg::ResumeState) arrives (either direction may
    /// drop); duplicates are harmless — the receiver always answers with
    /// its resume-start snapshot.
    11 => ResumeQuery;
    /// Receiver → resuming sender: the per-segment delivery checkpoint.
    /// Both ends rebuild the identical retransmission plan (the manifest's
    /// undelivered segments, in offset order) from this one message.
    12 => ResumeState {
        /// The receive sequence number the resumed plan's first post got.
        /// CTS matching is order-based, and the crash desynchronized the
        /// two counters (a receiver posts ahead of the sender's opens) —
        /// the resuming sender fast-forwards its send sequence to this
        /// base so the k-th stream of the plan meets the k-th posted
        /// buffer.
        base: u64,
        /// The receiver's checkpoint, snapshot at resume start so repeated
        /// queries get byte-identical answers.
        manifest: DeliveryManifest,
    };
    /// Flow sender → receiver: open flow `xfer & !FLOW_XFER_BIT` (the flow
    /// id rides in the control stamp, not the payload). Re-sent on the
    /// sender's open-retry cadence until *an answer* arrives — the
    /// [`FlowAck`](CtrlMsg::FlowAck) of an admission or the
    /// [`FlowParked`](CtrlMsg::FlowParked) of a queued open; after the
    /// latter only as a slow liveness probe. Duplicates are harmless: the
    /// receiver answers every copy with whichever of the two is true.
    13 => FlowOpen {
        /// Message length in bytes.
        bytes: u64,
        /// Reliability scheme this flow runs under (fixed for the flow's
        /// lifetime — per-flow adaptation is the estimator registry picking
        /// a better scheme for the *next* flow, not mid-flow switching).
        spec: SchemeSpec,
    };
    /// Flow receiver → sender: admission snapshot. Carries the
    /// receiver-assigned receive sequence numbers so the sender can order
    /// its stream opens correctly no matter how admissions from concurrent
    /// flows interleaved on the receiver. Only the receiver knows when a
    /// parked open is admitted, so it heals this message itself: re-sent
    /// (with the CTS) on a doubling interval until the flow's first packet
    /// lands.
    14 => FlowAck {
        /// Receive sequence the data message was posted under.
        data_seq: u64,
        /// Receive sequence of the parity message (`u64::MAX` when the
        /// flow's scheme carries no parity).
        parity_seq: u64,
    };
    /// Flow sender → receiver: the flow is fully acknowledged at the
    /// sender; the receiver may cut its ACK linger short. Best-effort and
    /// sent once — loss merely means the receiver lingers its full
    /// countdown.
    15 => FlowFin;
    /// Flow receiver → sender: the flow resolved (data fully present or
    /// decoded). Doubles as the final acknowledgment *and* the receiver's
    /// closing telemetry: the cumulative first-pass counters ride along so
    /// the sender's per-peer estimator absorbs the full channel
    /// observation even though per-poll [`Telemetry`](CtrlMsg::Telemetry)
    /// stops at resolution. Linger-repeated until
    /// [`FlowFin`](CtrlMsg::FlowFin) (or the countdown) retires the flow.
    16 => FlowDone {
        /// Cumulative first-pass packets scanned (arrived + gaps).
        seen: u64,
        /// Cumulative first-pass gaps.
        lost: u64,
    };
    /// Receiver → sender: every segment's data has landed — what is the
    /// whole-message CRC32C? Paced on the receiver's tick cadence until
    /// the matching [`DigestState`](CtrlMsg::DigestState) arrives (either
    /// direction may drop); duplicates are harmless — the sender always
    /// answers from its cached digest.
    17 => DigestQuery;
    /// Sender → receiver: the CRC32C over the entire posted message. The
    /// receiver compares it against the bytes that actually landed:
    /// equality is the end-to-end delivery proof; a mismatch means wire
    /// corruption survived the packet-level checks (a corrupted duplicate
    /// overwrote an already-recorded packet after its bit was set) and
    /// the transfer aborts as [`AbortReason::Corrupt`] instead of
    /// delivering silently wrong bytes.
    18 => DigestState {
        /// CRC32C over the sender's whole message.
        crc: u32,
    };
    /// Flow receiver → sender: the open is queued for admission (no receive
    /// slot is free) — stop re-asking, the next move is the receiver's.
    /// Sent when an open is parked and in answer to every duplicate of a
    /// parked open, so its loss costs one more
    /// [`FlowOpen`](CtrlMsg::FlowOpen) retry. Queueing is not failure: a
    /// sender that holds one no longer counts its waiting toward giving up.
    19 => FlowParked;
}

impl CtrlMsg {
    /// Serializes to a control datagram.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        self.put(&mut b);
        b.freeze()
    }

    /// Appends the wire form to `b` — what [`encode`](Self::encode) wraps,
    /// for senders that build stamp, body and trailer in one buffer.
    pub fn encode_into(&self, b: &mut BytesMut) {
        self.put(b);
    }

    /// Parses a control datagram; `None` on malformed input — truncated,
    /// over-long, or anything [`encode`](Self::encode) would not emit
    /// (corrupt datagrams are simply dropped, like any unreliable packet).
    pub fn decode(mut buf: impl Buf) -> Option<CtrlMsg> {
        let msg = CtrlMsg::take(&mut buf)?;
        (buf.remaining() == 0).then_some(msg)
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
pub(crate) mod tests {
    use super::*;
    use bytes::BufMut;
    use sdr_core::AtomicBitmap;

    /// One frame per wire shape, as the bytes the codec emitted before the
    /// message table existed: every tag, empty and full lists, each scheme
    /// kind and abort reason, a manifest with a partial last word, a `Seg`
    /// around an SR ACK. Decoding must give the message and re-encoding
    /// must give every byte back.
    #[rustfmt::skip]
    pub(crate) fn corpus() -> Vec<(CtrlMsg, Vec<u8>)> {
        use AbortReason::*;
        use CtrlMsg::*;
        use SchemeSpec::*;
        let sr = |cumulative, window_start, sack_bits, sack_len, nacks| SrAck {
            cumulative,
            window_start,
            sack_bits,
            sack_len,
            nacks,
        };
        let propose = |spec| SwitchPropose { seq: 3, epoch: 9, spec };
        let resume = |bytes, segment, delivered: &[u32], base| {
            let mut manifest = DeliveryManifest::new(bytes, segment);
            delivered.iter().for_each(|&i| _ = manifest.mark_delivered(i));
            ResumeState { manifest, base }
        };
        let full_window = (0..16).map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(4 * i)).collect();
        let full_nacks = (0..MAX_NACKS as u32).map(|i| 5 + 3 * i).collect();
        [
            (sr(0, 0, vec![], 0, vec![]), "0100000000000000000000000000000000"),
            (sr(17, 36, vec![0xDEAD_BEEF_0000_1011, 0xF_F0F0_F0F0], 100, vec![18, 21]), concat!(
                "011100000024000000640000000200020011100000",
                "efbeaddef0f0f0f00f0000001200000015000000",
            )),
            (sr(5, 389, full_window, MAX_SACK_BITS as u32, full_nacks), concat!(
                "0105000000850100000004000010008000efcdab8967452301f0debc9a7856341201efcdab896745",
                "2312f0debc9a7856342301efcdab8967453412f0debc9a7856452301efcdab8967563412f0debc9a",
                "7867452301efcdab8978563412f0debc9a8967452301efcdab9a78563412f0debcab8967452301ef",
                "cdbc9a78563412f0decdab8967452301efdebc9a78563412f005000000080000000b0000000e0000",
                "001100000014000000170000001a0000001d000000200000002300000026000000290000002c0000",
                "002f0000003200000035000000380000003b0000003e0000004100000044000000470000004a0000",
                "004d000000500000005300000056000000590000005c0000005f0000006200000065000000680000",
                "006b0000006e0000007100000074000000770000007a0000007d0000008000000083000000860000",
                "00890000008c0000008f0000009200000095000000980000009b0000009e000000a1000000a40000",
                "00a7000000aa000000ad000000b0000000b3000000b6000000b9000000bc000000bf000000c20000",
                "00c5000000c8000000cb000000ce000000d1000000d4000000d7000000da000000dd000000e00000",
                "00e3000000e6000000e9000000ec000000ef000000f2000000f5000000f8000000fb000000fe0000",
                "000101000004010000070100000a0100000d010000100100001301000016010000190100001c0100",
                "001f0100002201000025010000280100002b0100002e0100003101000034010000370100003a0100",
                "003d010000400100004301000046010000490100004c0100004f0100005201000055010000580100",
                "005b0100005e0100006101000064010000670100006a0100006d0100007001000073010000760100",
                "00790100007c0100007f01000082010000",
            )),
            (EcAck, "02"),
            (EcNack { failed: vec![] }, "030000"),
            (EcNack { failed: vec![0, 63, u32::MAX] }, "030300000000003f000000ffffffff"),
            (GbnAck { cumulative: 4097 }, "0401100000"),
            (
                Seg { epoch: 3, inner: Box::new(sr(17, 17, vec![0b1011], 4, vec![18])) },
                "050300000001110000001100000004000000010001000b0000000000000012000000",
            ),
            (propose(SrRto), "0603000000090000000000000000"),
            (propose(EcMds { k: 32, m: 8 }), "0603000000090000000220000800"),
            (propose(Gbn), "0603000000090000000400000000"),
            (SwitchAck { seq: 3, epoch: 9 }, "070300000009000000"),
            (Telemetry { seen: 1 << 60, lost: 42 }, "0800000000000000102a00000000000000"),
            (SegDone { below: 17 }, "0911000000"),
            (Abort { reason: Deadline }, "0a00"),
            (Abort { reason: Requested }, "0a01"),
            (Abort { reason: Peer }, "0a02"),
            (Abort { reason: Restart }, "0a03"),
            (Abort { reason: Corrupt }, "0a04"),
            (ResumeQuery, "0b"),
            (resume(409_000, 4096, &[0, 1, 63, 64, 99], 777), concat!(
                "0c0903000000000000a83d06000000000000100000",
                "0000000003000000000000800100000008000000",
            )),
            (FlowOpen { bytes: 1 << 40, spec: SrNack }, "0d00000000000100000100000000"),
            (FlowOpen { bytes: 65536, spec: EcXor { k: 4, m: 1 } }, "0d00000100000000000304000100"),
            (FlowAck { data_seq: 9, parity_seq: u64::MAX }, "0e0900000000000000ffffffffffffffff"),
            (FlowFin, "0f"),
            (FlowDone { seen: 1 << 33, lost: 42 }, "1000000000020000002a00000000000000"),
            (DigestQuery, "11"),
            (DigestState { crc: 0xE306_9283 }, "12839206e3"),
            (FlowParked, "13"),
        ]
        .into_iter()
        .map(|(msg, hex): (CtrlMsg, &str)| {
            let frame = (0..hex.len()).step_by(2);
            (msg, frame.map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect())
        })
        .collect()
    }

    #[test]
    fn corpus_frames_decode_and_reencode_byte_for_byte() {
        for (msg, frame) in corpus() {
            assert_eq!(CtrlMsg::decode(&frame[..]).as_ref(), Some(&msg));
            assert_eq!(&msg.encode()[..], &frame[..], "{msg:?}");
        }
    }

    #[test]
    fn every_cut_extension_and_foreign_tag_of_a_corpus_frame_is_malformed() {
        let corpus = corpus();
        let mut covered: Vec<u8> = corpus.iter().map(|(_, frame)| frame[0]).collect();
        covered.dedup();
        assert_eq!(
            covered,
            CtrlMsg::TAGS,
            "every row has a corpus frame, in tag order"
        );
        for (msg, frame) in &corpus {
            for cut in 0..frame.len() {
                assert_eq!(CtrlMsg::decode(&frame[..cut]), None, "{msg:?} cut at {cut}");
            }
            let long = [&frame[..], &[0]].concat();
            assert_eq!(CtrlMsg::decode(&long[..]), None, "{msg:?} + 1 byte");
            let mut foreign = frame.clone();
            for tag in (0..=u8::MAX).filter(|t| !CtrlMsg::TAGS.contains(t)) {
                foreign[0] = tag;
                assert_eq!(CtrlMsg::decode(&foreign[..]), None, "{msg:?} as tag {tag}");
            }
        }
    }

    #[test]
    fn sr_ack_roundtrip() {
        let msg = CtrlMsg::SrAck {
            cumulative: 17,
            window_start: 17,
            sack_bits: vec![0b1011, 0xF_FFFF_FFFF],
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
                    sack_bits: vec![0b1011, 0xF_FFFF_FFFF],
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
    fn gbn_ack_roundtrip() {
        let ack = CtrlMsg::GbnAck { cumulative: 4097 };
        assert_eq!(CtrlMsg::decode(ack.encode()), Some(ack));
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
        assert_eq!(CtrlStamp::take(&mut wire), Some(s));
        assert_eq!(wire.remaining(), 0, "stamp consumes exactly its bytes");
        let mut short = Bytes::from_static(&[0u8; CTRL_STAMP_BYTES - 1]);
        assert_eq!(CtrlStamp::take(&mut short), None);
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
        b.put_u8(5); // Seg
        b.put_u32_le(2);
        b.extend_from_slice(&inner);
        assert_eq!(CtrlMsg::decode(b.freeze()), None);
        // A zero-parity EC spec is malformed too.
        let mut b = BytesMut::new();
        b.put_u8(6); // SwitchPropose
        b.put_u32_le(1); // seq
        b.put_u32_le(0); // epoch
        b.put_u8(2); // EcMds
        b.put_u16_le(4);
        b.put_u16_le(0);
        assert_eq!(CtrlMsg::decode(b.freeze()), None);
    }

    /// Frames of the right length that the encoder cannot produce.
    #[test]
    fn malformed_datagrams_are_dropped() {
        // Abort with an unknown reason byte.
        assert_eq!(CtrlMsg::decode(&[10u8, 5][..]), None);
        let sr_ack = |sack_len: u32, words: &[u64], nacks: u16| {
            let mut b = BytesMut::new();
            b.put_u8(1); // SrAck
            b.put_u64_le(0); // cumulative, window_start
            b.put_u32_le(sack_len);
            b.put_u16_le(words.len() as u16);
            b.put_u16_le(nacks);
            words.iter().for_each(|w| b.put_u64_le(*w));
            (0..nacks).for_each(|n| b.put_u32_le(n.into()));
            CtrlMsg::decode(b.freeze())
        };
        assert!(sr_ack(64, &[u64::MAX], MAX_NACKS as u16).is_some());
        // A window past MAX_SACK_BITS; word counts that are not
        // ceil(sack_len / 64); a bit past sack_len; one NACK too many.
        assert_eq!(sr_ack(MAX_SACK_BITS as u32 + 64, &[0; 17], 0), None);
        assert_eq!(sr_ack(65, &[0], 0), None);
        assert_eq!(sr_ack(64, &[0, 0], 0), None);
        assert_eq!(sr_ack(63, &[1 << 63], 0), None);
        assert_eq!(sr_ack(0, &[], MAX_NACKS as u16 + 1), None);
        // An ARQ spec with a split would re-encode without it.
        // (A FlowOpen: tag 13, a `bytes` of 0x0d0d.., kind, k, m.)
        let flow_open = |spec: [u8; 5]| CtrlMsg::decode(&[&[13; 9][..], &spec].concat()[..]);
        assert!(flow_open([1, 0, 0, 0, 0]).is_some());
        assert_eq!(flow_open([1, 4, 0, 0, 0]), None);
        assert_eq!(flow_open([0, 0, 0, 1, 0]), None);
        assert_eq!(flow_open([4, 32, 0, 8, 0]), None);
        // An EcNack past its cap.
        let ec_nack = |n: u16| {
            let mut b = BytesMut::new();
            b.put_u8(3); // EcNack
            b.put_u16_le(n);
            (0..n).for_each(|i| b.put_u32_le(i.into()));
            CtrlMsg::decode(b.freeze())
        };
        assert!(ec_nack(MAX_EC_NACKS as u16).is_some());
        assert_eq!(ec_nack(MAX_EC_NACKS as u16 + 1), None);
    }

    #[test]
    #[should_panic(expected = "not encodable")]
    fn encode_refuses_a_list_past_its_cap() {
        // 65 536 entries once wrapped the u16 count to zero.
        CtrlMsg::EcNack {
            failed: vec![0; 1 << 16],
        }
        .encode();
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
