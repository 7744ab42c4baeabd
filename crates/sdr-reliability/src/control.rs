//! Reliability-layer control path.
//!
//! The example protocols use the two-connection design of §4.1: the
//! data-path SDR QP for zero-copy transfer plus a low-overhead UD QP for
//! protocol acknowledgments. SDR deliberately leaves control-path wireup to
//! the application; this endpoint is that application-side piece.
//!
//! Every outgoing datagram is prefixed with a [`CtrlStamp`] — `(transfer,
//! incarnation, incarnation-echo, seq)` — and every incoming datagram is
//! filtered against per-`(peer, transfer)` replay state *before* it is
//! acted on: datagrams from a peer's stale incarnation (a pre-crash
//! life), datagrams echoing *this* endpoint's previous incarnation (sent
//! by the peer before it observed a local crash — the wire can hold
//! milliseconds of such backlog at the crash instant), and duplicate
//! copies of already-delivered datagrams are all dropped at the endpoint,
//! so the handlers above see each control message at most once per
//! incarnation pair. The handshakes they implement (CTS credits,
//! `SwitchPropose/Ack`, `SegDone`, `Abort`, `ResumeQuery/State`) are
//! therefore idempotent under arbitrary wire duplication and reordering
//! by construction. [`CtrlMsg::ResumeQuery`] is exempt from the echo
//! check: it is the read-only probe that re-teaches a sender the live
//! incarnation after a peer restart.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use sdr_sim::{
    Engine, Fabric, FlightRecorder, IntMap, NodeId, QpAddr, QpNum, QpType, RecvWqe, Registry, Waker,
};

use crate::ack::{CtrlMsg, CtrlStamp, Wire, CTRL_BUF_BYTES, CTRL_CRC_BYTES};

/// Receive-buffer count for control datagrams.
const CTRL_DEPTH: usize = 128;

/// How far behind the per-peer high-water sequence a reordered datagram
/// may arrive and still be admitted (the dedup window in datagrams).
/// Anything older is indistinguishable from a late duplicate and is
/// dropped — control traffic is periodic, so the information it carried
/// has long been superseded.
const REPLAY_WINDOW: u32 = 128;

/// Seals a stamped control frame with its CRC32C trailer (computed over
/// stamp + body, appended little-endian). [`ControlEndpoint::send`] calls
/// this on every outgoing datagram; it is public within the crate so
/// tests injecting hand-built wire frames produce valid ones.
pub(crate) fn seal_ctrl_frame(frame: &mut BytesMut) {
    let crc = sdr_erasure::crc32c(frame);
    frame.extend_from_slice(&crc.to_le_bytes());
}

/// Replay state for one `(peer, transfer)` stream.
#[derive(Clone, Copy, Debug)]
struct PeerFilter {
    /// Highest incarnation seen from the peer.
    inc: u32,
    /// Highest sequence seen within `inc`.
    high: u32,
    /// Bit `d` = sequence `high - d` already delivered (`d <
    /// REPLAY_WINDOW`).
    window: u128,
}

/// Verdict for one incoming stamped datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admit {
    /// Fresh: deliver to the handler.
    Accept,
    /// From a stale incarnation or older than the replay window.
    Stale,
    /// A copy of an already-delivered datagram.
    Duplicate,
}

impl PeerFilter {
    fn first(stamp: CtrlStamp) -> PeerFilter {
        PeerFilter {
            inc: stamp.inc,
            high: stamp.seq,
            window: 1,
        }
    }

    fn admit(&mut self, stamp: CtrlStamp) -> Admit {
        if stamp.inc < self.inc {
            return Admit::Stale;
        }
        if stamp.inc > self.inc {
            // The peer restarted: its new life starts a fresh sequence
            // space, and nothing from the old one is admissible again.
            *self = PeerFilter::first(stamp);
            return Admit::Accept;
        }
        if stamp.seq > self.high {
            let ahead = stamp.seq - self.high;
            self.window = if ahead >= REPLAY_WINDOW {
                1
            } else {
                self.window << ahead | 1
            };
            self.high = stamp.seq;
            return Admit::Accept;
        }
        let behind = self.high - stamp.seq;
        if behind >= REPLAY_WINDOW {
            return Admit::Stale;
        }
        if self.window >> behind & 1 == 1 {
            return Admit::Duplicate;
        }
        self.window |= 1 << behind;
        Admit::Accept
    }
}

/// What the endpoint has learned of one peer endpoint from the datagrams
/// it accepted.
#[derive(Clone, Copy, Debug)]
struct PeerState {
    /// The peer's incarnation — what outgoing stamps echo back.
    inc: u32,
    /// Highest sequence accepted from it within `inc`, on any stream (a
    /// peer numbers all its datagrams with one counter).
    high: u32,
    /// `high` as of the last [`ControlEndpoint::retire_stream`]: a
    /// datagram at or below it cannot open a stream (see there).
    retired: Option<u32>,
}

impl PeerState {
    fn first(stamp: CtrlStamp) -> PeerState {
        PeerState {
            inc: stamp.inc,
            high: stamp.seq,
            retired: None,
        }
    }
}

/// Wire-filter drop counters (diagnostics; also what the chaos suites
/// assert on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtrlFilterStats {
    /// Datagrams dropped as stale (old incarnation or past the replay
    /// window).
    pub stale: u64,
    /// Datagrams dropped as duplicates.
    pub duplicates: u64,
    /// Datagrams that failed to parse (truncated stamp or body).
    pub malformed: u64,
    /// Datagrams whose CRC32C trailer failed verification (wire
    /// corruption). Dropped before the replay filter — a frame that
    /// fails its checksum carries no trustworthy bits at all, not even
    /// the stamp.
    pub corrupt: u64,
}

/// Handler invoked per received control message: `(engine, src, message)`.
pub type CtrlHandler = Box<dyn FnMut(&mut Engine, QpAddr, CtrlMsg)>;

/// Stamp-`xfer` bit marking a datagram as flow-manager traffic. Transfer
/// ids with this bit set are demultiplexed to the endpoint's *flow*
/// handler, which receives the flow id (`xfer & !FLOW_XFER_BIT`) alongside
/// the message; everything else goes to the classic single-transfer
/// handler. Legacy transfer ids never collide — they are small
/// out-of-band-agreed integers, nowhere near bit 63.
pub const FLOW_XFER_BIT: u64 = 1 << 63;

/// Handler invoked per received *flow* control message:
/// `(engine, src, flow_id, message)`.
pub type FlowCtrlHandler = Box<dyn FnMut(&mut Engine, QpAddr, u64, CtrlMsg)>;

/// A path reliability schemes send their control messages down and receive
/// them from. [`ControlEndpoint`] is the direct implementation (messages go
/// on the wire as-is); the adaptive layer interposes an epoch gate that
/// wraps scheme traffic in [`CtrlMsg::Seg`] envelopes so a lingering ACK
/// from before a scheme handover cannot poison the successor scheme.
/// Schemes are written against this trait and never know which one they
/// ride.
pub trait CtrlPath {
    /// Sends a control message to `dst` (unreliably — it can drop).
    fn send_ctrl(&self, eng: &mut Engine, dst: QpAddr, msg: &CtrlMsg);

    /// Installs the receive handler for messages arriving on this path.
    fn install_handler(&self, f: CtrlHandler);
}

/// The receive half of an endpoint: what a frame is checked against before
/// a handler sees it. Shared with the completion waker.
struct RxFilter {
    /// This endpoint's incarnation (incoming stamps must echo it).
    inc: Cell<u32>,
    /// Per-peer state learned from accepted datagrams.
    peers: RefCell<IntMap<QpAddr, PeerState>>,
    /// Replay state per live `(peer, transfer)` stream.
    filters: RefCell<IntMap<(QpAddr, u64), PeerFilter>>,
    /// What the endpoint counts, sent and received alike.
    counts: CtrlCounts,
}

/// An endpoint's counts — the one store of these facts; the fabric's
/// registry reads their sum over its endpoints ([`facts`](Self::facts)):
/// `ctrl.sent`, the filter drops, and per `ctrl_msgs!` row
/// `ctrl.tx.<Name>` (sent) and `ctrl.rx.<Name>` (accepted by the filter;
/// a `Seg` counts under its inner message's name too).
#[derive(Default)]
struct CtrlCounts {
    sent: Cell<u64>,
    drops: Cell<CtrlFilterStats>,
    tx: [Cell<u64>; CtrlMsg::ROWS],
    rx: [Cell<u64>; CtrlMsg::ROWS],
}

impl CtrlCounts {
    /// Counts `msg` (and a `Seg`'s inner message) in `by_name`.
    fn count(by_name: &[Cell<u64>; CtrlMsg::ROWS], msg: &CtrlMsg) {
        let c = &by_name[msg.row()];
        c.set(c.get() + 1);
        if let CtrlMsg::Seg { inner, .. } = msg {
            Self::count(by_name, inner);
        }
    }

    /// Every count under its registry name.
    fn facts(&self) -> Vec<(&'static str, u64)> {
        let d = self.drops.get();
        let tx = CtrlMsg::TX_NAMES.into_iter().zip(&self.tx);
        let per_tag = tx.chain(CtrlMsg::RX_NAMES.into_iter().zip(&self.rx));
        let mut facts = vec![
            ("ctrl.sent", self.sent.get()),
            ("ctrl.stale", d.stale),
            ("ctrl.duplicates", d.duplicates),
            ("ctrl.malformed", d.malformed),
            ("ctrl.corrupt", d.corrupt),
        ];
        facts.extend(per_tag.map(|(name, c)| (name, c.get())));
        facts
    }
}

impl RxFilter {
    /// Counts one dropped frame in the field of the drop counters `class` picks.
    fn dropped(&self, class: fn(&mut CtrlFilterStats) -> &mut u64) -> Option<(CtrlStamp, CtrlMsg)> {
        let mut d = self.counts.drops.get();
        *class(&mut d) += 1;
        self.counts.drops.set(d);
        None
    }

    /// Runs one received frame — read in place, straight out of the
    /// receive buffer — through the CRC gate, the stamp filter, the
    /// decoder and the incarnation echo, in that order. `Some` is a
    /// message the handler must see.
    fn admit(&self, src: QpAddr, frame: &[u8]) -> Option<(CtrlStamp, CtrlMsg)> {
        // CRC32C trailer first: control rides the same corrupting wire as
        // data, and a frame that fails its checksum carries no trustworthy
        // bits at all — not even the stamp — so it dies before the replay
        // filter and never reaches a handler.
        let Some((mut body, crc)) = frame.split_last_chunk::<CTRL_CRC_BYTES>() else {
            return self.dropped(|d| &mut d.corrupt);
        };
        if sdr_erasure::crc32c(body) != u32::from_le_bytes(*crc) {
            return self.dropped(|d| &mut d.corrupt);
        }
        // Stamp filter next: stale-incarnation traffic and duplicates die
        // before the decoder even runs.
        let Some(stamp) = CtrlStamp::take(&mut body) else {
            return self.dropped(|d| &mut d.malformed);
        };
        let verdict = {
            use std::collections::hash_map::Entry;
            match self.filters.borrow_mut().entry((src, stamp.xfer)) {
                // No state for the stream: it is new, or it was retired.
                // Whatever a retired stream still has on the wire sits at
                // or below the peer's retirement watermark.
                Entry::Vacant(_)
                    if self.peers.borrow().get(&src).is_some_and(|p| {
                        p.inc == stamp.inc && p.retired.is_some_and(|w| stamp.seq <= w)
                    }) =>
                {
                    Admit::Stale
                }
                // First datagram of the stream primes the filter and is
                // delivered.
                Entry::Vacant(v) => {
                    v.insert(PeerFilter::first(stamp));
                    Admit::Accept
                }
                Entry::Occupied(mut o) => o.get_mut().admit(stamp),
            }
        };
        match verdict {
            Admit::Accept => {}
            Admit::Stale => return self.dropped(|d| &mut d.stale),
            Admit::Duplicate => return self.dropped(|d| &mut d.duplicates),
        }
        let Some(msg) = CtrlMsg::decode(body) else {
            return self.dropped(|d| &mut d.malformed);
        };
        // Incarnation echo: a datagram addressed to this endpoint's
        // previous life was sent before the peer observed the crash — only
        // the read-only resume probe may cross that boundary (it is how
        // the peer learns the live incarnation).
        if stamp.dst_inc != self.inc.get() && msg != CtrlMsg::ResumeQuery {
            return self.dropped(|d| &mut d.stale);
        }
        self.peers
            .borrow_mut()
            .entry(src)
            .and_modify(|p| {
                if p.inc == stamp.inc {
                    p.high = p.high.max(stamp.seq);
                } else {
                    *p = PeerState::first(stamp);
                }
            })
            .or_insert(PeerState::first(stamp));
        CtrlCounts::count(&self.counts.rx, &msg);
        Some((stamp, msg))
    }
}

/// A UD endpoint carrying stamped [`CtrlMsg`] datagrams for a reliability
/// protocol.
pub struct ControlEndpoint {
    /// The completion waker reaches the fabric through a `Weak` to this.
    fabric: Rc<Fabric>,
    node: NodeId,
    qp: QpNum,
    handler: Rc<RefCell<Option<CtrlHandler>>>,
    /// Demultiplexed handler for [`FLOW_XFER_BIT`]-stamped datagrams.
    flow_handler: Rc<RefCell<Option<FlowCtrlHandler>>>,
    /// First receive-buffer address (for re-posting after a restart).
    buf_base: u64,
    /// Where [`send`](Self::send) assembles stamp + body + trailer; the
    /// wire gets one exact-size copy.
    scratch: RefCell<BytesMut>,
    /// Stamp state for outgoing datagrams.
    xfer: Cell<u64>,
    next_seq: Cell<u32>,
    /// Incarnation, learned peer state, replay filters, counts.
    rx: Rc<RxFilter>,
    /// This node's flight recorder (shared with every layer on the node);
    /// exposed so the adaptive machinery above can record its decisions.
    recorder: FlightRecorder,
}

impl ControlEndpoint {
    /// Creates the endpoint on `node`, pre-posting its receive buffers and
    /// hooking a completion waker that stamp-filters and dispatches to the
    /// handler while the endpoint lives.
    pub fn new(fabric: &Fabric, node: NodeId) -> Self {
        let handler: Rc<RefCell<Option<CtrlHandler>>> = Rc::new(RefCell::new(None));
        let flow_handler: Rc<RefCell<Option<FlowCtrlHandler>>> = Rc::new(RefCell::new(None));
        let rx = Rc::new(RxFilter {
            inc: Cell::new(0),
            peers: RefCell::default(),
            filters: RefCell::default(),
            counts: CtrlCounts::default(),
        });
        fabric.metrics().source(&rx, |rx| rx.counts.facts());
        let (qp, cq, buf_base) = fabric.node_mut(node, |n| {
            let cq = n.create_cq();
            let qp = n.create_qp(QpType::Ud, cq, cq);
            let base = n.mem_mut().alloc(CTRL_DEPTH as u64 * CTRL_BUF_BYTES as u64);
            for i in 0..CTRL_DEPTH {
                let addr = base + i as u64 * CTRL_BUF_BYTES as u64;
                n.post_recv(
                    qp,
                    RecvWqe {
                        wr_id: addr,
                        addr,
                        len: CTRL_BUF_BYTES as u64,
                    },
                );
            }
            (qp, cq, base)
        });
        // The waker lives in the node, so it reaches the fabric through
        // the endpoint's handle, held weakly: a strong `Fabric` here would
        // close a fabric → node → waker → fabric cycle and leak every
        // node's memory.
        let own = Rc::new(fabric.clone());
        let weak = Rc::downgrade(&own);
        let h = handler.clone();
        let fh = flow_handler.clone();
        let filter = rx.clone();
        fabric.node_mut(node, |n| {
            n.set_cq_waker(
                cq,
                Waker::new(move |eng| {
                    let Some(fab) = weak.upgrade() else { return };
                    while let Some(cqe) = fab.node_mut(node, |n| n.poll_cq(cq)) {
                        if cqe.op != sdr_sim::CqeOp::RecvSend {
                            continue;
                        }
                        let addr = cqe.wr_id;
                        let src = cqe.src.expect("UD receive has a source");
                        // Parse the frame where it landed, then recycle
                        // the buffer; the handler runs on the decoded
                        // message with the fabric released.
                        let admitted = fab.node_mut(node, |n| {
                            let got = filter.admit(src, n.mem().read(addr, cqe.byte_len as usize));
                            n.post_recv(
                                qp,
                                RecvWqe {
                                    wr_id: addr,
                                    addr,
                                    len: CTRL_BUF_BYTES as u64,
                                },
                            );
                            got
                        });
                        let Some((stamp, msg)) = admitted else {
                            continue;
                        };
                        // Take the handler out while calling so the handler
                        // itself may send control messages re-entrantly.
                        // Flow-stamped datagrams go to the flow handler
                        // (which also learns which flow the stamp named);
                        // everything else to the classic handler.
                        if stamp.xfer & FLOW_XFER_BIT != 0 {
                            let taken = fh.borrow_mut().take();
                            if let Some(mut f) = taken {
                                f(eng, src, stamp.xfer & !FLOW_XFER_BIT, msg);
                                let mut slot = fh.borrow_mut();
                                if slot.is_none() {
                                    *slot = Some(f);
                                }
                            }
                        } else {
                            let taken = h.borrow_mut().take();
                            if let Some(mut f) = taken {
                                f(eng, src, msg);
                                let mut slot = h.borrow_mut();
                                if slot.is_none() {
                                    *slot = Some(f);
                                }
                            }
                        }
                    }
                }),
            );
        });
        ControlEndpoint {
            fabric: own,
            node,
            qp,
            handler,
            flow_handler,
            buf_base,
            scratch: RefCell::new(BytesMut::with_capacity(128)),
            xfer: Cell::new(0),
            next_seq: Cell::new(0),
            rx,
            recorder: fabric.recorder(node),
        }
    }

    /// This node's flight recorder — the shared ring every layer on the
    /// node records into (see [`sdr_sim::Fabric::recorder`]).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The stack-wide metrics registry (owned by the fabric) — where the
    /// layers above register their `ctrl.*`/`adapt.*`/`flow.*` families.
    pub fn metrics(&self) -> Registry {
        self.fabric.metrics().clone()
    }

    /// This endpoint's address (exchange out-of-band with the peer).
    pub fn addr(&self) -> QpAddr {
        QpAddr {
            node: self.node,
            qp: self.qp,
        }
    }

    /// Installs the receive handler.
    pub fn set_handler(&self, f: impl FnMut(&mut Engine, QpAddr, CtrlMsg) + 'static) {
        *self.handler.borrow_mut() = Some(Box::new(f));
    }

    /// Installs the flow receive handler: it gets every datagram whose
    /// stamp carries [`FLOW_XFER_BIT`], along with the flow id the stamp
    /// named. Coexists with the classic handler — a [`FlowManager`] and a
    /// single-transfer protocol can share one endpoint.
    ///
    /// [`FlowManager`]: crate::flow::FlowManager
    pub fn set_flow_handler(&self, f: impl FnMut(&mut Engine, QpAddr, u64, CtrlMsg) + 'static) {
        *self.flow_handler.borrow_mut() = Some(Box::new(f));
    }

    /// Sends `msg` stamped as flow `flow_id` traffic: this one datagram
    /// carries transfer id `FLOW_XFER_BIT | flow_id`, and the endpoint's
    /// own transfer id (see [`set_transfer`](Self::set_transfer)) is left
    /// as it was for the classic traffic sharing the endpoint.
    pub fn send_flow(&self, eng: &mut Engine, dst: QpAddr, flow_id: u64, msg: &CtrlMsg) {
        self.send_as(eng, dst, FLOW_XFER_BIT | flow_id, msg);
    }

    /// Sends a control message to `dst`, prefixed with this endpoint's
    /// current [`CtrlStamp`]. Control datagrams ride the same lossy links
    /// as data — they can drop, and the protocols must tolerate that.
    pub fn send(&self, eng: &mut Engine, dst: QpAddr, msg: &CtrlMsg) {
        self.send_as(eng, dst, self.xfer.get(), msg);
    }

    /// [`send`](Self::send) with the stamp naming transfer `xfer`.
    fn send_as(&self, eng: &mut Engine, dst: QpAddr, xfer: u64, msg: &CtrlMsg) {
        let counts = &self.rx.counts;
        counts.sent.set(counts.sent.get() + 1);
        CtrlCounts::count(&counts.tx, msg);
        let seq = self.next_seq.get();
        self.next_seq.set(seq.wrapping_add(1));
        let stamp = CtrlStamp {
            xfer,
            inc: self.rx.inc.get(),
            dst_inc: self.rx.peers.borrow().get(&dst).map_or(0, |p| p.inc),
            seq,
        };
        let frame = {
            let b = &mut *self.scratch.borrow_mut();
            b.clear();
            stamp.encode_into(b);
            msg.encode_into(b);
            seal_ctrl_frame(b);
            // A longer frame would land truncated and fail its CRC on
            // every copy.
            assert!(
                b.len() <= CTRL_BUF_BYTES,
                "{} B control frame exceeds the {CTRL_BUF_BYTES} B receive buffer",
                b.len()
            );
            Bytes::copy_from_slice(b)
        };
        // Drop errors deliberately: an unroutable ACK behaves like a lost one.
        let _ = self.fabric.post_ud_send(eng, self.addr(), dst, frame, None);
    }

    /// Control datagrams sent so far.
    pub fn sent_count(&self) -> u64 {
        self.rx.counts.sent.get()
    }

    /// Binds this endpoint's outgoing stamps to transfer `xfer`. Both ends
    /// of a transfer agree on the id out-of-band (like the QP wireup); a
    /// resumed transfer keeps its id so the peer's replay filter state
    /// carries across the resume.
    pub fn set_transfer(&self, xfer: u64) {
        self.xfer.set(xfer);
    }

    /// This endpoint's current incarnation.
    pub fn incarnation(&self) -> u32 {
        self.rx.inc.get()
    }

    /// Crash/restart transition: bumps the outgoing incarnation (the
    /// peer's filter retires the old life's entire in-flight window on the
    /// first new-incarnation datagram; the incarnation echo retires the
    /// peer's own in-flight traffic addressed to the old life), restarts
    /// the datagram sequence, and clears the local replay filters and
    /// learned peer incarnations — they were volatile state and did not
    /// survive the crash. Pair with [`reattach`](Self::reattach).
    pub fn bump_incarnation(&self) {
        self.rx.inc.set(self.rx.inc.get().wrapping_add(1));
        self.next_seq.set(0);
        self.rx.filters.borrow_mut().clear();
        self.rx.peers.borrow_mut().clear();
    }

    /// Forgets the replay state of the `(peer, xfer)` stream — its owner
    /// (a finished flow) will neither send nor expect anything on it
    /// again — so the table holds live streams only. What the stream may
    /// still have on the wire must not open it afresh: a retried
    /// `FlowOpen` carries a sequence no per-stream window ever saw and
    /// would re-admit the finished flow as a receive flow nobody feeds.
    /// Everything the peer sent for the stream before its owner finished
    /// is numbered at or below the highest sequence accepted from that
    /// peer so far, so that becomes the peer's watermark: at or below it
    /// a datagram is delivered only on a stream that is already open. A
    /// new stream's opener caught below the watermark (reordered behind
    /// the datagram that raised it) is dropped like a lost one and its
    /// retry, numbered afresh, passes.
    pub fn retire_stream(&self, peer: QpAddr, xfer: u64) {
        self.rx.filters.borrow_mut().remove(&(peer, xfer));
        if let Some(p) = self.rx.peers.borrow_mut().get_mut(&peer) {
            p.retired = Some(p.high);
        }
    }

    /// Streams the replay table currently holds state for.
    pub fn live_streams(&self) -> usize {
        self.rx.filters.borrow().len()
    }

    /// Re-posts the endpoint's receive ring after a NIC restart cleared
    /// the receive queue (`Node::reset_volatile`). The buffers live in
    /// registered memory, which survives the crash — only the postings
    /// were volatile. Call exactly once per restart, after the reset.
    pub fn reattach(&self) {
        self.fabric.node_mut(self.node, |n| {
            for i in 0..CTRL_DEPTH {
                let addr = self.buf_base + i as u64 * CTRL_BUF_BYTES as u64;
                n.post_recv(
                    self.qp,
                    RecvWqe {
                        wr_id: addr,
                        addr,
                        len: CTRL_BUF_BYTES as u64,
                    },
                );
            }
        });
    }

    /// Wire-filter drop counters (stale, duplicate, malformed).
    pub fn filter_stats(&self) -> CtrlFilterStats {
        self.rx.counts.drops.get()
    }
}

impl CtrlPath for ControlEndpoint {
    fn send_ctrl(&self, eng: &mut Engine, dst: QpAddr, msg: &CtrlMsg) {
        self.send(eng, dst, msg);
    }

    fn install_handler(&self, f: CtrlHandler) {
        *self.handler.borrow_mut() = Some(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_sim::LinkConfig;

    #[test]
    fn control_roundtrip_and_handler_dispatch() {
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);

        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ep_b.set_handler(move |_eng, src, msg| {
            g.borrow_mut().push((src, msg));
        });

        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::EcAck);
        ep_a.send(
            &mut eng,
            ep_b.addr(),
            &CtrlMsg::EcNack { failed: vec![3, 9] },
        );
        eng.run();

        let got = got.borrow();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, ep_a.addr());
        assert_eq!(got[0].1, CtrlMsg::EcAck);
        assert_eq!(got[1].1, CtrlMsg::EcNack { failed: vec![3, 9] });
        assert_eq!(ep_a.sent_count(), 2);
    }

    #[test]
    fn flow_traffic_demuxes_to_flow_handler() {
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);

        let plain = Rc::new(RefCell::new(Vec::new()));
        let flows = Rc::new(RefCell::new(Vec::new()));
        let (p, f) = (plain.clone(), flows.clone());
        ep_b.set_handler(move |_eng, _src, msg| p.borrow_mut().push(msg));
        ep_b.set_flow_handler(move |_eng, _src, id, msg| f.borrow_mut().push((id, msg)));

        // Interleave legacy and flow-stamped traffic on the same endpoint:
        // each stream reaches exactly its own handler.
        ep_a.set_transfer(7);
        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::EcAck);
        ep_a.send_flow(&mut eng, ep_b.addr(), 42, &CtrlMsg::FlowFin);
        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::SegDone { below: 1 });
        ep_a.send_flow(
            &mut eng,
            ep_b.addr(),
            1,
            &CtrlMsg::FlowAck {
                data_seq: 5,
                parity_seq: u64::MAX,
            },
        );
        eng.run();

        assert_eq!(
            *plain.borrow(),
            vec![CtrlMsg::EcAck, CtrlMsg::SegDone { below: 1 }]
        );
        assert_eq!(
            *flows.borrow(),
            vec![
                (42, CtrlMsg::FlowFin),
                (
                    1,
                    CtrlMsg::FlowAck {
                        data_seq: 5,
                        parity_seq: u64::MAX,
                    }
                ),
            ]
        );
    }

    #[test]
    fn handler_can_reply_reentrantly() {
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = Rc::new(ControlEndpoint::new(&fabric, a));
        let ep_b = Rc::new(ControlEndpoint::new(&fabric, b));

        // B echoes every EcNack back as EcAck.
        let ep_b2 = ep_b.clone();
        ep_b.set_handler(move |eng, src, _msg| {
            ep_b2.send(eng, src, &CtrlMsg::EcAck);
        });
        let acked = Rc::new(RefCell::new(0));
        let acked2 = acked.clone();
        ep_a.set_handler(move |_eng, _src, msg| {
            if msg == CtrlMsg::EcAck {
                *acked2.borrow_mut() += 1;
            }
        });
        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::EcNack { failed: vec![] });
        eng.run();
        assert_eq!(*acked.borrow(), 1);
    }

    #[test]
    fn peer_filter_admits_fresh_drops_stale_and_duplicates() {
        let s = |inc: u32, seq: u32| CtrlStamp {
            xfer: 9,
            inc,
            dst_inc: 0,
            seq,
        };
        let mut f = PeerFilter::first(s(1, 10));
        // Duplicate of the priming datagram.
        assert_eq!(f.admit(s(1, 10)), Admit::Duplicate);
        // Forward progress, then a reordered datagram inside the window.
        assert_eq!(f.admit(s(1, 12)), Admit::Accept);
        assert_eq!(f.admit(s(1, 11)), Admit::Accept);
        assert_eq!(f.admit(s(1, 11)), Admit::Duplicate);
        // Older than the replay window: stale.
        assert_eq!(f.admit(s(1, 200)), Admit::Accept);
        assert_eq!(f.admit(s(1, 200 - REPLAY_WINDOW)), Admit::Stale);
        assert_eq!(f.admit(s(1, 201 - REPLAY_WINDOW)), Admit::Accept);
        // A jump past the whole window resets it; the skipped range is
        // then too old to admit.
        assert_eq!(f.admit(s(1, 200 + 2 * REPLAY_WINDOW)), Admit::Accept);
        assert_eq!(f.admit(s(1, 205)), Admit::Stale);
        // Stale incarnation dies regardless of sequence.
        assert_eq!(f.admit(s(0, u32::MAX)), Admit::Stale);
        // A newer incarnation resets everything — even a sequence the old
        // life already used is fresh again.
        assert_eq!(f.admit(s(2, 11)), Admit::Accept);
        assert_eq!(f.admit(s(2, 11)), Admit::Duplicate);
        assert_eq!(f.admit(s(1, 12)), Admit::Stale);
    }

    #[test]
    fn endpoint_filters_wire_duplicates() {
        // A duplicating link delivers extra copies of many datagrams; the
        // receiving endpoint must hand each message to the handler exactly
        // once and count the copies as duplicate drops.
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link(
            a,
            b,
            LinkConfig::intra_dc(8e9)
                .with_seed(31)
                .with_duplication(0.5),
        );
        fabric.link(b, a, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);
        let got = Rc::new(RefCell::new(0u64));
        let g = got.clone();
        ep_b.set_handler(move |_eng, _src, _msg| *g.borrow_mut() += 1);
        const N: u64 = 200;
        for i in 0..N {
            ep_a.send(
                &mut eng,
                ep_b.addr(),
                &CtrlMsg::GbnAck {
                    cumulative: i as u32,
                },
            );
        }
        eng.run();
        assert_eq!(*got.borrow(), N, "each datagram delivered exactly once");
        let stats = ep_b.filter_stats();
        assert!(stats.duplicates > 20, "copies were filtered: {stats:?}");
        assert_eq!(stats.stale, 0);
        assert_eq!(stats.malformed, 0);
    }

    #[test]
    fn corrupted_datagrams_die_before_the_filter_and_handler() {
        // A corrupting wire flips bits in control frames; every flipped
        // frame must land in the `corrupt` class (the CRC trailer leaves
        // no trustworthy bits, not even the stamp) and intact frames
        // must keep flowing. No corrupted frame may reach a handler.
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link(
            a,
            b,
            // ~30 bytes/frame = 240 bits; at 2e-3/bit roughly 38% of
            // frames take at least one flip.
            LinkConfig::intra_dc(8e9)
                .with_seed(17)
                .with_corruption(2e-3),
        );
        fabric.link(b, a, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ep_b.set_handler(move |_eng, _src, msg| g.borrow_mut().push(msg));
        const N: u64 = 400;
        for i in 0..N {
            ep_a.send(
                &mut eng,
                ep_b.addr(),
                &CtrlMsg::GbnAck {
                    cumulative: i as u32,
                },
            );
        }
        eng.run();
        let stats = ep_b.filter_stats();
        assert!(
            stats.corrupt > 50,
            "flipped frames must be classified corrupt: {stats:?}"
        );
        assert_eq!(stats.malformed, 0, "corruption never reads as malformed");
        assert_eq!(
            got.borrow().len() as u64 + stats.corrupt,
            N,
            "every frame is either delivered intact or dropped corrupt"
        );
        // Delivered frames are bit-exact: the cumulative values form a
        // subsequence of what was sent.
        let mut expect = 0u32;
        for msg in got.borrow().iter() {
            let CtrlMsg::GbnAck { cumulative } = msg else {
                panic!("corrupted frame decoded as a different message");
            };
            assert!(*cumulative >= expect && *cumulative < N as u32);
            expect = *cumulative + 1;
        }
        assert_eq!(
            fabric.metrics().counter_value("ctrl.corrupt"),
            stats.corrupt,
            "the registry reads the endpoint's count"
        );
    }

    #[test]
    fn incarnation_bump_retires_the_old_life() {
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ep_b.set_handler(move |_eng, _src, msg| g.borrow_mut().push(msg));
        // Life 0 sends and delivers one datagram.
        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::GbnAck { cumulative: 1 });
        eng.run();
        // Restart: life 1 re-uses sequence 0 — the peer must accept it
        // (new incarnation), then drop a late datagram from life 0.
        ep_a.bump_incarnation();
        assert_eq!(ep_a.incarnation(), 1);
        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::GbnAck { cumulative: 2 });
        eng.run();
        assert_eq!(got.borrow().len(), 2, "new life's seq 0 is fresh");
        // Hand-build a stale life-0 datagram (stamp inc=0) and inject it.
        let mut wire = BytesMut::new();
        CtrlStamp {
            xfer: 0,
            inc: 0,
            dst_inc: 0,
            seq: 9,
        }
        .encode_into(&mut wire);
        wire.extend_from_slice(&CtrlMsg::GbnAck { cumulative: 3 }.encode());
        seal_ctrl_frame(&mut wire);
        let _ = fabric.post_ud_send(&mut eng, ep_a.addr(), ep_b.addr(), wire.freeze(), None);
        eng.run();
        assert_eq!(got.borrow().len(), 2, "stale-incarnation datagram dropped");
        assert_eq!(ep_b.filter_stats().stale, 1);
    }

    #[test]
    fn retired_streams_leave_the_table_and_cannot_be_reopened_from_the_past() {
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ep_b.set_handler(move |_eng, _src, msg| g.borrow_mut().push(msg));
        // Hand-stamped datagrams, as if they had been on the wire a while.
        let late = |eng: &mut Engine, xfer: u64, seq: u32, cumulative: u32| {
            let mut wire = BytesMut::new();
            CtrlStamp {
                xfer,
                inc: 0,
                dst_inc: 0,
                seq,
            }
            .encode_into(&mut wire);
            CtrlMsg::GbnAck { cumulative }.encode_into(&mut wire);
            seal_ctrl_frame(&mut wire);
            let _ = fabric.post_ud_send(eng, ep_a.addr(), ep_b.addr(), wire.freeze(), None);
            eng.run();
        };

        // Streams 5 and 6 interleave on A's one sequence counter: 0, 1, 3
        // on stream 5; 2 and 4 on stream 6 (4 is held back).
        for (xfer, cumulative) in [(5, 0), (5, 1), (6, 2), (5, 3)] {
            ep_a.set_transfer(xfer);
            ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::GbnAck { cumulative });
        }
        eng.run();
        assert_eq!((got.borrow().len(), ep_b.live_streams()), (4, 2));

        ep_b.retire_stream(ep_a.addr(), 5);
        assert_eq!(ep_b.live_streams(), 1);
        // A copy of stream 5's past cannot reopen it — whether the old
        // window had seen that sequence (1) or not (2 rode stream 6)...
        late(&mut eng, 5, 1, 91);
        late(&mut eng, 5, 2, 92);
        assert_eq!(ep_b.filter_stats().stale, 2);
        assert_eq!((got.borrow().len(), ep_b.live_streams()), (4, 1));
        // ...the live stream is judged by its own window alone...
        late(&mut eng, 6, 2, 93);
        assert_eq!(ep_b.filter_stats().duplicates, 1);
        // ...and anything numbered after the retirement opens a stream.
        late(&mut eng, 5, 4, 4);
        late(&mut eng, 7, 5, 5);
        assert_eq!((got.borrow().len(), ep_b.live_streams()), (6, 3));
        assert_eq!(ep_b.filter_stats().stale, 2);

        // A restarted peer numbers from zero again and is not held to the
        // old life's watermark.
        ep_b.retire_stream(ep_a.addr(), 7);
        ep_a.bump_incarnation();
        ep_a.set_transfer(8);
        ep_a.send(&mut eng, ep_b.addr(), &CtrlMsg::GbnAck { cumulative: 6 });
        eng.run();
        assert_eq!(got.borrow().len(), 7, "new life, sequence 0, new stream");
    }

    /// A manifest of [`MAX_MANIFEST_SEGMENTS`] segments is the longest
    /// body there is; its frame must arrive whole, and one segment more
    /// is not a message.
    ///
    /// [`MAX_MANIFEST_SEGMENTS`]: crate::ack::MAX_MANIFEST_SEGMENTS
    #[test]
    fn the_largest_resume_state_arrives() {
        use crate::ack::MAX_MANIFEST_SEGMENTS;
        use crate::runtime::DeliveryManifest;
        let mut eng = Engine::new();
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ep_b.set_handler(move |_eng, _src, msg| g.borrow_mut().push(msg));
        let segs = MAX_MANIFEST_SEGMENTS as u64;
        let mut manifest = DeliveryManifest::new(segs * 4096 - 1, 4096);
        for i in (0..segs as u32).step_by(3) {
            manifest.mark_delivered(i);
        }
        let msg = CtrlMsg::ResumeState {
            manifest,
            base: u64::MAX,
        };
        ep_a.send(&mut eng, ep_b.addr(), &msg);
        eng.run();
        assert_eq!(*got.borrow(), vec![msg]);
        assert_eq!(ep_b.filter_stats(), CtrlFilterStats::default());
        let over = CtrlMsg::ResumeState {
            manifest: DeliveryManifest::new((segs + 1) * 4096, 4096),
            base: 0,
        };
        assert_eq!(CtrlMsg::decode(over.encode()), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the 2048 B receive buffer")]
    fn a_frame_past_the_receive_buffer_is_refused_at_send() {
        let fabric = Fabric::new();
        let a = fabric.add_node(1 << 20);
        let b = fabric.add_node(1 << 20);
        fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let ep_a = ControlEndpoint::new(&fabric, a);
        let ep_b = ControlEndpoint::new(&fabric, b);
        let over = CtrlMsg::ResumeState {
            manifest: crate::runtime::DeliveryManifest::new(1 << 30, 1 << 14),
            base: 0,
        };
        ep_a.send(&mut Engine::new(), ep_b.addr(), &over);
    }

    mod mutation {
        use super::*;
        use crate::ack::{tests::corpus, CTRL_STAMP_BYTES};
        use proptest::prelude::*;

        /// Deterministic bit-position source for the flips.
        struct XorShift(u64);
        impl XorShift {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Codec mutation soak. A sealed control frame with up to five
            /// flipped bits (within CRC32C's guaranteed Hamming distance
            /// at these frame sizes) must die at the CRC gate — counted
            /// `corrupt`, never delivered, never `malformed` (a flipped
            /// frame carries no trustworthy bits, so it must not reach the
            /// decoder at all). The same mutant *re-sealed* (a valid
            /// trailer over garbage — what a buggy peer would produce)
            /// must never panic the parser: it is either dropped by the
            /// stamp/replay/echo filters, rejected by the decoder as
            /// `malformed`, or decodes to some well-formed message — and
            /// exactly one of those happens. A mutant body that decodes
            /// re-encodes to exactly itself. The frame is any corpus
            /// frame, so every tag of the table is mutated.
            #[test]
            fn flipped_frames_die_at_the_crc_gate_and_resealed_mutants_never_panic(
                sel in 0..corpus().len(),
                seed in 1u64..u64::MAX,
                nflips in 1usize..=5,
            ) {
                let mut eng = Engine::new();
                let fabric = Fabric::new();
                let a = fabric.add_node(1 << 20);
                let b = fabric.add_node(1 << 20);
                fabric.link_duplex(a, b, LinkConfig::intra_dc(8e9));
                let ep_a = ControlEndpoint::new(&fabric, a);
                let ep_b = ControlEndpoint::new(&fabric, b);
                let got = Rc::new(RefCell::new(0u64));
                let g = got.clone();
                ep_b.set_handler(move |_eng, _src, _msg| *g.borrow_mut() += 1);
                // A flip of the stamp's flow bit re-routes a resealed
                // mutant to the flow handler: delivered all the same.
                let g = got.clone();
                ep_b.set_flow_handler(move |_eng, _src, _flow, _msg| *g.borrow_mut() += 1);

                let mut frame = BytesMut::new();
                CtrlStamp { xfer: 0, inc: 0, dst_inc: 0, seq: 0 }.encode_into(&mut frame);
                frame.extend_from_slice(&corpus()[sel].1);
                seal_ctrl_frame(&mut frame);

                // Flip `nflips` distinct bits anywhere in the sealed frame
                // (stamp, body, or trailer — the gate must hold for all).
                let mut rng = XorShift(seed);
                let bits = frame.len() * 8;
                let mut flipped = frame.to_vec();
                let mut picked = Vec::new();
                while picked.len() < nflips {
                    let pos = (rng.next() % bits as u64) as usize;
                    if !picked.contains(&pos) {
                        picked.push(pos);
                        flipped[pos / 8] ^= 1 << (pos % 8);
                    }
                }
                let _ = fabric.post_ud_send(
                    &mut eng, ep_a.addr(), ep_b.addr(), Bytes::from(flipped.clone()), None,
                );
                eng.run();
                let st = ep_b.filter_stats();
                prop_assert_eq!(*got.borrow(), 0, "flipped frame reached a handler");
                prop_assert_eq!(st.corrupt, 1, "flipped frame not classed corrupt");
                prop_assert_eq!(st.malformed, 0, "flipped frame reached the decoder");

                // Re-seal the mutant: the CRC gate passes by construction,
                // and every later stage must cope without panicking.
                flipped.truncate(flipped.len() - CTRL_CRC_BYTES);
                let body = &flipped[CTRL_STAMP_BYTES..];
                if let Some(msg) = CtrlMsg::decode(body) {
                    prop_assert_eq!(&msg.encode()[..], body, "decode accepted a non-canonical body");
                }
                let mut resealed = BytesMut::new();
                resealed.extend_from_slice(&flipped);
                seal_ctrl_frame(&mut resealed);
                let _ = fabric.post_ud_send(
                    &mut eng, ep_a.addr(), ep_b.addr(), resealed.freeze(), None,
                );
                eng.run();
                let st = ep_b.filter_stats();
                prop_assert_eq!(st.corrupt, 1, "a valid trailer must pass the gate");
                prop_assert_eq!(
                    *got.borrow() + st.malformed + st.stale + st.duplicates,
                    1,
                    "resealed mutant neither delivered nor classified"
                );
            }
        }
    }
}
