//! NIC and endpoint-node model: queue pairs, completion queues, and the
//! receive-side packet engine.
//!
//! The model covers exactly the transport features SDR builds on
//! (paper §2.3, §3.2):
//!
//! * **UC queue pairs** — unreliable connected Writes. Multi-packet messages
//!   use the expected-PSN (ePSN) rule: a PSN mismatch mid-message poisons the
//!   whole message (no completion). Single-packet (`Only`) messages reset the
//!   message boundary and are therefore immune to reordering — which is why
//!   SDR issues one Write-with-immediate per packet.
//! * **UD queue pairs** — per-packet two-sided datagrams consuming posted
//!   receive WQEs (used by reliability layers for ACK/CTS control traffic).

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use sdr_trace::{Counter, Registry};

use crate::engine::Engine;
use crate::memory::{Memory, MkeyTable, Resolved};
use crate::packet::{CqId, MkeyId, NodeId, Packet, PacketKind, QpAddr, QpNum, WriteSeg};

/// Transport service type of a queue pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpType {
    /// Unreliable Connected: one-sided Writes, no acks, ePSN semantics.
    Uc,
    /// Unreliable Datagram: two-sided per-packet sends.
    Ud,
}

/// A posted receive buffer (consumed by UD sends).
#[derive(Clone, Copy, Debug)]
pub struct RecvWqe {
    /// User cookie returned in the completion.
    pub wr_id: u64,
    /// Destination address in node memory.
    pub addr: u64,
    /// Buffer capacity in bytes.
    pub len: u64,
}

/// Completion opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeOp {
    /// An RDMA Write with immediate landed (one-sided receive completion).
    RecvWriteImm,
    /// A two-sided send landed into a posted receive buffer.
    RecvSend,
    /// A locally posted send/write finished serializing.
    SendComplete,
}

/// What the NIC's pre-DMA payload verification found (single-packet
/// Writes carrying a checksum; nothing else is verified).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadCheck {
    /// The NIC verified nothing: no checksum was carried, the payload went
    /// to the NULL key, or the message spanned several packets.
    Unchecked,
    /// The payload matched the carried checksum and was written to memory;
    /// this is its CRC32C (hashed by the NIC, or the carried one when the
    /// bytes are unwritten since the sender hashed them), so the layer
    /// above can record what landed without hashing it again.
    Landed(u32),
    /// The payload failed verification and the DMA was skipped: memory
    /// holds whatever it held before the packet arrived.
    Skipped,
}

/// A completion queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// QP this completion belongs to.
    pub qp: QpNum,
    /// Operation that completed.
    pub op: CqeOp,
    /// Immediate data carried by the packet, if any.
    pub imm: Option<u32>,
    /// Sender-computed payload checksum carried by the packet, if any
    /// (transport-header content; see [`WriteWr::crc`](crate::WriteWr)).
    pub crc: Option<u32>,
    /// Bytes written/received.
    pub byte_len: u32,
    /// Source QP (receive completions).
    pub src: Option<QpAddr>,
    /// User cookie (`wr_id` of the posted WQE for sends/receives).
    pub wr_id: u64,
    /// The payload was discarded by the NULL memory key.
    pub null_write: bool,
    /// The NIC's verdict on the payload (receive completions of Writes).
    pub check: PayloadCheck,
}

/// Re-armable notification hook attached to a CQ.
///
/// When an entry is pushed and the waker is not already armed, a zero-delay
/// event is scheduled that disarms and invokes the callback. The callback
/// then drains the queue; further pushes re-arm. This mirrors a Verbs
/// completion channel without busy polling.
///
/// The deferral shim is built once and scheduled by `Rc` clone
/// ([`Engine::schedule_rc_at`]), so a kick costs a refcount bump and a
/// slab node — no fresh closure boxing on the completion hot path.
#[derive(Clone)]
pub struct Waker {
    armed: Rc<Cell<bool>>,
    shim: Rc<dyn Fn(&mut Engine)>,
}

impl Waker {
    /// Wraps a callback into a waker.
    pub fn new(f: impl Fn(&mut Engine) + 'static) -> Self {
        let armed = Rc::new(Cell::new(false));
        let disarm = armed.clone();
        let shim: Rc<dyn Fn(&mut Engine)> = Rc::new(move |eng| {
            disarm.set(false);
            f(eng);
        });
        Waker { armed, shim }
    }

    fn kick(&self, eng: &mut Engine) {
        if !self.armed.get() {
            self.armed.set(true);
            eng.schedule_rc_at(eng.now(), self.shim.clone());
        }
    }
}

/// A completion queue.
#[derive(Default)]
pub struct Cq {
    entries: VecDeque<Cqe>,
    waker: Option<Waker>,
}

impl Cq {
    /// Pops the oldest completion, if any.
    pub fn poll(&mut self) -> Option<Cqe> {
        self.entries.pop_front()
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Receive-side state of a UC QP while a multi-packet message is in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UcRecvState {
    /// Between messages.
    Idle,
    /// Inside a message: `cursor` is the next landing address (`None` for
    /// NULL-key messages), `received` counts payload bytes so far.
    Active {
        cursor: Option<u64>,
        received: u32,
        epsn: u32,
    },
    /// A PSN mismatch poisoned the current message; discard until the next
    /// `First`/`Only` packet.
    Poisoned,
}

struct Qp {
    ty: QpType,
    send_cq: CqId,
    recv_cq: CqId,
    peer: Option<QpAddr>,
    npsn: u32,
    recv_state: UcRecvState,
    rq: VecDeque<RecvWqe>,
}

/// Counters exported by a node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Write packets whose payload landed in memory.
    pub writes_landed: u64,
    /// Write packets discarded by the NULL key (still completed).
    pub null_writes: u64,
    /// Write packets whose carried payload checksum failed verification:
    /// the DMA is suppressed — like an ICRC failure, the corrupt bytes
    /// never reach memory — but the CQE still flows so the verbs layer
    /// observes the mismatch and treats the packet as lost.
    pub crc_skipped: u64,
    /// Packets dropped due to memory-key faults.
    pub access_faults: u64,
    /// UD sends dropped because no receive was posted.
    pub rnr_drops: u64,
    /// Multi-packet UC messages poisoned by ePSN mismatch.
    pub poisoned_msgs: u64,
    /// Completions generated.
    pub cqes: u64,
}

/// A host + NIC endpoint: memory, key tables, CQs and QPs.
pub struct Node {
    id: NodeId,
    mem: Memory,
    mkeys: MkeyTable,
    cqs: Vec<Cq>,
    qps: Vec<Qp>,
    stats: NodeStats,
    /// `nic.crc.rehashed`: checked payloads the NIC had to hash itself
    /// (owned bytes, or a source written since the post). Unbound until
    /// the fabric binds it; never touched on the shortcut.
    rehashed: Counter,
}

/// A registered memory region.
#[derive(Clone, Copy, Debug)]
pub struct Mr {
    /// Base address in node memory.
    pub addr: u64,
    /// Region length.
    pub len: u64,
    /// Key granting remote access.
    pub mkey: MkeyId,
}

impl Node {
    /// Creates a node with `mem_capacity` bytes of registered memory.
    pub fn new(id: NodeId, mem_capacity: usize) -> Self {
        Node {
            id,
            mem: Memory::new(mem_capacity),
            mkeys: MkeyTable::new(),
            cqs: Vec::new(),
            qps: Vec::new(),
            stats: NodeStats::default(),
            rehashed: Counter::default(),
        }
    }

    /// Binds this NIC's counters to the fabric's registry.
    pub(crate) fn bind_metrics(&mut self, reg: &Registry) {
        self.rehashed = reg.counter("nic.crc.rehashed");
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Creates a completion queue.
    pub fn create_cq(&mut self) -> CqId {
        self.cqs.push(Cq::default());
        CqId(self.cqs.len() as u32 - 1)
    }

    /// Creates a queue pair bound to the given CQs.
    pub fn create_qp(&mut self, ty: QpType, send_cq: CqId, recv_cq: CqId) -> QpNum {
        self.qps.push(Qp {
            ty,
            send_cq,
            recv_cq,
            peer: None,
            npsn: 0,
            recv_state: UcRecvState::Idle,
            rq: VecDeque::new(),
        });
        QpNum(self.qps.len() as u32 - 1)
    }

    /// Connects a QP to its remote peer (out-of-band exchange in Verbs).
    pub fn connect_qp(&mut self, qp: QpNum, peer: QpAddr) {
        self.qps[qp.0 as usize].peer = Some(peer);
    }

    /// Drops every piece of volatile NIC state — posted receives,
    /// unpolled completions, in-progress UC reassembly — the way
    /// an endpoint crash would. Registered memory, key tables and QP/CQ
    /// identities survive (host state the layer above may have
    /// checkpointed, and the addressing the peer reconnects to); so do
    /// send PSN counters, which continue across the simulated restart.
    pub fn reset_volatile(&mut self) {
        for qp in &mut self.qps {
            qp.rq.clear();
            qp.recv_state = UcRecvState::Idle;
        }
        for cq in &mut self.cqs {
            cq.entries.clear();
        }
    }

    /// The connected peer of a QP, if any.
    pub fn qp_peer(&self, qp: QpNum) -> Option<QpAddr> {
        self.qps[qp.0 as usize].peer
    }

    /// Service type of a QP.
    pub fn qp_type(&self, qp: QpNum) -> QpType {
        self.qps[qp.0 as usize].ty
    }

    /// Send CQ bound to a QP.
    pub fn qp_send_cq(&self, qp: QpNum) -> CqId {
        self.qps[qp.0 as usize].send_cq
    }

    /// Takes the next PSN for an outgoing packet on `qp`.
    pub(crate) fn next_psn(&mut self, qp: QpNum) -> u32 {
        let q = &mut self.qps[qp.0 as usize];
        let psn = q.npsn;
        q.npsn = q.npsn.wrapping_add(1);
        psn
    }

    /// Allocates and registers a memory region.
    pub fn alloc_mr(&mut self, len: u64) -> Mr {
        let addr = self.mem.alloc(len);
        let mkey = self.mkeys.insert_direct(addr, len);
        Mr { addr, len, mkey }
    }

    /// Registers an existing address range.
    pub fn reg_mr(&mut self, addr: u64, len: u64) -> MkeyId {
        self.mkeys.insert_direct(addr, len)
    }

    /// Deregisters a memory key; its id may be reused by a later
    /// registration. Returns `false` when the key was not registered.
    pub fn dereg_mr(&mut self, mkey: MkeyId) -> bool {
        self.mkeys.remove(mkey).is_some()
    }

    /// Number of memory keys currently registered on this node.
    pub fn mkey_count(&self) -> usize {
        self.mkeys.len()
    }

    /// Allocates a NULL memory key (discards writes, still completes).
    pub fn alloc_null_mkey(&mut self) -> MkeyId {
        self.mkeys.insert_null()
    }

    /// Allocates an indirect root key (Figure 5 layout).
    pub fn create_indirect_mkey(&mut self, slot_size: u64, slots: usize) -> MkeyId {
        self.mkeys.insert_indirect(slot_size, slots)
    }

    /// Points slot `slot` of `root` at `inner`.
    pub fn set_indirect_slot(&mut self, root: MkeyId, slot: usize, inner: Option<MkeyId>) {
        self.mkeys.set_indirect_slot(root, slot, inner);
    }

    /// Posts a receive buffer on a (UD) QP.
    pub fn post_recv(&mut self, qp: QpNum, wqe: RecvWqe) {
        self.qps[qp.0 as usize].rq.push_back(wqe);
    }

    /// Pops the oldest completion from a CQ.
    pub fn poll_cq(&mut self, cq: CqId) -> Option<Cqe> {
        self.cqs[cq.0 as usize].poll()
    }

    /// Number of pending completions on a CQ.
    pub fn cq_len(&self, cq: CqId) -> usize {
        self.cqs[cq.0 as usize].len()
    }

    /// Installs a completion notification hook on a CQ.
    pub fn set_cq_waker(&mut self, cq: CqId, waker: Waker) {
        self.cqs[cq.0 as usize].waker = Some(waker);
    }

    /// Immutable access to node memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to node memory (test setup, payload staging).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    pub(crate) fn push_cqe(&mut self, eng: &mut Engine, cq: CqId, cqe: Cqe) {
        self.stats.cqes += 1;
        let cq = &mut self.cqs[cq.0 as usize];
        cq.entries.push_back(cqe);
        if let Some(w) = &cq.waker {
            w.kick(eng);
        }
    }

    /// Receive-side packet engine: applies `pkt` to this node's state.
    /// `payload` is the packet's payload as bytes — the fabric resolves a
    /// [`Payload::Region`](crate::Payload::Region) against the sender's
    /// memory, so this is where the NIC's DMA reads straight from source to
    /// destination. `as_posted` says the bytes are the ones the sending
    /// NIC hashed into the packet's carried checksum (a region nobody
    /// wrote since the post); pass `false` when that is not known.
    pub fn handle_packet(
        &mut self,
        eng: &mut Engine,
        pkt: &Packet,
        payload: &[u8],
        as_posted: bool,
    ) {
        let qp_idx = pkt.dst.qp.0 as usize;
        if qp_idx >= self.qps.len() {
            self.stats.access_faults += 1;
            return;
        }
        match self.qps[qp_idx].ty {
            QpType::Ud => self.handle_ud(eng, pkt, payload),
            QpType::Uc => self.handle_uc(eng, pkt, payload, as_posted),
        }
    }

    fn handle_ud(&mut self, eng: &mut Engine, pkt: &Packet, payload: &[u8]) {
        let qp_idx = pkt.dst.qp.0 as usize;
        let PacketKind::Send { imm } = pkt.kind else {
            // UD carries only sends in this model.
            self.stats.access_faults += 1;
            return;
        };
        let Some(wqe) = self.qps[qp_idx].rq.pop_front() else {
            self.stats.rnr_drops += 1;
            return;
        };
        let n = payload.len().min(wqe.len as usize);
        self.mem.write(wqe.addr, &payload[..n]);
        let (recv_cq, qp) = (self.qps[qp_idx].recv_cq, pkt.dst.qp);
        self.push_cqe(
            eng,
            recv_cq,
            Cqe {
                qp,
                op: CqeOp::RecvSend,
                imm,
                crc: None,
                byte_len: n as u32,
                src: Some(pkt.src),
                wr_id: wqe.wr_id,
                null_write: false,
                check: PayloadCheck::Unchecked,
            },
        );
    }

    fn handle_uc(&mut self, eng: &mut Engine, pkt: &Packet, payload: &[u8], as_posted: bool) {
        let qp_idx = pkt.dst.qp.0 as usize;
        let PacketKind::Write {
            seg,
            mkey,
            offset,
            imm,
            crc,
        } = pkt.kind
        else {
            self.stats.access_faults += 1;
            return;
        };
        let len = payload.len() as u64;
        let unchecked = PayloadCheck::Unchecked;
        match seg {
            WriteSeg::Only => {
                // A self-contained message: immune to ePSN state.
                self.qps[qp_idx].recv_state = UcRecvState::Idle;
                match self.mkeys.resolve(mkey, offset, len) {
                    Ok(Resolved::Addr(addr)) => {
                        // A carried payload checksum is verified *before*
                        // the DMA commits — like ICRC, a packet that
                        // fails the check never reaches memory (a corrupt
                        // duplicate must not overwrite clean bytes whose
                        // bitmap bit is already set). The payload's CRC is
                        // already known when its bytes are the ones the
                        // sending NIC hashed at post (`as_posted`: a
                        // region unwritten since), so the payload is
                        // hashed here only when they may not be: owned
                        // bytes (the wire flipped a bit, or the poster
                        // supplied the checksum) or a source rewritten in
                        // flight. Either way the verdict is the hash's.
                        // The CQE still flows, carrying it: `Landed` with
                        // the payload's CRC (the verbs layer records it
                        // instead of re-hashing memory), or `Skipped`, on
                        // which the verbs layer leaves the packet's bit
                        // clear — corruption becomes loss. Every UC landing
                        // is a DMA write, which streams past the cache like
                        // a device's (`Memory::dma_write`); UD receives
                        // keep ordinary stores.
                        let computed = crc.map(|carried| {
                            if as_posted {
                                debug_assert_eq!(
                                    sdr_erasure::crc32c(payload),
                                    carried,
                                    "an unwritten source no longer matches its post-time hash"
                                );
                                carried
                            } else {
                                self.rehashed.inc();
                                sdr_erasure::crc32c(payload)
                            }
                        });
                        let check = if computed == crc {
                            self.mem.dma_write(addr, payload);
                            self.stats.writes_landed += 1;
                            computed.map_or(unchecked, PayloadCheck::Landed)
                        } else {
                            self.stats.crc_skipped += 1;
                            PayloadCheck::Skipped
                        };
                        let (qp, src) = (pkt.dst.qp, pkt.src);
                        self.complete_write(eng, qp, src, imm, crc, len as u32, false, check);
                    }
                    Ok(Resolved::Null) => {
                        self.stats.null_writes += 1;
                        let (qp, src) = (pkt.dst.qp, pkt.src);
                        self.complete_write(eng, qp, src, imm, crc, len as u32, true, unchecked);
                    }
                    Err(_) => self.fault(),
                }
            }
            WriteSeg::First => {
                let state = match self.mkeys.resolve(mkey, offset, len) {
                    Ok(Resolved::Addr(addr)) => {
                        self.mem.dma_write(addr, payload);
                        self.stats.writes_landed += 1;
                        UcRecvState::Active {
                            cursor: Some(addr + len),
                            received: len as u32,
                            epsn: pkt.psn.wrapping_add(1),
                        }
                    }
                    Ok(Resolved::Null) => {
                        self.stats.null_writes += 1;
                        UcRecvState::Active {
                            cursor: None,
                            received: len as u32,
                            epsn: pkt.psn.wrapping_add(1),
                        }
                    }
                    Err(_) => {
                        self.fault();
                        UcRecvState::Poisoned
                    }
                };
                self.qps[qp_idx].recv_state = state;
            }
            WriteSeg::Middle | WriteSeg::Last => {
                let cur = self.qps[qp_idx].recv_state;
                match cur {
                    UcRecvState::Active {
                        cursor,
                        received,
                        epsn,
                    } if pkt.psn == epsn => {
                        let new_cursor = match cursor {
                            Some(addr) => {
                                self.mem.dma_write(addr, payload);
                                self.stats.writes_landed += 1;
                                Some(addr + len)
                            }
                            None => {
                                self.stats.null_writes += 1;
                                None
                            }
                        };
                        let total = received + len as u32;
                        if seg == WriteSeg::Last {
                            self.qps[qp_idx].recv_state = UcRecvState::Idle;
                            self.complete_write(
                                eng,
                                pkt.dst.qp,
                                pkt.src,
                                imm,
                                crc,
                                total,
                                cursor.is_none(),
                                unchecked,
                            );
                        } else {
                            self.qps[qp_idx].recv_state = UcRecvState::Active {
                                cursor: new_cursor,
                                received: total,
                                epsn: epsn.wrapping_add(1),
                            };
                        }
                    }
                    _ => {
                        // PSN mismatch or no message in progress: poison.
                        if !matches!(cur, UcRecvState::Poisoned) {
                            self.stats.poisoned_msgs += 1;
                        }
                        self.qps[qp_idx].recv_state = UcRecvState::Poisoned;
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn complete_write(
        &mut self,
        eng: &mut Engine,
        qp: QpNum,
        src: QpAddr,
        imm: Option<u32>,
        crc: Option<u32>,
        byte_len: u32,
        null_write: bool,
        check: PayloadCheck,
    ) {
        // Writes without immediate complete silently (no receive CQE),
        // exactly like Verbs.
        if let Some(imm) = imm {
            let recv_cq = self.qps[qp.0 as usize].recv_cq;
            self.push_cqe(
                eng,
                recv_cq,
                Cqe {
                    qp,
                    op: CqeOp::RecvWriteImm,
                    imm: Some(imm),
                    crc,
                    byte_len,
                    src: Some(src),
                    wr_id: 0,
                    null_write,
                    check,
                },
            );
        }
    }

    fn fault(&mut self) {
        self.stats.access_faults += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use bytes::Bytes;

    fn mk_node() -> (Node, QpNum, CqId, Mr) {
        let mut n = Node::new(NodeId(0), 1 << 20);
        let cq = n.create_cq();
        let qp = n.create_qp(QpType::Uc, cq, cq);
        let mr = n.alloc_mr(64 * 1024);
        (n, qp, cq, mr)
    }

    fn write_pkt(
        qp: QpNum,
        psn: u32,
        seg: WriteSeg,
        mkey: MkeyId,
        offset: u64,
        data: &[u8],
        imm: Option<u32>,
    ) -> Packet {
        let addr = QpAddr {
            node: NodeId(0),
            qp,
        };
        Packet {
            src: QpAddr {
                node: NodeId(1),
                qp: QpNum(0),
            },
            dst: addr,
            psn,
            kind: PacketKind::Write {
                seg,
                mkey,
                offset,
                imm,
                crc: None,
            },
            payload: Bytes::copy_from_slice(data).into(),
        }
    }

    /// Hands the node a packet that owns its bytes.
    fn deliver(n: &mut Node, eng: &mut Engine, pkt: Packet) {
        let Payload::Owned(bytes) = &pkt.payload else {
            panic!("test packets own their payload");
        };
        n.handle_packet(eng, &pkt, bytes, false);
    }

    #[test]
    fn only_write_lands_and_completes_with_imm() {
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 0, WriteSeg::Only, mr.mkey, 16, b"hello", Some(42)),
        );
        assert_eq!(n.mem().read(mr.addr + 16, 5), b"hello");
        let cqe = n.poll_cq(cq).expect("cqe");
        assert_eq!(cqe.op, CqeOp::RecvWriteImm);
        assert_eq!(cqe.imm, Some(42));
        assert_eq!(cqe.byte_len, 5);
        assert!(!cqe.null_write);
        assert_eq!(cqe.check, PayloadCheck::Unchecked, "no checksum carried");
    }

    #[test]
    fn carried_checksum_is_verified_before_dma_and_the_verdict_rides_the_cqe() {
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        let good = sdr_erasure::crc32c(b"hello");
        let with_crc = |data: &[u8], imm| {
            let mut p = write_pkt(qp, 0, WriteSeg::Only, mr.mkey, 0, data, Some(imm));
            let PacketKind::Write { crc, .. } = &mut p.kind else {
                unreachable!()
            };
            *crc = Some(good);
            p
        };
        deliver(&mut n, &mut eng, with_crc(b"hello", 1));
        // A corrupt duplicate: the DMA is skipped, the clean bytes stay.
        deliver(&mut n, &mut eng, with_crc(b"hellp", 2));
        assert_eq!(n.mem().read(mr.addr, 5), b"hello");
        let first = n.poll_cq(cq).unwrap();
        assert_eq!(first.check, PayloadCheck::Landed(good));
        let second = n.poll_cq(cq).unwrap();
        assert_eq!(
            (second.check, second.crc),
            (PayloadCheck::Skipped, Some(good))
        );
        assert_eq!((n.stats().writes_landed, n.stats().crc_skipped), (1, 1));
    }

    #[test]
    fn write_without_imm_is_silent() {
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 0, WriteSeg::Only, mr.mkey, 0, b"x", None),
        );
        assert!(n.poll_cq(cq).is_none());
        assert_eq!(n.mem().read(mr.addr, 1), b"x");
    }

    #[test]
    fn multi_packet_message_in_order_completes_once() {
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 0, WriteSeg::First, mr.mkey, 0, b"aa", None),
        );
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 1, WriteSeg::Middle, mr.mkey, 0, b"bb", None),
        );
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 2, WriteSeg::Last, mr.mkey, 0, b"cc", Some(7)),
        );
        assert_eq!(n.mem().read(mr.addr, 6), b"aabbcc");
        let cqe = n.poll_cq(cq).expect("cqe");
        assert_eq!(cqe.byte_len, 6);
        assert_eq!(cqe.imm, Some(7));
        assert!(n.poll_cq(cq).is_none());
    }

    #[test]
    fn epsn_mismatch_poisons_whole_message() {
        // Packet 1 of 3 lost: the message never completes (paper §2.3).
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 0, WriteSeg::First, mr.mkey, 0, b"aa", None),
        );
        // psn 1 dropped in transit; psn 2 arrives.
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 2, WriteSeg::Last, mr.mkey, 0, b"cc", Some(7)),
        );
        assert!(
            n.poll_cq(cq).is_none(),
            "poisoned message must not complete"
        );
        assert_eq!(n.stats().poisoned_msgs, 1);
        // The next fresh message resyncs.
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 3, WriteSeg::First, mr.mkey, 8, b"dd", None),
        );
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 4, WriteSeg::Last, mr.mkey, 8, b"ee", Some(9)),
        );
        assert_eq!(n.poll_cq(cq).unwrap().imm, Some(9));
    }

    #[test]
    fn only_packets_are_immune_to_reordering() {
        // SDR's per-packet writes: deliver PSNs out of order, all land.
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        for &psn in &[3u32, 1, 2, 0] {
            deliver(
                &mut n,
                &mut eng,
                write_pkt(
                    qp,
                    psn,
                    WriteSeg::Only,
                    mr.mkey,
                    psn as u64 * 4,
                    &[psn as u8; 4],
                    Some(psn),
                ),
            );
        }
        let mut imms: Vec<u32> = std::iter::from_fn(|| n.poll_cq(cq))
            .map(|c| c.imm.unwrap())
            .collect();
        imms.sort_unstable();
        assert_eq!(imms, vec![0, 1, 2, 3]);
        assert_eq!(n.stats().poisoned_msgs, 0);
    }

    #[test]
    fn null_mkey_discards_but_completes() {
        let (mut n, qp, cq, _mr) = mk_node();
        let null = n.alloc_null_mkey();
        let mut eng = Engine::new();
        deliver(
            &mut n,
            &mut eng,
            write_pkt(qp, 0, WriteSeg::Only, null, 1 << 40, b"junk", Some(5)),
        );
        let cqe = n.poll_cq(cq).expect("late packets still complete");
        assert!(cqe.null_write);
        assert_eq!(n.stats().null_writes, 1);
    }

    #[test]
    fn out_of_bounds_write_faults() {
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        deliver(
            &mut n,
            &mut eng,
            write_pkt(
                qp,
                0,
                WriteSeg::Only,
                mr.mkey,
                mr.len - 1,
                b"toolong",
                Some(1),
            ),
        );
        assert!(n.poll_cq(cq).is_none());
        assert_eq!(n.stats().access_faults, 1);
    }

    #[test]
    fn ud_send_consumes_rq_wqe() {
        let mut n = Node::new(NodeId(0), 1 << 16);
        let cq = n.create_cq();
        let qp = n.create_qp(QpType::Ud, cq, cq);
        let mr = n.alloc_mr(1024);
        n.post_recv(
            qp,
            RecvWqe {
                wr_id: 77,
                addr: mr.addr,
                len: 1024,
            },
        );
        let mut eng = Engine::new();
        let pkt = Packet {
            src: QpAddr {
                node: NodeId(1),
                qp: QpNum(4),
            },
            dst: QpAddr {
                node: NodeId(0),
                qp,
            },
            psn: 0,
            kind: PacketKind::Send { imm: Some(3) },
            payload: Bytes::from_static(b"ack!").into(),
        };
        deliver(&mut n, &mut eng, pkt.clone());
        let cqe = n.poll_cq(cq).unwrap();
        assert_eq!(cqe.op, CqeOp::RecvSend);
        assert_eq!(cqe.wr_id, 77);
        assert_eq!(cqe.src.unwrap().qp, QpNum(4));
        assert_eq!(n.mem().read(mr.addr, 4), b"ack!");
        // Second send with no WQE posted → RNR drop.
        deliver(&mut n, &mut eng, pkt);
        assert!(n.poll_cq(cq).is_none());
        assert_eq!(n.stats().rnr_drops, 1);
    }

    #[test]
    fn cq_waker_fires_once_per_batch() {
        let (mut n, qp, cq, mr) = mk_node();
        let mut eng = Engine::new();
        let fired = Rc::new(Cell::new(0u32));
        let f2 = fired.clone();
        n.set_cq_waker(cq, Waker::new(move |_| f2.set(f2.get() + 1)));
        for psn in 0..5 {
            deliver(
                &mut n,
                &mut eng,
                write_pkt(qp, psn, WriteSeg::Only, mr.mkey, 0, b"z", Some(psn)),
            );
        }
        eng.run();
        // All 5 pushes happened before the event loop ran: one wake.
        assert_eq!(fired.get(), 1);
        assert_eq!(n.cq_len(cq), 5);
    }
}
