//! The SDR queue pair: Table 1's API over unreliable RDMA Writes.
//!
//! Layout per connection (Figures 5 and 7):
//!
//! * `generations × channels` internal UC QPs. The generation of a packet is
//!   identified by the QP that delivered its completion (protection stage 2,
//!   §3.3.2); channels within a generation stripe packets round-robin for
//!   backend parallelism (§3.4.1).
//! * One zero-based indirect **root memory key per generation**: message
//!   `i` targets offsets `[i·M, i·M+M)`; posting a receive installs the user
//!   buffer's key in slot `i`, completing it swaps in the NULL key so late
//!   packets are discarded-but-completed (protection stage 1).
//! * One UD control QP carrying clear-to-send (CTS) signals: order-based
//!   matching means a CTS only needs the receive sequence number and buffer
//!   length — no addresses or keys (§3.1.3).
//!
//! # Life of a payload byte
//!
//! A payload byte is moved once and checksummed twice. `send_post` /
//! `send_stream_continue` post one work request per packet that *names*
//! its MTU of the send buffer ([`RegionWriteWr`]: address, length) — this
//! QP never reads or copies it. **Pass 1:** the sending NIC takes the
//! packet's CRC32C as the request is posted; it travels in the modeled
//! transport header, out of the wire's reach. The bytes stay where they
//! are until the packet is delivered: the fabric resolves the descriptor
//! against the sender's memory (copying only to flip bits on a corrupting
//! wire). **Pass 2:** the receiving NIC checksums that source slice
//! against the carried CRC and, on a match, copies it straight into the
//! posted receive buffer — the single move. The CQE carries the verdict
//! ([`PayloadCheck`]): `Landed(crc)` is recorded as the packet's arrival
//! CRC as is; only `Skipped` (mismatch, DMA suppressed) and `Unchecked`
//! (no CRC carried) make this QP read landed bytes back, to tell a corrupt
//! duplicate over a clean original from a corrupt first arrival.
//!
//! The send buffer must therefore stay unmodified from the post until the
//! peer's receive completes. A violation is *detected*: bytes changed in
//! flight fail pass 2 and the packet is dropped and repaired as a loss.
//!
//! *Returning* a send buffer to the node allocator
//! ([`SdrContext::free_buffer`](crate::SdrContext::free_buffer)) is not a
//! modification: packets still in flight that name it are handed their own
//! copy of the bytes first, so a sender may free at its own end of life —
//! acknowledged or aborted — without waiting for the wire to drain.

use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use bytes::Bytes;
use sdr_sim::{
    CqId, Engine, Fabric, IntMap, MkeyId, NodeId, PayloadCheck, QpAddr, QpNum, QpType, RecvWqe,
    RegionWriteWr, Registry, SimTime, Waker,
};

use crate::bitmap::TwoLevelBitmap;
use crate::config::SdrConfig;
use crate::handles::{RecvHandle, SdrError, SdrStats, SendHandle};
use crate::imm::UserImmAccumulator;

/// Number of pre-posted control receive buffers (CTS credits on the wire).
const CTRL_RQ_DEPTH: usize = 64;
/// Control message size: seq (u64) + buffer length (u64) + CRC32C trailer.
const CTS_BYTES: usize = 20;

/// Builds a CTS datagram: seq, length, and a CRC32C trailer over both.
/// The control path rides unreliable UD across the same corrupting wire
/// as the data path; a CTS that fails its checksum is dropped exactly
/// like a lost one and healed by the receiver's resend cadence.
fn seal_cts(seq: u64, len: u64) -> Bytes {
    let mut cts = [0u8; CTS_BYTES];
    cts[0..8].copy_from_slice(&seq.to_le_bytes());
    cts[8..16].copy_from_slice(&len.to_le_bytes());
    let crc = sdr_erasure::crc32c(&cts[..16]);
    cts[16..].copy_from_slice(&crc.to_le_bytes());
    Bytes::copy_from_slice(&cts)
}

/// Out-of-band connection blob (the paper's `qp_info_get`): everything the
/// peer needs to address this QP.
#[derive(Clone, Debug)]
pub struct SdrQpInfo {
    /// Node hosting the QP.
    pub node: NodeId,
    /// Internal UC QPs, indexed `gen * channels + channel`.
    pub uc_qps: Vec<QpAddr>,
    /// Per-generation zero-based root memory keys.
    pub root_mkeys: Vec<MkeyId>,
    /// UD control QP for CTS (and available to reliability layers).
    pub ctrl: QpAddr,
}

struct RecvSlot {
    seq: u64,
    /// The receive's bitmap while it is posted; `None` once it completes.
    bitmap: Option<Arc<TwoLevelBitmap>>,
    imm_acc: UserImmAccumulator,
    /// Base address of the posted user buffer; the rare payload
    /// verifications the NIC did not already settle read landed bytes back
    /// from here.
    buf_addr: u64,
    /// Memory key registered for the posted buffer, deregistered when the
    /// receive completes.
    buf_mkey: MkeyId,
    /// CRC32C of each packet's payload as it was verified on arrival,
    /// indexed by packet offset. Erasure-coded receivers re-check staged
    /// shards against these before decoding. The NIC verifies before it
    /// commits, so a corrupt wire packet never reaches memory; what the
    /// re-check still catches is a write to the buffer after the packet
    /// landed.
    arrival_crcs: Vec<Option<u32>>,
    /// Posted length, re-announced when a lost CTS is re-issued.
    buf_len: u64,
    /// Host notification for this receive: run once per chunk the bitmap
    /// completes (see [`SdrQp::set_chunk_hook`]). Gone with the receive.
    chunk_hook: Option<ChunkHook>,
}

impl RecvSlot {
    fn empty() -> Self {
        RecvSlot {
            seq: u64::MAX,
            bitmap: None,
            imm_acc: UserImmAccumulator::new(),
            buf_addr: 0,
            buf_mkey: MkeyId(u32::MAX),
            arrival_crcs: Vec::new(),
            buf_len: 0,
            chunk_hook: None,
        }
    }
}

/// Where a send is in its life (§3.3, Table 1). A stream opens `Open`; a
/// one-shot opens `Ended` when its credit is already there (it injects as
/// it opens) and `Deferred` when it is not. A failed open leaves no state.
#[derive(Clone, Debug, PartialEq)]
enum Phase {
    /// A one-shot waiting for its credit: it injects and ends when a
    /// credit that fits lands, and fails `TooLarge` on a smaller one.
    Deferred,
    /// A stream: ranges may be injected until it ends.
    Open,
    /// Nothing more will be injected.
    Ended,
    /// A deferred one-shot that met a credit it could not use; it spent
    /// the credit and [`send_poll`](SdrQp::send_poll) reports the error.
    Failed(SdrError),
}

/// A live send, keyed by its send sequence (which is also its handle).
struct SendState {
    addr: u64,
    len: u64,
    user_imm: Option<u32>,
    phase: Phase,
    /// Signaled completions not yet drained: one per injected range.
    outstanding_sig: u32,
}

/// The message-ID slot and generation order-based matching gives sequence
/// `seq`, on either side.
fn slot_of(cfg: &SdrConfig, seq: u64) -> (usize, usize) {
    let slots = cfg.msg_slots as u64;
    (
        (seq % slots) as usize,
        ((seq / slots) % cfg.generations as u64) as usize,
    )
}

/// The callback invoked when a CTS credit arrives:
/// `(engine, receive sequence, posted buffer length)`.
pub type CtsCallback = Box<dyn FnMut(&mut Engine, u64, u64)>;

/// The callback invoked when a posted receive completes a chunk:
/// `(engine, chunk index)`. Shared, so the backend can run it without
/// holding the QP borrowed.
type ChunkHook = Rc<dyn Fn(&mut Engine, usize)>;

/// What one receive-CQ completion leaves for the backend to run once the
/// QP borrow is dropped.
enum Notify {
    /// A CTS credit `(seq, len)` for the CTS callback.
    Cts(u64, u64),
    /// A chunk completed in a slot that has a hook.
    Chunk(ChunkHook, usize),
}

struct QpInner {
    fabric: Fabric,
    node: NodeId,
    cfg: SdrConfig,
    recv_cq: CqId,
    send_cq: CqId,
    /// Internal UC QPs, indexed `gen * channels + channel`; their numbers
    /// are consecutive, so a QP number maps back to its generation by
    /// arithmetic (see [`generation_of`](Self::generation_of)).
    uc_qps: Vec<QpNum>,
    root_mkeys: Vec<MkeyId>,
    null_mkey: MkeyId,
    ctrl_qp: QpNum,
    remote: Option<SdrQpInfo>,
    recv_slots: Vec<RecvSlot>,
    recv_seq: u64,
    /// See [`SdrQp::highest_landed_seq`].
    highest_landed: Option<u64>,
    send_seq: u64,
    /// Live sends by send sequence.
    sends: IntMap<u64, SendState>,
    /// CTS credits received and not yet spent, keyed by send sequence: a
    /// credit is taken when its send opens, so the map holds at most one
    /// entry per posted receive the sender has not opened.
    cts_credits: IntMap<u64, u64>,
    cts_callback: Option<CtsCallback>,
    rr: u64,
    stats: SdrStats,
}

/// An SDR queue pair (shared handle; clone freely).
#[derive(Clone)]
pub struct SdrQp {
    inner: Rc<RefCell<QpInner>>,
}

impl SdrQp {
    /// Creates an SDR QP on `node`, allocating its internal UC QPs, root
    /// memory keys, NULL key and control QP (the paper's `qp_create`).
    pub fn create(fabric: &Fabric, node: NodeId, cfg: SdrConfig) -> Result<SdrQp, SdrError> {
        cfg.validate().map_err(SdrError::InvalidConfig)?;
        let inner = fabric.node_mut(node, |n| {
            let recv_cq = n.create_cq();
            let send_cq = n.create_cq();
            let uc_qps: Vec<QpNum> = (0..cfg.generations * cfg.channels)
                .map(|_| n.create_qp(QpType::Uc, send_cq, recv_cq))
                .collect();
            debug_assert!(
                uc_qps.windows(2).all(|w| w[1].0 == w[0].0 + 1),
                "generation_of relies on consecutive QP numbers"
            );
            let root_mkeys = (0..cfg.generations)
                .map(|_| n.create_indirect_mkey(cfg.max_msg_bytes, cfg.msg_slots))
                .collect();
            let null_mkey = n.alloc_null_mkey();
            let ctrl_qp = n.create_qp(QpType::Ud, send_cq, recv_cq);
            // Pre-post control receive buffers.
            let ctrl_buf_base = n.mem_mut().alloc((CTRL_RQ_DEPTH * CTS_BYTES) as u64);
            for i in 0..CTRL_RQ_DEPTH {
                let addr = ctrl_buf_base + (i * CTS_BYTES) as u64;
                n.post_recv(
                    ctrl_qp,
                    RecvWqe {
                        wr_id: addr,
                        addr,
                        len: CTS_BYTES as u64,
                    },
                );
            }
            QpInner {
                fabric: fabric.clone(),
                node,
                cfg,
                recv_cq,
                send_cq,
                uc_qps,
                root_mkeys,
                null_mkey,
                ctrl_qp,
                remote: None,
                recv_slots: (0..cfg.msg_slots).map(|_| RecvSlot::empty()).collect(),
                recv_seq: 0,
                highest_landed: None,
                send_seq: 0,
                sends: IntMap::default(),
                cts_credits: IntMap::default(),
                cts_callback: None,
                rr: 0,
                stats: SdrStats::default(),
            }
        });
        let qp = SdrQp {
            inner: Rc::new(RefCell::new(inner)),
        };
        qp.install_wakers(fabric, node);
        Ok(qp)
    }

    fn install_wakers(&self, fabric: &Fabric, node: NodeId) {
        let (recv_cq, send_cq) = {
            let i = self.inner.borrow();
            (i.recv_cq, i.send_cq)
        };
        // The wakers live in the node, so they reach the fabric through
        // the QP they hold weakly: a strong `Fabric` here would close a
        // fabric → node → waker → fabric cycle and leak every node's memory.
        let (rx, tx) = (Rc::downgrade(&self.inner), Rc::downgrade(&self.inner));
        fabric.node_mut(node, |n| {
            n.set_cq_waker(
                recv_cq,
                Waker::new(move |eng| Self::drain_recv(&rx, node, recv_cq, eng)),
            );
            n.set_cq_waker(
                send_cq,
                Waker::new(move |_| Self::drain_send(&tx, node, send_cq)),
            );
        });
    }

    /// Out-of-band info for the peer (the paper's `qp_info_get`).
    pub fn info(&self) -> SdrQpInfo {
        let i = self.inner.borrow();
        SdrQpInfo {
            node: i.node,
            uc_qps: i
                .uc_qps
                .iter()
                .map(|&qp| QpAddr { node: i.node, qp })
                .collect(),
            root_mkeys: i.root_mkeys.clone(),
            ctrl: QpAddr {
                node: i.node,
                qp: i.ctrl_qp,
            },
        }
    }

    /// Connects to the peer using its exchanged info (`qp_connect`).
    pub fn connect(&self, remote: SdrQpInfo) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        if remote.uc_qps.len() != i.uc_qps.len() {
            return Err(SdrError::InvalidConfig(
                "peer QP was created with a different channels/generations shape".into(),
            ));
        }
        let (node, ctrl_qp) = (i.node, i.ctrl_qp);
        let local_ucs = i.uc_qps.clone();
        i.fabric.node_mut(node, |n| {
            for (local, remote_addr) in local_ucs.iter().zip(&remote.uc_qps) {
                n.connect_qp(*local, *remote_addr);
            }
            n.connect_qp(ctrl_qp, remote.ctrl);
        });
        i.remote = Some(remote);
        Ok(())
    }

    /// Registers a callback fired whenever a CTS credit arrives (used by
    /// streaming senders to learn the peer posted a buffer).
    pub fn set_cts_callback(&self, cb: impl FnMut(&mut Engine, u64, u64) + 'static) {
        self.inner.borrow_mut().cts_callback = Some(Box::new(cb));
    }

    /// Registers the chunk-completion notification of a posted receive —
    /// the host half of §3.3's partial completion: `hook(engine, chunk)`
    /// runs each time a packet completes a chunk of this receive (once per
    /// chunk; duplicates complete nothing), from the backend's completion
    /// processing with the QP not borrowed, so it may call back into it.
    /// [`recv_complete`](Self::recv_complete) drops the hook with the slot:
    /// it never fires afterwards, nor for a later receive reusing the slot.
    /// The QP holds the hook strongly; a hook that reaches its owner
    /// through a `Weak` keeps the two from owning each other.
    pub fn set_chunk_hook(
        &self,
        hdl: &RecvHandle,
        hook: impl Fn(&mut Engine, usize) + 'static,
    ) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        i.posted(hdl)?;
        i.recv_slots[hdl.slot].chunk_hook = Some(Rc::new(hook));
        Ok(())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SdrStats {
        self.inner.borrow().stats
    }

    /// The node this QP lives on.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// The SDR configuration of this QP.
    pub fn config(&self) -> SdrConfig {
        self.inner.borrow().cfg
    }

    /// The stack-wide metrics registry, owned by the fabric this QP lives
    /// on — where the reliability layers above bind their counters.
    pub fn metrics(&self) -> Registry {
        self.inner.borrow().fabric.metrics().clone()
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Posts a receive buffer `[addr, addr+len)` in this node's memory
    /// (`recv_post`). Installs the buffer key in the root table, allocates
    /// the two-level bitmap, and sends the CTS credit.
    pub fn recv_post(&self, eng: &mut Engine, addr: u64, len: u64) -> Result<RecvHandle, SdrError> {
        let mut i = self.inner.borrow_mut();
        if i.remote.is_none() {
            return Err(SdrError::NotConnected);
        }
        if len == 0 || len > i.cfg.max_msg_bytes {
            return Err(SdrError::TooLarge);
        }
        let seq = i.recv_seq;
        let (slot, gen) = slot_of(&i.cfg, seq);
        if i.recv_slots[slot].bitmap.is_some() {
            return Err(SdrError::SlotBusy);
        }
        i.recv_seq += 1;

        let total_packets = i.cfg.packets_for(len) as usize;
        let bitmap = Arc::new(TwoLevelBitmap::new(
            total_packets,
            i.cfg.packets_per_chunk() as u32,
        ));
        let (node, root) = (i.node, i.root_mkeys[gen]);
        let buf_mkey = i.fabric.node_mut(node, |n| {
            let mk = n.reg_mr(addr, len);
            n.set_indirect_slot(root, slot, Some(mk));
            mk
        });
        i.recv_slots[slot] = RecvSlot {
            seq,
            bitmap: Some(bitmap),
            imm_acc: UserImmAccumulator::new(),
            buf_addr: addr,
            buf_mkey,
            arrival_crcs: vec![None; total_packets],
            buf_len: len,
            chunk_hook: None,
        };
        i.stats.recvs_posted += 1;
        i.send_cts(eng, seq, len)?;
        i.stats.cts_sent += 1;
        Ok(RecvHandle { slot, seq })
    }

    /// True when the next `count` receive posts would find their slots
    /// free. Order-based matching pins post `k` to slot
    /// `(recv_seq + k) % msg_slots`, so a caller pipelining many posts
    /// (the adaptive receiver, a flow host admitting a flow's data and
    /// parity posts) can throttle on table capacity instead of failing
    /// with `SlotBusy`.
    pub fn can_recv_post(&self, count: u64) -> bool {
        let i = self.inner.borrow();
        let slots = i.cfg.msg_slots as u64;
        let free = |k| {
            i.recv_slots[((i.recv_seq + k) % slots) as usize]
                .bitmap
                .is_none()
        };
        count <= slots && (0..count).all(free)
    }

    /// Re-sends the clear-to-send credit for a posted receive. CTS rides
    /// the unreliable control path and can drop; reliability layers call
    /// this when a posted buffer has seen no traffic for a while.
    pub fn resend_cts(&self, eng: &mut Engine, hdl: &RecvHandle) -> Result<(), SdrError> {
        let i = self.inner.borrow();
        i.send_cts(eng, hdl.seq, i.posted(hdl)?.buf_len)
    }

    /// True when the clear-to-send credit for send sequence `seq` has
    /// arrived (order-based matching: the n-th send on this QP gets
    /// sequence n).
    pub fn has_cts(&self, seq: u64) -> bool {
        self.inner.borrow().cts_credits.contains_key(&seq)
    }

    /// The next send sequence number this QP will assign.
    pub fn next_send_seq(&self) -> u64 {
        self.inner.borrow().send_seq
    }

    /// The next receive sequence number this QP will assign (order-based
    /// matching: the n-th post on this QP gets sequence n).
    pub fn next_recv_seq(&self) -> u64 {
        self.inner.borrow().recv_seq
    }

    /// The highest receive sequence a packet has landed on, if any. Sends
    /// that open on credit — every stream — open in sequence order
    /// (§3.1.3), so a packet on `s` proves every credit below `s` spent,
    /// however the wire reordered. (A deferred one-shot takes its sequence
    /// in order but waits for its own credit.)
    pub fn highest_landed_seq(&self) -> Option<u64> {
        self.inner.borrow().highest_landed
    }

    /// Fast-forwards the send sequence to `seq`, discarding any CTS
    /// credits below it. Resume realignment: CTS matching is order-based
    /// and a restarted peer's posts continue from its pre-crash receive
    /// sequence, which may be ahead of this sender's opens (a receiver
    /// posts buffers before the sender streams into them) — the skipped
    /// sequences belong to the dead life and must never be sent.
    /// Rewinding is refused: sequences below the current counter may
    /// already be in flight.
    pub fn align_send_seq(&self, seq: u64) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        if seq < i.send_seq {
            return Err(SdrError::BadHandle);
        }
        i.send_seq = seq;
        i.cts_credits.retain(|&s, _| s >= seq);
        Ok(())
    }

    /// The frontend chunk bitmap of a posted receive (`recv_bitmap_get`).
    /// The reliability layer polls this to locate drops.
    pub fn recv_bitmap(&self, hdl: &RecvHandle) -> Result<Arc<TwoLevelBitmap>, SdrError> {
        let i = self.inner.borrow();
        i.slot(hdl)?.bitmap.clone().ok_or(SdrError::BadHandle)
    }

    /// The reassembled 32-bit user immediate, if every fragment has arrived
    /// (`recv_imm_get`).
    pub fn recv_imm_get(&self, hdl: &RecvHandle) -> Result<Option<u32>, SdrError> {
        let i = self.inner.borrow();
        Ok(i.slot(hdl)?.imm_acc.get(&i.cfg.imm))
    }

    /// True when every chunk of the receive has arrived.
    pub fn recv_is_complete(&self, hdl: &RecvHandle) -> Result<bool, SdrError> {
        Ok(self.recv_bitmap(hdl)?.is_complete())
    }

    /// Verifies `data` against the arrival checksums recorded for this
    /// receive: `data` is split into MTU-sized pieces and piece `k` is
    /// compared against the CRC32C stored when packet `first_pkt + k`
    /// was accepted. Returns `false` on any mismatch — the caller is
    /// holding bytes that no longer match what the wire delivered:
    /// something wrote the buffer after the packet landed (the NIC's
    /// verify-before-commit keeps corrupt wire packets out of memory, so
    /// the wire cannot be the writer). Vacuously `true` for a piece whose
    /// packet has no recorded arrival. Erasure-coded receivers run staged
    /// survivor shards through this before feeding them to the decoder.
    pub fn verify_packet_range(
        &self,
        hdl: &RecvHandle,
        first_pkt: usize,
        data: &[u8],
    ) -> Result<bool, SdrError> {
        let i = self.inner.borrow();
        let slot = i.slot(hdl)?;
        let mtu = i.cfg.mtu_bytes as usize;
        for (k, piece) in data.chunks(mtu).enumerate() {
            if let Some(Some(crc)) = slot.arrival_crcs.get(first_pkt + k) {
                if sdr_erasure::crc32c(piece) != *crc {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Marks a receive complete (`recv_complete`), possibly early: the root
    /// slot is redirected to the NULL key so in-flight packets are discarded
    /// (stage 1), and their completions are filtered by generation/activity
    /// (stage 2). The buffer's own key, now unreachable, is deregistered
    /// and the slot becomes reusable.
    pub fn recv_complete(&self, _eng: &mut Engine, hdl: &RecvHandle) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        let buf_mkey = i.posted(hdl)?.buf_mkey;
        let root = i.root_mkeys[slot_of(&i.cfg, hdl.seq).1];
        let (node, null) = (i.node, i.null_mkey);
        i.fabric.node_mut(node, |n| {
            n.set_indirect_slot(root, hdl.slot, Some(null));
            n.dereg_mr(buf_mkey);
        });
        let s = &mut i.recv_slots[hdl.slot];
        s.bitmap = None;
        s.chunk_hook = None;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// One-shot send (`send_post`): transmits `[addr, addr+len)` from local
    /// memory as per-packet unreliable Writes. If the CTS credit for this
    /// message is already here, the send injects at once and spends it;
    /// otherwise it waits for the credit and injects when it lands.
    ///
    /// A failed post leaves no trace: `TooLarge` (over `max_msg_bytes`, or
    /// over the buffer a credit already here names) takes no send sequence
    /// and spends no credit, so the next send still matches this message's
    /// receive. A waiting send whose credit names a smaller buffer fails
    /// when it lands, and [`send_poll`](Self::send_poll) reports it.
    ///
    /// The packets name the buffer; nothing is copied out of it. It must
    /// stay unmodified until the peer's receive completes — see "Life of a
    /// payload byte" in the [module docs](self) for what happens otherwise.
    pub fn send_post(
        &self,
        eng: &mut Engine,
        addr: u64,
        len: u64,
        user_imm: Option<u32>,
    ) -> Result<SendHandle, SdrError> {
        self.open(eng, addr, len, user_imm, false)
    }

    /// Opens a streaming send (`send_stream_start`): allocates the message
    /// context without transmitting. Requires the CTS credit to be present
    /// (streams are driven by reliability layers that react to CTS via
    /// [`set_cts_callback`](Self::set_cts_callback)), and spends it. On
    /// `NoCts` or `TooLarge` nothing changed, as for a failed
    /// [`send_post`](Self::send_post).
    pub fn send_stream_start(
        &self,
        eng: &mut Engine,
        addr: u64,
        len: u64,
        user_imm: Option<u32>,
    ) -> Result<SendHandle, SdrError> {
        self.open(eng, addr, len, user_imm, true)
    }

    /// The open step of both send verbs: the next send sequence becomes
    /// the send and its handle, and spends its credit — or, for a one-shot
    /// whose credit has not landed, waits [`Phase::Deferred`]. On `Err` the
    /// sequence, the credits and the send table are as they were.
    fn open(
        &self,
        eng: &mut Engine,
        addr: u64,
        len: u64,
        user_imm: Option<u32>,
        stream: bool,
    ) -> Result<SendHandle, SdrError> {
        let mut i = self.inner.borrow_mut();
        if i.remote.is_none() {
            return Err(SdrError::NotConnected);
        }
        if len == 0 || len > i.cfg.max_msg_bytes {
            return Err(SdrError::TooLarge);
        }
        let seq = i.send_seq;
        let phase = match i.cts_credits.get(&seq) {
            Some(&peer_len) if len > peer_len => return Err(SdrError::TooLarge),
            Some(_) if stream => Phase::Open,
            Some(_) => Phase::Ended,
            None if stream => return Err(SdrError::NoCts),
            None => Phase::Deferred,
        };
        let (injects, spends) = (phase == Phase::Ended, phase != Phase::Deferred);
        let st = SendState {
            addr,
            len,
            user_imm,
            phase,
            outstanding_sig: 0,
        };
        i.sends.insert(seq, st);
        if injects {
            if let Err(e) = i.inject(eng, seq, 0, len, |_, _| {}) {
                i.sends.remove(&seq);
                return Err(e);
            }
        }
        if spends {
            i.cts_credits.remove(&seq);
        }
        i.send_seq += 1;
        Ok(SendHandle { id: seq })
    }

    /// Streaming send (`send_stream_continue`): injects the chunk(s) covering
    /// `[offset, offset+len)` of the message, re-sending if already sent
    /// (retransmission). `offset` must be MTU-aligned.
    ///
    /// Each call reads the buffer as it stands when its packets are
    /// delivered (a retransmission carries the current bytes and a fresh
    /// CRC), so the range must stay unmodified until the peer's receive
    /// completes; a change in flight is caught at the receiving NIC and
    /// the packet repaired as a loss.
    ///
    /// `departed(chunk, at)` is called once per bitmap chunk the range
    /// touches, in order: `at` is the instant the last packet this call
    /// posted for `chunk` will have left the sender's wire — behind
    /// everything already queued on the device, so usually in the future.
    /// It is the send-completion time a signaled request would report, and
    /// the instant a reliability layer's round-trip clock for the chunk
    /// starts.
    pub fn send_stream_continue(
        &self,
        eng: &mut Engine,
        hdl: &SendHandle,
        offset: u64,
        len: u64,
        departed: impl FnMut(usize, SimTime),
    ) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        let st = i.sends.get(&hdl.id).ok_or(SdrError::BadHandle)?;
        if st.phase != Phase::Open {
            return Err(SdrError::StreamEnded);
        }
        if !offset.is_multiple_of(i.cfg.mtu_bytes) || offset + len > st.len {
            return Err(SdrError::TooLarge);
        }
        i.inject(eng, hdl.id, offset, len, departed)
    }

    /// Ends a streaming send (`send_stream_end`): no new chunks will follow.
    pub fn send_stream_end(&self, hdl: &SendHandle) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        let st = i.sends.get_mut(&hdl.id).ok_or(SdrError::BadHandle)?;
        if st.phase != Phase::Open {
            return Err(SdrError::StreamEnded);
        }
        st.phase = Phase::Ended;
        Ok(())
    }

    /// Polls a send for local completion (`send_poll`): `Ok(true)` once it
    /// has ended (a one-shot ends as it injects) and every range it
    /// injected has left the wire, `Ok(false)` until then. A deferred
    /// one-shot whose credit named a smaller buffer reports
    /// `Err(TooLarge)` — the one failure that comes after its post
    /// returned; the credit is spent and the send stays until released.
    pub fn send_poll(&self, hdl: &SendHandle) -> Result<bool, SdrError> {
        let i = self.inner.borrow();
        let st = i.sends.get(&hdl.id).ok_or(SdrError::BadHandle)?;
        match &st.phase {
            Phase::Failed(e) => Err(e.clone()),
            phase => Ok(*phase == Phase::Ended && st.outstanding_sig == 0),
        }
    }

    /// Releases a send handle in any phase; a deferred one-shot released
    /// before its credit lands never injects.
    pub fn send_release(&self, hdl: SendHandle) {
        self.inner.borrow_mut().sends.remove(&hdl.id);
    }

    /// Send contexts started and not yet [released](Self::send_release);
    /// zero on a QP whose transfers have all ended.
    pub fn live_sends(&self) -> usize {
        self.inner.borrow().sends.len()
    }

    // ------------------------------------------------------------------
    // Backend: completion processing
    // ------------------------------------------------------------------

    fn drain_recv(weak: &Weak<RefCell<QpInner>>, node: NodeId, cq: CqId, eng: &mut Engine) {
        let Some(inner) = weak.upgrade() else { return };
        let poll = || inner.borrow().fabric.node_mut(node, |n| n.poll_cq(cq));
        while let Some(cqe) = poll() {
            // Handle the CQE while holding the borrow, collecting any user
            // callback to run unborrowed.
            let notify = {
                let mut i = inner.borrow_mut();
                match cqe.op {
                    sdr_sim::CqeOp::RecvSend => i.handle_ctrl(eng, cqe),
                    sdr_sim::CqeOp::RecvWriteImm => i.handle_data_cqe(cqe),
                    sdr_sim::CqeOp::SendComplete => None,
                }
            };
            match notify {
                Some(Notify::Cts(seq, buf_len)) => {
                    let cb_opt = inner.borrow_mut().cts_callback.take();
                    if let Some(mut f) = cb_opt {
                        f(eng, seq, buf_len);
                        // Put it back unless the callback replaced it.
                        inner.borrow_mut().cts_callback.get_or_insert(f);
                    }
                }
                Some(Notify::Chunk(hook, chunk)) => hook(eng, chunk),
                None => {}
            }
        }
    }

    fn drain_send(weak: &Weak<RefCell<QpInner>>, node: NodeId, cq: CqId) {
        let Some(inner) = weak.upgrade() else { return };
        let poll = || inner.borrow().fabric.node_mut(node, |n| n.poll_cq(cq));
        while let Some(cqe) = poll() {
            if cqe.op == sdr_sim::CqeOp::SendComplete {
                let mut i = inner.borrow_mut();
                if let Some(st) = i.sends.get_mut(&cqe.wr_id) {
                    st.outstanding_sig = st.outstanding_sig.saturating_sub(1);
                    if st.outstanding_sig == 0 && st.phase == Phase::Ended {
                        i.stats.sends_completed += 1;
                    }
                }
            }
        }
    }
}

impl QpInner {
    /// The slot `hdl` names, unless a later receive has reused it.
    fn slot(&self, hdl: &RecvHandle) -> Result<&RecvSlot, SdrError> {
        let slot = Some(&self.recv_slots[hdl.slot]);
        slot.filter(|s| s.seq == hdl.seq).ok_or(SdrError::BadHandle)
    }

    /// The slot `hdl` names, while its receive is posted (not completed).
    fn posted(&self, hdl: &RecvHandle) -> Result<&RecvSlot, SdrError> {
        let posted = self.slot(hdl).ok().filter(|s| s.bitmap.is_some());
        posted.ok_or(SdrError::BadHandle)
    }

    /// Sends the clear-to-send credit for receive `seq` of `len` bytes:
    /// order-based matching means seq + length suffice.
    fn send_cts(&self, eng: &mut Engine, seq: u64, len: u64) -> Result<(), SdrError> {
        let remote_ctrl = self.remote.as_ref().ok_or(SdrError::NotConnected)?.ctrl;
        let ctrl_src = QpAddr {
            node: self.node,
            qp: self.ctrl_qp,
        };
        let cts = seal_cts(seq, len);
        Ok(self
            .fabric
            .post_ud_send(eng, ctrl_src, remote_ctrl, cts, None)?)
    }

    /// Generation of the internal UC QP that delivered a completion
    /// (`None` for a QP that is not one of ours).
    fn generation_of(&self, qp: QpNum) -> Option<usize> {
        let idx = qp.0.checked_sub(self.uc_qps[0].0)? as usize;
        (idx < self.uc_qps.len()).then(|| idx / self.cfg.channels)
    }

    /// Injects the packets of send `seq` covering `[offset, offset+len)`,
    /// a range of the message. One unreliable Write-with-immediate per
    /// MTU, round-robin across the generation's channels. `departed` hears
    /// when each chunk's last packet leaves the wire (see
    /// [`send_stream_continue`](SdrQp::send_stream_continue)).
    fn inject(
        &mut self,
        eng: &mut Engine,
        seq: u64,
        offset: u64,
        len: u64,
        mut departed: impl FnMut(usize, SimTime),
    ) -> Result<(), SdrError> {
        let st = self.sends.get_mut(&seq).ok_or(SdrError::BadHandle)?;
        let mtu = self.cfg.mtu_bytes;
        debug_assert!(offset.is_multiple_of(mtu) && offset + len <= st.len);
        let first_pkt = offset / mtu;
        let last_pkt = (offset + len).div_ceil(mtu); // exclusive
        if first_pkt >= last_pkt {
            return Ok(());
        }
        let remote = self.remote.as_ref().ok_or(SdrError::NotConnected)?;
        let (msg_id, gen) = slot_of(&self.cfg, seq);
        let root = remote.root_mkeys[gen];
        let channel_qps = &self.uc_qps[gen * self.cfg.channels..][..self.cfg.channels];
        let (cfg, rr) = (&self.cfg, &mut self.rr);
        let (user_imm, local_addr, total_len) = (st.user_imm, st.addr, st.len);

        // One work request per packet, each naming its MTU of the send
        // buffer; the whole range is posted under one fabric borrow.
        let wrs = (first_pkt..last_pkt).map(|pkt| {
            let lo = pkt * mtu;
            let hi = (lo + mtu).min(total_len);
            let frag = user_imm
                .map(|u| cfg.imm.user_fragment_for(u, pkt as u32))
                .unwrap_or(0);
            let ch = (*rr % channel_qps.len() as u64) as usize;
            *rr += 1;
            RegionWriteWr {
                qp: channel_qps[ch],
                local_addr: local_addr + lo,
                len: (hi - lo) as u32,
                remote_mkey: root,
                remote_offset: msg_id as u64 * cfg.max_msg_bytes + lo,
                imm: Some(cfg.imm.encode(msg_id as u32, pkt as u32, frag)),
                // End-to-end integrity: the per-packet payload CRC rides
                // the modeled transport header (alongside the immediate),
                // so wire payload corruption cannot touch it and the
                // receiving NIC can check the payload against it.
                checksum: true,
                wr_id: seq,
                signaled: pkt == last_pkt - 1,
            }
        });
        let ppc = cfg.packets_per_chunk();
        self.fabric
            .post_uc_region_writes(eng, self.node, wrs, |nth, at| {
                let pkt = first_pkt + nth as u64;
                if (pkt + 1).is_multiple_of(ppc) || pkt + 1 == last_pkt {
                    departed((pkt / ppc) as usize, at);
                }
            })?;
        // Only the last packet of the range was signaled.
        st.outstanding_sig += 1;
        Ok(())
    }

    /// The credit `(seq, peer_len)` landed for deferred one-shot `seq` and
    /// is spent on it: the send injects and ends, or fails `TooLarge` when
    /// the peer posted a smaller buffer. Out of line: inlined, it bloats
    /// the receive drain loop that every data packet runs.
    #[cold]
    #[inline(never)]
    fn fire_deferred(&mut self, eng: &mut Engine, seq: u64, peer_len: u64) {
        let st = self.sends.get_mut(&seq).expect("a deferred send");
        if st.len > peer_len {
            st.phase = Phase::Failed(SdrError::TooLarge);
            return;
        }
        st.phase = Phase::Ended;
        let len = st.len;
        if let Err(e) = self.inject(eng, seq, 0, len, |_, _| {}) {
            self.sends.get_mut(&seq).expect("live").phase = Phase::Failed(e);
        }
    }

    /// Control-path message: CTS credit. Returns it so the caller can fire
    /// callbacks outside the borrow.
    fn handle_ctrl(&mut self, eng: &mut Engine, cqe: sdr_sim::Cqe) -> Option<Notify> {
        if cqe.byte_len as usize != CTS_BYTES {
            return None;
        }
        let addr = cqe.wr_id; // wr_id carries the buffer address
        let (seq, len, intact) = self.fabric.node(self.node, |n| {
            let b = n.mem().read(addr, CTS_BYTES);
            let crc = u32::from_le_bytes(b[16..20].try_into().expect("length checked"));
            (
                u64::from_le_bytes(b[0..8].try_into().expect("length checked")),
                u64::from_le_bytes(b[8..16].try_into().expect("length checked")),
                sdr_erasure::crc32c(&b[..16]) == crc,
            )
        });
        // Repost the control buffer.
        let wqe = RecvWqe {
            wr_id: addr,
            addr,
            len: CTS_BYTES as u64,
        };
        self.fabric
            .node_mut(self.node, |n| n.post_recv(self.ctrl_qp, wqe));
        if !intact {
            // A corrupted CTS is indistinguishable from a lost one: drop
            // it here and let the receiver's resend cadence heal the
            // credit. Acting on a flipped seq/len would poison the
            // order-based matching state.
            self.stats.cts_corrupt += 1;
            return None;
        }
        // A credit is kept until its send opens, and a deferred one-shot
        // opened already: it takes its credit as it lands. A re-issued one
        // (a CTS heal that crossed the open, or a sequence skipped by
        // `align_send_seq`) has nothing left to open.
        match self.sends.get(&seq) {
            Some(st) if st.phase == Phase::Deferred => self.fire_deferred(eng, seq, len),
            _ if seq >= self.send_seq => {
                self.cts_credits.insert(seq, len);
            }
            _ => {}
        }
        self.stats.cts_received += 1;
        Some(Notify::Cts(seq, len))
    }

    /// Data-path completion: decode the immediate, apply the two-stage
    /// late-packet filters, update bitmaps (§3.2.4, §3.3). Returns the
    /// slot's chunk hook when this packet completed a chunk, for the caller
    /// to run outside the borrow.
    fn handle_data_cqe(&mut self, cqe: sdr_sim::Cqe) -> Option<Notify> {
        // Stage 1: writes that landed on the NULL key are late packets.
        if cqe.null_write {
            self.stats.late_null_discarded += 1;
            return None;
        }
        let Some(imm) = cqe.imm else {
            self.stats.bad_offset += 1;
            return None;
        };
        let (msg_id, pkt_offset, user_frag) = self.cfg.imm.decode(imm);
        let slot_idx = msg_id as usize;
        if slot_idx >= self.recv_slots.len() {
            self.stats.bad_offset += 1;
            return None;
        }
        // Stage 2: the generation of the delivering QP must match the
        // slot's current generation.
        let cqe_gen = self.generation_of(cqe.qp);
        let slot = &mut self.recv_slots[slot_idx];
        let Some(bitmap) = &slot.bitmap else {
            self.stats.inactive_slot_drops += 1;
            return None;
        };
        if cqe_gen != Some(slot_of(&self.cfg, slot.seq).1) {
            self.stats.generation_filtered += 1;
            return None;
        }
        if pkt_offset as usize >= bitmap.total_packets() {
            self.stats.bad_offset += 1;
            return None;
        }
        // End-to-end integrity. The NIC verified the payload against the
        // sender's CRC32C (carried in the modeled transport header) before
        // its DMA committed, and its verdict rides the CQE: for a payload
        // that landed, the CRC the NIC computed is recorded as is — the
        // bytes are not hashed a third time. Only when the NIC vouches
        // for nothing are the landed bytes read back and compared: it
        // skipped the DMA over a mismatch (so a corrupt duplicate over a
        // clean original still counts as a duplicate — memory matches the
        // sender's CRC), or the sender carried no CRC it could have
        // checked. A mismatch reclassifies corruption as a *loss* — the
        // bitmap bit stays clear, so the ordinary NACK/RTO repair
        // machinery resends the packet. No corrupted payload is ever
        // recorded as received.
        let landed = match cqe.check {
            PayloadCheck::Landed(crc) => crc,
            PayloadCheck::Skipped | PayloadCheck::Unchecked => {
                let base = slot.buf_addr + pkt_offset as u64 * self.cfg.mtu_bytes;
                let landed = self.fabric.node(self.node, |n| {
                    sdr_erasure::crc32c(n.mem().read(base, cqe.byte_len as usize))
                });
                if cqe.crc.is_some_and(|wire| wire != landed) {
                    self.stats.payload_corrupt += 1;
                    return None;
                }
                landed
            }
        };
        slot.arrival_crcs[pkt_offset as usize] = Some(landed);
        slot.imm_acc.absorb(&self.cfg.imm, pkt_offset, user_frag);
        let before = bitmap.packets().get(pkt_offset as usize);
        if before {
            self.stats.duplicate_packets += 1;
        } else {
            self.stats.packets_received += 1;
            self.highest_landed = self.highest_landed.max(Some(slot.seq));
        }
        let chunk = bitmap.record_packet(pkt_offset as usize)?;
        self.stats.chunks_completed += 1;
        let hook = slot.chunk_hook.as_ref()?;
        Some(Notify::Chunk(hook.clone(), chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::Phase;
    use crate::testkit::{sdr_pair, SdrPair};
    use crate::{ImmLayout, SdrConfig};
    use sdr_sim::LinkConfig;

    fn held_credits(p: &SdrPair) -> usize {
        p.qp_a.inner.borrow().cts_credits.len()
    }

    fn deferred_sends(p: &SdrPair) -> usize {
        let i = p.qp_a.inner.borrow();
        i.sends
            .values()
            .filter(|st| st.phase == Phase::Deferred)
            .count()
    }

    /// Order-based matching spends one credit per send it opens: after
    /// any number of transfers on one QP — one-shots posted before and
    /// after their receive, streams, a CTS heal that crosses the open —
    /// the sender holds one credit per posted receive it has not opened,
    /// not one per message the QP ever carried.
    #[test]
    fn a_credit_is_spent_when_its_send_opens() {
        let cfg = SdrConfig {
            max_msg_bytes: 1 << 16,
            msg_slots: 4,
            mtu_bytes: 4096,
            chunk_bytes: 4 * 4096,
            channels: 2,
            generations: 2,
            imm: ImmLayout::default(),
        };
        let mut p = sdr_pair(LinkConfig::intra_dc(8e9), cfg, 4 << 20);
        let len = 40_000;
        let src = p.ctx_a.alloc_buffer(len);
        let dst = p.ctx_b.alloc_buffer(len);
        for n in 0..12 {
            let (sh, rh) = match n % 3 {
                // One-shot whose credit is already there.
                0 => {
                    let rh = p.qp_b.recv_post(&mut p.eng, dst, len).unwrap();
                    p.eng.run();
                    assert_eq!(held_credits(&p), 1, "one unopened receive");
                    (p.qp_a.send_post(&mut p.eng, src, len, None).unwrap(), rh)
                }
                // One-shot deferred until its credit lands.
                1 => {
                    let sh = p.qp_a.send_post(&mut p.eng, src, len, None).unwrap();
                    p.eng.run();
                    assert_eq!(held_credits(&p), 0);
                    (sh, p.qp_b.recv_post(&mut p.eng, dst, len).unwrap())
                }
                // Stream, then a re-issued CTS after the open.
                _ => {
                    let rh = p.qp_b.recv_post(&mut p.eng, dst, len).unwrap();
                    p.eng.run();
                    let sh = p
                        .qp_a
                        .send_stream_start(&mut p.eng, src, len, None)
                        .unwrap();
                    p.qp_b.resend_cts(&mut p.eng, &rh).unwrap();
                    p.qp_a
                        .send_stream_continue(&mut p.eng, &sh, 0, len, |_, _| {})
                        .unwrap();
                    p.qp_a.send_stream_end(&sh).unwrap();
                    (sh, rh)
                }
            };
            p.eng.run();
            assert!(p.qp_b.recv_is_complete(&rh).unwrap(), "transfer {n}");
            assert!(p.qp_a.send_poll(&sh).unwrap(), "transfer {n}");
            p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();
            p.qp_a.send_release(sh);
            assert_eq!(held_credits(&p), 0, "after transfer {n}");
            assert_eq!(deferred_sends(&p), 0, "after transfer {n}");
        }
        assert_eq!(p.qp_a.stats().cts_received, 12 + 4, "the heals arrived");
    }
}
