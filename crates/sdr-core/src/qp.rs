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
    active: bool,
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
            active: false,
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

struct SendState {
    seq: u64,
    msg_id: u32,
    generation: u32,
    local_addr: u64,
    total_len: u64,
    user_imm: Option<u32>,
    peer_buf_len: u64,
    /// One-shot sends posted before their CTS arrived wait here.
    deferred_oneshot: bool,
    stream_open: bool,
    injected_any: bool,
    outstanding_sig: u32,
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
    /// A CTS credit `(seq, len)`: deferred one-shots, then the CTS callback.
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
    send_seq: u64,
    sends: IntMap<u64, SendState>,
    next_handle: u64,
    /// CTS credits received, keyed by send sequence.
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
                send_seq: 0,
                sends: IntMap::default(),
                next_handle: 0,
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
        let weak = Rc::downgrade(&self.inner);
        fabric.node_mut(node, |n| {
            n.set_cq_waker(
                recv_cq,
                Waker::new(move |eng| Self::drain_recv(&weak, node, recv_cq, eng)),
            );
        });
        let weak = Rc::downgrade(&self.inner);
        fabric.node_mut(node, |n| {
            n.set_cq_waker(
                send_cq,
                Waker::new(move |_eng| Self::drain_send(&weak, node, send_cq)),
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
        let slot = &mut i.recv_slots[hdl.slot];
        if slot.seq != hdl.seq || !slot.active {
            return Err(SdrError::BadHandle);
        }
        slot.chunk_hook = Some(Rc::new(hook));
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
        let slot = (seq % i.cfg.msg_slots as u64) as usize;
        let gen = ((seq / i.cfg.msg_slots as u64) % i.cfg.generations as u64) as u32;
        if i.recv_slots[slot].active {
            return Err(SdrError::SlotBusy);
        }
        i.recv_seq += 1;

        let total_packets = i.cfg.packets_for(len) as usize;
        let bitmap = Arc::new(TwoLevelBitmap::new(
            total_packets,
            i.cfg.packets_per_chunk() as u32,
        ));
        let (node, root) = (i.node, i.root_mkeys[gen as usize]);
        let buf_mkey = i.fabric.node_mut(node, |n| {
            let mk = n.reg_mr(addr, len);
            n.set_indirect_slot(root, slot, Some(mk));
            mk
        });
        i.recv_slots[slot] = RecvSlot {
            seq,
            active: true,
            bitmap: Some(bitmap),
            imm_acc: UserImmAccumulator::new(),
            buf_addr: addr,
            buf_mkey,
            arrival_crcs: vec![None; total_packets],
            buf_len: len,
            chunk_hook: None,
        };
        i.stats.recvs_posted += 1;

        // Clear-to-send: order-based matching means seq + length suffice.
        let remote_ctrl = i.remote.as_ref().expect("checked").ctrl;
        let ctrl_src = QpAddr {
            node: i.node,
            qp: i.ctrl_qp,
        };
        i.fabric
            .post_ud_send(eng, ctrl_src, remote_ctrl, seal_cts(seq, len), None)?;
        i.stats.cts_sent += 1;
        Ok(RecvHandle { slot, seq })
    }

    /// True when the next `count` receive posts would find their slots
    /// free. Order-based matching pins post `k` to slot
    /// `(recv_seq + k) % msg_slots`, so a caller pipelining many posts
    /// (the adaptive receiver) can throttle on table capacity instead of
    /// failing with `SlotBusy`.
    pub fn can_recv_post(&self, count: u64) -> bool {
        let i = self.inner.borrow();
        let slots = i.cfg.msg_slots as u64;
        if count > slots {
            return false;
        }
        (0..count).all(|k| {
            let slot = ((i.recv_seq + k) % slots) as usize;
            !i.recv_slots[slot].active
        })
    }

    /// Number of receive posts that would currently succeed back-to-back:
    /// the run of free slots starting at the next receive sequence. A
    /// multi-flow host sharding transfers over a QP table uses this for
    /// admission control — admit a flow only when its posts (data, and
    /// parity for EC) fit, park it otherwise.
    pub fn recv_slots_free(&self) -> u64 {
        let i = self.inner.borrow();
        let slots = i.cfg.msg_slots as u64;
        (0..slots)
            .take_while(|k| {
                let slot = ((i.recv_seq + k) % slots) as usize;
                !i.recv_slots[slot].active
            })
            .count() as u64
    }

    /// Re-sends the clear-to-send credit for a posted receive. CTS rides
    /// the unreliable control path and can drop; reliability layers call
    /// this when a posted buffer has seen no traffic for a while.
    pub fn resend_cts(&self, eng: &mut Engine, hdl: &RecvHandle) -> Result<(), SdrError> {
        let i = self.inner.borrow();
        let slot = &i.recv_slots[hdl.slot];
        if slot.seq != hdl.seq || !slot.active {
            return Err(SdrError::BadHandle);
        }
        let remote_ctrl = i.remote.as_ref().ok_or(SdrError::NotConnected)?.ctrl;
        let ctrl_src = QpAddr {
            node: i.node,
            qp: i.ctrl_qp,
        };
        let cts = seal_cts(hdl.seq, slot.buf_len);
        i.fabric
            .post_ud_send(eng, ctrl_src, remote_ctrl, cts, None)?;
        Ok(())
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
        let slot = &i.recv_slots[hdl.slot];
        if slot.seq != hdl.seq {
            return Err(SdrError::BadHandle);
        }
        slot.bitmap.clone().ok_or(SdrError::BadHandle)
    }

    /// The reassembled 32-bit user immediate, if every fragment has arrived
    /// (`recv_imm_get`).
    pub fn recv_imm_get(&self, hdl: &RecvHandle) -> Result<Option<u32>, SdrError> {
        let i = self.inner.borrow();
        let slot = &i.recv_slots[hdl.slot];
        if slot.seq != hdl.seq {
            return Err(SdrError::BadHandle);
        }
        Ok(slot.imm_acc.get(&i.cfg.imm))
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
        let slot = &i.recv_slots[hdl.slot];
        if slot.seq != hdl.seq {
            return Err(SdrError::BadHandle);
        }
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
        let slot = &i.recv_slots[hdl.slot];
        if slot.seq != hdl.seq || !slot.active {
            return Err(SdrError::BadHandle);
        }
        let buf_mkey = slot.buf_mkey;
        let gen = ((hdl.seq / i.cfg.msg_slots as u64) % i.cfg.generations as u64) as usize;
        let (node, root, null) = (i.node, i.root_mkeys[gen], i.null_mkey);
        i.fabric.node_mut(node, |n| {
            n.set_indirect_slot(root, hdl.slot, Some(null));
            n.dereg_mr(buf_mkey);
        });
        let s = &mut i.recv_slots[hdl.slot];
        s.active = false;
        s.bitmap = None;
        s.chunk_hook = None;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// One-shot send (`send_post`): transmits `[addr, addr+len)` from local
    /// memory as per-packet unreliable Writes. If the CTS credit for this
    /// message has not arrived yet, injection is deferred until it does.
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
        let hdl = self.send_start_common(addr, len, user_imm, false)?;
        self.try_inject_oneshot(eng, hdl)?;
        Ok(hdl)
    }

    /// Opens a streaming send (`send_stream_start`): allocates the message
    /// context without transmitting. Requires the CTS credit to be present
    /// (streams are driven by reliability layers that react to CTS via
    /// [`set_cts_callback`](Self::set_cts_callback)).
    pub fn send_stream_start(
        &self,
        _eng: &mut Engine,
        addr: u64,
        len: u64,
        user_imm: Option<u32>,
    ) -> Result<SendHandle, SdrError> {
        let hdl = self.send_start_common(addr, len, user_imm, true)?;
        let i = self.inner.borrow();
        let st = &i.sends[&hdl.id];
        if !i.cts_credits.contains_key(&st.seq) {
            drop(i);
            self.inner.borrow_mut().sends.remove(&hdl.id);
            // Roll back the sequence number we consumed.
            self.inner.borrow_mut().send_seq -= 1;
            return Err(SdrError::NoCts);
        }
        let peer_len = i.cts_credits[&st.seq];
        if len > peer_len {
            drop(i);
            self.inner.borrow_mut().sends.remove(&hdl.id);
            self.inner.borrow_mut().send_seq -= 1;
            return Err(SdrError::TooLarge);
        }
        Ok(hdl)
    }

    fn send_start_common(
        &self,
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
        i.send_seq += 1;
        let msg_id = (seq % i.cfg.msg_slots as u64) as u32;
        let generation = ((seq / i.cfg.msg_slots as u64) % i.cfg.generations as u64) as u32;
        let id = i.next_handle;
        i.next_handle += 1;
        i.sends.insert(
            id,
            SendState {
                seq,
                msg_id,
                generation,
                local_addr: addr,
                total_len: len,
                user_imm,
                peer_buf_len: 0,
                deferred_oneshot: false,
                stream_open: stream,
                injected_any: false,
                outstanding_sig: 0,
            },
        );
        Ok(SendHandle { id })
    }

    fn try_inject_oneshot(&self, eng: &mut Engine, hdl: SendHandle) -> Result<(), SdrError> {
        let ready = {
            let mut i = self.inner.borrow_mut();
            let st = i.sends.get(&hdl.id).ok_or(SdrError::BadHandle)?;
            let seq = st.seq;
            match i.cts_credits.get(&seq).copied() {
                Some(peer_len) => {
                    let st = i.sends.get_mut(&hdl.id).expect("checked");
                    if st.total_len > peer_len {
                        return Err(SdrError::TooLarge);
                    }
                    st.peer_buf_len = peer_len;
                    true
                }
                None => {
                    let st = i.sends.get_mut(&hdl.id).expect("checked");
                    st.deferred_oneshot = true;
                    false
                }
            }
        };
        if ready {
            self.inject_range(eng, hdl, 0, u64::MAX, |_, _| {})?;
        }
        Ok(())
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
        {
            let i = self.inner.borrow();
            let st = i.sends.get(&hdl.id).ok_or(SdrError::BadHandle)?;
            if !st.stream_open {
                return Err(SdrError::StreamEnded);
            }
            if !offset.is_multiple_of(i.cfg.mtu_bytes) || offset + len > st.total_len {
                return Err(SdrError::TooLarge);
            }
        }
        self.inject_range(eng, *hdl, offset, len, departed)
    }

    /// Ends a streaming send (`send_stream_end`): no new chunks will follow.
    pub fn send_stream_end(&self, hdl: &SendHandle) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        let st = i.sends.get_mut(&hdl.id).ok_or(SdrError::BadHandle)?;
        if !st.stream_open {
            return Err(SdrError::StreamEnded);
        }
        st.stream_open = false;
        Ok(())
    }

    /// Polls a send for local completion (`send_poll`): all injected packets
    /// serialized and (for one-shots / ended streams) nothing pending.
    pub fn send_poll(&self, hdl: &SendHandle) -> Result<bool, SdrError> {
        let i = self.inner.borrow();
        let st = i.sends.get(&hdl.id).ok_or(SdrError::BadHandle)?;
        Ok(st.injected_any && !st.stream_open && !st.deferred_oneshot && st.outstanding_sig == 0)
    }

    /// Releases a completed send handle.
    pub fn send_release(&self, hdl: SendHandle) {
        self.inner.borrow_mut().sends.remove(&hdl.id);
    }

    /// Send contexts started and not yet [released](Self::send_release).
    /// Every CTS credit walks them for deferred one-shots, so a sender that
    /// never releases makes each credit cost more than the last; zero on a
    /// QP whose transfers have all ended.
    pub fn live_sends(&self) -> usize {
        self.inner.borrow().sends.len()
    }

    /// Injects packets covering `[offset, offset+len)` (len `u64::MAX` =
    /// whole message). One unreliable Write-with-immediate per MTU,
    /// round-robin across the generation's channels. `departed` hears when
    /// each chunk's last packet leaves the wire (see
    /// [`send_stream_continue`](Self::send_stream_continue)).
    fn inject_range(
        &self,
        eng: &mut Engine,
        hdl: SendHandle,
        offset: u64,
        len: u64,
        mut departed: impl FnMut(usize, SimTime),
    ) -> Result<(), SdrError> {
        let mut i = self.inner.borrow_mut();
        let i = &mut *i;
        let st = i.sends.get_mut(&hdl.id).ok_or(SdrError::BadHandle)?;
        let mtu = i.cfg.mtu_bytes;
        let end = if len == u64::MAX {
            st.total_len
        } else {
            (offset + len).min(st.total_len)
        };
        debug_assert!(offset.is_multiple_of(mtu));
        let first_pkt = offset / mtu;
        let last_pkt = end.div_ceil(mtu); // exclusive
        if first_pkt >= last_pkt {
            return Ok(());
        }
        let remote = i.remote.as_ref().ok_or(SdrError::NotConnected)?;
        let root = remote.root_mkeys[st.generation as usize];
        let channel_qps = &i.uc_qps[st.generation as usize * i.cfg.channels..][..i.cfg.channels];
        let (cfg, rr) = (&i.cfg, &mut i.rr);
        let (msg_id, user_imm, local_addr, total_len) =
            (st.msg_id, st.user_imm, st.local_addr, st.total_len);

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
                imm: Some(cfg.imm.encode(msg_id, pkt as u32, frag)),
                // End-to-end integrity: the per-packet payload CRC rides
                // the modeled transport header (alongside the immediate),
                // so wire payload corruption cannot touch it and the
                // receiving NIC can check the payload against it.
                checksum: true,
                wr_id: hdl.id,
                signaled: pkt == last_pkt - 1,
            }
        });
        let ppc = cfg.packets_per_chunk();
        i.fabric
            .post_uc_region_writes(eng, i.node, wrs, |nth, at| {
                let pkt = first_pkt + nth as u64;
                if (pkt + 1).is_multiple_of(ppc) || pkt + 1 == last_pkt {
                    departed((pkt / ppc) as usize, at);
                }
            })?;
        // Only the last packet of the range was signaled.
        st.outstanding_sig += 1;
        st.injected_any = true;
        st.deferred_oneshot = false;
        Ok(())
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
                    sdr_sim::CqeOp::RecvSend => i.handle_ctrl(cqe),
                    sdr_sim::CqeOp::RecvWriteImm => i.handle_data_cqe(cqe),
                    sdr_sim::CqeOp::SendComplete => None,
                }
            };
            match notify {
                Some(Notify::Cts(seq, buf_len)) => {
                    // Fire deferred one-shots, then the user CTS callback.
                    SdrQp {
                        inner: inner.clone(),
                    }
                    .fire_deferred(eng, seq);
                    let cb_opt = inner.borrow_mut().cts_callback.take();
                    if let Some(mut f) = cb_opt {
                        f(eng, seq, buf_len);
                        // Put it back unless the callback replaced it.
                        let mut i = inner.borrow_mut();
                        if i.cts_callback.is_none() {
                            i.cts_callback = Some(f);
                        }
                    }
                }
                Some(Notify::Chunk(hook, chunk)) => hook(eng, chunk),
                None => {}
            }
        }
    }

    fn fire_deferred(&self, eng: &mut Engine, seq: u64) {
        let ready: Vec<SendHandle> = {
            let i = self.inner.borrow();
            i.sends
                .iter()
                .filter(|(_, st)| st.deferred_oneshot && st.seq == seq)
                .map(|(&id, _)| SendHandle { id })
                .collect()
        };
        for hdl in ready {
            // TooLarge here means the peer posted a smaller buffer than the
            // deferred send; surfaced via stats (send stays pending forever
            // would be worse), so inject is best-effort.
            let _ = self.try_inject_oneshot(eng, hdl);
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
                    if st.outstanding_sig == 0 && !st.stream_open {
                        i.stats.sends_completed += 1;
                    }
                }
            }
        }
    }
}

impl QpInner {
    /// Generation of the internal UC QP that delivered a completion
    /// (`None` for a QP that is not one of ours).
    fn generation_of(&self, qp: QpNum) -> Option<u32> {
        let idx = qp.0.checked_sub(self.uc_qps[0].0)? as usize;
        (idx < self.uc_qps.len()).then(|| (idx / self.cfg.channels) as u32)
    }

    /// Control-path message: CTS credit. Returns it so the caller can fire
    /// callbacks outside the borrow.
    fn handle_ctrl(&mut self, cqe: sdr_sim::Cqe) -> Option<Notify> {
        if cqe.byte_len as usize != CTS_BYTES {
            return None;
        }
        let (seq, len, intact, wqe_addr) = {
            let addr = cqe.wr_id; // wr_id carries the buffer address
            let fabric = self.fabric.clone();
            let (seq, len, intact) = fabric.node(self.node, |n| {
                let b = n.mem().read(addr, CTS_BYTES);
                let crc = u32::from_le_bytes(b[16..20].try_into().expect("length checked"));
                (
                    u64::from_le_bytes(b[0..8].try_into().expect("length checked")),
                    u64::from_le_bytes(b[8..16].try_into().expect("length checked")),
                    sdr_erasure::crc32c(&b[..16]) == crc,
                )
            });
            (seq, len, intact, addr)
        };
        // Repost the control buffer.
        let (node, ctrl_qp) = (self.node, self.ctrl_qp);
        self.fabric.node_mut(node, |n| {
            n.post_recv(
                ctrl_qp,
                RecvWqe {
                    wr_id: wqe_addr,
                    addr: wqe_addr,
                    len: CTS_BYTES as u64,
                },
            )
        });
        if !intact {
            // A corrupted CTS is indistinguishable from a lost one: drop
            // it here and let the receiver's resend cadence heal the
            // credit. Acting on a flipped seq/len would poison the
            // order-based matching state.
            self.stats.cts_corrupt += 1;
            return None;
        }
        self.cts_credits.insert(seq, len);
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
        if !slot.active {
            self.stats.inactive_slot_drops += 1;
            return None;
        }
        let slot_gen =
            ((slot.seq / self.cfg.msg_slots as u64) % self.cfg.generations as u64) as u32;
        if cqe_gen != Some(slot_gen) {
            self.stats.generation_filtered += 1;
            return None;
        }
        let Some(bitmap) = &slot.bitmap else {
            self.stats.inactive_slot_drops += 1;
            return None;
        };
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
        }
        let chunk = bitmap.record_packet(pkt_offset as usize)?;
        self.stats.chunks_completed += 1;
        let hook = slot.chunk_hook.as_ref()?;
        Some(Notify::Chunk(hook.clone(), chunk))
    }
}
