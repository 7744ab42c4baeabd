//! The fabric ties nodes together with links and implements the send-side
//! NIC datapath (fragmentation, serialization, send completions).
//!
//! Delivery pumps: each link files every serialized packet into its own
//! arrival-ordered queue ([`Link::enqueue`]) and the fabric keeps **one**
//! recurring drain event per busy link ([`Fabric::arm_pump`]) that walks
//! the queue at each arrival instant and re-arms itself in place — the
//! zero-allocation replacement for the old one-boxed-closure-per-packet
//! scheme. Packet fates are drawn by the loss process **at delivery
//! time**, inside the pump's [`Link::pop_due`] walk: a loss step, blackout
//! or flap applied mid-simulation (directly via
//! [`set_link_loss`](Fabric::set_link_loss) /
//! [`set_link_down`](Fabric::set_link_down), or scripted via
//! [`apply_fault_plan`](Fabric::apply_fault_plan)) claims packets that
//! were already in flight when it landed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::iter::once;
use std::rc::Rc;

use bytes::Bytes;
use sdr_trace::{EventKind, FlightRecorder, Registry};

use crate::engine::Engine;
use crate::fault::{FaultEvent, FaultHandle, FaultPlan, RestartSide};
use crate::hash::IntMap;
use crate::link::{Link, LinkConfig, LinkStats, TxOutcome};
use crate::loss::LossModel;
use crate::nic::{Cqe, CqeOp, Node, NodeStats, PayloadCheck, QpType};
use crate::packet::{MkeyId, NodeId, Packet, PacketKind, Payload, QpAddr, QpNum, WriteSeg};
use crate::time::SimTime;

/// Errors returned when posting work requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostError {
    /// The QP has no connected peer.
    NotConnected,
    /// No link exists between the two nodes.
    NoLink,
    /// The operation is not valid on this QP type.
    WrongQpType,
    /// A UD payload exceeded the link MTU.
    PayloadTooLarge,
}

/// An RDMA Write work request.
#[derive(Clone, Debug)]
pub struct WriteWr {
    /// Remote memory key to target.
    pub remote_mkey: MkeyId,
    /// Byte offset within the remote key's range.
    pub remote_offset: u64,
    /// Payload.
    pub data: Bytes,
    /// Immediate data delivered with the last packet.
    pub imm: Option<u32>,
    /// Payload checksum (CRC32C over `data`), delivered with the
    /// completing packet's CQE exactly like `imm`. Modeled as transport-
    /// header content: wire payload corruption does not perturb it.
    pub crc: Option<u32>,
    /// User cookie echoed in the send completion.
    pub wr_id: u64,
    /// Whether to generate a send completion.
    pub signaled: bool,
}

/// An RDMA Write work request that *names* its payload instead of
/// carrying it: `len` bytes at `local_addr` in the posting node's memory,
/// read by the NIC when the packet is delivered — the Verbs shape
/// (`addr`, `len`, `lkey`), with nothing copied at post time. The region
/// must stay unmodified until the peer has the data; with `checksum` set a
/// modification in flight is detected by the receiving NIC and the packet
/// is dropped there like a corrupt one.
#[derive(Clone, Copy, Debug)]
pub struct RegionWriteWr {
    /// Local UC QP to post on.
    pub qp: QpNum,
    /// Address of the payload in the posting node's memory.
    pub local_addr: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Remote memory key to target.
    pub remote_mkey: MkeyId,
    /// Byte offset within the remote key's range.
    pub remote_offset: u64,
    /// Immediate data delivered with the last packet.
    pub imm: Option<u32>,
    /// Have the NIC compute the payload's CRC32C as it is posted and carry
    /// it in the header, exactly like [`WriteWr::crc`].
    pub checksum: bool,
    /// User cookie echoed in the send completion.
    pub wr_id: u64,
    /// Whether to generate a send completion.
    pub signaled: bool,
}

/// One UC Write post, whichever way its payload is held.
struct UcWrite {
    remote_mkey: MkeyId,
    remote_offset: u64,
    data: Payload,
    imm: Option<u32>,
    crc: Option<u32>,
    wr_id: u64,
    signaled: bool,
}

struct FabricInner {
    nodes: Vec<Node>,
    /// Looked up on every post and every drain-pump firing.
    links: IntMap<(NodeId, NodeId), Link>,
    /// Per-node restart epoch: bumped on every [`Fabric::restart_node`].
    incarnations: Vec<u32>,
    /// Per-node attach flag: while `false` (the restart dead window),
    /// packets reaching the node are dropped at the port.
    attached: Vec<bool>,
    /// Packets dropped at a detached node's port.
    restart_drops: Vec<u64>,
}

/// A restart observer: called at the crash instant (after the node's
/// volatile state is gone) with the node's new incarnation, so the layer
/// above can tear down transfers and re-stamp its control plane.
type RestartHook = Box<dyn FnMut(&mut Engine, u32)>;

/// A shared handle to the simulated fabric.
///
/// Cloning is cheap (reference counted); all methods re-borrow internally so
/// handles can be captured by event closures.
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<RefCell<FabricInner>>,
    /// Restart observers, outside `inner` so a hook can re-enter the
    /// fabric freely.
    restart_hooks: Rc<RefCell<HashMap<NodeId, RestartHook>>>,
    /// Stack-wide metrics registry (`link.*` / `nic.*` read from `inner`;
    /// the layers above register their own `ctrl.*`/`flow.*`/… families).
    metrics: Registry,
    /// One flight recorder per node, created in [`add_node`](Self::add_node);
    /// every layer on that node records into the same ring.
    recorders: Rc<RefCell<Vec<FlightRecorder>>>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

/// Events each node's flight recorder retains (the forensic window).
const RECORDER_CAPACITY: usize = 1024;

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        let inner = Rc::new(RefCell::new(FabricInner {
            nodes: Vec::new(),
            links: IntMap::default(),
            incarnations: Vec::new(),
            attached: Vec::new(),
            restart_drops: Vec::new(),
        }));
        let metrics = Registry::new();
        metrics.source(&inner, |inner| {
            let inner = inner.borrow();
            // Zeroed stats lead, so an empty fabric names every fact too.
            let links = once(LinkStats::default()).chain(inner.links.values().map(Link::stats));
            let nodes = once(NodeStats::default()).chain(inner.nodes.iter().map(Node::stats));
            let mut facts: Vec<_> = links.flat_map(|s| s.facts()).collect();
            facts.extend(nodes.flat_map(|s| s.facts()));
            facts
        });
        Fabric {
            inner,
            restart_hooks: Rc::new(RefCell::new(HashMap::new())),
            metrics,
            recorders: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// The fabric's metrics registry: it reads `link.*` (Σ links'
    /// [`LinkStats`]) and `nic.*` (Σ nodes' [`NodeStats`]), and the
    /// reliability layers register their own families into it, so one
    /// snapshot covers the whole stack.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The flight recorder of `id` (a cheap shared handle). Every layer
    /// running on that node records into the same fixed-capacity ring.
    pub fn recorder(&self, id: NodeId) -> FlightRecorder {
        self.recorders.borrow()[id.0 as usize].clone()
    }

    /// Adds a node with `mem_capacity` bytes of memory.
    pub fn add_node(&self, mem_capacity: usize) -> NodeId {
        let mut inner = self.inner.borrow_mut();
        let id = NodeId(inner.nodes.len() as u32);
        inner.nodes.push(Node::new(id, mem_capacity));
        inner.incarnations.push(0);
        inner.attached.push(true);
        inner.restart_drops.push(0);
        self.recorders
            .borrow_mut()
            .push(FlightRecorder::new(RECORDER_CAPACITY));
        id
    }

    /// Crashes and restarts an endpoint: the node's incarnation is bumped,
    /// all its volatile NIC state (posted receives, unpolled
    /// completions, reassembly) is dropped, and the NIC stays detached —
    /// packets reaching the port, including everything in flight toward
    /// it, die there — until `dead_time` later. Registered memory
    /// survives, as does anything the layer above checkpointed.
    ///
    /// A hook registered via [`on_restart`](Self::on_restart) runs at the
    /// crash instant, after the state is gone, with the new incarnation.
    pub fn restart_node(&self, eng: &mut Engine, id: NodeId, dead_time: SimTime) {
        let idx = id.0 as usize;
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            inner.incarnations[idx] += 1;
            inner.attached[idx] = false;
            inner.nodes[idx].reset_volatile();
            let rec = &self.recorders.borrow()[idx];
            let now = eng.now().as_picos();
            rec.record(now, EventKind::FaultRestart, id.0 as u64, dead_time.0);
            rec.record(
                now,
                EventKind::Incarnation,
                id.0 as u64,
                inner.incarnations[idx] as u64,
            );
        }
        let fab = self.clone();
        eng.schedule_in(dead_time, move |_| {
            fab.inner.borrow_mut().attached[idx] = true;
        });
        // Take the hook out while it runs so it can re-enter the fabric
        // (and even re-register itself).
        let hook = self.restart_hooks.borrow_mut().remove(&id);
        if let Some(mut h) = hook {
            let inc = self.inner.borrow().incarnations[idx];
            h(eng, inc);
            self.restart_hooks.borrow_mut().entry(id).or_insert(h);
        }
    }

    /// Registers (or replaces) the restart observer for `id` — see
    /// [`restart_node`](Self::restart_node).
    pub fn on_restart(&self, id: NodeId, hook: impl FnMut(&mut Engine, u32) + 'static) {
        self.restart_hooks.borrow_mut().insert(id, Box::new(hook));
    }

    /// The node's restart epoch (0 until its first restart).
    pub fn node_incarnation(&self, id: NodeId) -> u32 {
        self.inner.borrow().incarnations[id.0 as usize]
    }

    /// False while the node is inside a restart dead window.
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.inner.borrow().attached[id.0 as usize]
    }

    /// Packets that died at the node's port while it was detached.
    pub fn restart_drops(&self, id: NodeId) -> u64 {
        self.inner.borrow().restart_drops[id.0 as usize]
    }

    /// Installs a unidirectional link `a → b`, returning `Err` (and
    /// installing nothing) when the configuration is invalid (see
    /// [`Link::try_new`]).
    pub fn try_link(&self, a: NodeId, b: NodeId, cfg: LinkConfig) -> Result<(), String> {
        let link = Link::try_new(cfg)?;
        self.inner.borrow_mut().links.insert((a, b), link);
        Ok(())
    }

    /// Installs a symmetric pair of links between `a` and `b`, giving the
    /// reverse direction an independent loss/jitter seed. Returns `Err`
    /// (installing neither direction) on an invalid configuration.
    pub fn try_link_duplex(&self, a: NodeId, b: NodeId, cfg: LinkConfig) -> Result<(), String> {
        cfg.loss.validate()?;
        let mut rev = cfg.clone();
        rev.seed = cfg.seed.wrapping_add(0x5EED_0001);
        self.try_link(a, b, cfg)?;
        self.try_link(b, a, rev)
    }

    /// Installs a unidirectional link `a → b`.
    ///
    /// # Panics
    /// Panics on an invalid configuration; use
    /// [`try_link`](Self::try_link) for a recoverable error.
    pub fn link(&self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.try_link(a, b, cfg)
            .expect("invalid link configuration");
    }

    /// Installs a symmetric pair of links between `a` and `b`, giving the
    /// reverse direction an independent loss/jitter seed.
    ///
    /// # Panics
    /// Panics on an invalid configuration; use
    /// [`try_link_duplex`](Self::try_link_duplex) for a recoverable error.
    pub fn link_duplex(&self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.try_link_duplex(a, b, cfg)
            .expect("invalid link configuration");
    }

    /// Runs `f` with shared access to a node.
    pub fn node<R>(&self, id: NodeId, f: impl FnOnce(&Node) -> R) -> R {
        f(&self.inner.borrow().nodes[id.0 as usize])
    }

    /// Runs `f` with exclusive access to a node.
    pub fn node_mut<R>(&self, id: NodeId, f: impl FnOnce(&mut Node) -> R) -> R {
        f(&mut self.inner.borrow_mut().nodes[id.0 as usize])
    }

    /// Returns the block `[addr, addr + len)` of `node`'s memory to its
    /// allocator ([`Memory::free`](crate::Memory::free)) — safe at any
    /// moment of a transfer's life: packets still in flight that name
    /// bytes of the block (a [`Payload::Region`] is read at delivery) are
    /// first given their own copy, so whoever is handed the block next may
    /// rewrite it at once and the stragglers still deliver the bytes they
    /// were posted with.
    ///
    /// # Panics
    /// Panics unless `(addr, len)` is exactly a live block of that node.
    pub fn free_region(&self, node: NodeId, addr: u64, len: u64) {
        let mut inner = self.inner.borrow_mut();
        let FabricInner { nodes, links, .. } = &mut *inner;
        let mem = nodes[node.0 as usize].mem_mut();
        for ((from, _), link) in links.iter_mut() {
            if *from == node {
                link.detach_region(mem, addr, len);
            }
        }
        mem.free(addr, len);
    }

    /// MTU of the link `src → dst`.
    pub fn mtu(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.inner
            .borrow()
            .links
            .get(&(src, dst))
            .map(|l| l.config().mtu)
    }

    /// Round-trip propagation delay between two nodes (sum of both one-way
    /// link delays), ignoring serialization.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        let inner = self.inner.borrow();
        let ab = inner.links.get(&(a, b))?.config().one_way_delay;
        let ba = inner.links.get(&(b, a))?.config().one_way_delay;
        Some(ab + ba)
    }

    /// Statistics of the link `a → b`.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> Option<LinkStats> {
        self.inner.borrow().links.get(&(a, b)).map(|l| l.stats())
    }

    /// Instant at which every serialization path of the link `a → b` is idle
    /// again — i.e. when everything already enqueued (data, control
    /// datagrams, retransmissions alike) will have left the wire. Senders
    /// that arbitrate a shared link use this cursor to pace injection: keep
    /// the wire busy up to a small horizon ahead of now, no further, so
    /// per-flow scheduling decisions stay late-bound instead of being baked
    /// into a deep device queue.
    pub fn tx_busy_until(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        self.inner
            .borrow()
            .links
            .get(&(a, b))
            .map(|l| l.next_free())
    }

    /// Number of packets currently queued or in flight on the link `a → b`.
    pub fn tx_in_flight(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.inner
            .borrow()
            .links
            .get(&(a, b))
            .map(|l| l.in_flight())
    }

    /// Replaces the loss model of the link `a → b` mid-simulation. Returns
    /// `false` when no such link exists. Schedule this from an engine event
    /// to model loss steps (a congestion episode starting or clearing).
    pub fn set_link_loss(&self, a: NodeId, b: NodeId, model: LossModel) -> bool {
        match self.inner.borrow_mut().links.get_mut(&(a, b)) {
            Some(link) => {
                link.set_loss(model);
                true
            }
            None => false,
        }
    }

    /// Replaces the loss model in both directions between `a` and `b`.
    pub fn set_loss_duplex(&self, a: NodeId, b: NodeId, model: LossModel) -> bool {
        let ab = self.set_link_loss(a, b, model.clone());
        let ba = self.set_link_loss(b, a, model);
        ab && ba
    }

    /// Replaces the corruption parameters of the link `a → b`
    /// mid-simulation (see [`Link::set_corruption`]). Fate is drawn at
    /// delivery time, so the new rate also claims packets already in
    /// flight. Returns `false` when no such link exists.
    pub fn set_link_corruption(&self, a: NodeId, b: NodeId, p: f64, max_run: u32) -> bool {
        match self.inner.borrow_mut().links.get_mut(&(a, b)) {
            Some(link) => {
                link.set_corruption(p, max_run);
                true
            }
            None => false,
        }
    }

    /// Replaces the corruption parameters in both directions between `a`
    /// and `b`.
    pub fn set_corruption_duplex(&self, a: NodeId, b: NodeId, p: f64, max_run: u32) -> bool {
        let ab = self.set_link_corruption(a, b, p, max_run);
        let ba = self.set_link_corruption(b, a, p, max_run);
        ab && ba
    }

    /// Raises or clears the hard-blackout flag on the link `a → b` (see
    /// [`Link::set_down`]). Returns `false` when no such link exists.
    pub fn set_link_down(&self, a: NodeId, b: NodeId, down: bool) -> bool {
        match self.inner.borrow_mut().links.get_mut(&(a, b)) {
            Some(link) => {
                link.set_down(down);
                true
            }
            None => false,
        }
    }

    /// Applies `model` to `a → b`, and to `b → a` too when `duplex`.
    fn fault_set_loss(&self, a: NodeId, b: NodeId, duplex: bool, model: LossModel) {
        self.set_link_loss(a, b, model.clone());
        if duplex {
            self.set_link_loss(b, a, model);
        }
    }

    /// Sets the down flag on `a → b`, and on `b → a` too when `duplex`.
    fn fault_set_down(&self, a: NodeId, b: NodeId, duplex: bool, down: bool) {
        self.set_link_down(a, b, down);
        if duplex {
            self.set_link_down(b, a, down);
        }
    }

    /// Records a fault-injection event into both endpoints' recorders —
    /// a link fault is observable (and forensically relevant) from either
    /// side.
    fn record_fault(&self, at: SimTime, a: NodeId, b: NodeId, kind: EventKind, pa: u64, pb: u64) {
        let recs = self.recorders.borrow();
        for id in [a, b] {
            if let Some(r) = recs.get(id.0 as usize) {
                r.record(at.as_picos(), kind, pa, pb);
            }
        }
    }

    /// Schedules a [`FaultPlan`] against the link `a → b` (both directions
    /// when the plan is duplex). Each event rides one cancellable engine
    /// timer — a multi-phase event (blackout heal, flap cycles, drift
    /// steps) re-arms its own timer in place, so the returned
    /// [`FaultHandle`] can cancel the whole script at any point. Plans are
    /// finite: once every event has played out, no timers remain.
    ///
    /// Returns `Err` without scheduling anything when the plan fails
    /// [`FaultPlan::validate`].
    pub fn apply_fault_plan(
        &self,
        eng: &mut Engine,
        a: NodeId,
        b: NodeId,
        plan: &FaultPlan,
    ) -> Result<FaultHandle, String> {
        plan.validate()?;
        let duplex = plan.duplex;
        let mut handle = FaultHandle::default();
        for ev in plan.events.iter().cloned() {
            let fab = self.clone();
            let h = match ev {
                FaultEvent::SetLoss { at, model } => eng.schedule_recurring_at(at, move |eng| {
                    fab.record_fault(eng.now(), a, b, EventKind::FaultLoss, 0, 0);
                    fab.fault_set_loss(a, b, duplex, model.clone());
                    None
                }),
                FaultEvent::Blackout { at, duration } => {
                    let mut healed = false;
                    eng.schedule_recurring_at(at, move |eng| {
                        if healed {
                            fab.record_fault(
                                eng.now(),
                                a,
                                b,
                                EventKind::FaultBlackout,
                                0,
                                duration.0,
                            );
                            fab.fault_set_down(a, b, duplex, false);
                            None
                        } else {
                            healed = true;
                            fab.record_fault(
                                eng.now(),
                                a,
                                b,
                                EventKind::FaultBlackout,
                                1,
                                duration.0,
                            );
                            fab.fault_set_down(a, b, duplex, true);
                            Some(eng.now().saturating_add(duration))
                        }
                    })
                }
                FaultEvent::Flap {
                    at,
                    cycles,
                    down,
                    up,
                } => {
                    let total = 2 * cycles;
                    let mut fired = 0u32;
                    eng.schedule_recurring_at(at, move |eng| {
                        let going_down = fired.is_multiple_of(2);
                        fab.record_fault(
                            eng.now(),
                            a,
                            b,
                            EventKind::FaultFlap,
                            going_down as u64,
                            (total - fired) as u64 / 2,
                        );
                        fab.fault_set_down(a, b, duplex, going_down);
                        fired += 1;
                        if fired >= total {
                            // The last firing is always an "up": the link
                            // is left healed.
                            None
                        } else {
                            let dwell = if going_down { down } else { up };
                            Some(eng.now().saturating_add(dwell))
                        }
                    })
                }
                FaultEvent::PeerRestart {
                    at,
                    side,
                    dead_time,
                } => {
                    let node = match side {
                        RestartSide::A => a,
                        RestartSide::B => b,
                    };
                    eng.schedule_recurring_at(at, move |eng| {
                        fab.restart_node(eng, node, dead_time);
                        None
                    })
                }
                FaultEvent::Drift {
                    at,
                    period,
                    steps,
                    floor_p,
                    peak_p,
                    cycles,
                } => {
                    let total = steps * cycles;
                    let step_dt = period / steps as u64;
                    let mut fired = 0u32;
                    eng.schedule_recurring_at(at, move |eng| {
                        // Triangular sweep in log space: floor → peak →
                        // floor across each period.
                        let phase = (fired % steps) as f64 / steps as f64;
                        let tri = 1.0 - (2.0 * phase - 1.0).abs();
                        let p = floor_p * (peak_p / floor_p).powf(tri);
                        fab.record_fault(
                            eng.now(),
                            a,
                            b,
                            EventKind::FaultDrift,
                            fired as u64,
                            (p * 1e6) as u64,
                        );
                        fired += 1;
                        if fired >= total {
                            fab.fault_set_loss(a, b, duplex, LossModel::Iid { p: floor_p });
                            None
                        } else {
                            fab.fault_set_loss(a, b, duplex, LossModel::Iid { p });
                            Some(eng.now().saturating_add(step_dt))
                        }
                    })
                }
            };
            handle.timers.push(h);
        }
        Ok(handle)
    }

    /// Makes sure the drain pump of `link` (installed under `key`) is armed
    /// at its earliest pending arrival: arms a fresh recurring event for an
    /// idle link, re-arms the existing one when a jittered/multipath
    /// arrival landed ahead of it, and otherwise does nothing. Call after
    /// any enqueue, under the same borrow.
    fn arm_pump(&self, eng: &mut Engine, key: (NodeId, NodeId), link: &mut Link) {
        match (link.drain_state(), link.next_arrival()) {
            (None, Some(t)) => {
                debug_assert!(
                    t >= eng.now(),
                    "arm_pump in the past: key={key:?} t={t:?} now={:?}",
                    eng.now()
                );
                let fab = self.clone();
                let h = eng.schedule_recurring_at(t, move |eng| fab.drain_link(eng, key));
                link.set_drain(Some((h, t)));
            }
            // A `false` from `reschedule` means the pump is mid-fire; its
            // own re-arm return value will pick the new head up.
            (Some((h, armed)), Some(t)) if t < armed && eng.reschedule(h, t) => {
                link.set_drain(Some((h, t)));
            }
            _ => {}
        }
    }

    /// One firing of a link's drain pump: deliver everything due now, then
    /// re-arm at the next pending arrival (or park until the next busy
    /// period when the queue drained).
    fn drain_link(&self, eng: &mut Engine, key: (NodeId, NodeId)) -> Option<SimTime> {
        let mut inner = self.inner.borrow_mut();
        let FabricInner {
            nodes,
            links,
            attached,
            restart_drops,
            ..
        } = &mut *inner;
        let link = links.get_mut(&key)?;
        while let Some(pkt) = link.pop_due(eng.now(), nodes[key.0 .0 as usize].mem()) {
            deliver(nodes, attached, restart_drops, eng, pkt);
        }
        match link.next_arrival() {
            Some(t) => {
                if let Some((h, _)) = link.drain_state() {
                    link.set_drain(Some((h, t)));
                }
                Some(t)
            }
            None => {
                link.set_drain(None);
                None
            }
        }
    }

    /// Posts an RDMA Write on a UC QP. The payload is fragmented into
    /// MTU-sized packets (`Only` for single-packet messages, else
    /// `First/Middle/Last`), each serialized in order on the link. The send
    /// completion (if `signaled`) is raised when the last packet finishes
    /// serializing — drops do not affect it (UC has no acks).
    pub fn post_uc_write(
        &self,
        eng: &mut Engine,
        src: QpAddr,
        wr: WriteWr,
    ) -> Result<(), PostError> {
        self.post_uc_write_seg(eng, src, wr, false)
    }

    /// Like [`post_uc_write`](Self::post_uc_write) but forces *every* packet
    /// to be an independent single-packet message (`WriteSeg::Only`) with its
    /// own immediate — the SDR per-packet strategy (paper §3.2.1). The
    /// per-packet immediate is produced by the caller via offsets in `wr.imm`
    /// being ignored; use one call per packet instead for distinct
    /// immediates. This variant exists for bulk data without immediates.
    pub fn post_uc_write_per_packet(
        &self,
        eng: &mut Engine,
        src: QpAddr,
        wr: WriteWr,
    ) -> Result<(), PostError> {
        self.post_uc_write_seg(eng, src, wr, true)
    }

    fn post_uc_write_seg(
        &self,
        eng: &mut Engine,
        src: QpAddr,
        wr: WriteWr,
        per_packet: bool,
    ) -> Result<(), PostError> {
        let mut inner = self.inner.borrow_mut();
        let FabricInner { nodes, links, .. } = &mut *inner;
        let node = &mut nodes[src.node.0 as usize];
        let dst = uc_peer(node, src.qp)?;
        let key = (src.node, dst.node);
        let link = links.get_mut(&key).ok_or(PostError::NoLink)?;
        let write = UcWrite {
            remote_mkey: wr.remote_mkey,
            remote_offset: wr.remote_offset,
            data: wr.data.into(),
            imm: wr.imm,
            crc: wr.crc,
            wr_id: wr.wr_id,
            signaled: wr.signaled,
        };
        self.enqueue_write(eng, node, link, src, dst, write, per_packet);
        Ok(())
    }

    /// Posts a run of single-message RDMA Writes out of `node`'s memory
    /// (see [`RegionWriteWr`]) under one fabric borrow. Each request is
    /// packetised, completed and pumped exactly as if it had been posted
    /// alone through [`post_uc_write`](Self::post_uc_write) — the engine
    /// sees the same operations in the same order — but the payload is
    /// never copied: the packets name the memory and the receiving NIC
    /// reads it at delivery.
    ///
    /// `departs(n, at)` hears, for the `n`-th request of the run, the
    /// instant its last packet will have left the wire behind everything
    /// queued ahead of it — the time its send completion fires when
    /// signaled.
    ///
    /// `wrs` and `departs` run while the fabric is borrowed, so they must
    /// not call back into it. Requests ahead of a failing one stay posted.
    pub fn post_uc_region_writes(
        &self,
        eng: &mut Engine,
        node: NodeId,
        wrs: impl IntoIterator<Item = RegionWriteWr>,
        mut departs: impl FnMut(usize, SimTime),
    ) -> Result<(), PostError> {
        let mut inner = self.inner.borrow_mut();
        let FabricInner { nodes, links, .. } = &mut *inner;
        let local = &mut nodes[node.0 as usize];
        // The link of the previous request: a run normally has one peer.
        let mut route: Option<(NodeId, &mut Link)> = None;
        for (n, wr) in wrs.into_iter().enumerate() {
            let src = QpAddr { node, qp: wr.qp };
            let dst = uc_peer(local, wr.qp)?;
            if route.as_ref().map(|(to, _)| *to) != Some(dst.node) {
                let link = links.get_mut(&(node, dst.node)).ok_or(PostError::NoLink)?;
                route = Some((dst.node, link));
            }
            let link = &mut *route.as_mut().expect("set above").1;
            let crc = wr
                .checksum
                .then(|| sdr_erasure::crc32c(local.mem().read(wr.local_addr, wr.len as usize)));
            let write = UcWrite {
                remote_mkey: wr.remote_mkey,
                remote_offset: wr.remote_offset,
                data: Payload::Region {
                    node,
                    addr: wr.local_addr,
                    len: wr.len,
                    clock: local.mem().clock(),
                },
                imm: wr.imm,
                crc,
                wr_id: wr.wr_id,
                signaled: wr.signaled,
            };
            departs(
                n,
                self.enqueue_write(eng, local, link, src, dst, write, false),
            );
        }
        Ok(())
    }

    /// Fragments one write into MTU-sized packets on `link`, schedules its
    /// send completion and makes sure the link's pump is armed. Returns
    /// the instant the last of those packets leaves the wire.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_write(
        &self,
        eng: &mut Engine,
        node: &mut Node,
        link: &mut Link,
        src: QpAddr,
        dst: QpAddr,
        wr: UcWrite,
        per_packet: bool,
    ) -> SimTime {
        let mtu = link.config().mtu;
        let total = wr.data.len();
        let n_pkts = if total == 0 { 1 } else { total.div_ceil(mtu) };
        for i in 0..n_pkts {
            let lo = i * mtu;
            let hi = ((i + 1) * mtu).min(total);
            let payload = wr.data.slice(lo, hi);
            let seg = if per_packet || n_pkts == 1 {
                WriteSeg::Only
            } else if i == 0 {
                WriteSeg::First
            } else if i == n_pkts - 1 {
                WriteSeg::Last
            } else {
                WriteSeg::Middle
            };
            let (mkey, offset, imm, crc) = match seg {
                WriteSeg::Only => {
                    let last = i == n_pkts - 1;
                    (
                        wr.remote_mkey,
                        wr.remote_offset + lo as u64,
                        if last { wr.imm } else { None },
                        if last { wr.crc } else { None },
                    )
                }
                WriteSeg::First => (wr.remote_mkey, wr.remote_offset, None, None),
                WriteSeg::Middle => (wr.remote_mkey, 0, None, None),
                WriteSeg::Last => (wr.remote_mkey, 0, wr.imm, wr.crc),
            };
            let pkt = Packet {
                src,
                dst,
                psn: node.next_psn(src.qp),
                kind: PacketKind::Write {
                    seg,
                    mkey,
                    offset,
                    imm,
                    crc,
                },
                payload,
            };
            link.enqueue(eng.now(), pkt);
        }

        // All packets of this post have been placed on the wire; the last
        // of them leaves it when the wire is idle again.
        let done_at = link.next_free();
        if wr.signaled {
            let fabric = self.clone();
            let (cq, qp, wr_id) = (node.qp_send_cq(src.qp), src.qp, wr.wr_id);
            let byte_len = total as u32;
            let node_id = src.node;
            eng.schedule_at(done_at, move |eng| {
                fabric.node_mut(node_id, |n| {
                    n.push_cqe(
                        eng,
                        cq,
                        Cqe {
                            qp,
                            op: CqeOp::SendComplete,
                            imm: None,
                            crc: None,
                            byte_len,
                            src: None,
                            wr_id,
                            null_write: false,
                            check: PayloadCheck::Unchecked,
                        },
                    )
                });
            });
        }
        self.arm_pump(eng, (src.node, dst.node), link);
        done_at
    }

    /// Posts a UD send (single datagram ≤ MTU) to an explicit destination.
    pub fn post_ud_send(
        &self,
        eng: &mut Engine,
        src: QpAddr,
        dst: QpAddr,
        data: Bytes,
        imm: Option<u32>,
    ) -> Result<(), PostError> {
        let key = (src.node, dst.node);
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let node = &mut inner.nodes[src.node.0 as usize];
        if node.qp_type(src.qp) != QpType::Ud {
            return Err(PostError::WrongQpType);
        }
        let link = inner.links.get_mut(&key).ok_or(PostError::NoLink)?;
        if data.len() > link.config().mtu {
            return Err(PostError::PayloadTooLarge);
        }
        let pkt = Packet {
            src,
            dst,
            psn: node.next_psn(src.qp),
            kind: PacketKind::Send { imm },
            payload: data.into(),
        };
        link.enqueue(eng.now(), pkt);
        self.arm_pump(eng, key, link);
        Ok(())
    }

    /// Injects a hand-built packet, bypassing the post paths' QP checks
    /// (how tests put a stale or malformed packet on the wire). Returns
    /// the transmit outcome.
    pub fn send_raw(&self, eng: &mut Engine, pkt: Packet) -> Result<TxOutcome, PostError> {
        let key = (pkt.src.node, pkt.dst.node);
        let mut inner = self.inner.borrow_mut();
        let link = inner.links.get_mut(&key).ok_or(PostError::NoLink)?;
        let out = link.enqueue(eng.now(), pkt);
        self.arm_pump(eng, key, link);
        Ok(out)
    }
}

/// The connected peer of UC QP `qp` on `node`.
fn uc_peer(node: &Node, qp: QpNum) -> Result<QpAddr, PostError> {
    if node.qp_type(qp) != QpType::Uc {
        return Err(PostError::WrongQpType);
    }
    node.qp_peer(qp).ok_or(PostError::NotConnected)
}

/// Hands a packet that survived the wire to its destination NIC, resolving
/// a [`Payload::Region`] against the sender's memory on the way: the
/// receiving NIC verifies and copies straight out of the source buffer,
/// told whether any source page was written since the post (only then can
/// the bytes differ from what the sending NIC hashed).
fn deliver(
    nodes: &mut [Node],
    attached: &[bool],
    restart_drops: &mut [u64],
    eng: &mut Engine,
    pkt: Packet,
) {
    let dst = pkt.dst.node.0 as usize;
    if dst >= nodes.len() {
        return;
    }
    if !attached[dst] {
        // Restart dead window: the packet reaches a dead port.
        restart_drops[dst] += 1;
        return;
    }
    match &pkt.payload {
        Payload::Owned(bytes) => nodes[dst].handle_packet(eng, &pkt, bytes, false),
        Payload::Region {
            node,
            addr,
            len,
            clock,
        } => {
            let (src, addr, len) = (node.0 as usize, *addr, *len as usize);
            let as_posted = !nodes[src].mem().written_since(addr, len, *clock);
            if src == dst {
                // A node cannot lend its memory and be written at once.
                let copy = nodes[src].mem().read(addr, len).to_vec();
                nodes[dst].handle_packet(eng, &pkt, &copy, as_posted);
            } else {
                let (lo, hi) = nodes.split_at_mut(src.max(dst));
                let (from, to) = if src < dst {
                    (&lo[src], &mut hi[0])
                } else {
                    (&hi[0], &mut lo[dst])
                };
                to.handle_packet(eng, &pkt, from.mem().read(addr, len), as_posted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossModel;
    use crate::nic::RecvWqe;

    /// Two nodes, duplex lossless 8 Gbit/s link, one UC QP pair.
    fn two_node_uc(p_drop: f64) -> (Engine, Fabric, QpAddr, QpAddr) {
        let eng = Engine::new();
        let fab = Fabric::new();
        let a = fab.add_node(1 << 20);
        let b = fab.add_node(1 << 20);
        let mut cfg = LinkConfig::intra_dc(8e9);
        cfg.loss = LossModel::Iid { p: p_drop };
        cfg.seed = 33;
        fab.link_duplex(a, b, cfg);
        let qa = fab.node_mut(a, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Uc, cq, cq)
        });
        let qb = fab.node_mut(b, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Uc, cq, cq)
        });
        let addr_a = QpAddr { node: a, qp: qa };
        let addr_b = QpAddr { node: b, qp: qb };
        fab.node_mut(a, |n| n.connect_qp(qa, addr_b));
        fab.node_mut(b, |n| n.connect_qp(qb, addr_a));
        (eng, fab, addr_a, addr_b)
    }

    #[test]
    fn end_to_end_write_with_imm() {
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(8192));
        fab.post_uc_write(
            &mut eng,
            a,
            WriteWr {
                remote_mkey: mr.mkey,
                remote_offset: 64,
                data: Bytes::from_static(b"planetary"),
                imm: Some(11),
                crc: None,
                wr_id: 5,
                signaled: true,
            },
        )
        .unwrap();
        eng.run();
        fab.node_mut(b.node, |n| {
            assert_eq!(n.mem().read(mr.addr + 64, 9), b"planetary");
            let cqe = n.poll_cq(crate::packet::CqId(0)).unwrap();
            assert_eq!(cqe.imm, Some(11));
        });
        // Sender got its send completion too.
        fab.node_mut(a.node, |n| {
            let cqe = n.poll_cq(crate::packet::CqId(0)).unwrap();
            assert_eq!(cqe.op, CqeOp::SendComplete);
            assert_eq!(cqe.wr_id, 5);
        });
    }

    #[test]
    fn large_write_fragments_and_reassembles() {
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(64 * 1024));
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        fab.post_uc_write(
            &mut eng,
            a,
            WriteWr {
                remote_mkey: mr.mkey,
                remote_offset: 0,
                data: Bytes::from(data.clone()),
                imm: Some(1),
                crc: None,
                wr_id: 0,
                signaled: false,
            },
        )
        .unwrap();
        eng.run();
        fab.node_mut(b.node, |n| {
            assert_eq!(n.mem().read(mr.addr, 20_000), &data[..]);
            assert_eq!(n.poll_cq(crate::packet::CqId(0)).unwrap().byte_len, 20_000);
        });
    }

    #[test]
    fn lossy_multi_packet_message_never_completes() {
        let (mut eng, fab, a, b) = two_node_uc(0.2);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(256 * 1024));
        // 40 packets at 20% loss: virtually guaranteed to lose one.
        fab.post_uc_write(
            &mut eng,
            a,
            WriteWr {
                remote_mkey: mr.mkey,
                remote_offset: 0,
                data: Bytes::from(vec![9u8; 160_000]),
                imm: Some(1),
                crc: None,
                wr_id: 0,
                signaled: false,
            },
        )
        .unwrap();
        eng.run();
        fab.node_mut(b.node, |n| {
            assert!(n.poll_cq(crate::packet::CqId(0)).is_none());
        });
    }

    #[test]
    fn per_packet_writes_survive_loss_individually() {
        let (mut eng, fab, a, b) = two_node_uc(0.2);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(256 * 1024));
        fab.post_uc_write_per_packet(
            &mut eng,
            a,
            WriteWr {
                remote_mkey: mr.mkey,
                remote_offset: 0,
                data: Bytes::from(vec![9u8; 160_000]),
                imm: None,
                crc: None,
                wr_id: 0,
                signaled: false,
            },
        )
        .unwrap();
        eng.run();
        // ~80% of the 40 packets land individually.
        let landed = fab.node(b.node, |n| n.stats().writes_landed);
        assert!((25..40).contains(&landed), "landed {landed}");
    }

    #[test]
    fn ud_send_roundtrip_and_mtu_enforcement() {
        let mut eng = Engine::new();
        let fab = Fabric::new();
        let a = fab.add_node(1 << 16);
        let b = fab.add_node(1 << 16);
        fab.link_duplex(a, b, LinkConfig::intra_dc(8e9));
        let qa = fab.node_mut(a, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Ud, cq, cq)
        });
        let (qb, mr) = fab.node_mut(b, |n| {
            let cq = n.create_cq();
            let qp = n.create_qp(QpType::Ud, cq, cq);
            let mr = n.alloc_mr(4096);
            n.post_recv(
                qp,
                RecvWqe {
                    wr_id: 1,
                    addr: mr.addr,
                    len: mr.len,
                },
            );
            (qp, mr)
        });
        let src = QpAddr { node: a, qp: qa };
        let dst = QpAddr { node: b, qp: qb };
        assert_eq!(
            fab.post_ud_send(&mut eng, src, dst, Bytes::from(vec![0u8; 5000]), None),
            Err(PostError::PayloadTooLarge)
        );
        fab.post_ud_send(&mut eng, src, dst, Bytes::from_static(b"cts"), Some(2))
            .unwrap();
        eng.run();
        fab.node_mut(b, |n| {
            let cqe = n.poll_cq(crate::packet::CqId(0)).unwrap();
            assert_eq!(cqe.imm, Some(2));
            assert_eq!(n.mem().read(mr.addr, 3), b"cts");
        });
    }

    #[test]
    fn drain_pump_is_one_event_per_busy_period() {
        // A 10-packet train arms exactly one pump; the pump node re-arms
        // through its own return value, so pending_events stays at 1 no
        // matter how many packets are in flight.
        let (mut eng, fab, a, _b) = two_node_uc(0.0);
        let mr = fab.node_mut(crate::packet::NodeId(1), |n| n.alloc_mr(64 * 1024));
        fab.post_uc_write(
            &mut eng,
            a,
            WriteWr {
                remote_mkey: mr.mkey,
                remote_offset: 0,
                data: Bytes::from(vec![7u8; 10 * 4096]),
                imm: None,
                crc: None,
                wr_id: 0,
                signaled: false,
            },
        )
        .unwrap();
        assert_eq!(
            eng.pending_events(),
            1,
            "10 in-flight packets ride one drain event"
        );
        assert_eq!(
            fab.inner
                .borrow()
                .links
                .get(&(a.node, crate::packet::NodeId(1)))
                .unwrap()
                .in_flight(),
            10
        );
        eng.run();
        let delivered = fab
            .link_stats(a.node, crate::packet::NodeId(1))
            .unwrap()
            .delivered;
        assert_eq!(delivered, 10);
    }

    /// Posts `n` independent single-packet writes from `a` at `now`.
    fn post_train(eng: &mut Engine, fab: &Fabric, a: QpAddr, mr: &crate::nic::Mr, n: usize) {
        fab.post_uc_write_per_packet(
            eng,
            a,
            WriteWr {
                remote_mkey: mr.mkey,
                remote_offset: 0,
                data: Bytes::from(vec![3u8; n * 4096]),
                imm: None,
                crc: None,
                wr_id: 0,
                signaled: false,
            },
        )
        .unwrap();
    }

    #[test]
    fn fault_plan_blackout_claims_in_flight_window() {
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(1 << 20));
        // 40 packets serialize over ~167 us; arrivals trail by the 2 us
        // propagation delay. All are posted (and in flight) before the
        // blackout window [50 us, 110 us) opens — only delivery-time loss
        // can claim them.
        post_train(&mut eng, &fab, a, &mr, 40);
        let plan = FaultPlan::new().with(FaultEvent::Blackout {
            at: SimTime::from_micros(50),
            duration: SimTime::from_micros(60),
        });
        let h = fab
            .apply_fault_plan(&mut eng, a.node, b.node, &plan)
            .unwrap();
        assert_eq!(h.timer_count(), 1, "one timer per event");
        eng.run();
        let s = fab.link_stats(a.node, b.node).unwrap();
        assert_eq!(s.sent, 40);
        assert!(
            s.dropped >= 10 && s.delivered >= 10,
            "blackout window splits the train: dropped {} delivered {}",
            s.dropped,
            s.delivered
        );
        assert_eq!(s.dropped + s.delivered, 40);
        let down = fab.inner.borrow().links[&(a.node, b.node)].is_down();
        assert!(!down, "link healed after the window");
        assert_eq!(eng.pending_events(), 0, "finite plan leaves no timers");
    }

    #[test]
    fn fault_plan_flap_and_drift_play_out_and_rest() {
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        let plan = FaultPlan::new_duplex()
            .with(FaultEvent::Flap {
                at: SimTime::from_micros(10),
                cycles: 3,
                down: SimTime::from_micros(5),
                up: SimTime::from_micros(5),
            })
            .with(FaultEvent::Drift {
                at: SimTime::from_micros(20),
                period: SimTime::from_micros(40),
                steps: 8,
                floor_p: 1e-4,
                peak_p: 0.25,
                cycles: 2,
            });
        fab.apply_fault_plan(&mut eng, a.node, b.node, &plan)
            .unwrap();
        eng.run();
        assert_eq!(eng.pending_events(), 0, "flap + drift are finite");
        let inner = fab.inner.borrow();
        for key in [(a.node, b.node), (b.node, a.node)] {
            let link = &inner.links[&key];
            assert!(!link.is_down(), "flap leaves the link up");
            assert_eq!(
                link.config().loss,
                LossModel::Iid { p: 1e-4 },
                "drift rests at the floor rate (duplex: both directions)"
            );
        }
    }

    #[test]
    fn fault_plan_validates_and_cancels() {
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        let bad = FaultPlan::new().with(FaultEvent::SetLoss {
            at: SimTime::ZERO,
            model: LossModel::Iid { p: 2.0 },
        });
        assert!(fab
            .apply_fault_plan(&mut eng, a.node, b.node, &bad)
            .is_err());
        // A cancelled plan never touches the link.
        let plan = FaultPlan::new().with(FaultEvent::Blackout {
            at: SimTime::from_micros(50),
            duration: SimTime::from_micros(60),
        });
        let h = fab
            .apply_fault_plan(&mut eng, a.node, b.node, &plan)
            .unwrap();
        h.cancel(&mut eng);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(1 << 20));
        post_train(&mut eng, &fab, a, &mr, 40);
        eng.run();
        let s = fab.link_stats(a.node, b.node).unwrap();
        assert_eq!(s.delivered, 40, "cancelled blackout drops nothing");
        assert_eq!(eng.pending_events(), 0);
    }

    #[test]
    fn peer_restart_claims_in_flight_and_reattaches() {
        use crate::fault::RestartSide;
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(1 << 20));
        // 40 packets serialize over ~167 us. The receiver crashes at
        // 50 us: its port is dead for 60 us, so arrivals inside
        // [50 us, 110 us) die at the port, while the tail arriving after
        // re-attach lands normally.
        post_train(&mut eng, &fab, a, &mr, 40);
        let plan = FaultPlan::new().with(FaultEvent::PeerRestart {
            at: SimTime::from_micros(50),
            side: RestartSide::B,
            dead_time: SimTime::from_micros(60),
        });
        let restarts = crate::engine::shared(Vec::new());
        let seen = restarts.clone();
        fab.on_restart(b.node, move |_, inc| seen.borrow_mut().push(inc));
        let h = fab
            .apply_fault_plan(&mut eng, a.node, b.node, &plan)
            .unwrap();
        assert_eq!(h.timer_count(), 1);
        assert_eq!(fab.node_incarnation(b.node), 0);
        eng.run();
        assert_eq!(*restarts.borrow(), vec![1], "hook saw the new incarnation");
        assert_eq!(fab.node_incarnation(b.node), 1);
        assert!(fab.is_attached(b.node), "re-attached after the dead time");
        let s = fab.link_stats(a.node, b.node).unwrap();
        let port_drops = fab.restart_drops(b.node);
        let landed = fab.node(b.node, |n| n.stats().writes_landed);
        assert_eq!(s.sent, 40);
        assert_eq!(s.dropped, 0, "the wire itself is healthy");
        assert!(
            port_drops > 0 && landed > 0,
            "dead window splits the train: port {port_drops} landed {landed}"
        );
        assert_eq!(landed + port_drops, s.delivered);
        assert!(
            landed > 0 && landed < 40,
            "head landed before the crash or tail after re-attach: {landed}"
        );
        assert_eq!(eng.pending_events(), 0, "restart plan is finite");
    }

    /// The receiving NIC hashes a checked region payload only when its
    /// bytes may differ from what the sending NIC hashed at post: every
    /// packet the wire corrupted (owned bytes from then on) is hashed and
    /// skipped, every clean one lands on its carried checksum without a
    /// second pass — `nic.crc.rehashed` counts exactly the corrupted ones.
    #[test]
    fn only_corrupted_region_payloads_are_hashed_again() {
        const N: usize = 200;
        const LEN: usize = 1024;
        let (mut eng, fab, a, b) = two_node_uc(0.0);
        fab.set_link_corruption(a.node, b.node, 2e-5, 1);
        let data: Vec<u8> = (0..N * LEN).map(|i| (i % 251) as u8).collect();
        let src = fab.node_mut(a.node, |n| {
            let at = n.mem_mut().alloc(data.len() as u64);
            n.mem_mut().write(at, &data);
            at
        });
        let mr = fab.node_mut(b.node, |n| n.alloc_mr(data.len() as u64));
        let wrs = (0..N as u64).map(|i| RegionWriteWr {
            qp: a.qp,
            local_addr: src + i * LEN as u64,
            len: LEN as u32,
            remote_mkey: mr.mkey,
            remote_offset: i * LEN as u64,
            imm: Some(i as u32),
            checksum: true,
            wr_id: 0,
            signaled: false,
        });
        fab.post_uc_region_writes(&mut eng, a.node, wrs, |_, _| {})
            .unwrap();
        eng.run();
        let corrupted = fab.link_stats(a.node, b.node).unwrap().corrupted;
        let nic = fab.node(b.node, |n| n.stats());
        assert!((10..N as u64 / 2).contains(&corrupted), "{corrupted}");
        assert_eq!(
            (nic.crc_skipped, nic.writes_landed),
            (corrupted, N as u64 - corrupted)
        );
        assert_eq!(fab.metrics().counter_value("nic.crc.rehashed"), corrupted);
    }

    #[test]
    fn try_link_rejects_invalid_configs() {
        let fab = Fabric::new();
        let a = fab.add_node(1 << 16);
        let b = fab.add_node(1 << 16);
        let bad = LinkConfig::intra_dc(8e9).with_loss(LossModel::Iid { p: -0.5 });
        assert!(fab.try_link(a, b, bad.clone()).is_err());
        assert!(fab.try_link_duplex(a, b, bad).is_err());
        assert!(fab.link_stats(a, b).is_none(), "nothing installed");
        assert!(fab.try_link_duplex(a, b, LinkConfig::intra_dc(8e9)).is_ok());
        assert!(fab.link_stats(a, b).is_some());
    }

    #[test]
    fn post_errors() {
        let mut eng = Engine::new();
        let fab = Fabric::new();
        let a = fab.add_node(1 << 16);
        let qa = fab.node_mut(a, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Uc, cq, cq)
        });
        let src = QpAddr { node: a, qp: qa };
        let wr = WriteWr {
            remote_mkey: MkeyId(0),
            remote_offset: 0,
            data: Bytes::new(),
            imm: None,
            crc: None,
            wr_id: 0,
            signaled: false,
        };
        assert_eq!(
            fab.post_uc_write(&mut eng, src, wr.clone()),
            Err(PostError::NotConnected)
        );
        let b = fab.add_node(1 << 16);
        fab.node_mut(a, |n| {
            n.connect_qp(
                qa,
                QpAddr {
                    node: b,
                    qp: crate::packet::QpNum(0),
                },
            )
        });
        assert_eq!(fab.post_uc_write(&mut eng, src, wr), Err(PostError::NoLink));
    }
}
