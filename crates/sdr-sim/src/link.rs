//! Point-to-point link model.
//!
//! A link serializes packets at a configured bandwidth, applies a loss
//! process, optional reorder jitter, and delivers after the propagation
//! delay. Serialization is modelled with a `next_free` cursor so back-to-back
//! transmissions queue behind each other exactly as on a real wire.
//!
//! Delivery is **coalesced**: [`Link::enqueue`] computes each packet's
//! arrival instant and files it into an arrival-ordered [`VecDeque`]; the
//! fabric drives the queue with a single re-armable drain event per busy
//! period ([`Fabric`](crate::Fabric) owns the pump). A serialization train
//! of N packets therefore costs N queue-node re-arms and zero boxed
//! closures, where it used to cost N `Box<dyn FnOnce>` allocations pushed
//! through the engine heap.
//!
//! Serialization times are memoized per wire length ([`Link::enqueue`]):
//! the bandwidth is fixed when the link is built, so each length's
//! [`tx_time`] — a float divide and a round — is computed once, on its
//! first packet, and every later packet of that length reads it back.
//!
//! # Delivery-time loss
//!
//! The loss draw happens at **delivery time** ([`Link::pop_due`]), not at
//! post time: a packet's fate is decided the instant it would reach the far
//! end. A loss step, blackout, or flap applied mid-simulation (via
//! [`Link::set_loss`], [`Link::set_down`], or a
//! [`FaultPlan`](crate::FaultPlan)) therefore affects packets already in
//! flight — the ~1.5 RTT of pre-posted pipeline feels the channel change
//! instead of sailing through on fates drawn under the old conditions.

use std::collections::VecDeque;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::equeue::TimerHandle;
use crate::loss::{LossModel, LossProcess};
use crate::memory::Memory;
use crate::packet::{Packet, Payload};
use crate::time::{propagation_delay_km, tx_time, SimTime};

/// Per-packet wire overhead of RoCEv2 over Ethernet: preamble-less
/// Eth(18) + IPv4(20) + UDP(8) + BTH(12) + RETH(16) + ICRC(4) ≈ 78 bytes.
pub const DEFAULT_HEADER_BYTES: usize = 78;

/// Upper bound on [`LinkConfig::reorder_span`]: a displaced packet can be
/// pushed back by at most this many serialization quanta, matching the
/// depth of the arrival queue window the insertion sort walks.
pub const MAX_REORDER_SPAN: u32 = 64;

/// Longest wire length whose serialization time a link memoizes (a jumbo
/// frame with headers); a larger MTU computes the excess lengths per packet.
const MAX_TX_MEMO: usize = 16 * 1024;

/// Upper bound on [`LinkConfig::corrupt_burst`]: one corruption event can
/// flip at most this many contiguous payload bits.
pub const MAX_CORRUPT_BURST: u32 = 64;

/// Static description of a unidirectional link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Line rate in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub one_way_delay: SimTime,
    /// Loss model applied per packet.
    pub loss: LossModel,
    /// Maximum transfer unit (payload bytes per packet).
    pub mtu: usize,
    /// Per-packet header bytes counted against serialization time.
    pub header_bytes: usize,
    /// If set, adds uniform random extra delay in `[0, jitter]` to each
    /// delivery, which can reorder packets in flight.
    pub reorder_jitter: Option<SimTime>,
    /// Per-packet probability that the wire *duplicates* the packet: a
    /// second copy is filed one serialization quantum behind the original
    /// and draws its own delivery fate. Must be in `[0, 1)`.
    pub duplicate_p: f64,
    /// Per-packet probability that the packet is *displaced*: its arrival
    /// is pushed back by `1..=reorder_span` of its own serialization
    /// quanta, letting later sends overtake it. Must be in `[0, 1)`.
    pub reorder_p: f64,
    /// Maximum displacement, in serialization quanta, of a reordered
    /// packet (`1..=`[`MAX_REORDER_SPAN`]; required when `reorder_p > 0`).
    pub reorder_span: u32,
    /// Per-**bit** probability that a delivered payload bit arrives
    /// flipped. Applies to payload bytes only: header corruption is
    /// already absorbed by the per-hop link ICRC (part of the modelled
    /// 78-byte header) and manifests as loss, while *payload* integrity
    /// is exactly what end-to-end checksums must defend — per-hop CRCs
    /// cannot vouch for bytes across switch memory. Must be in `[0, 1)`.
    pub corrupt_p: f64,
    /// Maximum contiguous bit-run flipped per corruption event
    /// (`1..=`[`MAX_CORRUPT_BURST`]; `1` = independent single-bit flips).
    pub corrupt_burst: u32,
    /// Seed for the link's private randomness (loss + jitter).
    pub seed: u64,
}

impl LinkConfig {
    /// An ideal intra-datacenter link: lossless, short delay.
    pub fn intra_dc(bandwidth_bps: f64) -> Self {
        LinkConfig {
            bandwidth_bps,
            one_way_delay: SimTime::from_micros(2),
            loss: LossModel::Perfect,
            mtu: 4096,
            header_bytes: DEFAULT_HEADER_BYTES,
            reorder_jitter: None,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            reorder_span: 0,
            corrupt_p: 0.0,
            corrupt_burst: 1,
            seed: 0,
        }
    }

    /// A long-haul inter-datacenter link with the paper's distance → delay
    /// convention and i.i.d. loss.
    pub fn wan(km: f64, bandwidth_bps: f64, p_drop: f64) -> Self {
        LinkConfig {
            bandwidth_bps,
            one_way_delay: propagation_delay_km(km),
            loss: LossModel::Iid { p: p_drop },
            mtu: 4096,
            header_bytes: DEFAULT_HEADER_BYTES,
            reorder_jitter: None,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            reorder_span: 0,
            corrupt_p: 0.0,
            corrupt_burst: 1,
            seed: 0,
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the loss model (builder style).
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Enables reorder jitter (builder style).
    pub fn with_reorder_jitter(mut self, jitter: SimTime) -> Self {
        self.reorder_jitter = Some(jitter);
        self
    }

    /// Enables wire duplication with probability `p` per packet
    /// (builder style).
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate_p = p;
        self
    }

    /// Enables packet displacement: with probability `p`, a packet's
    /// arrival is pushed back by up to `span` of its own serialization
    /// quanta (builder style).
    pub fn with_reordering(mut self, p: f64, span: u32) -> Self {
        self.reorder_p = p;
        self.reorder_span = span;
        self
    }

    /// Enables payload corruption: each delivered payload bit flips
    /// independently with probability `p` (builder style).
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self.corrupt_burst = 1;
        self
    }

    /// Enables bursty payload corruption: corruption events strike at
    /// per-bit rate `p` and each flips a contiguous run of `1..=max_run`
    /// bits (builder style).
    pub fn with_corruption_burst(mut self, p: f64, max_run: u32) -> Self {
        self.corrupt_p = p;
        self.corrupt_burst = max_run;
        self
    }

    /// Round-trip propagation time of a symmetric pair of such links.
    pub fn rtt(&self) -> SimTime {
        self.one_way_delay * 2
    }
}

/// Counters exported by a link — the one store of these facts; a fabric's
/// registry reads their sum under the `link.*` names of [`facts`](Self::facts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted for transmission.
    pub sent: u64,
    /// Packets dropped by the loss process.
    pub dropped: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Total payload+header bytes serialized.
    pub bytes: u64,
    /// Wire-duplicated copies injected (each also counts in `sent`).
    pub duplicated: u64,
    /// Packets displaced behind their serialization slot.
    pub reordered: u64,
    /// Packets delivered with at least one flipped payload bit (each also
    /// counts in `delivered`: corruption is a *content* fault, not loss).
    pub corrupted: u64,
}

impl LinkStats {
    /// Every field under its registry name.
    pub fn facts(&self) -> [(&'static str, u64); 7] {
        [
            ("link.sent", self.sent),
            ("link.dropped", self.dropped),
            ("link.delivered", self.delivered),
            ("link.bytes", self.bytes),
            ("link.duplicated", self.duplicated),
            ("link.reordered", self.reordered),
            ("link.corrupted", self.corrupted),
        ]
    }
}

/// Outcome of handing one packet to [`Link::enqueue`]: the wire schedule
/// the packet was given. Whether it actually arrives is decided by the
/// loss process at delivery time ([`Link::pop_due`]), so a mid-flight
/// channel change can still claim it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxOutcome {
    /// Scheduled arrival instant at the receiver (serialization +
    /// propagation + jitter).
    pub at: SimTime,
}

/// Number of clean bits before the next flip under an i.i.d. per-bit
/// flip rate `p`: exact inverse-CDF (geometric) sampling,
/// `⌊ln U / ln(1−p)⌋` for `U ∈ (0, 1]`. Requires `0 < p < 1`.
fn corruption_skip(rng: &mut SmallRng, p: f64) -> u64 {
    let u: f64 = 1.0 - rng.random::<f64>();
    let skip = u.ln() / (1.0 - p).ln();
    if skip >= u64::MAX as f64 {
        u64::MAX
    } else {
        skip as u64
    }
}

/// A unidirectional lossy link.
pub struct Link {
    cfg: LinkConfig,
    loss: LossProcess,
    rng: SmallRng,
    /// Wire-busy cursor: when the last serialization so far ends.
    next_free: SimTime,
    /// [`tx_time`] per wire length up to a full MTU frame (at most
    /// [`MAX_TX_MEMO`]), `SimTime::MAX` until first used: the bandwidth
    /// never changes after `try_new`.
    tx_memo: Vec<SimTime>,
    stats: LinkStats,
    /// In-flight packets, ordered by arrival instant (FIFO within an
    /// instant). The fabric's drain pump walks this.
    pending: VecDeque<(SimTime, Packet)>,
    /// The drain pump, while armed: `(handle, armed-at instant)`. Owned
    /// logically by the fabric; stored here so each link carries exactly
    /// one pump.
    drain: Option<(TimerHandle, SimTime)>,
    /// Hard blackout flag: while set, every packet reaching its delivery
    /// instant is dropped (without consuming the loss process's RNG
    /// stream, so the post-heal drop pattern is unperturbed).
    down: bool,
}

impl Link {
    /// Builds a link from its configuration, returning `Err` when the
    /// configuration is invalid (a probability out of range, or a
    /// reorder span / corruption burst outside its bounds).
    pub fn try_new(cfg: LinkConfig) -> Result<Self, String> {
        cfg.loss.validate()?;
        for (name, p) in [
            ("duplicate_p", cfg.duplicate_p),
            ("reorder_p", cfg.reorder_p),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("{name} = {p} must be a probability below 1"));
            }
        }
        if cfg.reorder_p > 0.0 && !(1..=MAX_REORDER_SPAN).contains(&cfg.reorder_span) {
            return Err(format!(
                "reorder_span = {} must be in 1..={MAX_REORDER_SPAN} when reorder_p > 0",
                cfg.reorder_span
            ));
        }
        if !(0.0..1.0).contains(&cfg.corrupt_p) {
            return Err(format!(
                "corrupt_p = {} must be a probability below 1",
                cfg.corrupt_p
            ));
        }
        if cfg.corrupt_p > 0.0 && !(1..=MAX_CORRUPT_BURST).contains(&cfg.corrupt_burst) {
            return Err(format!(
                "corrupt_burst = {} must be in 1..={MAX_CORRUPT_BURST} when corrupt_p > 0",
                cfg.corrupt_burst
            ));
        }
        let loss = LossProcess::new(cfg.loss.clone(), cfg.seed.wrapping_mul(0x9E37_79B9));
        let rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0xA5A5_5A5A));
        let frame = cfg.mtu.saturating_add(cfg.header_bytes);
        let tx_memo = vec![SimTime::MAX; frame.min(MAX_TX_MEMO) + 1];
        Ok(Link {
            cfg,
            loss,
            rng,
            next_free: SimTime::ZERO,
            tx_memo,
            stats: LinkStats::default(),
            pending: VecDeque::new(),
            drain: None,
            down: false,
        })
    }

    /// Builds a link from its configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use
    /// [`try_new`](Self::try_new) for a recoverable error.
    pub fn new(cfg: LinkConfig) -> Self {
        Self::try_new(cfg).expect("invalid link configuration")
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Time at which the wire becomes idle again (the last serialization
    /// so far ends).
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Serializes `pkt` onto the wire at `now`: the packet is filed into
    /// the pending-arrival queue and handed back (or dropped) by
    /// [`pop_due`](Self::pop_due) at its arrival instant — the caller (the
    /// fabric) keeps a drain event armed at
    /// [`next_arrival`](Self::next_arrival).
    ///
    /// The drop decision is **not** made here: fates are drawn at delivery
    /// time, so a channel change while the packet is in flight still
    /// applies to it.
    pub fn enqueue(&mut self, now: SimTime, pkt: Packet) -> TxOutcome {
        let wire_bytes = (pkt.payload_len() + self.cfg.header_bytes) as u64;
        let start = self.next_free.max(now);
        let serialize = self.serialize_time(wire_bytes);
        self.next_free = start + serialize;
        self.stats.sent += 1;
        self.stats.bytes += wire_bytes;

        let mut arrival = self.next_free + self.cfg.one_way_delay;
        if let Some(jitter) = self.cfg.reorder_jitter {
            if jitter > SimTime::ZERO {
                arrival += SimTime(self.rng.random_range(0..=jitter.as_picos()));
            }
        }
        // Adversarial displacement: push the arrival back by a few of the
        // packet's own serialization quanta so later sends overtake it.
        if self.cfg.reorder_p > 0.0 && self.rng.random_bool(self.cfg.reorder_p) {
            let span = self.rng.random_range(1..=self.cfg.reorder_span) as u64;
            arrival += serialize * span;
            self.stats.reordered += 1;
        }
        // Wire duplication: a second copy trails the original by one
        // serialization quantum and draws its own delivery fate.
        if self.cfg.duplicate_p > 0.0 && self.rng.random_bool(self.cfg.duplicate_p) {
            let copy_at = arrival + serialize;
            self.stats.sent += 1;
            self.stats.duplicated += 1;
            self.file_arrival(copy_at, pkt.clone());
        }
        self.file_arrival(arrival, pkt);
        TxOutcome { at: arrival }
    }

    /// [`tx_time`] of `wire_bytes` at the link's bandwidth, from the memo
    /// (filled on first use); lengths past it (only a raw injection or a
    /// giant MTU makes one) are computed each time.
    fn serialize_time(&mut self, wire_bytes: u64) -> SimTime {
        let bandwidth = self.cfg.bandwidth_bps;
        match self.tx_memo.get_mut(wire_bytes as usize) {
            Some(t) => {
                if *t == SimTime::MAX {
                    *t = tx_time(wire_bytes, bandwidth);
                }
                *t
            }
            None => tx_time(wire_bytes, bandwidth),
        }
    }

    /// Files a packet into the arrival-ordered pending queue (stable for
    /// equal instants). Jitter, displacement and multipath can make a
    /// later send arrive earlier, but the common case appends at the back.
    fn file_arrival(&mut self, arrival: SimTime, pkt: Packet) {
        if self.pending.back().is_none_or(|(last, _)| *last <= arrival) {
            self.pending.push_back((arrival, pkt));
            return;
        }
        let mut i = self.pending.len() - 1;
        while i > 0 && self.pending[i - 1].0 > arrival {
            i -= 1;
        }
        self.pending.insert(i, (arrival, pkt));
    }

    /// The earliest pending arrival, if any (where the drain pump arms).
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.pending.front().map(|(at, _)| *at)
    }

    /// Pops the next *surviving* packet whose arrival instant is `<= now`,
    /// drawing each due packet's fate from the loss process at this —
    /// delivery — time. Due packets the loss process (or an active
    /// blackout) claims are consumed here and counted in
    /// [`stats().dropped`](Self::stats).
    ///
    /// `src` is the memory of the node at the sending end of this link —
    /// what [`Payload::Region`] payloads name. It is read only when the
    /// wire actually flips a bit of such a payload.
    pub fn pop_due(&mut self, now: SimTime, src: &Memory) -> Option<Packet> {
        while self.pending.front().is_some_and(|(at, _)| *at <= now) {
            let (_, mut pkt) = self.pending.pop_front().expect("front checked");
            if self.down || self.loss.drops_next() {
                self.stats.dropped += 1;
                continue;
            }
            self.stats.delivered += 1;
            // Corruption is drawn at delivery time like loss, so a
            // corruption step applied mid-flight strikes the pipeline.
            if self.cfg.corrupt_p > 0.0 && self.corrupt_payload(&mut pkt, src) {
                self.stats.corrupted += 1;
            }
            return Some(pkt);
        }
        None
    }

    /// Flips payload bits of `pkt` under the configured per-bit rate.
    /// Returns whether anything flipped. Exact i.i.d. sampling via
    /// geometric skips: a 4 KiB packet costs one RNG draw per *actual*
    /// flip, not one per bit. Empty payloads (pure acks) are
    /// uncorruptable by construction — their content lives entirely in
    /// the modelled header, whose corruption the per-hop ICRC turns into
    /// loss. The draws depend on the payload's *length* only, so a region
    /// payload consumes the RNG exactly like owned bytes; it is copied out
    /// of `src` (and becomes owned) only once a flip is certain.
    fn corrupt_payload(&mut self, pkt: &mut Packet, src: &Memory) -> bool {
        let bits = pkt.payload.len() as u64 * 8;
        if bits == 0 {
            return false;
        }
        let p = self.cfg.corrupt_p;
        let mut pos = corruption_skip(&mut self.rng, p);
        if pos >= bits {
            return false;
        }
        let mut buf = match &pkt.payload {
            Payload::Owned(b) => b.to_vec(),
            Payload::Region { addr, len, .. } => src.read(*addr, *len as usize).to_vec(),
        };
        while pos < bits {
            let run = if self.cfg.corrupt_burst > 1 {
                self.rng.random_range(1..=self.cfg.corrupt_burst as u64)
            } else {
                1
            };
            let end = (pos + run).min(bits);
            for b in pos..end {
                buf[(b / 8) as usize] ^= 1 << (b % 8);
            }
            pos = end + corruption_skip(&mut self.rng, p);
        }
        pkt.payload = Payload::Owned(Bytes::from(buf));
        true
    }

    /// Gives every in-flight packet that names bytes of `[addr, addr + len)`
    /// in `src` — the memory at the sending end of this link — its own
    /// copy of them, so the block can be recycled and rewritten without
    /// changing what those packets deliver (see
    /// [`Fabric::free_region`](crate::Fabric::free_region)).
    pub(crate) fn detach_region(&mut self, src: &Memory, addr: u64, len: u64) {
        for (_, pkt) in &mut self.pending {
            if let Payload::Region {
                addr: a, len: l, ..
            } = pkt.payload
            {
                if a < addr + len && addr < a + l as u64 {
                    pkt.payload = Bytes::copy_from_slice(src.read(a, l as usize)).into();
                }
            }
        }
    }

    /// Packets currently in flight toward the receiver.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The armed drain pump, if any (fabric bookkeeping).
    pub(crate) fn drain_state(&self) -> Option<(TimerHandle, SimTime)> {
        self.drain
    }

    /// Records the drain pump state (fabric bookkeeping).
    pub(crate) fn set_drain(&mut self, d: Option<(TimerHandle, SimTime)>) {
        self.drain = d;
    }

    /// Replaces the loss model mid-simulation — the substrate for loss-step
    /// scenarios (an ISP congestion episode beginning or ending, Figure 2's
    /// three-orders-of-magnitude drift). Because fates are drawn at
    /// delivery time, the new model applies to packets already in flight.
    ///
    /// The new process gets a fresh RNG stream derived deterministically
    /// from the link seed and the packets already offered, so replaying the
    /// same schedule of `set_loss` calls reproduces the same drops.
    ///
    /// **Burst-state semantics**: the replacement process always starts in
    /// the *good* state — a Gilbert–Elliott link mid-burst does not carry
    /// the burst across a `set_loss`, even when the new model equals the
    /// old one. A fault plan that wants a burst to span a parameter shift
    /// must express it in the new model's parameters (e.g. a higher
    /// `p_good_to_bad`), not rely on carried state. This keeps the schedule
    /// of `set_loss` calls the *complete* description of the channel.
    pub fn set_loss(&mut self, model: LossModel) {
        assert!(model.validate().is_ok(), "invalid loss model");
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.stats.sent);
        self.cfg.loss = model.clone();
        self.loss = LossProcess::new(model, seed);
    }

    /// Steps the payload-corruption process mid-simulation. Like
    /// [`set_loss`](Self::set_loss), corruption fates are drawn at
    /// delivery time, so the new rate applies to packets already in
    /// flight. `max_run` is ignored while `p == 0`.
    pub fn set_corruption(&mut self, p: f64, max_run: u32) {
        assert!((0.0..1.0).contains(&p), "invalid corruption rate {p}");
        assert!(
            p == 0.0 || (1..=MAX_CORRUPT_BURST).contains(&max_run),
            "invalid corruption burst {max_run}"
        );
        self.cfg.corrupt_p = p;
        self.cfg.corrupt_burst = max_run;
    }

    /// Raises or clears the hard-blackout flag. While down, every packet
    /// reaching its delivery instant is dropped — including packets that
    /// were already in flight when the blackout began. The loss process's
    /// RNG stream is not consumed by blackout drops, so the drop pattern
    /// after heal is exactly what it would have been without the outage.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// True while the hard-blackout flag is raised.
    pub fn is_down(&self) -> bool {
        self.down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{shared, Engine, Shared};
    use crate::packet::{NodeId, PacketKind, QpAddr, QpNum};
    use bytes::Bytes;

    fn test_link(bw: f64) -> Link {
        let mut cfg = LinkConfig::intra_dc(bw);
        cfg.one_way_delay = SimTime::from_micros(5);
        cfg.header_bytes = 0;
        Link::new(cfg)
    }

    fn pkt(tag: u32, payload: usize) -> Packet {
        Packet {
            src: QpAddr {
                node: NodeId(0),
                qp: QpNum(0),
            },
            dst: QpAddr {
                node: NodeId(1),
                qp: QpNum(0),
            },
            psn: tag,
            kind: PacketKind::Send { imm: Some(tag) },
            payload: Bytes::from(vec![0u8; payload]).into(),
        }
    }

    /// `pop_due` for links whose packets all own their bytes: there is no
    /// sender memory to name.
    fn pop_due(link: &mut Link, now: SimTime) -> Option<Packet> {
        link.pop_due(now, &Memory::new(0))
    }

    /// A miniature fabric pump: drains the link through one recurring
    /// engine event, delivering tags + instants into `out`.
    fn pump(eng: &mut Engine, link: &Shared<Link>, out: &Shared<Vec<(u32, SimTime)>>) {
        let Some(at) = link.borrow().next_arrival() else {
            return;
        };
        let (l, o) = (link.clone(), out.clone());
        eng.schedule_recurring_at(at, move |eng| {
            while let Some(p) = pop_due(&mut l.borrow_mut(), eng.now()) {
                o.borrow_mut().push((p.psn, eng.now()));
            }
            l.borrow().next_arrival()
        });
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        let mut eng = Engine::new();
        let link = shared(test_link(8e9)); // 1 byte per ns
        let out = shared(Vec::new());
        let got = link.borrow_mut().enqueue(SimTime::ZERO, pkt(1, 1000));
        // 1000 bytes at 1 B/ns = 1 us serialize + 5 us propagation.
        let expect = SimTime::from_micros(6);
        assert_eq!(got, TxOutcome { at: expect });
        pump(&mut eng, &link, &out);
        eng.run();
        assert_eq!(*out.borrow(), vec![(1, expect)]);
    }

    #[test]
    fn back_to_back_packets_queue_on_the_wire() {
        let mut eng = Engine::new();
        let link = shared(test_link(8e9));
        let out = shared(Vec::new());
        for tag in 0..3 {
            link.borrow_mut().enqueue(SimTime::ZERO, pkt(tag, 1000));
        }
        assert_eq!(link.borrow().in_flight(), 3);
        pump(&mut eng, &link, &out);
        eng.run();
        // Serializations at 1,2,3 us; arrivals at 6,7,8 us.
        assert_eq!(
            *out.borrow(),
            vec![
                (0, SimTime::from_micros(6)),
                (1, SimTime::from_micros(7)),
                (2, SimTime::from_micros(8))
            ]
        );
    }

    /// Drains every pending packet regardless of arrival instant, drawing
    /// each fate at "delivery" (test shorthand for a full pump run).
    fn drain_all(link: &mut Link) -> usize {
        let mut delivered = 0;
        while pop_due(link, SimTime(u64::MAX)).is_some() {
            delivered += 1;
        }
        delivered
    }

    #[test]
    fn dropped_packets_still_consume_wire_time() {
        let mut cfg = LinkConfig::intra_dc(8e9);
        cfg.header_bytes = 0;
        cfg.loss = LossModel::Iid { p: 1.0 };
        let mut link = Link::new(cfg);
        let out = link.enqueue(SimTime::ZERO, pkt(0, 1000));
        // The packet occupies the wire and flies; the loss draw happens at
        // its delivery instant, where the p=1 process claims it.
        assert_eq!(link.next_free(), SimTime::from_micros(1));
        assert_eq!(link.in_flight(), 1, "fate undecided while in flight");
        assert_eq!(link.next_arrival(), Some(out.at));
        assert!(pop_due(&mut link, out.at).is_none(), "claimed at delivery");
        assert_eq!(link.stats().dropped, 1);
        assert_eq!(link.in_flight(), 0);
        assert_eq!(link.next_arrival(), None);
    }

    #[test]
    fn loss_step_claims_packets_already_in_flight() {
        // The delivery-time guarantee: packets posted under a clean channel
        // but still in flight when the loss steps to p=1 are dropped.
        let cfg = LinkConfig::wan(100.0, 8e9, 0.0).with_seed(3);
        let mut link = Link::new(cfg);
        for i in 0..20 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        assert_eq!(link.in_flight(), 20);
        link.set_loss(LossModel::Iid { p: 1.0 });
        assert_eq!(drain_all(&mut link), 0, "in-flight packets feel the step");
        let s = link.stats();
        assert_eq!((s.dropped, s.delivered), (20, 0));
    }

    #[test]
    fn blackout_claims_in_flight_and_heals_cleanly() {
        let cfg = LinkConfig::wan(100.0, 8e9, 0.0).with_seed(4);
        let mut link = Link::new(cfg);
        for i in 0..10 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        link.set_down(true);
        assert!(link.is_down());
        assert_eq!(drain_all(&mut link), 0, "blackout claims in-flight");
        assert_eq!(link.stats().dropped, 10);
        link.set_down(false);
        for i in 0..10 {
            link.enqueue(SimTime::from_micros(1), pkt(i, 100));
        }
        assert_eq!(drain_all(&mut link), 10, "clean again after heal");
        assert_eq!(link.stats().delivered, 10);
    }

    #[test]
    fn try_new_rejects_invalid_configs() {
        let bad_loss = LinkConfig::intra_dc(8e9).with_loss(LossModel::Iid { p: 1.5 });
        assert!(Link::try_new(bad_loss).is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9)).is_ok());
    }

    #[test]
    fn try_new_rejects_invalid_dup_reorder_knobs() {
        // Probabilities >= 1 (duplication of every packet forever, or a
        // certain displacement) are rejected, mirroring the loss models.
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_duplication(1.0)).is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_duplication(-0.1)).is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_reordering(1.0, 4)).is_err());
        // A displacement probability needs a span inside the queue window.
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_reordering(0.1, 0)).is_err());
        assert!(Link::try_new(
            LinkConfig::intra_dc(8e9).with_reordering(0.1, MAX_REORDER_SPAN + 1)
        )
        .is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_reordering(0.1, 4)).is_ok());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_duplication(0.5)).is_ok());
        // Span is ignored (not validated) while reorder_p == 0.
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_reordering(0.0, 0)).is_ok());
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let cfg = LinkConfig::intra_dc(8e9)
            .with_duplication(0.5)
            .with_seed(21);
        let mut link = Link::new(cfg);
        for i in 0..200 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        let delivered = drain_all(&mut link);
        let s = link.stats();
        assert!(s.duplicated > 50, "duplicated {}", s.duplicated);
        assert_eq!(s.sent, 200 + s.duplicated);
        assert_eq!(delivered as u64, s.delivered);
        assert_eq!(s.dropped + s.delivered, s.sent, "every copy draws a fate");
    }

    #[test]
    fn displacement_reorders_deliveries() {
        let mut eng = Engine::new();
        let cfg = LinkConfig::intra_dc(8e9)
            .with_reordering(0.3, 8)
            .with_seed(22);
        let link = shared(Link::new(cfg));
        let out = shared(Vec::new());
        for tag in 0..64 {
            link.borrow_mut().enqueue(SimTime::ZERO, pkt(tag, 1000));
        }
        pump(&mut eng, &link, &out);
        eng.run();
        let got: Vec<u32> = out.borrow().iter().map(|&(t, _)| t).collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(got, sorted, "displaced packets are overtaken");
        assert!(link.borrow().stats().reordered > 5);
    }

    #[test]
    fn try_new_rejects_invalid_corruption_knobs() {
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_corruption(1.0)).is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_corruption(-0.1)).is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_corruption_burst(1e-4, 0)).is_err());
        assert!(Link::try_new(
            LinkConfig::intra_dc(8e9).with_corruption_burst(1e-4, MAX_CORRUPT_BURST + 1)
        )
        .is_err());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_corruption(1e-4)).is_ok());
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_corruption_burst(1e-4, 8)).is_ok());
        // Burst run is ignored (not validated) while corrupt_p == 0.
        assert!(Link::try_new(LinkConfig::intra_dc(8e9).with_corruption(0.0)).is_ok());
    }

    /// Drains all pending packets, returning the delivered payloads.
    fn drain_payloads(link: &mut Link) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Some(p) = pop_due(link, SimTime(u64::MAX)) {
            let Payload::Owned(b) = p.payload else {
                panic!("owned payloads stay owned");
            };
            out.push(b);
        }
        out
    }

    #[test]
    fn corruption_flips_bits_at_the_configured_rate() {
        // 500 packets × 1000 bytes at p = 1e-3 per bit: ≈ 4000 flipped
        // bits, essentially every packet corrupted at least once.
        let cfg = LinkConfig::intra_dc(8e9)
            .with_corruption(1e-3)
            .with_seed(31);
        let mut link = Link::new(cfg);
        for i in 0..500 {
            link.enqueue(SimTime::ZERO, pkt(i, 1000));
        }
        let payloads = drain_payloads(&mut link);
        let s = link.stats();
        assert_eq!(s.delivered, 500, "corruption is not loss");
        assert!(
            (400..=500).contains(&s.corrupted),
            "corrupted {}",
            s.corrupted
        );
        let flipped_bits: u64 = payloads
            .iter()
            .flat_map(|p| p.iter())
            .map(|b| b.count_ones() as u64)
            .sum();
        // Mean 4000, σ ≈ 63; a 10σ band still pins the rate to ±16%.
        assert!(
            (3400..=4600).contains(&flipped_bits),
            "flipped {flipped_bits} bits"
        );
    }

    #[test]
    fn corruption_rate_zero_delivers_bytes_untouched() {
        let cfg = LinkConfig::intra_dc(8e9).with_seed(32);
        let mut link = Link::new(cfg);
        for i in 0..100 {
            link.enqueue(SimTime::ZERO, pkt(i, 1000));
        }
        let payloads = drain_payloads(&mut link);
        assert!(payloads.iter().all(|p| p.iter().all(|&b| b == 0)));
        assert_eq!(link.stats().corrupted, 0);
    }

    #[test]
    fn burst_corruption_flips_contiguous_runs() {
        // Same event rate, burst runs up to 32 bits: far more total
        // flipped bits than single-flip mode at the same p, and flips
        // cluster (consecutive-bit pairs exist).
        let cfg = LinkConfig::intra_dc(8e9)
            .with_corruption_burst(1e-4, 32)
            .with_seed(33);
        let mut link = Link::new(cfg);
        for i in 0..500 {
            link.enqueue(SimTime::ZERO, pkt(i, 1000));
        }
        let payloads = drain_payloads(&mut link);
        let flipped: u64 = payloads
            .iter()
            .flat_map(|p| p.iter())
            .map(|b| b.count_ones() as u64)
            .sum();
        // ≈ 400 events × mean run 16.5 ≈ 6600 bits; single-flip mode at
        // this p would flip ≈ 400.
        assert!(flipped > 2000, "burst flips {flipped} bits");
        let runs = payloads
            .iter()
            .flat_map(|p| p.iter())
            .filter(|b| b.count_ones() >= 2)
            .count();
        assert!(runs > 50, "clustered flips in {runs} bytes");
    }

    #[test]
    fn region_payloads_corrupt_draw_for_draw_like_owned_bytes() {
        // The same train once as owned bytes and once as descriptors of
        // the sender's memory: identical flips (the draws see only the
        // length), and the memory itself is never written.
        let mut mem = Memory::new(200 * 1000);
        let pattern: Vec<u8> = (0..200 * 1000u32).map(|i| (i % 251) as u8).collect();
        mem.write(0, &pattern);
        let cfg = LinkConfig::intra_dc(8e9)
            .with_corruption_burst(2e-5, 8)
            .with_duplication(0.2)
            .with_seed(36);
        let (mut owned, mut named) = (Link::new(cfg.clone()), Link::new(cfg));
        for i in 0..200u32 {
            let bytes = &pattern[i as usize * 1000..][..1000];
            let mut p = pkt(i, 0);
            p.payload = Bytes::copy_from_slice(bytes).into();
            owned.enqueue(SimTime::ZERO, p);
            let mut p = pkt(i, 0);
            p.payload = Payload::Region {
                node: NodeId(0),
                addr: i as u64 * 1000,
                len: 1000,
                clock: mem.clock(),
            };
            named.enqueue(SimTime::ZERO, p);
        }
        let mut untouched = 0;
        loop {
            let a = owned.pop_due(SimTime(u64::MAX), &mem);
            let b = named.pop_due(SimTime(u64::MAX), &mem);
            let (Some(a), Some(b)) = (a, b) else {
                break;
            };
            assert_eq!(a.psn, b.psn);
            let Payload::Owned(a_bytes) = a.payload else {
                panic!("owned payloads stay owned");
            };
            match b.payload {
                Payload::Owned(b_bytes) => assert_eq!(a_bytes, b_bytes, "same flips"),
                Payload::Region { addr, len, .. } => {
                    assert_eq!(&a_bytes[..], mem.read(addr, len as usize), "both clean");
                    untouched += 1;
                }
            }
        }
        assert_eq!(owned.stats(), named.stats());
        assert!(owned.stats().corrupted > 10 && owned.stats().duplicated > 10);
        assert!(untouched > 100, "clean packets are never copied");
        assert_eq!(mem.read(0, pattern.len()), &pattern[..]);
    }

    #[test]
    fn empty_payloads_are_uncorruptable() {
        let cfg = LinkConfig::intra_dc(8e9).with_corruption(0.5).with_seed(34);
        let mut link = Link::new(cfg);
        for i in 0..50 {
            link.enqueue(SimTime::ZERO, pkt(i, 0));
        }
        assert_eq!(drain_all(&mut link), 50);
        assert_eq!(link.stats().corrupted, 0);
    }

    #[test]
    fn corruption_step_strikes_packets_already_in_flight() {
        // Delivery-time semantics: raising corrupt_p after enqueue still
        // corrupts the in-flight pipeline.
        let cfg = LinkConfig::wan(100.0, 8e9, 0.0).with_seed(35);
        let mut link = Link::new(cfg);
        for i in 0..100 {
            link.enqueue(SimTime::ZERO, pkt(i, 1000));
        }
        link.set_corruption(0.01, 1);
        drain_payloads(&mut link);
        let s = link.stats();
        assert_eq!(s.delivered, 100);
        assert!(s.corrupted > 90, "in-flight corrupted {}", s.corrupted);
    }

    #[test]
    fn set_loss_resets_gilbert_elliott_burst_state() {
        // Force the process into a permanent bad burst...
        let stuck_bad = LossModel::GilbertElliott {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let cfg = LinkConfig::intra_dc(8e9).with_loss(stuck_bad).with_seed(6);
        let mut link = Link::new(cfg);
        for i in 0..10 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        assert_eq!(drain_all(&mut link), 0, "burst drops everything");
        // ...then swap in a model that never *enters* the bad state but
        // always drops while in it. The documented semantics restart in
        // the good state, so nothing drops; carried burst state would have
        // kept dropping forever.
        link.set_loss(LossModel::GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
        for i in 0..10 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        assert_eq!(drain_all(&mut link), 10, "set_loss restarts in good state");
    }

    #[test]
    fn header_bytes_count_against_bandwidth() {
        let mut cfg = LinkConfig::intra_dc(8e9);
        cfg.header_bytes = 100;
        cfg.one_way_delay = SimTime::ZERO;
        let mut link = Link::new(cfg);
        let out = link.enqueue(SimTime::ZERO, pkt(0, 900));
        assert_eq!(out.at, SimTime::from_micros(1));
    }

    #[test]
    fn memoized_serialization_matches_tx_time() {
        // Each length twice (the second read comes from the memo), plus
        // one frame past the MTU, which bypasses it.
        let mut link = test_link(10e9);
        let mut at = SimTime::ZERO;
        for len in [0, 1, 255, 4096, 1, 255, 4096, 0, 9000, 9000] {
            link.enqueue(SimTime::ZERO, pkt(0, len));
            at += tx_time(len as u64, 10e9);
            assert_eq!(link.next_free(), at, "len {len}");
        }
    }

    #[test]
    fn jitter_can_reorder_deliveries() {
        let mut eng = Engine::new();
        let cfg = LinkConfig::intra_dc(8e12)
            .with_reorder_jitter(SimTime::from_micros(50))
            .with_seed(9);
        let link = shared(Link::new(cfg));
        let out = shared(Vec::new());
        for tag in 0..32 {
            link.borrow_mut().enqueue(SimTime::ZERO, pkt(tag, 64));
        }
        pump(&mut eng, &link, &out);
        eng.run();
        let got: Vec<u32> = out.borrow().iter().map(|&(t, _)| t).collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            got, sorted,
            "jitter of 50us over 32 tiny packets must reorder"
        );
        // The pending queue handed them out in arrival order regardless.
        let times: Vec<SimTime> = out.borrow().iter().map(|&(_, at)| at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn set_loss_steps_the_drop_rate_mid_run() {
        let cfg = LinkConfig::wan(100.0, 8e9, 0.0).with_seed(5);
        let mut link = Link::new(cfg);
        for i in 0..500 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        drain_all(&mut link);
        assert_eq!(link.stats().dropped, 0, "clean phase drops nothing");
        link.set_loss(LossModel::Iid { p: 0.5 });
        for i in 0..1000 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        drain_all(&mut link);
        let d = link.stats().dropped;
        assert!((300..700).contains(&d), "post-step drops {d}");
        // Back to clean: the step is fully reversible.
        link.set_loss(LossModel::Perfect);
        for i in 0..500 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        drain_all(&mut link);
        assert_eq!(link.stats().dropped, d, "clean again after the episode");
    }

    #[test]
    fn stats_track_sent_dropped_delivered() {
        let cfg = LinkConfig::wan(100.0, 8e9, 0.5).with_seed(77);
        let mut link = Link::new(cfg);
        for i in 0..1000 {
            link.enqueue(SimTime::ZERO, pkt(i, 100));
        }
        assert_eq!(link.stats().sent, 1000);
        assert_eq!(link.in_flight(), 1000, "fates undecided until delivery");
        drain_all(&mut link);
        let s = link.stats();
        assert_eq!(s.sent, 1000);
        assert_eq!(s.dropped + s.delivered, 1000);
        assert!(s.dropped > 300 && s.dropped < 700, "dropped {}", s.dropped);
        assert_eq!(link.in_flight(), 0);
    }
}
