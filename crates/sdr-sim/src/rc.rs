//! Reliable Connection baseline: NIC-style go-back-N retransmission.
//!
//! Commodity RDMA NICs implement retransmission-based reliability (go-back-N
//! or selective repeat) in the ASIC (paper §2.2). This module provides the
//! go-back-N variant as the *hardware baseline* the paper argues against for
//! long-haul links: a single drop forces the sender to rewind and re-inject
//! everything from the lost packet, and detection costs at least an RTO.
//!
//! The endpoint runs entirely on the discrete-event engine, exchanging
//! Write and Ack/NAK packets through the [`Fabric`].

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use crate::engine::Engine;
use crate::equeue::TimerHandle;
use crate::fabric::Fabric;
use crate::nic::Waker;
use crate::packet::{MkeyId, Packet, PacketKind, Payload, QpAddr, WriteSeg};
use crate::time::SimTime;

/// Cap on the exponential RTO backoff: the effective timeout saturates at
/// `rto << RTO_BACKOFF_CAP` (64× base). During a dead-link window the
/// sender therefore rewinds O(log) times and then probes at the capped
/// cadence, instead of storming a retransmit burst every base RTO.
pub const RTO_BACKOFF_CAP: u32 = 6;

/// Tuning knobs of the go-back-N endpoint.
#[derive(Clone, Debug)]
pub struct RcConfig {
    /// Send window in packets.
    pub window: usize,
    /// Base retransmission timeout for the oldest unacked packet. Doubles
    /// on every expiry without progress, up to [`RTO_BACKOFF_CAP`]
    /// doublings, and restarts at the base value when an ACK acknowledges
    /// new data (Karn-style restart).
    pub rto: SimTime,
    /// Receiver sends a cumulative ACK every this many in-order packets
    /// (and always on the last packet of a message).
    pub ack_every: u32,
    /// Payload bytes per packet.
    pub mtu: usize,
}

impl Default for RcConfig {
    fn default() -> Self {
        RcConfig {
            window: 256,
            rto: SimTime::from_millis(1),
            ack_every: 16,
            mtu: 4096,
        }
    }
}

/// Counters exported by an RC endpoint.
#[derive(Clone, Copy, Debug, Default)]
pub struct RcStats {
    /// Data packets sent, including retransmissions.
    pub data_sent: u64,
    /// Packets retransmitted by go-back-N rewinds or RTOs.
    pub retransmitted: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// NAKs sent (receiver side).
    pub naks_sent: u64,
    /// ACKs sent (receiver side).
    pub acks_sent: u64,
}

struct SendMsg {
    data: Bytes,
    remote_mkey: MkeyId,
    remote_offset: u64,
    imm: Option<u32>,
    n_pkts: u32,
    base: u32,
    next: u32,
    on_complete: Option<Box<dyn FnOnce(&mut Engine)>>,
}

/// One end of a go-back-N reliable connection.
pub struct RcEndpoint {
    fabric: Fabric,
    local: QpAddr,
    peer: QpAddr,
    cfg: RcConfig,
    // Sender state.
    msg: Option<SendMsg>,
    /// The single RTO timer: a re-armable engine timer pushed out on every
    /// ACK that makes progress and cancelled at completion — no
    /// generation-stamped no-op events ever fire.
    rto_timer: Option<TimerHandle>,
    /// Current backoff exponent: effective RTO is `rto << backoff`,
    /// saturating at [`RTO_BACKOFF_CAP`].
    backoff: u32,
    // Receiver state.
    epsn: u32,
    last_nak: Option<u32>,
    in_order_since_ack: u32,
    recv_bytes: u64,
    stats: RcStats,
}

impl RcEndpoint {
    /// Creates an endpoint on `local` talking to `peer` and hooks its inbox
    /// waker. The QP must be of type [`QpType::Rc`](crate::nic::QpType::Rc).
    pub fn new(
        fabric: &Fabric,
        local: QpAddr,
        peer: QpAddr,
        cfg: RcConfig,
    ) -> Rc<RefCell<RcEndpoint>> {
        let ep = Rc::new(RefCell::new(RcEndpoint {
            fabric: fabric.clone(),
            local,
            peer,
            cfg,
            msg: None,
            rto_timer: None,
            backoff: 0,
            epsn: 0,
            last_nak: None,
            in_order_since_ack: 0,
            recv_bytes: 0,
            stats: RcStats::default(),
        }));
        let hook = ep.clone();
        let fab = fabric.clone();
        fabric.node_mut(local.node, |n| {
            n.set_inbox_waker(
                local.qp,
                Waker::new(move |eng| {
                    while let Some(pkt) = fab.node_mut(local.node, |n| n.pop_inbox(local.qp)) {
                        hook.borrow_mut().on_packet(eng, pkt);
                    }
                }),
            );
        });
        ep
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RcStats {
        self.stats
    }

    /// Total payload bytes received in order.
    pub fn received_bytes(&self) -> u64 {
        self.recv_bytes
    }

    /// Posts a reliable write of `data` to the peer's memory. `on_complete`
    /// runs when the final cumulative ACK arrives. One message at a time.
    ///
    /// # Panics
    /// Panics if a message is already in flight.
    pub fn post_write(
        this: &Rc<RefCell<RcEndpoint>>,
        eng: &mut Engine,
        data: Bytes,
        remote_mkey: MkeyId,
        remote_offset: u64,
        imm: Option<u32>,
        on_complete: impl FnOnce(&mut Engine) + 'static,
    ) {
        {
            let mut ep = this.borrow_mut();
            assert!(
                ep.msg.is_none(),
                "RC endpoint supports one message in flight"
            );
            let mtu = ep.cfg.mtu;
            let n_pkts = if data.is_empty() {
                1
            } else {
                data.len().div_ceil(mtu) as u32
            };
            ep.msg = Some(SendMsg {
                data,
                remote_mkey,
                remote_offset,
                imm,
                n_pkts,
                base: 0,
                next: 0,
                on_complete: Some(Box::new(on_complete)),
            });
            ep.backoff = 0;
            ep.pump(eng);
        }
        Self::arm_timer(this, eng);
    }

    /// Effective timeout under the current backoff exponent.
    fn rto_effective(&self) -> SimTime {
        self.cfg.rto * (1u64 << self.backoff)
    }

    /// Pushes the RTO deadline out to `now + rto` and restarts the backoff
    /// at the base timeout (an ACK made progress — the Karn-style restart:
    /// only fresh evidence the channel is alive resets the exponent).
    fn bump_timer(&mut self, eng: &mut Engine) {
        self.backoff = 0;
        if let Some(h) = self.rto_timer {
            let at = eng.now().saturating_add(self.cfg.rto);
            let _ = eng.reschedule(h, at);
        }
    }

    /// Sends as many packets as the window allows.
    fn pump(&mut self, eng: &mut Engine) {
        let Some(msg) = &mut self.msg else { return };
        let window_end = (msg.base + self.cfg.window as u32).min(msg.n_pkts);
        while msg.next < window_end {
            let i = msg.next;
            msg.next += 1;
            let mtu = self.cfg.mtu;
            let lo = i as usize * mtu;
            let hi = ((i as usize + 1) * mtu).min(msg.data.len());
            let last = i == msg.n_pkts - 1;
            let seg = if msg.n_pkts == 1 {
                WriteSeg::Only
            } else if i == 0 {
                WriteSeg::First
            } else if last {
                WriteSeg::Last
            } else {
                WriteSeg::Middle
            };
            let pkt = Packet {
                src: self.local,
                dst: self.peer,
                psn: i,
                kind: PacketKind::Write {
                    seg,
                    mkey: msg.remote_mkey,
                    crc: None,
                    // GBN retransmits from an arbitrary packet, so every
                    // packet carries its absolute target offset.
                    offset: msg.remote_offset + lo as u64,
                    imm: if last { msg.imm } else { None },
                },
                payload: if lo < msg.data.len() {
                    msg.data.slice(lo..hi).into()
                } else {
                    Bytes::new().into()
                },
            };
            self.stats.data_sent += 1;
            let _ = self.fabric.send_raw(eng, pkt);
        }
    }

    fn arm_timer(this: &Rc<RefCell<RcEndpoint>>, eng: &mut Engine) {
        let rto = {
            let ep = this.borrow();
            if ep.msg.is_none() {
                return;
            }
            ep.cfg.rto
        };
        let me = this.clone();
        // One recurring timer per message: the timer only ever fires when
        // the full RTO elapsed without progress (progress *reschedules* it
        // instead of letting it fire as a no-op), rewinds, backs off
        // exponentially, and re-arms its own node in place.
        let h = eng.schedule_recurring_in(rto, move |eng| {
            let mut ep = me.borrow_mut();
            match &mut ep.msg {
                Some(_) => {
                    // No progress since the timer was (re)armed: rewind
                    // and double the next wait (capped) — a dead link
                    // costs O(log) rewinds, not one per base RTO.
                    ep.stats.timeouts += 1;
                    let msg = ep.msg.as_mut().unwrap();
                    let outstanding = msg.next - msg.base;
                    msg.next = msg.base;
                    ep.stats.retransmitted += outstanding as u64;
                    ep.pump(eng);
                    ep.backoff = (ep.backoff + 1).min(RTO_BACKOFF_CAP);
                    Some(eng.now().saturating_add(ep.rto_effective()))
                }
                // Completed; the handle was cancelled there, so this arm
                // is only a backstop.
                None => None,
            }
        });
        this.borrow_mut().rto_timer = Some(h);
    }

    fn on_packet(&mut self, eng: &mut Engine, pkt: Packet) {
        match pkt.kind {
            PacketKind::Ack { psn, nak } => self.on_ack(eng, psn, nak),
            PacketKind::Write {
                seg,
                mkey,
                offset,
                imm,
                ..
            } => {
                // The NIC hands RC inboxes owned bytes only.
                let Payload::Owned(payload) = pkt.payload else {
                    return;
                };
                self.on_data(eng, pkt.psn, seg, mkey, offset, imm, payload)
            }
            PacketKind::Send { .. } => {}
        }
    }

    fn on_ack(&mut self, eng: &mut Engine, psn: u32, nak: bool) {
        let Some(msg) = &mut self.msg else { return };
        let mut progress = false;
        if psn > msg.base {
            msg.base = psn;
            progress = true; // progress: reset the RTO window
        }
        if nak && psn >= msg.base && psn < msg.next {
            // Go-back-N rewind: retransmit everything from the hole.
            self.stats.retransmitted += (msg.next - psn) as u64;
            msg.base = psn;
            msg.next = psn;
            progress = true;
        }
        let done = msg.base >= msg.n_pkts;
        if done {
            if let Some(h) = self.rto_timer.take() {
                eng.cancel(h);
            }
            if let Some(cb) = self.msg.take().unwrap().on_complete {
                cb(eng);
            }
        } else {
            if progress {
                self.bump_timer(eng);
            }
            self.pump(eng);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        eng: &mut Engine,
        psn: u32,
        seg: WriteSeg,
        mkey: MkeyId,
        offset: u64,
        imm: Option<u32>,
        payload: Bytes,
    ) {
        if psn != self.epsn {
            if psn > self.epsn && self.last_nak != Some(self.epsn) {
                self.last_nak = Some(self.epsn);
                self.stats.naks_sent += 1;
                self.send_ack(eng, self.epsn, true);
            }
            return; // out-of-order packet discarded (no buffering in GBN)
        }
        self.epsn += 1;
        self.last_nak = None;
        self.recv_bytes += payload.len() as u64;
        // Land the payload through the key table (ordering already enforced).
        let (local, peer) = (self.local, self.peer);
        self.fabric.node_mut(local.node, |n| {
            n.land_write(eng, local.qp, peer, mkey, offset, &payload, imm);
        });
        self.in_order_since_ack += 1;
        let last = matches!(seg, WriteSeg::Last | WriteSeg::Only);
        if last || self.in_order_since_ack >= self.cfg.ack_every {
            self.in_order_since_ack = 0;
            self.stats.acks_sent += 1;
            self.send_ack(eng, self.epsn, false);
        }
    }

    fn send_ack(&mut self, eng: &mut Engine, psn: u32, nak: bool) {
        let pkt = Packet {
            src: self.local,
            dst: self.peer,
            psn: 0,
            kind: PacketKind::Ack { psn, nak },
            payload: Bytes::new().into(),
        };
        let _ = self.fabric.send_raw(eng, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::link::LinkConfig;
    use crate::loss::LossModel;
    use crate::nic::QpType;
    use std::cell::Cell;

    fn rc_pair(
        p_drop: f64,
        seed: u64,
    ) -> (
        Engine,
        Fabric,
        Rc<RefCell<RcEndpoint>>,
        Rc<RefCell<RcEndpoint>>,
        crate::nic::Mr,
    ) {
        let eng = Engine::new();
        let fab = Fabric::new();
        let a = fab.add_node(1 << 22);
        let b = fab.add_node(1 << 22);
        let cfg = LinkConfig::intra_dc(8e9)
            .with_loss(LossModel::Iid { p: p_drop })
            .with_seed(seed);
        fab.link_duplex(a, b, cfg);
        let qa = fab.node_mut(a, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Rc, cq, cq)
        });
        let qb = fab.node_mut(b, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Rc, cq, cq)
        });
        let addr_a = QpAddr { node: a, qp: qa };
        let addr_b = QpAddr { node: b, qp: qb };
        let mr = fab.node_mut(b, |n| n.alloc_mr(1 << 21));
        let rc_cfg = RcConfig {
            rto: SimTime::from_micros(200),
            ..RcConfig::default()
        };
        let ep_a = RcEndpoint::new(&fab, addr_a, addr_b, rc_cfg.clone());
        let ep_b = RcEndpoint::new(&fab, addr_b, addr_a, rc_cfg);
        (eng, fab, ep_a, ep_b, mr)
    }

    fn roundtrip(p_drop: f64, seed: u64, len: usize) -> (bool, RcStats, RcStats) {
        let (mut eng, fab, ep_a, ep_b, mr) = rc_pair(p_drop, seed);
        let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        RcEndpoint::post_write(
            &ep_a,
            &mut eng,
            Bytes::from(data.clone()),
            mr.mkey,
            0,
            Some(1),
            move |_| d.set(true),
        );
        eng.set_event_limit(5_000_000);
        eng.run();
        let ok = done.get()
            && fab.node(crate::packet::NodeId(1), |n| {
                n.mem().read(mr.addr, len) == &data[..]
            });
        let stats = (ok, ep_a.borrow().stats(), ep_b.borrow().stats());
        stats
    }

    #[test]
    fn lossless_transfer_completes_without_retransmission() {
        let (ok, s_a, _) = roundtrip(0.0, 1, 100_000);
        assert!(ok);
        assert_eq!(s_a.retransmitted, 0);
        assert_eq!(s_a.data_sent, 25); // 100000 / 4096 → 25 packets
    }

    #[test]
    fn lossy_transfer_still_delivers_all_data() {
        let (ok, s_a, s_b) = roundtrip(0.05, 7, 200_000);
        assert!(ok, "go-back-N must recover from 5% loss");
        assert!(s_a.retransmitted > 0, "retransmissions expected");
        assert!(s_b.naks_sent + s_a.timeouts > 0);
    }

    #[test]
    fn rto_backoff_bounds_rewinds_through_a_blackout() {
        use crate::fault::{FaultEvent, FaultPlan};
        // A 50 ms blackout against a 200 us base RTO: a fixed-RTO sender
        // would rewind ~250 times; exponential backoff pays
        // log2(64) = 6 doublings then probes at 12.8 ms, so the whole
        // outage costs ~10 rewinds.
        let (mut eng, fab, ep_a, _ep_b, mr) = rc_pair(0.0, 21);
        let plan = FaultPlan::new_duplex().with(FaultEvent::Blackout {
            at: SimTime::from_micros(50),
            duration: SimTime::from_millis(50),
        });
        fab.apply_fault_plan(
            &mut eng,
            crate::packet::NodeId(0),
            crate::packet::NodeId(1),
            &plan,
        )
        .unwrap();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 253) as u8).collect();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        RcEndpoint::post_write(
            &ep_a,
            &mut eng,
            Bytes::from(data.clone()),
            mr.mkey,
            0,
            None,
            move |_| d.set(true),
        );
        eng.run();
        assert!(done.get(), "transfer survives the blackout");
        fab.node(crate::packet::NodeId(1), |n| {
            assert_eq!(n.mem().read(mr.addr, data.len()), &data[..]);
        });
        let timeouts = ep_a.borrow().stats().timeouts;
        assert!(
            (2..=14).contains(&timeouts),
            "backoff caps rewinds at O(log): {timeouts}"
        );
    }

    #[test]
    fn gbn_retransmits_more_than_lost() {
        // The go-back-N pathology: retransmitted ≥ drops (usually ≫).
        let (ok, s_a, _) = roundtrip(0.02, 13, 400_000);
        assert!(ok);
        let sent_min = 400_000 / 4096 + 1;
        let lost_est = (s_a.data_sent as f64 * 0.02) as u64;
        assert!(
            s_a.retransmitted >= lost_est,
            "retransmitted {} < approx lost {}",
            s_a.retransmitted,
            lost_est
        );
        assert!(s_a.data_sent as usize > sent_min);
    }
}
