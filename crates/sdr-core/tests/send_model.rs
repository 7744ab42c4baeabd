//! The SDR send verbs (§3.3, Table 1) checked against a model.
//!
//! Random call sequences — `recv_post`, `send_post`,
//! `send_stream_start` / `continue` / `end`, `send_poll`, `send_release`,
//! `recv_complete` and engine runs — drive one lossless `sdr_pair`. After
//! every call the QP is compared with a pure model of send sequences, CTS
//! credits and receive slots. The properties:
//!
//! * every `Err` leaves `live_sends()` and the next send's matching
//!   receive (`next_send_seq()`, `has_cts` of it) unchanged;
//! * the k-th send fills the k-th receive (packet count and bytes);
//! * every send ends completed, failed with its error, or released;
//! * `live_sends() == 0` once everything is released.
//!
//! A receive is completed only once no send at or below its sequence can
//! still inject: with two generations, a straggler that outlives two reuses
//! of its slot is the aliasing §3.3 leaves to the reliability layer, not a
//! property of the verbs.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdr_core::testkit::{pattern, sdr_pair, SdrPair};
use sdr_core::{ImmLayout, RecvHandle, SdrConfig, SdrError, SendHandle};
use sdr_sim::LinkConfig;

const MAX: u64 = 1 << 16;
const SLOTS: u64 = 4;
/// Send buffers, each holding its own pattern; send `s` reads buffer
/// `s % SRCS`, so a send that lands in the wrong receive shows in the bytes.
const SRCS: u64 = 8;
const RECV_LENS: [u64; 4] = [1000, 9000, 40_000, MAX];
/// The last length exceeds `max_msg_bytes`.
const SEND_LENS: [u64; 6] = [1000, 4096, 9000, 40_000, MAX, MAX + 1];

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: MAX,
        msg_slots: SLOTS as usize,
        mtu_bytes: 4096,
        chunk_bytes: 4 * 4096,
        channels: 2,
        generations: 2,
        imm: ImmLayout::default(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Deferred,
    Open,
    Ended,
    Failed,
}

struct Send {
    hdl: SendHandle,
    len: u64,
    phase: Phase,
    /// Injected since the last engine run: its completion is pending.
    in_flight: bool,
}

struct Recv {
    hdl: RecvHandle,
    len: u64,
    /// The CTS has been delivered (an engine run followed the post).
    landed: bool,
    active: bool,
    /// Length the matching send injected.
    filled: Option<u64>,
}

/// The QP pair and the model of it.
struct World {
    p: SdrPair,
    src: u64,
    dst: u64,
    send_seq: u64,
    /// Live sends by sequence.
    sends: BTreeMap<u64, Send>,
    /// Every receive posted, by sequence.
    recvs: Vec<Recv>,
    /// Landed, unspent credits: sequence → posted length.
    credits: BTreeMap<u64, u64>,
    released: Vec<SendHandle>,
    sends_completed: u64,
}

type Step = Result<bool, TestCaseError>;

impl World {
    fn new() -> World {
        let p = sdr_pair(LinkConfig::intra_dc(8e9), cfg(), 2 << 20);
        let src = p.ctx_a.alloc_buffer(SRCS * MAX);
        for k in 0..SRCS {
            p.ctx_a
                .write_buffer(src + k * MAX, &pattern(MAX as usize, k + 1));
        }
        let dst = p.ctx_b.alloc_buffer(SLOTS * MAX);
        World {
            p,
            src,
            dst,
            send_seq: 0,
            sends: BTreeMap::new(),
            recvs: Vec::new(),
            credits: BTreeMap::new(),
            released: Vec::new(),
            sends_completed: 0,
        }
    }

    fn src_of(&self, seq: u64) -> u64 {
        self.src + (seq % SRCS) * MAX
    }

    fn dst_of(&self, seq: u64) -> u64 {
        self.dst + (seq % SLOTS) * MAX
    }

    /// `live_sends()`, and which receive the next send matches.
    fn observe(&self) -> (usize, u64, bool) {
        let qp = &self.p.qp_a;
        let next = qp.next_send_seq();
        (qp.live_sends(), next, qp.has_cts(next))
    }

    /// The live send named by `arg`, if any.
    fn pick(&self, arg: u8) -> Option<u64> {
        let n = self.sends.len();
        (n > 0).then(|| *self.sends.keys().nth(arg as usize % n).expect("in range"))
    }

    /// Runs call `op`; returns whether the QP answered `Err`.
    fn step(&mut self, op: u8, arg: u8) -> Step {
        match op {
            0 | 1 => self.recv_post(RECV_LENS[arg as usize % RECV_LENS.len()]),
            2 | 3 => self.open(SEND_LENS[arg as usize % SEND_LENS.len()], false),
            4 => self.open(SEND_LENS[arg as usize % SEND_LENS.len()], true),
            5 => self.stream_continue(arg),
            6 => self.stream_end(arg),
            7 => self.poll(arg),
            8 => self.release(arg),
            9 => self.recv_complete(arg),
            _ => self.run().map(|()| false),
        }
    }

    fn recv_post(&mut self, len: u64) -> Step {
        let r = self.recvs.len() as u64;
        let busy = r >= SLOTS && self.recvs[(r - SLOTS) as usize].active;
        let addr = self.dst_of(r);
        let got = self.p.qp_b.recv_post(&mut self.p.eng, addr, len);
        if busy {
            prop_assert_eq!(got.err(), Some(SdrError::SlotBusy));
            return Ok(true);
        }
        let hdl = got.map_err(|e| TestCaseError::fail(format!("recv_post: {e}")))?;
        prop_assert_eq!(hdl.seq(), r);
        self.recvs.push(Recv {
            hdl,
            len,
            landed: false,
            active: true,
            filled: None,
        });
        Ok(false)
    }

    /// `send_post` (`stream == false`) or `send_stream_start`.
    fn open(&mut self, len: u64, stream: bool) -> Step {
        let s = self.send_seq;
        let want = match self.credits.get(&s) {
            _ if len > MAX => Err(SdrError::TooLarge),
            Some(&c) if len > c => Err(SdrError::TooLarge),
            Some(_) if stream => Ok(Phase::Open),
            Some(_) => Ok(Phase::Ended),
            None if stream => Err(SdrError::NoCts),
            None => Ok(Phase::Deferred),
        };
        let addr = self.src_of(s);
        let (qp, eng) = (&self.p.qp_a, &mut self.p.eng);
        let got = if stream {
            qp.send_stream_start(eng, addr, len, None)
        } else {
            qp.send_post(eng, addr, len, None)
        };
        let phase = match (want, got) {
            (Ok(phase), Ok(hdl)) => {
                self.sends.insert(
                    s,
                    Send {
                        hdl,
                        len,
                        phase,
                        in_flight: false,
                    },
                );
                phase
            }
            (want, got) => {
                prop_assert_eq!(got.err(), want.err(), "open {} B at seq {}", len, s);
                return Ok(true);
            }
        };
        self.send_seq += 1;
        if phase != Phase::Deferred {
            self.credits.remove(&s);
        }
        if phase == Phase::Ended {
            self.injected(s);
        }
        Ok(false)
    }

    /// Send `s` put its whole message on the wire.
    fn injected(&mut self, s: u64) {
        let send = self.sends.get_mut(&s).expect("live");
        send.in_flight = true;
        self.recvs[s as usize].filled = Some(send.len);
    }

    fn stream_continue(&mut self, arg: u8) -> Step {
        let Some(s) = self.pick(arg) else {
            return Ok(false);
        };
        let (hdl, len, phase) = (self.sends[&s].hdl, self.sends[&s].len, self.sends[&s].phase);
        let got = self
            .p
            .qp_a
            .send_stream_continue(&mut self.p.eng, &hdl, 0, len, |_, _| {});
        if phase != Phase::Open {
            prop_assert_eq!(got, Err(SdrError::StreamEnded));
            return Ok(true);
        }
        prop_assert_eq!(got, Ok(()));
        self.injected(s);
        Ok(false)
    }

    fn stream_end(&mut self, arg: u8) -> Step {
        let Some(s) = self.pick(arg) else {
            return Ok(false);
        };
        let send = self.sends.get_mut(&s).expect("picked");
        let got = self.p.qp_a.send_stream_end(&send.hdl);
        if send.phase != Phase::Open {
            prop_assert_eq!(got, Err(SdrError::StreamEnded));
            return Ok(true);
        }
        prop_assert_eq!(got, Ok(()));
        send.phase = Phase::Ended;
        Ok(false)
    }

    /// Polls a live send (checked in [`check`](Self::check)) or, on an odd
    /// `arg`, a released one.
    fn poll(&mut self, arg: u8) -> Step {
        if arg % 2 == 1 && !self.released.is_empty() {
            let hdl = self.released[arg as usize / 2 % self.released.len()];
            prop_assert_eq!(self.p.qp_a.send_poll(&hdl), Err(SdrError::BadHandle));
            return Ok(true);
        }
        let Some(s) = self.pick(arg) else {
            return Ok(false);
        };
        let got = self.p.qp_a.send_poll(&self.sends[&s].hdl);
        Ok(got.is_err())
    }

    fn release(&mut self, arg: u8) -> Step {
        let Some(s) = self.pick(arg) else {
            return Ok(false);
        };
        let hdl = self.sends.remove(&s).expect("picked").hdl;
        self.p.qp_a.send_release(hdl);
        self.released.push(hdl);
        Ok(false)
    }

    /// Completes a receive that no send can still write: its own send and
    /// every earlier one have opened and can inject no more.
    fn recv_complete(&mut self, arg: u8) -> Step {
        let settled = |r: u64| {
            r < self.send_seq
                && self
                    .sends
                    .range(..=r)
                    .all(|(_, s)| matches!(s.phase, Phase::Ended | Phase::Failed))
        };
        let ready: Vec<u64> = (0..self.recvs.len() as u64)
            .filter(|&r| self.recvs[r as usize].active && settled(r))
            .collect();
        if ready.is_empty() {
            return Ok(false);
        }
        let r = ready[arg as usize % ready.len()];
        self.run()?;
        let hdl = self.recvs[r as usize].hdl;
        prop_assert_eq!(self.p.qp_b.recv_complete(&mut self.p.eng, &hdl), Ok(()));
        self.recvs[r as usize].active = false;
        Ok(false)
    }

    /// Runs the engine dry: every CTS lands, a deferred one-shot meets its
    /// credit, and everything injected arrives and completes.
    fn run(&mut self) -> Result<(), TestCaseError> {
        self.p.eng.run();
        for r in 0..self.recvs.len() {
            if std::mem::replace(&mut self.recvs[r].landed, true) {
                continue;
            }
            let (s, len) = (r as u64, self.recvs[r].len);
            match self.sends.get_mut(&s) {
                Some(send) if send.phase == Phase::Deferred && send.len > len => {
                    send.phase = Phase::Failed;
                }
                Some(send) if send.phase == Phase::Deferred => {
                    send.phase = Phase::Ended;
                    self.injected(s);
                }
                _ if s >= self.send_seq => {
                    self.credits.insert(s, len);
                }
                // Its send opened (or was released while deferred).
                _ => {}
            }
        }
        for send in self.sends.values_mut() {
            if std::mem::take(&mut send.in_flight) && send.phase == Phase::Ended {
                self.sends_completed += 1;
            }
        }
        self.check_fills()
    }

    /// The k-th send fills the k-th receive, and nothing else does.
    fn check_fills(&self) -> Result<(), TestCaseError> {
        let c = cfg();
        for (r, recv) in self.recvs.iter().enumerate().filter(|(_, v)| v.active) {
            let bm = self.p.qp_b.recv_bitmap(&recv.hdl).expect("active");
            let want = recv.filled.map_or(0, |len| c.packets_for(len) as usize);
            prop_assert_eq!(bm.packets().count_set(), want, "receive {}", r);
            if let Some(len) = recv.filled {
                let got = self
                    .p
                    .ctx_b
                    .read_buffer(self.dst_of(r as u64), len as usize);
                let sent = self
                    .p
                    .ctx_a
                    .read_buffer(self.src_of(r as u64), len as usize);
                prop_assert!(got == sent, "receive {} holds another send's bytes", r);
            }
        }
        Ok(())
    }

    /// The QP agrees with the model.
    fn check(&self) -> Result<(), TestCaseError> {
        let qp = &self.p.qp_a;
        prop_assert_eq!(qp.live_sends(), self.sends.len());
        prop_assert_eq!(qp.next_send_seq(), self.send_seq);
        for s in 0..=self.send_seq.max(self.recvs.len() as u64) {
            prop_assert_eq!(qp.has_cts(s), self.credits.contains_key(&s), "credit {}", s);
        }
        for (s, send) in &self.sends {
            let want = match send.phase {
                Phase::Failed => Err(SdrError::TooLarge),
                Phase::Ended => Ok(!send.in_flight),
                Phase::Deferred | Phase::Open => Ok(false),
            };
            prop_assert_eq!(qp.send_poll(&send.hdl), want, "send {} {:?}", s, send.phase);
        }
        prop_assert_eq!(qp.stats().sends_completed, self.sends_completed);
        Ok(())
    }

    /// Ends every stream, runs dry, and releases everything.
    fn finish(&mut self) -> Result<(), TestCaseError> {
        let open: Vec<u64> = self
            .sends
            .iter()
            .filter(|(_, s)| s.phase == Phase::Open)
            .map(|(&s, _)| s)
            .collect();
        for s in open {
            let send = self.sends.get_mut(&s).expect("live");
            prop_assert_eq!(self.p.qp_a.send_stream_end(&send.hdl), Ok(()));
            send.phase = Phase::Ended;
        }
        self.run()?;
        self.check()?;
        let posted = self.recvs.len() as u64;
        for (&s, send) in &self.sends {
            let outcome = self.p.qp_a.send_poll(&send.hdl);
            prop_assert!(
                matches!(outcome, Ok(true) | Err(SdrError::TooLarge)) || s >= posted,
                "send {} neither completed nor failed: {:?}",
                s,
                outcome
            );
        }
        for (_, send) in std::mem::take(&mut self.sends) {
            self.p.qp_a.send_release(send.hdl);
        }
        prop_assert_eq!(self.p.qp_a.live_sends(), 0);
        Ok(())
    }
}

fn play(ops: &[(u8, u8)]) -> Result<(), TestCaseError> {
    let mut w = World::new();
    for (n, &(op, arg)) in ops.iter().enumerate() {
        let before = w.observe();
        if w.step(op, arg)? {
            prop_assert_eq!(
                w.observe(),
                before,
                "call {} (op {}) failed and left a trace",
                n,
                op
            );
        }
        w.check()?;
    }
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of verb calls keeps the QP in step with the model.
    #[test]
    fn send_verbs_follow_the_model(ops in proptest::collection::vec((0u8..12, any::<u8>()), 1..48)) {
        play(&ops)?;
    }
}
