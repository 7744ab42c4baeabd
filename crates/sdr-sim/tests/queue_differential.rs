//! Differential proof that the engine's queue — the timing wheel and its
//! two lanes — executes exactly `(time, schedule order)`.
//!
//! The reference is the model at the bottom of this file — a
//! `BTreeMap<(deadline, rank), event>` with one rank counter, sharing no
//! code with the engine — interpreting the same randomized programs of
//! one-shot schedules, nested schedules, recurring events (some parking
//! at `SimTime::MAX` until a re-arm), cancels (queued and mid-fire) and
//! re-arms, plus the two shapes the lanes exist
//! for: zero-delay kicks scheduled from inside a firing event (the
//! same-instant FIFO), and short-period pumps that re-arm ahead of
//! everything (the held re-arm), with ties at the held instant scheduled
//! both before and after the hold and kicks that cancel or reschedule the
//! kicked or held node. The full execution trace (fire time, firing order,
//! executed/pending counters, final clock) must match exactly, driven by
//! `run` and, for half the programs, also by `run_until` and `step`. A
//! second set of directed tests stresses the cancel-while-firing window and
//! the cancelled-timer accounting rules.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;
use sdr_sim::{Engine, SimTime, TimerHandle};

/// The driver's cadence. Half the generated delays are snapped to it so
/// events tie with each other and with the driver's re-arm: rank shows only
/// in a tie, and delays uniform over picoseconds never produce one.
const GRID: u64 = 100_000;

/// Executed events after which a run gives up (a failed self-cancel
/// re-arms forever: a mismatch, not a hang).
const LIMIT: u64 = 10_000;

/// `(log of (fire-time, tag), executed, pending, final now)`.
type Trace = (Vec<(u64, u32)>, u64, usize, u64);

/// One step of a randomized queue workload, interpreted identically by the
/// engine and by the model.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule a one-shot at `now + dt` that logs `tag`.
    Once { dt: u64, tag: u32 },
    /// Schedule a one-shot at `now + dt` that logs `tag` and, when it
    /// fires, schedules a nested one-shot `dt2` later logging `tag + 1`.
    Nested { dt: u64, dt2: u64, tag: u32 },
    /// Schedule a recurring event at `now + dt` with period `period`,
    /// firing `count` times, logging `tag` each fire. An odd `tag` ends it
    /// the hard way: the last fire cancels itself and still asks for a
    /// re-arm, which the cancel must suppress. A `tag` ≡ 2 (mod 4) parks
    /// instead: its last fire re-arms at `SimTime::MAX`, off the queue
    /// until a `Reschedule` brings it back for one more fire.
    Recurring {
        dt: u64,
        period: u64,
        count: u32,
        tag: u32,
    },
    /// Cancel the `k`-th handle created so far (modulo live count).
    Cancel { k: usize },
    /// Re-arm the `k`-th handle to `now + dt`.
    Reschedule { k: usize, dt: u64 },
    /// Schedule a one-shot at `now + dt` logging `tag` that kicks two
    /// zero-delay one-shots K1 (`tag + 1`) and K2 (`tag + 2`). K1 kicks a
    /// third, K3 (`tag + 3`), then does `act` to K2: nothing, cancel it,
    /// reschedule it to now (behind K3) or one `GRID` later.
    Kick { dt: u64, tag: u32, act: u8 },
    /// A recurring pump at `now + dt` with a short `period`, firing
    /// `count` times, logging `tag`: it re-arms ahead of everything else,
    /// so it is held whenever the slot is free. Each fire kicks a
    /// zero-delay one-shot (`tag ^ 0x200`). `ties & 1`: the fire itself
    /// schedules a one-shot at its re-arm instant (`tag ^ 0x100`, ranked
    /// ahead of the re-arm); `ties & 2`: the kick does (`tag ^ 0x300`,
    /// ranked behind the held re-arm). On fire `at_fire` the kick does
    /// `act` to the pump: cancel it, or reschedule it to now, to its
    /// re-arm instant (behind the kick's tie) or halfway there.
    Pump {
        dt: u64,
        period: u64,
        count: u32,
        tag: u32,
        ties: u8,
        act: u8,
        at_fire: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> + Clone {
    (
        (0u32..8, 0u64..5_000_000, 0u64..600_000),
        (0usize..64, 1u32..5, 0u8..4, 1u64..=130, 0u8..4),
    )
        .prop_map(|((which, raw, dt2), (k, count, act, short, ties))| {
            // Tags come from the unsnapped draw, so tied events differ.
            let snap = |d: u64| d - if d & 1 == 0 { d % GRID } else { 0 };
            let (dt, dt2) = (snap(raw), snap(dt2));
            match which {
                0 | 1 => Op::Once {
                    dt,
                    tag: raw as u32 ^ 0x5151,
                },
                2 => Op::Nested {
                    dt,
                    dt2,
                    tag: raw as u32 ^ 0xA3A3,
                },
                3 => Op::Recurring {
                    dt,
                    period: dt2.max(1),
                    count,
                    tag: raw as u32 ^ 0x77,
                },
                4 => Op::Cancel { k },
                5 => Op::Reschedule { k, dt },
                6 => Op::Kick {
                    dt,
                    tag: raw as u32 ^ 0x3C3C,
                    act,
                },
                // Inside the driver's period (or at its instant), so the
                // driver's own re-arm is not what fills the held slot.
                _ => Op::Pump {
                    dt: snap(raw % GRID),
                    period: short,
                    count: count + 2,
                    tag: raw as u32 ^ 0xC0DE,
                    ties,
                    act,
                    at_fire: (raw >> 8) as u32 % (count + 2),
                },
            }
        })
}

/// How a program's engine run is driven.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// One `run()`.
    Run,
    /// `run_until` at every multiple of the stride until the queue drains.
    RunUntil(u64),
    /// `step()` until the queue drains.
    Step,
}

/// Executes the op program on the engine and returns the trace.
fn run_program(ops: &[Op], drive: Drive) -> Trace {
    let mut eng = Engine::new();
    eng.set_event_limit(LIMIT);
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let handles: Rc<RefCell<Vec<TimerHandle>>> = Rc::new(RefCell::new(Vec::new()));

    // Interleave scheduling with execution: every op happens inside its
    // own driver event so cancels/re-arms race real queue state. Driver
    // events ride one recurring timer at a fixed cadence, like a protocol
    // control loop would.
    let ops: Vec<Op> = ops.to_vec();
    let mut i = 0usize;
    let (l, h) = (log.clone(), handles.clone());
    eng.schedule_recurring_at(SimTime(0), move |eng| {
        let op = ops[i];
        i += 1;
        // The k-th handle so far (modulo their count), once there is one.
        let nth = |k: usize| h.borrow().get(k % h.borrow().len().max(1)).copied();
        match op {
            Op::Once { dt, tag } => {
                let l = l.clone();
                let hd = eng.schedule_in_handle(SimTime(dt), move |e| {
                    l.borrow_mut().push((e.now().0, tag));
                });
                h.borrow_mut().push(hd);
            }
            Op::Nested { dt, dt2, tag } => {
                let l = l.clone();
                let hd = eng.schedule_in_handle(SimTime(dt), move |e| {
                    l.borrow_mut().push((e.now().0, tag));
                    let l2 = l.clone();
                    e.schedule_in(SimTime(dt2), move |e| {
                        l2.borrow_mut().push((e.now().0, tag.wrapping_add(1)));
                    });
                });
                h.borrow_mut().push(hd);
            }
            Op::Recurring {
                dt,
                period,
                count,
                tag,
            } => {
                let l = l.clone();
                let mut left = count;
                // Its own handle is the next one pushed.
                let (hs, me) = (h.clone(), h.borrow().len());
                let hd = eng.schedule_recurring_in(SimTime(dt), move |e| {
                    l.borrow_mut().push((e.now().0, tag));
                    left = left.saturating_sub(1);
                    if left == 0 && tag % 2 == 1 {
                        e.cancel(hs.borrow()[me]);
                    }
                    if left == 0 && tag % 4 == 2 {
                        return Some(SimTime::MAX);
                    }
                    (left > 0 || tag % 2 == 1).then(|| e.now() + SimTime(period))
                });
                h.borrow_mut().push(hd);
            }
            Op::Cancel { k } => {
                if let Some(hd) = nth(k) {
                    eng.cancel(hd);
                }
            }
            Op::Reschedule { k, dt } => {
                if let Some(hd) = nth(k) {
                    eng.reschedule(hd, eng.now() + SimTime(dt));
                }
            }
            Op::Kick { dt, tag, act } => {
                let (l, hs) = (l.clone(), h.clone());
                let hd = eng.schedule_in_handle(SimTime(dt), move |e| kick(e, &l, &hs, tag, act));
                h.borrow_mut().push(hd);
            }
            Op::Pump {
                dt,
                period,
                count,
                tag,
                ties,
                act,
                at_fire,
            } => {
                let l = l.clone();
                let (hs, me) = (h.clone(), h.borrow().len());
                let mut fired = 0u32;
                let hd = eng.schedule_recurring_in(SimTime(dt), move |e| {
                    let now = e.now();
                    l.borrow_mut().push((now.0, tag));
                    if ties & 1 != 0 {
                        let l = l.clone();
                        e.schedule_at(now + SimTime(period), move |e| {
                            l.borrow_mut().push((e.now().0, tag ^ 0x100));
                        });
                    }
                    let (l, hs) = (l.clone(), hs.clone());
                    let acts = fired == at_fire;
                    e.schedule_at(now, move |e| {
                        l.borrow_mut().push((e.now().0, tag ^ 0x200));
                        if ties & 2 != 0 {
                            e.schedule_in(SimTime(period), move |e| {
                                l.borrow_mut().push((e.now().0, tag ^ 0x300));
                            });
                        }
                        if acts {
                            let pump = hs.borrow()[me];
                            let now = e.now();
                            match act {
                                0 => e.cancel(pump),
                                1 => e.reschedule(pump, now),
                                2 => e.reschedule(pump, now + SimTime(period)),
                                _ => e.reschedule(pump, now + SimTime(period / 2 + 1)),
                            };
                        }
                    });
                    fired += 1;
                    (fired < count).then(|| now + SimTime(period))
                });
                h.borrow_mut().push(hd);
            }
        }
        (i < ops.len()).then(|| eng.now() + SimTime(GRID))
    });

    match drive {
        Drive::Run => {
            eng.run();
        }
        Drive::RunUntil(stride) => {
            let mut deadline = 0;
            while eng.pending_events() > 0 && eng.executed_events() < LIMIT {
                deadline += stride;
                eng.run_until(SimTime(deadline));
            }
        }
        Drive::Step => while eng.executed_events() < LIMIT && eng.step() {},
    }
    let (trace, executed) = (log.borrow().clone(), eng.executed_events());
    (trace, executed, eng.pending_events(), eng.now().0)
}

/// The body of an [`Op::Kick`] one-shot (see there).
fn kick(
    e: &mut Engine,
    l: &Rc<RefCell<Vec<(u64, u32)>>>,
    hs: &Rc<RefCell<Vec<TimerHandle>>>,
    tag: u32,
    act: u8,
) {
    l.borrow_mut().push((e.now().0, tag));
    let k2: Rc<Cell<Option<TimerHandle>>> = Rc::default();
    let (l1, k2c) = (l.clone(), k2.clone());
    let k1 = e.schedule_in_handle(SimTime(0), move |e| {
        l1.borrow_mut().push((e.now().0, tag.wrapping_add(1)));
        let l3 = l1.clone();
        e.schedule_in(SimTime(0), move |e| {
            l3.borrow_mut().push((e.now().0, tag.wrapping_add(3)));
        });
        let k2 = k2c.get().expect("K2 scheduled with K1");
        let now = e.now();
        match act {
            1 => e.cancel(k2),
            2 => e.reschedule(k2, now),
            3 => e.reschedule(k2, now + SimTime(GRID)),
            _ => false,
        };
    });
    let l2 = l.clone();
    let k2h = e.schedule_in_handle(SimTime(0), move |e| {
        l2.borrow_mut().push((e.now().0, tag.wrapping_add(2)));
    });
    k2.set(Some(k2h));
    hs.borrow_mut().extend([k1, k2h]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The backbone differential: arbitrary schedule/cancel/re-arm
    /// programs produce byte-identical execution traces on the engine and
    /// on the model — through `run`, and for half the programs also
    /// through `run_until` at a stride (which then ends on the first
    /// stride multiple at or after the last event) and `step`.
    #[test]
    fn wheel_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        more in any::<bool>(),
        stride in 0usize..4,
    ) {
        let stride = [GRID, GRID / 4 + 1, 7_919, 250_000][stride];
        let model = run_model(&ops);
        let mut drives = vec![Drive::Run];
        if more {
            drives.extend([Drive::RunUntil(stride), Drive::Step]);
        }
        for drive in drives {
            let wheel = run_program(&ops, drive);
            let now = match drive {
                Drive::RunUntil(stride) => model.3.div_ceil(stride).max(1) * stride,
                Drive::Run | Drive::Step => model.3,
            };
            prop_assert_eq!(&wheel.0, &model.0, "fire traces diverge under {:?}", drive);
            prop_assert_eq!(wheel.1, model.1, "executed-event counts diverge under {:?}", drive);
            prop_assert_eq!(wheel.2, model.2, "pending counts diverge under {:?}", drive);
            prop_assert_eq!(wheel.3, now, "final times diverge under {:?}", drive);
        }
    }

    /// Loaded-queue ordering: N events at random times (many collisions)
    /// pop in exact (time, schedule-order) on the wheel.
    #[test]
    fn loaded_wheel_pops_sorted_stable(
        times in proptest::collection::vec(0u64..2_000_000, 1..400),
    ) {
        let mut eng = Engine::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &t) in times.iter().enumerate() {
            let l = log.clone();
            eng.schedule_at(SimTime(t), move |e| l.borrow_mut().push((e.now().0, i)));
        }
        eng.run();
        let got = log.borrow().clone();
        let mut want: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        // Stable by time: equal times keep schedule order.
        want.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Directed cancel / accounting stress
// ---------------------------------------------------------------------------

/// A same-instant chain where each firing event cancels the next: only
/// every other event runs, and the cancelled ones are neither executed nor
/// charged.
#[test]
fn cancel_chain_at_one_instant() {
    let mut eng = Engine::new();
    let t = SimTime::from_nanos(5);
    let handles: Rc<RefCell<Vec<TimerHandle>>> = Rc::new(RefCell::new(Vec::new()));
    let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..10 {
        let (h, f) = (handles.clone(), fired.clone());
        let hd = eng.schedule_at_handle(t, move |e| {
            f.borrow_mut().push(i);
            // Cancel the successor (if any): it must not fire.
            let hs = h.borrow();
            if let Some(&next) = hs.get(i + 1) {
                drop(hs);
                assert!(e.cancel(next), "successor was pending");
            }
        });
        handles.borrow_mut().push(hd);
    }
    eng.run();
    assert_eq!(*fired.borrow(), vec![0, 2, 4, 6, 8]);
    assert_eq!(eng.executed_events(), 5, "cancelled events are not charged");
    assert_eq!(eng.pending_events(), 0);
}

/// Cancel-while-firing: a recurring event is cancelled *by another event*
/// in the gap where its body has been taken for execution at the same
/// instant. The re-arm must be suppressed.
#[test]
fn cancel_while_firing_suppresses_rearm() {
    let mut eng = Engine::new();
    let slot: Rc<RefCell<Option<TimerHandle>>> = Rc::new(RefCell::new(None));
    let fires = Rc::new(RefCell::new(0u32));
    let f = fires.clone();
    let s = slot.clone();
    // The recurring event fires first (scheduled first at t), then the
    // killer — then the recurrence would fire again one period later
    // if the cancel failed to reach the firing node.
    let h = eng.schedule_recurring_at(SimTime::from_nanos(10), move |e| {
        *f.borrow_mut() += 1;
        // Schedule the killer at the same instant, *after* this body
        // began executing: it runs within the same tick.
        let s2 = s.clone();
        e.schedule_at(e.now(), move |e| {
            let h = s2.borrow().expect("stored");
            assert!(e.cancel(h), "firing node is cancellable");
            assert!(!e.cancel(h), "second cancel is stale");
        });
        Some(e.now() + SimTime::from_nanos(10))
    });
    *slot.borrow_mut() = Some(h);
    eng.run();
    assert_eq!(*fires.borrow(), 1, "cancel mid-fire kills the recurrence");
    assert_eq!(eng.pending_events(), 0);
}

/// A recurring event that re-arms at never is parked: not pending, so a
/// run drains past it, until a reschedule files it again; a cancel frees it.
#[test]
fn a_recurring_event_re_armed_at_never_parks_until_rescheduled() {
    let mut eng = Engine::new();
    eng.set_event_limit(10);
    let fires = Rc::new(Cell::new(0u32));
    let f = fires.clone();
    let h = eng.schedule_recurring_in(SimTime::from_nanos(10), move |_| {
        f.set(f.get() + 1);
        Some(SimTime::MAX)
    });
    eng.run();
    assert_eq!((fires.get(), eng.now()), (1, SimTime::from_nanos(10)));
    assert!(eng.pending_events() == 0 && !eng.is_scheduled(h));
    assert!(eng.reschedule(h, SimTime::from_nanos(40)));
    eng.run();
    assert_eq!((fires.get(), eng.now()), (2, SimTime::from_nanos(40)));
    assert!(eng.cancel(h) && !eng.reschedule(h, SimTime::from_nanos(50)));
}

/// Dense churn around cancel/re-arm of *many* timers parked in one far
/// slot: exercises O(1) unlinking from a dense slot and the cascade of
/// what is left.
#[test]
fn mass_cancel_in_far_slots_unlinks_eagerly() {
    let mut eng = Engine::new();
    let fired = Rc::new(RefCell::new(0u32));
    let mut handles = Vec::new();
    // 1000 timers parked several wheel levels out.
    for i in 0..1000u64 {
        let f = fired.clone();
        handles.push(
            eng.schedule_at_handle(SimTime::from_micros(100) + SimTime(i), move |_| {
                *f.borrow_mut() += 1
            }),
        );
    }
    assert_eq!(eng.pending_events(), 1000);
    // Cancel three quarters of them before time moves at all.
    for (i, h) in handles.iter().enumerate() {
        if i % 4 != 0 {
            assert!(eng.cancel(*h));
        }
    }
    assert_eq!(eng.pending_events(), 250);
    eng.set_event_limit(250);
    eng.run();
    assert_eq!(
        *fired.borrow(),
        250,
        "every survivor fires within the limit"
    );
    assert_eq!(eng.executed_events(), 250);
    assert_eq!(eng.pending_events(), 0);
}

/// Re-arm storms: a timer rescheduled many times fires exactly once, at
/// the last deadline, in fresh FIFO rank.
#[test]
fn rearm_storm_fires_once_at_final_deadline() {
    let mut eng = Engine::new();
    let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    let l = log.clone();
    let h = eng.schedule_at_handle(SimTime::from_nanos(10), move |_| l.borrow_mut().push(1));
    // Bounce it across levels, ending at 777ns.
    for t in [5_000u64, 80, 2_000_000, 40, 777] {
        assert!(eng.reschedule(h, SimTime::from_nanos(t)));
    }
    let l = log.clone();
    eng.schedule_at(SimTime::from_nanos(777), move |_| l.borrow_mut().push(2));
    eng.run();
    // Handle re-ranked at its last reschedule: the plain event at the
    // same instant was scheduled after it, so fires after it.
    assert_eq!(*log.borrow(), vec![1, 2]);
    assert_eq!(eng.executed_events(), 2);
    assert!(
        !eng.reschedule(h, SimTime::from_nanos(9999)),
        "fired handle is stale"
    );
}

/// The event limit interacts with cancellation: a runaway chain is capped
/// by executed events only — parked cancelled timers do not eat budget.
#[test]
fn event_limit_counts_only_real_executions() {
    let mut eng = Engine::new();
    // 100 far-future timers, all cancelled.
    let doomed: Vec<TimerHandle> = (0..100)
        .map(|_| eng.schedule_at_handle(SimTime::from_secs(5), |_| panic!("cancelled")))
        .collect();
    for h in doomed {
        eng.cancel(h);
    }
    // A 10-deep chain under a limit of 10 completes fully.
    let depth = Rc::new(RefCell::new(0u32));
    fn chain(eng: &mut Engine, d: Rc<RefCell<u32>>, left: u32) {
        if left == 0 {
            return;
        }
        eng.schedule_in(SimTime::from_nanos(1), move |e| {
            *d.borrow_mut() += 1;
            let d2 = d.clone();
            chain(e, d2, left - 1);
        });
    }
    chain(&mut eng, depth.clone(), 10);
    eng.set_event_limit(10);
    eng.run();
    assert_eq!(*depth.borrow(), 10, "the cancelled timers cost no budget");
}

/// The reference model. What one of its events does when it fires — the
/// engine run's closures, as data.
#[derive(Clone, Copy)]
enum Ev {
    /// Interprets the next op and re-arms one `GRID` later.
    Driver,
    /// `(tag, nested)`: logs `tag`; `nested` delays a follow-up logging `tag + 1`.
    Once(u32, Option<u64>),
    /// `(tag, period, left)`: logs `tag`, with `left` fires to go.
    Recur(u32, u64, u32),
    /// `(tag, act)`: an [`Op::Kick`]'s one-shot.
    Kick(u32, u8),
    /// `(tag, act)`: its K1, whose K2 is the next model id.
    K1(u32, u8),
    /// An [`Op::Pump`], `fired` times so far.
    Pump(Pump),
    /// `(pump, id, act)`: a pump fire's kick; `act` on fire `at_fire`.
    PumpKick(Pump, usize, Option<u8>),
}

/// An [`Op::Pump`]'s fields, plus its fires so far.
#[derive(Clone, Copy)]
struct Pump {
    period: u64,
    count: u32,
    tag: u32,
    ties: u8,
    act: u8,
    at_fire: u32,
    fired: u32,
}

/// Where a model handle stands: pending under a queue key, firing,
/// parked off the queue, or dead. Handles are never reused, so a dead one
/// stays dead.
#[derive(Clone, Copy)]
enum St {
    Pending((u64, u64)),
    Firing,
    Parked(Ev),
    Dead,
}

/// `(time, schedule order)`, literally: a sorted map keyed by
/// `(deadline, rank)`, the rank drawn from one counter at every schedule,
/// re-arm and reschedule.
#[derive(Default)]
struct Model {
    q: BTreeMap<(u64, u64), (usize, Ev)>,
    st: Vec<St>,
    rank: u64,
}

impl Model {
    fn arm(&mut self, id: usize, at: u64, ev: Ev) {
        self.rank += 1;
        self.q.insert((at, self.rank), (id, ev));
        self.st[id] = St::Pending((at, self.rank));
    }

    fn schedule(&mut self, at: u64, ev: Ev) -> usize {
        self.st.push(St::Dead);
        self.arm(self.st.len() - 1, at, ev);
        self.st.len() - 1
    }

    fn cancel(&mut self, id: usize) {
        if let St::Pending(key) = self.st[id] {
            self.q.remove(&key);
        }
        // On a firing event this is what suppresses the re-arm.
        self.st[id] = St::Dead;
    }

    fn reschedule(&mut self, id: usize, at: u64) {
        match self.st[id] {
            St::Pending(key) => {
                let (_, ev) = self.q.remove(&key).expect("pending is queued");
                self.arm(id, at, ev);
            }
            St::Parked(ev) => self.arm(id, at, ev),
            St::Firing | St::Dead => {}
        }
    }
}

/// Interprets the op program on the model and returns the trace.
fn run_model(ops: &[Op]) -> Trace {
    let mut m = Model::default();
    let (mut log, mut handles) = (Vec::new(), Vec::<usize>::new());
    let (mut executed, mut now, mut i) = (0u64, 0u64, 0usize);
    m.schedule(0, Ev::Driver);
    while let Some(((at, _), (id, ev))) = m.q.pop_first() {
        (now, executed) = (at, executed + 1);
        m.st[id] = St::Firing;
        let next = match ev {
            Ev::Driver => {
                let nth = |k: usize| handles.get(k % handles.len().max(1)).copied();
                match ops[i] {
                    Op::Once { dt, tag } => handles.push(m.schedule(at + dt, Ev::Once(tag, None))),
                    Op::Nested { dt, dt2, tag } => {
                        handles.push(m.schedule(at + dt, Ev::Once(tag, Some(dt2))));
                    }
                    Op::Recurring {
                        dt,
                        period,
                        count,
                        tag,
                    } => handles.push(m.schedule(at + dt, Ev::Recur(tag, period, count))),
                    Op::Cancel { k } => nth(k).into_iter().for_each(|id| m.cancel(id)),
                    Op::Reschedule { k, dt } => {
                        nth(k).into_iter().for_each(|id| m.reschedule(id, at + dt));
                    }
                    Op::Kick { dt, tag, act } => {
                        handles.push(m.schedule(at + dt, Ev::Kick(tag, act)))
                    }
                    Op::Pump {
                        dt,
                        period,
                        count,
                        tag,
                        ties,
                        act,
                        at_fire,
                    } => {
                        let pump = Pump {
                            period,
                            count,
                            tag,
                            ties,
                            act,
                            at_fire,
                            fired: 0,
                        };
                        handles.push(m.schedule(at + dt, Ev::Pump(pump)));
                    }
                }
                i += 1;
                (i < ops.len()).then_some((at + GRID, Ev::Driver))
            }
            Ev::Once(tag, nested) => {
                // A one-shot's handle goes stale before its body runs.
                m.st[id] = St::Dead;
                log.push((at, tag));
                if let Some(dt2) = nested {
                    m.schedule(at + dt2, Ev::Once(tag.wrapping_add(1), None));
                }
                None
            }
            Ev::Recur(tag, period, left) => {
                log.push((at, tag));
                let (left, hard_stop) = (left.saturating_sub(1), tag % 2 == 1);
                if left == 0 && hard_stop {
                    m.cancel(id);
                }
                let park = left == 0 && tag % 4 == 2;
                let next = if park { u64::MAX } else { at + period };
                (left > 0 || hard_stop || park).then_some((next, Ev::Recur(tag, period, left)))
            }
            Ev::Kick(tag, act) => {
                m.st[id] = St::Dead;
                log.push((at, tag));
                let k1 = m.schedule(at, Ev::K1(tag, act));
                let k2 = m.schedule(at, Ev::Once(tag.wrapping_add(2), None));
                handles.extend([k1, k2]);
                None
            }
            Ev::K1(tag, act) => {
                m.st[id] = St::Dead;
                log.push((at, tag.wrapping_add(1)));
                m.schedule(at, Ev::Once(tag.wrapping_add(3), None));
                let k2 = id + 1;
                match act {
                    1 => m.cancel(k2),
                    2 => m.reschedule(k2, at),
                    3 => m.reschedule(k2, at + GRID),
                    _ => {}
                }
                None
            }
            Ev::Pump(p) => {
                log.push((at, p.tag));
                if p.ties & 1 != 0 {
                    m.schedule(at + p.period, Ev::Once(p.tag ^ 0x100, None));
                }
                let act = (p.fired == p.at_fire).then_some(p.act);
                m.schedule(at, Ev::PumpKick(p, id, act));
                let p = Pump {
                    fired: p.fired + 1,
                    ..p
                };
                (p.fired < p.count).then_some((at + p.period, Ev::Pump(p)))
            }
            Ev::PumpKick(p, pump, act) => {
                m.st[id] = St::Dead;
                log.push((at, p.tag ^ 0x200));
                if p.ties & 2 != 0 {
                    m.schedule(at + p.period, Ev::Once(p.tag ^ 0x300, None));
                }
                match act {
                    Some(0) => m.cancel(pump),
                    Some(1) => m.reschedule(pump, at),
                    Some(2) => m.reschedule(pump, at + p.period),
                    Some(_) => m.reschedule(pump, at + p.period / 2 + 1),
                    None => {}
                }
                None
            }
        };
        match (m.st[id], next) {
            (St::Firing, Some((u64::MAX, ev))) => m.st[id] = St::Parked(ev),
            (St::Firing, Some((at, ev))) => m.arm(id, at, ev),
            _ => m.st[id] = St::Dead,
        }
    }
    (log, executed, m.q.len(), now)
}
