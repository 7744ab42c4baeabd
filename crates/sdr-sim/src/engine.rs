//! Discrete-event engine.
//!
//! A deterministic event executor: events run in `(time, schedule order)`
//! order, so two events at the same instant always run in the order they
//! were scheduled. Components live behind `Rc<RefCell<_>>` handles captured
//! by the event closures; the engine itself owns nothing but the queue.
//!
//! The queue is a hierarchical timing wheel over picosecond ticks with two
//! lanes beside it (see [`equeue`](crate::equeue) for the architecture:
//! slab-backed nodes, 64 slots × 11 levels spanning the whole `u64` range,
//! zero allocation at steady state). An event scheduled for the instant
//! being executed — a zero-delay schedule, a [`Waker`](crate::Waker) kick —
//! joins a same-instant FIFO behind that instant's wheel events; a
//! recurring event that re-arms ahead of everything in the wheel — a link's
//! drain pump — waits in a held slot and fires before the wheel's events at
//! its instant, which were all scheduled after it. Neither touches the
//! wheel, and the order is still exactly `(time, schedule order)`. The
//! queue owns the clock; the wheel's cursor may lag it.
//!
//! Three event shapes are supported:
//!
//! * [`schedule_at`](Engine::schedule_at) / [`schedule_in`](Engine::schedule_in)
//!   — classic one-shot closures (the `_handle` variants return a
//!   [`TimerHandle`] for cancel/re-arm).
//! * [`schedule_recurring_at`](Engine::schedule_recurring_at) — a `FnMut`
//!   that returns the next fire time (or `None` to stop). The closure is
//!   boxed once and its queue node is re-armed in place: protocol tick
//!   loops and per-link delivery pumps run allocation-free.
//! * [`schedule_rc_at`](Engine::schedule_rc_at) — a shared `Rc` callback
//!   (the NIC wakers' deferral path; an `Rc` clone per kick, no boxing).
//!
//! [`cancel`](Engine::cancel) drops a pending event's closure immediately;
//! cancelled events never execute, are not counted by
//! [`pending_events`](Engine::pending_events), and are not charged against
//! the event limit. [`reschedule`](Engine::reschedule) moves a pending
//! event to a new deadline — the substrate for RTO timers that push out on
//! progress instead of firing as no-ops.

use std::cell::RefCell;
use std::rc::Rc;

use sdr_trace::{Counter, Registry};

use crate::equeue::{Body, EventQueue, TimerHandle};
use crate::time::SimTime;

/// An event body: runs at its scheduled time with access to the engine so it
/// can schedule follow-up events.
pub type Action = Box<dyn FnOnce(&mut Engine)>;

/// Deterministic single-threaded discrete-event executor.
///
/// # Example
///
/// ```
/// use sdr_sim::{Engine, SimTime};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut eng = Engine::new();
/// let hits = Rc::new(RefCell::new(Vec::new()));
/// let h = hits.clone();
/// eng.schedule_in(SimTime::from_nanos(10), move |eng| {
///     h.borrow_mut().push(eng.now());
/// });
/// eng.run();
/// assert_eq!(*hits.borrow(), vec![SimTime::from_nanos(10)]);
/// ```
pub struct Engine {
    q: EventQueue,
    executed: u64,
    /// `executed` as last added to `engine.events`.
    published: u64,
    /// Hard cap on executed events; guards against runaway protocol loops in
    /// tests. `u64::MAX` by default. Cancelled events are never charged.
    event_limit: u64,
    stopped: bool,
    /// Substrate metrics (`engine.*`): `engine.events` gains the events
    /// executed by each `run` / `run_until` / `step` as it returns, and the
    /// wheel records each cascade's level into the `engine.cascade_depth`
    /// histogram. Kill-switch gated like all `sdr-trace` handles.
    metrics: Registry,
    /// Bound handle for `engine.events` (no registry lookup per publish).
    ev_counter: Counter,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        let metrics = Registry::new();
        let ev_counter = metrics.counter("engine.events");
        let q = EventQueue::new(metrics.histogram("engine.cascade_depth"));
        Engine {
            q,
            executed: 0,
            published: 0,
            event_limit: u64::MAX,
            stopped: false,
            metrics,
            ev_counter,
        }
    }

    /// The engine's metrics registry (`engine.events` counter,
    /// `engine.cascade_depth` histogram).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.q.now())
    }

    /// Number of events executed so far (cancelled events never count).
    #[inline]
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending. Cancelled timers are uncounted the
    /// moment they are cancelled.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.q.pending()
    }

    /// Caps the total number of events `run*` will execute (safety valve for
    /// tests that could otherwise loop forever on a protocol bug).
    /// Cancelled timers are not charged against the limit.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Requests that the run loop stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Clamps a requested deadline: scheduling in the past is a logic error
    /// and panics in debug builds; in release it clamps to `now`.
    #[inline]
    fn clamp(&self, at: SimTime) -> u64 {
        debug_assert!(
            at >= self.now(),
            "scheduling into the past: {at} < {}",
            self.now()
        );
        at.as_picos().max(self.q.now())
    }

    /// Schedules `action` at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Engine) + 'static) {
        let _ = self.schedule_at_handle(at, action);
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, action: impl FnOnce(&mut Engine) + 'static) {
        let _ = self.schedule_at_handle(self.now().saturating_add(delay), action);
    }

    /// Schedules `action` at absolute time `at`, returning a cancellable
    /// [`TimerHandle`].
    pub fn schedule_at_handle(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Engine) + 'static,
    ) -> TimerHandle {
        let at = self.clamp(at);
        self.q.schedule(at, Body::Once(Box::new(action)))
    }

    /// Schedules `action` after `delay`, returning a cancellable
    /// [`TimerHandle`].
    pub fn schedule_in_handle(
        &mut self,
        delay: SimTime,
        action: impl FnOnce(&mut Engine) + 'static,
    ) -> TimerHandle {
        self.schedule_at_handle(self.now().saturating_add(delay), action)
    }

    /// Schedules a recurring event: `action` runs at `at` and then again at
    /// every time it returns (`None` stops and frees the timer; never,
    /// `SimTime::MAX`, parks it off the queue — not pending, `run` drains
    /// past it — until a [`reschedule`](Self::reschedule)). The closure is
    /// boxed once; re-arms reuse the same queue node, so a steady-state
    /// tick loop allocates nothing. A returned time in the past is clamped
    /// to the fire instant (beware same-instant loops; the event limit is
    /// the backstop).
    pub fn schedule_recurring_at(
        &mut self,
        at: SimTime,
        action: impl FnMut(&mut Engine) -> Option<SimTime> + 'static,
    ) -> TimerHandle {
        let at = self.clamp(at);
        self.q.schedule(at, Body::Recurring(Box::new(action)))
    }

    /// [`schedule_recurring_at`](Self::schedule_recurring_at) with a delay
    /// relative to now.
    pub fn schedule_recurring_in(
        &mut self,
        delay: SimTime,
        action: impl FnMut(&mut Engine) -> Option<SimTime> + 'static,
    ) -> TimerHandle {
        self.schedule_recurring_at(self.now().saturating_add(delay), action)
    }

    /// Schedules a shared callback at `at` without boxing: the queue node
    /// holds an `Rc` clone. This is the repeat-kick path (NIC wakers): the
    /// callback is built once and scheduled many times.
    pub fn schedule_rc_at(&mut self, at: SimTime, action: Rc<dyn Fn(&mut Engine)>) -> TimerHandle {
        let at = self.clamp(at);
        self.q.schedule(at, Body::Shared(action))
    }

    /// Cancels a pending event: its closure is dropped now, it will never
    /// run, and it no longer counts as pending or against the event limit.
    /// Returns `false` when the handle is stale (already fired, completed
    /// or cancelled).
    pub fn cancel(&mut self, h: TimerHandle) -> bool {
        self.q.cancel(h)
    }

    /// Moves a pending or parked event to a new deadline (clamped to `now`),
    /// re-ranking it as if freshly scheduled. Returns `false` when the
    /// handle is stale or the event is currently executing (a recurring
    /// body re-arms itself through its return value instead).
    pub fn reschedule(&mut self, h: TimerHandle, at: SimTime) -> bool {
        let at = self.clamp(at);
        self.q.reschedule(h, at)
    }

    /// True while `h` refers to a pending event.
    pub fn is_scheduled(&self, h: TimerHandle) -> bool {
        self.q.is_scheduled(h)
    }

    /// Fires the popped node `idx` (the queue has moved the clock to it).
    fn dispatch(&mut self, idx: u32) {
        let body = self.q.begin_fire(idx);
        self.executed += 1;
        match body {
            // One-shots free their node *before* running so a self-cancel
            // from within the body sees a stale handle (and the slot is
            // immediately reusable).
            Body::Once(f) => {
                self.q.free_fired(idx);
                f(self);
            }
            Body::Shared(f) => {
                self.q.free_fired(idx);
                f(self);
            }
            Body::Recurring(mut f) => {
                let next = f(self).map(SimTime::as_picos);
                self.q.end_recurring(idx, next, Body::Recurring(f));
            }
        }
    }

    /// Dispatches events due at or before `bound` until none is left
    /// (`true`) or `stop()` / the event limit ends the loop (`false`), then
    /// publishes the executed count to `engine.events`.
    fn drain(&mut self, bound: u64) -> bool {
        self.stopped = false;
        let drained = loop {
            if self.stopped || self.executed >= self.event_limit {
                break false;
            }
            match self.q.pop_due(bound) {
                Some(idx) => self.dispatch(idx),
                None => break true,
            }
        };
        self.publish();
        drained
    }

    /// Adds the events executed since the last publish to `engine.events`:
    /// one counter update per `run*` / `step` return instead of one per
    /// event.
    fn publish(&mut self) {
        self.ev_counter.add(self.executed - self.published);
        self.published = self.executed;
    }

    /// Executes a single event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let fired = match self.q.pop_due(u64::MAX) {
            Some(idx) => {
                self.dispatch(idx);
                true
            }
            None => false,
        };
        self.publish();
        fired
    }

    /// Runs until the queue drains, `stop()` is called, or the event limit is
    /// reached. Returns the final simulation time.
    pub fn run(&mut self) -> SimTime {
        self.drain(u64::MAX);
        self.now()
    }

    /// Runs events with timestamps `<= deadline` (events scheduled later stay
    /// queued). Advances `now` to `deadline` once no event at or before it
    /// is left; a run ended early by `stop()` or the event limit leaves the
    /// clock at the last event executed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        if self.drain(deadline.as_picos()) {
            self.q.advance(deadline.as_picos());
        }
        self.now()
    }
}

/// Convenience alias for shared simulation components.
pub type Shared<T> = Rc<RefCell<T>>;

/// Wraps a component in the `Rc<RefCell<_>>` handle used throughout the
/// simulator.
pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn events_run_in_time_order() {
        let mut eng = Engine::new();
        let log = shared(Vec::<u32>::new());
        for (t, tag) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = log.clone();
            eng.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(tag));
        }
        eng.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let mut eng = Engine::new();
        let log = shared(Vec::<u32>::new());
        for tag in 0..100u32 {
            let log = log.clone();
            eng.schedule_at(SimTime::from_nanos(5), move |_| log.borrow_mut().push(tag));
        }
        eng.run();
        assert_eq!(*log.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng = Engine::new();
        let log = shared(Vec::<SimTime>::new());
        let log2 = log.clone();
        eng.schedule_in(SimTime::from_nanos(1), move |eng| {
            let log3 = log2.clone();
            eng.schedule_in(SimTime::from_nanos(2), move |eng| {
                log3.borrow_mut().push(eng.now());
            });
        });
        let end = eng.run();
        assert_eq!(end, SimTime::from_nanos(3));
        assert_eq!(*log.borrow(), vec![SimTime::from_nanos(3)]);
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let mut eng = Engine::new();
        let log = shared(Vec::<u32>::new());
        for t in [10u64, 20, 30] {
            let log = log.clone();
            eng.schedule_at(SimTime::from_nanos(t), move |_| {
                log.borrow_mut().push(t as u32)
            });
        }
        eng.run_until(SimTime::from_nanos(20));
        assert_eq!(*log.borrow(), vec![10, 20]);
        assert_eq!(eng.pending_events(), 1);
        assert_eq!(eng.now(), SimTime::from_nanos(20));
        eng.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn run_until_advances_time_when_idle() {
        let mut eng = Engine::new();
        eng.run_until(SimTime::from_millis(5));
        assert_eq!(eng.now(), SimTime::from_millis(5));
    }

    #[test]
    fn run_until_then_schedule_before_pending() {
        // A run_until that stops short of the next event must leave the
        // queue able to accept events earlier than that event.
        let mut eng = Engine::new();
        let log = shared(Vec::<u32>::new());
        let l = log.clone();
        eng.schedule_at(SimTime::from_nanos(100), move |_| l.borrow_mut().push(100));
        eng.run_until(SimTime::from_nanos(50));
        let l = log.clone();
        eng.schedule_at(SimTime::from_nanos(60), move |_| l.borrow_mut().push(60));
        eng.run();
        assert_eq!(*log.borrow(), vec![60, 100]);
    }

    #[test]
    fn run_until_stopped_early_keeps_the_clock_at_the_last_event() {
        // The 10 ns event stops `run_until(30 ns)` with the 20 ns event
        // still due: the clock stays at 10 ns, so the next `run` fires the
        // 20 ns event at 20 ns instead of moving the clock backwards.
        let mut eng = Engine::new();
        let log = shared(Vec::<SimTime>::new());
        let l = log.clone();
        eng.schedule_at(SimTime::from_nanos(10), move |eng| {
            l.borrow_mut().push(eng.now());
            eng.stop();
        });
        let l = log.clone();
        eng.schedule_at(SimTime::from_nanos(20), move |eng| {
            l.borrow_mut().push(eng.now())
        });
        assert_eq!(
            eng.run_until(SimTime::from_nanos(30)),
            SimTime::from_nanos(10)
        );
        assert_eq!(eng.run(), SimTime::from_nanos(20));
        assert_eq!(
            *log.borrow(),
            vec![SimTime::from_nanos(10), SimTime::from_nanos(20)]
        );
    }

    #[test]
    fn engine_events_is_published_per_run() {
        let mut eng = Engine::new();
        for t in 1..=5 {
            eng.schedule_at(SimTime::from_nanos(t), |_| {});
        }
        // Counters stay at zero while the kill switch is off.
        let on = u64::from(sdr_trace::enabled());
        let events = |eng: &Engine| eng.metrics().counter_value("engine.events");
        assert_eq!(events(&eng), 0);
        eng.step();
        assert_eq!(events(&eng), on);
        eng.run_until(SimTime::from_nanos(3));
        assert_eq!(events(&eng), 3 * on);
        eng.run();
        assert_eq!(events(&eng), 5 * on);
        assert_eq!(eng.executed_events(), 5);
    }

    #[test]
    fn stop_halts_run() {
        let mut eng = Engine::new();
        let log = shared(0u32);
        let l1 = log.clone();
        eng.schedule_at(SimTime::from_nanos(1), move |eng| {
            *l1.borrow_mut() += 1;
            eng.stop();
        });
        let l2 = log.clone();
        eng.schedule_at(SimTime::from_nanos(2), move |_| *l2.borrow_mut() += 1);
        eng.run();
        assert_eq!(*log.borrow(), 1);
        eng.run();
        assert_eq!(*log.borrow(), 2);
    }

    #[test]
    fn event_limit_caps_execution() {
        let mut eng = Engine::new();
        eng.set_event_limit(3);
        // A self-perpetuating event chain.
        fn tick(eng: &mut Engine) {
            eng.schedule_in(SimTime::from_nanos(1), tick);
        }
        eng.schedule_in(SimTime::from_nanos(1), tick);
        eng.run();
        assert_eq!(eng.executed_events(), 3);
    }

    #[test]
    fn far_future_events_park_in_the_overflow_level() {
        let mut eng = Engine::new();
        let hit = Rc::new(Cell::new(false));
        let h1 = hit.clone();
        // Beyond level 5 (~68 ms), level 7 (~4.4 s) and deep into the
        // top level.
        eng.schedule_at(SimTime::from_secs(3600), move |_| h1.set(true));
        let infinite = eng.schedule_at_handle(SimTime::MAX, |_| panic!("never"));
        eng.schedule_at(SimTime::from_nanos(1), |_| {});
        eng.run_until(SimTime::from_secs(1));
        assert!(!hit.get());
        assert!(eng.cancel(infinite));
        eng.run();
        assert!(hit.get());
        assert_eq!(eng.now(), SimTime::from_secs(3600));
    }

    #[test]
    fn cancelled_events_neither_run_nor_count() {
        let mut eng = Engine::new();
        let hits = shared(0u32);
        let h = hits.clone();
        let a = eng.schedule_at_handle(SimTime::from_nanos(10), move |_| *h.borrow_mut() += 1);
        let h = hits.clone();
        let _b = eng.schedule_at_handle(SimTime::from_nanos(20), move |_| *h.borrow_mut() += 1);
        assert_eq!(eng.pending_events(), 2);
        assert!(eng.cancel(a));
        assert_eq!(eng.pending_events(), 1, "cancelled timers are not pending");
        assert!(!eng.cancel(a), "double cancel is stale");
        // The cancelled event must not be charged against the limit.
        eng.set_event_limit(1);
        eng.run();
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(eng.executed_events(), 1);
    }

    #[test]
    fn cancel_of_fired_handle_is_stale() {
        let mut eng = Engine::new();
        let h = eng.schedule_at_handle(SimTime::from_nanos(5), |_| {});
        assert!(eng.is_scheduled(h));
        eng.run();
        assert!(!eng.is_scheduled(h));
        assert!(!eng.cancel(h));
    }

    #[test]
    fn reschedule_moves_events_both_directions() {
        let mut eng = Engine::new();
        let log = shared(Vec::<(u32, SimTime)>::new());
        let l = log.clone();
        let a = eng.schedule_at_handle(SimTime::from_nanos(100), move |e| {
            l.borrow_mut().push((1, e.now()))
        });
        let l = log.clone();
        let b = eng.schedule_at_handle(SimTime::from_nanos(50), move |e| {
            l.borrow_mut().push((2, e.now()))
        });
        // Push a later, pull b earlier.
        assert!(eng.reschedule(a, SimTime::from_nanos(200)));
        assert!(eng.reschedule(b, SimTime::from_nanos(10)));
        eng.run();
        assert_eq!(
            *log.borrow(),
            vec![(2, SimTime::from_nanos(10)), (1, SimTime::from_nanos(200)),]
        );
    }

    #[test]
    fn reschedule_to_same_time_requeues_in_fifo_order() {
        let mut eng = Engine::new();
        let log = shared(Vec::<u32>::new());
        let l = log.clone();
        let a = eng.schedule_at_handle(SimTime::from_nanos(5), move |_| l.borrow_mut().push(1));
        let l = log.clone();
        eng.schedule_at_handle(SimTime::from_nanos(5), move |_| l.borrow_mut().push(2));
        // Re-arming `a` at the same instant demotes it behind 2 (a
        // reschedule ranks like a fresh schedule).
        assert!(eng.reschedule(a, SimTime::from_nanos(5)));
        eng.run();
        assert_eq!(*log.borrow(), vec![2, 1]);
    }

    #[test]
    fn recurring_event_rearms_and_stops() {
        let mut eng = Engine::new();
        let log = shared(Vec::<SimTime>::new());
        let l = log.clone();
        let mut left = 3u32;
        eng.schedule_recurring_in(SimTime::from_nanos(10), move |eng| {
            l.borrow_mut().push(eng.now());
            left -= 1;
            (left > 0).then(|| eng.now() + SimTime::from_nanos(5))
        });
        eng.run();
        assert_eq!(
            *log.borrow(),
            vec![
                SimTime::from_nanos(10),
                SimTime::from_nanos(15),
                SimTime::from_nanos(20)
            ]
        );
        assert_eq!(eng.pending_events(), 0);
    }

    #[test]
    fn recurring_event_cancel_while_firing() {
        let mut eng = Engine::new();
        let fires = Rc::new(Cell::new(0u32));
        let f = fires.clone();
        let slot: Rc<Cell<Option<TimerHandle>>> = Rc::new(Cell::new(None));
        let s = slot.clone();
        let h = eng.schedule_recurring_in(SimTime::from_nanos(1), move |eng| {
            f.set(f.get() + 1);
            if f.get() == 2 {
                // Self-cancel mid-fire: the re-arm below must be
                // ignored.
                assert!(eng.cancel(s.get().expect("handle stored")));
            }
            Some(eng.now() + SimTime::from_nanos(1))
        });
        slot.set(Some(h));
        eng.run();
        assert_eq!(fires.get(), 2, "self-cancel stops the recurrence");
        assert_eq!(eng.pending_events(), 0);
    }

    #[test]
    fn same_instant_cancel_prevents_execution() {
        let mut eng = Engine::new();
        // A fires first (same instant, earlier schedule) and cancels B.
        let slot: Rc<Cell<Option<TimerHandle>>> = Rc::new(Cell::new(None));
        let s = slot.clone();
        eng.schedule_at(SimTime::from_nanos(7), move |eng| {
            assert!(eng.cancel(s.get().expect("B scheduled")));
        });
        let b = eng.schedule_at_handle(SimTime::from_nanos(7), |_| {
            panic!("B was cancelled by A at the same instant")
        });
        slot.set(Some(b));
        eng.run();
        assert_eq!(eng.executed_events(), 1);
    }

    #[test]
    fn rc_callback_fires_like_a_oneshot() {
        let mut eng = Engine::new();
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let cb: Rc<dyn Fn(&mut Engine)> = Rc::new(move |_| h.set(h.get() + 1));
        eng.schedule_rc_at(SimTime::from_nanos(1), cb.clone());
        eng.schedule_rc_at(SimTime::from_nanos(2), cb);
        eng.run();
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn dense_and_sparse_mix_pops_in_order() {
        // Exercises cascades: times spread across many wheel levels, mixed
        // with same-instant runs.
        let mut eng = Engine::new();
        let log = shared(Vec::<u64>::new());
        let mut times = Vec::new();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            times.push(x % 50_000_000); // up to 50 us, hits levels 0..5
        }
        times.extend([0, 0, 1, 1, 63, 64, 65, 4095, 4096, 4097]);
        for &t in &times {
            let l = log.clone();
            eng.schedule_at(SimTime(t), move |e| l.borrow_mut().push(e.now().0));
        }
        eng.run();
        let got = log.borrow().clone();
        let mut want = times.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
