//! The engine's event queue: a hierarchical timing wheel over a slab of
//! event nodes, with two lanes beside it for a packet's two events.
//!
//! # Why a wheel
//!
//! Every packet serialization, propagation arrival, protocol timer and
//! scheme tick in the workspace flows through this queue; at the paper's
//! scales (multi-hundred-Gbit/s goodput over 1000 km RTTs) a single figure
//! run executes tens of millions of events. A binary heap of boxed
//! closures charges each of them an allocation and an O(log n) sift
//! against a loaded heap, and cannot cancel: timer users end up with
//! generation counters whose stale events still fire (and still count
//! against the event limit) as no-ops. The wheel avoids all of that:
//!
//! * **Slab nodes, free-listed** ([`TimerHandle`] = slot index +
//!   generation): steady-state scheduling allocates nothing; recurring
//!   events re-arm their own node in place, so tick loops and per-link
//!   drain pumps never re-box their closures.
//! * **O(1) amortized insert/pop**: an event at distance `d` from now sits
//!   at level `⌈log₆₄ d⌉` and is touched once per level as time advances
//!   toward it (at most [`LEVELS`] times ever).
//! * **Cancel / re-arm**: [`EventQueue::cancel`] unlinks the node and
//!   drops the closure immediately; a cancelled event never executes,
//!   stops counting in `pending_events` and never charges the event limit.
//!   [`EventQueue::reschedule`] re-times a pending (or parked) event in
//!   place. Slot lists are doubly linked (a separate `prev` array), so
//!   both operations unlink in O(1) regardless of slot occupancy.
//! * **Structure-of-arrays layout**: deadlines (`at`) and slot links
//!   (`link`) live in dense parallel arrays so the wheel's walk — slot
//!   appends, cascades, due-scans — stays within compact, mostly
//!   cache-resident arrays instead of dirtying a wide node record per
//!   hop; the wide record (closure, generation, placement) is only touched
//!   when an event actually fires. (Measured on a loaded microbenchmark:
//!   this split beats both the all-in-one node layout and a merged
//!   16-byte `{at, link}` record — the 4-byte link array is the single
//!   hottest structure and keeping it tiny keeps it in cache.)
//!
//! # Tick granularity and determinism
//!
//! The wheel ticks at exactly one **picosecond** — the engine's native
//! [`SimTime`] unit — so a level-0 slot holds events of a *single* instant
//! and slot order is insertion order. That choice is what makes execution
//! order exactly `(time, schedule order)` — a re-arm or a reschedule
//! counting as a fresh schedule — with no per-event sequence number: a
//! node's rank among its instant's events *is* its position in the slot
//! list. Two facts keep same-time events FIFO across cascades:
//!
//! 1. For a given cursor position, a time `t` maps to exactly one
//!    `(level, slot)` — so all nodes of one instant are always in one
//!    list, appended in schedule order.
//! 2. A slot is cascaded exactly when the cursor enters its window, and
//!    after that no insert can target it (an insert for a time inside the
//!    window now lands at a lower level). Cascades re-append in list
//!    order, preserving FIFO.
//!
//! With 64-slot levels over `u64` picoseconds, [`LEVELS`]` = 11` spans the
//! whole representable range (`64¹¹ = 2⁶⁶ ps ≈ 27 months`): the top level
//! *is* the far-future overflow level — `SimTime::MAX` "infinite"
//! deadlines park there and cost nothing until cancelled.
//!
//! # Two lanes beside the wheel
//!
//! Every packet causes two events that never need the wheel: the link's
//! drain pump re-arming a few nanoseconds ahead, and the receive CQ's
//! zero-delay [`Waker`](crate::Waker) kick. Each takes a lane chosen by an
//! observable property of the event — never by a switch — and the order
//! stays exactly `(time, schedule order)`:
//!
//! * **Same-instant FIFO.** An event scheduled, rescheduled or re-armed
//!   for `now`, the instant being executed, is appended to a FIFO. The
//!   wheel's events at `now` rank ahead of all of it: nothing enters the
//!   wheel at `now` once the clock is there, so they were scheduled before
//!   the instant began, and every FIFO event after. [`EventQueue::pop_due`]
//!   therefore drains the wheel at `now` first, then the FIFO, and the
//!   clock moves on only once the FIFO is empty.
//! * **Held re-arm.** A recurring event that re-arms strictly earlier than
//!   the wheel's floor — a lower bound on its earliest event, read from
//!   the occupancy masks ([`Wheel::floor`]) — waits in one slot outside
//!   the wheel. At the hold nothing in the wheel was due at or before its
//!   time `t_H`, so every wheel event at `t_H` was scheduled after it and
//!   ranks behind it: it fires once the wheel has nothing up to `t_H − 1`.
//!   While the slot is taken, a second such re-arm goes into the wheel.
//!
//! Cancel and reschedule find a node in any lane (its placement names
//! it); a reschedule re-ranks it through the normal placement — FIFO at
//! `now`, the wheel otherwise — like a fresh schedule. An event popped from
//! a lane does not move the wheel's cursor, so **the cursor may lag
//! `now`**: every wheel event is still at or after it, later inserts place
//! relative to it as before, and the cascades catch up when the wheel next
//! pops.
//!
//! `tests/queue_differential.rs` holds that order to an independent
//! sorted-map model over randomized schedule/cancel/re-arm programs that
//! drive both lanes, through `run`, `run_until` and `step`.

use std::rc::Rc;

use sdr_trace::Histogram;

use crate::engine::Engine;
use crate::time::SimTime;

/// Bits per wheel level (64 slots).
const BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << BITS;
/// Wheel levels; `64^11 = 2^66` ticks covers the entire `u64` time range,
/// so the top level doubles as the far-future overflow level.
const LEVELS: usize = 11;
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;
/// [`Node::level`] of an event in the same-instant FIFO.
const FIFO: u8 = LEVELS as u8;
/// [`Node::level`] of the held re-arm.
const HELD: u8 = LEVELS as u8 + 1;

/// A handle to a scheduled event, returned by the `schedule_*_handle`
/// methods on [`Engine`](crate::Engine). Handles are `Copy` and
/// generation-checked: once the event fires, is cancelled, or completes
/// its recurrence, the handle goes stale and `cancel`/`reschedule` on it
/// return `false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    idx: u32,
    gen: u32,
}

/// An event body.
pub(crate) enum Body {
    /// Run once and free the node.
    Once(Box<dyn FnOnce(&mut Engine)>),
    /// Run, then re-arm the same node at the returned time (`None` frees
    /// it, never — `u64::MAX` — parks it). The closure is boxed once and
    /// reused for the event's entire lifetime — the zero-allocation path for tick loops and pumps.
    Recurring(Box<dyn FnMut(&mut Engine) -> Option<SimTime>>),
    /// A shared callback (`Rc` clone per schedule, no fresh boxing) — the
    /// NIC wakers' deferral path.
    Shared(Rc<dyn Fn(&mut Engine)>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Free,
    Queued,
    /// Popped for execution; the body is with the dispatcher. A cancel in
    /// this window marks the node so a recurring body is not re-armed.
    Firing,
    /// Cancelled while firing: freed instead of re-armed when the body
    /// returns. (A cancelled *queued* node is unlinked and freed at once,
    /// so a linked node is never in this state.)
    Cancelled,
    /// Re-armed at never: off the queue, not pending, body and handle kept.
    Parked,
}

/// The cold per-node record: everything the wheel's walk does not need
/// until an event actually fires (plus the placement an unlink needs).
struct Node {
    gen: u32,
    state: State,
    /// Placement, for eager unlink on cancel and reschedule: a wheel
    /// `(level, slot)`, or [`FIFO`] / [`HELD`] in `level`.
    level: u8,
    slot: u8,
    body: Option<Body>,
}

/// A list's endpoints (a wheel slot, the FIFO), kept adjacent so an
/// append touches one line.
#[derive(Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Ends {
    const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
    };

    /// Appends node `idx`: the tail is what makes every schedule, re-arm
    /// and reschedule rank after everything already in the list.
    #[inline]
    fn push(&mut self, link: &mut [u32], prev: &mut [u32], idx: u32) {
        let tail = self.tail;
        self.tail = idx;
        // SAFETY: `idx` and a non-NIL tail are live slab indices, and
        // `link` / `prev` are as long as the slab.
        unsafe {
            if tail == NIL {
                self.head = idx;
            } else {
                *link.get_unchecked_mut(tail as usize) = idx;
            }
            *link.get_unchecked_mut(idx as usize) = NIL;
            *prev.get_unchecked_mut(idx as usize) = tail;
        }
    }

    /// Unlinks node `idx` in O(1) via the doubly-linked `prev`/`link` pair.
    fn remove(&mut self, link: &mut [u32], prev: &mut [u32], idx: u32) {
        let (p, n) = (prev[idx as usize], link[idx as usize]);
        if p == NIL {
            debug_assert_eq!(self.head, idx, "headless node thinks it is head");
            self.head = n;
        } else {
            link[p as usize] = n;
        }
        if n == NIL {
            debug_assert_eq!(self.tail, idx, "tailless node thinks it is tail");
            self.tail = p;
        } else {
            prev[n as usize] = p;
        }
        link[idx as usize] = NIL;
        prev[idx as usize] = NIL;
    }
}

struct Wheel {
    /// The cursor: all wheel events are at times `>= current`, and the
    /// engine's `now` is always `>= current` between operations (it lags
    /// `now` after a lane pop; see the module docs).
    current: u64,
    slots: [Ends; LEVELS * SLOTS],
    /// Per-level slot occupancy bitmask.
    occ: [u64; LEVELS],
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            current: 0,
            slots: [Ends::EMPTY; LEVELS * SLOTS],
            occ: [0; LEVELS],
        }
    }

    /// A lower bound on the earliest wheel event (`u64::MAX` when the
    /// wheel is empty), from the occupancy masks alone: a level's events
    /// all precede the next level's, so the first occupied level decides —
    /// exactly at level 0, at the start of its earliest occupied slot's
    /// window above.
    fn floor(&self) -> u64 {
        match self.occ.iter().position(|&m| m != 0) {
            Some(level) => self.slot_start(level, self.occ[level].trailing_zeros() as usize),
            None => u64::MAX,
        }
    }

    /// The first tick of `(level, slot)`'s window (a level-0 slot's one
    /// instant). Every occupied slot lies at or after the cursor's.
    #[inline]
    fn slot_start(&self, level: usize, slot: usize) -> u64 {
        let above = BITS * (level as u32 + 1);
        let base = if above >= 64 {
            0
        } else {
            (self.current >> above) << above
        };
        base | (slot as u64) << (BITS * level as u32)
    }

    /// The `(level, slot)` an event at absolute tick `t` belongs to, given
    /// the current cursor: the level of the highest bit where `t` and the
    /// cursor differ.
    #[inline]
    fn place(&self, t: u64) -> (usize, usize) {
        let x = t ^ self.current;
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / BITS) as usize
        };
        let slot = ((t >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }
}

/// The engine's event queue and clock: node slab + wheel + the two lanes.
/// Hot per-node fields (`at`, `link`) are parallel arrays — see the module
/// docs.
pub(crate) struct EventQueue {
    /// Absolute deadline per node, in picoseconds.
    at: Vec<u64>,
    /// Intrusive list forward link per node (also threads the free list).
    link: Vec<u32>,
    /// Intrusive list back link per node: lists are doubly linked so
    /// `cancel`/`reschedule` unlink in O(1) instead of walking the slot
    /// (restart storms re-arm many RTOs against dense slots). Kept as its
    /// own array so the hot forward walk (`link`) stays tiny.
    prev: Vec<u32>,
    nodes: Vec<Node>,
    free_head: u32,
    /// Queued events in every lane (what `pending_events` reports).
    live: usize,
    /// The instant being executed: the engine's clock.
    now: u64,
    wheel: Wheel,
    /// Events due at `now`, in schedule order, behind the wheel's own.
    fifo: Ends,
    /// The held re-arm, or `NIL`.
    held: u32,
    /// Level of each wheel cascade (`engine.cascade_depth`): how far up
    /// the hierarchy the due-scan had to reach. Counted per level in
    /// `cascades` and folded in by [`publish`](Self::publish), so a
    /// cascade costs a plain increment, not five locked updates; recording
    /// is kill-switch gated inside `sdr-trace`.
    cascade: Histogram,
    /// Cascades per level since the last [`publish`](Self::publish).
    cascades: [u64; LEVELS],
}

impl EventQueue {
    /// An empty queue at time zero, recording cascade depths into
    /// `cascade`.
    pub(crate) fn new(cascade: Histogram) -> Self {
        EventQueue {
            at: Vec::new(),
            link: Vec::new(),
            prev: Vec::new(),
            nodes: Vec::new(),
            free_head: NIL,
            live: 0,
            now: 0,
            wheel: Wheel::new(),
            fifo: Ends::EMPTY,
            held: NIL,
            cascade,
            cascades: [0; LEVELS],
        }
    }

    /// Folds the cascades counted since the last call into the
    /// `engine.cascade_depth` histogram.
    pub(crate) fn publish(&mut self) {
        for (level, n) in self.cascades.iter_mut().enumerate() {
            self.cascade.record_n(level as u64, std::mem::take(n));
        }
    }

    pub(crate) fn pending(&self) -> usize {
        self.live
    }

    /// The instant being executed (the last popped event's, or where
    /// [`advance`](Self::advance) moved it).
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Moves the clock forward to `t`. The caller has established that no
    /// event at or before `t` is queued.
    pub(crate) fn advance(&mut self, t: u64) {
        if t > self.now {
            debug_assert_eq!(self.fifo.head, NIL, "advance past a queued instant");
            self.now = t;
        }
    }

    fn alloc(&mut self, at: u64, body: Body) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.link[idx as usize];
            self.at[idx as usize] = at;
            self.link[idx as usize] = NIL;
            self.prev[idx as usize] = NIL;
            let n = &mut self.nodes[idx as usize];
            n.state = State::Queued;
            n.body = Some(body);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.at.push(at);
            self.link.push(NIL);
            self.prev.push(NIL);
            self.nodes.push(Node {
                gen: 0,
                state: State::Queued,
                level: 0,
                slot: 0,
                body: Some(body),
            });
            idx
        }
    }

    /// Returns the node to the free list and bumps its generation so every
    /// outstanding handle goes stale.
    fn free(&mut self, idx: u32) {
        let n = &mut self.nodes[idx as usize];
        n.gen = n.gen.wrapping_add(1);
        n.state = State::Free;
        n.body = None;
        self.link[idx as usize] = self.free_head;
        self.free_head = idx;
    }

    /// Appends node `idx` to the tail of the wheel slot `at[idx]` maps to.
    fn insert(&mut self, idx: u32) {
        let w = &mut self.wheel;
        let t = self.at[idx as usize];
        debug_assert!(
            t >= w.current,
            "insert into the past: t={} current={}",
            t,
            w.current
        );
        let (level, slot) = w.place(t);
        let n = &mut self.nodes[idx as usize];
        n.level = level as u8;
        n.slot = slot as u8;
        w.slots[level * SLOTS + slot].push(&mut self.link, &mut self.prev, idx);
        w.occ[level] |= 1u64 << slot;
    }

    /// Files node `idx` at its deadline, ranked after everything already
    /// queued for that instant: the FIFO when it is `now`, the wheel
    /// otherwise.
    fn file(&mut self, idx: u32) {
        if self.at[idx as usize] == self.now {
            self.nodes[idx as usize].level = FIFO;
            self.fifo.push(&mut self.link, &mut self.prev, idx);
        } else {
            self.insert(idx);
        }
    }

    /// Schedules `body` at absolute tick `at`; the caller has already
    /// clamped `at` to be `>=` now.
    pub(crate) fn schedule(&mut self, at: u64, body: Body) -> TimerHandle {
        let idx = self.alloc(at, body);
        self.file(idx);
        self.live += 1;
        TimerHandle {
            idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    /// Cancels a pending (or currently-firing) event. The closure is
    /// dropped immediately, the event will never execute, and it stops
    /// counting as pending or against the event limit. Returns `false`
    /// for stale handles.
    ///
    /// A queued node is unlinked and freed eagerly: leaving it in its slot
    /// as a tombstone would let a cascade jump the cursor to the
    /// *cancelled* node's deadline, stranding the cursor ahead of the
    /// engine clock when the queue then drains (a later `schedule` at
    /// `now + d` would insert "into the past").
    pub(crate) fn cancel(&mut self, h: TimerHandle) -> bool {
        let Some(n) = self.nodes.get(h.idx as usize) else {
            return false;
        };
        if n.gen != h.gen {
            return false;
        }
        match n.state {
            State::Queued => {
                self.unlink(h.idx);
                self.free(h.idx);
                self.live -= 1;
                true
            }
            // The body is out with the dispatcher (a recurring event
            // cancelling itself, or an event cancelling the one being
            // fired): mark it so it is freed instead of re-armed.
            State::Firing => {
                self.nodes[h.idx as usize].state = State::Cancelled;
                true
            }
            State::Parked => {
                self.free(h.idx);
                true
            }
            State::Free | State::Cancelled => false,
        }
    }

    /// Moves a pending or parked event to a new deadline (eagerly filed
    /// through [`file`](Self::file), fresh FIFO rank, whatever its lane).
    /// Returns `false` for stale handles and for events currently firing
    /// (a recurring body re-arms itself via its return value instead).
    pub(crate) fn reschedule(&mut self, h: TimerHandle, at: u64) -> bool {
        let Some(n) = self.nodes.get_mut(h.idx as usize) else {
            return false;
        };
        match (n.gen == h.gen, n.state) {
            (true, State::Queued) => self.unlink(h.idx),
            (true, State::Parked) => {
                n.state = State::Queued;
                self.live += 1;
            }
            _ => return false,
        }
        self.at[h.idx as usize] = at;
        self.file(h.idx);
        true
    }

    /// True while the handle refers to a pending (not yet fired, not
    /// cancelled) event.
    pub(crate) fn is_scheduled(&self, h: TimerHandle) -> bool {
        self.nodes
            .get(h.idx as usize)
            .is_some_and(|n| n.gen == h.gen && n.state == State::Queued)
    }

    /// Unlinks a queued node from wherever it is filed, in O(1).
    fn unlink(&mut self, idx: u32) {
        let n = &self.nodes[idx as usize];
        match (n.level, n.slot as usize) {
            (HELD, _) => {
                debug_assert_eq!(self.held, idx, "held node not in the slot");
                self.held = NIL;
            }
            (FIFO, _) => self.fifo.remove(&mut self.link, &mut self.prev, idx),
            (level, slot) => {
                let level = level as usize;
                let ends = &mut self.wheel.slots[level * SLOTS + slot];
                ends.remove(&mut self.link, &mut self.prev, idx);
                if ends.head == NIL {
                    self.wheel.occ[level] &= !(1u64 << slot);
                }
            }
        }
    }

    /// Pops the next due event with `at <= bound`, in `(time, schedule
    /// order)` across the wheel and both lanes (see the module docs), and
    /// moves the clock to it. The returned node is left in `Firing` state
    /// with its body still attached (take it with
    /// [`begin_fire`](Self::begin_fire)).
    pub(crate) fn pop_due(&mut self, bound: u64) -> Option<u32> {
        let idx = if self.fifo.head != NIL {
            if self.now > bound {
                return None;
            }
            // The wheel's events at `now` were scheduled before the
            // instant began: they rank ahead of the whole FIFO.
            match self.pop_wheel(self.now) {
                Some(idx) => idx,
                None => {
                    let idx = self.fifo.head;
                    self.fifo.remove(&mut self.link, &mut self.prev, idx);
                    idx
                }
            }
        } else if self.held != NIL {
            // Wheel events at the held instant were scheduled after the
            // hold: only strictly earlier ones go first.
            let t = self.at[self.held as usize];
            match self.pop_wheel(bound.min(t - 1)) {
                Some(idx) => idx,
                None if t <= bound => std::mem::replace(&mut self.held, NIL),
                None => return None,
            }
        } else {
            self.pop_wheel(bound)?
        };
        debug_assert!(self.at[idx as usize] >= self.now, "popped the past");
        self.now = self.at[idx as usize];
        let n = &mut self.nodes[idx as usize];
        assert_eq!(n.state, State::Queued, "linked node in bad state");
        n.state = State::Firing;
        self.live -= 1;
        Some(idx)
    }

    /// Unlinks and returns the wheel's next event with `at <= bound`.
    fn pop_wheel(&mut self, bound: u64) -> Option<u32> {
        loop {
            let w = &mut self.wheel;
            // Level 0: exact instants. Slots below the cursor's index
            // cannot be occupied (nothing schedules into the past).
            let idx0 = (w.current & (SLOTS as u64 - 1)) as usize;
            let m0 = w.occ[0] & (!0u64 << idx0);
            debug_assert_eq!(w.occ[0] & !(!0u64 << idx0), 0, "event in the past");
            if m0 != 0 {
                let slot = m0.trailing_zeros() as usize;
                let t = w.slot_start(0, slot);
                if t > bound {
                    return None;
                }
                // SAFETY: `slot < SLOTS` (bit index of a 64-bit mask);
                // the head of an occupied slot is a live slab index.
                let idx;
                unsafe {
                    let ends = w.slots.get_unchecked_mut(slot);
                    idx = ends.head;
                    debug_assert_ne!(idx, NIL);
                    debug_assert_eq!(*self.at.get_unchecked(idx as usize), t);
                    // Unlink the head.
                    let next = *self.link.get_unchecked(idx as usize);
                    ends.head = next;
                    if next == NIL {
                        ends.tail = NIL;
                        w.occ[0] &= !(1u64 << slot);
                    } else {
                        *self.prev.get_unchecked_mut(next as usize) = NIL;
                    }
                }
                w.current = t;
                return Some(idx);
            }
            // Higher levels: find the earliest occupied slot and cascade
            // it. The slot holding the cursor itself is always empty (it
            // was cascaded when the cursor entered it).
            let mut cascaded = false;
            for level in 1..LEVELS {
                let il = ((w.current >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                let m = w.occ[level] & (!0u64 << il);
                debug_assert_eq!(w.occ[level] & !(!0u64 << il), 0, "event in the past");
                if m == 0 {
                    continue;
                }
                let slot = m.trailing_zeros() as usize;
                debug_assert_ne!(slot, il, "cursor slot must have been cascaded");
                let slot_start = w.slot_start(level, slot);
                if slot_start > bound {
                    // Everything left is strictly later than the bound;
                    // leave the cursor untouched (it must stay <= the
                    // engine's now so later inserts place correctly).
                    return None;
                }
                let s = level * SLOTS + slot;
                // For *small* slots, jump the cursor to the slot's
                // earliest deadline instead of the window start: every
                // other pending event (in this slot or any later one) is
                // `>= t_min`, so the jump is safe — and it lets a sparse
                // event skip the intermediate levels entirely (one
                // cascade instead of one per level), keeping small idle
                // simulations cheap. Big slots (the loaded regime) skip
                // the extra deadline walk: their density makes
                // window-start cascades efficient already, and the
                // pre-pass would double the cold misses.
                const JUMP_WALK_CAP: u32 = 4;
                let mut t_min = u64::MAX;
                let mut walked = 0u32;
                let mut cur = w.slots[s].head;
                while cur != NIL && walked < JUMP_WALK_CAP {
                    // SAFETY: slot lists hold live slab indices; cancelled
                    // nodes are unlinked eagerly, so every deadline seen
                    // here belongs to an event that will actually fire
                    // (the jump target is always reconciled by a pop).
                    unsafe {
                        t_min = t_min.min(*self.at.get_unchecked(cur as usize));
                        cur = *self.link.get_unchecked(cur as usize);
                    }
                    walked += 1;
                }
                let jump = if cur == NIL { t_min } else { slot_start };
                debug_assert!(jump >= slot_start);
                if jump > bound {
                    return None;
                }
                // Redistribute the slot's nodes to lower levels,
                // preserving order.
                w.current = jump;
                let mut cur = w.slots[s].head;
                w.slots[s] = Ends::EMPTY;
                w.occ[level] &= !(1u64 << slot);
                while cur != NIL {
                    // SAFETY: slot lists hold live slab indices.
                    let next = unsafe { *self.link.get_unchecked(cur as usize) };
                    let state = self.nodes[cur as usize].state;
                    assert_eq!(state, State::Queued, "linked node in bad state");
                    self.insert(cur);
                    cur = next;
                }
                self.cascades[level] += 1;
                cascaded = true;
                break;
            }
            if !cascaded {
                return None; // wheel empty
            }
        }
    }

    /// Takes the popped node's body for execution.
    pub(crate) fn begin_fire(&mut self, idx: u32) -> Body {
        let n = &mut self.nodes[idx as usize];
        debug_assert_eq!(n.state, State::Firing);
        n.body.take().expect("firing node has a body")
    }

    /// Frees a one-shot node after its body was taken (before running it,
    /// so self-cancels from within the body see a stale handle).
    pub(crate) fn free_fired(&mut self, idx: u32) {
        debug_assert_eq!(self.nodes[idx as usize].state, State::Firing);
        self.free(idx);
    }

    /// Finishes a recurring fire: re-arms the node at `next`, clamped to
    /// now (unless the body asked to stop or the event was cancelled
    /// mid-fire; at never it parks). A re-arm strictly ahead of the
    /// wheel's floor is held when the slot is free; anything else is filed
    /// like a schedule.
    pub(crate) fn end_recurring(&mut self, idx: u32, next: Option<u64>, body: Body) {
        let state = self.nodes[idx as usize].state;
        match (state, next) {
            (State::Firing, Some(u64::MAX)) => {
                let n = &mut self.nodes[idx as usize];
                n.state = State::Parked;
                n.body = Some(body);
            }
            (State::Firing, Some(at)) => {
                let at = at.max(self.now);
                self.at[idx as usize] = at;
                let n = &mut self.nodes[idx as usize];
                n.state = State::Queued;
                n.body = Some(body);
                self.live += 1;
                if at > self.now && self.held == NIL && at < self.wheel.floor() {
                    n.level = HELD;
                    self.held = idx;
                } else {
                    self.file(idx);
                }
            }
            (State::Firing, None) | (State::Cancelled, _) => self.free(idx),
            (s, _) => unreachable!("recurring end in state {s:?}"),
        }
    }
}
