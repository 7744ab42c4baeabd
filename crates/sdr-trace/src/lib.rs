//! # sdr-trace — unified metrics registry + sim-time flight recorder
//!
//! ## Observability
//!
//! The paper's whole premise (§5.2, Fig. 2) is that WAN channel behavior
//! drifts three orders of magnitude over hours; a stack that *adapts* to
//! that drift is only operable if each layer's decisions are observable
//! — as one named set of numbers, and, when a chaos case fails, as a
//! readable history next to the replay seed. This crate is the one
//! observability layer every other crate threads through:
//!
//! * [`Registry`] — a named set of [`Counter`]s, [`Gauge`]s and
//!   log-linear [`Histogram`]s. Handles are registered once at setup
//!   (the only allocating step) and recorded lock-free on hot paths: an
//!   increment is a branch on a relaxed atomic (the kill switch) plus a
//!   relaxed `fetch_add`. Warm paths allocate **nothing** — asserted by
//!   the counting-allocator suite in `sdr-reliability/tests/flow_alloc.rs`.
//! * **Sources** ([`Registry::source`]) — the registry also *reads* the
//!   plain stats structs a layer keeps anyway (a link's `LinkStats`, a
//!   flow manager's `FlowStats`, …), so each fact has one store: a plain
//!   add on the hot path, never also a counter.
//! * [`Histogram`] — HDR-style log-linear buckets: 32 linear sub-buckets
//!   per power of two over the full `u64` range (1920 fixed buckets,
//!   ≤ 1/32 relative error), with `p50`/`p99`/`p999` quantile queries by
//!   cumulative scan. Values are whatever unit the call site picks
//!   (microseconds for latencies, counts for batch sizes).
//! * [`FlightRecorder`] — a fixed-capacity ring of compact structured
//!   [`Event`]s (`{at_ps, kind, a, b}`), one recorder per simulated
//!   node, recording scheme starts/handovers, `SwitchPropose`/`SwitchAck`,
//!   RTO fires/backoff, slot park/drain, fault injections, incarnation
//!   bumps and abort/resume transitions stamped with picosecond sim time.
//!   On an assertion failure the last-N-events timelines from both nodes
//!   are dumped next to the replay key ([`FlightRecorder::timeline`]),
//!   turning "case 1234 failed" into a readable two-node causal history.
//! * **Kill switch** — [`set_enabled`] / the `SDR_TRACE` environment
//!   variable (`SDR_TRACE=0` disables). It gates counters, gauges,
//!   histograms and the recorder — disabled, each record call compiles
//!   down to one relaxed atomic load and a branch — but not sources: the
//!   stack's own bookkeeping reads the same either way. Recording
//!   never perturbs the simulation: CI runs the `sim_fingerprint` table
//!   under `SDR_TRACE=0` and every row must hash as it does traced.
//!   What tracing costs in wall time is the benchmark's
//!   `trace.overhead_share` row.
//!
//! Ownership convention across the workspace: the sim `Engine` owns a
//! registry for substrate metrics (events executed, wheel cascade depth);
//! the `Fabric` owns a registry for everything above it (links, control
//! plane, flows, adaptive decisions) plus one `FlightRecorder` per node.
//! Reliability objects reach them through the `Fabric` handle they
//! already hold, so no plumbing changes at call sites.
//!
//! The crate is dependency-free: timestamps are raw `u64` picoseconds
//! (the same unit as `sdr_sim::SimTime`), so `sdr-sim` can depend on it
//! without a cycle.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

/// 0 = uninitialized (read `SDR_TRACE` on first use), 1 = on, 2 = off.
static STATE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("SDR_TRACE") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => true,
    };
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Whether recording is live. One relaxed atomic load on the warm path;
/// the first call reads the `SDR_TRACE` environment variable (default on,
/// `SDR_TRACE=0` disables).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_from_env(),
    }
}

/// Flips the process-wide kill switch. Metrics and recorder state are
/// retained — only future record calls are gated.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (a no-op while the kill switch is off).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value (a no-op while the kill switch is off).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power of two: 2^5 = 32 ⇒ ≤ 1/32 relative error.
const SUB_BITS: usize = 5;
const SUB: usize = 1 << SUB_BITS;
/// 32 linear buckets below 32, then 59 octaves (msb 5..=63) × 32.
const BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// Maps a value to its bucket. Identity below 32; above, the bucket key
/// is `(msb, next 5 bits)`, which is continuous at octave boundaries
/// (`bucket(31) = 31`, `bucket(32) = 32`, `bucket(64) = 64`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let octave = msb - SUB_BITS + 1;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    octave * SUB + sub
}

/// Smallest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        ((SUB + i % SUB) as u64) << (i / SUB - 1)
    }
}

/// Largest value mapping to bucket `i` (the quantile representative: the
/// true sample is ≤ this and within 1/32 below it).
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

struct HistogramCore {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

/// An HDR-style log-linear histogram over `u64` values: fixed bucket
/// array (no allocation after construction), lock-free recording,
/// quantiles by cumulative scan with ≤ 1/32 relative error. Cloning
/// shares the underlying buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .try_into()
            .unwrap_or_else(|_| unreachable!("BUCKETS-sized vec"));
        Histogram(Arc::new(HistogramCore {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }))
    }
}

impl Histogram {
    /// Records one value (a no-op while the kill switch is off).
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of one value at the cost of one: how a
    /// caller that counts in a plain array on its hot path publishes.
    /// `n = 0` records nothing (a no-op while the kill switch is off).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 || !enabled() {
            return;
        }
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        c.count.fetch_add(n, Ordering::Relaxed);
        c.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.0.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded value (exact, not bucket-quantized).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.0.min.load(Ordering::Relaxed);
        if v == u64::MAX && self.count() == 0 {
            0
        } else {
            v
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper edge of the first
    /// bucket whose cumulative count reaches `ceil(q · n)` (so the true
    /// sample at that rank is ≤ the returned value and within 1/32 of it).
    /// Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // The exact max beats the bucket edge for the top bucket.
                return bucket_high(i).min(self.max());
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile — the paper's tail metric.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A fact registered sources own: its value is their sum.
    Sourced,
}

/// A named set of metrics. Registration (`counter`/`gauge`/`histogram`)
/// is the cold path and idempotent: re-registering a name returns the
/// existing handle, so independent subsystems can share a metric without
/// coordination. Cloning the registry shares the set. Its sources
/// ([`source`](Self::source)) hold `Weak` handles, so it is not `Send`;
/// the [`Counter`] and [`Histogram`] handles it gives out are.
#[derive(Clone, Default)]
pub struct Registry {
    slots: Rc<RefCell<BTreeMap<String, Slot>>>,
    /// Per source, a reader handing its facts on (none once it is gone).
    sources: Rc<RefCell<Vec<Box<dyn Fn(&mut dyn FnMut(&'static str, u64))>>>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind
    /// (a source's fact included).
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.borrow_mut();
        // Retrieval is the common case — per-transfer objects bind their
        // handles every time one starts — and allocates nothing.
        match slots.get(name) {
            Some(Slot::Counter(c)) => c.clone(),
            Some(_) => panic!("metric {name} is not a counter"),
            None => {
                let c = Counter::default();
                slots.insert(name.to_string(), Slot::Counter(c.clone()));
                c
            }
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.borrow_mut();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::default()))
        {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Registers (or retrieves) the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.slots.borrow_mut();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Histogram::default()))
        {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Registers `owner`, held by `Weak`, as a source: while it lives,
    /// every read adds the `(name, value)` facts `read(owner)` lists, kill
    /// switch or not; owners of one name sum. `read` runs once here to
    /// learn the names, so it must list all of them every time. A dropped
    /// owner's facts leave the sums: only deployment-lived owners register.
    ///
    /// # Panics
    /// Panics if a listed name is registered as another metric kind.
    pub fn source<T: 'static, F>(&self, owner: &Rc<T>, read: impl Fn(&T) -> F + 'static)
    where
        F: IntoIterator<Item = (&'static str, u64)>,
    {
        let mut slots = self.slots.borrow_mut();
        for (name, _) in read(owner) {
            let slot = slots.entry(name.to_string()).or_insert(Slot::Sourced);
            assert!(
                matches!(slot, Slot::Sourced),
                "metric {name} is not a source's fact"
            );
        }
        let owner = Rc::downgrade(owner);
        self.sources.borrow_mut().push(Box::new(move |emit| {
            if let Some(o) = owner.upgrade() {
                read(&o).into_iter().for_each(|(name, v)| emit(name, v));
            }
        }));
    }

    /// Every live source's facts, summed by name.
    fn sourced(&self) -> BTreeMap<&'static str, u64> {
        let mut sum = BTreeMap::new();
        for read in self.sources.borrow().iter() {
            read(&mut |name, v| *sum.entry(name).or_default() += v);
        }
        sum
    }

    /// Current value of counter `name` — its count, or the sum of what
    /// the live sources owning it report (0 when unregistered): a
    /// convenience for reports that read someone else's metric.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.slots.borrow().get(name) {
            Some(Slot::Counter(c)) => c.get(),
            Some(Slot::Sourced) => self.sourced().get(name).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// A point-in-time copy of every metric, sorted by name (a source's
    /// facts are counters).
    pub fn snapshot(&self) -> Snapshot {
        let sourced = self.sourced();
        let slots = self.slots.borrow();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => counters.push((name.clone(), c.get())),
                Slot::Sourced => counters.push((name.clone(), *sourced.get(&**name).unwrap_or(&0))),
                Slot::Gauge(g) => gauges.push((name.clone(), g.get())),
                Slot::Histogram(h) => histograms.push((
                    name.clone(),
                    HistSummary {
                        count: h.count(),
                        mean: h.mean(),
                        min: h.min(),
                        p50: h.p50(),
                        p99: h.p99(),
                        p999: h.p999(),
                        max: h.max(),
                    },
                )),
            }
        }
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Quantile summary of one histogram at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Recorded values.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// Median (≤ 1/32 relative error).
    pub p50: u64,
    /// 99th percentile (≤ 1/32 relative error).
    pub p99: u64,
    /// 99.9th percentile (≤ 1/32 relative error).
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A point-in-time copy of a [`Registry`], ready to embed in a
/// `BENCH_*.json` or print next to a failure.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistSummary)>,
}

impl Snapshot {
    /// The snapshot as one JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {..}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {v}");
        }
        s.push_str("}, \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {v}");
        }
        s.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"count\": {}, \"mean\": {:.3}, \"min\": {}, \
                 \"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
                h.count, h.mean, h.min, h.p50, h.p99, h.p999, h.max
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable multi-line rendering (one metric per line).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(s, "  {name:<40} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(s, "  {name:<40} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                s,
                "  {name:<40} n={} mean={:.1} p50={} p99={} p999={} max={}",
                h.count, h.mean, h.p50, h.p99, h.p999, h.max
            );
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// What happened, compactly. The `a`/`b` payloads of [`Event`] are
/// kind-specific (documented per variant as `a` / `b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum EventKind {
    /// A scheme segment started. `a` = epoch, `b` = scheme discriminant.
    SchemeStart,
    /// A handover committed. `a` = epoch it applies from, `b` = scheme.
    SchemeHandover,
    /// `SwitchPropose` sent. `a` = handshake seq, `b` = proposed scheme.
    SwitchPropose,
    /// `SwitchAck` sent or accepted. `a` = handshake seq, `b` = epoch.
    SwitchAck,
    /// RTO expiry drained. `a` = transfer/flow id, `b` = chunks expired.
    RtoFire,
    /// RTO backoff exponent climbed. `a` = transfer/flow id, `b` = exponent.
    RtoBackoff,
    /// An open parked for want of a receive slot. `a` = flow id.
    SlotPark,
    /// A parked open drained into a slot. `a` = flow id.
    SlotDrain,
    /// Fault injection: loss model replaced. `a`/`b` unused.
    FaultLoss,
    /// Fault injection: blackout. `a` = 1 down / 0 healed, `b` = duration ps.
    FaultBlackout,
    /// Fault injection: flap edge. `a` = 1 down / 0 up, `b` = cycles left.
    FaultFlap,
    /// Fault injection: peer restart. `a` = node id, `b` = dead time ps.
    FaultRestart,
    /// Fault injection: diurnal drift step. `a` = step, `b` = loss ppm.
    FaultDrift,
    /// Control-plane incarnation bumped. `a` = node id, `b` = incarnation.
    Incarnation,
    /// A transfer aborted. `a` = transfer/flow id, `b` = reason discriminant.
    Abort,
    /// A transfer resumed. `a` = transfer/flow id, `b` = segments remaining.
    Resume,
    /// An EC receiver NACKed a submessage. `a` = submessage, `b` = the
    /// receive slot whose arrival passed it (order evidence), or
    /// `u64::MAX` when a clock ran out (the FTO, an overdue repair).
    EcNack,
}

impl EventKind {
    /// Stable kebab-case label used by timelines and JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SchemeStart => "scheme-start",
            EventKind::SchemeHandover => "scheme-handover",
            EventKind::SwitchPropose => "switch-propose",
            EventKind::SwitchAck => "switch-ack",
            EventKind::RtoFire => "rto-fire",
            EventKind::RtoBackoff => "rto-backoff",
            EventKind::SlotPark => "slot-park",
            EventKind::SlotDrain => "slot-drain",
            EventKind::FaultLoss => "fault-loss",
            EventKind::FaultBlackout => "fault-blackout",
            EventKind::FaultFlap => "fault-flap",
            EventKind::FaultRestart => "fault-restart",
            EventKind::FaultDrift => "fault-drift",
            EventKind::Incarnation => "incarnation",
            EventKind::Abort => "abort",
            EventKind::Resume => "resume",
            EventKind::EcNack => "ec-nack",
        }
    }
}

/// One recorded event: picosecond sim-time stamp, kind, two payload words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Sim time in picoseconds (`sdr_sim::SimTime.0`).
    pub at_ps: u64,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Total events ever recorded (≥ `buf.len()`).
    recorded: u64,
}

/// A fixed-capacity per-node ring of [`Event`]s. The buffer is allocated
/// once at construction; recording into it never allocates. Cloning
/// shares the ring (the usual shape: the fabric owns one per node, every
/// layer on that node records into it).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Ring>>,
    cap: usize,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (capacity ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity >= 1, "flight recorder needs capacity");
        FlightRecorder {
            inner: Rc::new(RefCell::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                recorded: 0,
            })),
            cap: capacity,
        }
    }

    /// Records one event (a no-op while the kill switch is off).
    #[inline]
    pub fn record(&self, at_ps: u64, kind: EventKind, a: u64, b: u64) {
        if !enabled() {
            return;
        }
        let mut r = self.inner.borrow_mut();
        let ev = Event { at_ps, kind, a, b };
        if r.buf.len() < self.cap {
            r.buf.push(ev); // within pre-reserved capacity: no allocation
        } else {
            let head = r.head;
            r.buf[head] = ev;
            r.head = (head + 1) % self.cap;
        }
        r.recorded += 1;
    }

    /// Total events ever recorded (including ones the ring has evicted).
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// The retained events, oldest first (recording order — monotone in
    /// sim time when the recording site is a single engine).
    pub fn events(&self) -> Vec<Event> {
        let r = self.inner.borrow();
        let mut out = Vec::with_capacity(r.buf.len());
        out.extend_from_slice(&r.buf[r.head..]);
        out.extend_from_slice(&r.buf[..r.head]);
        out
    }

    /// Human-readable timeline of the last `last_n` events, one per line:
    /// `[      12.345678 ms] scheme-handover   a=2 b=1`.
    pub fn timeline(&self, last_n: usize) -> String {
        let events = self.events();
        let skip = events.len().saturating_sub(last_n);
        let mut s = String::new();
        if skip > 0 {
            let _ = writeln!(s, "  … {skip} earlier events elided …");
        }
        for ev in &events[skip..] {
            let _ = writeln!(
                s,
                "  [{:>14.6} ms] {:<16} a={} b={}",
                ev.at_ps as f64 / 1e9,
                ev.kind.label(),
                ev.a,
                ev.b
            );
        }
        if events.is_empty() {
            s.push_str("  (no events recorded)\n");
        }
        s
    }

    /// The last `last_n` events as a JSON array of
    /// `{"at_ps": .., "kind": "..", "a": .., "b": ..}` objects.
    pub fn to_json(&self, last_n: usize) -> String {
        let events = self.events();
        let skip = events.len().saturating_sub(last_n);
        let mut s = String::from("[");
        for (i, ev) in events[skip..].iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"at_ps\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}",
                ev.at_ps,
                ev.kind.label(),
                ev.a,
                ev.b
            );
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The kill switch is process-wide and the harness runs tests on
    /// parallel threads: every test that records, and the one that flips
    /// the switch, holds this for its duration.
    static KILL_SWITCH: Mutex<()> = Mutex::new(());

    fn recording() -> std::sync::MutexGuard<'static, ()> {
        KILL_SWITCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive near the linear/log boundary, sampled above.
        let mut prev = 0usize;
        for v in 0u64..4096 {
            let b = bucket_index(v);
            assert!(b >= prev, "bucket({v}) regressed");
            assert!(bucket_low(b) <= v && v <= bucket_high(b), "v={v} b={b}");
            prev = b;
        }
        for shift in 5u32..64 {
            for off in [0u64, 1, 31] {
                let v = (1u64 << shift) + (off << (shift.saturating_sub(5)));
                let b = bucket_index(v);
                assert!(bucket_low(b) <= v && v <= bucket_high(b));
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_within_one_thirty_second() {
        for v in [100u64, 1000, 12_345, 1 << 20, u64::MAX / 3] {
            let b = bucket_index(v);
            let width = bucket_high(b) - bucket_low(b);
            assert!(
                (width as f64) <= bucket_low(b) as f64 / 32.0 + 1.0,
                "v={v}: width {width} vs low {}",
                bucket_low(b)
            );
        }
    }

    #[test]
    fn histogram_quantiles_on_a_ramp() {
        let _on = recording();
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.p50();
        assert!((485..=516).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((960..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn record_n_is_n_records() {
        let _on = recording();
        let (one_by_one, folded) = (Histogram::default(), Histogram::default());
        for (v, n) in [(3u64, 5u64), (0, 0), (700, 2), (1, 9), (40, 1)] {
            for _ in 0..n {
                one_by_one.record(v);
            }
            folded.record_n(v, n);
        }
        let summary = |h: &Histogram| (h.count(), h.mean(), h.min(), h.max(), h.p50(), h.p99());
        assert_eq!(summary(&folded), summary(&one_by_one));
        assert_eq!(folded.count(), 17);
        assert_eq!(folded.min(), 1, "n = 0 records nothing");
    }

    #[test]
    fn registry_is_idempotent_and_kind_checked() {
        let _on = recording();
        let r = Registry::new();
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.inc();
        c2.add(2);
        assert_eq!(r.counter_value("x"), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("x".into(), 3)]);
        assert!(snap.to_json().contains("\"x\": 3"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.gauge("x");
        let _ = r.counter("x");
    }

    #[test]
    fn recorder_wraps_and_keeps_order() {
        let _on = recording();
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i * 100, EventKind::RtoFire, i, 0);
        }
        assert_eq!(rec.recorded(), 10);
        let evs = rec.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert!(evs.windows(2).all(|w| w[0].at_ps <= w[1].at_ps));
        let tl = rec.timeline(3);
        assert!(tl.contains("rto-fire"));
        assert!(tl.contains("elided"));
        assert!(rec.to_json(4).starts_with('['));
    }

    #[test]
    fn kill_switch_gates_recording() {
        let _on = recording();
        set_enabled(true);
        let c = Counter::default();
        let h = Histogram::default();
        let rec = FlightRecorder::new(2);
        c.inc();
        h.record(5);
        rec.record(1, EventKind::Abort, 0, 0);
        set_enabled(false);
        c.inc();
        h.record(5);
        rec.record(2, EventKind::Abort, 0, 0);
        set_enabled(true);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
        assert_eq!(rec.recorded(), 1);
    }
}
