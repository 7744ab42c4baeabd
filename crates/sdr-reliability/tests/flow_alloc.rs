//! Allocation accounting for the many-flow engine's hot paths.
//!
//! The steady-state primitives a 10k-flow node leans on every tick — the
//! DRR arbiter, the due-deadline index, the per-chunk RTO timers, and the
//! `sdr-trace` instrumentation riding on all of them — must allocate
//! **nothing** once warm: 10k flows × an alloc per tick is an allocator
//! bench, not a flow engine. Metric increments are relaxed atomic ops on
//! pre-registered handles and flight-recorder events overwrite a
//! pre-reserved ring, so tracing stays on throughout (the RTO suite runs
//! with a bound recorder, as it does in production). Control datagrams
//! inherently allocate (each encodes into a fresh buffer), so the
//! end-to-end check asserts *no growth*: a second identical flow window
//! allocates no more than the first (which still pays one-time warm-up).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Mutex;

use sdr_core::testkit::pattern;
use sdr_core::{SdrConfig, SdrContext};
use sdr_reliability::flow::{DueIndex, FlowKey, WorkItem, PARITY_TAG};
use sdr_reliability::runtime::ChunkTimers;
use sdr_reliability::{ControlEndpoint, DrrArbiter, FlowCfg, FlowManager};
use sdr_sim::{
    set_trace_enabled, Engine, EventKind, Fabric, FlightRecorder, LinkConfig, Registry, SimTime,
};

/// Counts the *measuring thread's* allocations while enabled; forwards
/// everything to the system allocator. Thread-local so concurrently
/// running harness threads (test output capture, other tests) never bleed
/// into a measured section.
struct CountingAlloc;

std::thread_local! {
    static T_ENABLED: Cell<bool> = const { Cell::new(false) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with`: allocator calls can outlive this thread's TLS (teardown);
/// those late allocations are simply not counted.
fn tally() {
    let _ = T_ENABLED.try_with(|e| {
        if e.get() {
            let _ = T_ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Serializes the heavyweight measured sections (they share one machine).
static MEASURE: Mutex<()> = Mutex::new(());

fn count_allocs(f: impl FnOnce()) -> u64 {
    T_ALLOCS.with(|a| a.set(0));
    T_ENABLED.with(|e| e.set(true));
    f();
    T_ENABLED.with(|e| e.set(false));
    T_ALLOCS.with(|a| a.get())
}

#[test]
fn warm_drr_arbiter_allocates_nothing() {
    let _g = MEASURE.lock().unwrap();
    let mut arb = DrrArbiter::new(1024);
    // Warm-up: grow every per-flow queue and the active ring past the
    // sizes the measured phase will need.
    for f in 0..64 {
        arb.register(f, 1 + f % 3);
        for c in 0..32 {
            arb.enqueue(
                f,
                WorkItem {
                    tag: c,
                    bytes: 512 + (c as u64) * 7,
                },
            );
        }
    }
    while arb.poll().is_some() {}
    let n = count_allocs(|| {
        for round in 0..100u32 {
            for f in 0..64 {
                for c in 0..8 {
                    arb.enqueue(
                        f,
                        WorkItem {
                            tag: round * 8 + c,
                            bytes: 1024,
                        },
                    );
                }
            }
            while arb.poll().is_some() {}
        }
    });
    assert_eq!(n, 0, "warm DRR enqueue/poll cycles must not allocate");
}

#[test]
fn warm_due_index_allocates_nothing() {
    let _g = MEASURE.lock().unwrap();
    let mut due = DueIndex::new();
    for i in 0..4096u64 {
        due.push(SimTime(i * 17 % 1009), i, FlowKey::Tx(i));
    }
    while due.pop().is_some() {}
    let n = count_allocs(|| {
        for round in 0..100u64 {
            for i in 0..1024 {
                due.push(SimTime((i * 31 + round) % 997), i, FlowKey::Tx(i));
            }
            while due.pop().is_some() {}
        }
    });
    assert_eq!(n, 0, "warm due-index push/pop cycles must not allocate");
}

#[test]
fn chunk_timers_service_allocates_nothing() {
    let _g = MEASURE.lock().unwrap();
    // Tracing on, with a recorder bound exactly as the flow manager binds
    // one per flow: every RTO expiry below also records rto-fire /
    // rto-backoff events, and those must be free too. Warm the ring past
    // its wrap point so recording is pure in-place overwrite.
    set_trace_enabled(true);
    let rec = FlightRecorder::new(256);
    for i in 0..300u64 {
        rec.record(i, EventKind::RtoFire, 0, 0);
    }
    let mut timers = ChunkTimers::new(256);
    timers.set_trace(rec, 7);
    for c in 0..256 {
        timers.record_sent(c, SimTime(1));
    }
    let n = count_allocs(|| {
        let mut sink = 0u64;
        for round in 1..200u64 {
            let now = SimTime(round * 1_000_000);
            let _ = timers.take_expired(now, SimTime(10), |c| {
                sink += c as u64;
                now
            });
            for c in (0..256).step_by(3) {
                timers.record_sent(c, now);
            }
            let c = round as usize % 256;
            if timers.overdue(c, now + SimTime(1), SimTime(1)) {
                timers.record_resent(c, now);
            }
        }
        assert!(sink > 0, "expiries must actually fire");
    });
    assert_eq!(n, 0, "warm RTO service (tracing on) must not allocate");
}

#[test]
fn warm_metric_increments_allocate_nothing() {
    let _g = MEASURE.lock().unwrap();
    // Registration allocates (it names slots in a shared map) and happens
    // once at setup; the warm path below is what every tick pays.
    set_trace_enabled(true);
    let reg = Registry::new();
    let c = reg.counter("t.counter");
    let g = reg.gauge("t.gauge");
    let h = reg.histogram("t.hist");
    let rec = FlightRecorder::new(512);
    // Past the wrap point: ring writes are in-place overwrites.
    for i in 0..600u64 {
        rec.record(i, EventKind::SchemeStart, i, 0);
    }
    let n = count_allocs(|| {
        for i in 0..10_000u64 {
            c.inc();
            c.add(3);
            g.set(i as i64);
            h.record(i * 37 % 1_000_000);
            rec.record(i, EventKind::RtoFire, i, 1);
        }
    });
    assert_eq!(
        n, 0,
        "warm counter/gauge/histogram/recorder cycles must not allocate"
    );
}

#[test]
fn parity_tag_roundtrips() {
    // Guard the tag-bit convention the zero-alloc queues rely on.
    let it = WorkItem {
        tag: PARITY_TAG | 7,
        bytes: 4096,
    };
    assert_eq!(it.tag & !PARITY_TAG, 7);
    assert_ne!(it.tag & PARITY_TAG, 0);
}

#[test]
fn second_flow_window_allocates_no_more_than_first() {
    let _g = MEASURE.lock().unwrap();
    let eng = Engine::new();
    let fabric = Fabric::new();
    let node_a = fabric.add_node(256 << 20);
    let node_b = fabric.add_node(256 << 20);
    fabric.link_duplex(node_a, node_b, LinkConfig::intra_dc(100e9));
    let ctx_a = SdrContext::new(&fabric, node_a);
    let cfg = FlowCfg::new(SdrConfig::default(), 100e9, SimTime::from_micros(4));
    let ctrl_a = Rc::new(ControlEndpoint::new(&fabric, node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&fabric, node_b));
    let mgr_a = FlowManager::new(&fabric, node_a, ctrl_a, cfg.clone());
    let mgr_b = FlowManager::new(&fabric, node_b, ctrl_b, cfg);
    FlowManager::connect(&mgr_a, &mgr_b);
    let done: Rc<RefCell<HashMap<u64, bool>>> = Rc::new(RefCell::new(HashMap::new()));
    let mut eng = eng;
    let len = 256u64 * 1024;
    let window = |eng: &mut Engine| {
        let mut ids = Vec::new();
        for i in 0..24 {
            let src = ctx_a.alloc_buffer(len);
            ctx_a.write_buffer(src, &pattern(len as usize, i));
            let d = done.clone();
            ids.push(mgr_a.open_flow(eng, node_b, src, len, move |_e, rep| {
                d.borrow_mut().insert(rep.id, rep.delivered);
            }));
        }
        eng.set_event_limit(eng.executed_events() + 20_000_000);
        eng.run();
        ids
    };
    // Window 1 pays every warm-up cost (hash maps, rings, buffer pools).
    let mut ids = Vec::new();
    let w1 = count_allocs(|| ids = window(&mut eng));
    for id in ids.drain(..) {
        assert!(done.borrow()[&id], "window-1 flow {id} must deliver");
    }
    // Window 2 must ride entirely on warm state.
    let w2 = count_allocs(|| ids = window(&mut eng));
    for id in ids.drain(..) {
        assert!(done.borrow()[&id], "window-2 flow {id} must deliver");
    }
    assert!(
        w2 <= w1,
        "steady-state window allocated more than the cold one: {w2} > {w1}"
    );
}
