//! Allocation accounting for the EC receiver's decode.
//!
//! A decode reads the present chunks where they lie in node memory and
//! rebuilds the missing data chunks straight into the user buffer, so a
//! warm decode allocates no chunk buffer: on the protocol thread only its
//! shard tables allocate — the decode's views and holes, and per stripe it
//! dispatches to the encode pool a task box, a latch and the stripe's
//! views, tens to hundreds of bytes each.
//!
//! The simulator allocates a few dozen bytes per packet and datagram
//! (events, control frames) whether or not anything decodes, so the count
//! is of the bytes in allocations of at least [`LARGE`]: a decode that
//! staged even one 64 KiB chunk per submessage would overrun the budget
//! 64 times.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use common::{capture, took, ProtoHarness};
use sdr_core::SdrConfig;
use sdr_reliability::{
    EcCodeChoice, EcProtoConfig, EcReceiver, EcRecvStats, EcSender, TransferOutcome,
};
use sdr_sim::LinkConfig;

/// Allocations from this size up are counted: far above any per-packet
/// or per-stripe one, far below a chunk.
const LARGE: usize = 1024;

/// Counts the bytes the *measuring thread* allocates in allocations of at
/// least [`LARGE`] bytes while enabled, and forwards everything to the
/// system allocator. Thread-local, so the
/// encode pool's workers (and other tests) never bleed into a measured
/// section.
struct CountingAlloc;

std::thread_local! {
    static T_ENABLED: Cell<bool> = const { Cell::new(false) };
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `try_with`: allocator calls can outlive this thread's TLS (teardown);
/// those late allocations are simply not counted.
fn tally(bytes: usize) {
    let _ = T_ENABLED.try_with(|e| {
        if e.get() && bytes >= LARGE {
            let _ = T_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn count_bytes(f: impl FnOnce()) -> u64 {
    T_BYTES.with(|b| b.set(0));
    T_ENABLED.with(|e| e.set(true));
    f();
    T_ENABLED.with(|e| e.set(false));
    T_BYTES.with(|b| b.get())
}

const CHUNK: usize = 64 * 1024;
const MSG: u64 = 4 << 20;

/// One EC(4, 2) transfer of `MSG` bytes; returns the receiver's stats and
/// the bytes the protocol thread allocated in large allocations while the
/// engine ran it. (The starts are not counted: the sender's encode
/// buffers are per transfer.)
fn transfer(h: &mut ProtoHarness, proto: EcProtoConfig) -> (EcRecvStats, u64) {
    let (rep, cb) = capture();
    EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        MSG,
        proto,
        cb,
    );
    let stats = Rc::new(Cell::new(None));
    let s = stats.clone();
    EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        MSG,
        proto,
        move |_e, _t, st| s.set(Some(st)),
    );
    let limit = h.p.eng.executed_events() + 80_000_000;
    let bytes = count_bytes(|| h.run(limit));
    assert_eq!(took(&rep, "EC sender").outcome, TransferOutcome::Delivered);
    assert!(h.delivered_ok(), "delivery intact");
    (stats.take().expect("receiver done"), bytes)
}

#[test]
fn warm_decode_allocates_no_chunk_buffer() {
    let cfg = SdrConfig {
        max_msg_bytes: MSG,
        msg_slots: 64,
        chunk_bytes: CHUNK as u64,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    };
    let link = LinkConfig::wan(50.0, 8e9, 0.02).with_seed(41);
    let mut h = ProtoHarness::new(link, cfg, MSG, 0xEC);
    let model_ch = h.model_channel(8e9, 0.02);
    let proto = EcProtoConfig::for_channel(4, 2, EcCodeChoice::Mds, &model_ch, MSG, h.rtt);
    // The first transfer warms what is per process or per pair: the
    // decode-matrix cache, event and control buffers, pool threads.
    let (cold, _) = transfer(&mut h, proto);
    assert!(cold.decoded_submessages > 0, "2% loss must decode");
    h.p.ctx_b.write_buffer(h.dst, &vec![0; MSG as usize]);
    let (warm, bytes) = transfer(&mut h, proto);
    assert!(warm.decoded_submessages > 0, "2% loss must decode");
    let per_decode = bytes / warm.decoded_submessages;
    assert!(
        per_decode < 1024,
        "a warm transfer allocated {per_decode} B in large allocations per decoded submessage ({bytes} B, {} decodes)",
        warm.decoded_submessages
    );
}
