//! The SDR data path's resource contract: packets *name* the send buffer
//! instead of copying it, so posting a range allocates O(1); a buffer that
//! changes between post and delivery is caught by the receiving NIC; and a
//! completed receive gives its memory key back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdr_core::testkit::{pattern, sdr_pair, SdrPair};
use sdr_core::SdrConfig;
use sdr_sim::{LinkConfig, SimTime};

/// Counts the measuring thread's allocations (calls and bytes) while
/// enabled; forwards everything to the system allocator.
struct CountingAlloc;

std::thread_local! {
    static T_ENABLED: Cell<bool> = const { Cell::new(false) };
    static T_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// `try_with`: allocator calls can outlive this thread's TLS (teardown);
/// those late allocations are simply not counted.
fn tally(bytes: usize) {
    let _ = T_ENABLED.try_with(|e| {
        if e.get() {
            let _ = T_ALLOCS.try_with(|a| {
                let (calls, total) = a.get();
                a.set((calls + 1, total + bytes as u64));
            });
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

/// `(allocator calls, bytes requested)` made by `f` on this thread.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    T_ALLOCS.with(|a| a.set((0, 0)));
    T_ENABLED.with(|e| e.set(true));
    f();
    T_ENABLED.with(|e| e.set(false));
    T_ALLOCS.with(|a| a.get())
}

const MSG: u64 = 1 << 20;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: MSG,
        msg_slots: 16,
        ..SdrConfig::default()
    }
}

/// A pair with `data` staged at the returned source address and a
/// same-sized destination buffer.
fn staged(link: LinkConfig, cfg: SdrConfig, data: &[u8]) -> (SdrPair, u64, u64) {
    let p = sdr_pair(link, cfg, 8 << 20);
    let src = p.ctx_a.alloc_buffer(data.len() as u64);
    let dst = p.ctx_b.alloc_buffer(data.len() as u64);
    p.ctx_a.write_buffer(src, data);
    (p, src, dst)
}

/// Posting a range costs what the range costs to *describe*: one boxed
/// send-completion event and, on an idle link, one pump — not a heap copy
/// of every packet. The parent commit allocated 256 × 4 KiB here.
#[test]
fn warm_stream_continue_allocates_per_range_not_per_packet() {
    let data = pattern(MSG as usize, 5);
    let (mut p, src, dst) = staged(LinkConfig::intra_dc(100e9), cfg(), &data);
    // Two messages: the first warms the link queue, CQs and engine slab.
    for round in 0..2 {
        let rh = p.qp_b.recv_post(&mut p.eng, dst, MSG).unwrap();
        p.eng.run();
        let sh = p
            .qp_a
            .send_stream_start(&mut p.eng, src, MSG, None)
            .unwrap();
        let (calls, bytes) = count_allocs(|| {
            p.qp_a
                .send_stream_continue(&mut p.eng, &sh, 0, MSG, |_, _| {})
                .unwrap();
        });
        p.eng.run();
        assert!(p.qp_b.recv_is_complete(&rh).unwrap());
        p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();
        p.qp_a.send_stream_end(&sh).unwrap();
        p.qp_a.send_release(sh);
        if round == 1 {
            assert!(
                calls <= 4 && bytes < 1024,
                "256 packets posted with {calls} allocations / {bytes} bytes"
            );
        }
    }
    assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
}

/// The contract with payload checksums on: the CRC is taken when the
/// range is posted, the bytes are read when each packet is delivered, so a
/// source range overwritten in between fails the NIC's check — exactly
/// those packets are dropped before the DMA and left clear in the bitmap,
/// everything else lands untouched. (Without checksums the send buffer
/// must simply stay stable until the receive completes; see
/// `SdrQp::send_post`.)
#[test]
fn source_overwritten_in_flight_is_rejected_packet_for_packet() {
    let data = pattern(MSG as usize, 6);
    let mut link = LinkConfig::intra_dc(100e9);
    link.one_way_delay = SimTime::from_millis(1);
    let (mut p, src, dst) = staged(link, cfg(), &data);
    let mtu = p.qp_a.config().mtu_bytes;
    let rh = p.qp_b.recv_post(&mut p.eng, dst, MSG).unwrap();
    p.eng.run();
    p.qp_a.send_post(&mut p.eng, src, MSG, None).unwrap();

    // All 256 packets are on the wire, none delivered: scribble over
    // packets 40..48 and the first byte of packet 200.
    let victims: Vec<usize> = (40..48).chain([200]).collect();
    p.ctx_a
        .write_buffer(src + 40 * mtu, &vec![0xEE; 8 * mtu as usize]);
    p.ctx_a
        .write_buffer(src + 200 * mtu, &[data[200 * mtu as usize] ^ 1]);
    p.eng.run();

    let bm = p.qp_b.recv_bitmap(&rh).unwrap();
    for pkt in 0..bm.total_packets() {
        assert_eq!(
            bm.packets().get(pkt),
            !victims.contains(&pkt),
            "packet {pkt}"
        );
    }
    let nic = p.fabric.node(p.node_b, |n| n.stats());
    assert_eq!(nic.crc_skipped, victims.len() as u64);
    assert_eq!(p.qp_b.stats().payload_corrupt, victims.len() as u64);
    // Nothing of the scribble reached the destination.
    let landed = p.ctx_b.read_buffer(dst, data.len());
    for pkt in 0..bm.total_packets() {
        let at = pkt * mtu as usize..(pkt + 1) * mtu as usize;
        if victims.contains(&pkt) {
            assert!(landed[at].iter().all(|&b| b == 0), "packet {pkt} skipped");
        } else {
            assert!(landed[at.clone()] == data[at], "packet {pkt} intact");
        }
    }
}

/// `recv_post` registers a key for the posted buffer; `recv_complete`
/// must give it back, or a long-lived QP grows the node's key table by
/// one entry per message forever.
#[test]
fn completed_receives_return_their_memory_keys() {
    let cfg = cfg();
    let data = pattern(4096, 7);
    let (mut p, src, dst) = staged(LinkConfig::intra_dc(100e9), cfg, &data);
    let keys = |p: &SdrPair| p.fabric.node(p.node_b, |n| n.mkey_count());
    let mut after_first_lap = 0;
    for lap in 0..10 {
        for _ in 0..cfg.msg_slots {
            let rh = p.qp_b.recv_post(&mut p.eng, dst, 4096).unwrap();
            p.qp_a.send_post(&mut p.eng, src, 4096, None).unwrap();
            p.eng.run();
            assert!(p.qp_b.recv_is_complete(&rh).unwrap());
            p.qp_b.recv_complete(&mut p.eng, &rh).unwrap();
        }
        if lap == 0 {
            after_first_lap = keys(&p);
        }
    }
    assert_eq!(keys(&p), after_first_lap, "one key leaked per receive");
    assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
}

/// The receiving NIC hashes a packet only when its source pages were
/// written since the post, and then that hash decides: packets rewritten
/// in flight *with their own bytes* are stamped "written", hashed, found
/// equal and land; packets rewritten with other bytes are still skipped;
/// every packet whose pages nobody touched lands on its carried checksum
/// unhashed. `nic.crc.rehashed` counts exactly the packets that share a
/// page with a rewrite.
#[test]
fn a_source_rewritten_with_its_own_bytes_still_lands() {
    let data = pattern(MSG as usize, 8);
    let mut link = LinkConfig::intra_dc(100e9);
    link.one_way_delay = SimTime::from_millis(1);
    let (mut p, src, dst) = staged(link, cfg(), &data);
    let mtu = p.qp_a.config().mtu_bytes as usize;
    let rh = p.qp_b.recv_post(&mut p.eng, dst, MSG).unwrap();
    p.eng.run();
    p.qp_a.send_post(&mut p.eng, src, MSG, None).unwrap();

    // All 256 packets are on the wire, none delivered: packets 10..20 and
    // 120 get their own bytes back, 100..104 and 200 new ones.
    let same: Vec<usize> = (10..20).chain([120]).collect();
    let changed: Vec<usize> = (100..104).chain([200]).collect();
    for &pkt in &same {
        let at = pkt * mtu..(pkt + 1) * mtu;
        p.ctx_a.write_buffer(src + at.start as u64, &data[at]);
    }
    for &pkt in &changed {
        let at = pkt * mtu;
        p.ctx_a.write_buffer(src + at as u64, &[data[at] ^ 0x5A]);
    }
    p.eng.run();

    let bm = p.qp_b.recv_bitmap(&rh).unwrap();
    for pkt in 0..bm.total_packets() {
        assert_eq!(
            bm.packets().get(pkt),
            !changed.contains(&pkt),
            "packet {pkt}"
        );
    }
    let nic = p.fabric.node(p.node_b, |n| n.stats());
    assert_eq!(nic.crc_skipped, changed.len() as u64);
    let landed = p.ctx_b.read_buffer(dst, data.len());
    for &pkt in &same {
        let at = pkt * mtu..(pkt + 1) * mtu;
        assert!(landed[at.clone()] == data[at], "packet {pkt} intact");
    }
    // A packet is hashed again iff one of its source pages was written.
    let page = sdr_sim::memory::PAGE;
    let pages = |off: usize, len: usize| {
        let lo = src as usize + off;
        lo / page..=(lo + len - 1) / page
    };
    let written: Vec<usize> = (same.iter().map(|&pkt| (pkt * mtu, mtu)))
        .chain(changed.iter().map(|&pkt| (pkt * mtu, 1)))
        .flat_map(|(off, len)| pages(off, len))
        .collect();
    let rehashed = (0..bm.total_packets())
        .filter(|&pkt| pages(pkt * mtu, mtu).any(|pg| written.contains(&pg)))
        .count() as u64;
    assert!(rehashed >= (same.len() + changed.len()) as u64);
    assert_eq!(
        p.fabric.metrics().counter_value("nic.crc.rehashed"),
        rehashed
    );
}
