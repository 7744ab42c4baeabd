//! Owned vs named payloads are the same wire: one seeded 1 MiB packet
//! train over a link that loses, duplicates, displaces and corrupts, posted
//! once as `WriteWr { data: Bytes, .. }` slices and once as
//! `RegionWriteWr` descriptors of the sender's memory, must end with
//! identical link counters, NIC counters, completion sequence, landed
//! bytes and event count. That is the proof that a descriptor packet
//! consumes the link's RNG streams draw for draw (loss, then corruption
//! skips by payload *length*, wire duplicates included) and that the NIC
//! reaches the same verdict on bytes it reads straight from the source.
//!
//! A third run frees the source block mid-train and lets its next owner
//! scribble over it: [`Fabric::free_region`] hands the packets still in
//! flight their own copy first, so that run, too, is the same wire.
//!
//! The one NIC counter that differs by design is `crc_rehashed`: how many
//! carried checksums the NIC computed again depends on how the payload is
//! held (owned bytes always), not on the wire, so it is compared apart.

use bytes::Bytes;
use sdr_sim::{
    Cqe, CqeOp, Engine, Fabric, LinkConfig, LinkStats, LossModel, NodeStats, PayloadCheck, QpAddr,
    QpType, RegionWriteWr, SimTime, WriteWr,
};

const MTU: usize = 4096;
const PKTS: usize = 256;

struct Outcome {
    link: LinkStats,
    /// The NIC's counters, `crc_rehashed` zeroed (it is `rehashed`).
    nic: NodeStats,
    rehashed: u64,
    cqes: Vec<Cqe>,
    landed: Vec<u8>,
    events: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Post {
    /// `WriteWr` slices of heap bytes.
    Owned,
    /// `RegionWriteWr` descriptors of the sender's memory.
    Named,
    /// Named, and the source block is freed, re-allocated and overwritten
    /// while half the train is still on the wire.
    NamedThenRecycled,
}

fn run_train(post: Post) -> Outcome {
    let mut eng = Engine::new();
    let fab = Fabric::new();
    let a = fab.add_node(2 << 20);
    let b = fab.add_node(2 << 20);
    let cfg = LinkConfig::wan(10.0, 100e9, 0.0)
        .with_loss(LossModel::Iid { p: 0.05 })
        .with_duplication(0.1)
        .with_reordering(0.05, 4)
        .with_corruption_burst(5e-6, 8)
        .with_seed(77);
    fab.link_duplex(a, b, cfg);
    let uc_qp = |node| {
        fab.node_mut(node, |n| {
            let (send_cq, recv_cq) = (n.create_cq(), n.create_cq());
            (n.create_qp(QpType::Uc, send_cq, recv_cq), send_cq, recv_cq)
        })
    };
    let (qa, send_cq, _) = uc_qp(a);
    let (qb, _, recv_cq) = uc_qp(b);
    fab.node_mut(a, |n| n.connect_qp(qa, QpAddr { node: b, qp: qb }));
    fab.node_mut(b, |n| n.connect_qp(qb, QpAddr { node: a, qp: qa }));
    let dst = fab.node_mut(b, |n| n.alloc_mr((PKTS * MTU) as u64));

    let train: Vec<u8> = (0..PKTS * MTU)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
        .collect();
    let src = fab.node_mut(a, |n| {
        let src = n.mem_mut().alloc(train.len() as u64);
        n.mem_mut().write(src, &train);
        src
    });
    let from = QpAddr { node: a, qp: qa };
    if post != Post::Owned {
        let wrs = (0..PKTS).map(|i| RegionWriteWr {
            qp: qa,
            local_addr: src + (i * MTU) as u64,
            len: MTU as u32,
            remote_mkey: dst.mkey,
            remote_offset: (i * MTU) as u64,
            imm: Some(i as u32),
            checksum: true,
            wr_id: i as u64,
            signaled: i == PKTS - 1,
        });
        fab.post_uc_region_writes(&mut eng, a, wrs, |_, _| {})
            .unwrap();
    } else {
        let data = Bytes::from(train.clone());
        for i in 0..PKTS {
            let data = data.slice(i * MTU..(i + 1) * MTU);
            let wr = WriteWr {
                remote_mkey: dst.mkey,
                remote_offset: (i * MTU) as u64,
                crc: Some(sdr_erasure::crc32c(&data)),
                data,
                imm: Some(i as u32),
                wr_id: i as u64,
                signaled: i == PKTS - 1,
            };
            fab.post_uc_write(&mut eng, from, wr).unwrap();
        }
    }
    if post == Post::NamedThenRecycled {
        // 10 km is 50 us one way and the train serializes in ~86 us: at
        // 90 us part of it has landed and the rest is in flight.
        eng.run_until(SimTime::from_micros(90));
        let in_flight = fab.tx_in_flight(a, b).unwrap();
        assert!(in_flight > PKTS / 4 && in_flight < PKTS, "{in_flight}");
        fab.free_region(a, src, train.len() as u64);
        fab.node_mut(a, |n| {
            assert_eq!(n.mem_mut().alloc(train.len() as u64), src, "recycled");
            n.mem_mut().fill(src, train.len(), 0xEE);
        });
    }
    eng.run();

    let send_done = fab.node_mut(a, |n| n.poll_cq(send_cq)).expect("signaled");
    assert_eq!(send_done.op, CqeOp::SendComplete);
    if post != Post::NamedThenRecycled {
        assert_eq!(
            fab.node(a, |n| n.mem().read(src, train.len()).to_vec()),
            train,
            "the wire never writes the source it reads"
        );
    }
    let nic = fab.node(b, |n| n.stats());
    Outcome {
        link: fab.link_stats(a, b).unwrap(),
        nic: NodeStats {
            crc_rehashed: 0,
            ..nic
        },
        rehashed: nic.crc_rehashed,
        cqes: std::iter::from_fn(|| fab.node_mut(b, |n| n.poll_cq(recv_cq))).collect(),
        landed: fab.node(b, |n| n.mem().read(dst.addr, train.len()).to_vec()),
        events: eng.executed_events(),
    }
}

#[test]
fn named_and_owned_payloads_are_the_same_wire() {
    let (owned, named) = (run_train(Post::Owned), run_train(Post::Named));
    // The scenario must actually exercise every fate.
    let l = owned.link;
    assert!(l.dropped > 0 && l.duplicated > 0 && l.reordered > 0 && l.corrupted > 0);
    assert!(owned.nic.crc_skipped > 0 && owned.nic.writes_landed > 200);
    assert!(owned.cqes.iter().any(|c| c.check == PayloadCheck::Skipped));

    assert_eq!(owned.link, named.link, "link RNG streams diverged");
    assert_eq!(owned.nic, named.nic, "NIC counters diverged");
    assert_eq!(owned.cqes, named.cqes, "completion sequences diverged");
    assert!(owned.landed == named.landed, "landed bytes diverged");
    assert_eq!(owned.events, named.events, "engine schedules diverged");
    let checked = owned.nic.writes_landed + owned.nic.crc_skipped;
    assert_eq!(owned.rehashed, checked, "owned bytes are always hashed");
    assert_eq!(
        named.rehashed, l.corrupted,
        "a region is hashed once corrupted"
    );
}

#[test]
fn a_block_freed_under_in_flight_packets_is_still_the_same_wire() {
    let (named, recycled) = (run_train(Post::Named), run_train(Post::NamedThenRecycled));
    assert_eq!(named.link, recycled.link, "link RNG streams diverged");
    assert_eq!(
        named.nic, recycled.nic,
        "a straggler read its block's next owner (crc_skipped) or vanished"
    );
    assert_eq!(named.cqes, recycled.cqes, "completion sequences diverged");
    assert!(named.landed == recycled.landed, "landed bytes diverged");
    assert_eq!(named.events, recycled.events, "engine schedules diverged");
    assert!(
        recycled.rehashed > named.rehashed,
        "a straggler's own copy is hashed"
    );
}
