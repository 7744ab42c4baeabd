//! Unit-cost probes: one public call of one layer, in isolation, timed
//! from outside. The ledger multiplies these by a workload's counts; on
//! their own they say what a layer *could* cost, not what it does cost
//! inside a workload (caches are warm here and cold there).
//!
//! Every probe warms once, repeats a fixed batch [`REPS`] times and
//! reports the median batch, so one scheduler hiccup cannot move it.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use sdr_rdma::core::{ImmLayout, TwoLevelBitmap};
use sdr_rdma::dpa::{
    run_loopback, CqeRing, DpaConfig, DpaCqe, DpaMsgTable, LoopbackConfig, ProcessStats, SlotPost,
};
use sdr_rdma::erasure::{crc32c, ErasureCode, ReedSolomon};
use sdr_rdma::model::Channel;
use sdr_rdma::reliability::flow::{DrrArbiter, DueIndex, FlowKey, WorkItem};
use sdr_rdma::reliability::{recommend, ControlEndpoint, CtrlMsg};
use sdr_rdma::sim::{Engine, EventKind, Fabric, FlightRecorder, LinkConfig, Registry, SimTime};

use crate::span::Spans;
use crate::stats::median;
use crate::workload::fill_pattern;

pub const REPS: usize = 5;
const GIB: f64 = (1u64 << 30) as f64;

/// Everything the probes measure, keyed like the per-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub engine_dispatch_ns: f64,
    pub engine_rearm_ns: f64,
    pub bitmap_set_ns: f64,
    pub bitmap_scan_ns_per_kbit: f64,
    pub crc32c_gibps_4k: f64,
    pub rs_encode_gibps: f64,
    pub rs_reconstruct_gibps: f64,
    pub control_ns_per_datagram: f64,
    pub drr_ns_per_item: f64,
    pub due_ns_per_op: f64,
    pub advisor_recommend_us: f64,
    pub dpa_ring_ns_per_cqe: f64,
    pub dpa_table_ns_per_cqe: f64,
    pub dpa_repost_ns: f64,
    pub dpa_rx_loop_ns_per_cqe: f64,
    pub dpa_threaded_mpps: f64,
    pub trace_counter_inc_ns: f64,
    pub trace_recorder_record_ns: f64,
}

/// Median wall nanoseconds of `batch`, over [`REPS`] timed runs after one
/// warm-up, recorded as one span.
fn probe(spans: &mut Spans, name: &'static str, mut batch: impl FnMut()) -> f64 {
    let (ns, _) = spans.time(name, 0, |_| {
        batch();
        let runs: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                batch();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&runs)
    });
    ns
}

pub fn run(seed: u64, spans: &mut Spans) -> Probes {
    let mut p = Probes::default();
    (p.engine_dispatch_ns, p.engine_rearm_ns) = engine(spans);
    (p.bitmap_set_ns, p.bitmap_scan_ns_per_kbit) = bitmap(spans);
    (p.crc32c_gibps_4k, p.rs_encode_gibps, p.rs_reconstruct_gibps) = erasure(seed, spans);
    p.control_ns_per_datagram = control(spans);
    (p.drr_ns_per_item, p.due_ns_per_op) = flow_structures(spans);
    p.advisor_recommend_us = probe(spans, "probe.advisor", || {
        // The adaptive controller's query: 2 MiB segments, 300 trials.
        let ch = Channel::new(8e9, 0.00667, 3e-3);
        black_box(recommend(&ch, 2 << 20, 300, seed));
    }) / 1e3;
    dpa(seed, spans, &mut p);
    (p.trace_counter_inc_ns, p.trace_recorder_record_ns) = trace(spans);
    p
}

/// One-shot schedule + fire with 4096 chains live (the queue depth of a
/// busy many-flow node), and the in-place re-arm of a recurring timer.
fn engine(spans: &mut Spans) -> (f64, f64) {
    const CHAINS: u64 = 4096;
    const HOPS: u64 = 64;
    fn hop(eng: &mut Engine, left: u64, stride: SimTime) {
        if left > 0 {
            eng.schedule_in(stride, move |eng| hop(eng, left - 1, stride));
        }
    }
    let dispatch = probe(spans, "probe.engine.dispatch", || {
        let mut eng = Engine::new();
        for c in 0..CHAINS {
            hop(&mut eng, HOPS, SimTime::from_nanos(100 + c));
        }
        eng.run();
        black_box(eng.executed_events());
    }) / (CHAINS * HOPS) as f64;
    let rearm = probe(spans, "probe.engine.rearm", || {
        let mut eng = Engine::new();
        for c in 0..CHAINS {
            let stride = SimTime::from_nanos(100 + c);
            let mut left = HOPS;
            eng.schedule_recurring_in(stride, move |eng| {
                left -= 1;
                (left > 0).then(|| eng.now().saturating_add(stride))
            });
        }
        eng.run();
        black_box(eng.executed_events());
    }) / (CHAINS * HOPS) as f64;
    (dispatch, rearm)
}

/// Per-packet bitmap update (16 packets per chunk, in order) and the
/// missing-chunk scan a receiver poll performs, per 1024 chunk bits.
fn bitmap(spans: &mut Spans) -> (f64, f64) {
    const PKTS: usize = 1 << 16;
    let bm = TwoLevelBitmap::new(PKTS, 16);
    let set = probe(spans, "probe.bitmap.set", || {
        bm.reset();
        for pkt in 0..PKTS {
            black_box(bm.record_packet(pkt));
        }
    }) / PKTS as f64;
    // A nearly complete message with a few holes: the common poll.
    bm.reset();
    for pkt in (0..PKTS).filter(|pkt| pkt % 4099 != 0) {
        bm.record_packet(pkt);
    }
    const SCANS: usize = 256;
    let chunks = bm.total_chunks();
    let scan = probe(spans, "probe.bitmap.scan", || {
        for _ in 0..SCANS {
            let mut holes = 0;
            bm.chunks()
                .for_each_missing_in_first_n(chunks, |_| holes += 1);
            black_box(holes);
        }
    }) / (SCANS * chunks) as f64
        * 1024.0;
    (set, scan)
}

/// CRC32C over 4 KiB blocks; MDS(32,8) encode and reconstruct of eight
/// erased 64 KiB data shards, one thread. GiB/s of *data* shards.
fn erasure(seed: u64, spans: &mut Spans) -> (f64, f64, f64) {
    let mut block = vec![0u8; 16 << 20];
    fill_pattern(&mut block, seed);
    let crc_ns = probe(spans, "probe.crc32c", || {
        for pkt in block.chunks(4096) {
            black_box(crc32c(pkt));
        }
    });
    let crc_gibps = block.len() as f64 / GIB / (crc_ns / 1e9);

    const K: usize = 32;
    const M: usize = 8;
    const SHARD: usize = 64 << 10;
    let rs = ReedSolomon::new(K, M);
    let data: Vec<&[u8]> = block.chunks(SHARD).take(K).collect();
    let mut parity = vec![vec![0u8; SHARD]; M];
    let encode_ns = probe(spans, "probe.rs.encode", || {
        let mut views: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        rs.encode_into(&data, &mut views);
    });
    let stripe_gib = (K * SHARD) as f64 / GIB;
    let encode_gibps = stripe_gib / (encode_ns / 1e9);

    let full: Vec<Vec<u8>> = data
        .iter()
        .map(|d| d.to_vec())
        .chain(parity.clone())
        .collect();
    // Every fourth data shard erased: 8 erasures, the most m = 8 repairs.
    // A decode consumes its shard table, so each run rebuilds it untimed.
    let erased = || -> Vec<Option<Vec<u8>>> {
        full.iter()
            .enumerate()
            .map(|(i, s)| (i >= K || i % 4 != 0).then(|| s.clone()))
            .collect()
    };
    let (decode_ns, _) = spans.time("probe.rs.reconstruct", 0, |_| {
        let runs: Vec<f64> = (0..=REPS)
            .map(|_| {
                let mut shards = erased();
                let t = Instant::now();
                rs.reconstruct(&mut shards)
                    .expect("8 erasures within m = 8");
                let ns = t.elapsed().as_nanos() as f64;
                black_box(&shards);
                ns
            })
            .collect();
        median(&runs[1..])
    });
    let reconstruct_gibps = stripe_gib / (decode_ns / 1e9);
    (crc_gibps, encode_gibps, reconstruct_gibps)
}

/// `ControlEndpoint::send` → wire → peer filter → peer handler, for the
/// most common datagram (a small cumulative SR ack), 64 per engine run so
/// the receive queue never overflows.
fn control(spans: &mut Spans) -> f64 {
    const BURST: u64 = 64;
    const BURSTS: u64 = 64;
    let fabric = Fabric::new();
    let a = fabric.add_node(4 << 20);
    let b = fabric.add_node(4 << 20);
    fabric.link_duplex(a, b, LinkConfig::intra_dc(400e9));
    let tx = ControlEndpoint::new(&fabric, a);
    let rx = ControlEndpoint::new(&fabric, b);
    let got = Rc::new(std::cell::Cell::new(0u64));
    let seen = got.clone();
    rx.set_handler(move |_eng, _src, msg| {
        black_box(&msg);
        seen.set(seen.get() + 1);
    });
    let mut eng = Engine::new();
    let ack = CtrlMsg::SrAck {
        cumulative: 17,
        window_start: 17,
        sack_bits: vec![0b1011],
        sack_len: 4,
        nacks: vec![17],
    };
    let ns = probe(spans, "probe.control", || {
        for _ in 0..BURSTS {
            for _ in 0..BURST {
                tx.send(&mut eng, rx.addr(), &ack);
            }
            eng.run();
        }
    }) / (BURST * BURSTS) as f64;
    assert_eq!(
        got.get(),
        BURST * BURSTS * (REPS as u64 + 1),
        "every probe datagram must reach the handler"
    );
    ns
}

/// The flow manager's two scheduling structures at 1k-flow scale: DRR
/// enqueue + poll per work item, due-index push + pop per deadline.
fn flow_structures(spans: &mut Spans) -> (f64, f64) {
    const FLOWS: u64 = 1024;
    const ITEMS: u64 = 4;
    const CHUNK: u64 = 64 << 10;
    let mut drr = DrrArbiter::new(CHUNK);
    for f in 0..FLOWS {
        drr.register(f, 1);
    }
    let drr_ns = probe(spans, "probe.flow.drr", || {
        for tag in 0..ITEMS {
            for f in 0..FLOWS {
                drr.enqueue(
                    f,
                    WorkItem {
                        tag: tag as u32,
                        bytes: CHUNK,
                    },
                );
            }
        }
        while let Some(item) = drr.poll() {
            black_box(item);
        }
    }) / (FLOWS * ITEMS) as f64;

    let mut due = DueIndex::new();
    let due_ns = probe(spans, "probe.flow.due", || {
        for round in 0..ITEMS {
            for f in 0..FLOWS {
                // Deadlines interleave across flows like RTOs do.
                let at = SimTime::from_nanos((f * 7919 + round * 104_729) % 1_000_003);
                due.push(at, round * FLOWS + f, FlowKey::Tx(f));
            }
        }
        while let Some(entry) = due.pop() {
            black_box(entry);
        }
    }) / (FLOWS * ITEMS) as f64;
    (drr_ns, due_ns)
}

/// The DPA receive path at its packet-rate extreme: 64 B writes, 16 384
/// per message, 1024 packets per chunk, 16 messages in flight.
fn dpa(seed: u64, spans: &mut Spans, p: &mut Probes) {
    const PKTS: usize = 16_384;
    const PER_CHUNK: u32 = 1024;
    const INFLIGHT: usize = 16;
    const BUDGET: usize = 256;
    let layout = ImmLayout::default();
    let cqe = |slot: usize, pkt: usize| DpaCqe {
        imm: layout.encode(slot as u32, pkt as u32, 0),
        generation: 0,
        null_write: false,
    };

    // Ring alone: push a budget, drain a budget.
    let ring = CqeRing::new(4096);
    let mut drained = Vec::with_capacity(BUDGET);
    const RING_ROUNDS: usize = 1024;
    p.dpa_ring_ns_per_cqe = probe(spans, "probe.dpa.ring", || {
        for _ in 0..RING_ROUNDS {
            for pkt in 0..BUDGET {
                black_box(ring.try_push(cqe(0, pkt)));
            }
            drained.clear();
            black_box(ring.pop_batch(&mut drained, BUDGET));
        }
    }) / (RING_ROUNDS * BUDGET) as f64;

    // Table alone: one message's completions through `process_batch`.
    let table = DpaMsgTable::new(INFLIGHT, layout);
    let posts: Vec<SlotPost> = (0..INFLIGHT)
        .map(|slot| SlotPost {
            slot,
            generation: 0,
            total_packets: PKTS,
            pkts_per_chunk: PER_CHUNK,
        })
        .collect();
    table.post_batch(&posts);
    let train: Vec<DpaCqe> = (0..PKTS).map(|pkt| cqe(0, pkt)).collect();
    let mut stats = ProcessStats::default();
    p.dpa_table_ns_per_cqe = probe(spans, "probe.dpa.table", || {
        table.complete(0);
        table.post_batch(&posts[..1]);
        for batch in train.chunks(BUDGET) {
            table.process_batch(batch, &mut stats);
        }
        black_box(table.is_complete(0));
    }) / PKTS as f64;

    // Repost alone: retire and repost the whole window in one sweep.
    p.dpa_repost_ns = probe(spans, "probe.dpa.repost", || {
        for slot in 0..INFLIGHT {
            table.complete(slot);
        }
        table.post_batch(&posts);
    }) / INFLIGHT as f64;

    // The worker's inner loop, one thread, as one piece: the producer
    // stripes each in-flight message's completions into the ring a budget
    // at a time, the consumer drains, processes, retires complete
    // messages and reposts them in one sweep.
    const MESSAGES: usize = 64;
    let mut reposts: Vec<SlotPost> = Vec::with_capacity(INFLIGHT);
    let mut completed = 0usize;
    p.dpa_rx_loop_ns_per_cqe = probe(spans, "probe.dpa.rx_loop", || {
        for slot in 0..INFLIGHT {
            table.complete(slot);
        }
        table.post_batch(&posts);
        completed = 0;
        let mut cursor = [0usize; INFLIGHT];
        let mut posted = INFLIGHT;
        while completed < MESSAGES {
            for (slot, next) in cursor.iter_mut().enumerate() {
                let upto = (*next + BUDGET / INFLIGHT).min(PKTS);
                for pkt in *next..upto {
                    assert!(ring.try_push(cqe(slot, pkt)), "ring sized for one sweep");
                }
                *next = upto;
            }
            drained.clear();
            while ring.pop_batch(&mut drained, BUDGET) > 0 {
                table.process_batch(&drained, &mut stats);
                drained.clear();
            }
            reposts.clear();
            for (slot, next) in cursor.iter_mut().enumerate() {
                if *next == PKTS && table.is_complete(slot) {
                    table.complete(slot);
                    completed += 1;
                    *next = if posted < MESSAGES {
                        posted += 1;
                        reposts.push(posts[slot]);
                        0
                    } else {
                        usize::MAX
                    };
                }
            }
            table.post_batch(&reposts);
        }
    }) / (MESSAGES * PKTS) as f64;
    assert_eq!(completed, MESSAGES, "every probe message must complete");
    black_box(&stats);

    // Threaded loopback (1 producer + 1 worker): informational, never
    // gated — it is bimodal on a 2-vCPU box.
    let (report, _) = spans.time("probe.dpa.threaded", 0, |_| {
        run_loopback(LoopbackConfig {
            dpa: DpaConfig {
                workers: 1,
                ..DpaConfig::default()
            },
            msg_bytes: (PKTS * 64) as u64,
            mtu_bytes: 64,
            chunk_bytes: 64 * u64::from(PER_CHUNK),
            inflight: INFLIGHT,
            messages: 128,
            drop_rate: 0.0,
            seed,
            batch_repost: true,
        })
    });
    p.dpa_threaded_mpps = report.pkts_per_sec / 1e6;
}

/// One registry counter increment and one flight-recorder write, with the
/// kill switch on (what the stack pays on its hot paths).
fn trace(spans: &mut Spans) -> (f64, f64) {
    const N: u64 = 1 << 20;
    let counter = Registry::new().counter("probe.events");
    let inc = probe(spans, "probe.trace.counter", || {
        for _ in 0..N {
            counter.inc();
        }
        black_box(counter.get());
    }) / N as f64;
    let recorder = FlightRecorder::new(4096);
    let rec = probe(spans, "probe.trace.recorder", || {
        for i in 0..N {
            recorder.record(i, EventKind::RtoFire, i, 0);
        }
        black_box(recorder.recorded());
    }) / N as f64;
    (inc, rec)
}
