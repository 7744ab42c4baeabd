//! Figure 11 — MDS vs XOR erasure codes: encoding throughput vs CPU
//! threads (can the encode hide behind 400 Gbit/s injection?) and
//! resilience (fallback probability vs chunk drop rate).
//!
//! Paper setup: 128 MiB buffer, 64 KiB chunks, (k, m) = (32, 8), Xeon 8580.
//! Substitution: our from-scratch Reed–Solomon vs the XOR modulo-group code
//! on the host CPU, the threads being the column stripes of
//! `EncodePool::encode_striped` on the process-wide pool; the kernel is one
//! pass over the sources per group of parity rows (eight on the GFNI tier,
//! four on AVX2). Two EC-stack rows ride along: the sender's wall-clock
//! time-to-first-byte (parity is encoded in place when its submessage
//! opens, so the first byte waits for no encode) and the receiver's
//! in-place decode.
//!
//! Emits machine-readable `BENCH_fig11.json` next to the working directory
//! so successive PRs can track the perf trajectory.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sdr_bench::{fmt, logspace, table_header, table_row};
use sdr_core::testkit::pattern;
use sdr_core::SdrConfig;
use sdr_erasure::{EncodePool, ErasureCode, ReedSolomon, XorCode};
use sdr_model::{p_fallback, Channel, EcConfig};
use sdr_reliability::testkit::ProtoHarness;
use sdr_reliability::{EcCodeChoice, EcProtoConfig, EcReceiver, EcReport, EcSender};
use sdr_sim::LinkConfig;

const CHUNK: usize = 64 * 1024;
const K: usize = 32;
const M: usize = 8;

fn encode_throughput(code: &dyn ErasureCode, threads: usize, submessages: usize) -> f64 {
    // One submessage = 32 × 64 KiB = 2 MiB of data; parity buffers are
    // reused so the loop measures dispatch + encode, not allocation.
    let data: Vec<Vec<u8>> = (0..K).map(|i| pattern(CHUNK, i as u64)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let mut parity = vec![vec![0u8; CHUNK]; code.parity_shards()];
    let pool = EncodePool::global();
    let mut run = |n: usize| {
        for _ in 0..n {
            let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            pool.encode_striped(code, &refs, &mut views, threads);
            std::hint::black_box(&parity);
        }
    };
    run(1); // warm up (and prime the pool)
    let start = Instant::now();
    run(submessages);
    let secs = start.elapsed().as_secs_f64();
    (submessages * K * CHUNK) as f64 * 8.0 / secs // encoded data bits/s
}

/// Data shards a decode row erases: what an MDS(32,8) submessage loses on
/// average at the `bulk_ec_lossy` benchmark row's 1e-2 packet loss (64 KiB
/// chunks of 16 packets: 32 × (1 − 0.99¹⁶) ≈ 4.8), all data, so every row
/// does the same work — the allocating wrapper has no parity to refill.
const DECODE_ERASED: [usize; 5] = [0, 7, 13, 21, 30];

/// Median GiB/s (of the submessage's k × 64 KiB of data) of one MDS(32,8)
/// decode per path: the allocating `reconstruct`, and the EC receiver's
/// in-place `reconstruct_striped` at one stripe and at the receiver's
/// width (a stripe per pool worker, none narrower than a kernel strip).
fn decode_throughput(reps: usize) -> [(&'static str, usize, f64); 3] {
    let rs = ReedSolomon::new(K, M);
    let data: Vec<Vec<u8>> = (0..K).map(|i| pattern(CHUNK, i as u64)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let shards: Vec<Vec<u8>> = data.iter().cloned().chain(rs.encode(&refs)).collect();
    let kept = |i: &usize| !DECODE_ERASED.contains(i);
    let gibps = |ns: f64| (K * CHUNK) as f64 / (1u64 << 30) as f64 / (ns / 1e9);
    let median = |mut runs: Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };

    // A decode consumes its shard table, so each run rebuilds it untimed.
    let reconstruct = median(
        (0..reps)
            .map(|_| {
                let mut table: Vec<Option<Vec<u8>>> = (0..K + M)
                    .map(|i| kept(&i).then(|| shards[i].clone()))
                    .collect();
                let t = Instant::now();
                rs.reconstruct(&mut table).expect("5 erasures within m = 8");
                let ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(&table);
                ns
            })
            .collect(),
    );
    let pool = EncodePool::global();
    let views: Vec<Option<&[u8]>> = (0..K + M)
        .map(|i| kept(&i).then_some(shards[i].as_slice()))
        .collect();
    let mut outs = vec![vec![0u8; CHUNK]; DECODE_ERASED.len()];
    let mut in_place = |stripes: usize| {
        median(
            (0..reps)
                .map(|_| {
                    let mut missing: Vec<&mut [u8]> =
                        outs.iter_mut().map(|o| o.as_mut_slice()).collect();
                    let t = Instant::now();
                    pool.reconstruct_striped(&rs, &views, &mut missing, stripes)
                        .expect("5 erasures within m = 8");
                    t.elapsed().as_nanos() as f64
                })
                .collect(),
        )
    };
    let one = in_place(1);
    let width = pool.stripes(CHUNK);
    let striped = in_place(width);
    for (o, &i) in outs.iter().zip(&DECODE_ERASED) {
        assert!(o == &data[i], "in-place decode rebuilt shard {i} wrong");
    }
    [
        ("reconstruct", 1, gibps(reconstruct)),
        ("in_place", 1, gibps(one)),
        ("in_place", width, gibps(striped)),
    ]
}

/// Wall-clock TTFB of the EC sender, through the real protocol stack over a
/// simulated channel.
fn measure_ttfb(msg: u64) -> EcReport {
    let link = LinkConfig::wan(50.0, 8e9, 0.0).with_seed(42);
    let cfg = SdrConfig {
        max_msg_bytes: 64 << 20,
        msg_slots: 64,
        chunk_bytes: CHUNK as u64,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    };
    let mut h = ProtoHarness::new(link, cfg, msg, 5);
    let model_ch = h.model_channel(8e9, 0.0);
    let proto = EcProtoConfig::for_channel(K, M, EcCodeChoice::Mds, &model_ch, msg, h.rtt);
    let rep = Rc::new(RefCell::new(None));
    let r2 = rep.clone();
    EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        move |_e, r| *r2.borrow_mut() = Some(r),
    );
    EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        |_e, _t, _st| {},
    );
    h.run(50_000_000);
    let taken = rep.borrow_mut().take();
    taken.expect("sender finished")
}

fn main() {
    println!("# Figure 11 — MDS vs XOR EC: encode cost and resilience");
    println!(
        "GF(256) kernel: {} (available: {})",
        sdr_erasure::Kernel::active().name(),
        sdr_erasure::Kernel::all()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    // CI pins tiers via SDR_GF256_KERNEL; a pin the host can't honor must
    // fail the run loudly, not silently re-measure the fallback tier.
    if let Ok(want) = std::env::var("SDR_GF256_KERNEL") {
        assert_eq!(
            sdr_erasure::Kernel::active().name(),
            want,
            "pinned GF(256) kernel unavailable on this host"
        );
    }
    let smoke = sdr_bench::smoke();
    let submessages = if smoke { 2 } else { 64 }; // 128 MiB total data per measurement

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"kernel\": \"{}\",\n  \"smoke\": {},\n",
        sdr_erasure::Kernel::active().name(),
        smoke
    ));

    table_header(
        "Encode throughput vs threads (128 MiB buffer, 64 KiB chunks, k=32 m=8)",
        &["threads", "XOR [Gbit/s]", "MDS [Gbit/s]", "XOR/MDS"],
    );
    let xor = XorCode::new(K, M);
    let rs = ReedSolomon::new(K, M);
    json.push_str("  \"encode_threads\": [\n");
    let sweep = [1usize, 2, 4, 8];
    for (n, threads) in sweep.into_iter().enumerate() {
        let tx = encode_throughput(&xor, threads, submessages) / 1e9;
        let tm = encode_throughput(&rs, threads, submessages) / 1e9;
        table_row(&[threads.to_string(), fmt(tx), fmt(tm), fmt(tx / tm)]);
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"xor_gbps\": {tx:.3}, \"mds_gbps\": {tm:.3}}}{}\n",
            if n + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    println!(
        "Expected shape: XOR ≈ 2x MDS throughput per core (paper: XOR hides\n\
         400 Gbit/s behind 4 cores, MDS needs ~8). Absolute numbers depend on\n\
         the host CPU; scaling flattens beyond the physical core count."
    );

    // Time-to-first-byte of the EC sender, through the real sender over a
    // simulated WAN.
    let ttfb_msg: u64 = if smoke { 8 << 20 } else { 32 << 20 };
    let ttfb = measure_ttfb(ttfb_msg).ttfb_wall.as_secs_f64() * 1e6;
    table_header(
        "EC sender wall-clock time-to-first-byte (MDS 32,8)",
        &["staging", "TTFB [µs]"],
    );
    table_row(&["encode at parity open".into(), fmt(ttfb)]);
    println!(
        "Expected shape: TTFB is the sender's setup, independent of the\n\
         message size: the staging region is taken and data submessage 0\n\
         injects (data needs no encode; parity encodes in place, striped over\n\
         the pool, when its submessage opens)."
    );
    json.push_str(&format!(
        "  \"ttfb\": {{\"msg_bytes\": {ttfb_msg}, \"at_parity_open_us\": {ttfb:.1}}},\n"
    ));

    // The receiver's decode: the allocating wrapper against the in-place
    // path the EC receiver runs (present chunks read where they landed,
    // only the erased data rebuilt, into the caller's buffers), serial and
    // column-striped over the pool.
    table_header(
        "MDS(32,8) decode of 5 erased data chunks (GiB/s of submessage data)",
        &["path", "stripes", "GiB/s"],
    );
    json.push_str(&format!(
        "  \"decode\": {{\"erased_data\": {}, \"rows\": [\n",
        DECODE_ERASED.len()
    ));
    let rows = decode_throughput(if smoke { 5 } else { 101 });
    for (n, (path, stripes, gibps)) in rows.iter().enumerate() {
        table_row(&[path.to_string(), stripes.to_string(), fmt(*gibps)]);
        json.push_str(&format!(
            "    {{\"path\": \"{path}\", \"stripes\": {stripes}, \"gib_per_s\": {gibps:.3}}}{}\n",
            if n + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    println!(
        "Expected shape: in place beats reconstruct (no fresh buffers to\n\
         allocate and zero) at one stripe; striping adds the pool's idle\n\
         cores on a multi-core host (on one core the widths tie)."
    );

    // CRC32C kernel tiers: every integrity check (control trailers,
    // per-packet payload checksums, EC shard audits, the whole-message
    // delivery digest) funnels through this primitive, so its throughput
    // bounds the checksum overhead the reliability layer can afford. Timed
    // at the grains the stack hashes: a 64 KiB chunk (EC shard audit), a
    // 4 KiB and a 256 B payload (`nic.rs`, both MTUs the benchmark runs;
    // control datagrams are shorter still). 256 B is the shortest input
    // the `vpclmul` tier folds and never reaches `sse42`'s interleaved
    // path, so on `sse42` it watches the serial loop.
    const CRC_GRAINS: [usize; 3] = [64 * 1024, 4096, 256];
    table_header(
        "CRC32C kernel throughput (GiB/s by input length)",
        &["tier", "64 KiB", "4 KiB", "256 B"],
    );
    let crc_buf = pattern(CRC_GRAINS[0], 0xCC);
    let crc_bytes: usize = if smoke { 32 << 20 } else { 1 << 30 }; // per tier and grain
    json.push_str("  \"crc32c\": [\n");
    let tiers = sdr_erasure::Crc32c::all();
    for (n, tier) in tiers.iter().enumerate() {
        let [g64k, g4k, g256] = CRC_GRAINS.map(|grain| {
            // Warm up, then time; each checksum picks the next window (a
            // power-of-two count of them) so the loop can't be hoisted
            // and calls can't overlap.
            let windows = crc_buf.len() / grain;
            let mut acc = tier.checksum(&crc_buf[..grain]);
            let start = Instant::now();
            for _ in 0..crc_bytes / grain {
                let at = (acc as usize & (windows - 1)) * grain;
                acc ^= tier.checksum(&crc_buf[at..at + grain]);
            }
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(acc);
            crc_bytes as f64 / secs / (1u64 << 30) as f64
        });
        table_row(&[tier.name().to_string(), fmt(g64k), fmt(g4k), fmt(g256)]);
        json.push_str(&format!(
            "    {{\"tier\": \"{}\", \"gib_per_s\": {g64k:.2}, \"gib_per_s_4k\": {g4k:.2}, \"gib_per_s_256b\": {g256:.2}, \"active\": {}}}{}\n",
            tier.name(),
            tier.name() == sdr_erasure::Crc32c::active().name(),
            if n + 1 < tiers.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    println!(
        "Expected shape: vpclmul folds 256 B per turn on 512-bit carry-less\n\
         multiplies — about three times sse42 at 4 KiB and 64 KiB, and above\n\
         it at 256 B too, where it folds once. sse42 runs three interleaved\n\
         CRC32 chains per 4032 B block — about three times its own 256 B row,\n\
         which is one latency-bound chain (8 B per 3 cycles) — and an order of\n\
         magnitude above slice-by-8, which reads the same at every length.\n\
         Two passes per payload byte (sender post, receiver NIC verify) at\n\
         the active tier's 4 KiB figure are what the benchmark's\n\
         erasure.crc32c.est_share charges the stack."
    );

    table_header(
        "Resilience: fallback probability vs chunk drop rate (128 MiB)",
        &["P_drop (chunk)", "XOR(32,8) fallback", "MDS(32,8) fallback"],
    );
    let ch = Channel::new(400e9, 0.025, 0.0);
    let m_chunks = ch.chunks_for(128 << 20);
    json.push_str("  \"resilience\": [\n");
    let drops: Vec<f64> = logspace(1e-4, 5e-2, 7);
    for (n, p) in drops.iter().enumerate() {
        let fx = p_fallback(&EcConfig::xor(32, 8), m_chunks, *p);
        let fm = p_fallback(&EcConfig::mds(32, 8), m_chunks, *p);
        table_row(&[format!("{p:.1e}"), fmt(fx), fmt(fm)]);
        json.push_str(&format!(
            "    {{\"p_drop\": {p:.1e}, \"xor_fallback\": {fx:.4}, \"mds_fallback\": {fm:.4}}}{}\n",
            if n + 1 < drops.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    println!(
        "Expected shape: XOR parity becomes ineffective around 1e-3 (falls\n\
         back to SR) while MDS remains robust beyond 1e-2."
    );

    std::fs::write("BENCH_fig11.json", &json).expect("write BENCH_fig11.json");
    println!("\nwrote BENCH_fig11.json");
}
