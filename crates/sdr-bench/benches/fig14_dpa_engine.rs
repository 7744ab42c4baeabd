//! Criterion bench for the Figure 14 loopback datapath: message transfers
//! through the DPA engine at two message sizes (repost-bound vs
//! packet-bound), reported as throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdr_core::ImmLayout;
use sdr_dpa::{run_loopback, DpaConfig, LoopbackConfig};
use std::hint::black_box;

fn cfg(msg_bytes: u64, messages: u64) -> LoopbackConfig {
    LoopbackConfig {
        dpa: DpaConfig {
            workers: 2,
            msg_slots: 64,
            ring_capacity: 8192,
            layout: ImmLayout::default(),
        },
        msg_bytes,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        inflight: 16,
        messages,
        drop_rate: 0.0,
        seed: 1,
        batch_repost: false,
    }
}

fn bench_loopback(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpa_loopback");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(4));

    g.throughput(Throughput::Bytes(64 * 4096)); // 64 msgs × 4 KiB
    g.bench_function("small_4KiB_msgs_repost_bound", |b| {
        b.iter(|| black_box(run_loopback(cfg(4096, 64))))
    });

    g.throughput(Throughput::Bytes(16 * (1 << 20))); // 16 msgs × 1 MiB
    g.bench_function("large_1MiB_msgs_packet_bound", |b| {
        b.iter(|| black_box(run_loopback(cfg(1 << 20, 16))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_loopback
}
criterion_main!(benches);
