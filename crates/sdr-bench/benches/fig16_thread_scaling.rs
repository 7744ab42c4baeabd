//! Criterion bench for the Figure 16 kernel: end-to-end loopback packet
//! rate at 1, 2 and 4 receive workers (64-byte transport writes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdr_core::ImmLayout;
use sdr_dpa::{run_loopback, DpaConfig, LoopbackConfig};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpa_worker_scaling_64B");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(4));
    const MESSAGES: u64 = 96;
    const PKTS_PER_MSG: u64 = 16384;
    g.throughput(Throughput::Elements(MESSAGES * PKTS_PER_MSG));

    for workers in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(run_loopback(LoopbackConfig {
                    dpa: DpaConfig {
                        workers: w,
                        msg_slots: 64,
                        ring_capacity: 16384,
                        layout: ImmLayout::default(),
                    },
                    msg_bytes: 64 * PKTS_PER_MSG,
                    mtu_bytes: 64,
                    chunk_bytes: 64 * 1024,
                    inflight: 16,
                    messages: MESSAGES,
                    drop_rate: 0.0,
                    seed: 5,
                    batch_repost: false,
                }))
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_scaling
}
criterion_main!(benches);
