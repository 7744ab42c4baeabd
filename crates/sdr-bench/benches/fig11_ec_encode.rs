//! Criterion bench for the Figure 11 encode kernels: XOR vs Reed–Solomon
//! with the paper's (32, 8) split on 64 KiB chunks, serial and parallel,
//! plus the MDS decode path — and a per-kernel-tier comparison (scalar vs
//! SIMD) of both the raw GF(256) multiply-accumulate kernel and the full
//! single-thread MDS encode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdr_erasure::{EncodePool, ErasureCode, Kernel, ReedSolomon, XorCode};
use std::hint::black_box;

const CHUNK: usize = 64 * 1024;
const K: usize = 32;
const M: usize = 8;

fn data() -> Vec<Vec<u8>> {
    (0..K)
        .map(|i| {
            (0..CHUNK)
                .map(|j| ((i * 131 + j * 7) % 251) as u8)
                .collect()
        })
        .collect()
}

/// Per-tier GB/s for a one-source `mul_add_multi` and the full (32, 8)
/// single-thread MDS encode on 64 KiB shards — the numbers behind the
/// "SIMD ≥ 2× table-lookup baseline" acceptance bar.
fn bench_kernels(c: &mut Criterion) {
    let data = data();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let rs = ReedSolomon::new(K, M);

    let mut g = c.benchmark_group("gf256_mul_add_64KiB");
    g.throughput(Throughput::Bytes(CHUNK as u64));
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    let src = [refs[0]];
    let mut dst = vec![0u8; CHUNK];
    for kernel in Kernel::all() {
        g.bench_with_input(
            BenchmarkId::from_parameter(kernel.name()),
            kernel,
            |b, k| b.iter(|| k.mul_add_multi(black_box(&mut dst), black_box(&src), &[133])),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("mds_encode_1thread_per_kernel");
    g.throughput(Throughput::Bytes((K * CHUNK) as u64));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    // `encode_into_with_kernel` is the exact production strip walk with
    // the dispatch pinned, so the per-tier rows measure the real path.
    let mut parity = vec![vec![0u8; CHUNK]; M];
    for kernel in Kernel::all() {
        g.bench_with_input(
            BenchmarkId::from_parameter(kernel.name()),
            kernel,
            |b, k| {
                b.iter(|| {
                    let mut views: Vec<&mut [u8]> =
                        parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                    rs.encode_into_with_kernel(k, black_box(&refs), black_box(&mut views));
                })
            },
        );
    }
    g.finish();
}

fn bench_encode(c: &mut Criterion) {
    let data = data();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let xor = XorCode::new(K, M);
    let rs = ReedSolomon::new(K, M);
    let submsg_bytes = (K * CHUNK) as u64;

    let mut g = c.benchmark_group("ec_encode_2MiB_submessage");
    g.throughput(Throughput::Bytes(submsg_bytes));
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(3));

    g.bench_function("xor_serial", |b| {
        b.iter(|| black_box(xor.encode(black_box(&refs))))
    });
    g.bench_function("mds_serial", |b| {
        b.iter(|| black_box(rs.encode(black_box(&refs))))
    });
    // `*_2threads` rows stripe across the persistent EncodePool.
    let pool = EncodePool::global();
    let mut parity_xor = vec![vec![0u8; CHUNK]; M];
    let mut parity_rs = vec![vec![0u8; CHUNK]; M];
    g.bench_function("xor_2threads", |b| {
        b.iter(|| {
            let mut views: Vec<&mut [u8]> =
                parity_xor.iter_mut().map(|p| p.as_mut_slice()).collect();
            pool.encode_striped(&xor, black_box(&refs), black_box(&mut views), 2);
        })
    });
    g.bench_function("mds_2threads", |b| {
        b.iter(|| {
            let mut views: Vec<&mut [u8]> =
                parity_rs.iter_mut().map(|p| p.as_mut_slice()).collect();
            pool.encode_striped(&rs, black_box(&refs), black_box(&mut views), 2);
        })
    });
    g.finish();

    // Decode path: reconstruct 8 erased shards from the remaining 32.
    let parity = rs.encode(&refs);
    c.bench_function("mds_decode_8_erasures", |b| {
        b.iter(|| {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            for e in [0usize, 4, 9, 13, 20, 27, 31, 35] {
                shards[e] = None;
            }
            rs.reconstruct(&mut shards).expect("recoverable");
            black_box(shards)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_kernels, bench_encode
}
criterion_main!(benches);
