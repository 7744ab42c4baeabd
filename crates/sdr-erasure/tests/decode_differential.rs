//! Differential test of the in-place, data-only decode, single-threaded
//! (`reconstruct_data`) and column-striped over explicit pools of 1 and 3
//! workers (`EncodePool::reconstruct_striped`), and of the allocating
//! `reconstruct` wrapper around it: for RS (32,8), (4,2) and `k` = 1, and
//! XOR modulo groups, at every erasure count from 0 to `m` (and one past
//! it), at shard lengths from one byte to more than two kernel strips.
//!
//! The reference is independent of the decode: the shards as encoded, and
//! `can_recover` for which patterns decode at all. Every rebuilt data shard
//! must equal the original, and `reconstruct` must restore the whole table,
//! its refilled parity included.
//!
//! Every output lives between guard bytes inside a larger buffer: the
//! decode must write exactly the erased shards' bytes and nothing around
//! them, leave the present shards byte-identical, and write nothing at
//! all on `Unrecoverable`.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdr_erasure::kernel::STRIP_BYTES;
use sdr_erasure::{EcError, EncodePool, ErasureCode, ReedSolomon, XorCode};

const GUARD: usize = 16;
const GUARD_BYTE: u8 = 0xA5;
/// What an output holds before the decode: an `Err` must leave it there.
const UNTOUCHED: u8 = 0x3C;

fn codes() -> Vec<Box<dyn ErasureCode>> {
    vec![
        Box::new(ReedSolomon::new(32, 8)),
        Box::new(ReedSolomon::new(4, 2)),
        Box::new(ReedSolomon::new(1, 2)),
        Box::new(XorCode::new(8, 4)),
        Box::new(XorCode::new(32, 8)),
        Box::new(XorCode::new(1, 1)),
        // More shards than the paper's largest submessage.
        Box::new(XorCode::new(96, 4)),
    ]
}

/// Explicit pools, built once: 1 worker (the caller's helping wait does
/// the rest) and 3.
fn pool(workers: usize) -> &'static EncodePool {
    static ONE: OnceLock<EncodePool> = OnceLock::new();
    static THREE: OnceLock<EncodePool> = OnceLock::new();
    match workers {
        1 => ONE.get_or_init(|| EncodePool::new(1)),
        _ => THREE.get_or_init(|| EncodePool::new(3)),
    }
}

/// How one decode under test is run.
#[derive(Clone, Copy, Debug)]
enum Decode {
    Serial,
    Striped { workers: usize, stripes: usize },
}

/// Decodes `erased` of `shards` with `how`, every output framed by guard
/// bytes. Returns the decode's result and the rebuilt data shards,
/// checking the frames and the present shards on the way.
fn decode_in_place(
    code: &dyn ErasureCode,
    shards: &[Vec<u8>],
    erased: &[bool],
    how: Decode,
) -> (Result<(), EcError>, Vec<Vec<u8>>) {
    let (k, len) = (code.data_shards(), shards[0].len());
    let holes = (0..k).filter(|&i| erased[i]).count();
    let frame = GUARD + len + GUARD;
    let mut arena = vec![GUARD_BYTE; holes * frame];
    for f in arena.chunks_exact_mut(frame) {
        f[GUARD..GUARD + len].fill(UNTOUCHED);
    }
    let before: Vec<Vec<u8>> = shards.to_vec();
    let views: Vec<Option<&[u8]>> = shards
        .iter()
        .zip(erased)
        .map(|(s, &e)| (!e).then_some(s.as_slice()))
        .collect();
    let res = {
        let mut outs: Vec<&mut [u8]> = arena
            .chunks_exact_mut(frame)
            .map(|f| &mut f[GUARD..GUARD + len])
            .collect();
        match how {
            Decode::Serial => code.reconstruct_data(&views, &mut outs),
            Decode::Striped { workers, stripes } => {
                pool(workers).reconstruct_striped(code, &views, &mut outs, stripes)
            }
        }
    };
    assert_eq!(shards, &before[..], "{how:?}: present shards changed");
    let mut rebuilt = Vec::new();
    for (h, f) in arena.chunks_exact(frame).enumerate() {
        assert!(
            f[..GUARD]
                .iter()
                .chain(&f[GUARD + len..])
                .all(|&b| b == GUARD_BYTE),
            "{how:?}: output {h} wrote outside its shard"
        );
        if res.is_err() {
            assert!(
                f[GUARD..GUARD + len].iter().all(|&b| b == UNTOUCHED),
                "{how:?}: output {h} written on {res:?}"
            );
        }
        rebuilt.push(f[GUARD..GUARD + len].to_vec());
    }
    (res, rebuilt)
}

/// One code at one shard length: every erasure count up to `m`, and one
/// past it (unrecoverable for RS; for XOR any count may be, depending on
/// the groups hit), each decoded serially and striped over both pools.
fn sweep(code: &dyn ErasureCode, len: usize, rng: &mut SmallRng, stripes: usize) {
    let (k, m) = (code.data_shards(), code.parity_shards());
    let data: Vec<Vec<u8>> = (0..k)
        .map(|_| (0..len).map(|_| rng.random()).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let shards: Vec<Vec<u8>> = data.iter().cloned().chain(code.encode(&refs)).collect();
    for count in 0..=m + 1 {
        let mut order: Vec<usize> = (0..k + m).collect();
        order.shuffle(rng);
        let mut erased = vec![false; k + m];
        for &i in &order[..count] {
            erased[i] = true;
        }
        let mut table: Vec<Option<Vec<u8>>> = shards
            .iter()
            .zip(&erased)
            .map(|(s, &e)| (!e).then(|| s.clone()))
            .collect();
        let present: Vec<bool> = erased.iter().map(|e| !e).collect();
        let want = if code.can_recover(&present) {
            Ok(())
        } else {
            Err(EcError::Unrecoverable)
        };
        assert_eq!(code.reconstruct(&mut table), want, "count {count}");
        if want.is_ok() {
            let table: Vec<Vec<u8>> = table.into_iter().flatten().collect();
            assert!(table == shards, "reconstruct: table differs, count {count}");
        }
        for how in [
            Decode::Serial,
            Decode::Striped {
                workers: 1,
                stripes,
            },
            Decode::Striped {
                workers: 3,
                stripes,
            },
        ] {
            let (got, rebuilt) = decode_in_place(code, &shards, &erased, how);
            assert_eq!(got, want, "{how:?} count {count}");
            if got.is_ok() {
                let holes = (0..k).filter(|&i| erased[i]);
                for (out, i) in rebuilt.iter().zip(holes) {
                    assert!(out == &data[i], "{how:?}: shard {i} differs from the data");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every code at every shard length, each case with its own data,
    /// erasure patterns and stripe count.
    #[test]
    fn decodes_rebuild_the_encoded_shards(seed in any::<u64>(), stripes in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for code in codes() {
            for len in [1, 63, 64 * code.data_shards() + 13, 2 * STRIP_BYTES + 77] {
                sweep(code.as_ref(), len, &mut rng, stripes);
            }
        }
    }
}

/// More than `m` erasures never decode under RS, at any length.
#[test]
fn rs_beyond_m_erasures_is_unrecoverable() {
    for code in [
        ReedSolomon::new(32, 8),
        ReedSolomon::new(4, 2),
        ReedSolomon::new(1, 2),
    ] {
        let (k, m) = (code.data_shards(), code.parity_shards());
        let shards: Vec<Vec<u8>> = vec![vec![9u8; 4096]; k + m];
        let erased: Vec<bool> = (0..k + m).map(|i| i <= m).collect();
        for how in [
            Decode::Serial,
            Decode::Striped {
                workers: 3,
                stripes: 2,
            },
        ] {
            let (got, _) = decode_in_place(&code, &shards, &erased, how);
            assert_eq!(got, Err(EcError::Unrecoverable), "RS({k},{m}) {how:?}");
        }
    }
}

/// XOR patterns that are unrecoverable at any count: two holes in one
/// group, or a hole and its group's parity — nothing written either way.
#[test]
fn unrecoverable_xor_patterns_write_nothing() {
    let code = XorCode::new(8, 4);
    let len = 2 * STRIP_BYTES + 77;
    let data: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8 + 1; len]).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let shards: Vec<Vec<u8>> = data.iter().cloned().chain(code.encode(&refs)).collect();
    for pattern in [[0usize, 4], [1, 9]] {
        let mut erased = vec![false; 12];
        for i in pattern {
            erased[i] = true;
        }
        for how in [
            Decode::Serial,
            Decode::Striped {
                workers: 3,
                stripes: 3,
            },
        ] {
            let (got, _) = decode_in_place(&code, &shards, &erased, how);
            assert_eq!(got, Err(EcError::Unrecoverable), "{pattern:?} {how:?}");
        }
    }
}

/// A shape the decode cannot honour is refused before any stripe starts.
#[test]
fn ragged_shapes_are_refused_up_front() {
    let code = ReedSolomon::new(4, 2);
    let shard = vec![7u8; 4096];
    let short = vec![7u8; 4000];
    let mut out = vec![0u8; 4096];
    let views = [
        None,
        Some(&shard[..]),
        Some(&short[..]),
        Some(&shard[..]),
        Some(&shard[..]),
        None,
    ];
    let got = pool(3).reconstruct_striped(&code, &views, &mut [&mut out[..]], 2);
    assert_eq!(got, Err(EcError::ShapeMismatch));
    // One output per erased data shard, no more.
    let views = [Some(&shard[..]); 6];
    let got = pool(3).reconstruct_striped(&code, &views, &mut [&mut out[..]], 2);
    assert_eq!(got, Err(EcError::ShapeMismatch));
    assert!(out.iter().all(|&b| b == 0));
}
