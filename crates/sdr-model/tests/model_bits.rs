//! The model's result bits, pinned.
//!
//! Every number the adaptive controller decides on comes out of this crate,
//! and a change meant to make the model faster must not make it say
//! anything else. This test hashes the exact `f64` bits of every public
//! evaluator over a small grid; a mismatch means some result moved, even in
//! its last bit. Re-bless only for a change that is meant to move the
//! numbers, and say so in its description.
//!
//! Grid: two deployments (100 Gbit/s at 2 ms with 64 KiB chunks; 8 Gbit/s
//! at 10 ms with 16 KiB chunks, the adaptive benchmark's link) × packet
//! drop rates {0, 1e-6, 1e-4, 3e-3, 2e-2} × messages {96 KiB, 2 MiB,
//! 40 MiB}: SR-RTO and SR-NACK summaries and analytic means, EC summaries
//! and lower bounds for MDS(32,8), MDS(8,8) and XOR(32,8), and GBN
//! summaries at 64 trials each; plus the Figure 9 boundary for each of the
//! three EC shapes at 2 MiB on the first deployment and 40 MiB on the second.

use sdr_model::{
    ec_mean_lower_bound, ec_summary, fig09_boundary_p_packet, gbn_summary, sr_mean_analytic,
    sr_summary, Channel, EcConfig, GbnConfig, SrConfig, Summary,
};

/// FNV-1a over 64-bit words.
struct Bits(u64);

impl Bits {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn summary(&mut self, s: &Summary) {
        self.word(s.n as u64);
        for x in [s.mean, s.min, s.p50, s.p99, s.p999, s.max] {
            self.f(x);
        }
    }

    fn boundary(&mut self, b: Option<f64>) {
        match b {
            Some(x) => self.f(x),
            None => self.word(u64::MAX),
        }
    }
}

/// The grid's hash (the failure message prints the replacement).
const PINNED: u64 = 0x5bcd_7860_e78c_7904;

const TRIALS: usize = 64;
const SEED: u64 = 0x5D12;

fn deployments() -> [(f64, f64, u64); 2] {
    [(100e9, 0.002, 64 << 10), (8e9, 0.01, 16 << 10)]
}

fn shapes() -> [EcConfig; 3] {
    [
        EcConfig::mds(32, 8),
        EcConfig::mds(8, 8),
        EcConfig::xor(32, 8),
    ]
}

#[test]
fn model_result_bits_are_pinned() {
    let mut h = Bits(0xcbf2_9ce4_8422_2325);
    for (bw, rtt, chunk) in deployments() {
        for p in [0.0, 1e-6, 1e-4, 3e-3, 2e-2] {
            let ch = Channel::new(bw, rtt, p).with_chunk_bytes(chunk);
            let rto = SrConfig::rto_multiple(&ch, 3.0);
            let nack = SrConfig::nack(&ch);
            for bytes in [96u64 << 10, 2 << 20, 40 << 20] {
                for (i, sr) in [rto, nack].iter().enumerate() {
                    h.summary(&sr_summary(&ch, bytes, sr, TRIALS, SEED ^ i as u64));
                    h.f(sr_mean_analytic(&ch, bytes, sr));
                }
                for (i, ec) in shapes().iter().enumerate() {
                    let seed = SEED ^ ((i as u64) << 4);
                    h.summary(&ec_summary(&ch, bytes, ec, &rto, TRIALS, seed));
                    h.f(ec_mean_lower_bound(&ch, bytes, ec, &rto));
                }
                let gbn = GbnConfig::bdp_window(&ch, 3.0);
                h.summary(&gbn_summary(&ch, bytes, &gbn, TRIALS, SEED ^ 7));
            }
        }
    }
    for ((bw, rtt, _), bytes) in deployments().into_iter().zip([2 << 20, 40 << 20]) {
        for ec in shapes() {
            h.boundary(fig09_boundary_p_packet(bw, rtt, bytes, &ec, 3.0));
        }
    }
    let got = h.0;
    assert_eq!(
        got, PINNED,
        "model result bits moved: got {got:#018x}; re-bless only for an intended model change"
    );
}
