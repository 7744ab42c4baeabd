//! Model-guided protocol selection.
//!
//! The paper's thesis is that *no single reliability scheme wins everywhere*
//! (§2.1) and that SDR's value is letting deployments pick and tune per
//! connection (§5.2). This module operationalizes that: given channel
//! parameters and a message size, it evaluates the candidate schemes with
//! the `sdr-model` framework and recommends the best one.
//!
//! Tie-breaking follows §5.2.2: when EC's advantage is marginal, prefer SR —
//! erasure coding pays a real CPU cost for encoding (and decoding under
//! drops, Figure 11) that the latency model does not see.

use sdr_model::{Channel, Summary};

use crate::ack::SchemeSpec;

/// An evaluated candidate.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The scheme evaluated.
    pub scheme: SchemeSpec,
    /// Predicted completion-time statistics.
    pub summary: Summary,
}

/// The advisor's output.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// The chosen scheme.
    pub scheme: SchemeSpec,
    /// Predicted statistics of the chosen scheme.
    pub summary: Summary,
    /// All evaluated candidates, sorted by mean completion time.
    pub candidates: Vec<Candidate>,
}

/// If EC's mean advantage over the best SR variant is below this factor,
/// recommend SR anyway (encode/decode CPU cost, §5.2.2).
const EC_ADVANTAGE_THRESHOLD: f64 = 1.05;

/// Evaluates the standard candidate set ([`SchemeSpec::candidates`]) and
/// recommends a scheme for `message_bytes` on `ch`. `trials` stochastic
/// samples per candidate (≥ 2000 recommended for stable tails).
pub fn recommend(ch: &Channel, message_bytes: u64, trials: usize, seed: u64) -> Recommendation {
    let mut candidates: Vec<Candidate> = SchemeSpec::candidates()
        .map(|scheme| Candidate {
            scheme,
            summary: scheme.model_summary(ch, message_bytes, trials, seed),
        })
        .collect();
    // GBN is dominated, so it never comes first alone: on exact ties the
    // stable sort keeps SR ahead of it, and near-ties fall to the SR
    // tie-break below like a marginal EC win would.
    candidates.sort_by(|a, b| a.summary.mean.total_cmp(&b.summary.mean));
    let best = candidates[0];
    let best_sr = candidates
        .iter()
        .find(|c| c.scheme.is_sr())
        .expect("SR candidates always present");

    let chosen = if best.scheme.is_sr() {
        best
    } else if best_sr.summary.mean <= best.summary.mean * EC_ADVANTAGE_THRESHOLD {
        // EC wins only marginally: the encode cost makes SR preferable.
        *best_sr
    } else {
        best
    };

    Recommendation {
        scheme: chosen.scheme,
        summary: chosen.summary,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_zone_recommends_ec() {
        // Figure 9's red area: 128 MiB at 1e-4 packet drop, 400 G / 25 ms —
        // EC beats SR by multiples.
        let ch = Channel::new(400e9, 0.025, 1e-4);
        let rec = recommend(&ch, 128 << 20, 2000, 1);
        assert!(
            matches!(rec.scheme, SchemeSpec::EcMds { .. }),
            "expected MDS EC, got {}",
            rec.scheme
        );
    }

    #[test]
    fn large_message_low_loss_recommends_sr() {
        // §5.2.2: 8 GiB at 1e-6 — injection-bound, retransmissions hide in
        // the pipeline, EC's 25% parity overhead loses.
        let ch = Channel::new(400e9, 0.025, 1e-6);
        let rec = recommend(&ch, 8 << 30, 1200, 2);
        assert!(rec.scheme.is_sr(), "expected SR, got {}", rec.scheme);
    }

    #[test]
    fn tiny_messages_prefer_sr_via_tiebreak() {
        // Small messages: SR and EC complete in ~1 RTT either way; the CPU
        // tie-break must choose SR.
        let ch = Channel::new(400e9, 0.025, 1e-5);
        let rec = recommend(&ch, 64 * 1024, 1500, 3);
        assert!(rec.scheme.is_sr(), "expected SR, got {}", rec.scheme);
    }

    #[test]
    fn candidates_are_sorted_by_mean() {
        let ch = Channel::new(400e9, 0.025, 1e-4);
        let rec = recommend(&ch, 128 << 20, 800, 4);
        for w in rec.candidates.windows(2) {
            assert!(w[0].summary.mean <= w[1].summary.mean);
        }
        assert_eq!(rec.candidates.len(), 8);
    }

    #[test]
    fn gbn_is_ranked_but_never_beats_sr() {
        // The Bertsekas–Gallager ordering (§4): GBN appears in every
        // ranking as the baseline, costs at least as much as the best SR
        // variant, and is never the recommendation.
        for (p, msg, seed) in [
            (1e-4, 128u64 << 20, 5u64),
            (1e-6, 8 << 30, 6),
            (1e-3, 1 << 20, 7),
        ] {
            let ch = Channel::new(400e9, 0.025, p);
            let rec = recommend(&ch, msg, 1200, seed);
            let gbn = rec
                .candidates
                .iter()
                .find(|c| c.scheme == SchemeSpec::Gbn)
                .expect("GBN always evaluated");
            let best_sr = rec
                .candidates
                .iter()
                .find(|c| c.scheme.is_sr())
                .expect("SR always evaluated");
            assert!(
                gbn.summary.mean >= best_sr.summary.mean * 0.999,
                "p={p}: GBN {} must not beat SR {}",
                gbn.summary.mean,
                best_sr.summary.mean
            );
            assert_ne!(rec.scheme, SchemeSpec::Gbn, "p={p}: GBN never recommended");
        }
    }
}
