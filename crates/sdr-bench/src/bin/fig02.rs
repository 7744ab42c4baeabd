//! Figure 2 — packet drop rate vs UDP payload size between two datacenters
//! sharing a congested ISP bottleneck.
//!
//! The paper measures 16 UDP flows between Lugano and Lausanne over a
//! 100 Gbit/s ISP link: drop rates vary by up to three orders of magnitude
//! across trials and *grow with payload size*, pointing at switch-buffer
//! congestion. We reproduce the mechanism with a tail-drop fluid queue
//! shared with bursty cross traffic: each "trial" draws a different
//! congestion intensity, larger probe packets are less likely to fit the
//! residual buffer.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdr_bench::{fmt, table_header, table_row};
use sdr_sim::queue::BottleneckQueue;
use sdr_sim::SimTime;

/// One measurement trial: returns the probe drop rate.
fn trial(payload: u64, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    // 100 Gbit/s trunk with a 512 KiB shared buffer.
    let mut q = BottleneckQueue::new(100e9, 512 * 1024);
    // Per-trial congestion intensity: mean cross-traffic load between 0.7
    // and 1.15 of the drain rate (log-uniform), mimicking the day-to-day
    // variation the paper observed over its 3-day campaign.
    let load: f64 = 0.7 * (1.15f64 / 0.7).powf(rng.random::<f64>());
    let cross_rate_bps = 100e9 * load;
    let cross_pkt = 1500u64;
    let mean_gap_s = cross_pkt as f64 * 8.0 / cross_rate_bps;

    // Probe flows: 16 flows of `payload`-sized packets at ~1 Gbit/s total.
    let probe_gap_s = payload as f64 * 8.0 / 1e9;

    let mut t = 0.0f64;
    let mut next_probe = 0.0f64;
    // ~60k cross packets per trial keeps release-mode runtime small while
    // giving drop-rate resolution down to ~1e-4 per trial.
    for _ in 0..60_000 {
        // Bursty exponential inter-arrivals double the variance vs CBR.
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -mean_gap_s * u.ln();
        // The queue is driven in time order: probes due by `t` arrive
        // before this cross packet, so none sees it in the backlog.
        while next_probe <= t {
            q.offer(SimTime::from_secs_f64(next_probe), payload, true);
            next_probe += probe_gap_s;
        }
        q.offer(SimTime::from_secs_f64(t), cross_pkt, false);
    }
    q.stats().probe_drop_rate()
}

fn main() {
    println!("# Figure 2 — drop rate vs payload size (200 trials per size)");
    table_header(
        "Probe drop rate distribution over trials",
        &["payload", "min", "p25", "median", "p75", "max"],
    );
    for (pi, payload) in [1024u64, 2048, 4096, 8192].iter().enumerate() {
        let mut rates: Vec<f64> = (0..200)
            .map(|i| trial(*payload, 1000 * pi as u64 + i))
            .collect();
        rates.sort_by(f64::total_cmp);
        let pick = |q: f64| rates[((rates.len() - 1) as f64 * q) as usize];
        table_row(&[
            format!("{} KiB", payload / 1024),
            fmt(pick(0.0)),
            fmt(pick(0.25)),
            fmt(pick(0.5)),
            fmt(pick(0.75)),
            fmt(pick(1.0)),
        ]);
    }
    println!(
        "\nExpected shape (paper): order(s)-of-magnitude spread across trials;\n\
         drop rates increase with payload size."
    );
}
