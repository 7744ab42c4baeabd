//! Bottleneck queue.
//!
//! Figure 2 of the paper measures UDP drop rates between two CSCS
//! datacenters over an ISP-provided optical link and observes (a) up to three
//! orders of magnitude drop-rate variation across trials and (b) drop rates
//! that grow with payload size — both attributed to switch buffer congestion
//! on the ISP side. We reproduce that mechanism with a fluid tail-drop FIFO
//! queue shared between the measured flows and bursty cross traffic (the
//! figure's binary draws the arrivals): larger packets are more likely to
//! find insufficient residual buffer space, and congestion episodes make
//! trials wildly different.

use crate::time::SimTime;

/// A fluid-model FIFO queue in front of a fixed-rate drain (the ISP trunk).
///
/// The queue tracks its backlog in bytes, draining continuously at
/// `drain_bps`. An arriving packet is tail-dropped when the backlog plus the
/// packet exceeds `capacity_bytes`.
pub struct BottleneckQueue {
    drain_bps: f64,
    capacity_bytes: u64,
    backlog_bytes: f64,
    last_update: SimTime,
    /// Packets offered / dropped, split by whether they came from the
    /// measured flows (`probe`) or from cross traffic.
    stats: QueueStats,
}

/// Counters exported by the bottleneck queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Probe packets offered.
    pub probe_offered: u64,
    /// Probe packets tail-dropped.
    pub probe_dropped: u64,
    /// Cross-traffic packets offered.
    pub cross_offered: u64,
    /// Cross-traffic packets tail-dropped.
    pub cross_dropped: u64,
}

impl QueueStats {
    /// Drop rate seen by the measured (probe) flows.
    pub fn probe_drop_rate(&self) -> f64 {
        if self.probe_offered == 0 {
            0.0
        } else {
            self.probe_dropped as f64 / self.probe_offered as f64
        }
    }
}

impl BottleneckQueue {
    /// Creates a queue that drains at `drain_bps` with `capacity_bytes` of
    /// buffer.
    pub fn new(drain_bps: f64, capacity_bytes: u64) -> Self {
        assert!(drain_bps > 0.0);
        BottleneckQueue {
            drain_bps,
            capacity_bytes,
            backlog_bytes: 0.0,
            last_update: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Drains the backlog up to `now`, which must not precede the last
    /// call: the backlog already holds what arrived after it.
    fn drain_to(&mut self, now: SimTime) {
        let last = self.last_update;
        assert!(now >= last, "out of time order: {now:?} after {last:?}");
        let dt = (now - last).as_secs_f64();
        self.backlog_bytes = (self.backlog_bytes - dt * self.drain_bps / 8.0).max(0.0);
        self.last_update = now;
    }

    /// Offers a packet at time `now` (calls must come in time order);
    /// returns `true` if it was accepted (queued) and `false` if
    /// tail-dropped.
    pub fn offer(&mut self, now: SimTime, bytes: u64, probe: bool) -> bool {
        self.drain_to(now);
        let accepted = self.backlog_bytes + bytes as f64 <= self.capacity_bytes as f64;
        if probe {
            self.stats.probe_offered += 1;
            if !accepted {
                self.stats.probe_dropped += 1;
            }
        } else {
            self.stats.cross_offered += 1;
            if !accepted {
                self.stats.cross_dropped += 1;
            }
        }
        if accepted {
            self.backlog_bytes += bytes as f64;
        }
        accepted
    }

    /// Current backlog in bytes (after draining to `now`).
    pub fn backlog(&mut self, now: SimTime) -> f64 {
        self.drain_to(now);
        self.backlog_bytes
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn queue_drains_at_configured_rate() {
        let mut q = BottleneckQueue::new(8e6, 1_000_000); // 1 MB/s drain
        assert!(q.offer(SimTime::ZERO, 500_000, true));
        // After 0.25 s, 250 kB drained.
        let b = q.backlog(SimTime::from_millis(250));
        assert!((b - 250_000.0).abs() < 1.0, "backlog {b}");
        // After another second it is empty.
        assert_eq!(q.backlog(SimTime::from_millis(1500)), 0.0);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut q = BottleneckQueue::new(8e6, 1000);
        assert!(q.offer(SimTime::ZERO, 800, true));
        assert!(!q.offer(SimTime::ZERO, 300, true), "would exceed capacity");
        assert!(q.offer(SimTime::ZERO, 200, true), "exactly fits");
        let s = q.stats();
        assert_eq!(s.probe_offered, 3);
        assert_eq!(s.probe_dropped, 1);
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn an_offer_before_the_last_one_panics() {
        let mut q = BottleneckQueue::new(8e6, 1000);
        q.offer(SimTime::from_millis(2), 100, false);
        q.offer(SimTime::from_millis(1), 100, true);
    }

    #[test]
    fn larger_packets_see_higher_drop_rates() {
        // The Figure 2 mechanism: with the queue hovering near full, a larger
        // packet is more likely not to fit.
        let drop_rate_for = |pkt: u64| {
            let mut q = BottleneckQueue::new(8e9, 64 * 1024); // 1 GB/s, 64 KiB buf
            let mut rng = SmallRng::seed_from_u64(5);
            let mut t = SimTime::ZERO;
            // Cross traffic keeps the queue ~80% full on average.
            for _ in 0..200_000 {
                t += SimTime::from_nanos(rng.random_range(400..1200));
                q.offer(t, 1500, false);
                if rng.random::<f64>() < 0.1 {
                    q.offer(t, pkt, true);
                }
            }
            q.stats().probe_drop_rate()
        };
        let small = drop_rate_for(1024);
        let large = drop_rate_for(8192);
        assert!(
            large > small,
            "large packets must drop more: {large} vs {small}"
        );
    }
}
