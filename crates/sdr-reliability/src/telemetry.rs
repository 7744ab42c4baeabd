//! Online channel telemetry: the live loss-rate and RTT estimates the
//! adaptive controller re-runs the advisor against.
//!
//! The paper's advisor (§5.2) picks a scheme from *assumed* channel
//! parameters before the transfer; Figure 2 shows the real WAN drop rate
//! drifting three orders of magnitude over hours. This module closes the
//! loop: a [`ChannelEstimator`] is fed
//!
//! * **loss observations** from the receiver's bitmap polls — per poll, the
//!   [`RxDriver`](crate::runtime::RxDriver) scans each receive slot's
//!   packet bitmap *first-pass*: packets between the previous and current
//!   high-water mark either arrived or are holes, and a hole at first
//!   observation was a wire drop (retransmissions fill it later, but the
//!   range is never re-scanned, so each drop is counted exactly once);
//! * **RTT samples** from ACK round-trips on the control plane — the SR
//!   sender samples `now − last_sent` for chunks acked on their first
//!   transmission (Karn's rule: retransmitted chunks are ambiguous and
//!   never sampled), and the adaptive controller samples its
//!   `SwitchPropose → SwitchAck` handshakes.
//!
//! Both streams feed exponentially weighted moving averages. **Confidence
//! gating** keeps cold estimates from flapping the controller: until
//! [`min_packets`](TelemetryConfig::min_packets) first-pass packets have
//! been observed, [`loss_estimate`](ChannelEstimator::loss_estimate)
//! returns `None` and the controller must not switch. The receiver ships
//! its counters to the sender as cumulative [`CtrlMsg::Telemetry`] reports,
//! so control-datagram loss only delays the estimate.
//!
//! [`CtrlMsg::Telemetry`]: crate::ack::CtrlMsg::Telemetry

use sdr_core::AtomicBitmap;
use sdr_sim::SimTime;

/// EWMA weight per RTT sample.
const RTT_ALPHA: f64 = 0.25;

/// RTT samples required before [`ChannelEstimator::rtt_estimate`] reports.
const MIN_RTT_SAMPLES: u64 = 2;

/// Upward-step freshness threshold: while the fast loss EWMA exceeds the
/// slow reference EWMA (`loss_alpha / 32`) by this factor, the channel is
/// mid-step and the fast estimate is still climbing — i.e. very likely an
/// *under*-estimate of where the loss rate will settle.
/// [`ChannelEstimator::loss_step_fresh`] reports this window; the adaptive
/// controller's conservative first-split rule keys off it.
const STEP_RATIO: f64 = 4.0;

/// Tuning for the [`ChannelEstimator`].
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Per-packet EWMA weight for the loss estimate: one observed packet
    /// moves the estimate by this fraction toward the observation. Small
    /// values smooth over bursts; the default (2⁻¹²) converges within a
    /// few thousand packets — a fraction of one 64 KiB-chunk segment.
    pub loss_alpha: f64,
    /// First-pass packets required before [`loss_estimate`] reports at all
    /// (the cold-start confidence gate).
    ///
    /// [`loss_estimate`]: ChannelEstimator::loss_estimate
    pub min_packets: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            loss_alpha: 1.0 / 4096.0,
            min_packets: 2048,
        }
    }
}

/// A snapshot of the estimator's cumulative counters (what the receiver
/// ships to the sender in [`CtrlMsg::Telemetry`]).
///
/// [`CtrlMsg::Telemetry`]: crate::ack::CtrlMsg::Telemetry
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// First-pass packets observed (arrived or counted lost).
    pub seen: u64,
    /// Packets counted lost on their first pass.
    pub lost: u64,
}

impl TelemetryCounters {
    /// Advances these cumulative counters to a newer `report` and returns
    /// the `(seen, lost)` delta — one observation block. `None` for a
    /// stale or duplicate report (cumulative counters not advancing), so
    /// datagram loss and reordering on the control path are harmless.
    pub fn advance(&mut self, report: TelemetryCounters) -> Option<(u64, u64)> {
        if report.seen <= self.seen {
            return None;
        }
        let seen = report.seen - self.seen;
        let lost = report.lost.saturating_sub(self.lost).min(seen);
        *self = report;
        Some((seen, lost))
    }
}

/// EWMA channel estimator with confidence tracking. One instance lives on
/// the receiver (fed by bitmap polls), one on the sender (fed by
/// [`TelemetryCounters`] deltas and ACK round-trip RTT samples).
#[derive(Debug)]
pub struct ChannelEstimator {
    cfg: TelemetryConfig,
    seen: u64,
    lost: u64,
    loss_ewma: f64,
    /// Slow reference EWMA (`loss_alpha / 32`): lags the fast estimate
    /// through a step, making `fast / slow` a step-in-progress detector.
    loss_slow_ewma: f64,
    ewma_primed: bool,
    /// Confidence granted by [`seed`](Self::seed) (a carried-over prior
    /// from a previous life) rather than earned from observations.
    seed_confident: bool,
    rtt_ewma: f64,
    rtt_samples: u64,
    /// Last cumulative counters absorbed from the peer (sender side).
    peer: TelemetryCounters,
    /// Last instant the channel showed life ([`note_progress`]): a packet
    /// observation, an advancing peer report, or any explicit progress
    /// note. `None` until the first note.
    ///
    /// [`note_progress`]: ChannelEstimator::note_progress
    last_progress: Option<SimTime>,
}

impl ChannelEstimator {
    /// A cold estimator.
    pub fn new(cfg: TelemetryConfig) -> Self {
        ChannelEstimator {
            cfg,
            seen: 0,
            lost: 0,
            loss_ewma: 0.0,
            loss_slow_ewma: 0.0,
            ewma_primed: false,
            seed_confident: false,
            rtt_ewma: 0.0,
            rtt_samples: 0,
            peer: TelemetryCounters::default(),
            last_progress: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Feeds one first-pass observation block: `seen` packets crossed the
    /// high-water mark, `lost` of them were holes. The EWMA advances by
    /// the per-packet weight compounded over the block.
    pub fn observe_packets(&mut self, seen: u64, lost: u64) {
        debug_assert!(lost <= seen);
        if seen == 0 {
            return;
        }
        self.seen += seen;
        self.lost += lost;
        let sample = lost as f64 / seen as f64;
        if !self.ewma_primed {
            self.loss_ewma = sample;
            self.loss_slow_ewma = sample;
            self.ewma_primed = true;
            return;
        }
        // Weight of a block of n packets: 1 − (1 − α)ⁿ.
        let w = -f64::exp_m1(seen as f64 * f64::ln_1p(-self.cfg.loss_alpha));
        self.loss_ewma += w * (sample - self.loss_ewma);
        let ws = -f64::exp_m1(seen as f64 * f64::ln_1p(-self.cfg.loss_alpha / 32.0));
        self.loss_slow_ewma += ws * (sample - self.loss_slow_ewma);
    }

    /// Absorbs the peer's cumulative counters (a [`CtrlMsg::Telemetry`]
    /// report): the delta since the last absorbed report is fed as one
    /// observation block (see [`TelemetryCounters::advance`]).
    ///
    /// [`CtrlMsg::Telemetry`]: crate::ack::CtrlMsg::Telemetry
    pub fn absorb_report(&mut self, counters: TelemetryCounters) {
        if let Some((seen, lost)) = self.peer.advance(counters) {
            self.observe_packets(seen, lost);
        }
    }

    /// Feeds one RTT sample from a control-plane round trip.
    pub fn observe_rtt(&mut self, sample: SimTime) {
        let s = sample.as_secs_f64();
        if self.rtt_samples == 0 {
            self.rtt_ewma = s;
        } else {
            self.rtt_ewma += RTT_ALPHA * (s - self.rtt_ewma);
        }
        self.rtt_samples += 1;
    }

    /// Warm-starts the estimator from a previous life's estimates — the
    /// resume path's seed. A seeded loss prior primes both EWMAs and
    /// grants confidence immediately (the resumed controller may advise
    /// from the first tick instead of re-earning `min_packets` cold); a
    /// seeded RTT satisfies the sample floor. The cumulative first-pass
    /// counters are untouched, so a receiver-side estimator's telemetry
    /// reports stay truthful — though seeding is meant for the *sender*
    /// estimator, whose state died with the aborted transfer. Blackout
    /// entry ([`decay_confidence`](Self::decay_confidence)) revokes seeded
    /// confidence like earned confidence: a pre-outage prior says nothing
    /// about the channel that comes back.
    pub fn seed(&mut self, loss: Option<f64>, rtt: Option<SimTime>) {
        if let Some(p) = loss {
            self.loss_ewma = p;
            self.loss_slow_ewma = p;
            self.ewma_primed = true;
            self.seed_confident = true;
        }
        if let Some(r) = rtt {
            self.rtt_ewma = r.as_secs_f64();
            self.rtt_samples = self.rtt_samples.max(MIN_RTT_SAMPLES);
        }
    }

    /// The per-packet loss estimate, once confident (`None` while cold —
    /// the gate that keeps a controller from flapping on startup noise).
    pub fn loss_estimate(&self) -> Option<f64> {
        self.is_confident().then_some(self.loss_ewma)
    }

    /// The RTT estimate, once `MIN_RTT_SAMPLES` samples arrived.
    pub fn rtt_estimate(&self) -> Option<SimTime> {
        (self.rtt_samples >= MIN_RTT_SAMPLES).then(|| SimTime::from_secs_f64(self.rtt_ewma))
    }

    /// True once the loss estimate is confident (earned from observations
    /// or granted by a [`seed`](Self::seed)).
    pub fn is_confident(&self) -> bool {
        self.seed_confident || self.seen >= self.cfg.min_packets
    }

    /// True while a *fresh upward loss step* is still propagating through
    /// the estimator: the estimate is confident, but the fast EWMA exceeds
    /// the slow reference by `STEP_RATIO` — the estimate is still climbing
    /// toward where the channel actually settled, so any decision made on
    /// its current value should round *pessimistic*. Once both EWMAs
    /// converge the window closes.
    pub fn loss_step_fresh(&self) -> bool {
        self.is_confident()
            && self.ewma_primed
            && self.loss_ewma > self.loss_slow_ewma.max(1e-12) * STEP_RATIO
    }

    /// Records channel life at `now` — the blackout detector's heartbeat.
    /// The adaptive endpoints note progress whenever a peer datagram
    /// arrives (any datagram proves the path is up); call it once at
    /// transfer start so [`blackout`](Self::blackout) measures from a
    /// defined instant.
    pub fn note_progress(&mut self, now: SimTime) {
        self.last_progress = Some(now);
    }

    /// True when no progress has been noted for at least `threshold` —
    /// silence ≫ RTO means the channel is dark, not merely lossy: every
    /// retransmission and its ACK died for that long. `false` until the
    /// first progress note (a transfer that never started is not a
    /// blackout).
    pub fn blackout(&self, now: SimTime, threshold: SimTime) -> bool {
        self.last_progress
            .is_some_and(|t| now.saturating_sub(t) >= threshold)
    }

    /// Forgets the loss estimate (counters, EWMAs, priming) so the
    /// estimator returns to the cold, unconfident state and must re-earn
    /// [`min_packets`](TelemetryConfig::min_packets) fresh observations —
    /// what the adaptive controller calls on blackout entry, because a
    /// pre-outage estimate says nothing about the channel that comes back.
    /// The peer-report dedup watermark and the RTT estimate survive:
    /// replayed cumulative reports must still be ignored, and propagation
    /// delay does not change with an outage.
    pub fn decay_confidence(&mut self) {
        self.seen = 0;
        self.lost = 0;
        self.loss_ewma = 0.0;
        self.loss_slow_ewma = 0.0;
        self.ewma_primed = false;
        self.seed_confident = false;
    }

    /// Cumulative first-pass counters (what the receiver reports).
    pub fn counters(&self) -> TelemetryCounters {
        TelemetryCounters {
            seen: self.seen,
            lost: self.lost,
        }
    }

    /// First-pass packets observed so far.
    pub fn packets_seen(&self) -> u64 {
        self.seen
    }
}

/// Per-slot cursor for first-pass gap scans of one receive bitmap: tracks
/// the high-water mark already scanned so every packet below it is counted
/// exactly once — as arrived or as a first-pass hole — no matter how often
/// the driver polls or how late retransmissions fill the holes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstPassCursor {
    scanned: usize,
}

impl FirstPassCursor {
    /// Scans the bitmap's new range `[scanned, high_water]` and returns
    /// `(seen, lost)` for it, advancing the cursor. Word-level bitmap
    /// reads; O(words) per poll. The two prefix counts are separate
    /// atomic scans, so a concurrent retransmission filling a bit below
    /// the cursor between them could make the difference exceed the
    /// range — clamp instead of underflowing (the sample is one packet
    /// off at worst).
    pub fn scan(&mut self, packets: &AtomicBitmap) -> (u64, u64) {
        let Some(hw) = packets.highest_set() else {
            return (0, 0);
        };
        let hw = hw + 1; // exclusive
        if hw <= self.scanned {
            return (0, 0);
        }
        let range = hw - self.scanned;
        let set = packets
            .count_set_in_first_n(hw)
            .saturating_sub(packets.count_set_in_first_n(self.scanned))
            .min(range);
        self.scanned = hw;
        (range as u64, (range - set) as u64)
    }
}

/// A long-lived per-peer [`ChannelEstimator`] registry. One estimator per
/// peer **outlives the transfers that feed it**, so a short flow opened
/// against a peer the node has talked to before starts under the right
/// scheme immediately instead of re-learning the channel from cold — the
/// flow-manager half of the adaptive loop, where individual flows are too
/// short to earn confidence on their own but the *aggregate* per-peer
/// traffic is plenty.
///
/// Entries age out: a peer untouched for longer than `max_age` is dropped
/// on the next sweep (or replaced on the next checkout), because a
/// days-old loss estimate from Figure 2's drifting WAN is worse than
/// admitting ignorance. Live flows keep their checked-out handle
/// ([`Rc`]) regardless — eviction only forgets the *registry's* pointer.
pub struct EstimatorRegistry {
    cfg: TelemetryConfig,
    max_age: SimTime,
    entries: std::collections::HashMap<sdr_sim::NodeId, RegistryEntry>,
}

struct RegistryEntry {
    est: std::rc::Rc<std::cell::RefCell<ChannelEstimator>>,
    last_touch: SimTime,
}

impl EstimatorRegistry {
    /// An empty registry whose entries go stale `max_age` after their last
    /// checkout.
    pub fn new(cfg: TelemetryConfig, max_age: SimTime) -> Self {
        EstimatorRegistry {
            cfg,
            max_age,
            entries: std::collections::HashMap::new(),
        }
    }

    /// The estimator for `peer`, creating a cold one (or replacing a stale
    /// one) as needed, and touching the entry's age.
    pub fn checkout(
        &mut self,
        peer: sdr_sim::NodeId,
        now: SimTime,
    ) -> std::rc::Rc<std::cell::RefCell<ChannelEstimator>> {
        let cfg = self.cfg;
        let max_age = self.max_age;
        let e = self
            .entries
            .entry(peer)
            .and_modify(|e| {
                if now.saturating_sub(e.last_touch) > max_age {
                    e.est = std::rc::Rc::new(std::cell::RefCell::new(ChannelEstimator::new(cfg)));
                }
                e.last_touch = now;
            })
            .or_insert_with(|| RegistryEntry {
                est: std::rc::Rc::new(std::cell::RefCell::new(ChannelEstimator::new(cfg))),
                last_touch: now,
            });
        e.est.clone()
    }

    /// Confident `(loss, rtt)` estimates for `peer`, or `None` when the
    /// entry is missing, stale, or still cold. Read-only: does not touch
    /// the entry's age or create one.
    pub fn estimate(&self, peer: sdr_sim::NodeId, now: SimTime) -> Option<(f64, SimTime)> {
        let e = self.entries.get(&peer)?;
        if now.saturating_sub(e.last_touch) > self.max_age {
            return None;
        }
        let est = e.est.borrow();
        Some((est.loss_estimate()?, est.rtt_estimate()?))
    }

    /// Drops every entry untouched for longer than `max_age`; returns how
    /// many were evicted.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let max_age = self.max_age;
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now.saturating_sub(e.last_touch) <= max_age);
        before - self.entries.len()
    }

    /// Peers currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no peer is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_pass_cursor_counts_each_hole_exactly_once() {
        let bm = AtomicBitmap::new(128);
        let mut c = FirstPassCursor::default();
        assert_eq!(c.scan(&bm), (0, 0), "empty bitmap: nothing seen");
        // Packets 0..10 arrive except 3 and 7.
        for i in 0..10 {
            if i != 3 && i != 7 {
                bm.set(i);
            }
        }
        assert_eq!(c.scan(&bm), (10, 2));
        assert_eq!(c.scan(&bm), (0, 0), "no high-water advance, no counts");
        // The holes are retransmitted and filled; 10..20 arrive intact.
        bm.set(3);
        bm.set(7);
        for i in 10..20 {
            bm.set(i);
        }
        assert_eq!(c.scan(&bm), (10, 0), "filled holes are not re-counted");
        // A burst drop: 20..84 with only the last arriving.
        bm.set(83);
        assert_eq!(c.scan(&bm), (64, 63));
    }

    #[test]
    fn estimator_confidence_gates_cold_start() {
        let cfg = TelemetryConfig {
            min_packets: 100,
            ..TelemetryConfig::default()
        };
        let mut e = ChannelEstimator::new(cfg);
        e.observe_packets(99, 10);
        assert_eq!(e.loss_estimate(), None, "cold estimator reports nothing");
        assert!(!e.is_confident());
        e.observe_packets(1, 0);
        assert!(e.is_confident());
        let est = e.loss_estimate().expect("warm");
        assert!(est > 0.05 && est < 0.15, "estimate {est}");
    }

    #[test]
    fn seeded_estimator_is_confident_until_blackout_revokes_it() {
        let cfg = TelemetryConfig {
            min_packets: 100,
            ..TelemetryConfig::default()
        };
        let mut e = ChannelEstimator::new(cfg);
        assert_eq!(e.loss_estimate(), None);
        assert_eq!(e.rtt_estimate(), None);
        e.seed(Some(1e-3), Some(SimTime::from_micros(500)));
        assert!(e.is_confident(), "seed grants immediate confidence");
        let est = e.loss_estimate().expect("seeded");
        assert!((est - 1e-3).abs() < 1e-9, "estimate {est}");
        let rtt = e.rtt_estimate().expect("seeded rtt");
        assert_eq!(rtt, SimTime::from_micros(500));
        // The seed primes the EWMAs: fresh observations refine, not reset.
        e.observe_packets(1000, 1);
        assert!(e.loss_estimate().is_some());
        // Blackout entry revokes seeded confidence like earned confidence.
        e.decay_confidence();
        assert_eq!(e.loss_estimate(), None, "prior says nothing post-outage");
        assert!(e.rtt_estimate().is_some(), "RTT survives decay");
    }

    #[test]
    fn estimator_converges_to_step_loss() {
        let mut e = ChannelEstimator::new(TelemetryConfig::default());
        // Clean phase: 100k packets, no loss.
        for _ in 0..100 {
            e.observe_packets(1000, 0);
        }
        assert!(e.loss_estimate().expect("warm") < 1e-6);
        // Step to 1e-2: within ~20k packets the EWMA crosses half the step.
        for _ in 0..20 {
            e.observe_packets(1000, 10);
        }
        let est = e.loss_estimate().expect("warm");
        assert!(est > 2e-3, "estimate {est} should have moved");
        // And converges close to 1e-2 with enough samples.
        for _ in 0..300 {
            e.observe_packets(1000, 10);
        }
        let est = e.loss_estimate().expect("warm");
        assert!((est - 1e-2).abs() < 2e-3, "estimate {est}");
    }

    #[test]
    fn cumulative_reports_tolerate_loss_and_reordering() {
        let mut rx = ChannelEstimator::new(TelemetryConfig::default());
        let mut tx = ChannelEstimator::new(TelemetryConfig::default());
        rx.observe_packets(1000, 10);
        let first = rx.counters();
        rx.observe_packets(1000, 30);
        let second = rx.counters();
        // The first report is lost; the second alone covers everything.
        tx.absorb_report(second);
        assert_eq!(
            tx.counters(),
            TelemetryCounters {
                seen: 2000,
                lost: 40
            }
        );
        // The stale first report arrives late: ignored.
        tx.absorb_report(first);
        assert_eq!(tx.packets_seen(), 2000);
        // A duplicate of the newest: ignored too.
        tx.absorb_report(second);
        assert_eq!(tx.packets_seen(), 2000);
    }

    #[test]
    fn loss_step_freshness_window_opens_and_closes() {
        let cfg = TelemetryConfig {
            loss_alpha: 1.0 / 1024.0,
            min_packets: 512,
        };
        let mut e = ChannelEstimator::new(cfg);
        // A long clean-but-slightly-lossy steady phase: both EWMAs settle
        // at the same level — no step freshness.
        for _ in 0..200 {
            e.observe_packets(256, 0);
        }
        e.observe_packets(256, 1);
        for _ in 0..200 {
            e.observe_packets(256, 0);
        }
        assert!(e.is_confident());
        assert!(!e.loss_step_fresh(), "steady channel is not a step");
        // The loss steps up three orders of magnitude: the fast EWMA runs
        // ahead of the slow reference — the freshness window opens while
        // the estimate is still climbing.
        for _ in 0..12 {
            e.observe_packets(256, 3); // ~1.2e-2
        }
        assert!(
            e.loss_step_fresh(),
            "fast EWMA {:.2e} should be running ahead",
            e.loss_estimate().unwrap()
        );
        // After enough post-step traffic the slow EWMA catches up and the
        // window closes again.
        for _ in 0..2000 {
            e.observe_packets(256, 3);
        }
        assert!(e.is_confident());
        assert!(
            !e.loss_step_fresh(),
            "converged estimate is no longer fresh"
        );
    }

    #[test]
    fn blackout_detection_and_confidence_decay() {
        let cfg = TelemetryConfig {
            min_packets: 100,
            ..TelemetryConfig::default()
        };
        let mut e = ChannelEstimator::new(cfg);
        let thresh = SimTime::from_secs_f64(0.080);
        // A transfer that never started is not a blackout.
        assert!(!e.blackout(SimTime::from_secs_f64(10.0), thresh));
        e.note_progress(SimTime::from_secs_f64(1.0));
        assert!(!e.blackout(SimTime::from_secs_f64(1.079), thresh));
        assert!(e.blackout(SimTime::from_secs_f64(1.080), thresh));
        // Fresh progress closes the window again.
        e.note_progress(SimTime::from_secs_f64(1.5));
        assert!(!e.blackout(SimTime::from_secs_f64(1.579), thresh));

        // Warm the estimator, absorb a peer report, learn an RTT.
        e.observe_rtt(SimTime::from_secs_f64(0.010));
        e.observe_rtt(SimTime::from_secs_f64(0.010));
        e.observe_packets(150, 15);
        e.absorb_report(TelemetryCounters {
            seen: 500,
            lost: 50,
        });
        assert!(e.is_confident());
        // Decay: the loss estimate is forgotten and must be re-earned...
        e.decay_confidence();
        assert!(!e.is_confident());
        assert_eq!(e.loss_estimate(), None);
        // ...but the peer dedup watermark survives (a replayed cumulative
        // report is still ignored)...
        e.absorb_report(TelemetryCounters {
            seen: 500,
            lost: 50,
        });
        assert_eq!(e.packets_seen(), 0, "replayed report stays deduped");
        // ...and the RTT estimate survives too.
        assert!(e.rtt_estimate().is_some());
        // Re-earning confidence works from scratch.
        e.observe_packets(100, 1);
        assert!(e.is_confident());
    }

    #[test]
    fn rtt_ewma_tracks_samples() {
        let mut e = ChannelEstimator::new(TelemetryConfig::default());
        assert_eq!(e.rtt_estimate(), None);
        e.observe_rtt(SimTime::from_secs_f64(0.010));
        assert_eq!(e.rtt_estimate(), None, "one sample is not confident");
        e.observe_rtt(SimTime::from_secs_f64(0.012));
        let rtt = e.rtt_estimate().expect("two samples").as_secs_f64();
        assert!(rtt > 0.0099 && rtt < 0.0121, "rtt {rtt}");
        for _ in 0..50 {
            e.observe_rtt(SimTime::from_secs_f64(0.020));
        }
        let rtt = e.rtt_estimate().expect("many samples").as_secs_f64();
        assert!((rtt - 0.020).abs() < 1e-4, "rtt {rtt} converges");
    }

    #[test]
    fn registry_ages_out_stale_entries() {
        let mut reg = EstimatorRegistry::new(TelemetryConfig::default(), SimTime::from_secs(10));
        let a = sdr_sim::NodeId(0);
        let b = sdr_sim::NodeId(1);

        // Warm up peer A with enough traffic to be confident.
        let est = reg.checkout(a, SimTime::from_secs(1));
        est.borrow_mut().observe_packets(4096, 41);
        est.borrow_mut().observe_rtt(SimTime::from_millis(10));
        est.borrow_mut().observe_rtt(SimTime::from_millis(10));
        assert!(reg.estimate(a, SimTime::from_secs(2)).is_some());

        // Peer B is cold: tracked, but no confident estimate yet.
        let _ = reg.checkout(b, SimTime::from_secs(2));
        assert_eq!(reg.len(), 2);
        assert!(reg.estimate(b, SimTime::from_secs(2)).is_none());

        // Within max_age the warm estimate survives a sweep.
        assert_eq!(reg.sweep(SimTime::from_secs(9)), 0);
        assert!(reg.estimate(a, SimTime::from_secs(9)).is_some());

        // Past max_age the stale entry stops reporting and sweeps away.
        assert!(
            reg.estimate(a, SimTime::from_secs(30)).is_none(),
            "stale entry must not serve a days-old estimate"
        );
        assert_eq!(reg.sweep(SimTime::from_secs(30)), 2);
        assert!(reg.is_empty());
    }

    #[test]
    fn registry_checkout_replaces_stale_entry_with_cold_one() {
        let mut reg = EstimatorRegistry::new(TelemetryConfig::default(), SimTime::from_secs(10));
        let a = sdr_sim::NodeId(7);
        let est = reg.checkout(a, SimTime::from_secs(1));
        est.borrow_mut().observe_packets(4096, 400);
        est.borrow_mut().observe_rtt(SimTime::from_millis(5));
        est.borrow_mut().observe_rtt(SimTime::from_millis(5));
        assert!(est.borrow().loss_estimate().is_some());

        // Checking the peer out again long past max_age yields a *fresh*
        // estimator, not the stale one — but the old handle stays valid
        // for whatever flow still holds it.
        let est2 = reg.checkout(a, SimTime::from_secs(100));
        assert!(!std::rc::Rc::ptr_eq(&est, &est2), "stale entry replaced");
        assert!(
            est2.borrow().loss_estimate().is_none(),
            "replacement is cold"
        );
        assert!(
            est.borrow().loss_estimate().is_some(),
            "old handle unaffected"
        );

        // A fresh checkout within max_age returns the same entry.
        let est3 = reg.checkout(a, SimTime::from_secs(101));
        assert!(std::rc::Rc::ptr_eq(&est2, &est3), "fresh entry is shared");
    }

    #[test]
    fn registry_warm_entry_seeds_scheme_choice() {
        // The flow-manager decision path in miniature: a warm registry
        // entry reports (loss, rtt) that an opener can feed straight into
        // scheme selection; a cold or stale one forces the conservative
        // default.
        let mut reg = EstimatorRegistry::new(TelemetryConfig::default(), SimTime::from_secs(60));
        let peer = sdr_sim::NodeId(3);
        assert!(reg.estimate(peer, SimTime::ZERO).is_none(), "cold: no seed");

        let est = reg.checkout(peer, SimTime::from_secs(1));
        {
            let mut e = est.borrow_mut();
            e.observe_packets(8192, 82); // ~1% loss
            e.observe_rtt(SimTime::from_millis(20));
            e.observe_rtt(SimTime::from_millis(20));
        }
        let (loss, rtt) = reg
            .estimate(peer, SimTime::from_secs(2))
            .expect("warm entry seeds the next flow");
        assert!(loss > 0.004 && loss < 0.02, "loss {loss}");
        assert!((rtt.as_secs_f64() - 0.020).abs() < 1e-3, "rtt {rtt:?}");
    }
}
