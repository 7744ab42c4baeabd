//! Scripted fault injection for links.
//!
//! A [`FaultPlan`] is a timed script of channel events — loss steps,
//! Gilbert–Elliott parameter shifts, diurnal drift, hard blackout windows,
//! and up/down flaps — applied to one link (or a duplex pair) through
//! [`Fabric::apply_fault_plan`](crate::Fabric::apply_fault_plan). Every
//! event rides a cancellable engine timer, so a plan can be torn down
//! mid-script via the returned [`FaultHandle`].
//!
//! Because the fabric draws packet fates at *delivery* time (see
//! [`Link::pop_due`](crate::Link::pop_due)), every event in a plan affects
//! packets already in flight when it fires: a blackout beginning at `t`
//! claims the whole in-flight window, not just packets posted after `t`.

use crate::loss::LossModel;
use crate::time::SimTime;

/// One timed channel event in a [`FaultPlan`].
#[derive(Clone, Debug)]
pub enum FaultEvent {
    /// At `at`, replace the link's loss model ([`Link::set_loss`]
    /// semantics: the process restarts in the good state). Use with a
    /// [`LossModel::GilbertElliott`] model to script a burst-parameter
    /// shift, or [`LossModel::Iid`] for a plain loss step.
    ///
    /// [`Link::set_loss`]: crate::Link::set_loss
    SetLoss {
        /// Absolute instant the new model takes effect.
        at: SimTime,
        /// The replacement model.
        model: LossModel,
    },
    /// Hard outage: the link is down for `[at, at + duration)`. Every
    /// packet reaching its delivery instant inside the window — including
    /// packets in flight when it opens — is dropped. The underlying loss
    /// process is untouched (its RNG stream is not consumed), so the
    /// post-heal drop pattern is exactly what it would have been.
    Blackout {
        /// Outage start.
        at: SimTime,
        /// Outage length (the link heals at `at + duration`).
        duration: SimTime,
    },
    /// Repeated down/up cycles starting at `at`: down for `down`, up for
    /// `up`, `cycles` times. The link is left up after the last cycle.
    Flap {
        /// First down transition.
        at: SimTime,
        /// Down/up cycles to run.
        cycles: u32,
        /// Outage length per cycle.
        down: SimTime,
        /// Healed length per cycle.
        up: SimTime,
    },
    /// Endpoint crash/restart: at `at`, the chosen endpoint of the pair
    /// crashes — its incarnation is bumped, every packet in flight toward
    /// it and all volatile NIC state at it (posted recvs,
    /// unpolled completions, in-progress receive reassembly) is dropped —
    /// and the NIC re-attaches after `dead_time`. Packets arriving during
    /// the dead window are dropped at the NIC port. Registered memory
    /// survives (delivered bytes persist, as does anything the layer
    /// above checkpointed).
    PeerRestart {
        /// Crash instant.
        at: SimTime,
        /// Which endpoint of the `(a, b)` pair restarts.
        side: RestartSide,
        /// How long the endpoint stays dead before re-attaching (> 0).
        dead_time: SimTime,
    },
    /// Diurnal loss drift: starting at `at`, the i.i.d. drop rate sweeps
    /// geometrically from `floor_p` up to `peak_p` and back over each
    /// `period`, stepped `steps` times per period, for `cycles` periods
    /// (then rests at `floor_p`). Models the paper's Figure 2: drop rates
    /// swinging orders of magnitude with ISP congestion over the day.
    Drift {
        /// Sweep start.
        at: SimTime,
        /// Length of one full floor → peak → floor sweep.
        period: SimTime,
        /// Loss-model updates per period (≥ 2).
        steps: u32,
        /// Off-peak drop probability (must be > 0 so the geometric sweep
        /// is well-defined).
        floor_p: f64,
        /// Peak drop probability (≥ `floor_p`).
        peak_p: f64,
        /// Periods to run before resting at `floor_p` (≥ 1; plans are
        /// finite so a drained engine means a finished plan).
        cycles: u32,
    },
}

/// Which endpoint of the link pair a [`FaultEvent::PeerRestart`] hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartSide {
    /// The first node of the `(a, b)` pair handed to
    /// [`Fabric::apply_fault_plan`](crate::Fabric::apply_fault_plan).
    A,
    /// The second node of the pair.
    B,
}

impl FaultEvent {
    /// The instant the event first fires.
    pub fn start(&self) -> SimTime {
        match *self {
            FaultEvent::SetLoss { at, .. }
            | FaultEvent::Blackout { at, .. }
            | FaultEvent::Flap { at, .. }
            | FaultEvent::PeerRestart { at, .. }
            | FaultEvent::Drift { at, .. } => at,
        }
    }

    /// Validates the event's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            FaultEvent::SetLoss { model, .. } => model.validate(),
            FaultEvent::Blackout { duration, .. } => {
                if *duration == SimTime::ZERO {
                    Err("blackout duration must be positive".into())
                } else {
                    Ok(())
                }
            }
            FaultEvent::PeerRestart { dead_time, .. } => {
                if *dead_time == SimTime::ZERO {
                    Err("restart dead time must be positive".into())
                } else {
                    Ok(())
                }
            }
            FaultEvent::Flap {
                cycles, down, up, ..
            } => {
                if *cycles == 0 {
                    Err("flap needs at least one cycle".into())
                } else if *down == SimTime::ZERO || *up == SimTime::ZERO {
                    Err("flap dwell times must be positive".into())
                } else {
                    Ok(())
                }
            }
            FaultEvent::Drift {
                period,
                steps,
                floor_p,
                peak_p,
                cycles,
                ..
            } => {
                if *period == SimTime::ZERO {
                    Err("drift period must be positive".into())
                } else if *steps < 2 {
                    Err("drift needs at least two steps per period".into())
                } else if *cycles == 0 {
                    Err("drift needs at least one cycle".into())
                } else if !(*floor_p > 0.0 && *floor_p <= 1.0) {
                    Err(format!("drift floor_p = {floor_p} must be in (0, 1]"))
                } else if !(*peak_p >= *floor_p && *peak_p <= 1.0) {
                    Err(format!("drift peak_p = {peak_p} must be in [floor_p, 1]"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// A scripted schedule of channel faults for one link (or duplex pair).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The timed events; order is irrelevant (each schedules its own
    /// timers).
    pub events: Vec<FaultEvent>,
    /// Apply each event to both directions of the pair.
    pub duplex: bool,
}

impl FaultPlan {
    /// An empty single-direction plan (builder style).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// An empty duplex plan (builder style).
    pub fn new_duplex() -> Self {
        FaultPlan {
            events: Vec::new(),
            duplex: true,
        }
    }

    /// Appends an event (builder style).
    pub fn with(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Validates every event in the plan.
    pub fn validate(&self) -> Result<(), String> {
        for ev in &self.events {
            ev.validate()?;
        }
        Ok(())
    }
}

/// The armed timers of an applied [`FaultPlan`] — one per event. Dropping
/// the handle leaves the plan running; [`cancel`](Self::cancel) stops
/// every event that has not fully played out.
#[derive(Debug, Default)]
pub struct FaultHandle {
    pub(crate) timers: Vec<crate::equeue::TimerHandle>,
}

impl FaultHandle {
    /// Cancels every still-scheduled event timer of the plan. Cancelling
    /// mid-window leaves the link in whatever state the last fired event
    /// put it (a blackout whose heal timer is cancelled stays down).
    pub fn cancel(&self, eng: &mut crate::engine::Engine) {
        for &h in &self.timers {
            eng.cancel(h);
        }
    }

    /// Number of event timers the plan armed.
    pub fn timer_count(&self) -> usize {
        self.timers.len()
    }
}
