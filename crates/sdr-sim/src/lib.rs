//! # sdr-sim — discrete-event network substrate for SDR-RDMA
//!
//! This crate replaces the hardware the paper runs on (ConnectX/BlueField
//! NICs and long-haul optical links) with a deterministic discrete-event
//! simulator. It models exactly the observables the SDR stack and its
//! reliability layers interact with:
//!
//! * [`Engine`] — a deterministic event executor with picosecond time.
//!   The queue is a **hierarchical timing wheel** (11 levels of
//!   64 one-picosecond-granularity slots spanning the whole `u64` range;
//!   the top level is the far-future overflow level) over a slab of
//!   free-listed event nodes: steady-state scheduling allocates nothing,
//!   recurring events ([`Engine::schedule_recurring_at`]) re-arm their
//!   node in place, and [`TimerHandle`]s make timers cancellable and
//!   re-armable ([`Engine::cancel`] / [`Engine::reschedule`]) so stale
//!   timers neither fire as no-ops nor count as pending. Execution order
//!   is exactly `(time, schedule order)`, though a packet's two events —
//!   the drain pump's re-arm and the CQ's zero-delay kick — ride two lanes
//!   beside the wheel (see [`equeue`] for the architecture and the
//!   determinism argument; `tests/queue_differential.rs` holds it to an
//!   independent sorted-map model).
//! * [`Link`]/[`LinkConfig`] — serialization at line rate, propagation
//!   delay from distance (paper convention: 3750 km ⇒ 25 ms RTT), i.i.d.
//!   or Gilbert–Elliott loss, and optional reorder jitter. Deliveries are
//!   **coalesced**: each link keeps an arrival-ordered `VecDeque` of
//!   in-flight packets and the fabric drives it with a single re-armed
//!   drain event per busy period, instead of one boxed closure per packet.
//!   Packet fates are drawn **at delivery time** inside that pump, so
//!   mid-simulation channel changes claim packets already in flight.
//! * [`FaultPlan`]/[`FaultEvent`] — scripted fault injection on links:
//!   timed loss steps, Gilbert–Elliott parameter shifts, diurnal drift,
//!   hard blackout windows and up/down flaps, each riding one cancellable
//!   engine timer ([`Fabric::apply_fault_plan`]).
//! * [`BottleneckQueue`] — the congestion mechanism behind the paper's
//!   Figure 2 drop-rate measurements.
//! * [`Node`] — an endpoint with memory, memory-key translation (direct,
//!   NULL and indirect/root keys per Figure 5), completion queues with
//!   wakers, and UC/UD queue pairs with faithful ePSN semantics. Its
//!   [`Memory`] is an allocator with lifetimes: blocks are freed and
//!   recycled by exact length (see [`memory`] for when a block may go),
//!   and it stamps every page it lets be written, so the receiving NIC
//!   hashes a named payload only when its source changed since the post.
//! * [`Fabric`] — ties nodes and links together and implements the
//!   send-side datapath (fragmentation, write-with-immediate, UD sends)
//!   plus the per-link delivery pumps. A Write's payload is either owned
//!   bytes ([`WriteWr`]) or a *named* region of the sender's registered
//!   memory ([`RegionWriteWr`], the Verbs shape): a [`Payload::Region`]
//!   packet is resolved when it is delivered, so the receiving NIC
//!   verifies and copies straight from the source buffer
//!   ([`Fabric::free_region`] is how a sender lets go of a region that
//!   packets may still name).
//!
//! The commodity-NIC go-back-N baseline the paper argues against is a
//! reliability scheme like the others and lives with them
//! (`sdr-reliability`'s `gbn`), not in the substrate.
//!
//! Everything is seeded and single-threaded: a simulation with the same
//! inputs produces bit-identical outputs.

#![warn(missing_docs)]

pub mod engine;
pub mod equeue;
pub mod fabric;
pub mod fault;
pub mod hash;
pub mod link;
pub mod loss;
pub mod memory;
pub mod nic;
pub mod packet;
pub mod queue;
pub mod time;

pub use engine::{shared, Engine, Shared};
pub use equeue::TimerHandle;
pub use fabric::{Fabric, PostError, RegionWriteWr, WriteWr};
pub use fault::{FaultEvent, FaultHandle, FaultPlan, RestartSide};
pub use hash::IntMap;
pub use link::{
    Link, LinkConfig, LinkStats, TxOutcome, DEFAULT_HEADER_BYTES, MAX_CORRUPT_BURST,
    MAX_REORDER_SPAN,
};
pub use loss::{LossModel, LossProcess};
pub use memory::{AccessError, Memory, MkeyTable, MkeyTarget, Resolved};
pub use nic::{Cq, Cqe, CqeOp, Mr, Node, NodeStats, PayloadCheck, QpType, RecvWqe, Waker};
pub use packet::{CqId, MkeyId, NodeId, Packet, PacketKind, Payload, QpAddr, QpNum, WriteSeg};
pub use queue::{BottleneckQueue, QueueStats};
// The observability substrate: the engine owns an `engine.*` registry,
// the fabric owns the stack-wide registry plus one flight recorder per
// node. Re-exported so layers above need no direct `sdr-trace` import.
pub use sdr_trace::{
    enabled as trace_enabled, set_enabled as set_trace_enabled, Counter, Event, EventKind,
    FlightRecorder, Gauge, Histogram, Registry, Snapshot,
};
pub use time::{
    propagation_delay_km, rtt_from_km, tx_time, SimTime, C_LIGHT_M_PER_S, PS_PER_MS, PS_PER_NS,
    PS_PER_S, PS_PER_US,
};
