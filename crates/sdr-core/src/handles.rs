//! User-facing handles and error types of the SDR API (Table 1).

/// Handle to a posted receive message (`rcv_handle` in Table 1).
///
/// Obtained from [`recv_post`](crate::qp::SdrQp::recv_post); used to fetch
/// the completion bitmap, the reassembled user immediate, and to mark the
/// receive complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvHandle {
    /// Message-ID slot occupied by this receive.
    pub(crate) slot: usize,
    /// Global receive sequence number (guards against stale handles after
    /// slot reuse).
    pub(crate) seq: u64,
}

impl RecvHandle {
    /// The message-ID slot this receive occupies (diagnostic).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The global receive sequence number (diagnostic).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Handle to a send message (`snd_handle` in Table 1) — both one-shot
/// ([`send_post`](crate::qp::SdrQp::send_post)) and streaming
/// ([`send_stream_start`](crate::qp::SdrQp::send_stream_start)).
///
/// A send opens on the QP's next send sequence, which is the handle. A
/// stream injects ranges until it ends; a one-shot injects as it opens, or
/// when its clear-to-send credit lands. `send_poll` turns true once the
/// send has ended and its packets left the wire; `send_release` drops it
/// in any phase. A failed open leaves no trace (no handle, no sequence, no
/// credit spent); a one-shot whose late credit names a smaller buffer
/// spends it and `send_poll` reports [`SdrError::TooLarge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendHandle {
    pub(crate) id: u64,
}

impl SendHandle {
    /// The send sequence number: the n-th send opened on a QP answers its
    /// peer's n-th receive post (diagnostic).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Errors surfaced by the SDR SDK.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SdrError {
    /// Invalid configuration (message from `SdrConfig::validate`).
    InvalidConfig(String),
    /// QP is not connected yet.
    NotConnected,
    /// Message exceeds `max_msg_bytes` or the peer's posted buffer. From a
    /// send's open it leaves no trace; a deferred one-shot whose credit
    /// names a smaller buffer reports it from `send_poll`.
    TooLarge,
    /// The message-ID slot for this sequence number is still occupied by an
    /// uncompleted receive (the application must `recv_complete` first).
    SlotBusy,
    /// No clear-to-send credit yet for a streaming send (the receiver has
    /// not posted the matching buffer). Nothing changed: retry once the
    /// credit lands.
    NoCts,
    /// Handle does not refer to a live message (e.g. stale after reuse).
    BadHandle,
    /// Streaming send already ended.
    StreamEnded,
    /// Transport-level post failure.
    Post(sdr_sim::PostError),
}

impl std::fmt::Display for SdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdrError::InvalidConfig(m) => write!(f, "invalid SDR config: {m}"),
            SdrError::NotConnected => write!(f, "QP not connected"),
            SdrError::TooLarge => write!(f, "message exceeds maximum/buffer size"),
            SdrError::SlotBusy => write!(f, "message slot still active"),
            SdrError::NoCts => write!(f, "no clear-to-send credit"),
            SdrError::BadHandle => write!(f, "stale or unknown handle"),
            SdrError::StreamEnded => write!(f, "stream already ended"),
            SdrError::Post(e) => write!(f, "transport post error: {e:?}"),
        }
    }
}

impl std::error::Error for SdrError {}

impl From<sdr_sim::PostError> for SdrError {
    fn from(e: sdr_sim::PostError) -> Self {
        SdrError::Post(e)
    }
}

/// Counters exported by an SDR QP.
#[derive(Clone, Copy, Debug, Default)]
pub struct SdrStats {
    /// Data packets whose payload landed in a posted buffer.
    pub packets_received: u64,
    /// Duplicate packet arrivals (retransmission overlap).
    pub duplicate_packets: u64,
    /// Late packets discarded by the NULL memory key (protection stage 1).
    pub late_null_discarded: u64,
    /// Completions dropped by the generation check (protection stage 2).
    pub generation_filtered: u64,
    /// Completions for inactive slots (early-completed receives).
    pub inactive_slot_drops: u64,
    /// Packets with an out-of-range offset (defensive).
    pub bad_offset: u64,
    /// Frontend chunks completed.
    pub chunks_completed: u64,
    /// Messages fully sent (local completion).
    pub sends_completed: u64,
    /// Receive buffers posted.
    pub recvs_posted: u64,
    /// CTS control messages sent.
    pub cts_sent: u64,
    /// CTS control messages received.
    pub cts_received: u64,
    /// CTS datagrams dropped for a CRC32C trailer mismatch (wire
    /// corruption on the control path; healed by CTS resend).
    pub cts_corrupt: u64,
    /// Data packets whose landed payload failed checksum verification
    /// and were reclassified as losses (bitmap bit left clear).
    pub payload_corrupt: u64,
}
