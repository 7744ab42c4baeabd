//! SDR queue-pair configuration (the paper's `qp_attr`).

use crate::imm::ImmLayout;

/// Configuration of an SDR queue pair.
///
/// The runtime sizes its internal buffers — per-packet and chunk bitmaps,
/// message tables, the indirect root memory keys — from the user-defined
/// maximum message size, slot count and bitmap chunk size (§3.2.2).
///
/// End-to-end payload integrity is not a field: every injected packet
/// carries a CRC32C over its payload, the receiving NIC checks it before
/// the DMA commits, and a corrupted landing is reclassified as a *loss*
/// (its bitmap bit stays clear), so the ordinary NACK/RTO repair
/// machinery heals it — per-hop link CRCs cannot provide this across a
/// multi-hop WAN path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SdrConfig {
    /// Maximum message size `M` in bytes; message `i` occupies offset range
    /// `[i·M, i·M + M)` of the root memory key (Figure 5).
    pub max_msg_bytes: u64,
    /// Number of in-flight message descriptors (≤ `2^msg_id_bits`,
    /// 1024 with the default immediate split).
    pub msg_slots: usize,
    /// Network MTU in bytes (one packet = one unreliable Write).
    pub mtu_bytes: u64,
    /// Bitmap chunk size in bytes — a multiple of the MTU. One frontend
    /// bitmap bit covers one chunk (§3.1.1).
    pub chunk_bytes: u64,
    /// Number of parallel transport channels per generation (§3.4.1).
    pub channels: usize,
    /// Number of message-ID generations for late-packet protection (§3.3.2).
    pub generations: usize,
    /// Layout of the 32-bit transport immediate.
    pub imm: ImmLayout,
}

impl Default for SdrConfig {
    fn default() -> Self {
        SdrConfig {
            max_msg_bytes: 16 << 20, // 16 MiB
            msg_slots: 16,
            mtu_bytes: 4096,
            chunk_bytes: 64 * 1024,
            channels: 2,
            generations: 4,
            imm: ImmLayout::default(),
        }
    }
}

impl SdrConfig {
    /// Validates internal consistency; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mtu_bytes == 0 {
            return Err("mtu_bytes must be positive".into());
        }
        if self.chunk_bytes == 0 || !self.chunk_bytes.is_multiple_of(self.mtu_bytes) {
            return Err(format!(
                "chunk_bytes ({}) must be a positive multiple of mtu_bytes ({})",
                self.chunk_bytes, self.mtu_bytes
            ));
        }
        if self.max_msg_bytes == 0 || !self.max_msg_bytes.is_multiple_of(self.chunk_bytes) {
            return Err(format!(
                "max_msg_bytes ({}) must be a positive multiple of chunk_bytes ({})",
                self.max_msg_bytes, self.chunk_bytes
            ));
        }
        if self.msg_slots == 0 || self.msg_slots > self.imm.max_msg_ids() {
            return Err(format!(
                "msg_slots ({}) must be in 1..={} (msg-id field width)",
                self.msg_slots,
                self.imm.max_msg_ids()
            ));
        }
        let pkts = self.max_msg_bytes / self.mtu_bytes;
        if pkts > self.imm.max_packet_offset() as u64 + 1 {
            return Err(format!(
                "max_msg_bytes needs {} packet offsets but the immediate \
                 offset field holds only {}",
                pkts,
                self.imm.max_packet_offset() as u64 + 1
            ));
        }
        if self.channels == 0 {
            return Err("channels must be ≥ 1".into());
        }
        if self.generations == 0 {
            return Err("generations must be ≥ 1".into());
        }
        self.imm.validate()
    }

    /// Packets per message at the configured maximum size.
    pub fn max_packets(&self) -> u64 {
        self.max_msg_bytes / self.mtu_bytes
    }

    /// Packets per bitmap chunk.
    pub fn packets_per_chunk(&self) -> u64 {
        self.chunk_bytes / self.mtu_bytes
    }

    /// Chunks per message at the configured maximum size.
    pub fn max_chunks(&self) -> u64 {
        self.max_msg_bytes / self.chunk_bytes
    }

    /// Packets needed for a message of `len` bytes.
    pub fn packets_for(&self, len: u64) -> u64 {
        len.div_ceil(self.mtu_bytes).max(1)
    }

    /// Chunks needed for a message of `len` bytes.
    pub fn chunks_for(&self, len: u64) -> u64 {
        len.div_ceil(self.chunk_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SdrConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_misaligned_chunk() {
        let cfg = SdrConfig {
            chunk_bytes: 5000,
            ..SdrConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_message_larger_than_offset_field() {
        // Default 18-bit offset ⇒ 1 GiB max at 4 KiB MTU; 2 GiB must fail.
        let cfg = SdrConfig {
            max_msg_bytes: 2 << 30,
            ..SdrConfig::default()
        };
        assert!(cfg.validate().is_err());
        // The alternative 8+22+2 split admits it (§3.2.4).
        let cfg = SdrConfig {
            max_msg_bytes: 2 << 30,
            imm: ImmLayout::new(8, 22, 2),
            msg_slots: 16,
            ..SdrConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_too_many_slots() {
        let cfg = SdrConfig {
            msg_slots: 2000, // > 2^10
            ..SdrConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn derived_quantities() {
        let cfg = SdrConfig::default();
        assert_eq!(cfg.max_packets(), 4096);
        assert_eq!(cfg.packets_per_chunk(), 16);
        assert_eq!(cfg.max_chunks(), 256);
        assert_eq!(cfg.packets_for(1), 1);
        assert_eq!(cfg.packets_for(8192), 2);
        assert_eq!(cfg.chunks_for(64 * 1024 + 1), 2);
    }
}
