//! Wire-level packet representation and endpoint addressing.

use bytes::Bytes;

/// Identifies a node (an endpoint host/NIC pair) in the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A queue pair number, unique within its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpNum(pub u32);

/// A completion queue id, unique within its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CqId(pub u32);

/// A memory key id, unique within its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MkeyId(pub u32);

/// Fully-qualified queue pair address: node + QP number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QpAddr {
    /// The node hosting the QP.
    pub node: NodeId,
    /// The QP number on that node.
    pub qp: QpNum,
}

/// Position of a packet within a multi-packet RDMA Write message.
///
/// SDR issues one Write-with-immediate *per packet* (`Only`), precisely to
/// avoid the UC expected-PSN behaviour that discards whole multi-packet
/// messages on reordering or loss (paper §3.2.1). `First/Middle/Last` exist
/// so the simulator can also model that conventional behaviour, for the
/// ePSN ablation experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteSeg {
    /// A single-packet message.
    Only,
    /// First packet of a multi-packet message (carries mkey + offset).
    First,
    /// Middle packet.
    Middle,
    /// Last packet (carries the immediate, if any).
    Last,
}

/// What a packet asks the receiving NIC to do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PacketKind {
    /// One-sided RDMA Write (optionally with immediate data).
    Write {
        /// Segment position within the message.
        seg: WriteSeg,
        /// Remote memory key; meaningful on `Only`/`First` segments.
        mkey: MkeyId,
        /// Byte offset within the mkey's address range.
        offset: u64,
        /// Immediate data, delivered as a receive CQE on `Only`/`Last`.
        imm: Option<u32>,
        /// Sender-computed payload checksum (CRC32C over the posted
        /// message), delivered alongside `imm` in the receive CQE. The
        /// fabric carries it opaquely — it models integrity bits in the
        /// transport header, so wire *payload* corruption does not touch
        /// it and the receiver can compare it against what landed.
        crc: Option<u32>,
    },
    /// Two-sided send (UD datagram or connected send).
    Send {
        /// Immediate data, if any.
        imm: Option<u32>,
    },
}

/// The payload of a packet in flight. Two kinds because two kinds of
/// poster exist: callers that hold heap bytes (control datagrams,
/// [`WriteWr::data`](crate::WriteWr)) hand them over, and
/// callers that send out of registered memory (`SdrQp`) only *name* it —
/// like a Verbs work request's `(addr, len, lkey)`, which the NIC
/// DMA-reads at transmit and never copies into the request.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Bytes owned by the packet (cheaply cloneable slice).
    Owned(Bytes),
    /// `len` bytes at `addr` in `node`'s registered memory, read when the
    /// packet is delivered (or when the wire corrupts it). The region must
    /// stay unmodified until then; a poster that attaches a payload
    /// checksum gets a modification *detected* at the receiving NIC. The
    /// sending NIC hashed the bytes at post, when the source memory's
    /// write clock read `clock`: if no page of the region was written
    /// since ([`Memory::written_since`](crate::Memory::written_since)),
    /// the carried checksum still describes them and the receiving NIC
    /// does not hash them again; otherwise it does, and that hash decides.
    Region {
        /// Node whose memory holds the bytes (the sender).
        node: NodeId,
        /// Address of the first byte in that node's memory.
        addr: u64,
        /// Length in bytes.
        len: u32,
        /// The source memory's [write clock](crate::Memory::clock) at post.
        clock: u64,
    },
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(b) => b.len(),
            Payload::Region { len, .. } => *len as usize,
        }
    }

    /// True when the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sub-range `[lo, hi)` of this payload, sharing its storage.
    pub fn slice(&self, lo: usize, hi: usize) -> Payload {
        match self {
            Payload::Owned(b) => Payload::Owned(b.slice(lo..hi)),
            Payload::Region {
                node,
                addr,
                len,
                clock,
            } => {
                assert!(lo <= hi && hi <= *len as usize, "slice out of bounds");
                Payload::Region {
                    node: *node,
                    addr: addr + lo as u64,
                    len: (hi - lo) as u32,
                    clock: *clock,
                }
            }
        }
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Owned(b)
    }
}

/// A packet in flight.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Originating QP.
    pub src: QpAddr,
    /// Destination QP.
    pub dst: QpAddr,
    /// Packet sequence number within the sender's QP.
    pub psn: u32,
    /// Operation requested.
    pub kind: PacketKind,
    /// Payload: owned bytes, or a named region of the sender's memory.
    pub payload: Payload,
}

impl Packet {
    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_cheap_to_clone() {
        let payload = Bytes::from(vec![7u8; 1 << 20]);
        let p = Packet {
            src: QpAddr {
                node: NodeId(0),
                qp: QpNum(1),
            },
            dst: QpAddr {
                node: NodeId(1),
                qp: QpNum(2),
            },
            psn: 9,
            kind: PacketKind::Send { imm: Some(4) },
            payload: payload.into(),
        };
        let q = p.clone();
        // Bytes clones share the same backing allocation.
        let (Payload::Owned(a), Payload::Owned(b)) = (&p.payload, &q.payload) else {
            panic!("owned payloads stay owned");
        };
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(q.payload_len(), 1 << 20);
    }

    #[test]
    fn region_payload_slices_by_address() {
        let r = Payload::Region {
            node: NodeId(3),
            addr: 1000,
            len: 100,
            clock: 7,
        };
        let Payload::Region {
            node,
            addr,
            len,
            clock,
        } = r.slice(10, 40)
        else {
            panic!("a region slices to a region");
        };
        assert_eq!((node, addr, len, clock), (NodeId(3), 1010, 30, 7));
    }
}
