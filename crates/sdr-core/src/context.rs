//! The SDR context (`context_create` in Table 1): per-node resources shared
//! by queue pairs, plus buffer-management helpers.

use sdr_sim::{Fabric, MkeyId, NodeId};

use crate::config::SdrConfig;
use crate::handles::SdrError;
use crate::qp::SdrQp;

/// Per-node SDR resources. On hardware this owns CQs and DPA threads; in
/// the simulator it binds a [`Fabric`] node and hands out queue pairs and
/// registered buffers.
#[derive(Clone)]
pub struct SdrContext {
    fabric: Fabric,
    node: NodeId,
}

impl SdrContext {
    /// Opens a context on `node` (the paper's `context_create`).
    pub fn new(fabric: &Fabric, node: NodeId) -> Self {
        SdrContext {
            fabric: fabric.clone(),
            node,
        }
    }

    /// Creates an SDR queue pair within this context (`qp_create`).
    pub fn qp_create(&self, cfg: SdrConfig) -> Result<SdrQp, SdrError> {
        SdrQp::create(&self.fabric, self.node, cfg)
    }

    /// Allocates `len` bytes of node memory and returns the base address.
    /// Application buffers (send sources, receive targets) come from here.
    pub fn alloc_buffer(&self, len: u64) -> u64 {
        self.fabric.node_mut(self.node, |n| n.mem_mut().alloc(len))
    }

    /// Returns a block obtained from [`alloc_buffer`](Self::alloc_buffer)
    /// — exactly its `(addr, len)` — to the node's allocator; the next
    /// `alloc_buffer` of that length reuses it. A receive buffer must have
    /// completed first (`recv_complete`: nothing can write it any more); a
    /// send buffer may go at any time — packets still in flight that name
    /// it keep the bytes they were posted with (see
    /// [`Fabric::free_region`]).
    ///
    /// # Panics
    /// Panics on a double free or on a range that is not an allocated
    /// block.
    pub fn free_buffer(&self, addr: u64, len: u64) {
        self.fabric.free_region(self.node, addr, len);
    }

    /// Registers an address range for remote access (`mr_reg`).
    pub fn mr_reg(&self, addr: u64, len: u64) -> MkeyId {
        self.fabric.node_mut(self.node, |n| n.reg_mr(addr, len))
    }

    /// Copies `data` into node memory at `addr` (test/workload staging).
    pub fn write_buffer(&self, addr: u64, data: &[u8]) {
        self.fabric
            .node_mut(self.node, |n| n.mem_mut().write(addr, data));
    }

    /// Reads `len` bytes of node memory at `addr`.
    pub fn read_buffer(&self, addr: u64, len: usize) -> Vec<u8> {
        self.fabric
            .node(self.node, |n| n.mem().read(addr, len).to_vec())
    }

    /// The node this context is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The underlying fabric handle.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}
