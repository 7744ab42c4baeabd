//! Node memory, memory regions and memory-key translation.
//!
//! The SDR receive path relies on three Verbs memory features the simulator
//! must model faithfully (paper §3.2.2–§3.3):
//!
//! * **Direct keys** — plain registered regions backing user buffers.
//! * **A zero-based indirect "root" key** whose slot table maps message `i`
//!   to offset range `[i·M, i·M + M)` (Figure 5). Posting a receive installs
//!   the user buffer's key into a slot; completing it swaps the slot to…
//! * **The NULL key** (`ibv_alloc_null_mr`) — writes targeting it are
//!   *discarded but still produce completions*, which is the first stage of
//!   the paper's late-packet protection.
//!
//! # The allocator
//!
//! [`Memory`] hands out blocks with [`alloc`](Memory::alloc) and takes them
//! back with [`free`](Memory::free). One mechanism, no size classes: a
//! freed block waits on the free list of its *exact* length and the next
//! `alloc` of that length pops the most recently freed one (LIFO, so a
//! back-to-back transfer gets the pages its predecessor just warmed);
//! any other request bumps the cursor. Blocks are never split or
//! coalesced — the callers that free (EC parity staging, one shape per
//! transfer geometry) ask for the same lengths over and over, which is
//! exactly when recycling pays. A block is live from `alloc` to `free`:
//! two live blocks never overlap, and `free` panics on anything that is
//! not a live block's exact `(base, len)` — a double or foreign free is a
//! lifetime bug in the layer above, not a wire event.
//!
//! Contents are not cleared on reuse; a fresh block reads as zeroes only
//! because the backing store starts that way.
//!
//! ## When a block may be freed
//!
//! * **Receive side.** A posted receive buffer is written by the NIC for
//!   as long as its root-table slot resolves to it. Free it only after
//!   `recv_complete` swapped the slot to the NULL key and deregistered the
//!   buffer's own key — from then on no packet, however late, can reach
//!   the bytes.
//! * **Send side.** Data packets *name* their payload
//!   ([`Payload::Region`](crate::Payload)) and the bytes are read at
//!   delivery, so a send buffer must hold still until the peer's receive
//!   completes. A sender that is done with a region earlier than that —
//!   its transfer was acknowledged or aborted with packets still on the
//!   wire — frees it through [`Fabric::free_region`](crate::Fabric), which
//!   first gives every in-flight packet naming the block its own copy of
//!   the bytes. The block can then be handed out and rewritten at once;
//!   what the stragglers deliver is what they would have delivered had
//!   the block never been recycled. Calling [`Memory::free`] directly
//!   skips that step and is only sound for memory no packet names.
//!
//! # DMA writes bypass the cache
//!
//! A real NIC's DMA write does not pull the destination into a core's
//! private caches. [`Memory::dma_write`], the NIC's payload landing,
//! models that for payloads of [`STREAM_MIN_BYTES`] or more: it copies
//! the destination's whole 64 B lines with non-temporal stores
//! (`_mm_stream_si128`, SSE2, the x86_64 baseline — no tier, no
//! dispatch) and only the unaligned head and tail with ordinary ones.
//! An ordinary copy into a cold receive buffer first reads every line
//! from DRAM (read-for-ownership), and the stall of those stores
//! draining lands on whatever store comes next. Node address 0 is
//! 64 B-aligned, so a 4 KiB-aligned buffer is whole lines. Other
//! targets copy with ordinary stores.
//!
//! **The fence rule.** Streamed bytes may not be touched again until the
//! storing thread issued an `sfence`. The fence is deferred, not paid
//! per copy: `Memory` notes that streamed stores are outstanding, and
//! every access to the bytes — [`read`](Memory::read),
//! [`write`](Memory::write), [`read_write`](Memory::read_write),
//! [`fill`](Memory::fill), the next `dma_write` and `Drop` — fences
//! first when they are. The bytes are private to `Memory`, so nothing
//! (the encode pool's slices included) reaches them unfenced. Fencing
//! right after each copy instead gained nothing on `bulk_sr_4k`; the
//! deferral is what lets the stores drain behind other work.
//!
//! **The cut.** Streaming pays where a payload's lines are many and read
//! back late. Streaming 256 B payloads too made `bulk_sr_256b` slower in
//! 6 of 6 paired runs (the landed bytes are read back soon after, now
//! from DRAM), so payloads under 1 KiB keep ordinary stores, as do UD
//! receives (control datagrams, read in the very next event).
//!
//! # Write stamps
//!
//! `Memory` keeps a write clock and, for every [`PAGE`]-byte page, the
//! clock of the last mutating access that covered it. Every mutator —
//! [`write`](Memory::write), [`dma_write`](Memory::dma_write), the
//! written region of [`read_write`](Memory::read_write) and
//! [`fill`](Memory::fill) — reaches the bytes through one private
//! accessor that takes the ranges it hands out writable, bumps the clock
//! and stamps their pages *before* returning them, so no mutator can skip
//! the stamp. [`read`](Memory::read), `read_write`'s read region,
//! [`alloc`](Memory::alloc), [`free`](Memory::free) and zero-length calls
//! stamp nothing.
//!
//! **The invariant.** If no page of `[addr, addr + len)` carries a stamp
//! newer than a clock reading `c`, those bytes are exactly what they were
//! when [`clock`](Memory::clock) returned `c`
//! ([`written_since`](Memory::written_since) answers the question). The
//! fabric uses it to spare the receiving NIC a hash: a
//! [`Payload::Region`](crate::Payload) packet carries its source's clock
//! from the post, where the sending NIC hashed the bytes, and a packet
//! whose pages are unwritten since then carries a checksum that still
//! describes them.
//!
//! **It is conservative.** A stamp says a page *may* differ, never that it
//! does: a write of the same bytes, a write to another part of the page,
//! or a written region a caller only reads all stamp it. A stamped page
//! costs the NIC one hash (which then decides), never a wrong verdict.
//!
//! **Node memory is never replaced** while packets name it: a `Node`
//! builds its `Memory` once, and the clock never goes back. A fresh
//! `Memory` swapped in under in-flight packets would restart the clock
//! below their post readings.

use std::cell::Cell;
use std::ops::Range;

use crate::hash::IntMap;
use crate::packet::MkeyId;

/// The shortest payload [`Memory::dma_write`] streams past the cache
/// (see [the cut](self#dma-writes-bypass-the-cache)).
pub const STREAM_MIN_BYTES: usize = 1024;

/// Cache line size the streaming copy writes whole.
const LINE: usize = 64;

/// Bytes one write stamp covers (see [write stamps](self#write-stamps)).
/// A constant, not a setting; coarsen it only on paired evidence from
/// the many-flow rows, whose stamp lookups span the most memory.
pub const PAGE: usize = 4096;

/// Byte-addressable memory of one node and its block allocator (see the
/// [module docs](self) for the contract).
pub struct Memory {
    /// Backing store, over-allocated by `LINE - 1` bytes so that node
    /// address 0 (`buf[origin]`) can sit on a line boundary.
    buf: Vec<u8>,
    /// Index of node address 0 in `buf`.
    origin: usize,
    /// Node memory size in bytes.
    capacity: usize,
    /// Streamed stores may be outstanding: the next access fences.
    streamed: Cell<bool>,
    /// Write clock: bumped by every mutating access.
    clock: u64,
    /// Per page, the clock of the last mutating access that covered it.
    stamps: Vec<u64>,
    /// Bump cursor: every address below it has been handed out at least
    /// once.
    next: u64,
    /// Live blocks, base → length.
    live: IntMap<u64, u64>,
    /// Freed blocks by exact length, most recently freed last.
    free: IntMap<u64, Vec<u64>>,
}

impl Memory {
    /// Creates a memory of `capacity` bytes, zero-initialised.
    pub fn new(capacity: usize) -> Self {
        let buf = vec![0; capacity + LINE - 1];
        let origin = buf.as_ptr().align_offset(LINE);
        Memory {
            buf,
            origin,
            capacity,
            streamed: Cell::new(false),
            clock: 0,
            stamps: vec![0; capacity.div_ceil(PAGE)],
            next: 0,
            live: IntMap::default(),
            free: IntMap::default(),
        }
    }

    /// Allocates a block of `len` bytes and returns its base address: the
    /// most recently freed block of exactly that length when there is
    /// one, fresh memory otherwise.
    ///
    /// # Panics
    /// Panics when the memory is exhausted — simulation configs size node
    /// memory up front.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let base = match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(base) => base,
            None => {
                let base = self.next;
                assert!(
                    base + len <= self.capacity as u64,
                    "node memory exhausted: want {len} at {base}, capacity {}",
                    self.capacity
                );
                self.next += len;
                base
            }
        };
        self.live.insert(base, len);
        base
    }

    /// Returns the live block `[addr, addr + len)` to the allocator. See
    /// the [module docs](self) for when that is sound.
    ///
    /// # Panics
    /// Panics unless `(addr, len)` is exactly a live block — a double
    /// free, a free of memory that was never allocated, or a partial one.
    pub fn free(&mut self, addr: u64, len: u64) {
        match self.live.remove(&addr) {
            Some(l) if l == len => self.free.entry(len).or_default().push(addr),
            found => panic!(
                "free of [{addr}, +{len}) which is not a live block (live length there: {found:?})"
            ),
        }
    }

    /// One past the highest address ever handed out: how much of the
    /// memory the node has touched. Flat across back-to-back transfers
    /// when everything they allocate is recycled.
    pub fn high_water(&self) -> u64 {
        self.next
    }

    /// Copies `data` to `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_mut(addr, data.len()).copy_from_slice(data);
    }

    /// The NIC's DMA write: copies `data` to `addr`, past the cache when
    /// it is at least [`STREAM_MIN_BYTES`] long (see [DMA writes bypass
    /// the cache](self#dma-writes-bypass-the-cache)). What lands is
    /// exactly what [`write`](Self::write) would have landed.
    pub fn dma_write(&mut self, addr: u64, data: &[u8]) {
        if data.len() < STREAM_MIN_BYTES {
            return self.write(addr, data);
        }
        stream_copy(self.bytes_mut(addr, data.len()), data);
        self.streamed.set(cfg!(target_arch = "x86_64"));
    }

    /// Reads `len` bytes at `addr`.
    pub fn read(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        &self.arena()[a..a + len]
    }

    /// Two disjoint regions `(addr, len)` at once: `read`, read-only, and
    /// `write`, writable — e.g. an encode reading data rows and writing
    /// parity, or a decode reading parity and rebuilding data in place.
    /// Only `write`'s pages are stamped.
    ///
    /// # Panics
    /// Panics when the regions overlap or either lies outside the memory.
    pub fn read_write(&mut self, read: (u64, usize), write: (u64, usize)) -> (&[u8], &mut [u8]) {
        let (r, w) = (span(read.0, read.1), span(write.0, write.1));
        let [r, w] = self
            .arena_mut(std::slice::from_ref(&w))
            .get_disjoint_mut([r, w])
            .unwrap_or_else(|e| panic!("regions {read:?} and {write:?}: {e}"));
        (r, w)
    }

    /// Fills a region with a byte value (used to model repost cleanup).
    pub fn fill(&mut self, addr: u64, len: usize, value: u8) {
        self.bytes_mut(addr, len).fill(value);
    }

    /// The write clock: a reading to hand
    /// [`written_since`](Self::written_since) later (see [write
    /// stamps](self#write-stamps)).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Whether any byte of `[addr, addr + len)` may have been written
    /// since [`clock`](Self::clock) read `clock`: `false` means the bytes
    /// are exactly what they were then.
    #[inline]
    pub fn written_since(&self, addr: u64, len: usize, clock: u64) -> bool {
        len > 0
            && self.stamps[pages(&span(addr, len))]
                .iter()
                .any(|&s| s > clock)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The node's bytes, after any outstanding streamed stores were
    /// fenced: the one way to them.
    fn arena(&self) -> &[u8] {
        self.fence();
        &self.buf[self.origin..][..self.capacity]
    }

    /// [`arena`](Self::arena), writable, after every page of `ranges` —
    /// the bytes the caller will hand out writable — was stamped with a fresh
    /// clock: the one way to write the node's bytes.
    fn arena_mut(&mut self, ranges: &[Range<usize>]) -> &mut [u8] {
        self.fence();
        self.clock += 1;
        for r in ranges.iter().filter(|r| !r.is_empty()) {
            // A range past the end panics when the caller slices the
            // arena; leave that message to it.
            if let Some(s) = self.stamps.get_mut(pages(r)) {
                s.fill(self.clock);
            }
        }
        &mut self.buf[self.origin..][..self.capacity]
    }

    /// The `len` bytes at `addr`, writable: one range through
    /// [`arena_mut`](Self::arena_mut).
    fn bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let r = span(addr, len);
        &mut self.arena_mut(std::slice::from_ref(&r))[r]
    }

    /// Orders every streamed store before whatever access follows (the
    /// fence rule in the [module docs](self#dma-writes-bypass-the-cache)).
    #[inline]
    fn fence(&self) {
        if self.streamed.replace(false) {
            // SAFETY: `sfence` is SSE, part of the x86_64 baseline.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                std::arch::x86_64::_mm_sfence()
            };
        }
    }
}

/// The arena indices of `len` bytes at node address `addr`.
fn span(addr: u64, len: usize) -> Range<usize> {
    addr as usize..addr as usize + len
}

/// The pages a non-empty range of bytes touches.
fn pages(r: &Range<usize>) -> Range<usize> {
    r.start / PAGE..(r.end - 1) / PAGE + 1
}

impl Drop for Memory {
    fn drop(&mut self) {
        self.fence();
    }
}

/// Copies `src` into `dst` (same length): `dst`'s whole 64 B lines with
/// non-temporal stores, the partial head and tail lines with ordinary
/// ones. The caller owns the fence.
#[cfg(target_arch = "x86_64")]
fn stream_copy(dst: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_stream_si128};
    let head = dst.as_ptr().align_offset(LINE).min(dst.len());
    let body = (dst.len() - head) / LINE * LINE;
    let (d_head, rest) = dst.split_at_mut(head);
    let (d_body, d_tail) = rest.split_at_mut(body);
    let (s_head, rest) = src.split_at(head);
    let (s_body, s_tail) = rest.split_at(body);
    d_head.copy_from_slice(s_head);
    for (d, s) in d_body.chunks_exact_mut(LINE).zip(s_body.chunks_exact(LINE)) {
        let (d, s) = (
            d.as_mut_ptr().cast::<__m128i>(),
            s.as_ptr().cast::<__m128i>(),
        );
        // SAFETY: `d` is one whole 64 B-aligned line of `dst` and `s` 64
        // readable bytes of `src`, so all four 16 B lanes are in bounds and
        // the streamed ones 16 B-aligned as `_mm_stream_si128` requires;
        // SSE2 is part of the x86_64 baseline.
        unsafe {
            for k in 0..LINE / 16 {
                _mm_stream_si128(d.add(k), _mm_loadu_si128(s.add(k)));
            }
        }
    }
    d_tail.copy_from_slice(s_tail);
}

#[cfg(not(target_arch = "x86_64"))]
fn stream_copy(dst: &mut [u8], src: &[u8]) {
    dst.copy_from_slice(src);
}

/// What a memory key resolves to.
#[derive(Clone, Debug)]
pub enum MkeyTarget {
    /// Discard writes, but still complete them (late-packet stage 1).
    Null,
    /// A plain registered region.
    Direct {
        /// Base address within node memory.
        base: u64,
        /// Region length in bytes.
        len: u64,
    },
    /// A zero-based table of slots of fixed size; slot `i` covers offsets
    /// `[i*slot_size, (i+1)*slot_size)` and forwards into another key.
    Indirect {
        /// Size of each slot in bytes (the QP's max message size `M`).
        slot_size: u64,
        /// Per-slot inner keys; `None` behaves like an invalid access.
        slots: Vec<Option<MkeyId>>,
    },
}

/// Result of resolving `(mkey, offset, len)` against a node's key table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolved {
    /// Write lands at this absolute address in node memory.
    Addr(u64),
    /// Write is discarded (NULL key) but must still raise a completion.
    Null,
}

/// Errors surfaced by translation. On a real NIC these would be access
/// faults; the simulator counts them and drops the packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessError {
    /// Key not present in the table.
    UnknownKey(MkeyId),
    /// Offset/length outside the key's range.
    OutOfBounds,
    /// Indirect slot not populated.
    EmptySlot,
    /// Indirection chain too deep (guards against cycles).
    TooDeep,
}

/// Per-node memory key table: a dense slab indexed by key id, so the two
/// translations every SDR data packet takes (root → slot → buffer) are
/// indexed loads. Ids of [removed](Self::remove) keys are recycled.
#[derive(Default)]
pub struct MkeyTable {
    slab: Vec<Option<MkeyTarget>>,
    free: Vec<u32>,
}

/// Maximum depth of indirect-key chains; the SDR layout needs two levels
/// (root → buffer), four leaves margin for experiments.
const MAX_DEPTH: u32 = 4;

impl MkeyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a target and returns its new key id.
    pub fn insert(&mut self, target: MkeyTarget) -> MkeyId {
        match self.free.pop() {
            Some(id) => {
                self.slab[id as usize] = Some(target);
                MkeyId(id)
            }
            None => {
                self.slab.push(Some(target));
                MkeyId(self.slab.len() as u32 - 1)
            }
        }
    }

    /// Deregisters a key, returning what it resolved to (`None` when it
    /// was not registered). The id may be handed out again by a later
    /// insert, so the caller must first unhook the key from any indirect
    /// slot that still forwards to it.
    pub fn remove(&mut self, mkey: MkeyId) -> Option<MkeyTarget> {
        let target = self.slab.get_mut(mkey.0 as usize)?.take()?;
        self.free.push(mkey.0);
        Some(target)
    }

    /// Number of keys currently registered.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True when no key is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, mkey: MkeyId) -> Option<&MkeyTarget> {
        self.slab.get(mkey.0 as usize)?.as_ref()
    }

    /// Registers a direct region.
    pub fn insert_direct(&mut self, base: u64, len: u64) -> MkeyId {
        self.insert(MkeyTarget::Direct { base, len })
    }

    /// Allocates a NULL key (the simulator's `ibv_alloc_null_mr`).
    pub fn insert_null(&mut self) -> MkeyId {
        self.insert(MkeyTarget::Null)
    }

    /// Allocates an indirect root key with `slots` empty slots of
    /// `slot_size` bytes each.
    pub fn insert_indirect(&mut self, slot_size: u64, slots: usize) -> MkeyId {
        self.insert(MkeyTarget::Indirect {
            slot_size,
            slots: vec![None; slots],
        })
    }

    /// Points `slot` of the indirect key `root` at `inner`
    /// (or clears it with `None`).
    ///
    /// # Panics
    /// Panics if `root` is not an indirect key or `slot` is out of range —
    /// these are programming errors in the layer above, not wire events.
    pub fn set_indirect_slot(&mut self, root: MkeyId, slot: usize, inner: Option<MkeyId>) {
        match self.slab.get_mut(root.0 as usize) {
            Some(Some(MkeyTarget::Indirect { slots, .. })) => {
                slots[slot] = inner;
            }
            _ => panic!("mkey {root:?} is not an indirect key"),
        }
    }

    /// Translates `(mkey, offset)` for a write of `len` bytes.
    pub fn resolve(&self, mkey: MkeyId, offset: u64, len: u64) -> Result<Resolved, AccessError> {
        self.resolve_depth(mkey, offset, len, 0)
    }

    fn resolve_depth(
        &self,
        mkey: MkeyId,
        offset: u64,
        len: u64,
        depth: u32,
    ) -> Result<Resolved, AccessError> {
        if depth >= MAX_DEPTH {
            return Err(AccessError::TooDeep);
        }
        match self.get(mkey) {
            None => Err(AccessError::UnknownKey(mkey)),
            Some(MkeyTarget::Null) => Ok(Resolved::Null),
            Some(MkeyTarget::Direct { base, len: rlen }) => {
                if offset + len <= *rlen {
                    Ok(Resolved::Addr(base + offset))
                } else {
                    Err(AccessError::OutOfBounds)
                }
            }
            Some(MkeyTarget::Indirect { slot_size, slots }) => {
                let slot = (offset / slot_size) as usize;
                let inner_off = offset % slot_size;
                if slot >= slots.len() {
                    return Err(AccessError::OutOfBounds);
                }
                // A write must not straddle a slot boundary; SDR packets are
                // MTU-sized and slots are MTU-aligned so this never happens
                // in correct operation.
                if inner_off + len > *slot_size {
                    return Err(AccessError::OutOfBounds);
                }
                match slots[slot] {
                    None => Err(AccessError::EmptySlot),
                    Some(inner) => self.resolve_depth(inner, inner_off, len, depth + 1),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_key_translates_with_bounds_check() {
        let mut t = MkeyTable::new();
        let k = t.insert_direct(1000, 64);
        assert_eq!(t.resolve(k, 0, 64), Ok(Resolved::Addr(1000)));
        assert_eq!(t.resolve(k, 10, 4), Ok(Resolved::Addr(1010)));
        assert_eq!(t.resolve(k, 61, 4), Err(AccessError::OutOfBounds));
    }

    #[test]
    fn null_key_discards() {
        let mut t = MkeyTable::new();
        let k = t.insert_null();
        assert_eq!(t.resolve(k, 12345, 4096), Ok(Resolved::Null));
    }

    #[test]
    fn unknown_key_faults() {
        let t = MkeyTable::new();
        assert_eq!(
            t.resolve(MkeyId(99), 0, 1),
            Err(AccessError::UnknownKey(MkeyId(99)))
        );
    }

    #[test]
    fn indirect_key_implements_figure5_layout() {
        // Root key with M = 1024-byte slots; message i lands in slot i.
        let mut t = MkeyTable::new();
        let buf0 = t.insert_direct(0, 1024);
        let buf1 = t.insert_direct(4096, 1024);
        let root = t.insert_indirect(1024, 4);
        t.set_indirect_slot(root, 0, Some(buf0));
        t.set_indirect_slot(root, 1, Some(buf1));

        // Offset 100 → slot 0 at inner offset 100.
        assert_eq!(t.resolve(root, 100, 4), Ok(Resolved::Addr(100)));
        // Offset 1024+8 → slot 1 at inner offset 8 → 4096+8.
        assert_eq!(t.resolve(root, 1032, 4), Ok(Resolved::Addr(4104)));
        // Slot 2 is empty.
        assert_eq!(t.resolve(root, 2048, 4), Err(AccessError::EmptySlot));
        // Slot out of range.
        assert_eq!(t.resolve(root, 4096, 4), Err(AccessError::OutOfBounds));
    }

    #[test]
    fn completed_message_slot_redirects_to_null() {
        // The late-packet protection flips a slot from the buffer key to the
        // NULL key; subsequent writes resolve to Null (and will still CQE).
        let mut t = MkeyTable::new();
        let buf = t.insert_direct(0, 1024);
        let null = t.insert_null();
        let root = t.insert_indirect(1024, 2);
        t.set_indirect_slot(root, 0, Some(buf));
        assert_eq!(t.resolve(root, 0, 8), Ok(Resolved::Addr(0)));
        t.set_indirect_slot(root, 0, Some(null));
        assert_eq!(t.resolve(root, 0, 8), Ok(Resolved::Null));
    }

    #[test]
    fn removed_keys_fault_and_their_ids_are_recycled() {
        let mut t = MkeyTable::new();
        let a = t.insert_direct(0, 64);
        let b = t.insert_direct(64, 64);
        assert_eq!(t.len(), 2);
        assert!(matches!(
            t.remove(a),
            Some(MkeyTarget::Direct { base: 0, len: 64 })
        ));
        assert!(t.remove(a).is_none(), "double removal is a no-op");
        assert_eq!(t.resolve(a, 0, 1), Err(AccessError::UnknownKey(a)));
        assert_eq!(t.resolve(b, 0, 1), Ok(Resolved::Addr(64)));
        assert_eq!(t.len(), 1);
        // The freed id is reused: the table does not grow.
        let c = t.insert_direct(128, 64);
        assert_eq!(c, a);
        assert_eq!(t.resolve(c, 0, 1), Ok(Resolved::Addr(128)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn straddling_writes_fault() {
        let mut t = MkeyTable::new();
        let buf = t.insert_direct(0, 4096);
        let root = t.insert_indirect(1024, 4);
        t.set_indirect_slot(root, 0, Some(buf));
        t.set_indirect_slot(root, 1, Some(buf));
        assert_eq!(t.resolve(root, 1000, 100), Err(AccessError::OutOfBounds));
    }

    #[test]
    fn indirection_depth_is_bounded() {
        let mut t = MkeyTable::new();
        // Create a self-referential chain root -> root.
        let root = t.insert_indirect(1024, 1);
        t.set_indirect_slot(root, 0, Some(root));
        assert_eq!(t.resolve(root, 0, 4), Err(AccessError::TooDeep));
    }

    /// The streaming DMA write against `copy_from_slice` into a model:
    /// every length through 8 KiB + 1 (both sides of the cut, every
    /// head / whole-line / tail split) at every destination offset in a
    /// line, read back through each accessor in turn. A byte outside the
    /// destination moving, or one inside it missing, fails.
    #[test]
    fn dma_write_lands_exactly_what_a_copy_lands() {
        const SPAN: usize = 8 * 1024 + 1;
        let src: Vec<u8> = (0..SPAN).map(|i| (i * 131 + i / 251) as u8).collect();
        let mut m = Memory::new(2 * SPAN + 256);
        assert_eq!(
            m.read(0, 0).as_ptr() as usize % LINE,
            0,
            "address 0 is line-aligned"
        );
        let mut model = vec![0u8; m.capacity()];
        for len in 0..=SPAN {
            for off in 0..LINE {
                // Alternate the destination between two arenas so each
                // write lands on bytes the previous one did not.
                let addr = (64 + off + (len + off) % 2 * (SPAN + 64)) as u64;
                let data = &src[SPAN - len..];
                m.dma_write(addr, data);
                let a = addr as usize;
                model[a..a + len].copy_from_slice(data);
                let (lo, hi) = (a - 64, a + len + 64);
                match (len + off) % 3 {
                    0 => assert_eq!(m.read(lo as u64, hi - lo), &model[lo..hi]),
                    1 => {
                        let (got, _) = m.read_write((lo as u64, hi - lo), (0, 0));
                        assert_eq!(got, &model[lo..hi]);
                    }
                    _ => {
                        let (mid, n) = (a + len / 2, len.min(1));
                        m.fill(mid as u64, n, 0xA5);
                        model[mid..mid + n].fill(0xA5);
                        assert_eq!(m.read(lo as u64, hi - lo), &model[lo..hi]);
                    }
                }
            }
        }
    }

    /// Pages stamped since `clock`, asked one page at a time.
    fn marked(m: &Memory, clock: u64) -> Vec<usize> {
        (0..m.capacity().div_ceil(PAGE))
            .filter(|&p| {
                let len = PAGE.min(m.capacity() - p * PAGE);
                m.written_since((p * PAGE) as u64, len, clock)
            })
            .collect()
    }

    /// Byte ranges `(addr, len)` around page edges: a range's first or
    /// last byte on the first or last byte of a page, one byte, one
    /// page, several pages, and the short page at the end of the memory.
    const EDGES: [(usize, usize); 8] = [
        (0, 1),
        (PAGE - 1, 1),
        (PAGE - 1, 2),
        (PAGE, PAGE),
        (PAGE + 1, PAGE - 1),
        (PAGE, PAGE + 1),
        (3 * PAGE - 1, 2 * PAGE + 2),
        (8 * PAGE, 100),
    ];

    /// The pages `[addr, addr + len)` touches.
    fn pages_of((addr, len): (usize, usize)) -> Vec<usize> {
        (addr / PAGE..=(addr + len - 1) / PAGE).collect()
    }

    /// Each mutator marks exactly the pages of the range it hands out
    /// writable — no neighbour, none missing, not `read_write`'s read
    /// range — and only as news after the clock reading it follows.
    #[test]
    fn each_mutator_stamps_exactly_the_pages_of_its_ranges() {
        let far = (6 * PAGE + 10, 3); // read_write's other region
        for (i, &(addr, len)) in EDGES.iter().enumerate() {
            for mutator in 0..5 {
                let mut m = Memory::new(8 * PAGE + 100);
                m.write(0, &vec![1; m.capacity()]);
                let before = m.clock();
                assert!(marked(&m, before).is_empty());
                let data = vec![(i * 4 + mutator) as u8; len];
                let mut want = pages_of((addr, len));
                match mutator {
                    0 => m.write(addr as u64, &data),
                    1 => m.dma_write(addr as u64, &data),
                    2 => m.fill(addr as u64, len, 9),
                    _ if addr + len > far.0 => continue,
                    3 => {
                        let (_, w) = m.read_write((far.0 as u64, far.1), (addr as u64, len));
                        w.fill(3);
                    }
                    _ => {
                        let (_, w) = m.read_write((addr as u64, len), (far.0 as u64, far.1));
                        w.fill(4);
                        want = pages_of(far);
                    }
                }
                assert_eq!(
                    marked(&m, before),
                    want,
                    "mutator {mutator} on {addr}+{len}"
                );
                assert!(
                    marked(&m, m.clock()).is_empty(),
                    "a stamp is not news later"
                );
            }
        }
    }

    /// Reads, the allocator and zero-length calls mark nothing.
    #[test]
    fn reads_allocation_and_empty_calls_stamp_nothing() {
        let mut m = Memory::new(4 * PAGE);
        let before = m.clock();
        let a = m.alloc(PAGE as u64);
        let _ = m.read(0, 4 * PAGE);
        m.free(a, PAGE as u64);
        m.write(PAGE as u64, &[]);
        m.dma_write(PAGE as u64, &[]);
        m.fill(PAGE as u64, 0, 7);
        let _ = m.read_write((0, 0), (2 * PAGE as u64, 0));
        assert!(marked(&m, before).is_empty());
        assert!(
            !m.written_since(0, 0, before),
            "an empty range is never written"
        );
    }

    /// A duplicate landing: the second of two overlapping streamed writes
    /// wins every byte they share, whichever way they overlap.
    #[test]
    fn overlapping_dma_writes_leave_the_second_ones_bytes() {
        let (first, second) = (vec![1u8; 4096], vec![2u8; 4096]);
        for shift in [0usize, 1, 63, 64, 100, 4095] {
            let mut m = Memory::new(3 * 4096);
            m.dma_write(4096, &first);
            m.dma_write((4096 + shift) as u64, &second);
            let mut want = vec![0u8; 3 * 4096];
            want[4096..8192].fill(1);
            want[4096 + shift..8192 + shift].fill(2);
            assert_eq!(m.read(0, 3 * 4096), &want[..], "shift {shift}");
            m.dma_write((4096 - shift) as u64, &first);
            want[4096 - shift..8192 - shift].fill(1);
            assert_eq!(m.read(0, 3 * 4096), &want[..], "shift -{shift}");
        }
    }

    #[test]
    fn memory_alloc_write_read_roundtrip() {
        let mut m = Memory::new(4096);
        let a = m.alloc(128);
        let b = m.alloc(128);
        assert_ne!(a, b);
        m.write(b, &[1, 2, 3]);
        assert_eq!(m.read(b, 3), &[1, 2, 3]);
        m.fill(b, 3, 0);
        assert_eq!(m.read(b, 3), &[0, 0, 0]);
    }

    #[test]
    fn read_write_hands_out_two_disjoint_regions_in_either_order() {
        let mut m = Memory::new(256);
        let (lo, hi) = m.read_write((16, 8), (64, 4));
        assert_eq!(lo, &[0u8; 8]);
        hi.fill(2);
        let (hi, lo) = m.read_write((64, 4), (16, 8));
        assert_eq!(hi, &[2u8; 4]);
        lo.fill(1);
        assert_eq!(m.read(16, 8), &[1u8; 8]);
        // Adjacent and empty regions do not overlap.
        let (a, b) = m.read_write((0, 16), (16, 0));
        assert_eq!((a.len(), b.len()), (16, 0));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_panic() {
        let mut m = Memory::new(256);
        m.read_write((16, 8), (23, 4));
    }

    #[test]
    #[should_panic(expected = "node memory exhausted")]
    fn memory_exhaustion_panics() {
        let mut m = Memory::new(100);
        m.alloc(101);
    }

    #[test]
    fn freed_blocks_are_reused_lifo_by_exact_length() {
        let mut m = Memory::new(4096);
        let a = m.alloc(256);
        let b = m.alloc(256);
        let c = m.alloc(512);
        assert_eq!(m.high_water(), 1024);
        m.free(a, 256);
        m.free(b, 256);
        // No size classes, no splitting: other lengths bump the cursor.
        let d = m.alloc(128);
        assert_eq!(d, 1024);
        assert_eq!(m.high_water(), 1152);
        // Equal length: most recently freed first, cursor untouched.
        assert_eq!(m.alloc(256), b);
        assert_eq!(m.alloc(256), a);
        assert_eq!(m.high_water(), 1152);
        // The list is empty again: fresh memory.
        assert_eq!(m.alloc(256), 1152);
        m.free(c, 512);
        assert_eq!(m.alloc(512), c);
        // Exhaustion is about fresh memory only: recycling still works
        // on a full arena.
        let mut full = Memory::new(64);
        let x = full.alloc(64);
        full.free(x, 64);
        assert_eq!(full.alloc(64), x);
    }

    #[test]
    fn recycled_blocks_keep_their_bytes() {
        let mut m = Memory::new(256);
        let a = m.alloc(16);
        m.write(a, &[7; 16]);
        m.free(a, 16);
        assert_eq!(m.alloc(16), a);
        assert_eq!(m.read(a, 16), &[7; 16], "reuse does not clear");
    }

    #[test]
    #[should_panic(expected = "not a live block")]
    fn double_free_panics() {
        let mut m = Memory::new(256);
        let a = m.alloc(64);
        m.free(a, 64);
        m.free(a, 64);
    }

    #[test]
    #[should_panic(expected = "not a live block")]
    fn foreign_free_panics() {
        let mut m = Memory::new(256);
        let a = m.alloc(64);
        m.free(a + 8, 8);
    }

    #[test]
    #[should_panic(expected = "not a live block")]
    fn partial_free_panics() {
        let mut m = Memory::new(256);
        let a = m.alloc(64);
        m.free(a, 32);
    }

    mod allocator {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// Random alloc/free traffic over a few lengths, checked
            /// against a model: live blocks never overlap, a freed block
            /// is what the next equal-length alloc returns (LIFO), and the
            /// high-water mark moves only when the free list had nothing.
            #[test]
            fn live_blocks_never_overlap_and_reuse_is_lifo(
                ops in collection::vec((any::<bool>(), 0usize..4, any::<u16>()), 1..200),
            ) {
                const LENS: [u64; 4] = [16, 48, 64, 4096];
                let mut m = Memory::new(200 * 4096);
                let mut live: Vec<(u64, usize)> = Vec::new();
                let mut freed: [Vec<u64>; 4] = Default::default();
                for (alloc, which, pick) in ops {
                    if alloc || live.is_empty() {
                        let len = LENS[which];
                        let before = m.high_water();
                        let base = m.alloc(len);
                        match freed[which].pop() {
                            Some(expect) => {
                                prop_assert_eq!(base, expect, "LIFO reuse");
                                prop_assert_eq!(m.high_water(), before);
                            }
                            None => {
                                prop_assert_eq!(base, before, "fresh memory");
                                prop_assert_eq!(m.high_water(), before + len);
                            }
                        }
                        for &(b, w) in &live {
                            prop_assert!(base + len <= b || b + LENS[w] <= base, "overlap");
                        }
                        live.push((base, which));
                    } else {
                        let (base, which) = live.swap_remove(pick as usize % live.len());
                        m.free(base, LENS[which]);
                        freed[which].push(base);
                    }
                }
            }
        }
    }
}
