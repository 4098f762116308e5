//! The split virtqueue: descriptor table + available ring + used ring as
//! one pure state machine.
//!
//! The shape is virtio's: `cap` descriptors (power of two), a free list
//! threaded through the descriptor table's `next` fields, an avail ring
//! the driver appends to and a used ring the device appends to, both with
//! free-running `u16` indices masked by `cap - 1`. Because completion
//! frees descriptors through the free list, the device may complete
//! requests in **any order** — out-of-order delivery is the normal case
//! on a multi-path storage fabric, not an exception.
//!
//! The ring owns no payloads; requests are [`BlkReq`] descriptions and
//! the host moves data through the `ebs-wire` block pool. What the ring
//! *does* guarantee is conservation: every descriptor is at all times in
//! exactly one of three places — the free list, device-held, or parked in
//! the used ring awaiting [`VirtQueue::poll_used`] — and
//! [`VirtQueue::check_conservation`] proves it (the chaos oracle calls it
//! at quiesce).

use ebs_wire::BLK_S_UNSUPP;

use crate::pushdown::StorageFn;

/// What a ring request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read `blocks` 4 KiB blocks starting at `first_block`.
    Read,
    /// Write `blocks` 4 KiB blocks starting at `first_block`.
    Write,
    /// Flush the write-back cache (block range ignored).
    Flush,
    /// Discard the block range.
    Discard,
    /// Execute a storage function over the block range.
    Pushdown(StorageFn),
}

/// One ring request: a kind plus the virtual-disk block range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkReq {
    /// Request kind.
    pub kind: ReqKind,
    /// Virtual disk id.
    pub vd_id: u64,
    /// First 4 KiB block.
    pub first_block: u64,
    /// Block count (0 allowed only for Flush).
    pub blocks: u32,
}

impl BlkReq {
    /// A read of `blocks` blocks starting at `first_block`.
    pub fn read(vd_id: u64, first_block: u64, blocks: u32) -> Self {
        BlkReq {
            kind: ReqKind::Read,
            vd_id,
            first_block,
            blocks,
        }
    }

    /// A write of `blocks` blocks starting at `first_block`.
    pub fn write(vd_id: u64, first_block: u64, blocks: u32) -> Self {
        BlkReq {
            kind: ReqKind::Write,
            vd_id,
            first_block,
            blocks,
        }
    }

    /// A cache flush (covers no blocks).
    pub fn flush(vd_id: u64) -> Self {
        BlkReq {
            kind: ReqKind::Flush,
            vd_id,
            first_block: 0,
            blocks: 0,
        }
    }

    /// A discard of `blocks` blocks starting at `first_block`.
    pub fn discard(vd_id: u64, first_block: u64, blocks: u32) -> Self {
        BlkReq {
            kind: ReqKind::Discard,
            vd_id,
            first_block,
            blocks,
        }
    }

    /// A storage-function pushdown over `blocks` blocks starting at
    /// `first_block`.
    pub fn pushdown(vd_id: u64, first_block: u64, blocks: u32, func: StorageFn) -> Self {
        BlkReq {
            kind: ReqKind::Pushdown(func),
            vd_id,
            first_block,
            blocks,
        }
    }
}

/// Submit failed: every descriptor is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

impl core::fmt::Display for RingFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "virtqueue full: no free descriptors")
    }
}

/// A completion the driver reaped from the used ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Head descriptor index of the completed request.
    pub desc: u16,
    /// Completion status (`BLK_S_OK`, ...).
    pub status: u8,
    /// Device-written bytes.
    pub len: u32,
    /// The request as submitted (the ring keeps it so the driver needs no
    /// side table).
    pub req: BlkReq,
}

#[derive(Debug, Clone, Copy)]
struct DescSlot {
    req: BlkReq,
    next_free: u16,
    held: bool,
}

#[derive(Debug, Clone, Copy)]
struct UsedSlot {
    desc: u16,
    status: u8,
    len: u32,
}

/// One split virtqueue (see module docs).
#[derive(Debug)]
pub struct VirtQueue {
    cap: u16,
    desc: Vec<DescSlot>,
    free_head: u16,
    free_count: u16,
    avail: Vec<u16>,
    avail_idx: u16,
    avail_seen: u16,
    used: Vec<UsedSlot>,
    used_idx: u16,
    used_seen: u16,
    submitted: u64,
    completed: u64,
}

const NO_FREE: u16 = u16::MAX;

impl VirtQueue {
    /// A queue with `cap` descriptors. `cap` must be a nonzero power of
    /// two ≤ 32768 (checked by [`crate::negotiate`]; a bad value here
    /// saturates to the nearest valid one rather than panicking).
    pub fn new(cap: u16) -> Self {
        let cap = cap.clamp(1, 1 << 15).next_power_of_two();
        let idle = BlkReq {
            kind: ReqKind::Flush,
            vd_id: 0,
            first_block: 0,
            blocks: 0,
        };
        let mut desc = Vec::with_capacity(cap as usize);
        for i in 0..cap {
            desc.push(DescSlot {
                req: idle,
                next_free: if i + 1 < cap { i + 1 } else { NO_FREE },
                held: false,
            });
        }
        VirtQueue {
            cap,
            desc,
            free_head: 0,
            free_count: cap,
            avail: vec![0; cap as usize],
            avail_idx: 0,
            avail_seen: 0,
            used: vec![
                UsedSlot {
                    desc: 0,
                    status: BLK_S_UNSUPP,
                    len: 0
                };
                cap as usize
            ],
            used_idx: 0,
            used_seen: 0,
            submitted: 0,
            completed: 0,
        }
    }

    #[inline]
    fn mask(&self, idx: u16) -> usize {
        (idx & (self.cap - 1)) as usize
    }

    /// Descriptor capacity.
    pub fn capacity(&self) -> u16 {
        self.cap
    }

    /// Free descriptors available for submission.
    pub fn free_descs(&self) -> u16 {
        self.free_count
    }

    /// Descriptors currently held by the device (popped, not yet pushed
    /// used).
    pub fn in_flight(&self) -> usize {
        self.desc.iter().filter(|d| d.held).count()
    }

    /// Total requests ever submitted on this queue.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total completions ever reaped from this queue.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    // --- driver side -------------------------------------------------------

    /// Driver: allocate a descriptor for `req` and publish it on the
    /// available ring. Returns the descriptor index.
    pub fn submit(&mut self, req: BlkReq) -> Result<u16, RingFull> {
        if self.free_count == 0 {
            return Err(RingFull);
        }
        let d = self.free_head;
        let slot = &mut self.desc[d as usize];
        self.free_head = slot.next_free;
        self.free_count -= 1;
        slot.req = req;
        slot.next_free = NO_FREE;
        let at = self.mask(self.avail_idx);
        self.avail[at] = d;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        self.submitted += 1;
        Ok(d)
    }

    /// Driver: reap the next completion from the used ring, freeing its
    /// descriptor. Returns None when the used ring is empty.
    pub fn poll_used(&mut self) -> Option<Completion> {
        if self.used_seen == self.used_idx {
            return None;
        }
        let at = self.mask(self.used_seen);
        self.used_seen = self.used_seen.wrapping_add(1);
        let u = self.used[at];
        let slot = &mut self.desc[u.desc as usize];
        let req = slot.req;
        slot.held = false;
        slot.next_free = self.free_head;
        self.free_head = u.desc;
        self.free_count += 1;
        self.completed += 1;
        Some(Completion {
            desc: u.desc,
            status: u.status,
            len: u.len,
            req,
        })
    }

    // --- device side -------------------------------------------------------

    /// Device: pop the next submission off the available ring. Returns
    /// the descriptor index and the request it carries.
    pub fn pop_avail(&mut self) -> Option<(u16, BlkReq)> {
        if self.avail_seen == self.avail_idx {
            return None;
        }
        let at = self.mask(self.avail_seen);
        self.avail_seen = self.avail_seen.wrapping_add(1);
        let d = self.avail[at];
        self.desc[d as usize].held = true;
        Some((d, self.desc[d as usize].req))
    }

    /// Device: complete descriptor `d` with `status`, delivering `len`
    /// device-written bytes. Descriptors may complete in any order.
    /// Completing a descriptor the device does not hold is ignored (a
    /// duplicate response after a retransmit race).
    pub fn push_used(&mut self, d: u16, status: u8, len: u32) {
        if d >= self.cap || !self.desc[d as usize].held {
            return;
        }
        self.desc[d as usize].held = false;
        // Park it in the used ring; poll_used() returns it to the free
        // list. Mark non-held so a duplicate push is dropped above, but
        // conservation counts it as "pending used" until reaped.
        let at = self.mask(self.used_idx);
        self.used[at] = UsedSlot {
            desc: d,
            status,
            len,
        };
        self.used_idx = self.used_idx.wrapping_add(1);
    }

    // --- invariants --------------------------------------------------------

    /// The conservation invariant: free + device-held + used-pending +
    /// avail-pending equals capacity. Returns `(free, held, used_pending,
    /// avail_pending)` on success, or an error string naming the leak.
    pub fn check_conservation(&self) -> Result<(u16, usize, u16, u16), String> {
        let free = self.free_count;
        let held = self.in_flight();
        let used_pending = self.used_idx.wrapping_sub(self.used_seen);
        let avail_pending = self.avail_idx.wrapping_sub(self.avail_seen);
        let total = free as usize + held + used_pending as usize + avail_pending as usize;
        if total != self.cap as usize {
            return Err(format!(
                "descriptor leak: free={free} held={held} used_pending={used_pending} \
                 avail_pending={avail_pending} != cap={}",
                self.cap
            ));
        }
        // Walk the free list and make sure it really has `free` nodes.
        let mut n = 0u32;
        let mut cur = self.free_head;
        while cur != NO_FREE && n <= self.cap as u32 {
            n += 1;
            cur = self.desc[cur as usize].next_free;
        }
        if n != free as u32 {
            return Err(format!("free list length {n} != free_count {free}"));
        }
        Ok((free, held, used_pending, avail_pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_wire::{BLK_S_IOERR, BLK_S_OK};

    fn rd(first: u64, blocks: u32) -> BlkReq {
        BlkReq {
            kind: ReqKind::Read,
            vd_id: 1,
            first_block: first,
            blocks,
        }
    }

    #[test]
    fn submit_pop_complete_poll_roundtrip() {
        let mut q = VirtQueue::new(8);
        let d = q.submit(rd(10, 4)).unwrap();
        let (pd, req) = q.pop_avail().unwrap();
        assert_eq!(pd, d);
        assert_eq!(req, rd(10, 4));
        q.push_used(d, BLK_S_OK, 4 * 4096);
        let c = q.poll_used().unwrap();
        assert_eq!(c.desc, d);
        assert_eq!(c.status, BLK_S_OK);
        assert_eq!(c.len, 4 * 4096);
        assert_eq!(c.req, rd(10, 4));
        assert_eq!(q.free_descs(), 8);
        q.check_conservation().unwrap();
    }

    #[test]
    fn ring_full_at_capacity_then_recovers() {
        let mut q = VirtQueue::new(4);
        let mut descs = vec![];
        for i in 0..4 {
            descs.push(q.submit(rd(i, 1)).unwrap());
        }
        assert_eq!(q.submit(rd(99, 1)), Err(RingFull));
        q.check_conservation().unwrap();
        // Drain one and the ring accepts again.
        let (d, _) = q.pop_avail().unwrap();
        q.push_used(d, BLK_S_OK, 4096);
        assert!(q.poll_used().is_some());
        assert!(q.submit(rd(100, 1)).is_ok());
        q.check_conservation().unwrap();
    }

    #[test]
    fn indices_wrap_past_u16_boundary() {
        // Free-running u16 indices must survive wrap-around: run enough
        // submit/complete cycles on a tiny ring to wrap all counters.
        let mut q = VirtQueue::new(4);
        for i in 0..70_000u64 {
            let d = q.submit(rd(i, 1)).unwrap();
            let (pd, _) = q.pop_avail().unwrap();
            assert_eq!(pd, d);
            q.push_used(pd, BLK_S_OK, 4096);
            let c = q.poll_used().unwrap();
            assert_eq!(c.desc, d);
        }
        assert_eq!(q.submitted(), 70_000);
        assert_eq!(q.completed(), 70_000);
        assert_eq!(q.free_descs(), 4);
        q.check_conservation().unwrap();
    }

    #[test]
    fn out_of_order_completion_delivers_in_completion_order() {
        let mut q = VirtQueue::new(8);
        let a = q.submit(rd(1, 1)).unwrap();
        let b = q.submit(rd(2, 1)).unwrap();
        let c = q.submit(rd(3, 1)).unwrap();
        for _ in 0..3 {
            q.pop_avail().unwrap();
        }
        // Complete in reverse submission order.
        q.push_used(c, BLK_S_OK, 4096);
        q.push_used(a, BLK_S_IOERR, 0);
        q.push_used(b, BLK_S_OK, 4096);
        let got: Vec<(u16, u8)> = core::iter::from_fn(|| q.poll_used())
            .map(|x| (x.desc, x.status))
            .collect();
        assert_eq!(got, vec![(c, BLK_S_OK), (a, BLK_S_IOERR), (b, BLK_S_OK)]);
        q.check_conservation().unwrap();
        assert_eq!(q.free_descs(), 8);
    }

    #[test]
    fn duplicate_push_used_is_dropped() {
        let mut q = VirtQueue::new(4);
        let d = q.submit(rd(5, 1)).unwrap();
        q.pop_avail().unwrap();
        q.push_used(d, BLK_S_OK, 4096);
        q.push_used(d, BLK_S_OK, 4096); // retransmit race: second response ignored
        assert!(q.poll_used().is_some());
        assert!(q.poll_used().is_none());
        assert_eq!(q.free_descs(), 4);
        q.check_conservation().unwrap();
    }

    #[test]
    fn reused_descriptor_carries_fresh_request() {
        let mut q = VirtQueue::new(1);
        let d1 = q.submit(rd(1, 1)).unwrap();
        let (p1, _) = q.pop_avail().unwrap();
        q.push_used(p1, BLK_S_OK, 4096);
        assert_eq!(q.poll_used().unwrap().req, rd(1, 1));
        let d2 = q.submit(rd(2, 2)).unwrap();
        assert_eq!(d1, d2, "single-slot ring reuses the descriptor");
        let (_, req) = q.pop_avail().unwrap();
        assert_eq!(req, rd(2, 2));
    }
}
