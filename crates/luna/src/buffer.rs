//! Zero-copy buffer pool.
//!
//! LUNA's first big win over kernel TCP is a zero-copy design *across SA
//! and RPC*: buffers are recycled and shared between layers instead of
//! copied at each boundary (§3.2). This pool is a LUNA-flavoured front for
//! the workspace-wide [`ebs_wire::BlockPool`]: it hands out writable
//! buffers whose storage keeps recycling even after they are frozen into
//! [`bytes::Bytes`] and shipped through the RPC layer.
//!
//! Which boundaries are copy-free, exactly (pinned by
//! `tests/alloc_free.rs`):
//!
//! * buffer → `Bytes` ([`PooledBuf::freeze`]): the storage moves, and
//!   returns here when the last view drops;
//! * `Bytes` → stream ([`crate::RpcClient::call`], `RpcServer::respond`):
//!   the frame is queued as a 40-byte header view plus the payload handle;
//! * stream → segments → stream (`ebs-tcp`): segmentation splits views,
//!   a segment that straddles two writes carries a view of each,
//!   retransmission and reassembly clone and reorder handles;
//! * stream → frame (`ebs_wire::FrameDecoder`): the payload's
//!   segment-sized views are rejoined into one slice of the sender's
//!   buffer. Only views that are *not* adjacent in one storage — a peer
//!   that built its payload from unrelated allocations — are gathered,
//!   with a single exact-size copy.
//!
//! What still copies: [`BufferPool::take_copy`] (that is its job) and
//! `RpcFrame::to_bytes`, which message transports that need one
//! contiguous buffer (the RDMA baseline) still use.

use ebs_wire::{BlockPool, PooledBuf};

/// A recycling pool of fixed-size buffers.
#[derive(Debug, Clone)]
pub struct BufferPool {
    pool: BlockPool,
}

impl BufferPool {
    /// A pool of `buf_size`-byte buffers, keeping at most `max_free`
    /// spares.
    ///
    /// # Panics
    /// Panics if `buf_size` is zero.
    pub fn new(buf_size: usize, max_free: usize) -> Self {
        BufferPool {
            pool: BlockPool::new(buf_size, max_free),
        }
    }

    /// Take an empty buffer (recycled when possible). Freeze it into
    /// [`bytes::Bytes`] with [`PooledBuf::freeze`] for the RPC layer;
    /// dropping either form returns the storage here.
    pub fn take(&self) -> PooledBuf {
        self.pool.take()
    }

    /// Take a buffer pre-filled with a copy of `data` (oversized data
    /// falls back to a plain allocation that will not recycle).
    pub fn take_copy(&self, data: &[u8]) -> PooledBuf {
        self.pool.take_copy(data)
    }

    /// Fresh allocations performed.
    pub fn allocations(&self) -> u64 {
        self.pool.stats().misses
    }

    /// Buffers served from the free list.
    pub fn reuses(&self) -> u64 {
        self.pool.stats().hits
    }

    /// Spares currently pooled.
    pub fn free_buffers(&self) -> usize {
        self.pool.free_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_stops_allocating() {
        let pool = BufferPool::new(4096, 64);
        // Simulate a queue depth of 8 in steady state.
        let mut live = Vec::new();
        for round in 0..100 {
            for _ in 0..8 {
                live.push(pool.take());
            }
            live.clear(); // drop returns the storage
            if round == 0 {
                assert_eq!(pool.allocations(), 8);
            }
        }
        assert_eq!(pool.allocations(), 8, "no allocation after warm-up");
        assert_eq!(pool.reuses(), 99 * 8);
    }

    #[test]
    fn recycling_survives_freeze_into_bytes() {
        // The property the old Vec<BytesMut> pool lacked: a buffer frozen
        // and shipped as `Bytes` still comes home when the last clone
        // drops.
        let pool = BufferPool::new(4096, 64);
        for round in 0..50 {
            let mut b = pool.take();
            b.resize(4096, 0xA5);
            let frozen: bytes::Bytes = b.freeze().into_bytes();
            let clone = frozen.clone();
            drop(frozen);
            assert_eq!(clone.len(), 4096);
            drop(clone);
            if round > 0 {
                assert_eq!(pool.allocations(), 1, "round {round} allocated");
            }
        }
    }

    #[test]
    fn recycled_buffers_start_empty() {
        let pool = BufferPool::new(64, 4);
        {
            let mut b = pool.take();
            b.resize(5, b'x');
        }
        let b2 = pool.take();
        assert!(b2.is_empty());
        assert!(b2.capacity() >= 64);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufferPool::new(64, 2);
        let bufs: Vec<PooledBuf> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn oversized_copies_do_not_pollute_the_pool() {
        let pool = BufferPool::new(16, 4);
        let big = pool.take_copy(&[1u8; 64]);
        assert_eq!(big.len(), 64);
        drop(big);
        assert_eq!(pool.free_buffers(), 0);
    }
}
