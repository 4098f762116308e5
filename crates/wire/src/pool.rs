//! Recycled 4 KiB block buffers for the data path.
//!
//! SOLAR's "one packet = one 4 KiB block" invariant (§4.2) means the hot
//! loops of both the simulator and a real initiator allocate, fill, CRC and
//! free the same-sized payload buffer millions of times. [`BlockPool`] turns
//! that churn into pointer swaps: buffers are handed out as writable
//! [`PooledBuf`]s, frozen into cheaply-cloneable [`PooledBytes`], and return
//! to the pool's free list when the **last** clone drops — including clones
//! that crossed into [`Bytes`] via [`bytes::ByteStorage`], so retransmit
//! queues and DPU pipeline stages keep recycling working end to end.
//!
//! The pool never changes behaviour, only allocation counts: when the free
//! list is empty it falls back to a plain heap allocation, and oversized
//! requests bypass the pool entirely (they are handed a dedicated buffer
//! that simply drops instead of recycling).

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use bytes::{ByteStorage, Bytes};

/// Counters describing how well a pool is recycling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers served from the free list (no allocation).
    pub hits: u64,
    /// Buffers served by a fresh heap allocation (cold pool or exhausted).
    pub misses: u64,
    /// Buffers returned to the free list on drop.
    pub recycled: u64,
    /// Buffers dropped for good (free list full, pool gone, or oversized).
    pub dropped: u64,
}

/// State shared by a pool and every buffer it has handed out. Buffers hold
/// it strongly, so a return is one lock with no `Weak` upgrade; the pool's
/// handles share one [`Owner`] whose drop closes it.
#[derive(Debug)]
struct Shared {
    block_size: usize,
    max_free: usize,
    free: Mutex<FreeList>,
}

/// Everything a take or a return touches, under one lock.
#[derive(Debug, Default)]
struct FreeList {
    bufs: Vec<Box<[u8]>>,
    /// Set when the last [`BlockPool`] handle drops: returns then free
    /// instead of parking, so a dead pool holds no memory.
    closed: bool,
    stats: PoolStats,
}

impl Shared {
    /// Lock the free list, recovering from poisoning: a poisoned mutex only
    /// means some other thread panicked mid push/pop, and a `Vec` is valid
    /// after any interrupted operation. This path runs inside `Drop` impls,
    /// where a second panic would abort the process — so keep recycling.
    fn free_list(&self) -> MutexGuard<'_, FreeList> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Give `buf` back; called from the drops of buffers `grab` made, so
    /// it is block-sized.
    fn put(&self, buf: Box<[u8]>) {
        let mut free = self.free_list();
        if !free.closed && free.bufs.len() < self.max_free {
            free.bufs.push(buf);
            free.stats.recycled += 1;
        } else {
            free.stats.dropped += 1;
        }
    }
}

/// The one value every [`BlockPool`] clone shares: when the last clone
/// drops, it closes the free list and frees what was parked there.
#[derive(Debug)]
struct Owner(Arc<Shared>);

impl Drop for Owner {
    fn drop(&mut self) {
        let parked = {
            let mut free = self.0.free_list();
            free.closed = true;
            std::mem::take(&mut free.bufs)
        };
        drop(parked); // freed outside the lock
    }
}

/// A slab of recycled, fixed-size (block-sized) byte buffers.
///
/// Cloning the pool is O(1) and shares the free list.
#[derive(Debug, Clone)]
pub struct BlockPool {
    owner: Arc<Owner>,
}

impl BlockPool {
    /// A pool of `block_size`-byte buffers keeping at most `max_free`
    /// buffers parked on the free list.
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize, max_free: usize) -> Self {
        assert!(block_size > 0, "block_size must be non-zero");
        let shared = Arc::new(Shared {
            block_size,
            max_free,
            free: Mutex::new(FreeList::default()),
        });
        BlockPool {
            owner: Arc::new(Owner(shared)),
        }
    }

    fn shared(&self) -> &Arc<Shared> {
        &self.owner.0
    }

    /// The fixed buffer size this pool recycles.
    pub fn block_size(&self) -> usize {
        self.shared().block_size
    }

    /// Buffers currently parked on the free list.
    pub fn free_blocks(&self) -> usize {
        self.shared().free_list().bufs.len()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.shared().free_list().stats
    }

    /// Pop a recycled buffer or allocate a fresh one. Returns the raw
    /// storage plus whether it came from the allocator (fresh ⇒ zeroed).
    fn grab(&self) -> (Box<[u8]>, bool) {
        let recycled = {
            let mut free = self.shared().free_list();
            let buf = free.bufs.pop();
            if buf.is_some() {
                free.stats.hits += 1;
            } else {
                free.stats.misses += 1;
            }
            buf
        };
        match recycled {
            Some(buf) => (buf, false),
            None => (vec![0u8; self.block_size()].into_boxed_slice(), true),
        }
    }

    /// An empty writable buffer with `block_size` capacity. Append with
    /// `put_slice` (via [`bytes::BufMut`]), then [`PooledBuf::freeze`].
    pub fn take(&self) -> PooledBuf {
        let (buf, _) = self.grab();
        PooledBuf {
            buf,
            len: 0,
            pool: Some(Arc::clone(self.shared())),
        }
    }

    /// A fully zeroed buffer of `block_size` length.
    pub fn take_zeroed(&self) -> PooledBuf {
        let (mut buf, fresh) = self.grab();
        if !fresh {
            buf.fill(0);
        }
        let len = buf.len();
        PooledBuf {
            buf,
            len,
            pool: Some(Arc::clone(self.shared())),
        }
    }

    /// A `len`-byte buffer whose contents `fill` writes — for producing a
    /// block from another one (cipher, copy-with-edit) in a single pass
    /// instead of copy-then-transform.
    ///
    /// `fill` is handed the buffer as the last user left it (recycled
    /// blocks are not cleared) and must overwrite all of it.
    ///
    /// If `len` exceeds the pool's block size the buffer is a plain
    /// (unpooled) allocation — behaviour is identical, it just won't
    /// recycle.
    pub fn take_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> PooledBuf {
        let (mut buf, pool) = if len > self.block_size() {
            self.shared().free_list().stats.dropped += 1;
            (vec![0u8; len].into_boxed_slice(), None)
        } else {
            (self.grab().0, Some(Arc::clone(self.shared())))
        };
        fill(&mut buf[..len]);
        PooledBuf { buf, len, pool }
    }

    /// A buffer initialised with a copy of `data` (unpooled, like
    /// [`BlockPool::take_with`], when `data` is longer than a block).
    pub fn take_copy(&self, data: &[u8]) -> PooledBuf {
        self.take_with(data.len(), |buf| buf.copy_from_slice(data))
    }
}

/// A writable, uniquely-owned buffer checked out of a [`BlockPool`].
///
/// Deref/DerefMut expose the `len` initialised bytes; capacity is the
/// pool's block size. Dropping it un-frozen returns the storage to the
/// pool; [`PooledBuf::freeze`] converts it into the shareable
/// [`PooledBytes`] without copying.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Box<[u8]>,
    len: usize,
    /// Where the storage returns on drop; `None` for an oversized buffer,
    /// and after `freeze` has moved the storage out.
    pool: Option<Arc<Shared>>,
}

impl PooledBuf {
    /// Total writable capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Initialised length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes have been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set the length to `new_len`, filling any growth with `value`.
    ///
    /// # Panics
    /// Panics if `new_len` exceeds the capacity.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        assert!(new_len <= self.buf.len(), "pooled buffer overflow");
        if new_len > self.len {
            self.buf[self.len..new_len].fill(value);
        }
        self.len = new_len;
    }

    /// Freeze into an immutable, cheaply-cloneable [`PooledBytes`]. No
    /// copy: the storage moves into a shared handle whose last drop still
    /// recycles into the originating pool.
    pub fn freeze(mut self) -> PooledBytes {
        let buf = std::mem::take(&mut self.buf);
        let len = self.len;
        let pool = self.pool.take();
        PooledBytes {
            inner: Arc::new(PooledBlock { buf, len, pool }),
        }
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.buf));
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len]
    }
}

impl bytes::BufMut for PooledBuf {
    /// # Panics
    /// Panics if the slice does not fit in the remaining capacity — pooled
    /// buffers are fixed-size by design.
    fn put_slice(&mut self, src: &[u8]) {
        let new_len = self.len + src.len();
        assert!(new_len <= self.buf.len(), "pooled buffer overflow");
        self.buf[self.len..new_len].copy_from_slice(src);
        self.len = new_len;
    }
}

/// The frozen storage node: owns the raw buffer, recycles it on drop.
#[derive(Debug)]
struct PooledBlock {
    buf: Box<[u8]>,
    len: usize,
    pool: Option<Arc<Shared>>,
}

impl ByteStorage for PooledBlock {
    fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl Drop for PooledBlock {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.buf));
        }
    }
}

/// An immutable, reference-counted view of a pooled block.
///
/// Clones are O(1); the storage returns to its pool when the last clone —
/// including any [`Bytes`] produced by [`PooledBytes::into_bytes`] — drops.
#[derive(Debug, Clone)]
pub struct PooledBytes {
    inner: Arc<PooledBlock>,
}

impl PooledBytes {
    /// Initialised length.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the block holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Convert into a [`Bytes`] handle without copying. The pooled storage
    /// rides along inside the `Bytes` and still recycles on last drop.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from_shared(self.inner)
    }
}

impl std::ops::Deref for PooledBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

impl AsRef<[u8]> for PooledBytes {
    fn as_ref(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

impl From<PooledBytes> for Bytes {
    fn from(p: PooledBytes) -> Bytes {
        p.into_bytes()
    }
}

// ---------------------------------------------------------------------------
// Per-thread default pool + shared zero region
// ---------------------------------------------------------------------------

/// Free-list bound for the per-thread default pool: enough to absorb a full
/// QP window of in-flight blocks without growing, small enough (16 MiB of
/// 4 KiB blocks) to be irrelevant next to the simulator's working set.
const DEFAULT_MAX_FREE: usize = 4096;

/// Size of the process-wide zero region served by [`zero_payload`]: covers
/// the largest I/O the experiments issue (256 KiB ablations) in one slice.
const ZERO_REGION: usize = 256 * 1024;

thread_local! {
    static TL_POOL: RefCell<Option<BlockPool>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's default [`BLOCK_SIZE`](crate::BLOCK_SIZE)
/// pool, creating it on first use.
pub fn with_default_pool<R>(f: impl FnOnce(&BlockPool) -> R) -> R {
    TL_POOL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let pool = slot.get_or_insert_with(|| BlockPool::new(crate::BLOCK_SIZE, DEFAULT_MAX_FREE));
        f(pool)
    })
}

/// Counters of this thread's default pool (zeros if never used).
pub fn default_pool_stats() -> PoolStats {
    TL_POOL.with(|slot| {
        slot.borrow()
            .as_ref()
            .map(BlockPool::stats)
            .unwrap_or_default()
    })
}

/// An empty writable 4 KiB buffer from this thread's default pool.
pub fn take_block() -> PooledBuf {
    with_default_pool(BlockPool::take)
}

/// Copy `data` into a pooled block and return it as `Bytes`. Falls back to
/// a plain allocation when `data` exceeds 4 KiB.
pub fn block_from(data: &[u8]) -> Bytes {
    with_default_pool(|p| p.take_copy(data).freeze().into_bytes())
}

/// An all-zero payload of arbitrary length in O(1): a view into one shared,
/// immutable, process-wide zero region (latency/throughput simulations
/// carry zeroed payloads whose *length* is what matters). Lengths above the
/// region size fall back to a plain allocation.
pub fn zero_payload(len: usize) -> Bytes {
    if len == 0 {
        return Bytes::new();
    }
    if len <= ZERO_REGION {
        static ZEROS: OnceLock<Bytes> = OnceLock::new();
        return ZEROS
            .get_or_init(|| Bytes::from(vec![0u8; ZERO_REGION]))
            .slice(..len);
    }
    Bytes::from(vec![0u8; len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn buffers_recycle_through_freeze_and_bytes() {
        let pool = BlockPool::new(4096, 8);
        let mut buf = pool.take();
        buf.put_slice(b"block data");
        let frozen = buf.freeze();
        let as_bytes: Bytes = frozen.clone().into_bytes();
        assert_eq!(&as_bytes[..], b"block data");
        drop(frozen);
        assert_eq!(pool.free_blocks(), 0, "a Bytes clone still holds it");
        drop(as_bytes);
        assert_eq!(pool.free_blocks(), 1, "last drop recycles");
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.recycled), (1, 1));
    }

    #[test]
    fn steady_state_serves_from_free_list() {
        let pool = BlockPool::new(4096, 8);
        for _ in 0..100 {
            let b = pool.take_zeroed();
            drop(b.freeze());
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "one cold allocation, then reuse");
        assert_eq!(stats.hits, 99);

        // A queue depth of 8: eight live buffers cost eight allocations
        // in the first round and none after.
        let pool = BlockPool::new(4096, 64);
        for _ in 0..100 {
            let live: Vec<_> = (0..8).map(|_| pool.take()).collect();
            drop(live);
        }
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (8, 99 * 8));
    }

    #[test]
    fn recycled_zeroed_buffers_are_actually_zero() {
        let pool = BlockPool::new(64, 8);
        {
            let mut dirty = pool.take_zeroed();
            dirty.fill(0xAB);
        }
        let clean = pool.take_zeroed();
        assert!(clean.iter().all(|&b| b == 0));
        assert_eq!(clean.len(), 64);
        drop(clean);
        // A plain `take` of the same recycled block starts empty.
        let empty = pool.take();
        assert!(empty.is_empty());
        assert!(empty.capacity() >= 64);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BlockPool::new(64, 2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.free_blocks(), 2);
        assert_eq!(pool.stats().dropped, 3);
    }

    #[test]
    fn oversized_copy_falls_back_without_recycling() {
        let pool = BlockPool::new(16, 8);
        let big = pool.take_copy(&[7u8; 100]);
        assert_eq!(big.len(), 100);
        assert_eq!(&big[..4], &[7, 7, 7, 7]);
        drop(big);
        assert_eq!(pool.free_blocks(), 0, "oversized buffers do not recycle");
    }

    #[test]
    fn take_with_fills_a_recycled_block_in_one_pass() {
        let pool = BlockPool::new(8, 4);
        drop(pool.take_copy(&[0xFF; 8])); // leave a dirty block behind
        let src = [1u8, 2, 3, 4, 5];
        let buf = pool.take_with(src.len(), |out| {
            for (o, s) in out.iter_mut().zip(src) {
                *o = s ^ 0x80;
            }
        });
        assert_eq!(&buf[..], &[0x81, 0x82, 0x83, 0x84, 0x85]);
        assert_eq!(pool.stats().hits, 1, "served from the free list");
        drop(buf);
        assert_eq!(pool.free_blocks(), 1, "and recycled again");
        // Oversized: same contents, plain allocation.
        let big = pool.take_with(20, |out| out.fill(7));
        assert_eq!(&big[..], &[7; 20]);
        drop(big);
        assert_eq!(pool.free_blocks(), 1);
    }

    #[test]
    fn pool_death_orphans_outstanding_buffers_safely() {
        let pool = BlockPool::new(64, 8);
        let held = pool.take_copy(b"still valid");
        let frozen = pool.take_copy(b"frozen").freeze().into_bytes();
        drop(pool.take()); // parked on the free list
        let shared = Arc::clone(held.pool.as_ref().unwrap());
        assert_eq!(shared.free_list().bufs.len(), 1);
        let clone = pool.clone();
        drop(pool);
        assert!(!shared.free_list().closed, "a clone keeps the pool open");
        drop(clone);
        let free = shared.free_list();
        assert!(
            free.closed && free.bufs.is_empty(),
            "the last handle frees what was parked"
        );
        drop(free);
        assert_eq!(&held[..], b"still valid");
        assert_eq!(&frozen[..], b"frozen");
        drop(held); // must not panic; buffer just frees
        drop(frozen);
        assert!(
            shared.free_list().bufs.is_empty(),
            "returns after death are not parked"
        );
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "no buffer still holds the pool"
        );
    }

    #[test]
    fn resize_and_bufmut_respect_capacity() {
        let pool = BlockPool::new(32, 4);
        let mut b = pool.take();
        b.put_u32(0xDEAD_BEEF);
        b.resize(8, 0xFF);
        assert_eq!(&b[..], &[0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(b.capacity(), 32);
    }

    #[test]
    fn zero_payload_is_shared_and_correct() {
        let a = zero_payload(4096);
        let b = zero_payload(256 * 1024);
        assert_eq!(a.len(), 4096);
        assert_eq!(b.len(), 256 * 1024);
        assert!(a.iter().all(|&x| x == 0));
        assert!(zero_payload(0).is_empty());
        // Oversized lengths still work (plain allocation fallback).
        assert_eq!(zero_payload(ZERO_REGION + 1).len(), ZERO_REGION + 1);
    }

    #[test]
    fn default_pool_helpers_recycle() {
        let before = default_pool_stats();
        for _ in 0..10 {
            drop(block_from(b"abc"));
        }
        let after = default_pool_stats();
        let new_misses = after.misses - before.misses;
        assert!(new_misses <= 1, "steady state allocates at most once");
    }
}
