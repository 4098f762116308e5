//! `block_crc_raw` on a short block is the CRC of its zero-padded copy —
//! computed without making that copy. The proof of "without" is the
//! counting [`GlobalAlloc`] wrapper of `crates/solar/tests/alloc_free.rs`:
//! while armed it counts every allocation, of any size. This file holds a
//! single test so that nothing else in the process allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ebs_crc::{block_crc_raw, crc32_raw};

/// Counts allocations while armed.
struct AllocSpy;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the only extra work is two atomic
// reads/writes, which allocate nothing.
unsafe impl GlobalAlloc for AllocSpy {
    // SAFETY contract: same as `System::alloc` — we forward the layout
    // untouched, so the returned pointer obeys it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY contract: same as `System::dealloc` — pointer and layout are
    // forwarded verbatim from a matching `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from the matching `alloc` call.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY contract: same as `System::realloc` — arguments forwarded
    // verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded
        // verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static SPY: AllocSpy = AllocSpy;

#[test]
fn short_blocks_match_the_padded_copy_without_allocating() {
    const BLOCK: usize = 4096;
    let data: Vec<u8> = (0..BLOCK as u32).map(|i| (i * 131 + 17) as u8).collect();
    // First use builds this thread's CRC engine; keep that out of the count.
    block_crc_raw(&data[..1], BLOCK);
    for len in 0..=BLOCK {
        let mut padded = vec![0u8; BLOCK];
        padded[..len].copy_from_slice(&data[..len]);
        let want = crc32_raw(&padded);

        ARMED.store(true, Ordering::SeqCst);
        let got = block_crc_raw(&data[..len], BLOCK);
        ARMED.store(false, Ordering::SeqCst);
        assert_eq!(got, want, "len {len}");
    }
    assert_eq!(ALLOCS.load(Ordering::SeqCst), 0, "block_crc_raw allocated");
}
