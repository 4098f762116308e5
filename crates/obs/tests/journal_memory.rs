//! Memory pin of the journal's ring: a full journal of capacity `N` owns
//! at most `26·N` heap bytes plus a small constant (the site table), so
//! the packed layout cannot silently grow back to whole `Event`s (64 B).
//!
//! The measure is a counting [`GlobalAlloc`] wrapper that tracks live heap
//! bytes; the journal is filled past its capacity, so the ring has wrapped
//! and every slot holds an event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ebs_obs::{Journal, DEFAULT_CAPACITY};
use ebs_sim::SimTime;

/// Tracks live heap bytes: allocations minus frees.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: pure pass-through to `System`; the only extra work is an atomic
// add, which allocates nothing.
unsafe impl GlobalAlloc for LiveBytes {
    // SAFETY contract: same as `System::alloc` — the layout is forwarded
    // untouched, so the returned pointer obeys it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY contract: same as `System::dealloc` — pointer and layout are
    // forwarded verbatim from a matching `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from the matching `alloc` call.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY contract: same as `System::realloc` — arguments forwarded
    // verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded
        // verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static SPY: LiveBytes = LiveBytes;

/// Bytes a retained event may cost: a 24-byte record and a 2-byte code.
const BYTES_PER_EVENT: i64 = 26;

/// The site table of the handful of sites below, and allocator rounding.
const SLACK: i64 = 1 << 10;

/// Heap bytes a journal of capacity `cap` owns once it has wrapped.
fn full_journal_bytes(cap: usize) -> i64 {
    let before = LIVE.load(Ordering::Relaxed);
    let mut j = Journal::with_capacity(cap);
    for i in 0..(2 * cap as u64 + 3) {
        let at = SimTime::from_nanos(i);
        match i % 4 {
            0 => j.span("io", "write", i, at, at),
            1 => j.span("sa", "write", i, at, at),
            2 => j.instant(at, "io", "submit", i, i << 1),
            _ => j.counter(at, "net", "queued", i as i64),
        }
    }
    let owned = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(j.len(), cap);
    drop(j);
    owned
}

/// One test only: the counter is process-wide, and the harness runs the
/// tests of a binary on parallel threads.
#[test]
fn a_full_journal_owns_26_bytes_per_event() {
    for cap in [1, 7, 100, 4096, DEFAULT_CAPACITY] {
        let owned = full_journal_bytes(cap);
        let ring = BYTES_PER_EVENT * cap as i64;
        assert!(
            (ring..=ring + SLACK).contains(&owned),
            "capacity {cap}: owns {owned} B, ring alone is {ring} B"
        );
    }
}
