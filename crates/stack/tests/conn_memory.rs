//! Memory pin of a SOLAR connection: the live heap one (compute, storage)
//! pair holds once its connection is open and running, client and server
//! side together, must stay small — the responder keeps only per-path
//! sequence counters, and the client's per-path state is a few scalars and
//! a congestion controller.
//!
//! The measure is a counting [`GlobalAlloc`] wrapper that tracks live heap
//! bytes, read at steady state in two flat SOLAR cells that differ only in
//! how many pairs their disks span: every pair of a 12 × 12 cell, against
//! one storage server per compute. The same computes issue the same I/Os
//! at the same instants in both, so traces, journals, the fabric and the
//! event queue cost the same, and the difference divided by the extra
//! pairs is what one pair costs (its fabric route-cache entries and the
//! compute's larger segment table included).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ebs_sa::{IoKind, IoRequest, BLOCK_SIZE, SEGMENT_BLOCKS};
use ebs_sim::SimTime;
use ebs_stack::{Testbed, TestbedConfig, Variant};

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

/// Servers per side of the cell.
const SERVERS: usize = 12;

/// I/Os each compute issues: one per (disk, segment) of the spread cell.
const IOS: u64 = 64;

/// Live heap bytes one open pair may hold at steady state: the two
/// connection slots, the client's path table (hot records, cold records
/// with their HPCC hop tables) and the responder's counters — about
/// 1.7 KB — plus about 1.9 KB the client's per-packet maps and queues keep
/// allocated between I/Os at this load.
const BYTES_PER_PAIR: i64 = 4 << 10;

/// Live heap of a 12 × 12 SOLAR cell once every compute has issued
/// [`IOS`] 16 KiB I/Os (reads and writes, one per 100 µs) and all of them
/// completed, and the (compute, storage) pairs it opened. With `spread`
/// the I/Os of a compute cycle over its 16 disks of 4 segments, which span
/// every storage server; without, they go to its one single-segment disk,
/// which lives on one. Both cells issue the same I/Os at the same instants.
fn steady_state(spread: bool) -> (i64, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    let mut cfg = TestbedConfig::small(Variant::Solar, SERVERS, SERVERS);
    (cfg.vds_per_compute, cfg.vd_segments) = if spread { (16, 4) } else { (1, 1) };
    let n_paths = cfg.solar.n_paths as u64;
    let mut tb = Testbed::new(cfg);
    let segment_bytes = SEGMENT_BLOCKS * BLOCK_SIZE as u64;
    for c in 0..SERVERS {
        for k in 0..IOS {
            let (vd, segment) = if spread {
                (c as u64 * 16 + k / 4, k % 4)
            } else {
                (c as u64, 0)
            };
            let io = IoRequest {
                vd_id: vd,
                kind: if k % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                offset: segment * segment_bytes + (k % 8) * (16 << 10),
                len: 16 << 10,
            };
            tb.schedule_io(SimTime::from_micros(1_000 + 100 * k), c, io);
        }
    }
    tb.run_until(SimTime::from_millis(20));
    assert_eq!(tb.outstanding_ios(), 0, "every I/O completes");
    tb.sample_obs();
    let live = LIVE.load(Ordering::Relaxed) - before;
    // Every open client connection observes its paths' windows once.
    let windows = tb.metrics().histogram("solar", "path_window_bytes");
    let pairs = windows.map_or(0, |h| h.count()) / n_paths;
    drop(tb);
    (live, pairs)
}

/// One test only: the counter is process-wide, and the harness runs the
/// tests of a binary on parallel threads.
#[test]
fn an_open_solar_pair_holds_under_4_kib() {
    let (spread, all_pairs) = steady_state(true);
    let (narrow, one_each) = steady_state(false);
    assert_eq!(all_pairs, (SERVERS * SERVERS) as u64, "every pair opens");
    assert_eq!(one_each, SERVERS as u64);
    let per_pair = (spread - narrow) / (all_pairs - one_each) as i64;
    assert!(
        per_pair <= BYTES_PER_PAIR,
        "{per_pair} B per open pair ({spread} B live with {all_pairs} pairs, \
         {narrow} B with {one_each})"
    );
}
