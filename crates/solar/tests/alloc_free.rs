//! Proof of the zero-copy data path: once the block pool is warm, a
//! steady-state SOLAR write burst performs **zero payload-sized heap
//! allocations**. Every 4 KiB packet payload is a recycled pool block and
//! every clone along the TX/retransmit path is an O(1) handle copy.
//!
//! The proof is a counting [`GlobalAlloc`] wrapper: while armed, it counts
//! every allocation of `PAYLOAD_BYTES` or more. Small bookkeeping
//! allocations (queue nodes, `Arc` headers) are deliberately not counted —
//! the claim pinned here is about the 4 KiB *payload* churn, which is what
//! scales with offered load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use ebs_sim::SimTime;
use ebs_solar::{InPacket, ServerAction, SolarClient, SolarConfig, SolarResponder, WriteBlock};

const PAYLOAD_BYTES: usize = 4096;

/// Counts allocations big enough to be packet payloads while armed.
struct PayloadAllocSpy;

static ARMED: AtomicBool = AtomicBool::new(false);
static PAYLOAD_ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the only extra work is two atomic
// reads/writes, which allocate nothing.
unsafe impl GlobalAlloc for PayloadAllocSpy {
    // SAFETY contract: same as `System::alloc` — we forward the layout
    // untouched, so the returned pointer obeys it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= PAYLOAD_BYTES && ARMED.load(Ordering::Relaxed) {
            PAYLOAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        if new_size >= PAYLOAD_BYTES && ARMED.load(Ordering::Relaxed) {
            PAYLOAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded
        // verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static SPY: PayloadAllocSpy = PayloadAllocSpy;

/// One complete 8-block write RPC: pooled payloads in, packets out, ACKs
/// back, RPC completed. Returns when nothing is left in flight.
fn write_burst(client: &mut SolarClient, resp: &mut SolarResponder, rpc_id: u64, now: SimTime) {
    let blocks: Vec<WriteBlock> = (0..8u64)
        .map(|i| {
            // The steady-state payload source: a recycled pool block,
            // filled in place and frozen without copying.
            let payload: Bytes = ebs_wire::pool::with_default_pool(|p| {
                let mut buf = p.take_zeroed();
                buf[..8].copy_from_slice(&rpc_id.to_le_bytes());
                buf.freeze().into_bytes()
            });
            let crc = ebs_crc::crc32_raw(&payload);
            WriteBlock {
                block_addr: i,
                payload,
                crc,
            }
        })
        .collect();
    client.submit_write(now, rpc_id, 1, 1, blocks);
    while let Some(out) = client.poll_transmit(now) {
        if let ServerAction::StoreBlock { hdr, int, .. } = resp.on_packet(InPacket {
            hdr: out.hdr,
            payload: out.payload,
            int: None,
        }) {
            let (ack, _) = resp.write_ack(&hdr, int);
            client.on_packet(
                now,
                InPacket {
                    hdr: ack.hdr,
                    payload: Bytes::new(),
                    int: None,
                },
            );
        }
    }
    // Fire expired timers and drain completion events the way a real
    // host would — left alone, the timer heap and event deque would grow
    // without bound and their capacity doublings would pollute the count.
    client.on_timer(now);
    while client.poll_event().is_some() {}
}

#[test]
fn steady_state_write_burst_makes_no_payload_allocations() {
    let mut client = SolarClient::new(SolarConfig::default());
    let mut resp = SolarResponder::new();
    let mut now = SimTime::ZERO;

    // Control experiment (in this test, not a second one: the counter is
    // process-wide and tests run on parallel threads): a payload built
    // the pre-pool way (one `Vec` each) is seen by the spy, so the zero
    // below is meaningful.
    ARMED.store(true, Ordering::SeqCst);
    let payload = Bytes::from(vec![0u8; PAYLOAD_BYTES]);
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(payload.len(), PAYLOAD_BYTES);
    assert_eq!(
        PAYLOAD_ALLOCS.load(Ordering::SeqCst),
        1,
        "the spy must count a 4 KiB Vec allocation"
    );

    // Warm-up: populate the thread-local block pool and let the client's
    // internal maps/queues/timer heap reach their steady-state capacity
    // (the RTO timer heap drains only as simulated time passes, so it
    // needs several RTOs of warm-up before its footprint plateaus).
    for rpc in 0..512u64 {
        write_burst(&mut client, &mut resp, rpc, now);
        now += ebs_sim::SimDuration::from_micros(10);
    }

    // Steady state, under the microscope.
    let before = ebs_wire::pool::default_pool_stats();
    PAYLOAD_ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for rpc in 512..768u64 {
        write_burst(&mut client, &mut resp, rpc, now);
        now += ebs_sim::SimDuration::from_micros(10);
    }
    ARMED.store(false, Ordering::SeqCst);
    let after = ebs_wire::pool::default_pool_stats();

    let payload_allocs = PAYLOAD_ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after.misses, before.misses,
        "a warm pool must serve every steady-state block from its free list"
    );
    assert_eq!(
        client.stats().rpcs_completed,
        768,
        "every burst must complete"
    );
    assert_eq!(
        payload_allocs, 0,
        "steady-state write bursts must recycle every 4 KiB payload \
         (got {payload_allocs} payload-sized allocations in 256 RPCs)"
    );
}
