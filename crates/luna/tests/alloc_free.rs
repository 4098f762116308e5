//! Proof of LUNA's zero-copy byte stream: between one end's
//! [`RpcConn::send`] and the other's [`RpcConn::poll_frame`] (both ways:
//! write requests out, read responses back) no payload byte is copied, so a steady-state 128 KiB RPC allocates only handles —
//! the 40-byte frame header, the odd view list of a segment that straddles
//! header and payload — never anything payload-sized.
//!
//! The proof is a counting [`GlobalAlloc`] wrapper: while armed it sums
//! every allocated byte and counts every block of `BIG_BLOCK` or more. A
//! stream that gathered even one 8960-byte segment, let alone re-framed a
//! 128 KiB payload, trips both numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use ebs_luna::{read_request, write_request, RpcConn};
use ebs_sim::{SimDuration, SimTime};
use ebs_tcp::TcpConfig;
use ebs_wire::{RpcFrame, RpcMethod};

const PAYLOAD: usize = 128 << 10;
/// Below one MSS-sized segment payload (8960 B).
const BIG_BLOCK: usize = 8 << 10;
const PER_RPC_BUDGET: u64 = 4 << 10;

/// Sums allocated bytes and counts big blocks while armed.
struct AllocSpy;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static BIG_BLOCKS: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if size >= BIG_BLOCK {
            BIG_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: pure pass-through to `System`; the only extra work is a few
// atomic reads/writes, which allocate nothing.
unsafe impl GlobalAlloc for AllocSpy {
    // SAFETY contract: same as `System::alloc` — we forward the layout
    // untouched, so the returned pointer obeys it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
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
        record(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded
        // verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static SPY: AllocSpy = AllocSpy;

struct Conn {
    client: RpcConn,
    server: RpcConn,
    now: SimTime,
    /// Source of every payload: writes and read responses are slices of it.
    slab: Bytes,
}

impl Conn {
    fn slab_slice(&self, rpc_id: u64) -> Bytes {
        let lo = (rpc_id as usize % (self.slab.len() / PAYLOAD)) * PAYLOAD;
        self.slab.slice(lo..lo + PAYLOAD)
    }

    /// Lockstep exchange until quiescent; the server answers writes with
    /// an empty `WriteResp` and reads with `PAYLOAD` bytes of the slab.
    fn run(&mut self) {
        loop {
            let mut progressed = false;
            while let Some(seg) = self.client.poll_segment(self.now) {
                self.now += SimDuration::from_micros(4);
                self.server.on_segment(self.now, seg);
                progressed = true;
            }
            while let Some(req) = self.server.poll_frame() {
                let (method, payload) = match req.method {
                    RpcMethod::Write => {
                        assert_eq!(req.payload, self.slab_slice(req.rpc_id));
                        (RpcMethod::WriteResp, Bytes::new())
                    }
                    _ => (RpcMethod::ReadResp, self.slab_slice(req.rpc_id)),
                };
                self.server.send(&RpcFrame {
                    rpc_id: req.rpc_id,
                    method,
                    vd_id: req.vd_id,
                    offset: req.offset,
                    len: payload.len() as u32,
                    payload,
                });
                progressed = true;
            }
            while let Some(seg) = self.server.poll_segment(self.now) {
                self.now += SimDuration::from_micros(4);
                self.client.on_segment(self.now, seg);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// One write RPC and one read RPC, each run to completion.
    fn write_then_read(&mut self, rpc_id: u64) {
        let write = write_request(rpc_id, 1, 0, self.slab_slice(rpc_id));
        self.client.send(&write);
        self.run();
        let done = self.client.poll_frame().expect("write completed");
        assert_eq!(done.method, RpcMethod::WriteResp);

        let read = read_request(rpc_id + 1, 1, 0, PAYLOAD as u32);
        self.client.send(&read);
        self.run();
        let done = self.client.poll_frame().expect("read completed");
        assert_eq!(done.payload, self.slab_slice(rpc_id + 1));
    }
}

#[test]
fn steady_state_128k_rpcs_allocate_handles_only() {
    let cfg = TcpConfig {
        mss: 8960,
        ..TcpConfig::default()
    };
    let mut conn = Conn {
        client: RpcConn::connect(cfg.clone()),
        server: RpcConn::listen(cfg),
        now: SimTime::ZERO,
        slab: Bytes::from(
            (0..8 * PAYLOAD)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>(),
        ),
    };
    conn.run();
    assert!(conn.client.is_established());

    // Control experiment (in this test, not a second one: the counters
    // are process-wide and tests run on parallel threads): the spy does
    // see a gathered frame, so the zero below is meaningful.
    let frame = write_request(0, 1, 0, conn.slab_slice(0));
    ARMED.store(true, Ordering::SeqCst);
    let glued = frame.to_bytes();
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(glued.len(), frame.wire_len());
    assert_eq!(BIG_BLOCKS.load(Ordering::SeqCst), 1);
    assert!(BYTES.load(Ordering::SeqCst) >= PAYLOAD as u64);

    // Warm-up: cwnd opens past one frame and every queue reaches its
    // steady-state capacity.
    const WARM: u64 = 64;
    const MEASURED: u64 = 256;
    for i in 0..WARM {
        conn.write_then_read(2 * i);
    }

    BYTES.store(0, Ordering::SeqCst);
    BIG_BLOCKS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for i in WARM..WARM + MEASURED {
        conn.write_then_read(2 * i);
    }
    ARMED.store(false, Ordering::SeqCst);

    let per_rpc = BYTES.load(Ordering::SeqCst) / (2 * MEASURED);
    let big = BIG_BLOCKS.load(Ordering::SeqCst);
    assert_eq!(conn.client.decode_errors() + conn.server.decode_errors(), 0);
    assert_eq!(conn.client.tcp().stats().retransmits, 0);
    assert_eq!(
        big,
        0,
        "a 128 KiB RPC must never allocate a segment-sized block \
         (got {big} blocks >= {BIG_BLOCK} B in {} RPCs)",
        2 * MEASURED
    );
    assert!(
        per_rpc < PER_RPC_BUDGET,
        "a 128 KiB RPC must allocate handles only: {per_rpc} B/RPC >= {PER_RPC_BUDGET} B"
    );
}
