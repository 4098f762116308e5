//! The virtio-blk frontend mounted on the testbed, and the pushdown
//! data path across its three placements.
//!
//! `ebs-blk` owns the ring state machine; this module is the *host* side:
//! it pops guest submissions off the rings, turns READ/WRITE descriptors
//! into ordinary SA guest I/Os (so they traverse QoS → SA → transport →
//! fabric → block server exactly like every other I/O), runs FLUSH and
//! DISCARD locally, and executes pushdown requests at whichever placement
//! the mount negotiated:
//!
//! * **client** — the baseline: read the whole range through the normal
//!   read path, then scan it on the compute server's DPU cores;
//! * **storage** — one small [`PushdownHdr`] frame per (segment, block
//!   server) part; the storage node reads the range off its SSD, scans it
//!   in software, and returns only the result blocks;
//! * **dpu** — same fan-out, but the scan runs in the storage-side DPU's
//!   metered [`ebs_dpu::PushdownStage`], which also accounts the FPGA
//!   cycles and the PCIe/fabric bytes the placement avoided.
//!
//! Pushdown requests are *not* QoS-admitted and create no
//! [`crate::IoTrace`]: they are a different request class with their own
//! [`BlkTrace`] stream (DESIGN.md §11 discusses why folding them into the
//! read path's QoS budget double-charges the client placement and nothing
//! else). Responses carry the aggregate raw CRC of the transformed
//! result; the client verifies it against the range's reference execution
//! before completing the descriptor (`docs/PROTOCOL.md` §7), failing the
//! request with [`ebs_wire::BLK_S_BADCRC`] on mismatch. Lost parts
//! retransmit on a fixed RTO; duplicate responses are idempotent (the
//! ring drops completions for descriptors the device no longer holds).

pub use ebs_blk::{BlkReq, DeviceConfig, FeatureError, Predicate, ReqKind, StorageFn};
pub use ebs_wire::{PushdownHdr, PushdownOp, PushdownPlacement};

use ebs_wire::{
    BLK_F_DISCARD, BLK_F_FLUSH, BLK_F_PUSHDOWN, BLK_F_PUSHDOWN_DPU, BLK_KNOWN_FEATURES,
    BLK_S_BADCRC, BLK_S_IOERR, BLK_S_OK, BLK_S_UNSUPP, PD_FLAG_RESPONSE, PD_FLAG_RETRANSMIT,
};

use ebs_dpu::DpuCpu;
use ebs_net::{FabricPacket, FlowLabel};
use ebs_obs::Journal;
use ebs_sa::{IoKind, IoRequest, BLOCK_SIZE};
use ebs_sim::{Fnv1a, FxHashMap, SimDuration, SimTime};

use super::{Body, Event, Msg, Testbed, World};
use crate::compute::ComputeNode;
use crate::storage::{Reply, StorageNode};

/// How long a pushdown part waits for its response before retransmitting.
/// Deliberately coarse (the SLO for scans is throughput, not tail) and
/// idempotent on both sides, so chaos-injected loss only costs time.
const PD_RTO: SimDuration = SimDuration::from_millis(10);

/// Software scan cost per block (client or storage-node CPU): one pass
/// over 4 KiB plus the predicate compare.
const SCAN_NS_PER_BLOCK: u64 = 80;
/// Software XOR-fold cost per block (touches and writes all 4 KiB).
const MERGE_NS_PER_BLOCK: u64 = 250;
/// Client-side verify cost per range block: an XOR over per-block CRC
/// metadata, not a data pass.
const VERIFY_NS_PER_BLOCK: u64 = 4;
/// FLUSH latency: the write path is synchronous, so flush only drains
/// the device write cache.
const FLUSH_NS: u64 = 5_000;
/// DISCARD cost per block (trim-queue insert).
const DISCARD_NS_PER_BLOCK: u64 = 30;

/// Wire size of a pushdown request leg (header only — the whole point of
/// the placement comparison is that requests are one small frame).
const PD_REQ_BYTES: usize = ebs_wire::SOLAR_OVERHEAD + PushdownHdr::LEN;

/// A pushdown frame (or its response) in flight on the fabric. Plain
/// `Copy` data: the header *is* the message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PushdownMsg {
    /// Issuing compute server.
    pub compute: u32,
    /// Serving storage server.
    pub storage: u32,
    /// The pushdown frame (op, range, predicate; result on responses).
    pub hdr: PushdownHdr,
}

/// Per-compute mount configuration for [`Testbed::blk_mount`].
#[derive(Debug, Clone, Copy)]
pub struct BlkMountConfig {
    /// Queues the device exposes.
    pub num_queues: u16,
    /// Descriptors per queue (power of two).
    pub queue_depth: u16,
    /// Feature bits the driver acknowledges.
    pub features: u64,
    /// Where this mount executes pushdown requests.
    pub placement: PushdownPlacement,
}

impl BlkMountConfig {
    /// Two queues of 64 descriptors, every feature negotiated, pushdown
    /// at `placement`.
    pub fn with_placement(placement: PushdownPlacement) -> Self {
        BlkMountConfig {
            num_queues: 2,
            queue_depth: 64,
            features: BLK_KNOWN_FEATURES,
            placement,
        }
    }
}

/// One completed-or-in-flight block-frontend request (the blk analogue of
/// [`crate::IoTrace`]; pushdown requests appear here, never there).
#[derive(Debug, Clone, Copy)]
pub struct BlkTrace {
    /// Compute server.
    pub compute: usize,
    /// Queue index within the mount.
    pub queue: usize,
    /// Stable label: `read`/`write`/`flush`/`discard`/`pushdown.<placement>`.
    pub label: &'static str,
    /// Pushdown placement, for pushdown requests.
    pub placement: Option<PushdownPlacement>,
    /// Blocks covered by the request.
    pub blocks_in: u32,
    /// Result blocks delivered (reads: `blocks_in`; writes/flush: 0).
    pub blocks_out: u32,
    /// Ring submission time.
    pub submitted: SimTime,
    /// Completion delivery time (None while in flight).
    pub completed: Option<SimTime>,
    /// Completion status (`BLK_S_OK`, ...).
    pub status: u8,
}

/// Aggregate block-frontend counters across all mounts.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlkCounters {
    /// Requests accepted by a ring.
    pub accepted: u64,
    /// Requests rejected with `RingFull`.
    pub rejected: u64,
    /// Completions delivered to the driver.
    pub completed: u64,
    /// Requests completed `BLK_S_UNSUPP` (feature not negotiated).
    pub unsupported: u64,
    /// Pushdown part frames sent (first transmissions).
    pub parts_sent: u64,
    /// Pushdown part retransmissions after an RTO.
    pub retransmits: u64,
    /// Duplicate/stale pushdown responses dropped at the client.
    pub dup_responses: u64,
    /// Pushdown results that failed CRC verification.
    pub crc_failures: u64,
    /// Block-data bytes moved between compute and storage on behalf of
    /// blk requests: whole ranges for reads/writes and client-placement
    /// scans, result blocks only for remote placements. This is the
    /// placement comparison's headline metric — [`Testbed::fabric_bytes`]
    /// counts wire *frames*, and the testbed's SOLAR read path models
    /// payload DMA at the endpoints rather than on the frame (see
    /// DESIGN.md §11), so data movement is accounted here.
    pub data_bytes: u64,
}

struct Mount {
    dev: ebs_blk::BlkDevice,
    placement: PushdownPlacement,
}

/// Where a ring descriptor went after `pop_avail`. `trace_idx` names
/// its [`BlkTrace`], which knows the (compute, queue) the ring lives on.
struct IoCtx {
    desc: u16,
    /// The request as popped (carries the pushdown function for the
    /// client placement's post-read scan).
    req: BlkReq,
    trace_idx: usize,
}

struct PdPart {
    storage: u32,
    first_block: u64,
    count: u32,
    done: bool,
}

struct PendingPd {
    compute: usize,
    desc: u16,
    func: StorageFn,
    placement: PushdownPlacement,
    vd_id: u64,
    first_block: u64,
    block_count: u32,
    parts: Vec<PdPart>,
    parts_done: u32,
    /// XOR-aggregate of the parts' result CRCs (linearity makes this the
    /// full range's aggregate once every part is in).
    agg_crc: u32,
    blocks_out: u32,
    trace_idx: usize,
}

/// All block-frontend state, boxed behind `Option` on [`Testbed`] so
/// runs that never mount a device pay one pointer and keep their metrics
/// digests byte-identical with historical baselines.
pub(crate) struct BlkState {
    mounts: Vec<Option<Mount>>,
    /// Per-storage-server metered DPU pushdown stage.
    dpu: Vec<ebs_dpu::PushdownStage>,
    /// `(compute, io_id)` → ring context for requests riding the SA path.
    io_map: FxHashMap<(usize, u64), IoCtx>,
    /// In-flight remote pushdowns by request id.
    pd_map: FxHashMap<u64, PendingPd>,
    next_req_id: u64,
    traces: Vec<BlkTrace>,
    counters: BlkCounters,
    /// Fault-injection hook: corrupt the next pushdown response's CRC.
    corrupt_next: bool,
}

impl BlkState {
    fn new(n_compute: usize, n_storage: usize) -> Self {
        BlkState {
            mounts: (0..n_compute).map(|_| None).collect(),
            dpu: (0..n_storage)
                .map(|_| ebs_dpu::PushdownStage::new(ebs_dpu::PushdownCosts::default()))
                .collect(),
            io_map: FxHashMap::default(),
            pd_map: FxHashMap::default(),
            next_req_id: 1,
            traces: Vec::new(),
            counters: BlkCounters::default(),
            corrupt_next: false,
        }
    }

    /// Complete descriptor `desc` of the request traced at `trace_idx`:
    /// push it used, reap the completion for the driver, close the trace
    /// and journal the request's span on the `blk` track.
    pub(crate) fn complete(
        &mut self,
        journal: &mut Journal,
        at: SimTime,
        desc: u16,
        trace_idx: usize,
        status: u8,
        len: u32,
    ) {
        let tr = &mut self.traces[trace_idx];
        let Some(mount) = self.mounts.get_mut(tr.compute).and_then(|m| m.as_mut()) else {
            return;
        };
        let Some(vq) = mount.dev.queue_mut(tr.queue) else {
            return;
        };
        let held = vq.in_flight();
        vq.push_used(desc, status, len);
        if vq.in_flight() == held {
            // Duplicate completion (retransmit race): the ring dropped it.
            self.counters.dup_responses += 1;
            return;
        }
        // The driver reaps immediately — completion *delivery* is the
        // event being modelled; reap latency is inside the spans already.
        while vq.poll_used().is_some() {
            self.counters.completed += 1;
        }
        if status == BLK_S_UNSUPP {
            self.counters.unsupported += 1;
        }
        tr.completed = Some(at);
        tr.status = status;
        tr.blocks_out = len / ebs_sa::BLOCK_SIZE;
        journal.span("blk", tr.label, trace_idx as u64, tr.submitted, at);
    }
}

fn func_of(hdr: &PushdownHdr) -> StorageFn {
    StorageFn {
        op: hdr.op,
        pred: Predicate {
            offset: hdr.pred_offset,
            mask: hdr.pred_mask,
            value: hdr.pred_value,
        },
        group_k: hdr.group_k,
    }
}

fn software_latency(op: PushdownOp, blocks: u32) -> SimDuration {
    let per_block = match op {
        PushdownOp::CompactionMerge => MERGE_NS_PER_BLOCK,
        PushdownOp::RangeScan | PushdownOp::ChecksumVerify => SCAN_NS_PER_BLOCK,
    };
    SimDuration::from_nanos(per_block * blocks as u64)
}

impl Testbed {
    // --- public API --------------------------------------------------------

    /// Mount a block device on compute server `compute`, negotiating
    /// `cfg.features` against everything the device offers. Returns the
    /// agreed feature set. Pushdown placements require their feature bits
    /// ([`ebs_wire::BLK_F_PUSHDOWN`], plus [`ebs_wire::BLK_F_PUSHDOWN_DPU`]
    /// for the DPU) — requests on a mount without them complete
    /// `BLK_S_UNSUPP`, the virtio-faithful outcome.
    pub fn blk_mount(&mut self, compute: usize, cfg: BlkMountConfig) -> Result<u64, FeatureError> {
        let dev = ebs_blk::BlkDevice::mount(
            &DeviceConfig {
                num_queues: cfg.num_queues,
                queue_depth: cfg.queue_depth,
                features: BLK_KNOWN_FEATURES,
            },
            cfg.features,
        )?;
        let features = dev.features();
        let (nc, ns) = (self.w.cfg.n_compute, self.w.cfg.n_storage);
        let st = self
            .blk
            .get_or_insert_with(|| Box::new(BlkState::new(nc, ns)));
        st.mounts[compute] = Some(Mount {
            dev,
            placement: cfg.placement,
        });
        Ok(features)
    }

    /// Schedule a guest ring submission on `(compute, queue)` at `at`.
    pub fn schedule_blk(&mut self, at: SimTime, compute: usize, queue: usize, req: BlkReq) {
        self.w.net.q.schedule_at(
            at,
            Event::BlkGuest {
                compute,
                queue,
                req: Box::new(req),
            },
        );
    }

    /// Aggregate block-frontend counters (zeros when nothing is mounted).
    pub fn blk_counters(&self) -> BlkCounters {
        self.blk
            .as_deref()
            .map(|st| st.counters)
            .unwrap_or_default()
    }

    /// Per-request traces of the block frontend (empty when nothing is
    /// mounted).
    pub fn blk_traces(&self) -> &[BlkTrace] {
        self.blk.as_deref().map_or(&[], |st| &st.traces)
    }

    /// Total bytes handed to the fabric since construction (every
    /// transport and direction) — the bytes-moved metric the placement
    /// bench compares.
    pub fn fabric_bytes(&self) -> u64 {
        self.w.net.fabric_bytes
    }

    /// Ring-slot accounting across every mounted queue: `(free, capacity,
    /// device_held)`. The chaos conservation oracle checks
    /// `free + held == capacity` at quiesce.
    pub fn blk_ring_slots(&self) -> (u64, u64, u64) {
        let (mut free, mut cap, mut held) = (0u64, 0u64, 0u64);
        if let Some(st) = self.blk.as_deref() {
            for m in st.mounts.iter().flatten() {
                for qi in 0..m.dev.num_queues() {
                    let vq = m.dev.queue(qi).expect("queue index in range");
                    free += vq.free_descs() as u64;
                    cap += vq.capacity() as u64;
                    held += vq.in_flight() as u64;
                }
            }
        }
        (free, cap, held)
    }

    /// Run every queue's conservation check; returns the failures.
    pub fn blk_ring_errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(st) = self.blk.as_deref() {
            for (ci, m) in st.mounts.iter().enumerate() {
                let Some(m) = m else { continue };
                for qi in 0..m.dev.num_queues() {
                    let vq = m.dev.queue(qi).expect("queue index in range");
                    if let Err(e) = vq.check_conservation() {
                        out.push(format!("compute {ci} queue {qi}: {e}"));
                    }
                }
            }
        }
        out
    }

    /// Aggregate DPU pushdown-stage accounting across storage servers:
    /// `(requests, cycles, bytes_saved)`.
    pub fn blk_dpu_stats(&self) -> (u64, u64, u64) {
        let mut out = (0u64, 0u64, 0u64);
        if let Some(st) = self.blk.as_deref() {
            for s in &st.dpu {
                out.0 += s.requests();
                out.1 += s.cycles();
                out.2 += s.bytes_saved();
            }
        }
        out
    }

    /// Fault injection: flip the next pushdown response's aggregate CRC
    /// on its way out of the storage node (the Fig. 11 bit-flip injector
    /// pointed at the pushdown path). The client must reject the result
    /// with `BLK_S_BADCRC`.
    pub fn blk_corrupt_next_response(&mut self) {
        if let Some(st) = self.blk.as_deref_mut() {
            st.corrupt_next = true;
        }
    }
}

impl BlkState {
    // --- ring ingress ------------------------------------------------------

    /// A guest submitted `req` on queue `queue` of the mount on `c`: ring
    /// accept + pop, then dispatch by request type.
    pub(crate) fn guest(
        &mut self,
        now: SimTime,
        c: &mut ComputeNode,
        queue: usize,
        req: BlkReq,
        w: &mut World,
    ) {
        let compute = c.id;
        let Some(mount) = self.mounts.get_mut(compute).and_then(|m| m.as_mut()) else {
            return;
        };
        let features = mount.dev.features();
        let placement = mount.placement;
        let queue = queue.min(mount.dev.num_queues().saturating_sub(1));
        let vq = mount.dev.queue_mut(queue).expect("clamped queue index");
        if vq.submit(req).is_err() {
            self.counters.rejected += 1;
            w.journal.instant(now, "blk", "ring_full", queue as u64, 0);
            return;
        }
        self.counters.accepted += 1;
        let (desc, req) = vq.pop_avail().expect("just submitted");
        let label = match req.kind {
            ReqKind::Read => "read",
            ReqKind::Write => "write",
            ReqKind::Flush => "flush",
            ReqKind::Discard => "discard",
            ReqKind::Pushdown(_) => match placement {
                PushdownPlacement::Client => "pushdown.client",
                PushdownPlacement::StorageNode => "pushdown.storage",
                PushdownPlacement::Dpu => "pushdown.dpu",
            },
        };
        let trace_idx = self.traces.len();
        self.traces.push(BlkTrace {
            compute,
            queue,
            label,
            placement: matches!(req.kind, ReqKind::Pushdown(_)).then_some(placement),
            blocks_in: req.blocks,
            blocks_out: 0,
            submitted: now,
            completed: None,
            status: BLK_S_OK,
        });
        // Feature gating: the virtio-faithful outcome for a request type
        // whose feature the driver never acknowledged.
        let missing = match req.kind {
            ReqKind::Flush => features & BLK_F_FLUSH == 0,
            ReqKind::Discard => features & BLK_F_DISCARD == 0,
            ReqKind::Pushdown(_) => {
                features & BLK_F_PUSHDOWN == 0
                    || (placement == PushdownPlacement::Dpu && features & BLK_F_PUSHDOWN_DPU == 0)
            }
            ReqKind::Read | ReqKind::Write => false,
        };
        if missing {
            self.complete(&mut w.journal, now, desc, trace_idx, BLK_S_UNSUPP, 0);
            return;
        }
        // A range that ends past its disk, names a disk this compute does
        // not hold (`disk_blocks` is 0), or is an empty read, write or scan
        // is the guest's error: it completes IOERR before anything splits
        // it.
        let empty = req.blocks == 0 && !matches!(req.kind, ReqKind::Flush | ReqKind::Discard);
        let disk = c.seg_table.disk_blocks(req.vd_id);
        let past_end = req
            .first_block
            .checked_add(u64::from(req.blocks))
            .is_none_or(|end| end > disk);
        if empty || past_end {
            self.complete(&mut w.journal, now, desc, trace_idx, BLK_S_IOERR, 0);
            return;
        }
        // Flush and discard are served locally after a fixed latency.
        let mut local_done = |ns: u64| {
            let ev = Event::BlkLocalDone { desc, trace_idx };
            w.net.q.schedule_at(now + SimDuration::from_nanos(ns), ev);
        };
        match req.kind {
            ReqKind::Flush => local_done(FLUSH_NS),
            ReqKind::Discard => local_done(DISCARD_NS_PER_BLOCK * req.blocks.max(1) as u64),
            ReqKind::Pushdown(func) if placement != PushdownPlacement::Client => {
                // One part per (segment, block server) run.
                let subs =
                    match ebs_sa::split_range(&c.seg_table, req.vd_id, req.first_block, req.blocks)
                    {
                        Ok(s) => s,
                        Err(e) => panic!("blk range checked against the disk, yet: {e}"),
                    };
                let req_id = self.next_req_id;
                self.next_req_id += 1;
                let parts = subs
                    .iter()
                    .map(|sub| PdPart {
                        storage: sub.block_server,
                        first_block: sub.blocks[0],
                        count: sub.blocks.len() as u32,
                        done: false,
                    })
                    .collect();
                let pd = PendingPd {
                    compute,
                    desc,
                    func,
                    placement,
                    vd_id: req.vd_id,
                    first_block: req.first_block,
                    block_count: req.blocks,
                    parts,
                    parts_done: 0,
                    agg_crc: 0,
                    blocks_out: 0,
                    trace_idx,
                };
                self.pd_map.insert(req_id, pd);
                self.send_parts(now, req_id, false, w);
            }
            // Reads and writes ride the SA path as ordinary guest I/Os; so
            // does the client placement's baseline, which pulls the whole
            // range through the normal read path and scans at completion.
            ReqKind::Read | ReqKind::Write | ReqKind::Pushdown(_) => {
                let io = IoRequest {
                    vd_id: req.vd_id,
                    kind: if req.kind == ReqKind::Write {
                        IoKind::Write
                    } else {
                        IoKind::Read
                    },
                    offset: req.first_block * BLOCK_SIZE as u64,
                    len: req.blocks.max(1) * BLOCK_SIZE,
                };
                let io_id = c.guest_io(now, io, false, w);
                let ctx = IoCtx {
                    desc,
                    req,
                    trace_idx,
                };
                self.io_map.insert((compute, io_id), ctx);
            }
        }
    }

    /// An SA-path I/O the block frontend issued (read/write descriptor,
    /// or the client placement's range read) completed at `done_at`.
    pub(crate) fn on_guest_io_done(
        &mut self,
        compute: usize,
        io_id: u64,
        done_at: SimTime,
        cpu: &mut DpuCpu,
        journal: &mut Journal,
    ) {
        let Some(ctx) = self.io_map.remove(&(compute, io_id)) else {
            return;
        };
        // Reads and writes haul the whole range across the fabric; the
        // client placement's scan is exactly a read plus local CPU.
        if ctx.req.kind != ReqKind::Flush {
            self.counters.data_bytes += ctx.req.blocks as u64 * BLOCK_SIZE as u64;
        }
        let (at, len) = match ctx.req.kind {
            ReqKind::Pushdown(func) => {
                // Client placement: the range is in guest memory; scan it
                // on the compute server's DPU cores. Verification is the
                // scan itself — the client computed the result from data
                // whose per-block CRCs the read path already checked.
                let res =
                    ebs_blk::execute(func, ctx.req.vd_id, ctx.req.first_block, ctx.req.blocks);
                let cost = software_latency(func.op, ctx.req.blocks);
                let t = cpu.run(done_at, cost);
                (t.max(done_at), res.blocks_out * BLOCK_SIZE)
            }
            ReqKind::Read => (done_at, ctx.req.blocks * BLOCK_SIZE),
            _ => (done_at, 0),
        };
        self.complete(journal, at, ctx.desc, ctx.trace_idx, BLK_S_OK, len);
    }

    // --- pushdown: storage side -------------------------------------------

    /// A pushdown request frame reached storage server `node`: read the
    /// range off the SSD, execute the function at the requested
    /// placement's cost, and schedule the response. The response leg is
    /// where the bytes move: header plus `blocks_out` 4 KiB result blocks.
    pub(crate) fn pushdown_storage(
        &mut self,
        now: SimTime,
        node: &mut StorageNode,
        m: PushdownMsg,
        w: &mut World,
    ) {
        if m.hdr.flags & PD_FLAG_RESPONSE != 0 {
            return; // responses never land at a storage server
        }
        let storage = m.storage as usize;
        let blocks = m.hdr.block_count.max(1);
        let (done, _bd) = node.backend.read(now, blocks as usize);
        // Semantics are placement-independent (the reference execution);
        // only the cost model differs.
        let res = ebs_blk::execute(
            func_of(&m.hdr),
            m.hdr.vd_id,
            m.hdr.first_block,
            m.hdr.block_count,
        );
        let exec = match m.hdr.placement {
            PushdownPlacement::Dpu => self.dpu[storage].meter(m.hdr.op, blocks, res.blocks_out),
            _ => software_latency(m.hdr.op, blocks),
        };
        let mut rh = m.hdr;
        rh.flags |= PD_FLAG_RESPONSE;
        rh.status = BLK_S_OK;
        rh.blocks_out = res.blocks_out;
        rh.result_crc = res.result_crc;
        if self.corrupt_next {
            self.corrupt_next = false;
            rh.result_crc ^= 0x5A5A_5A5A;
        }
        let flow = FlowLabel {
            src: w.net.storage_dev(m.storage),
            dst: w.net.compute_dev(m.compute),
            src_port: 9200,
            dst_port: 30_000 + (rh.req_id & 0x3FF) as u16,
            proto: 17,
        };
        let size = PD_REQ_BYTES + rh.blocks_out as usize * BLOCK_SIZE as usize;
        let body = Msg(Body::Pushdown(PushdownMsg { hdr: rh, ..m }));
        let reply = Box::new(Reply::Packet(FabricPacket::new(flow, size, None, body)));
        w.net.q.schedule_at(
            done + exec + w.server_stack_latency,
            Event::StorageDone { storage, reply },
        );
    }

    // --- pushdown: client side --------------------------------------------

    /// A pushdown response reached its compute server: account the part,
    /// and on the last part verify the aggregate CRC and complete the
    /// ring descriptor.
    pub(crate) fn pushdown_compute(
        &mut self,
        now: SimTime,
        cpu: &mut DpuCpu,
        m: PushdownMsg,
        journal: &mut Journal,
    ) {
        if m.hdr.flags & PD_FLAG_RESPONSE == 0 {
            return; // requests never land at a compute server
        }
        // Every arriving response physically moved its result blocks,
        // duplicates included.
        self.counters.data_bytes += m.hdr.blocks_out as u64 * BLOCK_SIZE as u64;
        let Some(p) = self.pd_map.get_mut(&m.hdr.req_id) else {
            self.counters.dup_responses += 1;
            return;
        };
        let pi = m.hdr.part as usize;
        if pi >= p.parts.len() || p.parts[pi].done {
            self.counters.dup_responses += 1;
            return;
        }
        p.parts[pi].done = true;
        p.parts_done += 1;
        p.agg_crc ^= m.hdr.result_crc;
        p.blocks_out += m.hdr.blocks_out;
        if p.parts_done < p.parts.len() as u32 {
            return;
        }
        let finished = self.pd_map.remove(&m.hdr.req_id).expect("present");
        // All parts in: the CRC-of-transformed-data check. By linearity
        // the XOR of the part aggregates must equal the reference
        // aggregate over the whole range, whatever the sharding was.
        let reference = ebs_blk::execute(
            finished.func,
            finished.vd_id,
            finished.first_block,
            finished.block_count,
        );
        let ok =
            reference.result_crc == finished.agg_crc && reference.blocks_out == finished.blocks_out;
        let verify = SimDuration::from_nanos(VERIFY_NS_PER_BLOCK * finished.block_count as u64);
        let at = cpu.run(now, verify).max(now);
        let (status, len) = if ok {
            (BLK_S_OK, finished.blocks_out * BLOCK_SIZE)
        } else {
            self.counters.crc_failures += 1;
            (BLK_S_BADCRC, 0)
        };
        self.complete(journal, at, finished.desc, finished.trace_idx, status, len);
    }

    /// Send every part of pushdown `req_id` still missing and arm its
    /// RTO: the first transmission (`retx == false`, nothing done yet) and
    /// every RTO round after it. Idempotent on both sides — the storage
    /// server serves duplicates blindly, the client drops duplicate
    /// responses.
    pub(crate) fn send_parts(&mut self, now: SimTime, req_id: u64, retx: bool, w: &mut World) {
        let Some(p) = self.pd_map.get(&req_id) else {
            return; // completed; the timer dies here
        };
        let (flags, src_port) = if retx {
            // A fresh source port per retransmit round so the flow
            // re-hashes around a dead path (the SOLAR path-remap trick at
            // the pushdown layer).
            let salt = req_id.wrapping_add(now.as_nanos());
            (PD_FLAG_RETRANSMIT, 31_000 + (salt & 0x3FF) as u16)
        } else {
            (0, 30_000 + (req_id & 0x3FF) as u16)
        };
        let mut sent = 0;
        for (pi, part) in p.parts.iter().enumerate().filter(|(_, p)| !p.done) {
            // One small self-contained frame per part.
            let hdr = PushdownHdr {
                version: PushdownHdr::VERSION,
                op: p.func.op,
                placement: p.placement,
                flags,
                req_id,
                vd_id: p.vd_id,
                first_block: part.first_block,
                block_count: part.count,
                pred_offset: p.func.pred.offset,
                pred_mask: p.func.pred.mask,
                pred_value: p.func.pred.value,
                group_k: p.func.group_k,
                status: 0,
                part: pi as u16,
                blocks_out: 0,
                result_crc: 0,
            };
            let flow = FlowLabel {
                src: w.net.compute_dev(p.compute as u32),
                dst: w.net.storage_dev(part.storage),
                src_port,
                dst_port: 9200,
                proto: 17,
            };
            let body = Msg(Body::Pushdown(PushdownMsg {
                compute: p.compute as u32,
                storage: part.storage,
                hdr,
            }));
            w.net
                .send(now, FabricPacket::new(flow, PD_REQ_BYTES, None, body));
            sent += 1;
        }
        if retx {
            self.counters.retransmits += sent;
        } else {
            self.counters.parts_sent += sent;
        }
        w.net.q.schedule_at(now + PD_RTO, Event::BlkRetx { req_id });
    }

    /// The digest section for the block frontend (appended only when a
    /// device was mounted, so historical digests stay byte-identical).
    pub(crate) fn digest(&self, s: &mut String, fabric_bytes: u64) {
        use std::fmt::Write as _;
        let mut bh = Fnv1a::default();
        for t in &self.traces {
            bh.u64(t.compute as u64);
            bh.u64(t.queue as u64);
            bh.bytes(t.label.as_bytes());
            bh.u64(t.blocks_in as u64);
            bh.u64(t.blocks_out as u64);
            bh.u64(t.submitted.as_nanos());
            bh.u64(t.completed.map_or(u64::MAX, |c| c.as_nanos()));
            bh.u64(t.status as u64);
        }
        let c = self.counters;
        let _ = write!(
            s,
            " blk={}/{}/{}/{} parts={}/{} dup={} crcfail={} data={} bhash={:016x} fabric_bytes={}",
            c.accepted,
            c.completed,
            c.rejected,
            c.unsupported,
            c.parts_sent,
            c.retransmits,
            c.dup_responses,
            c.crc_failures,
            c.data_bytes,
            bh.finish(),
            fabric_bytes,
        );
    }
}
