//! `dataplane_4k_rw`: no simulator. A single-threaded host of the
//! benchmark's own drives the sans-io engines back to back, with real
//! bytes, on a virtual clock:
//!
//! ```text
//! guest ─ VirtQueue submit/pop ─ split_io ─ Pipeline(QoS,Block,SEC,CRC)
//!   ─ SolarClient ─ EbsHeader::encode ─ wire ─ EbsHeader::decode
//!   ─ SolarResponder ─ block store (CRC verify) ─ ack / response ─ wire
//!   ─ SolarClient::{on_packet,on_timer,poll_event}
//!   ─ SegmentChecker + decrypt (reads) ─ push_used / poll_used ─ guest
//! ```
//!
//! The pipeline runs SEC before CRC so the stamped CRC covers the bytes
//! on the wire and the store can verify what it is asked to persist (the
//! `solar_loopback` example makes the same choice).
//!
//! The virtual clock exists for the transport's timers and for the
//! `sim_*` metrics: the in-memory wire is two 25 Gb/s FIFO links (one per
//! direction) with 5 µs of propagation each way plus up to 2 µs of seeded
//! per-packet jitter (order within a direction is kept, as on one ECMP
//! path), engines take no virtual time, and a seeded shim drops one
//! packet in 1 024 so the retransmit path stays honest. Host time is what
//! `ios_per_s` measures.

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use ebs_blk::{BlkReq, ReqKind, VirtQueue};
use ebs_crc::{block_crc_raw, SegmentChecker, SegmentVerdict};
use ebs_crypto::SecEngine;
use ebs_dpu::{BlockStage, CrcStage, PacketCtx, Pipeline, QosStage, SecStage, Stage, StageVerdict};
use ebs_sa::{split_io, IoKind, IoRequest, QosSpec, QosTable, SegmentTable, SEGMENT_BLOCKS};
use ebs_sim::{Bandwidth, SimDuration, SimTime};
use ebs_solar::{
    CcAlgo, InPacket, OutPacket, ReadBlock, RpcKind, ServerAction, SolarClient, SolarConfig,
    SolarEvent, SolarResponder, WriteBlock,
};
use ebs_wire::{BlockPool, EbsHeader, EbsOp, BLK_S_IOERR, BLK_S_OK, SOLAR_OVERHEAD};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::alloc;
use crate::spans::{Layer, Tracer};
use crate::trial::{
    fnv_hex, record_latencies, time_slices, TrialArgs, TrialResult, HANG_BAR_NS, SLICES,
};

pub const NAME: &str = "dataplane_4k_rw";

const BLOCK: usize = ebs_wire::BLOCK_SIZE;
const VD: u64 = 1;
/// 64 MiB working set, pre-written during warm-up.
const WORKING_SET_BLOCKS: u64 = 16 * 1024;
const DEPTH: u16 = 32;
const WRITE_SHARE: f64 = 0.7;
const WIRE_DELAY: SimDuration = SimDuration::from_micros(5);
const WIRE_JITTER_NS: u64 = 2_000;
const DROP_ONE_IN: u64 = 1024;
/// Timed I/Os per unit of [`TrialArgs::scale`] (calibrated on the 2-core
/// box; see README).
const IOS_PER_SCALE: u64 = 90_000;

/// Decides, packet by packet, which ones the wire loses: a pure function
/// of the seed and the packet's position in the stream.
#[derive(Debug)]
pub struct DropShim {
    rng: SmallRng,
    pub seen: u64,
    pub dropped: u64,
}

impl DropShim {
    pub fn new(seed: u64) -> DropShim {
        DropShim {
            rng: ebs_sim::rng::stream(seed, "bench-wire-drop"),
            seen: 0,
            dropped: 0,
        }
    }

    pub fn drops_next(&mut self) -> bool {
        self.seen += 1;
        let drop = self.rng.gen_range(0..DROP_ONE_IN) == 0;
        self.dropped += u64::from(drop);
        drop
    }
}

/// The guest's request stream: which block, read or write. A pure
/// function of the seed and of which blocks are busy when it is asked
/// (a block with an I/O in flight is skipped, so a read never races the
/// write whose bytes it would have to be compared against).
#[derive(Debug)]
pub struct IoGen {
    rng: SmallRng,
}

impl IoGen {
    pub fn new(seed: u64) -> IoGen {
        IoGen {
            rng: ebs_sim::rng::stream(seed, "bench-dataplane-io"),
        }
    }

    pub fn next(&mut self, busy: &[bool]) -> (IoKind, u64) {
        let block = loop {
            let b = self.rng.gen_range(0..busy.len() as u64);
            if !busy[b as usize] {
                break b;
            }
        };
        let kind = if self.rng.gen::<f64>() < WRITE_SHARE {
            IoKind::Write
        } else {
            IoKind::Read
        };
        (kind, block)
    }
}

/// The bytes version `version` of block `block` holds: cheap to produce,
/// different for every (block, version), so a stale or misplaced block
/// cannot read back as correct.
pub fn fill_pattern(buf: &mut [u8], block: u64, version: u32) {
    let mut x = (block << 32 | u64::from(version)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for chunk in buf.chunks_exact_mut(8) {
        chunk.copy_from_slice(&x.to_le_bytes());
        x = x.wrapping_add(0xD1B5_4A32_D192_ED03);
    }
}

fn pattern_matches(buf: &[u8], block: u64, version: u32) -> bool {
    let mut x = (block << 32 | u64::from(version)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    buf.len() == BLOCK
        && buf.chunks_exact(8).all(|chunk| {
            let ok = chunk == x.to_le_bytes();
            x = x.wrapping_add(0xD1B5_4A32_D192_ED03);
            ok
        })
}

/// A pipeline stage wrapped in a span, so the CRC and SEC stages show up
/// as children of the pipeline's own span and its self time is what is
/// left: QoS, Block and the dispatch loop.
struct Spanned<S> {
    inner: S,
    layer: Layer,
    tracer: Rc<Tracer>,
}

impl<S: Stage> Stage for Spanned<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn latency(&self) -> SimDuration {
        self.inner.latency()
    }
    fn process(&mut self, now: SimTime, ctx: &mut PacketCtx) -> StageVerdict {
        let Spanned {
            inner,
            layer,
            tracer,
        } = self;
        tracer.span(*layer, ctx.hdr.rpc_id, || inner.process(now, ctx))
    }
    fn p4_summary(&self) -> String {
        self.inner.p4_summary()
    }
}

struct Frame {
    arrive: SimTime,
    hdr: Bytes,
    payload: Bytes,
}

/// One direction of the in-memory wire: FIFO serialization at line rate,
/// then propagation with seeded jitter that never reorders.
struct Link {
    rate: Bandwidth,
    next_free: SimTime,
    last_arrival: SimTime,
    jitter: SmallRng,
    q: VecDeque<Frame>,
}

impl Link {
    fn new(seed: u64, direction: u64) -> Link {
        Link {
            rate: Bandwidth::from_gbps(25),
            next_free: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            jitter: ebs_sim::rng::stream_indexed(seed, "bench-wire-jitter", direction),
            q: VecDeque::new(),
        }
    }

    fn send(&mut self, now: SimTime, hdr: Bytes, payload: Bytes) {
        let depart =
            now.max(self.next_free) + self.rate.transmit_time(SOLAR_OVERHEAD + payload.len());
        self.next_free = depart;
        let jitter = SimDuration::from_nanos(self.jitter.gen_range(0..WIRE_JITTER_NS));
        let arrive = (depart + WIRE_DELAY + jitter).max(self.last_arrival);
        self.last_arrival = arrive;
        self.q.push_back(Frame {
            arrive,
            hdr,
            payload,
        });
    }

    fn due(&mut self, now: SimTime) -> Option<Frame> {
        if self.q.front().is_some_and(|f| f.arrive <= now) {
            self.q.pop_front()
        } else {
            None
        }
    }

    fn next_arrival(&self) -> Option<SimTime> {
        self.q.front().map(|f| f.arrive)
    }
}

/// One I/O the device holds, indexed by its descriptor.
#[derive(Clone)]
struct Inflight {
    rpc_id: u64,
    block: u64,
    submitted: SimTime,
    /// Ciphertext and CRC of the block a read brought back.
    read_back: Option<(Bytes, u32)>,
}

/// Things the host counts about its own run (not engine counters).
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    submitted: u64,
    completed: u64,
    failed: u64,
    reads_done: u64,
    readback_mismatches: u64,
    segment_corrupt: u64,
    store_crc_failures: u64,
    store_reads: u64,
    store_writes: u64,
    pool_bufs: u64,
    pipeline_blocks: u64,
    server_pkts: u64,
}

struct Host {
    tracer: Rc<Tracer>,
    now: SimTime,
    vq: VirtQueue,
    seg: SegmentTable,
    pipeline: Pipeline,
    client: SolarClient,
    responder: SolarResponder,
    sec: SecEngine,
    hdr_pool: BlockPool,
    fwd: Link,
    rev: Link,
    shim: DropShim,
    gen: IoGen,
    /// The flat in-memory block store: ciphertext and its raw CRC.
    store: Vec<Option<(Bytes, u32)>>,
    /// Version of each block's plaintext (0 = never written).
    version: Vec<u32>,
    busy: Vec<bool>,
    inflight: Vec<Option<Inflight>>,
    checkers: Vec<SegmentChecker>,
    next_rpc: u64,
    counts: Counts,
    latencies_ns: Vec<u64>,
}

const KEY: [u8; 32] = [0x42; 32];

impl Host {
    fn new(seed: u64, tracer: Rc<Tracer>) -> Host {
        let segments = WORKING_SET_BLOCKS / SEGMENT_BLOCKS;
        let provision = |t: &mut SegmentTable| t.provision(VD, segments * SEGMENT_BLOCKS, |_| 0);
        let mut seg = SegmentTable::new(SEGMENT_BLOCKS);
        provision(&mut seg);
        let mut stage_seg = SegmentTable::new(SEGMENT_BLOCKS);
        provision(&mut stage_seg);
        let mut qos = QosTable::new();
        qos.set_spec(VD, QosSpec::unlimited());
        let pipeline = Pipeline::new(vec![
            Box::new(QosStage::new(qos)),
            Box::new(BlockStage::new(stage_seg)),
            Box::new(Spanned {
                inner: SecStage::encryptor(SecEngine::new(KEY)),
                layer: Layer::CryptoBlock,
                tracer: Rc::clone(&tracer),
            }),
            Box::new(Spanned {
                inner: CrcStage::new(BLOCK, None),
                layer: Layer::CrcBlock,
                tracer: Rc::clone(&tracer),
            }),
        ]);
        let cfg = SolarConfig {
            // The in-memory wire has no switches to stamp INT, and HPCC
            // without INT only ever shrinks its windows: hold them at the
            // per-path BDP instead.
            int_enabled: false,
            cc: CcAlgo::Fixed,
            ..SolarConfig::default()
        };
        Host {
            tracer,
            now: SimTime::ZERO,
            vq: VirtQueue::new(DEPTH),
            seg,
            pipeline,
            client: SolarClient::new(cfg),
            responder: SolarResponder::new(),
            sec: SecEngine::new(KEY),
            hdr_pool: BlockPool::new(EbsHeader::LEN, 4 * DEPTH as usize),
            fwd: Link::new(seed, 0),
            rev: Link::new(seed, 1),
            shim: DropShim::new(seed),
            gen: IoGen::new(seed),
            store: vec![None; WORKING_SET_BLOCKS as usize],
            version: vec![0; WORKING_SET_BLOCKS as usize],
            busy: vec![false; WORKING_SET_BLOCKS as usize],
            inflight: vec![None; DEPTH as usize],
            checkers: (0..DEPTH).map(|_| SegmentChecker::new(BLOCK)).collect(),
            next_rpc: 1,
            counts: Counts::default(),
            latencies_ns: Vec::new(),
        }
    }

    /// Run until `target` more I/Os have completed. `next` is the guest:
    /// it names the next request, or `None` when it has no more.
    fn run(
        &mut self,
        target: u64,
        mut next: impl FnMut(&mut IoGen, &[bool]) -> Option<(IoKind, u64)>,
    ) {
        let goal = self.counts.completed + self.counts.failed + target;
        let mut to_submit = target;
        while self.counts.completed + self.counts.failed < goal {
            // Guest: keep the ring full.
            while to_submit > 0 && self.vq.free_descs() > 0 {
                let Some((kind, block)) = next(&mut self.gen, &self.busy) else {
                    to_submit = 0;
                    break;
                };
                to_submit -= 1;
                self.guest_submit(kind, block);
            }
            // Device: take what the guest posted and start it.
            let tracer = Rc::clone(&self.tracer);
            while let Some((desc, req)) = tracer.span(Layer::BlkRing, 0, || self.vq.pop_avail()) {
                self.device_start(desc, req);
            }
            self.pump_client();
            self.advance_clock();
            self.server_rx();
            self.client_rx();
            self.reap();
        }
    }

    fn guest_submit(&mut self, kind: IoKind, block: u64) {
        self.busy[block as usize] = true;
        let req = match kind {
            IoKind::Write => BlkReq::write(VD, block, 1),
            IoKind::Read => BlkReq::read(VD, block, 1),
        };
        self.tracer
            .span(Layer::BlkRing, 0, || self.vq.submit(req))
            .expect("the guest checked for a free descriptor");
        self.counts.submitted += 1;
    }

    fn device_start(&mut self, desc: u16, req: BlkReq) {
        let rpc_id = self.next_rpc * 64 + u64::from(desc);
        self.next_rpc += 1;
        let tr = Rc::clone(&self.tracer);
        let kind = if req.kind == ReqKind::Write {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let io = IoRequest {
            vd_id: req.vd_id,
            kind,
            offset: req.first_block * BLOCK as u64,
            len: req.blocks * BLOCK as u32,
        };
        let subs = tr
            .span(Layer::SaSplit, rpc_id, || {
                split_io(&self.seg, &io, BLOCK as u32)
            })
            .expect("the guest only names provisioned blocks");
        self.inflight[desc as usize] = Some(Inflight {
            rpc_id,
            block: req.first_block,
            submitted: self.now,
            read_back: None,
        });
        // 4 KiB I/Os never straddle a segment: one sub-I/O, one block.
        let sub = &subs[0];
        let block = sub.blocks[0];
        let hdr = EbsHeader {
            version: EbsHeader::VERSION,
            op: match kind {
                IoKind::Write => EbsOp::WriteBlock,
                IoKind::Read => EbsOp::ReadReq,
            },
            flags: 0,
            path_id: 0,
            vd_id: req.vd_id,
            rpc_id,
            pkt_id: 0,
            total_pkts: 1,
            block_addr: block,
            len: BLOCK as u32,
            payload_crc: 0,
            path_seq: 0,
            segment_id: sub.segment_id,
        };
        let payload = match kind {
            IoKind::Read => Bytes::new(),
            IoKind::Write => {
                // The guest's buffer is a pooled block, so the payload is
                // zero-copy from the ring to the wire.
                self.counts.pool_bufs += 1;
                let mut buf = tr.span(Layer::WirePool, rpc_id, ebs_wire::pool::take_block);
                buf.resize(BLOCK, 0);
                let v = &mut self.version[block as usize];
                *v += 1;
                fill_pattern(&mut buf, block, *v);
                tr.span(Layer::WirePool, rpc_id, || buf.freeze().into_bytes())
            }
        };
        let mut ctx = PacketCtx::new(hdr, payload);
        self.counts.pipeline_blocks += 1;
        let forwarded = tr.span(Layer::DpuPipeline, rpc_id, || {
            self.pipeline.process(self.now, &mut ctx)
        });
        if forwarded.is_none() {
            self.finish(desc, BLK_S_IOERR);
            return;
        }
        let now = self.now;
        tr.span(Layer::SolarClient, rpc_id, || match kind {
            IoKind::Write => self.client.submit_write(
                now,
                rpc_id,
                req.vd_id,
                ctx.hdr.segment_id,
                vec![WriteBlock {
                    block_addr: block,
                    payload: ctx.payload,
                    crc: ctx.hdr.payload_crc,
                }],
            ),
            IoKind::Read => self.client.submit_read(
                now,
                rpc_id,
                req.vd_id,
                ctx.hdr.segment_id,
                vec![ReadBlock {
                    block_addr: block,
                    guest_addr: u64::from(desc) * BLOCK as u64,
                }],
            ),
        });
    }

    /// Encode `out`'s header into a pooled buffer and put the frame on
    /// `link` — unless the shim loses it.
    fn transmit(
        tr: &Tracer,
        pool: &BlockPool,
        shim: &mut DropShim,
        link: &mut Link,
        now: SimTime,
        out: OutPacket,
    ) {
        let io = out.hdr.rpc_id;
        let mut buf = tr.span(Layer::WirePool, io, || pool.take());
        tr.span(Layer::WireCodec, io, || out.hdr.encode(&mut buf));
        let hdr = tr.span(Layer::WirePool, io, || buf.freeze().into_bytes());
        if !shim.drops_next() {
            link.send(now, hdr, out.payload);
        }
    }

    fn pump_client(&mut self) {
        let now = self.now;
        while let Some(out) = self
            .tracer
            .span(Layer::SolarClient, 0, || self.client.poll_transmit(now))
        {
            self.counts.pool_bufs += 1;
            Host::transmit(
                &self.tracer,
                &self.hdr_pool,
                &mut self.shim,
                &mut self.fwd,
                now,
                out,
            );
        }
    }

    /// Move the virtual clock to the next thing that can happen: a frame
    /// arriving in either direction or a transport timer.
    ///
    /// # Panics
    /// Panics if I/Os are in flight and nothing is pending: the host loop
    /// would spin forever, which is a bug in it.
    fn advance_clock(&mut self) {
        let next = [
            self.fwd.next_arrival(),
            self.rev.next_arrival(),
            self.client.poll_timer(),
        ]
        .into_iter()
        .flatten()
        .min();
        match next {
            Some(t) => self.now = self.now.max(t),
            None => assert!(
                self.vq.in_flight() == 0,
                "{} I/Os in flight with no packet or timer pending",
                self.vq.in_flight()
            ),
        }
    }

    fn decode(tr: &Tracer, frame: Frame) -> Option<InPacket> {
        let mut cursor = &frame.hdr[..];
        let hdr = tr
            .span(Layer::WireCodec, 0, || EbsHeader::decode(&mut cursor))
            .ok()?;
        Some(InPacket {
            hdr,
            payload: frame.payload,
            int: None,
        })
    }

    fn server_rx(&mut self) {
        let tr = Rc::clone(&self.tracer);
        let now = self.now;
        while let Some(frame) = self.fwd.due(now) {
            let Some(pkt) = Host::decode(&tr, frame) else {
                continue;
            };
            self.counts.server_pkts += 1;
            let io = pkt.hdr.rpc_id;
            let reply = match tr.span(Layer::SolarResponder, io, || self.responder.on_packet(pkt)) {
                ServerAction::StoreBlock { hdr, data, int } => {
                    let crc = tr.span(Layer::CrcBlock, io, || block_crc_raw(&data, BLOCK));
                    if crc == hdr.payload_crc {
                        self.store[hdr.block_addr as usize] = Some((data, crc));
                        self.counts.store_writes += 1;
                        Some(tr.span(Layer::SolarResponder, io, || {
                            self.responder.write_ack(&hdr, int).0
                        }))
                    } else {
                        self.counts.store_crc_failures += 1;
                        Some(tr.span(Layer::SolarResponder, io, || self.responder.nack(&hdr)))
                    }
                }
                ServerAction::FetchBlock { hdr } => {
                    self.counts.store_reads += 1;
                    match self.store[hdr.block_addr as usize].clone() {
                        Some((data, crc)) => Some(tr.span(Layer::SolarResponder, io, || {
                            self.responder.read_resp(&hdr, data, crc)
                        })),
                        None => {
                            Some(tr.span(Layer::SolarResponder, io, || self.responder.nack(&hdr)))
                        }
                    }
                }
                ServerAction::Reply(p) => Some(p),
                ServerAction::None => None,
            };
            if let Some(out) = reply {
                self.counts.pool_bufs += 1;
                Host::transmit(&tr, &self.hdr_pool, &mut self.shim, &mut self.rev, now, out);
            }
            while let Some(nack) =
                tr.span(Layer::SolarResponder, io, || self.responder.poll_gap_nack())
            {
                self.counts.pool_bufs += 1;
                Host::transmit(
                    &tr,
                    &self.hdr_pool,
                    &mut self.shim,
                    &mut self.rev,
                    now,
                    nack,
                );
            }
        }
    }

    fn client_rx(&mut self) {
        let tr = Rc::clone(&self.tracer);
        let now = self.now;
        while let Some(frame) = self.rev.due(now) {
            if let Some(pkt) = Host::decode(&tr, frame) {
                let io = pkt.hdr.rpc_id;
                tr.span(Layer::SolarClient, io, || self.client.on_packet(now, pkt));
            }
        }
        if self.client.poll_timer().is_some_and(|t| t <= now) {
            tr.span(Layer::SolarClient, 0, || self.client.on_timer(now));
        }
        while let Some(ev) = tr.span(Layer::SolarClient, 0, || self.client.poll_event()) {
            match ev {
                SolarEvent::BlockReceived {
                    rpc_id, data, crc, ..
                } => {
                    let desc = (rpc_id % 64) as usize;
                    tr.span(Layer::CrcAggregate, rpc_id, || {
                        self.checkers[desc].add_block(&data, crc)
                    });
                    if let Some(io) = self.inflight[desc]
                        .as_mut()
                        .filter(|io| io.rpc_id == rpc_id)
                    {
                        io.read_back = Some((data, crc));
                    }
                }
                SolarEvent::RpcCompleted { rpc_id, kind, .. } => {
                    let desc = (rpc_id % 64) as u16;
                    let ok = kind == RpcKind::Write || self.verify_read(desc, rpc_id);
                    self.finish(desc, if ok { BLK_S_OK } else { BLK_S_IOERR });
                }
                SolarEvent::RpcFailed { rpc_id } => self.finish((rpc_id % 64) as u16, BLK_S_IOERR),
                SolarEvent::PathDown { .. } | SolarEvent::PathUp { .. } => {}
            }
        }
    }

    /// A read came back: the segment aggregate must verify, and the
    /// decrypted bytes must be exactly what the guest last wrote there.
    fn verify_read(&mut self, desc: u16, rpc_id: u64) -> bool {
        let tr = Rc::clone(&self.tracer);
        let verdict = tr.span(Layer::CrcAggregate, rpc_id, || {
            self.checkers[desc as usize].verify_and_reset()
        });
        self.counts.reads_done += 1;
        if verdict != SegmentVerdict::Ok {
            self.counts.segment_corrupt += 1;
            return false;
        }
        let Some(io) = self.inflight[desc as usize].as_ref() else {
            return false;
        };
        let Some((cipher, _)) = io.read_back.as_ref() else {
            return false;
        };
        self.counts.pool_bufs += 1;
        let mut plain = tr.span(Layer::WirePool, rpc_id, || {
            ebs_wire::pool::with_default_pool(|p| p.take_copy(cipher))
        });
        tr.span(Layer::CryptoBlock, rpc_id, || {
            self.sec.decrypt_block(VD, io.block, &mut plain)
        });
        let ok = pattern_matches(&plain, io.block, self.version[io.block as usize]);
        self.counts.readback_mismatches += u64::from(!ok);
        ok
    }

    /// Device: complete descriptor `desc`.
    fn finish(&mut self, desc: u16, status: u8) {
        self.tracer.span(Layer::BlkRing, 0, || {
            self.vq.push_used(desc, status, BLOCK as u32)
        });
    }

    /// Guest: reap completions.
    fn reap(&mut self) {
        let tr = Rc::clone(&self.tracer);
        while let Some(c) = tr.span(Layer::BlkRing, 0, || self.vq.poll_used()) {
            let Some(io) = self.inflight[c.desc as usize].take() else {
                continue;
            };
            self.busy[io.block as usize] = false;
            let lat = self.now.saturating_since(io.submitted).as_nanos();
            if c.status == BLK_S_OK && lat < HANG_BAR_NS {
                self.counts.completed += 1;
                self.latencies_ns.push(lat);
            } else {
                self.counts.failed += 1;
            }
        }
    }
}

pub fn run(a: &TrialArgs) -> TrialResult {
    let timed_ios = (IOS_PER_SCALE as f64 * a.scale()) as u64;
    let tracer = Rc::new(Tracer::new(a.traced));
    let mut host = Host::new(a.seed, Rc::clone(&tracer));

    // Warm-up: write the whole working set once, in order, through the
    // same path. Pools, windows and the store are warm afterwards.
    let mut next_block = 0;
    host.run(WORKING_SET_BLOCKS, |_, _| {
        let b = next_block;
        next_block += 1;
        (b < WORKING_SET_BLOCKS).then_some((IoKind::Write, b))
    });
    tracer.reset();
    host.latencies_ns.clear();
    let warm = host.counts;
    let stats0 = host.client.stats();
    let pool0 = ebs_wire::pool::default_pool_stats();
    let shim0 = host.shim.seen;
    let t_warm = host.now;
    let setup_s = a.process_start.elapsed().as_secs_f64();

    if a.traced {
        alloc::arm();
    }
    let slice_wall_s = time_slices(|k| {
        let done = host.counts.completed + host.counts.failed - warm.completed - warm.failed;
        host.run(timed_ios * k / SLICES - done, |gen, busy| {
            Some(gen.next(busy))
        });
    });
    let timed_wall_s: f64 = slice_wall_s.iter().sum();
    let (allocs, alloc_bytes) = if a.traced { alloc::disarm() } else { (0, 0) };

    let c = host.counts;
    let window = host.now.saturating_since(t_warm);
    let mut r = TrialResult {
        workload: NAME.to_string(),
        seed: a.seed,
        traced: a.traced,
        threads: 1,
        setup_s,
        timed_wall_s,
        slice_wall_s,
        ios: c.completed - warm.completed,
        attempted: c.submitted - warm.submitted,
        failed: c.failed - warm.failed,
        ..TrialResult::default()
    };
    let mut lat = std::mem::take(&mut host.latencies_ns);
    record_latencies(&mut r, &mut lat, window.as_secs_f64());

    r.check(
        "warm_up_wrote_every_block",
        warm.completed == WORKING_SET_BLOCKS,
        || {
            format!(
                "{} of {WORKING_SET_BLOCKS} blocks pre-written",
                warm.completed
            )
        },
    );
    r.check(
        "submitted_eq_completed_plus_outstanding",
        c.submitted == c.completed + c.failed + host.vq.in_flight() as u64,
        || format!("{c:?}, {} in flight", host.vq.in_flight()),
    );
    r.check(
        "ring_conservation",
        host.vq.check_conservation().is_ok(),
        || host.vq.check_conservation().err().unwrap_or_default(),
    );
    r.check(
        "reads_return_the_bytes_written",
        c.readback_mismatches == 0,
        || {
            format!(
                "{} reads decrypted to the wrong bytes",
                c.readback_mismatches
            )
        },
    );
    r.check(
        "segment_checker_verdicts_ok",
        c.segment_corrupt == 0,
        || format!("{} SegmentChecker verdicts were Corrupt", c.segment_corrupt),
    );
    r.check("store_crc_verified", c.store_crc_failures == 0, || {
        format!(
            "{} blocks reached the store with a bad CRC",
            c.store_crc_failures
        )
    });
    r.check(
        "reads_were_exercised",
        c.reads_done > warm.reads_done,
        || "the timed segment completed no read".to_string(),
    );
    r.check_no_failures();
    let stats = host.client.stats();
    r.check(
        "drops_exercised_retransmit",
        host.shim.dropped > 0 && stats.retransmits > 0,
        || {
            format!(
                "{} drops, {} retransmits",
                host.shim.dropped, stats.retransmits
            )
        },
    );

    // The outcome digest: everything a repeat of this seed must reproduce.
    let store_hash = host.store.iter().flatten().fold(0u64, |h, (_, crc)| {
        (h ^ u64::from(*crc)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    r.digest = fnv_hex(&format!(
        "{c:?} {stats:?} now={} dropped={} store={store_hash:016x}",
        host.now.as_nanos(),
        host.shim.dropped
    ));
    r.peak_rss_mib = crate::trial::peak_rss_mib();

    let pkts = stats.pkts_sent - stats0.pkts_sent;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    r.set_layer("solar.pkts_sent", pkts as f64);
    r.set_layer(
        "solar.retransmit_ratio",
        per(stats.retransmits - stats0.retransmits, pkts),
    );
    r.set_layer("solar.timeouts", (stats.timeouts - stats0.timeouts) as f64);
    r.set_layer(
        "solar.path_failovers",
        (stats.path_failovers - stats0.path_failovers) as f64,
    );
    r.set_layer(
        "solar.rpcs_failed",
        (stats.rpcs_failed - stats0.rpcs_failed) as f64,
    );
    r.set_layer("net.drops", (host.shim.dropped) as f64);
    r.set_layer(
        "net.delivered",
        (host.shim.seen - shim0 - host.shim.dropped) as f64,
    );
    let (reads, writes) = (
        c.store_reads - warm.store_reads,
        c.store_writes - warm.store_writes,
    );
    r.set_layer("storage.reads", reads as f64);
    r.set_layer("storage.writes", writes as f64);
    r.set_layer("storage.ops_per_io", per(reads + writes, r.ios));
    r.set_layer("blk.requests", r.attempted as f64);
    r.set_layer(
        "blk.data_mib",
        (r.ios * BLOCK as u64) as f64 / (1 << 20) as f64,
    );
    let pool = ebs_wire::pool::default_pool_stats();
    let (hits, misses) = (pool.hits - pool0.hits, pool.misses - pool0.misses);
    r.set_layer("wire.pool_reuse_ratio", per(hits, hits + misses));
    if a.traced {
        let ios = r.ios;
        tracer.with_book(|b| {
            let self_ns = |l: Layer| b.totals(l).self_ns;
            let spans = |l: Layer| b.totals(l).spans;
            r.set_layer(
                "solar.client_ns_per_pkt",
                per(self_ns(Layer::SolarClient), pkts),
            );
            r.set_layer(
                "solar.responder_ns_per_pkt",
                per(
                    self_ns(Layer::SolarResponder),
                    c.server_pkts - warm.server_pkts,
                ),
            );
            r.set_layer(
                "dpu.pipeline_ns_per_block",
                per(
                    self_ns(Layer::DpuPipeline),
                    c.pipeline_blocks - warm.pipeline_blocks,
                ),
            );
            r.set_layer("sa.split_ns_per_io", per(self_ns(Layer::SaSplit), ios));
            r.set_layer(
                "crc.ns_per_block",
                per(self_ns(Layer::CrcBlock), spans(Layer::CrcBlock)),
            );
            r.set_layer(
                "crc.aggregate_ns_per_segment",
                per(self_ns(Layer::CrcAggregate), c.reads_done - warm.reads_done),
            );
            r.set_layer(
                "crypto.ns_per_block",
                per(self_ns(Layer::CryptoBlock), spans(Layer::CryptoBlock)),
            );
            r.set_layer(
                "wire.pool_ns_per_buf",
                per(self_ns(Layer::WirePool), c.pool_bufs - warm.pool_bufs),
            );
            r.set_layer(
                "wire.codec_ns_per_hdr",
                per(self_ns(Layer::WireCodec), spans(Layer::WireCodec)),
            );
            r.set_layer("blk.ring_ns_per_req", per(self_ns(Layer::BlkRing), ios));
            r.set_layer(
                "host.layers_self_share",
                b.self_ns_all() as f64 / (timed_wall_s * 1e9),
            );
        });
        r.set_layer("host.allocs_per_io", per(allocs, ios));
        r.set_layer("host.alloc_bytes_per_io", per(alloc_bytes, ios));
        r.trace_file = crate::trial::write_trace(NAME, &tracer.with_book(|b| b.chrome_trace()));
    }
    r
}
