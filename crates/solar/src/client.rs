//! The SOLAR initiator (compute-side control plane).
//!
//! One [`SolarClient`] manages the transport toward **one block server**:
//! it sprays one-block packets across the persistent paths (favoring low
//! RTT), tracks per-packet timeouts for selective retransmission on a
//! different path, infers path failure from consecutive timeouts and
//! shifts traffic within milliseconds (§4.5), and runs HPCC per path from
//! the INT stacks echoed in per-packet ACKs.
//!
//! Sans-io: the host drives it with [`SolarClient::on_packet`] /
//! [`SolarClient::on_timer`], drains [`SolarClient::poll_transmit`] and
//! [`SolarClient::poll_event`].
//!
//! Simplification vs. Fig. 13: the paper sends one READ request RPC that
//! yields multiple response blocks; we send one small `ReadReq` packet per
//! block so that every outstanding packet has exactly one answer and the
//! retransmission machinery is identical for reads and writes. The wire
//! property that matters — each *data-bearing* packet is one self-
//! contained block — is unchanged.

use ebs_sim::FxHashMap;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use ebs_sim::{SimDuration, SimTime};
use ebs_wire::{
    EbsHeader, EbsOp, IntStack, BLOCK_SIZE, FLAG_ECN_ECHO, FLAG_INT_REQUEST, FLAG_RETRANSMIT,
};

use crate::config::SolarConfig;
use crate::path::PathSet;

/// A packet the host must put on the wire (UDP source port selects the
/// path: `BASE_PORT + hdr.path_id`).
#[derive(Debug, Clone)]
pub struct OutPacket {
    /// EBS header (path_id / path_seq already assigned).
    pub hdr: EbsHeader,
    /// Block payload (empty for requests/acks/probes).
    pub payload: Bytes,
    /// UDP source port to use.
    pub src_port: u16,
    /// Whether switches should stamp INT into this packet.
    pub int_request: bool,
}

impl OutPacket {
    /// Total wire size (Ethernet+IP+UDP+EBS headers + payload).
    pub fn wire_size(&self) -> usize {
        ebs_wire::SOLAR_OVERHEAD + self.payload.len()
    }
}

/// A packet arriving from the fabric.
#[derive(Debug, Clone)]
pub struct InPacket {
    /// Decoded EBS header.
    pub hdr: EbsHeader,
    /// Payload (for `ReadResp`).
    pub payload: Bytes,
    /// INT stack carried/echoed by this packet.
    pub int: Option<IntStack>,
}

/// What kind of I/O an RPC is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    /// Write blocks to the block server.
    Write,
    /// Read blocks back.
    Read,
}

/// Completion / notification events for the host.
#[derive(Debug)]
pub enum SolarEvent {
    /// Every packet of the RPC has been acknowledged / received.
    RpcCompleted {
        /// RPC id.
        rpc_id: u64,
        /// Read or write.
        kind: RpcKind,
        /// Submission-to-completion latency.
        latency: SimDuration,
    },
    /// One read block arrived (host DMAs it to `guest_addr` and feeds the
    /// segment CRC checker).
    BlockReceived {
        /// RPC id.
        rpc_id: u64,
        /// Packet index within the RPC.
        pkt_id: u16,
        /// Virtual-disk block address.
        block_addr: u64,
        /// Guest memory destination recorded in the Addr table.
        guest_addr: u64,
        /// Block payload.
        data: Bytes,
        /// CRC the responder computed (verified by the host's checker).
        crc: u32,
    },
    /// A packet exhausted its retry budget; the RPC failed upward.
    RpcFailed {
        /// RPC id.
        rpc_id: u64,
    },
    /// A path was declared failed (consecutive timeouts).
    PathDown {
        /// Path index.
        path_id: u8,
    },
    /// A failed path answered a probe and rejoined the spray set.
    PathUp {
        /// Path index.
        path_id: u8,
    },
}

/// Transport counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolarStats {
    /// Data/request packets sent (including retransmissions).
    pub pkts_sent: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Per-packet timeouts.
    pub timeouts: u64,
    /// Losses inferred from path-sequence gaps (before RTO).
    pub reorder_losses: u64,
    /// RPCs completed.
    pub rpcs_completed: u64,
    /// RPCs failed.
    pub rpcs_failed: u64,
    /// Path failover events.
    pub path_failovers: u64,
    /// Probes sent.
    pub probes_sent: u64,
}

/// Identifies one packet of an RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PktKey {
    /// RPC id.
    pub rpc_id: u64,
    /// Packet index within the RPC.
    pub pkt_id: u16,
}

/// The one record per packet of an unfinished RPC. Its header is the
/// packet as last sent: `hdr.path_id` / `hdr.path_seq` name the path
/// and path sequence of the latest transmission, which — while
/// `in_flight` is set — is the packet's place in its path's FIFO order.
/// Only transmission sets `in_flight` (and the two header fields with
/// it); a loss clears it, an ack or a failed RPC removes the record.
#[derive(Debug)]
struct Outstanding {
    hdr: EbsHeader,
    payload: Bytes,
    credit_bytes: u64,
    sent_at: SimTime,
    /// Route epoch of the path at transmit time (see [`PathSet::epoch`]).
    path_epoch: u32,
    /// Times the packet was lost; nonzero marks a retransmission.
    retries: u32,
    generation: u64,
    in_flight: bool,
    /// Path that most recently timed this packet out; the retransmit
    /// prefers any other path.
    avoid_path: Option<u8>,
    /// The Addr-table entry of a read: where the block lands in guest
    /// memory. In real SOLAR the table lives in FPGA BRAM (Table 3
    /// charges it 5.1% LUT / 8.1% BRAM); it is the *only* per-request
    /// state the design needs.
    guest_addr: u64,
}

#[derive(Debug)]
struct RpcState {
    kind: RpcKind,
    total: u16,
    done: u16,
    submitted: SimTime,
}

/// An RTO deadline: (at ns, packet, transmit generation), earliest first.
type TimerEntry = Reverse<(u64, PktKey, u64)>;

/// One block of a WRITE submission.
#[derive(Debug, Clone)]
pub struct WriteBlock {
    /// Virtual-disk block address.
    pub block_addr: u64,
    /// Block payload (may be an empty placeholder in pure-latency sims;
    /// `len` is [`ebs_wire::BLOCK_SIZE`] in that case).
    pub payload: Bytes,
    /// Raw CRC32 of the (padded) payload, as the CRC stage computed it.
    pub crc: u32,
}

/// One block of a READ submission.
#[derive(Debug, Clone)]
pub struct ReadBlock {
    /// Virtual-disk block address to fetch.
    pub block_addr: u64,
    /// Guest memory address the block lands at (Addr-table entry).
    pub guest_addr: u64,
}

/// The SOLAR initiator toward one block server (see module docs).
#[derive(Debug)]
pub struct SolarClient {
    cfg: SolarConfig,
    paths: PathSet,
    outstanding: FxHashMap<PktKey, Outstanding>,
    txq: VecDeque<PktKey>,
    timers: BinaryHeap<TimerEntry>,
    rpcs: FxHashMap<u64, RpcState>,
    events: VecDeque<SolarEvent>,
    stats: SolarStats,
    next_generation: u64,
    rr_cursor: usize,
}

impl SolarClient {
    /// A client with `cfg.n_paths` fresh paths.
    ///
    /// # Panics
    /// Panics if `cfg.n_paths` is zero or exceeds 256.
    pub fn new(cfg: SolarConfig) -> Self {
        assert!(cfg.n_paths > 0 && cfg.n_paths <= 256, "1..=256 paths");
        let paths = PathSet::new(&cfg);
        SolarClient {
            cfg,
            paths,
            outstanding: FxHashMap::default(),
            txq: VecDeque::new(),
            timers: BinaryHeap::new(),
            rpcs: FxHashMap::default(),
            events: VecDeque::new(),
            stats: SolarStats::default(),
            next_generation: 1,
            rr_cursor: 0,
        }
    }

    /// Counters.
    pub fn stats(&self) -> SolarStats {
        self.stats
    }

    /// In-flight plus queued packets.
    pub fn outstanding_packets(&self) -> usize {
        self.outstanding.len()
    }

    /// Number of RPCs not yet completed or failed.
    pub fn inflight_rpcs(&self) -> usize {
        self.rpcs.len()
    }

    /// Submit a WRITE: one packet per block.
    ///
    /// # Panics
    /// Panics if `rpc_id` is already in flight or `blocks` is empty.
    pub fn submit_write(
        &mut self,
        now: SimTime,
        rpc_id: u64,
        vd_id: u64,
        segment_id: u64,
        blocks: Vec<WriteBlock>,
    ) {
        let blocks = blocks.into_iter().map(|b| (b, 0));
        self.submit(now, RpcKind::Write, rpc_id, vd_id, segment_id, blocks);
    }

    /// Submit a READ: one request packet per block; responses DMA to the
    /// recorded guest addresses.
    ///
    /// # Panics
    /// Panics if `rpc_id` is already in flight or `blocks` is empty.
    pub fn submit_read(
        &mut self,
        now: SimTime,
        rpc_id: u64,
        vd_id: u64,
        segment_id: u64,
        blocks: Vec<ReadBlock>,
    ) {
        // A request carries no payload, so it gets the length of the
        // block its response brings back.
        let blocks = blocks.into_iter().map(|b| {
            let request = WriteBlock {
                block_addr: b.block_addr,
                payload: Bytes::new(),
                crc: 0,
            };
            (request, b.guest_addr)
        });
        self.submit(now, RpcKind::Read, rpc_id, vd_id, segment_id, blocks);
    }

    /// Queue one packet per (block, guest address). A packet's window
    /// credit is its block plus headers; for a read that is the
    /// *response* size, the direction that congests.
    fn submit(
        &mut self,
        now: SimTime,
        kind: RpcKind,
        rpc_id: u64,
        vd_id: u64,
        segment_id: u64,
        blocks: impl ExactSizeIterator<Item = (WriteBlock, u64)>,
    ) {
        assert!(blocks.len() > 0, "empty {kind:?}");
        assert!(
            !self.rpcs.contains_key(&rpc_id),
            "rpc_id {rpc_id} already in flight"
        );
        let total = blocks.len() as u16;
        let rpc = RpcState {
            kind,
            total,
            done: 0,
            submitted: now,
        };
        self.rpcs.insert(rpc_id, rpc);
        let op = match kind {
            RpcKind::Write => EbsOp::WriteBlock,
            RpcKind::Read => EbsOp::ReadReq,
        };
        let flags = if self.cfg.int_enabled {
            FLAG_INT_REQUEST
        } else {
            0
        };
        for (pkt_id, (b, guest_addr)) in (0..).zip(blocks) {
            let len = if b.payload.is_empty() {
                BLOCK_SIZE
            } else {
                b.payload.len()
            };
            let hdr = EbsHeader {
                version: EbsHeader::VERSION,
                op,
                flags,
                path_id: 0,
                vd_id,
                rpc_id,
                pkt_id,
                total_pkts: total,
                block_addr: b.block_addr,
                len: len as u32,
                payload_crc: b.crc,
                path_seq: 0,
                // The Addr table entry travels with the client; segment_id
                // routes the lookup server-side.
                segment_id,
            };
            let o = Outstanding {
                hdr,
                payload: b.payload,
                credit_bytes: (len + ebs_wire::SOLAR_OVERHEAD) as u64,
                sent_at: now,
                path_epoch: 0,
                retries: 0,
                generation: 0,
                in_flight: false,
                avoid_path: None,
                guest_addr,
            };
            let key = PktKey { rpc_id, pkt_id };
            self.outstanding.insert(key, o);
            self.txq.push_back(key);
        }
    }

    /// Earliest instant `on_timer` must run (packet RTOs and path probes).
    /// The RTO part is always a packet still in flight: acks, NACKs and
    /// timeouts prune the heap tops they made stale.
    pub fn poll_timer(&self) -> Option<SimTime> {
        let t1 = (self.timers.peek()).map(|&Reverse((at_ns, ..))| SimTime::from_nanos(at_ns));
        let t2 = self.paths.min_next_probe();
        match (t1, t2) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fire due timers: packet timeouts (→ selective retransmit on another
    /// path, path-failure inference) and probe transmissions.
    pub fn on_timer(&mut self, now: SimTime) {
        // Packet RTOs, in deadline order. A timeout can fail its RPC and
        // so stale other entries: prune before every look at the top.
        loop {
            self.prune_timers();
            match self.timers.peek() {
                Some(&Reverse((at_ns, key, _))) if at_ns <= now.as_nanos() => {
                    self.timers.pop();
                    self.handle_timeout(now, key);
                }
                _ => break,
            }
        }
        // Probes for failed paths are emitted from poll_transmit; nothing
        // else to do here (next_probe gates them by time).
    }

    /// Pop RTO heap tops that no longer guard a packet in flight: the
    /// packet was acked or its RPC failed, it was sent again since (another
    /// generation), or it waits in the transmit queue. Every entry below a
    /// live top is no earlier than it, so `poll_timer` then names a live
    /// deadline and the host sets no timer for an acked packet.
    fn prune_timers(&mut self) {
        while let Some(&Reverse((_, key, generation))) = self.timers.peek() {
            let o = self.outstanding.get(&key);
            if o.is_some_and(|o| o.generation == generation && o.in_flight) {
                break;
            }
            self.timers.pop();
        }
    }

    /// Take in-flight packet `key` off its path: one more try spent, its
    /// window credit returned. `None` if it is not in flight.
    fn lose(&mut self, key: PktKey) -> Option<&mut Outstanding> {
        let o = self.outstanding.get_mut(&key).filter(|o| o.in_flight)?;
        o.in_flight = false;
        o.retries += 1;
        self.paths.release(o.hdr.path_id as usize, o.credit_bytes);
        Some(o)
    }

    /// A lost packet goes back to the head of the transmit queue, or
    /// fails its RPC once past the retry budget.
    fn retransmit_or_fail(&mut self, key: PktKey) {
        if self.outstanding[&key].retries > self.cfg.max_pkt_retries {
            self.fail_rpc(key.rpc_id);
        } else {
            self.stats.retransmits += 1;
            self.txq.push_front(key);
        }
    }

    /// An RTO fired or the responder NACKed `key`: the loss counts
    /// against the path's liveness, and the retransmit avoids that path.
    fn handle_timeout(&mut self, now: SimTime, key: PktKey) {
        let Some(o) = self.lose(key) else {
            return;
        };
        let path_id = o.hdr.path_id;
        o.avoid_path = Some(path_id);
        let sent_epoch = o.path_epoch;
        self.stats.timeouts += 1;
        if self.paths.on_timeout(path_id as usize, now, sent_epoch) {
            self.stats.path_failovers += 1;
            self.events.push_back(SolarEvent::PathDown { path_id });
        }
        self.retransmit_or_fail(key);
    }

    fn fail_rpc(&mut self, rpc_id: u64) {
        let Some(rpc) = self.rpcs.remove(&rpc_id) else {
            return;
        };
        self.stats.rpcs_failed += 1;
        self.events.push_back(SolarEvent::RpcFailed { rpc_id });
        for pkt_id in 0..rpc.total {
            let Some(o) = self.outstanding.remove(&PktKey { rpc_id, pkt_id }) else {
                continue; // already acknowledged
            };
            if o.in_flight {
                self.paths.release(o.hdr.path_id as usize, o.credit_bytes);
            }
        }
        self.txq.retain(|k| k.rpc_id != rpc_id);
    }

    /// Pick the best up path with window for `bytes`: lowest smoothed RTT,
    /// unknown-RTT paths tried round-robin so all get measured. Falls back
    /// to *any* up path (ignoring window) only for retransmissions, and to
    /// the least-bad failed path if everything is down.
    ///
    /// Retransmissions rotate cyclically from the path that just timed the
    /// packet out rather than re-running the sRTT-greedy choice: with two
    /// low-RTT paths that both cross a lossy device, greedy selection
    /// ping-pongs between them forever (each retry avoids only the *last*
    /// failure) while a healthy higher-RTT path is never tried. Cyclic
    /// rotation guarantees every up path is attempted within `n_paths`
    /// retries.
    fn pick_path(&self, bytes: u64, ignore_window: bool, avoid: Option<u8>) -> Option<u8> {
        let n = self.paths.len();
        // The scan reads only the PathSet's hot records (liveness, srtt,
        // window, inflight) — see the layout notes in `path`.
        if ignore_window {
            if let Some(avoid_id) = avoid {
                for k in 1..=n {
                    let idx = (avoid_id as usize + k) % n;
                    if idx != avoid_id as usize && self.paths.hot[idx].up {
                        return Some(idx as u8);
                    }
                }
                // No other up path: fall through to the shared last-resort
                // logic below (lone healthy path, then failed-path probe).
            }
        }
        let mut best: Option<(u8, f64)> = None;
        // Pass 1 honors the avoid-hint; if nothing qualifies, retry
        // without it (a lone healthy path is better than none).
        for honor_avoid in [true, false] {
            for i in 0..n {
                let idx = (self.rr_cursor + i) % n;
                if honor_avoid && avoid == Some(idx as u8) {
                    continue;
                }
                let h = &self.paths.hot[idx];
                if !h.up {
                    continue;
                }
                if !ignore_window && h.window.saturating_sub(h.inflight) < bytes {
                    continue;
                }
                let srtt_ns = h.srtt_ns;
                // Unmeasured paths look fastest → get sampled. The ns
                // value round-trips through u64 exactly as `srtt()` does,
                // so ties resolve identically to the per-path accessor.
                let rtt = if srtt_ns.is_nan() {
                    0.0
                } else {
                    (srtt_ns as u64) as f64
                };
                match best {
                    None => best = Some((idx as u8, rtt)),
                    Some((_, b)) if rtt < b => best = Some((idx as u8, rtt)),
                    _ => {}
                }
            }
            if best.is_some() {
                break;
            }
        }
        // Last resort for retransmissions: every path is Failed, but an
        // idle transmit queue helps nobody — push the packet through the
        // least-recently-probed failed path (it doubles as a probe with
        // payload).
        if best.is_none() && ignore_window {
            let mut min: Option<(u8, u64)> = None;
            for (idx, h) in self.paths.hot.iter().enumerate() {
                let at = h.next_probe_ns;
                if min.is_none_or(|(_, m)| at < m) {
                    min = Some((idx as u8, at));
                }
            }
            best = min.map(|(id, _)| (id, 0.0));
        }
        best.map(|(id, _)| id)
    }

    /// Produce the next packet to put on the wire, if any. Call repeatedly
    /// until `None` after submissions, ACKs and timer fires.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<OutPacket> {
        // 1. Probes for failed paths (one compare when none is due).
        if let Some(i) = self.paths.first_due_probe(now) {
            self.paths.probe_sent(i, now);
            self.stats.probes_sent += 1;
            let src_port = self.paths.src_port(i);
            return Some(OutPacket {
                hdr: EbsHeader {
                    version: EbsHeader::VERSION,
                    op: EbsOp::Probe,
                    flags: 0,
                    path_id: i as u8,
                    vd_id: 0,
                    rpc_id: 0,
                    pkt_id: 0,
                    total_pkts: 0,
                    block_addr: 0,
                    len: 0,
                    payload_crc: 0,
                    path_seq: 0,
                    segment_id: 0,
                },
                payload: Bytes::new(),
                src_port,
                int_request: false,
            });
        }

        // 2. Data / request packets gated by per-path windows. Scan a
        // bounded prefix of the queue so a window-blocked new packet at
        // the head cannot starve retransmissions (which bypass windows)
        // or packets destined for paths with free window.
        let mut chosen: Option<(usize, PktKey, u8)> = None;
        for (idx, &key) in self.txq.iter().enumerate().take(64) {
            let Some(o) = self.outstanding.get(&key) else {
                continue;
            };
            let is_retx = o.retries > 0;
            if let Some(path_id) = self.pick_path(o.credit_bytes, is_retx, o.avoid_path) {
                chosen = Some((idx, key, path_id));
                break;
            }
        }
        let (idx, key, path_id) = chosen?;
        self.txq.remove(idx);
        self.rr_cursor = (self.rr_cursor + 1) % self.paths.len();

        let generation = self.next_generation;
        self.next_generation += 1;
        let Some(o) = self.outstanding.get_mut(&key) else {
            // Unreachable by construction — the txq scan above verified the
            // key — but a lost entry must not take the whole client down.
            return None;
        };
        let bytes = o.credit_bytes;
        let is_retx = o.retries > 0;
        let seq = self.paths.register_tx(path_id as usize, bytes);
        o.path_epoch = self.paths.epoch(path_id as usize);
        o.sent_at = now;
        o.generation = generation;
        o.in_flight = true;
        o.hdr.path_id = path_id;
        o.hdr.path_seq = seq;
        if is_retx {
            o.hdr.flags |= FLAG_RETRANSMIT;
        }
        let rto = self.paths.rto(path_id as usize);
        self.timers
            .push(Reverse(((now + rto).as_nanos(), key, generation)));
        self.stats.pkts_sent += 1;
        let src_port = self.paths.src_port(path_id as usize);
        Some(OutPacket {
            hdr: o.hdr,
            // O(1) handle clone of the (possibly pooled) block — first
            // transmission and every retransmission share one buffer.
            payload: o.payload.clone(),
            src_port,
            int_request: self.cfg.int_enabled,
        })
    }

    /// Process a packet from the fabric (ACK, read response, probe ack or
    /// NACK).
    pub fn on_packet(&mut self, now: SimTime, pkt: InPacket) {
        match pkt.hdr.op {
            EbsOp::WriteAck | EbsOp::ReadResp => self.complete_packet(now, pkt),
            EbsOp::ProbeAck => {
                let id = pkt.hdr.path_id as usize;
                if id < self.paths.len() && !self.paths.is_up(id) {
                    self.paths.revive(id);
                    self.events.push_back(SolarEvent::PathUp {
                        path_id: pkt.hdr.path_id,
                    });
                }
            }
            EbsOp::Nack => {
                let key = PktKey {
                    rpc_id: pkt.hdr.rpc_id,
                    pkt_id: pkt.hdr.pkt_id,
                };
                self.handle_timeout(now, key); // treat as immediate loss
            }
            EbsOp::GapNack => self.on_gap_nack(&pkt.hdr),
            EbsOp::WriteBlock | EbsOp::ReadReq | EbsOp::Probe => {
                // Initiator never receives these; drop.
            }
        }
        self.prune_timers();
    }

    fn complete_packet(&mut self, now: SimTime, pkt: InPacket) {
        let key = PktKey {
            rpc_id: pkt.hdr.rpc_id,
            pkt_id: pkt.hdr.pkt_id,
        };
        let is_read = pkt.hdr.op == EbsOp::ReadResp;
        // A WriteAck answers a WriteBlock; a ReadResp answers a ReadReq
        // for the same block.
        let answers = |req: &EbsHeader| match req.op {
            EbsOp::WriteBlock => !is_read,
            EbsOp::ReadReq => is_read && req.block_addr == pkt.hdr.block_addr,
            _ => false,
        };
        let o = match self.outstanding.entry(key) {
            Entry::Occupied(e) if e.get().in_flight && answers(&e.get().hdr) => e.remove(),
            // Duplicate ack, ack after RPC failure, the packet waits in the
            // transmit queue for retransmission, or the response answers
            // another packet under the same ids: a stale ack.
            _ => return,
        };
        let path = o.hdr.path_id as usize;
        self.paths.release(path, o.credit_bytes);
        // Karn's rule: a retransmission's round trip is no RTT sample.
        let sample = (o.retries == 0).then(|| now.saturating_since(o.sent_at));
        // The responder copies the request header into the ack, so a
        // RED mark picked up by either direction surfaces here.
        let ecn = pkt.hdr.flags & FLAG_ECN_ECHO != 0;
        self.paths.on_ack(path, now, sample, pkt.int.as_ref(), ecn);

        if is_read {
            self.events.push_back(SolarEvent::BlockReceived {
                rpc_id: key.rpc_id,
                pkt_id: key.pkt_id,
                block_addr: pkt.hdr.block_addr,
                guest_addr: o.guest_addr,
                data: pkt.payload,
                crc: pkt.hdr.payload_crc,
            });
        }

        // RPC progress.
        if let Some(rpc) = self.rpcs.get_mut(&key.rpc_id) {
            rpc.done += 1;
            if rpc.done == rpc.total {
                let kind = rpc.kind;
                let latency = now.saturating_since(rpc.submitted);
                self.rpcs.remove(&key.rpc_id);
                self.stats.rpcs_completed += 1;
                self.events.push_back(SolarEvent::RpcCompleted {
                    rpc_id: key.rpc_id,
                    kind,
                    latency,
                });
            }
        }
    }

    /// Handle a receiver-side gap report: every outstanding packet whose
    /// sequence falls in the reported gap is definitively lost (per-path
    /// FIFO) and is retransmitted immediately, without waiting for its
    /// RTO. ACK completion order carries *no* ordering information (it is
    /// storage completion order), which is why loss inference lives at
    /// the receiver, not in dupack counting.
    ///
    /// The gap's packets are found by a scan of the per-packet records,
    /// taken in path-sequence order. Gap reports are rare (a loss on a
    /// path that kept delivering), so no per-path index is kept for them.
    fn on_gap_nack(&mut self, hdr: &EbsHeader) {
        let path_idx = hdr.path_id as usize;
        if path_idx >= self.paths.len() {
            return;
        }
        let gap = hdr.block_addr as u32..hdr.path_seq;
        if gap.is_empty() {
            return;
        }
        let mut lost: Vec<(u32, PktKey)> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.in_flight && o.hdr.path_id as usize == path_idx)
            .filter(|(_, o)| gap.contains(&o.hdr.path_seq))
            .map(|(&k, o)| (o.hdr.path_seq, k))
            .collect();
        lost.sort_unstable();
        for (_, k) in lost {
            if self.lose(k).is_some() {
                self.stats.reorder_losses += 1;
                self.retransmit_or_fail(k);
            }
        }
    }

    /// Drain the next host-visible event.
    pub fn poll_event(&mut self) -> Option<SolarEvent> {
        self.events.pop_front()
    }

    /// Number of live Addr-table entries (read blocks not yet received).
    pub fn addr_table_entries(&self) -> usize {
        let reads = self.outstanding.values();
        reads.filter(|o| o.hdr.op == EbsOp::ReadReq).count()
    }
}

impl ebs_obs::Sample for SolarClient {
    /// Component `solar`: transport counters, liveness, and per-path RTT /
    /// occupancy distributions (one histogram observation per path, so
    /// multipath skew is visible without dynamic metric keys).
    fn sample_into(&self, _now: SimTime, m: &mut ebs_obs::Metrics) {
        let s = self.stats;
        m.counter_add("solar", "pkts_sent", s.pkts_sent);
        m.counter_add("solar", "retransmits", s.retransmits);
        m.counter_add("solar", "timeouts", s.timeouts);
        m.counter_add("solar", "reorder_losses", s.reorder_losses);
        m.counter_add("solar", "rpcs_completed", s.rpcs_completed);
        m.counter_add("solar", "rpcs_failed", s.rpcs_failed);
        m.counter_add("solar", "path_failovers", s.path_failovers);
        m.counter_add("solar", "probes_sent", s.probes_sent);
        let p = &self.paths;
        let up = (0..p.len()).filter(|&i| p.is_up(i)).count();
        m.gauge_set("solar", "paths_up", up as f64);
        m.gauge_set("solar", "inflight_rpcs", self.rpcs.len() as f64);
        for i in 0..p.len() {
            if let Some(srtt) = p.srtt(i) {
                m.observe("solar", "path_srtt_ns", srtt.as_nanos());
            }
            m.observe("solar", "path_inflight_bytes", p.inflight_bytes(i));
            m.observe("solar", "path_window_bytes", p.window(i));
        }
    }
}

#[cfg(test)]
mod gap_nack_model;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `hdr` turned around as the responder would answer it: same
    /// identifiers, another op.
    fn answer(hdr: &EbsHeader, op: EbsOp) -> InPacket {
        let hdr = EbsHeader { op, ..*hdr };
        InPacket {
            hdr,
            payload: Bytes::new(),
            int: None,
        }
    }

    fn write_blocks(n: usize) -> Vec<WriteBlock> {
        let block = |i| WriteBlock {
            block_addr: i as u64,
            payload: Bytes::new(),
            crc: 0,
        };
        (0..n).map(block).collect()
    }

    #[test]
    fn live_timer_acked_write_leaves_none() {
        let mut c = SolarClient::new(SolarConfig::default());
        let t0 = SimTime::from_micros(10);
        c.submit_write(t0, 1, 7, 0, write_blocks(4));
        let mut now = t0;
        while c.outstanding_packets() > 0 {
            let sent: Vec<_> = std::iter::from_fn(|| c.poll_transmit(now)).collect();
            assert!(!sent.is_empty(), "window stalled a fault-free write");
            assert!(c.poll_timer().is_some());
            now += SimDuration::from_micros(50);
            for out in &sent {
                c.on_packet(now, answer(&out.hdr, EbsOp::WriteAck));
            }
        }
        assert!(matches!(
            c.poll_event(),
            Some(SolarEvent::RpcCompleted { rpc_id: 1, .. })
        ));
        assert_eq!(c.poll_timer(), None, "an acked packet keeps no deadline");
    }

    /// A response is accepted only by the packet it answers: a WriteAck
    /// by a WriteBlock, a ReadResp by a ReadReq for the same block. Any
    /// other response under the packet's ids is dropped as stale and
    /// leaves the packet outstanding.
    #[test]
    fn response_must_answer_its_packet() {
        let mut c = SolarClient::new(SolarConfig::default());
        let now = SimTime::from_micros(10);
        let read = |i: u64| ReadBlock {
            block_addr: 100 + i,
            guest_addr: 0x1000 * i,
        };
        c.submit_read(now, 1, 7, 0, (0..2).map(read).collect());
        c.submit_write(now, 2, 7, 0, write_blocks(1));
        let sent: Vec<_> = std::iter::from_fn(|| c.poll_transmit(now)).collect();
        let find = |op| sent.iter().find(|o| o.hdr.op == op).expect("sent").hdr;
        let (rd, wr) = (find(EbsOp::ReadReq), find(EbsOp::WriteBlock));
        let later = now + SimDuration::from_micros(50);

        // Wrong op for either packet, and a read response for another block.
        c.on_packet(later, answer(&rd, EbsOp::WriteAck));
        c.on_packet(later, answer(&wr, EbsOp::ReadResp));
        let other_block = EbsHeader {
            block_addr: rd.block_addr + 1,
            ..rd
        };
        c.on_packet(later, answer(&other_block, EbsOp::ReadResp));
        assert!(c.poll_event().is_none(), "a mismatched response completed");
        assert_eq!(c.outstanding_packets(), 3);

        // The true answers complete them.
        c.on_packet(later, answer(&wr, EbsOp::WriteAck));
        c.on_packet(later, answer(&rd, EbsOp::ReadResp));
        assert_eq!(c.outstanding_packets(), 1);
        assert!(matches!(
            c.poll_event(),
            Some(SolarEvent::RpcCompleted { rpc_id: 2, .. })
        ));
        assert!(matches!(
            c.poll_event(),
            Some(SolarEvent::BlockReceived { rpc_id: 1, block_addr, .. }) if block_addr == rd.block_addr
        ));
    }

    /// The deadline `poll_timer` must report, computed from the packets
    /// `outstanding` holds in flight and the deadline each got when it was
    /// last sent (recorded by the test, not read from the heap).
    fn live_deadline(c: &SolarClient, sent_rto: &FxHashMap<PktKey, SimTime>) -> Option<SimTime> {
        let in_flight = c.outstanding.iter().filter(|(_, o)| o.in_flight);
        let rto = in_flight.map(|(k, _)| sent_rto[k]).min();
        match (rto, c.paths.min_next_probe()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    proptest! {
        /// Random scripts of submit / transmit / ack (sometimes answered
        /// twice) / drop / NACK / gap NACK / time advance / event poll on
        /// a 4-path client with a 2-retry budget, so packets time out,
        /// RPCs fail and paths go down and are probed: after every call,
        /// `poll_timer` is exactly the earliest live deadline. Advances
        /// span an RTT sample (< 200 µs), an RTO (< 3 ms) and a probe
        /// interval (< 15 ms). After every step each loss — a timeout or
        /// NACK, or a gap NACK — has been either retransmitted or has
        /// failed its RPC, exactly once.
        #[test]
        fn live_timer_is_earliest_live_deadline(
            steps in proptest::collection::vec((0u32..21, any::<usize>(), any::<bool>(), any::<u64>()), 1..200),
        ) {
            let cfg = SolarConfig { max_pkt_retries: 2, ..SolarConfig::default() };
            let mut c = SolarClient::new(cfg);
            let mut now = SimTime::ZERO;
            let mut next_rpc = 1u64;
            let mut wire: Vec<EbsHeader> = Vec::new();
            let mut sent_rto: FxHashMap<PktKey, SimTime> = FxHashMap::default();
            for (kind, idx, flag, us) in steps {
                // The packet on the wire a step answers, if there is one.
                let on_wire = (!wire.is_empty()).then(|| idx % wire.len());
                match (kind, on_wire) {
                    (0..=2, _) => {
                        let (rpc, blocks) = (next_rpc, 1 + idx % 4);
                        next_rpc += 1;
                        if flag {
                            c.submit_write(now, rpc, 1, 0, write_blocks(blocks));
                        } else {
                            let read = |i: usize| ReadBlock { block_addr: i as u64, guest_addr: 0 };
                            c.submit_read(now, rpc, 1, 0, (0..blocks).map(read).collect());
                        }
                    }
                    (3..=6, _) => {
                        while let Some(out) = c.poll_transmit(now) {
                            let hdr = out.hdr;
                            if hdr.op != EbsOp::Probe {
                                let key = PktKey { rpc_id: hdr.rpc_id, pkt_id: hdr.pkt_id };
                                sent_rto.insert(key, now + c.paths.rto(hdr.path_id as usize));
                            }
                            wire.push(hdr);
                            prop_assert_eq!(c.poll_timer(), live_deadline(&c, &sent_rto));
                        }
                    }
                    (7..=12, Some(i)) => {
                        let hdr = if flag { wire[i] } else { wire.swap_remove(i) };
                        let op = match hdr.op {
                            EbsOp::WriteBlock => EbsOp::WriteAck,
                            EbsOp::ReadReq => EbsOp::ReadResp,
                            _ => EbsOp::ProbeAck,
                        };
                        c.on_packet(now, answer(&hdr, op));
                    }
                    (13..=14, Some(i)) => {
                        wire.swap_remove(i);
                    }
                    (15, Some(i)) => c.on_packet(now, answer(&wire.swap_remove(i), EbsOp::Nack)),
                    (16, Some(i)) => {
                        // The responder saw the packet's path sequence skipped.
                        let hdr = wire.swap_remove(i);
                        let gap = EbsHeader {
                            block_addr: u64::from(hdr.path_seq),
                            path_seq: hdr.path_seq + 1,
                            ..hdr
                        };
                        c.on_packet(now, answer(&gap, EbsOp::GapNack));
                    }
                    (17..=19, _) => {
                        now += SimDuration::from_micros(us % [200, 3_000, 15_000][idx % 3]);
                        c.on_timer(now);
                    }
                    (20, _) => {
                        c.poll_event();
                    }
                    _ => {} // nothing on the wire to answer
                }
                prop_assert_eq!(c.poll_timer(), live_deadline(&c, &sent_rto));
                let s = c.stats();
                prop_assert_eq!(s.timeouts + s.reorder_losses, s.retransmits + s.rpcs_failed);
            }
        }
    }
}
