//! Model test of gap-NACK loss inference without a per-path index.
//!
//! A gap report names a path and a range of its sequences; the client
//! finds the packets it lost by scanning its per-packet records for those
//! in flight on that path in the range, in sequence order. It used to
//! keep, per path, a B-tree from path sequence to packet, filled at every
//! transmission and emptied at every release, and read the range off it.
//! [`Indexed`] is that client: the same state and the same methods, with
//! the index kept beside it exactly where it was kept before, at
//! transmission (`poll_transmit`) and at every release (a loss, an ack, a
//! failed RPC), and gap reports answered from it.
//!
//! Random scripts of submit / transmit / ack / drop / NACK / gap NACK /
//! time advance / event poll drive both through a lossy 4-path
//! connection with a 2-retry budget, so packets time out, RPCs of up to
//! 8 blocks fail part-way through a gap, and paths go down and are
//! probed. Both must put the same packets on the wire in the same order —
//! every retransmission included — raise the same events, arm the same
//! timer and report the same [`SolarStats`].

use std::collections::BTreeMap;

use proptest::prelude::*;

use super::*;

/// The client with its per-path sequence index (module docs).
struct Indexed {
    c: SolarClient,
    index: Vec<BTreeMap<u32, PktKey>>,
}

impl Indexed {
    fn new(cfg: SolarConfig) -> Self {
        let index = vec![BTreeMap::new(); cfg.n_paths];
        Indexed {
            c: SolarClient::new(cfg),
            index,
        }
    }

    /// Transmission is unchanged; the index learns where the packet went.
    fn poll_transmit(&mut self, now: SimTime) -> Option<OutPacket> {
        let out = self.c.poll_transmit(now)?;
        let hdr = &out.hdr;
        if hdr.op != EbsOp::Probe {
            let key = PktKey {
                rpc_id: hdr.rpc_id,
                pkt_id: hdr.pkt_id,
            };
            self.index[hdr.path_id as usize].insert(hdr.path_seq, key);
        }
        Some(out)
    }

    fn release(&mut self, path: usize, seq: u32, bytes: u64) {
        self.index[path].remove(&seq);
        self.c.paths.release(path, bytes);
    }

    fn lose(&mut self, key: PktKey) -> Option<&mut Outstanding> {
        let o = self.c.outstanding.get_mut(&key).filter(|o| o.in_flight)?;
        o.in_flight = false;
        o.retries += 1;
        let path = o.hdr.path_id as usize;
        self.index[path].remove(&o.hdr.path_seq);
        self.c.paths.release(path, o.credit_bytes);
        Some(o)
    }

    fn retransmit_or_fail(&mut self, key: PktKey) {
        if self.c.outstanding[&key].retries > self.c.cfg.max_pkt_retries {
            self.fail_rpc(key.rpc_id);
        } else {
            self.c.stats.retransmits += 1;
            self.c.txq.push_front(key);
        }
    }

    fn handle_timeout(&mut self, now: SimTime, key: PktKey) {
        let Some(o) = self.lose(key) else {
            return;
        };
        let path_id = o.hdr.path_id;
        o.avoid_path = Some(path_id);
        let sent_epoch = o.path_epoch;
        let c = &mut self.c;
        c.stats.timeouts += 1;
        if c.paths.on_timeout(path_id as usize, now, sent_epoch) {
            c.stats.path_failovers += 1;
            c.events.push_back(SolarEvent::PathDown { path_id });
        }
        self.retransmit_or_fail(key);
    }

    fn fail_rpc(&mut self, rpc_id: u64) {
        let Some(rpc) = self.c.rpcs.remove(&rpc_id) else {
            return;
        };
        self.c.stats.rpcs_failed += 1;
        self.c.events.push_back(SolarEvent::RpcFailed { rpc_id });
        for pkt_id in 0..rpc.total {
            let Some(o) = self.c.outstanding.remove(&PktKey { rpc_id, pkt_id }) else {
                continue;
            };
            if o.in_flight {
                self.release(o.hdr.path_id as usize, o.hdr.path_seq, o.credit_bytes);
            }
        }
        self.c.txq.retain(|k| k.rpc_id != rpc_id);
    }

    fn on_timer(&mut self, now: SimTime) {
        loop {
            self.c.prune_timers();
            match self.c.timers.peek() {
                Some(&Reverse((at_ns, key, _))) if at_ns <= now.as_nanos() => {
                    self.c.timers.pop();
                    self.handle_timeout(now, key);
                }
                _ => break,
            }
        }
    }

    fn on_packet(&mut self, now: SimTime, pkt: InPacket) {
        match pkt.hdr.op {
            EbsOp::WriteAck | EbsOp::ReadResp => self.complete_packet(now, pkt),
            EbsOp::ProbeAck => {
                let id = pkt.hdr.path_id as usize;
                if id < self.c.paths.len() && !self.c.paths.is_up(id) {
                    self.c.paths.revive(id);
                    let path_id = pkt.hdr.path_id;
                    self.c.events.push_back(SolarEvent::PathUp { path_id });
                }
            }
            EbsOp::Nack => {
                let key = PktKey {
                    rpc_id: pkt.hdr.rpc_id,
                    pkt_id: pkt.hdr.pkt_id,
                };
                self.handle_timeout(now, key);
            }
            EbsOp::GapNack => self.on_gap_nack(&pkt.hdr),
            EbsOp::WriteBlock | EbsOp::ReadReq | EbsOp::Probe => {}
        }
        self.c.prune_timers();
    }

    fn complete_packet(&mut self, now: SimTime, pkt: InPacket) {
        let key = PktKey {
            rpc_id: pkt.hdr.rpc_id,
            pkt_id: pkt.hdr.pkt_id,
        };
        let is_read = pkt.hdr.op == EbsOp::ReadResp;
        let answers = |req: &EbsHeader| match req.op {
            EbsOp::WriteBlock => !is_read,
            EbsOp::ReadReq => is_read && req.block_addr == pkt.hdr.block_addr,
            _ => false,
        };
        let o = match self.c.outstanding.entry(key) {
            Entry::Occupied(e) if e.get().in_flight && answers(&e.get().hdr) => e.remove(),
            _ => return,
        };
        let path = o.hdr.path_id as usize;
        self.release(path, o.hdr.path_seq, o.credit_bytes);
        let c = &mut self.c;
        let sample = (o.retries == 0).then(|| now.saturating_since(o.sent_at));
        let ecn = pkt.hdr.flags & FLAG_ECN_ECHO != 0;
        c.paths.on_ack(path, now, sample, pkt.int.as_ref(), ecn);
        if is_read {
            c.events.push_back(SolarEvent::BlockReceived {
                rpc_id: key.rpc_id,
                pkt_id: key.pkt_id,
                block_addr: pkt.hdr.block_addr,
                guest_addr: o.guest_addr,
                data: pkt.payload,
                crc: pkt.hdr.payload_crc,
            });
        }
        if let Some(rpc) = c.rpcs.get_mut(&key.rpc_id) {
            rpc.done += 1;
            if rpc.done == rpc.total {
                let kind = rpc.kind;
                let latency = now.saturating_since(rpc.submitted);
                c.rpcs.remove(&key.rpc_id);
                c.stats.rpcs_completed += 1;
                c.events.push_back(SolarEvent::RpcCompleted {
                    rpc_id: key.rpc_id,
                    kind,
                    latency,
                });
            }
        }
    }

    fn on_gap_nack(&mut self, hdr: &EbsHeader) {
        let path_idx = hdr.path_id as usize;
        if path_idx >= self.c.paths.len() {
            return;
        }
        let gap_start = hdr.block_addr as u32;
        let gap_end = hdr.path_seq;
        if gap_start >= gap_end {
            return;
        }
        let lost: Vec<PktKey> = self.index[path_idx]
            .range(gap_start..gap_end)
            .map(|(_, &k)| k)
            .collect();
        for k in lost {
            if self.lose(k).is_some() {
                self.c.stats.reorder_losses += 1;
                self.retransmit_or_fail(k);
            }
        }
    }
}

/// `hdr` turned around as the responder would answer it.
fn answer(hdr: &EbsHeader, op: EbsOp) -> InPacket {
    InPacket {
        hdr: EbsHeader { op, ..*hdr },
        payload: Bytes::new(),
        int: None,
    }
}

/// Submit RPC `rpc` of `blocks` blocks: a write, or else a read.
fn submit(c: &mut SolarClient, now: SimTime, rpc: u64, blocks: u64, write: bool) {
    if write {
        let block = |i| WriteBlock {
            block_addr: i,
            payload: Bytes::new(),
            crc: 0,
        };
        c.submit_write(now, rpc, 1, 0, (0..blocks).map(block).collect());
    } else {
        let block = |i| ReadBlock {
            block_addr: i,
            guest_addr: 0,
        };
        c.submit_read(now, rpc, 1, 0, (0..blocks).map(block).collect());
    }
}

/// Everything a caller can observe of a client after a call.
fn observable(c: &mut SolarClient) -> String {
    let events: Vec<_> = std::iter::from_fn(|| c.poll_event()).collect();
    format!("{:?} {:?} {events:?}", c.stats(), c.poll_timer())
}

proptest! {
    #[test]
    fn gap_nacks_retransmit_like_the_indexed_client(
        steps in proptest::collection::vec(
            (0u32..22, any::<usize>(), any::<bool>(), any::<u64>()),
            1..300,
        ),
    ) {
        let cfg = SolarConfig { max_pkt_retries: 2, ..SolarConfig::default() };
        let (mut c, mut r) = (SolarClient::new(cfg.clone()), Indexed::new(cfg));
        let mut now = SimTime::ZERO;
        let mut next_rpc = 1u64;
        let mut wire: Vec<EbsHeader> = Vec::new();
        for (kind, idx, flag, us) in steps {
            let on_wire = (!wire.is_empty()).then(|| idx % wire.len());
            match (kind, on_wire) {
                (0..=2, _) => {
                    let (rpc, blocks) = (next_rpc, 1 + idx % 8);
                    next_rpc += 1;
                    submit(&mut c, now, rpc, blocks as u64, flag);
                    submit(&mut r.c, now, rpc, blocks as u64, flag);
                }
                (3..=6, _) => loop {
                    let (a, b) = (c.poll_transmit(now), r.poll_transmit(now));
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                    let Some(out) = a else { break };
                    wire.push(out.hdr);
                },
                (7..=11, Some(i)) => {
                    let hdr = if flag { wire[i] } else { wire.swap_remove(i) };
                    let op = match hdr.op {
                        EbsOp::WriteBlock => EbsOp::WriteAck,
                        EbsOp::ReadReq => EbsOp::ReadResp,
                        _ => EbsOp::ProbeAck,
                    };
                    c.on_packet(now, answer(&hdr, op));
                    r.on_packet(now, answer(&hdr, op));
                }
                (12..=13, Some(i)) => {
                    wire.swap_remove(i);
                }
                (14, Some(i)) => {
                    let nack = answer(&wire.swap_remove(i), EbsOp::Nack);
                    c.on_packet(now, nack.clone());
                    r.on_packet(now, nack);
                }
                (15..=16, Some(i)) => {
                    // The responder saw a sequence above its expectation:
                    // the gap ends below the packet that arrived (or, when
                    // `flag`, the packet itself was the loss) and starts up
                    // to 7 sequences earlier.
                    let hdr = if flag { wire.swap_remove(i) } else { wire[i] };
                    let gap = EbsHeader {
                        block_addr: u64::from(hdr.path_seq.saturating_sub((us % 8) as u32)),
                        path_seq: hdr.path_seq + u32::from(flag),
                        ..hdr
                    };
                    c.on_packet(now, answer(&gap, EbsOp::GapNack));
                    r.on_packet(now, answer(&gap, EbsOp::GapNack));
                }
                (17, _) => {
                    // An arbitrary range on any path id, a bad one included.
                    let start = (us % 64) as u32;
                    let gap = EbsHeader {
                        version: EbsHeader::VERSION,
                        op: EbsOp::GapNack,
                        flags: 0,
                        path_id: (idx % 5) as u8,
                        vd_id: 1,
                        rpc_id: 0,
                        pkt_id: 0,
                        total_pkts: 0,
                        block_addr: u64::from(start),
                        len: 0,
                        payload_crc: 0,
                        path_seq: start + (idx % 24) as u32,
                        segment_id: 0,
                    };
                    c.on_packet(now, answer(&gap, EbsOp::GapNack));
                    r.on_packet(now, answer(&gap, EbsOp::GapNack));
                }
                (18..=20, _) => {
                    now += SimDuration::from_micros(us % [200, 3_000, 15_000][idx % 3]);
                    c.on_timer(now);
                    r.on_timer(now);
                }
                _ => {}
            }
            prop_assert_eq!(observable(&mut c), observable(&mut r.c));
        }
    }
}
