//! The SOLAR responder (block-server side).
//!
//! The receive path is where one-block-one-packet pays off: because every
//! packet is a self-contained block, the responder needs **no connection
//! state, no receive buffers and no reordering logic** — it turns each
//! request into zero or one storage action and, when the host completes
//! that action, into exactly one response packet. All functions here are
//! pure header transformations; the only mutable state is a pair of
//! sequence counters per path: the reverse direction's next sequence and
//! the forward direction's next expected arrival.
//!
//! The counters are kept per path id on demand, grown to the highest id
//! seen: a client sprays over a handful of paths (4 by default), and a
//! storage server holds one responder per compute server, so each holds
//! one small vector. An unseen path reads 0; a hostile path id of 255
//! costs at most 256 counter pairs (2 KiB).

use bytes::Bytes;
use ebs_wire::{EbsHeader, EbsOp, IntStack};

use crate::client::{InPacket, OutPacket};

/// What the host (block server) must do for an incoming packet.
#[derive(Debug)]
pub enum ServerAction {
    /// Persist one block (3-way replicate via BN, then call
    /// [`SolarResponder::write_ack`]).
    StoreBlock {
        /// The request header (pass back to `write_ack`).
        hdr: EbsHeader,
        /// Block payload to persist.
        data: Bytes,
        /// INT stack collected by the request (echoed in the ACK so the
        /// initiator's HPCC sees the forward path).
        int: Option<IntStack>,
    },
    /// Fetch one block (then call [`SolarResponder::read_resp`]).
    FetchBlock {
        /// The request header (pass back to `read_resp`).
        hdr: EbsHeader,
    },
    /// Answer a liveness probe immediately with the returned packet.
    Reply(OutPacket),
    /// Nothing to do (unknown/irrelevant op).
    None,
}

/// The two sequence counters of one path.
#[derive(Debug, Clone, Copy, Default)]
struct PathSeqs {
    /// Next sequence of a response packet (reads congest the reverse
    /// direction, so responses carry their own path sequence).
    resp_seq: u32,
    /// Next expected arrival sequence. A single ECMP path is FIFO, so an
    /// arrival above the expectation proves the skipped sequences were
    /// lost — the receiver reports the gap immediately instead of leaving
    /// the sender to wait for an RTO (§4.5's out-of-order loss detection).
    expected: u32,
}

/// Per-peer responder state (one per compute-server client).
#[derive(Debug)]
pub struct SolarResponder {
    /// Counters by path id, up to the highest id seen (module docs).
    paths: Vec<PathSeqs>,
    /// Pending gap reports (drained via [`SolarResponder::poll_gap_nack`]).
    gap_nacks: std::collections::VecDeque<OutPacket>,
}

impl Default for SolarResponder {
    fn default() -> Self {
        Self::new()
    }
}

impl SolarResponder {
    /// Fresh responder.
    pub fn new() -> Self {
        SolarResponder {
            paths: Vec::new(),
            gap_nacks: std::collections::VecDeque::new(),
        }
    }

    /// Drain the next pending gap report to send back to the initiator.
    pub fn poll_gap_nack(&mut self) -> Option<OutPacket> {
        self.gap_nacks.pop_front()
    }

    /// The counters of `path_id`, created (at 0) on first sight.
    fn path(&mut self, path_id: u8) -> &mut PathSeqs {
        let i = path_id as usize;
        if i >= self.paths.len() {
            self.paths.resize(i + 1, PathSeqs::default());
        }
        &mut self.paths[i]
    }

    /// Track a data/request arrival on its path; queue a gap report if
    /// the sequence jumped.
    fn track_arrival(&mut self, hdr: &EbsHeader) {
        let p = self.path(hdr.path_id);
        let expected = p.expected;
        let s = hdr.path_seq;
        // Wrapping serial comparison: treat s as "newer" when it is ahead.
        let ahead = s.wrapping_sub(expected);
        if ahead >= u32::MAX / 2 {
            return; // an old (retransmitted-on-same-path) sequence — ignore
        }
        p.expected = s.wrapping_add(1);
        if ahead > 0 {
            // Gap [expected, s) lost on a FIFO path: report it.
            let mut nack_hdr = *hdr;
            nack_hdr.op = EbsOp::GapNack;
            nack_hdr.len = 0;
            nack_hdr.block_addr = expected as u64; // gap start
            self.gap_nacks.push_back(OutPacket {
                hdr: nack_hdr,
                payload: Bytes::new(),
                src_port: response_port(hdr),
                int_request: false,
            });
        }
    }

    /// Classify an incoming packet into the storage action it demands.
    pub fn on_packet(&mut self, pkt: InPacket) -> ServerAction {
        match pkt.hdr.op {
            EbsOp::WriteBlock => {
                self.track_arrival(&pkt.hdr);
                ServerAction::StoreBlock {
                    hdr: pkt.hdr,
                    data: pkt.payload,
                    int: pkt.int,
                }
            }
            EbsOp::ReadReq => {
                self.track_arrival(&pkt.hdr);
                ServerAction::FetchBlock { hdr: pkt.hdr }
            }
            EbsOp::Probe => {
                let mut hdr = pkt.hdr;
                hdr.op = EbsOp::ProbeAck;
                ServerAction::Reply(OutPacket {
                    hdr,
                    payload: Bytes::new(),
                    src_port: response_port(&pkt.hdr),
                    int_request: false,
                })
            }
            _ => ServerAction::None,
        }
    }

    /// Build the per-packet WRITE acknowledgment, echoing the request's
    /// INT stack for the initiator's congestion control.
    pub fn write_ack(
        &mut self,
        req: &EbsHeader,
        int: Option<IntStack>,
    ) -> (OutPacket, Option<IntStack>) {
        let mut hdr = *req;
        hdr.op = EbsOp::WriteAck;
        hdr.len = 0;
        hdr.path_seq = self.next_seq(req.path_id);
        (
            OutPacket {
                hdr,
                payload: Bytes::new(),
                src_port: response_port(req),
                int_request: false,
            },
            int,
        )
    }

    /// Build one READ response block. The responder computed `crc` in its
    /// CRC stage; the response collects fresh INT on the reverse path
    /// (`int_request = true`), which is the direction reads congest.
    pub fn read_resp(&mut self, req: &EbsHeader, data: Bytes, crc: u32) -> OutPacket {
        let mut hdr = *req;
        hdr.op = EbsOp::ReadResp;
        hdr.len = data.len() as u32;
        hdr.payload_crc = crc;
        hdr.path_seq = self.next_seq(req.path_id);
        OutPacket {
            hdr,
            payload: data,
            src_port: response_port(req),
            int_request: true,
        }
    }

    /// Build a NACK for a request the server cannot serve.
    pub fn nack(&mut self, req: &EbsHeader) -> OutPacket {
        let mut hdr = *req;
        hdr.op = EbsOp::Nack;
        hdr.len = 0;
        OutPacket {
            hdr,
            payload: Bytes::new(),
            src_port: response_port(req),
            int_request: false,
        }
    }

    fn next_seq(&mut self, path_id: u8) -> u32 {
        let p = self.path(path_id);
        let s = p.resp_seq;
        p.resp_seq = s.wrapping_add(1);
        s
    }
}

/// Responses return on the same path: the server's source port encodes the
/// same path id so ECMP hashes the reverse flow consistently.
fn response_port(req: &EbsHeader) -> u16 {
    9000 + req.path_id as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(op: EbsOp) -> EbsHeader {
        EbsHeader {
            version: EbsHeader::VERSION,
            op,
            flags: 0,
            path_id: 2,
            vd_id: 1,
            rpc_id: 5,
            pkt_id: 3,
            total_pkts: 4,
            block_addr: 0x10,
            len: 4096,
            payload_crc: 0xABCD,
            path_seq: 9,
            segment_id: 7,
        }
    }

    #[test]
    fn write_becomes_store_action() {
        let mut r = SolarResponder::new();
        let action = r.on_packet(InPacket {
            hdr: req(EbsOp::WriteBlock),
            payload: Bytes::from_static(b"data"),
            int: None,
        });
        match action {
            ServerAction::StoreBlock { hdr, data, .. } => {
                assert_eq!(hdr.rpc_id, 5);
                assert_eq!(&data[..], b"data");
            }
            other => panic!("wrong action {other:?}"),
        }
    }

    #[test]
    fn ack_echoes_identity_and_int() {
        let mut r = SolarResponder::new();
        let int = IntStack::new();
        let (ack, echoed) = r.write_ack(&req(EbsOp::WriteBlock), Some(int));
        assert_eq!(ack.hdr.op, EbsOp::WriteAck);
        assert_eq!(ack.hdr.rpc_id, 5);
        assert_eq!(ack.hdr.pkt_id, 3);
        assert_eq!(ack.hdr.path_id, 2);
        assert!(echoed.is_some());
    }

    #[test]
    fn read_resp_carries_block_and_crc() {
        let mut r = SolarResponder::new();
        // Pooled payload: proves the block-pool storage flows through the
        // responder as ordinary `Bytes`.
        let resp = r.read_resp(
            &req(EbsOp::ReadReq),
            ebs_wire::pool::block_from(&[7u8; 4096]),
            0x1234,
        );
        assert_eq!(resp.hdr.op, EbsOp::ReadResp);
        assert_eq!(resp.hdr.payload_crc, 0x1234);
        assert_eq!(resp.payload.len(), 4096);
        assert!(resp.int_request, "responses collect reverse-path INT");
    }

    #[test]
    fn response_seqs_increment_per_path() {
        let mut r = SolarResponder::new();
        let a = r.read_resp(&req(EbsOp::ReadReq), Bytes::new(), 0);
        let b = r.read_resp(&req(EbsOp::ReadReq), Bytes::new(), 0);
        assert_eq!(b.hdr.path_seq, a.hdr.path_seq + 1);
    }

    #[test]
    fn probe_is_answered_inline() {
        let mut r = SolarResponder::new();
        match r.on_packet(InPacket {
            hdr: req(EbsOp::Probe),
            payload: Bytes::new(),
            int: None,
        }) {
            ServerAction::Reply(p) => assert_eq!(p.hdr.op, EbsOp::ProbeAck),
            other => panic!("wrong action {other:?}"),
        }
    }

    #[test]
    fn responder_holds_no_per_request_state() {
        // The whole point: after classifying a thousand packets, the
        // responder's footprint is still just the seq counters.
        let mut r = SolarResponder::new();
        for i in 0..1000u64 {
            let mut h = req(EbsOp::WriteBlock);
            h.rpc_id = i;
            h.path_seq = i as u32;
            let _ = r.on_packet(InPacket {
                hdr: h,
                payload: Bytes::new(),
                int: None,
            });
        }
        // One counter pair per path id up to the highest seen (2 here)
        // and an (empty in steady state) report queue — nothing
        // proportional to requests served.
        assert_eq!(r.paths.len(), 3);
        assert!(r.gap_nacks.is_empty());
        assert!(std::mem::size_of::<SolarResponder>() <= 64);
    }

    /// Counters grow on demand and start at 0 on every path, a hostile
    /// path id included; paths count independently.
    #[test]
    fn unseen_paths_start_at_zero() {
        let mut r = SolarResponder::new();
        let on = |path_id| EbsHeader {
            path_id,
            ..req(EbsOp::ReadReq)
        };
        assert_eq!(r.read_resp(&on(255), Bytes::new(), 0).hdr.path_seq, 0);
        assert_eq!(r.read_resp(&on(0), Bytes::new(), 0).hdr.path_seq, 0);
        assert_eq!(r.read_resp(&on(255), Bytes::new(), 0).hdr.path_seq, 1);
        assert_eq!(r.paths.len(), 256);
        // An arrival at sequence 0 on a fresh path is no gap; one at 2
        // after it reports the gap [1, 2).
        for seq in [0, 2] {
            let hdr = EbsHeader {
                path_seq: seq,
                ..on(7)
            };
            r.on_packet(InPacket {
                hdr,
                payload: Bytes::new(),
                int: None,
            });
        }
        let gap = r.poll_gap_nack().expect("gap reported");
        assert_eq!((gap.hdr.block_addr, gap.hdr.path_seq), (1, 2));
        assert!(r.poll_gap_nack().is_none());
    }
}
