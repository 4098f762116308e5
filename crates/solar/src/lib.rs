//! # ebs-solar — the storage-oriented reliable UDP transport (the paper's
//! core contribution)
//!
//! SOLAR fuses the network and storage layers: **each UDP packet carries
//! exactly one self-contained 4 KiB storage block** (§4.4). Consequences,
//! all realized in this crate:
//!
//! * the responder keeps no connection state machine, no receive buffers
//!   and no reordering logic ([`SolarResponder`] is a pure header
//!   transformer);
//! * packets are independent, so the transport is inherently resilient to
//!   reordering — which makes large-scale **multi-path** cheap: the
//!   initiator ([`SolarClient`]) sprays blocks over `n_paths` persistent
//!   UDP source ports (distinct ECMP routes), favoring low-RTT paths;
//! * loss is detected per path via sequence gaps or per-packet timeouts
//!   and repaired by **selective retransmission on a different path**;
//!   consecutive timeouts declare a path failed and traffic shifts in
//!   milliseconds — no waiting for routing convergence (§3.3's incident);
//! * per-packet ACKs echo INT telemetry and drive an HPCC-style
//!   fine-grained congestion controller per path ([`ebs_cc::Hpcc`]).
//!
//! The engine is sans-io (smoltcp-style): hosts feed packets and timer
//! fires, and drain outgoing packets and events. `ebs-stack` runs it
//! inside the simulator; `examples/solar_loopback.rs` runs the same state
//! machine over real UDP sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod path;
mod responder;

pub use client::{
    InPacket, OutPacket, ReadBlock, RpcKind, SolarClient, SolarEvent, SolarStats, WriteBlock,
};
pub use config::SolarConfig;
pub use ebs_cc::CcAlgo;
pub use responder::{ServerAction, SolarResponder};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ebs_sim::{SimDuration, SimTime};
    use ebs_wire::EbsOp;

    fn cfg() -> SolarConfig {
        SolarConfig::default()
    }

    fn write_blocks(n: usize) -> Vec<WriteBlock> {
        (0..n)
            .map(|i| WriteBlock {
                block_addr: i as u64,
                payload: Bytes::new(),
                crc: 0,
            })
            .collect()
    }

    /// Loopback driver: every transmitted packet is answered by the
    /// responder after `rtt`, unless `drop(pkt#)` says to lose it.
    fn run_loop(
        client: &mut SolarClient,
        resp: &mut SolarResponder,
        mut now: SimTime,
        rtt: SimDuration,
        until: SimTime,
        mut drop: impl FnMut(u64, &OutPacket) -> bool,
    ) -> (SimTime, Vec<SolarEvent>) {
        let mut events = Vec::new();
        let mut pkt_no = 0u64;
        let mut pending: std::collections::BTreeMap<u64, Vec<InPacket>> =
            std::collections::BTreeMap::new();
        // One pooled block serves every read response: O(1) handle clones
        // instead of a fresh Vec per reply.
        let read_payload = ebs_wire::pool::block_from(&[9u8; 64]);
        loop {
            // Transmit everything currently allowed.
            while let Some(out) = client.poll_transmit(now) {
                pkt_no += 1;
                if drop(pkt_no, &out) {
                    continue;
                }
                // Responder handles it; replies arrive after rtt.
                let action = resp.on_packet(InPacket {
                    hdr: out.hdr,
                    payload: out.payload.clone(),
                    int: None,
                });
                let reply = match action {
                    ServerAction::StoreBlock { hdr, int, .. } => Some(resp.write_ack(&hdr, int).0),
                    ServerAction::FetchBlock { hdr } => {
                        Some(resp.read_resp(&hdr, read_payload.clone(), 0x42))
                    }
                    ServerAction::Reply(p) => Some(p),
                    ServerAction::None => None,
                };
                if let Some(r) = reply {
                    pending
                        .entry((now + rtt).as_nanos())
                        .or_default()
                        .push(InPacket {
                            hdr: r.hdr,
                            payload: r.payload,
                            int: None,
                        });
                }
            }
            // Next event: earliest of (reply arrival, client timer).
            let next_reply = pending.keys().next().copied();
            let next_timer = client.poll_timer().map(|t| t.as_nanos());
            let next = match (next_reply, next_timer) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > until.as_nanos() {
                break;
            }
            now = SimTime::from_nanos(next);
            if Some(next) == next_reply {
                for pkt in pending.remove(&next).unwrap() {
                    client.on_packet(now, pkt);
                }
            }
            if client.poll_timer().map(|t| t.as_nanos()) == Some(next) {
                client.on_timer(now);
            }
            while let Some(e) = client.poll_event() {
                events.push(e);
            }
        }
        while let Some(e) = client.poll_event() {
            events.push(e);
        }
        (now, events)
    }

    #[test]
    fn write_completes_on_clean_path() {
        let mut c = SolarClient::new(cfg());
        let mut r = SolarResponder::new();
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(4));
        let (_, events) = run_loop(
            &mut c,
            &mut r,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimTime::from_millis(100),
            |_, _| false,
        );
        let done: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, SolarEvent::RpcCompleted { rpc_id: 1, .. }))
            .collect();
        assert_eq!(done.len(), 1);
        assert_eq!(c.stats().retransmits, 0);
        assert_eq!(c.outstanding_packets(), 0);
    }

    #[test]
    fn read_delivers_blocks_with_addr_table() {
        let mut c = SolarClient::new(cfg());
        let mut r = SolarResponder::new();
        let blocks = vec![
            ReadBlock {
                block_addr: 5,
                guest_addr: 0x1000,
            },
            ReadBlock {
                block_addr: 6,
                guest_addr: 0x2000,
            },
        ];
        c.submit_read(SimTime::ZERO, 2, 10, 100, blocks);
        assert_eq!(c.addr_table_entries(), 2);
        let (_, events) = run_loop(
            &mut c,
            &mut r,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimTime::from_millis(100),
            |_, _| false,
        );
        let mut guest_addrs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                SolarEvent::BlockReceived { guest_addr, .. } => Some(*guest_addr),
                _ => None,
            })
            .collect();
        guest_addrs.sort();
        assert_eq!(guest_addrs, vec![0x1000, 0x2000]);
        assert!(events.iter().any(|e| matches!(
            e,
            SolarEvent::RpcCompleted {
                rpc_id: 2,
                kind: RpcKind::Read,
                ..
            }
        )));
        assert_eq!(c.addr_table_entries(), 0, "Addr entries cleaned after use");
    }

    #[test]
    fn packets_spray_across_paths() {
        let mut c = SolarClient::new(cfg());
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(32));
        let mut used = std::collections::HashSet::new();
        while let Some(out) = c.poll_transmit(SimTime::ZERO) {
            used.insert(out.hdr.path_id);
        }
        assert!(
            used.len() >= 2,
            "32 blocks must use multiple paths: {used:?}"
        );
    }

    #[test]
    fn lost_packet_retransmits_on_other_path() {
        let mut c = SolarClient::new(cfg());
        let mut r = SolarResponder::new();
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(4));
        let mut first_path = None;
        let (_, events) = run_loop(
            &mut c,
            &mut r,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimTime::from_secs(2),
            |n, out| {
                if n == 1 {
                    first_path = Some(out.hdr.path_id);
                    true // drop the very first packet
                } else {
                    false
                }
            },
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, SolarEvent::RpcCompleted { rpc_id: 1, .. })));
        assert!(c.stats().retransmits >= 1);
        assert_eq!(c.stats().rpcs_completed, 1);
    }

    #[test]
    fn dead_path_fails_over_and_traffic_continues() {
        let mut c = SolarClient::new(cfg());
        let mut r = SolarResponder::new();
        // Path 0 blackholes everything, forever.
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(16));
        let (_, events) = run_loop(
            &mut c,
            &mut r,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimTime::from_secs(5),
            |_, out| out.hdr.path_id == 0, // probes die too: path stays dark
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SolarEvent::PathDown { path_id: 0 })),
            "path 0 must be declared down: {events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, SolarEvent::RpcCompleted { rpc_id: 1, .. })));
        // Subsequent RPCs avoid the dead path entirely (until probe).
        c.submit_write(SimTime::from_secs(6), 2, 10, 100, write_blocks(8));
        let mut used = std::collections::HashSet::new();
        while let Some(out) = c.poll_transmit(SimTime::from_secs(6)) {
            if out.hdr.op == EbsOp::WriteBlock {
                used.insert(out.hdr.path_id);
            }
        }
        assert!(!used.contains(&0), "failed path excluded: {used:?}");
    }

    #[test]
    fn failed_path_revives_after_probe() {
        let mut c = SolarClient::new(cfg());
        let mut r = SolarResponder::new();
        // Enough blocks that the dead path accumulates 3 consecutive
        // timeouts (retransmissions deliberately avoid it).
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(32));
        // Drop path 0 data until t=1s; probes always pass.
        let (_, events) = run_loop(
            &mut c,
            &mut r,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimTime::from_secs(3),
            |_, out| out.hdr.path_id == 0 && out.hdr.op == EbsOp::WriteBlock,
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, SolarEvent::PathDown { path_id: 0 })));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SolarEvent::PathUp { path_id: 0 })),
            "probe must revive the path: {events:?}"
        );
        assert!(c.stats().probes_sent >= 1);
        let last_path0 = events.iter().rev().find_map(|e| match e {
            SolarEvent::PathDown { path_id: 0 } => Some(false),
            SolarEvent::PathUp { path_id: 0 } => Some(true),
            _ => None,
        });
        assert_eq!(last_path0, Some(true), "path 0 ends up");
    }

    #[test]
    fn total_blackhole_fails_rpc_upward() {
        let mut c = SolarClient::new(SolarConfig {
            max_pkt_retries: 3,
            ..cfg()
        });
        let mut r = SolarResponder::new();
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(2));
        let (_, events) = run_loop(
            &mut c,
            &mut r,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            SimTime::from_secs(30),
            |_, _| true, // everything dies
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, SolarEvent::RpcFailed { rpc_id: 1 })));
        assert_eq!(c.inflight_rpcs(), 0);
        assert_eq!(c.outstanding_packets(), 0);
    }

    #[test]
    fn reorder_resilience_no_spurious_retransmits() {
        // Deliver acks out of order within the reorder threshold: no
        // retransmissions should be triggered.
        let mut c = SolarClient::new(cfg());
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(8));
        let mut outs = Vec::new();
        while let Some(o) = c.poll_transmit(SimTime::ZERO) {
            outs.push(o);
        }
        let mut r = SolarResponder::new();
        let mut acks: Vec<InPacket> = outs
            .iter()
            .map(|o| {
                let (a, _) = r.write_ack(&o.hdr, None);
                InPacket {
                    hdr: a.hdr,
                    payload: Bytes::new(),
                    int: None,
                }
            })
            .collect();
        acks.reverse(); // fully reversed delivery
        let now = SimTime::from_micros(50);
        for a in acks {
            c.on_packet(now, a);
        }
        assert_eq!(c.stats().retransmits, 0, "reordering must not fake loss");
        assert_eq!(c.stats().rpcs_completed, 1);
    }

    #[test]
    fn window_limits_inflight() {
        let mut small = cfg();
        small.line_rate = ebs_sim::Bandwidth::from_gbps(1);
        // BDP = 125MB/s * 20us = 2500 bytes per path, under the 8 KiB
        // floor -> 2 blocks.
        let mut c = SolarClient::new(small);
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(64));
        let mut sent = 0;
        while c.poll_transmit(SimTime::ZERO).is_some() {
            sent += 1;
        }
        assert!(sent <= 8, "4 paths x ~1-block window, got {sent}");
        assert!(sent >= 4);
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut c = SolarClient::new(cfg());
        c.submit_write(SimTime::ZERO, 1, 10, 100, write_blocks(2));
        let mut outs = Vec::new();
        while let Some(o) = c.poll_transmit(SimTime::ZERO) {
            outs.push(o);
        }
        let mut r = SolarResponder::new();
        let now = SimTime::from_micros(30);
        for o in &outs {
            let (a, _) = r.write_ack(&o.hdr, None);
            let pkt = InPacket {
                hdr: a.hdr,
                payload: Bytes::new(),
                int: None,
            };
            c.on_packet(now, pkt.clone());
            c.on_packet(now, pkt); // duplicate
        }
        assert_eq!(c.stats().rpcs_completed, 1);
        let completions = {
            let mut n = 0;
            while let Some(e) = c.poll_event() {
                if matches!(e, SolarEvent::RpcCompleted { .. }) {
                    n += 1;
                }
            }
            n
        };
        assert_eq!(completions, 1);
    }
}
