//! # ebs-rdma — an RC-verb RDMA model (BN substrate and FN baseline)
//!
//! The paper deploys RDMA in the storage clusters' *backend* network and
//! evaluates it as a *frontend* baseline (Figs. 10b, 14, 15). What matters
//! for those roles is captured here:
//!
//! * [`RdmaQp`] — a reliable-connection queue pair: messages are segmented
//!   into MTU packets with packet sequence numbers (PSNs), the responder
//!   accepts only in-order PSNs and NAKs the first gap, and the requester
//!   recovers with **Go-Back-N** (the recovery mode of the era's RNICs
//!   that §3.1 contrasts with Selective Repeat): everything from the gap
//!   onward goes again;
//! * [`RnicModel`] — the connection-scalability cliff: RNIC caches QP
//!   state on-chip; beyond the cache capacity, per-op latency inflates as
//!   state thrashes to host memory (§3.1: throughput collapsed beyond
//!   ~5,000 connections);
//! * transport offload semantics for the host models: an RDMA FN spends
//!   no per-packet CPU, but the storage agent still runs in software and
//!   the data still crosses the DPU's internal PCIe twice (Fig. 10b) —
//!   those costs are charged in `ebs-stack`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use ebs_cc::{CongestionControl, Dcqcn};
use ebs_sim::{SimDuration, SimTime};

/// Path MTU (payload bytes per packet).
const MTU: usize = 4096;
/// Fixed send window in packets (hardware credit).
const WINDOW_PKTS: usize = 64;
/// Retransmission timeout.
const RTO: SimDuration = SimDuration::from_millis(1);

/// Queue-pair configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct QpConfig {
    /// Run DCQCN-style ECN congestion control over the hardware credit
    /// window: the effective window is `min(64, dcqcn_window / mtu)`
    /// packets. `false` keeps the fixed credit window (the era's default
    /// RNIC).
    pub dcqcn: bool,
}

/// A packet on the wire between two QPs.
#[derive(Debug, Clone)]
pub struct QpPacket {
    /// Packet sequence number.
    pub psn: u64,
    /// Packet kind.
    pub kind: PacketKind,
    /// Payload (data packets only).
    pub payload: Bytes,
    /// ECN congestion-experienced mark. Set by the fabric on data
    /// packets under RED marking; echoed by the responder on ACKs
    /// (the CNP role, condensed into the ack stream).
    pub ecn: bool,
}

/// RC packet kinds (condensed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Middle/only data packet of a message.
    Data {
        /// True for the last packet of a message.
        last: bool,
    },
    /// Cumulative acknowledgment up to (excluding) `psn`.
    Ack,
    /// Negative ack: responder expected `psn`.
    Nak,
}

impl QpPacket {
    /// Wire size including RoCEv2 headers (≈ 58 bytes of overhead).
    pub fn wire_size(&self) -> usize {
        58 + self.payload.len()
    }
}

/// Counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct QpStats {
    /// Data packets sent, including retransmits.
    pub pkts_sent: u64,
    /// Retransmitted data packets.
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Messages fully delivered to the peer application.
    pub msgs_delivered: u64,
    /// ACKs received carrying an echoed ECN mark.
    pub ecn_marked_acks: u64,
}

/// One side of a reliable-connection queue pair (sans-io).
#[derive(Debug)]
pub struct RdmaQp {
    // Send side.
    next_psn: u64,
    snd_una: u64,
    tx_msgs: VecDeque<Bytes>,
    inflight: BTreeMap<u64, (Bytes, bool)>,
    rtx: VecDeque<u64>,
    rto_deadline: Option<SimTime>,
    // Receive side.
    rcv_expected: u64,
    rx_partial: Vec<u8>,
    rx_msgs: VecDeque<Bytes>,
    nak_pending: Option<u64>,
    ack_pending: bool,
    ecn_echo: bool,
    dcqcn: Option<Dcqcn>,
    stats: QpStats,
}

impl RdmaQp {
    /// A fresh QP.
    pub fn new(cfg: QpConfig) -> Self {
        RdmaQp {
            dcqcn: cfg.dcqcn.then(|| Dcqcn::new(ebs_cc::LINE_RATE)),
            next_psn: 0,
            snd_una: 0,
            tx_msgs: VecDeque::new(),
            inflight: BTreeMap::new(),
            rtx: VecDeque::new(),
            rto_deadline: None,
            rcv_expected: 0,
            rx_partial: Vec::new(),
            rx_msgs: VecDeque::new(),
            nak_pending: None,
            ack_pending: false,
            ecn_echo: false,
            stats: QpStats::default(),
        }
    }

    /// The window the sender may fill right now, in packets: the hardware
    /// credit window, further throttled by DCQCN when it is enabled.
    pub fn effective_window_pkts(&self) -> usize {
        match &self.dcqcn {
            Some(cc) => {
                let pkts = (cc.window() / MTU as f64).floor() as usize;
                pkts.clamp(1, WINDOW_PKTS)
            }
            None => WINDOW_PKTS,
        }
    }

    /// Counters.
    pub fn stats(&self) -> QpStats {
        self.stats
    }

    /// Post a message send (one work request).
    pub fn post_send(&mut self, msg: Bytes) {
        self.tx_msgs.push_back(msg);
    }

    /// Drain a fully received message.
    pub fn poll_recv(&mut self) -> Option<Bytes> {
        self.rx_msgs.pop_front()
    }

    /// Next deadline for [`RdmaQp::on_timer`].
    pub fn poll_timer(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Fire the retransmission timer.
    pub fn on_timer(&mut self, now: SimTime) {
        let Some(d) = self.rto_deadline else { return };
        if now < d || self.inflight.is_empty() {
            return;
        }
        self.stats.timeouts += 1;
        self.queue_recovery(self.snd_una);
        self.rto_deadline = Some(now + RTO);
    }

    /// Go-Back-N: everything from the gap onward goes again.
    fn queue_recovery(&mut self, from_psn: u64) {
        self.rtx.clear();
        self.rtx
            .extend(self.inflight.range(from_psn..).map(|(&psn, _)| psn));
    }

    /// Produce the next outgoing packet.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<QpPacket> {
        // NAK / ACK responses first.
        if let Some(psn) = self.nak_pending.take() {
            return Some(QpPacket {
                psn,
                kind: PacketKind::Nak,
                payload: Bytes::new(),
                ecn: false,
            });
        }
        if self.ack_pending {
            self.ack_pending = false;
            // Echo any congestion mark seen since the last ack.
            let ecn = std::mem::take(&mut self.ecn_echo);
            return Some(QpPacket {
                psn: self.rcv_expected,
                kind: PacketKind::Ack,
                payload: Bytes::new(),
                ecn,
            });
        }
        // Retransmissions.
        while let Some(psn) = self.rtx.pop_front() {
            if let Some((payload, last)) = self.inflight.get(&psn) {
                self.stats.pkts_sent += 1;
                self.stats.retransmits += 1;
                return Some(QpPacket {
                    psn,
                    kind: PacketKind::Data { last: *last },
                    payload: payload.clone(),
                    ecn: false,
                });
            }
        }
        // New data within the window.
        if self.inflight.len() < self.effective_window_pkts() {
            if let Some(msg) = self.tx_msgs.front_mut() {
                let take = msg.len().min(MTU);
                let payload = msg.split_to(take);
                let last = msg.is_empty();
                if last {
                    self.tx_msgs.pop_front();
                }
                let psn = self.next_psn;
                self.next_psn += 1;
                self.inflight.insert(psn, (payload.clone(), last));
                if self.rto_deadline.is_none() {
                    self.rto_deadline = Some(now + RTO);
                }
                self.stats.pkts_sent += 1;
                return Some(QpPacket {
                    psn,
                    kind: PacketKind::Data { last },
                    payload,
                    ecn: false,
                });
            }
        }
        None
    }

    /// Process an incoming packet.
    pub fn on_packet(&mut self, now: SimTime, pkt: QpPacket) {
        match pkt.kind {
            PacketKind::Data { last } => {
                if pkt.ecn {
                    self.ecn_echo = true;
                }
                if pkt.psn == self.rcv_expected {
                    self.rcv_expected += 1;
                    self.rx_partial.extend_from_slice(&pkt.payload);
                    if last {
                        self.rx_msgs
                            .push_back(Bytes::from(std::mem::take(&mut self.rx_partial)));
                        self.stats.msgs_delivered += 1;
                    }
                    self.ack_pending = true;
                } else if pkt.psn > self.rcv_expected {
                    // In-order-only receive: drop and NAK the gap. This is
                    // the brittleness to reordering that makes multi-path
                    // impractical for RC RDMA (§4.4).
                    self.nak_pending = Some(self.rcv_expected);
                } else {
                    // Duplicate of already-received data: re-ack.
                    self.ack_pending = true;
                }
            }
            PacketKind::Ack => {
                if pkt.ecn {
                    self.stats.ecn_marked_acks += 1;
                }
                if let Some(cc) = self.dcqcn.as_mut() {
                    cc.on_ecn_ack(now, pkt.ecn);
                }
                let acked: Vec<u64> = self.inflight.range(..pkt.psn).map(|(&p, _)| p).collect();
                for p in acked {
                    self.inflight.remove(&p);
                }
                self.snd_una = self.snd_una.max(pkt.psn);
                self.rto_deadline = if self.inflight.is_empty() {
                    None
                } else {
                    Some(now + RTO)
                };
            }
            PacketKind::Nak => {
                self.queue_recovery(pkt.psn);
            }
        }
    }
}

/// RNIC connection-cache model: the per-op latency multiplier as a
/// function of active QPs (§3.1's scalability cliff).
#[derive(Debug, Clone)]
pub struct RnicModel {
    /// QPs whose state fits on-chip.
    pub qp_cache_capacity: usize,
    /// Latency multiplier per doubling beyond capacity.
    pub thrash_factor: f64,
}

impl Default for RnicModel {
    fn default() -> Self {
        RnicModel {
            qp_cache_capacity: 5000,
            thrash_factor: 2.0,
        }
    }
}

impl RnicModel {
    /// The latency multiplier at `active_qps` connections: 1.0 within the
    /// cache, then growing by `thrash_factor` per doubling (cache misses
    /// on every op force host-memory fetches of QP state).
    pub fn latency_multiplier(&self, active_qps: usize) -> f64 {
        if active_qps <= self.qp_cache_capacity {
            1.0
        } else {
            let ratio = active_qps as f64 / self.qp_cache_capacity as f64;
            self.thrash_factor.powf(ratio.log2()).max(1.0)
        }
    }

    /// Effective per-QP throughput share relative to the in-cache case.
    pub fn throughput_factor(&self, active_qps: usize) -> f64 {
        1.0 / self.latency_multiplier(active_qps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        a: &mut RdmaQp,
        b: &mut RdmaQp,
        mut now: SimTime,
        drop_psn: &[u64],
        max_steps: usize,
    ) -> SimTime {
        let step = SimDuration::from_micros(2);
        for _ in 0..max_steps {
            let mut progressed = false;
            while let Some(p) = a.poll_transmit(now) {
                now += step;
                progressed = true;
                if matches!(p.kind, PacketKind::Data { .. }) && drop_psn.contains(&p.psn) {
                    // Drop only the FIRST transmission of that PSN.
                    if a.stats().retransmits == 0 {
                        continue;
                    }
                }
                b.on_packet(now, p);
            }
            while let Some(p) = b.poll_transmit(now) {
                now += step;
                progressed = true;
                a.on_packet(now, p);
            }
            for qp in [&mut *a, &mut *b] {
                if let Some(t) = qp.poll_timer() {
                    if t <= now {
                        qp.on_timer(now);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                // Idle: jump to the earliest timer deadline, if any.
                let next = [a.poll_timer(), b.poll_timer()].into_iter().flatten().min();
                match next {
                    Some(t) => {
                        now = t;
                        a.on_timer(now);
                        b.on_timer(now);
                    }
                    None => break,
                }
            }
        }
        now
    }

    #[test]
    fn delivers_multi_packet_message() {
        let mut a = RdmaQp::new(QpConfig::default());
        let mut b = RdmaQp::new(QpConfig::default());
        let msg = Bytes::from(vec![7u8; 20_000]); // 5 packets at 4K MTU
        a.post_send(msg.clone());
        drive(&mut a, &mut b, SimTime::ZERO, &[], 100);
        assert_eq!(b.poll_recv().unwrap(), msg);
        assert_eq!(a.stats().retransmits, 0);
        assert_eq!(a.poll_timer(), None, "everything acked, no RTO armed");
    }

    #[test]
    fn message_boundaries_preserved() {
        let mut a = RdmaQp::new(QpConfig::default());
        let mut b = RdmaQp::new(QpConfig::default());
        a.post_send(Bytes::from(vec![1u8; 5000]));
        a.post_send(Bytes::from(vec![2u8; 100]));
        drive(&mut a, &mut b, SimTime::ZERO, &[], 100);
        assert_eq!(b.poll_recv().unwrap().len(), 5000);
        assert_eq!(b.poll_recv().unwrap().len(), 100);
        assert!(b.poll_recv().is_none());
    }

    #[test]
    fn go_back_n_retransmits_the_tail() {
        let mut a = RdmaQp::new(QpConfig::default());
        let mut b = RdmaQp::new(QpConfig::default());
        a.post_send(Bytes::from(vec![9u8; 20_000])); // PSNs 0..4
        drive(&mut a, &mut b, SimTime::ZERO, &[1], 200);
        assert_eq!(b.poll_recv().unwrap().len(), 20_000);
        // GBN resends PSN 1 *and everything after it* even though only one
        // packet was lost.
        assert!(
            a.stats().retransmits >= 3,
            "GBN must resend the tail, got {}",
            a.stats().retransmits
        );
    }

    #[test]
    fn timeout_recovers_lost_last_packet() {
        let mut a = RdmaQp::new(QpConfig::default());
        let mut b = RdmaQp::new(QpConfig::default());
        a.post_send(Bytes::from(vec![3u8; 4096])); // single packet, PSN 0
        drive(&mut a, &mut b, SimTime::ZERO, &[0], 200);
        assert_eq!(b.poll_recv().unwrap().len(), 4096);
        assert!(a.stats().timeouts >= 1);
    }

    #[test]
    fn window_caps_inflight() {
        let mut a = RdmaQp::new(QpConfig::default());
        // 98 MTU packets' worth, well past the 64-packet credit window.
        a.post_send(Bytes::from(vec![0u8; 400_000]));
        let now = SimTime::ZERO;
        let mut sent = 0;
        while a.poll_transmit(now).is_some() {
            sent += 1;
        }
        assert_eq!(sent, WINDOW_PKTS);
    }

    /// Like `drive`, but every data packet crossing a→b gets an ECN mark,
    /// as a saturated fabric queue would apply.
    fn drive_all_marked(a: &mut RdmaQp, b: &mut RdmaQp, max_steps: usize) {
        let step = SimDuration::from_micros(2);
        let mut now = SimTime::ZERO;
        for _ in 0..max_steps {
            let mut progressed = false;
            while let Some(mut p) = a.poll_transmit(now) {
                now += step;
                progressed = true;
                if matches!(p.kind, PacketKind::Data { .. }) {
                    p.ecn = true;
                }
                b.on_packet(now, p);
            }
            while let Some(p) = b.poll_transmit(now) {
                now += step;
                progressed = true;
                a.on_packet(now, p);
            }
            if !progressed {
                break;
            }
        }
    }

    #[test]
    fn ecn_echo_rides_the_next_ack() {
        let mut b = RdmaQp::new(QpConfig::default());
        let now = SimTime::ZERO;
        b.on_packet(
            now,
            QpPacket {
                psn: 0,
                kind: PacketKind::Data { last: true },
                payload: Bytes::from(vec![1u8; 64]),
                ecn: true,
            },
        );
        let ack = b.poll_transmit(now).unwrap();
        assert_eq!(ack.kind, PacketKind::Ack);
        assert!(ack.ecn, "the mark must be echoed on the ack");
        // A later unmarked delivery acks clean.
        b.on_packet(
            now,
            QpPacket {
                psn: 1,
                kind: PacketKind::Data { last: true },
                payload: Bytes::from(vec![2u8; 64]),
                ecn: false,
            },
        );
        let ack2 = b.poll_transmit(now).unwrap();
        assert_eq!(ack2.kind, PacketKind::Ack);
        assert!(!ack2.ecn, "echo state must reset after being sent");
    }

    #[test]
    fn dcqcn_shrinks_window_under_marks() {
        let mut a = RdmaQp::new(QpConfig { dcqcn: true });
        let mut b = RdmaQp::new(QpConfig::default());
        assert!(
            a.effective_window_pkts() <= WINDOW_PKTS,
            "dcqcn window starts within the credit window"
        );
        let before = a.effective_window_pkts();
        a.post_send(Bytes::from(vec![5u8; 400_000]));
        drive_all_marked(&mut a, &mut b, 5_000);
        assert_eq!(b.poll_recv().unwrap().len(), 400_000);
        assert!(
            a.stats().ecn_marked_acks > 0,
            "marked acks must reach the requester"
        );
        assert!(
            a.effective_window_pkts() < before,
            "persistent marking must shrink the effective window: {} -> {}",
            before,
            a.effective_window_pkts()
        );
        // The floor is one packet — the QP never deadlocks.
        assert!(a.effective_window_pkts() >= 1);
    }

    #[test]
    fn dcqcn_disabled_keeps_fixed_window() {
        let mut a = RdmaQp::new(QpConfig::default());
        let mut b = RdmaQp::new(QpConfig::default());
        a.post_send(Bytes::from(vec![5u8; 100_000]));
        drive_all_marked(&mut a, &mut b, 2_000);
        assert_eq!(b.poll_recv().unwrap().len(), 100_000);
        // Marks are echoed but ignored: the window never moves.
        assert!(a.stats().ecn_marked_acks > 0);
        assert_eq!(a.effective_window_pkts(), WINDOW_PKTS);
    }

    #[test]
    fn rnic_cliff_shape() {
        let m = RnicModel::default();
        assert_eq!(m.latency_multiplier(100), 1.0);
        assert_eq!(m.latency_multiplier(5000), 1.0);
        let at10k = m.latency_multiplier(10_000);
        let at20k = m.latency_multiplier(20_000);
        assert!(at10k > 1.9 && at10k < 2.1, "{at10k}");
        assert!(at20k > 3.9 && at20k < 4.1, "{at20k}");
        assert!(m.throughput_factor(20_000) < 0.3);
    }
}
