//! The sans-io TCP engine.
//!
//! One [`TcpEngine`] is one end of one connection. It never touches
//! sockets or clocks: the host feeds it segments ([`TcpEngine::on_segment`])
//! and timer expirations ([`TcpEngine::on_timer`]), and drains outgoing
//! segments ([`TcpEngine::poll_segment`]) and delivered stream bytes
//! ([`TcpEngine::recv`]). Both the kernel-TCP baseline and LUNA wrap this
//! same engine — per §3, their difference is the host overhead around the
//! stack, not the protocol.
//!
//! Implemented: three-way handshake, MSS segmentation, cumulative ACKs,
//! out-of-order reassembly (the receive buffering SOLAR later eliminates),
//! RTO with exponential backoff and Karn's rule, fast retransmit on three
//! duplicate ACKs, Reno congestion control (slow start / congestion
//! avoidance / fast recovery), receive-window flow control.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use ebs_sim::{SimDuration, SimTime};
use ebs_wire::{ByteChain, ViewQueue};

use crate::seq::unwrap_seq;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment payload (1460 for standard frames; LUNA can use
    /// larger with TSO/GSO-style offload).
    pub mss: usize,
    /// Initial sequence number.
    pub iss: u32,
    /// Initial congestion window, in segments (RFC 6928 default 10).
    pub initial_cwnd_segs: u32,
    /// Initial retransmission timeout before any RTT sample.
    pub rto_initial: SimDuration,
    /// RTO floor.
    pub rto_min: SimDuration,
    /// RTO ceiling.
    pub rto_max: SimDuration,
    /// Advertised receive buffer in bytes.
    pub recv_window: usize,
    /// Cap on buffered out-of-order bytes.
    pub max_ooo_bytes: usize,
    /// Consecutive RTOs before the connection is declared dead.
    pub max_retries: u32,
    /// Replace inline Reno with a Swift-style delay-based controller
    /// (`None`, the default, keeps Reno). Loss events — fast retransmit
    /// and RTO — feed the controller as multiplicative-decrease signals;
    /// RTT samples drive its target-delay AIMD.
    pub swift: Option<ebs_cc::SwiftConfig>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            iss: 1,
            initial_cwnd_segs: 10,
            rto_initial: SimDuration::from_millis(50),
            rto_min: SimDuration::from_millis(5),
            rto_max: SimDuration::from_secs(4),
            recv_window: 1 << 20,
            max_ooo_bytes: 1 << 20,
            max_retries: 10,
            swift: None,
        }
    }
}

/// TCP flag bits (the ones this engine sends or honours).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// SYN — synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST — abort the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH — push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK — acknowledgment field is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// True if every bit of `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

/// A TCP segment as exchanged between engines (structured form: the
/// simulator moves segments, never encoded headers).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Wire sequence number of the first payload byte (or of SYN).
    pub seq: u32,
    /// Cumulative acknowledgment (valid when ACK flag set).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u32,
    /// Payload: the stretch of the sender's stream this segment covers,
    /// as the views the application queued (a segment that straddles two
    /// writes carries a view of each — nothing is glued together).
    pub payload: ByteChain,
}

impl Segment {
    /// Wire size: TCP/IP headers + payload (used by hosts to cost CPU and
    /// fabric bytes).
    pub fn wire_size(&self) -> usize {
        54 + self.payload.len() // eth 14 + ip 20 + tcp 20
    }
}

/// Connection state (condensed: no TIME_WAIT machinery — EBS connections
/// are long-lived and torn down administratively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open, waiting for SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynReceived,
    /// Data may flow.
    Established,
    /// Dead (reset or too many retries).
    Closed,
}

/// Hot per-flow scalars, packed into a single 64-byte cache line.
///
/// Every ACK touches all of these and (in the common no-loss case)
/// nothing else of the engine beyond the in-flight columns, so keeping
/// them adjacent — and `repr(C)` so the compiler cannot scatter them —
/// makes the per-event touch one line instead of a walk over the whole
/// struct.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct FlowHot {
    snd_una: u64,
    snd_nxt: u64,
    peer_window: u64,
    recover: u64,
    cwnd: f64,
    ssthresh: f64,
    /// Smoothed RTT in ns; NAN = no sample yet.
    srtt_ns: f64,
    rttvar_ns: f64,
}

/// Send-side in-flight segments in struct-of-arrays form.
///
/// Offsets only ever grow (new data is carved at `snd_nxt`) and leave
/// from the front on cumulative ACKs, so parallel `VecDeque` columns
/// replace the old `BTreeMap<u64, SentSeg>`: the ACK scan walks the
/// offset/len/meta columns without pulling payload pointers into cache,
/// and retransmit lookup is a binary search instead of a tree descent.
#[derive(Debug, Default)]
struct Inflight {
    off: VecDeque<u64>,
    len: VecDeque<u32>,
    sent_at: VecDeque<SimTime>,
    retransmitted: VecDeque<bool>,
    payload: VecDeque<ByteChain>,
}

impl Inflight {
    fn is_empty(&self) -> bool {
        self.off.is_empty()
    }

    fn front_off(&self) -> Option<u64> {
        self.off.front().copied()
    }

    fn push(&mut self, off: u64, payload: ByteChain, now: SimTime) {
        debug_assert!(self.off.back().is_none_or(|&b| b < off));
        self.off.push_back(off);
        self.len.push_back(payload.len() as u32);
        self.sent_at.push_back(now);
        self.retransmitted.push_back(false);
        self.payload.push_back(payload);
    }

    /// Mark the segment at stream offset `off` retransmitted and return
    /// a clone of its payload; `None` if it has since been acked away.
    fn mark_retransmit(&mut self, off: u64, now: SimTime) -> Option<ByteChain> {
        let i = self.off.partition_point(|&o| o < off);
        if self.off.get(i) != Some(&off) {
            return None;
        }
        self.retransmitted[i] = true;
        self.sent_at[i] = now;
        Some(self.payload[i].clone())
    }

    /// Drop every segment starting below `ack_off` (cumulative ACK).
    /// Returns the RTT-sample candidate per Karn's rule: the send time of
    /// the newest dropped segment that was never retransmitted and is
    /// fully covered by the ACK.
    fn ack_below(&mut self, ack_off: u64, rtx_queue: &mut BTreeSet<u64>) -> Option<SimTime> {
        let mut sample = None;
        while let Some(&off) = self.off.front() {
            if off >= ack_off {
                break;
            }
            self.off.pop_front();
            // lint: allow(panic_discipline) — all five columns push/pop together; a length mismatch is a corrupted engine, not a recoverable protocol state
            let len = self.len.pop_front().expect("columns in sync");
            // lint: allow(panic_discipline) — columns push/pop together (see above)
            let sent_at = self.sent_at.pop_front().expect("columns in sync");
            // lint: allow(panic_discipline) — columns push/pop together (see above)
            let retransmitted = self.retransmitted.pop_front().expect("columns in sync");
            self.payload.pop_front();
            if !retransmitted && off + len as u64 <= ack_off {
                sample = Some(sent_at);
            }
            if !rtx_queue.is_empty() {
                rtx_queue.remove(&off);
            }
        }
        sample
    }
}

/// Counters for the experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmits).
    pub segs_sent: u64,
    /// Pure ACKs transmitted.
    pub acks_sent: u64,
    /// Retransmitted segments (fast + timeout).
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Application bytes acknowledged end-to-end.
    pub bytes_acked: u64,
}

/// One end of a TCP connection (see module docs).
#[derive(Debug)]
pub struct TcpEngine {
    cfg: TcpConfig,
    state: TcpState,
    /// Peer's initial sequence number (valid post-handshake).
    irs: u32,

    // --- send side (u64 unwrapped stream offsets) ---
    hot: FlowHot,
    pending: ViewQueue,
    inflight: Inflight,
    rtx_queue: BTreeSet<u64>,
    dupacks: u32,
    in_recovery: bool,
    /// Swift-style delay-based controller when `cfg.swift` selects it;
    /// `None` runs the inline Reno machinery.
    swift: Option<ebs_cc::Swift>,

    // --- receive side ---
    rcv_nxt: u64,
    ooo: BTreeMap<u64, ByteChain>,
    ooo_bytes: usize,
    rx_ready: ViewQueue,

    // --- timers / RTT ---
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    retries: u32,

    // --- output flags ---
    ack_pending: bool,
    syn_pending: bool,

    stats: TcpStats,
}

impl TcpEngine {
    fn new(cfg: TcpConfig, state: TcpState) -> Self {
        let swift = cfg.swift.map(ebs_cc::Swift::new);
        // Swift owns the window from the first ACK on; starting cwnd at
        // its BDP-based window (not Reno's IW10) keeps the two regimes
        // from mixing.
        let cwnd = swift.as_ref().map_or(
            (cfg.initial_cwnd_segs as usize * cfg.mss) as f64,
            ebs_cc::Swift::window,
        );
        let rto = cfg.rto_initial;
        TcpEngine {
            state,
            irs: 0,
            hot: FlowHot {
                snd_una: 0,
                snd_nxt: 0,
                peer_window: cfg.recv_window as u64,
                recover: 0,
                cwnd,
                ssthresh: f64::INFINITY,
                srtt_ns: f64::NAN,
                rttvar_ns: 0.0,
            },
            pending: ViewQueue::new(),
            inflight: Inflight::default(),
            rtx_queue: BTreeSet::new(),
            dupacks: 0,
            in_recovery: false,
            swift,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            rx_ready: ViewQueue::new(),
            rto,
            rto_deadline: None,
            retries: 0,
            ack_pending: false,
            syn_pending: false,
            stats: TcpStats::default(),
            cfg,
        }
    }

    /// Active open: the engine will emit a SYN on the next poll.
    pub fn connect(cfg: TcpConfig) -> Self {
        let mut e = Self::new(cfg, TcpState::SynSent);
        e.syn_pending = true;
        e
    }

    /// Passive open: waits for a SYN.
    pub fn listen(cfg: TcpConfig) -> Self {
        Self::new(cfg, TcpState::Listen)
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// Counters.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Unacknowledged bytes in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.hot.snd_nxt - self.hot.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.hot.cwnd as u64
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT, if sampled.
    pub fn srtt(&self) -> Option<SimDuration> {
        if self.hot.srtt_ns.is_nan() {
            None
        } else {
            Some(SimDuration::from_nanos(self.hot.srtt_ns as u64))
        }
    }

    /// Bytes accepted from the app but not yet transmitted.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Queue application data for transmission.
    pub fn send(&mut self, data: Bytes) {
        self.pending.push(data);
    }

    /// Drain the next view of in-order received stream bytes (the views
    /// the peer's application queued, cut at segment boundaries).
    pub fn recv(&mut self) -> Option<Bytes> {
        self.rx_ready.pop()
    }

    fn advertised_window(&self) -> u32 {
        self.cfg
            .recv_window
            .saturating_sub(self.rx_ready.len() + self.ooo_bytes) as u32
    }

    fn data_seq(&self, offset: u64) -> u32 {
        // SYN consumes one sequence number; data starts at iss+1.
        self.cfg.iss.wrapping_add(1).wrapping_add(offset as u32)
    }

    fn ack_seq(&self) -> u32 {
        self.irs.wrapping_add(1).wrapping_add(self.rcv_nxt as u32)
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto);
    }

    /// Next timer deadline the host must call [`TcpEngine::on_timer`] at.
    pub fn poll_timer(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Fire the retransmission timer if due.
    pub fn on_timer(&mut self, now: SimTime) {
        let Some(deadline) = self.rto_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        if self.state == TcpState::SynSent {
            // Re-send SYN.
            self.syn_pending = true;
            self.retries += 1;
            self.rto = self.rto.mul_f64(2.0).min(self.cfg.rto_max);
            self.arm_rto(now);
            if self.retries > self.cfg.max_retries {
                self.state = TcpState::Closed;
                self.rto_deadline = None;
            }
            return;
        }
        let Some(first) = self.inflight.front_off() else {
            self.rto_deadline = None;
            return;
        };
        // Timeout: retransmit the earliest unacked segment, collapse cwnd.
        self.stats.timeouts += 1;
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.state = TcpState::Closed;
            self.rto_deadline = None;
            return;
        }
        self.rtx_queue.insert(first);
        if let Some(sw) = self.swift.as_mut() {
            sw.on_timeout();
            self.hot.cwnd = sw.window();
        } else {
            let flight = self.bytes_in_flight() as f64;
            self.hot.ssthresh = (flight / 2.0).max(2.0 * self.cfg.mss as f64);
            self.hot.cwnd = self.cfg.mss as f64;
        }
        self.in_recovery = false;
        self.dupacks = 0;
        self.rto = self.rto.mul_f64(2.0).min(self.cfg.rto_max);
        self.arm_rto(now);
    }

    /// Produce the next outgoing segment, if any. Call repeatedly until
    /// `None` after every `on_segment` / `on_timer` / `send`.
    pub fn poll_segment(&mut self, now: SimTime) -> Option<Segment> {
        match self.state {
            TcpState::Closed | TcpState::Listen => return None,
            TcpState::SynSent => {
                if self.syn_pending {
                    self.syn_pending = false;
                    if self.rto_deadline.is_none() {
                        self.arm_rto(now);
                    }
                    return Some(Segment {
                        seq: self.cfg.iss,
                        ack: 0,
                        flags: TcpFlags::SYN,
                        window: self.advertised_window(),
                        payload: ByteChain::new(),
                    });
                }
                return None;
            }
            TcpState::SynReceived => {
                if self.syn_pending {
                    self.syn_pending = false;
                    return Some(Segment {
                        seq: self.cfg.iss,
                        ack: self.irs.wrapping_add(1),
                        flags: TcpFlags::SYN | TcpFlags::ACK,
                        window: self.advertised_window(),
                        payload: ByteChain::new(),
                    });
                }
                return None;
            }
            TcpState::Established => {}
        }

        // 1. Retransmissions take priority.
        while let Some(&off) = self.rtx_queue.iter().next() {
            self.rtx_queue.remove(&off);
            if let Some(payload) = self.inflight.mark_retransmit(off, now) {
                self.stats.segs_sent += 1;
                self.stats.retransmits += 1;
                self.ack_pending = false;
                if self.rto_deadline.is_none() {
                    self.arm_rto(now);
                }
                return Some(Segment {
                    seq: self.data_seq(off),
                    ack: self.ack_seq(),
                    flags: TcpFlags::ACK | TcpFlags::PSH,
                    window: self.advertised_window(),
                    payload,
                });
            }
            // Already acked — skip.
        }

        // 2. New data, within cwnd and the peer's window.
        let window = (self.hot.cwnd as u64).min(self.hot.peer_window);
        if !self.pending.is_empty() && self.bytes_in_flight() < window {
            let budget = (window - self.bytes_in_flight()) as usize;
            let take = budget.min(self.cfg.mss);
            let payload = self.carve(take);
            if !payload.is_empty() {
                let off = self.hot.snd_nxt;
                self.hot.snd_nxt += payload.len() as u64;
                self.inflight.push(off, payload.clone(), now);
                self.stats.segs_sent += 1;
                self.ack_pending = false;
                if self.rto_deadline.is_none() {
                    self.arm_rto(now);
                }
                return Some(Segment {
                    seq: self.data_seq(off),
                    ack: self.ack_seq(),
                    flags: TcpFlags::ACK | TcpFlags::PSH,
                    window: self.advertised_window(),
                    payload,
                });
            }
        }

        // 3. Pure ACK.
        if self.ack_pending {
            self.ack_pending = false;
            self.stats.acks_sent += 1;
            return Some(Segment {
                seq: self.data_seq(self.hot.snd_nxt),
                ack: self.ack_seq(),
                flags: TcpFlags::ACK,
                window: self.advertised_window(),
                payload: ByteChain::new(),
            });
        }
        None
    }

    /// Pull up to `max` bytes off the pending queue as one payload. The
    /// cut falls wherever `max` says, regardless of where queued writes
    /// begin and end; the payload is the views it crosses, split in O(1).
    fn carve(&mut self, max: usize) -> ByteChain {
        let mut out = ByteChain::new();
        let mut room = max;
        while room > 0 && !self.pending.is_empty() {
            let view = self.pending.pop_up_to(room);
            room -= view.len();
            out.push(view);
        }
        out
    }

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.contains(TcpFlags::RST) {
            self.state = TcpState::Closed;
            self.rto_deadline = None;
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::Listen => {
                if seg.flags.contains(TcpFlags::SYN) {
                    self.irs = seg.seq;
                    self.hot.peer_window = seg.window as u64;
                    self.state = TcpState::SynReceived;
                    self.syn_pending = true;
                }
            }
            TcpState::SynSent => {
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
                    self.irs = seg.seq;
                    self.hot.peer_window = seg.window as u64;
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                    self.retries = 0;
                    self.rto = self.cfg.rto_initial;
                    self.ack_pending = true;
                }
            }
            TcpState::SynReceived => {
                if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
                    // Our SYN+ACK was lost and the client re-SYNed: resend.
                    self.syn_pending = true;
                } else if seg.flags.contains(TcpFlags::ACK) {
                    self.state = TcpState::Established;
                    self.hot.peer_window = seg.window as u64;
                    // Fall through to normal processing for piggybacked data.
                    self.established_segment(now, seg);
                }
            }
            TcpState::Established => self.established_segment(now, seg),
        }
    }

    fn established_segment(&mut self, now: SimTime, seg: Segment) {
        self.hot.peer_window = seg.window as u64;

        // A retransmitted SYN+ACK means our final handshake ACK was lost:
        // re-ack so the peer can leave SYN_RECEIVED.
        if seg.flags.contains(TcpFlags::SYN) {
            self.ack_pending = true;
            return;
        }

        // --- ACK processing ---
        if seg.flags.contains(TcpFlags::ACK) {
            let ack_off = unwrap_seq(
                seg.ack.wrapping_sub(self.cfg.iss).wrapping_sub(1),
                self.hot.snd_una,
            );
            if ack_off > self.hot.snd_una as i64 && ack_off <= self.hot.snd_nxt as i64 {
                let ack_off = ack_off as u64;
                self.retries = 0;
                // RTT sample from the newest fully-acked, never
                // retransmitted segment (Karn's rule).
                let sample = self
                    .inflight
                    .ack_below(ack_off, &mut self.rtx_queue)
                    .map(|sent_at| now.saturating_since(sent_at));
                let newly = ack_off - self.hot.snd_una;
                self.stats.bytes_acked += newly;
                self.hot.snd_una = ack_off;
                self.dupacks = 0;
                if let Some(rtt) = sample {
                    self.update_rtt(rtt);
                    if let Some(sw) = self.swift.as_mut() {
                        sw.on_delay_sample(now, rtt);
                    }
                }
                // Congestion control.
                if let Some(sw) = self.swift.as_ref() {
                    // Delay-based: the controller owns the window.
                    self.hot.cwnd = sw.window();
                    if self.in_recovery && ack_off >= self.hot.recover {
                        self.in_recovery = false;
                    }
                } else if self.in_recovery {
                    if ack_off >= self.hot.recover {
                        self.in_recovery = false;
                        self.hot.cwnd = self.hot.ssthresh;
                    }
                } else if self.hot.cwnd < self.hot.ssthresh {
                    self.hot.cwnd += newly as f64; // slow start
                } else {
                    self.hot.cwnd += (self.cfg.mss as f64 * self.cfg.mss as f64) / self.hot.cwnd;
                    // CA
                }
                // Timer: restart if data remains, else disarm.
                if self.inflight.is_empty() {
                    self.rto_deadline = None;
                } else {
                    self.arm_rto(now);
                }
            } else if ack_off == self.hot.snd_una as i64
                && !self.inflight.is_empty()
                && seg.payload.is_empty()
            {
                self.dupacks += 1;
                if self.dupacks == 3 && !self.in_recovery {
                    // Fast retransmit + fast recovery (simplified Reno).
                    if let Some(sw) = self.swift.as_mut() {
                        // Loss is a multiplicative-decrease signal for
                        // the delay-based controller too.
                        sw.on_timeout();
                        self.hot.cwnd = sw.window();
                    } else {
                        let flight = self.bytes_in_flight() as f64;
                        self.hot.ssthresh = (flight / 2.0).max(2.0 * self.cfg.mss as f64);
                        self.hot.cwnd = self.hot.ssthresh;
                    }
                    self.in_recovery = true;
                    self.hot.recover = self.hot.snd_nxt;
                    if let Some(first) = self.inflight.front_off() {
                        self.rtx_queue.insert(first);
                    }
                }
            }
        }

        // --- data processing ---
        if !seg.payload.is_empty() {
            let off = unwrap_seq(seg.seq.wrapping_sub(self.irs).wrapping_sub(1), self.rcv_nxt);
            self.ack_pending = true;
            let len = seg.payload.len() as i64;
            if off == self.rcv_nxt as i64 {
                self.deliver(seg.payload);
                self.drain_ooo();
            } else if off > self.rcv_nxt as i64 {
                // Out of order: buffer if capacity allows (this buffer is
                // exactly the state SOLAR removes from hardware).
                if self.ooo_bytes + seg.payload.len() <= self.cfg.max_ooo_bytes {
                    let off = off as u64;
                    if let std::collections::btree_map::Entry::Vacant(e) = self.ooo.entry(off) {
                        self.ooo_bytes += seg.payload.len();
                        e.insert(seg.payload);
                    }
                }
            } else if off + len > self.rcv_nxt as i64 {
                // Partial overlap: deliver the new tail.
                let mut tail = seg.payload;
                tail.advance((self.rcv_nxt as i64 - off) as usize);
                self.deliver(tail);
                self.drain_ooo();
            }
            // else: pure duplicate — just ack.
        }
    }

    fn deliver(&mut self, data: ByteChain) {
        self.rcv_nxt += data.len() as u64;
        for view in data {
            self.rx_ready.push(view);
        }
    }

    fn drain_ooo(&mut self) {
        while let Some(entry) = self.ooo.first_entry() {
            if *entry.key() > self.rcv_nxt {
                break;
            }
            let (off, mut data) = entry.remove_entry();
            self.ooo_bytes -= data.len();
            if off + data.len() as u64 <= self.rcv_nxt {
                continue; // fully duplicate
            }
            data.advance((self.rcv_nxt - off) as usize);
            self.deliver(data);
        }
    }

    fn update_rtt(&mut self, rtt: SimDuration) {
        let r = rtt.as_nanos() as f64;
        let srtt = if self.hot.srtt_ns.is_nan() {
            self.hot.rttvar_ns = r / 2.0;
            r
        } else {
            let srtt = self.hot.srtt_ns;
            self.hot.rttvar_ns = 0.75 * self.hot.rttvar_ns + 0.25 * (srtt - r).abs();
            0.875 * srtt + 0.125 * r
        };
        self.hot.srtt_ns = srtt;
        let rto_ns = srtt + 4.0 * self.hot.rttvar_ns;
        self.rto = SimDuration::from_nanos(rto_ns as u64)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max);
    }
}

impl ebs_obs::Sample for TcpEngine {
    /// Component `tcp`: shared engine counters plus the congestion state
    /// (cwnd / inflight / srtt) the LUNA comparison plots read.
    fn sample_into(&self, _now: SimTime, m: &mut ebs_obs::Metrics) {
        let s = self.stats();
        m.counter_add("tcp", "segs_sent", s.segs_sent);
        m.counter_add("tcp", "acks_sent", s.acks_sent);
        m.counter_add("tcp", "retransmits", s.retransmits);
        m.counter_add("tcp", "timeouts", s.timeouts);
        m.counter_add("tcp", "bytes_acked", s.bytes_acked);
        m.gauge_set("tcp", "cwnd_bytes", self.cwnd() as f64);
        m.gauge_set("tcp", "bytes_in_flight", self.bytes_in_flight() as f64);
        m.gauge_set("tcp", "pending_bytes", self.pending_bytes() as f64);
        if let Some(srtt) = self.srtt() {
            m.observe("tcp", "srtt_ns", srtt.as_nanos());
        }
    }
}
