//! Per-path state: RTT/RTO, HPCC window, liveness.
//!
//! SOLAR keeps a small, fixed set of persistent paths to every block
//! server (distinct UDP source ports → distinct ECMP routes) and maintains
//! per-path condition — window, sending rate, RTT, consecutive timeouts —
//! entirely in the *control plane* (DPU CPU). No per-path state exists in
//! hardware, which is what lets multi-path scale (§4.4).
//!
//! # Layout: struct-of-arrays
//!
//! The spray decision ([`SolarClient::poll_transmit`]) scans **every**
//! path per transmitted packet, reading exactly four scalars: liveness,
//! smoothed RTT, window and in-flight bytes. With one big struct per path
//! each of those reads pulls in a different cache line full of cold state
//! (the HPCC controller, the outstanding-sequence tree, probe counters).
//! [`PathSet`] therefore stores the hot scan fields in parallel arrays —
//! the whole spray scan for 8 paths touches a handful of contiguous
//! cache lines — and banishes everything only touched on ACK/timeout/
//! probe transitions to a cold per-path record. `probe_min_ns` caches
//! the earliest probe deadline so the per-poll "any probe due?" check is
//! one compare instead of a scan.
//!
//! [`SolarClient::poll_transmit`]: crate::SolarClient::poll_transmit

use std::collections::BTreeMap;

use ebs_cc::{AckSignal, AnyCc, CongestionControl};
use ebs_sim::{SimDuration, SimTime};

use crate::config::SolarConfig;

/// Liveness of one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStatus {
    /// Healthy; eligible for spraying.
    Up,
    /// Declared failed after consecutive timeouts; probed until it
    /// answers.
    Failed {
        /// When the path was declared failed.
        since: SimTime,
    },
}

/// Identifies one in-flight packet (rpc, pkt) for bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PktKey {
    /// RPC id.
    pub rpc_id: u64,
    /// Packet index within the RPC.
    pub pkt_id: u16,
}

/// Sentinel for "no probe scheduled" in [`PathSet::next_probe_ns`].
const NO_PROBE: u64 = u64::MAX;

/// Cold per-path state: only touched on ACK / timeout / probe
/// transitions, never by the per-packet spray scan.
#[derive(Debug)]
struct PathCold {
    rttvar_ns: f64,
    rto: SimDuration,
    consecutive_timeouts: u32,
    /// The per-path congestion controller `SolarConfig::cc` selects.
    cc: AnyCc,
    next_seq: u32,
    /// Outstanding path sequence numbers, for out-of-order loss detection.
    outstanding_seqs: BTreeMap<u32, PktKey>,
    /// When the path was declared failed (valid while not up).
    failed_since: SimTime,
    /// Unanswered probes since the path failed.
    probes_unanswered: u32,
    /// How many times this path has been re-hashed onto a new source
    /// port after persistent probe failures.
    remap_generation: u16,
    /// Route epoch: bumped whenever the path's effective route changes
    /// (remap) or its liveness is re-established (revival). Timeouts of
    /// packets sent in an older epoch say nothing about the *current*
    /// route and must not count toward failing it — the liveness analogue
    /// of Karn's rule. Without this, a freshly revived path is instantly
    /// re-failed by the timeout wave of packets that flew on the old,
    /// bad route, and a client whose paths are all down can never escape.
    epoch: u32,
}

/// The full per-client path table (see the module docs for the layout).
///
/// All methods take the path index `i` (`0..len()`); the UDP source port
/// is `base_port + i` plus the remap offset.
#[derive(Debug)]
pub struct PathSet {
    // --- hot: read by every spray / probe / timer poll ------------------
    /// Liveness flag (the hot projection of [`PathStatus`]).
    pub(crate) up: Vec<bool>,
    /// Smoothed RTT in ns; `NAN` until the first sample.
    pub(crate) srtt_ns: Vec<f64>,
    /// Cached `hpcc.window() as u64` (refreshed on every HPCC update).
    pub(crate) window: Vec<u64>,
    /// Unacked bytes currently attributed to the path.
    pub(crate) inflight: Vec<u64>,
    /// Next probe instant in ns; [`NO_PROBE`] while the path is up.
    pub(crate) next_probe_ns: Vec<u64>,
    /// `min(next_probe_ns)` — one compare decides "any probe due?".
    probe_min_ns: u64,
    // --- cold -----------------------------------------------------------
    cold: Vec<PathCold>,
}

impl PathSet {
    /// `n` fresh, healthy paths.
    pub fn new(n: usize, cfg: &SolarConfig) -> Self {
        let cc_cfg = cfg.cc_config();
        let cold: Vec<PathCold> = (0..n)
            .map(|_| PathCold {
                rttvar_ns: 0.0,
                rto: cfg.rto_initial,
                consecutive_timeouts: 0,
                cc: AnyCc::new(&cc_cfg),
                next_seq: 0,
                outstanding_seqs: BTreeMap::new(),
                failed_since: SimTime::ZERO,
                probes_unanswered: 0,
                remap_generation: 0,
                epoch: 0,
            })
            .collect();
        let window = cold.iter().map(|c| c.cc.window() as u64).collect();
        PathSet {
            up: vec![true; n],
            srtt_ns: vec![f64::NAN; n],
            window,
            inflight: vec![0; n],
            next_probe_ns: vec![NO_PROBE; n],
            probe_min_ns: NO_PROBE,
            cold,
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.up.len()
    }

    /// True when the set holds no paths (never, for a valid client).
    pub fn is_empty(&self) -> bool {
        self.up.is_empty()
    }

    /// The UDP source port path `i` currently uses. Remapping bumps the
    /// port by `n_paths` so the flow hashes onto a different ECMP bucket
    /// while the path id on the wire stays stable.
    pub fn src_port(&self, i: usize, cfg: &SolarConfig) -> u16 {
        cfg.base_port
            + i as u16
            + self.cold[i]
                .remap_generation
                .wrapping_mul(cfg.n_paths as u16)
    }

    /// Times path `i` has been remapped (diagnostics).
    pub fn remap_generation(&self, i: usize) -> u16 {
        self.cold[i].remap_generation
    }

    /// Current route epoch of path `i`: bumped on every remap or revival
    /// so stale-route timeouts can be told apart from current-route ones.
    /// Recorded per packet at transmit time; [`PathSet::on_timeout`]
    /// ignores stale-epoch timeouts.
    pub fn epoch(&self, i: usize) -> u32 {
        self.cold[i].epoch
    }

    /// Liveness of path `i`.
    pub fn status(&self, i: usize) -> PathStatus {
        if self.up[i] {
            PathStatus::Up
        } else {
            PathStatus::Failed {
                since: self.cold[i].failed_since,
            }
        }
    }

    /// True if path `i` may carry new packets.
    pub fn is_up(&self, i: usize) -> bool {
        self.up[i]
    }

    /// Smoothed RTT estimate (used to prefer fast paths when spraying).
    pub fn srtt(&self, i: usize) -> Option<SimDuration> {
        let ns = self.srtt_ns[i];
        (!ns.is_nan()).then(|| SimDuration::from_nanos(ns as u64))
    }

    /// Current retransmission timeout of path `i`.
    pub fn rto(&self, i: usize) -> SimDuration {
        self.cold[i].rto
    }

    /// Congestion window of path `i` in bytes.
    pub fn window(&self, i: usize) -> u64 {
        self.window[i]
    }

    /// Last INT-derived utilization the congestion controller saw
    /// (0.0 unless the HPCC controller is selected — only HPCC consumes
    /// INT).
    pub fn last_utilization(&self, i: usize) -> f64 {
        self.cold[i]
            .cc
            .as_hpcc()
            .map_or(0.0, |h| h.last_utilization())
    }

    /// Unacked bytes currently attributed to path `i`.
    pub fn inflight_bytes(&self, i: usize) -> u64 {
        self.inflight[i]
    }

    /// Consecutive timeout count (diagnostics).
    pub fn consecutive_timeouts(&self, i: usize) -> u32 {
        self.cold[i].consecutive_timeouts
    }

    /// Allocate the next per-path sequence number and account the bytes.
    pub fn register_tx(&mut self, i: usize, key: PktKey, bytes: u64) -> u32 {
        let c = &mut self.cold[i];
        let seq = c.next_seq;
        c.next_seq = c.next_seq.wrapping_add(1);
        c.outstanding_seqs.insert(seq, key);
        self.inflight[i] += bytes;
        seq
    }

    /// Remove a packet from path `i`'s accounting (acked, timed out, or
    /// moved to another path).
    pub fn release(&mut self, i: usize, seq: u32, bytes: u64) {
        self.cold[i].outstanding_seqs.remove(&seq);
        self.inflight[i] = self.inflight[i].saturating_sub(bytes);
    }

    /// Outstanding packets of path `i` with sequence in `start..end`
    /// (receiver-side gap reports; see `SolarClient::on_gap_nack`).
    pub fn outstanding_in(&self, i: usize, start: u32, end: u32) -> Vec<PktKey> {
        self.cold[i]
            .outstanding_seqs
            .range(start..end)
            .map(|(_, &k)| k)
            .collect()
    }

    /// Record a successful round trip on path `i`: RTT sample (when
    /// `sample` is set — Karn's rule excludes retransmissions), a
    /// congestion-controller update from whichever signals the ACK
    /// carried (echoed INT for HPCC, the RTT sample for Swift, the
    /// echoed ECN mark for DCQCN), and liveness reset.
    pub fn on_ack(
        &mut self,
        i: usize,
        now: SimTime,
        sample: Option<SimDuration>,
        int: Option<&ebs_wire::IntStack>,
        ecn: bool,
        cfg: &SolarConfig,
    ) {
        let c = &mut self.cold[i];
        c.consecutive_timeouts = 0;
        // NOTE: a Failed path is NOT revived by stray data ACKs — a lossy
        // path delivers a fraction of packets, and bouncing back on every
        // fluke success would keep feeding it traffic at ever-longer RTOs.
        // Only a clean probe round trip (`revive`) re-admits a path.
        if let Some(rtt) = sample {
            let r = rtt.as_nanos() as f64;
            let prev = self.srtt_ns[i];
            let srtt = if prev.is_nan() {
                c.rttvar_ns = r / 2.0;
                r
            } else {
                c.rttvar_ns = 0.75 * c.rttvar_ns + 0.25 * (prev - r).abs();
                0.875 * prev + 0.125 * r
            };
            self.srtt_ns[i] = srtt;
            // RTO = srtt + 4*var, but never below 2x srtt: under incast
            // the *level* of RTT moves with queueing while the variance
            // estimator lags, and a timeout fired into genuine congestion
            // starts a flap-and-collapse spiral.
            let rto_ns = (srtt + 4.0 * c.rttvar_ns.max(1000.0)).max(2.0 * srtt);
            c.rto = SimDuration::from_nanos(rto_ns as u64)
                .max(cfg.rto_min)
                .min(cfg.rto_max);
        }
        c.cc.on_ack(
            now,
            &AckSignal {
                rtt_sample: sample,
                int,
                ecn,
            },
        );
        self.window[i] = c.cc.window() as u64;
    }

    /// Record a timeout on path `i` of a packet sent in epoch
    /// `sent_epoch`; returns `true` if this crossed the failure threshold
    /// and the path was just declared down. A timeout from an older epoch
    /// flew on a route this path no longer uses (it has since remapped
    /// and/or revived): it still backs off the RTO — the *packet* is in
    /// trouble either way — but carries no evidence about the current
    /// route's liveness.
    pub fn on_timeout(
        &mut self,
        i: usize,
        now: SimTime,
        sent_epoch: u32,
        cfg: &SolarConfig,
    ) -> bool {
        let c = &mut self.cold[i];
        c.cc.on_timeout();
        self.window[i] = c.cc.window() as u64;
        c.rto = c.rto.mul_f64(2.0).min(cfg.rto_max);
        if sent_epoch != c.epoch {
            return false;
        }
        c.consecutive_timeouts += 1;
        if c.consecutive_timeouts >= cfg.path_fail_threshold && self.up[i] {
            self.up[i] = false;
            c.failed_since = now;
            let at = (now + cfg.probe_interval).as_nanos();
            self.next_probe_ns[i] = at;
            self.probe_min_ns = self.probe_min_ns.min(at);
            return true;
        }
        false
    }

    /// Next probe instant of path `i` while failed.
    pub fn next_probe(&self, i: usize) -> Option<SimTime> {
        let at = self.next_probe_ns[i];
        (at != NO_PROBE).then(|| SimTime::from_nanos(at))
    }

    /// Earliest probe deadline across all failed paths (O(1)).
    pub fn min_next_probe(&self) -> Option<SimTime> {
        (self.probe_min_ns != NO_PROBE).then(|| SimTime::from_nanos(self.probe_min_ns))
    }

    /// First path (in index order) whose probe is due at `now`, if any.
    /// One compare against the cached minimum in the common no-probe case.
    pub fn first_due_probe(&self, now: SimTime) -> Option<usize> {
        if self.probe_min_ns > now.as_nanos() {
            return None;
        }
        let now_ns = now.as_nanos();
        self.next_probe_ns.iter().position(|&at| at <= now_ns)
    }

    fn recompute_probe_min(&mut self) {
        self.probe_min_ns = self.next_probe_ns.iter().copied().min().unwrap_or(NO_PROBE);
    }

    /// A probe was just sent on path `i`; schedule the next one. After
    /// `remap_after_probes` unanswered probes the path abandons its ECMP
    /// bucket: the source port moves, so the next probe tries a fresh
    /// fabric route.
    pub fn probe_sent(&mut self, i: usize, now: SimTime, cfg: &SolarConfig) {
        self.next_probe_ns[i] = (now + cfg.probe_interval).as_nanos();
        let c = &mut self.cold[i];
        c.probes_unanswered += 1;
        if c.probes_unanswered >= cfg.remap_after_probes {
            c.remap_generation = c.remap_generation.wrapping_add(1);
            c.probes_unanswered = 0;
            c.epoch = c.epoch.wrapping_add(1);
        }
        self.recompute_probe_min();
    }

    /// A probe answer arrived: path `i` is healthy again.
    pub fn revive(&mut self, i: usize) {
        self.up[i] = true;
        self.next_probe_ns[i] = NO_PROBE;
        let c = &mut self.cold[i];
        c.consecutive_timeouts = 0;
        c.probes_unanswered = 0;
        c.epoch = c.epoch.wrapping_add(1);
        self.recompute_probe_min();
    }

    /// Read-only views for diagnostics (testbed debug dumps, tests).
    pub fn views(&self) -> impl Iterator<Item = PathView<'_>> {
        (0..self.len()).map(move |i| PathView { set: self, i })
    }
}

/// Read-only view of one path (diagnostics; the hot paths use the
/// index-based [`PathSet`] accessors directly).
#[derive(Debug, Clone, Copy)]
pub struct PathView<'a> {
    set: &'a PathSet,
    i: usize,
}

impl PathView<'_> {
    /// Path index (the UDP source port is `base_port + id`).
    pub fn id(&self) -> u8 {
        self.i as u8
    }
    /// Liveness.
    pub fn status(&self) -> PathStatus {
        self.set.status(self.i)
    }
    /// True if the path may carry new packets.
    pub fn is_up(&self) -> bool {
        self.set.is_up(self.i)
    }
    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.set.srtt(self.i)
    }
    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.set.rto(self.i)
    }
    /// Congestion window in bytes.
    pub fn window(&self) -> u64 {
        self.set.window(self.i)
    }
    /// Last INT-derived utilization.
    pub fn last_utilization(&self) -> f64 {
        self.set.last_utilization(self.i)
    }
    /// Unacked bytes currently attributed to this path.
    pub fn inflight_bytes(&self) -> u64 {
        self.set.inflight_bytes(self.i)
    }
    /// Next probe instant while failed.
    pub fn next_probe(&self) -> Option<SimTime> {
        self.set.next_probe(self.i)
    }
    /// Consecutive timeout count.
    pub fn consecutive_timeouts(&self) -> u32 {
        self.set.consecutive_timeouts(self.i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SolarConfig {
        SolarConfig::default()
    }

    fn one_path() -> (SolarConfig, PathSet) {
        let c = cfg();
        let p = PathSet::new(1, &c);
        (c, p)
    }

    #[test]
    fn tx_accounting() {
        let (_, mut p) = one_path();
        let k = PktKey {
            rpc_id: 1,
            pkt_id: 0,
        };
        let s0 = p.register_tx(0, k, 4096);
        let s1 = p.register_tx(
            0,
            PktKey {
                rpc_id: 1,
                pkt_id: 1,
            },
            4096,
        );
        assert_eq!(s1, s0 + 1);
        assert_eq!(p.inflight_bytes(0), 8192);
        p.release(0, s0, 4096);
        assert_eq!(p.inflight_bytes(0), 4096);
        assert_eq!(p.outstanding_in(0, 0, u32::MAX).len(), 1);
    }

    #[test]
    fn rtt_drives_rto() {
        let (c, mut p) = one_path();
        for _ in 0..16 {
            p.on_ack(
                0,
                SimTime::from_micros(100),
                Some(SimDuration::from_micros(20)),
                None,
                false,
                &c,
            );
        }
        let rto = p.rto(0);
        // Converged rttvar makes srtt+4*var small; the floor clamps it.
        assert_eq!(rto, c.rto_min, "rto {rto}");
        assert_eq!(p.srtt(0).unwrap(), SimDuration::from_micros(20));
    }

    #[test]
    fn consecutive_timeouts_fail_path() {
        let (c, mut p) = one_path();
        assert!(!p.on_timeout(0, SimTime::from_micros(1), p.epoch(0), &c));
        assert!(!p.on_timeout(0, SimTime::from_micros(2), p.epoch(0), &c));
        assert!(
            p.on_timeout(0, SimTime::from_micros(3), p.epoch(0), &c),
            "third timeout fails path"
        );
        assert!(!p.is_up(0));
        // Further timeouts do not re-fail.
        assert!(!p.on_timeout(0, SimTime::from_micros(4), p.epoch(0), &c));
    }

    #[test]
    fn ack_resets_timeout_streak() {
        let (c, mut p) = one_path();
        p.on_timeout(0, SimTime::from_micros(1), p.epoch(0), &c);
        p.on_timeout(0, SimTime::from_micros(2), p.epoch(0), &c);
        p.on_ack(0, SimTime::from_micros(3), None, None, false, &c);
        assert_eq!(p.consecutive_timeouts(0), 0);
        assert!(!p.on_timeout(0, SimTime::from_micros(4), p.epoch(0), &c));
        assert!(p.is_up(0));
    }

    #[test]
    fn probe_cycle() {
        let (c, mut p) = one_path();
        for i in 0..3 {
            p.on_timeout(0, SimTime::from_micros(i), p.epoch(0), &c);
        }
        let probe_at = p.next_probe(0).expect("failed paths probe");
        assert!(probe_at > SimTime::from_micros(2));
        assert_eq!(p.min_next_probe(), Some(probe_at));
        assert_eq!(p.first_due_probe(probe_at), Some(0));
        assert_eq!(p.first_due_probe(SimTime::from_micros(3)), None);
        p.probe_sent(0, probe_at, &c);
        assert!(p.next_probe(0).unwrap() > probe_at);
        p.revive(0);
        assert!(p.is_up(0));
        assert!(p.next_probe(0).is_none());
        assert!(p.min_next_probe().is_none());
    }

    #[test]
    fn timeout_backs_off_rto() {
        let (c, mut p) = one_path();
        let r0 = p.rto(0);
        p.on_timeout(0, SimTime::from_micros(1), p.epoch(0), &c);
        assert_eq!(p.rto(0), r0.mul_f64(2.0));
    }

    #[test]
    fn probe_min_tracks_multiple_paths() {
        let c = cfg();
        let mut p = PathSet::new(3, &c);
        // Fail paths 2 then 1 at different instants.
        for t in [1, 2, 3] {
            p.on_timeout(2, SimTime::from_micros(t), p.epoch(2), &c);
        }
        for t in [10, 11, 12] {
            p.on_timeout(1, SimTime::from_micros(t), p.epoch(1), &c);
        }
        let p2 = p.next_probe(2).unwrap();
        assert_eq!(
            p.min_next_probe(),
            Some(p2),
            "earliest failure probes first"
        );
        // Index order, not deadline order, picks among due probes.
        let late = p.next_probe(1).unwrap();
        assert_eq!(p.first_due_probe(late), Some(1));
        p.revive(2);
        assert_eq!(p.min_next_probe(), Some(late));
        p.revive(1);
        assert_eq!(p.min_next_probe(), None);
    }
}
