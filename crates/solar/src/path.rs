//! Per-path state: RTT/RTO, HPCC window, liveness.
//!
//! SOLAR keeps a small, fixed set of persistent paths to every block
//! server (distinct UDP source ports → distinct ECMP routes) and maintains
//! per-path condition — window, sending rate, RTT, consecutive timeouts —
//! entirely in the *control plane* (DPU CPU). No per-path state exists in
//! hardware, which is what lets multi-path scale (§4.4).
//!
//! # Layout: a hot block and a cold block
//!
//! The spray decision ([`SolarClient::poll_transmit`]) scans **every**
//! path per transmitted packet, reading exactly four scalars: liveness,
//! smoothed RTT, window and in-flight bytes. With one big struct per path
//! each of those reads pulls in a different cache line full of cold state
//! (the congestion controller, RTO and probe counters). [`PathSet`]
//! therefore keeps the scan's scalars, and the probe deadline, in one
//! [`PathHot`] record of 40 bytes per path — the whole spray scan over 4
//! paths reads 160 contiguous bytes — and banishes everything only
//! touched on ACK/timeout/probe transitions to a cold per-path record.
//! Each is one boxed slice, so a client's path table is two allocations.
//! `probe_min_ns` caches the earliest probe deadline so the per-poll "any
//! probe due?" check is one compare instead of a scan.
//!
//! A path keeps no per-packet state: which packets are in flight on it,
//! and at which path sequence, is recorded once, in the client's
//! per-packet record (`SolarClient::on_gap_nack` reads it there).
//!
//! [`SolarClient::poll_transmit`]: crate::SolarClient::poll_transmit

use ebs_cc::{AckSignal, AnyCc, CongestionControl};
use ebs_sim::{SimDuration, SimTime};

use crate::config::{
    BASE_PORT, PATH_FAIL_THRESHOLD, PROBE_INTERVAL, REMAP_AFTER_PROBES, RTO_INITIAL, RTO_MAX,
    RTO_MIN, SWIFT_TARGET,
};
use crate::SolarConfig;

/// Sentinel for "no probe scheduled" in [`PathHot::next_probe_ns`].
const NO_PROBE: u64 = u64::MAX;

/// Hot per-path state: what every spray / probe / timer poll reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathHot {
    /// Smoothed RTT in ns; `NAN` until the first sample.
    pub(crate) srtt_ns: f64,
    /// Cached congestion window (refreshed on every controller update).
    pub(crate) window: u64,
    /// Unacked bytes currently attributed to the path.
    pub(crate) inflight: u64,
    /// Next probe instant in ns; [`NO_PROBE`] while the path is up.
    pub(crate) next_probe_ns: u64,
    /// Liveness: a failed path is probed until it answers.
    pub(crate) up: bool,
}

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
/// is `BASE_PORT + i` plus the remap offset.
#[derive(Debug)]
pub(crate) struct PathSet {
    /// Read by every spray / probe / timer poll, indexed by path.
    pub(crate) hot: Box<[PathHot]>,
    /// `min(next_probe_ns)` — one compare decides "any probe due?".
    probe_min_ns: u64,
    cold: Box<[PathCold]>,
}

impl PathSet {
    /// `cfg.n_paths` fresh, healthy paths, each running the controller
    /// `cfg.cc` selects.
    pub fn new(cfg: &SolarConfig) -> Self {
        let cold: Box<[PathCold]> = (0..cfg.n_paths)
            .map(|_| PathCold {
                rttvar_ns: 0.0,
                rto: RTO_INITIAL,
                consecutive_timeouts: 0,
                cc: AnyCc::new(cfg.cc, cfg.line_rate, SWIFT_TARGET),
                next_seq: 0,
                probes_unanswered: 0,
                remap_generation: 0,
                epoch: 0,
            })
            .collect();
        let hot = cold
            .iter()
            .map(|c| PathHot {
                srtt_ns: f64::NAN,
                window: c.cc.window() as u64,
                inflight: 0,
                next_probe_ns: NO_PROBE,
                up: true,
            })
            .collect();
        PathSet {
            hot,
            probe_min_ns: NO_PROBE,
            cold,
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// The UDP source port path `i` currently uses. Remapping bumps the
    /// port by `n_paths` so the flow hashes onto a different ECMP bucket
    /// while the path id on the wire stays stable.
    pub fn src_port(&self, i: usize) -> u16 {
        let remap = self.cold[i].remap_generation;
        BASE_PORT + i as u16 + remap.wrapping_mul(self.len() as u16)
    }

    /// Current route epoch of path `i`: bumped on every remap or revival
    /// so stale-route timeouts can be told apart from current-route ones.
    /// Recorded per packet at transmit time; [`PathSet::on_timeout`]
    /// ignores stale-epoch timeouts.
    pub fn epoch(&self, i: usize) -> u32 {
        self.cold[i].epoch
    }

    /// True if path `i` may carry new packets.
    pub fn is_up(&self, i: usize) -> bool {
        self.hot[i].up
    }

    /// Smoothed RTT estimate (used to prefer fast paths when spraying).
    pub fn srtt(&self, i: usize) -> Option<SimDuration> {
        let ns = self.hot[i].srtt_ns;
        (!ns.is_nan()).then(|| SimDuration::from_nanos(ns as u64))
    }

    /// Current retransmission timeout of path `i`.
    pub fn rto(&self, i: usize) -> SimDuration {
        self.cold[i].rto
    }

    /// Congestion window of path `i` in bytes.
    pub fn window(&self, i: usize) -> u64 {
        self.hot[i].window
    }

    /// Unacked bytes currently attributed to path `i`.
    pub fn inflight_bytes(&self, i: usize) -> u64 {
        self.hot[i].inflight
    }

    /// Allocate the next per-path sequence number and account the bytes.
    pub fn register_tx(&mut self, i: usize, bytes: u64) -> u32 {
        let c = &mut self.cold[i];
        let seq = c.next_seq;
        c.next_seq = c.next_seq.wrapping_add(1);
        self.hot[i].inflight += bytes;
        seq
    }

    /// Return a packet's bytes to path `i` (acked, lost, or its RPC
    /// failed).
    pub fn release(&mut self, i: usize, bytes: u64) {
        let h = &mut self.hot[i];
        h.inflight = h.inflight.saturating_sub(bytes);
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
    ) {
        let c = &mut self.cold[i];
        c.consecutive_timeouts = 0;
        // NOTE: a Failed path is NOT revived by stray data ACKs — a lossy
        // path delivers a fraction of packets, and bouncing back on every
        // fluke success would keep feeding it traffic at ever-longer RTOs.
        // Only a clean probe round trip (`revive`) re-admits a path.
        let h = &mut self.hot[i];
        if let Some(rtt) = sample {
            let r = rtt.as_nanos() as f64;
            let prev = h.srtt_ns;
            let srtt = if prev.is_nan() {
                c.rttvar_ns = r / 2.0;
                r
            } else {
                c.rttvar_ns = 0.75 * c.rttvar_ns + 0.25 * (prev - r).abs();
                0.875 * prev + 0.125 * r
            };
            h.srtt_ns = srtt;
            // RTO = srtt + 4*var, but never below 2x srtt: under incast
            // the *level* of RTT moves with queueing while the variance
            // estimator lags, and a timeout fired into genuine congestion
            // starts a flap-and-collapse spiral.
            let rto_ns = (srtt + 4.0 * c.rttvar_ns.max(1000.0)).max(2.0 * srtt);
            c.rto = SimDuration::from_nanos(rto_ns as u64)
                .max(RTO_MIN)
                .min(RTO_MAX);
        }
        c.cc.on_ack(
            now,
            &AckSignal {
                rtt_sample: sample,
                int,
                ecn,
            },
        );
        h.window = c.cc.window() as u64;
    }

    /// Record a timeout on path `i` of a packet sent in epoch
    /// `sent_epoch`; returns `true` if this crossed the failure threshold
    /// and the path was just declared down. A timeout from an older epoch
    /// flew on a route this path no longer uses (it has since remapped
    /// and/or revived): it still backs off the RTO — the *packet* is in
    /// trouble either way — but carries no evidence about the current
    /// route's liveness.
    pub fn on_timeout(&mut self, i: usize, now: SimTime, sent_epoch: u32) -> bool {
        let (c, h) = (&mut self.cold[i], &mut self.hot[i]);
        c.cc.on_timeout();
        h.window = c.cc.window() as u64;
        c.rto = c.rto.mul_f64(2.0).min(RTO_MAX);
        if sent_epoch != c.epoch {
            return false;
        }
        c.consecutive_timeouts += 1;
        if c.consecutive_timeouts >= PATH_FAIL_THRESHOLD && h.up {
            h.up = false;
            let at = (now + PROBE_INTERVAL).as_nanos();
            h.next_probe_ns = at;
            self.probe_min_ns = self.probe_min_ns.min(at);
            return true;
        }
        false
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
        self.hot.iter().position(|h| h.next_probe_ns <= now_ns)
    }

    fn recompute_probe_min(&mut self) {
        let deadlines = self.hot.iter().map(|h| h.next_probe_ns);
        self.probe_min_ns = deadlines.min().unwrap_or(NO_PROBE);
    }

    /// A probe was just sent on path `i`; schedule the next one. After
    /// `REMAP_AFTER_PROBES` unanswered probes the path abandons its ECMP
    /// bucket: the source port moves, so the next probe tries a fresh
    /// fabric route.
    pub fn probe_sent(&mut self, i: usize, now: SimTime) {
        self.hot[i].next_probe_ns = (now + PROBE_INTERVAL).as_nanos();
        let c = &mut self.cold[i];
        c.probes_unanswered += 1;
        if c.probes_unanswered >= REMAP_AFTER_PROBES {
            c.remap_generation = c.remap_generation.wrapping_add(1);
            c.probes_unanswered = 0;
            c.epoch = c.epoch.wrapping_add(1);
        }
        self.recompute_probe_min();
    }

    /// A probe answer arrived: path `i` is healthy again.
    pub fn revive(&mut self, i: usize) {
        let h = &mut self.hot[i];
        h.up = true;
        h.next_probe_ns = NO_PROBE;
        let c = &mut self.cold[i];
        c.consecutive_timeouts = 0;
        c.probes_unanswered = 0;
        c.epoch = c.epoch.wrapping_add(1);
        self.recompute_probe_min();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(n: usize) -> PathSet {
        PathSet::new(&SolarConfig {
            n_paths: n,
            ..SolarConfig::default()
        })
    }

    fn next_probe(p: &PathSet, i: usize) -> Option<SimTime> {
        let at = p.hot[i].next_probe_ns;
        (at != NO_PROBE).then(|| SimTime::from_nanos(at))
    }

    #[test]
    fn tx_accounting() {
        let mut p = paths(1);
        let s0 = p.register_tx(0, 4096);
        let s1 = p.register_tx(0, 4096);
        assert_eq!(s1, s0 + 1);
        assert_eq!(p.inflight_bytes(0), 8192);
        p.release(0, 4096);
        assert_eq!(p.inflight_bytes(0), 4096);
    }

    #[test]
    fn rtt_drives_rto() {
        let mut p = paths(1);
        for _ in 0..16 {
            p.on_ack(
                0,
                SimTime::from_micros(100),
                Some(SimDuration::from_micros(20)),
                None,
                false,
            );
        }
        let rto = p.rto(0);
        // Converged rttvar makes srtt+4*var small; the floor clamps it.
        assert_eq!(rto, RTO_MIN, "rto {rto}");
        assert_eq!(p.srtt(0).unwrap(), SimDuration::from_micros(20));
    }

    #[test]
    fn consecutive_timeouts_fail_path() {
        let mut p = paths(1);
        assert!(!p.on_timeout(0, SimTime::from_micros(1), p.epoch(0)));
        assert!(!p.on_timeout(0, SimTime::from_micros(2), p.epoch(0)));
        assert!(
            p.on_timeout(0, SimTime::from_micros(3), p.epoch(0)),
            "third timeout fails path"
        );
        assert!(!p.is_up(0));
        // Further timeouts do not re-fail.
        assert!(!p.on_timeout(0, SimTime::from_micros(4), p.epoch(0)));
    }

    #[test]
    fn ack_resets_timeout_streak() {
        let mut p = paths(1);
        p.on_timeout(0, SimTime::from_micros(1), p.epoch(0));
        p.on_timeout(0, SimTime::from_micros(2), p.epoch(0));
        p.on_ack(0, SimTime::from_micros(3), None, None, false);
        assert_eq!(p.cold[0].consecutive_timeouts, 0);
        assert!(!p.on_timeout(0, SimTime::from_micros(4), p.epoch(0)));
        assert!(p.is_up(0));
    }

    #[test]
    fn probe_cycle() {
        let mut p = paths(1);
        for i in 0..3 {
            p.on_timeout(0, SimTime::from_micros(i), p.epoch(0));
        }
        let probe_at = next_probe(&p, 0).expect("failed paths probe");
        assert!(probe_at > SimTime::from_micros(2));
        assert_eq!(p.min_next_probe(), Some(probe_at));
        assert_eq!(p.first_due_probe(probe_at), Some(0));
        assert_eq!(p.first_due_probe(SimTime::from_micros(3)), None);
        p.probe_sent(0, probe_at);
        assert!(next_probe(&p, 0).unwrap() > probe_at);
        p.revive(0);
        assert!(p.is_up(0));
        assert!(next_probe(&p, 0).is_none());
        assert!(p.min_next_probe().is_none());
    }

    #[test]
    fn timeout_backs_off_rto() {
        let mut p = paths(1);
        let r0 = p.rto(0);
        p.on_timeout(0, SimTime::from_micros(1), p.epoch(0));
        assert_eq!(p.rto(0), r0.mul_f64(2.0));
    }

    #[test]
    fn probe_min_tracks_multiple_paths() {
        let mut p = paths(3);
        // Fail paths 2 then 1 at different instants.
        for t in [1, 2, 3] {
            p.on_timeout(2, SimTime::from_micros(t), p.epoch(2));
        }
        for t in [10, 11, 12] {
            p.on_timeout(1, SimTime::from_micros(t), p.epoch(1));
        }
        let p2 = next_probe(&p, 2).unwrap();
        assert_eq!(
            p.min_next_probe(),
            Some(p2),
            "earliest failure probes first"
        );
        // Index order, not deadline order, picks among due probes.
        let late = next_probe(&p, 1).unwrap();
        assert_eq!(p.first_due_probe(late), Some(1));
        p.revive(2);
        assert_eq!(p.min_next_probe(), Some(late));
        p.revive(1);
        assert_eq!(p.min_next_probe(), None);
    }
}
