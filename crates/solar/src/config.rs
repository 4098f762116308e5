//! SOLAR transport configuration.

use ebs_cc::CcAlgo;
use ebs_sim::{Bandwidth, SimDuration};

/// Source UDP port of path 0; path `i` uses `BASE_PORT + i`.
pub(crate) const BASE_PORT: u16 = 47000;
/// RTO before any RTT estimate exists on a path.
pub(crate) const RTO_INITIAL: SimDuration = SimDuration::from_millis(1);
/// RTO floor. The per-packet RTT includes storage service (a WRITE ack
/// returns after 3-replica commit; a READ response after a NAND read),
/// so the floor must clear the storage tail, not just the network's.
pub(crate) const RTO_MIN: SimDuration = SimDuration::from_micros(500);
/// RTO ceiling. Storage round trips are ~100us; capping backoff at 20ms
/// bounds any packet's worst-case delivery (even a long streak of losses
/// stays well under the 1s hang threshold).
pub(crate) const RTO_MAX: SimDuration = SimDuration::from_millis(20);
/// Consecutive timeouts on one path that mark it failed (§4.5 "uses
/// consecutive timeouts to infer a path failure").
pub(crate) const PATH_FAIL_THRESHOLD: u32 = 3;
/// Probe interval while a path is failed.
pub(crate) const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Unanswered probes on a failed path before it is *remapped* to a fresh
/// UDP source port — i.e. a different ECMP hash. Persistent paths are
/// cheap to keep, but a silently blackholed bucket must eventually be
/// abandoned, not just probed.
pub(crate) const REMAP_AFTER_PROBES: u32 = 2;
/// Swift's delay target. Swift's stock 25 µs is a fabric-delay target,
/// but a SOLAR RTT sample also carries SSD and server-stack time, so an
/// end-to-end delay controller needs a target above the unloaded storage
/// RTT or it pins the window at the floor.
pub(crate) const SWIFT_TARGET: SimDuration = SimDuration::from_micros(250);

/// SOLAR transport configuration.
#[derive(Debug, Clone)]
pub struct SolarConfig {
    /// Persistent paths per (compute, block-server) pair (§4.5 uses 4).
    pub n_paths: usize,
    /// Per-packet retransmit budget before the RPC is failed upward.
    /// Production EBS never abandons an I/O (the guest observes a hang,
    /// not an error — §3.3), so the default is effectively unbounded;
    /// tests set small budgets to exercise the failure path.
    pub max_pkt_retries: u32,
    /// Request INT stamping; HPCC needs it, the other controllers ignore
    /// it (Swift reads RTT samples, DCQCN the echoed ECN bit).
    pub int_enabled: bool,
    /// Which per-path congestion controller to run (the paper's choice
    /// is HPCC; the others exist for the CC comparison matrix).
    pub cc: CcAlgo,
    /// Per-path line rate. With `ebs_cc::BASE_RTT` it sets every
    /// controller's starting window and cap; the fixed controller holds
    /// the BDP, matching the pre-trait no-INT behavior.
    pub line_rate: Bandwidth,
}

impl Default for SolarConfig {
    fn default() -> Self {
        SolarConfig {
            n_paths: 4,
            max_pkt_retries: u32::MAX,
            int_enabled: true,
            cc: CcAlgo::Hpcc,
            line_rate: ebs_cc::LINE_RATE,
        }
    }
}
