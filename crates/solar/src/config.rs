//! SOLAR transport configuration.

use ebs_cc::{CcAlgo, CcConfig, DcqcnConfig, FixedConfig, SwiftConfig};
use ebs_sim::SimDuration;

pub use ebs_cc::HpccConfig;

/// SOLAR transport configuration.
#[derive(Debug, Clone)]
pub struct SolarConfig {
    /// Persistent paths per (compute, block-server) pair (§4.5 uses 4).
    pub n_paths: usize,
    /// Source UDP port of path 0; path `i` uses `base_port + i`.
    pub base_port: u16,
    /// Storage block size (4096).
    pub block_size: usize,
    /// RTO before any RTT estimate exists on a path.
    pub rto_initial: SimDuration,
    /// RTO floor.
    pub rto_min: SimDuration,
    /// RTO ceiling.
    pub rto_max: SimDuration,
    /// Consecutive timeouts on one path that mark it failed (§4.5 "uses
    /// consecutive timeouts to infer a path failure").
    pub path_fail_threshold: u32,
    /// Probe interval while a path is failed.
    pub probe_interval: SimDuration,
    /// Unanswered probes on a failed path before it is *remapped* to a
    /// fresh UDP source port — i.e. a different ECMP hash. Persistent
    /// paths are cheap to keep, but a silently blackholed bucket must
    /// eventually be abandoned, not just probed.
    pub remap_after_probes: u32,
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
    /// HPCC parameters (also sets the fixed controller's window: the
    /// per-path BDP, matching the pre-trait no-INT behavior).
    pub hpcc: HpccConfig,
    /// Swift parameters (used when `cc == Swift`).
    pub swift: SwiftConfig,
    /// DCQCN parameters (used when `cc == Dcqcn`).
    pub dcqcn: DcqcnConfig,
}

impl Default for SolarConfig {
    fn default() -> Self {
        SolarConfig {
            n_paths: 4,
            base_port: 47000,
            block_size: 4096,
            rto_initial: SimDuration::from_millis(1),
            // The per-packet RTT includes storage service (a WRITE ack
            // returns after 3-replica commit; a READ response after a
            // NAND read), so the floor must clear the storage tail, not
            // just the network's.
            rto_min: SimDuration::from_micros(500),
            // Storage round trips are ~100us; capping backoff at 20ms
            // bounds any packet's worst-case delivery (even a long streak
            // of losses stays well under the 1s hang threshold).
            rto_max: SimDuration::from_millis(20),
            path_fail_threshold: 3,
            probe_interval: SimDuration::from_millis(10),
            remap_after_probes: 2,
            max_pkt_retries: u32::MAX,
            int_enabled: true,
            cc: CcAlgo::Hpcc,
            hpcc: HpccConfig::default(),
            swift: SwiftConfig::default(),
            dcqcn: DcqcnConfig::default(),
        }
    }
}

impl SolarConfig {
    /// The per-path controller parameter bundle `PathSet` builds from.
    /// The fixed arm pins the window at the HPCC BDP so `cc = Fixed`
    /// reproduces the pre-trait `int_enabled = false` behavior exactly.
    pub fn cc_config(&self) -> CcConfig {
        CcConfig {
            algo: self.cc,
            hpcc: self.hpcc,
            swift: self.swift,
            dcqcn: self.dcqcn,
            fixed: FixedConfig {
                window_bytes: self.hpcc.bdp_bytes(),
            },
        }
    }
}
