//! The ALI-DPU's internal interconnect and host PCIe model.
//!
//! §4.2: ALI-DPU predates PCIe 4.0 — its internal PCIe channel is "far
//! less than 100 Gbps" while the Ethernet is 2×25G, so any data path that
//! crosses the internal channel twice (LUNA, RDMA: NIC → DPU memory →
//! NIC, Fig. 10a/b) is throughput-capped at `internal_rate / 2`. SOLAR's
//! FPGA-resident path touches only the *host* PCIe once (DMA to/from
//! guest memory). This module provides both channels as serialized
//! bandwidth resources and the traversal accounting per data-path
//! variant.

use ebs_sim::{Bandwidth, Channel, SimDuration, SimTime};

/// Channel parameters of one DPU.
#[derive(Debug, Clone, Copy)]
pub struct PcieConfig {
    /// The DPU-internal interconnect (NIC ↔ DPU CPU/memory).
    pub internal_rate: Bandwidth,
    /// The host PCIe (DPU ↔ guest memory DMA).
    pub host_rate: Bandwidth,
    /// Per-transfer latency (doorbell + DMA setup).
    pub per_transfer: SimDuration,
}

impl Default for PcieConfig {
    fn default() -> Self {
        PcieConfig {
            // "far less than 100 Gbps": ~64 Gbps effective (PCIe 3.0 x8).
            internal_rate: Bandwidth::from_gbps(64),
            host_rate: Bandwidth::from_gbps(128),
            per_transfer: SimDuration::from_nanos(900),
        }
    }
}

/// How many times each data-path variant crosses each channel per block
/// (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversals {
    /// Crossings of the internal DPU channel.
    pub internal: u32,
    /// Crossings of the host PCIe (guest DMA).
    pub host: u32,
}

/// Data-path variants of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPath {
    /// LUNA: NIC → internal PCIe → DPU CPU (stack + SA) → internal PCIe →
    /// NIC side / host DMA.
    Luna,
    /// RDMA: transport offloaded but data still hairpins through DPU
    /// memory for the SA.
    Rdma,
    /// SOLAR with data-plane offload disabled (SOLAR*): protocol is
    /// one-block-one-packet but blocks still cross to DPU memory.
    SolarStar,
    /// SOLAR: FPGA-resident path; only the host DMA touches PCIe.
    Solar,
}

impl DataPath {
    /// Traversal counts per block.
    pub fn traversals(self) -> Traversals {
        match self {
            DataPath::Luna | DataPath::Rdma | DataPath::SolarStar => Traversals {
                internal: 2,
                host: 1,
            },
            DataPath::Solar => Traversals {
                internal: 0,
                host: 1,
            },
        }
    }
}

/// The two PCIe channels of one DPU.
#[derive(Debug)]
pub struct DpuPcie {
    internal: Channel,
    host: Channel,
    /// Extra latency added to every transfer while a stall condition is
    /// active (credit starvation, a misbehaving peer hogging the bus, a
    /// firmware hiccup). Zero = healthy.
    stall: SimDuration,
}

impl DpuPcie {
    /// Build from config.
    pub fn new(cfg: PcieConfig) -> Self {
        DpuPcie {
            internal: Channel::new(cfg.internal_rate, cfg.per_transfer),
            host: Channel::new(cfg.host_rate, cfg.per_transfer),
            stall: SimDuration::ZERO,
        }
    }

    /// Inject (or with `SimDuration::ZERO`, heal) a PCIe stall: every
    /// subsequent transfer pays `extra` on top of its modeled time.
    pub fn set_stall(&mut self, extra: SimDuration) {
        self.stall = extra;
    }

    /// Current stall penalty per transfer (zero = healthy).
    pub fn stall(&self) -> SimDuration {
        self.stall
    }

    /// Move one block of `bytes` along `path`'s PCIe crossings starting at
    /// `now`; returns when the last crossing completes. Zero-crossing
    /// paths return `now` unchanged.
    pub fn transfer_block(&mut self, now: SimTime, path: DataPath, bytes: usize) -> SimTime {
        let t = path.traversals();
        let mut done = now;
        for _ in 0..t.internal {
            done = self.internal.transfer(done, bytes);
        }
        for _ in 0..t.host {
            done = self.host.transfer(done, bytes);
        }
        if done > now {
            // A stalled bus delays any transfer that actually crossed it.
            done += self.stall;
        }
        done
    }

    /// Bytes moved over the internal channel (bottleneck diagnostics).
    pub fn internal_bytes(&self) -> u64 {
        self.internal.bytes_moved()
    }

    /// Internal-channel utilization over `[reset, now]`.
    pub fn internal_utilization(&self, now: SimTime) -> f64 {
        self.internal.utilization(now)
    }

    /// Reset accounting.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.internal.reset_stats(now);
        self.host.reset_stats(now);
    }
}

impl ebs_obs::Sample for DpuPcie {
    /// Component `dpu.pcie`: the Fig. 10 internal-interconnect bottleneck.
    fn sample_into(&self, now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("dpu.pcie", "internal_bytes", self.internal_bytes());
        m.gauge_set(
            "dpu.pcie",
            "internal_utilization",
            self.internal_utilization(now),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_counts_match_figure_10() {
        assert_eq!(
            DataPath::Luna.traversals(),
            Traversals {
                internal: 2,
                host: 1
            }
        );
        assert_eq!(
            DataPath::Rdma.traversals(),
            Traversals {
                internal: 2,
                host: 1
            }
        );
        assert_eq!(
            DataPath::Solar.traversals(),
            Traversals {
                internal: 0,
                host: 1
            }
        );
    }

    #[test]
    fn solar_skips_internal_channel() {
        let mut pcie = DpuPcie::new(PcieConfig::default());
        pcie.transfer_block(SimTime::ZERO, DataPath::Solar, 4096);
        assert_eq!(pcie.internal_bytes(), 0);
        pcie.transfer_block(SimTime::ZERO, DataPath::Luna, 4096);
        assert_eq!(pcie.internal_bytes(), 2 * 4096);
    }

    #[test]
    fn double_crossing_halves_goodput() {
        let cfg = PcieConfig {
            internal_rate: Bandwidth::from_gbps(64),
            host_rate: Bandwidth::from_gbps(10_000), // not binding here
            per_transfer: SimDuration::ZERO,
        };
        let mut pcie = DpuPcie::new(cfg);
        // Saturate with Luna blocks for a simulated millisecond.
        let mut now = SimTime::ZERO;
        let mut blocks = 0u64;
        while now < SimTime::from_millis(1) {
            now = pcie.transfer_block(now, DataPath::Luna, 4096);
            blocks += 1;
        }
        // bits moved over 1 ms: Gbps = bits / 1e6.
        let gbps = blocks as f64 * 4096.0 * 8.0 / 1e6;
        assert!(
            (gbps - 32.0).abs() < 1.0,
            "expected ~32 Gbps ceiling, got {gbps}"
        );
    }

    #[test]
    fn solar_reaches_line_rate_unhindered() {
        let mut pcie = DpuPcie::new(PcieConfig {
            per_transfer: SimDuration::ZERO,
            ..PcieConfig::default()
        });
        let mut now = SimTime::ZERO;
        let mut blocks = 0u64;
        while now < SimTime::from_millis(1) {
            now = pcie.transfer_block(now, DataPath::Solar, 4096);
            blocks += 1;
        }
        let gbps = blocks as f64 * 4096.0 * 8.0 / 1e9 * 1e3;
        assert!(gbps > 100.0, "host PCIe is plenty: {gbps} Gbps");
    }

    #[test]
    fn stall_adds_latency_until_healed() {
        let mut pcie = DpuPcie::new(PcieConfig::default());
        let healthy = pcie.transfer_block(SimTime::ZERO, DataPath::Solar, 4096);
        pcie.set_stall(SimDuration::from_micros(50));
        let stalled = pcie.transfer_block(healthy, DataPath::Solar, 4096);
        assert!(stalled - healthy >= SimDuration::from_micros(50));
        pcie.set_stall(SimDuration::ZERO);
        let again = pcie.transfer_block(stalled, DataPath::Solar, 4096);
        assert!(again - stalled < SimDuration::from_micros(50));
    }

    #[test]
    fn fixed_latency_applies_per_crossing() {
        let cfg = PcieConfig {
            internal_rate: Bandwidth::from_gbps(1000),
            host_rate: Bandwidth::from_gbps(1000),
            per_transfer: SimDuration::from_micros(1),
        };
        let mut pcie = DpuPcie::new(cfg);
        let done = pcie.transfer_block(SimTime::ZERO, DataPath::Luna, 64);
        // 3 crossings ≈ 3us + tiny serialization.
        assert!(done >= SimTime::from_micros(3));
        assert!(done < SimTime::from_micros(4));
    }
}
