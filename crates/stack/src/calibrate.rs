//! Calibration constants for the end-to-end models.
//!
//! Every constant is fit to a number the paper reports, cited inline.
//! The hosts read these rather than hard-coding magic values. Each
//! variant has one cost model, so these are constants, not settings;
//! the kernel and LUNA stacks differ and keep `ebs_luna::StackCosts`.

use ebs_sim::SimDuration;

// --- software storage agent --------------------------------------------
// The SA of Fig. 2 running on CPU: the kernel, LUNA and RDMA data paths.

/// Per-I/O *CPU work* gating throughput: table lookups, buffer
/// management, NVMe doorbell handling. Calibrated against Fig. 14's
/// per-core throughput (LUNA 1-core ≈ 2 GB/s at 64 KiB, ≈10^5 IOPS at
/// 4 KiB).
pub const SA_CPU_PER_IO: SimDuration = SimDuration::from_micros_f64(7.0);
/// Per-4KiB-block CPU work: software CRC32 + per-block bookkeeping.
pub const SA_CPU_PER_BLOCK: SimDuration = SimDuration::from_micros_f64(0.8);
/// Per-I/O *latency* through the software SA at light load — larger
/// than the pure CPU work because it includes VM exits, notification
/// and scheduling waits that overlap other I/Os. Fig. 6 shows the
/// software SA at ~30-45 µs median once LUNA removed the network
/// bottleneck (§3.3 "SA is becoming the bottleneck").
pub const SA_LATENCY_PER_IO: SimDuration = SimDuration::from_micros_f64(26.0);

/// Software-SA CPU work for an I/O of `blocks` blocks.
pub fn sa_cpu_for(blocks: usize) -> SimDuration {
    SA_CPU_PER_IO + SA_CPU_PER_BLOCK.saturating_mul(blocks as u64)
}

// --- SOLAR's hardware-era SA ---------------------------------------------

/// FPGA pipeline traversal per packet (QoS+Block+CRC+SEC+PktGen at a few
/// hundred ns — Table 3's modules at line rate).
pub const SOLAR_PIPELINE: SimDuration = SimDuration::from_nanos(350);
/// DPU-CPU control-plane work to issue an RPC: poll the I/O, build
/// headers, pick paths (§4.5's WRITE workflow).
pub const SOLAR_CPU_PER_RPC: SimDuration = SimDuration::from_micros_f64(2.0);
/// Latency-critical completion work: the final data-integrity check
/// (segment CRC aggregation) and the guest doorbell (§4.5). This is the
/// only completion-side CPU the I/O waits for.
pub const SOLAR_CPU_DOORBELL: SimDuration = SimDuration::from_micros_f64(1.2);
/// Post-doorbell Path&CC work per per-packet ACK: window updates,
/// RTT/path bookkeeping. Occupies the DPU CPU (so it gates throughput
/// and, when the cores saturate, delays doorbells — the SA tail of §4.7)
/// but is off the critical path of the I/O it belongs to.
pub const SOLAR_CPU_CC_PER_ACK: SimDuration = SimDuration::from_micros_f64(0.65);
/// Post-doorbell per-RPC CC/cleanup work.
pub const SOLAR_CPU_CC_PER_COMPLETION: SimDuration = SimDuration::from_micros_f64(2.4);
/// SOLAR* — §4.7's ablation with data-plane offloading disabled: the
/// protocol is unchanged but blocks cross the DPU CPU, adding per-block
/// software work (CRC + copies) back.
pub const SOLAR_STAR_EXTRA_PER_BLOCK: SimDuration = SimDuration::from_micros_f64(1.0);

// --- RDMA ------------------------------------------------------------------
// Transport offloaded (verbs post/poll is cheap), SA still in software
// (Fig. 10b). Calibrated to "close to RDMA" latency in Fig. 15a.

/// CPU per verb pair (post_send + completion poll).
pub const RDMA_CPU_PER_RPC: SimDuration = SimDuration::from_micros_f64(0.7);
/// Added latency per crossing (NIC DMA + doorbell), far below a software
/// stack.
pub const RDMA_CROSSING_LATENCY: SimDuration = SimDuration::from_micros_f64(0.9);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solar_core_iops_matches_paper() {
        // §4.8: "SOLAR manages to handle about 150K IOPS per CPU core"
        // (one 4 KiB I/O = one RPC, one ACK, one completion).
        let per_io = (SOLAR_CPU_PER_RPC
            + SOLAR_CPU_DOORBELL
            + SOLAR_CPU_CC_PER_ACK
            + SOLAR_CPU_CC_PER_COMPLETION)
            .as_secs_f64();
        let iops_per_core = 1.0 / per_io;
        assert!(
            (125_000.0..175_000.0).contains(&iops_per_core),
            "{iops_per_core} IOPS/core vs paper ~150K"
        );
    }

    #[test]
    fn software_sa_latency_dominates_solar_sa() {
        // Fig. 6c: SOLAR cuts the SA median by ~95% for 4K writes: the
        // FPGA path's submit latency vs the software SA's.
        let sw = SA_LATENCY_PER_IO.as_micros_f64();
        let hw = SOLAR_PIPELINE.as_micros_f64() + SOLAR_CPU_PER_RPC.as_micros_f64();
        assert!(hw < 0.10 * sw, "hw {hw}us vs sw {sw}us");
    }

    #[test]
    fn single_core_throughput_gain_matches_fig14() {
        // Fig. 14a: SOLAR's single-core 64 KiB throughput ≈ +78% over
        // LUNA; Fig. 14b: single-core 4 KiB IOPS ≈ +46%.
        let luna = ebs_luna::StackCosts::luna();
        let blocks_64k = 16u64;
        let luna_io_cpu =
            (sa_cpu_for(16) + luna.cpu_for_rpc(65536) + luna.cpu_per_rpc).as_secs_f64();
        let solar_io_cpu = (SOLAR_CPU_PER_RPC
            + SOLAR_CPU_DOORBELL
            + SOLAR_CPU_CC_PER_COMPLETION
            + SOLAR_CPU_CC_PER_ACK.saturating_mul(blocks_64k))
        .as_secs_f64();
        let gain = luna_io_cpu / solar_io_cpu; // throughput ∝ 1/cpu
        assert!(
            (1.5..2.1).contains(&gain),
            "64K throughput gain {gain:.2} vs 1.78"
        );

        let luna_4k = (sa_cpu_for(1) + luna.cpu_for_rpc(4096) + luna.cpu_per_rpc).as_secs_f64();
        let solar_4k = (SOLAR_CPU_PER_RPC
            + SOLAR_CPU_DOORBELL
            + SOLAR_CPU_CC_PER_COMPLETION
            + SOLAR_CPU_CC_PER_ACK)
            .as_secs_f64();
        let gain = luna_4k / solar_4k;
        assert!(
            (1.25..1.75).contains(&gain),
            "4K IOPS gain {gain:.2} vs 1.46"
        );
    }
}
