//! # ebs-dpu — the ALI-DPU hardware model
//!
//! Everything the bare-metal transition (§4.1-4.3) adds to the picture:
//!
//! * [`Pipeline`] and its stages — the FPGA match-action pipeline that
//!   SOLAR offloads the SA data path into (QoS / Block / Addr tables, CRC,
//!   SEC, with a P4 rendering per §4.6);
//! * [`DpuPcie`] / [`DataPath`] — the internal-interconnect bottleneck of
//!   Fig. 10: LUNA and RDMA cross it twice per block, SOLAR bypasses it;
//! * [`DpuCpu`] — the six-core infrastructure CPU that everything
//!   software-side contends for;
//! * [`BitFlipInjector`] / [`CorruptionCause`] — FPGA fault injection
//!   behind Fig. 11;
//! * [`resources`] — the LUT/BRAM estimator behind Table 3;
//! * [`PushdownStage`] — storage-function pushdown as a metered pipeline
//!   stage (cycles + PCIe bytes saved), kept out of the Table 3 totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod pcie;
pub mod pipeline;
pub mod pushdown;
pub mod resources;

pub use faults::{BitFlipInjector, CorruptionCause};
pub use pcie::{DataPath, DpuPcie, PcieConfig, Traversals};
pub use pipeline::{
    AddrStage, BlockStage, CrcStage, PacketCtx, Pipeline, QosStage, SecStage, Stage, StageVerdict,
};
pub use pushdown::{pushdown_estimate, PushdownCosts, PushdownStage};

use ebs_sim::{FifoResource, SimDuration, SimTime};

/// The DPU's infrastructure CPU: a small fixed pool of cores (ALI-DPU has
/// six, §4.2) shared by every hypervisor function that still runs in
/// software. Jobs are FIFO; saturation shows up as queueing delay — the
/// long SA tail SOLAR still exhibits under intensive I/O (§4.7).
#[derive(Debug)]
pub struct DpuCpu {
    cores: FifoResource,
}

impl DpuCpu {
    /// A CPU with `cores` cores.
    pub fn new(cores: usize) -> Self {
        DpuCpu {
            cores: FifoResource::new(cores),
        }
    }

    /// Run a job of `work` CPU time submitted at `now`; returns completion.
    pub fn run(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        self.cores.admit(now, work)
    }

    /// Queueing delay a job submitted now would see.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.cores.backlog(now)
    }

    /// Equivalent fully-busy cores since the last reset (Table 1's
    /// "consumed cores" metric).
    pub fn consumed_cores(&self, now: SimTime) -> f64 {
        self.cores.consumed_servers(now)
    }

    /// Core-utilization fraction.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.cores.utilization(now)
    }

    /// Jobs admitted since the last reset.
    pub fn jobs(&self) -> u64 {
        self.cores.jobs()
    }

    /// Total CPU time consumed since the last reset.
    pub fn busy_time(&self) -> SimDuration {
        self.cores.busy_time()
    }

    /// Reset accounting (after warm-up).
    pub fn reset_stats(&mut self, now: SimTime) {
        self.cores.reset_stats(now);
    }
}

impl ebs_obs::Sample for DpuCpu {
    /// Component `dpu.cpu`: job throughput plus the saturation signals
    /// (§4.7's long SA tail is backlog on these cores).
    fn sample_into(&self, now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("dpu.cpu", "jobs", self.jobs());
        m.counter_add("dpu.cpu", "busy_ns", self.busy_time().as_nanos());
        m.gauge_set("dpu.cpu", "utilization", self.utilization(now));
        m.gauge_set("dpu.cpu", "consumed_cores", self.consumed_cores(now));
        m.gauge_set("dpu.cpu", "backlog_ns", self.backlog(now).as_nanos() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_queues_when_saturated() {
        let mut cpu = DpuCpu::new(2);
        let now = SimTime::ZERO;
        let work = SimDuration::from_micros(10);
        assert_eq!(cpu.run(now, work), SimTime::from_micros(10));
        assert_eq!(cpu.run(now, work), SimTime::from_micros(10));
        assert_eq!(
            cpu.run(now, work),
            SimTime::from_micros(20),
            "third job queues"
        );
        assert!(cpu.backlog(now) > SimDuration::ZERO);
    }

    #[test]
    fn consumed_cores_metric() {
        let mut cpu = DpuCpu::new(4);
        for _ in 0..4 {
            cpu.run(SimTime::ZERO, SimDuration::from_micros(100));
        }
        let consumed = cpu.consumed_cores(SimTime::from_micros(100));
        assert!((consumed - 4.0).abs() < 1e-9);
    }
}
