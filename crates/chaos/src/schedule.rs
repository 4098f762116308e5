//! Seeded fault schedules: the concrete, replayable draw from a
//! [`ChaosConfig`] envelope.
//!
//! A [`Schedule`] is plain data — workload shape plus a time-sorted list
//! of [`FaultEvent`]s — so the shrinker can edit it structurally and the
//! runner can replay it bit-identically. Generation reads the RNG stream
//! `(seed, "chaos-schedule")` in one fixed order; nothing about the
//! testbed is consulted, so a schedule can be generated (and printed)
//! without running anything.

use ebs_cc::CcAlgo;
use ebs_net::FailureMode;
use ebs_sim::{rng, Bandwidth, SimDuration};
use ebs_stack::Variant;
use rand::Rng;

use crate::config::{BlkChaosConfig, ChaosConfig, IncastConfig};

/// Fabric tier a net-level fault lands on. Server devices are never
/// targeted directly — the paper's Table 2 failure model is switch-level
/// (ToR pair / spine), and killing a server's only NIC tests the fabric,
/// not the stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceTier {
    /// Top-of-rack switch (modeled as the dual-homed pair's member).
    Tor,
    /// Pod spine (aggregation) switch.
    Spine,
}

impl DeviceTier {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceTier::Tor => "tor",
            DeviceTier::Spine => "spine",
        }
    }
}

/// What one injected fault does. Its timing lives on [`FaultEvent`]:
/// generated schedules always heal (zero-violation runs are the
/// expected outcome; the oracles then certify the recovery).
/// `docs/FAILURES.md` catalogues the underlying injectors.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A fabric failure at one switch: `mode` is what the device does
    /// (fail-stop, silent blackhole, random loss). A `reboot` is an
    /// announced fail-stop: link-down is detected fast, so routing
    /// converges in 50 ms rather than at the fabric's default pace.
    Fabric {
        /// Device tier.
        tier: DeviceTier,
        /// Index into the tier's device list (mod its length).
        device_index: usize,
        /// The device's failure behaviour until it heals.
        mode: FailureMode,
        /// Announced fail-stop (reboot/upgrade) with fast convergence.
        reboot: bool,
    },
    /// SA QoS throttle on one compute server's virtual disk; heals back
    /// to an unlimited spec.
    QosThrottle {
        /// Compute server index (mod the testbed's compute count).
        compute: usize,
        /// Throttled IOPS budget.
        iops: u64,
        /// Throttled bandwidth budget (megabits per second).
        mbps: u64,
    },
    /// Storage brown-out: the block server's service time stretches by
    /// `factor`, then heals to 1.0.
    StorageSlowdown {
        /// Storage server index (mod the testbed's storage count).
        storage: usize,
        /// Service-time multiplier while degraded (> 1.0).
        factor: f64,
    },
    /// DPU PCIe stall on one compute server: every transfer pays `extra`,
    /// then heals to zero.
    PcieStall {
        /// Compute server index (mod the testbed's compute count).
        compute: usize,
        /// Extra latency per PCIe transfer while stalled.
        extra: SimDuration,
    },
    /// FPGA bit-flip campaign (§4.7): `blocks` blocks flow through the
    /// CRC pipeline with a flip injector at `rate`; the corruption oracle
    /// requires the segment-aggregation check to flag every corrupted
    /// segment. Runs as a side campaign (it perturbs data, not timing).
    BitFlip {
        /// Per-block flip probability.
        rate: f64,
        /// Blocks pushed through the pipeline.
        blocks: usize,
    },
}

impl FaultKind {
    /// Short class label (stable; used in JSON and logs).
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::Fabric { reboot: true, .. } => "reboot",
            FaultKind::Fabric { mode, .. } => match mode {
                FailureMode::FailStop => "fail_stop",
                FailureMode::Blackhole { .. } => "blackhole",
                FailureMode::RandomLoss { .. } => "random_loss",
            },
            FaultKind::QosThrottle { .. } => "qos_throttle",
            FaultKind::StorageSlowdown { .. } => "storage_slowdown",
            FaultKind::PcieStall { .. } => "pcie_stall",
            FaultKind::BitFlip { .. } => "bit_flip",
        }
    }
}

/// One timed fault in a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Injection instant, as an offset from simulation start.
    pub at: SimDuration,
    /// Injection-to-heal duration (zero for the instantaneous bit-flip
    /// campaign).
    pub heal_after: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// A concrete, replayable chaos run: workload shape + fault timeline.
/// Equal seeds (under equal configs) generate byte-identical schedules —
/// compare [`Schedule::to_json`] outputs to prove it.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The generating seed (also the testbed seed).
    pub seed: u64,
    /// Data-path variant under test.
    pub variant: Variant,
    /// Compute servers.
    pub n_compute: usize,
    /// Storage servers.
    pub n_storage: usize,
    /// fio queue depth per compute server.
    pub fio_depth: usize,
    /// I/O size in bytes.
    pub io_bytes: u32,
    /// Read fraction of the workload.
    pub read_fraction: f64,
    /// Workload window (fio detaches at this instant).
    pub horizon: SimDuration,
    /// Recovery deadline per I/O, measured from `max(submission, last
    /// heal)`.
    pub recovery_deadline: SimDuration,
    /// Extra drain time before quiescence is asserted.
    pub quiesce_grace: SimDuration,
    /// Event-queue bound at quiescence.
    pub max_idle_queue: usize,
    /// SOLAR congestion-control algorithm (config-copied, never
    /// sampled — existing seeds replay unchanged).
    pub cc: CcAlgo,
    /// RED/ECN marking at switch egress queues.
    pub ecn: bool,
    /// Adversarial incast/microburst envelope, when armed.
    pub incast: Option<IncastConfig>,
    /// Virtio-blk pushdown envelope, when armed (config-copied, never
    /// sampled — existing seeds replay unchanged).
    pub blk: Option<BlkChaosConfig>,
    /// The fault timeline, sorted by injection instant.
    pub faults: Vec<FaultEvent>,
}

impl Schedule {
    /// Draw the schedule for `seed` from `cfg`. Pure: consumes only the
    /// RNG stream `(seed, "chaos-schedule")`, in a fixed order.
    pub fn generate(seed: u64, cfg: &ChaosConfig) -> Schedule {
        let mut r = rng::stream(seed, "chaos-schedule");
        let fio_depth = r.gen_range(1..=cfg.max_fio_depth.max(1));
        let io_bytes = if cfg.io_bytes_choices.is_empty() {
            4096
        } else {
            cfg.io_bytes_choices[r.gen_range(0..cfg.io_bytes_choices.len())]
        };
        let read_fraction = f64::from(r.gen_range(0..=4u32)) * 0.25;
        let n_faults = r.gen_range(cfg.min_faults..=cfg.max_faults.max(cfg.min_faults));
        let mut faults: Vec<FaultEvent> = (0..n_faults)
            .filter_map(|_| sample_fault(&mut r, cfg))
            .collect();
        faults.sort_by_key(|f| f.at);
        Schedule {
            seed,
            variant: cfg.variant,
            n_compute: cfg.n_compute,
            n_storage: cfg.n_storage,
            fio_depth,
            io_bytes,
            read_fraction,
            horizon: cfg.horizon,
            recovery_deadline: cfg.recovery_deadline,
            quiesce_grace: cfg.quiesce_grace,
            max_idle_queue: cfg.max_idle_queue,
            cc: cfg.cc,
            ecn: cfg.ecn,
            incast: cfg.incast,
            blk: cfg.blk,
            faults,
        }
    }

    /// Instant of the last heal across the timeline (zero with no
    /// healing faults): the recovery-deadline oracle measures from here.
    pub fn last_heal(&self) -> SimDuration {
        self.faults
            .iter()
            .map(|f| f.at + f.heal_after)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// When the run drains and the oracles fire.
    pub fn quiesce_at(&self) -> SimDuration {
        self.horizon.max(self.last_heal()) + self.recovery_deadline + self.quiesce_grace
    }

    /// Canonical JSON rendering (schedules with equal content render
    /// byte-identically; the replay/determinism tests compare these).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"seed\":{},\"variant\":\"{}\",\"n_compute\":{},\"n_storage\":{},\
             \"fio_depth\":{},\"io_bytes\":{},\"read_fraction\":{},\
             \"horizon_ns\":{},\"recovery_deadline_ns\":{},\"quiesce_grace_ns\":{},\
             \"cc\":\"{}\",\"ecn\":{},",
            self.seed,
            self.variant.label(),
            self.n_compute,
            self.n_storage,
            self.fio_depth,
            self.io_bytes,
            self.read_fraction,
            self.horizon.as_nanos(),
            self.recovery_deadline.as_nanos(),
            self.quiesce_grace.as_nanos(),
            self.cc.name(),
            self.ecn,
        );
        if let Some(inc) = &self.incast {
            let _ = write!(
                s,
                "\"incast\":{{\"duration_ns\":{},\"max_queue_bytes\":{}}},",
                inc.duration.as_nanos(),
                inc.max_queue_bytes
            );
        }
        if let Some(b) = &self.blk {
            let _ = write!(
                s,
                "\"blk\":{{\"placement\":\"{}\",\"requests\":{},\"blocks\":{}}},",
                b.placement.label(),
                b.requests,
                b.blocks
            );
        }
        s.push_str("\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"at_ns\":{},\"class\":\"{}\",\"heal_after_ns\":{}",
                f.at.as_nanos(),
                f.kind.class(),
                f.heal_after.as_nanos()
            );
            match &f.kind {
                FaultKind::Fabric {
                    tier,
                    device_index,
                    mode,
                    ..
                } => {
                    let _ = write!(
                        s,
                        ",\"tier\":\"{}\",\"device_index\":{}",
                        tier.label(),
                        device_index
                    );
                    match mode {
                        FailureMode::FailStop => {}
                        FailureMode::Blackhole { fraction, salt } => {
                            let _ = write!(s, ",\"fraction\":{},\"salt\":{}", fraction, salt);
                        }
                        FailureMode::RandomLoss { rate } => {
                            let _ = write!(s, ",\"rate\":{}", rate);
                        }
                    }
                }
                FaultKind::QosThrottle {
                    compute,
                    iops,
                    mbps,
                } => {
                    let _ = write!(
                        s,
                        ",\"compute\":{},\"iops\":{},\"mbps\":{}",
                        compute, iops, mbps
                    );
                }
                FaultKind::StorageSlowdown { storage, factor } => {
                    let _ = write!(s, ",\"storage\":{},\"factor\":{}", storage, factor);
                }
                FaultKind::PcieStall { compute, extra } => {
                    let _ = write!(
                        s,
                        ",\"compute\":{},\"extra_ns\":{}",
                        compute,
                        extra.as_nanos()
                    );
                }
                FaultKind::BitFlip { rate, blocks } => {
                    let _ = write!(s, ",\"rate\":{},\"blocks\":{}", rate, blocks);
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// The QoS spec a [`FaultKind::QosThrottle`] installs.
pub(crate) fn throttle_spec(iops: u64, mbps: u64) -> ebs_sa::QosSpec {
    ebs_sa::QosSpec {
        iops,
        bandwidth: Bandwidth::from_mbps(mbps),
        burst_secs: 0.1,
    }
}

fn sample_duration(r: &mut rand::rngs::SmallRng, lo: SimDuration, hi: SimDuration) -> SimDuration {
    let lo_ns = lo.as_nanos();
    let hi_ns = hi.as_nanos().max(lo_ns + 1);
    SimDuration::from_nanos(r.gen_range(lo_ns..hi_ns))
}

fn sample_fault(r: &mut rand::rngs::SmallRng, cfg: &ChaosConfig) -> Option<FaultEvent> {
    let total = cfg.weights.total();
    if total == 0 {
        return None;
    }
    let at = sample_duration(r, cfg.fault_start, cfg.fault_end);
    let heal = sample_duration(r, cfg.min_fault_duration, cfg.max_fault_duration);
    let tier = if r.gen::<bool>() {
        DeviceTier::Tor
    } else {
        DeviceTier::Spine
    };
    let device_index = r.gen_range(0..64);
    let pick = r.gen_range(0..total);
    let kind = sample_kind(r, cfg, pick, tier, device_index);
    let heal_after = match kind {
        FaultKind::BitFlip { .. } => SimDuration::ZERO,
        _ => heal,
    };
    Some(FaultEvent {
        at,
        heal_after,
        kind,
    })
}

/// Weighted-pick dispatch: walk the cumulative weight vector and sample
/// the chosen class's parameters.
fn sample_kind(
    r: &mut rand::rngs::SmallRng,
    cfg: &ChaosConfig,
    mut pick: u32,
    tier: DeviceTier,
    device_index: usize,
) -> FaultKind {
    let w = cfg.weights;
    let fabric = |mode, reboot| FaultKind::Fabric {
        tier,
        device_index,
        mode,
        reboot,
    };
    if pick < w.fail_stop {
        return fabric(FailureMode::FailStop, false);
    }
    pick -= w.fail_stop;
    if pick < w.reboot {
        return fabric(FailureMode::FailStop, true);
    }
    pick -= w.reboot;
    if pick < w.blackhole {
        let fraction = [0.25, 0.5, 1.0][r.gen_range(0..3)];
        let salt = r.gen::<u64>();
        return fabric(FailureMode::Blackhole { fraction, salt }, false);
    }
    pick -= w.blackhole;
    if pick < w.random_loss {
        let rate = 0.01 + r.gen::<f64>() * 0.24;
        return fabric(FailureMode::RandomLoss { rate }, false);
    }
    pick -= w.random_loss;
    if pick < w.qos_throttle {
        return FaultKind::QosThrottle {
            compute: r.gen_range(0..cfg.n_compute.max(1)),
            iops: r.gen_range(500..4000),
            mbps: r.gen_range(400..3200),
        };
    }
    pick -= w.qos_throttle;
    if pick < w.storage_slowdown {
        return FaultKind::StorageSlowdown {
            storage: r.gen_range(0..cfg.n_storage.max(1)),
            factor: 2.0 + r.gen::<f64>() * 14.0,
        };
    }
    pick -= w.storage_slowdown;
    if pick < w.pcie_stall {
        return FaultKind::PcieStall {
            compute: r.gen_range(0..cfg.n_compute.max(1)),
            extra: sample_duration(
                r,
                SimDuration::from_micros(20),
                SimDuration::from_micros(500),
            ),
        };
    }
    FaultKind::BitFlip {
        rate: 1e-4 * 10f64.powf(r.gen::<f64>()),
        blocks: r.gen_range(256..1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultWeights;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig::smoke(Variant::Luna);
        for seed in 0..32 {
            let a = Schedule::generate(seed, &cfg);
            let b = Schedule::generate(seed, &cfg);
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ChaosConfig::smoke(Variant::Solar);
        let a = Schedule::generate(1, &cfg);
        let b = Schedule::generate(2, &cfg);
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn faults_fall_in_the_window_and_heal() {
        let cfg = ChaosConfig::smoke(Variant::Luna);
        for seed in 0..64 {
            let s = Schedule::generate(seed, &cfg);
            assert!(s.faults.len() >= cfg.min_faults);
            assert!(s.faults.len() <= cfg.max_faults);
            for f in &s.faults {
                assert!(f.at >= cfg.fault_start && f.at <= cfg.fault_end);
                if !matches!(f.kind, FaultKind::BitFlip { .. }) {
                    assert!(f.heal_after >= cfg.min_fault_duration);
                    assert!(f.heal_after <= cfg.max_fault_duration);
                }
            }
            assert!(s.quiesce_at() >= s.horizon + s.recovery_deadline);
        }
    }

    #[test]
    fn zero_weights_generate_fault_free_schedules() {
        let mut cfg = ChaosConfig::smoke(Variant::Luna);
        cfg.weights = FaultWeights {
            fail_stop: 0,
            reboot: 0,
            blackhole: 0,
            random_loss: 0,
            qos_throttle: 0,
            storage_slowdown: 0,
            pcie_stall: 0,
            bit_flip: 0,
        };
        let s = Schedule::generate(7, &cfg);
        assert!(s.faults.is_empty());
    }
}
