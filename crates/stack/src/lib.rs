//! # ebs-stack — the composed end-to-end EBS system
//!
//! Ties every substrate together into runnable deployments: compute
//! servers (guest I/O → QoS → SA → PCIe → transport) and storage servers
//! (block server → BN replication → SSD) on the Clos fabric, under any of
//! the paper's five data-path variants ([`Variant`]). Provides the
//! distributed-trace latency breakdown (Fig. 6), consumed-core accounting
//! (Table 1 / Fig. 14), closed-loop fio drivers, and scheduled failure
//! injection (Table 2 / Fig. 8) that the experiment harness builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
mod compute;
mod conn;
pub mod diag;
mod digest;
mod drivers;
mod net;
mod sharded;
mod storage;
mod testbed;
mod trace;
mod wallclock;

pub use calibrate::{RdmaCosts, SaCosts, SolarCosts};
pub use diag::{HopSpan, IoExplanation};
pub use drivers::FioConfig;
pub use sharded::{
    ReplicationConfig, ShardStats, ShardedTestbed, ShardedTestbedConfig, WorkerStats,
};
pub use testbed::blk::{BlkCounters, BlkMountConfig, BlkTrace};
pub use testbed::{blk, Msg, PhaseCycles, Testbed, TestbedConfig, Variant};
pub use trace::{Breakdown, IoTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_sa::{IoKind, IoRequest};
    use ebs_sim::{SimDuration, SimTime};

    fn one_io(variant: Variant, kind: IoKind, bytes: u32) -> IoTrace {
        let mut tb = Testbed::new(TestbedConfig::small(variant, 2, 3));
        tb.schedule_io(
            SimTime::from_millis(1),
            0,
            IoRequest {
                vd_id: 0,
                kind,
                offset: 0,
                len: bytes,
            },
        );
        tb.run_until(SimTime::from_secs(1));
        let t = tb.traces()[0];
        assert!(
            t.completed.is_some(),
            "{variant:?} {kind:?} io must complete"
        );
        t
    }

    #[test]
    fn solar_write_completes_with_sane_breakdown() {
        let t = one_io(Variant::Solar, IoKind::Write, 4096);
        let lat = t.latency().unwrap().as_micros_f64();
        assert!((15.0..200.0).contains(&lat), "latency {lat}us");
        assert!(t.sa.as_micros_f64() < 10.0, "solar SA tiny: {}", t.sa);
        assert!(t.ssd > SimDuration::ZERO);
        assert!(t.bn > SimDuration::ZERO);
        assert!(t.fn_ > SimDuration::ZERO);
    }

    #[test]
    fn luna_write_completes() {
        let t = one_io(Variant::Luna, IoKind::Write, 4096);
        let lat = t.latency().unwrap().as_micros_f64();
        assert!((40.0..400.0).contains(&lat), "latency {lat}us");
        assert!(t.sa.as_micros_f64() >= 20.0, "software SA: {}", t.sa);
    }

    #[test]
    fn kernel_is_slowest_solar_is_fastest() {
        let k = one_io(Variant::Kernel, IoKind::Write, 4096)
            .latency()
            .unwrap();
        let l = one_io(Variant::Luna, IoKind::Write, 4096)
            .latency()
            .unwrap();
        let s = one_io(Variant::Solar, IoKind::Write, 4096)
            .latency()
            .unwrap();
        assert!(k > l, "kernel {k} > luna {l}");
        assert!(l > s, "luna {l} > solar {s}");
    }

    #[test]
    fn reads_complete_on_all_variants() {
        for v in [
            Variant::Kernel,
            Variant::Luna,
            Variant::Rdma,
            Variant::SolarStar,
            Variant::Solar,
        ] {
            let t = one_io(v, IoKind::Read, 16384);
            assert!(t.latency().unwrap() > SimDuration::ZERO, "{v:?}");
            assert!(t.ssd.as_micros_f64() > 30.0, "{v:?} NAND read: {}", t.ssd);
        }
    }

    #[test]
    fn fio_closed_loop_sustains_depth() {
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 1, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 8,
                bytes: 4096,
                read_fraction: 1.0,
            },
        );
        tb.run_until(SimTime::from_millis(80));
        let (ios, bytes) = tb.compute_progress(0);
        assert!(ios > 200, "closed loop kept running: {ios}");
        assert_eq!(bytes, ios * 4096);
        // All but the in-flight depth completed.
        let completed = tb.traces().iter().filter(|t| t.completed.is_some()).count();
        assert!(tb.traces().len() - completed <= 8);
    }

    #[test]
    fn run_until_is_invariant_to_slicing_and_profiling() {
        // One pop path serves every caller: the same horizon reached in
        // one call, in 24 slices (the benchmark's timed segment) or with
        // the profiled loop on is the same simulation.
        let digest = |slices: u64, profiled: bool| {
            let mut tb = Testbed::new(TestbedConfig::small(Variant::Luna, 2, 3));
            if profiled {
                tb.enable_profiling();
            }
            for compute in 0..2 {
                tb.attach_fio(
                    SimTime::from_micros(100),
                    compute,
                    FioConfig {
                        depth: 4,
                        bytes: 65536,
                        read_fraction: 0.3,
                    },
                );
            }
            let end = SimTime::from_millis(12);
            for i in 1..=slices {
                tb.run_until(SimTime::from_nanos(end.as_nanos() * i / slices));
            }
            assert!(tb.compute_progress(0).0 > 50, "the loop ran");
            if profiled {
                let p = tb.phase_cycles().expect("profiling on");
                assert_eq!(p.events, tb.events_processed());
            }
            tb.metrics_digest(end)
        };
        let one_shot = digest(1, false);
        assert_eq!(one_shot, digest(24, false), "24 slices");
        assert_eq!(one_shot, digest(1, true), "profiled");
        assert_eq!(one_shot, digest(24, true), "profiled, 24 slices");
    }

    #[test]
    fn multi_segment_io_splits_and_completes() {
        // An I/O spanning a segment boundary produces two sub-RPCs to two
        // different storage servers, and still completes exactly once.
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 1, 3));
        let seg_bytes = ebs_sa::SEGMENT_BLOCKS * 4096;
        tb.schedule_io(
            SimTime::from_millis(1),
            0,
            IoRequest {
                vd_id: 0,
                kind: IoKind::Write,
                offset: seg_bytes - 2 * 4096,
                len: 4 * 4096,
            },
        );
        tb.run_until(SimTime::from_secs(1));
        assert_eq!(tb.traces().len(), 1);
        assert!(tb.traces()[0].completed.is_some());
    }

    #[test]
    fn consumed_cores_reflect_load() {
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Kernel, 1, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 16,
                bytes: 16384,
                read_fraction: 0.0,
            },
        );
        tb.run_until(SimTime::from_millis(50));
        let cores = tb.consumed_cores(0);
        assert!(cores > 0.1, "kernel stack burns CPU: {cores}");
    }

    #[test]
    fn journal_breakdown_matches_iotrace_exactly() {
        use ebs_obs::EventKind;
        use std::collections::BTreeMap;

        let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 1, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 4,
                bytes: 4096,
                read_fraction: 0.5,
            },
        );
        tb.run_until(SimTime::from_millis(20));

        // Per-I/O: the journal's component spans must sum to the exact
        // IoTrace fields (same u64 nanosecond arithmetic, by construction).
        let mut sums: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
        for ev in tb.journal().events() {
            if let EventKind::Span { id, dur, .. } = ev.kind {
                *sums.entry(id).or_default().entry(ev.track).or_insert(0) += dur.as_nanos();
            }
        }
        let completed: Vec<(u64, &IoTrace)> = tb
            .traces()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.completed.is_some())
            .map(|(i, t)| (i as u64, t))
            .collect();
        assert!(completed.len() > 20, "need a real sample");
        for (id, t) in &completed {
            let s = sums.get(id).expect("journal has this io");
            let get = |track: &str| s.get(track).copied().unwrap_or(0);
            assert_eq!(get("sa"), t.sa.as_nanos(), "sa split, io {id}");
            assert_eq!(get("fn"), t.fn_.as_nanos(), "fn split, io {id}");
            assert_eq!(get("bn"), t.bn.as_nanos(), "bn split, io {id}");
            assert_eq!(get("ssd"), t.ssd.as_nanos(), "ssd split, io {id}");
            assert_eq!(
                get("io"),
                t.latency().expect("completed").as_nanos(),
                "total, io {id}"
            );
        }
    }

    #[test]
    fn explain_slowest_matches_trace() {
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Luna, 1, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 2,
                bytes: 16384,
                read_fraction: 0.0,
            },
        );
        tb.run_until(SimTime::from_millis(10));
        let e = tb.explain_slowest_io().expect("completed I/Os exist");
        let slowest = tb
            .traces()
            .iter()
            .filter(|t| t.completed.is_some())
            .max_by_key(|t| t.latency().expect("completed"))
            .expect("completed");
        assert_eq!(e.total, slowest.latency().expect("completed"));
        assert_eq!(e.kind, slowest.kind);
        assert_eq!(e.bytes, u64::from(slowest.bytes));
        // The hop slices reproduce the trace's component attribution.
        let sum_of = |track: &str| {
            e.hops
                .iter()
                .filter(|h| h.component == track)
                .fold(SimDuration::ZERO, |acc, h| acc + h.dur)
        };
        assert_eq!(sum_of("sa"), slowest.sa);
        assert_eq!(sum_of("fn"), slowest.fn_);
        assert_eq!(sum_of("bn"), slowest.bn);
        assert_eq!(sum_of("ssd"), slowest.ssd);
        assert!(e.render().contains("slowest io"));
    }

    #[test]
    fn sample_obs_populates_every_layer() {
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 1, 3));
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 4,
                bytes: 4096,
                read_fraction: 0.5,
            },
        );
        tb.run_until(SimTime::from_millis(20));
        tb.sample_obs();
        let m = tb.metrics();
        assert!(m.counter("net", "delivered") > 0);
        assert!(m.counter("solar", "rpcs_completed") > 0);
        assert!(m.counter("sa.qos", "admitted_ios") > 0);
        assert!(m.counter("dpu.cpu", "jobs") > 0);
        // SOLAR's whole point (Fig. 10c): zero internal-PCIe crossings.
        assert_eq!(m.counter("dpu.pcie", "internal_bytes"), 0);
        assert!(m.gauge("dpu.pcie", "internal_utilization").is_some());
        assert!(m.counter("storage", "reads") + m.counter("storage", "writes") > 0);
        assert!(m.counter("sim", "events_scheduled") > 0);
        assert!(m.histogram("solar", "path_srtt_ns").is_some());
        // Sampling twice must not double-count (clear-first convention).
        let delivered = m.counter("net", "delivered");
        tb.sample_obs();
        assert_eq!(tb.metrics().counter("net", "delivered"), delivered);
    }

    #[test]
    fn solar_survives_tor_blackhole_luna_hangs() {
        // The core reliability claim (Table 2): a silent blackhole on the
        // compute-side ToR leaves Luna's single-path connections dead for
        // ≥1s, while Solar's multipath routes around it.
        let hung = |variant: Variant| {
            let mut tb = Testbed::new(TestbedConfig::small(variant, 4, 4));
            for cidx in 0..4 {
                tb.attach_fio(
                    SimTime::from_millis(1),
                    cidx,
                    FioConfig {
                        depth: 1,
                        bytes: 4096,
                        read_fraction: 0.2,
                    },
                );
            }
            // Blackhole half the flows through the first ToR at t=100ms.
            let tor = tb
                .fabric()
                .topology()
                .devices_of_kind(ebs_net::DeviceKind::Tor)[0];
            tb.schedule_failure(
                SimTime::from_millis(100),
                tor,
                ebs_net::FailureMode::Blackhole {
                    fraction: 0.5,
                    salt: 42,
                },
            );
            tb.run_until(SimTime::from_secs(4));
            tb.hung_ios(SimDuration::from_secs(1))
        };
        let luna = hung(Variant::Luna);
        let solar = hung(Variant::Solar);
        assert!(luna > 0, "luna must hang I/Os under a blackhole: {luna}");
        assert_eq!(solar, 0, "solar must not hang any I/O");
    }
}
