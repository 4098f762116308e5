//! Performance experiments on the composed testbed: Fig. 6 (latency
//! breakdown), Table 1 (RPC latency + cores), Fig. 14 (per-core
//! throughput/IOPS), Fig. 15 (latency under load).

use ebs_sa::{IoKind, IoRequest, BLOCK_SIZE};
use ebs_sim::{Bandwidth, SimDuration, SimTime};
use ebs_stack::{Breakdown, FioConfig, IoTrace, Testbed, TestbedConfig, Variant};
use ebs_stats::{f1, TextTable};
use ebs_storage::{BnConfig, SsdConfig};
use ebs_workload::StackPerf;
use rand::Rng;

use crate::output::ExperimentOutput;
use crate::tail;

/// Measured medians used by downstream experiments (Fig. 7) and the
/// shape tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig6Numbers {
    /// Median 4K write latency per variant (µs): kernel, luna, solar.
    pub write_median_us: [f64; 3],
    /// Median 4K read latency per variant (µs).
    pub read_median_us: [f64; 3],
}

impl Fig6Numbers {
    /// Production-weighted mean latency (writes outnumber reads ~3.5:1,
    /// §2.3) for variant `i`.
    pub fn weighted_us(&self, i: usize) -> f64 {
        0.78 * self.write_median_us[i] + 0.22 * self.read_median_us[i]
    }
}

/// Run `n` open-loop 4 KiB probe I/Os of each kind on a small testbed,
/// alongside a moderate same-server background load (Fig. 6 is measured
/// on *production* servers, which are never idle — the background is what
/// separates production medians from Table 1's unloaded RPC numbers).
fn light_load_run(variant: Variant, n: usize, seed: u64) -> Testbed {
    let mut cfg = TestbedConfig::small(variant, 2, 4);
    cfg.seed = seed;
    let mut tb = Testbed::new(cfg);
    for c in 0..2 {
        tb.attach_fio(
            SimTime::from_micros(100),
            c,
            FioConfig {
                depth: 6,
                bytes: 16 * 1024,
                read_fraction: 0.25,
            },
        );
    }
    let mut rng = ebs_sim::rng::stream(seed, "fig6-arrivals");
    let mut t = SimTime::from_millis(1);
    let vd_blocks = 16 * ebs_sa::SEGMENT_BLOCKS;
    for i in 0..n * 2 {
        let kind = if i % 2 == 0 {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let offset = rng.gen_range(0..vd_blocks - 1) * BLOCK_SIZE as u64;
        tb.schedule_io(
            t,
            i % 2,
            IoRequest {
                vd_id: (i % 2) as u64,
                kind,
                offset,
                len: 4096,
            },
        );
        t += SimDuration::from_micros(rng.gen_range(120..260));
    }
    tb.run_until(t + SimDuration::from_millis(60));
    tb
}

/// Fig. 6: 4K read/write latency breakdown, median and p95, for kernel /
/// Luna / Solar. Returns the output plus the means fig7 consumes.
pub fn fig6(quick: bool) -> (ExperimentOutput, Fig6Numbers) {
    let n = if quick { 300 } else { 1500 };
    let variants = [Variant::Kernel, Variant::Luna, Variant::Solar];
    let mut tables = Vec::new();
    let mut nums = Fig6Numbers::default();

    // One run per variant, reused across all four table views; the three
    // runs are seed-independent, so they execute concurrently.
    let runs: Vec<Testbed> = std::thread::scope(|s| {
        let handles: Vec<_> = variants
            .iter()
            .enumerate()
            .map(|(vi, &v)| s.spawn(move || light_load_run(v, n, 60 + vi as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig6 run panicked"))
            .collect()
    });
    for (kind, label) in [(IoKind::Read, "4KB Read"), (IoKind::Write, "4KB Write")] {
        for (q, qlabel) in [(0.5, "median"), (0.95, "95th percentile")] {
            let mut table = TextTable::new(["stack", "SA", "FN", "BN", "SSD", "total (us)"]);
            for (vi, &variant) in variants.iter().enumerate() {
                let b = Breakdown::collect(runs[vi].traces(), kind, 4096);
                let (sa, fn_, bn, ssd, total) = b.at(q);
                if q == 0.5 {
                    if kind == IoKind::Write {
                        nums.write_median_us[vi] = total;
                    } else {
                        nums.read_median_us[vi] = total;
                    }
                }
                table.row([
                    variant.label().to_string(),
                    f1(sa),
                    f1(fn_),
                    f1(bn),
                    f1(ssd),
                    f1(total),
                ]);
            }
            tables.push((format!("{label} ({qlabel})"), table));
        }
    }
    let out = ExperimentOutput {
        id: "fig6",
        title: "I/O latency breakdown of 4KB size (SA / FN / BN / SSD)".into(),
        tables,
        notes: vec![
            "Kernel: FN dominates. Luna: FN shrinks ~80%, SA becomes the bottleneck (§3.3). Solar: SA collapses, FN halves again.".into(),
            "Run under moderate same-server background load (Fig. 6 is production data, not an idle testbed).".into(),
        ],
    };
    (out, nums)
}

/// Null-storage testbed config: storage answers in ~50 ns so everything
/// measured is FN RPC (Table 1's methodology).
fn rpc_only_config(variant: Variant, server_gbps: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::small(variant, 1, 2);
    cfg.fabric.server_link.rate = Bandwidth::from_gbps(server_gbps);
    // Table 1 predates the bare-metal DPU: no starved internal PCIe in
    // the loop, and the benchmark is the bare RPC path without the SA.
    cfg.pcie.internal_rate = Bandwidth::from_gbps(4000);
    cfg.pcie.host_rate = Bandwidth::from_gbps(4000);
    cfg.sa_enabled = false;
    // Lab RPC benchmarks run deep-buffered (no production shallow-buffer
    // policy): without this, a 192-deep TCP burst tail-drops its way into
    // serial RTOs instead of pipelining at line rate.
    let deep = 8 * 1024 * 1024;
    cfg.fabric.server_link.queue_bytes = deep;
    cfg.fabric.tor_spine.queue_bytes = deep;
    cfg.fabric.spine_core.queue_bytes = deep;
    cfg.fabric.core_router.queue_bytes = deep;
    cfg.ssd = SsdConfig {
        write_cache_us: 0.05,
        write_sigma: 0.01,
        read_nand_us: 0.05,
        read_sigma: 0.01,
        channels: 64,
        per_block_us: 0.0,
    };
    cfg.bn = BnConfig {
        base_latency: SimDuration::from_nanos(20),
        rate: Bandwidth::from_gbps(4000),
        jitter_sigma: 0.01,
    };
    cfg.compute_cores = 16; // report consumed cores, don't clamp them
    cfg
}

/// One traced I/O's RPC latency in µs: end to end minus its own
/// (software) SA stage, the nulled storage contributing ~0. `None` while
/// the I/O is outstanding.
fn rpc_latency_us(tr: &IoTrace) -> Option<f64> {
    tr.latency()
        .map(|lat| lat.saturating_sub(tr.sa).as_micros_f64())
}

/// Table 1: FN RPC latency and consumed cores, kernel vs LUNA, at 2×25GE
/// and 2×100GE, single 4KB RPC and line-rate stress.
pub fn tab1(quick: bool) -> (ExperimentOutput, Vec<(String, f64)>) {
    let mut tables = Vec::new();
    let mut metrics = Vec::new();
    for (nic, gbps) in [("2x25GE", 50u64), ("2x100GE", 200u64)] {
        let mut table = TextTable::new(["load", "stack", "avg RPC latency (us)", "consumed cores"]);
        for variant in [Variant::Kernel, Variant::Luna] {
            // --- single 4KB RPC, unloaded ---
            let mut tb = Testbed::new(rpc_only_config(variant, gbps));
            let mut t = SimTime::from_millis(1);
            let n = if quick { 60 } else { 300 };
            for _ in 0..n {
                tb.schedule_io(
                    t,
                    0,
                    IoRequest {
                        vd_id: 0,
                        kind: IoKind::Write,
                        offset: 0,
                        len: 4096,
                    },
                );
                t += SimDuration::from_millis(1);
            }
            tb.run_until(t + SimDuration::from_millis(50));
            let done: Vec<f64> = tb.traces().iter().filter_map(rpc_latency_us).collect();
            let avg = done.iter().sum::<f64>() / done.len() as f64;
            metrics.push((
                format!(
                    "{}_{}_single_rpc_us",
                    variant.label().to_lowercase(),
                    nic.to_lowercase()
                ),
                avg,
            ));
            table.row([
                "single 4KB RPC".to_string(),
                variant.label().to_string(),
                f1(avg),
                "1".to_string(),
            ]);

            // --- stress to line rate ---
            let mut tb = Testbed::new(rpc_only_config(variant, gbps));
            let depth = if gbps > 100 { 512 } else { 192 };
            tb.attach_fio(
                SimTime::from_millis(1),
                0,
                FioConfig {
                    depth,
                    bytes: 32 * 1024,
                    read_fraction: 0.0,
                },
            );
            let warmup = SimTime::from_millis(20);
            tb.run_until(warmup);
            tb.reset_compute_stats();
            let (_, bytes0) = tb.compute_progress(0);
            let horizon = warmup + SimDuration::from_millis(if quick { 40 } else { 120 });
            tb.run_until(horizon);
            let (_, bytes1) = tb.compute_progress(0);
            let window = tb.now().saturating_since(warmup).as_secs_f64();
            let gbps_done = (bytes1 - bytes0) as f64 * 8.0 / window / 1e9;
            let cores = tb.consumed_cores(0);
            // Mean latency of I/Os completed during the window.
            let lat: Vec<f64> = tb
                .traces()
                .iter()
                .filter(|t| t.completed.is_some_and(|c| c >= warmup))
                .filter_map(|t| t.latency())
                .map(|l| l.as_micros_f64())
                .collect();
            let avg = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
            metrics.push((
                format!(
                    "{}_{}_stress_cores",
                    variant.label().to_lowercase(),
                    nic.to_lowercase()
                ),
                cores.max(1.0),
            ));
            table.row([
                format!("{:.0} Gbps stress ({} deep)", gbps_done, depth),
                variant.label().to_string(),
                f1(avg),
                f1(cores.max(1.0)),
            ]);
        }
        tables.push((format!("Tested using {nic}"), table));
    }
    let output = ExperimentOutput {
        id: "tab1",
        title: "FN RPC latency and CPU used under different load".into(),
        tables,
        notes: vec![
            "Paper: single 4KB RPC 70.1 vs 13.1 us (2x25GE), 43.4 vs 12.4 us (2x100GE); stress cores 4 vs 1 and 12 vs 4.".into(),
            "Storage is nulled (~50ns) so the measurement isolates the FN RPC path.".into(),
        ],
    };
    (output, metrics)
}

/// Fig. 14 results for integration tests.
#[derive(Debug, Clone)]
pub struct Fig14Numbers {
    /// (variant, cores) → 64K read throughput MB/s.
    pub throughput: Vec<(Variant, usize, f64)>,
    /// (variant, cores) → 4K read IOPS.
    pub iops: Vec<(Variant, usize, f64)>,
}

fn fio_rate(variant: Variant, cores: usize, bytes: u32, quick: bool, seed: u64) -> (f64, f64) {
    let mut cfg = TestbedConfig::small(variant, 1, 6);
    cfg.compute_cores = cores;
    cfg.seed = seed;
    let mut tb = Testbed::new(cfg);
    tb.attach_fio(
        SimTime::from_millis(1),
        0,
        FioConfig {
            depth: 32,
            bytes,
            read_fraction: 1.0,
        },
    );
    let warmup = SimTime::from_millis(15);
    tb.run_until(warmup);
    let (ios0, bytes0) = tb.compute_progress(0);
    let horizon = warmup + SimDuration::from_millis(if quick { 30 } else { 100 });
    tb.run_until(horizon);
    let (ios1, bytes1) = tb.compute_progress(0);
    let window = tb.now().saturating_since(warmup).as_secs_f64();
    let mbps = (bytes1 - bytes0) as f64 / window / 1e6;
    let iops = (ios1 - ios0) as f64 / window;
    (mbps, iops)
}

/// Fig. 14: fio read, 32 I/O depth, under 1-3 cores.
///
/// The 24 sweep points (4 variants × 3 core counts × {throughput, IOPS})
/// are independent simulations with per-point seeds; they run on scoped
/// threads and are assembled back in the figure's fixed order.
pub fn fig14(quick: bool) -> (ExperimentOutput, Fig14Numbers) {
    let variants = [
        Variant::Luna,
        Variant::Rdma,
        Variant::SolarStar,
        Variant::Solar,
    ];
    let cores_sweep = [1usize, 2, 3];
    let mut tput = TextTable::new(["stack", "1-core", "2-core", "3-core (MB/s)"]);
    let mut iops_t = TextTable::new(["stack", "1-core", "2-core", "3-core (IOPS)"]);
    let mut numbers = Fig14Numbers {
        throughput: Vec::new(),
        iops: Vec::new(),
    };
    let points: Vec<(Variant, usize, f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = variants
            .iter()
            .flat_map(|&v| cores_sweep.iter().map(move |&c| (v, c)))
            .map(|(v, c)| {
                let mbps = s.spawn(move || fio_rate(v, c, 64 * 1024, quick, 140 + c as u64).0);
                let iops = s.spawn(move || fio_rate(v, c, 4096, quick, 150 + c as u64).1);
                (v, c, mbps, iops)
            })
            .collect();
        handles
            .into_iter()
            .map(|(v, c, mbps, iops)| {
                (
                    v,
                    c,
                    mbps.join().expect("fig14 throughput point panicked"),
                    iops.join().expect("fig14 iops point panicked"),
                )
            })
            .collect()
    });
    for &v in &variants {
        let mut row_t = vec![v.label().to_string()];
        let mut row_i = vec![v.label().to_string()];
        for &c in &cores_sweep {
            let &(_, _, mbps, iops) = points
                .iter()
                .find(|&&(pv, pc, _, _)| pv == v && pc == c)
                .expect("all sweep points computed");
            numbers.throughput.push((v, c, mbps));
            row_t.push(format!("{mbps:.0}"));
            numbers.iops.push((v, c, iops));
            row_i.push(format!("{iops:.0}"));
        }
        tput.row(row_t);
        iops_t.row(row_i);
    }
    let out = ExperimentOutput {
        id: "fig14",
        title: "Fio read test with 32 I/O depth under different numbers of cores".into(),
        tables: vec![
            ("(a) Throughput of 64KB I/O".into(), tput),
            ("(b) IOPS of 4KB I/O".into(), iops_t),
        ],
        notes: vec![
            "Luna/RDMA/Solar* hairpin the DPU's internal PCIe twice -> goodput ceiling ~32 Gbps (4000 MB/s); Solar bypasses it (Fig. 10).".into(),
            "Paper: Solar single-core throughput +78%, IOPS +46% vs Luna; ~150K IOPS/core (§4.8).".into(),
        ],
    };
    (out, numbers)
}

/// Fig. 15 results for integration tests: (variant, heavy?) → (median,
/// p99) µs.
#[derive(Debug, Clone)]
pub struct Fig15Numbers {
    /// Measured points.
    pub points: Vec<(Variant, bool, f64, f64)>,
}

/// One fig15 point: (median, p99) µs of the 4KB-write probe for one
/// variant under light or heavy background load.
fn fig15_point(v: Variant, heavy: bool, quick: bool) -> (f64, f64) {
    let mut cfg = TestbedConfig::small(v, 1, 4);
    cfg.seed = 15;
    let mut tb = Testbed::new(cfg);
    // Heavy load = bulk writes on the *same server* as the probe:
    // they contend for the DPU CPU and the PCIe channels, which is
    // exactly what the offloaded data path isolates the probe from.
    if heavy {
        // Production "heavy" is IOPS-heavy (the 4K-dominated mix
        // of Fig. 5): it stresses the per-I/O CPU path, which is
        // what the offloaded data plane shields the probe from.
        tb.attach_fio(
            SimTime::from_millis(1),
            0,
            FioConfig {
                depth: 96,
                bytes: 4096,
                read_fraction: 0.0,
            },
        );
    }
    // The probe: open-loop single 4KB writes.
    let n = if quick { 200 } else { 800 };
    let mut t = SimTime::from_millis(5);
    let mut rng = ebs_sim::rng::stream(15, "fig15-probe");
    for _ in 0..n {
        let offset = rng.gen_range(0..1000u64) * BLOCK_SIZE as u64;
        tb.schedule_io(
            t,
            0,
            IoRequest {
                vd_id: 0,
                kind: IoKind::Write,
                offset,
                len: 4096,
            },
        );
        t += SimDuration::from_micros(rng.gen_range(300..600));
    }
    tb.run_until(t + SimDuration::from_millis(120));
    let mut lats: Vec<f64> = tb
        .traces()
        .iter()
        .filter(|tr| tr.compute == 0 && tr.bytes == 4096)
        .filter_map(|tr| tr.latency())
        .map(|l| l.as_micros_f64())
        .collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = tail(&lats, 0.5).unwrap_or(f64::NAN);
    let p99 = tail(&lats, 0.99).unwrap_or(f64::NAN);
    (median, p99)
}

/// Fig. 15: single 4KB write latency under light vs heavy background load.
/// The 8 (load, variant) points run concurrently, each with its own
/// deterministic seed and probe RNG stream.
pub fn fig15(quick: bool) -> (ExperimentOutput, Fig15Numbers) {
    let variants = [
        Variant::Luna,
        Variant::Rdma,
        Variant::SolarStar,
        Variant::Solar,
    ];
    let mut tables = Vec::new();
    let mut numbers = Fig15Numbers { points: Vec::new() };
    let points: Vec<(Variant, bool, f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = [false, true]
            .into_iter()
            .flat_map(|heavy| variants.iter().map(move |&v| (v, heavy)))
            .map(|(v, heavy)| (v, heavy, s.spawn(move || fig15_point(v, heavy, quick))))
            .collect();
        handles
            .into_iter()
            .map(|(v, heavy, h)| {
                let (median, p99) = h.join().expect("fig15 point panicked");
                (v, heavy, median, p99)
            })
            .collect()
    });
    for heavy in [false, true] {
        let mut table = TextTable::new(["stack", "median (us)", "99th (us)"]);
        for &v in &variants {
            let &(_, _, median, p99) = points
                .iter()
                .find(|&&(pv, ph, _, _)| pv == v && ph == heavy)
                .expect("all fig15 points computed");
            numbers.points.push((v, heavy, median, p99));
            table.row([v.label().to_string(), f1(median), f1(p99)]);
        }
        tables.push((
            if heavy {
                "(b) Heavy load".to_string()
            } else {
                "(a) Light load".to_string()
            },
            table,
        ));
    }
    let out = ExperimentOutput {
        id: "fig15",
        title: "I/O latency of a single 4KB write under background load".into(),
        tables,
        notes: vec![
            "Paper: Solar close to RDMA at light load; under heavy load Solar's HPCC + offload keep tail latency far below Luna.".into(),
        ],
    };
    (out, numbers)
}

/// Helper: derive the StackPerf inputs for fig7 from fig6 + fig14 runs.
pub fn stack_perfs(fig6: &Fig6Numbers, fig14: &Fig14Numbers) -> (StackPerf, StackPerf, StackPerf) {
    let iops_of = |v: Variant| {
        fig14
            .iops
            .iter()
            .filter(|(vv, c, _)| *vv == v && *c == 3)
            .map(|(_, _, i)| *i)
            .next()
            .unwrap_or(1.0)
    };
    let luna_iops = iops_of(Variant::Luna);
    let solar_iops = iops_of(Variant::Solar);
    (
        StackPerf {
            latency_us: fig6.weighted_us(0),
            iops: luna_iops * 0.4, // kernel-era servers: kernel not in fig14; scaled by stack CPU
        },
        StackPerf {
            latency_us: fig6.weighted_us(1),
            iops: luna_iops,
        },
        StackPerf {
            latency_us: fig6.weighted_us(2),
            iops: solar_iops,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(submitted_us: u64, completed_us: Option<u64>, sa_us: u64) -> IoTrace {
        IoTrace {
            compute: 0,
            kind: IoKind::Write,
            bytes: 4096,
            submitted: SimTime::from_micros(submitted_us),
            completed: completed_us.map(SimTime::from_micros),
            qos_delay: SimDuration::ZERO,
            sa: SimDuration::from_micros(sa_us),
            fn_: SimDuration::ZERO,
            bn: SimDuration::ZERO,
            ssd: SimDuration::ZERO,
        }
    }

    #[test]
    fn rpc_latency_subtracts_each_traces_own_sa() {
        // The outstanding first trace must not shift the second trace's
        // latency onto the first trace's SA time.
        let traces = [
            trace(0, None, 7),
            trace(10, Some(40), 5),
            trace(20, Some(30), 2),
        ];
        let got: Vec<f64> = traces.iter().filter_map(rpc_latency_us).collect();
        assert_eq!(got, vec![25.0, 8.0]);
    }
}
