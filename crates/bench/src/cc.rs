//! Congestion-control comparison matrix (`BENCH_CC.json`).
//!
//! The Fig. 15-style experiment the CC refactor exists for: every
//! algorithm behind the [`ebs_cc::CongestionControl`] trait (HPCC,
//! Swift, DCQCN, fixed-window) runs the same four adversarial traffic
//! patterns from [`ebs_workload::adversarial`] on the same SOLAR
//! testbed, and the matrix reports per cell:
//!
//! * **p99 latency (µs)** over all completed guest I/Os,
//! * **goodput (Gbps)** — completed guest bytes over the measured span,
//! * **max switch-queue occupancy (KiB)** across every fabric egress.
//!
//! RED/ECN marking is enabled for every cell so the DCQCN arm has its
//! signal; the HPCC and Swift arms simply ignore the echo bit, and the
//! marking draws from a dedicated RNG stream so enabling it shifts no
//! other randomness. Each cell is an independent deterministic
//! simulation — same seed per cell across algorithms, so the workload
//! arriving at each controller is identical.

use ebs_cc::CcAlgo;
use ebs_sa::{IoKind, IoRequest};
use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{Testbed, TestbedConfig, Variant};
use ebs_stats::{f1, TextTable};
use ebs_workload::adversarial::{self, AdversarialConfig};

use crate::output::ExperimentOutput;
use crate::{tail, ExperimentReport, RunReport};

/// The algorithms compared, in table order.
pub const ALGOS: [CcAlgo; 4] = [CcAlgo::Hpcc, CcAlgo::Swift, CcAlgo::Dcqcn, CcAlgo::Fixed];

/// One cell's measurements.
#[derive(Debug, Clone, Copy)]
pub struct CcCell {
    /// p99 guest-I/O latency, microseconds.
    pub p99_us: f64,
    /// Completed guest goodput, Gbps.
    pub gbps: f64,
    /// Peak egress-queue occupancy anywhere in the fabric, KiB.
    pub max_queue_kib: f64,
    /// Completed guest I/Os.
    pub completed: u64,
}

const N_COMPUTE: usize = 8;
const N_STORAGE: usize = 8;

/// Build the testbed for one (algorithm, workload) cell.
fn cc_testbed(algo: CcAlgo) -> Testbed {
    let mut cfg = TestbedConfig::small(Variant::Solar, N_COMPUTE, N_STORAGE);
    cfg.seed = 92;
    cfg.ecn.enabled = true;
    cfg.solar.cc = algo;
    Testbed::new(cfg)
}

/// Run one cell: replay the pattern's events, then measure.
pub fn cc_cell(algo: CcAlgo, events: &[ebs_workload::IoEvent], duration_us: u64) -> CcCell {
    let mut tb = cc_testbed(algo);
    let start = SimTime::from_millis(1);
    let mut last = start;
    for e in events {
        let at = start + SimDuration::from_micros(e.at_us);
        last = last.max(at);
        tb.schedule_io(
            at,
            e.compute as usize,
            IoRequest {
                vd_id: e.compute as u64,
                kind: if e.write { IoKind::Write } else { IoKind::Read },
                offset: e.offset,
                len: e.bytes,
            },
        );
    }
    // Generous drain: adversarial queues take a while to clear.
    let horizon = last + SimDuration::from_millis(200);
    tb.run_until(horizon);
    let mut lats: Vec<f64> = tb
        .traces()
        .iter()
        .filter_map(|tr| tr.latency())
        .map(|l| l.as_micros_f64())
        .collect();
    lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p99 = tail(&lats, 0.99).unwrap_or(f64::NAN);
    let completed: u64 = (0..N_COMPUTE).map(|c| tb.compute_progress(c).0).sum();
    let bytes: u64 = tb
        .traces()
        .iter()
        .filter(|tr| tr.latency().is_some())
        .map(|tr| tr.bytes as u64)
        .sum();
    // Goodput over the pattern's active span (submission window plus the
    // time the last I/O actually took), not the padded drain horizon.
    let span_s = (duration_us as f64 / 1e6).max(1e-9);
    let gbps = bytes as f64 * 8.0 / span_s / 1e9;
    CcCell {
        p99_us: p99,
        gbps,
        max_queue_kib: tb.fabric().max_queue_bytes() as f64 / 1024.0,
        completed,
    }
}

/// The full matrix: 4 algorithms × 4 adversarial workloads, each cell an
/// independent simulation run on a scoped thread.
pub fn cc_matrix(quick: bool) -> ExperimentReport {
    let adv = AdversarialConfig {
        n_compute: N_COMPUTE as u32,
        duration_us: if quick { 2_000 } else { 8_000 },
    };
    let suite = adversarial::suite();
    let cells: Vec<(&'static str, CcAlgo, CcCell)> = std::thread::scope(|s| {
        let handles: Vec<_> = suite
            .iter()
            .flat_map(|&(name, gen)| {
                let events = gen(&adv);
                ALGOS.into_iter().map(move |algo| {
                    let events = events.clone();
                    (
                        name,
                        algo,
                        s.spawn(move || cc_cell(algo, &events, adv.duration_us)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|(name, algo, h)| (name, algo, h.join().expect("cc cell panicked")))
            .collect()
    });

    let mut tables = Vec::new();
    let mut metrics = Vec::new();
    for &(wname, _) in &suite {
        let mut table = TextTable::new(["algorithm", "p99 (us)", "goodput (Gbps)", "max q (KiB)"]);
        for algo in ALGOS {
            let &(_, _, cell) = cells
                .iter()
                .find(|&&(n, a, _)| n == wname && a == algo)
                .expect("all cells computed");
            table.row([
                algo.name().to_string(),
                f1(cell.p99_us),
                f1(cell.gbps),
                f1(cell.max_queue_kib),
            ]);
            let k = format!("{}_{}", algo.name(), wname);
            metrics.push((format!("{k}_p99_us"), cell.p99_us));
            metrics.push((format!("{k}_gbps"), cell.gbps));
            metrics.push((format!("{k}_maxq_kib"), cell.max_queue_kib));
            metrics.push((format!("{k}_completed"), cell.completed as f64));
        }
        tables.push((wname.to_string(), table));
    }
    ExperimentReport {
        output: ExperimentOutput {
            id: "cc_matrix",
            title: "congestion control under adversarial load: HPCC vs Swift vs DCQCN vs fixed"
                .into(),
            tables,
            notes: vec![
                "All cells run SOLAR with RED/ECN marking on; same per-cell seed across algorithms so each controller sees an identical arrival pattern.".into(),
            ],
        },
        metrics,
    }
}

/// The whole `BENCH_CC.json` report.
pub fn run_cc_report(quick: bool) -> RunReport {
    RunReport {
        quick,
        experiments: vec![cc_matrix(quick)],
    }
}
