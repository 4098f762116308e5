//! Pushdown placement matrix (`BENCH_BLK.json`).
//!
//! The experiment the blk frontend exists for: the same storage-function
//! workload — filtered range scans, checksum-verifies, compaction merges
//! — executed at each of the three placements behind
//! [`ebs_wire::PushdownPlacement`] (client baseline, storage-node CPU,
//! DPU match-action stage) on the same SOLAR testbed. Per cell the
//! matrix reports:
//!
//! * **p99 request latency (µs)** over all completed blk requests,
//! * **data moved (MiB)** — block payload bytes crossing the
//!   compute↔storage boundary (the frontend's `data_bytes` counter; the
//!   headline pushdown claim is this column shrinking for remote
//!   placements),
//! * **result blocks** — blocks the client actually received, identical
//!   across placements (the frontend CRC-verifies remote results against
//!   the reference execution, so this is an exactness check, not a
//!   summary),
//! * **DPU cycles** — the metered match-action budget (zero for the
//!   other placements).
//!
//! Each cell is an independent deterministic simulation with the same
//! seed, so every placement sees an identical request stream.

use ebs_sim::{SimDuration, SimTime};
use ebs_stack::blk::{BlkReq, Predicate, StorageFn};
use ebs_stack::{BlkMountConfig, Testbed, TestbedConfig, Variant};
use ebs_stats::{f1, TextTable};
use ebs_wire::PushdownPlacement;

use crate::output::ExperimentOutput;
use crate::{tail, ExperimentReport, RunReport};

/// The placements compared, in table order.
pub const PLACEMENTS: [PushdownPlacement; 3] = [
    PushdownPlacement::Client,
    PushdownPlacement::StorageNode,
    PushdownPlacement::Dpu,
];

/// One cell's measurements.
#[derive(Debug, Clone, Copy)]
pub struct BlkCell {
    /// p99 blk-request latency, microseconds.
    pub p99_us: f64,
    /// Block payload bytes moved compute↔storage, MiB.
    pub data_mib: f64,
    /// Result blocks delivered to the client across all requests.
    pub blocks_out: u64,
    /// DPU match-action cycles metered (zero off the DPU placement).
    pub dpu_cycles: u64,
    /// Requests completed (must equal requests accepted).
    pub completed: u64,
    /// Pushdown parts retransmitted (zero on a healthy fabric).
    pub retransmits: u64,
}

const N_COMPUTE: usize = 4;
const N_STORAGE: usize = 4;

/// The workloads swept, in table order: a ~1/16-selective scan, a
/// checksum-verify (no data returned at all when pushed down), and an
/// 8:1 compaction merge.
pub fn functions() -> [(&'static str, StorageFn); 3] {
    [
        (
            "scan",
            StorageFn::scan(Predicate {
                offset: 0,
                mask: 0x0F,
                value: 0x07,
            }),
        ),
        ("verify", StorageFn::checksum_verify()),
        ("merge8", StorageFn::merge(8)),
    ]
}

/// Run one (placement, function) cell: `requests` pushdown requests of
/// `blocks` blocks each, strided across segments so consecutive requests
/// land on different block servers and some ranges split into
/// multi-part responses.
pub fn blk_cell(
    placement: PushdownPlacement,
    func: StorageFn,
    requests: u32,
    blocks: u32,
) -> BlkCell {
    let mut cfg = TestbedConfig::small(Variant::Solar, N_COMPUTE, N_STORAGE);
    cfg.seed = 57;
    let mut tb = Testbed::new(cfg);
    tb.blk_mount(0, BlkMountConfig::with_placement(placement))
        .expect("the default feature set always negotiates");

    let start = SimTime::from_millis(1);
    let gap = SimDuration::from_micros(100);
    let window = 8 * ebs_sa::SEGMENT_BLOCKS;
    let stride = ebs_sa::SEGMENT_BLOCKS / 2 + u64::from(blocks);
    for i in 0..requests {
        let first = (u64::from(i) * stride) % window;
        tb.schedule_blk(
            start + gap * u64::from(i),
            0,
            (i % 2) as usize,
            BlkReq::pushdown(0, first, blocks, func),
        );
    }
    tb.run_until(start + gap * u64::from(requests) + SimDuration::from_millis(500));

    let c = tb.blk_counters();
    let mut lats: Vec<f64> = tb
        .blk_traces()
        .iter()
        .filter_map(|t| t.completed.map(|done| (done - t.submitted).as_micros_f64()))
        .collect();
    lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p99 = tail(&lats, 0.99).unwrap_or(f64::NAN);
    let blocks_out: u64 = tb
        .blk_traces()
        .iter()
        .map(|t| u64::from(t.blocks_out))
        .sum();
    let (_, cycles, _) = tb.blk_dpu_stats();
    BlkCell {
        p99_us: p99,
        data_mib: c.data_bytes as f64 / (1024.0 * 1024.0),
        blocks_out,
        dpu_cycles: cycles,
        completed: c.completed,
        retransmits: c.retransmits,
    }
}

/// The full matrix: 3 placements × 3 storage functions, each cell an
/// independent deterministic simulation on a scoped thread.
pub fn blk_matrix(quick: bool) -> ExperimentReport {
    let (requests, blocks) = if quick { (24, 128) } else { (96, 256) };
    let funcs = functions();
    let cells: Vec<(&'static str, PushdownPlacement, BlkCell)> = std::thread::scope(|s| {
        let handles: Vec<_> = funcs
            .iter()
            .flat_map(|&(name, func)| {
                PLACEMENTS.into_iter().map(move |placement| {
                    (
                        name,
                        placement,
                        s.spawn(move || blk_cell(placement, func, requests, blocks)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|(name, p, h)| (name, p, h.join().expect("blk cell panicked")))
            .collect()
    });

    let mut tables = Vec::new();
    let mut metrics = Vec::new();
    for &(fname, _) in &funcs {
        let mut table = TextTable::new([
            "placement",
            "p99 (us)",
            "data moved (MiB)",
            "result blocks",
            "dpu cycles",
        ]);
        for placement in PLACEMENTS {
            let &(_, _, cell) = cells
                .iter()
                .find(|&&(n, p, _)| n == fname && p == placement)
                .expect("all cells computed");
            table.row([
                placement.label().to_string(),
                f1(cell.p99_us),
                format!("{:.2}", cell.data_mib),
                cell.blocks_out.to_string(),
                cell.dpu_cycles.to_string(),
            ]);
            let k = format!("{}_{}", placement.label(), fname);
            metrics.push((format!("{k}_p99_us"), cell.p99_us));
            metrics.push((format!("{k}_data_mib"), cell.data_mib));
            metrics.push((format!("{k}_blocks_out"), cell.blocks_out as f64));
            metrics.push((format!("{k}_completed"), cell.completed as f64));
        }
        tables.push((fname.to_string(), table));
    }
    ExperimentReport {
        output: ExperimentOutput {
            id: "blk_pushdown_matrix",
            title: "storage-function pushdown: client vs storage-node vs DPU placement".into(),
            tables,
            notes: vec![
                "Same seed per cell across placements, so every placement executes an identical request stream; result blocks match across rows because the frontend CRC-verifies remote results against the reference execution.".into(),
                "'data moved' is the frontend's data_bytes counter (block payload crossing compute<->storage), not fabric frame bytes — see DESIGN.md section 11 for the SOLAR header-only read-response convention.".into(),
            ],
        },
        metrics,
    }
}

/// The whole `BENCH_BLK.json` report.
pub fn run_blk_report(quick: bool) -> RunReport {
    RunReport {
        quick,
        experiments: vec![blk_matrix(quick)],
    }
}
