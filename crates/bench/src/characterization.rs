//! The workload-characterization figures: Figs. 3, 4, 5 and the incident
//! scatter of Fig. 8, plus the rollout Fig. 7 (which consumes measured
//! per-stack performance).

use ebs_sa::{split_io, IoKind, IoRequest, SegmentTable, BLOCK_SIZE};
use ebs_stats::{f1, f2, Ecdf, TextTable};
use ebs_workload::{
    evolution, hot_server_iops, incidents, FleetModel, RwMix, SizeMixture, StackPerf, QUARTERS,
};
use rand::Rng;

use crate::output::ExperimentOutput;
use crate::tail;

/// Fig. 3: hourly EBS vs total traffic and I/O rates over a week.
///
/// Returns the rendered figure plus its headline metrics for
/// `BENCH_RESULTS.json` (so the bench gate guards the numbers, not just
/// the wall time).
pub fn fig3() -> (ExperimentOutput, Vec<(String, f64)>) {
    let model = FleetModel::default();
    let traffic = model.traffic(168, 3);
    let rates = model.io_rates(168, 3);

    let mut t1 = TextTable::new([
        "hour",
        "EBS RX (GB)",
        "EBS TX (GB)",
        "All RX (GB)",
        "All TX (GB)",
    ]);
    for s in traffic.iter().step_by(12) {
        t1.row([
            s.hour.to_string(),
            f2(s.ebs_rx),
            f2(s.ebs_tx),
            f2(s.all_rx),
            f2(s.all_tx),
        ]);
    }
    let (mut ebs, mut all, mut txs) = (0.0, 0.0, 0.0);
    for s in &traffic {
        ebs += s.ebs_rx + s.ebs_tx;
        all += s.all_rx + s.all_tx;
        txs += s.ebs_tx / s.all_tx;
    }
    let mut t2 = TextTable::new(["metric", "measured", "paper"]);
    t2.row([
        "EBS share of TX traffic".to_string(),
        f2(txs / 168.0),
        "0.63".into(),
    ]);
    t2.row([
        "EBS share of all traffic".to_string(),
        f2(ebs / all),
        "0.51".into(),
    ]);

    let mut t3 = TextTable::new(["hour", "read kI/O-req/s", "write kI/O-req/s", "w:r"]);
    for s in rates.iter().step_by(12) {
        t3.row([
            s.hour.to_string(),
            f2(s.read_krps),
            f2(s.write_krps),
            f2(s.write_krps / s.read_krps),
        ]);
    }
    let metrics = vec![
        ("ebs_tx_share".to_string(), txs / 168.0),
        ("ebs_total_share".to_string(), ebs / all),
    ];
    let output = ExperimentOutput {
        id: "fig3",
        title: "Hourly traffic & I/O rate per server over a week".into(),
        tables: vec![
            ("(a) EBS traffic over total traffic (12h samples)".into(), t1),
            ("(a) aggregate shares".into(), t2),
            ("(b) EBS I/O request rate (12h samples)".into(), t3),
        ],
        notes: vec![
            "Generative model calibrated to §2.3: EBS = 63% of TX / 51% of total; writes 3-4x reads.".into(),
        ],
    };
    (output, metrics)
}

/// Fig. 4: per-minute IOPS of a hot server over a day.
///
/// Returns the figure plus its headline metric (peak kIOPS).
pub fn fig4() -> (ExperimentOutput, Vec<(String, f64)>) {
    let series = hot_server_iops(4);
    let mut table = TextTable::new(["hour", "mean kIOPS", "min kIOPS", "max kIOPS"]);
    for h in 0..24 {
        let window: Vec<f64> = series[h * 60..(h + 1) * 60]
            .iter()
            .map(|(_, v)| *v / 1e3)
            .collect();
        let mean = window.iter().sum::<f64>() / 60.0;
        let min = window.iter().cloned().fold(f64::MAX, f64::min);
        let max = window.iter().cloned().fold(0.0, f64::max);
        table.row([h.to_string(), f1(mean), f1(min), f1(max)]);
    }
    let peak = series.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    let metrics = vec![("peak_kiops".to_string(), peak / 1e3)];
    let output = ExperimentOutput {
        id: "fig4",
        title: "Average IOPS per minute over a day, highly-loaded server".into(),
        tables: vec![("hourly summary of per-minute samples".into(), table)],
        notes: vec![format!(
            "peak {:.0}K IOPS vs paper 'up to 200K IOPS (or network flows per second)'",
            peak / 1e3
        )],
    };
    (output, metrics)
}

/// Fig. 5: CDFs of I/O and FN RPC sizes.
pub fn fig5() -> (ExperimentOutput, Vec<(String, f64)>) {
    let mixture = SizeMixture::fig5_io();
    let rw = RwMix::production();
    let mut rng = ebs_sim::rng::stream(5, "fig5");

    // Sample guest I/Os, push each through SA splitting to get RPC sizes.
    let mut seg = SegmentTable::new(ebs_sa::SEGMENT_BLOCKS);
    let vd_blocks = 64 * ebs_sa::SEGMENT_BLOCKS;
    seg.provision(1, vd_blocks, |s| (s % 16) as u32);
    let mut io_cdf = Ecdf::new();
    let mut rpc_cdf = Ecdf::new();
    let (mut reads, mut writes) = (Ecdf::new(), Ecdf::new());
    for _ in 0..50_000 {
        let bytes = mixture.sample(&mut rng);
        let blocks = (bytes / BLOCK_SIZE) as u64;
        let offset = rng.gen_range(0..vd_blocks - blocks) * BLOCK_SIZE as u64;
        let kind = if rw.sample_is_write(&mut rng) {
            IoKind::Write
        } else {
            IoKind::Read
        };
        io_cdf.add(bytes as f64 / 1024.0);
        if kind == IoKind::Write {
            writes.add(bytes as f64 / 1024.0);
        } else {
            reads.add(bytes as f64 / 1024.0);
        }
        let req = IoRequest {
            vd_id: 1,
            kind,
            offset,
            len: bytes,
        };
        for sub in split_io(&seg, &req, BLOCK_SIZE).expect("valid") {
            rpc_cdf.add((sub.blocks.len() * BLOCK_SIZE as usize) as f64 / 1024.0);
        }
    }
    let anchors = [1.0, 4.0, 16.0, 64.0, 128.0, 256.0, 1024.0];
    let mut table = TextTable::new(["size (KB)", "I/O read CDF", "I/O write CDF", "RPC CDF"]);
    for a in anchors {
        table.row([
            format!("{a}"),
            f2(reads.fraction_le(a)),
            f2(writes.fraction_le(a)),
            f2(rpc_cdf.fraction_le(a)),
        ]);
    }
    let metrics = vec![
        ("rpc_le_4k_fraction".to_string(), rpc_cdf.fraction_le(4.0)),
        (
            "rpc_le_128k_fraction".to_string(),
            rpc_cdf.fraction_le(128.0),
        ),
    ];
    let output = ExperimentOutput {
        id: "fig5",
        title: "Distribution of I/O and FN RPC sizes".into(),
        tables: vec![("CDF at the paper's anchor sizes".into(), table)],
        notes: vec![
            format!(
                "~{:.0}% of RPCs ≤ 4KB (paper: about 40%); RPC ≤ 128KB fraction {:.2} (paper: all)",
                rpc_cdf.fraction_le(4.0) * 100.0,
                rpc_cdf.fraction_le(128.0)
            ),
            "RPC sizes derive from I/O sizes via real SA splitting over 2MB segments.".into(),
        ],
    };
    (output, metrics)
}

/// Fig. 7: the three-year latency/IOPS evolution, given measured
/// per-stack performance (from fig6/fig14 runs).
pub fn fig7(kernel: StackPerf, luna: StackPerf, solar: StackPerf) -> ExperimentOutput {
    let points = evolution(kernel, luna, solar);
    let mut table = TextTable::new(["quarter", "latency (norm to 19Q1)", "IOPS (norm to 21Q4)"]);
    for p in &points {
        table.row([
            QUARTERS[p.quarter].to_string(),
            f2(p.latency_norm),
            f2(p.iops_norm),
        ]);
    }
    let reduction = (1.0 - points[11].latency_norm) * 100.0;
    let iops_gain = points[11].iops_norm / points[0].iops_norm;
    ExperimentOutput {
        id: "fig7",
        title: "Evolution of normalized average IOPS and latency per server".into(),
        tables: vec![("quarterly".into(), table)],
        notes: vec![format!(
            "latency reduced {reduction:.0}% (paper: 72%); IOPS x{iops_gain:.1} (paper: ~3x / +220%)"
        )],
    }
}

/// Fig. 8: I/O-hang incidents by failure tier over two years.
pub fn fig8() -> (ExperimentOutput, Vec<(String, f64)>) {
    let events = incidents::generate(100, 8);
    let mut scatter = TextTable::new(["tier", "duration (min)", "VMs with I/O hang"]);
    for e in events.iter().step_by(5) {
        scatter.row([
            e.tier.label().to_string(),
            f1(e.duration_min),
            e.vms_hung.to_string(),
        ]);
    }
    let mut summary = TextTable::new([
        "tier",
        "incidents",
        "median duration (min)",
        "median VMs hung",
    ]);
    let mut metrics = Vec::new();
    for (tier, key) in [
        (ebs_workload::FailureTier::Tor, "tor"),
        (ebs_workload::FailureTier::Spine, "spine"),
        (ebs_workload::FailureTier::Core, "core"),
        (ebs_workload::FailureTier::DcRouter, "dc_router"),
    ] {
        let mut durations: Vec<f64> = events
            .iter()
            .filter(|e| e.tier == tier)
            .map(|e| e.duration_min)
            .collect();
        let mut vms: Vec<u64> = events
            .iter()
            .filter(|e| e.tier == tier)
            .map(|e| e.vms_hung)
            .collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vms.sort();
        let median_vms = tail(&vms, 0.5).expect("every tier has failure events");
        summary.row([
            tier.label().to_string(),
            durations.len().to_string(),
            f1(tail(&durations, 0.5).unwrap_or(f64::NAN)),
            median_vms.to_string(),
        ]);
        metrics.push((format!("{key}_median_vms_hung"), median_vms as f64));
    }
    let output = ExperimentOutput {
        id: "fig8",
        title: "I/O hangs caused by ~100 network failures over two years (Luna era)".into(),
        tables: vec![
            ("per-tier summary".into(), summary),
            ("scatter sample (every 5th incident)".into(), scatter),
        ],
        notes: vec![
            "Blast radius grows with tier; hang count is duration-insensitive — the §3.3 motivation for sub-second endpoint rerouting.".into(),
        ],
    };
    (output, metrics)
}
