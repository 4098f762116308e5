//! Ablations of SOLAR's design choices (DESIGN.md §4): how much each
//! mechanism contributes, measured on the same testbed as the paper
//! experiments.

use ebs_net::{DeviceKind, FailureMode};
use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{FioConfig, Testbed, TestbedConfig, Variant};
use ebs_stats::{f1, TextTable};

use crate::output::ExperimentOutput;
use crate::tail;

/// Ablation A: number of persistent paths (1/2/4/8) vs disruption when a
/// ToR silently blackholes a quarter of the ECMP buckets. More paths =
/// more immediately-healthy alternatives = smaller latency spike.
pub fn paths_ablation(quick: bool) -> ExperimentOutput {
    let mut table = TextTable::new([
        "paths",
        "hung >=1s",
        "p99 (us)",
        "worst I/O (us)",
        "retransmits",
    ]);
    for n_paths in [1usize, 2, 4, 8] {
        let mut cfg = TestbedConfig::small(Variant::Solar, 4, 3);
        cfg.solar.n_paths = n_paths;
        cfg.seed = 33;
        let mut tb = Testbed::new(cfg);
        for c in 0..4 {
            tb.attach_fio(
                SimTime::from_millis(1),
                c,
                FioConfig {
                    depth: 2,
                    bytes: 8192,
                    read_fraction: 0.2,
                },
            );
        }
        let tor = tb.fabric().topology().devices_of_kind(DeviceKind::Tor)[0];
        let t_fail = SimTime::from_millis(500);
        tb.schedule_failure(
            t_fail,
            tor,
            FailureMode::Blackhole {
                fraction: 0.25,
                salt: 5,
            },
        );
        tb.run_until(SimTime::from_secs(if quick { 2 } else { 4 }));
        let hung = tb.hung_ios(SimDuration::from_secs(1));
        let mut lats: Vec<f64> = tb
            .traces()
            .iter()
            .filter(|t| t.submitted >= t_fail)
            .filter_map(|t| t.latency())
            .map(|l| l.as_micros_f64())
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = tail(&lats, 0.99).unwrap_or(f64::NAN);
        let worst = lats.last().copied().unwrap_or(f64::NAN);
        let retx: u64 = (0..4).map(|c| tb.solar_retransmits(c)).sum();
        table.row([
            n_paths.to_string(),
            hung.to_string(),
            f1(p99),
            f1(worst),
            retx.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "ablate-paths",
        title: "Multi-path width vs blackhole disruption (§4.5 uses 4 paths)".into(),
        tables: vec![("25% ToR blackhole at t=500ms".into(), table)],
        notes: vec![
            "Even 1 path recovers via probe-driven ECMP remapping (no hangs), but its worst I/O eats the full probe-and-remap delay; width lets traffic shift instantly to already-healthy paths.".into(),
        ],
    }
}

/// Ablation B: HPCC (INT-driven) vs a fixed BDP window under incast-like
/// background load. HPCC keeps fabric queues — and thus tail latency — low.
pub fn hpcc_ablation(quick: bool) -> ExperimentOutput {
    let mut table = TextTable::new([
        "congestion control",
        "probe p50 (us)",
        "probe p99 (us)",
        "bg goodput (MB/s)",
        "max switch queue (KB)",
    ]);
    for (label, int_enabled, window_scale) in [
        ("HPCC from INT", true, 1u64),
        // The alternative to feedback CC is a static window big enough
        // for peak throughput — i.e. HPCC's growth ceiling (4x BDP).
        ("fixed peak-sized window", false, 4),
    ] {
        let n_bg = 5;
        let mut cfg = TestbedConfig::small(Variant::Solar, 1 + n_bg, 3);
        cfg.solar.int_enabled = int_enabled;
        cfg.solar.line_rate =
            ebs_sim::Bandwidth::from_bps(cfg.solar.line_rate.as_bps() * window_scale);
        cfg.seed = 44;
        let mut tb = Testbed::new(cfg);
        for b in 0..n_bg {
            tb.attach_fio(
                SimTime::from_millis(1),
                1 + b,
                FioConfig {
                    depth: 24,
                    bytes: 64 * 1024,
                    read_fraction: 0.0,
                },
            );
        }
        let mut t = SimTime::from_millis(5);
        let n = if quick { 150 } else { 600 };
        for i in 0..n {
            tb.schedule_io(
                t,
                0,
                ebs_sa::IoRequest {
                    vd_id: 0,
                    kind: ebs_sa::IoKind::Write,
                    offset: (i % 100) * 4096,
                    len: 4096,
                },
            );
            t += SimDuration::from_micros(400);
        }
        tb.run_until(t + SimDuration::from_millis(100));
        let mut lats: Vec<f64> = tb
            .traces()
            .iter()
            .filter(|tr| tr.compute == 0)
            .filter_map(|tr| tr.latency())
            .map(|l| l.as_micros_f64())
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = tail(&lats, 0.5).unwrap_or(f64::NAN);
        let p99 = tail(&lats, 0.99).unwrap_or(f64::NAN);
        let bg_bytes: u64 = (1..=n_bg).map(|b| tb.compute_progress(b).1).sum();
        let goodput = bg_bytes as f64 / tb.now().as_secs_f64() / 1e6;
        table.row([
            label.to_string(),
            f1(p50),
            f1(p99),
            format!("{goodput:.0}"),
            f1(tb.fabric().max_queue_bytes() as f64 / 1024.0),
        ]);
    }
    ExperimentOutput {
        id: "ablate-hpcc",
        title: "Fine-grained CC vs fixed window under heavy background load (§4.8)".into(),
        tables: vec![("4KB write probe among 64KB writers".into(), table)],
        notes: vec![
            "Without INT feedback the transport is blind: overload -> drops -> timeout-halving -> collapse, and no signal to grow back. HPCC sustains ~1.5x the background goodput at bounded queues; the probe's extra latency is the price of a fabric that is actually full.".into(),
        ],
    }
}

/// Ablation C: the CPU cost of SOLAR's segment CRC aggregation vs a full
/// software CRC per block (the alternative §4.5 rejects). Wall-clock
/// measured in-process.
pub fn crc_ablation() -> ExperimentOutput {
    const BLOCK: usize = 4096;
    const BLOCKS: usize = 512; // one 2 MiB segment
    let blocks: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|i| (0..BLOCK).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect();
    let crcs: Vec<u32> = blocks
        .iter()
        .map(|b| ebs_crc::block_crc_raw(b, BLOCK))
        .collect();

    let reps = 20;
    // (a) full software CRC of every block (what moving CRC back to the
    // CPU would cost).
    let t0 = std::time::Instant::now();
    let mut acc = 0u32;
    for _ in 0..reps {
        for (b, &c) in blocks.iter().zip(&crcs) {
            acc ^= ebs_crc::crc32_raw(b) ^ c;
        }
    }
    let full = t0.elapsed().as_secs_f64() / reps as f64;
    assert_eq!(acc, 0);

    // (b) SOLAR: XOR-accumulate blocks + claimed CRCs, one CRC at the end.
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let mut chk = ebs_crc::SegmentChecker::new(BLOCK);
        for (b, &c) in blocks.iter().zip(&crcs) {
            chk.add_block(b, c);
        }
        assert_eq!(chk.verify_and_reset(), ebs_crc::SegmentVerdict::Ok);
    }
    let agg = t0.elapsed().as_secs_f64() / reps as f64;

    let mut table = TextTable::new(["scheme", "us per 2MiB segment", "relative"]);
    table.row([
        "software CRC per block".to_string(),
        f1(full * 1e6),
        "1.00x".to_string(),
    ]);
    table.row([
        "XOR aggregate + 1 CRC (SOLAR)".to_string(),
        f1(agg * 1e6),
        format!("{:.2}x", agg / full),
    ]);
    ExperimentOutput {
        id: "ablate-crc",
        title: "CPU cost of integrity checking: per-block CRC vs segment aggregation".into(),
        tables: vec![("512 x 4KiB blocks, this machine".into(), table)],
        notes: vec![
            "Both schemes detect any single-block corruption; the aggregate trades k CRC passes for k XOR passes + 1 CRC. See tests/integrity.rs for the detection proof.".into(),
        ],
    }
}

/// Ablation D: receive-path state, SOLAR vs TCP — the "few maintained
/// states" claim of §4.4 made concrete.
pub fn state_ablation() -> ExperimentOutput {
    // A TCP responder under out-of-order delivery buffers segments; the
    // SOLAR responder holds nothing but counters, no matter what arrives.
    let mut tcp = ebs_tcp::TcpEngine::listen(ebs_tcp::TcpConfig::default());
    let mut client = ebs_tcp::TcpEngine::connect(ebs_tcp::TcpConfig::default());
    let now = SimTime::ZERO;
    // Handshake.
    for _ in 0..3 {
        while let Some(s) = client.poll_segment(now) {
            tcp.on_segment(now, s);
        }
        while let Some(s) = tcp.poll_segment(now) {
            client.on_segment(now, s);
        }
    }
    client.send(bytes::Bytes::from(vec![0u8; 256 * 1024]));
    let mut segs = Vec::new();
    while let Some(s) = client.poll_segment(now) {
        segs.push(s);
    }
    // Drop the first segment; deliver the rest out of order → they all
    // sit in the receiver's reassembly buffer.
    let tcp_buffered: usize = segs[1..].iter().map(|s| s.payload.len()).sum();
    for s in segs.into_iter().skip(1) {
        tcp.on_segment(now, s);
    }

    let solar_state = std::mem::size_of::<ebs_solar::SolarResponder>();
    let mut table = TextTable::new(["receive path", "state held under reordering"]);
    table.row([
        "TCP (kernel/LUNA): reassembly buffer".to_string(),
        format!(
            "{} KB buffered for ONE dropped segment",
            tcp_buffered / 1024
        ),
    ]);
    table.row([
        "SOLAR responder: total struct size".to_string(),
        format!("{} bytes, forever", solar_state),
    ]);
    ExperimentOutput {
        id: "ablate-state",
        title: "One-block-one-packet: receive-path state under loss+reordering (§4.4)".into(),
        tables: vec![("".into(), table)],
        notes: vec![
            "This is why the SA data path fits in FPGA BRAM: Table 3's Addr table is the only per-request state, and it is bounded by in-flight reads.".into(),
        ],
    }
}

/// Ablation E: why the FN is not RDMA (§3.1) — the RNIC connection
/// cliff. A storage node fronts tens of thousands of compute-side
/// connections; RNIC on-chip QP caches hold ~5,000.
pub fn rnic_cliff_ablation() -> ExperimentOutput {
    let model = ebs_rdma::RnicModel::default();
    let mut table = TextTable::new([
        "active connections",
        "latency multiplier",
        "per-node throughput (rel.)",
    ]);
    for conns in [100usize, 1_000, 5_000, 10_000, 20_000, 50_000] {
        table.row([
            conns.to_string(),
            format!("{:.2}x", model.latency_multiplier(conns)),
            format!("{:.2}", model.throughput_factor(conns)),
        ]);
    }
    ExperimentOutput {
        id: "ablate-rnic",
        title: "The RNIC connection-scalability cliff that ruled RDMA out for the FN (§3.1)".into(),
        tables: vec![(
            "QP-cache capacity 5,000 (the paper's observed threshold)".into(),
            table,
        )],
        notes: vec![
            "Paper: the RNIC throughput went down quickly beyond 5,000 connections; a software stack holds 30K+ connections per node (§3.1).".into(),
        ],
    }
}

/// All ablations.
pub fn run_all(quick: bool) -> Vec<ExperimentOutput> {
    vec![
        paths_ablation(quick),
        hpcc_ablation(quick),
        crc_ablation(),
        state_ablation(),
        rnic_cliff_ablation(),
    ]
}
