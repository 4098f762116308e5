//! Fleet-scale experiments on the sharded engine: run a region's worth
//! of pods through [`ShardedTestbed`] and measure what the flat testbed
//! cannot reach — ≥10K compute servers and ≥1M virtual disks in one
//! deterministic simulation.
//!
//! Two experiments, written to `BENCH_FLEET.json` with the same schema
//! as `BENCH_RESULTS.json`:
//!
//! * `fleet_smoke` — a 4-shard fleet with cross-shard replication and a
//!   ToR blackhole; re-runs the window sequence on 2 worker threads and
//!   asserts the fleet digest is byte-identical (`determinism_ok`).
//! * `fleet_10k` — 256 pod-group shards, 10,240 compute servers,
//!   1,064,960 virtual disks under an open-loop probe workload; one
//!   blackhole per fabric tier (ToR, spine) lands in separate shards and
//!   the Fig. 8-style hung-VM blast radius is read per tier.
//!
//! Every metric is a simulation counter. What the engine costs in host
//! time (thread scaling, barrier stall, shard occupancy) is measured by
//! the `fleet_2w` workload of `benchmark/`.

use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{ReplicationConfig, ShardedTestbed, ShardedTestbedConfig, Variant};
use ebs_stats::TextTable;

use crate::{ExperimentOutput, ExperimentReport, RunReport};

/// Hung threshold for the fleet blast-radius metrics: an I/O outstanding
/// this long has hung its VM (same bar as the reliability scenarios).
const HUNG_AFTER: SimDuration = SimDuration::from_millis(10);

/// Attach the open-loop probe workload to every compute of every shard:
/// the fleet stand-in for thousands of lightly loaded VMs (closed-loop
/// fio at this scale would model a region-wide stress test, not a fleet).
fn attach_probes(fleet: &mut ShardedTestbed, interval: SimDuration, bytes: u32) {
    for s in 0..fleet.shards() {
        let tb = fleet.shard_mut(s);
        for c in 0..tb.config().n_compute {
            tb.attach_probe(SimTime::from_millis(1), c, interval, bytes, 0.7);
        }
    }
}

/// Blackhole one device of `kind` in shard `s` for `[at, heal)`.
fn blackhole(fleet: &mut ShardedTestbed, s: usize, kind: ebs_net::DeviceKind, at: SimTime) {
    let tb = fleet.shard_mut(s);
    let dev = tb.fabric().topology().devices_of_kind(kind)[0];
    tb.schedule_failure(
        at,
        dev,
        ebs_net::FailureMode::Blackhole {
            fraction: 0.75,
            salt: 11,
        },
    );
    tb.schedule_heal(at + SimDuration::from_millis(20), dev);
}

/// The 4-shard smoke fleet: replication + probes + a ToR blackhole, run
/// serially and on 2 threads; the two digests must be byte-identical.
fn build_smoke(threads: usize) -> ShardedTestbed {
    let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 32, 16, 4);
    cfg.base.vds_per_compute = 4;
    cfg.threads = threads;
    cfg.replication = Some(ReplicationConfig {
        start: SimTime::from_millis(1),
        interval: SimDuration::from_micros(200),
        blocks: 4,
    });
    let mut fleet = ShardedTestbed::new(cfg);
    attach_probes(&mut fleet, SimDuration::from_micros(500), 4096);
    blackhole(
        &mut fleet,
        0,
        ebs_net::DeviceKind::Tor,
        SimTime::from_millis(5),
    );
    fleet.run_until(SimTime::from_millis(40));
    fleet
}

/// `fleet_smoke`: the CI-speed cell. Metrics are deterministic
/// simulation counters plus the binary determinism verdict.
pub fn fleet_smoke() -> ExperimentReport {
    let serial = build_smoke(1);
    let threaded = build_smoke(2);
    let determinism_ok = serial.metrics_digest() == threaded.metrics_digest();

    let (ios, bytes) = serial.total_progress();
    let (_, _, repl_completed, _) = serial.replication_totals();
    let mut table = TextTable::new([
        "shard",
        "computes",
        "storages",
        "completed I/Os",
        "hung VMs",
    ]);
    for s in 0..serial.shards() {
        let tb = serial.shard(s);
        let done: u64 = (0..tb.config().n_compute)
            .map(|c| tb.compute_progress(c).0)
            .sum();
        table.row([
            s.to_string(),
            tb.config().n_compute.to_string(),
            tb.config().n_storage.to_string(),
            done.to_string(),
            tb.hung_vms_at(serial.now(), HUNG_AFTER).to_string(),
        ]);
    }
    let notes = if determinism_ok {
        Vec::new()
    } else {
        vec!["DETERMINISM VIOLATION: 2-thread digest diverged from serial".to_string()]
    };
    let metrics = vec![
        ("completed_ios".to_string(), ios as f64),
        ("completed_mib".to_string(), bytes as f64 / (1 << 20) as f64),
        ("exchanged_msgs".to_string(), serial.exchanged() as f64),
        ("windows".to_string(), serial.windows() as f64),
        ("repl_completed".to_string(), repl_completed as f64),
        ("hung_vms".to_string(), serial.hung_vms(HUNG_AFTER) as f64),
        (
            "determinism_ok".to_string(),
            if determinism_ok { 1.0 } else { 0.0 },
        ),
    ];
    ExperimentReport {
        output: ExperimentOutput {
            id: "fleet_smoke",
            title: "4-shard fleet smoke: replication, ToR blackhole, thread determinism".into(),
            tables: vec![("per-shard".into(), table)],
            notes,
        },
        metrics,
    }
}

/// `fleet_10k`: 256 pod-group shards / 10,240 compute servers /
/// 1,064,960 virtual disks — the scale §2.1 describes a region at and
/// the flat testbed cannot represent (its route cache alone is O(n²) in
/// fabric size). One blackhole per tier lands in separate shards; shard
/// isolation means each tier's hung-VM blast radius is read cleanly
/// from its own shard.
pub fn fleet_10k(threads: usize) -> ExperimentReport {
    const SHARDS: u32 = 256;
    const VDS_PER_COMPUTE: u64 = 104;
    let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 10_240, 3_072, SHARDS);
    cfg.base.vds_per_compute = VDS_PER_COMPUTE;
    // 1M volumes × 16 segments would be all segment table; 4 keeps the
    // address-space model while the fleet stays memory-light.
    cfg.base.vd_segments = 4;
    cfg.threads = threads;
    cfg.replication = Some(ReplicationConfig {
        start: SimTime::from_millis(2),
        interval: SimDuration::from_millis(2),
        blocks: 8,
    });
    let mut fleet = ShardedTestbed::new(cfg);
    let n_computes: usize = (0..fleet.shards())
        .map(|s| fleet.shard(s).config().n_compute)
        .sum();
    let n_volumes = n_computes as u64 * VDS_PER_COMPUTE;
    attach_probes(&mut fleet, SimDuration::from_millis(2), 16 * 1024);
    blackhole(
        &mut fleet,
        0,
        ebs_net::DeviceKind::Tor,
        SimTime::from_millis(20),
    );
    blackhole(
        &mut fleet,
        1,
        ebs_net::DeviceKind::Spine,
        SimTime::from_millis(20),
    );
    fleet.run_until(SimTime::from_millis(100));

    let (ios, bytes) = fleet.total_progress();
    let (_, _, repl_completed, _) = fleet.replication_totals();
    let events: u64 = (0..fleet.shards())
        .map(|s| fleet.shard(s).events_processed())
        .sum();
    let tor_hung = fleet.shard(0).hung_vms_at(fleet.now(), HUNG_AFTER);
    let spine_hung = fleet.shard(1).hung_vms_at(fleet.now(), HUNG_AFTER);

    let mut table = TextTable::new(["fleet", "value"]);
    table.row(["compute servers", &n_computes.to_string()]);
    table.row(["virtual disks", &n_volumes.to_string()]);
    table.row(["shards", &fleet.shards().to_string()]);
    table.row(["completed I/Os", &ios.to_string()]);
    table.row(["events processed", &events.to_string()]);
    table.row(["cross-shard msgs", &fleet.exchanged().to_string()]);
    let mut tiers = TextTable::new(["blackholed tier", "VMs with I/O hang (own shard)"]);
    tiers.row(["tor", &tor_hung.to_string()]);
    tiers.row(["spine", &spine_hung.to_string()]);

    let metrics = vec![
        ("compute_servers".to_string(), n_computes as f64),
        ("virtual_disks".to_string(), n_volumes as f64),
        ("completed_ios".to_string(), ios as f64),
        ("completed_gib".to_string(), bytes as f64 / (1 << 30) as f64),
        ("events_millions".to_string(), events as f64 / 1e6),
        ("exchanged_msgs".to_string(), fleet.exchanged() as f64),
        ("repl_completed".to_string(), repl_completed as f64),
        ("tor_hung_vms".to_string(), tor_hung as f64),
        ("spine_hung_vms".to_string(), spine_hung as f64),
    ];
    ExperimentReport {
        output: ExperimentOutput {
            id: "fleet_10k",
            title: "10,240-server / 1.06M-volume fleet under probe load with per-tier blackholes"
                .into(),
            tables: vec![
                ("fleet totals".into(), table),
                ("blast radius".into(), tiers),
            ],
            notes: Vec::new(),
        },
        metrics,
    }
}

/// The full fleet suite in `BENCH_FLEET.json` order. `threads` feeds the
/// 10k fleet's executor (metrics are thread-count-independent).
pub fn run_fleet_report(threads: usize) -> RunReport {
    RunReport {
        quick: false,
        experiments: vec![fleet_smoke(), fleet_10k(threads)],
    }
}
