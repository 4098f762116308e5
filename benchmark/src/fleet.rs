//! `fleet_2w`: the sharded engine under open-loop probe load with
//! cross-shard replication, on 2 worker threads (= `nproc` on the
//! reference box). The only workload where `stack::sharded` — windows,
//! mailboxes, the barrier — and thread scaling do any work.

use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{ReplicationConfig, ShardedTestbed, ShardedTestbedConfig, Variant};

use crate::alloc;
use crate::simcell::{ledger_from_obs, ledger_from_phases, sum_phases, ObsSnap, WindowStats};
use crate::trial::{fnv_hex, record_latencies, time_slices, TrialArgs, TrialResult, SLICES};

pub const NAME: &str = "fleet_2w";
/// Worker threads of the end-to-end trials.
pub const THREADS: usize = 2;

const SHARDS: u32 = 16;
const COMPUTES: usize = 640;
const STORAGES: usize = 192;
const WARM: SimDuration = SimDuration::from_millis(5);
/// Simulated microseconds of timed segment per unit of
/// [`TrialArgs::scale`] (calibrated on the 2-core box; see README).
const SIM_US_PER_SCALE: u64 = 19_000;
/// Open-loop generator: one probe per compute per interval, never late
/// in host terms because it runs on the simulated clock.
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(200);
const PROBE_BYTES: u32 = 16 * 1024;
const PROBE_READS: f64 = 0.7;
/// A probe submitted this long before the end of the timed segment must
/// have completed (the fabric is healthy; ~100x the unloaded latency).
const STRAGGLER_AGE: SimDuration = SimDuration::from_millis(20);

fn build(a: &TrialArgs) -> ShardedTestbed {
    let mut cfg = ShardedTestbedConfig::new(Variant::Solar, COMPUTES, STORAGES, SHARDS);
    cfg.base.vds_per_compute = 16;
    cfg.base.vd_segments = 4;
    cfg.base.seed = a.seed;
    cfg.threads = a.threads;
    cfg.replication = Some(ReplicationConfig {
        start: SimTime::from_millis(1),
        interval: SimDuration::from_micros(500),
        blocks: 8,
    });
    let mut fleet = ShardedTestbed::new(cfg);
    for s in 0..fleet.shards() {
        let tb = fleet.shard_mut(s);
        for c in 0..tb.config().n_compute {
            tb.attach_probe(
                SimTime::from_millis(1),
                c,
                PROBE_INTERVAL,
                PROBE_BYTES,
                PROBE_READS,
            );
        }
        if a.traced {
            tb.enable_profiling();
        }
    }
    fleet
}

fn snap(fleet: &mut ShardedTestbed) -> ObsSnap {
    // `shard_mut` hands out one shard at a time; sample them in turn.
    let mut total = ObsSnap::default();
    for s in 0..fleet.shards() {
        total.absorb(ObsSnap::take(fleet.shard_mut(s)));
    }
    total
}

pub fn run(a: &TrialArgs) -> TrialResult {
    let window = SimDuration::from_micros((SIM_US_PER_SCALE as f64 * a.scale()) as u64);
    let t_warm = SimTime::ZERO + WARM;
    let t_end = t_warm + window;

    let mut fleet = build(a);
    fleet.run_until(t_warm);
    let obs0 = snap(&mut fleet);
    let phases =
        |f: &ShardedTestbed| sum_phases((0..f.shards()).filter_map(|s| f.shard(s).phase_cycles()));
    let events_of = |f: &ShardedTestbed| -> u64 {
        (0..f.shards()).map(|s| f.shard(s).events_processed()).sum()
    };
    let prof0 = phases(&fleet);
    let events0 = events_of(&fleet);
    let busy0: Vec<u64> = fleet.shard_stats().iter().map(|s| s.busy_ns).collect();
    let (windows0, exchanged0) = (fleet.windows(), fleet.exchanged());
    let setup_s = a.process_start.elapsed().as_secs_f64();

    if a.traced {
        alloc::arm();
    }
    // Per-slice worker statistics: `worker_stats` covers one `run_until`.
    let (mut busy, mut stall) = (0u64, 0u64);
    let slice_wall_s = time_slices(|k| {
        fleet.run_until(t_warm + window * k / SLICES);
        for w in fleet.worker_stats() {
            busy += w.busy_ns;
            stall += w.stall_ns;
        }
    });
    let (allocs, alloc_bytes) = if a.traced { alloc::disarm() } else { (0, 0) };
    let obs1 = snap(&mut fleet);

    let mut r = TrialResult {
        workload: NAME.to_string(),
        seed: a.seed,
        traced: a.traced,
        threads: a.threads,
        setup_s,
        timed_wall_s: slice_wall_s.iter().sum(),
        slice_wall_s,
        events: events_of(&fleet) - events0,
        ..TrialResult::default()
    };
    let all_traces = || (0..fleet.shards()).flat_map(|s| fleet.shard(s).traces().iter());
    let w = WindowStats::collect(all_traces(), t_warm, t_end, t_end);
    r.ios = w.completed_in_window;
    r.attempted = w.attempted;
    r.failed = w.failed;
    let mut lat = w.latencies_ns;
    record_latencies(&mut r, &mut lat, window.as_secs_f64());

    let outstanding: u64 = (0..fleet.shards())
        .map(|s| fleet.shard(s).outstanding_ios() as u64)
        .sum();
    r.check(
        "submitted_eq_completed_plus_outstanding",
        w.total == w.completed_total + outstanding,
        || {
            format!(
                "{} traces, {} completed, {outstanding} outstanding",
                w.total, w.completed_total
            )
        },
    );
    let stragglers = all_traces()
        .filter(|t| t.completed.is_none() && t_end.saturating_since(t.submitted) >= STRAGGLER_AGE)
        .count();
    r.check("no_stragglers", stragglers == 0, || {
        format!("{stragglers} probes older than {STRAGGLER_AGE:?} never completed")
    });
    r.check_no_failures();
    // One storage op per probe block plus one per replica write served;
    // probes in flight at the end may or may not have been served yet.
    let served = obs1.counter("storage", "reads") + obs1.counter("storage", "writes");
    let unit = u64::from(PROBE_BYTES / ebs_sa::BLOCK_SIZE);
    let replicas = fleet.replication_totals().1;
    let (lo, hi) = (
        w.completed_total * unit + replicas,
        w.total * unit + replicas + obs1.counter("solar", "retransmits"),
    );
    r.check(
        "storage_ops_reconcile_with_sub_ios",
        (lo..=hi).contains(&served),
        || format!("{served} storage ops outside [{lo}, {hi}]"),
    );

    r.digest = fnv_hex(&fleet.metrics_digest());
    r.peak_rss_mib = crate::trial::peak_rss_mib();

    ledger_from_obs(&mut r, &obs0, &obs1, window);
    r.set_layer("stack.sharded.windows", (fleet.windows() - windows0) as f64);
    r.set_layer(
        "stack.sharded.exchanged_msgs",
        (fleet.exchanged() - exchanged0) as f64,
    );
    r.set_layer(
        "stack.sharded.stall_share",
        stall as f64 / (busy + stall).max(1) as f64,
    );
    let shard_busy: Vec<u64> = fleet
        .shard_stats()
        .iter()
        .zip(&busy0)
        .map(|(s, b0)| s.busy_ns - b0)
        .collect();
    r.set_layer(
        "stack.sharded.occupancy_max_share",
        shard_busy.iter().copied().max().unwrap_or(0) as f64
            / shard_busy.iter().sum::<u64>().max(1) as f64,
    );
    if a.traced {
        ledger_from_phases(&mut r, &prof0, &phases(&fleet));
        r.set_layer("host.allocs_per_io", allocs as f64 / r.ios.max(1) as f64);
        r.set_layer(
            "host.alloc_bytes_per_io",
            alloc_bytes as f64 / r.ios.max(1) as f64,
        );
        // Shard 0's journal: sixteen merged rings are a 100 MB file no
        // viewer opens, and the shards run the same story.
        r.trace_file = crate::trial::write_trace(
            NAME,
            &ebs_obs::export::chrome_trace(fleet.shard(0).journal()),
        );
    }
    r
}
