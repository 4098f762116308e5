//! The three flat-`Testbed` workloads and the ledger code they share
//! with `fleet_2w`.
//!
//! Everything is measured from outside, through `Testbed`'s public
//! functions. A trial is: construct → warm-up segment (untimed; route
//! caches, block pools and CC windows fill) → timed segment to a fixed
//! simulated horizon → untimed drain (fio stopped, one hang bar of
//! simulated time) so that "still outstanding after 1 s" is decided for
//! every I/O the timed segment attempted.

use std::collections::BTreeMap;

use ebs_blk::{Predicate, StorageFn};
use ebs_net::{DeviceKind, FailureMode};
use ebs_obs::MetricValue;
use ebs_sim::{Bandwidth, SimDuration, SimTime};
use ebs_stack::blk::BlkReq;
use ebs_stack::{BlkMountConfig, FioConfig, IoTrace, PhaseCycles, Testbed, TestbedConfig, Variant};
use ebs_wire::PushdownPlacement;
use rand::Rng;

use crate::alloc;
use crate::trial::{
    fnv_hex, record_latencies, time_slices, TrialArgs, TrialResult, HANG_BAR_NS, SLICES,
};

/// A flat workload: how to build the cell and how much simulated time one
/// reference host-second buys (calibrated on the 2-core box; see README).
struct Flat {
    name: &'static str,
    variant: Variant,
    n_compute: usize,
    n_storage: usize,
    fio: FioConfig,
    /// Simulated warm-up before the timed segment.
    warm: SimDuration,
    /// Simulated microseconds of timed segment per unit of
    /// [`TrialArgs::scale`].
    sim_us_per_scale: u64,
    faulted: bool,
}

const SOLAR_4K_FANIN: Flat = Flat {
    name: "solar_4k_fanin",
    variant: Variant::Solar,
    n_compute: 32,
    n_storage: 8,
    fio: FioConfig {
        depth: 8,
        bytes: 4096,
        read_fraction: 0.0,
    },
    warm: SimDuration::from_millis(6),
    sim_us_per_scale: 33_000,
    faulted: false,
};

const LUNA_128K_RW: Flat = Flat {
    name: "luna_128k_rw",
    variant: Variant::Luna,
    n_compute: 4,
    n_storage: 3,
    fio: FioConfig {
        depth: 4,
        bytes: 128 * 1024,
        read_fraction: 0.3,
    },
    warm: SimDuration::from_millis(21),
    sim_us_per_scale: 180_000,
    faulted: false,
};

const SOLAR_FAULTED_RW: Flat = Flat {
    name: "solar_faulted_rw",
    variant: Variant::Solar,
    n_compute: 16,
    n_storage: 6,
    fio: FioConfig {
        depth: 4,
        bytes: 16 * 1024,
        read_fraction: 0.3,
    },
    warm: SimDuration::from_millis(11),
    sim_us_per_scale: 100_000,
    faulted: true,
};

/// Blocks per pushdown scan and the gap between scans (`solar_faulted_rw`).
const SCAN_BLOCKS: u32 = 64;
const SCAN_GAP: SimDuration = SimDuration::from_millis(2);

pub fn run(workload: &str, a: &TrialArgs) -> Option<TrialResult> {
    let flat = [SOLAR_4K_FANIN, LUNA_128K_RW, SOLAR_FAULTED_RW]
        .into_iter()
        .find(|f| f.name == workload)?;
    Some(run_flat(&flat, a))
}

/// First blocks of the pushdown scans: the benchmark's own generator, a
/// pure function of the seed.
pub fn scan_starts(seed: u64, n: usize, vd_blocks: u64) -> Vec<u64> {
    let mut rng = ebs_sim::rng::stream(seed, "bench-scan");
    (0..n)
        .map(|_| rng.gen_range(0..vd_blocks - u64::from(SCAN_BLOCKS)))
        .collect()
}

fn run_flat(f: &Flat, a: &TrialArgs) -> TrialResult {
    let window = SimDuration::from_micros((f.sim_us_per_scale as f64 * a.scale()) as u64);
    let t_warm = SimTime::ZERO + f.warm;
    let t_end = t_warm + window;

    let mut cfg = TestbedConfig::small(f.variant, f.n_compute, f.n_storage);
    cfg.seed = a.seed;
    if f.faulted {
        cfg.ecn.enabled = true;
        cfg.routing_convergence = SimDuration::from_millis(100);
    }
    let vd_blocks = cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS;
    let mut tb = Testbed::new(cfg);
    for c in 0..f.n_compute {
        tb.attach_fio(SimTime::from_millis(1), c, f.fio);
    }
    if f.faulted {
        arm_faults(&mut tb, a.seed, t_warm, window, vd_blocks);
    }
    if a.traced {
        tb.enable_profiling();
    }
    tb.run_until(t_warm);
    let obs0 = ObsSnap::take(&mut tb);
    let prof0 = tb.phase_cycles().unwrap_or_default();
    let blk0 = tb.blk_counters();
    let events0 = tb.events_processed();
    let setup_s = a.process_start.elapsed().as_secs_f64();

    if a.traced {
        alloc::arm();
    }
    let slice_wall_s = time_slices(|k| tb.run_until(t_warm + window * k / SLICES));
    let (allocs, alloc_bytes) = if a.traced { alloc::disarm() } else { (0, 0) };

    let obs1 = ObsSnap::take(&mut tb);
    let prof1 = tb.phase_cycles().unwrap_or_default();
    let blk1 = tb.blk_counters();
    let events = tb.events_processed() - events0;

    // Drain: stop the closed loops and give every attempted I/O the full
    // hang bar to come back.
    tb.schedule_stop_fio(t_end);
    let t_drained = t_end + SimDuration::from_nanos(HANG_BAR_NS) + SimDuration::from_millis(1);
    tb.run_until(t_drained);

    let mut r = TrialResult {
        workload: f.name.to_string(),
        seed: a.seed,
        traced: a.traced,
        threads: 1,
        setup_s,
        timed_wall_s: slice_wall_s.iter().sum(),
        slice_wall_s,
        events,
        ..TrialResult::default()
    };
    let w = WindowStats::collect(tb.traces().iter(), t_warm, t_end, t_drained);
    r.ios = w.completed_in_window;
    r.attempted = w.attempted;
    r.failed = w.failed;
    let mut lat = w.latencies_ns;
    record_latencies(&mut r, &mut lat, window.as_secs_f64());

    let outstanding = tb.outstanding_ios() as u64;
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
    r.check("drained", outstanding == 0, || {
        format!("{outstanding} I/Os still outstanding one hang bar after the timed segment")
    });

    // Storage conservation: every completed I/O was served at least once;
    // nothing was served that was not submitted (or retransmitted).
    let obs_end = ObsSnap::take(&mut tb);
    let served = obs_end.counter("storage", "reads") + obs_end.counter("storage", "writes");
    let blk_end = tb.blk_counters();
    let unit = if matches!(f.variant, Variant::Solar | Variant::SolarStar) {
        u64::from(f.fio.bytes / ebs_sa::BLOCK_SIZE) // one storage op per block
    } else {
        1 // one per sub-I/O RPC, at most two sub-I/Os per I/O
    };
    let lo = w.completed_total * unit;
    let hi = w.total * unit.max(2)
        + obs_end.counter("solar", "retransmits")
        + obs_end.counter("tcp", "retransmits")
        + blk_end.parts_sent
        + blk_end.retransmits;
    r.check(
        "storage_ops_reconcile_with_sub_ios",
        (lo..=hi).contains(&served),
        || format!("{served} storage ops outside [{lo}, {hi}]"),
    );

    if f.faulted {
        let bad_status = tb
            .blk_traces()
            .iter()
            .filter(|t| t.completed.is_none() || t.status != ebs_wire::BLK_S_OK)
            .count() as u64;
        r.attempted += blk_end.accepted;
        r.failed += bad_status + blk_end.rejected;
        r.check("blk_no_crc_failures", blk_end.crc_failures == 0, || {
            format!("{} pushdown results failed CRC", blk_end.crc_failures)
        });
        let ring = tb.blk_ring_errors();
        r.check("blk_ring_conservation", ring.is_empty(), || ring.join("; "));
        r.check(
            "blk_accepted_eq_completed",
            blk_end.accepted == blk_end.completed && blk_end.rejected == 0,
            || format!("{blk_end:?}"),
        );
        r.check(
            "faults_left_the_fast_path",
            obs1.delta(&obs0, "solar", "path_failovers") > 0
                && obs1.delta(&obs0, "solar", "retransmits") > 0,
            || "no SOLAR failover or retransmit was observed".to_string(),
        );
    }
    r.check_no_failures();

    r.digest = fnv_hex(&tb.metrics_digest(t_drained));
    r.peak_rss_mib = crate::trial::peak_rss_mib();

    ledger_from_obs(&mut r, &obs0, &obs1, window);
    r.set_layer("blk.requests", (blk1.accepted - blk0.accepted) as f64);
    r.set_layer(
        "blk.retransmits",
        (blk1.retransmits - blk0.retransmits) as f64,
    );
    r.set_layer(
        "blk.data_mib",
        (blk1.data_bytes - blk0.data_bytes) as f64 / (1 << 20) as f64,
    );
    let mut blk_lat: Vec<u64> = tb
        .blk_traces()
        .iter()
        .filter_map(|t| {
            t.completed
                .filter(|&c| c > t_warm && c <= t_end)
                .map(|c| c.saturating_since(t.submitted).as_nanos())
        })
        .collect();
    blk_lat.sort_unstable();
    // p90, not p99: a run completes a few hundred scans, and a percentile
    // is reported only with ten samples beyond it.
    if blk_lat.len() >= crate::stats::samples_needed(0.90) {
        r.set_layer(
            "blk.req_p90_us",
            crate::stats::percentile_sorted(&blk_lat, 0.90) as f64 / 1e3,
        );
    }
    if a.traced {
        ledger_from_phases(&mut r, &prof0, &prof1);
        r.set_layer("host.allocs_per_io", allocs as f64 / r.ios.max(1) as f64);
        r.set_layer(
            "host.alloc_bytes_per_io",
            alloc_bytes as f64 / r.ios.max(1) as f64,
        );
        r.trace_file =
            crate::trial::write_trace(f.name, &ebs_obs::export::chrome_trace(tb.journal()));
    }
    r
}

/// `solar_faulted_rw`'s extras: QoS on half the disks, one blk queue
/// issuing scans at storage-node placement, a ToR blackhole and a spine
/// fail-stop with heal — all placed at fixed fractions of the timed
/// segment so a longer run stretches the same story.
fn arm_faults(tb: &mut Testbed, seed: u64, t_warm: SimTime, window: SimDuration, vd_blocks: u64) {
    let throttle = ebs_sa::QosSpec {
        iops: 12_000,
        bandwidth: Bandwidth::from_mbps(1_500),
        burst_secs: 0.01,
    };
    for c in (0..tb.config().n_compute).step_by(2) {
        tb.schedule_qos(SimTime::ZERO, c, throttle);
    }

    tb.blk_mount(
        0,
        BlkMountConfig::with_placement(PushdownPlacement::StorageNode),
    )
    .expect("the default feature set always negotiates");
    let scan = StorageFn::scan(Predicate {
        offset: 0,
        mask: 0x0F,
        value: 0x07,
    });
    let first_scan = SimTime::from_millis(2);
    let n_scans =
        ((t_warm + window).saturating_since(first_scan).as_nanos() / SCAN_GAP.as_nanos()) as usize;
    for (i, first) in scan_starts(seed, n_scans, vd_blocks)
        .into_iter()
        .enumerate()
    {
        tb.schedule_blk(
            first_scan + SCAN_GAP * i as u64,
            0,
            0,
            BlkReq::pushdown(0, first, SCAN_BLOCKS, scan),
        );
    }

    let at = |share: f64| t_warm + window.mul_f64(share);
    let tor = tb.fabric().topology().devices_of_kind(DeviceKind::Tor)[0];
    let spine = tb.fabric().topology().devices_of_kind(DeviceKind::Spine)[0];
    tb.schedule_failure(
        at(0.10),
        tor,
        FailureMode::Blackhole {
            fraction: 0.75,
            salt: 11,
        },
    );
    tb.schedule_heal(at(0.40), tor);
    tb.schedule_failure(at(0.50), spine, FailureMode::FailStop);
    tb.schedule_heal(at(0.80), spine);
}

/// Guest I/O accounting over one timed window `(t_warm, t_end]`, judged
/// as of `asof`.
pub struct WindowStats {
    pub total: u64,
    pub completed_total: u64,
    pub completed_in_window: u64,
    pub attempted: u64,
    pub failed: u64,
    pub latencies_ns: Vec<u64>,
}

impl WindowStats {
    pub fn collect<'a>(
        traces: impl Iterator<Item = &'a IoTrace>,
        t_warm: SimTime,
        t_end: SimTime,
        asof: SimTime,
    ) -> WindowStats {
        let hang_bar = SimDuration::from_nanos(HANG_BAR_NS);
        let mut w = WindowStats {
            total: 0,
            completed_total: 0,
            completed_in_window: 0,
            attempted: 0,
            failed: 0,
            latencies_ns: Vec::new(),
        };
        for t in traces {
            w.total += 1;
            if t.submitted > t_warm && t.submitted <= t_end {
                w.attempted += 1;
                if t.hung(asof, hang_bar) {
                    w.failed += 1;
                }
            }
            if let Some(done) = t.completed {
                w.completed_total += 1;
                if done > t_warm && done <= t_end {
                    w.completed_in_window += 1;
                    if let Some(lat) = t.latency() {
                        w.latencies_ns.push(lat.as_nanos());
                    }
                }
            }
        }
        w
    }
}

/// The counters and gauges of a testbed's obs registry; several
/// testbeds' snapshots fold together with [`ObsSnap::absorb`].
#[derive(Debug, Default, Clone)]
pub struct ObsSnap {
    counters: BTreeMap<(&'static str, &'static str), u64>,
    gauges: BTreeMap<(&'static str, &'static str), f64>,
}

impl ObsSnap {
    pub fn take(tb: &mut Testbed) -> ObsSnap {
        let mut snap = ObsSnap::default();
        tb.sample_obs();
        for (c, n, v) in tb.metrics().iter() {
            match v {
                MetricValue::Counter(x) => *snap.counters.entry((c, n)).or_default() += x,
                MetricValue::Gauge(x) => {
                    snap.gauges.insert((c, n), *x);
                }
                MetricValue::Histogram(_) => {}
            }
        }
        snap
    }

    /// Fold another snapshot in (counters add, gauges keep the maximum).
    pub fn absorb(&mut self, other: ObsSnap) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, v) in other.gauges {
            let g = self.gauges.entry(k).or_insert(f64::MIN);
            *g = g.max(v);
        }
    }

    pub fn counter(&self, component: &'static str, name: &'static str) -> u64 {
        self.counters.get(&(component, name)).copied().unwrap_or(0)
    }

    pub fn gauge(&self, component: &'static str, name: &'static str) -> f64 {
        self.gauges.get(&(component, name)).copied().unwrap_or(0.0)
    }

    /// Growth of a counter since `base` (the timed segment's share).
    pub fn delta(&self, base: &ObsSnap, component: &'static str, name: &'static str) -> u64 {
        self.counter(component, name)
            .saturating_sub(base.counter(component, name))
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of source O: obs-registry growth over the timed
/// segment (`obs0` at end of warm-up, `obs1` at end of timing).
pub fn ledger_from_obs(r: &mut TrialResult, obs0: &ObsSnap, obs1: &ObsSnap, window: SimDuration) {
    let d = |c, n| obs1.delta(obs0, c, n);
    let ios = r.ios;
    r.set_layer("sim.events", r.events as f64);
    r.set_layer("sim.events_per_io", ratio(r.events, ios));
    r.set_layer("sim.max_queued", obs1.gauge("sim", "max_queued"));

    r.set_layer("net.delivered", d("net", "delivered") as f64);
    let drops = d("net", "drop_fail_stop")
        + d("net", "drop_blackhole")
        + d("net", "drop_random_loss")
        + d("net", "drop_queue_overflow")
        + d("net", "drop_no_route");
    r.set_layer("net.drops", drops as f64);
    let (hits, misses) = (d("net", "route_cache_hits"), d("net", "route_cache_misses"));
    r.set_layer("net.route_cache_hit_ratio", ratio(hits, hits + misses));
    r.set_layer(
        "net.max_queue_kib",
        obs1.gauge("net", "max_queue_bytes") / 1024.0,
    );
    r.set_layer("net.ecn_marked", d("net", "ecn_marked") as f64);

    let pkts = d("solar", "pkts_sent");
    r.set_layer("solar.pkts_sent", pkts as f64);
    r.set_layer(
        "solar.retransmit_ratio",
        ratio(d("solar", "retransmits"), pkts),
    );
    r.set_layer("solar.timeouts", d("solar", "timeouts") as f64);
    r.set_layer("solar.path_failovers", d("solar", "path_failovers") as f64);
    r.set_layer("solar.rpcs_failed", d("solar", "rpcs_failed") as f64);

    let segs = d("tcp", "segs_sent");
    r.set_layer("tcp.segs_per_io", ratio(segs, ios));
    r.set_layer("tcp.acks_per_seg", ratio(d("tcp", "acks_sent"), segs));
    r.set_layer("tcp.retransmit_ratio", ratio(d("tcp", "retransmits"), segs));
    r.set_layer(
        "luna.rpc_decode_errors",
        d("luna.rpc", "decode_errors") as f64,
    );

    r.set_layer(
        "dpu.cpu_consumed_cores",
        d("dpu.cpu", "busy_ns") as f64 / window.as_nanos().max(1) as f64,
    );
    r.set_layer(
        "dpu.pcie_internal_mib",
        d("dpu.pcie", "internal_bytes") as f64 / (1 << 20) as f64,
    );

    let admitted = d("sa.qos", "admitted_ios");
    r.set_layer(
        "sa.qos_throttled_share",
        ratio(d("sa.qos", "throttled_ios"), admitted),
    );
    r.set_layer(
        "sa.qos_delay_us_per_io",
        ratio(d("sa.qos", "total_delay_ns"), admitted) / 1e3,
    );

    let (reads, writes) = (d("storage", "reads"), d("storage", "writes"));
    r.set_layer("storage.reads", reads as f64);
    r.set_layer("storage.writes", writes as f64);
    r.set_layer("storage.ops_per_io", ratio(reads + writes, ios));

    r.set_layer(
        "obs.journal_events",
        obs1.counter("obs", "journal_events") as f64,
    );
    r.set_layer("obs.journal_dropped", d("obs", "journal_dropped") as f64);
}

/// Per-layer metrics of source P: each accumulator's growth over the
/// timed segment as a share of the five (the `--profile` convention of
/// the experiments bench; the accumulators overlap by design, so the
/// shares attribute, they do not tile).
pub fn ledger_from_phases(r: &mut TrialResult, p0: &PhaseCycles, p1: &PhaseCycles) {
    let pop = p1.pop_ns - p0.pop_ns;
    let net = p1.net_ns - p0.net_ns;
    let deliver = p1.deliver_ns - p0.deliver_ns;
    let pump = p1.pump_ns - p0.pump_ns;
    let host = p1.host_ns - p0.host_ns;
    let total = pop + net + deliver + pump + host;
    r.set_layer("sim.pop_share", ratio(pop, total));
    r.set_layer("net.share", ratio(net, total));
    r.set_layer("stack.deliver_share", ratio(deliver, total));
    r.set_layer("stack.pump_share", ratio(pump, total));
    r.set_layer("stack.host_share", ratio(host, total));
}

/// Sum of several testbeds' phase accumulators (`fleet_2w`'s shards).
pub fn sum_phases(parts: impl Iterator<Item = PhaseCycles>) -> PhaseCycles {
    parts.fold(PhaseCycles::default(), |mut acc, p| {
        acc.pop_ns += p.pop_ns;
        acc.net_ns += p.net_ns;
        acc.deliver_ns += p.deliver_ns;
        acc.pump_ns += p.pump_ns;
        acc.host_ns += p.host_ns;
        acc.events += p.events;
        acc
    })
}
