//! The contract's tables: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is generated
//! from these (`manifest` subcommand) and a unit test pins the committed
//! file to them, so a name can never exist in one place only.

use crate::json::Json;

/// Seconds one driver-form run measures (`run_seconds` in
/// `BENCHMARK.json`): the timed work of a run's three trials is sized to
/// take about this long in total on the 2-core reference box.
pub const RUN_SECONDS: u64 = 15;

/// Default seed of the `run` subcommand.
pub const DEFAULT_SEED: u64 = 11;

/// Fresh child processes per end-to-end number (the median is reported,
/// all values are kept).
pub const TRIALS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Open or closed loop, with client counts (README table).
    pub load: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solar_4k_fanin",
        why: "One 4 KiB block = one packet, 32 writers into 8 servers: per-packet cost dominates, so ebs-sim's queue and ebs-net's fabric do most of the work and the transport least.",
        load: "closed loop, 32 compute x fio depth 8 x 4 KiB, 100 % write",
    },
    Workload {
        name: "luna_128k_rw",
        why: "Long MTU-segment TCP flows with reads beside writes (392 events per I/O): same queue and fabric used differently, and the only workload on ebs-tcp/ebs-luna and the PCIe hairpin.",
        load: "closed loop, 4 compute x fio depth 4 x 128 KiB, 30 % reads",
    },
    Workload {
        name: "solar_faulted_rw",
        why: "Whole cell off the fast path: ToR blackhole, spine fail-stop and heal, RED/ECN, QoS throttling, blk pushdown scans; no layer dominates and the ops_failed oracle (expected 0) is non-trivial.",
        load: "closed loop, 16 compute x fio depth 4 x 16 KiB, 30 % reads, plus one blk queue issuing a 64-block scan every 2 ms (open loop)",
    },
    Workload {
        name: "fleet_2w",
        why: "16 shards on 2 worker threads with cross-shard replication: the only workload where stack::sharded windows, mailboxes, barrier and thread scaling do any work; 20x larger route/volume working set.",
        load: "open loop, 640 compute each probing 16 KiB every 200 us (70 % reads), 192 storage replicating 8 blocks every 500 us across shards",
    },
    Workload {
        name: "dataplane_4k_rw",
        why: "No simulator: real bytes through blk ring, SA split, DPU pipeline, SOLAR client/responder, wire codec, CRC and ChaCha20. The inverse of solar_4k_fanin: ebs-sim and ebs-net do nothing here.",
        load: "closed loop, one host x depth 32 x 4 KiB, 70 % write / 30 % read over a 64 MiB pre-written working set, 1 packet in 1024 dropped",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// True when a fixed seed must reproduce the value exactly.
    pub exact: bool,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "host seconds from child-process start to end of warm-up (topology, route tables, volume provisioning, warm-up segment)",
    },
    EndToEnd {
        name: "ios_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        what: "guest I/Os completed in the timed segment per host second of that segment",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        what: "VmHWM of the trial child at exit",
    },
    EndToEnd {
        name: "sim_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        what: "median guest-visible I/O latency on the simulated (or virtual) clock, over I/Os completed in the timed segment",
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        exact: true,
        what: "99th percentile of the same latency sample",
    },
    EndToEnd {
        name: "sim_kiops",
        unit: "kio/s",
        better: Better::Higher,
        bound: 0.05,
        exact: true,
        what: "thousand guest I/Os completed per simulated (or virtual) second",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate measured.
    pub layer: &'static str,
    /// P phase cycles, O obs registry / engine counters, S benchmark
    /// spans, W untraced wall, A counting allocator.
    pub source: char,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: char,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 56] = [
    // ebs-sim
    pl(
        "sim.events",
        "count",
        Lower,
        "ebs-sim",
        'O',
        "ios_per_s on every simulator workload, most on solar_4k_fanin",
    ),
    pl(
        "sim.events_per_io",
        "count",
        Lower,
        "ebs-sim",
        'O',
        "ios_per_s on every simulator workload",
    ),
    pl(
        "sim.max_queued",
        "count",
        Lower,
        "ebs-sim",
        'O',
        "peak_rss_mib on fleet_2w",
    ),
    pl(
        "sim.ns_per_event",
        "ns",
        Lower,
        "ebs-sim",
        'W',
        "ios_per_s on every simulator workload",
    ),
    pl(
        "sim.pop_share",
        "ratio",
        Lower,
        "ebs-sim",
        'P',
        "ios_per_s, most on solar_4k_fanin; none on dataplane_4k_rw",
    ),
    // ebs-net
    pl(
        "net.share",
        "ratio",
        Lower,
        "ebs-net",
        'P',
        "ios_per_s on solar_4k_fanin and luna_128k_rw",
    ),
    pl(
        "net.delivered",
        "count",
        Lower,
        "ebs-net",
        'O',
        "ios_per_s on the simulator workloads",
    ),
    pl(
        "net.drops",
        "count",
        Lower,
        "ebs-net",
        'O',
        "sim_p99_us on solar_4k_fanin, ops_failed on solar_faulted_rw",
    ),
    pl(
        "net.route_cache_hit_ratio",
        "ratio",
        Higher,
        "ebs-net",
        'O',
        "ios_per_s on solar_faulted_rw (invalidation) and fleet_2w (working set)",
    ),
    pl(
        "net.max_queue_kib",
        "KiB",
        Lower,
        "ebs-net",
        'O',
        "sim_p99_us on solar_4k_fanin",
    ),
    pl(
        "net.ecn_marked",
        "count",
        Lower,
        "ebs-net",
        'O',
        "sim_p99_us on solar_faulted_rw",
    ),
    // ebs-solar (+ ebs-cc)
    pl(
        "solar.pkts_sent",
        "count",
        Lower,
        "ebs-solar",
        'O',
        "ios_per_s on the SOLAR workloads",
    ),
    pl(
        "solar.retransmit_ratio",
        "ratio",
        Lower,
        "ebs-solar",
        'O',
        "sim_p99_us and ops_failed on solar_faulted_rw",
    ),
    pl(
        "solar.timeouts",
        "count",
        Lower,
        "ebs-solar",
        'O',
        "sim_p99_us on solar_faulted_rw",
    ),
    pl(
        "solar.path_failovers",
        "count",
        Lower,
        "ebs-solar",
        'O',
        "ops_failed on solar_faulted_rw",
    ),
    pl(
        "solar.rpcs_failed",
        "count",
        Lower,
        "ebs-solar",
        'O',
        "ops_failed on solar_faulted_rw",
    ),
    pl(
        "solar.client_ns_per_pkt",
        "ns",
        Lower,
        "ebs-solar",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    pl(
        "solar.responder_ns_per_pkt",
        "ns",
        Lower,
        "ebs-solar",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    // ebs-tcp / ebs-luna
    pl(
        "tcp.segs_per_io",
        "count",
        Lower,
        "ebs-tcp",
        'O',
        "ios_per_s and sim_p50_us on luna_128k_rw only",
    ),
    pl(
        "tcp.acks_per_seg",
        "ratio",
        Lower,
        "ebs-tcp",
        'O',
        "ios_per_s on luna_128k_rw only",
    ),
    pl(
        "tcp.retransmit_ratio",
        "ratio",
        Lower,
        "ebs-tcp",
        'O',
        "sim_p99_us on luna_128k_rw only",
    ),
    pl(
        "luna.rpc_decode_errors",
        "count",
        Lower,
        "ebs-luna",
        'O',
        "ops_failed on luna_128k_rw only",
    ),
    // ebs-stack
    pl(
        "stack.pump_share",
        "ratio",
        Lower,
        "ebs-stack",
        'P',
        "ios_per_s on the flat cells",
    ),
    pl(
        "stack.deliver_share",
        "ratio",
        Lower,
        "ebs-stack",
        'P',
        "ios_per_s on the flat cells",
    ),
    pl(
        "stack.host_share",
        "ratio",
        Lower,
        "ebs-stack",
        'P',
        "ios_per_s on the flat cells",
    ),
    pl(
        "stack.sharded.windows",
        "count",
        Lower,
        "ebs-stack",
        'O',
        "ios_per_s on fleet_2w only",
    ),
    pl(
        "stack.sharded.exchanged_msgs",
        "count",
        Lower,
        "ebs-stack",
        'O',
        "ios_per_s on fleet_2w only",
    ),
    pl(
        "stack.sharded.stall_share",
        "ratio",
        Lower,
        "ebs-stack",
        'W',
        "ios_per_s on fleet_2w only",
    ),
    pl(
        "stack.sharded.occupancy_max_share",
        "ratio",
        Lower,
        "ebs-stack",
        'W',
        "ios_per_s on fleet_2w only (straggler shard)",
    ),
    pl(
        "stack.sharded.parallel_ratio",
        "ratio",
        Higher,
        "ebs-stack",
        'W',
        "ios_per_s on fleet_2w only",
    ),
    // ebs-dpu
    pl(
        "dpu.cpu_consumed_cores",
        "cores",
        Lower,
        "ebs-dpu",
        'O',
        "sim_kiops and sim_p50_us on luna_128k_rw",
    ),
    pl(
        "dpu.pcie_internal_mib",
        "MiB",
        Lower,
        "ebs-dpu",
        'O',
        "sim_kiops and sim_p50_us on luna_128k_rw (PCIe hairpin)",
    ),
    pl(
        "dpu.pipeline_ns_per_block",
        "ns",
        Lower,
        "ebs-dpu",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    // ebs-sa
    pl(
        "sa.qos_throttled_share",
        "ratio",
        Lower,
        "ebs-sa",
        'O',
        "sim_p99_us on solar_faulted_rw",
    ),
    pl(
        "sa.qos_delay_us_per_io",
        "us",
        Lower,
        "ebs-sa",
        'O',
        "sim_kiops on solar_faulted_rw",
    ),
    pl(
        "sa.split_ns_per_io",
        "ns",
        Lower,
        "ebs-sa",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    // ebs-storage
    pl(
        "storage.reads",
        "count",
        Lower,
        "ebs-storage",
        'O',
        "sim_p50_us on read-carrying workloads; conservation against ops_attempted",
    ),
    pl(
        "storage.writes",
        "count",
        Lower,
        "ebs-storage",
        'O',
        "conservation against ops_attempted",
    ),
    pl(
        "storage.ops_per_io",
        "count",
        Lower,
        "ebs-storage",
        'O',
        "sim_p50_us (SOLAR: blocks per I/O, LUNA: sub-I/O RPCs per I/O)",
    ),
    // ebs-crc / ebs-crypto / ebs-wire
    pl(
        "crc.ns_per_block",
        "ns",
        Lower,
        "ebs-crc",
        'S',
        "ios_per_s on dataplane_4k_rw; none on simulator cells",
    ),
    pl(
        "crc.aggregate_ns_per_segment",
        "ns",
        Lower,
        "ebs-crc",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    pl(
        "crypto.ns_per_block",
        "ns",
        Lower,
        "ebs-crypto",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    pl(
        "wire.pool_ns_per_buf",
        "ns",
        Lower,
        "ebs-wire",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    pl(
        "wire.codec_ns_per_hdr",
        "ns",
        Lower,
        "ebs-wire",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    pl(
        "wire.pool_reuse_ratio",
        "ratio",
        Higher,
        "ebs-wire",
        'O',
        "ios_per_s and peak_rss_mib on dataplane_4k_rw",
    ),
    // ebs-blk
    pl(
        "blk.requests",
        "count",
        Lower,
        "ebs-blk",
        'O',
        "conservation on solar_faulted_rw and dataplane_4k_rw",
    ),
    pl(
        "blk.retransmits",
        "count",
        Lower,
        "ebs-blk",
        'O',
        "ops_failed on solar_faulted_rw",
    ),
    pl(
        "blk.data_mib",
        "MiB",
        Lower,
        "ebs-blk",
        'O',
        "sim_p99_us on solar_faulted_rw",
    ),
    pl(
        "blk.req_p90_us",
        "us",
        Lower,
        "ebs-blk",
        'O',
        "pushdown latency on solar_faulted_rw",
    ),
    pl(
        "blk.ring_ns_per_req",
        "ns",
        Lower,
        "ebs-blk",
        'S',
        "ios_per_s on dataplane_4k_rw",
    ),
    // ebs-obs and the harness itself
    pl(
        "obs.journal_events",
        "count",
        Lower,
        "ebs-obs",
        'O',
        "peak_rss_mib on the simulator workloads",
    ),
    pl(
        "obs.journal_dropped",
        "count",
        Lower,
        "ebs-obs",
        'O',
        "ios_per_s on the simulator workloads",
    ),
    pl(
        "host.allocs_per_io",
        "count",
        Lower,
        "harness",
        'A',
        "ios_per_s and peak_rss_mib everywhere",
    ),
    pl(
        "host.alloc_bytes_per_io",
        "B",
        Lower,
        "harness",
        'A',
        "ios_per_s and peak_rss_mib everywhere",
    ),
    pl(
        "host.layers_self_share",
        "ratio",
        Higher,
        "harness",
        'S',
        "share of dataplane_4k_rw's timed wall spent inside the layers under test, not the harness",
    ),
    pl(
        "trace.overhead_share",
        "ratio",
        Lower,
        "harness",
        'W',
        "the cost of looking: (traced - untraced wall) / untraced",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The argv the driver runs from the root of a checkout, before it
/// appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "bench",
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    Json::obj()
        .with(
            "command",
            COMMAND.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.label())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.label())
                })
                .collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!("POSWA".contains(m.source), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn setup_time_is_a_metric_and_has_the_largest_bound() {
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `ebs-benchmark manifest --write`"
        );
        for s in COMMAND {
            assert!(s.len() <= 200 && !s.starts_with('/') && !s.contains(".."));
        }
    }
}
