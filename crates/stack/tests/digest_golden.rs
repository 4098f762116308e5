//! Golden pins of [`Testbed::metrics_digest`] for every data-path variant,
//! on and off the fast path.
//!
//! The digest covers event counts (`events=processed/scheduled`), fabric
//! delivery/drop/route-cache totals, per-compute progress, every I/O
//! trace field, the obs journal and the blk frontend — so the committed
//! rendering, one `cell: digest` entry per cell in `digest.golden.txt`,
//! proves a host-layer change added, removed, reordered or re-timed
//! nothing, and on drift names the cell and the field that moved.
//! `crates/chaos/tests/flat_golden.rs` pins three variants through the
//! chaos runner; these cells add Kernel and SOLAR*, `sa_enabled = false`,
//! `vds_per_compute > 1`, a segment-straddling I/O, the ECN/DCQCN/Swift
//! knobs under RDMA and LUNA, a probe driver and a replicated two-shard
//! fleet.
//!
//! Re-pin only when a drift is intended: `EBS_BLESS=1 cargo test -p
//! ebs-stack --test digest_golden`, then say why in CHANGES.md (the
//! "Rebasing" paragraph of EXPERIMENTS.md has the whole recipe).

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::path::Path;

use ebs_net::{DeviceKind, FailureMode};
use ebs_sa::{IoKind, IoRequest, QosSpec, BLOCK_SIZE, SEGMENT_BLOCKS};
use ebs_sim::{Bandwidth, SimDuration, SimTime};
use ebs_stack::blk::{BlkReq, Predicate, PushdownPlacement, StorageFn};
use ebs_stack::{
    BlkMountConfig, FioConfig, Msg, ReplicationConfig, ShardedTestbed, ShardedTestbedConfig,
    Testbed, TestbedConfig, Variant,
};

const VARIANTS: [Variant; 5] = [
    Variant::Kernel,
    Variant::Luna,
    Variant::Rdma,
    Variant::SolarStar,
    Variant::Solar,
];

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// Closed-loop fio on every compute server: mixed reads and writes of
/// `bytes`, doubled and quadrupled on every second and third server so
/// packets per I/O differ across them.
fn attach_mix(tb: &mut Testbed, bytes: u32) {
    for c in 0..tb.config().n_compute {
        tb.attach_fio(
            ms(1),
            c,
            FioConfig {
                depth: 4,
                bytes: bytes << (c % 3),
                read_fraction: 0.5,
            },
        );
    }
}

/// One write and one read that straddle the first segment boundary of
/// compute 0's disk (so each splits into two sub-I/Os on two servers).
fn straddlers(tb: &mut Testbed) {
    for (at, kind) in [(2, IoKind::Write), (3, IoKind::Read)] {
        tb.schedule_io(
            ms(at),
            0,
            IoRequest {
                vd_id: 0,
                kind,
                offset: (SEGMENT_BLOCKS - 2) * BLOCK_SIZE as u64,
                len: 4 * BLOCK_SIZE,
            },
        );
    }
}

/// Clean cell: fio mix + the straddlers, drained to quiescence.
fn clean(variant: Variant, sa_enabled: bool) -> String {
    let mut cfg = TestbedConfig::small(variant, 3, 3);
    cfg.sa_enabled = sa_enabled;
    cfg.seed = 11;
    let mut tb = Testbed::new(cfg);
    attach_mix(&mut tb, 4096);
    straddlers(&mut tb);
    tb.schedule_stop_fio(ms(12));
    tb.run_until(ms(20));
    tb.metrics_digest(ms(20))
}

/// Faulted cell: the whole testbed off the fast path — ECN marking on a
/// shallow RED ramp (with DCQCN under RDMA and SOLAR, Swift in LUNA's
/// TCP), a ToR blackhole, a spine fail-stop that heals, QoS throttles
/// that lift, a PCIe stall, a slow storage server, and a block-frontend
/// mount issuing ring reads/writes plus one storage-node pushdown scan
/// across a segment boundary while the blackhole is active.
fn faulted(variant: Variant) -> Testbed {
    let mut cfg = TestbedConfig::small(variant, 4, 3);
    cfg.seed = 23;
    cfg.ecn.enabled = true;
    cfg.ecn.kmin_bytes = 4 * 1024;
    cfg.ecn.kmax_bytes = 32 * 1024;
    match variant {
        Variant::Rdma => cfg.rdma.dcqcn = true,
        Variant::Luna => cfg.tcp_swift = true,
        Variant::Solar => cfg.solar.cc = ebs_cc::CcAlgo::Dcqcn,
        Variant::Kernel | Variant::SolarStar => {}
    }
    let mut tb = Testbed::new(cfg);
    attach_mix(&mut tb, 16384);
    straddlers(&mut tb);

    let tor = tb.fabric().topology().devices_of_kind(DeviceKind::Tor)[0];
    let spine = tb.fabric().topology().devices_of_kind(DeviceKind::Spine)[0];
    tb.schedule_failure(
        ms(3),
        tor,
        FailureMode::Blackhole {
            fraction: 0.5,
            salt: 7,
        },
    );
    tb.schedule_heal(ms(24), tor);
    tb.schedule_failure_with(
        ms(5),
        spine,
        FailureMode::FailStop,
        SimDuration::from_millis(2),
    );
    tb.schedule_heal(ms(14), spine);
    for c in [1, 3] {
        tb.schedule_qos(
            ms(6),
            c,
            QosSpec {
                iops: 20_000,
                bandwidth: Bandwidth::from_mbps(2_000),
                burst_secs: 0.0001,
            },
        );
        tb.schedule_qos(ms(18), c, QosSpec::unlimited());
    }
    tb.schedule_pcie_stall(ms(7), 2, SimDuration::from_micros(30));
    tb.schedule_pcie_stall(ms(16), 2, SimDuration::ZERO);
    tb.schedule_storage_degrade(ms(8), 1, 4.0);
    tb.schedule_storage_degrade(ms(17), 1, 1.0);

    tb.blk_mount(
        3,
        BlkMountConfig::with_placement(PushdownPlacement::StorageNode),
    )
    .expect("negotiation");
    let scan = StorageFn::scan(Predicate {
        offset: 0,
        mask: 0x0F,
        value: 0x07,
    });
    tb.schedule_blk(ms(9), 3, 0, BlkReq::write(3, 16, 8));
    tb.schedule_blk(ms(10), 3, 1, BlkReq::read(3, 16, 8));
    tb.schedule_blk(
        ms(10),
        3,
        0,
        BlkReq::pushdown(3, SEGMENT_BLOCKS - 32, 64, scan),
    );
    tb.schedule_blk(ms(11), 3, 1, BlkReq::flush(3));

    tb.schedule_stop_fio(ms(30));
    tb.run_until(FAULTED_END);
    tb
}

const FAULTED_END: SimTime = SimTime::from_millis(45);

/// Open-loop probes over four disks per server (the fleet's per-VM
/// trickle), one cell per transport family.
fn probes(variant: Variant) -> String {
    let mut cfg = TestbedConfig::small(variant, 3, 4);
    cfg.vds_per_compute = 4;
    cfg.seed = 5;
    let mut tb = Testbed::new(cfg);
    for c in 0..3 {
        tb.attach_probe(ms(1), c, SimDuration::from_micros(150), 8192, 0.5);
    }
    tb.attach_fio(
        ms(1),
        0,
        FioConfig {
            depth: 2,
            bytes: 16384,
            read_fraction: 0.25,
        },
    );
    tb.run_until(ms(12));
    tb.metrics_digest(ms(12))
}

/// Two replicated shards with four disks per server, probes and fio, and
/// a blackhole in shard 1 — on one thread and on two.
fn fleet(threads: usize) -> String {
    let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 8, 8, 2);
    cfg.base.vds_per_compute = 4;
    cfg.base.seed = 9;
    cfg.threads = threads;
    cfg.replication = Some(ReplicationConfig {
        start: ms(1),
        interval: SimDuration::from_micros(200),
        blocks: 4,
    });
    let mut fleet = ShardedTestbed::new(cfg);
    for s in 0..fleet.shards() {
        let tb = fleet.shard_mut(s);
        for c in 0..tb.config().n_compute {
            tb.attach_probe(ms(1), c, SimDuration::from_micros(300), 4096, 0.5);
        }
        tb.attach_fio(
            ms(1),
            0,
            FioConfig {
                depth: 2,
                bytes: 8192,
                read_fraction: 0.5,
            },
        );
    }
    let tb = fleet.shard_mut(1);
    let tor = tb.fabric().topology().devices_of_kind(DeviceKind::Tor)[0];
    tb.schedule_failure(
        ms(4),
        tor,
        FailureMode::Blackhole {
            fraction: 0.5,
            salt: 3,
        },
    );
    fleet.run_until(ms(15));
    fleet.metrics_digest()
}

#[test]
fn digests_match_the_committed_renderings() {
    let mut cells = String::new();
    let mut cell = |name: String, digest: String| cells.push_str(&format!("{name}: {digest}\n"));
    for v in VARIANTS {
        cell(format!("clean {}", v.label()), clean(v, true));
        cell(format!("bare {}", v.label()), clean(v, false));
        cell(
            format!("faulted {}", v.label()),
            faulted(v).metrics_digest(FAULTED_END),
        );
    }
    for v in [Variant::Luna, Variant::Rdma, Variant::Solar] {
        cell(format!("probes {}", v.label()), probes(v));
    }
    cell("fleet 1 thread".into(), fleet(1));
    cell("fleet 2 threads".into(), fleet(2));
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/digest.golden.txt");
    if let Err(e) = pin::check(&golden, &cells) {
        panic!("{e}");
    }
}

/// The cells must exercise what they claim to: completions, ECN marks,
/// fail-stop and blackhole drops, throttled admissions and a two-part
/// pushdown that had to retransmit in every faulted cell.
#[test]
fn cells_are_not_vacuous() {
    for v in VARIANTS {
        let tb = faulted(v);
        assert!(tb.fabric().ecn_marked() > 0, "{v:?}: ECN marks");
        let throttled: u64 = (0..4).map(|c| tb.qos_stats(c).1).sum();
        assert!(throttled > 0, "{v:?}: throttled admissions");
        assert!(tb.blk_counters().retransmits > 0, "{v:?}: pushdown RTO");
        let d = tb.metrics_digest(FAULTED_END);
        let field = |key: &str| -> String {
            let at = d
                .find(key)
                .unwrap_or_else(|| panic!("{key} missing in {d}"));
            d[at + key.len()..]
                .split(' ')
                .next()
                .unwrap_or_default()
                .to_string()
        };
        let drops: Vec<u64> = field(" drops=")
            .split('/')
            .map(|x| x.parse().expect("drop count"))
            .collect();
        assert!(drops[0] > 0, "{v:?}: fail-stop drops in {d}");
        assert!(drops[1] > 0, "{v:?}: blackhole drops in {d}");
        assert!(
            field(" parts=").starts_with("2/"),
            "{v:?}: two-part scan in {d}"
        );
        assert!(field(" blk=").starts_with("4/"), "{v:?}: ring in {d}");
        assert_ne!(field(" ios="), "0", "{v:?}: completions in {d}");
    }
    assert_eq!(fleet(1), fleet(2), "thread count must not show");
}

/// `Msg` lives in the fabric's packet arena: a fatter one costs every
/// in-flight packet. Measured on the commit that introduced this file.
#[test]
fn fabric_message_did_not_grow() {
    assert!(
        std::mem::size_of::<Msg>() <= MSG_BYTES,
        "Msg grew to {} bytes",
        std::mem::size_of::<Msg>()
    );
}

const MSG_BYTES: usize = 88;
