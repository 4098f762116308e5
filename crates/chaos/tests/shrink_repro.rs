//! Planted-violation shrinking: a schedule known to break LUNA (a long
//! full blackhole across every ToR, Table 2 row 1's worst case) must (a)
//! actually violate, (b) shrink deterministically to a minimal repro of
//! at most 3 fault events, and (c) emit `chaos-repro-<seed>.json`.

use ebs_chaos::{run_schedule, shrink, write_repro, DeviceTier, FaultEvent, FaultKind, Schedule};
use ebs_net::FailureMode;
use ebs_sim::SimDuration;
use ebs_stack::Variant;

/// LUNA's kernel TCP declares a connection dead after ~20 s of
/// consecutive RTOs; a 60 s full blackhole on every ToR guarantees the
/// in-flight I/Os hang forever — the genuine Table 2 "unanswered I/O".
fn planted() -> Schedule {
    let blackhole = |device_index: usize| FaultEvent {
        at: SimDuration::from_millis(10),
        heal_after: SimDuration::from_secs(60),
        kind: FaultKind::Fabric {
            tier: DeviceTier::Tor,
            device_index,
            mode: FailureMode::Blackhole {
                fraction: 1.0,
                salt: 0,
            },
            reboot: false,
        },
    };
    let mut faults: Vec<FaultEvent> = (0..4).map(blackhole).collect();
    // Benign riders the shrinker must strip away.
    faults.push(FaultEvent {
        at: SimDuration::from_millis(12),
        heal_after: SimDuration::from_millis(20),
        kind: FaultKind::StorageSlowdown {
            storage: 0,
            factor: 4.0,
        },
    });
    faults.push(FaultEvent {
        at: SimDuration::from_millis(14),
        heal_after: SimDuration::from_millis(20),
        kind: FaultKind::PcieStall {
            compute: 1,
            extra: SimDuration::from_micros(100),
        },
    });
    faults.push(FaultEvent {
        at: SimDuration::from_millis(8),
        heal_after: SimDuration::from_millis(20),
        kind: FaultKind::QosThrottle {
            compute: 0,
            iops: 1000,
            mbps: 800,
        },
    });
    faults.sort_by_key(|f| f.at);
    Schedule {
        seed: 0xBAD5EED,
        variant: Variant::Luna,
        n_compute: 2,
        n_storage: 2,
        fio_depth: 1,
        io_bytes: 4096,
        read_fraction: 0.5,
        horizon: SimDuration::from_millis(20),
        recovery_deadline: SimDuration::from_secs(2),
        quiesce_grace: SimDuration::from_millis(500),
        max_idle_queue: 1024,
        cc: ebs_cc::CcAlgo::Hpcc,
        ecn: false,
        incast: None,
        blk: None,
        faults,
    }
}

#[test]
fn planted_blackhole_shrinks_to_minimal_repro() {
    let schedule = planted();
    assert_eq!(schedule.faults.len(), 7);

    let first = run_schedule(&schedule);
    assert!(
        !first.ok(),
        "planted schedule should violate (LUNA hangs under a 60 s ToR blackhole)"
    );
    assert!(
        first
            .violations
            .iter()
            .any(|v| matches!(v.kind(), "io_lost" | "recovery_deadline")),
        "expected a lost or late I/O, got: {:?}",
        first.violations
    );

    let shrunk = shrink(&schedule).expect("violating schedule must shrink");
    assert!(
        shrunk.minimal.faults.len() <= 3,
        "minimal repro has {} fault events (> 3): {}",
        shrunk.minimal.faults.len(),
        shrunk.minimal.to_json()
    );
    assert!(
        shrunk.minimal.faults.iter().all(|f| matches!(
            f.kind,
            FaultKind::Fabric {
                mode: FailureMode::Blackhole { .. },
                ..
            }
        )),
        "only the blackholes can carry the violation: {}",
        shrunk.minimal.to_json()
    );
    assert!(!shrunk.outcome.ok(), "minimal repro must still violate");

    // Shrinking is deterministic: same input, same minimal schedule.
    let again = shrink(&schedule).expect("second shrink");
    assert_eq!(shrunk.minimal.to_json(), again.minimal.to_json());
    assert_eq!(shrunk.candidates_tried, again.candidates_tried);

    // And the repro artifact round-trips to disk.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-repro-test");
    let written =
        write_repro(&dir, &shrunk.minimal, &shrunk.outcome).expect("write repro artifacts");
    assert!(written[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .starts_with("chaos-repro-"));
    let body = std::fs::read_to_string(&written[0]).unwrap();
    assert!(body.contains("\"schedule\""));
    assert!(body.contains("\"violations_text\""));
    assert!(
        written.len() >= 2,
        "a violating run also emits the Chrome trace next to the repro"
    );
}
