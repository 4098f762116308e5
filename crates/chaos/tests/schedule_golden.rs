//! Golden pins for schedule generation. `schedule.golden.txt` holds
//! `Schedule::to_json()` for fixed seeds of four envelopes, one
//! `name seed N: json` line each. Run-to-run equality
//! (`tests/determinism.rs`) cannot see a change in the RNG draw order or
//! in the rendering; this pin can. Together the cases name every fault
//! class, and the incast and blk envelopes pin their own fields.
//!
//! Re-pin only when a drift is intended: `EBS_BLESS=1 cargo test -p
//! ebs-chaos --test schedule_golden`.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::path::Path;

use ebs_cc::CcAlgo;
use ebs_chaos::{BlkChaosConfig, ChaosConfig, Schedule};
use ebs_stack::Variant;

const CLASSES: [&str; 8] = [
    "fail_stop",
    "reboot",
    "blackhole",
    "random_loss",
    "qos_throttle",
    "storage_slowdown",
    "pcie_stall",
    "bit_flip",
];

#[test]
fn generated_schedules_match_the_committed_renderings() {
    let mut blk = ChaosConfig::smoke(Variant::Solar);
    blk.blk = Some(BlkChaosConfig::default());
    let cases: [(&str, ChaosConfig, u64); 4] = [
        ("smoke luna", ChaosConfig::smoke(Variant::Luna), 8),
        ("soak solar", ChaosConfig::soak(Variant::Solar), 8),
        ("incast dcqcn", ChaosConfig::incast_soak(CcAlgo::Dcqcn), 4),
        ("smoke solar blk", blk, 4),
    ];
    let mut rendered = String::new();
    for (name, cfg, seeds) in cases {
        for seed in 0..seeds {
            let json = Schedule::generate(seed, &cfg).to_json();
            rendered.push_str(&format!("{name} seed {seed}: {json}\n"));
        }
    }
    for class in CLASSES {
        assert!(
            rendered.contains(&format!("\"class\":\"{class}\"")),
            "no pinned schedule has a {class} fault"
        );
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/schedule.golden.txt");
    if let Err(e) = pin::check(&golden, &rendered) {
        panic!("{e}");
    }
}
