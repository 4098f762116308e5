//! Golden pins for the flat chaos path. `run_schedule` is the 1-shard
//! case of the fleet runner; `flat.golden.txt` holds each schedule's
//! verdicts and obs metrics snapshot, one `name seed N: verdicts` line
//! followed by one metric per line. They are what makes "the one-shard
//! fleet *is* the flat testbed" a checked claim rather than an argued
//! one — for every envelope, every variant and the blk pushdown
//! frontend, down to the clock-dependent utilization gauges in the
//! metrics snapshot.
//!
//! Re-pin only when a drift is intended: `EBS_BLESS=1 cargo test -p
//! ebs-chaos --test flat_golden`. EXPERIMENTS.md keeps what moved each
//! time.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::path::Path;

use ebs_cc::CcAlgo;
use ebs_chaos::{run_schedule, BlkChaosConfig, ChaosConfig, FaultWeights, Schedule};
use ebs_stack::Variant;

/// The loss-only pushdown envelope of `tests/blk_pushdown.rs`
/// (`lossy_blk_cfg(StorageNode)`), restated because integration tests
/// cannot import each other.
fn lossy_blk_cfg() -> ChaosConfig {
    let mut cfg = ChaosConfig::smoke(Variant::Solar);
    cfg.weights = FaultWeights {
        fail_stop: 0,
        reboot: 0,
        blackhole: 1,
        random_loss: 1,
        qos_throttle: 0,
        storage_slowdown: 0,
        pcie_stall: 0,
        bit_flip: 0,
    };
    cfg.blk = Some(BlkChaosConfig::default());
    cfg
}

#[test]
fn flat_outcomes_match_the_committed_renderings() {
    let cases: [(&str, ChaosConfig, u64); 6] = [
        ("smoke luna", ChaosConfig::smoke(Variant::Luna), 3),
        ("smoke solar", ChaosConfig::smoke(Variant::Solar), 42),
        ("smoke rdma", ChaosConfig::smoke(Variant::Rdma), 3),
        ("soak solar", ChaosConfig::soak(Variant::Solar), 7),
        ("incast dcqcn", ChaosConfig::incast_soak(CcAlgo::Dcqcn), 5),
        ("blk storage-node", lossy_blk_cfg(), 0),
    ];
    let mut rendered = String::new();
    for (name, cfg, seed) in cases {
        let o = run_schedule(&Schedule::generate(seed, &cfg));
        assert!(o.ok(), "{name} seed {seed}: {}", o.verdicts_json());
        assert_eq!(o.corrupt_caught, o.corrupt_planted, "{name} seed {seed}");
        rendered.push_str(&format!(
            "{name} seed {seed}: {}\n{}",
            o.verdicts_json(),
            o.metrics_json
        ));
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/flat.golden.txt");
    if let Err(e) = pin::check(&golden, &rendered) {
        panic!("{e}");
    }
}
