//! The committed `BENCH_BLK.json` / `BENCH_CC.json` are current: the two
//! sub-second suites render them byte for byte. This is the cheap half of
//! the bench gate (each suite's `cargo bench` target checks its own file
//! the same way), possible only because a report holds simulation output
//! and no host time. `EBS_BLESS=1 cargo test --test bench_baselines`
//! re-pins both.

#[path = "support/pin.rs"]
mod pin;

use luna_solar::bench::{blk::run_blk_report, cc::run_cc_report, RunReport};

fn assert_current(report: RunReport, file: &str) {
    let json = report.to_json();
    for key in ["wall", "\"parallel\""] {
        assert!(!json.contains(key), "{file}: host-time key {key} is back");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    if let Err(e) = pin::check(&path, &json) {
        panic!("{e}");
    }
}

#[test]
fn blk_baseline_is_current() {
    assert_current(run_blk_report(true), "BENCH_BLK.json");
}

#[test]
fn cc_baseline_is_current() {
    assert_current(run_cc_report(true), "BENCH_CC.json");
}
