//! The committed `BENCH_BLK.json` / `BENCH_CC.json` are current: the two
//! sub-second suites regenerate them byte for byte. This is the cheap
//! half of the CI gate (regenerate in place, then `git diff --exit-code
//! -- BENCH_*.json`), which is only possible because a report holds
//! simulation output and no host time.

use luna_solar::bench::{blk::run_blk_report, cc::run_cc_report, RunReport};

fn assert_current(report: RunReport, file: &str) {
    let json = report.to_json();
    for key in ["wall", "\"parallel\""] {
        assert!(!json.contains(key), "{file}: host-time key {key} is back");
    }
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed baseline");
    assert_eq!(
        json, committed,
        "{file} is stale: regenerate it with the suite's `cargo bench` target"
    );
}

#[test]
fn blk_baseline_is_current() {
    assert_current(run_blk_report(true), "BENCH_BLK.json");
}

#[test]
fn cc_baseline_is_current() {
    assert_current(run_cc_report(true), "BENCH_CC.json");
}
