//! Golden pin of the HPCC ablation (quick mode). No bench gate reads
//! ablation output, yet its fixed-window arm is the one caller that
//! sets SOLAR's per-path line rate to anything but the default; the
//! rendered table in `hpcc_ablation.golden.txt` proves a change to the
//! congestion-control envelope left both arms where they were.
//!
//! Re-pin only when a drift is intended: `EBS_BLESS=1 cargo test -p
//! ebs-bench --test ablation_golden`.

#[path = "../../../tests/support/pin.rs"]
mod pin;

#[test]
fn hpcc_ablation_is_pinned() {
    let got = ebs_bench::ablations::hpcc_ablation(true).render();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/hpcc_ablation.golden.txt");
    if let Err(e) = pin::check(&path, &got) {
        panic!("{e}");
    }
}
