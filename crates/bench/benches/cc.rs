//! `cargo bench -p ebs-bench --bench cc` runs the congestion-control
//! comparison matrix (see [`ebs_bench::cc`]) and checks it against the
//! committed `BENCH_CC.json` like every suite ([`ebs_bench::suite_main`]),
//! plus the rendered table at `target/cc-table.txt` for CI to upload.
//!
//! Flags:
//! * `--quick` (or the harness's `--test` flag) runs the CI-sized cells;
//!   the committed baseline is a quick run (a full-size run is written
//!   to `target/cc.json` instead);
//! * `--replay-check` runs the quick matrix twice and asserts the two
//!   JSON reports are byte-identical (seed-replay determinism across
//!   every controller) before the check.

fn main() {
    ebs_bench::suite_main("cc", "BENCH_CC.json", ebs_bench::cc::run_cc_report);
}
