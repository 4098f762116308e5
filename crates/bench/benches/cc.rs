//! `cargo bench -p ebs-bench --bench cc` runs the congestion-control
//! comparison matrix (see [`ebs_bench::cc`]) and writes `BENCH_CC.json`
//! at the repository root — same schema as `BENCH_RESULTS.json`, gated
//! the same way (regenerate, then `git diff --exit-code`) — plus the
//! rendered table at `target/cc-table.txt` for the CI artifact upload.
//!
//! Flags:
//! * `--quick` (or the harness's `--test` flag) runs the CI-sized cells;
//!   the committed baseline is a quick run, so the cc-matrix CI job uses
//!   this mode;
//! * `--replay-check` runs the quick matrix twice and asserts the two
//!   JSON reports are byte-identical (seed-replay determinism across
//!   every controller) before writing anything.

fn main() {
    ebs_bench::suite_main("cc", "BENCH_CC.json", ebs_bench::cc::run_cc_report);
}
