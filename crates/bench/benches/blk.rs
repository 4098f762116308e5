//! `cargo bench -p ebs-bench --bench blk` runs the pushdown placement
//! matrix (see [`ebs_bench::blk`]) and writes `BENCH_BLK.json` at the
//! repository root — same schema as `BENCH_RESULTS.json`, gated
//! the same way (regenerate, then `git diff --exit-code`) — plus the
//! rendered table at `target/blk-table.txt` for the CI artifact upload.
//!
//! Flags:
//! * `--quick` (or the harness's `--test` flag) runs the CI-sized cells;
//!   the committed baseline is a quick run, so the blk CI job uses this
//!   mode;
//! * `--replay-check` runs the quick matrix twice and asserts the two
//!   JSON reports are byte-identical (seed-replay determinism across
//!   every placement) before writing anything.

fn main() {
    ebs_bench::suite_main("blk", "BENCH_BLK.json", ebs_bench::blk::run_blk_report);
}
