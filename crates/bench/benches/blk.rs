//! `cargo bench -p ebs-bench --bench blk` runs the pushdown placement
//! matrix (see [`ebs_bench::blk`]) and checks it against the
//! committed `BENCH_BLK.json` like every suite ([`ebs_bench::suite_main`]),
//! plus the rendered table at `target/blk-table.txt` for CI to upload.
//!
//! Flags:
//! * `--quick` (or the harness's `--test` flag) runs the CI-sized cells;
//!   the committed baseline is a quick run (a full-size run is written
//!   to `target/blk.json` instead);
//! * `--replay-check` runs the quick matrix twice and asserts the two
//!   JSON reports are byte-identical (seed-replay determinism across
//!   every placement) before the check.

fn main() {
    ebs_bench::suite_main("blk", "BENCH_BLK.json", ebs_bench::blk::run_blk_report);
}
