//! `cargo bench -p ebs-bench --bench experiments` regenerates EVERY
//! figure and table of the paper's evaluation and prints paper-style
//! rows. This is a plain binary (harness = false): the "benchmark" is the
//! experiment suite itself, not a statistical timing loop — Criterion
//! micro-benchmarks live in `micro.rs`, host-time measurement in
//! `benchmark/`.
//!
//! `--quick` (or the bench-harness's `--test` flag that `cargo test
//! --benches` passes) shrinks run lengths.
//!
//! Each run checks the headline numbers against the committed
//! `BENCH_RESULTS.json` ([`ebs_bench::suite_main`]).

fn main() {
    ebs_bench::suite_main("experiments", "BENCH_RESULTS.json", ebs_bench::run_report);
    // Diagnostic artifacts (Perfetto trace + metrics snapshot) from a
    // representative SOLAR run — separate from BENCH_RESULTS.json.
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test");
    let (trace, metrics, slowest) = ebs_bench::obs::export_solar_run(quick);
    let target = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    for (file, body) in [("obs-trace.json", &trace), ("obs-metrics.json", &metrics)] {
        let path = format!("{target}/{file}");
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if !slowest.is_empty() {
        eprint!("{slowest}");
    }
}
