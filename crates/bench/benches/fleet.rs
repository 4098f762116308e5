//! `cargo bench -p ebs-bench --bench fleet` runs the sharded-engine
//! fleet suite (see [`ebs_bench::fleet`]) and writes `BENCH_FLEET.json`
//! at the repository root — same schema as `BENCH_RESULTS.json`, gated
//! by the same `scripts/bench_compare.py` tolerances.
//!
//! Flags:
//! * `--smoke` (or the harness's `--test` flag) runs only the
//!   `fleet_smoke` cell and writes nothing — the fast local/per-test
//!   loop; the CI job runs the full suite so the 10k-fleet and speedup
//!   cells stay gated;
//! * `--threads N` sets the 10k fleet's worker count (default 1 —
//!   metrics are identical for any value, only wall-clock moves);
//! * `--profile` prints the per-shard occupancy table for the smoke
//!   fleet before the suite (the shard-level analogue of the
//!   experiments bench's phase profile);
//! * `--cell N` (internal) runs one `fleet_speedup` cell with N shards
//!   and prints a parsable result line — `fleet_speedup` re-execs this
//!   binary with it so every cell is measured from a fresh process.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Child-process mode: measure one speedup cell and exit. Must be
    // handled before anything that prints to stdout — the parent parses
    // this process's stdout.
    if let Some(n_shards) = args
        .iter()
        .position(|a| a == "--cell")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
    {
        ebs_bench::fleet::speedup_cell_main(n_shards);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--test");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    if args.iter().any(|a| a == "--profile") {
        let fleet = ebs_bench::fleet::profile_smoke_fleet();
        ebs_bench::fleet::profile_shards(&fleet);
    }

    if smoke {
        let report = ebs_bench::fleet::fleet_smoke();
        println!("{}", report.output.render());
        let ok = report
            .metrics
            .iter()
            .any(|(k, v)| k == "determinism_ok" && *v == 1.0);
        assert!(ok, "fleet_smoke: thread-count determinism violated");
        eprintln!("fleet smoke OK in {:.1}s (no JSON written)", report.wall_s);
        return;
    }

    ebs_bench::suite_main("fleet", "BENCH_FLEET.json", |_quick| {
        ebs_bench::fleet::run_fleet_report(threads)
    });
}
