//! `cargo bench -p ebs-bench --bench fleet` runs the sharded-engine
//! fleet suite (see [`ebs_bench::fleet`]) and writes `BENCH_FLEET.json`
//! at the repository root — same schema as `BENCH_RESULTS.json`, gated
//! the same way (regenerate, then `git diff --exit-code`).
//!
//! Flags:
//! * `--smoke` (or the harness's `--test` flag) runs only the
//!   `fleet_smoke` cell and writes nothing — the fast local/per-test
//!   loop; the CI job runs the full suite so the 10k-fleet cell stays
//!   gated;
//! * `--threads N` sets the 10k fleet's worker count (default 1 —
//!   metrics are identical for any value).

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--test");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    if smoke {
        let report = ebs_bench::fleet::fleet_smoke();
        println!("{}", report.output.render());
        let ok = report
            .metrics
            .iter()
            .any(|(k, v)| k == "determinism_ok" && *v == 1.0);
        assert!(ok, "fleet_smoke: thread-count determinism violated");
        eprintln!("fleet smoke OK (no JSON written)");
        return;
    }

    ebs_bench::suite_main("fleet", "BENCH_FLEET.json", |_quick| {
        ebs_bench::fleet::run_fleet_report(threads)
    });
}
