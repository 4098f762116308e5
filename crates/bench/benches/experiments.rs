//! `cargo bench -p ebs-bench --bench experiments` regenerates EVERY
//! figure and table of the paper's evaluation and prints paper-style
//! rows. This is a plain binary (harness = false): the "benchmark" is the
//! experiment suite itself, not a statistical timing loop — Criterion
//! micro-benchmarks live in `micro.rs`.
//!
//! Flags:
//! * `--quick` (or the bench-harness's `--test` flag that `cargo test
//!   --benches` passes) shrinks run lengths;
//! * `--serial` disables the multi-threaded harness (the printed output
//!   is byte-identical either way; only the wall-clock differs);
//! * `--profile` runs one instrumented Luna and Solar testbed cell
//!   before the suite and prints the per-phase cycle breakdown (event
//!   pop / fabric / delivery / transport pump / host) — where the
//!   suite's cycles actually go, for perf work. Instrumentation roughly
//!   doubles the cell's wall time, so read the *shares*, not the sums;
//!   the suite that follows runs uninstrumented and is unaffected.
//!
//! Each run writes `BENCH_RESULTS.json` at the repository root with
//! per-experiment wall-clock and headline numbers.

/// One instrumented testbed cell per variant; prints the phase shares.
fn profile_cells(quick: bool) {
    use ebs_sim::SimTime;
    use ebs_stack::{FioConfig, Testbed, TestbedConfig, Variant};
    let horizon = SimTime::from_secs(if quick { 1 } else { 3 });
    for variant in [Variant::Luna, Variant::Solar] {
        let mut cfg = TestbedConfig::small(variant, 4, 3);
        cfg.seed = 42;
        let mut tb = Testbed::new(cfg);
        tb.enable_profiling();
        for c in 0..4 {
            tb.attach_fio(
                SimTime::from_millis(1),
                c,
                FioConfig {
                    depth: 2,
                    bytes: 16 * 1024,
                    read_fraction: 0.2,
                },
            );
        }
        tb.run_until(horizon);
        let p = tb.phase_cycles().expect("profiling enabled");
        let total = (p.pop_ns + p.net_ns + p.deliver_ns + p.pump_ns + p.host_ns).max(1);
        let share = |ns: u64| ns as f64 / total as f64 * 100.0;
        eprintln!(
            "profile {variant:?}: {} events, per-event {:.0}ns instrumented",
            p.events,
            total as f64 / p.events.max(1) as f64
        );
        eprintln!(
            "  pop {:5.1}%  net {:5.1}%  deliver {:5.1}%  pump {:5.1}%  host {:5.1}%",
            share(p.pop_ns),
            share(p.net_ns),
            share(p.deliver_ns),
            share(p.pump_ns),
            share(p.host_ns)
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let serial = args.iter().any(|a| a == "--serial");
    if args.iter().any(|a| a == "--profile") {
        profile_cells(quick);
    }
    ebs_bench::suite_main("experiments", "BENCH_RESULTS.json", |quick| {
        ebs_bench::run_report(quick, !serial)
    });
    // Diagnostic artifacts (Perfetto trace + metrics snapshot) from a
    // representative SOLAR run — separate from BENCH_RESULTS.json so the
    // headline metrics stay byte-identical with observability off.
    if ebs_obs::ENABLED {
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
}
