//! `cargo bench -p ebs-bench --bench chaos` — the chaos soak: sweep
//! seeded fault schedules through both stacks until the wall budget
//! expires, shrinking and reporting any violation (plain binary,
//! harness = false; see EXPERIMENTS.md, "Chaos soak").
//!
//! Flags:
//! * `--replay <seed>` — regenerate and run exactly one seed, print its
//!   schedule and verdicts, exit nonzero on violation;
//! * `--stack luna|solar|both` — which data path(s) to drive (default
//!   both);
//! * `--soak` — use the nightly soak envelope (bigger testbed, longer
//!   faults) instead of the smoke envelope;
//! * `--incast [hpcc|swift|dcqcn|fixed]` — use the incast-soak envelope
//!   instead: SOLAR with ECN on, adversarial incast + microburst
//!   traffic, and the CC oracles (bounded queues, no livelock) armed
//!   for the named congestion controller (default hpcc);
//! * `--schedules <n>` — stop after n seeds per stack instead of on the
//!   wall budget;
//! * `--budget-secs <s>` — wall budget (default 60; 5 with `--quick`);
//! * `--quick` / `--test` — a seconds-long sweep, for `cargo test
//!   --benches`.
//!
//! Any violating seed is shrunk to a minimal repro and written to
//! `target/chaos-repro-<seed>.json` plus `-trace.json`.

use std::time::Instant;

use ebs_chaos::{run_schedule, shrink, write_repro, ChaosConfig, Schedule};
use ebs_stack::Variant;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn target_dir() -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")).to_path_buf()
}

/// Run one schedule; on violation, shrink it, write the repro artifacts
/// and return false.
fn certify(schedule: &Schedule, verbose: bool) -> bool {
    let outcome = run_schedule(schedule);
    if verbose {
        println!("schedule: {}", schedule.to_json());
        println!("verdicts: {}", outcome.verdicts_json());
    }
    if outcome.ok() {
        return true;
    }
    let label = schedule.variant.label();
    eprintln!(
        "seed {} violates under {label} ({} violations):",
        schedule.seed,
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("  {}", v.describe());
    }
    match shrink(schedule) {
        Some(s) => {
            eprintln!(
                "shrunk to {} fault event(s) in {} candidate runs",
                s.minimal.faults.len(),
                s.candidates_tried
            );
            if let Some(d) = &s.outcome.diagnosis {
                eprintln!("{d}");
            }
            match write_repro(&target_dir(), &s.minimal, &s.outcome) {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("wrote {}", p.display());
                    }
                }
                Err(e) => eprintln!("could not write repro: {e}"),
            }
        }
        None => eprintln!("original run no longer violates during shrink (flaky oracle?)"),
    }
    eprintln!(
        "replay: cargo bench -p ebs-bench --bench chaos -- --replay {} --stack {label}",
        schedule.seed
    );
    false
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let soak = args.iter().any(|a| a == "--soak");
    let incast = args.iter().position(|a| a == "--incast").map(|i| {
        match args
            .get(i + 1)
            .map(|s| s.to_ascii_lowercase())
            .as_deref()
            .unwrap_or("hpcc")
        {
            "swift" => ebs_cc::CcAlgo::Swift,
            "dcqcn" => ebs_cc::CcAlgo::Dcqcn,
            "fixed" => ebs_cc::CcAlgo::Fixed,
            _ => ebs_cc::CcAlgo::Hpcc,
        }
    });
    // The incast envelope is SOLAR-only (the CC trait lives behind the
    // SOLAR per-path state), so it overrides --stack.
    let stacks: Vec<Variant> = if incast.is_some() {
        vec![Variant::Solar]
    } else {
        match flag_value(&args, "--stack")
            .map(|s| s.to_ascii_lowercase())
            .as_deref()
        {
            Some("luna") => vec![Variant::Luna],
            Some("solar") => vec![Variant::Solar],
            _ => vec![Variant::Luna, Variant::Solar],
        }
    };
    let envelope = |v: Variant| {
        if let Some(cc) = incast {
            ChaosConfig::incast_soak(cc)
        } else if soak {
            ChaosConfig::soak(v)
        } else {
            ChaosConfig::smoke(v)
        }
    };

    if let Some(seed) = flag_value(&args, "--replay") {
        let seed: u64 = seed.parse().expect("--replay takes a u64 seed");
        let mut ok = true;
        for v in &stacks {
            println!("== replay seed {seed} under {} ==", v.label());
            ok &= certify(&Schedule::generate(seed, &envelope(*v)), true);
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    let max_schedules: u64 = flag_value(&args, "--schedules")
        .map(|s| s.parse().expect("--schedules takes a count"))
        .unwrap_or(u64::MAX);
    let budget_secs: u64 = flag_value(&args, "--budget-secs")
        .map(|s| s.parse().expect("--budget-secs takes seconds"))
        .unwrap_or(if quick { 5 } else { 60 });

    let start = Instant::now();
    let mut ran = 0u64;
    let mut failed = 0u64;
    'outer: for seed in 0.. {
        for v in &stacks {
            if ran >= max_schedules * stacks.len() as u64
                || start.elapsed().as_secs() >= budget_secs
            {
                break 'outer;
            }
            if !certify(&Schedule::generate(seed, &envelope(*v)), false) {
                failed += 1;
            }
            ran += 1;
        }
    }
    println!(
        "chaos {}: {ran} schedules over {:?} in {:.1}s, {failed} violating",
        match incast {
            Some(cc) => format!("incast-soak/{}", cc.name()),
            None if soak => "soak".to_string(),
            None => "smoke".to_string(),
        },
        stacks.iter().map(|v| v.label()).collect::<Vec<_>>(),
        start.elapsed().as_secs_f64()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
