//! The repo's performance contract: see `README.md` in this directory and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! ebs-benchmark run    [--seed N] [--seconds S] [--workload W] [--traced] [--out FILE]
//! ebs-benchmark bench  --workload W --seed N --seconds S --trace 0|1     (driver form)
//! ebs-benchmark agree  A.json B.json
//! ebs-benchmark manifest [--write]
//! ```

// Unsafe is confined to `alloc` (a forwarding `GlobalAlloc`).
#![deny(unsafe_code)]

mod agree;
#[allow(unsafe_code)]
mod alloc;
mod dataplane;
mod driver;
mod fleet;
mod json;
mod simcell;
mod spans;
mod spec;
mod stamp;
mod stats;
mod trial;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use trial::{TrialArgs, TrialResult};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {key}")),
        }
    }

    fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

/// Run one trial in this process (the hidden `trial` subcommand, and the
/// smoke tests).
fn run_trial(workload: &str, a: &TrialArgs) -> Result<TrialResult, String> {
    if let Some(r) = simcell::run(workload, a) {
        return Ok(r);
    }
    match workload {
        fleet::NAME => Ok(fleet::run(a)),
        dataplane::NAME => Ok(dataplane::run(a)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn workloads_selected(args: &Args) -> Result<Vec<&'static str>, String> {
    match args.value("--workload") {
        None => Ok(spec::WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => spec::workload(name)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload `{name}`")),
    }
}

fn seconds_arg(args: &Args) -> Result<f64, String> {
    let seconds: f64 = args.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    if seconds.is_finite() && (0.01..=600.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 0.01..=600"))
    }
}

fn cmd_trial(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("trial needs --workload")?;
    let a = TrialArgs {
        seed: args.parsed("--seed", spec::DEFAULT_SEED)?,
        seconds: seconds_arg(args)?,
        traced: args.value("--traced") == Some("1"),
        threads: args.parsed("--threads", 1)?,
        process_start,
    };
    println!("{}", run_trial(workload, &a)?.to_json().compact());
    Ok(ExitCode::SUCCESS)
}

/// The driver's form: one workload, one mode, one JSON line last.
fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    stamp::check_release_profile()?;
    let workload = args.value("--workload").ok_or("bench needs --workload")?;
    let workload = spec::workload(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?
        .name;
    let seed = args.parsed("--seed", spec::DEFAULT_SEED)?;
    let seconds = seconds_arg(args)?;
    let report = match args.value("--trace") {
        Some("1") => driver::measure_traced(workload, seed, seconds)?,
        Some("0") | None => driver::measure_end_to_end(&[workload], seed, seconds)?
            .pop()
            .expect("one workload, one report"),
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    for c in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("FAILED CHECK {}: {}", c.name, c.detail);
    }
    println!("{}", report.driver_line());
    Ok(ExitCode::SUCCESS)
}

/// The person's form: every workload, every metric by name with its unit,
/// correctness checked, results kept in a file `agree` can read.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    stamp::check_release_profile()?;
    let stamp = stamp::stamp();
    let seed = args.parsed("--seed", spec::DEFAULT_SEED)?;
    let seconds = seconds_arg(args)?;
    let traced = args.flag("--traced");
    println!(
        "seed {seed}, {seconds} s of timed work per workload, {} trials per number, stamp {}",
        spec::TRIALS,
        stamp.compact()
    );
    let workloads = workloads_selected(args)?;
    let reports = if traced {
        workloads
            .iter()
            .map(|w| driver::measure_traced(w, seed, seconds))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        driver::measure_end_to_end(&workloads, seed, seconds)?
    };
    for report in &reports {
        report.print();
    }
    let default_out = format!(
        "{}/results{}.json",
        trial::OUT_DIR,
        if traced { "-traced" } else { "" }
    );
    let out = args.value("--out").unwrap_or(&default_out);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(
        out,
        driver::result_file(stamp, seed, seconds, traced, &reports).pretty(),
    )
    .map_err(|e| format!("writing {out}: {e}"))?;
    println!("\nresults written to {out}");
    let all_correct = reports.iter().all(|r| r.correct);
    if !all_correct {
        eprintln!("a correctness check failed");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_agree(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional();
    let [a, b] = files[..] else {
        return Err("usage: agree A.json B.json".to_string());
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = agree::compare(&load(a)?, &load(b)?)?;
    Ok(ExitCode::from(agree::report(&rows) as u8))
}

/// Print `BENCHMARK.json` as the tables in `spec` define it; `--write`
/// replaces the file at the repo root.
fn cmd_manifest(args: &Args) -> Result<ExitCode, String> {
    let text = spec::manifest().pretty();
    if args.flag("--write") {
        std::fs::write(BENCHMARK_JSON, &text)
            .map_err(|e| format!("writing BENCHMARK.json: {e}"))?;
        eprintln!("wrote {BENCHMARK_JSON}");
    } else {
        print!("{text}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let result = match sub.as_str() {
        "trial" => cmd_trial(&args, process_start),
        "bench" => cmd_bench(&args),
        "run" => cmd_run(&args),
        "agree" => cmd_agree(&args),
        "manifest" => cmd_manifest(&args),
        _ => Err(
            "usage: ebs-benchmark run|bench|agree|manifest  (see benchmark/README.md)".to_string(),
        ),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, traced: bool, threads: usize) -> TrialResult {
        let a = TrialArgs {
            seed: 7,
            seconds: 1.0,
            traced,
            threads,
            process_start: Instant::now(),
        };
        let r = run_trial(workload, &a).expect("known workload");
        for c in &r.checks {
            assert!(c.ok, "{workload}: check {} failed: {}", c.name, c.detail);
        }
        assert!(r.ios > 0 && r.attempted >= r.ios / 2 && r.failed == 0);
        assert!(r.sim_p50_us > 0.0 && r.sim_p99_us >= r.sim_p50_us && r.sim_kiops > 0.0);
        r
    }

    #[test]
    fn smoke_solar_4k_fanin() {
        let r = smoke("solar_4k_fanin", false, 1);
        assert!(r.events / r.ios < 60, "one block, one packet");
    }

    #[test]
    fn smoke_luna_128k_rw() {
        let r = smoke("luna_128k_rw", false, 1);
        let tcp = r
            .layer
            .iter()
            .find(|(n, _)| n == "tcp.segs_per_io")
            .unwrap();
        assert!(tcp.1 > 1.0, "LUNA segments its I/Os");
    }

    #[test]
    fn smoke_solar_faulted_rw() {
        let r = smoke("solar_faulted_rw", false, 1);
        let get = |name: &str| r.layer.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(get("solar.path_failovers") > 0.0 && get("blk.requests") > 0.0);
    }

    #[test]
    fn smoke_fleet_2w_matches_one_worker() {
        let two = smoke(fleet::NAME, false, 2);
        let one = smoke(fleet::NAME, false, 1);
        assert_eq!(two.digest, one.digest, "2 workers == 1 worker");
        assert_eq!((two.ios, two.events), (one.ios, one.events));
    }

    // The only smoke test that turns tracing on: the counting allocator's
    // counters are process-wide, and tests share the process.
    #[test]
    fn smoke_dataplane_4k_rw_traced_and_repeatable() {
        let traced = smoke(dataplane::NAME, true, 1);
        let plain = smoke(dataplane::NAME, false, 1);
        assert_eq!(traced.digest, plain.digest, "tracing changes no outcome");
        let get = |name: &str| traced.layer.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(get("crypto.ns_per_block") > 0.0 && get("host.layers_self_share") > 0.0);
        assert!(get("solar.retransmit_ratio") > 0.0, "the drop shim bites");
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(
            simcell::scan_starts(5, 64, 8192),
            simcell::scan_starts(5, 64, 8192)
        );
        assert_ne!(
            simcell::scan_starts(5, 64, 8192),
            simcell::scan_starts(6, 64, 8192)
        );
        let draw = |seed| {
            let mut g = dataplane::IoGen::new(seed);
            let busy = vec![false; 1024];
            (0..256).map(|_| g.next(&busy)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut a = [0u8; 4096];
        let mut b = [0u8; 4096];
        dataplane::fill_pattern(&mut a, 9, 1);
        dataplane::fill_pattern(&mut b, 9, 2);
        assert_ne!(a, b, "every version of a block has its own bytes");
    }

    #[test]
    fn drop_shim_is_deterministic_and_near_one_in_1024() {
        let run = |seed| {
            let mut s = dataplane::DropShim::new(seed);
            (0..200_000u32)
                .filter(|_| s.drops_next())
                .collect::<Vec<_>>()
        };
        let a = run(11);
        assert_eq!(a, run(11));
        assert_ne!(a, run(12));
        assert!((100..300).contains(&a.len()), "{} drops in 200k", a.len());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let report = driver::WorkloadReport {
            name: "solar_4k_fanin".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            digest: "d".into(),
            events: 1,
            latency_samples: 10,
            threads: 1,
            checks: Vec::new(),
            end_to_end: spec::END_TO_END
                .iter()
                .map(|m| (m.name, 1.5, vec![1.5]))
                .collect(),
            per_layer: Vec::new(),
            trace_file: String::new(),
        };
        let line = Json::parse(&report.driver_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().fields();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));
    }
}
