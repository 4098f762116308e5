//! The parent side: one fresh child process per trial, medians over
//! trials, the cross-trial correctness checks, and the two output forms
//! (the driver's one-line JSON, the result file `agree` reads).

use std::process::{Command, Stdio};

use crate::fleet;
use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER, TRIALS};
use crate::stats::median;
use crate::trial::{Check, TrialResult};

/// One workload, measured.
pub struct WorkloadReport {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub events: u64,
    pub latency_samples: u64,
    pub threads: usize,
    pub checks: Vec<Check>,
    /// `(metric, reported value, every trial's value)`; empty in traced mode.
    pub end_to_end: Vec<(&'static str, f64, Vec<f64>)>,
    /// Every per-layer metric, zero where the workload has nothing to
    /// report; empty in end-to-end mode.
    pub per_layer: Vec<(&'static str, f64)>,
    pub trace_file: String,
}

/// Run one trial of `workload` in a fresh child process and parse the
/// result it prints. A fresh process per trial because allocator warmth
/// carried over from a previous cell was measured (PR 7) to be worth ~2x.
fn spawn_trial(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
) -> Result<TrialResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output()` waits for the child, so no process outlives this call.
    let out = Command::new(exe)
        .arg("trial")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning trial child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "trial child of {workload} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("trial child of {workload} printed nothing"))?;
    TrialResult::from_json(&Json::parse(line)?)
}

fn threads_of(workload: &str) -> usize {
    if workload == fleet::NAME {
        fleet::THREADS
    } else {
        1
    }
}

/// Checks every trial made itself, prefixed with which trial it was.
fn own_checks<'a>(tag: &str, t: &'a TrialResult) -> impl Iterator<Item = Check> + 'a {
    let tag = tag.to_string();
    t.checks.iter().map(move |c| Check {
        name: format!("{tag}:{}", c.name),
        ok: c.ok,
        detail: c.detail.clone(),
    })
}

fn same_outcome(name: &str, a: &TrialResult, b: &TrialResult) -> Check {
    let key = |t: &TrialResult| {
        (
            t.digest.clone(),
            t.events,
            t.ios,
            t.attempted,
            t.failed,
            t.sim_p50_us.to_bits(),
            t.sim_p99_us.to_bits(),
            t.sim_kiops.to_bits(),
        )
    };
    let ok = key(a) == key(b);
    Check {
        name: name.to_string(),
        ok,
        detail: if ok {
            String::new()
        } else {
            format!("{:?} vs {:?}", key(a), key(b))
        },
    }
}

/// Host seconds of the timed segment with each slice's wall taken as the
/// median over the trials. Every trial does the same work in every slice,
/// so this is the median trial's time with bursts of interference shed
/// slice by slice instead of trial by trial.
fn slicewise_median_wall(trials: &[TrialResult]) -> f64 {
    let slices = trials
        .iter()
        .map(|t| t.slice_wall_s.len())
        .min()
        .unwrap_or(0);
    (0..slices)
        .map(|k| median(&trials.iter().map(|t| t.slice_wall_s[k]).collect::<Vec<_>>()))
        .sum()
}

/// End-to-end mode: [`TRIALS`] untraced trials per workload; the median of
/// each metric (`ios_per_s`: I/Os over the slice-wise median wall).
///
/// Trials go round-robin over the workloads — trial 0 of each, then trial
/// 1 of each — so a slow phase of a shared box (tens of seconds, measured
/// at up to 30 %) costs several workloads one trial each, which the
/// median sheds, instead of one workload all three.
pub fn measure_end_to_end(
    workloads: &[&str],
    seed: u64,
    seconds: f64,
) -> Result<Vec<WorkloadReport>, String> {
    let mut trials: Vec<Vec<TrialResult>> = workloads.iter().map(|_| Vec::new()).collect();
    for _ in 0..TRIALS {
        for (w, name) in workloads.iter().enumerate() {
            trials[w].push(spawn_trial(name, seed, seconds, false, threads_of(name))?);
        }
    }
    Ok(workloads
        .iter()
        .zip(&trials)
        .map(|(name, trials)| end_to_end_report(name, trials))
        .collect())
}

fn end_to_end_report(workload: &str, trials: &[TrialResult]) -> WorkloadReport {
    let mut checks = Vec::new();
    for (i, t) in trials.iter().enumerate() {
        checks.extend(own_checks(&format!("trial{i}"), t));
    }
    // A fixed seed must reproduce the outcome exactly, trial after trial
    // (for fleet_2w: whatever the two workers' interleaving was).
    for t in &trials[1..] {
        checks.push(same_outcome("trials_identical", &trials[0], t));
    }
    let first = &trials[0];
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = trials.iter().map(|t| t.end_to_end(m.name)).collect();
            let value = if m.name == "ios_per_s" {
                first.ios as f64 / slicewise_median_wall(trials)
            } else {
                median(&values)
            };
            (m.name, value, values)
        })
        .collect();
    WorkloadReport {
        name: workload.to_string(),
        correct: checks.iter().all(|c| c.ok),
        attempted: first.attempted,
        failed: trials.iter().map(|t| t.failed).max().unwrap_or(0),
        digest: first.digest.clone(),
        events: first.events,
        latency_samples: first.latency_samples,
        threads: threads_of(workload),
        checks,
        end_to_end,
        per_layer: Vec::new(),
        trace_file: String::new(),
    }
}

/// Traced mode: one untraced trial, one traced trial (profiling, spans
/// and the counting allocator on) and, for `fleet_2w`, one untraced
/// 1-worker trial for the parallel ratio and the determinism bar.
pub fn measure_traced(workload: &str, seed: u64, seconds: f64) -> Result<WorkloadReport, String> {
    let threads = threads_of(workload);
    let plain = spawn_trial(workload, seed, seconds, false, threads)?;
    let traced = spawn_trial(workload, seed, seconds, true, threads)?;
    let mut checks: Vec<Check> = own_checks("untraced", &plain)
        .chain(own_checks("traced", &traced))
        .collect();
    checks.push(same_outcome("tracing_changes_no_outcome", &plain, &traced));

    let mut layer: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = layer
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    };
    for (name, value) in &traced.layer {
        set(name, *value);
    }
    // Source W: host-time ratios come from the untraced trial, so the
    // cost of looking is not in them...
    for (name, value) in &plain.layer {
        if PER_LAYER.iter().any(|m| m.name == name && m.source == 'W') {
            set(name, *value);
        }
    }
    if plain.events > 0 {
        set(
            "sim.ns_per_event",
            plain.timed_wall_s * 1e9 / plain.events as f64,
        );
    }
    // ...and is on record by itself.
    set(
        "trace.overhead_share",
        (traced.timed_wall_s - plain.timed_wall_s) / plain.timed_wall_s,
    );
    if workload == fleet::NAME {
        let serial = spawn_trial(workload, seed, seconds, false, 1)?;
        checks.extend(own_checks("1-worker", &serial));
        checks.push(same_outcome(
            "two_workers_equal_one_worker",
            &plain,
            &serial,
        ));
        set(
            "stack.sharded.parallel_ratio",
            serial.timed_wall_s / plain.timed_wall_s,
        );
    }
    Ok(WorkloadReport {
        name: workload.to_string(),
        correct: checks.iter().all(|c| c.ok),
        attempted: plain.attempted,
        failed: plain.failed.max(traced.failed),
        digest: plain.digest.clone(),
        events: plain.events,
        latency_samples: plain.latency_samples,
        threads,
        checks,
        end_to_end: Vec::new(),
        per_layer: layer,
        trace_file: traced.trace_file.clone(),
    })
}

impl WorkloadReport {
    /// The driver's contract: one JSON object with exactly these keys.
    pub fn driver_line(&self) -> String {
        let mut metrics = Json::obj();
        for (name, value, _) in &self.end_to_end {
            let unit = spec::end_to_end(name).expect("known metric").unit;
            metrics = metrics.with(name, Json::obj().with("value", *value).with("unit", unit));
        }
        for (name, value) in &self.per_layer {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .expect("known metric")
                .unit;
            metrics = metrics.with(name, Json::obj().with("value", *value).with("unit", unit));
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
            .compact()
    }

    /// Every metric by name, with its unit, for a person.
    pub fn print(&self) {
        println!(
            "\n== {} ==  {}  ops_attempted={} ops_failed={}  latency samples={}  digest={}",
            self.name,
            if self.correct { "CORRECT" } else { "INCORRECT" },
            self.attempted,
            self.failed,
            self.latency_samples,
            self.digest
        );
        if let Some(w) = spec::workload(&self.name) {
            println!("  load: {}", w.load);
        }
        for c in self.checks.iter().filter(|c| !c.ok) {
            println!("  FAILED CHECK {}: {}", c.name, c.detail);
        }
        for (name, med, values) in &self.end_to_end {
            let m = spec::end_to_end(name).expect("known metric");
            println!(
                "  {name:<14} {med:>14.4} {:<6} ({} is better, bound {:.0} %)  trials {values:?}  -- {}",
                m.unit,
                m.better.label(),
                m.bound * 100.0,
                m.what
            );
        }
        let mut layer = "";
        for (name, value) in &self.per_layer {
            let m = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .expect("known metric");
            if m.layer != layer {
                layer = m.layer;
                println!("  [{layer}]");
            }
            println!(
                "    {name:<36} {value:>16.4} {:<6} ({})  -> {}",
                m.unit, m.source, m.moves
            );
        }
        if !self.trace_file.is_empty() {
            println!("  chrome trace: {}", self.trace_file);
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("correct", self.correct)
            .with("ops_attempted", self.attempted)
            .with("ops_failed", self.failed)
            .with("latency_samples", self.latency_samples)
            .with("threads", self.threads)
            .with("digest", self.digest.as_str())
            .with("events", self.events)
            .with(
                "failed_checks",
                self.checks
                    .iter()
                    .filter(|c| !c.ok)
                    .map(|c| Json::from(format!("{}: {}", c.name, c.detail)))
                    .collect::<Vec<_>>(),
            )
            .with(
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|(name, med, values)| {
                            (
                                name.to_string(),
                                Json::obj()
                                    .with("unit", spec::end_to_end(name).expect("known").unit)
                                    .with("median", *med)
                                    .with(
                                        "trials",
                                        values.iter().map(|v| Json::from(*v)).collect::<Vec<_>>(),
                                    ),
                            )
                        })
                        .collect(),
                ),
            )
            .with(
                "per_layer",
                Json::Obj(
                    self.per_layer
                        .iter()
                        .map(|(name, v)| (name.to_string(), Json::from(*v)))
                        .collect(),
                ),
            )
    }
}

/// A whole result set: the stamp plus one report per workload.
pub fn result_file(
    stamp: Json,
    seed: u64,
    seconds: f64,
    traced: bool,
    reports: &[WorkloadReport],
) -> Json {
    Json::obj()
        .with("stamp", stamp)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("traced", traced)
        .with("trials_per_metric", TRIALS)
        .with(
            "workloads",
            reports
                .iter()
                .map(WorkloadReport::to_json)
                .collect::<Vec<_>>(),
        )
}
