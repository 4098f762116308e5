//! One trial: what a child process is told, what it measures, and the
//! one-line JSON it hands back to its parent.

use std::time::Instant;

use crate::json::Json;

/// The paper's hang bar (Table 2): an I/O unanswered this long — on the
/// simulated clock — has failed, whatever happens to it later.
pub const HANG_BAR_NS: u64 = 1_000_000_000;

/// Equal-work slices per timed segment (see [`TrialResult::slice_wall_s`]).
pub const SLICES: u64 = 24;

/// What a trial child is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct TrialArgs {
    pub seed: u64,
    /// The `--seconds` of the run this trial belongs to; fixes the amount
    /// of timed work (see [`TrialArgs::scale`]).
    pub seconds: f64,
    /// Profiling, spans and the counting allocator on.
    pub traced: bool,
    /// Worker threads (`fleet_2w` only; 1 elsewhere).
    pub threads: usize,
    /// As close to process start as `main` can read the clock.
    pub process_start: Instant,
}

impl TrialArgs {
    /// Timed work of one trial in units of "one host second on the
    /// reference box": a run's `--seconds` are split over its
    /// [`crate::spec::TRIALS`] trials. The work is a function of
    /// `--seconds` alone, never of how fast this host is, so two commits
    /// measured with the same arguments do identical work.
    pub fn scale(&self) -> f64 {
        self.seconds / crate::spec::TRIALS as f64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one trial measured.
#[derive(Debug, Clone, Default)]
pub struct TrialResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub threads: usize,
    pub setup_s: f64,
    /// Host seconds of the whole timed segment (the sum of its slices).
    pub timed_wall_s: f64,
    /// Host seconds of each of the [`SLICES`] equal-work slices the timed
    /// segment is cut into. Every trial of a run cuts at the same points,
    /// so the parent can take each slice's median over the trials and
    /// shed a burst of interference that hit one trial's slice.
    pub slice_wall_s: Vec<f64>,
    /// Guest I/Os completed in the timed segment.
    pub ios: u64,
    pub attempted: u64,
    pub failed: u64,
    pub latency_samples: u64,
    pub sim_p50_us: f64,
    pub sim_p99_us: f64,
    pub sim_kiops: f64,
    pub peak_rss_mib: f64,
    /// Events the simulator dispatched in the timed segment (0 without one).
    pub events: u64,
    /// FNV-1a of the workload's full outcome digest.
    pub digest: String,
    pub checks: Vec<Check>,
    /// Per-layer values this trial could compute on its own.
    pub layer: Vec<(String, f64)>,
    pub trace_file: String,
}

impl TrialResult {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    /// Workloads are chosen so that no operation fails: one that errors,
    /// fails CRC or outlives the hang bar fails the run.
    pub fn check_no_failures(&mut self) {
        let (failed, attempted) = (self.failed, self.attempted);
        self.check("ops_failed_is_zero", failed == 0, || {
            format!("{failed} of {attempted} operations failed")
        });
    }

    pub fn set_layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.layer.push((name.to_string(), value));
    }

    pub fn ios_per_s(&self) -> f64 {
        self.ios as f64 / self.timed_wall_s
    }

    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "ios_per_s" => self.ios_per_s(),
            "peak_rss_mib" => self.peak_rss_mib,
            "sim_p50_us" => self.sim_p50_us,
            "sim_p99_us" => self.sim_p99_us,
            "sim_kiops" => self.sim_kiops,
            other => panic!("{other} is not an end-to-end metric"),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("threads", self.threads)
            .with("setup_s", self.setup_s)
            .with("timed_wall_s", self.timed_wall_s)
            .with(
                "slice_wall_s",
                self.slice_wall_s
                    .iter()
                    .map(|v| Json::from(*v))
                    .collect::<Vec<_>>(),
            )
            .with("ios", self.ios)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("latency_samples", self.latency_samples)
            .with("sim_p50_us", self.sim_p50_us)
            .with("sim_p99_us", self.sim_p99_us)
            .with("sim_kiops", self.sim_kiops)
            .with("peak_rss_mib", self.peak_rss_mib)
            .with("events", self.events)
            .with("digest", self.digest.as_str())
            .with(
                "checks",
                self.checks
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .with("name", c.name.as_str())
                            .with("ok", c.ok)
                            .with("detail", c.detail.as_str())
                    })
                    .collect::<Vec<_>>(),
            )
            .with(
                "layer",
                Json::Obj(
                    self.layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            )
            .with("trace_file", self.trace_file.as_str())
    }

    pub fn from_json(j: &Json) -> Result<TrialResult, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trial result lacks number `{k}`"))
        };
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("trial result lacks string `{k}`"))
        };
        Ok(TrialResult {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            traced: j.get("traced").and_then(Json::as_bool).unwrap_or(false),
            threads: num("threads")? as usize,
            setup_s: num("setup_s")?,
            timed_wall_s: num("timed_wall_s")?,
            slice_wall_s: j
                .get("slice_wall_s")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            ios: num("ios")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            latency_samples: num("latency_samples")? as u64,
            sim_p50_us: num("sim_p50_us")?,
            sim_p99_us: num("sim_p99_us")?,
            sim_kiops: num("sim_kiops")?,
            peak_rss_mib: num("peak_rss_mib")?,
            events: num("events")? as u64,
            digest: text("digest")?,
            checks: j
                .get("checks")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|c| Check {
                    name: c.get("name").and_then(Json::as_str).unwrap_or("?").into(),
                    ok: c.get("ok").and_then(Json::as_bool).unwrap_or(false),
                    detail: c.get("detail").and_then(Json::as_str).unwrap_or("").into(),
                })
                .collect(),
            layer: j
                .get("layer")
                .map(Json::fields)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            trace_file: text("trace_file")?,
        })
    }
}

/// Time `SLICES` calls of `run_slice(k)`, `k = 1..=SLICES`; returns each
/// slice's host seconds.
pub fn time_slices(mut run_slice: impl FnMut(u64)) -> Vec<f64> {
    (1..=SLICES)
        .map(|k| {
            let t0 = Instant::now();
            run_slice(k);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Fill in the latency fields (exact median and p99 of `latencies_ns`,
/// sorted in place), `sim_kiops`, and the sample-count check every
/// workload shares: p99 is reported only with ten samples beyond it.
pub fn record_latencies(r: &mut TrialResult, latencies_ns: &mut [u64], window_s: f64) {
    latencies_ns.sort_unstable();
    r.latency_samples = latencies_ns.len() as u64;
    if !latencies_ns.is_empty() {
        r.sim_p50_us = crate::stats::percentile_sorted(latencies_ns, 0.50) as f64 / 1e3;
        r.sim_p99_us = crate::stats::percentile_sorted(latencies_ns, 0.99) as f64 / 1e3;
    }
    r.sim_kiops = r.ios as f64 / window_s / 1e3;
    let (have, need) = (r.latency_samples, crate::stats::samples_needed(0.99) as u64);
    r.check("latency_sample_supports_p99", have >= need, || {
        format!("{have} latency samples, p99 needs {need}")
    });
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where result files and Chrome traces go: `benchmark/target/`, whatever
/// `CARGO_TARGET_DIR` the binary itself was built into.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target");

/// Write `<workload>`'s Chrome trace (held in memory until now) and
/// return its path; an empty string if the file could not be written —
/// the trace is a by-product, never a reason to fail a trial.
pub fn write_trace(workload: &str, chrome_json: &str) -> String {
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, chrome_json)) {
        Ok(()) => path,
        Err(e) => {
            eprintln!("warning: could not write {path}: {e}");
            String::new()
        }
    }
}

/// FNV-1a 64 of `text`, as 16 hex digits: a short stand-in for the long
/// outcome digests the testbeds print.
pub fn fnv_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_result_round_trips_through_json() {
        let mut r = TrialResult {
            workload: "solar_4k_fanin".into(),
            seed: 11,
            traced: true,
            threads: 1,
            setup_s: 0.151_234_567_89,
            timed_wall_s: 3.25,
            slice_wall_s: vec![1.25, 2.0],
            ios: 400_000,
            attempted: 400_100,
            latency_samples: 400_000,
            sim_p50_us: 93.412,
            sim_p99_us: 181.007,
            sim_kiops: 2_500.5,
            peak_rss_mib: 57.3,
            events: 12_000_000,
            digest: fnv_hex("x"),
            ..TrialResult::default()
        };
        r.check("a", true, String::new);
        r.check("b", false, || "why".into());
        r.set_layer("sim.events", 12e6);
        let back = TrialResult::from_json(&Json::parse(&r.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.checks[1].detail, "why");
        assert_eq!(back.end_to_end("setup_s"), r.setup_s);
    }

    #[test]
    fn p99_of_a_small_sample_fails_its_check() {
        let mut r = TrialResult {
            ios: 500,
            ..TrialResult::default()
        };
        let mut lat: Vec<u64> = (1..=500).map(|i| i * 1000).collect();
        record_latencies(&mut r, &mut lat, 1.0);
        assert_eq!(r.latency_samples, 500);
        assert_eq!(r.sim_p50_us, 250.0);
        assert!(!r.checks[0].ok, "500 samples leave only 5 beyond p99");
        let mut lat: Vec<u64> = (1..=2000).collect();
        record_latencies(&mut r, &mut lat, 1.0);
        assert!(r.checks[1].ok);
    }
}
