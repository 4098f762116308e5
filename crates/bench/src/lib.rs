//! # ebs-bench — the experiment harness
//!
//! One function per figure/table of the paper's evaluation; each returns
//! an [`ExperimentOutput`] the bench target prints and integration tests
//! assert on. `quick = true` shrinks run lengths; `cargo bench` runs the
//! full sizes.
//!
//! | id | content | module |
//! |----|---------|--------|
//! | fig3/fig4/fig5/fig7/fig8 | workload & fleet characterization | [`characterization`] |
//! | fig6/tab1/fig14/fig15 | latency & throughput on the testbed | [`performance`] |
//! | tab2 | failure scenarios, Luna vs Solar | [`reliability`] |
//! | fig11/tab3 | FPGA faults & resources | [`hardware`] |
//! | ablate-* | design-choice ablations | [`ablations`] |
//!
//! # Parallel harness
//!
//! Every experiment (and every inner sweep point of fig6/fig14/fig15/tab2)
//! is an independent simulation with its own seed, so [`run_report`] runs
//! them on scoped threads and joins the results back in paper order.
//! Determinism comes from per-run seeds, never from execution order.
//! `fig7` is derived from fig6 + fig14 numbers and is computed after both
//! join.
//!
//! # No host time
//!
//! A [`RunReport`] holds simulation output only, so a `BENCH_*.json` file
//! is a pure function of the source tree and a pin like any other:
//! [`suite_main`] fails on any drift from the committed file and re-writes
//! it only under `EBS_BLESS=1`. Host-time measurement lives in
//! `benchmark/` (see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod blk;
pub mod cc;
pub mod characterization;
pub mod fleet;
pub mod hardware;
pub mod obs;
mod output;
pub mod performance;
#[path = "../../../tests/support/pin.rs"]
mod pin;
pub mod reliability;

pub use output::ExperimentOutput;

/// One experiment's output plus its headline numbers.
pub struct ExperimentReport {
    /// The rendered figure/table.
    pub output: ExperimentOutput,
    /// Headline numbers for the suite's `BENCH_*.json` (name → value).
    pub metrics: Vec<(String, f64)>,
}

impl From<(ExperimentOutput, Vec<(String, f64)>)> for ExperimentReport {
    fn from((output, metrics): (ExperimentOutput, Vec<(String, f64)>)) -> Self {
        ExperimentReport { output, metrics }
    }
}

/// A full suite run: every experiment in paper order, serializable to
/// the suite's `BENCH_*.json`.
pub struct RunReport {
    /// Quick (CI) sizes or full paper sizes.
    pub quick: bool,
    /// Per-experiment reports, paper order.
    pub experiments: Vec<ExperimentReport>,
}

impl RunReport {
    /// Serialize to JSON (hand-rolled: the build is offline and vendors no
    /// serde). Metric names and experiment ids are ASCII identifiers.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".to_string()
            }
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"metrics\": {{",
                e.output.id
            ));
            for (j, (k, v)) in e.metrics.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {}", k, num(*v)));
            }
            s.push('}');
            if !e.output.notes.is_empty() {
                s.push_str(", \"notes\": [");
                for (j, n) in e.output.notes.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push('"');
                    for c in n.chars() {
                        match c {
                            '"' => s.push_str("\\\""),
                            '\\' => s.push_str("\\\\"),
                            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                            c => s.push(c),
                        }
                    }
                    s.push('"');
                }
                s.push(']');
            }
            s.push('}');
            if i + 1 < self.experiments.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The body every suite bench main (`experiments`, `fleet`, `cc`, `blk`)
/// shares: run `run(quick)`, print each experiment's tables (also to
/// `target/<name>-table.txt`), and check the report against the committed
/// `<repo root>/<json_file>`: on drift print the first moved line and
/// exit 1, unless `EBS_BLESS=1` re-pins it. A run at the other size than
/// the committed file is not that baseline and goes to `target/<name>.json`.
/// Reads two flags from the process arguments: `--quick` (or the
/// harness's `--test`) selects the CI-sized run, and `--replay-check`
/// first runs the quick suite twice and asserts the two JSON reports are
/// byte-identical (seed-replay determinism).
pub fn suite_main(name: &str, json_file: &str, run: impl Fn(bool) -> RunReport) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    if args.iter().any(|a| a == "--replay-check") {
        assert_eq!(
            run(true).to_json(),
            run(true).to_json(),
            "{name} replay diverged: the same seeds must reproduce identical metrics"
        );
        eprintln!("{name} replay check OK");
    }

    let report = run(quick);
    let mut rendered = String::new();
    for exp in &report.experiments {
        let r = exp.output.render();
        println!("{r}");
        rendered.push_str(&r);
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    // Convenience copies (the CI artifact): best effort.
    let copy = |path: String, body: String| {
        let _ = std::fs::create_dir_all(format!("{root}/target"));
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    };
    copy(format!("{root}/target/{name}-table.txt"), rendered);
    let json = report.to_json();
    let pinned = format!("{root}/{json_file}");
    let committed = std::fs::read_to_string(&pinned).unwrap_or_default();
    // Line 2 is `"quick": …`: a run at the other size is not the baseline.
    if committed
        .lines()
        .nth(1)
        .is_some_and(|q| Some(q) != json.lines().nth(1))
    {
        copy(format!("{root}/target/{name}.json"), json);
    } else if let Err(e) = pin::check(std::path::Path::new(&pinned), &json) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// The `q`-quantile of ascending `sorted` samples by the bench suites'
/// one rank rule, `sorted[min(⌊n·q⌋, n−1)]`; `None` when empty. (Not
/// `Ecdf::quantile`'s `round(q·(n−1))`: the pinned tails use this one.)
fn tail<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let i = (sorted.len() as f64 * q) as usize;
    sorted.get(i.min(sorted.len().saturating_sub(1))).copied()
}

fn variant_key(v: ebs_stack::Variant) -> &'static str {
    match v {
        ebs_stack::Variant::Kernel => "kernel",
        ebs_stack::Variant::Luna => "luna",
        ebs_stack::Variant::Rdma => "rdma",
        ebs_stack::Variant::SolarStar => "solar_star",
        ebs_stack::Variant::Solar => "solar",
    }
}

fn exp_fig6(quick: bool) -> (ExperimentReport, performance::Fig6Numbers) {
    let (output, nums) = performance::fig6(quick);
    let mut metrics = Vec::new();
    for (i, key) in ["kernel", "luna", "solar"].iter().enumerate() {
        metrics.push((format!("{key}_write_median_us"), nums.write_median_us[i]));
        metrics.push((format!("{key}_read_median_us"), nums.read_median_us[i]));
    }
    (ExperimentReport { output, metrics }, nums)
}

fn exp_fig14(quick: bool) -> (ExperimentReport, performance::Fig14Numbers) {
    let (output, nums) = performance::fig14(quick);
    let mut metrics = Vec::new();
    for &(v, c, mbps) in &nums.throughput {
        metrics.push((format!("{}_{}core_mbps", variant_key(v), c), mbps));
    }
    for &(v, c, iops) in &nums.iops {
        metrics.push((format!("{}_{}core_iops", variant_key(v), c), iops));
    }
    (ExperimentReport { output, metrics }, nums)
}

fn exp_fig15(quick: bool) -> ExperimentReport {
    let (output, nums) = performance::fig15(quick);
    let mut metrics = Vec::new();
    for &(v, heavy, median, p99) in &nums.points {
        let load = if heavy { "heavy" } else { "light" };
        metrics.push((format!("{}_{load}_median_us", variant_key(v)), median));
        metrics.push((format!("{}_{load}_p99_us", variant_key(v)), p99));
    }
    ExperimentReport { output, metrics }
}

fn exp_tab2(quick: bool) -> ExperimentReport {
    let counts = reliability::tab2_counts(&reliability::Scenario::ALL, quick);
    let mut metrics = Vec::new();
    let mut luna_total = 0usize;
    let mut solar_total = 0usize;
    for &(_, luna, solar) in &counts {
        luna_total += luna;
        solar_total += solar;
    }
    metrics.push(("luna_hung_total".to_string(), luna_total as f64));
    metrics.push(("solar_hung_total".to_string(), solar_total as f64));
    ExperimentReport {
        // The counts are already in hand, so rendering the table re-runs
        // nothing.
        output: reliability::tab2_render(&counts, quick),
        metrics,
    }
}

fn exp_fig7(
    fig6: &performance::Fig6Numbers,
    fig14: &performance::Fig14Numbers,
) -> ExperimentReport {
    let (k, l, s) = performance::stack_perfs(fig6, fig14);
    let metrics = vec![
        ("kernel_weighted_us".to_string(), k.latency_us),
        ("luna_weighted_us".to_string(), l.latency_us),
        ("solar_weighted_us".to_string(), s.latency_us),
        ("solar_iops".to_string(), s.iops),
    ];
    ExperimentReport {
        output: characterization::fig7(k, l, s),
        metrics,
    }
}

/// Run every experiment, each on its own scoped thread, and join the
/// reports back in paper order.
pub fn run_report(quick: bool) -> RunReport {
    let (mut experiments, fig6_nums, fig14_nums) = std::thread::scope(|s| {
        let fig3 = s.spawn(|| characterization::fig3().into());
        let fig4 = s.spawn(|| characterization::fig4().into());
        let fig5 = s.spawn(|| characterization::fig5().into());
        let fig6 = s.spawn(move || exp_fig6(quick));
        let tab1 = s.spawn(move || performance::tab1(quick).into());
        let fig8 = s.spawn(|| characterization::fig8().into());
        let fig11 = s.spawn(|| hardware::fig11().into());
        let fig14 = s.spawn(move || exp_fig14(quick));
        let fig15 = s.spawn(move || exp_fig15(quick));
        let tab2 = s.spawn(move || exp_tab2(quick));
        let tab3 = s.spawn(|| (hardware::tab3(), vec![]).into());
        let mut out: Vec<ExperimentReport> = Vec::with_capacity(12);
        out.push(fig3.join().expect("fig3 panicked"));
        out.push(fig4.join().expect("fig4 panicked"));
        out.push(fig5.join().expect("fig5 panicked"));
        let (fig6_r, f6) = fig6.join().expect("fig6 panicked");
        out.push(fig6_r);
        out.push(tab1.join().expect("tab1 panicked"));
        out.push(fig8.join().expect("fig8 panicked"));
        out.push(fig11.join().expect("fig11 panicked"));
        let (fig14_r, f14) = fig14.join().expect("fig14 panicked");
        out.push(fig14_r);
        out.push(fig15.join().expect("fig15 panicked"));
        out.push(tab2.join().expect("tab2 panicked"));
        out.push(tab3.join().expect("tab3 panicked"));
        (out, f6, f14)
    });
    experiments.push(exp_fig7(&fig6_nums, &fig14_nums));
    RunReport { quick, experiments }
}
