//! Observability artifacts for the harness: a Perfetto-loadable Chrome
//! trace and a flat metrics snapshot from a representative SOLAR run.
//!
//! The exported trace is a *diagnostic* artifact, deliberately separate
//! from `BENCH_RESULTS.json`.

use ebs_sim::SimTime;
use ebs_stack::{FioConfig, Testbed, TestbedConfig, Variant};

/// Run a small closed-loop SOLAR testbed and export its journal as a
/// Chrome trace plus its sampled registry as a metrics snapshot. Returns
/// `(trace_json, metrics_json, slowest_io_rendering)`.
pub fn export_solar_run(quick: bool) -> (String, String, String) {
    let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 2, 3));
    let horizon_ms = if quick { 20 } else { 100 };
    for compute in 0..2 {
        tb.attach_fio(
            SimTime::from_millis(1),
            compute,
            FioConfig {
                depth: 4,
                bytes: 4096,
                read_fraction: 0.5,
            },
        );
    }
    tb.run_until(SimTime::from_millis(horizon_ms));
    tb.sample_obs();
    let trace = ebs_obs::chrome_trace(tb.journal());
    let metrics = ebs_obs::metrics_snapshot(tb.metrics());
    let slowest = tb
        .explain_slowest_io()
        .map(|e| e.render())
        .unwrap_or_default();
    (trace, metrics, slowest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_deterministic() {
        let (t1, m1, s1) = export_solar_run(true);
        let (t2, m2, s2) = export_solar_run(true);
        assert_eq!(t1, t2);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn export_carries_real_content() {
        let (trace, metrics, slowest) = export_solar_run(true);
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("thread_name"));
        assert!(metrics.contains("net/delivered"));
        assert!(slowest.contains("slowest io"));
    }
}
