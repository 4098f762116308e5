//! `agree A.json B.json`: do two result sets of `run` say the same thing,
//! under the benchmark's own bounds? The A/A proof of the benchmark and
//! the comparison later changes reuse (A = parent, B = change).

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (host time) or identical (exact values).
    Agree,
    /// Outside the bound, or an exact value changed.
    Differ,
    /// A side's own trials spread wider than the bound: the comparison
    /// resolves nothing, which is not the same as "unchanged".
    Unresolved,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    pub note: String,
    pub verdict: Verdict,
}

fn trials(w: &Json, metric: &str) -> Vec<f64> {
    w.get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("trials"))
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn median_of(w: &Json, metric: &str) -> Option<f64> {
    w.get("end_to_end")?.get(metric)?.get("median")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn compare_workload(name: &str, a: &Json, b: &Json, rows: &mut Vec<Row>) {
    let mut push = |metric: &str, va: String, vb: String, note: String, verdict| {
        rows.push(Row {
            workload: name.to_string(),
            metric: metric.to_string(),
            a: va,
            b: vb,
            note,
            verdict,
        })
    };
    for m in &END_TO_END {
        let (Some(ma), Some(mb)) = (median_of(a, m.name), median_of(b, m.name)) else {
            continue;
        };
        let (verdict, note) = if m.exact {
            if ma.to_bits() == mb.to_bits() {
                (Verdict::Agree, "identical".to_string())
            } else {
                (
                    Verdict::Differ,
                    format!(
                        "{:+.3} % (must be identical)",
                        worse_by(m.better, ma, mb) * 100.0
                    ),
                )
            }
        } else {
            let rel = worse_by(m.better, ma, mb);
            let widest = spread(&trials(a, m.name)).max(spread(&trials(b, m.name)));
            let note = format!(
                "{:+.2} % worse, bound {:.0} %, trial spread {:.2} %",
                rel * 100.0,
                m.bound * 100.0,
                widest * 100.0
            );
            if widest > m.bound {
                (Verdict::Unresolved, note)
            } else if rel.abs() <= m.bound {
                (Verdict::Agree, note)
            } else {
                (Verdict::Differ, note)
            }
        };
        push(
            m.name,
            format!("{ma:.4}"),
            format!("{mb:.4}"),
            note,
            verdict,
        );
    }
    for key in ["digest", "events", "ops_attempted"] {
        let (va, vb) = (a.get(key), b.get(key));
        let show = |v: Option<&Json>| v.map_or("-".to_string(), Json::compact);
        let verdict = if va == vb {
            Verdict::Agree
        } else {
            Verdict::Differ
        };
        push(key, show(va), show(vb), "exact".to_string(), verdict);
    }
    let share = |w: &Json| {
        let failed = w.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = w.get("ops_attempted").and_then(Json::as_f64).unwrap_or(1.0);
        failed / attempted.max(1.0)
    };
    let ok = share(b) <= share(a) && b.get("correct") == Some(&Json::Bool(true));
    push(
        "ops_failed_share",
        format!("{:.6}", share(a)),
        format!("{:.6}", share(b)),
        "B may not fail more, and must be correct".to_string(),
        if ok { Verdict::Agree } else { Verdict::Differ },
    );
    // Traced result sets: counts read off the engines repeat exactly.
    for m in PER_LAYER.iter().filter(|m| m.source == 'O') {
        let get = |w: &Json| {
            w.get("per_layer")
                .and_then(|l| l.get(m.name))
                .and_then(Json::as_f64)
        };
        if let (Some(va), Some(vb)) = (get(a), get(b)) {
            let verdict = if va.to_bits() == vb.to_bits() {
                Verdict::Agree
            } else {
                Verdict::Differ
            };
            push(
                m.name,
                format!("{va}"),
                format!("{vb}"),
                "exact count".to_string(),
                verdict,
            );
        }
    }
}

/// Compare two parsed result files. `Err` when they are not comparable at
/// all (different seed or run length: the work itself differs).
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in ["seed", "seconds", "traced"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "result sets differ in `{key}` ({} vs {}): not the same work",
                a.get(key).map_or("-".into(), Json::compact),
                b.get(key).map_or("-".into(), Json::compact)
            ));
        }
    }
    let mut rows = Vec::new();
    for wa in a.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let Some(name) = wa.get("name").and_then(Json::as_str) else {
            continue;
        };
        let wb = b
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name));
        match wb {
            Some(wb) => compare_workload(name, wa, wb, &mut rows),
            None => rows.push(Row {
                workload: name.to_string(),
                metric: "-".into(),
                a: "present".into(),
                b: "missing".into(),
                note: "workload missing from B".into(),
                verdict: Verdict::Differ,
            }),
        }
    }
    if rows.is_empty() {
        return Err("no workload in common".to_string());
    }
    Ok(rows)
}

/// Print one row per workload x metric; returns the process exit code.
pub fn report(rows: &[Row]) -> i32 {
    println!(
        "{:<18} {:<34} {:>18} {:>18}  {:<10} note",
        "workload", "metric", "A", "B", "verdict"
    );
    for r in rows {
        println!(
            "{:<18} {:<34} {:>18} {:>18}  {:<10} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            match r.verdict {
                Verdict::Agree => "agree",
                Verdict::Differ => "DIFFER",
                Verdict::Unresolved => "UNRESOLVED",
            },
            r.note
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (differ, unresolved) = (count(Verdict::Differ), count(Verdict::Unresolved));
    println!(
        "\n{} rows: {} agree, {differ} differ, {unresolved} unresolved",
        rows.len(),
        count(Verdict::Agree)
    );
    i32::from(differ > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ios_trials: [f64; 3], p50: f64, failed: u64) -> Json {
        let metric = |median: f64, trials: &[f64]| {
            Json::obj().with("median", median).with(
                "trials",
                trials.iter().map(|v| Json::from(*v)).collect::<Vec<_>>(),
            )
        };
        Json::obj()
            .with("seed", 11u64)
            .with("seconds", 10u64)
            .with("traced", false)
            .with(
                "workloads",
                vec![Json::obj()
                    .with("name", "solar_4k_fanin")
                    .with("correct", true)
                    .with("ops_attempted", 1000u64)
                    .with("ops_failed", failed)
                    .with("digest", "abc")
                    .with("events", 5u64)
                    .with(
                        "end_to_end",
                        Json::obj()
                            .with(
                                "ios_per_s",
                                metric(crate::stats::median(&ios_trials), &ios_trials),
                            )
                            .with("sim_p50_us", metric(p50, &[p50, p50, p50])),
                    )],
            )
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn host_time_agrees_within_its_bound_and_differs_beyond_it() {
        let bound = crate::spec::end_to_end("ios_per_s").unwrap().bound;
        let a = result([100.0, 101.0, 102.0], 90.0, 0);
        let scaled = |k: f64| result([100.0 * k, 101.0 * k, 102.0 * k], 90.0, 0);
        let near = compare(&a, &scaled(1.0 - bound / 2.0)).unwrap();
        assert_eq!(verdict_of(&near, "ios_per_s"), Verdict::Agree);
        assert_eq!(report(&near), 0);
        for k in [1.0 - bound * 1.2, 1.0 + bound * 1.2] {
            let far = compare(&a, &scaled(k)).unwrap();
            assert_eq!(verdict_of(&far, "ios_per_s"), Verdict::Differ);
            assert_eq!(report(&far), 1);
        }
    }

    #[test]
    fn a_wide_trial_spread_is_unresolved_not_unchanged() {
        let a = result([100.0, 101.0, 102.0], 90.0, 0);
        let noisy = compare(&a, &result([70.0, 100.0, 130.0], 90.0, 0)).unwrap();
        assert_eq!(verdict_of(&noisy, "ios_per_s"), Verdict::Unresolved);
    }

    #[test]
    fn simulated_values_must_be_identical_and_failures_may_not_grow() {
        let a = result([100.0, 101.0, 102.0], 90.0, 0);
        let drift = compare(&a, &result([100.0, 101.0, 102.0], 90.001, 0)).unwrap();
        assert_eq!(verdict_of(&drift, "sim_p50_us"), Verdict::Differ);
        let failing = compare(&a, &result([100.0, 101.0, 102.0], 90.0, 3)).unwrap();
        assert_eq!(verdict_of(&failing, "ops_failed_share"), Verdict::Differ);
    }

    #[test]
    fn different_work_is_not_comparable() {
        let a = result([1.0, 1.0, 1.0], 1.0, 0);
        let b = result([1.0, 1.0, 1.0], 1.0, 0).with("extra", 1u64);
        assert!(compare(&a, &b).is_ok());
        let mut other_seed = result([1.0, 1.0, 1.0], 1.0, 0);
        if let Json::Obj(fields) = &mut other_seed {
            fields[0].1 = Json::from(12u64);
        }
        assert!(compare(&a, &other_seed).is_err());
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worse_by(Better::Lower, 100.0, 90.0), -0.1);
    }
}
