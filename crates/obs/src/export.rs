//! Exporters: Chrome trace-event JSON and a flat metrics snapshot.
//!
//! [`chrome_trace`] renders a [`Journal`] in the Chrome trace-event JSON
//! format — load the file in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing` to get one named track per component with spans,
//! instant markers and counter series. [`metrics_snapshot`] renders a
//! [`Metrics`] registry as one flat JSON object. Both are hand-rolled
//! (the build is offline and vendors no serde), emit keys in a fixed
//! deterministic order, and produce stable byte-for-byte output for
//! identical inputs.

use std::fmt::Write as _;

use crate::journal::{Event, EventKind, Journal};
use crate::metrics::{MetricValue, Metrics};

/// Nanoseconds → trace-event microseconds with nanosecond precision,
/// rendered as a decimal literal (no float formatting jitter).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render `journal` as Chrome trace-event JSON.
///
/// Tracks become "threads" of one process: a `thread_name` metadata record
/// names each, and events are emitted grouped by track in time order, so
/// `ts` is monotone non-decreasing within every track. Spans become `"X"`
/// (complete) events, instants `"i"`, counters `"C"`.
pub fn chrome_trace(journal: &Journal) -> String {
    // Assign tids by order of first appearance, then emit sorted by
    // (tid, ts). The sort is stable, so same-timestamp events keep their
    // journal order.
    let mut tids: Vec<&'static str> = Vec::new();
    let mut indexed: Vec<(usize, Event)> = Vec::new();
    for e in journal.events() {
        let tid = match tids.iter().position(|&t| t == e.track) {
            Some(i) => i,
            None => {
                tids.push(e.track);
                tids.len() - 1
            }
        };
        indexed.push((tid, e));
    }
    indexed.sort_by_key(|&(tid, e)| (tid, e.at));

    let mut s = String::with_capacity(64 + indexed.len() * 96);
    s.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &mut String| {
        if first {
            first = false;
        } else {
            s.push(',');
        }
        s.push_str("\n  ");
    };
    for (tid, name) in tids.iter().enumerate() {
        emit(&mut s);
        let _ = write!(
            s,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid + 1,
            name
        );
    }
    for (tid, e) in &indexed {
        emit(&mut s);
        let ts = us(e.at.as_nanos());
        let tid = tid + 1;
        match e.kind {
            EventKind::Span { name, id, dur } => {
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{}}}}}",
                    name,
                    ts,
                    us(dur.as_nanos()),
                    tid,
                    id
                );
            }
            EventKind::Instant { name, id, arg } => {
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"arg\":{}}}}}",
                    name, ts, tid, id, arg
                );
            }
            EventKind::Counter { name, value } => {
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    name, ts, tid, value
                );
            }
        }
    }
    s.push_str("\n]}\n");
    s
}

/// Finite-float rendering for the snapshot (JSON has no NaN/Inf).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Render `metrics` as one flat JSON object: `"component/name"` keys in
/// deterministic order; counters as integers, gauges as floats, histograms
/// as `{count, mean, min, p50, p95, p99, max}` summaries.
pub fn metrics_snapshot(metrics: &Metrics) -> String {
    let mut s = String::from("{");
    let mut first = true;
    for (component, name, value) in metrics.iter() {
        if first {
            first = false;
        } else {
            s.push(',');
        }
        let _ = write!(s, "\n  \"{component}/{name}\": ");
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(s, "{v}");
            }
            MetricValue::Gauge(v) => s.push_str(&num(*v)),
            MetricValue::Histogram(h) => {
                let _ = write!(
                    s,
                    "{{\"count\": {}, \"mean\": {}, \"min\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                    h.count(),
                    num(h.mean()),
                    h.min(),
                    h.median(),
                    h.p95(),
                    h.p99(),
                    h.max()
                );
            }
        }
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_export_valid_shells() {
        let j = Journal::new();
        let m = Metrics::new();
        assert!(chrome_trace(&j).contains("traceEvents"));
        assert!(metrics_snapshot(&m).starts_with('{'));
    }

    #[test]
    fn us_rendering_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    /// Minimal JSON syntax checker (the build vendors no serde): returns
    /// the byte offset of the first malformed character.
    fn check_json(src: &str) -> Result<(), usize> {
        fn ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            i
        }
        fn string(b: &[u8], i: usize) -> Result<usize, usize> {
            if b.get(i) != Some(&b'"') {
                return Err(i);
            }
            let mut i = i + 1;
            while i < b.len() {
                match b[i] {
                    b'"' => return Ok(i + 1),
                    b'\\' => i += 2,
                    _ => i += 1,
                }
            }
            Err(i)
        }
        fn value(b: &[u8], i: usize) -> Result<usize, usize> {
            match b.get(i) {
                Some(b'{') => {
                    let mut i = ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return Ok(i + 1);
                    }
                    loop {
                        i = string(b, i)?;
                        i = ws(b, i);
                        if b.get(i) != Some(&b':') {
                            return Err(i);
                        }
                        i = value(b, ws(b, i + 1))?;
                        i = ws(b, i);
                        match b.get(i) {
                            Some(b',') => i = ws(b, i + 1),
                            Some(b'}') => return Ok(i + 1),
                            _ => return Err(i),
                        }
                    }
                }
                Some(b'[') => {
                    let mut i = ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return Ok(i + 1);
                    }
                    loop {
                        i = value(b, i)?;
                        i = ws(b, i);
                        match b.get(i) {
                            Some(b',') => i = ws(b, i + 1),
                            Some(b']') => return Ok(i + 1),
                            _ => return Err(i),
                        }
                    }
                }
                Some(b'"') => string(b, i),
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    let mut i = i + 1;
                    while i < b.len()
                        && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                    {
                        i += 1;
                    }
                    Ok(i)
                }
                _ => [&b"true"[..], b"false", b"null"]
                    .iter()
                    .find(|lit| b[i..].starts_with(lit))
                    .map(|lit| i + lit.len())
                    .ok_or(i),
            }
        }
        let b = src.as_bytes();
        let i = value(b, ws(b, 0))?;
        if ws(b, i) == b.len() {
            Ok(())
        } else {
            Err(i)
        }
    }

    /// Pull the numeric value following `key` out of one rendered event.
    fn field(line: &str, key: &str) -> f64 {
        let rest = &line[line.find(key).expect(key) + key.len()..];
        let end = rest.find([',', '}']).expect("terminated");
        rest[..end].parse().expect("numeric field")
    }

    #[test]
    fn chrome_trace_round_trips_valid_json_with_monotone_ts() {
        use ebs_sim::SimTime;
        let t = SimTime::from_micros;
        let mut j = Journal::new();
        // Two overlapping I/Os completing in reverse start order — the
        // realistic case where journal order is NOT start order — plus an
        // instant and a counter on other tracks.
        j.instant(t(10), "io", "submit", 0, (8192 << 1) | 1);
        j.instant(t(12), "io", "submit", 1, (8192 << 1) | 1);
        j.span("sa", "sa", 1, t(12), t(20));
        j.span("io", "write", 1, t(12), t(20));
        j.span("sa", "sa", 0, t(10), t(25));
        j.span("io", "write", 0, t(10), t(25));
        j.counter(t(30), "net", "q", 7);

        let trace = chrome_trace(&j);
        assert_eq!(check_json(&trace), Ok(()), "{trace}");

        // Every track ("thread") must replay in non-decreasing ts order,
        // or Perfetto renders interleaved lanes.
        let mut last: std::collections::BTreeMap<u64, f64> = Default::default();
        let mut events = 0;
        for line in trace.lines().filter(|l| l.contains("\"ts\":")) {
            let tid = field(line, "\"tid\":") as u64;
            let ts = field(line, "\"ts\":");
            if let Some(&prev) = last.get(&tid) {
                assert!(prev <= ts, "track {tid} went backwards: {prev} > {ts}");
            }
            last.insert(tid, ts);
            events += 1;
        }
        assert_eq!(events, 7, "{trace}");
        assert_eq!(last.len(), 3, "one lane per track");

        // The metrics snapshot is JSON too.
        let mut m = Metrics::new();
        m.counter_add("net", "drops", 3);
        m.gauge_set("dpu.cpu", "utilization", 0.25);
        m.observe("sa", "ns", 1234);
        assert_eq!(check_json(&metrics_snapshot(&m)), Ok(()));
    }

    #[test]
    fn check_json_rejects_malformed() {
        assert!(check_json("{\"a\": 1,}").is_err());
        assert!(check_json("[1, 2").is_err());
        assert!(check_json("{\"a\" 1}").is_err());
        assert!(check_json("{\"a\": 1} trailing").is_err());
        assert!(check_json("{\"a\": [1, {\"b\": null}], \"c\": -2.5e3}").is_ok());
    }

    #[test]
    fn identical_inputs_export_identically() {
        use ebs_sim::SimTime;
        let build = || {
            let mut j = Journal::new();
            j.span(
                "sa",
                "sa",
                1,
                SimTime::from_micros(5),
                SimTime::from_micros(9),
            );
            j.counter(SimTime::from_micros(6), "net", "q", 42);
            let mut m = Metrics::new();
            m.counter_add("net", "drops", 3);
            m.observe("sa", "ns", 1234);
            (chrome_trace(&j), metrics_snapshot(&m))
        };
        assert_eq!(build(), build());
    }
}
