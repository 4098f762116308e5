//! The metrics registry.
//!
//! Counters, gauges and log-bucketed histograms keyed by static
//! `(component, name)` pairs. Backed by a `BTreeMap` so iteration (and
//! therefore every export) is deterministic; keys are `&'static str` so
//! registration never allocates strings.

use std::collections::BTreeMap;

use ebs_stats::Histogram;

/// One registered metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone (within one sample pass) accumulator.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Distribution of `u64` observations (we use nanoseconds or bytes).
    Histogram(Histogram),
}

type Key = (&'static str, &'static str);

/// Registry of counters, gauges and histograms. Hosts own one (or more)
/// and pass it to [`Sample`](crate::Sample) impls; see the sampling
/// convention there.
#[derive(Debug, Default)]
pub struct Metrics {
    map: BTreeMap<Key, MetricValue>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to counter `component/name`, registering at 0 first. A
    /// key previously holding another metric type is replaced.
    #[inline]
    pub fn counter_add(&mut self, component: &'static str, name: &'static str, delta: u64) {
        match self
            .map
            .entry((component, name))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            slot => *slot = MetricValue::Counter(delta),
        }
    }

    /// Set gauge `component/name` to `value` (last write wins).
    #[inline]
    pub fn gauge_set(&mut self, component: &'static str, name: &'static str, value: f64) {
        self.map
            .insert((component, name), MetricValue::Gauge(value));
    }

    /// Record one observation into histogram `component/name`.
    #[inline]
    pub fn observe(&mut self, component: &'static str, name: &'static str, value: u64) {
        match self
            .map
            .entry((component, name))
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.record(value),
            slot => {
                let mut h = Histogram::new();
                h.record(value);
                *slot = MetricValue::Histogram(h);
            }
        }
    }

    /// Current counter value (0 when absent or of another type).
    pub fn counter(&self, component: &'static str, name: &'static str) -> u64 {
        match self.map.get(&(component, name)) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Current gauge value.
    pub fn gauge(&self, component: &'static str, name: &'static str) -> Option<f64> {
        match self.map.get(&(component, name)) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Registered histogram.
    pub fn histogram(&self, component: &'static str, name: &'static str) -> Option<&Histogram> {
        match self.map.get(&(component, name)) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All metrics in deterministic (component, name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, &MetricValue)> {
        self.map.iter().map(|(&(c, n), v)| (c, n, v))
    }

    /// Registered metric count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every registration — the start of a fresh sample pass.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_type_registers() {
        let mut m = Metrics::new();
        m.counter_add("net", "drops", 3);
        m.gauge_set("sim", "queue_len", 7.0);
        m.observe("solar", "srtt_ns", 45_000);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut m = Metrics::new();
        m.counter_add("net", "drops", 2);
        m.counter_add("net", "drops", 3);
        assert_eq!(m.counter("net", "drops"), 5);
        assert_eq!(m.counter("net", "absent"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = Metrics::new();
        m.gauge_set("dpu.cpu", "utilization", 0.25);
        m.gauge_set("dpu.cpu", "utilization", 0.75);
        assert_eq!(m.gauge("dpu.cpu", "utilization"), Some(0.75));
    }

    #[test]
    fn histograms_record_observations() {
        let mut m = Metrics::new();
        for v in [10u64, 20, 30] {
            m.observe("sa.qos", "delay_ns", v);
        }
        let h = m.histogram("sa.qos", "delay_ns").expect("registered");
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let mut m = Metrics::new();
        m.counter_add("z", "b", 1);
        m.counter_add("a", "y", 1);
        m.counter_add("a", "x", 1);
        let keys: Vec<(&str, &str)> = m.iter().map(|(c, n, _)| (c, n)).collect();
        assert_eq!(keys, vec![("a", "x"), ("a", "y"), ("z", "b")]);
    }

    #[test]
    fn type_mismatch_replaces_without_panicking() {
        let mut m = Metrics::new();
        m.gauge_set("x", "v", 1.0);
        m.counter_add("x", "v", 4);
        assert_eq!(m.counter("x", "v"), 4);
        m.observe("x", "v", 9);
        assert_eq!(m.histogram("x", "v").map(|h| h.count()), Some(1));
    }
}
