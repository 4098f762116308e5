//! Distributed tracing of I/O latency.
//!
//! Production EBS attributes every I/O's latency to SA / FN / BN / SSD
//! via distributed trace (Fig. 6 caption); the testbed does the same so
//! experiments can print the paper's stacked-bar breakdowns. QoS policy
//! delay is recorded separately and excluded from the components, exactly
//! as the paper's measurement methodology prescribes.

use ebs_sa::IoKind;
use ebs_sim::{SimDuration, SimTime};
use ebs_stats::Histogram;

/// One I/O's trace record.
#[derive(Debug, Clone, Copy)]
pub struct IoTrace {
    /// Issuing compute server.
    pub compute: usize,
    /// Read or write.
    pub kind: IoKind,
    /// I/O size in bytes.
    pub bytes: u32,
    /// Guest submission time.
    pub submitted: SimTime,
    /// Completion time (None = still outstanding / hung).
    pub completed: Option<SimTime>,
    /// QoS policy delay (excluded from the component breakdown).
    pub qos_delay: SimDuration,
    /// Storage-agent time (tables, CRC, crypto, PCIe, CPU queueing).
    pub sa: SimDuration,
    /// Frontend-network time (transport round trip minus storage time).
    pub fn_: SimDuration,
    /// Backend-network time inside the storage cluster.
    pub bn: SimDuration,
    /// Chunk-server + SSD time.
    pub ssd: SimDuration,
}

impl IoTrace {
    /// End-to-end latency excluding QoS policy delay.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed.map(|c| {
            c.saturating_since(self.submitted)
                .saturating_sub(self.qos_delay)
        })
    }

    /// True if unanswered for at least `threshold` at observation time
    /// `now` (the paper's I/O-hang definition uses one minute; Table 2
    /// counts one second).
    pub fn hung(&self, now: SimTime, threshold: SimDuration) -> bool {
        match self.completed {
            Some(c) => c.saturating_since(self.submitted) >= threshold,
            None => now.saturating_since(self.submitted) >= threshold,
        }
    }
}

/// Aggregated component histograms over a set of traces (one Fig. 6 bar
/// group).
#[derive(Debug)]
pub struct Breakdown {
    /// SA component.
    pub sa: Histogram,
    /// FN component.
    pub fn_: Histogram,
    /// BN component.
    pub bn: Histogram,
    /// SSD component.
    pub ssd: Histogram,
    /// End-to-end (ex-QoS).
    pub total: Histogram,
}

impl Breakdown {
    /// Aggregate completed traces matching `kind` and `bytes`.
    pub fn collect<'a>(
        traces: impl IntoIterator<Item = &'a IoTrace>,
        kind: IoKind,
        bytes: u32,
    ) -> Self {
        let mut b = Breakdown {
            sa: Histogram::new(),
            fn_: Histogram::new(),
            bn: Histogram::new(),
            ssd: Histogram::new(),
            total: Histogram::new(),
        };
        for t in traces {
            if t.kind != kind || t.bytes != bytes || t.completed.is_none() {
                continue;
            }
            b.sa.record_ns(t.sa.as_nanos());
            b.fn_.record_ns(t.fn_.as_nanos());
            b.bn.record_ns(t.bn.as_nanos());
            b.ssd.record_ns(t.ssd.as_nanos());
            b.total
                .record_ns(t.latency().expect("completed").as_nanos());
        }
        b
    }

    /// Re-derive the Fig. 6 breakdown for (`kind`, `bytes`) I/Os from the
    /// observability journal instead of the [`IoTrace`] records. The
    /// testbed emits spans that tile each completed I/O (see
    /// [`crate::diag`]), so per-I/O component sums here equal the trace
    /// fields exactly; on an empty journal every histogram is simply
    /// empty.
    pub fn from_journal(journal: &ebs_obs::Journal, kind: IoKind, bytes: u32) -> Self {
        use ebs_obs::EventKind;
        use std::collections::BTreeMap;

        let want = match kind {
            IoKind::Read => "read",
            IoKind::Write => "write",
        };
        // Size filter: submit instants carry `bytes << 1 | is_write`.
        let mut bytes_of: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in journal.events() {
            if ev.track != crate::diag::IO_TRACK {
                continue;
            }
            if let EventKind::Instant {
                name: "submit",
                id,
                arg,
            } = ev.kind
            {
                bytes_of.insert(id, arg >> 1);
            }
        }
        // Completed, matching I/Os and their end-to-end (ex-QoS) latency.
        let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in journal.events() {
            if ev.track != crate::diag::IO_TRACK {
                continue;
            }
            if let EventKind::Span { name, id, dur } = ev.kind {
                if name == want && bytes_of.get(&id) == Some(&(bytes as u64)) {
                    totals.insert(id, dur.as_nanos());
                }
            }
        }
        // Per-I/O component sums (`sa` appears twice per I/O: submission
        // and completion side).
        let mut comp: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
        for ev in journal.events() {
            if let EventKind::Span { id, dur, .. } = ev.kind {
                if !totals.contains_key(&id) {
                    continue;
                }
                let sums = comp.entry(id).or_insert([0; 4]);
                match ev.track {
                    "sa" => sums[0] += dur.as_nanos(),
                    "fn" => sums[1] += dur.as_nanos(),
                    "bn" => sums[2] += dur.as_nanos(),
                    "ssd" => sums[3] += dur.as_nanos(),
                    _ => {}
                }
            }
        }
        let mut b = Breakdown {
            sa: Histogram::new(),
            fn_: Histogram::new(),
            bn: Histogram::new(),
            ssd: Histogram::new(),
            total: Histogram::new(),
        };
        for (id, total) in &totals {
            let sums = comp.get(id).copied().unwrap_or([0; 4]);
            b.sa.record_ns(sums[0]);
            b.fn_.record_ns(sums[1]);
            b.bn.record_ns(sums[2]);
            b.ssd.record_ns(sums[3]);
            b.total.record_ns(*total);
        }
        b
    }

    /// (sa, fn, bn, ssd, total) at quantile `q`, in microseconds.
    pub fn at(&self, q: f64) -> (f64, f64, f64, f64, f64) {
        let us = |h: &Histogram| h.quantile(q) as f64 / 1000.0;
        (
            us(&self.sa),
            us(&self.fn_),
            us(&self.bn),
            us(&self.ssd),
            us(&self.total),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(done_us: u64) -> IoTrace {
        IoTrace {
            compute: 0,
            kind: IoKind::Write,
            bytes: 4096,
            submitted: SimTime::ZERO,
            completed: Some(SimTime::from_micros(done_us)),
            qos_delay: SimDuration::ZERO,
            sa: SimDuration::from_micros(10),
            fn_: SimDuration::from_micros(20),
            bn: SimDuration::from_micros(5),
            ssd: SimDuration::from_micros(15),
        }
    }

    #[test]
    fn latency_excludes_qos() {
        let mut tr = t(100);
        tr.qos_delay = SimDuration::from_micros(40);
        assert_eq!(tr.latency().unwrap(), SimDuration::from_micros(60));
    }

    #[test]
    fn hang_detection() {
        let mut tr = t(100);
        tr.completed = None;
        assert!(!tr.hung(SimTime::from_millis(1), SimDuration::from_secs(1)));
        assert!(tr.hung(SimTime::from_secs(2), SimDuration::from_secs(1)));
        // A completed-but-slow I/O also counts.
        let slow = IoTrace {
            completed: Some(SimTime::from_secs(3)),
            ..t(0)
        };
        assert!(slow.hung(SimTime::from_secs(10), SimDuration::from_secs(1)));
    }

    #[test]
    fn breakdown_filters_and_aggregates() {
        let traces = vec![t(50), t(60), {
            let mut x = t(1000);
            x.kind = IoKind::Read;
            x
        }];
        let b = Breakdown::collect(&traces, IoKind::Write, 4096);
        assert_eq!(b.total.count(), 2);
        let (sa, f, bn, ssd, total) = b.at(0.5);
        assert!((sa - 10.0).abs() < 0.5);
        assert!((f - 20.0).abs() < 0.7);
        assert!((bn - 5.0).abs() < 0.3);
        assert!((ssd - 15.0).abs() < 0.6);
        assert!(total >= 50.0);
    }
}
