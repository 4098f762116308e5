//! Journal-driven diagnostics: hop-by-hop I/O timeline reconstruction.
//!
//! The testbed emits one span per latency component per completed I/O
//! into the observability journal (tracks `io`, `sa.qos`, `sa`, `fn`,
//! `bn`, `ssd`, all keyed by the trace index). This module is the
//! journal's consumer side: without touching [`IoTrace`](crate::IoTrace)
//! it answers the on-call question "why was the slowest I/O slow?" with a
//! tiled timeline.
//!
//! The component spans *tile* the I/O's interval in attribution order
//! (QoS → SA → FN → BN → SSD → completion-side SA), not wire order —
//! the same convention the paper's stacked bars use — so their durations
//! sum exactly to the end-to-end latency.

use ebs_obs::{EventKind, Journal};
use ebs_sa::IoKind;
use ebs_sim::{SimDuration, SimTime};

/// Track carrying the whole-I/O span and the `submit` instant.
pub const IO_TRACK: &str = "io";

/// One component's slice of a reconstructed I/O timeline.
#[derive(Debug, Clone, Copy)]
pub struct HopSpan {
    /// Component track (`sa.qos`, `sa`, `fn`, `bn`, `ssd`).
    pub component: &'static str,
    /// Slice start.
    pub start: SimTime,
    /// Slice length.
    pub dur: SimDuration,
}

/// The slowest I/O, explained hop by hop.
#[derive(Debug, Clone)]
pub struct IoExplanation {
    /// Trace index of the I/O (the span id in the journal).
    pub io_id: u64,
    /// Read or write.
    pub kind: IoKind,
    /// I/O size in bytes (0 when the submit instant was evicted).
    pub bytes: u64,
    /// End-to-end latency excluding QoS policy delay.
    pub total: SimDuration,
    /// Component slices, in timeline order.
    pub hops: Vec<HopSpan>,
}

impl IoExplanation {
    /// The slice the I/O spent the longest in.
    pub fn dominant(&self) -> Option<&HopSpan> {
        self.hops.iter().max_by_key(|h| h.dur)
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let kind = match self.kind {
            IoKind::Read => "read",
            IoKind::Write => "write",
        };
        let _ = writeln!(
            out,
            "slowest io #{}: {} {} B in {}",
            self.io_id, kind, self.bytes, self.total
        );
        let total_ns = self.total.as_nanos().max(1);
        for h in &self.hops {
            let pct = h.dur.as_nanos() as f64 * 100.0 / total_ns as f64;
            let _ = writeln!(
                out,
                "  {:>6}  @{}  {}  ({pct:.1}%)",
                h.component, h.start, h.dur
            );
        }
        if let Some(d) = self.dominant() {
            let _ = writeln!(out, "  dominated by {}", d.component);
        }
        out
    }
}

/// Reconstruct the timeline of the slowest completed I/O recorded in
/// `journal`. Returns `None` when the journal holds no completed I/O.
pub fn explain_slowest(journal: &Journal) -> Option<IoExplanation> {
    // The slowest completed I/O = the `io`-track span with the largest
    // duration (ties: the earliest recorded wins, keeping this stable).
    let mut slowest: Option<(u64, &'static str, SimDuration)> = None;
    for ev in journal.events() {
        if ev.track != IO_TRACK {
            continue;
        }
        if let EventKind::Span { name, id, dur } = ev.kind {
            if slowest.is_none_or(|(_, _, best)| dur > best) {
                slowest = Some((id, name, dur));
            }
        }
    }
    let (io_id, name, total) = slowest?;
    let kind = if name == "read" {
        IoKind::Read
    } else {
        IoKind::Write
    };

    let mut bytes = 0u64;
    let mut hops = Vec::new();
    for ev in journal.events() {
        match ev.kind {
            EventKind::Instant {
                name: "submit",
                id,
                arg,
            } if ev.track == IO_TRACK && id == io_id => bytes = arg >> 1,
            EventKind::Span { id, dur, .. } if id == io_id && ev.track != IO_TRACK => {
                hops.push(HopSpan {
                    component: ev.track,
                    start: ev.at,
                    dur,
                });
            }
            _ => {}
        }
    }
    hops.sort_by_key(|h| (h.start, h.start + h.dur));
    Some(IoExplanation {
        io_id,
        kind,
        bytes,
        total,
        hops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_journal_has_no_explanation() {
        let j = Journal::new();
        assert!(explain_slowest(&j).is_none());
    }

    #[test]
    fn picks_the_slowest_and_orders_hops() {
        let mut j = Journal::new();
        let t = SimTime::from_micros;
        // io 1: 10us; io 2: 30us (slowest).
        j.instant(t(0), IO_TRACK, "submit", 1, (4096 << 1) | 1);
        j.span(IO_TRACK, "write", 1, t(0), t(10));
        j.instant(t(5), IO_TRACK, "submit", 2, 8192 << 1);
        j.span("sa", "read", 2, t(5), t(9));
        j.span("fn", "read", 2, t(9), t(20));
        j.span("ssd", "read", 2, t(25), t(35));
        j.span("bn", "read", 2, t(20), t(25));
        j.span(IO_TRACK, "read", 2, t(5), t(35));
        let e = explain_slowest(&j).expect("has completed io");
        assert_eq!(e.io_id, 2);
        assert_eq!(e.kind, IoKind::Read);
        assert_eq!(e.bytes, 8192);
        assert_eq!(e.total, SimDuration::from_micros(30));
        let order: Vec<&str> = e.hops.iter().map(|h| h.component).collect();
        assert_eq!(order, ["sa", "fn", "bn", "ssd"]);
        assert_eq!(e.dominant().expect("hops").component, "fn");
        let summed: SimDuration = e.hops.iter().fold(SimDuration::ZERO, |acc, h| acc + h.dur);
        assert_eq!(summed, e.total, "hops tile the io span");
        assert!(e.render().contains("dominated by fn"));
    }
}
