//! The structured event journal.
//!
//! A bounded ring buffer of typed events stamped with injected
//! [`SimTime`]. When full, the oldest events are overwritten (and counted
//! in [`Journal::dropped`]) so steady-state recording cost and memory stay
//! constant no matter how long a simulation runs — the journal always
//! holds the most recent window, which is the one diagnostics ("explain
//! the slowest I/O", failover timelines) care about.

use std::collections::VecDeque;

use ebs_sim::{SimDuration, SimTime};

/// Default ring capacity (events). At ~48 bytes per event this is ~3 MiB —
/// roomy enough for hundreds of thousands of I/O timelines.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What happened. `track` lives on the enclosing [`Event`]; the variants
/// carry the rest. All names are `&'static str` so recording never
/// allocates or hashes strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span of known duration (Chrome trace `"X"`); `id`
    /// correlates spans of one logical operation (e.g. one I/O) across
    /// tracks.
    Span {
        /// Span name within the track.
        name: &'static str,
        /// Correlation id (e.g. trace index of the I/O).
        id: u64,
        /// Span length; the event's `at` is the span start.
        dur: SimDuration,
    },
    /// An instantaneous marker (Chrome trace `"i"`), e.g. a submission,
    /// a path-down detection, a blackhole suspicion.
    Instant {
        /// Marker name within the track.
        name: &'static str,
        /// Correlation id.
        id: u64,
        /// One free argument; the host defines the encoding (e.g. the
        /// stack packs I/O kind + size for journal-side Fig. 6 filters).
        arg: u64,
    },
    /// A counter sample (Chrome trace `"C"`): the value of a series at
    /// `at`, rendered by Perfetto as a stepped area chart.
    Counter {
        /// Series name within the track.
        name: &'static str,
        /// Sampled value.
        value: i64,
    },
}

/// One journal entry: a timestamped [`EventKind`] on a component track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time of the event (span start for spans).
    pub at: SimTime,
    /// Component track (one Perfetto track per distinct value).
    pub track: &'static str,
    /// The event payload.
    pub kind: EventKind,
}

/// The bounded, deterministic event journal. See module docs.
#[derive(Debug)]
pub struct Journal {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// A journal with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A journal holding at most `cap` events (≥ 1). No memory is
    /// reserved up front; the ring grows on first use, never past `cap`.
    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest when full.
    #[inline]
    pub fn record(&mut self, at: SimTime, track: &'static str, kind: EventKind) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event { at, track, kind });
    }

    /// Record a completed span `[start, end)`; `end < start` clamps to an
    /// empty span at `start`.
    #[inline]
    pub fn span(
        &mut self,
        track: &'static str,
        name: &'static str,
        id: u64,
        start: SimTime,
        end: SimTime,
    ) {
        self.record(
            start,
            track,
            EventKind::Span {
                name,
                id,
                dur: end.saturating_since(start),
            },
        );
    }

    /// Record an instantaneous marker.
    #[inline]
    pub fn instant(
        &mut self,
        at: SimTime,
        track: &'static str,
        name: &'static str,
        id: u64,
        arg: u64,
    ) {
        self.record(at, track, EventKind::Instant { name, id, arg });
    }

    /// Record a counter sample.
    #[inline]
    pub fn counter(&mut self, at: SimTime, track: &'static str, name: &'static str, value: i64) {
        self.record(at, track, EventKind::Counter { name, value });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (capacity and drop count are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn every_event_kind_records() {
        let mut j = Journal::with_capacity(4);
        j.span("sa", "sa", 1, t(10), t(12));
        j.instant(t(10), "io", "io.submit", 1, 0);
        j.counter(t(11), "net", "queued_bytes", 4096);
        assert_eq!(j.len(), 3);
        assert_eq!(j.capacity(), 4);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut j = Journal::with_capacity(2);
        for i in 0..5u64 {
            j.instant(t(i), "x", "m", i, 0);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        let ids: Vec<u64> = j
            .events()
            .map(|e| match e.kind {
                EventKind::Instant { id, .. } => id,
                _ => u64::MAX,
            })
            .collect();
        assert_eq!(ids, vec![3, 4], "oldest evicted first");
    }

    #[test]
    fn span_clamps_negative_durations() {
        let mut j = Journal::new();
        j.span("sa", "sa", 7, t(10), t(5));
        let e = j.events().next().copied();
        match e {
            Some(Event {
                at,
                kind: EventKind::Span { dur, .. },
                ..
            }) => {
                assert_eq!(at, t(10));
                assert_eq!(dur, SimDuration::ZERO);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut j = Journal::with_capacity(8);
        j.counter(t(1), "a", "b", 1);
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.capacity(), 8);
    }
}
