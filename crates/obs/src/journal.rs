//! The structured event journal.
//!
//! A bounded ring buffer of typed events stamped with injected
//! [`SimTime`]. When full, the oldest events are overwritten (and counted
//! in [`Journal::dropped`]) so steady-state recording cost and memory stay
//! constant no matter how long a simulation runs — the journal always
//! holds the most recent window, which is the one diagnostics ("explain
//! the slowest I/O", failover timelines) care about.
//!
//! ## Layout
//!
//! A retained event costs 26 bytes: a 24-byte record of three `u64`s
//! (`at`, the id or counter value, the span length or instant argument)
//! and, in a parallel ring, a `u16` code for its (track, name, kind).
//! [`Event`] and [`EventKind`] are decoded views built by
//! [`Journal::events`]. The code table keeps three invariants:
//!
//! * codes are handed out in first-appearance order, one per distinct
//!   (track address, name address, kind): a code's value is set by the
//!   order sites first record, never by an address's numeric value;
//! * the same text at two addresses may get two codes; both decode to
//!   that text, so no reader can tell them apart;
//! * lookup is a direct-mapped cache keyed on the string addresses and
//!   checked against the table, falling back to a scan of the table (one
//!   entry per recording site) on a miss. No hashing of text, no
//!   allocation once the site has been seen.

use ebs_sim::{SimDuration, SimTime};

/// Default ring capacity (events). At 26 bytes per event a full ring
/// owns 1.6 MiB and holds the last ~9,000 I/O timelines (about seven
/// events each).
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

/// A retained event's numbers; its code says what they mean.
#[derive(Debug)]
struct Record {
    /// `at` in nanoseconds.
    at: u64,
    /// Span or instant id; a counter's value as two's complement.
    a: u64,
    /// Span length in nanoseconds or instant argument; 0 for counters.
    b: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Span,
    Instant,
    Counter,
}

/// What a code stands for.
#[derive(Debug, Clone, Copy)]
struct Site {
    track: &'static str,
    name: &'static str,
    kind: Kind,
}

impl Site {
    /// Same strings (by address) and kind.
    fn is(&self, track: &'static str, name: &'static str, kind: Kind) -> bool {
        fn same(a: &str, b: &str) -> bool {
            a.as_ptr() == b.as_ptr() && a.len() == b.len()
        }
        self.kind == kind && same(self.track, track) && same(self.name, name)
    }
}

/// Distinct (track, name, kind) triples one journal can name.
const MAX_SITES: usize = 1 << 16;

/// Slots of the direct-mapped site cache.
const CACHE_SLOTS: usize = 256;

/// The cache slot of a (track, name, kind): Fibonacci hashing of the two
/// addresses. Only which slot is probed depends on the address, never a
/// code.
fn slot(track: &'static str, name: &'static str, kind: Kind) -> usize {
    let key = (track.as_ptr() as u64).rotate_left(29) ^ name.as_ptr() as u64 ^ kind as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// The bounded, deterministic event journal. See module docs.
#[derive(Debug)]
pub struct Journal {
    /// Ring of retained records; `records[head]` is the oldest once full.
    records: Vec<Record>,
    /// `codes[i]` is the site of `records[i]`.
    codes: Vec<u16>,
    /// Where the next eviction overwrites; 0 until the ring is full.
    head: usize,
    cap: usize,
    dropped: u64,
    /// Code → site, in first-appearance order.
    sites: Vec<Site>,
    /// A code per slot, a hint checked against `sites` on every use.
    cache: [u16; CACHE_SLOTS],
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
            records: Vec::new(),
            codes: Vec::new(),
            head: 0,
            cap: cap.max(1),
            dropped: 0,
            sites: Vec::new(),
            cache: [0; CACHE_SLOTS],
        }
    }

    /// The code of a site: the cached hint when it checks out, else
    /// [`Journal::intern`]. `None` once [`MAX_SITES`] sites are taken.
    #[inline]
    fn code(&mut self, track: &'static str, name: &'static str, kind: Kind) -> Option<u16> {
        let slot = slot(track, name, kind);
        let hint = self.cache[slot];
        match self.sites.get(usize::from(hint)) {
            Some(site) if site.is(track, name, kind) => Some(hint),
            _ => self.intern(slot, track, name, kind),
        }
    }

    /// The cache-miss path of [`Journal::code`]: find the site in the
    /// table or add it, and point the slot at it. Kept out of line so the
    /// hit path inlines into every recording call.
    #[inline(never)]
    fn intern(
        &mut self,
        slot: usize,
        track: &'static str,
        name: &'static str,
        kind: Kind,
    ) -> Option<u16> {
        let code = match self.sites.iter().position(|s| s.is(track, name, kind)) {
            Some(i) => i,
            None if self.sites.len() < MAX_SITES => {
                self.sites.push(Site { track, name, kind });
                self.sites.len() - 1
            }
            None => return None,
        };
        // `code < MAX_SITES`, so it fits.
        let code = code as u16;
        self.cache[slot] = code;
        Some(code)
    }

    /// Append an event, evicting the oldest when full. An event whose
    /// (track, name, kind) would be the journal's 65,537th distinct one is
    /// not retained and counts as dropped.
    #[inline]
    pub fn record(&mut self, at: SimTime, track: &'static str, kind: EventKind) {
        let (name, kind, a, b) = match kind {
            EventKind::Span { name, id, dur } => (name, Kind::Span, id, dur.as_nanos()),
            EventKind::Instant { name, id, arg } => (name, Kind::Instant, id, arg),
            EventKind::Counter { name, value } => (name, Kind::Counter, value as u64, 0),
        };
        let Some(code) = self.code(track, name, kind) else {
            self.dropped += 1;
            return;
        };
        // Built in place on each path: a `Record` staged on the stack
        // and copied out costs a store-forwarding stall per event.
        let at = at.as_nanos();
        if self.records.len() < self.cap {
            self.fill(Record { at, a, b }, code);
            return;
        }
        self.records[self.head] = Record { at, a, b };
        self.codes[self.head] = code;
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.dropped += 1;
    }

    /// Append to a ring that is not full yet, growing it by doubling but
    /// never past `cap`. Out of line: a busy journal is full nearly always.
    #[inline(never)]
    fn fill(&mut self, rec: Record, code: u16) {
        let len = self.records.len();
        if len == self.records.capacity() {
            let more = len.max(4).min(self.cap - len);
            self.records.reserve_exact(more);
            self.codes.reserve_exact(more);
        }
        self.records.push(rec);
        self.codes.push(code);
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
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        let h = self.head;
        let older = self.records[h..].iter().zip(&self.codes[h..]);
        let newer = self.records[..h].iter().zip(&self.codes[..h]);
        older.chain(newer).map(|(r, &code)| self.decode(r, code))
    }

    /// The event a record and its code stand for.
    fn decode(&self, r: &Record, code: u16) -> Event {
        let site = self.sites[usize::from(code)];
        let name = site.name;
        let kind = match site.kind {
            Kind::Span => EventKind::Span {
                name,
                id: r.a,
                dur: SimDuration::from_nanos(r.b),
            },
            Kind::Instant => EventKind::Instant {
                name,
                id: r.a,
                arg: r.b,
            },
            Kind::Counter => EventKind::Counter {
                name,
                value: r.a as i64,
            },
        };
        Event {
            at: SimTime::from_nanos(r.at),
            track: site.track,
            kind,
        }
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted because the ring was full, plus any refused by
    /// [`Journal::record`] for a full site table.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (capacity and drop count are kept).
    pub fn clear(&mut self) {
        self.records.clear();
        self.codes.clear();
        self.head = 0;
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
        j.counter(t(11), "net", "queued_bytes", -4096);
        assert_eq!(j.len(), 3);
        assert_eq!(j.capacity(), 4);
        let kinds: Vec<EventKind> = j.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Span {
                    name: "sa",
                    id: 1,
                    dur: SimDuration::from_micros(2)
                },
                EventKind::Instant {
                    name: "io.submit",
                    id: 1,
                    arg: 0
                },
                EventKind::Counter {
                    name: "queued_bytes",
                    value: -4096
                },
            ]
        );
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
        let e = j.events().next();
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

    #[test]
    fn the_same_strings_as_another_kind_get_their_own_code() {
        let mut j = Journal::with_capacity(4);
        j.instant(t(1), "a", "b", 1, 2);
        j.span("a", "b", 1, t(1), t(3));
        assert_eq!(j.sites.len(), 2);
        assert!(matches!(
            j.events().nth(1).map(|e| e.kind),
            Some(EventKind::Span { .. })
        ));
    }

    #[test]
    fn a_full_site_table_refuses_new_sites_as_drops() {
        let mut j = Journal::with_capacity(4);
        j.instant(t(1), "a", "kept", 1, 0);
        let filler = Site {
            track: "filler",
            name: "filler",
            kind: Kind::Counter,
        };
        j.sites.resize(MAX_SITES, filler);
        j.instant(t(2), "a", "refused", 2, 0);
        j.instant(t(3), "a", "kept", 3, 0);
        assert_eq!((j.len(), j.dropped()), (2, 1));
        let ids: Vec<u64> = j
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Instant {
                    name: "kept", id, ..
                } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [1, 3]);
    }
}
