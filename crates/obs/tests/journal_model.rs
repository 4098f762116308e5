//! Model-based property test for the journal's compact ring: random
//! scripts of span / instant / counter / clear over capacities 1–64 must
//! match a reference that keeps whole [`Event`]s in a `VecDeque`, the
//! way the journal stored them before its records were packed — same
//! retained events in the same order, same `len`, same `dropped`, and
//! the same Chrome-trace bytes, rendered here by the exporter's original
//! `&Event` walk.
//!
//! Track and name strings come from a pool that holds the same text at
//! several addresses (`String::leak` copies of the literals), so sites
//! that intern to different codes must still decode to equal text.
//!
//! 256 cases by default; CI runs `PROPTEST_CASES=2048` in release.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::LazyLock;

use ebs_obs::{chrome_trace, Event, EventKind, Journal};
use ebs_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Literals, then a leaked copy of each: equal text, distinct address.
static POOL: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    let literals = ["io", "sa", "net", "submit", "write", "x"];
    let copies = literals.map(|s| &*String::from(s).leak());
    literals.into_iter().chain(copies).collect()
});

/// The journal as it was: whole events in a `VecDeque`, oldest evicted.
struct Reference {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl Reference {
    fn record(&mut self, at: SimTime, track: &'static str, kind: EventKind) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event { at, track, kind });
    }

    /// `chrome_trace` over the reference's events, as the exporter walked
    /// `&Event`s before the ring was packed.
    fn chrome_trace(&self) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let mut tids: Vec<&'static str> = Vec::new();
        let mut indexed: Vec<(usize, &Event)> = Vec::new();
        for e in &self.buf {
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
        let mut lines: Vec<String> = tids
            .iter()
            .enumerate()
            .map(|(tid, name)| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    tid + 1,
                    name
                )
            })
            .collect();
        for (tid, e) in indexed {
            let (ts, tid) = (us(e.at.as_nanos()), tid + 1);
            let mut l = String::new();
            let _ = match e.kind {
                EventKind::Span { name, id, dur } => write!(
                    l,
                    "{{\"name\":\"{name}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{id}}}}}",
                    us(dur.as_nanos())
                ),
                EventKind::Instant { name, id, arg } => write!(
                    l,
                    "{{\"name\":\"{name}\",\"cat\":\"obs\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{id},\"arg\":{arg}}}}}"
                ),
                EventKind::Counter { name, value } => write!(
                    l,
                    "{{\"name\":\"{name}\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"value\":{value}}}}}"
                ),
            };
            lines.push(l);
        }
        let body: Vec<String> = lines.iter().map(|l| format!("\n  {l}")).collect();
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}\n]}}\n",
            body.join(",")
        )
    }
}

proptest! {
    /// After every operation the journal and the reference hold the same
    /// events, `len` and `dropped`; after the script, the same export.
    #[test]
    fn compact_ring_matches_vecdeque_reference(
        cap in 1usize..65,
        ops in proptest::collection::vec(
            // (op, track, name, id/value, dur/arg, time): op 0-3 span,
            // 4-6 instant, 7-8 counter, 9 clear (one in ten).
            (0u8..10, 0usize..12, 0usize..12, any::<u64>(), 0u64..1_000_000, 0u64..10_000_000),
            0..300,
        ),
    ) {
        let mut j = Journal::with_capacity(cap);
        let mut r = Reference { buf: VecDeque::new(), cap, dropped: 0 };
        for &(op, track, name, a, b, at) in &ops {
            let (track, name, at) = (POOL[track], POOL[name], SimTime::from_nanos(at));
            match op {
                0..=3 => {
                    let end = at + SimDuration::from_nanos(b);
                    j.span(track, name, a, at, end);
                    r.record(at, track, EventKind::Span { name, id: a, dur: end.saturating_since(at) });
                }
                4..=6 => {
                    j.instant(at, track, name, a, b);
                    r.record(at, track, EventKind::Instant { name, id: a, arg: b });
                }
                7..=8 => {
                    j.counter(at, track, name, a as i64);
                    r.record(at, track, EventKind::Counter { name, value: a as i64 });
                }
                _ => {
                    j.clear();
                    r.buf.clear();
                }
            }
            prop_assert_eq!(j.len(), r.buf.len());
            prop_assert_eq!(j.dropped(), r.dropped);
            prop_assert_eq!(j.is_empty(), r.buf.is_empty());
            prop_assert!(j.events().eq(r.buf.iter().copied()), "events diverged after op {op}");
        }
        prop_assert_eq!(j.capacity(), cap);
        prop_assert_eq!(chrome_trace(&j), r.chrome_trace());
    }
}
