//! Model-based property test for the event queue: random interleavings of
//! schedule / pop / pop_le / peek_time / advance_to must match a naive
//! sorted-vec reference model event for event — same values, same
//! timestamps, same tie order, same clock. This pins the determinism
//! contract of the timer-wheel implementation (FIFO at equal timestamps,
//! exact-once delivery, a clock that never passes a `pop_le` horizon)
//! against an implementation simple enough to be obviously correct.
//!
//! 256 cases by default; CI runs `PROPTEST_CASES=2048` in release.

use ebs_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// One scripted operation, pre-resolved from the raw random tuple. Every
/// `delta_ns` is relative to the model's clock when the op runs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delta_ns`.
    Schedule { delta_ns: u64 },
    /// Pop the next event.
    Pop,
    /// Pop the next event if it is due by `now + delta_ns`.
    PopLe { delta_ns: u64 },
    /// Peek the next timestamp (activates wheel buckets as a side effect,
    /// so later schedules exercise the late heap).
    PeekTime,
    /// Move the clock to `now + delta_ns`, clamped to the next pending
    /// event (skipping one is a caller bug the queue debug-asserts on).
    AdvanceTo { delta_ns: u64 },
}

/// Deltas biased toward the wheel's edges (256 ns buckets, 131 072 ns
/// window): the bucket being drained / late heap, inside the window, the
/// window edge, and far overflow that forces a re-anchor.
fn delta_ns(class: u8, raw: u64) -> u64 {
    match class {
        0..=2 => raw % 513,
        3..=4 => raw % 131_072,
        5..=6 => 130_000 + raw % 2_001,
        7 => 60_000_000 + raw % 60_000_000,
        _ => raw % 60_000_000,
    }
}

/// Naive reference: a vec of pending (at, seq, value) scanned linearly.
#[derive(Default)]
struct Model {
    entries: Vec<(u64, u64, u32)>,
    now_ns: u64,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, at_ns: u64, value: u32) {
        self.entries.push((at_ns, self.next_seq, value));
        self.next_seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.0).min()
    }

    fn pop_le(&mut self, horizon_ns: u64) -> Option<(u64, u32)> {
        let (idx, &(at, _, value)) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.0, e.1))?;
        if at > horizon_ns {
            return None;
        }
        self.entries.swap_remove(idx);
        self.now_ns = at;
        Some((at, value))
    }
}

proptest! {
    /// Impl and model agree on every popped (time, value) pair, every
    /// peek and the clock across a random op sequence, and drain
    /// identically at the end.
    #[test]
    fn matches_naive_model(
        ops in proptest::collection::vec(
            // (kind, delta class, raw delta): kind 0-4 schedule (biased),
            // 5-6 pop, 7-8 pop_le, 9 peek_time, 10 advance_to.
            (0u8..11, 0u8..9, any::<u64>()),
            1..400,
        ),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = Model::default();
        let mut next_value = 0u32;

        let script = ops.iter().map(|&(kind, class, raw)| {
            let delta_ns = delta_ns(class, raw);
            match kind {
                0..=4 => Op::Schedule { delta_ns },
                5..=6 => Op::Pop,
                7..=8 => Op::PopLe { delta_ns },
                9 => Op::PeekTime,
                _ => Op::AdvanceTo { delta_ns },
            }
        });

        for op in script {
            match op {
                Op::Schedule { delta_ns } => {
                    let at_ns = model.now_ns + delta_ns;
                    q.schedule_at(SimTime::from_nanos(at_ns), next_value);
                    model.schedule(at_ns, next_value);
                    next_value += 1;
                }
                Op::Pop => {
                    let got = q.pop().map(|(t, v)| (t.as_nanos(), v));
                    assert_eq!(got, model.pop_le(u64::MAX), "pop diverged from model");
                }
                Op::PopLe { delta_ns } => {
                    let horizon_ns = model.now_ns + delta_ns;
                    let got = q
                        .pop_le(SimTime::from_nanos(horizon_ns))
                        .map(|(t, v)| (t.as_nanos(), v));
                    assert_eq!(got, model.pop_le(horizon_ns), "pop_le diverged from model");
                    assert!(q.now().as_nanos() <= horizon_ns, "clock passed the horizon");
                }
                Op::PeekTime => {
                    let got = q.peek_time().map(SimTime::as_nanos);
                    assert_eq!(got, model.peek_time(), "peek_time diverged from model");
                }
                Op::AdvanceTo { delta_ns } => {
                    let t_ns = (model.now_ns + delta_ns).min(model.peek_time().unwrap_or(u64::MAX));
                    q.advance_to(SimTime::from_nanos(t_ns));
                    model.now_ns = t_ns;
                }
            }
            assert_eq!(q.now().as_nanos(), model.now_ns, "clock diverged after {op:?}");
            assert_eq!(q.len(), model.entries.len());
        }

        // Drain both to the end: identical order, then both empty.
        loop {
            let got = q.pop().map(|(t, v)| (t.as_nanos(), v));
            let want = model.pop_le(u64::MAX);
            assert_eq!(got, want, "drain diverged from model");
            if want.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), q.events_scheduled());
    }
}
