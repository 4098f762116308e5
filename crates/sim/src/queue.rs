//! The event queue at the heart of the discrete-event simulator.
//!
//! The queue is deliberately decoupled from any "world" state: callers pop
//! `(time, event)` pairs and dispatch them against their own state, then
//! schedule follow-up events. This sidesteps borrow-checker fights between
//! the event loop and component state, and keeps this crate free of domain
//! knowledge.
//!
//! Determinism: events pop in `(at, seq)` order, where `seq` is a
//! monotonically increasing sequence number assigned at scheduling time,
//! so ties in time are FIFO and two runs with the same inputs pop events
//! in exactly the same order.
//!
//! # Structure
//!
//! Each scheduled event lives inside its ordering entry `(at, seq, ev)`;
//! there is no side table, so a schedule writes one entry and a pop moves
//! it out. Entries sit in exactly one of:
//!
//! * a **timer wheel** of [`WHEEL_SLOTS`] buckets, each covering
//!   2^[`SLOT_NS_SHIFT`] ns (256 ns — narrower than almost every hop in the
//!   model, so a follow-up event lands in a *later* bucket; the wheel
//!   spans ≈131 µs), holding near-future entries unsorted;
//! * the **run**: the bucket being drained, sorted once (descending) when
//!   it is activated and consumed from the back;
//! * a small **late heap** for entries scheduled into the
//!   already-activated past of the window (in practice: into the bucket
//!   being drained);
//! * an **overflow heap** for entries beyond the wheel horizon (timers),
//!   migrated into the wheel as the window slides over them.
//!
//! `schedule_at` is a `Vec` push for near-future events, and peek/pop is
//! O(1): the smaller of the run's last entry and the late heap's top.
//!
//! The wheel window slides only after a bucket is drained and spans
//! exactly [`WHEEL_SLOTS`] buckets, so two distinct in-window bucket
//! numbers can never share a ring index: buckets never mix "rounds" and
//! activation takes the whole bucket, no per-entry round filtering.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Buckets in the timer wheel (power of two). With [`SLOT_NS_SHIFT`] the
/// window spans ≈131 µs: every fabric hop, serialisation and host-stack
/// delay lands in the wheel; only timers (under 1 % of schedules on the
/// flat benchmark cells) go through the overflow heap.
const WHEEL_SLOTS: usize = 512;
/// log2 of the nanoseconds each bucket covers (2^8 = 256 ns). Sized from
/// counted traffic (DESIGN.md §7.1, §7.10): hops in the model take 10 ns
/// to 2 µs, so at this width about three schedules in four land in a
/// bucket that has not been activated yet and cost one `Vec` push plus a
/// share of one small sort. Buckets wider than a hop defeat the wheel: at
/// 2^15 ns over 90 % of schedules land in the bucket being drained, i.e.
/// on a heap. Measured alternatives — 2^7, 2^9, 2^10 ns × 256, 512, 2048
/// slots — were all 0–16 % slower end to end.
const SLOT_NS_SHIFT: u32 = 8;
/// Words in the bucket-occupancy bitset.
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// A scheduled event and its ordering key. Entries compare on `(at, seq)`
/// only — `seq` is unique, so that is a total order and `E` needs no
/// bound.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    /// Absolute wheel-bucket number of this entry's timestamp.
    fn bucket(&self) -> u64 {
        self.at.as_nanos() >> SLOT_NS_SHIFT
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

/// A deterministic priority queue of timestamped events.
pub struct EventQueue<E> {
    /// Near-future buckets (unsorted). Bucket `b` maps to ring index
    /// `b % WHEEL_SLOTS`. An empty bucket owns no buffer: its first entry
    /// brings one from `spare`, and activation moves it into the run.
    wheel: Box<[Vec<Entry<E>>; WHEEL_SLOTS]>,
    /// Spent run buffers (empty, with capacity), most recently drained
    /// last: the next bucket to fill takes the one still in cache, so
    /// capacity circulates and steady-state scheduling is
    /// allocation-free.
    spare: Vec<Vec<Entry<E>>>,
    /// One bit per non-empty ring slot, for O(1)-ish bucket scans.
    occupied: [u64; WHEEL_WORDS],
    /// Entries in buckets, to skip scans when the wheel is dry.
    wheel_len: usize,
    /// What is still pending of the most recently activated bucket,
    /// sorted by descending `(at, seq)`: the next entry is the last.
    run: Vec<Entry<E>>,
    /// Entries scheduled into buckets `< activated` (min-heap).
    late: BinaryHeap<Reverse<Entry<E>>>,
    /// Entries beyond the wheel horizon (min-heap).
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Every bucket `< activated` has been moved out of the wheel; the
    /// wheel window is `[activated, activated + WHEEL_SLOTS)`.
    activated: u64,
    seq: u64,
    now: SimTime,
    /// Entries in any ordering structure.
    queued: usize,
    /// High-water mark of `queued` (occupancy telemetry).
    max_queued: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: Box::new(std::array::from_fn(|_| Vec::new())),
            spare: Vec::new(),
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            activated: 0,
            seq: 0,
            now: SimTime::ZERO,
            queued: 0,
            max_queued: 0,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (for run-length diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.seq - self.queued as u64
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Number of events ever scheduled (for run-length diagnostics).
    pub fn events_scheduled(&self) -> u64 {
        self.seq
    }

    /// Largest simultaneous occupancy seen — the queue-depth telemetry the
    /// observability layer samples.
    pub fn max_queued(&self) -> usize {
        self.max_queued
    }

    fn place(&mut self, entry: Entry<E>) {
        let b = entry.bucket();
        if b < self.activated {
            self.late.push(Reverse(entry));
        } else if b < self.activated + WHEEL_SLOTS as u64 {
            let idx = b as usize & (WHEEL_SLOTS - 1);
            let (word, bit) = (&mut self.occupied[idx / 64], 1 << (idx % 64));
            if *word & bit == 0 {
                *word |= bit;
                if let Some(buf) = self.spare.pop() {
                    self.wheel[idx] = buf;
                }
            }
            self.wheel[idx].push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics in debug builds if `at` is in the past: the simulator never
    /// rewinds its clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queued += 1;
        self.max_queued = self.max_queued.max(self.queued);
        self.place(Entry { at, seq, ev: event });
    }

    /// First occupied bucket in the window, if any. Word-wise bitset scan;
    /// only set bits of in-window buckets exist (see module docs).
    fn next_occupied_bucket(&self) -> Option<u64> {
        let start = self.activated;
        let end = start + WHEEL_SLOTS as u64;
        let mut b = start;
        while b < end {
            let idx = b as usize & (WHEEL_SLOTS - 1);
            let bit = idx % 64;
            let word = self.occupied[idx / 64] >> bit;
            if word != 0 {
                let cand = b + word.trailing_zeros() as u64;
                if cand < end {
                    return Some(cand);
                }
            }
            b += (64 - bit) as u64;
        }
        None
    }

    /// Activate the next occupied bucket as the new run. Only called with
    /// the run spent and the late heap empty. Returns `false` when no
    /// events remain anywhere.
    fn advance(&mut self) -> bool {
        if self.run.capacity() > 0 {
            self.spare.push(std::mem::take(&mut self.run));
        }
        if self.wheel_len == 0 {
            match self.overflow.peek() {
                // Wheel dry: jump the window straight to the earliest far
                // event (its bucket is ≥ `activated` by the overflow
                // invariant, but be defensive about it).
                Some(Reverse(top)) => self.activated = self.activated.max(top.bucket()),
                None => return false,
            }
        }
        // Cascade: as the window slides forward, far-future events whose
        // buckets it now covers must migrate into the wheel before a
        // bucket is chosen, or a later wheel event could overtake them.
        // Each overflow event migrates at most once (the horizon is
        // monotone between re-anchors), so this is amortized O(log n)
        // per event.
        let horizon = self.activated + WHEEL_SLOTS as u64;
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.bucket() >= horizon {
                break;
            }
            if let Some(Reverse(entry)) = self.overflow.pop() {
                self.place(entry);
            }
        }
        let b = self
            .next_occupied_bucket()
            // lint: allow(panic_discipline) — wheel invariant (wheel_len > 0 ⇒ an occupied bucket within the window), model-checked by tests/queue_model.rs; losing events silently would corrupt every downstream result
            .expect("advance with entries but no occupied bucket");
        let idx = b as usize & (WHEEL_SLOTS - 1);
        self.run = std::mem::take(&mut self.wheel[idx]);
        // `(at, seq)` is a total order (`seq` is unique), so an unstable
        // sort is deterministic; cascaded entries arrive out of `seq`
        // order. Descending, so pops take from the back.
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        self.wheel_len -= self.run.len();
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        self.activated = b + 1;
        true
    }

    /// The earliest pending timestamp and whether its entry is the late
    /// heap's top (else the run's last), activating buckets as needed. Run
    /// and late entries sit in buckets `< activated`, wheel and overflow
    /// entries at or after it, so whenever either is non-empty their
    /// minimum is the global minimum.
    fn peek_next(&mut self) -> Option<(SimTime, bool)> {
        loop {
            match (self.run.last(), self.late.peek()) {
                (Some(r), Some(Reverse(l))) if l < r => return Some((l.at, true)),
                (Some(r), _) => return Some((r.at, false)),
                (None, Some(Reverse(l))) => return Some((l.at, true)),
                (None, None) => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        }
    }

    /// Pop the next event if it is due at or before `horizon`, advancing
    /// the clock to its timestamp — never past `horizon`. The one pop
    /// path: [`EventQueue::pop`] is `pop_le(SimTime::MAX)`, and a world's
    /// run loop is `while let Some((now, ev)) = q.pop_le(horizon)`.
    /// Events a handler schedules at the timestamp just popped carry
    /// larger sequence numbers than everything already queued there, so
    /// they pop after it, still at that timestamp.
    pub fn pop_le(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (at, from_late) = self.peek_next()?;
        if at > horizon {
            return None;
        }
        let entry = if from_late {
            self.late.pop()?.0
        } else {
            self.run.pop()?
        };
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.queued -= 1;
        self.now = entry.at;
        Some((entry.at, entry.ev))
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_le(SimTime::MAX)
    }

    /// Advance the clock to `t` without popping anything — the windowed
    /// counterpart of [`EventQueue::pop_le`], for executors that run a
    /// queue in fixed time windows (the sharded fleet engine): after
    /// draining a window the shard's clock moves to the window edge even
    /// when the shard went idle before it, so every shard observes the
    /// same `now` at a barrier and cross-shard injections
    /// (`schedule_at(edge + latency, ..)`) are trivially in the future.
    ///
    /// Earlier `t` values are ignored (the clock never moves backwards);
    /// skipping over a still-pending event is a caller bug, caught in
    /// debug builds.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        debug_assert!(
            self.peek_time().is_none_or(|next| next >= t),
            "advance_to({t:?}) would skip a pending event"
        );
        self.now = t;
    }

    /// Timestamp of the next pending event without popping it (may
    /// activate a wheel bucket internally, hence `&mut`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_next().map(|(at, _)| at)
    }
}

/// Anything events can be scheduled onto. Implemented by [`EventQueue`]
/// itself and by adapters that wrap a queue of a larger event enum, so that
/// a subsystem (e.g. the network fabric) can schedule its own event type
/// while the composed world uses one enum for everything.
pub trait Scheduler<E> {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Schedule `event` at absolute time `at`.
    fn at(&mut self, at: SimTime, event: E);
    /// Schedule `event` after a relative delay.
    fn after(&mut self, d: SimDuration, event: E) {
        let at = self.now() + d;
        self.at(at, event)
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn at(&mut self, at: SimTime, event: E) {
        self.schedule_at(at, event)
    }
}

/// Adapter that lets a component scheduling events of type `Small` run on a
/// queue whose event type is a larger enum `Big`.
pub struct MapScheduler<'a, Big, Small, F>
where
    F: FnMut(Small) -> Big,
{
    inner: &'a mut EventQueue<Big>,
    map: F,
    _marker: core::marker::PhantomData<Small>,
}

impl<'a, Big, Small, F> MapScheduler<'a, Big, Small, F>
where
    F: FnMut(Small) -> Big,
{
    /// Wrap `queue` so that `Small` events are converted with `map`.
    pub fn new(queue: &'a mut EventQueue<Big>, map: F) -> Self {
        MapScheduler {
            inner: queue,
            map,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<'a, Big, Small, F> Scheduler<Small> for MapScheduler<'a, Big, Small, F>
where
    F: FnMut(Small) -> Big,
{
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn at(&mut self, at: SimTime, event: Small) {
        self.inner.schedule_at(at, (self.map)(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Width of one wheel bucket and of the whole window, in ns.
    const SLOT_NS: u64 = 1 << SLOT_NS_SHIFT;
    const WINDOW_NS: u64 = SLOT_NS * WHEEL_SLOTS as u64;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(5), "c");
        q.schedule_at(SimTime::from_micros(1), "a");
        q.schedule_at(SimTime::from_micros(3), "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn relative_scheduling_uses_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), 0u32);
        q.pop();
        q.after(SimDuration::from_micros(5), 1u32);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    fn map_scheduler_wraps_events() {
        #[derive(Debug, PartialEq)]
        enum Big {
            Net(u8),
        }
        let mut q: EventQueue<Big> = EventQueue::new();
        {
            let mut m = MapScheduler::new(&mut q, Big::Net);
            m.at(SimTime::from_micros(1), 42u8);
        }
        assert_eq!(q.pop().map(|(_, e)| e), Some(Big::Net(42)));
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        let mut q = EventQueue::new();
        // Mix of near (same bucket), mid (in-window) and far (overflow,
        // several horizons out) events, interleaved with pops.
        q.schedule_at(SimTime::from_secs(10), "far");
        q.schedule_at(SimTime::from_nanos(10), "near");
        q.schedule_at(SimTime::from_millis(20), "rto");
        q.schedule_at(SimTime::from_millis(500), "mid-far");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        q.schedule_at(SimTime::from_millis(1), "mid");
        assert_eq!(drain(&mut q), vec!["mid", "rto", "mid-far", "far"]);
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn ties_across_horizon_still_fifo() {
        // Same timestamp scheduled while it was beyond the horizon and
        // again after re-anchoring must still pop in insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, 0u32); // goes to overflow
        q.schedule_at(SimTime::from_micros(1), 99);
        q.pop(); // activates near bucket
        q.schedule_at(t, 1u32); // still overflow
        assert_eq!(drain(&mut q), vec![0, 1]);
    }

    #[test]
    fn ties_split_between_run_and_late_heap_still_fifo() {
        // Half the entries at `t` are placed before its bucket activates
        // (sorted run), half after (late heap); a later timestamp in the
        // same bucket sits behind both.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(3 * SLOT_NS + 7);
        for i in 0..8u32 {
            q.schedule_at(t, i);
        }
        q.schedule_at(t + SimDuration::from_nanos(1), 100);
        assert_eq!(q.peek_time(), Some(t), "peek activates the bucket");
        for i in 8..16u32 {
            q.schedule_at(t, i);
        }
        // Interleave pops with more same-timestamp schedules, as a
        // dispatch handler would.
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule_at(t, 16);
        let mut want: Vec<u32> = (1..=16).collect();
        want.push(100);
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn overflow_and_direct_keys_tie_in_seq_order_after_a_window_jump() {
        let mut q = EventQueue::new();
        let anchor = SimTime::from_nanos(39 * WINDOW_NS);
        // The first bucket beyond the window anchored at `anchor`.
        let t = anchor + SimDuration::from_nanos(WINDOW_NS + 5);
        q.schedule_at(t, "overflow-first");
        q.schedule_at(anchor, "anchor");
        // Popping the anchor jumps the dry wheel's window to it and then
        // slides one bucket on: `t` is in-window now, but its first entry
        // was not yet covered when the cascade ran and is still in the
        // overflow heap, so the next entry at `t` reaches the bucket first.
        assert_eq!(q.pop().map(|(_, e)| e), Some("anchor"));
        q.schedule_at(t, "direct-second");
        assert_eq!((q.overflow.len(), q.wheel_len), (1, 1));
        q.schedule_at(t + SimDuration::from_nanos(WINDOW_NS), "overflow-third");
        assert_eq!(
            drain(&mut q),
            vec!["overflow-first", "direct-second", "overflow-third"]
        );
    }

    #[test]
    fn pop_le_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(1), "a");
        q.schedule_at(SimTime::from_micros(1), "b");
        q.schedule_at(SimTime::from_micros(9), "late");
        let h = SimTime::from_micros(5);
        assert_eq!(q.pop_le(h), Some((SimTime::from_micros(1), "a")));
        assert_eq!(q.pop_le(h), Some((SimTime::from_micros(1), "b")));
        assert_eq!(q.pop_le(h), None);
        assert_eq!(q.len(), 1, "late event untouched");
        // An event exactly at the horizon is due.
        assert_eq!(
            q.pop_le(SimTime::from_micros(9)),
            Some((SimTime::from_micros(9), "late"))
        );
        assert_eq!(q.now(), SimTime::from_micros(9));
    }

    #[test]
    fn pop_le_never_moves_now_past_the_horizon() {
        // The next event may sit in the wheel, the late heap or the
        // overflow heap; looking for it activates buckets and re-anchors
        // the window, but the clock only moves when an event pops.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 0u32);
        q.schedule_at(SimTime::from_nanos(3 * SLOT_NS), 1);
        q.schedule_at(SimTime::from_nanos(7 * WINDOW_NS), 2);
        let mut popped = Vec::new();
        for h_ns in (0..8 * WINDOW_NS).step_by(SLOT_NS as usize * 37) {
            let h = SimTime::from_nanos(h_ns);
            while let Some((t, e)) = q.pop_le(h) {
                assert!(t <= h);
                popped.push(e);
            }
            assert!(q.now() <= h, "now {:?} past horizon {h:?}", q.now());
            // A late-heap entry behind the already-activated next bucket.
            if h_ns == 0 {
                q.schedule_at(SimTime::from_nanos(20), 3);
            }
        }
        assert_eq!(popped, vec![0, 3, 1, 2]);
    }

    #[test]
    fn advance_to_moves_the_clock_over_idle_windows() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(100), "late");
        assert_eq!(q.pop_le(SimTime::from_micros(40)), None);
        assert_eq!(q.now(), SimTime::ZERO, "an empty window leaves now put");
        q.advance_to(SimTime::from_micros(40));
        assert_eq!(q.now(), SimTime::from_micros(40));
        // Never backwards, even when asked.
        q.advance_to(SimTime::from_micros(10));
        assert_eq!(q.now(), SimTime::from_micros(40));
        // Scheduling relative to the advanced clock works as usual.
        q.schedule_at(SimTime::from_micros(60), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_micros(60), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(100), "late")));
    }

    #[test]
    fn windowed_runs_pop_identically_to_one_shot() {
        // run_until(h1); advance_to(h1); run_until(h2) must pop the same
        // sequence as run_until(h2) — the property the sharded engine's
        // legacy-equality guarantee rests on.
        let mut one = EventQueue::new();
        let mut win = EventQueue::new();
        for q in [&mut one, &mut win] {
            for i in 0..50u64 {
                q.schedule_at(SimTime::from_micros(i * 7 % 40), i);
            }
        }
        let got_one: Vec<_> = std::iter::from_fn(|| one.pop_le(SimTime::from_micros(50))).collect();
        let mut got_win = Vec::new();
        for edge in (10..=50).step_by(10) {
            let edge = SimTime::from_micros(edge);
            got_win.extend(std::iter::from_fn(|| win.pop_le(edge)));
            win.advance_to(edge);
        }
        assert_eq!(got_one, got_win);
        assert_eq!(got_one.len(), 50);
    }

    #[test]
    fn events_scheduled_at_the_popped_timestamp_pop_after_their_elders() {
        // An event scheduled at the timestamp just popped (as a dispatch
        // handler does) surfaces at that same timestamp, after everything
        // already queued there.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(4);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        assert_eq!(q.pop(), Some((t, "a")));
        q.schedule_at(t, "spawned-by-a");
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t, "spawned-by-a")));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn retained_capacity_stops_growing_under_a_steady_pattern() {
        // 64 tokens circulate: each pop re-schedules its token as a hop
        // into a later bucket, into the bucket being drained, or as a
        // timer past the horizon. Occupancy is bounded by the population,
        // so once every circulating `Vec` has seen its peak, nothing grows.
        let mut q = EventQueue::new();
        for n in 0..64u64 {
            q.schedule_at(SimTime::from_nanos(n * 50), n);
        }
        let run = |q: &mut EventQueue<u64>, pops| {
            for _ in 0..pops {
                let (now, n) = q.pop().expect("the population is constant");
                let delta_ns = match n % 16 {
                    0 => 2 * WINDOW_NS,
                    1..=3 => n % 200,
                    _ => 300 + n % 700,
                };
                q.schedule_at(now + SimDuration::from_nanos(delta_ns), n + 64);
            }
            let buckets: usize = q.wheel.iter().chain(&q.spare).map(Vec::capacity).sum();
            buckets + q.run.capacity() + q.late.capacity() + q.overflow.capacity()
        };
        let warm = run(&mut q, 500_000);
        assert!(warm <= (WHEEL_SLOTS + 3) * 64, "{warm} entries retained");
        assert_eq!(run(&mut q, 500_000), warm, "capacity grew in steady state");
    }

    #[test]
    fn bucket_buffers_are_recycled_not_multiplied() {
        // A steady hop pattern: every buffer the wheel owns is in an
        // occupied bucket, in the run or on the spare stack, and a fresh
        // one is allocated only when the spare stack is empty — so there
        // are never more than the occupied-bucket peak plus the run.
        let mut q = EventQueue::new();
        for n in 0..48u64 {
            q.schedule_at(SimTime::from_nanos(n * 70), n);
        }
        let occupied = |q: &EventQueue<u64>| -> usize {
            q.occupied.iter().map(|w| w.count_ones() as usize).sum()
        };
        let (mut peak, mut most) = (0, 0);
        for _ in 0..200_000 {
            let (now, n) = q.pop().expect("the population is constant");
            let delta_ns = 100 + n * 7_919 % 3_000;
            q.schedule_at(now + SimDuration::from_nanos(delta_ns), n + 48);
            peak = peak.max(occupied(&q));
            let owned = q.wheel.iter().filter(|b| b.capacity() > 0).count();
            assert_eq!(owned, occupied(&q), "only occupied buckets own buffers");
            let buffers = owned + q.spare.len() + usize::from(q.run.capacity() > 0);
            assert!(
                buffers <= peak + 1,
                "{buffers} buffers, peak {peak} buckets"
            );
            most = most.max(buffers);
        }
        assert!(
            peak > 8 && !q.spare.is_empty(),
            "the pattern must spread and recycle"
        );
        assert!(most > peak, "the run holds a buffer of its own");
    }

    #[test]
    fn every_event_is_popped_once_or_dropped_with_the_queue() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(3 * SLOT_NS);
        // Run and wheel entries, then a peek to activate `t`'s bucket; then
        // late and overflow heap entries.
        for i in 0..8u32 {
            q.schedule_at(t, (i, token.clone()));
            q.schedule_at(t + SimDuration::from_micros(2), (100 + i, token.clone()));
        }
        assert_eq!(q.peek_time(), Some(t));
        for i in 0..8u32 {
            q.schedule_at(t, (200 + i, token.clone()));
            q.schedule_at(SimTime::from_secs(1), (300 + i, token.clone()));
        }
        for want in 0..4 {
            assert_eq!(q.pop().map(|(_, (id, _))| id), Some(want));
        }
        assert_eq!((q.len(), q.max_queued()), (28, 32));
        assert_eq!((q.events_scheduled(), q.events_processed()), (32, 4));
        assert_eq!(Rc::strong_count(&token), 1 + 28, "pops hand events over");
        assert!(!q.run.is_empty() && !q.late.is_empty() && !q.overflow.is_empty());
        assert!(q.wheel_len > 0, "entries left in all four structures");
        drop(q);
        assert_eq!(Rc::strong_count(&token), 1, "the queue drops what it holds");
    }
}
