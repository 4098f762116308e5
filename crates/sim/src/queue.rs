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
//! Events live in a free-list slab; the ordering structures hold 24-byte
//! keys `(at, seq, slot)`:
//!
//! * a **timer wheel** of [`WHEEL_SLOTS`] buckets, each covering
//!   2^[`SLOT_NS_SHIFT`] ns (256 ns — narrower than almost every hop in the
//!   model, so a follow-up event lands in a *later* bucket; the wheel
//!   spans ≈131 µs), holding near-future keys unsorted;
//! * the **run**: the bucket being drained, sorted once when it is
//!   activated and consumed by index;
//! * a small **late heap** for keys scheduled into the already-activated
//!   past of the window (in practice: into the bucket being drained);
//! * an **overflow heap** for keys beyond the wheel horizon (timers),
//!   migrated into the wheel as the window slides over them.
//!
//! `schedule_*` is a `Vec` push for near-future events, and peek/pop is
//! O(1): the smaller of the run's head and the late heap's top.
//!
//! The wheel window slides only after a bucket is drained and spans
//! exactly [`WHEEL_SLOTS`] buckets, so two distinct in-window bucket
//! numbers can never share a ring index: buckets never mix "rounds" and
//! activation takes the whole bucket, no per-key round filtering.

use std::cmp::Reverse;
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

/// Ordering key for a scheduled event; the payload stays in the slab.
/// Derived ordering is `(at, seq)` — `seq` is unique, so `slot` never
/// decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Absolute wheel-bucket number of this key's timestamp.
    fn bucket(&self) -> u64 {
        self.at.as_nanos() >> SLOT_NS_SHIFT
    }
}

/// A deterministic priority queue of timestamped events.
pub struct EventQueue<E> {
    /// Event storage, indexed by [`Key::slot`]; `None` slots are on `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// Near-future buckets (unsorted). Bucket `b` maps to ring index
    /// `b % WHEEL_SLOTS`; activation swaps the bucket with the spent run,
    /// so capacity circulates and steady-state scheduling is
    /// allocation-free.
    wheel: Box<[Vec<Key>; WHEEL_SLOTS]>,
    /// One bit per non-empty ring slot, for O(1)-ish bucket scans.
    occupied: [u64; WHEEL_WORDS],
    /// Keys in buckets, to skip scans when the wheel is dry.
    wheel_keys: usize,
    /// The most recently activated bucket, sorted by `(at, seq)`;
    /// `run[run_head..]` is still pending.
    run: Vec<Key>,
    run_head: usize,
    /// Keys scheduled into buckets `< activated` (min-heap).
    late: BinaryHeap<Reverse<Key>>,
    /// Keys beyond the wheel horizon (min-heap).
    overflow: BinaryHeap<Reverse<Key>>,
    /// Every bucket `< activated` has been moved out of the wheel; the
    /// wheel window is `[activated, activated + WHEEL_SLOTS)`.
    activated: u64,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// Keys in any ordering structure.
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
            slab: Vec::new(),
            free: Vec::new(),
            wheel: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; WHEEL_WORDS],
            wheel_keys: 0,
            run: Vec::new(),
            run_head: 0,
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            activated: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
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
        self.popped
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

    fn alloc(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.slab[slot as usize].is_none());
            self.slab[slot as usize] = Some(event);
            slot
        } else {
            // lint: allow(panic_discipline) — hard capacity ceiling: 2^32 simultaneously scheduled events exceeds any simulated workload by orders of magnitude, and there is no sane degraded mode
            let slot = u32::try_from(self.slab.len()).expect("slab overflow");
            self.slab.push(Some(event));
            slot
        }
    }

    fn place(&mut self, key: Key) {
        let b = key.bucket();
        if b < self.activated {
            self.late.push(Reverse(key));
        } else if b < self.activated + WHEEL_SLOTS as u64 {
            let idx = b as usize & (WHEEL_SLOTS - 1);
            self.wheel[idx].push(key);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_keys += 1;
        } else {
            self.overflow.push(Reverse(key));
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
        let slot = self.alloc(event);
        self.queued += 1;
        self.max_queued = self.max_queued.max(self.queued);
        self.place(Key { at, seq, slot });
    }

    /// Schedule `event` to fire `after` from the current time.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.schedule_at(self.now + after, event)
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
        if self.wheel_keys == 0 {
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
        while let Some(&Reverse(k)) = self.overflow.peek().filter(|k| k.0.bucket() < horizon) {
            self.overflow.pop();
            self.place(k);
        }
        let b = self
            .next_occupied_bucket()
            // lint: allow(panic_discipline) — wheel invariant (wheel_keys > 0 ⇒ an occupied bucket within the window), model-checked by tests/queue_model.rs; losing events silently would corrupt every downstream result
            .expect("advance with keys but no occupied bucket");
        let idx = b as usize & (WHEEL_SLOTS - 1);
        self.run.clear();
        self.run_head = 0;
        std::mem::swap(&mut self.run, &mut self.wheel[idx]);
        // `(at, seq)` is a total order (`seq` is unique), so an unstable
        // sort is deterministic; cascaded keys arrive out of `seq` order.
        self.run.sort_unstable();
        self.wheel_keys -= self.run.len();
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        self.activated = b + 1;
        true
    }

    /// The earliest pending key and whether it is the late heap's top
    /// (else the run's head), activating buckets as needed. Run and late
    /// keys sit in buckets `< activated`, wheel and overflow keys at or
    /// after it, so whenever either is non-empty their minimum is the
    /// global minimum.
    fn peek_key(&mut self) -> Option<(Key, bool)> {
        loop {
            match (self.run.get(self.run_head), self.late.peek()) {
                (Some(r), Some(Reverse(l))) if l < r => return Some((*l, true)),
                (Some(r), _) => return Some((*r, false)),
                (None, Some(Reverse(l))) => return Some((*l, true)),
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
        let (key, from_late) = self.peek_key()?;
        if key.at > horizon {
            return None;
        }
        if from_late {
            self.late.pop();
        } else {
            self.run_head += 1;
        }
        debug_assert!(key.at >= self.now, "time went backwards");
        self.free.push(key.slot);
        self.queued -= 1;
        self.now = key.at;
        self.popped += 1;
        let event = self.slab[key.slot as usize].take();
        debug_assert!(event.is_some(), "queued key without an event");
        event.map(|event| (key.at, event))
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
        self.peek_key().map(|(key, _)| key.at)
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
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn relative_scheduling_uses_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), 0u32);
        q.pop();
        q.schedule_after(SimDuration::from_micros(5), 1u32);
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
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec!["mid", "rto", "mid-far", "far"]);
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
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn ties_split_between_run_and_late_heap_still_fifo() {
        // Half the keys at `t` are placed before its bucket activates
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
        // slides one bucket on: `t` is in-window now, but its first key
        // was not yet covered when the cascade ran and is still in the
        // overflow heap, so the next key at `t` reaches the bucket first.
        assert_eq!(q.pop().map(|(_, e)| e), Some("anchor"));
        q.schedule_at(t, "direct-second");
        assert_eq!((q.overflow.len(), q.wheel_keys), (1, 1));
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
            // A late-heap key behind the already-activated next bucket.
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
    fn slab_is_bounded_by_peak_occupancy_not_throughput() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule_at(SimTime::from_nanos(i * 100), i);
            q.schedule_at(SimTime::from_nanos(i * 100), i);
            q.pop().expect("just scheduled");
            q.pop().expect("just scheduled");
        }
        assert!(q.is_empty());
        assert_eq!(q.slab.len(), 2, "popped slots are reused");
    }

    #[test]
    fn len_and_high_water_track_pending_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(1), 1);
        q.schedule_at(SimTime::from_micros(2), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.max_queued(), 2);
        assert_eq!((q.events_scheduled(), q.events_processed()), (2, 2));
    }
}
