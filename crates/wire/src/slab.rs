//! A generational slab: stable `u32`-indexed storage with ABA-safe handles.
//!
//! The fabric's hot path moves packets from queue to queue on every hop.
//! Moving the packet *struct* (flow label + INT stack + payload) through
//! the event queue's storage costs a wide memcpy per schedule/pop; parking
//! it in a slab and moving a [`Handle`] (one `u64`) instead makes every
//! hop's event constant-size and small — small enough to live inside the
//! event queue's own entries. The block pool uses the same idiom for
//! buffers.
//!
//! Safety of recycling is by *generation*: freeing a slot bumps its
//! generation, so a stale handle (slot since reused) can never alias the
//! new occupant — `get`/`take` return `None` instead. The slab is
//! entirely safe code (`#![forbid(unsafe_code)]` stands); the guarantee is
//! checked by proptests and exercised under Miri in CI.

/// Identifies one live value in a [`Slab`]. Packs `generation << 32 |
/// slot`; copyable, hashable, and meaningless across slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(u64);

impl Handle {
    fn new(slot: u32, generation: u32) -> Self {
        Handle(((generation as u64) << 32) | slot as u64)
    }

    /// Slot index (diagnostics; slots are reused across generations).
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// Slot generation this handle was issued under.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(Debug)]
struct Entry<T> {
    generation: u32,
    val: Option<T>,
}

/// A generational slab (see module docs).
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `n` values before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(n),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated — bounded by the peak number of simultaneously
    /// live values, not by throughput.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Store `val`, returning its handle.
    pub fn insert(&mut self, val: T) -> Handle {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let e = &mut self.entries[slot as usize];
            debug_assert!(e.val.is_none());
            e.val = Some(val);
            Handle::new(slot, e.generation)
        } else {
            // lint: allow(panic_discipline) — 2^32 simultaneously live values exceeds any simulated working set by orders of magnitude; there is no sane degraded mode
            let slot = u32::try_from(self.entries.len()).expect("slab overflow");
            self.entries.push(Entry {
                generation: 0,
                val: Some(val),
            });
            Handle::new(slot, 0)
        }
    }

    /// Borrow the value behind `h`, or `None` if it was taken (stale
    /// handle — including a handle whose slot has since been reused).
    pub fn get(&self, h: Handle) -> Option<&T> {
        let e = self.entries.get(h.slot() as usize)?;
        if e.generation != h.generation() {
            return None;
        }
        e.val.as_ref()
    }

    /// Mutably borrow the value behind `h` (same staleness rules as
    /// [`Slab::get`]).
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        let e = self.entries.get_mut(h.slot() as usize)?;
        if e.generation != h.generation() {
            return None;
        }
        e.val.as_mut()
    }

    /// Remove and return the value behind `h`, freeing its slot for reuse
    /// under a bumped generation. Stale handles return `None` and change
    /// nothing.
    pub fn take(&mut self, h: Handle) -> Option<T> {
        let e = self.entries.get_mut(h.slot() as usize)?;
        if e.generation != h.generation() {
            return None;
        }
        let val = e.val.take()?;
        e.generation = e.generation.wrapping_add(1);
        self.free.push(h.slot());
        self.len -= 1;
        Some(val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_take_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.take(a), Some("a"));
        assert_eq!(s.get(a), None, "taken handle is stale");
        assert_eq!(s.take(a), None, "double take is a no-op");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn recycled_slot_does_not_alias() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.take(a);
        let b = s.insert(2u32);
        assert_eq!(b.slot(), a.slot(), "slot is reused");
        assert_ne!(b.generation(), a.generation(), "generation bumped");
        assert_eq!(s.get(a), None, "stale handle sees nothing");
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.take(a), None);
        assert_eq!(s.get(b), Some(&2), "stale take cannot evict the new value");
    }

    #[test]
    fn slots_bounded_by_peak_not_throughput() {
        let mut s = Slab::new();
        for i in 0..10_000u32 {
            let h = s.insert(i);
            s.take(h);
        }
        assert_eq!(s.slots(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn get_mut_mutates_live_only() {
        let mut s = Slab::new();
        let a = s.insert(vec![1]);
        s.get_mut(a).unwrap().push(2);
        assert_eq!(s.get(a), Some(&vec![1, 2]));
        s.take(a);
        assert!(s.get_mut(a).is_none());
    }
}
