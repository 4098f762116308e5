//! A byte stream carried as the views it was written as: [`ViewQueue`] is
//! the stream at rest (a send queue, a receive queue, a decoder's backlog),
//! [`ByteChain`] a stretch cut out of it (a segment's payload).
//!
//! A TCP segment is `min(window budget, mss)` bytes of the send queue, and
//! the send queue is a sequence of application writes — for LUNA, a 40-byte
//! RPC header view followed by the caller's untouched payload view. A
//! segment that straddles a write boundary therefore covers more than one
//! view. [`ByteChain`] lets it *carry* those views instead of gluing them
//! into a fresh buffer: a single view is held inline (the overwhelmingly
//! common single-view segment allocates nothing) and only a straddling
//! segment becomes a small vector of handles.

use std::collections::VecDeque;

use bytes::{Buf, Bytes};

/// A FIFO of non-empty [`Bytes`] views with a running byte count: a byte
/// stream waiting to be consumed, in the pieces it arrived in. Bytes leave
/// from the front by handle — whole views, or an O(1) split of the front
/// view — never by copy.
#[derive(Debug, Default)]
pub struct ViewQueue {
    views: VecDeque<Bytes>,
    /// Bytes across `views`.
    len: usize,
}

impl ViewQueue {
    /// An empty queue.
    pub fn new() -> Self {
        ViewQueue::default()
    }

    /// Bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `view` (an empty view is dropped).
    pub fn push(&mut self, view: Bytes) {
        if !view.is_empty() {
            self.len += view.len();
            self.views.push_back(view);
        }
    }

    /// Remove the front view whole.
    pub fn pop(&mut self) -> Option<Bytes> {
        let view = self.views.pop_front()?;
        self.len -= view.len();
        Some(view)
    }

    /// Remove the front view, or only its first `max` bytes if it is
    /// longer. Empty only when `max` is 0 or the queue is.
    pub fn pop_up_to(&mut self, max: usize) -> Bytes {
        match self.views.front_mut() {
            Some(front) if front.len() > max => {
                self.len -= max;
                front.split_to(max)
            }
            _ => self.pop().unwrap_or_default(),
        }
    }

    /// The queued views, front first.
    pub fn views(&self) -> impl Iterator<Item = &Bytes> {
        self.views.iter()
    }

    /// Drop everything queued.
    pub fn clear(&mut self) {
        self.views.clear();
        self.len = 0;
    }
}

/// An ordered run of non-empty [`Bytes`] views forming one contiguous
/// stretch of a byte stream. Cloning and splitting move handles, never
/// payload bytes.
///
/// One view is held inline — and the `Many` case hides in `Bytes`' own
/// spare tag values, so a chain is no larger than the single `Bytes` it
/// usually is (pinned by a test: `ebs_tcp::Segment`, and with it every
/// packet the simulated fabric carries, did not grow).
#[derive(Debug, Clone)]
pub struct ByteChain(Views);

#[derive(Debug, Clone)]
enum Views {
    /// At most one view: the chain is empty iff it is.
    One(Bytes),
    /// The views of a stretch that crosses write boundaries, none empty.
    Many(Vec<Bytes>),
}

impl Default for ByteChain {
    fn default() -> Self {
        ByteChain(Views::One(Bytes::new()))
    }
}

impl ByteChain {
    /// An empty chain. Does not allocate.
    pub fn new() -> Self {
        ByteChain::default()
    }

    /// The views, in stream order.
    pub fn views(&self) -> &[Bytes] {
        match &self.0 {
            Views::One(view) if view.is_empty() => &[],
            Views::One(view) => std::slice::from_ref(view),
            Views::Many(views) => views,
        }
    }

    /// Total bytes across all views.
    pub fn len(&self) -> usize {
        self.views().iter().map(Bytes::len).sum()
    }

    /// True if the chain holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.views().is_empty()
    }

    /// Append `view` (an empty view is dropped).
    pub fn push(&mut self, view: Bytes) {
        if view.is_empty() {
            return;
        }
        match &mut self.0 {
            Views::One(only) if only.is_empty() => *only = view,
            Views::One(only) => self.0 = Views::Many(vec![std::mem::take(only), view]),
            Views::Many(views) => views.push(view),
        }
    }

    /// Drop the first `cnt` bytes of the stretch.
    ///
    /// # Panics
    /// Panics if `cnt > len`.
    pub fn advance(&mut self, mut cnt: usize) {
        match &mut self.0 {
            Views::One(only) => only.advance(cnt),
            Views::Many(views) => {
                let mut whole = 0;
                while whole < views.len() && views[whole].len() <= cnt {
                    cnt -= views[whole].len();
                    whole += 1;
                }
                views.drain(..whole);
                match views.first_mut() {
                    Some(front) => front.advance(cnt),
                    None => assert!(cnt == 0, "advance out of bounds"),
                }
            }
        }
    }
}

impl IntoIterator for ByteChain {
    type Item = Bytes;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Bytes>, std::vec::IntoIter<Bytes>>;

    /// The views by value, in stream order.
    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Views::One(view) => ((!view.is_empty()).then_some(view), Vec::new()),
            Views::Many(views) => (None, views),
        };
        one.into_iter().chain(many)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_queue_hands_out_views_and_counts_bytes() {
        let slab = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mut q = ViewQueue::new();
        q.push(Bytes::new());
        assert!(q.is_empty() && q.pop().is_none() && q.pop_up_to(5).is_empty());
        q.push(slab.slice(..4));
        q.push(slab.slice(4..));
        assert_eq!((q.len(), q.views().count()), (10, 2));
        // Shorter than the front view: an O(1) split of it.
        let head = q.pop_up_to(3);
        assert_eq!((&head[..], q.len()), (&[0u8, 1, 2][..], 7));
        assert_eq!(head.as_ptr(), slab.as_ptr(), "a handle, not a copy");
        // At least the front view: that view whole, never more.
        assert_eq!(&q.pop_up_to(100)[..], &[3]);
        assert_eq!(q.pop(), Some(slab.slice(4..)));
        assert!(q.is_empty() && q.pop().is_none());
        q.push(slab.clone());
        q.clear();
        assert_eq!((q.len(), q.views().count()), (0, 0));
    }

    fn flat(c: &ByteChain) -> Vec<u8> {
        c.views().iter().flat_map(|v| v.iter().copied()).collect()
    }

    /// Niche layout is what rustc does, not what the language promises:
    /// if a toolchain stops, `ebs_tcp::Segment` and every simulated packet
    /// grow, and this is where that is heard.
    #[test]
    fn a_chain_is_no_larger_than_one_view() {
        assert_eq!(
            std::mem::size_of::<ByteChain>(),
            std::mem::size_of::<Bytes>()
        );
    }

    #[test]
    fn empty_chain_has_no_views() {
        let c = ByteChain::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.views().is_empty());
        assert_eq!(c.into_iter().count(), 0);
    }

    #[test]
    fn push_keeps_order_and_skips_empty_views() {
        let mut c = ByteChain::new();
        c.push(Bytes::new());
        c.push(Bytes::from(vec![1, 2]));
        c.push(Bytes::new());
        c.push(Bytes::from(vec![3]));
        c.push(Bytes::from(vec![4, 5, 6]));
        assert_eq!(c.len(), 6);
        assert_eq!(c.views().len(), 3);
        assert_eq!(flat(&c), [1, 2, 3, 4, 5, 6]);
        let by_value: Vec<Bytes> = c.clone().into_iter().collect();
        assert_eq!(by_value.len(), 3);
        assert_eq!(by_value[2], Bytes::from(vec![4, 5, 6]));
    }

    #[test]
    fn views_share_the_pushed_storage() {
        let slab = Bytes::from(vec![7u8; 64]);
        let mut c = ByteChain::new();
        c.push(slab.slice(..16));
        c.push(slab.slice(16..48));
        let mut joined = Bytes::new();
        for v in c {
            joined.try_unsplit(v).expect("adjacent views of one slab");
        }
        assert_eq!(joined, slab.slice(..48));
    }

    #[test]
    fn advance_drops_a_prefix_across_view_boundaries() {
        let stream: Vec<u8> = (0u8..20).collect();
        for skip in 0..=stream.len() {
            let mut c = ByteChain::new();
            c.push(Bytes::from(stream[..3].to_vec()));
            c.push(Bytes::from(stream[3..4].to_vec()));
            c.push(Bytes::from(stream[4..].to_vec()));
            c.advance(skip);
            assert_eq!(flat(&c), &stream[skip..], "skip {skip}");
            assert_eq!(c.len(), stream.len() - skip);
            assert_eq!(c.is_empty(), skip == stream.len());
        }
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advance_past_the_end_panics() {
        let mut c = ByteChain::new();
        c.push(Bytes::from(vec![1, 2, 3]));
        c.advance(4);
    }
}
