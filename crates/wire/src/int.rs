//! In-band network telemetry (INT).
//!
//! Switches on a SOLAR path stamp per-hop state into data packets; the
//! receiver echoes the stack back in the per-packet ACK, and the sender's
//! HPCC-style congestion control computes link utilization from it
//! (§4.5 and the HPCC paper the authors cite).

use bytes::{Buf, BufMut};

use crate::WireError;

/// One hop's telemetry record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntHop {
    /// Switch identifier.
    pub device_id: u32,
    /// Egress queue depth in bytes when the packet departed.
    pub queue_bytes: u32,
    /// Bytes transmitted on the egress port so far (tx byte counter).
    pub tx_bytes: u64,
    /// Switch-local timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Egress link capacity in Mbps.
    pub link_mbps: u32,
}

impl IntHop {
    /// Encoded size of one hop record.
    pub const LEN: usize = 28;
}

/// A stack of per-hop INT records, appended in path order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntStack {
    /// Hop records from source ToR to destination ToR.
    pub hops: Vec<IntHop>,
}

/// Maximum hops encodable (FN spans at most ToR-Spine-Core-Spine-ToR plus
/// DC routers; 15 is generous headroom).
pub const MAX_INT_HOPS: usize = 15;

/// Switches on the longest path the fabric builds, which crosses data
/// centres: ToR, spine, core, DC router, core, spine, ToR.
pub const PATH_INT_HOPS: usize = 7;

impl IntStack {
    /// An empty stack.
    pub fn new() -> Self {
        IntStack::default()
    }

    /// An empty stack with room for the longest fabric path
    /// ([`PATH_INT_HOPS`] records) already reserved, so per-hop stamping
    /// during traversal never reallocates. Prefer this when attaching a
    /// stack to a packet about to be injected into the fabric. A longer
    /// path still stamps up to [`MAX_INT_HOPS`]; the stack just grows.
    pub fn with_path_capacity() -> Self {
        IntStack {
            hops: Vec::with_capacity(PATH_INT_HOPS),
        }
    }

    /// Append a hop record (drops silently beyond [`MAX_INT_HOPS`], like
    /// real INT implementations that cap the stack).
    pub fn push(&mut self, hop: IntHop) {
        if self.hops.len() < MAX_INT_HOPS {
            self.hops.push(hop);
        }
    }

    /// Bytes this stack occupies on the wire.
    pub fn wire_len(&self) -> usize {
        1 + self.hops.len() * IntHop::LEN
    }

    /// Encode as count byte + records.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.hops.len() as u8);
        for h in &self.hops {
            buf.put_u32(h.device_id);
            buf.put_u32(h.queue_bytes);
            buf.put_u64(h.tx_bytes);
            buf.put_u64(h.ts_ns);
            buf.put_u32(h.link_mbps);
        }
    }

    /// Decode count byte + records.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let n = buf.get_u8() as usize;
        if n > MAX_INT_HOPS {
            return Err(WireError::Malformed);
        }
        if buf.remaining() < n * IntHop::LEN {
            return Err(WireError::Truncated);
        }
        let mut hops = Vec::with_capacity(n);
        for _ in 0..n {
            hops.push(IntHop {
                device_id: buf.get_u32(),
                queue_bytes: buf.get_u32(),
                tx_bytes: buf.get_u64(),
                ts_ns: buf.get_u64(),
                link_mbps: buf.get_u32(),
            });
        }
        Ok(IntStack { hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn hop(i: u32) -> IntHop {
        IntHop {
            device_id: i,
            queue_bytes: i * 1000,
            tx_bytes: i as u64 * 1_000_000,
            ts_ns: i as u64 * 500,
            link_mbps: 25_000,
        }
    }

    #[test]
    fn roundtrip() {
        let mut stack = IntStack::new();
        for i in 0..5 {
            stack.push(hop(i));
        }
        let mut buf = BytesMut::new();
        stack.encode(&mut buf);
        assert_eq!(buf.len(), stack.wire_len());
        let got = IntStack::decode(&mut buf.freeze()).unwrap();
        assert_eq!(got, stack);
    }

    #[test]
    fn empty_roundtrip() {
        let stack = IntStack::new();
        let mut buf = BytesMut::new();
        stack.encode(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(IntStack::decode(&mut buf.freeze()).unwrap(), stack);
    }

    #[test]
    fn caps_at_max_hops() {
        let mut stack = IntStack::new();
        for i in 0..40 {
            stack.push(hop(i));
        }
        assert_eq!(stack.hops.len(), MAX_INT_HOPS);
    }

    #[test]
    fn rejects_truncated_records() {
        let mut stack = IntStack::new();
        stack.push(hop(1));
        let mut buf = BytesMut::new();
        stack.encode(&mut buf);
        let short = buf.freeze().slice(..10);
        assert_eq!(IntStack::decode(&mut &short[..]), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_hop_count_overflow() {
        let mut buf = BytesMut::new();
        buf.put_u8(200);
        assert_eq!(
            IntStack::decode(&mut buf.freeze()),
            Err(WireError::Malformed)
        );
    }
}
