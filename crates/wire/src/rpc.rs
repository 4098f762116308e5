//! LUNA's RPC framing over a byte stream.
//!
//! LUNA carries storage RPCs over its user-space TCP: each message is a
//! length-prefixed frame with a fixed header and an optional data payload.
//! Because TCP is a byte stream, the receiver needs an incremental decoder
//! ([`FrameDecoder`]) that tolerates frames split across arbitrary segment
//! boundaries — precisely the buffering/reassembly machinery that SOLAR's
//! one-block-one-packet design later eliminates.
//!
//! The payload is never copied on the way: a sender queues
//! [`RpcFrame::header`] and the payload as two views, the stream delivers
//! views, and the decoder hands back `payload` as a slice of what it was
//! given — rejoined in O(1) when a payload arrives as adjacent views of
//! one storage (a payload TCP cut into segments), gathered with one
//! exact-size copy only when the views come from unrelated storage.

use bytes::{Buf, BufMut, Bytes};

use crate::chain::ViewQueue;
use crate::WireError;

/// RPC method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RpcMethod {
    /// Write payload to (vd, offset).
    Write = 1,
    /// Read `len` bytes from (vd, offset).
    Read = 2,
    /// Successful write response.
    WriteResp = 3,
    /// Read response carrying payload.
    ReadResp = 4,
    /// Failure response.
    Error = 5,
}

impl RpcMethod {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => RpcMethod::Write,
            2 => RpcMethod::Read,
            3 => RpcMethod::WriteResp,
            4 => RpcMethod::ReadResp,
            5 => RpcMethod::Error,
            _ => return Err(WireError::Malformed),
        })
    }

    /// True for the methods a client sends; the rest are responses.
    pub fn is_request(self) -> bool {
        matches!(self, RpcMethod::Write | RpcMethod::Read)
    }
}

/// One RPC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcFrame {
    /// Request/response correlation id.
    pub rpc_id: u64,
    /// Method.
    pub method: RpcMethod,
    /// Virtual disk id.
    pub vd_id: u64,
    /// Byte offset on the virtual disk.
    pub offset: u64,
    /// Requested length (READ) — payload length otherwise.
    pub len: u32,
    /// Data payload (may be empty).
    pub payload: Bytes,
}

/// Frame header bytes before the payload: u32 total_len + fields.
const HEADER_LEN: usize = 4 + 8 + 1 + 3 + 8 + 8 + 4;
/// Upper bound on a frame — the paper observes FN RPCs stay under 128 KiB
/// (Fig. 5); we allow 1 MiB for slack while still rejecting garbage
/// lengths from corrupted streams.
const MAX_FRAME: usize = 1 << 20;

/// Validate a header's length prefix (its first 4 bytes; the rest need not
/// have arrived yet): the total encoded frame size it announces.
fn frame_len(hdr: &[u8; HEADER_LEN]) -> Result<usize, WireError> {
    let total = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    if (HEADER_LEN..=MAX_FRAME).contains(&total) {
        Ok(total)
    } else {
        Err(WireError::Malformed)
    }
}

impl RpcFrame {
    /// Total encoded size of this frame.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// True if this frame answers `req`: a `WriteResp` to a `Write` or a
    /// `ReadResp` carrying the `len` bytes a `Read` asked for, naming the
    /// request's rpc id, disk and offset. A frame transport drops any
    /// other response as stale.
    pub fn answers(&self, req: &RpcFrame) -> bool {
        let method_fits = match (req.method, self.method) {
            (RpcMethod::Write, RpcMethod::WriteResp) => true,
            (RpcMethod::Read, RpcMethod::ReadResp) => {
                self.len == req.len && self.payload.len() == req.len as usize
            }
            _ => false,
        };
        method_fits && (self.rpc_id, self.vd_id, self.offset) == (req.rpc_id, req.vd_id, req.offset)
    }

    fn encode_header(&self, buf: &mut impl BufMut) {
        buf.put_u32((HEADER_LEN + self.payload.len()) as u32);
        buf.put_u64(self.rpc_id);
        buf.put_u8(self.method as u8);
        buf.put_slice(&[0; 3]); // pad
        buf.put_u64(self.vd_id);
        buf.put_u64(self.offset);
        buf.put_u32(self.len);
    }

    /// Decode the fields after the length prefix from a whole header;
    /// the frame comes back with an empty payload.
    fn decode_header(hdr: &[u8; HEADER_LEN]) -> Result<RpcFrame, WireError> {
        let mut hdr = &hdr[4..]; // length prefix: checked by `frame_len`
        let rpc_id = hdr.get_u64();
        let method = RpcMethod::from_u8(hdr.get_u8())?;
        hdr.advance(3);
        Ok(RpcFrame {
            rpc_id,
            method,
            vd_id: hdr.get_u64(),
            offset: hdr.get_u64(),
            len: hdr.get_u32(),
            payload: Bytes::new(),
        })
    }

    /// Encode into `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        self.encode_header(buf);
        buf.put_slice(&self.payload);
    }

    /// Encode to a standalone byte buffer (header and payload copied into
    /// one allocation — for message transports that need one buffer).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode(&mut buf);
        Bytes::from(buf)
    }

    /// The encoded header alone, as its own view. A byte-stream sender
    /// queues this followed by `payload` itself, so the payload is never
    /// copied into a frame buffer.
    pub fn header(&self) -> Bytes {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        self.encode_header(&mut buf);
        Bytes::from(buf)
    }

    /// Decode a buffer holding exactly one frame (a message transport's
    /// unit). The payload is a slice of `msg`, not a copy.
    pub fn decode(msg: Bytes) -> Result<RpcFrame, WireError> {
        let Some(hdr) = msg.first_chunk::<HEADER_LEN>() else {
            return Err(WireError::Truncated);
        };
        let total = frame_len(hdr)?;
        if total != msg.len() {
            return Err(WireError::Malformed);
        }
        let mut frame = Self::decode_header(hdr)?;
        frame.payload = msg.slice(HEADER_LEN..);
        Ok(frame)
    }
}

/// Incremental frame decoder for a TCP byte stream: a queue of the views
/// the stream delivered, consumed frame by frame.
///
/// The stream is trusted no further than its length prefixes: the first
/// malformed frame *poisons* the decoder — the error is reported once,
/// everything buffered is dropped, and all later input is discarded — so
/// a corrupted or hostile peer cannot make it buffer without bound.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    stream: ViewQueue,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.stream.len()
    }

    /// True once a malformed frame has been seen; the decoder then
    /// buffers nothing and yields nothing.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Feed the next view of the stream (taken by value: nothing is
    /// copied).
    pub fn push(&mut self, view: Bytes) {
        if !self.poisoned {
            self.stream.push(view);
        }
    }

    /// Try to decode the next complete frame; `Ok(None)` means more bytes
    /// are needed. An `Err` poisons the decoder (see the type docs).
    pub fn next_frame(&mut self) -> Result<Option<RpcFrame>, WireError> {
        match self.try_next() {
            Err(e) => {
                self.poisoned = true;
                self.stream.clear();
                Err(e)
            }
            ok => ok,
        }
    }

    fn try_next(&mut self) -> Result<Option<RpcFrame>, WireError> {
        if self.stream.len() < 4 {
            return Ok(None);
        }
        // The header may straddle views; peek it into a stack buffer.
        let mut hdr = [0u8; HEADER_LEN];
        let mut have = 0;
        for v in self.stream.views() {
            let n = v.len().min(HEADER_LEN - have);
            hdr[have..have + n].copy_from_slice(&v[..n]);
            have += n;
            if have == HEADER_LEN {
                break;
            }
        }
        // A bad prefix is rejected as soon as it is readable, a bad
        // header as soon as it is whole — not once `total` bytes arrived.
        let total = frame_len(&hdr)?;
        if have < HEADER_LEN {
            return Ok(None);
        }
        let mut frame = RpcFrame::decode_header(&hdr)?;
        if self.stream.len() < total {
            return Ok(None);
        }
        self.take(HEADER_LEN); // parsed from the peek above
        frame.payload = self.take(total - HEADER_LEN);
        Ok(Some(frame))
    }

    /// Remove the next `len` buffered bytes (`len <= pending`) as one
    /// `Bytes`: a slice of the front view, grown in O(1) over following
    /// views while they continue the same storage. Only views that do not
    /// are gathered, with one exact-size copy.
    fn take(&mut self, len: usize) -> Bytes {
        debug_assert!(len <= self.stream.len());
        let mut out = self.stream.pop_up_to(len);
        while out.len() < len {
            let next = self.stream.pop_up_to(len - out.len());
            if let Err(next) = out.try_unsplit(next) {
                let mut gathered = Vec::with_capacity(len);
                gathered.extend_from_slice(&out);
                gathered.extend_from_slice(&next);
                while gathered.len() < len {
                    let more = self.stream.pop_up_to(len - gathered.len());
                    gathered.extend_from_slice(&more);
                }
                return Bytes::from(gathered);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload_len: usize) -> RpcFrame {
        RpcFrame {
            rpc_id: 77,
            method: RpcMethod::Write,
            vd_id: 3,
            offset: 8192,
            len: payload_len as u32,
            payload: Bytes::from(vec![0xCD; payload_len]),
        }
    }

    #[test]
    fn roundtrip() {
        let frame = sample(4096);
        let mut dec = FrameDecoder::new();
        dec.push(frame.to_bytes());
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got, frame);
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn header_then_payload_is_the_encoding() {
        let frame = sample(100);
        let mut two_views = frame.header().to_vec();
        two_views.extend_from_slice(&frame.payload);
        assert_eq!(frame.to_bytes(), two_views);
    }

    #[test]
    fn split_across_arbitrary_boundaries() {
        let frame = sample(1000);
        let bytes = frame.to_bytes();
        // Feed one byte at a time: the decoder must never yield a frame
        // early or lose bytes.
        let mut dec = FrameDecoder::new();
        let mut decoded = None;
        for i in 0..bytes.len() {
            dec.push(bytes.slice(i..i + 1));
            if let Some(f) = dec.next_frame().unwrap() {
                assert_eq!(i, bytes.len() - 1, "frame yielded early");
                decoded = Some(f);
            }
        }
        assert_eq!(decoded.unwrap(), frame);
    }

    #[test]
    fn back_to_back_frames() {
        let a = sample(10);
        let mut b = sample(20);
        b.rpc_id = 78;
        b.method = RpcMethod::Read;
        let mut stream = Vec::new();
        a.encode(&mut stream);
        b.encode(&mut stream);
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::from(stream));
        assert_eq!(dec.next_frame().unwrap().unwrap(), a);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b);
        assert!(dec.next_frame().unwrap().is_none());
    }

    /// True if `b` is a window onto `storage`'s own bytes.
    fn views_into(b: &Bytes, storage: &Bytes) -> bool {
        storage.as_ptr_range().start <= b.as_ptr_range().start
            && b.as_ptr_range().end <= storage.as_ptr_range().end
    }

    #[test]
    fn payload_cut_into_segments_is_rejoined_not_copied() {
        // What TCP delivers for one frame: the header view, then the
        // payload as consecutive slices of the sender's buffer.
        let frame = sample(10_000);
        let mut dec = FrameDecoder::new();
        dec.push(frame.header());
        for lo in (0..10_000).step_by(1460) {
            dec.push(frame.payload.slice(lo..(lo + 1460).min(10_000)));
        }
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got, frame);
        assert!(views_into(&got.payload, &frame.payload), "payload copied");
    }

    #[test]
    fn payload_inside_one_view_is_sliced_not_copied() {
        let stream = sample(500).to_bytes();
        let mut dec = FrameDecoder::new();
        dec.push(stream.clone());
        let got = dec.next_frame().unwrap().unwrap();
        assert!(views_into(&got.payload, &stream), "payload copied");
    }

    #[test]
    fn unrelated_views_are_gathered_once() {
        let frame = sample(300);
        let bytes = frame.to_bytes();
        let mut dec = FrameDecoder::new();
        // Each chunk its own allocation: nothing can be rejoined.
        for chunk in bytes.chunks(64) {
            dec.push(Bytes::copy_from_slice(chunk));
        }
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn rejects_insane_length() {
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::copy_from_slice(&(100_000_000u32).to_be_bytes()));
        assert_eq!(dec.next_frame(), Err(WireError::Malformed));
    }

    #[test]
    fn rejects_bad_method() {
        let mut bytes = sample(4).to_bytes().to_vec();
        bytes[12] = 0xFF; // method byte
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::from(bytes));
        assert_eq!(dec.next_frame(), Err(WireError::Malformed));
    }

    #[test]
    fn malformed_frame_poisons_the_decoder() {
        let good = sample(64).to_bytes();
        let mut dec = FrameDecoder::new();
        dec.push(good.clone());
        dec.push(Bytes::copy_from_slice(&[0, 0, 0, 1])); // total < header
        dec.push(good.clone());
        assert!(
            dec.next_frame().unwrap().is_some(),
            "frames before it stand"
        );
        assert_eq!(dec.next_frame(), Err(WireError::Malformed));
        assert!(dec.is_poisoned());
        assert_eq!(dec.pending(), 0, "buffered views dropped");
        // Reported once; later input is refused, not buffered.
        dec.push(good);
        assert_eq!(dec.pending(), 0);
        assert_eq!(dec.next_frame(), Ok(None));
    }

    #[test]
    fn empty_payload_frames() {
        let mut frame = sample(0);
        frame.method = RpcMethod::WriteResp;
        let mut dec = FrameDecoder::new();
        dec.push(frame.to_bytes());
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
    }

    #[test]
    fn one_shot_decode_slices_the_message() {
        let frame = sample(4096);
        let msg = frame.to_bytes();
        let got = RpcFrame::decode(msg.clone()).unwrap();
        assert_eq!(got, frame);
        assert!(views_into(&got.payload, &msg), "payload copied");
        let mut empty = sample(0);
        empty.method = RpcMethod::Read;
        empty.len = 8192;
        assert_eq!(RpcFrame::decode(empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn one_shot_decode_rejects_what_is_not_exactly_one_frame() {
        let msg = sample(16).to_bytes();
        assert_eq!(
            RpcFrame::decode(msg.slice(..HEADER_LEN - 1)),
            Err(WireError::Truncated)
        );
        // Length prefix disagrees with the message: short and long.
        assert_eq!(
            RpcFrame::decode(msg.slice(..msg.len() - 1)),
            Err(WireError::Malformed)
        );
        let mut long = msg.to_vec();
        long.push(0);
        assert_eq!(
            RpcFrame::decode(Bytes::from(long)),
            Err(WireError::Malformed)
        );
        let mut bad_method = msg.to_vec();
        bad_method[12] = 0;
        assert_eq!(
            RpcFrame::decode(Bytes::from(bad_method)),
            Err(WireError::Malformed)
        );
        let mut bad_len = msg.to_vec();
        bad_len[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            RpcFrame::decode(Bytes::from(bad_len)),
            Err(WireError::Malformed)
        );
    }
}
