//! The storage RPC layer over the TCP engine.
//!
//! One [`RpcConn`] at each end of a (compute, storage) server
//! connection: it queues frames on the byte stream and turns the stream
//! back into frames. A request is handed up as it arrives; a response only
//! if it answers a request this end sent ([`RpcFrame::answers`]), and
//! anything else is dropped as stale. Transport is entirely `ebs-tcp`'s —
//! LUNA and kernel TCP differ only in the `StackCosts` the host charges
//! around these calls.
//!
//! No payload byte is copied between one end's [`RpcConn::send`] and the
//! other's [`RpcConn::poll_frame`]: a frame enters TCP as its 40-byte
//! header view plus the caller's payload handle, segments carry views,
//! and the decoder rejoins the payload's segment-sized views into one
//! slice of the caller's buffer.

use std::collections::VecDeque;

use bytes::Bytes;
use ebs_sim::{FxHashMap, SimTime};
use ebs_tcp::{Segment, TcpConfig, TcpEngine};
use ebs_wire::{FrameDecoder, RpcFrame, RpcMethod};

/// One end of an RPC connection.
#[derive(Debug)]
pub struct RpcConn {
    tcp: TcpEngine,
    dec: FrameDecoder,
    /// Requests sent and not yet answered, by rpc id, header only.
    sent: FxHashMap<u64, RpcFrame>,
    frames: VecDeque<RpcFrame>,
    decode_errors: u64,
}

impl RpcConn {
    /// An actively connecting end (the compute side).
    pub fn connect(cfg: TcpConfig) -> Self {
        Self::over(TcpEngine::connect(cfg))
    }

    /// A passively listening end (the storage side).
    pub fn listen(cfg: TcpConfig) -> Self {
        Self::over(TcpEngine::listen(cfg))
    }

    fn over(tcp: TcpEngine) -> Self {
        RpcConn {
            tcp,
            dec: FrameDecoder::new(),
            sent: FxHashMap::default(),
            frames: VecDeque::new(),
            decode_errors: 0,
        }
    }

    /// The underlying transport (diagnostics).
    pub fn tcp(&self) -> &TcpEngine {
        &self.tcp
    }

    /// True once the connection is usable.
    pub fn is_established(&self) -> bool {
        self.tcp.is_established()
    }

    /// Requests sent and not yet answered.
    pub fn inflight(&self) -> usize {
        self.sent.len()
    }

    /// Malformed frames seen (should stay zero; the first one ends
    /// decoding on this connection).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Queue `frame` on the stream as two views: the encoded header, then
    /// the payload handle itself. A request is remembered, header only,
    /// until its answer arrives.
    ///
    /// # Panics
    /// Panics if a request reuses an rpc id still in flight.
    pub fn send(&mut self, frame: &RpcFrame) {
        if frame.method.is_request() {
            let record = RpcFrame {
                payload: Bytes::new(),
                ..frame.clone()
            };
            let prev = self.sent.insert(frame.rpc_id, record);
            assert!(prev.is_none(), "rpc id {} reused", frame.rpc_id);
        }
        self.tcp.send(frame.header());
        self.tcp.send(frame.payload.clone());
    }

    /// Feed a segment from the wire and decode every frame the stream now
    /// completes. A malformed frame is counted once: it poisons the
    /// decoder, which from then on drops the stream instead of buffering
    /// it.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.tcp.on_segment(now, seg);
        while let Some(view) = self.tcp.recv() {
            self.dec.push(view);
        }
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => {
                    let req = self.sent.get(&frame.rpc_id);
                    if req.is_some_and(|req| frame.answers(req)) {
                        self.sent.remove(&frame.rpc_id);
                    } else if !frame.method.is_request() {
                        continue; // stale: answers nothing in flight
                    }
                    self.frames.push_back(frame);
                }
                Ok(None) => break,
                Err(_) => {
                    self.decode_errors += 1;
                    break;
                }
            }
        }
    }

    /// Produce the next outgoing segment.
    pub fn poll_segment(&mut self, now: SimTime) -> Option<Segment> {
        self.tcp.poll_segment(now)
    }

    /// Next timer deadline.
    pub fn poll_timer(&self) -> Option<SimTime> {
        self.tcp.poll_timer()
    }

    /// Fire due timers.
    pub fn on_timer(&mut self, now: SimTime) {
        self.tcp.on_timer(now);
    }

    /// Take the next frame handed up: a request, or the answer to one of
    /// this end's requests.
    pub fn poll_frame(&mut self) -> Option<RpcFrame> {
        self.frames.pop_front()
    }
}

impl ebs_obs::Sample for RpcConn {
    /// Component `luna.rpc` plus the underlying shared `tcp` engine. Both
    /// ends share the namespace: counters accumulate across samplers by
    /// design, and the `inflight` gauge sums the ends sampled into `m`.
    fn sample_into(&self, now: SimTime, m: &mut ebs_obs::Metrics) {
        let inflight = m.gauge("luna.rpc", "inflight").unwrap_or(0.0) + self.inflight() as f64;
        m.gauge_set("luna.rpc", "inflight", inflight);
        m.counter_add("luna.rpc", "decode_errors", self.decode_errors);
        self.tcp.sample_into(now, m);
    }
}

/// Make a write request frame.
pub fn write_request(rpc_id: u64, vd_id: u64, offset: u64, payload: Bytes) -> RpcFrame {
    RpcFrame {
        rpc_id,
        method: RpcMethod::Write,
        vd_id,
        offset,
        len: payload.len() as u32,
        payload,
    }
}

/// Make a read request frame.
pub fn read_request(rpc_id: u64, vd_id: u64, offset: u64, len: u32) -> RpcFrame {
    RpcFrame {
        rpc_id,
        method: RpcMethod::Read,
        vd_id,
        offset,
        len,
        payload: Bytes::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand every segment either side has to the other until quiescent.
    fn exchange(peer: &mut TcpEngine, victim: &mut RpcConn) {
        let now = SimTime::ZERO;
        loop {
            let mut progressed = false;
            while let Some(seg) = peer.poll_segment(now) {
                victim.on_segment(now, seg);
                progressed = true;
            }
            while let Some(seg) = victim.poll_segment(now) {
                peer.on_segment(now, seg);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// A peer that speaks TCP correctly but garbage above it: after the
    /// handshake it sends a malformed length prefix and then 10 MiB. Either
    /// end is poisoned by it instead of buffering the flood.
    #[test]
    fn malformed_prefix_poisons_either_end_instead_of_buffering() {
        let cfg = TcpConfig::default;
        for (mut peer, mut victim) in [
            (TcpEngine::connect(cfg()), RpcConn::listen(cfg())),
            (TcpEngine::listen(cfg()), RpcConn::connect(cfg())),
        ] {
            exchange(&mut peer, &mut victim);
            assert!(peer.is_established());
            peer.send(Bytes::from(vec![0xFF; 4])); // announces a 4 GiB frame
            for _ in 0..(10 << 20) / 65536 {
                peer.send(Bytes::from(vec![0xAB; 65536]));
                exchange(&mut peer, &mut victim);
            }
            assert_eq!(peer.bytes_in_flight(), 0, "the flood was all delivered");
            assert_eq!(victim.decode_errors(), 1, "one bad frame is one error");
            assert!(victim.dec.is_poisoned());
            assert_eq!(
                victim.dec.pending(),
                0,
                "10 MiB after the bad prefix: dropped"
            );
            assert!(victim.poll_frame().is_none());
        }
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn duplicate_rpc_id_panics() {
        let mut c = RpcConn::connect(TcpConfig::default());
        c.send(&read_request(1, 1, 0, 4096));
        c.send(&read_request(1, 1, 0, 4096));
    }
}
