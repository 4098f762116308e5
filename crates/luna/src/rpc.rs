//! The storage RPC layer over the TCP engine.
//!
//! One [`RpcClient`] / [`RpcServer`] pair per (compute, storage) server
//! connection. The client correlates responses by rpc-id and reports
//! completion latency; the server turns the byte stream back into frames
//! and lets the host answer them. Both delegate transport entirely to
//! `ebs-tcp` — LUNA and kernel TCP differ only in the `StackCosts` the
//! host charges around these calls.
//!
//! No payload byte is copied between [`RpcClient::call`] and
//! [`RpcServer::poll_request`] (or back): a frame enters TCP as its
//! 40-byte header view plus the caller's payload handle, segments carry
//! views, and the decoder rejoins the payload's segment-sized views into
//! one slice of the caller's buffer.

use std::collections::VecDeque;

use ebs_sim::{FxHashMap, SimDuration, SimTime};
use ebs_tcp::{Segment, TcpConfig, TcpEngine};
use ebs_wire::{FrameDecoder, RpcFrame, RpcMethod};

/// Queue `frame` on the stream as two views: the encoded header, then the
/// payload handle itself.
fn send_frame(tcp: &mut TcpEngine, frame: &RpcFrame) {
    tcp.send(frame.header());
    tcp.send(frame.payload.clone());
}

/// Move the stream views `tcp` has in order into `dec` and hand every
/// frame they complete to `sink`. A malformed frame is counted once: it
/// poisons the decoder, which from then on drops the stream instead of
/// buffering it.
fn decode_stream(
    tcp: &mut TcpEngine,
    dec: &mut FrameDecoder,
    decode_errors: &mut u64,
    mut sink: impl FnMut(RpcFrame),
) {
    while let Some(view) = tcp.recv() {
        dec.push(view);
    }
    loop {
        match dec.next_frame() {
            Ok(Some(frame)) => sink(frame),
            Ok(None) => break,
            Err(_) => {
                *decode_errors += 1;
                break;
            }
        }
    }
}

/// Completion event from the client.
#[derive(Debug)]
pub struct RpcCompletion {
    /// The request's id.
    pub rpc_id: u64,
    /// Round-trip latency (submit → response decoded).
    pub latency: SimDuration,
    /// The response frame.
    pub response: RpcFrame,
}

/// Client half of one RPC connection.
#[derive(Debug)]
pub struct RpcClient {
    tcp: TcpEngine,
    dec: FrameDecoder,
    inflight: FxHashMap<u64, SimTime>,
    completions: VecDeque<RpcCompletion>,
    decode_errors: u64,
}

impl RpcClient {
    /// An actively connecting client.
    pub fn connect(cfg: TcpConfig) -> Self {
        RpcClient {
            tcp: TcpEngine::connect(cfg),
            dec: FrameDecoder::new(),
            inflight: FxHashMap::default(),
            completions: VecDeque::new(),
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

    /// Requests awaiting responses.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Malformed frames seen (should stay zero; the first one ends
    /// decoding on this connection).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Submit a request frame.
    ///
    /// # Panics
    /// Panics if the rpc-id is already in flight.
    pub fn call(&mut self, now: SimTime, frame: &RpcFrame) {
        let prev = self.inflight.insert(frame.rpc_id, now);
        assert!(prev.is_none(), "rpc id {} reused", frame.rpc_id);
        send_frame(&mut self.tcp, frame);
    }

    /// Feed a segment from the wire.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.tcp.on_segment(now, seg);
        let (inflight, completions) = (&mut self.inflight, &mut self.completions);
        decode_stream(
            &mut self.tcp,
            &mut self.dec,
            &mut self.decode_errors,
            |frame| {
                if let Some(t0) = inflight.remove(&frame.rpc_id) {
                    completions.push_back(RpcCompletion {
                        rpc_id: frame.rpc_id,
                        latency: now.saturating_since(t0),
                        response: frame,
                    });
                }
            },
        );
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

    /// Drain the next completion.
    pub fn poll_completion(&mut self) -> Option<RpcCompletion> {
        self.completions.pop_front()
    }
}

/// Server half of one RPC connection.
#[derive(Debug)]
pub struct RpcServer {
    tcp: TcpEngine,
    dec: FrameDecoder,
    requests: VecDeque<RpcFrame>,
    decode_errors: u64,
}

impl RpcServer {
    /// A passively listening server endpoint.
    pub fn listen(cfg: TcpConfig) -> Self {
        RpcServer {
            tcp: TcpEngine::listen(cfg),
            dec: FrameDecoder::new(),
            requests: VecDeque::new(),
            decode_errors: 0,
        }
    }

    /// True once the connection is usable.
    pub fn is_established(&self) -> bool {
        self.tcp.is_established()
    }

    /// Feed a segment from the wire.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.tcp.on_segment(now, seg);
        let requests = &mut self.requests;
        decode_stream(
            &mut self.tcp,
            &mut self.dec,
            &mut self.decode_errors,
            |frame| requests.push_back(frame),
        );
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

    /// Take the next decoded request.
    pub fn poll_request(&mut self) -> Option<RpcFrame> {
        self.requests.pop_front()
    }

    /// Send a response frame.
    pub fn respond(&mut self, frame: &RpcFrame) {
        send_frame(&mut self.tcp, frame);
    }

    /// Malformed frames seen (the first one ends decoding on this
    /// connection).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }
}

impl ebs_obs::Sample for RpcClient {
    /// Component `luna.rpc` plus the underlying shared `tcp` engine.
    fn sample_into(&self, now: SimTime, m: &mut ebs_obs::Metrics) {
        m.gauge_set("luna.rpc", "inflight", self.inflight() as f64);
        m.counter_add("luna.rpc", "decode_errors", self.decode_errors());
        self.tcp().sample_into(now, m);
    }
}

impl ebs_obs::Sample for RpcServer {
    /// Component `luna.rpc` (server side shares the counter namespace:
    /// counters accumulate across samplers by design).
    fn sample_into(&self, now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("luna.rpc", "decode_errors", self.decode_errors());
        self.tcp.sample_into(now, m);
    }
}

/// Make a write request frame.
pub fn write_request(rpc_id: u64, vd_id: u64, offset: u64, payload: bytes::Bytes) -> RpcFrame {
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
        payload: bytes::Bytes::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Lockstep exchange until quiescent.
    fn run(c: &mut RpcClient, s: &mut RpcServer, mut now: SimTime, answer: bool) -> SimTime {
        for _ in 0..200 {
            let mut progressed = false;
            while let Some(seg) = c.poll_segment(now) {
                now += SimDuration::from_micros(4);
                s.on_segment(now, seg);
                progressed = true;
            }
            if answer {
                while let Some(req) = s.poll_request() {
                    let resp = RpcFrame {
                        rpc_id: req.rpc_id,
                        method: RpcMethod::WriteResp,
                        vd_id: req.vd_id,
                        offset: req.offset,
                        len: 0,
                        payload: Bytes::new(),
                    };
                    s.respond(&resp);
                    progressed = true;
                }
            }
            while let Some(seg) = s.poll_segment(now) {
                now += SimDuration::from_micros(4);
                c.on_segment(now, seg);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        now
    }

    #[test]
    fn request_response_roundtrip() {
        let mut c = RpcClient::connect(TcpConfig::default());
        let mut s = RpcServer::listen(TcpConfig::default());
        let now = run(&mut c, &mut s, SimTime::ZERO, true);
        assert!(c.is_established());
        c.call(
            now,
            &write_request(1, 7, 4096, Bytes::from(vec![1u8; 4096])),
        );
        run(&mut c, &mut s, now, true);
        let done = c.poll_completion().expect("completed");
        assert_eq!(done.rpc_id, 1);
        assert_eq!(done.response.method, RpcMethod::WriteResp);
        assert!(done.latency > SimDuration::ZERO);
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn pipelined_rpcs_complete_in_any_submission_volume() {
        let mut c = RpcClient::connect(TcpConfig::default());
        let mut s = RpcServer::listen(TcpConfig::default());
        let now = run(&mut c, &mut s, SimTime::ZERO, true);
        for i in 0..32 {
            c.call(
                now,
                &write_request(i, 7, i * 4096, Bytes::from(vec![0u8; 4096])),
            );
        }
        run(&mut c, &mut s, now, true);
        let mut done = 0;
        while c.poll_completion().is_some() {
            done += 1;
        }
        assert_eq!(done, 32);
    }

    #[test]
    fn server_sees_exact_frames() {
        let mut c = RpcClient::connect(TcpConfig::default());
        let mut s = RpcServer::listen(TcpConfig::default());
        let now = run(&mut c, &mut s, SimTime::ZERO, false);
        let payload = Bytes::from((0..8192u32).map(|i| i as u8).collect::<Vec<_>>());
        c.call(now, &write_request(42, 9, 12288, payload.clone()));
        run(&mut c, &mut s, now, false);
        let req = s.poll_request().expect("arrived");
        assert_eq!(req.rpc_id, 42);
        assert_eq!(req.vd_id, 9);
        assert_eq!(req.offset, 12288);
        assert_eq!(req.payload, payload);
        assert_eq!(s.decode_errors(), 0);
    }

    /// A peer that speaks TCP correctly but garbage above it: after the
    /// handshake it sends a malformed length prefix and then `flood`
    /// bytes. Generic over which RPC endpoint is the victim.
    fn flood_after_bad_prefix(
        mut peer: TcpEngine,
        flood: usize,
        mut victim_rx: impl FnMut(SimTime, Segment),
        mut victim_tx: impl FnMut(SimTime) -> Option<Segment>,
    ) {
        let now = SimTime::ZERO;
        let mut exchange = |peer: &mut TcpEngine| loop {
            let mut progressed = false;
            while let Some(seg) = peer.poll_segment(now) {
                victim_rx(now, seg);
                progressed = true;
            }
            while let Some(seg) = victim_tx(now) {
                peer.on_segment(now, seg);
                progressed = true;
            }
            if !progressed {
                break;
            }
        };
        exchange(&mut peer);
        assert!(peer.is_established());
        peer.send(Bytes::from(vec![0xFF; 4])); // announces a 4 GiB frame
        for _ in 0..flood / 65536 {
            peer.send(Bytes::from(vec![0xAB; 65536]));
            exchange(&mut peer);
        }
        assert_eq!(peer.bytes_in_flight(), 0, "the flood was all delivered");
    }

    #[test]
    fn malformed_prefix_poisons_the_server_instead_of_buffering() {
        let s = std::cell::RefCell::new(RpcServer::listen(TcpConfig::default()));
        flood_after_bad_prefix(
            TcpEngine::connect(TcpConfig::default()),
            10 << 20,
            |now, seg| s.borrow_mut().on_segment(now, seg),
            |now| s.borrow_mut().poll_segment(now),
        );
        let mut s = s.into_inner();
        assert_eq!(s.decode_errors(), 1, "one bad frame is one error");
        assert!(s.dec.is_poisoned());
        assert_eq!(s.dec.pending(), 0, "10 MiB after the bad prefix: dropped");
        assert!(s.poll_request().is_none());
    }

    #[test]
    fn malformed_prefix_poisons_the_client_instead_of_buffering() {
        let c = std::cell::RefCell::new(RpcClient::connect(TcpConfig::default()));
        flood_after_bad_prefix(
            TcpEngine::listen(TcpConfig::default()),
            10 << 20,
            |now, seg| c.borrow_mut().on_segment(now, seg),
            |now| c.borrow_mut().poll_segment(now),
        );
        let mut c = c.into_inner();
        assert_eq!(c.decode_errors(), 1, "one bad frame is one error");
        assert_eq!(c.dec.pending(), 0, "10 MiB after the bad prefix: dropped");
        assert!(c.poll_completion().is_none());
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn duplicate_rpc_id_panics() {
        let mut c = RpcClient::connect(TcpConfig::default());
        c.call(SimTime::ZERO, &read_request(1, 1, 0, 4096));
        c.call(SimTime::ZERO, &read_request(1, 1, 0, 4096));
    }
}
