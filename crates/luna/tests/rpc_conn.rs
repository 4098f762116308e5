//! [`RpcConn`] as a pair over lossless lockstep TCP: a response is handed
//! up only if it answers a request its end sent, and a structure-aware
//! model test of arbitrary request/response sequences over arbitrary MSS.
//!
//! Run the model test harder with
//! `PROPTEST_CASES=2048 cargo test --release --offline -p ebs-luna --test rpc_conn`.

use std::iter;

use bytes::Bytes;
use ebs_luna::{read_request, write_request, RpcConn};
use ebs_obs::{Metrics, Sample};
use ebs_sim::{SimDuration, SimTime};
use ebs_tcp::TcpConfig;
use ebs_wire::{RpcFrame, RpcMethod};
use proptest::prelude::*;

/// A compute end, a storage end, and every frame each has handed up.
struct Pair {
    client: RpcConn,
    server: RpcConn,
    now: SimTime,
    at_client: Vec<RpcFrame>,
    at_server: Vec<RpcFrame>,
}

impl Pair {
    fn established(mss: usize) -> Self {
        let cfg = TcpConfig {
            mss,
            ..TcpConfig::default()
        };
        let mut p = Pair {
            client: RpcConn::connect(cfg.clone()),
            server: RpcConn::listen(cfg),
            now: SimTime::ZERO,
            at_client: Vec::new(),
            at_server: Vec::new(),
        };
        p.pump();
        assert!(p.client.is_established() && p.server.is_established());
        p
    }

    /// Lockstep exchange until quiescent, then collect what each end
    /// hands up.
    fn pump(&mut self) {
        loop {
            let mut progressed = false;
            while let Some(seg) = self.client.poll_segment(self.now) {
                self.now += SimDuration::from_micros(1);
                self.server.on_segment(self.now, seg);
                progressed = true;
            }
            while let Some(seg) = self.server.poll_segment(self.now) {
                self.now += SimDuration::from_micros(1);
                self.client.on_segment(self.now, seg);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let (client, server) = (&mut self.client, &mut self.server);
        self.at_client.extend(iter::from_fn(|| client.poll_frame()));
        self.at_server.extend(iter::from_fn(|| server.poll_frame()));
        assert_eq!(self.client.decode_errors() + self.server.decode_errors(), 0);
    }
}

/// `len` bytes that differ between frames, so a payload handed to the
/// wrong frame shows.
fn pattern(seed: u64, len: usize) -> Bytes {
    let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    Bytes::from(
        (0..len)
            .map(|i| (i as u64 ^ salt) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Everything but the payload bytes, so a failure prints short.
fn headers(frames: &[RpcFrame]) -> Vec<(u64, RpcMethod, u64, u64, u32, usize)> {
    frames
        .iter()
        .map(|f| {
            (
                f.rpc_id,
                f.method,
                f.vd_id,
                f.offset,
                f.len,
                f.payload.len(),
            )
        })
        .collect()
}

/// The answer a correct storage server sends to `req`.
fn answer(req: &RpcFrame) -> RpcFrame {
    let (method, payload) = match req.method {
        RpcMethod::Write => (RpcMethod::WriteResp, Bytes::new()),
        _ => (RpcMethod::ReadResp, pattern(!req.rpc_id, req.len as usize)),
    };
    RpcFrame {
        method,
        len: payload.len() as u32,
        payload,
        ..req.clone()
    }
}

/// A response to `req` that is wrong in one way (`kind` picks which).
fn stray(req: &RpcFrame, kind: u8) -> RpcFrame {
    let mut resp = answer(req);
    match kind % 5 {
        0 => {
            resp.method = match req.method {
                RpcMethod::Write => RpcMethod::ReadResp,
                _ => RpcMethod::WriteResp,
            }
        }
        1 => resp.vd_id ^= 1,
        2 => resp.offset = resp.offset.wrapping_add(4096),
        3 => resp.method = RpcMethod::Error,
        _ if req.method == RpcMethod::Write => resp.offset = resp.offset.wrapping_sub(1),
        // A read answered with one byte too few, or one when it asked none.
        _ => {
            let len = if req.len == 0 { 1 } else { req.len - 1 };
            resp.len = len;
            resp.payload = pattern(req.rpc_id, len as usize);
        }
    }
    resp
}

/// Pipelined writes reach the server exactly as sent, and their answers
/// come back in order.
#[test]
fn pipelined_rpcs_roundtrip_exactly() {
    let mut p = Pair::established(TcpConfig::default().mss);
    let reqs: Vec<RpcFrame> = (0..32)
        .map(|i| write_request(i, 7, i * 4096, pattern(i, 8192)))
        .collect();
    for req in &reqs {
        p.client.send(req);
    }
    assert_eq!(p.client.inflight(), 32);
    p.pump();
    assert_eq!(p.at_server, reqs);
    // The gauge counts both ends; only the compute end has requests out.
    let mut m = Metrics::new();
    p.client.sample_into(p.now, &mut m);
    p.server.sample_into(p.now, &mut m);
    assert_eq!(m.gauge("luna.rpc", "inflight"), Some(32.0));
    for req in &reqs {
        p.server.send(&answer(req));
    }
    p.pump();
    assert_eq!(p.at_client, reqs.iter().map(answer).collect::<Vec<_>>());
    assert_eq!((p.client.inflight(), p.server.inflight()), (0, 0));
}

/// A read answered by a `WriteResp` with another disk and offset, and one
/// of each other mismatch: a response's method, disk, offset and length
/// must all match an in-flight request's, and a duplicate answers nothing.
#[test]
fn a_response_must_answer_its_request() {
    let mut p = Pair::established(8960);
    let read = read_request(1, 7, 8192, 4096);
    let write = write_request(2, 7, 0, pattern(2, 4096));
    p.client.send(&read);
    p.client.send(&write);
    p.pump();
    assert_eq!(p.at_server, [read.clone(), write.clone()]);

    // A `WriteResp` for the read, with another disk and offset.
    p.server.send(&RpcFrame {
        rpc_id: 1,
        vd_id: 3,
        ..answer(&write)
    });
    for kind in 0..5 {
        p.server.send(&stray(&read, kind));
        p.server.send(&stray(&write, kind));
    }
    p.server.send(&RpcFrame {
        rpc_id: 9,
        ..answer(&read)
    });
    p.pump();
    assert!(
        p.at_client.is_empty(),
        "strays handed up: {:?}",
        p.at_client
    );
    assert_eq!(p.client.inflight(), 2);

    p.server.send(&answer(&write));
    p.server.send(&answer(&read));
    p.server.send(&answer(&write)); // a duplicate
    p.pump();
    assert_eq!(p.at_client, [answer(&write), answer(&read)]);
    assert_eq!(p.client.inflight(), 0);
}

/// One step of the model test.
#[derive(Debug, Clone)]
enum Step {
    /// The client sends a request for `len` bytes.
    Request {
        read: bool,
        vd_id: u64,
        offset: u64,
        len: usize,
    },
    /// The server answers the `pick`-th request it holds unanswered.
    Answer { pick: usize },
    /// The server sends a wrong response to the `pick`-th request it has
    /// received, answered or not.
    Stray { pick: usize, kind: u8 },
    /// The server repeats the `pick`-th answer it sent.
    Duplicate { pick: usize },
    /// The server answers an id the client never used.
    Unknown,
    /// Both ends exchange everything queued.
    Pump,
}

/// A step from a raw random tuple: kinds 0–3 send a request (half of
/// them up to 4 KiB, half up to 256 KiB), 4–7 answer, 8–9 stray, 10
/// duplicates, 11 names an unknown id, 12–13 pump.
fn step((kind, a, b): (u8, u64, u64)) -> Step {
    let pick = a as usize;
    match kind {
        0..=3 => Step::Request {
            read: a & 1 == 1,
            vd_id: (a >> 1) & 3,
            offset: b,
            len: (a >> 8) as usize % if kind < 2 { 4097 } else { (256 << 10) + 1 },
        },
        4..=7 => Step::Answer { pick },
        8..=9 => Step::Stray {
            pick,
            kind: b as u8,
        },
        10 => Step::Duplicate { pick },
        11 => Step::Unknown,
        _ => Step::Pump,
    }
}

proptest! {
    #[test]
    fn every_answer_arrives_once_in_order_and_strays_never(
        mss in 200..=9000usize,
        raw in prop::collection::vec((0u8..14, any::<u64>(), any::<u64>()), 1..24),
    ) {
        let mut p = Pair::established(mss);
        let mut sent = Vec::new();
        // The server's view: requests it holds unanswered, and answers.
        let mut open: Vec<RpcFrame> = Vec::new();
        let mut answered: Vec<RpcFrame> = Vec::new();
        for step in raw.into_iter().map(step) {
            match step {
                Step::Request { read, vd_id, offset, len } => {
                    let id = sent.len() as u64;
                    let req = if read {
                        read_request(id, vd_id, offset, len as u32)
                    } else {
                        write_request(id, vd_id, offset, pattern(id, len))
                    };
                    p.client.send(&req);
                    sent.push(req);
                }
                Step::Answer { pick } if !open.is_empty() => {
                    let req = open.remove(pick % open.len());
                    p.server.send(&answer(&req));
                    answered.push(req);
                }
                Step::Stray { pick, kind } if !p.at_server.is_empty() => {
                    let req = &p.at_server[pick % p.at_server.len()];
                    p.server.send(&stray(req, kind));
                }
                Step::Duplicate { pick } if !answered.is_empty() => {
                    p.server.send(&answer(&answered[pick % answered.len()]));
                }
                Step::Unknown => {
                    p.server.send(&answer(&read_request(1 << 40, 0, 0, 512)));
                }
                Step::Pump => {
                    let seen = p.at_server.len();
                    p.pump();
                    open.extend_from_slice(&p.at_server[seen..]);
                }
                _ => {}
            }
        }
        // Drain: every request reaches the server and is answered.
        let seen = p.at_server.len();
        p.pump();
        open.extend_from_slice(&p.at_server[seen..]);
        for req in open.drain(..) {
            p.server.send(&answer(&req));
            answered.push(req);
        }
        p.pump();

        prop_assert_eq!(headers(&p.at_server), headers(&sent), "requests: once, in order");
        prop_assert!(p.at_server == sent, "request payloads byte-identical");
        let answers: Vec<RpcFrame> = answered.iter().map(answer).collect();
        let (got, want) = (headers(&p.at_client), headers(&answers));
        prop_assert_eq!(got, want, "answers: once, in order; strays dropped");
        prop_assert!(p.at_client == answers, "answer payloads byte-identical");
        prop_assert_eq!(p.client.inflight(), 0);
        prop_assert_eq!(p.server.inflight(), 0);
    }
}
