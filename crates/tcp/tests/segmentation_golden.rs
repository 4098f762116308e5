//! Golden segmentation trace: how the engine cuts a queue of application
//! writes into segments is a function of `min(window budget, mss)` alone —
//! never of where one queued write ends and the next begins. The trace in
//! `segmentation.golden.txt`, one `<engine> <seq> <ack> <payload len>
//! <flags>` line per emitted segment, was generated by the
//! gather-per-segment engine that preceded the view-queue one, from this
//! same script; every `(seq, ack, len, flags)` of both directions must
//! still match, which is what makes the copy-free byte stream provably a
//! host-time-only change.
//!
//! Script: handshake; the client queues a 40 B request, a 40 B header +
//! 128 KiB payload, another 40 B request and a 40 B header + 4 KiB payload
//! back to back (pipelining, so segments span write boundaries); the third
//! data segment is lost once and recovered by fast retransmit; then the
//! server answers with a 40 B response and a 40 B header + 128 KiB payload.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::path::Path;

use bytes::Bytes;
use ebs_sim::{SimDuration, SimTime};
use ebs_tcp::{TcpConfig, TcpEngine};

const ONE_WAY: SimDuration = SimDuration::from_micros(5);

fn pattern(len: usize, salt: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i % 251) as u8 ^ salt)
            .collect::<Vec<u8>>(),
    )
}

struct Link {
    now: SimTime,
    trace: Vec<String>,
    /// Data segments the client has emitted so far.
    client_data_segs: usize,
    /// Drop the client's n-th data segment (1-based), once.
    drop_nth: Option<usize>,
}

impl Link {
    /// Lockstep exchange until neither side has anything to say and no
    /// timer is due; every emitted segment lands in the trace.
    fn run(&mut self, c: &mut TcpEngine, s: &mut TcpEngine) {
        for _ in 0..1000 {
            let mut progressed = false;
            let mut acks = Vec::new();
            while let Some(seg) = c.poll_segment(self.now) {
                progressed = true;
                let len = seg.payload.len();
                self.trace.push(format!(
                    "c {} {} {} {:#04x}",
                    seg.seq, seg.ack, len, seg.flags.0
                ));
                if len > 0 {
                    self.client_data_segs += 1;
                    if self.drop_nth == Some(self.client_data_segs) {
                        self.drop_nth = None;
                        continue;
                    }
                }
                // The receiver acks every arrival (that is what produces
                // the duplicate ACKs behind the fast retransmit).
                s.on_segment(self.now + ONE_WAY, seg);
                while let Some(ack) = s.poll_segment(self.now + ONE_WAY) {
                    acks.push(ack);
                }
            }
            self.now += ONE_WAY;
            for seg in acks {
                progressed = true;
                self.trace.push(format!(
                    "s {} {} {} {:#04x}",
                    seg.seq,
                    seg.ack,
                    seg.payload.len(),
                    seg.flags.0
                ));
                c.on_segment(self.now + ONE_WAY, seg);
            }
            self.now += ONE_WAY;
            for e in [&mut *c, &mut *s] {
                if e.poll_timer().is_some_and(|t| t <= self.now) {
                    e.on_timer(self.now);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

fn flat(parts: &[Bytes]) -> Vec<u8> {
    parts.iter().flat_map(|b| b.iter().copied()).collect()
}

fn drain(e: &mut TcpEngine) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(b) = e.recv() {
        out.extend_from_slice(&b);
    }
    out
}

#[test]
fn segmentation_matches_the_golden_trace() {
    let cfg = TcpConfig {
        mss: 8960,
        ..TcpConfig::default()
    };
    let mut c = TcpEngine::connect(TcpConfig {
        iss: 0x0102,
        ..cfg.clone()
    });
    let mut s = TcpEngine::listen(TcpConfig {
        iss: 0x8000_0100,
        ..cfg
    });
    let mut link = Link {
        now: SimTime::ZERO,
        trace: Vec::new(),
        client_data_segs: 0,
        drop_nth: Some(3),
    };
    link.run(&mut c, &mut s);
    assert!(c.is_established() && s.is_established());

    let up = [
        pattern(40, 1),
        pattern(40, 2),
        pattern(128 << 10, 3),
        pattern(40, 4),
        pattern(40, 5),
        pattern(4096, 6),
    ];
    for b in &up {
        c.send(b.clone());
    }
    link.run(&mut c, &mut s);
    assert_eq!(drain(&mut s), flat(&up), "client stream delivered intact");
    assert_eq!(c.stats().retransmits, 1, "exactly the one scripted loss");
    assert_eq!(c.stats().timeouts, 0, "recovered by fast retransmit");

    // The server's segments travel the client->server leg of the link.
    let down = [pattern(40, 7), pattern(40, 8), pattern(128 << 10, 9)];
    for b in &down {
        s.send(b.clone());
    }
    let mark = link.trace.len();
    link.run(&mut s, &mut c);
    for line in &mut link.trace[mark..] {
        // Same link, roles swapped: relabel so the trace reads by engine.
        let swapped = match line.as_bytes()[0] {
            b'c' => "s",
            _ => "c",
        };
        line.replace_range(..1, swapped);
    }
    assert_eq!(drain(&mut c), flat(&down), "server stream delivered intact");
    assert_eq!(s.stats().retransmits, 0);

    let got = link.trace.join("\n") + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/segmentation.golden.txt");
    if let Err(e) = pin::check(&golden, &got) {
        panic!("{e}");
    }
}
