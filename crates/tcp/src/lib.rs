//! # ebs-tcp — the sans-io TCP engine under kernel TCP and LUNA
//!
//! The byte-stream transport both FN software stacks run (§3): kernel TCP
//! and LUNA differ in *host overhead* (syscalls, copies, run-to-complete
//! threading), not in protocol, so they share this engine. See
//! [`TcpEngine`] for the event-driven API and `ebs-luna` for the hosts.
//!
//! The engine deliberately keeps all the machinery that the paper calls
//! out as the cost of generality — connection state machines, in-order
//! receive buffering, reordering reassembly — because measuring that cost
//! against SOLAR's stateless one-block-one-packet design is the point of
//! the reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod seq;

pub use engine::{Segment, TcpConfig, TcpEngine, TcpState, TcpStats};
pub use seq::{seq_le, seq_lt, unwrap_seq, wrap_seq};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ebs_sim::{SimDuration, SimTime};

    /// Drive two engines over a perfect, zero-loss link with fixed one-way
    /// delay until quiescent. Returns total simulated steps.
    fn run_lossless(
        a: &mut TcpEngine,
        b: &mut TcpEngine,
        mut now: SimTime,
        one_way: SimDuration,
        max_steps: usize,
    ) -> SimTime {
        for _ in 0..max_steps {
            let mut progressed = false;
            // Deliver everything a has to say, then everything b says.
            while let Some(seg) = a.poll_segment(now) {
                now += one_way;
                b.on_segment(now, seg);
                progressed = true;
            }
            while let Some(seg) = b.poll_segment(now) {
                now += one_way;
                a.on_segment(now, seg);
                progressed = true;
            }
            // Fire due timers.
            for e in [&mut *a, &mut *b] {
                if let Some(t) = e.poll_timer() {
                    if t <= now {
                        e.on_timer(now);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        now
    }

    fn pair() -> (TcpEngine, TcpEngine) {
        let client = TcpEngine::connect(TcpConfig {
            iss: 100,
            ..TcpConfig::default()
        });
        let server = TcpEngine::listen(TcpConfig {
            iss: 5000,
            ..TcpConfig::default()
        });
        (client, server)
    }

    fn drain(e: &mut TcpEngine) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(b) = e.recv() {
            out.extend_from_slice(&b);
        }
        out
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        assert!(c.is_established());
        assert!(s.is_established());
    }

    #[test]
    fn transfers_a_byte_stream() {
        let (mut c, mut s) = pair();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        c.send(Bytes::from(data.clone()));
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            500,
        );
        assert_eq!(drain(&mut s), data);
        assert_eq!(c.bytes_in_flight(), 0);
        assert_eq!(c.stats().retransmits, 0);
    }

    #[test]
    fn bidirectional_transfer() {
        let (mut c, mut s) = pair();
        let up: Vec<u8> = vec![1; 5000];
        let down: Vec<u8> = vec![2; 7000];
        c.send(Bytes::from(up.clone()));
        s.send(Bytes::from(down.clone()));
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            500,
        );
        assert_eq!(drain(&mut s), up);
        assert_eq!(drain(&mut c), down);
    }

    #[test]
    fn segments_respect_mss() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        c.send(Bytes::from(vec![0u8; 10_000]));
        let now = SimTime::from_millis(1);
        let mut n = 0;
        while let Some(seg) = c.poll_segment(now) {
            assert!(seg.payload.len() <= 1460);
            s.on_segment(now, seg);
            n += 1;
        }
        assert!(n >= 7, "10000/1460 segments expected, got {n}");
    }

    #[test]
    fn segments_carry_the_queued_views_without_copying() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        // Two writes, cut at the MSS regardless of the write boundary:
        // 40 + 1420 | 1460 | 120 + (nothing more).
        let hdr = Bytes::from(vec![1u8; 40]);
        let body = Bytes::from((0..3000u32).map(|i| i as u8).collect::<Vec<_>>());
        c.send(hdr.clone());
        c.send(body.clone());
        let now = SimTime::from_millis(1);
        let mut shapes = Vec::new();
        while let Some(seg) = c.poll_segment(now) {
            for v in seg.payload.views() {
                let src = if v.len() == 40 { &hdr } else { &body };
                assert!(
                    src.as_ptr_range().start <= v.as_ptr_range().start
                        && v.as_ptr_range().end <= src.as_ptr_range().end,
                    "a payload view must alias the application's buffer"
                );
            }
            shapes.push(
                seg.payload
                    .views()
                    .iter()
                    .map(Bytes::len)
                    .collect::<Vec<_>>(),
            );
            s.on_segment(now, seg);
        }
        assert_eq!(shapes, [vec![40, 1420], vec![1460], vec![120]]);
        // The receiver hands the same views on, in order.
        let mut got = Vec::new();
        while let Some(v) = s.recv() {
            got.push(v.len());
        }
        assert_eq!(got, [40, 1420, 1460, 120]);
    }

    #[test]
    fn overlapping_multi_view_segment_delivers_only_the_new_tail() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        let now = SimTime::from_millis(1);
        c.send(Bytes::from(vec![1u8; 100]));
        let first = c.poll_segment(now).expect("100-byte segment");
        s.on_segment(now, first.clone());
        // A (forged) retransmission that re-covers those 100 bytes and
        // continues past them, as three views.
        let mut payload = first.payload.clone();
        payload.push(Bytes::from(vec![2u8; 30]));
        payload.push(Bytes::from(vec![3u8; 5]));
        s.on_segment(now, Segment { payload, ..first });
        let mut want = vec![1u8; 100];
        want.extend([2u8; 30]);
        want.extend([3u8; 5]);
        assert_eq!(drain(&mut s), want);
    }

    #[test]
    fn lost_segment_recovers_via_fast_retransmit() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        let data: Vec<u8> = (0..8000u32).map(|i| i as u8).collect();
        c.send(Bytes::from(data.clone()));
        let mut now = SimTime::from_millis(1);
        // Drop the first data segment, deliver the rest; the receiver acks
        // each arrival (dupacks), which we batch back to the sender.
        let mut first = true;
        let mut acks = Vec::new();
        while let Some(seg) = c.poll_segment(now) {
            if first {
                first = false;
                continue;
            }
            s.on_segment(now, seg);
            while let Some(a) = s.poll_segment(now) {
                acks.push(a);
            }
        }
        for a in acks {
            c.on_segment(now, a);
        }
        // Let the exchange continue: c fast-retransmits.
        now += SimDuration::from_micros(50);
        let end = run_lossless(&mut c, &mut s, now, SimDuration::from_micros(5), 500);
        assert_eq!(drain(&mut s), data);
        assert!(c.stats().retransmits >= 1);
        // Fast retransmit should beat the 50ms initial RTO.
        assert!(end < SimTime::from_millis(40), "recovered at {end}");
    }

    #[test]
    fn lone_lost_segment_recovers_via_rto() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        c.send(Bytes::from(vec![7u8; 100])); // single small segment
        let mut now = SimTime::from_millis(1);
        // Drop it.
        while c.poll_segment(now).is_some() {}
        // No dupacks possible; only the RTO can save us.
        let deadline = c.poll_timer().expect("rto armed");
        now = deadline;
        c.on_timer(now);
        let _end = run_lossless(&mut c, &mut s, now, SimDuration::from_micros(5), 100);
        assert_eq!(drain(&mut s), vec![7u8; 100]);
        assert_eq!(c.stats().timeouts, 1);
    }

    #[test]
    fn reordered_segments_reassemble() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        let data: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        c.send(Bytes::from(data.clone()));
        let now = SimTime::from_millis(1);
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_segment(now) {
            segs.push(seg);
        }
        segs.reverse(); // worst-case reordering
        for seg in segs {
            s.on_segment(now, seg);
        }
        assert_eq!(drain(&mut s), data);
    }

    #[test]
    fn duplicate_segments_are_idempotent() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        let data: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        c.send(Bytes::from(data.clone()));
        let now = SimTime::from_millis(1);
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_segment(now) {
            segs.push(seg);
        }
        for seg in &segs {
            s.on_segment(now, seg.clone());
            s.on_segment(now, seg.clone()); // duplicate every segment
        }
        assert_eq!(drain(&mut s), data);
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        let before = c.cwnd();
        c.send(Bytes::from(vec![0u8; 100_000]));
        run_lossless(
            &mut c,
            &mut s,
            SimTime::from_millis(1),
            SimDuration::from_micros(5),
            2000,
        );
        assert!(
            c.cwnd() > before,
            "cwnd should grow: {} -> {}",
            before,
            c.cwnd()
        );
        assert_eq!(drain(&mut s).len(), 100_000);
    }

    #[test]
    fn timeout_collapses_cwnd() {
        let (mut c, mut s) = pair();
        run_lossless(
            &mut c,
            &mut s,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            50,
        );
        c.send(Bytes::from(vec![0u8; 50_000]));
        let now = SimTime::from_millis(1);
        while c.poll_segment(now).is_some() {} // drop everything
        let grown = c.cwnd();
        let deadline = c.poll_timer().unwrap();
        c.on_timer(deadline);
        assert!(c.cwnd() < grown);
        assert_eq!(c.cwnd(), 1460);
    }

    #[test]
    fn connection_dies_after_max_retries() {
        let mut c = TcpEngine::connect(TcpConfig {
            max_retries: 3,
            ..TcpConfig::default()
        });
        let mut now = SimTime::ZERO;
        // SYN goes nowhere, ever.
        for _ in 0..10 {
            while c.poll_segment(now).is_some() {}
            match c.poll_timer() {
                Some(t) => {
                    now = t;
                    c.on_timer(now);
                }
                None => break,
            }
        }
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn rtt_estimate_tracks_link() {
        let (mut c, mut s) = pair();
        let one_way = SimDuration::from_micros(50);
        run_lossless(&mut c, &mut s, SimTime::ZERO, one_way, 50);
        c.send(Bytes::from(vec![0u8; 20_000]));
        run_lossless(&mut c, &mut s, SimTime::from_millis(1), one_way, 1000);
        let srtt = c.srtt().expect("sampled");
        // One-way 50us → RTT 100us; allow generous tolerance for ack
        // clocking artifacts of the lockstep harness.
        assert!(
            srtt >= SimDuration::from_micros(90) && srtt <= SimDuration::from_micros(400),
            "srtt {srtt}"
        );
    }
}
