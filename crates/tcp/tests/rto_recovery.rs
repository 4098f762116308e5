//! Loss recovery after a retransmission timeout: a flight of W segments
//! with k of them lost once must be whole again within one RTO plus O(k)
//! round trips — not one RTO per hole with the RTO doubling each time.
//!
//! The link is a fixed one-way delay with no jitter; the only faults are
//! the k first transmissions the test drops. Retransmissions always get
//! through, so a correct sender needs exactly one timeout: it resends the
//! first hole, and each partial ACK that follows names the next one.

use bytes::Bytes;
use ebs_sim::{EventQueue, SimDuration, SimTime};
use ebs_tcp::{Segment, TcpConfig, TcpEngine};
use proptest::prelude::*;

const MSS: usize = 1000;
const ONE_WAY: SimDuration = SimDuration::from_micros(5);
const RTO_INITIAL: SimDuration = SimDuration::from_millis(10);

enum Ev {
    ToServer(Segment),
    ToClient(Segment),
    Tick,
}

/// What one scripted transfer did.
struct Outcome {
    delivered: Vec<u8>,
    /// When the last byte was acknowledged, measured from the first data
    /// segment's departure.
    recovered_after: SimDuration,
    timeouts: u64,
}

/// Send `w` segments in one flight (the initial window is `w`), dropping
/// the first transmission of each data segment whose index is in `lost`.
fn transfer(w: usize, lost: &[usize]) -> Outcome {
    let cfg = TcpConfig {
        mss: MSS,
        initial_cwnd_segs: w as u32,
        rto_initial: RTO_INITIAL,
        rto_min: SimDuration::from_millis(2),
        ..TcpConfig::default()
    };
    let mut client = TcpEngine::connect(TcpConfig {
        iss: 77,
        ..cfg.clone()
    });
    let mut server = TcpEngine::listen(TcpConfig { iss: 909, ..cfg });
    let data: Vec<u8> = (0..w * MSS).map(|i| (i * 7 + i / 251) as u8).collect();

    let mut q: EventQueue<Ev> = EventQueue::new();
    q.schedule_at(SimTime::ZERO, Ev::Tick);
    let mut delivered = Vec::new();
    let mut sent_first = vec![false; w];
    let mut data_start = None;
    let mut done_at = None;
    let horizon = SimTime::from_secs(60);
    while let Some((now, ev)) = q.pop() {
        if now > horizon {
            break;
        }
        match ev {
            Ev::ToServer(seg) => server.on_segment(now, seg),
            Ev::ToClient(seg) => client.on_segment(now, seg),
            Ev::Tick => {}
        }
        if client.is_established() && data_start.is_none() {
            data_start = Some(now);
            client.send(Bytes::from(data.clone()));
        }
        client.on_timer(now);
        server.on_timer(now);
        while let Some(seg) = client.poll_segment(now) {
            if !seg.payload.is_empty() {
                // Payload offset from the sequence number: data starts at
                // iss + 1.
                let idx = seg.seq.wrapping_sub(78) as usize / MSS;
                let first = !std::mem::replace(&mut sent_first[idx], true);
                if first && lost.contains(&idx) {
                    continue;
                }
            }
            q.schedule_at(now + ONE_WAY, Ev::ToServer(seg));
        }
        while let Some(seg) = server.poll_segment(now) {
            q.schedule_at(now + ONE_WAY, Ev::ToClient(seg));
        }
        while let Some(b) = server.recv() {
            delivered.extend_from_slice(&b);
        }
        if delivered.len() == data.len() && client.bytes_in_flight() == 0 {
            done_at = Some(now);
            break;
        }
        for t in [client.poll_timer(), server.poll_timer()]
            .into_iter()
            .flatten()
        {
            if t > now {
                q.schedule_at(t, Ev::Tick);
            }
        }
    }
    let start = data_start.expect("handshake completed");
    Outcome {
        delivered,
        recovered_after: done_at.unwrap_or(horizon).saturating_since(start),
        timeouts: client.stats().timeouts,
    }
}

proptest! {
    /// k distinct segments of a W-segment flight lost once: the stream
    /// arrives whole after at most one timeout, within one initial RTO
    /// plus a round trip per hole and a few more for the ACK clock.
    #[test]
    fn k_holes_cost_one_rto_and_k_round_trips(
        w in 2usize..=32,
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..=10),
    ) {
        let mut lost: Vec<usize> = picks.iter().map(|p| p.index(w)).collect();
        lost.sort_unstable();
        lost.dedup();
        let k = lost.len() as u64;
        let out = transfer(w, &lost);
        let expect: Vec<u8> = (0..w * MSS).map(|i| (i * 7 + i / 251) as u8).collect();
        prop_assert!(out.delivered == expect, "stream corrupted or incomplete");
        prop_assert!(out.timeouts <= 1, "{} timeouts for lost {:?} of {}", out.timeouts, lost, w);
        let rtt = ONE_WAY * 2;
        let bound = RTO_INITIAL + rtt * (2 * k + 4);
        prop_assert!(
            out.recovered_after <= bound,
            "lost {:?} of {}: recovered after {:?}, bound {:?}",
            lost, w, out.recovered_after, bound
        );
    }
}

/// A flight with no loss takes no timeout, and one lost segment with a
/// clean tail behind it is repaired by fast retransmit, also without one.
#[test]
fn clean_and_single_loss_flights_take_no_timeout() {
    let clean = transfer(16, &[]);
    assert_eq!(clean.timeouts, 0);
    assert!(clean.recovered_after < RTO_INITIAL);
    let one = transfer(16, &[3]);
    assert_eq!(one.timeouts, 0);
    assert!(one.recovered_after < RTO_INITIAL);
}
