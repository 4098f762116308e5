//! End-to-end tests for the TCP engine with the Swift delay-based
//! congestion controller swapped in for Reno.
//!
//! The harness is a clean (or lossy) virtual link; the assertions are
//! about correctness (exactly-once delivery must not depend on the CC
//! algorithm) and about the Swift invariant that the window stays inside
//! `[MIN_WINDOW, 4 * BDP]` whatever the link does.

use bytes::Bytes;
use ebs_cc::{LINE_RATE, MIN_WINDOW};
use ebs_sim::{EventQueue, SimDuration, SimTime};
use ebs_tcp::{Segment, TcpConfig, TcpEngine};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

enum Ev {
    DeliverToServer(Segment),
    DeliverToClient(Segment),
    Tick,
}

/// One-direction bulk transfer over a link with fixed base delay and a
/// drop coin-flip; returns the delivered bytes and the max cwnd observed.
fn swift_transfer(data: &[u8], seed: u64, loss: f64) -> (Vec<u8>, f64) {
    let cfg = TcpConfig {
        rto_initial: SimDuration::from_millis(10),
        rto_min: SimDuration::from_millis(2),
        swift: true,
        ..TcpConfig::default()
    };
    let mut client = TcpEngine::connect(TcpConfig {
        iss: 77,
        ..cfg.clone()
    });
    let mut server = TcpEngine::listen(TcpConfig { iss: 909, ..cfg });
    let mut rng = SmallRng::seed_from_u64(seed);
    let base_delay = SimDuration::from_micros(20);
    let mut q: EventQueue<Ev> = EventQueue::new();
    client.send(Bytes::copy_from_slice(data));
    q.schedule_at(SimTime::ZERO, Ev::Tick);
    let mut received = Vec::new();
    let mut max_cwnd = 0.0f64;

    let horizon = SimTime::from_secs(120);
    while let Some((now, ev)) = q.pop() {
        if now > horizon {
            break;
        }
        match ev {
            Ev::DeliverToServer(seg) => server.on_segment(now, seg),
            Ev::DeliverToClient(seg) => client.on_segment(now, seg),
            Ev::Tick => {}
        }
        while let Some(seg) = client.poll_segment(now) {
            if rng.gen::<f64>() >= loss {
                q.schedule_at(now + base_delay, Ev::DeliverToServer(seg));
            }
        }
        while let Some(seg) = server.poll_segment(now) {
            q.schedule_at(now + base_delay, Ev::DeliverToClient(seg));
        }
        while let Some(b) = server.recv() {
            received.extend_from_slice(&b);
        }
        max_cwnd = max_cwnd.max(client.cwnd() as f64);
        if let Some(t) = client.poll_timer() {
            if t <= now {
                client.on_timer(now);
                while let Some(seg) = client.poll_segment(now) {
                    if rng.gen::<f64>() >= loss {
                        q.schedule_at(now + base_delay, Ev::DeliverToServer(seg));
                    }
                }
                if let Some(t2) = client.poll_timer() {
                    q.schedule_at(t2.max(now), Ev::Tick);
                }
            } else {
                q.schedule_at(t, Ev::Tick);
            }
        }
        if let Some(t) = server.poll_timer() {
            if t <= now {
                server.on_timer(now);
            } else {
                q.schedule_at(t, Ev::Tick);
            }
        }
        if received.len() == data.len() && client.bytes_in_flight() == 0 {
            break;
        }
    }
    (received, max_cwnd)
}

#[test]
fn swift_delivers_the_stream_on_a_clean_link() {
    let data: Vec<u8> = (0..30_000).map(|i| (i * 13) as u8).collect();
    let (got, max_cwnd) = swift_transfer(&data, 42, 0.0);
    assert_eq!(got, data);
    let cap = 4.0 * ebs_cc::bdp(LINE_RATE);
    assert!(
        max_cwnd <= cap + 1e-9,
        "swift cwnd {max_cwnd} exceeded the 4*BDP cap {cap}"
    );
    assert!(
        max_cwnd >= MIN_WINDOW,
        "swift cwnd never reached the floor: {max_cwnd}"
    );
}

#[test]
fn swift_survives_loss() {
    let data: Vec<u8> = (0..12_000).map(|i| (i * 7 + 3) as u8).collect();
    for seed in [1u64, 2, 3] {
        let (got, max_cwnd) = swift_transfer(&data, seed, 0.10);
        assert_eq!(got, data, "seed {seed}");
        let cap = 4.0 * ebs_cc::bdp(LINE_RATE);
        assert!(max_cwnd <= cap + 1e-9, "seed {seed}: cwnd {max_cwnd}");
    }
}
