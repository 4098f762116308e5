//! Property tests: at any per-path line rate from 0.1 to 100 Gb/s, every
//! controller starts at the BDP clamped into [MIN_WINDOW, max(4·BDP,
//! MIN_WINDOW)], and under arbitrary ACK/timeout histories the adaptive
//! ones stay inside that range (the fixed controller never moves).

use ebs_cc::{AckSignal, AnyCc, CcAlgo, CongestionControl, MIN_WINDOW};
use ebs_sim::{Bandwidth, SimDuration, SimTime};
use ebs_wire::{IntHop, IntStack};
use proptest::prelude::*;

/// One generated step: `(kind, dt_us, rtt_us, has_rtt, ecn, hops)`.
/// `kind == 0` is a timeout (1-in-10 weight); anything else is an ACK
/// carrying whichever signals the flags enable.
type RawStep = (u8, u64, u64, bool, bool, Vec<(u32, u64)>);

fn drive(cc: &mut AnyCc, steps: &[RawStep]) -> Vec<f64> {
    let mut now_us = 0u64;
    let mut windows = Vec::with_capacity(steps.len());
    for (kind, dt_us, rtt_us, has_rtt, ecn, hops) in steps {
        if *kind == 0 {
            cc.on_timeout();
        } else {
            now_us += dt_us;
            let int = IntStack {
                hops: hops
                    .iter()
                    .enumerate()
                    .map(|(i, &(queue_bytes, tx_bytes))| IntHop {
                        device_id: i as u32,
                        queue_bytes,
                        tx_bytes,
                        ts_ns: now_us * 1000,
                        link_mbps: 25_000,
                    })
                    .collect(),
            };
            let sig = AckSignal {
                rtt_sample: has_rtt.then(|| SimDuration::from_micros(*rtt_us)),
                int: (!int.hops.is_empty()).then_some(&int),
                ecn: *ecn,
            };
            cc.on_ack(SimTime::from_micros(now_us), &sig);
        }
        windows.push(cc.window());
    }
    windows
}

fn steps_strategy() -> impl Strategy<Value = Vec<RawStep>> {
    proptest::collection::vec(
        (
            0u8..10,
            0u64..200,
            1u64..5_000,
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec((0u32..10_000_000, 0u64..(1 << 40)), 0..4),
        ),
        1..200,
    )
}

/// Per-path line rates from 0.1 to 100 Gb/s, in 1 Mb/s steps: below
/// ~3.3 Gb/s the BDP is under the floor, below ~0.82 Gb/s so is 4·BDP.
const LINE_RATE_MBPS: std::ops::RangeInclusive<u64> = 100..=100_000;

/// The line rate `mbps` and the envelope every controller keeps at it:
/// its start window (the BDP, clamped) and its cap.
fn envelope(mbps: u64) -> (Bandwidth, f64, f64) {
    let line_rate = Bandwidth::from_bps(mbps * 1_000_000);
    let bdp = ebs_cc::bdp(line_rate);
    let cap = (4.0 * bdp).max(MIN_WINDOW);
    (line_rate, bdp.clamp(MIN_WINDOW, cap), cap)
}

proptest! {
    #[test]
    fn adaptive_windows_stay_bounded(
        steps in steps_strategy(),
        algo in proptest::sample::select(vec![CcAlgo::Hpcc, CcAlgo::Swift, CcAlgo::Dcqcn]),
        mbps in LINE_RATE_MBPS,
        target_us in 1u64..1_000,
    ) {
        let (line_rate, start, cap) = envelope(mbps);
        let mut cc = AnyCc::new(algo, line_rate, SimDuration::from_micros(target_us));
        prop_assert_eq!(cc.window(), start);
        for w in drive(&mut cc, &steps) {
            prop_assert!(w >= MIN_WINDOW - 1e-9, "window {} under floor {}", w, MIN_WINDOW);
            prop_assert!(w <= cap + 1e-9, "window {} over cap {}", w, cap);
            prop_assert!(w.is_finite());
        }
    }

    #[test]
    fn fixed_window_never_moves(steps in steps_strategy(), mbps in LINE_RATE_MBPS) {
        let (line_rate, start, _) = envelope(mbps);
        let mut cc = AnyCc::new(CcAlgo::Fixed, line_rate, SimDuration::ZERO);
        prop_assert_eq!(cc.window(), start);
        for w in drive(&mut cc, &steps) {
            prop_assert_eq!(w, start);
        }
    }
}
