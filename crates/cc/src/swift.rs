//! Swift-style delay-based congestion control.
//!
//! Swift (SIGCOMM '20) drives the window from the one signal every
//! transport already has — the RTT sample — against a fixed target
//! delay: additive increase while measured delay is under target,
//! multiplicative decrease proportional to the overshoot when it is
//! over, with the decrease rate-limited to once per RTT so one
//! congested round trip does not compound into collapse. No switch
//! support (INT, ECN) is needed, which is exactly why it is the
//! interesting comparison point for SOLAR's INT-driven HPCC: it shows
//! what the fabric telemetry buys.

use ebs_sim::{Bandwidth, SimDuration, SimTime};

use crate::{AckSignal, CongestionControl, BASE_RTT, MIN_WINDOW};

/// Additive increase per under-target ACK, in bytes.
const AI_BYTES: f64 = 4096.0;
/// Multiplicative-decrease gain β: the cut is
/// `1 - β·(delay − target)/delay`, floored by [`MAX_MDF`].
const BETA: f64 = 0.8;
/// Maximum multiplicative decrease factor per cut (Swift's `max_mdf`):
/// the window never loses more than this fraction in one decision.
const MAX_MDF: f64 = 0.5;

/// Per-path Swift state.
#[derive(Debug)]
pub struct Swift {
    /// End-to-end delay target; at or under it the window grows.
    target: SimDuration,
    /// Window cap, bytes (`max_window`).
    w_max: f64,
    /// Current window, bytes.
    window: f64,
    /// Last multiplicative decrease (rate-limits cuts to one per RTT).
    last_decrease: SimTime,
    /// Most recent delay sample in ns (diagnostic).
    last_delay_ns: u64,
}

impl Swift {
    /// A fresh controller for a path at `line_rate` that holds its RTT
    /// samples to `target`, starting at the BDP clamped into the envelope.
    pub fn new(line_rate: Bandwidth, target: SimDuration) -> Self {
        Swift {
            target,
            w_max: crate::max_window(line_rate),
            window: crate::start_window(line_rate),
            last_decrease: SimTime::ZERO,
            last_delay_ns: 0,
        }
    }

    /// Most recent delay sample, nanoseconds (diagnostics / tests).
    pub fn last_delay_ns(&self) -> u64 {
        self.last_delay_ns
    }

    /// Feed one RTT sample.
    pub fn on_delay_sample(&mut self, now: SimTime, rtt: SimDuration) {
        self.last_delay_ns = rtt.as_nanos();
        let target_ns = self.target.as_nanos() as f64;
        let delay_ns = rtt.as_nanos() as f64;
        if delay_ns <= target_ns {
            self.window = (self.window + AI_BYTES).clamp(MIN_WINDOW, self.w_max);
        } else if now.saturating_since(self.last_decrease) >= BASE_RTT {
            // Cut proportionally to the overshoot, bounded by max_mdf,
            // at most once per RTT (everything inflight when congestion
            // built shares the same stale delay).
            let cut = 1.0 - BETA * (delay_ns - target_ns) / delay_ns;
            let factor = cut.max(1.0 - MAX_MDF);
            self.window = (self.window * factor).clamp(MIN_WINDOW, self.w_max);
            self.last_decrease = now;
        }
    }
}

impl CongestionControl for Swift {
    /// Swift consumes only the RTT sample; ACKs without one (Karn-
    /// filtered retransmissions) leave the window untouched.
    fn on_ack(&mut self, now: SimTime, sig: &AckSignal<'_>) {
        if let Some(rtt) = sig.rtt_sample {
            self.on_delay_sample(now, rtt);
        }
    }

    /// Timeout: halve toward the floor, same posture as HPCC.
    fn on_timeout(&mut self) {
        self.window = (self.window / 2.0).max(MIN_WINDOW);
    }

    fn window(&self) -> f64 {
        self.window
    }

    fn name(&self) -> &'static str {
        "swift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_RATE;

    /// Swift's stock target: the 20 us base RTT plus a ~2.5 MTU queueing
    /// budget at 25G.
    const TARGET: SimDuration = SimDuration::from_micros(25);

    fn swift() -> Swift {
        Swift::new(LINE_RATE, TARGET)
    }

    #[test]
    fn starts_at_bdp() {
        assert!((swift().window() - crate::bdp(LINE_RATE)).abs() < 1.0);
    }

    #[test]
    fn under_target_grows_additively() {
        // Hand-computed: BDP = 25e9/8 * 20e-6 = 62_500 bytes. Two
        // under-target samples add 4096 each: 62_500 → 66_596 → 70_692.
        let mut s = swift();
        s.on_delay_sample(SimTime::from_micros(20), SimDuration::from_micros(20));
        assert!((s.window() - 66_596.0).abs() < 1e-6);
        s.on_delay_sample(SimTime::from_micros(40), SimDuration::from_micros(22));
        assert!((s.window() - 70_692.0).abs() < 1e-6);
    }

    #[test]
    fn over_target_cuts_proportionally() {
        // Hand-computed: delay 50us vs target 25us → overshoot fraction
        // (50-25)/50 = 0.5, cut factor 1 - 0.8*0.5 = 0.6.
        // 62_500 * 0.6 = 37_500.
        let mut s = swift();
        s.on_delay_sample(SimTime::from_micros(100), SimDuration::from_micros(50));
        assert!((s.window() - 37_500.0).abs() < 1e-6, "{}", s.window());
    }

    #[test]
    fn cut_is_bounded_by_max_mdf() {
        // Hand-computed: delay 1000us → overshoot (1000-25)/1000 = 0.975,
        // raw factor 1 - 0.8*0.975 = 0.22, floored at 1 - max_mdf = 0.5.
        // 62_500 * 0.5 = 31_250.
        let mut s = swift();
        s.on_delay_sample(SimTime::from_micros(100), SimDuration::from_micros(1000));
        assert!((s.window() - 31_250.0).abs() < 1e-6, "{}", s.window());
    }

    #[test]
    fn decrease_rate_limited_to_one_per_rtt() {
        let mut s = swift();
        s.on_delay_sample(SimTime::from_micros(100), SimDuration::from_micros(50));
        let w1 = s.window();
        // 5us later (< base_rtt of 20us): the second over-target sample
        // must not cut again.
        s.on_delay_sample(SimTime::from_micros(105), SimDuration::from_micros(60));
        assert_eq!(s.window(), w1);
        // A full RTT later it may.
        s.on_delay_sample(SimTime::from_micros(125), SimDuration::from_micros(60));
        assert!(s.window() < w1);
    }

    #[test]
    fn window_never_below_floor() {
        let mut s = swift();
        for i in 0..128u64 {
            s.on_delay_sample(
                SimTime::from_micros(100 * (i + 1)),
                SimDuration::from_millis(10),
            );
        }
        assert!((s.window() - MIN_WINDOW).abs() < 1e-9);
        for _ in 0..32 {
            s.on_timeout();
        }
        assert!(s.window() >= MIN_WINDOW);
    }

    #[test]
    fn growth_capped_at_four_bdp() {
        let mut s = swift();
        for i in 0..1024u64 {
            s.on_delay_sample(
                SimTime::from_micros(20 * (i + 1)),
                SimDuration::from_micros(10),
            );
        }
        assert!(s.window() <= 4.0 * crate::bdp(LINE_RATE) + 1e-9);
    }
}
