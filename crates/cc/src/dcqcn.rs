//! DCQCN-style ECN-driven congestion control.
//!
//! DCQCN (SIGCOMM '15) is the de-facto controller for RoCE deployments —
//! the RDMA baseline the paper's Luna/Solar stacks are measured against.
//! Switches RED-mark packets as queues build; the receiver echoes the
//! mark; the sender keeps an EWMA `α` of the marked fraction and cuts
//! multiplicatively by `α/2` (at most once per rate-reduction period),
//! then recovers in DCQCN's two-phase stage machine: *fast recovery*
//! binary-searches back toward the pre-cut target, *additive increase*
//! then probes past it.
//!
//! This port is window-based (windows are this crate's common currency)
//! rather than rate-based; the α bookkeeping and the stage machine match
//! the paper's structure.

use ebs_sim::{Bandwidth, SimDuration, SimTime};

use crate::{AckSignal, CongestionControl, MIN_WINDOW};

/// EWMA gain `g` for the marked-fraction estimate α.
const G: f64 = 1.0 / 16.0;
/// Minimum interval between multiplicative cuts (DCQCN's rate-reduction
/// timer, 55 us, rounded to the sim's RTT scale; marks inside the
/// interval only update α).
const REDUCTION_PERIOD: SimDuration = SimDuration::from_micros(50);
/// Interval between recovery steps while unmarked.
const INCREASE_PERIOD: SimDuration = SimDuration::from_micros(50);
/// Recovery steps spent in fast recovery (binary search toward the
/// pre-cut target) before additive increase kicks in.
const FAST_RECOVERY_STAGES: u32 = 5;
/// Additive increase per step once past fast recovery, in bytes.
const AI_BYTES: f64 = 4096.0;

/// Per-flow DCQCN state.
#[derive(Debug)]
pub struct Dcqcn {
    /// Window cap, bytes (`max_window`).
    w_max: f64,
    /// Current window, bytes.
    window: f64,
    /// Recovery target: the window held when the last cut was taken.
    target: f64,
    /// EWMA of the marked fraction.
    alpha: f64,
    /// Recovery steps taken since the last cut.
    stage: u32,
    /// Last multiplicative cut.
    last_cut: SimTime,
    /// Last recovery step.
    last_increase: SimTime,
}

impl Dcqcn {
    /// A fresh controller for a flow at `line_rate`, starting at the BDP
    /// clamped into the envelope with α = 1 (DCQCN starts conservative:
    /// the first mark cuts hard, then α decays).
    pub fn new(line_rate: Bandwidth) -> Self {
        let start = crate::start_window(line_rate);
        Dcqcn {
            w_max: crate::max_window(line_rate),
            window: start,
            target: start,
            alpha: 1.0,
            stage: 0,
            last_cut: SimTime::ZERO,
            last_increase: SimTime::ZERO,
        }
    }

    /// Current marked-fraction estimate α (diagnostics / tests).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Feed one ACK's echoed ECN bit.
    pub fn on_ecn_ack(&mut self, now: SimTime, marked: bool) {
        if marked {
            // α tracks the marked fraction: move toward 1.
            self.alpha = (1.0 - G) * self.alpha + G;
            // Cut at most once per reduction period; marks within the
            // period describe the same queue excursion.
            if now.saturating_since(self.last_cut) >= REDUCTION_PERIOD {
                self.target = self.window;
                self.window =
                    (self.window * (1.0 - self.alpha / 2.0)).clamp(MIN_WINDOW, self.w_max);
                self.stage = 0;
                self.last_cut = now;
                self.last_increase = now;
            }
        } else {
            // α decays toward 0 on unmarked feedback.
            self.alpha *= 1.0 - G;
            if now.saturating_since(self.last_increase) >= INCREASE_PERIOD {
                self.stage += 1;
                if self.stage > FAST_RECOVERY_STAGES {
                    // Additive increase: probe past the pre-cut target.
                    self.target += AI_BYTES;
                }
                // Both phases step halfway toward the target (DCQCN's
                // rate update R = (R + Rt) / 2).
                self.window = ((self.window + self.target) / 2.0).clamp(MIN_WINDOW, self.w_max);
                self.last_increase = now;
            }
        }
    }
}

impl CongestionControl for Dcqcn {
    /// DCQCN consumes only the echoed ECN bit; every ACK carries one
    /// (absent a mark it is congestion-free feedback that decays α and
    /// drives recovery).
    fn on_ack(&mut self, now: SimTime, sig: &AckSignal<'_>) {
        self.on_ecn_ack(now, sig.ecn);
    }

    /// Timeout: halve toward the floor, same posture as HPCC.
    fn on_timeout(&mut self) {
        self.window = (self.window / 2.0).max(MIN_WINDOW);
        self.target = self.window;
        self.stage = 0;
    }

    fn window(&self) -> f64 {
        self.window
    }

    fn name(&self) -> &'static str {
        "dcqcn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_RATE;

    #[test]
    fn starts_at_bdp() {
        let d = Dcqcn::new(LINE_RATE);
        assert!((d.window() - crate::bdp(LINE_RATE)).abs() < 1.0);
    }

    #[test]
    fn first_mark_cuts_half() {
        // Hand-computed: α starts at 1; the first mark (one reduction
        // period past t=0) first updates α = (1-1/16)·1 + 1/16 = 1, then
        // cuts by α/2: 62_500 · 0.5 = 31_250.
        let mut d = Dcqcn::new(LINE_RATE);
        d.on_ecn_ack(SimTime::from_micros(50), true);
        assert!((d.window() - 31_250.0).abs() < 1e-6, "{}", d.window());
    }

    #[test]
    fn alpha_decays_without_marks() {
        // Hand-computed: α = 1 → ·(15/16) per clean ACK.
        let mut d = Dcqcn::new(LINE_RATE);
        d.on_ecn_ack(SimTime::from_micros(1), false);
        assert!((d.alpha() - 15.0 / 16.0).abs() < 1e-12);
        d.on_ecn_ack(SimTime::from_micros(2), false);
        assert!((d.alpha() - 225.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn decayed_alpha_cuts_shallower() {
        let mut d = Dcqcn::new(LINE_RATE);
        // Decay α with a stretch of clean feedback (spaced past the
        // increase period so recovery also runs — irrelevant here, the
        // cut fraction is what's under test).
        for i in 0..64u64 {
            d.on_ecn_ack(SimTime::from_micros(i + 1), false);
        }
        let alpha = d.alpha();
        assert!(alpha < 0.02);
        let w0 = d.window();
        d.on_ecn_ack(SimTime::from_micros(1000), true);
        let expected_alpha = (1.0 - 1.0 / 16.0) * alpha + 1.0 / 16.0;
        let expected = w0 * (1.0 - expected_alpha / 2.0);
        assert!((d.window() - expected).abs() < 1e-6);
    }

    #[test]
    fn fast_recovery_halves_back_to_target() {
        // Cut to 31_250 with target 62_500, then recover: each step goes
        // halfway back — 46_875, 54_687.5, 58_593.75...
        let mut d = Dcqcn::new(LINE_RATE);
        d.on_ecn_ack(SimTime::from_micros(50), true);
        d.on_ecn_ack(SimTime::from_micros(100), false);
        assert!((d.window() - 46_875.0).abs() < 1e-6, "{}", d.window());
        d.on_ecn_ack(SimTime::from_micros(150), false);
        assert!((d.window() - 54_687.5).abs() < 1e-6, "{}", d.window());
    }

    #[test]
    fn additive_increase_probes_past_target() {
        let mut d = Dcqcn::new(LINE_RATE);
        d.on_ecn_ack(SimTime::from_micros(50), true);
        // Run recovery well past the fast-recovery stages.
        for i in 0..32u64 {
            d.on_ecn_ack(SimTime::from_micros(100 + 50 * i), false);
        }
        assert!(d.window() > 62_500.0, "{}", d.window());
    }

    #[test]
    fn marks_inside_reduction_period_update_alpha_only() {
        let mut d = Dcqcn::new(LINE_RATE);
        d.on_ecn_ack(SimTime::from_micros(50), true);
        let w1 = d.window();
        // 10us later: inside the 50us reduction period.
        d.on_ecn_ack(SimTime::from_micros(60), true);
        assert_eq!(d.window(), w1);
        assert!((d.alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_never_below_floor() {
        let mut d = Dcqcn::new(LINE_RATE);
        for i in 0..128u64 {
            d.on_ecn_ack(SimTime::from_micros(50 * (i + 1)), true);
        }
        assert!(d.window() >= MIN_WINDOW);
        for _ in 0..32 {
            d.on_timeout();
        }
        assert!(d.window() >= MIN_WINDOW);
    }
}
