//! # ebs-cc — pluggable congestion control
//!
//! The paper pairs SOLAR's per-packet ACKs with HPCC-style INT-driven
//! congestion control (§4.8); Laminar-style designs show that making CC a
//! pluggable module is what lets one stack compare algorithms under
//! identical workloads. This crate extracts that seam: a sans-io
//! [`CongestionControl`] trait plus four implementations —
//!
//! * [`Hpcc`] — the paper's INT-driven controller (ported verbatim from
//!   `ebs-solar`): per-ACK max-hop utilization `U = qlen/(B·T) + txRate/B`
//!   drives a multiplicative move toward `η` with bounded additive
//!   increase against a per-RTT reference window.
//! * [`Swift`] — a Swift-style delay-based controller: AIMD on the srtt
//!   samples every ACK already produces, targeting a fixed end-to-end
//!   delay budget. Needs no switch support at all.
//! * [`Dcqcn`] — a DCQCN-style ECN controller for the RDMA baseline:
//!   RED-marked ECN bits (echoed by the receiver) feed an `α` EWMA that
//!   scales multiplicative cuts; recovery is DCQCN's fast-recovery /
//!   additive-increase stage machine.
//! * [`Fixed`] — the null controller: a constant window, preserving the
//!   pre-trait behavior of the non-INT SOLAR path.
//!
//! All four share one per-path envelope: they start at the BDP of
//! [`BASE_RTT`] at the path's line rate, and the adaptive three keep
//! their window inside `[MIN_WINDOW, max_window]`. A host picks the
//! algorithm and the line rate, plus the target for Swift; every other
//! parameter is a constant of its controller's module.
//!
//! Every controller is a pure state machine: the host injects time and
//! ACK signals (`on_ack`), timeouts (`on_timeout`) and reads back the
//! window. Windows are in **bytes** everywhere; packet-granular hosts
//! (RDMA) divide by MTU. Nothing here touches a clock, a socket or
//! ambient randomness — the crate sits in the lint sans-io, determinism
//! and panic-discipline tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcqcn;
mod fixed;
mod hpcc;
mod swift;

pub use dcqcn::Dcqcn;
pub use fixed::Fixed;
pub use hpcc::Hpcc;
pub use swift::Swift;

use ebs_sim::{Bandwidth, SimDuration, SimTime};
use ebs_wire::IntStack;

/// Per-path line rate: one path's share of a 2x25GE NIC spraying over
/// four paths. SOLAR may scale it; TCP and RDMA run at it.
pub const LINE_RATE: Bandwidth = Bandwidth::from_gbps(25);

/// Base (unloaded) RTT of one path. With the line rate it gives the BDP;
/// it is also HPCC's utilization period and the interval that rate-limits
/// HPCC's reference update and Swift's cuts.
pub const BASE_RTT: SimDuration = SimDuration::from_micros(20);

/// Window floor in bytes (two 4 KiB blocks), so a path can always probe.
pub const MIN_WINDOW: f64 = 2.0 * 4096.0;

/// The bandwidth-delay product of one path at `line_rate`, in bytes.
pub fn bdp(line_rate: Bandwidth) -> f64 {
    line_rate.bytes_per_sec() * BASE_RTT.as_secs_f64()
}

/// The window cap in bytes: 4 x BDP, so a path with headroom may grow
/// past its starting share but a sick one cannot absorb unbounded
/// inflight. Never under [`MIN_WINDOW`], which 4 x BDP is below about
/// 0.82 Gb/s.
pub(crate) fn max_window(line_rate: Bandwidth) -> f64 {
    (4.0 * bdp(line_rate)).max(MIN_WINDOW)
}

/// The window every controller starts at, in bytes: the BDP, clamped
/// into `[MIN_WINDOW, max_window]` (it is under the floor below about
/// 3.3 Gb/s).
pub(crate) fn start_window(line_rate: Bandwidth) -> f64 {
    bdp(line_rate).clamp(MIN_WINDOW, max_window(line_rate))
}

/// Everything one ACK can tell a congestion controller. Hosts fill in
/// whatever their transport produces; controllers consume the subset
/// they understand (HPCC reads `int`, Swift reads `rtt_sample`, DCQCN
/// reads `ecn`) and ignore the rest, so one call site serves every
/// algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckSignal<'a> {
    /// Karn-filtered RTT sample for the acked packet, when the host has
    /// one (retransmitted packets yield `None`).
    pub rtt_sample: Option<SimDuration>,
    /// INT stack echoed by the ACK, when telemetry is enabled.
    pub int: Option<&'a IntStack>,
    /// ECN congestion-experienced mark echoed by the receiver.
    pub ecn: bool,
}

/// A congestion-window state machine. Sans-io: time arrives as an
/// argument, signals as [`AckSignal`]s, and the only output is
/// [`window`](CongestionControl::window).
pub trait CongestionControl {
    /// Feed one ACK's worth of congestion signals.
    fn on_ack(&mut self, now: SimTime, sig: &AckSignal<'_>);
    /// A retransmission timeout fired: strong congestion/failure signal.
    fn on_timeout(&mut self);
    /// Current congestion window in bytes.
    fn window(&self) -> f64;
    /// Stable algorithm name (report keys, bench tables).
    fn name(&self) -> &'static str;
}

/// Algorithm selector carried by host configs (SOLAR, TCP, RDMA, the
/// testbed and the chaos envelope all pick a controller with this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgo {
    /// INT-driven HPCC (the paper's choice for SOLAR).
    #[default]
    Hpcc,
    /// Delay-based Swift-style AIMD.
    Swift,
    /// ECN-driven DCQCN-style controller.
    Dcqcn,
    /// Constant window (no congestion control).
    Fixed,
}

impl CcAlgo {
    /// Stable lowercase name (matches `CongestionControl::name`).
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::Hpcc => "hpcc",
            CcAlgo::Swift => "swift",
            CcAlgo::Dcqcn => "dcqcn",
            CcAlgo::Fixed => "fixed",
        }
    }
}

/// Enum dispatch over the four controllers — no `Box<dyn>` on the
/// per-ACK hot path, and the per-path state stays `Copy`-free but
/// movable and `Debug`.
#[derive(Debug)]
pub enum AnyCc {
    /// INT-driven HPCC.
    Hpcc(Hpcc),
    /// Delay-based Swift.
    Swift(Swift),
    /// ECN-driven DCQCN.
    Dcqcn(Dcqcn),
    /// Constant window.
    Fixed(Fixed),
}

impl AnyCc {
    /// Build the controller `algo` selects for a path at `line_rate`;
    /// `swift_target` is Swift's delay target, which only the host knows
    /// (what its RTT samples include).
    pub fn new(algo: CcAlgo, line_rate: Bandwidth, swift_target: SimDuration) -> Self {
        match algo {
            CcAlgo::Hpcc => AnyCc::Hpcc(Hpcc::new(line_rate)),
            CcAlgo::Swift => AnyCc::Swift(Swift::new(line_rate, swift_target)),
            CcAlgo::Dcqcn => AnyCc::Dcqcn(Dcqcn::new(line_rate)),
            CcAlgo::Fixed => AnyCc::Fixed(Fixed::new(line_rate)),
        }
    }
}

impl CongestionControl for AnyCc {
    fn on_ack(&mut self, now: SimTime, sig: &AckSignal<'_>) {
        match self {
            AnyCc::Hpcc(c) => c.on_ack(now, sig),
            AnyCc::Swift(c) => c.on_ack(now, sig),
            AnyCc::Dcqcn(c) => c.on_ack(now, sig),
            AnyCc::Fixed(c) => c.on_ack(now, sig),
        }
    }

    fn on_timeout(&mut self) {
        match self {
            AnyCc::Hpcc(c) => c.on_timeout(),
            AnyCc::Swift(c) => c.on_timeout(),
            AnyCc::Dcqcn(c) => c.on_timeout(),
            AnyCc::Fixed(c) => c.on_timeout(),
        }
    }

    fn window(&self) -> f64 {
        match self {
            AnyCc::Hpcc(c) => c.window(),
            AnyCc::Swift(c) => c.window(),
            AnyCc::Dcqcn(c) => c.window(),
            AnyCc::Fixed(c) => c.window(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyCc::Hpcc(_) => "hpcc",
            AnyCc::Swift(_) => "swift",
            AnyCc::Dcqcn(_) => "dcqcn",
            AnyCc::Fixed(_) => "fixed",
        }
    }
}
