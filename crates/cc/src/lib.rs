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
//!   pre-trait behavior of the non-INT SOLAR path and the RDMA baseline.
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

pub use dcqcn::{Dcqcn, DcqcnConfig};
pub use fixed::{Fixed, FixedConfig};
pub use hpcc::{Hpcc, HpccConfig};
pub use swift::{Swift, SwiftConfig};

use ebs_sim::{SimDuration, SimTime};
use ebs_wire::IntStack;

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

/// Parameter bundle for every algorithm, so hosts can carry one struct
/// and build whichever controller their [`CcAlgo`] selects.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcConfig {
    /// Selected algorithm.
    pub algo: CcAlgo,
    /// HPCC parameters (used when `algo == Hpcc`).
    pub hpcc: HpccConfig,
    /// Swift parameters (used when `algo == Swift`).
    pub swift: SwiftConfig,
    /// DCQCN parameters (used when `algo == Dcqcn`).
    pub dcqcn: DcqcnConfig,
    /// Fixed-window parameters (used when `algo == Fixed`).
    pub fixed: FixedConfig,
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
    /// Build the controller `cfg.algo` selects.
    pub fn new(cfg: &CcConfig) -> Self {
        match cfg.algo {
            CcAlgo::Hpcc => AnyCc::Hpcc(Hpcc::new(cfg.hpcc)),
            CcAlgo::Swift => AnyCc::Swift(Swift::new(cfg.swift)),
            CcAlgo::Dcqcn => AnyCc::Dcqcn(Dcqcn::new(cfg.dcqcn)),
            CcAlgo::Fixed => AnyCc::Fixed(Fixed::new(cfg.fixed)),
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
