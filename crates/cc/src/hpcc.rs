//! HPCC-style INT-driven congestion control.
//!
//! SOLAR pairs its per-packet ACKs with fine-grained congestion control
//! (§4.8 cites HPCC [38]): every ACK echoes the INT stack the data packet
//! collected, the sender computes the most-utilized hop's normalized
//! utilization `U = qlen/(B·T) + txRate/B`, and the window follows HPCC's
//! update rule — multiplicative adjustment toward `η` when over-utilized,
//! bounded additive increase otherwise, against a per-RTT reference
//! window `Wc`.
//!
//! Ported verbatim from `ebs-solar` behind the [`CongestionControl`]
//! trait; the float operations are unchanged so windows replay
//! bit-identically across the move.
//!
//! The rate term differences each hop's transmit counter against the
//! previous observation of the same device, so the controller remembers
//! the last snapshot of every device it has seen. That memory is a
//! [`HopTable`]: device ids in first-seen order, searched linearly, the
//! first [`PATH_INT_HOPS`] (the longest fabric path) inline and any
//! further ones spilled to the heap. A path crosses a handful of devices,
//! so a scan of a few contiguous ids takes the place of a hash per hop,
//! and a controller whose paths stay short allocates nothing. The table
//! never forgets a device.

use ebs_sim::{Bandwidth, SimTime};
use ebs_wire::{IntStack, PATH_INT_HOPS};

use crate::{AckSignal, CongestionControl, BASE_RTT, MIN_WINDOW};

/// Target utilization η.
const ETA: f64 = 0.95;
/// Additive increase per ACK, in bytes (W_ai).
const WAI_BYTES: f64 = 4096.0;
/// Additive-increase stages before a multiplicative update is forced
/// (HPCC's maxStage).
const MAX_STAGE: u32 = 5;

/// Previous INT observation of one hop (to difference the tx counter).
#[derive(Debug, Clone, Copy, Default)]
struct HopSnapshot {
    tx_bytes: u64,
    ts_ns: u64,
}

/// The last [`HopSnapshot`] of every device seen, in first-seen order
/// (see the module docs).
#[derive(Debug, Default)]
struct HopTable {
    /// Devices held inline: `ids[..len]`.
    len: u8,
    ids: [u32; PATH_INT_HOPS],
    snaps: [HopSnapshot; PATH_INT_HOPS],
    /// Devices past the inline ones.
    spill: Vec<(u32, HopSnapshot)>,
}

impl HopTable {
    /// Store `snap` as `device`'s latest observation and return the one
    /// it replaces, if the device was seen before.
    fn replace(&mut self, device: u32, snap: HopSnapshot) -> Option<HopSnapshot> {
        let n = self.len as usize;
        if let Some(i) = self.ids[..n].iter().position(|&d| d == device) {
            return Some(std::mem::replace(&mut self.snaps[i], snap));
        }
        if let Some((_, s)) = self.spill.iter_mut().find(|(d, _)| *d == device) {
            return Some(std::mem::replace(s, snap));
        }
        if n < PATH_INT_HOPS {
            self.ids[n] = device;
            self.snaps[n] = snap;
            self.len += 1;
        } else {
            self.spill.push((device, snap));
        }
        None
    }
}

/// Per-path HPCC state.
#[derive(Debug)]
pub struct Hpcc {
    /// Window cap, bytes (`max_window`).
    w_max: f64,
    /// Current window, bytes.
    window: f64,
    /// Reference window updated once per RTT.
    wc: f64,
    inc_stage: u32,
    last_wc_update: SimTime,
    prev_hops: HopTable,
    /// Most recent computed max-hop utilization (diagnostic).
    last_u: f64,
}

impl Hpcc {
    /// A fresh controller for a path at `line_rate`, starting at the BDP
    /// clamped into the envelope.
    pub fn new(line_rate: Bandwidth) -> Self {
        let start = crate::start_window(line_rate);
        Hpcc {
            w_max: crate::max_window(line_rate),
            window: start,
            wc: start,
            inc_stage: 0,
            last_wc_update: SimTime::ZERO,
            prev_hops: HopTable::default(),
            last_u: 0.0,
        }
    }

    /// Last computed utilization (diagnostics / tests).
    pub fn last_utilization(&self) -> f64 {
        self.last_u
    }

    /// Process the INT stack echoed by an ACK.
    pub fn on_int_ack(&mut self, now: SimTime, int: &IntStack) {
        let Some(u) = self.max_hop_utilization(int) else {
            return; // first sample of every hop: no rate yet
        };
        self.last_u = u;
        // The window may grow past the per-path starting BDP when INT
        // shows headroom (paths share the NIC unevenly), up to `w_max`.
        if u >= ETA || self.inc_stage >= MAX_STAGE {
            // Multiplicative move toward target utilization.
            self.window = (self.wc / (u / ETA) + WAI_BYTES).clamp(MIN_WINDOW, self.w_max);
            self.inc_stage = 0;
            self.wc = self.window;
            self.last_wc_update = now;
        } else {
            self.window = (self.wc + WAI_BYTES).clamp(MIN_WINDOW, self.w_max);
            self.inc_stage += 1;
            // Update the reference once per base RTT.
            if now.saturating_since(self.last_wc_update) >= BASE_RTT {
                self.wc = self.window;
                self.inc_stage = 0;
                self.last_wc_update = now;
            }
        }
    }

    fn max_hop_utilization(&mut self, int: &IntStack) -> Option<f64> {
        let t_ns = BASE_RTT.as_nanos() as f64;
        let mut max_u: Option<f64> = None;
        for hop in &int.hops {
            let b_bytes_per_ns = hop.link_mbps as f64 * 1e6 / 8.0 / 1e9;
            let prev = self.prev_hops.replace(
                hop.device_id,
                HopSnapshot {
                    tx_bytes: hop.tx_bytes,
                    ts_ns: hop.ts_ns,
                },
            );
            let Some(prev) = prev else { continue };
            if hop.ts_ns <= prev.ts_ns {
                continue; // reordered INT sample
            }
            let dt = (hop.ts_ns - prev.ts_ns) as f64;
            let tx_rate = (hop.tx_bytes.saturating_sub(prev.tx_bytes)) as f64 / dt;
            let u = hop.queue_bytes as f64 / (b_bytes_per_ns * t_ns) + tx_rate / b_bytes_per_ns;
            max_u = Some(max_u.map_or(u, |m: f64| m.max(u)));
        }
        max_u
    }
}

impl CongestionControl for Hpcc {
    /// HPCC only reacts to ACKs that carry INT; bare ACKs leave the
    /// window untouched (matching the pre-trait SOLAR behavior when
    /// `int_enabled` is off).
    fn on_ack(&mut self, now: SimTime, sig: &AckSignal<'_>) {
        if let Some(int) = sig.int {
            self.on_int_ack(now, int);
        }
    }

    /// A timeout is a strong congestion / failure signal: halve toward the
    /// floor so retransmissions do not pile onto a sick path.
    fn on_timeout(&mut self) {
        self.window = (self.window / 2.0).max(MIN_WINDOW);
        self.wc = self.window;
        self.inc_stage = 0;
    }

    fn window(&self) -> f64 {
        self.window
    }

    fn name(&self) -> &'static str {
        "hpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_RATE;
    use ebs_sim::SimDuration;
    use ebs_wire::IntHop;

    fn hop(dev: u32, queue: u32, tx: u64, ts: u64) -> IntHop {
        IntHop {
            device_id: dev,
            queue_bytes: queue,
            tx_bytes: tx,
            ts_ns: ts,
            link_mbps: 25_000, // 25G
        }
    }

    fn stack(hops: Vec<IntHop>) -> IntStack {
        IntStack { hops }
    }

    #[test]
    fn starts_at_bdp() {
        let h = Hpcc::new(LINE_RATE);
        assert!((h.window() - crate::bdp(LINE_RATE)).abs() < 1.0);
    }

    #[test]
    fn idle_link_grows_additively() {
        let mut h = Hpcc::new(LINE_RATE);
        // Drain below BDP first so growth is visible.
        h.on_timeout();
        let w0 = h.window();
        // Empty queue, negligible tx rate.
        h.on_int_ack(SimTime::from_micros(10), &stack(vec![hop(1, 0, 0, 10_000)]));
        h.on_int_ack(
            SimTime::from_micros(25),
            &stack(vec![hop(1, 0, 100, 25_000)]),
        );
        assert!(h.window() > w0, "{} !> {}", h.window(), w0);
    }

    #[test]
    fn congested_link_shrinks() {
        let mut h = Hpcc::new(LINE_RATE);
        let w0 = h.window();
        // Deep queue and line-rate tx: U >> eta.
        // 25G = 3.125 bytes/ns: in 10_000 ns, 31_250 bytes at line rate.
        h.on_int_ack(
            SimTime::from_micros(10),
            &stack(vec![hop(1, 200_000, 0, 10_000)]),
        );
        h.on_int_ack(
            SimTime::from_micros(25),
            &stack(vec![hop(1, 200_000, 46_875, 25_000)]),
        );
        assert!(h.window() < w0, "{} !< {}", h.window(), w0);
        assert!(h.last_utilization() > 1.0);
    }

    #[test]
    fn bottleneck_is_the_max_hop() {
        let mut h = Hpcc::new(LINE_RATE);
        h.on_int_ack(
            SimTime::from_micros(10),
            &stack(vec![hop(1, 0, 0, 10_000), hop(2, 500_000, 0, 10_000)]),
        );
        h.on_int_ack(
            SimTime::from_micros(25),
            &stack(vec![
                hop(1, 0, 100, 25_000),
                hop(2, 500_000, 46_875, 25_000),
            ]),
        );
        assert!(h.last_utilization() > 1.0, "congested hop 2 must dominate");
    }

    /// Devices past the inline ones spill, and none is ever forgotten:
    /// every one returns its last snapshot, in any order, repeatedly.
    #[test]
    fn hop_table_spills_and_never_forgets() {
        let mut t = HopTable::default();
        let snap = |d: u32, round: u64| HopSnapshot {
            tx_bytes: u64::from(d) * 1000 + round,
            ts_ns: round,
        };
        for d in 0..12 {
            assert!(t.replace(100 + d, snap(d, 0)).is_none());
        }
        assert_eq!((t.len as usize, t.spill.len()), (PATH_INT_HOPS, 5));
        for round in 1..3 {
            for d in (0..12).rev() {
                let prev = t.replace(100 + d, snap(d, round)).expect("seen before");
                assert_eq!(prev.tx_bytes, snap(d, round - 1).tx_bytes);
            }
        }
        assert_eq!(t.spill.len(), 5, "no device is stored twice");
    }

    #[test]
    fn timeout_halves() {
        let mut h = Hpcc::new(LINE_RATE);
        let w0 = h.window();
        h.on_timeout();
        assert!((h.window() - w0 / 2.0).abs() < 1.0);
    }

    #[test]
    fn window_never_below_floor() {
        let mut h = Hpcc::new(LINE_RATE);
        for _ in 0..64 {
            h.on_timeout();
        }
        assert!(h.window() >= MIN_WINDOW);
    }

    #[test]
    fn trait_ack_routes_int() {
        let mut h = Hpcc::new(LINE_RATE);
        let w0 = h.window();
        // A bare ACK (no INT) must not move the window.
        CongestionControl::on_ack(
            &mut h,
            SimTime::from_micros(10),
            &AckSignal {
                rtt_sample: Some(SimDuration::from_micros(20)),
                int: None,
                ecn: true,
            },
        );
        assert_eq!(h.window(), w0);
        // The same congested INT trace as `congested_link_shrinks`, fed
        // through the trait, must shrink it.
        let s1 = stack(vec![hop(1, 200_000, 0, 10_000)]);
        let s2 = stack(vec![hop(1, 200_000, 46_875, 25_000)]);
        CongestionControl::on_ack(
            &mut h,
            SimTime::from_micros(10),
            &AckSignal {
                rtt_sample: None,
                int: Some(&s1),
                ecn: false,
            },
        );
        CongestionControl::on_ack(
            &mut h,
            SimTime::from_micros(25),
            &AckSignal {
                rtt_sample: None,
                int: Some(&s2),
                ecn: false,
            },
        );
        assert!(h.window() < w0);
    }
}
