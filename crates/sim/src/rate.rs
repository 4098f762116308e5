//! Bandwidth / rate arithmetic.
//!
//! Link speeds, PCIe channel capacities and pacing rates all share this
//! type, which converts between bytes and wire time exactly.

use core::fmt;

use crate::time::SimDuration;

/// A data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate (used for administratively-down links).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// From raw bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// From gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// From megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Raw bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// As fractional gigabits per second.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to serialize `bytes` onto a link of this rate.
    ///
    /// # Panics
    /// Panics if the rate is zero (a down link must be handled by the
    /// caller, not by dividing by zero).
    pub fn transmit_time(self, bytes: usize) -> SimDuration {
        assert!(self.0 > 0, "transmit on zero-rate link");
        // bits * 1e9 / bps, in nanoseconds, rounded up so back-to-back
        // packets never overlap. Two calls per fabric hop: stay in 64-bit
        // division (sizes below 2.3 GB) and keep the 128-bit one, a
        // library call, for what overflows it.
        let ns = match (bytes as u64).checked_mul(8_000_000_000) {
            Some(bit_ns) => bit_ns.div_ceil(self.0),
            None => (bytes as u128 * 8_000_000_000).div_ceil(self.0 as u128) as u64,
        };
        SimDuration::from_nanos(ns)
    }

    /// Scale the rate by a float factor (pacing adjustments).
    pub fn mul_f64(self, k: f64) -> Bandwidth {
        debug_assert!(k >= 0.0);
        Bandwidth((self.0 as f64 * k) as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.as_gbps_f64())
        } else {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_time_exact() {
        // 1KB at 1 Gbps = 8192 bits / 1e9 bps = 8.192 us.
        let bw = Bandwidth::from_gbps(1);
        assert_eq!(bw.transmit_time(1024), SimDuration::from_nanos(8192));
        // 4KB block at 25 Gbps = 32768 bits / 25e9 = 1310.72 -> 1311 ns.
        let bw = Bandwidth::from_gbps(25);
        assert_eq!(bw.transmit_time(4096), SimDuration::from_nanos(1311));
    }

    #[test]
    fn transmit_time_rounds_up() {
        let bw = Bandwidth::from_bps(3);
        // 1 byte = 8 bits at 3 bps = 2.66.. s -> ceil.
        assert_eq!(
            bw.transmit_time(1),
            SimDuration::from_nanos(8_000_000_000u64.div_ceil(3))
        );
    }

    proptest::proptest! {
        /// The 64-bit fast path and the 128-bit fallback are one function.
        /// Sizes up to 8 GiB straddle the overflow point (2^64 / 8e9 ≈
        /// 2.3 GB) — each case checks the raw draw, mostly above it, and a
        /// shifted one spread over the packet-sized orders of magnitude —
        /// and rates run 1 bps ..= 1.6 Tbps.
        #[test]
        fn transmit_time_matches_the_u128_formula(
            bytes in 0usize..=1 << 33,
            shift in 0u32..34,
            bps in 1u64..=1_600_000_000_000,
            rate_shift in 0u32..41,
        ) {
            let bw = Bandwidth::from_bps((bps >> rate_shift).max(1));
            for bytes in [bytes, bytes >> shift] {
                let want = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bw.0 as u128);
                proptest::prop_assert_eq!(
                    bw.transmit_time(bytes),
                    SimDuration::from_nanos(want as u64)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-rate")]
    fn zero_rate_panics() {
        Bandwidth::ZERO.transmit_time(1);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::from_gbps(25)), "25.0Gbps");
        assert_eq!(format!("{}", Bandwidth::from_mbps(100)), "100.0Mbps");
    }
}
