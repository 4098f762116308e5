//! The null controller: a constant window.
//!
//! Preserves the pre-trait behavior of SOLAR with `int_enabled = false`
//! (window parked at the per-path BDP) and doubles as the control arm of
//! the CC comparison matrix.

use crate::{AckSignal, CongestionControl};
use ebs_sim::{Bandwidth, SimTime};

/// A window that never moves.
#[derive(Debug)]
pub struct Fixed {
    window: f64,
}

impl Fixed {
    /// A controller pinned at `line_rate`'s BDP, clamped into the
    /// envelope.
    pub fn new(line_rate: Bandwidth) -> Self {
        Fixed {
            window: crate::start_window(line_rate),
        }
    }
}

impl CongestionControl for Fixed {
    fn on_ack(&mut self, _now: SimTime, _sig: &AckSignal<'_>) {}

    fn on_timeout(&mut self) {}

    fn window(&self) -> f64 {
        self.window
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_constant() {
        let mut f = Fixed::new(crate::LINE_RATE);
        let w = f.window();
        f.on_timeout();
        CongestionControl::on_ack(
            &mut f,
            SimTime::from_micros(1),
            &AckSignal {
                rtt_sample: None,
                int: None,
                ecn: true,
            },
        );
        assert_eq!(f.window(), w);
    }
}
