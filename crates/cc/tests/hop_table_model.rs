//! Model test of HPCC's hop table: [`Hpcc`] remembers each device's last
//! INT snapshot in a first-seen-order table (the longest path's hops
//! inline, further devices spilled), and must follow exactly the window
//! trajectory of the hash-map controller it replaced.
//!
//! The reference below is that controller as it was, keyed by an
//! [`FxHashMap`]. Both are fed the same random ACKs and timeouts: INT
//! stacks of up to 15 hops drawn from 16 devices (so most runs see more
//! than the 7 held inline), devices repeated within a stack, timestamps
//! that go backwards or stand still, and idle or busy links. After every
//! step the window and the last utilization must match bit for bit.

use ebs_cc::{bdp, CongestionControl, Hpcc, BASE_RTT, MIN_WINDOW};
use ebs_sim::{Bandwidth, FxHashMap, SimTime};
use ebs_wire::{IntHop, IntStack};
use proptest::prelude::*;

/// Target utilization η.
const ETA: f64 = 0.95;
/// Additive increase per ACK, in bytes (W_ai).
const WAI_BYTES: f64 = 4096.0;
/// Additive-increase stages before a multiplicative update is forced.
const MAX_STAGE: u32 = 5;

#[derive(Debug, Clone, Copy)]
struct HopSnapshot {
    tx_bytes: u64,
    ts_ns: u64,
}

/// HPCC with the per-device snapshots in a hash map.
struct MapHpcc {
    w_max: f64,
    window: f64,
    wc: f64,
    inc_stage: u32,
    last_wc_update: SimTime,
    prev_hops: FxHashMap<u32, HopSnapshot>,
    last_u: f64,
}

impl MapHpcc {
    fn new(line_rate: Bandwidth) -> Self {
        let w_max = (4.0 * bdp(line_rate)).max(MIN_WINDOW);
        let start = bdp(line_rate).clamp(MIN_WINDOW, w_max);
        MapHpcc {
            w_max,
            window: start,
            wc: start,
            inc_stage: 0,
            last_wc_update: SimTime::ZERO,
            prev_hops: FxHashMap::default(),
            last_u: 0.0,
        }
    }

    fn on_int_ack(&mut self, now: SimTime, int: &IntStack) {
        let Some(u) = self.max_hop_utilization(int) else {
            return;
        };
        self.last_u = u;
        if u >= ETA || self.inc_stage >= MAX_STAGE {
            self.window = (self.wc / (u / ETA) + WAI_BYTES).clamp(MIN_WINDOW, self.w_max);
            self.inc_stage = 0;
            self.wc = self.window;
            self.last_wc_update = now;
        } else {
            self.window = (self.wc + WAI_BYTES).clamp(MIN_WINDOW, self.w_max);
            self.inc_stage += 1;
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
            let prev = self.prev_hops.insert(
                hop.device_id,
                HopSnapshot {
                    tx_bytes: hop.tx_bytes,
                    ts_ns: hop.ts_ns,
                },
            );
            let Some(prev) = prev else { continue };
            if hop.ts_ns <= prev.ts_ns {
                continue;
            }
            let dt = (hop.ts_ns - prev.ts_ns) as f64;
            let tx_rate = (hop.tx_bytes.saturating_sub(prev.tx_bytes)) as f64 / dt;
            let u = hop.queue_bytes as f64 / (b_bytes_per_ns * t_ns) + tx_rate / b_bytes_per_ns;
            max_u = Some(max_u.map_or(u, |m: f64| m.max(u)));
        }
        max_u
    }

    fn on_timeout(&mut self) {
        self.window = (self.window / 2.0).max(MIN_WINDOW);
        self.wc = self.window;
        self.inc_stage = 0;
    }
}

/// One generated hop: `(device, queue_bytes, tx_step, ts_skew_ns, link)`.
type RawHop = (u32, u32, u64, i64, u8);

/// One generated step: `(kind, dt_ns, hops)`, `dt_ns` after the previous
/// one. `kind == 0` is a timeout (1-in-10 weight); anything else is an
/// ACK carrying the hops.
type RawStep = (u8, u64, Vec<RawHop>);

const LINKS_MBPS: [u32; 4] = [10_000, 25_000, 100_000, 400_000];

fn steps_strategy() -> impl Strategy<Value = Vec<RawStep>> {
    let hop = (
        0u32..16,
        0u32..400_000,
        0u64..200_000,
        -3_000i64..30_000,
        0u8..4,
    );
    let step = (0u8..10, 0u64..40_000, proptest::collection::vec(hop, 0..16));
    proptest::collection::vec(step, 1..300)
}

proptest! {
    #[test]
    fn hop_table_matches_the_hash_map(
        rate_gbps in proptest::sample::select(vec![1u64, 10, 25, 100]),
        steps in steps_strategy(),
    ) {
        let rate = Bandwidth::from_gbps(rate_gbps);
        let (mut table, mut map) = (Hpcc::new(rate), MapHpcc::new(rate));
        let (mut now_ns, mut tx) = (0u64, [0u64; 16]);
        for (kind, dt_ns, hops) in steps {
            now_ns += dt_ns;
            if kind == 0 {
                table.on_timeout();
                map.on_timeout();
                prop_assert_eq!(table.window().to_bits(), map.window.to_bits());
                continue;
            }
            let hops = hops.into_iter().map(|(device_id, queue_bytes, step, skew, link)| {
                tx[device_id as usize] += step;
                IntHop {
                    device_id,
                    queue_bytes,
                    tx_bytes: tx[device_id as usize],
                    ts_ns: now_ns.saturating_add_signed(skew),
                    link_mbps: LINKS_MBPS[link as usize],
                }
            });
            let int = IntStack { hops: hops.collect() };
            let now = SimTime::from_nanos(now_ns);
            table.on_int_ack(now, &int);
            map.on_int_ack(now, &int);
            prop_assert_eq!(table.window().to_bits(), map.window.to_bits());
            prop_assert_eq!(table.last_utilization().to_bits(), map.last_u.to_bits());
        }
    }
}
