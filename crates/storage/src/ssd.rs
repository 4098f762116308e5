//! SSD service-time model.
//!
//! Fig. 6's "SSD" component: chunk-server processing plus the physical
//! device. Writes land in the SSD's DRAM write cache without touching
//! NAND (tens of µs — the paper notes random writes are turned sequential
//! by the LSM tree and commit aggregation, footnote 1), while reads must
//! touch NAND (~60-90 µs for 4 KiB). Latencies are log-normal around those
//! medians; parallel NAND channels give the device internal concurrency.

use ebs_sim::{rng, FifoResource, SimDuration, SimTime};
use rand::rngs::SmallRng;

/// SSD model parameters.
#[derive(Debug, Clone, Copy)]
pub struct SsdConfig {
    /// Median write-cache latency for one 4 KiB block.
    pub write_cache_us: f64,
    /// Log-normal sigma for writes.
    pub write_sigma: f64,
    /// Median NAND read latency for one 4 KiB block.
    pub read_nand_us: f64,
    /// Log-normal sigma for reads.
    pub read_sigma: f64,
    /// Parallel channels (internal concurrency).
    pub channels: usize,
    /// Per-additional-block transfer cost within one request.
    pub per_block_us: f64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            write_cache_us: 14.0,
            write_sigma: 0.30,
            read_nand_us: 68.0,
            read_sigma: 0.35,
            channels: 8,
            per_block_us: 1.5,
        }
    }
}

/// One SSD (with its chunk-server processing folded in).
#[derive(Debug)]
pub struct Ssd {
    cfg: SsdConfig,
    /// `ln` of the write and read medians, the log-normal draws' `mu`.
    write_mu: f64,
    read_mu: f64,
    channels: FifoResource,
    rng: SmallRng,
    reads: u64,
    writes: u64,
}

impl Ssd {
    /// An SSD seeded deterministically per (seed, label).
    pub fn new(cfg: SsdConfig, seed: u64, label: &str) -> Self {
        Ssd {
            write_mu: cfg.write_cache_us.ln(),
            read_mu: cfg.read_nand_us.ln(),
            channels: FifoResource::new(cfg.channels),
            rng: rng::stream(seed, label),
            cfg,
            reads: 0,
            writes: 0,
        }
    }

    /// Service a write of `blocks` 4 KiB blocks submitted at `now`;
    /// returns completion time.
    pub fn write(&mut self, now: SimTime, blocks: usize) -> SimTime {
        self.writes += 1;
        self.serve(now, self.write_mu, self.cfg.write_sigma, blocks)
    }

    /// Service a read of `blocks` blocks; returns completion time.
    pub fn read(&mut self, now: SimTime, blocks: usize) -> SimTime {
        self.reads += 1;
        self.serve(now, self.read_mu, self.cfg.read_sigma, blocks)
    }

    /// One log-normal draw around `mu.exp()` µs plus the per-block
    /// transfer, admitted to the first free channel.
    fn serve(&mut self, now: SimTime, mu: f64, sigma: f64, blocks: usize) -> SimTime {
        let base = rng::lognormal(&mut self.rng, mu, sigma);
        let extra = self.cfg.per_block_us * blocks.saturating_sub(1) as f64;
        self.channels
            .admit(now, SimDuration::from_micros_f64(base + extra))
    }

    /// (reads, writes) served.
    pub fn ops(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_cache_fast_reads_touch_nand() {
        let mut ssd = Ssd::new(SsdConfig::default(), 1, "t");
        let n = 2000;
        let mut wsum = 0.0;
        let mut rsum = 0.0;
        for i in 0..n {
            // Spread arrivals so channel queueing doesn't bias the medians.
            let t = SimTime::from_millis(i as u64);
            wsum += (ssd.write(t, 1) - t).as_micros_f64();
            let t2 = t + SimDuration::from_micros(500);
            rsum += (ssd.read(t2, 1) - t2).as_micros_f64();
        }
        let wmean = wsum / n as f64;
        let rmean = rsum / n as f64;
        assert!((10.0..25.0).contains(&wmean), "write mean {wmean}us");
        assert!((55.0..110.0).contains(&rmean), "read mean {rmean}us");
        assert!(
            rmean > 3.0 * wmean,
            "reads are much slower than cached writes"
        );
    }

    #[test]
    fn multi_block_requests_cost_more() {
        let mut a = Ssd::new(SsdConfig::default(), 1, "a");
        let mut b = Ssd::new(SsdConfig::default(), 1, "a"); // same stream
        let t = SimTime::ZERO;
        let one = a.write(t, 1) - t;
        let sixteen = b.write(t, 16) - t;
        assert!(sixteen > one);
        assert!((sixteen - one).as_micros_f64() >= 15.0 * 1.4);
    }

    #[test]
    fn channels_give_concurrency() {
        let mut ssd = Ssd::new(SsdConfig::default(), 1, "c");
        let t = SimTime::ZERO;
        // 8 concurrent reads: all finish in one service time (8 channels);
        // the 9th queues.
        let mut finishes: Vec<SimTime> = (0..9).map(|_| ssd.read(t, 1)).collect();
        finishes.sort();
        let first8 = finishes[7] - t;
        let ninth = finishes[8] - t;
        assert!(ninth.as_micros_f64() > first8.as_micros_f64());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = Ssd::new(SsdConfig::default(), 42, "x");
        let mut b = Ssd::new(SsdConfig::default(), 42, "x");
        for i in 0..50 {
            let t = SimTime::from_micros(i * 1000);
            assert_eq!(a.write(t, 1), b.write(t, 1));
        }
    }
}
