//! Block servers, chunk servers and the backend network (BN).
//!
//! The storage-cluster substrate behind the FN (Fig. 1): a block server
//! receives per-segment RPCs from storage agents, writes three replicas
//! to chunk servers across the BN (RDMA since before LUNA — "The BN of
//! LUNA and SOLAR is RDMA", Fig. 6 caption), acknowledges once all
//! replicas are durable, and serves reads from a single replica.

use ebs_sim::{rng, Bandwidth, SimDuration, SimTime};
use rand::rngs::SmallRng;

use crate::ssd::{Ssd, SsdConfig};

/// Backend-network parameters (RDMA over a small intra-cluster fabric).
#[derive(Debug, Clone, Copy)]
pub struct BnConfig {
    /// One-way base latency (NIC + single-switch fabric).
    pub base_latency: SimDuration,
    /// Link rate for serialization.
    pub rate: Bandwidth,
    /// Log-normal jitter sigma on the base latency.
    pub jitter_sigma: f64,
}

impl Default for BnConfig {
    fn default() -> Self {
        BnConfig {
            base_latency: SimDuration::from_micros(4),
            rate: Bandwidth::from_gbps(100),
            jitter_sigma: 0.25,
        }
    }
}

/// Per-request latency breakdown reported by the storage cluster, feeding
/// Fig. 6's BN and SSD components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Time attributed to the backend network.
    pub bn: SimDuration,
    /// Time attributed to chunk-server processing + SSD.
    pub ssd: SimDuration,
}

/// Replication factor (the paper's "multiple (e.g., 3) copies").
pub const REPLICAS: usize = 3;

/// A storage server: one block server fronting `REPLICAS` chunk servers.
#[derive(Debug)]
pub struct StorageServer {
    bn: BnConfig,
    /// `ln` of the BN base latency in µs, the log-normal jitter's `mu`.
    bn_mu: f64,
    chunks: Vec<Ssd>,
    rng: SmallRng,
    writes: u64,
    reads: u64,
    /// Service-time multiplier (1.0 = healthy). A degraded block server
    /// models brown-out conditions — GC storms, a failing drive, BN
    /// congestion — without taking the server down: requests still
    /// complete, just slower.
    degrade: f64,
}

impl StorageServer {
    /// Build server `index` of a cluster with the given SSD/BN parameters.
    pub fn new(index: usize, ssd_cfg: SsdConfig, bn: BnConfig, seed: u64) -> Self {
        let chunks = (0..REPLICAS)
            .map(|r| Ssd::new(ssd_cfg, seed, &format!("storage-{index}-chunk-{r}")))
            .collect();
        StorageServer {
            bn_mu: bn.base_latency.as_micros_f64().ln(),
            bn,
            chunks,
            rng: rng::stream_indexed(seed, "storage-bn", index as u64),
            writes: 0,
            reads: 0,
            degrade: 1.0,
        }
    }

    /// Set the service-time multiplier: every request completing after
    /// this call takes `factor`× its modeled time (the slowdown is
    /// attributed to the SSD component). `1.0` restores healthy service;
    /// values below 1.0 are clamped to healthy.
    pub fn set_degrade(&mut self, factor: f64) {
        self.degrade = factor.max(1.0);
    }

    /// Stretch a request's completion by the degrade factor, charging the
    /// extra time to the SSD side of the breakdown.
    fn apply_degrade(
        &self,
        now: SimTime,
        done: SimTime,
        mut bd: StorageBreakdown,
    ) -> (SimTime, StorageBreakdown) {
        if self.degrade <= 1.0 {
            return (done, bd);
        }
        let extra = (done - now).mul_f64(self.degrade - 1.0);
        bd.ssd += extra;
        (done + extra, bd)
    }

    fn bn_oneway(&mut self, bytes: usize) -> SimDuration {
        let base = rng::lognormal(&mut self.rng, self.bn_mu, self.bn.jitter_sigma);
        SimDuration::from_micros_f64(base) + self.bn.rate.transmit_time(bytes)
    }

    /// Process a WRITE of `blocks` 4 KiB blocks arriving at the block
    /// server at `now`. Data fans out to all three chunk servers in
    /// parallel over the BN; the write is durable when the *last* replica
    /// has both arrived and been persisted. Returns (completion time,
    /// breakdown).
    pub fn write(&mut self, now: SimTime, blocks: usize) -> (SimTime, StorageBreakdown) {
        self.writes += 1;
        let bytes = blocks * 4096;
        let mut done = now;
        let mut max_bn = SimDuration::ZERO;
        for r in 0..REPLICAS {
            let bn_fwd = self.bn_oneway(bytes);
            let arrive = now + bn_fwd;
            let persisted = self.chunks[r].write(arrive, blocks);
            let bn_back = self.bn_oneway(64); // replica ack
            let replica_done = persisted + bn_back;
            max_bn = max_bn.max(bn_fwd + bn_back);
            done = done.max(replica_done);
        }
        let total = done - now;
        let bn = max_bn.min(total);
        self.apply_degrade(
            now,
            done,
            StorageBreakdown {
                bn,
                ssd: total - bn,
            },
        )
    }

    /// Process a READ of `blocks` blocks arriving at `now`: one replica
    /// serves it (round-robin by request count for load spreading).
    pub fn read(&mut self, now: SimTime, blocks: usize) -> (SimTime, StorageBreakdown) {
        self.reads += 1;
        let bytes = blocks * 4096;
        let replica = (self.reads as usize) % REPLICAS;
        let bn_fwd = self.bn_oneway(64); // read command
        let fetched = self.chunks[replica].read(now + bn_fwd, blocks);
        let bn_back = self.bn_oneway(bytes); // data returns
        let done = fetched + bn_back;
        let total = done - now;
        let bn = (bn_fwd + bn_back).min(total);
        self.apply_degrade(
            now,
            done,
            StorageBreakdown {
                bn,
                ssd: total - bn,
            },
        )
    }
}

impl ebs_obs::Sample for StorageServer {
    /// Component `storage`: per-block-server op counters (they accumulate
    /// across the cluster when every server samples into one registry).
    fn sample_into(&self, _now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("storage", "reads", self.reads);
        m.counter_add("storage", "writes", self.writes);
        if self.degrade > 1.0 {
            m.gauge_set("storage", "degrade_factor", self.degrade);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_stats::Histogram;

    fn server() -> StorageServer {
        StorageServer::new(0, SsdConfig::default(), BnConfig::default(), 7)
    }

    #[test]
    fn write_waits_for_all_replicas() {
        let mut s = server();
        let (done, bd) = s.write(SimTime::ZERO, 1);
        let total = (done - SimTime::ZERO).as_micros_f64();
        // BN (≈2×4-8us) + slowest of 3 cache writes (≈14-40us).
        assert!((15.0..200.0).contains(&total), "total {total}us");
        assert!(bd.bn > SimDuration::ZERO);
        assert!(bd.ssd > SimDuration::ZERO);
    }

    #[test]
    fn read_single_replica() {
        let mut s = server();
        let (done, bd) = s.read(SimTime::ZERO, 1);
        let total = (done - SimTime::ZERO).as_micros_f64();
        assert!((40.0..300.0).contains(&total), "total {total}us");
        assert!(bd.ssd > bd.bn, "NAND dominates a 4K read");
    }

    #[test]
    fn write_median_matches_paper_scale() {
        // Fig. 6c: the SSD component of a 4K write is a few tens of µs
        // (write cache), and BN is single-digit to low-tens µs.
        let mut s = server();
        let mut ssd_h = Histogram::new();
        let mut bn_h = Histogram::new();
        for i in 0..2000u64 {
            let t = SimTime::from_millis(i);
            let (_, bd) = s.write(t, 1);
            ssd_h.record_ns(bd.ssd.as_nanos());
            bn_h.record_ns(bd.bn.as_nanos());
        }
        let ssd_med = ssd_h.median() as f64 / 1000.0;
        let bn_med = bn_h.median() as f64 / 1000.0;
        assert!((12.0..45.0).contains(&ssd_med), "ssd median {ssd_med}us");
        assert!((5.0..40.0).contains(&bn_med), "bn median {bn_med}us");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut s = server();
        for i in 0..100u64 {
            let t = SimTime::from_millis(i);
            let (done, bd) = s.write(t, 4);
            assert_eq!((done - t).as_nanos(), (bd.bn + bd.ssd).as_nanos());
        }
    }

    #[test]
    fn degrade_stretches_service_and_heals() {
        let mut slow = server();
        let mut healthy = server();
        slow.set_degrade(4.0);
        let t = SimTime::from_millis(1);
        let (d_slow, bd_slow) = slow.write(t, 1);
        let (d_fast, bd_fast) = healthy.write(t, 1);
        // Identical seeds: the degraded run is exactly 4x the healthy one.
        assert_eq!((d_slow - t).as_nanos(), (d_fast - t).as_nanos() * 4);
        // The extra time is charged to the SSD component; BN is untouched.
        assert_eq!(bd_slow.bn, bd_fast.bn);
        assert!(bd_slow.ssd > bd_fast.ssd);
        assert_eq!(
            (d_slow - t).as_nanos(),
            (bd_slow.bn + bd_slow.ssd).as_nanos()
        );
        // Healing restores byte-identical service.
        slow.set_degrade(1.0);
        let (a, _) = slow.read(SimTime::from_millis(2), 1);
        let (b, _) = healthy.read(SimTime::from_millis(2), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn reads_rotate_replicas() {
        let mut s = server();
        for i in 0..30u64 {
            s.read(SimTime::from_millis(i), 1);
        }
        let loads: Vec<u64> = s.chunks.iter().map(|c| c.ops().0).collect();
        assert!(loads.iter().all(|&l| l == 10), "balanced: {loads:?}");
    }
}
