//! Topology partitioner for the sharded fleet engine.
//!
//! A fleet run splits a region into **shards**: pod-groups that each own a
//! private Clos slice (their ToRs, spines and a share of the DC
//! core/router tiers) and exchange traffic only through the inter-DC
//! router tier. The partitioner does not build one giant [`Topology`] and
//! cut it — each shard builds its own [`ClosConfig`] — but it fixes the
//! two facts the sharded executor needs to stay conservative:
//!
//! * how many compute/storage servers land in each shard (remainders go
//!   to the front shards, so shard populations differ by at most one),
//! * the **boundary latency**: the minimum one-way latency any packet
//!   needs to cross from one shard to another. A message leaving shard A
//!   during window `[W, W+w)` arrives at `B` no earlier than
//!   `W + boundary_latency`, so any window `w ≤ boundary_latency` makes
//!   an end-of-window mailbox exchange safe (no message can arrive
//!   inside the window it departed in).
//!
//! [`Topology`]: crate::Topology

use ebs_sim::SimDuration;

use crate::topology::ClosConfig;

/// One shard's share of the fleet: how many servers of each role it hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// Compute servers in this shard.
    pub computes: u32,
    /// Storage servers in this shard.
    pub storages: u32,
}

/// A fleet partitioning: per-shard server counts. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-shard slices, in shard order.
    pub shards: Vec<ShardSlice>,
}

impl ShardPlan {
    /// Split `computes` + `storages` servers across `n_shards` pod-group
    /// shards. `n_shards` is clamped to at least 1; empty shards are legal
    /// (they idle).
    pub fn partition(computes: u32, storages: u32, n_shards: u32) -> ShardPlan {
        let n = n_shards.max(1);
        let shards = (0..n)
            .map(|s| ShardSlice {
                computes: computes / n + u32::from(s < computes % n),
                storages: storages / n + u32::from(s < storages % n),
            })
            .collect();
        ShardPlan { shards }
    }

    /// The minimum one-way latency between servers in different shards:
    /// the path must ascend to this shard's core tier, transit the DC
    /// router, and descend the destination shard's core tier — two
    /// spine↔core hops and two core↔router hops beyond what any
    /// intra-shard path pays. Propagation only: queueing and
    /// serialization can only make the crossing later, which keeps the
    /// bound conservative.
    pub fn boundary_latency_of(link: &ClosConfig) -> SimDuration {
        (link.spine_core.delay + link.core_router.delay) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_conserves_totals_and_balances() {
        let plan = ShardPlan::partition(103, 31, 8);
        assert_eq!(plan.shards.len(), 8);
        assert_eq!(plan.shards.iter().map(|s| s.computes).sum::<u32>(), 103);
        assert_eq!(plan.shards.iter().map(|s| s.storages).sum::<u32>(), 31);
        let cmax = plan.shards.iter().map(|s| s.computes).max().unwrap();
        let cmin = plan.shards.iter().map(|s| s.computes).min().unwrap();
        assert!(cmax - cmin <= 1, "front-loaded remainder only");
    }

    #[test]
    fn boundary_latency_is_the_double_core_crossing() {
        let link = ClosConfig::testbed(2, 2, 4);
        // testbed(): spine_core 2µs, core_router 20µs → 2*(2+20) = 44µs.
        assert_eq!(
            ShardPlan::boundary_latency_of(&link),
            SimDuration::from_micros(44)
        );
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::partition(5, 3, 0);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(
            plan.shards[0],
            ShardSlice {
                computes: 5,
                storages: 3
            }
        );
    }
}
