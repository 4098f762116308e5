//! # ebs-blk — the virtio-blk-shaped guest frontend
//!
//! The compute-to-storage path the paper describes terminates in a block
//! device the guest sees. This crate is that device, shaped like
//! virtio-blk's split ring (FlexBSO exposes the same surface through
//! vhost-user): a [`VirtQueue`] holds a descriptor table, a driver-owned
//! available ring and a device-owned used ring, all sized to a power of
//! two and indexed by free-running 16-bit counters. Multiple queues per
//! device ([`BlkDevice`]) give each vCPU its own submission path.
//!
//! Everything here is **sans-io and time-free**: the ring is a pure state
//! machine over [`BlkReq`] values, the host (`ebs-stack`'s `Testbed`)
//! decides when submissions are popped and completions pushed, and the
//! same crate drives the chaos runner and the placement bench without a
//! single clock read.
//!
//! On top of the ring sits the **pushdown layer** ([`pushdown`]): a small
//! closed enum of storage functions — range scan with a byte predicate,
//! checksum-verify, compaction merge — that can execute at the client
//! (baseline), on the storage node, or as a metered DPU pipeline stage.
//! The transformed result carries an aggregate CRC derived from the
//! source blocks' raw CRCs so the client can verify data it never read
//! in full (`docs/PROTOCOL.md` §7).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod pushdown;
mod queue;

pub use pushdown::{execute, matches, synth_block, Predicate, PushdownResult, StorageFn};
pub use queue::{BlkReq, Completion, ReqKind, RingFull, VirtQueue};

use ebs_wire::{BLK_F_MQ, BLK_F_PUSHDOWN, BLK_F_PUSHDOWN_DPU, BLK_KNOWN_FEATURES};

/// Device-side static configuration offered to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Queues the device exposes (≥ 2 requires [`BLK_F_MQ`]).
    pub num_queues: u16,
    /// Descriptors per queue; must be a power of two.
    pub queue_depth: u16,
    /// Feature bits the device offers (subset of [`BLK_KNOWN_FEATURES`]).
    pub features: u64,
}

/// Why feature negotiation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureError {
    /// The driver acknowledged a bit outside [`BLK_KNOWN_FEATURES`].
    UnknownBits(u64),
    /// The driver acknowledged a bit the device did not offer.
    NotOffered(u64),
    /// The driver wants multiple queues without acknowledging [`BLK_F_MQ`].
    QueueCountWithoutMq,
    /// [`BLK_F_PUSHDOWN_DPU`] requires [`BLK_F_PUSHDOWN`].
    DpuWithoutPushdown,
    /// `queue_depth` is zero or not a power of two.
    BadQueueDepth,
}

impl core::fmt::Display for FeatureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FeatureError::UnknownBits(b) => write!(f, "unknown feature bits {b:#x}"),
            FeatureError::NotOffered(b) => write!(f, "feature bits {b:#x} not offered"),
            FeatureError::QueueCountWithoutMq => write!(f, "multi-queue without BLK_F_MQ"),
            FeatureError::DpuWithoutPushdown => {
                write!(f, "BLK_F_PUSHDOWN_DPU without BLK_F_PUSHDOWN")
            }
            FeatureError::BadQueueDepth => write!(f, "queue depth must be a nonzero power of two"),
        }
    }
}

/// Negotiate features: the driver acknowledges `driver_ack`, the device
/// offered `cfg.features`. Returns the agreed feature set.
///
/// Rejection cases mirror the virtio spec's FEATURES_OK dance: unknown
/// bits, bits not offered, and dependent bits without their prerequisite
/// all fail negotiation instead of being silently masked — a driver that
/// asks for something the device cannot honour must find out now, not at
/// I/O time.
pub fn negotiate(cfg: &DeviceConfig, driver_ack: u64) -> Result<u64, FeatureError> {
    if cfg.queue_depth == 0 || !cfg.queue_depth.is_power_of_two() {
        return Err(FeatureError::BadQueueDepth);
    }
    let unknown = driver_ack & !BLK_KNOWN_FEATURES;
    if unknown != 0 {
        return Err(FeatureError::UnknownBits(unknown));
    }
    let not_offered = driver_ack & !cfg.features;
    if not_offered != 0 {
        return Err(FeatureError::NotOffered(not_offered));
    }
    if cfg.num_queues > 1 && driver_ack & BLK_F_MQ == 0 {
        return Err(FeatureError::QueueCountWithoutMq);
    }
    if driver_ack & BLK_F_PUSHDOWN_DPU != 0 && driver_ack & BLK_F_PUSHDOWN == 0 {
        return Err(FeatureError::DpuWithoutPushdown);
    }
    Ok(driver_ack)
}

/// A mounted multi-queue block device: the negotiated feature set plus
/// one [`VirtQueue`] per queue.
#[derive(Debug)]
pub struct BlkDevice {
    features: u64,
    queues: Vec<VirtQueue>,
}

impl BlkDevice {
    /// Negotiate against `cfg` and build the device's queues.
    pub fn mount(cfg: &DeviceConfig, driver_ack: u64) -> Result<Self, FeatureError> {
        let features = negotiate(cfg, driver_ack)?;
        let n = if features & BLK_F_MQ != 0 {
            cfg.num_queues.max(1)
        } else {
            1
        };
        let queues = (0..n).map(|_| VirtQueue::new(cfg.queue_depth)).collect();
        Ok(BlkDevice { features, queues })
    }

    /// The negotiated feature bits.
    pub fn features(&self) -> u64 {
        self.features
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Borrow queue `q` mutably (None when out of range).
    pub fn queue_mut(&mut self, q: usize) -> Option<&mut VirtQueue> {
        self.queues.get_mut(q)
    }

    /// Borrow queue `q` (None when out of range).
    pub fn queue(&self, q: usize) -> Option<&VirtQueue> {
        self.queues.get(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_wire::{BLK_F_DISCARD, BLK_F_FLUSH, BLK_F_SEG_MAX};

    fn cfg() -> DeviceConfig {
        DeviceConfig {
            num_queues: 4,
            queue_depth: 64,
            features: BLK_KNOWN_FEATURES,
        }
    }

    #[test]
    fn negotiation_accepts_known_subset() {
        let ack = BLK_F_MQ | BLK_F_FLUSH | BLK_F_PUSHDOWN;
        assert_eq!(negotiate(&cfg(), ack), Ok(ack));
    }

    #[test]
    fn negotiation_rejects_unknown_bits() {
        let ack = BLK_F_MQ | (1 << 40);
        assert_eq!(
            negotiate(&cfg(), ack),
            Err(FeatureError::UnknownBits(1 << 40))
        );
    }

    #[test]
    fn negotiation_rejects_unoffered_bits() {
        let mut c = cfg();
        c.features = BLK_F_MQ | BLK_F_FLUSH;
        assert_eq!(
            negotiate(&c, BLK_F_MQ | BLK_F_DISCARD),
            Err(FeatureError::NotOffered(BLK_F_DISCARD))
        );
    }

    #[test]
    fn negotiation_rejects_mq_shape_without_mq_bit() {
        assert_eq!(
            negotiate(&cfg(), BLK_F_FLUSH),
            Err(FeatureError::QueueCountWithoutMq)
        );
    }

    #[test]
    fn negotiation_rejects_dpu_without_pushdown() {
        assert_eq!(
            negotiate(&cfg(), BLK_F_MQ | BLK_F_PUSHDOWN_DPU),
            Err(FeatureError::DpuWithoutPushdown)
        );
    }

    #[test]
    fn negotiation_rejects_non_power_of_two_depth() {
        let mut c = cfg();
        c.queue_depth = 48;
        assert_eq!(negotiate(&c, BLK_F_MQ), Err(FeatureError::BadQueueDepth));
    }

    #[test]
    fn mount_without_mq_collapses_to_one_queue() {
        let mut c = cfg();
        c.num_queues = 1;
        let dev = BlkDevice::mount(&c, BLK_F_SEG_MAX).unwrap();
        assert_eq!(dev.num_queues(), 1);
        let dev = BlkDevice::mount(&cfg(), BLK_F_MQ).unwrap();
        assert_eq!(dev.num_queues(), 4);
    }
}
