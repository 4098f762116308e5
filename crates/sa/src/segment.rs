//! The Segment Table — the core data structure of storage virtualization
//! (§2.2, Fig. 2): it maps a virtual disk's block addresses to data
//! segments on physical disks in specific block servers.

use ebs_sim::FxHashMap;

/// Where a contiguous run of a virtual disk's blocks physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Globally unique segment id.
    pub segment_id: u64,
    /// Index of the block server hosting the segment.
    pub block_server: u32,
    /// Block offset of the segment on the physical disk.
    pub physical_block: u64,
}

/// Errors from the segment table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// The virtual disk is not provisioned.
    UnknownDisk,
    /// The block address is beyond the disk's provisioned size.
    OutOfRange,
}

impl core::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SegmentError::UnknownDisk => write!(f, "unknown virtual disk"),
            SegmentError::OutOfRange => write!(f, "block address out of range"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// The segment table of one storage agent.
///
/// Segments are large (2 MiB = 512 × 4 KiB blocks, §4.5) and contiguous in
/// LBA space precisely so that most small I/Os fall inside a single
/// segment and need no splitting.
#[derive(Debug, Clone)]
pub struct SegmentTable {
    segment_blocks: u64,
    disks: FxHashMap<u64, Vec<SegmentEntry>>,
    next_segment_id: u64,
}

/// Default segment size: 2 MiB in 4 KiB blocks.
pub const SEGMENT_BLOCKS: u64 = 512;

impl SegmentTable {
    /// An empty table with the given segment size in blocks.
    ///
    /// # Panics
    /// Panics if `segment_blocks` is zero.
    pub fn new(segment_blocks: u64) -> Self {
        assert!(segment_blocks > 0);
        SegmentTable {
            segment_blocks,
            disks: FxHashMap::default(),
            next_segment_id: 1,
        }
    }

    /// Segment size in blocks.
    pub fn segment_blocks(&self) -> u64 {
        self.segment_blocks
    }

    /// Provision a virtual disk of `size_blocks`, placing each segment on
    /// the block server chosen by `place(segment_index)` (the management
    /// plane's placement policy).
    pub fn provision(&mut self, vd_id: u64, size_blocks: u64, mut place: impl FnMut(u64) -> u32) {
        let n_segs = size_blocks.div_ceil(self.segment_blocks);
        let entries = (0..n_segs)
            .map(|i| {
                let id = self.next_segment_id;
                self.next_segment_id += 1;
                SegmentEntry {
                    segment_id: id,
                    block_server: place(i),
                    physical_block: i * self.segment_blocks,
                }
            })
            .collect();
        self.disks.insert(vd_id, entries);
    }

    /// Provisioned size of a disk in blocks (0 if unknown).
    pub fn disk_blocks(&self, vd_id: u64) -> u64 {
        self.disks
            .get(&vd_id)
            .map(|v| v.len() as u64 * self.segment_blocks)
            .unwrap_or(0)
    }

    /// Look up the segment holding `block_addr` of `vd_id`.
    pub fn lookup(&self, vd_id: u64, block_addr: u64) -> Result<SegmentEntry, SegmentError> {
        let segs = self.disks.get(&vd_id).ok_or(SegmentError::UnknownDisk)?;
        let idx = (block_addr / self.segment_blocks) as usize;
        segs.get(idx).copied().ok_or(SegmentError::OutOfRange)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provision_and_lookup() {
        let mut t = SegmentTable::new(SEGMENT_BLOCKS);
        t.provision(1, 2048, |seg| (seg % 3) as u32); // 4 segments over 3 servers
        assert_eq!(t.disk_blocks(1), 2048);
        assert!(t.lookup(1, 2047).is_ok(), "4 segments cover 2048 blocks");
        let e0 = t.lookup(1, 0).unwrap();
        let e1 = t.lookup(1, 511).unwrap();
        assert_eq!(e0.segment_id, e1.segment_id, "same segment");
        let e2 = t.lookup(1, 512).unwrap();
        assert_ne!(e0.segment_id, e2.segment_id);
        assert_eq!(e2.block_server, 1);
    }

    #[test]
    fn unknown_disk_errors() {
        let t = SegmentTable::new(SEGMENT_BLOCKS);
        assert_eq!(t.lookup(9, 0), Err(SegmentError::UnknownDisk));
    }

    #[test]
    fn out_of_range_errors() {
        let mut t = SegmentTable::new(SEGMENT_BLOCKS);
        t.provision(1, 512, |_| 0);
        assert!(t.lookup(1, 511).is_ok());
        assert_eq!(t.lookup(1, 512), Err(SegmentError::OutOfRange));
    }

    #[test]
    fn ragged_last_segment() {
        let mut t = SegmentTable::new(SEGMENT_BLOCKS);
        t.provision(1, 700, |_| 0); // 2 segments, second partial
        assert_eq!(t.disk_blocks(1), 2 * SEGMENT_BLOCKS);
        assert!(t.lookup(1, 699).is_ok());
    }

    #[test]
    fn segment_ids_unique_across_disks() {
        let mut t = SegmentTable::new(64);
        t.provision(1, 128, |_| 0);
        t.provision(2, 128, |_| 1);
        let a = t.lookup(1, 0).unwrap().segment_id;
        let b = t.lookup(2, 0).unwrap().segment_id;
        assert_ne!(a, b);
    }
}
