//! I/O splitting: carve a guest I/O into per-block-server sub-I/Os.
//!
//! All SA data-plane operations are per-block (§2.2): an I/O is decomposed
//! into 4 KiB blocks, grouped into one sub-I/O per (segment, block server)
//! run. Because segments are 2 MiB and guest I/Os are small (Fig. 5), the
//! vast majority of I/Os produce exactly one sub-I/O (§4.5 notes the
//! splitting chance is deliberately low).

use crate::segment::{SegmentError, SegmentTable};

/// Direction of an I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Guest write.
    Write,
    /// Guest read.
    Read,
}

/// A guest I/O request as it arrives from the NVMe queue pair.
#[derive(Debug, Clone, Copy)]
pub struct IoRequest {
    /// Virtual disk.
    pub vd_id: u64,
    /// Read or write.
    pub kind: IoKind,
    /// Byte offset on the disk (must be block-aligned).
    pub offset: u64,
    /// Byte length (must be a multiple of the block size).
    pub len: u32,
}

/// One sub-I/O: a run of blocks within a single segment, headed to one
/// block server as one RPC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubIo {
    /// Destination block server.
    pub block_server: u32,
    /// Segment the blocks live in.
    pub segment_id: u64,
    /// Virtual-disk block addresses, consecutive.
    pub blocks: Vec<u64>,
}

/// Split errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitError {
    /// Offset or length not 4 KiB-aligned.
    Misaligned,
    /// Zero-length I/O.
    Empty,
    /// Segment lookup failed.
    Segment(SegmentError),
}

impl core::fmt::Display for SplitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SplitError::Misaligned => write!(f, "offset/len not block aligned"),
            SplitError::Empty => write!(f, "zero-length I/O"),
            SplitError::Segment(e) => write!(f, "segment lookup: {e}"),
        }
    }
}

impl std::error::Error for SplitError {}

/// Split `req` into per-segment sub-I/Os using `table`.
pub fn split_io(
    table: &SegmentTable,
    req: &IoRequest,
    block_size: u32,
) -> Result<Vec<SubIo>, SplitError> {
    if req.len == 0 {
        return Err(SplitError::Empty);
    }
    if !req.offset.is_multiple_of(block_size as u64) || !req.len.is_multiple_of(block_size) {
        return Err(SplitError::Misaligned);
    }
    split_range(
        table,
        req.vd_id,
        req.offset / block_size as u64,
        req.len / block_size,
    )
}

/// Split a raw block range into per-segment sub-I/Os — the pushdown
/// path's entry point, where the request arrives as `(first_block,
/// count)` instead of a byte extent. Each [`SubIo`] becomes one pushdown
/// part executed on its owning block server (or that server's DPU).
pub fn split_range(
    table: &SegmentTable,
    vd_id: u64,
    first_block: u64,
    count: u32,
) -> Result<Vec<SubIo>, SplitError> {
    if count == 0 {
        return Err(SplitError::Empty);
    }
    let end = first_block + count as u64;
    let seg_blocks = table.segment_blocks();
    let mut out: Vec<SubIo> = Vec::with_capacity(1);
    let mut b = first_block;
    // One sub-I/O per segment run: it ends at the I/O's end or the
    // segment's, whichever comes first.
    while b < end {
        let entry = table.lookup(vd_id, b).map_err(SplitError::Segment)?;
        let run = (end - b).min(seg_blocks - b % seg_blocks);
        out.push(SubIo {
            block_server: entry.block_server,
            segment_id: entry.segment_id,
            blocks: (b..b + run).collect(),
        });
        b += run;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SEGMENT_BLOCKS;

    const BS: u32 = 4096;

    fn table() -> SegmentTable {
        let mut t = SegmentTable::new(SEGMENT_BLOCKS);
        t.provision(1, 4 * SEGMENT_BLOCKS, |seg| (seg % 2) as u32);
        t
    }

    #[test]
    fn small_io_single_subio() {
        let t = table();
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Write,
            offset: 0,
            len: 16 * 1024, // 4 blocks
        };
        let subs = split_io(&t, &req, BS).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].blocks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn io_across_segment_boundary_splits() {
        let t = table();
        // Start 2 blocks before the end of segment 0.
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Write,
            offset: (SEGMENT_BLOCKS - 2) * BS as u64,
            len: 4 * BS,
        };
        let subs = split_io(&t, &req, BS).unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].blocks.len(), 2);
        assert_eq!(subs[1].blocks.len(), 2);
        assert_ne!(subs[0].segment_id, subs[1].segment_id);
        assert_ne!(subs[0].block_server, subs[1].block_server);
        for sub in &subs {
            assert_eq!(sub.blocks.capacity(), sub.blocks.len(), "sized up front");
        }
    }

    #[test]
    fn splitting_is_rare_for_small_ios() {
        // The design claim (§4.5): with 2 MiB segments and 16 KiB I/Os at
        // random aligned offsets, < 1% of I/Os split.
        let t = table();
        let total = 1000;
        let mut split_count = 0;
        for i in 0..total {
            let offset = ((i * 37) % (4 * SEGMENT_BLOCKS - 4)) * BS as u64;
            let req = IoRequest {
                vd_id: 1,
                kind: IoKind::Read,
                offset,
                len: 4 * BS,
            };
            if split_io(&t, &req, BS).unwrap().len() > 1 {
                split_count += 1;
            }
        }
        assert!(split_count * 100 < total, "{split_count}/{total} split");
    }

    #[test]
    fn rejects_misaligned() {
        let t = table();
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Write,
            offset: 100,
            len: BS,
        };
        assert_eq!(split_io(&t, &req, BS), Err(SplitError::Misaligned));
    }

    #[test]
    fn rejects_empty() {
        let t = table();
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Write,
            offset: 0,
            len: 0,
        };
        assert_eq!(split_io(&t, &req, BS), Err(SplitError::Empty));
    }

    #[test]
    fn rejects_out_of_range() {
        let t = table();
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Read,
            offset: 4 * SEGMENT_BLOCKS * BS as u64,
            len: BS,
        };
        assert!(matches!(
            split_io(&t, &req, BS),
            Err(SplitError::Segment(SegmentError::OutOfRange))
        ));
    }

    #[test]
    fn split_range_matches_split_io_on_the_same_extent() {
        let t = table();
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Read,
            offset: (SEGMENT_BLOCKS - 2) * BS as u64,
            len: 6 * BS,
        };
        let via_io = split_io(&t, &req, BS).unwrap();
        let via_range = split_range(&t, 1, SEGMENT_BLOCKS - 2, 6).unwrap();
        assert_eq!(via_io, via_range);
        assert_eq!(via_range.len(), 2);
    }

    #[test]
    fn split_range_rejects_empty_and_out_of_range() {
        let t = table();
        assert_eq!(split_range(&t, 1, 0, 0), Err(SplitError::Empty));
        assert!(matches!(
            split_range(&t, 1, 4 * SEGMENT_BLOCKS, 1),
            Err(SplitError::Segment(SegmentError::OutOfRange))
        ));
    }

    #[test]
    fn large_io_block_lists_are_exact() {
        let t = table();
        let req = IoRequest {
            vd_id: 1,
            kind: IoKind::Write,
            offset: 0,
            len: (2 * SEGMENT_BLOCKS) as u32 * BS, // spans 2 full segments
        };
        let subs = split_io(&t, &req, BS).unwrap();
        assert_eq!(subs.len(), 2);
        let total: usize = subs.iter().map(|s| s.blocks.len()).sum();
        assert_eq!(total as u64, 2 * SEGMENT_BLOCKS);
    }
}
