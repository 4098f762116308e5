//! Block-frontend wire formats: feature bits, completion statuses and
//! the storage-function pushdown frame.
//!
//! The guest-facing edge of the stack is a multi-queue block device in
//! the virtio-blk mold (FlexBSO's vhost-user target has the same shape).
//! `ebs-blk` implements its split-ring state machine over in-memory
//! request values; the ring has no byte layout here because no host
//! encodes one.
//!
//! [`PushdownHdr`] is the frame a pushed-down storage function travels
//! in: one self-contained request (or response) naming the function, its
//! block range, the predicate, and — on the response — the result size
//! and the aggregate CRC of the transformed data. Like the EBS header,
//! it is fixed-size and self-describing so a DPU pipeline stage can
//! parse it without reassembly state.

use bytes::{Buf, BufMut};

use crate::WireError;

// --- feature bits ----------------------------------------------------------

/// Feature bit: the device supports more than one request queue.
pub const BLK_F_MQ: u64 = 1 << 0;
/// Feature bit: the device enforces a maximum segment count per request
/// (mirrors VIRTIO_BLK_F_SEG_MAX).
pub const BLK_F_SEG_MAX: u64 = 1 << 1;
/// Feature bit: FLUSH requests are supported.
pub const BLK_F_FLUSH: u64 = 1 << 2;
/// Feature bit: DISCARD requests are supported.
pub const BLK_F_DISCARD: u64 = 1 << 3;
/// Feature bit: storage-function pushdown (range scan / checksum-verify /
/// compaction merge) may be requested with [`PushdownHdr`] frames.
pub const BLK_F_PUSHDOWN: u64 = 1 << 4;
/// Feature bit: pushdown may additionally be placed on the storage-side
/// DPU's match-action pipeline (requires [`BLK_F_PUSHDOWN`]).
pub const BLK_F_PUSHDOWN_DPU: u64 = 1 << 5;

/// Every feature bit this protocol version defines. Negotiation MUST
/// reject a driver that acknowledges any bit outside this mask.
pub const BLK_KNOWN_FEATURES: u64 =
    BLK_F_MQ | BLK_F_SEG_MAX | BLK_F_FLUSH | BLK_F_DISCARD | BLK_F_PUSHDOWN | BLK_F_PUSHDOWN_DPU;

// --- completion statuses -------------------------------------------------

/// Completion status: success.
pub const BLK_S_OK: u8 = 0;
/// Completion status: device-side I/O error.
pub const BLK_S_IOERR: u8 = 1;
/// Completion status: request type unsupported (feature not negotiated).
pub const BLK_S_UNSUPP: u8 = 2;
/// Completion status: the transformed result failed its CRC verification.
pub const BLK_S_BADCRC: u8 = 3;

// --- pushdown frame --------------------------------------------------------

/// Pushdown function selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PushdownOp {
    /// Return only the blocks matching the predicate.
    RangeScan = 1,
    /// Return no data; only the aggregate CRC of the range.
    ChecksumVerify = 2,
    /// XOR-fold each group of `group_k` blocks into one output block.
    CompactionMerge = 3,
}

impl PushdownOp {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => PushdownOp::RangeScan,
            2 => PushdownOp::ChecksumVerify,
            3 => PushdownOp::CompactionMerge,
            _ => return Err(WireError::Malformed),
        })
    }
}

/// Where a pushdown executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PushdownPlacement {
    /// Baseline: the client reads the whole range and filters locally.
    Client = 0,
    /// The storage node's host CPU runs the function next to the SSD.
    StorageNode = 1,
    /// A metered stage in the storage-side DPU's match-action pipeline.
    Dpu = 2,
}

impl PushdownPlacement {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => PushdownPlacement::Client,
            1 => PushdownPlacement::StorageNode,
            2 => PushdownPlacement::Dpu,
            _ => return Err(WireError::Malformed),
        })
    }

    /// Stable lowercase label (metrics keys, journal span names).
    pub fn label(self) -> &'static str {
        match self {
            PushdownPlacement::Client => "client",
            PushdownPlacement::StorageNode => "storage",
            PushdownPlacement::Dpu => "dpu",
        }
    }
}

/// Pushdown header flag: this frame is a response.
pub const PD_FLAG_RESPONSE: u8 = 0x01;
/// Pushdown header flag: this frame is a retransmission.
pub const PD_FLAG_RETRANSMIT: u8 = 0x02;

/// The storage-function pushdown frame (fixed 48 bytes on the wire).
///
/// A request carries the function, predicate and block range; the
/// response reuses the same header with [`PD_FLAG_RESPONSE`] set,
/// `blocks_out` filled in, and `result_crc` holding the aggregate raw
/// CRC32 of the transformed result (see `docs/PROTOCOL.md` §7 for the
/// CRC-of-transformed-data rule). Responses to a RangeScan are followed
/// by `blocks_out` 4 KiB data blocks; ChecksumVerify and the merge ops
/// size their payloads the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushdownHdr {
    /// Protocol version (currently 1).
    pub version: u8,
    /// Function selector.
    pub op: PushdownOp,
    /// Execution placement.
    pub placement: PushdownPlacement,
    /// Flag bits ([`PD_FLAG_RESPONSE`], [`PD_FLAG_RETRANSMIT`]).
    pub flags: u8,
    /// Request id, unique per (compute server, in-flight pushdown).
    pub req_id: u64,
    /// Virtual disk id.
    pub vd_id: u64,
    /// First block of the scanned range (4 KiB-block units).
    pub first_block: u64,
    /// Blocks in the scanned range.
    pub block_count: u32,
    /// Predicate: byte offset within the block to test.
    pub pred_offset: u16,
    /// Predicate: mask applied to the tested byte.
    pub pred_mask: u8,
    /// Predicate: value compared against the masked byte.
    pub pred_value: u8,
    /// CompactionMerge group size (blocks folded per output block; 0 for
    /// the other ops).
    pub group_k: u8,
    /// Response status ([`BLK_S_OK`], ...; 0 on requests).
    pub status: u8,
    /// Part index when the range split across storage servers.
    pub part: u16,
    /// Blocks in the response payload (0 on requests).
    pub blocks_out: u32,
    /// Aggregate raw CRC32 of the transformed result (0 on requests).
    pub result_crc: u32,
}

impl PushdownHdr {
    /// Encoded size.
    pub const LEN: usize = 48;
    /// Current protocol version.
    pub const VERSION: u8 = 1;

    /// Encode into `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.version);
        buf.put_u8(self.op as u8);
        buf.put_u8(self.placement as u8);
        buf.put_u8(self.flags);
        buf.put_u64(self.req_id);
        buf.put_u64(self.vd_id);
        buf.put_u64(self.first_block);
        buf.put_u32(self.block_count);
        buf.put_u16(self.pred_offset);
        buf.put_u8(self.pred_mask);
        buf.put_u8(self.pred_value);
        buf.put_u8(self.group_k);
        buf.put_u8(self.status);
        buf.put_u16(self.part);
        buf.put_u32(self.blocks_out);
        buf.put_u32(self.result_crc);
    }

    /// Decode from `buf`.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let version = buf.get_u8();
        if version != Self::VERSION {
            return Err(WireError::Malformed);
        }
        let op = PushdownOp::from_u8(buf.get_u8())?;
        let placement = PushdownPlacement::from_u8(buf.get_u8())?;
        let flags = buf.get_u8();
        Ok(PushdownHdr {
            version,
            op,
            placement,
            flags,
            req_id: buf.get_u64(),
            vd_id: buf.get_u64(),
            first_block: buf.get_u64(),
            block_count: buf.get_u32(),
            pred_offset: buf.get_u16(),
            pred_mask: buf.get_u8(),
            pred_value: buf.get_u8(),
            group_k: buf.get_u8(),
            status: buf.get_u8(),
            part: buf.get_u16(),
            blocks_out: buf.get_u32(),
            result_crc: buf.get_u32(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample_pd() -> PushdownHdr {
        PushdownHdr {
            version: 1,
            op: PushdownOp::RangeScan,
            placement: PushdownPlacement::StorageNode,
            flags: 0,
            req_id: 0xFEED_F00D,
            vd_id: 3,
            first_block: 1024,
            block_count: 256,
            pred_offset: 17,
            pred_mask: 0x07,
            pred_value: 0x05,
            group_k: 0,
            status: 0,
            part: 2,
            blocks_out: 0,
            result_crc: 0,
        }
    }

    #[test]
    fn pushdown_roundtrip() {
        let h = sample_pd();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), PushdownHdr::LEN);
        assert_eq!(PushdownHdr::decode(&mut buf.freeze()).unwrap(), h);
    }

    #[test]
    fn pushdown_response_roundtrip() {
        let mut h = sample_pd();
        h.op = PushdownOp::CompactionMerge;
        h.placement = PushdownPlacement::Dpu;
        h.flags = PD_FLAG_RESPONSE;
        h.group_k = 4;
        h.blocks_out = 64;
        h.result_crc = 0xDEAD_BEEF;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(PushdownHdr::decode(&mut buf.freeze()).unwrap(), h);
    }

    #[test]
    fn pushdown_rejects_bad_version_op_placement() {
        let h = sample_pd();
        for (byte, bad) in [(0usize, 9u8), (1, 0), (2, 7)] {
            let mut buf = BytesMut::new();
            h.encode(&mut buf);
            buf[byte] = bad;
            assert_eq!(
                PushdownHdr::decode(&mut buf.freeze()),
                Err(WireError::Malformed),
                "byte {byte} = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn pushdown_rejects_truncation() {
        let mut buf = BytesMut::new();
        sample_pd().encode(&mut buf);
        let short = buf.freeze().slice(..PushdownHdr::LEN - 1);
        assert_eq!(
            PushdownHdr::decode(&mut &short[..]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn known_features_is_exactly_the_defined_bits() {
        assert_eq!(
            BLK_KNOWN_FEATURES,
            BLK_F_MQ
                | BLK_F_SEG_MAX
                | BLK_F_FLUSH
                | BLK_F_DISCARD
                | BLK_F_PUSHDOWN
                | BLK_F_PUSHDOWN_DPU
        );
        // Six contiguous low bits — negotiation masks against this.
        assert_eq!(BLK_KNOWN_FEATURES, 0x3F);
    }

    #[test]
    fn pushdown_request_fits_well_under_one_jumbo_frame() {
        // A pushdown request is one small self-contained frame — the whole
        // point of the placement comparison is that *requests* are cheap
        // and only results move.
        let frame = PushdownHdr::LEN + crate::SOLAR_OVERHEAD;
        assert!(frame < 1500, "pushdown request frame is {frame} bytes");
    }
}
