//! Block-frontend wire formats: the virtio-blk-shaped ring structures and
//! the storage-function pushdown frame.
//!
//! The guest-facing edge of the stack is a multi-queue block device in
//! the virtio-blk mold (FlexBSO's vhost-user target has the same shape):
//! a descriptor table of fixed 16-byte descriptors, a driver-owned
//! *available* ring of descriptor indices and a device-owned *used* ring
//! of completion records, all indexed by free-running 16-bit counters
//! masked by the (power-of-two) queue capacity. [`BlkDesc`], [`BlkReqHdr`]
//! and [`BlkUsedElem`] are those structures' byte layouts; `ebs-blk`
//! implements the ring state machine on top of them.
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
/// (negotiated via [`BlkDesc::len`] limits; mirrors VIRTIO_BLK_F_SEG_MAX).
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

// --- descriptor ------------------------------------------------------------

/// Descriptor flag: the device writes this buffer (read data / result).
pub const DESC_F_DEV_WRITE: u16 = 0x0002;

/// One ring descriptor (fixed 16 bytes, virtio split-ring layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkDesc {
    /// Block address the buffer maps (4 KiB-block units on the virtual
    /// disk; the simulator carries addresses, not guest physical memory).
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
    /// Flag bits ([`DESC_F_DEV_WRITE`]).
    pub flags: u16,
    /// Next free descriptor when chained on the free list (ring-internal).
    pub next: u16,
}

impl BlkDesc {
    /// Encoded size.
    pub const LEN: usize = 16;

    /// Encode into `buf` (big-endian, like every EBS header field).
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.addr);
        buf.put_u32(self.len);
        buf.put_u16(self.flags);
        buf.put_u16(self.next);
    }

    /// Decode from `buf`.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated);
        }
        Ok(BlkDesc {
            addr: buf.get_u64(),
            len: buf.get_u32(),
            flags: buf.get_u16(),
            next: buf.get_u16(),
        })
    }
}

// --- request header --------------------------------------------------------

/// Request type carried in a [`BlkReqHdr`] (virtio-blk numbering, plus a
/// vendor range for pushdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum BlkReqType {
    /// Device-to-driver data transfer (guest read).
    In = 0,
    /// Driver-to-device data transfer (guest write).
    Out = 1,
    /// Write-back cache flush.
    Flush = 4,
    /// Discard a block range.
    Discard = 11,
    /// Storage-function pushdown; the request's data descriptor carries a
    /// [`PushdownHdr`].
    Pushdown = 64,
}

impl BlkReqType {
    fn from_u32(v: u32) -> Result<Self, WireError> {
        Ok(match v {
            0 => BlkReqType::In,
            1 => BlkReqType::Out,
            4 => BlkReqType::Flush,
            11 => BlkReqType::Discard,
            64 => BlkReqType::Pushdown,
            _ => return Err(WireError::Malformed),
        })
    }
}

/// The fixed 16-byte request header at the head of every ring request
/// (virtio-blk's `struct virtio_blk_req` prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkReqHdr {
    /// Request type.
    pub ty: BlkReqType,
    /// Reserved (virtio's `ioprio`); must be zero.
    pub reserved: u32,
    /// First block address (4 KiB-block units; virtio's `sector` rescaled
    /// to the EBS block size so one descriptor is one block).
    pub block: u64,
}

impl BlkReqHdr {
    /// Encoded size.
    pub const LEN: usize = 16;

    /// Encode into `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.ty as u32);
        buf.put_u32(self.reserved);
        buf.put_u64(self.block);
    }

    /// Decode from `buf`.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let ty = BlkReqType::from_u32(buf.get_u32())?;
        let reserved = buf.get_u32();
        if reserved != 0 {
            return Err(WireError::Malformed);
        }
        Ok(BlkReqHdr {
            ty,
            reserved,
            block: buf.get_u64(),
        })
    }
}

// --- used element ----------------------------------------------------------

/// Completion status: success.
pub const BLK_S_OK: u8 = 0;
/// Completion status: device-side I/O error.
pub const BLK_S_IOERR: u8 = 1;
/// Completion status: request type unsupported (feature not negotiated).
pub const BLK_S_UNSUPP: u8 = 2;
/// Completion status: the transformed result failed its CRC verification.
pub const BLK_S_BADCRC: u8 = 3;

/// One used-ring element (fixed 8 bytes): which descriptor completed,
/// with how many device-written bytes and what status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkUsedElem {
    /// Head descriptor index of the completed request.
    pub id: u16,
    /// Completion status ([`BLK_S_OK`], ...).
    pub status: u8,
    /// Reserved pad; must be zero.
    pub reserved: u8,
    /// Bytes the device wrote into the request's buffers.
    pub len: u32,
}

impl BlkUsedElem {
    /// Encoded size.
    pub const LEN: usize = 8;

    /// Encode into `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16(self.id);
        buf.put_u8(self.status);
        buf.put_u8(self.reserved);
        buf.put_u32(self.len);
    }

    /// Decode from `buf`.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let id = buf.get_u16();
        let status = buf.get_u8();
        let reserved = buf.get_u8();
        if reserved != 0 {
            return Err(WireError::Malformed);
        }
        Ok(BlkUsedElem {
            id,
            status,
            reserved,
            len: buf.get_u32(),
        })
    }
}

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

    #[test]
    fn desc_roundtrip() {
        let d = BlkDesc {
            addr: 0xAB_CDEF,
            len: 4096,
            flags: DESC_F_DEV_WRITE,
            next: 7,
        };
        let mut buf = BytesMut::new();
        d.encode(&mut buf);
        assert_eq!(buf.len(), BlkDesc::LEN);
        assert_eq!(BlkDesc::decode(&mut buf.freeze()).unwrap(), d);
    }

    #[test]
    fn req_hdr_roundtrip_all_types() {
        for ty in [
            BlkReqType::In,
            BlkReqType::Out,
            BlkReqType::Flush,
            BlkReqType::Discard,
            BlkReqType::Pushdown,
        ] {
            let h = BlkReqHdr {
                ty,
                reserved: 0,
                block: 123_456,
            };
            let mut buf = BytesMut::new();
            h.encode(&mut buf);
            assert_eq!(buf.len(), BlkReqHdr::LEN);
            assert_eq!(BlkReqHdr::decode(&mut buf.freeze()).unwrap(), h);
        }
    }

    #[test]
    fn req_hdr_rejects_unknown_type_and_nonzero_reserved() {
        let h = BlkReqHdr {
            ty: BlkReqType::In,
            reserved: 0,
            block: 9,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        buf[3] = 99; // type = 99
        assert_eq!(
            BlkReqHdr::decode(&mut buf.clone().freeze()),
            Err(WireError::Malformed)
        );
        let mut buf2 = BytesMut::new();
        h.encode(&mut buf2);
        buf2[7] = 1; // reserved != 0
        assert_eq!(
            BlkReqHdr::decode(&mut buf2.freeze()),
            Err(WireError::Malformed)
        );
    }

    #[test]
    fn used_elem_roundtrip() {
        let u = BlkUsedElem {
            id: 42,
            status: BLK_S_OK,
            reserved: 0,
            len: 16384,
        };
        let mut buf = BytesMut::new();
        u.encode(&mut buf);
        assert_eq!(buf.len(), BlkUsedElem::LEN);
        assert_eq!(BlkUsedElem::decode(&mut buf.freeze()).unwrap(), u);
    }

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
