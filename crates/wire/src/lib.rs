//! # ebs-wire — wire formats of the Luna/Solar storage network
//!
//! Byte-level codecs shared by the simulator and the real-socket examples:
//!
//! * [`EbsHeader`] — SOLAR's per-packet storage header: one packet carries
//!   one self-contained 4 KiB block with its address and CRC (§4.4's
//!   "one-block-one-packet" fusion of packet and block);
//! * [`IntStack`] — in-band network telemetry records consumed by the
//!   HPCC-style congestion control;
//! * [`RpcFrame`] / [`FrameDecoder`] — LUNA's length-prefixed RPC framing
//!   over a TCP byte stream, including the incremental reassembly that
//!   SOLAR's design makes unnecessary;
//! * [`ViewQueue`] / [`ByteChain`] — that byte stream carried as the views
//!   it was written as: the stream at rest (send, receive and decode
//!   queues) and a stretch cut out of it (a TCP segment's payload), so
//!   segmentation and reassembly move handles instead of gathering bytes;
//! * [`PushdownHdr`] — the storage-function pushdown frame of the
//!   virtio-blk-shaped guest frontend, with its feature bits and
//!   completion statuses (see `docs/PROTOCOL.md`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blk;
mod chain;
mod ebs;
mod int;
pub mod pool;
mod rpc;
pub mod slab;

pub use blk::{
    PushdownHdr, PushdownOp, PushdownPlacement, BLK_F_DISCARD, BLK_F_FLUSH, BLK_F_MQ,
    BLK_F_PUSHDOWN, BLK_F_PUSHDOWN_DPU, BLK_F_SEG_MAX, BLK_KNOWN_FEATURES, BLK_S_BADCRC,
    BLK_S_IOERR, BLK_S_OK, BLK_S_UNSUPP, PD_FLAG_RESPONSE, PD_FLAG_RETRANSMIT,
};
pub use chain::{ByteChain, ViewQueue};
pub use ebs::{EbsHeader, EbsOp, FLAG_ECN_ECHO, FLAG_ENCRYPTED, FLAG_INT_REQUEST, FLAG_RETRANSMIT};
pub use int::{IntHop, IntStack, MAX_INT_HOPS, PATH_INT_HOPS};
pub use pool::{BlockPool, PoolStats, PooledBuf, PooledBytes};
pub use rpc::{FrameDecoder, RpcFrame, RpcMethod};
pub use slab::{Handle, Slab};

/// Errors produced when decoding malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the fixed header.
    Truncated,
    /// A version / length / kind field is inconsistent.
    Malformed,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::Malformed => write!(f, "malformed header"),
        }
    }
}

impl std::error::Error for WireError {}

/// The EBS data block size: 4 KiB, matching the SSD sector size (§2.2).
pub const BLOCK_SIZE: usize = 4096;

/// Ethernet (14) + IPv4 (20, no options) + UDP (8) + EBS header overhead
/// for one SOLAR data packet. Hosts count these bytes on the wire; only
/// the EBS header is ever encoded here.
pub const SOLAR_OVERHEAD: usize = 14 + 20 + 8 + ebs::EbsHeader::LEN;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_block_fits_one_jumbo_frame() {
        // The invariant the whole SOLAR design rests on: the paper picks
        // 4 KiB blocks in ≤ 9 KiB jumbo frames and deliberately avoids
        // 8 KiB blocks to balance congestion risk (§4.8).
        const { assert!(BLOCK_SIZE + SOLAR_OVERHEAD <= 9000) }
    }

    #[test]
    fn two_blocks_do_not_fit_standard_mtu() {
        // ...and it genuinely requires jumbo frames: a block + overhead
        // exceeds the standard 1500-byte MTU.
        const { assert!(BLOCK_SIZE + SOLAR_OVERHEAD > 1500) }
    }
}
