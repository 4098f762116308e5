//! The SOLAR EBS header — the heart of "one block, one packet".
//!
//! Every SOLAR data packet is a self-contained storage operation on a
//! single 4 KiB block (Fig. 12/13): the EBS header carries everything the
//! receiving pipeline needs (disk, segment, block address, CRC), so the
//! hardware can process each packet independently with no reassembly
//! buffers, no connection state and no ordering requirements.

use bytes::{Buf, BufMut};

use crate::WireError;

/// EBS operation carried by a SOLAR packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EbsOp {
    /// Carry one block of WRITE data to a block server.
    WriteBlock = 1,
    /// Per-packet acknowledgment of a WriteBlock (also the CC signal).
    WriteAck = 2,
    /// Request one block (or a short run of blocks) of READ data.
    ReadReq = 3,
    /// Carry one block of READ data back to the compute side.
    ReadResp = 4,
    /// Negative ack: the server could not process the block.
    Nack = 5,
    /// Path liveness probe.
    Probe = 6,
    /// Probe response.
    ProbeAck = 7,
    /// Receiver-side gap report: the server observed `path_seq` arrive on
    /// `path_id` while `block_addr..path_seq` never did. Under per-path
    /// FIFO delivery, those sequences are definitively lost — this is the
    /// "out-of-order arrivals" loss detection of §4.5, done with one
    /// counter per path at the receiver.
    GapNack = 8,
}

impl EbsOp {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => EbsOp::WriteBlock,
            2 => EbsOp::WriteAck,
            3 => EbsOp::ReadReq,
            4 => EbsOp::ReadResp,
            5 => EbsOp::Nack,
            6 => EbsOp::Probe,
            7 => EbsOp::ProbeAck,
            8 => EbsOp::GapNack,
            _ => return Err(WireError::Malformed),
        })
    }
}

/// Header flag: payload is encrypted by the SEC stage.
pub const FLAG_ENCRYPTED: u8 = 0x01;
/// Header flag: this packet is a retransmission.
pub const FLAG_RETRANSMIT: u8 = 0x02;
/// Header flag: receiver should echo an INT stack in the ACK.
pub const FLAG_INT_REQUEST: u8 = 0x04;
/// Header flag: ECN congestion-experienced echo. A RED-marked data
/// packet has the mark copied into this bit by the receiving endpoint
/// (the responder copies the request header into its ack, so the echo
/// rides back to the sender for free), where the DCQCN-style controller
/// consumes it.
pub const FLAG_ECN_ECHO: u8 = 0x08;

/// The SOLAR EBS header (fixed 56 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EbsHeader {
    /// Protocol version (currently 1).
    pub version: u8,
    /// Operation.
    pub op: EbsOp,
    /// Flag bits ([`FLAG_ENCRYPTED`], ...).
    pub flags: u8,
    /// Path id (0..n_paths): which of the persistent multi-path UDP source
    /// ports this packet was sprayed onto.
    pub path_id: u8,
    /// Virtual disk id.
    pub vd_id: u64,
    /// RPC id, unique per (compute server, in-flight request).
    pub rpc_id: u64,
    /// Packet index within the RPC (one per block).
    pub pkt_id: u16,
    /// Total packets in this RPC.
    pub total_pkts: u16,
    /// Block address (LBA, in 4 KiB block units) on the virtual disk.
    pub block_addr: u64,
    /// Payload length in bytes (≤ block size).
    pub len: u32,
    /// Raw CRC32 of the (padded) block payload, computed by the CRC stage.
    pub payload_crc: u32,
    /// Per-path sequence number: increments for every packet sent on this
    /// path. ACKed gaps signal loss for selective retransmission (§4.5
    /// "out-of-order arrivals ... in the same path").
    pub path_seq: u32,
    /// Segment id on the physical disk, from the Block table lookup.
    pub segment_id: u64,
}

impl EbsHeader {
    /// Encoded size.
    pub const LEN: usize = 56;
    /// Current protocol version.
    pub const VERSION: u8 = 1;

    /// Encode into `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.version);
        buf.put_u8(self.op as u8);
        buf.put_u8(self.flags);
        buf.put_u8(self.path_id);
        buf.put_u32(0); // reserved / pad to 8-byte alignment
        buf.put_u64(self.vd_id);
        buf.put_u64(self.rpc_id);
        buf.put_u16(self.pkt_id);
        buf.put_u16(self.total_pkts);
        buf.put_u32(self.len);
        buf.put_u64(self.block_addr);
        buf.put_u32(self.payload_crc);
        buf.put_u32(self.path_seq);
        buf.put_u64(self.segment_id);
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
        let op = EbsOp::from_u8(buf.get_u8())?;
        let flags = buf.get_u8();
        let path_id = buf.get_u8();
        let _pad = buf.get_u32();
        let vd_id = buf.get_u64();
        let rpc_id = buf.get_u64();
        let pkt_id = buf.get_u16();
        let total_pkts = buf.get_u16();
        let len = buf.get_u32();
        let block_addr = buf.get_u64();
        let payload_crc = buf.get_u32();
        let path_seq = buf.get_u32();
        let segment_id = buf.get_u64();
        Ok(EbsHeader {
            version,
            op,
            flags,
            path_id,
            vd_id,
            rpc_id,
            pkt_id,
            total_pkts,
            block_addr,
            len,
            payload_crc,
            path_seq,
            segment_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> EbsHeader {
        EbsHeader {
            version: 1,
            op: EbsOp::WriteBlock,
            flags: FLAG_ENCRYPTED,
            path_id: 3,
            vd_id: 42,
            rpc_id: 0xDEAD_BEEF_CAFE,
            pkt_id: 7,
            total_pkts: 16,
            block_addr: 0x0F,
            len: 4096,
            payload_crc: 0x1234_5678,
            path_seq: 1234,
            segment_id: 99,
        }
    }

    #[test]
    fn roundtrip() {
        let hdr = sample();
        let mut buf = BytesMut::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), EbsHeader::LEN);
        let got = EbsHeader::decode(&mut buf.freeze()).unwrap();
        assert_eq!(got, hdr);
    }

    #[test]
    fn all_ops_roundtrip() {
        for op in [
            EbsOp::WriteBlock,
            EbsOp::WriteAck,
            EbsOp::ReadReq,
            EbsOp::ReadResp,
            EbsOp::Nack,
            EbsOp::Probe,
            EbsOp::ProbeAck,
            EbsOp::GapNack,
        ] {
            let mut hdr = sample();
            hdr.op = op;
            let mut buf = BytesMut::new();
            hdr.encode(&mut buf);
            assert_eq!(EbsHeader::decode(&mut buf.freeze()).unwrap().op, op);
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf[0] = 9;
        assert_eq!(
            EbsHeader::decode(&mut buf.freeze()),
            Err(WireError::Malformed)
        );
    }

    #[test]
    fn rejects_bad_op() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf[1] = 0xEE;
        assert_eq!(
            EbsHeader::decode(&mut buf.freeze()),
            Err(WireError::Malformed)
        );
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let short = buf.freeze().slice(..EbsHeader::LEN - 1);
        assert_eq!(
            EbsHeader::decode(&mut &short[..]),
            Err(WireError::Truncated)
        );
    }
}
