//! `docs/PROTOCOL.md` conformance: every byte-layout table in the
//! protocol document is asserted against the `ebs-wire` structs here.
//! If a struct grows or a field moves, this test fails until the
//! document is updated — the doc is normative, so drift is a bug.

use bytes::BytesMut;
use ebs_wire::{
    EbsHeader, EbsOp, IntHop, PushdownHdr, PushdownOp, PushdownPlacement, BLK_F_DISCARD,
    BLK_F_FLUSH, BLK_F_MQ, BLK_F_PUSHDOWN, BLK_F_PUSHDOWN_DPU, BLK_F_SEG_MAX, BLK_KNOWN_FEATURES,
    BLK_S_BADCRC, BLK_S_IOERR, BLK_S_OK, BLK_S_UNSUPP, PD_FLAG_RESPONSE, PD_FLAG_RETRANSMIT,
};

/// The struct sizes the document's tables claim (§5, §9).
#[test]
fn documented_sizes_match_the_structs() {
    assert_eq!(EbsHeader::LEN, 56, "PROTOCOL.md section 9: EBS header");
    assert_eq!(IntHop::LEN, 28, "PROTOCOL.md section 9: INT record");
    assert_eq!(
        PushdownHdr::LEN,
        48,
        "PROTOCOL.md section 5: pushdown frame"
    );
}

/// §3's feature-bit table, bit for bit.
#[test]
fn documented_feature_bits_match() {
    assert_eq!(BLK_F_MQ, 1 << 0);
    assert_eq!(BLK_F_SEG_MAX, 1 << 1);
    assert_eq!(BLK_F_FLUSH, 1 << 2);
    assert_eq!(BLK_F_DISCARD, 1 << 3);
    assert_eq!(BLK_F_PUSHDOWN, 1 << 4);
    assert_eq!(BLK_F_PUSHDOWN_DPU, 1 << 5);
    assert_eq!(BLK_KNOWN_FEATURES, 0x3F, "exactly the six defined bits");
}

/// §4's status codes and §5's pushdown flags.
#[test]
fn documented_statuses_and_flags_match() {
    assert_eq!(BLK_S_OK, 0);
    assert_eq!(BLK_S_IOERR, 1);
    assert_eq!(BLK_S_UNSUPP, 2);
    assert_eq!(BLK_S_BADCRC, 3);
    assert_eq!(PD_FLAG_RESPONSE, 0x01);
    assert_eq!(PD_FLAG_RETRANSMIT, 0x02);
}

/// §5's op/placement discriminants.
#[test]
fn documented_discriminants_match() {
    assert_eq!(PushdownOp::RangeScan as u8, 1);
    assert_eq!(PushdownOp::ChecksumVerify as u8, 2);
    assert_eq!(PushdownOp::CompactionMerge as u8, 3);
    assert_eq!(PushdownPlacement::Client as u8, 0);
    assert_eq!(PushdownPlacement::StorageNode as u8, 1);
    assert_eq!(PushdownPlacement::Dpu as u8, 2);
}

/// §5's pushdown byte offsets: encode a frame with distinguishable
/// field values and read each back at the documented offset (all
/// fields big-endian).
#[test]
fn pushdown_field_offsets_match_the_table() {
    let h = PushdownHdr {
        version: 1,
        op: PushdownOp::CompactionMerge,
        placement: PushdownPlacement::Dpu,
        flags: PD_FLAG_RESPONSE | PD_FLAG_RETRANSMIT,
        req_id: 0x0102_0304_0506_0708,
        vd_id: 0x1112_1314_1516_1718,
        first_block: 0x2122_2324_2526_2728,
        block_count: 0x3132_3334,
        pred_offset: 0x4142,
        pred_mask: 0x51,
        pred_value: 0x61,
        group_k: 8,
        status: BLK_S_BADCRC,
        part: 0x7172,
        blocks_out: 0x8182_8384,
        result_crc: 0x9192_9394,
    };
    let mut buf = BytesMut::new();
    h.encode(&mut buf);
    assert_eq!(buf.len(), 48);
    assert_eq!(buf[0], 1, "version at 0");
    assert_eq!(buf[1], 3, "op at 1");
    assert_eq!(buf[2], 2, "placement at 2");
    assert_eq!(buf[3], 0x03, "flags at 3");
    assert_eq!(&buf[4..12], &0x0102_0304_0506_0708u64.to_be_bytes());
    assert_eq!(&buf[12..20], &0x1112_1314_1516_1718u64.to_be_bytes());
    assert_eq!(&buf[20..28], &0x2122_2324_2526_2728u64.to_be_bytes());
    assert_eq!(&buf[28..32], &0x3132_3334u32.to_be_bytes());
    assert_eq!(&buf[32..34], &0x4142u16.to_be_bytes());
    assert_eq!(buf[34], 0x51, "pred_mask at 34");
    assert_eq!(buf[35], 0x61, "pred_value at 35");
    assert_eq!(buf[36], 8, "group_k at 36");
    assert_eq!(buf[37], BLK_S_BADCRC, "status at 37");
    assert_eq!(&buf[38..40], &0x7172u16.to_be_bytes());
    assert_eq!(&buf[40..44], &0x8182_8384u32.to_be_bytes());
    assert_eq!(&buf[44..48], &0x9192_9394u32.to_be_bytes());
}

/// §9's EBS-header offsets for the fields other layers depend on
/// (version/op at the front, segment_id at 48 — the §16 aggregation
/// granule key).
#[test]
fn ebs_header_offsets_match_the_table() {
    let h = EbsHeader {
        version: EbsHeader::VERSION,
        op: EbsOp::ReadReq,
        flags: 0,
        path_id: 2,
        vd_id: 0x0102_0304_0506_0708,
        rpc_id: 0x1112_1314_1516_1718,
        pkt_id: 0x2122,
        total_pkts: 0x3132,
        len: 0x4142_4344,
        block_addr: 0x5152_5354_5556_5758,
        payload_crc: 0x6162_6364,
        path_seq: 0x7172_7374,
        segment_id: 0x8182_8384_8586_8788,
    };
    let mut buf = BytesMut::new();
    h.encode(&mut buf);
    assert_eq!(buf.len(), 56);
    assert_eq!(buf[0], EbsHeader::VERSION, "version at 0");
    assert_eq!(buf[1], EbsOp::ReadReq as u8, "op at 1");
    assert_eq!(buf[3], 2, "path_id at 3");
    assert_eq!(&buf[8..16], &0x0102_0304_0506_0708u64.to_be_bytes());
    assert_eq!(&buf[16..24], &0x1112_1314_1516_1718u64.to_be_bytes());
    assert_eq!(&buf[24..26], &0x2122u16.to_be_bytes());
    assert_eq!(&buf[26..28], &0x3132u16.to_be_bytes());
    assert_eq!(&buf[28..32], &0x4142_4344u32.to_be_bytes());
    assert_eq!(&buf[32..40], &0x5152_5354_5556_5758u64.to_be_bytes());
    assert_eq!(&buf[40..44], &0x6162_6364u32.to_be_bytes());
    assert_eq!(&buf[44..48], &0x7172_7374u32.to_be_bytes());
    assert_eq!(&buf[48..56], &0x8182_8384_8586_8788u64.to_be_bytes());
}
