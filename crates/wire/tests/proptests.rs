//! Property tests: every wire codec round-trips arbitrary field values,
//! and decoders never panic on arbitrary bytes.

use bytes::{Bytes, BytesMut};
use ebs_wire::{
    EbsHeader, EbsOp, FrameDecoder, IntHop, IntStack, PushdownHdr, PushdownOp, PushdownPlacement,
    RpcFrame, RpcMethod, WireError,
};
use proptest::prelude::*;

/// Resolve arbitrary cut points into sorted, distinct bounds `0..=len`.
fn bounds(cuts: &[prop::sample::Index], len: usize) -> Vec<usize> {
    let mut b: Vec<usize> = cuts.iter().map(|c| c.index(len + 1)).collect();
    b.extend([0, len]);
    b.sort_unstable();
    b.dedup();
    b
}

fn op_strategy() -> impl Strategy<Value = EbsOp> {
    prop::sample::select(vec![
        EbsOp::WriteBlock,
        EbsOp::WriteAck,
        EbsOp::ReadReq,
        EbsOp::ReadResp,
        EbsOp::Nack,
        EbsOp::Probe,
        EbsOp::ProbeAck,
        EbsOp::GapNack,
    ])
}

fn method_strategy() -> impl Strategy<Value = RpcMethod> {
    prop::sample::select(vec![
        RpcMethod::Write,
        RpcMethod::Read,
        RpcMethod::WriteResp,
        RpcMethod::ReadResp,
        RpcMethod::Error,
    ])
}

fn pushdown_op_strategy() -> impl Strategy<Value = PushdownOp> {
    prop::sample::select(vec![
        PushdownOp::RangeScan,
        PushdownOp::ChecksumVerify,
        PushdownOp::CompactionMerge,
    ])
}

fn placement_strategy() -> impl Strategy<Value = PushdownPlacement> {
    prop::sample::select(vec![
        PushdownPlacement::Client,
        PushdownPlacement::StorageNode,
        PushdownPlacement::Dpu,
    ])
}

proptest! {
    #[test]
    fn ebs_header_roundtrip(
        op in op_strategy(),
        flags in any::<u8>(),
        path_id in any::<u8>(),
        vd_id in any::<u64>(),
        rpc_id in any::<u64>(),
        pkt_id in any::<u16>(),
        total in any::<u16>(),
        addr in any::<u64>(),
        len in any::<u32>(),
        crc in any::<u32>(),
        seq in any::<u32>(),
        seg in any::<u64>(),
    ) {
        let hdr = EbsHeader {
            version: EbsHeader::VERSION,
            op,
            flags,
            path_id,
            vd_id,
            rpc_id,
            pkt_id,
            total_pkts: total,
            block_addr: addr,
            len,
            payload_crc: crc,
            path_seq: seq,
            segment_id: seg,
        };
        let mut buf = BytesMut::new();
        hdr.encode(&mut buf);
        prop_assert_eq!(buf.len(), EbsHeader::LEN);
        prop_assert_eq!(EbsHeader::decode(&mut buf.freeze()).unwrap(), hdr);
    }

    /// Every field value survives the pushdown frame, and every strict
    /// prefix of an encoded frame decodes as `Truncated`.
    #[test]
    fn pushdown_hdr_roundtrip(
        (op, placement) in (pushdown_op_strategy(), placement_strategy()),
        (flags, req_id, vd_id, first_block) in
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (block_count, pred_offset, pred_mask, pred_value) in
            (any::<u32>(), any::<u16>(), any::<u8>(), any::<u8>()),
        (group_k, status, part, blocks_out, result_crc) in
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<u32>(), any::<u32>()),
        cut in any::<prop::sample::Index>(),
    ) {
        let hdr = PushdownHdr {
            version: PushdownHdr::VERSION,
            op,
            placement,
            flags,
            req_id,
            vd_id,
            first_block,
            block_count,
            pred_offset,
            pred_mask,
            pred_value,
            group_k,
            status,
            part,
            blocks_out,
            result_crc,
        };
        let mut buf = BytesMut::new();
        hdr.encode(&mut buf);
        prop_assert_eq!(buf.len(), PushdownHdr::LEN);
        let short = cut.index(PushdownHdr::LEN);
        prop_assert_eq!(PushdownHdr::decode(&mut &buf[..short]), Err(WireError::Truncated));
        prop_assert_eq!(PushdownHdr::decode(&mut buf.freeze()).unwrap(), hdr);
    }

    #[test]
    fn int_stack_roundtrip(hops in proptest::collection::vec(
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>()), 0..15))
    {
        let mut stack = IntStack::new();
        for (d, q, tx, ts, mbps) in hops {
            stack.push(IntHop { device_id: d, queue_bytes: q, tx_bytes: tx, ts_ns: ts, link_mbps: mbps });
        }
        let mut buf = BytesMut::new();
        stack.encode(&mut buf);
        prop_assert_eq!(IntStack::decode(&mut buf.freeze()).unwrap(), stack);
    }

    #[test]
    fn rpc_frame_roundtrip(
        rpc_id in any::<u64>(),
        method in method_strategy(),
        vd in any::<u64>(),
        offset in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let frame = RpcFrame {
            rpc_id,
            method,
            vd_id: vd,
            offset,
            len: payload.len() as u32,
            payload: bytes::Bytes::from(payload),
        };
        let mut dec = FrameDecoder::new();
        dec.push(frame.to_bytes());
        prop_assert_eq!(dec.next_frame().unwrap().unwrap(), frame.clone());
        prop_assert_eq!(RpcFrame::decode(frame.to_bytes()).unwrap(), frame);
    }

    /// However the stream is cut into views — slices of one buffer (what
    /// TCP delivers for a payload it segmented; the decoder rejoins them)
    /// or unrelated allocations (it gathers them) — feeding the views
    /// through `push` yields exactly the frames a contiguous decode does.
    #[test]
    fn frame_stream_decodes_the_same_under_any_chunking(
        specs in proptest::collection::vec(
            (method_strategy(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..600)),
            1..5,
        ),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
        foreign in any::<bool>(),
    ) {
        let frames: Vec<RpcFrame> = specs
            .into_iter()
            .map(|(method, rpc_id, payload)| RpcFrame {
                rpc_id,
                method,
                vd_id: rpc_id ^ 0x55,
                offset: rpc_id.rotate_left(7),
                len: payload.len() as u32,
                payload: Bytes::from(payload),
            })
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            f.encode(&mut stream);
        }
        let stream = Bytes::from(stream);

        let mut contiguous = FrameDecoder::new();
        contiguous.push(stream.clone());
        let mut want = Vec::new();
        while let Some(f) = contiguous.next_frame().unwrap() {
            want.push(f);
        }
        prop_assert_eq!(&want, &frames);

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for w in bounds(&cuts, stream.len()).windows(2) {
            dec.push(if foreign {
                Bytes::copy_from_slice(&stream[w[0]..w[1]])
            } else {
                stream.slice(w[0]..w[1])
            });
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// `Bytes::try_unsplit`: a view joins the view that follows it in the
    /// same storage (or an empty side) and then reads as the
    /// concatenation; anything else comes back as `Err` with both sides
    /// exactly as they were.
    #[test]
    fn try_unsplit_laws(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
        c in any::<prop::sample::Index>(),
        d in any::<prop::sample::Index>(),
        adjacent in any::<bool>(),
        foreign in any::<bool>(),
    ) {
        let whole = Bytes::from(data);
        let n = whole.len() + 1;
        let mut l = [a.index(n), b.index(n)];
        l.sort_unstable();
        let (lo, mid) = (l[0], l[1]);
        let mut r = [c.index(n), d.index(n)];
        r.sort_unstable();
        let (from, to) = if adjacent { (mid, r[1].max(mid)) } else { (r[0], r[1]) };
        let left = whole.slice(lo..mid);
        let right = if foreign {
            Bytes::copy_from_slice(&whole[from..to])
        } else {
            whole.slice(from..to)
        };
        let joins = left.is_empty() || right.is_empty() || (!foreign && from == mid);

        let mut joined = left.clone();
        match joined.try_unsplit(right.clone()) {
            Ok(()) => {
                prop_assert!(joins, "joined views that are not adjacent in one storage");
                let concat: Vec<u8> = left.iter().chain(right.iter()).copied().collect();
                prop_assert_eq!(joined, concat);
            }
            Err(back) => {
                prop_assert!(!joins, "refused an adjacent view of the same storage");
                prop_assert_eq!(back.as_ptr_range(), right.as_ptr_range());
                prop_assert_eq!(joined.as_ptr_range(), left.as_ptr_range());
            }
        }
    }

    /// Decoders never panic on garbage (they return errors instead).
    #[test]
    fn decoders_are_total(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = EbsHeader::decode(&mut &junk[..]);
        let _ = IntStack::decode(&mut &junk[..]);
        let _ = RpcFrame::decode(Bytes::copy_from_slice(&junk));
        let _ = PushdownHdr::decode(&mut &junk[..]);
        // Random bytes almost never pass the version/op/placement checks;
        // force them valid so the rest of the frame is fuzzed too.
        let mut framed = junk.clone();
        if let [version, op, placement, ..] = &mut framed[..] {
            *version = PushdownHdr::VERSION;
            *op = 1 + *op % 3;
            *placement %= 3;
        }
        let decoded = PushdownHdr::decode(&mut &framed[..]);
        prop_assert_eq!(decoded.is_ok(), framed.len() >= PushdownHdr::LEN);
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::copy_from_slice(&junk));
        let _ = dec.next_frame();
    }

    /// Slab handle recycling never aliases: a handle freed by `take` can
    /// never observe the slot's next occupant, and every live handle
    /// observes exactly the value it was issued for — under arbitrary
    /// interleavings of inserts and takes (including stale double-takes,
    /// which must not evict the recycled value). This is the invariant
    /// the fabric's packet arena rests on.
    #[test]
    #[cfg_attr(miri, ignore)] // covered by the deterministic slab unit tests under Miri
    fn slab_recycling_never_aliases_live_handles(
        ops in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..200),
    ) {
        let mut slab: ebs_wire::slab::Slab<u64> = ebs_wire::slab::Slab::new();
        let mut live: Vec<(ebs_wire::slab::Handle, u64)> = Vec::new();
        let mut dead: Vec<ebs_wire::slab::Handle> = Vec::new();
        let mut next_val = 0u64;
        for (is_insert, idx) in ops {
            if is_insert || live.is_empty() {
                let h = slab.insert(next_val);
                // A fresh handle must not collide with any handle ever
                // issued (slot reuse must come with a new generation).
                for (lh, _) in &live {
                    prop_assert_ne!(*lh, h);
                }
                for dh in &dead {
                    prop_assert_ne!(*dh, h);
                }
                live.push((h, next_val));
                next_val += 1;
            } else {
                let (h, v) = live.swap_remove(idx.index(live.len()));
                prop_assert_eq!(slab.take(h), Some(v));
                prop_assert_eq!(slab.take(h), None, "double take is a no-op");
                dead.push(h);
            }
            // Every live handle sees its own value; every dead handle
            // sees nothing, no matter how its slot was recycled.
            for (lh, lv) in &live {
                prop_assert_eq!(slab.get(*lh), Some(lv));
            }
            for dh in &dead {
                prop_assert_eq!(slab.get(*dh), None);
            }
            prop_assert_eq!(slab.len(), live.len());
        }
    }
}
