//! Storage-function pushdown: the closed function enum, its reference
//! execution, and the CRC rule that makes transformed results verifiable.
//!
//! BPF-oF's observation is that filter/scan/compaction work can run next
//! to the data instead of dragging every block across the fabric; FlexBSO
//! shows the same functions fit a SmartNIC pipeline. We model exactly
//! three functions ([`StorageFn`] is a **closed** enum — a function the
//! verifier hasn't blessed cannot exist):
//!
//! * **RangeScan** — return only blocks matching a byte predicate;
//! * **ChecksumVerify** — return no data, only the range's aggregate CRC;
//! * **CompactionMerge** — XOR-fold each group of `k` blocks into one.
//!
//! **The CRC-of-transformed-data rule.** Raw CRC32 (init 0, xorout 0) is
//! linear over XOR: `crc(a ⊕ b) = crc(a) ⊕ crc(b)`. Every result
//! therefore carries an aggregate checksum the *client* can recompute
//! from data it actually received:
//!
//! * RangeScan: XOR of the returned blocks' raw CRCs — recomputable from
//!   the returned payload alone;
//! * ChecksumVerify: XOR of *all* source blocks' raw CRCs — the client
//!   compares against the VD's expected signature;
//! * CompactionMerge: by linearity, each output block's CRC is the XOR of
//!   its group's source CRCs, so the aggregate equals the XOR of **all**
//!   source-block CRCs — independent of `k` and of how the range was
//!   sharded across storage servers. That grouping-invariance is what
//!   lets a multi-part response be verified without knowing the split.
//!
//! Blocks themselves are synthesized deterministically from
//! `(vd_id, block_addr)` ([`synth_block`]), so client, storage node and
//! DPU all agree on the bytes without shipping them — the simulator's
//! stand-in for content-addressed test data.

use ebs_crc::block_crc_raw;
use ebs_wire::{PushdownOp, BLOCK_SIZE};

/// The byte predicate of a range scan: `block[offset] & mask == value & mask`.
///
/// Selectivity is `2^-popcount(mask)` over the uniform synthesized
/// blocks, so benches dial the hit rate with the mask width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Byte offset within the 4 KiB block to test.
    pub offset: u16,
    /// Mask applied to the tested byte.
    pub mask: u8,
    /// Value compared against the masked byte.
    pub value: u8,
}

impl Predicate {
    /// A predicate matching every block (mask 0).
    pub const ALL: Predicate = Predicate {
        offset: 0,
        mask: 0,
        value: 0,
    };
}

/// One storage function: what to run over a block range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageFn {
    /// Function selector.
    pub op: PushdownOp,
    /// Scan predicate (ignored by ChecksumVerify and CompactionMerge).
    pub pred: Predicate,
    /// CompactionMerge group size (blocks folded per output; ≥ 1).
    pub group_k: u8,
}

impl StorageFn {
    /// A range scan with the given predicate.
    pub fn scan(pred: Predicate) -> Self {
        StorageFn {
            op: PushdownOp::RangeScan,
            pred,
            group_k: 0,
        }
    }

    /// A checksum-verify over the range.
    pub fn checksum_verify() -> Self {
        StorageFn {
            op: PushdownOp::ChecksumVerify,
            pred: Predicate::ALL,
            group_k: 0,
        }
    }

    /// A compaction merge folding each `k`-block group into one block.
    pub fn merge(k: u8) -> Self {
        StorageFn {
            op: PushdownOp::CompactionMerge,
            pred: Predicate::ALL,
            group_k: k.max(1),
        }
    }
}

/// What a pushdown execution produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushdownResult {
    /// Blocks in the result payload (0 for ChecksumVerify).
    pub blocks_out: u32,
    /// Aggregate raw CRC32 of the result (see module docs).
    pub result_crc: u32,
}

/// Deterministically synthesize the 4 KiB block at `(vd_id, addr)`.
///
/// splitmix64 seeds an xorshift64* stream; 512 u64 words fill the block.
/// Every placement — client, storage node, DPU stage — produces the same
/// bytes, which is what lets the integrity check recompute CRCs of data
/// it synthesized rather than received.
pub fn synth_block(vd_id: u64, addr: u64) -> [u8; BLOCK_SIZE] {
    let mut block = [0u8; BLOCK_SIZE];
    // splitmix64 over (vd_id, addr) for the stream seed.
    let mut z = vd_id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(addr)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut s = z ^ (z >> 31);
    if s == 0 {
        s = 0x9E37_79B9_7F4A_7C15;
    }
    for chunk in block.chunks_exact_mut(8) {
        // xorshift64*
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        let w = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    block
}

/// Does `block` match `pred`?
pub fn matches(pred: Predicate, block: &[u8; BLOCK_SIZE]) -> bool {
    let b = block[pred.offset as usize % BLOCK_SIZE];
    b & pred.mask == pred.value & pred.mask
}

/// Reference execution of `func` over `[first_block, first_block + count)`
/// of `vd_id`. This is the *semantic* ground truth every placement runs:
/// the placements differ in where the cycles are spent and how many bytes
/// cross the fabric, never in the answer.
pub fn execute(func: StorageFn, vd_id: u64, first_block: u64, count: u32) -> PushdownResult {
    match func.op {
        PushdownOp::RangeScan => {
            let mut blocks_out = 0u32;
            let mut crc = 0u32;
            for i in 0..count {
                let block = synth_block(vd_id, first_block + i as u64);
                if matches(func.pred, &block) {
                    blocks_out += 1;
                    crc ^= block_crc_raw(&block, BLOCK_SIZE);
                }
            }
            PushdownResult {
                blocks_out,
                result_crc: crc,
            }
        }
        PushdownOp::ChecksumVerify => {
            let mut crc = 0u32;
            for i in 0..count {
                let block = synth_block(vd_id, first_block + i as u64);
                crc ^= block_crc_raw(&block, BLOCK_SIZE);
            }
            PushdownResult {
                blocks_out: 0,
                result_crc: crc,
            }
        }
        PushdownOp::CompactionMerge => {
            let k = func.group_k.max(1) as u32;
            let mut blocks_out = 0u32;
            let mut crc = 0u32;
            let mut i = 0u32;
            while i < count {
                let group = k.min(count - i);
                let mut folded = synth_block(vd_id, first_block + i as u64);
                for j in 1..group {
                    let b = synth_block(vd_id, first_block + (i + j) as u64);
                    for (f, x) in folded.iter_mut().zip(b.iter()) {
                        *f ^= x;
                    }
                }
                blocks_out += 1;
                crc ^= block_crc_raw(&folded, BLOCK_SIZE);
                i += group;
            }
            PushdownResult {
                blocks_out,
                result_crc: crc,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_crc::crc32_raw;

    /// XOR of the blocks' raw CRCs: what a client recomputes from data it
    /// received (a scan payload) or synthesized (a range's signature).
    fn xor_crcs<'a>(blocks: impl IntoIterator<Item = &'a [u8; BLOCK_SIZE]>) -> u32 {
        blocks
            .into_iter()
            .fold(0, |crc, b| crc ^ block_crc_raw(b, BLOCK_SIZE))
    }

    /// The range's signature: XOR of every source block's raw CRC.
    fn signature(vd_id: u64, first_block: u64, count: u32) -> u32 {
        let blocks: Vec<_> = (0..count as u64)
            .map(|i| synth_block(vd_id, first_block + i))
            .collect();
        xor_crcs(&blocks)
    }

    #[test]
    fn synth_block_is_deterministic_and_distinct() {
        assert_eq!(synth_block(1, 7), synth_block(1, 7));
        assert_ne!(synth_block(1, 7), synth_block(1, 8));
        assert_ne!(synth_block(1, 7), synth_block(2, 7));
    }

    #[test]
    fn predicate_selectivity_tracks_mask_width() {
        // mask 0x07 keeps 3 bits → expect ~1/8 of blocks to match.
        let pred = Predicate {
            offset: 17,
            mask: 0x07,
            value: 0x05,
        };
        let hits = (0..4096u64)
            .filter(|&a| matches(pred, &synth_block(9, a)))
            .count();
        assert!((380..=650).contains(&hits), "got {hits}, expect ~512");
    }

    #[test]
    fn scan_crc_verifies_against_returned_payload() {
        let pred = Predicate {
            offset: 3,
            mask: 0x03,
            value: 0x01,
        };
        let res = execute(StorageFn::scan(pred), 5, 100, 64);
        let returned: Vec<[u8; BLOCK_SIZE]> = (0..64u64)
            .map(|i| synth_block(5, 100 + i))
            .filter(|b| matches(pred, b))
            .collect();
        assert_eq!(returned.len() as u32, res.blocks_out);
        assert_eq!(xor_crcs(&returned), res.result_crc);
    }

    #[test]
    fn scan_crc_rejects_planted_bit_flip() {
        let pred = Predicate {
            offset: 3,
            mask: 0x03,
            value: 0x01,
        };
        let res = execute(StorageFn::scan(pred), 5, 100, 64);
        let mut returned: Vec<[u8; BLOCK_SIZE]> = (0..64u64)
            .map(|i| synth_block(5, 100 + i))
            .filter(|b| matches(pred, b))
            .collect();
        assert!(!returned.is_empty());
        returned[0][1234] ^= 0x40; // the planted corruption
        assert_ne!(xor_crcs(&returned), res.result_crc);
    }

    #[test]
    fn checksum_verify_matches_source_signature() {
        let res = execute(StorageFn::checksum_verify(), 2, 0, 128);
        assert_eq!(res.blocks_out, 0);
        assert_eq!(res.result_crc, signature(2, 0, 128));
    }

    #[test]
    fn merge_aggregate_is_grouping_invariant() {
        // The documented invariant: the aggregate CRC equals the XOR of
        // all source CRCs for ANY k — and for any sharding of the range.
        let sig = signature(3, 50, 96);
        for k in [1u8, 2, 3, 8, 96] {
            let res = execute(StorageFn::merge(k), 3, 50, 96);
            assert_eq!(res.result_crc, sig, "k={k}");
        }
        // Sharded: two parts XOR to the same aggregate.
        let a = execute(StorageFn::merge(4), 3, 50, 40).result_crc;
        let b = execute(StorageFn::merge(4), 3, 90, 56).result_crc;
        assert_eq!(a ^ b, sig);
    }

    #[test]
    fn crc_linearity_over_xor_holds() {
        // The property the whole rule rests on: raw CRC32 is linear.
        let x = synth_block(1, 1);
        let y = synth_block(1, 2);
        let mut z = x;
        for (a, b) in z.iter_mut().zip(y.iter()) {
            *a ^= b;
        }
        assert_eq!(crc32_raw(&z), crc32_raw(&x) ^ crc32_raw(&y));
    }

    #[test]
    fn merge_crc_rejects_corrupted_fold() {
        // Fold the groups by hand, flip one bit of one output block, and
        // the aggregate no longer matches the range's signature.
        let res = execute(StorageFn::merge(4), 7, 0, 32);
        let mut folded: Vec<[u8; BLOCK_SIZE]> = (0..8u64)
            .map(|g| {
                (1..4).fold(synth_block(7, 4 * g), |mut f, j| {
                    let b = synth_block(7, 4 * g + j);
                    f.iter_mut().zip(b.iter()).for_each(|(x, y)| *x ^= y);
                    f
                })
            })
            .collect();
        assert_eq!(xor_crcs(&folded), res.result_crc);
        assert_eq!(res.result_crc, signature(7, 0, 32));
        folded[5][77] ^= 0x01; // the planted corruption
        assert_ne!(xor_crcs(&folded), signature(7, 0, 32));
    }
}
