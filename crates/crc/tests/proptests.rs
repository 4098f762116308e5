//! Property tests for the CRC invariants SOLAR's integrity design rests on,
//! plus the differential suite pinning every kernel the CPU has (slice-by-16
//! portable, PCLMULQDQ and VPCLMULQDQ folding) to the slice-by-8 reference.

use ebs_crc::{block_crc_raw, crc32_raw, Crc32, SegmentChecker, SegmentVerdict};
use proptest::prelude::*;

proptest! {
    /// Differential: every kernel == slice-by-8 over random lengths (past
    /// two 4 KiB blocks), contents, start offsets and starting states.
    #[test]
    fn kernels_match_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..=9000),
        offset in 0usize..64,
        state in any::<u32>(),
    ) {
        let mut backing = vec![0u8; offset];
        backing.extend_from_slice(&bytes);
        let data = &backing[offset..];
        let want = Crc32::new().update_slice8(state, data);
        for e in Crc32::every_kernel() {
            prop_assert_eq!(e.update(state, data), want, "{}", e.kernel_name());
        }
    }

    /// Differential at unaligned starting offsets: the hardware kernels
    /// must not care where in an allocation the data begins. Exercises
    /// every alignment 0..16 around each folding kernel's entry length (64
    /// and 256 bytes), one 512-bit step past it, and the exact 4096-byte
    /// fast path.
    #[test]
    fn kernels_match_reference_unaligned(
        seed in any::<u64>(),
        offset in 0usize..16,
        len in prop::sample::select(
            vec![0usize, 1, 15, 16, 63, 64, 65, 255, 256, 257, 320, 4095, 4096, 4097]),
    ) {
        let backing: Vec<u8> = (0..(offset + len))
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u8)
            .collect();
        let data = &backing[offset..];
        let want = Crc32::new().update_slice8(0, data);
        for e in Crc32::every_kernel() {
            prop_assert_eq!(e.update(0, data), want, "{} len={} offset={}", e.kernel_name(), len, offset);
        }
    }

    /// Raw linearity `CRC(A ⊕ B) = CRC(A) ⊕ CRC(B)` holds with the
    /// dispatched kernel live, on full 4 KiB blocks (its fast path).
    #[test]
    fn linearity_survives_dispatch(seed in any::<u64>()) {
        let a: Vec<u8> = (0..4096u64).map(|i| (seed.wrapping_mul(i + 3) >> 11) as u8).collect();
        let b: Vec<u8> = (0..4096u64).map(|i| (seed.wrapping_mul(i + 7) >> 17) as u8).collect();
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        prop_assert_eq!(crc32_raw(&x), crc32_raw(&a) ^ crc32_raw(&b));
    }

    /// Raw CRC is linear over XOR for equal-length inputs — the exact
    /// property the paper's divide-and-conquer aggregation exploits.
    #[test]
    fn raw_crc_linear(a in proptest::collection::vec(any::<u8>(), 1..2048)) {
        let b: Vec<u8> = a.iter().map(|x| x.wrapping_add(37)).collect();
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        prop_assert_eq!(crc32_raw(&x), crc32_raw(&a) ^ crc32_raw(&b));
    }

    /// A clean segment always verifies, regardless of block contents or
    /// count (including short, zero-padded tail blocks).
    #[test]
    fn clean_segment_verifies(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..=128), 1..16),
    ) {
        let mut chk = SegmentChecker::new(128);
        for b in &blocks {
            chk.add_block(b, block_crc_raw(b, 128));
        }
        prop_assert_eq!(chk.verify_and_reset(), SegmentVerdict::Ok);
    }

    /// A single bit flip in any block of a segment is always detected.
    #[test]
    fn single_bit_flip_detected(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 128..=128), 1..8),
        victim in any::<prop::sample::Index>(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut chk = SegmentChecker::new(128);
        let victim = victim.index(blocks.len());
        for (i, b) in blocks.iter().enumerate() {
            let crc = block_crc_raw(b, 128);
            if i == victim {
                let mut bad = b.clone();
                let idx = byte.index(bad.len());
                bad[idx] ^= 1 << bit;
                chk.add_block(&bad, crc);
            } else {
                chk.add_block(b, crc);
            }
        }
        prop_assert_eq!(chk.verify_and_reset(), SegmentVerdict::Corrupt);
    }

    /// A flipped *claimed CRC* is always detected too (bit flips can hit
    /// the CRC registers in the FPGA, not just the payload).
    #[test]
    fn crc_register_flip_detected(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 64..=64), 1..8),
        victim in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let mut chk = SegmentChecker::new(64);
        let victim = victim.index(blocks.len());
        for (i, b) in blocks.iter().enumerate() {
            let mut crc = block_crc_raw(b, 64);
            if i == victim {
                crc ^= 1 << bit;
            }
            chk.add_block(b, crc);
        }
        prop_assert_eq!(chk.verify_and_reset(), SegmentVerdict::Corrupt);
    }

    /// One checker reused across a run of segments — empty ones, short
    /// zero-padded blocks, and a payload or claimed-CRC flip in any block
    /// of any segment — gives the verdict of the definition: the raw CRC of
    /// the XOR of the zero-padded blocks against the XOR of the claimed
    /// CRCs, computed afresh per segment.
    #[test]
    fn reused_checker_matches_the_definition(
        segments in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..=96), any::<u8>()),
                0..6),
            1..8),
        corrupt in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..40), 0..4),
    ) {
        const BS: usize = 96;
        let mut chk = SegmentChecker::new(BS);
        for (s, blocks) in segments.iter().enumerate() {
            let mut xor = [0u8; BS];
            let mut claimed_xor = 0u32;
            for (i, (block, fill)) in blocks.iter().enumerate() {
                let mut payload = block.clone();
                // Short blocks keep their length; give full-length ones a
                // varied tail too.
                if payload.len() == BS {
                    payload[BS - 1] ^= fill;
                }
                let mut claimed = block_crc_raw(&payload, BS);
                for (seg, blk, bit) in &corrupt {
                    if seg.index(segments.len()) == s && blk.index(blocks.len().max(1)) == i {
                        if *bit < 32 {
                            claimed ^= 1 << bit;
                        } else if !payload.is_empty() {
                            let at = usize::from(*bit) % payload.len();
                            payload[at] ^= 1 << (bit - 32);
                        }
                    }
                }
                for (x, p) in xor.iter_mut().zip(&payload) {
                    *x ^= p;
                }
                claimed_xor ^= claimed;
                chk.add_block(&payload, claimed);
            }
            prop_assert_eq!(chk.blocks(), blocks.len());
            let want = if crc32_raw(&xor) == claimed_xor {
                SegmentVerdict::Ok
            } else {
                SegmentVerdict::Corrupt
            };
            prop_assert_eq!(chk.verify_and_reset(), want, "segment {}", s);
        }
    }

    /// A single bit flip in a short, zero-padded block at any position of
    /// a multi-block segment is always detected.
    #[test]
    fn flip_in_short_block_detected(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..=128), 2..8),
        victim in any::<prop::sample::Index>(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut chk = SegmentChecker::new(128);
        let victim = victim.index(blocks.len());
        for (i, b) in blocks.iter().enumerate() {
            let crc = block_crc_raw(b, 128);
            let mut b = b.clone();
            if i == victim {
                let idx = byte.index(b.len());
                b[idx] ^= 1 << bit;
            }
            chk.add_block(&b, crc);
        }
        prop_assert_eq!(chk.verify_and_reset(), SegmentVerdict::Corrupt);
    }

    /// Incremental and one-shot CRC agree for any split point.
    #[test]
    fn incremental_split(data in proptest::collection::vec(any::<u8>(), 0..1024),
                         split in any::<prop::sample::Index>()) {
        let c = Crc32::new();
        let k = split.index(data.len() + 1);
        let st = c.update(c.update(0, &data[..k]), &data[k..]);
        prop_assert_eq!(st, crc32_raw(&data));
    }
}
