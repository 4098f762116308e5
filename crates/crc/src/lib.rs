//! # ebs-crc — the raw CRC32 and SOLAR's segment-level CRC aggregation
//!
//! EBS relies on CRC to catch corruption anywhere on the data path. SOLAR
//! computes per-block CRC32 *inside the FPGA* — which is itself the largest
//! source of corruption (bit flips, §4.4/Fig. 11) — so the paper adds a
//! software cross-check: the CPU verifies an **aggregate** of the per-block
//! CRCs over a segment, exploiting CRC32 linearity
//! `CRC(A ⊕ B) = CRC(A) ⊕ CRC(B)` (for the raw, init=0/xorout=0 variant and
//! equal-length inputs). One XOR accumulation plus a single CRC replaces a
//! per-block software CRC, preserving "nine 9s" integrity at a fraction of
//! the CPU cost.
//!
//! This crate provides:
//! * [`Crc32`] — the raw (unconditioned) reflected IEEE CRC32 with
//!   **runtime kernel dispatch**: portable slice-by-16 everywhere, plus
//!   `x86_64` PCLMULQDQ folding when `is_x86_feature_detected!` finds it;
//! * [`crc32_raw`] / [`block_crc_raw`] — the one-shots the data path uses;
//! * [`SegmentChecker`] — the software aggregation check of §4.5.
//!
//! ## Unsafe-isolation policy
//!
//! The crate denies `unsafe_code` globally; the **only** exemption is the
//! private `hw` module (`x86_64` only), which wraps the one SIMD kernel.
//! Its safe entry point asserts CPU-feature detection before calling into
//! the `#[target_feature]` function, and the kernel is differential-tested
//! against the table kernels.

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// The IEEE 802.3 polynomial (reflected form), used by Ethernet and zlib.
pub const POLY_IEEE: u32 = 0xEDB8_8320;

/// Which update kernel a [`Crc32`] engine dispatches to. Chosen once at
/// construction from runtime CPU feature detection — never on the
/// per-call path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Portable slice-by-16 table kernel (always available).
    Slice16,
    /// `x86_64` PCLMULQDQ carry-less-multiply folding.
    #[cfg(target_arch = "x86_64")]
    Clmul,
}

fn select_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if hw::have_clmul() {
        return Kernel::Clmul;
    }
    Kernel::Slice16
}

/// The raw IEEE CRC32 engine (init = xorout = 0): the variant for which
/// `crc(a ^ b) == crc(a) ^ crc(b)` holds exactly, and the one SOLAR's
/// aggregation check uses.
pub struct Crc32 {
    table: [[u32; 256]; 16],
    kernel: Kernel,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Build the engine; the fastest kernel the CPU supports is selected
    /// here, once.
    pub fn new() -> Self {
        let mut table = [[0u32; 256]; 16];
        for n in 0..256u32 {
            let mut c = n;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ POLY_IEEE
                } else {
                    c >> 1
                };
            }
            table[0][n as usize] = c;
        }
        for k in 1..16 {
            for n in 0..256usize {
                let prev = table[k - 1][n];
                table[k][n] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            }
        }
        Crc32 {
            table,
            kernel: select_kernel(),
        }
    }

    /// The raw CRC of `data` in one shot.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        self.update(0, data)
    }

    /// Feed `data` into an in-flight state (0 to begin; the state *is*
    /// the raw CRC so far), dispatching to the kernel chosen at
    /// construction. All kernels compute the identical state function, so
    /// incremental mixes of kernels agree bit-for-bit.
    pub fn update(&self, state: u32, data: &[u8]) -> u32 {
        match self.kernel {
            Kernel::Slice16 => self.update_slice16(state, data),
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul => {
                let (state, rest) = hw::ieee_clmul_update(state, data);
                self.update_slice16(state, rest)
            }
        }
    }

    /// The portable slice-by-16 table kernel (two 64-bit loads, sixteen
    /// table lookups per iteration). Used directly when no hardware kernel
    /// applies and for the sub-16-byte tails of the PCLMULQDQ path.
    ///
    /// The lookups are written as a compact accumulator loop rather than
    /// one sixteen-term XOR expression: LLVM turns this form into
    /// substantially better code (~2.5× slice-by-8 here vs ~1.3× for the
    /// chained expression, which it schedules as a serial XOR chain).
    pub fn update_slice16(&self, mut state: u32, data: &[u8]) -> u32 {
        let t = &self.table;
        let mut chunks = data.chunks_exact(16);
        for c in &mut chunks {
            let lo = u64::from_le_bytes(c[..8].try_into().unwrap()) ^ u64::from(state);
            let hi = u64::from_le_bytes(c[8..].try_into().unwrap());
            let mut acc = 0u32;
            for (i, w) in [lo, hi].into_iter().enumerate() {
                let base = 15 - i * 8;
                for j in 0..8 {
                    acc ^= t[base - j][((w >> (8 * j)) & 0xFF) as usize];
                }
            }
            state = acc;
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// The previous-generation slice-by-8 kernel, kept as the reference
    /// baseline for differential tests and the `crc32_4k` benchmark.
    pub fn update_slice8(&self, mut state: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            state ^= u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            state = self.table[7][(state & 0xFF) as usize]
                ^ self.table[6][((state >> 8) & 0xFF) as usize]
                ^ self.table[5][((state >> 16) & 0xFF) as usize]
                ^ self.table[4][(state >> 24) as usize]
                ^ self.table[3][(hi & 0xFF) as usize]
                ^ self.table[2][((hi >> 8) & 0xFF) as usize]
                ^ self.table[1][((hi >> 16) & 0xFF) as usize]
                ^ self.table[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ self.table[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// Human-readable name of the dispatched kernel (`"slice16"` or
    /// `"pclmulqdq"`) — surfaced in benches and logs.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            Kernel::Slice16 => "slice16",
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul => "pclmulqdq",
        }
    }

    /// Pin this engine to the portable slice-by-16 kernel regardless of
    /// CPU support — for differential tests and benchmark baselines.
    pub fn force_portable(mut self) -> Self {
        self.kernel = Kernel::Slice16;
        self
    }
}

/// The hardware CRC kernel — the crate's **only** `unsafe` code, scoped
/// to this module per the isolation policy in the crate docs.
///
/// The entry point is a safe function that asserts the required CPU
/// features (detection results are cached by `std`, so the check is a
/// relaxed atomic load) before entering the `#[target_feature]` internals.
/// [`select_kernel`] only routes here when detection already succeeded, so
/// the assertion is second-line defence for direct callers.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw {
    use core::arch::x86_64::*;
    use std::arch::is_x86_feature_detected;

    /// True if PCLMULQDQ folding (plus the SSE4.1 extract it needs) is
    /// available.
    pub fn have_clmul() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// IEEE CRC32 state update by PCLMULQDQ folding over the largest
    /// 16-byte-aligned prefix (when ≥ 64 bytes). Returns the new state and
    /// the unconsumed tail for the caller's table kernel. Constants and
    /// reduction follow the classic zlib/Intel "Fast CRC Computation Using
    /// PCLMULQDQ" schedule for the reflected 0x104C11DB7 polynomial.
    pub fn ieee_clmul_update(state: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < 64 {
            return (state, data);
        }
        assert!(have_clmul(), "ieee_clmul_update requires PCLMULQDQ+SSE4.1");
        let folded = data.len() & !15;
        let (head, tail) = data.split_at(folded);
        // SAFETY: PCLMULQDQ and SSE4.1 support was just asserted, and
        // `head` is ≥ 64 bytes and a multiple of 16 by construction.
        let crc = unsafe { ieee_clmul(state, head) };
        (crc, tail)
    }

    // SAFETY contract: caller must ensure PCLMULQDQ+SSE4.1 are available
    // (the safe wrapper asserts both) and pass `data` of ≥ 64 bytes, a
    // multiple of 16 — every unaligned `load(off)` below stays in bounds
    // because `off + 16 <= data.len()` at each call site.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn ieee_clmul(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));

        // Folding constants: x^(64·k) mod P for the distances used below.
        let k1k2 = _mm_set_epi64x(0x0001_c6e4_1596, 0x0001_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x0000_ccaa_009e, 0x0001_7519_97d0);
        let k5k0 = _mm_set_epi64x(0, 0x0001_63cd_6124);
        let poly = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641);

        let load = |off: usize| -> __m128i {
            // SAFETY (caller-checked): `off + 16 <= data.len()` at every
            // call site; unaligned load is explicitly permitted.
            unsafe { _mm_loadu_si128(data.as_ptr().add(off) as *const __m128i) }
        };

        let mut x1 = load(0x00);
        let mut x2 = load(0x10);
        let mut x3 = load(0x20);
        let mut x4 = load(0x30);
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));

        let mut off = 64;
        // Fold 4×16 bytes at a distance of 64 bytes.
        while data.len() - off >= 64 {
            let x5 = _mm_clmulepi64_si128::<0x00>(x1, k1k2);
            let x6 = _mm_clmulepi64_si128::<0x00>(x2, k1k2);
            let x7 = _mm_clmulepi64_si128::<0x00>(x3, k1k2);
            let x8 = _mm_clmulepi64_si128::<0x00>(x4, k1k2);
            x1 = _mm_clmulepi64_si128::<0x11>(x1, k1k2);
            x2 = _mm_clmulepi64_si128::<0x11>(x2, k1k2);
            x3 = _mm_clmulepi64_si128::<0x11>(x3, k1k2);
            x4 = _mm_clmulepi64_si128::<0x11>(x4, k1k2);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), load(off));
            x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), load(off + 0x10));
            x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), load(off + 0x20));
            x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), load(off + 0x30));
            off += 64;
        }

        // Fold the four accumulators into one.
        let x5 = _mm_clmulepi64_si128::<0x00>(x1, k3k4);
        x1 = _mm_clmulepi64_si128::<0x11>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
        let x5 = _mm_clmulepi64_si128::<0x00>(x1, k3k4);
        x1 = _mm_clmulepi64_si128::<0x11>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
        let x5 = _mm_clmulepi64_si128::<0x00>(x1, k3k4);
        x1 = _mm_clmulepi64_si128::<0x11>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

        // Single 16-byte folds for the remaining aligned tail.
        while data.len() - off >= 16 {
            let x5 = _mm_clmulepi64_si128::<0x00>(x1, k3k4);
            x1 = _mm_clmulepi64_si128::<0x11>(x1, k3k4);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, load(off)), x5);
            off += 16;
        }
        debug_assert_eq!(off, data.len());

        // Fold 128 → 64 bits, then Barrett-reduce 64 → 32 bits.
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        x1 = _mm_srli_si128::<8>(x1);
        x1 = _mm_xor_si128(x1, x2);

        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_and_si128(x1, mask32);
        x1 = _mm_clmulepi64_si128::<0x00>(x1, k5k0);
        x1 = _mm_xor_si128(x1, x2);

        let mut x2 = _mm_and_si128(x1, mask32);
        x2 = _mm_clmulepi64_si128::<0x10>(x2, poly);
        x2 = _mm_and_si128(x2, mask32);
        x2 = _mm_clmulepi64_si128::<0x00>(x2, poly);
        x1 = _mm_xor_si128(x1, x2);

        _mm_extract_epi32::<1>(x1) as u32
    }
}

thread_local! {
    static IEEE_RAW: Crc32 = Crc32::new();
}

/// Raw (linear) IEEE CRC32 of `data` — `crc32_raw(a ^ b) ==
/// crc32_raw(a) ^ crc32_raw(b)` for equal-length `a`, `b`.
pub fn crc32_raw(data: &[u8]) -> u32 {
    IEEE_RAW.with(|c| c.checksum(data))
}

// --- SOLAR's segment-level aggregation check ----------------------------

/// Outcome of a segment-level CRC verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// Aggregate matched: with overwhelming probability every block and
    /// every hardware-computed CRC was correct.
    Ok,
    /// Aggregate mismatched: at least one block or CRC was corrupted
    /// (e.g. an FPGA bit flip); the I/O must be retried / repaired.
    Corrupt,
}

/// The software CRC aggregation check of §4.5.
///
/// The FPGA computes a raw CRC32 per 4 KiB block and ships it with the
/// packet. Software XOR-accumulates (a) the block payloads and (b) the
/// claimed CRCs, then performs **one** CRC over the XOR of the payloads:
/// by linearity of the raw CRC it must equal the XOR of the claimed CRCs.
/// A single bit flip in any payload or any claimed CRC breaks the equality
/// with probability `1 - 2^-32` per flipped segment.
pub struct SegmentChecker {
    block_size: usize,
    xor_acc: Vec<u8>,
    crc_acc: u32,
    blocks: usize,
}

impl SegmentChecker {
    /// A checker for segments of `block_size`-byte blocks (4096 in EBS).
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0);
        SegmentChecker {
            block_size,
            xor_acc: vec![0; block_size],
            crc_acc: 0,
            blocks: 0,
        }
    }

    /// Number of blocks accumulated so far.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Accumulate one block and the CRC the hardware claims for it.
    /// Blocks shorter than the configured size are zero-padded, matching
    /// the FPGA's fixed-width datapath.
    ///
    /// # Panics
    /// Panics if `block` is longer than the configured block size.
    pub fn add_block(&mut self, block: &[u8], claimed_raw_crc: u32) {
        assert!(block.len() <= self.block_size, "oversized block");
        // XOR 8 bytes at a time; the autovectorizer widens this further.
        let words = block.len() & !7;
        for (acc, b) in self.xor_acc[..words]
            .chunks_exact_mut(8)
            .zip(block[..words].chunks_exact(8))
        {
            let x = u64::from_le_bytes(acc[..].try_into().unwrap())
                ^ u64::from_le_bytes(b.try_into().unwrap());
            acc.copy_from_slice(&x.to_le_bytes());
        }
        for (acc, b) in self.xor_acc[words..].iter_mut().zip(block[words..].iter()) {
            *acc ^= *b;
        }
        self.crc_acc ^= claimed_raw_crc;
        self.blocks += 1;
    }

    /// Verify the aggregate and reset for the next segment.
    pub fn verify_and_reset(&mut self) -> SegmentVerdict {
        let expect = crc32_raw(&self.xor_acc);
        let verdict = if expect == self.crc_acc {
            SegmentVerdict::Ok
        } else {
            SegmentVerdict::Corrupt
        };
        self.xor_acc.fill(0);
        self.crc_acc = 0;
        self.blocks = 0;
        verdict
    }
}

/// Per-block raw CRC as the FPGA's CRC module computes it. Shorter blocks
/// are treated as zero-padded to `block_size` so that aggregation across
/// mixed sizes stays consistent.
///
/// # Panics
/// Panics if `block` is longer than `block_size`.
pub fn block_crc_raw(block: &[u8], block_size: usize) -> u32 {
    assert!(block.len() <= block_size, "oversized block");
    /// Padding is never materialised: the state is advanced over this
    /// chunk as many times as it takes.
    const ZEROS: [u8; 512] = [0; 512];
    IEEE_RAW.with(|c| {
        let mut state = c.checksum(block);
        let mut pad = block_size - block.len();
        while pad > 0 {
            let n = pad.min(ZEROS.len());
            state = c.update(state, &ZEROS[..n]);
            pad -= n;
        }
        state
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // "123456789" under the standard conditioning (init and xorout
        // all-ones) is the canonical IEEE check value; the raw state
        // function wrapped in that conditioning must reproduce it.
        let c = Crc32::new();
        assert_eq!(!c.update(!0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_raw(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let c = Crc32::new();
        let data = b"hello crc world, split me up";
        let mut st = 0;
        st = c.update(st, &data[..7]);
        st = c.update(st, &data[7..13]);
        st = c.update(st, &data[13..]);
        assert_eq!(st, c.checksum(data));
    }

    #[test]
    fn table_kernels_match_bitwise() {
        // Compare against a bit-at-a-time raw CRC.
        fn naive(data: &[u8]) -> u32 {
            let mut crc = 0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY_IEEE
                    } else {
                        crc >> 1
                    };
                }
            }
            crc
        }
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 13) as u8).collect();
        assert_eq!(crc32_raw(&data), naive(&data));
        assert_eq!(Crc32::new().update_slice8(0, &data), naive(&data));
    }

    #[test]
    fn all_kernels_agree_on_a_block() {
        // 4096 bytes of varied data, dispatched vs the two portable
        // kernels, from zero and non-zero starting states.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let engine = Crc32::new();
        for st in [0, 0xFFFF_FFFF, 0x1234_5678] {
            let dispatched = engine.update(st, &data);
            assert_eq!(dispatched, engine.update_slice16(st, &data), "slice16");
            assert_eq!(dispatched, engine.update_slice8(st, &data), "slice8");
        }
    }

    #[test]
    fn dispatch_is_incremental_like_the_table() {
        // The hardware kernel must compute the same *state function*, so
        // splitting at awkward offsets changes nothing.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 131) as u8).collect();
        let engine = Crc32::new();
        let mut st = 0;
        for chunk in data.chunks(97) {
            st = engine.update(st, chunk);
        }
        assert_eq!(st, engine.checksum(&data));
    }

    #[test]
    fn kernel_name_is_reported() {
        assert!(["slice16", "pclmulqdq"].contains(&Crc32::new().kernel_name()));
        assert_eq!(Crc32::new().force_portable().kernel_name(), "slice16");
    }

    #[test]
    fn raw_crc_is_linear() {
        let a: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        let x: Vec<u8> = a.iter().zip(b.iter()).map(|(p, q)| p ^ q).collect();
        assert_eq!(crc32_raw(&x), crc32_raw(&a) ^ crc32_raw(&b));
    }

    #[test]
    fn segment_checker_accepts_good_blocks() {
        let mut chk = SegmentChecker::new(64);
        for seed in 0..8u8 {
            let block: Vec<u8> = (0..64u32)
                .map(|i| (i as u8).wrapping_mul(seed + 1))
                .collect();
            chk.add_block(&block, crc32_raw(&block));
        }
        assert_eq!(chk.verify_and_reset(), SegmentVerdict::Ok);
    }

    #[test]
    fn segment_checker_detects_payload_flip() {
        let mut chk = SegmentChecker::new(64);
        let block = [0xABu8; 64];
        let crc = crc32_raw(&block);
        let mut bad = block;
        bad[17] ^= 0x10; // bit flip after CRC computation
        chk.add_block(&bad, crc);
        chk.add_block(&block, crc);
        assert_eq!(chk.verify_and_reset(), SegmentVerdict::Corrupt);
    }

    #[test]
    fn segment_checker_detects_crc_flip() {
        let mut chk = SegmentChecker::new(64);
        let block = [0x5Au8; 64];
        chk.add_block(&block, crc32_raw(&block) ^ 0x4000); // corrupted CRC
        assert_eq!(chk.verify_and_reset(), SegmentVerdict::Corrupt);
    }

    #[test]
    fn segment_checker_resets() {
        let mut chk = SegmentChecker::new(32);
        let block = [7u8; 32];
        chk.add_block(&block, 0xdead_beef); // wrong
        assert_eq!(chk.verify_and_reset(), SegmentVerdict::Corrupt);
        chk.add_block(&block, crc32_raw(&block));
        assert_eq!(chk.verify_and_reset(), SegmentVerdict::Ok);
    }

    #[test]
    fn short_blocks_are_padded() {
        let mut chk = SegmentChecker::new(64);
        let short = [9u8; 40];
        chk.add_block(&short, block_crc_raw(&short, 64));
        assert_eq!(chk.verify_and_reset(), SegmentVerdict::Ok);
    }
}
