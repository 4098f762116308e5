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
//!   `x86_64` PCLMULQDQ folding, or VPCLMULQDQ folding over 512-bit vectors
//!   (AVX-512), when `is_x86_feature_detected!` finds them;
//! * [`crc32_raw`] / [`block_crc_raw`] — the one-shots the data path uses;
//! * [`SegmentChecker`] — the software aggregation check of §4.5.
//!
//! ## Unsafe-isolation policy
//!
//! The crate denies `unsafe_code` globally; the **only** exemption is the
//! private `hw` module (`x86_64` only), which wraps the two SIMD kernels.
//! Each safe entry point asserts CPU-feature detection before calling into
//! the `#[target_feature]` functions, and every kernel the CPU has is
//! differential-tested against the table kernels.

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
    /// `x86_64` PCLMULQDQ folding, four 128-bit accumulators.
    #[cfg(target_arch = "x86_64")]
    Clmul,
    /// `x86_64` VPCLMULQDQ folding, four 512-bit accumulators; inputs
    /// under 256 bytes fall through to [`Kernel::Clmul`].
    #[cfg(target_arch = "x86_64")]
    Vpclmul,
}

impl Kernel {
    /// Every kernel this CPU can run, narrowest first.
    fn available() -> impl Iterator<Item = Kernel> {
        #[cfg(target_arch = "x86_64")]
        let hw = [
            hw::have_clmul().then_some(Kernel::Clmul),
            hw::have_vpclmul().then_some(Kernel::Vpclmul),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let hw: [Option<Kernel>; 0] = [];
        core::iter::once(Kernel::Slice16).chain(hw.into_iter().flatten())
    }
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
        // `available` always yields the portable kernel first.
        Self::with_kernel(Kernel::available().last().unwrap_or(Kernel::Slice16))
    }

    /// One engine per kernel this CPU can run, narrowest first: slice-by-16
    /// leads and the last is the one [`Crc32::new`] picks. For differential
    /// tests and per-kernel benchmarks.
    pub fn every_kernel() -> impl Iterator<Item = Crc32> {
        Kernel::available().map(Self::with_kernel)
    }

    fn with_kernel(kernel: Kernel) -> Self {
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
        Crc32 { table, kernel }
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
        // The folding kernels take a 16-byte-multiple prefix; the tables
        // finish whatever they leave.
        let (state, rest) = match self.kernel {
            Kernel::Slice16 => (state, data),
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul => hw::ieee_clmul_update(state, data),
            #[cfg(target_arch = "x86_64")]
            Kernel::Vpclmul => hw::ieee_vpclmul_update(state, data),
        };
        self.update_slice16(state, rest)
    }

    /// The portable slice-by-16 table kernel (two 64-bit loads, sixteen
    /// table lookups per iteration). Used directly when no hardware kernel
    /// applies and for the sub-16-byte tails of the folding kernels.
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

    /// Human-readable name of the dispatched kernel (`"slice16"`,
    /// `"pclmulqdq"` or `"vpclmulqdq"`) — surfaced in benches and logs.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            Kernel::Slice16 => "slice16",
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul => "pclmulqdq",
            #[cfg(target_arch = "x86_64")]
            Kernel::Vpclmul => "vpclmulqdq",
        }
    }
}

/// The hardware CRC kernels — the crate's **only** `unsafe` code, scoped
/// to this module per the isolation policy in the crate docs.
///
/// Each entry point is a safe function that asserts the required CPU
/// features (detection results are cached by `std`, so the check is a
/// relaxed atomic load) before entering the `#[target_feature]` internals.
/// [`Kernel::available`] only offers a kernel whose detection already
/// succeeded, so the assertions are second-line defence for direct
/// callers.
///
/// Both kernels fold with the classic zlib/Intel "Fast CRC Computation
/// Using PCLMULQDQ" schedule for the reflected 0x104C11DB7 polynomial. A
/// folding constant pair for a distance of `D` bits is
/// `(x^(D+32) mod P, x^(D-32) mod P)`, bit-reflected and shifted left one:
/// the low half multiplies a 128-bit lane's low 64 bits, the high half its
/// high 64 bits, and their XOR is the lane carried `D` bits forward.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw {
    use core::arch::x86_64::*;
    use std::arch::is_x86_feature_detected;

    // Folding constant pairs, `(high, low)` in `_mm_set_epi64x` order.
    /// Carries a 128-bit lane 512 bits (64 bytes) forward.
    const K512: (i64, i64) = (0x0001_c6e4_1596, 0x0001_5444_2bd4);
    /// Carries a 128-bit lane 128 bits (16 bytes) forward.
    const K128: (i64, i64) = (0x0000_ccaa_009e, 0x0001_7519_97d0);
    /// Carries a 128-bit lane 2048 bits (256 bytes) forward.
    const K2048: (i64, i64) = (0x0001_322d_1430, 0x0001_1542_778a);

    /// True if PCLMULQDQ folding (plus the SSE4.1 extract it needs) is
    /// available.
    pub fn have_clmul() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// True if VPCLMULQDQ folding over 512-bit vectors is available, along
    /// with the PCLMULQDQ reduction it finishes with.
    pub fn have_vpclmul() -> bool {
        have_clmul()
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("vpclmulqdq")
    }

    /// IEEE CRC32 state update by PCLMULQDQ folding over the largest
    /// 16-byte-aligned prefix (when ≥ 64 bytes). Returns the new state and
    /// the unconsumed tail for the caller's table kernel.
    pub fn ieee_clmul_update(state: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < 64 {
            return (state, data);
        }
        assert!(have_clmul(), "ieee_clmul_update requires PCLMULQDQ+SSE4.1");
        let (head, tail) = data.split_at(data.len() & !15);
        // SAFETY: PCLMULQDQ and SSE4.1 support was just asserted, and
        // `head` is ≥ 64 bytes and a multiple of 16 by construction.
        let crc = unsafe { ieee_clmul(state, head) };
        (crc, tail)
    }

    /// As [`ieee_clmul_update`], with VPCLMULQDQ folding 256 bytes per step
    /// when the input holds at least that much.
    pub fn ieee_vpclmul_update(state: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < 256 {
            return ieee_clmul_update(state, data);
        }
        assert!(
            have_vpclmul(),
            "ieee_vpclmul_update requires AVX-512F+VPCLMULQDQ+PCLMULQDQ+SSE4.1"
        );
        let (head, tail) = data.split_at(data.len() & !15);
        // SAFETY: every feature `ieee_vpclmul` enables was just asserted,
        // and `head` is ≥ 256 bytes and a multiple of 16 by construction.
        let crc = unsafe { ieee_vpclmul(state, head) };
        (crc, tail)
    }

    /// `x` carried forward by `k`'s distance, XORed into `y`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold128(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), y)
    }

    /// [`fold128`] on each of four 128-bit lanes at once.
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    fn fold512(x: __m512i, k: __m512i, y: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(x, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(x, k);
        // 0x96: the three-way XOR truth table.
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, y)
    }

    /// The CRC state after `data`, folded in 128-bit lanes.
    ///
    /// # Safety
    /// The CPU must have PCLMULQDQ and SSE4.1 ([`ieee_clmul_update`]
    /// asserts both), and `data` must hold at least 64 bytes: the first four
    /// loads read them. A length that is not a multiple of 16 is not
    /// undefined behaviour, but its last partial chunk is ignored.
    // SAFETY: callers uphold the contract above; every `load(off)` below
    // has `off + 16 <= data.len()`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn ieee_clmul(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let k512 = _mm_set_epi64x(K512.0, K512.1);
        let k128 = _mm_set_epi64x(K128.0, K128.1);

        let load = |off: usize| -> __m128i {
            // SAFETY (caller-checked): `off + 16 <= data.len()` at every
            // call site; unaligned load is explicitly permitted.
            unsafe { _mm_loadu_si128(data.as_ptr().add(off) as *const __m128i) }
        };

        let mut x1 = _mm_xor_si128(load(0x00), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(0x10);
        let mut x3 = load(0x20);
        let mut x4 = load(0x30);
        let mut off = 64;
        // Fold 4×16 bytes at a distance of 64 bytes.
        while data.len() - off >= 64 {
            x1 = fold128(x1, k512, load(off));
            x2 = fold128(x2, k512, load(off + 0x10));
            x3 = fold128(x3, k512, load(off + 0x20));
            x4 = fold128(x4, k512, load(off + 0x30));
            off += 64;
        }
        // Fold the four accumulators into one.
        let x = fold128(fold128(fold128(x1, k128, x2), k128, x3), k128, x4);
        // SAFETY: this function enables the features `finish` needs, and
        // `data[off..]` is a multiple of 16 bytes.
        unsafe { finish(x, &data[off..]) }
    }

    /// The CRC state after `data`, folded in 512-bit vectors.
    ///
    /// # Safety
    /// The CPU must have AVX-512F, VPCLMULQDQ, PCLMULQDQ and SSE4.1
    /// ([`ieee_vpclmul_update`] asserts all four), and `data` must hold at
    /// least 256 bytes: the first four loads read them. A length that is
    /// not a multiple of 16 is not undefined behaviour, but its last
    /// partial chunk is ignored.
    // SAFETY: callers uphold the contract above; every `load(off)` below
    // has `off + 64 <= data.len()`.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    unsafe fn ieee_vpclmul(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 256 && data.len().is_multiple_of(16));
        let k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2048.0, K2048.1));
        let k512 = _mm512_broadcast_i32x4(_mm_set_epi64x(K512.0, K512.1));
        let k128 = _mm_set_epi64x(K128.0, K128.1);

        let load = |off: usize| -> __m512i {
            // SAFETY (caller-checked): `off + 64 <= data.len()` at every
            // call site; unaligned load is explicitly permitted.
            unsafe { _mm512_loadu_si512(data.as_ptr().add(off).cast()) }
        };

        let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        let mut x1 = _mm512_xor_si512(load(0x00), seed);
        let mut x2 = load(0x40);
        let mut x3 = load(0x80);
        let mut x4 = load(0xc0);
        let mut off = 256;
        // Fold 4×64 bytes at a distance of 256 bytes.
        while data.len() - off >= 256 {
            x1 = fold512(x1, k2048, load(off));
            x2 = fold512(x2, k2048, load(off + 0x40));
            x3 = fold512(x3, k2048, load(off + 0x80));
            x4 = fold512(x4, k2048, load(off + 0xc0));
            off += 256;
        }
        // Fold the four accumulators into one.
        let x = fold512(fold512(fold512(x1, k512, x2), k512, x3), k512, x4);
        // Fold the vector's four 128-bit lanes into one, earliest first.
        let mut lane = _mm512_castsi512_si128(x);
        lane = fold128(lane, k128, _mm512_extracti32x4_epi32::<1>(x));
        lane = fold128(lane, k128, _mm512_extracti32x4_epi32::<2>(x));
        lane = fold128(lane, k128, _mm512_extracti32x4_epi32::<3>(x));
        // SAFETY: this function enables the features `finish` needs, and
        // `data[off..]` is a multiple of 16 bytes.
        unsafe { finish(lane, &data[off..]) }
    }

    /// Fold `rest` into the 128-bit remainder `x` 16 bytes at a time, then
    /// reduce it to the 32-bit CRC state. A partial last chunk of `rest`
    /// is ignored.
    ///
    /// # Safety
    /// The CPU must have PCLMULQDQ and SSE4.1.
    // SAFETY: callers uphold the contract above; every load below reads
    // one whole `chunks_exact(16)` chunk.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn finish(mut x: __m128i, rest: &[u8]) -> u32 {
        debug_assert!(rest.len().is_multiple_of(16));
        let k128 = _mm_set_epi64x(K128.0, K128.1);
        for chunk in rest.chunks_exact(16) {
            // SAFETY: `chunk` is 16 readable bytes; unaligned load is
            // explicitly permitted.
            let y = unsafe { _mm_loadu_si128(chunk.as_ptr() as *const __m128i) };
            x = fold128(x, k128, y);
        }

        // Fold 128 → 64 bits, then Barrett-reduce 64 → 32 bits.
        let k5k0 = _mm_set_epi64x(0, 0x0001_63cd_6124);
        let poly = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641);
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x2 = _mm_clmulepi64_si128::<0x10>(x, k128);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), x2);

        let x2 = _mm_srli_si128::<4>(x);
        x = _mm_and_si128(x, mask32);
        x = _mm_clmulepi64_si128::<0x00>(x, k5k0);
        x = _mm_xor_si128(x, x2);

        let mut x2 = _mm_and_si128(x, mask32);
        x2 = _mm_clmulepi64_si128::<0x10>(x2, poly);
        x2 = _mm_and_si128(x2, mask32);
        x2 = _mm_clmulepi64_si128::<0x00>(x2, poly);
        x = _mm_xor_si128(x, x2);

        _mm_extract_epi32::<1>(x) as u32
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
///
/// The accumulator is never cleared: a segment's first block is copied
/// into it (zero-padded if short) and later blocks XOR in, so what a
/// finished segment leaves behind is never read.
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
        self.crc_acc ^= claimed_raw_crc;
        self.blocks += 1;
        if self.blocks == 1 {
            let (head, pad) = self.xor_acc.split_at_mut(block.len());
            head.copy_from_slice(block);
            pad.fill(0);
            return;
        }
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
    }

    /// Verify the aggregate and reset for the next segment. An empty
    /// segment verifies: the raw CRC of all-zero bytes is 0, the XOR of no
    /// claimed CRCs.
    pub fn verify_and_reset(&mut self) -> SegmentVerdict {
        let ok = self.blocks == 0 || crc32_raw(&self.xor_acc) == self.crc_acc;
        let verdict = if ok {
            SegmentVerdict::Ok
        } else {
            SegmentVerdict::Corrupt
        };
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
        let names: Vec<&str> = Crc32::every_kernel().map(|e| e.kernel_name()).collect();
        assert_eq!(names[0], "slice16", "portable first");
        assert_eq!(
            names.last(),
            Some(&Crc32::new().kernel_name()),
            "dispatched last"
        );
        for name in names {
            assert!(["slice16", "pclmulqdq", "vpclmulqdq"].contains(&name));
        }
    }

    /// Every length through four 256-byte folding steps and the ragged
    /// tails after each, plus both sides of a 4 KiB block: each kernel
    /// against the slice-by-8 reference, from two starting states.
    #[test]
    fn every_kernel_matches_at_every_length() {
        let data: Vec<u8> = (0..4160u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let engines: Vec<Crc32> = Crc32::every_kernel().collect();
        for len in (0..=1100).chain(4080..=4160) {
            for st in [0, 0x9E37_79B9] {
                let want = engines[0].update_slice8(st, &data[..len]);
                for e in &engines {
                    assert_eq!(
                        e.update(st, &data[..len]),
                        want,
                        "{} len {len}",
                        e.kernel_name()
                    );
                }
            }
        }
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
