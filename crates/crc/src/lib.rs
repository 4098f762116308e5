//! # ebs-crc — CRC32 engines and SOLAR's segment-level CRC aggregation
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
//! * [`Crc32`] — parameterised, reflected table CRC (IEEE and Castagnoli
//!   polynomials, standard and raw conditioning) with **runtime kernel
//!   dispatch**: portable slice-by-16 everywhere, plus `x86_64` SSE4.2
//!   `crc32` (Castagnoli) and PCLMULQDQ folding (IEEE) selected via
//!   `is_x86_feature_detected!` when the default `hw` feature is on;
//! * [`crc32`] / [`crc32c`] / [`crc32_raw`] — convenience one-shots;
//! * [`combine`] — zlib-style CRC concatenation (GF(2) matrix method);
//! * [`SegmentChecker`] — the software aggregation check of §4.5.
//!
//! ## Unsafe-isolation policy
//!
//! The crate denies `unsafe_code` globally; the **only** exemption is the
//! private `hw` module (gated behind the `hw` feature and
//! `target_arch = "x86_64"`), which wraps the two SIMD kernels. Every
//! `unsafe` entry point asserts CPU-feature detection before calling into
//! a `#[target_feature]` function, and every kernel is differential-tested
//! against the table engine. Build with `--no-default-features` for a
//! fully `forbid(unsafe_code)`-equivalent portable crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// The IEEE 802.3 polynomial (reflected form), used by Ethernet and zlib.
pub const POLY_IEEE: u32 = 0xEDB8_8320;
/// The Castagnoli polynomial (reflected form), used by iSCSI and ext4.
pub const POLY_CASTAGNOLI: u32 = 0x82F6_3B78;

/// Which update kernel a [`Crc32`] engine dispatches to. Chosen once at
/// construction from the polynomial, the `hw` feature, and runtime CPU
/// feature detection — never on the per-call path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Portable slice-by-16 table kernel (always available).
    Slice16,
    /// `x86_64` SSE4.2 `crc32` instruction — Castagnoli polynomial only.
    #[cfg(all(feature = "hw", target_arch = "x86_64"))]
    HwCrc32c,
    /// `x86_64` PCLMULQDQ carry-less-multiply folding — IEEE polynomial.
    #[cfg(all(feature = "hw", target_arch = "x86_64"))]
    HwClmulIeee,
}

fn select_kernel(poly: u32) -> Kernel {
    #[cfg(all(feature = "hw", target_arch = "x86_64"))]
    {
        if poly == POLY_CASTAGNOLI && hw::have_crc32c() {
            return Kernel::HwCrc32c;
        }
        if poly == POLY_IEEE && hw::have_clmul() {
            return Kernel::HwClmulIeee;
        }
    }
    let _ = poly;
    Kernel::Slice16
}

/// A table-driven CRC32 engine with runtime-dispatched kernels.
pub struct Crc32 {
    table: [[u32; 256]; 16],
    init: u32,
    xorout: u32,
    kernel: Kernel,
}

impl Crc32 {
    /// Build an engine for `poly` (reflected) with the given pre/post
    /// conditioning. The fastest kernel the CPU supports for `poly` is
    /// selected here, once.
    pub fn with_params(poly: u32, init: u32, xorout: u32) -> Self {
        let mut table = [[0u32; 256]; 16];
        for n in 0..256u32 {
            let mut c = n;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ poly } else { c >> 1 };
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
            init,
            xorout,
            kernel: select_kernel(poly),
        }
    }

    /// The standard IEEE CRC32 (init = xorout = 0xFFFFFFFF), as used on the
    /// wire and by zlib's `crc32()`.
    pub fn ieee() -> Self {
        Self::with_params(POLY_IEEE, 0xFFFF_FFFF, 0xFFFF_FFFF)
    }

    /// The *raw* (linear) IEEE CRC32 with no conditioning: this is the
    /// variant for which `crc(a ^ b) == crc(a) ^ crc(b)` holds exactly, and
    /// the one SOLAR's aggregation check uses.
    pub fn ieee_raw() -> Self {
        Self::with_params(POLY_IEEE, 0, 0)
    }

    /// CRC32C (Castagnoli) with standard conditioning.
    pub fn castagnoli() -> Self {
        Self::with_params(POLY_CASTAGNOLI, 0xFFFF_FFFF, 0xFFFF_FFFF)
    }

    /// Compute the checksum of `data` in one shot.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        let mut state = self.init;
        state = self.update(state, data);
        state ^ self.xorout
    }

    /// Feed `data` into an in-flight state (obtained from [`Crc32::start`]),
    /// dispatching to the kernel chosen at construction. All kernels
    /// compute the identical state function, so incremental mixes of
    /// engines/kernels agree bit-for-bit.
    pub fn update(&self, state: u32, data: &[u8]) -> u32 {
        match self.kernel {
            Kernel::Slice16 => self.update_slice16(state, data),
            #[cfg(all(feature = "hw", target_arch = "x86_64"))]
            Kernel::HwCrc32c => hw::crc32c_update(state, data),
            #[cfg(all(feature = "hw", target_arch = "x86_64"))]
            Kernel::HwClmulIeee => {
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

    /// Human-readable name of the dispatched kernel (`"slice16"`,
    /// `"sse4.2-crc32"` or `"pclmulqdq"`) — surfaced in benches and logs.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            Kernel::Slice16 => "slice16",
            #[cfg(all(feature = "hw", target_arch = "x86_64"))]
            Kernel::HwCrc32c => "sse4.2-crc32",
            #[cfg(all(feature = "hw", target_arch = "x86_64"))]
            Kernel::HwClmulIeee => "pclmulqdq",
        }
    }

    /// Pin this engine to the portable slice-by-16 kernel regardless of
    /// CPU support — for differential tests and benchmark baselines.
    pub fn force_portable(mut self) -> Self {
        self.kernel = Kernel::Slice16;
        self
    }

    /// Begin incremental computation; feed with [`Crc32::update`], finish
    /// with [`Crc32::finish`].
    pub fn start(&self) -> u32 {
        self.init
    }

    /// Finish incremental computation.
    pub fn finish(&self, state: u32) -> u32 {
        state ^ self.xorout
    }
}

/// Hardware CRC kernels — the crate's **only** `unsafe` code, scoped to
/// this module per the isolation policy in the crate docs.
///
/// Both entry points are safe functions that assert the required CPU
/// features (detection results are cached by `std`, so the check is a
/// relaxed atomic load) before entering the `#[target_feature]` internals.
/// [`select_kernel`] only routes here when detection already succeeded, so
/// the assertions are second-line defence for direct callers.
#[cfg(all(feature = "hw", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod hw {
    use core::arch::x86_64::*;
    use std::arch::is_x86_feature_detected;

    /// True if the SSE4.2 `crc32` instruction is available.
    pub fn have_crc32c() -> bool {
        is_x86_feature_detected!("sse4.2")
    }

    /// True if PCLMULQDQ folding (plus the SSE4.1 extract it needs) is
    /// available.
    pub fn have_clmul() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// CRC32C state update via the dedicated `crc32` instruction: 8 bytes
    /// per `crc32q`, byte-wise tail. Identical state function to the
    /// Castagnoli table kernels.
    pub fn crc32c_update(state: u32, data: &[u8]) -> u32 {
        assert!(have_crc32c(), "crc32c_update requires SSE4.2");
        // SAFETY: SSE4.2 support was just asserted.
        unsafe { crc32c_sse42(state, data) }
    }

    // SAFETY contract: caller must ensure SSE4.2 is available (the safe
    // wrapper asserts it). The body itself only uses slice-bounded reads —
    // `chunks_exact(8)` guarantees every `try_into` sees exactly 8 bytes.
    #[target_feature(enable = "sse4.2")]
    unsafe fn crc32c_sse42(state: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(8);
        let mut c = u64::from(state);
        for ch in &mut chunks {
            c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().unwrap()));
        }
        let mut c = c as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
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
    static IEEE: Crc32 = Crc32::ieee();
    static IEEE_RAW: Crc32 = Crc32::ieee_raw();
    static CASTAGNOLI: Crc32 = Crc32::castagnoli();
}

/// Standard IEEE CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    IEEE.with(|c| c.checksum(data))
}

/// Raw (linear) IEEE CRC32 of `data` — `crc32_raw(a ^ b) ==
/// crc32_raw(a) ^ crc32_raw(b)` for equal-length `a`, `b`.
pub fn crc32_raw(data: &[u8]) -> u32 {
    IEEE_RAW.with(|c| c.checksum(data))
}

/// CRC32C (Castagnoli) of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    CASTAGNOLI.with(|c| c.checksum(data))
}

// --- CRC combination (zlib's gf2-matrix method) -------------------------

fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Combine `crc1 = crc32(A)` and `crc2 = crc32(B)` into `crc32(A ++ B)`
/// where `len2 = B.len()`, without touching the data. Used to CRC a large
/// I/O from its per-block CRCs when blocks are *concatenated* (the paper's
/// blocks are XOR-aggregated instead — see [`SegmentChecker`] — but RPC
/// payload assembly wants concatenation).
pub fn combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    let mut even = [0u32; 32];
    let mut odd = [0u32; 32];

    // odd = operator for one zero bit.
    odd[0] = POLY_IEEE;
    let mut row = 1u32;
    for item in odd.iter_mut().skip(1) {
        *item = row;
        row <<= 1;
    }
    gf2_matrix_square(&mut even, &odd); // 2 bits
    gf2_matrix_square(&mut odd, &even); // 4 bits

    let mut crc1 = crc1;
    let mut len2 = len2;
    loop {
        gf2_matrix_square(&mut even, &odd); // zero-byte operators
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&even, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&odd, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc1 ^ crc2
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
        let mut state = c.update(c.start(), block);
        let mut pad = block_size - block.len();
        while pad > 0 {
            let n = pad.min(ZEROS.len());
            state = c.update(state, &ZEROS[..n]);
            pad -= n;
        }
        c.finish(state)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // "123456789" — canonical check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let c = Crc32::ieee();
        let data = b"hello crc world, split me up";
        let mut st = c.start();
        st = c.update(st, &data[..7]);
        st = c.update(st, &data[7..13]);
        st = c.update(st, &data[13..]);
        assert_eq!(c.finish(st), c.checksum(data));
    }

    #[test]
    fn slice_by_8_matches_bytewise() {
        // Compare against a simple bit-at-a-time implementation.
        fn naive(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
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
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 13) as u8).collect();
        assert_eq!(crc32(&data), naive(&data));
    }

    #[test]
    fn all_kernels_agree_on_a_block() {
        // 4096 bytes of varied data through every engine, dispatched vs
        // the two portable kernels.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        for engine in [Crc32::ieee(), Crc32::ieee_raw(), Crc32::castagnoli()] {
            let st = engine.start();
            let dispatched = engine.update(st, &data);
            assert_eq!(dispatched, engine.update_slice16(st, &data), "slice16");
            assert_eq!(dispatched, engine.update_slice8(st, &data), "slice8");
        }
    }

    #[test]
    fn dispatch_is_incremental_like_the_table() {
        // Hardware kernels must compute the same *state function*, so
        // splitting at awkward offsets changes nothing.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 131) as u8).collect();
        for engine in [Crc32::ieee(), Crc32::castagnoli()] {
            let mut st = engine.start();
            for chunk in data.chunks(97) {
                st = engine.update(st, chunk);
            }
            assert_eq!(engine.finish(st), engine.checksum(&data));
        }
    }

    #[test]
    fn kernel_name_is_reported() {
        let names = ["slice16", "sse4.2-crc32", "pclmulqdq"];
        assert!(names.contains(&Crc32::ieee().kernel_name()));
        assert!(names.contains(&Crc32::castagnoli().kernel_name()));
        assert_eq!(Crc32::ieee().force_portable().kernel_name(), "slice16");
    }

    #[test]
    fn raw_crc_is_linear() {
        let a: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        let x: Vec<u8> = a.iter().zip(b.iter()).map(|(p, q)| p ^ q).collect();
        assert_eq!(crc32_raw(&x), crc32_raw(&a) ^ crc32_raw(&b));
    }

    #[test]
    fn standard_crc_is_not_linear() {
        // The conditioned CRC is affine, not linear — this is exactly why
        // the aggregation check must use the raw variant.
        let a = [1u8; 64];
        let b = [2u8; 64];
        let x: Vec<u8> = a.iter().zip(b.iter()).map(|(p, q)| p ^ q).collect();
        assert_ne!(crc32(&x), crc32(&a) ^ crc32(&b));
    }

    #[test]
    fn combine_matches_concatenation() {
        let a = b"first part of the stream";
        let b = b"and the second part, somewhat longer for good measure";
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(combine(crc32(a), crc32(b), b.len() as u64), crc32(&whole));
    }

    #[test]
    fn combine_with_empty_tail() {
        assert_eq!(combine(crc32(b"abc"), crc32(b""), 0), crc32(b"abc"));
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
