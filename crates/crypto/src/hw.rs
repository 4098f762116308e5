//! `x86_64` vector kernels — the crate's **only** `unsafe` code.
//!
//! Both kernels keep the ChaCha20 state in the vertical layout: one vector
//! per state word, one lane per block, lane `l` working on block
//! `counter + l`. The rounds are then plain whole-vector add / xor / rotate
//! with no shuffles; after the final add the 16 × N word matrix is
//! transposed so that each vector holds consecutive keystream bytes of one
//! block, and the batch's keystream is XORed into the data in one pass.
//!
//! The kernels themselves are safe functions: every intrinsic they use is
//! register-to-register and safe to call from a function carrying the
//! matching `#[target_feature]` (vectors are unpacked with the `extract`
//! intrinsics rather than through pointer stores). What is left for
//! `unsafe` is exactly the two calls *into* those functions from code
//! compiled without the feature, each behind an assertion of the runtime
//! detection [`Kernel::available`](crate::chacha::Kernel::available) has
//! already done — second-line defence, a cached atomic load.

use core::arch::x86_64::*;
use std::arch::is_x86_feature_detected;

use crate::chacha::{double_round, src_at, xor_words, State};

/// True if the 8-block AVX2 kernel can run.
pub(crate) fn have_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// True if the 16-block AVX-512F kernel (and the AVX2 one its tail falls
/// through to) can run.
pub(crate) fn have_avx512() -> bool {
    is_x86_feature_detected!("avx512f") && have_avx2()
}

/// Run the AVX2 kernel over every whole 512-byte batch at the front of
/// `dst`, advancing `state`'s counter; returns the bytes covered.
pub(crate) fn xor_avx2(state: &mut State, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
    assert!(have_avx2(), "xor_avx2 requires AVX2");
    // SAFETY: AVX2 support was just asserted.
    unsafe { avx2::xor_batches(state, src, dst) }
}

/// Run the AVX-512 kernel over every whole 1 KiB batch at the front of
/// `dst`, advancing `state`'s counter; returns the bytes covered.
pub(crate) fn xor_avx512(state: &mut State, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
    assert!(have_avx512(), "xor_avx512 requires AVX-512F");
    // SAFETY: AVX-512F (and AVX2) support was just asserted.
    unsafe { avx512::xor_batches(state, src, dst) }
}

mod avx2 {
    use super::*;

    /// Blocks per pass.
    const N: usize = 8;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn xor_rotl(a: __m256i, b: __m256i, by: i32) -> __m256i {
        let v = _mm256_xor_si256(a, b);
        // Shift counts are constants at every call; LLVM folds them to
        // immediates (and the byte-multiple rotates to one `vpshufb`).
        _mm256_or_si256(
            _mm256_sll_epi32(v, _mm_cvtsi32_si128(by)),
            _mm256_srl_epi32(v, _mm_cvtsi32_si128(32 - by)),
        )
    }

    macro_rules! qr {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = xor_rotl($x[$d], $x[$a], 16);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = xor_rotl($x[$b], $x[$c], 12);
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = xor_rotl($x[$d], $x[$a], 8);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = xor_rotl($x[$b], $x[$c], 7);
        };
    }

    /// Transpose the 8 × 8 word matrix `x` (rows = state words, lanes =
    /// blocks): row `l` of the result is those 8 words of block `l`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(x: &[__m256i; 8]) -> [__m256i; 8] {
        let mut t = *x;
        for i in [0, 4] {
            // 4 × 4 transposes inside each 128-bit half.
            let (ab_lo, ab_hi) = (
                _mm256_unpacklo_epi32(x[i], x[i + 1]),
                _mm256_unpackhi_epi32(x[i], x[i + 1]),
            );
            let (cd_lo, cd_hi) = (
                _mm256_unpacklo_epi32(x[i + 2], x[i + 3]),
                _mm256_unpackhi_epi32(x[i + 2], x[i + 3]),
            );
            t[i] = _mm256_unpacklo_epi64(ab_lo, cd_lo);
            t[i + 1] = _mm256_unpackhi_epi64(ab_lo, cd_lo);
            t[i + 2] = _mm256_unpacklo_epi64(ab_hi, cd_hi);
            t[i + 3] = _mm256_unpackhi_epi64(ab_hi, cd_hi);
        }
        // Half `h` of `t[4i + j]` is words 4i..4i+4 of block 4h + j.
        let mut out = t;
        for j in 0..4 {
            out[j] = _mm256_permute2x128_si256::<0x20>(t[j], t[4 + j]);
            out[4 + j] = _mm256_permute2x128_si256::<0x31>(t[j], t[4 + j]);
        }
        out
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn words(v: __m256i) -> [u64; 4] {
        [
            _mm256_extract_epi64::<0>(v) as u64,
            _mm256_extract_epi64::<1>(v) as u64,
            _mm256_extract_epi64::<2>(v) as u64,
            _mm256_extract_epi64::<3>(v) as u64,
        ]
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn xor_batches(state: &mut State, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut at = 0;
        for batch in dst.chunks_exact_mut(64 * N) {
            let mut init = state.map(|w| _mm256_set1_epi32(w as i32));
            init[12] = _mm256_add_epi32(init[12], lanes);
            state[12] = state[12].wrapping_add(N as u32);
            let mut x = init;
            for _ in 0..10 {
                double_round!(qr, x);
            }
            for (x, init) in x.iter_mut().zip(init) {
                *x = _mm256_add_epi32(*x, init);
            }
            let (rows, _) = x.as_chunks::<8>();
            let halves = [transpose(&rows[0]), transpose(&rows[1])];
            let mut ks = [0u64; 8 * N];
            for (i, half) in ks.chunks_exact_mut(4).enumerate() {
                half.copy_from_slice(&words(halves[i % 2][i / 2]));
            }
            xor_words(&ks, src_at(src, at, 64 * N), batch);
            at += 64 * N;
        }
        at
    }
}

mod avx512 {
    use super::*;

    /// Blocks per pass.
    const N: usize = 16;

    macro_rules! qr {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($x[$d], $x[$a]));
            $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
            $x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($x[$b], $x[$c]));
            $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($x[$d], $x[$a]));
            $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
            $x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($x[$b], $x[$c]));
        };
    }

    /// Transpose the 16 × 16 word matrix `x` (rows = state words, lanes =
    /// blocks): row `l` of the result is the 64 keystream bytes of block `l`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn transpose(x: &[__m512i; 16]) -> [__m512i; 16] {
        let mut t = *x;
        for i in [0, 4, 8, 12] {
            // 4 × 4 transposes inside each 128-bit quarter.
            let (ab_lo, ab_hi) = (
                _mm512_unpacklo_epi32(x[i], x[i + 1]),
                _mm512_unpackhi_epi32(x[i], x[i + 1]),
            );
            let (cd_lo, cd_hi) = (
                _mm512_unpacklo_epi32(x[i + 2], x[i + 3]),
                _mm512_unpackhi_epi32(x[i + 2], x[i + 3]),
            );
            t[i] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
            t[i + 1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
            t[i + 2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
            t[i + 3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
        }
        // Quarter `q` of `t[4i + j]` is words 4i..4i+4 of block 4q + j;
        // gather the four quarters of each block, even quarters first.
        let mut out = t;
        for j in 0..4 {
            let q02_lo = _mm512_shuffle_i32x4::<0x88>(t[j], t[4 + j]);
            let q13_lo = _mm512_shuffle_i32x4::<0xdd>(t[j], t[4 + j]);
            let q02_hi = _mm512_shuffle_i32x4::<0x88>(t[8 + j], t[12 + j]);
            let q13_hi = _mm512_shuffle_i32x4::<0xdd>(t[8 + j], t[12 + j]);
            out[j] = _mm512_shuffle_i32x4::<0x88>(q02_lo, q02_hi);
            out[4 + j] = _mm512_shuffle_i32x4::<0x88>(q13_lo, q13_hi);
            out[8 + j] = _mm512_shuffle_i32x4::<0xdd>(q02_lo, q02_hi);
            out[12 + j] = _mm512_shuffle_i32x4::<0xdd>(q13_lo, q13_hi);
        }
        out
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn words(v: __m512i) -> [u64; 8] {
        let (lo, hi) = (
            _mm512_extracti64x4_epi64::<0>(v),
            _mm512_extracti64x4_epi64::<1>(v),
        );
        [
            _mm256_extract_epi64::<0>(lo) as u64,
            _mm256_extract_epi64::<1>(lo) as u64,
            _mm256_extract_epi64::<2>(lo) as u64,
            _mm256_extract_epi64::<3>(lo) as u64,
            _mm256_extract_epi64::<0>(hi) as u64,
            _mm256_extract_epi64::<1>(hi) as u64,
            _mm256_extract_epi64::<2>(hi) as u64,
            _mm256_extract_epi64::<3>(hi) as u64,
        ]
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn xor_batches(state: &mut State, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut at = 0;
        for batch in dst.chunks_exact_mut(64 * N) {
            let mut init = state.map(|w| _mm512_set1_epi32(w as i32));
            init[12] = _mm512_add_epi32(init[12], lanes);
            state[12] = state[12].wrapping_add(N as u32);
            let mut x = init;
            for _ in 0..10 {
                double_round!(qr, x);
            }
            for (x, init) in x.iter_mut().zip(init) {
                *x = _mm512_add_epi32(*x, init);
            }
            let blocks = transpose(&x);
            let mut ks = [0u64; 8 * N];
            for (block, v) in ks.chunks_exact_mut(8).zip(blocks) {
                block.copy_from_slice(&words(v));
            }
            xor_words(&ks, src_at(src, at, 64 * N), batch);
            at += 64 * N;
        }
        at
    }
}
