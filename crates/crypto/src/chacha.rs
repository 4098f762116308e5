//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! The paper's SEC module optionally encrypts block payloads inside the
//! FPGA pipeline (Fig. 12). The exact cipher Alibaba uses is not disclosed;
//! any symmetric cipher exercises the same pipeline stage, and ChaCha20 is
//! simple enough to implement dependency-free while being a real,
//! vector-testable algorithm.
//!
//! ## Kernels
//!
//! The keystream is a pure function of `(key, nonce, block counter)`, so
//! any number of 64-byte blocks can be computed side by side. Every kernel
//! here does that, differing only in how many:
//!
//! * `Portable` — two blocks interleaved in scalar registers (one block is
//!   bound by the latency of its own add/xor/rotate chain, two fill the
//!   idle issue slots), then single blocks for the tail;
//! * `Avx2` / `Avx512` (`x86_64`, private `hw` module) — 8 / 16 blocks in
//!   the *vertical* layout: vector `w` holds state word `w` of every block,
//!   lane `l` carries block `counter + l` (wrapping per lane), so a quarter
//!   round is twelve whole-vector instructions and no lane ever talks to
//!   another until the final transpose back to byte order.
//!
//! A wider kernel consumes whole batches and hands the remainder to the
//! next narrower one, so every input length runs through the same code the
//! tail tests exercise. The kernel is chosen from CPU detection once (per
//! [`SecEngine`](crate::SecEngine), and once per process for the free
//! [`chacha20_xor`]) — never per call, never by a knob.

use std::sync::OnceLock;

/// The ChaCha20 block function state: 16 32-bit words — constants, key,
/// block counter (word 12), nonce.
pub(crate) type State = [u32; 16];

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The `N` little-endian words at the front of `bytes` (a key is 8, a
/// nonce 3).
pub(crate) fn le_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    core::array::from_fn(|i| u32::from_le_bytes(core::array::from_fn(|b| bytes[4 * i + b])))
}

/// The state for block `counter` of the `(key, nonce)` keystream.
pub(crate) fn state(key: &[u32; 8], counter: u32, nonce: [u32; 3]) -> State {
    let mut s = [0; 16];
    s[..4].copy_from_slice(&SIGMA);
    s[4..12].copy_from_slice(key);
    s[12] = counter;
    s[13..].copy_from_slice(&nonce);
    s
}

/// The eight quarter rounds of one double round, by state-word index.
/// Shared by the scalar and the vector kernels (each supplies its own `qr`).
macro_rules! double_round {
    ($qr:ident, $x:ident) => {
        $qr!($x, 0, 4, 8, 12);
        $qr!($x, 1, 5, 9, 13);
        $qr!($x, 2, 6, 10, 14);
        $qr!($x, 3, 7, 11, 15);
        $qr!($x, 0, 5, 10, 15);
        $qr!($x, 1, 6, 11, 12);
        $qr!($x, 2, 7, 8, 13);
        $qr!($x, 3, 4, 9, 14);
    };
}
#[cfg(target_arch = "x86_64")]
pub(crate) use double_round;

macro_rules! scalar_qr {
    ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
        $x[$a] = $x[$a].wrapping_add($x[$b]);
        $x[$d] = ($x[$d] ^ $x[$a]).rotate_left(16);
        $x[$c] = $x[$c].wrapping_add($x[$d]);
        $x[$b] = ($x[$b] ^ $x[$c]).rotate_left(12);
        $x[$a] = $x[$a].wrapping_add($x[$b]);
        $x[$d] = ($x[$d] ^ $x[$a]).rotate_left(8);
        $x[$c] = $x[$c].wrapping_add($x[$d]);
        $x[$b] = ($x[$b] ^ $x[$c]).rotate_left(7);
    };
}

/// Keystream of the `N` blocks starting at `state`, as little-endian
/// 64-bit words in byte order, the `N` blocks interleaved through the
/// rounds. Advances the counter past them.
#[inline(always)]
fn scalar_blocks<const N: usize>(state: &mut State) -> [[u64; 8]; N] {
    let init: [State; N] = core::array::from_fn(|i| {
        let mut s = *state;
        s[12] = s[12].wrapping_add(i as u32);
        s
    });
    state[12] = state[12].wrapping_add(N as u32);
    let mut blocks = init;
    for _ in 0..10 {
        for x in &mut blocks {
            double_round!(scalar_qr, x);
        }
    }
    core::array::from_fn(|n| {
        let word = |w: usize| u64::from(blocks[n][w].wrapping_add(init[n][w]));
        core::array::from_fn(|i| word(2 * i) | word(2 * i + 1) << 32)
    })
}

/// `dst = src ^ ks` (or `dst ^= ks` without a `src`), a 64-bit word at a
/// time; all three cover the same number of bytes. Inlined into each
/// kernel so the loop is compiled at that kernel's vector width.
#[inline(always)]
pub(crate) fn xor_words(ks: &[u64], src: Option<&[u8]>, dst: &mut [u8]) {
    debug_assert_eq!(dst.len(), ks.len() * 8);
    let word = |b: &[u8]| u64::from_le_bytes(core::array::from_fn(|i| b[i]));
    match src {
        Some(src) => {
            debug_assert_eq!(src.len(), dst.len());
            let words = dst.chunks_exact_mut(8).zip(src.chunks_exact(8));
            for ((d, s), k) in words.zip(ks) {
                d.copy_from_slice(&(word(s) ^ k).to_le_bytes());
            }
        }
        None => {
            for (d, k) in dst.chunks_exact_mut(8).zip(ks) {
                let v = word(d) ^ k;
                d.copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Bytes `at..at + len` of `src`, when there is a `src`.
#[inline(always)]
pub(crate) fn src_at(src: Option<&[u8]>, at: usize, len: usize) -> Option<&[u8]> {
    match src {
        Some(s) => Some(&s[at..at + len]),
        None => None,
    }
}

/// The portable kernel: any length, any platform.
fn xor_portable(state: &mut State, src: Option<&[u8]>, dst: &mut [u8]) {
    let mut at = 0;
    while dst.len() - at >= 128 {
        let ks = scalar_blocks::<2>(state);
        xor_words(
            ks.as_flattened(),
            src_at(src, at, 128),
            &mut dst[at..at + 128],
        );
        at += 128;
    }
    // At most one whole block and one ragged one are left.
    while at < dst.len() {
        let [ks] = scalar_blocks::<1>(state);
        let n = (dst.len() - at).min(64);
        let (src, dst) = (src_at(src, at, n), &mut dst[at..at + n]);
        if n == 64 {
            xor_words(&ks, src, dst);
        } else {
            let ks = ks.iter().flat_map(|w| w.to_le_bytes());
            for (i, k) in ks.take(n).enumerate() {
                dst[i] = src.map_or(dst[i], |s| s[i]) ^ k;
            }
        }
        at += n;
    }
}

/// Which keystream kernel to run. Private to the crate on purpose: callers
/// cannot choose, tests walk [`Kernel::available`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Two interleaved scalar blocks — always available.
    Portable,
    /// `x86_64` AVX2, 8 blocks per pass.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `x86_64` AVX-512F, 16 blocks per pass.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every kernel this CPU can run, narrowest first.
    pub(crate) fn available() -> impl Iterator<Item = Kernel> {
        #[cfg(target_arch = "x86_64")]
        let hw = [
            crate::hw::have_avx2().then_some(Kernel::Avx2),
            crate::hw::have_avx512().then_some(Kernel::Avx512),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let hw: [Option<Kernel>; 0] = [];
        core::iter::once(Kernel::Portable).chain(hw.into_iter().flatten())
    }

    /// The widest available kernel; detection runs once per process.
    pub(crate) fn detected() -> Kernel {
        static DETECTED: OnceLock<Kernel> = OnceLock::new();
        *DETECTED.get_or_init(|| Kernel::available().last().unwrap_or(Kernel::Portable))
    }

    /// Name for `Debug` output and bench labels.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => "avx512",
        }
    }

    /// XOR the keystream starting at `state` over `dst.len()` bytes: read
    /// from `src` when given (same length as `dst`), else from `dst` itself.
    pub(crate) fn xor(self, mut state: State, src: Option<&[u8]>, dst: &mut [u8]) {
        if let Some(src) = src {
            assert_eq!(src.len(), dst.len(), "source and destination differ");
        }
        #[cfg(target_arch = "x86_64")]
        let at = self.xor_batches(&mut state, src, dst);
        #[cfg(not(target_arch = "x86_64"))]
        let at = 0;
        xor_portable(&mut state, src_at(src, at, dst.len() - at), &mut dst[at..]);
    }

    /// Run this kernel's whole vector batches over the front of `dst`, then
    /// the narrower vector kernel's; returns the bytes covered.
    #[cfg(target_arch = "x86_64")]
    fn xor_batches(self, state: &mut State, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
        match self {
            Kernel::Portable => 0,
            Kernel::Avx2 => crate::hw::xor_avx2(state, src, dst),
            Kernel::Avx512 => {
                let at = crate::hw::xor_avx512(state, src, dst);
                let src = src_at(src, at, dst.len() - at);
                at + crate::hw::xor_avx2(state, src, &mut dst[at..])
            }
        }
    }
}

/// XOR `data` with the ChaCha20 keystream for `(key, nonce)` starting at
/// block `counter` (which wraps modulo 2³²). Applying it twice restores the
/// plaintext.
pub fn chacha20_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    let state = state(&le_words(key), counter, le_words(nonce));
    Kernel::detected().xor(state, None, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The RFC 8439 §2.3 block function written the obvious way — the
    /// reference every kernel is compared against.
    fn reference_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
        fn quarter_round(s: &mut State, a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut s: State = [0; 16];
        s[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            s[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
        }
        s[12] = counter;
        for i in 0..3 {
            s[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
        }
        let init = s;
        for _ in 0..10 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = s[i].wrapping_add(init[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn reference_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        let mut ctr = counter;
        for chunk in data.chunks_mut(64) {
            let block = reference_block(key, ctr, nonce);
            for (d, k) in chunk.iter_mut().zip(block.iter()) {
                *d ^= *k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }

    /// `kernel` over `data`, in place and into a fresh buffer.
    fn run(kernel: Kernel, key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        let st = state(&le_words(key), counter, le_words(nonce));
        let mut in_place = data.to_vec();
        kernel.xor(st, None, &mut in_place);
        let mut into = vec![0xEE; data.len()];
        kernel.xor(st, Some(data), &mut into);
        assert_eq!(
            in_place,
            into,
            "{}: in-place and src->dst disagree",
            kernel.name()
        );
        in_place
    }

    const RFC_KEY: [u8; 32] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        25, 26, 27, 28, 29, 30, 31,
    ];

    /// RFC 8439 §2.3.2 block-function vector, through every kernel (XOR
    /// over zeros yields the raw keystream block).
    #[test]
    fn rfc8439_block_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let expect: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(reference_block(&RFC_KEY, 1, &nonce), expect);
        for kernel in Kernel::available() {
            // Alone, and as the last block of a batch wide enough for the
            // widest kernel (counter 1 = lane 17 of a run from 2³² − 16).
            assert_eq!(
                run(kernel, &RFC_KEY, 1, &nonce, &[0; 64]),
                expect,
                "{}",
                kernel.name()
            );
            let long = run(
                kernel,
                &RFC_KEY,
                1u32.wrapping_sub(17),
                &nonce,
                &[0; 18 * 64],
            );
            assert_eq!(long[17 * 64..], expect, "{} in batch", kernel.name());
        }
    }

    /// RFC 8439 §2.4.2 encryption vector, through every kernel.
    #[test]
    fn rfc8439_encrypt_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plain = *b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let expect: [u8; 114] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59,
            0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab,
            0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
            0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
            0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9,
            0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42,
            0x87, 0x4d,
        ];
        for kernel in Kernel::available() {
            let cipher = run(kernel, &RFC_KEY, 1, &nonce, &plain);
            assert_eq!(cipher, expect, "{}", kernel.name());
            // Decrypting restores the plaintext (keystream involution).
            assert_eq!(run(kernel, &RFC_KEY, 1, &nonce, &cipher), plain);
        }
        let mut data = plain;
        chacha20_xor(&RFC_KEY, 1, &nonce, &mut data);
        assert_eq!(data, expect, "dispatched");
    }

    #[test]
    fn portable_is_always_first_and_detected_is_available() {
        let all: Vec<Kernel> = Kernel::available().collect();
        assert_eq!(all[0], Kernel::Portable);
        assert!(all.contains(&Kernel::detected()));
        assert_eq!(Kernel::detected(), *all.last().unwrap());
    }

    /// Deterministic filler bytes.
    fn fill(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Every length up to 63 bytes past a 4 KiB block: the empty input,
    /// every sub-batch length and every ragged tail past a full 16-block
    /// batch, with the counter wrapping mid-run.
    #[test]
    fn every_length_matches_the_reference() {
        let key: [u8; 32] = fill(32, 1).try_into().unwrap();
        let nonce: [u8; 12] = fill(12, 2).try_into().unwrap();
        let data = fill(4159, 3);
        let counter = u32::MAX - 30;
        let mut want = data.clone();
        reference_xor(&key, counter, &nonce, &mut want);
        for kernel in Kernel::available() {
            for len in 0..=data.len() {
                // A prefix of the keystream XOR is the XOR of the prefix.
                let got = run(kernel, &key, counter, &nonce, &data[..len]);
                assert_eq!(got, want[..len], "{} len {len}", kernel.name());
            }
        }
    }

    /// Not a test: prints the cost per 4 KiB block of each available kernel
    /// and of the reference, which is the scalar body this crate shipped
    /// before it had kernels (the numbers in DESIGN.md §7). The kernel
    /// choice is deliberately not public, so the per-kernel comparison
    /// lives here rather than in the micro-bench: `cargo test --release -p
    /// ebs-crypto -- --ignored --nocapture kernel_throughput`.
    #[test]
    #[ignore = "timing printout, not a check"]
    fn kernel_throughput() {
        fn report(name: &str, mut pass: impl FnMut()) {
            let mut best = f64::MAX;
            for _ in 0..20 {
                let t = std::time::Instant::now();
                for _ in 0..2000 {
                    pass();
                }
                best = best.min(t.elapsed().as_nanos() as f64 / 2000.0);
            }
            println!(
                "{name:20} {best:7.0} ns / 4 KiB = {:.3} ns/B",
                best / 4096.0
            );
        }
        use std::hint::black_box;
        let st = state(&le_words(&RFC_KEY), 0, [1, 2, 3]);
        let src = fill(4096, 5);
        let mut dst = fill(4096, 6);
        report("reference", || {
            reference_xor(&RFC_KEY, 0, &[0; 12], black_box(&mut dst))
        });
        for kernel in Kernel::available() {
            let name = kernel.name();
            report(&format!("{name} in place"), || {
                kernel.xor(st, None, black_box(&mut dst))
            });
            report(&format!("{name} src->dst"), || {
                kernel.xor(st, Some(black_box(&src)), black_box(&mut dst))
            });
        }
    }

    proptest! {
        /// Arbitrary key, nonce, length and counter — anywhere, or close
        /// enough below 2³² that a lane counter wraps inside a batch.
        #[test]
        fn every_kernel_matches_the_reference(
            seed in any::<u64>(),
            len in 0usize..=4159,
            counter in any::<u32>(),
            near_wrap in any::<bool>(),
            below in 0u32..=20,
        ) {
            let key: [u8; 32] = fill(32, seed).try_into().unwrap();
            let nonce: [u8; 12] = fill(12, !seed).try_into().unwrap();
            let counter = if near_wrap { u32::MAX - below } else { counter };
            let data = fill(len, seed.rotate_left(17));
            let mut want = data.clone();
            reference_xor(&key, counter, &nonce, &mut want);
            for kernel in Kernel::available() {
                prop_assert_eq!(&run(kernel, &key, counter, &nonce, &data), &want, "{}", kernel.name());
            }
        }
    }
}
