//! # ebs-crypto — the SEC (storage encryption) module
//!
//! EBS optionally encrypts virtual-disk data before it leaves the compute
//! server (Fig. 2 / Fig. 12: the SEC stage sits between CRC and PktGen in
//! the SOLAR FPGA pipeline). This crate supplies that stage:
//!
//! * [`chacha20_xor`] — a from-scratch RFC 8439 ChaCha20 keystream XOR;
//! * [`SecEngine`] — per-virtual-disk keying with deterministic
//!   block-address-derived nonces, so any 4 KiB block can be encrypted or
//!   decrypted independently (a hard requirement of SOLAR's
//!   one-block-one-packet design: there is no stream context shared across
//!   packets).
//!
//! ## Unsafe-isolation policy
//!
//! The crate denies `unsafe_code` globally; the **only** exemption is the
//! private `hw` module (`x86_64` only), and inside it `unsafe` is exactly
//! the calls from safe code into the two `#[target_feature]` kernels, each
//! behind an assertion of the CPU detection that guards it. Every kernel is
//! differential-tested against a from-the-RFC reference.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chacha;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;

pub use chacha::chacha20_xor;
use chacha::Kernel;

/// Per-virtual-disk encryption engine.
///
/// The nonce binds ciphertext to `(virtual disk, block address)` so blocks
/// can never be transplanted between addresses without detection, while
/// staying stateless per packet: words 0–1 are the 64-bit block address,
/// word 2 is the **low 32 bits** of `vd_id` (`vd_id as u32`). Two disks
/// whose ids agree in those 32 bits therefore share nonces, and keystream
/// uniqueness across disks rests on each disk having its own data key —
/// which is what a per-disk engine is for.
///
/// The keystream kernel (AVX-512, AVX2 or portable) is picked from CPU
/// detection when the engine is built, not per block.
#[derive(Clone)]
pub struct SecEngine {
    key: [u32; 8],
    enabled: bool,
    kernel: Kernel,
}

/// Shows whether the engine encrypts and which kernel it runs; never the key.
impl core::fmt::Debug for SecEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecEngine")
            .field("enabled", &self.enabled)
            .field("kernel", &self.kernel_name())
            .field("key", &"<redacted>")
            .finish()
    }
}

impl SecEngine {
    /// An engine holding the virtual disk's data key.
    pub fn new(key: [u8; 32]) -> Self {
        SecEngine {
            key: chacha::le_words(&key),
            enabled: true,
            kernel: Kernel::detected(),
        }
    }

    /// A pass-through engine for unencrypted disks.
    pub fn disabled() -> Self {
        SecEngine {
            enabled: false,
            ..Self::new([0; 32])
        }
    }

    /// Whether this disk encrypts data.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Name of the keystream kernel this engine runs (`"portable"`,
    /// `"avx2"` or `"avx512"`) — surfaced in `Debug`, benches and logs.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    fn state(&self, vd_id: u64, block_addr: u64) -> chacha::State {
        let nonce = [block_addr as u32, (block_addr >> 32) as u32, vd_id as u32];
        chacha::state(&self.key, 0, nonce)
    }

    /// Encrypt one block in place. A no-op for disabled engines.
    pub fn encrypt_block(&self, vd_id: u64, block_addr: u64, data: &mut [u8]) {
        if self.enabled {
            self.kernel.xor(self.state(vd_id, block_addr), None, data);
        }
    }

    /// Decrypt one block in place (ChaCha20 is an involution under XOR).
    pub fn decrypt_block(&self, vd_id: u64, block_addr: u64, data: &mut [u8]) {
        self.encrypt_block(vd_id, block_addr, data);
    }

    /// Encrypt the block `src` into `dst` in one sweep — the same bytes as
    /// copying `src` over `dst` and calling [`SecEngine::encrypt_block`],
    /// without the copy. A disabled engine copies `src` through.
    ///
    /// # Panics
    /// Panics if `src` and `dst` differ in length.
    pub fn encrypt_block_into(&self, vd_id: u64, block_addr: u64, src: &[u8], dst: &mut [u8]) {
        if self.enabled {
            let state = self.state(vd_id, block_addr);
            self.kernel.xor(state, Some(src), dst);
        } else {
            dst.copy_from_slice(src);
        }
    }

    /// Decrypt the block `src` into `dst` in one sweep; see
    /// [`SecEngine::encrypt_block_into`].
    ///
    /// # Panics
    /// Panics if `src` and `dst` differ in length.
    pub fn decrypt_block_into(&self, vd_id: u64, block_addr: u64, src: &[u8], dst: &mut [u8]) {
        self.encrypt_block_into(vd_id, block_addr, src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_per_block() {
        let eng = SecEngine::new([0x42; 32]);
        let original = vec![0xA5u8; 4096];
        let mut data = original.clone();
        eng.encrypt_block(1, 0x0F, &mut data);
        assert_ne!(data, original);
        eng.decrypt_block(1, 0x0F, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn blocks_encrypt_independently() {
        // The same plaintext at two addresses yields different ciphertexts
        // and each decrypts alone — no cross-packet state.
        let eng = SecEngine::new([0x42; 32]);
        let mut a = vec![1u8; 4096];
        let mut b = vec![1u8; 4096];
        eng.encrypt_block(1, 0, &mut a);
        eng.encrypt_block(1, 1, &mut b);
        assert_ne!(a, b);
        eng.decrypt_block(1, 1, &mut b);
        assert_eq!(b, vec![1u8; 4096]);
    }

    #[test]
    fn different_disks_differ() {
        let eng = SecEngine::new([0x42; 32]);
        let mut a = vec![1u8; 64];
        let mut b = vec![1u8; 64];
        eng.encrypt_block(1, 7, &mut a);
        eng.encrypt_block(2, 7, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_engine_is_identity() {
        let eng = SecEngine::disabled();
        let mut data = vec![9u8; 128];
        eng.encrypt_block(1, 1, &mut data);
        assert_eq!(data, vec![9u8; 128]);
        assert!(!eng.is_enabled());
    }
}
