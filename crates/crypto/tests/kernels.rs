//! What the SEC module promises its callers, checked through the public
//! API only — so against whichever kernel this CPU dispatches to. (The
//! every-kernel differential suite needs the crate-private kernel list and
//! lives beside it, in `src/chacha.rs`.)
//!
//! * the dispatched cipher passes the RFC 8439 vector;
//! * the bytes `SecEngine` puts on the wire are pinned, so a kernel change
//!   can never silently re-key every stored block;
//! * `*_block_into` is copy-then-in-place without the copy;
//! * `{:?}` never shows the key, and the nonce's `vd_id` truncation is what
//!   the documentation says it is.

use ebs_crypto::{chacha20_xor, SecEngine};
use proptest::prelude::*;

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

proptest! {
    /// One sweep from `src` into `dst` writes exactly what copying and
    /// ciphering in place does, for both directions and every length.
    #[test]
    fn block_into_equals_copy_then_in_place(
        seed in any::<u64>(),
        len in 0usize..=4159,
        vd_id in any::<u64>(),
        block_addr in any::<u64>(),
    ) {
        let eng = SecEngine::new(fill(32, seed).try_into().unwrap());
        let src = fill(len, !seed);
        let mut in_place = src.clone();
        eng.encrypt_block(vd_id, block_addr, &mut in_place);
        let mut into = vec![0xEE; len];
        eng.encrypt_block_into(vd_id, block_addr, &src, &mut into);
        prop_assert_eq!(&into, &in_place);
        let mut back = vec![0xEE; len];
        eng.decrypt_block_into(vd_id, block_addr, &into, &mut back);
        prop_assert_eq!(back, src);
    }
}

/// RFC 8439 §2.4.2.
#[test]
fn rfc8439_encrypt_vector() {
    let key: [u8; 32] = core::array::from_fn(|i| i as u8);
    let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let mut data = *b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
    chacha20_xor(&key, 1, &nonce, &mut data);
    assert_eq!(
        &data[..16],
        &[
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81
        ]
    );
    assert_eq!(&data[110..], &[0x5e, 0x42, 0x87, 0x4d]);
    chacha20_xor(&key, 1, &nonce, &mut data);
    assert!(data.starts_with(b"Ladies and Gentlemen"));
}

/// The bytes on the wire and in the store, pinned. These values were
/// produced by the single-block scalar implementation this crate started
/// with; every kernel since must reproduce them.
#[test]
fn on_wire_bytes_are_pinned() {
    let mut block = [0xA5u8; 4096];
    SecEngine::new([0x42; 32]).encrypt_block(1, 0x0F, &mut block);
    assert_eq!(
        block[..32],
        [
            0xa3, 0x44, 0xea, 0x4c, 0xa4, 0x83, 0x99, 0xe1, 0x26, 0xff, 0x40, 0x16, 0x74, 0xb9,
            0x4c, 0x68, 0x0f, 0x4b, 0xe7, 0xb5, 0xe9, 0xb2, 0xe5, 0xb3, 0x7a, 0xda, 0xac, 0xe0,
            0x35, 0x59, 0xdf, 0x4d
        ]
    );
    let fnv1a = block.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(fnv1a, 0x7ed8_5df8_68d1_abb6);
}

#[test]
fn disabled_engine_copies_through() {
    let eng = SecEngine::disabled();
    let src = [9u8; 100];
    let mut dst = [0u8; 100];
    eng.encrypt_block_into(1, 1, &src, &mut dst);
    assert_eq!(dst, src);
}

#[test]
#[should_panic(expected = "differ")]
fn block_into_rejects_mismatched_lengths() {
    SecEngine::new([1; 32]).encrypt_block_into(1, 1, &[0; 64], &mut [0; 63]);
}

/// `{:?}` of an engine — and so of anything that holds one — names the
/// kernel and says whether it encrypts, and gives away no key byte in any
/// radix a derived `Debug` could print it in.
#[test]
fn debug_redacts_the_key() {
    let shown = format!("{:?}", SecEngine::new([0xC7; 32]));
    assert!(
        shown.contains("enabled: true") && shown.contains("kernel"),
        "{shown}"
    );
    assert!(shown.contains("redacted"), "{shown}");
    for leak in ["199", "c7", "C7", "3351758791"] {
        assert!(!shown.contains(leak), "key material {leak:?} in {shown}");
    }
    assert!(format!("{:?}", SecEngine::disabled()).contains("enabled: false"));
}

/// The nonce carries `vd_id as u32`: disks 2³² apart share nonces under one
/// key, so it is the per-disk key that keeps their keystreams apart.
#[test]
fn nonce_carries_low_32_bits_of_vd_id() {
    let eng = SecEngine::new([0x42; 32]);
    let cipher = |eng: &SecEngine, vd_id: u64| {
        let mut block = [0u8; 64];
        eng.encrypt_block(vd_id, 7, &mut block);
        block
    };
    assert_eq!(cipher(&eng, 1), cipher(&eng, 1 + (1 << 32)));
    assert_ne!(cipher(&eng, 1), cipher(&eng, 2));
    assert_ne!(
        cipher(&eng, 1),
        cipher(&SecEngine::new([0x43; 32]), 1 + (1 << 32))
    );
}
