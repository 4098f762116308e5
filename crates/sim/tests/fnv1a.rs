//! `Fnv1a` against the published FNV-1a 64-bit test vectors. RNG stream
//! labels, ECMP flow hashes and every metrics digest are this fold, so its
//! exact bits are part of each committed baseline.

use ebs_sim::Fnv1a;

fn of(s: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(s.as_bytes());
    h.finish()
}

#[test]
fn matches_the_published_vectors() {
    assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn u64_is_its_little_endian_bytes() {
    let mut h = Fnv1a::default();
    h.u64(0x0807_0605_0403_0201);
    let mut g = Fnv1a::default();
    g.bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(h.finish(), g.finish());
}
