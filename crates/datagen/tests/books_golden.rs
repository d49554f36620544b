//! Golden fingerprint of the books generator's output.
//!
//! The generator's byte-exact output is load-bearing: experiment figures
//! and committed bench baselines assume that `BookGen::new(n, seed)`
//! produces the same dataset forever. This hash pins the exact entities +
//! ground truth so refactors of the generation loop cannot silently
//! change the RNG call sequence.

use pper_datagen::BookGen;

/// FNV-1a over every entity id, attribute byte, and cluster id, in order.
fn fingerprint(ds: &pper_datagen::Dataset) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for e in &ds.entities {
        mix(&e.id.to_le_bytes());
        for a in &e.attrs {
            mix(a.as_bytes());
            mix(&[0xff]);
        }
        mix(&ds.truth.cluster(e.id).to_le_bytes());
    }
    h
}

#[test]
fn books_output_is_pinned() {
    let ds = BookGen::new(500, 7).generate();
    let fp = fingerprint(&ds);
    assert_eq!(
        fp, GOLDEN,
        "BookGen output changed: fingerprint {fp:#x} != pinned {GOLDEN:#x}"
    );
}

const GOLDEN: u64 = 0x705507c0c26b9667;
