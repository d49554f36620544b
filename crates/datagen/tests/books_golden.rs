//! Golden fingerprints of the books and publications generators' output.
//!
//! The generators' byte-exact output is load-bearing: experiment figures,
//! committed bench baselines and the committed `Prob(|X|)` tables assume
//! that `BookGen::new(n, seed)` and `PubGen::new(n, seed)` produce the same
//! dataset forever. These hashes pin the exact entities + ground truth so
//! refactors of the generation loop cannot silently change the RNG call
//! sequence.

use pper_datagen::{BookGen, PubGen};

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

#[test]
fn both_kinds_are_pinned_at_two_sizes() {
    let cases = [
        (
            "pubs (500, 7)",
            PubGen::new(500, 7).generate(),
            0xd49c6e8cafbcb5ab,
        ),
        (
            "pubs (2000, 42)",
            PubGen::new(2_000, 42).generate(),
            0xa26f54d519782288,
        ),
        (
            "books (2000, 42)",
            BookGen::new(2_000, 42).generate(),
            0x307ed39bd9fe97a8,
        ),
    ];
    for (what, ds, pinned) in cases {
        let fp = fingerprint(&ds);
        assert_eq!(fp, pinned, "{what} changed: {fp:#x} != pinned {pinned:#x}");
    }
}
