//! Blocking functions and families.
//!
//! The paper's blocking keys are all attribute prefixes (`title.sub(0, 2)`
//! etc., Table II). A [`BlockingFamily`] bundles one main function with its
//! sub-blocking functions; level 0 is the main function `X¹`, level `i` is
//! `X^{i+1}`.
//!
//! The pipeline moves a key as a [`BlockingKey`]: the text of
//! [`PrefixFunction::key`], inline when it fits, ordered and hashed as
//! that text.
//!
//! Sub-blocking functions must *refine* their parent: every child key must
//! map all its entities to a single parent key. Ascending prefix lengths on
//! the same attribute guarantee this; [`BlockingFamily::validate`] checks it
//! structurally and tree construction debug-asserts it on data.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use pper_datagen::Entity;

/// A prefix blocking function: the first `chars` characters of attribute
/// `attr`, each lowercased on its own (so case noise does not split blocks,
/// and a longer prefix's key always extends a shorter one's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixFunction {
    /// Attribute index within the dataset schema.
    pub attr: usize,
    /// Prefix length in characters.
    pub chars: usize,
}

impl PrefixFunction {
    /// Construct a prefix function.
    pub fn new(attr: usize, chars: usize) -> Self {
        Self { attr, chars }
    }

    /// Blocking key of `entity`. Entities whose attribute is shorter than
    /// the prefix keep the whole value; a missing attribute keys to `""`.
    /// The pipeline moves the same text as a [`BlockingKey`]; this `String`
    /// is the definition its tests hold it to.
    pub fn key(&self, entity: &Entity) -> String {
        let value = entity.attr(self.attr);
        match self.ascii_prefix(value) {
            Some(prefix) => prefix.to_ascii_lowercase(),
            // Each char is lowercased on its own, so the key of a longer
            // prefix extends the key of a shorter one: `str::to_lowercase`
            // would decide a Σ's case by where the cut falls.
            None => value
                .chars()
                .take(self.chars)
                .flat_map(char::to_lowercase)
                .collect(),
        }
    }

    /// The first `chars` characters of `value` when they are all ASCII —
    /// one byte each, and lowercased by `to_ascii_lowercase` exactly as by
    /// `char::to_lowercase`. `None` sends the caller down the general
    /// Unicode path (multi-char lowercase mappings such as `İ`).
    #[inline]
    fn ascii_prefix<'v>(&self, value: &'v str) -> Option<&'v str> {
        let head = &value.as_bytes()[..value.len().min(self.chars)];
        // An all-ASCII head ends on a char boundary: a continuation byte
        // only ever follows a non-ASCII lead byte.
        head.is_ascii().then(|| &value[..head.len()])
    }
}

/// Bytes a [`BlockingKey`] keeps inline; 22 makes the key as large as a
/// `String`, so a shuffled record is no larger than with `String` keys.
const INLINE_KEY: usize = 22;

/// A blocking-key value as the pipeline moves it: job 1's and Basic's
/// shuffle key, job 1's root-key interner ([`crate::Signatures`]) and its
/// tree splits. A key of at most 22 bytes — every key of the presets on
/// every dataset of the generators — sits in the value itself, so moving or
/// dropping one allocates nothing, nor does making one from an ASCII
/// prefix; a longer one is boxed.
///
/// It stands for its `str` everywhere: `==`, `Ord` and `Hash` are the
/// text's, so a block keyed by it reaches the same reduce task, in the same
/// order, as one keyed by the [`PrefixFunction::key`] `String`. Its small
/// methods are `#[inline]`: the shuffles, Basic's smallest-key rule and the
/// tree splits call them from other crates, per record and per member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingKey(Repr);

/// The representation is chosen by length alone: at most [`INLINE_KEY`]
/// bytes is always `Inline`, longer always `Heap`. So the derived `==` is
/// `str`'s (an inline buffer is zero past its key, and keys of different
/// representations differ in length).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// The key in the value itself, zero-padded.
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    /// A longer key.
    Heap(Box<str>),
}

impl BlockingKey {
    /// The key whose text is `key`.
    pub fn new(key: &str) -> Self {
        if key.len() > INLINE_KEY {
            return Self(Repr::Heap(key.into()));
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..key.len()].copy_from_slice(key.as_bytes());
        Self::inline(key.len(), bytes)
    }

    /// `function`'s key of `entity`: the text of [`PrefixFunction::key`].
    /// An ASCII prefix of at most 22 bytes is lowercased straight into the
    /// key and allocates nothing; any other builds the `String` first.
    #[inline]
    pub fn of(function: &PrefixFunction, entity: &Entity) -> Self {
        match function.ascii_prefix(entity.attr(function.attr)) {
            Some(prefix) if prefix.len() <= INLINE_KEY => {
                let mut bytes = [0; INLINE_KEY];
                for (to, from) in bytes.iter_mut().zip(prefix.as_bytes()) {
                    *to = from.to_ascii_lowercase();
                }
                Self::inline(prefix.len(), bytes)
            }
            // A longer or non-ASCII prefix goes through the `String`.
            _ => Self::new(&function.key(entity)),
        }
    }

    #[inline]
    fn inline(len: usize, bytes: [u8; INLINE_KEY]) -> Self {
        Self(Repr::Inline {
            len: len as u8,
            bytes,
        })
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(key) => key.as_bytes(),
        }
    }

    /// The key's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        // Every key is a whole `str`'s bytes, so this never falls back.
        std::str::from_utf8(self.as_bytes()).unwrap_or_default()
    }
}

impl Ord for BlockingKey {
    /// `str`'s order is its bytes'.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for BlockingKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for BlockingKey {
    /// `str`'s hash: the hash partitioner sends a block to the reduce task
    /// its `String` key would go to.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// One main blocking function plus its sub-blocking functions.
///
/// `levels[0]` is the main function (`X¹`); `levels[1..]` are the
/// sub-blocking functions (`X², X³, …`), so `N(X¹) = levels.len() - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingFamily {
    /// Display name, e.g. `"X"`.
    pub name: String,
    /// Main function followed by sub-blocking functions.
    pub levels: Vec<PrefixFunction>,
}

impl BlockingFamily {
    /// Build a family from a name and its level functions.
    ///
    /// # Panics
    /// Panics if `levels` is empty or the refinement property does not hold
    /// structurally (see [`BlockingFamily::validate`]).
    pub fn new(name: impl Into<String>, levels: Vec<PrefixFunction>) -> Self {
        let family = Self {
            name: name.into(),
            levels,
        };
        family.validate();
        family
    }

    /// `N(X¹)`: the number of sub-blocking functions.
    pub fn num_sub_functions(&self) -> usize {
        self.levels.len() - 1
    }

    /// Number of levels (tree height + 1).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Key of `entity` at `level` (0 = root key).
    pub fn key_at(&self, entity: &Entity, level: usize) -> String {
        self.levels[level].key(entity)
    }

    /// Root (main-function) key of `entity`, as a `String`. The pipeline
    /// keys by [`BlockingKey::of`]; this stays for the tests' oracles and
    /// for the benchmark harness's shuffle probe, which emits job 1's
    /// `(family, String)` record shape until ROADMAP item 1(c).
    pub fn root_key(&self, entity: &Entity) -> String {
        self.key_at(entity, 0)
    }

    /// Check the refinement property: all levels block on the same attribute
    /// with strictly increasing prefix lengths. (More general refining
    /// families are possible in principle; the paper's — Table II — are all
    /// of this shape.) The check is structural; each child block nests inside
    /// a unique parent because [`PrefixFunction::key`] lowercases char
    /// by char, so a level's key is a prefix of the next level's key.
    ///
    /// # Panics
    /// Panics if the property is violated.
    pub fn validate(&self) {
        assert!(
            !self.levels.is_empty(),
            "blocking family '{}' needs at least the main function",
            self.name
        );
        let attr = self.levels[0].attr;
        assert!(
            self.levels.iter().all(|f| f.attr == attr),
            "blocking family '{}': all levels must block on one attribute",
            self.name
        );
        assert!(
            self.levels.windows(2).all(|w| w[0].chars < w[1].chars),
            "blocking family '{}': prefix lengths must strictly increase",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pper_datagen::Entity;
    use pper_mapreduce::fxhash::hash_one;

    fn ent(attrs: &[&str]) -> Entity {
        Entity::new(0, attrs.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn prefix_key_basic() {
        let f = PrefixFunction::new(0, 2);
        assert_eq!(f.key(&ent(&["John Lopez", "HI"])), "jo");
        assert_eq!(f.key(&ent(&["J"])), "j");
        assert_eq!(f.key(&ent(&[""])), "");
    }

    #[test]
    fn prefix_key_missing_attr() {
        let f = PrefixFunction::new(5, 3);
        assert_eq!(f.key(&ent(&["only one"])), "");
    }

    #[test]
    fn prefix_key_unicode_counts_chars() {
        let f = PrefixFunction::new(0, 3);
        assert_eq!(f.key(&ent(&["αβγδε"])), "αβγ");
    }

    #[test]
    fn case_insensitive_keys() {
        let f = PrefixFunction::new(0, 4);
        assert_eq!(f.key(&ent(&["John"])), f.key(&ent(&["JOHN"])));
    }

    #[test]
    fn family_accessors() {
        let fam = BlockingFamily::new(
            "X",
            vec![
                PrefixFunction::new(0, 2),
                PrefixFunction::new(0, 4),
                PrefixFunction::new(0, 8),
            ],
        );
        assert_eq!(fam.num_sub_functions(), 2);
        assert_eq!(fam.depth(), 3);
        let e = ent(&["progressive er"]);
        assert_eq!(fam.root_key(&e), "pr");
        assert_eq!(fam.key_at(&e, 1), "prog");
        assert_eq!(fam.key_at(&e, 2), "progress");
    }

    /// The definition of `key`: the first `chars` chars, each lowercased on
    /// its own — not the cut prefix as a string, whose final-sigma rule
    /// would make a Σ's key depend on where the cut falls.
    fn reference_key(f: &PrefixFunction, entity: &Entity) -> String {
        entity
            .attr(f.attr)
            .chars()
            .take(f.chars)
            .flat_map(char::to_lowercase)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2_000, ..Default::default() })]
        // Alphabet: ASCII of both cases plus the characters whose lowercase
        // mapping is not one char for one char — İ (two chars), ẞ, K (the
        // Kelvin sign, lowercases to ASCII k), and Σ next to letters and
        // spaces, where `str::to_lowercase` would pick the final sigma.
        #[test]
        fn prop_key_matches_the_reference_definition(
            value in "[abkABZİẞKΣσς 0]{0,10}",
            chars in 0usize..8,
        ) {
            let f = PrefixFunction::new(0, chars);
            let e = ent(&[&value]);
            proptest::prop_assert_eq!(f.key(&e), reference_key(&f, &e));
        }

        // Keys nest: a level's key is a prefix of the next level's, so
        // every block of a tree sits inside one parent.
        #[test]
        fn prop_key_at_a_level_is_a_prefix_of_the_next_levels(
            value in "[abkABZİẞKΣσς 0]{0,10}",
            first in 0usize..4,
            steps in proptest::collection::vec(1usize..4, 1..4),
        ) {
            // Strictly increasing prefix lengths, from `first` by `steps`.
            let lengths = steps.iter().scan(first, |chars, step| {
                *chars += step;
                Some(*chars)
            });
            let levels = std::iter::once(first)
                .chain(lengths)
                .map(|chars| PrefixFunction::new(0, chars))
                .collect();
            let family = BlockingFamily::new("X", levels);
            let e = ent(&[&value]);
            for level in 1..family.depth() {
                let (shorter, longer) = (family.key_at(&e, level - 1), family.key_at(&e, level));
                proptest::prop_assert!(
                    longer.starts_with(&shorter),
                    "{:?} at level {}: {:?} does not extend {:?}", value, level, longer, shorter
                );
            }
        }
    }

    /// `key` stands for `text` wherever the pipeline moves it: equal,
    /// ordered and hashed as `text` against `other_text`, alone and inside
    /// job 1's `(family, key)` and Basic's `(key, family)` records — the
    /// hash is the reduce task the partitioner picks.
    fn assert_key_parity(key: &BlockingKey, text: &str, other: &BlockingKey, other_text: &str) {
        assert_eq!(key.as_str(), text);
        assert_eq!(
            key == other,
            text == other_text,
            "{text:?} == {other_text:?}"
        );
        assert_eq!(
            key.cmp(other),
            text.cmp(other_text),
            "{text:?} cmp {other_text:?}"
        );
        assert_eq!(hash_one(key), hash_one(&text), "{text:?}");
        for f in [0u8, 2] {
            let (k, s) = ((f, key.clone()), (f, text.to_string()));
            let (ko, so) = ((1u8, other.clone()), (1u8, other_text.to_string()));
            assert_eq!(k.cmp(&ko), s.cmp(&so), "{text:?} cmp {other_text:?}");
            assert_eq!(hash_one(&k), hash_one(&s), "({f}, {text:?})");
            let (k, s) = ((key.clone(), f), (text.to_string(), f));
            let (ko, so) = ((other.clone(), 1u8), (other_text.to_string(), 1u8));
            assert_eq!(k == ko, s == so, "{text:?} == {other_text:?}");
            assert_eq!(k.cmp(&ko), s.cmp(&so), "{text:?} cmp {other_text:?}");
            assert_eq!(hash_one(&k), hash_one(&s), "({text:?}, {f})");
        }
    }

    #[test]
    fn keys_at_the_inline_capacity_are_strs() {
        let cap = INLINE_KEY;
        let a = |n: usize| "a".repeat(n);
        let texts = [
            String::new(),
            "\0".to_string(),
            "a".to_string(),
            "a\0".to_string(),
            "a\0\0".to_string(),
            "b".to_string(),
            a(cap - 1),
            a(cap),
            a(cap + 1),
            a(cap) + "\0",
            a(cap - 1) + "\0",
            a(cap) + "b",
            a(cap) + "c",
            a(cap - 1) + "b",
            // A two-byte char that fits, and one straddling the capacity.
            a(cap - 2) + "é",
            a(cap - 1) + "é",
            a(cap - 1) + "ñ",
            "i̇stanbul straße οδος".to_string(),
        ];
        // A record's key is no larger than with a `String`.
        #[cfg(target_pointer_width = "64")]
        {
            assert_eq!(size_of::<BlockingKey>(), size_of::<String>());
            assert_eq!(size_of::<(u8, BlockingKey)>(), size_of::<(u8, String)>());
        }
        for text in &texts {
            let key = BlockingKey::new(text);
            let inline = matches!(key.0, Repr::Inline { .. });
            assert_eq!(inline, text.len() <= cap, "{text:?}");
            for other in &texts {
                assert_key_parity(&key, text, &BlockingKey::new(other), other);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2_000, ..Default::default() })]
        // The alphabet of `stats`' `ids_collide_exactly_where_keys_do`
        // (İstanbul, ΟΔΟΣ/οδοσ, straße/STRASSE): keys that differ only in
        // case or go through non-ASCII lowercasing (İ to two chars, Σ to σ
        // or ς), with `\0` so zero padding is never mistaken for a key's
        // bytes. Two keys share a prefix that often reaches past the
        // capacity.
        #[test]
        fn prop_keys_order_compare_and_hash_as_strings(
            shared in "[aAsStTİiIΟΔΣοδσςßẞ\0 ]{0,24}",
            tail_a in "[aAsSİΣσςß\0 ]{0,4}",
            tail_b in "[aAsSİΣσςß\0 ]{0,4}",
            chars in 0usize..30,
        ) {
            let (a, b) = (shared.clone() + &tail_a, shared + &tail_b);
            assert_key_parity(&BlockingKey::new(&a), &a, &BlockingKey::new(&b), &b);

            let f = PrefixFunction::new(0, chars);
            let (ea, eb) = (ent(&[&a]), ent(&[&b]));
            let (ka, kb) = (BlockingKey::of(&f, &ea), BlockingKey::of(&f, &eb));
            assert_key_parity(&ka, &f.key(&ea), &kb, &f.key(&eb));
        }

        // `BlockingKey::of` is `PrefixFunction::key` in text, `==`, `Ord`
        // and partition, on values whose keys straddle the 22-byte inline
        // capacity: ASCII keys of 15 to 29 chars, and keys that reach it
        // through the two- and three-byte lowercase forms of this alphabet
        // (İ lowercases to "i̇", three bytes; K, the Kelvin sign, to an
        // ASCII k).
        #[test]
        fn prop_key_of_an_entity_is_its_prefix_key(
            shared in "[abkABZİẞKΣσς 0]{8,24}",
            tail_a in "[abkABZİẞKΣσς 0]{0,8}",
            tail_b in "[abkABZİẞKΣσς 0]{0,8}",
            chars in 10usize..30,
        ) {
            let f = PrefixFunction::new(0, chars);
            let (ea, eb) = (ent(&[&(shared.clone() + &tail_a)]), ent(&[&(shared + &tail_b)]));
            let (ka, kb) = (BlockingKey::of(&f, &ea), BlockingKey::of(&f, &eb));
            assert_key_parity(&ka, &f.key(&ea), &kb, &f.key(&eb));
            assert_eq!(ka, BlockingKey::new(&f.key(&ea)));
        }

        // The same for short ASCII keys next to non-ASCII ones.
        #[test]
        fn prop_short_key_of_an_entity_is_its_prefix_key(
            a in "[abkABZİẞKΣσς 0]{0,10}",
            b in "[abkABZİẞKΣσς 0]{0,10}",
            chars in 0usize..12,
        ) {
            let f = PrefixFunction::new(0, chars);
            let (ea, eb) = (ent(&[&a]), ent(&[&b]));
            let (ka, kb) = (BlockingKey::of(&f, &ea), BlockingKey::of(&f, &eb));
            assert_key_parity(&ka, &f.key(&ea), &kb, &f.key(&eb));
        }
    }

    #[test]
    fn key_of_a_missing_attribute_is_empty() {
        let f = PrefixFunction::new(3, 4);
        assert_eq!(
            BlockingKey::of(&f, &ent(&["only one"])),
            BlockingKey::new("")
        );
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_non_increasing_prefixes() {
        let _ = BlockingFamily::new(
            "X",
            vec![PrefixFunction::new(0, 4), PrefixFunction::new(0, 4)],
        );
    }

    #[test]
    #[should_panic(expected = "one attribute")]
    fn rejects_mixed_attributes() {
        let _ = BlockingFamily::new(
            "X",
            vec![PrefixFunction::new(0, 2), PrefixFunction::new(1, 4)],
        );
    }

    #[test]
    #[should_panic(expected = "at least the main function")]
    fn rejects_empty_family() {
        let _ = BlockingFamily::new("X", vec![]);
    }
}
