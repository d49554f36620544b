//! Blocking functions and families.
//!
//! The paper's blocking keys are all attribute prefixes (`title.sub(0, 2)`
//! etc., Table II). A [`BlockingFamily`] bundles one main function with its
//! sub-blocking functions; level 0 is the main function `X¹`, level `i` is
//! `X^{i+1}`.
//!
//! Sub-blocking functions must *refine* their parent: every child key must
//! map all its entities to a single parent key. Ascending prefix lengths on
//! the same attribute guarantee this; [`BlockingFamily::validate`] checks it
//! structurally and tree construction debug-asserts it on data.

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
    pub fn key(&self, entity: &Entity) -> String {
        let mut key = String::new();
        self.key_into(entity, &mut key);
        key
    }

    /// Append [`PrefixFunction::key`] of `entity` to `out`: a caller that
    /// extracts many keys reuses one buffer, and an ASCII prefix is copied
    /// and lowercased in place without allocating.
    pub fn key_into(&self, entity: &Entity, out: &mut String) {
        let value = entity.attr(self.attr);
        match self.ascii_prefix(value) {
            Some(prefix) => {
                let start = out.len();
                out.push_str(prefix);
                out[start..].make_ascii_lowercase();
            }
            // Each char is lowercased on its own, so the key of a longer
            // prefix extends the key of a shorter one: `str::to_lowercase`
            // would decide a Σ's case by where the cut falls.
            None => out.extend(value.chars().take(self.chars).flat_map(char::to_lowercase)),
        }
    }

    /// The first `chars` characters of `value` when they are all ASCII —
    /// one byte each, and lowercased by `to_ascii_lowercase` exactly as by
    /// `char::to_lowercase`. `None` sends the caller down the general
    /// Unicode path (multi-char lowercase mappings such as `İ`).
    fn ascii_prefix<'v>(&self, value: &'v str) -> Option<&'v str> {
        let head = &value.as_bytes()[..value.len().min(self.chars)];
        // An all-ASCII head ends on a char boundary: a continuation byte
        // only ever follows a non-ASCII lead byte.
        head.is_ascii().then(|| &value[..head.len()])
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

    /// Root (main-function) key of `entity`.
    pub fn root_key(&self, entity: &Entity) -> String {
        self.key_at(entity, 0)
    }

    /// Check the refinement property: all levels block on the same attribute
    /// with strictly increasing prefix lengths. (More general refining
    /// families are possible in principle; the paper's — Table II — are all
    /// of this shape.) The check is structural; each child block nests inside
    /// a unique parent because [`PrefixFunction::key_into`] lowercases char
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

        #[test]
        fn prop_key_into_appends_the_reference_key(
            value in "[abkABZİẞKΣσς 0]{0,10}",
            existing in "[abkABZİẞKΣσς 0]{0,6}",
            chars in 0usize..8,
        ) {
            let f = PrefixFunction::new(0, chars);
            let e = ent(&[&value]);
            let mut buf = existing.clone();
            f.key_into(&e, &mut buf);
            proptest::prop_assert_eq!(buf, existing + &reference_key(&f, &e));
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
