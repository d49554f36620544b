//! Offline stand-in for the `proptest` crate.
//!
//! Runs each `proptest!` test body against `cases` deterministically
//! seeded random inputs. No shrinking: a failing case panics with the
//! case index so it can be reproduced (generation is a pure function of
//! the case index). Supports the strategy surface this workspace uses:
//! integer and float ranges, a regex subset for strings (`.{m,n}` and
//! `[class]{m,n}`), tuples, `collection::vec`, `Vec<impl Strategy>`,
//! `prop_map`, and `prop_flat_map`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Runner configuration; only `cases` is consulted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        Self {
            cases,
            max_shrink_iters: 0,
        }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Generate an intermediate value, then generate from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut StdRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> S::Value {
        (**self).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3)
);

/// A vector of strategies generates a vector of one value from each —
/// proptest's "every element is its own strategy" form.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// String strategies from a regex subset: `.{m,n}` or `[class]{m,n}`
/// where `class` supports literal characters and `a-z` ranges. This is
/// all the workspace's patterns use; anything else panics loudly.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        let (alphabet, min, max) = parse_pattern(self);
        let len = rng.random_range(min..=max);
        (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect()
    }
}

/// Characters `.` may produce: a mix of ASCII, whitespace, and
/// multi-byte scalars so Unicode handling gets exercised.
const DOT_ALPHABET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'm', 'n', 'o', 's', 't', 'z', 'A', 'B', 'C', 'M', 'X',
    'Z', '0', '1', '7', '9', ' ', '-', '_', '.', ',', '\'', 'é', 'ß', 'ø', '中', '✓',
];

fn parse_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    let chars: Vec<char> = pattern.chars().collect();
    let (alphabet, rest_idx) = if chars.first() == Some(&'.') {
        (DOT_ALPHABET.to_vec(), 1)
    } else if chars.first() == Some(&'[') {
        let close = chars
            .iter()
            .position(|&c| c == ']')
            .unwrap_or_else(|| panic!("unclosed class in pattern `{pattern}`"));
        let mut alphabet = Vec::new();
        let mut i = 1;
        while i < close {
            if i + 2 < close && chars[i + 1] == '-' {
                let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
                assert!(lo <= hi, "bad range in pattern `{pattern}`");
                for c in lo..=hi {
                    alphabet.push(char::from_u32(c).expect("valid scalar range"));
                }
                i += 3;
            } else {
                alphabet.push(chars[i]);
                i += 1;
            }
        }
        assert!(!alphabet.is_empty(), "empty class in pattern `{pattern}`");
        (alphabet, close + 1)
    } else {
        panic!("unsupported pattern `{pattern}`: expected `.` or `[class]`");
    };

    let rest: String = chars[rest_idx..].iter().collect();
    let inner = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| {
            panic!("unsupported pattern `{pattern}`: expected `{{m,n}}` repetition")
        });
    let (min, max) = match inner.split_once(',') {
        Some((lo, hi)) => (
            lo.parse().expect("pattern min repeat"),
            hi.parse().expect("pattern max repeat"),
        ),
        None => {
            let n = inner.parse().expect("pattern repeat");
            (n, n)
        }
    };
    (alphabet, min, max)
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for vectors whose elements come from `element` and whose
    /// length is uniform over `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `vec(element, len_range)`: random-length vectors.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// The deterministic per-case generator: a fixed base seed mixed with
/// the case index, so case `k` reproduces independently of the others.
pub fn test_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(0x5EED_CA5E ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The case count a test runs: the configured count, at least one. The
/// `PROPTEST_CASES` environment variable reaches it only through
/// [`ProptestConfig::default`]; a config that sets `cases` itself runs
/// that many whatever the variable says.
pub fn resolve_cases(configured: u32) -> u64 {
    u64::from(configured.max(1))
}

/// Everything tests normally import.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Property-test entry macro. Each `#[test] fn name(arg in strategy, ...)`
/// item expands to a normal test running `cases` seeded iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __cases = $crate::resolve_cases(__cfg.cases);
            for __case in 0..__cases {
                let mut __rng = $crate::test_rng(__case);
                $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )*
                let __run = || -> () { $body };
                __run();
            }
        }
    )*};
}

/// Like `assert!` but inside a property body (no shrinking, so this is
/// a plain assertion).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Like `assert_eq!` inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Like `assert_ne!` inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = test_rng(0);
        for _ in 0..200 {
            let v = (0u32..10, 5usize..=6).generate(&mut rng);
            assert!(v.0 < 10);
            assert!((5..=6).contains(&v.1));
        }
    }

    #[test]
    fn string_patterns() {
        let mut rng = test_rng(1);
        for _ in 0..100 {
            let s = "[a-c ]{0,20}".generate(&mut rng);
            assert!(s.chars().count() <= 20);
            assert!(s.chars().all(|c| ('a'..='c').contains(&c) || c == ' '));
            let t = ".{1,16}".generate(&mut rng);
            let n = t.chars().count();
            assert!((1..=16).contains(&n));
        }
    }

    #[test]
    fn vec_of_strategies_is_elementwise() {
        let mut rng = test_rng(2);
        let strategies = vec![0u32..1, 5u32..6, 9u32..10];
        let v = strategies.generate(&mut rng);
        assert_eq!(v, vec![0, 5, 9]);
    }

    #[test]
    fn determinism_per_case() {
        let s = collection::vec(0u64..1000, 2..12);
        let a = s.generate(&mut test_rng(7));
        let b = s.generate(&mut test_rng(7));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn self_hosted_macro_works(x in 0u8..100, s in "[a-d]{0,6}",) {
            prop_assert!(x < 100);
            prop_assert!(s.len() <= 6);
        }
    }
}
