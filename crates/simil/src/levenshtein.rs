//! Levenshtein edit distance as the classic two-row DP over Unicode scalar
//! values. It serves the string path ([`crate::MatchRule::score`]), which
//! tests and the benchmark's verification use as the oracle, and the
//! prepared and batch paths whenever either side is non-ASCII (generic over
//! the two element types a prepared value comes in, bytes and `char`s);
//! every ASCII/ASCII term on those paths runs the bit-parallel scan in
//! `crate::myers` instead, which returns the same integer.

/// Unbounded Levenshtein distance between `a` and `b` (Unicode scalar
/// values, two-row dynamic program, O(|a|·|b|) time, O(min) space).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

pub(crate) fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    let mut row = Vec::new();
    levenshtein_scratch(a, b, &mut row)
}

/// Two-row DP over pre-collected slices of bytes or `char`s — a prepared
/// signature holds an ASCII value as bytes and any other as `char`s, and a
/// pair may mix the two — reusing `row` as the DP buffer (the prepared path
/// calls this with a per-task scratch so a non-ASCII pair comparison
/// performs no heap allocation, whichever side — or both — is non-ASCII).
pub(crate) fn levenshtein_scratch<A: Copy + Into<u32>, B: Copy + Into<u32>>(
    a: &[A],
    b: &[B],
    row: &mut Vec<usize>,
) -> usize {
    // Keep the shorter string in the inner dimension for less memory.
    if a.len() <= b.len() {
        two_row_dp(a, b, row)
    } else {
        two_row_dp(b, a, row)
    }
}

fn two_row_dp<S: Copy + Into<u32>, L: Copy + Into<u32>>(
    short: &[S],
    long: &[L],
    row: &mut Vec<usize>,
) -> usize {
    if short.is_empty() {
        return long.len();
    }
    row.clear();
    row.extend(0..=short.len());
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc.into() != sc.into());
            let val = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[short.len()]
}

/// Normalized Levenshtein similarity: `1 - distance / max(len)`, in `[0,1]`.
/// Two empty strings are identical (similarity 1).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    // Collect each string once; the char buffers provide both the length
    // normalizer and the DP input.
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(&a, &b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("αβγ", "αβδ"), 1);
    }

    #[test]
    fn similarity_range_and_extremes() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("x", "x"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("john lopez", "john lopes");
        assert!(s > 0.8 && s < 1.0);
    }

    proptest! {
        #[test]
        fn prop_symmetric(a in ".{0,24}", b in ".{0,24}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn prop_identity(a in ".{0,24}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn prop_triangle_inequality(a in "[a-e]{0,10}", b in "[a-e]{0,10}", c in "[a-e]{0,10}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_similarity_in_unit_interval(a in ".{0,20}", b in ".{0,20}") {
            let s = levenshtein_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_distance_bounded_by_longer_len(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }
    }
}
