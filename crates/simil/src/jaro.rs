//! Jaro and Jaro-Winkler similarity — the classic record-linkage kernels for
//! short name-like strings (Hernández & Stolfo's merge/purge line of work,
//! the paper's reference \[3\], popularized these for person names).

/// Reusable buffers for [`jaro_chars_scratch`], so the prepared hot path
/// performs no heap allocation per pair (buffers grow to a high-water mark
/// and are reused).
#[derive(Debug, Default)]
pub(crate) struct JaroScratch {
    b_used: Vec<bool>,
    matches_a: Vec<char>,
    matches_b: Vec<char>,
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars_scratch(&a, &b, &mut JaroScratch::default())
}

/// Jaro over pre-collected char slices with caller-provided scratch. This
/// is the *only* implementation — the string entry point delegates here —
/// so the prepared path is bit-identical to the string path by
/// construction.
pub(crate) fn jaro_chars_scratch(a: &[char], b: &[char], s: &mut JaroScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    s.b_used.clear();
    s.b_used.resize(b.len(), false);
    s.matches_a.clear();

    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if !s.b_used[j] && cb == ca {
                s.b_used[j] = true;
                s.matches_a.push(ca);
                break;
            }
        }
    }
    let m = s.matches_a.len();
    if m == 0 {
        return 0.0;
    }
    s.matches_b.clear();
    s.matches_b.extend(
        b.iter()
            .zip(s.b_used.iter())
            .filter(|(_, &used)| used)
            .map(|(&c, _)| c),
    );
    let transpositions = s
        .matches_a
        .iter()
        .zip(s.matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by common-prefix length (up to 4)
/// with the standard scaling factor `p = 0.1`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Jaro-Winkler over pre-collected char slices with caller scratch (same
/// arithmetic as [`jaro_winkler`], on prepared buffers).
pub(crate) fn jaro_winkler_chars_scratch(a: &[char], b: &[char], s: &mut JaroScratch) -> f64 {
    let j = jaro_chars_scratch(a, b, s);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn textbook_values() {
        // Standard worked examples from the record-linkage literature.
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944_444_444_444_444_4));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.766_666_666_666_666_7));
        assert!(close(
            jaro_winkler("MARTHA", "MARHTA"),
            0.961_111_111_111_111_1
        ));
    }

    #[test]
    fn identical_and_disjoint() {
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro_winkler("abc", "abc"), 1.0);
    }

    #[test]
    fn winkler_boosts_prefix_matches() {
        // Same Jaro ingredients, but only one pair shares a prefix.
        let plain = jaro("charles", "gharles");
        assert!(jaro_winkler("charles", "charlez") > plain);
    }

    proptest! {
        #[test]
        fn prop_jaro_unit_interval(a in ".{0,16}", b in ".{0,16}") {
            let s = jaro(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        }

        #[test]
        fn prop_jaro_symmetric(a in "[a-f]{0,12}", b in "[a-f]{0,12}") {
            prop_assert!(close(jaro(&a, &b), jaro(&b, &a)));
        }

        #[test]
        fn prop_winkler_dominates_jaro(a in "[a-f]{0,12}", b in "[a-f]{0,12}") {
            prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
        }

        #[test]
        fn prop_identity_is_one(a in ".{1,16}") {
            prop_assert!(close(jaro(&a, &a), 1.0));
            prop_assert!(close(jaro_winkler(&a, &a), 1.0));
        }
    }
}
