//! Corruption model producing realistic near-duplicate entities.
//!
//! Each duplicate copy of a master record passes every attribute through
//! [`corrupt_attr`], which applies character-level typos, token swaps,
//! truncation, case noise, or drops the value entirely. Each kind of dataset
//! picks one preset per attribute, so generators corrupt key attributes
//! (title) lightly and free-text attributes (abstract) heavily — which is
//! what makes *multiple* blocking functions necessary to cover all
//! duplicate pairs, as in the paper's Table I example where `⟨e4,e5⟩` lands
//! in different name-prefix blocks but the same state block.

use rand::rngs::StdRng;
use rand::Rng;

/// Per-attribute corruption rates, all probabilities in `[0, 1]`.
pub(crate) struct Corruption {
    /// Probability that the attribute is corrupted at all.
    corrupt_prob: f64,
    /// Given corruption, expected number of character edits (Poisson-ish,
    /// sampled as 1 + geometric).
    char_edits: f64,
    /// Probability of swapping two adjacent tokens (if ≥ 2 tokens).
    token_swap_prob: f64,
    /// Probability of truncating the value to its first half.
    truncate_prob: f64,
    /// Probability of flipping the case of the first character.
    case_flip_prob: f64,
    /// Probability the value goes missing entirely (empty string).
    missing_prob: f64,
}

/// Light corruption: suitable for blocking-key attributes; rarely touches
/// the first characters so most duplicates stay in the same prefix block.
pub(crate) const LIGHT: Corruption = Corruption {
    corrupt_prob: 0.35,
    char_edits: 1.2,
    token_swap_prob: 0.05,
    truncate_prob: 0.02,
    case_flip_prob: 0.05,
    missing_prob: 0.01,
};

/// Heavy corruption: free-text attributes.
pub(crate) const HEAVY: Corruption = Corruption {
    corrupt_prob: 0.6,
    char_edits: 2.5,
    token_swap_prob: 0.15,
    truncate_prob: 0.1,
    case_flip_prob: 0.1,
    missing_prob: 0.08,
};

/// Categorical attributes: either intact or missing/mistyped wholesale.
pub(crate) const CATEGORICAL: Corruption = Corruption {
    corrupt_prob: 0.12,
    char_edits: 1.0,
    token_swap_prob: 0.0,
    truncate_prob: 0.0,
    case_flip_prob: 0.1,
    missing_prob: 0.05,
};

/// Corrupt one attribute value according to `cfg`. Deterministic given the
/// RNG state.
pub(crate) fn corrupt_attr(rng: &mut StdRng, value: &str, cfg: &Corruption) -> String {
    if value.is_empty() || !rng.random_bool(cfg.corrupt_prob) {
        return value.to_string();
    }
    if rng.random_bool(cfg.missing_prob) {
        return String::new();
    }
    let mut chars: Vec<char> = value.chars().collect();

    if rng.random_bool(cfg.token_swap_prob) {
        chars = swap_adjacent_tokens(&chars, rng);
    }
    if rng.random_bool(cfg.truncate_prob) && chars.len() > 4 {
        chars.truncate(chars.len() / 2);
    }
    // 1 + geometric(1/char_edits) character edits.
    let mut edits = 1;
    while (edits as f64) < cfg.char_edits * 4.0 && rng.random_bool(edit_continue(cfg.char_edits)) {
        edits += 1;
    }
    for _ in 0..edits {
        apply_char_edit(&mut chars, rng);
    }
    if rng.random_bool(cfg.case_flip_prob) {
        if let Some(c) = chars.first_mut() {
            *c = if c.is_uppercase() {
                c.to_ascii_lowercase()
            } else {
                c.to_ascii_uppercase()
            };
        }
    }
    chars.into_iter().collect()
}

fn edit_continue(expected: f64) -> f64 {
    if expected <= 1.0 {
        0.0
    } else {
        (1.0 - 1.0 / expected).clamp(0.0, 0.95)
    }
}

fn swap_adjacent_tokens(chars: &[char], rng: &mut StdRng) -> Vec<char> {
    let s: String = chars.iter().collect();
    let mut tokens: Vec<&str> = s.split(' ').collect();
    if tokens.len() >= 2 {
        let i = rng.random_range(0..tokens.len() - 1);
        tokens.swap(i, i + 1);
    }
    tokens.join(" ").chars().collect()
}

/// One random character substitution, insertion, deletion, or transposition.
/// Edits are biased *away from position 0* (weighted towards the middle) so
/// that prefix blocking keys usually survive — but not always, which is
/// precisely why a single blocking function misses some duplicate pairs.
fn apply_char_edit(chars: &mut Vec<char>, rng: &mut StdRng) {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let rand_char = |rng: &mut StdRng| ALPHABET[rng.random_range(0..ALPHABET.len())] as char;
    if chars.is_empty() {
        chars.push(rand_char(rng));
        return;
    }
    // Position biased away from the very front: draw twice, keep the larger.
    let pos = {
        let a = rng.random_range(0..chars.len());
        let b = rng.random_range(0..chars.len());
        a.max(b)
    };
    match rng.random_range(0..4u8) {
        0 => chars[pos] = rand_char(rng),
        1 => chars.insert(pos, rand_char(rng)),
        2 => {
            if chars.len() > 1 {
                chars.remove(pos);
            }
        }
        _ => {
            if pos + 1 < chars.len() {
                chars.swap(pos, pos + 1);
            } else if pos > 0 {
                chars.swap(pos - 1, pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_prob_is_identity() {
        let cfg = Corruption {
            corrupt_prob: 0.0,
            ..LIGHT
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(
                corrupt_attr(&mut rng, "progressive er", &cfg),
                "progressive er"
            );
        }
    }

    #[test]
    fn corruption_usually_keeps_strings_close() {
        let cfg = LIGHT;
        let mut rng = StdRng::seed_from_u64(2);
        let original = "progressive entity resolution";
        let mut total_changed = 0;
        for _ in 0..200 {
            let out = corrupt_attr(&mut rng, original, &cfg);
            if out != original {
                total_changed += 1;
                // Light corruption shouldn't unrecognizably mangle the value.
                assert!(
                    out.is_empty() || out.len() as i64 >= original.len() as i64 / 2 - 2,
                    "over-mangled: {out:?}"
                );
            }
        }
        assert!(total_changed > 20, "some corruption should occur");
        assert!(
            total_changed < 160,
            "corruption rate should respect corrupt_prob"
        );
    }

    #[test]
    fn missing_values_occur_under_heavy_config() {
        let cfg = Corruption {
            corrupt_prob: 1.0,
            missing_prob: 0.5,
            ..HEAVY
        };
        let mut rng = StdRng::seed_from_u64(3);
        let empties = (0..200)
            .filter(|_| corrupt_attr(&mut rng, "value", &cfg).is_empty())
            .count();
        assert!((50..150).contains(&empties), "empties = {empties}");
    }

    #[test]
    fn prefix_usually_survives_light_corruption() {
        let cfg = LIGHT;
        let mut rng = StdRng::seed_from_u64(4);
        let original = "distributed query processing";
        let survived = (0..500)
            .filter(|_| {
                let out = corrupt_attr(&mut rng, original, &cfg);
                out.chars().take(2).collect::<String>()
                    == original.chars().take(2).collect::<String>()
            })
            .count();
        assert!(
            survived > 400,
            "2-char prefix should usually survive, got {survived}/500"
        );
        assert!(
            survived < 500,
            "prefix must sometimes break (that's why multiple blocking functions exist)"
        );
    }

    #[test]
    fn empty_input_stays_empty() {
        let cfg = HEAVY;
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(corrupt_attr(&mut rng, "", &cfg), "");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = HEAVY;
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                corrupt_attr(&mut r1, "some attribute value", &cfg),
                corrupt_attr(&mut r2, "some attribute value", &cfg)
            );
        }
    }
}
