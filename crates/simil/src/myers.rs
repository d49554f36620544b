//! Myers' bit-parallel Levenshtein distance in its blocked (multi-word)
//! form (Myers 1999, in Hyyrö's formulation), for ASCII patterns and texts
//! of any length, read as byte slices — one byte per character, the form a
//! prepared signature keeps an ASCII value in.
//!
//! A pattern of `m` characters occupies `⌈m/64⌉` `u64` blocks per text
//! column. Each block runs the same step; the horizontal delta (−1, 0 or
//! +1) leaving a block's top bit is the carry into the block below it, the
//! top boundary feeds `+1` (global distance: `D[0][j] = j`), and the score
//! follows the delta at bit `(m − 1) % 64` of the last block. A pattern of
//! at most 64 characters is the one-block case: the same step, with the
//! block's state held in registers instead of the scratch vectors.
//!
//! The pattern's character-class bitmasks live in [`MyersScratch`], strided
//! by the word count of the current pattern (`peq[c · words + k]`), filled
//! before the scan and cleared afterwards by touching only the pattern's
//! own characters. Between calls the table is all-zero, so consecutive
//! patterns may use different word counts without any O(table) wipe, and
//! the buffers only ever grow — repeated calls through a warm scratch
//! perform no heap allocation.
//!
//! This computes the exact global edit distance (the same integer the
//! two-row DP produces), in O(⌈m/64⌉·|text|) word operations instead of
//! O(m·|text|) cell updates — the prepared and batch paths' kernel for
//! every ASCII Levenshtein term.

const WORD: usize = 64;
/// Table rows: one per ASCII character.
const ROWS: usize = 128;

/// Number of `u64` blocks a pattern of `m` characters occupies.
fn words_for(m: usize) -> usize {
    m.div_ceil(WORD)
}

/// One block of one text column. `pv`/`mv` are the block's vertical +1/−1
/// delta vectors (updated in place), `ph_in`/`mh_in` the 0/1 horizontal
/// carries entering at bit 0. Returns the horizontal +1/−1 delta vectors
/// before the shift; the caller reads the outgoing carry (or the score
/// delta) off the bit it needs.
#[inline(always)]
fn block_step(eq: u64, pv: &mut u64, mv: &mut u64, ph_in: u64, mh_in: u64) -> (u64, u64) {
    let xv = eq | *mv;
    let eq = eq | mh_in;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let ph_shifted = (ph << 1) | ph_in;
    let mh_shifted = (mh << 1) | mh_in;
    *pv = mh_shifted | !(xv | ph_shifted);
    *mv = ph_shifted & xv;
    (ph, mh)
}

/// Reusable buffers of the blocked scan: the character-class table and the
/// per-block vertical delta vectors. All-zero table between calls.
#[derive(Debug, Default)]
pub(crate) struct MyersScratch {
    /// `peq[c * words + k]`: bit `i` set iff `pattern[64·k + i] == c`.
    /// Holds `128 · words` slots for the widest pattern seen so far, a row
    /// per ASCII character.
    peq: Vec<u64>,
    /// Vertical positive deltas, one word per block (multi-word scan only).
    pv: Vec<u64>,
    /// Vertical negative deltas, one word per block.
    mv: Vec<u64>,
    /// Scans run through this scratch: how tests see that a pair was
    /// decided without one.
    #[cfg(test)]
    pub(crate) scans: usize,
}

impl MyersScratch {
    /// Populate the character-class table for `pattern` (ASCII, non-empty).
    /// The table must be all-zero on entry; undo with [`Self::clear`] on the
    /// same pattern. Splitting fill/scan/clear lets the batch path build one
    /// probe's table once and scan a whole block of candidates against it.
    pub(crate) fn fill(&mut self, pattern: &[u8]) {
        debug_assert!(!pattern.is_empty());
        let words = words_for(pattern.len());
        if self.peq.len() < ROWS * words {
            self.peq.resize(ROWS * words, 0);
            self.pv.resize(words, 0);
            self.mv.resize(words, 0);
        }
        let peq = &mut self.peq[..ROWS * words];
        for (k, block) in pattern.chunks(WORD).enumerate() {
            for (i, &c) in block.iter().enumerate() {
                debug_assert!(c.is_ascii());
                peq[c as usize * words + k] |= 1u64 << i;
            }
        }
    }

    /// Zero the table entries [`Self::fill`] touched, restoring the table to
    /// all-zero by visiting only the pattern's own characters.
    pub(crate) fn clear(&mut self, pattern: &[u8]) {
        let words = words_for(pattern.len());
        let peq = &mut self.peq[..ROWS * words];
        for (k, block) in pattern.chunks(WORD).enumerate() {
            for &c in block {
                peq[c as usize * words + k] = 0;
            }
        }
    }

    /// The scan against the filled table: exact Levenshtein distance between
    /// the pattern the table was filled from (of length `pattern_len`) and
    /// `text` (ASCII), in either length order. Leaves the table untouched,
    /// so one fill can serve many scans.
    pub(crate) fn scan(&mut self, pattern_len: usize, text: &[u8]) -> usize {
        let m = pattern_len;
        debug_assert!(m >= 1, "empty pattern");
        debug_assert!(text.is_ascii());
        #[cfg(test)]
        {
            self.scans += 1;
        }
        let words = words_for(m);
        let hibit = 1u64 << ((m - 1) % WORD);
        let mut score = m;
        if words == 1 {
            // One block: the vertical deltas stay in registers. Sent through
            // the loop below instead, the ≤ 64-char traffic ran `pubs-basic`
            // 1.5% slower, outside its run-to-run spread; the other three
            // benchmark workloads moved by at most 1.7% either way (10
            // alternating 20 s runs each, 2-vCPU host).
            let peq = &self.peq[..ROWS];
            let (mut pv, mut mv) = (!0u64, 0u64);
            for &c in text {
                let (ph, mh) = block_step(peq[c as usize], &mut pv, &mut mv, 1, 0);
                score += usize::from(ph & hibit != 0);
                score -= usize::from(mh & hibit != 0);
            }
            return score;
        }
        let peq = &self.peq[..ROWS * words];
        let pv = &mut self.pv[..words];
        let mv = &mut self.mv[..words];
        pv.fill(!0); // column 0: D[i][0] = i
        mv.fill(0);
        for &c in text {
            let eqs = &peq[c as usize * words..][..words];
            let (mut ph_in, mut mh_in) = (1u64, 0u64);
            let (mut ph, mut mh) = (0u64, 0u64);
            for k in 0..words {
                (ph, mh) = block_step(eqs[k], &mut pv[k], &mut mv[k], ph_in, mh_in);
                ph_in = ph >> (WORD - 1);
                mh_in = mh >> (WORD - 1);
            }
            score += usize::from(ph & hibit != 0);
            score -= usize::from(mh & hibit != 0);
        }
        score
    }

    /// Exact Levenshtein distance between `pattern` (ASCII, non-empty) and
    /// `text` (ASCII). The table must be all-zero on entry and is all-zero
    /// again on return.
    pub(crate) fn distance(&mut self, pattern: &[u8], text: &[u8]) -> usize {
        self.fill(pattern);
        let score = self.scan(pattern.len(), text);
        self.clear(pattern);
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::levenshtein;
    use proptest::prelude::*;

    /// Distance through `scratch`, asserting the table is all-zero again.
    fn myers_with(scratch: &mut MyersScratch, a: &str, b: &str) -> usize {
        let d = scratch.distance(a.as_bytes(), b.as_bytes());
        assert!(scratch.peq.iter().all(|&x| x == 0), "table must be cleared");
        d
    }

    fn myers(a: &str, b: &str) -> usize {
        myers_with(&mut MyersScratch::default(), a, b)
    }

    /// `len` characters cycling through a phrase, so blocks differ.
    fn text(len: usize, phase: usize) -> String {
        "the quick brown fox jumps over a lazy dog, twice; "
            .chars()
            .cycle()
            .skip(phase)
            .take(len)
            .collect()
    }

    /// Apply substitutions, insertions and deletions at scaled positions.
    fn edit(base: &str, edits: &[(u8, usize, u8)]) -> String {
        let mut s: Vec<char> = base.chars().collect();
        for &(kind, at, letter) in edits {
            let c = char::from(b'a' + letter);
            let pos = at % s.len().max(1);
            match kind % 3 {
                0 if !s.is_empty() => s[pos] = c,
                1 => s.insert(pos, c),
                _ if !s.is_empty() => {
                    s.remove(pos);
                }
                _ => {}
            }
        }
        s.into_iter().collect()
    }

    #[test]
    fn agrees_with_dp_on_known_cases() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("a", ""),
            ("same", "same"),
            ("abc", "xyzabcxyz"),
        ] {
            assert_eq!(myers(a, b), levenshtein(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn word_boundary_pattern_lengths() {
        for m in [1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 350] {
            let a = text(m, 0);
            // Identical, empty text, one edit in the last block, a text
            // shorter and a text longer than the pattern.
            assert_eq!(myers(&a, &a), 0, "m={m}");
            assert_eq!(myers(&a, ""), m, "m={m}");
            let mut last = a.clone();
            last.pop();
            last.push('#');
            assert_eq!(myers(&a, &last), 1, "m={m}");
            for b in [text(m / 2, 7), text(m + 40, 3), text(m, 11)] {
                assert_eq!(
                    myers(&a, &b),
                    levenshtein(&a, &b),
                    "m={m} n={}",
                    b.chars().count()
                );
            }
        }
    }

    #[test]
    fn table_is_zero_across_changing_word_counts() {
        // One scratch, word counts 6 → 1 → 3 → 2 → 6: a stale bit from an
        // earlier stride would corrupt a later distance.
        let mut scratch = MyersScratch::default();
        for (m, n) in [(350, 340), (20, 30), (130, 129), (65, 300), (350, 64)] {
            let (a, b) = (text(m, 1), text(n, 5));
            assert_eq!(
                myers_with(&mut scratch, &a, &b),
                levenshtein(&a, &b),
                "m={m} n={n}"
            );
        }
    }

    #[test]
    fn one_fill_serves_many_scans() {
        let pattern = text(150, 0).into_bytes();
        let mut scratch = MyersScratch::default();
        scratch.fill(&pattern);
        for n in [0, 1, 64, 149, 150, 151, 350] {
            let t = text(n, 9);
            assert_eq!(
                scratch.scan(pattern.len(), t.as_bytes()),
                levenshtein(&text(150, 0), &t),
                "n={n}"
            );
        }
        scratch.clear(&pattern);
        assert!(scratch.peq.iter().all(|&x| x == 0));
    }

    proptest! {
        #[test]
        fn prop_matches_two_row_dp(a in "[a-e]{1,64}", b in "[a-e]{0,90}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }

        #[test]
        fn prop_matches_dp_dense_alphabet(a in "[a-zA-Z0-9 .,']{1,40}", b in "[a-zA-Z0-9 .,']{0,60}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        // Far-apart regime: independent random strings, every word count up
        // to seven blocks on either side.
        #[test]
        fn prop_blocked_matches_dp_random(a in "[a-f ]{1,400}", b in "[a-f ]{0,400}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }

        // Near-duplicate regime (what a match decision actually sees): a few
        // edits scattered over a long string, so the carries between blocks
        // are mostly zero with isolated ±1 runs.
        #[test]
        fn prop_blocked_matches_dp_near_duplicates(
            base in "[a-z ]{60,360}",
            edits in proptest::collection::vec((0u8..3, 0usize..400, 0u8..26), 0..13),
        ) {
            let other = edit(&base, &edits);
            let d = levenshtein(&base, &other);
            prop_assert!(d <= edits.len());
            prop_assert_eq!(myers(&base, &other), d);
            if !other.is_empty() {
                prop_assert_eq!(myers(&other, &base), d);
            }
        }
    }
}
