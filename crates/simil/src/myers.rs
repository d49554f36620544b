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
//!
//! # Long values: the band first
//!
//! A near-duplicate's distance is small next to its length, and an optimal
//! alignment of two values at distance `d` never strays more than `d`
//! diagonals from the main one: a path through cell `(i, j)` costs at least
//! `|i − j|`. [`MyersScratch::scan_band`] is Ukkonen's cut-off on these bit
//! vectors, in Hyyrö's diagonal formulation: given `k ≤` [`BAND`], it
//! computes one `u64` per text column whatever the pattern's length — the
//! 64 diagonals `−k ≤ i − j ≤ 63 − k`, which hold the `2k + 1` with
//! `|i − j| ≤ k` — and returns the distance if it is at most `k`, `None` if
//! it is larger.
//!
//! Bit `b` of column `j` is row `j − k + b`, so from one column to the next
//! the word moves one row down, and bit `b` stays on one diagonal. A column
//! runs the same step as a block of the full scan, except that its vertical
//! deltas are written straight into the next column's frame: a row's
//! horizontal delta is the carry into the row above, which the next frame
//! holds at the same bit, and the diagonal-zero bits move down one to meet
//! it. The pattern's bits for the column are a 64-bit window of the blocked
//! table, read from row `j − k`.
//!
//! The cell just outside either edge is taken at the cost of a real path to
//! it: the one above the top at its diagonal predecessor plus one (the
//! shift feeds a zero diagonal bit), the one below the bottom as no better
//! than its diagonal predecessor (no −1 carry enters bit 0). An outside
//! cell is thus only ever over-estimated, so every cell in the band is at
//! least its true value; and a cell whose true value is at most `k` has its
//! whole optimal path within `k` diagonals of the main one, inside the
//! band, and comes out exact. Hence the banded `D[m][n]` is at most `k` iff
//! the true one is, and then equal to it. Rows above the pattern's start
//! (in columns `j < k`) are virtual rows `D[i][j] = j − i`, which satisfy
//! the recurrence and reproduce `D[0][j] = j`; rows past its end feed no
//! row at or below `m`, so their bits may hold anything.
//!
//! The score follows the diagonal through `(m, n)`: it starts at
//! `|m − n|` in column 0 and grows by one wherever that diagonal's cell
//! differs from its predecessor. A diagonal never decreases, so the scan
//! stops with `None` as soon as that score passes `k`.
//!
//! The radius is [`BAND`] = 31, the widest one word holds (63 diagonals,
//! and one more above them). A 350-character abstract takes six words per column in the
//! full scan and one in the band. A wider band would take two words per
//! column and catch almost nothing more: per execution of the `pubs-ours`
//! benchmark workload (seed 42, the mean over its eight datasets), the
//! comparisons of abstract-length values (the shorter at least 200
//! characters) that reach a kernel end 948 at a distance of at most 15, 27
//! at 16–31, 0.1 at 32–63 and 11 past 63.

/// Pattern characters per `u64` block.
pub(crate) const WORD: usize = 64;
/// The widest radius [`MyersScratch::scan_band`] takes: `|i − j| ≤ 31` is
/// `2·31 + 1 = 63` diagonals, the most one `u64` per column centres.
pub(crate) const BAND: usize = 31;
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

/// One text column `j` of the banded scan. On entry `vp`/`vn` hold column
/// `j − 1`'s vertical +1/−1 deltas in column `j`'s frame (bit `b` at row
/// `j − k + b`); on return, column `j`'s in column `j + 1`'s frame. Returns
/// the column's diagonal-zero vector: bit `b` set iff `D[i][j] =
/// D[i−1][j−1]` at row `i = j − k + b`.
#[inline(always)]
fn band_step(eq: u64, vp: &mut u64, vn: &mut u64) -> u64 {
    // No −1 carry enters bit 0: the cell below the band is taken as no
    // better than its diagonal predecessor.
    let x = eq | *vn;
    let d0 = (((x & *vp).wrapping_add(*vp)) ^ *vp) | x;
    // The horizontal deltas at bit `b` are row `j − k + b`'s, the carry
    // into row `j − k + b + 1`: the next frame holds that row at bit `b`
    // already, so the diagonal-zero bits move down one to meet them. Bit
    // 63 of the next frame gets a zero diagonal bit: its cell is taken at
    // its diagonal predecessor plus one.
    let hp = *vn | !(d0 | *vp);
    let hn = *vp & d0;
    let d0_down = d0 >> 1;
    *vp = hn | !(d0_down | hp);
    *vn = d0_down & hp;
    d0
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
    /// Full-width scans run through this scratch: how tests see that a
    /// pair was decided without one.
    #[cfg(test)]
    pub(crate) scans: usize,
    /// Banded scans run through this scratch.
    #[cfg(test)]
    pub(crate) band_scans: usize,
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

    /// The banded scan against the filled table (see the module docs): the
    /// Levenshtein distance between the pattern the table was filled from
    /// (of length `pattern_len`) and `text` (ASCII) if it is at most `k`,
    /// `None` if it is larger, in either length order. Reads one word per
    /// text column: the diagonals `−k ≤ i − j ≤ 63 − k`.
    ///
    /// # Panics
    /// Panics if `k` exceeds [`BAND`].
    fn scan_band(&mut self, pattern_len: usize, text: &[u8], k: usize) -> Option<usize> {
        let (m, n) = (pattern_len, text.len());
        debug_assert!(m >= 1, "empty pattern");
        debug_assert!(text.is_ascii());
        assert!(k <= BAND, "band radius {k} exceeds one word");
        if m.abs_diff(n) > k {
            return None;
        }
        #[cfg(test)]
        {
            self.band_scans += 1;
        }
        let words = words_for(m);
        let peq = &self.peq[..ROWS * words];
        // Column 0 in column 1's frame, rows 1 − k..=64 − k: `D[i][0] = |i|`
        // steps −1 up to row 0 and +1 above it.
        let mut vn = (1u64 << k) - 1;
        let mut vp = !vn;
        // The diagonal through `(m, n)`, and its value in column 0.
        let diagonal = m + k - n;
        let mut score = m.abs_diff(n);
        for (j, &c) in text.iter().enumerate() {
            let row = &peq[c as usize * words..][..words];
            // `j` counts from 0: this is column `j + 1`, whose bit 0 is row
            // `j + 1 − k`, the pattern's character `j − k`.
            let eq = if j < k {
                row[0] << (k - j)
            } else {
                let (q, r) = ((j - k) / WORD, (j - k) % WORD);
                let next = if q + 1 < words { row[q + 1] } else { 0 };
                (row[q] >> r) | (next << 1 << (WORD - 1 - r))
            };
            let d0 = band_step(eq, &mut vp, &mut vn);
            score += usize::from(d0 & (1 << diagonal) == 0);
            if score > k {
                return None;
            }
        }
        Some(score)
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

    /// [`Self::scan_band`] between `pattern` (ASCII, non-empty) and `text`
    /// (ASCII), filling and clearing the table around it.
    pub(crate) fn distance_within(
        &mut self,
        pattern: &[u8],
        text: &[u8],
        k: usize,
    ) -> Option<usize> {
        self.fill(pattern);
        let within = self.scan_band(pattern.len(), text, k);
        self.clear(pattern);
        within
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

    /// The banded scan through a fresh scratch, asserting the table is
    /// all-zero again.
    fn band(a: &str, b: &str, k: usize) -> Option<usize> {
        let mut scratch = MyersScratch::default();
        let within = scratch.distance_within(a.as_bytes(), b.as_bytes(), k);
        assert!(scratch.peq.iter().all(|&x| x == 0), "table must be cleared");
        within
    }

    /// The band's contract, off the two-row DP: `Some(d)` iff `d ≤ k`.
    fn within(a: &str, b: &str, k: usize) -> Option<usize> {
        let d = levenshtein(a, b);
        (d <= k).then_some(d)
    }

    /// `a` with the character at each of `at` replaced by `#`, which the
    /// phrase of [`text`] lacks: exactly `at.len()` edits away.
    fn marked(a: &str, at: impl IntoIterator<Item = usize>) -> String {
        let mut s = a.as_bytes().to_vec();
        for i in at {
            s[i] = b'#';
        }
        String::from_utf8(s).unwrap()
    }

    #[test]
    fn band_is_exact_up_to_its_radius_at_word_boundaries() {
        for m in [63, 64, 65, 127, 128, 129, 350] {
            let a = text(m, 0);
            for k in [0, 1, 15, 31] {
                // Identical values; then exactly `k` and `k + 1`
                // substitutions spread over the whole value.
                assert_eq!(band(&a, &a, k), Some(0), "m={m} k={k}");
                let spread = |edits: usize| (0..edits).map(move |e| e * m / edits.max(1));
                assert_eq!(band(&a, &marked(&a, spread(k)), k), Some(k), "m={m} k={k}");
                assert_eq!(band(&a, &marked(&a, spread(k + 1)), k), None, "m={m} k={k}");
                // Insertions and deletions that keep the optimal path on
                // the band's edges, at either end, either side the pattern.
                let pad = "#".repeat(k);
                let shifted = format!("{pad}{}", &a[..m - k]);
                for (x, y) in [
                    (a.clone(), format!("{pad}{a}")),
                    (a.clone(), format!("{a}{pad}")),
                    (a.clone(), a[k..].to_string()),
                    (a.clone(), shifted),
                ] {
                    assert_eq!(band(&x, &y, k), within(&x, &y, k), "{x:?} / {y:?}");
                    assert_eq!(band(&y, &x, k), within(&y, &x, k), "{y:?} / {x:?}");
                }
                // A length difference past the radius answers `None` before
                // any column is scanned.
                let mut scratch = MyersScratch::default();
                for other in [text(m + k + 1, 0), text(m - k - 1, 0)] {
                    let within = scratch.distance_within(a.as_bytes(), other.as_bytes(), k);
                    assert_eq!(within, None, "m={m} k={k} n={}", other.len());
                }
                assert_eq!(scratch.band_scans, 0);
            }
        }
    }

    proptest! {
        // Near-duplicate regime: up to 60 edits on 60–400 characters, so
        // the distance falls either side of every radius; either side is
        // the pattern.
        #[test]
        fn prop_band_matches_dp_near_duplicates(
            base in "[a-z ]{60,400}",
            edits in proptest::collection::vec((0u8..3, 0usize..400, 0u8..26), 0..61),
            radius in 0usize..4,
        ) {
            let k = [0, 1, 15, BAND][radius];
            let other = edit(&base, &edits);
            prop_assert_eq!(band(&base, &other, k), within(&base, &other, k));
            if !other.is_empty() {
                prop_assert_eq!(band(&other, &base, k), within(&other, &base, k));
            }
        }

        // Far regime: independent strings over a small alphabet within 32
        // characters of each other's length, whose optimal paths wander
        // across and out of the band.
        #[test]
        fn prop_band_matches_dp_far_apart(
            a in "[ab ]{40,400}",
            b in "[ab ]{1,440}",
            delta in 0usize..64,
            radius in 0usize..4,
        ) {
            let k = [0, 1, 15, BAND][radius];
            let b: String = b.chars().cycle().take((a.len() + delta).saturating_sub(32)).collect();
            prop_assert_eq!(band(&a, &b, k), within(&a, &b, k));
            if !b.is_empty() {
                prop_assert_eq!(band(&b, &a, k), within(&b, &a, k));
            }
        }

        #[test]
        fn prop_matches_two_row_dp(a in "[a-e]{1,64}", b in "[a-e]{0,90}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }

        #[test]
        fn prop_matches_dp_dense_alphabet(a in "[a-zA-Z0-9 .,']{1,40}", b in "[a-zA-Z0-9 .,']{0,60}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }

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
