//! Phonetic encodings — Soundex, the classic merge/purge-era key (the
//! paper's ref. \[3\] lineage uses phonetic keys both for blocking and as a
//! similarity signal on person names).

/// American Soundex code of `s`: first letter + three digits (zero-padded).
/// Non-ASCII-alphabetic characters are ignored; an empty or letterless
/// input encodes as `"0000"`.
pub fn soundex(s: &str) -> String {
    fn digit(c: u8) -> u8 {
        match c {
            b'b' | b'f' | b'p' | b'v' => b'1',
            b'c' | b'g' | b'j' | b'k' | b'q' | b's' | b'x' | b'z' => b'2',
            b'd' | b't' => b'3',
            b'l' => b'4',
            b'm' | b'n' => b'5',
            b'r' => b'6',
            _ => b'0', // vowels + h/w/y
        }
    }
    let letters: Vec<u8> = s
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase() as u8)
        .collect();
    let Some((&first, rest)) = letters.split_first() else {
        return "0000".into();
    };
    let mut code = vec![first.to_ascii_uppercase()];
    let mut last = digit(first);
    for &c in rest {
        let d = digit(c);
        // h and w are transparent: they do not reset the run of equal codes.
        if c == b'h' || c == b'w' {
            continue;
        }
        if d != b'0' && d != last {
            code.push(d);
            if code.len() == 4 {
                break;
            }
        }
        last = d;
    }
    while code.len() < 4 {
        code.push(b'0');
    }
    // The code bytes are ASCII by construction (letters and digit pushes
    // above), so the lossy conversion never actually substitutes.
    String::from_utf8_lossy(&code).into_owned()
}

/// 1.0 if the Soundex codes agree, else 0.0 — a cheap phonetic-equality
/// kernel for name attributes.
pub fn soundex_similarity(a: &str, b: &str) -> f64 {
    f64::from(soundex(a) == soundex(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn textbook_codes() {
        // Canonical examples from the Soundex specification.
        assert_eq!(soundex("Robert"), "R163");
        assert_eq!(soundex("Rupert"), "R163");
        assert_eq!(soundex("Ashcraft"), "A261");
        assert_eq!(soundex("Ashcroft"), "A261");
        assert_eq!(soundex("Tymczak"), "T522");
        assert_eq!(soundex("Pfister"), "P236");
        assert_eq!(soundex("Honeyman"), "H555");
    }

    #[test]
    fn phonetic_matches_survive_typos() {
        assert_eq!(soundex("Charles"), soundex("Charlz"));
        assert_eq!(soundex_similarity("Smith", "Smyth"), 1.0);
        assert_eq!(soundex_similarity("Smith", "Jones"), 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(soundex(""), "0000");
        assert_eq!(soundex("123"), "0000");
        assert_eq!(soundex("a"), "A000");
    }

    proptest! {
        #[test]
        fn prop_code_shape(s in ".{0,20}") {
            let code = soundex(&s);
            prop_assert_eq!(code.len(), 4);
            let bytes = code.as_bytes();
            prop_assert!(bytes[0].is_ascii_uppercase() || bytes[0] == b'0');
            prop_assert!(bytes[1..].iter().all(|b| b.is_ascii_digit()));
        }

        #[test]
        fn prop_case_insensitive(s in "[a-zA-Z]{1,12}") {
            prop_assert_eq!(soundex(&s), soundex(&s.to_uppercase()));
        }
    }
}
