//! Static word pools for the synthetic generators.
//!
//! The pools are intentionally plain English/domain words so that prefix
//! blocking keys (first 2–8 characters, Table II) behave like they do on the
//! real corpora: many titles share short prefixes (large root blocks) while
//! longer prefixes split them apart (small child blocks).

/// Words that open publication/book titles. Sampled with a Zipf distribution
/// so a handful of openers ("the", "on", "a", …) dominate, producing skewed
/// root blocks.
pub const TITLE_OPENERS: &[&str] = &[
    "the",
    "on",
    "a",
    "an",
    "towards",
    "learning",
    "efficient",
    "scalable",
    "distributed",
    "parallel",
    "progressive",
    "adaptive",
    "incremental",
    "online",
    "approximate",
    "optimal",
    "robust",
    "fast",
    "dynamic",
    "generalized",
    "deep",
    "probabilistic",
    "secure",
    "unified",
    "automated",
    "interactive",
    "practical",
    "novel",
    "improved",
    "hierarchical",
    "modular",
    "federated",
    "streaming",
    "declarative",
    "hybrid",
    "selective",
    "lightweight",
    "elastic",
    "transactional",
    "consistent",
];

/// Mid-title content words.
pub const TITLE_WORDS: &[&str] = &[
    "entity",
    "resolution",
    "data",
    "query",
    "processing",
    "systems",
    "databases",
    "indexing",
    "joins",
    "clustering",
    "classification",
    "blocking",
    "deduplication",
    "integration",
    "cleaning",
    "quality",
    "linkage",
    "records",
    "graphs",
    "networks",
    "storage",
    "memory",
    "transactions",
    "concurrency",
    "recovery",
    "optimization",
    "estimation",
    "sampling",
    "sketches",
    "streams",
    "workloads",
    "partitioning",
    "replication",
    "consensus",
    "caching",
    "compression",
    "encryption",
    "provenance",
    "schemas",
    "ontologies",
    "crowdsourcing",
    "knowledge",
    "bases",
    "warehouses",
    "analytics",
    "mining",
    "inference",
    "matching",
    "similarity",
    "search",
];

/// Venue names for publications.
pub const VENUES: &[&str] = &[
    "ICDE",
    "VLDB",
    "SIGMOD",
    "KDD",
    "WWW",
    "CIKM",
    "EDBT",
    "ICDM",
    "SDM",
    "WSDM",
    "SIGIR",
    "PODS",
    "SOCC",
    "NSDI",
    "OSDI",
    "SOSP",
    "EUROSYS",
    "ATC",
    "MIDDLEWARE",
    "ICDCS",
    "IPDPS",
    "HPDC",
    "CLOUD",
    "BIGDATA",
    "DASFAA",
];

/// Given-name pool.
pub const FIRST_NAMES: &[&str] = &[
    "john", "mary", "charles", "chloe", "william", "joey", "sharad", "yasser", "emma", "liam",
    "olivia", "noah", "ava", "ethan", "sophia", "mason", "isabella", "lucas", "mia", "henry",
    "amelia", "alex", "grace", "daniel", "ruth", "victor", "nora", "omar", "lena", "felix",
];

/// Family-name pool.
pub const LAST_NAMES: &[&str] = &[
    "lopez", "andrews", "gibson", "matthew", "martin", "brown", "altowim", "mehrotra", "smith",
    "johnson", "garcia", "miller", "davis", "wilson", "anderson", "thomas", "taylor", "moore",
    "jackson", "white", "harris", "clark", "lewis", "walker", "hall", "young", "king", "wright",
    "scott", "green",
];

/// Publisher names for books.
pub const PUBLISHERS: &[&str] = &[
    "penguin",
    "harpercollins",
    "macmillan",
    "simon and schuster",
    "hachette",
    "randomhouse",
    "scholastic",
    "wiley",
    "pearson",
    "springer",
    "elsevier",
    "oreilly",
    "mit press",
    "cambridge",
    "oxford",
    "princeton",
    "norton",
    "vintage",
    "doubleday",
    "knopf",
];

/// Book languages.
pub const LANGUAGES: &[&str] = &[
    "english",
    "spanish",
    "french",
    "german",
    "italian",
    "portuguese",
];

/// Book binding formats.
pub const FORMATS: &[&str] = &[
    "hardcover",
    "paperback",
    "ebook",
    "audiobook",
    "library binding",
];

/// Sentence fragments for abstracts.
pub const ABSTRACT_FRAGMENTS: &[&str] = &[
    "we propose a new approach to",
    "this paper studies the problem of",
    "experiments on real-world datasets demonstrate",
    "our technique outperforms the state of the art by",
    "we formalize the notion of",
    "a key challenge is the skew in",
    "we develop an approximation algorithm for",
    "the proposed framework scales to",
    "we report an extensive evaluation of",
    "prior work has largely ignored",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_nonempty_and_lowercase_where_expected() {
        assert!(TITLE_OPENERS.len() >= 30);
        assert!(TITLE_WORDS.len() >= 40);
        for w in TITLE_OPENERS.iter().chain(TITLE_WORDS) {
            assert_eq!(*w, w.to_lowercase(), "{w} should be lowercase");
            assert!(!w.is_empty());
        }
    }

    #[test]
    fn openers_have_shared_short_prefixes() {
        // Prefix blocking must create collisions at length 2: verify at least
        // two openers share a 2-char prefix.
        let mut prefixes: Vec<&str> = TITLE_OPENERS.iter().map(|w| &w[..2.min(w.len())]).collect();
        let total = prefixes.len();
        prefixes.sort_unstable();
        prefixes.dedup();
        assert!(
            prefixes.len() < total,
            "need prefix collisions for blocking"
        );
    }

    #[test]
    fn no_duplicate_venues() {
        let mut v = VENUES.to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), VENUES.len());
    }
}
