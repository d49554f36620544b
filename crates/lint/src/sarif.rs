//! SARIF 2.1.0 emitter for `--format sarif`.
//!
//! Emits the minimal static-analysis interchange document GitHub code
//! scanning ingests: one `run` with a `tool.driver` describing every rule
//! and one `result` per diagnostic. The structure is validated offline by
//! a self-test that re-parses the output with the workspace's `serde_json`
//! and checks the fields the SARIF 2.1.0 schema marks required.

use crate::rules::{Diagnostic, RULE_IDS};

/// Short human description per rule id, embedded in the tool metadata.
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        "hash_iter" => "iteration over HashMap/HashSet in order-sensitive pipeline code",
        "wall_clock" => "wall-clock time source in deterministic pipeline code",
        "relaxed" => "non-SeqCst atomic ordering",
        "panic_path" => "panic path (unwrap/expect/panic!) in runtime or recovery code",
        "direct_fs" => "direct std::fs call bypassing the storage VFS",
        "safety_comment" => "unsafe item or block without a SAFETY justification",
        "lossy_cast" => "bare `as` integer cast in codec/framing code",
        "allow_unknown" => "lint:allow naming an unknown rule",
        "allow_reason" => "lint:allow without a reason",
        "dead_allow" => "lint:allow that suppresses nothing",
        _ => "pper determinism lint",
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a SARIF 2.1.0 document.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"pper-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/pper-lint\",\n");
    out.push_str("          \"rules\": [\n");
    // Advertise every rule the driver knows plus the meta-rules that can
    // appear in results, so each result's ruleId resolves.
    let meta_rules = ["allow_unknown", "allow_reason", "dead_allow"];
    let all: Vec<&str> = RULE_IDS.iter().copied().chain(meta_rules).collect();
    for (i, rule) in all.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            esc(rule),
            esc(rule_description(rule)),
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", esc(&d.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            esc(&d.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{\"uri\": \"{}\"}},\n",
            esc(&d.file.replace('\\', "/"))
        ));
        out.push_str(&format!(
            "                \"region\": {{\"startLine\": {}}}\n",
            d.line.max(1)
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{parse_value_str, Value};

    fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
        match v {
            Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(v: &Value) -> Option<&str> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(v: &Value) -> Option<&[Value]> {
        match v {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "relaxed".into(),
                message: "non-SeqCst \"ordering\"\nsecond line".into(),
            },
            Diagnostic {
                file: "src\\main.rs".into(),
                line: 0,
                rule: "wall_clock".into(),
                message: "Instant::now".into(),
            },
        ]
    }

    #[test]
    fn emits_required_sarif_210_structure() {
        let doc = parse_value_str(&to_sarif(&sample())).expect("sarif must be valid JSON");
        assert_eq!(get(&doc, "version").and_then(as_str), Some("2.1.0"));
        assert!(get(&doc, "$schema")
            .and_then(as_str)
            .is_some_and(|s| s.contains("sarif-schema-2.1.0")));
        let runs = get(&doc, "runs").and_then(as_arr).expect("runs");
        assert_eq!(runs.len(), 1);
        let driver = get(&runs[0], "tool")
            .and_then(|t| get(t, "driver"))
            .expect("driver");
        assert_eq!(get(driver, "name").and_then(as_str), Some("pper-lint"));
        let rules = get(driver, "rules").and_then(as_arr).expect("rules");
        assert!(rules.len() >= RULE_IDS.len());
        for r in rules {
            assert!(get(r, "id").and_then(as_str).is_some());
            assert!(get(r, "shortDescription")
                .and_then(|d| get(d, "text"))
                .and_then(as_str)
                .is_some());
        }
        let results = get(&runs[0], "results").and_then(as_arr).expect("results");
        assert_eq!(results.len(), 2);
        let rule_ids: Vec<&str> = rules
            .iter()
            .filter_map(|r| get(r, "id").and_then(as_str))
            .collect();
        for res in results {
            let rid = get(res, "ruleId").and_then(as_str).expect("ruleId");
            assert!(rule_ids.contains(&rid), "result ruleId {rid} not declared");
            assert_eq!(get(res, "level").and_then(as_str), Some("error"));
            assert!(get(res, "message")
                .and_then(|m| get(m, "text"))
                .and_then(as_str)
                .is_some());
            let loc = &get(res, "locations").and_then(as_arr).expect("locations")[0];
            let phys = get(loc, "physicalLocation").expect("physicalLocation");
            let uri = get(phys, "artifactLocation")
                .and_then(|a| get(a, "uri"))
                .and_then(as_str)
                .expect("uri");
            assert!(!uri.contains('\\'), "SARIF uris use forward slashes");
            let line = get(phys, "region")
                .and_then(|r| get(r, "startLine"))
                .expect("startLine");
            assert!(
                matches!(line, Value::U64(n) if *n >= 1),
                "startLine must be >= 1, got {line:?}"
            );
        }
    }

    #[test]
    fn empty_run_is_still_valid() {
        let doc = parse_value_str(&to_sarif(&[])).expect("valid");
        let runs = get(&doc, "runs").and_then(as_arr).expect("runs");
        assert_eq!(
            get(&runs[0], "results")
                .and_then(as_arr)
                .map(<[Value]>::len),
            Some(0)
        );
    }
}
