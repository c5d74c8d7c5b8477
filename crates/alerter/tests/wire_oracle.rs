//! Differential test of the wire path: `parse_line` scans each line in
//! place, and must decode exactly what the tree-based decoder it replaced
//! decodes — the same `WireEvent` for every accepted line and the same
//! error string, byte for byte, for every rejected one. The oracle below is
//! that decoder, kept verbatim on top of `JsonValue::parse`.

use proptest::prelude::*;
use secloc_alerter::{parse_line, WireEvent};
use secloc_obs::json::JsonValue;

mod oracle {
    use super::*;

    fn str_of(v: Option<&JsonValue>) -> Option<String> {
        v.and_then(|v| v.as_str()).map(str::to_string)
    }

    fn u32_of(v: Option<&JsonValue>, field: &str) -> Result<u32, String> {
        let raw = v
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing or non-u64 \"{field}\""))?;
        u32::try_from(raw).map_err(|_| format!("\"{field}\" {raw} exceeds u32"))
    }

    fn deployment_of(obj: &JsonValue) -> Option<String> {
        str_of(obj.get("cell")).or_else(|| str_of(obj.get("deployment")))
    }

    pub fn parse_line(line: &str) -> Result<WireEvent, String> {
        let obj = JsonValue::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if obj.as_object().is_none() {
            return Err("line is not a JSON object".to_string());
        }
        let kind = obj
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| "missing or non-string \"kind\"".to_string())?;
        match kind {
            "cell.start" | "deploy.start" => {
                let deployment = deployment_of(&obj)
                    .ok_or_else(|| format!("{kind} missing \"cell\"/\"deployment\""))?;
                let maybe_u32 = |field: &str| -> Result<Option<u32>, String> {
                    match obj.get(field) {
                        None => Ok(None),
                        some => u32_of(some, field).map(Some),
                    }
                };
                Ok(WireEvent::DeployStart {
                    deployment,
                    tau: maybe_u32("tau")?,
                    tau_prime: maybe_u32("tau_prime")?,
                    seed: obj.get("seed").and_then(|v| v.as_u64()),
                })
            }
            "bs.alert" | "alert" => Ok(WireEvent::Accusation {
                deployment: deployment_of(&obj),
                reporter: u32_of(obj.get("reporter"), "reporter")?,
                target: u32_of(obj.get("target"), "target")?,
                source: str_of(obj.get("source")),
                recorded_outcome: str_of(obj.get("outcome")),
            }),
            "revocation" => Ok(WireEvent::RecordedRevocation {
                deployment: deployment_of(&obj),
                target: u32_of(obj.get("target"), "target")?,
            }),
            "cell.complete" | "deploy.end" => Ok(WireEvent::DeployEnd {
                deployment: deployment_of(&obj),
                cache: str_of(obj.get("cache")),
            }),
            _ => Ok(WireEvent::Ignored),
        }
    }
}

/// Lines shaped like a recorded sweep stream and a live producer's.
const BASES: &[&str] = &[
    r#"{"kind":"bs.alert","seq":10,"trace":"ca458327acc9d37e","span":"ca458327acc9d37e","reporter":0,"target":13,"source":"collusion","outcome":"accepted","cell":"ca458327acc9d37e","seed":1}"#,
    r#"{"kind":"cell.start","seq":3,"trace":"00000000c0ffee00","cell":"00000000c0ffee00","seed":7,"tau":2,"tau_prime":2}"#,
    r#"{"kind":"revocation","seq":40,"cell":"00000000c0ffee00","target":17,"distinct_accusers":3}"#,
    r#"{"kind":"cell.complete","seq":41,"cell":"00000000c0ffee00","cache":"miss","elapsed_us":1.5e3}"#,
    r#"{"kind":"alert","deployment":"field-7","reporter":1,"target":2}"#,
    r#"{"kind":"deploy.start","deployment":"f\u00e9","tau":0,"extra":[1,{"a":null}],"tau_prime":3}"#,
    r#" {"kind":"phase","seq":1,"name":"impact","ok":true,"x":-0.25} "#,
];

/// Bytes that steer a mutated line into every corner of the grammar.
const SUBSTITUTES: &[u8] = b"\"\\{}[],:0123456789ae \x01\n\t\x1f";

fn check(line: &str) {
    assert_eq!(parse_line(line), oracle::parse_line(line), "line: {line:?}");
}

/// Applies one mutation to an ASCII line: truncate, substitute one byte
/// (weighted up, since it is the mutation most likely to keep the line
/// valid), or insert a backslash.
fn mutate(line: &mut Vec<u8>, op: u8, at: usize, pick: usize) {
    let at = at % (line.len() + 1);
    match op {
        0 => line.truncate(at),
        1..=3 if at < line.len() => line[at] = SUBSTITUTES[pick % SUBSTITUTES.len()],
        _ => line.insert(at, b'\\'),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    #[test]
    fn mutated_lines_decode_like_the_tree_oracle(
        base in 0usize..64,
        mutations in proptest::collection::vec((0u8..5, 0usize..400, 0usize..64), 1..3),
    ) {
        let mut line = BASES[base % BASES.len()].as_bytes().to_vec();
        for &(op, at, pick) in &mutations {
            mutate(&mut line, op, at, pick);
        }
        // Every base and substitute is ASCII, so the mutant is a valid str.
        let line = String::from_utf8(line).expect("ASCII mutant");
        prop_assert_eq!(parse_line(&line), oracle::parse_line(&line), "line: {:?}", line);
    }
}

#[test]
fn unmutated_bases_are_accepted() {
    for line in BASES {
        check(line);
        assert!(parse_line(line).is_ok(), "{line}");
    }
}

#[test]
fn duplicate_fields_keep_their_first_occurrence() {
    for line in [
        r#"{"kind":"bs.alert","kind":"phase","reporter":1,"target":2}"#,
        r#"{"kind":"phase","kind":"bs.alert","reporter":1,"target":2}"#,
        r#"{"kind":1,"kind":"alert","reporter":1,"target":2}"#,
        r#"{"kind":"alert","reporter":1,"reporter":2,"target":3}"#,
        r#"{"kind":"alert","reporter":"x","reporter":2,"target":3}"#,
        r#"{"kind":"alert","reporter":1,"target":3,"cell":"a","cell":"b"}"#,
        r#"{"kind":"alert","reporter":1,"target":3,"cell":5,"deployment":"x"}"#,
        r#"{"kind":"alert","reporter":1,"target":3,"deployment":"x","cell":"c"}"#,
        r#"{"kind":"alert","reporter":1,"target":3}"#,
    ] {
        check(line);
    }
    assert!(matches!(
        parse_line(r#"{"kind":"bs.alert","kind":"phase","reporter":1,"target":2}"#),
        Ok(WireEvent::Accusation { reporter: 1, .. })
    ));
}

#[test]
fn non_u32_numbers_and_nulls_are_rejected_alike() {
    for line in [
        r#"{"kind":"cell.start","cell":"c","tau":null}"#,
        r#"{"kind":"cell.start","cell":"c","tau":2,"tau_prime":-1}"#,
        r#"{"kind":"cell.start","cell":"c","seed":-1}"#,
        r#"{"kind":"cell.start","cell":"c","seed":18446744073709551616}"#,
        r#"{"kind":"alert","reporter":1.0,"target":2}"#,
        r#"{"kind":"alert","reporter":1e2,"target":2}"#,
        r#"{"kind":"alert","reporter":5000000000,"target":2}"#,
        r#"{"kind":"alert","reporter":1,"target":true}"#,
        r#"{"kind":"revocation","cell":"c"}"#,
        r#"{"kind":"cell.start","tau":2}"#,
    ] {
        check(line);
    }
}

#[test]
fn non_objects_and_invalid_json_are_rejected_alike() {
    let deep = format!(r#"{{"kind":"phase","x":{}}}"#, "[".repeat(200));
    for line in [
        "",
        " ",
        "[1]",
        "\"s\"",
        "42",
        "null",
        " true ",
        "{",
        "{}",
        "{\"kind\":}",
        "{\"kind\":\"alert\"} x",
        "{\"kind\":\"a\u{1}\"}",
        &deep,
    ] {
        check(line);
    }
}

#[test]
fn escaped_cell_keys_decode_like_the_oracle() {
    let line = r#"{"kind":"bs.alert","cell":"\u0062\u0035d5c0ffee00aa11","reporter":1,"target":2,"source":"detection","outcome":"acc\"epted"}"#;
    check(line);
    assert!(matches!(
        parse_line(line),
        Ok(WireEvent::Accusation { deployment: Some(d), .. }) if d == "b5d5c0ffee00aa11"
    ));
}
