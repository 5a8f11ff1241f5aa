//! Differential test of the trace-line decoder against the serde path.
//!
//! [`decode_line`] must accept exactly the lines
//! `serde_json::from_str::<TraceRecord>` accepts (behind the UTF-8 and
//! blank-line checks every ingest path makes), and give the same fields
//! bit for bit. The one intended difference: a record whose
//! time is not finite (a token such as `1e999`) is accepted by serde
//! and rejected by the decoder.
//!
//! Lines are generated from a seed: canonical records, permuted keys
//! with injected whitespace, unknown keys carrying nested values,
//! duplicate and escaped keys, number edge tokens in every field, and
//! truncations and single-byte flips, deletions and insertions of all of
//! these.

use proptest::prelude::*;
use qni_stats::rng::rng_from_seed;
use qni_trace::record::{decode_line, read_jsonl, TraceRecord};
use rand::seq::SliceRandom;
use rand::Rng;

const KEYS: [&str; 7] = [
    "task",
    "state",
    "queue",
    "arrival",
    "departure",
    "arrival_observed",
    "departure_observed",
];

/// Number tokens at the edges of the `u64 → i64 → f64` typing rule and
/// of `u32` ids, plus malformed ones.
const NUMBER_TOKENS: [&str; 36] = [
    "0",
    "-0",
    "007",
    "-007",
    "1E5",
    "1e5",
    "-0.0",
    "0.0",
    "2.0",
    "3e0",
    "1.5",
    "-1",
    "4294967295",
    "4294967296",
    "4294967295.0",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "-9223372036854775808",
    "-9223372036854775809",
    "1e999",
    "-1e999",
    "5e-324",
    "1.7976931348623157e308",
    "0.1",
    "1e+2",
    "1e-2",
    "1.",
    "1e",
    "-",
    "--1",
    "1-2",
    "1.2.3",
    "0e",
    "12345678901234567890123",
    "-1.0e-0",
];

/// Other value tokens: valid JSON of the wrong type and malformed
/// keywords.
const OTHER_TOKENS: [&str; 12] = [
    "null", "true", "false", "\"7\"", "[]", "{}", "[1]", "nul", "tru", "fals", "truex", "\"",
];

const WHITESPACE: [&str; 7] = ["", "", " ", "  ", "\t", "\r", "\n"];

/// The serde path's verdict: reject (`None`), blank (`Some(None)`) or a
/// record.
fn oracle(line: &[u8]) -> Option<Option<TraceRecord>> {
    let text = std::str::from_utf8(line).ok()?;
    if text.trim().is_empty() {
        return Some(None);
    }
    serde_json::from_str::<TraceRecord>(text).ok().map(Some)
}

fn bits(r: &TraceRecord) -> (u32, u32, u32, u64, u64, bool, bool) {
    (
        r.event.task.0,
        r.event.state.0,
        r.event.queue.0,
        r.event.arrival.to_bits(),
        r.event.departure.to_bits(),
        r.arrival_observed,
        r.departure_observed,
    )
}

/// Whether the decoder's verdict on `line` matches the oracle's; on
/// agreement, returns whether the decoder accepted a record.
fn agrees(line: &[u8]) -> Result<bool, String> {
    let want = oracle(line);
    let got = decode_line(line);
    let ok = match (&want, &got) {
        (None, Err(_)) | (Some(None), Ok(None)) => true,
        (Some(Some(w)), Ok(Some(g))) => bits(w) == bits(g),
        (Some(Some(w)), Err(_)) => !(w.event.arrival.is_finite() && w.event.departure.is_finite()),
        _ => false,
    };
    if ok {
        Ok(matches!(got, Ok(Some(_))))
    } else {
        Err(format!(
            "line {:?}: serde path {want:?}, decoder {got:?}",
            String::from_utf8_lossy(line)
        ))
    }
}

fn pick<'a, R: Rng>(rng: &mut R, items: &[&'a str]) -> &'a str {
    items.choose(rng).copied().unwrap_or("")
}

/// A valid value token for field `k`.
fn field_value<R: Rng>(rng: &mut R, k: usize) -> String {
    match k {
        0..=2 => match rng.random_range(0..4u32) {
            0 => rng.random::<u32>().to_string(),
            _ => rng.random_range(0..50u32).to_string(),
        },
        3 | 4 => {
            let t: f64 = match rng.random_range(0..4u32) {
                0 => rng.random::<f64>() * 1e6,
                1 => rng.random_range(0..1000u32) as f64,
                2 => Some(f64::from_bits(rng.random::<u64>()))
                    .filter(|t| t.is_finite())
                    .unwrap_or(-0.0),
                _ => rng.random::<f64>(),
            };
            serde_json::to_string(&t).unwrap_or_default()
        }
        _ => (if rng.random::<bool>() {
            "true"
        } else {
            "false"
        })
        .to_string(),
    }
}

/// A JSON string token, sometimes with escapes.
fn string_token<R: Rng>(rng: &mut R) -> String {
    let parts = [
        "a",
        "key",
        "x y",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\t",
        "\\u0041",
        "\\ud83d\\ude00",
        "é",
        "☕",
        "\\b",
        "\\f",
        "\\r",
    ];
    let mut s = String::from("\"");
    for _ in 0..rng.random_range(0..4usize) {
        s.push_str(pick(rng, &parts));
    }
    s.push('"');
    s
}

/// A random JSON value for an unknown key, nested up to `depth`.
fn json_value<R: Rng>(rng: &mut R, depth: usize) -> String {
    let kind = if depth == 0 {
        rng.random_range(0..3u32)
    } else {
        rng.random_range(0..5u32)
    };
    match kind {
        0 => pick(rng, &NUMBER_TOKENS[..26]).to_string(),
        1 => pick(rng, &OTHER_TOKENS[..3]).to_string(),
        2 => string_token(rng),
        3 => {
            let items: Vec<String> = (0..rng.random_range(0..4usize))
                .map(|_| json_value(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(pick(rng, &[",", ", ", " ,\t"])))
        }
        _ => {
            let members: Vec<String> = (0..rng.random_range(0..4usize))
                .map(|_| {
                    let key = if rng.random_range(0..4u32) == 0 {
                        format!("\"{}\"", pick(rng, &KEYS))
                    } else {
                        string_token(rng)
                    };
                    format!("{key}:{}", json_value(rng, depth - 1))
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// A key token for field `k`, sometimes with escaped characters.
fn key_token<R: Rng>(rng: &mut R, k: usize) -> String {
    let mut s = String::from("\"");
    for c in KEYS[k].chars() {
        if rng.random_range(0..6u32) == 0 {
            s.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            s.push(c);
        }
    }
    s.push('"');
    s
}

/// One generated line, before byte-level mutation.
fn generate_line<R: Rng>(rng: &mut R) -> String {
    // Members as (key token, value token).
    let mut members: Vec<(String, String)> = (0..KEYS.len())
        .map(|k| (format!("\"{}\"", KEYS[k]), field_value(rng, k)))
        .collect();
    let style = rng.random_range(0..8u32);
    if style == 0 {
        // Canonical: what `write_jsonl` writes.
    } else {
        if rng.random::<bool>() {
            members.shuffle(rng);
        }
        for _ in 0..rng.random_range(0..3usize) {
            let at = rng.random_range(0..=members.len());
            members.insert(at, (string_token(rng), json_value(rng, 3)));
        }
        if rng.random_range(0..3u32) == 0 {
            let k = rng.random_range(0..KEYS.len());
            let value = if rng.random::<bool>() {
                field_value(rng, k)
            } else {
                pick(rng, &OTHER_TOKENS).to_string()
            };
            let at = rng.random_range(0..=members.len());
            members.insert(at, (format!("\"{}\"", KEYS[k]), value));
        }
        for m in members.iter_mut() {
            if let Some(k) = KEYS.iter().position(|key| m.0 == format!("\"{key}\"")) {
                if rng.random_range(0..4u32) == 0 {
                    m.0 = key_token(rng, k);
                }
            }
        }
        if rng.random_range(0..3u32) == 0 {
            let i = rng.random_range(0..members.len());
            members[i].1 = if rng.random_range(0..4u32) == 0 {
                pick(rng, &OTHER_TOKENS).to_string()
            } else {
                pick(rng, &NUMBER_TOKENS).to_string()
            };
        }
        if rng.random_range(0..10u32) == 0 {
            let i = rng.random_range(0..members.len());
            members.remove(i);
        }
    }
    let ws = |rng: &mut R| {
        if style == 0 {
            ""
        } else {
            pick(rng, &WHITESPACE)
        }
    };
    let mut line = String::new();
    line.push_str(ws(rng));
    line.push('{');
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            line.push_str(ws(rng));
            line.push(',');
        }
        line.push_str(ws(rng));
        line.push_str(k);
        line.push_str(ws(rng));
        line.push(':');
        line.push_str(ws(rng));
        line.push_str(v);
        line.push_str(ws(rng));
    }
    line.push('}');
    line.push_str(ws(rng));
    line
}

/// A truncation or a single-byte flip of `line`, or `line` itself.
fn mutate<R: Rng>(rng: &mut R, line: &str) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let i = rng.random_range(0..bytes.len());
    let structural = *b"{}[],:\"\\ -0e.tfn".choose(rng).unwrap_or(&b' ');
    match rng.random_range(0..6u32) {
        0 => bytes.truncate(i),
        1 => {
            bytes[i] = match rng.random_range(0..3u32) {
                0 => rng.random::<u32>() as u8,
                1 => structural,
                _ => bytes[i] ^ (1 << rng.random_range(0..8u32)),
            };
        }
        2 => {
            bytes.remove(i);
        }
        3 => bytes.insert(i, structural),
        _ => {}
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn decoder_matches_serde_path(seed in 0u64..u64::MAX) {
        let mut rng = rng_from_seed(seed);
        let mut accepted = 0;
        for _ in 0..128 {
            let line = generate_line(&mut rng);
            let bytes = mutate(&mut rng, &line);
            match agrees(&bytes) {
                Ok(hit) => accepted += usize::from(hit),
                Err(msg) => return Err(TestCaseError::fail(msg)),
            }
        }
        // The generator must exercise both verdicts.
        prop_assert!(accepted > 0 && accepted < 128, "{} of 128 accepted", accepted);
    }
}

#[test]
fn decoder_matches_serde_path_on_handpicked_lines() {
    let canonical = r#"{"task":3,"state":1,"queue":2,"arrival":0.5,"departure":0.75,"arrival_observed":true,"departure_observed":false}"#;
    let mut lines: Vec<String> = vec![
        canonical.to_string(),
        String::new(),
        "   ".to_string(),
        "\r".to_string(),
        "\u{a0}\u{2028}".to_string(),
        "\u{b}".to_string(),
        "[]".to_string(),
        "{}".to_string(),
        "7".to_string(),
        format!("{canonical} x"),
        format!("{canonical},"),
        format!(" \t{canonical}\r"),
        canonical.replace("\"task\"", "\"t\\u0061sk\""),
        canonical.replace("\"task\"", "\"t\\u+061sk\""),
        canonical.replace("\"task\"", "\"t\\u-061sk\""),
        canonical.replace("\"task\"", "\"task\\ud800\""),
        canonical.replace("\"task\"", "\"task\\udc00\""),
        canonical.replace("\"task\"", "\"\\ud83d\\ude00\",\"task\""),
        canonical.replace("\"task\"", "\"task\\q\""),
        canonical.replace("{", "{\"task\":\"dup\",\"x\":1,"),
        canonical.replace("{", "{\"task\":9,"),
        canonical.replace("}", ",\"task\":\"dup\"}"),
        canonical.replace("}", ",\"task\":[1,{\"a\":[true,null]}]}"),
        canonical.replace("}", ",\"task\":[1,}"),
        canonical.replace("}", ",\"extra\":{\"a\":{\"b\":[[],{}]}}}"),
        canonical.replace("}", ",\"extra\":[[[[[[1]]]]]]}"),
        canonical.replace("}", ",\"extra\":[1 2]}"),
        canonical.replace("}", ",\"extra\":[1,]}"),
        canonical.replace("}", ",\"extra\":[,1]}"),
        canonical.replace("}", ",\"extra\":{\"a\":1,}}"),
        canonical.replace("}", ",}"),
        canonical.replace("}", ",\"extra\":{\"a\" 1}}"),
        canonical.replace("}", ",\"extra\":{1:2}}"),
        canonical.replace("}", ",\"extra\":\"\u{1}raw control\"}"),
        canonical.replace(",\"queue\":2", ""),
        canonical.replace("true", "1"),
        canonical.replace("0.5", "null"),
    ];
    for token in NUMBER_TOKENS {
        for (key, value) in [("task", "3"), ("arrival", "0.5")] {
            lines.push(
                canonical.replace(&format!("\"{key}\":{value}"), &format!("\"{key}\":{token}")),
            );
        }
    }
    for line in &lines {
        agrees(line.as_bytes()).unwrap();
    }
    // Invalid UTF-8 anywhere in the line is rejected, as `lines()` did.
    let mut bytes = canonical.as_bytes().to_vec();
    bytes.insert(1, 0xff);
    assert!(oracle(&bytes).is_none());
    assert!(decode_line(&bytes).is_err());
    // `-0` is the integer zero: it reads as +0.0, and `-0.0` keeps its sign.
    let zero = decode_line(canonical.replace("0.5", "-0").as_bytes())
        .unwrap()
        .unwrap();
    assert_eq!(zero.event.arrival.to_bits(), 0.0f64.to_bits());
    let neg = decode_line(canonical.replace("0.5", "-0.0").as_bytes())
        .unwrap()
        .unwrap();
    assert_eq!(neg.event.arrival.to_bits(), (-0.0f64).to_bits());
    // The first of two duplicated keys wins.
    let dup = canonical.replace("{", "{\"task\":9,");
    assert_eq!(
        decode_line(dup.as_bytes()).unwrap().unwrap().event.task.0,
        9
    );
}

#[test]
fn non_finite_times_are_the_one_new_rejection() {
    let line = r#"{"task":0,"state":0,"queue":0,"arrival":1e999,"departure":1.0,"arrival_observed":true,"departure_observed":true}"#;
    let serde: TraceRecord = serde_json::from_str(line).unwrap();
    assert!(serde.event.arrival.is_infinite());
    let err = decode_line(line.as_bytes()).unwrap_err();
    assert_eq!(err.field, Some("arrival"));
    assert!(err.to_string().contains("not finite"), "{err}");
}

#[test]
fn read_jsonl_names_the_bad_line_and_its_offset() {
    let good = r#"{"task":0,"state":0,"queue":0,"arrival":0.0,"departure":1.0,"arrival_observed":true,"departure_observed":true}"#;
    let text = format!("{good}\n\n{}\n{good}\n", &good[..40]);
    let err = read_jsonl(text.as_bytes()).unwrap_err();
    match err {
        qni_trace::TraceError::BadLine {
            line,
            offset,
            ref path,
            ..
        } => {
            assert_eq!(line, 3);
            assert_eq!(offset, good.len() as u64 + 2);
            assert_eq!(path, qni_trace::record::STREAM_LABEL);
        }
        other => panic!("expected BadLine, got {other:?}"),
    }
    let named = err.in_file("trace.jsonl").to_string();
    assert!(
        named.contains("line 3") && named.contains("trace.jsonl"),
        "{named}"
    );
}
