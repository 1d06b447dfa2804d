//! Fuzz-style hardening of the wire codec (`core/json.rs`) and the
//! `Query`/`Response` decoders on top of it.
//!
//! This codec now fronts a network socket (`trajsearch-serve`), so the
//! *sender* controls every byte: the contract under test is **typed errors,
//! never panics** — truncated frames, number-token junk (NaN/Infinity),
//! hostile nesting depth, duplicate keys, and arbitrary byte soup must all
//! come back as `Err`, and valid documents must round-trip exactly.
//! (A panic anywhere in these properties fails the test run itself, so
//! "never panics" is asserted by construction.)

use proptest::prelude::*;
use trajsearch_core::json::{JsonValue, MAX_DEPTH};
use trajsearch_core::{Query, QueryError, Response};

/// Characters that keep generated soup "almost JSON", maximizing parser
/// path coverage compared to uniform bytes.
const SOUP: &[u8] = br#"{}[]",:.-+eE0123456789 truefalsenul\"abc"#;

fn soup_string(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| SOUP[i % SOUP.len()] as char)
        .collect()
}

/// A valid query document to mutate.
fn wire_query() -> Query {
    Query::top_k(vec![3, 1, 4, 1, 5], 7, 0.25, 8.0)
        .temporal_filter(false)
        .deadline_ms(1500)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_survives_json_like_soup(picks in proptest::collection::vec(0usize..1024, 0..120)) {
        let text = soup_string(&picks);
        // Typed result, no panic; rendering a successful parse re-parses
        // to the same document (idempotence even on weird-but-valid input).
        if let Ok(v) = JsonValue::parse(&text) {
            let rendered = v.to_string();
            prop_assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
        }
    }

    #[test]
    fn parser_survives_arbitrary_bytes(bytes in proptest::collection::vec(0usize..256, 0..120)) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = JsonValue::parse(&text);
        let _ = Query::from_json(&text);
        let _ = Response::from_json(&text);
    }

    #[test]
    fn truncated_query_frames_are_typed_errors(cut in 0usize..4096) {
        let full = wire_query().to_json();
        // The document opens with '{', so every strict prefix is incomplete.
        let cut = cut % full.len(); // strict prefix
        let prefix = &full[..cut];
        match Query::from_json(prefix) {
            Err(QueryError::Parse(_)) => {}
            other => prop_assert!(false, "prefix of len {} gave {:?}", cut, other),
        }
    }

    #[test]
    fn byte_flipped_query_frames_never_panic(
        cut in 0usize..4096,
        flip in 0usize..1024,
    ) {
        let full = wire_query().to_json();
        let mut bytes = full.into_bytes();
        let at = cut % bytes.len();
        bytes[at] = SOUP[flip % SOUP.len()];
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // Either it still decodes to a valid query (flip hit a digit or
        // whitespace-equivalent position) or it is a typed error.
        if let Ok(q) = Query::from_json(&text) {
            // Whatever decoded must re-validate on a round trip.
            prop_assert_eq!(Query::from_json(&q.to_json()).unwrap(), q);
        }
    }

    #[test]
    fn generated_documents_round_trip(
        ints in proptest::collection::vec(0u64..u64::MAX, 1..8),
        floats in proptest::collection::vec(-1.0e12_f64..1.0e12, 1..8),
        key_picks in proptest::collection::vec(0usize..1024, 1..8),
        flag in 0u8..2,
    ) {
        let doc = JsonValue::Obj(vec![
            (
                "ints".into(),
                JsonValue::Arr(ints.iter().map(|&x| JsonValue::Num(x.to_string())).collect()),
            ),
            (
                "floats".into(),
                JsonValue::Arr(floats.iter().map(|&x| JsonValue::Num(x.to_string())).collect()),
            ),
            (soup_string(&key_picks), JsonValue::Bool(flag == 1)),
            (
                "nested".into(),
                JsonValue::Obj(vec![
                    ("null".into(), JsonValue::Null),
                    ("str".into(), JsonValue::Str(soup_string(&key_picks))),
                ]),
            ),
        ]);
        let rendered = doc.to_string();
        prop_assert_eq!(JsonValue::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn nesting_bombs_are_rejected_at_any_size(extra in 1usize..4096) {
        let depth = MAX_DEPTH + extra;
        let bomb = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        prop_assert!(JsonValue::parse(&bomb).unwrap_err().contains("nesting deeper"));
        // Unclosed variant (the truncated-frame shape of the same attack).
        let bomb = "[".repeat(depth);
        prop_assert!(JsonValue::parse(&bomb).is_err());
    }
}

#[test]
fn nan_and_infinity_tokens_are_rejected_in_queries() {
    for tau in ["NaN", "Infinity", "-Infinity", "nan", "1e", "0x10"] {
        let text = format!(r#"{{"pattern":[1],"objective":{{"type":"threshold","tau":{tau}}}}}"#);
        assert!(
            matches!(Query::from_json(&text), Err(QueryError::Parse(_))),
            "accepted tau={tau}"
        );
    }
    // A finite-looking token that overflows to infinity is caught by query
    // validation rather than the parser — still typed, never a panic.
    let text = r#"{"pattern":[1],"objective":{"type":"threshold","tau":1e999}}"#;
    assert!(matches!(
        Query::from_json(text),
        Err(QueryError::InvalidTau(_))
    ));
}

#[test]
fn duplicate_keys_decode_first_wins_not_panic() {
    // Duplicate keys are not merged; the first wins throughout decoding.
    let text =
        r#"{"pattern":[1,2],"pattern":[9],"objective":{"type":"threshold","tau":1.5,"tau":99}}"#;
    let q = Query::from_json(text).unwrap();
    assert_eq!(q.pattern(), &[1, 2]);
    assert!(matches!(
        q.objective(),
        trajsearch_core::Objective::Threshold { tau } if tau == 1.5
    ));
}

#[test]
fn truncated_response_frames_are_typed_errors() {
    let text = r#"{"matches":[{"id":3,"start":1,"end":4,"dist":0.5}],"stats":{"mincand_ns":1,"lookup_ns":2,"verify_ns":3,"candidates":4,"candidates_after_temporal":4,"candidates_deduped":3,"tsubseq_len":2,"fallback":false,"sw_columns":9,"columns_passed":8,"stepdp_calls":7,"results":1}}"#;
    let full = Response::from_json(text).unwrap();
    assert_eq!(Response::from_json(&full.to_json()).unwrap(), full);
    for cut in 0..text.len() {
        assert!(
            matches!(Response::from_json(&text[..cut]), Err(QueryError::Parse(_))),
            "prefix of len {cut} accepted"
        );
    }
}
