//! Never-panics fuzzing of the JSON parser.
//!
//! `Json::parse` reads wire frames, journal records, checkpoints and the
//! characterization cache, so it sees untrusted text.  Whatever it is
//! given must come back as a value or a `ParseError` whose offset lies
//! inside the input, never as a panic or a stack overflow.  Canonical
//! documents must round-trip exactly.  Case generation is seeded from
//! the test names, so every run checks the same inputs.

use proptest::prelude::*;
use rand::Rng;
use sfi_core::json::{Json, MAX_PARSE_DEPTH};
use std::collections::BTreeMap;

/// Parses `text` and checks the error contract: any error offset is a
/// position inside (or at the end of) the input.
fn parse_checked(text: &str) -> Option<Json> {
    match Json::parse(text) {
        Ok(value) => Some(value),
        Err(err) => {
            assert!(
                err.offset <= text.len(),
                "offset {} past the end of a {}-byte input: {err}",
                err.offset,
                text.len()
            );
            None
        }
    }
}

/// Characters that exercise the tokenizer: structure, escapes, number
/// syntax, whitespace, multi-byte UTF-8 and control characters.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '/', 'n', 't', 'r', 'b', 'f', 'e', 'E', 'a', 'l',
    's', '+', '-', '.', '0', '1', '9', 'A', 'F', ' ', '\n', '\t', '\r', '\u{0}', '\u{1f}', 'é',
    '\u{2028}', '\u{ffff}', '😀',
];

/// A finite number from one of several shapes: small integers, wide
/// magnitudes, integers near 2^53 and the extremes of `f64`.
fn arb_number(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => rng.gen_range(-1000..1000i64) as f64,
        1 => any::<f64>().generate(rng),
        2 => (rng.gen_range(0..1u64 << 53) as f64) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        3 => [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
            1e300,
            0.1,
        ][rng.gen_range(0..8usize)],
        4 => rng.gen_range(-1.0..1.0f64) * 10f64.powi(rng.gen_range(-300..300i32)),
        _ => rng.gen_range(0.0..1.0f64),
    }
}

/// A string drawn from [`ALPHABET`] and arbitrary code points.
fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.8) {
                ALPHABET[rng.gen_range(0..ALPHABET.len())]
            } else {
                char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('?')
            }
        })
        .collect()
}

/// Generates finite JSON values up to a nesting depth.
struct ArbJson {
    depth: usize,
}

impl ArbJson {
    fn value(&self, rng: &mut TestRng, depth: usize) -> Json {
        let leaf_only = depth >= self.depth;
        match rng.gen_range(0..if leaf_only { 4u32 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num(arb_number(rng)),
            3 => Json::Str(arb_string(rng)),
            4 => {
                let len = rng.gen_range(0..5usize);
                Json::Arr((0..len).map(|_| self.value(rng, depth + 1)).collect())
            }
            _ => {
                let len = rng.gen_range(0..5usize);
                let map: BTreeMap<String, Json> = (0..len)
                    .map(|_| (arb_string(rng), self.value(rng, depth + 1)))
                    .collect();
                Json::Obj(map)
            }
        }
    }
}

impl Strategy for ArbJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        self.value(rng, 0)
    }
}

/// One edit of a canonical document: replace, insert or delete a byte, or
/// cut the text short.  The result is turned back into UTF-8 lossily.
fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op % 4 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings over the tokenizer's alphabet parse or fail
    /// cleanly.
    #[test]
    fn arbitrary_text_never_panics(
        chars in prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..64)
    ) {
        let text: String = chars.into_iter().collect();
        parse_checked(&text);
    }

    /// Arbitrary bytes, made UTF-8 lossily, parse or fail cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        parse_checked(&String::from_utf8_lossy(&bytes));
    }

    /// Canonical documents round-trip to an equal value.
    #[test]
    fn canonical_documents_round_trip(value in ArbJson { depth: 4 }) {
        let text = value.to_string();
        let parsed = parse_checked(&text).unwrap_or_else(|| panic!("{text:?} must parse"));
        prop_assert_eq!(&parsed, &value, "{}", text);
        // The canonical encoding is a fixed point.
        prop_assert_eq!(parsed.to_string(), text);
    }

    /// Canonical documents with a few byte edits parse or fail cleanly.
    #[test]
    fn mutated_documents_never_panic(
        value in ArbJson { depth: 3 },
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
    ) {
        parse_checked(&mutate(&value.to_string(), &edits));
    }
}

/// Every prefix of a canonical document parses or fails cleanly, and only
/// the whole document (or the whole document less trailing whitespace)
/// parses to the original value.
#[test]
fn every_truncation_of_a_document_fails_cleanly() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(48), "truncations");
    for _ in 0..runner.cases() {
        let value = ArbJson { depth: 3 }.generate(runner.rng());
        let text = value.to_string();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            if let Some(parsed) = parse_checked(&text[..cut]) {
                // A number cut short is still a number; nothing else may
                // parse before the end.
                assert!(
                    matches!(parsed, Json::Num(_)),
                    "{:?} parsed from a prefix of {text:?}",
                    &text[..cut]
                );
            }
        }
    }
}

/// Nesting just below, at and just above the cap, in arrays, objects and
/// mixes, closed or left open: no stack overflow, and the cap is exact.
#[test]
fn nesting_around_the_depth_cap_is_exact() {
    for depth in MAX_PARSE_DEPTH - 2..=MAX_PARSE_DEPTH + 2 {
        let shapes: [(String, String); 3] = [
            ("[".repeat(depth), "]".repeat(depth)),
            ("{\"k\":".repeat(depth), "}".repeat(depth)),
            (
                (0..depth)
                    .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                    .collect(),
                (0..depth)
                    .rev()
                    .map(|i| if i % 2 == 0 { "]" } else { "}" })
                    .collect(),
            ),
        ];
        for (open, close) in &shapes {
            let closed = format!("{open}1{close}");
            let parsed = parse_checked(&closed);
            assert_eq!(
                parsed.is_some(),
                depth <= MAX_PARSE_DEPTH,
                "depth {depth}: {}",
                &closed[..closed.len().min(40)]
            );
            // Unterminated or cut-off nests fail without panicking.
            assert!(parse_checked(open).is_none());
            assert!(parse_checked(&format!("{open}1{}", &close[1..])).is_none());
        }
    }
    // Far past the cap, the parser stops at the cap instead of recursing.
    let bomb = "[".repeat(1 << 20);
    let err = Json::parse(&bomb).expect_err("a nesting bomb must fail");
    assert!(err.offset <= MAX_PARSE_DEPTH + 1, "{err}");
}
