//! Never-panics fuzzing of wire-frame decoding.
//!
//! Every frame a client sends is decoded by `Request::from_json`, and a
//! submit's campaign by `CampaignDef::from_json` and then `instantiate`;
//! clients decode the daemon's frames with `Response::from_json`.  All of
//! them see untrusted JSON.  Whatever they are given must come back as a
//! value or a `WireError`, never as a panic, and a campaign that
//! instantiates must stay inside the `MAX_*` caps.  The corpus is every
//! frame quoted in `docs/PROTOCOL.md`; case generation is seeded from the
//! test names, so every run checks the same inputs.

use proptest::prelude::*;
use rand::Rng;
use sfi_core::json::Json;
use sfi_serve::protocol::{Request, Response};
use sfi_serve::wire::{
    BenchmarkDef, BudgetDef, CampaignDef, CellDef, WireError, MAX_BENCHMARKS, MAX_CELLS,
    MAX_GUEST_DMEM_WORDS, MAX_KERNEL_SIZE, MAX_PROGRAM_WORDS, MAX_TRIALS_PER_CELL,
};
use std::collections::BTreeMap;

const PROTOCOL_DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// Every JSON frame the protocol document quotes, requests and responses
/// alike (fenced examples and `→`/`←` transcript lines).
fn canonical_frames() -> Vec<Json> {
    PROTOCOL_DOC
        .lines()
        .map(|line| line.trim().trim_start_matches(['→', '←']).trim())
        .filter(|line| line.starts_with('{'))
        .filter_map(|line| Json::parse(line).ok())
        .collect()
}

/// A rejection must explain itself.
fn rejected(err: WireError) {
    assert!(!err.0.is_empty(), "a WireError without a message");
}

/// The decoded kernel's sizes are inside the caps.
fn assert_kernel_within_caps(def: &BenchmarkDef) {
    let sizes = match def {
        BenchmarkDef::Median { values, .. } => vec![*values],
        BenchmarkDef::MatMul { n, .. }
        | BenchmarkDef::Fft { n, .. }
        | BenchmarkDef::Bitonic { n, .. } => vec![*n],
        BenchmarkDef::KMeans {
            points,
            clusters,
            iterations,
            ..
        } => vec![*points, *clusters, *iterations],
        BenchmarkDef::Dijkstra { nodes, .. } => vec![*nodes],
        BenchmarkDef::Fir { taps, outputs, .. } => vec![*taps, *outputs],
        BenchmarkDef::Crc32 { words, .. } => vec![*words],
        BenchmarkDef::Program {
            words,
            dmem_words,
            input,
            ..
        } => {
            assert!(words.len() <= MAX_PROGRAM_WORDS, "{} words", words.len());
            assert!(
                *dmem_words <= MAX_GUEST_DMEM_WORDS,
                "{dmem_words} dmem words"
            );
            assert!(input.len() <= *dmem_words);
            Vec::new()
        }
    };
    for size in sizes {
        assert!(
            (1..=MAX_KERNEL_SIZE).contains(&size),
            "size {size} in {def:?}"
        );
    }
}

/// Instantiates a decoded campaign: a rejection is a `WireError`, and
/// whatever is built stays inside the caps.
fn instantiate_checked(def: &CampaignDef) {
    match def.instantiate() {
        Ok(spec) => {
            assert!(spec.cells().len() <= MAX_CELLS);
            assert!(spec.benchmarks().len() <= MAX_BENCHMARKS);
            for cell in spec.cells() {
                assert!(cell.benchmark < spec.benchmarks().len());
                assert!(cell.budget.max_trials <= MAX_TRIALS_PER_CELL);
                assert!(cell.budget.min_trials >= 1 && cell.budget.batch >= 1);
            }
            def.benchmarks.iter().for_each(assert_kernel_within_caps);
        }
        Err(err) => rejected(err),
    }
}

/// Decodes `doc` as every wire type that reads untrusted JSON, and
/// instantiates any campaign that decodes.
fn decode_everything(doc: &Json) {
    match Request::from_json(doc) {
        Ok(Request::Submit(submit)) => instantiate_checked(&submit.spec),
        Ok(_) => {}
        Err(err) => rejected(err),
    }
    if let Err(err) = Response::from_json(doc) {
        rejected(err);
    }
    match CampaignDef::from_json(doc) {
        Ok(def) => instantiate_checked(&def),
        Err(err) => rejected(err),
    }
}

/// Parses `text` and, if it is JSON, decodes it.
fn decode_text(text: &str) {
    if let Ok(doc) = Json::parse(text) {
        decode_everything(&doc);
    }
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// Numbers at the edges the decoders must police: negative, fractional,
/// past 2^53 and 2^64, and at and one past each cap.
const EDGE_NUMBERS: &[f64] = &[
    0.0,
    -0.0,
    -1.0,
    -0.5,
    0.5,
    1.5,
    1e300,
    -1e300,
    f64::MIN_POSITIVE,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    18_446_744_073_709_551_616.0,
    4_096.0,
    4_097.0,
    50_000.0,
    50_001.0,
    65_536.0,
    65_537.0,
];

/// The same edges as decimal strings (the wire's u64 spelling), plus
/// spellings a lenient parser might accept.
const EDGE_STRINGS: &[&str] = &[
    "",
    "-1",
    "1.5",
    "+7",
    "0x10",
    "1e3",
    " 1",
    "18446744073709551615",
    "18446744073709551616",
    "4097",
    "65537",
];

/// One edge value: a number, a numeric string, or a wrong-typed value.
fn edge_value(rng: &mut TestRng) -> Json {
    match rng.gen_range(0..5u32) {
        0 | 1 => Json::Num(EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())]),
        2 => Json::Str(pick(rng, EDGE_STRINGS).into()),
        3 => {
            [Json::Null, Json::Bool(true), Json::Arr(Vec::new())][rng.gen_range(0..3usize)].clone()
        }
        _ => arb_value(rng, 2),
    }
}

/// Member names and type tags of the wire vocabulary, so random trees
/// reach past the first `missing member` check.
const KEYS: &[&str] = &[
    "type",
    "spec",
    "name",
    "seed",
    "benchmarks",
    "cells",
    "kind",
    "values",
    "n",
    "words",
    "dmem_words",
    "fi_window",
    "input",
    "output",
    "start",
    "end",
    "benchmark",
    "model",
    "p",
    "freq_mhz",
    "vdd",
    "noise_sigma_mv",
    "budget",
    "min_trials",
    "max_trials",
    "batch",
    "stop",
    "metric",
    "half_width",
    "z",
    "job",
    "limit",
    "priority",
    "client",
    "idempotency_key",
    "lo_mhz",
    "hi_mhz",
    "resolution_mhz",
    "trials",
    "v",
    "state",
    "code",
    "message",
    "cell",
    "index",
    "events",
    "spans",
    "dropped",
    "snapshot",
    "alerts",
    "document",
];

const TAGS: &[&str] = &[
    "ping",
    "submit",
    "status",
    "stream",
    "result",
    "poff",
    "metrics",
    "events",
    "trace",
    "alerts",
    "cancel",
    "drain",
    "shutdown",
    "pong",
    "submitted",
    "cell",
    "end",
    "error",
    "median",
    "matmul",
    "kmeans",
    "dijkstra",
    "fft",
    "fir",
    "crc32",
    "bitonic",
    "program",
    "dta",
    "sta",
    "sta_noise",
    "fixed_probability",
    "none",
    "correct",
    "finished",
    "low",
    "high",
    "done",
    "running",
];

/// A random JSON tree over the wire vocabulary.
fn arb_value(rng: &mut TestRng, depth: u32) -> Json {
    match rng.gen_range(0..if depth >= 4 { 4u32 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(match rng.gen_range(0..3u32) {
            0 => EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())],
            1 => rng.gen_range(0..40u32) as f64,
            _ => rng.gen_range(-1e3..1e3f64),
        }),
        3 => Json::Str(if rng.gen_bool(0.5) {
            pick(rng, TAGS).into()
        } else {
            pick(rng, EDGE_STRINGS).into()
        }),
        4 => Json::Arr(
            (0..rng.gen_range(0..4usize))
                .map(|_| arb_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..7usize))
                .map(|_| (pick(rng, KEYS).to_string(), arb_value(rng, depth + 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// Random JSON trees over the wire vocabulary.
struct ArbWireJson;

impl Strategy for ArbWireJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let mut doc = arb_value(rng, 0);
        if let Json::Obj(map) = &mut doc {
            if rng.gen_bool(0.8) {
                map.insert("type".into(), Json::Str(pick(rng, TAGS).into()));
            }
        }
        doc
    }
}

/// One structural edit somewhere in `value`: a member removed, an array
/// cut short or grown, or a node replaced by an edge value.
fn mutate_tree(value: &mut Json, rng: &mut TestRng) {
    match value {
        Json::Obj(map) if !map.is_empty() && rng.gen_bool(0.85) => {
            let key = map
                .keys()
                .nth(rng.gen_range(0..map.len()))
                .cloned()
                .expect("non-empty");
            if rng.gen_bool(0.1) {
                map.remove(&key);
            } else {
                mutate_tree(map.get_mut(&key).expect("present"), rng);
            }
        }
        Json::Arr(items) if !items.is_empty() && rng.gen_bool(0.85) => {
            let at = rng.gen_range(0..items.len());
            match rng.gen_range(0..10u32) {
                0 => items.truncate(at),
                1 => {
                    let copy = items[at].clone();
                    items.push(copy);
                }
                _ => mutate_tree(&mut items[at], rng),
            }
        }
        _ => *value = edge_value(rng),
    }
}

/// Byte edits of a canonical text: replace, insert or delete a byte, or
/// cut the text short.  The result is turned back into UTF-8 lossily.
fn mutate_text(text: &str, edits: &[(u8, usize, u8)]) -> String {
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

/// Number of leaves (non-container values) in `value`.
fn leaf_count(value: &Json) -> usize {
    match value {
        Json::Obj(map) => map.values().map(leaf_count).sum(),
        Json::Arr(items) => items.iter().map(leaf_count).sum(),
        _ => 1,
    }
}

/// Replaces the `n`-th leaf (depth-first) with `with`; returns whether
/// it was found.
fn replace_leaf(value: &mut Json, n: &mut usize, with: &Json) -> bool {
    match value {
        Json::Obj(map) => map.values_mut().any(|child| replace_leaf(child, n, with)),
        Json::Arr(items) => items.iter_mut().any(|child| replace_leaf(child, n, with)),
        leaf => {
            if *n == 0 {
                *leaf = with.clone();
                return true;
            }
            *n -= 1;
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random trees over the wire vocabulary decode or fail cleanly.
    #[test]
    fn random_json_trees_never_panic(doc in ArbWireJson) {
        decode_everything(&doc);
    }

    /// Canonical frames with a few structural edits decode or fail
    /// cleanly.
    #[test]
    fn mutated_canonical_frames_never_panic(
        index in any::<usize>(),
        edits in 1..4usize,
        seed in any::<u64>(),
    ) {
        let frames = canonical_frames();
        let mut doc = frames[index % frames.len()].clone();
        let mut rng = <TestRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..edits {
            mutate_tree(&mut doc, &mut rng);
        }
        decode_everything(&doc);
    }

    /// Canonical frames with a few byte edits decode or fail cleanly.
    #[test]
    fn byte_edited_canonical_frames_never_panic(
        index in any::<usize>(),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
    ) {
        let frames = canonical_frames();
        let text = frames[index % frames.len()].to_string();
        decode_text(&mutate_text(&text, &edits));
    }
}

/// The corpus is the protocol's own examples, so it covers every frame
/// type, and each of them decodes cleanly as it stands.
#[test]
fn the_corpus_covers_the_protocol() {
    let frames = canonical_frames();
    assert!(frames.len() >= 30, "{} frames", frames.len());
    let submits = frames
        .iter()
        .filter(|doc| matches!(Request::from_json(doc), Ok(Request::Submit(_))))
        .count();
    assert!(submits >= 2, "{submits} submit frames");
    assert!(
        frames
            .iter()
            .any(|doc| CampaignDef::from_json(doc).is_ok_and(|def| def
                .benchmarks
                .iter()
                .any(|b| matches!(b, BenchmarkDef::Program { .. })))),
        "a guest-program campaign"
    );
    frames.iter().for_each(decode_everything);
}

/// Every prefix of every canonical frame decodes or fails cleanly.
#[test]
fn every_truncation_of_a_canonical_frame_fails_cleanly() {
    for doc in canonical_frames() {
        let text = doc.to_string();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            decode_text(&text[..cut]);
        }
    }
}

/// Every leaf of every canonical frame, in turn, replaced by every edge
/// number and numeric string.
#[test]
fn out_of_range_negative_and_fractional_numbers_are_rejected_cleanly() {
    let edges: Vec<Json> = EDGE_NUMBERS
        .iter()
        .map(|&x| Json::Num(x))
        .chain(EDGE_STRINGS.iter().map(|&s| Json::Str(s.into())))
        .collect();
    for doc in canonical_frames() {
        for leaf in 0..leaf_count(&doc) {
            for edge in &edges {
                let mut edited = doc.clone();
                assert!(replace_leaf(&mut edited, &mut leaf.clone(), edge));
                decode_everything(&edited);
            }
        }
    }
}

/// A one-cell campaign over `benchmark`.
fn one_cell(benchmark: BenchmarkDef) -> CampaignDef {
    let mut def = CampaignDef::new("caps", 1);
    let index = def.add_benchmark(benchmark);
    def.cells.push(CellDef {
        benchmark: index,
        model: sfi_core::experiment::FaultModel::StatisticalDta,
        freq_mhz: 700.0,
        vdd: 0.7,
        noise_sigma_mv: 0.0,
        budget: BudgetDef::fixed(1),
    });
    def
}

/// Decodes a campaign from its wire form: at a cap it is accepted, one
/// above it is rejected with a `WireError`.
fn decodes(def: &CampaignDef) -> Result<CampaignDef, WireError> {
    CampaignDef::from_json(&Json::parse(&def.to_json().to_string()).expect("canonical JSON"))
}

#[test]
fn kernel_sizes_at_the_cap_pass_and_one_above_fails() {
    // `values` must be odd, so the median's largest size is the cap less
    // one; k-means points take the cap itself.
    for (at_cap, above) in [
        (
            BenchmarkDef::Median {
                values: MAX_KERNEL_SIZE - 1,
                seed: 3,
            },
            BenchmarkDef::Median {
                values: MAX_KERNEL_SIZE + 1,
                seed: 3,
            },
        ),
        (
            BenchmarkDef::KMeans {
                points: MAX_KERNEL_SIZE,
                clusters: 4,
                iterations: 1,
                seed: 3,
            },
            BenchmarkDef::KMeans {
                points: MAX_KERNEL_SIZE + 1,
                clusters: 4,
                iterations: 1,
                seed: 3,
            },
        ),
    ] {
        let def = decodes(&one_cell(at_cap)).expect("at the cap decodes");
        instantiate_checked(&def);
        def.instantiate().expect("at the cap instantiates");
        let err = decodes(&one_cell(above)).expect_err("one above the cap is rejected");
        assert!(err.0.contains(&MAX_KERNEL_SIZE.to_string()), "{err}");
    }
}

#[test]
fn program_words_at_the_cap_pass_and_one_above_fails() {
    // Straight-line NOPs, then the load/load/add/store kernel of the
    // protocol document's guest-program example.
    let kernel = [1_348_468_736, 1_350_565_892, 77_799_424, 1_419_771_916];
    let program = |len: usize| {
        let mut words = vec![sfi_isa::encode(sfi_isa::Instruction::Nop); len - kernel.len()];
        words.extend_from_slice(&kernel);
        one_cell(BenchmarkDef::Program {
            words,
            dmem_words: 16,
            fi_window: (0, 4),
            input: vec![40, 2],
            output: (3, 4),
            seed: 1,
        })
    };
    let def = decodes(&program(MAX_PROGRAM_WORDS)).expect("at the cap decodes");
    instantiate_checked(&def);
    def.instantiate().expect("at the cap instantiates");
    let err = decodes(&program(MAX_PROGRAM_WORDS + 1)).expect_err("one above is rejected");
    assert!(err.0.contains(&MAX_PROGRAM_WORDS.to_string()), "{err}");
}

#[test]
fn cell_counts_at_the_cap_pass_and_one_above_fails() {
    let mut def = one_cell(BenchmarkDef::Median { values: 5, seed: 3 });
    let cell = def.cells[0];
    def.cells = vec![cell; MAX_CELLS];
    let spec = def.instantiate().expect("at the cap instantiates");
    assert_eq!(spec.cells().len(), MAX_CELLS);
    def.cells.push(cell);
    let err = def.instantiate().expect_err("one above is rejected");
    assert!(err.0.contains("cap"), "{err}");

    // The decoder checks the count before it decodes a single cell, so
    // placeholder cells show where the cap falls without building
    // 65 536 cell objects: at the cap the first bad cell is the error,
    // one above it the count is.
    let wire = |cells: usize| {
        Json::obj([
            ("name", Json::Str("caps".into())),
            ("seed", Json::Str("1".into())),
            ("benchmarks", Json::Arr(Vec::new())),
            ("cells", Json::Arr(vec![Json::Null; cells])),
        ])
    };
    let at_cap = CampaignDef::from_json(&wire(MAX_CELLS)).expect_err("null cells");
    assert!(!at_cap.0.contains("cap"), "{at_cap}");
    let above = CampaignDef::from_json(&wire(MAX_CELLS + 1)).expect_err("too many");
    assert!(above.0.contains("cap"), "{above}");
}
