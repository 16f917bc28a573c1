//! Never-panics fuzzing of journal replay and recovery.
//!
//! On restart the daemon replays whatever bytes `journal.log` holds, so
//! replay and the fold into per-job state must survive any input: random
//! bytes, and well-framed records whose JSON payloads are not what the
//! daemon wrote.  Compaction must reach a fixed point after one pass, so
//! rewriting a compacted journal never changes it again.  Case generation
//! is seeded from the test names, so every run checks the same inputs.

use proptest::prelude::*;
use rand::Rng;
use sfi_core::json::Json;
use sfi_serve::journal::{self, compaction_records, crc32, recover, replay_bytes};

/// Frames `record` the way the journal writes it: length, CRC-32, payload.
fn framed(record: &Json) -> Vec<u8> {
    let payload = record.to_string();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Replays `data` and folds it, checking that compaction is idempotent.
fn replay_and_compact(data: &[u8]) {
    let (records, _warning) = replay_bytes(data);
    let compacted = compaction_records(&recover(&records));
    let again = compaction_records(&recover(&compacted));
    assert_eq!(again, compacted, "compaction must be a fixed point");
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// A small arbitrary JSON value: any shape the parser can produce.
fn arb_value(rng: &mut TestRng, depth: u32) -> Json {
    match rng.gen_range(0..if depth >= 2 { 4u32 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(
            [0.0, 1.0, 2.0, -1.0, 0.5, 1e300, 9_007_199_254_740_994.0][rng.gen_range(0..7usize)],
        ),
        3 => Json::Str(
            pick(
                rng,
                &[
                    "",
                    "0",
                    "1",
                    "7",
                    "18446744073709551615",
                    "18446744073709551616",
                    "-1",
                    "x",
                ],
            )
            .into(),
        ),
        4 => Json::Arr(
            (0..rng.gen_range(0..3usize))
                .map(|_| arb_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..3usize))
                .map(|_| {
                    let key = pick(rng, &["cell", "kind", "job", "state", "spec", "z"]);
                    (key.to_string(), arb_value(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

/// A journal-shaped record: the daemon's record kinds and member names,
/// with each member present, missing or of the wrong type at random.
fn arb_record(rng: &mut TestRng) -> Json {
    if rng.gen_bool(0.1) {
        return arb_value(rng, 0);
    }
    let mut members: Vec<(&'static str, Json)> = Vec::new();
    let mut maybe =
        |rng: &mut TestRng, name: &'static str, typical: Json| match rng.gen_range(0..8u32) {
            0 => {}
            1 => members.push((name, arb_value(rng, 1))),
            _ => members.push((name, typical)),
        };
    let kind = pick(
        rng,
        &[
            "submit", "start", "cell", "preempt", "done", "evict", "bogus",
        ],
    );
    maybe(rng, "kind", Json::Str(kind.into()));
    let job = rng.gen_range(0..4u64);
    let job = if rng.gen_bool(0.5) {
        Json::Str(job.to_string())
    } else {
        Json::Num(job as f64)
    };
    maybe(rng, "job", job);
    let spec = arb_value(rng, 0);
    maybe(rng, "spec", spec);
    let priority = pick(rng, &["low", "normal", "high", "urgent"]);
    maybe(rng, "priority", Json::Str(priority.into()));
    let client = pick(rng, &["a", "b", ""]);
    maybe(rng, "client", Json::Str(client.into()));
    let key = pick(rng, &["k1", "k2"]);
    maybe(rng, "key", Json::Str(key.into()));
    let cell = Json::obj([("cell", Json::Num(rng.gen_range(0..4u32) as f64))]);
    maybe(rng, "cell", cell);
    let state = pick(rng, &["done", "failed", "cancelled", "queued"]);
    maybe(rng, "state", Json::Str(state.into()));
    maybe(rng, "error", Json::Str("boom".into()));
    Json::obj(members)
}

/// A run of journal-shaped records, and junk bytes to append after their
/// frames (often none).
struct ArbJournal;

impl Strategy for ArbJournal {
    type Value = (Vec<Json>, Vec<u8>);

    fn generate(&self, rng: &mut TestRng) -> (Vec<Json>, Vec<u8>) {
        let records = (0..rng.gen_range(0..24usize))
            .map(|_| arb_record(rng))
            .collect();
        let junk_len = if rng.gen_bool(0.3) {
            rng.gen_range(0..16usize)
        } else {
            0
        };
        let junk = (0..junk_len).map(|_| any::<u8>().generate(rng)).collect();
        (records, junk)
    }
}

/// The journal bytes for `records` followed by `junk`.
fn journal_bytes(records: &[Json], junk: &[u8]) -> Vec<u8> {
    let mut data: Vec<u8> = records.iter().flat_map(framed).collect();
    data.extend_from_slice(junk);
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes replay to a (usually empty) valid prefix plus a
    /// warning, never a panic.
    #[test]
    fn random_bytes_never_panic_replay(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        replay_and_compact(&bytes);
    }

    /// A plausible header over random payload bytes: the CRC or the parse
    /// rejects it, or it decodes, but nothing panics.
    #[test]
    fn random_payloads_behind_valid_headers_never_panic(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        fix_crc in any::<bool>(),
    ) {
        let mut data = (payload.len() as u32).to_le_bytes().to_vec();
        let crc = if fix_crc { crc32(&payload) } else { 0 };
        data.extend_from_slice(&crc.to_le_bytes());
        data.extend_from_slice(&payload);
        replay_and_compact(&data);
    }

    /// Well-framed records with arbitrary JSON payloads all replay, and
    /// recovery and compaction accept whatever they say.
    #[test]
    fn framed_arbitrary_records_replay_and_compact((records, junk) in ArbJournal) {
        let data = journal_bytes(&records, &junk);
        let (replayed, _) = replay_bytes(&data);
        prop_assert_eq!(&replayed[..records.len()], &records[..]);
        replay_and_compact(&data);
    }

    /// Flipping one bit of a journal loses at most the records from that
    /// bit on.
    #[test]
    fn a_flipped_bit_keeps_the_prefix(
        (records, junk) in ArbJournal,
        at in any::<usize>(),
        bit in 0..8u32,
    ) {
        let mut data = journal_bytes(&records, &junk);
        if !data.is_empty() {
            let at = at % data.len();
            data[at] ^= 1 << bit;
            // Records whose frames end at or before the flipped byte.
            let mut end = 0;
            let intact = records
                .iter()
                .take_while(|record| {
                    end += framed(record).len();
                    end <= at
                })
                .count();
            let (replayed, _) = replay_bytes(&data);
            prop_assert!(replayed.len() >= intact);
            prop_assert_eq!(&replayed[..intact], &records[..intact]);
            replay_and_compact(&data);
        }
    }
}

/// Records the daemon writes, in orders it never would: transitions
/// before the submit, cells after `done`, duplicate submits.
#[test]
fn out_of_order_transitions_compact_to_a_fixed_point() {
    let spec = Json::obj([("name", Json::Str("demo".into()))]);
    let cell = |index: u32| Json::obj([("cell", Json::Num(index as f64))]);
    let records = [
        journal::cell_record(1, &cell(0)),
        journal::submit_record(1, &spec, sfi_serve::jobs::Priority::High, "a", Some("k")),
        journal::submit_record(1, &Json::Null, sfi_serve::jobs::Priority::Low, "b", None),
        journal::start_record(1),
        journal::cell_record(1, &cell(0)),
        journal::cell_record(1, &cell(0)),
        journal::preempt_record(1),
        journal::done_record(1, "done", None),
        journal::start_record(1),
        journal::done_record(1, "failed", Some("late")),
        journal::cell_record(1, &cell(1)),
        journal::evict_record(1),
    ];
    let data = journal_bytes(&records, &[]);
    replay_and_compact(&data);
    let jobs = recover(&replay_bytes(&data).0);
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].spec, spec, "the first submit wins");
    assert!(jobs[0].cells.is_empty(), "a terminal job keeps no cells");
    assert_eq!(
        jobs[0].terminal,
        Some(("failed".to_string(), Some("late".to_string())))
    );
}
