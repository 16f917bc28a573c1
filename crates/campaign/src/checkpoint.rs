//! Campaign checkpointing and result export.
//!
//! A checkpoint is a JSON document recording every completed cell of a
//! campaign together with the spec fingerprint it belongs to.  Writing is
//! atomic (temp file + rename), so a campaign killed mid-write leaves the
//! previous checkpoint intact; loading is strict about the fingerprint —
//! a checkpoint of a different or edited spec is ignored rather than
//! silently mixed into fresh results.
//!
//! [`run_resumable`] is a plain caller of the engine's resume seam: the
//! file's cells go in through [`CampaignEngine::with_seed_cells`] and
//! finished cells come back out through
//! [`CampaignEngine::with_progress`].
//!
//! Trials are stored as compact arrays
//! `[finished, correct, output_error, fi_rate_per_kcycle, cycles]`, with
//! NaN (the output error of crashed runs) encoded as `null`.

use crate::engine::{CampaignEngine, CampaignResult, CellResult, ProgressHook};
use crate::json::Json;
use crate::spec::CampaignSpec;
use crate::stats::CellStats;
use sfi_core::{CaseStudy, TrialResult};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Current checkpoint format version.
pub const FORMAT_VERSION: u64 = 1;

fn trial_to_json(t: &TrialResult) -> Json {
    Json::Arr(vec![
        Json::Bool(t.finished),
        Json::Bool(t.correct),
        Json::Num(t.output_error),
        Json::Num(t.fi_rate_per_kcycle),
        Json::Num(t.cycles as f64),
    ])
}

fn trial_from_json(value: &Json) -> Option<TrialResult> {
    let fields = value.as_arr()?;
    if fields.len() != 5 {
        return None;
    }
    Some(TrialResult {
        finished: fields[0].as_bool()?,
        correct: fields[1].as_bool()?,
        output_error: fields[2].as_f64()?,
        fi_rate_per_kcycle: fields[3].as_f64()?,
        cycles: fields[4].as_f64()? as u64,
    })
}

/// Serializes one cell result (the per-cell unit of the checkpoint
/// format, and the frame payload the serve protocol streams).
pub fn cell_to_json(cell: &CellResult) -> Json {
    Json::obj([
        ("cell", Json::Num(cell.cell as f64)),
        ("stopped_early", Json::Bool(cell.stopped_early)),
        (
            "trials",
            Json::Arr(cell.trials.iter().map(trial_to_json).collect()),
        ),
    ])
}

/// Decodes one cell result previously encoded by [`cell_to_json`].
/// The restored cell is marked [`CellResult::from_checkpoint`].
pub fn cell_from_json(value: &Json) -> Option<CellResult> {
    let index = value.get("cell")?.as_u64()? as usize;
    let stopped_early = value.get("stopped_early")?.as_bool()?;
    let trials: Option<Vec<TrialResult>> = value
        .get("trials")?
        .as_arr()?
        .iter()
        .map(trial_from_json)
        .collect();
    let trials = trials?;
    let stats = CellStats::from_trials(&trials);
    Some(CellResult {
        cell: index,
        trials,
        stats,
        stopped_early,
        from_checkpoint: true,
    })
}

/// Serializes completed cells (plus identifying campaign metadata) to a
/// JSON document.
pub fn document(spec: &CampaignSpec, fingerprint: u64, cells: &[CellResult]) -> Json {
    Json::obj([
        ("version", Json::Num(FORMAT_VERSION as f64)),
        ("name", Json::Str(spec.name.clone())),
        ("seed", Json::Str(spec.seed.to_string())),
        ("fingerprint", Json::Str(fingerprint.to_string())),
        ("cells", Json::Arr(cells.iter().map(cell_to_json).collect())),
    ])
}

/// Renders the full checkpoint document from already-serialized cell
/// strings and the [`document_tail`].  Byte-identical to
/// `document(..).to_string()` — object keys in alphabetical order,
/// matching the canonical `Json::Obj` writer.
fn document_text<'a>(cells: impl Iterator<Item = &'a String>, tail: &str) -> String {
    let mut out = String::from("{\"cells\":[");
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(cell);
    }
    out.push_str(tail);
    out
}

/// The part of the checkpoint document after the cell list.
fn document_tail(spec: &CampaignSpec, fingerprint: u64) -> String {
    format!(
        "],\"fingerprint\":{},\"name\":{},\"seed\":{},\"version\":{FORMAT_VERSION}}}",
        Json::Str(fingerprint.to_string()),
        Json::Str(spec.name.clone()),
        Json::Str(spec.seed.to_string()),
    )
}

/// Atomically writes `text` to `path` (temp file + rename).
fn store_text(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Atomically writes the checkpoint for `cells` to `path`.
pub fn store_cells(
    path: &Path,
    spec: &CampaignSpec,
    fingerprint: u64,
    cells: &[CellResult],
) -> io::Result<()> {
    store_text(path, &document(spec, fingerprint, cells).to_string())
}

/// Loads the cells the checkpoint at `path` holds for the spec with
/// `fingerprint`, in file order.
///
/// Missing files, malformed JSON, wrong versions and fingerprint
/// mismatches all yield no cells: resuming falls back to a fresh run
/// instead of failing or mixing incompatible data.  The cells are not
/// checked against the spec; [`CampaignEngine::with_seed_cells`] does
/// that for every seed.
pub fn load_cells(path: &Path, fingerprint: u64) -> Vec<CellResult> {
    let Some(doc) = fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    else {
        return Vec::new();
    };
    if doc.get("version").and_then(Json::as_u64) != Some(FORMAT_VERSION)
        || doc.get("fingerprint").and_then(Json::as_u64) != Some(fingerprint)
    {
        return Vec::new();
    }
    doc.get("cells")
        .and_then(Json::as_arr)
        .map(|cells| cells.iter().filter_map(cell_from_json).collect())
        .unwrap_or_default()
}

/// Runs `spec` on `engine`, resuming from and checkpointing to `path`.
///
/// The cells `path` holds for this exact spec become the run's seeds
/// (replacing any the engine carried) instead of being re-simulated, and
/// every cell that finishes simulating rewrites `path` atomically.  A
/// progress hook installed on `engine` still sees every cell, after the
/// write.
///
/// Checkpoint I/O errors are non-fatal (reported on stderr): a lost
/// checkpoint must not kill a multi-hour campaign, so there is no
/// `Result` here.
pub fn run_resumable(
    engine: &CampaignEngine,
    study: &CaseStudy,
    spec: &CampaignSpec,
    path: impl AsRef<Path>,
) -> CampaignResult {
    let path = path.as_ref().to_path_buf();
    let fingerprint = spec.fingerprint();
    let seeds = load_cells(&path, fingerprint);
    let tail = document_tail(spec, fingerprint);
    // Serialized JSON of every completed cell, keyed by cell index: a
    // finishing cell is encoded once and the document re-rendered from
    // this cache, so a write costs O(cell) encoding plus one file write.
    // The mutex also serializes the writes themselves.
    let encoded: Mutex<BTreeMap<usize, String>> = Mutex::default();
    let observer = engine.progress.clone();
    let hook: ProgressHook = Arc::new(move |cell: &CellResult| {
        let mut cells = encoded.lock().expect("checkpoint lock");
        cells.insert(cell.cell, cell_to_json(cell).to_string());
        // Restored cells are in the file already.
        if !cell.from_checkpoint {
            match store_text(&path, &document_text(cells.values(), &tail)) {
                Ok(()) => sfi_obs::metrics().engine_checkpoint_writes.inc(),
                // Non-fatal: a lost checkpoint must not kill the campaign.
                Err(err) => eprintln!("warning: failed to write campaign checkpoint: {err}"),
            }
        }
        drop(cells);
        if let Some(observer) = &observer {
            observer(cell);
        }
    });
    engine
        .clone()
        .with_seed_cells(seeds)
        .with_progress(hook)
        .run(study, spec)
}

impl CampaignResult {
    /// Exports the full campaign result as a JSON document (the same
    /// format checkpoints use, so exported results can seed a resumed
    /// run).
    pub fn to_json(&self, spec: &CampaignSpec) -> Json {
        document(spec, self.fingerprint, &self.cells)
    }

    /// Writes the JSON export to `path` atomically.
    pub fn write_json(&self, spec: &CampaignSpec, path: impl AsRef<Path>) -> io::Result<()> {
        store_cells(path.as_ref(), spec, self.fingerprint, &self.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_encoding_round_trips_including_nan() {
        let trials = [
            TrialResult {
                finished: true,
                correct: false,
                output_error: 0.125,
                fi_rate_per_kcycle: 2.5,
                cycles: 123_456,
            },
            TrialResult {
                finished: false,
                correct: false,
                output_error: f64::NAN,
                fi_rate_per_kcycle: 80.0,
                cycles: 999,
            },
        ];
        for t in &trials {
            let back = trial_from_json(&trial_to_json(t)).expect("decodes");
            assert_eq!(back.finished, t.finished);
            assert_eq!(back.correct, t.correct);
            assert_eq!(back.fi_rate_per_kcycle, t.fi_rate_per_kcycle);
            assert_eq!(back.cycles, t.cycles);
            assert_eq!(back.output_error.is_nan(), t.output_error.is_nan());
            if !t.output_error.is_nan() {
                assert_eq!(back.output_error, t.output_error);
            }
        }
    }

    #[test]
    fn malformed_trial_arrays_are_rejected() {
        assert_eq!(trial_from_json(&Json::Arr(vec![Json::Bool(true)])), None);
        assert_eq!(trial_from_json(&Json::Null), None);
    }

    #[test]
    fn incremental_document_matches_the_one_shot_writer() {
        use crate::spec::CampaignSpec;
        use crate::stats::CellStats;

        let spec = CampaignSpec::new("doc \"equivalence\"", u64::MAX);
        let trials = vec![TrialResult {
            finished: true,
            correct: true,
            output_error: 0.0,
            fi_rate_per_kcycle: 0.5,
            cycles: 42,
        }];
        let cells = vec![
            CellResult {
                cell: 0,
                stats: CellStats::from_trials(&trials),
                trials: trials.clone(),
                stopped_early: true,
                from_checkpoint: false,
            },
            CellResult {
                cell: 1,
                stats: CellStats::from_trials(&trials),
                trials,
                stopped_early: false,
                from_checkpoint: false,
            },
        ];
        let one_shot = document(&spec, 0xDEAD_BEEF, &cells).to_string();
        let encoded: Vec<String> = cells.iter().map(|c| cell_to_json(c).to_string()).collect();
        let incremental = document_text(encoded.iter(), &document_tail(&spec, 0xDEAD_BEEF));
        assert_eq!(incremental, one_shot);
    }
}
