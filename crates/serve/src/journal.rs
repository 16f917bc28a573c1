//! The durable job journal: crash recovery for the serve daemon.
//!
//! An append-only, fsync'd log under `--state-dir` records every job
//! transition (`submit`, `start`, `cell`, `preempt`, `done`, `evict`) as
//! one length-prefixed, CRC-framed JSON record.  On restart the daemon
//! [replays](replay_file) the journal — tolerating a torn or corrupt
//! final record, which a crash mid-append can leave behind — and
//! [folds](recover) the records into per-job recovery state: queued jobs
//! come back queued, running jobs come back queued *with their completed
//! cells as seeds* (the engine's `with_seed_cells` overlay re-announces
//! them and simulates only the rest), and terminal jobs keep their
//! status.  Determinism makes the guarantee strong: a recovered campaign
//! produces a result document byte-identical to an uninterrupted run.
//!
//! # Framing
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len u32 LE │ crc u32 LE │ payload (len B)  │  … repeated
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE) of the payload bytes; the payload is one JSON
//! record in canonical encoding.  Each append is a single `write` followed
//! by `fdatasync`, so the journal survives `kill -9` with at most the
//! in-flight record lost — and the replay loop treats any framing, CRC or
//! parse failure as the torn tail: it warns, keeps the valid prefix, and
//! discards the rest.  Cell payloads reuse the campaign checkpoint cell
//! codec (`sfi_campaign::checkpoint`), the same format the wire `stream`
//! frames carry.

use crate::jobs::Priority;
use sfi_core::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal file name under `--state-dir`.
pub const JOURNAL_FILE: &str = "journal.log";

/// Hard cap on one journal record's payload, mirroring the wire frame
/// cap: a length prefix beyond this is treated as tail corruption.
pub const MAX_RECORD_BYTES: usize = crate::protocol::MAX_FRAME_BYTES;

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// An open journal: appends are serialized and fsync'd.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal under `state_dir`.
    pub fn open(state_dir: &Path) -> io::Result<Journal> {
        fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Atomically replaces the journal with a compacted one carrying
    /// exactly `records`, then reopens it for appending.  Used after a
    /// restart replay so the journal does not grow without bound across
    /// daemon generations.
    pub fn rewrite(state_dir: &Path, records: &[Json]) -> io::Result<Journal> {
        fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let tmp = state_dir.join(format!("{JOURNAL_FILE}.tmp"));
        {
            let mut file = File::create(&tmp)?;
            for record in records {
                file.write_all(&frame(record.to_string().as_bytes()))?;
            }
            file.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        // Make the rename itself durable where the platform allows it.
        if let Ok(dir) = File::open(state_dir) {
            let _ = dir.sync_all();
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it to disk.
    pub fn append(&self, record: &Json) -> io::Result<()> {
        let framed = frame(record.to_string().as_bytes());
        let file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let mut file = &*file;
        file.write_all(&framed)?;
        file.sync_data()?;
        sfi_obs::metrics().journal_appends.inc();
        Ok(())
    }

    /// [`append`](Self::append), downgrading failures to a warning: a
    /// full disk must not take the scheduler down with it.
    pub fn append_best_effort(&self, record: &Json) {
        if let Err(err) = self.append(record) {
            eprintln!(
                "sfi-serve: warning: journal append failed ({}): {err}",
                self.path.display()
            );
        }
    }
}

// — record constructors (canonical key order comes from Json::obj) —

fn base(kind: &'static str, job: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("kind", Json::Str(kind.into())),
        ("job", Json::Str(job.to_string())),
    ]
}

/// A `submit` record: the job exists, with its re-instantiable wire spec.
pub fn submit_record(
    job: u64,
    spec: &Json,
    priority: Priority,
    client: &str,
    idempotency_key: Option<&str>,
) -> Json {
    let mut members = base("submit", job);
    members.push(("spec", spec.clone()));
    members.push(("priority", Json::Str(priority.as_str().into())));
    members.push(("client", Json::Str(client.into())));
    if let Some(key) = idempotency_key {
        members.push(("key", Json::Str(key.into())));
    }
    Json::obj(members)
}

/// A `start` record: the job was dispatched to the engine.
pub fn start_record(job: u64) -> Json {
    Json::obj(base("start", job))
}

/// A `cell` record: one campaign cell completed (checkpoint cell format).
pub fn cell_record(job: u64, cell: &Json) -> Json {
    let mut members = base("cell", job);
    members.push(("cell", cell.clone()));
    Json::obj(members)
}

/// A `preempt` record: the job was cooperatively returned to its queue.
pub fn preempt_record(job: u64) -> Json {
    Json::obj(base("preempt", job))
}

/// A `done` record: the job reached a terminal state.
pub fn done_record(job: u64, state: &str, error: Option<&str>) -> Json {
    let mut members = base("done", job);
    members.push(("state", Json::Str(state.into())));
    if let Some(error) = error {
        members.push(("error", Json::Str(error.into())));
    }
    Json::obj(members)
}

/// An `evict` record: the retained result was dropped under the byte cap.
pub fn evict_record(job: u64) -> Json {
    Json::obj(base("evict", job))
}

/// Replays the journal at `state_dir/journal.log`.
///
/// Returns the decoded records; a missing file is an empty journal.  A
/// torn or corrupt tail — short header, short payload, CRC mismatch, or
/// an unparsable record — is *not* an error: the valid prefix is kept,
/// the tail discarded, and a warning printed, so one interrupted append
/// can never wedge a restart.
pub fn replay_file(state_dir: &Path) -> io::Result<Vec<Json>> {
    let path = state_dir.join(JOURNAL_FILE);
    let data = match fs::read(&path) {
        Ok(data) => data,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let (records, warning) = replay_bytes(&data);
    if let Some(warning) = warning {
        eprintln!(
            "sfi-serve: warning: journal {} has a torn tail ({warning}); \
             recovered {} record(s), discarding the rest",
            path.display(),
            records.len()
        );
    }
    Ok(records)
}

/// Decodes framed records from `data`; the second element carries a
/// description of the torn/corrupt tail, if one was found.
pub fn replay_bytes(data: &[u8]) -> (Vec<Json>, Option<String>) {
    let metrics = sfi_obs::metrics();
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        let remaining = &data[offset..];
        if remaining.len() < 8 {
            return (
                records,
                Some(format!("{} trailing header byte(s)", remaining.len())),
            );
        }
        let len = u32::from_le_bytes(remaining[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return (
                records,
                Some(format!(
                    "implausible record length {len} at offset {offset}"
                )),
            );
        }
        if remaining.len() < 8 + len {
            return (
                records,
                Some(format!(
                    "record at offset {offset} is truncated ({} of {len} payload bytes)",
                    remaining.len() - 8
                )),
            );
        }
        let payload = &remaining[8..8 + len];
        if crc32(payload) != crc {
            return (records, Some(format!("CRC mismatch at offset {offset}")));
        }
        let record = match std::str::from_utf8(payload)
            .ok()
            .and_then(|text| Json::parse(text).ok())
        {
            Some(record) => record,
            None => {
                return (
                    records,
                    Some(format!("unparsable record at offset {offset}")),
                )
            }
        };
        records.push(record);
        metrics.journal_replayed.inc();
        offset += 8 + len;
    }
    (records, None)
}

/// Per-job state folded out of a journal replay.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The journaled job id (reused verbatim on restore).
    pub id: u64,
    /// The wire campaign definition (`CampaignDef` document).
    pub spec: Json,
    /// The scheduling class the job was accepted at.
    pub priority: Priority,
    /// The client id the job is accounted against.
    pub client: String,
    /// The idempotency key the submit carried, if any.
    pub idempotency_key: Option<String>,
    /// Completed cells (checkpoint cell format), deduplicated by cell
    /// index, journal order.  Seeds for the resumed run; empty once the
    /// job is terminal.
    pub cells: Vec<Json>,
    /// Cooperative preemptions the job had accumulated.
    pub preemptions: u64,
    /// Whether the job had ever been dispatched.
    pub started: bool,
    /// Terminal state and error, when the job had already finished:
    /// `(state, error)` with the wire spelling of [`crate::jobs::JobState`].
    pub terminal: Option<(String, Option<String>)>,
}

/// Folds replayed records into per-job recovery state, id order.
///
/// Records that reference a job with no preceding `submit` record are
/// skipped: a crash between job creation and the submit append can leave
/// such orphans, and the un-acknowledged client will simply resubmit.
pub fn recover(records: &[Json]) -> Vec<RecoveredJob> {
    let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    let mut seen_cells: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for record in records {
        let kind = record.get("kind").and_then(Json::as_str).unwrap_or("");
        let Some(id) = record.get("job").and_then(Json::as_u64) else {
            continue;
        };
        match kind {
            "submit" => {
                let Some(spec) = record.get("spec") else {
                    continue;
                };
                jobs.entry(id).or_insert_with(|| RecoveredJob {
                    id,
                    spec: spec.clone(),
                    priority: record
                        .get("priority")
                        .and_then(Json::as_str)
                        .and_then(Priority::parse)
                        .unwrap_or(Priority::Normal),
                    client: record
                        .get("client")
                        .and_then(Json::as_str)
                        .unwrap_or("anonymous")
                        .to_string(),
                    idempotency_key: record.get("key").and_then(Json::as_str).map(str::to_string),
                    cells: Vec::new(),
                    preemptions: 0,
                    started: false,
                    terminal: None,
                });
            }
            "start" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.started = true;
                }
            }
            "cell" => {
                let (Some(job), Some(cell)) = (jobs.get_mut(&id), record.get("cell")) else {
                    continue;
                };
                // A cell landing after `done` is no resume seed either.
                if job.terminal.is_some() {
                    continue;
                }
                let index = cell.get("cell").and_then(Json::as_u64).unwrap_or(u64::MAX);
                if seen_cells.entry(id).or_default().insert(index) {
                    job.cells.push(cell.clone());
                }
            }
            "preempt" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.preemptions += 1;
                }
            }
            "done" => {
                if let Some(job) = jobs.get_mut(&id) {
                    // A finished job's cells are no resume seed any more;
                    // like an evicted result, nothing can fetch them.
                    job.cells = Vec::new();
                    job.terminal = Some((
                        record
                            .get("state")
                            .and_then(Json::as_str)
                            .unwrap_or("failed")
                            .to_string(),
                        record
                            .get("error")
                            .and_then(Json::as_str)
                            .map(str::to_string),
                    ));
                }
            }
            // Results are not journaled, so eviction needs no replay
            // action: every recovered terminal job reports `evicted`.
            "evict" => {}
            _ => {}
        }
    }
    jobs.into_values().collect()
}

/// The compacted journal records equivalent to `jobs`: one `submit` per
/// job, its `start`, `preempt` and `cell` records, and the `done` record
/// for terminal ones.
pub fn compaction_records(jobs: &[RecoveredJob]) -> Vec<Json> {
    let mut records = Vec::new();
    for job in jobs {
        records.push(submit_record(
            job.id,
            &job.spec,
            job.priority,
            &job.client,
            job.idempotency_key.as_deref(),
        ));
        if job.started {
            records.push(start_record(job.id));
        }
        for _ in 0..job.preemptions {
            records.push(preempt_record(job.id));
        }
        for cell in &job.cells {
            records.push(cell_record(job.id, cell));
        }
        if let Some((state, error)) = &job.terminal {
            records.push(done_record(job.id, state, error.as_deref()));
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfi-journal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_spec() -> Json {
        Json::obj([
            ("name", Json::Str("demo".into())),
            ("seed", Json::Str("42".into())),
        ])
    }

    fn cell_doc(index: u64) -> Json {
        Json::obj([
            ("cell", Json::Num(index as f64)),
            ("stopped_early", Json::Bool(false)),
        ])
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let dir = temp_dir("roundtrip");
        let journal = Journal::open(&dir).expect("opens");
        let records = [
            submit_record(1, &demo_spec(), Priority::High, "alice", Some("k1")),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            preempt_record(1),
            done_record(1, "done", None),
            evict_record(1),
            done_record(2, "failed", Some("boom")),
        ];
        for record in &records {
            journal.append(record).expect("appends");
        }
        let replayed = replay_file(&dir).expect("replays");
        assert_eq!(replayed.len(), records.len());
        for (record, replayed) in records.iter().zip(&replayed) {
            assert_eq!(record, replayed);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_journal_is_an_empty_journal() {
        let dir = temp_dir("missing");
        assert!(replay_file(&dir).expect("replays").is_empty());
    }

    #[test]
    fn a_torn_tail_recovers_the_prefix() {
        let dir = temp_dir("torn");
        let journal = Journal::open(&dir).expect("opens");
        journal
            .append(&submit_record(
                1,
                &demo_spec(),
                Priority::Normal,
                "ci",
                None,
            ))
            .expect("appends");
        journal
            .append(&cell_record(1, &cell_doc(0)))
            .expect("appends");
        let path = journal.path().to_path_buf();
        drop(journal);

        // Tear the file mid-record: a partial third append.
        let mut data = fs::read(&path).expect("reads");
        let intact = data.len();
        data.extend_from_slice(&frame(cell_record(1, &cell_doc(1)).to_string().as_bytes()));
        data.truncate(intact + 11);
        fs::write(&path, &data).expect("writes");

        let replayed = replay_file(&dir).expect("tolerates the tear");
        assert_eq!(replayed.len(), 2, "the intact prefix survives");
        let (_, warning) = replay_bytes(&fs::read(&path).expect("reads"));
        assert!(warning.is_some(), "the tear is reported");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_crc_discards_the_tail_not_the_prefix() {
        let dir = temp_dir("crc");
        let journal = Journal::open(&dir).expect("opens");
        journal
            .append(&submit_record(
                1,
                &demo_spec(),
                Priority::Normal,
                "ci",
                None,
            ))
            .expect("appends");
        journal
            .append(&cell_record(1, &cell_doc(0)))
            .expect("appends");
        let path = journal.path().to_path_buf();
        drop(journal);

        // Flip one payload byte of the *last* record.
        let mut data = fs::read(&path).expect("reads");
        let last = data.len() - 1;
        data[last] ^= 0x20;
        fs::write(&path, &data).expect("writes");

        let (records, warning) = replay_bytes(&fs::read(&path).expect("reads"));
        assert_eq!(records.len(), 1);
        assert!(warning.unwrap().contains("CRC mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_implausible_length_prefix_is_treated_as_corruption() {
        let mut data = frame(b"{}").to_vec();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&[0, 0, 0, 0]);
        let (records, warning) = replay_bytes(&data);
        assert_eq!(records.len(), 1);
        assert!(warning.unwrap().contains("implausible"));
    }

    #[test]
    fn recover_folds_transitions_per_job() {
        let records = vec![
            submit_record(1, &demo_spec(), Priority::High, "alice", Some("k1")),
            submit_record(2, &demo_spec(), Priority::Normal, "bob", None),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            cell_record(1, &cell_doc(0)), // duplicate: preemption overlap
            cell_record(1, &cell_doc(2)),
            preempt_record(1),
            start_record(2),
            done_record(2, "failed", Some("boom")),
            // Orphan: no submit record for job 9 (crash window).
            cell_record(9, &cell_doc(0)),
        ];
        let jobs = recover(&records);
        assert_eq!(jobs.len(), 2);

        let one = &jobs[0];
        assert_eq!(one.id, 1);
        assert_eq!(one.priority, Priority::High);
        assert_eq!(one.client, "alice");
        assert_eq!(one.idempotency_key.as_deref(), Some("k1"));
        assert_eq!(one.cells.len(), 2, "cell 0 deduplicated");
        assert_eq!(one.preemptions, 1);
        assert!(one.started);
        assert!(one.terminal.is_none());

        let two = &jobs[1];
        assert_eq!(two.id, 2);
        assert_eq!(
            two.terminal,
            Some(("failed".to_string(), Some("boom".to_string())))
        );
    }

    #[test]
    fn rewrite_compacts_and_stays_appendable() {
        let dir = temp_dir("rewrite");
        let journal = Journal::open(&dir).expect("opens");
        for record in [
            submit_record(1, &demo_spec(), Priority::Normal, "ci", None),
            start_record(1),
            cell_record(1, &cell_doc(0)),
            submit_record(2, &demo_spec(), Priority::Low, "ci", None),
            done_record(2, "done", None),
            evict_record(2),
        ] {
            journal.append(&record).expect("appends");
        }
        drop(journal);

        let jobs = recover(&replay_file(&dir).expect("replays"));
        let compact = compaction_records(&jobs);
        let journal = Journal::rewrite(&dir, &compact).expect("rewrites");
        journal
            .append(&cell_record(1, &cell_doc(1)))
            .expect("appends");
        drop(journal);

        let jobs = recover(&replay_file(&dir).expect("replays"));
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].cells.len(), 2, "compacted cell + new append");
        assert_eq!(jobs[1].terminal, Some(("done".to_string(), None)));
        let _ = fs::remove_dir_all(&dir);
    }
}
