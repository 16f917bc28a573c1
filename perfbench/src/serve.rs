//! `serve`: the campaign daemon in process, driven over loopback by two
//! closed-loop clients — each waits for its job's result before sending
//! the next, the way `sfi-client submit` callers do.
//!
//! Each job is `submit` → `stream` to `end` → `result`, then a `status`
//! and a re-fetch of the client's previous result, so reads run beside
//! the journal's fsync'd writes.  Jobs are small builtin kernels and
//! assembled guest programs (so the `sfi-verify` gate runs on every
//! such submit), two cells of a few trials each: simulation is a small
//! share, and framing, verification, the journal and the scheduler
//! dominate.

use crate::layers::{self, TrialSet};
use crate::trace::Tracer;
use crate::{stats, timed_builds, Config, Fnv, Report};
use sfi_campaign::CampaignEngine;
use sfi_core::json::Json;
use sfi_core::{derive_trial_seed, CaseStudy, FaultModel};
use sfi_serve::asm_submit::{campaign_from_asm, AsmCellParams};
use sfi_serve::client::Client;
use sfi_serve::server::{ServeConfig, Server};
use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Clients driving the daemon, and the daemon's concurrent-job limit.
const CLIENTS: usize = 2;

/// Leading jobs whose result documents the digest covers and whose
/// trials traced runs attribute: a fixed set, so that the simulated
/// counts repeat exactly however many jobs a run completes.
const LEADING_JOBS: u64 = 100;

/// Job `index` of the stream for `seed`: one kernel (cycling through
/// fft, crc32, median, fir and an assembled dot-product program) with
/// inputs and campaign seed derived from `(seed, index)`, as two model-C
/// cells at 1.0 and 1.05 × the STA limit.
pub fn job_def(seed: u64, index: u64, sta_mhz: f64, trials: usize) -> CampaignDef {
    let data = derive_trial_seed(seed, index, 1);
    let campaign = derive_trial_seed(seed, index, 2);
    let name = format!("perfbench-{index}");
    let mut cell = CellDef {
        benchmark: 0,
        model: FaultModel::StatisticalDta,
        freq_mhz: sta_mhz,
        vdd: 0.7,
        noise_sigma_mv: 10.0,
        budget: BudgetDef::fixed(trials),
    };
    let mut def = match index % 5 {
        4 => {
            let params = AsmCellParams {
                model: cell.model,
                freq_mhz: cell.freq_mhz,
                vdd: cell.vdd,
                noise_sigma_mv: cell.noise_sigma_mv,
                trials,
                seed: campaign,
                default_dmem_words: 64,
            };
            let source = dot_product_source(data);
            campaign_from_asm(&name, "dot.s", &source, &params)
                .expect("the generated dot product assembles")
                .0
        }
        kind => {
            let mut def = CampaignDef::new(name, campaign);
            def.add_benchmark(match kind {
                0 => BenchmarkDef::Fft { n: 16, seed: data },
                1 => BenchmarkDef::Crc32 {
                    words: 16,
                    seed: data,
                },
                2 => BenchmarkDef::Median {
                    values: 31,
                    seed: data,
                },
                _ => BenchmarkDef::Fir {
                    taps: 8,
                    outputs: 16,
                    seed: data,
                },
            });
            def.cells.push(cell);
            def
        }
    };
    cell.freq_mhz = sta_mhz * 1.05;
    def.cells.push(cell);
    def
}

/// A dot product of two 8-element vectors with entries drawn from `seed`.
fn dot_product_source(seed: u64) -> String {
    const N: u64 = 8;
    let mut input = String::new();
    for i in 0..2 * N {
        let _ = write!(input, " {}", derive_trial_seed(seed, i, 0) % 256);
    }
    format!(
        ".dmem {dmem}\n.input{input}\n.output {out}:{end}\n\
         \x20       l.addi  r1, r0, 0\n\
         \x20       l.addi  r2, r0, 0\n\
         \x20       l.addi  r5, r0, {N}\n\
         loop:\n\
         \x20       l.lwz   r3, 0(r2)\n\
         \x20       l.lwz   r4, {b}(r2)\n\
         \x20       l.mul   r3, r3, r4\n\
         \x20       l.add   r1, r1, r3\n\
         \x20       l.addi  r2, r2, 4\n\
         \x20       l.addi  r5, r5, -1\n\
         \x20       l.sfne  r5, r0\n\
         \x20       l.bf    loop\n\
         \x20       l.sw    {store}(r0), r1\n",
        dmem = 2 * N + 1,
        out = 2 * N,
        end = 2 * N + 1,
        b = 4 * N,
        store = 8 * N,
    )
}

/// Client-side timestamps and outputs of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Position in the job stream.
    pub index: u64,
    /// Daemon job id.
    pub job: u64,
    sent: Instant,
    acked: Instant,
    first_cell: Option<Instant>,
    last_cell: Option<Instant>,
    ended: Instant,
    resulted: Instant,
    status_done: Instant,
    refetch: Option<(Instant, Instant)>,
    /// The result document as received.
    pub document: String,
}

impl JobRecord {
    fn ms(a: Instant, b: Instant) -> f64 {
        b.saturating_duration_since(a).as_secs_f64() * 1e3
    }

    /// Submit sent → result document received.
    pub fn latency_ms(&self) -> f64 {
        Self::ms(self.sent, self.resulted)
    }
}

/// A state directory no other daemon of this process uses.
fn fresh_dir(dir: &Path, what: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{what}-{}-{n}", std::process::id()))
}

/// A running daemon: the server, one client for control frames and the
/// state directory, removed at the end.
struct Daemon {
    server: Server,
    control: Client,
    sta_mhz: f64,
    state_dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon journaling into a fresh `state_dir`; returns it with
    /// the time from `Server::start` to the first pong.
    fn start(config: &Config, state_dir: PathBuf) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let serve_config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            study: config.study.clone(),
            threads: Some(config.threads),
            max_concurrent_jobs: CLIENTS,
            state_dir: Some(state_dir.clone()),
            quiet: true,
            ..ServeConfig::default()
        };
        let start = Instant::now();
        let server = Server::start(serve_config).map_err(|e| format!("daemon start: {e}"))?;
        let mut control =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let info = control.ping().map_err(|e| format!("ping: {e}"))?;
        let setup = start.elapsed().as_secs_f64();
        Ok((
            Daemon {
                server,
                control,
                sta_mhz: info.sta_limit_mhz,
                state_dir,
            },
            setup,
        ))
    }

    fn stop(mut self) -> Result<(), String> {
        let shutdown = self
            .control
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"));
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.state_dir);
        shutdown
    }
}

/// Counters read from the daemon's `metrics` frame.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonCounters {
    wait_sum_s: f64,
    wait_count: f64,
    run_sum_s: f64,
    run_count: f64,
    journal_appends: f64,
}

impl DaemonCounters {
    fn read(client: &mut Client) -> Result<DaemonCounters, String> {
        let snapshot = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let family = |name: &str| -> Option<&Json> {
            snapshot
                .get("families")?
                .as_arr()?
                .iter()
                .find(|f| f.get("name").and_then(Json::as_str) == Some(name))?
                .get("samples")?
                .as_arr()?
                .first()?
                .get("value")
        };
        let number = |v: Option<&Json>| -> f64 {
            v.and_then(|v| {
                v.as_f64()
                    .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
            })
            .unwrap_or(f64::NAN)
        };
        let hist = |name: &str| {
            let v = family(name);
            (
                number(v.and_then(|v| v.get("sum"))),
                number(v.and_then(|v| v.get("count"))),
            )
        };
        let (wait_sum_s, wait_count) = hist("sfi_sched_job_wait_seconds");
        let (run_sum_s, run_count) = hist("sfi_sched_job_run_seconds");
        Ok(DaemonCounters {
            wait_sum_s,
            wait_count,
            run_sum_s,
            run_count,
            journal_appends: number(family("sfi_journal_appends_total")),
        })
    }
}

/// Runs closed-loop clients until `seconds` have passed and at least
/// `min_jobs` jobs were issued (exactly `min_jobs` when `seconds` is 0).
/// Returns the jobs by index, the window in seconds, and the errors.
fn closed_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    sta_mhz: f64,
    trials: usize,
    seconds: f64,
    min_jobs: u64,
    tracer: &Tracer,
) -> (Vec<JobRecord>, f64, Vec<String>) {
    let next = Mutex::new(0u64);
    let records = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let start = Instant::now();
    let claim = || {
        let mut n = next.lock().expect("job counter lock poisoned");
        let done = *n >= min_jobs && (seconds == 0.0 || start.elapsed().as_secs_f64() >= seconds);
        (!done).then(|| {
            *n += 1;
            *n - 1
        })
    };
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        errors
                            .lock()
                            .expect("error list lock poisoned")
                            .push(format!("connect: {e}"));
                        return;
                    }
                };
                let mut previous: Option<(u64, String)> = None;
                while let Some(index) = claim() {
                    let def = job_def(seed, index, sta_mhz, trials);
                    match one_job(&mut client, index, &def, previous.as_ref()) {
                        Ok(record) => {
                            record_spans(tracer, &record);
                            previous = Some((record.job, record.document.clone()));
                            records
                                .lock()
                                .expect("record list lock poisoned")
                                .push(record);
                        }
                        Err(e) => errors
                            .lock()
                            .expect("error list lock poisoned")
                            .push(format!("job {index}: {e}")),
                    }
                }
            });
        }
    });
    let window = start.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("record list lock poisoned");
    records.sort_by_key(|r| r.index);
    (
        records,
        window,
        errors.into_inner().expect("error list lock poisoned"),
    )
}

fn one_job(
    client: &mut Client,
    index: u64,
    def: &CampaignDef,
    previous: Option<&(u64, String)>,
) -> Result<JobRecord, String> {
    let sent = Instant::now();
    let ticket = client.submit(def).map_err(|e| format!("submit: {e}"))?;
    let acked = Instant::now();
    let (mut first_cell, mut last_cell) = (None, None);
    let state = client
        .stream(ticket.job, |_| {
            let now = Instant::now();
            first_cell.get_or_insert(now);
            last_cell = Some(now);
        })
        .map_err(|e| format!("stream: {e}"))?;
    let ended = Instant::now();
    if state != "done" {
        return Err(format!("job ended {state}"));
    }
    let document = client
        .result(ticket.job)
        .map_err(|e| format!("result: {e}"))?
        .to_string();
    let resulted = Instant::now();
    let status = client
        .status(ticket.job)
        .map_err(|e| format!("status: {e}"))?;
    let status_done = Instant::now();
    if status.completed_cells != def.cells.len() || !status.is_terminal() {
        return Err(format!("status after the result: {status:?}"));
    }
    let refetch = match previous {
        Some((job, expected)) => {
            let start = Instant::now();
            let again = client
                .result(*job)
                .map_err(|e| format!("re-fetch: {e}"))?
                .to_string();
            if &again != expected {
                return Err(format!("re-fetched result of job {job} changed"));
            }
            Some((start, Instant::now()))
        }
        None => None,
    };
    Ok(JobRecord {
        index,
        job: ticket.job,
        sent,
        acked,
        first_cell,
        last_cell,
        ended,
        resulted,
        status_done,
        refetch,
        document,
    })
}

/// Checks every served document against an in-process engine run of the
/// same definition.  Returns the problems and the campaign-layer timings
/// (two-worker and one-worker runs) plus the trials to attribute.
fn verify_documents(
    config: &Config,
    study: &CaseStudy,
    seed: u64,
    sta_mhz: f64,
    records: &[JobRecord],
    traced: bool,
) -> (Vec<String>, crate::CampaignTimes, TrialSet) {
    let mut problems = Vec::new();
    let mut set = TrialSet::default();
    let mut times = crate::CampaignTimes {
        runs: 0,
        threads: config.threads,
        wall_s: 0.0,
        wall_1_s: 0.0,
        trial_s: 0.0,
        golden_s: 0.0,
        busy_us: 0,
        idle_us: 0,
    };
    let engine = CampaignEngine::new().with_threads(config.threads);
    for record in records {
        let def = job_def(seed, record.index, sta_mhz, config.serve_trials);
        let spec = match def.instantiate() {
            Ok(spec) => spec,
            Err(e) => {
                problems.push(format!("job {}: {e:?}", record.index));
                continue;
            }
        };
        let (busy0, idle0) = layers::engine_busy_idle_us();
        let start = Instant::now();
        let result = engine.run(study, &spec);
        times.wall_s += start.elapsed().as_secs_f64();
        let (busy1, idle1) = layers::engine_busy_idle_us();
        let expected = result.to_json(&spec).to_string();
        if expected != record.document {
            problems.push(format!(
                "job {} (daemon job {}): served result differs from the in-process run",
                record.index, record.job
            ));
        }
        if traced && record.index < LEADING_JOBS {
            times.runs += 1;
            times.busy_us += busy1 - busy0;
            times.idle_us += idle1 - idle0;
            let start = Instant::now();
            let single = CampaignEngine::new().with_threads(1).run(study, &spec);
            times.wall_1_s += start.elapsed().as_secs_f64();
            if single.to_json(&spec).to_string() != expected {
                problems.push(format!("job {}: one-worker run differs", record.index));
            }
            times.golden_s += layers::golden_seconds(spec.benchmarks())
                .iter()
                .sum::<f64>();
            set.add_campaign(&spec, &result, usize::MAX);
        }
    }
    (problems, times, set)
}

/// Guest programs of the first `jobs` jobs, as the verifier takes them.
fn guest_programs(
    seed: u64,
    sta_mhz: f64,
    jobs: u64,
) -> Vec<(sfi_isa::Program, usize, std::ops::Range<u32>)> {
    (0..jobs)
        .filter_map(|i| match &job_def(seed, i, sta_mhz, 1).benchmarks[0] {
            BenchmarkDef::Program {
                words,
                dmem_words,
                fi_window,
                ..
            } => sfi_isa::Program::from_words(words)
                .ok()
                .map(|p| (p, *dmem_words, fi_window.0..fi_window.1)),
            _ => None,
        })
        .collect()
}

/// Records one job's spans, from the client thread that ran it.
fn record_spans(tracer: &Tracer, r: &JobRecord) {
    let job = Some(r.job);
    let first = r.first_cell.unwrap_or(r.ended);
    let last = r.last_cell.unwrap_or(r.ended);
    let root = tracer.record("serve.job", "serve", 0, job, r.sent, r.resulted);
    tracer.record("serve.submit", "serve", root, job, r.sent, r.acked);
    tracer.record("serve.queue", "sched", root, job, r.acked, first);
    tracer.record("serve.cells", "campaign", root, job, first, last);
    tracer.record("serve.stream_tail", "serve", root, job, last, r.ended);
    tracer.record("serve.result", "serve", root, job, r.ended, r.resulted);
    tracer.record("serve.status", "serve", 0, job, r.resulted, r.status_done);
    if let Some((a, b)) = r.refetch {
        tracer.record("serve.refetch", "serve", 0, job, a, b);
    }
}

/// Sets the serve-layer metrics.
fn set_serve_metrics(
    report: &mut Report,
    records: &[JobRecord],
    before: DaemonCounters,
    after: DaemonCounters,
    verify_us: f64,
) {
    let mut samples: [Vec<f64>; 5] = Default::default();
    for r in records {
        let first = r.first_cell.unwrap_or(r.ended);
        let last = r.last_cell.unwrap_or(r.ended);
        for (slot, (a, b)) in samples.iter_mut().zip([
            (r.sent, r.acked),
            (r.acked, first),
            (last, r.ended),
            (r.ended, r.resulted),
            (r.resulted, r.status_done),
        ]) {
            slot.push(JobRecord::ms(a, b));
        }
    }
    let latencies: Vec<f64> = records.iter().map(JobRecord::latency_ms).collect();
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    report.set(
        "serve.job_ms_p90",
        stats::percentile(&latencies, 90.0).unwrap_or(f64::NAN),
    );
    report.set("serve.submit_ms_p50", p50(&samples[0]));
    report.set("serve.queue_ms_p50", p50(&samples[1]));
    report.set("serve.stream_tail_ms_p50", p50(&samples[2]));
    report.set("serve.result_ms_p50", p50(&samples[3]));
    report.set("serve.status_ms_p50", p50(&samples[4]));
    let mean_ms = |sum: f64, count: f64| sum / count.max(1.0) * 1e3;
    report.set(
        "serve.sched_wait_ms_mean",
        mean_ms(
            after.wait_sum_s - before.wait_sum_s,
            after.wait_count - before.wait_count,
        ),
    );
    report.set(
        "serve.sched_run_ms_mean",
        mean_ms(
            after.run_sum_s - before.run_sum_s,
            after.run_count - before.run_count,
        ),
    );
    report.set(
        "journal.appends_per_job",
        (after.journal_appends - before.journal_appends) / records.len().max(1) as f64,
    );
    report.set("verify.us_per_program", verify_us);
}

/// Digest of the leading jobs' result documents.
fn digest(records: &[JobRecord]) -> u64 {
    let mut h = Fnv::default();
    for r in records.iter().filter(|r| r.index < LEADING_JOBS) {
        h.u64(r.index);
        h.bytes(r.document.as_bytes());
    }
    h.finish()
}

/// Runs the workload.
pub fn run(config: &Config, seed: u64, seconds: f64, tracer: &Tracer, dir: &Path) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..config.setup_repeats.max(1) {
        if let Some(previous) = daemon.take() {
            report.check(Daemon::stop(previous).err());
        }
        match Daemon::start(config, fresh_dir(dir, "state")) {
            Ok((s, setup)) => {
                setups.push(setup);
                daemon = Some(s);
            }
            Err(e) => {
                report.check(Some(e));
                return report;
            }
        }
    }
    let mut daemon = daemon.expect("at least one daemon start");
    let before = DaemonCounters::read(&mut daemon.control);
    let (records, window, errors) = closed_loop(
        daemon.server.local_addr(),
        seed,
        daemon.sta_mhz,
        config.serve_trials,
        seconds,
        config.serve_min_jobs as u64,
        tracer,
    );
    let after = DaemonCounters::read(&mut daemon.control);
    let sta_mhz = daemon.sta_mhz;
    report.check(Daemon::stop(daemon).err());
    for e in &errors {
        report.check(Some(e.clone()));
    }
    for _ in &records {
        report.check(None);
    }

    let latencies: Vec<f64> = records.iter().map(JobRecord::latency_ms).collect();
    let trials: usize = records.len() * 2 * config.serve_trials;
    let (build_s, study) = timed_builds(&config.study, 1);
    let (problems, times, set) =
        verify_documents(config, &study, seed, sta_mhz, &records, tracer.enabled());
    report.check_all(problems);
    report.digest = Some(digest(&records));

    if tracer.enabled() {
        report.set("core.study_build_s", build_s);
        let (before, after) = match (before, after) {
            (Ok(b), Ok(a)) => (b, a),
            (b, a) => {
                report.check(b.err().or(a.err()));
                return report;
            }
        };
        let verify_us = layers::verify_us_per_program(&guest_programs(seed, sta_mhz, LEADING_JOBS));
        set_serve_metrics(&mut report, &records, before, after, verify_us);
        let totals = layers::attribute(&study, &set, tracer, 1 << 32);
        let mut probe = TrialSet::default();
        for record in records.iter().take(20) {
            if let Ok(spec) =
                job_def(seed, record.index, sta_mhz, config.serve_trials).instantiate()
            {
                probe.add_model_probe(&spec, FaultModel::StaWithNoise, seed ^ record.index);
            }
        }
        let probe = layers::attribute(&study, &probe, tracer, 2 << 32);
        report.check_all(
            totals
                .mismatches
                .iter()
                .chain(&probe.mismatches)
                .cloned()
                .collect(),
        );
        crate::set_layer_metrics(&mut report, &totals, &probe);
        crate::set_campaign_metrics(
            &mut report,
            &crate::CampaignTimes {
                trial_s: totals.trial_s,
                ..times
            },
        );
    } else {
        report.set(
            "setup_s",
            stats::median(&setups).expect("at least one daemon start"),
        );
        report.set("trials_per_s", trials as f64 / window);
        report.set("ops_per_s", records.len() as f64 / window);
        report.set("op_ms_p50", stats::median(&latencies).unwrap_or(f64::NAN));
    }
    report
}

/// The serve-layer metrics of traced `sweep` and `poff` runs, which do
/// not use the daemon: a fixed-size run of the `serve` job stream.
pub fn probe(
    config: &Config,
    study: &CaseStudy,
    seed: u64,
    tracer: &Tracer,
    dir: &Path,
    report: &mut Report,
) {
    let (mut daemon, _) = match Daemon::start(config, fresh_dir(dir, "probe")) {
        Ok(s) => s,
        Err(e) => return report.check(Some(e)),
    };
    let before = DaemonCounters::read(&mut daemon.control);
    let (records, _, errors) = closed_loop(
        daemon.server.local_addr(),
        seed,
        daemon.sta_mhz,
        config.serve_trials,
        0.0,
        config.serve_probe_jobs as u64,
        tracer,
    );
    let after = DaemonCounters::read(&mut daemon.control);
    let sta_mhz = daemon.sta_mhz;
    report.check(Daemon::stop(daemon).err());
    for e in errors {
        report.check(Some(e));
    }
    let (problems, _, _) = verify_documents(config, study, seed, sta_mhz, &records, false);
    report.check_all(problems);
    match (before, after) {
        (Ok(before), Ok(after)) => {
            let verify_us =
                layers::verify_us_per_program(&guest_programs(seed, sta_mhz, records.len() as u64));
            set_serve_metrics(report, &records, before, after, verify_us);
        }
        (b, a) => report.check(b.err().or(a.err())),
    }
}
