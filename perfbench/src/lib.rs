//! End-to-end and per-layer benchmark of the statistical fault-injection
//! flow.  See `README.md` in this directory for the workloads, metrics and
//! the layer → end-to-end predictions.

#![forbid(unsafe_code)]

pub mod layers;
pub mod poff;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use sfi_core::study::{CaseStudy, CaseStudyConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics (name, unit), printed by every workload without
/// tracing.  Must agree with `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), printed by every workload's traced run.
/// Must agree with `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.study_build_s", "s"),
    ("core.trial_overhead_us", "us"),
    ("cpu.mcycles_per_s", "M/s"),
    ("cpu.self_s", "s"),
    ("cpu.sim_cycles", "count"),
    ("cpu.watchdog_trips", "count"),
    ("cpu.crashes", "count"),
    ("fault.c.ns_per_call", "ns"),
    ("fault.bplus.ns_per_call", "ns"),
    ("fault.self_s", "s"),
    ("fault.calls", "count"),
    ("fault.fault_ratio", "ratio"),
    ("kernels.init_us", "us"),
    ("kernels.check_us", "us"),
    ("campaign.runs", "count"),
    ("campaign.golden_s", "s"),
    ("campaign.run_overhead_ms", "ms"),
    ("campaign.parallel_eff", "ratio"),
    ("campaign.idle_frac", "ratio"),
    ("serve.job_ms_p90", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.stream_tail_ms_p50", "ms"),
    ("serve.result_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.sched_wait_ms_mean", "ms"),
    ("serve.sched_run_ms_mean", "ms"),
    ("journal.appends_per_job", "count"),
    ("verify.us_per_program", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads.
pub const WORKLOADS: &[&str] = &["sweep", "poff", "serve"];

/// The seed whose simulated statistics are pinned by [`DIGESTS`].
pub const DEFAULT_SEED: u64 = 1;

/// Recorded digests of the simulated statistics for [`DEFAULT_SEED`]
/// with the full-size configuration, one `workload digest` pair per line.
/// Re-record only with a declared, versioned model change.
pub const DIGESTS: &str = include_str!("../digests.txt");

/// Sizes of every workload.  [`Config::full`] is the benchmark;
/// [`Config::tiny`] runs the same code paths in about a second.
#[derive(Debug, Clone)]
pub struct Config {
    /// The case study every workload characterizes and simulates.
    pub study: CaseStudyConfig,
    /// Cold study builds (or daemon starts) whose median is `setup_s`.
    pub setup_repeats: usize,
    /// Engine workers; the host these figures were tuned on has two CPUs.
    pub threads: usize,
    /// `sweep`: trials per grid cell.
    pub sweep_trials: usize,
    /// `sweep`: trials per cell of the one-worker identity check.
    pub sweep_check_trials: usize,
    /// `sweep`: clock multiples of the STA limit.
    pub sweep_freqs: Vec<f64>,
    /// `poff`: trials per evaluated frequency.
    pub poff_trials: usize,
    /// `poff`: search resolution in MHz.
    pub poff_resolution_mhz: f64,
    /// `poff`: traced runs attribute this many trials of each evaluation.
    pub poff_traced_trials: usize,
    /// `serve`: trials per job cell.
    pub serve_trials: usize,
    /// `serve`: jobs a run completes at least, whatever `--seconds` says,
    /// so its p90 keeps ten samples beyond it.
    pub serve_min_jobs: usize,
    /// Serve-layer probe size in traced `sweep` and `poff` runs.
    pub serve_probe_jobs: usize,
}

impl Config {
    /// The benchmark's configuration.
    pub fn full() -> Config {
        Config {
            study: CaseStudyConfig::paper(),
            setup_repeats: 5,
            threads: 2,
            sweep_trials: 20,
            sweep_check_trials: 4,
            sweep_freqs: (0..8).map(|i| 0.90 + 0.05 * f64::from(i)).collect(),
            poff_trials: 10,
            poff_resolution_mhz: 2.0,
            poff_traced_trials: 5,
            serve_trials: 4,
            serve_min_jobs: 110,
            serve_probe_jobs: 110,
        }
    }

    /// A scaled-down configuration for the self-tests: the 8-bit study
    /// and a handful of trials.
    pub fn tiny() -> Config {
        Config {
            study: CaseStudyConfig::fast_for_tests(),
            setup_repeats: 1,
            sweep_trials: 2,
            sweep_check_trials: 1,
            sweep_freqs: vec![0.95, 1.15],
            poff_trials: 2,
            poff_resolution_mhz: 20.0,
            poff_traced_trials: 1,
            serve_trials: 1,
            serve_min_jobs: 100,
            serve_probe_jobs: 100,
            ..Config::full()
        }
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (grid runs, searches, jobs) plus checks.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// A line per failure.
    pub problems: Vec<String>,
    /// Digest of the simulated statistics, for the seed-pinned check.
    pub digest: Option<u64>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one check; records `problem` when it is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Counts one check that failed if `problems` is not empty.
    pub fn check_all(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// Sets the `core`, `cpu`, `fault`, `kernels` and `trace` metrics from
/// the attribution of a workload's trials; `probe` supplies the per-call
/// cost of a fault model the workload itself does not run.
pub fn set_layer_metrics(
    report: &mut Report,
    totals: &layers::LayerTotals,
    probe: &layers::LayerTotals,
) {
    let n = totals.trials.max(1) as f64;
    report.set("cpu.self_s", totals.cpu_s);
    report.set(
        "cpu.mcycles_per_s",
        totals.sim_cycles as f64 / totals.cpu_s / 1e6,
    );
    report.set("cpu.sim_cycles", totals.sim_cycles as f64);
    report.set("cpu.watchdog_trips", totals.watchdog_trips as f64);
    report.set("cpu.crashes", totals.crashes as f64);
    report.set("fault.self_s", totals.fault_s);
    report.set("fault.calls", totals.calls as f64);
    report.set(
        "fault.fault_ratio",
        totals.faults as f64 / totals.calls.max(1) as f64,
    );
    let per_call = |own: layers::ModelTotals, other: layers::ModelTotals| {
        if own.calls > 0 {
            own.ns_per_call()
        } else {
            other.ns_per_call()
        }
    };
    report.set(
        "fault.c.ns_per_call",
        per_call(totals.model_c, probe.model_c),
    );
    report.set(
        "fault.bplus.ns_per_call",
        per_call(totals.model_bplus, probe.model_bplus),
    );
    report.set("kernels.init_us", totals.init_s / n * 1e6);
    report.set("kernels.check_us", totals.check_s / n * 1e6);
    // The per-trial median: one long trial's timing noise exceeds the
    // overhead of many short ones, so a mean would mostly measure noise.
    let overhead = stats::median(&totals.overheads_s).unwrap_or(0.0);
    report.set("core.trial_overhead_us", overhead * 1e6);
    eprintln!(
        "perfbench: accounting: run_trial {:.4} s = cpu {:.4} + fault {:.4} + kernels {:.4} \
         + core {:.4} (median x {n}) + unaccounted {:.4}; recorder overhead {:.4} s",
        totals.trial_s,
        totals.cpu_s,
        totals.fault_s,
        totals.init_s + totals.check_s,
        overhead * n,
        totals.trial_s - totals.run_s - totals.init_s - totals.check_s - overhead * n,
        totals.record_s - totals.run_s,
    );
    report.set(
        "trace.overhead_frac",
        (totals.record_s - totals.run_s) / totals.trial_s,
    );
}

/// Campaign-layer timings of one workload pass.
#[derive(Debug, Clone, Copy)]
pub struct CampaignTimes {
    /// Engine runs in the pass.
    pub runs: u64,
    /// Workers of the timed runs.
    pub threads: usize,
    /// Σ wall time of the runs on `threads` workers.
    pub wall_s: f64,
    /// Σ wall time of the same runs on one worker.
    pub wall_1_s: f64,
    /// Σ trial time of the runs' trials, measured one at a time.
    pub trial_s: f64,
    /// Σ time of the fault-free golden runs the engine repeats per run.
    pub golden_s: f64,
    /// Engine worker busy microseconds during the `threads`-worker runs.
    pub busy_us: u64,
    /// Engine worker idle microseconds during the `threads`-worker runs.
    pub idle_us: u64,
}

/// Sets the `campaign` metrics.
pub fn set_campaign_metrics(report: &mut Report, t: &CampaignTimes) {
    let threads = t.threads as f64;
    report.set("campaign.runs", t.runs as f64);
    report.set("campaign.golden_s", t.golden_s);
    report.set(
        "campaign.run_overhead_ms",
        (t.wall_s - t.trial_s / threads) / t.runs.max(1) as f64 * 1e3,
    );
    report.set("campaign.parallel_eff", t.wall_1_s / (threads * t.wall_s));
    report.set(
        "campaign.idle_frac",
        t.idle_us as f64 / (t.busy_us + t.idle_us).max(1) as f64,
    );
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload and returns its report.
pub fn run(args: &Args, config: &Config, out_dir: &std::path::Path) -> Report {
    let tracer = trace::Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "sweep" => sweep::run(config, args.seed, args.seconds, &tracer, out_dir),
        "poff" => poff::run(config, args.seed, args.seconds, &tracer, out_dir),
        "serve" => serve::run(config, args.seed, args.seconds, &tracer, out_dir),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    if !args.trace {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    if let Some(digest) = report.digest {
        eprintln!(
            "perfbench: {} seed {} digest {digest:016x}",
            args.workload, args.seed
        );
        if args.seed == DEFAULT_SEED && config.study == CaseStudyConfig::paper() {
            let recorded = recorded_digest(&args.workload);
            report.check((recorded != Some(digest)).then(|| {
                let recorded = recorded.map_or("none".into(), |d| format!("{d:016x}"));
                format!("digest {digest:016x} differs from the recorded {recorded}")
            }));
        }
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, tracer.chrome_json()) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => report.check(Some(format!("writing {}: {e}", path.display()))),
        }
        for (name, (total, own)) in tracer.times_by_name() {
            eprintln!("perfbench: span {name:<20} total {total:>9.4} s  self {own:>9.4} s");
        }
    }
    report
}

/// The recorded digest of `workload` for [`DEFAULT_SEED`].
pub fn recorded_digest(workload: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(workload))
            .then(|| parts.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    })
}

/// Renders the result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    for (name, unit) in table {
        let value = report
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if !out.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    ))
}

/// Logs the operation times of a run (seconds) to standard error.
pub fn log_ops(what: &str, times: &[f64]) {
    let ms: Vec<String> = times.iter().map(|t| format!("{:.0}", t * 1e3)).collect();
    eprintln!(
        "perfbench: {} {what} times (ms): {}",
        times.len(),
        ms.join(" ")
    );
}

/// Builds the study `repeats` times from cold and returns the median
/// build time in seconds with the last study.
pub fn timed_builds(config: &CaseStudyConfig, repeats: usize) -> (f64, CaseStudy) {
    let mut times = Vec::new();
    let mut study = None;
    for _ in 0..repeats.max(1) {
        drop(study.take());
        let start = Instant::now();
        study = Some(CaseStudy::build(config.clone()));
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one build");
    (median, study.expect("at least one build"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One line describing the host: CPUs available and CPU model.
pub fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={cpus} cpu=\"{model}\"")
}

/// 64-bit FNV-1a, for the digests of simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds a number.
    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
