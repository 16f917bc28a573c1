//! `sweep`: a Fig. 5/6-style correctness grid in one campaign — every
//! kernel of the extended suite at eight clocks from 0.90 to 1.25 × the
//! STA limit, model C at 0.7 V with 10 mV supply noise.
//!
//! Its long trials cover all four regimes (fault-free, sparse faults,
//! early crashes, watchdog hangs), so the interpreter and the fault model
//! do most of the work and the engine very little.

use crate::layers::{self, TrialSet};
use crate::trace::Tracer;
use crate::{serve, stats, timed_builds, Config, Fnv, Report};
use sfi_campaign::{CampaignEngine, CampaignResult, CampaignSpec, SharedBenchmark, TrialBudget};
use sfi_core::experiment::{golden_cycles, run_single_trial, watchdog_cycles};
use sfi_core::{CaseStudy, FaultModel};
use sfi_fault::OperatingPoint;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The grid for `seed`: kernel inputs and the campaign seed derive from
/// it, with `trials` fixed trials per cell.
pub fn spec(config: &Config, study: &CaseStudy, seed: u64, trials: usize) -> CampaignSpec {
    let sta = study.sta_limit_mhz(0.7);
    let mut spec = CampaignSpec::new("perfbench-sweep", seed);
    let kernels: Vec<usize> = sfi_kernels::extended_suite(seed)
        .into_iter()
        .map(|b| spec.add_shared_benchmark(Arc::from(b)))
        .collect();
    let points: Vec<OperatingPoint> = config
        .sweep_freqs
        .iter()
        .map(|m| OperatingPoint::new(sta * m, 0.7).with_noise_sigma_mv(10.0))
        .collect();
    spec.add_grid(
        &kernels,
        &[FaultModel::StatisticalDta],
        &points,
        TrialBudget::fixed(trials),
    );
    spec
}

/// Runs the workload.
pub fn run(config: &Config, seed: u64, seconds: f64, tracer: &Tracer, dir: &Path) -> Report {
    if tracer.enabled() {
        return traced(config, seed, tracer, dir);
    }
    let mut report = Report::default();
    let (setup_s, study) = timed_builds(&config.study, config.setup_repeats);
    report.set("setup_s", setup_s);
    let spec = spec(config, &study, seed, config.sweep_trials);
    let engine = CampaignEngine::new().with_threads(config.threads);

    let mut passes = Vec::new();
    let mut first: Option<CampaignResult> = None;
    let mut trials = 0usize;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let result = engine.run(&study, &spec);
        passes.push(t.elapsed().as_secs_f64());
        trials += result.cells.iter().map(|c| c.trials.len()).sum::<usize>();
        report.check(complete(&spec, &result));
        match &first {
            Some(first) => report.check(differs(first, &result, usize::MAX, "repeated grid run")),
            None => first = Some(result),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    crate::log_ops("grid run", &passes);
    let busy: f64 = passes.iter().sum();
    report.set("trials_per_s", trials as f64 / busy);
    report.set("ops_per_s", passes.len() as f64 / busy);
    report.set(
        "op_ms_p50",
        1e3 * stats::median(&passes).expect("one pass at least"),
    );

    let first = first.expect("one pass at least");
    let check = CampaignEngine::new().with_threads(1).run(
        &study,
        &self::spec(config, &study, seed, config.sweep_check_trials),
    );
    report.check(differs(
        &check,
        &first,
        config.sweep_check_trials,
        "one-worker run",
    ));
    report.check_all(golden_problems(&study, spec.benchmarks()));
    report.digest = Some(digest(&first));
    report
}

/// The traced run: the grid once on the configured workers and once on
/// one worker, then every trial attributed to its layers.
fn traced(config: &Config, seed: u64, tracer: &Tracer, dir: &Path) -> Report {
    let mut report = Report::default();
    let (build_s, study) = timed_builds(&config.study, 1);
    report.set("core.study_build_s", build_s);
    let spec = spec(config, &study, seed, config.sweep_trials);

    let (busy0, idle0) = layers::engine_busy_idle_us();
    let span = tracer.span("campaign.run", "campaign", 0, None);
    let result = CampaignEngine::new()
        .with_threads(config.threads)
        .run(&study, &spec);
    let wall = span.end().as_secs_f64();
    let (busy1, idle1) = layers::engine_busy_idle_us();
    report.check(complete(&spec, &result));
    let span = tracer.span("campaign.run_1worker", "campaign", 0, None);
    let single = CampaignEngine::new().with_threads(1).run(&study, &spec);
    let wall_1 = span.end().as_secs_f64();
    report.check(differs(&single, &result, usize::MAX, "one-worker run"));

    let mut set = TrialSet::default();
    set.add_campaign(&spec, &result, usize::MAX);
    let totals = layers::attribute(&study, &set, tracer, 0);
    let mut probe = TrialSet::default();
    probe.add_model_probe(&spec, FaultModel::StaWithNoise, seed ^ 0xB0B);
    let probe = layers::attribute(&study, &probe, tracer, set.trials.len() as u64);
    report.check_all(
        totals
            .mismatches
            .iter()
            .chain(&probe.mismatches)
            .cloned()
            .collect(),
    );

    let golden: f64 = layers::golden_seconds(spec.benchmarks()).iter().sum();
    crate::set_layer_metrics(&mut report, &totals, &probe);
    crate::set_campaign_metrics(
        &mut report,
        &crate::CampaignTimes {
            runs: 1,
            threads: config.threads,
            wall_s: wall,
            wall_1_s: wall_1,
            trial_s: totals.trial_s,
            golden_s: golden,
            busy_us: busy1 - busy0,
            idle_us: idle1 - idle0,
        },
    );
    serve::probe(config, &study, seed, tracer, dir, &mut report);
    report
}

/// A problem if a run is cancelled or a cell misses trials.
pub fn complete(spec: &CampaignSpec, result: &CampaignResult) -> Option<String> {
    if result.cancelled {
        return Some("campaign was cancelled".into());
    }
    spec.cells()
        .iter()
        .zip(&result.cells)
        .find(|(cell, got)| got.trials.len() != cell.budget.max_trials)
        .map(|(cell, got)| {
            format!(
                "cell {} ran {} of {} trials",
                got.cell,
                got.trials.len(),
                cell.budget.max_trials
            )
        })
}

/// A problem if the first `prefix` trials of any cell of `a` and `b`
/// differ.  Trial seeds depend only on (campaign seed, cell, trial), so a
/// smaller fixed budget runs a prefix of a larger one's trials.
pub fn differs(
    a: &CampaignResult,
    b: &CampaignResult,
    prefix: usize,
    what: &str,
) -> Option<String> {
    if a.cells.len() != b.cells.len() {
        return Some(format!(
            "{what}: {} cells against {}",
            a.cells.len(),
            b.cells.len()
        ));
    }
    for (x, y) in a.cells.iter().zip(&b.cells) {
        let n = prefix.min(x.trials.len()).min(y.trials.len());
        let same = x.trials.len().min(prefix) == n
            && y.trials.len().min(prefix) == n
            && x.trials[..n]
                .iter()
                .zip(&y.trials[..n])
                .all(|(s, t)| layers::same_trial(s, t));
        if !same {
            return Some(format!("{what}: cell {} differs", x.cell));
        }
    }
    None
}

/// Problems with the fault-free golden runs: each must finish with an
/// exactly correct output in its golden cycle count.
pub fn golden_problems(study: &CaseStudy, benchmarks: &[SharedBenchmark]) -> Vec<String> {
    let point = OperatingPoint::new(study.sta_limit_mhz(0.7), 0.7);
    benchmarks
        .iter()
        .filter_map(|b| {
            let golden = golden_cycles(b.as_ref());
            let trial = run_single_trial(
                study,
                b.as_ref(),
                FaultModel::None,
                point,
                watchdog_cycles(golden),
                0,
            );
            let exact = trial.correct && trial.output_error == 0.0 && trial.cycles == golden;
            (!exact).then(|| format!("golden run of {} is not exact: {trial:?}", b.name()))
        })
        .collect()
}

/// Digest of per-cell finished/correct counts and per-trial cycles.
pub fn digest(result: &CampaignResult) -> u64 {
    let mut h = Fnv::default();
    for cell in &result.cells {
        h.u64(cell.cell as u64);
        h.u64(cell.trials.iter().filter(|t| t.finished).count() as u64);
        h.u64(cell.trials.iter().filter(|t| t.correct).count() as u64);
        for t in &cell.trials {
            h.u64(t.cycles);
        }
    }
    h.finish()
}
