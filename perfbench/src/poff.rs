//! `poff`: point-of-first-failure searches — `adaptive_poff` for every
//! kernel of the extended suite under models B+ and C, bisecting 0.90 to
//! 1.30 × the STA limit at 0.7 V with 10 mV supply noise.
//!
//! PoFF and the overscaling gain are the paper's headline numbers, and
//! this is the only workload that runs model B+.  Every evaluated
//! frequency is a one-cell engine run sitting near the failure boundary,
//! so the campaign layer's per-run costs (worker start, the golden run
//! repeated per run) are paid on every evaluation instead of once.

use crate::layers::{self, TrialSpec};
use crate::trace::Tracer;
use crate::{serve, stats, timed_builds, Config, Fnv, Report};
use sfi_campaign::{adaptive_poff, CampaignEngine, PoffOutcome, PoffSearch, SharedBenchmark};
use sfi_core::experiment::{derive_trial_seed, golden_cycles, watchdog_cycles};
use sfi_core::{CaseStudy, FaultModel};
use sfi_fault::OperatingPoint;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One search of the workload.
pub struct Search {
    /// The kernel.
    pub benchmark: SharedBenchmark,
    /// The fault model.
    pub model: FaultModel,
    /// The search seed.
    pub seed: u64,
}

/// The searches for `seed`: kernel inputs and search seeds derive from it.
pub fn searches(seed: u64) -> Vec<Search> {
    let mut out = Vec::new();
    for (k, benchmark) in sfi_kernels::extended_suite(seed).into_iter().enumerate() {
        let benchmark: SharedBenchmark = Arc::from(benchmark);
        for (m, model) in [FaultModel::StaWithNoise, FaultModel::StatisticalDta]
            .into_iter()
            .enumerate()
        {
            out.push(Search {
                benchmark: Arc::clone(&benchmark),
                model,
                seed: derive_trial_seed(seed, k as u64, m as u64),
            });
        }
    }
    out
}

/// The input seed of pass `k`: the run's seed itself for the first pass,
/// so that it is the pass the digest and the traced run cover.
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        derive_trial_seed(seed, k, 3)
    }
}

/// The search range and budget.
fn search_params(config: &Config, study: &CaseStudy) -> (OperatingPoint, PoffSearch) {
    let sta = study.sta_limit_mhz(0.7);
    (
        OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(10.0),
        PoffSearch::new(
            0.90 * sta,
            1.30 * sta,
            config.poff_resolution_mhz,
            config.poff_trials,
        ),
    )
}

/// Runs every search once on `engine`, timing each.
fn pass(
    config: &Config,
    study: &CaseStudy,
    engine: &CampaignEngine,
    searches: &[Search],
    tracer: &Tracer,
) -> Vec<(PoffOutcome, f64)> {
    let (base, params) = search_params(config, study);
    searches
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let span = tracer.span("poff.search", "campaign", 0, Some(i as u64));
            let outcome = adaptive_poff(
                engine,
                study,
                Arc::clone(&s.benchmark),
                s.model,
                base,
                params,
                s.seed,
            );
            (outcome, span.end().as_secs_f64())
        })
        .collect()
}

/// Runs the workload.
pub fn run(config: &Config, seed: u64, seconds: f64, tracer: &Tracer, dir: &Path) -> Report {
    if tracer.enabled() {
        return traced(config, seed, tracer, dir);
    }
    let mut report = Report::default();
    let (setup_s, study) = timed_builds(&config.study, config.setup_repeats);
    report.set("setup_s", setup_s);
    let engine = CampaignEngine::new().with_threads(config.threads);
    let (_, params) = search_params(config, &study);

    // One operation is a whole pass: the suite's PoFF table.  Single
    // searches cluster by kernel, so their median jumps between kernels
    // from seed to seed; the pass time does not.  Each pass draws fresh
    // inputs from the seed, so a run averages over several tables
    // instead of timing one table's share of watchdog hangs.
    let mut passes = Vec::new();
    let mut search_times = Vec::new();
    let mut trials = 0usize;
    let mut first: Option<Vec<PoffOutcome>> = None;
    let start = Instant::now();
    for k in 0u64.. {
        let searches = searches(pass_seed(seed, k));
        let outcomes = pass(config, &study, &engine, &searches, tracer);
        passes.push(outcomes.iter().map(|(_, t)| t).sum::<f64>());
        for (outcome, time) in &outcomes {
            search_times.push(*time);
            trials += outcome
                .evaluated
                .iter()
                .map(|p| p.summary.trials.len())
                .sum::<usize>();
            report.check(inconsistent(&params, outcome));
        }
        let kernels: Vec<SharedBenchmark> = searches
            .iter()
            .step_by(2)
            .map(|s| Arc::clone(&s.benchmark))
            .collect();
        report.check_all(crate::sweep::golden_problems(&study, &kernels));
        if first.is_none() {
            first = Some(outcomes.into_iter().map(|(o, _)| o).collect());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    crate::log_ops("search", &search_times);
    crate::log_ops("PoFF table", &passes);
    let busy: f64 = passes.iter().sum();
    report.set("trials_per_s", trials as f64 / busy);
    report.set("ops_per_s", passes.len() as f64 / busy);
    report.set(
        "op_ms_p50",
        1e3 * stats::median(&passes).expect("one pass at least"),
    );
    report.digest = first.as_deref().map(digest);
    report
}

/// The traced run: every search on the configured workers and on one
/// worker, then a sample of every evaluation's trials attributed.
fn traced(config: &Config, seed: u64, tracer: &Tracer, dir: &Path) -> Report {
    let mut report = Report::default();
    let (build_s, study) = timed_builds(&config.study, 1);
    report.set("core.study_build_s", build_s);
    let searches = searches(seed);
    let (base, params) = search_params(config, &study);

    let (busy0, idle0) = layers::engine_busy_idle_us();
    let engine = CampaignEngine::new().with_threads(config.threads);
    let outcomes = pass(config, &study, &engine, &searches, tracer);
    let (busy1, idle1) = layers::engine_busy_idle_us();
    let single = pass(
        config,
        &study,
        &CampaignEngine::new().with_threads(1),
        &searches,
        tracer,
    );
    let same =
        |a: &[(PoffOutcome, f64)]| digest(&a.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>());
    report.check((same(&outcomes) != same(&single)).then(|| "one-worker searches differ".into()));

    let mut set = layers::TrialSet::default();
    let mut runs = 0u64;
    let mut golden_s = 0.0;
    for (s, (outcome, _)) in searches.iter().zip(&outcomes) {
        report.check(inconsistent(&params, outcome));
        let bench = set.benchmarks.len();
        set.benchmarks.push(Arc::clone(&s.benchmark));
        let watchdog = watchdog_cycles(golden_cycles(s.benchmark.as_ref()));
        golden_s += outcome.cells_evaluated as f64
            * layers::golden_seconds(std::slice::from_ref(&s.benchmark))[0];
        runs += outcome.cells_evaluated as u64;
        for (ordinal, freq) in evaluation_order(&params, outcome).into_iter().enumerate() {
            let point = outcome
                .evaluated
                .iter()
                .find(|p| p.freq_mhz == freq)
                .expect("evaluation_order only yields evaluated frequencies");
            let eval_seed = derive_trial_seed(s.seed, ordinal as u64, 0);
            for (t, expect) in point
                .summary
                .trials
                .iter()
                .take(config.poff_traced_trials)
                .enumerate()
            {
                set.trials.push(TrialSpec {
                    bench,
                    model: s.model,
                    point: base.at_frequency(freq),
                    watchdog,
                    seed: derive_trial_seed(eval_seed, 0, t as u64),
                    expect: Some(*expect),
                });
            }
        }
    }
    let totals = layers::attribute(&study, &set, tracer, 0);
    report.check_all(totals.mismatches.clone());
    crate::set_layer_metrics(&mut report, &totals, &totals);
    // The attributed trials are a fixed share of every evaluation's, so
    // scaling by it estimates the trial time of all runs.
    let share =
        config.poff_traced_trials.min(config.poff_trials) as f64 / config.poff_trials as f64;
    crate::set_campaign_metrics(
        &mut report,
        &crate::CampaignTimes {
            runs,
            threads: config.threads,
            wall_s: outcomes.iter().map(|(_, t)| t).sum(),
            wall_1_s: single.iter().map(|(_, t)| t).sum(),
            trial_s: totals.trial_s / share,
            golden_s,
            busy_us: busy1 - busy0,
            idle_us: idle1 - idle0,
        },
    );
    serve::probe(config, &study, seed, tracer, dir, &mut report);
    report
}

/// The order `adaptive_poff` evaluated frequencies in: the range ends,
/// then bisection midpoints steered by whether each point was fully
/// correct.  Evaluation `i` ran with seed `derive_trial_seed(seed, i, 0)`.
pub fn evaluation_order(params: &PoffSearch, outcome: &PoffOutcome) -> Vec<f64> {
    let correct = |freq: f64| {
        outcome
            .evaluated
            .iter()
            .find(|p| p.freq_mhz == freq)
            .is_some_and(|p| p.summary.correct_fraction() >= 1.0)
    };
    let mut order = vec![params.lo_mhz];
    if !correct(params.lo_mhz) {
        return order;
    }
    order.push(params.hi_mhz);
    if correct(params.hi_mhz) {
        return order;
    }
    let (mut lo, mut hi) = (params.lo_mhz, params.hi_mhz);
    while hi - lo > params.resolution_mhz {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        order.push(mid);
        if correct(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    order
}

/// A problem if the outcome contradicts its own evaluations: every
/// evaluated point below the PoFF must be fully correct and the PoFF
/// itself must fail, the bracket must be within the resolution, and every
/// evaluation must have run its full budget.
pub fn inconsistent(params: &PoffSearch, outcome: &PoffOutcome) -> Option<String> {
    let full = |p: &sfi_core::SweepPoint| p.summary.correct_fraction() >= 1.0;
    if outcome.cells_evaluated != outcome.evaluated.len() {
        return Some("evaluations and evaluated points disagree".into());
    }
    if let Some(p) = outcome
        .evaluated
        .iter()
        .find(|p| p.summary.trials.len() != params.budget.max_trials)
    {
        return Some(format!(
            "{} MHz ran {} trials",
            p.freq_mhz,
            p.summary.trials.len()
        ));
    }
    if evaluation_order(params, outcome).len() != outcome.cells_evaluated {
        return Some("the evaluations do not follow the bisection".into());
    }
    match outcome.poff_mhz {
        None => (!outcome.evaluated.iter().all(full))
            .then(|| "no PoFF reported, yet an evaluated point fails".into()),
        Some(poff) => {
            let below_ok = outcome
                .evaluated
                .iter()
                .filter(|p| p.freq_mhz < poff)
                .all(full);
            let at = outcome.evaluated.iter().find(|p| p.freq_mhz == poff);
            let best_ok = outcome
                .evaluated
                .iter()
                .filter(|p| p.freq_mhz < poff)
                .map(|p| p.freq_mhz)
                .fold(params.lo_mhz, f64::max);
            let tight = poff == params.lo_mhz || poff - best_ok <= params.resolution_mhz;
            (!(below_ok && at.is_some_and(|p| !full(p)) && tight))
                .then(|| format!("PoFF {poff} MHz contradicts its evaluations"))
        }
    }
}

/// Digest of every PoFF and every evaluated point's finished/correct
/// counts and per-trial cycles.
pub fn digest(outcomes: &[PoffOutcome]) -> u64 {
    let mut h = Fnv::default();
    for outcome in outcomes {
        h.u64(outcome.poff_mhz.map_or(u64::MAX, f64::to_bits));
        h.u64(outcome.cells_evaluated as u64);
        for p in &outcome.evaluated {
            h.u64(p.freq_mhz.to_bits());
            h.u64(p.summary.trials.iter().filter(|t| t.finished).count() as u64);
            h.u64(p.summary.trials.iter().filter(|t| t.correct).count() as u64);
            for t in &p.summary.trials {
                h.u64(t.cycles);
            }
        }
    }
    h.finish()
}
