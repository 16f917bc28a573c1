//! Per-layer attribution of trial time, measured from outside the program.
//!
//! Every trial of a traced workload is executed four times, after an
//! untimed warm-up of each of the two code paths:
//!
//! 1. `core.run_trial`: [`TrialContext::run_trial`], the primitive the
//!    engine runs, timed as a whole (the reference trial time);
//! 2. `fault.run`: the same trial rebuilt from public pieces — kernel
//!    input set-up, [`Core::run_with_injector`] with the real fault
//!    model, output check — each step timed;
//! 3. `trace.record`: the run again with the model wrapped in a
//!    [`Recorder`]; its extra time over step 2 is the tracing overhead;
//! 4. `cpu.replay`: the recorded masks fed back through
//!    [`Core::run_with_injector`] by a [`Replay`] injector.
//!
//! The replay runs the identical instruction stream without the fault
//! model, so its time is the interpreter's; the rest of the run in step 2
//! is the fault model's.  Every re-execution is checked against the
//! reference result, so an attribution can never describe a different
//! trial.

use crate::trace::{nanos, Tracer};
use sfi_campaign::{CampaignResult, CampaignSpec, SharedBenchmark};
use sfi_core::experiment::{derive_trial_seed, golden_cycles, watchdog_cycles, TrialContext};
use sfi_core::{CaseStudy, FaultModel, TrialResult};
use sfi_cpu::{Core, ExStageContext, FaultInjector, RunConfig, RunOutcome};
use sfi_fault::OperatingPoint;
use std::time::Instant;

/// Wraps a trial's real injector: counts calls and effective (non-zero,
/// inside the fault-injection window) masks and records every mask.
pub struct Recorder<'a, F> {
    inner: F,
    masks: &'a mut Vec<u32>,
    faults: u64,
}

impl<'a, F: FaultInjector> Recorder<'a, F> {
    /// A recorder appending to `masks` (cleared first).
    pub fn new(inner: F, masks: &'a mut Vec<u32>) -> Self {
        masks.clear();
        Recorder {
            inner,
            masks,
            faults: 0,
        }
    }
}

impl<F: FaultInjector> FaultInjector for Recorder<'_, F> {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        let mask = self.inner.inject(ctx);
        self.masks.push(mask);
        self.faults += u64::from(ctx.fi_enabled && mask != 0);
        mask
    }

    fn begin_run(&mut self) {
        self.inner.begin_run();
    }
}

/// Feeds recorded masks back in call order.
pub struct Replay<'a> {
    masks: &'a [u32],
    next: usize,
}

impl<'a> Replay<'a> {
    /// A replay of `masks`.
    pub fn new(masks: &'a [u32]) -> Self {
        Replay { masks, next: 0 }
    }

    /// Whether every recorded mask was consumed, and no more.
    pub fn exhausted(&self) -> bool {
        self.next == self.masks.len()
    }
}

impl FaultInjector for Replay<'_> {
    fn inject(&mut self, _ctx: &ExStageContext) -> u32 {
        // Running past the recording means the replay diverged; the
        // outcome comparison after the run reports it.
        let mask = self.masks.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        mask
    }
}

/// One trial to attribute.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// Index into [`TrialSet::benchmarks`].
    pub bench: usize,
    /// Fault model.
    pub model: FaultModel,
    /// Operating point.
    pub point: OperatingPoint,
    /// Watchdog limit in cycles.
    pub watchdog: u64,
    /// Per-trial injector seed.
    pub seed: u64,
    /// The result the workload itself produced for this trial, if known.
    pub expect: Option<TrialResult>,
}

/// The trials of one traced workload.
#[derive(Default)]
pub struct TrialSet {
    /// Benchmarks referenced by the trials.
    pub benchmarks: Vec<SharedBenchmark>,
    /// The trials.
    pub trials: Vec<TrialSpec>,
}

impl TrialSet {
    /// Adds the first `per_cell` trials of every cell of a finished
    /// campaign, expecting the results the campaign produced.
    pub fn add_campaign(&mut self, spec: &CampaignSpec, result: &CampaignResult, per_cell: usize) {
        let base = self.benchmarks.len();
        let watchdogs: Vec<u64> = spec
            .benchmarks()
            .iter()
            .map(|b| watchdog_cycles(golden_cycles(b.as_ref())))
            .collect();
        self.benchmarks.extend(spec.benchmarks().iter().cloned());
        for (index, (cell, outcome)) in spec.cells().iter().zip(&result.cells).enumerate() {
            for (trial, expect) in outcome.trials.iter().take(per_cell).enumerate() {
                self.trials.push(TrialSpec {
                    bench: base + cell.benchmark,
                    model: cell.model,
                    point: cell.point,
                    watchdog: watchdogs[cell.benchmark],
                    seed: derive_trial_seed(spec.seed, index as u64, trial as u64),
                    expect: Some(*expect),
                });
            }
        }
    }

    /// Adds one extra trial per campaign cell under `model` instead of the
    /// cell's own model, so a model the workload does not run still gets
    /// its per-call cost measured on the workload's kernels and points.
    pub fn add_model_probe(&mut self, spec: &CampaignSpec, model: FaultModel, seed: u64) {
        let base = self.benchmarks.len();
        let watchdogs: Vec<u64> = spec
            .benchmarks()
            .iter()
            .map(|b| watchdog_cycles(golden_cycles(b.as_ref())))
            .collect();
        self.benchmarks.extend(spec.benchmarks().iter().cloned());
        for (index, cell) in spec.cells().iter().enumerate() {
            self.trials.push(TrialSpec {
                bench: base + cell.benchmark,
                model,
                point: cell.point,
                watchdog: watchdogs[cell.benchmark],
                seed: derive_trial_seed(seed, index as u64, 0),
                expect: None,
            });
        }
    }
}

/// Per-model fault-layer totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelTotals {
    /// Injector calls.
    pub calls: u64,
    /// Run time minus replay time, seconds.
    pub self_s: f64,
}

impl ModelTotals {
    /// Fault-model time per injector call, nanoseconds.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_s * 1e9 / self.calls as f64
        }
    }
}

/// What attributing a [`TrialSet`] measured.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Trials attributed.
    pub trials: u64,
    /// Σ `TrialContext::run_trial` time, seconds.
    pub trial_s: f64,
    /// Σ time of the recording runs: the run plus the recorder's cost.
    pub record_s: f64,
    /// Σ replay time: the interpreter alone.
    pub cpu_s: f64,
    /// Σ run time minus replay time: the fault models.
    pub fault_s: f64,
    /// Per trial: `run_trial` time minus run, input and check time.
    pub overheads_s: Vec<f64>,
    /// Σ kernel input set-up time.
    pub init_s: f64,
    /// Σ kernel output-check time.
    pub check_s: f64,
    /// Σ run time of the re-execution with the plain injector.
    pub run_s: f64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Trials stopped by the watchdog.
    pub watchdog_trips: u64,
    /// Trials ended by an invalid pc or memory fault.
    pub crashes: u64,
    /// Injector calls.
    pub calls: u64,
    /// Effective faults: non-zero masks inside the injection window.
    pub faults: u64,
    /// Model C totals.
    pub model_c: ModelTotals,
    /// Model B+ totals.
    pub model_bplus: ModelTotals,
    /// Trials whose re-executions disagreed with the reference, or whose
    /// reference disagreed with the workload's own result.
    pub mismatches: Vec<String>,
}

/// Attributes every trial of `set`, recording spans in `tracer`; trial
/// `i` gets the span job id `job_base + i`.
pub fn attribute(study: &CaseStudy, set: &TrialSet, tracer: &Tracer, job_base: u64) -> LayerTotals {
    let mut totals = LayerTotals::default();
    let mut context = TrialContext::new();
    let mut cores: Vec<Option<Core>> = vec![None; set.benchmarks.len()];
    let mut masks = Vec::new();
    for (i, t) in set.trials.iter().enumerate() {
        let job = Some(job_base + i as u64);
        let bench = set.benchmarks[t.bench].as_ref();
        let root = tracer.span("trial", "bench", 0, job);

        // An untimed first run warms the caches, so that no timed
        // execution of this trial pays for the others' cold misses.
        context.run_trial(study, bench, t.bench, t.model, t.point, t.watchdog, t.seed);
        let span = tracer.span("core.run_trial", "core", root.id(), job);
        let reference =
            context.run_trial(study, bench, t.bench, t.model, t.point, t.watchdog, t.seed);
        let trial = span.end().as_secs_f64();
        totals.trial_s += trial;
        if let Some(expect) = t.expect {
            if !same_trial(&expect, &reference) {
                totals.mismatches.push(format!(
                    "trial {i} ({}): run_trial gave {reference:?}, the workload {expect:?}",
                    bench.name()
                ));
            }
        }

        let core = cores[t.bench]
            .get_or_insert_with(|| Core::new(bench.program().clone(), bench.dmem_words()));
        let config = RunConfig {
            max_cycles: t.watchdog,
            fi_window: Some(bench.fi_window()),
            ..RunConfig::default()
        };
        // This path uses its own core, so it gets its own warm-up.
        core.reset_full();
        bench.initialize(core.memory_mut());
        core.run_with_injector(&config, injector(study, t).as_mut());
        core.reset_full();
        let untraced = tracer.span("trial.untraced", "bench", root.id(), job);
        let span = tracer.span("kernels.init", "kernels", untraced.id(), job);
        bench.initialize(core.memory_mut());
        let init = span.end().as_secs_f64();
        // Built outside the timed span, and called through `dyn` as the
        // trial primitive calls its cached injector.
        let mut model = injector(study, t);
        let span = tracer.span("fault.run", "fault", untraced.id(), job);
        let outcome = core.run_with_injector(&config, model.as_mut());
        let run = span.end().as_secs_f64();
        let span = tracer.span("kernels.check", "kernels", untraced.id(), job);
        let decomposed = trial_result(core, bench, &outcome);
        let check = span.end().as_secs_f64();
        untraced.end();
        if !same_trial(&decomposed, &reference) {
            totals.mismatches.push(format!(
                "trial {i} ({}): re-execution gave {decomposed:?}, run_trial {reference:?}",
                bench.name()
            ));
        }

        core.reset_full();
        bench.initialize(core.memory_mut());
        let mut model = injector(study, t);
        let mut recorder = Recorder::new(model.as_mut(), &mut masks);
        let span = tracer.span("trace.record", "bench", root.id(), job);
        let recorded = core.run_with_injector(&config, &mut recorder as &mut dyn FaultInjector);
        let record = span.end().as_secs_f64();
        let faults = recorder.faults;

        core.reset_full();
        bench.initialize(core.memory_mut());
        let mut replay = Replay::new(&masks);
        let span = tracer.span("cpu.replay", "cpu", root.id(), job);
        let replayed = core.run_with_injector(&config, &mut replay as &mut dyn FaultInjector);
        let cpu = span.end().as_secs_f64();
        if recorded != outcome || replayed != outcome || !replay.exhausted() {
            totals.mismatches.push(format!(
                "trial {i} ({}): ran {outcome:?}, recorded {recorded:?}, replayed {replayed:?}",
                bench.name()
            ));
        }
        root.end();

        totals.trials += 1;
        totals.overheads_s.push(trial - run - init - check);
        totals.init_s += init;
        totals.check_s += check;
        totals.run_s += run;
        totals.record_s += record;
        totals.cpu_s += cpu;
        totals.fault_s += run - cpu;
        totals.sim_cycles += outcome.cycles();
        totals.calls += masks.len() as u64;
        totals.faults += faults;
        match outcome {
            RunOutcome::Watchdog { .. } => totals.watchdog_trips += 1,
            RunOutcome::MemoryFault { .. } | RunOutcome::InvalidPc { .. } => totals.crashes += 1,
            RunOutcome::Finished { .. } => {}
        }
        let per_model = match t.model {
            FaultModel::StatisticalDta => Some(&mut totals.model_c),
            FaultModel::StaWithNoise => Some(&mut totals.model_bplus),
            _ => None,
        };
        if let Some(m) = per_model {
            m.calls += masks.len() as u64;
            m.self_s += run - cpu;
        }
    }
    totals
}

/// A fresh injector of the trial's model and seed.
fn injector(study: &CaseStudy, t: &TrialSpec) -> Box<dyn FaultInjector> {
    match t.model {
        FaultModel::None => Box::new(sfi_cpu::NoFaultInjector),
        FaultModel::FixedProbability(p) => Box::new(study.model_a(p, t.seed)),
        FaultModel::StaPeriodViolation => Box::new(study.model_b(t.point)),
        FaultModel::StaWithNoise => Box::new(study.model_b_plus(t.point, t.seed)),
        FaultModel::StatisticalDta => Box::new(study.model_c(t.point, t.seed)),
    }
}

/// The trial result of a finished re-execution, computed the way the
/// trial primitive computes it.
fn trial_result(
    core: &Core,
    bench: &dyn sfi_kernels::Benchmark,
    outcome: &RunOutcome,
) -> TrialResult {
    let finished = outcome.finished();
    let output_error = if finished {
        bench.output_error(core.memory())
    } else {
        f64::NAN
    };
    TrialResult {
        finished,
        correct: finished && output_error == 0.0,
        output_error,
        fi_rate_per_kcycle: core.stats().fi_rate_per_kcycle(),
        cycles: core.stats().cycles,
    }
}

/// Bit-level equality of two trial results (`NaN` errors compare equal).
pub fn same_trial(a: &TrialResult, b: &TrialResult) -> bool {
    a.finished == b.finished
        && a.correct == b.correct
        && a.cycles == b.cycles
        && a.output_error.to_bits() == b.output_error.to_bits()
        && a.fi_rate_per_kcycle.to_bits() == b.fi_rate_per_kcycle.to_bits()
}

/// Seconds one fault-free golden run of each benchmark takes (the engine
/// repeats it for every benchmark at the start of every run).
pub fn golden_seconds(benchmarks: &[SharedBenchmark]) -> Vec<f64> {
    benchmarks
        .iter()
        .map(|b| {
            let start = Instant::now();
            std::hint::black_box(golden_cycles(b.as_ref()));
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Engine worker busy and idle microseconds so far (the engine's own
/// process-wide counters).
pub fn engine_busy_idle_us() -> (u64, u64) {
    let m = sfi_obs::metrics();
    (m.engine_worker_busy_us.get(), m.engine_worker_idle_us.get())
}

/// Mean microseconds `sfi_verify::verify` takes per program, over
/// `programs` (each with its data-memory size and injection window).
pub fn verify_us_per_program(programs: &[(sfi_isa::Program, usize, std::ops::Range<u32>)]) -> f64 {
    if programs.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for (program, dmem, window) in programs {
        let config = sfi_verify::VerifyConfig::new(*dmem).with_fi_window(window.clone());
        std::hint::black_box(sfi_verify::verify(program, &config));
    }
    nanos(start.elapsed()) as f64 * 1e-3 / programs.len() as f64
}
