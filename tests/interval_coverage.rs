//! Coverage of the campaign engine's confidence intervals.
//!
//! A synthetic kernel executes exactly one ALU instruction inside its
//! fault-injection window and stores the result.  Under model A every
//! endpoint of that instruction flips independently with probability `p`,
//! and any flip corrupts the stored word, so the true correct fraction is
//! `(1 − p)^endpoints` — known analytically.  Many adaptive cells (each
//! with its own trial-seed stream, most of them cut off early by the stop
//! rule) must then report Wilson intervals that contain the true rate at
//! least as often as the nominal 95 %, up to the binomial noise of the
//! coverage count itself.

use sfi_campaign::{CampaignEngine, CampaignSpec, CellSpec, StopRule, TrialBudget};
use sfi_core::experiment::FaultModel;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_fault::OperatingPoint;
use sfi_isa::{Instruction, ProgramBuilder, Reg};
use sfi_kernels::guest::GuestProgramBenchmark;

/// `r3 = 5 + 7`, stored to data word 0; only the `l.add` is injectable.
fn single_window_kernel() -> GuestProgramBenchmark {
    let mut p = ProgramBuilder::new();
    p.load_immediate(Reg(1), 5);
    p.load_immediate(Reg(2), 7);
    let add = p.here();
    p.push(Instruction::Add {
        rd: Reg(3),
        ra: Reg(1),
        rb: Reg(2),
    });
    p.push(Instruction::Sw {
        ra: Reg(0),
        rb: Reg(3),
        offset: 0,
    });
    GuestProgramBenchmark::new(p.build(), 4, add..add + 1, vec![], 0..1)
        .expect("the kernel runs fault-free")
}

#[test]
fn wilson_intervals_cover_the_true_correct_rate() {
    const Z: f64 = 1.96;
    const NOMINAL: f64 = 0.95;
    const CELLS_PER_RATE: usize = 500;
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let endpoints = study.endpoint_count() as i32;
    let point = OperatingPoint::new(study.sta_limit_mhz(0.7), 0.7);
    // Flip probabilities p with (1 - p)^endpoints near 0.5, 0.8 and 0.95,
    // and the exact correct rate each implies.
    let flips: Vec<(f64, f64)> = [0.5f64, 0.8, 0.95]
        .iter()
        .map(|rate| {
            let flip = 1.0 - rate.powf(1.0 / endpoints as f64);
            (flip, (1.0 - flip).powi(endpoints))
        })
        .collect();

    let mut spec = CampaignSpec::new("interval-coverage", 2016);
    let kernel = spec.add_benchmark(single_window_kernel());
    for &(flip, _) in &flips {
        for _ in 0..CELLS_PER_RATE {
            spec.add_cell(CellSpec {
                benchmark: kernel,
                model: FaultModel::FixedProbability(flip),
                point,
                budget: TrialBudget::adaptive(16, 512, 16, StopRule::correct_within(0.07)),
            });
        }
    }
    let result = CampaignEngine::new().with_threads(2).run(&study, &spec);

    // Three binomial standard deviations of a coverage count at the
    // nominal rate.
    let tolerance = |n: usize| 3.0 * (NOMINAL * (1.0 - NOMINAL) / n as f64).sqrt();
    let mut covered_total = 0;
    let mut stopped_early = 0;
    for (group, &(_, truth)) in flips.iter().enumerate() {
        let cells = &result.cells[group * CELLS_PER_RATE..(group + 1) * CELLS_PER_RATE];
        let covered = cells
            .iter()
            .filter(|cell| {
                let iv = cell.stats.correct_interval(Z);
                iv.lo() <= truth && truth <= iv.hi()
            })
            .count();
        stopped_early += cells.iter().filter(|cell| cell.stopped_early).count();
        let coverage = covered as f64 / CELLS_PER_RATE as f64;
        assert!(
            coverage >= NOMINAL - tolerance(CELLS_PER_RATE),
            "true rate {truth:.3}: {covered}/{CELLS_PER_RATE} intervals cover it"
        );
        covered_total += covered;
    }
    let all = flips.len() * CELLS_PER_RATE;
    assert!(
        covered_total as f64 / all as f64 >= NOMINAL - tolerance(all),
        "{covered_total}/{all} intervals cover the true rate"
    );
    // The adaptive stop rule, not the trial cap, ends almost every cell.
    assert!(
        stopped_early * 10 >= all * 9,
        "only {stopped_early}/{all} cells stopped early"
    );
}
