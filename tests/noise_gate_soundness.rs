//! Soundness of the noise gates and a cross-model invariant.
//!
//! * Whenever a gate skips a uniform pair `(u1, u2)`, the full path must
//!   agree that the sample causes no violation: for model C the
//!   instruction's worst delay meets the noise-scaled period
//!   (`max_delay <= period / factor`), for model B+ the worst STA delay
//!   does (`max_delay * factor <= period`).
//! * Where model B (STA, no noise) flips nothing, model C without noise
//!   must gate every instruction as `Never`, because no DTA delay exceeds
//!   the STA delay of its endpoint.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_fault::{alu_op_for_class, NoiseGate, OperatingPoint};
use sfi_isa::AluClass;
use sfi_netlist::alu::AluOp;

const VDD: f64 = 0.7;

fn study() -> CaseStudy {
    CaseStudy::build(CaseStudyConfig::fast_for_tests())
}

/// The adjacent floats `[skipped, kept]` between `skipped` and `kept`
/// where the gate's angle test flips (at the longest radius, where only
/// the angle test can skip).
fn angle_edge(gate: NoiseGate, mut skipped: f64, mut kept: f64) -> [f64; 2] {
    loop {
        let mid = 0.5 * (skipped + kept);
        if mid == skipped || mid == kept {
            return [skipped, kept];
        }
        if gate.skips(f64::MIN_POSITIVE, mid) {
            skipped = mid;
        } else {
            kept = mid;
        }
    }
}

/// Uniform pairs on both sides of a radius gate's decision edges.
fn edge_pairs(gate: NoiseGate) -> Vec<(f64, f64)> {
    let NoiseGate::Radius { u1_min } = gate else {
        return Vec::new();
    };
    let droop_angles = [0.25, 0.5, 0.75];
    let u1_min = f64::from(u1_min);
    let mut pairs: Vec<(f64, f64)> = [u1_min.next_down(), u1_min, u1_min.next_up()]
        .into_iter()
        .filter(|&u1| u1 < 1.0)
        .flat_map(|u1| droop_angles.map(|u2| (u1, u2)))
        .collect();
    for u2 in angle_edge(gate, 0.2, 0.25)
        .into_iter()
        .chain(angle_edge(gate, 0.8, 0.75))
    {
        pairs.extend([(f64::MIN_POSITIVE, u2), (u1_min.min(0.5), u2)]);
    }
    pairs
}

/// Checks every gate of models C and B+ at `point` against the full path
/// on `samples` random uniform pairs plus each gate's edge pairs;
/// returns the number of skips checked.
fn check_point(study: &CaseStudy, point: OperatingPoint, samples: usize, seed: u64) -> u64 {
    let ch = study.characterization(VDD);
    let curve = study.vdd_delay_curve();
    let nominal = curve.delay_factor(VDD);
    let period = point.period_ps();
    let noise = point.noise();
    let c = study.model_c(point, 0);
    let b_plus = study.model_b_plus(point, 0);
    let sta_max = (0..ch.endpoint_count().min(32))
        .map(|e| ch.sta_endpoint_delay_ps(e))
        .fold(0.0, f64::max);
    // (gate, worst delay, whether it is the B+ gate)
    let gates: Vec<(NoiseGate, f64, bool)> = AluOp::ALL
        .into_iter()
        .map(|op| (c.gate(op), c.fault_table().max_delay_ps(op), false))
        .chain([(b_plus.gate(), sta_max, true)])
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let random = (0..samples).map(|_| noise.uniforms(&mut rng));
    let edges: Vec<(f64, f64)> = gates.iter().flat_map(|g| edge_pairs(g.0)).collect();
    let mut skipped = 0;
    for (u1, u2) in random.chain(edges) {
        let volts = noise.volts_from_uniforms(u1, u2);
        let factor = curve.noise_scaling_factor_with_nominal(VDD, volts, nominal);
        let threshold = period / factor;
        for &(gate, max_delay, is_b_plus) in &gates {
            if !gate.skips(u1, u2) {
                continue;
            }
            skipped += 1;
            let safe = if is_b_plus {
                max_delay * factor <= period
            } else {
                max_delay <= threshold
            };
            assert!(
                safe,
                "{point}: {gate:?} skipped (u1 {u1:e}, u2 {u2}) but a {max_delay} ps \
                 path violates at factor {factor}"
            );
        }
    }
    skipped
}

#[test]
fn skipped_samples_never_violate() {
    let study = study();
    let sta = study.sta_limit_mhz(VDD);
    let mut skipped = 0u64;
    for sigma_mv in [5.0, 10.0, 25.0] {
        for (i, k) in [0.8, 0.9, 0.95, 0.98, 1.0, 1.02, 1.05, 1.1, 1.2, 1.4, 1.6]
            .into_iter()
            .enumerate()
        {
            let point = OperatingPoint::new(sta * k, VDD).with_noise_sigma_mv(sigma_mv);
            skipped += check_point(&study, point, 1_000_000, sigma_mv as u64 * 100 + i as u64);
        }
    }
    assert!(skipped > 0);
}

#[test]
fn skipped_samples_never_violate_at_the_gate_boundaries() {
    // Just inside each op's Radius range: where the critical droop is
    // ~0 (the angle test alone decides) and where it is ~the clip point.
    let study = study();
    let ch = study.characterization(VDD);
    let curve = study.vdd_delay_curve();
    let mut skipped = 0u64;
    for sigma_mv in [5.0, 10.0, 25.0] {
        let noise = OperatingPoint::new(1.0, VDD)
            .with_noise_sigma_mv(sigma_mv)
            .noise();
        let worst = curve.delay_factor(VDD - noise.max_excursion_volts()) / curve.delay_factor(VDD);
        for op in AluOp::ALL {
            let always_mhz = ch.first_failure_frequency_mhz(op);
            for freq in [always_mhz * (1.0 - 1e-7), always_mhz / worst * (1.0 + 1e-7)] {
                let point = OperatingPoint::new(freq, VDD).with_noise(noise);
                skipped += check_point(&study, point, 10_000, op.code() as u64);
            }
        }
    }
    assert!(skipped > 0);
}

#[test]
fn every_gate_state_occurs_in_the_soundness_range() {
    let study = study();
    let sta = study.sta_limit_mhz(VDD);
    let mut seen = [false; 3];
    for k in [0.8, 1.05, 1.6] {
        let point = OperatingPoint::new(sta * k, VDD).with_noise_sigma_mv(10.0);
        let c = study.model_c(point, 0);
        for op in AluOp::ALL {
            seen[match c.gate(op) {
                NoiseGate::Never => 0,
                NoiseGate::Radius { .. } => 1,
                NoiseGate::Always => 2,
            }] = true;
        }
    }
    assert_eq!(seen, [true; 3]);
}

#[test]
fn no_model_b_fault_means_no_model_c_fault_without_noise() {
    let study = study();
    let sta = study.sta_limit_mhz(VDD);
    let ctx = |alu_class, fi_enabled| ExStageContext {
        cycle: 0,
        alu_class,
        operand_a: 0,
        operand_b: 0,
        result: 0,
        fi_enabled,
    };
    let mut checked = 0;
    let factors = (50..=160).map(|i| i as f64 / 100.0);
    let near_limit = [1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12];
    for k in factors.chain(near_limit) {
        let point = OperatingPoint::new(sta * k, VDD);
        if study.model_b(point).inject(&ctx(AluClass::Add, true)) != 0 {
            continue;
        }
        checked += 1;
        let mut c = study.model_c(point, 1);
        for class in AluClass::ALL {
            let op = alu_op_for_class(class);
            assert_eq!(c.gate(op), NoiseGate::Never, "{op:?} at {point}");
            assert_eq!(c.inject(&ctx(class, true)), 0, "{op:?} at {point}");
        }
    }
    assert!(checked > 10, "only {checked} fault-free model B points");
}
