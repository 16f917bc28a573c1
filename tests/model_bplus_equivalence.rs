//! Equivalence test: model B+ with its noise gate produces bit-identical
//! fault masks to a naive reference that draws and evaluates the noise
//! sample on every cycle, exactly the way the pre-optimization
//! implementation did.
//!
//! The cases cover random operating points, both sides of the gate's
//! boundaries, a wider clip point and a non-monotone Vdd–delay curve.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_fault::{NoiseGate, OperatingPoint, StaWithNoiseModel};
use sfi_isa::AluClass;
use sfi_netlist::alu::AluDatapath;
use sfi_netlist::{DelayModel, VoltageScaling};
use sfi_timing::{
    characterize_alu, CharacterizationConfig, TimingCharacterization, VddDelayCurve, VoltageNoise,
};

/// The pre-optimization model B+, kept verbatim as the reference: a
/// noise sample every cycle, then every endpoint's modulated STA delay
/// against the period.
struct NaiveModelBPlus {
    endpoint_delays_ps: Vec<f64>,
    period_ps: f64,
    point: OperatingPoint,
    curve: VddDelayCurve,
    nominal_factor: f64,
    rng: SmallRng,
}

impl NaiveModelBPlus {
    fn new(
        ch: &TimingCharacterization,
        point: OperatingPoint,
        curve: VddDelayCurve,
        seed: u64,
    ) -> Self {
        NaiveModelBPlus {
            endpoint_delays_ps: sta_delays(ch),
            period_ps: point.period_ps(),
            point,
            nominal_factor: curve.delay_factor(point.vdd()),
            curve,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn violation_mask(&self, delay_factor: f64) -> u32 {
        let mut mask = 0u32;
        for (bit, &delay) in self.endpoint_delays_ps.iter().enumerate().take(32) {
            if delay * delay_factor > self.period_ps {
                mask |= 1 << bit;
            }
        }
        mask
    }
}

impl FaultInjector for NaiveModelBPlus {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        // A new independent noise value is drawn every cycle, also outside
        // the kernel window, to keep the noise sequence cycle-aligned.
        let noise = self.point.noise().sample_volts(&mut self.rng);
        if !ctx.fi_enabled {
            return 0;
        }
        let factor = self.curve.noise_scaling_factor_with_nominal(
            self.point.vdd(),
            noise,
            self.nominal_factor,
        );
        self.violation_mask(factor)
    }
}

fn characterization() -> TimingCharacterization {
    let alu = AluDatapath::build(8);
    characterize_alu(
        &alu,
        &DelayModel::default_28nm(),
        &VoltageScaling::default_28nm(),
        &CharacterizationConfig {
            cycles_per_op: 32,
            ..Default::default()
        },
    )
}

fn curve() -> VddDelayCurve {
    VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
}

fn sta_delays(ch: &TimingCharacterization) -> Vec<f64> {
    (0..ch.endpoint_count())
        .map(|e| ch.sta_endpoint_delay_ps(e))
        .collect()
}

/// Runs the gated and the naive model side by side for `cycles` cycles
/// (10 % of them outside the injection window); returns the gated model
/// and the number of non-zero masks.
fn assert_equivalent(
    ch: &TimingCharacterization,
    point: OperatingPoint,
    curve: &VddDelayCurve,
    seed: u64,
    cycles: u64,
) -> (StaWithNoiseModel, usize) {
    let mut gated = StaWithNoiseModel::new(ch, point, curve.clone(), seed);
    let mut naive = NaiveModelBPlus::new(ch, point, curve.clone(), seed);
    let mut ctx_rng = SmallRng::seed_from_u64(seed ^ 0xB1);
    let mut faults = 0;
    for cycle in 0..cycles {
        let c = ExStageContext {
            cycle,
            alu_class: AluClass::ALL[ctx_rng.gen_range(0..AluClass::ALL.len())],
            operand_a: 0,
            operand_b: 0,
            result: 0,
            fi_enabled: ctx_rng.gen_bool(0.9),
        };
        let mask = gated.inject(&c);
        assert_eq!(mask, naive.inject(&c), "{point}: cycle {cycle}");
        faults += (mask != 0) as usize;
    }
    (gated, faults)
}

fn worst_factor(curve: &VddDelayCurve, vdd: f64, noise: VoltageNoise) -> f64 {
    curve.delay_factor(vdd - noise.max_excursion_volts()) / curve.delay_factor(vdd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn gated_model_b_plus_matches_the_naive_reference(
        seed in any::<u64>(),
        freq_factor in prop::sample::select(vec![0.7, 0.9, 0.95, 0.98, 1.0, 1.05, 1.2, 2.0]),
        noise_sigma_mv in prop::sample::select(vec![0.0, 5.0, 10.0, 25.0]),
    ) {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz() * freq_factor, 0.7)
            .with_noise_sigma_mv(noise_sigma_mv);
        assert_equivalent(&ch, point, &curve(), seed, 4000);
    }
}

#[test]
fn model_b_plus_matches_the_reference_across_the_gate_boundaries() {
    let ch = characterization();
    let curve = curve();
    let max_delay = sta_delays(&ch).into_iter().fold(0.0, f64::max);
    let always_mhz = 1e6 / max_delay;
    let mut states = [0usize; 3];
    let mut faults = 0;
    for sigma_mv in [0.0, 5.0, 10.0, 25.0] {
        let noise = VoltageNoise::with_sigma_mv(sigma_mv);
        let never_mhz = always_mhz / worst_factor(&curve, 0.7, noise);
        for (i, boundary) in [always_mhz, never_mhz].into_iter().enumerate() {
            for (j, k) in [1.0 - 1e-6, 1.0 - 1e-11, 1.0 + 1e-11, 1.0 + 1e-6]
                .into_iter()
                .enumerate()
            {
                let point = OperatingPoint::new(boundary * k, 0.7).with_noise(noise);
                let seed = (sigma_mv as u64) << 8 | (i as u64) << 4 | j as u64;
                let (model, n) = assert_equivalent(&ch, point, &curve, seed, 4000);
                faults += n;
                states[match model.gate() {
                    NoiseGate::Never => 0,
                    NoiseGate::Radius { .. } => 1,
                    NoiseGate::Always => 2,
                }] += 1;
            }
        }
    }
    assert!(states.iter().all(|&n| n > 0), "gate states {states:?}");
    assert!(faults > 0, "the boundary cases must inject some faults");
}

#[test]
fn model_b_plus_matches_the_reference_with_a_wider_clip_point() {
    let ch = characterization();
    let noise = VoltageNoise::with_sigma_mv(25.0).with_clip_sigmas(3.0);
    for (i, k) in [0.85, 0.93, 0.97, 1.0, 1.03].into_iter().enumerate() {
        let point = OperatingPoint::new(ch.sta_limit_mhz() * k, 0.7).with_noise(noise);
        assert_equivalent(&ch, point, &curve(), 40 + i as u64, 4000);
    }
}

#[test]
fn model_b_plus_matches_the_reference_on_a_non_monotone_curve() {
    let ch = characterization();
    let bumpy = VddDelayCurve::from_samples(&[
        (0.6, 1.4),
        (0.69, 0.98),
        (0.7, 1.0),
        (0.75, 0.9),
        (1.0, 0.6),
    ]);
    for (i, k) in [0.8, 0.97, 1.0, 1.05].into_iter().enumerate() {
        let point = OperatingPoint::new(ch.sta_limit_mhz() * k, 0.7).with_noise_sigma_mv(10.0);
        let (model, _) = assert_equivalent(&ch, point, &bumpy, 90 + i as u64, 4000);
        assert_eq!(model.gate(), NoiseGate::Always, "{point}");
    }
}
