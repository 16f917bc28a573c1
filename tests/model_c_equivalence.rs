//! Property test: the table-driven model C (flattened [`DtaFaultTable`]
//! with max-delay fast paths, per-instruction noise gates and a hoisted
//! nominal delay factor) produces bit-identical fault masks to a naive
//! per-endpoint reference that walks the characterization CDFs exactly
//! the way the pre-optimization implementation did.
//!
//! Besides random operating points, the cases straddle every
//! instruction's gate boundaries (where its gate changes state), cover a
//! wider clip point and a non-monotone Vdd–delay curve.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_fault::{alu_op_for_class, NoiseGate, OperatingPoint, StatisticalDtaModel};
use sfi_isa::AluClass;
use sfi_netlist::alu::{AluDatapath, AluOp};
use sfi_netlist::{DelayModel, VoltageScaling};
use sfi_timing::{
    characterize_alu, CharacterizationConfig, TimingCharacterization, VddDelayCurve, VoltageNoise,
};

/// The pre-optimization model C, kept verbatim as the reference: per
/// endpoint it queries the characterization CDF (binary search per
/// endpoint, period divided by the per-cycle noise factor computed from
/// scratch) and draws a Bernoulli sample whenever the probability is
/// non-zero.
struct NaiveModelC {
    characterization: TimingCharacterization,
    point: OperatingPoint,
    curve: VddDelayCurve,
    rng: SmallRng,
}

impl FaultInjector for NaiveModelC {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        let noise = self.point.noise().sample_volts(&mut self.rng);
        if !ctx.fi_enabled {
            return 0;
        }
        let delay_factor = self.curve.noise_scaling_factor(self.point.vdd(), noise);
        let op = alu_op_for_class(ctx.alu_class);
        let period_ps = self.point.period_ps();
        let mut mask = 0u32;
        for endpoint in 0..self.characterization.endpoint_count().min(32) {
            let p = self
                .characterization
                .error_probability(op, endpoint, period_ps, delay_factor);
            if p > 0.0 && self.rng.gen_bool(p) {
                mask |= 1 << endpoint;
            }
        }
        mask
    }
}

fn characterization() -> TimingCharacterization {
    let alu = AluDatapath::build(8);
    characterize_alu(
        &alu,
        &DelayModel::default_28nm(),
        &VoltageScaling::default_28nm(),
        &CharacterizationConfig {
            cycles_per_op: 48,
            ..Default::default()
        },
    )
}

fn curve() -> VddDelayCurve {
    VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
}

fn ctx(class: AluClass, cycle: u64, fi_enabled: bool) -> ExStageContext {
    ExStageContext {
        cycle,
        alu_class: class,
        operand_a: 0,
        operand_b: 0,
        result: 0,
        fi_enabled,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn table_driven_model_c_matches_the_naive_reference(
        seed in any::<u64>(),
        // From deep below the STA limit (pure fast path) through the
        // transition region to far beyond it (every endpoint violating).
        freq_factor in prop::sample::select(vec![0.7, 0.95, 1.0, 1.05, 1.2, 1.6, 2.5]),
        noise_sigma_mv in prop::sample::select(vec![0.0, 5.0, 10.0, 25.0]),
    ) {
        let ch = characterization();
        let sta = ch.sta_limit_mhz();
        let point = OperatingPoint::new(sta * freq_factor, 0.7)
            .with_noise_sigma_mv(noise_sigma_mv);
        let mut optimized = StatisticalDtaModel::new(ch.clone(), point, curve(), seed);
        let mut naive = NaiveModelC {
            characterization: ch,
            point,
            curve: curve(),
            rng: SmallRng::seed_from_u64(seed),
        };
        // Interleave instruction classes and disabled-window cycles the way
        // a real kernel does; the RNG streams must stay aligned throughout.
        let mut class_rng = SmallRng::seed_from_u64(seed ^ 0xC1A55);
        for cycle in 0..400u64 {
            let class = AluClass::ALL[class_rng.gen_range(0..AluClass::ALL.len())];
            let fi_enabled = class_rng.gen_bool(0.8);
            let c = ctx(class, cycle, fi_enabled);
            prop_assert_eq!(
                optimized.inject(&c),
                naive.inject(&c),
                "cycle {} class {} fi {}",
                cycle,
                class,
                fi_enabled
            );
        }
    }
}

/// Runs the optimized and the naive model side by side for `cycles`
/// cycles, half of them (when given) on `focus`, the rest on random
/// classes, 10 % outside the injection window; returns the optimized
/// model and the number of non-zero masks.
fn assert_equivalent(
    ch: &TimingCharacterization,
    point: OperatingPoint,
    curve: &VddDelayCurve,
    seed: u64,
    focus: Option<AluClass>,
    cycles: u64,
) -> (StatisticalDtaModel, usize) {
    let mut optimized = StatisticalDtaModel::new(ch.clone(), point, curve.clone(), seed);
    let mut naive = NaiveModelC {
        characterization: ch.clone(),
        point,
        curve: curve.clone(),
        rng: SmallRng::seed_from_u64(seed),
    };
    let mut class_rng = SmallRng::seed_from_u64(seed ^ 0xB0DE);
    let mut faults = 0;
    for cycle in 0..cycles {
        let class = match focus {
            Some(class) if class_rng.gen_bool(0.5) => class,
            _ => AluClass::ALL[class_rng.gen_range(0..AluClass::ALL.len())],
        };
        let fi_enabled = class_rng.gen_bool(0.9);
        let c = ctx(class, cycle, fi_enabled);
        let mask = optimized.inject(&c);
        assert_eq!(
            mask,
            naive.inject(&c),
            "{point}: cycle {cycle} class {class} fi {fi_enabled}"
        );
        faults += (mask != 0) as usize;
    }
    (optimized, faults)
}

fn class_of(op: AluOp) -> AluClass {
    AluClass::ALL
        .into_iter()
        .find(|&class| alu_op_for_class(class) == op)
        .expect("every op has a class")
}

/// The worst droop factor the noise can cause at `vdd`.
fn worst_factor(curve: &VddDelayCurve, vdd: f64, noise: VoltageNoise) -> f64 {
    curve.delay_factor(vdd - noise.max_excursion_volts()) / curve.delay_factor(vdd)
}

/// Frequencies just below and just above `boundary_mhz`, both beyond and
/// within the gates' 1e-9 margin.
fn straddle(boundary_mhz: f64) -> [f64; 4] {
    [1.0 - 1e-6, 1.0 - 1e-11, 1.0 + 1e-11, 1.0 + 1e-6].map(|k| boundary_mhz * k)
}

#[test]
fn model_c_matches_the_reference_across_every_gate_boundary() {
    let ch = characterization();
    let curve = curve();
    let mut states = [0usize; 3];
    let mut faults = 0;
    for sigma_mv in [0.0, 5.0, 10.0, 25.0] {
        let noise = VoltageNoise::with_sigma_mv(sigma_mv);
        let worst = worst_factor(&curve, 0.7, noise);
        for op in AluOp::ALL {
            let always_mhz = ch.first_failure_frequency_mhz(op);
            let never_mhz = always_mhz / worst;
            for (i, freq) in straddle(always_mhz)
                .into_iter()
                .chain(straddle(never_mhz))
                .enumerate()
            {
                let point = OperatingPoint::new(freq, 0.7).with_noise(noise);
                let seed = (op.code() as u64) << 8 | i as u64 | (sigma_mv as u64) << 16;
                let (model, n) =
                    assert_equivalent(&ch, point, &curve, seed, Some(class_of(op)), 4000);
                faults += n;
                states[match model.gate(op) {
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
fn model_c_matches_the_reference_with_a_wider_clip_point() {
    let ch = characterization();
    let curve = curve();
    let noise = VoltageNoise::with_sigma_mv(10.0).with_clip_sigmas(3.0);
    let sta = ch.sta_limit_mhz();
    for (i, k) in [0.85, 0.95, 1.0, 1.05, 1.15].into_iter().enumerate() {
        let point = OperatingPoint::new(sta * k, 0.7).with_noise(noise);
        assert_equivalent(&ch, point, &curve, 300 + i as u64, None, 4000);
    }
    // The wider clip reaches deeper droops, so the Never region shrinks.
    let op = AluOp::Mul;
    let edge =
        ch.first_failure_frequency_mhz(op) / worst_factor(&curve, 0.7, noise.with_clip_sigmas(2.0));
    let point = OperatingPoint::new(edge * 0.999, 0.7);
    let two = StatisticalDtaModel::new(
        ch.clone(),
        point.with_noise(noise.with_clip_sigmas(2.0)),
        curve.clone(),
        0,
    );
    let three = StatisticalDtaModel::new(ch, point.with_noise(noise), curve, 0);
    assert_eq!(two.gate(op), NoiseGate::Never);
    assert!(matches!(three.gate(op), NoiseGate::Radius { .. }));
}

#[test]
fn model_c_matches_the_reference_on_a_non_monotone_curve() {
    let ch = characterization();
    // Rises between 0.69 V and 0.70 V: inside the reach of 10 mV noise
    // around 0.7 V, so no gate may rely on monotonicity.
    let bumpy = VddDelayCurve::from_samples(&[
        (0.6, 1.4),
        (0.69, 0.98),
        (0.7, 1.0),
        (0.75, 0.9),
        (1.0, 0.6),
    ]);
    let sta = ch.sta_limit_mhz();
    for (i, k) in [0.8, 0.95, 1.0, 1.05, 1.2].into_iter().enumerate() {
        let point = OperatingPoint::new(sta * k, 0.7).with_noise_sigma_mv(10.0);
        let (model, _) = assert_equivalent(&ch, point, &bumpy, 700 + i as u64, None, 4000);
        for op in AluOp::ALL {
            assert_eq!(model.gate(op), NoiseGate::Always, "{op:?} at {point}");
        }
    }
}
