//! Model C: the proposed statistical, instruction-aware fault injection.

use crate::gate::{NoiseGate, NoiseReach};
use crate::map::alu_op_for_class;
use crate::operating_point::OperatingPoint;
use crate::table::DtaFaultTable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_cpu::{ExStageContext, FaultInjector};
use sfi_netlist::alu::AluOp;
use sfi_timing::{TimingCharacterization, VddDelayCurve};
use std::sync::Arc;

/// Probabilistic period violation using DTA-extracted CDFs (the paper's
/// **model C**).
///
/// Every cycle the model:
///
/// 1. draws an independent supply-noise sample and converts it into a CDF
///    scaling factor through the fitted Vdd–delay curve,
/// 2. looks up the timing-error probability `P_{E,V,I}(f)` of every
///    endpoint for the instruction currently in the execution stage, and
/// 3. flips each endpoint bit with that probability.
///
/// This is the model that reproduces the gradual transition regions between
/// error-free operation and complete failure (Figs. 4–7 of the paper).
///
/// The noise sample is computed lazily: a per-instruction [`NoiseGate`],
/// built at construction, skips the Box–Muller transform and the CDF walk
/// on cycles where the sample provably cannot make the instruction
/// violate.  Those cycles still draw the sample's two uniforms, so the
/// random-number consumption — and every fault sequence — is the same as
/// evaluating every cycle in full.
///
/// The expensive characterization data is shared behind `Arc`s (see
/// [`DtaFaultTable`]): constructing one injector per Monte-Carlo trial via
/// [`StatisticalDtaModel::from_table`] — or cloning per sweep point via
/// [`StatisticalDtaModel::at_frequency`] — allocates nothing.
#[derive(Debug, Clone)]
pub struct StatisticalDtaModel {
    table: Arc<DtaFaultTable>,
    point: OperatingPoint,
    curve: Arc<VddDelayCurve>,
    /// `point.period_ps()`, hoisted out of the per-cycle loop.
    period_ps: f64,
    /// `curve.delay_factor(point.vdd())`, the noise-independent
    /// denominator of the per-cycle scaling factor.
    nominal_factor: f64,
    /// One noise gate per instruction, indexed by `AluOp::code()`.
    gates: [NoiseGate; AluOp::ALL.len()],
    rng: SmallRng,
}

impl StatisticalDtaModel {
    /// Creates the model from a timing characterization performed at the
    /// operating point's supply voltage.
    ///
    /// This flattens the characterization into a fresh [`DtaFaultTable`];
    /// callers constructing many injectors over the same characterization
    /// (one per Monte-Carlo trial) should build the table once and use the
    /// allocation-free [`StatisticalDtaModel::from_table`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the characterization voltage does not match the operating
    /// point (a different set of CDFs must be used per supply voltage, as
    /// the paper does).
    pub fn new(
        characterization: impl Into<Arc<TimingCharacterization>>,
        point: OperatingPoint,
        curve: impl Into<Arc<VddDelayCurve>>,
        seed: u64,
    ) -> Self {
        Self::from_table(
            Arc::new(DtaFaultTable::new(characterization.into())),
            point,
            curve.into(),
            seed,
        )
    }

    /// Creates the model from a prebuilt, shared fault table — the
    /// allocation-free per-trial constructor the campaign hot path uses.
    ///
    /// # Panics
    ///
    /// Panics if the table's characterization voltage does not match the
    /// operating point.
    pub fn from_table(
        table: Arc<DtaFaultTable>,
        point: OperatingPoint,
        curve: Arc<VddDelayCurve>,
        seed: u64,
    ) -> Self {
        assert!(
            (table.characterization().vdd() - point.vdd()).abs() < 1e-9,
            "characterization voltage {} V does not match operating point {} V",
            table.characterization().vdd(),
            point.vdd()
        );
        let nominal_factor = curve.delay_factor(point.vdd());
        let reach = NoiseReach::new(&curve, point);
        let gates = AluOp::ALL.map(|op| reach.gate(table.max_delay_ps(op)));
        StatisticalDtaModel {
            table,
            point,
            period_ps: point.period_ps(),
            nominal_factor,
            gates,
            curve,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Reseeds the random number generator (used to decorrelate Monte-Carlo
    /// trials while reusing the expensive characterization).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// The operating point the model simulates.
    pub fn operating_point(&self) -> OperatingPoint {
        self.point
    }

    /// Returns a copy of the model at a different clock frequency, sharing
    /// the same characterization data (no allocation).
    pub fn at_frequency(&self, freq_mhz: f64, seed: u64) -> Self {
        Self::from_table(
            Arc::clone(&self.table),
            self.point.at_frequency(freq_mhz),
            Arc::clone(&self.curve),
            seed,
        )
    }

    /// The underlying characterization (e.g. to query CDFs for reporting).
    pub fn characterization(&self) -> &TimingCharacterization {
        self.table.characterization()
    }

    /// The shared flattened fault table.
    pub fn fault_table(&self) -> &Arc<DtaFaultTable> {
        &self.table
    }

    /// The noise gate of instruction `op` at this operating point.
    pub fn gate(&self, op: AluOp) -> NoiseGate {
        self.gates[op.code() as usize]
    }
}

impl FaultInjector for StatisticalDtaModel {
    fn inject(&mut self, ctx: &ExStageContext) -> u32 {
        // Step 1: per-cycle supply-noise sample -> CDF scaling factor.  The
        // sample is drawn every cycle, also outside the kernel window, to
        // keep the noise sequence cycle-aligned; it is only computed when
        // it can matter.
        let noise = self.point.noise();
        if !ctx.fi_enabled {
            noise.skip_sample(&mut self.rng);
            return 0;
        }
        let op = alu_op_for_class(ctx.alu_class);
        let Some(volts) = self.gates[op.code() as usize].sample_volts(&noise, &mut self.rng) else {
            return 0;
        };
        let delay_factor = self.curve.noise_scaling_factor_with_nominal(
            self.point.vdd(),
            volts,
            self.nominal_factor,
        );
        debug_assert!(delay_factor > 0.0, "delay factor must be positive");
        // delay * factor > period  <=>  delay > period / factor; computing
        // the scaled threshold once per cycle replaces one division per
        // endpoint with one comparison per endpoint.
        let threshold_ps = self.period_ps / delay_factor;

        // Steps 2 + 3: per-endpoint probabilities, independent Bernoulli
        // draws (skipped wholesale when the instruction's worst sample
        // meets the scaled period).
        let rng = &mut self.rng;
        self.table
            .violation_mask(op, threshold_ps, |p| rng.gen_bool(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_isa::AluClass;
    use sfi_netlist::alu::AluDatapath;
    use sfi_netlist::{DelayModel, VoltageScaling};
    use sfi_timing::{characterize_alu, CharacterizationConfig, VoltageNoise};

    fn characterization() -> TimingCharacterization {
        let alu = AluDatapath::build(8);
        characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 64,
                ..Default::default()
            },
        )
    }

    fn curve() -> VddDelayCurve {
        VddDelayCurve::from_scaling(&VoltageScaling::default_28nm(), 0.6, 1.0, 5)
    }

    fn ctx(class: AluClass) -> ExStageContext {
        ExStageContext {
            cycle: 0,
            alu_class: class,
            operand_a: 0,
            operand_b: 0,
            result: 0,
            fi_enabled: true,
        }
    }

    fn fault_rate(model: &mut StatisticalDtaModel, class: AluClass, cycles: usize) -> f64 {
        let mut faults = 0usize;
        for _ in 0..cycles {
            faults += (model.inject(&ctx(class)) != 0) as usize;
        }
        faults as f64 / cycles as f64
    }

    #[test]
    fn no_faults_at_sta_limit_without_noise() {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz(), 0.7);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 1);
        for class in AluClass::ALL {
            assert_eq!(m.inject(&ctx(class)), 0, "{class}");
        }
    }

    #[test]
    fn instruction_awareness() {
        let ch = characterization();
        // Pick a frequency between the multiplier's and the logic unit's
        // first-failure points: multiplications must fault, XORs must not.
        let f_mul = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let f_xor = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Xor);
        let freq = f_mul * 1.2;
        assert!(freq < f_xor);
        let point = OperatingPoint::new(freq, 0.7);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 2);
        assert!(fault_rate(&mut m, AluClass::Mul, 500) > 0.0);
        assert_eq!(fault_rate(&mut m, AluClass::Xor, 500), 0.0);
    }

    #[test]
    fn fault_rate_grows_with_frequency() {
        let ch = characterization();
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let point = OperatingPoint::new(f0 * 1.05, 0.7);
        let base = StatisticalDtaModel::new(ch, point, curve(), 3);
        let mut low = base.at_frequency(f0 * 1.05, 3);
        let mut high = base.at_frequency(f0 * 1.5, 3);
        // The frequency-shifted copies share the base model's table.
        assert!(Arc::ptr_eq(low.fault_table(), base.fault_table()));
        let r_low = fault_rate(&mut low, AluClass::Mul, 400);
        let r_high = fault_rate(&mut high, AluClass::Mul, 400);
        assert!(
            r_high > r_low,
            "rate must grow with frequency ({r_low} vs {r_high})"
        );
    }

    #[test]
    fn noise_enables_faults_below_the_nominal_first_failure() {
        let ch = characterization();
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        // Slightly below the nominal first-failure frequency.
        let quiet_point = OperatingPoint::new(f0 * 0.98, 0.7);
        let noisy_point = quiet_point.with_noise(VoltageNoise::with_sigma_mv(25.0));
        let mut quiet = StatisticalDtaModel::new(ch.clone(), quiet_point, curve(), 4);
        let mut noisy = StatisticalDtaModel::new(ch, noisy_point, curve(), 4);
        assert_eq!(fault_rate(&mut quiet, AluClass::Mul, 1000), 0.0);
        assert!(fault_rate(&mut noisy, AluClass::Mul, 1000) > 0.0);
    }

    #[test]
    fn reseed_reproduces_sequences() {
        let ch = characterization();
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let point =
            OperatingPoint::new(f0 * 1.1, 0.7).with_noise(VoltageNoise::with_sigma_mv(10.0));
        let mut a = StatisticalDtaModel::new(ch.clone(), point, curve(), 9);
        let mut b = StatisticalDtaModel::new(ch, point, curve(), 77);
        b.reseed(9);
        for _ in 0..200 {
            assert_eq!(a.inject(&ctx(AluClass::Mul)), b.inject(&ctx(AluClass::Mul)));
        }
    }

    #[test]
    fn from_table_matches_new_bit_for_bit() {
        let ch = Arc::new(characterization());
        let table = Arc::new(DtaFaultTable::new(Arc::clone(&ch)));
        let f0 = ch.first_failure_frequency_mhz(sfi_netlist::alu::AluOp::Mul);
        let point =
            OperatingPoint::new(f0 * 1.2, 0.7).with_noise(VoltageNoise::with_sigma_mv(15.0));
        let shared_curve = Arc::new(curve());
        let mut fresh = StatisticalDtaModel::new(Arc::clone(&ch), point, curve(), 13);
        let mut pooled = StatisticalDtaModel::from_table(table, point, shared_curve, 13);
        for class in [AluClass::Mul, AluClass::Add, AluClass::Xor] {
            for _ in 0..300 {
                assert_eq!(fresh.inject(&ctx(class)), pooled.inject(&ctx(class)));
            }
        }
    }

    #[test]
    fn disabled_window_suppresses_injection() {
        let ch = characterization();
        let point = OperatingPoint::new(ch.sta_limit_mhz() * 2.0, 0.7);
        let mut m = StatisticalDtaModel::new(ch, point, curve(), 5);
        let mut off_ctx = ctx(AluClass::Mul);
        off_ctx.fi_enabled = false;
        assert_eq!(m.inject(&off_ctx), 0);
        assert!(m.characterization().endpoint_count() > 0);
        assert_eq!(m.operating_point().vdd(), 0.7);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn voltage_mismatch_panics() {
        let ch = characterization();
        StatisticalDtaModel::new(ch, OperatingPoint::new(700.0, 0.8), curve(), 0);
    }
}
