//! Instruction-aware timing characterization of the ALU datapath.
//!
//! This is the "gate level characterization kernel" of the paper: for every
//! ALU instruction, a few hundred cycles with randomized operands are pushed
//! through the dynamic timing analysis, and the per-endpoint arrival times
//! are condensed into timing-error CDFs conditioned on the instruction
//! (`P_{E,V,I}(f)` in the paper's notation).

use crate::cdf::ErrorCdf;
use crate::dta::{DtaBatch, DynamicTimingAnalysis, LANES};
use crate::sta::StaticTimingAnalysis;
use crate::units::freq_mhz_to_period_ps;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_netlist::alu::{AluDatapath, AluOp};
use sfi_netlist::{DelayModel, VoltageScaling};

/// Distribution the characterization kernel draws its random operands from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandDistribution {
    /// Uniformly random over the full operand width.
    UniformFull,
    /// Uniformly random over the low `bits` of the operand (the paper's
    /// 16-bit value-range experiments of Fig. 4 use this with 16).
    UniformBits(u32),
}

impl OperandDistribution {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R, width: usize) -> u64 {
        let bits = match self {
            OperandDistribution::UniformFull => width as u32,
            OperandDistribution::UniformBits(b) => (*b).min(width as u32),
        };
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        rng.gen::<u64>() & mask
    }
}

/// Configuration of the characterization kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationConfig {
    /// Number of random-operand cycles analysed per ALU instruction.
    /// The paper's kernel uses about 8 kCycles across all instructions,
    /// i.e. roughly 500 per instruction.
    pub cycles_per_op: usize,
    /// Supply voltage the characterization is performed at.
    pub vdd: f64,
    /// Seed for the operand randomization (reproducible characterization).
    pub seed: u64,
    /// Operand value distribution.
    pub operands: OperandDistribution,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        CharacterizationConfig {
            cycles_per_op: 512,
            vdd: 0.7,
            seed: 0x5f1_dac16,
            operands: OperandDistribution::UniformFull,
        }
    }
}

/// The instruction-conditioned timing statistics of one ALU datapath at one
/// supply voltage: an [`ErrorCdf`] per (instruction, endpoint) pair plus the
/// STA reference data used by the pessimistic models.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct TimingCharacterization {
    vdd: f64,
    width: usize,
    cycles_per_op: usize,
    /// `cdfs[op.code()][endpoint]`
    cdfs: Vec<Vec<ErrorCdf>>,
    sta_endpoint_delays_ps: Vec<f64>,
}

impl TimingCharacterization {
    /// Reassembles a characterization from its stored parts — the inverse
    /// of walking [`TimingCharacterization::cdf`] /
    /// [`TimingCharacterization::sta_endpoint_delay_ps`] over all
    /// instructions and endpoints.  This is what the persistent
    /// characterization cache uses to rebuild a [`TimingCharacterization`]
    /// without re-running the gate-level DTA kernel.
    ///
    /// `cdfs` is indexed `[op.code()][endpoint]`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is inconsistent: `cdfs` must have one entry per
    /// [`AluOp::ALL`] member, every instruction must cover all `width`
    /// endpoints, and `sta_endpoint_delays_ps` must have `width` entries.
    pub fn from_parts(
        vdd: f64,
        width: usize,
        cycles_per_op: usize,
        cdfs: Vec<Vec<ErrorCdf>>,
        sta_endpoint_delays_ps: Vec<f64>,
    ) -> Self {
        assert_eq!(
            cdfs.len(),
            AluOp::ALL.len(),
            "expected one CDF row per ALU instruction"
        );
        for (code, row) in cdfs.iter().enumerate() {
            assert_eq!(
                row.len(),
                width,
                "instruction {code} must cover all {width} endpoints"
            );
        }
        assert_eq!(
            sta_endpoint_delays_ps.len(),
            width,
            "expected one STA delay per endpoint"
        );
        TimingCharacterization {
            vdd,
            width,
            cycles_per_op,
            cdfs,
            sta_endpoint_delays_ps,
        }
    }

    /// Supply voltage the characterization was performed at.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Operand width / number of endpoints of the characterized datapath.
    pub fn endpoint_count(&self) -> usize {
        self.width
    }

    /// Number of characterization cycles per instruction.
    pub fn cycles_per_op(&self) -> usize {
        self.cycles_per_op
    }

    /// The CDF of a single (instruction, endpoint) pair.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` is out of range.
    pub fn cdf(&self, op: AluOp, endpoint: usize) -> &ErrorCdf {
        &self.cdfs[op.code() as usize][endpoint]
    }

    /// STA (worst-case) register-to-register delay of an endpoint in
    /// picoseconds, instruction-agnostic — the data model B uses.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` is out of range.
    pub fn sta_endpoint_delay_ps(&self, endpoint: usize) -> f64 {
        self.sta_endpoint_delays_ps[endpoint]
    }

    /// The STA critical-path delay in picoseconds.
    pub fn sta_critical_path_ps(&self) -> f64 {
        self.sta_endpoint_delays_ps
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    /// The static timing limit in MHz at the characterization voltage.
    pub fn sta_limit_mhz(&self) -> f64 {
        crate::units::period_ps_to_freq_mhz(self.sta_critical_path_ps())
    }

    /// Timing-error probability `P_{E,V,I}(f)` of `endpoint` while
    /// instruction `op` occupies the execution stage, at a clock period of
    /// `period_ps` picoseconds and a per-cycle delay scaling factor
    /// `delay_factor` (1.0 = nominal supply; > 1.0 = droop).
    pub fn error_probability(
        &self,
        op: AluOp,
        endpoint: usize,
        period_ps: f64,
        delay_factor: f64,
    ) -> f64 {
        assert!(
            delay_factor > 0.0,
            "delay factor must be positive, got {delay_factor}"
        );
        self.cdf(op, endpoint)
            .error_probability(period_ps / delay_factor)
    }

    /// Convenience wrapper of [`TimingCharacterization::error_probability`]
    /// taking a clock frequency in MHz.
    pub fn error_probability_at_freq(
        &self,
        op: AluOp,
        endpoint: usize,
        freq_mhz: f64,
        delay_factor: f64,
    ) -> f64 {
        self.error_probability(op, endpoint, freq_mhz_to_period_ps(freq_mhz), delay_factor)
    }

    /// The lowest frequency (MHz) at which any endpoint has a non-zero error
    /// probability for the given instruction — the instruction's point of
    /// first possible failure under nominal supply.
    pub fn first_failure_frequency_mhz(&self, op: AluOp) -> f64 {
        let worst = self.cdfs[op.code() as usize]
            .iter()
            .filter_map(|cdf| cdf.max_delay_ps())
            .fold(0.0, f64::max);
        crate::units::period_ps_to_freq_mhz(worst)
    }
}

/// Runs the characterization kernel over every ALU instruction of `alu`.
///
/// Returns the per-instruction, per-endpoint [`TimingCharacterization`].
///
/// # Panics
///
/// Panics if `config.cycles_per_op` is zero or `config.vdd` is not above the
/// threshold voltage of `scaling`.
pub fn characterize_alu(
    alu: &AluDatapath,
    delays: &DelayModel,
    scaling: &VoltageScaling,
    config: &CharacterizationConfig,
) -> TimingCharacterization {
    characterize_alu_with_multipliers(alu, delays, scaling, config, None)
}

/// Variant of [`characterize_alu`] with per-node delay multipliers as
/// produced by the synthesis-like timing-budgeting pass
/// ([`crate::budget::synthesis_node_multipliers`]).
///
/// # Panics
///
/// Same conditions as [`characterize_alu`]; additionally panics if the
/// multiplier slice length does not match the netlist size.
pub fn characterize_alu_with_multipliers(
    alu: &AluDatapath,
    delays: &DelayModel,
    scaling: &VoltageScaling,
    config: &CharacterizationConfig,
    node_multipliers: Option<&[f64]>,
) -> TimingCharacterization {
    let mut chars = characterize_alu_batch(
        alu,
        delays,
        scaling,
        std::slice::from_ref(config),
        node_multipliers,
        characterization_workers(),
    );
    chars.pop().expect("one characterization per config")
}

/// Worker threads for [`characterize_alu_batch`] on this host: the
/// available parallelism, capped at two — the count the kernel was sized
/// and measured with, which already brings a cold paper-study build to a
/// fraction of its serial cost.
pub fn characterization_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Characterizes the ALU at several operating points in one batched pass
/// of the [`DtaBatch`] kernel, returning one [`TimingCharacterization`]
/// per entry of `configs`, in order.
///
/// The configurations may differ only in `vdd`: every voltage analyses the
/// same operand vectors, so logic values are computed once and each gate
/// carries one arrival lane block per voltage.  The operands are drawn up
/// front in the per-instruction order of a one-voltage run, and each
/// (instruction, lane chunk) work item writes a fixed slot of the sample
/// vectors, so the result is bit-identical for any `workers` count and to
/// characterizing each voltage on its own.
///
/// # Panics
///
/// Panics if `configs` is empty, if they differ in anything but `vdd`, if
/// `cycles_per_op` is zero, if a voltage is not above the threshold of
/// `scaling`, or if the multiplier slice does not match the netlist.
pub fn characterize_alu_batch(
    alu: &AluDatapath,
    delays: &DelayModel,
    scaling: &VoltageScaling,
    configs: &[CharacterizationConfig],
    node_multipliers: Option<&[f64]>,
    workers: usize,
) -> Vec<TimingCharacterization> {
    let first = *configs.first().expect("at least one configuration");
    assert!(first.cycles_per_op > 0, "cycles_per_op must be non-zero");
    assert!(
        configs.iter().all(|c| CharacterizationConfig {
            vdd: first.vdd,
            ..*c
        } == first),
        "batched configurations may differ only in vdd"
    );
    let engines: Vec<DynamicTimingAnalysis> = configs
        .iter()
        .map(|c| {
            DynamicTimingAnalysis::new_with_multipliers(
                alu.netlist(),
                delays,
                scaling,
                c.vdd,
                node_multipliers,
            )
        })
        .collect();
    let engines: Vec<&DynamicTimingAnalysis> = engines.iter().collect();
    let (width, cycles, ops) = (alu.width(), first.cycles_per_op, AluOp::ALL.len());

    let mut rng = SmallRng::seed_from_u64(first.seed);
    let operands: Vec<(u64, u64)> = (0..ops * cycles)
        .map(|_| {
            let a = first.operands.sample(&mut rng, width);
            let b = first.operands.sample(&mut rng, width);
            (a, b)
        })
        .collect();

    // samples[(voltage * ops + op) * width + endpoint][cycle]; worker `w`
    // owns cycles bounds[w]..bounds[w + 1] of every vector.
    let mut samples = vec![vec![0.0f64; cycles]; configs.len() * ops * width];
    let chunks = cycles.div_ceil(LANES);
    let workers = workers.clamp(1, chunks);
    let bounds: Vec<usize> = (0..=workers)
        .map(|w| (w * chunks / workers * LANES).min(cycles))
        .collect();
    let mut shares: Vec<Vec<&mut [f64]>> = (0..workers).map(|_| Vec::new()).collect();
    for vector in &mut samples {
        let mut rest = vector.as_mut_slice();
        for (w, share) in shares.iter_mut().enumerate() {
            let (mine, tail) = rest.split_at_mut(bounds[w + 1] - bounds[w]);
            share.push(mine);
            rest = tail;
        }
    }
    let work = |w: usize, mut share: Vec<&mut [f64]>| {
        let mut batch: DtaBatch = DtaBatch::new(&engines);
        let mut words = vec![0u64; alu.netlist().input_count()];
        for (o, op) in AluOp::ALL.into_iter().enumerate() {
            for start in (bounds[w]..bounds[w + 1]).step_by(LANES) {
                let end = (start + LANES).min(bounds[w + 1]);
                alu.encode_input_words(
                    op,
                    &operands[o * cycles + start..o * cycles + end],
                    &mut words,
                );
                batch.run(&words);
                for v in 0..engines.len() {
                    for e in 0..width {
                        let lanes = batch.output_delays_ps(e, v);
                        let slot = &mut share[(v * ops + o) * width + e][start - bounds[w]..];
                        slot[..end - start].copy_from_slice(&lanes[..end - start]);
                    }
                }
            }
        }
    };
    std::thread::scope(|scope| {
        let mut shares = shares.into_iter().enumerate();
        let own = shares.next().expect("at least one worker");
        for (w, share) in shares {
            scope.spawn(move || work(w, share));
        }
        work(own.0, own.1);
    });

    let mut samples = samples.into_iter();
    configs
        .iter()
        .map(|config| {
            let sta = StaticTimingAnalysis::run_with_multipliers(
                alu.netlist(),
                delays,
                scaling,
                config.vdd,
                node_multipliers,
            );
            let cdfs = (0..ops)
                .map(|_| {
                    samples
                        .by_ref()
                        .take(width)
                        .map(ErrorCdf::from_samples)
                        .collect()
                })
                .collect();
            TimingCharacterization {
                vdd: config.vdd,
                width,
                cycles_per_op: cycles,
                cdfs,
                sta_endpoint_delays_ps: sta.endpoint_delays().to_vec(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn characterize(width: usize, cycles: usize) -> (AluDatapath, TimingCharacterization) {
        let alu = AluDatapath::build(width);
        let config = CharacterizationConfig {
            cycles_per_op: cycles,
            ..CharacterizationConfig::default()
        };
        let ch = characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &config,
        );
        (alu, ch)
    }

    #[test]
    fn shapes_and_counts() {
        let (_, ch) = characterize(8, 32);
        assert_eq!(ch.endpoint_count(), 8);
        assert_eq!(ch.cycles_per_op(), 32);
        assert_eq!(ch.vdd(), 0.7);
        for op in AluOp::ALL {
            for e in 0..8 {
                assert_eq!(ch.cdf(op, e).sample_count(), 32);
            }
        }
    }

    #[test]
    fn mul_fails_before_add_with_budgeting() {
        // The instruction-ordering property of the paper (multiplications
        // fail at lower frequencies than additions) holds for the budgeted
        // datapath, which is the configuration the experiment pipeline uses.
        let alu = AluDatapath::build(8);
        let delays = DelayModel::default_28nm();
        let scaling = VoltageScaling::default_28nm();
        let mults = crate::budget::synthesis_node_multipliers(
            &alu,
            &delays,
            &scaling,
            0.7,
            &crate::budget::UnitBudgets::paper_defaults(),
        );
        let ch = characterize_alu_with_multipliers(
            &alu,
            &delays,
            &scaling,
            &CharacterizationConfig {
                cycles_per_op: 128,
                ..Default::default()
            },
            Some(&mults),
        );
        assert!(
            ch.first_failure_frequency_mhz(AluOp::Mul) < ch.first_failure_frequency_mhz(AluOp::Add)
        );
    }

    #[test]
    fn logic_ops_are_fast() {
        let (_, ch) = characterize(8, 64);
        // Single-gate logic operations have far more slack than multiplies.
        assert!(
            ch.first_failure_frequency_mhz(AluOp::Xor)
                > 1.5 * ch.first_failure_frequency_mhz(AluOp::Mul)
        );
    }

    #[test]
    fn probabilities_bounded_and_monotonic() {
        let (_, ch) = characterize(8, 64);
        let sta_period = ch.sta_critical_path_ps();
        for op in [AluOp::Add, AluOp::Mul, AluOp::SfLts] {
            for e in [0usize, 4, 7] {
                let mut prev = 1.0;
                for scale in [0.4, 0.6, 0.8, 1.0, 1.2] {
                    let p = ch.error_probability(op, e, sta_period * scale, 1.0);
                    assert!((0.0..=1.0).contains(&p));
                    assert!(
                        p <= prev + 1e-12,
                        "longer period must not increase probability"
                    );
                    prev = p;
                }
                // At the STA limit nothing fails under nominal conditions.
                assert_eq!(ch.error_probability(op, e, sta_period, 1.0), 0.0);
            }
        }
    }

    #[test]
    fn droop_increases_error_probability() {
        let (_, ch) = characterize(8, 64);
        // Pick a period right at the point where the multiplier barely passes.
        let period = ch.cdf(AluOp::Mul, 7).max_delay_ps().unwrap() * 1.001;
        let nominal = ch.error_probability(AluOp::Mul, 7, period, 1.0);
        let droop = ch.error_probability(AluOp::Mul, 7, period, 1.05);
        assert_eq!(nominal, 0.0);
        assert!(droop > 0.0);
    }

    #[test]
    fn dynamic_delays_bounded_by_sta() {
        let (_, ch) = characterize(8, 64);
        for op in AluOp::ALL {
            for e in 0..8 {
                if let Some(max) = ch.cdf(op, e).max_delay_ps() {
                    assert!(max <= ch.sta_endpoint_delay_ps(e) + 1e-9);
                }
            }
        }
        assert!(ch.sta_limit_mhz() > 0.0);
    }

    #[test]
    fn narrow_operands_have_more_slack() {
        let alu = AluDatapath::build(16);
        let full = characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 64,
                ..Default::default()
            },
        );
        let narrow = characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 64,
                operands: OperandDistribution::UniformBits(8),
                ..Default::default()
            },
        );
        // With 8-bit operands the adder carry chain is exercised less deeply,
        // so the worst observed delay is smaller (Fig. 4: 16-bit vs 32-bit add).
        let full_worst = full.cdf(AluOp::Add, 15).max_delay_ps().unwrap();
        let narrow_worst = narrow.cdf(AluOp::Add, 15).max_delay_ps().unwrap();
        assert!(narrow_worst < full_worst);
    }

    #[test]
    fn from_parts_round_trips() {
        let (_, ch) = characterize(8, 16);
        let cdfs: Vec<Vec<ErrorCdf>> = AluOp::ALL
            .iter()
            .map(|&op| (0..8).map(|e| ch.cdf(op, e).clone()).collect())
            .collect();
        let delays: Vec<f64> = (0..8).map(|e| ch.sta_endpoint_delay_ps(e)).collect();
        let rebuilt =
            TimingCharacterization::from_parts(ch.vdd(), 8, ch.cycles_per_op(), cdfs, delays);
        for op in AluOp::ALL {
            for e in 0..8 {
                assert_eq!(rebuilt.cdf(op, e), ch.cdf(op, e));
            }
        }
        assert_eq!(rebuilt.sta_limit_mhz(), ch.sta_limit_mhz());
        assert_eq!(rebuilt.cycles_per_op(), ch.cycles_per_op());
    }

    #[test]
    #[should_panic(expected = "one CDF row per ALU instruction")]
    fn from_parts_rejects_wrong_shape() {
        TimingCharacterization::from_parts(0.7, 8, 16, vec![Vec::new(); 3], vec![0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_cycles_panics() {
        let alu = AluDatapath::build(8);
        characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 0,
                ..Default::default()
            },
        );
    }
}
