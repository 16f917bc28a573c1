//! Equivalence suite: the batched, bit-sliced DTA kernel ([`DtaBatch`]
//! and the [`characterize_alu_batch`] pass built on it) against a naive
//! scalar reference that analyses one vector at one voltage at a time —
//! boolean values, one arrival per gate, the controlling-value rules
//! spelled out case by case.
//!
//! Every logic value and every delay bit must agree, across ALU widths,
//! value awareness, operand distributions, partial lane chunks, voltage
//! lists (including reversed order) and worker counts.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfi_netlist::alu::{AluDatapath, AluOp};
use sfi_netlist::gate::GateKind;
use sfi_netlist::{DelayModel, Netlist, VoltageScaling};
use sfi_timing::dta::LANES;
use sfi_timing::{
    characterize_alu_batch, synthesis_node_multipliers, CharacterizationConfig, DtaBatch,
    DynamicTimingAnalysis, OperandDistribution, UnitBudgets,
};

/// One voltage's timing data, computed the way the engine documents it.
struct Reference {
    gate_delays_ps: Vec<f64>,
    sequential_overhead_ps: f64,
    value_aware: bool,
}

impl Reference {
    fn new(netlist: &Netlist, vdd: f64, mults: Option<&[f64]>, value_aware: bool) -> Self {
        let (delays, scaling) = (DelayModel::default_28nm(), VoltageScaling::default_28nm());
        let factor = scaling.delay_factor(vdd);
        Reference {
            gate_delays_ps: (0..netlist.len())
                .map(|i| {
                    let m = mults.map_or(1.0, |m| m[i]);
                    delays.gate_delay(netlist, netlist.node(i)) * factor * m
                })
                .collect(),
            sequential_overhead_ps: delays.sequential_overhead() * factor,
            value_aware,
        }
    }

    /// Scalar per-vector DTA: output values and register-to-register
    /// delays of one input vector.
    fn analyze(&self, netlist: &Netlist, inputs: &[bool]) -> (Vec<bool>, Vec<f64>) {
        let mut values = vec![false; netlist.len()];
        let mut arrivals = vec![0.0f64; netlist.len()];
        let mut next_input = 0;
        for (i, gate) in netlist.gates().iter().enumerate() {
            match gate.kind {
                GateKind::Input => {
                    values[i] = inputs[next_input];
                    next_input += 1;
                }
                GateKind::Const(v) => values[i] = v,
                kind => {
                    let d = self.gate_delays_ps[i];
                    let (a, b) = (gate.a as usize, gate.b as usize);
                    if kind.fanin_count() == 1 {
                        values[i] = kind.eval(values[a], false);
                        arrivals[i] = arrivals[a] + d;
                        continue;
                    }
                    let (va, vb, ta, tb) = (values[a], values[b], arrivals[a], arrivals[b]);
                    values[i] = kind.eval(va, vb);
                    arrivals[i] = match kind.controlling_value() {
                        Some(c) if self.value_aware => match (va == c, vb == c) {
                            (true, true) => ta.min(tb) + d,
                            (true, false) => ta + d,
                            (false, true) => tb + d,
                            (false, false) => ta.max(tb) + d,
                        },
                        _ => ta.max(tb) + d,
                    };
                }
            }
        }
        let outputs = netlist.outputs();
        (
            outputs.iter().map(|o| values[o.node.index()]).collect(),
            outputs
                .iter()
                .map(|o| arrivals[o.node.index()] + self.sequential_overhead_ps)
                .collect(),
        )
    }
}

fn operand(rng: &mut SmallRng, dist: OperandDistribution, width: usize) -> u64 {
    let bits = match dist {
        OperandDistribution::UniformFull => width as u32,
        OperandDistribution::UniformBits(b) => b.min(width as u32),
    };
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    rng.gen::<u64>() & mask
}

const VOLTAGE_LISTS: [&[f64]; 3] = [&[0.7], &[0.7, 0.8], &[0.8, 0.7]];

#[test]
fn batch_kernel_matches_scalar_reference() {
    let (delays, scaling) = (DelayModel::default_28nm(), VoltageScaling::default_28nm());
    for width in [8, 16, 32] {
        let alu = AluDatapath::build(width);
        let netlist = alu.netlist();
        for value_aware in [true, false] {
            for vdds in VOLTAGE_LISTS {
                let engines: Vec<DynamicTimingAnalysis> = vdds
                    .iter()
                    .map(|&vdd| {
                        DynamicTimingAnalysis::new(netlist, &delays, &scaling, vdd)
                            .with_value_awareness(value_aware)
                    })
                    .collect();
                let refs: Vec<Reference> = vdds
                    .iter()
                    .map(|&vdd| Reference::new(netlist, vdd, None, value_aware))
                    .collect();
                let engine_refs: Vec<&DynamicTimingAnalysis> = engines.iter().collect();
                let mut batch: DtaBatch = DtaBatch::new(&engine_refs);
                let mut rng = SmallRng::seed_from_u64(width as u64 * 31 + value_aware as u64);
                let mut words = vec![0u64; netlist.input_count()];
                for (round, op) in AluOp::ALL.into_iter().enumerate() {
                    // Full and partial batches; a partial batch leaves the
                    // upper lanes at zero operands.
                    let lanes = [LANES, 1, 3][round % 3];
                    let dist = [
                        OperandDistribution::UniformFull,
                        OperandDistribution::UniformBits(16),
                    ][round % 2];
                    let operands: Vec<(u64, u64)> = (0..lanes)
                        .map(|_| {
                            (
                                operand(&mut rng, dist, width),
                                operand(&mut rng, dist, width),
                            )
                        })
                        .collect();
                    alu.encode_input_words(op, &operands, &mut words);
                    batch.run(&words);
                    for (l, &(a, b)) in operands.iter().enumerate() {
                        let inputs = alu.encode_inputs(op, a, b);
                        for (v, reference) in refs.iter().enumerate() {
                            let (values, delays_ps) = reference.analyze(netlist, &inputs);
                            for e in 0..netlist.output_count() {
                                let ctx = format!(
                                    "width {width} aware {value_aware} vdds {vdds:?} {op} \
                                     lane {l}/{lanes} vdd {} endpoint {e}",
                                    vdds[v]
                                );
                                assert_eq!(batch.output_value(e, l), values[e], "{ctx}");
                                assert_eq!(
                                    batch.output_delays_ps(e, v)[l].to_bits(),
                                    delays_ps[e].to_bits(),
                                    "{ctx}"
                                );
                            }
                            // The one-vector call is the same kernel.
                            let single = engines[v].analyze(&inputs);
                            assert_eq!(single.output_values, values);
                            let bits =
                                |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&single.output_delays_ps), bits(&delays_ps));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn batched_characterization_matches_scalar_reference() {
    let (delays, scaling) = (DelayModel::default_28nm(), VoltageScaling::default_28nm());
    let seed = 0xDAC_2016;
    for width in [8, 16, 32] {
        let alu = AluDatapath::build(width);
        let netlist = alu.netlist();
        let mults = synthesis_node_multipliers(
            &alu,
            &delays,
            &scaling,
            0.7,
            &UnitBudgets::paper_defaults(),
        );
        let refs = [0.7, 0.8].map(|vdd| (vdd, Reference::new(netlist, vdd, Some(&mults), true)));
        for dist in [
            OperandDistribution::UniformFull,
            OperandDistribution::UniformBits(16),
        ] {
            for cycles in [1, 7, 8, 17, 48] {
                // Reference samples per voltage, sorted per (op, endpoint),
                // drawn in the characterization's op-major order.
                let mut rng = SmallRng::seed_from_u64(seed);
                let vectors: Vec<Vec<bool>> = AluOp::ALL
                    .into_iter()
                    .flat_map(|op| {
                        (0..cycles)
                            .map(|_| {
                                let a = operand(&mut rng, dist, width);
                                let b = operand(&mut rng, dist, width);
                                alu.encode_inputs(op, a, b)
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let expected: Vec<(f64, Vec<Vec<Vec<u64>>>)> = refs
                    .iter()
                    .map(|(vdd, reference)| {
                        let per_vector: Vec<Vec<f64>> = vectors
                            .iter()
                            .map(|inputs| reference.analyze(netlist, inputs).1)
                            .collect();
                        let cdfs = (0..AluOp::ALL.len())
                            .map(|o| {
                                (0..width)
                                    .map(|e| {
                                        let mut s: Vec<f64> = (0..cycles)
                                            .map(|c| per_vector[o * cycles + c][e])
                                            .collect();
                                        s.sort_by(|x, y| x.partial_cmp(y).unwrap());
                                        s.iter().map(|x| x.to_bits()).collect()
                                    })
                                    .collect()
                            })
                            .collect();
                        (*vdd, cdfs)
                    })
                    .collect();
                for vdds in VOLTAGE_LISTS {
                    let configs: Vec<CharacterizationConfig> = vdds
                        .iter()
                        .map(|&vdd| CharacterizationConfig {
                            cycles_per_op: cycles,
                            vdd,
                            seed,
                            operands: dist,
                        })
                        .collect();
                    for workers in [1, 2] {
                        let chars = characterize_alu_batch(
                            &alu,
                            &delays,
                            &scaling,
                            &configs,
                            Some(&mults),
                            workers,
                        );
                        assert_eq!(chars.len(), vdds.len());
                        for (ch, &vdd) in chars.iter().zip(vdds.iter()) {
                            assert_eq!(ch.vdd(), vdd);
                            assert_eq!(ch.cycles_per_op(), cycles);
                            let (_, cdfs) = expected.iter().find(|(v, _)| *v == vdd).unwrap();
                            for op in AluOp::ALL {
                                for (e, want) in cdfs[op.code() as usize].iter().enumerate() {
                                    let got: Vec<u64> = ch
                                        .cdf(op, e)
                                        .samples()
                                        .iter()
                                        .map(|x| x.to_bits())
                                        .collect();
                                    assert_eq!(
                                        &got, want,
                                        "width {width} {dist:?} cycles {cycles} vdds {vdds:?} \
                                         workers {workers} {op} endpoint {e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "may differ only in vdd")]
fn batched_configs_must_share_operands() {
    let alu = AluDatapath::build(8);
    let base = CharacterizationConfig {
        cycles_per_op: 8,
        ..Default::default()
    };
    characterize_alu_batch(
        &alu,
        &DelayModel::default_28nm(),
        &VoltageScaling::default_28nm(),
        &[base, CharacterizationConfig { seed: 1, ..base }],
        None,
        1,
    );
}

#[test]
#[should_panic(expected = "value-awareness")]
fn batch_voltages_must_share_value_awareness() {
    let alu = AluDatapath::build(8);
    let (delays, scaling) = (DelayModel::default_28nm(), VoltageScaling::default_28nm());
    let aware = DynamicTimingAnalysis::new(alu.netlist(), &delays, &scaling, 0.7);
    let blind = aware.clone().with_value_awareness(false);
    let _: DtaBatch = DtaBatch::new(&[&aware, &blind]);
}
