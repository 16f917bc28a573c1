//! Dynamic timing analysis (DTA): value-dependent arrival times.
//!
//! In contrast to [`crate::sta`], the dynamic analysis propagates both logic
//! values and arrival times through the netlist.  When a *controlling* value
//! (a 0 at an AND/NAND input, a 1 at an OR/NOR input) arrives early, the
//! gate output settles early regardless of its other, possibly much slower
//! input — the mechanism behind the "dynamic timing slack" exploited by the
//! paper (and by its ref. 14).  This makes arrival times depend on the
//! executed instruction and on the operand data, which is exactly the
//! statistical structure model C captures.

use sfi_netlist::gate::GateKind;
use sfi_netlist::{DelayModel, Netlist, VoltageScaling};
use std::borrow::Cow;

/// Vectors per batch of the characterization kernel ([`DtaBatch`]'s
/// default lane count).
///
/// With eight lanes the two-voltage arrival scratch of the paper's 32-bit
/// ALU is 641 live slots × 2 voltages × 8 lanes × 8 B ≈ 82 KB per worker;
/// sixteen lanes measured no faster while doubling it, four were slower.
pub const LANES: usize = 8;

/// Result of analysing one input vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DtaResult {
    /// Logic value of every registered output.
    pub output_values: Vec<bool>,
    /// Register-to-register delay of every registered output in picoseconds
    /// (sensitised arrival time plus sequential overhead).
    pub output_delays_ps: Vec<f64>,
}

impl DtaResult {
    /// The worst (largest) endpoint delay of this vector, in picoseconds.
    pub fn worst_delay_ps(&self) -> f64 {
        self.output_delays_ps.iter().copied().fold(0.0, f64::max)
    }
}

/// A reusable dynamic-timing-analysis engine for one netlist at one
/// operating point.
///
/// The engine keeps its own copy of the netlist and pre-computes per-gate
/// delays at construction.  Analysing vectors is one linear pass of the
/// [`DtaBatch`] kernel; [`DynamicTimingAnalysis::analyze`] is its
/// one-vector, one-voltage case.
///
/// # Example
///
/// ```
/// use sfi_netlist::alu::{AluDatapath, AluOp};
/// use sfi_netlist::{DelayModel, VoltageScaling};
/// use sfi_timing::DynamicTimingAnalysis;
///
/// let alu = AluDatapath::build(8);
/// let dta = DynamicTimingAnalysis::new(
///     alu.netlist(),
///     &DelayModel::default_28nm(),
///     &VoltageScaling::default_28nm(),
///     0.7,
/// );
/// // A multiplication by zero is resolved much earlier than a "hard" one.
/// let easy = dta.analyze(&alu.encode_inputs(AluOp::Mul, 0xFF, 0x00));
/// let hard = dta.analyze(&alu.encode_inputs(AluOp::Mul, 0xFF, 0xFF));
/// assert!(easy.worst_delay_ps() < hard.worst_delay_ps());
/// ```
#[derive(Debug, Clone)]
pub struct DynamicTimingAnalysis {
    netlist: Netlist,
    schedule: Schedule,
    gate_delays_ps: Vec<f64>,
    sequential_overhead_ps: f64,
    value_aware: bool,
}

impl DynamicTimingAnalysis {
    /// Creates the engine for `netlist` with the given delay model at supply
    /// voltage `vdd`.  The netlist is copied into the engine.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not above the threshold voltage of `scaling`.
    pub fn new(netlist: &Netlist, delays: &DelayModel, scaling: &VoltageScaling, vdd: f64) -> Self {
        Self::new_with_multipliers(netlist, delays, scaling, vdd, None)
    }

    /// Creates the engine with an optional per-gate delay multiplier (one
    /// entry per netlist node), as produced by the synthesis-like timing
    /// budgeting pass in [`crate::budget`].
    ///
    /// # Panics
    ///
    /// Panics if a multiplier slice is provided whose length differs from
    /// the netlist size, or if `vdd` is not above the threshold voltage.
    pub fn new_with_multipliers(
        netlist: &Netlist,
        delays: &DelayModel,
        scaling: &VoltageScaling,
        vdd: f64,
        node_multipliers: Option<&[f64]>,
    ) -> Self {
        if let Some(m) = node_multipliers {
            assert_eq!(
                m.len(),
                netlist.len(),
                "need one delay multiplier per netlist node"
            );
        }
        let factor = scaling.delay_factor(vdd);
        let gate_delays_ps = (0..netlist.len())
            .map(|i| {
                let m = node_multipliers.map_or(1.0, |m| m[i]);
                delays.gate_delay(netlist, netlist.node(i)) * factor * m
            })
            .collect();
        DynamicTimingAnalysis {
            netlist: netlist.clone(),
            schedule: Schedule::new(netlist),
            gate_delays_ps,
            sequential_overhead_ps: delays.sequential_overhead() * factor,
            value_aware: true,
        }
    }

    /// Disables value-dependent (controlling-value) early termination,
    /// degenerating the analysis to a per-vector topological worst case.
    ///
    /// This exists for the ablation study in the benchmark harness: with
    /// value awareness disabled, model C collapses towards model B.
    pub fn with_value_awareness(mut self, value_aware: bool) -> Self {
        self.value_aware = value_aware;
        self
    }

    /// Whether controlling-value early termination is enabled.
    pub fn is_value_aware(&self) -> bool {
        self.value_aware
    }

    /// Sequential overhead included in reported delays, in picoseconds.
    pub fn sequential_overhead_ps(&self) -> f64 {
        self.sequential_overhead_ps
    }

    /// The netlist this engine analyses.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Analyses one primary-input vector and returns per-output values and
    /// sensitised register-to-register delays.
    ///
    /// # Panics
    ///
    /// Panics if the input vector length does not match the netlist.
    pub fn analyze(&self, inputs: &[bool]) -> DtaResult {
        assert_eq!(
            inputs.len(),
            self.netlist.input_count(),
            "expected {} input values, got {}",
            self.netlist.input_count(),
            inputs.len()
        );
        let words: Vec<u64> = inputs.iter().map(|&v| v as u64).collect();
        let mut batch = DtaBatch::<1>::new(&[self]);
        batch.run(&words);
        let outputs = 0..self.netlist.output_count();
        DtaResult {
            output_values: outputs.clone().map(|e| batch.output_value(e, 0)).collect(),
            output_delays_ps: outputs.map(|e| batch.output_delays_ps(e, 0)[0]).collect(),
        }
    }
}

/// The dynamic-timing kernel: propagates `L` input vectors ("lanes")
/// through one netlist at several supply voltages in a single pass.
///
/// Logic values do not depend on the supply voltage, so each gate carries
/// one bit-sliced value word (bit `l` = lane `l`) shared by every voltage,
/// plus one `[f64; L]` arrival block per voltage.  Arrival times follow
/// the per-vector rules exactly — input and constant arrivals are zero, a
/// one-input gate adds its delay, a two-input gate takes the earlier
/// controlling input (both controlling: the earlier one; one: that one)
/// or else the later input, then adds its delay — so every lane's delays
/// are bit-identical to a one-vector analysis.  Value-blind engines take
/// the later input at every two-input gate.
///
/// Each gate's value and arrivals live in a scratch slot that is reused
/// once every fanout has read it, so the scratch holds the netlist's
/// widest live cut rather than every gate.  It is sized once at
/// construction and reused by every [`DtaBatch::run`].
///
/// # Example
///
/// ```
/// use sfi_netlist::alu::{AluDatapath, AluOp};
/// use sfi_netlist::{DelayModel, VoltageScaling};
/// use sfi_timing::dta::{DtaBatch, DynamicTimingAnalysis};
///
/// let alu = AluDatapath::build(8);
/// let (delays, scaling) = (DelayModel::default_28nm(), VoltageScaling::default_28nm());
/// let slow = DynamicTimingAnalysis::new(alu.netlist(), &delays, &scaling, 0.7);
/// let fast = DynamicTimingAnalysis::new(alu.netlist(), &delays, &scaling, 0.8);
///
/// // Two multiplications in lanes 0 and 1, at both voltages in one pass.
/// let mut words = vec![0; alu.netlist().input_count()];
/// alu.encode_input_words(AluOp::Mul, &[(0xFF, 0x00), (0xFF, 0xFF)], &mut words);
/// let mut batch: DtaBatch = DtaBatch::new(&[&slow, &fast]);
/// batch.run(&words);
/// let msb = alu.width() - 1;
/// let at_07 = batch.output_delays_ps(msb, 0);
/// let at_08 = batch.output_delays_ps(msb, 1);
/// assert!(at_07[0] < at_07[1]); // the easy vector settles earlier
/// assert!(at_08[1] < at_07[1]); // and a higher supply is faster
/// let hard = slow.analyze(&alu.encode_inputs(AluOp::Mul, 0xFF, 0xFF));
/// assert_eq!(at_07[1].to_bits(), hard.output_delays_ps[msb].to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct DtaBatch<'a, const L: usize = LANES> {
    schedule: &'a Schedule,
    value_aware: bool,
    voltages: usize,
    /// `gate_delays_ps[gate * voltages + voltage]`.
    gate_delays_ps: Cow<'a, [f64]>,
    sequential_overhead_ps: Vec<f64>,
    /// Bit-sliced logic value held in every slot.
    values: Vec<u64>,
    /// `arrivals[slot * voltages + voltage][lane]`.
    arrivals: Vec<[f64; L]>,
}

impl<'a, const L: usize> DtaBatch<'a, L> {
    /// Creates the kernel for the voltages of `engines`: voltage `v` of
    /// every result is `engines[v]`'s supply.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty, if `L` is not in `1..=64`, or if the
    /// engines differ in netlist or value awareness.
    pub fn new(engines: &[&'a DynamicTimingAnalysis]) -> Self {
        assert!((1..=64).contains(&L), "lanes must be in 1..=64, got {L}");
        let first = *engines.first().expect("at least one voltage");
        for engine in engines {
            assert!(
                engine.netlist.gates() == first.netlist.gates()
                    && engine.netlist.outputs() == first.netlist.outputs(),
                "all voltages must analyse the same netlist"
            );
            assert_eq!(
                engine.value_aware, first.value_aware,
                "all voltages must share one value-awareness mode"
            );
        }
        let voltages = engines.len();
        let gate_delays_ps = if voltages == 1 {
            Cow::Borrowed(first.gate_delays_ps.as_slice())
        } else {
            Cow::Owned(
                (0..first.gate_delays_ps.len())
                    .flat_map(|g| engines.iter().map(move |e| e.gate_delays_ps[g]))
                    .collect(),
            )
        };
        let slots = first.schedule.slots;
        DtaBatch {
            schedule: &first.schedule,
            value_aware: first.value_aware,
            voltages,
            gate_delays_ps,
            sequential_overhead_ps: engines.iter().map(|e| e.sequential_overhead_ps).collect(),
            values: vec![0; slots],
            arrivals: vec![[0.0; L]; slots * voltages],
        }
    }

    /// Propagates one batch.  Bit `l` of `input_words[i]` is primary input
    /// `i` of lane `l`; bits at or above `L` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if there is not one word per primary input.
    pub fn run(&mut self, input_words: &[u64]) {
        assert_eq!(
            input_words.len(),
            self.schedule.inputs,
            "expected {} input words, got {}",
            self.schedule.inputs,
            input_words.len()
        );
        let nv = self.voltages;
        let delays = &*self.gate_delays_ps;
        let values = &mut self.values;
        let arrivals = &mut self.arrivals;
        let mut next_input = 0usize;
        for (g, step) in self.schedule.steps.iter().enumerate() {
            let (a, b, out) = (step.a as usize, step.b as usize, step.out as usize);
            let at = |slot: usize, v: usize| slot * nv + v;
            match step.kind {
                GateKind::Input => {
                    values[out] = input_words[next_input];
                    next_input += 1;
                    arrivals[at(out, 0)..at(out, nv)].fill([0.0; L]);
                }
                kind @ GateKind::Const(_) => {
                    values[out] = kind.eval_word(0, 0);
                    arrivals[at(out, 0)..at(out, nv)].fill([0.0; L]);
                }
                kind @ (GateKind::Buf | GateKind::Not) => {
                    values[out] = kind.eval_word(values[a], 0);
                    for v in 0..nv {
                        let (ta, d) = (arrivals[at(a, v)], delays[g * nv + v]);
                        arrivals[at(out, v)] = std::array::from_fn(|l| ta[l] + d);
                    }
                }
                kind => {
                    let (va, vb) = (values[a], values[b]);
                    values[out] = kind.eval_word(va, vb);
                    match kind.controlling_value() {
                        Some(c) if self.value_aware => {
                            // All ones in the lanes whose input holds the
                            // controlling value.
                            let flip = 0u64.wrapping_sub(!c as u64);
                            let (ma, mb) = (lane_masks::<L>(va ^ flip), lane_masks::<L>(vb ^ flip));
                            for v in 0..nv {
                                let (ta, tb) = (arrivals[at(a, v)], arrivals[at(b, v)]);
                                let d = delays[g * nv + v];
                                arrivals[at(out, v)] = std::array::from_fn(|l| {
                                    controlled_arrival(ta[l], tb[l], ma[l], mb[l]) + d
                                });
                            }
                        }
                        _ => {
                            for v in 0..nv {
                                let (ta, tb) = (arrivals[at(a, v)], arrivals[at(b, v)]);
                                let d = delays[g * nv + v];
                                arrivals[at(out, v)] =
                                    std::array::from_fn(|l| later(ta[l], tb[l]) + d);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Logic value of registered output `output` in lane `lane` of the
    /// last run.
    pub fn output_value(&self, output: usize, lane: usize) -> bool {
        assert!(lane < L, "lane {lane} out of range");
        (self.values[self.schedule.outputs[output] as usize] >> lane) & 1 == 1
    }

    /// Register-to-register delays (ps) of output `output` at voltage
    /// `voltage`, one per lane, of the last run.
    pub fn output_delays_ps(&self, output: usize, voltage: usize) -> [f64; L] {
        let slot = self.schedule.outputs[output] as usize;
        let seq = self.sequential_overhead_ps[voltage];
        self.arrivals[slot * self.voltages + voltage].map(|t| t + seq)
    }
}

/// The netlist as the kernel walks it: one step per gate, in topological
/// order, naming the scratch slots of its fanins and of its output.
#[derive(Debug, Clone)]
struct Schedule {
    steps: Vec<Step>,
    /// Slot holding each registered output after a run.
    outputs: Vec<u32>,
    inputs: usize,
    /// Scratch slots a run needs: the widest set of simultaneously live
    /// gates.
    slots: usize,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    kind: GateKind,
    a: u32,
    b: u32,
    out: u32,
}

impl Schedule {
    /// Assigns slots greedily in gate order: a gate's slot is released at
    /// its last reader (a gate may take over the slot of a fanin it reads
    /// last, as the kernel reads fanins before writing) and never for
    /// registered outputs, which are read after the run.
    fn new(netlist: &Netlist) -> Self {
        let gates = netlist.gates();
        let fanins = |g: usize| {
            let gate = gates[g];
            match gate.kind.fanin_count() {
                0 => [None, None],
                1 => [Some(gate.a as usize), None],
                _ => [
                    Some(gate.a as usize),
                    Some(gate.b as usize).filter(|&b| b != gate.a as usize),
                ],
            }
        };
        const KEEP: usize = usize::MAX;
        // The last gate reading each gate; itself when none does.
        let mut last_reader: Vec<usize> = (0..gates.len()).collect();
        for g in 0..gates.len() {
            for f in fanins(g).into_iter().flatten() {
                last_reader[f] = g;
            }
        }
        for output in netlist.outputs() {
            last_reader[output.node.index()] = KEEP;
        }
        let mut slot_of = Vec::with_capacity(gates.len());
        let mut free: Vec<u32> = Vec::new();
        let mut slots = 0u32;
        let mut steps = Vec::with_capacity(gates.len());
        for (g, gate) in gates.iter().enumerate() {
            let [fa, fb] = fanins(g);
            let slot_a = fa.map_or(0, |f| slot_of[f]);
            let slot_b = fb.or(fa).map_or(0, |f| slot_of[f]);
            for f in [fa, fb].into_iter().flatten() {
                if last_reader[f] == g {
                    free.push(slot_of[f]);
                }
            }
            let out = free.pop().unwrap_or_else(|| {
                slots += 1;
                slots - 1
            });
            slot_of.push(out);
            if last_reader[g] == g {
                free.push(out);
            }
            steps.push(Step {
                kind: gate.kind,
                a: slot_a,
                b: slot_b,
                out,
            });
        }
        Schedule {
            steps,
            outputs: netlist
                .outputs()
                .iter()
                .map(|o| slot_of[o.node.index()])
                .collect(),
            inputs: netlist.input_count(),
            slots: slots as usize,
        }
    }
}

/// `u64::MAX` in every lane whose bit is set in `bits`, else 0: one
/// table row per byte of lanes, so eight lanes cost one 64-byte load
/// instead of eight shift-and-negate steps.
#[inline(always)]
fn lane_masks<const L: usize>(bits: u64) -> [u64; L] {
    std::array::from_fn(|l| BYTE_LANE_MASKS[(bits >> (l & !7)) as usize & 0xFF][l & 7])
}

/// `BYTE_LANE_MASKS[byte][l]` is all ones when bit `l` of `byte` is set.
static BYTE_LANE_MASKS: [[u64; 8]; 256] = {
    let mut table = [[0u64; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut l = 0;
        while l < 8 {
            table[byte][l] = 0u64.wrapping_sub((byte as u64 >> l) & 1);
            l += 1;
        }
        byte += 1;
    }
    table
};

/// The later of two arrivals: `f64::max` for the finite, non-negative
/// arrivals the kernel carries, as one compare-and-select.
#[inline(always)]
fn later(ta: f64, tb: f64) -> f64 {
    if ta < tb {
        tb
    } else {
        ta
    }
}

/// Arrival of a controlling-value gate before its own delay, selected
/// without branches from the lane masks `ma`/`mb` (all ones where that
/// input holds the controlling value): the earliest controlling input,
/// or the later input when neither controls.
#[inline(always)]
fn controlled_arrival(ta: f64, tb: f64, ma: u64, mb: u64) -> f64 {
    const INF: u64 = f64::INFINITY.to_bits();
    // Non-controlling inputs are pushed to +inf so they never win the min.
    let xa = f64::from_bits((ta.to_bits() & ma) | (INF & !ma));
    let xb = f64::from_bits((tb.to_bits() & mb) | (INF & !mb));
    let first = if xa < xb { xa } else { xb };
    let any = ma | mb;
    f64::from_bits((first.to_bits() & any) | (later(ta, tb).to_bits() & !any))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_netlist::alu::{AluDatapath, AluOp};

    fn engine(width: usize) -> (AluDatapath, DynamicTimingAnalysis) {
        let alu = AluDatapath::build(width);
        let dta = DynamicTimingAnalysis::new(
            alu.netlist(),
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            0.7,
        );
        (alu, dta)
    }

    #[test]
    fn values_match_functional_evaluation() {
        let (alu, dta) = engine(8);
        for op in AluOp::ALL {
            for (a, b) in [(0u64, 0u64), (255, 255), (170, 85), (41, 200)] {
                let inputs = alu.encode_inputs(op, a, b);
                let res = dta.analyze(&inputs);
                assert_eq!(res.output_values, alu.netlist().evaluate(&inputs), "{op}");
            }
        }
    }

    #[test]
    fn dta_never_exceeds_sta() {
        use crate::sta::StaticTimingAnalysis;
        let (alu, dta) = engine(8);
        let sta = StaticTimingAnalysis::run(
            alu.netlist(),
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            0.7,
        );
        for op in AluOp::ALL {
            for (a, b) in [(0u64, 0u64), (255, 255), (170, 85), (41, 200), (13, 13)] {
                let inputs = alu.encode_inputs(op, a, b);
                let res = dta.analyze(&inputs);
                for (e, d) in res.output_delays_ps.iter().enumerate() {
                    assert!(
                        *d <= sta.endpoint_delay(e) + 1e-9,
                        "{op} endpoint {e}: dynamic {d} > static {}",
                        sta.endpoint_delay(e)
                    );
                }
            }
        }
    }

    #[test]
    fn data_dependence_of_multiplication() {
        let (alu, dta) = engine(8);
        let easy = dta.analyze(&alu.encode_inputs(AluOp::Mul, 0xFF, 0x00));
        let hard = dta.analyze(&alu.encode_inputs(AluOp::Mul, 0xFF, 0xFF));
        assert!(easy.worst_delay_ps() < hard.worst_delay_ps());
    }

    #[test]
    fn instruction_dependence_add_vs_mul() {
        // At the case-study width of 32 bits the multiplier path is longer
        // than the adder path for the same operands.
        let (alu, dta) = engine(32);
        let add = dta.analyze(&alu.encode_inputs(AluOp::Add, 0xABCD_1234, 0xCD12_99AB));
        let mul = dta.analyze(&alu.encode_inputs(AluOp::Mul, 0xABCD_1234, 0xCD12_99AB));
        assert!(mul.worst_delay_ps() > add.worst_delay_ps());
    }

    #[test]
    fn value_awareness_ablation_is_more_pessimistic() {
        let (alu, aware) = engine(8);
        let blind = aware.clone().with_value_awareness(false);
        assert!(aware.is_value_aware());
        assert!(!blind.is_value_aware());
        let inputs = alu.encode_inputs(AluOp::Add, 1, 1);
        let a = aware.analyze(&inputs);
        let b = blind.analyze(&inputs);
        assert!(b.worst_delay_ps() >= a.worst_delay_ps());
        // Values are unaffected by the timing mode.
        assert_eq!(a.output_values, b.output_values);
    }

    #[test]
    fn higher_voltage_shortens_delays() {
        let alu = AluDatapath::build(8);
        let slow = DynamicTimingAnalysis::new(
            alu.netlist(),
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            0.7,
        );
        let fast = DynamicTimingAnalysis::new(
            alu.netlist(),
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            0.8,
        );
        let inputs = alu.encode_inputs(AluOp::Mul, 0x7F, 0x3B);
        assert!(fast.analyze(&inputs).worst_delay_ps() < slow.analyze(&inputs).worst_delay_ps());
    }

    #[test]
    fn netlist_accessor_matches() {
        let (alu, dta) = engine(8);
        assert_eq!(dta.netlist().len(), alu.netlist().len());
        assert!(dta.sequential_overhead_ps() > 0.0);
    }

    #[test]
    fn scratch_holds_the_live_cut_not_the_netlist() {
        // The paper's 32-bit ALU: its widest live cut is a small fraction
        // of the gates, which is what keeps a two-voltage, eight-lane
        // scratch in a per-core cache.
        let (alu, dta) = engine(32);
        let schedule = &dta.schedule;
        assert!(
            schedule.slots * 8 < alu.netlist().len(),
            "{} slots for {} gates",
            schedule.slots,
            alu.netlist().len()
        );
        assert_eq!(schedule.steps.len(), alu.netlist().len());
        // Outputs keep distinct slots to the end of the run.
        let mut outputs = schedule.outputs.clone();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), alu.netlist().output_count());
    }

    #[test]
    #[should_panic(expected = "same netlist")]
    fn batch_voltages_must_share_the_netlist() {
        let (_, narrow) = engine(8);
        let (_, wide) = engine(16);
        let _: DtaBatch = DtaBatch::new(&[&narrow, &wide]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_input_length_panics() {
        let (_alu, dta) = engine(8);
        dta.analyze(&[true, false]);
    }
}
