//! The execution-stage ALU datapath whose result register bits are the
//! fault-injection endpoints of the whole flow.
//!
//! The datapath combines an adder/subtractor, a Wallace-tree multiplier, a
//! barrel shifter, a bitwise logic unit and a comparator behind an AND–OR
//! result multiplexer selected by a one-hot decoded operation code.  Its
//! `width` result bits (32 in the paper's case study) are registered in the
//! EX-stage pipeline register; timing violations on those flip-flops are the
//! faults that the ISS injects.

use crate::adder::add_sub;
use crate::builder::{and_reduce, from_bits};
use crate::comparator::comparator;
use crate::logic::{and_word, or_word, xor_word};
use crate::multiplier::wallace_multiplier;
use crate::netlist::{Netlist, NodeId};
use crate::shifter::{barrel_shifter, ShiftKind};
use std::fmt;

/// Operations implemented by the execution-stage ALU.
///
/// These correspond to the OpenRISC ALU instructions the paper's dynamic
/// timing analysis characterizes individually (`l.add`, `l.sub`, `l.mul`,
/// `l.and`, `l.or`, `l.xor`, `l.sll`, `l.srl`, `l.sra`, and the `l.sf*`
/// set-flag comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Addition (`l.add`, `l.addi`).
    Add,
    /// Subtraction (`l.sub`).
    Sub,
    /// Bitwise AND (`l.and`, `l.andi`).
    And,
    /// Bitwise OR (`l.or`, `l.ori`).
    Or,
    /// Bitwise XOR (`l.xor`, `l.xori`).
    Xor,
    /// Shift left logical (`l.sll`, `l.slli`).
    Sll,
    /// Shift right logical (`l.srl`, `l.srli`).
    Srl,
    /// Shift right arithmetic (`l.sra`, `l.srai`).
    Sra,
    /// Low-half multiplication (`l.mul`, `l.muli`).
    Mul,
    /// Set flag if equal (`l.sfeq`).
    SfEq,
    /// Set flag if not equal (`l.sfne`).
    SfNe,
    /// Set flag if less than, unsigned (`l.sfltu`).
    SfLtu,
    /// Set flag if greater or equal, unsigned (`l.sfgeu`).
    SfGeu,
    /// Set flag if less than, signed (`l.sflts`).
    SfLts,
    /// Set flag if greater or equal, signed (`l.sfges`).
    SfGes,
}

impl AluOp {
    /// All ALU operations, in select-code order.
    pub const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Mul,
        AluOp::SfEq,
        AluOp::SfNe,
        AluOp::SfLtu,
        AluOp::SfGeu,
        AluOp::SfLts,
        AluOp::SfGes,
    ];

    /// Numeric select code of the operation (index into [`AluOp::ALL`]).
    pub fn code(self) -> u8 {
        // The declaration order is the order of `ALL`.
        self as u8
    }

    /// The operation corresponding to a select code, if valid.
    pub fn from_code(code: u8) -> Option<AluOp> {
        AluOp::ALL.get(code as usize).copied()
    }

    /// Whether the operation produces a single flag bit (set-flag
    /// comparisons) rather than a full-width result.
    pub fn is_set_flag(self) -> bool {
        matches!(
            self,
            AluOp::SfEq | AluOp::SfNe | AluOp::SfLtu | AluOp::SfGeu | AluOp::SfLts | AluOp::SfGes
        )
    }

    /// Reference (golden) result of the operation on `width`-bit operands.
    ///
    /// Set-flag operations return 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn reference(self, a: u64, b: u64, width: usize) -> u64 {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let a = a & mask;
        let b = b & mask;
        let sign = |x: u64| -> i64 {
            if width == 64 {
                x as i64
            } else if x >> (width - 1) & 1 == 1 {
                (x | !mask) as i64
            } else {
                x as i64
            }
        };
        let shamt = (b % width as u64) as u32;
        let result = match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a << shamt,
            AluOp::Srl => a >> shamt,
            AluOp::Sra => (sign(a) >> shamt) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::SfEq => (a == b) as u64,
            AluOp::SfNe => (a != b) as u64,
            AluOp::SfLtu => (a < b) as u64,
            AluOp::SfGeu => (a >= b) as u64,
            AluOp::SfLts => (sign(a) < sign(b)) as u64,
            AluOp::SfGes => (sign(a) >= sign(b)) as u64,
        };
        result & mask
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "l.add",
            AluOp::Sub => "l.sub",
            AluOp::And => "l.and",
            AluOp::Or => "l.or",
            AluOp::Xor => "l.xor",
            AluOp::Sll => "l.sll",
            AluOp::Srl => "l.srl",
            AluOp::Sra => "l.sra",
            AluOp::Mul => "l.mul",
            AluOp::SfEq => "l.sfeq",
            AluOp::SfNe => "l.sfne",
            AluOp::SfLtu => "l.sfltu",
            AluOp::SfGeu => "l.sfgeu",
            AluOp::SfLts => "l.sflts",
            AluOp::SfGes => "l.sfges",
        };
        f.write_str(s)
    }
}

/// Number of operation-select input bits of the datapath.
pub const OP_SELECT_BITS: usize = 4;

/// Functional units of the execution-stage datapath.
///
/// Every gate of the [`AluDatapath`] netlist belongs to exactly one unit;
/// the mapping is used by the synthesis-like timing-budgeting pass in
/// `sfi-timing` to emulate the paper's constraint strategy (every datapath
/// unit just meets the clock constraint, and only the ALU endpoints limit
/// the maximum frequency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluUnit {
    /// Primary inputs and the one-hot operation decoder.
    OpDecode,
    /// The adder/subtractor.
    AddSub,
    /// The single-cycle multiplier.
    Multiplier,
    /// The three barrel shifters (left, logical right, arithmetic right).
    Shifter,
    /// The bitwise logic unit.
    Logic,
    /// The set-flag comparator.
    Comparator,
    /// The AND–OR result multiplexer and flag-word packing.
    ResultMux,
}

impl AluUnit {
    /// All functional units in build order.
    pub const ALL: [AluUnit; 7] = [
        AluUnit::OpDecode,
        AluUnit::AddSub,
        AluUnit::Multiplier,
        AluUnit::Shifter,
        AluUnit::Logic,
        AluUnit::Comparator,
        AluUnit::ResultMux,
    ];
}

impl fmt::Display for AluUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluUnit::OpDecode => "op-decode",
            AluUnit::AddSub => "add-sub",
            AluUnit::Multiplier => "multiplier",
            AluUnit::Shifter => "shifter",
            AluUnit::Logic => "logic",
            AluUnit::Comparator => "comparator",
            AluUnit::ResultMux => "result-mux",
        };
        f.write_str(s)
    }
}

/// The gate-level execution-stage ALU datapath.
///
/// # Example
///
/// ```
/// use sfi_netlist::alu::{AluDatapath, AluOp};
///
/// let alu = AluDatapath::build(16);
/// let inputs = alu.encode_inputs(AluOp::Mul, 300, 7);
/// assert_eq!(alu.evaluate_result(&inputs), (300 * 7) & 0xFFFF);
/// assert_eq!(alu.endpoint_count(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct AluDatapath {
    netlist: Netlist,
    width: usize,
    unit_ranges: Vec<(AluUnit, std::ops::Range<usize>)>,
}

impl AluDatapath {
    /// Builds the datapath for `width`-bit operands (the paper's case study
    /// uses 32).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two in `4..=64`.
    pub fn build(width: usize) -> Self {
        assert!(
            width.is_power_of_two() && (4..=64).contains(&width),
            "ALU width must be a power of two between 4 and 64, got {width}"
        );
        let mut n = Netlist::new();
        let mut unit_ranges: Vec<(AluUnit, std::ops::Range<usize>)> = Vec::new();
        let mut unit_start = 0usize;
        let close_unit = |n: &Netlist,
                          ranges: &mut Vec<(AluUnit, std::ops::Range<usize>)>,
                          start: &mut usize,
                          unit: AluUnit| {
            ranges.push((unit, *start..n.len()));
            *start = n.len();
        };

        let a: Vec<NodeId> = (0..width).map(|i| n.add_input(format!("a[{i}]"))).collect();
        let b: Vec<NodeId> = (0..width).map(|i| n.add_input(format!("b[{i}]"))).collect();
        let op: Vec<NodeId> = (0..OP_SELECT_BITS)
            .map(|i| n.add_input(format!("op[{i}]")))
            .collect();
        let op_n: Vec<NodeId> = op.iter().map(|&o| n.not(o)).collect();

        // One-hot decode of the operation select code.
        let mut onehot = Vec::with_capacity(AluOp::ALL.len());
        for alu_op in AluOp::ALL {
            let code = alu_op.code();
            let bits: Vec<NodeId> = (0..OP_SELECT_BITS)
                .map(|i| if code >> i & 1 == 1 { op[i] } else { op_n[i] })
                .collect();
            onehot.push(and_reduce(&mut n, &bits));
        }
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::OpDecode);

        // Functional units.
        let sub_sel = {
            // Subtraction is also used by the comparator; for the Add/Sub
            // unit the select is simply "operation is Sub".
            onehot[AluOp::Sub.code() as usize]
        };
        let addsub = add_sub(&mut n, &a, &b, sub_sel);
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::AddSub);
        let mul = wallace_multiplier(&mut n, &a, &b);
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::Multiplier);
        let sll = barrel_shifter(&mut n, &a, &b, ShiftKind::LogicalLeft);
        let srl = barrel_shifter(&mut n, &a, &b, ShiftKind::LogicalRight);
        let sra = barrel_shifter(&mut n, &a, &b, ShiftKind::ArithmeticRight);
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::Shifter);
        let and_w = and_word(&mut n, &a, &b);
        let or_w = or_word(&mut n, &a, &b);
        let xor_w = xor_word(&mut n, &a, &b);
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::Logic);
        let cmp = comparator(&mut n, &a, &b);
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::Comparator);

        // Word-wide sources per operation (set-flag results live in bit 0).
        let zero = n.constant(false);
        let flag_word = |flag: NodeId| -> Vec<NodeId> {
            let mut word = vec![zero; width];
            word[0] = flag;
            word
        };
        let sources: Vec<Vec<NodeId>> = vec![
            addsub.sum.clone(), // Add
            addsub.sum.clone(), // Sub (same unit, sub select)
            and_w,              // And
            or_w,               // Or
            xor_w,              // Xor
            sll,                // Sll
            srl,                // Srl
            sra,                // Sra
            mul,                // Mul
            flag_word(cmp.eq),  // SfEq
            flag_word(cmp.ne),  // SfNe
            flag_word(cmp.ltu), // SfLtu
            flag_word(cmp.geu), // SfGeu
            flag_word(cmp.lts), // SfLts
            flag_word(cmp.ges), // SfGes
        ];

        // AND-OR result multiplexer: result[i] = OR over ops of (onehot & source[i]).
        for bit in 0..width {
            let mut terms = Vec::with_capacity(sources.len());
            for (op_idx, source) in sources.iter().enumerate() {
                terms.push(n.and2(onehot[op_idx], source[bit]));
            }
            let result = crate::builder::or_reduce(&mut n, &terms);
            n.mark_output(result, format!("result[{bit}]"));
        }
        close_unit(&n, &mut unit_ranges, &mut unit_start, AluUnit::ResultMux);

        AluDatapath {
            netlist: n,
            width,
            unit_ranges,
        }
    }

    /// The functional unit each contiguous range of gates belongs to, in
    /// build order.  Every gate index of the netlist is covered exactly once.
    pub fn unit_ranges(&self) -> &[(AluUnit, std::ops::Range<usize>)] {
        &self.unit_ranges
    }

    /// The functional unit the gate at `index` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the netlist.
    pub fn unit_of(&self, index: usize) -> AluUnit {
        assert!(
            index < self.netlist.len(),
            "gate index {index} out of range"
        );
        self.unit_ranges
            .iter()
            .find(|(_, r)| r.contains(&index))
            .map(|(u, _)| *u)
            .expect("unit ranges cover the whole netlist")
    }

    /// The underlying gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of fault-injection endpoints (= result register bits).
    pub fn endpoint_count(&self) -> usize {
        self.width
    }

    /// Encodes a primary-input assignment for the given operation and
    /// operand values (operands are truncated to the datapath width).
    pub fn encode_inputs(&self, op: AluOp, a: u64, b: u64) -> Vec<bool> {
        let mut words = vec![0u64; self.netlist.input_count()];
        self.encode_input_words(op, &[(a, b)], &mut words);
        words.iter().map(|w| w & 1 == 1).collect()
    }

    /// Bit-sliced [`AluDatapath::encode_inputs`] for up to 64 operand pairs
    /// at once: bit `l` of `words[i]` is primary input `i` of the vector
    /// `(op, operands[l])`.  The operation select bits are set in every
    /// lane, including lanes beyond `operands.len()`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 operand pairs are given or `words` does not
    /// hold one word per primary input.
    pub fn encode_input_words(&self, op: AluOp, operands: &[(u64, u64)], words: &mut [u64]) {
        assert!(operands.len() <= 64, "at most 64 lanes per word");
        assert_eq!(
            words.len(),
            self.netlist.input_count(),
            "need one word per primary input"
        );
        let (a_words, rest) = words.split_at_mut(self.width);
        let (b_words, op_words) = rest.split_at_mut(self.width);
        for (i, (wa, wb)) in a_words.iter_mut().zip(b_words).enumerate() {
            let (mut x, mut y) = (0u64, 0u64);
            for (l, &(a, b)) in operands.iter().enumerate() {
                x |= ((a >> i) & 1) << l;
                y |= ((b >> i) & 1) << l;
            }
            *wa = x;
            *wb = y;
        }
        for (i, w) in op_words.iter_mut().enumerate() {
            *w = 0u64.wrapping_sub((op.code() as u64 >> i) & 1);
        }
    }

    /// Evaluates the datapath and returns the numeric result value.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the netlist's input count.
    pub fn evaluate_result(&self, inputs: &[bool]) -> u64 {
        from_bits(&self.netlist.evaluate(inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::to_bits;

    #[test]
    fn op_codes_roundtrip() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::from_code(op.code()), Some(op));
        }
        assert_eq!(AluOp::from_code(15), None);
        assert_eq!(AluOp::from_code(200), None);
    }

    #[test]
    fn codes_are_indices_into_all() {
        for (i, op) in AluOp::ALL.into_iter().enumerate() {
            assert_eq!(op.code() as usize, i, "{op:?}");
        }
    }

    #[test]
    fn set_flag_classification() {
        assert!(AluOp::SfEq.is_set_flag());
        assert!(AluOp::SfGes.is_set_flag());
        assert!(!AluOp::Add.is_set_flag());
        assert!(!AluOp::Mul.is_set_flag());
    }

    #[test]
    fn display_uses_openrisc_mnemonics() {
        assert_eq!(AluOp::Add.to_string(), "l.add");
        assert_eq!(AluOp::SfLtu.to_string(), "l.sfltu");
    }

    #[test]
    fn reference_semantics() {
        assert_eq!(AluOp::Add.reference(0xFFFF_FFFF, 1, 32), 0);
        assert_eq!(AluOp::Sub.reference(0, 1, 32), 0xFFFF_FFFF);
        assert_eq!(AluOp::Mul.reference(0x1_0000, 0x1_0000, 32), 0);
        assert_eq!(AluOp::Sra.reference(0x8000_0000, 31, 32), 0xFFFF_FFFF);
        assert_eq!(AluOp::SfLts.reference(0xFFFF_FFFF, 0, 32), 1); // -1 < 0
        assert_eq!(AluOp::SfLtu.reference(0xFFFF_FFFF, 0, 32), 0);
        assert_eq!(AluOp::Sll.reference(1, 4, 16), 16);
    }

    #[test]
    fn alu_16bit_matches_reference() {
        let alu = AluDatapath::build(16);
        let cases: [(u64, u64); 6] = [
            (0, 0),
            (0xFFFF, 1),
            (1234, 4321),
            (0x8000, 0x7FFF),
            (42, 42),
            (0xAAAA, 0x5555),
        ];
        for op in AluOp::ALL {
            for (a, b) in cases {
                let inputs = alu.encode_inputs(op, a, b);
                let got = alu.evaluate_result(&inputs);
                let expect = op.reference(a, b, 16);
                assert_eq!(got, expect, "{op} a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn input_words_are_bit_sliced_little_endian_vectors() {
        let alu = AluDatapath::build(8);
        let operands: Vec<(u64, u64)> =
            (0..64u64).map(|l| (l * 37 + 5, 0x1FF ^ (l * 11))).collect();
        for lanes in [1, 7, 64] {
            let mut words = vec![0u64; alu.netlist().input_count()];
            alu.encode_input_words(AluOp::SfLts, &operands[..lanes], &mut words);
            for (l, &(a, b)) in operands[..lanes].iter().enumerate() {
                let mut expect = to_bits(a, 8);
                expect.extend(to_bits(b, 8));
                expect.extend(to_bits(AluOp::SfLts.code() as u64, OP_SELECT_BITS));
                let got: Vec<bool> = words.iter().map(|w| (w >> l) & 1 == 1).collect();
                assert_eq!(got, expect, "lane {l} of {lanes}");
            }
        }
    }

    #[test]
    fn alu_8bit_exhaustive_add_mul() {
        let alu = AluDatapath::build(8);
        for a in (0..256u64).step_by(17) {
            for b in (0..256u64).step_by(13) {
                for op in [AluOp::Add, AluOp::Mul, AluOp::Sub] {
                    let inputs = alu.encode_inputs(op, a, b);
                    assert_eq!(alu.evaluate_result(&inputs), op.reference(a, b, 8));
                }
            }
        }
    }

    #[test]
    fn unit_ranges_cover_netlist() {
        let alu = AluDatapath::build(8);
        let ranges = alu.unit_ranges();
        assert_eq!(ranges.first().unwrap().1.start, 0);
        assert_eq!(ranges.last().unwrap().1.end, alu.netlist().len());
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1.end, pair[1].1.start, "ranges must be contiguous");
        }
        // Every unit appears exactly once and in build order.
        let units: Vec<AluUnit> = ranges.iter().map(|(u, _)| *u).collect();
        assert_eq!(units, AluUnit::ALL.to_vec());
        // Spot-check membership queries.
        assert_eq!(alu.unit_of(0), AluUnit::OpDecode);
        assert_eq!(alu.unit_of(alu.netlist().len() - 1), AluUnit::ResultMux);
    }

    #[test]
    fn unit_display_names() {
        assert_eq!(AluUnit::Multiplier.to_string(), "multiplier");
        assert_eq!(AluUnit::ResultMux.to_string(), "result-mux");
    }

    #[test]
    fn endpoint_count_matches_width() {
        let alu = AluDatapath::build(8);
        assert_eq!(alu.endpoint_count(), 8);
        assert_eq!(alu.netlist().output_count(), 8);
        assert_eq!(alu.width(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_width_panics() {
        AluDatapath::build(12);
    }
}
