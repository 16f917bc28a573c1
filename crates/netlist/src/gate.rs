//! Primitive gate types.
//!
//! The netlist is restricted to one- and two-input primitive cells.  Larger
//! structures (multiplexers, full adders, …) are decomposed into these
//! primitives by the [`crate::builder`] helpers so that value-dependent
//! timing analysis only ever has to reason about controlling values of
//! simple gates.

use std::fmt;

/// The logic function computed by a [`Gate`].
///
/// `Input` and `Const` gates have no fanins; `Buf` and `Not` have one; all
/// remaining kinds have exactly two.
///
/// # Example
///
/// ```
/// use sfi_netlist::gate::GateKind;
///
/// assert_eq!(GateKind::And2.eval(true, false), false);
/// assert_eq!(GateKind::Xor2.eval(true, false), true);
/// assert_eq!(GateKind::And2.fanin_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input of the netlist (value provided externally).
    Input,
    /// Constant logic value.
    Const(bool),
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Not,
    /// Two-input AND.
    And2,
    /// Two-input NAND.
    Nand2,
    /// Two-input OR.
    Or2,
    /// Two-input NOR.
    Nor2,
    /// Two-input XOR.
    Xor2,
    /// Two-input XNOR.
    Xnor2,
}

impl GateKind {
    /// Number of fanin nets this gate kind consumes (0, 1 or 2).
    pub fn fanin_count(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Buf | GateKind::Not => 1,
            _ => 2,
        }
    }

    /// Evaluates the gate function for the given input values.
    ///
    /// For gates with fewer than two fanins the extra argument is ignored.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateKind::Input => a,
            GateKind::Const(v) => v,
            GateKind::Buf => a,
            GateKind::Not => !a,
            GateKind::And2 => a & b,
            GateKind::Nand2 => !(a & b),
            GateKind::Or2 => a | b,
            GateKind::Nor2 => !(a | b),
            GateKind::Xor2 => a ^ b,
            GateKind::Xnor2 => !(a ^ b),
        }
    }

    /// Bit-sliced [`GateKind::eval`]: bit `l` of the result is the gate
    /// function of bit `l` of `a` and `b`, so one call evaluates up to 64
    /// independent input vectors.  Sources return `a` (inputs) or their
    /// constant in every bit.
    ///
    /// ```
    /// use sfi_netlist::gate::GateKind;
    ///
    /// assert_eq!(GateKind::Nand2.eval_word(0b1100, 0b1010) & 0b1111, 0b0111);
    /// ```
    pub fn eval_word(self, a: u64, b: u64) -> u64 {
        match self {
            GateKind::Input | GateKind::Buf => a,
            GateKind::Const(v) => 0u64.wrapping_sub(v as u64),
            GateKind::Not => !a,
            GateKind::And2 => a & b,
            GateKind::Nand2 => !(a & b),
            GateKind::Or2 => a | b,
            GateKind::Nor2 => !(a | b),
            GateKind::Xor2 => a ^ b,
            GateKind::Xnor2 => !(a ^ b),
        }
    }

    /// Returns the *controlling value* of the gate, i.e. the input value
    /// that determines the output regardless of the other input, if one
    /// exists.
    ///
    /// This is the property exploited by dynamic timing analysis: if a
    /// controlling value arrives early the output settles early, shortening
    /// the sensitised path.
    ///
    /// ```
    /// use sfi_netlist::gate::GateKind;
    ///
    /// assert_eq!(GateKind::And2.controlling_value(), Some(false));
    /// assert_eq!(GateKind::Or2.controlling_value(), Some(true));
    /// assert_eq!(GateKind::Xor2.controlling_value(), None);
    /// ```
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And2 | GateKind::Nand2 => Some(false),
            GateKind::Or2 | GateKind::Nor2 => Some(true),
            _ => None,
        }
    }

    /// Whether this kind represents a primary input or constant (no fanin).
    pub fn is_source(self) -> bool {
        self.fanin_count() == 0
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "input",
            GateKind::Const(false) => "const0",
            GateKind::Const(true) => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And2 => "and2",
            GateKind::Nand2 => "nand2",
            GateKind::Or2 => "or2",
            GateKind::Nor2 => "nor2",
            GateKind::Xor2 => "xor2",
            GateKind::Xnor2 => "xnor2",
        };
        f.write_str(s)
    }
}

/// A single instantiated gate inside a [`crate::Netlist`].
///
/// Fanins are stored as indices of previously inserted gates, which keeps
/// the netlist in topological order by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The logic function of the gate.
    pub kind: GateKind,
    /// First fanin (unused for sources).
    pub a: u32,
    /// Second fanin (unused for sources and single-input gates).
    pub b: u32,
}

impl Gate {
    /// Sentinel fanin index used for unconnected fanin slots.
    pub const NO_FANIN: u32 = u32::MAX;

    /// Creates a source gate (input or constant).
    pub fn source(kind: GateKind) -> Self {
        debug_assert!(kind.is_source());
        Gate {
            kind,
            a: Self::NO_FANIN,
            b: Self::NO_FANIN,
        }
    }

    /// Creates a single-input gate.
    pub fn unary(kind: GateKind, a: u32) -> Self {
        debug_assert_eq!(kind.fanin_count(), 1);
        Gate {
            kind,
            a,
            b: Self::NO_FANIN,
        }
    }

    /// Creates a two-input gate.
    pub fn binary(kind: GateKind, a: u32, b: u32) -> Self {
        debug_assert_eq!(kind.fanin_count(), 2);
        Gate { kind, a, b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_truth_tables() {
        let cases = [
            (GateKind::And2, [false, false, false, true]),
            (GateKind::Nand2, [true, true, true, false]),
            (GateKind::Or2, [false, true, true, true]),
            (GateKind::Nor2, [true, false, false, false]),
            (GateKind::Xor2, [false, true, true, false]),
            (GateKind::Xnor2, [true, false, false, true]),
        ];
        for (kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval(a, b), e, "{kind} a={a} b={b}");
            }
        }
    }

    #[test]
    fn eval_word_is_bitwise_eval() {
        let kinds = [
            GateKind::Input,
            GateKind::Const(false),
            GateKind::Const(true),
            GateKind::Buf,
            GateKind::Not,
            GateKind::And2,
            GateKind::Nand2,
            GateKind::Or2,
            GateKind::Nor2,
            GateKind::Xor2,
            GateKind::Xnor2,
        ];
        // Lanes 0..4 enumerate every (a, b) pair.
        let (a, b) = (0b1010u64, 0b1100u64);
        for kind in kinds {
            let word = kind.eval_word(a, b);
            for l in 0..4 {
                let bit = |w: u64| (w >> l) & 1 == 1;
                assert_eq!(bit(word), kind.eval(bit(a), bit(b)), "{kind} lane {l}");
            }
        }
    }

    #[test]
    fn unary_and_source_eval() {
        assert!(!GateKind::Not.eval(true, false));
        assert!(GateKind::Not.eval(false, true));
        assert!(GateKind::Buf.eval(true, false));
        assert!(GateKind::Const(true).eval(false, false));
        assert!(!GateKind::Const(false).eval(true, true));
        assert!(GateKind::Input.eval(true, false));
    }

    #[test]
    fn fanin_counts() {
        assert_eq!(GateKind::Input.fanin_count(), 0);
        assert_eq!(GateKind::Const(true).fanin_count(), 0);
        assert_eq!(GateKind::Not.fanin_count(), 1);
        assert_eq!(GateKind::Buf.fanin_count(), 1);
        assert_eq!(GateKind::Xnor2.fanin_count(), 2);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And2.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand2.controlling_value(), Some(false));
        assert_eq!(GateKind::Or2.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor2.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor2.controlling_value(), None);
        assert_eq!(GateKind::Xnor2.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(GateKind::And2.to_string(), "and2");
        assert_eq!(GateKind::Const(true).to_string(), "const1");
        assert_eq!(GateKind::Const(false).to_string(), "const0");
    }

    #[test]
    fn gate_constructors() {
        let s = Gate::source(GateKind::Input);
        assert_eq!(s.a, Gate::NO_FANIN);
        let u = Gate::unary(GateKind::Not, 3);
        assert_eq!(u.a, 3);
        assert_eq!(u.b, Gate::NO_FANIN);
        let b = Gate::binary(GateKind::Xor2, 1, 2);
        assert_eq!((b.a, b.b), (1, 2));
    }
}
