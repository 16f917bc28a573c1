//! Static and dynamic timing analysis, timing-error statistics, and supply
//! voltage models.
//!
//! This crate implements the characterization half of the DAC 2016 paper
//! *"Statistical Fault Injection for Impact-Evaluation of Timing Errors on
//! Application Performance"*:
//!
//! * [`sta::StaticTimingAnalysis`] computes worst-case (topological) path
//!   delays to every endpoint of a gate-level netlist — the data used by the
//!   pessimistic fault-injection **model B**.
//! * [`dta::DynamicTimingAnalysis`] computes *value-dependent* (sensitised)
//!   arrival times for concrete input vectors, the "dynamic timing slack"
//!   of the paper.  Its one kernel, [`dta::DtaBatch`], propagates eight
//!   bit-sliced vectors at several supply voltages per pass.
//! * [`characterize::characterize_alu_batch`] runs the DTA over a
//!   randomized characterization kernel, independently for every ALU
//!   instruction and at every requested voltage in one pass, and
//!   condenses the per-endpoint arrival-time samples into timing-error
//!   **CDFs** ([`cdf::ErrorCdf`] inside a
//!   [`characterize::TimingCharacterization`]) — the data that drives the
//!   statistical fault-injection **model C**.
//! * [`vdd::VddDelayCurve`] is the fitted delay-vs-supply-voltage curve used
//!   to translate (noisy) supply voltages into delay scaling factors, and
//!   [`noise::VoltageNoise`] is the clipped Gaussian supply-noise model.
//! * [`calibrate::calibrate_delay_model`] rescales the synthetic delay model
//!   so the ALU's static timing limit matches a target frequency (707 MHz at
//!   0.7 V in the paper's case study).
//!
//! # Example
//!
//! ```
//! use sfi_netlist::alu::{AluDatapath, AluOp};
//! use sfi_netlist::{DelayModel, VoltageScaling};
//! use sfi_timing::characterize::{characterize_alu, CharacterizationConfig};
//!
//! let alu = AluDatapath::build(8);
//! let config = CharacterizationConfig {
//!     cycles_per_op: 64,
//!     ..CharacterizationConfig::default()
//! };
//! let ch = characterize_alu(&alu, &DelayModel::default_28nm(), &VoltageScaling::default_28nm(), &config);
//!
//! // At a very long clock period nothing fails ...
//! assert_eq!(ch.error_probability(AluOp::Mul, 7, 1e6, 1.0), 0.0);
//! // ... at a very short one every multiplication-carrying cycle fails.
//! assert!(ch.error_probability(AluOp::Mul, 7, 1.0, 1.0) > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod calibrate;
pub mod cdf;
pub mod characterize;
pub mod dta;
pub mod noise;
pub mod sta;
pub mod units;
pub mod vdd;

pub use budget::{synthesis_node_multipliers, UnitBudgets};
pub use calibrate::{calibrate_delay_model, calibrate_delay_model_with_multipliers};
pub use cdf::ErrorCdf;
pub use characterize::{
    characterization_workers, characterize_alu, characterize_alu_batch,
    characterize_alu_with_multipliers, CharacterizationConfig, OperandDistribution,
    TimingCharacterization,
};
pub use dta::{DtaBatch, DynamicTimingAnalysis};
pub use noise::VoltageNoise;
pub use sta::StaticTimingAnalysis;
pub use units::{freq_mhz_to_period_ps, period_ps_to_freq_mhz};
pub use vdd::VddDelayCurve;
