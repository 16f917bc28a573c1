//! Flattened, cache-friendly fault tables for the statistical DTA model.
//!
//! A [`TimingCharacterization`] stores one [`sfi_timing::ErrorCdf`] — a
//! separately allocated sorted `Vec<f64>` — per (instruction, endpoint)
//! pair.  The model C hot loop walks all endpoints of one instruction
//! every ALU cycle, so [`DtaFaultTable`] lays each instruction's
//! per-endpoint sorted delay samples out contiguously and precomputes the
//! instruction's worst observed delay.  That buys two things:
//!
//! * one flat slice walk per cycle instead of a pointer chase per
//!   endpoint, and
//! * an O(1) fast path: when the noise-scaled clock period meets or
//!   exceeds the instruction's worst delay, no endpoint can have a
//!   non-zero error probability and the whole per-endpoint loop is
//!   skipped; inside the loop, the same test per endpoint skips the
//!   binary search of every endpoint whose own worst delay meets it.
//!   This is bit-identical to walking the CDFs, because endpoints with
//!   probability zero draw no random numbers.
//!
//! The table is built once per characterization (typically at
//! [`CaseStudy`](../../sfi_core/study/struct.CaseStudy.html) construction)
//! and shared by every injector via `Arc`, so per-trial model
//! construction allocates nothing.

use sfi_netlist::alu::AluOp;
use sfi_timing::TimingCharacterization;
use std::sync::Arc;

/// The per-instruction flattened delay table of one characterization.
#[derive(Debug, Clone)]
pub struct DtaFaultTable {
    characterization: Arc<TimingCharacterization>,
    /// Endpoints covered by the mask computation (`min(width, 32)`, the
    /// result-register width of the ISS).
    endpoints: usize,
    /// One table per ALU instruction, indexed by `AluOp::code()`.
    ops: Vec<OpTable>,
}

/// Contiguous per-endpoint sorted delays of one instruction.
#[derive(Debug, Clone)]
struct OpTable {
    /// `delays[offsets[e] .. offsets[e + 1]]` are endpoint `e`'s sorted
    /// delay samples (ascending, exactly the CDF's backing data).
    offsets: Vec<u32>,
    delays: Vec<f64>,
    /// Each endpoint's worst delay sample (`-inf` when it has none), kept
    /// apart from `delays` so the per-endpoint skip test stays in cache.
    endpoint_max_ps: Vec<f64>,
    /// Worst observed delay over the covered endpoints, in picoseconds
    /// (`0.0` when every covered endpoint is empty — then nothing ever
    /// violates).
    max_delay_ps: f64,
}

impl DtaFaultTable {
    /// Flattens `characterization` into the per-instruction tables.
    pub fn new(characterization: Arc<TimingCharacterization>) -> Self {
        let endpoints = characterization.endpoint_count().min(32);
        let ops = AluOp::ALL
            .iter()
            .map(|&op| {
                let mut offsets = Vec::with_capacity(endpoints + 1);
                let mut delays = Vec::new();
                let mut endpoint_max_ps = Vec::with_capacity(endpoints);
                offsets.push(0);
                for endpoint in 0..endpoints {
                    let samples = characterization.cdf(op, endpoint).samples();
                    delays.extend_from_slice(samples);
                    offsets.push(delays.len() as u32);
                    endpoint_max_ps.push(samples.last().copied().unwrap_or(f64::NEG_INFINITY));
                }
                let max_delay_ps = endpoint_max_ps.iter().fold(0.0, |a: f64, &b| a.max(b));
                OpTable {
                    offsets,
                    delays,
                    endpoint_max_ps,
                    max_delay_ps,
                }
            })
            .collect();
        DtaFaultTable {
            characterization,
            endpoints,
            ops,
        }
    }

    /// The characterization the table was flattened from.
    pub fn characterization(&self) -> &Arc<TimingCharacterization> {
        &self.characterization
    }

    /// Endpoints covered by [`DtaFaultTable::violation_mask`]
    /// (`min(width, 32)`).
    pub fn endpoint_count(&self) -> usize {
        self.endpoints
    }

    /// Worst observed delay of instruction `op` over the covered
    /// endpoints, in picoseconds.
    pub fn max_delay_ps(&self, op: AluOp) -> f64 {
        self.ops[op.code() as usize].max_delay_ps
    }

    /// Timing-error probability of `endpoint` under instruction `op` at an
    /// effective (noise-scaled) clock period of `threshold_ps`: the
    /// fraction of delay samples strictly exceeding the threshold.
    ///
    /// Matches `TimingCharacterization::error_probability` bit for bit on
    /// the same data.
    pub fn error_probability(&self, op: AluOp, endpoint: usize, threshold_ps: f64) -> f64 {
        let table = &self.ops[op.code() as usize];
        // An endpoint whose own worst sample meets the threshold (or that
        // has no samples) has probability exactly zero: skip the search.
        if table.endpoint_max_ps[endpoint] <= threshold_ps {
            return 0.0;
        }
        let slice =
            &table.delays[table.offsets[endpoint] as usize..table.offsets[endpoint + 1] as usize];
        let idx = slice.partition_point(|&d| d <= threshold_ps);
        (slice.len() - idx) as f64 / slice.len() as f64
    }

    /// Draws the per-endpoint Bernoulli mask for instruction `op` at an
    /// effective clock period of `threshold_ps`, using `draw` for the
    /// random decisions.
    ///
    /// `draw` is invoked exactly for the endpoints with a non-zero error
    /// probability, in ascending endpoint order — the same random-number
    /// consumption pattern as querying the CDFs endpoint by endpoint, so
    /// fault sequences are bit-identical to the unflattened walk.
    pub fn violation_mask(
        &self,
        op: AluOp,
        threshold_ps: f64,
        mut draw: impl FnMut(f64) -> bool,
    ) -> u32 {
        let table = &self.ops[op.code() as usize];
        // Fast path: the worst sample of the whole instruction meets the
        // period, so every endpoint probability is zero and no random
        // numbers would be drawn anyway.
        if table.max_delay_ps <= threshold_ps {
            return 0;
        }
        let mut mask = 0u32;
        for endpoint in 0..self.endpoints {
            let p = self.error_probability(op, endpoint, threshold_ps);
            if p > 0.0 && draw(p) {
                mask |= 1 << endpoint;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_netlist::alu::AluDatapath;
    use sfi_netlist::{DelayModel, VoltageScaling};
    use sfi_timing::{characterize_alu, CharacterizationConfig};

    fn table() -> DtaFaultTable {
        let alu = AluDatapath::build(8);
        let ch = characterize_alu(
            &alu,
            &DelayModel::default_28nm(),
            &VoltageScaling::default_28nm(),
            &CharacterizationConfig {
                cycles_per_op: 48,
                ..Default::default()
            },
        );
        DtaFaultTable::new(Arc::new(ch))
    }

    #[test]
    fn probabilities_match_the_characterization() {
        let t = table();
        let ch = t.characterization().clone();
        assert_eq!(t.endpoint_count(), 8);
        for op in AluOp::ALL {
            for endpoint in 0..8 {
                for scale in [0.5, 0.8, 0.95, 1.0, 1.2] {
                    let threshold = ch.sta_critical_path_ps() * scale;
                    assert_eq!(
                        t.error_probability(op, endpoint, threshold),
                        ch.cdf(op, endpoint).error_probability(threshold),
                        "{op:?} endpoint {endpoint} scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_delay_matches_the_worst_cdf_sample() {
        let t = table();
        let ch = t.characterization().clone();
        for op in AluOp::ALL {
            let expected = (0..8)
                .filter_map(|e| ch.cdf(op, e).max_delay_ps())
                .fold(0.0, f64::max);
            assert_eq!(t.max_delay_ps(op), expected);
        }
    }

    #[test]
    fn fast_path_draws_nothing_at_long_periods() {
        let t = table();
        let long_period = t.max_delay_ps(AluOp::Mul);
        let mut draws = 0;
        let mask = t.violation_mask(AluOp::Mul, long_period, |_| {
            draws += 1;
            true
        });
        assert_eq!(mask, 0);
        assert_eq!(draws, 0, "equal-to-worst periods must not draw");
    }

    #[test]
    fn short_periods_violate_every_endpoint() {
        let t = table();
        let mask = t.violation_mask(AluOp::Mul, 0.0, |p| {
            assert!(p > 0.0 && p <= 1.0);
            true
        });
        assert_eq!(mask, 0xFF);
    }
}
