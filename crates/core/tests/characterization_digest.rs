//! Bit-identity gate for the characterization layer.
//!
//! Hashes the raw bits of every CDF sample the case study builds — per
//! supply voltage, over all instructions and endpoints — and compares the
//! digests with the values recorded from the per-vector DTA loop the
//! batched kernel replaced.  Any change to the gate-propagation kernel, the
//! operand draws or the sample ordering that moves a single delay by one
//! ulp fails here, long before it would surface as a shifted fault rate.

use sfi_core::cache::Fnv;
use sfi_core::{CaseStudy, CaseStudyConfig};
use sfi_netlist::alu::AluOp;

/// FNV-1a over `(op, endpoint, sample count, sample bits...)` of every CDF
/// of the characterization at `vdd`.
fn cdf_digest(study: &CaseStudy, vdd: f64) -> u64 {
    let ch = study.characterization(vdd);
    let mut h = Fnv::default();
    for op in AluOp::ALL {
        for e in 0..ch.endpoint_count() {
            let samples = ch.cdf(op, e).samples();
            h.u64(op.code() as u64);
            h.u64(e as u64);
            h.u64(samples.len() as u64);
            for &d in samples {
                h.u64(d.to_bits());
            }
        }
    }
    h.finish()
}

#[test]
fn paper_study_cdf_bits_are_pinned() {
    let study = CaseStudy::build(CaseStudyConfig::paper());
    let got = [cdf_digest(&study, 0.7), cdf_digest(&study, 0.8)];
    assert_eq!(
        got,
        [0x880b_cd09_1169_4de9, 0xeab0_7052_541e_cc78],
        "paper characterization bits moved: {:#018x} {:#018x}",
        got[0],
        got[1]
    );
}

#[test]
fn fast_study_cdf_bits_are_pinned() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let got = cdf_digest(&study, 0.7);
    assert_eq!(
        got, 0x593c_05a4_3bad_2427,
        "fast characterization bits moved: {got:#018x}"
    );
}
