//! Criterion benches of the simulation substrates: gate-level DTA
//! throughput (one vector, and the paper study's whole batched
//! characterization), STA, ISS execution speed, the model-C injector
//! (construction and per-cycle injection over the flattened fault table)
//! and the model-B+ injector's per-cycle injection.

use criterion::{criterion_group, criterion_main, Criterion};
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_cpu::{Core, ExStageContext, FaultInjector, RunConfig};
use sfi_fault::OperatingPoint;
use sfi_isa::AluClass;
use sfi_kernels::{crc32::Crc32Benchmark, median::MedianBenchmark, Benchmark};
use sfi_netlist::alu::{AluDatapath, AluOp};
use sfi_netlist::{DelayModel, VoltageScaling};
use sfi_timing::{
    characterization_workers, characterize_alu_batch, CharacterizationConfig,
    DynamicTimingAnalysis, OperandDistribution, StaticTimingAnalysis,
};

fn bench_dta(c: &mut Criterion) {
    let alu = AluDatapath::build(32);
    let dta = DynamicTimingAnalysis::new(
        alu.netlist(),
        &DelayModel::default_28nm(),
        &VoltageScaling::default_28nm(),
        0.7,
    );
    let inputs = alu.encode_inputs(AluOp::Mul, 0xDEAD_BEEF, 0x1234_5678);
    c.bench_function("dta_analyze_32bit_alu_vector", |b| {
        b.iter(|| dta.analyze(&inputs))
    });

    // The characterization layer of a cold paper study build: every
    // configured voltage in one batched pass, on the study's worker count.
    let study = CaseStudy::build(CaseStudyConfig::paper());
    let config = study.config();
    let configs: Vec<CharacterizationConfig> = config
        .voltages
        .iter()
        .map(|&vdd| CharacterizationConfig {
            cycles_per_op: config.cycles_per_op,
            vdd,
            seed: config.seed,
            operands: OperandDistribution::UniformFull,
        })
        .collect();
    c.bench_function("characterize_paper_all_voltages", |b| {
        b.iter(|| {
            characterize_alu_batch(
                study.alu(),
                study.delay_model(),
                study.voltage_scaling(),
                &configs,
                Some(study.node_multipliers()),
                characterization_workers(),
            )
        })
    });
}

fn bench_sta(c: &mut Criterion) {
    let alu = AluDatapath::build(32);
    c.bench_function("sta_full_32bit_alu", |b| {
        b.iter(|| {
            StaticTimingAnalysis::run(
                alu.netlist(),
                &DelayModel::default_28nm(),
                &VoltageScaling::default_28nm(),
                0.7,
            )
        })
    });
}

fn bench_iss(c: &mut Criterion) {
    // Building and initialising the core is untimed setup: the benches
    // measure the interpreter alone.
    let bench = MedianBenchmark::new(21, 1);
    c.bench_function("iss_median_21_fault_free", |b| {
        b.iter_batched(
            || {
                let mut core = Core::new(bench.program().clone(), bench.dmem_words());
                bench.initialize(core.memory_mut());
                core
            },
            |mut core| core.run(&RunConfig::default()),
        )
    });
    let bench = Crc32Benchmark::new(128, 1);
    c.bench_function("iss_crc32_128_fault_free", |b| {
        b.iter_batched(
            || {
                let mut core = Core::new(bench.program().clone(), bench.dmem_words());
                bench.initialize(core.memory_mut());
                core
            },
            |mut core| core.run(&RunConfig::default()),
        )
    });
}

fn bench_model_c_injector(c: &mut Criterion) {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);

    // Per-trial construction: with the Arc-shared fault table this is the
    // cost the campaign engine pays per Monte-Carlo trial (reference-count
    // bumps, no CDF copies).
    c.bench_function("model_c_construct_per_trial", |b| {
        let point = OperatingPoint::new(sta * 1.1, 0.7).with_noise_sigma_mv(10.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            study.model_c(point, seed)
        })
    });

    let ctx = |cycle: u64| ExStageContext {
        cycle,
        alu_class: AluClass::Mul,
        operand_a: 0x1234,
        operand_b: 0x5678,
        result: 0x1234 * 0x5678,
        fi_enabled: true,
    };
    // Per-cycle injection below the STA limit: the max-delay fast path
    // (the dominant case of every sweep's correct region).
    c.bench_function("model_c_inject_below_limit", |b| {
        let point = OperatingPoint::new(sta * 0.9, 0.7).with_noise_sigma_mv(10.0);
        let mut m = study.model_c(point, 7);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.inject(&ctx(i))
        })
    });
    // Per-cycle injection inside the transition region: the full
    // per-endpoint table walk with Bernoulli draws.
    c.bench_function("model_c_inject_transition", |b| {
        let point = OperatingPoint::new(sta * 1.15, 0.7).with_noise_sigma_mv(10.0);
        let mut m = study.model_c(point, 7);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.inject(&ctx(i))
        })
    });
    // An addition above the STA limit but short of its own failure
    // point: its noise gate skips the sample on all but the deepest
    // droops.
    c.bench_function("model_c_inject_gated", |b| {
        let point = OperatingPoint::new(sta * 1.10, 0.7).with_noise_sigma_mv(10.0);
        let mut m = study.model_c(point, 7);
        let add = ExStageContext {
            alu_class: AluClass::Add,
            ..ctx(0)
        };
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.inject(&ExStageContext { cycle: i, ..add })
        })
    });
}

fn bench_model_bplus_injector(c: &mut Criterion) {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    let ctx = |cycle: u64| ExStageContext {
        cycle,
        alu_class: AluClass::Add,
        operand_a: 0x1234,
        operand_b: 0x5678,
        result: 0x1234 + 0x5678,
        fi_enabled: true,
    };
    // Below the STA limit by more than the worst droop: the gate skips
    // every sample.
    c.bench_function("model_bplus_inject_below_limit", |b| {
        let point = OperatingPoint::new(sta * 0.9, 0.7).with_noise_sigma_mv(10.0);
        let mut m = study.model_b_plus(point, 7);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.inject(&ctx(i))
        })
    });
    // Just below the STA limit: droops beyond the gate's radius take the
    // full path.
    c.bench_function("model_bplus_inject_transition", |b| {
        let point = OperatingPoint::new(sta * 0.98, 0.7).with_noise_sigma_mv(10.0);
        let mut m = study.model_b_plus(point, 7);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.inject(&ctx(i))
        })
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = bench_dta, bench_sta, bench_iss, bench_model_c_injector, bench_model_bplus_injector
}
criterion_main!(substrates);
