//! Table 1: overview of benchmark properties (type, compute/control
//! weight, size, kernel cycles, output error metric).
//!
//! The kernel-cycle column comes from a fault-free [`CampaignSpec`] over
//! the whole suite (one cell per benchmark); the instruction-mix columns
//! come from one direct ISS run per benchmark.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_campaign::{CampaignSpec, CellSpec, TrialBudget};
use sfi_core::experiment::FaultModel;
use sfi_cpu::{Core, RunConfig};
use sfi_fault::OperatingPoint;
use sfi_kernels::{extended_suite, paper_suite};

fn main() {
    let args = ExperimentArgs::from_env();
    print_header("Table 1: benchmark properties", &args);
    let study = args.build_study();

    let suite = if args.extended {
        extended_suite(1)
    } else {
        paper_suite(1)
    };
    let mut spec = CampaignSpec::new("table1", 1);
    // Fault-free golden runs: the operating point is irrelevant, one trial
    // per benchmark suffices (the golden run is deterministic).
    let point = OperatingPoint::new(study.sta_limit_mhz(0.7), 0.7);
    for bench in suite {
        let b = spec.add_shared_benchmark(bench.into());
        spec.add_cell(CellSpec {
            benchmark: b,
            model: FaultModel::None,
            point,
            budget: TrialBudget::fixed(1),
        });
    }
    let result = args.run(&study, &spec);

    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>10}  output error metric",
        "benchmark", "compute", "control", "kernel cyc", "mul/kcyc"
    );
    for (index, bench) in spec.benchmarks().iter().enumerate() {
        let cycles = result.cells[index]
            .stats
            .mean_cycles()
            .expect("one golden trial") as u64;
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let _ = core.run(&RunConfig::default());
        let stats = core.stats();
        println!(
            "{:<16} {:>9.1}% {:>9.1}% {:>12} {:>10.1}  {}",
            bench.name(),
            100.0 * stats.compute_fraction(),
            100.0 * stats.control_fraction(),
            cycles,
            stats.multiplications as f64 * 1000.0 / stats.cycles as f64,
            bench.error_metric()
        );
    }
}
