//! `perfbench --workload sweep|poff|serve --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the `metrics` (the
//! end-to-end ones, or with `--trace 1` the per-layer ones).  Diagnostics
//! go to standard error.  Exits 1 when an output check fails and 2 on a
//! usage error.

use sfi_perfbench::{host_fingerprint, parse_args, result_line, run, Config};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep|poff|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!("perfbench: host {}", host_fingerprint());
    // Working files (daemon journals, traces) stay inside the checkout.
    let dir = std::path::Path::new("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let report = run(&args, &Config::full(), &dir);
    for problem in &report.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }
    match result_line(&report, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
