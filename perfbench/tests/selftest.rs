//! Self-tests of the benchmark: its declared metrics, its output checks,
//! and a tiny configuration of every workload.

use sfi_campaign::{adaptive_poff, CampaignEngine, PoffSearch};
use sfi_core::json::Json;
use sfi_core::study::{CaseStudy, CaseStudyConfig};
use sfi_core::FaultModel;
use sfi_fault::OperatingPoint;
use sfi_perfbench::{
    parse_args, poff, result_line, run, sweep, Args, Config, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("key is an array")
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect("field is a string")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = names(&doc, key, "name")
            .into_iter()
            .zip(names(&doc, key, "unit"))
            .collect();
        let ours: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
    }
    assert_eq!(names(&doc, "workloads", "name"), WORKLOADS);
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|a| {
            a.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is declared");
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    for name in &all {
        assert!(valid_name(name), "{name} is not a valid metric name");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "metric names repeat");
}

#[test]
fn arguments_parse_and_reject_unknowns() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert_eq!(
        parse_args(&argv("--workload poff --seed 7 --seconds 3 --trace 1")),
        Ok(Args {
            workload: "poff".into(),
            seed: 7,
            seconds: 3.0,
            trace: true
        })
    );
    assert!(parse_args(&argv("--workload nope")).is_err());
    assert!(parse_args(&argv("--seed 1")).is_err());
    assert!(parse_args(&argv("--workload sweep --trace 2")).is_err());
    assert!(parse_args(&argv("--workload sweep --seconds")).is_err());
}

#[test]
fn a_perturbed_sweep_result_fails_the_checks() {
    let config = Config::tiny();
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let spec = sweep::spec(&config, &study, 3, 2);
    let result = CampaignEngine::new().with_threads(2).run(&study, &spec);
    assert_eq!(sweep::differs(&result, &result, usize::MAX, "self"), None);
    assert_eq!(sweep::complete(&spec, &result), None);

    let mut perturbed = result.clone();
    perturbed.cells[1].trials[0].cycles += 1;
    assert!(sweep::differs(&result, &perturbed, usize::MAX, "perturbed").is_some());
    assert_ne!(sweep::digest(&result), sweep::digest(&perturbed));

    let mut short = result.clone();
    short.cells[0].trials.pop();
    assert!(sweep::complete(&spec, &short).is_some());
}

#[test]
fn a_perturbed_poff_outcome_fails_the_checks() {
    let study = CaseStudy::build(CaseStudyConfig::fast_for_tests());
    let sta = study.sta_limit_mhz(0.7);
    let params = PoffSearch::new(0.9 * sta, 1.3 * sta, 20.0, 2);
    let search = &poff::searches(5)[1];
    let outcome = adaptive_poff(
        &CampaignEngine::new().with_threads(2),
        &study,
        Arc::clone(&search.benchmark),
        FaultModel::StatisticalDta,
        OperatingPoint::new(sta, 0.7).with_noise_sigma_mv(10.0),
        params,
        search.seed,
    );
    assert_eq!(poff::inconsistent(&params, &outcome), None);
    assert_eq!(
        poff::evaluation_order(&params, &outcome).len(),
        outcome.cells_evaluated
    );

    let mut moved = outcome.clone();
    moved.poff_mhz = Some(moved.poff_mhz.map_or(params.lo_mhz, |p| p + 1.0));
    assert!(poff::inconsistent(&params, &moved).is_some());
    assert_ne!(
        poff::digest(std::slice::from_ref(&outcome)),
        poff::digest(&[moved])
    );
}

fn tiny_run(workload: &str, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("test working directory");
    let args = Args {
        workload: workload.into(),
        seed: 1,
        seconds: 0.0,
        trace,
    };
    let report = run(&args, &Config::tiny(), &dir);
    assert_eq!(
        report.failed, 0,
        "{workload} (trace {trace}) failed: {:?}",
        report.problems
    );
    assert!(report.attempted > 0);
    let line = result_line(&report, trace).expect("every declared metric was measured");
    let doc = Json::parse(&line).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
}

#[test]
fn tiny_sweep_runs() {
    tiny_run("sweep", false);
    tiny_run("sweep", true);
}

#[test]
fn tiny_poff_runs() {
    tiny_run("poff", false);
    tiny_run("poff", true);
}

#[test]
fn tiny_serve_runs() {
    tiny_run("serve", false);
    tiny_run("serve", true);
}
