//! The benchmark's own tests: seeded sequences repeat, wrong verdicts
//! fail the run, traced counters repeat exactly, the golden table
//! matches fresh cold proofs, and `BENCHMARK.json` lists the metrics
//! the benchmark prints.

use std::collections::BTreeMap;

use gila_designs::all_case_studies;
use gila_json::Value;
use gila_perfbench::edit::{edit_order, render};
use gila_perfbench::proof::ProofWorkload;
use gila_perfbench::{
    golden, run_sequence, traced_run, Config, Kind, Spans, END_TO_END, PER_LAYER,
};

#[test]
fn the_same_seed_gives_the_same_request_sequence() {
    let off = Spans::off();
    let prove = |seed| {
        let w = ProofWorkload::setup(&Config::new(Kind::Prove, seed, 20), &off).unwrap();
        w.sequence()
    };
    assert_eq!(prove(5), prove(5));
    assert_ne!(prove(5), prove(6));
    assert_eq!(edit_order(246, 246, 5), edit_order(246, 246, 5));
    assert_ne!(edit_order(246, 246, 5), edit_order(246, 246, 6));
    // Every edit once per pass, passes reshuffled.
    let mut pass = edit_order(246, 492, 5)[246..].to_vec();
    pass.sort_unstable();
    assert_eq!(pass, (0..246).collect::<Vec<_>>());
}

#[test]
fn a_wrong_verdict_fails_the_run() {
    let mut l2 = all_case_studies()
        .into_iter()
        .find(|cs| cs.name == "L2 Cache")
        .unwrap();
    l2.rtl = l2.buggy_rtl.clone().expect("L2 Cache has a documented bug");
    let mut w = ProofWorkload::with_targets(vec![l2], vec![0, 0], 2);
    let seq = run_sequence(&mut w, &Spans::off());
    assert_eq!(seq.attempted, 2);
    assert_eq!(seq.failures.len(), 2, "{:?}", seq.failures);
    assert!(seq.latencies.iter().all(|l| l.is_infinite()));
}

/// The traced metrics that count work rather than time it.
fn counts(cfg: &Config) -> BTreeMap<&'static str, f64> {
    let report = traced_run(cfg).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    PER_LAYER
        .iter()
        .filter(|(_, unit)| matches!(*unit, "count" | "bytes"))
        .map(|&(name, _)| (name, report.metrics[name]))
        .collect()
}

#[test]
fn traced_counters_repeat_at_jobs_1_and_2() {
    for jobs in [1, 2] {
        let cfg = Config {
            jobs,
            ..Config::new(Kind::Prove, 3, 2)
        };
        let first = counts(&cfg);
        assert!(first["sat.propagations"] > 0.0);
        assert_eq!(first, counts(&cfg), "jobs {jobs}");
    }
    let edit = Config::new(Kind::Edit, 3, 1);
    let first = counts(&edit);
    assert!(first["serve.cache_hits"] > 0.0 && first["sim.cycles"] > 0.0);
    assert_eq!(first, counts(&edit));
}

#[test]
fn golden_rows_match_fresh_cold_proofs() {
    let registry = all_case_studies();
    let (designs, edits) = render(&registry).unwrap();
    let table = golden::parse(golden::TABLE).unwrap();
    assert_eq!(table.len(), edits.len());
    for e in edits.iter().step_by(17) {
        let fresh = golden::compute(e.key.clone(), &designs[e.design].cs, &e.rtl).unwrap();
        assert_eq!(Some(&fresh), table.get(&e.key));
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = gila_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    for w in &workloads {
        assert!(Kind::parse(w).is_some(), "{w}");
    }
    assert_eq!(workloads.len(), 3);
}
