//! Scheduler-configuration equivalence on the real case studies.
//!
//! Every way of running the verifier — sequential, a forced pool, and a
//! pool with the adaptive sequential fallback — must produce the same
//! verdicts, the same per-port work counts and the same telemetry span
//! set. The span comparison uses [`gila::trace::span_set`], which
//! ignores ordering and volatile timing fields but catches missing or
//! extra work (a port that was never sliced, an instruction that was
//! never solved).

use std::collections::BTreeSet;

use gila::designs::{all_case_studies, CaseStudy};
use gila::rtl::RtlModule;
use gila::trace::{span_set, Tracer};
use gila::verify::{verify_module, VerifyOptions};

/// `(port, instructions, coi_states_dropped, coi_inputs_dropped,
/// cache_hits, cache_misses)` of one port report.
type PortShape = (String, u64, u64, u64, u64, u64);

/// (port, instruction, holds) triple per verdict, one [`PortShape`] per
/// port, and the span set of the run's telemetry trace.
type RunShape = (
    Vec<(String, String, bool)>,
    Vec<PortShape>,
    BTreeSet<(String, String, String, String)>,
);

fn run_shape(cs: &CaseStudy, rtl: &RtlModule, opts: VerifyOptions) -> RunShape {
    let (tracer, ring) = Tracer::ring(1 << 16);
    let opts = VerifyOptions { tracer, ..opts };
    let report = verify_module(&cs.ila, rtl, &cs.refmaps, &opts).expect("well-formed");
    let mut verdicts = Vec::new();
    for port in &report.ports {
        for v in &port.verdicts {
            verdicts.push((port.port.clone(), v.instruction.clone(), v.result.holds()));
        }
    }
    verdicts.sort();
    let ports = report
        .ports
        .iter()
        .map(|p| {
            let t = &p.telemetry;
            (
                p.port.clone(),
                t.instructions,
                t.coi_states_dropped,
                t.coi_inputs_dropped,
                t.cache_hits,
                t.cache_misses,
            )
        })
        .collect();
    let jsonl: String = ring
        .events()
        .iter()
        .map(|e| e.to_json_line() + "\n")
        .collect();
    (verdicts, ports, span_set(&jsonl).expect("trace is well-formed JSONL"))
}

/// The pool configurations that must be indistinguishable from the
/// sequential baseline.
fn pool_variants() -> Vec<(&'static str, VerifyOptions)> {
    // `par_threshold: 0` forces the pool even on designs the adaptive
    // default would route to the sequential fallback — these tests are
    // about the pool itself.
    vec![
        (
            "jobs=4",
            VerifyOptions {
                jobs: Some(4),
                par_threshold: 0,
                ..Default::default()
            },
        ),
        // And once with the tuned default, so the adaptive fallback
        // itself is also proved verdict- and span-preserving.
        (
            "jobs=4 (adaptive)",
            VerifyOptions {
                jobs: Some(4),
                ..Default::default()
            },
        ),
    ]
}

fn assert_equivalent(cs: &CaseStudy, rtl: &RtlModule, tag: &str) {
    let sequential = run_shape(
        cs,
        rtl,
        VerifyOptions {
            jobs: Some(1),
            ..Default::default()
        },
    );
    for (label, opts) in pool_variants() {
        let pooled = run_shape(cs, rtl, opts);
        assert_eq!(
            sequential.0, pooled.0,
            "{} ({tag}): {label} changed a verdict",
            cs.name
        );
        assert_eq!(
            sequential.1, pooled.1,
            "{} ({tag}): {label} changed a port's work counts",
            cs.name
        );
        assert_eq!(
            sequential.2, pooled.2,
            "{} ({tag}): {label} changed the span set",
            cs.name
        );
    }
}

#[test]
fn pool_configurations_match_sequential_on_correct_rtl() {
    for cs in all_case_studies() {
        // One single-port, one multi-port AXI, and the multi-port
        // cache design cover every scheduling shape; the rest behave
        // alike and would only slow the suite down.
        if !matches!(cs.name, "Decoder" | "AXI Slave" | "L2 Cache") {
            continue;
        }
        let rtl = cs.rtl.clone();
        assert_equivalent(&cs, &rtl, "correct");
    }
}

#[test]
fn pool_configurations_match_sequential_on_buggy_rtl() {
    // Failing verdicts (with counterexamples) must also be stable
    // across scheduler configurations, not just passing ones.
    for cs in all_case_studies() {
        if !matches!(cs.name, "Decoder" | "AXI Slave") {
            continue;
        }
        let Some(buggy) = cs.buggy_rtl.clone() else {
            continue;
        };
        assert_equivalent(&cs, &buggy, "buggy");
    }
}
