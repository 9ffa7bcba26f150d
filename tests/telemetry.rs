//! Golden-trace tests for the telemetry layer.
//!
//! A verification run is fully deterministic: the CDCL solver branches
//! deterministically, ports and instructions run in declaration order,
//! and every span's counters depend only on the formula. So after
//! stripping the volatile keys (wall times) and sorting, the trace is a
//! stable artifact we can diff against a checked-in golden.
//!
//! Regenerate goldens with `GILA_REGEN_GOLDEN=1 cargo test --test
//! telemetry` after an intentional engine change, and review the diff.

use std::path::PathBuf;
use std::sync::Arc;

use gila::designs::all_case_studies;
use gila::trace::{canonicalize_jsonl, RingSink, Tracer};
use gila::verify::{
    identity_refmaps, synthesize_module, verify_module, ModuleReport, RefinementMap,
    SolveBudget, VerifyOptions,
};

/// The self-check fixture: the counter spec verified against its own
/// synthesized RTL (what `gila verify --spec specs/counter.ila` runs).
fn counter_fixture() -> (gila::core::ModuleIla, gila::rtl::RtlModule, Vec<RefinementMap>) {
    let ila = gila::lang::parse_ila(include_str!("../specs/counter.ila")).unwrap();
    let rtl = synthesize_module(&ila).unwrap();
    let maps = identity_refmaps(&ila);
    (ila, rtl, maps)
}

/// Runs `name`'s verification with a ring tracer, returning the report
/// and the raw JSONL trace.
fn traced_run(name: &str) -> (ModuleReport, String) {
    let (tracer, ring): (Tracer, Arc<RingSink>) = Tracer::ring(100_000);
    let opts = VerifyOptions {
        tracer,
        ..Default::default()
    };
    let report = match name {
        "counter" => {
            let (ila, rtl, maps) = counter_fixture();
            verify_module(&ila, &rtl, &maps, &opts).unwrap()
        }
        other => {
            let cs = all_case_studies()
                .into_iter()
                .find(|c| c.name == other)
                .unwrap_or_else(|| panic!("no case study {other:?}"));
            verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap()
        }
    };
    let jsonl = ring
        .events()
        .iter()
        .map(|e| e.to_json_line())
        .collect::<Vec<_>>()
        .join("\n");
    (report, jsonl)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"))
}

/// Diffs a canonicalized trace against the checked-in golden; set
/// `GILA_REGEN_GOLDEN=1` to rewrite it instead.
fn assert_matches_golden(name: &str) {
    let (report, jsonl) = traced_run(name);
    assert!(report.all_hold(), "{name}: {report:#?}");
    let canon = canonicalize_jsonl(&jsonl).unwrap();
    let path = golden_path(name);
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &canon).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden at {}: {e} (run with GILA_REGEN_GOLDEN=1)", path.display()));
    assert_eq!(
        canon,
        golden,
        "{name}: canonicalized trace diverged from {} — if the engine \
         change is intentional, regenerate with GILA_REGEN_GOLDEN=1",
        path.display()
    );
}

#[test]
fn counter_trace_matches_golden() {
    assert_matches_golden("counter");
}

#[test]
fn decoder_trace_matches_golden() {
    assert_matches_golden("Decoder");
}

#[test]
fn every_instruction_gets_a_span_with_counters() {
    let (report, jsonl) = traced_run("Decoder");
    for port in &report.ports {
        for v in &port.verdicts {
            let span = jsonl
                .lines()
                .map(|l| gila::json::parse(l).unwrap())
                .find(|e| {
                    e.get("kind").and_then(|v| v.as_str()) == Some("instruction")
                        && e.get("port").and_then(|v| v.as_str()) == Some(port.port.as_str())
                        && e.get("instr").and_then(|v| v.as_str())
                            == Some(v.instruction.as_str())
                })
                .unwrap_or_else(|| panic!("no span for ({}, {})", port.port, v.instruction));
            // Solver counters and CNF deltas ride on the span and agree
            // with the verdict's telemetry fields.
            assert_eq!(
                span.get("decisions").and_then(|v| v.as_u64()),
                Some(v.effort.decisions)
            );
            assert_eq!(
                span.get("cnf_clauses").and_then(|v| v.as_u64()),
                Some(v.cnf_growth.clauses)
            );
            assert!(span.get("solves").and_then(|v| v.as_u64()).unwrap() >= 1);
        }
    }
}

/// Every `solve` span is timed: `wall_ns` covers its SAT calls and
/// array-lemma rounds, and it is a volatile key, so the goldens above
/// never see it.
#[test]
fn every_solve_span_carries_its_wall_time() {
    for name in ["counter", "Decoder", "Store Buffer"] {
        let (report, jsonl) = traced_run(name);
        let mut solves = 0;
        for line in jsonl.lines() {
            let e = gila::json::parse(line).unwrap();
            if e.get("kind").and_then(|v| v.as_str()) != Some("solve") {
                continue;
            }
            solves += 1;
            assert!(
                e.get("wall_ns").and_then(|v| v.as_u64()).is_some(),
                "{name}: solve span without wall_ns: {line}"
            );
        }
        assert_eq!(
            solves, report.telemetry.solves,
            "{name}: one span per SAT check"
        );
        assert!(gila::trace::VOLATILE_KEYS.contains(&"wall_ns"));
    }
}

/// Every `instruction` span names two parts of its own time: building
/// the check's formulas (`property_ns`) and building its counterexample
/// (`cex_ns`, 0 when there is none). Both are volatile keys, so the
/// goldens above never see them. The fixture is the first registry
/// design with a bug-injected RTL variant, so some checks find a
/// counterexample.
#[test]
fn instruction_spans_time_their_formulas_and_counterexamples() {
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.buggy_rtl.is_some())
        .expect("a bug-injected case study");
    let (tracer, ring): (Tracer, Arc<RingSink>) = Tracer::ring(100_000);
    let opts = VerifyOptions {
        tracer,
        ..Default::default()
    };
    let buggy = cs.buggy_rtl.as_ref().unwrap();
    let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).unwrap();
    assert!(!report.all_hold(), "{}: the buggy RTL must fail", cs.name);
    let (mut spans, mut cexs) = (0, 0);
    for e in ring.events() {
        let e = gila::json::parse(&e.to_json_line()).unwrap();
        if e.get("kind").and_then(|v| v.as_str()) != Some("instruction") {
            continue;
        }
        spans += 1;
        let field = |k: &str| {
            e.get(k)
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("instruction span without {k}: {}", e.to_compact()))
        };
        assert!(field("property_ns") > 0, "{}", e.to_compact());
        if e.get("label").and_then(|v| v.as_str()) == Some("cex") {
            cexs += 1;
            assert!(field("cex_ns") > 0, "{}", e.to_compact());
        } else {
            assert_eq!(field("cex_ns"), 0, "{}", e.to_compact());
        }
    }
    assert_eq!(spans, report.instructions_checked());
    assert!(cexs > 0, "{}: no counterexample span", cs.name);
    for key in ["property_ns", "cex_ns"] {
        assert!(gila::trace::VOLATILE_KEYS.contains(&key));
    }
}

#[test]
fn report_telemetry_sums_verdicts() {
    let (report, _) = traced_run("Decoder");
    let t = &report.telemetry;
    assert_eq!(t.instructions as usize, report.instructions_checked());
    assert!(t.solves >= t.instructions);
    assert!(t.propagations > 0);
    assert!(t.cnf_clauses > 0);
    assert!(t.wall_ns > 0);
    assert_eq!(t.workers, 1);
    let summed: u64 = report.ports.iter().map(|p| p.telemetry.solves).sum();
    assert_eq!(t.solves, summed);
}

/// Budget-exhausted runs emit the `budget_exhausted` span kind — and
/// ONLY such runs do, which is why the checked-in goldens (recorded
/// without budgets) stay valid without regeneration.
#[test]
fn exhausted_budgets_emit_spans_only_on_the_budgeted_path() {
    // Default run: no robustness spans anywhere in the trace.
    let (_, clean) = traced_run("counter");
    for kind in ["budget_exhausted", "panic"] {
        assert!(
            !clean.contains(&format!("\"kind\":\"{kind}\"")),
            "default run leaked a {kind} span — goldens would break"
        );
    }
    // Budgeted run with a zero deadline: every check exhausts its
    // budget, each exhaustion is announced, and the report telemetry
    // agrees.
    let (tracer, ring): (Tracer, Arc<RingSink>) = Tracer::ring(100_000);
    let (ila, rtl, maps) = counter_fixture();
    let opts = VerifyOptions {
        tracer,
        budget: SolveBudget {
            conflicts: None,
            timeout: Some(std::time::Duration::ZERO),
        },
        ..Default::default()
    };
    let report = verify_module(&ila, &rtl, &maps, &opts).unwrap();
    let jsonl = ring
        .events()
        .iter()
        .map(|e| e.to_json_line())
        .collect::<Vec<_>>()
        .join("\n");
    let count = |kind: &str| {
        jsonl
            .lines()
            .filter(|l| l.contains(&format!("\"kind\":\"{kind}\"")))
            .count()
    };
    let instrs = report.instructions_checked();
    assert_eq!(report.counts().unknown, instrs);
    assert_eq!(count("budget_exhausted"), instrs, "{jsonl}");
    assert_eq!(report.telemetry.unknown, instrs as u64);
}
