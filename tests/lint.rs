//! Golden tests for `gila-lint`.
//!
//! Lint output is deterministic by construction: ports are analyzed in
//! declaration order, passes run in pipeline order within a port, and
//! file-level findings come last, so the human and JSON renderings are
//! stable artifacts we can diff.
//!
//! Regenerate goldens with `GILA_REGEN_GOLDEN=1 cargo test --test lint`
//! after an intentional lint change, and review the diff.

use std::path::PathBuf;
use std::sync::Arc;

use gila::designs::all_case_studies;
use gila::lang::parse_spec;
use gila::lint::{lint_module, lint_rtl, lint_spec, Code, LintOptions, LintReport};
use gila::rtl::parse_verilog;
use gila::trace::{RingSink, Tracer};

const SPECS: [(&str, &str); 5] = [
    ("counter", include_str!("../specs/counter.ila")),
    ("decoder", include_str!("../specs/decoder.ila")),
    ("axi_slave", include_str!("../specs/axi_slave.ila")),
    ("mem_iface", include_str!("../specs/mem_iface.ila")),
    ("broken", include_str!("../specs/broken.ila")),
];

const BROKEN_RTL: &str = include_str!("../specs/broken.v");

fn spec_report(name: &str, src: &str) -> LintReport {
    let spec = parse_spec(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    lint_spec(
        &format!("specs/{name}.ila"),
        &spec,
        &LintOptions::default(),
        &Tracer::disabled(),
    )
}

fn rtl_report() -> LintReport {
    let rtl = parse_verilog(BROKEN_RTL).unwrap();
    let mut report = LintReport::new("specs/broken.v");
    report.diagnostics = lint_rtl("specs/broken.v", &rtl, &Tracer::disabled());
    report
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/lint")
        .join(file)
}

fn assert_matches_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden at {}: {e} (run with GILA_REGEN_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden,
        "{file}: lint output diverged — if the change is intentional, \
         regenerate with GILA_REGEN_GOLDEN=1"
    );
}

#[test]
fn spec_lint_matches_goldens_human_and_json() {
    for (name, src) in SPECS {
        let report = spec_report(name, src);
        assert_matches_golden(&format!("{name}.lint"), &report.render_human());
        let mut json = report.to_json().pretty();
        json.push('\n');
        assert_matches_golden(&format!("{name}.lint.json"), &json);
    }
}

#[test]
fn rtl_lint_matches_goldens_human_and_json() {
    let report = rtl_report();
    assert_matches_golden("broken_rtl.lint", &report.render_human());
    let mut json = report.to_json().pretty();
    json.push('\n');
    assert_matches_golden("broken_rtl.lint.json", &json);
}

/// The deliberately broken fixtures must exercise every implemented
/// code, each finding carrying a span or a concrete witness.
#[test]
fn broken_fixtures_cover_every_code() {
    let spec = spec_report("broken", SPECS[4].1);
    let rtl = rtl_report();
    let all: Vec<_> = spec
        .diagnostics
        .iter()
        .chain(rtl.diagnostics.iter())
        .collect();
    for code in Code::ALL {
        let hits: Vec<_> = all.iter().filter(|d| d.code == code).collect();
        assert!(!hits.is_empty(), "{code:?} not exercised by the fixtures");
        for d in hits {
            assert!(
                d.line.is_some() || d.witness.is_some() || !d.port.is_empty(),
                "{code:?} finding carries neither span, witness, nor port: {d:?}"
            );
        }
    }
    // The spec-side fixture alone covers GL001-GL010 with a span or a
    // SAT witness on every SAT-backed finding.
    for d in &spec.diagnostics {
        assert!(
            d.line.is_some() || d.witness.is_some(),
            "spec finding without span or witness: {d:?}"
        );
    }
}

/// The eight bundled case studies must stay free of error-class
/// diagnostics (their warnings document real abstraction choices).
#[test]
fn registry_designs_have_no_error_class_findings() {
    let opts = LintOptions::default();
    for cs in all_case_studies() {
        let mut report = lint_module(cs.name, &cs.ila, &opts, &Tracer::disabled());
        report
            .diagnostics
            .extend(lint_rtl(cs.name, &cs.rtl, &Tracer::disabled()));
        assert_eq!(
            report.errors(),
            0,
            "{}: {}",
            cs.name,
            report.render_human()
        );
    }
}

/// Every pass reports one `lint_pass` telemetry span per target, with
/// a diagnostic count and a wall-clock field.
#[test]
fn lint_passes_emit_timing_spans() {
    let (tracer, ring): (Tracer, Arc<RingSink>) = Tracer::ring(10_000);
    let spec = parse_spec(SPECS[4].1).unwrap();
    let report = lint_spec("broken", &spec, &LintOptions::default(), &tracer);
    let rtl = parse_verilog(BROKEN_RTL).unwrap();
    let rtl_diags = lint_rtl("broken_rtl", &rtl, &tracer);
    let events = ring.events();
    let spans: Vec<_> = events
        .iter()
        .map(|e| gila::json::parse(&e.to_json_line()).unwrap())
        .filter(|e| e.get("kind").and_then(|v| v.as_str()) == Some("lint_pass"))
        .collect();
    for pass in [
        "decode",
        "state_usage",
        "absint",
        "width",
        "compose",
        "rtl_unused_input",
        "rtl_undriven_state",
        "rtl_dead_state",
    ] {
        let span = spans
            .iter()
            .find(|s| s.get("label").and_then(|v| v.as_str()) == Some(pass))
            .unwrap_or_else(|| panic!("no lint_pass span for {pass:?}"));
        assert!(span.get("diags").and_then(|v| v.as_u64()).is_some(), "{pass}");
        assert!(span.get("wall_ns").and_then(|v| v.as_u64()).is_some(), "{pass}");
    }
    // The per-pass diag counts add up to the report totals.
    let spec_total: u64 = spans
        .iter()
        .filter(|s| s.get("port").and_then(|v| v.as_str()) == Some("broken"))
        .filter_map(|s| s.get("diags").and_then(|v| v.as_u64()))
        .sum();
    assert_eq!(spec_total as usize, report.diagnostics.len());
    let rtl_total: u64 = spans
        .iter()
        .filter(|s| s.get("port").and_then(|v| v.as_str()) == Some("broken_rtl"))
        .filter_map(|s| s.get("diags").and_then(|v| v.as_u64()))
        .sum();
    assert_eq!(rtl_total as usize, rtl_diags.len());
}

/// `LintStats::absint_ns` covers all abstract-interpretation work: the
/// decode oracle as well as the GL014-GL017 pass, whose span alone
/// times the latter. So on every registry design it exceeds that span.
#[test]
fn absint_time_covers_the_decode_oracle() {
    for cs in all_case_studies() {
        let (tracer, ring): (Tracer, Arc<RingSink>) = Tracer::ring(10_000);
        let report = lint_module(cs.name, &cs.ila, &LintOptions::default(), &tracer);
        let pass_ns: u64 = ring
            .events()
            .iter()
            .filter(|e| e.label == "absint")
            .filter_map(|e| e.get("wall_ns"))
            .sum();
        assert!(
            report.stats.absint_ns > pass_ns,
            "{}: absint_ns {} does not exceed the absint pass's {pass_ns} ns",
            cs.name,
            report.stats.absint_ns
        );
    }
}

/// The four shipped specs stay free of error-class findings; the broken
/// fixture deterministically reports all four error-class codes.
#[test]
fn severity_classes_land_where_documented() {
    for (name, src) in &SPECS[..4] {
        let report = spec_report(name, src);
        assert_eq!(report.errors(), 0, "{name}: {}", report.render_human());
    }
    let broken = spec_report("broken", SPECS[4].1);
    for code in [
        Code::DecodeOverlap,
        Code::DeadInstruction,
        Code::UnresolvedConflict,
        Code::UnintegratedShared,
    ] {
        assert!(
            broken.diagnostics.iter().any(|d| d.code == code),
            "{code:?} missing from the broken fixture"
        );
    }
    assert!(broken.errors() >= 4);
    assert_eq!(broken.denied(&[Code::DecodeGap]), 1);
}
