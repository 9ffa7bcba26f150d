//! Gates over the eight registry designs.
//!
//! The deterministic gates run in tier-1:
//!
//! * a counter golden — the solver effort, CNF size and slicing counts
//!   of one run per design, pinned exactly in
//!   `tests/golden/registry_counters.txt`; any change in the
//!   work the engine does shows up as a diff there. Regenerate with
//!   `GILA_REGEN_GOLDEN=1 cargo test --test registry_gates` only when a
//!   change is meant to alter that work;
//! * schema invariants checked on the fresh numbers (every design
//!   holds, the robustness counters stay zero, lint stays clean and
//!   sub-second).
//!
//! The wall-clock co-simulation gate compares throughputs measured in
//! one process, so it is `#[ignore]`d and runs in release builds only:
//!
//! ```text
//! cargo test --release --test registry_gates -- --ignored --test-threads=1
//! ```

use std::fmt::Write;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use gila::designs::{all_case_studies, CaseStudy};
use gila::lint::{lint_module, lint_rtl, LintOptions};
use gila::trace::Tracer;
use gila::verify::{cosimulate, cosimulate_compiled, verify_module, ModuleReport, VerifyOptions};

/// Timed runs per backend in the co-simulation gate; the best is kept.
const GATE_RUNS: usize = 3;
/// Cycles per port for the co-simulation throughput legs. The
/// interpreter re-walks the DAG per cycle, so it gets a short leash;
/// the compiled tape gets enough cycles to amortize timer noise.
const COSIM_INTERP_CYCLES: usize = 2000;
const COSIM_COMPILED_CYCLES: usize = 100_000;
/// The compiled backend must beat the interpreter by at least this
/// factor in geomean across designs.
const COSIM_GATE: f64 = 100.0;

fn verify(cs: &CaseStudy) -> ModuleReport {
    verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{}: setup error {e}", cs.name))
}

fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One design's fixed-RTL run, plus one lint pass.
struct Row {
    name: &'static str,
    instructions: usize,
    report: ModuleReport,
    lint_errors: usize,
    lint_s: f64,
    absint_s: f64,
    absint_discharged: u64,
}

/// The registry's rows, computed once and shared by the tests below.
fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        all_case_studies()
            .iter()
            .map(|cs| {
                let t0 = Instant::now();
                let lint = lint_module(
                    cs.name,
                    &cs.ila,
                    &LintOptions::default(),
                    &Tracer::disabled(),
                );
                let _ = lint_rtl(cs.name, &cs.rtl, &Tracer::disabled());
                let lint_s = t0.elapsed().as_secs_f64();
                Row {
                    name: cs.name,
                    instructions: cs.ila.stats().instructions,
                    report: verify(cs),
                    lint_errors: lint.errors(),
                    lint_s,
                    absint_s: lint.stats.absint_ns as f64 / 1e9,
                    absint_discharged: lint.stats.lints_discharged_static,
                }
            })
            .collect()
    })
}

const COLUMNS: &str = "design\tinstructions\tsolves\tdecisions\tpropagations\tconflicts\t\
                       cnf_vars\tcnf_clauses\tcoi_dropped\tabsint_discharged";

fn render(rows: &[Row]) -> String {
    let mut out = format!("# {COLUMNS}\n");
    for row in rows {
        let t = &row.report.telemetry;
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.name,
            row.instructions,
            t.solves,
            t.decisions,
            t.propagations,
            t.conflicts,
            t.cnf_vars,
            t.cnf_clauses,
            t.coi_states_dropped + t.coi_inputs_dropped,
            row.absint_discharged,
        )
        .unwrap();
    }
    out
}

#[test]
fn registry_counters_match_golden() {
    let actual = render(rows());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/registry_counters.txt");
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden at {}: {e}", path.display()));
    if let Some((want, got)) = golden.lines().zip(actual.lines()).find(|(g, a)| g != a) {
        panic!(
            "registry counters drifted from {} (columns: {COLUMNS})\n  golden: {want}\n  actual: {got}",
            path.display()
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "registry design count drifted"
    );
}

#[test]
fn registry_runs_satisfy_the_schema_invariants() {
    let rows = rows();
    assert_eq!(rows.len(), 8, "the registry has eight designs");
    for row in rows {
        let design = row.name;
        let report = &row.report;
        assert!(report.all_hold(), "{design}: {report:#?}");
        // Unbounded runs must never exercise the robustness machinery;
        // any nonzero counter is a regression.
        let t = &report.telemetry;
        for (key, v) in [
            ("unknown", t.unknown),
            ("panicked", t.panicked),
            ("retries", t.retries),
        ] {
            assert_eq!(v, 0, "{design}: {key} = {v} on an unbounded run");
        }
        let solves = t.solves;
        assert!(
            solves >= row.instructions as u64,
            "{design}: {solves} solves for {} instructions — every instruction issues at least one SAT check",
            row.instructions
        );
        assert_eq!(row.lint_errors, 0, "{design}: lint reports errors");
        assert!(
            row.lint_s < 1.0,
            "{design}: lint_s = {} is not sub-second",
            row.lint_s
        );
        assert!(
            (0.0..1.0).contains(&row.absint_s),
            "{design}: absint_s = {} is not a sub-second time",
            row.absint_s
        );
    }
}

/// Best-of-[`GATE_RUNS`] co-simulation throughput of both backends, in
/// cycles per second summed over the design's ports (fixed RTL — the
/// streams must run clean).
fn cosim_rates(cs: &CaseStudy) -> (f64, f64) {
    let (mut best_interp, mut best_compiled) = (0.0f64, 0.0f64);
    for _ in 0..GATE_RUNS {
        let (mut interp_s, mut compiled_s) = (0.0, 0.0);
        let ports = cs.ila.ports();
        for port in ports {
            let map = cs
                .refmaps
                .iter()
                .find(|m| m.name == port.name())
                .expect("one refinement map per port");
            let t0 = Instant::now();
            let d = cosimulate(port, &cs.rtl, map, 7, COSIM_INTERP_CYCLES).expect("cosim runs");
            interp_s += t0.elapsed().as_secs_f64();
            assert!(d.is_none(), "{}: fixed RTL diverged", cs.name);
            let t0 = Instant::now();
            let d = cosimulate_compiled(port, &cs.rtl, map, 7, COSIM_COMPILED_CYCLES)
                .expect("cosim runs");
            compiled_s += t0.elapsed().as_secs_f64();
            assert!(d.is_none(), "{}: fixed RTL diverged", cs.name);
        }
        let n = ports.len() as f64;
        best_interp = best_interp.max(n * COSIM_INTERP_CYCLES as f64 / interp_s);
        best_compiled = best_compiled.max(n * COSIM_COMPILED_CYCLES as f64 / compiled_s);
    }
    (best_interp, best_compiled)
}

/// The compiled simulation backend must deliver the mass-hunting
/// throughput it exists for.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored --test-threads=1"]
fn cosim_gate() {
    let speedups: Vec<f64> = all_case_studies()
        .iter()
        .map(|cs| {
            let (interp, compiled) = cosim_rates(cs);
            eprintln!(
                "{}: interpreted {interp:.0} cycles/s, compiled {compiled:.0} cycles/s ({:.1}x)",
                cs.name,
                compiled / interp
            );
            compiled / interp
        })
        .collect();
    let speedup = geomean(&speedups);
    assert!(
        speedup.is_finite() && speedup >= COSIM_GATE,
        "geomean compiled-vs-interpreter cosim speedup = {speedup:.1}x is below the {COSIM_GATE}x gate"
    );
}
