//! Gates over the eight registry designs.
//!
//! The deterministic gates run in tier-1:
//!
//! * a counter golden — the solver effort, CNF size and slicing counts
//!   of one sequential run, one `preprocess: false` run and one pooled
//!   run per design, pinned exactly in
//!   `tests/golden/registry_counters.txt`; any change in the work the
//!   engine does shows up as a diff there. Regenerate with
//!   `GILA_REGEN_GOLDEN=1 cargo test --test registry_gates` only when a
//!   change is meant to alter that work;
//! * schema invariants checked on the fresh numbers (every design
//!   holds, preprocessing never grows the CNF, the robustness counters
//!   stay zero, lint stays clean and sub-second);
//! * preprocessing never changes a verdict, on the fixed RTL and on
//!   every bug-injected variant.
//!
//! The two wall-clock gates compare times measured in one process, so
//! they are `#[ignore]`d and run in release builds only:
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
use gila::rtl::RtlModule;
use gila::trace::Tracer;
use gila::verify::{cosimulate, cosimulate_compiled, verify_module, ModuleReport, VerifyOptions};

/// Worker count of the pooled runs.
const POOL_JOBS: usize = 4;
/// Timed runs per configuration in the wall-clock gates; the best is
/// kept, after one untimed warm-up.
const GATE_RUNS: usize = 3;
/// The two slowest-sequential designs must not lose time on the pool
/// beyond this factor (`pooled_s <= tolerance * sequential_s`).
const POOL_GATE_TOLERANCE: f64 = 1.05;
/// Cycles per port for the co-simulation throughput legs. The
/// interpreter re-walks the DAG per cycle, so it gets a short leash;
/// the compiled tape gets enough cycles to amortize timer noise.
const COSIM_INTERP_CYCLES: usize = 2000;
const COSIM_COMPILED_CYCLES: usize = 100_000;
/// The compiled backend must beat the interpreter by at least this
/// factor in geomean across designs.
const COSIM_GATE: f64 = 100.0;

fn verify(cs: &CaseStudy, rtl: &RtlModule, jobs: usize, preprocess: bool) -> ModuleReport {
    let opts = VerifyOptions {
        jobs: Some(jobs),
        preprocess,
        ..Default::default()
    };
    verify_module(&cs.ila, rtl, &cs.refmaps, &opts)
        .unwrap_or_else(|e| panic!("{}: setup error {e}", cs.name))
}

/// Sorted (port, instruction, verdict tag) triples of a report.
fn verdicts(report: &ModuleReport) -> Vec<(String, String, &'static str)> {
    let mut out: Vec<_> = report
        .ports
        .iter()
        .flat_map(|p| {
            p.verdicts
                .iter()
                .map(|v| (p.port.clone(), v.instruction.clone(), v.result.tag()))
        })
        .collect();
    out.sort();
    out
}

fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One design's fixed-RTL runs: sequential, sequential without
/// preprocessing, and pooled, plus one lint pass.
struct Row {
    name: &'static str,
    instructions: usize,
    sequential: ModuleReport,
    unpreprocessed: ModuleReport,
    pooled: ModuleReport,
    lint_errors: usize,
    lint_s: f64,
    absint_s: f64,
    absint_discharged: u64,
}

impl Row {
    /// CNF size (vars + clauses) without and with preprocessing.
    fn cnf_pre_post(&self) -> (u64, u64) {
        let (pre, post) = (&self.unpreprocessed.telemetry, &self.sequential.telemetry);
        (
            pre.cnf_vars + pre.cnf_clauses,
            post.cnf_vars + post.cnf_clauses,
        )
    }
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
                    sequential: verify(cs, &cs.rtl, 1, true),
                    unpreprocessed: verify(cs, &cs.rtl, 1, false),
                    pooled: verify(cs, &cs.rtl, POOL_JOBS, true),
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
                       cnf_vars_pre\tcnf_clauses_pre\tcnf_vars_post\tcnf_clauses_post\t\
                       coi_dropped\tbatch_count\tabsint_discharged";

fn render(rows: &[Row]) -> String {
    let mut out = format!("# {COLUMNS}\n");
    for row in rows {
        let (t, pre) = (&row.sequential.telemetry, &row.unpreprocessed.telemetry);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.name,
            row.instructions,
            t.solves,
            t.decisions,
            t.propagations,
            t.conflicts,
            pre.cnf_vars,
            pre.cnf_clauses,
            t.cnf_vars,
            t.cnf_clauses,
            t.coi_states_dropped + t.coi_inputs_dropped,
            row.pooled.telemetry.batches,
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
        for (leg, report) in [
            ("sequential", &row.sequential),
            ("preprocess off", &row.unpreprocessed),
            ("pooled", &row.pooled),
        ] {
            assert!(report.all_hold(), "{design} ({leg}): {report:#?}");
            // Unbounded runs must never exercise the robustness
            // machinery; any nonzero counter is a regression.
            let t = &report.telemetry;
            for (key, v) in [
                ("unknown", t.unknown),
                ("panicked", t.panicked),
                ("retries", t.retries),
            ] {
                assert_eq!(v, 0, "{design} ({leg}): {key} = {v} on an unbounded run");
            }
        }
        let solves = row.sequential.telemetry.solves;
        assert!(
            solves >= row.instructions as u64,
            "{design}: {solves} solves for {} instructions — every instruction issues at least one SAT check",
            row.instructions
        );
        let (pre, post) = row.cnf_pre_post();
        assert!(
            post <= pre,
            "{design}: post-preprocessing CNF ({post}) larger than unpreprocessed ({pre})"
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
    let ratios: Vec<f64> = rows
        .iter()
        .map(|row| {
            let (pre, post) = row.cnf_pre_post();
            post.max(1) as f64 / pre.max(1) as f64
        })
        .collect();
    let reduction = 1.0 - geomean(&ratios);
    assert!(
        reduction.is_finite() && (0.0..1.0).contains(&reduction),
        "geomean CNF reduction = {reduction} is not a shrink in [0, 1)"
    );
}

/// Preprocessing (COI slicing, rewriting, inprocessing) may shrink the
/// problem but never change an answer: the same (port, instruction,
/// verdict) triples with and without it, on the fixed RTL and on each
/// bug-injected variant.
#[test]
fn preprocessing_never_changes_a_verdict() {
    for row in rows() {
        assert_eq!(
            verdicts(&row.sequential),
            verdicts(&row.unpreprocessed),
            "{}: preprocessing changed a verdict on the fixed RTL",
            row.name
        );
    }
    let mut buggy_checked = 0;
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else { continue };
        let on = verify(&cs, buggy, 1, true);
        assert!(
            !on.all_hold(),
            "{}: the injected bug went unnoticed",
            cs.name
        );
        assert_eq!(
            verdicts(&on),
            verdicts(&verify(&cs, buggy, 1, false)),
            "{}: preprocessing changed a verdict on the buggy RTL",
            cs.name
        );
        buggy_checked += 1;
    }
    assert!(
        buggy_checked >= 3,
        "only {buggy_checked} bug-injected variants checked"
    );
}

/// Best-of-[`GATE_RUNS`] verification wall time after one untimed
/// warm-up run, which pays the one-off costs (thread pool spin-up,
/// allocator growth, cold caches).
fn best_time(cs: &CaseStudy, jobs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for run in 0..=GATE_RUNS {
        let t0 = Instant::now();
        let report = verify(cs, &cs.rtl, jobs, true);
        let s = t0.elapsed().as_secs_f64();
        assert!(report.all_hold(), "{} (jobs={jobs}): {report:#?}", cs.name);
        if run > 0 {
            best = best.min(s);
        }
    }
    best
}

/// The pool must pay for itself where it matters: on the two
/// slowest-sequential designs, pooled wall time may not exceed
/// sequential by more than the tolerance. Small designs are exempt
/// (the adaptive threshold routes them to the sequential engine, so
/// their ratio is ~1.0 by construction and any gap is noise).
#[test]
#[ignore = "wall-clock gate; run in release with --ignored --test-threads=1"]
fn pool_gate() {
    let designs = all_case_studies();
    let mut by_seq: Vec<(&CaseStudy, f64)> =
        designs.iter().map(|cs| (cs, best_time(cs, 1))).collect();
    by_seq.sort_by(|a, b| b.1.total_cmp(&a.1));
    for &(cs, sequential_s) in by_seq.iter().take(2) {
        let pooled_s = best_time(cs, POOL_JOBS);
        eprintln!(
            "{}: sequential {sequential_s:.4} s, pooled {pooled_s:.4} s",
            cs.name
        );
        assert!(
            pooled_s <= POOL_GATE_TOLERANCE * sequential_s,
            "{}: pooled_s = {pooled_s:.4} loses to sequential_s = {sequential_s:.4} beyond the \
             {POOL_GATE_TOLERANCE}x gate — the pool no longer pays on a design it must win",
            cs.name
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
