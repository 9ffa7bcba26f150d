//! Measures sequential vs pooled verification wall-clock per case study
//! and writes the `BENCH_verify.json` artifact.
//!
//! Sequential is `jobs = 1`; pooled is a four-worker work-stealing pool
//! with persistent incremental engines. Each configuration is run
//! `--runs N` times (default 3) and the best time is kept, so the
//! artifact reflects steady-state cost, not first-run noise. Rows also
//! carry the solver-effort telemetry totals of the sequential run, so
//! regressions in *work done* (not just wall clock) show up in the
//! artifact diff.
//!
//! Preprocessing is measured A/B per design: `cnf_vars_pre` /
//! `cnf_clauses_pre` come from a `--no-preprocess` sequential run,
//! `cnf_vars_post` / `cnf_clauses_post` and `coi_dropped` from the
//! preprocessed one, and the artifact's `geomean_cnf_reduction` is the
//! geometric-mean shrink of (vars + clauses) across designs.
//!
//! Modes:
//! * `bench_verify [--runs N]` — benchmark and (re)write the artifact,
//!   recording `geomean_speedup_vs_baseline` against the previously
//!   committed artifact when one exists.
//! * `bench_verify --check` — validate the committed artifact's schema.
//! * `bench_verify --baseline FILE --check-regress TOL` — run a fresh
//!   benchmark (without touching the artifact) and exit non-zero when
//!   the geomean pooled wall-time regressed by more than `TOL` (e.g.
//!   `0.5` = 50%) against `FILE`. CI runs this with a loose tolerance.

use std::sync::Arc;
use std::time::Instant;

use gila_designs::{all_case_studies, CaseStudy};
use gila_json::Value;
use gila_lint::{lint_module, lint_rtl, LintOptions};
use gila_serve::{CacheConfig, ProofCache, Request, Service};
use gila_smt::CancelToken;
use gila_trace::Tracer;
use gila_verify::{cosimulate, cosimulate_compiled, verify_module, ModuleReport, VerifyOptions};

const POOL_JOBS: usize = 4;
const DEFAULT_RUNS: usize = 3;
const ARTIFACT: &str = "BENCH_verify.json";
/// The two slowest-sequential designs must not lose time on the pool
/// beyond this factor (`pooled_s <= tolerance * sequential_s`); see
/// [`check_artifact`].
const POOL_GATE_TOLERANCE: f64 = 1.05;
/// Cycles per port for the co-simulation throughput legs. The
/// interpreter re-walks the DAG per cycle, so it gets a short leash;
/// the compiled tape gets enough cycles to amortize timer noise.
const COSIM_INTERP_CYCLES: usize = 2000;
const COSIM_COMPILED_CYCLES: usize = 100_000;
/// The compiled backend must beat the interpreter by at least this
/// factor in geomean across designs; see [`check_artifact`].
const COSIM_GATE: f64 = 100.0;

fn best_run(cs: &CaseStudy, jobs: usize, runs: usize, preprocess: bool) -> (f64, ModuleReport) {
    let opts = &VerifyOptions {
        jobs: Some(jobs),
        preprocess,
        ..Default::default()
    };
    // One untimed warm-up run first: it pays the one-off costs (thread
    // pool spin-up, allocator growth, cold caches) that otherwise
    // dominate sub-millisecond designs and made tiny pooled runs look
    // slower than sequential ones purely from measurement noise.
    let warmup = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, opts).expect("well-formed");
    assert!(warmup.all_hold(), "{}: {warmup:#?}", cs.name);
    let mut best_s = f64::INFINITY;
    let mut best_report = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, opts).expect("well-formed");
        assert!(report.all_hold(), "{}: {report:#?}", cs.name);
        let s = t0.elapsed().as_secs_f64();
        if s < best_s {
            best_s = s;
            best_report = Some(report);
        }
    }
    (best_s, best_report.expect("runs >= 1"))
}

/// Best-of-`runs` co-simulation throughput of both backends, in cycles
/// per second summed over the design's ports (fixed RTL — the streams
/// must run clean).
fn cosim_rates(cs: &CaseStudy, runs: usize) -> (f64, f64) {
    let mut best_interp = 0.0f64;
    let mut best_compiled = 0.0f64;
    for _ in 0..runs {
        let mut interp_s = 0.0;
        let mut compiled_s = 0.0;
        let mut interp_cycles = 0u64;
        let mut compiled_cycles = 0u64;
        for port in cs.ila.ports() {
            let map = cs
                .refmaps
                .iter()
                .find(|m| m.name == port.name())
                .expect("one refinement map per port");
            let t0 = Instant::now();
            let d = cosimulate(port, &cs.rtl, map, 7, COSIM_INTERP_CYCLES).expect("cosim runs");
            assert!(d.is_none(), "{}: fixed RTL diverged", cs.name);
            interp_s += t0.elapsed().as_secs_f64();
            interp_cycles += COSIM_INTERP_CYCLES as u64;
            let t0 = Instant::now();
            let d = cosimulate_compiled(port, &cs.rtl, map, 7, COSIM_COMPILED_CYCLES)
                .expect("cosim runs");
            assert!(d.is_none(), "{}: fixed RTL diverged", cs.name);
            compiled_s += t0.elapsed().as_secs_f64();
            compiled_cycles += COSIM_COMPILED_CYCLES as u64;
        }
        best_interp = best_interp.max(interp_cycles as f64 / interp_s);
        best_compiled = best_compiled.max(compiled_cycles as f64 / compiled_s);
    }
    (best_interp, best_compiled)
}

/// Cold and warm daemon-path wall time plus the warm cache hit rate,
/// measured in-process through [`Service`] (a fresh in-memory proof
/// cache per design, no sockets — this isolates the cache, not the
/// transport). The warm leg must report zero solver work: that is the
/// whole point of the content-addressed cache, so it is asserted here
/// and the hit rate lands in the artifact for the schema gate.
fn serve_times(cs: &CaseStudy, runs: usize) -> (f64, f64, f64) {
    let cache = Arc::new(
        ProofCache::open(CacheConfig {
            path: None,
            ..CacheConfig::default()
        })
        .expect("in-memory cache cannot fail to open"),
    );
    let service = Service::new(cache, Tracer::disabled(), None, None);
    let req = Request {
        id: 1,
        op: "verify".into(),
        body: Value::object(vec![("design".into(), Value::String(cs.name.into()))]),
        deadline: None,
    };
    let run = |service: &Service| -> (f64, Value) {
        let t0 = Instant::now();
        let resp = service.execute(&req, CancelToken::default(), None);
        let s = t0.elapsed().as_secs_f64();
        assert_eq!(
            resp.get("status").and_then(Value::as_str),
            Some("ok"),
            "{}: serve verify failed: {}",
            cs.name,
            resp.to_compact()
        );
        (s, resp)
    };
    let (cold_s, _) = run(&service);
    let mut warm_s = f64::INFINITY;
    let mut hit_rate = 0.0;
    for _ in 0..runs {
        let (s, resp) = run(&service);
        let result = resp.get("result").expect("ok response has a result");
        let solves = result.get("solves").and_then(Value::as_u64).unwrap_or(u64::MAX);
        assert_eq!(solves, 0, "{}: warm serve run did solver work", cs.name);
        if s < warm_s {
            warm_s = s;
            hit_rate = result
                .get("cache_hit_rate")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
    }
    (cold_s, warm_s, hit_rate)
}

fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn bench_rows(runs: usize) -> Vec<Value> {
    let mut rows = Vec::new();
    for cs in all_case_studies() {
        eprintln!("benchmarking {} ...", cs.name);
        let (sequential_s, seq_report) = best_run(&cs, 1, runs, true);
        let (pooled_s, pooled_report) = best_run(&cs, POOL_JOBS, runs, true);
        // The preprocessing A/B leg: CNF counters are deterministic, so
        // one --no-preprocess run is enough for the "pre" columns.
        let (_, pre_report) = best_run(&cs, 1, 1, false);
        // Static analysis rides along: lint the ILA model and the RTL
        // and record the wall time, proving the whole pass stays
        // sub-second per design. The abstract-interpretation fast path
        // reports its own bookkeeping: `absint_s` is the fixpoint's
        // share of the wall time, `absint_discharged` the number of
        // whole (port, code) lint verdicts it decided without a single
        // SAT call. Both are deterministic, so one run's stats stand
        // for all.
        let (lint_s, absint_s, absint_discharged) = {
            let mut best = f64::INFINITY;
            let mut absint_s = 0.0;
            let mut discharged = 0u64;
            for _ in 0..runs {
                let t0 = Instant::now();
                let report =
                    lint_module(cs.name, &cs.ila, &LintOptions::default(), &Tracer::disabled());
                let _ = lint_rtl(cs.name, &cs.rtl, &Tracer::disabled());
                assert_eq!(report.errors(), 0, "{}: {}", cs.name, report.render_human());
                let s = t0.elapsed().as_secs_f64();
                if s < best {
                    best = s;
                    absint_s = report.stats.absint_ns as f64 / 1e9;
                }
                discharged = report.stats.lints_discharged_static;
            }
            (best, absint_s, discharged)
        };
        // The compiled-simulation leg: cosim throughput of both
        // backends over the same designs, feeding the hunt-throughput
        // gate (geomean compiled/interp >= 100x).
        let (cosim_interp, cosim_compiled) = cosim_rates(&cs, runs);
        // The daemon-path leg: cold (cache empty) vs warm (every slice
        // answered from the proof cache, zero solver work).
        let (serve_cold_s, serve_warm_s, cache_hit_rate) = serve_times(&cs, runs);
        // Telemetry is taken from the deterministic sequential run, so
        // artifact diffs reflect engine changes, not scheduling noise.
        let t = &seq_report.telemetry;
        let pre = &pre_report.telemetry;
        rows.push(Value::Object(vec![
            ("design".into(), cs.name.into()),
            ("instructions".into(), cs.ila.stats().instructions.into()),
            ("sequential_s".into(), sequential_s.into()),
            ("pooled_s".into(), pooled_s.into()),
            ("speedup".into(), (sequential_s / pooled_s).into()),
            // Scheduling shape of the pooled run: how many per-port
            // job batches the scheduler cut (0 = the adaptive
            // threshold routed this design to the sequential engine).
            ("batch_count".into(), pooled_report.telemetry.batches.into()),
            ("lint_s".into(), lint_s.into()),
            ("absint_s".into(), absint_s.into()),
            ("absint_discharged".into(), absint_discharged.into()),
            ("cosim_cycles_per_s_interp".into(), cosim_interp.into()),
            ("cosim_cycles_per_s_compiled".into(), cosim_compiled.into()),
            ("cosim_speedup".into(), (cosim_compiled / cosim_interp).into()),
            ("serve_cold_s".into(), serve_cold_s.into()),
            ("serve_warm_s".into(), serve_warm_s.into()),
            ("cache_hit_rate".into(), cache_hit_rate.into()),
            ("cnf_vars_pre".into(), pre.cnf_vars.into()),
            ("cnf_clauses_pre".into(), pre.cnf_clauses.into()),
            ("cnf_vars_post".into(), t.cnf_vars.into()),
            ("cnf_clauses_post".into(), t.cnf_clauses.into()),
            (
                "coi_dropped".into(),
                (t.coi_states_dropped + t.coi_inputs_dropped).into(),
            ),
            (
                "telemetry".into(),
                Value::Object(vec![
                    ("solves".into(), t.solves.into()),
                    ("decisions".into(), t.decisions.into()),
                    ("propagations".into(), t.propagations.into()),
                    ("conflicts".into(), t.conflicts.into()),
                    ("cnf_vars".into(), t.cnf_vars.into()),
                    ("cnf_clauses".into(), t.cnf_clauses.into()),
                    // Robustness counters: all zero on these unbounded
                    // runs; a nonzero value in a diff means a budget or
                    // panic path fired where none should.
                    ("unknown_count".into(), t.unknown.into()),
                    ("panicked_count".into(), t.panicked.into()),
                    ("retries".into(), t.retries.into()),
                    ("budget_spent_conflicts".into(), t.budget_spent_conflicts.into()),
                ]),
            ),
        ]));
    }
    rows
}

/// Per-row CNF size (vars + clauses) before and after preprocessing.
fn cnf_pre_post(row: &Value) -> Option<(f64, f64)> {
    let get = |k: &str| row.get(k).and_then(Value::as_u64);
    let pre = get("cnf_vars_pre")? + get("cnf_clauses_pre")?;
    let post = get("cnf_vars_post")? + get("cnf_clauses_post")?;
    Some((pre as f64, post as f64))
}

/// Geometric-mean CNF shrink across rows: 1 - geomean(post/pre).
fn geomean_cnf_reduction(rows: &[Value]) -> Option<f64> {
    let ratios: Vec<f64> = rows
        .iter()
        .map(|row| cnf_pre_post(row).map(|(pre, post)| post.max(1.0) / pre.max(1.0)))
        .collect::<Option<_>>()?;
    Some(1.0 - geomean(&ratios))
}

/// Geomean of per-row compiled/interp cosim throughput ratios.
fn geomean_cosim_speedup(rows: &[Value]) -> Option<f64> {
    let ratios: Vec<f64> = rows
        .iter()
        .map(|row| row.get("cosim_speedup").and_then(Value::as_f64))
        .collect::<Option<_>>()?;
    Some(geomean(&ratios))
}

/// Pooled wall-times keyed by design name.
fn pooled_times(doc_rows: &[Value]) -> Vec<(String, f64)> {
    doc_rows
        .iter()
        .filter_map(|row| {
            Some((
                row.get("design")?.as_str()?.to_string(),
                row.get("pooled_s")?.as_f64()?,
            ))
        })
        .collect()
}

/// Geomean of fresh/baseline pooled-time ratios over common designs.
fn geomean_time_ratio(fresh: &[Value], baseline: &[Value]) -> Option<f64> {
    let base = pooled_times(baseline);
    let ratios: Vec<f64> = pooled_times(fresh)
        .iter()
        .filter_map(|(name, s)| {
            let (_, b) = base.iter().find(|(n, _)| n == name)?;
            Some(s / b)
        })
        .collect();
    if ratios.is_empty() {
        None
    } else {
        Some(geomean(&ratios))
    }
}

fn bench(runs: usize) -> Result<(), Box<dyn std::error::Error>> {
    // Read the previously committed artifact first: the speedup-vs-
    // baseline column compares against it before it is overwritten.
    let previous = std::fs::read_to_string(ARTIFACT)
        .ok()
        .and_then(|text| gila_json::parse(&text).ok());
    let rows = bench_rows(runs);
    let mut doc = vec![
        ("benchmark".into(), "verify: sequential vs pooled".into()),
        ("pool_jobs".into(), POOL_JOBS.into()),
        ("runs_per_config".into(), runs.into()),
    ];
    if let Some(reduction) = geomean_cnf_reduction(&rows) {
        eprintln!("geomean CNF reduction (vars+clauses) vs --no-preprocess: {:.1}%", reduction * 100.0);
        doc.push(("geomean_cnf_reduction".into(), reduction.into()));
    }
    if let Some(speedup) = geomean_cosim_speedup(&rows) {
        eprintln!("geomean compiled-cosim speedup vs interpreter: {speedup:.1}x");
        doc.push(("geomean_cosim_speedup".into(), speedup.into()));
    }
    if let Some(prev_rows) = previous
        .as_ref()
        .and_then(|d| d.get("rows"))
        .and_then(Value::as_array)
    {
        if let Some(ratio) = geomean_time_ratio(&rows, prev_rows) {
            let speedup = 1.0 / ratio;
            eprintln!("geomean pooled speedup vs committed baseline: {speedup:.2}x");
            doc.push(("geomean_speedup_vs_baseline".into(), speedup.into()));
        }
    }
    doc.push(("rows".into(), Value::Array(rows)));
    std::fs::write(ARTIFACT, Value::Object(doc).pretty() + "\n")?;
    eprintln!("wrote {ARTIFACT}");
    Ok(())
}

/// Validates the artifact's schema; returns a description of the first
/// violation, if any.
fn check_artifact(doc: &Value) -> Result<(), String> {
    for key in ["benchmark", "pool_jobs", "runs_per_config"] {
        doc.get(key).ok_or_else(|| format!("missing {key:?}"))?;
    }
    doc.get("pool_jobs")
        .and_then(Value::as_usize)
        .ok_or("pool_jobs must be an integer")?;
    // The preprocessing columns must show a real, finite shrink.
    let reduction = doc
        .get("geomean_cnf_reduction")
        .and_then(Value::as_f64)
        .ok_or("missing geomean_cnf_reduction")?;
    if !(reduction.is_finite() && (0.0..1.0).contains(&reduction)) {
        return Err(format!(
            "geomean_cnf_reduction = {reduction} is not a shrink in [0, 1)"
        ));
    }
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("rows must be an array")?;
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    for row in rows {
        let design = row
            .get("design")
            .and_then(Value::as_str)
            .ok_or("row missing design name")?;
        let ctx = |key: &str| format!("{design}: bad or missing {key:?}");
        row.get("instructions")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("instructions"))?;
        for key in ["sequential_s", "pooled_s", "speedup", "lint_s"] {
            let v = row.get(key).and_then(Value::as_f64).ok_or_else(|| ctx(key))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{design}: {key} = {v} is not a positive time"));
            }
        }
        row.get("batch_count")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("batch_count"))?;
        // The static-analysis pass must stay sub-second per design.
        let lint_s = row.get("lint_s").and_then(Value::as_f64).expect("checked");
        if lint_s >= 1.0 {
            return Err(format!("{design}: lint_s = {lint_s} is not sub-second"));
        }
        // The abstract-interpretation columns: the fixpoint's share of
        // the lint time and the whole-verdict discharges it earned.
        let absint_s = row
            .get("absint_s")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("absint_s"))?;
        if !(absint_s.is_finite() && (0.0..1.0).contains(&absint_s)) {
            return Err(format!(
                "{design}: absint_s = {absint_s} is not a sub-second time"
            ));
        }
        row.get("absint_discharged")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("absint_discharged"))?;
        for key in ["cosim_cycles_per_s_interp", "cosim_cycles_per_s_compiled", "cosim_speedup"] {
            let v = row.get(key).and_then(Value::as_f64).ok_or_else(|| ctx(key))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{design}: {key} = {v} is not a positive rate"));
            }
        }
        // The daemon-path columns: both legs are real times, and the
        // warm leg must be answered entirely from the proof cache.
        for key in ["serve_cold_s", "serve_warm_s"] {
            let v = row.get(key).and_then(Value::as_f64).ok_or_else(|| ctx(key))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{design}: {key} = {v} is not a positive time"));
            }
        }
        let hit_rate = row
            .get("cache_hit_rate")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("cache_hit_rate"))?;
        if hit_rate != 1.0 {
            return Err(format!(
                "{design}: warm cache_hit_rate = {hit_rate} — the warm serve \
                 leg must be answered entirely from the proof cache"
            ));
        }
        for key in [
            "cnf_vars_pre",
            "cnf_clauses_pre",
            "cnf_vars_post",
            "cnf_clauses_post",
            "coi_dropped",
        ] {
            row.get(key).and_then(Value::as_u64).ok_or_else(|| ctx(key))?;
        }
        let (pre, post) = cnf_pre_post(row).expect("checked");
        if post > pre {
            return Err(format!(
                "{design}: post-preprocessing CNF ({post}) larger than \
                 unpreprocessed ({pre})"
            ));
        }
        let telemetry = row.get("telemetry").ok_or_else(|| ctx("telemetry"))?;
        for key in [
            "solves",
            "decisions",
            "propagations",
            "conflicts",
            "cnf_vars",
            "cnf_clauses",
            "unknown_count",
            "panicked_count",
            "retries",
            "budget_spent_conflicts",
        ] {
            telemetry
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{design}: telemetry missing counter {key:?}"))?;
        }
        // Unbounded benchmark runs must never exercise the robustness
        // machinery; any nonzero counter is a regression.
        for key in ["unknown_count", "panicked_count", "retries"] {
            let v = telemetry.get(key).and_then(Value::as_u64).expect("checked");
            if v != 0 {
                return Err(format!(
                    "{design}: {key} = {v} on an unbounded benchmark run"
                ));
            }
        }
        let solves = telemetry.get("solves").and_then(Value::as_u64).expect("checked");
        let instrs = row.get("instructions").and_then(Value::as_u64).expect("checked");
        if solves < instrs {
            return Err(format!(
                "{design}: {solves} solves for {instrs} instructions — every \
                 instruction issues at least one SAT check"
            ));
        }
    }
    // The abstract-interpretation fast path must earn its keep: at
    // least one registry design discharges at least one whole lint
    // verdict without any SAT call.
    let discharging = rows
        .iter()
        .filter(|row| {
            row.get("absint_discharged")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1)
        })
        .count();
    if discharging < 1 {
        return Err(
            "no design discharges a lint verdict statically — the absint \
             fast path is dead weight"
                .into(),
        );
    }
    // The compiled simulation backend must deliver the mass-hunting
    // throughput it exists for.
    let cosim = doc
        .get("geomean_cosim_speedup")
        .and_then(Value::as_f64)
        .ok_or("missing geomean_cosim_speedup")?;
    if !(cosim.is_finite() && cosim >= COSIM_GATE) {
        return Err(format!(
            "geomean_cosim_speedup = {cosim:.1} is below the {COSIM_GATE}x              compiled-vs-interpreter gate"
        ));
    }
    // The pool must pay for itself where it matters: on the two
    // slowest-sequential designs, pooled wall time may not exceed
    // sequential by more than the tolerance. Small designs are exempt
    // (the adaptive threshold routes them to the sequential engine, so
    // their ratio is ~1.0 by construction and any gap is noise).
    let mut by_seq: Vec<(&str, f64, f64)> = rows
        .iter()
        .map(|row| {
            (
                row.get("design").and_then(Value::as_str).expect("checked"),
                row.get("sequential_s").and_then(Value::as_f64).expect("checked"),
                row.get("pooled_s").and_then(Value::as_f64).expect("checked"),
            )
        })
        .collect();
    by_seq.sort_by(|a, b| b.1.total_cmp(&a.1));
    for &(design, sequential_s, pooled_s) in by_seq.iter().take(2) {
        if pooled_s > POOL_GATE_TOLERANCE * sequential_s {
            return Err(format!(
                "{design}: pooled_s = {pooled_s:.4} loses to sequential_s = \
                 {sequential_s:.4} beyond the {POOL_GATE_TOLERANCE}x gate — \
                 the pool no longer pays on a design it must win"
            ));
        }
    }
    Ok(())
}

fn check() -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(ARTIFACT)?;
    let doc = gila_json::parse(&text).map_err(|e| format!("{ARTIFACT}: {e}"))?;
    check_artifact(&doc).map_err(|e| format!("{ARTIFACT}: schema violation: {e}"))?;
    let rows = doc.get("rows").and_then(Value::as_array).expect("checked").len();
    eprintln!("{ARTIFACT}: schema OK ({rows} rows)");
    Ok(())
}

/// Fresh benchmark vs a committed baseline: exits with an error when the
/// geomean pooled wall-time slowed down by more than `tolerance`.
fn check_regress(
    baseline_path: &str,
    tolerance: f64,
    runs: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading --baseline {baseline_path}: {e}"))?;
    let baseline = gila_json::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let base_rows = baseline
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{baseline_path}: rows must be an array"))?;
    let fresh = bench_rows(runs);
    let ratio = geomean_time_ratio(&fresh, base_rows)
        .ok_or_else(|| format!("{baseline_path}: no designs in common with this build"))?;
    eprintln!(
        "geomean pooled wall-time vs baseline: {:.2}x ({} = {:.0}% tolerance)",
        ratio,
        baseline_path,
        tolerance * 100.0
    );
    if ratio > 1.0 + tolerance {
        return Err(format!(
            "performance regression: geomean pooled wall-time is {ratio:.2}x the \
             baseline, beyond the {tolerance} tolerance"
        )
        .into());
    }
    eprintln!("within tolerance");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = DEFAULT_RUNS;
    let mut check_only = false;
    let mut baseline: Option<String> = None;
    let mut tolerance: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check_only = true,
            "--runs" => {
                i += 1;
                runs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--runs needs a positive integer")?;
            }
            "--baseline" => {
                i += 1;
                baseline = Some(
                    args.get(i)
                        .ok_or("--baseline needs a file path")?
                        .clone(),
                );
            }
            "--check-regress" => {
                i += 1;
                tolerance = Some(
                    args.get(i)
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or("--check-regress needs a non-negative tolerance (e.g. 0.5)")?,
                );
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
        i += 1;
    }
    match (check_only, baseline, tolerance) {
        (true, None, None) => check(),
        (false, Some(path), Some(tol)) => check_regress(&path, tol, runs),
        (false, None, None) => bench(runs),
        _ => Err("--baseline and --check-regress go together (and exclude --check)".into()),
    }
}
