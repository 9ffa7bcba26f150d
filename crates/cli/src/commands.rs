//! Implementations of the `gila` subcommands.

use std::error::Error;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gila_core::ModuleIla;
use gila_lang::parse_ila;
use gila_mc::InductionOutcome;
use gila_rtl::{parse_verilog, RtlModule};
use gila_trace::Tracer;
use gila_verify::{
    cex_to_vcd, identity_refmaps, render_all_properties, synthesize_module, validate_invariants,
    verify_module, CacheConfig, CheckResult, FaultPlan, ModuleReport, ProofCache, RefinementMap,
    SolveBudget, VerifyError, VerifyOptions,
};

/// Commands return the process exit code; `Err` means a usage or input
/// error (exit 2, mapped in `main`).
pub(crate) type CmdResult = Result<u8, Box<dyn Error>>;

/// Exit code for internal faults: a panicked verification job, a
/// checkpoint journal that cannot be opened, an internal engine error,
/// or a failed write to stdout.
/// Distinct from "property failed" so scripts can tell a refuted design
/// from a broken run.
pub(crate) const EXIT_INTERNAL: u8 = 4;
/// Exit code when at least one verdict is Unknown (budget exhausted).
pub(crate) const EXIT_UNKNOWN: u8 = 3;

/// The flags each subcommand takes, without their dashes. A flag its
/// subcommand does not list is a usage error that names it, never
/// silently ignored. A flag listed with a trailing `...` may be given
/// more than once; any other flag given twice is a usage error too,
/// never a second value silently dropped.
const FLAGS: &[(&str, &[&str])] = &[
    (
        "verify",
        &[
            "ila", "spec", "rtl", "map...", "stop-at-first-cex", "conflict-budget",
            "timeout-ms", "checkpoint", "vcd", "trace", "stats",
        ],
    ),
    ("describe", &["ila", "format"]),
    ("synth", &["ila", "o"]),
    ("check-inv", &["rtl", "invariant...", "depth"]),
    ("props", &["ila", "map..."]),
    ("export", &["rtl", "prop", "o"]),
    ("sim", &["rtl", "ila", "stimulus"]),
    ("lint", &["all-designs", "rtl", "json", "deny...", "trace"]),
    (
        "hunt",
        &[
            "design...", "all-designs", "buggy", "seeds", "cycles", "jobs", "seed-base",
            "no-shrink", "out", "replay", "json", "trace",
        ],
    ),
    (
        "serve",
        &[
            "listen...", "socket...", "cache", "cache-bytes", "cache-entries", "queue-cap",
            "workers", "deadline-ms", "watchdog-factor", "drain-ms", "trace", "fault",
        ],
    ),
    (
        "client",
        &[
            "connect", "socket", "design...", "buggy", "no-cache", "deadline-ms", "retries",
            "seed", "fault", "stim", "stats", "ping", "shutdown", "json",
        ],
    ),
];

/// Checks one command-line flag, as written (`--ila`, `-o`), against
/// the flags `cmd` takes and the flags `seen` before it on the command
/// line. Commands [`FLAGS`] does not list are left to `main`.
pub(crate) fn check_flag(cmd: &str, arg: &str, seen: &[(String, String)]) -> Result<(), String> {
    let name = arg.strip_prefix("--").or(arg.strip_prefix('-')).unwrap_or(arg);
    let Some((_, known)) = FLAGS.iter().find(|(c, _)| *c == cmd) else {
        return Ok(());
    };
    match known.iter().find(|k| k.trim_end_matches("...") == name) {
        None => Err(format!("gila {cmd} has no flag {arg} (see `gila help`)")),
        Some(k) if !k.ends_with("...") && seen.iter().any(|(n, _)| n == name) => {
            Err(format!("gila {cmd} takes {arg} once"))
        }
        Some(_) => Ok(()),
    }
}

pub(crate) fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

pub(crate) fn flag_all<'a>(flags: &'a [(String, String)], name: &str) -> Vec<&'a str> {
    flags
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .collect()
}

pub(crate) fn require<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, Box<dyn Error>> {
    flag(flags, name).ok_or_else(|| format!("missing required flag --{name}").into())
}

fn load_ila(path: &str) -> Result<ModuleIla, Box<dyn Error>> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(parse_ila(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn load_rtl(path: &str) -> Result<RtlModule, Box<dyn Error>> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(parse_verilog(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn load_maps(flags: &[(String, String)]) -> Result<Vec<RefinementMap>, Box<dyn Error>> {
    let paths = flag_all(flags, "map");
    if paths.is_empty() {
        return Err("at least one --map MAP.json is required".into());
    }
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            RefinementMap::from_json(&text).map_err(|e| format!("{p}: {e}").into())
        })
        .collect()
}

/// `gila verify`: the full refinement check.
///
/// `--spec` is an alias for `--ila`; when `--rtl`/`--map` are omitted
/// the spec is checked against its own synthesized RTL with identity
/// refinement maps (a self-check that exercises the whole pipeline).
pub fn verify(flags: &[(String, String)]) -> CmdResult {
    let ila_path = flag(flags, "ila")
        .or_else(|| flag(flags, "spec"))
        .ok_or("missing required flag --ila (or --spec)")?;
    let ila = load_ila(ila_path)?;
    let rtl = match flag(flags, "rtl") {
        Some(path) => load_rtl(path)?,
        None => synthesize_module(&ila)?,
    };
    let maps = if flag_all(flags, "map").is_empty() {
        identity_refmaps(&ila)
    } else {
        load_maps(flags)?
    };
    let tracer = match flag(flags, "trace") {
        Some(path) => Tracer::jsonl_file(std::path::Path::new(path))
            .map_err(|e| format!("opening --trace {path}: {e}"))?,
        None => Tracer::disabled(),
    };
    let parse_u64 = |name: &str| -> Result<Option<u64>, Box<dyn Error>> {
        flag(flags, name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{name} expects a non-negative integer, got {v:?}").into())
            })
            .transpose()
    };
    let budget = SolveBudget {
        conflicts: parse_u64("conflict-budget")?,
        timeout: parse_u64("timeout-ms")?.map(Duration::from_millis),
    };
    // Fault injection is test-only and env-driven: the library never
    // reads the environment, the CLI forwards it explicitly.
    let fault_plan = FaultPlan::from_env()
        .map_err(|e| format!("GILA_FAULT_PLAN: {e}"))?
        .map(Arc::new);
    let journal = match flag(flags, "checkpoint") {
        Some(path) => {
            let cfg = CacheConfig {
                path: Some(PathBuf::from(path)),
                ..CacheConfig::default()
            };
            match ProofCache::open(cfg) {
                Ok(journal) => {
                    let r = journal.recovery();
                    eprintln!("journal: {} recovered, {} dropped", r.recovered, r.dropped);
                    Some(Arc::new(journal))
                }
                Err(e) => {
                    eprintln!("error: checkpoint {path}: {e}");
                    return Ok(EXIT_INTERNAL);
                }
            }
        }
        None => None,
    };
    let opts = VerifyOptions {
        stop_at_first_cex: flag(flags, "stop-at-first-cex").is_some(),
        tracer,
        budget,
        fault_plan,
        journal,
        ..VerifyOptions::default()
    };
    let report = match verify_module(&ila, &rtl, &maps, &opts) {
        Ok(report) => report,
        Err(e @ VerifyError::Internal { .. }) => {
            eprintln!("error: {e}");
            return Ok(EXIT_INTERNAL);
        }
        Err(e) => return Err(e.into()),
    };
    opts.tracer.flush();
    if let Some(path) = flag(flags, "trace") {
        eprintln!("telemetry trace written to {path}");
    }
    let mut vcd_count = 0usize;
    for port in &report.ports {
        outln!("port {}:", port.port);
        for v in &port.verdicts {
            let status = match &v.result {
                CheckResult::Holds => "HOLDS".to_string(),
                CheckResult::CounterExample(cex) => {
                    format!("FAILS ({})", cex.mismatched_states.join(", "))
                }
                CheckResult::FinishNotReached { max_cycles } => {
                    format!("VACUOUS (finish not reached within {max_cycles} cycles)")
                }
                CheckResult::Unknown {
                    reason,
                    budget_spent,
                } => format!(
                    "UNKNOWN ({} budget exhausted after {} conflicts)",
                    reason.as_str(),
                    budget_spent.conflicts
                ),
                CheckResult::JobPanicked { message } => format!("PANICKED ({message})"),
            };
            outln!(
                "  {:<28} {status:<32} {:>9.2?}  {:>8} clauses",
                v.instruction, v.time, v.stats.clauses
            );
            if let CheckResult::CounterExample(cex) = &v.result {
                if let Some(prefix) = flag(flags, "vcd") {
                    let path = format!("{prefix}_{}.vcd", sanitize(&v.instruction));
                    fs::write(&path, cex_to_vcd(cex, &port.port))?;
                    outln!("    trace written to {path}");
                    vcd_count += 1;
                }
            }
        }
    }
    let _ = vcd_count;
    outln!(
        "\n{} instructions checked in {:.2?}; peak CNF ~{:.1} MB",
        report.instructions_checked(),
        report.total_time(),
        report.peak_stats().estimated_mb()
    );
    if flag(flags, "stats").is_some() {
        print_stats_table(&report);
    }
    // Exit-code priority: internal faults trump counterexamples trump
    // resource exhaustion — a panicked or undecided run is never
    // reported as a clean pass or a clean refutation.
    let counts = report.counts();
    if counts.panicked > 0 {
        outln!(
            "RESULT: INTERNAL ERROR ({} job(s) panicked; other verdicts above are valid)",
            counts.panicked
        );
        Ok(EXIT_INTERNAL)
    } else if counts.cex > 0 || counts.unreached > 0 {
        outln!("RESULT: refinement FAILS");
        Ok(1)
    } else if counts.unknown > 0 {
        outln!(
            "RESULT: UNDECIDED ({} instruction(s) ran out of budget; \
             raise --conflict-budget/--timeout-ms; with --checkpoint only they rerun)",
            counts.unknown
        );
        Ok(EXIT_UNKNOWN)
    } else {
        outln!("RESULT: the RTL refines the ILA (all properties hold)");
        Ok(0)
    }
}

/// The `--stats` table: one row per port plus a TOTAL row, fed from
/// the same [`gila_trace::Telemetry`] totals tests and benches consume.
fn print_stats_table(report: &ModuleReport) {
    let header = format!(
        "{:<24} {:>7} {:>7} {:>10} {:>12} {:>9} {:>9} {:>11} {:>10}",
        "port", "instrs", "solves", "decisions", "propagation", "conflicts", "cnf vars", "cnf clauses", "wall"
    );
    outln!("\nTELEMETRY:\n  {header}");
    outln!("  {}", "-".repeat(header.len()));
    let row = |name: &str, t: &gila_trace::Telemetry| {
        format!(
            "{:<24} {:>7} {:>7} {:>10} {:>12} {:>9} {:>9} {:>11} {:>10.2?}",
            name,
            t.instructions,
            t.solves,
            t.decisions,
            t.propagations,
            t.conflicts,
            t.cnf_vars,
            t.cnf_clauses,
            std::time::Duration::from_nanos(t.wall_ns)
        )
    };
    for p in &report.ports {
        outln!("  {}", row(&p.port, &p.telemetry));
    }
    outln!("  {}", "-".repeat(header.len()));
    outln!("  {}", row("TOTAL", &report.telemetry));
    if report.telemetry.cache_hits + report.telemetry.cache_misses > 0 {
        outln!(
            "  journal: {} hit(s) replayed, {} miss(es) verified",
            report.telemetry.cache_hits, report.telemetry.cache_misses
        );
    }
    outln!(
        "  unknown: {}   panicked: {}   conflicts spent on exhausted budgets: {}",
        report.telemetry.unknown,
        report.telemetry.panicked,
        report.telemetry.budget_spent_conflicts
    );
    outln!(
        "  coi: dropped {} state(s) + {} input(s)",
        report.telemetry.coi_states_dropped, report.telemetry.coi_inputs_dropped
    );
    outln!(
        "  falsified: {} counterexample(s) by sampling, without SAT",
        report.telemetry.falsified
    );
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `gila describe`: print the model sketch (Figs. 1-3 style), or the
/// canonical `.ila` text with `--format ila`.
pub fn describe(flags: &[(String, String)]) -> CmdResult {
    let ila = load_ila(require(flags, "ila")?)?;
    if flag(flags, "format") == Some("ila") {
        outln!("{}", gila_lang::to_ila_text(&ila)?);
        return Ok(0);
    }
    outln!("{}", ila.describe());
    let stats = ila.stats();
    outln!(
        "{} port(s), {} atomic instructions, {} architectural state bits",
        stats.ports, stats.instructions, stats.arch_state_bits
    );
    Ok(0)
}

/// `gila synth`: generate Verilog from the specification.
pub fn synth(flags: &[(String, String)]) -> CmdResult {
    let ila = load_ila(require(flags, "ila")?)?;
    let rtl = gila_verify::synthesize_module(&ila)?;
    let verilog = rtl.to_verilog()?;
    match flag(flags, "o") {
        Some(path) => {
            fs::write(path, &verilog)?;
            outln!("wrote {path} ({} lines)", verilog.lines().count());
        }
        None => out!("{verilog}"),
    }
    Ok(0)
}

/// `gila check-inv`: prove or refute RTL invariants by k-induction.
pub fn check_inv(flags: &[(String, String)]) -> CmdResult {
    let rtl = load_rtl(require(flags, "rtl")?)?;
    let invariants: Vec<String> = flag_all(flags, "invariant")
        .into_iter()
        .map(String::from)
        .collect();
    if invariants.is_empty() {
        return Err("at least one --invariant EXPR is required".into());
    }
    let depth: usize = flag(flags, "depth").unwrap_or("3").parse()?;
    match validate_invariants(&rtl, &invariants, depth)? {
        InductionOutcome::Proved { k } => {
            outln!("PROVED: invariants are {k}-inductive");
            Ok(0)
        }
        InductionOutcome::Violated(cex) => {
            outln!(
                "REFUTED: violated {} step(s) from reset:",
                cex.violation_step
            );
            for (i, step) in cex.steps.iter().enumerate() {
                outln!("  step {i}:");
                for (name, value) in &step.states {
                    outln!("    {name:<20} = {value:?}");
                }
            }
            Ok(1)
        }
        InductionOutcome::Unknown { max_k } => {
            outln!(
                "UNKNOWN: neither proved nor refuted with induction depth <= {max_k}; \
                 raise --depth or strengthen the invariants"
            );
            Ok(1)
        }
    }
}

/// `gila export`: serialize an RTL module as a BTOR2 model-checking
/// problem (with an optional safety property) for external checkers.
pub fn export(flags: &[(String, String)]) -> CmdResult {
    let rtl = load_rtl(require(flags, "rtl")?)?;
    let mut rtl_scratch = rtl.clone();
    let (mut ts, _signals) = gila_verify::rtl_to_ts(&rtl)?;
    let prop = match flag(flags, "prop") {
        Some(expr) => {
            let e = gila_rtl::parse_rtl_expr(&mut rtl_scratch, expr)
                .map_err(|e| format!("--prop: {e}"))?;
            let mut memo = std::collections::HashMap::new();
            let e = gila_expr::import(ts.ctx_mut(), rtl_scratch.ctx(), e, &mut memo);
            ts.ctx_mut().bv_to_bool(e)
        }
        None => ts.ctx_mut().tt(),
    };
    let doc = gila_mc::to_btor2(&ts, prop)?;
    match flag(flags, "o") {
        Some(path) => {
            fs::write(path, &doc)?;
            outln!("wrote {path} ({} lines)", doc.lines().count());
        }
        None => out!("{doc}"),
    }
    Ok(0)
}

/// `gila sim`: scripted simulation of an RTL module or an `.ila` port.
///
/// The stimulus file has one cycle per line: `name=value` pairs
/// separated by whitespace (values decimal or 0x-hex). States print
/// after every cycle.
pub fn sim(flags: &[(String, String)]) -> CmdResult {
    let stim_path = require(flags, "stimulus")?;
    let stim = fs::read_to_string(stim_path).map_err(|e| format!("reading {stim_path}: {e}"))?;
    let parse_line = |line: &str| -> Result<Vec<(String, u64)>, Box<dyn Error>> {
        line.split_whitespace()
            .map(|tok| {
                let (name, value) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("bad stimulus token {tok:?}"))?;
                let value = if let Some(hex) = value.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).map_err(|e| format!("{tok:?}: {e}"))?
                } else {
                    value.parse().map_err(|e| format!("{tok:?}: {e}"))?
                };
                Ok((name.to_string(), value))
            })
            .collect()
    };
    if let Some(rtl_path) = flag(flags, "rtl") {
        let rtl = load_rtl(rtl_path)?;
        let mut sim = gila_rtl::RtlSimulator::new(&rtl);
        for (cycle, line) in stim.lines().enumerate() {
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let mut inputs = std::collections::BTreeMap::new();
            for i in rtl.inputs() {
                inputs.insert(i.name.clone(), gila_expr::BitVecValue::zero(i.width));
            }
            inputs.insert(
                "clk".to_string(),
                gila_expr::BitVecValue::from_u64(1, 1),
            );
            for (name, value) in parse_line(line)? {
                let width = rtl
                    .find_input(&name)
                    .map(|i| i.width)
                    .ok_or_else(|| format!("unknown input {name:?}"))?;
                inputs.insert(name, gila_expr::BitVecValue::from_u64(value, width));
            }
            sim.step(&inputs).map_err(|e| e.to_string())?;
            out!("cycle {cycle}:");
            for (name, v) in sim.state() {
                out!(" {name}={v:?}");
            }
            outln!();
        }
        return Ok(0);
    }
    let ila = load_ila(require(flags, "ila")?)?;
    let port = &ila.ports()[0];
    let mut sim = gila_core::PortSimulator::new(port);
    for (cycle, line) in stim.lines().enumerate() {
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let mut inputs = std::collections::BTreeMap::new();
        for i in port.inputs() {
            let v: gila_expr::Value = match i.sort {
                gila_expr::Sort::Bool => gila_expr::Value::Bool(false),
                gila_expr::Sort::Bv(w) => gila_expr::BitVecValue::zero(w).into(),
                gila_expr::Sort::Mem {
                    addr_width,
                    data_width,
                } => gila_expr::MemValue::zeroed(addr_width, data_width).into(),
            };
            inputs.insert(i.name.clone(), v);
        }
        for (name, value) in parse_line(line)? {
            let sort = port
                .find_input(&name)
                .map(|i| i.sort)
                .ok_or_else(|| format!("unknown input {name:?}"))?;
            let v: gila_expr::Value = match sort {
                gila_expr::Sort::Bool => gila_expr::Value::Bool(value != 0),
                gila_expr::Sort::Bv(w) => gila_expr::BitVecValue::from_u64(value, w).into(),
                gila_expr::Sort::Mem { .. } => {
                    return Err(format!("cannot drive memory input {name:?} from stimulus").into())
                }
            };
            inputs.insert(name, v);
        }
        let fired = sim.step(&inputs).map_err(|e| e.to_string())?;
        out!("cycle {cycle}: [{fired}]");
        for (name, v) in sim.state() {
            out!(" {name}={v:?}");
        }
        outln!();
    }
    Ok(0)
}

/// `gila lint`: SAT-backed static analysis over specs and RTL.
///
/// Exit codes: 0 = no error-class or denied findings, 1 = at least one
/// error-class or `--deny`ed finding, 2 = usage or parse error.
pub fn lint(positional: &[String], flags: &[(String, String)]) -> CmdResult {
    use gila_lint::{lint_module, lint_rtl, lint_spec, Code, LintOptions, LintReport};

    let json = flag(flags, "json").is_some();
    let mut deny = Vec::new();
    for d in flag_all(flags, "deny") {
        deny.push(
            Code::parse(d).ok_or_else(|| format!("--deny expects a GL0xx code, got {d:?}"))?,
        );
    }
    let opts = LintOptions::default();
    let tracer = match flag(flags, "trace") {
        Some(path) => Tracer::jsonl_file(std::path::Path::new(path))
            .map_err(|e| format!("opening --trace {path}: {e}"))?,
        None => Tracer::disabled(),
    };
    let mut reports: Vec<LintReport> = Vec::new();
    if flag(flags, "all-designs").is_some() {
        for cs in gila_designs::all_case_studies() {
            let mut report = lint_module(cs.name, &cs.ila, &opts, &tracer);
            report
                .diagnostics
                .extend(lint_rtl(cs.name, &cs.rtl, &tracer));
            reports.push(report);
        }
    } else if let Some(path) = positional.first() {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let spec = gila_lang::parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
        reports.push(lint_spec(path, &spec, &opts, &tracer));
    } else if flag(flags, "rtl").is_none() {
        return Err("lint needs a SPEC.ila argument, --rtl IMPL.v, or --all-designs".into());
    }
    if let Some(path) = flag(flags, "rtl") {
        let rtl = load_rtl(path)?;
        let mut report = LintReport::new(path);
        report.diagnostics = lint_rtl(path, &rtl, &tracer);
        reports.push(report);
    }
    let errors: usize = reports.iter().map(LintReport::errors).sum();
    let warnings: usize = reports.iter().map(LintReport::warnings).sum();
    let denied: usize = reports.iter().map(|r| r.denied(&deny)).sum();
    if json {
        let doc = gila_json::Value::object(vec![
            ("tool".into(), "gila-lint".into()),
            ("version".into(), 1u64.into()),
            (
                "targets".into(),
                gila_json::Value::Array(reports.iter().map(LintReport::to_json).collect()),
            ),
            (
                "summary".into(),
                gila_json::Value::object(vec![
                    ("targets".into(), reports.len().into()),
                    ("errors".into(), errors.into()),
                    ("warnings".into(), warnings.into()),
                    ("denied".into(), denied.into()),
                ]),
            ),
        ]);
        outln!("{}", doc.pretty());
    } else {
        for r in &reports {
            out!("{}", r.render_human());
        }
    }
    Ok(u8::from(errors > 0 || denied > 0))
}

/// `gila props`: print the auto-generated refinement properties.
pub fn props(flags: &[(String, String)]) -> CmdResult {
    let ila = load_ila(require(flags, "ila")?)?;
    let maps = load_maps(flags)?;
    for port in ila.ports() {
        let Some(map) = maps
            .iter()
            .find(|m| m.name == port.name())
            .or_else(|| maps.iter().find(|m| m.name == "*"))
        else {
            return Err(format!("no refinement map for port {:?}", port.name()).into());
        };
        outln!("{}", render_all_properties(port, map));
    }
    Ok(0)
}

/// Parses a number-valued flag with a default.
fn num_flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, Box<dyn Error>> {
    match flag(flags, name) {
        Some(v) => v
            .parse::<T>()
            .map_err(|_| format!("--{name} expects a number, got {v:?}").into()),
        None => Ok(default),
    }
}

/// `gila hunt`: mass randomized bug hunting on the compiled simulation
/// backend, with auto-shrunk reproducers.
///
/// Exit codes: 0 = every task clean, 1 = at least one divergence found
/// (or a `--replay` stream reproduced one), 2 = usage or input error.
pub fn hunt(flags: &[(String, String)]) -> CmdResult {
    use gila_verify::{HuntConfig, HuntTarget};

    let all = gila_designs::all_case_studies();
    let explicit = flag(flags, "all-designs").is_none();
    let mut selected: Vec<&gila_designs::CaseStudy> = Vec::new();
    if explicit {
        let wanted = flag_all(flags, "design");
        if wanted.is_empty() {
            return Err("hunt needs --design NAME (repeatable) or --all-designs".into());
        }
        for w in wanted {
            let cs = all
                .iter()
                .find(|c| c.name.eq_ignore_ascii_case(w))
                .ok_or_else(|| {
                    format!(
                        "unknown design {w:?}; known: {}",
                        all.iter().map(|c| c.name).collect::<Vec<_>>().join(", ")
                    )
                })?;
            selected.push(cs);
        }
    } else {
        selected.extend(all.iter());
    }
    let buggy = flag(flags, "buggy").is_some();
    let json = flag(flags, "json").is_some();
    fn pick_rtl(cs: &gila_designs::CaseStudy, buggy: bool) -> Option<&RtlModule> {
        if buggy {
            cs.buggy_rtl.as_ref()
        } else {
            Some(&cs.rtl)
        }
    }

    // Replay mode: deterministically re-run a recorded command stream.
    if let Some(path) = flag(flags, "replay") {
        if selected.len() != 1 || !explicit {
            return Err("--replay needs exactly one --design".into());
        }
        let cs = selected[0];
        let rtl = pick_rtl(cs, buggy)
            .ok_or_else(|| format!("{} has no bug-injected RTL variant", cs.name))?;
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let stream = gila_verify::parse_command_stream(&text, rtl)?;
        if let Some((port, d)) = gila_verify::replay_ports(&cs.ila, rtl, &cs.refmaps, &stream) {
            if json {
                let doc = gila_json::Value::object(vec![
                    ("design".into(), cs.name.into()),
                    ("port".into(), port.name().into()),
                    ("cycle".into(), (d.cycle as u64).into()),
                    ("instruction".into(), d.instruction.clone().into()),
                    ("state".into(), d.state.clone().into()),
                    ("ila".into(), gila_verify::render_value(&d.ila_value).into()),
                    ("rtl".into(), gila_verify::render_value(&d.rtl_value).into()),
                    ("command_stream".into(), d.command_stream().into()),
                ]);
                outln!("{}", doc.pretty());
            } else {
                outln!("[{}/{}] {d}", cs.name, port.name());
            }
            return Ok(1);
        }
        outln!(
            "replay: no divergence reproduced on {} over {} cycles",
            cs.name,
            stream.inputs.len()
        );
        return Ok(0);
    }

    let config = HuntConfig {
        seeds: num_flag(flags, "seeds", 256u64)?,
        cycles: num_flag(flags, "cycles", 1024usize)?,
        jobs: num_flag(flags, "jobs", 1usize)?,
        seed_base: num_flag(flags, "seed-base", 0xB06u64)?,
        shrink: flag(flags, "no-shrink").is_none(),
    };
    let tracer = match flag(flags, "trace") {
        Some(path) => Tracer::jsonl_file(std::path::Path::new(path))
            .map_err(|e| format!("opening --trace {path}: {e}"))?,
        None => Tracer::disabled(),
    };
    let mut targets = Vec::new();
    for cs in &selected {
        let Some(rtl) = pick_rtl(cs, buggy) else {
            if explicit {
                return Err(format!("{} has no bug-injected RTL variant", cs.name).into());
            }
            continue;
        };
        for port in cs.ila.ports() {
            let Some(map) = cs.refmaps.iter().find(|m| m.name == port.name()) else {
                continue;
            };
            targets.push(HuntTarget {
                design: cs.name,
                port,
                rtl,
                map,
            });
        }
    }
    if targets.is_empty() {
        return Err(
            "no hunt targets (with --buggy only designs with a bug-injected variant qualify)"
                .into(),
        );
    }
    let report = gila_verify::hunt(&targets, &config, &tracer).map_err(|e| e.to_string())?;

    if let Some(dir) = flag(flags, "out") {
        fs::create_dir_all(dir).map_err(|e| format!("creating --out {dir}: {e}"))?;
        for f in &report.findings {
            let stream = f
                .shrunk
                .as_ref()
                .map(|s| s.divergence.command_stream())
                .unwrap_or_else(|| f.divergence.command_stream());
            let path = PathBuf::from(dir).join(format!(
                "{}_{}_{}.stim",
                sanitize(&f.design),
                sanitize(&f.port),
                f.seed
            ));
            fs::write(&path, stream).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }

    if json {
        let findings: Vec<gila_json::Value> = report
            .findings
            .iter()
            .map(|f| {
                let d = f.shrunk.as_ref().map(|s| &s.divergence).unwrap_or(&f.divergence);
                let mut fields = vec![
                    ("design".into(), f.design.clone().into()),
                    ("port".into(), f.port.clone().into()),
                    ("seed".into(), f.seed.into()),
                    ("state".into(), d.state.clone().into()),
                    ("instruction".into(), d.instruction.clone().into()),
                    ("cycle".into(), (d.cycle as u64).into()),
                    ("ila".into(), gila_verify::render_value(&d.ila_value).into()),
                    ("rtl".into(), gila_verify::render_value(&d.rtl_value).into()),
                    ("command_stream".into(), d.command_stream().into()),
                ];
                if let Some(s) = &f.shrunk {
                    fields.push((
                        "shrunk".into(),
                        gila_json::Value::object(vec![
                            ("commands".into(), (s.divergence.inputs.len() as u64).into()),
                            ("original_cycles".into(), (s.original_cycles as u64).into()),
                            ("replays".into(), (s.replays as u64).into()),
                        ]),
                    ));
                }
                gila_json::Value::object(fields)
            })
            .collect();
        let errors: Vec<gila_json::Value> = report
            .errors
            .iter()
            .map(|(design, port, seed, error)| {
                gila_json::Value::object(vec![
                    ("design".into(), design.clone().into()),
                    ("port".into(), port.clone().into()),
                    ("seed".into(), (*seed).into()),
                    ("error".into(), error.clone().into()),
                ])
            })
            .collect();
        let doc = gila_json::Value::object(vec![
            ("tool".into(), "gila-hunt".into()),
            ("version".into(), 1u64.into()),
            ("tasks".into(), (report.tasks as u64).into()),
            ("clean_tasks".into(), (report.clean_tasks as u64).into()),
            ("cycles_run".into(), report.cycles_run.into()),
            ("findings".into(), gila_json::Value::Array(findings)),
            ("errors".into(), gila_json::Value::Array(errors)),
        ]);
        outln!("{}", doc.pretty());
    } else {
        outln!(
            "hunt: {} tasks over {} targets ({} seeds x {} cycles, jobs={}), {} cycles co-simulated",
            report.tasks,
            targets.len(),
            config.seeds,
            config.cycles,
            config.jobs,
            report.cycles_run,
        );
        for f in &report.findings {
            let d = f.shrunk.as_ref().map(|s| &s.divergence).unwrap_or(&f.divergence);
            outln!(
                "\n[{}/{} seed {}] state {:?} diverged at cycle {} after {:?}: ila = {}, rtl = {}",
                f.design,
                f.port,
                f.seed,
                d.state,
                d.cycle,
                d.instruction,
                gila_verify::render_value(&d.ila_value),
                gila_verify::render_value(&d.rtl_value),
            );
            if let Some(s) = &f.shrunk {
                outln!(
                    "  shrunk to {} command(s) from {} cycle(s) in {} replay(s)",
                    s.divergence.inputs.len(),
                    s.original_cycles,
                    s.replays
                );
            }
            out!("{}", d.command_stream());
        }
        for (design, port, seed, error) in &report.errors {
            outln!("\n[{design}/{port} seed {seed}] error: {error}");
        }
        outln!(
            "\n{} clean, {} divergence(s), {} error(s)",
            report.clean_tasks,
            report.findings.len(),
            report.errors.len()
        );
    }
    Ok(u8::from(!report.findings.is_empty()))
}
