//! The spec-side pass pipeline: decode proofs, state-usage analysis,
//! width notes, and composition checks.

use std::collections::BTreeSet;
use std::time::Instant;

use gila_absint::{analyze_port, uninit_reads, DecodeOracle};
use gila_core::{
    decode_gap, decode_overlap_pair, instruction_dead, ModuleIla, PortIla, StateKind,
};
use gila_expr::{abs_eval, abs_eval_nodes, AbsBool, AbsValue, ExprNode, Op, Sort};
use gila_lang::{ElabNote, SpecFile};
use gila_trace::{Event, SpanKind, Tracer};

use crate::{Code, Diagnostic, LintReport, LintStats};

/// Tuning knobs for a lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Worker threads for the per-port passes (the SAT-backed decode
    /// proofs dominate); diagnostics come back in declaration order
    /// regardless, so output is identical at any job count.
    pub jobs: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { jobs: 1 }
    }
}

/// Names a port's instructions read (decode + update right-hand sides)
/// and the states they write.
struct Usage {
    read: BTreeSet<String>,
    written: BTreeSet<String>,
}

fn usage_of(port: &PortIla) -> Usage {
    let mut roots = Vec::new();
    for i in port.instructions() {
        roots.push(i.decode);
        roots.extend(i.updates.values().copied());
    }
    Usage {
        read: port
            .ctx()
            .vars_of(&roots)
            .into_iter()
            .filter_map(|v| port.ctx().var_name(v).map(str::to_string))
            .collect(),
        written: port
            .instructions()
            .iter()
            .flat_map(|i| i.updates.keys().cloned())
            .collect(),
    }
}

/// Pass 1+2: decode completeness/determinism proofs plus dead-
/// instruction detection. Each SAT query is first offered to the
/// [`DecodeOracle`]; a conclusive abstract verdict settles the question
/// without the solver. Verdicts that *report* a finding with a witness
/// (a gap or an overlap) always go to SAT, so every witness is the
/// solver's. In debug builds each settled question is asked of SAT as
/// well, and the two answers must agree. The oracle's construction and
/// queries count towards [`LintStats::absint_ns`].
///
/// Returns the diagnostics and the declaration indices of dead
/// instructions (consumed by the GL017 pass, which must not re-report
/// them).
fn decode_pass(port: &PortIla, stats: &mut LintStats) -> (Vec<Diagnostic>, Vec<usize>) {
    let mut ds = Vec::new();
    let mut dead = Vec::new();
    if port.instructions().is_empty() {
        return (ds, dead);
    }
    let oracle = absint_timed(stats, || DecodeOracle::new(port));
    let n = port.instructions().len();
    let mut all_dead_static = true;
    for idx in 0..n {
        let is_dead = match absint_timed(stats, || oracle.decode_satisfiable(idx)) {
            Some(sat) => {
                debug_assert_eq!(
                    !sat,
                    instruction_dead(port, idx, None),
                    "oracle and SAT disagree on whether port '{}' instruction {idx} is dead",
                    port.name()
                );
                stats.sat_calls_avoided += 1;
                !sat
            }
            None => {
                all_dead_static = false;
                instruction_dead(port, idx, None)
            }
        };
        if !is_dead {
            continue;
        }
        dead.push(idx);
        let name = port.instructions()[idx].name.clone();
        let line = port.find_instruction(&name).and_then(|i| i.line);
        ds.push(
            Diagnostic::new(
                Code::DeadInstruction,
                format!(
                    "port '{}': instruction '{}' can never trigger: its decode \
                     condition is unsatisfiable",
                    port.name(),
                    name
                ),
            )
            .port(port.name())
            .instruction(&name)
            .at(line),
        );
    }
    if all_dead_static {
        stats.lints_discharged_static += 1;
    }
    if absint_timed(stats, || oracle.no_gap()) == Some(true) {
        debug_assert!(
            decode_gap(port, None).is_none(),
            "oracle proved port '{}' gap-free but SAT found a gap",
            port.name()
        );
        stats.sat_calls_avoided += 1;
        stats.lints_discharged_static += 1;
    } else if let Some(w) = decode_gap(port, None) {
        ds.push(
            Diagnostic::new(
                Code::DecodeGap,
                format!(
                    "port '{}': decode is incomplete: no instruction triggers \
                     on the witness command",
                    port.name()
                ),
            )
            .port(port.name())
            .witness(w),
        );
    }
    let mut all_pairs_static = true;
    for i in 0..n {
        for j in (i + 1)..n {
            if absint_timed(stats, || oracle.pair_disjoint(i, j)) == Some(true) {
                debug_assert!(
                    decode_overlap_pair(port, i, j, None).is_none(),
                    "oracle proved port '{}' instructions {i} and {j} disjoint but SAT \
                     found an overlap",
                    port.name()
                );
                stats.sat_calls_avoided += 1;
                continue;
            }
            all_pairs_static = false;
            let Some(o) = decode_overlap_pair(port, i, j, None) else {
                continue;
            };
            let line = port.find_instruction(&o.second).and_then(|i| i.line);
            ds.push(
                Diagnostic::new(
                    Code::DecodeOverlap,
                    format!(
                        "port '{}': instructions '{}' and '{}' can trigger on the \
                         same command",
                        port.name(),
                        o.first,
                        o.second
                    ),
                )
                .port(port.name())
                .instruction(&format!("{} & {}", o.first, o.second))
                .at(line)
                .witness(o.witness),
            );
        }
    }
    if n > 1 && all_pairs_static {
        stats.lints_discharged_static += 1;
    }
    (ds, dead)
}

/// Runs `f`, adding its wall time to `stats.absint_ns`.
fn absint_timed<T>(stats: &mut LintStats, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    stats.absint_ns += t0.elapsed().as_nanos() as u64;
    out
}

/// Pass 3: unused / never-written / write-only architectural state.
///
/// `usage` holds every port's read/written sets and `idx` names the
/// port under analysis: a state another port of the same module reads
/// or writes is shared, not dead — sibling usage suppresses the lint.
fn state_pass(port: &PortIla, usage: &[Usage], idx: usize) -> Vec<Diagnostic> {
    let read = &usage[idx].read;
    let written = &usage[idx].written;
    let elsewhere = |f: fn(&Usage) -> &BTreeSet<String>, name: &str| {
        usage
            .iter()
            .enumerate()
            .any(|(j, u)| j != idx && f(u).contains(name))
    };
    let mut ds = Vec::new();
    for i in port.inputs() {
        if !read.contains(&i.name) {
            ds.push(
                Diagnostic::new(
                    Code::UnusedVar,
                    format!("port '{}': input '{}' is never used", port.name(), i.name),
                )
                .port(port.name())
                .state(&i.name)
                .at(i.line),
            );
        }
    }
    for s in port.states() {
        let r = read.contains(&s.name) || elsewhere(|u| &u.read, &s.name);
        let w = written.contains(&s.name) || elsewhere(|u| &u.written, &s.name);
        if !r && !w {
            ds.push(
                Diagnostic::new(
                    Code::UnusedVar,
                    format!(
                        "port '{}': state '{}' is never read or written",
                        port.name(),
                        s.name
                    ),
                )
                .port(port.name())
                .state(&s.name)
                .at(s.line),
            );
        } else if r && !w && s.init.is_none() {
            ds.push(
                Diagnostic::new(
                    Code::ReadNeverWritten,
                    format!(
                        "port '{}': state '{}' is read but never written and \
                         has no reset value",
                        port.name(),
                        s.name
                    ),
                )
                .port(port.name())
                .state(&s.name)
                .at(s.line),
            );
        } else if w && !r && s.kind == StateKind::Internal {
            ds.push(
                Diagnostic::new(
                    Code::WriteOnlyState,
                    format!(
                        "port '{}': internal state '{}' is written but never read",
                        port.name(),
                        s.name
                    ),
                )
                .port(port.name())
                .state(&s.name)
                .at(s.line),
            );
        }
    }
    ds
}

/// Pass 6 ("absint"): the word-level abstract-interpretation lints.
///
/// * **GL014** — an init-less state some instruction can consume before
///   any instruction has written it ([`uninit_reads`]).
/// * **GL015** — a truncation (`extract [hi:0]`) that provably drops a
///   set bit under the port's inductive fixpoint environment.
/// * **GL016** — an output state the fixpoint proves equal to one
///   constant in every reachable state.
/// * **GL017** — an instruction whose decode is satisfiable in
///   isolation (not GL003-dead) yet provably false in every reachable
///   state.
///
/// The pass is an analysis, not a fast path: every finding stands on
/// the fixpoint alone, with no SAT query behind it.
fn absint_pass(port: &PortIla, dead: &[usize]) -> Vec<Diagnostic> {
    let mut ds = Vec::new();
    for r in uninit_reads(port) {
        let line = port.find_state(&r.state).and_then(|s| s.line);
        ds.push(
            Diagnostic::new(
                Code::UninitStateRead,
                format!(
                    "port '{}': state '{}' has no reset value but instruction \
                     '{}' can read it before any instruction has written it",
                    port.name(),
                    r.state,
                    r.instruction
                ),
            )
            .port(port.name())
            .instruction(&r.instruction)
            .state(&r.state)
            .at(line),
        );
    }
    if port.instructions().is_empty() {
        return ds;
    }
    let analysis = analyze_port(port);
    let ctx = port.ctx();
    // GL015: a truncation at the *root* of an update — the shape the
    // elaborator gives a truncating assignment, as opposed to a
    // deliberate nested bit-slice — whose dropped high bits are
    // provably set under the reachable-state environment refined by
    // the instruction's own decode.
    for instr in port.instructions() {
        let Some(env) = gila_absint::assume(ctx, instr.decode, &analysis.env) else {
            // Decode refuted in every reachable state: GL017 territory.
            continue;
        };
        for (state, rhs) in &instr.updates {
            let ExprNode::App {
                op: Op::BvExtract { hi, lo: 0 },
                args,
                ..
            } = ctx.node(*rhs)
            else {
                continue;
            };
            let arg = args[0];
            let Sort::Bv(w) = ctx.sort_of(arg) else {
                continue;
            };
            if hi + 1 >= w {
                continue;
            }
            let vals = abs_eval_nodes(ctx, &[*rhs], &env);
            let Some(AbsValue::Bv(bv)) = vals.get(&arg) else {
                continue;
            };
            if bv.is_bottom() {
                continue;
            }
            if let Some(bit) = (hi + 1..w).find(|&b| bv.known_one().bit(b)) {
                ds.push(
                    Diagnostic::new(
                        Code::TruncatedSetBits,
                        format!(
                            "port '{}', instruction '{}': assignment to '{}' \
                             truncates bv{} to bv{} and drops bit {}, which \
                             is provably set",
                            port.name(),
                            instr.name,
                            state,
                            w,
                            hi + 1,
                            bit
                        ),
                    )
                    .port(port.name())
                    .instruction(&instr.name)
                    .state(state)
                    .at(instr.line),
                );
            }
        }
    }
    // GL016: outputs some instruction writes, yet the fixpoint proves
    // they can only ever hold one value. Never-written outputs are
    // GL004's territory.
    let written: BTreeSet<&str> = port
        .instructions()
        .iter()
        .flat_map(|i| i.updates.keys())
        .map(String::as_str)
        .collect();
    for s in port.states() {
        if s.kind != StateKind::Output || !written.contains(s.name.as_str()) {
            continue;
        }
        let Some(v) = analysis.env.get(s.var) else {
            continue;
        };
        if let Some(c) = v.as_exact() {
            ds.push(
                Diagnostic::new(
                    Code::ConstantOutput,
                    format!(
                        "port '{}': output '{}' is written but provably constant: \
                         it reads {} in every reachable state",
                        port.name(),
                        s.name,
                        crate::value_str(&c)
                    ),
                )
                .port(port.name())
                .state(&s.name)
                .at(s.line),
            );
        }
    }
    // GL017: reachability-aware dead decode. GL003 (arbitrary-state
    // unsatisfiability) subsumes these instructions when it fires, so
    // SAT-confirmed dead ones are skipped.
    for (idx, instr) in port.instructions().iter().enumerate() {
        if dead.contains(&idx) {
            continue;
        }
        if abs_eval(ctx, instr.decode, &analysis.env) == AbsValue::Bool(AbsBool::False) {
            ds.push(
                Diagnostic::new(
                    Code::UnreachableInstruction,
                    format!(
                        "port '{}': instruction '{}' can never trigger: its decode \
                         condition is provably false in every reachable state",
                        port.name(),
                        instr.name
                    ),
                )
                .port(port.name())
                .instruction(&instr.name)
                .at(instr.line),
            );
        }
    }
    ds
}

/// Per-port pass results, kept separate per pass so callers can emit
/// one timing span per pass.
struct PortDiags {
    decode: Vec<Diagnostic>,
    state: Vec<Diagnostic>,
    absint: Vec<Diagnostic>,
    decode_ns: u64,
    state_ns: u64,
    absint_ns: u64,
    stats: LintStats,
}

fn port_diags(port: &PortIla, usage: &[Usage], idx: usize) -> PortDiags {
    let mut stats = LintStats::default();
    let t0 = Instant::now();
    let (decode, dead) = decode_pass(port, &mut stats);
    let decode_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let state = state_pass(port, usage, idx);
    let state_ns = t1.elapsed().as_nanos() as u64;
    let t2 = Instant::now();
    let absint = absint_pass(port, &dead);
    let absint_ns = t2.elapsed().as_nanos() as u64;
    stats.absint_ns += absint_ns;
    PortDiags {
        decode,
        state,
        absint,
        decode_ns,
        state_ns,
        absint_ns,
        stats,
    }
}

/// Runs the per-port passes, fanning ports out over `opts.jobs` worker
/// threads. Results come back in declaration order, so output does not
/// depend on the job count.
fn run_port_passes(ports: &[&PortIla], opts: &LintOptions) -> Vec<PortDiags> {
    let usage: Vec<Usage> = ports.iter().map(|p| usage_of(p)).collect();
    let usage = &usage;
    let jobs = opts.jobs.max(1).min(ports.len().max(1));
    if jobs <= 1 {
        return ports
            .iter()
            .enumerate()
            .map(|(i, p)| port_diags(p, usage, i))
            .collect();
    }
    let mut slots: Vec<Option<PortDiags>> = Vec::new();
    slots.resize_with(ports.len(), || None);
    std::thread::scope(|scope| {
        let mut pending: Vec<(usize, &mut Option<PortDiags>)> =
            slots.iter_mut().enumerate().collect();
        let mut shards: Vec<Vec<(usize, &mut Option<PortDiags>)>> = Vec::new();
        shards.resize_with(jobs, Vec::new);
        for (i, slot) in pending.drain(..) {
            shards[i % jobs].push((i, slot));
        }
        for shard in shards {
            scope.spawn(move || {
                for (i, slot) in shard {
                    *slot = Some(port_diags(ports[i], usage, i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker filled slot"))
        .collect()
}

/// Emits one `lint_pass` span for a pass over `target`.
fn span(tracer: &Tracer, target: &str, pass: &str, diags: usize, wall_ns: u64) {
    tracer.record(|| {
        Event::new(SpanKind::LintPass)
            .port(target)
            .label(pass)
            .field("diags", diags as u64)
            .field("wall_ns", wall_ns)
    });
}

/// Collects the per-port findings (interleaved per port, declaration
/// order) and emits one timing span per pass.
fn collect_port_passes(
    report: &mut LintReport,
    ports: &[&PortIla],
    opts: &LintOptions,
    tracer: &Tracer,
) {
    let results = run_port_passes(ports, opts);
    let (mut decode_n, mut decode_ns, mut state_n, mut state_ns) = (0, 0, 0, 0);
    let (mut absint_n, mut absint_ns) = (0, 0);
    for r in results {
        decode_n += r.decode.len();
        decode_ns += r.decode_ns;
        state_n += r.state.len();
        state_ns += r.state_ns;
        absint_n += r.absint.len();
        absint_ns += r.absint_ns;
        report.stats.merge(&r.stats);
        report.diagnostics.extend(r.decode);
        report.diagnostics.extend(r.state);
        report.diagnostics.extend(r.absint);
    }
    span(tracer, &report.target, "decode", decode_n, decode_ns);
    span(tracer, &report.target, "state_usage", state_n, state_ns);
    span(tracer, &report.target, "absint", absint_n, absint_ns);
}

/// Pass 4: surfaces the implicit width adjustments the elaborator
/// recorded while parsing.
fn width_pass(report: &mut LintReport, notes: &[ElabNote]) {
    for note in notes {
        match note {
            ElabNote::TruncatedAssign {
                port,
                instruction,
                state,
                line,
                from_width,
                to_width,
            } => report.diagnostics.push(
                Diagnostic::new(
                    Code::TruncatedAssign,
                    format!(
                        "port '{port}', instruction '{instruction}': assignment \
                         to '{state}' truncates a bv{from_width} value to bv{to_width}"
                    ),
                )
                .port(port)
                .instruction(instruction)
                .state(state)
                .at(Some(*line)),
            ),
            ElabNote::WidthMismatch {
                port,
                instruction,
                op,
                line,
                left_width,
                right_width,
            } => report.diagnostics.push(
                Diagnostic::new(
                    Code::WidthMismatch,
                    format!(
                        "port '{port}', instruction '{instruction}': operands of \
                         '{op}' have widths bv{left_width} and bv{right_width}; \
                         the narrower is implicitly zero-extended"
                    ),
                )
                .port(port)
                .instruction(instruction)
                .at(Some(*line)),
            ),
        }
    }
}

/// Pass 5: composition lints — unresolved `integrate` gaps and shared
/// updated states no directive covers, surfaced statically.
fn compose_pass(report: &mut LintReport, spec: &SpecFile) {
    for integ in &spec.integrations {
        for gap in &integ.gaps {
            report.diagnostics.push(
                Diagnostic::new(
                    Code::UnresolvedConflict,
                    format!(
                        "integrate '{}' (resolve {}): {}",
                        integ.name, integ.resolver, gap
                    ),
                )
                .port(&integ.name)
                .state(&gap.state)
                .at(Some(integ.line)),
            );
        }
    }
    for state in &spec.unintegrated_shared {
        let updaters: Vec<&str> = spec
            .ports
            .iter()
            .filter(|p| {
                p.instructions()
                    .iter()
                    .any(|i| i.updates.contains_key(state))
            })
            .map(|p| p.name())
            .collect();
        let line = spec
            .ports
            .iter()
            .find(|p| updaters.contains(&p.name()))
            .and_then(|p| p.find_state(state))
            .and_then(|s| s.line);
        report.diagnostics.push(
            Diagnostic::new(
                Code::UnintegratedShared,
                format!(
                    "state '{}' is updated by ports {} but no integrate \
                     directive covers them; composing this module will fail",
                    state,
                    updaters
                        .iter()
                        .map(|p| format!("'{p}'"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .state(state)
            .at(line),
        );
    }
}

/// Lints a leniently parsed `.ila` file: per-port decode proofs and
/// state usage on the *pre-integration* ports (where source spans
/// live), the elaborator's width notes, and the composition findings.
pub fn lint_spec(
    target: &str,
    spec: &SpecFile,
    opts: &LintOptions,
    tracer: &Tracer,
) -> LintReport {
    let mut report = LintReport::new(target);
    let refs: Vec<&PortIla> = spec.ports.iter().collect();
    collect_port_passes(&mut report, &refs, opts, tracer);
    let t0 = Instant::now();
    let before = report.diagnostics.len();
    width_pass(&mut report, &spec.notes);
    span(
        tracer,
        target,
        "width",
        report.diagnostics.len() - before,
        t0.elapsed().as_nanos() as u64,
    );
    let t1 = Instant::now();
    let before = report.diagnostics.len();
    compose_pass(&mut report, spec);
    span(
        tracer,
        target,
        "compose",
        report.diagnostics.len() - before,
        t1.elapsed().as_nanos() as u64,
    );
    report
}

/// Lints a built module-ILA (e.g. a registry design): the per-port
/// decode proofs and state-usage passes. Built models carry no source
/// spans or elaboration notes, so the width pass does not apply, and
/// composition already succeeded by construction.
pub fn lint_module(
    target: &str,
    module: &ModuleIla,
    opts: &LintOptions,
    tracer: &Tracer,
) -> LintReport {
    let mut report = LintReport::new(target);
    let refs: Vec<&PortIla> = module.ports().iter().collect();
    collect_port_passes(&mut report, &refs, opts, tracer);
    report
}
