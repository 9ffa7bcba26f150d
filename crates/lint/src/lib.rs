//! # gila-lint — SAT-backed static analysis for ILA specs and RTL
//!
//! The paper's methodology hinges on catching *specification gaps* —
//! incomplete decode coverage, overlapping instruction triggers, and
//! unresolved shared-state conflicts — before any model checking runs.
//! This crate unifies those checks (and a family of cheaper structural
//! lints) behind one diagnostic surface:
//!
//! * stable diagnostic codes (`GL001`..) with fixed severities,
//! * source spans threaded from the `.ila` parser,
//! * concrete SAT witnesses for the decode proofs,
//! * human-readable and JSON renderers (via `gila-json`),
//! * per-pass timing emitted as `gila-trace` spans.
//!
//! Entry points: [`lint_spec`] for a parsed `.ila` file (maximum
//! fidelity: spans, width notes, composition findings),
//! [`lint_module`] for a programmatically built [`ModuleIla`](gila_core::ModuleIla), and
//! [`lint_rtl`] for an elaborated [`RtlModule`](gila_rtl::RtlModule).
//!
//! ```
//! use gila_lint::{lint_spec, LintOptions};
//!
//! let spec = gila_lang::parse_spec(r#"
//! port p {
//!   input x : bv1
//!   state ghost : bv8
//!   instr only when x == 1 { }
//! }
//! "#)?;
//! let report = lint_spec("p.ila", &spec, &LintOptions::default(), &gila_trace::Tracer::disabled());
//! // x == 0 is uncovered (GL001) and `ghost` is never touched (GL004).
//! assert_eq!(report.diagnostics.len(), 2);
//! assert_eq!(report.errors(), 0);
//! # Ok::<(), gila_lang::IlaSyntaxError>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

use gila_core::Witness;
use gila_expr::Value;
use gila_json::Value as Json;

mod passes;
mod rtl;

pub use passes::{lint_module, lint_spec, LintOptions};
pub use rtl::lint_rtl;

/// How serious a diagnostic is.
///
/// Errors are findings that make verification unsound or impossible
/// (nondeterministic decode, dead instructions, unresolved shared-state
/// conflicts); warnings flag suspicious but potentially intentional
/// specifications (decode gaps scoped by a reachability assumption,
/// write-only state, implicit truncation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly intentional.
    Warning,
    /// A well-formedness violation.
    Error,
}

impl Severity {
    /// Lower-case name, as rendered in diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. Codes are append-only: a code never changes
/// meaning or severity class once released, so `--deny` lists and CI
/// filters stay valid across versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// GL001: the decode functions do not cover every command.
    DecodeGap,
    /// GL002: two instructions can trigger on the same command.
    DecodeOverlap,
    /// GL003: an instruction's decode condition is unsatisfiable.
    DeadInstruction,
    /// GL004: an input or state is never referenced.
    UnusedVar,
    /// GL005: a state is read but never written and has no reset value.
    ReadNeverWritten,
    /// GL006: an internal state is written but never read.
    WriteOnlyState,
    /// GL007: an assignment silently truncated its right-hand side.
    TruncatedAssign,
    /// GL008: operands of unequal widths were implicitly zero-extended.
    WidthMismatch,
    /// GL009: an `integrate` directive left a specification gap.
    UnresolvedConflict,
    /// GL010: ports update a shared state no directive integrates.
    UnintegratedShared,
    /// GL011: an RTL input pin drives nothing.
    RtlUnusedInput,
    /// GL012: an RTL state element is never driven and has no reset.
    RtlUndrivenState,
    /// GL013: an RTL state element never influences an output.
    RtlDeadState,
    /// GL014: an init-less state can be read before it is ever written.
    UninitStateRead,
    /// GL015: a truncation drops bits that are provably set.
    TruncatedSetBits,
    /// GL016: an output state provably never changes from one constant.
    ConstantOutput,
    /// GL017: an instruction's decode is satisfiable in isolation but
    /// provably false in every reachable state.
    UnreachableInstruction,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 17] = [
        Code::DecodeGap,
        Code::DecodeOverlap,
        Code::DeadInstruction,
        Code::UnusedVar,
        Code::ReadNeverWritten,
        Code::WriteOnlyState,
        Code::TruncatedAssign,
        Code::WidthMismatch,
        Code::UnresolvedConflict,
        Code::UnintegratedShared,
        Code::RtlUnusedInput,
        Code::RtlUndrivenState,
        Code::RtlDeadState,
        Code::UninitStateRead,
        Code::TruncatedSetBits,
        Code::ConstantOutput,
        Code::UnreachableInstruction,
    ];

    /// The stable `GL0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DecodeGap => "GL001",
            Code::DecodeOverlap => "GL002",
            Code::DeadInstruction => "GL003",
            Code::UnusedVar => "GL004",
            Code::ReadNeverWritten => "GL005",
            Code::WriteOnlyState => "GL006",
            Code::TruncatedAssign => "GL007",
            Code::WidthMismatch => "GL008",
            Code::UnresolvedConflict => "GL009",
            Code::UnintegratedShared => "GL010",
            Code::RtlUnusedInput => "GL011",
            Code::RtlUndrivenState => "GL012",
            Code::RtlDeadState => "GL013",
            Code::UninitStateRead => "GL014",
            Code::TruncatedSetBits => "GL015",
            Code::ConstantOutput => "GL016",
            Code::UnreachableInstruction => "GL017",
        }
    }

    /// The fixed severity class of this code.
    ///
    /// Decode gaps are warnings, not errors: several real designs (the
    /// OpenPiton L2 pipes, for instance) are deliberately incomplete
    /// outside a reachability assumption the lint cannot know about.
    pub fn severity(self) -> Severity {
        match self {
            Code::DecodeOverlap
            | Code::DeadInstruction
            | Code::UnresolvedConflict
            | Code::UnintegratedShared => Severity::Error,
            _ => Severity::Warning,
        }
    }

    /// Parses a `GL0xx` identifier (as accepted by `--deny`).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a coded, located, self-describing message, optionally
/// carrying the SAT witness that proves it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: Code,
    /// The port (or RTL module) the finding is about, if any.
    pub port: String,
    /// The instruction involved, if any.
    pub instruction: String,
    /// The state/input/signal involved, if any.
    pub state: String,
    /// Source line in the `.ila` file, when known.
    pub line: Option<usize>,
    /// Human-readable description (already includes the context names).
    pub message: String,
    /// A concrete command witnessing the finding (decode proofs only).
    pub witness: Option<Witness>,
}

impl Diagnostic {
    /// Creates a diagnostic with empty context fields.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            port: String::new(),
            instruction: String::new(),
            state: String::new(),
            line: None,
            message: message.into(),
            witness: None,
        }
    }

    /// Sets the port context.
    pub fn port(mut self, port: &str) -> Diagnostic {
        self.port = port.to_string();
        self
    }

    /// Sets the instruction context.
    pub fn instruction(mut self, instruction: &str) -> Diagnostic {
        self.instruction = instruction.to_string();
        self
    }

    /// Sets the state/input/signal context.
    pub fn state(mut self, state: &str) -> Diagnostic {
        self.state = state.to_string();
        self
    }

    /// Sets the source line.
    pub fn at(mut self, line: Option<usize>) -> Diagnostic {
        self.line = line;
        self
    }

    /// Attaches a witness command.
    pub fn witness(mut self, witness: Witness) -> Diagnostic {
        self.witness = Some(witness);
        self
    }

    /// The diagnostic's severity (fixed by its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// A stable identity for the finding: FNV-1a over the code and the
    /// context names (port, instruction, state), *not* over the message
    /// text, the source line, or the witness. Rewording a message or
    /// inserting lines above a finding keeps its fingerprint, so
    /// suppression lists and CI diffs can track findings across edits.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        for part in [
            self.code.as_str(),
            &self.port,
            &self.instruction,
            &self.state,
        ] {
            for b in part.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            // Separator so ("ab","c") and ("a","bc") differ.
            h ^= 0xff;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = vec![
            ("code".into(), self.code.as_str().into()),
            ("severity".into(), self.severity().as_str().into()),
            ("fingerprint".into(), format!("{:016x}", self.fingerprint()).into()),
        ];
        if !self.port.is_empty() {
            obj.push(("port".into(), self.port.as_str().into()));
        }
        if !self.instruction.is_empty() {
            obj.push(("instruction".into(), self.instruction.as_str().into()));
        }
        if !self.state.is_empty() {
            obj.push(("state".into(), self.state.as_str().into()));
        }
        if let Some(line) = self.line {
            obj.push(("line".into(), line.into()));
        }
        obj.push(("message".into(), self.message.as_str().into()));
        if let Some(w) = &self.witness {
            obj.push(("witness".into(), witness_to_json(w)));
        }
        Json::Object(obj)
    }
}

/// Renders a concrete value the way the `.ila` language writes literals
/// (`8'h2a`); memories render as their default word plus any overrides.
pub fn value_str(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Bv(bv) => bv.to_string(),
        Value::Mem(m) => {
            let mut s = format!("mem(default {}", m.default_word());
            for (addr, word) in m.iter_written() {
                s.push_str(&format!(", [{addr:#x}] = {word}"));
            }
            s.push(')');
            s
        }
    }
}

/// Renders a witness as `name = value` pairs, inputs first — the one
/// canonical formatting every consumer (CLI, goldens, JSON) shares.
pub fn format_witness(w: &Witness) -> String {
    w.inputs
        .iter()
        .chain(w.states.iter())
        .map(|(n, v)| format!("{n} = {}", value_str(v)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn witness_to_json(w: &Witness) -> Json {
    let pairs = |xs: &[(String, Value)]| {
        Json::Array(
            xs.iter()
                .map(|(n, v)| {
                    Json::Object(vec![
                        ("name".into(), n.as_str().into()),
                        ("value".into(), value_str(v).into()),
                    ])
                })
                .collect(),
        )
    };
    Json::Object(vec![
        ("inputs".into(), pairs(&w.inputs)),
        ("states".into(), pairs(&w.states)),
    ])
}

/// How much lint work the abstract-interpretation fast path settled
/// without the SAT solver. Carried on [`LintReport`] for the bench
/// harness and the registry counter golden; deliberately *not*
/// serialized into the report's JSON, which reports what was found,
/// not which engine settled it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Lint questions (one per code per port) whose every SAT query was
    /// settled by the abstract verdict alone.
    pub lints_discharged_static: u64,
    /// Individual SAT queries skipped because the abstract verdict was
    /// conclusive.
    pub sat_calls_avoided: u64,
    /// Wall-clock nanoseconds spent in abstract interpretation (the
    /// decode oracle plus the GL014–GL017 fixpoint pass).
    pub absint_ns: u64,
}

impl LintStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &LintStats) {
        self.lints_discharged_static += other.lints_discharged_static;
        self.sat_calls_avoided += other.sat_calls_avoided;
        self.absint_ns += other.absint_ns;
    }
}

/// Every finding for one target (a spec file, a design, or an RTL
/// module), in deterministic order: ports in declaration order, passes
/// in pipeline order within a port, file-level findings last.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// What was linted (a file path or a design name).
    pub target: String,
    /// The findings, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
    /// Fast-path bookkeeping (not part of the JSON rendering).
    pub stats: LintStats,
}

impl LintReport {
    /// Creates an empty report for `target`.
    pub fn new(target: impl Into<String>) -> LintReport {
        LintReport {
            target: target.into(),
            diagnostics: Vec::new(),
            stats: LintStats::default(),
        }
    }

    /// Number of error-class findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-class findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Number of findings whose code appears in `denied` (counted
    /// regardless of their natural severity).
    pub fn denied(&self, denied: &[Code]) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| denied.contains(&d.code))
            .count()
    }

    /// Renders the report as human-readable text, one finding per
    /// paragraph, ending with a one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            match d.line {
                Some(line) => out.push_str(&format!(
                    "{}:{}: {}[{}] {}\n",
                    self.target,
                    line,
                    d.severity().as_str(),
                    d.code,
                    d.message
                )),
                None => out.push_str(&format!(
                    "{}: {}[{}] {}\n",
                    self.target,
                    d.severity().as_str(),
                    d.code,
                    d.message
                )),
            }
            if let Some(w) = &d.witness {
                out.push_str(&format!("    witness: {}\n", format_witness(w)));
            }
        }
        let (e, w) = (self.errors(), self.warnings());
        if e == 0 && w == 0 {
            out.push_str(&format!("{}: clean\n", self.target));
        } else {
            out.push_str(&format!(
                "{}: {} error{}, {} warning{}\n",
                self.target,
                e,
                if e == 1 { "" } else { "s" },
                w,
                if w == 1 { "" } else { "s" }
            ));
        }
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("target".into(), self.target.as_str().into()),
            ("errors".into(), self.errors().into()),
            ("warnings".into(), self.warnings().into()),
            (
                "diagnostics".into(),
                Json::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parseable() {
        for (i, c) in Code::ALL.iter().enumerate() {
            assert_eq!(c.as_str(), format!("GL{:03}", i + 1));
            assert_eq!(Code::parse(c.as_str()), Some(*c));
        }
        assert_eq!(Code::parse("GL999"), None);
        assert_eq!(Code::parse("gl001"), None);
    }

    #[test]
    fn severity_classes_fixed() {
        let errors: Vec<Code> = Code::ALL
            .iter()
            .copied()
            .filter(|c| c.severity() == Severity::Error)
            .collect();
        assert_eq!(
            errors,
            vec![
                Code::DecodeOverlap,
                Code::DeadInstruction,
                Code::UnresolvedConflict,
                Code::UnintegratedShared
            ]
        );
    }

    #[test]
    fn witness_formatting() {
        use gila_expr::BitVecValue;
        let w = Witness {
            inputs: vec![("en".into(), Value::Bv(BitVecValue::from_u64(1, 1)))],
            states: vec![("cnt".into(), Value::Bv(BitVecValue::from_u64(0x2a, 8)))],
        };
        assert_eq!(format_witness(&w), "en = 1'h1, cnt = 8'h2a");
    }

    #[test]
    fn report_rendering() {
        let mut r = LintReport::new("x.ila");
        r.diagnostics.push(
            Diagnostic::new(Code::UnusedVar, "port 'p': input 'x' is never used")
                .port("p")
                .state("x")
                .at(Some(3)),
        );
        let text = r.render_human();
        assert!(text.contains("x.ila:3: warning[GL004]"), "{text}");
        assert!(text.contains("1 warning\n"), "{text}");
        let json = r.to_json().to_compact();
        assert!(json.contains("\"code\":\"GL004\""), "{json}");
    }
}
