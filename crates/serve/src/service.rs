//! Request execution: design resolution and the bridge into
//! `gila-verify`.
//!
//! The cache seam is one field: a `verify` request hands the proof
//! cache to the engine as its [`VerifyOptions::journal`]. The engine
//! keys every instruction by [`gila_verify::slice_keys`]; hits are
//! *never scheduled*, so a fully-warm request performs zero solver
//! work (its telemetry shows `solves == 0`), and misses are journaled
//! as they are decided. The converse does not hold: a counterexample
//! found by sampling also costs no solve, so what answered a verdict is
//! read from its [`gila_verify::DecidedBy`], never from its solve count. Undecided outcomes (`unknown`,
//! `panicked`) are never cached: "the budget was too small" is a
//! property of the request, not of the design.
//!
//! Below the proof cache sits a content memo keyed by the *exact text*
//! of each inline `.ila` and Verilog source: the parse result (errors
//! included) and, for `.ila` text, the module's lint report. Parsing
//! and `lint_module` are pure functions of that text (lint options are
//! fixed per service), so a hit returns exactly what a fresh parse or
//! lint would. Both tables are small most-recently-used lists, bounded
//! by [`ILA_MEMO_CAP`] and [`RTL_MEMO_CAP`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gila_core::ModuleIla;
use gila_designs::CaseStudy;
use gila_json::Value;
use gila_lint::{lint_module, lint_rtl, LintOptions, LintReport};
use gila_rtl::RtlModule;
use gila_smt::CancelToken;
use gila_trace::{Event, SpanKind, Tracer};
use gila_verify::{
    verify_module, FaultPlan, ModuleReport, ProofCache, RefinementMap,
    VerifyOptions,
};

use crate::protocol::{response_error, response_ok, Request};

/// Distinct `.ila` texts the content memo keeps. An editing session
/// touches a handful of specs; each entry holds a parsed module and its
/// lint report.
pub const ILA_MEMO_CAP: usize = 16;

/// Distinct Verilog texts the content memo keeps: enough for the last
/// few edits of several designs plus their originals, few enough that
/// parsed modules stay a small share of the daemon's memory.
pub const RTL_MEMO_CAP: usize = 16;

/// A bounded most-recently-used table from exact source text to a
/// value computed from it.
struct TextMemo<T> {
    cap: usize,
    /// `(text, value)`, most recently used last.
    entries: Vec<(String, Arc<T>)>,
}

impl<T> TextMemo<T> {
    fn new(cap: usize) -> Self {
        TextMemo {
            cap,
            entries: Vec::new(),
        }
    }

    /// The value memoized for `text`, marked most recently used.
    fn get(&mut self, text: &str) -> Option<Arc<T>> {
        let i = self.entries.iter().rposition(|(t, _)| t == text)?;
        let entry = self.entries.remove(i);
        let value = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(value)
    }

    /// Memoizes `value` for `text`, evicting the least recently used
    /// entry at capacity. A value another request memoized meanwhile
    /// wins, so equal texts always share one value.
    fn insert(&mut self, text: &str, value: Arc<T>) -> Arc<T> {
        if let Some(existing) = self.get(text) {
            return existing;
        }
        if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push((text.to_string(), Arc::clone(&value)));
        value
    }
}

/// A parsed `.ila` text and, once a `lint` request needs it, the
/// module's lint report.
struct IlaEntry {
    module: Result<Arc<ModuleIla>, String>,
    lint: OnceLock<LintReport>,
}

/// The content memo: one table per source language, with lookup
/// counts over both.
struct Memo {
    ila: Mutex<TextMemo<IlaEntry>>,
    rtl: Mutex<TextMemo<Result<Arc<RtlModule>, String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Memo {
    fn new() -> Self {
        Memo {
            ila: Mutex::new(TextMemo::new(ILA_MEMO_CAP)),
            rtl: Mutex::new(TextMemo::new(RTL_MEMO_CAP)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The memoized value for `text` in `table`, computing it with
    /// `make` (outside the lock) on a miss.
    fn lookup<T>(
        &self,
        table: &Mutex<TextMemo<T>>,
        text: &str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(hit) = table.lock().unwrap().get(text) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(make());
        table.lock().unwrap().insert(text, value)
    }

    fn ila(&self, text: &str) -> Arc<IlaEntry> {
        self.lookup(&self.ila, text, || IlaEntry {
            module: gila_lang::parse_ila(text)
                .map(Arc::new)
                .map_err(|e| format!("ila: {e}")),
            lint: OnceLock::new(),
        })
    }

    fn rtl(&self, text: &str) -> Result<Arc<RtlModule>, String> {
        let parsed = self.lookup(&self.rtl, text, || {
            gila_rtl::parse_verilog(text)
                .map(Arc::new)
                .map_err(|e| format!("rtl: {e}"))
        });
        (*parsed).clone()
    }
}

/// Content-memo counters, reported by the daemon's `stats` op. Entries
/// and lookups are summed over the `.ila` and Verilog tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Texts currently memoized.
    pub entries: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that parsed their text.
    pub misses: u64,
}

/// A resolved verification target: the module, its RTL and the
/// refinement maps.
type Target = (Arc<ModuleIla>, Arc<RtlModule>, Vec<RefinementMap>);

/// The op-dispatch layer shared by the daemon and in-process callers
/// (tests drive it directly to check cache behavior without
/// sockets).
pub struct Service {
    /// The proof cache; shared with the server for stats reporting.
    pub cache: Arc<ProofCache>,
    /// Telemetry; `request`/`cache_hit`/`cache_miss` spans are emitted
    /// here alongside the engine's own spans.
    pub tracer: Tracer,
    /// Test-only fault plan, forwarded into the engine and the socket
    /// layer.
    pub fault_plan: Option<Arc<FaultPlan>>,
    designs: Vec<CaseStudy>,
    memo: Memo,
}

impl Service {
    /// Builds the service, constructing the bundled design registry
    /// once (case studies are immutable; requests borrow them).
    pub fn new(
        cache: Arc<ProofCache>,
        tracer: Tracer,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Service {
        Service {
            cache,
            tracer,
            fault_plan,
            designs: gila_designs::all_case_studies(),
            memo: Memo::new(),
        }
    }

    /// The content memo's size and lookup counts.
    pub fn memo_stats(&self) -> MemoStats {
        let ila = self.memo.ila.lock().unwrap().entries.len();
        let rtl = self.memo.rtl.lock().unwrap().entries.len();
        MemoStats {
            entries: (ila + rtl) as u64,
            hits: self.memo.hits.load(Ordering::Relaxed),
            misses: self.memo.misses.load(Ordering::Relaxed),
        }
    }

    /// Executes one request to a response frame. Never panics across
    /// this boundary: op handlers return `Result`, malformed `.ila` or
    /// Verilog text is an error, and the engine isolates a panicking
    /// check into a `panicked` verdict.
    pub fn execute(&self, req: &Request, cancel: CancelToken, deadline: Option<Duration>) -> Value {
        let started = Instant::now();
        let outcome = match req.op.as_str() {
            "ping" => Ok(Value::String("pong".into())),
            "verify" => self.op_verify(req, cancel, deadline),
            "lint" => self.op_lint(req),
            "hunt-replay" => self.op_hunt_replay(req),
            other => Err(format!("unknown op {other:?}")),
        };
        let status = if outcome.is_ok() { 1 } else { 0 };
        self.tracer.record(|| {
            Event::new(SpanKind::Request)
                .label(&req.op)
                .field("ok", status)
                .field("wall_ns", started.elapsed().as_nanos() as u64)
                .field("id", req.id)
        });
        match outcome {
            Ok(result) => response_ok(req.id, result),
            Err(message) => response_error(req.id, &message),
        }
    }

    fn find_design(&self, name: &str) -> Result<&CaseStudy, String> {
        self.designs
            .iter()
            .find(|cs| cs.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = self.designs.iter().map(|cs| cs.name).collect();
                format!("unknown design {name:?}; bundled designs: {}", known.join(", "))
            })
    }

    /// Resolves a request's verification target: a bundled design by
    /// name, or inline `ila` / `rtl` / `maps` sources (parsed through
    /// the content memo).
    fn resolve(&self, req: &Request) -> Result<Target, String> {
        if let Some(name) = req.str_field("design") {
            let cs = self.find_design(name)?;
            let rtl = if req.body.get("buggy").and_then(Value::as_bool).unwrap_or(false) {
                cs.buggy_rtl
                    .clone()
                    .ok_or_else(|| format!("{} has no bug-injected RTL variant", cs.name))?
            } else {
                cs.rtl.clone()
            };
            return Ok((Arc::new(cs.ila.clone()), Arc::new(rtl), cs.refmaps.clone()));
        }
        let ila_src = req.str_field("ila").ok_or("need \"design\" or inline \"ila\"")?;
        let rtl_src = req.str_field("rtl").ok_or("inline request needs \"rtl\"")?;
        let module = self.memo.ila(ila_src).module.clone()?;
        let rtl = self.memo.rtl(rtl_src)?;
        let maps_field = req
            .body
            .get("maps")
            .and_then(Value::as_array)
            .ok_or("inline request needs \"maps\" (array of refinement maps)")?;
        let mut maps = Vec::new();
        for (i, m) in maps_field.iter().enumerate() {
            // Maps may arrive as JSON objects or as pre-serialized
            // strings; both funnel through the one parser.
            let text = match m {
                Value::String(s) => s.clone(),
                other => other.to_compact(),
            };
            maps.push(
                RefinementMap::from_json(&text).map_err(|e| format!("maps[{i}]: {e}"))?,
            );
        }
        Ok((module, rtl, maps))
    }

    fn op_verify(
        &self,
        req: &Request,
        cancel: CancelToken,
        deadline: Option<Duration>,
    ) -> Result<Value, String> {
        let started = Instant::now();
        let (module, rtl, maps) = self.resolve(req)?;
        let use_cache = !req
            .body
            .get("no_cache")
            .and_then(Value::as_bool)
            .unwrap_or(false);

        let mut opts = VerifyOptions {
            tracer: self.tracer.clone(),
            cancel: Some(cancel),
            journal: use_cache.then(|| Arc::clone(&self.cache)),
            fault_plan: self.fault_plan.clone(),
            ..VerifyOptions::default()
        };
        // The request deadline caps each solve attempt; the CDCL loop
        // checks it, so an expired request stops mid-solve instead of
        // running to completion after its client gave up.
        opts.budget.timeout = deadline;
        if let Some(conflicts) = req.body.get("conflict_budget").and_then(Value::as_u64) {
            opts.budget.conflicts = Some(conflicts);
        }

        let report = verify_module(&module, &rtl, &maps, &opts).map_err(|e| e.to_string())?;
        let t = &report.telemetry;
        let (cache_hits, cache_misses) = if use_cache {
            (t.cache_hits, t.cache_misses)
        } else {
            (0, report.instructions_checked() as u64)
        };
        Ok(report_to_json(
            &report,
            cache_hits,
            cache_misses,
            started.elapsed(),
        ))
    }

    fn op_lint(&self, req: &Request) -> Result<Value, String> {
        if let Some(name) = req.str_field("design") {
            let cs = self.find_design(name)?;
            let mut report = lint_module(cs.name, &cs.ila, &LintOptions::default(), &self.tracer);
            report.diagnostics.extend(lint_rtl(cs.name, &cs.rtl, &self.tracer));
            return Ok(report.to_json());
        }
        let src = req.str_field("ila").ok_or("need \"design\" or inline \"ila\"")?;
        let entry = self.memo.ila(src);
        let module = entry.module.as_ref().map_err(String::clone)?;
        let rtl = match req.str_field("rtl") {
            Some(text) => Some(self.memo.rtl(text)?),
            None => None,
        };
        let mut report = entry
            .lint
            .get_or_init(|| lint_module("inline", module, &LintOptions::default(), &self.tracer))
            .clone();
        if let Some(rtl) = &rtl {
            report.diagnostics.extend(lint_rtl("inline", rtl, &self.tracer));
        }
        Ok(report.to_json())
    }

    fn op_hunt_replay(&self, req: &Request) -> Result<Value, String> {
        let name = req.str_field("design").ok_or("hunt-replay needs \"design\"")?;
        let cs = self.find_design(name)?;
        let buggy = req.body.get("buggy").and_then(Value::as_bool).unwrap_or(false);
        let rtl = if buggy {
            cs.buggy_rtl
                .as_ref()
                .ok_or_else(|| format!("{} has no bug-injected RTL variant", cs.name))?
        } else {
            &cs.rtl
        };
        let stim = req.str_field("stim").ok_or("hunt-replay needs \"stim\"")?;
        let stream = gila_verify::parse_command_stream(stim, rtl).map_err(|e| e.to_string())?;
        if let Some((port, d)) = gila_verify::replay_ports(&cs.ila, rtl, &cs.refmaps, &stream) {
            return Ok(Value::object(vec![
                ("reproduced".into(), Value::Bool(true)),
                ("design".into(), cs.name.into()),
                ("port".into(), port.name().into()),
                ("cycle".into(), (d.cycle as f64).into()),
                ("instruction".into(), d.instruction.clone().into()),
                ("state".into(), d.state.clone().into()),
                ("ila".into(), gila_verify::render_value(&d.ila_value).into()),
                ("rtl".into(), gila_verify::render_value(&d.rtl_value).into()),
            ]));
        }
        Ok(Value::object(vec![
            ("reproduced".into(), Value::Bool(false)),
            ("design".into(), cs.name.into()),
            ("cycles".into(), (stream.inputs.len() as f64).into()),
        ]))
    }
}

/// Renders a verification report plus cache accounting as the
/// `verify` op's result object.
fn report_to_json(
    report: &ModuleReport,
    cache_hits: u64,
    cache_misses: u64,
    wall: Duration,
) -> Value {
    let mut unknown = 0u64;
    let ports: Vec<Value> = report
        .ports
        .iter()
        .map(|p| {
            let verdicts: Vec<Value> = p
                .verdicts
                .iter()
                .map(|v| {
                    if v.result.is_unknown() || v.result.is_panicked() {
                        unknown += 1;
                    }
                    Value::object(vec![
                        ("instruction".into(), v.instruction.clone().into()),
                        ("result".into(), v.result.tag().into()),
                        ("solves".into(), (v.solves as f64).into()),
                        ("time_ms".into(), (v.time.as_millis() as f64).into()),
                    ])
                })
                .collect();
            Value::object(vec![
                ("port".into(), p.port.clone().into()),
                ("all_hold".into(), Value::Bool(p.all_hold())),
                ("verdicts".into(), Value::Array(verdicts)),
            ])
        })
        .collect();
    let total = cache_hits + cache_misses;
    let hit_rate = if total == 0 {
        0.0
    } else {
        cache_hits as f64 / total as f64
    };
    Value::object(vec![
        ("module".into(), report.module.clone().into()),
        ("all_hold".into(), Value::Bool(report.all_hold())),
        ("ports".into(), Value::Array(ports)),
        ("solves".into(), (report.telemetry.solves as f64).into()),
        ("conflicts".into(), (report.telemetry.conflicts as f64).into()),
        ("falsified".into(), (report.telemetry.falsified as f64).into()),
        ("unknown".into(), (unknown as f64).into()),
        ("cache_hits".into(), (cache_hits as f64).into()),
        ("cache_misses".into(), (cache_misses as f64).into()),
        ("cache_hit_rate".into(), hit_rate.into()),
        ("wall_ms".into(), (wall.as_millis() as f64).into()),
    ])
}
