//! Request execution: design resolution and the bridge into
//! `gila-verify`.
//!
//! The cache seam is one field: a `verify` request hands the proof
//! cache to the engine as its [`VerifyOptions::journal`]. The engine
//! keys every instruction by [`gila_verify::slice_keys`]; hits are
//! *never scheduled*, so a fully-warm request performs zero solver
//! work (provable from telemetry: `solves == 0`), and misses are
//! journaled as they are decided. Undecided outcomes (`unknown`,
//! `panicked`) are never cached: "the budget was too small" is a
//! property of the request, not of the design.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gila_core::ModuleIla;
use gila_designs::CaseStudy;
use gila_json::Value;
use gila_rtl::RtlModule;
use gila_smt::CancelToken;
use gila_trace::{Event, SpanKind, Tracer};
use gila_verify::{verify_module, FaultPlan, ModuleReport, ProofCache, RefinementMap, VerifyOptions};

use crate::protocol::{response_error, response_ok, Request};

/// The op-dispatch layer shared by the daemon and in-process callers
/// (benches drive it directly to measure cache behavior without
/// socket noise).
pub struct Service {
    /// The proof cache; shared with the server for stats reporting.
    pub cache: Arc<ProofCache>,
    /// Telemetry; `request`/`cache_hit`/`cache_miss` spans are emitted
    /// here alongside the engine's own spans.
    pub tracer: Tracer,
    /// Verification pool size passed through to [`VerifyOptions::jobs`].
    pub jobs: Option<usize>,
    /// Test-only fault plan, forwarded into the engine and the socket
    /// layer.
    pub fault_plan: Option<Arc<FaultPlan>>,
    designs: Vec<CaseStudy>,
}

impl Service {
    /// Builds the service, constructing the bundled design registry
    /// once (case studies are immutable; requests borrow them).
    pub fn new(
        cache: Arc<ProofCache>,
        tracer: Tracer,
        jobs: Option<usize>,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Service {
        Service {
            cache,
            tracer,
            jobs,
            fault_plan,
            designs: gila_designs::all_case_studies(),
        }
    }

    /// Executes one request to a response frame. Never panics across
    /// this boundary: op handlers return `Result` and engine panics
    /// are already isolated by the scheduler.
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
    /// name, or inline `ila` / `rtl` / `maps` sources.
    fn resolve(
        &self,
        req: &Request,
    ) -> Result<(ModuleIla, RtlModule, Vec<RefinementMap>), String> {
        if let Some(name) = req.str_field("design") {
            let cs = self.find_design(name)?;
            let rtl = if req.body.get("buggy").and_then(Value::as_bool).unwrap_or(false) {
                cs.buggy_rtl
                    .clone()
                    .ok_or_else(|| format!("{} has no bug-injected RTL variant", cs.name))?
            } else {
                cs.rtl.clone()
            };
            return Ok((cs.ila.clone(), rtl, cs.refmaps.clone()));
        }
        let ila_src = req.str_field("ila").ok_or("need \"design\" or inline \"ila\"")?;
        let rtl_src = req.str_field("rtl").ok_or("inline request needs \"rtl\"")?;
        let module = gila_lang::parse_ila(ila_src).map_err(|e| format!("ila: {e}"))?;
        let rtl = gila_rtl::parse_verilog(rtl_src).map_err(|e| format!("rtl: {e}"))?;
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
            jobs: self.jobs,
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
        use gila_lint::{lint_module, lint_rtl, LintOptions};
        let opts = LintOptions {
            jobs: self.jobs.unwrap_or(1).max(1),
            ..LintOptions::default()
        };
        let (target, module, rtl) = if let Some(name) = req.str_field("design") {
            let cs = self.find_design(name)?;
            (cs.name.to_string(), cs.ila.clone(), Some(cs.rtl.clone()))
        } else {
            let src = req.str_field("ila").ok_or("need \"design\" or inline \"ila\"")?;
            let module = gila_lang::parse_ila(src).map_err(|e| format!("ila: {e}"))?;
            let rtl = match req.str_field("rtl") {
                Some(text) => Some(gila_rtl::parse_verilog(text).map_err(|e| format!("rtl: {e}"))?),
                None => None,
            };
            ("inline".to_string(), module, rtl)
        };
        let mut report = lint_module(&target, &module, &opts, &self.tracer);
        if let Some(rtl) = &rtl {
            report.diagnostics.extend(lint_rtl(&target, rtl, &self.tracer));
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
        let (start, inputs) = parse_stream(stim, rtl)?;
        for port in cs.ila.ports() {
            let Some(map) = cs.refmaps.iter().find(|m| m.name == port.name()) else {
                continue;
            };
            // A stream recorded at another port may simply not decode
            // here; that is not an error for replay.
            match gila_verify::replay_compiled(port, rtl, map, &start, &inputs) {
                Ok(Some(d)) => {
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
                Ok(None) | Err(_) => {}
            }
        }
        Ok(Value::object(vec![
            ("reproduced".into(), Value::Bool(false)),
            ("design".into(), cs.name.into()),
            ("cycles".into(), (inputs.len() as f64).into()),
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
        ("unknown".into(), (unknown as f64).into()),
        ("cache_hits".into(), (cache_hits as f64).into()),
        ("cache_misses".into(), (cache_misses as f64).into()),
        ("cache_hit_rate".into(), hit_rate.into()),
        ("wall_ms".into(), (wall.as_millis() as f64).into()),
    ])
}

/// Parses the hunter's recorded command-stream format: `# start
/// name=value` lines fix the RTL start state, every other non-comment
/// line is one cycle of `input=value` tokens.
fn parse_stream(
    text: &str,
    rtl: &RtlModule,
) -> Result<
    (
        std::collections::BTreeMap<String, gila_expr::Value>,
        Vec<std::collections::BTreeMap<String, gila_expr::BitVecValue>>,
    ),
    String,
> {
    use gila_expr::Sort;
    let state_sort = |name: &str| -> Option<Sort> {
        rtl.regs()
            .iter()
            .find(|r| r.name == name)
            .map(|r| Sort::Bv(r.width))
            .or_else(|| {
                rtl.mems().iter().find(|m| m.name == name).map(|m| Sort::Mem {
                    addr_width: m.addr_width,
                    data_width: m.data_width,
                })
            })
    };
    let mut start = std::collections::BTreeMap::new();
    let mut inputs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("# start ") {
            let (name, v) = rest
                .split_once('=')
                .ok_or_else(|| format!("line {}: bad start entry {rest:?}", ln + 1))?;
            let name = name.trim();
            let sort = state_sort(name)
                .ok_or_else(|| format!("line {}: unknown RTL state {name:?}", ln + 1))?;
            let v = gila_verify::parse_value(v.trim(), sort)
                .ok_or_else(|| format!("line {}: bad value for {name:?}", ln + 1))?;
            start.insert(name.to_string(), v);
        } else if t.is_empty() || t.starts_with('#') {
            continue;
        } else {
            let mut vec = std::collections::BTreeMap::new();
            for tok in t.split_whitespace() {
                let (name, v) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: bad stimulus token {tok:?}", ln + 1))?;
                let width = rtl
                    .find_input(name)
                    .map(|i| i.width)
                    .ok_or_else(|| format!("line {}: unknown RTL input {name:?}", ln + 1))?;
                let v = gila_verify::parse_bv(v, width)
                    .ok_or_else(|| format!("line {}: bad literal in {tok:?}", ln + 1))?;
                vec.insert(name.to_string(), v);
            }
            inputs.push(vec);
        }
    }
    Ok((start, inputs))
}
