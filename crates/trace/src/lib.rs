//! Structured verification telemetry.
//!
//! The engine's hot path — unrolling, bit-blasting, SAT solving, and the
//! work-stealing scheduler — emits [`Event`]s through a [`Tracer`] handle.
//! A tracer is either *disabled* (the default: one branch per call site,
//! the event is never even constructed) or carries a shared [`TraceSink`]
//! that decides what to do with each event:
//!
//! * [`RingSink`] — bounded in-memory buffer, for tests and benches;
//! * [`JsonlSink`] — one compact JSON object per line, for `--trace`;
//! * disabled — the no-op case, no sink allocated at all.
//!
//! Events are deliberately flat: a span kind, the (port, instruction)
//! coordinates it belongs to, a short label, an optional worker id, and a
//! list of named integer counters. Flat events are trivially
//! canonicalizable, which is what the golden-trace tests depend on: see
//! [`canonicalize_jsonl`] and [`span_set`].

use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use gila_json::Value;

/// What phase of the pipeline an event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One verified port (a module interface in the refinement map).
    Port,
    /// One (port, instruction) verification job.
    Instruction,
    /// An unrolling operation: extend, snapshot, or rollback.
    Unroll,
    /// Incremental CNF growth from one bit-blasting round.
    Blast,
    /// One SAT check, with the solver effort it cost.
    Solve,
    /// Seeded candidates evaluated on one property's formula before its
    /// SAT check (candidates drawn, passing the antecedent, and whether
    /// one was accepted as a counterexample ride as fields).
    Falsify,
    /// A solve attempt gave up on a resource limit (reason + effort
    /// spent ride as fields/label).
    BudgetExhausted,
    /// A job is being re-run with an escalated budget.
    Retry,
    /// A job panicked and was isolated by the scheduler.
    Panic,
    /// One static-analysis pass of `gila-lint` over one target.
    LintPass,
    /// Cone-of-influence slicing of the transition system for one port
    /// plan (states/inputs kept and dropped ride as fields).
    Coi,
    /// One tape compilation of a co-simulation pair (instruction count
    /// and register-bank sizes ride as fields).
    Compile,
    /// One compiled co-simulation run — a (design, port, seed) hunt
    /// task (cycles executed and divergence count ride as fields).
    Eval,
    /// One request handled by the `gila serve` daemon (op and outcome
    /// ride as label/fields).
    Request,
    /// A (port, instruction) verdict answered from the proof cache with
    /// zero solver work.
    CacheHit,
    /// A (port, instruction) property that missed the proof cache and
    /// was discharged by the solver.
    CacheMiss,
    /// A request rejected by admission control (queue full); the
    /// retry-after hint rides as a field.
    Shed,
    /// A graceful daemon drain: in-flight jobs finished, journal
    /// flushed (drained job count rides as a field).
    Drain,
}

impl SpanKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Port => "port",
            SpanKind::Instruction => "instruction",
            SpanKind::Unroll => "unroll",
            SpanKind::Blast => "blast",
            SpanKind::Solve => "solve",
            SpanKind::Falsify => "falsify",
            SpanKind::BudgetExhausted => "budget_exhausted",
            SpanKind::Retry => "retry",
            SpanKind::Panic => "panic",
            SpanKind::LintPass => "lint_pass",
            SpanKind::Coi => "coi",
            SpanKind::Compile => "compile",
            SpanKind::Eval => "eval",
            SpanKind::Request => "request",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheMiss => "cache_miss",
            SpanKind::Shed => "shed",
            SpanKind::Drain => "drain",
        }
    }
}

/// One telemetry event. Construction is cheap and allocation-light; the
/// sink decides whether it is buffered, serialized, or dropped.
#[derive(Clone, Debug)]
pub struct Event {
    pub kind: SpanKind,
    pub port: String,
    pub instruction: String,
    pub label: String,
    pub worker: Option<usize>,
    /// Named integer counters, in emission order.
    pub fields: Vec<(&'static str, u64)>,
}

impl Event {
    pub fn new(kind: SpanKind) -> Event {
        Event {
            kind,
            port: String::new(),
            instruction: String::new(),
            label: String::new(),
            worker: None,
            fields: Vec::new(),
        }
    }

    pub fn port(mut self, port: &str) -> Event {
        self.port = port.to_string();
        self
    }

    pub fn instruction(mut self, instruction: &str) -> Event {
        self.instruction = instruction.to_string();
        self
    }

    pub fn label(mut self, label: &str) -> Event {
        self.label = label.to_string();
        self
    }

    pub fn worker(mut self, worker: Option<usize>) -> Event {
        self.worker = worker;
        self
    }

    pub fn field(mut self, name: &'static str, value: u64) -> Event {
        self.fields.push((name, value));
        self
    }

    /// Look up a counter by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![("kind".into(), self.kind.as_str().into())];
        if !self.port.is_empty() {
            obj.push(("port".into(), self.port.as_str().into()));
        }
        if !self.instruction.is_empty() {
            obj.push(("instr".into(), self.instruction.as_str().into()));
        }
        if !self.label.is_empty() {
            obj.push(("label".into(), self.label.as_str().into()));
        }
        if let Some(w) = self.worker {
            obj.push(("worker".into(), w.into()));
        }
        for (name, value) in &self.fields {
            obj.push(((*name).into(), (*value).into()));
        }
        Value::Object(obj)
    }

    /// Render as one compact JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_value().to_compact()
    }
}

/// Where events go. Sinks must be shareable across worker threads.
pub trait TraceSink: Send + Sync {
    fn record(&self, event: Event);
    /// Flush any buffered output. Default: nothing to flush.
    fn flush(&self) {}
}

/// Bounded in-memory sink; oldest events are dropped past `capacity`.
pub struct RingSink {
    capacity: usize,
    events: Mutex<Vec<Event>>,
}

impl RingSink {
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("ring sink poisoned").clone()
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: Event) {
        let mut buf = self.events.lock().expect("ring sink poisoned");
        if buf.len() == self.capacity {
            buf.remove(0);
        }
        buf.push(event);
    }
}

/// Writes one compact JSON object per event, newline-delimited.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<BufWriter<W>>,
}

impl JsonlSink<File> {
    pub fn to_file(path: &Path) -> std::io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: Event) {
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        // A failed trace write must never fail the verification run.
        let _ = writeln!(w, "{}", event.to_json_line());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Cheap, cloneable handle threaded through the engine. Disabled is the
/// default and costs one `Option` branch per call site — the event
/// closure is never invoked.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Tracer {
    /// The no-op tracer: records nothing, allocates nothing.
    pub fn disabled() -> Tracer {
        Tracer { sink: None }
    }

    /// Buffer up to `capacity` events in memory.
    pub fn ring(capacity: usize) -> (Tracer, Arc<RingSink>) {
        let sink = Arc::new(RingSink::new(capacity));
        (
            Tracer {
                sink: Some(sink.clone()),
            },
            sink,
        )
    }

    /// Stream JSONL to `path`.
    pub fn jsonl_file(path: &Path) -> std::io::Result<Tracer> {
        Ok(Tracer {
            sink: Some(Arc::new(JsonlSink::to_file(path)?)),
        })
    }

    /// Wrap an arbitrary sink.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer { sink: Some(sink) }
    }

    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record an event. The closure runs only when a sink is attached,
    /// so disabled tracing skips event construction entirely.
    #[inline]
    pub fn record(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(make());
        }
    }

    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "Tracer(enabled)"
        } else {
            "Tracer(disabled)"
        })
    }
}

/// Aggregated totals over a set of instruction verdicts — the same
/// numbers the CLI `--stats` table prints and
/// `tests/golden/registry_counters.txt` pins per registry design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    pub instructions: u64,
    pub solves: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub learnt_clauses: u64,
    pub cnf_vars: u64,
    pub cnf_clauses: u64,
    pub wall_ns: u64,
    pub queue_ns: u64,
    pub steals: u64,
    pub workers: u64,
    /// Jobs whose final verdict was `Unknown` (budget exhausted).
    pub unknown: u64,
    /// Jobs that panicked and were isolated.
    pub panicked: u64,
    /// Budget-escalation re-runs across all jobs.
    pub retries: u64,
    /// Conflicts burned by solve attempts that ended in `Unknown`.
    pub budget_spent_conflicts: u64,
    /// State variables removed by cone-of-influence slicing (summed
    /// over port plans).
    pub coi_states_dropped: u64,
    /// Input variables removed by cone-of-influence slicing.
    pub coi_inputs_dropped: u64,
    /// Always 0: the SAT solver runs no inprocessing. Kept only because
    /// perfbench still reports it as its `sat.inprocess_clauses_removed`
    /// counter.
    pub inprocess_clauses_removed: u64,
    /// Always 0, like [`Telemetry::inprocess_clauses_removed`]; perfbench
    /// reports it as `sat.inprocess_failed_literals`.
    pub inprocess_failed_literals: u64,
    /// Distinct scheduler batches (pooled runs; 0 on the sequential
    /// path, where the notion of a batch does not exist).
    pub batches: u64,
    /// Instructions answered from the verdict journal without solving
    /// (0 when the run has no journal).
    pub cache_hits: u64,
    /// Instructions the verdict journal could not answer, so they were
    /// scheduled for solving (0 when the run has no journal).
    pub cache_misses: u64,
    /// Counterexamples found by evaluating seeded candidates on the
    /// property's formula, with no SAT call.
    pub falsified: u64,
    /// Always 0: verification no longer asserts abstract-interpretation
    /// invariants. Kept only because perfbench still reports it as its
    /// `absint.invariants_proved` counter.
    pub invariants_proved: u64,
    /// Lint checks fully discharged by the abstract interpreter — the
    /// whole (port, code) verdict was decided without any SAT call.
    pub lints_discharged_static: u64,
    /// Individual SAT queries the lint fast path made unnecessary.
    pub sat_calls_avoided: u64,
}

impl Telemetry {
    /// Component-wise sum; `workers` takes the max (it is a gauge).
    pub fn merge(&self, other: &Telemetry) -> Telemetry {
        Telemetry {
            instructions: self.instructions + other.instructions,
            solves: self.solves + other.solves,
            decisions: self.decisions + other.decisions,
            propagations: self.propagations + other.propagations,
            conflicts: self.conflicts + other.conflicts,
            learnt_clauses: self.learnt_clauses + other.learnt_clauses,
            cnf_vars: self.cnf_vars + other.cnf_vars,
            cnf_clauses: self.cnf_clauses + other.cnf_clauses,
            wall_ns: self.wall_ns + other.wall_ns,
            queue_ns: self.queue_ns + other.queue_ns,
            steals: self.steals + other.steals,
            workers: self.workers.max(other.workers),
            unknown: self.unknown + other.unknown,
            panicked: self.panicked + other.panicked,
            retries: self.retries + other.retries,
            budget_spent_conflicts: self.budget_spent_conflicts
                + other.budget_spent_conflicts,
            coi_states_dropped: self.coi_states_dropped + other.coi_states_dropped,
            coi_inputs_dropped: self.coi_inputs_dropped + other.coi_inputs_dropped,
            inprocess_clauses_removed: self.inprocess_clauses_removed
                + other.inprocess_clauses_removed,
            inprocess_failed_literals: self.inprocess_failed_literals
                + other.inprocess_failed_literals,
            batches: self.batches + other.batches,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            falsified: self.falsified + other.falsified,
            invariants_proved: self.invariants_proved + other.invariants_proved,
            lints_discharged_static: self.lints_discharged_static
                + other.lints_discharged_static,
            sat_calls_avoided: self.sat_calls_avoided + other.sat_calls_avoided,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("instructions".into(), self.instructions.into()),
            ("solves".into(), self.solves.into()),
            ("decisions".into(), self.decisions.into()),
            ("propagations".into(), self.propagations.into()),
            ("conflicts".into(), self.conflicts.into()),
            ("learnt_clauses".into(), self.learnt_clauses.into()),
            ("cnf_vars".into(), self.cnf_vars.into()),
            ("cnf_clauses".into(), self.cnf_clauses.into()),
            ("wall_ns".into(), self.wall_ns.into()),
            ("queue_ns".into(), self.queue_ns.into()),
            ("steals".into(), self.steals.into()),
            ("workers".into(), self.workers.into()),
            ("unknown".into(), self.unknown.into()),
            ("panicked".into(), self.panicked.into()),
            ("retries".into(), self.retries.into()),
            (
                "budget_spent_conflicts".into(),
                self.budget_spent_conflicts.into(),
            ),
            ("coi_states_dropped".into(), self.coi_states_dropped.into()),
            ("coi_inputs_dropped".into(), self.coi_inputs_dropped.into()),
            (
                "inprocess_clauses_removed".into(),
                self.inprocess_clauses_removed.into(),
            ),
            (
                "inprocess_failed_literals".into(),
                self.inprocess_failed_literals.into(),
            ),
            ("batches".into(), self.batches.into()),
            ("cache_hits".into(), self.cache_hits.into()),
            ("cache_misses".into(), self.cache_misses.into()),
            ("falsified".into(), self.falsified.into()),
            ("invariants_proved".into(), self.invariants_proved.into()),
            (
                "lints_discharged_static".into(),
                self.lints_discharged_static.into(),
            ),
            ("sat_calls_avoided".into(), self.sat_calls_avoided.into()),
        ])
    }
}

/// Keys that vary run to run (timing, scheduling) and must be stripped
/// before a trace can be compared against a golden file.
pub const VOLATILE_KEYS: &[&str] = &[
    "wall_ns",
    "property_ns",
    "cex_ns",
    "queue_ns",
    "worker",
    "steals",
];

/// Canonicalize a JSONL trace for golden comparison: parse each line,
/// drop volatile keys, re-render compactly, and sort the lines. Returns
/// an error string naming the first malformed line.
pub fn canonicalize_jsonl(jsonl: &str) -> Result<String, String> {
    let mut lines = Vec::new();
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            gila_json::parse(line).map_err(|e| format!("line {}: {e:?}", idx + 1))?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("line {}: not an object", idx + 1))?;
        let kept: Vec<(String, Value)> = obj
            .iter()
            .filter(|(k, _)| !VOLATILE_KEYS.contains(&k.as_str()))
            .cloned()
            .collect();
        lines.push(Value::Object(kept).to_compact());
    }
    lines.sort();
    Ok(lines.join("\n") + "\n")
}

/// The set of work-identifying spans in a JSONL trace: `(kind, port,
/// instr, label)` for every `instruction`, `solve`, `compile`, and
/// `eval` event. Two runs that performed the same verification (or
/// hunt) work have equal span sets no matter how the scheduler
/// interleaved them — per-worker `compile` duplicates collapse because
/// worker ids are not part of the key.
pub fn span_set(jsonl: &str) -> Result<BTreeSet<(String, String, String, String)>, String> {
    let mut set = BTreeSet::new();
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            gila_json::parse(line).map_err(|e| format!("line {}: {e:?}", idx + 1))?;
        let key = |k: &str| {
            value
                .get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string()
        };
        let kind = key("kind");
        if matches!(kind.as_str(), "instruction" | "solve" | "compile" | "eval") {
            set.insert((kind, key("port"), key("instr"), key("label")));
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(|| unreachable!("disabled tracer must not construct events"));
    }

    #[test]
    fn ring_sink_buffers_and_caps() {
        let (t, ring) = Tracer::ring(2);
        assert!(t.is_enabled());
        for i in 0..3u64 {
            t.record(|| Event::new(SpanKind::Solve).field("i", i));
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("i"), Some(1));
        assert_eq!(events[1].get("i"), Some(2));
    }

    #[test]
    fn event_json_shape() {
        let e = Event::new(SpanKind::Instruction)
            .port("counter")
            .instruction("inc")
            .worker(Some(3))
            .field("decisions", 7);
        assert_eq!(
            e.to_json_line(),
            r#"{"kind":"instruction","port":"counter","instr":"inc","worker":3,"decisions":7}"#
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = Arc::new(JsonlSink::new(Vec::new()));
        let t = Tracer::with_sink(sink.clone());
        t.record(|| Event::new(SpanKind::Port).port("p"));
        t.record(|| Event::new(SpanKind::Blast).field("clauses", 12));
        t.flush();
        let w = sink.writer.lock().unwrap();
        let text = String::from_utf8(w.get_ref().clone()).unwrap();
        assert_eq!(
            text,
            "{\"kind\":\"port\",\"port\":\"p\"}\n{\"kind\":\"blast\",\"clauses\":12}\n"
        );
    }

    #[test]
    fn canonicalize_strips_volatile_and_sorts() {
        let raw = concat!(
            "{\"kind\":\"solve\",\"port\":\"b\",\"wall_ns\":981,\"worker\":2}\n",
            "{\"kind\":\"solve\",\"port\":\"a\",\"wall_ns\":12,\"queue_ns\":4,\"steals\":1}\n",
        );
        let canon = canonicalize_jsonl(raw).unwrap();
        assert_eq!(
            canon,
            "{\"kind\":\"solve\",\"port\":\"a\"}\n{\"kind\":\"solve\",\"port\":\"b\"}\n"
        );
    }

    #[test]
    fn span_set_ignores_order_and_timing() {
        let a = concat!(
            "{\"kind\":\"instruction\",\"port\":\"p\",\"instr\":\"i1\",\"wall_ns\":5}\n",
            "{\"kind\":\"solve\",\"port\":\"p\",\"instr\":\"i1\",\"label\":\"violation\"}\n",
            "{\"kind\":\"unroll\",\"label\":\"extend\"}\n",
        );
        let b = concat!(
            "{\"kind\":\"solve\",\"port\":\"p\",\"instr\":\"i1\",\"label\":\"violation\",\"worker\":3}\n",
            "{\"kind\":\"instruction\",\"port\":\"p\",\"instr\":\"i1\",\"wall_ns\":9}\n",
        );
        assert_eq!(span_set(a).unwrap(), span_set(b).unwrap());
    }

    #[test]
    fn robustness_span_kinds_have_stable_names() {
        assert_eq!(SpanKind::BudgetExhausted.as_str(), "budget_exhausted");
        assert_eq!(SpanKind::Retry.as_str(), "retry");
        assert_eq!(SpanKind::Panic.as_str(), "panic");
        let e = Event::new(SpanKind::Retry)
            .port("p")
            .instruction("i")
            .field("attempt", 2)
            .field("conflict_budget", 4000);
        assert_eq!(
            e.to_json_line(),
            r#"{"kind":"retry","port":"p","instr":"i","attempt":2,"conflict_budget":4000}"#
        );
    }

    #[test]
    fn robustness_counters_merge_and_serialize() {
        let a = Telemetry {
            unknown: 1,
            retries: 2,
            budget_spent_conflicts: 100,
            ..Default::default()
        };
        let b = Telemetry {
            unknown: 1,
            panicked: 1,
            retries: 1,
            budget_spent_conflicts: 50,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.unknown, 2);
        assert_eq!(m.panicked, 1);
        assert_eq!(m.retries, 3);
        assert_eq!(m.budget_spent_conflicts, 150);
        let j = m.to_json();
        assert_eq!(j.get("unknown").and_then(Value::as_u64), Some(2));
        assert_eq!(j.get("panicked").and_then(Value::as_u64), Some(1));
        assert_eq!(j.get("retries").and_then(Value::as_u64), Some(3));
        assert_eq!(
            j.get("budget_spent_conflicts").and_then(Value::as_u64),
            Some(150)
        );
    }

    #[test]
    fn coi_span_kind_and_counters() {
        assert_eq!(SpanKind::Coi.as_str(), "coi");
        let e = Event::new(SpanKind::Coi)
            .port("p")
            .field("states_dropped", 4)
            .field("inputs_dropped", 2);
        assert_eq!(
            e.to_json_line(),
            r#"{"kind":"coi","port":"p","states_dropped":4,"inputs_dropped":2}"#
        );
        let a = Telemetry {
            coi_states_dropped: 4,
            ..Default::default()
        };
        let b = Telemetry {
            coi_states_dropped: 1,
            coi_inputs_dropped: 2,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.coi_states_dropped, 5);
        assert_eq!(m.coi_inputs_dropped, 2);
        let j = m.to_json();
        assert_eq!(j.get("coi_states_dropped").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn telemetry_merge_sums_counters_takes_max_workers() {
        let a = Telemetry {
            instructions: 2,
            decisions: 10,
            workers: 1,
            ..Default::default()
        };
        let b = Telemetry {
            instructions: 3,
            decisions: 5,
            workers: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.instructions, 5);
        assert_eq!(m.decisions, 15);
        assert_eq!(m.workers, 4);
    }
}
