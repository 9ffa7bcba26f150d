//! Closed-loop benchmark of the gila verification stack, measured from
//! outside the program.
//!
//! Three seeded workloads run from one client thread (see `README.md`
//! for why each exists): `prove` and `datapath` call
//! [`gila_verify::verify_module`] directly; `edit` drives an in-process
//! `gila serve` daemon over a Unix socket. Every verdict is checked.
//! An untraced run gives the end-to-end metrics ([`END_TO_END`]); a
//! traced run wraps each call into a layer in a [`Spans`] span and
//! folds spans and report counters into the per-layer metrics
//! ([`PER_LAYER`]).

pub mod edit;
pub mod golden;
pub mod measure;
pub mod proof;
pub mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub use spans::Spans;

/// End-to-end metrics, as `(name, unit)`; every run reports all five.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as `(name, unit)`. A name ending in `_s` that no
/// report counter supplies is the summed self time of the spans named
/// by its stem (`lint.request_s` ← spans `lint.request`).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sat.solves", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.learnt_clauses", "count"),
    ("sat.inprocess_clauses_removed", "count"),
    ("sat.inprocess_failed_literals", "count"),
    ("smt.cnf_vars", "count"),
    ("smt.cnf_clauses", "count"),
    ("verify.instr_s", "s"),
    ("verify.rtl_to_ts_s", "s"),
    ("mc.coi_dropped", "count"),
    ("verify.queue_s", "s"),
    ("verify.batches", "count"),
    ("verify.steals", "count"),
    ("verify.workers", "count"),
    ("absint.analyze_s", "s"),
    ("absint.invariants_proved", "count"),
    ("verify.slice_keys_s", "s"),
    ("serve.edit_verify_s", "s"),
    ("serve.warm_verify_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.frame_bytes", "bytes"),
    ("lint.request_s", "s"),
    ("lint.discharged_static", "count"),
    ("lint.sat_calls_avoided", "count"),
    ("lint.absint_s", "s"),
    ("lang.parse_ila_s", "s"),
    ("rtl.parse_verilog_s", "s"),
    ("sim.hunt_s", "s"),
    ("sim.cycles", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.findings", "count"),
    ("sim.shrink_replays", "count"),
    ("designs.build_s", "s"),
    ("verify.unknown", "count"),
    ("verify.panicked", "count"),
    ("verify.retries", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cold pooled proofs of the solver-bound designs.
    Prove,
    /// Cold sequential proofs of the 8051 Datapath.
    Datapath,
    /// A designer's edit session against a `gila serve` daemon.
    Edit,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "prove" => Some(Kind::Prove),
            "datapath" => Some(Kind::Datapath),
            "edit" => Some(Kind::Edit),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Prove => "prove",
            Kind::Datapath => "datapath",
            Kind::Edit => "edit",
        }
    }

    /// Set-ups in a timed run, as (before, after) its request sequence;
    /// `setup_s` is their median. Set-ups made back to back all fall
    /// in one speed phase of the host, which lasts seconds, so some are
    /// made after the sequence, in another phase. `edit`'s set-up
    /// lasts about 2 s, the others' about 0.4 s.
    pub fn setup_reps(self) -> (usize, usize) {
        match self {
            Kind::Prove | Kind::Datapath => (4, 3),
            Kind::Edit => (2, 1),
        }
    }

    /// Per-layer metrics this workload cannot measure from outside,
    /// with the reason. They are reported as 0.
    pub fn unmeasured(self) -> &'static [(&'static str, &'static str)] {
        const DAEMON: &str = "the daemon's verify response carries only solves, conflicts, \
                              unknown and cache counts";
        match self {
            Kind::Prove | Kind::Datapath => &[],
            Kind::Edit => &[
                ("sat.decisions", DAEMON),
                ("sat.propagations", DAEMON),
                ("sat.learnt_clauses", DAEMON),
                ("sat.inprocess_clauses_removed", DAEMON),
                ("sat.inprocess_failed_literals", DAEMON),
                ("smt.cnf_vars", DAEMON),
                ("smt.cnf_clauses", DAEMON),
                (
                    "verify.instr_s",
                    "the daemon reports verdict times in whole milliseconds",
                ),
                ("mc.coi_dropped", DAEMON),
                ("verify.queue_s", DAEMON),
                ("verify.batches", DAEMON),
                ("verify.steals", DAEMON),
                ("verify.workers", DAEMON),
                ("absint.invariants_proved", DAEMON),
                (
                    "verify.panicked",
                    "the daemon folds panicked verdicts into unknown",
                ),
                ("verify.retries", DAEMON),
            ],
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Seed of the request order.
    pub seed: u64,
    /// Nominal length of the request sequence; the request count is
    /// derived from it, so the sequence is fixed for a given value.
    pub seconds: u64,
    /// Verification pool size (`VerifyOptions::jobs`).
    pub jobs: usize,
}

impl Config {
    /// The workload's standard configuration.
    pub fn new(kind: Kind, seed: u64, seconds: u64) -> Config {
        let jobs = match kind {
            Kind::Prove => 2,
            Kind::Datapath | Kind::Edit => 1,
        };
        Config {
            kind,
            seed,
            seconds,
            jobs,
        }
    }
}

/// Counts and times read from what the program's calls return,
/// keyed by per-layer metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Raises `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(v);
        *e = e.max(v);
    }
}

/// A workload after its set-up: a fixed sequence of requests.
pub trait Workload {
    /// Name of the span wrapping one request.
    fn request_span(&self) -> &'static str;
    /// Number of requests in the sequence.
    fn requests(&self) -> usize;
    /// Runs request `i`, adding what its calls return to `counters`.
    /// An `Err` is one failed operation.
    fn request(&mut self, i: usize, spans: &Spans, counters: &mut Counters) -> Result<(), String>;
    /// Traced runs only, after the sequence: times the calls the
    /// program makes internally that the sequence cannot see, on the
    /// same inputs.
    fn probe(&mut self, spans: &Spans, counters: &mut Counters);
}

/// Sets up `cfg`'s workload (the registry build included).
pub fn setup(cfg: &Config, spans: &Spans) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.kind {
        Kind::Prove | Kind::Datapath => Box::new(proof::ProofWorkload::setup(cfg, spans)?),
        Kind::Edit => Box::new(edit::EditWorkload::setup(cfg, spans)?),
    })
}

/// Outcome of one request sequence.
#[derive(Clone, Debug, Default)]
pub struct Sequence {
    /// Requests sent.
    pub attempted: u64,
    /// One message per failed request.
    pub failures: Vec<String>,
    /// Per-request latency in seconds; a failed request is infinite.
    pub latencies: Vec<f64>,
    /// Wall time of the sequence.
    pub run_s: f64,
    /// Report counters summed over the sequence.
    pub counters: Counters,
}

/// Runs the workload's request sequence in a closed loop.
pub fn run_sequence(w: &mut dyn Workload, spans: &Spans) -> Sequence {
    let mut seq = Sequence::default();
    let started = Instant::now();
    for i in 0..w.requests() {
        let t = Instant::now();
        let name = w.request_span();
        let outcome = spans.request(name, i as u64 + 1, || {
            w.request(i, spans, &mut seq.counters)
        });
        let latency = t.elapsed().as_secs_f64();
        seq.attempted += 1;
        match outcome {
            Ok(()) => seq.latencies.push(latency),
            Err(e) => {
                seq.latencies.push(f64::INFINITY);
                seq.failures.push(e);
            }
        }
    }
    seq.run_s = started.elapsed().as_secs_f64();
    seq
}

/// Result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Requests sent.
    pub attempted: u64,
    /// Failure messages, one per failed request.
    pub failures: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every set-up time of the run (timed runs).
    pub setup_samples: Vec<f64>,
    /// Span count (traced runs).
    pub spans: usize,
    /// The spans as JSON lines (traced runs).
    pub spans_jsonl: String,
    /// Per-request latencies (timed runs).
    pub latencies: Vec<f64>,
}

/// An untraced run: sets up [`Kind::setup_reps`] times, runs the
/// sequence of the last set-up made before it, and reports the
/// end-to-end metrics.
pub fn timed_run(cfg: &Config) -> Result<RunReport, String> {
    let off = Spans::off();
    let (before, after) = cfg.kind.setup_reps();
    let mut samples = Vec::with_capacity(before + after);
    let mut timed_setup = || -> Result<Box<dyn Workload>, String> {
        let t = Instant::now();
        let w = setup(cfg, &off)?;
        samples.push(t.elapsed().as_secs_f64());
        Ok(w)
    };
    let mut w = timed_setup()?;
    for _ in 1..before {
        // The previous set-up is torn down outside the timed region.
        drop(w);
        w = timed_setup()?;
    }
    let seq = run_sequence(&mut *w, &off);
    drop(w);
    let peak_rss_mb = measure::peak_rss_mb();
    for _ in 0..after {
        drop(timed_setup()?);
    }
    let finite = |v: f64| if v.is_finite() { v } else { f64::MAX };
    let metrics = BTreeMap::from([
        ("setup_s", measure::median(&samples)),
        ("run_s", seq.run_s),
        ("req_p50_s", finite(measure::quantile(&seq.latencies, 0.5))),
        ("req_p90_s", finite(measure::quantile(&seq.latencies, 0.9))),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    Ok(RunReport {
        attempted: seq.attempted,
        failures: seq.failures,
        metrics,
        setup_samples: samples,
        latencies: seq.latencies.clone(),
        ..RunReport::default()
    })
}

/// A traced run: the sequence once untraced (for the overhead) and
/// once traced, each after its own set-up, then the probes. Reports
/// the per-layer metrics.
pub fn traced_run(cfg: &Config) -> Result<RunReport, String> {
    let off = Spans::off();
    let mut w = setup(cfg, &off)?;
    let plain = run_sequence(&mut *w, &off);
    drop(w);

    let spans = Spans::on();
    let mut w = spans.span("setup", || setup(cfg, &spans))?;
    let traced = run_sequence(&mut *w, &spans);
    let mut counters = traced.counters.clone();
    spans.span("probe", || w.probe(&spans, &mut counters));
    drop(w);

    let mut metrics = layer_metrics(&spans, &counters);
    metrics.insert("trace.overhead_frac", traced.run_s / plain.run_s - 1.0);
    let mut failures = plain.failures;
    failures.extend(traced.failures);
    Ok(RunReport {
        attempted: plain.attempted + traced.attempted,
        failures,
        metrics,
        spans: spans.len(),
        spans_jsonl: spans.to_jsonl(),
        ..RunReport::default()
    })
}

/// Folds span self times and report counters into every per-layer
/// metric; layers a workload does not touch read 0.
pub fn layer_metrics(spans: &Spans, counters: &Counters) -> BTreeMap<&'static str, f64> {
    let self_s = spans.self_seconds();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let from_span = || {
                name.strip_suffix("_s")
                    .and_then(|stem| self_s.get(stem).copied())
            };
            (
                name,
                counters
                    .0
                    .get(name)
                    .copied()
                    .or_else(from_span)
                    .unwrap_or(0.0),
            )
        })
        .collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert("sim.cycles_per_s", ratio(m["sim.cycles"], m["sim.hunt_s"]));
    let lookups = m["serve.cache_hits"] + m["serve.cache_misses"];
    m.insert("serve.hit_ratio", ratio(m["serve.cache_hits"], lookups));
    m
}

/// Where runs keep their files: `perfbench/` under the cargo
/// target directory, inside the checkout.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}
