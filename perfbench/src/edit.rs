//! The `edit` workload: a designer's session against a real daemon.
//!
//! Set-up starts an in-process `gila serve` on a Unix socket (1 worker,
//! jobs 1, a journal file) and primes it with cold proofs of the seven
//! non-Datapath designs, sent inline as `.ila`/Verilog/map text. Each
//! single-register mutant is two requests: the edit (lint it, verify
//! it, hunt it), then the revert (re-verify the original).

use std::collections::BTreeMap;
use std::path::PathBuf;

use gila_designs::{all_case_studies, CaseStudy};
use gila_json::Value;
use gila_lint::{lint_module, LintOptions};
use gila_rtl::RtlModule;
use gila_serve::{CacheConfig, Client, ClientConfig, Endpoint, Listen, ServeConfig, Server};
use gila_trace::Tracer;
use gila_verify::{mutate_register, rtl_to_ts, slice_keys, Mutation, RefinementMap};

use crate::golden::{self, Entry};
use crate::measure::Rng;
use crate::proof::requests_for;
use crate::{work_dir, Config, Counters, Spans, Workload};

/// Nominal seconds of one edit iteration: the 246 edits take about 20 s.
pub const EDIT_REQUEST_S: f64 = 20.0 / 246.0;

/// A registry design as the daemon receives it.
pub struct Design {
    /// The case study.
    pub cs: CaseStudy,
    /// Printed `.ila` text.
    pub ila: String,
    /// Printed Verilog of the fixed RTL.
    pub rtl: String,
    /// Refinement maps as JSON, renamed to the printed port names.
    pub maps: Vec<String>,
}

/// One single-register mutant.
pub struct Edit {
    /// Index into the designs.
    pub design: usize,
    /// `design/register/mutation`.
    pub key: String,
    /// The mutated RTL.
    pub rtl: RtlModule,
    /// Its printed Verilog.
    pub text: String,
}

/// Prints every non-Datapath design and every single-register
/// mutant of it (`mutate_register` × `Mutation::all()`), in registry
/// order.
pub fn render(registry: &[CaseStudy]) -> Result<(Vec<Design>, Vec<Edit>), String> {
    let mut designs = Vec::new();
    let mut edits = Vec::new();
    for cs in registry.iter().filter(|cs| cs.name != "Datapath") {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", cs.name);
        let d = designs.len();
        for reg in cs.rtl.regs() {
            for m in Mutation::all() {
                let rtl = mutate_register(&cs.rtl, &reg.name, m).map_err(|e| err(&e))?;
                let text = rtl.to_verilog().map_err(|e| err(&e))?;
                let key = format!("{}/{}/{m}", cs.name, reg.name);
                edits.push(Edit {
                    design: d,
                    key,
                    rtl,
                    text,
                });
            }
        }
        // The `.ila` printer writes port `READ-PORT` as `READ_PORT`;
        // rename the maps to match what the daemon will parse.
        let maps = cs
            .refmaps
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.name = golden::port_name(&m.name);
                m.to_json()
            })
            .collect();
        designs.push(Design {
            ila: gila_lang::to_ila_text(&cs.ila).map_err(|e| err(&e))?,
            rtl: cs.rtl.to_verilog().map_err(|e| err(&e))?,
            maps,
            cs: cs.clone(),
        });
    }
    Ok((designs, edits))
}

/// A running daemon, its client, and its working directory; dropping
/// it drains the daemon and removes the directory.
struct Daemon {
    server: Option<Server>,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let dir = work_dir().join(format!("edit-{}", std::process::id()));
        let io = |e: std::io::Error| format!("daemon in {}: {e}", dir.display());
        std::fs::create_dir_all(&dir).map_err(io)?;
        // A journal left by an earlier set-up of this process would
        // make the cold proofs warm.
        let _ = std::fs::remove_file(dir.join("cache.jsonl"));
        // A Unix socket path holds at most about 100 bytes; name it
        // relative to the working directory when it lies below it.
        let cwd = std::env::current_dir().unwrap_or_default();
        let socket = dir.strip_prefix(&cwd).unwrap_or(&dir).join("d.sock");
        let server = Server::start(ServeConfig {
            listeners: vec![Listen::Unix(socket.clone())],
            cache: CacheConfig {
                path: Some(dir.join("cache.jsonl")),
                ..CacheConfig::default()
            },
            workers: 1,
            verify_jobs: Some(1),
            ..ServeConfig::default()
        })
        .map_err(io)?;
        let mut cfg = ClientConfig::new(Endpoint::Unix(socket));
        // A retried request is a failed one: never retry.
        cfg.retries = 0;
        Ok(Daemon {
            server: Some(server),
            client: Client::connect(cfg),
            dir,
        })
    }

    /// Sends one request; returns its `result` object, or the reason
    /// it is a failed operation.
    fn call(
        &mut self,
        op: &str,
        fields: Vec<(String, Value)>,
        spans: &Spans,
        counters: &mut Counters,
    ) -> Result<Value, String> {
        // Request bytes only: responses carry measured times, whose
        // printed length varies from run to run.
        if spans.is_on() {
            counters.add(
                "serve.frame_bytes",
                Value::object(fields.clone()).to_compact().len() as f64,
            );
        }
        let resp = self
            .client
            .request(op, fields)
            .map_err(|e| format!("{op}: {e}"))?;
        match resp.get("status").and_then(Value::as_str) {
            Some("ok") => resp
                .get("result")
                .cloned()
                .ok_or_else(|| format!("{op}: no result")),
            _ => Err(format!("{op}: {}", resp.to_compact())),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.handle().shutdown();
            server.shutdown_and_wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fixed, seeded sequence of edit iterations against one daemon.
pub struct EditWorkload {
    designs: Vec<Design>,
    edits: Vec<Edit>,
    golden: Vec<Entry>,
    order: Vec<usize>,
    daemon: Daemon,
}

fn verify_fields(ila: &str, rtl: &str, maps: &[String]) -> Vec<(String, Value)> {
    let maps = maps.iter().map(|m| Value::String(m.clone())).collect();
    vec![
        ("ila".into(), ila.into()),
        ("rtl".into(), rtl.into()),
        ("maps".into(), Value::Array(maps)),
    ]
}

fn num(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

impl EditWorkload {
    /// Builds the registry, prints every design and mutant, fixes the
    /// seeded edit order, starts the daemon and primes it.
    pub fn setup(cfg: &Config, spans: &Spans) -> Result<EditWorkload, String> {
        let registry = spans.span("designs.build", all_case_studies);
        let (designs, edits) = spans.span("edit.render", || render(&registry))?;
        let table = golden::parse(golden::TABLE)?;
        let golden = edits
            .iter()
            .map(|e| {
                table
                    .get(&e.key)
                    .cloned()
                    .ok_or_else(|| format!("golden table has no row {:?}; regenerate it", e.key))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let order = edit_order(
            edits.len(),
            requests_for(cfg.seconds, EDIT_REQUEST_S),
            cfg.seed,
        );
        let mut daemon = spans.span("serve.start", Daemon::start)?;
        let mut counters = Counters::default();
        for d in &designs {
            let fields = verify_fields(&d.ila, &d.rtl, &d.maps);
            let result = spans.span("serve.prime", || {
                daemon.call("verify", fields, spans, &mut counters)
            })?;
            if result.get("all_hold").and_then(Value::as_bool) != Some(true)
                || num(&result, "unknown") != 0.0
            {
                return Err(format!("priming {}: {}", d.cs.name, result.to_compact()));
            }
        }
        Ok(EditWorkload {
            designs,
            edits,
            golden,
            order,
            daemon,
        })
    }

    /// Keys of the edits in request order.
    pub fn sequence(&self) -> Vec<&str> {
        self.order
            .iter()
            .map(|&i| self.edits[i].key.as_str())
            .collect()
    }
}

/// `requests` edit indices: seeded shuffled passes over `edits` edits.
pub fn edit_order(edits: usize, requests: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(requests);
    while order.len() < requests {
        let mut pass: Vec<usize> = (0..edits).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order.truncate(requests);
    order
}

impl Workload for EditWorkload {
    fn request_span(&self) -> &'static str {
        "edit.request"
    }

    fn requests(&self) -> usize {
        // Each edit is two requests, as a designer makes them: the edit
        // itself, then its revert.
        2 * self.order.len()
    }

    fn request(&mut self, i: usize, spans: &Spans, counters: &mut Counters) -> Result<(), String> {
        let e = &self.edits[self.order[i / 2]];
        let d = &self.designs[e.design];
        let want = &self.golden[self.order[i / 2]];
        let fail = |what: String| format!("{}: {what}", e.key);

        if i % 2 == 1 {
            // 4. Revert: every slice hits the cache and nothing is solved.
            let fields = verify_fields(&d.ila, &d.rtl, &d.maps);
            let result = spans
                .span("serve.warm_verify", || {
                    self.daemon.call("verify", fields, spans, counters)
                })
                .map_err(fail)?;
            count_verify(&result, counters);
            let warm = result.get("all_hold").and_then(Value::as_bool) == Some(true)
                && num(&result, "solves") == 0.0
                && num(&result, "cache_misses") == 0.0
                && num(&result, "unknown") == 0.0;
            if !warm {
                return Err(fail(format!(
                    "reverted re-verify not warm: {}",
                    result.to_compact()
                )));
            }
            return Ok(());
        }

        // 1. Lint the mutant.
        let fields = vec![
            ("ila".into(), d.ila.as_str().into()),
            ("rtl".into(), e.text.as_str().into()),
        ];
        spans
            .span("lint.request", || {
                self.daemon.call("lint", fields, spans, counters)
            })
            .map_err(fail)?;

        // 2. Verify the mutant: only slices whose cone holds the
        // register miss the cache.
        let fields = verify_fields(&d.ila, &e.text, &d.maps);
        let result = spans
            .span("serve.edit_verify", || {
                self.daemon.call("verify", fields, spans, counters)
            })
            .map_err(fail)?;
        count_verify(&result, counters);
        let got = golden::verdict_line_json(&result).map_err(fail)?;
        if got != want.verdicts || num(&result, "unknown") != 0.0 {
            return Err(fail(format!("verdicts {got} want {}", want.verdicts)));
        }

        // 3. Hunt the mutant on the compiled simulator.
        let hunted = spans
            .span("sim.hunt", || golden::hunt_mutant(&d.cs, &e.rtl))
            .map_err(fail)?;
        counters.add("sim.cycles", hunted.cycles_run as f64);
        counters.add("sim.findings", hunted.findings.len() as f64);
        let replays: usize = hunted
            .findings
            .iter()
            .filter_map(|f| f.shrunk.as_ref())
            .map(|s| s.replays)
            .sum();
        counters.add("sim.shrink_replays", replays as f64);
        let got = golden::hunt_line(&hunted);
        if got != want.hunt || hunted.cycles_run != want.cycles_run {
            return Err(fail(format!(
                "hunt {got} ({} cycles) want {} ({} cycles)",
                hunted.cycles_run, want.hunt, want.cycles_run
            )));
        }

        Ok(())
    }

    fn probe(&mut self, spans: &Spans, counters: &mut Counters) {
        // Lint's counters: the `.ila` text of a design is the same in
        // every edit of it, so one lint per design, scaled by its edits.
        let mut lints: BTreeMap<usize, f64> = BTreeMap::new();
        for &i in &self.order {
            *lints.entry(self.edits[i].design).or_insert(0.0) += 1.0;
        }
        let mut parsed = Vec::new();
        for d in &self.designs {
            let module = gila_lang::parse_ila(&d.ila).ok();
            let maps: Vec<RefinementMap> = d
                .maps
                .iter()
                .filter_map(|m| RefinementMap::from_json(m).ok())
                .collect();
            parsed.push((module, maps));
        }
        for (&d, &n) in &lints {
            let Some(module) = &parsed[d].0 else { continue };
            let report = lint_module(
                "inline",
                module,
                &LintOptions::default(),
                &Tracer::disabled(),
            );
            counters.add(
                "lint.discharged_static",
                n * report.stats.lints_discharged_static as f64,
            );
            counters.add(
                "lint.sat_calls_avoided",
                n * report.stats.sat_calls_avoided as f64,
            );
            counters.add("lint.absint_s", n * report.stats.absint_ns as f64 / 1e9);
        }
        // Per edit, the parses and cache keys the daemon computes: the
        // `.ila` text three times, the mutant twice, the original once.
        for &i in &self.order {
            let e = &self.edits[i];
            let d = &self.designs[e.design];
            for _ in 0..3 {
                spans
                    .span("lang.parse_ila", || gila_lang::parse_ila(&d.ila))
                    .ok();
            }
            let parse = |text: &str| {
                spans
                    .span("rtl.parse_verilog", || gila_rtl::parse_verilog(text))
                    .ok()
            };
            parse(&e.text);
            let verified = [parse(&e.text), parse(&d.rtl)];
            let (Some(module), maps) = &parsed[e.design] else {
                continue;
            };
            for rtl in verified.iter().flatten() {
                spans
                    .span("verify.slice_keys", || slice_keys(module, rtl, maps))
                    .ok();
            }
            if let Ok((mut ts, _)) = spans.span("verify.rtl_to_ts", || rtl_to_ts(&e.rtl)) {
                spans.span("absint.analyze", || gila_absint::analyze_ts(&mut ts));
            }
        }
    }
}

/// Adds a daemon `verify` result's counts to the per-layer counters.
fn count_verify(result: &Value, c: &mut Counters) {
    c.add("serve.cache_hits", num(result, "cache_hits"));
    c.add("serve.cache_misses", num(result, "cache_misses"));
    c.add("sat.solves", num(result, "solves"));
    c.add("sat.conflicts", num(result, "conflicts"));
    c.add("verify.unknown", num(result, "unknown"));
}
