//! Mass randomized bug hunting on the compiled simulation backend.
//!
//! A hunt is a grid of independent co-simulation tasks — every
//! `(design, port)` pair crossed with `seeds` random seeds, each running
//! up to `cycles` commands on [`crate::cosimulate_compiled`]'s tape
//! backend. Tasks are distributed over a small worker pool (`jobs`
//! threads, an atomic task counter — the tasks are uniform enough that
//! work stealing would buy nothing), and each worker compiles every
//! design it touches exactly once, so steady-state cost is pure tape
//! execution.
//!
//! Every divergence found is auto-shrunk ([`crate::shrink_divergence`])
//! to a locally minimal command stream unless the config says otherwise.
//! The report is deterministic: findings are keyed and sorted by
//! `(design, port, seed)`, independent of worker interleaving — the
//! property the jobs=1-vs-jobs=N tests pin down.
//!
//! Telemetry: one `compile` span per (worker, design, port) tape
//! compilation and one `eval` span per task, so `gila hunt --trace` is
//! comparable across job counts via `gila_trace::span_set`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gila_core::PortIla;
use gila_rtl::RtlModule;
use gila_trace::{Event, SpanKind, Tracer};

use crate::compiled::CompiledCosim;
use crate::cosim::{check_map, run_random, CosimError, Divergence};
use crate::refmap::RefinementMap;
use crate::shrink::{shrink_with, ShrinkResult};

/// One (design, port) pair to hunt over.
#[derive(Clone, Copy, Debug)]
pub struct HuntTarget<'a> {
    /// Design name (for reporting; ports of one design share it).
    pub design: &'a str,
    /// The port-ILA specification.
    pub port: &'a PortIla,
    /// The RTL implementation.
    pub rtl: &'a RtlModule,
    /// The refinement map tying them together.
    pub map: &'a RefinementMap,
}

/// Hunt dimensions and behaviour.
#[derive(Clone, Debug)]
pub struct HuntConfig {
    /// Random seeds per target.
    pub seeds: u64,
    /// Maximum commands per seed.
    pub cycles: usize,
    /// Worker threads.
    pub jobs: usize,
    /// First seed; task `(target, i)` runs seed `seed_base + i`.
    pub seed_base: u64,
    /// Auto-shrink every divergence found.
    pub shrink: bool,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            seeds: 256,
            cycles: 1024,
            jobs: 1,
            seed_base: 0xB06,
            shrink: true,
        }
    }
}

/// One divergence found by a hunt.
#[derive(Clone, Debug)]
pub struct HuntFinding {
    /// Design name of the target.
    pub design: String,
    /// Port name of the target.
    pub port: String,
    /// The seed that found it.
    pub seed: u64,
    /// The divergence as first observed.
    pub divergence: Divergence,
    /// The shrunk reproducer (absent when shrinking is disabled or the
    /// stream failed to replay deterministically).
    pub shrunk: Option<ShrinkResult>,
}

/// Aggregate outcome of a hunt.
#[derive(Clone, Debug, Default)]
pub struct HuntReport {
    /// All divergences, sorted by `(design, port, seed)`.
    pub findings: Vec<HuntFinding>,
    /// Total tasks executed (targets × seeds).
    pub tasks: usize,
    /// Tasks that ran all cycles without divergence.
    pub clean_tasks: usize,
    /// Tasks that errored (e.g. no decodable command for a seed), as
    /// `(design, port, seed, error)`, sorted like findings.
    pub errors: Vec<(String, String, u64, String)>,
    /// Co-simulated cycles summed over all tasks.
    pub cycles_run: u64,
}

enum TaskOutcome {
    Clean { cycles: u64 },
    Found { cycles: u64, finding: Box<HuntFinding> },
    Error { error: String },
}

/// Runs the full hunt grid over `targets`.
///
/// # Errors
///
/// Configuration errors ([`CosimError::UnmappedInput`],
/// [`CosimError::UnknownRtlSignal`], sort mismatches) are returned
/// up front — they would fail every seed of a target identically.
/// Per-seed errors (a seed that decodes no command) are collected in
/// [`HuntReport::errors`] instead.
pub fn hunt(
    targets: &[HuntTarget<'_>],
    config: &HuntConfig,
    tracer: &Tracer,
) -> Result<HuntReport, CosimError> {
    // A compile fails only on a bad map: check every target's map once,
    // and workers can then treat compile as infallible.
    for t in targets {
        check_map(t.port, t.rtl, t.map)?;
    }

    let seeds = config.seeds.max(1);
    let total = targets.len() * seeds as usize;
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<(usize, TaskOutcome)>> = Mutex::new(Vec::with_capacity(total));
    let jobs = config.jobs.max(1).min(total.max(1));

    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let next = &next;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let mut compiled: HashMap<usize, CompiledCosim<'_>> = HashMap::new();
                let mut local: Vec<(usize, TaskOutcome)> = Vec::new();
                loop {
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= total {
                        break;
                    }
                    let t_i = task / seeds as usize;
                    let seed = config.seed_base + (task % seeds as usize) as u64;
                    let target = &targets[t_i];
                    let cs = compiled.entry(t_i).or_insert_with(|| {
                        let cs = CompiledCosim::new(target.port, target.rtl, target.map)
                            .expect("targets validated up front");
                        tracer.record(|| {
                            Event::new(SpanKind::Compile)
                                .port(target.port.name())
                                .label(target.design)
                                .worker(Some(worker))
                                .field("tape_instrs", cs.tape_len() as u64)
                        });
                        cs
                    });
                    let outcome = match run_random(cs, seed, config.cycles) {
                        Ok((None, cycles)) => TaskOutcome::Clean {
                            cycles: cycles as u64,
                        },
                        Ok((Some(divergence), cycles)) => {
                            let shrunk = if config.shrink {
                                shrink_with(cs, &divergence).ok()
                            } else {
                                None
                            };
                            TaskOutcome::Found {
                                cycles: cycles as u64,
                                finding: Box::new(HuntFinding {
                                    design: target.design.to_string(),
                                    port: target.port.name().to_string(),
                                    seed,
                                    divergence,
                                    shrunk,
                                }),
                            }
                        }
                        Err(e) => TaskOutcome::Error {
                            error: e.to_string(),
                        },
                    };
                    tracer.record(|| {
                        let (cycles, diverged) = match &outcome {
                            TaskOutcome::Clean { cycles } => (*cycles, 0),
                            TaskOutcome::Found { cycles, .. } => (*cycles, 1),
                            TaskOutcome::Error { .. } => (0, 0),
                        };
                        Event::new(SpanKind::Eval)
                            .port(target.port.name())
                            .label(&format!("{}#{seed}", target.design))
                            .worker(Some(worker))
                            .field("cycles", cycles)
                            .field("diverged", diverged)
                    });
                    local.push((task, outcome));
                }
                outcomes
                    .lock()
                    .expect("hunt outcome collector poisoned")
                    .append(&mut local);
            });
        }
    });

    let mut outcomes = outcomes.into_inner().expect("hunt outcome collector poisoned");
    outcomes.sort_by_key(|(task, _)| *task);

    let mut report = HuntReport {
        tasks: total,
        ..HuntReport::default()
    };
    for (task, outcome) in outcomes {
        match outcome {
            TaskOutcome::Clean { cycles } => {
                report.clean_tasks += 1;
                report.cycles_run += cycles;
            }
            TaskOutcome::Found { cycles, finding } => {
                report.cycles_run += cycles;
                report.findings.push(*finding);
            }
            TaskOutcome::Error { error } => {
                let t_i = task / seeds as usize;
                let seed = config.seed_base + (task % seeds as usize) as u64;
                report.errors.push((
                    targets[t_i].design.to_string(),
                    targets[t_i].port.name().to_string(),
                    seed,
                    error,
                ));
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.design, &a.port, a.seed).cmp(&(&b.design, &b.port, b.seed)));
    report.errors.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::StateKind;
    use gila_expr::Sort;
    use gila_rtl::parse_verilog;
    use gila_trace::span_set;

    fn counter(step: u64) -> (PortIla, RtlModule, RefinementMap) {
        let mut p = PortIla::new("counter");
        let en = p.input("en", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
        let d = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 8);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d).update("cnt", nx).add().unwrap();
        let d = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d).add().unwrap();
        let rtl = parse_verilog(&format!(
            r#"
module counter(clk, en_in);
  input clk; input en_in;
  reg [7:0] count;
  always @(posedge clk) if (en_in) count <= count + 8'd{step};
endmodule
"#
        ))
        .unwrap();
        let mut map = RefinementMap::new("counter");
        map.map_state("cnt", "count");
        map.map_input("en", "en_in");
        (p, rtl, map)
    }

    fn run(jobs: usize, tracer: &Tracer) -> HuntReport {
        let good = counter(1);
        let bad = counter(2);
        let targets = [
            HuntTarget {
                design: "good",
                port: &good.0,
                rtl: &good.1,
                map: &good.2,
            },
            HuntTarget {
                design: "bad",
                port: &bad.0,
                rtl: &bad.1,
                map: &bad.2,
            },
        ];
        let config = HuntConfig {
            seeds: 6,
            cycles: 128,
            jobs,
            ..HuntConfig::default()
        };
        hunt(&targets, &config, tracer).unwrap()
    }

    #[test]
    fn finds_only_the_buggy_design_and_shrinks() {
        let report = run(2, &Tracer::disabled());
        assert_eq!(report.tasks, 12);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // Every seed of the good design is clean; every seed of the bad
        // one diverges (any en=1 cycle exposes step=2).
        assert_eq!(report.clean_tasks, 6);
        assert_eq!(report.findings.len(), 6);
        assert!(report.cycles_run > 0);
        let mut last_seed = None;
        for f in &report.findings {
            assert_eq!(f.design, "bad");
            assert_eq!(f.port, "counter");
            let s = f.shrunk.as_ref().expect("shrinking enabled");
            assert_eq!(s.divergence.inputs.len(), 1, "step bug needs one command");
            assert_eq!(s.divergence.state, f.divergence.state);
            if let Some(prev) = last_seed {
                assert!(f.seed > prev, "findings sorted by seed");
            }
            last_seed = Some(f.seed);
        }
    }

    #[test]
    fn span_set_is_identical_across_job_counts() {
        let (t1, ring1) = Tracer::ring(4096);
        let (t4, ring4) = Tracer::ring(4096);
        let r1 = run(1, &t1);
        let r4 = run(4, &t4);
        assert_eq!(r1.findings.len(), r4.findings.len());
        assert_eq!(r1.clean_tasks, r4.clean_tasks);
        let jsonl = |events: Vec<Event>| {
            events
                .iter()
                .map(|e| e.to_json_line())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let s1 = span_set(&jsonl(ring1.events())).unwrap();
        let s4 = span_set(&jsonl(ring4.events())).unwrap();
        assert_eq!(s1, s4);
        // compile spans for both designs + one eval span per task.
        assert!(s1.len() >= 12 + 2, "{s1:?}");
    }
}
