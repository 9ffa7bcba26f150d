//! Fault-injection integration tests: the acceptance criteria of the
//! robustness layer. An injected panic or an exhausted budget must never
//! abort a module run — every other instruction still gets the verdict
//! it would get in a clean run — and a run against a verdict journal
//! must re-verify only the jobs a previous run left undecided, and
//! never credit a journaled verdict to a changed design.

use std::path::Path;
use std::sync::Arc;

use gila::core::ModuleIla;
use gila::designs::all_case_studies;
use gila::rtl::RtlModule;
use gila::trace::{Event, SpanKind, Tracer};
use gila::verify::{
    identity_refmaps, synthesize_module, verify_module, CacheConfig, CheckResult, DecidedBy,
    FaultAction, FaultPlan, ModuleReport, ProofCache, RefinementMap, ResourceOut, SolveBudget,
    VerifyError, VerifyOptions,
};
use proptest::prelude::*;

fn decoder() -> (ModuleIla, RtlModule, Vec<RefinementMap>) {
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    (cs.ila, cs.rtl, cs.refmaps)
}

fn counter() -> (ModuleIla, RtlModule, Vec<RefinementMap>) {
    let ila = gila::lang::parse_ila(include_str!("../specs/counter.ila")).unwrap();
    let rtl = synthesize_module(&ila).unwrap();
    let maps = identity_refmaps(&ila);
    (ila, rtl, maps)
}

/// `(port, instruction, verdict tag)` triples in declaration order.
fn shape(report: &ModuleReport) -> Vec<(String, String, &'static str)> {
    report
        .ports
        .iter()
        .flat_map(|p| {
            p.verdicts
                .iter()
                .map(|v| (p.port.clone(), v.instruction.clone(), v.result.tag()))
        })
        .collect()
}

/// Opens (or reopens) the verdict journal at `path`.
fn journal(path: &Path) -> Option<Arc<ProofCache>> {
    let cfg = CacheConfig {
        path: Some(path.to_path_buf()),
        ..CacheConfig::default()
    };
    Some(Arc::new(ProofCache::open(cfg).expect("journal opens")))
}

#[test]
fn injected_panic_never_aborts_and_other_verdicts_match() {
    let (ila, rtl, maps) = decoder();
    let port = ila.ports()[0].name().to_string();
    let instr = ila.ports()[0].instructions()[0].name.clone();
    let clean = verify_module(&ila, &rtl, &maps, &VerifyOptions::default()).unwrap();
    assert!(clean.all_hold());
    let fault = FaultPlan::new().inject(
        &port,
        &instr,
        FaultAction::Panic("isolation test".into()),
        None,
    );
    let faulted = verify_module(
        &ila,
        &rtl,
        &maps,
        &VerifyOptions {
            fault_plan: Some(Arc::new(fault)),
            ..Default::default()
        },
    )
    .unwrap();
    // The run completed: one verdict per instruction, exactly one of
    // them the isolated panic, all others identical to the clean run.
    assert_eq!(clean.instructions_checked(), faulted.instructions_checked());
    assert_eq!(faulted.counts().panicked, 1);
    assert_eq!(faulted.telemetry.panicked, 1);
    for (c, f) in shape(&clean).iter().zip(shape(&faulted).iter()) {
        if f.0 == port && f.1 == instr {
            assert_eq!(f.2, "panicked");
        } else {
            assert_eq!(c, f, "unfaulted verdict drifted");
        }
    }
}

#[test]
fn wildcard_panic_on_every_job_still_drains_the_run() {
    // The pathological case: every single job dies. The module run must
    // still return a full report, not abort or hang.
    let (ila, rtl, maps) = decoder();
    let fault = FaultPlan::new().inject("*", "*", FaultAction::Panic("total loss".into()), None);
    let report = verify_module(
        &ila,
        &rtl,
        &maps,
        &VerifyOptions {
            fault_plan: Some(Arc::new(fault)),
            ..Default::default()
        },
    )
    .unwrap();
    let counts = report.counts();
    assert_eq!(counts.panicked, report.instructions_checked(), "{counts:?}");
}

#[test]
fn resume_reverifies_only_undecided_jobs() {
    let (ila, rtl, maps) = decoder();
    let port = ila.ports()[0].name().to_string();
    let instr = ila.ports()[0].instructions()[0].name.clone();
    let dir = std::env::temp_dir().join(format!("gila_fault_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("resume.jsonl");
    // First run: the target instruction is forced Unknown (once), every
    // decided verdict streams to the journal.
    let fault = FaultPlan::new().inject(&port, &instr, FaultAction::ForceUnknown, Some(1));
    let first = verify_module(
        &ila,
        &rtl,
        &maps,
        &VerifyOptions {
            fault_plan: Some(Arc::new(fault)),
            journal: journal(&ckpt),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(first.counts().unknown, 1);
    // Rerun on the reopened journal: decided verdicts replay with zero
    // solver work, only the undecided instruction is re-verified.
    let second = verify_module(
        &ila,
        &rtl,
        &maps,
        &VerifyOptions {
            journal: journal(&ckpt),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(second.all_hold(), "{:#?}", second.counts());
    for p in &second.ports {
        for v in &p.verdicts {
            if p.port == port && v.instruction == instr {
                assert!(v.solves > 0, "undecided job must re-solve");
            } else {
                assert_eq!(
                    v.solves, 0,
                    "{}/{} was decided and must replay",
                    p.port, v.instruction
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal written for one RTL must never answer for another: the
/// verdicts are keyed by the content of each sliced property, so the
/// bug-injected variants re-prove exactly the slices the bug touches
/// and report every counterexample a cold run reports.
#[test]
fn stale_journal_never_hides_a_bug() {
    let dir = std::env::temp_dir().join(format!("gila_fault_stale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut checked = Vec::new();
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else {
            continue;
        };
        let path = dir.join(format!("{}.jsonl", cs.name.replace(' ', "_")));
        let _ = std::fs::remove_file(&path);
        let opts = |journal| VerifyOptions {
            journal,
            ..VerifyOptions::default()
        };
        let fixed = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts(journal(&path))).unwrap();
        assert!(fixed.all_hold(), "{}", cs.name);
        let cold = verify_module(&cs.ila, buggy, &cs.refmaps, &opts(None)).unwrap();
        let stale = verify_module(&cs.ila, buggy, &cs.refmaps, &opts(journal(&path))).unwrap();
        assert_eq!(
            stale.counts(),
            cold.counts(),
            "{}: the journal changed the buggy run's verdicts",
            cs.name
        );
        // Slices outside the bug's cone still replay for free (a design
        // whose every slice observes the buggy logic replays none).
        let replayed = stale
            .ports
            .iter()
            .flat_map(|p| &p.verdicts)
            .filter(|v| v.decided_by == DecidedBy::Journal)
            .count() as u64;
        assert_eq!(replayed, stale.telemetry.cache_hits, "{}", cs.name);
        checked.push((cs.name, stale.counts().cex, replayed));
    }
    checked.sort();
    let cex: Vec<(&str, usize)> = checked.iter().map(|&(n, c, _)| (n, c)).collect();
    assert_eq!(
        cex,
        vec![("AXI Slave", 1), ("L2 Cache", 2), ("Store Buffer", 1)],
        "every registry bug is found through a stale journal"
    );
    assert!(
        checked.iter().any(|&(_, _, replayed)| replayed > 0),
        "no slice outside a bug's cone replayed: {checked:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A run whose journal answers every instruction of a port reports
/// that port from its replays alone: no slice, no lemmas, no solves,
/// yet the same verdicts, port spans and cache counts as the run that
/// set every port up. Under `stop_at_first_cex` a journaled
/// counterexample cuts the replayed list exactly where a cold run
/// stops, and a fully warm stopped run runs no job.
#[test]
fn wholly_replayed_ports_skip_setup() {
    let dir = std::env::temp_dir().join(format!("gila_fault_replayed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let count = |events: &[Event], kind: SpanKind| events.iter().filter(|e| e.kind == kind).count();
    let port_spans = |events: &[Event]| -> Vec<(String, String, Option<u64>)> {
        events
            .iter()
            .filter(|e| e.kind == SpanKind::Port)
            .map(|e| (e.port.clone(), e.label.clone(), e.get("instructions")))
            .collect()
    };
    let mut truncated = 0;
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else {
            continue;
        };
        let stop = VerifyOptions {
            stop_at_first_cex: true,
            ..Default::default()
        };
        let cold_stop = verify_module(&cs.ila, buggy, &cs.refmaps, &stop).unwrap();
        assert!(cold_stop.counts().cex >= 1, "{}", cs.name);
        let name = cs.name;
        let path = dir.join(format!("{}.jsonl", name.replace(' ', "_")));
        let _ = std::fs::remove_file(&path);
        let run = |journal, stop_at_first_cex| {
            let (tracer, ring) = Tracer::ring(1 << 20);
            let opts = VerifyOptions {
                journal,
                tracer,
                stop_at_first_cex,
                ..Default::default()
            };
            let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).unwrap();
            (report, ring.events())
        };

        let (cold, cold_events) = run(journal(&path), false);
        let (warm, warm_events) = run(journal(&path), false);
        let keyed = cold.instructions_checked() as u64;
        assert_eq!(shape(&warm), shape(&cold), "{name}");
        assert_eq!(warm.telemetry.solves, 0, "{name}");
        assert_eq!((cold.telemetry.cache_hits, cold.telemetry.cache_misses), (0, keyed));
        assert_eq!((warm.telemetry.cache_hits, warm.telemetry.cache_misses), (keyed, 0));
        assert!(count(&cold_events, SpanKind::Coi) > 0, "{name}");
        assert_eq!(count(&warm_events, SpanKind::Coi), 0, "{name}");
        assert_eq!(port_spans(&warm_events), port_spans(&cold_events), "{name}");
        for e in warm_events.iter().filter(|e| e.kind == SpanKind::Port) {
            assert_eq!((e.get("solves"), e.get("conflicts")), (Some(0), Some(0)));
        }

        let (warm_stop, stop_events) = run(journal(&path), true);
        assert_eq!(shape(&warm_stop), shape(&cold_stop), "{name}");
        assert_eq!(warm_stop.telemetry.solves, 0, "{name}");
        assert_eq!(count(&stop_events, SpanKind::Coi), 0, "{name}");
        assert_eq!(count(&stop_events, SpanKind::Instruction), 0, "{name}");
        // A port cut short by its first counterexample.
        truncated += warm_stop
            .ports
            .iter()
            .filter(|p| {
                let port = cs.ila.ports().iter().find(|q| q.name() == p.port).unwrap();
                p.verdicts.len() < port.instructions().len()
            })
            .count();
    }
    assert!(truncated > 0, "no replayed port was cut at a counterexample");
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed input errors before anything is solved, with or without a
/// journal: in a two-port module whose second refinement map names an
/// RTL signal that does not exist, the first port never runs.
#[test]
fn malformed_second_map_errors_before_any_solve() {
    let ila = gila::lang::parse_ila(include_str!("../specs/axi_slave.ila")).unwrap();
    let rtl = synthesize_module(&ila).unwrap();
    let mut maps = identity_refmaps(&ila);
    assert_eq!(maps.len(), 2, "a two-port module");
    let state = ila.ports()[1].states()[0].name.clone();
    maps[1].map_state(&state, "ghost");
    let expected = VerifyError::UnknownRtlSignal {
        signal: "ghost".to_string(),
        context: "state map".to_string(),
    };
    for journaled in [false, true] {
        let (tracer, ring) = Tracer::ring(1 << 16);
        let journal =
            journaled.then(|| Arc::new(ProofCache::open(CacheConfig::default()).unwrap()));
        let opts = VerifyOptions {
            tracer,
            journal,
            ..Default::default()
        };
        let err = verify_module(&ila, &rtl, &maps, &opts).unwrap_err();
        assert_eq!(err, expected, "journaled={journaled}");
        let solves = ring.events().iter().filter(|e| e.kind == SpanKind::Solve).count();
        assert_eq!(solves, 0, "journaled={journaled}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Budget semantics, property-style: Unknown can only appear when a
    /// conflict limit was configured, and then only with more conflicts
    /// spent than the limit allowed; an unbounded budget always decides.
    #[test]
    fn unknown_only_when_a_limit_was_hit(raw in 0u64..60) {
        let (ila, rtl, maps) = counter();
        let conflicts = (raw < 50).then_some(raw);
        let opts = VerifyOptions {
            budget: SolveBudget { conflicts, timeout: None },
            ..Default::default()
        };
        let report = verify_module(&ila, &rtl, &maps, &opts).unwrap();
        for p in &report.ports {
            for v in &p.verdicts {
                if let CheckResult::Unknown { reason, budget_spent } = &v.result {
                    prop_assert!(conflicts.is_some(), "Unknown without a limit");
                    prop_assert_eq!(*reason, ResourceOut::Conflicts);
                    // "spent > max": giving up means the limit was passed.
                    prop_assert!(budget_spent.conflicts > conflicts.unwrap());
                }
            }
        }
        if conflicts.is_none() {
            prop_assert!(report.all_hold());
            prop_assert_eq!(report.telemetry.unknown, 0);
        }
    }
}
