//! Integration tests of the work-stealing verification scheduler on the
//! paper's case studies: a pooled run must report exactly what a
//! sequential run reports, for any worker count, and `stop_at_first_cex`
//! must still surface the documented bugs when workers race.

use std::sync::Arc;

use gila::designs::all_case_studies;
use gila::sat::CancelToken;
use gila::trace::Telemetry;
use gila::verify::{
    verify_module, CheckResult, FaultAction, FaultPlan, ResourceOut, SolveBudget, VerifyOptions,
};

fn with_jobs(jobs: usize) -> VerifyOptions {
    VerifyOptions {
        jobs: Some(jobs),
        ..Default::default()
    }
}

/// `(port, instruction, holds)` triples — everything that must be
/// identical between scheduling modes.
fn verdict_shape(report: &gila::verify::ModuleReport) -> Vec<(String, String, bool)> {
    report
        .ports
        .iter()
        .flat_map(|p| {
            p.verdicts
                .iter()
                .map(|v| (p.port.clone(), v.instruction.clone(), v.result.holds()))
        })
        .collect()
}

#[test]
fn pooled_module_verification_matches_sequential() {
    for cs in all_case_studies() {
        // One i8051 and one AXI design keep the test fast while still
        // covering multi-port scheduling.
        if !matches!(cs.name, "Decoder" | "AXI Slave") {
            continue;
        }
        let seq = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &with_jobs(1)).unwrap();
        assert!(seq.all_hold(), "{}: {seq:#?}", cs.name);
        for jobs in [2, 8] {
            let pooled =
                verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &with_jobs(jobs)).unwrap();
            assert_eq!(
                verdict_shape(&seq),
                verdict_shape(&pooled),
                "{} with jobs={jobs}",
                cs.name
            );
        }
    }
}

#[test]
fn auto_sized_pool_runs_to_completion() {
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    // jobs = Some(0): one worker per available CPU.
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &with_jobs(0)).unwrap();
    assert!(report.all_hold(), "{report:#?}");
    assert_eq!(
        report.instructions_checked(),
        verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &with_jobs(1))
            .unwrap()
            .instructions_checked()
    );
}

#[test]
fn pooled_stop_at_first_cex_finds_the_documented_bug() {
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "AXI Slave")
        .unwrap();
    let buggy = cs.buggy_rtl.expect("AXI Slave has a documented bug");
    let opts = VerifyOptions {
        jobs: Some(2),
        stop_at_first_cex: true,
        ..Default::default()
    };
    let report = verify_module(&cs.ila, &buggy, &cs.refmaps, &opts).unwrap();
    assert!(!report.all_hold());
    let cex: Vec<&str> = report
        .ports
        .iter()
        .flat_map(|p| &p.verdicts)
        .filter(|v| matches!(v.result, CheckResult::CounterExample(_)))
        .map(|v| v.instruction.as_str())
        .collect();
    assert!(
        cex.contains(&"RD_DATA_PREPARE"),
        "documented bug not among counterexamples: {cex:?}"
    );
}

/// A run stopped at its first counterexample reports only ports that
/// ran, and its module totals are exactly the fold of those ports, on
/// the sequential engine, under the adaptive fallback and on a forced
/// pool alike.
#[test]
fn stopped_runs_report_only_ports_that_ran() {
    let configs = [
        ("jobs=1", with_jobs(1)),
        ("jobs=4", with_jobs(4)),
        (
            "jobs=4 par_threshold=0",
            VerifyOptions {
                par_threshold: 0,
                ..with_jobs(4)
            },
        ),
    ];
    let mut checked = 0;
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else {
            continue;
        };
        for (label, opts) in &configs {
            let opts = VerifyOptions {
                stop_at_first_cex: true,
                ..opts.clone()
            };
            let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).unwrap();
            assert!(report.counts().cex >= 1, "{} {label}", cs.name);
            for p in &report.ports {
                assert!(
                    !p.verdicts.is_empty(),
                    "{} {label}: port {} never ran but is reported",
                    cs.name,
                    p.port
                );
            }
            let fold = report
                .ports
                .iter()
                .fold(Telemetry::default(), |acc, p| acc.merge(&p.telemetry));
            assert_eq!(
                Telemetry {
                    workers: 0,
                    ..report.telemetry.clone()
                },
                Telemetry { workers: 0, ..fold },
                "{} {label}: module totals are not the fold of its ports",
                cs.name
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 9, "three buggy designs under three configurations");
}

/// Cancellation flows from the caller into a run, never back out. A
/// pooled run that stops at its first counterexample leaves the
/// caller's token uncancelled, and a token the caller cancelled before
/// the run turns every pooled verdict into `Unknown(Cancelled)`, as it
/// does on the sequential engine.
#[test]
fn pooled_runs_never_cancel_the_callers_token() {
    let mut stopped = 0;
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else {
            continue;
        };
        for jobs in [1, 4] {
            let tok = CancelToken::new();
            let opts = VerifyOptions {
                stop_at_first_cex: true,
                par_threshold: 0,
                cancel: Some(tok.clone()),
                ..with_jobs(jobs)
            };
            let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).unwrap();
            assert!(report.counts().cex >= 1, "{} jobs={jobs}", cs.name);
            assert!(
                !tok.is_cancelled(),
                "{} jobs={jobs}: stopping the run cancelled the caller's token",
                cs.name
            );
            stopped += 1;
        }
    }
    assert_eq!(stopped, 6, "three buggy designs, sequential and pooled");

    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "AXI Slave")
        .unwrap();
    for jobs in [1, 4] {
        let tok = CancelToken::new();
        tok.cancel();
        let opts = VerifyOptions {
            par_threshold: 0,
            cancel: Some(tok),
            ..with_jobs(jobs)
        };
        let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
        assert_eq!(
            report.instructions_checked(),
            cs.ila.stats().instructions,
            "jobs={jobs}: a cancelled run must still report every instruction"
        );
        for p in &report.ports {
            for v in &p.verdicts {
                assert!(
                    matches!(
                        v.result,
                        CheckResult::Unknown {
                            reason: ResourceOut::Cancelled,
                            ..
                        }
                    ),
                    "jobs={jobs}: {}/{} is {:?}, not Unknown(cancelled)",
                    p.port,
                    v.instruction,
                    v.result
                );
            }
        }
    }
}

#[test]
fn pooled_verdicts_match_sequential_under_fault_injection() {
    // Panic isolation and forced Unknowns must not depend on the
    // scheduling mode: a faulted pooled run reports the same per-
    // instruction outcome tags as a faulted sequential run.
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    let target = cs.ila.ports()[0].instructions()[0].name.clone();
    let tags = |jobs: usize| {
        let opts = VerifyOptions {
            jobs: Some(jobs),
            fault_plan: Some(Arc::new(FaultPlan::new().inject(
                "*",
                &target,
                FaultAction::Panic("parity".into()),
                None,
            ))),
            ..Default::default()
        };
        let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
        report
            .ports
            .iter()
            .flat_map(|p| {
                p.verdicts
                    .iter()
                    .map(|v| (p.port.clone(), v.instruction.clone(), v.result.tag()))
            })
            .collect::<Vec<_>>()
    };
    let seq = tags(1);
    assert!(seq.iter().any(|(_, _, t)| *t == "panicked"));
    for jobs in [2, 8] {
        assert_eq!(seq, tags(jobs), "jobs={jobs}");
    }
}

#[test]
fn budgets_disabled_pool_matches_pr2_behavior() {
    // The default (unbounded) budget takes the exact pre-budget code
    // path: no Unknown verdicts, no retries, zero budget telemetry.
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    let opts = VerifyOptions {
        jobs: Some(4),
        ..Default::default()
    };
    assert!(opts.budget.is_unbounded());
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
    assert!(report.all_hold());
    let c = report.counts();
    assert_eq!((c.unknown, c.panicked), (0, 0));
    assert_eq!(report.telemetry.retries, 0);
    assert_eq!(report.telemetry.budget_spent_conflicts, 0);
    assert!(report.ports.iter().flat_map(|p| &p.verdicts).all(|v| v.retries == 0));
}

#[test]
fn pooled_budget_exhaustion_is_reported_not_fatal() {
    // A zero deadline exhausts every job in the pool; the run still
    // completes with a full set of Unknown verdicts.
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    let opts = VerifyOptions {
        jobs: Some(4),
        budget: SolveBudget {
            conflicts: None,
            timeout: Some(std::time::Duration::ZERO),
        },
        ..Default::default()
    };
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
    assert_eq!(
        report.counts().unknown,
        report.instructions_checked(),
        "{:?}",
        report.counts()
    );
}

#[test]
fn pooled_runs_reuse_worker_cnf() {
    // With one job the run uses the sequential engine, which keeps one
    // persistent incremental engine per port: every instruction after
    // the first must add far less CNF than the first (the transition
    // relation is cached).
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    let opts = VerifyOptions {
        jobs: Some(1),
        ..Default::default()
    };
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
    let growth: Vec<u64> = report
        .ports
        .iter()
        .flat_map(|p| &p.verdicts)
        .map(|v| v.cnf_growth.clauses)
        .collect();
    assert!(growth.len() > 1, "need several instructions: {growth:?}");
    // The first instruction pays for the blasted transition relation;
    // every later one only adds its own decode/post-state logic, so its
    // growth is strictly smaller — and once instructions share circuitry
    // the increment collapses to almost nothing.
    let first = growth[0];
    assert!(
        growth[1..].iter().all(|&g| g < first),
        "expected every later instruction to grow the CNF less than the \
         first on a persistent engine: {growth:?}"
    );
    let later_min = *growth[1..].iter().min().unwrap();
    assert!(
        later_min * 4 < first,
        "expected near-total CNF reuse for at least one instruction: {growth:?}"
    );
}
