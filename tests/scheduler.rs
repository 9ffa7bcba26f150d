//! Integration tests of how a verification run executes on the paper's
//! case studies: stopping at the first counterexample, cancellation,
//! budgets, and CNF reuse on each port's persistent engine. Every run
//! checks its instructions one after another. Tests whose names mention
//! a pool keep the names they had when they also covered the
//! verification worker pool, since deleted.

use gila::designs::all_case_studies;
use gila::sat::CancelToken;
use gila::trace::Telemetry;
use gila::verify::{verify_module, CheckResult, ResourceOut, SolveBudget, VerifyOptions};

/// `stop_at_first_cex` still surfaces the documented bug.
#[test]
fn pooled_stop_at_first_cex_finds_the_documented_bug() {
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "AXI Slave")
        .unwrap();
    let buggy = cs.buggy_rtl.expect("AXI Slave has a documented bug");
    let opts = VerifyOptions {
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
/// ran, and its module totals are exactly the fold of those ports.
#[test]
fn stopped_runs_report_only_ports_that_ran() {
    let opts = VerifyOptions {
        stop_at_first_cex: true,
        ..Default::default()
    };
    let mut checked = 0;
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else {
            continue;
        };
        let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).unwrap();
        assert!(report.counts().cex >= 1, "{}", cs.name);
        for p in &report.ports {
            assert!(
                !p.verdicts.is_empty(),
                "{}: port {} never ran but is reported",
                cs.name,
                p.port
            );
        }
        let fold = report
            .ports
            .iter()
            .fold(Telemetry::default(), |acc, p| acc.merge(&p.telemetry));
        assert_eq!(
            report.telemetry, fold,
            "{}: module totals are not the fold of its ports",
            cs.name
        );
        checked += 1;
    }
    assert_eq!(checked, 3, "three buggy designs");
}

/// Cancellation flows from the caller into a run, never back out. A
/// run that stops at its first counterexample leaves the caller's token
/// uncancelled, and a token the caller cancelled before the run turns
/// every verdict into `Unknown(Cancelled)`.
#[test]
fn pooled_runs_never_cancel_the_callers_token() {
    let mut stopped = 0;
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else {
            continue;
        };
        let tok = CancelToken::new();
        let opts = VerifyOptions {
            stop_at_first_cex: true,
            cancel: Some(tok.clone()),
            ..Default::default()
        };
        let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).unwrap();
        assert!(report.counts().cex >= 1, "{}", cs.name);
        assert!(
            !tok.is_cancelled(),
            "{}: stopping the run cancelled the caller's token",
            cs.name
        );
        stopped += 1;
    }
    assert_eq!(stopped, 3, "three buggy designs");

    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "AXI Slave")
        .unwrap();
    let tok = CancelToken::new();
    tok.cancel();
    let opts = VerifyOptions {
        cancel: Some(tok),
        ..Default::default()
    };
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
    assert_eq!(
        report.instructions_checked(),
        cs.ila.stats().instructions,
        "a cancelled run must still report every instruction"
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
                "{}/{} is {:?}, not Unknown(cancelled)",
                p.port,
                v.instruction,
                v.result
            );
        }
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
    let opts = VerifyOptions::default();
    assert!(opts.budget.is_unbounded());
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).unwrap();
    assert!(report.all_hold());
    let c = report.counts();
    assert_eq!((c.unknown, c.panicked), (0, 0));
    assert_eq!(report.telemetry.retries, 0);
    assert_eq!(report.telemetry.budget_spent_conflicts, 0);
}

#[test]
fn pooled_budget_exhaustion_is_reported_not_fatal() {
    // A zero deadline exhausts every job; the run still completes with
    // a full set of Unknown verdicts.
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Decoder")
        .unwrap();
    let opts = VerifyOptions {
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
    // Every port keeps one persistent incremental engine: every
    // instruction after the first must add far less CNF than the first
    // (the frame logic its decode leaves open is cached). Store Buffer's IN-OUT-PORT
    // instructions share frame logic that none of their decodes fixes,
    // so cofactoring leaves it to blast once.
    let cs = all_case_studies()
        .into_iter()
        .find(|c| c.name == "Store Buffer")
        .unwrap();
    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &VerifyOptions::default()).unwrap();
    let growth: Vec<u64> = report
        .ports
        .iter()
        .filter(|p| p.port == "IN-OUT-PORT")
        .flat_map(|p| &p.verdicts)
        .map(|v| v.cnf_growth.clauses)
        .collect();
    assert!(growth.len() > 1, "need several instructions: {growth:?}");
    // The first instruction pays for the shared frame logic; every
    // later one only adds its own decode/post-state logic, so its growth
    // is strictly smaller — and once instructions share circuitry the
    // increment collapses to almost nothing.
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
