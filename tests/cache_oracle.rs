//! Checks the proof cache's soundness claim instead of trusting it:
//! equal slice keys mean equal verdicts.
//!
//! For every registry design, every single-register mutant of its fixed
//! RTL and its buggy variant are verified afresh. Every check whose key
//! equals the fixed RTL's key for the same `(port, instruction)` must
//! get the fixed RTL's verdict, which is exactly what a `gila serve`
//! journal would have credited it. The golden pins three counts per
//! design and variant family: checks that kept their key, re-keyed
//! checks that fail, and re-keyed checks that still hold. The last is
//! the cache's imprecision: proofs the cache makes the solver redo.
//!
//! Regenerate with `GILA_REGEN_GOLDEN=1 cargo test --test cache_oracle`
//! only when a change moves these counts on purpose.

use std::collections::HashMap;
use std::fmt::Write;
use std::path::PathBuf;

use gila::designs::{all_case_studies, CaseStudy};
use gila::rtl::RtlModule;
use gila::verify::{
    mutate_register, slice_keys, verify_module, CheckResult, Mutation, VerifyOptions,
};

/// A verdict reduced to what a journal replays: holds or fails.
fn holds(result: &CheckResult) -> bool {
    match result {
        CheckResult::Holds => true,
        CheckResult::CounterExample(_) | CheckResult::FinishNotReached { .. } => false,
        CheckResult::Unknown { .. } | CheckResult::JobPanicked { .. } => {
            panic!("an unbounded fresh run must decide every check: {result:?}")
        }
    }
}

/// Every `(port, instruction)` check of `rtl`, keyed by name, with its
/// slice key and whether it holds when verified afresh.
fn fresh_checks(cs: &CaseStudy, rtl: &RtlModule) -> HashMap<(String, String), (String, bool)> {
    let keys = slice_keys(&cs.ila, rtl, &cs.refmaps).expect("registry RTL keys");
    let report = verify_module(&cs.ila, rtl, &cs.refmaps, &VerifyOptions::default())
        .expect("registry RTL verifies");
    let verdicts: HashMap<(&str, &str), bool> = report
        .ports
        .iter()
        .flat_map(|p| {
            p.verdicts
                .iter()
                .map(move |v| ((p.port.as_str(), v.instruction.as_str()), holds(&v.result)))
        })
        .collect();
    keys.into_iter()
        .map(|k| {
            let holds = verdicts[&(k.port.as_str(), k.instruction.as_str())];
            ((k.port, k.instruction), (k.key, holds))
        })
        .collect()
}

/// Keys kept, re-keyed and failing, re-keyed and holding.
#[derive(Default)]
struct Tally {
    kept: usize,
    rekeyed_failing: usize,
    rekeyed_holding: usize,
}

impl Tally {
    /// Compares `variant`'s checks with the fixed RTL's; a kept key
    /// with a different verdict is a stale reuse and fails the test.
    fn add(
        &mut self,
        what: &str,
        fixed: &HashMap<(String, String), (String, bool)>,
        variant: &HashMap<(String, String), (String, bool)>,
    ) {
        for (check, (key, holds)) in variant {
            let (fixed_key, fixed_holds) = &fixed[check];
            if key == fixed_key {
                assert_eq!(
                    holds, fixed_holds,
                    "{what} {}/{}: same key {key}, different verdict",
                    check.0, check.1
                );
                self.kept += 1;
            } else if *holds {
                self.rekeyed_holding += 1;
            } else {
                self.rekeyed_failing += 1;
            }
        }
    }
}

fn render() -> String {
    let mut out = String::from("# design\tvariants\tkept\trekeyed_failing\trekeyed_holding\n");
    let mut total = Tally::default();
    for cs in all_case_studies() {
        let fixed = fresh_checks(&cs, &cs.rtl);
        assert!(fixed.values().all(|(_, holds)| *holds), "{}: fixed RTL must hold", cs.name);
        let mut mutants = Tally::default();
        for reg in cs.rtl.regs() {
            for mutation in Mutation::all() {
                let mutant = mutate_register(&cs.rtl, &reg.name, mutation).expect("known reg");
                let what = format!("{} {}/{mutation}", cs.name, reg.name);
                mutants.add(&what, &fixed, &fresh_checks(&cs, &mutant));
            }
        }
        let mut rows = vec![("mutants", mutants)];
        if let Some(rtl) = &cs.buggy_rtl {
            let mut buggy = Tally::default();
            buggy.add(&format!("{} buggy", cs.name), &fixed, &fresh_checks(&cs, rtl));
            rows.push(("buggy", buggy));
        }
        for (variants, t) in &rows {
            writeln!(
                out,
                "{}\t{variants}\t{}\t{}\t{}",
                cs.name, t.kept, t.rekeyed_failing, t.rekeyed_holding
            )
            .unwrap();
        }
        let mutants = &rows[0].1;
        total.kept += mutants.kept;
        total.rekeyed_failing += mutants.rekeyed_failing;
        total.rekeyed_holding += mutants.rekeyed_holding;
    }
    writeln!(
        out,
        "total\tmutants\t{}\t{}\t{}",
        total.kept, total.rekeyed_failing, total.rekeyed_holding
    )
    .unwrap();
    out
}

#[test]
fn equal_keys_get_equal_verdicts_on_every_mutant() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cache_oracle.txt");
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden at {}: {e}", path.display()));
    assert_eq!(golden, actual, "cache oracle counts drifted from {}", path.display());
}
