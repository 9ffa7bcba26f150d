//! The absint contract: the abstract-interpretation layer is a pure
//! accelerator of lint, its only consumer. Lint offers each decode
//! question (is an instruction dead? do two decodes overlap? is there a
//! decode gap?) to the `DecodeOracle` before SAT. In debug builds
//! `gila-lint` also asks SAT every question the oracle settles and
//! asserts that the answers agree, so every lint test checks that the
//! fast path never changes a diagnostic. This test shows that check
//! is live: debug assertions are on, and on the registry each of the
//! three kinds of question is settled by the oracle at least once.

use gila::absint::DecodeOracle;
use gila::designs::all_case_studies;
use gila::lint::{lint_module, LintOptions};
use gila::trace::Tracer;

/// The fast path discharges lint verdicts on the registry, and every
/// kind of discharge is re-asked of SAT by the lint run below.
#[test]
fn absint_fast_path_is_live_on_the_registry() {
    if !cfg!(debug_assertions) {
        panic!("the oracle/SAT cross-check in gila-lint is a debug assertion");
    }
    let opts = LintOptions::default();
    let (mut discharged, mut avoided) = (0u64, 0u64);
    let (mut decided_decodes, mut disjoint_pairs, mut gap_free_ports) = (0u64, 0u64, 0u64);
    for cs in all_case_studies() {
        let report = lint_module(cs.name, &cs.ila, &opts, &Tracer::disabled());
        discharged += report.stats.lints_discharged_static;
        avoided += report.stats.sat_calls_avoided;
        // The questions that lint run settled without SAT, by kind.
        for port in cs.ila.ports() {
            let n = port.instructions().len();
            if n == 0 {
                continue;
            }
            let oracle = DecodeOracle::new(port);
            for i in 0..n {
                decided_decodes += u64::from(oracle.decode_satisfiable(i).is_some());
                for j in (i + 1)..n {
                    disjoint_pairs += u64::from(oracle.pair_disjoint(i, j) == Some(true));
                }
            }
            gap_free_ports += u64::from(oracle.no_gap() == Some(true));
        }
    }
    assert!(discharged >= 1, "no whole lint verdict discharged statically");
    assert_eq!(
        avoided,
        decided_decodes + disjoint_pairs + gap_free_ports,
        "the oracle's answers do not account for the SAT calls lint avoided"
    );
    assert!(decided_decodes >= 1, "no dead/live question settled without SAT");
    assert!(disjoint_pairs >= 1, "no decode pair proved disjoint without SAT");
    assert!(gap_free_ports >= 1, "no port proved gap-free without SAT");
}
