//! The absint A/B contract: the abstract-interpretation layer is a
//! pure accelerator of lint, its only consumer. With it on or off,
//! `gila lint` reports the exact same diagnostics (byte-for-byte, human
//! and JSON renderings) on every bundled case study and the broken
//! fixture, at any job count. The fast path may only ever *skip* SAT
//! calls whose outcome it proved; the moment it changes an answer,
//! these tests name the design and the diff.

use gila::designs::all_case_studies;
use gila::lang::parse_spec;
use gila::lint::{lint_module, lint_rtl, lint_spec, LintOptions};
use gila::trace::Tracer;

const BROKEN: &str = include_str!("../specs/broken.ila");

/// Human + JSON lint renderings for one module at the given options.
fn lint_renderings(name: &str, opts: &LintOptions) -> (String, String) {
    let cs = all_case_studies()
        .into_iter()
        .find(|cs| cs.name == name)
        .expect("registry design");
    let mut report = lint_module(cs.name, &cs.ila, opts, &Tracer::disabled());
    report
        .diagnostics
        .extend(lint_rtl(cs.name, &cs.rtl, &Tracer::disabled()));
    (report.render_human(), report.to_json().pretty())
}

/// Every registry design and the broken fixture lint identically with
/// the fast path on and off, sequentially and sharded.
#[test]
fn lint_diagnostics_identical_with_and_without_absint() {
    for jobs in [1usize, 4] {
        let on = LintOptions { jobs, absint: true };
        let off = LintOptions { jobs, absint: false };
        for cs in all_case_studies() {
            let (human_on, json_on) = lint_renderings(cs.name, &on);
            let (human_off, json_off) = lint_renderings(cs.name, &off);
            assert_eq!(
                human_on, human_off,
                "{} (jobs={jobs}): absint changed the human rendering",
                cs.name
            );
            assert_eq!(
                json_on, json_off,
                "{} (jobs={jobs}): absint changed the JSON rendering",
                cs.name
            );
        }
        let spec = parse_spec(BROKEN).expect("lenient parse");
        let report_on = lint_spec("specs/broken.ila", &spec, &on, &Tracer::disabled());
        let report_off = lint_spec("specs/broken.ila", &spec, &off, &Tracer::disabled());
        assert_eq!(
            report_on.render_human(),
            report_off.render_human(),
            "broken.ila (jobs={jobs}): absint changed the human rendering"
        );
        assert_eq!(
            report_on.to_json().pretty(),
            report_off.to_json().pretty(),
            "broken.ila (jobs={jobs}): absint changed the JSON rendering"
        );
    }
}

/// With the fast path on, the discharge counters must actually move on
/// at least one registry design — otherwise the identity above is
/// vacuously comparing two identical slow paths.
#[test]
fn absint_fast_path_is_live_on_the_registry() {
    let opts = LintOptions { jobs: 1, absint: true };
    let mut discharged = 0u64;
    let mut avoided = 0u64;
    for cs in all_case_studies() {
        let report = lint_module(cs.name, &cs.ila, &opts, &Tracer::disabled());
        discharged += report.stats.lints_discharged_static;
        avoided += report.stats.sat_calls_avoided;
    }
    assert!(discharged >= 1, "no whole lint verdict discharged statically");
    assert!(avoided >= 1, "no SAT call avoided across the whole registry");
    // And with the flag off, the counters must stay at zero.
    let off = LintOptions { jobs: 1, absint: false };
    for cs in all_case_studies() {
        let report = lint_module(cs.name, &cs.ila, &off, &Tracer::disabled());
        assert_eq!(report.stats.sat_calls_avoided, 0, "{}", cs.name);
        assert_eq!(report.stats.lints_discharged_static, 0, "{}", cs.name);
    }
}
