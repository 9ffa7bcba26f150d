//! Falsification before SAT: once a port has a counterexample, its
//! later checks first evaluate seeded candidates on the property's own
//! formula. These tests hold the sampled counterexamples to the solver,
//! keep sampling away from checks that must end undecided, and pin its
//! determinism.
//!
//! The fixtures are the registry's bug-injected variants and the NoC
//! Router register mutants of `tests/sat_trajectory.rs`: each of them
//! fails, and most fail on several instructions of a port, so later
//! checks of those ports sample.

use std::sync::Arc;

use gila::designs::{all_case_studies, CaseStudy};
use gila::rtl::RtlModule;
use gila::smt::CancelToken;
use gila::trace::{Event, SpanKind, TraceSink, Tracer};
use gila::verify::{
    confirm_counterexample, mutate_register, verify_module, CheckResult, DecidedBy, FaultAction,
    FaultPlan, ModuleReport, Mutation, RefinementMap, ResourceOut, VerifyOptions,
};

/// Every fixture: a name, its case study, and the failing RTL.
fn fixtures() -> Vec<(String, CaseStudy, RtlModule)> {
    let mut out = Vec::new();
    for cs in all_case_studies() {
        if let Some(buggy) = cs.buggy_rtl.clone() {
            out.push((format!("{} buggy", cs.name), cs.clone(), buggy));
        }
        if cs.name == "NoC Router" {
            for reg in ["rt_rr", "buf_n", "out_rr"] {
                for m in Mutation::all() {
                    let mutant = mutate_register(&cs.rtl, reg, m).expect("register exists");
                    out.push((format!("NoC Router {reg} {m:?}"), cs.clone(), mutant));
                }
            }
        }
    }
    out
}

fn map_of<'c>(cs: &'c CaseStudy, port: &str) -> &'c RefinementMap {
    cs.refmaps
        .iter()
        .find(|m| m.name == port)
        .or_else(|| cs.refmaps.iter().find(|m| m.name == "*"))
        .unwrap_or_else(|| panic!("{}: no map for port {port}", cs.name))
}

fn verify(cs: &CaseStudy, rtl: &RtlModule, opts: &VerifyOptions) -> ModuleReport {
    verify_module(&cs.ila, rtl, &cs.refmaps, opts)
        .unwrap_or_else(|e| panic!("{}: setup error {e}", cs.name))
}

/// `(port, instruction, tag, decided_by, counterexample)` per verdict.
fn outcomes(report: &ModuleReport) -> Vec<(String, String, &'static str, DecidedBy, String)> {
    report
        .ports
        .iter()
        .flat_map(|p| {
            p.verdicts.iter().map(|v| {
                let cex = match &v.result {
                    CheckResult::CounterExample(c) => format!("{c:?}"),
                    _ => String::new(),
                };
                (
                    p.port.clone(),
                    v.instruction.clone(),
                    v.result.tag(),
                    v.decided_by,
                    cex,
                )
            })
        })
        .collect()
}

/// (a) Every counterexample, SAT-decided or sampled, its frame-0 state
/// and inputs pinned on the plain property (the checks themselves run
/// on its cofactored form), is answered SAT by the solver; the pins of
/// a sampled one on the fixed RTL, which holds, are answered UNSAT.
#[test]
fn sampled_counterexamples_are_confirmed_by_sat() {
    let (mut sampled, mut solved) = (0, 0);
    for (name, cs, rtl) in fixtures() {
        let report = verify(&cs, &rtl, &VerifyOptions::default());
        let mut control = None;
        for p in &report.ports {
            let port = cs.ila.ports().iter().find(|q| q.name() == p.port).unwrap();
            let map = map_of(&cs, &p.port);
            for v in &p.verdicts {
                let CheckResult::CounterExample(cex) = &v.result else {
                    continue;
                };
                let what = format!("{name} {}/{}", p.port, v.instruction);
                assert!(
                    confirm_counterexample(port, &rtl, map, &v.instruction, cex).unwrap(),
                    "{what}: SAT refuted a {:?} counterexample",
                    v.decided_by
                );
                if v.decided_by != DecidedBy::Sampling {
                    solved += 1;
                    continue;
                }
                sampled += 1;
                assert_eq!(v.solves, 0, "{what}: a sampled verdict made a SAT call");
                control.get_or_insert((port, map, v.instruction.clone(), cex.clone()));
            }
        }
        if let Some((port, map, instr, cex)) = control {
            assert!(
                !confirm_counterexample(port, &cs.rtl, map, &instr, &cex).unwrap(),
                "{name} {instr}: the pins confirmed a violation on the fixed RTL"
            );
        }
    }
    assert!(sampled > 0, "no fixture produced a sampled counterexample");
    assert!(solved > 0, "no fixture produced a SAT-decided counterexample");
}

/// Cancels a token on the first counterexample verdict it sees.
struct CancelOnCex(CancelToken);

impl TraceSink for CancelOnCex {
    fn record(&self, event: Event) {
        if event.kind == SpanKind::Instruction && event.label == "cex" {
            self.0.cancel();
        }
    }
}

/// (c) A check that must end undecided never samples: an expired
/// deadline (how a `ForceUnknown` fault is delivered) and a cancelled
/// token both yield `Unknown` from the SAT path, even on a port whose
/// gate is open.
#[test]
fn undecided_checks_never_sample() {
    let cs = all_case_studies()
        .into_iter()
        .find(|cs| cs.name == "L2 Cache")
        .unwrap();
    let buggy = cs.buggy_rtl.clone().unwrap();
    let cold = verify(&cs, &buggy, &VerifyOptions::default());
    let (port, instr) = cold
        .ports
        .iter()
        .flat_map(|p| p.verdicts.iter().map(move |v| (p, v)))
        .find(|(_, v)| v.decided_by == DecidedBy::Sampling)
        .map(|(p, v)| (p.port.clone(), v.instruction.clone()))
        .expect("the L2 Cache bug's second counterexample is sampled");

    let fault = FaultPlan::new().inject(&port, &instr, FaultAction::ForceUnknown, None);
    let forced = verify(
        &cs,
        &buggy,
        &VerifyOptions {
            fault_plan: Some(Arc::new(fault)),
            ..VerifyOptions::default()
        },
    );
    for ((p, i, tag, by, _), (_, _, cold_tag, _, _)) in
        outcomes(&forced).into_iter().zip(outcomes(&cold))
    {
        if (p.as_str(), i.as_str()) == (port.as_str(), instr.as_str()) {
            assert_eq!((tag, by), ("unknown", DecidedBy::Sat), "{p}/{i}");
        } else {
            assert_eq!(tag, cold_tag, "{p}/{i}: the fault moved another verdict");
        }
    }
    let unknown = forced
        .ports
        .iter()
        .flat_map(|p| &p.verdicts)
        .find(|v| v.instruction == instr);
    assert!(matches!(
        unknown.map(|v| &v.result),
        Some(CheckResult::Unknown {
            reason: ResourceOut::Deadline,
            ..
        })
    ));

    let token = CancelToken::new();
    let cancelled = verify(
        &cs,
        &buggy,
        &VerifyOptions {
            tracer: Tracer::with_sink(Arc::new(CancelOnCex(token.clone()))),
            cancel: Some(token),
            ..VerifyOptions::default()
        },
    );
    let all = outcomes(&cancelled);
    let first = all
        .iter()
        .position(|o| o.2 == "cex")
        .expect("SAT finds the first counterexample");
    assert_eq!(all[first].3, DecidedBy::Sat);
    assert!(
        first + 1 < all.len(),
        "checks follow the first counterexample"
    );
    for (p, i, tag, by, _) in &all[first + 1..] {
        assert_eq!(
            (*tag, *by),
            ("unknown", DecidedBy::Sat),
            "{p}/{i}: ran past the cancellation"
        );
    }
}

/// (d) Sampling is seeded by content: two sequential runs report
/// byte-identical counterexamples, and a pool of four reports the same
/// verdict tags.
#[test]
fn sampling_is_deterministic_across_runs_and_job_counts() {
    for (name, cs, rtl) in fixtures() {
        let run = |jobs| {
            let opts = VerifyOptions {
                jobs: Some(jobs),
                par_threshold: 0,
                ..VerifyOptions::default()
            };
            outcomes(&verify(&cs, &rtl, &opts))
        };
        let first = run(1);
        assert_eq!(run(1), first, "{name}: two sequential runs differ");
        let tags = |o: &[(String, String, &'static str, DecidedBy, String)]| {
            o.iter()
                .map(|(p, i, t, _, _)| (p.clone(), i.clone(), *t))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            tags(&run(4)),
            tags(&first),
            "{name}: jobs 4 moved a verdict"
        );
    }
}
