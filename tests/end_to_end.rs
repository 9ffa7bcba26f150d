//! End-to-end integration tests: every case study of Table I, through
//! the full pipeline (model -> RTL -> refinement map -> SAT).

use gila::designs::all_case_studies;
use gila::verify::{verify_module, VerifyOptions};

/// Every fixed design verifies completely; every documented bug is found.
#[test]
fn all_eight_case_studies_reproduce() {
    let expected_instructions = [
        ("Decoder", 5usize),
        ("AXI Slave", 9),
        ("AXI Master", 11),
        ("Datapath", 20),
        ("L2 Cache", 8),
        ("Mem. Interface", 12),
        ("Store Buffer", 6),
        ("NoC Router", 64),
    ];
    let studies = all_case_studies();
    assert_eq!(studies.len(), 8);
    for cs in &studies {
        let expected = expected_instructions
            .iter()
            .find(|(n, _)| *n == cs.name)
            .unwrap_or_else(|| panic!("unknown design {}", cs.name))
            .1;
        assert_eq!(
            cs.ila.stats().instructions,
            expected,
            "{}: instruction count drifted from Table I",
            cs.name
        );
        let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &VerifyOptions::default())
            .unwrap_or_else(|e| panic!("{}: setup error {e}", cs.name));
        assert!(report.all_hold(), "{}: {report:#?}", cs.name);

        if let Some(buggy) = &cs.buggy_rtl {
            let opts = VerifyOptions {
                stop_at_first_cex: true,
                ..Default::default()
            };
            let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts)
                .unwrap_or_else(|e| panic!("{}: setup error {e}", cs.name));
            assert!(
                report.time_to_first_counterexample().is_some(),
                "{}: injected bug not found",
                cs.name
            );
        }
    }
}

/// The three documented bugs are found at the documented locations.
#[test]
fn bugs_are_found_where_the_paper_reports_them() {
    let expectations = [
        ("AXI Slave", "RD_DATA_PREPARE"),
        ("L2 Cache", "LOAD_MISS"),
        ("Store Buffer", "IN_PUSH & OUT_POP"),
    ];
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else { continue };
        let (_, instr) = expectations
            .iter()
            .find(|(n, _)| *n == cs.name)
            .unwrap_or_else(|| panic!("unexpected buggy design {}", cs.name));
        let opts = VerifyOptions {
            stop_at_first_cex: true,
            ..Default::default()
        };
        let report = verify_module(&cs.ila, buggy, &cs.refmaps, &opts).expect("well-formed");
        let v = report
            .ports
            .iter()
            .find_map(|p| p.first_counterexample())
            .expect("bug found");
        // LOAD_MISS or STORE_MISS are both valid witnesses for the L2
        // flag typo; the engine checks in declaration order, so the
        // first is deterministic.
        assert_eq!(v.instruction, *instr, "{}", cs.name);
    }
}

/// The datapath ablation: both sizes verify, and with word-level
/// memories the full 256-byte RAM costs about what the 16-byte
/// abstraction costs — the encoding pays for reads, not for size.
#[test]
fn datapath_memory_abstraction_preserves_verdict_and_full_size_stays_small() {
    use gila::designs::i8051::datapath;
    let maps = datapath::refinement_maps();
    let opts = VerifyOptions::default();
    let full = verify_module(&datapath::ila(), &datapath::rtl(), &maps, &opts).expect("setup");
    assert!(full.all_hold());
    let abst = verify_module(
        &datapath::ila_abstracted(),
        &datapath::rtl_abstracted(),
        &maps,
        &opts,
    )
    .expect("setup");
    assert!(abst.all_hold());
    assert!(
        full.peak_stats().clauses <= 2 * abst.peak_stats().clauses,
        "the full-size RAM should cost at most 2x the abstraction's clauses: {} vs {}",
        full.peak_stats().clauses,
        abst.peak_stats().clauses
    );
}

/// Refinement maps survive a JSON round trip and drive verification
/// identically afterwards (the paper stores them as JSON artifacts).
#[test]
fn refinement_maps_round_trip_through_json() {
    use gila::verify::RefinementMap;
    for cs in all_case_studies() {
        for map in &cs.refmaps {
            let json = map.to_json();
            let back = RefinementMap::from_json(&json).expect("valid JSON");
            assert_eq!(*map, back, "{}: {} JSON round trip", cs.name, map.name);
            assert!(map.size_loc() >= 10, "{}: suspiciously small map", cs.name);
        }
    }
    // Verification from the JSON-round-tripped map gives the same result.
    let cs = all_case_studies().remove(0); // decoder
    let maps: Vec<RefinementMap> = cs
        .refmaps
        .iter()
        .map(|m| RefinementMap::from_json(&m.to_json()).expect("valid"))
        .collect();
    let report = verify_module(&cs.ila, &cs.rtl, &maps, &VerifyOptions::default()).expect("setup");
    assert!(report.all_hold());
}

/// The figures pipeline: model descriptions mention every instruction.
#[test]
fn model_descriptions_cover_all_instructions() {
    for cs in all_case_studies() {
        let text = cs.ila.describe();
        for port in cs.ila.ports() {
            for i in port.instructions() {
                assert!(
                    text.contains(&i.name),
                    "{}: describe() misses {}",
                    cs.name,
                    i.name
                );
            }
        }
    }
}

/// Registry invariants: unique names, one refinement map per port with
/// matching names, and consistent before/after port counts.
#[test]
fn case_study_registry_is_consistent() {
    let studies = all_case_studies();
    let mut names = std::collections::HashSet::new();
    for cs in &studies {
        assert!(names.insert(cs.name), "duplicate design {}", cs.name);
        assert_eq!(
            cs.ila.ports().len(),
            cs.refmaps.len(),
            "{}: one refinement map per port",
            cs.name
        );
        for (port, map) in cs.ila.ports().iter().zip(&cs.refmaps) {
            assert_eq!(port.name(), map.name, "{}: map order", cs.name);
            // Every ILA state and input that instructions reference has
            // a map entry (the engine would reject otherwise; check here
            // for a clearer failure).
            for s in port.states() {
                assert!(
                    map.state_map.contains_key(&s.name),
                    "{}/{}: state {} unmapped",
                    cs.name,
                    port.name(),
                    s.name
                );
            }
            for i in port.inputs() {
                assert!(
                    map.interface_map.contains_key(&i.name),
                    "{}/{}: input {} unmapped",
                    cs.name,
                    port.name(),
                    i.name
                );
            }
        }
        assert_eq!(
            cs.ports_after_integration,
            cs.ila.ports().len(),
            "{}",
            cs.name
        );
        assert!(cs.ports_before_integration >= cs.ports_after_integration);
    }
}

/// BTOR2 export works for every case-study RTL.
#[test]
fn every_design_exports_btor2() {
    use gila::mc::to_btor2;
    use gila::verify::rtl_to_ts;
    for cs in all_case_studies() {
        let (mut ts, _signals) = rtl_to_ts(&cs.rtl).expect("case-study RTL is well-formed");
        let prop = ts.ctx_mut().tt();
        let doc = to_btor2(&ts, prop)
            .unwrap_or_else(|e| panic!("{}: btor2 export failed: {e}", cs.name));
        assert!(doc.contains(" next "), "{}", cs.name);
        assert!(doc.contains(" bad "), "{}", cs.name);
        // Every state appears.
        for r in cs.rtl.regs() {
            assert!(doc.contains(&r.name), "{}: missing {}", cs.name, r.name);
        }
    }
}
