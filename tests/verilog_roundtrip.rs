//! Verilog round trips: parse -> emit -> reparse -> co-simulate, for
//! every case-study RTL and for every ILA-synthesized implementation,
//! and emit -> reparse -> refinement check against the case study's spec.

use gila::core::ModuleIla;
use gila::designs::{all_case_studies, i8051::datapath, riscv::store_buffer};
use gila::expr::BitVecValue;
use gila::rtl::{parse_verilog, RtlModule, RtlSimulator};
use gila::verify::{synthesize_module, verify_module, RefinementMap, VerifyOptions};
use rand::{Rng, SeedableRng};

fn cosim_same(a: &RtlModule, b: &RtlModule, seed: u64, cycles: usize, label: &str) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sim_a = RtlSimulator::new(a);
    let mut sim_b = RtlSimulator::new(b);
    for cycle in 0..cycles {
        let mut ins_a = std::collections::BTreeMap::new();
        for i in a.inputs() {
            let bits: Vec<bool> = (0..i.width).map(|_| rng.gen()).collect();
            ins_a.insert(i.name.clone(), BitVecValue::from_bits(&bits));
        }
        // b may have an extra clk pin (added by the emitter).
        let mut ins_b = ins_a.clone();
        if b.find_input("clk").is_some() && !ins_b.contains_key("clk") {
            ins_b.insert("clk".to_string(), BitVecValue::from_u64(1, 1));
        }
        sim_a.step(&ins_a).expect("valid inputs");
        sim_b.step(&ins_b).expect("valid inputs");
        for (name, v) in sim_a.state() {
            assert_eq!(
                v, &sim_b.state()[name],
                "{label}: state {name} diverged at cycle {cycle}"
            );
        }
    }
}

#[test]
fn handwritten_rtl_survives_emit_reparse() {
    for cs in all_case_studies() {
        let emitted = cs
            .rtl
            .to_verilog()
            .unwrap_or_else(|e| panic!("{}: emit failed: {e}", cs.name));
        let reparsed = parse_verilog(&emitted)
            .unwrap_or_else(|e| panic!("{}: emitted text invalid: {e}\n{emitted}", cs.name));
        assert_eq!(cs.rtl.state_bits(), reparsed.state_bits(), "{}", cs.name);
        cosim_same(&cs.rtl, &reparsed, 0x0E311 + cs.name.len() as u64, 60, cs.name);
    }
}

#[test]
fn synthesized_rtl_emits_valid_verilog() {
    for cs in all_case_studies() {
        let ila = match cs.name {
            "Datapath" => datapath::ila_abstracted(),
            "Store Buffer" => store_buffer::ila_abstracted(),
            _ => cs.ila.clone(),
        };
        let synth = synthesize_module(&ila)
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", cs.name));
        let emitted = synth
            .to_verilog()
            .unwrap_or_else(|e| panic!("{}: emit failed: {e}", cs.name));
        let reparsed = parse_verilog(&emitted)
            .unwrap_or_else(|e| panic!("{}: emitted text invalid: {e}\n{emitted}", cs.name));
        cosim_same(&synth, &reparsed, 0x5F17C + cs.name.len() as u64, 60, cs.name);
    }
}

/// Each instruction's verdict tag, in port and declaration order.
fn verdict_tags(ila: &ModuleIla, rtl: &RtlModule, maps: &[RefinementMap]) -> Vec<String> {
    let report = verify_module(ila, rtl, maps, &VerifyOptions::default()).expect("well-formed");
    report
        .ports
        .iter()
        .flat_map(|p| {
            p.verdicts
                .iter()
                .map(move |v| format!("{}/{}: {}", p.port, v.instruction, v.result.tag()))
        })
        .collect()
}

#[test]
fn emit_reparse_is_sequentially_equivalent_not_just_cosimilar() {
    // Stronger than random co-simulation: the round-tripped RTL must
    // refine the spec exactly where the original does, per instruction,
    // over the full refinement property. The three buggy variants must
    // fail the same instructions after the round trip.
    for cs in all_case_studies() {
        let buggy = cs.buggy_rtl.iter().map(|b| ("buggy", b));
        for (label, rtl) in std::iter::once(("fixed", &cs.rtl)).chain(buggy) {
            let emitted = rtl.to_verilog().expect("emittable");
            let reparsed = parse_verilog(&emitted).expect("valid");
            let want = verdict_tags(&cs.ila, rtl, &cs.refmaps);
            assert_eq!(
                want,
                verdict_tags(&cs.ila, &reparsed, &cs.refmaps),
                "{} ({label})",
                cs.name
            );
            let fails = want.iter().any(|t| !t.ends_with(": holds"));
            assert_eq!(fails, label == "buggy", "{} ({label}): {want:?}", cs.name);
        }
    }
}

#[test]
fn buggy_and_fixed_axi_slave_are_not_equivalent() {
    // The AXI slave bug must stay observable after the round trip: the
    // re-parsed fixed RTL refines the spec, the re-parsed buggy RTL fails
    // it in the READ port's data computation on `rd_data`.
    use gila::designs::axi::slave;
    use gila::verify::CheckResult;
    let round_trip = |rtl: RtlModule| parse_verilog(&rtl.to_verilog().expect("emittable"));
    let (ila, maps) = (slave::ila(), slave::refinement_maps());
    let opts = VerifyOptions::default();
    let fixed = round_trip(slave::rtl()).expect("valid");
    let buggy = round_trip(slave::buggy_rtl()).expect("valid");
    let report = verify_module(&ila, &fixed, &maps, &opts).expect("well-formed");
    assert!(report.all_hold(), "{report:#?}");
    let report = verify_module(&ila, &buggy, &maps, &opts).expect("well-formed");
    let v = report.ports[0].first_counterexample().expect("bug in READ port");
    assert_eq!(v.instruction, "RD_DATA_PREPARE");
    let CheckResult::CounterExample(cex) = &v.result else {
        panic!("the bug must be observable: {:?}", v.result)
    };
    assert_eq!(cex.mismatched_states, vec!["rd_data".to_string()]);
    assert!(report.ports[1].all_hold(), "WRITE port is unaffected");
}

#[test]
fn hierarchical_rtl_verifies_against_an_ila() {
    // A two-level design (accumulator instantiating an adder) flattens
    // and then refines a one-port ILA through the standard engine.
    use gila::core::{PortIla, StateKind};
    use gila::expr::Sort;
    use gila::rtl::parse_verilog_hierarchy;
    use gila::verify::verify_port;

    let rtl = parse_verilog_hierarchy(
        r#"
module adder(clk, a, b, s);
  input clk;
  input [7:0] a;
  input [7:0] b;
  output [7:0] s;
  assign s = a + b;
endmodule

module acc(clk, x, en);
  input clk;
  input [7:0] x;
  input en;
  wire [7:0] next;
  reg [7:0] total;
  adder u_add (.a(total), .b(x), .s(next));
  always @(posedge clk) if (en) total <= next;
endmodule
"#,
        "acc",
    )
    .expect("valid hierarchy");

    let mut ila = PortIla::new("acc");
    let en = ila.input("en", Sort::Bv(1));
    let x = ila.input("x", Sort::Bv(8));
    let total = ila.state("total", Sort::Bv(8), StateKind::Output);
    let d = ila.ctx_mut().eq_u64(en, 1);
    let sum = ila.ctx_mut().bvadd(total, x);
    ila.instr("ACCUMULATE").decode(d).update("total", sum).add().unwrap();
    let d = ila.ctx_mut().eq_u64(en, 0);
    ila.instr("NOP").decode(d).add().unwrap();

    let mut map = RefinementMap::new("acc");
    map.map_state("total", "total");
    map.map_input("en", "en");
    map.map_input("x", "x");
    let report = verify_port(&ila, &rtl, &map, &VerifyOptions::default()).expect("well-formed");
    assert!(report.all_hold(), "{report:#?}");
}
