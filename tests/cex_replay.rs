//! Counterexample replay: every refinement counterexample the engine
//! reports must be a real RTL run. Its start state and per-cycle inputs,
//! replayed on the reference `RtlSimulator`, reproduce its trace frame
//! by frame — memories included — and every state it names as
//! mismatched really differs from the ILA post-state.
//!
//! The counterexamples come from the bug-injected variants and from
//! single-register mutants of the registers wired to a memory (its
//! address, data and read-out registers) in the four designs that own
//! one, so memory model extraction is exercised on every design. They
//! include counterexamples found by sampling before SAT, which are
//! built from evaluated candidates rather than from a solver model; the
//! NoC Router mutants of `tests/sat_trajectory.rs` yield dozens.

use std::collections::{BTreeMap, HashSet};

use gila::designs::{all_case_studies, CaseStudy};
use gila::expr::{BitVecValue, Value};
use gila::rtl::{RtlInputMap, RtlModule, RtlSimulator};
use gila::verify::{
    mutate_register, verify_module, CheckResult, DecidedBy, Mutation, RefinementCex, RefinementMap,
    VerifyOptions,
};

/// Equality of two concrete values, memories compared by contents.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Mem(x), Value::Mem(y)) => x.same_contents(y),
        (Value::Bool(x), Value::Bv(y)) | (Value::Bv(y), Value::Bool(x)) => {
            y.width() == 1 && y.bit(0) == *x
        }
        _ => a == b,
    }
}

/// Registers whose next-state reads a memory or that feed a memory's
/// next-state function.
fn memory_registers(rtl: &RtlModule) -> Vec<String> {
    let ctx = rtl.ctx();
    let mem_vars: HashSet<_> = rtl.mems().iter().map(|m| m.var).collect();
    let mem_next: Vec<_> = rtl.mems().iter().map(|m| m.next).collect();
    let feeding: HashSet<_> = ctx.vars_of(&mem_next).into_iter().collect();
    rtl.regs()
        .iter()
        .filter(|r| {
            feeding.contains(&r.var) || ctx.vars_of(&[r.next]).iter().any(|v| mem_vars.contains(v))
        })
        .map(|r| r.name.clone())
        .collect()
}

/// Replays one counterexample and checks it; `what` names it in
/// failure messages.
fn replay(rtl: &RtlModule, map: &RefinementMap, cex: &RefinementCex, what: &str) {
    assert_eq!(
        cex.rtl_trace.len(),
        cex.finish_cycle + 1,
        "{what}: trace length"
    );
    assert_eq!(
        cex.rtl_inputs.len(),
        cex.finish_cycle,
        "{what}: input frames"
    );
    assert_eq!(
        cex.rtl_trace[0], cex.rtl_start_state,
        "{what}: frame 0 is the start"
    );
    assert_eq!(
        cex.rtl_trace[cex.finish_cycle], cex.rtl_finish_state,
        "{what}: last frame is the finish"
    );

    let mut sim = RtlSimulator::new(rtl);
    for (name, value) in &cex.rtl_start_state {
        sim.set_state(name, value.clone())
            .unwrap_or_else(|e| panic!("{what}: start state {name}: {e}"));
    }
    for (k, frame_inputs) in cex.rtl_inputs.iter().enumerate() {
        // Inputs outside the property's cone are absent from the trace;
        // they cannot influence any state it reports.
        let inputs: RtlInputMap = rtl
            .inputs()
            .iter()
            .map(|i| {
                let v = frame_inputs
                    .get(&i.name)
                    .map(|v| v.as_bv().clone())
                    .unwrap_or_else(|| BitVecValue::zero(i.width));
                (i.name.clone(), v)
            })
            .collect();
        sim.step(&inputs)
            .unwrap_or_else(|e| panic!("{what}: step {k}: {e}"));
        for (name, want) in &cex.rtl_trace[k + 1] {
            let got = &sim.state()[name];
            assert!(
                same_value(got, want),
                "{what}: frame {} state {name}: replay {got:?}, trace {want:?}",
                k + 1
            );
        }
    }

    assert!(
        !cex.mismatched_states.is_empty(),
        "{what}: no mismatched state"
    );
    for name in &cex.mismatched_states {
        let rtl_name = &map.state_map[name];
        let ila = &cex.ila_post_state[name];
        let rtl_value = cex
            .rtl_finish_state
            .get(rtl_name)
            .unwrap_or_else(|| panic!("{what}: {rtl_name} missing from the finish state"));
        assert!(
            !same_value(ila, rtl_value),
            "{what}: {name} reported mismatched but ILA {ila:?} equals RTL {rtl_value:?}"
        );
    }
}

/// Verifies `rtl` against the case study and replays every
/// counterexample; returns how many there were, and how many of them
/// sampling found.
fn replay_all(cs: &CaseStudy, rtl: &RtlModule, what: &str) -> (usize, usize) {
    let report = verify_module(&cs.ila, rtl, &cs.refmaps, &VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{what}: setup error {e}"));
    let maps: BTreeMap<&str, &RefinementMap> =
        cs.refmaps.iter().map(|m| (m.name.as_str(), m)).collect();
    let (mut count, mut sampled) = (0, 0);
    for port in &report.ports {
        let map = maps
            .get(port.port.as_str())
            .or_else(|| maps.get("*"))
            .unwrap_or_else(|| panic!("{what}: no map for port {}", port.port));
        for v in &port.verdicts {
            if let CheckResult::CounterExample(cex) = &v.result {
                replay(
                    rtl,
                    map,
                    cex,
                    &format!("{what} {}/{}", port.port, v.instruction),
                );
                count += 1;
                sampled += (v.decided_by == DecidedBy::Sampling) as usize;
            }
        }
    }
    (count, sampled)
}

#[test]
fn buggy_variant_counterexamples_replay() {
    let (mut found, mut sampled) = (0, 0);
    for cs in all_case_studies() {
        if let Some(buggy) = &cs.buggy_rtl {
            let (n, s) = replay_all(&cs, buggy, &format!("{} (buggy)", cs.name));
            found += n;
            sampled += s;
        }
    }
    assert!(
        found >= 3,
        "expected the three documented bugs, got {found} counterexamples"
    );
    assert!(sampled > 0, "no bug variant's counterexample was sampled");
}

#[test]
fn sampled_mutant_counterexamples_replay() {
    let cs = all_case_studies()
        .into_iter()
        .find(|cs| cs.name == "NoC Router")
        .expect("NoC Router is in the registry");
    let mut sampled = 0;
    for reg in ["rt_rr", "buf_n", "out_rr"] {
        for m in Mutation::all() {
            let mutant = mutate_register(&cs.rtl, reg, m).expect("register exists");
            sampled += replay_all(&cs, &mutant, &format!("NoC Router {reg} {m:?}")).1;
        }
    }
    assert!(
        sampled > 0,
        "no NoC Router mutant's counterexample was sampled"
    );
}

#[test]
fn memory_register_mutant_counterexamples_replay() {
    let designs = ["Store Buffer", "L2 Cache", "NoC Router", "Datapath"];
    for cs in all_case_studies() {
        if !designs.contains(&cs.name) {
            continue;
        }
        assert!(!cs.rtl.mems().is_empty(), "{}: expected a memory", cs.name);
        let regs = memory_registers(&cs.rtl);
        assert!(
            !regs.is_empty(),
            "{}: no register is wired to a memory",
            cs.name
        );
        let mut found = 0;
        for reg in &regs {
            for m in Mutation::all() {
                let mutant = mutate_register(&cs.rtl, reg, m).expect("register exists");
                found += replay_all(&cs, &mutant, &format!("{} {reg} {m:?}", cs.name)).0;
            }
        }
        assert!(
            found > 0,
            "{}: no mutant produced a counterexample",
            cs.name
        );
    }
}
