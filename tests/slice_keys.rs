//! Pins the content-addressed cache keys of every registry property.
//!
//! Slice keys hash the `Debug` text of constants (`8'h5a`) and memory
//! values, so a change in how `BitVecValue` stores or prints itself
//! would silently re-key every persisted `gila serve` journal. The
//! golden lists `slice_keys` for all eight designs on the fixed RTL and
//! on each bug-injected variant; any drift fails here first.
//!
//! A second golden fingerprints the keys of every single-register
//! mutant of every design, the edits a `gila serve` session re-keys.
//! In every registry port all instructions share one cone, so a small
//! hand-built port whose instructions' cones differ checks that
//! sharing cones between instructions never leaks into a key.
//!
//! The registry's only condition strings are NoC Router's invariants,
//! so a second small module pins the keys of all three kinds: an
//! invariant, a start strengthening and a `Condition` finish, one of
//! them naming a wire. The same module checks that a condition naming
//! an undeclared signal is an error before anything is solved.
//!
//! Regenerate with `GILA_REGEN_GOLDEN=1 cargo test --test slice_keys`
//! only together with a `CACHE_KEY_VERSION` bump.

use std::collections::BTreeSet;
use std::fmt::Write;
use std::path::PathBuf;

use gila::core::ModuleIla;
use gila::designs::all_case_studies;
use gila::expr::ExprRef;
use gila::lang::parse_ila;
use gila::mc::{coi_cone, support, TransitionSystem};
use gila::rtl::{parse_verilog, RtlModule};
use gila::trace::{SpanKind, Tracer};
use gila::verify::{
    coi_root_sets, mutate_register, slice_keys, verify_module, verify_port, FinishCondition,
    InstructionMap, Mutation, RefinementMap, VerifyError, VerifyOptions, CACHE_KEY_VERSION,
};

fn render() -> String {
    let mut out = format!("# CACHE_KEY_VERSION {CACHE_KEY_VERSION}\n");
    for cs in all_case_studies() {
        let variants = std::iter::once(("fixed", &cs.rtl))
            .chain(cs.buggy_rtl.as_ref().map(|rtl| ("buggy", rtl)));
        for (variant, rtl) in variants {
            let keys = slice_keys(&cs.ila, rtl, &cs.refmaps)
                .unwrap_or_else(|e| panic!("{} ({variant}): {e}", cs.name));
            for k in keys {
                writeln!(
                    out,
                    "{}\t{variant}\t{}\t{}\t{}",
                    cs.name, k.port, k.instruction, k.key
                )
                .unwrap();
            }
        }
    }
    out
}

/// One line per design: how many keys its register mutants have, and
/// a 64-bit FNV-1a of their `register/mutation/port/instruction/key`
/// lines.
fn render_mutants() -> String {
    let mut out = format!("# CACHE_KEY_VERSION {CACHE_KEY_VERSION}\n");
    for cs in all_case_studies() {
        let (mut count, mut fnv) = (0usize, 0xcbf2_9ce4_8422_2325u64);
        for reg in cs.rtl.regs() {
            for mutation in Mutation::all() {
                let mutant = mutate_register(&cs.rtl, &reg.name, mutation).expect("known reg");
                let keys = slice_keys(&cs.ila, &mutant, &cs.refmaps)
                    .unwrap_or_else(|e| panic!("{} {}/{mutation}: {e}", cs.name, reg.name));
                for k in keys {
                    let line = format!(
                        "{}/{mutation}/{}/{}/{}\n",
                        reg.name, k.port, k.instruction, k.key
                    );
                    for byte in line.bytes() {
                        fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                    count += 1;
                }
            }
        }
        writeln!(out, "{}\t{count}\t{fnv:016x}", cs.name).unwrap();
    }
    out
}

/// Compares `actual` with the golden file `name`, or rewrites the
/// golden under `GILA_REGEN_GOLDEN`.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden at {}: {e}", path.display()));
    if let Some((want, got)) = golden.lines().zip(actual.lines()).find(|(g, a)| g != a) {
        panic!(
            "slice keys drifted from {} — every serve journal would miss\n  golden: {want}\n  actual: {got}",
            path.display()
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "slice key count drifted"
    );
}

#[test]
fn registry_slice_keys_match_golden() {
    check_golden("slice_keys.txt", &render());
}

#[test]
fn register_mutant_slice_keys_match_golden() {
    check_golden("slice_keys_mutants.txt", &render_mutants());
}

/// An instruction's key is its property's alone: it is the same whether
/// the instruction shares its port or stands alone. `hold`'s start
/// strengthening reads `aux`, a register outside the mapped cone, so
/// the port's two instructions have different cones.
#[test]
fn a_key_does_not_depend_on_its_siblings() {
    let instrs = [
        ("inc", "instr inc when en == 1 { cnt := cnt + 1 }"),
        ("hold", "instr hold when en == 0 { }"),
    ];
    let spec = |body: &str| {
        let text = format!(
            "port counter {{\n input en : bv1\n output state cnt : bv8 init 0\n {body}\n}}\n"
        );
        parse_ila(&text).expect("valid spec")
    };
    let rtl = parse_verilog(
        "module counter(clk, en_in);\n input clk; input en_in;\n reg [7:0] count; reg [7:0] aux;\n \
         always @(posedge clk) begin if (en_in) count <= count + 8'd1; aux <= aux + 8'd1; end\n\
         endmodule\n",
    )
    .expect("valid Verilog");
    let maps = [RefinementMap::from_json(
        r#"{"name": "counter", "state_map": {"cnt": "count"}, "interface_map": {"en": "en_in"},
            "instruction_maps": [{"instruction": "hold", "start_strengthening": "aux == 8'd0"}]}"#,
    )
    .expect("valid map")];

    let both = spec(&format!("{}\n {}", instrs[0].1, instrs[1].1));
    let together = slice_keys(&both, &rtl, &maps).expect("keys");
    assert_eq!(together.len(), 2);
    assert_ne!(together[0].key, together[1].key);
    for ((name, body), key) in instrs.iter().zip(&together) {
        let alone = slice_keys(&spec(body), &rtl, &maps).expect("keys");
        assert_eq!((alone.len(), &key.instruction), (1, &name.to_string()));
        assert_eq!(alone[0].key, key.key, "{name}'s key depends on its sibling");
    }
    let (ts, sets) = coi_root_sets(&both, &rtl, &maps).expect("root sets");
    assert_ne!(coi_cone(&ts, &sets[1]), coi_cone(&ts, &sets[2]), "the cones must differ");
}

/// The cone as a per-state support fixpoint: seed with the support of
/// the roots, then add the support of each cone state's next-state
/// expression until nothing changes.
fn reference_cone(ts: &TransitionSystem, roots: &[ExprRef]) -> BTreeSet<String> {
    let mut cone = support(ts.ctx(), roots);
    let mut worklist: Vec<String> = cone.iter().cloned().collect();
    while let Some(name) = worklist.pop() {
        if let Some(next) = ts.next_of(&name) {
            for dep in support(ts.ctx(), &[next]) {
                if cone.insert(dep.clone()) {
                    worklist.push(dep);
                }
            }
        }
    }
    cone
}

/// The one-pass cone that slicing and the cache keys use agrees with
/// the fixpoint on every root set of every registry port and
/// instruction, on the fixed and the bug-injected RTL.
#[test]
fn registry_cones_match_support_fixpoint() {
    let (mut checked, mut closed) = (0, 0);
    for cs in all_case_studies() {
        let variants = std::iter::once(&cs.rtl).chain(cs.buggy_rtl.as_ref());
        for rtl in variants {
            let (ts, sets) = coi_root_sets(&cs.ila, rtl, &cs.refmaps)
                .unwrap_or_else(|e| panic!("{}: {e}", cs.name));
            for roots in &sets {
                let cone = coi_cone(&ts, roots);
                assert_eq!(cone, reference_cone(&ts, roots), "{}", cs.name);
                closed += usize::from(cone.len() > support(ts.ctx(), roots).len());
            }
            checked += sets.len();
        }
    }
    assert!(checked > 100, "only {checked} root sets checked");
    assert!(closed > 0, "no root set needed the next-state closure");
}

/// A counter whose increment takes two cycles: `inc` raises `phase`,
/// and the cycle after it bumps `count` and drops `phase` again, so
/// the wire `idle` reads true once `inc` has finished.
fn two_phase_counter() -> (ModuleIla, RtlModule) {
    let ila = parse_ila(
        "port counter {\n input en : bv1\n output state cnt : bv8 init 0\n \
         instr inc when en == 1 { cnt := cnt + 1 }\n instr hold when en == 0 { }\n}\n",
    )
    .expect("valid spec");
    let rtl = parse_verilog(
        "module counter(clk, en_in);\n input clk; input en_in;\n \
         reg [7:0] count; reg [1:0] phase;\n wire idle;\n assign idle = phase == 2'd0;\n \
         always @(posedge clk) begin\n \
           if (idle && en_in) phase <= 2'd1;\n \
           else if (phase == 2'd1) begin count <= count + 8'd1; phase <= 2'd0; end\n \
         end\nendmodule\n",
    )
    .expect("valid Verilog");
    (ila, rtl)
}

/// The two-phase counter's map: an invariant over a register, a start
/// strengthening on both instructions, and `inc` finishing when
/// `finish` holds, within three cycles.
fn two_phase_map(invariant: &str, strengthening: &str, finish: &str) -> RefinementMap {
    let mut map = RefinementMap::new("counter");
    map.map_state("cnt", "count");
    map.map_input("en", "en_in");
    map.add_invariant(invariant);
    let mut inc = InstructionMap::single_cycle("inc");
    inc.start_strengthening = Some(strengthening.to_string());
    inc.finish = FinishCondition::Condition {
        expr: finish.to_string(),
        max_cycles: 3,
    };
    let mut hold = InstructionMap::single_cycle("hold");
    hold.start_strengthening = Some(strengthening.to_string());
    map.instruction_maps = vec![inc, hold];
    map
}

/// The two-phase counter's keys, as `port/instruction/key` lines.
fn two_phase_keys(map: RefinementMap) -> Vec<String> {
    let (ila, rtl) = two_phase_counter();
    slice_keys(&ila, &rtl, &[map])
        .expect("keys")
        .into_iter()
        .map(|k| format!("{}/{}/{}", k.port, k.instruction, k.key))
        .collect()
}

/// Keys of a property with every kind of condition string are pinned,
/// and a condition that names the wire `idle` keys and verifies as the
/// same condition with the wire's expression written out.
#[test]
fn condition_keys_are_pinned_and_see_through_wires() {
    let wire = two_phase_map("phase <= 2'd1", "phase == 2'd0", "idle");
    let written_out = two_phase_map("phase <= 2'd1", "phase == 2'd0", "phase == 2'd0");
    let keys = two_phase_keys(wire.clone());
    assert_eq!(
        keys,
        [
            "counter/inc/44bb5562ff487e3c390d837728b14e88",
            "counter/hold/aa25bb8a4c9462aba2628ebc4a03d209",
        ]
    );
    assert_eq!(two_phase_keys(written_out.clone()), keys);

    let (ila, rtl) = two_phase_counter();
    let verdicts = |map: RefinementMap| {
        let report = verify_module(&ila, &rtl, &[map], &VerifyOptions::default()).expect("runs");
        assert!(report.all_hold(), "{report:#?}");
        report.ports[0]
            .verdicts
            .iter()
            .map(|v| (v.instruction.clone(), v.result.tag()))
            .collect::<Vec<_>>()
    };
    assert_eq!(verdicts(wire), verdicts(written_out));
}

/// An invariant, a start strengthening or a finish condition that names
/// an undeclared signal is a `Verilog` error from planning, from both
/// verification and keying, and no solve starts. A map that also names
/// an undeclared register reports that first.
#[test]
fn a_malformed_condition_fails_before_any_solve() {
    let (ila, rtl) = two_phase_counter();
    let port = &ila.ports()[0];
    let good = ("phase <= 2'd1", "phase == 2'd0", "idle");
    let maps = [
        two_phase_map("ghost <= 2'd1", good.1, good.2),
        two_phase_map(good.0, "ghost == 2'd0", good.2),
        two_phase_map(good.0, good.1, "ghost"),
    ];
    for map in maps {
        let (tracer, ring) = Tracer::ring(1_000);
        let opts = VerifyOptions {
            tracer,
            ..Default::default()
        };
        let verified = verify_port(port, &rtl, &map, &opts);
        assert!(matches!(verified, Err(VerifyError::Verilog(_))), "{map:?}: {verified:?}");
        let keyed = slice_keys(&ila, &rtl, std::slice::from_ref(&map));
        assert!(matches!(keyed, Err(VerifyError::Verilog(_))), "{map:?}: {keyed:?}");
        let solves = ring.events().iter().filter(|e| e.kind == SpanKind::Solve).count();
        assert_eq!(solves, 0, "{map:?}");
    }
    // A map's names resolve before its conditions parse.
    let mut map = two_phase_map("ghost <= 2'd1", good.1, good.2);
    map.map_state("cnt", "no_such_reg");
    let verified = verify_port(port, &rtl, &map, &VerifyOptions::default());
    assert!(matches!(verified, Err(VerifyError::UnknownRtlSignal { .. })), "{verified:?}");
}
