//! Fuzzing of both frontends.
//!
//! Grammar-driven fuzzing of the Verilog frontend: generate random
//! well-formed modules as source text, then require that (a) they parse
//! and elaborate, (b) they simulate without errors, and (c) the
//! emit -> reparse round trip is behaviour-preserving under random
//! stimulus.
//!
//! Mutation fuzzing of the `.ila` frontend: edit the bundled specs at
//! random and require that parsing never panics, and that lint never
//! panics on what the parser accepts. Malformed input is an error with
//! a line, never a crash.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gila::expr::BitVecValue;
use gila::lang::parse_spec;
use gila::lint::{lint_module, lint_spec, LintOptions};
use gila::rtl::{parse_verilog, RtlSimulator};
use gila::trace::Tracer;
use proptest::prelude::*;

/// A small expression grammar over the declared signals.
#[derive(Clone, Debug)]
enum GenExpr {
    Signal(u8),
    Literal(u8),
    Un(u8, Box<GenExpr>),
    Bin(u8, Box<GenExpr>, Box<GenExpr>),
    Tern(Box<GenExpr>, Box<GenExpr>, Box<GenExpr>),
}

fn gen_expr() -> impl Strategy<Value = GenExpr> {
    let leaf = prop_oneof![
        any::<u8>().prop_map(GenExpr::Signal),
        any::<u8>().prop_map(GenExpr::Literal),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (any::<u8>(), inner.clone()).prop_map(|(op, a)| GenExpr::Un(op, Box::new(a))),
            (any::<u8>(), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| GenExpr::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, a, b)| GenExpr::Tern(Box::new(c), Box::new(a), Box::new(b))),
        ]
    })
}

/// Renders a generated expression over `signals` (name, width) pairs.
fn render(e: &GenExpr, signals: &[(String, u32)]) -> String {
    match e {
        GenExpr::Signal(i) => signals[*i as usize % signals.len()].0.clone(),
        GenExpr::Literal(v) => format!("8'd{v}"),
        GenExpr::Un(op, a) => {
            let a = render(a, signals);
            match op % 3 {
                0 => format!("(~{a})"),
                1 => format!("(!{a})"),
                _ => format!("(-{a})"),
            }
        }
        GenExpr::Bin(op, a, b) => {
            let a = render(a, signals);
            let b = render(b, signals);
            let sym = match op % 14 {
                0 => "+",
                1 => "-",
                2 => "*",
                3 => "&",
                4 => "|",
                5 => "^",
                6 => "<<",
                7 => ">>",
                8 => "==",
                9 => "!=",
                10 => "<",
                11 => ">=",
                12 => "&&",
                _ => "||",
            };
            format!("({a} {sym} {b})")
        }
        GenExpr::Tern(c, a, b) => {
            let c = render(c, signals);
            let a = render(a, signals);
            let b = render(b, signals);
            format!("({c} ? {a} : {b})")
        }
    }
}

/// Assembles a module: two inputs, three registers, one always block
/// with generated RHSes (optionally under a generated condition).
fn module_source(exprs: &[GenExpr], cond: &Option<GenExpr>) -> String {
    let signals: Vec<(String, u32)> = vec![
        ("a".to_string(), 8),
        ("b".to_string(), 8),
        ("r0".to_string(), 8),
        ("r1".to_string(), 8),
        ("r2".to_string(), 8),
    ];
    let mut body = String::new();
    for (i, e) in exprs.iter().enumerate() {
        body.push_str(&format!("    r{} <= {};\n", i % 3, render(e, &signals)));
    }
    let always = match cond {
        Some(c) => format!(
            "  always @(posedge clk) begin\n    if ({}) begin\n{}    end\n  end\n",
            render(c, &signals),
            body.lines()
                .map(|l| format!("  {l}\n"))
                .collect::<String>()
        ),
        None => format!("  always @(posedge clk) begin\n{body}  end\n"),
    };
    format!(
        "module fuzzed(clk, a, b);\n  input clk;\n  input [7:0] a;\n  input [7:0] b;\n  \
         reg [7:0] r0;\n  reg [7:0] r1;\n  reg [7:0] r2;\n{always}endmodule\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_modules_parse_simulate_and_roundtrip(
        exprs in proptest::collection::vec(gen_expr(), 1..5),
        cond in proptest::option::of(gen_expr()),
        seeds in proptest::collection::vec(any::<u64>(), 2),
    ) {
        let src = module_source(&exprs, &cond);
        let m = parse_verilog(&src)
            .unwrap_or_else(|e| panic!("generated module rejected: {e}\n{src}"));
        m.validate().expect("closed module");
        // Round trip through the emitter.
        let emitted = m.to_verilog().expect("emittable subset");
        let m2 = parse_verilog(&emitted)
            .unwrap_or_else(|e| panic!("emitted text rejected: {e}\n{emitted}"));
        // Behavioural agreement under random stimulus.
        let mut s1 = RtlSimulator::new(&m);
        let mut s2 = RtlSimulator::new(&m2);
        let mut state = seeds.iter().fold(0u64, |acc, s| acc ^ s);
        for cycle in 0..30 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let av = (state >> 16) & 0xFF;
            let bv = (state >> 32) & 0xFF;
            let mut ins = std::collections::BTreeMap::new();
            ins.insert("clk".to_string(), BitVecValue::from_u64(1, 1));
            ins.insert("a".to_string(), BitVecValue::from_u64(av, 8));
            ins.insert("b".to_string(), BitVecValue::from_u64(bv, 8));
            s1.step(&ins).expect("valid inputs");
            s2.step(&ins).expect("valid inputs");
            prop_assert_eq!(
                s1.state(), s2.state(),
                "cycle {}: emit/reparse diverged\noriginal:\n{}\nemitted:\n{}",
                cycle, src, emitted
            );
        }
    }
}

/// The bundled specs, the seeds the `.ila` mutation fuzzer edits.
const SPECS: &[&str] = &[
    include_str!("../specs/counter.ila"),
    include_str!("../specs/decoder.ila"),
    include_str!("../specs/axi_slave.ila"),
    include_str!("../specs/mem_iface.ila"),
    include_str!("../specs/broken.ila"),
];

/// Text the mutation fuzzer splices in: selects and sorts at and past
/// their limits, and the keywords and punctuation of every construct.
const SPLICES: &[&str] = &[
    "[0]", "[7]", "[9]", "[3:5]", "[7:0]", "[99:0]", "[4294967296:0]", "[0:4294967296]",
    "[18446744073709551615]", "(cnt + 1)[99:0]", "(1)[3:0]", "mem[0, 8]", "mem[33, 8]",
    "mem[40, 8]", "mem[8, 0]", "mem[4294967296, 8]", "bv0", "bool", "bv4294967296", "(", ")",
    "[", "]", "{", "}", ":", ",", ":=", "==", "!=", "+", "-", "*", "/", "%", "<<", ">>", "&",
    "|", "^", "~", "!", "&&", "||", "<", ">=", "?", "store(", "init 0", "init 99", "instr",
    "sub", "when", "of", "port", "module", "integrate", "input", "output state", "state",
    "cnt", "en", "x", "8'hff", "0'h0", "4'd99", "1'b1", "{cnt, cnt}", "{}",
];

/// Numbers a digit run of a spec is replaced by.
const NUMBERS: &[&str] = &[
    "0", "1", "2", "7", "8", "9", "31", "32", "33", "63", "64", "65", "99", "4294967296",
    "18446744073709551615", "99999999999999999999",
];

/// An edit: its kind, its position as a fraction of the text's length,
/// the characters it covers, and which splice or number it writes.
fn any_edit() -> impl Strategy<Value = (u8, u32, u8, u8)> {
    (any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>())
}

/// One edit of a spec's text, at a position given as a fraction of its
/// length.
fn mutate(text: &mut String, (op, at, len, pick): (u8, u32, u8, u8)) {
    let mut pos = (at as usize * text.len()) / (u32::MAX as usize + 1);
    while !text.is_char_boundary(pos) {
        pos -= 1;
    }
    let end = text[pos..]
        .char_indices()
        .nth(len as usize % 8)
        .map_or(text.len(), |(i, _)| pos + i);
    match op % 4 {
        0 => text.replace_range(pos..end, ""),
        1 => text.insert_str(pos, SPLICES[pick as usize % SPLICES.len()]),
        2 => text.replace_range(pos..end, SPLICES[pick as usize % SPLICES.len()]),
        _ => {
            // Replace the digit run at or after `pos`.
            let rest = &text[pos..];
            if let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
                let start = pos + start;
                let stop = text[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(text.len(), |i| start + i);
                text.replace_range(start..stop, NUMBERS[pick as usize % NUMBERS.len()]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_specs_never_panic_the_parser_or_lint(
        spec in 0usize..5,
        edits in proptest::collection::vec(any_edit(), 1..5),
    ) {
        let mut text = SPECS[spec].to_string();
        for edit in edits {
            mutate(&mut text, edit);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(parsed) = parse_spec(&text) else {
                return;
            };
            let (opts, tracer) = (LintOptions::default(), Tracer::disabled());
            lint_spec("fuzzed", &parsed, &opts, &tracer);
            if let Some(module) = &parsed.module {
                lint_module("fuzzed", module, &opts, &tracer);
            }
        }));
        prop_assert!(outcome.is_ok(), "panicked on:\n{}", text);
    }
}
