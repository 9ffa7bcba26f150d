//! A deterministic ruler for the expression arena.
//!
//! For every registry design, the golden records how many nodes each
//! front end interns: the `.ila` text parsed back from `to_ila_text`
//! (summed over ports), and for the fixed and the buggy RTL the Verilog
//! parsed back from `to_verilog` and the transition system `rtl_to_ts`
//! builds from it. The system takes over the RTL's context as it is,
//! so its `ts` count equals the `verilog` count: a conversion that
//! interned nodes of its own would show here. Wall time on a shared
//! host cannot resolve a small move in the arena; these counts move
//! only when the arena stores more or fewer nodes, so a diff to the
//! golden is the review.
//!
//! Regenerate with `GILA_REGEN_GOLDEN=1 cargo test --test expr_nodes`.

use std::fmt::Write;
use std::path::PathBuf;

use gila::designs::all_case_studies;
use gila::lang::{parse_ila, to_ila_text};
use gila::rtl::parse_verilog;
use gila::verify::rtl_to_ts;

fn render() -> String {
    let mut out = String::from("# design\tvariant\tnodes\n");
    for cs in all_case_studies() {
        let text = to_ila_text(&cs.ila).expect("printable");
        let ila = parse_ila(&text).unwrap_or_else(|e| panic!("{}: {e}", cs.name));
        let nodes: usize = ila.ports().iter().map(|p| p.ctx().len()).sum();
        writeln!(out, "{}\tila\t{nodes}", cs.name).unwrap();
        let variants = std::iter::once(("fixed", &cs.rtl))
            .chain(cs.buggy_rtl.as_ref().map(|rtl| ("buggy", rtl)));
        for (variant, rtl) in variants {
            let verilog = rtl.to_verilog().expect("emittable");
            let rtl = parse_verilog(&verilog).unwrap_or_else(|e| panic!("{}: {e}", cs.name));
            let (ts, _) = rtl_to_ts(&rtl).unwrap_or_else(|e| panic!("{}: {e}", cs.name));
            writeln!(
                out,
                "{}\t{variant}\tverilog {}\tts {}",
                cs.name,
                rtl.ctx().len(),
                ts.ctx().len()
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn registry_node_counts_match_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/expr_nodes.txt");
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden at {}: {e}", path.display()));
    assert_eq!(
        golden,
        actual,
        "node counts drifted from {}",
        path.display()
    );
}
