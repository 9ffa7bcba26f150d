//! Pins the content-addressed cache keys of every registry property.
//!
//! Slice keys hash the `Debug` text of constants (`8'h5a`) and memory
//! values, so a change in how `BitVecValue` stores or prints itself
//! would silently re-key every persisted `gila serve` journal. The
//! golden lists `slice_keys` for all eight designs on the fixed RTL and
//! on each bug-injected variant; any drift fails here first.
//!
//! Regenerate with `GILA_REGEN_GOLDEN=1 cargo test --test slice_keys`
//! only together with a `CACHE_KEY_VERSION` bump.

use std::collections::BTreeSet;
use std::fmt::Write;
use std::path::PathBuf;

use gila::designs::all_case_studies;
use gila::expr::ExprRef;
use gila::mc::{coi_cone, support, TransitionSystem};
use gila::verify::{coi_root_sets, slice_keys, CACHE_KEY_VERSION};

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

#[test]
fn registry_slice_keys_match_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/slice_keys.txt");
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
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
