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

use std::fmt::Write;
use std::path::PathBuf;

use gila::designs::all_case_studies;
use gila::verify::{slice_keys, CACHE_KEY_VERSION};

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
