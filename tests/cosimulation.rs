//! ILA-vs-RTL co-simulation: for every case study, drive the ILA
//! simulator and the RTL simulator with the same random command streams
//! and check that the refinement-mapped states agree after every cycle
//! (via `gila_verify::cosimulate`).
//!
//! This is an independent (simulation-based) oracle for the same
//! correspondence the SAT-based refinement check proves, so it
//! cross-validates the engine, the simulators, and the models.
//!
//! The bug-hunting sweep also pins both backends' random streams: every
//! divergence `cosimulate` (interpreted) and `cosimulate_compiled` find
//! on the bug-injected variants is written to
//! `tests/golden/cosim_streams.txt` with its reproducing command stream
//! (`GILA_REGEN_GOLDEN=1` rewrites it).

use std::fmt::Write as _;
use std::path::PathBuf;

use gila::designs::all_case_studies;
use gila::verify::{cosimulate, cosimulate_compiled, Divergence};

/// Random command streams per (case study, port) for the agreement sweep.
const SEEDS: u64 = 16;
/// Cycle budget per agreement stream.
const CYCLES: usize = 60;
/// Base seed for the agreement sweep.
const SEED_BASE: u64 = 0xC0517;

/// Random command streams per (buggy design, port) for bug hunting.
const BUG_SEEDS: u64 = 16;
/// Cycle budget per bug-hunting stream — longer, since the injected bugs
/// need specific command prefixes to surface.
const BUG_CYCLES: usize = 120;
/// Base seed for the bug-hunting sweep.
const BUG_SEED_BASE: u64 = 0xB06;

#[test]
fn cosimulation_agrees_for_every_case_study() {
    for cs in all_case_studies() {
        for port in cs.ila.ports() {
            let map = cs
                .refmaps
                .iter()
                .find(|m| m.name == port.name())
                .expect("one map per port");
            for seed in 0..SEEDS {
                let d = cosimulate(port, &cs.rtl, map, SEED_BASE + seed, CYCLES)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", cs.name, port.name()));
                assert!(
                    d.is_none(),
                    "{}/{} seed {seed}: {}",
                    cs.name,
                    port.name(),
                    d.expect("checked")
                );
            }
        }
    }
}

#[test]
fn cosimulation_detects_the_injected_bugs() {
    // On a buggy RTL, random co-simulation must diverge for at least one
    // seed, on the port the paper blames.
    let expected_port = [
        ("AXI Slave", "READ-PORT"),
        ("L2 Cache", "PIPE1-PORT"),
        ("Store Buffer", "IN-OUT-PORT"),
    ];
    let mut streams = String::new();
    for cs in all_case_studies() {
        let Some(buggy) = &cs.buggy_rtl else { continue };
        let (_, blamed) = expected_port
            .iter()
            .find(|(n, _)| *n == cs.name)
            .expect("known buggy design");
        let mut diverged_on_blamed_port = false;
        for port in cs.ila.ports() {
            let map = cs
                .refmaps
                .iter()
                .find(|m| m.name == port.name())
                .expect("one map per port");
            for seed in 0..BUG_SEEDS {
                let seed = BUG_SEED_BASE + seed;
                let compiled = cosimulate_compiled(port, buggy, map, seed, BUG_CYCLES)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", cs.name, port.name()));
                if let Some(d) = &compiled {
                    record(&mut streams, cs.name, port.name(), seed, "compiled", d);
                }
                if let Some(d) = cosimulate(port, buggy, map, seed, BUG_CYCLES)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", cs.name, port.name()))
                {
                    record(&mut streams, cs.name, port.name(), seed, "interpreted", &d);
                    assert_eq!(
                        port.name(),
                        *blamed,
                        "{}: divergence on unexpected port: {d}",
                        cs.name
                    );
                    diverged_on_blamed_port = true;
                }
            }
        }
        assert!(
            diverged_on_blamed_port,
            "{}: co-simulation failed to expose the injected bug",
            cs.name
        );
    }
    assert_matches_golden("cosim_streams.txt", &streams);
}

/// Appends one divergence record: a header naming design, port, seed,
/// backend, cycle and state, then the reproducing command stream.
fn record(out: &mut String, design: &str, port: &str, seed: u64, backend: &str, d: &Divergence) {
    writeln!(
        out,
        "== {design} / {port} / seed {seed:#x} / {backend}: cycle {} state {}",
        d.cycle, d.state
    )
    .expect("write to string");
    out.push_str(&d.command_stream());
}

fn assert_matches_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden at {}: {e} (run with GILA_REGEN_GOLDEN=1)",
            path.display()
        )
    });
    if let Some((n, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (g, a))| g != a)
    {
        panic!(
            "{} drifted at line {} (regenerate with GILA_REGEN_GOLDEN=1)\n  golden: {want}\n  actual: {got}",
            path.display(),
            n + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "{} drifted in length (regenerate with GILA_REGEN_GOLDEN=1)",
        path.display()
    );
}
