//! Small-memory abstraction: the paper's §V.B.3 ablation on the 8051
//! datapath.
//!
//! The "standard small memory modeling" shrinks the datapath's 256-byte
//! internal RAM to 16 bytes on both the ILA and RTL sides. In the paper
//! it cut verification by more than an order of magnitude (176 s ->
//! 9.5 s). Here both runs take about the same time: `gila-smt` encodes
//! memories at word level, so a proof pays for the RAM's reads, not its
//! size.
//!
//! ```text
//! cargo run --release --example memory_abstraction
//! ```

use std::time::Instant;

use gila::designs::i8051::datapath;
use gila::verify::{verify_module, VerifyOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let maps = datapath::refinement_maps();
    let opts = VerifyOptions::default();

    println!("== full-size datapath (256-byte internal RAM) ==");
    let t0 = Instant::now();
    let full = verify_module(&datapath::ila(), &datapath::rtl(), &maps, &opts)?;
    assert!(full.all_hold());
    let full_time = t0.elapsed();
    println!(
        "verified {} instructions in {:.2?}; peak CNF: {} clauses (~{:.1} MB)",
        full.instructions_checked(),
        full_time,
        full.peak_stats().clauses,
        full.peak_stats().estimated_mb()
    );

    println!("\n== abstracted datapath (16-byte RAM on both sides) ==");
    let t0 = Instant::now();
    let abst = verify_module(
        &datapath::ila_abstracted(),
        &datapath::rtl_abstracted(),
        &maps,
        &opts,
    )?;
    assert!(abst.all_hold());
    let abst_time = t0.elapsed();
    println!(
        "verified {} instructions in {:.2?}; peak CNF: {} clauses (~{:.1} MB)",
        abst.instructions_checked(),
        abst_time,
        abst.peak_stats().clauses,
        abst.peak_stats().estimated_mb()
    );

    println!(
        "\nspeedup: {:.1}x (the paper reports 176 s -> 9.5 s = 18.5x on its testbed)",
        full_time.as_secs_f64() / abst_time.as_secs_f64().max(1e-9)
    );
    Ok(())
}
