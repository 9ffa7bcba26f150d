//! Specification-to-implementation synthesis: generate Verilog directly
//! from a module-ILA, then prove the generated RTL correct with the
//! same refinement engine.
//!
//! ```text
//! cargo run --release --example synthesize
//! ```

use gila::designs::i8051::mem_iface;
use gila::verify::{identity_refmaps, synthesize_module, verify_module, VerifyOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ila = mem_iface::ila();
    println!(
        "synthesizing RTL from the {} module-ILA ({} instructions across {} ports)...\n",
        ila.name(),
        ila.stats().instructions,
        ila.stats().ports
    );
    let rtl = synthesize_module(&ila)?;
    let verilog = rtl.to_verilog()?;
    println!("---- generated Verilog ({} lines) ----", verilog.lines().count());
    for line in verilog.lines().take(24) {
        println!("{line}");
    }
    println!("  ... ({} more lines)\n", verilog.lines().count().saturating_sub(24));

    let path = std::env::temp_dir().join("gila_mem_iface_synth.v");
    std::fs::write(&path, &verilog)?;
    println!("full module written to {}\n", path.display());

    // The generated implementation is correct by construction — prove it.
    let maps = identity_refmaps(&ila);
    let report = verify_module(&ila, &rtl, &maps, &VerifyOptions::default())?;
    assert!(report.all_hold());
    println!(
        "refinement check: all {} instructions verified in {:.2?}",
        report.instructions_checked(),
        report.total_time()
    );

    Ok(())
}
