//! # gila-bench — Table I / figure regeneration harness
//!
//! Binaries that regenerate the tables, figures and files of the DATE
//! 2021 paper's evaluation:
//!
//! * `cargo run --release -p gila-bench --bin table1` prints the full
//!   Table I reproduction (design stats, ILA stats, refinement-map
//!   sizes, verification times with and without the injected bugs, and
//!   the CNF-size memory proxy); `-- --ablation` adds the small-memory
//!   ablation rows.
//! * `cargo run --release -p gila-bench --bin figures -- fig1|fig2|fig3|fig5`
//!   regenerates the paper's model sketches and the auto-generated
//!   property example.
//! * `cargo run --release -p gila-bench --bin artifacts` writes the
//!   refinement maps, figures, emitted Verilog and rendered properties
//!   to `artifacts/`.
//!
//! None of them is a timing harness: `perfbench/` is the one benchmark,
//! and the registry's deterministic counters and wall-clock ratio gates
//! live in the root `tests/registry_gates.rs`.

#![warn(missing_docs)]

pub mod report;
