//! # gila-absint — word-level abstract interpretation
//!
//! A cheap, sound semantic layer above the bit-level model: where
//! `gila-smt` answers questions by SAT solving, this crate answers a
//! useful subset of them by dataflow fixpoint over the abstract domains
//! of [`gila_expr::AbsValue`] (known bits, unsigned intervals, and the
//! flat constant lattice, as a reduced product).
//!
//! Lint is the one consumer: **`gila-lint`** uses [`DecodeOracle`] to
//! discharge decode completeness/overlap/dead questions without SAT
//! when the domains are conclusive, and [`analyze_port`] /
//! [`uninit_reads`] to power the GL014–GL017 passes. [`analyze_ts`],
//! which proves inductive [`Invariant`]s over a whole transition
//! system, is called only by the benchmark, which still times it.
//!
//! Soundness rests on one contract, tested by proptest in
//! `tests/absint_props.rs`: abstract evaluation over-approximates
//! concrete evaluation. Everything here only ever *prunes* (skips a SAT
//! call whose outcome is proven); inconclusive domains always fall back
//! to the exact engines.

#![warn(missing_docs)]

mod fixpoint;
mod oracle;

pub use fixpoint::{
    analyze_port, analyze_ts, uninit_reads, PortAnalysis, TsAnalysis, UninitRead,
};
pub use oracle::{assume, DecodeOracle};

use gila_expr::ExprRef;

/// Which abstract domain proved an invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Ternary known-bits masks.
    KnownBits,
    /// Unsigned value intervals.
    Interval,
    /// The flat constant lattice ("congruence on constants").
    Constant,
}

impl Domain {
    /// Stable lower-case name, for telemetry and display.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::KnownBits => "known-bits",
            Domain::Interval => "interval",
            Domain::Constant => "constant",
        }
    }
}

/// One proven inductive invariant over a transition system's states.
///
/// The expression is interned in the analyzed system's context and
/// holds in every reachable state; it is *inductive*: true of every
/// abstracted initial state and preserved by every transition (checked
/// explicitly by the fixpoint engine before emission).
#[derive(Clone, Debug)]
pub struct Invariant {
    /// The invariant, a boolean expression over state variables.
    pub expr: ExprRef,
    /// The domain component that supplied the fact.
    pub domain: Domain,
    /// Fixpoint iterations it took to stabilize the analysis.
    pub iterations: u32,
}
