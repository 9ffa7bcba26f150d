//! # gila-sat — a CDCL SAT solver
//!
//! The decision-procedure backend of the gila verification platform.
//! [`gila-smt`](https://docs.rs/gila-smt) bit-blasts bit-vector refinement
//! properties into CNF and discharges them with this solver — the role
//! JasperGold plays in the original DATE 2021 evaluation.
//!
//! Features: two-watched-literal unit propagation, first-UIP clause
//! learning with local minimization, VSIDS branching with phase saving,
//! Luby restarts, LBD/activity-guided learnt-clause reduction, solving
//! under assumptions (incremental use), resource-bounded solving
//! ([`SolveLimits`] budgets plus a shared [`CancelToken`]) that returns
//! [`SolveResult::Unknown`] instead of hanging.
//!
//! Layout: clauses live inline in one flat arena of words, compacted in
//! creation order once half of it is garbage; assignments are a
//! per-literal value array; the VSIDS heap sifts through a hole; conflict
//! analysis allocates nothing. The layout never steers the search: the
//! decisions, propagations, conflicts, learnt clauses, restarts and
//! models of every solve are pinned by `tests/golden/sat_trajectory.txt`
//! and `tests/golden/registry_counters.txt` at the repository root. The
//! crate contains no `unsafe` code.
//!
//! # Examples
//!
//! ```
//! use gila_sat::Solver;
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([a.positive(), b.positive()]);
//! s.add_clause([!a.positive()]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod lit;
mod solver;

pub use lit::{LBool, Lit, Var};
pub use solver::{CancelToken, ResourceOut, SolveLimits, SolveResult, Solver, SolverStats};
