//! # gila-smt — bit-blasting decision procedure
//!
//! Lowers boolean / bit-vector / memory formulas built with
//! [`gila_expr`] into CNF (Tseitin encoding) and decides them with the
//! [`gila_sat`] CDCL solver. Together they replace the commercial model
//! checker used in the original DATE 2021 evaluation.
//!
//! Encodings: ripple-carry adders, shift-add multipliers, restoring
//! dividers, logarithmic barrel shifters, comparison chains. Memories
//! stay word-level: reads resolve through writes and `ite`s to one
//! fresh word per read of a memory variable, a memory disequality uses
//! one witness index, and read-congruence and equality lemmas are added
//! only when a SAT model violates them. All encodings are validated
//! against the concrete evaluator by randomized tests.
//!
//! # Examples
//!
//! ```
//! use gila_expr::{ExprCtx, Sort};
//! use gila_smt::SmtSolver;
//!
//! // Is x + y == y + x valid for 8-bit vectors? Assert the negation; UNSAT
//! // means the equivalence holds for all inputs.
//! let mut ctx = ExprCtx::new();
//! let x = ctx.var("x", Sort::Bv(8));
//! let y = ctx.var("y", Sort::Bv(8));
//! let l = ctx.bvadd(x, y);
//! let r = ctx.bvadd(y, x);
//! let ne = ctx.ne(l, r);
//! let mut smt = SmtSolver::new();
//! smt.assert(&ctx, ne);
//! assert!(!smt.check().is_sat());
//! ```

#![warn(missing_docs)]

mod blast;

pub use blast::{prove_equiv, BlastStats, SmtResult, SmtSolver};
pub use gila_sat::{CancelToken, Lit, ResourceOut, SolveLimits, SolverStats};
