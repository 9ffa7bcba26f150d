//! # gila-mc — transition systems and bounded model checking
//!
//! Model-checking substrate for the gila verification flow:
//! [`TransitionSystem`]s over the shared expression language, time-frame
//! expansion ([`Unrolling`]) with per-step fresh inputs, [`k_induction`]
//! for proofs of inductive invariants (its base case is bounded model
//! checking from the initial state, with counterexample traces),
//! cone-of-influence slicing ([`coi_slice`]) and BTOR2 export
//! ([`to_btor2`]). Every property here is a safety property; liveness
//! is not checked.
//!
//! The refinement-check engine in `gila-verify` builds its per-instruction
//! properties on top of [`Unrolling::map_expr`].
//!
//! # Examples
//!
//! ```
//! use gila_mc::{k_induction, InductionOutcome, TransitionSystem};
//! use gila_expr::{BitVecValue, Sort};
//!
//! let mut ts = TransitionSystem::new("toggler");
//! let t = ts.state("t", Sort::Bv(1));
//! let next = ts.ctx_mut().bvnot(t);
//! ts.set_next("t", next)?;
//! ts.set_init("t", BitVecValue::from_u64(0, 1))?;
//! let one = ts.ctx_mut().bv_u64(1, 1);
//! let prop = ts.ctx_mut().ne(t, one); // fails at odd steps
//! let outcome = k_induction(&ts, prop, 4);
//! assert!(matches!(outcome, InductionOutcome::Violated(cex) if cex.violation_step == 1));
//! # Ok::<(), gila_mc::TsError>(())
//! ```

#![warn(missing_docs)]

mod bmc;
mod btor2;
mod coi;
mod ts;
mod unroll;

pub use bmc::{k_induction, Counterexample, InductionOutcome, TraceStep};
pub use btor2::{to_btor2, Btor2Error};
pub use coi::{coi_cone, coi_slice, support, CoiStats};
pub use ts::{TransitionSystem, TsError, TsVar};
pub use unroll::{Frame, Unrolling, UnrollingSnapshot};
