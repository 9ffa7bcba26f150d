//! # gila-mc — transition systems and bounded model checking
//!
//! Model-checking substrate for the gila verification flow:
//! [`TransitionSystem`]s over the shared expression language, time-frame
//! expansion ([`Unrolling`]) with per-step fresh inputs, bounded safety
//! checking ([`bmc_safety`]) with counterexample traces, and
//! [`k_induction`] for unbounded proofs of inductive invariants.
//!
//! The refinement-check engine in `gila-verify` builds its per-instruction
//! properties on top of [`Unrolling::map_expr`].
//!
//! # Examples
//!
//! ```
//! use gila_mc::{bmc_safety, TransitionSystem};
//! use gila_expr::{BitVecValue, Sort};
//!
//! let mut ts = TransitionSystem::new("toggler");
//! let t = ts.state("t", Sort::Bv(1));
//! let next = ts.ctx_mut().bvnot(t);
//! ts.set_next("t", next)?;
//! ts.set_init("t", BitVecValue::from_u64(0, 1))?;
//! let one = ts.ctx_mut().bv_u64(1, 1);
//! let prop = ts.ctx_mut().ne(t, one); // fails at odd steps
//! let (outcome, _) = bmc_safety(&ts, prop, 4);
//! assert!(!outcome.holds());
//! # Ok::<(), gila_mc::TsError>(())
//! ```

#![warn(missing_docs)]

mod bmc;
mod btor2;
mod coi;
mod liveness;
mod ts;
mod unroll;

pub use bmc::{
    bmc_safety, bmc_safety_bounded, k_induction, k_induction_bounded, BmcOutcome,
    Counterexample, InductionOutcome, TraceStep,
};
pub use btor2::{to_btor2, Btor2Error};
pub use coi::{coi_cone, coi_slice, support, CoiStats};
pub use liveness::{check_justice, liveness_to_safety, LivenessOutcome};
pub use ts::{TransitionSystem, TsError, TsVar};
pub use unroll::{Frame, Unrolling, UnrollingSnapshot};
