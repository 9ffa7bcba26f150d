//! Bounded model checking and k-induction for safety properties.

use std::collections::BTreeMap;

use gila_expr::{ExprRef, Value};
use gila_smt::{SmtResult, SmtSolver};

use crate::ts::TransitionSystem;
use crate::unroll::Unrolling;

/// One step of a counterexample trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Concrete state at this step.
    pub states: BTreeMap<String, Value>,
    /// Concrete inputs applied at this step.
    pub inputs: BTreeMap<String, Value>,
}

/// A counterexample to a safety property.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The step at which the property fails.
    pub violation_step: usize,
    /// States/inputs from step 0 to the violation step.
    pub steps: Vec<TraceStep>,
}

/// The outcome of a k-induction proof attempt.
#[derive(Clone, Debug)]
pub enum InductionOutcome {
    /// The property holds for all reachable states (proved).
    Proved {
        /// The induction depth that closed the proof.
        k: usize,
    },
    /// A real counterexample was found in the base case.
    Violated(
        /// The witnessing trace.
        Box<Counterexample>,
    ),
    /// Neither proved nor disproved within the depth limit.
    Unknown {
        /// The maximum depth tried.
        max_k: usize,
    },
}

/// Checks the boolean property `prop` (over the system's state and input
/// variables) at every step `0..=bound`, starting from the declared
/// initial values. Returns the first violation, or `None` if the
/// property holds within the bound.
pub(crate) fn bmc(
    ts: &TransitionSystem,
    prop: ExprRef,
    bound: usize,
) -> Option<Box<Counterexample>> {
    let mut u = Unrolling::new(ts, true);
    u.extend_to(bound);
    for k in 0..=bound {
        let mut smt = SmtSolver::new();
        for &a in u.init_assumptions() {
            smt.assert(u.ctx(), a);
        }
        let p_k = u.map_expr(k, prop);
        let viol = u.ctx_mut().not(p_k);
        smt.assert(u.ctx(), viol);
        if smt.check() == SmtResult::Sat {
            let steps = (0..=k)
                .map(|j| TraceStep {
                    states: u.concretize_states(&smt, j),
                    inputs: u.concretize_inputs(&smt, j),
                })
                .collect();
            return Some(Box::new(Counterexample {
                violation_step: k,
                steps,
            }));
        }
    }
    None
}

/// Attempts to prove `prop` invariant by k-induction, increasing `k` up
/// to `max_k`:
///
/// * base case: `prop` holds for the first `k` steps from init (BMC);
/// * inductive step: from *any* state, `k` consecutive steps satisfying
///   `prop` imply `prop` at step `k+1`.
///
/// # Examples
///
/// ```
/// use gila_mc::{k_induction, InductionOutcome, TransitionSystem};
/// use gila_expr::{BitVecValue, Sort};
///
/// let mut ts = TransitionSystem::new("c");
/// let cnt = ts.state("cnt", Sort::Bv(8));
/// let one = ts.ctx_mut().bv_u64(1, 8);
/// let next = ts.ctx_mut().bvadd(cnt, one);
/// ts.set_next("cnt", next)?;
/// ts.set_init("cnt", BitVecValue::from_u64(0, 8))?;
/// let lim = ts.ctx_mut().bv_u64(5, 8);
/// let prop = ts.ctx_mut().ult(cnt, lim);
/// let InductionOutcome::Violated(cex) = k_induction(&ts, prop, 10) else {
///     panic!("cnt reaches 5 at step 5");
/// };
/// assert_eq!(cex.violation_step, 5);
/// # Ok::<(), gila_mc::TsError>(())
/// ```
pub fn k_induction(ts: &TransitionSystem, prop: ExprRef, max_k: usize) -> InductionOutcome {
    for k in 0..=max_k {
        // Base case.
        if let Some(cex) = bmc(ts, prop, k) {
            return InductionOutcome::Violated(cex);
        }
        // Inductive step: symbolic start, frames 0..=k+1.
        let mut u = Unrolling::new(ts, false);
        u.extend_to(k + 1);
        let mut smt = SmtSolver::new();
        for j in 0..=k {
            let p = u.map_expr(j, prop);
            smt.assert(u.ctx(), p);
        }
        let p_last = u.map_expr(k + 1, prop);
        let viol = u.ctx_mut().not(p_last);
        smt.assert(u.ctx(), viol);
        if smt.check() == SmtResult::Unsat {
            return InductionOutcome::Proved { k };
        }
    }
    InductionOutcome::Unknown { max_k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_expr::{BitVecValue, Sort};

    fn saturating_counter() -> TransitionSystem {
        // cnt increments until 10, then holds: invariant cnt <= 10.
        let mut ts = TransitionSystem::new("sat");
        let cnt = ts.state("cnt", Sort::Bv(8));
        let ten = ts.ctx_mut().bv_u64(10, 8);
        let lt = ts.ctx_mut().ult(cnt, ten);
        let one = ts.ctx_mut().bv_u64(1, 8);
        let inc = ts.ctx_mut().bvadd(cnt, one);
        let next = ts.ctx_mut().ite(lt, inc, cnt);
        ts.set_next("cnt", next).unwrap();
        ts.set_init("cnt", BitVecValue::from_u64(0, 8)).unwrap();
        ts
    }

    #[test]
    fn bmc_finds_violation_at_exact_step() {
        let mut ts = saturating_counter();
        let cnt = ts.ctx().find_var("cnt").unwrap();
        let five = ts.ctx_mut().bv_u64(5, 8);
        let prop = ts.ctx_mut().ult(cnt, five);
        let cex = bmc(&ts, prop, 10).expect("violation");
        assert_eq!(cex.violation_step, 5);
        assert_eq!(cex.steps.len(), 6);
        assert_eq!(cex.steps[5].states["cnt"].as_bv().to_u64(), 5);
        assert_eq!(cex.steps[0].states["cnt"].as_bv().to_u64(), 0);
    }

    #[test]
    fn bmc_holds_within_bound() {
        let mut ts = saturating_counter();
        let cnt = ts.ctx().find_var("cnt").unwrap();
        let lim = ts.ctx_mut().bv_u64(100, 8);
        let prop = ts.ctx_mut().ult(cnt, lim);
        assert!(bmc(&ts, prop, 8).is_none());
    }

    #[test]
    fn k_induction_proves_saturation_invariant() {
        let mut ts = saturating_counter();
        let cnt = ts.ctx().find_var("cnt").unwrap();
        let eleven = ts.ctx_mut().bv_u64(11, 8);
        let prop = ts.ctx_mut().ult(cnt, eleven);
        // cnt <= 10 is inductive at k = 0 already.
        match k_induction(&ts, prop, 3) {
            InductionOutcome::Proved { k } => assert_eq!(k, 0),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn k_induction_finds_real_violation() {
        let mut ts = saturating_counter();
        let cnt = ts.ctx().find_var("cnt").unwrap();
        let three = ts.ctx_mut().bv_u64(3, 8);
        let prop = ts.ctx_mut().ult(cnt, three);
        match k_induction(&ts, prop, 5) {
            InductionOutcome::Violated(cex) => assert_eq!(cex.violation_step, 3),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn k_induction_unknown_when_not_inductive_enough() {
        // A free-running counter from 0: "cnt != 200" is true for the
        // first 200 steps but not inductive — the unreachable state 199
        // satisfies the property and steps to 200. Small k cannot close
        // the proof.
        let mut ts = TransitionSystem::new("free");
        let cnt = ts.state("cnt", Sort::Bv(8));
        let one = ts.ctx_mut().bv_u64(1, 8);
        let next = ts.ctx_mut().bvadd(cnt, one);
        ts.set_next("cnt", next).unwrap();
        ts.set_init("cnt", BitVecValue::from_u64(0, 8)).unwrap();
        let c200 = ts.ctx_mut().bv_u64(200, 8);
        let prop = ts.ctx_mut().ne(cnt, c200);
        match k_induction(&ts, prop, 2) {
            InductionOutcome::Unknown { max_k } => assert_eq!(max_k, 2),
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}
