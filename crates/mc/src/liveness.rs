//! Liveness checking via the liveness-to-safety transformation
//! (Biere, Artho, Schuppan, 2002) — the extension the paper's §VI
//! sketches for checking liveness properties of RTL implementations.
//!
//! A *justice* property `GF p` ("p holds infinitely often") is violated
//! exactly by a lasso-shaped trace on whose loop `p` never holds. The
//! transformation adds a shadow copy of the state, a save oracle, and a
//! `triggered` flag accumulating `p` since the save; the safety property
//! "no closed loop without `p`" is then checked with plain BMC.

use gila_expr::{BitVecValue, ExprRef, Sort, Value};

use crate::bmc::{bmc_safety, BmcOutcome, Counterexample};
use crate::ts::TransitionSystem;

/// Outcome of a bounded liveness check.
#[derive(Clone, Debug)]
pub enum LivenessOutcome {
    /// No lasso violating the justice property exists within the bound.
    NoLassoUpTo(
        /// The bound checked.
        usize,
    ),
    /// A lasso was found: the justice property is violated.
    LassoFound(
        /// The safety counterexample over the *transformed* system; its
        /// `__saved`/`__triggered` columns expose the loop structure.
        Box<Counterexample>,
    ),
}

impl LivenessOutcome {
    /// True if no violating lasso was found.
    pub fn holds(&self) -> bool {
        matches!(self, LivenessOutcome::NoLassoUpTo(_))
    }
}

/// Transforms `ts` for the justice property `GF justice` and returns
/// the transformed system together with the safety property to check
/// (`true` = no bad loop closed yet).
///
/// The transformed system adds, per original state `x`, a shadow state
/// `__shadow_x`, plus `__saved`, `__triggered` (both 1-bit) and the
/// oracle input `__save`.
///
/// # Panics
///
/// Panics if `justice` is not a boolean expression over `ts`'s context.
pub fn liveness_to_safety(
    ts: &TransitionSystem,
    justice: ExprRef,
) -> (TransitionSystem, ExprRef) {
    assert!(
        ts.ctx().sort_of(justice).is_bool(),
        "justice property must be boolean"
    );
    let mut out = ts.clone();
    let save = out.input("__save", Sort::Bv(1));
    let saved = out.state("__saved", Sort::Bv(1));
    let triggered = out.state("__triggered", Sort::Bv(1));
    out.set_init("__saved", BitVecValue::from_u64(0, 1))
        .expect("declared");
    out.set_init("__triggered", BitVecValue::from_u64(0, 1))
        .expect("declared");

    let original_states: Vec<(String, Sort, ExprRef)> = ts
        .states()
        .iter()
        .map(|v| (v.name.clone(), v.sort, v.var))
        .collect();

    // save_now: the oracle fires and nothing was saved yet.
    let (save_now, saved_next, triggered_next, loop_closed) = {
        let ctx = out.ctx_mut();
        let save_b = ctx.eq_u64(save, 1);
        let not_saved = ctx.eq_u64(saved, 0);
        let save_now = ctx.and(save_b, not_saved);
        let one = ctx.bv_u64(1, 1);
        let saved_next = ctx.ite(save_now, one, saved);
        // triggered accumulates justice while the save is active.
        let was_saved = ctx.eq_u64(saved, 1);
        let active = ctx.or(was_saved, save_now);
        let trig_b = ctx.eq_u64(triggered, 1);
        let seen = ctx.or(trig_b, justice);
        let seen_and_active = ctx.and(active, seen);
        let zero = ctx.bv_u64(0, 1);
        let triggered_next = ctx.ite(seen_and_active, one, zero);
        (save_now, saved_next, triggered_next, was_saved)
    };
    out.set_next("__saved", saved_next).expect("declared");
    out.set_next("__triggered", triggered_next)
        .expect("declared");

    // Shadow states latch the current state at the save point.
    let mut all_equal = loop_closed;
    for (name, sort, var) in &original_states {
        let shadow_name = format!("__shadow_{name}");
        let shadow = out.state(shadow_name.clone(), *sort);
        // Give the shadow a deterministic init so BMC's init constraints
        // stay satisfiable; its value is irrelevant until the save.
        out.set_init(&shadow_name, Value::zero(*sort))
            .expect("declared");
        let ctx = out.ctx_mut();
        let latched = ctx.ite(save_now, *var, shadow);
        out.set_next(&shadow_name, latched).expect("declared");
        let ctx = out.ctx_mut();
        let eq = ctx.eq(*var, shadow);
        all_equal = ctx.and(all_equal, eq);
    }

    // Bad: the loop closed (state equals the saved shadow, after a save)
    // without the justice property ever holding on the loop.
    let safety = {
        let ctx = out.ctx_mut();
        let not_triggered = ctx.eq_u64(triggered, 0);
        let bad = ctx.and(all_equal, not_triggered);
        ctx.not(bad)
    };
    (out, safety)
}

/// Checks the justice property `GF justice` on `ts` up to `bound` steps
/// of the transformed system: lassos with stem + loop lengths up to
/// `bound` are found.
pub fn check_justice(ts: &TransitionSystem, justice: ExprRef, bound: usize) -> LivenessOutcome {
    let (lts, safety) = liveness_to_safety(ts, justice);
    match bmc_safety(&lts, safety, bound).0 {
        BmcOutcome::HoldsUpTo(k) => LivenessOutcome::NoLassoUpTo(k),
        BmcOutcome::Violated(cex) => LivenessOutcome::LassoFound(cex),
        // Unreachable: bmc_safety runs with no solve limits installed.
        BmcOutcome::Unknown { reason, at_step } => {
            unreachable!("unbounded BMC gave up ({reason:?} at step {at_step})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter modulo `m`, starting at 0.
    fn mod_counter(m: u64) -> TransitionSystem {
        let mut ts = TransitionSystem::new("modc");
        let cnt = ts.state("cnt", Sort::Bv(4));
        let limit = ts.ctx_mut().bv_u64(m - 1, 4);
        let at_end = ts.ctx_mut().eq(cnt, limit);
        let zero = ts.ctx_mut().bv_u64(0, 4);
        let one = ts.ctx_mut().bv_u64(1, 4);
        let inc = ts.ctx_mut().bvadd(cnt, one);
        let next = ts.ctx_mut().ite(at_end, zero, inc);
        ts.set_next("cnt", next).unwrap();
        ts.set_init("cnt", BitVecValue::from_u64(0, 4)).unwrap();
        ts
    }

    #[test]
    fn justice_that_holds_finds_no_lasso() {
        // GF (cnt == 3) holds on the mod-4 counter.
        let mut ts = mod_counter(4);
        let cnt = ts.ctx().find_var("cnt").unwrap();
        let justice = ts.ctx_mut().eq_u64(cnt, 3);
        let outcome = check_justice(&ts, justice, 10);
        assert!(outcome.holds(), "{outcome:?}");
    }

    #[test]
    fn justice_that_fails_yields_a_lasso() {
        // GF (cnt == 9) fails: 9 is unreachable on the mod-4 counter;
        // the loop 0,1,2,3,0 closes without it.
        let mut ts = mod_counter(4);
        let cnt = ts.ctx().find_var("cnt").unwrap();
        let justice = ts.ctx_mut().eq_u64(cnt, 9);
        let outcome = check_justice(&ts, justice, 10);
        let LivenessOutcome::LassoFound(cex) = outcome else {
            panic!("expected lasso, got {outcome:?}");
        };
        // The loop closes after at least the save step plus 4 steps.
        assert!(cex.violation_step >= 4);
        // The final state equals the shadow (the loop is genuinely closed).
        let last = &cex.steps[cex.violation_step];
        assert_eq!(last.states["cnt"], last.states["__shadow_cnt"]);
        assert_eq!(last.states["__saved"].as_bv().to_u64(), 1);
        assert_eq!(last.states["__triggered"].as_bv().to_u64(), 0);
    }

    #[test]
    fn stuck_machine_violates_progress() {
        // t' = t: GF (t == 1) fails from t = 0 with a self-loop.
        let mut ts = TransitionSystem::new("stuck");
        let t = ts.state("t", Sort::Bv(1));
        ts.set_next("t", t).unwrap();
        ts.set_init("t", BitVecValue::from_u64(0, 1)).unwrap();
        let justice = ts.ctx_mut().eq_u64(t, 1);
        let outcome = check_justice(&ts, justice, 4);
        assert!(!outcome.holds());
    }

    #[test]
    fn toggler_satisfies_progress() {
        // t' = ~t: GF (t == 1) holds.
        let mut ts = TransitionSystem::new("toggle");
        let t = ts.state("t", Sort::Bv(1));
        let next = ts.ctx_mut().bvnot(t);
        ts.set_next("t", next).unwrap();
        ts.set_init("t", BitVecValue::from_u64(0, 1)).unwrap();
        let justice = ts.ctx_mut().eq_u64(t, 1);
        let outcome = check_justice(&ts, justice, 8);
        assert!(outcome.holds(), "{outcome:?}");
    }

    #[test]
    fn input_dependent_liveness() {
        // Counter with enable: GF (cnt == 3) fails because the
        // environment may never assert the enable (en == 0 self-loop).
        let mut ts = TransitionSystem::new("enc");
        let en = ts.input("en", Sort::Bv(1));
        let cnt = ts.state("cnt", Sort::Bv(2));
        let one = ts.ctx_mut().bv_u64(1, 2);
        let inc = ts.ctx_mut().bvadd(cnt, one);
        let c = ts.ctx_mut().eq_u64(en, 1);
        let next = ts.ctx_mut().ite(c, inc, cnt);
        ts.set_next("cnt", next).unwrap();
        ts.set_init("cnt", BitVecValue::from_u64(0, 2)).unwrap();
        let justice = ts.ctx_mut().eq_u64(cnt, 3);
        let outcome = check_justice(&ts, justice, 6);
        assert!(!outcome.holds());
        // Under a fairness assumption (en always 1) it holds.
        let fair = ts.ctx_mut().eq_u64(en, 1);
        ts.add_constraint(fair);
        let outcome = check_justice(&ts, justice, 8);
        assert!(outcome.holds(), "{outcome:?}");
    }
}
