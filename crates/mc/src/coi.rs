//! Cone-of-influence slicing for transition systems.
//!
//! A property over a transition system can only observe the state and
//! input variables in its *cone of influence*: the transitive support
//! of the property expression under the next-state relation. Variables outside the cone cannot
//! change the property's truth value in any execution, so dropping
//! them — together with their next-state functions and initial values
//! — yields a smaller system with an identical verdict for that
//! property. [`coi_cone`] computes the cone; [`coi_slice`] returns the
//! sliced system plus a [`CoiStats`] report.
//!
//! Soundness sketch: seed the cone with the free variables of every
//! root expression, then close under "state in cone ⇒ support of its
//! next-state expression in cone". Any execution of the sliced system
//! extends to an execution of the full system (assign dropped
//! states/inputs arbitrarily per their own next-state functions; no
//! kept next-state expression reads them), and restriction works in
//! the other direction, so the two systems agree on every property
//! whose free variables were passed as roots.

use std::collections::BTreeSet;

use gila_expr::{ExprCtx, ExprNode, ExprRef};

use crate::ts::TransitionSystem;

/// What cone-of-influence slicing kept and dropped.
///
/// Surfaced through verification telemetry and `--stats` so the effect
/// of slicing on each design is visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoiStats {
    /// State variables inside the cone.
    pub states_kept: usize,
    /// State variables sliced away.
    pub states_dropped: usize,
    /// Input variables inside the cone.
    pub inputs_kept: usize,
    /// Input variables sliced away.
    pub inputs_dropped: usize,
}

impl CoiStats {
    /// Total variables dropped (states plus inputs).
    pub fn dropped(&self) -> usize {
        self.states_dropped + self.inputs_dropped
    }

    /// Component-wise sum, for aggregating across ports.
    pub fn merge(&mut self, other: CoiStats) {
        self.states_kept += other.states_kept;
        self.states_dropped += other.states_dropped;
        self.inputs_kept += other.inputs_kept;
        self.inputs_dropped += other.inputs_dropped;
    }
}

/// The free variables of `roots`, as a set of names.
///
/// This is a plain syntactic support computation over the expression
/// DAG; each node is visited at most once.
pub fn support(ctx: &ExprCtx, roots: &[ExprRef]) -> BTreeSet<String> {
    let mut seen = vec![false; ctx.len()];
    let mut stack: Vec<ExprRef> = roots.to_vec();
    let mut names = BTreeSet::new();
    while let Some(e) = stack.pop() {
        if seen[e.index()] {
            continue;
        }
        seen[e.index()] = true;
        match ctx.node(e) {
            ExprNode::Var { name, .. } => {
                names.insert(name.clone());
            }
            ExprNode::App { args, .. } => stack.extend(args.iter().copied()),
            _ => {}
        }
    }
    names
}

/// The cone of influence of `roots` in `ts`, as a set of state and
/// input names.
///
/// One walk over the expression DAG with one `seen` bitmap: the walk
/// starts at `roots`, and a state's next-state
/// expression joins it when the state first enters the cone. Each node
/// is visited at most once, so the cost is linear in the cone's DAG
/// rather than one support computation per state.
pub fn coi_cone(ts: &TransitionSystem, roots: &[ExprRef]) -> BTreeSet<String> {
    let ctx = ts.ctx();
    let mut seen = vec![false; ctx.len()];
    let mut stack: Vec<ExprRef> = roots.to_vec();
    let mut cone = BTreeSet::new();
    while let Some(e) = stack.pop() {
        if std::mem::replace(&mut seen[e.index()], true) {
            continue;
        }
        match ctx.node(e) {
            ExprNode::Var { name, .. } => {
                // Inputs and undeclared names have no next-state.
                let entered = cone.insert(name.clone());
                stack.extend(ts.next_of(name).filter(|_| entered));
            }
            ExprNode::App { args, .. } => stack.extend(args.iter().copied()),
            _ => {}
        }
    }
    cone
}

/// Slices `ts` to the cone of influence of `roots`.
///
/// `roots` must contain every expression the caller will later
/// instantiate over the sliced system (properties, assumptions,
/// strengthening facts): a variable that is neither a root's free
/// variable nor reachable from one through next-state functions is
/// removed. The expression context is
/// shared unchanged, so `ExprRef` handles into `ts.ctx()` stay valid
/// for the sliced system.
pub fn coi_slice(ts: &TransitionSystem, roots: &[ExprRef]) -> (TransitionSystem, CoiStats) {
    let cone = coi_cone(ts, roots);
    let stats = CoiStats {
        states_kept: ts.states().iter().filter(|v| cone.contains(&v.name)).count(),
        states_dropped: ts.states().iter().filter(|v| !cone.contains(&v.name)).count(),
        inputs_kept: ts.inputs().iter().filter(|v| cone.contains(&v.name)).count(),
        inputs_dropped: ts.inputs().iter().filter(|v| !cone.contains(&v.name)).count(),
    };

    let mut sliced = ts.clone();
    sliced.retain_vars(&cone);
    (sliced, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::bmc;
    use crate::Unrolling;
    use gila_expr::{BitVecValue, Sort};

    /// Two independent counters plus an unused input; a property over
    /// one counter should slice away the other and the unused input.
    fn two_counters() -> (TransitionSystem, ExprRef) {
        let mut ts = TransitionSystem::new("two_counters");
        let a = ts.state("a", Sort::Bv(8));
        let b = ts.state("b", Sort::Bv(8));
        let en = ts.input("en", Sort::Bv(1));
        ts.input("unused", Sort::Bv(4));
        let one = ts.ctx_mut().bv_u64(1, 8);
        let a1 = ts.ctx_mut().bvadd(a, one);
        let c = ts.ctx_mut().eq_u64(en, 1);
        let a_next = ts.ctx_mut().ite(c, a1, a);
        ts.set_next("a", a_next).unwrap();
        let b1 = ts.ctx_mut().bvadd(b, one);
        ts.set_next("b", b1).unwrap();
        ts.set_init("a", BitVecValue::from_u64(0, 8)).unwrap();
        ts.set_init("b", BitVecValue::from_u64(0, 8)).unwrap();
        let hi = ts.ctx_mut().bv_u64(200, 8);
        let prop = ts.ctx_mut().ult(a, hi);
        (ts, prop)
    }

    #[test]
    fn slices_away_independent_state_and_inputs() {
        let (ts, prop) = two_counters();
        let (sliced, stats) = coi_slice(&ts, &[prop]);
        let names: Vec<&str> = sliced.states().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["a"]);
        let inputs: Vec<&str> = sliced.inputs().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(inputs, ["en"]);
        assert_eq!(
            stats,
            CoiStats {
                states_kept: 1,
                states_dropped: 1,
                inputs_kept: 1,
                inputs_dropped: 1,
            }
        );
        assert_eq!(stats.dropped(), 2);
    }

    #[test]
    fn closure_follows_next_state_chains() {
        let mut ts = TransitionSystem::new("chain");
        let s1 = ts.state("s1", Sort::Bv(4));
        let s2 = ts.state("s2", Sort::Bv(4));
        ts.state("s3", Sort::Bv(4));
        let i = ts.input("i", Sort::Bv(4));
        ts.input("j", Sort::Bv(4));
        // s1' = s2, s2' = i: the property over s1 needs s2 and i.
        ts.set_next("s1", s2).unwrap();
        ts.set_next("s2", i).unwrap();
        let zero = ts.ctx_mut().bv_u64(0, 4);
        let prop = ts.ctx_mut().eq(s1, zero);
        let (sliced, stats) = coi_slice(&ts, &[prop]);
        let names: Vec<&str> = sliced.states().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["s1", "s2"]);
        let inputs: Vec<&str> = sliced.inputs().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(inputs, ["i"]);
        assert_eq!(stats.states_dropped, 1);
        assert_eq!(stats.inputs_dropped, 1);
    }

    #[test]
    fn sliced_system_has_identical_verdicts() {
        let (ts, prop) = two_counters();
        let (sliced, _) = coi_slice(&ts, &[prop]);
        // Same bound, same outcome, on both a holding and a failing bound.
        for bound in [3, 8] {
            let full = bmc(&ts, prop, bound).map(|c| c.violation_step);
            let cut = bmc(&sliced, prop, bound).map(|c| c.violation_step);
            assert_eq!(full, cut, "bound {bound}");
        }
    }

    #[test]
    fn handles_stay_valid_and_unrolling_shrinks() {
        let (ts, prop) = two_counters();
        let (sliced, _) = coi_slice(&ts, &[prop]);
        let mut full = Unrolling::new(&ts, true);
        let mut cut = Unrolling::new(&sliced, true);
        full.step();
        cut.step();
        // The property maps through both unrollings (handles valid)...
        let pf = full.map_expr(1, prop);
        let pc = cut.map_expr(1, prop);
        assert_eq!(full.ctx().sort_of(pf), cut.ctx().sort_of(pc));
        // ...and the sliced context materializes fewer frame variables.
        assert!(cut.ctx().len() <= full.ctx().len());
    }

    /// The per-state support fixpoint `coi_slice` used before
    /// [`coi_cone`]: seed with the support of the roots, then add the
    /// support of each cone state's
    /// next-state expression until nothing changes. Kept as the
    /// reference the one-pass walk must agree with.
    fn reference_cone(ts: &TransitionSystem, roots: &[ExprRef]) -> BTreeSet<String> {
        let ctx = ts.ctx();
        let mut cone = support(ctx, roots);
        let mut worklist: Vec<String> = cone.iter().cloned().collect();
        while let Some(name) = worklist.pop() {
            let Some(next) = ts.next_of(&name) else {
                continue;
            };
            for dep in support(ctx, &[next]) {
                if cone.insert(dep.clone()) {
                    worklist.push(dep);
                }
            }
        }
        cone
    }

    /// A random 4-bit expression over `leaves`, at most `depth` deep.
    fn random_expr(
        ts: &mut TransitionSystem,
        rng: &mut rand::rngs::StdRng,
        leaves: &[ExprRef],
        depth: u32,
    ) -> ExprRef {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.3) {
            if rng.gen_bool(0.15) {
                return ts.ctx_mut().bv_u64(rng.gen_range(0..16u64), 4);
            }
            return leaves[rng.gen_range(0..leaves.len())];
        }
        let a = random_expr(ts, rng, leaves, depth - 1);
        let b = random_expr(ts, rng, leaves, depth - 1);
        let ctx = ts.ctx_mut();
        match rng.gen_range(0..3u32) {
            0 => ctx.bvadd(a, b),
            1 => ctx.bvxor(a, b),
            _ => {
                let c = ctx.ult(a, b);
                ctx.ite(c, a, b)
            }
        }
    }

    /// A seeded random transition system: states whose next is the
    /// hold default, explicit self-loops, states nothing reads, and
    /// inputs no next-state function reads.
    fn random_ts(seed: u64) -> (TransitionSystem, Vec<ExprRef>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ts = TransitionSystem::new("random");
        let states: Vec<ExprRef> = (0..rng.gen_range(1..10usize))
            .map(|i| ts.state(format!("s{i}"), Sort::Bv(4)))
            .collect();
        let inputs: Vec<ExprRef> = (0..rng.gen_range(1..6usize))
            .map(|i| ts.input(format!("i{i}"), Sort::Bv(4)))
            .collect();
        // Dead inputs are read by no next-state function.
        let live_inputs = &inputs[..rng.gen_range(0..=inputs.len())];
        let mut leaves = states.clone();
        leaves.extend_from_slice(live_inputs);
        for (i, &s) in states.iter().enumerate() {
            let name = format!("s{i}");
            match rng.gen_range(0..4u32) {
                0 => {} // hold default
                1 => {
                    let one = ts.ctx_mut().bv_u64(1, 4);
                    let next = ts.ctx_mut().bvadd(s, one);
                    ts.set_next(&name, next).unwrap();
                }
                _ => {
                    let next = random_expr(&mut ts, &mut rng, &leaves, 3);
                    ts.set_next(&name, next).unwrap();
                }
            }
        }
        let mut all = states;
        all.extend(inputs);
        (ts, all)
    }

    #[test]
    fn one_pass_cone_matches_support_fixpoint_on_random_systems() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
        for seed in 0..300 {
            let (mut ts, vars) = random_ts(seed);
            for _ in 0..4 {
                let mut roots = Vec::new();
                for _ in 0..rng.gen_range(0..4usize) {
                    roots.push(if rng.gen_bool(0.5) {
                        vars[rng.gen_range(0..vars.len())]
                    } else {
                        random_expr(&mut ts, &mut rng, &vars, 2)
                    });
                }
                assert_eq!(
                    coi_cone(&ts, &roots),
                    reference_cone(&ts, &roots),
                    "seed {seed}, roots {roots:?}"
                );
            }
        }
    }
}
