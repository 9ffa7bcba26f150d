//! Time-frame expansion (unrolling) of transition systems.

use std::collections::{BTreeMap, HashMap};

use gila_expr::{substitute_cached, ExprCtx, ExprRef, Value};
use gila_smt::SmtSolver;
use gila_trace::{Event, SpanKind, Tracer};

use crate::ts::TransitionSystem;

/// One time frame of an unrolling: the symbolic state and the fresh
/// input variables for that step.
#[derive(Clone, Debug)]
pub struct Frame {
    /// State name -> expression over frame-0 state and input variables.
    pub states: BTreeMap<String, ExprRef>,
    /// Input name -> the fresh variable for this step.
    pub inputs: BTreeMap<String, ExprRef>,
    /// The instantiated invariant constraints for this step.
    pub constraints: Vec<ExprRef>,
}

/// A saved unrolling depth; see [`Unrolling::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnrollingSnapshot {
    frames: usize,
}

/// An unrolled transition system.
///
/// Frame 0 starts from fresh symbolic state variables (named `name@0`),
/// optionally constrained to declared initial values. Each subsequent
/// frame's state is the previous frame's next-state expressions with
/// inputs replaced by fresh per-step variables (`name@k`). All
/// expressions live in the unroller's own context, importable into SAT.
///
/// # Examples
///
/// ```
/// use gila_mc::{TransitionSystem, Unrolling};
/// use gila_expr::Sort;
///
/// let mut ts = TransitionSystem::new("c");
/// let cnt = ts.state("cnt", Sort::Bv(8));
/// let one = ts.ctx_mut().bv_u64(1, 8);
/// let next = ts.ctx_mut().bvadd(cnt, one);
/// ts.set_next("cnt", next)?;
/// let mut u = Unrolling::new(&ts, false);
/// u.extend_to(3);
/// assert_eq!(u.frames().len(), 4); // frames 0..=3
/// # Ok::<(), gila_mc::TsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Unrolling {
    ctx: ExprCtx,
    state_names: Vec<String>,
    input_names: Vec<String>,
    next: BTreeMap<String, ExprRef>,
    ts_state_vars: BTreeMap<String, ExprRef>,
    ts_input_vars: BTreeMap<String, ExprRef>,
    ts_constraints: Vec<ExprRef>,
    init_assumptions: Vec<ExprRef>,
    frames: Vec<Frame>,
    tracer: Tracer,
}

impl Unrolling {
    /// Creates an unrolling with frame 0 in place.
    ///
    /// With `constrain_init = true`, states with declared initial values
    /// are pinned to them in frame 0; otherwise frame 0 is fully
    /// symbolic (the mode refinement checking uses: "starting from *any*
    /// pair of equivalent states").
    pub fn new(ts: &TransitionSystem, constrain_init: bool) -> Self {
        // Clone the context so ts expressions remain valid handles.
        let ctx = ts.ctx().clone();
        let mut u = Unrolling {
            ctx,
            state_names: ts.states().iter().map(|v| v.name.clone()).collect(),
            input_names: ts.inputs().iter().map(|v| v.name.clone()).collect(),
            next: ts
                .states()
                .iter()
                .map(|v| {
                    (
                        v.name.clone(),
                        ts.next_of(&v.name).expect("next always present"),
                    )
                })
                .collect(),
            ts_state_vars: ts.states().iter().map(|v| (v.name.clone(), v.var)).collect(),
            ts_input_vars: ts.inputs().iter().map(|v| (v.name.clone(), v.var)).collect(),
            ts_constraints: ts.constraints().to_vec(),
            init_assumptions: Vec::new(),
            frames: Vec::new(),
            tracer: Tracer::disabled(),
        };
        // Frame 0: fresh symbolic state.
        let mut states = BTreeMap::new();
        for name in u.state_names.clone() {
            let sort = u.ctx.sort_of(u.ts_state_vars[&name]);
            let v0 = u.ctx.var(format!("{name}@0"), sort);
            states.insert(name.clone(), v0);
            if constrain_init {
                if let Some(value) = ts.init_of(&name) {
                    let c = match value {
                        Value::Bool(b) => {
                            let bc = u.ctx.bool_const(*b);
                            u.ctx.eq(v0, bc)
                        }
                        Value::Bv(x) => {
                            let xc = u.ctx.bv(x.clone());
                            u.ctx.eq(v0, xc)
                        }
                        Value::Mem(m) => {
                            let mc = u.ctx.mem_const(m.clone());
                            u.ctx.eq(v0, mc)
                        }
                    };
                    u.init_assumptions.push(c);
                }
            }
        }
        let frame0 = u.make_frame(0, states);
        u.frames.push(frame0);
        u
    }

    fn make_frame(&mut self, step: usize, states: BTreeMap<String, ExprRef>) -> Frame {
        let mut inputs = BTreeMap::new();
        for name in &self.input_names {
            let sort = self.ctx.sort_of(self.ts_input_vars[name]);
            let v = self.ctx.var(format!("{name}@{step}"), sort);
            inputs.insert(name.clone(), v);
        }
        // Instantiate the invariant constraints at this step.
        let subst = self.subst_map(&states, &inputs);
        let mut memo = HashMap::new();
        let constraints = self
            .ts_constraints
            .clone()
            .into_iter()
            .map(|c| substitute_cached(&mut self.ctx, c, &subst, &mut memo))
            .collect();
        Frame {
            states,
            inputs,
            constraints,
        }
    }

    fn subst_map(
        &self,
        states: &BTreeMap<String, ExprRef>,
        inputs: &BTreeMap<String, ExprRef>,
    ) -> HashMap<ExprRef, ExprRef> {
        let mut map = HashMap::new();
        for (name, &var) in &self.ts_state_vars {
            map.insert(var, states[name]);
        }
        for (name, &var) in &self.ts_input_vars {
            map.insert(var, inputs[name]);
        }
        map
    }

    /// Attaches a telemetry tracer; extend/snapshot/rollback events are
    /// emitted through it. The default is the disabled (no-op) tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Appends one frame.
    pub fn step(&mut self) {
        let last = self.frames.last().expect("frame 0 exists");
        let subst = self.subst_map(&last.states, &last.inputs);
        let mut memo = HashMap::new();
        let mut states = BTreeMap::new();
        for name in self.state_names.clone() {
            let next = self.next[&name];
            let e = substitute_cached(&mut self.ctx, next, &subst, &mut memo);
            states.insert(name, e);
        }
        let step = self.frames.len();
        let frame = self.make_frame(step, states);
        self.frames.push(frame);
        self.tracer.record(|| {
            Event::new(SpanKind::Unroll)
                .label("extend")
                .field("depth", step as u64)
        });
    }

    /// Extends the unrolling so frames `0..=k` exist.
    pub fn extend_to(&mut self, k: usize) {
        while self.frames.len() <= k {
            self.step();
        }
    }

    /// The deepest unrolled frame index (`frames().len() - 1`).
    pub fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    /// Captures the current unrolling depth so a longer-lived unrolling
    /// can be [rolled back](Unrolling::rollback_to) after serving a
    /// deeper-bounded query.
    pub fn snapshot(&self) -> UnrollingSnapshot {
        self.tracer.record(|| {
            Event::new(SpanKind::Unroll)
                .label("snapshot")
                .field("depth", (self.frames.len() - 1) as u64)
        });
        UnrollingSnapshot {
            frames: self.frames.len(),
        }
    }

    /// Truncates the unrolling back to a snapshot.
    ///
    /// Because frame variables are interned by name (`name@k`) and frame
    /// expressions are hash-consed, re-extending after a rollback
    /// reproduces bit-identical `ExprRef`s — so a solver that already
    /// blasted the dropped frames keeps its CNF valid and cached. This is
    /// what lets one persistent engine serve instructions of differing
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is deeper than the current unrolling (i.e.
    /// it was taken from a different `Unrolling`).
    pub fn rollback_to(&mut self, snap: UnrollingSnapshot) {
        assert!(
            snap.frames <= self.frames.len(),
            "rollback_to: snapshot at {} frames is deeper than current {}",
            snap.frames,
            self.frames.len()
        );
        self.tracer.record(|| {
            Event::new(SpanKind::Unroll)
                .label("rollback")
                .field("from", (self.frames.len() - 1) as u64)
                .field("to", (snap.frames - 1) as u64)
        });
        self.frames.truncate(snap.frames);
    }

    /// The frames unrolled so far.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The unroller's expression context (valid for all frame exprs).
    pub fn ctx(&self) -> &ExprCtx {
        &self.ctx
    }

    /// Mutable access to the context (for building properties).
    pub fn ctx_mut(&mut self) -> &mut ExprCtx {
        &mut self.ctx
    }

    /// Initial-value assumptions (empty when frame 0 is fully symbolic).
    pub fn init_assumptions(&self) -> &[ExprRef] {
        &self.init_assumptions
    }

    /// Maps an expression over the transition system's variables to the
    /// given frame: state and input variables are replaced by that
    /// frame's expressions/fresh variables.
    ///
    /// # Panics
    ///
    /// Panics if `k` is beyond the unrolled frames.
    pub fn map_expr(&mut self, k: usize, e: ExprRef) -> ExprRef {
        let frame = &self.frames[k];
        let subst = self.subst_map(&frame.states.clone(), &frame.inputs.clone());
        let mut memo = HashMap::new();
        substitute_cached(&mut self.ctx, e, &subst, &mut memo)
    }

    /// All invariant-constraint instances over frames `0..=k`.
    pub fn constraints_up_to(&self, k: usize) -> Vec<ExprRef> {
        self.frames[..=k]
            .iter()
            .flat_map(|f| f.constraints.iter().copied())
            .collect()
    }

    /// Reads the concrete state at frame `k` from a satisfying model.
    pub fn concretize_states(&self, smt: &SmtSolver, k: usize) -> BTreeMap<String, Value> {
        self.concretize(smt, self.frames[k].states.clone())
    }

    /// Reads the concrete inputs at frame `k` from a satisfying model.
    pub fn concretize_inputs(&self, smt: &SmtSolver, k: usize) -> BTreeMap<String, Value> {
        self.concretize(smt, self.frames[k].inputs.clone())
    }

    /// Reads concrete values for arbitrary named expressions over this
    /// unrolling's variables from a satisfying model (unconstrained
    /// variables default to zero).
    pub fn concretize(
        &self,
        smt: &SmtSolver,
        exprs: BTreeMap<String, ExprRef>,
    ) -> BTreeMap<String, Value> {
        self.concretize_with(|v| smt.try_model_value(&self.ctx, v), exprs)
    }

    /// Evaluates named expressions over this unrolling's variables under
    /// an assignment: `value_of` gives a variable's value, and variables
    /// it leaves unbound default to zero.
    pub fn concretize_with(
        &self,
        value_of: impl Fn(ExprRef) -> Option<Value>,
        exprs: BTreeMap<String, ExprRef>,
    ) -> BTreeMap<String, Value> {
        use gila_expr::{eval, Env};
        let roots: Vec<ExprRef> = exprs.values().copied().collect();
        let mut env = Env::new();
        for v in self.ctx.vars_of(&roots) {
            let value = value_of(v).unwrap_or_else(|| {
                match self.ctx.sort_of(v) {
                    gila_expr::Sort::Bool => Value::Bool(false),
                    gila_expr::Sort::Bv(w) => Value::Bv(gila_expr::BitVecValue::zero(w)),
                    gila_expr::Sort::Mem {
                        addr_width,
                        data_width,
                    } => Value::Mem(gila_expr::MemValue::zeroed(addr_width, data_width)),
                }
            });
            env.bind(v, value);
        }
        exprs
            .into_iter()
            .map(|(name, e)| {
                let v = eval(&self.ctx, e, &env).expect("all vars bound");
                (name, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_expr::{BitVecValue, Sort};

    fn counter_ts() -> TransitionSystem {
        let mut ts = TransitionSystem::new("c");
        let en = ts.input("en", Sort::Bv(1));
        let cnt = ts.state("cnt", Sort::Bv(8));
        let one = ts.ctx_mut().bv_u64(1, 8);
        let inc = ts.ctx_mut().bvadd(cnt, one);
        let c = ts.ctx_mut().eq_u64(en, 1);
        let next = ts.ctx_mut().ite(c, inc, cnt);
        ts.set_next("cnt", next).unwrap();
        ts.set_init("cnt", BitVecValue::from_u64(0, 8)).unwrap();
        ts
    }

    #[test]
    fn frames_have_fresh_inputs() {
        let ts = counter_ts();
        let mut u = Unrolling::new(&ts, true);
        u.extend_to(2);
        assert_eq!(u.frames().len(), 3);
        let i0 = u.frames()[0].inputs["en"];
        let i1 = u.frames()[1].inputs["en"];
        assert_ne!(i0, i1);
        assert_eq!(u.init_assumptions().len(), 1);
    }

    #[test]
    fn unrolled_semantics_via_sat() {
        // After 2 steps with en=1, cnt must be 2 (from init 0).
        let ts = counter_ts();
        let mut u = Unrolling::new(&ts, true);
        u.extend_to(2);
        let mut smt = SmtSolver::new();
        for &a in u.init_assumptions() {
            smt.assert(u.ctx(), a);
        }
        for k in 0..2 {
            let en = u.frames()[k].inputs["en"];
            let c = u.ctx_mut().eq_u64(en, 1);
            smt.assert(u.ctx(), c);
        }
        // Assert cnt@2 != 2 -> must be UNSAT.
        let cnt2 = u.frames()[2].states["cnt"];
        let ne = {
            let two = u.ctx_mut().bv_u64(2, 8);
            u.ctx_mut().ne(cnt2, two)
        };
        smt.assert(u.ctx(), ne);
        assert!(!smt.check().is_sat());
    }

    #[test]
    fn map_expr_instantiates_frames() {
        let mut ts = counter_ts();
        // cnt < 10 over ts vars, built in the ts context *before* unrolling
        // so the handle is valid in the unroller's cloned context.
        let prop = {
            let cnt = ts.ctx().find_var("cnt").unwrap();
            let ten = ts.ctx_mut().bv_u64(10, 8);
            ts.ctx_mut().ult(cnt, ten)
        };
        let mut u = Unrolling::new(&ts, true);
        u.extend_to(1);
        let p0 = u.map_expr(0, prop);
        let p1 = u.map_expr(1, prop);
        assert_ne!(p0, p1);
    }

    #[test]
    fn rollback_and_reextend_is_deterministic() {
        let ts = counter_ts();
        let mut u = Unrolling::new(&ts, false);
        u.extend_to(5);
        assert_eq!(u.depth(), 5);
        let deep: Vec<_> = (0..=5).map(|k| u.frames()[k].states["cnt"]).collect();
        let snap_shallow = u.snapshot();
        u.rollback_to(snap_shallow);
        assert_eq!(u.depth(), 5);
        // Roll back to depth 2, then re-extend: handles must be
        // bit-identical to the first unrolling (interned names +
        // hash-consing), so a solver's blast cache stays valid.
        u.rollback_to(UnrollingSnapshot { frames: 3 });
        assert_eq!(u.depth(), 2);
        u.extend_to(5);
        let again: Vec<_> = (0..=5).map(|k| u.frames()[k].states["cnt"]).collect();
        assert_eq!(deep, again);
        let i3 = u.frames()[3].inputs["en"];
        assert_eq!(u.ctx().find_var("en@3"), Some(i3));
    }

    #[test]
    #[should_panic(expected = "deeper than current")]
    fn rollback_to_foreign_snapshot_panics() {
        let ts = counter_ts();
        let mut deep = Unrolling::new(&ts, false);
        deep.extend_to(4);
        let snap = deep.snapshot();
        let mut shallow = Unrolling::new(&ts, false);
        shallow.rollback_to(snap);
    }

    #[test]
    fn concretize_extracts_model_values() {
        let ts = counter_ts();
        let mut u = Unrolling::new(&ts, false);
        u.extend_to(1);
        let mut smt = SmtSolver::new();
        // Pin cnt@0 = 7 and en@0 = 1; then states at frame 1 must read 8.
        let cnt0 = u.frames()[0].states["cnt"];
        let c = u.ctx_mut().eq_u64(cnt0, 7);
        smt.assert(u.ctx(), c);
        let en0 = u.frames()[0].inputs["en"];
        let c = u.ctx_mut().eq_u64(en0, 1);
        smt.assert(u.ctx(), c);
        // Force frame-1 state into the solver so its vars are blasted.
        let cnt1 = u.frames()[1].states["cnt"];
        let c = {
            let eight = u.ctx_mut().bv_u64(8, 8);
            u.ctx_mut().eq(cnt1, eight)
        };
        smt.assert(u.ctx(), c);
        assert!(smt.check().is_sat());
        let s1 = u.concretize_states(&smt, 1);
        assert_eq!(s1["cnt"].as_bv().to_u64(), 8);
        let i0 = u.concretize_inputs(&smt, 0);
        assert_eq!(i0["en"].as_bv().to_u64(), 1);
    }
}
