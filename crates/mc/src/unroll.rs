//! Time-frame expansion (unrolling) of transition systems.

use std::collections::BTreeMap;

use gila_expr::{eval_all, substitute_cached, ExprCtx, ExprMap, ExprRef, Value};
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
}

/// One frame's substitution: each transition-system variable mapped to
/// the frame's expression for it, built once when the frame is pushed,
/// and the memo of every rewrite made under it so far.
///
/// The memo stays valid for the frame's lifetime: the substitution of a
/// frame never changes once the frame exists, and the hash-consed
/// context only grows, so a memoized result is exactly the handle a
/// fresh walk would find.
#[derive(Clone, Debug, Default)]
struct FrameSubst {
    map: ExprMap<ExprRef>,
    memo: ExprMap<ExprRef>,
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
    init_assumptions: Vec<ExprRef>,
    frames: Vec<Frame>,
    /// `substs[k]` is frame `k`'s substitution and memo.
    substs: Vec<FrameSubst>,
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
            init_assumptions: Vec::new(),
            frames: Vec::new(),
            substs: Vec::new(),
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
        u.push_frame(states);
        u
    }

    /// Pushes the next frame with the given state: fresh input
    /// variables and the frame's substitution.
    fn push_frame(&mut self, states: BTreeMap<String, ExprRef>) {
        let step = self.frames.len();
        let mut inputs = BTreeMap::new();
        for name in &self.input_names {
            let sort = self.ctx.sort_of(self.ts_input_vars[name]);
            let v = self.ctx.var(format!("{name}@{step}"), sort);
            inputs.insert(name.clone(), v);
        }
        let map = self
            .ts_state_vars
            .iter()
            .map(|(name, &var)| (var, states[name]))
            .chain(
                self.ts_input_vars
                    .iter()
                    .map(|(name, &var)| (var, inputs[name])),
            )
            .collect();
        self.substs.push(FrameSubst {
            map,
            memo: ExprMap::default(),
        });
        self.frames.push(Frame { states, inputs });
    }

    /// Attaches a telemetry tracer; extend/snapshot/rollback events are
    /// emitted through it. The default is the disabled (no-op) tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Appends one frame.
    pub fn step(&mut self) {
        let last = self.depth();
        let mut states = BTreeMap::new();
        for i in 0..self.state_names.len() {
            let next = self.next[&self.state_names[i]];
            let e = self.map_expr(last, next);
            states.insert(self.state_names[i].clone(), e);
        }
        self.push_frame(states);
        let step = last + 1;
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
        self.substs.truncate(snap.frames);
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
    /// Each frame memoizes its rewrites, so mapping an expression a
    /// second time is one lookup, and mapping one that shares structure
    /// with earlier ones rewrites only the new part. The result is the
    /// handle a fresh substitution would return.
    ///
    /// # Panics
    ///
    /// Panics if `k` is beyond the unrolled frames.
    pub fn map_expr(&mut self, k: usize, e: ExprRef) -> ExprRef {
        let FrameSubst { map, memo } = &mut self.substs[k];
        substitute_cached(&mut self.ctx, e, map, memo)
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
        let roots: Vec<ExprRef> = exprs.values().copied().collect();
        let values = eval_all(&self.ctx, &roots, value_of);
        exprs.into_keys().zip(values).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_expr::{BitVecValue, Sort};
    use std::collections::HashMap;

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

    /// Random well-sorted expressions over a pool of terms: 4-bit words,
    /// booleans and 2x4 memories. Every built term joins its pool, so
    /// later terms share earlier ones.
    struct Gen {
        rng: rand::rngs::StdRng,
        bvs: Vec<ExprRef>,
        bools: Vec<ExprRef>,
        mems: Vec<ExprRef>,
    }

    impl Gen {
        fn pick(&mut self, pool: fn(&Gen) -> &Vec<ExprRef>) -> ExprRef {
            use rand::Rng;
            let n = pool(self).len();
            let i = self.rng.gen_range(0..n);
            pool(self)[i]
        }

        fn bv(&mut self, ctx: &mut ExprCtx, depth: u32) -> ExprRef {
            use rand::Rng;
            if depth == 0 || self.rng.gen_bool(0.3) {
                return if self.rng.gen_bool(0.8) {
                    self.pick(|g| &g.bvs)
                } else {
                    ctx.bv_u64(self.rng.gen_range(0..16), 4)
                };
            }
            let e = match self.rng.gen_range(0..4) {
                0 => {
                    let (a, b) = (self.bv(ctx, depth - 1), self.bv(ctx, depth - 1));
                    ctx.bvadd(a, b)
                }
                1 => {
                    let (a, b) = (self.bv(ctx, depth - 1), self.bv(ctx, depth - 1));
                    ctx.bvxor(a, b)
                }
                2 => {
                    let c = self.bool(ctx, depth - 1);
                    let (a, b) = (self.bv(ctx, depth - 1), self.bv(ctx, depth - 1));
                    ctx.ite(c, a, b)
                }
                _ => {
                    let m = self.mem(ctx, depth - 1);
                    let a = self.bv(ctx, depth - 1);
                    let a = ctx.extract(a, 1, 0);
                    ctx.mem_read(m, a)
                }
            };
            self.bvs.push(e);
            e
        }

        fn bool(&mut self, ctx: &mut ExprCtx, depth: u32) -> ExprRef {
            use rand::Rng;
            if depth == 0 || self.rng.gen_bool(0.3) {
                return self.pick(|g| &g.bools);
            }
            let e = match self.rng.gen_range(0..4) {
                0 => {
                    let (a, b) = (self.bv(ctx, depth - 1), self.bv(ctx, depth - 1));
                    ctx.eq(a, b)
                }
                1 => {
                    let (a, b) = (self.bv(ctx, depth - 1), self.bv(ctx, depth - 1));
                    ctx.ult(a, b)
                }
                2 => {
                    let (a, b) = (self.bool(ctx, depth - 1), self.bool(ctx, depth - 1));
                    ctx.and(a, b)
                }
                _ => {
                    let a = self.bool(ctx, depth - 1);
                    ctx.not(a)
                }
            };
            self.bools.push(e);
            e
        }

        fn mem(&mut self, ctx: &mut ExprCtx, depth: u32) -> ExprRef {
            use rand::Rng;
            if depth == 0 || self.rng.gen_bool(0.4) {
                return self.pick(|g| &g.mems);
            }
            let m = self.mem(ctx, depth - 1);
            let a = self.bv(ctx, depth - 1);
            let a = ctx.extract(a, 1, 0);
            let d = self.bv(ctx, depth - 1);
            let e = ctx.mem_write(m, a, d);
            self.mems.push(e);
            e
        }
    }

    /// A random system: three words, a boolean and a memory of state,
    /// two word inputs and a boolean one, random next-state functions,
    /// and `queries` random expressions over the system's variables,
    /// all built before unrolling.
    fn random_ts(seed: u64, queries: usize) -> (TransitionSystem, Vec<ExprRef>) {
        use rand::SeedableRng;
        let mem = Sort::Mem {
            addr_width: 2,
            data_width: 4,
        };
        let mut ts = TransitionSystem::new("r");
        let mut g = Gen {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            bvs: vec![
                ts.state("a", Sort::Bv(4)),
                ts.state("b", Sort::Bv(4)),
                ts.state("c", Sort::Bv(4)),
                ts.input("x", Sort::Bv(4)),
                ts.input("y", Sort::Bv(4)),
            ],
            bools: vec![ts.state("f", Sort::Bool), ts.input("go", Sort::Bool)],
            mems: vec![ts.state("m", mem)],
        };
        for name in ["a", "b", "c"] {
            let e = g.bv(ts.ctx_mut(), 4);
            ts.set_next(name, e).unwrap();
        }
        let f = g.bool(ts.ctx_mut(), 3);
        ts.set_next("f", f).unwrap();
        let m = g.mem(ts.ctx_mut(), 3);
        ts.set_next("m", m).unwrap();
        let qs = (0..queries)
            .map(|i| match i % 3 {
                0 => g.bv(ts.ctx_mut(), 5),
                1 => g.bool(ts.ctx_mut(), 5),
                _ => g.mem(ts.ctx_mut(), 4),
            })
            .collect();
        (ts, qs)
    }

    /// Substitution as one full `post_order` walk, the way it was done
    /// before walks stopped at memoized subterms.
    fn substitute_full(
        ctx: &mut ExprCtx,
        root: ExprRef,
        map: &HashMap<ExprRef, ExprRef>,
        memo: &mut HashMap<ExprRef, ExprRef>,
    ) -> ExprRef {
        for e in ctx.post_order(&[root]) {
            if memo.contains_key(&e) {
                continue;
            }
            let out = match (map.get(&e), ctx.node(e).clone()) {
                (Some(&r), _) => r,
                (None, gila_expr::ExprNode::App { op, args, .. }) => {
                    let new_args: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                    if new_args == args {
                        e
                    } else {
                        ctx.app(op, new_args)
                    }
                }
                (None, _) => e,
            };
            memo.insert(e, out);
        }
        memo[&root]
    }

    /// The unrolling without memos: each frame's map rebuilt and every
    /// substitution a full walk from an empty memo.
    struct Reference {
        ctx: ExprCtx,
        frames: Vec<Frame>,
    }

    impl Reference {
        fn new(ts: &TransitionSystem) -> Self {
            let mut r = Reference {
                ctx: ts.ctx().clone(),
                frames: Vec::new(),
            };
            let states = ts
                .states()
                .iter()
                .map(|v| (v.name.clone(), r.ctx.var(format!("{}@0", v.name), v.sort)))
                .collect();
            r.push(ts, states);
            r
        }

        fn map(&self, ts: &TransitionSystem, k: usize) -> HashMap<ExprRef, ExprRef> {
            let f = &self.frames[k];
            let states = ts.states().iter().map(|v| (v.var, f.states[&v.name]));
            states
                .chain(ts.inputs().iter().map(|v| (v.var, f.inputs[&v.name])))
                .collect()
        }

        fn push(&mut self, ts: &TransitionSystem, states: BTreeMap<String, ExprRef>) {
            let step = self.frames.len();
            let inputs = ts
                .inputs()
                .iter()
                .map(|v| {
                    (
                        v.name.clone(),
                        self.ctx.var(format!("{}@{step}", v.name), v.sort),
                    )
                })
                .collect();
            self.frames.push(Frame { states, inputs });
        }

        fn extend_to(&mut self, ts: &TransitionSystem, k: usize) {
            while self.frames.len() <= k {
                let map = self.map(ts, self.frames.len() - 1);
                let mut memo = HashMap::new();
                let states = ts
                    .states()
                    .iter()
                    .map(|v| {
                        let next = ts.next_of(&v.name).unwrap();
                        let e = substitute_full(&mut self.ctx, next, &map, &mut memo);
                        (v.name.clone(), e)
                    })
                    .collect();
                self.push(ts, states);
            }
        }

        fn map_expr(&mut self, ts: &TransitionSystem, k: usize, e: ExprRef) -> ExprRef {
            let map = self.map(ts, k);
            substitute_full(&mut self.ctx, e, &map, &mut HashMap::new())
        }
    }

    /// Same frames, same context length, and the same node behind every
    /// handle reachable from them.
    fn assert_same(u: &Unrolling, r: &Reference, extra: &[ExprRef]) {
        assert_eq!(u.ctx().len(), r.ctx.len(), "node creation diverged");
        assert_eq!(u.frames().len(), r.frames.len());
        let mut roots = extra.to_vec();
        for (a, b) in u.frames().iter().zip(&r.frames) {
            assert_eq!(a.states, b.states);
            assert_eq!(a.inputs, b.inputs);
            roots.extend(a.states.values().chain(a.inputs.values()));
        }
        for e in u.ctx().post_order(&roots) {
            assert_eq!(u.ctx().node(e), r.ctx.node(e));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The per-frame memo is invisible: through extends, rollbacks
        /// and clones, every memoized `map_expr` returns what a fresh
        /// substitution under the frame's cached map returns, creates
        /// the same nodes in the same order as the memo-free unrolling,
        /// and a repeated call creates none.
        #[test]
        fn frame_memo_is_invisible(
            seed in proptest::strategy::any::<u64>(),
            ops in proptest::collection::vec((0u8..4, 0usize..6, 0usize..8), 1..24),
        ) {
            let (ts, qs) = random_ts(seed, 8);
            let mut u = Unrolling::new(&ts, false);
            let mut r = Reference::new(&ts);
            let mut results = Vec::new();
            for (op, a, b) in ops {
                match op {
                    0 => {
                        let k = a.min(4);
                        u.extend_to(k);
                        r.extend_to(&ts, k);
                    }
                    1 => {
                        let keep = UnrollingSnapshot { frames: 1 + a.min(u.depth()) };
                        u.rollback_to(keep);
                        r.frames.truncate(keep.frames);
                    }
                    2 => u = u.clone(),
                    _ => {
                        let (k, q) = (a.min(u.depth()), qs[b]);
                        let got = u.map_expr(k, q);
                        proptest::prop_assert_eq!(got, r.map_expr(&ts, k, q));
                        let len = u.ctx().len();
                        proptest::prop_assert_eq!(u.map_expr(k, q), got);
                        proptest::prop_assert_eq!(u.ctx().len(), len);
                        let map = u.substs[k].map.clone();
                        let fresh = substitute_cached(u.ctx_mut(), q, &map, &mut HashMap::new());
                        proptest::prop_assert_eq!(fresh, got);
                        proptest::prop_assert_eq!(u.ctx().len(), len);
                        results.push(got);
                    }
                }
                assert_same(&u, &r, &results);
            }
            // Every query at every frame, on the final unrolling.
            u.extend_to(3);
            r.extend_to(&ts, 3);
            for k in 0..=u.depth() {
                for &q in &qs {
                    let got = u.map_expr(k, q);
                    proptest::prop_assert_eq!(got, r.map_expr(&ts, k, q));
                    results.push(got);
                }
            }
            assert_same(&u, &r, &results);
        }
    }
}
