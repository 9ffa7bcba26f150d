//! Condition-directed refinement and the decode oracle.
//!
//! [`assume`] refines an abstract environment under the hypothesis that
//! a boolean condition holds — the abstract analogue of asserting a
//! path condition. [`DecodeOracle`] stacks three cheap decision layers
//! on top of it to answer the lint passes' decode questions
//! (satisfiable? disjoint? complete?) without a SAT solver:
//!
//! 1. **abstract evaluation** under the unconstrained environment —
//!    decides tautologies and contradictions the domains can see;
//! 2. **concrete probes** — a handful of representative assignments
//!    (all-zeros, all-ones, reset values) decide satisfiability
//!    positively at the cost of three interpreter runs;
//! 3. **exhaustive enumeration** — when the condition's support fits a
//!    small bit budget, every assignment is evaluated and the question
//!    is decided *exactly*.
//!
//! Every method returns `Option<bool>`: `None` means inconclusive and
//! the caller must fall back to SAT. The oracle never fabricates
//! witnesses — findings that need a model (a gap command, an overlap
//! command) always go to the solver. A decided answer must equal the
//! solver's: in debug builds `gila-lint` asks SAT every question the
//! oracle settles and asserts that the two agree.

use gila_core::PortIla;
use gila_expr::{
    abs_eval, eval, AbsBool, AbsBv, AbsEnv, AbsValue, BitVecValue, Env, ExprCtx, ExprNode,
    ExprRef, MemValue, Op, Sort, Value,
};

/// Support-width budget (total bits) for exhaustive enumeration.
/// 2^12 interpreter runs per question is well under a millisecond.
const ENUM_BITS: u32 = 12;

/// Refines `env` under the hypothesis that `cond` is true.
///
/// Returns `None` when the hypothesis is *refuted* — no environment in
/// γ(`env`) satisfies `cond` — which callers may treat as a proof of
/// unsatisfiability. Otherwise returns an environment at least as
/// precise as `env` that still describes every model of `cond` in
/// γ(`env`).
///
/// Refinement walks the conjunction structure and narrows variables
/// compared against constants (`v == c`, `v < c`, boolean literals);
/// anything else is kept as-is, which is always sound.
pub fn assume(ctx: &ExprCtx, cond: ExprRef, env: &AbsEnv) -> Option<AbsEnv> {
    assume_with(ctx, cond, true, env)
}

/// Like [`assume`], but under the hypothesis `cond == polarity`.
pub(crate) fn assume_with(
    ctx: &ExprCtx,
    cond: ExprRef,
    polarity: bool,
    env: &AbsEnv,
) -> Option<AbsEnv> {
    // A decided condition needs no structural walk.
    match abs_eval(ctx, cond, env) {
        AbsValue::Bool(AbsBool::Bot) => return None,
        AbsValue::Bool(b) => {
            if let Some(c) = b.as_const() {
                return (c == polarity).then(|| env.clone());
            }
        }
        _ => {}
    }
    let mut out = env.clone();
    if refine(ctx, cond, polarity, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// Narrows `env` so that `cond == polarity`; false means refuted.
fn refine(ctx: &ExprCtx, cond: ExprRef, polarity: bool, env: &mut AbsEnv) -> bool {
    match ctx.node(cond) {
        ExprNode::BoolConst(b) => *b == polarity,
        ExprNode::Var { .. } => bind_meet(env, cond, AbsValue::Bool(AbsBool::from_bool(polarity))),
        ExprNode::App { op, args, .. } => {
            let args = args.clone();
            match (op, polarity) {
                (Op::Not, _) => refine(ctx, args[0], !polarity, env),
                (Op::And, true) => {
                    refine(ctx, args[0], true, env) && refine(ctx, args[1], true, env)
                }
                (Op::Or, false) => {
                    refine(ctx, args[0], false, env) && refine(ctx, args[1], false, env)
                }
                (Op::Eq, true) => refine_eq(ctx, args[0], args[1], env),
                (Op::Eq, false) => refine_ne(ctx, args[0], args[1], env),
                (Op::BvUlt, true) => refine_cmp(ctx, args[0], args[1], true, env),
                (Op::BvUle, true) => refine_cmp(ctx, args[0], args[1], false, env),
                (Op::BvUlt, false) => refine_cmp(ctx, args[1], args[0], false, env),
                (Op::BvUle, false) => refine_cmp(ctx, args[1], args[0], true, env),
                _ => true,
            }
        }
        _ => true,
    }
}

/// Meets the binding of `var` with `v`; false means the meet is empty.
fn bind_meet(env: &mut AbsEnv, var: ExprRef, v: AbsValue) -> bool {
    let cur = match env.get(var) {
        Some(c) => c.meet(&v),
        None => v,
    };
    let live = !cur.is_bottom();
    env.bind(var, cur);
    live
}

/// Handles `a == b` where one side is a variable and the other is a
/// singleton under the current environment.
fn refine_eq(ctx: &ExprCtx, a: ExprRef, b: ExprRef, env: &mut AbsEnv) -> bool {
    for (var, other) in [(a, b), (b, a)] {
        if !matches!(ctx.node(var), ExprNode::Var { .. }) {
            continue;
        }
        if let Some(value) = abs_eval(ctx, other, env).as_exact() {
            return bind_meet(env, var, AbsValue::from_value(&value));
        }
    }
    true
}

/// Handles `a != b` where one side is a variable and the other is a
/// singleton: an interval can only exclude an *endpoint*, so the bound
/// is clipped when the constant sits exactly on it. This is what makes
/// wrap-around counters (`ite(s == MAX, 0, s + 1)`) converge.
fn refine_ne(ctx: &ExprCtx, a: ExprRef, b: ExprRef, env: &mut AbsEnv) -> bool {
    for (var, other) in [(a, b), (b, a)] {
        if !matches!(ctx.node(var), ExprNode::Var { .. }) {
            continue;
        }
        let Some(value) = abs_eval(ctx, other, env).as_exact() else {
            continue;
        };
        match (env.get(var).cloned(), value) {
            (Some(AbsValue::Bool(_)), Value::Bool(c)) => {
                return bind_meet(env, var, AbsValue::Bool(AbsBool::from_bool(!c)));
            }
            (Some(AbsValue::Bv(cur)), Value::Bv(c)) => {
                if cur.is_bottom() {
                    return false;
                }
                if cur.as_const() == Some(&c) {
                    return false; // v is exactly c: v != c is refuted
                }
                let one = BitVecValue::one(c.width());
                if cur.lo() == &c {
                    let lo = c.add(&one);
                    return bind_meet(
                        env,
                        var,
                        AbsValue::Bv(AbsBv::from_range(&lo, cur.hi())),
                    );
                }
                if cur.hi() == &c {
                    let hi = c.sub(&one);
                    return bind_meet(
                        env,
                        var,
                        AbsValue::Bv(AbsBv::from_range(cur.lo(), &hi)),
                    );
                }
                return true;
            }
            _ => return true,
        }
    }
    true
}

/// Handles `a < b` (strict) / `a <= b` by clamping whichever side is a
/// bit-vector variable against the other side's interval.
fn refine_cmp(ctx: &ExprCtx, a: ExprRef, b: ExprRef, strict: bool, env: &mut AbsEnv) -> bool {
    let bv_of = |v: &AbsValue| match v {
        AbsValue::Bv(bv) => Some(bv.clone()),
        _ => None,
    };
    // Upper-bound `a` by b.hi (minus one if strict).
    if matches!(ctx.node(a), ExprNode::Var { .. }) {
        if let Some(vb) = bv_of(&abs_eval(ctx, b, env)) {
            if !vb.is_bottom() {
                let mut hi = vb.hi().clone();
                if strict {
                    if hi.is_zero() {
                        return false; // a < 0 is unsatisfiable
                    }
                    hi = hi.sub(&BitVecValue::one(hi.width()));
                }
                let clamp = AbsValue::Bv(AbsBv::from_range(&BitVecValue::zero(hi.width()), &hi));
                if !bind_meet(env, a, clamp) {
                    return false;
                }
            }
        }
    }
    // Lower-bound `b` by a.lo (plus one if strict).
    if matches!(ctx.node(b), ExprNode::Var { .. }) {
        if let Some(va) = bv_of(&abs_eval(ctx, a, env)) {
            if !va.is_bottom() {
                let mut lo = va.lo().clone();
                if strict {
                    if lo.is_ones() {
                        return false; // ones < b is unsatisfiable
                    }
                    lo = lo.add(&BitVecValue::one(lo.width()));
                }
                let clamp =
                    AbsValue::Bv(AbsBv::from_range(&lo, &BitVecValue::ones(lo.width())));
                if !bind_meet(env, b, clamp) {
                    return false;
                }
            }
        }
    }
    true
}

/// A decision layer for a port's decode conditions, shared by the
/// GL001/GL002/GL003 fast paths. All questions are answered over the
/// *unconstrained* state space (any state, any command), exactly like
/// the SAT-backed checks in `gila-core::check`, so a decided answer is
/// interchangeable with the solver's.
pub struct DecodeOracle<'a> {
    port: &'a PortIla,
    /// Representative concrete environments for cheap SAT probes.
    probes: Vec<Env>,
    /// Support variables of all decodes, if enumerable (no memories).
    enum_vars: Option<Vec<(ExprRef, Sort)>>,
    /// Total bits across `enum_vars`.
    enum_bits: u32,
}

impl<'a> DecodeOracle<'a> {
    /// Builds the oracle for one port.
    pub fn new(port: &'a PortIla) -> DecodeOracle<'a> {
        let probes = build_probes(port);
        let ctx = port.ctx();
        let roots: Vec<ExprRef> = port.instructions().iter().map(|i| i.decode).collect();
        let mut vars: Vec<(ExprRef, Sort)> = Vec::new();
        let mut bits = 0u32;
        let mut enumerable = true;
        for e in ctx.post_order(&roots) {
            if let ExprNode::Var { sort, .. } = ctx.node(e) {
                match sort {
                    Sort::Bool => bits += 1,
                    Sort::Bv(w) => bits += *w,
                    Sort::Mem { .. } => enumerable = false,
                }
                vars.push((e, *sort));
            }
        }
        let enum_vars = (enumerable && bits <= ENUM_BITS).then_some(vars);
        DecodeOracle {
            port,
            probes,
            enum_vars,
            enum_bits: bits,
        }
    }

    /// Is instruction `idx`'s decode satisfiable? `None` = unknown.
    pub fn decode_satisfiable(&self, idx: usize) -> Option<bool> {
        let ctx = self.port.ctx();
        let decode = self.port.instructions()[idx].decode;
        match abs_eval(ctx, decode, &AbsEnv::new()) {
            AbsValue::Bool(AbsBool::True) => return Some(true),
            AbsValue::Bool(AbsBool::False) | AbsValue::Bool(AbsBool::Bot) => return Some(false),
            _ => {}
        }
        if assume(ctx, decode, &AbsEnv::new()).is_none() {
            return Some(false);
        }
        for probe in &self.probes {
            if let Ok(Value::Bool(true)) = eval(ctx, decode, probe) {
                return Some(true);
            }
        }
        // Satisfiability is existential: decode is satisfiable iff it
        // is NOT false under every assignment.
        self.enumerate(|env| !matches!(eval(ctx, decode, env), Ok(Value::Bool(true))))
            .map(|all_false| !all_false)
    }

    /// Are the decodes of `i` and `j` disjoint (no common command)?
    /// `None` = unknown.
    pub fn pair_disjoint(&self, i: usize, j: usize) -> Option<bool> {
        let ctx = self.port.ctx();
        let (di, dj) = (
            self.port.instructions()[i].decode,
            self.port.instructions()[j].decode,
        );
        // Condition on one decode and evaluate the other under it.
        match assume(ctx, di, &AbsEnv::new()) {
            None => return Some(true), // d_i unsatisfiable: vacuously disjoint
            Some(env) => {
                if matches!(
                    abs_eval(ctx, dj, &env),
                    AbsValue::Bool(AbsBool::False) | AbsValue::Bool(AbsBool::Bot)
                ) {
                    return Some(true);
                }
            }
        }
        for probe in &self.probes {
            if let (Ok(Value::Bool(true)), Ok(Value::Bool(true))) =
                (eval(ctx, di, probe), eval(ctx, dj, probe))
            {
                return Some(false);
            }
        }
        self.enumerate(|env| {
            !(matches!(eval(ctx, di, env), Ok(Value::Bool(true)))
                && matches!(eval(ctx, dj, env), Ok(Value::Bool(true))))
        })
    }

    /// Does some instruction trigger on every command (no decode gap)?
    /// `None` = unknown.
    pub fn no_gap(&self) -> Option<bool> {
        let ctx = self.port.ctx();
        let top = AbsEnv::new();
        for instr in self.port.instructions() {
            if abs_eval(ctx, instr.decode, &top) == AbsValue::Bool(AbsBool::True) {
                return Some(true); // one decode is a tautology
            }
        }
        self.enumerate(|env| {
            self.port
                .instructions()
                .iter()
                .any(|i| matches!(eval(ctx, i.decode, env), Ok(Value::Bool(true))))
        })
    }

    /// Checks `pred` on every assignment of the support variables;
    /// `Some(true)` iff it holds universally. `None` when the support
    /// exceeds the enumeration budget.
    fn enumerate<F: Fn(&Env) -> bool>(&self, pred: F) -> Option<bool> {
        let vars = self.enum_vars.as_ref()?;
        let total = 1u64 << self.enum_bits;
        let mut env = Env::new();
        for pattern in 0..total {
            let mut cursor = pattern;
            for (var, sort) in vars {
                match sort {
                    Sort::Bool => {
                        env.bind(*var, cursor & 1 == 1);
                        cursor >>= 1;
                    }
                    Sort::Bv(w) => {
                        // Widths here are bounded by ENUM_BITS (< 64).
                        let mask = (1u64 << w) - 1;
                        env.bind(*var, BitVecValue::from_u64(cursor & mask, *w));
                        cursor >>= w;
                    }
                    Sort::Mem { .. } => unreachable!("memories disable enumeration"),
                }
            }
            if !pred(&env) {
                return Some(false);
            }
        }
        Some(true)
    }
}

/// Representative concrete environments: all-zeros, all-ones, and the
/// reset state with zeroed inputs.
fn build_probes(port: &PortIla) -> Vec<Env> {
    let mut probes = Vec::new();
    for kind in 0..3u8 {
        let mut env = Env::new();
        for i in port.inputs() {
            env.bind(i.var, probe_value(&i.sort, kind == 1));
        }
        for s in port.states() {
            let v = match (kind, &s.init) {
                (2, Some(init)) => init.clone(),
                _ => probe_value(&s.sort, kind == 1),
            };
            env.bind(s.var, v);
        }
        probes.push(env);
    }
    probes
}

fn probe_value(sort: &Sort, ones: bool) -> Value {
    match sort {
        Sort::Bool => Value::Bool(ones),
        Sort::Bv(w) => Value::Bv(if ones {
            BitVecValue::ones(*w)
        } else {
            BitVecValue::zero(*w)
        }),
        Sort::Mem {
            addr_width,
            data_width,
        } => Value::Mem(if ones {
            MemValue::filled(*addr_width, *data_width, BitVecValue::ones(*data_width))
        } else {
            MemValue::zeroed(*addr_width, *data_width)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::StateKind;

    fn two_instr_port() -> PortIla {
        let mut p = PortIla::new("p");
        let cmd = p.input("cmd", Sort::Bv(2));
        let _out = p.state("out", Sort::Bv(4), StateKind::Output);
        let c = p.ctx_mut();
        let d0 = c.eq_u64(cmd, 0);
        let one = c.bv_u64(1, 2);
        let d1 = c.ne(cmd, one);
        let never = c.ff();
        p.instr("a").decode(d0).add().unwrap();
        p.instr("b").decode(d1).add().unwrap();
        p.instr("dead").decode(never).add().unwrap();
        p
    }

    #[test]
    fn oracle_decides_dead_and_satisfiable() {
        let p = two_instr_port();
        let oracle = DecodeOracle::new(&p);
        assert_eq!(oracle.decode_satisfiable(0), Some(true));
        assert_eq!(oracle.decode_satisfiable(1), Some(true));
        assert_eq!(oracle.decode_satisfiable(2), Some(false));
    }

    /// A decode no probe hits (neither all-zeros, all-ones, nor reset)
    /// must still be decided *satisfiable* by enumeration — the
    /// existential direction, which a universal check would get wrong.
    #[test]
    fn oracle_enumeration_is_existential_for_satisfiability() {
        let mut p = PortIla::new("p");
        let cmd = p.input("cmd", Sort::Bv(3));
        let c = p.ctx_mut();
        let d = c.eq_u64(cmd, 5);
        p.instr("probe_miss").decode(d).add().unwrap();
        let oracle = DecodeOracle::new(&p);
        assert_eq!(oracle.decode_satisfiable(0), Some(true));
    }

    #[test]
    fn oracle_decides_overlap_exactly_when_enumerable() {
        let p = two_instr_port();
        let oracle = DecodeOracle::new(&p);
        assert!(oracle.enum_vars.is_some());
        // cmd == 0 also satisfies cmd != 1: the pair overlaps.
        assert_eq!(oracle.pair_disjoint(0, 1), Some(false));
        // The dead decode is vacuously disjoint from everything.
        assert_eq!(oracle.pair_disjoint(0, 2), Some(true));
    }

    #[test]
    fn oracle_decides_gap_exactly_when_enumerable() {
        let p = two_instr_port();
        let oracle = DecodeOracle::new(&p);
        // cmd == 1 triggers neither `a` (0) nor `b` (!= 1): gap exists.
        assert_eq!(oracle.no_gap(), Some(false));
    }

    #[test]
    fn assume_refutes_and_refines() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let five = ctx.bv_u64(5, 8);
        let cond = ctx.eq(x, five);
        let env = assume(&ctx, cond, &AbsEnv::new()).expect("satisfiable");
        match env.get(x) {
            Some(AbsValue::Bv(bv)) => {
                assert_eq!(bv.as_const(), Some(&BitVecValue::from_u64(5, 8)))
            }
            other => panic!("expected refined bv, got {other:?}"),
        }
        // x == 5 && x == 6 is refuted through the conjunction walk.
        let six = ctx.bv_u64(6, 8);
        let c2 = ctx.eq(x, six);
        let both = ctx.and(cond, c2);
        assert!(assume(&ctx, both, &AbsEnv::new()).is_none());
    }
}
