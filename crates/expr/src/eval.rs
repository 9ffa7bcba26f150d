//! Concrete evaluation of expressions under a variable assignment.

use std::fmt;

use crate::ctx::{ExprCtx, ExprNode, ExprRef, Op};
use crate::hash::ExprMap;
use crate::value::{BitVecValue, Value};

/// A variable assignment for evaluation.
///
/// # Examples
///
/// ```
/// use gila_expr::{eval, Env, ExprCtx, Sort, Value};
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let one = ctx.bv_u64(1, 8);
/// let e = ctx.bvadd(x, one);
/// let mut env = Env::new();
/// env.bind_u64(&ctx, "x", 41);
/// assert_eq!(eval(&ctx, e, &env).unwrap().as_bv().to_u64(), 42);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Env {
    bindings: ExprMap<Value>,
}

impl Env {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a variable handle to a value.
    pub fn bind(&mut self, var: ExprRef, value: impl Into<Value>) {
        self.bindings.insert(var, value.into());
    }

    /// Binds a variable by name to a bit-vector value of the variable's width.
    ///
    /// # Panics
    ///
    /// Panics if no variable with that name exists in `ctx` or it is not a
    /// bit-vector variable.
    pub fn bind_u64(&mut self, ctx: &ExprCtx, name: &str, value: u64) {
        let var = ctx
            .find_var(name)
            .unwrap_or_else(|| panic!("unknown variable {name:?}"));
        let width = ctx
            .sort_of(var)
            .bv_width()
            .unwrap_or_else(|| panic!("variable {name:?} is not a bit-vector"));
        self.bind(var, BitVecValue::from_u64(value, width));
    }

    /// Binds a boolean variable by name.
    ///
    /// # Panics
    ///
    /// Panics if no variable with that name exists in `ctx`.
    pub fn bind_bool(&mut self, ctx: &ExprCtx, name: &str, value: bool) {
        let var = ctx
            .find_var(name)
            .unwrap_or_else(|| panic!("unknown variable {name:?}"));
        self.bind(var, value);
    }

    /// Looks up the value of a variable.
    pub fn get(&self, var: ExprRef) -> Option<&Value> {
        self.bindings.get(&var)
    }

    /// Iterates over all bindings.
    pub fn iter(&self) -> impl Iterator<Item = (ExprRef, &Value)> {
        self.bindings.iter().map(|(k, v)| (*k, v))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl FromIterator<(ExprRef, Value)> for Env {
    fn from_iter<I: IntoIterator<Item = (ExprRef, Value)>>(iter: I) -> Self {
        Env {
            bindings: iter.into_iter().collect(),
        }
    }
}

impl Extend<(ExprRef, Value)> for Env {
    fn extend<I: IntoIterator<Item = (ExprRef, Value)>>(&mut self, iter: I) {
        self.bindings.extend(iter);
    }
}

/// An error during evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable was not bound in the environment.
    UnboundVar {
        /// The variable's name.
        name: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar { name } => write!(f, "unbound variable {name:?}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `root` under `env`.
///
/// Evaluation is iterative over the DAG, so arbitrarily deep expressions
/// are handled without stack overflow. Shared sub-expressions are
/// evaluated once.
///
/// # Errors
///
/// Returns [`EvalError::UnboundVar`] if a reachable variable has no
/// binding in `env`.
pub fn eval(ctx: &ExprCtx, root: ExprRef, env: &Env) -> Result<Value, EvalError> {
    let mut memo = eval_nodes(ctx, &[root], |e, name| {
        env.get(e).cloned().ok_or_else(|| EvalError::UnboundVar {
            name: name.to_string(),
        })
    })?;
    Ok(memo.remove(&root).expect("root evaluated"))
}

/// Evaluates every root in one pass over their shared DAG: a
/// sub-expression reachable from several roots is evaluated once.
/// `value_of` gives a variable's value; a variable it leaves unbound
/// reads as [`Value::zero`] of its sort. Returns one value per root, in
/// order.
///
/// # Examples
///
/// ```
/// use gila_expr::{eval_all, BitVecValue, ExprCtx, Sort, Value};
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let y = ctx.var("y", Sort::Bv(8));
/// let s = ctx.bvadd(x, y);
/// let d = ctx.bvadd(s, s);
/// let values = eval_all(&ctx, &[s, d], |v| {
///     (v == x).then(|| Value::Bv(BitVecValue::from_u64(7, 8)))
/// });
/// // y is unbound and reads as zero.
/// assert_eq!(values[0].as_bv().to_u64(), 7);
/// assert_eq!(values[1].as_bv().to_u64(), 14);
/// ```
pub fn eval_all(
    ctx: &ExprCtx,
    roots: &[ExprRef],
    value_of: impl Fn(ExprRef) -> Option<Value>,
) -> Vec<Value> {
    let memo = eval_nodes(ctx, roots, |e, _| {
        Ok::<_, EvalError>(value_of(e).unwrap_or_else(|| Value::zero(ctx.sort_of(e))))
    })
    .expect("every variable has a value");
    roots.iter().map(|r| memo[r].clone()).collect()
}

/// The value of every node reachable from `roots`; `var` gives each
/// variable's value from its handle and name.
fn eval_nodes(
    ctx: &ExprCtx,
    roots: &[ExprRef],
    mut var: impl FnMut(ExprRef, &str) -> Result<Value, EvalError>,
) -> Result<ExprMap<Value>, EvalError> {
    let order = ctx.post_order(roots);
    let mut memo = ExprMap::with_capacity_and_hasher(order.len(), Default::default());
    for e in order {
        let value = match ctx.node(e) {
            ExprNode::BoolConst(b) => Value::Bool(*b),
            ExprNode::BvConst(v) => Value::Bv(v.clone()),
            ExprNode::MemConst(m) => Value::Mem(m.clone()),
            ExprNode::Var { name, .. } => var(e, name)?,
            ExprNode::App { op, args, .. } => {
                let mut values = [&memo[&args[0]]; 3];
                for (value, a) in values.iter_mut().zip(args) {
                    *value = &memo[a];
                }
                apply(*op, &values[..args.len()])
            }
        };
        memo.insert(e, value);
    }
    Ok(memo)
}

/// Concrete semantics of one operator application. Shared with the
/// compiled tape's generic fallback instruction (`crate::lower`), so the
/// interpreter and the tape agree by construction off the word fast path.
pub(crate) fn apply(op: Op, args: &[&Value]) -> Value {
    use Op::*;
    match op {
        Not => Value::Bool(!args[0].as_bool()),
        And => Value::Bool(args[0].as_bool() && args[1].as_bool()),
        Or => Value::Bool(args[0].as_bool() || args[1].as_bool()),
        Xor => Value::Bool(args[0].as_bool() ^ args[1].as_bool()),
        Implies => Value::Bool(!args[0].as_bool() || args[1].as_bool()),
        Iff => Value::Bool(args[0].as_bool() == args[1].as_bool()),
        Ite => {
            if args[0].as_bool() {
                args[1].clone()
            } else {
                args[2].clone()
            }
        }
        Eq => Value::Bool(match (args[0], args[1]) {
            (Value::Mem(a), Value::Mem(b)) => a.same_contents(b),
            (a, b) => a == b,
        }),
        BvNot => Value::Bv(args[0].as_bv().not()),
        BvNeg => Value::Bv(args[0].as_bv().neg()),
        BvAnd => Value::Bv(args[0].as_bv().and(args[1].as_bv())),
        BvOr => Value::Bv(args[0].as_bv().or(args[1].as_bv())),
        BvXor => Value::Bv(args[0].as_bv().xor(args[1].as_bv())),
        BvAdd => Value::Bv(args[0].as_bv().add(args[1].as_bv())),
        BvSub => Value::Bv(args[0].as_bv().sub(args[1].as_bv())),
        BvMul => Value::Bv(args[0].as_bv().mul(args[1].as_bv())),
        BvUdiv => Value::Bv(args[0].as_bv().udiv(args[1].as_bv())),
        BvUrem => Value::Bv(args[0].as_bv().urem(args[1].as_bv())),
        BvShl => Value::Bv(args[0].as_bv().shl(args[1].as_bv())),
        BvLshr => Value::Bv(args[0].as_bv().lshr(args[1].as_bv())),
        BvAshr => Value::Bv(args[0].as_bv().ashr(args[1].as_bv())),
        BvConcat => Value::Bv(args[0].as_bv().concat(args[1].as_bv())),
        BvExtract { hi, lo } => Value::Bv(args[0].as_bv().extract(hi, lo)),
        BvZext { to } => Value::Bv(args[0].as_bv().zext(to)),
        BvSext { to } => Value::Bv(args[0].as_bv().sext(to)),
        BvUlt => Value::Bool(args[0].as_bv().ult(args[1].as_bv())),
        BvUle => Value::Bool(args[0].as_bv().ule(args[1].as_bv())),
        BvSlt => Value::Bool(args[0].as_bv().slt(args[1].as_bv())),
        BvSle => Value::Bool(args[0].as_bv().sle(args[1].as_bv())),
        MemRead => Value::Bv(args[0].as_mem().read(args[1].as_bv())),
        MemWrite => Value::Mem(args[0].as_mem().write(args[1].as_bv(), args[2].as_bv())),
        BoolToBv => Value::Bv(BitVecValue::from_bool(args[0].as_bool())),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Sort;

    #[test]
    fn eval_arith() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let s = ctx.bvadd(x, y);
        let p = ctx.bvmul(s, x);
        let mut env = Env::new();
        env.bind_u64(&ctx, "x", 3);
        env.bind_u64(&ctx, "y", 4);
        assert_eq!(eval(&ctx, p, &env).unwrap().as_bv().to_u64(), 21);
    }

    #[test]
    fn eval_ite_and_bool() {
        let mut ctx = ExprCtx::new();
        let p = ctx.var("p", Sort::Bool);
        let x = ctx.bv_u64(1, 4);
        let y = ctx.bv_u64(2, 4);
        let e = ctx.ite(p, x, y);
        let mut env = Env::new();
        env.bind_bool(&ctx, "p", true);
        assert_eq!(eval(&ctx, e, &env).unwrap().as_bv().to_u64(), 1);
        env.bind_bool(&ctx, "p", false);
        assert_eq!(eval(&ctx, e, &env).unwrap().as_bv().to_u64(), 2);
    }

    #[test]
    fn eval_memory() {
        let mut ctx = ExprCtx::new();
        let m = ctx.var(
            "m",
            Sort::Mem {
                addr_width: 4,
                data_width: 8,
            },
        );
        let a = ctx.bv_u64(5, 4);
        let d = ctx.bv_u64(0xAB, 8);
        let w = ctx.mem_write(m, a, d);
        let r = ctx.mem_read(w, a);
        let mut env = Env::new();
        env.bind(m, crate::MemValue::zeroed(4, 8));
        assert_eq!(eval(&ctx, r, &env).unwrap().as_bv().to_u64(), 0xAB);
    }

    #[test]
    fn unbound_var_error() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let err = eval(&ctx, x, &Env::new()).unwrap_err();
        assert_eq!(
            err,
            EvalError::UnboundVar {
                name: "x".to_string()
            }
        );
    }

    #[test]
    fn eval_deep_chain_no_overflow() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(32));
        let one = ctx.bv_u64(1, 32);
        let mut e = x;
        for _ in 0..100_000 {
            e = ctx.bvadd(e, one);
        }
        let mut env = Env::new();
        env.bind_u64(&ctx, "x", 0);
        assert_eq!(eval(&ctx, e, &env).unwrap().as_bv().to_u64(), 100_000);
    }

    /// A random DAG over booleans, 8-bit words and 8x8 memories, every
    /// node drawn over earlier ones so subterms are shared, and a random
    /// partial assignment of its variables.
    pub(crate) fn random_dag(seed: u64) -> (ExprCtx, Vec<ExprRef>, Env) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ctx = ExprCtx::new();
        let mem = Sort::Mem {
            addr_width: 3,
            data_width: 8,
        };
        let mut bools = vec![ctx.var("p", Sort::Bool), ctx.var("q", Sort::Bool)];
        let mut bvs = vec![
            ctx.var("x", Sort::Bv(8)),
            ctx.var("y", Sort::Bv(8)),
            ctx.var("z", Sort::Bv(8)),
            ctx.bv_u64(0x5a, 8),
        ];
        let mut mems = vec![ctx.var("m", mem), ctx.var("n", mem)];
        let mut env = Env::new();
        for var in ctx.vars_of(&[bools.clone(), bvs.clone(), mems.clone()].concat()) {
            if rng.gen_bool(0.5) {
                continue; // left unbound: reads as zero
            }
            let value = match ctx.sort_of(var) {
                Sort::Bool => Value::Bool(rng.gen_bool(0.5)),
                Sort::Bv(w) => Value::Bv(BitVecValue::from_u64(rng.gen_range(0..256), w)),
                Sort::Mem { .. } => {
                    let mut m = crate::MemValue::zeroed(3, 8);
                    for a in 0..8 {
                        m.write_word_mut(a, rng.gen_range(0..256));
                    }
                    Value::Mem(m)
                }
            };
            env.bind(var, value);
        }
        let pick =
            |rng: &mut rand::rngs::StdRng, pool: &[ExprRef]| pool[rng.gen_range(0..pool.len())];
        for _ in 0..rng.gen_range(5..40) {
            let (b, v, m) = (
                pick(&mut rng, &bools),
                pick(&mut rng, &bvs),
                pick(&mut rng, &mems),
            );
            let (b2, v2, m2) = (
                pick(&mut rng, &bools),
                pick(&mut rng, &bvs),
                pick(&mut rng, &mems),
            );
            let addr = ctx.extract(v2, 2, 0);
            match rng.gen_range(0..9) {
                0 => bools.push(ctx.and(b, b2)),
                1 => bools.push(ctx.eq(v, v2)),
                2 => bools.push(ctx.eq(m, m2)),
                3 => bvs.push(ctx.bvadd(v, v2)),
                4 => bvs.push(ctx.bvmul(v, v2)),
                5 => bvs.push(ctx.ite(b, v, v2)),
                6 => bvs.push(ctx.mem_read(m, addr)),
                7 => mems.push(ctx.mem_write(m, addr, v)),
                _ => mems.push(ctx.ite(b, m, m2)),
            }
        }
        let all: Vec<ExprRef> = [bools, bvs, mems].concat();
        let roots = (0..rng.gen_range(1..12))
            .map(|_| pick(&mut rng, &all))
            .collect();
        (ctx, roots, env)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// One pass over many roots returns exactly what per-root `eval`
        /// returns once every unbound variable is bound to zero.
        #[test]
        fn eval_all_matches_per_root_eval(seed in proptest::strategy::any::<u64>()) {
            let (ctx, roots, env) = random_dag(seed);
            let got = eval_all(&ctx, &roots, |v| env.get(v).cloned());
            let mut full = env.clone();
            for v in ctx.vars_of(&roots) {
                if env.get(v).is_none() {
                    full.bind(v, Value::zero(ctx.sort_of(v)));
                }
            }
            let want: Vec<Value> = roots.iter().map(|&r| eval(&ctx, r, &full).unwrap()).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
