//! Concrete evaluation of expressions under a variable assignment.

use std::collections::HashMap;
use std::fmt;

use crate::ctx::{ExprCtx, ExprNode, ExprRef, Op};
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
    bindings: HashMap<ExprRef, Value>,
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
    let order = ctx.post_order(&[root]);
    let mut memo: HashMap<ExprRef, Value> = HashMap::with_capacity(order.len());
    for e in order {
        let value = match ctx.node(e) {
            ExprNode::BoolConst(b) => Value::Bool(*b),
            ExprNode::BvConst(v) => Value::Bv(v.clone()),
            ExprNode::MemConst(m) => Value::Mem(m.clone()),
            ExprNode::Var { name, .. } => match env.get(e) {
                Some(v) => v.clone(),
                None => {
                    return Err(EvalError::UnboundVar {
                        name: name.clone(),
                    })
                }
            },
            ExprNode::App { op, args, .. } => {
                let a = |i: usize| &memo[&args[i]];
                apply(*op, &(0..args.len()).map(a).collect::<Vec<_>>())
            }
        };
        memo.insert(e, value);
    }
    Ok(memo.remove(&root).expect("root evaluated"))
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
mod tests {
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
}
