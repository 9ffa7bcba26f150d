//! Exhaustive operator coverage: every [`gila::expr::Op`] round-trips
//! through every backend — the evaluator, the bit-blaster and the
//! S-expression display — with consistent semantics. Guards against a
//! new operator landing in one backend and not the others.

use gila::expr::{eval, BitVecValue, Env, ExprCtx, ExprRef, MemValue, Op, Sort, Value};
use gila::smt::SmtSolver;

/// Builds one representative application for each operator over fixed
/// variables, returning `(label, expr)` pairs.
fn one_of_each(ctx: &mut ExprCtx) -> Vec<(&'static str, ExprRef)> {
    let p = ctx.var("p", Sort::Bool);
    let q = ctx.var("q", Sort::Bool);
    let x = ctx.var("x", Sort::Bv(8));
    let y = ctx.var("y", Sort::Bv(8));
    let m = ctx.var(
        "m",
        Sort::Mem {
            addr_width: 3,
            data_width: 8,
        },
    );
    let a = ctx.var("a", Sort::Bv(3));
    let mut out = Vec::new();
    macro_rules! one {
        ($label:expr, $e:expr) => {
            out.push(($label, $e));
        };
    }
    one!("Not", ctx.not(p));
    one!("And", ctx.and(p, q));
    one!("Or", ctx.or(p, q));
    one!("Xor", ctx.xor(p, q));
    one!("Implies", ctx.implies(p, q));
    one!("Iff", ctx.iff(p, q));
    one!("IteBool", ctx.ite(p, q, p));
    one!("IteBv", ctx.ite(p, x, y));
    one!("EqBool", ctx.eq(p, q));
    one!("EqBv", ctx.eq(x, y));
    one!("BvNot", ctx.bvnot(x));
    one!("BvNeg", ctx.bvneg(x));
    one!("BvAnd", ctx.bvand(x, y));
    one!("BvOr", ctx.bvor(x, y));
    one!("BvXor", ctx.bvxor(x, y));
    one!("BvAdd", ctx.bvadd(x, y));
    one!("BvSub", ctx.bvsub(x, y));
    one!("BvMul", ctx.bvmul(x, y));
    one!("BvUdiv", ctx.bvudiv(x, y));
    one!("BvUrem", ctx.bvurem(x, y));
    one!("BvShl", ctx.bvshl(x, y));
    one!("BvLshr", ctx.bvlshr(x, y));
    one!("BvAshr", ctx.bvashr(x, y));
    one!("BvConcat", ctx.concat(x, y));
    one!("BvExtract", ctx.extract(x, 5, 2));
    one!("BvZext", ctx.zext(x, 12));
    one!("BvSext", ctx.sext(x, 12));
    one!("BvUlt", ctx.ult(x, y));
    one!("BvUle", ctx.ule(x, y));
    one!("BvSlt", ctx.slt(x, y));
    one!("BvSle", ctx.sle(x, y));
    one!("MemRead", ctx.mem_read(m, a));
    one!("MemWrite", {
        let w = ctx.mem_write(m, a, x);
        ctx.mem_read(w, a)
    });
    one!("BoolToBv", ctx.bool_to_bv(p));
    out
}

fn env_for(ctx: &ExprCtx, seed: u64) -> Env {
    let mut env = Env::new();
    env.bind_bool(ctx, "p", seed & 1 == 1);
    env.bind_bool(ctx, "q", seed & 2 == 2);
    env.bind_u64(ctx, "x", seed.wrapping_mul(0x9E37_79B9) & 0xFF);
    env.bind_u64(ctx, "y", seed.wrapping_mul(0x85EB_CA6B) & 0xFF);
    env.bind_u64(ctx, "a", seed & 0x7);
    let mut m = MemValue::zeroed(3, 8);
    for i in 0..8 {
        m = m.write(
            &BitVecValue::from_u64(i, 3),
            &BitVecValue::from_u64(seed.wrapping_mul(i + 3) & 0xFF, 8),
        );
    }
    env.bind(ctx.find_var("m").expect("declared"), m);
    env
}

#[test]
fn every_operator_evaluates_and_displays() {
    let mut ctx = ExprCtx::new();
    for (label, e) in one_of_each(&mut ctx) {
        let env = env_for(&ctx, 0xDADA);
        let v = eval(&ctx, e, &env).unwrap_or_else(|err| panic!("{label}: eval failed: {err}"));
        let _ = v;
        let disp = ctx.display(e).to_string();
        assert!(!disp.is_empty(), "{label}: empty display");
    }
}

#[test]
fn every_operator_blasts_consistently_with_eval() {
    // Pin all variables to concrete values via assertions; the blasted
    // expression must equal the evaluator's verdict (asserting the
    // negation is UNSAT).
    for seed in [1u64, 7, 42, 255, 0xBEEF] {
        let mut ctx = ExprCtx::new();
        let items = one_of_each(&mut ctx);
        let env = env_for(&ctx, seed);
        // Build the pinning constraints.
        let mut pins: Vec<ExprRef> = Vec::new();
        for (var, value) in env.iter() {
            let c = match value {
                Value::Bool(b) => {
                    let bc = ctx.bool_const(*b);
                    ctx.eq(var, bc)
                }
                Value::Bv(v) => {
                    let vc = ctx.bv(v.clone());
                    ctx.eq(var, vc)
                }
                Value::Mem(m) => {
                    let mc = ctx.mem_const(m.clone());
                    ctx.eq(var, mc)
                }
            };
            pins.push(c);
        }
        for (label, e) in items {
            let expected = eval(&ctx, e, &env).expect("bound");
            let expected_expr = match &expected {
                Value::Bool(b) => ctx.bool_const(*b),
                Value::Bv(v) => ctx.bv(v.clone()),
                Value::Mem(m) => ctx.mem_const(m.clone()),
            };
            let ne = ctx.ne(e, expected_expr);
            let mut smt = SmtSolver::new();
            for &p in &pins {
                smt.assert(&ctx, p);
            }
            smt.assert(&ctx, ne);
            assert!(
                !smt.check().is_sat(),
                "{label} (seed {seed}): blaster disagrees with evaluator"
            );
        }
    }
}

#[test]
fn op_debug_strings_are_unique() {
    // The Op enum drives matchers in four backends; a renamed or merged
    // variant would silently alias — catch it via Debug uniqueness.
    let ops = [
        Op::Not,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Implies,
        Op::Iff,
        Op::Ite,
        Op::Eq,
        Op::BvNot,
        Op::BvNeg,
        Op::BvAnd,
        Op::BvOr,
        Op::BvXor,
        Op::BvAdd,
        Op::BvSub,
        Op::BvMul,
        Op::BvUdiv,
        Op::BvUrem,
        Op::BvShl,
        Op::BvLshr,
        Op::BvAshr,
        Op::BvConcat,
        Op::BvExtract { hi: 1, lo: 0 },
        Op::BvZext { to: 2 },
        Op::BvSext { to: 2 },
        Op::BvUlt,
        Op::BvUle,
        Op::BvSlt,
        Op::BvSle,
        Op::MemRead,
        Op::MemWrite,
        Op::BoolToBv,
    ];
    let mut seen = std::collections::HashSet::new();
    for op in ops {
        assert!(seen.insert(format!("{op:?}")), "duplicate debug for {op:?}");
    }
}
