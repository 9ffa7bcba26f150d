//! Test oracle: the eager memory encoding, one word per address.
//!
//! [`expand`] rewrites a formula into an equivalent memory-free one —
//! every memory becomes `2^addr_width` words, a read a mux over all of
//! them, a write a per-word compare-and-select, an equality the
//! conjunction of word equalities — so blasting it never touches the
//! array encoding under test.

use std::collections::HashMap;

use gila_expr::{BitVecValue, ExprCtx, ExprNode, ExprRef, MemValue, Op, Sort};

/// The word variable standing for address `addr` of memory variable `name`.
fn word_var(ctx: &mut ExprCtx, name: &str, addr: u64, data_width: u32) -> ExprRef {
    ctx.var(format!("{name}@{addr}"), Sort::Bv(data_width))
}

/// Rewrites `root` into an equivalent expression without memories.
pub(super) fn expand(ctx: &mut ExprCtx, root: ExprRef) -> ExprRef {
    let mut scalar: HashMap<ExprRef, ExprRef> = HashMap::new();
    let mut words: HashMap<ExprRef, Vec<ExprRef>> = HashMap::new();
    for e in ctx.post_order(&[root]) {
        let node = ctx.node(e).clone();
        if let Sort::Mem {
            addr_width,
            data_width,
        } = ctx.sort_of(e)
        {
            let n = 1u64 << addr_width;
            let ws: Vec<ExprRef> = match node {
                ExprNode::Var { name, .. } => (0..n)
                    .map(|a| word_var(ctx, &name, a, data_width))
                    .collect(),
                ExprNode::MemConst(v) => (0..n).map(|a| const_word(ctx, &v, a)).collect(),
                ExprNode::App {
                    op: Op::MemWrite,
                    args,
                    ..
                } => {
                    let (addr, data) = (scalar[&args[1]], scalar[&args[2]]);
                    let old = words[&args[0]].clone();
                    (0..n)
                        .map(|a| {
                            let hit = ctx.eq_u64(addr, a);
                            ctx.ite(hit, data, old[a as usize])
                        })
                        .collect()
                }
                ExprNode::App {
                    op: Op::Ite, args, ..
                } => {
                    let c = scalar[&args[0]];
                    let (t, f) = (words[&args[1]].clone(), words[&args[2]].clone());
                    t.iter().zip(&f).map(|(&t, &f)| ctx.ite(c, t, f)).collect()
                }
                other => panic!("unexpected memory node {other:?}"),
            };
            words.insert(e, ws);
            continue;
        }
        let out = match node {
            ExprNode::App {
                op: Op::MemRead,
                args,
                ..
            } => {
                let ws = words[&args[0]].clone();
                let addr = scalar[&args[1]];
                let mut r = ws[0];
                for (a, &w) in ws.iter().enumerate().skip(1) {
                    let hit = ctx.eq_u64(addr, a as u64);
                    r = ctx.ite(hit, w, r);
                }
                r
            }
            ExprNode::App {
                op: Op::Eq, args, ..
            } if words.contains_key(&args[0]) => {
                let (a, b) = (words[&args[0]].clone(), words[&args[1]].clone());
                let eqs: Vec<ExprRef> = a.iter().zip(&b).map(|(&x, &y)| ctx.eq(x, y)).collect();
                ctx.and_many(&eqs)
            }
            ExprNode::App { op, args, .. } => {
                let args = args.iter().map(|a| scalar[a]).collect();
                ctx.app(op, args)
            }
            _ => e,
        };
        scalar.insert(e, out);
    }
    scalar[&root]
}

fn const_word(ctx: &mut ExprCtx, v: &MemValue, addr: u64) -> ExprRef {
    let word = v.read(&BitVecValue::from_u64(addr, v.addr_width()));
    ctx.bv(word)
}
