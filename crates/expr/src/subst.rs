//! Substitution, renaming, and cross-context import of expression DAGs.

use std::collections::HashMap;

use crate::ctx::{ExprCtx, ExprNode, ExprRef};

/// Rewrites `root`, replacing every occurrence of a key of `map` with its
/// value. Keys are typically variables, but any sub-expression handle works.
///
/// The replacement must have the same sort as the replaced expression
/// (enforced when the surrounding applications are rebuilt).
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use gila_expr::{substitute, ExprCtx, Sort};
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let one = ctx.bv_u64(1, 8);
/// let e = ctx.bvadd(x, one);
/// let y = ctx.var("y", Sort::Bv(8));
/// let map = HashMap::from([(x, y)]);
/// let e2 = substitute(&mut ctx, e, &map);
/// let expected = ctx.bvadd(y, one);
/// assert_eq!(e2, expected);
/// ```
///
/// # Panics
///
/// Panics if a substitution makes an application ill-sorted.
pub fn substitute(ctx: &mut ExprCtx, root: ExprRef, map: &HashMap<ExprRef, ExprRef>) -> ExprRef {
    let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
    substitute_cached(ctx, root, map, &mut memo)
}

/// Like [`substitute`], but reuses a memo table across calls so that many
/// roots sharing structure are rewritten once.
///
/// The walk stops at memoized sub-expressions, so a root that is already
/// in `memo` costs one lookup, and a call rewrites only what no earlier
/// call with the same `memo` reached. The memo must only ever have been
/// filled by calls with this same `map`. Skipping a memoized part moves
/// no result and no node's creation order: its rewrite exists already.
pub fn substitute_cached(
    ctx: &mut ExprCtx,
    root: ExprRef,
    map: &HashMap<ExprRef, ExprRef>,
    memo: &mut HashMap<ExprRef, ExprRef>,
) -> ExprRef {
    if let Some(&r) = memo.get(&root) {
        return r;
    }
    // The walk of `ExprCtx::post_order`, with memoized nodes standing for
    // finished ones, so nodes are rewritten (and created) in its order.
    // An entry `(e, true)` has had its children pushed; it is rewritten
    // when it is back on top, once they are all memoized.
    let mut stack = vec![(root, false)];
    while let Some(&(e, expanded)) = stack.last() {
        if memo.contains_key(&e) {
            stack.pop();
            continue;
        }
        if !expanded {
            stack.last_mut().expect("non-empty").1 = true;
            for &a in ctx.args(e) {
                if !memo.contains_key(&a) {
                    stack.push((a, false));
                }
            }
            continue;
        }
        stack.pop();
        let out = if let Some(&r) = map.get(&e) {
            r
        } else {
            match ctx.node(e).clone() {
                ExprNode::App { op, args, .. } => {
                    let new_args: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                    if new_args == args {
                        e
                    } else {
                        ctx.app(op, new_args)
                    }
                }
                _ => e,
            }
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// Imports an expression from another context into `dst`, returning the
/// corresponding handle in `dst`. Variables are imported by name (so a
/// variable named `"x"` in `src` maps to the variable named `"x"` in
/// `dst`, created if absent).
///
/// `memo` caches translations of `src` handles and may be reused across
/// calls with the same `src`/`dst` pair.
///
/// # Panics
///
/// Panics if `dst` already has a same-named variable of a different sort.
pub fn import(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    memo: &mut HashMap<ExprRef, ExprRef>,
) -> ExprRef {
    let order = src.post_order(&[root]);
    for e in order {
        if memo.contains_key(&e) {
            continue;
        }
        let out = match src.node(e) {
            ExprNode::BoolConst(b) => dst.bool_const(*b),
            ExprNode::BvConst(v) => dst.bv(v.clone()),
            ExprNode::MemConst(m) => dst.mem_const(m.clone()),
            ExprNode::Var { name, sort } => dst.var(name.clone(), *sort),
            ExprNode::App { op, args, .. } => {
                let new_args: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                dst.app(*op, new_args)
            }
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// Imports an expression while renaming variables: each variable named `n`
/// in `src` becomes a variable named `rename(n)` in `dst`.
///
/// Useful for unrolling transition systems (`x` at step `k` becomes
/// `x@k`) and for building product models without name clashes.
pub fn import_renamed(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    rename: &dyn Fn(&str) -> String,
    memo: &mut HashMap<ExprRef, ExprRef>,
) -> ExprRef {
    let order = src.post_order(&[root]);
    for e in order {
        if memo.contains_key(&e) {
            continue;
        }
        let out = match src.node(e) {
            ExprNode::BoolConst(b) => dst.bool_const(*b),
            ExprNode::BvConst(v) => dst.bv(v.clone()),
            ExprNode::MemConst(m) => dst.mem_const(m.clone()),
            ExprNode::Var { name, sort } => dst.var(rename(name), *sort),
            ExprNode::App { op, args, .. } => {
                let new_args: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                dst.app(*op, new_args)
            }
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// Imports an expression from `src` into `dst` while *replacing its
/// variables*: every variable of `src` reachable from `root` must appear
/// in `var_map`, mapping it to an arbitrary `dst` expression of the same
/// sort.
///
/// This is the primitive the refinement-check engine uses to graft ILA
/// decode and next-state functions onto RTL unrolling frames.
///
/// # Errors
///
/// Returns the name of the first unmapped variable.
///
/// # Panics
///
/// Panics if a mapped expression's sort mismatches (the rebuilt
/// application will fail sort checking).
pub fn import_mapped(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    var_map: &HashMap<ExprRef, ExprRef>,
    memo: &mut HashMap<ExprRef, ExprRef>,
) -> Result<ExprRef, String> {
    let order = src.post_order(&[root]);
    for e in order {
        if memo.contains_key(&e) {
            continue;
        }
        let out = match src.node(e) {
            ExprNode::BoolConst(b) => dst.bool_const(*b),
            ExprNode::BvConst(v) => dst.bv(v.clone()),
            ExprNode::MemConst(m) => dst.mem_const(m.clone()),
            ExprNode::Var { name, .. } => match var_map.get(&e) {
                Some(&r) => r,
                None => return Err(name.clone()),
            },
            ExprNode::App { op, args, .. } => {
                let new_args: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                dst.app(*op, new_args)
            }
        };
        memo.insert(e, out);
    }
    Ok(memo[&root])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, Env, Sort};

    #[test]
    fn substitute_replaces_all_occurrences() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let e0 = ctx.bvadd(x, x);
        let e = ctx.bvmul(e0, x);
        let c = ctx.bv_u64(3, 8);
        let map = HashMap::from([(x, c)]);
        let r = substitute(&mut ctx, e, &map);
        // (3+3)*3 = 18, fully folded
        assert_eq!(ctx.as_bv_const(r).unwrap().to_u64(), 18);
    }

    #[test]
    fn substitute_is_untouched_without_matches() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let e = ctx.bvadd(x, y);
        let z = ctx.var("z", Sort::Bv(8));
        let w = ctx.var("w", Sort::Bv(8));
        let map = HashMap::from([(z, w)]);
        assert_eq!(substitute(&mut ctx, e, &map), e);
    }

    #[test]
    fn import_by_name() {
        let mut src = ExprCtx::new();
        let x = src.var("x", Sort::Bv(8));
        let one = src.bv_u64(1, 8);
        let e = src.bvadd(x, one);

        let mut dst = ExprCtx::new();
        // Pre-create "x" in dst; import must reuse it.
        let dx = dst.var("x", Sort::Bv(8));
        let mut memo = HashMap::new();
        let de = import(&mut dst, &src, e, &mut memo);
        let mut env = Env::new();
        env.bind_u64(&dst, "x", 9);
        assert_eq!(eval(&dst, de, &env).unwrap().as_bv().to_u64(), 10);
        assert!(dst.vars_of(&[de]).contains(&dx));
    }

    #[test]
    fn import_mapped_replaces_vars() {
        let mut src = ExprCtx::new();
        let x = src.var("x", Sort::Bv(8));
        let one = src.bv_u64(1, 8);
        let e = src.bvadd(x, one);
        let mut dst = ExprCtx::new();
        let a = dst.var("a", Sort::Bv(8));
        let b = dst.var("b", Sort::Bv(8));
        let ab = dst.bvmul(a, b);
        let map = HashMap::from([(x, ab)]);
        let mut memo = HashMap::new();
        let de = import_mapped(&mut dst, &src, e, &map, &mut memo).unwrap();
        let mut env = Env::new();
        env.bind_u64(&dst, "a", 3);
        env.bind_u64(&dst, "b", 4);
        assert_eq!(eval(&dst, de, &env).unwrap().as_bv().to_u64(), 13);
        // Unmapped variable is an error.
        let y = src.var("y", Sort::Bv(8));
        let e2 = src.bvadd(e, y);
        let mut memo = HashMap::new();
        assert_eq!(
            import_mapped(&mut dst, &src, e2, &map, &mut memo).unwrap_err(),
            "y"
        );
    }

    #[test]
    fn import_renamed_prefixes() {
        let mut src = ExprCtx::new();
        let x = src.var("x", Sort::Bv(8));
        let e = src.bvadd(x, x);
        let mut dst = ExprCtx::new();
        let mut memo = HashMap::new();
        let de = import_renamed(&mut dst, &src, e, &|n| format!("rtl.{n}"), &mut memo);
        let vars = dst.vars_of(&[de]);
        assert_eq!(vars.len(), 1);
        assert_eq!(dst.var_name(vars[0]), Some("rtl.x"));
    }
}
