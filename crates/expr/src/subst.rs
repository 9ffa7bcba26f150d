//! Substitution and cross-context import of expression DAGs.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use crate::ctx::{ExprCtx, ExprNode, ExprRef, Op};
use crate::hash::ExprMap;
use crate::sort::Sort;

/// Rewrites `root`, replacing every occurrence of a key of `map` with its
/// value. Keys are typically variables, but any sub-expression handle
/// works. `memo` may be reused across calls, so that many roots sharing
/// structure are rewritten once.
///
/// The walk stops at memoized sub-expressions, so a root that is already
/// in `memo` costs one lookup, and a call rewrites only what no earlier
/// call with the same `memo` reached. The memo must only ever have been
/// filled by calls with this same `map`. Skipping a memoized part moves
/// no result and no node's creation order: its rewrite exists already.
/// A node is read in place, and a new argument list is built only for
/// an application some argument of which changed.
///
/// The replacement must have the same sort as the replaced expression
/// (enforced when the surrounding applications are rebuilt).
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use gila_expr::{substitute_cached, ExprCtx, Sort};
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let one = ctx.bv_u64(1, 8);
/// let e = ctx.bvadd(x, one);
/// let y = ctx.var("y", Sort::Bv(8));
/// let map = HashMap::from([(x, y)]);
/// let e2 = substitute_cached(&mut ctx, e, &map, &mut HashMap::new());
/// let expected = ctx.bvadd(y, one);
/// assert_eq!(e2, expected);
/// ```
///
/// # Panics
///
/// Panics if a substitution makes an application ill-sorted.
pub fn substitute_cached<S: BuildHasher, M: BuildHasher>(
    ctx: &mut ExprCtx,
    root: ExprRef,
    map: &HashMap<ExprRef, ExprRef, S>,
    memo: &mut HashMap<ExprRef, ExprRef, M>,
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
        let out = match (map.get(&e), ctx.node(e)) {
            (Some(&r), _) => r,
            (None, ExprNode::App { op, args, .. }) => {
                let (op, (images, n)) = (*op, images(args, memo));
                if images[..n] == args[..] {
                    e
                } else {
                    ctx.app_of(op, &images[..n])
                }
            }
            (None, _) => e,
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// The images of an application's `args` under `memo`, in a buffer (no
/// operator takes more than three arguments), and their number.
fn images<M: BuildHasher>(
    args: &[ExprRef],
    memo: &HashMap<ExprRef, ExprRef, M>,
) -> ([ExprRef; 3], usize) {
    let mut out = [args[0]; 3];
    for (image, a) in out.iter_mut().zip(args) {
        *image = memo[a];
    }
    (out, args.len())
}

/// The constants a conjunction fixes, and the rewrite that folds them
/// into other formulas; built by [`cofactor`].
#[derive(Clone, Debug, Default)]
pub struct Cofactor {
    facts: Vec<ExprRef>,
    map: ExprMap<ExprRef>,
    memo: ExprMap<ExprRef>,
}

impl Cofactor {
    /// The conjuncts that fixed a constant, in the order they were
    /// found: each is `e == c`, `!e` or a bare boolean `e`.
    pub fn facts(&self) -> &[ExprRef] {
        &self.facts
    }

    /// `root` with every fixed expression replaced by its constant, and
    /// what that replacement folds. Rewrites are memoized across calls.
    pub fn apply(&mut self, ctx: &mut ExprCtx, root: ExprRef) -> ExprRef {
        substitute_cached(ctx, root, &self.map, &mut self.memo)
    }
}

/// Cofactors the conjunction of the boolean `conjuncts` by the
/// constants it fixes, and returns the facts found with the conjuncts
/// rewritten under them, one per conjunct.
///
/// Nested `And`s are flattened, and each part is read for a fact:
/// `e == c` with `c` constant and `e` not fixes `e` to `c`, `!e` fixes
/// `e` to false, and any other non-constant `e` but an equality fixes
/// itself to true. The first fact about an expression wins; a later,
/// conflicting one stays a conjunct and folds to false. The rewritten
/// conjuncts are read again until no new fact appears, so `x@1 == x@0`
/// becomes a fact once `x@0` is fixed.
///
/// Under any assignment that satisfies every fact, each rewritten
/// conjunct, and [`Cofactor::apply`] of any formula, evaluates as the
/// original does; the facts and the rewritten conjuncts together are
/// equivalent to `conjuncts`. Facts follow conjunct order, so the
/// result is deterministic.
///
/// # Examples
///
/// ```
/// use gila_expr::{cofactor, ExprCtx, Sort};
///
/// let mut ctx = ExprCtx::new();
/// let op = ctx.var("op", Sort::Bv(2));
/// let (a, b) = (ctx.var("a", Sort::Bv(8)), ctx.var("b", Sort::Bv(8)));
/// let decode = ctx.eq_u64(op, 0);
/// let sum = ctx.bvadd(a, b);
/// let diff = ctx.bvsub(a, b);
/// let out = ctx.ite(decode, sum, diff);
/// let (mut cof, rest) = cofactor(&mut ctx, &[decode]);
/// assert_eq!(cof.facts(), &[decode]);
/// assert_eq!(ctx.as_bool_const(rest[0]), Some(true));
/// assert_eq!(cof.apply(&mut ctx, out), sum);
/// ```
pub fn cofactor(ctx: &mut ExprCtx, conjuncts: &[ExprRef]) -> (Cofactor, Vec<ExprRef>) {
    let (tt, ff) = (ctx.tt(), ctx.ff());
    let is_const = |ctx: &ExprCtx, e: ExprRef| {
        matches!(
            ctx.node(e),
            ExprNode::BoolConst(_) | ExprNode::BvConst(_) | ExprNode::MemConst(_)
        )
    };
    let mut cof = Cofactor::default();
    let mut current = conjuncts.to_vec();
    loop {
        let known = cof.facts.len();
        for part in flatten_and(ctx, &current) {
            let fact = match ctx.node(part) {
                ExprNode::BoolConst(_) => continue,
                ExprNode::App { op: Op::Eq, args, .. }
                    if is_const(ctx, args[0]) != is_const(ctx, args[1]) =>
                {
                    if is_const(ctx, args[1]) {
                        (args[0], args[1])
                    } else {
                        (args[1], args[0])
                    }
                }
                // An equality of two open sides waits until a rewrite
                // fixes one of them.
                ExprNode::App { op: Op::Eq, .. } => continue,
                ExprNode::App { op: Op::Not, args, .. } => (args[0], ff),
                _ => (part, tt),
            };
            if let Entry::Vacant(slot) = cof.map.entry(fact.0) {
                slot.insert(fact.1);
                cof.facts.push(part);
            }
        }
        if cof.facts.len() == known {
            return (cof, current);
        }
        // The memo only ever holds rewrites under the current map.
        cof.memo.clear();
        current = current.iter().map(|&c| cof.apply(ctx, c)).collect();
    }
}

/// The parts of the conjunction of `roots`, nested `And`s flattened,
/// left to right, each once.
fn flatten_and(ctx: &ExprCtx, roots: &[ExprRef]) -> Vec<ExprRef> {
    let mut parts = Vec::new();
    let mut seen = HashSet::new();
    let mut stack: Vec<ExprRef> = roots.iter().rev().copied().collect();
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        match ctx.node(e) {
            ExprNode::App { op: Op::And, args, .. } => stack.extend(args.iter().rev()),
            _ => parts.push(e),
        }
    }
    parts
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
pub fn import<M: BuildHasher>(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    memo: &mut HashMap<ExprRef, ExprRef, M>,
) -> ExprRef {
    import_with(dst, src, root, memo, |dst, _, name, sort| Some(dst.var(name, sort)))
        .expect("every variable imports by name")
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
pub fn import_mapped<S: BuildHasher, M: BuildHasher>(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    var_map: &HashMap<ExprRef, ExprRef, S>,
    memo: &mut HashMap<ExprRef, ExprRef, M>,
) -> Result<ExprRef, String> {
    import_with(dst, src, root, memo, |_, e, _, _| var_map.get(&e).copied())
}

/// The walk behind [`import`] and [`import_mapped`]: `var` gives each
/// variable's image in `dst` (from `dst`, the variable, its name and
/// sort), or `None`, which ends the import with the variable's name.
///
/// It walks as [`substitute_cached`] does, so a memoized root costs one
/// lookup, memoized nodes are never descended into, and new nodes are
/// created in the order of `src`'s post-order from `root`.
fn import_with<M: BuildHasher>(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    memo: &mut HashMap<ExprRef, ExprRef, M>,
    mut var: impl FnMut(&mut ExprCtx, ExprRef, &str, Sort) -> Option<ExprRef>,
) -> Result<ExprRef, String> {
    if let Some(&r) = memo.get(&root) {
        return Ok(r);
    }
    let mut stack = vec![(root, false)];
    while let Some(&(e, expanded)) = stack.last() {
        if memo.contains_key(&e) {
            stack.pop();
            continue;
        }
        if !expanded {
            stack.last_mut().expect("non-empty").1 = true;
            for &a in src.args(e) {
                if !memo.contains_key(&a) {
                    stack.push((a, false));
                }
            }
            continue;
        }
        stack.pop();
        let out = match src.node(e) {
            ExprNode::BoolConst(b) => dst.bool_const(*b),
            ExprNode::BvConst(v) => dst.bv(v.clone()),
            ExprNode::MemConst(m) => dst.mem_const(m.clone()),
            ExprNode::Var { name, sort } => var(dst, e, name, *sort).ok_or_else(|| name.clone())?,
            ExprNode::App { op, args, .. } => {
                let (images, n) = images(args, memo);
                dst.app_of(*op, &images[..n])
            }
        };
        memo.insert(e, out);
    }
    Ok(memo[&root])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, eval_all, BitVecValue, Env, MemValue, Sort, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn substitute_replaces_all_occurrences() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let e0 = ctx.bvadd(x, x);
        let e = ctx.bvmul(e0, x);
        let c = ctx.bv_u64(3, 8);
        let map = HashMap::from([(x, c)]);
        let r = substitute_cached(&mut ctx, e, &map, &mut ExprMap::default());
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
        assert_eq!(substitute_cached(&mut ctx, e, &map, &mut ExprMap::default()), e);
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
    fn cofactor_follows_held_inputs_to_a_fixpoint() {
        let mut ctx = ExprCtx::new();
        let in0 = ctx.var("in@0", Sort::Bv(4));
        let in1 = ctx.var("in@1", Sort::Bv(4));
        let y = ctx.var("y", Sort::Bv(4));
        let hold = ctx.eq(in1, in0);
        let decode = ctx.eq_u64(in0, 3);
        let sel = ctx.eq_u64(in1, 3);
        let out = ctx.ite(sel, y, in1);
        let (mut cof, rest) = cofactor(&mut ctx, &[hold, decode]);
        // `in@0 == 3` first, then `in@1 == 3`, read off the rewritten
        // hold.
        let in1_fixed = ctx.eq_u64(in1, 3);
        assert_eq!(cof.facts(), &[decode, in1_fixed]);
        assert!(rest.iter().all(|&c| ctx.as_bool_const(c) == Some(true)));
        assert_eq!(cof.apply(&mut ctx, out), y);
    }

    /// `e`'s value as a constant node.
    fn constant(ctx: &mut ExprCtx, v: &Value) -> ExprRef {
        match v {
            Value::Bool(b) => ctx.bool_const(*b),
            Value::Bv(x) => ctx.bv(x.clone()),
            Value::Mem(m) => ctx.mem_const(m.clone()),
        }
    }

    /// A uniformly random value of `sort` (random DAGs use 8-bit words
    /// and 8x8 memories).
    fn random_value(rng: &mut StdRng, sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(rng.gen_bool(0.5)),
            Sort::Bv(w) => Value::Bv(BitVecValue::from_u64(rng.gen(), w)),
            Sort::Mem {
                addr_width,
                data_width,
            } => {
                let mut m = MemValue::zeroed(addr_width, data_width);
                for a in 0..1u64 << addr_width {
                    m.write_word_mut(a, rng.gen());
                }
                Value::Mem(m)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// On random DAGs, a conjunction of `e == c` (either way round),
        /// `!e` and bare booleans, all true under the DAG's assignment
        /// and nested in `And`s, plus a conflicting pair of equalities:
        /// under the DAG's assignment and every random one that
        /// satisfies the extracted facts, each rewritten conjunct and
        /// each cofactored root evaluates as its original. A second run
        /// on a copy of the context gives the same facts and rewrites.
        #[test]
        fn cofactoring_is_invisible(seed in proptest::strategy::any::<u64>()) {
            let (mut ctx, roots, env) = crate::eval::tests::random_dag(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
            let value_of = |v: ExprRef| env.get(v).cloned();
            let vars = ["p", "q", "x", "y", "z", "m", "n"].map(|v| ctx.find_var(v).unwrap());
            let nodes: Vec<ExprRef> = ctx
                .post_order(&roots)
                .into_iter()
                .filter(|&e| matches!(ctx.node(e), ExprNode::App { .. }))
                .chain(vars)
                .collect();
            let mut parts = Vec::new();
            for _ in 0..rng.gen_range(1..8) {
                let e = nodes[rng.gen_range(0..nodes.len())];
                let v = eval_all(&ctx, &[e], value_of).remove(0);
                let part = match (&v, rng.gen_range(0..3)) {
                    (Value::Bool(true), 0) => e,
                    (Value::Bool(false), 0) => ctx.not(e),
                    (_, k) => {
                        let c = constant(&mut ctx, &v);
                        if k == 1 { ctx.eq(e, c) } else { ctx.eq(c, e) }
                    }
                };
                parts.push(part);
            }
            // The conflicting pair: the true equality first, so the
            // false one cannot become a fact.
            let bvs: Vec<ExprRef> = nodes.iter().copied().filter(|&e| ctx.sort_of(e) == Sort::Bv(8)).collect();
            let x = bvs[rng.gen_range(0..bvs.len())];
            let xv = eval_all(&ctx, &[x], value_of).remove(0).as_bv().to_u64();
            let right = ctx.bv_u64(xv, 8);
            let wrong = ctx.bv_u64(xv ^ 1, 8);
            let at = rng.gen_range(0..=parts.len());
            parts.insert(at, ctx.eq(x, right));
            let after = rng.gen_range(at + 1..=parts.len());
            parts.insert(after, ctx.eq(x, wrong));
            // Nest runs of parts in `And`s, keeping their order.
            let mut conjuncts = Vec::new();
            let mut rest = &parts[..];
            while !rest.is_empty() {
                let n = rng.gen_range(1..=rest.len().min(3));
                let nested = rest[1..n].iter().fold(rest[0], |acc, &p| ctx.and(acc, p));
                conjuncts.push(nested);
                rest = &rest[n..];
            }

            let mut again = ctx.clone();
            let (mut cof, rewritten) = cofactor(&mut ctx, &conjuncts);
            let cofactored: Vec<ExprRef> = roots.iter().map(|&r| cof.apply(&mut ctx, r)).collect();
            let (mut cof2, rewritten2) = cofactor(&mut again, &conjuncts);
            proptest::prop_assert_eq!(cof2.facts(), cof.facts());
            proptest::prop_assert_eq!(&rewritten2, &rewritten);
            let cofactored2: Vec<ExprRef> = roots.iter().map(|&r| cof2.apply(&mut again, r)).collect();
            proptest::prop_assert_eq!(&cofactored2, &cofactored);

            let original: Vec<ExprRef> = conjuncts.iter().chain(&roots).copied().collect();
            let rewrites: Vec<ExprRef> = rewritten.iter().chain(&cofactored).copied().collect();
            let vars = ctx.vars_of(&original);
            let mut assignments = vec![env.clone()];
            for _ in 0..16 {
                let mut a = Env::new();
                for &v in &vars {
                    a.bind(v, random_value(&mut rng, ctx.sort_of(v)));
                }
                assignments.push(a);
            }
            for (i, a) in assignments.iter().enumerate() {
                let value_of = |v: ExprRef| a.get(v).cloned();
                let facts_hold = eval_all(&ctx, cof.facts(), value_of)
                    .iter()
                    .all(Value::as_bool);
                // The DAG's own assignment makes every part but the
                // conflicting one true, so it satisfies every fact.
                proptest::prop_assert!(facts_hold || i > 0, "the generating assignment breaks a fact");
                if facts_hold {
                    proptest::prop_assert_eq!(
                        eval_all(&ctx, &rewrites, value_of),
                        eval_all(&ctx, &original, value_of)
                    );
                }
            }
        }
    }

    /// Import as a whole post-order of `root` per call, skipping the
    /// memoized nodes: the reference order [`import`] must create nodes
    /// in.
    fn import_by_post_order(
        dst: &mut ExprCtx,
        src: &ExprCtx,
        root: ExprRef,
        memo: &mut ExprMap<ExprRef>,
    ) -> ExprRef {
        for e in src.post_order(&[root]) {
            if memo.contains_key(&e) {
                continue;
            }
            let out = match src.node(e) {
                ExprNode::BoolConst(b) => dst.bool_const(*b),
                ExprNode::BvConst(v) => dst.bv(v.clone()),
                ExprNode::MemConst(m) => dst.mem_const(m.clone()),
                ExprNode::Var { name, sort } => dst.var(name.clone(), *sort),
                ExprNode::App { op, args, .. } => {
                    let images: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                    dst.app_of(*op, &images)
                }
            };
            memo.insert(e, out);
        }
        memo[&root]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// On random DAGs, importing every root in turn through one memo
        /// gives each node the handle the post-order reference gives it,
        /// so both create the same nodes in the same order; importing a
        /// root again creates nothing.
        #[test]
        fn import_creates_nodes_in_post_order(seed in proptest::strategy::any::<u64>()) {
            let (src, roots, _) = crate::eval::tests::random_dag(seed);
            let (mut dst, mut memo) = (ExprCtx::new(), ExprMap::default());
            let (mut reference, mut reference_memo) = (ExprCtx::new(), ExprMap::default());
            for &root in roots.iter().rev() {
                let image = import(&mut dst, &src, root, &mut memo);
                let want = import_by_post_order(&mut reference, &src, root, &mut reference_memo);
                proptest::prop_assert_eq!(image, want);
            }
            proptest::prop_assert_eq!(&memo, &reference_memo);
            proptest::prop_assert_eq!(dst.len(), reference.len());
            let len = dst.len();
            for &root in &roots {
                import(&mut dst, &src, root, &mut memo);
            }
            proptest::prop_assert_eq!(dst.len(), len);
        }
    }
}
