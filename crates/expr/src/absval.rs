//! Abstract values and an abstract evaluator over expressions.
//!
//! This module is the word-level abstract-interpretation counterpart of
//! [`crate::eval`]: where `eval` maps an expression and a concrete
//! environment to one [`Value`], [`abs_eval`] maps an expression and an
//! abstract environment ([`AbsEnv`]) to a *set* of values, represented
//! by an [`AbsValue`]. Three reduced-product domains describe a
//! bit-vector set ([`AbsBv`]):
//!
//! * **known bits** (ternary): two masks, `known_zero` and `known_one`,
//!   recording the positions whose value is fixed;
//! * **unsigned intervals**: an inclusive range `[lo, hi]` under the
//!   unsigned order;
//! * **congruence on constants** (a flat lattice, [`Flat`]): either a
//!   single known constant, or no information.
//!
//! After every transfer function the product is *reduced*
//! ([`AbsBv::reduce`]): each component tightens the others (a singleton
//! interval becomes a constant, agreeing leading bits of `lo`/`hi`
//! become known bits, known bits clamp the interval), and any empty
//! component collapses the whole product to a canonical bottom.
//!
//! The contract linking the two evaluators is *over-approximation*: for
//! every expression `e` and concrete environment `env`,
//! `eval(e, env) ∈ γ(abs_eval(e, abs(env)))` — see
//! `tests/absint_props.rs` for the property test. Transfer functions
//! that would be complex to make precise simply return top; that is
//! always sound.

use std::collections::HashMap;

use crate::ctx::{ExprCtx, ExprNode, ExprRef, Op};
use crate::sort::Sort;
use crate::value::{BitVecValue, Value};

/// Abstract boolean: the four-point lattice `Bot < {False, True} < Top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbsBool {
    /// No boolean (unreachable).
    Bot,
    /// Exactly `false`.
    False,
    /// Exactly `true`.
    True,
    /// Either boolean.
    Top,
}

impl AbsBool {
    /// Abstracts a concrete boolean.
    pub fn from_bool(b: bool) -> AbsBool {
        if b {
            AbsBool::True
        } else {
            AbsBool::False
        }
    }

    /// γ-membership: is `b` described by this abstract boolean?
    pub fn contains(self, b: bool) -> bool {
        match self {
            AbsBool::Bot => false,
            AbsBool::False => !b,
            AbsBool::True => b,
            AbsBool::Top => true,
        }
    }

    /// Least upper bound.
    pub fn join(self, other: AbsBool) -> AbsBool {
        use AbsBool::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => x,
            (Top, _) | (_, Top) => Top,
            (a, b) if a == b => a,
            _ => Top,
        }
    }

    /// Greatest lower bound.
    pub fn meet(self, other: AbsBool) -> AbsBool {
        use AbsBool::*;
        match (self, other) {
            (Top, x) | (x, Top) => x,
            (Bot, _) | (_, Bot) => Bot,
            (a, b) if a == b => a,
            _ => Bot,
        }
    }

    /// Widening. The lattice has finite height, so widening is join.
    pub fn widen(self, other: AbsBool) -> AbsBool {
        self.join(other)
    }

    /// The concrete boolean, if exactly one is described.
    pub fn as_const(self) -> Option<bool> {
        match self {
            AbsBool::False => Some(false),
            AbsBool::True => Some(true),
            _ => None,
        }
    }

    fn not(self) -> AbsBool {
        match self {
            AbsBool::Bot => AbsBool::Bot,
            AbsBool::False => AbsBool::True,
            AbsBool::True => AbsBool::False,
            AbsBool::Top => AbsBool::Top,
        }
    }

    fn and(self, other: AbsBool) -> AbsBool {
        use AbsBool::*;
        match (self, other) {
            (Bot, _) | (_, Bot) => Bot,
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Top,
        }
    }

    fn or(self, other: AbsBool) -> AbsBool {
        self.not().and(other.not()).not()
    }
}

/// The flat constant lattice: `Bot < Const(c) < Top`.
///
/// This is the "congruence on constants" component of the reduced
/// product: it records when a value is one single known constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Flat {
    /// No value.
    Bot,
    /// Exactly this constant.
    Const(BitVecValue),
    /// Any value.
    Top,
}

impl Flat {
    fn join(&self, other: &Flat) -> Flat {
        match (self, other) {
            (Flat::Bot, x) | (x, Flat::Bot) => x.clone(),
            (Flat::Const(a), Flat::Const(b)) if a == b => self.clone(),
            _ => Flat::Top,
        }
    }

    fn meet(&self, other: &Flat) -> Flat {
        match (self, other) {
            (Flat::Top, x) | (x, Flat::Top) => x.clone(),
            (Flat::Const(a), Flat::Const(b)) if a == b => self.clone(),
            _ => Flat::Bot,
        }
    }
}

/// Abstract bit-vector: the reduced product of known bits, an unsigned
/// interval, and the flat constant lattice.
///
/// The representation is kept canonical by [`AbsBv::reduce`]; an empty
/// set is always the canonical [`AbsBv::bottom`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsBv {
    width: u32,
    /// Mask of bit positions known to be 0.
    known_zero: BitVecValue,
    /// Mask of bit positions known to be 1.
    known_one: BitVecValue,
    /// Inclusive unsigned lower bound.
    lo: BitVecValue,
    /// Inclusive unsigned upper bound.
    hi: BitVecValue,
    /// Flat constant component.
    flat: Flat,
}

fn umin(a: &BitVecValue, b: &BitVecValue) -> BitVecValue {
    if a.ult(b) {
        a.clone()
    } else {
        b.clone()
    }
}

fn umax(a: &BitVecValue, b: &BitVecValue) -> BitVecValue {
    if a.ult(b) {
        b.clone()
    } else {
        a.clone()
    }
}

/// Number of significant bits of `v` (position of the highest set bit
/// plus one; 0 for the zero value).
fn sig_bits(v: &BitVecValue) -> u32 {
    v.width() - v.leading_zeros()
}

/// Shifts mask bits left by `s`, filling vacated low positions with `fill`.
fn mask_shl(v: &BitVecValue, s: u32, fill: bool) -> BitVecValue {
    let shifted = v.shl_amount(s);
    if fill {
        shifted.or(&BitVecValue::ones(v.width()).lshr_amount(v.width() - s))
    } else {
        shifted
    }
}

/// Shifts mask bits right by `s`, filling vacated high positions with `fill`.
fn mask_lshr(v: &BitVecValue, s: u32, fill: bool) -> BitVecValue {
    let shifted = v.lshr_amount(s);
    if fill {
        shifted.or(&BitVecValue::ones(v.width()).shl_amount(v.width() - s))
    } else {
        shifted
    }
}

impl AbsBv {
    /// The set of all values of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn top(width: u32) -> AbsBv {
        AbsBv {
            width,
            known_zero: BitVecValue::zero(width),
            known_one: BitVecValue::zero(width),
            lo: BitVecValue::zero(width),
            hi: BitVecValue::ones(width),
            flat: Flat::Top,
        }
    }

    /// The empty set of values of the given width (canonical form).
    pub fn bottom(width: u32) -> AbsBv {
        AbsBv {
            width,
            known_zero: BitVecValue::ones(width),
            known_one: BitVecValue::ones(width),
            lo: BitVecValue::ones(width),
            hi: BitVecValue::zero(width),
            flat: Flat::Bot,
        }
    }

    /// Abstracts one concrete value exactly.
    pub fn from_const(v: &BitVecValue) -> AbsBv {
        AbsBv {
            width: v.width(),
            known_zero: v.not(),
            known_one: v.clone(),
            lo: v.clone(),
            hi: v.clone(),
            flat: Flat::Const(v.clone()),
        }
    }

    /// The interval `[lo, hi]` with no known-bits information (reduced).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn from_range(lo: &BitVecValue, hi: &BitVecValue) -> AbsBv {
        assert_eq!(lo.width(), hi.width(), "interval endpoint widths differ");
        AbsBv {
            width: lo.width(),
            known_zero: BitVecValue::zero(lo.width()),
            known_one: BitVecValue::zero(lo.width()),
            lo: lo.clone(),
            hi: hi.clone(),
            flat: Flat::Top,
        }
        .reduce()
    }

    /// The set of values with the given known-zero / known-one masks
    /// (reduced).
    ///
    /// # Panics
    ///
    /// Panics if the mask widths differ.
    pub fn from_masks(known_zero: &BitVecValue, known_one: &BitVecValue) -> AbsBv {
        assert_eq!(known_zero.width(), known_one.width(), "mask widths differ");
        let w = known_zero.width();
        AbsBv {
            width: w,
            known_zero: known_zero.clone(),
            known_one: known_one.clone(),
            lo: BitVecValue::zero(w),
            hi: BitVecValue::ones(w),
            flat: Flat::Top,
        }
        .reduce()
    }

    /// Bit width of the described values.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask of positions known to be 0.
    pub fn known_zero(&self) -> &BitVecValue {
        &self.known_zero
    }

    /// Mask of positions known to be 1.
    pub fn known_one(&self) -> &BitVecValue {
        &self.known_one
    }

    /// Inclusive unsigned lower bound.
    pub fn lo(&self) -> &BitVecValue {
        &self.lo
    }

    /// Inclusive unsigned upper bound.
    pub fn hi(&self) -> &BitVecValue {
        &self.hi
    }

    /// The flat constant component.
    pub fn flat(&self) -> &Flat {
        &self.flat
    }

    /// True if this is the empty set.
    pub fn is_bottom(&self) -> bool {
        self.flat == Flat::Bot
            || !self.known_zero.and(&self.known_one).is_zero()
            || self.hi.ult(&self.lo)
    }

    /// The single described constant, if the set is a singleton.
    pub fn as_const(&self) -> Option<&BitVecValue> {
        match &self.flat {
            Flat::Const(c) => Some(c),
            _ => None,
        }
    }

    /// γ-membership: is the concrete value `v` described?
    ///
    /// # Panics
    ///
    /// Panics if `v` has a different width.
    pub fn contains(&self, v: &BitVecValue) -> bool {
        assert_eq!(v.width(), self.width, "contains width mismatch");
        if self.is_bottom() {
            return false;
        }
        v.and(&self.known_zero).is_zero()
            && v.and(&self.known_one) == self.known_one
            && self.lo.ule(v)
            && v.ule(&self.hi)
    }

    /// Reduces the product to canonical form: each component tightens
    /// the others, and an empty component collapses to bottom.
    pub fn reduce(mut self) -> AbsBv {
        // Two rounds propagate any one-step tightening to a fixpoint
        // for this product (each rule only moves information one hop).
        for _ in 0..2 {
            if self.is_bottom() {
                return AbsBv::bottom(self.width);
            }
            // Constant component pins everything exactly.
            if let Flat::Const(c) = &self.flat {
                let c = c.clone();
                if !c.and(&self.known_zero).is_zero()
                    || c.and(&self.known_one) != self.known_one
                    || c.ult(&self.lo)
                    || self.hi.ult(&c)
                {
                    return AbsBv::bottom(self.width);
                }
                self.known_zero = c.not();
                self.known_one = c.clone();
                self.lo = c.clone();
                self.hi = c;
                continue;
            }
            // Known bits clamp the interval: every member has at least
            // the known-one bits set (>= known_one as a number) and no
            // known-zero bits set (<= !known_zero).
            self.lo = umax(&self.lo, &self.known_one);
            self.hi = umin(&self.hi, &self.known_zero.not());
            if self.hi.ult(&self.lo) {
                return AbsBv::bottom(self.width);
            }
            // Interval endpoints agreeing on their leading bits fix
            // those bits for every member of [lo, hi].
            let diff = self.lo.xor(&self.hi);
            let split = sig_bits(&diff);
            if split < self.width {
                let lead = BitVecValue::ones(self.width).shl_amount(split);
                self.known_one = self.known_one.or(&self.lo.and(&lead));
                self.known_zero = self.known_zero.or(&self.lo.not().and(&lead));
            }
            // Singleton interval becomes a constant.
            if self.lo == self.hi {
                self.flat = self.flat.meet(&Flat::Const(self.lo.clone()));
            }
        }
        if self.is_bottom() {
            return AbsBv::bottom(self.width);
        }
        self
    }

    /// Least upper bound (then reduced).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn join(&self, other: &AbsBv) -> AbsBv {
        assert_eq!(self.width, other.width, "join width mismatch");
        if self.is_bottom() {
            return other.clone().reduce();
        }
        if other.is_bottom() {
            return self.clone().reduce();
        }
        AbsBv {
            width: self.width,
            known_zero: self.known_zero.and(&other.known_zero),
            known_one: self.known_one.and(&other.known_one),
            lo: umin(&self.lo, &other.lo),
            hi: umax(&self.hi, &other.hi),
            flat: self.flat.join(&other.flat),
        }
        .reduce()
    }

    /// Greatest lower bound (then reduced; may be bottom).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn meet(&self, other: &AbsBv) -> AbsBv {
        assert_eq!(self.width, other.width, "meet width mismatch");
        if self.is_bottom() || other.is_bottom() {
            return AbsBv::bottom(self.width);
        }
        AbsBv {
            width: self.width,
            known_zero: self.known_zero.or(&other.known_zero),
            known_one: self.known_one.or(&other.known_one),
            lo: umax(&self.lo, &other.lo),
            hi: umin(&self.hi, &other.hi),
            flat: self.flat.meet(&other.flat),
        }
        .reduce()
    }

    /// Widening: `self ∇ next`. Interval bounds that moved jump straight
    /// to the extreme; the finite-height components use join. Guarantees
    /// a finite ascending chain for any sequence of `next`s.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn widen(&self, next: &AbsBv) -> AbsBv {
        assert_eq!(self.width, next.width, "widen width mismatch");
        if self.is_bottom() {
            return next.clone().reduce();
        }
        if next.is_bottom() {
            return self.clone().reduce();
        }
        let lo = if next.lo.ult(&self.lo) {
            BitVecValue::zero(self.width)
        } else {
            self.lo.clone()
        };
        let hi = if self.hi.ult(&next.hi) {
            BitVecValue::ones(self.width)
        } else {
            self.hi.clone()
        };
        AbsBv {
            width: self.width,
            known_zero: self.known_zero.and(&next.known_zero),
            known_one: self.known_one.and(&next.known_one),
            lo,
            hi,
            flat: self.flat.join(&next.flat),
        }
        .reduce()
    }

    /// Partial-order test: does `self` describe every value `other` does?
    pub fn includes(&self, other: &AbsBv) -> bool {
        if other.is_bottom() {
            return true;
        }
        if self.is_bottom() {
            return false;
        }
        self.join(other) == self.clone().reduce()
    }
}

/// An abstract value of any sort.
///
/// Memories are abstracted to a single top element: precise memory
/// tracking is out of scope, and top is always sound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsValue {
    /// An abstract boolean.
    Bool(AbsBool),
    /// An abstract bit-vector.
    Bv(AbsBv),
    /// Any memory (the memory domain has only this element).
    Mem,
}

impl AbsValue {
    /// The top element of the given sort.
    pub fn top_of(sort: &Sort) -> AbsValue {
        match sort {
            Sort::Bool => AbsValue::Bool(AbsBool::Top),
            Sort::Bv(w) => AbsValue::Bv(AbsBv::top(*w)),
            Sort::Mem { .. } => AbsValue::Mem,
        }
    }

    /// The bottom element of the given sort. Memories have no bottom;
    /// top is returned instead (which is always sound).
    pub fn bottom_of(sort: &Sort) -> AbsValue {
        match sort {
            Sort::Bool => AbsValue::Bool(AbsBool::Bot),
            Sort::Bv(w) => AbsValue::Bv(AbsBv::bottom(*w)),
            Sort::Mem { .. } => AbsValue::Mem,
        }
    }

    /// Abstracts a concrete value exactly.
    pub fn from_value(v: &Value) -> AbsValue {
        match v {
            Value::Bool(b) => AbsValue::Bool(AbsBool::from_bool(*b)),
            Value::Bv(bv) => AbsValue::Bv(AbsBv::from_const(bv)),
            Value::Mem(_) => AbsValue::Mem,
        }
    }

    /// γ-membership: is the concrete value described?
    pub fn contains(&self, v: &Value) -> bool {
        match (self, v) {
            (AbsValue::Bool(a), Value::Bool(b)) => a.contains(*b),
            (AbsValue::Bv(a), Value::Bv(b)) => a.contains(b),
            (AbsValue::Mem, Value::Mem(_)) => true,
            _ => false,
        }
    }

    /// True if this is an empty set (memories are never empty).
    pub fn is_bottom(&self) -> bool {
        match self {
            AbsValue::Bool(b) => *b == AbsBool::Bot,
            AbsValue::Bv(bv) => bv.is_bottom(),
            AbsValue::Mem => false,
        }
    }

    /// The exact concrete value, if the set is a singleton.
    pub fn as_exact(&self) -> Option<Value> {
        match self {
            AbsValue::Bool(b) => b.as_const().map(Value::Bool),
            AbsValue::Bv(bv) => bv.as_const().map(|c| Value::Bv(c.clone())),
            AbsValue::Mem => None,
        }
    }

    /// Least upper bound.
    ///
    /// # Panics
    ///
    /// Panics if the sorts differ.
    pub fn join(&self, other: &AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bool(a), AbsValue::Bool(b)) => AbsValue::Bool(a.join(*b)),
            (AbsValue::Bv(a), AbsValue::Bv(b)) => AbsValue::Bv(a.join(b)),
            (AbsValue::Mem, AbsValue::Mem) => AbsValue::Mem,
            _ => panic!("join across sorts"),
        }
    }

    /// Greatest lower bound.
    ///
    /// # Panics
    ///
    /// Panics if the sorts differ.
    pub fn meet(&self, other: &AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bool(a), AbsValue::Bool(b)) => AbsValue::Bool(a.meet(*b)),
            (AbsValue::Bv(a), AbsValue::Bv(b)) => AbsValue::Bv(a.meet(b)),
            (AbsValue::Mem, AbsValue::Mem) => AbsValue::Mem,
            _ => panic!("meet across sorts"),
        }
    }

    /// Widening: `self ∇ other`.
    ///
    /// # Panics
    ///
    /// Panics if the sorts differ.
    pub fn widen(&self, other: &AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bool(a), AbsValue::Bool(b)) => AbsValue::Bool(a.widen(*b)),
            (AbsValue::Bv(a), AbsValue::Bv(b)) => AbsValue::Bv(a.widen(b)),
            (AbsValue::Mem, AbsValue::Mem) => AbsValue::Mem,
            _ => panic!("widen across sorts"),
        }
    }

    /// Partial-order test: does `self` describe every value `other` does?
    pub fn includes(&self, other: &AbsValue) -> bool {
        match (self, other) {
            (AbsValue::Bool(a), AbsValue::Bool(b)) => a.join(*b) == *a,
            (AbsValue::Bv(a), AbsValue::Bv(b)) => a.includes(b),
            (AbsValue::Mem, AbsValue::Mem) => true,
            _ => false,
        }
    }

    fn as_abool(&self) -> AbsBool {
        match self {
            AbsValue::Bool(b) => *b,
            _ => panic!("expected abstract boolean"),
        }
    }

    fn as_abv(&self) -> &AbsBv {
        match self {
            AbsValue::Bv(bv) => bv,
            _ => panic!("expected abstract bit-vector"),
        }
    }
}

/// An abstract variable assignment for [`abs_eval`].
///
/// Unlike the concrete [`crate::Env`], unbound variables do not fail
/// evaluation: they evaluate to the top element of their sort, which is
/// the sound "no information" default for fixpoint analyses.
#[derive(Clone, Debug, Default)]
pub struct AbsEnv {
    bindings: HashMap<ExprRef, AbsValue>,
}

impl AbsEnv {
    /// Creates an empty abstract assignment (every variable is top).
    pub fn new() -> AbsEnv {
        AbsEnv::default()
    }

    /// Binds a variable handle to an abstract value.
    pub fn bind(&mut self, var: ExprRef, value: AbsValue) {
        self.bindings.insert(var, value);
    }

    /// Looks up a binding.
    pub fn get(&self, var: ExprRef) -> Option<&AbsValue> {
        self.bindings.get(&var)
    }

    /// Iterates over all bindings.
    pub fn iter(&self) -> impl Iterator<Item = (ExprRef, &AbsValue)> {
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

    /// Abstracts a concrete environment exactly.
    pub fn from_env(env: &crate::Env) -> AbsEnv {
        AbsEnv {
            bindings: env
                .iter()
                .map(|(k, v)| (k, AbsValue::from_value(v)))
                .collect(),
        }
    }
}

impl FromIterator<(ExprRef, AbsValue)> for AbsEnv {
    fn from_iter<I: IntoIterator<Item = (ExprRef, AbsValue)>>(iter: I) -> Self {
        AbsEnv {
            bindings: iter.into_iter().collect(),
        }
    }
}

/// Abstractly evaluates `root` under `env`.
///
/// Mirrors [`crate::eval`] over the abstract domains; see the module
/// docs for the over-approximation contract. Never fails: unbound
/// variables are top, and imprecise operators degrade to top.
pub fn abs_eval(ctx: &ExprCtx, root: ExprRef, env: &AbsEnv) -> AbsValue {
    abs_eval_nodes(ctx, &[root], env)
        .remove(&root)
        .expect("root evaluated")
}

/// Abstractly evaluates every node reachable from `roots`, returning
/// the per-node abstract values.
///
/// This is the bulk interface used by fixpoint engines and lint passes
/// that need sub-expression values (e.g. truncation analysis), sharing
/// one traversal and memo table across all roots.
pub fn abs_eval_nodes(
    ctx: &ExprCtx,
    roots: &[ExprRef],
    env: &AbsEnv,
) -> HashMap<ExprRef, AbsValue> {
    let order = ctx.post_order(roots);
    let mut memo: HashMap<ExprRef, AbsValue> = HashMap::with_capacity(order.len());
    for e in order {
        let value = match ctx.node(e) {
            ExprNode::BoolConst(b) => AbsValue::Bool(AbsBool::from_bool(*b)),
            ExprNode::BvConst(v) => AbsValue::Bv(AbsBv::from_const(v)),
            ExprNode::MemConst(_) => AbsValue::Mem,
            ExprNode::Var { sort, .. } => match env.get(e) {
                Some(v) => v.clone(),
                None => AbsValue::top_of(sort),
            },
            ExprNode::App { op, args, .. } => {
                let argv: Vec<&AbsValue> = args.iter().map(|a| &memo[a]).collect();
                abs_apply(*op, &argv, &ctx.sort_of(e))
            }
        };
        memo.insert(e, value);
    }
    memo
}

/// Abstract semantics of one operator application.
///
/// `result` is the sort of the application (needed for e.g. the width
/// of a memory read). When every argument is a singleton the concrete
/// [`crate::eval`] semantics are used, so the abstract evaluator agrees
/// with the interpreter on constants by construction.
pub fn abs_apply(op: Op, args: &[&AbsValue], result: &Sort) -> AbsValue {
    use Op::*;
    // Strictness: an unreachable argument makes the result unreachable.
    // Ite is the exception — a decided condition ignores one branch.
    if op != Ite && args.iter().any(|a| a.is_bottom()) {
        return AbsValue::bottom_of(result);
    }
    if op == Ite {
        return match args[0].as_abool() {
            AbsBool::Bot => AbsValue::bottom_of(result),
            AbsBool::True => args[1].clone(),
            AbsBool::False => args[2].clone(),
            AbsBool::Top => {
                if args[1].is_bottom() {
                    args[2].clone()
                } else if args[2].is_bottom() {
                    args[1].clone()
                } else {
                    args[1].join(args[2])
                }
            }
        };
    }
    // Singleton arguments: defer to the concrete semantics.
    if let Some(vals) = args.iter().map(|a| a.as_exact()).collect::<Option<Vec<_>>>() {
        let refs: Vec<&Value> = vals.iter().collect();
        return AbsValue::from_value(&crate::eval::apply(op, &refs));
    }
    match op {
        Not => AbsValue::Bool(args[0].as_abool().not()),
        And => AbsValue::Bool(args[0].as_abool().and(args[1].as_abool())),
        Or => AbsValue::Bool(args[0].as_abool().or(args[1].as_abool())),
        Xor => AbsValue::Bool(abs_xor(args[0].as_abool(), args[1].as_abool())),
        Implies => AbsValue::Bool(args[0].as_abool().not().or(args[1].as_abool())),
        Iff => AbsValue::Bool(abs_xor(args[0].as_abool(), args[1].as_abool()).not()),
        Eq => AbsValue::Bool(abs_eq(args[0], args[1])),
        Ite => unreachable!("handled above"),
        BvNot => {
            let a = args[0].as_abv();
            AbsValue::Bv(
                AbsBv {
                    width: a.width,
                    known_zero: a.known_one.clone(),
                    known_one: a.known_zero.clone(),
                    lo: a.hi.not(),
                    hi: a.lo.not(),
                    flat: Flat::Top,
                }
                .reduce(),
            )
        }
        BvNeg => AbsValue::Bv(abs_neg(args[0].as_abv())),
        BvAnd => {
            let (a, b) = (args[0].as_abv(), args[1].as_abv());
            AbsValue::Bv(AbsBv::from_masks(
                &a.known_zero.or(&b.known_zero),
                &a.known_one.and(&b.known_one),
            ))
        }
        BvOr => {
            let (a, b) = (args[0].as_abv(), args[1].as_abv());
            AbsValue::Bv(AbsBv::from_masks(
                &a.known_zero.and(&b.known_zero),
                &a.known_one.or(&b.known_one),
            ))
        }
        BvXor => {
            let (a, b) = (args[0].as_abv(), args[1].as_abv());
            AbsValue::Bv(AbsBv::from_masks(
                &a.known_zero.and(&b.known_zero).or(&a.known_one.and(&b.known_one)),
                &a.known_zero.and(&b.known_one).or(&a.known_one.and(&b.known_zero)),
            ))
        }
        BvAdd => AbsValue::Bv(abs_add(args[0].as_abv(), args[1].as_abv())),
        BvSub => AbsValue::Bv(abs_sub(args[0].as_abv(), args[1].as_abv())),
        BvMul => AbsValue::Bv(abs_mul(args[0].as_abv(), args[1].as_abv())),
        BvUdiv => AbsValue::Bv(abs_udiv(args[0].as_abv(), args[1].as_abv())),
        BvUrem => AbsValue::Bv(abs_urem(args[0].as_abv(), args[1].as_abv())),
        BvShl => AbsValue::Bv(abs_shl(args[0].as_abv(), args[1].as_abv())),
        BvLshr => AbsValue::Bv(abs_lshr(args[0].as_abv(), args[1].as_abv())),
        BvAshr => AbsValue::Bv(abs_ashr(args[0].as_abv(), args[1].as_abv())),
        BvConcat => {
            let (a, b) = (args[0].as_abv(), args[1].as_abv());
            AbsValue::Bv(AbsBv::from_masks(
                &a.known_zero.concat(&b.known_zero),
                &a.known_one.concat(&b.known_one),
            ))
        }
        BvExtract { hi, lo } => {
            let a = args[0].as_abv();
            AbsValue::Bv(AbsBv::from_masks(
                &a.known_zero.extract(hi, lo),
                &a.known_one.extract(hi, lo),
            ))
        }
        BvZext { to } => {
            let a = args[0].as_abv();
            // The extension bits are known zero: extend the known-zero
            // mask with ones and the known-one mask with zeros.
            let kz = a.known_zero.not().zext(to).not();
            AbsValue::Bv(
                AbsBv {
                    width: to,
                    known_zero: kz,
                    known_one: a.known_one.zext(to),
                    lo: a.lo.zext(to),
                    hi: a.hi.zext(to),
                    flat: Flat::Top,
                }
                .reduce(),
            )
        }
        BvSext { to } => {
            let a = args[0].as_abv();
            // sext replicates each mask's top bit, which is set exactly
            // when the sign bit is known on that side.
            AbsValue::Bv(AbsBv::from_masks(
                &a.known_zero.sext(to),
                &a.known_one.sext(to),
            ))
        }
        BvUlt => AbsValue::Bool(abs_ult(args[0].as_abv(), args[1].as_abv())),
        BvUle => AbsValue::Bool(abs_ule(args[0].as_abv(), args[1].as_abv())),
        BvSlt | BvSle => AbsValue::Bool(AbsBool::Top),
        MemRead => AbsValue::top_of(result),
        MemWrite => AbsValue::Mem,
        BoolToBv => AbsValue::Bv(AbsBv::top(1)),
    }
}

fn abs_xor(a: AbsBool, b: AbsBool) -> AbsBool {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => AbsBool::from_bool(x ^ y),
        _ => {
            if a == AbsBool::Bot || b == AbsBool::Bot {
                AbsBool::Bot
            } else {
                AbsBool::Top
            }
        }
    }
}

fn abs_eq(a: &AbsValue, b: &AbsValue) -> AbsBool {
    match (a, b) {
        (AbsValue::Bool(x), AbsValue::Bool(y)) => match (x.as_const(), y.as_const()) {
            (Some(p), Some(q)) => AbsBool::from_bool(p == q),
            _ => AbsBool::Top,
        },
        (AbsValue::Bv(x), AbsValue::Bv(y)) => {
            if let (Some(p), Some(q)) = (x.as_const(), y.as_const()) {
                AbsBool::from_bool(p == q)
            } else if x.meet(y).is_bottom() {
                // Disjoint sets: the operands can never be equal.
                AbsBool::False
            } else {
                AbsBool::Top
            }
        }
        _ => AbsBool::Top,
    }
}

fn abs_neg(a: &AbsBv) -> AbsBv {
    // -x = 2^w - x for x != 0; monotone decreasing away from zero.
    if !a.lo.is_zero() {
        AbsBv::from_range(&a.hi.neg(), &a.lo.neg())
    } else {
        AbsBv::top(a.width)
    }
}

fn abs_add(a: &AbsBv, b: &AbsBv) -> AbsBv {
    let hi = a.hi.add(&b.hi);
    // Unsigned wrap check: a single add overflowed iff the sum dropped
    // below either operand. lo cannot overflow if hi did not.
    if hi.ult(&a.hi) {
        AbsBv::top(a.width)
    } else {
        AbsBv::from_range(&a.lo.add(&b.lo), &hi)
    }
}

fn abs_sub(a: &AbsBv, b: &AbsBv) -> AbsBv {
    if b.hi.ule(&a.lo) {
        AbsBv::from_range(&a.lo.sub(&b.hi), &a.hi.sub(&b.lo))
    } else {
        AbsBv::top(a.width)
    }
}

fn abs_mul(a: &AbsBv, b: &AbsBv) -> AbsBv {
    // No overflow possible when the operands' significant bits fit the
    // width: (2^p - 1)(2^q - 1) < 2^(p+q).
    if sig_bits(&a.hi) + sig_bits(&b.hi) <= a.width {
        AbsBv::from_range(&a.lo.mul(&b.lo), &a.hi.mul(&b.hi))
    } else {
        AbsBv::top(a.width)
    }
}

fn abs_udiv(a: &AbsBv, b: &AbsBv) -> AbsBv {
    if !b.lo.is_zero() {
        AbsBv::from_range(&a.lo.udiv(&b.hi), &a.hi.udiv(&b.lo))
    } else {
        // The divisor may be zero and x/0 = ones; give up.
        AbsBv::top(a.width)
    }
}

fn abs_urem(a: &AbsBv, b: &AbsBv) -> AbsBv {
    // x % y <= x always (y = 0 yields x, y > x yields x, else < y).
    let mut hi = a.hi.clone();
    if !b.lo.is_zero() {
        hi = umin(&hi, &b.hi.sub(&BitVecValue::one(b.width)));
    }
    AbsBv::from_range(&BitVecValue::zero(a.width), &hi)
}

fn abs_shl(a: &AbsBv, b: &AbsBv) -> AbsBv {
    match b.as_const().map(|s| s.try_to_u64().unwrap_or(u64::MAX)) {
        Some(s) if s < a.width as u64 => {
            let s = s as u32;
            AbsBv::from_masks(
                &mask_shl(&a.known_zero, s, true),
                &mask_shl(&a.known_one, s, false),
            )
        }
        Some(_) => AbsBv::from_const(&BitVecValue::zero(a.width)),
        None => AbsBv::top(a.width),
    }
}

fn abs_lshr(a: &AbsBv, b: &AbsBv) -> AbsBv {
    match b.as_const().map(|s| s.try_to_u64().unwrap_or(u64::MAX)) {
        Some(s) if s < a.width as u64 => {
            let s = s as u32;
            AbsBv::from_masks(
                &mask_lshr(&a.known_zero, s, true),
                &mask_lshr(&a.known_one, s, false),
            )
        }
        Some(_) => AbsBv::from_const(&BitVecValue::zero(a.width)),
        // Unknown shift: x >> s <= x, and an over-shift yields zero.
        None => AbsBv::from_range(&BitVecValue::zero(a.width), &a.hi),
    }
}

fn abs_ashr(a: &AbsBv, b: &AbsBv) -> AbsBv {
    match b.as_const().map(|s| s.try_to_u64().unwrap_or(u64::MAX)) {
        Some(s) => {
            // An over-shift fills with the sign bit, which equals a
            // shift by width-1 for any width >= 1.
            let s = (s.min(a.width as u64 - 1)) as u32;
            // Shifting each mask right and filling with its own top
            // bit replicates the result's sign bits exactly when the
            // operand's sign is known on that side.
            AbsBv::from_masks(
                &mask_lshr(&a.known_zero, s, a.known_zero.bit(a.width - 1)),
                &mask_lshr(&a.known_one, s, a.known_one.bit(a.width - 1)),
            )
        }
        None => {
            if a.known_zero.bit(a.width - 1) {
                // Sign known zero: behaves like a logical shift.
                AbsBv::from_range(&BitVecValue::zero(a.width), &a.hi)
            } else {
                AbsBv::top(a.width)
            }
        }
    }
}

fn abs_ult(a: &AbsBv, b: &AbsBv) -> AbsBool {
    if a.hi.ult(&b.lo) {
        AbsBool::True
    } else if b.hi.ule(&a.lo) {
        AbsBool::False
    } else {
        AbsBool::Top
    }
}

fn abs_ule(a: &AbsBv, b: &AbsBv) -> AbsBool {
    if a.hi.ule(&b.lo) {
        AbsBool::True
    } else if b.hi.ult(&a.lo) {
        AbsBool::False
    } else {
        AbsBool::Top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, Env, Sort};

    fn bv(x: u64, w: u32) -> BitVecValue {
        BitVecValue::from_u64(x, w)
    }

    #[test]
    fn reduce_singleton_interval_becomes_const() {
        let a = AbsBv::from_range(&bv(7, 8), &bv(7, 8));
        assert_eq!(a.as_const(), Some(&bv(7, 8)));
    }

    #[test]
    fn reduce_leading_bits_from_interval() {
        // [0x40, 0x43]: the top six bits agree.
        let a = AbsBv::from_range(&bv(0x40, 8), &bv(0x43, 8));
        assert_eq!(a.known_one(), &bv(0x40, 8));
        assert_eq!(a.known_zero(), &bv(0xBC, 8));
        assert!(a.contains(&bv(0x41, 8)));
        assert!(!a.contains(&bv(0x44, 8)));
    }

    #[test]
    fn masks_clamp_interval() {
        // Bit 0 known one: lo rises to 1.
        let a = AbsBv::from_masks(&bv(0, 8), &bv(1, 8));
        assert_eq!(a.lo(), &bv(1, 8));
        assert!(!a.contains(&bv(2, 8)));
        assert!(a.contains(&bv(3, 8)));
    }

    #[test]
    fn meet_of_disjoint_is_bottom() {
        let a = AbsBv::from_range(&bv(0, 8), &bv(3, 8));
        let b = AbsBv::from_range(&bv(4, 8), &bv(9, 8));
        assert!(a.meet(&b).is_bottom());
        assert!(!a.join(&b).is_bottom());
    }

    #[test]
    fn widen_jumps_to_extremes() {
        let a = AbsBv::from_range(&bv(2, 8), &bv(5, 8));
        let b = AbsBv::from_range(&bv(2, 8), &bv(6, 8));
        let w = a.widen(&b);
        assert_eq!(w.lo(), &bv(2, 8));
        // The interval jumps toward the extreme but the reduction
        // clamps it back under the surviving known-zero bits.
        assert_eq!(w.hi(), &bv(7, 8));
        // Stable input stays put.
        assert_eq!(w.widen(&b), w);
    }

    #[test]
    fn abs_eval_tracks_concrete_on_arith() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let three = ctx.bv_u64(3, 8);
        let e = ctx.bvadd(x, three);
        let mut aenv = AbsEnv::new();
        aenv.bind(x, AbsValue::Bv(AbsBv::from_range(&bv(0, 8), &bv(10, 8))));
        let out = abs_eval(&ctx, e, &aenv);
        let mut env = Env::new();
        for v in 0..=10u64 {
            env.bind_u64(&ctx, "x", v);
            assert!(out.contains(&eval(&ctx, e, &env).unwrap()));
        }
        match &out {
            AbsValue::Bv(b) => {
                assert_eq!(b.lo(), &bv(3, 8));
                assert_eq!(b.hi(), &bv(13, 8));
            }
            other => panic!("expected bv, got {other:?}"),
        }
    }

    #[test]
    fn abs_eval_decides_comparison() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let lim = ctx.bv_u64(100, 8);
        let e = ctx.ult(x, lim);
        let mut aenv = AbsEnv::new();
        aenv.bind(x, AbsValue::Bv(AbsBv::from_range(&bv(0, 8), &bv(20, 8))));
        assert_eq!(abs_eval(&ctx, e, &aenv), AbsValue::Bool(AbsBool::True));
        aenv.bind(x, AbsValue::Bv(AbsBv::from_range(&bv(100, 8), &bv(200, 8))));
        assert_eq!(abs_eval(&ctx, e, &aenv), AbsValue::Bool(AbsBool::False));
    }

    #[test]
    fn bottom_propagates_through_apps() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let e = ctx.bvadd(x, y);
        let mut aenv = AbsEnv::new();
        aenv.bind(x, AbsValue::Bv(AbsBv::bottom(8)));
        assert!(abs_eval(&ctx, e, &aenv).is_bottom());
    }

    // Bit-serial versions of the mask helpers, as differential references.

    fn sig_bits_ref(v: &BitVecValue) -> u32 {
        (0..v.width())
            .rev()
            .find(|&i| v.bit(i))
            .map_or(0, |i| i + 1)
    }

    fn mask_shl_ref(v: &BitVecValue, s: u32, fill: bool) -> BitVecValue {
        let bits: Vec<bool> = (0..v.width())
            .map(|i| if i < s { fill } else { v.bit(i - s) })
            .collect();
        BitVecValue::from_bits(&bits)
    }

    fn mask_lshr_ref(v: &BitVecValue, s: u32, fill: bool) -> BitVecValue {
        let w = v.width();
        let bits: Vec<bool> = (0..w)
            .map(|i| if i + s < w { v.bit(i + s) } else { fill })
            .collect();
        BitVecValue::from_bits(&bits)
    }

    #[test]
    fn mask_helpers_match_bit_serial_references() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xab5);
        for w in 1..=130u32 {
            for sparse in [false, true] {
                let bits: Vec<bool> = (0..w)
                    .map(|_| rng.gen::<bool>() && (!sparse || rng.gen_range(0..w) == 0))
                    .collect();
                let v = BitVecValue::from_bits(&bits);
                assert_eq!(sig_bits(&v), sig_bits_ref(&v), "{v:?}");
                for s in 0..w {
                    for fill in [false, true] {
                        assert_eq!(
                            mask_shl(&v, s, fill),
                            mask_shl_ref(&v, s, fill),
                            "{v:?} << {s}"
                        );
                        assert_eq!(
                            mask_lshr(&v, s, fill),
                            mask_lshr_ref(&v, s, fill),
                            "{v:?} >> {s}"
                        );
                    }
                }
            }
            assert_eq!(sig_bits(&BitVecValue::zero(w)), 0);
            assert_eq!(sig_bits(&BitVecValue::ones(w)), w);
        }
    }

    #[test]
    fn unbound_vars_are_top() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(4));
        let v = abs_eval(&ctx, x, &AbsEnv::new());
        for i in 0..16u64 {
            assert!(v.contains(&Value::Bv(bv(i, 4))));
        }
    }
}
