//! The expression context: a hash-consing arena for expression DAGs.
//!
//! All expressions live inside an [`ExprCtx`] and are referred to by the
//! lightweight copyable handle [`ExprRef`]. Structurally identical
//! expressions are interned to the same handle, so semantic construction
//! is cheap and sharing is maximal. Constant operands are folded at
//! construction time.

use std::collections::HashMap;
use std::fmt;

use crate::value::{BitVecValue, MemValue};
use crate::Sort;

/// A handle to an interned expression inside an [`ExprCtx`].
///
/// Handles are only meaningful together with the context that created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprRef(u32);

impl ExprRef {
    /// The raw index of this expression in its context.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An operator applied to argument expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    // --- boolean connectives ---
    /// Boolean negation (1 arg).
    Not,
    /// Boolean conjunction (2 args).
    And,
    /// Boolean disjunction (2 args).
    Or,
    /// Boolean exclusive or (2 args).
    Xor,
    /// Boolean implication (2 args).
    Implies,
    /// Boolean equivalence (2 args).
    Iff,
    /// If-then-else over any sort: `Ite(cond: bool, then, else)` (3 args).
    Ite,
    /// Polymorphic equality over bool, bit-vector, or memory (2 args).
    Eq,

    // --- bit-vector operations ---
    /// Bitwise complement (1 arg).
    BvNot,
    /// Two's-complement negation (1 arg).
    BvNeg,
    /// Bitwise and (2 args).
    BvAnd,
    /// Bitwise or (2 args).
    BvOr,
    /// Bitwise xor (2 args).
    BvXor,
    /// Wrapping addition (2 args).
    BvAdd,
    /// Wrapping subtraction (2 args).
    BvSub,
    /// Wrapping multiplication (2 args).
    BvMul,
    /// Unsigned division, `x / 0 = all-ones` (2 args).
    BvUdiv,
    /// Unsigned remainder, `x % 0 = x` (2 args).
    BvUrem,
    /// Logical shift left (2 args, same width).
    BvShl,
    /// Logical shift right (2 args, same width).
    BvLshr,
    /// Arithmetic shift right (2 args, same width).
    BvAshr,
    /// Concatenation; first argument becomes the high bits (2 args).
    BvConcat,
    /// Bit range extraction `[hi:lo]`, inclusive (1 arg).
    BvExtract {
        /// High bit index (inclusive).
        hi: u32,
        /// Low bit index (inclusive).
        lo: u32,
    },
    /// Zero extension to `to` bits (1 arg).
    BvZext {
        /// Target width.
        to: u32,
    },
    /// Sign extension to `to` bits (1 arg).
    BvSext {
        /// Target width.
        to: u32,
    },
    /// Unsigned less-than (2 args) -> bool.
    BvUlt,
    /// Unsigned less-or-equal (2 args) -> bool.
    BvUle,
    /// Signed less-than (2 args) -> bool.
    BvSlt,
    /// Signed less-or-equal (2 args) -> bool.
    BvSle,

    // --- memory operations ---
    /// `MemRead(mem, addr) -> data` (2 args).
    MemRead,
    /// `MemWrite(mem, addr, data) -> mem` (3 args).
    MemWrite,

    // --- conversions ---
    /// Converts a boolean to a 1-bit vector: true -> 1, false -> 0 (1 arg).
    BoolToBv,
}

/// An interned expression node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExprNode {
    /// A boolean constant.
    BoolConst(bool),
    /// A bit-vector constant.
    BvConst(BitVecValue),
    /// A memory constant.
    MemConst(MemValue),
    /// A free variable.
    Var {
        /// Unique name within the context.
        name: String,
        /// Sort of the variable.
        sort: Sort,
    },
    /// An operator applied to arguments.
    App {
        /// The operator.
        op: Op,
        /// Argument handles.
        args: Vec<ExprRef>,
        /// Result sort (cached).
        sort: Sort,
    },
}

/// An error produced when constructing an ill-sorted expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortError {
    message: String,
}

impl SortError {
    fn new(message: impl Into<String>) -> Self {
        SortError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sort error: {}", self.message)
    }
}

impl std::error::Error for SortError {}

/// A hash-consing arena of expressions.
///
/// # Examples
///
/// ```
/// use gila_expr::{ExprCtx, Sort};
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let one = ctx.bv_u64(1, 8);
/// let y1 = ctx.bvadd(x, one);
/// let y2 = ctx.bvadd(x, one);
/// assert_eq!(y1, y2); // hash-consed
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExprCtx {
    nodes: Vec<ExprNode>,
    interner: HashMap<ExprNode, ExprRef>,
    vars_by_name: HashMap<String, ExprRef>,
}

impl ExprCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no expressions have been created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind a handle.
    pub fn node(&self, e: ExprRef) -> &ExprNode {
        &self.nodes[e.index()]
    }

    /// The sort of an expression.
    pub fn sort_of(&self, e: ExprRef) -> Sort {
        match self.node(e) {
            ExprNode::BoolConst(_) => Sort::Bool,
            ExprNode::BvConst(v) => Sort::Bv(v.width()),
            ExprNode::MemConst(m) => Sort::Mem {
                addr_width: m.addr_width(),
                data_width: m.data_width(),
            },
            ExprNode::Var { sort, .. } => *sort,
            ExprNode::App { sort, .. } => *sort,
        }
    }

    fn intern(&mut self, node: ExprNode) -> ExprRef {
        if let Some(&r) = self.interner.get(&node) {
            return r;
        }
        let r = ExprRef(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.interner.insert(node, r);
        r
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Creates (or looks up) a free variable.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the same name but different sort already
    /// exists in this context.
    pub fn var(&mut self, name: impl Into<String>, sort: Sort) -> ExprRef {
        let name = name.into();
        if let Some(&existing) = self.vars_by_name.get(&name) {
            assert_eq!(
                self.sort_of(existing),
                sort,
                "variable {name:?} redeclared with a different sort"
            );
            return existing;
        }
        let r = self.intern(ExprNode::Var {
            name: name.clone(),
            sort,
        });
        self.vars_by_name.insert(name, r);
        r
    }

    /// Looks up a variable by name.
    pub fn find_var(&self, name: &str) -> Option<ExprRef> {
        self.vars_by_name.get(name).copied()
    }

    /// The name of a variable expression, if it is one.
    pub fn var_name(&self, e: ExprRef) -> Option<&str> {
        match self.node(e) {
            ExprNode::Var { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The boolean constant `true`.
    pub fn tt(&mut self) -> ExprRef {
        self.intern(ExprNode::BoolConst(true))
    }

    /// The boolean constant `false`.
    pub fn ff(&mut self) -> ExprRef {
        self.intern(ExprNode::BoolConst(false))
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> ExprRef {
        self.intern(ExprNode::BoolConst(b))
    }

    /// A bit-vector constant.
    pub fn bv(&mut self, value: BitVecValue) -> ExprRef {
        self.intern(ExprNode::BvConst(value))
    }

    /// A bit-vector constant from a `u64` and a width.
    pub fn bv_u64(&mut self, x: u64, width: u32) -> ExprRef {
        self.bv(BitVecValue::from_u64(x, width))
    }

    /// A memory constant.
    pub fn mem_const(&mut self, value: MemValue) -> ExprRef {
        self.intern(ExprNode::MemConst(value))
    }

    /// Returns the constant boolean behind `e`, if it is one.
    pub fn as_bool_const(&self, e: ExprRef) -> Option<bool> {
        match self.node(e) {
            ExprNode::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the constant bit-vector behind `e`, if it is one.
    pub fn as_bv_const(&self, e: ExprRef) -> Option<&BitVecValue> {
        match self.node(e) {
            ExprNode::BvConst(v) => Some(v),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Sort checking and application
    // ------------------------------------------------------------------

    fn expect_bool(&self, e: ExprRef, op: Op) -> Result<(), SortError> {
        if self.sort_of(e).is_bool() {
            Ok(())
        } else {
            Err(SortError::new(format!(
                "{op:?} expects a bool argument, got {}",
                self.sort_of(e)
            )))
        }
    }

    fn expect_bv(&self, e: ExprRef, op: Op) -> Result<u32, SortError> {
        self.sort_of(e).bv_width().ok_or_else(|| {
            SortError::new(format!(
                "{op:?} expects a bit-vector argument, got {}",
                self.sort_of(e)
            ))
        })
    }

    fn expect_same_bv(&self, a: ExprRef, b: ExprRef, op: Op) -> Result<u32, SortError> {
        let wa = self.expect_bv(a, op)?;
        let wb = self.expect_bv(b, op)?;
        if wa != wb {
            return Err(SortError::new(format!(
                "{op:?} width mismatch: {wa} vs {wb}"
            )));
        }
        Ok(wa)
    }

    fn result_sort(&self, op: Op, args: &[ExprRef]) -> Result<Sort, SortError> {
        let arity_err = |n: usize| {
            Err(SortError::new(format!(
                "{op:?} expects {n} arguments, got {}",
                args.len()
            )))
        };
        match op {
            Op::Not => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                self.expect_bool(args[0], op)?;
                Ok(Sort::Bool)
            }
            Op::And | Op::Or | Op::Xor | Op::Implies | Op::Iff => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                self.expect_bool(args[0], op)?;
                self.expect_bool(args[1], op)?;
                Ok(Sort::Bool)
            }
            Op::Ite => {
                if args.len() != 3 {
                    return arity_err(3);
                }
                self.expect_bool(args[0], op)?;
                let st = self.sort_of(args[1]);
                let se = self.sort_of(args[2]);
                if st != se {
                    return Err(SortError::new(format!(
                        "Ite branch sorts differ: {st} vs {se}"
                    )));
                }
                Ok(st)
            }
            Op::Eq => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                let sa = self.sort_of(args[0]);
                let sb = self.sort_of(args[1]);
                if sa != sb {
                    return Err(SortError::new(format!(
                        "Eq argument sorts differ: {sa} vs {sb}"
                    )));
                }
                Ok(Sort::Bool)
            }
            Op::BvNot | Op::BvNeg => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                Ok(Sort::Bv(self.expect_bv(args[0], op)?))
            }
            Op::BvAnd
            | Op::BvOr
            | Op::BvXor
            | Op::BvAdd
            | Op::BvSub
            | Op::BvMul
            | Op::BvUdiv
            | Op::BvUrem
            | Op::BvShl
            | Op::BvLshr
            | Op::BvAshr => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                Ok(Sort::Bv(self.expect_same_bv(args[0], args[1], op)?))
            }
            Op::BvConcat => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                let wa = self.expect_bv(args[0], op)?;
                let wb = self.expect_bv(args[1], op)?;
                Ok(Sort::Bv(wa + wb))
            }
            Op::BvExtract { hi, lo } => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                let w = self.expect_bv(args[0], op)?;
                if hi < lo || hi >= w {
                    return Err(SortError::new(format!(
                        "extract [{hi}:{lo}] out of range for bv{w}"
                    )));
                }
                Ok(Sort::Bv(hi - lo + 1))
            }
            Op::BvZext { to } | Op::BvSext { to } => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                let w = self.expect_bv(args[0], op)?;
                if to < w {
                    return Err(SortError::new(format!(
                        "extension target {to} narrower than bv{w}"
                    )));
                }
                Ok(Sort::Bv(to))
            }
            Op::BvUlt | Op::BvUle | Op::BvSlt | Op::BvSle => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                self.expect_same_bv(args[0], args[1], op)?;
                Ok(Sort::Bool)
            }
            Op::MemRead => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                match self.sort_of(args[0]) {
                    Sort::Mem {
                        addr_width,
                        data_width,
                    } => {
                        let wa = self.expect_bv(args[1], op)?;
                        if wa != addr_width {
                            return Err(SortError::new(format!(
                                "MemRead address width {wa} != memory address width {addr_width}"
                            )));
                        }
                        Ok(Sort::Bv(data_width))
                    }
                    other => Err(SortError::new(format!(
                        "MemRead expects a memory, got {other}"
                    ))),
                }
            }
            Op::MemWrite => {
                if args.len() != 3 {
                    return arity_err(3);
                }
                match self.sort_of(args[0]) {
                    Sort::Mem {
                        addr_width,
                        data_width,
                    } => {
                        let wa = self.expect_bv(args[1], op)?;
                        let wd = self.expect_bv(args[2], op)?;
                        if wa != addr_width {
                            return Err(SortError::new(format!(
                                "MemWrite address width {wa} != memory address width {addr_width}"
                            )));
                        }
                        if wd != data_width {
                            return Err(SortError::new(format!(
                                "MemWrite data width {wd} != memory data width {data_width}"
                            )));
                        }
                        Ok(self.sort_of(args[0]))
                    }
                    other => Err(SortError::new(format!(
                        "MemWrite expects a memory, got {other}"
                    ))),
                }
            }
            Op::BoolToBv => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                self.expect_bool(args[0], op)?;
                Ok(Sort::Bv(1))
            }
        }
    }

    /// Constructs `op(args)` with full sort checking, folding constants.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] if the arguments have the wrong arity or
    /// sorts for `op`.
    pub fn try_app(&mut self, op: Op, args: Vec<ExprRef>) -> Result<ExprRef, SortError> {
        let sort = self.result_sort(op, &args)?;
        if let Some(folded) = self.fold(op, &args) {
            return Ok(folded);
        }
        Ok(self.intern(ExprNode::App { op, args, sort }))
    }

    /// Constructs `op(args)`, panicking on sort errors.
    ///
    /// # Panics
    ///
    /// Panics if the arguments are ill-sorted; prefer [`ExprCtx::try_app`]
    /// when handling untrusted input.
    pub fn app(&mut self, op: Op, args: Vec<ExprRef>) -> ExprRef {
        match self.try_app(op, args) {
            Ok(e) => e,
            Err(err) => panic!("{err}"),
        }
    }

    /// Constant folding and cheap local simplification.
    fn fold(&mut self, op: Op, args: &[ExprRef]) -> Option<ExprRef> {
        use Op::*;
        // Fully constant applications evaluate directly.
        let all_const = args.iter().all(|&a| {
            matches!(
                self.node(a),
                ExprNode::BoolConst(_) | ExprNode::BvConst(_) | ExprNode::MemConst(_)
            )
        });
        if all_const {
            if let Some(r) = self.fold_const(op, args) {
                return Some(r);
            }
        }
        // A few identity rules that keep generated formulas small without a
        // full rewriting pass.
        match op {
            Not => {
                if let ExprNode::App {
                    op: Not,
                    args: inner,
                    ..
                } = self.node(args[0])
                {
                    return Some(inner[0]);
                }
                None
            }
            And => match (self.as_bool_const(args[0]), self.as_bool_const(args[1])) {
                (Some(true), _) => Some(args[1]),
                (_, Some(true)) => Some(args[0]),
                (Some(false), _) | (_, Some(false)) => Some(self.ff()),
                _ if args[0] == args[1] => Some(args[0]),
                _ => None,
            },
            Or => match (self.as_bool_const(args[0]), self.as_bool_const(args[1])) {
                (Some(false), _) => Some(args[1]),
                (_, Some(false)) => Some(args[0]),
                (Some(true), _) | (_, Some(true)) => Some(self.tt()),
                _ if args[0] == args[1] => Some(args[0]),
                _ => None,
            },
            Implies => match (self.as_bool_const(args[0]), self.as_bool_const(args[1])) {
                (Some(false), _) | (_, Some(true)) => Some(self.tt()),
                (Some(true), _) => Some(args[1]),
                _ => None,
            },
            Ite => {
                match self.as_bool_const(args[0]) {
                    Some(true) => return Some(args[1]),
                    Some(false) => return Some(args[2]),
                    None => {}
                }
                if args[1] == args[2] {
                    return Some(args[1]);
                }
                None
            }
            Eq => {
                if args[0] == args[1] {
                    return Some(self.tt());
                }
                // (bool2bv b) == 1'b1  ->  b ;  == 1'b0  ->  !b.
                for (side, other) in [(args[0], args[1]), (args[1], args[0])] {
                    let inner = match self.node(side) {
                        ExprNode::App {
                            op: BoolToBv,
                            args: inner,
                            ..
                        } => inner[0],
                        _ => continue,
                    };
                    if let Some(v) = self.as_bv_const(other) {
                        return Some(if v.is_zero() {
                            self.not(inner)
                        } else {
                            inner
                        });
                    }
                }
                None
            }
            _ => None,
        }
    }

    fn fold_const(&mut self, op: Op, args: &[ExprRef]) -> Option<ExprRef> {
        use crate::eval::{eval, Env};
        // Re-use the evaluator on the constant sub-expression.
        let sort = self.result_sort(op, args).ok()?;
        let node = ExprNode::App {
            op,
            args: args.to_vec(),
            sort,
        };
        let tmp = self.intern(node);
        let env = Env::new();
        match eval(self, tmp, &env) {
            Ok(crate::Value::Bool(b)) => Some(self.bool_const(b)),
            Ok(crate::Value::Bv(v)) => Some(self.bv(v)),
            Ok(crate::Value::Mem(m)) => Some(self.mem_const(m)),
            Err(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Convenience builders (all panic on sort errors)
    // ------------------------------------------------------------------

    /// Boolean negation.
    pub fn not(&mut self, a: ExprRef) -> ExprRef {
        self.app(Op::Not, vec![a])
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::And, vec![a, b])
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::Or, vec![a, b])
    }

    /// Boolean exclusive or.
    pub fn xor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::Xor, vec![a, b])
    }

    /// Boolean implication.
    pub fn implies(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::Implies, vec![a, b])
    }

    /// Boolean equivalence.
    pub fn iff(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::Iff, vec![a, b])
    }

    /// If-then-else over any sort.
    pub fn ite(&mut self, c: ExprRef, t: ExprRef, e: ExprRef) -> ExprRef {
        self.app(Op::Ite, vec![c, t, e])
    }

    /// Polymorphic equality.
    pub fn eq(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::Eq, vec![a, b])
    }

    /// Polymorphic disequality.
    pub fn ne(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Conjunction of many booleans (empty list yields `true`).
    pub fn and_many(&mut self, es: &[ExprRef]) -> ExprRef {
        let mut acc = self.tt();
        for &e in es {
            acc = self.and(acc, e);
        }
        acc
    }

    /// Disjunction of many booleans (empty list yields `false`).
    pub fn or_many(&mut self, es: &[ExprRef]) -> ExprRef {
        let mut acc = self.ff();
        for &e in es {
            acc = self.or(acc, e);
        }
        acc
    }

    /// Bitwise complement.
    pub fn bvnot(&mut self, a: ExprRef) -> ExprRef {
        self.app(Op::BvNot, vec![a])
    }

    /// Two's-complement negation.
    pub fn bvneg(&mut self, a: ExprRef) -> ExprRef {
        self.app(Op::BvNeg, vec![a])
    }

    /// Bitwise and.
    pub fn bvand(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvAnd, vec![a, b])
    }

    /// Bitwise or.
    pub fn bvor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvOr, vec![a, b])
    }

    /// Bitwise xor.
    pub fn bvxor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvXor, vec![a, b])
    }

    /// Wrapping addition.
    pub fn bvadd(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvAdd, vec![a, b])
    }

    /// Wrapping subtraction.
    pub fn bvsub(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvSub, vec![a, b])
    }

    /// Wrapping multiplication.
    pub fn bvmul(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvMul, vec![a, b])
    }

    /// Unsigned division.
    pub fn bvudiv(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvUdiv, vec![a, b])
    }

    /// Unsigned remainder.
    pub fn bvurem(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvUrem, vec![a, b])
    }

    /// Logical shift left.
    pub fn bvshl(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvShl, vec![a, b])
    }

    /// Logical shift right.
    pub fn bvlshr(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvLshr, vec![a, b])
    }

    /// Arithmetic shift right.
    pub fn bvashr(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvAshr, vec![a, b])
    }

    /// Concatenation (`a` high, `b` low).
    pub fn concat(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvConcat, vec![a, b])
    }

    /// Extraction of bits `[hi:lo]` inclusive.
    pub fn extract(&mut self, a: ExprRef, hi: u32, lo: u32) -> ExprRef {
        self.app(Op::BvExtract { hi, lo }, vec![a])
    }

    /// Zero extension.
    pub fn zext(&mut self, a: ExprRef, to: u32) -> ExprRef {
        if self.sort_of(a).bv_width() == Some(to) {
            return a;
        }
        self.app(Op::BvZext { to }, vec![a])
    }

    /// Sign extension.
    pub fn sext(&mut self, a: ExprRef, to: u32) -> ExprRef {
        if self.sort_of(a).bv_width() == Some(to) {
            return a;
        }
        self.app(Op::BvSext { to }, vec![a])
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvUlt, vec![a, b])
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvUle, vec![a, b])
    }

    /// Unsigned greater-than.
    pub fn ugt(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvUlt, vec![b, a])
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvUle, vec![b, a])
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvSlt, vec![a, b])
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app(Op::BvSle, vec![a, b])
    }

    /// Memory read.
    pub fn mem_read(&mut self, mem: ExprRef, addr: ExprRef) -> ExprRef {
        self.app(Op::MemRead, vec![mem, addr])
    }

    /// Memory write (functional: returns the updated memory).
    pub fn mem_write(&mut self, mem: ExprRef, addr: ExprRef, data: ExprRef) -> ExprRef {
        self.app(Op::MemWrite, vec![mem, addr, data])
    }

    /// Boolean to 1-bit vector conversion.
    pub fn bool_to_bv(&mut self, a: ExprRef) -> ExprRef {
        self.app(Op::BoolToBv, vec![a])
    }

    /// 1-bit (or wider) vector to boolean: true iff nonzero.
    pub fn bv_to_bool(&mut self, a: ExprRef) -> ExprRef {
        let w = self
            .sort_of(a)
            .bv_width()
            .unwrap_or_else(|| panic!("bv_to_bool expects a bit-vector, got {}", self.sort_of(a)));
        let zero = self.bv_u64(0, w);
        self.ne(a, zero)
    }

    /// Convenience: `a == (u64 constant)`.
    pub fn eq_u64(&mut self, a: ExprRef, x: u64) -> ExprRef {
        let w = self
            .sort_of(a)
            .bv_width()
            .unwrap_or_else(|| panic!("eq_u64 expects a bit-vector, got {}", self.sort_of(a)));
        let c = self.bv_u64(x, w);
        self.eq(a, c)
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Argument handles of an application node (empty for leaves).
    pub fn args(&self, e: ExprRef) -> &[ExprRef] {
        match self.node(e) {
            ExprNode::App { args, .. } => args,
            _ => &[],
        }
    }

    /// Returns all nodes reachable from `roots` in post-order
    /// (children before parents), each exactly once.
    pub fn post_order(&self, roots: &[ExprRef]) -> Vec<ExprRef> {
        let mut order = Vec::new();
        let mut state = vec![0u8; self.nodes.len()]; // 0 unseen, 1 open, 2 done
        let mut stack: Vec<ExprRef> = roots.to_vec();
        while let Some(&top) = stack.last() {
            match state[top.index()] {
                0 => {
                    state[top.index()] = 1;
                    for &a in self.args(top) {
                        if state[a.index()] == 0 {
                            stack.push(a);
                        }
                    }
                }
                1 => {
                    state[top.index()] = 2;
                    order.push(top);
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
        order
    }

    /// Collects the free variables reachable from `roots`, in first-seen order.
    pub fn vars_of(&self, roots: &[ExprRef]) -> Vec<ExprRef> {
        self.post_order(roots)
            .into_iter()
            .filter(|&e| matches!(self.node(e), ExprNode::Var { .. }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let a = ctx.bvadd(x, y);
        let b = ctx.bvadd(x, y);
        assert_eq!(a, b);
        let c = ctx.bvadd(y, x);
        assert_ne!(a, c); // structural, not AC
    }

    #[test]
    fn constant_folding() {
        let mut ctx = ExprCtx::new();
        let a = ctx.bv_u64(3, 8);
        let b = ctx.bv_u64(4, 8);
        let s = ctx.bvadd(a, b);
        assert_eq!(ctx.as_bv_const(s), Some(&BitVecValue::from_u64(7, 8)));
        let cmp = ctx.ult(a, b);
        assert_eq!(ctx.as_bool_const(cmp), Some(true));
    }

    #[test]
    fn identity_rules() {
        let mut ctx = ExprCtx::new();
        let p = ctx.var("p", Sort::Bool);
        let t = ctx.tt();
        let f = ctx.ff();
        assert_eq!(ctx.and(p, t), p);
        assert_eq!(ctx.and(p, f), f);
        assert_eq!(ctx.or(p, f), p);
        let np = ctx.not(p);
        assert_eq!(ctx.not(np), p);
        let x = ctx.var("x", Sort::Bv(4));
        let y = ctx.var("y", Sort::Bv(4));
        assert_eq!(ctx.ite(t, x, y), x);
        assert_eq!(ctx.ite(f, x, y), y);
        assert_eq!(ctx.ite(p, x, x), x);
        let e = ctx.eq(x, x);
        assert_eq!(ctx.as_bool_const(e), Some(true));
    }

    #[test]
    fn bool_bv_roundtrip_folds() {
        let mut ctx = ExprCtx::new();
        let p = ctx.var("p", Sort::Bool);
        let b = ctx.bool_to_bv(p);
        let one = ctx.bv_u64(1, 1);
        let zero = ctx.bv_u64(0, 1);
        assert_eq!(ctx.eq(b, one), p);
        let np = ctx.not(p);
        assert_eq!(ctx.eq(b, zero), np);
        assert_eq!(ctx.eq(one, b), p);
        // bv_to_bool(bool_to_bv(p)) collapses to p.
        assert_eq!(ctx.bv_to_bool(b), p);
    }

    #[test]
    fn sort_errors() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(9));
        assert!(ctx.try_app(Op::BvAdd, vec![x, y]).is_err());
        assert!(ctx.try_app(Op::And, vec![x, y]).is_err());
        assert!(ctx.try_app(Op::BvExtract { hi: 8, lo: 0 }, vec![x]).is_err());
        assert!(ctx.try_app(Op::BvExtract { hi: 0, lo: 1 }, vec![x]).is_err());
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn var_redeclaration_panics() {
        let mut ctx = ExprCtx::new();
        ctx.var("x", Sort::Bv(8));
        ctx.var("x", Sort::Bool);
    }

    #[test]
    fn post_order_children_first() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let s = ctx.bvadd(x, y);
        let p = ctx.bvmul(s, x);
        let order = ctx.post_order(&[p]);
        let pos = |e: ExprRef| order.iter().position(|&o| o == e).unwrap();
        assert!(pos(x) < pos(s));
        assert!(pos(y) < pos(s));
        assert!(pos(s) < pos(p));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn vars_of_collects_leaves() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let c = ctx.bv_u64(1, 8);
        let e1 = ctx.bvadd(x, c);
        let e = ctx.bvadd(e1, y);
        let vars = ctx.vars_of(&[e]);
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&x) && vars.contains(&y));
    }

    #[test]
    fn mem_sorts() {
        let mut ctx = ExprCtx::new();
        let m = ctx.var(
            "m",
            Sort::Mem {
                addr_width: 4,
                data_width: 8,
            },
        );
        let a = ctx.var("a", Sort::Bv(4));
        let d = ctx.var("d", Sort::Bv(8));
        let r = ctx.mem_read(m, a);
        assert_eq!(ctx.sort_of(r), Sort::Bv(8));
        let w = ctx.mem_write(m, a, d);
        assert_eq!(ctx.sort_of(w), ctx.sort_of(m));
        assert!(ctx.try_app(Op::MemRead, vec![m, d]).is_err());
    }
}
