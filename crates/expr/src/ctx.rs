//! The expression context: a hash-consing arena for expression DAGs.
//!
//! All expressions live inside an [`ExprCtx`] and are referred to by the
//! lightweight copyable handle [`ExprRef`]. Structurally identical
//! expressions are interned to the same handle, so semantic construction
//! is cheap and sharing is maximal. Constant operands are folded at
//! construction time.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::eval::apply;
use crate::hash::ExprHasher;
use crate::value::{BitVecValue, MemValue, Value};
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

/// One slot of the hash-consing table: a node's handle and the high
/// half of its hash, or [`EMPTY`].
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u32,
    handle: u32,
}

/// The handle of an empty [`Slot`].
const EMPTY: u32 = u32::MAX;

/// The slot a `tag` probes first in a table of `len` slots: its high
/// bits scaled to the table.
fn home(tag: u32, len: usize) -> usize {
    ((u64::from(tag) * len as u64) >> 32) as usize
}

/// A hash-consing arena of expressions.
///
/// Each node is stored once, in `nodes`. The table that finds a node's
/// handle is open-addressed and holds only `(tag, handle)` slots: a
/// lookup probes by the node's hash and compares against `nodes`. A
/// leaf's constant or name comes from input text, so leaves hash with
/// keyed SipHash, and crafted constants cannot share one probe run; an
/// application hashes its operator and the handles the arena assigned,
/// with the cheap [`ExprHasher`].
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
    /// Linear-probing table over `nodes`; its length is zero or a power
    /// of two, at most half full.
    table: Vec<Slot>,
    /// The keys of the leaves' hash; a clone keeps them.
    leaf_keys: RandomState,
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

    /// The handle of a leaf node, created if new.
    fn intern(&mut self, node: ExprNode) -> ExprRef {
        let hash = self.leaf_keys.hash_one(&node);
        self.intern_with(hash, |n| *n == node, || node.clone())
    }

    /// The handle of `op(args)` of sort `sort`, created if new; `args`
    /// is copied only then.
    fn intern_app(&mut self, op: Op, args: &[ExprRef], sort: Sort) -> ExprRef {
        let same = |n: &ExprNode| match n {
            ExprNode::App {
                op: o,
                args: a,
                sort: s,
            } => *o == op && a == args && *s == sort,
            _ => false,
        };
        let make = || ExprNode::App {
            op,
            args: args.to_vec(),
            sort,
        };
        let mut h = ExprHasher::default();
        (op, args, sort).hash(&mut h);
        self.intern_with(h.finish(), same, make)
    }

    /// Probes the table for a node with this `hash` that is `same`, and
    /// pushes `make()` as a new node if there is none.
    fn intern_with(
        &mut self,
        hash: u64,
        same: impl Fn(&ExprNode) -> bool,
        make: impl FnOnce() -> ExprNode,
    ) -> ExprRef {
        if 2 * (self.nodes.len() + 1) > self.table.len() {
            self.grow();
        }
        let tag = (hash >> 32) as u32;
        let mask = self.table.len() - 1;
        let mut i = home(tag, self.table.len());
        loop {
            let slot = self.table[i];
            if slot.handle == EMPTY {
                break;
            }
            if slot.tag == tag && same(&self.nodes[slot.handle as usize]) {
                return ExprRef(slot.handle);
            }
            i = (i + 1) & mask;
        }
        let r = ExprRef(self.nodes.len() as u32);
        self.table[i] = Slot { tag, handle: r.0 };
        self.nodes.push(make());
        r
    }

    /// Doubles the table (to 16 slots at first), placing every slot by
    /// its tag alone: no node is hashed again.
    fn grow(&mut self) {
        let len = (2 * self.table.len()).max(16);
        let empty = Slot {
            tag: 0,
            handle: EMPTY,
        };
        let mut table = vec![empty; len];
        for &slot in self.table.iter().filter(|s| s.handle != EMPTY) {
            let mut i = home(slot.tag, len);
            while table[i].handle != EMPTY {
                i = (i + 1) & (len - 1);
            }
            table[i] = slot;
        }
        self.table = table;
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
        self.try_app_of(op, &args)
    }

    /// [`ExprCtx::try_app`] over borrowed arguments.
    fn try_app_of(&mut self, op: Op, args: &[ExprRef]) -> Result<ExprRef, SortError> {
        let sort = self.result_sort(op, args)?;
        if let Some(folded) = self.fold(op, args) {
            return Ok(folded);
        }
        Ok(self.intern_app(op, args, sort))
    }

    /// Constructs `op(args)`, panicking on sort errors.
    ///
    /// # Panics
    ///
    /// Panics if the arguments are ill-sorted; prefer [`ExprCtx::try_app`]
    /// when handling untrusted input.
    pub fn app(&mut self, op: Op, args: Vec<ExprRef>) -> ExprRef {
        self.app_of(op, &args)
    }

    /// [`ExprCtx::app`] over borrowed arguments.
    pub(crate) fn app_of(&mut self, op: Op, args: &[ExprRef]) -> ExprRef {
        match self.try_app_of(op, args) {
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
            return Some(self.fold_const(op, args));
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

    /// Folds a well-sorted application of `op` to constants (at most
    /// three) through [`apply`], the semantics `eval` and the tape share;
    /// only the result is interned.
    fn fold_const(&mut self, op: Op, args: &[ExprRef]) -> ExprRef {
        let mut values = [Value::Bool(false), Value::Bool(false), Value::Bool(false)];
        for (value, &a) in values.iter_mut().zip(args) {
            *value = match self.node(a) {
                ExprNode::BoolConst(b) => Value::Bool(*b),
                ExprNode::BvConst(v) => Value::Bv(v.clone()),
                ExprNode::MemConst(m) => Value::Mem(m.clone()),
                ExprNode::Var { .. } | ExprNode::App { .. } => unreachable!("constant arguments"),
            };
        }
        let [a, b, c] = &values;
        match apply(op, &[a, b, c][..args.len()]) {
            Value::Bool(b) => self.bool_const(b),
            Value::Bv(v) => self.bv(v),
            Value::Mem(m) => self.mem_const(m),
        }
    }

    // ------------------------------------------------------------------
    // Convenience builders (all panic on sort errors)
    // ------------------------------------------------------------------

    /// Boolean negation.
    pub fn not(&mut self, a: ExprRef) -> ExprRef {
        self.app_of(Op::Not, &[a])
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::And, &[a, b])
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::Or, &[a, b])
    }

    /// Boolean exclusive or.
    pub fn xor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::Xor, &[a, b])
    }

    /// Boolean implication.
    pub fn implies(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::Implies, &[a, b])
    }

    /// Boolean equivalence.
    pub fn iff(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::Iff, &[a, b])
    }

    /// If-then-else over any sort.
    pub fn ite(&mut self, c: ExprRef, t: ExprRef, e: ExprRef) -> ExprRef {
        self.app_of(Op::Ite, &[c, t, e])
    }

    /// Polymorphic equality.
    pub fn eq(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::Eq, &[a, b])
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
        self.app_of(Op::BvNot, &[a])
    }

    /// Two's-complement negation.
    pub fn bvneg(&mut self, a: ExprRef) -> ExprRef {
        self.app_of(Op::BvNeg, &[a])
    }

    /// Bitwise and.
    pub fn bvand(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvAnd, &[a, b])
    }

    /// Bitwise or.
    pub fn bvor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvOr, &[a, b])
    }

    /// Bitwise xor.
    pub fn bvxor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvXor, &[a, b])
    }

    /// Wrapping addition.
    pub fn bvadd(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvAdd, &[a, b])
    }

    /// Wrapping subtraction.
    pub fn bvsub(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvSub, &[a, b])
    }

    /// Wrapping multiplication.
    pub fn bvmul(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvMul, &[a, b])
    }

    /// Unsigned division.
    pub fn bvudiv(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvUdiv, &[a, b])
    }

    /// Unsigned remainder.
    pub fn bvurem(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvUrem, &[a, b])
    }

    /// Logical shift left.
    pub fn bvshl(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvShl, &[a, b])
    }

    /// Logical shift right.
    pub fn bvlshr(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvLshr, &[a, b])
    }

    /// Arithmetic shift right.
    pub fn bvashr(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvAshr, &[a, b])
    }

    /// Concatenation (`a` high, `b` low).
    pub fn concat(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvConcat, &[a, b])
    }

    /// Extraction of bits `[hi:lo]` inclusive.
    pub fn extract(&mut self, a: ExprRef, hi: u32, lo: u32) -> ExprRef {
        self.app_of(Op::BvExtract { hi, lo }, &[a])
    }

    /// Zero extension.
    pub fn zext(&mut self, a: ExprRef, to: u32) -> ExprRef {
        if self.sort_of(a).bv_width() == Some(to) {
            return a;
        }
        self.app_of(Op::BvZext { to }, &[a])
    }

    /// Sign extension.
    pub fn sext(&mut self, a: ExprRef, to: u32) -> ExprRef {
        if self.sort_of(a).bv_width() == Some(to) {
            return a;
        }
        self.app_of(Op::BvSext { to }, &[a])
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvUlt, &[a, b])
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvUle, &[a, b])
    }

    /// Unsigned greater-than.
    pub fn ugt(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvUlt, &[b, a])
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvUle, &[b, a])
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvSlt, &[a, b])
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.app_of(Op::BvSle, &[a, b])
    }

    /// Memory read.
    pub fn mem_read(&mut self, mem: ExprRef, addr: ExprRef) -> ExprRef {
        self.app_of(Op::MemRead, &[mem, addr])
    }

    /// Memory write (functional: returns the updated memory).
    pub fn mem_write(&mut self, mem: ExprRef, addr: ExprRef, data: ExprRef) -> ExprRef {
        self.app_of(Op::MemWrite, &[mem, addr, data])
    }

    /// Boolean to 1-bit vector conversion.
    pub fn bool_to_bv(&mut self, a: ExprRef) -> ExprRef {
        self.app_of(Op::BoolToBv, &[a])
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

    /// Every operator, each applied to arguments drawn from `pick` (one
    /// per argument sort): booleans, 8-bit words, 70-bit words (two
    /// limbs) and memories of eight 8-bit words.
    fn every_op(
        ctx: &mut ExprCtx,
        mut pick: impl FnMut(usize) -> ExprRef,
    ) -> Vec<(Op, Vec<ExprRef>)> {
        use Op::*;
        let (b, v, w, m) = (0, 1, 2, 3);
        let addr = ctx.extract(pick(v), 2, 0);
        let bit = ctx.extract(pick(v), 0, 0);
        let mut apps = Vec::new();
        for op in [Not, BvNot, BvNeg] {
            let arg = if op == Not { pick(b) } else { pick(v) };
            apps.push((op, vec![arg]));
        }
        for op in [And, Or, Xor, Implies, Iff] {
            apps.push((op, vec![pick(b), pick(b)]));
        }
        for op in [
            BvAnd, BvOr, BvXor, BvAdd, BvSub, BvMul, BvUdiv, BvUrem, BvShl, BvLshr, BvAshr, BvUlt,
            BvUle, BvSlt, BvSle, Eq,
        ] {
            let sort = [v, w][apps.len() % 2];
            apps.push((op, vec![pick(sort), pick(sort)]));
        }
        apps.push((Eq, vec![pick(m), pick(m)]));
        apps.push((Eq, vec![pick(b), pick(b)]));
        for sort in [b, v, w, m] {
            apps.push((Ite, vec![pick(b), pick(sort), pick(sort)]));
        }
        apps.push((BvConcat, vec![pick(v), pick(w)]));
        apps.push((BvExtract { hi: 69, lo: 3 }, vec![pick(w)]));
        apps.push((BvZext { to: 70 }, vec![pick(v)]));
        apps.push((BvSext { to: 70 }, vec![pick(v)]));
        apps.push((BvSext { to: 9 }, vec![bit]));
        apps.push((MemRead, vec![pick(m), addr]));
        apps.push((MemWrite, vec![pick(m), addr, pick(v)]));
        apps.push((BoolToBv, vec![pick(b)]));
        apps
    }

    fn random_value(rng: &mut rand::rngs::StdRng, sort: usize) -> Value {
        use rand::Rng;
        match sort {
            0 => Value::Bool(rng.gen_bool(0.5)),
            1 => Value::Bv(BitVecValue::from_u64(rng.gen_range(0..256), 8)),
            2 => Value::Bv(
                BitVecValue::from_u64(rng.gen_range(0..64), 6)
                    .concat(&BitVecValue::from_u64(rng.gen(), 64)),
            ),
            _ => {
                let mut mem = MemValue::zeroed(3, 8);
                for a in 0..rng.gen_range(0..8) {
                    mem.write_word_mut(a, rng.gen_range(0..256));
                }
                Value::Mem(mem)
            }
        }
    }

    fn constant(ctx: &mut ExprCtx, v: Value) -> ExprRef {
        match v {
            Value::Bool(b) => ctx.bool_const(b),
            Value::Bv(x) => ctx.bv(x),
            Value::Mem(m) => ctx.mem_const(m),
        }
    }

    fn is_const(ctx: &ExprCtx, e: ExprRef) -> bool {
        matches!(
            ctx.node(e),
            ExprNode::BoolConst(_) | ExprNode::BvConst(_) | ExprNode::MemConst(_)
        )
    }

    /// On random DAGs that apply every operator, substituting random
    /// constants for the variables folds each root to a constant equal
    /// to what `eval` gives the unfolded root under the same values.
    #[test]
    fn folding_agrees_with_eval_on_every_op() {
        use crate::{eval, substitute_cached, Env, ExprMap};
        use rand::{Rng, SeedableRng};
        let mut covered = std::collections::HashSet::new();
        for seed in 0..64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ctx = ExprCtx::new();
            let mem = Sort::Mem {
                addr_width: 3,
                data_width: 8,
            };
            let sorts = [Sort::Bool, Sort::Bv(8), Sort::Bv(70), mem];
            let mut pools: Vec<Vec<ExprRef>> = (0..4)
                .map(|s| {
                    (0..3)
                        .map(|i| ctx.var(format!("v{s}_{i}"), sorts[s]))
                        .collect()
                })
                .collect();
            let (mut env, mut map) = (Env::new(), HashMap::new());
            for v in pools.concat() {
                let value = random_value(
                    &mut rng,
                    sorts.iter().position(|&s| s == ctx.sort_of(v)).unwrap(),
                );
                env.bind(v, value.clone());
                let c = constant(&mut ctx, value);
                map.insert(v, c);
            }
            // A few rounds, each over the previous rounds' results.
            for _ in 0..3 {
                let mut picks = pools.clone();
                for (op, args) in every_op(&mut ctx, |s| picks[s][rng.gen_range(0..picks[s].len())])
                {
                    let e = ctx.app(op, args);
                    if let ExprNode::App { op, .. } = ctx.node(e) {
                        covered.insert(std::mem::discriminant(op));
                    }
                    let s = sorts.iter().position(|&s| s == ctx.sort_of(e));
                    if let Some(s) = s {
                        picks[s].push(e);
                    }
                }
                pools = picks;
            }
            for root in pools.concat() {
                let folded = substitute_cached(&mut ctx, root, &map, &mut ExprMap::default());
                assert!(is_const(&ctx, folded), "seed {seed}: {root:?} did not fold");
                let want = eval(&ctx, root, &env).unwrap();
                let got = eval(&ctx, folded, &Env::new()).unwrap();
                match (&got, &want) {
                    (Value::Mem(g), Value::Mem(w)) => assert!(g.same_contents(w), "seed {seed}"),
                    _ => assert_eq!(got, want, "seed {seed}: {root:?}"),
                }
            }
        }
        assert_eq!(covered.len(), 32, "every operator is covered");
    }

    /// Folding an application of constants interns its result and
    /// nothing else.
    #[test]
    fn folding_creates_no_dead_node() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut ctx = ExprCtx::new();
        let consts: Vec<Vec<ExprRef>> = (0..4)
            .map(|s| {
                (0..2)
                    .map(|_| {
                        let v = random_value(&mut rng, s);
                        constant(&mut ctx, v)
                    })
                    .collect()
            })
            .collect();
        let mut i = 0;
        let apps = every_op(&mut ctx, |s| {
            i += 1;
            consts[s][i % 2]
        });
        for (op, args) in apps {
            let before = ctx.len();
            let e = ctx.app(op, args);
            assert!(is_const(&ctx, e), "{op:?} did not fold");
            assert!(ctx.len() <= before + 1, "{op:?} left a dead node");
        }
    }

    /// Past three table growths, every node re-interns to its own
    /// handle, building a node twice gives one handle, and a clone of
    /// the context interns exactly as the original does.
    #[test]
    fn interner_finds_every_node_after_growth() {
        let build = |ctx: &mut ExprCtx, n: u64| {
            let x = ctx.var("x", Sort::Bv(16));
            let mut e = x;
            for i in 0..n {
                let c = ctx.bv_u64(i % 97, 16);
                e = if i % 3 == 0 {
                    ctx.bvadd(e, c)
                } else {
                    ctx.bvxor(x, e)
                };
                let p = ctx.ult(e, c);
                ctx.ite(p, e, x);
            }
            e
        };
        let mut ctx = ExprCtx::new();
        let root = build(&mut ctx, 400);
        assert!(ctx.table.len() >= 16 << 3, "{} slots", ctx.table.len());
        let len = ctx.len();
        assert_eq!(build(&mut ctx, 400), root);
        assert_eq!(ctx.len(), len);
        for i in 0..len {
            let e = ExprRef(i as u32);
            let again = match ctx.node(e).clone() {
                ExprNode::BoolConst(b) => ctx.bool_const(b),
                ExprNode::BvConst(v) => ctx.bv(v),
                ExprNode::MemConst(m) => ctx.mem_const(m),
                ExprNode::Var { name, sort } => ctx.var(name, sort),
                ExprNode::App { op, args, .. } => ctx.app(op, args),
            };
            assert_eq!(again, e);
        }
        assert_eq!(ctx.len(), len);
        let mut copy = ctx.clone();
        assert_eq!(build(&mut copy, 500), build(&mut ctx, 500));
        assert_eq!(copy.len(), ctx.len());
        assert_eq!(copy.nodes, ctx.nodes);
    }

    /// Constants crafted so that their [`ExprHasher`] hashes share the
    /// high half still get distinct tags: leaves hash with keyed
    /// SipHash, so they do not pile into one probe run.
    #[test]
    fn crafted_constants_do_not_share_a_tag() {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut inverse: u64 = 1;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(inverse)));
        }
        // The hasher state before a 64-bit constant's one limb: the
        // variant, the width and the limb count.
        let add = |s: u64, w: u64| (s.rotate_left(5) ^ w).wrapping_mul(K);
        let before = add(add(add(0, 1), 64), 1);
        let mut ctx = ExprCtx::new();
        let n: u64 = 2000;
        for j in 0..n {
            let limb = before.rotate_left(5) ^ ((0xdead_beef << 32) | j).wrapping_mul(inverse);
            let node = ExprNode::BvConst(BitVecValue::from_u64(limb, 64));
            let mut h = ExprHasher::default();
            node.hash(&mut h);
            assert_eq!(h.finish() >> 32, 0xdead_beef);
            ctx.intern(node);
        }
        let tags: std::collections::HashSet<u32> = ctx
            .table
            .iter()
            .filter(|s| s.handle != EMPTY)
            .map(|s| s.tag)
            .collect();
        assert!(tags.len() > n as usize - 10, "{} tags", tags.len());
    }
}
