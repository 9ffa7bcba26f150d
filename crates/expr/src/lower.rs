//! Word-level lowering of expression DAGs to a flat, levelized tape.
//!
//! [`eval`](crate::eval) walks the DAG with a per-call post-order vector
//! and a `HashMap` memo — fine for one-shot queries, far too slow for
//! simulation loops that evaluate the same next-state functions millions
//! of times. [`TapeProgram::compile`] pays the DAG walk *once*: the
//! expression graph is levelized (children strictly before parents, the
//! order [`ExprCtx::post_order`] already guarantees) and lowered into a
//! straight-line buffer of fixed-size tape instructions over a dense
//! register file. Evaluation is then a single tight loop over the
//! buffer with array indexing only — no hashing, no allocation on the
//! word path.
//!
//! The register file is split into three banks:
//!
//! - **words** — `u64` slots for booleans (0/1) and bit-vectors of width
//!   `<= 64`, kept normalized (bits above the width are zero). All
//!   common operations are bit-packed into machine-word arithmetic.
//! - **wides** — [`BitVecValue`] slots for vectors wider than 64 bits.
//! - **mems** — [`MemValue`] slots.
//!
//! Operations whose operands and result all live in the word bank use
//! specialized instructions; anything touching a wide or memory slot
//! (except the hot [`MemValue`] read/write paths, which are also
//! specialized) falls back to a generic instruction that reuses the
//! interpreter's [`Op`] semantics, so the two evaluators agree by
//! construction on the slow path and are differentially tested on the
//! fast path.

use std::collections::HashMap;

use crate::ctx::{ExprCtx, ExprNode, ExprRef, Op};
use crate::eval::apply;
use crate::sort::Sort;
use crate::value::{BitVecValue, MemValue, Value};

/// The bit-mask with the low `w` bits set (`w <= 64`).
#[inline]
/// Disjoint mutable-destination / shared-source view into the memory
/// bank, for in-place register copies.
fn mem_pair(mems: &mut [MemValue], d: usize, s: usize) -> (&mut MemValue, &MemValue) {
    debug_assert_ne!(d, s);
    if d < s {
        let (lo, hi) = mems.split_at_mut(s);
        (&mut lo[d], &hi[0])
    } else {
        let (lo, hi) = mems.split_at_mut(d);
        (&mut hi[0], &lo[s])
    }
}

fn mask_of(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// A register-file slot handle: a bank tag packed with a bank index.
///
/// The two top bits select the bank (word / wide / mem), the low 30 bits
/// are the index within the bank.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot(u32);

const TAG_WORD: u32 = 0;
const TAG_WIDE: u32 = 1;
const TAG_MEM: u32 = 2;
const TAG_SHIFT: u32 = 30;
const IDX_MASK: u32 = (1 << TAG_SHIFT) - 1;

impl Slot {
    fn new(tag: u32, idx: usize) -> Slot {
        assert!(idx < IDX_MASK as usize, "register bank overflow");
        Slot((tag << TAG_SHIFT) | idx as u32)
    }

    fn tag(self) -> u32 {
        self.0 >> TAG_SHIFT
    }

    fn idx(self) -> usize {
        (self.0 & IDX_MASK) as usize
    }

    /// True if this slot lives in the `u64` word bank.
    pub fn is_word(self) -> bool {
        self.tag() == TAG_WORD
    }
}

/// Metadata for one word-bank slot.
#[derive(Clone, Copy, Debug)]
struct WordMeta {
    /// Bit-vector width, or 0 for a boolean slot.
    width: u32,
}

impl WordMeta {
    fn is_bool(self) -> bool {
        self.width == 0
    }
}

/// Word-bank unary operations.
#[derive(Clone, Copy, Debug)]
enum UnOp {
    /// Boolean negation (`x ^ 1`).
    BoolNot,
    /// Bitwise complement, masked to the width.
    BvNot,
    /// Two's-complement negation, masked to the width.
    BvNeg,
    /// Plain copy: zero-extension, bool-to-bv, width-preserving moves.
    Mov,
    /// Extract `[w0 + w1 - 1 : w0]`: shift right by `w0`, mask to `w1`.
    Extract,
    /// Sign-extension from `w0` bits to `w1` bits.
    Sext,
}

/// Word-bank binary operations. Comparisons store 0/1.
#[derive(Clone, Copy, Debug)]
enum BinOp {
    BoolAnd,
    BoolOr,
    BoolXor,
    BoolImplies,
    BoolIff,
    /// Polymorphic equality of two word slots (bool or same-width bv).
    Eq,
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    /// Unsigned division; division by zero yields all-ones.
    Udiv,
    /// Unsigned remainder; remainder by zero yields the dividend.
    Urem,
    Shl,
    Lshr,
    Ashr,
    /// Concatenation; `w` is the width of the low (second) operand.
    Concat,
    Ult,
    Ule,
    Slt,
    Sle,
}

/// One fixed-size tape instruction.
#[derive(Clone, Debug)]
enum TapeInstr {
    /// `words[dst] = un(op, words[a])`; `w0`/`w1` carry widths.
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
        w0: u32,
        w1: u32,
    },
    /// `words[dst] = bin(op, words[a], words[b])` at width `w`.
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    /// `words[dst] = words[c] != 0 ? words[t] : words[e]`.
    Ite { dst: u32, c: u32, t: u32, e: u32 },
    /// `words[dst] = mems[mem][words[addr]]` (data width `<= 64`).
    MemReadWord { dst: u32, mem: u32, addr: u32 },
    /// `mems[dst] = mems[mem] with [words[addr]] = words[data]`.
    ///
    /// When `take` is set the source register is dead after this
    /// instruction (proved by [`TapeProgram::optimize_mem_moves`]), so
    /// the copy is a bank swap instead of a map clone.
    MemWriteWord {
        dst: u32,
        mem: u32,
        addr: u32,
        data: u32,
        take: bool,
    },
    /// `mems[dst] = words[c] != 0 ? mems[t] : mems[e]`.
    ///
    /// `take_t`/`take_e` mark branches whose register is dead after this
    /// instruction; selecting such a branch swaps instead of cloning
    /// (and leaves the unselected branch untouched either way).
    MemIte {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
        take_t: bool,
        take_e: bool,
    },
    /// Generic fallback through the interpreter's [`Op`] semantics for
    /// operations touching wide or memory slots.
    Slow {
        op: Op,
        dst: Slot,
        args: Box<[Slot]>,
    },
}

/// A compiled, reusable straight-line evaluation program.
///
/// # Examples
///
/// ```
/// use gila_expr::{ExprCtx, Sort, TapeProgram};
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let one = ctx.bv_u64(1, 8);
/// let e = ctx.bvadd(x, one);
/// let prog = TapeProgram::compile(&ctx, &[e]);
/// let mut st = prog.new_state();
/// prog.write_word(&mut st, prog.slot_of(x).unwrap(), 41);
/// prog.run(&mut st);
/// assert_eq!(prog.read_word(&st, prog.root_slot(0)), 42);
/// ```
#[derive(Clone, Debug)]
pub struct TapeProgram {
    code: Vec<TapeInstr>,
    /// Initial register-file image: constants pre-stored, variables zero.
    word_init: Vec<u64>,
    wide_init: Vec<BitVecValue>,
    mem_init: Vec<MemValue>,
    word_meta: Vec<WordMeta>,
    wide_widths: Vec<u32>,
    mem_sorts: Vec<(u32, u32)>,
    slots: HashMap<ExprRef, Slot>,
    roots: Vec<Slot>,
}

/// The mutable register file a [`TapeProgram`] evaluates over.
#[derive(Clone, Debug)]
pub struct TapeState {
    words: Vec<u64>,
    wides: Vec<BitVecValue>,
    mems: Vec<MemValue>,
}

impl TapeProgram {
    /// Compiles the DAG reachable from `roots` into a tape.
    ///
    /// Every reachable node gets exactly one slot; shared sub-expressions
    /// are computed once per [`TapeProgram::run`]. Constants are folded
    /// into the initial register image and cost nothing per run.
    pub fn compile(ctx: &ExprCtx, roots: &[ExprRef]) -> TapeProgram {
        Self::compile_segmented(ctx, &[roots]).0
    }

    /// Compiles the DAG reachable from the concatenation of `groups`,
    /// emitting each group's cone as one contiguous tape segment.
    ///
    /// Returns the program plus the end offset of every segment, so a
    /// caller can [`TapeProgram::run_range`] only a prefix — e.g. just
    /// the decode conditions of a simulator, re-run per stimulus
    /// attempt, without paying for the next-state cones each time.
    /// Shared sub-expressions are emitted in the first segment that
    /// needs them and reused by later ones, so a later segment is only
    /// valid after every earlier segment has run on the current
    /// variable values. The compiled roots are the flattened groups in
    /// order.
    pub fn compile_segmented(ctx: &ExprCtx, groups: &[&[ExprRef]]) -> (TapeProgram, Vec<usize>) {
        let mut p = TapeProgram {
            code: Vec::new(),
            word_init: Vec::new(),
            wide_init: Vec::new(),
            mem_init: Vec::new(),
            word_meta: Vec::new(),
            wide_widths: Vec::new(),
            mem_sorts: Vec::new(),
            slots: HashMap::new(),
            roots: Vec::new(),
        };
        let mut boundaries = Vec::with_capacity(groups.len());
        // Iterative post-order with the slot map doubling as the "done"
        // set, so cones shared across groups are emitted exactly once.
        let mut open: std::collections::HashSet<ExprRef> = Default::default();
        for group in groups {
            for &root in *group {
                let mut stack = vec![root];
                while let Some(&top) = stack.last() {
                    if p.slots.contains_key(&top) {
                        stack.pop();
                        continue;
                    }
                    if open.insert(top) {
                        for &a in ctx.args(top) {
                            if !p.slots.contains_key(&a) {
                                stack.push(a);
                            }
                        }
                    } else {
                        p.emit(ctx, top);
                        stack.pop();
                    }
                }
            }
            boundaries.push(p.code.len());
        }
        p.roots = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|r| p.slots[r])
            .collect();
        p.optimize_mem_moves();
        (p, boundaries)
    }

    /// Allocates a slot for `e` (children already emitted) and appends
    /// its instruction, if any.
    fn emit(&mut self, ctx: &ExprCtx, e: ExprRef) {
        let dst = self.alloc_slot(ctx.sort_of(e));
        match ctx.node(e) {
            ExprNode::BoolConst(b) => self.word_init[dst.idx()] = *b as u64,
            ExprNode::BvConst(v) => match dst.tag() {
                TAG_WORD => self.word_init[dst.idx()] = v.to_u64(),
                _ => self.wide_init[dst.idx()] = v.clone(),
            },
            ExprNode::MemConst(m) => self.mem_init[dst.idx()] = m.clone(),
            ExprNode::Var { .. } => {}
            ExprNode::App { op, args, .. } => {
                let arg_slots: Vec<Slot> = args.iter().map(|a| self.slots[a]).collect();
                let instr = self.select_instr(*op, dst, &arg_slots);
                self.code.push(instr);
            }
        }
        self.slots.insert(e, dst);
    }

    /// Backward liveness over memory-bank operands: a [`TapeInstr::MemWriteWord`]
    /// may steal its source register (a swap instead of an `O(entries)`
    /// map clone) iff the source is produced by an earlier tape
    /// instruction (variables and constants are externally owned), is
    /// not a compilation root (roots are read after the run), and no
    /// later instruction reads it. Store *chains* — the common shape of
    /// a memory next-state function — then clone only at the chain head.
    fn optimize_mem_moves(&mut self) {
        let n = self.mem_init.len();
        if n == 0 {
            return;
        }
        let mut computed = vec![false; n];
        for ins in &self.code {
            match ins {
                TapeInstr::MemWriteWord { dst, .. } | TapeInstr::MemIte { dst, .. } => {
                    computed[*dst as usize] = true
                }
                TapeInstr::Slow { dst, .. } if dst.tag() == TAG_MEM => computed[dst.idx()] = true,
                _ => {}
            }
        }
        // Roots are live at the end of the tape: they are read after
        // every run.
        let mut live = vec![false; n];
        for r in &self.roots {
            if r.tag() == TAG_MEM {
                live[r.idx()] = true;
            }
        }
        for k in (0..self.code.len()).rev() {
            match &mut self.code[k] {
                TapeInstr::MemWriteWord { mem, take, .. } => {
                    let m = *mem as usize;
                    *take = computed[m] && !live[m];
                }
                TapeInstr::MemIte {
                    t, e, take_t, take_e, ..
                } => {
                    *take_t = computed[*t as usize] && !live[*t as usize];
                    *take_e = computed[*e as usize] && !live[*e as usize];
                }
                _ => {}
            }
            match &self.code[k] {
                TapeInstr::MemReadWord { mem, .. } => live[*mem as usize] = true,
                TapeInstr::MemWriteWord { mem, .. } => live[*mem as usize] = true,
                TapeInstr::MemIte { t, e, .. } => {
                    live[*t as usize] = true;
                    live[*e as usize] = true;
                }
                TapeInstr::Slow { args, .. } => {
                    for a in args.iter() {
                        if a.tag() == TAG_MEM {
                            live[a.idx()] = true;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Instruction-kind histogram (diagnostics): `(kind, count)` pairs
    /// in descending count order.
    pub fn op_counts(&self) -> Vec<(&'static str, usize)> {
        let mut h: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for ins in &self.code {
            let k = match ins {
                TapeInstr::Un { .. } => "un",
                TapeInstr::Bin { .. } => "bin",
                TapeInstr::Ite { .. } => "ite",
                TapeInstr::MemReadWord { .. } => "mem_read",
                TapeInstr::MemWriteWord { .. } => "mem_write",
                TapeInstr::MemIte { .. } => "mem_ite",
                TapeInstr::Slow { .. } => "slow",
            };
            *h.entry(k).or_default() += 1;
        }
        let mut v: Vec<_> = h.into_iter().collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Memory-copy site statistics: `(move-enabled operands, total
    /// copy-or-move operands)` across the tape's memory-write and
    /// memory-`ite` instructions — each non-move operand costs
    /// an `O(entries)` map copy when its instruction (branch) executes.
    pub fn move_counts(&self) -> (usize, usize) {
        let mut moves = 0;
        let mut total = 0;
        for ins in &self.code {
            match ins {
                TapeInstr::MemWriteWord { take, .. } => {
                    total += 1;
                    moves += *take as usize;
                }
                TapeInstr::MemIte { take_t, take_e, .. } => {
                    total += 2;
                    moves += *take_t as usize + *take_e as usize;
                }
                _ => {}
            }
        }
        (moves, total)
    }

    /// Opt-in move-out of *variable* memory registers: a variable's
    /// final reader may steal it (swap instead of clone) when every
    /// read of that variable sits in `final_start..`, the tape's last
    /// segment, which prefix re-runs via [`Self::run_range`] never
    /// revisit. After a full run such a variable holds garbage until
    /// the caller rewrites it, so this is only sound for callers that
    /// restore every stolen variable after each full run and before
    /// the next — e.g. a simulator whose commit writes every state
    /// register. Slots in `excluded` (read externally before the
    /// restore, such as pass-through commit roots) are never stolen.
    pub fn enable_var_moves(&mut self, final_start: usize, excluded: &[Slot]) {
        let n = self.mem_init.len();
        if n == 0 {
            return;
        }
        let mut computed = vec![false; n];
        for ins in &self.code {
            match ins {
                TapeInstr::MemWriteWord { dst, .. } | TapeInstr::MemIte { dst, .. } => {
                    computed[*dst as usize] = true
                }
                TapeInstr::Slow { dst, .. } if dst.tag() == TAG_MEM => computed[dst.idx()] = true,
                _ => {}
            }
        }
        let mut ok = vec![true; n];
        for s in excluded {
            if s.tag() == TAG_MEM {
                ok[s.idx()] = false;
            }
        }
        let mut last: Vec<Option<usize>> = vec![None; n];
        for (k, ins) in self.code.iter().enumerate() {
            let mut read = |m: usize| {
                if k < final_start {
                    ok[m] = false;
                }
                last[m] = Some(k);
            };
            match ins {
                TapeInstr::MemReadWord { mem, .. } => read(*mem as usize),
                TapeInstr::MemWriteWord { mem, .. } => read(*mem as usize),
                TapeInstr::MemIte { t, e, .. } => {
                    read(*t as usize);
                    read(*e as usize);
                }
                TapeInstr::Slow { args, .. } => {
                    for a in args.iter() {
                        if a.tag() == TAG_MEM {
                            read(a.idx());
                        }
                    }
                }
                _ => {}
            }
        }
        for m in 0..n {
            if computed[m] || !ok[m] {
                continue;
            }
            let Some(k) = last[m] else { continue };
            match &mut self.code[k] {
                TapeInstr::MemWriteWord { mem, take, .. } if *mem as usize == m => *take = true,
                TapeInstr::MemIte {
                    t, e, take_t, take_e, ..
                } => {
                    if *t as usize == m {
                        *take_t = true;
                    }
                    if *e as usize == m {
                        *take_e = true;
                    }
                }
                // The final reader only inspects the value (a word read
                // or the generic path); stealing needs a copy site.
                _ => {}
            }
        }
    }

    fn alloc_slot(&mut self, sort: Sort) -> Slot {
        match sort {
            Sort::Bool => {
                self.word_init.push(0);
                self.word_meta.push(WordMeta { width: 0 });
                Slot::new(TAG_WORD, self.word_init.len() - 1)
            }
            Sort::Bv(w) if w <= 64 => {
                self.word_init.push(0);
                self.word_meta.push(WordMeta { width: w });
                Slot::new(TAG_WORD, self.word_init.len() - 1)
            }
            Sort::Bv(w) => {
                self.wide_init.push(BitVecValue::zero(w));
                self.wide_widths.push(w);
                Slot::new(TAG_WIDE, self.wide_init.len() - 1)
            }
            Sort::Mem {
                addr_width,
                data_width,
            } => {
                self.mem_init.push(MemValue::zeroed(addr_width, data_width));
                self.mem_sorts.push((addr_width, data_width));
                Slot::new(TAG_MEM, self.mem_init.len() - 1)
            }
        }
    }

    /// Picks the specialized word instruction when every operand and the
    /// destination fit the word bank, the fast memory instructions for
    /// word-sized memory traffic, and the generic fallback otherwise.
    fn select_instr(&self, op: Op, dst: Slot, args: &[Slot]) -> TapeInstr {
        use Op::*;
        let all_words = dst.is_word() && args.iter().all(|s| s.is_word());
        let slow = || TapeInstr::Slow {
            op,
            dst,
            args: args.to_vec().into_boxed_slice(),
        };
        // Memory traffic gets dedicated instructions when the data word
        // fits the word bank (the address always does: addr_width <= 32).
        match op {
            MemRead if dst.is_word() => {
                return TapeInstr::MemReadWord {
                    dst: dst.idx() as u32,
                    mem: args[0].idx() as u32,
                    addr: args[1].idx() as u32,
                }
            }
            Ite if dst.tag() == TAG_MEM => {
                return TapeInstr::MemIte {
                    dst: dst.idx() as u32,
                    c: args[0].idx() as u32,
                    t: args[1].idx() as u32,
                    e: args[2].idx() as u32,
                    // Filled in by the liveness pass after compilation.
                    take_t: false,
                    take_e: false,
                };
            }
            MemWrite if args[2].is_word() => {
                return TapeInstr::MemWriteWord {
                    dst: dst.idx() as u32,
                    mem: args[0].idx() as u32,
                    addr: args[1].idx() as u32,
                    data: args[2].idx() as u32,
                    // Filled in by the liveness pass after compilation.
                    take: false,
                };
            }
            _ => {}
        }
        if !all_words {
            return slow();
        }
        let d = dst.idx() as u32;
        let a = args[0].idx() as u32;
        let width = |s: &Slot| self.word_meta[s.idx()].width;
        let un = |op: UnOp, w0: u32, w1: u32| TapeInstr::Un {
            op,
            dst: d,
            a,
            w0,
            w1,
        };
        let bin = |op: BinOp, w: u32| TapeInstr::Bin {
            op,
            dst: d,
            a,
            b: args[1].idx() as u32,
            w,
        };
        match op {
            Not => un(UnOp::BoolNot, 0, 0),
            And => bin(BinOp::BoolAnd, 0),
            Or => bin(BinOp::BoolOr, 0),
            Xor => bin(BinOp::BoolXor, 0),
            Implies => bin(BinOp::BoolImplies, 0),
            Iff => bin(BinOp::BoolIff, 0),
            Ite => TapeInstr::Ite {
                dst: d,
                c: a,
                t: args[1].idx() as u32,
                e: args[2].idx() as u32,
            },
            Eq => bin(BinOp::Eq, 0),
            BvNot => un(UnOp::BvNot, width(&args[0]), 0),
            BvNeg => un(UnOp::BvNeg, width(&args[0]), 0),
            BvAnd => bin(BinOp::And, width(&args[0])),
            BvOr => bin(BinOp::Or, width(&args[0])),
            BvXor => bin(BinOp::Xor, width(&args[0])),
            BvAdd => bin(BinOp::Add, width(&args[0])),
            BvSub => bin(BinOp::Sub, width(&args[0])),
            BvMul => bin(BinOp::Mul, width(&args[0])),
            BvUdiv => bin(BinOp::Udiv, width(&args[0])),
            BvUrem => bin(BinOp::Urem, width(&args[0])),
            BvShl => bin(BinOp::Shl, width(&args[0])),
            BvLshr => bin(BinOp::Lshr, width(&args[0])),
            BvAshr => bin(BinOp::Ashr, width(&args[0])),
            BvConcat => bin(BinOp::Concat, width(&args[1])),
            BvExtract { hi, lo } => un(UnOp::Extract, lo, hi - lo + 1),
            BvZext { .. } => un(UnOp::Mov, 0, 0),
            BvSext { to } => un(UnOp::Sext, width(&args[0]), to),
            BvUlt => bin(BinOp::Ult, width(&args[0])),
            BvUle => bin(BinOp::Ule, width(&args[0])),
            BvSlt => bin(BinOp::Slt, width(&args[0])),
            BvSle => bin(BinOp::Sle, width(&args[0])),
            BoolToBv => un(UnOp::Mov, 0, 0),
            MemRead | MemWrite => slow(),
        }
    }

    /// A fresh register file with constants pre-loaded and variables zero.
    pub fn new_state(&self) -> TapeState {
        TapeState {
            words: self.word_init.clone(),
            wides: self.wide_init.clone(),
            mems: self.mem_init.clone(),
        }
    }

    /// Number of tape instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True if the tape has no instructions (all roots are leaves).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of instructions on the generic (interpreter-semantics)
    /// fallback path — the tape's slow lane.
    pub fn slow_len(&self) -> usize {
        self.code
            .iter()
            .filter(|i| matches!(i, TapeInstr::Slow { .. }))
            .count()
    }

    /// Debug summaries (`"op @ sort"`) of every slow-lane instruction.
    pub fn slow_ops(&self) -> Vec<String> {
        self.code
            .iter()
            .filter_map(|i| match i {
                TapeInstr::Slow { op, dst, .. } => {
                    Some(format!("{op:?} @ {:?}", self.slot_sort(*dst)))
                }
                _ => None,
            })
            .collect()
    }

    /// Register-bank sizes as `(words, wides, mems)`.
    pub fn bank_sizes(&self) -> (usize, usize, usize) {
        (
            self.word_init.len(),
            self.wide_init.len(),
            self.mem_init.len(),
        )
    }

    /// The slot assigned to a compiled node (variables included), if the
    /// node is reachable from the compilation roots.
    pub fn slot_of(&self, e: ExprRef) -> Option<Slot> {
        self.slots.get(&e).copied()
    }

    /// The slot holding the `i`-th compilation root after a run.
    pub fn root_slot(&self, i: usize) -> Slot {
        self.roots[i]
    }

    /// The sort of a slot.
    pub fn slot_sort(&self, slot: Slot) -> Sort {
        match slot.tag() {
            TAG_WORD => {
                let m = self.word_meta[slot.idx()];
                if m.is_bool() {
                    Sort::Bool
                } else {
                    Sort::Bv(m.width)
                }
            }
            TAG_WIDE => Sort::Bv(self.wide_widths[slot.idx()]),
            _ => {
                let (addr_width, data_width) = self.mem_sorts[slot.idx()];
                Sort::Mem {
                    addr_width,
                    data_width,
                }
            }
        }
    }

    /// Evaluates the whole tape over `st` in order.
    pub fn run(&self, st: &mut TapeState) {
        self.run_range(st, 0..self.code.len());
    }

    /// Evaluates one instruction range of the tape over `st`.
    ///
    /// Ranges must respect the segment boundaries returned by
    /// [`TapeProgram::compile_segmented`], and a segment's results are
    /// only valid once every earlier segment has run on the current
    /// variable values (later segments reuse shared sub-expressions).
    pub fn run_range(&self, st: &mut TapeState, range: std::ops::Range<usize>) {
        for ins in &self.code[range] {
            match *ins {
                TapeInstr::Un { op, dst, a, w0, w1 } => {
                    let x = st.words[a as usize];
                    st.words[dst as usize] = match op {
                        UnOp::BoolNot => x ^ 1,
                        UnOp::BvNot => !x & mask_of(w0),
                        UnOp::BvNeg => x.wrapping_neg() & mask_of(w0),
                        UnOp::Mov => x,
                        UnOp::Extract => (x >> w0) & mask_of(w1),
                        UnOp::Sext => {
                            if (x >> (w0 - 1)) & 1 == 1 {
                                x | (mask_of(w1) & !mask_of(w0))
                            } else {
                                x
                            }
                        }
                    };
                }
                TapeInstr::Bin { op, dst, a, b, w } => {
                    let x = st.words[a as usize];
                    let y = st.words[b as usize];
                    st.words[dst as usize] = match op {
                        BinOp::BoolAnd => x & y,
                        BinOp::BoolOr => x | y,
                        BinOp::BoolXor => x ^ y,
                        BinOp::BoolImplies => (x ^ 1) | y,
                        BinOp::BoolIff => (x ^ y) ^ 1,
                        BinOp::Eq => (x == y) as u64,
                        BinOp::Add => x.wrapping_add(y) & mask_of(w),
                        BinOp::Sub => x.wrapping_sub(y) & mask_of(w),
                        BinOp::Mul => x.wrapping_mul(y) & mask_of(w),
                        BinOp::And => x & y,
                        BinOp::Or => x | y,
                        BinOp::Xor => x ^ y,
                        BinOp::Udiv => x.checked_div(y).unwrap_or_else(|| mask_of(w)),
                        BinOp::Urem => x.checked_rem(y).unwrap_or(x),
                        BinOp::Shl => {
                            if y < w as u64 {
                                (x << y) & mask_of(w)
                            } else {
                                0
                            }
                        }
                        BinOp::Lshr => {
                            if y < w as u64 {
                                x >> y
                            } else {
                                0
                            }
                        }
                        BinOp::Ashr => {
                            let sign = (x >> (w - 1)) & 1 == 1;
                            if y >= w as u64 {
                                if sign {
                                    mask_of(w)
                                } else {
                                    0
                                }
                            } else if sign {
                                (x >> y) | (mask_of(w) & !(mask_of(w) >> y))
                            } else {
                                x >> y
                            }
                        }
                        BinOp::Concat => (x << w) | y,
                        BinOp::Ult => (x < y) as u64,
                        BinOp::Ule => (x <= y) as u64,
                        BinOp::Slt => {
                            let sh = 64 - w;
                            (((x << sh) as i64) < ((y << sh) as i64)) as u64
                        }
                        BinOp::Sle => {
                            let sh = 64 - w;
                            (((x << sh) as i64) <= ((y << sh) as i64)) as u64
                        }
                    };
                }
                TapeInstr::Ite { dst, c, t, e } => {
                    st.words[dst as usize] = if st.words[c as usize] != 0 {
                        st.words[t as usize]
                    } else {
                        st.words[e as usize]
                    };
                }
                TapeInstr::MemReadWord { dst, mem, addr } => {
                    st.words[dst as usize] =
                        st.mems[mem as usize].read_word(st.words[addr as usize]).to_u64();
                }
                TapeInstr::MemWriteWord {
                    dst,
                    mem,
                    addr,
                    data,
                    take,
                } => {
                    let (d, m) = (dst as usize, mem as usize);
                    if take {
                        // The source is dead: reuse its map, leaving the
                        // destination's stale value in the dead register.
                        st.mems.swap(d, m);
                    } else {
                        let (dv, sv) = mem_pair(&mut st.mems, d, m);
                        dv.copy_from(sv);
                    }
                    st.mems[d].write_word_mut(st.words[addr as usize], st.words[data as usize]);
                }
                TapeInstr::MemIte {
                    dst,
                    c,
                    t,
                    e,
                    take_t,
                    take_e,
                } => {
                    let d = dst as usize;
                    let (src, take) = if st.words[c as usize] != 0 {
                        (t as usize, take_t)
                    } else {
                        (e as usize, take_e)
                    };
                    if take {
                        st.mems.swap(d, src);
                    } else {
                        let (dv, sv) = mem_pair(&mut st.mems, d, src);
                        dv.copy_from(sv);
                    }
                }
                TapeInstr::Slow { op, dst, ref args } => {
                    let vals: Vec<Value> = args.iter().map(|s| self.read(st, *s)).collect();
                    let refs: Vec<&Value> = vals.iter().collect();
                    let out = apply(op, &refs);
                    self.write(st, dst, &out);
                }
            }
        }
    }

    /// Materializes a slot's value.
    pub fn read(&self, st: &TapeState, slot: Slot) -> Value {
        match slot.tag() {
            TAG_WORD => {
                let m = self.word_meta[slot.idx()];
                let x = st.words[slot.idx()];
                if m.is_bool() {
                    Value::Bool(x != 0)
                } else {
                    Value::Bv(BitVecValue::from_u64(x, m.width))
                }
            }
            TAG_WIDE => Value::Bv(st.wides[slot.idx()].clone()),
            _ => Value::Mem(st.mems[slot.idx()].clone()),
        }
    }

    /// Reads a word slot's raw bits (bool slots read as 0/1).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the word bank.
    pub fn read_word(&self, st: &TapeState, slot: Slot) -> u64 {
        assert!(slot.is_word(), "slot {slot:?} is not a word");
        st.words[slot.idx()]
    }

    /// Borrows a wide slot's value without cloning.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the wide bank.
    pub fn read_wide<'s>(&self, st: &'s TapeState, slot: Slot) -> &'s BitVecValue {
        assert_eq!(slot.tag(), TAG_WIDE, "slot {slot:?} is not wide");
        &st.wides[slot.idx()]
    }

    /// Borrows a memory slot's value without cloning.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the memory bank.
    pub fn read_mem<'s>(&self, st: &'s TapeState, slot: Slot) -> &'s MemValue {
        assert_eq!(slot.tag(), TAG_MEM, "slot {slot:?} is not a memory");
        &st.mems[slot.idx()]
    }

    /// Writes a value into a slot (sort must match the slot's sort).
    pub fn write(&self, st: &mut TapeState, slot: Slot, v: &Value) {
        debug_assert_eq!(v.sort(), self.slot_sort(slot), "slot sort mismatch");
        match (slot.tag(), v) {
            (TAG_WORD, Value::Bool(b)) => st.words[slot.idx()] = *b as u64,
            (TAG_WORD, Value::Bv(x)) => st.words[slot.idx()] = x.to_u64(),
            (TAG_WIDE, Value::Bv(x)) => st.wides[slot.idx()] = x.clone(),
            (TAG_MEM, Value::Mem(m)) => st.mems[slot.idx()] = m.clone(),
            _ => panic!("value {v:?} does not fit slot {slot:?}"),
        }
    }

    /// Writes raw bits into a word slot, masking to the slot's width.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the word bank.
    pub fn write_word(&self, st: &mut TapeState, slot: Slot, x: u64) {
        assert!(slot.is_word(), "slot {slot:?} is not a word");
        let m = self.word_meta[slot.idx()];
        st.words[slot.idx()] = if m.is_bool() {
            (x != 0) as u64
        } else {
            x & mask_of(m.width)
        };
    }

    /// Copies one slot's value to another slot of the same bank.
    ///
    /// # Panics
    ///
    /// Panics if the slots live in different banks.
    pub fn copy_slot(&self, st: &mut TapeState, from: Slot, to: Slot) {
        assert_eq!(from.tag(), to.tag(), "cross-bank slot copy");
        if from.idx() == to.idx() {
            return;
        }
        match from.tag() {
            TAG_WORD => st.words[to.idx()] = st.words[from.idx()],
            TAG_WIDE => st.wides[to.idx()] = st.wides[from.idx()].clone(),
            _ => st.mems[to.idx()] = st.mems[from.idx()].clone(),
        }
    }

    /// True if `slot` is the destination of some tape instruction — i.e.
    /// fully recomputed by every run covering it. Variable and constant
    /// slots are not; their values are externally owned.
    pub fn slot_is_computed(&self, slot: Slot) -> bool {
        self.code.iter().any(|ins| match *ins {
            TapeInstr::Un { dst, .. }
            | TapeInstr::Bin { dst, .. }
            | TapeInstr::Ite { dst, .. }
            | TapeInstr::MemReadWord { dst, .. } => slot.is_word() && dst as usize == slot.idx(),
            TapeInstr::MemWriteWord { dst, .. } | TapeInstr::MemIte { dst, .. } => {
                slot.tag() == TAG_MEM && dst as usize == slot.idx()
            }
            TapeInstr::Slow { dst, .. } => dst == slot,
        })
    }

    /// Moves a memory slot's value out, leaving a trivial placeholder.
    /// Only sound for computed ([`TapeProgram::slot_is_computed`]) slots,
    /// which the next covering run overwrites before any read.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the memory bank.
    pub fn take_mem(&self, st: &mut TapeState, slot: Slot) -> MemValue {
        assert_eq!(slot.tag(), TAG_MEM, "slot {slot:?} is not a memory");
        std::mem::replace(&mut st.mems[slot.idx()], MemValue::zeroed(1, 1))
    }

    /// Writes a memory value into a slot by move (no clone).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the memory bank.
    pub fn put_mem(&self, st: &mut TapeState, slot: Slot, m: MemValue) {
        assert_eq!(slot.tag(), TAG_MEM, "slot {slot:?} is not a memory");
        debug_assert_eq!(
            (m.addr_width(), m.data_width()),
            self.mem_sorts[slot.idx()],
            "memory sort mismatch"
        );
        st.mems[slot.idx()] = m;
    }

    /// Writes a wide bit-vector into a slot by move (no clone).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the wide bank.
    pub fn put_wide(&self, st: &mut TapeState, slot: Slot, v: BitVecValue) {
        assert_eq!(slot.tag(), TAG_WIDE, "slot {slot:?} is not wide");
        debug_assert_eq!(v.width(), self.wide_widths[slot.idx()], "width mismatch");
        st.wides[slot.idx()] = v;
    }

    /// Two-phase bulk register copy in the word bank: reads every
    /// source before writing any destination (so simultaneous swaps see
    /// the pre-state), with `buf` as reusable scratch.
    ///
    /// # Panics
    ///
    /// Debug-panics if any slot is not in the word bank.
    pub fn copy_words(&self, st: &mut TapeState, pairs: &[(Slot, Slot)], buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(pairs.iter().map(|&(src, _)| {
            debug_assert!(src.is_word());
            st.words[src.idx()]
        }));
        for (&(_, dst), &x) in pairs.iter().zip(buf.iter()) {
            debug_assert!(dst.is_word());
            st.words[dst.idx()] = x;
        }
    }

    /// Mutable access to a memory-bank slot's value, for in-place
    /// cross-program copies ([`MemValue::copy_from`]).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the memory bank.
    pub fn mem_mut<'s>(&self, st: &'s mut TapeState, slot: Slot) -> &'s mut MemValue {
        assert_eq!(slot.tag(), TAG_MEM, "slot {slot:?} is not a memory");
        &mut st.mems[slot.idx()]
    }

    /// Swaps the contents of two memory-bank slots. Preferable to a
    /// take/put pair for commits: the displaced map parks in the other
    /// slot, so its allocation is reused by the next in-place copy
    /// instead of being dropped and re-grown.
    ///
    /// # Panics
    ///
    /// Panics if either slot is not in the memory bank, or (debug) if
    /// their memory sorts differ.
    pub fn swap_mems(&self, st: &mut TapeState, a: Slot, b: Slot) {
        assert_eq!(a.tag(), TAG_MEM, "slot {a:?} is not a memory");
        assert_eq!(b.tag(), TAG_MEM, "slot {b:?} is not a memory");
        debug_assert_eq!(
            self.mem_sorts[a.idx()],
            self.mem_sorts[b.idx()],
            "memory sort mismatch"
        );
        st.mems.swap(a.idx(), b.idx());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};

    /// splitmix64 — deterministic operand streams without external deps.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn bits(&mut self, w: u32) -> Vec<bool> {
            (0..w).map(|_| self.next() & 1 == 1).collect()
        }
    }

    fn check_roots(ctx: &ExprCtx, roots: &[ExprRef], env: &Env) {
        let prog = TapeProgram::compile(ctx, roots);
        let mut st = prog.new_state();
        for (var, value) in env.iter() {
            if let Some(slot) = prog.slot_of(var) {
                prog.write(&mut st, slot, value);
            }
        }
        prog.run(&mut st);
        for (i, &root) in roots.iter().enumerate() {
            let want = eval(ctx, root, env).unwrap();
            let got = prog.read(&st, prog.root_slot(i));
            assert_eq!(got, want, "root {i} ({root:?}) disagrees with eval");
        }
    }

    /// Every bit-vector operator, at widths crossing the word boundary,
    /// against random and boundary operands.
    #[test]
    fn word_ops_agree_with_eval() {
        let mut mix = Mix(0xDA7E2021);
        for w in [1u32, 3, 7, 8, 31, 32, 63, 64, 65, 100, 128] {
            let mut ctx = ExprCtx::new();
            let x = ctx.var("x", Sort::Bv(w));
            let y = ctx.var("y", Sort::Bv(w));
            let p = ctx.var("p", Sort::Bool);
            let q = ctx.var("q", Sort::Bool);
            let mut roots = vec![
                ctx.bvnot(x),
                ctx.bvneg(x),
                ctx.bvand(x, y),
                ctx.bvor(x, y),
                ctx.bvxor(x, y),
                ctx.bvadd(x, y),
                ctx.bvsub(x, y),
                ctx.bvmul(x, y),
                ctx.bvudiv(x, y),
                ctx.bvurem(x, y),
                ctx.bvshl(x, y),
                ctx.bvlshr(x, y),
                ctx.bvashr(x, y),
                ctx.concat(x, y),
                ctx.extract(x, w - 1, w / 2),
                ctx.zext(x, w + 13),
                ctx.sext(x, w + 13),
            ];
            let cmps = vec![
                ctx.eq(x, y),
                ctx.ult(x, y),
                ctx.ule(x, y),
                ctx.slt(x, y),
                ctx.sle(x, y),
            ];
            roots.extend(&cmps);
            let c0 = cmps[0];
            roots.push(ctx.ite(c0, x, y));
            roots.push(ctx.not(p));
            roots.push(ctx.and(p, q));
            roots.push(ctx.or(p, q));
            roots.push(ctx.xor(p, q));
            roots.push(ctx.implies(p, q));
            roots.push(ctx.iff(p, q));
            roots.push(ctx.bool_to_bv(p));

            let zero = BitVecValue::zero(w);
            let ones = BitVecValue::ones(w);
            let small = BitVecValue::from_u64(1, w);
            for trial in 0..24 {
                let (xv, yv) = match trial {
                    0 => (zero.clone(), zero.clone()),
                    1 => (ones.clone(), zero.clone()),
                    2 => (ones.clone(), ones.clone()),
                    3 => (zero.clone(), small.clone()),
                    4 => (ones.clone(), small.clone()),
                    _ => (
                        BitVecValue::from_bits(&mix.bits(w)),
                        BitVecValue::from_bits(&mix.bits(w)),
                    ),
                };
                let mut env = Env::new();
                env.bind(x, xv);
                env.bind(y, yv);
                env.bind(p, mix.next() & 1 == 1);
                env.bind(q, mix.next() & 1 == 1);
                check_roots(&ctx, &roots, &env);
            }
        }
    }

    #[test]
    fn memory_ops_agree_with_eval() {
        let mut mix = Mix(0x51CA);
        for data_width in [8u32, 64, 96] {
            let mut ctx = ExprCtx::new();
            let sort = Sort::Mem {
                addr_width: 6,
                data_width,
            };
            let m = ctx.var("m", sort);
            let a = ctx.var("a", Sort::Bv(6));
            let d = ctx.var("d", Sort::Bv(data_width));
            let w1 = ctx.mem_write(m, a, d);
            let two = ctx.bv_u64(2, 6);
            let a2 = ctx.bvadd(a, two);
            let w2 = ctx.mem_write(w1, a2, d);
            let tt = ctx.tt();
            let sel = ctx.var("sel", Sort::Bool);
            let roots = vec![
                ctx.mem_read(m, a),
                ctx.mem_read(w2, a),
                ctx.mem_read(w2, a2),
                ctx.eq(w1, w2),
                ctx.eq(w1, w1),
                ctx.ite(tt, w1, w2),
                ctx.ite(sel, w1, w2),
            ];
            for _ in 0..16 {
                let mut mem = MemValue::zeroed(6, data_width);
                for _ in 0..4 {
                    mem = mem.write(
                        &BitVecValue::from_u64(mix.next(), 6),
                        &BitVecValue::from_bits(&mix.bits(data_width)),
                    );
                }
                let mut env = Env::new();
                env.bind(m, mem);
                env.bind(a, BitVecValue::from_u64(mix.next(), 6));
                env.bind(d, BitVecValue::from_bits(&mix.bits(data_width)));
                env.bind(sel, mix.next() & 1 == 1);
                check_roots(&ctx, &roots, &env);
            }
        }
    }

    #[test]
    fn constants_fold_into_init_image() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let k = ctx.bv_u64(0x55, 8);
        let e = ctx.bvxor(x, k);
        let prog = TapeProgram::compile(&ctx, &[e]);
        // one instruction: the xor; the constant lives in the init image.
        assert_eq!(prog.len(), 1);
        let mut st = prog.new_state();
        prog.write_word(&mut st, prog.slot_of(x).unwrap(), 0xFF);
        prog.run(&mut st);
        assert_eq!(prog.read_word(&st, prog.root_slot(0)), 0xAA);
    }

    #[test]
    fn shared_subexpressions_compile_once() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(32));
        let s = ctx.bvadd(x, x);
        let a = ctx.bvmul(s, s);
        let b = ctx.bvxor(s, x);
        let prog = TapeProgram::compile(&ctx, &[a, b]);
        assert_eq!(prog.len(), 3, "s, a, b — s must not be duplicated");
    }

    #[test]
    fn deep_chain_runs_without_overflow() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(32));
        let one = ctx.bv_u64(1, 32);
        let mut e = x;
        for _ in 0..100_000 {
            e = ctx.bvadd(e, one);
        }
        let prog = TapeProgram::compile(&ctx, &[e]);
        let mut st = prog.new_state();
        prog.write_word(&mut st, prog.slot_of(x).unwrap(), 7);
        prog.run(&mut st);
        assert_eq!(prog.read_word(&st, prog.root_slot(0)), 100_007);
    }

    #[test]
    fn state_reuse_and_reset() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let k = ctx.bv_u64(3, 16);
        let e = ctx.bvmul(x, k);
        let prog = TapeProgram::compile(&ctx, &[e]);
        let mut st = prog.new_state();
        for i in 0..10u64 {
            prog.write_word(&mut st, prog.slot_of(x).unwrap(), i);
            prog.run(&mut st);
            assert_eq!(prog.read_word(&st, prog.root_slot(0)), (i * 3) & 0xFFFF);
        }
    }
}
