//! Tseitin bit-blasting of expression DAGs into CNF.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gila_expr::{BitVecValue, ExprCtx, ExprNode, ExprRef, Op, Value};
use gila_sat::{CancelToken, Lit, ResourceOut, SolveLimits, SolveResult, Solver, SolverStats};

mod array;
#[cfg(test)]
mod eager;

use array::{Arrays, MemId};

/// The bit-level representation of an expression.
#[derive(Clone, Debug)]
enum Repr {
    Bool(Lit),
    /// Bits, least-significant first.
    Bv(Vec<Lit>),
    /// A symbolic memory term (see the `array` module).
    Mem(MemId),
}

/// Outcome of a satisfiability check, with a model on the SAT side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable; query the model via [`SmtSolver::model_value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The check gave up (resource limit or cancellation); no verdict.
    /// See [`SmtSolver::set_limits`] / [`SmtSolver::set_cancel`].
    Unknown(ResourceOut),
}

impl SmtResult {
    /// True for [`SmtResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SmtResult::Sat)
    }

    /// True for [`SmtResult::Unknown`].
    pub fn is_unknown(self) -> bool {
        matches!(self, SmtResult::Unknown(_))
    }
}

impl From<SolveResult> for SmtResult {
    fn from(r: SolveResult) -> Self {
        match r {
            SolveResult::Sat => SmtResult::Sat,
            SolveResult::Unsat => SmtResult::Unsat,
            SolveResult::Unknown(out) => SmtResult::Unknown(out),
        }
    }
}

/// Size counters for the generated CNF — the basis of the "memory usage"
/// proxy reported in the Table I reproduction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlastStats {
    /// CNF variables created.
    pub variables: u64,
    /// Clauses added.
    pub clauses: u64,
}

impl BlastStats {
    /// A rough in-memory size estimate of the CNF, in megabytes, assuming
    /// an average of 3 literals (4 bytes each) plus 16 bytes of clause
    /// overhead, and 32 bytes per variable for watches/activity/assignment.
    pub fn estimated_mb(&self) -> f64 {
        let clause_bytes = self.clauses as f64 * (16.0 + 3.0 * 4.0);
        let var_bytes = self.variables as f64 * 32.0;
        (clause_bytes + var_bytes) / (1024.0 * 1024.0)
    }

    /// Component-wise maximum: the peak variable count *and* the peak
    /// clause count over two measurements. The peak memory over a set of
    /// queries is bounded by the component-wise max, not by whichever
    /// single query had the larger sum.
    pub fn max(self, other: BlastStats) -> BlastStats {
        BlastStats {
            variables: self.variables.max(other.variables),
            clauses: self.clauses.max(other.clauses),
        }
    }

    /// CNF added since an `earlier` snapshot of the same solver's stats
    /// (component-wise saturating difference). Used to attribute CNF
    /// growth to individual queries on a long-lived incremental solver.
    pub fn since(self, earlier: BlastStats) -> BlastStats {
        BlastStats {
            variables: self.variables.saturating_sub(earlier.variables),
            clauses: self.clauses.saturating_sub(earlier.clauses),
        }
    }
}

/// A bit-vector/memory satisfiability solver: blasts expressions from one
/// [`ExprCtx`] into CNF and solves with [`gila_sat::Solver`].
///
/// All expressions passed to one `SmtSolver` must come from the same
/// context (the one passed at each call); representations are cached by
/// expression handle.
///
/// # Examples
///
/// ```
/// use gila_expr::{ExprCtx, Sort};
/// use gila_smt::SmtSolver;
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let c = ctx.bv_u64(200, 8);
/// let gt = ctx.ugt(x, c);
/// let mut smt = SmtSolver::new();
/// smt.assert(&ctx, gt);
/// assert!(smt.check().is_sat());
/// assert!(smt.model_value(&ctx, x).as_bv().to_u64() > 200);
/// ```
#[derive(Debug, Default)]
pub struct SmtSolver {
    solver: Solver,
    cache: HashMap<ExprRef, Repr>,
    true_lit: Option<Lit>,
    stats: BlastStats,
    /// Activation literals of the open assertion scopes, innermost last.
    /// Asserts made inside a scope are guarded by its literal and are
    /// retracted (by a permanent unit clause on the negation) when the
    /// scope pops; the blasted definitions stay shared across scopes.
    scopes: Vec<Lit>,
    /// CNF grown by the most recent `check`/`check_assuming` call
    /// (blasting assumptions and array lemmas can add variables and
    /// clauses).
    last_check_cnf: BlastStats,
    /// SAT effort of the most recent `check`/`check_assuming` call,
    /// summed over its array-lemma rounds.
    last_check_effort: SolverStats,
    /// Wall time of the most recent check's SAT calls and array-lemma
    /// rounds (blasting its assumptions excluded).
    last_check_wall: Duration,
    /// Memory terms, their reads and the array lemmas added so far.
    arrays: Arrays,
}

impl SmtSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// CNF size counters so far.
    pub fn stats(&self) -> BlastStats {
        self.stats
    }

    /// Access to the effort counters of the underlying SAT solver.
    pub fn sat_stats(&self) -> gila_sat::SolverStats {
        self.solver.stats()
    }

    /// Solver effort spent by the most recent `check`/`check_assuming`
    /// call alone (counters are per-call deltas, summed over the SAT
    /// calls of its array-lemma rounds).
    pub fn last_check_effort(&self) -> gila_sat::SolverStats {
        self.last_check_effort
    }

    /// Wall time the most recent `check`/`check_assuming` call spent in
    /// its SAT calls and array-lemma rounds.
    pub fn last_check_wall(&self) -> Duration {
        self.last_check_wall
    }

    /// Installs per-check resource limits on the underlying SAT solver;
    /// a check that exceeds them returns [`SmtResult::Unknown`].
    /// `SolveLimits::default()` removes all limits.
    pub fn set_limits(&mut self, limits: SolveLimits) {
        self.solver.set_limits(limits);
    }

    /// The currently installed solve limits.
    pub fn limits(&self) -> SolveLimits {
        self.solver.limits()
    }

    /// Installs a shared cancellation token: once cancelled, in-flight
    /// and future checks return [`SmtResult::Unknown`] until it is reset.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.solver.set_cancel(token);
    }

    /// Incremental CNF growth caused by the most recent
    /// `check`/`check_assuming` call (zero when every assumption was
    /// already blasted — the cache-hit case incremental reuse aims for).
    pub fn last_check_cnf_delta(&self) -> BlastStats {
        self.last_check_cnf
    }

    fn tt(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = self.fresh();
        self.add_clause(vec![l]);
        self.true_lit = Some(l);
        l
    }

    fn ff(&mut self) -> Lit {
        !self.tt()
    }

    fn fresh(&mut self) -> Lit {
        self.stats.variables += 1;
        self.solver.new_var().positive()
    }

    fn add_clause(&mut self, lits: Vec<Lit>) {
        self.stats.clauses += 1;
        self.solver.add_clause(lits);
    }

    fn const_of(&self, l: Lit) -> Option<bool> {
        match self.true_lit {
            Some(t) if l == t => Some(true),
            Some(t) if l == !t => Some(false),
            _ => None,
        }
    }

    fn lit_of_bool(&mut self, b: bool) -> Lit {
        if b {
            self.tt()
        } else {
            self.ff()
        }
    }

    // ------------------------------------------------------------------
    // Gates (with constant short-circuiting)
    // ------------------------------------------------------------------

    fn gate_not(&mut self, a: Lit) -> Lit {
        !a
    }

    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => return self.ff(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.ff();
        }
        let c = self.fresh();
        self.add_clause(vec![!c, a]);
        self.add_clause(vec![!c, b]);
        self.add_clause(vec![c, !a, !b]);
        c
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = self.gate_not(a);
        let nb = self.gate_not(b);
        let n = self.gate_and(na, nb);
        self.gate_not(n)
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return !b,
            (_, Some(true)) => return !a,
            _ => {}
        }
        if a == b {
            return self.ff();
        }
        if a == !b {
            return self.tt();
        }
        let c = self.fresh();
        self.add_clause(vec![!c, a, b]);
        self.add_clause(vec![!c, !a, !b]);
        self.add_clause(vec![c, !a, b]);
        self.add_clause(vec![c, a, !b]);
        c
    }

    fn gate_iff(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.gate_xor(a, b);
        self.gate_not(x)
    }

    fn gate_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        match self.const_of(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        match (self.const_of(t), self.const_of(e)) {
            (Some(true), Some(false)) => return c,
            (Some(false), Some(true)) => return !c,
            (Some(true), None) => return self.gate_or(c, e),
            (Some(false), None) => {
                let nc = !c;
                return self.gate_and(nc, e);
            }
            (None, Some(true)) => {
                let nc = !c;
                return self.gate_or(nc, t);
            }
            (None, Some(false)) => return self.gate_and(c, t),
            _ => {}
        }
        let o = self.fresh();
        self.add_clause(vec![!o, !c, t]);
        self.add_clause(vec![!o, c, e]);
        self.add_clause(vec![o, !c, !t]);
        self.add_clause(vec![o, c, !e]);
        o
    }

    /// Full adder: returns (sum, carry).
    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.gate_xor(a, b);
        let sum = self.gate_xor(axb, cin);
        let ab = self.gate_and(a, b);
        let axb_cin = self.gate_and(axb, cin);
        let cout = self.gate_or(ab, axb_cin);
        (sum, cout)
    }

    fn adder(&mut self, a: &[Lit], b: &[Lit], mut cin: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], cin);
            out.push(s);
            cin = c;
        }
        out
    }

    fn negate_bv(&mut self, a: &[Lit]) -> Vec<Lit> {
        // -a = ~a + 1, realized as ~a + 0 with carry-in 1.
        let inv: Vec<Lit> = a.iter().map(|&l| !l).collect();
        let one = self.tt();
        let ff = self.ff();
        let zero = vec![ff; a.len()];
        self.adder(&inv, &zero, one)
    }

    fn sub_bv(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let invb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let one = self.tt();
        self.adder(a, &invb, one)
    }

    /// Unsigned less-than comparison chain from LSB to MSB.
    fn ult_bv(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut res = self.ff();
        for i in 0..a.len() {
            let eq = self.gate_iff(a[i], b[i]);
            let bi_gt = {
                let na = !a[i];
                self.gate_and(na, b[i])
            };
            let keep = self.gate_and(eq, res);
            res = self.gate_or(bi_gt, keep);
        }
        res
    }

    fn eq_bv(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut res = self.tt();
        for i in 0..a.len() {
            let e = self.gate_iff(a[i], b[i]);
            res = self.gate_and(res, e);
        }
        res
    }

    fn mux_bv(&mut self, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        t.iter()
            .zip(e)
            .map(|(&ti, &ei)| self.gate_ite(c, ti, ei))
            .collect()
    }

    fn shift_stage(
        &mut self,
        bits: &[Lit],
        amount_bit: Lit,
        shift: usize,
        left: bool,
        fill: Lit,
    ) -> Vec<Lit> {
        let w = bits.len();
        let mut shifted = Vec::with_capacity(w);
        for i in 0..w {
            let src = if left {
                if i >= shift {
                    bits[i - shift]
                } else {
                    fill
                }
            } else if i + shift < w {
                bits[i + shift]
            } else {
                fill
            };
            shifted.push(src);
        }
        self.mux_bv(amount_bit, &shifted, bits)
    }

    fn barrel_shift(&mut self, bits: &[Lit], amount: &[Lit], left: bool, fill: Lit) -> Vec<Lit> {
        let w = bits.len();
        // Stages up to the highest power of two below 2*w cover all useful
        // shifts; any higher amount bit forces the fill value everywhere.
        let mut useful_stages = 0;
        while (1usize << useful_stages) < w {
            useful_stages += 1;
        }
        let mut cur: Vec<Lit> = bits.to_vec();
        for (k, &ab) in amount.iter().enumerate().take(useful_stages) {
            cur = self.shift_stage(&cur, ab, 1 << k, left, fill);
        }
        // If any amount bit >= useful_stages is set, the result saturates
        // to the fill value. (Shift amounts in [w, 2^useful_stages) are
        // already handled by the stages shifting everything out.)
        let mut oversize = self.ff();
        for &ab in amount.iter().skip(useful_stages) {
            oversize = self.gate_or(oversize, ab);
        }
        let fills = vec![fill; w];
        self.mux_bv(oversize, &fills, &cur)
    }

    fn mul_bv(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let ff = self.ff();
        let mut acc = vec![ff; w];
        for i in 0..w {
            // addend = (a << i) AND b[i]
            let mut addend = Vec::with_capacity(w);
            for j in 0..w {
                if j < i {
                    addend.push(ff);
                } else {
                    addend.push(self.gate_and(a[j - i], b[i]));
                }
            }
            acc = self.adder(&acc, &addend, ff);
        }
        acc
    }

    /// Restoring long division: returns (quotient, remainder) for the
    /// division-by-nonzero case; the caller patches in SMT-LIB semantics
    /// for zero divisors.
    fn udivrem_bv(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let ff = self.ff();
        let mut q = vec![ff; w];
        let mut r = vec![ff; w];
        for i in (0..w).rev() {
            // r = (r << 1) | a[i]
            let mut r2 = Vec::with_capacity(w);
            r2.push(a[i]);
            r2.extend_from_slice(&r[..w - 1]);
            // if r2 >= b { r = r2 - b; q[i] = 1 } else { r = r2 }
            let lt = self.ult_bv(&r2, b);
            let ge = !lt;
            let diff = self.sub_bv(&r2, b);
            r = self.mux_bv(ge, &diff, &r2);
            q[i] = ge;
        }
        (q, r)
    }

    // ------------------------------------------------------------------
    // Blasting
    // ------------------------------------------------------------------

    fn bv_const_bits(&mut self, v: &BitVecValue) -> Vec<Lit> {
        (0..v.width())
            .map(|i| {
                let b = v.bit(i);
                self.lit_of_bool(b)
            })
            .collect()
    }

    fn blast(&mut self, ctx: &ExprCtx, root: ExprRef) -> Repr {
        let order = ctx.post_order(&[root]);
        for e in order {
            if self.cache.contains_key(&e) {
                continue;
            }
            let repr = match ctx.node(e).clone() {
                ExprNode::BoolConst(b) => Repr::Bool(self.lit_of_bool(b)),
                ExprNode::BvConst(v) => Repr::Bv(self.bv_const_bits(&v)),
                ExprNode::MemConst(m) => Repr::Mem(self.mem_const(&m)),
                ExprNode::Var { sort, .. } => match sort {
                    gila_expr::Sort::Bool => Repr::Bool(self.fresh()),
                    gila_expr::Sort::Bv(w) => {
                        Repr::Bv((0..w).map(|_| self.fresh()).collect())
                    }
                    gila_expr::Sort::Mem {
                        addr_width,
                        data_width,
                    } => Repr::Mem(self.mem_var(addr_width, data_width)),
                },
                ExprNode::App { op, args, .. } => self.blast_app(op, &args),
            };
            self.cache.insert(e, repr);
        }
        self.cache[&root].clone()
    }

    fn bool_arg(&self, e: ExprRef) -> Lit {
        match &self.cache[&e] {
            Repr::Bool(l) => *l,
            other => panic!("expected bool repr, got {other:?}"),
        }
    }

    fn bv_arg(&self, e: ExprRef) -> Vec<Lit> {
        match &self.cache[&e] {
            Repr::Bv(bits) => bits.clone(),
            other => panic!("expected bv repr, got {other:?}"),
        }
    }

    fn mem_arg(&self, e: ExprRef) -> MemId {
        match &self.cache[&e] {
            Repr::Mem(m) => *m,
            other => panic!("expected mem repr, got {other:?}"),
        }
    }

    fn blast_app(&mut self, op: Op, args: &[ExprRef]) -> Repr {
        use Op::*;
        match op {
            Not => {
                let a = self.bool_arg(args[0]);
                Repr::Bool(self.gate_not(a))
            }
            And => {
                let (a, b) = (self.bool_arg(args[0]), self.bool_arg(args[1]));
                Repr::Bool(self.gate_and(a, b))
            }
            Or => {
                let (a, b) = (self.bool_arg(args[0]), self.bool_arg(args[1]));
                Repr::Bool(self.gate_or(a, b))
            }
            Xor => {
                let (a, b) = (self.bool_arg(args[0]), self.bool_arg(args[1]));
                Repr::Bool(self.gate_xor(a, b))
            }
            Implies => {
                let (a, b) = (self.bool_arg(args[0]), self.bool_arg(args[1]));
                let na = !a;
                Repr::Bool(self.gate_or(na, b))
            }
            Iff => {
                let (a, b) = (self.bool_arg(args[0]), self.bool_arg(args[1]));
                Repr::Bool(self.gate_iff(a, b))
            }
            Ite => {
                let c = self.bool_arg(args[0]);
                match self.cache[&args[1]].clone() {
                    Repr::Bool(t) => {
                        let e = self.bool_arg(args[2]);
                        Repr::Bool(self.gate_ite(c, t, e))
                    }
                    Repr::Bv(t) => {
                        let e = self.bv_arg(args[2]);
                        Repr::Bv(self.mux_bv(c, &t, &e))
                    }
                    Repr::Mem(t) => {
                        let e = self.mem_arg(args[2]);
                        Repr::Mem(self.mem_ite(c, t, e))
                    }
                }
            }
            Eq => match self.cache[&args[0]].clone() {
                Repr::Bool(a) => {
                    let b = self.bool_arg(args[1]);
                    Repr::Bool(self.gate_iff(a, b))
                }
                Repr::Bv(a) => {
                    let b = self.bv_arg(args[1]);
                    Repr::Bool(self.eq_bv(&a, &b))
                }
                Repr::Mem(a) => {
                    let b = self.mem_arg(args[1]);
                    Repr::Bool(self.mem_eq(a, b))
                }
            },
            BvNot => {
                let a = self.bv_arg(args[0]);
                Repr::Bv(a.iter().map(|&l| !l).collect())
            }
            BvNeg => {
                let a = self.bv_arg(args[0]);
                Repr::Bv(self.negate_bv(&a))
            }
            BvAnd => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                Repr::Bv(a.iter().zip(&b).map(|(&x, &y)| self.gate_and(x, y)).collect())
            }
            BvOr => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                Repr::Bv(a.iter().zip(&b).map(|(&x, &y)| self.gate_or(x, y)).collect())
            }
            BvXor => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                Repr::Bv(a.iter().zip(&b).map(|(&x, &y)| self.gate_xor(x, y)).collect())
            }
            BvAdd => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let ff = self.ff();
                Repr::Bv(self.adder(&a, &b, ff))
            }
            BvSub => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                Repr::Bv(self.sub_bv(&a, &b))
            }
            BvMul => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                Repr::Bv(self.mul_bv(&a, &b))
            }
            BvUdiv | BvUrem => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let (q, r) = self.udivrem_bv(&a, &b);
                let ff = self.ff();
                let zero = vec![ff; b.len()];
                let b_is_zero = self.eq_bv(&b, &zero);
                if op == BvUdiv {
                    let ones = vec![self.tt(); a.len()];
                    Repr::Bv(self.mux_bv(b_is_zero, &ones, &q))
                } else {
                    Repr::Bv(self.mux_bv(b_is_zero, &a, &r))
                }
            }
            BvShl => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let ff = self.ff();
                Repr::Bv(self.barrel_shift(&a, &b, true, ff))
            }
            BvLshr => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let ff = self.ff();
                Repr::Bv(self.barrel_shift(&a, &b, false, ff))
            }
            BvAshr => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let sign = *a.last().expect("non-empty bv");
                Repr::Bv(self.barrel_shift(&a, &b, false, sign))
            }
            BvConcat => {
                let (hi, lo) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let mut bits = lo;
                bits.extend(hi);
                Repr::Bv(bits)
            }
            BvExtract { hi, lo } => {
                let a = self.bv_arg(args[0]);
                Repr::Bv(a[lo as usize..=hi as usize].to_vec())
            }
            BvZext { to } => {
                let mut a = self.bv_arg(args[0]);
                let ff = self.ff();
                a.resize(to as usize, ff);
                Repr::Bv(a)
            }
            BvSext { to } => {
                let mut a = self.bv_arg(args[0]);
                let sign = *a.last().expect("non-empty bv");
                a.resize(to as usize, sign);
                Repr::Bv(a)
            }
            BvUlt => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                Repr::Bool(self.ult_bv(&a, &b))
            }
            BvUle => {
                let (a, b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let gt = self.ult_bv(&b, &a);
                Repr::Bool(!gt)
            }
            BvSlt => {
                let (mut a, mut b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                // Flip sign bits to reduce to unsigned comparison.
                let la = a.len();
                a[la - 1] = !a[la - 1];
                let lb = b.len();
                b[lb - 1] = !b[lb - 1];
                Repr::Bool(self.ult_bv(&a, &b))
            }
            BvSle => {
                let (mut a, mut b) = (self.bv_arg(args[0]), self.bv_arg(args[1]));
                let la = a.len();
                a[la - 1] = !a[la - 1];
                let lb = b.len();
                b[lb - 1] = !b[lb - 1];
                let gt = self.ult_bv(&b, &a);
                Repr::Bool(!gt)
            }
            MemRead => {
                let mem = self.mem_arg(args[0]);
                let addr = self.bv_arg(args[1]);
                Repr::Bv(self.mem_read(mem, addr))
            }
            MemWrite => {
                let mem = self.mem_arg(args[0]);
                let addr = self.bv_arg(args[1]);
                let data = self.bv_arg(args[2]);
                Repr::Mem(self.mem_write(mem, addr, data))
            }
            BoolToBv => {
                let a = self.bool_arg(args[0]);
                Repr::Bv(vec![a])
            }
        }
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Asserts that the boolean expression `e` holds.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not boolean-sorted or comes from a different
    /// context than earlier calls.
    pub fn assert(&mut self, ctx: &ExprCtx, e: ExprRef) {
        assert!(
            ctx.sort_of(e).is_bool(),
            "assert expects a boolean expression, got {}",
            ctx.sort_of(e)
        );
        // A cancelled/expired solver skips the encoding: every
        // subsequent check fast-fails with `Unknown` (cancellation is
        // never un-done within a run), so the skipped constraint can
        // never be missed by a real verdict. Blasted definitions are
        // conservative, so the partial state stays sound.
        if self.solver.resources_exhausted().is_some() {
            return;
        }
        match self.blast(ctx, e) {
            Repr::Bool(l) => match self.scopes.last() {
                Some(&active) => self.add_clause(vec![!active, l]),
                None => self.add_clause(vec![l]),
            },
            _ => unreachable!("bool expression blasted to non-bool"),
        }
    }

    /// Opens an assertion scope: asserts made until the matching
    /// [`SmtSolver::pop_scope`] are retractable as a group, while the CNF
    /// they blasted — and any clauses the solver learned from it — stay
    /// behind for reuse. Scopes nest (LIFO); returns the new depth.
    ///
    /// This is the MiniSat activation-literal pattern: each scoped assert
    /// of literal `l` becomes the clause `¬a ∨ l` for the scope's fresh
    /// literal `a`, and every `check`/`check_assuming` assumes the `a`s of
    /// all open scopes.
    pub fn push_scope(&mut self) -> usize {
        let activation = self.fresh();
        self.scopes.push(activation);
        self.scopes.len()
    }

    /// Closes the innermost scope, permanently retracting its asserts.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop_scope(&mut self) {
        let activation = self.scopes.pop().expect("pop_scope without open scope");
        // The unit clause permanently satisfies every clause that only
        // mattered under this scope.
        self.add_clause(vec![!activation]);
    }

    /// Number of currently open assertion scopes.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Checks satisfiability of all assertions so far.
    pub fn check(&mut self) -> SmtResult {
        let before = self.stats;
        let scopes = self.scopes.clone();
        let result = self.solve_with_array_lemmas(&scopes);
        self.last_check_cnf = self.stats.since(before);
        result
    }

    /// Solves under `assumptions`, then checks each SAT model against
    /// the theory of arrays: violated array lemmas are added as
    /// permanent clauses and the solver re-solves, until the model is
    /// consistent or the answer is UNSAT/unknown. Resource limits cover
    /// the whole loop, not each round.
    fn solve_with_array_lemmas(&mut self, assumptions: &[Lit]) -> SmtResult {
        let t0 = Instant::now();
        let start = self.solver.stats();
        let limits = self.solver.limits();
        let result = loop {
            let r = self.solver.solve_with_assumptions(assumptions);
            if !r.is_sat() || !self.add_array_lemmas() {
                break r;
            }
            let spent = self.solver.stats().since(start);
            self.solver.set_limits(SolveLimits {
                conflicts: limits.conflicts.map(|c| c.saturating_sub(spent.conflicts)),
                propagations: limits
                    .propagations
                    .map(|p| p.saturating_sub(spent.propagations)),
                deadline: limits.deadline,
            });
        };
        self.solver.set_limits(limits);
        self.last_check_effort = self.solver.stats().since(start);
        self.last_check_wall = t0.elapsed();
        result.into()
    }

    /// Checks satisfiability of the assertions *plus* the given boolean
    /// expressions, assumed only for this call. Learned clauses persist,
    /// making repeated related queries (e.g. one per instruction over a
    /// shared unrolling) much cheaper than independent solvers.
    ///
    /// # Panics
    ///
    /// Panics if an assumption is not boolean-sorted.
    pub fn check_assuming(&mut self, ctx: &ExprCtx, assumptions: &[ExprRef]) -> SmtResult {
        // Fast-fail before blasting: a cancelled or deadline-expired
        // solver would only report the same `Unknown` after paying for
        // the assumptions' (possibly large) encoding. This is what makes
        // a serve-layer disconnect or watchdog cancellation take effect
        // between properties, not just mid-search.
        if self.solver.resources_exhausted().is_some() {
            self.last_check_cnf = BlastStats::default();
            let t0 = Instant::now();
            let r = self.solver.solve_with_assumptions(&self.scopes.clone());
            self.last_check_effort = self.solver.last_solve_stats();
            self.last_check_wall = t0.elapsed();
            return r.into();
        }
        let before = self.stats;
        let mut lits: Vec<Lit> = assumptions
            .iter()
            .map(|&e| {
                assert!(
                    ctx.sort_of(e).is_bool(),
                    "assumptions must be boolean, got {}",
                    ctx.sort_of(e)
                );
                match self.blast(ctx, e) {
                    Repr::Bool(l) => l,
                    _ => unreachable!("bool expression blasted to non-bool"),
                }
            })
            .collect();
        lits.extend_from_slice(&self.scopes);
        let result = self.solve_with_array_lemmas(&lits);
        self.last_check_cnf = self.stats.since(before);
        result
    }

    /// Reads the value of an expression from the most recent model.
    ///
    /// Unconstrained bits read as 0. Typically called on variables to
    /// build counterexample traces, but works on any blasted expression.
    ///
    /// # Panics
    ///
    /// Panics if `e` has not been blasted (i.e. was not part of any
    /// assertion); use [`SmtSolver::try_model_value`] to handle that case.
    pub fn model_value(&self, ctx: &ExprCtx, e: ExprRef) -> Value {
        self.try_model_value(ctx, e)
            .unwrap_or_else(|| panic!("expression was not part of any assertion"))
    }

    /// Like [`SmtSolver::model_value`], but returns `None` for
    /// expressions that were never blasted (e.g. variables not mentioned
    /// in any assertion).
    pub fn try_model_value(&self, _ctx: &ExprCtx, e: ExprRef) -> Option<Value> {
        let repr = self.cache.get(&e)?;
        let bit = |l: Lit| self.solver.lit_model_value(l).unwrap_or(false);
        Some(match repr {
            Repr::Bool(l) => Value::Bool(bit(*l)),
            Repr::Bv(bits) => {
                let bools: Vec<bool> = bits.iter().map(|&l| bit(l)).collect();
                Value::Bv(BitVecValue::from_bits(&bools))
            }
            Repr::Mem(m) => Value::Mem(self.mem_model_value(*m)),
        })
    }
}

/// Convenience check that two expressions are semantically equivalent
/// (for all variable assignments), via one UNSAT query on `a != b`.
///
/// # Examples
///
/// ```
/// use gila_expr::{ExprCtx, Sort};
/// use gila_smt::prove_equiv;
///
/// let mut ctx = ExprCtx::new();
/// let x = ctx.var("x", Sort::Bv(8));
/// let two = ctx.bv_u64(2, 8);
/// let one = ctx.bv_u64(1, 8);
/// let twice = ctx.bvmul(x, two);
/// let shifted = ctx.bvshl(x, one);
/// assert!(prove_equiv(&mut ctx, twice, shifted));
/// ```
pub fn prove_equiv(ctx: &mut ExprCtx, a: ExprRef, b: ExprRef) -> bool {
    let ne = ctx.ne(a, b);
    let mut smt = SmtSolver::new();
    smt.assert(ctx, ne);
    !smt.check().is_sat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_expr::{MemValue, Sort};

    fn check_valid(ctx: &mut ExprCtx, prop: ExprRef) -> bool {
        let neg = ctx.not(prop);
        let mut smt = SmtSolver::new();
        smt.assert(ctx, neg);
        !smt.check().is_sat()
    }

    #[test]
    fn limits_pass_through_and_unknown_surfaces() {
        // A 10-bit multiplication equivalence is hard enough to burn a
        // tiny conflict budget; clearing the limit converges to Unsat.
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(10));
        let y = ctx.var("y", Sort::Bv(10));
        let l = ctx.bvmul(x, y);
        let r = ctx.bvmul(y, x);
        let ne = ctx.ne(l, r);
        let mut smt = SmtSolver::new();
        smt.assert(&ctx, ne);
        smt.set_limits(SolveLimits {
            conflicts: Some(1),
            ..Default::default()
        });
        assert_eq!(smt.check(), SmtResult::Unknown(ResourceOut::Conflicts));
        assert!(smt.check().is_unknown());
        smt.set_limits(SolveLimits::default());
        assert_eq!(smt.check(), SmtResult::Unsat);
    }

    #[test]
    fn cancel_token_passes_through_scoped_checks() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let c = ctx.bv_u64(7, 8);
        let eq = ctx.eq(x, c);
        let mut smt = SmtSolver::new();
        let tok = CancelToken::new();
        smt.set_cancel(tok.clone());
        smt.push_scope();
        smt.assert(&ctx, eq);
        assert!(smt.check().is_sat());
        tok.cancel();
        assert!(smt.check().is_unknown());
        tok.reset();
        assert!(smt.check().is_sat());
        smt.pop_scope();
    }

    #[test]
    fn add_commutes() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let l = ctx.bvadd(x, y);
        let r = ctx.bvadd(y, x);
        let prop = ctx.eq(l, r);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn add_not_idempotent() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let l = ctx.bvadd(x, x);
        let prop = ctx.eq(l, x);
        assert!(!check_valid(&mut ctx, prop)); // fails for x != 0
    }

    #[test]
    fn sat_model_is_consistent() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let sum = ctx.bvadd(x, y);
        let want = ctx.bv_u64(100, 8);
        let c1 = ctx.eq(sum, want);
        let lim = ctx.bv_u64(10, 8);
        let c2 = ctx.ult(x, lim);
        let mut smt = SmtSolver::new();
        smt.assert(&ctx, c1);
        smt.assert(&ctx, c2);
        assert!(smt.check().is_sat());
        let vx = smt.model_value(&ctx, x).as_bv().to_u64();
        let vy = smt.model_value(&ctx, y).as_bv().to_u64();
        assert!(vx < 10);
        assert_eq!((vx + vy) % 256, 100);
    }

    #[test]
    fn subtraction_inverts_addition() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(6));
        let y = ctx.var("y", Sort::Bv(6));
        let s = ctx.bvadd(x, y);
        let d = ctx.bvsub(s, y);
        let prop = ctx.eq(d, x);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn neg_is_sub_from_zero() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(5));
        let z = ctx.bv_u64(0, 5);
        let a = ctx.bvneg(x);
        let b = ctx.bvsub(z, x);
        let prop = ctx.eq(a, b);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn mul_matches_repeated_add() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(6));
        let three = ctx.bv_u64(3, 6);
        let m = ctx.bvmul(x, three);
        let xx = ctx.bvadd(x, x);
        let xxx = ctx.bvadd(xx, x);
        let prop = ctx.eq(m, xxx);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn divrem_reconstruction() {
        // For b != 0: a = b*q + r and r < b.
        let mut ctx = ExprCtx::new();
        let a = ctx.var("a", Sort::Bv(5));
        let b = ctx.var("b", Sort::Bv(5));
        let zero = ctx.bv_u64(0, 5);
        let b_nonzero = ctx.ne(b, zero);
        let q = ctx.bvudiv(a, b);
        let r = ctx.bvurem(a, b);
        let bq = ctx.bvmul(b, q);
        let sum = ctx.bvadd(bq, r);
        let recon = ctx.eq(sum, a);
        let r_lt_b = ctx.ult(r, b);
        let both = ctx.and(recon, r_lt_b);
        let prop = ctx.implies(b_nonzero, both);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn div_by_zero_semantics() {
        let mut ctx = ExprCtx::new();
        let a = ctx.var("a", Sort::Bv(5));
        let zero = ctx.bv_u64(0, 5);
        let q = ctx.bvudiv(a, zero);
        let ones = ctx.bv(BitVecValue::ones(5));
        let p1 = ctx.eq(q, ones);
        let r = ctx.bvurem(a, zero);
        let p2 = ctx.eq(r, a);
        let prop = ctx.and(p1, p2);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn shifts_match_mul_div_by_powers() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let two = ctx.bv_u64(2, 8);
        let one = ctx.bv_u64(1, 8);
        let l = ctx.bvshl(x, one);
        let m = ctx.bvmul(x, two);
        let prop = ctx.eq(l, m);
        assert!(check_valid(&mut ctx, prop));
        // Symbolic shift amount >= width gives zero.
        let amt = ctx.var("amt", Sort::Bv(8));
        let w = ctx.bv_u64(8, 8);
        let big = ctx.uge(amt, w);
        let sh = ctx.bvshl(x, amt);
        let z = ctx.bv_u64(0, 8);
        let is_z = ctx.eq(sh, z);
        let prop = ctx.implies(big, is_z);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn ashr_fills_with_sign() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(4));
        let amt = ctx.bv_u64(3, 4);
        let sh = ctx.bvashr(x, amt);
        // If MSB set, result is 0b1111 or 0b0001-extended... specifically
        // ashr by 3 of a 4-bit value leaves bit0 = msb copies: result is
        // 0b1111 if msb else 0b000<bit3>=0.. actually bits: [b3,b3,b3,b3]
        // when shifting by 3: out = [b3, s, s, s] where s = sign.
        let c8 = ctx.bv_u64(8, 4);
        let msb_set = ctx.uge(x, c8);
        let ones = ctx.bv(BitVecValue::ones(4));
        let all1 = ctx.eq(sh, ones);
        let prop = ctx.implies(msb_set, all1);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn signed_comparisons() {
        let mut ctx = ExprCtx::new();
        let a = ctx.bv_u64(0xFF, 8); // -1 signed
        let b = ctx.bv_u64(1, 8);
        let lt = ctx.slt(a, b);
        let mut smt = SmtSolver::new();
        smt.assert(&ctx, lt);
        assert!(smt.check().is_sat()); // constant-folded true actually
        // Symbolic check: x slt 0 iff msb(x)
        let x = ctx.var("x", Sort::Bv(8));
        let zero = ctx.bv_u64(0, 8);
        let neg = ctx.slt(x, zero);
        let msb = ctx.extract(x, 7, 7);
        let msb1 = ctx.eq_u64(msb, 1);
        let prop = ctx.iff(neg, msb1);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn concat_extract_inverse() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(12));
        let hi = ctx.extract(x, 11, 8);
        let lo = ctx.extract(x, 7, 0);
        let back = ctx.concat(hi, lo);
        let prop = ctx.eq(back, x);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn zext_sext_props() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(4));
        let zx = ctx.zext(x, 8);
        let c16 = ctx.bv_u64(16, 8);
        let prop = ctx.ult(zx, c16);
        assert!(check_valid(&mut ctx, prop));
        let sx = ctx.sext(x, 8);
        let sxl = ctx.extract(sx, 3, 0);
        let prop = ctx.eq(sxl, x);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn memory_read_after_write() {
        let mut ctx = ExprCtx::new();
        let m = ctx.var(
            "m",
            Sort::Mem {
                addr_width: 3,
                data_width: 4,
            },
        );
        let a = ctx.var("a", Sort::Bv(3));
        let b = ctx.var("b", Sort::Bv(3));
        let d = ctx.var("d", Sort::Bv(4));
        let w = ctx.mem_write(m, a, d);
        let r_same = ctx.mem_read(w, a);
        let prop = ctx.eq(r_same, d);
        assert!(check_valid(&mut ctx, prop));
        // Different address is unchanged.
        let neq = ctx.ne(a, b);
        let r_other = ctx.mem_read(w, b);
        let orig = ctx.mem_read(m, b);
        let same = ctx.eq(r_other, orig);
        let prop = ctx.implies(neq, same);
        assert!(check_valid(&mut ctx, prop));
    }

    /// Multiplication commutes at bv6. The proof cost climbs steeply
    /// with width: bv8 takes over a second, bv10 minutes (above).
    #[test]
    fn mul_commutes_bv6() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(6));
        let y = ctx.var("y", Sort::Bv(6));
        let l = ctx.bvmul(x, y);
        let r = ctx.bvmul(y, x);
        let prop = ctx.eq(l, r);
        assert!(check_valid(&mut ctx, prop));
    }

    /// Read-after-write at 2^4, 2^6 and 2^8 words of 8 bits.
    #[test]
    fn memory_read_after_write_up_to_256_words() {
        for aw in [4, 6, 8] {
            let mut ctx = ExprCtx::new();
            let m = ctx.var(
                "m",
                Sort::Mem {
                    addr_width: aw,
                    data_width: 8,
                },
            );
            let a = ctx.var("a", Sort::Bv(aw));
            let d = ctx.var("d", Sort::Bv(8));
            let w = ctx.mem_write(m, a, d);
            let r = ctx.mem_read(w, a);
            let prop = ctx.eq(r, d);
            assert!(check_valid(&mut ctx, prop), "2^{aw} words");
        }
    }

    #[test]
    fn memory_equality() {
        let mut ctx = ExprCtx::new();
        let sort = Sort::Mem {
            addr_width: 2,
            data_width: 4,
        };
        let m1 = ctx.var("m1", sort);
        let m2 = ctx.var("m2", sort);
        let eq = ctx.eq(m1, m2);
        let a = ctx.var("a", Sort::Bv(2));
        let r1 = ctx.mem_read(m1, a);
        let r2 = ctx.mem_read(m2, a);
        let reads_eq = ctx.eq(r1, r2);
        let prop = ctx.implies(eq, reads_eq);
        assert!(check_valid(&mut ctx, prop));
    }

    #[test]
    fn randomized_blast_matches_eval() {
        use gila_expr::{eval, Env};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for round in 0..60 {
            let mut ctx = ExprCtx::new();
            let x = ctx.var("x", Sort::Bv(6));
            let y = ctx.var("y", Sort::Bv(6));
            let mut pool = vec![x, y];
            for _ in 0..8 {
                let a = pool[rng.gen_range(0..pool.len())];
                let b = pool[rng.gen_range(0..pool.len())];
                let e = match rng.gen_range(0..10) {
                    0 => ctx.bvadd(a, b),
                    1 => ctx.bvsub(a, b),
                    2 => ctx.bvmul(a, b),
                    3 => ctx.bvand(a, b),
                    4 => ctx.bvor(a, b),
                    5 => ctx.bvxor(a, b),
                    6 => ctx.bvshl(a, b),
                    7 => ctx.bvlshr(a, b),
                    8 => ctx.bvudiv(a, b),
                    _ => ctx.bvurem(a, b),
                };
                pool.push(e);
            }
            let root = *pool.last().unwrap();
            let vx = rng.gen_range(0..64u64);
            let vy = rng.gen_range(0..64u64);
            let mut env = Env::new();
            env.bind_u64(&ctx, "x", vx);
            env.bind_u64(&ctx, "y", vy);
            let expected = eval(&ctx, root, &env).unwrap().as_bv().clone();
            // Constrain x and y to the concrete values; the root must equal
            // the evaluator's answer.
            let cx = ctx.eq_u64(x, vx);
            let cy = ctx.eq_u64(y, vy);
            let cr = ctx.bv(expected.clone());
            let eq_root = ctx.eq(root, cr);
            let mut smt = SmtSolver::new();
            smt.assert(&ctx, cx);
            smt.assert(&ctx, cy);
            assert!(smt.check().is_sat(), "round {round}");
            // And asserting the equality keeps it SAT...
            smt.assert(&ctx, eq_root);
            assert!(smt.check().is_sat(), "round {round}: blast disagrees with eval");
            // ...while asserting the negation instead is UNSAT.
            let mut smt2 = SmtSolver::new();
            smt2.assert(&ctx, cx);
            smt2.assert(&ctx, cy);
            let neq = ctx.ne(root, cr);
            smt2.assert(&ctx, neq);
            assert!(!smt2.check().is_sat(), "round {round}: blast disagrees with eval (neq SAT)");
        }
        for round in 0..150 {
            memory_round(&mut rng, round);
        }
    }

    /// A random formula over two memory variables, two addresses, a
    /// data word and a boolean, built from reads, writes, `ite` and
    /// equality over memories and constant memories. Returns the
    /// formula and the variables it may mention.
    fn random_memory_formula(
        rng: &mut impl rand::Rng,
        ctx: &mut ExprCtx,
    ) -> (ExprRef, Vec<ExprRef>) {
        let aw = rng.gen_range(1..=3u32);
        let dw = rng.gen_range(1..=3u32);
        let sort = Sort::Mem {
            addr_width: aw,
            data_width: dw,
        };
        let m1 = ctx.var("m1", sort);
        let m2 = ctx.var("m2", sort);
        let i = ctx.var("i", Sort::Bv(aw));
        let j = ctx.var("j", Sort::Bv(aw));
        let d = ctx.var("d", Sort::Bv(dw));
        let b = ctx.var("b", Sort::Bool);
        let vars = vec![m1, m2, i, j, d, b];
        let c = ctx.bv_u64(rng.gen_range(0..1u64 << aw), aw);
        let mut mems = vec![m1, m2];
        let (addrs, mut data, mut bools) = ([i, j, c], vec![d], vec![b]);
        let mut mem_eqs = Vec::new();
        for _ in 0..12 {
            match rng.gen_range(0..8) {
                0 | 1 => {
                    let (m, a, v) = (pick(rng, &mems), pick(rng, &addrs), pick(rng, &data));
                    mems.push(ctx.mem_write(m, a, v));
                }
                2 => {
                    let (c, t, e) = (pick(rng, &bools), pick(rng, &mems), pick(rng, &mems));
                    mems.push(ctx.ite(c, t, e));
                }
                3 => {
                    let v = random_mem_value(rng, aw, dw);
                    mems.push(ctx.mem_const(v));
                }
                4 => {
                    let (m, a) = (pick(rng, &mems), pick(rng, &addrs));
                    data.push(ctx.mem_read(m, a));
                }
                5 | 6 => {
                    let (x, y) = (pick(rng, &mems), pick(rng, &mems));
                    let e = ctx.eq(x, y);
                    mem_eqs.push(e);
                    bools.push(e);
                }
                _ => {
                    let (x, y) = (pick(rng, &data), pick(rng, &data));
                    bools.push(ctx.eq(x, y));
                }
            }
        }
        // Combine a memory equality with the latest facts, so every
        // formula exercises the array encoding.
        let mut root = match mem_eqs.last() {
            Some(&e) => e,
            None => {
                let (x, y) = (pick(rng, &mems), pick(rng, &mems));
                ctx.eq(x, y)
            }
        };
        for &other in bools.iter().rev().take(3) {
            root = match rng.gen_range(0..3) {
                0 => ctx.and(root, other),
                1 => ctx.or(root, other),
                _ => {
                    let n = ctx.not(other);
                    ctx.and(root, n)
                }
            };
        }
        (root, vars)
    }

    fn pick(rng: &mut impl rand::Rng, pool: &[ExprRef]) -> ExprRef {
        pool[rng.gen_range(0..pool.len())]
    }

    fn random_mem_value(rng: &mut impl rand::Rng, aw: u32, dw: u32) -> MemValue {
        let mask = (1u64 << dw) - 1;
        let mut v = MemValue::filled(aw, dw, BitVecValue::from_u64(rng.gen::<u64>() & mask, dw));
        for _ in 0..rng.gen_range(0..=(1usize << aw)) {
            let a = rng.gen_range(0..1u64 << aw);
            v = v.write_word(a, BitVecValue::from_u64(rng.gen::<u64>() & mask, dw));
        }
        v
    }

    /// The eager-oracle verdict on `formula`.
    fn eager_verdict(ctx: &mut ExprCtx, formula: ExprRef) -> bool {
        let flat = eager::expand(ctx, formula);
        let mut smt = SmtSolver::new();
        smt.assert(ctx, flat);
        smt.check().is_sat()
    }

    /// On SAT, the model value of every variable of `formula` satisfies
    /// it under the concrete evaluator.
    fn assert_model_satisfies(smt: &SmtSolver, ctx: &ExprCtx, formula: ExprRef, what: &str) {
        use gila_expr::{eval, Env};
        let mut env = Env::new();
        for v in ctx.vars_of(&[formula]) {
            env.bind(v, smt.model_value(ctx, v));
        }
        let value = eval(ctx, formula, &env).expect("all variables bound");
        assert!(value.as_bool(), "{what}: the model does not satisfy the formula");
    }

    fn memory_round(rng: &mut impl rand::Rng, round: usize) {
        use gila_expr::{eval, Env};
        let mut ctx = ExprCtx::new();
        let (root, vars) = random_memory_formula(rng, &mut ctx);
        let neg = ctx.not(root);
        let want = [
            (root, eager_verdict(&mut ctx, root)),
            (neg, eager_verdict(&mut ctx, neg)),
        ];
        assert!(want[0].1 || want[1].1, "round {round}: a formula or its negation is SAT");

        // Asserted outright, asserted inside a scope, and assumed.
        let mut scoped = SmtSolver::new();
        let mut assuming = SmtSolver::new();
        for &(f, sat) in &want {
            let mut plain = SmtSolver::new();
            plain.assert(&ctx, f);
            assert_eq!(plain.check().is_sat(), sat, "round {round}: assert vs eager oracle");
            if sat {
                assert_model_satisfies(&plain, &ctx, f, &format!("round {round} assert"));
            }
            scoped.push_scope();
            scoped.assert(&ctx, f);
            assert_eq!(scoped.check().is_sat(), sat, "round {round}: scoped vs eager oracle");
            if sat {
                assert_model_satisfies(&scoped, &ctx, f, &format!("round {round} scoped"));
            }
            scoped.pop_scope();
            assert_eq!(
                assuming.check_assuming(&ctx, &[f]).is_sat(),
                sat,
                "round {round}: check_assuming vs eager oracle"
            );
            if sat {
                assert_model_satisfies(&assuming, &ctx, f, &format!("round {round} assuming"));
            }
        }

        // Pinned to a random concrete assignment, the verdict is the
        // evaluator's value of the formula.
        let mut env = Env::new();
        let mut pins = Vec::new();
        for &v in &vars {
            let value = match ctx.sort_of(v) {
                Sort::Bool => Value::Bool(rng.gen_bool(0.5)),
                Sort::Bv(w) => Value::Bv(BitVecValue::from_u64(rng.gen_range(0..1u64 << w), w)),
                Sort::Mem {
                    addr_width,
                    data_width,
                } => Value::Mem(random_mem_value(rng, addr_width, data_width)),
            };
            let c = match &value {
                Value::Bool(b) => ctx.bool_const(*b),
                Value::Bv(x) => ctx.bv(x.clone()),
                Value::Mem(m) => ctx.mem_const(m.clone()),
            };
            pins.push(ctx.eq(v, c));
            env.bind(v, value);
        }
        let expected = eval(&ctx, root, &env).expect("all variables bound").as_bool();
        let mut pinned = SmtSolver::new();
        for &p in &pins {
            pinned.assert(&ctx, p);
        }
        assert_eq!(
            pinned.check_assuming(&ctx, &[root]).is_sat(),
            expected,
            "round {round}: pinned verdict vs eval"
        );
        assert_eq!(
            pinned.check_assuming(&ctx, &[neg]).is_sat(),
            !expected,
            "round {round}: pinned negation vs eval"
        );
        let pinned_all = ctx.and_many(&pins);
        let with_root = ctx.and(pinned_all, root);
        assert_eq!(eager_verdict(&mut ctx, with_root), expected, "round {round}: eager vs eval");
    }

    #[test]
    fn prove_equiv_helper() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let a = ctx.bvxor(x, x);
        let b = ctx.bv_u64(0, 8);
        assert!(prove_equiv(&mut ctx, a, b));
        let c = ctx.bvadd(x, x);
        assert!(!prove_equiv(&mut ctx, c, b));
    }

    #[test]
    fn stats_grow() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let y = ctx.var("y", Sort::Bv(16));
        let p = ctx.bvmul(x, y);
        let c = ctx.bv_u64(12345, 16);
        let e = ctx.eq(p, c);
        let mut smt = SmtSolver::new();
        smt.assert(&ctx, e);
        assert!(smt.stats().variables > 32);
        assert!(smt.stats().clauses > 100);
        assert!(smt.stats().estimated_mb() > 0.0);
    }

    #[test]
    fn stats_max_is_componentwise() {
        let a = BlastStats {
            variables: 10,
            clauses: 1,
        };
        let b = BlastStats {
            variables: 2,
            clauses: 8,
        };
        let m = a.max(b);
        assert_eq!(m.variables, 10);
        assert_eq!(m.clauses, 8);
        let d = m.since(a);
        assert_eq!(d.variables, 0);
        assert_eq!(d.clauses, 7);
    }

    #[test]
    fn popped_scope_asserts_are_retracted() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let c200 = ctx.bv_u64(200, 8);
        let c10 = ctx.bv_u64(10, 8);
        let hi = ctx.ugt(x, c200);
        let lo = ctx.ult(x, c10);
        let mut smt = SmtSolver::new();
        smt.assert(&ctx, hi);
        assert_eq!(smt.scope_depth(), 0);
        assert_eq!(smt.push_scope(), 1);
        smt.assert(&ctx, lo);
        // x > 200 && x < 10 is contradictory...
        assert!(!smt.check().is_sat());
        smt.pop_scope();
        assert_eq!(smt.scope_depth(), 0);
        // ...but only the scoped half is retracted by the pop.
        assert!(smt.check().is_sat());
        assert!(smt.model_value(&ctx, x).as_bv().to_u64() > 200);
    }

    #[test]
    fn scopes_nest_lifo() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let is5 = ctx.eq_u64(x, 5);
        let is7 = ctx.eq_u64(x, 7);
        let mut smt = SmtSolver::new();
        smt.push_scope();
        smt.assert(&ctx, is5);
        smt.push_scope();
        smt.assert(&ctx, is7);
        assert!(!smt.check().is_sat());
        smt.pop_scope();
        assert!(smt.check().is_sat());
        assert_eq!(smt.model_value(&ctx, x).as_bv().to_u64(), 5);
        smt.pop_scope();
        assert!(smt.check().is_sat());
    }

    #[test]
    fn successive_scopes_do_not_leak_assumptions() {
        // The shared-worker pattern: one solver, one instruction per
        // scope; verdicts must match what isolated solvers would say.
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let mut smt = SmtSolver::new();
        for target in [5u64, 7, 9] {
            smt.push_scope();
            let eq = ctx.eq_u64(x, target);
            smt.assert(&ctx, eq);
            assert!(smt.check().is_sat(), "x == {target} alone must be SAT");
            assert_eq!(smt.model_value(&ctx, x).as_bv().to_u64(), target);
            smt.pop_scope();
        }
    }

    #[test]
    fn scoped_reuse_does_not_reblast() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let y = ctx.var("y", Sort::Bv(16));
        let p = ctx.bvmul(x, y);
        let c = ctx.bv_u64(12345, 16);
        let e = ctx.eq(p, c);
        let mut smt = SmtSolver::new();
        smt.push_scope();
        smt.assert(&ctx, e);
        assert!(smt.check().is_sat());
        let after_first = smt.stats();
        smt.pop_scope();
        smt.push_scope();
        smt.assert(&ctx, e);
        assert!(smt.check().is_sat());
        let growth = smt.stats().since(after_first);
        // Second scope re-asserts a cached expression: one activation
        // variable and a couple of clauses, no re-blasting of the
        // multiplier.
        assert!(
            growth.variables <= 2 && growth.clauses <= 4,
            "expected cached reuse, grew by {growth:?}"
        );
    }

    #[test]
    fn check_assuming_respects_open_scopes() {
        let mut ctx = ExprCtx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let is5 = ctx.eq_u64(x, 5);
        let is7 = ctx.eq_u64(x, 7);
        let mut smt = SmtSolver::new();
        smt.push_scope();
        smt.assert(&ctx, is5);
        assert!(!smt.check_assuming(&ctx, &[is7]).is_sat());
        assert!(smt.check_assuming(&ctx, &[is5]).is_sat());
        smt.pop_scope();
        assert!(smt.check_assuming(&ctx, &[is7]).is_sat());
    }

    #[test]
    #[should_panic(expected = "pop_scope without open scope")]
    fn pop_without_push_panics() {
        SmtSolver::new().pop_scope();
    }
}
