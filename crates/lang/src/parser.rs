//! Parser and elaborator for the `.ila` specification language.
//!
//! ```text
//! module mem_iface {
//!   port ROM_PORT {
//!     input rom_req : bv1
//!     input rom_addr_in : bv16
//!     output state rom_addr : bv16
//!     state mem_wait : bv1 init 0
//!
//!     instr ROM_REQ when rom_req == 1 {
//!       rom_addr := rom_addr_in
//!       mem_wait := 1
//!     }
//!     instr ROM_IDLE when rom_req == 0 { mem_wait := 0 }
//!   }
//!   port RAM_PORT { ... }
//!
//!   integrate ROM_RAM_PORT = ROM_PORT, RAM_PORT resolve value_priority 1'b1
//! }
//! ```
//!
//! A file may instead contain bare `port` blocks; each becomes a
//! single-port module. Unsized decimal literals adapt to the width of
//! the surrounding context (`mem_wait := 1` writes a 1-bit one).

use gila_core::{
    integrate, shared_updated_states, ConflictResolver, IntegrateError, ModuleIla, NoResolver,
    PortIla, PortPriorityResolver, RoundRobinResolver, SpecificationGap, StateKind,
    ValuePriorityResolver,
};
use gila_expr::{BitVecValue, ExprRef, Sort};

use crate::lexer::{lex, IlaSyntaxError, SpannedToken, Token};

/// An implicit width adjustment the elaborator performed silently.
///
/// The language deliberately adapts operand widths (max-width join on
/// binary operators, truncate-or-extend on assignment), which is
/// convenient but can hide real specification bugs; notes record every
/// such adjustment so `gila-lint` can surface the suspicious ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElabNote {
    /// A `state := value` assignment silently dropped high bits.
    TruncatedAssign {
        /// Port being elaborated.
        port: String,
        /// Instruction containing the assignment.
        instruction: String,
        /// The assigned state.
        state: String,
        /// Source line of the assignment.
        line: usize,
        /// Width of the right-hand side.
        from_width: u32,
        /// Width of the state (what the value was truncated to).
        to_width: u32,
    },
    /// Two sized operands of unequal widths met at a binary or ternary
    /// operator; the narrower one was implicitly zero-extended.
    WidthMismatch {
        /// Port being elaborated.
        port: String,
        /// Instruction containing the expression.
        instruction: String,
        /// The operator the operands met at (e.g. `"+"`, `"?:"`).
        op: String,
        /// Source line of the expression.
        line: usize,
        /// Width of the left operand.
        left_width: u32,
        /// Width of the right operand.
        right_width: u32,
    },
}

/// One `integrate` directive of a module file, with the specification
/// gaps its resolver left open (empty when it integrated cleanly).
#[derive(Debug)]
pub struct IntegrationReport {
    /// Name of the integrated port.
    pub name: String,
    /// Member port names, in directive order.
    pub members: Vec<String>,
    /// The resolver kind keyword (`none`, `value_priority`, ...).
    pub resolver: String,
    /// Source line of the directive.
    pub line: usize,
    /// Unresolved conflicting-update combinations, if any.
    pub gaps: Vec<SpecificationGap>,
}

/// The lenient parse of a `.ila` file, for static analysis.
///
/// Unlike [`parse_ila`], which refuses files whose `integrate`
/// directives leave specification gaps or whose ports share updated
/// state without integration, this form records those findings and
/// keeps going, so a linter can report *all* of them with source
/// positions. [`SpecFile::module`] is `Some` exactly when the strict
/// parse would have succeeded.
#[derive(Debug)]
pub struct SpecFile {
    /// Module name (or the port name, for a bare-port file).
    pub name: String,
    /// Whether the file used the `module { ... }` form.
    pub is_module: bool,
    /// The port blocks as written, *before* any integration, with
    /// source lines on declarations and instructions.
    pub ports: Vec<PortIla>,
    /// Every `integrate` directive, with its unresolved gaps.
    pub integrations: Vec<IntegrationReport>,
    /// States updated by several ports that no directive integrates —
    /// composing such a module would fail.
    pub unintegrated_shared: Vec<String>,
    /// Implicit width adjustments recorded during elaboration.
    pub notes: Vec<ElabNote>,
    /// The composed module, when the file is strictly well-formed.
    pub module: Option<ModuleIla>,
}

/// A value under elaboration: a concrete expression or a still-unsized
/// decimal literal awaiting a width from context.
#[derive(Clone, Copy, Debug)]
enum Val {
    Expr(ExprRef),
    Lit(u64),
}

/// A top-level item of a module file, in source order.
enum Item {
    Port(PortIla),
    Integrate(RawIntegrate),
}

struct RawIntegrate {
    name: String,
    members: Vec<String>,
    resolver_kind: String,
    resolver: Box<dyn ConflictResolver>,
    line: usize,
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    notes: Vec<ElabNote>,
    cur_port: String,
    cur_instr: String,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> IlaSyntaxError {
        IlaSyntaxError::new(self.line(), msg)
    }

    fn next(&mut self) -> Result<Token, IlaSyntaxError> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|t| t.token.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_sym(&mut self, sym: &str) -> Result<(), IlaSyntaxError> {
        let line = self.line();
        match self.next()? {
            Token::Sym(s) if s == sym => Ok(()),
            other => Err(IlaSyntaxError::new(
                line,
                format!("expected {sym:?}, found {other}"),
            )),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), IlaSyntaxError> {
        let line = self.line();
        match self.next()? {
            Token::Ident(s) if s == kw => Ok(()),
            other => Err(IlaSyntaxError::new(
                line,
                format!("expected keyword {kw:?}, found {other}"),
            )),
        }
    }

    fn try_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn try_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, IlaSyntaxError> {
        let line = self.line();
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(IlaSyntaxError::new(
                line,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn number(&mut self) -> Result<(Option<u32>, BitVecValue), IlaSyntaxError> {
        let line = self.line();
        match self.next()? {
            Token::Number { width, value } => Ok((width, value)),
            other => Err(IlaSyntaxError::new(
                line,
                format!("expected number, found {other}"),
            )),
        }
    }

    /// Parses a type: `bvN`, `bool`, or `mem[aw, dw]`.
    fn sort(&mut self) -> Result<Sort, IlaSyntaxError> {
        let name = self.ident()?;
        if name == "bool" {
            return Ok(Sort::Bool);
        }
        if name == "mem" {
            let line = self.line();
            self.eat_sym("[")?;
            let (_, aw) = self.number()?;
            self.eat_sym(",")?;
            let (_, dw) = self.number()?;
            self.eat_sym("]")?;
            // Checked on the full literals, before they are narrowed.
            let Some(addr_width @ 1..=32) = aw.try_to_u64() else {
                return Err(IlaSyntaxError::new(line, "memory address width must be 1 to 32 bits"));
            };
            let Some(data_width @ 1..) = dw.try_to_u64().and_then(|w| u32::try_from(w).ok())
            else {
                return Err(IlaSyntaxError::new(line, "memory data width must be at least 1 bit"));
            };
            return Ok(Sort::Mem {
                addr_width: addr_width as u32,
                data_width,
            });
        }
        if let Some(w) = name.strip_prefix("bv") {
            let w: u32 = w
                .parse()
                .map_err(|_| self.err(format!("bad bit-vector type {name:?}")))?;
            if w == 0 {
                return Err(self.err("zero-width bit-vector type"));
            }
            return Ok(Sort::Bv(w));
        }
        Err(self.err(format!("unknown type {name:?}")))
    }

    // ------------------------------------------------------------------
    // Expressions (elaborated against the current port)
    // ------------------------------------------------------------------

    fn resolve_val(&self, p: &mut PortIla, v: Val, width: u32) -> ExprRef {
        match v {
            Val::Expr(e) => {
                let w = p.ctx().sort_of(e).bv_width().expect("bv value");
                if w == width {
                    e
                } else if w < width {
                    p.ctx_mut().zext(e, width)
                } else {
                    p.ctx_mut().extract(e, width - 1, 0)
                }
            }
            Val::Lit(x) => p.ctx_mut().bv(BitVecValue::from_u64(x, width)),
        }
    }

    /// `e[hi:lo]` for literal bounds, checked against `e`'s width before
    /// they are narrowed; an error names the select's `line`.
    fn select(
        &self,
        p: &mut PortIla,
        line: usize,
        e: ExprRef,
        (hi, lo): (u64, u64),
    ) -> Result<ExprRef, IlaSyntaxError> {
        let err = |msg: String| IlaSyntaxError::new(line, msg);
        let Some(width) = p.ctx().sort_of(e).bv_width() else {
            return Err(err("only a bit-vector can be selected from".into()));
        };
        if lo > hi || hi >= u64::from(width) {
            return Err(err(format!("select [{hi}:{lo}] out of range for bv{width}")));
        }
        Ok(p.ctx_mut().extract(e, hi as u32, lo as u32))
    }

    fn width_of(&self, p: &PortIla, v: Val) -> Option<u32> {
        match v {
            Val::Expr(e) => p.ctx().sort_of(e).bv_width(),
            Val::Lit(_) => None,
        }
    }

    fn join(
        &mut self,
        p: &mut PortIla,
        a: Val,
        b: Val,
        op: &str,
    ) -> Result<(ExprRef, ExprRef), IlaSyntaxError> {
        let w = match (self.width_of(p, a), self.width_of(p, b)) {
            (Some(wa), Some(wb)) => {
                if wa != wb {
                    self.notes.push(ElabNote::WidthMismatch {
                        port: self.cur_port.clone(),
                        instruction: self.cur_instr.clone(),
                        op: op.to_string(),
                        line: self.line(),
                        left_width: wa,
                        right_width: wb,
                    });
                }
                wa.max(wb)
            }
            (Some(w), None) | (None, Some(w)) => w,
            (None, None) => 64,
        };
        Ok((self.resolve_val(p, a, w), self.resolve_val(p, b, w)))
    }

    fn expr(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.ternary(p)
    }

    fn ternary(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        let c = self.logical_or(p)?;
        if self.try_sym("?") {
            let t = self.ternary(p)?;
            self.eat_sym(":")?;
            let f = self.ternary(p)?;
            let cw = self.width_of(p, c).unwrap_or(1);
            let c = self.resolve_val(p, c, cw);
            let cb = p.ctx_mut().bv_to_bool(c);
            // Memory-sorted branches select whole memories (used by
            // integrated models, e.g. "full ? buf : store(buf, ...)").
            if let (Val::Expr(te), Val::Expr(fe)) = (t, f) {
                if p.ctx().sort_of(te).is_mem() || p.ctx().sort_of(fe).is_mem() {
                    if p.ctx().sort_of(te) != p.ctx().sort_of(fe) {
                        return Err(self.err("ternary branches have different sorts"));
                    }
                    return Ok(Val::Expr(p.ctx_mut().ite(cb, te, fe)));
                }
            }
            let (t, f) = self.join(p, t, f, "?:")?;
            return Ok(Val::Expr(p.ctx_mut().ite(cb, t, f)));
        }
        Ok(c)
    }

    fn binary_chain(
        &mut self,
        p: &mut PortIla,
        ops: &[&str],
        next: fn(&mut Self, &mut PortIla) -> Result<Val, IlaSyntaxError>,
    ) -> Result<Val, IlaSyntaxError> {
        let mut lhs = next(self, p)?;
        'outer: loop {
            for &sym in ops {
                if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
                    self.pos += 1;
                    let rhs = next(self, p)?;
                    lhs = self.apply_binary(p, sym, lhs, rhs)?;
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn apply_binary(
        &mut self,
        p: &mut PortIla,
        sym: &str,
        a: Val,
        b: Val,
    ) -> Result<Val, IlaSyntaxError> {
        // Pure literal arithmetic stays unsized.
        if let (Val::Lit(x), Val::Lit(y)) = (a, b) {
            let r = match sym {
                "+" => x.wrapping_add(y),
                "-" => x.wrapping_sub(y),
                "*" => x.wrapping_mul(y),
                "/" => x.checked_div(y).unwrap_or(u64::MAX),
                "%" => x.checked_rem(y).unwrap_or(x),
                "&" => x & y,
                "|" => x | y,
                "^" => x ^ y,
                "<<" => x.checked_shl(y as u32).unwrap_or(0),
                ">>" => x.checked_shr(y as u32).unwrap_or(0),
                "==" => (x == y) as u64,
                "!=" => (x != y) as u64,
                "<" => (x < y) as u64,
                "<=" => (x <= y) as u64,
                ">" => (x > y) as u64,
                ">=" => (x >= y) as u64,
                "&&" => ((x != 0) && (y != 0)) as u64,
                "||" => ((x != 0) || (y != 0)) as u64,
                other => return Err(self.err(format!("unknown operator {other:?}"))),
            };
            return Ok(Val::Lit(r));
        }
        let (ea, eb) = self.join(p, a, b, sym)?;
        let ctx = p.ctx_mut();
        let out = match sym {
            "+" => ctx.bvadd(ea, eb),
            "-" => ctx.bvsub(ea, eb),
            "*" => ctx.bvmul(ea, eb),
            "/" => ctx.bvudiv(ea, eb),
            "%" => ctx.bvurem(ea, eb),
            "&" => ctx.bvand(ea, eb),
            "|" => ctx.bvor(ea, eb),
            "^" => ctx.bvxor(ea, eb),
            "<<" => ctx.bvshl(ea, eb),
            ">>" => ctx.bvlshr(ea, eb),
            "==" => {
                let c = ctx.eq(ea, eb);
                ctx.bool_to_bv(c)
            }
            "!=" => {
                let c = ctx.ne(ea, eb);
                ctx.bool_to_bv(c)
            }
            "<" => {
                let c = ctx.ult(ea, eb);
                ctx.bool_to_bv(c)
            }
            "<=" => {
                let c = ctx.ule(ea, eb);
                ctx.bool_to_bv(c)
            }
            ">" => {
                let c = ctx.ugt(ea, eb);
                ctx.bool_to_bv(c)
            }
            ">=" => {
                let c = ctx.uge(ea, eb);
                ctx.bool_to_bv(c)
            }
            "&&" => {
                let ba = ctx.bv_to_bool(ea);
                let bb = ctx.bv_to_bool(eb);
                let c = ctx.and(ba, bb);
                ctx.bool_to_bv(c)
            }
            "||" => {
                let ba = ctx.bv_to_bool(ea);
                let bb = ctx.bv_to_bool(eb);
                let c = ctx.or(ba, bb);
                ctx.bool_to_bv(c)
            }
            other => return Err(self.err(format!("unknown operator {other:?}"))),
        };
        Ok(Val::Expr(out))
    }

    fn logical_or(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["||"], Self::logical_and)
    }

    fn logical_and(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["&&"], Self::bit_or)
    }

    fn bit_or(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["|"], Self::bit_xor)
    }

    fn bit_xor(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["^"], Self::bit_and)
    }

    fn bit_and(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["&"], Self::equality)
    }

    fn equality(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["==", "!="], Self::relational)
    }

    fn relational(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["<=", ">=", "<", ">"], Self::shift)
    }

    fn shift(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["<<", ">>"], Self::additive)
    }

    fn additive(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["+", "-"], Self::multiplicative)
    }

    fn multiplicative(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        self.binary_chain(p, &["*", "/", "%"], Self::unary)
    }

    fn unary(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        if self.try_sym("~") {
            let v = self.unary(p)?;
            let e = self.resolve_val(p, v, self.width_of(p, v).unwrap_or(64));
            return Ok(Val::Expr(p.ctx_mut().bvnot(e)));
        }
        if self.try_sym("!") {
            let v = self.unary(p)?;
            let e = self.resolve_val(p, v, self.width_of(p, v).unwrap_or(1));
            let b = p.ctx_mut().bv_to_bool(e);
            let nb = p.ctx_mut().not(b);
            return Ok(Val::Expr(p.ctx_mut().bool_to_bv(nb)));
        }
        if self.try_sym("-") {
            let v = self.unary(p)?;
            if let Val::Lit(x) = v {
                return Ok(Val::Lit(x.wrapping_neg()));
            }
            let e = self.resolve_val(p, v, self.width_of(p, v).unwrap_or(64));
            return Ok(Val::Expr(p.ctx_mut().bvneg(e)));
        }
        self.primary(p)
    }

    fn primary(&mut self, p: &mut PortIla) -> Result<Val, IlaSyntaxError> {
        match self.next()? {
            Token::Number { width, value } => Ok(match width {
                Some(_) => Val::Expr(p.ctx_mut().bv(value)),
                None => Val::Lit(value.to_u64()),
            }),
            Token::Sym("(") => {
                let v = self.expr(p)?;
                self.eat_sym(")")?;
                // Postfix constant part-select on a parenthesized value.
                let line = self.line();
                if self.try_sym("[") {
                    let Val::Lit(hi) = self.expr(p)? else {
                        return Err(self.err("part-select bounds must be literals"));
                    };
                    self.eat_sym(":")?;
                    let Val::Lit(lo) = self.expr(p)? else {
                        return Err(self.err("part-select bounds must be literals"));
                    };
                    self.eat_sym("]")?;
                    let e = match v {
                        Val::Expr(e) => e,
                        Val::Lit(_) => self.resolve_val(p, v, 64),
                    };
                    return Ok(Val::Expr(self.select(p, line, e, (hi, lo))?));
                }
                Ok(v)
            }
            Token::Sym("{") => {
                // Concatenation, first element most significant.
                let mut acc: Option<ExprRef> = None;
                loop {
                    let v = self.expr(p)?;
                    let Val::Expr(e) = v else {
                        return Err(self.err("concatenation elements must be sized"));
                    };
                    acc = Some(match acc {
                        None => e,
                        Some(a) => p.ctx_mut().concat(a, e),
                    });
                    if !self.try_sym(",") {
                        break;
                    }
                }
                self.eat_sym("}")?;
                Ok(Val::Expr(acc.ok_or_else(|| self.err("empty concatenation"))?))
            }
            Token::Ident(name) if name == "store" => {
                // store(mem, addr, data): a functional memory write.
                self.eat_sym("(")?;
                let m = self.expr(p)?;
                let Val::Expr(me) = m else {
                    return Err(self.err("store() expects a memory first argument"));
                };
                let Sort::Mem {
                    addr_width,
                    data_width,
                } = p.ctx().sort_of(me)
                else {
                    return Err(self.err("store() expects a memory first argument"));
                };
                self.eat_sym(",")?;
                let a = self.expr(p)?;
                self.eat_sym(",")?;
                let d = self.expr(p)?;
                self.eat_sym(")")?;
                let a = self.resolve_val(p, a, addr_width);
                let d = self.resolve_val(p, d, data_width);
                Ok(Val::Expr(p.ctx_mut().mem_write(me, a, d)))
            }
            Token::Ident(name) => {
                let var = self.lookup(p, &name)?;
                let line = self.line();
                if self.try_sym("[") {
                    // Memory read, part select, or bit select.
                    let first = self.expr(p)?;
                    if self.try_sym(":") {
                        let Val::Lit(hi) = first else {
                            return Err(self.err("part-select bounds must be literals"));
                        };
                        let lo = match self.expr(p)? {
                            Val::Lit(lo) => lo,
                            _ => return Err(self.err("part-select bounds must be literals")),
                        };
                        self.eat_sym("]")?;
                        return Ok(Val::Expr(self.select(p, line, var, (hi, lo))?));
                    }
                    self.eat_sym("]")?;
                    match p.ctx().sort_of(var) {
                        Sort::Mem { addr_width, .. } => {
                            let a = self.resolve_val(p, first, addr_width);
                            return Ok(Val::Expr(p.ctx_mut().mem_read(var, a)));
                        }
                        Sort::Bv(w) => {
                            // Bit select: constant or dynamic.
                            if let Val::Lit(i) = first {
                                return Ok(Val::Expr(self.select(p, line, var, (i, i))?));
                            }
                            let idx = self.resolve_val(p, first, w);
                            let sh = p.ctx_mut().bvlshr(var, idx);
                            return Ok(Val::Expr(p.ctx_mut().extract(sh, 0, 0)));
                        }
                        Sort::Bool => return Err(self.err("cannot index a boolean")),
                    }
                }
                Ok(Val::Expr(var))
            }
            other => Err(self.err(format!("unexpected token {other} in expression"))),
        }
    }

    fn lookup(&self, p: &PortIla, name: &str) -> Result<ExprRef, IlaSyntaxError> {
        if let Some(i) = p.find_input(name) {
            return Ok(i.var);
        }
        if let Some(s) = p.find_state(name) {
            return Ok(s.var);
        }
        Err(self.err(format!("undeclared name {name:?}")))
    }

    // ------------------------------------------------------------------
    // Declarations and instructions
    // ------------------------------------------------------------------

    /// The name of a new input or state of `p`, which no earlier
    /// declaration of the port may use.
    fn declared_name(&mut self, p: &PortIla) -> Result<String, IlaSyntaxError> {
        let name = self.ident()?;
        if p.find_input(&name).is_some() || p.find_state(&name).is_some() {
            return Err(self.err(format!("{name:?} is already declared")));
        }
        Ok(name)
    }

    fn port_block(&mut self, name: String) -> Result<PortIla, IlaSyntaxError> {
        self.cur_port = name.clone();
        let mut p = PortIla::new(name);
        self.eat_sym("{")?;
        loop {
            if self.try_sym("}") {
                return Ok(p);
            }
            let dline = self.line();
            if self.try_kw("input") {
                let name = self.declared_name(&p)?;
                self.eat_sym(":")?;
                let sort = self.sort()?;
                p.input_at(name, sort, dline);
                continue;
            }
            let output = self.try_kw("output");
            if self.try_kw("state") {
                let name = self.declared_name(&p)?;
                self.eat_sym(":")?;
                let sort = self.sort()?;
                let kind = if output {
                    StateKind::Output
                } else {
                    StateKind::Internal
                };
                p.state_at(name.clone(), sort, kind, dline);
                if self.try_kw("init") {
                    let (_, v) = self.number()?;
                    let value: gila_expr::Value = match sort {
                        Sort::Bv(w) => {
                            let adj = if v.width() >= w {
                                v.extract(w - 1, 0)
                            } else {
                                v.zext(w)
                            };
                            adj.into()
                        }
                        Sort::Bool => gila_expr::Value::Bool(!v.is_zero()),
                        Sort::Mem {
                            addr_width,
                            data_width,
                        } => {
                            let word = if v.width() >= data_width {
                                v.extract(data_width - 1, 0)
                            } else {
                                v.zext(data_width)
                            };
                            gila_expr::MemValue::filled(addr_width, data_width, word).into()
                        }
                    };
                    p.set_init(&name, value)
                        .map_err(|e| self.err(e.to_string()))?;
                }
                continue;
            }
            if output {
                return Err(self.err("expected 'state' after 'output'"));
            }
            let is_sub = if self.try_kw("instr") {
                false
            } else if self.try_kw("sub") {
                true
            } else {
                return Err(self.err(format!(
                    "expected declaration or instruction, found {}",
                    self.peek().map(|t| t.to_string()).unwrap_or_default()
                )));
            };
            let iname = self.ident()?;
            self.cur_instr = iname.clone();
            let parent = if is_sub {
                self.eat_kw("of")?;
                Some(self.ident()?)
            } else {
                None
            };
            self.eat_kw("when")?;
            let decode_v = self.expr(&mut p)?;
            let decode_w = self.width_of(&p, decode_v).unwrap_or(1);
            let decode_e = self.resolve_val(&mut p, decode_v, decode_w);
            let decode = p.ctx_mut().bv_to_bool(decode_e);
            self.eat_sym("{")?;
            // Updates accumulate; repeated writes to one memory chain.
            let mut updates: Vec<(String, ExprRef)> = Vec::new();
            while !self.try_sym("}") {
                let aline = self.line();
                let target = self.ident()?;
                let sv = p
                    .find_state(&target)
                    .ok_or_else(|| self.err(format!("unknown state {target:?}")))?;
                let (tsort, tvar) = (sv.sort, sv.var);
                if self.try_sym("[") {
                    let Sort::Mem {
                        addr_width,
                        data_width,
                    } = tsort
                    else {
                        return Err(self.err(format!("{target:?} is not a memory")));
                    };
                    let addr_v = self.expr(&mut p)?;
                    self.eat_sym("]")?;
                    self.eat_sym(":=")?;
                    let data_v = self.expr(&mut p)?;
                    if let Some(wd) = self.width_of(&p, data_v) {
                        if wd > data_width {
                            self.notes.push(ElabNote::TruncatedAssign {
                                port: self.cur_port.clone(),
                                instruction: self.cur_instr.clone(),
                                state: target.clone(),
                                line: aline,
                                from_width: wd,
                                to_width: data_width,
                            });
                        }
                    }
                    let addr = self.resolve_val(&mut p, addr_v, addr_width);
                    let data = self.resolve_val(&mut p, data_v, data_width);
                    let base = updates
                        .iter()
                        .rev()
                        .find(|(n, _)| n == &target)
                        .map(|(_, e)| *e)
                        .unwrap_or(tvar);
                    let w = p.ctx_mut().mem_write(base, addr, data);
                    updates.retain(|(n, _)| n != &target);
                    updates.push((target, w));
                } else {
                    self.eat_sym(":=")?;
                    let v = self.expr(&mut p)?;
                    let twidth = match tsort {
                        Sort::Bv(w) => Some(w),
                        Sort::Bool => Some(1),
                        Sort::Mem { .. } => None,
                    };
                    if let (Some(w), Some(wv)) = (twidth, self.width_of(&p, v)) {
                        if wv > w {
                            self.notes.push(ElabNote::TruncatedAssign {
                                port: self.cur_port.clone(),
                                instruction: self.cur_instr.clone(),
                                state: target.clone(),
                                line: aline,
                                from_width: wv,
                                to_width: w,
                            });
                        }
                    }
                    let e = match tsort {
                        Sort::Bv(w) => self.resolve_val(&mut p, v, w),
                        Sort::Bool => {
                            let e = self.resolve_val(&mut p, v, 1);
                            p.ctx_mut().bv_to_bool(e)
                        }
                        Sort::Mem { .. } => match v {
                            Val::Expr(e) if p.ctx().sort_of(e) == tsort => e,
                            _ => {
                                return Err(self.err(format!(
                                    "whole-memory assignment to {target:?} needs a memory value"
                                )))
                            }
                        },
                    };
                    updates.retain(|(n, _)| n != &target);
                    updates.push((target, e));
                }
            }
            let mut b = match parent {
                Some(par) => p.sub_instr(iname, par),
                None => p.instr(iname),
            };
            b = b.decode(decode).at(dline);
            for (n, e) in updates {
                b = b.update(n, e);
            }
            b.add().map_err(|e| self.err(e.to_string()))?;
        }
    }

    fn resolver(&mut self) -> Result<Box<dyn ConflictResolver>, IlaSyntaxError> {
        let kind = self.ident()?;
        Ok(match kind.as_str() {
            "none" => Box::new(NoResolver),
            "value_priority" => {
                let (width, v) = self.number()?;
                if width.is_none() {
                    return Err(self.err("value_priority needs a sized literal (e.g. 1'b1)"));
                }
                Box::new(ValuePriorityResolver::new(v))
            }
            "port_priority" => {
                self.eat_sym("[")?;
                let mut order = vec![self.ident()?];
                while self.try_sym(",") {
                    order.push(self.ident()?);
                }
                self.eat_sym("]")?;
                Box::new(PortPriorityResolver::new(order))
            }
            other => Err(self.err(format!(
                "unknown resolver {other:?} (expected none, value_priority, port_priority, round_robin)"
            )))?,
        })
    }

    /// Parses the file into top-level items without applying any
    /// `integrate` directive. Returns (name, is_module, items).
    fn items(&mut self) -> Result<(String, bool, Vec<Item>), IlaSyntaxError> {
        if self.try_kw("module") {
            let mname = self.ident()?;
            self.eat_sym("{")?;
            let mut items = Vec::new();
            while !self.try_sym("}") {
                if self.try_kw("port") {
                    let pname = self.ident()?;
                    items.push(Item::Port(self.port_block(pname)?));
                    continue;
                }
                if self.try_kw("integrate") {
                    let line = self.line();
                    let iname = self.ident()?;
                    self.eat_sym("=")?;
                    let mut members = vec![self.ident()?];
                    while self.try_sym(",") {
                        members.push(self.ident()?);
                    }
                    self.eat_kw("resolve")?;
                    // Round-robin needs the member count; re-dispatch.
                    let save = self.pos;
                    let kind = self.ident()?;
                    let resolver: Box<dyn ConflictResolver> = if kind == "round_robin" {
                        let rr_name = self.ident()?;
                        Box::new(RoundRobinResolver::new(rr_name, members.len()))
                    } else {
                        self.pos = save;
                        self.resolver()?
                    };
                    items.push(Item::Integrate(RawIntegrate {
                        name: iname,
                        members,
                        resolver_kind: kind,
                        resolver,
                        line,
                    }));
                    continue;
                }
                return Err(self.err(format!(
                    "expected 'port' or 'integrate', found {}",
                    self.peek().map(|t| t.to_string()).unwrap_or_default()
                )));
            }
            if self.pos != self.tokens.len() {
                return Err(self.err("trailing tokens after module"));
            }
            return Ok((mname, true, items));
        }
        // Bare port file.
        self.eat_kw("port")?;
        let pname = self.ident()?;
        let port = self.port_block(pname)?;
        if self.pos != self.tokens.len() {
            return Err(self.err("trailing tokens after port"));
        }
        Ok((port.name().to_string(), false, vec![Item::Port(port)]))
    }

    fn file(&mut self) -> Result<ModuleIla, IlaSyntaxError> {
        let (name, is_module, items) = self.items()?;
        let end_line = self.line();
        if !is_module {
            let Some(Item::Port(port)) = items.into_iter().next() else {
                unreachable!("bare-port parse yields exactly one port item");
            };
            return Ok(ModuleIla::single_port(port));
        }
        let mut ports: Vec<PortIla> = Vec::new();
        for item in items {
            match item {
                Item::Port(p) => ports.push(p),
                Item::Integrate(raw) => {
                    let selected = select_members(&ports, &raw)?;
                    let integrated = integrate(raw.name.clone(), &selected, raw.resolver.as_ref())
                        .map_err(|e| IlaSyntaxError::new(raw.line, e.to_string()))?;
                    ports.retain(|p| !raw.members.iter().any(|m| m == p.name()));
                    ports.push(integrated);
                }
            }
        }
        ModuleIla::compose(name, ports).map_err(|e| IlaSyntaxError::new(end_line, e.to_string()))
    }
}

fn select_members<'a>(
    ports: &'a [PortIla],
    raw: &RawIntegrate,
) -> Result<Vec<&'a PortIla>, IlaSyntaxError> {
    raw.members
        .iter()
        .map(|m| {
            ports
                .iter()
                .find(|p| p.name() == m)
                .ok_or_else(|| IlaSyntaxError::new(raw.line, format!("unknown port {m:?}")))
        })
        .collect()
}

/// Parses a `.ila` source file into a [`ModuleIla`].
///
/// # Errors
///
/// Returns an [`IlaSyntaxError`] with the source line for lexical,
/// syntactic, and semantic (sort/`integrate`) problems.
pub fn parse_ila(src: &str) -> Result<ModuleIla, IlaSyntaxError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        notes: Vec::new(),
        cur_port: String::new(),
        cur_instr: String::new(),
    };
    p.file()
}

/// Parses a `.ila` source file leniently, for static analysis.
///
/// Composition problems — unresolved `integrate` gaps and shared
/// updated states no directive covers — are *recorded* in the returned
/// [`SpecFile`] instead of failing the parse.
///
/// # Errors
///
/// Still returns an [`IlaSyntaxError`] for lexical, syntactic, and
/// hard semantic problems (unknown ports, sort clashes, ...): a file
/// that does not elaborate cannot be analyzed.
pub fn parse_spec(src: &str) -> Result<SpecFile, IlaSyntaxError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        notes: Vec::new(),
        cur_port: String::new(),
        cur_instr: String::new(),
    };
    let (name, is_module, items) = p.items()?;
    let mut pre: Vec<PortIla> = Vec::new();
    let mut working: Vec<PortIla> = Vec::new();
    let mut integrations: Vec<IntegrationReport> = Vec::new();
    let mut any_gaps = false;
    for item in items {
        match item {
            Item::Port(port) => {
                pre.push(port.clone());
                working.push(port);
            }
            Item::Integrate(raw) => {
                let selected = select_members(&working, &raw)?;
                let gaps = match integrate(raw.name.clone(), &selected, raw.resolver.as_ref()) {
                    Ok(integrated) => {
                        working.retain(|p| !raw.members.iter().any(|m| m == p.name()));
                        working.push(integrated);
                        Vec::new()
                    }
                    Err(IntegrateError::SpecificationGaps(gaps)) => {
                        // The members stay un-integrated but are still
                        // *covered* by a directive; drop them so they do
                        // not additionally count as unintegrated shares.
                        working.retain(|p| !raw.members.iter().any(|m| m == p.name()));
                        any_gaps = true;
                        gaps
                    }
                    Err(other) => return Err(IlaSyntaxError::new(raw.line, other.to_string())),
                };
                integrations.push(IntegrationReport {
                    name: raw.name,
                    members: raw.members,
                    resolver: raw.resolver_kind,
                    line: raw.line,
                    gaps,
                });
            }
        }
    }
    let refs: Vec<&PortIla> = working.iter().collect();
    let unintegrated_shared = if is_module {
        shared_updated_states(&refs)
    } else {
        Vec::new()
    };
    let module = if !any_gaps && unintegrated_shared.is_empty() {
        if is_module {
            ModuleIla::compose(name.clone(), working).ok()
        } else {
            working.pop().map(ModuleIla::single_port)
        }
    } else {
        None
    };
    Ok(SpecFile {
        name,
        is_module,
        ports: pre,
        integrations,
        unintegrated_shared,
        notes: p.notes,
        module,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::{decode_gap, decode_overlaps, PortSimulator};
    use gila_expr::Value;

    #[test]
    fn parses_single_port_counter() {
        let m = parse_ila(
            r#"
port counter {
  input en : bv1
  output state cnt : bv8 init 0

  instr inc when en == 1 { cnt := cnt + 1 }
  instr hold when en == 0 { }
}
"#,
        )
        .unwrap();
        assert_eq!(m.stats().instructions, 2);
        let port = &m.ports()[0];
        assert!(decode_gap(port, None).is_none());
        assert!(decode_overlaps(port, None).is_empty());
        let mut sim = PortSimulator::new(port);
        let mut ins = std::collections::BTreeMap::new();
        ins.insert("en".to_string(), Value::Bv(BitVecValue::from_u64(1, 1)));
        assert_eq!(sim.step(&ins).unwrap(), "inc");
        assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 1);
    }

    #[test]
    fn sub_instructions_and_slices() {
        let m = parse_ila(
            r#"
port dec {
  input wait : bv1
  input word_in : bv8
  state current_word : bv8
  state step : bv2

  instr stall when wait == 1 { }
  instr load when wait == 0 && step == 0 {
    current_word := word_in
    step := word_in[7:6]
  }
  sub s1 of load when wait == 0 && step != 0 {
    step := step - 1
  }
}
"#,
        )
        .unwrap();
        let port = &m.ports()[0];
        assert_eq!(port.num_atomic_instructions(), 3);
        assert_eq!(port.num_logical_instructions(), 2);
        assert!(decode_gap(port, None).is_none());
    }

    #[test]
    fn memories_and_indexed_updates() {
        let m = parse_ila(
            r#"
port scratch {
  input we : bv1
  input addr : bv4
  input din : bv8
  state ram : mem[4, 8]
  output state dout : bv8

  instr write when we == 1 { ram[addr] := din }
  instr read when we == 0 { dout := ram[addr] }
}
"#,
        )
        .unwrap();
        let port = &m.ports()[0];
        let mut sim = PortSimulator::new(port);
        let mut ins = std::collections::BTreeMap::new();
        ins.insert("we".to_string(), Value::Bv(BitVecValue::from_u64(1, 1)));
        ins.insert("addr".to_string(), Value::Bv(BitVecValue::from_u64(5, 4)));
        ins.insert("din".to_string(), Value::Bv(BitVecValue::from_u64(0xAB, 8)));
        sim.step(&ins).unwrap();
        ins.insert("we".to_string(), Value::Bv(BitVecValue::from_u64(0, 1)));
        sim.step(&ins).unwrap();
        assert_eq!(sim.state()["dout"].as_bv().to_u64(), 0xAB);
    }

    #[test]
    fn module_with_integration() {
        let m = parse_ila(
            r#"
module mem_iface {
  port ROM_PORT {
    input rom_req : bv1
    input rom_addr_in : bv16
    output state rom_addr : bv16
    state mem_wait : bv1

    instr ROM_REQ when rom_req == 1 {
      rom_addr := rom_addr_in
      mem_wait := 1'b1
    }
    instr ROM_IDLE when rom_req == 0 { mem_wait := 1'b0 }
  }
  port RAM_PORT {
    input ram_req : bv1
    input ram_addr_in : bv8
    output state ram_addr : bv8
    state mem_wait : bv1

    instr RAM_REQ when ram_req == 1 {
      ram_addr := ram_addr_in
      mem_wait := 1'b1
    }
    instr RAM_IDLE when ram_req == 0 { mem_wait := 1'b0 }
  }
  integrate ROM_RAM = ROM_PORT, RAM_PORT resolve value_priority 1'b1
}
"#,
        )
        .unwrap();
        assert_eq!(m.stats().ports, 1);
        assert_eq!(m.stats().instructions, 4);
        let port = m.find_port("ROM_RAM").unwrap();
        let i = port.find_instruction("ROM_IDLE & RAM_REQ").unwrap();
        assert_eq!(
            port.ctx().as_bv_const(i.updates["mem_wait"]),
            Some(&BitVecValue::from_u64(1, 1))
        );
    }

    #[test]
    fn round_robin_integration() {
        let m = parse_ila(
            r#"
module rr {
  port A {
    input a_v : bv1
    state shared : bv4
    instr A_GO when a_v == 1 { shared := 1 }
    instr A_NO when a_v == 0 { }
  }
  port B {
    input b_v : bv1
    state shared : bv4
    instr B_GO when b_v == 1 { shared := 2 }
    instr B_NO when b_v == 0 { }
  }
  integrate AB = A, B resolve round_robin ptr
}
"#,
        )
        .unwrap();
        let port = m.find_port("AB").unwrap();
        assert!(port.find_state("ptr").is_some());
        let i = port.find_instruction("A_GO & B_GO").unwrap();
        assert!(i.updates.contains_key("ptr"));
    }

    #[test]
    fn unresolved_conflicts_surface_gaps() {
        let err = parse_ila(
            r#"
module gap {
  port A {
    input a_v : bv1
    state s : bv1
    instr A1 when a_v == 1 { s := 1 }
    instr A0 when a_v == 0 { }
  }
  port B {
    input b_v : bv1
    state s : bv1
    instr B1 when b_v == 1 { s := 0 }
    instr B0 when b_v == 0 { }
  }
  integrate AB = A, B resolve none
}
"#,
        )
        .unwrap_err();
        assert!(err.message.contains("specification gap"), "{err}");
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = parse_ila("port p {\n  input x bv1\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_ila("port p { input x : bv0 }").is_err());
        assert!(parse_ila("port p { instr i when ghost == 1 { } }").is_err());
        assert!(parse_ila("module m { port p { } } trailing").is_err());
    }

    /// The counter port with `update` as `inc`'s right-hand side, on
    /// line 4, the last of its line.
    fn counter_updating(update: &str) -> Result<ModuleIla, IlaSyntaxError> {
        parse_ila(&format!(
            "port counter {{\n  input en : bv1\n  output state cnt : bv8\n  \
             instr inc when en == 1 {{ cnt := {update}\n  }}\n}}"
        ))
    }

    /// A select whose bounds leave the value's width is an error on its
    /// line, not a panic.
    fn assert_rejected(update: &str, want: &str) {
        let err = counter_updating(update).unwrap_err();
        assert_eq!(err.line, 4, "{update}: {err}");
        assert!(err.message.contains(want), "{update}: {err}");
    }

    #[test]
    fn bit_select_past_the_width_is_an_error() {
        assert_rejected("{cnt[9], cnt[6:0]}", "[9:9] out of range for bv8");
        assert!(counter_updating("{cnt[7], cnt[6:0]}").is_ok());
    }

    #[test]
    fn part_select_with_low_above_high_is_an_error() {
        assert_rejected("{cnt[3:5], cnt[4:0]}", "[3:5] out of range for bv8");
    }

    #[test]
    fn part_select_of_a_parenthesized_value_past_its_width_is_an_error() {
        assert_rejected("(cnt + 1)[99:0]", "[99:0] out of range for bv8");
        assert_rejected("(cnt + 1)[4294967296:0]", "out of range for bv8");
        assert!(counter_updating("(cnt + 1)[7:0]").is_ok());
    }

    /// A memory sort needs a 1- to 32-bit address and a data word of at
    /// least one bit.
    fn mem_sort(sort: &str) -> Result<ModuleIla, IlaSyntaxError> {
        parse_ila(&format!("port p {{\n  state m : {sort}\n}}"))
    }

    #[test]
    fn memory_with_a_zero_bit_address_is_an_error() {
        let err = mem_sort("mem[0, 8]").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("address width"), "{err}");
    }

    #[test]
    fn memory_with_an_address_over_32_bits_is_an_error() {
        for sort in ["mem[40, 8]", "mem[33, 8]", "mem[4294967298, 8]"] {
            let err = mem_sort(sort).unwrap_err();
            assert_eq!(err.line, 2, "{sort}");
            assert!(err.message.contains("address width"), "{sort}: {err}");
        }
        assert!(mem_sort("mem[32, 8]").is_ok());
    }

    #[test]
    fn memory_with_a_zero_bit_word_is_an_error() {
        let err = mem_sort("mem[8, 0]").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("data width"), "{err}");
        assert!(mem_sort("mem[8, 1]").is_ok());
    }

    /// Found by `tests/parser_fuzz.rs`: a second declaration of a name
    /// reached the model's clash assertion.
    #[test]
    fn redeclared_name_is_an_error() {
        for src in [
            "port p {\n  input x : bv1\n  state x : bv1\n}",
            "port p {\n  state x : bv1\n  input x : bv1\n}",
            "port p {\n  state x : bv1\n  state x : bv2\n}",
        ] {
            let err = parse_ila(src).unwrap_err();
            assert_eq!(err.line, 3, "{src}");
            assert!(err.message.contains("\"x\" is already declared"), "{err}");
        }
    }
}
