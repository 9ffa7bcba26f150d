//! Elaboration: from the parsed AST to the [`RtlModule`] IR.
//!
//! Width semantics (a documented simplification of Verilog's rules):
//! arithmetic/bitwise binary operators zero-extend the narrower operand;
//! comparisons and logical operators yield one bit; shifts keep the left
//! operand's width; assignments zero-extend or truncate the right-hand
//! side to the target width. Conditions treat any nonzero value as true.

use std::collections::{BTreeMap, HashMap, HashSet};

use gila_expr::ExprRef;

use crate::ir::RtlModule;
use crate::lexer::{VerilogError, MAX_WIDTH};
use crate::parser::{literal_text, parse_module, BinOp, Decl, Expr, ModuleAst, Stmt, Target, UnOp};

/// Elaborates Verilog source text into an [`RtlModule`].
///
/// # Errors
///
/// Returns a [`VerilogError`] for syntax errors and a best-effort line 0
/// error for semantic problems (undeclared names, multiple drivers,
/// combinational cycles, width misuse).
///
/// # Examples
///
/// ```
/// use gila_rtl::parse_verilog;
///
/// let m = parse_verilog(r#"
/// module counter(clk, en, q);
///   input clk;
///   input en;
///   output [3:0] q;
///   reg [3:0] cnt;
///   assign q = cnt;
///   always @(posedge clk) if (en) cnt <= cnt + 4'd1;
/// endmodule
/// "#)?;
/// assert_eq!(m.state_bits(), 4);
/// # Ok::<(), gila_rtl::VerilogError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<RtlModule, VerilogError> {
    let ast = parse_module(src)?;
    elaborate(&ast)
}

fn sem_err(msg: impl Into<String>) -> VerilogError {
    VerilogError::new(0, msg)
}

/// Elaborates a parsed module AST.
///
/// # Errors
///
/// See [`parse_verilog`].
pub fn elaborate(ast: &ModuleAst) -> Result<RtlModule, VerilogError> {
    let mut m = RtlModule::new(ast.name.clone());
    m.set_source_loc(ast.source_lines);

    // Pass 1: declarations.
    let mut outputs: Vec<(String, u32)> = Vec::new();
    let mut wires: BTreeMap<String, u32> = BTreeMap::new();
    let mut declared: HashSet<String> = HashSet::new();
    for d in &ast.decls {
        let name = match d {
            Decl::Input { name, .. }
            | Decl::Output { name, .. }
            | Decl::OutputReg { name, .. }
            | Decl::Wire { name, .. }
            | Decl::Reg { name, .. }
            | Decl::Mem { name, .. } => name.clone(),
        };
        if !declared.insert(name.clone()) {
            return Err(sem_err(format!("{name:?} declared twice")));
        }
        match d {
            Decl::Input { name, width } => {
                m.input(name.clone(), *width);
            }
            Decl::Reg { name, width } | Decl::OutputReg { name, width } => {
                m.reg(name.clone(), *width, None);
            }
            Decl::Mem {
                name,
                data_width,
                depth,
            } => {
                let addr_width = depth.trailing_zeros();
                m.mem(name.clone(), addr_width, *data_width);
            }
            Decl::Output { name, width } => {
                outputs.push((name.clone(), *width));
                wires.insert(name.clone(), *width);
            }
            Decl::Wire { name, width } => {
                wires.insert(name.clone(), *width);
            }
        }
    }

    // Pass 2: continuous assignments, resolved on demand with cycle
    // detection so wire-to-wire references work in any order.
    let mut assign_map: BTreeMap<&str, &Expr> = BTreeMap::new();
    for (lhs, rhs) in &ast.assigns {
        if !wires.contains_key(lhs.as_str()) {
            return Err(sem_err(format!(
                "assign target {lhs:?} is not a declared wire or output"
            )));
        }
        if assign_map.insert(lhs.as_str(), rhs).is_some() {
            return Err(sem_err(format!("{lhs:?} has multiple continuous drivers")));
        }
    }

    let mut wire_exprs: Vec<(String, ExprRef, bool)> = Vec::new();
    {
        let mut elab = Elaborator {
            m: &mut m,
            wires: &wires,
            assign_map: &assign_map,
            wire_cache: HashMap::new(),
            resolving: HashSet::new(),
        };

        // Resolve every assigned wire.
        for (name, &width) in &wires {
            if assign_map.contains_key(name.as_str()) {
                let e = elab.wire(name, width)?;
                let is_out = outputs.iter().any(|(n, _)| n == name);
                wire_exprs.push((name.clone(), e, is_out));
            }
        }

        // Pass 3: always blocks -> next-state expressions.
        let mut driven: HashSet<String> = HashSet::new();
        for block in &ast.always_blocks {
            let mut acc: BTreeMap<String, ExprRef> = BTreeMap::new();
            let cond = elab.m.ctx_mut().tt();
            elab.compile_stmts(block, cond, &mut acc)?;
            for (state, next) in acc {
                if !driven.insert(state.clone()) {
                    return Err(sem_err(format!(
                        "{state:?} is driven from multiple always blocks"
                    )));
                }
                elab.m
                    .set_next(&state, next)
                    .map_err(|e| sem_err(e.to_string()))?;
            }
        }
    }

    // Pass 4: initial values.
    for (name, value) in &ast.initials {
        let reg = m
            .find_reg(name)
            .ok_or_else(|| sem_err(format!("initial value for non-register {name:?}")))?;
        let v = if value.width() >= reg.width {
            value.extract(reg.width - 1, 0)
        } else {
            value.zext(reg.width)
        };
        m.set_init(name, v).map_err(|e| sem_err(e.to_string()))?;
    }

    // Pass 5: register named signals.
    for (name, e, is_out) in wire_exprs {
        m.signal(name, e, is_out).map_err(|e| sem_err(e.to_string()))?;
    }

    m.validate().map_err(|e| sem_err(e.to_string()))?;
    Ok(m)
}

/// Parses and elaborates a standalone Verilog expression against an
/// already-elaborated module: identifiers resolve to the module's
/// inputs, registers, memories, and named signals.
///
/// Used for the condition strings of refinement maps (assumptions, start
/// and finish conditions).
///
/// # Errors
///
/// Returns a [`VerilogError`] for syntax errors or references to unknown
/// signals.
///
/// # Examples
///
/// ```
/// use gila_rtl::{parse_rtl_expr, parse_verilog};
///
/// let mut m = parse_verilog(r#"
/// module t(clk, a);
///   input clk;
///   input [3:0] a;
///   reg [3:0] r;
///   always @(posedge clk) r <= a;
/// endmodule
/// "#)?;
/// let cond = parse_rtl_expr(&mut m, "r == 4'd3 && a[0]")?;
/// assert!(m.ctx().sort_of(cond).is_bv());
/// # Ok::<(), gila_rtl::VerilogError>(())
/// ```
pub fn parse_rtl_expr(m: &mut RtlModule, src: &str) -> Result<ExprRef, VerilogError> {
    let ast = crate::parser::parse_expr_ast(src)?;
    let wires = BTreeMap::new();
    let assign_map = BTreeMap::new();
    let mut elab = Elaborator {
        m,
        wires: &wires,
        assign_map: &assign_map,
        wire_cache: HashMap::new(),
        resolving: HashSet::new(),
    };
    elab.expr(&ast)
}

struct Elaborator<'a> {
    m: &'a mut RtlModule,
    wires: &'a BTreeMap<String, u32>,
    assign_map: &'a BTreeMap<&'a str, &'a Expr>,
    wire_cache: HashMap<String, ExprRef>,
    resolving: HashSet<String>,
}

impl Elaborator<'_> {
    fn width_of(&self, e: ExprRef) -> u32 {
        self.m
            .ctx()
            .sort_of(e)
            .bv_width()
            .expect("elaborated expressions are bit-vectors")
    }

    /// Zero-extends or truncates to `width`.
    fn adapt(&mut self, e: ExprRef, width: u32) -> ExprRef {
        let w = self.width_of(e);
        if w == width {
            e
        } else if w < width {
            self.m.ctx_mut().zext(e, width)
        } else {
            self.m.ctx_mut().extract(e, width - 1, 0)
        }
    }

    fn truthy(&mut self, e: ExprRef) -> ExprRef {
        self.m.ctx_mut().bv_to_bool(e)
    }

    fn bit_of(&mut self, e: ExprRef) -> ExprRef {
        self.m.ctx_mut().bool_to_bv(e)
    }

    /// Resolves a wire to its defining expression (with cycle detection).
    fn wire(&mut self, name: &str, width: u32) -> Result<ExprRef, VerilogError> {
        if let Some(&e) = self.wire_cache.get(name) {
            return Ok(e);
        }
        if !self.resolving.insert(name.to_string()) {
            return Err(sem_err(format!(
                "combinational cycle through wire {name:?}"
            )));
        }
        let rhs = self
            .assign_map
            .get(name)
            .copied()
            .ok_or_else(|| sem_err(format!("wire {name:?} is never assigned")))?;
        let e = self.expr_with_width(rhs, Some(width))?;
        self.resolving.remove(name);
        self.wire_cache.insert(name.to_string(), e);
        Ok(e)
    }

    fn ident(&mut self, name: &str) -> Result<ExprRef, VerilogError> {
        if let Some(i) = self.m.find_input(name) {
            return Ok(i.var);
        }
        if let Some(r) = self.m.find_reg(name) {
            return Ok(r.var);
        }
        if let Some(&w) = self.wires.get(name) {
            return self.wire(name, w);
        }
        // Standalone-expression mode (post-elaboration): named signals are
        // already registered on the module.
        if let Some(sig) = self.m.find_signal(name) {
            return Ok(sig.expr);
        }
        Err(sem_err(format!("undeclared identifier {name:?}")))
    }

    fn expr_with_width(&mut self, e: &Expr, width: Option<u32>) -> Result<ExprRef, VerilogError> {
        let r = self.expr(e)?;
        Ok(match width {
            Some(w) => self.adapt(r, w),
            None => r,
        })
    }

    /// The address of a word of memory `name`: a literal must lie below
    /// 2^`aw`, as a literal bit index must lie below the width; a
    /// dynamic index is adapted to the address width.
    fn mem_addr(&mut self, name: &str, idx: &Expr, aw: u32) -> Result<ExprRef, VerilogError> {
        if let Expr::Literal { value, .. } = idx {
            if value.try_to_u64().is_none_or(|a| a >> aw != 0) {
                let a = literal_text(value);
                return Err(sem_err(format!(
                    "address {a} out of range for memory {name:?} (address width {aw})"
                )));
            }
        }
        self.expr_with_width(idx, Some(aw))
    }

    fn expr(&mut self, e: &Expr) -> Result<ExprRef, VerilogError> {
        match e {
            Expr::Ident(name) => self.ident(name),
            Expr::Literal { width, value } => {
                let v = match width {
                    Some(_) => value.clone(),
                    // Unsized decimals behave as 32-bit, like Verilog.
                    None => {
                        if value.width() >= 32 {
                            value.extract(31, 0)
                        } else {
                            value.zext(32)
                        }
                    }
                };
                Ok(self.m.ctx_mut().bv(v))
            }
            Expr::Unary(op, inner) => {
                let a = self.expr(inner)?;
                Ok(match op {
                    UnOp::Not => self.m.ctx_mut().bvnot(a),
                    UnOp::Neg => self.m.ctx_mut().bvneg(a),
                    UnOp::LogicalNot => {
                        let b = self.truthy(a);
                        let nb = self.m.ctx_mut().not(b);
                        self.bit_of(nb)
                    }
                    UnOp::RedAnd => {
                        let w = self.width_of(a);
                        let ones = self.m.ctx_mut().bv(gila_expr::BitVecValue::ones(w));
                        let eq = self.m.ctx_mut().eq(a, ones);
                        self.bit_of(eq)
                    }
                    UnOp::RedOr => {
                        let b = self.truthy(a);
                        self.bit_of(b)
                    }
                    UnOp::RedXor => {
                        let w = self.width_of(a);
                        let mut acc = self.m.ctx_mut().extract(a, 0, 0);
                        for i in 1..w {
                            let bit = self.m.ctx_mut().extract(a, i, i);
                            acc = self.m.ctx_mut().bvxor(acc, bit);
                        }
                        acc
                    }
                })
            }
            Expr::Binary(op, l, r) => {
                let a = self.expr(l)?;
                let b = self.expr(r)?;
                self.binary(*op, a, b)
            }
            Expr::Ternary(c, t, e2) => {
                let c = self.expr(c)?;
                let cb = self.truthy(c);
                let t = self.expr(t)?;
                let e2 = self.expr(e2)?;
                let w = self.width_of(t).max(self.width_of(e2));
                let t = self.adapt(t, w);
                let e2 = self.adapt(e2, w);
                Ok(self.m.ctx_mut().ite(cb, t, e2))
            }
            Expr::Index(name, idx) => {
                // Memory word read, or dynamic bit select on a vector.
                if let Some(mm) = self.m.find_mem(name) {
                    let (var, aw) = (mm.var, mm.addr_width);
                    let idx = self.mem_addr(name, idx, aw)?;
                    return Ok(self.m.ctx_mut().mem_read(var, idx));
                }
                let base = self.ident(name)?;
                let w = self.width_of(base);
                if let Expr::Literal { value, .. } = idx.as_ref() {
                    let Some(i) = value.try_to_u64().filter(|&i| i < u64::from(w)) else {
                        let i = literal_text(value);
                        return Err(sem_err(format!("bit index {i} out of range for {name:?}")));
                    };
                    let i = i as u32;
                    return Ok(self.m.ctx_mut().extract(base, i, i));
                }
                let idx = self.expr(idx)?;
                let idx = self.adapt(idx, w);
                let shifted = self.m.ctx_mut().bvlshr(base, idx);
                Ok(self.m.ctx_mut().extract(shifted, 0, 0))
            }
            Expr::Range(name, hi, lo) => {
                let base = self.ident(name)?;
                let w = self.width_of(base);
                if *hi >= w {
                    return Err(sem_err(format!(
                        "part select [{hi}:{lo}] out of range for {name:?} (width {w})"
                    )));
                }
                Ok(self.m.ctx_mut().extract(base, *hi, *lo))
            }
            Expr::Concat(items) => {
                let mut acc: Option<ExprRef> = None;
                for item in items {
                    let e = self.expr(item)?;
                    acc = Some(match acc {
                        None => e,
                        Some(a) => self.m.ctx_mut().concat(a, e),
                    });
                }
                acc.ok_or_else(|| sem_err("empty concatenation"))
            }
            Expr::Repeat(n, inner) => {
                let e = self.expr(inner)?;
                let w = u64::from(*n) * u64::from(self.width_of(e));
                if w > u64::from(MAX_WIDTH) {
                    return Err(sem_err(format!(
                        "replication {{{n}{{..}}}} is {w} bits wide, over {MAX_WIDTH}"
                    )));
                }
                let mut acc = e;
                for _ in 1..*n {
                    acc = self.m.ctx_mut().concat(acc, e);
                }
                Ok(acc)
            }
        }
    }

    fn binary(&mut self, op: BinOp, a: ExprRef, b: ExprRef) -> Result<ExprRef, VerilogError> {
        use BinOp::*;
        let (wa, wb) = (self.width_of(a), self.width_of(b));
        let w = wa.max(wb);
        match op {
            Add | Sub | Mul | Div | Mod | And | Or | Xor => {
                let a = self.adapt(a, w);
                let b = self.adapt(b, w);
                let ctx = self.m.ctx_mut();
                Ok(match op {
                    Add => ctx.bvadd(a, b),
                    Sub => ctx.bvsub(a, b),
                    Mul => ctx.bvmul(a, b),
                    Div => ctx.bvudiv(a, b),
                    Mod => ctx.bvurem(a, b),
                    And => ctx.bvand(a, b),
                    Or => ctx.bvor(a, b),
                    Xor => ctx.bvxor(a, b),
                    _ => unreachable!(),
                })
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let a = self.adapt(a, w);
                let b = self.adapt(b, w);
                let ctx = self.m.ctx_mut();
                let cond = match op {
                    Eq => ctx.eq(a, b),
                    Ne => ctx.ne(a, b),
                    Lt => ctx.ult(a, b),
                    Le => ctx.ule(a, b),
                    Gt => ctx.ugt(a, b),
                    Ge => ctx.uge(a, b),
                    _ => unreachable!(),
                };
                Ok(self.bit_of(cond))
            }
            LogicalAnd | LogicalOr => {
                let ab = self.truthy(a);
                let bb = self.truthy(b);
                let ctx = self.m.ctx_mut();
                let cond = match op {
                    LogicalAnd => ctx.and(ab, bb),
                    LogicalOr => ctx.or(ab, bb),
                    _ => unreachable!(),
                };
                Ok(self.bit_of(cond))
            }
            Shl | Shr | AShr => {
                // Result has the left operand's width; the amount is
                // adapted to it.
                let amount = self.adapt(b, wa);
                let ctx = self.m.ctx_mut();
                Ok(match op {
                    Shl => ctx.bvshl(a, amount),
                    Shr => ctx.bvlshr(a, amount),
                    AShr => ctx.bvashr(a, amount),
                    _ => unreachable!(),
                })
            }
        }
    }

    fn compile_stmts(
        &mut self,
        stmts: &[Stmt],
        cond: ExprRef,
        acc: &mut BTreeMap<String, ExprRef>,
    ) -> Result<(), VerilogError> {
        for s in stmts {
            match s {
                Stmt::NonBlocking { target, rhs } => match target {
                    Target::Reg(name) => {
                        let reg = self
                            .m
                            .find_reg(name)
                            .ok_or_else(|| {
                                sem_err(format!("non-blocking assign to non-register {name:?}"))
                            })?;
                        let (var, width) = (reg.var, reg.width);
                        let rhs = self.expr_with_width(rhs, Some(width))?;
                        let cur = *acc.get(name).unwrap_or(&var);
                        let next = self.m.ctx_mut().ite(cond, rhs, cur);
                        acc.insert(name.clone(), next);
                    }
                    Target::MemWord(name, addr) => {
                        let mm = self.m.find_mem(name).ok_or_else(|| {
                            sem_err(format!("indexed assign to non-memory {name:?}"))
                        })?;
                        let (var, aw, dw) = (mm.var, mm.addr_width, mm.data_width);
                        let addr = self.mem_addr(name, addr, aw)?;
                        let rhs = self.expr_with_width(rhs, Some(dw))?;
                        let cur = *acc.get(name).unwrap_or(&var);
                        let written = self.m.ctx_mut().mem_write(cur, addr, rhs);
                        let next = self.m.ctx_mut().ite(cond, written, cur);
                        acc.insert(name.clone(), next);
                    }
                },
                Stmt::If {
                    cond: c,
                    then_stmts,
                    else_stmts,
                } => {
                    let c = self.expr(c)?;
                    let cb = self.truthy(c);
                    let then_cond = self.m.ctx_mut().and(cond, cb);
                    self.compile_stmts(then_stmts, then_cond, acc)?;
                    let ncb = self.m.ctx_mut().not(cb);
                    let else_cond = self.m.ctx_mut().and(cond, ncb);
                    self.compile_stmts(else_stmts, else_cond, acc)?;
                }
                Stmt::Case {
                    scrutinee,
                    arms,
                    default,
                } => {
                    let scrut = self.expr(scrutinee)?;
                    let sw = self.width_of(scrut);
                    let mut no_match = self.m.ctx_mut().tt();
                    for (labels, body) in arms {
                        let mut matched = self.m.ctx_mut().ff();
                        for l in labels {
                            let lv = self.expr_with_width(l, Some(sw))?;
                            let eq = self.m.ctx_mut().eq(scrut, lv);
                            matched = self.m.ctx_mut().or(matched, eq);
                        }
                        // Priority: this arm fires only when no earlier arm did.
                        let arm_cond = {
                            let ctx = self.m.ctx_mut();
                            let both = ctx.and(no_match, matched);
                            ctx.and(cond, both)
                        };
                        self.compile_stmts(body, arm_cond, acc)?;
                        let nm = self.m.ctx_mut().not(matched);
                        no_match = self.m.ctx_mut().and(no_match, nm);
                    }
                    let def_cond = self.m.ctx_mut().and(cond, no_match);
                    self.compile_stmts(default, def_cond, acc)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elaborates_counter() {
        let m = parse_verilog(
            r#"
module counter(clk, en, q);
  input clk;
  input en;
  output [3:0] q;
  reg [3:0] cnt;
  assign q = cnt;
  always @(posedge clk) if (en) cnt <= cnt + 4'd1;
endmodule
"#,
        )
        .unwrap();
        assert_eq!(m.name(), "counter");
        assert_eq!(m.state_bits(), 4);
        assert!(m.find_signal("q").unwrap().output);
        assert!(m.source_loc().unwrap() >= 8);
    }

    #[test]
    fn wire_chains_resolve_in_any_order() {
        let m = parse_verilog(
            r#"
module w(a, q);
  input [3:0] a;
  output [3:0] q;
  wire [3:0] w2;
  wire [3:0] w1;
  assign q = w2;
  assign w2 = w1 + 4'd1;
  assign w1 = a ^ 4'hF;
endmodule
"#,
        )
        .unwrap();
        assert!(m.find_signal("q").is_some());
        assert!(m.find_signal("w1").is_some());
    }

    #[test]
    fn combinational_cycle_rejected() {
        let err = parse_verilog(
            r#"
module c(q);
  output [3:0] q;
  wire [3:0] w;
  assign w = q;
  assign q = w;
endmodule
"#,
        )
        .unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let err = parse_verilog(
            r#"
module d(clk);
  input clk;
  reg r;
  always @(posedge clk) r <= 1'b0;
  always @(posedge clk) r <= 1'b1;
endmodule
"#,
        )
        .unwrap_err();
        assert!(err.message.contains("multiple always blocks"));
    }

    #[test]
    fn undeclared_identifier_rejected() {
        let err = parse_verilog(
            r#"
module u(q);
  output [3:0] q;
  assign q = ghost;
endmodule
"#,
        )
        .unwrap_err();
        assert!(err.message.contains("undeclared"));
    }

    #[test]
    fn memory_elaborates() {
        let m = parse_verilog(
            r#"
module mem(clk, we, addr, din, dout);
  input clk;
  input we;
  input [3:0] addr;
  input [7:0] din;
  output [7:0] dout;
  reg [7:0] store [0:15];
  assign dout = store[addr];
  always @(posedge clk) if (we) store[addr] <= din;
endmodule
"#,
        )
        .unwrap();
        assert_eq!(m.state_bits(), 128);
        assert_eq!(m.mems().len(), 1);
        assert_eq!(m.mems()[0].addr_width, 4);
    }

    /// A 16-word memory whose always block is `body`.
    fn mem16(body: &str) -> Result<RtlModule, VerilogError> {
        parse_verilog(&format!(
            "module m(clk);\n  input clk;\n  reg [7:0] m [0:15];\n  reg [7:0] r;\n  \
             always @(posedge clk) begin {body} end\nendmodule\n"
        ))
    }

    #[test]
    fn literal_memory_read_past_the_depth_rejected() {
        assert!(mem16("r <= m[15];").is_ok());
        let err = mem16("r <= m[16];").unwrap_err();
        assert!(
            err.message.contains("address 16 out of range"),
            "{}",
            err.message
        );
    }

    #[test]
    fn literal_memory_write_past_the_depth_rejected() {
        assert!(mem16("m[15] <= 8'd5;").is_ok());
        let err = mem16("m[16] <= 8'd5;").unwrap_err();
        assert!(
            err.message.contains("address 16 out of range"),
            "{}",
            err.message
        );
    }

    #[test]
    fn reduction_and_dynamic_select_semantics() {
        use crate::sim::RtlSimulator;
        use gila_expr::BitVecValue;
        let m = parse_verilog(
            r#"
module ops(clk, a, i);
  input clk;
  input [7:0] a;
  input [7:0] i;
  reg rand_r;
  reg ror_r;
  reg rxor_r;
  reg bit_r;
  reg [15:0] rep_r;
  always @(posedge clk) begin
    rand_r <= &a;
    ror_r <= |a;
    rxor_r <= ^a;
    bit_r <= a[i];
    rep_r <= {2{a}};
  end
endmodule
"#,
        )
        .unwrap();
        let mut sim = RtlSimulator::new(&m);
        let cases = [
            (0xFFu64, 3u64, (1u64, 1u64, 0u64, 1u64)),
            (0x00, 0, (0, 0, 0, 0)),
            (0xA5, 2, (0, 1, 0, 1)), // 0xA5 = 1010_0101: parity 4 ones -> 0; bit2 = 1
            (0x01, 7, (0, 1, 1, 0)),
        ];
        for (a, i, (rand, ror, rxor, bit)) in cases {
            let mut ins = std::collections::BTreeMap::new();
            ins.insert("clk".to_string(), BitVecValue::from_u64(1, 1));
            ins.insert("a".to_string(), BitVecValue::from_u64(a, 8));
            ins.insert("i".to_string(), BitVecValue::from_u64(i, 8));
            sim.step(&ins).unwrap();
            assert_eq!(sim.state()["rand_r"].as_bv().to_u64(), rand, "&{a:#x}");
            assert_eq!(sim.state()["ror_r"].as_bv().to_u64(), ror, "|{a:#x}");
            assert_eq!(sim.state()["rxor_r"].as_bv().to_u64(), rxor, "^{a:#x}");
            assert_eq!(sim.state()["bit_r"].as_bv().to_u64(), bit, "{a:#x}[{i}]");
            assert_eq!(
                sim.state()["rep_r"].as_bv().to_u64(),
                (a << 8) | a,
                "{{2{{{a:#x}}}}}"
            );
        }
    }

    #[test]
    fn logical_vs_bitwise_operators() {
        use crate::sim::RtlSimulator;
        use gila_expr::BitVecValue;
        let m = parse_verilog(
            r#"
module lg(clk, a, b);
  input clk;
  input [3:0] a;
  input [3:0] b;
  reg land_r;
  reg lor_r;
  reg lnot_r;
  always @(posedge clk) begin
    land_r <= a && b;
    lor_r <= a || b;
    lnot_r <= !a;
  end
endmodule
"#,
        )
        .unwrap();
        let mut sim = RtlSimulator::new(&m);
        let mut ins = std::collections::BTreeMap::new();
        ins.insert("clk".to_string(), BitVecValue::from_u64(1, 1));
        ins.insert("a".to_string(), BitVecValue::from_u64(0b0100, 4));
        ins.insert("b".to_string(), BitVecValue::from_u64(0b0010, 4));
        sim.step(&ins).unwrap();
        // bitwise & of 4 and 2 is 0, but logical && is 1.
        assert_eq!(sim.state()["land_r"].as_bv().to_u64(), 1);
        assert_eq!(sim.state()["lor_r"].as_bv().to_u64(), 1);
        assert_eq!(sim.state()["lnot_r"].as_bv().to_u64(), 0);
    }

    #[test]
    fn parameterized_module_elaborates() {
        let m = parse_verilog(
            r#"
module p(clk, a);
  parameter WIDTH = 12;
  input clk;
  input [WIDTH-1:0] a;
  reg [WIDTH-1:0] r;
  always @(posedge clk) r <= a ^ r;
endmodule
"#,
        )
        .unwrap();
        assert_eq!(m.find_reg("r").unwrap().width, 12);
        assert_eq!(m.find_input("a").unwrap().width, 12);
    }

    #[test]
    fn initial_sets_reset_value() {
        let m = parse_verilog(
            r#"
module i(clk);
  input clk;
  reg [7:0] r;
  initial begin r = 8'h42; end
  always @(posedge clk) r <= r;
endmodule
"#,
        )
        .unwrap();
        assert_eq!(
            m.find_reg("r").unwrap().init,
            Some(gila_expr::BitVecValue::from_u64(0x42, 8))
        );
    }
}
