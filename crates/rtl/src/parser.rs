//! Parser for the supported Verilog subset.
//!
//! Supported constructs: one `module` per file with `input`/`output`
//! (`output reg`)/`wire`/`reg` declarations (including memories
//! `reg [w-1:0] name [0:depth-1]`), continuous `assign`s, `initial`
//! blocks with constant assignments, and `always @(posedge clk)` blocks
//! containing non-blocking assignments, `if`/`else`, and `case`.

use gila_expr::BitVecValue;

use crate::lexer::{lex, SpannedToken, Token, VerilogError, MAX_WIDTH};

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Bitwise complement `~`.
    Not,
    /// Logical negation `!` (result 1 bit).
    LogicalNot,
    /// Arithmetic negation `-`.
    Neg,
    /// Reduction AND `&` (result 1 bit).
    RedAnd,
    /// Reduction OR `|` (result 1 bit).
    RedOr,
    /// Reduction XOR `^` (result 1 bit).
    RedXor,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    AShr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LogicalAnd,
    /// `||`
    LogicalOr,
}

/// An expression AST node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Identifier reference.
    Ident(String),
    /// Literal with optional declared width.
    Literal {
        /// Declared width, if sized.
        width: Option<u32>,
        /// The value.
        value: BitVecValue,
    },
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Ternary conditional `c ? t : e`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Single-bit or memory-word select `name[index]`.
    Index(String, Box<Expr>),
    /// Constant part select `name[hi:lo]`.
    Range(String, u32, u32),
    /// Concatenation `{a, b, ...}` (first element is most significant).
    Concat(Vec<Expr>),
    /// Replication `{n{e}}`.
    Repeat(u32, Box<Expr>),
}

/// An assignment target inside an always block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// Whole register.
    Reg(String),
    /// One memory word `name[addr]`.
    MemWord(String, Expr),
}

/// A statement inside an always block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// Non-blocking assignment `target <= rhs;`.
    NonBlocking {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `if (cond) ... else ...`.
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then-branch statements.
        then_stmts: Vec<Stmt>,
        /// Else-branch statements.
        else_stmts: Vec<Stmt>,
    },
    /// `case (scrutinee) ... endcase` with priority-ordered arms.
    Case {
        /// The value being matched.
        scrutinee: Expr,
        /// `(labels, body)` per arm; a label list matches if any label equals.
        arms: Vec<(Vec<Expr>, Vec<Stmt>)>,
        /// `default:` body.
        default: Vec<Stmt>,
    },
}

/// A net/variable declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decl {
    /// `input [w-1:0] name;`
    Input {
        /// Pin name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// `output [w-1:0] name;` (wire output, driven by an assign)
    Output {
        /// Pin name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// `output reg [w-1:0] name;`
    OutputReg {
        /// Pin name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// `wire [w-1:0] name;`
    Wire {
        /// Net name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// `reg [w-1:0] name;`
    Reg {
        /// Register name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// `reg [dw-1:0] name [0:depth-1];`
    Mem {
        /// Memory name.
        name: String,
        /// Data width in bits.
        data_width: u32,
        /// Number of words (must be a power of two).
        depth: u64,
    },
}

/// A submodule instantiation `Sub inst (.port(expr), ...);`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// The instantiated module's name.
    pub module: String,
    /// The instance name (prefixes the flattened internals).
    pub name: String,
    /// Named port connections. Input ports accept arbitrary
    /// expressions; output ports must connect to plain identifiers.
    pub connections: Vec<(String, Expr)>,
}

/// A parsed module (pre-elaboration).
#[derive(Clone, Debug, Default)]
pub struct ModuleAst {
    /// Module name.
    pub name: String,
    /// Port list order (from the header).
    pub port_order: Vec<String>,
    /// All declarations.
    pub decls: Vec<Decl>,
    /// Continuous assignments `(lhs, rhs)`.
    pub assigns: Vec<(String, Expr)>,
    /// Always blocks (statement lists; all `@(posedge clk)`).
    pub always_blocks: Vec<Vec<Stmt>>,
    /// Initial-block constant assignments `(reg, value)`.
    pub initials: Vec<(String, BitVecValue)>,
    /// Submodule instantiations (flattened by the hierarchy elaborator).
    pub instances: Vec<Instance>,
    /// Number of source lines.
    pub source_lines: usize,
}

/// A literal as an error message shows it: decimal when it fits in 64
/// bits, `width'hex` otherwise.
pub(crate) fn literal_text(value: &BitVecValue) -> String {
    value
        .try_to_u64()
        .map_or(value.to_string(), |i| i.to_string())
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// `parameter`/`localparam` constants, usable in widths, ranges,
    /// and expressions.
    params: std::collections::HashMap<String, u64>,
    /// Memories declared so far in the current module: a literal index
    /// into one of these is an address, not a bit position. `None` for a
    /// standalone expression, whose names the elaborator resolves.
    mems: Option<std::collections::HashSet<String>>,
}

impl Parser {
    fn new(tokens: Vec<SpannedToken>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            params: Default::default(),
            mems: Some(Default::default()),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> VerilogError {
        VerilogError::new(self.line(), msg)
    }

    fn next(&mut self) -> Result<Token, VerilogError> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|t| t.token.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_sym(&mut self, sym: &str) -> Result<(), VerilogError> {
        match self.next()? {
            Token::Sym(s) if s == sym => Ok(()),
            other => Err(self.err(format!("expected {sym:?}, found {other}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), VerilogError> {
        match self.next()? {
            Token::Ident(s) if s == kw => Ok(()),
            other => Err(self.err(format!("expected keyword {kw:?}, found {other}"))),
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

    fn ident(&mut self) -> Result<String, VerilogError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn const_u64(&mut self) -> Result<u64, VerilogError> {
        let e = self.expr()?;
        self.const_eval(&e)
    }

    /// Evaluates a constant expression (literals, parameters, and
    /// arithmetic over them).
    fn const_eval(&self, e: &Expr) -> Result<u64, VerilogError> {
        match e {
            Expr::Literal { value, .. } => value
                .try_to_u64()
                .ok_or_else(|| self.err(format!("constant {value} does not fit in 64 bits"))),
            Expr::Ident(name) => self.params.get(name).copied().ok_or_else(|| {
                self.err(format!("{name:?} is not a parameter; constants required here"))
            }),
            Expr::Unary(UnOp::Neg, inner) => Ok(self.const_eval(inner)?.wrapping_neg()),
            Expr::Unary(UnOp::Not, inner) => Ok(!self.const_eval(inner)?),
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.const_eval(a)?, self.const_eval(b)?);
                Ok(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a.checked_div(b).unwrap_or(u64::MAX),
                    BinOp::Mod => a.checked_rem(b).unwrap_or(a),
                    BinOp::Shl => u32::try_from(b).map_or(0, |b| a.checked_shl(b).unwrap_or(0)),
                    BinOp::Shr => u32::try_from(b).map_or(0, |b| a.checked_shr(b).unwrap_or(0)),
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    _ => return Err(self.err("unsupported operator in constant expression")),
                })
            }
            Expr::Ternary(c, t, f) => {
                if self.const_eval(c)? != 0 {
                    self.const_eval(t)
                } else {
                    self.const_eval(f)
                }
            }
            _ => Err(self.err("unsupported form in constant expression")),
        }
    }

    /// Parses an optional `[hi:lo]` range, returning the width `hi-lo+1`.
    fn width_spec(&mut self) -> Result<u32, VerilogError> {
        if self.try_sym("[") {
            let hi = self.const_u64()?;
            self.eat_sym(":")?;
            let lo = self.const_u64()?;
            if lo != 0 {
                return Err(self.err("only [N:0] ranges are supported in declarations"));
            }
            if hi >= u64::from(MAX_WIDTH) {
                return Err(self.err(format!(
                    "declared range [{hi}:0] is wider than {MAX_WIDTH} bits"
                )));
            }
            self.eat_sym("]")?;
            Ok(hi as u32 + 1)
        } else {
            Ok(1)
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, VerilogError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, VerilogError> {
        let c = self.logical_or()?;
        if self.try_sym("?") {
            let t = self.ternary()?;
            self.eat_sym(":")?;
            let e = self.ternary()?;
            Ok(Expr::Ternary(Box::new(c), Box::new(t), Box::new(e)))
        } else {
            Ok(c)
        }
    }

    fn binary_level<F>(&mut self, ops: &[(&str, BinOp)], next: F) -> Result<Expr, VerilogError>
    where
        F: Fn(&mut Self) -> Result<Expr, VerilogError>,
    {
        let mut lhs = next(self)?;
        'outer: loop {
            for (sym, op) in ops {
                if matches!(self.peek(), Some(Token::Sym(s)) if s == sym) {
                    self.pos += 1;
                    let rhs = next(self)?;
                    lhs = Expr::Binary(*op, Box::new(lhs), Box::new(rhs));
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn logical_or(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("||", BinOp::LogicalOr)], Self::logical_and)
    }

    fn logical_and(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("&&", BinOp::LogicalAnd)], Self::bit_or)
    }

    fn bit_or(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("|", BinOp::Or)], Self::bit_xor)
    }

    fn bit_xor(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("^", BinOp::Xor)], Self::bit_and)
    }

    fn bit_and(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("&", BinOp::And)], Self::equality)
    }

    fn equality(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("==", BinOp::Eq), ("!=", BinOp::Ne)], Self::relational)
    }

    fn relational(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            Self::shift,
        )
    }

    fn shift(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(
            &[(">>>", BinOp::AShr), ("<<", BinOp::Shl), (">>", BinOp::Shr)],
            Self::additive,
        )
    }

    fn additive(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(&[("+", BinOp::Add), ("-", BinOp::Sub)], Self::multiplicative)
    }

    fn multiplicative(&mut self) -> Result<Expr, VerilogError> {
        self.binary_level(
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)],
            Self::unary,
        )
    }

    fn unary(&mut self) -> Result<Expr, VerilogError> {
        for (sym, op) in [
            ("~", UnOp::Not),
            ("!", UnOp::LogicalNot),
            ("-", UnOp::Neg),
            ("&", UnOp::RedAnd),
            ("|", UnOp::RedOr),
            ("^", UnOp::RedXor),
        ] {
            if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
                self.pos += 1;
                let e = self.unary()?;
                return Ok(Expr::Unary(op, Box::new(e)));
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, VerilogError> {
        match self.next()? {
            Token::Number { width, value } => Ok(Expr::Literal { width, value }),
            Token::Ident(name) => {
                if let Some(&v) = self.params.get(&name) {
                    // Parameters behave like unsized decimal literals.
                    return Ok(Expr::Literal {
                        width: None,
                        value: BitVecValue::from_u64(v, 64),
                    });
                }
                if self.try_sym("[") {
                    // Could be name[expr] or name[hi:lo].
                    let first = self.expr()?;
                    if self.try_sym(":") {
                        let hi = self.const_eval(&first)?;
                        let lo = self.const_u64()?;
                        if hi < lo || hi >= u64::from(MAX_WIDTH) {
                            return Err(self.err(format!("invalid part select [{hi}:{lo}]")));
                        }
                        self.eat_sym("]")?;
                        Ok(Expr::Range(name, hi as u32, lo as u32))
                    } else {
                        if let (Expr::Literal { value, .. }, Some(mems)) = (&first, &self.mems) {
                            let bit = value.try_to_u64().is_some_and(|i| i < u64::from(MAX_WIDTH));
                            if !bit && !mems.contains(&name) {
                                let i = literal_text(value);
                                let msg = format!("bit index {i} out of range for {name:?}");
                                return Err(self.err(msg));
                            }
                        }
                        self.eat_sym("]")?;
                        Ok(Expr::Index(name, Box::new(first)))
                    }
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Token::Sym("(") => {
                let e = self.expr()?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Token::Sym("{") => {
                // Concat {a, b, ...} or replication {n{e}}.
                let first = self.expr()?;
                if self.try_sym("{") {
                    let n = self.const_eval(&first)?;
                    if n == 0 || n > u64::from(MAX_WIDTH) {
                        return Err(
                            self.err(format!("replication count {n} is not in 1..={MAX_WIDTH}"))
                        );
                    }
                    let n = n as u32;
                    let inner = self.expr()?;
                    self.eat_sym("}")?;
                    self.eat_sym("}")?;
                    return Ok(Expr::Repeat(n, Box::new(inner)));
                }
                let mut items = vec![first];
                while self.try_sym(",") {
                    items.push(self.expr()?);
                }
                self.eat_sym("}")?;
                Ok(Expr::Concat(items))
            }
            other => Err(self.err(format!("unexpected token {other} in expression"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt_block(&mut self) -> Result<Vec<Stmt>, VerilogError> {
        if self.try_kw("begin") {
            let mut stmts = Vec::new();
            while !self.try_kw("end") {
                stmts.push(self.stmt()?);
            }
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> Result<Stmt, VerilogError> {
        if self.try_kw("if") {
            self.eat_sym("(")?;
            let cond = self.expr()?;
            self.eat_sym(")")?;
            let then_stmts = self.stmt_block()?;
            let else_stmts = if self.try_kw("else") {
                self.stmt_block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_stmts,
                else_stmts,
            });
        }
        if self.try_kw("case") {
            self.eat_sym("(")?;
            let scrutinee = self.expr()?;
            self.eat_sym(")")?;
            let mut arms = Vec::new();
            let mut default = Vec::new();
            loop {
                if self.try_kw("endcase") {
                    break;
                }
                if self.try_kw("default") {
                    let _ = self.try_sym(":");
                    default = self.stmt_block()?;
                    continue;
                }
                let mut labels = vec![self.expr()?];
                while self.try_sym(",") {
                    labels.push(self.expr()?);
                }
                self.eat_sym(":")?;
                let body = self.stmt_block()?;
                arms.push((labels, body));
            }
            return Ok(Stmt::Case {
                scrutinee,
                arms,
                default,
            });
        }
        // Non-blocking assignment.
        let name = self.ident()?;
        let target = if self.try_sym("[") {
            let idx = self.expr()?;
            self.eat_sym("]")?;
            Target::MemWord(name, idx)
        } else {
            Target::Reg(name)
        };
        self.eat_sym("<=")?;
        let rhs = self.expr()?;
        self.eat_sym(";")?;
        Ok(Stmt::NonBlocking { target, rhs })
    }

    // ------------------------------------------------------------------
    // Module items
    // ------------------------------------------------------------------

    fn module(&mut self) -> Result<ModuleAst, VerilogError> {
        self.eat_kw("module")?;
        let name = self.ident()?;
        let mut ast = ModuleAst {
            name,
            ..Default::default()
        };
        if self.try_sym("(")
            && !self.try_sym(")") {
                loop {
                    ast.port_order.push(self.ident()?);
                    if self.try_sym(")") {
                        break;
                    }
                    self.eat_sym(",")?;
                }
            }
        self.eat_sym(";")?;
        loop {
            if self.try_kw("endmodule") {
                break;
            }
            if self.try_kw("input") {
                let width = self.width_spec()?;
                loop {
                    let name = self.ident()?;
                    ast.decls.push(Decl::Input { name, width });
                    if !self.try_sym(",") {
                        break;
                    }
                }
                self.eat_sym(";")?;
                continue;
            }
            if self.try_kw("output") {
                let is_reg = self.try_kw("reg");
                let width = self.width_spec()?;
                loop {
                    let name = self.ident()?;
                    ast.decls.push(if is_reg {
                        Decl::OutputReg { name, width }
                    } else {
                        Decl::Output { name, width }
                    });
                    if !self.try_sym(",") {
                        break;
                    }
                }
                self.eat_sym(";")?;
                continue;
            }
            if self.try_kw("wire") {
                let width = self.width_spec()?;
                loop {
                    let name = self.ident()?;
                    // `wire x = expr;` inline assign form.
                    if self.try_sym("=") {
                        let rhs = self.expr()?;
                        ast.decls.push(Decl::Wire {
                            name: name.clone(),
                            width,
                        });
                        ast.assigns.push((name, rhs));
                        break;
                    }
                    ast.decls.push(Decl::Wire { name, width });
                    if !self.try_sym(",") {
                        break;
                    }
                }
                self.eat_sym(";")?;
                continue;
            }
            if self.try_kw("reg") {
                let width = self.width_spec()?;
                loop {
                    let name = self.ident()?;
                    if self.try_sym("[") {
                        let lo = self.const_u64()?;
                        self.eat_sym(":")?;
                        let hi = self.const_u64()?;
                        if lo != 0 {
                            return Err(self.err("memories must be declared [0:N]"));
                        }
                        // Between 2 and 2^32 words: a 1- to 32-bit address.
                        let depth = hi.checked_add(1).filter(|d| (2..=1 << 32).contains(d));
                        let Some(depth) = depth.filter(|d| d.is_power_of_two()) else {
                            return Err(self.err(format!(
                                "memory [0:{hi}] must hold a power of two from 2 to 2^32 words"
                            )));
                        };
                        self.eat_sym("]")?;
                        if let Some(mems) = &mut self.mems {
                            mems.insert(name.clone());
                        }
                        ast.decls.push(Decl::Mem {
                            name,
                            data_width: width,
                            depth,
                        });
                    } else {
                        ast.decls.push(Decl::Reg { name, width });
                    }
                    if !self.try_sym(",") {
                        break;
                    }
                }
                self.eat_sym(";")?;
                continue;
            }
            if self.try_kw("parameter") || self.try_kw("localparam") {
                loop {
                    let name = self.ident()?;
                    self.eat_sym("=")?;
                    let e = self.expr()?;
                    let v = self.const_eval(&e)?;
                    self.params.insert(name, v);
                    if !self.try_sym(",") {
                        break;
                    }
                }
                self.eat_sym(";")?;
                continue;
            }
            if self.try_kw("assign") {
                let lhs = self.ident()?;
                self.eat_sym("=")?;
                let rhs = self.expr()?;
                self.eat_sym(";")?;
                ast.assigns.push((lhs, rhs));
                continue;
            }
            if self.try_kw("always") {
                self.eat_sym("@")?;
                self.eat_sym("(")?;
                self.eat_kw("posedge")?;
                let _clk = self.ident()?;
                self.eat_sym(")")?;
                let stmts = self.stmt_block()?;
                ast.always_blocks.push(stmts);
                continue;
            }
            if self.try_kw("initial") {
                // initial begin r = const; ... end
                let had_begin = self.try_kw("begin");
                loop {
                    if had_begin && self.try_kw("end") {
                        break;
                    }
                    let name = self.ident()?;
                    self.eat_sym("=")?;
                    let value = match self.next()? {
                        Token::Number { value, .. } => value,
                        other => {
                            return Err(
                                self.err(format!("initial values must be constants, found {other}"))
                            )
                        }
                    };
                    self.eat_sym(";")?;
                    ast.initials.push((name, value));
                    if !had_begin {
                        break;
                    }
                }
                continue;
            }
            // Submodule instantiation: `Module inst (.port(expr), ...);`
            let module = self.ident()?;
            let name = self.ident()?;
            self.eat_sym("(")?;
            let mut connections = Vec::new();
            if !self.try_sym(")") {
                loop {
                    self.eat_sym(".")?;
                    let port = self.ident()?;
                    self.eat_sym("(")?;
                    let expr = self.expr()?;
                    self.eat_sym(")")?;
                    connections.push((port, expr));
                    if self.try_sym(")") {
                        break;
                    }
                    self.eat_sym(",")?;
                }
            }
            self.eat_sym(";")?;
            ast.instances.push(Instance {
                module,
                name,
                connections,
            });
        }
        Ok(ast)
    }
}

/// Parses a standalone Verilog expression (used for refinement-map
/// condition strings).
///
/// # Errors
///
/// Returns a [`VerilogError`] on malformed input or trailing tokens.
pub fn parse_expr_ast(src: &str) -> Result<Expr, VerilogError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        mems: None,
        ..Parser::new(tokens)
    };
    let e = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(e)
}

/// Parses every module in a source file, in order.
///
/// # Errors
///
/// Returns a [`VerilogError`] with the offending line for syntax outside
/// the supported subset.
pub fn parse_modules(src: &str) -> Result<Vec<ModuleAst>, VerilogError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut out = Vec::new();
    while p.pos != p.tokens.len() {
        p.params.clear();
        p.mems = Some(Default::default());
        let mut ast = p.module()?;
        ast.source_lines = 0; // per-module counts are filled by callers
        out.push(ast);
    }
    for ast in &mut out {
        ast.source_lines = src.lines().filter(|l| !l.trim().is_empty()).count();
    }
    Ok(out)
}

/// Parses one Verilog module from source text.
///
/// # Errors
///
/// Returns a [`VerilogError`] with the offending line for syntax outside
/// the supported subset.
pub fn parse_module(src: &str) -> Result<ModuleAst, VerilogError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut ast = p.module()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after endmodule"));
    }
    ast.source_lines = src.lines().filter(|l| !l.trim().is_empty()).count();
    Ok(ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = r#"
module counter(clk, en, q);
  input clk;
  input en;
  output [3:0] q;
  reg [3:0] cnt;
  assign q = cnt;
  always @(posedge clk) begin
    if (en) cnt <= cnt + 4'd1;
  end
endmodule
"#;

    #[test]
    fn parses_counter() {
        let ast = parse_module(COUNTER).unwrap();
        assert_eq!(ast.name, "counter");
        assert_eq!(ast.port_order, vec!["clk", "en", "q"]);
        assert_eq!(ast.decls.len(), 4);
        assert_eq!(ast.assigns.len(), 1);
        assert_eq!(ast.always_blocks.len(), 1);
    }

    #[test]
    fn parses_case_and_memory() {
        let src = r#"
module m(clk, sel, addr, din);
  input clk;
  input [1:0] sel;
  input [3:0] addr;
  input [7:0] din;
  reg [7:0] store [0:15];
  reg [7:0] acc;
  always @(posedge clk) begin
    case (sel)
      2'b00: acc <= din;
      2'b01, 2'b10: acc <= acc + din;
      default: begin
        store[addr] <= acc;
      end
    endcase
  end
endmodule
"#;
        let ast = parse_module(src).unwrap();
        let Stmt::Case { arms, default, .. } = &ast.always_blocks[0][0] else {
            panic!("expected case");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].0.len(), 2);
        assert_eq!(default.len(), 1);
        assert!(matches!(
            &default[0],
            Stmt::NonBlocking {
                target: Target::MemWord(n, _),
                ..
            } if n == "store"
        ));
    }

    #[test]
    fn parses_expressions() {
        let src = r#"
module e(a, b, q);
  input [7:0] a;
  input [7:0] b;
  output [7:0] q;
  assign q = (a & 8'hF0) | {4'b0, b[7:4]} + (a[0] ? b : ~b) - {2{a[3:0]}};
endmodule
"#;
        parse_module(src).unwrap();
    }

    #[test]
    fn parses_initial_and_output_reg() {
        let src = r#"
module r(clk, q);
  input clk;
  output reg [3:0] q;
  initial begin
    q = 4'h7;
  end
  always @(posedge clk) q <= q + 4'd1;
endmodule
"#;
        let ast = parse_module(src).unwrap();
        assert_eq!(ast.initials, vec![("q".to_string(), BitVecValue::from_u64(7, 4))]);
        assert!(matches!(ast.decls[1], Decl::OutputReg { .. }));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse_module("module m(; endmodule").is_err());
        assert!(parse_module("module m(); wire [3:1] w; endmodule").is_err());
        assert!(parse_module("module m(); always @(negedge clk) begin end endmodule").is_err());
        // non-power-of-two memory depth
        assert!(parse_module("module m(); reg [7:0] s [0:9]; endmodule").is_err());
        assert!(parse_module("module m(); endmodule extra").is_err());
    }

    #[test]
    fn parameters_fold_in_widths_and_expressions() {
        let src = r#"
module p(clk, a);
  parameter WIDTH = 8;
  localparam HALF = WIDTH / 2, LIMIT = (1 << HALF) - 1;
  input clk;
  input [WIDTH-1:0] a;
  reg [WIDTH-1:0] r;
  reg [HALF-1:0] h;
  always @(posedge clk) begin
    if (a < LIMIT) r <= a + WIDTH;
    h <= a[HALF-1:0];
  end
endmodule
"#;
        let ast = parse_module(src).unwrap();
        assert!(ast.decls.iter().any(|d| matches!(d, Decl::Input { name, width: 8 } if name == "a")));
        assert!(ast.decls.iter().any(|d| matches!(d, Decl::Reg { name, width: 4 } if name == "h")));
    }

    #[test]
    fn parameterized_memory_depth() {
        let src = r#"
module m(clk);
  parameter DEPTH = 16;
  input clk;
  reg [7:0] store [0:DEPTH-1];
endmodule
"#;
        let ast = parse_module(src).unwrap();
        assert!(ast
            .decls
            .iter()
            .any(|d| matches!(d, Decl::Mem { depth: 16, .. })));
    }

    #[test]
    fn unknown_identifier_in_constant_context_rejected() {
        assert!(parse_module("module m(); input [GHOST-1:0] a; endmodule").is_err());
    }

    #[test]
    fn if_else_chain() {
        let src = r#"
module c(clk, x);
  input clk;
  input [1:0] x;
  reg [1:0] s;
  always @(posedge clk) begin
    if (x == 2'd0) s <= 2'd3;
    else if (x == 2'd1) s <= 2'd2;
    else begin
      s <= x;
    end
  end
endmodule
"#;
        let ast = parse_module(src).unwrap();
        let Stmt::If { else_stmts, .. } = &ast.always_blocks[0][0] else {
            panic!()
        };
        assert!(matches!(&else_stmts[0], Stmt::If { .. }));
    }

    /// Parses and elaborates a module whose line 4 declares `decl` and
    /// whose line 5 assigns `rhs` to `r`; the error it must give.
    fn rejected(decl: &str, rhs: &str) -> VerilogError {
        let src = format!(
            "module t(clk, a);\n  input clk;\n  input [7:0] a;\n  {decl}\n  \
             always @(posedge clk) r <= {rhs};\nendmodule\n"
        );
        crate::parse_verilog(&src).expect_err("out-of-range constant accepted")
    }

    #[test]
    fn declared_width_of_2_to_the_32_is_rejected() {
        let e = rejected("reg [4294967295:0] r;", "r");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("wider than 4096 bits"), "{e}");
    }

    #[test]
    fn declared_range_at_u64_max_is_rejected_without_overflow() {
        let e = rejected("reg [18446744073709551615:0] r;", "r");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("wider than 4096 bits"), "{e}");
    }

    #[test]
    fn declared_width_past_2_to_the_32_is_not_narrowed() {
        let e = rejected("reg [4294967296:0] r;", "r");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("[4294967296:0]"), "{e}");
    }

    #[test]
    fn part_select_past_u32_is_not_narrowed() {
        let e = rejected("reg [1:0] r;", "a[4294967297:4294967296]");
        assert_eq!(e.line, 5);
        assert!(
            e.message
                .contains("invalid part select [4294967297:4294967296]"),
            "{e}"
        );
    }

    #[test]
    fn literal_bit_index_past_u32_is_not_narrowed() {
        let e = rejected("reg r;", "a[4294967296]");
        assert_eq!(e.line, 5);
        assert!(
            e.message.contains("bit index 4294967296 out of range"),
            "{e}"
        );
        // Within the width limit but past the vector, the elaborator
        // rejects it.
        let e = rejected("reg r;", "a[8]");
        assert!(e.message.contains("bit index 8 out of range"), "{e}");
    }

    #[test]
    fn replication_count_past_u32_is_not_narrowed() {
        let e = rejected("reg [7:0] r;", "{4294967297{a}}");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("replication count 4294967297"), "{e}");
    }

    #[test]
    fn replication_count_near_2_to_the_32_is_rejected_at_once() {
        let e = rejected("reg [7:0] r;", "{4294967295{a}}");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("replication count 4294967295"), "{e}");
        // A count within the limit still may not build a wider value.
        let e = rejected("reg [7:0] r;", "{4096{a}}");
        assert!(e.message.contains("32768 bits wide"), "{e}");
    }

    #[test]
    fn memory_depth_outside_2_to_2_to_the_32_is_rejected() {
        for decl in [
            "reg [7:0] m [0:0]; reg [7:0] r;",
            "reg [7:0] m [0:18446744073709551615]; reg [7:0] r;",
            "reg [7:0] m [0:8589934591]; reg [7:0] r;",
        ] {
            let e = rejected(decl, "m[0]");
            assert_eq!(e.line, 4, "{decl}");
            assert!(e.message.contains("power of two from 2 to 2^32"), "{e}");
        }
    }

    #[test]
    fn shift_by_2_to_the_32_shifts_everything_out() {
        // `1 << 4294967296` is 0, not `1 << 0`: the range is [0:0].
        let src = "module m(a);\n  parameter P = 1 << 4294967296;\n  input [P:0] a;\nendmodule\n";
        let ast = parse_module(src).unwrap();
        assert_eq!(
            ast.decls[0],
            Decl::Input {
                name: "a".into(),
                width: 1
            }
        );
    }

    #[test]
    fn constant_wider_than_64_bits_is_not_truncated() {
        let e = rejected("reg [65'h1_0000_0000_0000_0001:0] r;", "r");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("does not fit in 64 bits"), "{e}");
    }
}
