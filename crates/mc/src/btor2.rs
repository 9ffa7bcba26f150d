//! BTOR2 export: serialize a [`TransitionSystem`] plus a safety
//! property in the BTOR2 word-level model-checking format, so external
//! checkers (BtorMC, Pono, AVR, ...) can cross-validate results.
//!
//! Booleans are encoded as 1-bit sorts; memories as BTOR2 array sorts.

use std::collections::HashMap;
use std::fmt::Write as _;

use gila_expr::{ExprCtx, ExprNode, ExprRef, Op, Sort};

use crate::ts::TransitionSystem;

/// An error during export: the system uses a form BTOR2 cannot express
/// (none currently; kept for future operators).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Btor2Error {
    message: String,
}

impl std::fmt::Display for Btor2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "btor2 export: {}", self.message)
    }
}

impl std::error::Error for Btor2Error {}

struct Exporter<'a> {
    ctx: &'a ExprCtx,
    out: String,
    next_id: u64,
    /// node id per expression
    exprs: HashMap<ExprRef, u64>,
    /// sort id per sort
    sorts: HashMap<Sort, u64>,
}

impl Exporter<'_> {
    fn fresh(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn sort(&mut self, s: Sort) -> u64 {
        if let Some(&id) = self.sorts.get(&s) {
            return id;
        }
        let id = match s {
            Sort::Bool | Sort::Bv(1) => {
                // Share the 1-bit sort between bool and bv1.
                if let Some(&id) = self.sorts.get(&Sort::Bv(1)) {
                    self.sorts.insert(s, id);
                    return id;
                }
                let id = self.fresh();
                let _ = writeln!(self.out, "{id} sort bitvec 1");
                self.sorts.insert(Sort::Bool, id);
                self.sorts.insert(Sort::Bv(1), id);
                return id;
            }
            Sort::Bv(w) => {
                let id = self.fresh();
                let _ = writeln!(self.out, "{id} sort bitvec {w}");
                id
            }
            Sort::Mem {
                addr_width,
                data_width,
            } => {
                let idx = self.sort(Sort::Bv(addr_width));
                let elem = self.sort(Sort::Bv(data_width));
                let id = self.fresh();
                let _ = writeln!(self.out, "{id} sort array {idx} {elem}");
                id
            }
        };
        self.sorts.insert(s, id);
        id
    }

    fn emit(&mut self, e: ExprRef) -> Result<u64, Btor2Error> {
        if let Some(&id) = self.exprs.get(&e) {
            return Ok(id);
        }
        for node in self.ctx.post_order(&[e]) {
            if self.exprs.contains_key(&node) {
                continue;
            }
            let id = self.emit_node(node)?;
            self.exprs.insert(node, id);
        }
        Ok(self.exprs[&e])
    }

    fn emit_node(&mut self, e: ExprRef) -> Result<u64, Btor2Error> {
        let sort_id = self.sort(self.ctx.sort_of(e));
        Ok(match self.ctx.node(e) {
            ExprNode::BoolConst(b) => {
                let id = self.fresh();
                let kw = if *b { "one" } else { "zero" };
                let _ = writeln!(self.out, "{id} {kw} {sort_id}");
                id
            }
            ExprNode::BvConst(v) => {
                let id = self.fresh();
                let _ = writeln!(self.out, "{id} constd {sort_id} {}", BigDec(v));
                id
            }
            ExprNode::MemConst(_) => {
                return Err(Btor2Error {
                    message: "memory constants are not supported; use an init state".into(),
                })
            }
            ExprNode::Var { name, .. } => {
                // Free variables reachable only through properties (not
                // declared as state/input) become inputs.
                let id = self.fresh();
                let _ = writeln!(self.out, "{id} input {sort_id} {name}");
                id
            }
            ExprNode::App { op, args, .. } => {
                let a: Vec<u64> = args.iter().map(|x| self.exprs[x]).collect();
                let id = self.fresh();
                let line = match op {
                    Op::Not | Op::BvNot => format!("not {sort_id} {}", a[0]),
                    Op::BvNeg => format!("neg {sort_id} {}", a[0]),
                    Op::And | Op::BvAnd => format!("and {sort_id} {} {}", a[0], a[1]),
                    Op::Or | Op::BvOr => format!("or {sort_id} {} {}", a[0], a[1]),
                    Op::Xor | Op::BvXor => format!("xor {sort_id} {} {}", a[0], a[1]),
                    Op::Implies => format!("implies {sort_id} {} {}", a[0], a[1]),
                    Op::Iff | Op::Eq => format!("eq {sort_id} {} {}", a[0], a[1]),
                    Op::Ite => format!("ite {sort_id} {} {} {}", a[0], a[1], a[2]),
                    Op::BvAdd => format!("add {sort_id} {} {}", a[0], a[1]),
                    Op::BvSub => format!("sub {sort_id} {} {}", a[0], a[1]),
                    Op::BvMul => format!("mul {sort_id} {} {}", a[0], a[1]),
                    Op::BvUdiv => format!("udiv {sort_id} {} {}", a[0], a[1]),
                    Op::BvUrem => format!("urem {sort_id} {} {}", a[0], a[1]),
                    Op::BvShl => format!("sll {sort_id} {} {}", a[0], a[1]),
                    Op::BvLshr => format!("srl {sort_id} {} {}", a[0], a[1]),
                    Op::BvAshr => format!("sra {sort_id} {} {}", a[0], a[1]),
                    Op::BvConcat => format!("concat {sort_id} {} {}", a[0], a[1]),
                    Op::BvExtract { hi, lo } => {
                        format!("slice {sort_id} {} {hi} {lo}", a[0])
                    }
                    Op::BvZext { .. } => {
                        let from = self
                            .ctx
                            .sort_of(self.ctx.args(e)[0])
                            .bv_width()
                            .expect("bv");
                        let to = self.ctx.sort_of(e).bv_width().expect("bv");
                        format!("uext {sort_id} {} {}", a[0], to - from)
                    }
                    Op::BvSext { .. } => {
                        let from = self
                            .ctx
                            .sort_of(self.ctx.args(e)[0])
                            .bv_width()
                            .expect("bv");
                        let to = self.ctx.sort_of(e).bv_width().expect("bv");
                        format!("sext {sort_id} {} {}", a[0], to - from)
                    }
                    Op::BvUlt => format!("ult {sort_id} {} {}", a[0], a[1]),
                    Op::BvUle => format!("ulte {sort_id} {} {}", a[0], a[1]),
                    Op::BvSlt => format!("slt {sort_id} {} {}", a[0], a[1]),
                    Op::BvSle => format!("slte {sort_id} {} {}", a[0], a[1]),
                    Op::MemRead => format!("read {sort_id} {} {}", a[0], a[1]),
                    Op::MemWrite => {
                        format!("write {sort_id} {} {} {}", a[0], a[1], a[2])
                    }
                    // bool -> bv1 is the identity under the shared 1-bit sort.
                    Op::BoolToBv => {
                        return Ok(a[0]);
                    }
                };
                let _ = writeln!(self.out, "{id} {line}");
                id
            }
        })
    }
}

/// Decimal rendering of arbitrary-width values for `constd`.
struct BigDec<'a>(&'a gila_expr::BitVecValue);

impl std::fmt::Display for BigDec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Values beyond 64 bits fall back to binary-string conversion.
        if let Some(x) = self.0.try_to_u64() {
            return write!(f, "{x}");
        }
        // Repeated division by 10 over the bits (widths here are small).
        let mut digits = Vec::new();
        let mut bits: Vec<bool> = self.0.to_bits();
        while bits.iter().any(|&b| b) {
            let mut rem = 0u32;
            for i in (0..bits.len()).rev() {
                let cur = rem * 2 + bits[i] as u32;
                bits[i] = cur >= 10;
                rem = cur % 10;
            }
            digits.push(char::from_digit(rem, 10).expect("digit"));
        }
        if digits.is_empty() {
            digits.push('0');
        }
        for d in digits.iter().rev() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Serializes the system and the safety property `prop` ("always holds")
/// as a BTOR2 document: one `state`/`init`/`next` triple per state, one
/// `input` per input, and a `bad` line for `!prop`.
///
/// # Errors
///
/// Returns [`Btor2Error`] for inexpressible constructs.
pub fn to_btor2(ts: &TransitionSystem, prop: ExprRef) -> Result<String, Btor2Error> {
    let mut ex = Exporter {
        ctx: ts.ctx(),
        out: String::new(),
        next_id: 1,
        exprs: HashMap::new(),
        sorts: HashMap::new(),
    };
    let _ = writeln!(ex.out, "; btor2 export of transition system {}", ts.name());
    // Inputs first.
    for i in ts.inputs() {
        let sid = ex.sort(i.sort);
        let id = ex.fresh();
        let _ = writeln!(ex.out, "{id} input {sid} {}", i.name);
        ex.exprs.insert(i.var, id);
    }
    // States.
    let mut state_ids = Vec::new();
    for s in ts.states() {
        let sid = ex.sort(s.sort);
        let id = ex.fresh();
        let _ = writeln!(ex.out, "{id} state {sid} {}", s.name);
        ex.exprs.insert(s.var, id);
        state_ids.push((s.name.clone(), s.sort, id));
    }
    // Inits.
    for (name, sort, id) in &state_ids {
        let Some(value) = ts.init_of(name) else {
            continue;
        };
        let sid = ex.sort(*sort);
        let vid = match value {
            gila_expr::Value::Bool(b) => {
                let vid = ex.fresh();
                let kw = if *b { "one" } else { "zero" };
                let _ = writeln!(ex.out, "{vid} {kw} {sid}");
                vid
            }
            gila_expr::Value::Bv(v) => {
                let vid = ex.fresh();
                let _ = writeln!(ex.out, "{vid} constd {sid} {}", BigDec(v));
                vid
            }
            gila_expr::Value::Mem(m) => {
                // A uniform default initializes the whole array; written
                // words beyond the default are not expressible as btor2
                // init (documented limitation).
                let esid = ex.sort(Sort::Bv(m.data_width()));
                let vid = ex.fresh();
                let _ = writeln!(ex.out, "{vid} constd {esid} {}", BigDec(m.default_word()));
                vid
            }
        };
        let iid = ex.fresh();
        let _ = writeln!(ex.out, "{iid} init {sid} {id} {vid}");
    }
    // Next functions.
    for s in ts.states() {
        let next = ts.next_of(&s.name).expect("next always present");
        let nid = ex.emit(next)?;
        let sid = ex.sort(s.sort);
        let id = ex.fresh();
        let _ = writeln!(ex.out, "{id} next {sid} {} {nid}", ex.exprs[&s.var]);
    }
    // Bad state: the negation of the property.
    let pid = ex.emit(prop)?;
    let bool_sid = ex.sort(Sort::Bool);
    let nid = ex.fresh();
    let _ = writeln!(ex.out, "{nid} not {bool_sid} {pid}");
    let bid = ex.fresh();
    let _ = writeln!(ex.out, "{bid} bad {nid}");
    Ok(ex.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_expr::BitVecValue;

    fn counter_ts() -> (TransitionSystem, ExprRef) {
        let mut ts = TransitionSystem::new("c");
        let en = ts.input("en", Sort::Bv(1));
        let cnt = ts.state("cnt", Sort::Bv(8));
        let one = ts.ctx_mut().bv_u64(1, 8);
        let inc = ts.ctx_mut().bvadd(cnt, one);
        let c = ts.ctx_mut().eq_u64(en, 1);
        let next = ts.ctx_mut().ite(c, inc, cnt);
        ts.set_next("cnt", next).unwrap();
        ts.set_init("cnt", BitVecValue::from_u64(0, 8)).unwrap();
        let lim = ts.ctx_mut().bv_u64(200, 8);
        let prop = ts.ctx_mut().ult(cnt, lim);
        (ts, prop)
    }

    #[test]
    fn counter_exports_with_all_sections() {
        let (ts, prop) = counter_ts();
        let doc = to_btor2(&ts, prop).unwrap();
        assert!(doc.contains("sort bitvec 8"));
        assert!(doc.contains("sort bitvec 1"));
        assert!(doc.contains("input"), "{doc}");
        assert!(doc.contains("state"), "{doc}");
        assert!(doc.contains("init"), "{doc}");
        assert!(doc.contains("next"), "{doc}");
        assert!(doc.contains("bad"), "{doc}");
        assert!(doc.contains("constd"), "{doc}");
        // Node ids are unique and ascending.
        let ids: Vec<u64> = doc
            .lines()
            .filter(|l| !l.starts_with(';'))
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids.len(), sorted.len());
    }

    #[test]
    fn memories_export_as_arrays() {
        let mut ts = TransitionSystem::new("m");
        let we = ts.input("we", Sort::Bv(1));
        let addr = ts.input("addr", Sort::Bv(4));
        let din = ts.input("din", Sort::Bv(8));
        let mem = ts.state(
            "mem",
            Sort::Mem {
                addr_width: 4,
                data_width: 8,
            },
        );
        let w = ts.ctx_mut().mem_write(mem, addr, din);
        let c = ts.ctx_mut().eq_u64(we, 1);
        let next = ts.ctx_mut().ite(c, w, mem);
        ts.set_next("mem", next).unwrap();
        let r = ts.ctx_mut().mem_read(mem, addr);
        let z = ts.ctx_mut().bv_u64(0, 8);
        let prop = ts.ctx_mut().uge(r, z); // trivially true
        let doc = to_btor2(&ts, prop).unwrap();
        assert!(doc.contains("sort array"), "{doc}");
        assert!(doc.contains(" read "), "{doc}");
        assert!(doc.contains(" write "), "{doc}");
    }

    #[test]
    fn bool_bridge_shares_the_one_bit_sort() {
        // A Bool turned into a bv1 and compared with the bv1 input: the
        // bridge emits no node of its own, and Bool and bv1 share one
        // sort declaration.
        let (mut ts, _) = counter_ts();
        let en = ts.ctx().find_var("en").unwrap();
        let on = ts.ctx_mut().eq_u64(en, 1);
        let bit = ts.ctx_mut().bool_to_bv(on);
        let prop = ts.ctx_mut().eq(bit, en);
        let doc = to_btor2(&ts, prop).unwrap();
        assert_eq!(doc.matches("sort bitvec 1").count(), 1, "{doc}");
        assert!(doc.contains(" bad "), "{doc}");
    }

    #[test]
    fn wide_constants_render_in_decimal() {
        let v = BitVecValue::ones(80);
        let s = format!("{}", BigDec(&v));
        // 2^80 - 1
        assert_eq!(s, "1208925819614629174706175");
        assert_eq!(format!("{}", BigDec(&BitVecValue::zero(80))), "0");
    }
}
