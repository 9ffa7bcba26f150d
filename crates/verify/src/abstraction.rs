//! Small-memory abstraction ("standard small memory modeling", §V.B.3).
//!
//! Shrinking a memory's address width on *both* the ILA and RTL sides
//! consistently reproduces the paper's ablation: the 8051 datapath's
//! 256-byte internal RAM verified as a 16-byte memory (176 s -> 9.5 s in
//! the paper) and the store buffer's 64-byte array as 16 bytes
//! (78 s -> 1.3 s). Addresses are truncated to the new width, so the
//! abstraction preserves all address-independent behaviour.
//!
//! Here the abstraction no longer changes the cost of a proof:
//! `gila-smt` encodes memories at word level, so a proof pays for the
//! memory's reads, not its size. The transform stays as the paper's
//! ablation.

use std::collections::HashMap;
use std::fmt;

use gila_core::PortIla;
use gila_expr::{BitVecValue, ExprCtx, ExprNode, ExprRef, MemValue, Op, Sort, Value};
use gila_rtl::RtlModule;

/// An error applying the memory abstraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbstractError {
    /// No state/memory with that name exists.
    UnknownMemory {
        /// The requested name.
        name: String,
    },
    /// The named state is not a memory.
    NotAMemory {
        /// The requested name.
        name: String,
    },
    /// The new address width is not smaller than the old one.
    NotSmaller {
        /// Old address width.
        old: u32,
        /// Requested address width.
        new: u32,
    },
}

impl fmt::Display for AbstractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstractError::UnknownMemory { name } => write!(f, "no memory named {name:?}"),
            AbstractError::NotAMemory { name } => write!(f, "{name:?} is not a memory"),
            AbstractError::NotSmaller { old, new } => {
                write!(f, "new address width {new} is not smaller than {old}")
            }
        }
    }
}

impl std::error::Error for AbstractError {}

fn shrink_mem_value(m: &MemValue, new_aw: u32) -> MemValue {
    let mut out = MemValue::filled(new_aw, m.data_width(), m.default_word().clone());
    for (addr, word) in m.iter_written() {
        if addr < (1u64 << new_aw) {
            out = out.write(&BitVecValue::from_u64(addr, new_aw), word);
        }
    }
    out
}

/// Rebuilds `root` from `src` into `dst`, shrinking the variable named
/// `mem_name` to the new address width and truncating all addresses used
/// to read/write any memory whose width shrank.
fn rewrite(
    dst: &mut ExprCtx,
    src: &ExprCtx,
    root: ExprRef,
    mem_name: &str,
    new_aw: u32,
    memo: &mut HashMap<ExprRef, ExprRef>,
) -> ExprRef {
    let order = src.post_order(&[root]);
    for e in order {
        if memo.contains_key(&e) {
            continue;
        }
        let out = match src.node(e) {
            ExprNode::BoolConst(b) => dst.bool_const(*b),
            ExprNode::BvConst(v) => dst.bv(v.clone()),
            ExprNode::MemConst(m) => dst.mem_const(m.clone()),
            ExprNode::Var { name, sort } => {
                if name == mem_name {
                    let Sort::Mem { data_width, .. } = sort else {
                        unreachable!("checked by callers");
                    };
                    dst.var(
                        name.clone(),
                        Sort::Mem {
                            addr_width: new_aw,
                            data_width: *data_width,
                        },
                    )
                } else {
                    dst.var(name.clone(), *sort)
                }
            }
            ExprNode::App { op, args, .. } => {
                let new_args: Vec<ExprRef> = args.iter().map(|a| memo[a]).collect();
                match op {
                    Op::MemRead | Op::MemWrite => {
                        // Truncate the address if the memory shrank.
                        let Sort::Mem { addr_width, .. } = dst.sort_of(new_args[0]) else {
                            panic!("first MemRead/MemWrite argument must be a memory");
                        };
                        let mut new_args = new_args;
                        let aw = dst
                            .sort_of(new_args[1])
                            .bv_width()
                            .expect("addresses are bit-vectors");
                        if aw > addr_width {
                            new_args[1] = dst.extract(new_args[1], addr_width - 1, 0);
                        }
                        dst.app(*op, new_args)
                    }
                    _ => dst.app(*op, new_args),
                }
            }
        };
        memo.insert(e, out);
    }
    memo[&root]
}

/// Returns a copy of `port` with the memory-sorted state `mem_state`
/// shrunk to `new_addr_width` address bits.
///
/// # Errors
///
/// See [`AbstractError`].
pub fn abstract_port_memory(
    port: &PortIla,
    mem_state: &str,
    new_addr_width: u32,
) -> Result<PortIla, AbstractError> {
    let sv = port
        .find_state(mem_state)
        .ok_or_else(|| AbstractError::UnknownMemory {
            name: mem_state.to_string(),
        })?;
    let Sort::Mem { addr_width, .. } = sv.sort else {
        return Err(AbstractError::NotAMemory {
            name: mem_state.to_string(),
        });
    };
    if new_addr_width >= addr_width {
        return Err(AbstractError::NotSmaller {
            old: addr_width,
            new: new_addr_width,
        });
    }
    let mut out = PortIla::new(port.name());
    for i in port.inputs() {
        out.input(i.name.clone(), i.sort);
    }
    for s in port.states() {
        let sort = if s.name == mem_state {
            let Sort::Mem { data_width, .. } = s.sort else {
                unreachable!()
            };
            Sort::Mem {
                addr_width: new_addr_width,
                data_width,
            }
        } else {
            s.sort
        };
        out.state(s.name.clone(), sort, s.kind);
        if let Some(init) = &s.init {
            let init = match init {
                Value::Mem(m) if s.name == mem_state => {
                    Value::Mem(shrink_mem_value(m, new_addr_width))
                }
                other => other.clone(),
            };
            out.set_init(&s.name, init).expect("sorts consistent");
        }
    }
    let mut memo = HashMap::new();
    for instr in port.instructions() {
        let decode = rewrite(
            out.ctx_mut(),
            port.ctx(),
            instr.decode,
            mem_state,
            new_addr_width,
            &mut memo,
        );
        let rewritten: Vec<(String, ExprRef)> = instr
            .updates
            .iter()
            .map(|(sname, &u)| {
                let e = rewrite(out.ctx_mut(), port.ctx(), u, mem_state, new_addr_width, &mut memo);
                (sname.clone(), e)
            })
            .collect();
        let mut b = match &instr.parent {
            Some(p) => out.sub_instr(instr.name.clone(), p.clone()),
            None => out.instr(instr.name.clone()),
        };
        b = b.decode(decode);
        for (sname, e) in rewritten {
            b = b.update(sname, e);
        }
        b.add().expect("rewritten model stays well-formed");
    }
    Ok(out)
}

/// Returns a copy of `rtl` with the memory `mem_name` shrunk to
/// `new_addr_width` address bits.
///
/// # Errors
///
/// See [`AbstractError`].
pub fn abstract_rtl_memory(
    rtl: &RtlModule,
    mem_name: &str,
    new_addr_width: u32,
) -> Result<RtlModule, AbstractError> {
    let mm = rtl
        .find_mem(mem_name)
        .ok_or_else(|| AbstractError::UnknownMemory {
            name: mem_name.to_string(),
        })?;
    if new_addr_width >= mm.addr_width {
        return Err(AbstractError::NotSmaller {
            old: mm.addr_width,
            new: new_addr_width,
        });
    }
    let mut out = RtlModule::new(rtl.name());
    if let Some(loc) = rtl.source_loc() {
        out.set_source_loc(loc);
    }
    for i in rtl.inputs() {
        out.input(i.name.clone(), i.width);
    }
    for r in rtl.regs() {
        out.reg(r.name.clone(), r.width, None);
        if let Some(init) = &r.init {
            out.set_init(&r.name, init.clone()).expect("same width");
        }
    }
    for m in rtl.mems() {
        let aw = if m.name == mem_name {
            new_addr_width
        } else {
            m.addr_width
        };
        out.mem(m.name.clone(), aw, m.data_width);
    }
    let mut memo = HashMap::new();
    for r in rtl.regs() {
        let next = rewrite(out.ctx_mut(), rtl.ctx(), r.next, mem_name, new_addr_width, &mut memo);
        out.set_next(&r.name, next).expect("width unchanged");
    }
    for m in rtl.mems() {
        let next = rewrite(out.ctx_mut(), rtl.ctx(), m.next, mem_name, new_addr_width, &mut memo);
        out.set_next(&m.name, next).expect("sort consistent");
    }
    for s in rtl.signals() {
        let e = rewrite(out.ctx_mut(), rtl.ctx(), s.expr, mem_name, new_addr_width, &mut memo);
        out.signal(s.name.clone(), e, s.output)
            .expect("names already unique");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{verify_port, VerifyOptions};
    use crate::refmap::RefinementMap;
    use gila_core::StateKind;
    use gila_rtl::parse_verilog;

    /// Small scratchpad: write then read back, ILA and RTL.
    fn scratch_ila(addr_width: u32) -> PortIla {
        let mut p = PortIla::new("scratch");
        let we = p.input("we", Sort::Bv(1));
        let addr = p.input("addr", Sort::Bv(8));
        let din = p.input("din", Sort::Bv(8));
        let mem = p.state(
            "mem",
            Sort::Mem {
                addr_width,
                data_width: 8,
            },
            StateKind::Internal,
        );
        let dout = p.state("dout", Sort::Bv(8), StateKind::Output);
        let _ = dout;
        let a = if addr_width == 8 {
            addr
        } else {
            p.ctx_mut().extract(addr, addr_width - 1, 0)
        };
        let d = p.ctx_mut().eq_u64(we, 1);
        let w = p.ctx_mut().mem_write(mem, a, din);
        p.instr("write").decode(d).update("mem", w).add().unwrap();
        let d = p.ctx_mut().eq_u64(we, 0);
        let r = p.ctx_mut().mem_read(mem, a);
        p.instr("read").decode(d).update("dout", r).add().unwrap();
        p
    }

    fn scratch_rtl() -> RtlModule {
        parse_verilog(
            r#"
module scratch(clk, we, addr, din);
  input clk;
  input we;
  input [7:0] addr;
  input [7:0] din;
  reg [7:0] mem_r [0:255];
  reg [7:0] dout_r;
  always @(posedge clk) begin
    if (we) mem_r[addr] <= din;
    else dout_r <= mem_r[addr];
  end
endmodule
"#,
        )
        .unwrap()
    }

    fn scratch_map() -> RefinementMap {
        let mut m = RefinementMap::new("scratch");
        m.map_state("mem", "mem_r");
        m.map_state("dout", "dout_r");
        m.map_input("we", "we");
        m.map_input("addr", "addr");
        m.map_input("din", "din");
        m
    }

    #[test]
    fn abstraction_preserves_verification_outcome() {
        // Full-size check.
        let port = scratch_ila(8);
        let rtl = scratch_rtl();
        let report = verify_port(&port, &rtl, &scratch_map(), &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
        let full_stats = report.peak_stats;

        // Abstracted check: 16 words instead of 256.
        let a_port = abstract_port_memory(&port, "mem", 4).unwrap();
        let a_rtl = abstract_rtl_memory(&rtl, "mem_r", 4).unwrap();
        let report =
            verify_port(&a_port, &a_rtl, &scratch_map(), &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
        // Memories are encoded per read, not per word, so the full-size
        // CNF stays within a small factor of the abstracted one.
        assert!(
            full_stats.clauses <= 2 * report.peak_stats.clauses,
            "full {} vs abstracted {} clauses",
            full_stats.clauses,
            report.peak_stats.clauses
        );
    }

    #[test]
    fn abstraction_still_catches_bugs() {
        let port = scratch_ila(8);
        // Inject a data corruption bug: write din+1.
        let rtl = parse_verilog(
            r#"
module scratch(clk, we, addr, din);
  input clk;
  input we;
  input [7:0] addr;
  input [7:0] din;
  reg [7:0] mem_r [0:255];
  reg [7:0] dout_r;
  always @(posedge clk) begin
    if (we) mem_r[addr] <= din + 8'd1;
    else dout_r <= mem_r[addr];
  end
endmodule
"#,
        )
        .unwrap();
        let a_port = abstract_port_memory(&port, "mem", 4).unwrap();
        let a_rtl = abstract_rtl_memory(&rtl, "mem_r", 4).unwrap();
        let report =
            verify_port(&a_port, &a_rtl, &scratch_map(), &VerifyOptions::default()).unwrap();
        assert!(!report.all_hold());
    }

    #[test]
    fn errors() {
        let port = scratch_ila(8);
        assert!(matches!(
            abstract_port_memory(&port, "ghost", 4).unwrap_err(),
            AbstractError::UnknownMemory { .. }
        ));
        assert!(matches!(
            abstract_port_memory(&port, "dout", 4).unwrap_err(),
            AbstractError::NotAMemory { .. }
        ));
        assert!(matches!(
            abstract_port_memory(&port, "mem", 8).unwrap_err(),
            AbstractError::NotSmaller { .. }
        ));
        let rtl = scratch_rtl();
        assert!(abstract_rtl_memory(&rtl, "ghost", 4).is_err());
        assert!(abstract_rtl_memory(&rtl, "mem_r", 9).is_err());
    }

    #[test]
    fn shrink_mem_value_keeps_low_addresses() {
        let m = MemValue::zeroed(8, 8)
            .write(&BitVecValue::from_u64(3, 8), &BitVecValue::from_u64(7, 8))
            .write(&BitVecValue::from_u64(200, 8), &BitVecValue::from_u64(9, 8));
        let s = shrink_mem_value(&m, 4);
        assert_eq!(s.read(&BitVecValue::from_u64(3, 4)).to_u64(), 7);
        // address 200 dropped
        assert_eq!(s.read(&BitVecValue::from_u64(8, 4)).to_u64(), 0);
    }
}
