//! The 8051 datapath (paper §V.B.3): two independent ports.
//!
//! The ALU-port models 16 computation instructions (add, sub, logic,
//! rotates, multiply, divide, ...) updating the accumulator and the
//! carry/zero flags. The data-port accesses the 256-byte internal RAM
//! and a special-function register. In the paper the RAM dominated
//! verification time, which is why its small-memory abstraction
//! mattered here (176 s -> 9.5 s with a 16-byte abstraction). With
//! word-level memories in `gila-smt` the full-size RAM proves in
//! milliseconds, about as fast as the abstraction.

use gila_core::{ModuleIla, PortIla, StateKind};
use gila_expr::{ExprCtx, ExprRef, Sort};
use gila_rtl::{parse_verilog, RtlModule};
use gila_verify::{abstract_port_memory, abstract_rtl_memory, RefinementMap};

use crate::registry::CaseStudy;

/// ALU operation encodings, ordered by the 4-bit opcode.
pub const ALU_OPS: [&str; 16] = [
    "ADD", "ADDC", "SUB", "SUBB", "INC", "DEC", "MUL", "DIV", "ANL", "ORL", "XRL", "CLR", "CPL",
    "RL", "RR", "MOV",
];

/// Computes `(result, carry_next)` for one ALU op over 8-bit operands.
fn alu_semantics(
    ctx: &mut ExprCtx,
    op: u64,
    acc: ExprRef,
    b: ExprRef,
    carry: ExprRef,
) -> (ExprRef, ExprRef) {
    let acc9 = ctx.zext(acc, 9);
    let b9 = ctx.zext(b, 9);
    let carry9 = ctx.zext(carry, 9);
    match op {
        0 => {
            // ADD
            let sum = ctx.bvadd(acc9, b9);
            (ctx.extract(sum, 7, 0), ctx.extract(sum, 8, 8))
        }
        1 => {
            // ADDC
            let s0 = ctx.bvadd(acc9, b9);
            let sum = ctx.bvadd(s0, carry9);
            (ctx.extract(sum, 7, 0), ctx.extract(sum, 8, 8))
        }
        2 => {
            // SUB: borrow out in carry
            let diff = ctx.bvsub(acc9, b9);
            (ctx.extract(diff, 7, 0), ctx.extract(diff, 8, 8))
        }
        3 => {
            // SUBB
            let d0 = ctx.bvsub(acc9, b9);
            let diff = ctx.bvsub(d0, carry9);
            (ctx.extract(diff, 7, 0), ctx.extract(diff, 8, 8))
        }
        4 => {
            // INC (carry unchanged)
            let one = ctx.bv_u64(1, 8);
            (ctx.bvadd(acc, one), carry)
        }
        5 => {
            // DEC (carry unchanged)
            let one = ctx.bv_u64(1, 8);
            (ctx.bvsub(acc, one), carry)
        }
        6 => {
            // MUL: low byte of the product, carry cleared
            let zero1 = ctx.bv_u64(0, 1);
            (ctx.bvmul(acc, b), zero1)
        }
        7 => {
            // DIV: unsigned quotient, carry cleared
            let zero1 = ctx.bv_u64(0, 1);
            (ctx.bvudiv(acc, b), zero1)
        }
        8 => (ctx.bvand(acc, b), carry),  // ANL
        9 => (ctx.bvor(acc, b), carry),   // ORL
        10 => (ctx.bvxor(acc, b), carry), // XRL
        11 => {
            // CLR
            let zero8 = ctx.bv_u64(0, 8);
            let zero1 = ctx.bv_u64(0, 1);
            (zero8, zero1)
        }
        12 => (ctx.bvnot(acc), carry), // CPL
        13 => {
            // RL: rotate left through bit 7 -> carry
            let low = ctx.extract(acc, 6, 0);
            let top = ctx.extract(acc, 7, 7);
            (ctx.concat(low, top), top)
        }
        14 => {
            // RR: rotate right through bit 0 -> carry
            let high = ctx.extract(acc, 7, 1);
            let bottom = ctx.extract(acc, 0, 0);
            (ctx.concat(bottom, high), bottom)
        }
        15 => (b, carry), // MOV
        _ => unreachable!("4-bit opcode"),
    }
}

/// Builds the ALU-port-ILA: one instruction per 4-bit opcode.
pub fn alu_port() -> PortIla {
    let mut p = PortIla::new("ALU-PORT");
    let op_in = p.input("alu_op_in", Sort::Bv(4));
    let b_in = p.input("alu_b", Sort::Bv(8));
    let acc = p.state("acc", Sort::Bv(8), StateKind::Output);
    let carry = p.state("carry", Sort::Bv(1), StateKind::Output);
    p.state("zero", Sort::Bv(1), StateKind::Output);
    for (opcode, name) in ALU_OPS.iter().enumerate() {
        let ctx = p.ctx_mut();
        let d = ctx.eq_u64(op_in, opcode as u64);
        let (result, carry_next) = alu_semantics(ctx, opcode as u64, acc, b_in, carry);
        let is_zero = ctx.eq_u64(result, 0);
        let zero_next = ctx.bool_to_bv(is_zero);
        p.instr(*name)
            .decode(d)
            .update("acc", result)
            .update("carry", carry_next)
            .update("zero", zero_next)
            .add()
            .expect("valid model");
    }
    p
}

/// Builds the data-port-ILA: internal RAM and SFR access.
pub fn data_port() -> PortIla {
    let mut p = PortIla::new("DATA-PORT");
    let cmd = p.input("data_cmd", Sort::Bv(2));
    let addr = p.input("data_addr", Sort::Bv(8));
    let wdata = p.input("data_wdata", Sort::Bv(8));
    let iram = p.state(
        "iram",
        Sort::Mem {
            addr_width: 8,
            data_width: 8,
        },
        StateKind::Internal,
    );
    let sfr = p.state("sfr", Sort::Bv(8), StateKind::Internal);
    p.state("data_out", Sort::Bv(8), StateKind::Output);

    // RAM_WRITE.
    {
        let ctx = p.ctx_mut();
        let d = ctx.eq_u64(cmd, 0);
        let w = ctx.mem_write(iram, addr, wdata);
        p.instr("RAM_WRITE")
            .decode(d)
            .update("iram", w)
            .add()
            .expect("valid model");
    }
    // RAM_READ.
    {
        let ctx = p.ctx_mut();
        let d = ctx.eq_u64(cmd, 1);
        let r = ctx.mem_read(iram, addr);
        p.instr("RAM_READ")
            .decode(d)
            .update("data_out", r)
            .add()
            .expect("valid model");
    }
    // SFR_WRITE.
    {
        let ctx = p.ctx_mut();
        let d = ctx.eq_u64(cmd, 2);
        p.instr("SFR_WRITE")
            .decode(d)
            .update("sfr", wdata)
            .add()
            .expect("valid model");
    }
    // SFR_READ.
    {
        let ctx = p.ctx_mut();
        let d = ctx.eq_u64(cmd, 3);
        p.instr("SFR_READ")
            .decode(d)
            .update("data_out", sfr)
            .add()
            .expect("valid model");
    }
    p
}

/// The datapath module-ILA.
pub fn ila() -> ModuleIla {
    ModuleIla::compose("datapath", vec![alu_port(), data_port()])
        .expect("ports are independent")
}

/// The datapath module-ILA with the internal RAM abstracted to 16 bytes
/// (the paper's "standard small memory modeling").
pub fn ila_abstracted() -> ModuleIla {
    let alu = alu_port();
    let data = abstract_port_memory(&data_port(), "iram", 4).expect("iram is a memory");
    ModuleIla::compose("datapath", vec![alu, data]).expect("ports are independent")
}

/// The datapath RTL.
pub const RTL_SOURCE: &str = r#"
// i8051 datapath: ALU + internal RAM / SFR access.
module datapath(clk, alu_op_in, alu_b, data_cmd, data_addr, data_wdata);
  input clk;
  input [3:0] alu_op_in;
  input [7:0] alu_b;
  input [1:0] data_cmd;
  input [7:0] data_addr;
  input [7:0] data_wdata;

  reg [7:0] acc;
  reg carry;
  reg zero;

  reg [7:0] iram [0:255];
  reg [7:0] sfr;
  reg [7:0] data_out_r;

  // 9-bit intermediates expose the carry/borrow.
  wire [8:0] add_s = {1'b0, acc} + {1'b0, alu_b};
  wire [8:0] addc_s = {1'b0, acc} + {1'b0, alu_b} + {8'b0, carry};
  wire [8:0] sub_s = {1'b0, acc} - {1'b0, alu_b};
  wire [8:0] subb_s = {1'b0, acc} - {1'b0, alu_b} - {8'b0, carry};

  wire [7:0] alu_r =
      (alu_op_in == 4'd0) ? add_s[7:0] :
      (alu_op_in == 4'd1) ? addc_s[7:0] :
      (alu_op_in == 4'd2) ? sub_s[7:0] :
      (alu_op_in == 4'd3) ? subb_s[7:0] :
      (alu_op_in == 4'd4) ? acc + 8'd1 :
      (alu_op_in == 4'd5) ? acc - 8'd1 :
      (alu_op_in == 4'd6) ? acc * alu_b :
      (alu_op_in == 4'd7) ? acc / alu_b :
      (alu_op_in == 4'd8) ? (acc & alu_b) :
      (alu_op_in == 4'd9) ? (acc | alu_b) :
      (alu_op_in == 4'd10) ? (acc ^ alu_b) :
      (alu_op_in == 4'd11) ? 8'd0 :
      (alu_op_in == 4'd12) ? ~acc :
      (alu_op_in == 4'd13) ? {acc[6:0], acc[7]} :
      (alu_op_in == 4'd14) ? {acc[0], acc[7:1]} :
      alu_b;

  wire carry_r =
      (alu_op_in == 4'd0) ? add_s[8] :
      (alu_op_in == 4'd1) ? addc_s[8] :
      (alu_op_in == 4'd2) ? sub_s[8] :
      (alu_op_in == 4'd3) ? subb_s[8] :
      (alu_op_in == 4'd6) ? 1'b0 :
      (alu_op_in == 4'd7) ? 1'b0 :
      (alu_op_in == 4'd11) ? 1'b0 :
      (alu_op_in == 4'd13) ? acc[7] :
      (alu_op_in == 4'd14) ? acc[0] :
      carry;

  always @(posedge clk) begin
    acc <= alu_r;
    carry <= carry_r;
    zero <= (alu_r == 8'd0);
  end

  always @(posedge clk) begin
    case (data_cmd)
      2'd0: iram[data_addr] <= data_wdata;
      2'd1: data_out_r <= iram[data_addr];
      2'd2: sfr <= data_wdata;
      default: data_out_r <= sfr;
    endcase
  end
endmodule
"#;

/// Parses the datapath RTL (full 256-byte RAM).
pub fn rtl() -> RtlModule {
    parse_verilog(RTL_SOURCE).expect("datapath RTL is valid")
}

/// The datapath RTL with the RAM abstracted to 16 bytes.
pub fn rtl_abstracted() -> RtlModule {
    abstract_rtl_memory(&rtl(), "iram", 4).expect("iram is a memory")
}

/// Refinement maps for both ports.
pub fn refinement_maps() -> Vec<RefinementMap> {
    let mut alu = RefinementMap::new("ALU-PORT");
    alu.map_state("acc", "acc");
    alu.map_state("carry", "carry");
    alu.map_state("zero", "zero");
    alu.map_input("alu_op_in", "alu_op_in");
    alu.map_input("alu_b", "alu_b");

    let mut data = RefinementMap::new("DATA-PORT");
    data.map_state("iram", "iram");
    data.map_state("sfr", "sfr");
    data.map_state("data_out", "data_out_r");
    data.map_input("data_cmd", "data_cmd");
    data.map_input("data_addr", "data_addr");
    data.map_input("data_wdata", "data_wdata");
    vec![alu, data]
}

/// The assembled case study (full-size RAM; no documented bug).
pub fn case_study() -> CaseStudy {
    CaseStudy {
        name: "Datapath",
        ila: ila(),
        rtl: rtl(),
        refmaps: refinement_maps(),
        buggy_rtl: None,
        ports_before_integration: 2,
        ports_after_integration: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::{decode_gap, decode_overlaps, PortSimulator};
    use gila_expr::{BitVecValue, Value};
    use gila_verify::{verify_module, VerifyOptions};

    #[test]
    fn twenty_atomic_instructions() {
        let m = ila();
        assert_eq!(m.stats().instructions, 20);
        // 256-byte RAM dominates the arch state bits.
        assert!(m.stats().arch_state_bits > 2048);
    }

    #[test]
    fn decodes_are_well_formed() {
        for p in [alu_port(), data_port()] {
            assert!(decode_gap(&p, None).is_none(), "{} incomplete", p.name());
            assert!(
                decode_overlaps(&p, None).is_empty(),
                "{} nondeterministic",
                p.name()
            );
        }
    }

    #[test]
    fn alu_simulation_spot_checks() {
        let p = alu_port();
        let mut sim = PortSimulator::new(&p);
        let mut ins = std::collections::BTreeMap::new();
        let set = |ins: &mut std::collections::BTreeMap<String, Value>, op: u64, b: u64| {
            ins.insert("alu_op_in".into(), Value::Bv(BitVecValue::from_u64(op, 4)));
            ins.insert("alu_b".into(), Value::Bv(BitVecValue::from_u64(b, 8)));
        };
        // MOV 200 -> acc
        set(&mut ins, 15, 200);
        assert_eq!(sim.step(&ins).unwrap(), "MOV");
        assert_eq!(sim.state()["acc"].as_bv().to_u64(), 200);
        // ADD 100: wraps, sets carry
        set(&mut ins, 0, 100);
        assert_eq!(sim.step(&ins).unwrap(), "ADD");
        assert_eq!(sim.state()["acc"].as_bv().to_u64(), 44);
        assert_eq!(sim.state()["carry"].as_bv().to_u64(), 1);
        // ADDC adds the carry back in
        set(&mut ins, 1, 0);
        sim.step(&ins).unwrap();
        assert_eq!(sim.state()["acc"].as_bv().to_u64(), 45);
        // DIV by zero: SMT-LIB semantics, all-ones
        set(&mut ins, 7, 0);
        sim.step(&ins).unwrap();
        assert_eq!(sim.state()["acc"].as_bv().to_u64(), 0xFF);
        // CLR zeroes and sets the zero flag
        set(&mut ins, 11, 0);
        sim.step(&ins).unwrap();
        assert_eq!(sim.state()["acc"].as_bv().to_u64(), 0);
        assert_eq!(sim.state()["zero"].as_bv().to_u64(), 1);
        // RL rotates
        set(&mut ins, 15, 0b1000_0001);
        sim.step(&ins).unwrap();
        set(&mut ins, 13, 0);
        sim.step(&ins).unwrap();
        assert_eq!(sim.state()["acc"].as_bv().to_u64(), 0b0000_0011);
        assert_eq!(sim.state()["carry"].as_bv().to_u64(), 1);
    }

    #[test]
    fn verifies_abstracted() {
        // The 16-byte abstraction (the configuration the paper calls
        // "9.5 s"); the full 256-byte check runs in the benchmark harness.
        let report = verify_module(
            &ila_abstracted(),
            &rtl_abstracted(),
            &refinement_maps(),
            &VerifyOptions::default(),
        )
        .expect("well-formed");
        assert!(report.all_hold(), "{report:#?}");
        assert_eq!(report.instructions_checked(), 20);
    }

    #[test]
    fn alu_port_verifies_fullsize() {
        // The ALU port does not touch the RAM; verify it at full size.
        let report = gila_verify::verify_port(
            &alu_port(),
            &rtl(),
            &refinement_maps()[0],
            &VerifyOptions::default(),
        )
        .expect("well-formed");
        assert!(report.all_hold(), "{report:#?}");
        assert_eq!(report.verdicts.len(), 16);
    }
}
