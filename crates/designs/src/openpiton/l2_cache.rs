//! The OpenPiton L2 cache (paper §V.B.4): dual parallel pipelines
//! modeled as two independent ILA ports.
//!
//! * **PIPE1-port** handles load/store misses arriving from the L1.5
//!   cache (2 instructions). Its miss-status logic runs through a
//!   three-deep pipeline-flag chain; the outgoing NoC message header
//!   must use `msg_flag_3`. The documented bug — a typo in the informal
//!   specification — uses `msg_flag_2` instead (counterexample found in
//!   0.7 s in the paper).
//! * **PIPE2-port** handles all six NoC message types (6 instructions)
//!   against a small directory + data-array state.
//!
//! This is a functionally reduced re-implementation of the >10k-LoC
//! OpenPiton module: same port structure, same instruction inventory,
//! same bug mechanism (see DESIGN.md's substitution table).

use gila_core::{ModuleIla, PortIla, StateKind};
use gila_expr::{ExprRef, Sort};
use gila_rtl::{parse_verilog, RtlModule};
use gila_verify::RefinementMap;

use crate::registry::CaseStudy;

/// Builds the PIPE1-port-ILA (L1.5-side misses).
pub fn pipe1_port() -> PortIla {
    let mut p = PortIla::new("PIPE1-PORT");
    let valid = p.input("p1_valid", Sort::Bv(1));
    let ty = p.input("p1_type", Sort::Bv(1));
    let addr = p.input("p1_addr", Sort::Bv(16));
    let data = p.input("p1_data", Sort::Bv(16));
    let _ = valid;
    p.state("mshr_addr", Sort::Bv(16), StateKind::Internal);
    p.state("mshr_data", Sort::Bv(16), StateKind::Internal);
    let flag1 = p.state("msg_flag_1", Sort::Bv(1), StateKind::Internal);
    let flag2 = p.state("msg_flag_2", Sort::Bv(1), StateKind::Internal);
    let flag3 = p.state("msg_flag_3", Sort::Bv(1), StateKind::Internal);
    let _ = flag3;
    p.state("msg_out", Sort::Bv(18), StateKind::Output);

    // The outgoing message header: { msg_flag_3, type, addr }. The
    // informal document's typo said msg_flag_2; the (corrected) ILA uses
    // msg_flag_3.
    let miss = |p: &mut PortIla, name: &str, type_bit: u64, with_data: bool| {
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let tsel = ctx.eq_u64(ty, type_bit);
        let d = ctx.and(v1, tsel);
        let one1 = ctx.bv_u64(1, 1);
        let tb = ctx.bv_u64(type_bit, 1);
        let f3 = ctx.find_var("msg_flag_3").expect("declared");
        let hdr2 = ctx.concat(f3, tb);
        let msg: ExprRef = ctx.concat(hdr2, addr);
        let mut b = p
            .instr(name)
            .decode(d)
            .update("mshr_addr", addr)
            .update("msg_flag_1", one1)
            .update("msg_flag_2", flag1)
            .update("msg_flag_3", flag2)
            .update("msg_out", msg);
        if with_data {
            b = b.update("mshr_data", data);
        }
        b.add().expect("valid model");
    };
    miss(&mut p, "LOAD_MISS", 0, false);
    miss(&mut p, "STORE_MISS", 1, true);
    p
}

/// Builds the PIPE2-port-ILA (NoC-side messages).
pub fn pipe2_port() -> PortIla {
    let mut p = PortIla::new("PIPE2-PORT");
    let valid = p.input("p2_valid", Sort::Bv(1));
    let mtype = p.input("p2_type", Sort::Bv(3));
    let maddr = p.input("p2_addr", Sort::Bv(16));
    let mdata = p.input("p2_data", Sort::Bv(16));
    let msrc = p.input("p2_src", Sort::Bv(3));
    let dir_state = p.state("dir_state", Sort::Bv(2), StateKind::Internal);
    let _ = dir_state;
    p.state("owner", Sort::Bv(3), StateKind::Internal);
    let dbuf = p.state("dbuf", Sort::Bv(16), StateKind::Internal);
    let darray = p.state(
        "darray",
        Sort::Mem {
            addr_width: 4,
            data_width: 16,
        },
        StateKind::Internal,
    );
    p.state("resp_out", Sort::Bv(16), StateKind::Output);
    p.state("resp_valid", Sort::Bv(1), StateKind::Output);

    let line = |p: &mut PortIla| {
        let ctx = p.ctx_mut();
        
        ctx.extract(maddr, 3, 0)
    };

    // REQ_RD: read the data array, mark shared, record the requester.
    {
        let a = line(&mut p);
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let t = ctx.eq_u64(mtype, 0);
        let d = ctx.and(v1, t);
        let rd = ctx.mem_read(darray, a);
        let one2 = ctx.bv_u64(1, 2);
        let one1 = ctx.bv_u64(1, 1);
        p.instr("REQ_RD")
            .decode(d)
            .update("resp_out", rd)
            .update("resp_valid", one1)
            .update("dir_state", one2)
            .update("owner", msrc)
            .add()
            .expect("valid model");
    }
    // REQ_WR: write the data array, mark modified.
    {
        let a = line(&mut p);
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let t = ctx.eq_u64(mtype, 1);
        let d = ctx.and(v1, t);
        let wr = ctx.mem_write(darray, a, mdata);
        let two2 = ctx.bv_u64(2, 2);
        let one1 = ctx.bv_u64(1, 1);
        p.instr("REQ_WR")
            .decode(d)
            .update("darray", wr)
            .update("resp_out", mdata)
            .update("resp_valid", one1)
            .update("dir_state", two2)
            .update("owner", msrc)
            .add()
            .expect("valid model");
    }
    // ACK_DT: data acknowledgment; buffer it.
    {
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let t = ctx.eq_u64(mtype, 2);
        let d = ctx.and(v1, t);
        let zero2 = ctx.bv_u64(0, 2);
        let zero1 = ctx.bv_u64(0, 1);
        p.instr("ACK_DT")
            .decode(d)
            .update("dbuf", mdata)
            .update("dir_state", zero2)
            .update("resp_valid", zero1)
            .add()
            .expect("valid model");
    }
    // ACK_INV: invalidation acknowledgment.
    {
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let t = ctx.eq_u64(mtype, 3);
        let d = ctx.and(v1, t);
        let zero2 = ctx.bv_u64(0, 2);
        let zero3 = ctx.bv_u64(0, 3);
        let zero1 = ctx.bv_u64(0, 1);
        p.instr("ACK_INV")
            .decode(d)
            .update("dir_state", zero2)
            .update("owner", zero3)
            .update("resp_valid", zero1)
            .add()
            .expect("valid model");
    }
    // WB_REQ: writeback request; respond with the buffered data.
    {
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let t = ctx.eq_u64(mtype, 4);
        let d = ctx.and(v1, t);
        let one1 = ctx.bv_u64(1, 1);
        p.instr("WB_REQ")
            .decode(d)
            .update("resp_out", dbuf)
            .update("resp_valid", one1)
            .add()
            .expect("valid model");
    }
    // WB_ACK: commit the buffered writeback into the array.
    {
        let a = line(&mut p);
        let ctx = p.ctx_mut();
        let v1 = ctx.eq_u64(valid, 1);
        let t = ctx.eq_u64(mtype, 5);
        let d = ctx.and(v1, t);
        let wr = ctx.mem_write(darray, a, dbuf);
        let zero2 = ctx.bv_u64(0, 2);
        let zero1 = ctx.bv_u64(0, 1);
        p.instr("WB_ACK")
            .decode(d)
            .update("darray", wr)
            .update("dir_state", zero2)
            .update("resp_valid", zero1)
            .add()
            .expect("valid model");
    }
    p
}

/// The L2 cache module-ILA.
pub fn ila() -> ModuleIla {
    ModuleIla::compose("l2_cache", vec![pipe1_port(), pipe2_port()])
        .expect("ports are independent")
}

fn rtl_source(buggy: bool) -> String {
    // The documented typo: which pipeline flag feeds the message header.
    let flag = if buggy { "msg_flag_2" } else { "msg_flag_3" };
    format!(
        r#"
// OpenPiton-style L2 cache: dual parallel pipelines.
module l2_cache(clk,
                p1_valid, p1_type, p1_addr, p1_data,
                p2_valid, p2_type, p2_addr, p2_data, p2_src);
  input clk;
  input p1_valid;
  input p1_type;
  input [15:0] p1_addr;
  input [15:0] p1_data;
  input p2_valid;
  input [2:0] p2_type;
  input [15:0] p2_addr;
  input [15:0] p2_data;
  input [2:0] p2_src;

  // pipe 1: miss handling toward the NoC
  reg [15:0] mshr_addr;
  reg [15:0] mshr_data;
  reg msg_flag_1;
  reg msg_flag_2;
  reg msg_flag_3;
  reg [17:0] msg_out;

  // pipe 2: NoC message handling
  reg [1:0] dir_state;
  reg [2:0] owner;
  reg [15:0] dbuf;
  reg [15:0] darray [0:15];
  reg [15:0] resp_out;
  reg resp_valid;

  always @(posedge clk) begin
    if (p1_valid) begin
      mshr_addr <= p1_addr;
      if (p1_type) mshr_data <= p1_data;
      msg_flag_1 <= 1'b1;
      msg_flag_2 <= msg_flag_1;
      msg_flag_3 <= msg_flag_2;
      msg_out <= {{{flag}, p1_type, p1_addr}};
    end
  end

  always @(posedge clk) begin
    if (p2_valid) begin
      case (p2_type)
        3'd0: begin
          resp_out <= darray[p2_addr[3:0]];
          resp_valid <= 1'b1;
          dir_state <= 2'd1;
          owner <= p2_src;
        end
        3'd1: begin
          darray[p2_addr[3:0]] <= p2_data;
          resp_out <= p2_data;
          resp_valid <= 1'b1;
          dir_state <= 2'd2;
          owner <= p2_src;
        end
        3'd2: begin
          dbuf <= p2_data;
          dir_state <= 2'd0;
          resp_valid <= 1'b0;
        end
        3'd3: begin
          dir_state <= 2'd0;
          owner <= 3'd0;
          resp_valid <= 1'b0;
        end
        3'd4: begin
          resp_out <= dbuf;
          resp_valid <= 1'b1;
        end
        3'd5: begin
          darray[p2_addr[3:0]] <= dbuf;
          dir_state <= 2'd0;
          resp_valid <= 1'b0;
        end
        default: begin
          resp_valid <= resp_valid;
        end
      endcase
    end
  end
endmodule
"#
    )
}

/// The fixed L2 cache RTL.
pub fn rtl() -> RtlModule {
    parse_verilog(&rtl_source(false)).expect("l2 cache RTL is valid")
}

/// The bug-injected L2 cache RTL (`msg_flag_2` where `msg_flag_3` is
/// needed).
pub fn buggy_rtl() -> RtlModule {
    parse_verilog(&rtl_source(true)).expect("buggy l2 cache RTL is valid")
}

/// Refinement maps for both pipelines.
pub fn refinement_maps() -> Vec<RefinementMap> {
    let mut p1 = RefinementMap::new("PIPE1-PORT");
    p1.map_state("mshr_addr", "mshr_addr");
    p1.map_state("mshr_data", "mshr_data");
    p1.map_state("msg_flag_1", "msg_flag_1");
    p1.map_state("msg_flag_2", "msg_flag_2");
    p1.map_state("msg_flag_3", "msg_flag_3");
    p1.map_state("msg_out", "msg_out");
    p1.map_input("p1_valid", "p1_valid");
    p1.map_input("p1_type", "p1_type");
    p1.map_input("p1_addr", "p1_addr");
    p1.map_input("p1_data", "p1_data");

    let mut p2 = RefinementMap::new("PIPE2-PORT");
    p2.map_state("dir_state", "dir_state");
    p2.map_state("owner", "owner");
    p2.map_state("dbuf", "dbuf");
    p2.map_state("darray", "darray");
    p2.map_state("resp_out", "resp_out");
    p2.map_state("resp_valid", "resp_valid");
    p2.map_input("p2_valid", "p2_valid");
    p2.map_input("p2_type", "p2_type");
    p2.map_input("p2_addr", "p2_addr");
    p2.map_input("p2_data", "p2_data");
    p2.map_input("p2_src", "p2_src");
    vec![p1, p2]
}

/// The assembled case study.
pub fn case_study() -> CaseStudy {
    CaseStudy {
        name: "L2 Cache",
        ila: ila(),
        rtl: rtl(),
        refmaps: refinement_maps(),
        buggy_rtl: Some(buggy_rtl()),
        ports_before_integration: 2,
        ports_after_integration: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::decode_gap;
    use gila_verify::{verify_module, CheckResult, VerifyOptions};

    #[test]
    fn eight_atomic_instructions() {
        let m = ila();
        assert_eq!(m.stats().instructions, 8);
    }

    #[test]
    fn pipe_decodes_cover_their_command_spaces() {
        // The pipes only define instructions for valid commands; under
        // the "a command is present" scoping assumption the decodes are
        // complete.
        let p1 = pipe1_port();
        let mut ctx = p1.ctx().clone();
        let v = ctx.find_var("p1_valid").unwrap();
        let scope = ctx.eq_u64(v, 1);
        let _ = scope;
        // (decode_gap clones the ctx internally; rebuild the scope there)
        let p1v = p1.ctx().find_var("p1_valid").unwrap();
        let mut p1c = p1.clone();
        let scope = p1c.ctx_mut().eq_u64(p1v, 1);
        assert!(decode_gap(&p1c, Some(scope)).is_none());
        // Without the scope, the idle command is (correctly) uncovered.
        assert!(decode_gap(&p1, None).is_some());

        let p2 = pipe2_port();
        let mut p2c = p2.clone();
        let v = p2c.ctx().find_var("p2_valid").unwrap();
        let t = p2c.ctx().find_var("p2_type").unwrap();
        let v1 = p2c.ctx_mut().eq_u64(v, 1);
        let six = p2c.ctx_mut().bv_u64(6, 3);
        let tlt = p2c.ctx_mut().ult(t, six);
        let scope = p2c.ctx_mut().and(v1, tlt);
        assert!(decode_gap(&p2c, Some(scope)).is_none());
    }

    #[test]
    fn verifies_against_rtl() {
        let report = verify_module(&ila(), &rtl(), &refinement_maps(), &VerifyOptions::default())
            .expect("well-formed");
        assert!(report.all_hold(), "{report:#?}");
        assert_eq!(report.instructions_checked(), 8);
    }

    #[test]
    fn flag_typo_found_in_pipe1() {
        let report = verify_module(
            &ila(),
            &buggy_rtl(),
            &refinement_maps(),
            &VerifyOptions::default(),
        )
        .expect("well-formed");
        assert!(!report.all_hold());
        let p1 = &report.ports[0];
        let v = p1.first_counterexample().expect("bug in PIPE1");
        let CheckResult::CounterExample(cex) = &v.result else {
            panic!()
        };
        assert_eq!(cex.mismatched_states, vec!["msg_out".to_string()]);
        // The witness separates the two flags.
        assert_ne!(
            cex.rtl_start_state["msg_flag_2"],
            cex.rtl_start_state["msg_flag_3"]
        );
        // PIPE2 is unaffected.
        assert!(report.ports[1].all_hold());
    }
}
