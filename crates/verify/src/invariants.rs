//! Validation of refinement-map invariants against the RTL.
//!
//! The per-instruction refinement properties assume the user-supplied
//! reachability invariants at the start state. That is sound only if
//! the invariants actually over-approximate the RTL's reachable states;
//! this module closes that gap by proving them with k-induction (or
//! refuting them with a BMC trace from reset).

use gila_mc::{k_induction, InductionOutcome};
use gila_rtl::{parse_rtl_expr, RtlModule};

use crate::engine::{into_ts, VerifyError};

/// Attempts to prove the conjunction of the given Verilog-expression
/// invariants as an inductive invariant of the RTL (from its declared
/// reset values), with induction depth up to `max_k`.
///
/// * `Proved { k }` — the invariants hold in every reachable state;
///   assuming them in refinement checks is sound.
/// * `Violated(cex)` — a reset-reachable state violates them; the
///   refinement results that relied on them are vacuous for that state.
/// * `Unknown` — neither; strengthen the invariants or raise `max_k`.
///
/// # Errors
///
/// Returns [`VerifyError::Verilog`] for malformed condition strings.
///
/// # Examples
///
/// ```
/// use gila_mc::InductionOutcome;
/// use gila_rtl::parse_verilog;
/// use gila_verify::validate_invariants;
///
/// let rtl = parse_verilog(r#"
/// module m(clk, en);
///   input clk; input en;
///   reg [3:0] phase;
///   initial begin phase = 0; end
///   always @(posedge clk) begin
///     if (phase == 4'd2) phase <= 4'd0;
///     else if (en) phase <= phase + 4'd1;
///   end
/// endmodule
/// "#)?;
/// let outcome = validate_invariants(&rtl, &["phase <= 4'd2".to_string()], 2)?;
/// assert!(matches!(outcome, InductionOutcome::Proved { .. }));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn validate_invariants(
    rtl: &RtlModule,
    invariants: &[String],
    max_k: usize,
) -> Result<InductionOutcome, VerifyError> {
    let mut rtl = rtl.clone();
    let mut conjuncts = Vec::new();
    for inv in invariants {
        let e = parse_rtl_expr(&mut rtl, inv)?;
        conjuncts.push(rtl.ctx_mut().bv_to_bool(e));
    }
    let prop = rtl.ctx_mut().and_many(&conjuncts);
    Ok(k_induction(&into_ts(rtl)?, prop, max_k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_rtl::parse_verilog;

    fn phase_machine() -> RtlModule {
        parse_verilog(
            r#"
module m(clk, en);
  input clk; input en;
  reg [3:0] phase;
  initial begin phase = 0; end
  always @(posedge clk) begin
    if (phase == 4'd2) phase <= 4'd0;
    else if (en) phase <= phase + 4'd1;
  end
endmodule
"#,
        )
        .expect("valid")
    }

    #[test]
    fn inductive_invariant_proved() {
        let outcome =
            validate_invariants(&phase_machine(), &["phase <= 4'd2".to_string()], 2).unwrap();
        assert!(matches!(outcome, InductionOutcome::Proved { .. }), "{outcome:?}");
    }

    #[test]
    fn false_invariant_refuted_with_trace() {
        let outcome =
            validate_invariants(&phase_machine(), &["phase <= 4'd1".to_string()], 2).unwrap();
        let InductionOutcome::Violated(cex) = outcome else {
            panic!("expected violation, got {outcome:?}");
        };
        // Reached phase == 2 after two enabled steps.
        assert_eq!(cex.violation_step, 2);
        assert_eq!(
            cex.steps[2].states["phase"].as_bv().to_u64(),
            2
        );
    }

    #[test]
    fn conjunction_of_invariants() {
        let outcome = validate_invariants(
            &phase_machine(),
            &["phase <= 4'd2".to_string(), "phase != 4'd9".to_string()],
            2,
        )
        .unwrap();
        assert!(matches!(outcome, InductionOutcome::Proved { .. }));
    }

    #[test]
    fn bad_expression_is_an_error() {
        assert!(validate_invariants(&phase_machine(), &["ghost == 1".to_string()], 1).is_err());
    }

    #[test]
    fn noc_router_pointer_invariant_is_inductive() {
        // The invariant the NoC router refinement maps assume.
        let rtl = gila_designs_stub();
        let outcome = validate_invariants(&rtl, &["rt_rr <= 3'd4".to_string()], 1).unwrap();
        assert!(
            matches!(outcome, InductionOutcome::Proved { .. }),
            "{outcome:?}"
        );
    }

    /// A local copy of the router's pointer-update logic (the designs
    /// crate depends on this one, so we cannot import it here).
    fn gila_designs_stub() -> RtlModule {
        parse_verilog(
            r#"
module rr(clk, a, b);
  input clk; input a; input b;
  reg [2:0] rt_rr;
  initial begin rt_rr = 0; end
  wire [2:0] winner = a ? 3'd0 : 3'd4;
  always @(posedge clk) begin
    if (a && b) rt_rr <= (winner == 3'd4) ? 3'd0 : winner + 3'd1;
  end
endmodule
"#,
        )
        .expect("valid")
    }
}
