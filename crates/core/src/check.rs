//! Static well-formedness checks on port-ILAs, discharged with SAT.
//!
//! A port-ILA is a *complete* functional specification when, for every
//! command presented at the port, exactly one atomic instruction
//! triggers. [`decode_gap`] finds commands no instruction covers;
//! [`decode_overlaps`] finds commands that trigger several instructions
//! at once. Both accept an optional reachability assumption (e.g.
//! `step <= 3`) to exclude unreachable states from the check.

use gila_expr::{ExprRef, Value};
use gila_smt::SmtSolver;

use crate::model::PortIla;

/// A concrete command (input + state valuation) witnessing a decode
/// anomaly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// `(name, value)` for every input of the port.
    pub inputs: Vec<(String, Value)>,
    /// `(name, value)` for every state of the port.
    pub states: Vec<(String, Value)>,
}

/// Checks decode *completeness*: searches for a command that triggers no
/// instruction. Returns a witness if one exists, `None` if the decode
/// functions cover every command (under `assumption`, if given).
///
/// # Panics
///
/// Panics if `assumption` is not a boolean expression of the port's
/// context.
///
/// # Examples
///
/// ```
/// use gila_core::{decode_gap, PortIla, StateKind};
/// use gila_expr::Sort;
///
/// let mut p = PortIla::new("partial");
/// let x = p.input("x", Sort::Bv(1));
/// let d = p.ctx_mut().eq_u64(x, 0);
/// p.instr("zero").decode(d).add()?;
/// // x == 1 is uncovered:
/// assert!(decode_gap(&p, None).is_some());
/// let d = p.ctx_mut().eq_u64(x, 1);
/// p.instr("one").decode(d).add()?;
/// assert!(decode_gap(&p, None).is_none());
/// # Ok::<(), gila_core::ModelError>(())
/// ```
pub fn decode_gap(port: &PortIla, assumption: Option<ExprRef>) -> Option<Witness> {
    let mut ctx = port.ctx().clone();
    let decodes: Vec<ExprRef> = port.instructions().iter().map(|i| i.decode).collect();
    let any = ctx.or_many(&decodes);
    let none = ctx.not(any);
    let mut smt = SmtSolver::new();
    if let Some(a) = assumption {
        smt.assert(&ctx, a);
    }
    smt.assert(&ctx, none);
    if smt.check().is_sat() {
        Some(extract_witness(port, &ctx, &smt))
    } else {
        None
    }
}

/// A pair of instructions whose decode conditions can hold
/// simultaneously, with a concrete command triggering both.
///
/// Pairs are reported in declaration order: `first` always precedes
/// `second` in the port, and the list itself follows the pairwise scan
/// order, so output is stable across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeOverlap {
    /// The earlier-declared instruction of the pair.
    pub first: String,
    /// The later-declared instruction of the pair.
    pub second: String,
    /// A command on which both decode conditions hold.
    pub witness: Witness,
}

/// Checks one instruction pair for overlap: if the decode conditions of
/// instructions `i` and `j` (declaration indices) can hold
/// simultaneously (under `assumption`), returns the overlap with a
/// witness. This is the per-pair granularity behind
/// [`decode_overlaps`], exposed so callers that already proved some
/// pairs disjoint by other means can run SAT only on the rest.
///
/// # Panics
///
/// Panics if `i` or `j` is out of range.
pub fn decode_overlap_pair(
    port: &PortIla,
    i: usize,
    j: usize,
    assumption: Option<ExprRef>,
) -> Option<DecodeOverlap> {
    let instrs = port.instructions();
    let mut ctx = port.ctx().clone();
    let both = ctx.and(instrs[i].decode, instrs[j].decode);
    let mut smt = SmtSolver::new();
    if let Some(a) = assumption {
        smt.assert(&ctx, a);
    }
    smt.assert(&ctx, both);
    if smt.check().is_sat() {
        Some(DecodeOverlap {
            first: instrs[i].name.clone(),
            second: instrs[j].name.clone(),
            witness: extract_witness(port, &ctx, &smt),
        })
    } else {
        None
    }
}

/// Checks decode *determinism*: returns every pair of instructions whose
/// decode conditions can hold simultaneously (under `assumption`).
///
/// An empty result means at most one instruction triggers per command —
/// together with an empty [`decode_gap`], exactly one always triggers.
pub fn decode_overlaps(port: &PortIla, assumption: Option<ExprRef>) -> Vec<DecodeOverlap> {
    let mut overlaps = Vec::new();
    let n = port.instructions().len();
    for i in 0..n {
        for j in (i + 1)..n {
            overlaps.extend(decode_overlap_pair(port, i, j, assumption));
        }
    }
    overlaps
}

/// Checks whether the instruction at declaration index `idx` is *dead*:
/// its decode condition is unsatisfiable (under `assumption`) and it
/// can never trigger. Per-instruction granularity behind
/// [`dead_instructions`].
///
/// # Panics
///
/// Panics if `idx` is out of range.
pub fn instruction_dead(port: &PortIla, idx: usize, assumption: Option<ExprRef>) -> bool {
    let instr = &port.instructions()[idx];
    let ctx = port.ctx().clone();
    let mut smt = SmtSolver::new();
    if let Some(a) = assumption {
        smt.assert(&ctx, a);
    }
    smt.assert(&ctx, instr.decode);
    !smt.check().is_sat()
}

/// Checks for *dead* instructions: instructions whose decode condition
/// is unsatisfiable (under `assumption`) and therefore can never
/// trigger. Returns their names in declaration order.
pub fn dead_instructions(port: &PortIla, assumption: Option<ExprRef>) -> Vec<String> {
    (0..port.instructions().len())
        .filter(|&i| instruction_dead(port, i, assumption))
        .map(|i| port.instructions()[i].name.clone())
        .collect()
}

fn extract_witness(port: &PortIla, ctx: &gila_expr::ExprCtx, smt: &SmtSolver) -> Witness {
    let value_of = |var: ExprRef, sort: gila_expr::Sort| -> Value {
        // Variables not mentioned in any decode were never blasted; report
        // a default value for them.
        smt.try_model_value(ctx, var)
            .unwrap_or_else(|| Value::zero(sort))
    };
    Witness {
        inputs: port
            .inputs()
            .iter()
            .map(|i| (i.name.clone(), value_of(i.var, i.sort)))
            .collect(),
        states: port
            .states()
            .iter()
            .map(|s| (s.name.clone(), value_of(s.var, s.sort)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StateKind;
    use gila_expr::Sort;

    fn two_instr_port(complete: bool, disjoint: bool) -> PortIla {
        let mut p = PortIla::new("p");
        let x = p.input("x", Sort::Bv(2));
        p.state("s", Sort::Bv(2), StateKind::Output);
        let d0 = p.ctx_mut().eq_u64(x, 0);
        p.instr("a").decode(d0).add().unwrap();
        let d1 = if complete {
            let z = p.ctx_mut().bv_u64(0, 2);
            p.ctx_mut().ne(x, z)
        } else {
            p.ctx_mut().eq_u64(x, 1)
        };
        let d1 = if disjoint {
            d1
        } else {
            let d0again = p.ctx_mut().eq_u64(x, 0);
            p.ctx_mut().or(d1, d0again)
        };
        p.instr("b").decode(d1).add().unwrap();
        p
    }

    #[test]
    fn complete_and_deterministic() {
        let p = two_instr_port(true, true);
        assert!(decode_gap(&p, None).is_none());
        assert!(decode_overlaps(&p, None).is_empty());
    }

    #[test]
    fn gap_witness_found() {
        let p = two_instr_port(false, true);
        let w = decode_gap(&p, None).expect("x in {2,3} uncovered");
        let x = w.inputs.iter().find(|(n, _)| n == "x").unwrap();
        assert!(x.1.as_bv().to_u64() >= 2);
    }

    #[test]
    fn overlap_witness_found() {
        let p = two_instr_port(true, false);
        let os = decode_overlaps(&p, None);
        assert_eq!(os.len(), 1);
        assert_eq!(os[0].first, "a");
        assert_eq!(os[0].second, "b");
        let x = os[0].witness.inputs.iter().find(|(n, _)| n == "x").unwrap();
        assert_eq!(x.1.as_bv().to_u64(), 0);
    }

    #[test]
    fn dead_instruction_detected() {
        let mut p = two_instr_port(true, true);
        let x = p.ctx().find_var("x").unwrap();
        let never = {
            let a = p.ctx_mut().eq_u64(x, 0);
            let b = p.ctx_mut().eq_u64(x, 1);
            p.ctx_mut().and(a, b)
        };
        p.instr("dead").decode(never).add().unwrap();
        assert_eq!(dead_instructions(&p, None), vec!["dead".to_string()]);
    }

    #[test]
    fn assumption_restricts_check() {
        let mut p = two_instr_port(false, true);
        // Under the assumption x < 2, the incomplete decode is fine.
        let x = p.ctx().find_var("x").unwrap();
        let two = p.ctx_mut().bv_u64(2, 2);
        let assumption = p.ctx_mut().ult(x, two);
        assert!(decode_gap(&p, Some(assumption)).is_none());
    }
}
