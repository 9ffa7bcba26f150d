//! ILA-to-RTL synthesis: generating a reference implementation directly
//! from a port-ILA.
//!
//! The paper verifies hand-written RTL against ILA specifications; a
//! natural extension (and a useful oracle for this platform) is the
//! reverse direction: *synthesize* an RTL module whose every register
//! implements its state's combined next-state function
//!
//! ```text
//! s' = ite(D_0, N_0(s), ite(D_1, N_1(s), ... , s))
//! ```
//!
//! The synthesized module is correct by construction, which the test
//! suite confirms by running the refinement check against it with an
//! identity refinement map — for every case-study design.

use std::collections::HashMap;
use std::fmt;

use gila_core::{ModuleIla, PortIla};
use gila_expr::{import, ExprRef, Sort};
use gila_rtl::RtlModule;

use crate::refmap::RefinementMap;

/// An error during synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// RTL pins and registers are bit-vectors; boolean-sorted ILA
    /// states/inputs are not representable (model them as `Bv(1)`).
    BoolNotRepresentable {
        /// The offending state or input.
        name: String,
    },
    /// Memory-sorted *inputs* have no RTL pin equivalent.
    MemInput {
        /// The offending input.
        name: String,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::BoolNotRepresentable { name } => write!(
                f,
                "{name:?} is boolean-sorted; use Bv(1) for synthesizable models"
            ),
            SynthError::MemInput { name } => {
                write!(f, "input {name:?} is memory-sorted and cannot become a pin")
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// The identity refinement map for a synthesized module: every ILA
/// state and input maps to the RTL element of the same name, and every
/// instruction finishes in one cycle.
pub(crate) fn identity_refmap(port: &PortIla) -> RefinementMap {
    let mut m = RefinementMap::new(port.name());
    for s in port.states() {
        m.map_state(s.name.clone(), s.name.clone());
    }
    for i in port.inputs() {
        m.map_input(i.name.clone(), i.name.clone());
    }
    m
}

/// Identity refinement maps for a whole synthesized module: every ILA
/// state and input maps to the RTL element of the same name, but
/// states a port merely *reads* while another port drives them
/// (read-only sharing) are marked as pre-state-only — simultaneous
/// traffic on the owning port may legitimately change them during
/// this port's instruction.
pub fn identity_refmaps(module: &ModuleIla) -> Vec<RefinementMap> {
    module
        .ports()
        .iter()
        .map(|port| {
            let mut m = identity_refmap(port);
            for s in port.states() {
                let updated_here = port
                    .instructions()
                    .iter()
                    .any(|i| i.updates.contains_key(&s.name));
                if updated_here {
                    continue;
                }
                let updated_elsewhere = module.ports().iter().any(|q| {
                    q.name() != port.name()
                        && q.instructions()
                            .iter()
                            .any(|i| i.updates.contains_key(&s.name))
                });
                if updated_elsewhere {
                    m.mark_unchecked(s.name.clone());
                }
            }
            m
        })
        .collect()
}

/// Synthesizes every port of a module-ILA into one RTL module: one
/// register (or memory) per architectural state, driven by the
/// decode-selected next-state function; instructions are prioritized
/// in declaration order (irrelevant when the decodes are disjoint,
/// which [`gila_core::decode_overlaps`] can confirm). State and input
/// names carry over unchanged, so [`identity_refmaps`] connects the
/// two for refinement checking.
///
/// Shared (read-only) states across ports are declared once; the
/// declaring port's next-state chain drives them.
///
/// # Errors
///
/// See [`SynthError`].
pub fn synthesize_module(module: &ModuleIla) -> Result<RtlModule, SynthError> {
    let mut rtl = RtlModule::new(format!("{}_synth", module.name()));
    // Declarations (dedup across ports by name).
    for port in module.ports() {
        for i in port.inputs() {
            if rtl.find_input(&i.name).is_some() {
                continue;
            }
            match i.sort {
                Sort::Bv(w) => {
                    rtl.input(i.name.clone(), w);
                }
                Sort::Bool => {
                    return Err(SynthError::BoolNotRepresentable {
                        name: i.name.clone(),
                    })
                }
                Sort::Mem { .. } => {
                    return Err(SynthError::MemInput {
                        name: i.name.clone(),
                    })
                }
            }
        }
        for s in port.states() {
            if rtl.find_reg(&s.name).is_some() || rtl.find_mem(&s.name).is_some() {
                continue;
            }
            match s.sort {
                Sort::Bv(w) => {
                    let init = s.init.as_ref().map(|v| v.as_bv().to_u64());
                    rtl.reg(s.name.clone(), w, init);
                }
                Sort::Mem {
                    addr_width,
                    data_width,
                } => {
                    rtl.mem(s.name.clone(), addr_width, data_width);
                }
                Sort::Bool => {
                    return Err(SynthError::BoolNotRepresentable {
                        name: s.name.clone(),
                    })
                }
            }
        }
    }
    // Next-state logic: the port that *updates* a state drives it.
    for port in module.ports() {
        let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
        let decodes: Vec<ExprRef> = port
            .instructions()
            .iter()
            .map(|i| import(rtl.ctx_mut(), port.ctx(), i.decode, &mut memo))
            .collect();
        for s in port.states() {
            let updated_here = port
                .instructions()
                .iter()
                .any(|i| i.updates.contains_key(&s.name));
            if !updated_here {
                continue;
            }
            let hold = rtl.ctx().find_var(&s.name).expect("declared above");
            let mut next = hold;
            for (idx, instr) in port.instructions().iter().enumerate().rev() {
                if let Some(&upd) = instr.updates.get(&s.name) {
                    let upd = import(rtl.ctx_mut(), port.ctx(), upd, &mut memo);
                    next = rtl.ctx_mut().ite(decodes[idx], upd, next);
                }
            }
            rtl.set_next(&s.name, next).expect("sorts carry over");
        }
    }
    rtl.validate().expect("synthesized module is closed");
    Ok(rtl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{verify_port, VerifyOptions};
    use gila_core::StateKind;
    use gila_rtl::RtlSimulator;

    /// The synthesized RTL of `port` alone.
    fn synthesize_port(port: &PortIla) -> Result<RtlModule, SynthError> {
        synthesize_module(&ModuleIla::single_port(port.clone()))
    }

    fn counter_port() -> PortIla {
        let mut p = PortIla::new("counter");
        let en = p.input("en", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
        let d = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 8);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d).update("cnt", nx).add().unwrap();
        let d = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d).add().unwrap();
        p.set_init("cnt", gila_expr::BitVecValue::from_u64(0, 8))
            .unwrap();
        p
    }

    #[test]
    fn synthesized_counter_simulates_correctly() {
        let port = counter_port();
        let rtl = synthesize_port(&port).unwrap();
        assert_eq!(rtl.name(), "counter_synth");
        let mut sim = RtlSimulator::new(&rtl);
        let mut ins = std::collections::BTreeMap::new();
        ins.insert("en".to_string(), gila_expr::BitVecValue::from_u64(1, 1));
        for _ in 0..5 {
            sim.step(&ins).unwrap();
        }
        assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 5);
        ins.insert("en".to_string(), gila_expr::BitVecValue::from_u64(0, 1));
        sim.step(&ins).unwrap();
        assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 5);
    }

    #[test]
    fn synthesized_counter_verifies_with_identity_map() {
        let port = counter_port();
        let rtl = synthesize_port(&port).unwrap();
        let map = identity_refmap(&port);
        let report = verify_port(&port, &rtl, &map, &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
    }

    #[test]
    fn memory_states_synthesize() {
        let mut p = PortIla::new("scratch");
        let we = p.input("we", Sort::Bv(1));
        let addr = p.input("addr", Sort::Bv(4));
        let din = p.input("din", Sort::Bv(8));
        let mem = p.state(
            "mem",
            Sort::Mem {
                addr_width: 4,
                data_width: 8,
            },
            StateKind::Internal,
        );
        let d = p.ctx_mut().eq_u64(we, 1);
        let w = p.ctx_mut().mem_write(mem, addr, din);
        p.instr("write").decode(d).update("mem", w).add().unwrap();
        let d = p.ctx_mut().eq_u64(we, 0);
        p.instr("idle").decode(d).add().unwrap();

        let rtl = synthesize_port(&p).unwrap();
        assert_eq!(rtl.mems().len(), 1);
        let map = identity_refmap(&p);
        let report = verify_port(&p, &rtl, &map, &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
    }

    #[test]
    fn bool_states_rejected() {
        let mut p = PortIla::new("b");
        p.input("x", Sort::Bv(1));
        p.state("flag", Sort::Bool, StateKind::Internal);
        let d = p.ctx_mut().tt();
        p.instr("nop").decode(d).add().unwrap();
        assert!(matches!(
            synthesize_port(&p).unwrap_err(),
            SynthError::BoolNotRepresentable { .. }
        ));
    }
}
