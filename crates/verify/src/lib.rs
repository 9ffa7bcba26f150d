//! # gila-verify — refinement checking of RTL against module-ILAs
//!
//! The verification half of the DATE 2021 methodology. Given a port-ILA
//! (from `gila-core`), an RTL implementation (from `gila-rtl`), and a
//! small JSON-serializable [`RefinementMap`] (state map, interface map,
//! and per-instruction start/finish conditions), the engine
//! *automatically generates one correctness property per atomic
//! instruction* —
//!
//! > starting from corresponding equivalent states, after executing the
//! > specified instruction, the corresponding states are equivalent —
//!
//! and discharges each by bounded unrolling + bit-blasting + SAT
//! ([`verify_port`] / [`verify_module`]). UNSAT proves the instruction;
//! SAT yields a concrete counterexample trace ([`RefinementCex`]).
//! Because every instruction of every port is checked, the property set
//! is *complete* for the module's functional (non-timing) behaviour.
//!
//! A run can keep a verdict journal ([`ProofCache`], set as
//! [`VerifyOptions::journal`]): properties whose content key
//! ([`slice_keys`]) the journal already answers are not re-solved.
//!
//! The crate also provides the paper's small-memory abstraction
//! ([`abstract_port_memory`] / [`abstract_rtl_memory`]), k-induction
//! proofs of the invariants a refinement map assumes
//! ([`validate_invariants`]) and Fig. 5-style property rendering
//! ([`render_property`]). It compares no two RTL modules: a round trip
//! through Verilog is checked against the spec, like any other RTL.
//!
//! # Examples
//!
//! ```
//! use gila_core::{PortIla, StateKind};
//! use gila_expr::Sort;
//! use gila_rtl::parse_verilog;
//! use gila_verify::{verify_port, RefinementMap, VerifyOptions};
//!
//! // ILA: a 4-bit counter with inc/hold instructions.
//! let mut ila = PortIla::new("counter");
//! let en = ila.input("en", Sort::Bv(1));
//! let cnt = ila.state("cnt", Sort::Bv(4), StateKind::Output);
//! let d = ila.ctx_mut().eq_u64(en, 1);
//! let one = ila.ctx_mut().bv_u64(1, 4);
//! let nx = ila.ctx_mut().bvadd(cnt, one);
//! ila.instr("inc").decode(d).update("cnt", nx).add()?;
//! let d = ila.ctx_mut().eq_u64(en, 0);
//! ila.instr("hold").decode(d).add()?;
//!
//! // RTL implementation.
//! let rtl = parse_verilog(r#"
//! module counter(clk, en_in);
//!   input clk; input en_in;
//!   reg [3:0] count;
//!   always @(posedge clk) if (en_in) count <= count + 4'd1;
//! endmodule
//! "#)?;
//!
//! // Refinement map and check.
//! let mut map = RefinementMap::new("counter");
//! map.map_state("cnt", "count");
//! map.map_input("en", "en_in");
//! let report = verify_port(&ila, &rtl, &map, &VerifyOptions::default())?;
//! assert!(report.all_hold());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod abstraction;
mod cache_key;
mod compiled;
mod cosim;
mod engine;
mod falsify;
mod fault;
mod hunt;
mod invariants;
mod journal;
mod mutation;
mod property;
mod refmap;
mod shrink;
mod synth;
mod vcd;

pub use abstraction::{abstract_port_memory, abstract_rtl_memory, AbstractError};
pub use cache_key::{coi_root_sets, slice_keys, SliceKey, CACHE_KEY_VERSION};
pub use engine::{
    confirm_counterexample, rtl_to_ts, verify_module, verify_port, BudgetSpent, CheckResult,
    DecidedBy, InstrVerdict, ModuleReport, PortReport, RefinementCex, SolveBudget, VerdictCounts,
    VerifyError, VerifyOptions,
};
pub use fault::{FaultAction, FaultPlan, FaultPlanError};
pub use journal::{CacheConfig, CacheStats, ProofCache, RecoveryStats};
/// Re-exported so budget consumers can name the resource that ran out
/// without depending on `gila-smt` directly.
pub use gila_smt::ResourceOut;
pub use property::{render_all_properties, render_property};
pub use refmap::{FinishCondition, InputPolicy, InstructionMap, RefMapParseError, RefinementMap};
pub use compiled::{cosim_differential, cosimulate_compiled, replay_compiled, replay_ports};
pub use cosim::{
    cosimulate, parse_command_stream, random_value, render_value, CommandStream, CosimError,
    Divergence, StreamError,
};
pub use hunt::{hunt, HuntConfig, HuntFinding, HuntReport, HuntTarget};
pub use shrink::{shrink_divergence, ShrinkResult};
pub use invariants::validate_invariants;
pub use mutation::{mutate_register, MutateError, Mutation, MutationReport};
pub use synth::{identity_refmaps, synthesize_module, SynthError};
pub use vcd::cex_to_vcd;
