//! Content-addressed cache keys for verification verdicts.
//!
//! A verdict's identity is the *semantic object the solver saw*, not
//! the source text it came from: the cone-of-influence slice of the RTL
//! transition system that the property can observe, the ILA
//! instruction's decode/update semantics, the refinement
//! correspondence, and the per-instruction verification directives
//! (bound, finish condition, strengthening, input policy, invariants).
//! Two specs that differ only outside a property's cone — comments,
//! unrelated ports, renamed instructions, logic sliced away — produce
//! the same key, which is what makes the proof cache
//! ([`crate::ProofCache`], behind both `gila serve` and `gila verify
//! --checkpoint`) an *incremental re-verification* mechanism: edit one
//! instruction and only the keys whose slice actually changed miss the
//! cache.
//!
//! Keying is not a separate pass. The keys are read from a run's one
//! plan ([`Planned`]): the unsliced transition system and the
//! [`PortPlan`]s the engine then slices and runs. [`slice_keys`] plans
//! the same way, so a key names exactly what a run would check. The
//! key also seeds the candidates a run samples for the property before
//! solving it, so equal properties draw equal candidates.
//!
//! What the key deliberately does **not** cover is `VerifyOptions`:
//! every current option is verdict-preserving on *decided* verdicts.
//! Telemetry changes no answer (and `jobs` is ignored);
//! the budget and cancellation change only *decidability*, and
//! undecided verdicts (`unknown`, `panicked`) are never journaled. If an
//! option that can change a decided verdict is ever added (say, an
//! approximation mode), it must be folded into [`CACHE_KEY_VERSION`]'s
//! material — see the "Serving" section of DESIGN.md.
//!
//! Keys are 128-bit hex strings from a dual-lane FNV-1a over a
//! canonical post-order serialization of the hash-consed expression
//! DAGs. Not collision-resistant against adversaries — fine for a
//! trusted cache, chosen because it is dependency-free and
//! deterministic across processes (a persisted journal must hash the
//! same on every restart, which rules out `DefaultHasher`).

use std::collections::{BTreeMap, HashMap};

use gila_core::ModuleIla;
use gila_expr::{ExprCtx, ExprNode, ExprRef};
use gila_mc::{coi_cone, TransitionSystem};
use gila_rtl::RtlModule;

use crate::engine::{coi_roots, Planned, PortPlan, VerifyError};
use crate::refmap::RefinementMap;

/// Version tag folded into every key. Bump whenever the key material or
/// serialization changes — stale journal entries then miss instead of
/// being misapplied.
///
/// v2: abstract-interpretation lemmas (`gila-absint`) were asserted into
/// the solver before BMC. The lemmas were proven consequences of the
/// transition relation, so decided verdicts could not change — but the
/// bump kept any pre-absint journal from being credited to a pipeline
/// it never saw, per the policy above.
///
/// Still v2 after those lemmas were removed: decided verdicts did not
/// change, so journals already written stay valid as they are.
pub const CACHE_KEY_VERSION: u32 = 2;

/// The cache key of one `(port, instruction)` verification property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceKey {
    /// Port the property belongs to (reporting identity, not hashed).
    pub port: String,
    /// Instruction name (reporting identity, not hashed — renames keep
    /// their verdicts).
    pub instruction: String,
    /// 32-hex-digit content hash of the sliced property.
    pub key: String,
}

/// Computes the content-addressed key of every `(port, instruction)`
/// property `verify_module` would check for this module.
///
/// # Errors
///
/// The same [`VerifyError`]s `verify_module` reports for malformed
/// inputs: unknown signals in a refinement map, a missing map, a bad
/// bound, malformed RTL.
pub fn slice_keys(
    module: &ModuleIla,
    rtl: &RtlModule,
    maps: &[RefinementMap],
) -> Result<Vec<SliceKey>, VerifyError> {
    let planned = Planned::module(module, rtl, maps)?;
    Ok(keys_of(&planned.ts, &planned.ts_signals, &planned.plans))
}

/// The keys of every instruction of `plans` over the run's unsliced
/// system `ts`, in declaration order.
pub(crate) fn keys_of(
    ts: &TransitionSystem,
    ts_signals: &BTreeMap<String, ExprRef>,
    plans: &[PortPlan<'_>],
) -> Vec<SliceKey> {
    plans
        .iter()
        .flat_map(|plan| port_keys(plan, ts, ts_signals))
        .collect()
}

/// The keys of every instruction of one port plan, in declaration order.
pub(crate) fn port_keys(
    plan: &PortPlan<'_>,
    ts: &TransitionSystem,
    ts_signals: &BTreeMap<String, ExprRef>,
) -> Vec<SliceKey> {
    // Memo tables survive across the port's instructions: the
    // hash-consed contexts only grow, so shared subgraphs hash once.
    let mut ts_memo: HashMap<ExprRef, (u64, u64)> = HashMap::new();
    let mut cond_memo: HashMap<ExprRef, (u64, u64)> = HashMap::new();
    let mut ila_memo: HashMap<ExprRef, (u64, u64)> = HashMap::new();
    plan.port
        .instructions()
        .iter()
        .enumerate()
        .map(|(idx, instr)| SliceKey {
            port: plan.port.name().to_string(),
            instruction: instr.name.clone(),
            key: instruction_key(
                plan,
                idx,
                instr,
                ts,
                ts_signals,
                &mut ts_memo,
                &mut cond_memo,
                &mut ila_memo,
            ),
        })
        .collect()
}

/// Every cone-of-influence root set verification builds for this
/// module, over the one transition system of `rtl`: per port, the
/// union over its instructions (the engine's slice), then one per
/// instruction (what that instruction's cache key hashes).
///
/// Exposed so tests can cross-check [`gila_mc::coi_cone`] against an
/// independent fixpoint on real designs.
///
/// # Errors
///
/// The same [`VerifyError`]s as [`slice_keys`].
#[doc(hidden)]
pub fn coi_root_sets(
    module: &ModuleIla,
    rtl: &RtlModule,
    maps: &[RefinementMap],
) -> Result<(TransitionSystem, Vec<Vec<ExprRef>>), VerifyError> {
    let Planned {
        ts,
        ts_signals,
        plans,
    } = Planned::module(module, rtl, maps)?;
    let mut sets = Vec::new();
    for plan in &plans {
        sets.push(coi_roots(plan, &plan.instrs, &ts, &ts_signals));
        for ip in &plan.instrs {
            sets.push(coi_roots(plan, std::slice::from_ref(ip), &ts, &ts_signals));
        }
    }
    Ok((ts, sets))
}

/// Dual-lane FNV-1a/64. The second lane runs over tweaked bytes from a
/// different offset basis, decorrelating the lanes enough that the
/// combined 128 bits make accidental collisions negligible for a cache
/// of any realistic size.
struct Fnv128 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Fnv128 {
    fn new() -> Self {
        Fnv128 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ (byte ^ 0xa5) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_hash(&mut self, h: (u64, u64)) {
        self.write_u64(h.0);
        self.write_u64(h.1);
    }

    fn finish(self) -> (u64, u64) {
        (self.a, self.b)
    }
}

/// Canonical hash of `e`'s DAG in `ctx`, memoized across calls sharing
/// `memo`. Structure-only: two hash-consed contexts that intern the
/// same graph produce the same hash regardless of `ExprRef` numbering.
fn expr_hash(ctx: &ExprCtx, e: ExprRef, memo: &mut HashMap<ExprRef, (u64, u64)>) -> (u64, u64) {
    if let Some(&h) = memo.get(&e) {
        return h;
    }
    for node in ctx.post_order(&[e]) {
        if memo.contains_key(&node) {
            continue;
        }
        let mut f = Fnv128::new();
        match ctx.node(node) {
            ExprNode::BoolConst(b) => {
                f.write_str("bc");
                f.write_u64(*b as u64);
            }
            ExprNode::BvConst(v) => {
                f.write_str("vc");
                f.write_str(&format!("{v:?}"));
            }
            ExprNode::MemConst(m) => {
                f.write_str("mc");
                f.write_str(&format!("{m:?}"));
            }
            ExprNode::Var { name, sort } => {
                f.write_str("var");
                f.write_str(name);
                f.write_str(&sort.to_string());
            }
            ExprNode::App { op, args, sort } => {
                f.write_str("app");
                f.write_str(&format!("{op:?}"));
                f.write_str(&sort.to_string());
                for &a in args {
                    f.write_hash(memo[&a]);
                }
            }
        }
        memo.insert(node, f.finish());
    }
    memo[&e]
}

/// Hashes one instruction's property: the transition system restricted
/// to the instruction's cone of influence, plus every ingredient of the
/// refinement check.
#[allow(clippy::too_many_arguments)]
fn instruction_key(
    plan: &PortPlan<'_>,
    idx: usize,
    instr: &gila_core::Instruction,
    ts: &TransitionSystem,
    ts_signals: &BTreeMap<String, ExprRef>,
    ts_memo: &mut HashMap<ExprRef, (u64, u64)>,
    cond_memo: &mut HashMap<ExprRef, (u64, u64)>,
    ila_memo: &mut HashMap<ExprRef, (u64, u64)>,
) -> String {
    let ip = &plan.instrs[idx];

    // Root set: what *this instruction's* check can observe of the RTL —
    // the mapped correspondence plus the support of the conditions it
    // uses (invariants apply to every instruction of the port).
    let roots = coi_roots(plan, std::slice::from_ref(ip), ts, ts_signals);
    let cone = coi_cone(ts, &roots);

    let mut f = Fnv128::new();
    f.write_str("gila-cache-key");
    f.write_u64(CACHE_KEY_VERSION as u64);

    // 1. The transition system restricted to the cone: what
    // `coi_slice` would keep, read from the unsliced system (so
    // ts_memo stays valid). States sorted by name; the sorted-name
    // iteration makes the serialization canonical.
    let ts_ctx = ts.ctx();
    let mut state_names: Vec<&str> = ts
        .states()
        .iter()
        .map(|s| s.name.as_str())
        .filter(|name| cone.contains(*name))
        .collect();
    state_names.sort_unstable();
    f.write_u64(state_names.len() as u64);
    for name in state_names {
        f.write_str(name);
        let var = ts_ctx.find_var(name).expect("cone state var exists");
        f.write_str(&ts_ctx.sort_of(var).to_string());
        match ts.init_of(name) {
            Some(v) => f.write_str(&format!("{v:?}")),
            None => f.write_str("-"),
        }
        match ts.next_of(name) {
            Some(e) => f.write_hash(expr_hash(ts_ctx, e, ts_memo)),
            None => f.write_str("-"),
        }
    }
    let mut input_names: Vec<&str> = ts
        .inputs()
        .iter()
        .map(|i| i.name.as_str())
        .filter(|name| cone.contains(*name))
        .collect();
    input_names.sort_unstable();
    f.write_u64(input_names.len() as u64);
    for name in input_names {
        f.write_str(name);
        if let Some(var) = ts_ctx.find_var(name) {
            f.write_str(&ts_ctx.sort_of(var).to_string());
        }
    }
    // The length of the constraint list transition systems once had;
    // always empty, it is written as 0 so every key stays byte-identical.
    f.write_u64(0);

    // 2. The ILA instruction semantics: decode plus updates, in the
    // port's context (updates are a BTreeMap — already name-sorted).
    let ila_ctx = plan.port.ctx();
    f.write_str("decode");
    f.write_hash(expr_hash(ila_ctx, instr.decode, ila_memo));
    f.write_u64(instr.updates.len() as u64);
    for (state, &update) in &instr.updates {
        f.write_str(state);
        f.write_hash(expr_hash(ila_ctx, update, ila_memo));
    }

    // 3. The refinement correspondence: which ILA state/input maps to
    // which RTL expression, and which states are pre-state-only.
    f.write_u64(plan.mapped_states.len() as u64);
    for (ila_name, e, sort) in &plan.mapped_states {
        f.write_str(ila_name);
        f.write_str(&sort.to_string());
        f.write_hash(expr_hash(ts_ctx, *e, ts_memo));
        f.write_u64(plan.map.unchecked_states.contains(ila_name) as u64);
    }
    f.write_u64(plan.mapped_inputs.len() as u64);
    for (ila_name, e, sort) in &plan.mapped_inputs {
        f.write_str(ila_name);
        f.write_str(&sort.to_string());
        f.write_hash(expr_hash(ts_ctx, *e, ts_memo));
    }

    // 4. Per-instruction directives, with conditions hashed as parsed
    // expressions (whitespace-insensitive) in the plan's scratch RTL.
    f.write_u64(ip.bound as u64);
    let cond_ctx = plan.cond_rtl.ctx();
    match ip.finish_expr {
        Some(e) => f.write_hash(expr_hash(cond_ctx, e, cond_memo)),
        None => f.write_str("-"),
    }
    match ip.strengthening {
        Some(e) => f.write_hash(expr_hash(cond_ctx, e, cond_memo)),
        None => f.write_str("-"),
    }
    f.write_str(&format!("{:?}", ip.input_policy));
    f.write_u64(plan.invariants.len() as u64);
    for &inv in &plan.invariants {
        f.write_hash(expr_hash(cond_ctx, inv, cond_memo));
    }

    let (a, b) = f.finish();
    format!("{a:016x}{b:016x}")
}

// Behavioral tests live in `crates/serve/tests/cache.rs` — they need
// the bundled case studies, and `gila-designs` depends on this crate.
