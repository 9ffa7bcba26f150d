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

use std::collections::BTreeSet;
use std::io::Write;

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
    let mut keys = Vec::new();
    for plan in &planned.plans {
        let port_keys = port_keys(&planned, plan);
        keys.extend(plan.port.instructions().iter().zip(port_keys).map(|(instr, key)| {
            SliceKey {
                port: plan.port.name().to_string(),
                instruction: instr.name.clone(),
                key,
            }
        }));
    }
    Ok(keys)
}

/// The key of every instruction of one port plan over the run's
/// unsliced system `ts`, in declaration order.
///
/// One pass over the port. Instructions with equal root sets share a
/// cone and its hashed prefix (the header and the transition-system
/// section), whose hasher each key copies and continues; the
/// correspondence bytes are serialized once per port. Every key still
/// hashes exactly the byte stream it would on its own.
pub(crate) fn port_keys(planned: &Planned<'_>, plan: &PortPlan<'_>) -> Vec<String> {
    let ts = &planned.ts;
    // Memo tables survive across the port's instructions, so shared
    // subgraphs hash once.
    let mut ts_dag = DagHasher::new(ts.ctx());
    let mut ila_dag = DagHasher::new(plan.port.ctx());

    // 3. The refinement correspondence (ILA state/input to RTL expression,
    // pre-state-only flags): the same for every instruction.
    let mut correspondence = Bytes::default();
    correspondence.write_u64(plan.mapped_states.len() as u64);
    for (ila_name, e, sort) in &plan.mapped_states {
        correspondence.write_str(ila_name);
        correspondence.write_text(format_args!("{sort}"));
        correspondence.write_hash(ts_dag.hash(*e));
        correspondence.write_u64(plan.map.unchecked_states.contains(ila_name) as u64);
    }
    correspondence.write_u64(plan.mapped_inputs.len() as u64);
    for (ila_name, e, sort) in &plan.mapped_inputs {
        correspondence.write_str(ila_name);
        correspondence.write_text(format_args!("{sort}"));
        correspondence.write_hash(ts_dag.hash(*e));
    }

    // Each distinct root set with its cone's hashed prefix.
    let mut prefixes: Vec<(Vec<ExprRef>, Fnv128)> = Vec::new();
    let mut bytes = Bytes::default();
    let mut keys = Vec::with_capacity(plan.instrs.len());
    for (instr, ip) in plan.port.instructions().iter().zip(&plan.instrs) {
        // Root set: what *this instruction's* check can observe of the
        // RTL — the mapped correspondence plus the conditions it uses
        // (invariants apply to every instruction).
        let roots = coi_roots(plan, std::slice::from_ref(ip));
        let mut f = match prefixes.iter().find(|(r, _)| *r == roots) {
            Some(&(_, prefix)) => prefix,
            None => {
                let prefix = ts_prefix(ts, &coi_cone(ts, &roots), &mut ts_dag);
                prefixes.push((roots, prefix));
                prefix
            }
        };

        // 2. The ILA instruction semantics: decode plus updates, in the
        // port's context (updates are a BTreeMap — already name-sorted).
        bytes.0.clear();
        bytes.write_str("decode");
        bytes.write_hash(ila_dag.hash(instr.decode));
        bytes.write_u64(instr.updates.len() as u64);
        for (state, &update) in &instr.updates {
            bytes.write_str(state);
            bytes.write_hash(ila_dag.hash(update));
        }
        bytes.0.extend_from_slice(&correspondence.0);

        // 4. Per-instruction directives, with conditions hashed as
        // parsed expressions (whitespace-insensitive) of the system.
        bytes.write_u64(ip.bound as u64);
        for cond in [ip.finish_expr, ip.strengthening] {
            match cond {
                Some(e) => bytes.write_hash(ts_dag.hash(e)),
                None => bytes.write_str("-"),
            }
        }
        bytes.write_text(format_args!("{:?}", ip.input_policy));
        bytes.write_u64(plan.invariants.len() as u64);
        for &inv in &plan.invariants {
            bytes.write_hash(ts_dag.hash(inv));
        }

        f.write(&bytes.0);
        let (a, b) = f.finish();
        keys.push(format!("{a:016x}{b:016x}"));
    }
    keys
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
    let planned = Planned::module(module, rtl, maps)?;
    let mut sets = Vec::new();
    for plan in &planned.plans {
        sets.push(coi_roots(plan, &plan.instrs));
        for ip in &plan.instrs {
            sets.push(coi_roots(plan, std::slice::from_ref(ip)));
        }
    }
    Ok((planned.ts, sets))
}

/// Key material as the bytes a hasher is fed, in a reused buffer.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    /// [`Bytes::write_str`] of formatted text, without a fresh `String`.
    fn write_text(&mut self, args: std::fmt::Arguments<'_>) {
        let at = self.0.len();
        self.write_u64(0);
        self.0.write_fmt(args).expect("writing to a Vec cannot fail");
        let len = (self.0.len() - at - 8) as u64;
        self.0[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn write_hash(&mut self, h: (u64, u64)) {
        self.write_u64(h.0);
        self.write_u64(h.1);
    }
}

/// Dual-lane FNV-1a/64. The second lane runs over tweaked bytes from a
/// different offset basis, decorrelating the lanes enough that the
/// combined 128 bits make accidental collisions negligible for a cache
/// of any realistic size. The state is the two lanes alone, so a copy
/// continues exactly where the original stood.
#[derive(Clone, Copy)]
struct Fnv128 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Fnv128 {
    /// The hasher after `bytes`.
    fn of(bytes: &[u8]) -> Self {
        let mut f = Fnv128 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        };
        f.write(bytes);
        f
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ (byte ^ 0xa5) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> (u64, u64) {
        (self.a, self.b)
    }
}

/// Canonical hashes of DAGs in one context, memoized by `ExprRef`
/// index. Structure-only: two hash-consed contexts that intern the same
/// graph produce the same hash regardless of `ExprRef` numbering.
struct DagHasher<'c> {
    ctx: &'c ExprCtx,
    memo: Vec<Option<(u64, u64)>>,
    stack: Vec<ExprRef>,
    bytes: Bytes,
}

impl<'c> DagHasher<'c> {
    fn new(ctx: &'c ExprCtx) -> Self {
        DagHasher {
            ctx,
            memo: vec![None; ctx.len()],
            stack: Vec::new(),
            bytes: Bytes::default(),
        }
    }

    /// The hash of `e`'s DAG. The walk descends only into nodes not yet
    /// hashed, so each node is visited once per context.
    fn hash(&mut self, e: ExprRef) -> (u64, u64) {
        self.stack.push(e);
        while let Some(&node) = self.stack.last() {
            if self.memo[node.index()].is_some() {
                self.stack.pop();
                continue;
            }
            let depth = self.stack.len();
            let memo = &self.memo;
            let pending = self.ctx.args(node).iter().filter(|a| memo[a.index()].is_none());
            self.stack.extend(pending);
            if self.stack.len() > depth {
                continue;
            }
            self.stack.pop();
            let b = &mut self.bytes;
            b.0.clear();
            match self.ctx.node(node) {
                ExprNode::BoolConst(v) => {
                    b.write_str("bc");
                    b.write_u64(*v as u64);
                }
                ExprNode::BvConst(v) => {
                    b.write_str("vc");
                    b.write_text(format_args!("{v:?}"));
                }
                ExprNode::MemConst(m) => {
                    b.write_str("mc");
                    b.write_text(format_args!("{m:?}"));
                }
                ExprNode::Var { name, sort } => {
                    b.write_str("var");
                    b.write_str(name);
                    b.write_text(format_args!("{sort}"));
                }
                ExprNode::App { op, args, sort } => {
                    b.write_str("app");
                    b.write_text(format_args!("{op:?}"));
                    b.write_text(format_args!("{sort}"));
                    for a in args {
                        b.write_hash(self.memo[a.index()].expect("arguments hash first"));
                    }
                }
            }
            self.memo[node.index()] = Some(Fnv128::of(&b.0).finish());
        }
        self.memo[e.index()].expect("the walk hashed its root")
    }
}

/// A key's header and section 1, the transition system restricted to
/// `cone`: what `coi_slice` would keep, read from the unsliced system
/// (so the memo stays valid). States sorted by name; the sorted-name
/// iteration makes the serialization canonical.
fn ts_prefix(ts: &TransitionSystem, cone: &BTreeSet<String>, dag: &mut DagHasher<'_>) -> Fnv128 {
    let mut b = Bytes::default();
    b.write_str("gila-cache-key");
    b.write_u64(CACHE_KEY_VERSION as u64);

    let ts_ctx = ts.ctx();
    let mut state_names: Vec<&str> = ts
        .states()
        .iter()
        .map(|s| s.name.as_str())
        .filter(|name| cone.contains(*name))
        .collect();
    state_names.sort_unstable();
    b.write_u64(state_names.len() as u64);
    for name in state_names {
        b.write_str(name);
        let var = ts_ctx.find_var(name).expect("cone state var exists");
        b.write_text(format_args!("{}", ts_ctx.sort_of(var)));
        match ts.init_of(name) {
            Some(v) => b.write_text(format_args!("{v:?}")),
            None => b.write_str("-"),
        }
        match ts.next_of(name) {
            Some(e) => b.write_hash(dag.hash(e)),
            None => b.write_str("-"),
        }
    }
    let mut input_names: Vec<&str> = ts
        .inputs()
        .iter()
        .map(|i| i.name.as_str())
        .filter(|name| cone.contains(*name))
        .collect();
    input_names.sort_unstable();
    b.write_u64(input_names.len() as u64);
    for name in input_names {
        b.write_str(name);
        if let Some(var) = ts_ctx.find_var(name) {
            b.write_text(format_args!("{}", ts_ctx.sort_of(var)));
        }
    }
    // The length of the constraint list transition systems once had;
    // always empty, it is written as 0 so every key stays byte-identical.
    b.write_u64(0);
    Fnv128::of(&b.0)
}

// Behavioral tests live in `crates/serve/tests/cache.rs` — they need
// the bundled case studies, and `gila-designs` depends on this crate.
