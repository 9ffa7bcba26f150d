//! The refinement-check engine: instruction-by-instruction verification
//! of an RTL implementation against its (module-)ILA specification.
//!
//! For each atomic instruction the engine builds the property of Fig. 5:
//! starting from any RTL state whose mapped signals agree with the ILA
//! architectural state (plus user invariants), if the instruction's
//! start condition holds, then after the instruction finishes in the RTL
//! the mapped signals again agree with the ILA state produced by the
//! instruction's next-state functions. Each property is cofactored by
//! the constants its decode fixes ([`gila_expr::cofactor`]) and
//! discharged by bit-blasting to SAT; a satisfying assignment is a
//! counterexample trace, UNSAT is a proof for that instruction. Once a port has a
//! counterexample, its later checks first evaluate seeded candidates on
//! the same formula ([`crate::falsify`]), and a candidate that evaluates
//! to a violation is reported without a SAT call.
//!
//! Every call runs one pipeline. It plans its targets once, on one copy
//! of the RTL: one [`PortPlan`] per port (signal resolution and
//! condition parsing into the copy), then the copy becomes the call's
//! one transition system ([`rtl_to_ts`]), so malformed input errors
//! before anything is solved. With a
//! [`VerifyOptions::journal`], every property is keyed from those plans
//! ([`crate::SliceKey`]); a port the journal answers in full is reported
//! from its replays alone, with no slice. The other ports run one after
//! another in declaration order, each on one persistent unrolling and
//! incremental solver, so the port's blasted transition relation and
//! learned clauses are paid once per port. Every freshly decided
//! verdict is journaled as it lands.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gila_core::{ModuleIla, PortIla};
use gila_expr::{cofactor, eval_all, import_mapped, Cofactor, ExprMap, ExprRef, Sort, Value};
use gila_mc::{coi_slice, CoiStats, TransitionSystem, Unrolling};
use gila_rtl::{parse_rtl_expr, RtlModule, VerilogError};
use gila_smt::{
    BlastStats, CancelToken, ResourceOut, SmtResult, SmtSolver, SolveLimits, SolverStats,
};
use gila_trace::{Event, SpanKind, Telemetry, Tracer};

use crate::cache_key::port_keys;
use crate::falsify::{falsify, Formula};
use crate::fault::{FaultAction, FaultPlan};
use crate::journal::ProofCache;
use crate::refmap::{FinishCondition, InputPolicy, RefinementMap};

/// An error in the verification setup (not a property failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A refinement-map entry names an RTL signal that does not exist.
    UnknownRtlSignal {
        /// The missing signal.
        signal: String,
        /// Which map entry referenced it.
        context: String,
    },
    /// An ILA state or input has no refinement-map entry but appears in
    /// the instruction being checked.
    UnmappedIlaVar {
        /// The unmapped variable.
        var: String,
        /// The instruction being checked.
        instruction: String,
    },
    /// Mapped ILA/RTL pair have incompatible sorts.
    SortMismatch {
        /// The ILA state or input.
        ila: String,
        /// Its sort.
        ila_sort: Sort,
        /// The RTL signal.
        rtl: String,
        /// Its sort.
        rtl_sort: Sort,
    },
    /// A Verilog condition string failed to parse or elaborate.
    Verilog(
        /// The underlying error.
        VerilogError,
    ),
    /// A finish bound of zero cycles was requested.
    BadBound,
    /// The RTL module is internally inconsistent (e.g. an init value
    /// whose sort does not match its register, or a next-state function
    /// for an undeclared signal).
    MalformedRtl {
        /// What was inconsistent.
        reason: String,
    },
    /// An internal engine failure (e.g. a run that reported no result
    /// for its port). These map to the CLI's "internal error" exit code.
    Internal {
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownRtlSignal { signal, context } => {
                write!(f, "{context}: RTL has no signal {signal:?}")
            }
            VerifyError::UnmappedIlaVar { var, instruction } => write!(
                f,
                "instruction {instruction:?} references ILA variable {var:?} with no refinement-map entry"
            ),
            VerifyError::SortMismatch {
                ila,
                ila_sort,
                rtl,
                rtl_sort,
            } => write!(
                f,
                "ILA {ila:?} ({ila_sort}) cannot map to RTL {rtl:?} ({rtl_sort})"
            ),
            VerifyError::Verilog(e) => write!(f, "{e}"),
            VerifyError::BadBound => write!(f, "finish condition must allow at least one cycle"),
            VerifyError::MalformedRtl { reason } => write!(f, "malformed RTL: {reason}"),
            VerifyError::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<VerilogError> for VerifyError {
    fn from(e: VerilogError) -> Self {
        VerifyError::Verilog(e)
    }
}

/// A counterexample to one instruction's refinement property.
#[derive(Clone, Debug)]
pub struct RefinementCex {
    /// The cycle at which the equivalence check failed.
    pub finish_cycle: usize,
    /// RTL state at cycle 0 (the symbolic start the solver chose).
    pub rtl_start_state: BTreeMap<String, Value>,
    /// RTL inputs per cycle, `0..finish_cycle`.
    pub rtl_inputs: Vec<BTreeMap<String, Value>>,
    /// RTL state at every cycle `0..=finish_cycle` (index 0 equals
    /// `rtl_start_state`, the last entry equals `rtl_finish_state`).
    pub rtl_trace: Vec<BTreeMap<String, Value>>,
    /// RTL state at the finish cycle.
    pub rtl_finish_state: BTreeMap<String, Value>,
    /// ILA architectural state after the instruction (per mapped state).
    pub ila_post_state: BTreeMap<String, Value>,
    /// The mapped states that disagree at the finish cycle.
    pub mismatched_states: Vec<String>,
}

/// Per-check resource budget. Applies to every SAT query an
/// instruction's check issues; the wall-clock allowance is armed when
/// the check starts.
/// `Default` is unbounded (today's behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum SAT conflicts per query before the query gives up.
    pub conflicts: Option<u64>,
    /// Wall-clock allowance per check.
    pub timeout: Option<Duration>,
}

impl SolveBudget {
    /// True if no limit is configured.
    pub fn is_unbounded(&self) -> bool {
        self.conflicts.is_none() && self.timeout.is_none()
    }

    /// Converts to solver limits, arming the deadline now.
    pub(crate) fn to_limits(self) -> SolveLimits {
        SolveLimits {
            conflicts: self.conflicts,
            propagations: None,
            deadline: self.timeout.map(|t| Instant::now() + t),
        }
    }
}

/// What a check that gave up actually consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpent {
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT propagations.
    pub propagations: u64,
    /// Wall-clock time.
    pub wall: Duration,
}

/// Result of checking one instruction.
#[derive(Clone, Debug)]
pub enum CheckResult {
    /// The refinement property holds (the SAT query was UNSAT).
    Holds,
    /// A counterexample was found.
    CounterExample(
        /// The witnessing trace.
        Box<RefinementCex>,
    ),
    /// A `Condition` finish never occurred within its bound (the check
    /// is vacuous; reported so the user can raise the bound).
    FinishNotReached {
        /// The bound that was exhausted.
        max_cycles: usize,
    },
    /// The check gave up: it exhausted its solve budget (or the run was
    /// cancelled mid-solve). Neither a proof nor a counterexample —
    /// rerun with a larger budget to decide it.
    Unknown {
        /// Which resource ran out.
        reason: ResourceOut,
        /// What the check consumed before giving up.
        budget_spent: BudgetSpent,
    },
    /// The check panicked and was isolated; the rest of the run is
    /// unaffected.
    JobPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl CheckResult {
    /// True for [`CheckResult::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, CheckResult::Holds)
    }

    /// True for [`CheckResult::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, CheckResult::Unknown { .. })
    }

    /// True for [`CheckResult::JobPanicked`].
    pub fn is_panicked(&self) -> bool {
        matches!(self, CheckResult::JobPanicked { .. })
    }

    /// Stable lowercase tag, used in trace spans and the journal.
    pub fn tag(&self) -> &'static str {
        match self {
            CheckResult::Holds => "holds",
            CheckResult::CounterExample(_) => "cex",
            CheckResult::FinishNotReached { .. } => "unreached",
            CheckResult::Unknown { .. } => "unknown",
            CheckResult::JobPanicked { .. } => "panicked",
        }
    }
}

/// What decided a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecidedBy {
    /// The verdict journal answered the property's content key; this
    /// run did no work for it.
    Journal,
    /// The engine's SAT checks (also for verdicts they left undecided,
    /// and for a check that panicked).
    Sat,
    /// A seeded candidate evaluated to a violation of the property's
    /// formula before any SAT check (only ever a counterexample).
    Sampling,
}

/// Per-instruction verdict with effort statistics.
#[derive(Clone, Debug)]
pub struct InstrVerdict {
    /// The atomic instruction's name.
    pub instruction: String,
    /// The outcome.
    pub result: CheckResult,
    /// What decided the outcome.
    pub decided_by: DecidedBy,
    /// Wall-clock time spent on this instruction.
    pub time: Duration,
    /// CNF size of the solver that served this instruction, measured
    /// when its check finished (cumulative over the port's engine).
    pub stats: BlastStats,
    /// How much CNF this instruction *added* to its solver. On the
    /// port's persistent engine this drops sharply after the first
    /// instruction: the blasted transition
    /// relation is reused, so later instructions pay only for their
    /// start conditions and post-state equalities.
    pub cnf_growth: BlastStats,
    /// SAT-solver effort this instruction alone cost (per-instruction
    /// deltas of the shared solver's counters; `learnt_clauses` is the
    /// delta too, saturating at zero under clause deletion).
    pub effort: SolverStats,
    /// Number of SAT checks issued for this instruction.
    pub solves: u64,
}

impl InstrVerdict {
    /// A verdict that cost this run nothing: every effort and size field
    /// is zero. This is how a journal replays a verdict
    /// it answers by content key.
    pub(crate) fn replayed(instruction: String, result: CheckResult) -> InstrVerdict {
        InstrVerdict {
            instruction,
            result,
            decided_by: DecidedBy::Journal,
            time: Duration::ZERO,
            stats: BlastStats::default(),
            cnf_growth: BlastStats::default(),
            effort: SolverStats::default(),
            solves: 0,
        }
    }
}

/// The verification report for one port.
#[derive(Clone, Debug)]
pub struct PortReport {
    /// The port's name.
    pub port: String,
    /// One verdict per atomic instruction, in declaration order.
    pub verdicts: Vec<InstrVerdict>,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Peak CNF size over all queries (the "memory usage" proxy).
    pub peak_stats: BlastStats,
    /// Aggregated solver/CNF/journal totals over the port's verdicts
    /// — the same numbers the CLI `--stats` table prints.
    pub telemetry: Telemetry,
}

/// Aggregate pass/fail/unknown tallies over a report's verdicts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Instructions whose property holds.
    pub holds: usize,
    /// Instructions with a counterexample.
    pub cex: usize,
    /// Vacuous checks (finish condition never reached).
    pub unreached: usize,
    /// Checks that exhausted their budget (or were cancelled).
    pub unknown: usize,
    /// Checks that panicked and were isolated.
    pub panicked: usize,
}

impl VerdictCounts {
    fn tally(counts: &mut VerdictCounts, verdicts: &[InstrVerdict]) {
        for v in verdicts {
            match &v.result {
                CheckResult::Holds => counts.holds += 1,
                CheckResult::CounterExample(_) => counts.cex += 1,
                CheckResult::FinishNotReached { .. } => counts.unreached += 1,
                CheckResult::Unknown { .. } => counts.unknown += 1,
                CheckResult::JobPanicked { .. } => counts.panicked += 1,
            }
        }
    }
}

impl PortReport {
    /// True if every instruction's property holds.
    pub fn all_hold(&self) -> bool {
        self.verdicts.iter().all(|v| v.result.holds())
    }

    /// Pass/fail/unknown tallies over this port's verdicts.
    pub fn counts(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        VerdictCounts::tally(&mut c, &self.verdicts);
        c
    }

    /// The first counterexample, if any.
    pub fn first_counterexample(&self) -> Option<&InstrVerdict> {
        self.verdicts
            .iter()
            .find(|v| matches!(v.result, CheckResult::CounterExample(_)))
    }

    /// Time until the first counterexample was found (the paper's
    /// "Time (bug)" column), if any.
    pub fn time_to_first_counterexample(&self) -> Option<Duration> {
        let mut acc = Duration::ZERO;
        for v in &self.verdicts {
            acc += v.time;
            if matches!(v.result, CheckResult::CounterExample(_)) {
                return Some(acc);
            }
        }
        None
    }
}

/// The verification report for a whole module-ILA.
#[derive(Clone, Debug)]
pub struct ModuleReport {
    /// The module's name.
    pub module: String,
    /// One report per port.
    pub ports: Vec<PortReport>,
    /// Aggregated totals across all ports (counters sum).
    pub telemetry: Telemetry,
}

impl ModuleReport {
    /// True if every port verifies.
    pub fn all_hold(&self) -> bool {
        self.ports.iter().all(|p| p.all_hold())
    }

    /// Pass/fail/unknown tallies across all ports.
    pub fn counts(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        for p in &self.ports {
            VerdictCounts::tally(&mut c, &p.verdicts);
        }
        c
    }

    /// Total wall-clock time across ports.
    pub fn total_time(&self) -> Duration {
        self.ports.iter().map(|p| p.total_time).sum()
    }

    /// Component-wise peak CNF size across ports.
    pub fn peak_stats(&self) -> BlastStats {
        let mut peak = BlastStats::default();
        for p in &self.ports {
            peak = peak.max(p.peak_stats);
        }
        peak
    }

    /// Time until the first counterexample across ports ("Time (bug)").
    pub fn time_to_first_counterexample(&self) -> Option<Duration> {
        let mut acc = Duration::ZERO;
        for p in &self.ports {
            for v in &p.verdicts {
                acc += v.time;
                if matches!(v.result, CheckResult::CounterExample(_)) {
                    return Some(acc);
                }
            }
        }
        None
    }

    /// Total number of instructions checked.
    pub fn instructions_checked(&self) -> usize {
        self.ports.iter().map(|p| p.verdicts.len()).sum()
    }
}

/// Options controlling a verification run.
#[derive(Clone, Debug, Default)]
pub struct VerifyOptions {
    /// End the run at the first counterexample (used for the "Time
    /// (bug)" measurement): later instructions and ports are not run.
    pub stop_at_first_cex: bool,
    /// Ignored: every run checks its instructions one after another, in
    /// declaration order, on one persistent engine per port. Kept only
    /// because perfbench still sets it.
    pub jobs: Option<usize>,
    /// Telemetry tracer; every unroll/blast/solve/instruction/port
    /// event of the run is emitted through it. Defaults to the
    /// disabled (no-op) tracer, which costs one branch per event site.
    pub tracer: Tracer,
    /// Per-check resource budget. Unbounded by default; with a limit
    /// set, a check that exhausts it reports [`CheckResult::Unknown`] instead
    /// of running forever.
    pub budget: SolveBudget,
    /// Test-only fault injection: panics and forced unknowns per
    /// (port, instruction). `None` (the default) injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// The verdict journal ([`ProofCache`]). Every property is keyed by
    /// its content ([`crate::slice_keys`]); properties the journal
    /// answers are credited without solving (relabelled to the current
    /// instruction name, with zero effort), and every freshly decided
    /// verdict is journaled as it lands. Undecided outcomes are never
    /// journaled. `None` (the default) solves everything.
    pub journal: Option<Arc<ProofCache>>,
    /// External cancellation: when this token is cancelled (by a
    /// disconnecting client, a watchdog, or any other supervisor), every
    /// engine of the run fast-fails its remaining solves with
    /// [`CheckResult::Unknown`] (`reason: cancelled`). `None` (the
    /// default): nothing outside the run cancels it.
    pub cancel: Option<CancelToken>,
}

/// What every check of a run reads: its options, and its plans, whose
/// unsliced system content keys are read from.
struct RunCtx<'t> {
    opts: &'t VerifyOptions,
    planned: &'t Planned<'t>,
}

impl<'t> RunCtx<'t> {
    fn new(opts: &'t VerifyOptions, planned: &'t Planned<'t>) -> Self {
        RunCtx { opts, planned }
    }

    /// The content key of every instruction of `plan`, in declaration
    /// order.
    fn keys(&self, plan: &PortPlan<'_>) -> Vec<String> {
        port_keys(self.planned, plan)
    }
}

/// One port's state in a run, indexed like its plan's instructions.
#[derive(Default)]
struct PortState {
    /// The content key of every instruction: filled when the run starts
    /// with a journal, else on the port's first sampled check.
    keys: Vec<String>,
    /// With a journal, its verdict for every instruction it answered.
    replayed: Option<Vec<Option<InstrVerdict>>>,
    /// Whether a check of this run found a counterexample for the port,
    /// which opens falsification for its later checks.
    refuted: bool,
}

impl PortState {
    /// `plan`'s state at the start of a run. With a journal, every
    /// property of the port is keyed and looked up, emitting one
    /// `cache_hit` or `cache_miss` event per property.
    fn new(plan: &PortPlan<'_>, ctx: &RunCtx<'_>) -> PortState {
        let Some(journal) = ctx.opts.journal.as_deref() else {
            return PortState::default();
        };
        let keys = ctx.keys(plan);
        let replayed = plan
            .port
            .instructions()
            .iter()
            .zip(&keys)
            .map(|(instr, key)| {
                let hit = journal.lookup(key);
                ctx.opts.tracer.record(|| {
                    let kind = if hit.is_some() {
                        SpanKind::CacheHit
                    } else {
                        SpanKind::CacheMiss
                    };
                    Event::new(kind).port(plan.port.name()).instruction(&instr.name)
                });
                // The key is semantic: a verdict journaled under another
                // name answers this instruction too.
                hit.map(|(_, v)| InstrVerdict::replayed(instr.name.clone(), v.result))
            })
            .collect();
        PortState {
            keys,
            replayed: Some(replayed),
            refuted: false,
        }
    }

    /// The journal's verdicts for the port in declaration order, when it
    /// answered every instruction; cut after the first counterexample
    /// under `stop_at_first_cex`, as [`run_port`] does. Such a port needs
    /// no slice.
    fn replayed_port(&self, stop_at_first_cex: bool) -> Option<Vec<InstrVerdict>> {
        let mut verdicts: Vec<InstrVerdict> =
            self.replayed.as_ref()?.iter().cloned().collect::<Option<_>>()?;
        if stop_at_first_cex {
            let first_cex = verdicts
                .iter()
                .position(|v| matches!(v.result, CheckResult::CounterExample(_)));
            if let Some(i) = first_cex {
                verdicts.truncate(i + 1);
            }
        }
        Some(verdicts)
    }

    /// The sampling seed of instruction `idx` of `plan`: the leading 64
    /// bits of its content key, so the same property draws the same
    /// candidates in every run and under every name.
    fn seed(&mut self, plan: &PortPlan<'_>, idx: usize, ctx: &RunCtx<'_>) -> u64 {
        if self.keys.is_empty() {
            self.keys = ctx.keys(plan);
        }
        u64::from_str_radix(&self.keys[idx][..16], 16).expect("content keys are hex")
    }

    /// Adds the port's journal lookups to its telemetry.
    fn add_cache_telemetry(&self, t: &mut Telemetry) {
        if let Some(replayed) = &self.replayed {
            let hits = replayed.iter().flatten().count() as u64;
            t.cache_hits += hits;
            t.cache_misses += replayed.len() as u64 - hits;
        }
    }
}

/// A port's persistent verification state: a single unrolling of the
/// port's sliced transition system and a single incremental solver that
/// accumulates the blasted transition relation and learned clauses
/// across every instruction of the port. Per-instruction
/// conditions live in solver scopes ([`SmtSolver::push_scope`]) so they
/// retract without discarding the CNF.
struct PortEngine {
    u: Unrolling,
    smt: SmtSolver,
}

impl PortEngine {
    /// A fresh engine over `ts` with nothing blasted yet. The tracer
    /// receives the engine's unrolling events, and a cancelled `cancel`
    /// ends the engine's solves undecided.
    fn new(ts: &TransitionSystem, tracer: &Tracer, cancel: Option<&CancelToken>) -> Self {
        let mut u = Unrolling::new(ts, false);
        u.set_tracer(tracer.clone());
        let mut smt = SmtSolver::new();
        if let Some(token) = cancel {
            smt.set_cancel(token.clone());
        }
        PortEngine { u, smt }
    }
}

/// Converts an RTL module into a transition system (same state/input
/// names) plus a map from every named signal (inputs, registers,
/// memories, wires) to its expression in the system's context.
///
/// The system's context is a copy of the module's, taken as it is: the
/// states and inputs are the module's own variables, and next-state
/// functions and signals keep their handles. So an expression over
/// `rtl`, such as a condition [`parse_rtl_expr`] parsed into it, is an
/// expression of the system too.
///
/// Useful beyond refinement checking: BMC, k-induction and BTOR2 export
/// of RTL modules all go through this conversion.
///
/// # Errors
///
/// [`VerifyError::MalformedRtl`] if the module is internally
/// inconsistent — an init value whose sort disagrees with its signal,
/// or a next-state function for a signal the module never declared.
pub fn rtl_to_ts(
    rtl: &RtlModule,
) -> Result<(TransitionSystem, BTreeMap<String, ExprRef>), VerifyError> {
    let signals = rtl
        .inputs()
        .iter()
        .map(|i| (i.name.clone(), i.var))
        .chain(rtl.regs().iter().map(|r| (r.name.clone(), r.var)))
        .chain(rtl.mems().iter().map(|m| (m.name.clone(), m.var)))
        .chain(rtl.signals().iter().map(|s| (s.name.clone(), s.expr)))
        .collect();
    Ok((into_ts(rtl.clone())?, signals))
}

/// The transition system of `rtl`, which takes over the module's
/// expression context ([`rtl_to_ts`]).
pub(crate) fn into_ts(mut rtl: RtlModule) -> Result<TransitionSystem, VerifyError> {
    let malformed = |what: &str, name: &str, e: &dyn fmt::Display| VerifyError::MalformedRtl {
        reason: format!("{what} of {name:?}: {e}"),
    };
    let mut ts = TransitionSystem::new(rtl.name());
    *ts.ctx_mut() = std::mem::take(rtl.ctx_mut());
    for i in rtl.inputs() {
        ts.input(i.name.clone(), Sort::Bv(i.width));
    }
    for r in rtl.regs() {
        ts.state(r.name.clone(), Sort::Bv(r.width));
        if let Some(init) = &r.init {
            ts.set_init(&r.name, init.clone())
                .map_err(|e| malformed("init value", &r.name, &e))?;
        }
    }
    for m in rtl.mems() {
        ts.state(
            m.name.clone(),
            Sort::Mem {
                addr_width: m.addr_width,
                data_width: m.data_width,
            },
        );
        if let Some(init) = &m.init {
            ts.set_init(&m.name, init.clone())
                .map_err(|e| malformed("init value", &m.name, &e))?;
        }
    }
    let nexts = rtl.regs().iter().map(|r| (&r.name, r.next));
    for (name, next) in nexts.chain(rtl.mems().iter().map(|m| (&m.name, m.next))) {
        ts.set_next(name, next)
            .map_err(|e| malformed("next-state function", name, &e))?;
    }
    Ok(ts)
}

/// Everything about one instruction that can be computed before any
/// solver exists.
pub(crate) struct InstrPlan {
    /// Unrolling depth (the finish cycle, or the `Condition` bound).
    pub(crate) bound: usize,
    /// Parsed finish condition, an expression of [`Planned::ts`].
    pub(crate) finish_expr: Option<ExprRef>,
    /// Parsed start strengthening, an expression of [`Planned::ts`].
    pub(crate) strengthening: Option<ExprRef>,
    pub(crate) input_policy: InputPolicy,
}

/// A port's verification work, planned once and then executed by any
/// number of engines: mapped signals resolved, and every Verilog
/// condition string (invariants, strengthenings, finish conditions)
/// parsed exactly once, all as expressions of its [`Planned::ts`].
pub(crate) struct PortPlan<'a> {
    pub(crate) port: &'a PortIla,
    pub(crate) map: &'a RefinementMap,
    /// `(ila state, ts expr, ila sort)` per state-map entry.
    pub(crate) mapped_states: Vec<(String, ExprRef, Sort)>,
    /// `(ila input, ts expr, ila sort)` per interface-map entry.
    pub(crate) mapped_inputs: Vec<(String, ExprRef, Sort)>,
    /// Parsed invariants.
    pub(crate) invariants: Vec<ExprRef>,
    pub(crate) instrs: Vec<InstrPlan>,
}

impl<'a> PortPlan<'a> {
    /// Resolves the refinement map against `rtl`'s declarations and
    /// parses all its condition strings into `rtl`, the copy of the RTL
    /// that becomes the [`Planned::ts`].
    fn build(
        port: &'a PortIla,
        rtl: &mut RtlModule,
        map: &'a RefinementMap,
    ) -> Result<Self, VerifyError> {
        let lookup_signal = |rtl: &RtlModule, name: &str, context: &str| {
            rtl.signal_expr(name).ok_or_else(|| VerifyError::UnknownRtlSignal {
                signal: name.to_string(),
                context: context.to_string(),
            })
        };

        let mut mapped_states: Vec<(String, ExprRef, Sort)> = Vec::new();
        for (ila_state, rtl_name) in &map.state_map {
            let sv = port.find_state(ila_state).ok_or_else(|| {
                VerifyError::UnknownRtlSignal {
                    signal: ila_state.clone(),
                    context: format!("state map of {}: no such ILA state", map.name),
                }
            })?;
            let e = lookup_signal(rtl, rtl_name, "state map")?;
            mapped_states.push((ila_state.clone(), e, sv.sort));
        }
        let mut mapped_inputs: Vec<(String, ExprRef, Sort)> = Vec::new();
        for (ila_input, rtl_name) in &map.interface_map {
            let iv = port.find_input(ila_input).ok_or_else(|| {
                VerifyError::UnknownRtlSignal {
                    signal: ila_input.clone(),
                    context: format!("interface map of {}: no such ILA input", map.name),
                }
            })?;
            let e = lookup_signal(rtl, rtl_name, "interface map")?;
            mapped_inputs.push((ila_input.clone(), e, iv.sort));
        }

        // Parse every condition string once (parsing needs &mut for
        // expression interning).
        let invariants = map
            .invariants
            .iter()
            .map(|inv| parse_rtl_expr(rtl, inv))
            .collect::<Result<_, _>>()?;
        let mut instrs = Vec::new();
        for instr in port.instructions() {
            let imap = map.instruction_map_for(&instr.name);
            let (bound, finish_src) = match &imap.finish {
                FinishCondition::Cycles(n) => {
                    if *n == 0 {
                        return Err(VerifyError::BadBound);
                    }
                    (*n, None)
                }
                FinishCondition::Condition { expr, max_cycles } => {
                    if *max_cycles == 0 {
                        return Err(VerifyError::BadBound);
                    }
                    (*max_cycles, Some(expr))
                }
            };
            let finish_expr = finish_src.map(|s| parse_rtl_expr(rtl, s)).transpose()?;
            let strengthening = imap
                .start_strengthening
                .as_ref()
                .map(|s| parse_rtl_expr(rtl, s))
                .transpose()?;
            instrs.push(InstrPlan {
                bound,
                finish_expr,
                strengthening,
                input_policy: imap.input_policy,
            });
        }
        Ok(PortPlan {
            port,
            map,
            mapped_states,
            mapped_inputs,
            invariants,
            instrs,
        })
    }
}

/// Every target of a call, planned once on one copy of the RTL: the
/// map's conditions are parsed into the copy, which then becomes the
/// call's one transition system, and one [`PortPlan`] per `(port, map)`
/// target, in declaration order. Journal keys, slices and dispatch all
/// read these; nothing else on the verification path builds a
/// transition system or a plan.
pub(crate) struct Planned<'a> {
    /// The unsliced system of the RTL ([`rtl_to_ts`]), whose context
    /// holds every plan's parsed conditions.
    pub(crate) ts: TransitionSystem,
    pub(crate) plans: Vec<PortPlan<'a>>,
}

impl<'a> Planned<'a> {
    /// Plans `targets` against `rtl`.
    pub(crate) fn new(
        targets: &[(&'a PortIla, &'a RefinementMap)],
        rtl: &RtlModule,
    ) -> Result<Self, VerifyError> {
        let mut rtl = rtl.clone();
        let plans = targets
            .iter()
            .map(|&(port, map)| PortPlan::build(port, &mut rtl, map))
            .collect::<Result<_, _>>()?;
        Ok(Planned {
            ts: into_ts(rtl)?,
            plans,
        })
    }

    /// Plans every port of `module`, each with its map ([`map_for`]).
    pub(crate) fn module(
        module: &'a ModuleIla,
        rtl: &RtlModule,
        maps: &'a [RefinementMap],
    ) -> Result<Self, VerifyError> {
        let targets = module
            .ports()
            .iter()
            .map(|port| Ok((port, map_for(maps, port)?)))
            .collect::<Result<Vec<_>, VerifyError>>()?;
        Planned::new(&targets, rtl)
    }
}

/// Checks one planned instruction on the given engine; `t0` is when
/// the check started.
///
/// The engine's unrolling is extended to the instruction's bound (a
/// no-op if a previous instruction already went deeper — re-extension
/// after rollback is bit-identical, see [`Unrolling::rollback_to`]),
/// and all per-instruction conditions are confined to one solver scope
/// so they retract afterwards while the blasted CNF stays cached. On
/// error the engine is restored, so it can serve the port's next check.
fn check_instruction_planned(
    plan: &PortPlan<'_>,
    idx: usize,
    engine: &mut PortEngine,
    state: &mut PortState,
    ctx: &RunCtx<'_>,
    t0: Instant,
) -> Result<InstrVerdict, VerifyError> {
    let instr = &plan.port.instructions()[idx];
    let opts = ctx.opts;
    let tracer = &opts.tracer;

    // Test-only fault injection. An injected panic exercises the
    // run's panic isolation; a forced unknown swaps this check's budget
    // for an already-expired deadline, so the Unknown flows through the
    // real resource-out machinery instead of being faked here.
    let mut budget = opts.budget;
    if let Some(fault) = opts.fault_plan.as_deref() {
        match fault.fire(plan.port.name(), &instr.name) {
            Some(FaultAction::Panic(msg)) => panic!("injected fault: {msg}"),
            Some(FaultAction::ForceUnknown) => {
                budget = SolveBudget {
                    conflicts: None,
                    timeout: Some(Duration::ZERO),
                };
            }
            None => {}
        }
    }

    let before = engine.smt.stats();
    let sat_before = engine.smt.sat_stats();
    let mut tally = CheckTally::default();
    engine.smt.set_limits(budget.to_limits());
    let snap = engine.u.snapshot();
    engine.u.extend_to(plan.instrs[idx].bound);
    let prop = match timed(&mut tally.property, || {
        Property::build(plan, idx, &mut engine.u)
    }) {
        Ok(prop) => prop,
        Err(e) => {
            engine.smt.set_limits(SolveLimits::default());
            engine.u.rollback_to(snap);
            return Err(e);
        }
    };
    engine.smt.push_scope();
    let checked = check_instruction_inner(plan, idx, &prop, engine, state, ctx, &mut tally);
    engine.smt.pop_scope();
    engine.smt.set_limits(SolveLimits::default());
    let (result, decided_by) = match checked {
        Ok(decided) => decided,
        Err(reason) => {
            let spent = engine.smt.sat_stats().since(sat_before);
            tracer.record(|| {
                Event::new(SpanKind::BudgetExhausted)
                    .port(plan.port.name())
                    .instruction(&instr.name)
                    .label(reason.as_str())
                    .field("conflicts", spent.conflicts)
            });
            let result = CheckResult::Unknown {
                reason,
                budget_spent: BudgetSpent {
                    conflicts: spent.conflicts,
                    propagations: spent.propagations,
                    wall: t0.elapsed(),
                },
            };
            (result, DecidedBy::Sat)
        }
    };
    if matches!(result, CheckResult::CounterExample(_)) {
        state.refuted = true;
    }
    let stats = engine.smt.stats();
    let sat_after = engine.smt.sat_stats();
    let mut effort = sat_after.since(sat_before);
    effort.learnt_clauses = sat_after.learnt_clauses.saturating_sub(sat_before.learnt_clauses);
    let cnf_growth = stats.since(before);
    let time = t0.elapsed();
    tracer.record(|| {
        Event::new(SpanKind::Blast)
            .port(plan.port.name())
            .instruction(&instr.name)
            .field("cnf_vars", cnf_growth.variables)
            .field("cnf_clauses", cnf_growth.clauses)
            .field("total_vars", stats.variables)
            .field("total_clauses", stats.clauses)
    });
    tracer.record(|| {
        Event::new(SpanKind::Instruction)
            .port(plan.port.name())
            .instruction(&instr.name)
            .label(result.tag())
            .field("solves", tally.solves)
            .field("facts", tally.facts)
            .field("decisions", effort.decisions)
            .field("propagations", effort.propagations)
            .field("conflicts", effort.conflicts)
            .field("learnt_clauses", effort.learnt_clauses)
            .field("cnf_vars", cnf_growth.variables)
            .field("cnf_clauses", cnf_growth.clauses)
            .field("wall_ns", time.as_nanos() as u64)
            .field("property_ns", tally.property.as_nanos() as u64)
            .field("cex_ns", tally.cex.as_nanos() as u64)
    });
    Ok(InstrVerdict {
        instruction: instr.name.clone(),
        result,
        decided_by,
        time,
        stats,
        cnf_growth,
        effort,
        solves: tally.solves,
    })
}

/// Checks instruction `idx` of `plan` with panic isolation: the check
/// is wrapped in [`catch_unwind`], and a panicking check becomes a
/// [`CheckResult::JobPanicked`] verdict instead of tearing down the
/// run. The port's engine over its sliced system `ts` is built on the
/// port's first check and discarded on panic (its solver may have been
/// mid-update), so `engine_slot` comes back `None` and the next check
/// rebuilds it.
fn check_guarded(
    plan: &PortPlan<'_>,
    idx: usize,
    ts: &TransitionSystem,
    engine_slot: &mut Option<PortEngine>,
    state: &mut PortState,
    ctx: &RunCtx<'_>,
) -> Result<InstrVerdict, VerifyError> {
    let tracer = &ctx.opts.tracer;
    let engine = engine_slot
        .get_or_insert_with(|| PortEngine::new(ts, tracer, ctx.opts.cancel.as_ref()));
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        check_instruction_planned(plan, idx, engine, state, ctx, t0)
    }));
    match outcome {
        Ok(res) => res,
        Err(payload) => {
            *engine_slot = None;
            let message = panic_message(payload.as_ref());
            let instr = &plan.port.instructions()[idx].name;
            tracer.record(|| {
                Event::new(SpanKind::Panic)
                    .port(plan.port.name())
                    .instruction(instr)
                    .label(&message)
            });
            Ok(InstrVerdict {
                instruction: instr.clone(),
                result: CheckResult::JobPanicked { message },
                decided_by: DecidedBy::Sat,
                time: t0.elapsed(),
                stats: BlastStats::default(),
                cnf_growth: BlastStats::default(),
                effort: SolverStats::default(),
                solves: 0,
            })
        }
    }
}

/// The human-readable part of a panic payload, when there is one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One instruction's refinement property (Fig. 5) over an unrolling:
/// the antecedent conjuncts and the ILA post-state the RTL must match.
struct Property {
    /// Decode, invariants and start strengthening, at frame 0.
    start: Vec<ExprRef>,
    /// Input-policy equalities (frames `1..bound` hold frame 0's inputs).
    policy: Vec<ExprRef>,
    /// ILA post-state per mapped state.
    ila_post: BTreeMap<String, ExprRef>,
    /// The finish condition of a `Condition` finish.
    finish: Option<ExprRef>,
}

impl Property {
    /// Builds instruction `idx`'s property over `u`, which must already
    /// reach the instruction's bound.
    fn build(plan: &PortPlan<'_>, idx: usize, u: &mut Unrolling) -> Result<Property, VerifyError> {
        let port = plan.port;
        let map = plan.map;
        let instr = &port.instructions()[idx];
        let ip = &plan.instrs[idx];

        // ILA variable -> frame-0 product expression.
        let mut var_map = ExprMap::default();
        let adapt = |u: &mut Unrolling,
                     ila_name: &str,
                     ila_sort: Sort,
                     ts_expr: ExprRef,
                     rtl_name: &str|
         -> Result<ExprRef, VerifyError> {
            let mapped = u.map_expr(0, ts_expr);
            let found = u.ctx().sort_of(mapped);
            match (ila_sort, found) {
                (a, b) if a == b => Ok(mapped),
                (Sort::Bool, Sort::Bv(1)) => Ok(u.ctx_mut().bv_to_bool(mapped)),
                (a, b) => Err(VerifyError::SortMismatch {
                    ila: ila_name.to_string(),
                    ila_sort: a,
                    rtl: rtl_name.to_string(),
                    rtl_sort: b,
                }),
            }
        };
        for (ila_state, ts_expr, ila_sort) in &plan.mapped_states {
            let rtl_name = &map.state_map[ila_state];
            let e = adapt(u, ila_state, *ila_sort, *ts_expr, rtl_name)?;
            let v = port.find_state(ila_state).expect("resolved in plan").var;
            var_map.insert(v, e);
        }
        for (ila_input, ts_expr, ila_sort) in &plan.mapped_inputs {
            let rtl_name = &map.interface_map[ila_input];
            let e = adapt(u, ila_input, *ila_sort, *ts_expr, rtl_name)?;
            let v = port.find_input(ila_input).expect("resolved in plan").var;
            var_map.insert(v, e);
        }

        // Start condition: decode (grafted onto frame 0) + invariants +
        // optional strengthening, all pre-parsed in the plan.
        let unmapped = |var| VerifyError::UnmappedIlaVar {
            var,
            instruction: instr.name.clone(),
        };
        let mut import_memo = ExprMap::default();
        let decode0 = import_mapped(
            u.ctx_mut(),
            port.ctx(),
            instr.decode,
            &var_map,
            &mut import_memo,
        )
        .map_err(unmapped)?;
        let mut start = vec![decode0];
        for &c in plan.invariants.iter().chain(&ip.strengthening) {
            let c0 = u.map_expr(0, c);
            start.push(u.ctx_mut().bv_to_bool(c0));
        }

        // Input policy.
        let mut policy = Vec::new();
        if ip.input_policy == InputPolicy::Hold {
            for k in 1..ip.bound {
                let names: Vec<String> = u.frames()[k].inputs.keys().cloned().collect();
                for n in names {
                    let ik = u.frames()[k].inputs[&n];
                    let i0 = u.frames()[0].inputs[&n];
                    policy.push(u.ctx_mut().eq(ik, i0));
                }
            }
        }

        // ILA post-state per mapped state.
        let mut ila_post: BTreeMap<String, ExprRef> = BTreeMap::new();
        for (ila_state, _, _) in &plan.mapped_states {
            let e = match instr.updates.get(ila_state) {
                Some(&upd) => {
                    import_mapped(u.ctx_mut(), port.ctx(), upd, &var_map, &mut import_memo)
                        .map_err(unmapped)?
                }
                None => {
                    let v = port.find_state(ila_state).expect("resolved").var;
                    var_map[&v]
                }
            };
            ila_post.insert(ila_state.clone(), e);
        }

        Ok(Property {
            start,
            policy,
            ila_post,
            finish: ip.finish_expr,
        })
    }

    /// The post-equalities at `frame`, one per checked mapped state
    /// (pre-state-only entries are excluded; they anchor the start
    /// correspondence only), and the violation: their negated
    /// conjunction.
    fn violation_at(
        &self,
        plan: &PortPlan<'_>,
        u: &mut Unrolling,
        frame: usize,
    ) -> (Vec<(String, ExprRef)>, ExprRef) {
        let eqs: Vec<(String, ExprRef)> = plan
            .mapped_states
            .iter()
            .filter(|(ila_state, _, _)| !plan.map.unchecked_states.contains(ila_state))
            .map(|(ila_state, ts_expr, ila_sort)| {
                let rtl_f = u.map_expr(frame, *ts_expr);
                let rtl_f = match (ila_sort, u.ctx().sort_of(rtl_f)) {
                    (Sort::Bool, Sort::Bv(1)) => u.ctx_mut().bv_to_bool(rtl_f),
                    _ => rtl_f,
                };
                let eq = u.ctx_mut().eq(self.ila_post[ila_state], rtl_f);
                (ila_state.clone(), eq)
            })
            .collect();
        let eq_exprs: Vec<ExprRef> = eqs.iter().map(|(_, e)| *e).collect();
        let all_eq = u.ctx_mut().and_many(&eq_exprs);
        let viol = u.ctx_mut().not(all_eq);
        (eqs, viol)
    }

    /// [`Property::violation_at`] rewritten by `cof`: the post-equalities
    /// and the violation, then the plain violation.
    fn cofactored_violation(
        &self,
        plan: &PortPlan<'_>,
        u: &mut Unrolling,
        cof: &mut Cofactor,
        frame: usize,
    ) -> (Vec<(String, ExprRef)>, ExprRef, ExprRef) {
        let (eqs, plain) = self.violation_at(plan, u, frame);
        let eqs = eqs
            .into_iter()
            .map(|(name, eq)| (name, cof.apply(u.ctx_mut(), eq)))
            .collect();
        (eqs, cof.apply(u.ctx_mut(), plain), plain)
    }

    /// For a `Condition` finish, the assumptions that the instruction
    /// finishes first at frame `j`: the condition fails at every frame
    /// `1..j` and holds at `j`.
    fn finishes_at(cond: ExprRef, u: &mut Unrolling, j: usize) -> Vec<ExprRef> {
        let mut assumptions = Vec::new();
        for k in 1..j {
            let ck = u.map_expr(k, cond);
            let cb = u.ctx_mut().bv_to_bool(ck);
            assumptions.push(u.ctx_mut().not(cb));
        }
        let cj = u.map_expr(j, cond);
        assumptions.push(u.ctx_mut().bv_to_bool(cj));
        assumptions
    }

    /// The counterexample an assignment describes, with the violation
    /// found at `frame`: `value_of` gives each variable's value, and
    /// unbound variables default as in [`Unrolling::concretize`]. Every
    /// reported value comes from one evaluation pass over all of them.
    fn counterexample(
        &self,
        u: &Unrolling,
        frame: usize,
        eqs: &[(String, ExprRef)],
        value_of: &dyn Fn(ExprRef) -> Option<Value>,
    ) -> RefinementCex {
        let frames = &u.frames()[..=frame];
        let roots: Vec<ExprRef> = eqs
            .iter()
            .map(|(_, e)| *e)
            .chain(
                frames[..frame]
                    .iter()
                    .flat_map(|f| f.inputs.values().copied()),
            )
            .chain(frames.iter().flat_map(|f| f.states.values().copied()))
            .chain(self.ila_post.values().copied())
            .collect();
        let mut values = eval_all(u.ctx(), &roots, value_of).into_iter();
        let mut named = |names: &mut dyn Iterator<Item = &String>| -> BTreeMap<String, Value> {
            names.cloned().zip(values.by_ref()).collect()
        };
        // Diagnose which states mismatch.
        let mismatched = named(&mut eqs.iter().map(|(n, _)| n))
            .into_iter()
            .filter(|(_, v)| !v.as_bool())
            .map(|(n, _)| n)
            .collect();
        let rtl_inputs = frames[..frame]
            .iter()
            .map(|f| named(&mut f.inputs.keys()))
            .collect();
        let rtl_trace: Vec<_> = frames.iter().map(|f| named(&mut f.states.keys())).collect();
        RefinementCex {
            finish_cycle: frame,
            rtl_start_state: rtl_trace[0].clone(),
            rtl_inputs,
            rtl_finish_state: rtl_trace[frame].clone(),
            rtl_trace,
            ila_post_state: named(&mut self.ila_post.keys()),
            mismatched_states: mismatched,
        }
    }
}

/// What one instruction's checks spent, for its verdict and its
/// `instruction` span.
#[derive(Default)]
struct CheckTally {
    /// SAT checks run.
    solves: u64,
    /// Facts the check's formulas were cofactored by.
    facts: u64,
    /// Building the check's formulas: the property, and its violation
    /// and finish-condition formulas.
    property: Duration,
    /// Building the counterexample, when there is one.
    cex: Duration,
}

/// Runs `f`, adding its wall time to `spent`.
fn timed<T>(spent: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *spent += t0.elapsed();
    out
}

/// The body of [`check_instruction_planned`], deciding the property
/// `prop` of instruction `idx`. It runs inside an open solver scope, so
/// every early return still retracts its asserts; `Err` is the resource
/// a SAT check ran out of. Once the port is refuted, a `Cycles` finish
/// first tries seeded candidates on the check's formula
/// ([`crate::falsify`]) and reports the first violation it evaluates to
/// without a SAT call.
fn check_instruction_inner(
    plan: &PortPlan<'_>,
    idx: usize,
    prop: &Property,
    engine: &mut PortEngine,
    state: &mut PortState,
    ctx: &RunCtx<'_>,
    tally: &mut CheckTally,
) -> Result<(CheckResult, DecidedBy), ResourceOut> {
    let PortEngine { u, smt } = engine;
    let port = plan.port;
    let instr = &port.instructions()[idx];
    let ip = &plan.instrs[idx];
    let bound = ip.bound;
    let tracer = &ctx.opts.tracer;
    // Every formula of the check is cofactored by the constants its
    // antecedent fixes: the facts, then the rewritten conjuncts, make up
    // the antecedent that sampling evaluates and SAT asserts.
    let plain_pre: Vec<ExprRef> = prop.start.iter().chain(&prop.policy).copied().collect();
    let (mut cof, pre) = timed(&mut tally.property, || {
        let (cof, rewritten) = cofactor(u.ctx_mut(), &plain_pre);
        let pre: Vec<ExprRef> = cof.facts().iter().copied().chain(rewritten).collect();
        (cof, pre)
    });
    tally.facts = cof.facts().len() as u64;

    // A `Cycles` finish is one formula: the antecedent conjuncts plus the
    // violation at the bound, built once for sampling and SAT alike.
    let mut at_bound = timed(&mut tally.property, || {
        prop.finish
            .is_none()
            .then(|| prop.cofactored_violation(plan, u, &mut cof, bound))
    });
    // Falsification runs only once the port is known to be wrong: on
    // fixed RTL it could never succeed.
    if let (Some((eqs, viol, plain_viol)), true) = (&at_bound, state.refuted) {
        // Out of time or cancelled: leave the `Unknown` to SAT.
        if smt.resources_exhausted().is_none() {
            let t0 = Instant::now();
            let formula = Formula {
                pre: &pre,
                viol: *viol,
                plain_pre: &plain_pre,
                plain_viol: *plain_viol,
                bound,
                hold: ip.input_policy == InputPolicy::Hold,
            };
            let (witness, drawn) = falsify(u, &formula, state.seed(plan, idx, ctx));
            tracer.record(|| {
                Event::new(SpanKind::Falsify)
                    .port(port.name())
                    .instruction(&instr.name)
                    .field("drawn", drawn.drawn)
                    .field("passed_pre", drawn.passed_pre)
                    .field("accepted", witness.is_some() as u64)
                    .field("wall_ns", t0.elapsed().as_nanos() as u64)
            });
            if let Some(w) = witness {
                let cex = timed(&mut tally.cex, || {
                    prop.counterexample(u, bound, eqs, &|v| w.value_of(v))
                });
                return Ok((
                    CheckResult::CounterExample(Box::new(cex)),
                    DecidedBy::Sampling,
                ));
            }
        }
    }

    // The caller opened a scope for us: assert the per-instruction
    // conditions there (retracted on pop, CNF kept). Per-frame cases
    // then differ only in their assumption lists.
    for &c in &pre {
        smt.assert(u.ctx(), c);
    }

    let frames_to_check: Vec<(usize, Vec<ExprRef>)> = match prop.finish {
        None => vec![(bound, Vec::new())],
        // Check at the first frame where the condition holds; one query
        // per candidate frame.
        Some(cond) => timed(&mut tally.property, || {
            (1..=bound)
                .map(|j| {
                    let finish = Property::finishes_at(cond, u, j);
                    (j, finish.into_iter().map(|a| cof.apply(u.ctx_mut(), a)).collect())
                })
                .collect()
        }),
    };

    // One SAT check, counted and traced: whether it found a model, or
    // the resource it ran out of.
    let solve = |smt: &mut SmtSolver,
                 u: &Unrolling,
                 solves: &mut u64,
                 label: &str,
                 frame: usize,
                 assumptions: &[ExprRef]| {
        let r = smt.check_assuming(u.ctx(), assumptions);
        *solves += 1;
        record_solve(smt, tracer, port.name(), &instr.name, label, frame, r.is_sat());
        match r {
            SmtResult::Unknown(reason) => Err(reason),
            r => Ok(r.is_sat()),
        }
    };
    let mut result = CheckResult::Holds;
    let mut finish_reachable = prop.finish.is_none();
    for (frame, extra_assumptions) in frames_to_check {
        // Check that this case is reachable at all (for Condition
        // finishes); unreachable cases are skipped.
        if prop.finish.is_some() {
            if !solve(smt, u, &mut tally.solves, "reach", frame, &extra_assumptions)? {
                continue;
            }
            finish_reachable = true;
        }
        let (eqs, viol, _) = match at_bound.take() {
            Some(formula) => formula,
            None => timed(&mut tally.property, || {
                prop.cofactored_violation(plan, u, &mut cof, frame)
            }),
        };
        let mut assumptions = extra_assumptions;
        assumptions.push(viol);
        if solve(smt, u, &mut tally.solves, "violation", frame, &assumptions)? {
            let cex = timed(&mut tally.cex, || {
                prop.counterexample(u, frame, &eqs, &|v| smt.try_model_value(u.ctx(), v))
            });
            result = CheckResult::CounterExample(Box::new(cex));
            break;
        }
    }
    if !finish_reachable && result.holds() {
        result = CheckResult::FinishNotReached { max_cycles: bound };
    }
    Ok((result, DecidedBy::Sat))
}

/// Emits one `solve` span for a completed SAT check: its per-call
/// solver effort, incremental CNF delta, and the wall time of its SAT
/// calls and array-lemma rounds. The closure only runs when tracing is
/// enabled.
#[allow(clippy::too_many_arguments)]
fn record_solve(
    smt: &SmtSolver,
    tracer: &Tracer,
    port: &str,
    instr: &str,
    label: &str,
    frame: usize,
    sat: bool,
) {
    tracer.record(|| {
        let effort = smt.last_check_effort();
        let cnf = smt.last_check_cnf_delta();
        Event::new(SpanKind::Solve)
            .port(port)
            .instruction(instr)
            .label(label)
            .field("frame", frame as u64)
            .field("sat", sat as u64)
            .field("decisions", effort.decisions)
            .field("propagations", effort.propagations)
            .field("conflicts", effort.conflicts)
            .field("cnf_vars", cnf.variables)
            .field("cnf_clauses", cnf.clauses)
            .field("wall_ns", smt.last_check_wall().as_nanos() as u64)
    });
}

/// Runs a port's instructions in declaration order on one persistent
/// engine over the port's sliced system `ts`. Instructions the journal
/// answered are not re-run, and every fresh verdict is journaled under
/// its content key (the journal ignores undecided ones); a panicking
/// check is isolated ([`check_guarded`]) and costs only a rebuild of
/// the engine.
fn run_port(
    plan: &PortPlan<'_>,
    ts: &TransitionSystem,
    state: &mut PortState,
    ctx: &RunCtx<'_>,
) -> Result<Vec<InstrVerdict>, VerifyError> {
    let mut engine: Option<PortEngine> = None;
    let mut verdicts = Vec::new();
    for idx in 0..plan.instrs.len() {
        let replayed = state.replayed.as_ref().and_then(|r| r[idx].clone());
        let v = match replayed {
            Some(v) => v,
            None => {
                let v = check_guarded(plan, idx, ts, &mut engine, state, ctx)?;
                if let Some(journal) = ctx.opts.journal.as_deref() {
                    journal.insert(&state.keys[idx], plan.port.name(), &v);
                }
                v
            }
        };
        let is_cex = matches!(v.result, CheckResult::CounterExample(_));
        verdicts.push(v);
        if is_cex && ctx.opts.stop_at_first_cex {
            break;
        }
    }
    Ok(verdicts)
}

fn peak_of(verdicts: &[InstrVerdict]) -> BlastStats {
    let mut peak = BlastStats::default();
    for v in verdicts {
        peak = peak.max(v.stats);
    }
    peak
}

/// Sums a verdict slice into the telemetry totals. `workers` reads 1:
/// every run has the one execution path.
fn telemetry_of(verdicts: &[InstrVerdict]) -> Telemetry {
    let mut t = Telemetry {
        workers: 1,
        ..Telemetry::default()
    };
    for v in verdicts {
        t.instructions += 1;
        t.solves += v.solves;
        t.decisions += v.effort.decisions;
        t.propagations += v.effort.propagations;
        t.conflicts += v.effort.conflicts;
        t.learnt_clauses += v.effort.learnt_clauses;
        t.cnf_vars += v.cnf_growth.variables;
        t.cnf_clauses += v.cnf_growth.clauses;
        t.wall_ns += v.time.as_nanos() as u64;
        t.falsified += (v.decided_by == DecidedBy::Sampling) as u64;
        match &v.result {
            CheckResult::Unknown { budget_spent, .. } => {
                t.unknown += 1;
                t.budget_spent_conflicts += budget_spent.conflicts;
            }
            CheckResult::JobPanicked { .. } => t.panicked += 1,
            _ => {}
        }
    }
    t
}

/// Every transition-system expression the checks of `instrs` (all of a
/// port plan's instructions, or one of them) will instantiate over the
/// unrolling — the root set for cone-of-influence slicing.
///
/// The mapped state/input expressions and the parsed conditions
/// (invariants, strengthenings, finish conditions) are all expressions
/// of the system, so each is a root as it is.
pub(crate) fn coi_roots(plan: &PortPlan<'_>, instrs: &[InstrPlan]) -> Vec<ExprRef> {
    let mapped = plan.mapped_states.iter().chain(&plan.mapped_inputs);
    let mut roots: Vec<ExprRef> = mapped.map(|(_, e, _)| *e).collect();
    roots.extend(&plan.invariants);
    for ip in instrs {
        roots.extend(ip.finish_expr);
        roots.extend(ip.strengthening);
    }
    roots
}

/// Slices a port's cone of influence out of the run's system (a `coi`
/// span), and returns the slice the port's checks run on with what
/// slicing dropped.
fn prepare(
    planned: &Planned<'_>,
    plan: &PortPlan<'_>,
    tracer: &Tracer,
) -> (TransitionSystem, CoiStats) {
    let roots = coi_roots(plan, &plan.instrs);
    let (sliced, stats) = coi_slice(&planned.ts, &roots);
    tracer.record(|| {
        Event::new(SpanKind::Coi)
            .port(plan.port.name())
            .field("states_kept", stats.states_kept as u64)
            .field("states_dropped", stats.states_dropped as u64)
            .field("inputs_kept", stats.inputs_kept as u64)
            .field("inputs_dropped", stats.inputs_dropped as u64)
    });
    (sliced, stats)
}

/// Folds a port's verdicts into its report — telemetry, the journal
/// lookups and, for a port that ran, its slicing counts `coi` — and
/// emits the per-port summary span. Every path reports its ports here.
fn port_report(
    port: &PortIla,
    verdicts: Vec<InstrVerdict>,
    total_time: Duration,
    coi: Option<CoiStats>,
    state: &PortState,
    tracer: &Tracer,
) -> PortReport {
    let mut telemetry = telemetry_of(&verdicts);
    if let Some(s) = coi {
        telemetry.coi_states_dropped += s.states_dropped as u64;
        telemetry.coi_inputs_dropped += s.inputs_dropped as u64;
    }
    state.add_cache_telemetry(&mut telemetry);
    let report = PortReport {
        port: port.name().to_string(),
        peak_stats: peak_of(&verdicts),
        telemetry,
        verdicts,
        total_time,
    };
    tracer.record(|| {
        Event::new(SpanKind::Port)
            .port(&report.port)
            .label(if report.all_hold() { "holds" } else { "fails" })
            .field("instructions", report.verdicts.len() as u64)
            .field("solves", report.telemetry.solves)
            .field("conflicts", report.telemetry.conflicts)
            .field("wall_ns", report.total_time.as_nanos() as u64)
    });
    report
}

/// The one orchestration path behind [`verify_port`] and
/// [`verify_module`]. It keys `planned` against the journal and walks
/// the ports in declaration order: a port the journal answers in full
/// is reported from its replays alone, and any other port is sliced
/// just before it runs, so a stopped run never slices a port it does
/// not reach. Under `stop_at_first_cex` the run ends at the first port
/// that reports a counterexample, replayed or solved.
fn run(planned: &Planned<'_>, opts: &VerifyOptions) -> Result<Vec<PortReport>, VerifyError> {
    let ctx = RunCtx::new(opts, planned);
    // Every property is looked up before any port runs, so what one
    // port journals never answers a lookup later in the same run.
    let states: Vec<PortState> = planned
        .plans
        .iter()
        .map(|plan| PortState::new(plan, &ctx))
        .collect();
    let stop = opts.stop_at_first_cex;
    let tracer = &opts.tracer;
    let mut reports = Vec::with_capacity(planned.plans.len());
    for (plan, mut state) in planned.plans.iter().zip(states) {
        let report = match state.replayed_port(stop) {
            Some(verdicts) => {
                port_report(plan.port, verdicts, Duration::ZERO, None, &state, tracer)
            }
            None => {
                let t0 = Instant::now();
                let (sliced, coi) = prepare(planned, plan, tracer);
                let verdicts = run_port(plan, &sliced, &mut state, &ctx)?;
                port_report(plan.port, verdicts, t0.elapsed(), Some(coi), &state, tracer)
            }
        };
        let ends_run = stop && report.first_counterexample().is_some();
        reports.push(report);
        if ends_run {
            break;
        }
    }
    tracer.flush();
    Ok(reports)
}

/// The refinement map for `port`: the one with the port's name,
/// falling back to a map named `"*"`.
pub(crate) fn map_for<'m>(
    maps: &'m [RefinementMap],
    port: &PortIla,
) -> Result<&'m RefinementMap, VerifyError> {
    maps.iter()
        .find(|m| m.name == port.name())
        .or_else(|| maps.iter().find(|m| m.name == "*"))
        .ok_or_else(|| VerifyError::UnknownRtlSignal {
            signal: port.name().to_string(),
            context: "no refinement map for port".to_string(),
        })
}

/// Verifies one port-ILA against an RTL implementation.
///
/// # Errors
///
/// Returns a [`VerifyError`] for malformed refinement maps or RTL;
/// property *failures* are reported in the [`PortReport`], not as
/// errors.
pub fn verify_port(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    opts: &VerifyOptions,
) -> Result<PortReport, VerifyError> {
    let ports = run(&Planned::new(&[(port, map)], rtl)?, opts)?;
    ports.into_iter().next().ok_or_else(|| VerifyError::Internal {
        reason: "the run reported no result for the port".to_string(),
    })
}

/// Verifies a whole module-ILA: each port against the same RTL, using
/// the refinement map with the matching name (falling back to a map
/// named `"*"`).
///
/// # Errors
///
/// Returns a [`VerifyError`] if a port has no refinement map, or a map
/// or the RTL is malformed.
pub fn verify_module(
    module: &ModuleIla,
    rtl: &RtlModule,
    maps: &[RefinementMap],
    opts: &VerifyOptions,
) -> Result<ModuleReport, VerifyError> {
    let ports = run(&Planned::module(module, rtl, maps)?, opts)?;
    let telemetry = ports
        .iter()
        .fold(Telemetry::default(), |acc, p| acc.merge(&p.telemetry));
    Ok(ModuleReport {
        module: module.name().to_string(),
        ports,
        telemetry,
    })
}

/// Re-decides a counterexample on the property it refutes: the
/// instruction's formula is rebuilt on a fresh engine over the unsliced
/// RTL, the counterexample's frame-0 state and per-frame inputs are
/// pinned, and SAT answers whether the pinned formula still violates
/// the property at the counterexample's finish cycle. A genuine
/// counterexample always answers `true`. The formula is the plain one:
/// this re-check never cofactors ([`gila_expr::cofactor`]), so it is
/// independent of the rewrite every check runs on.
///
/// Exposed so tests can check counterexamples, sampled or SAT-decided,
/// against the solver.
///
/// # Errors
///
/// The [`VerifyError`]s of [`verify_port`] for malformed inputs, and
/// [`VerifyError::Internal`] when the port has no such instruction.
///
/// # Panics
///
/// Panics if the counterexample names a state or input `rtl` lacks.
#[doc(hidden)]
pub fn confirm_counterexample(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    instruction: &str,
    cex: &RefinementCex,
) -> Result<bool, VerifyError> {
    let planned = Planned::new(&[(port, map)], rtl)?;
    let plan = &planned.plans[0];
    let idx = port
        .instructions()
        .iter()
        .position(|i| i.name == instruction)
        .ok_or_else(|| VerifyError::Internal {
            reason: format!("port {} has no instruction {instruction:?}", port.name()),
        })?;
    let PortEngine { mut u, mut smt } = PortEngine::new(&planned.ts, &Tracer::disabled(), None);
    u.extend_to(plan.instrs[idx].bound);
    let prop = Property::build(plan, idx, &mut u)?;
    let frame = cex.finish_cycle;
    let mut assumptions = match prop.finish {
        Some(cond) => Property::finishes_at(cond, &mut u, frame),
        None => Vec::new(),
    };
    assumptions.push(prop.violation_at(plan, &mut u, frame).1);
    let frames = u.frames();
    let pins: Vec<(ExprRef, Value)> = cex
        .rtl_start_state
        .iter()
        .map(|(name, v)| (frames[0].states[name], v.clone()))
        .chain(cex.rtl_inputs.iter().enumerate().flat_map(|(k, inputs)| {
            inputs
                .iter()
                .map(move |(name, v)| (frames[k].inputs[name], v.clone()))
        }))
        .collect();
    for &c in prop.start.iter().chain(&prop.policy) {
        smt.assert(u.ctx(), c);
    }
    for (var, value) in pins {
        let ctx = u.ctx_mut();
        let pinned = match value {
            Value::Bool(b) => ctx.bool_const(b),
            Value::Bv(x) => ctx.bv(x),
            Value::Mem(m) => ctx.mem_const(m),
        };
        let eq = ctx.eq(var, pinned);
        smt.assert(u.ctx(), eq);
    }
    Ok(smt.check_assuming(u.ctx(), &assumptions).is_sat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::StateKind;
    use gila_rtl::parse_verilog;

    /// A counter ILA and matching/buggy RTL for engine smoke tests.
    fn counter_ila() -> PortIla {
        let mut p = PortIla::new("counter");
        let en = p.input("en", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(4), StateKind::Output);
        let d = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 4);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d).update("cnt", nx).add().unwrap();
        let d = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d).add().unwrap();
        p
    }

    fn counter_rtl(buggy: bool) -> RtlModule {
        let step = if buggy { "4'd2" } else { "4'd1" };
        parse_verilog(&format!(
            r#"
module counter(clk, en_in);
  input clk;
  input en_in;
  reg [3:0] count;
  always @(posedge clk) if (en_in) count <= count + {step};
endmodule
"#
        ))
        .unwrap()
    }

    fn counter_map() -> RefinementMap {
        let mut m = RefinementMap::new("counter");
        m.map_state("cnt", "count");
        m.map_input("en", "en_in");
        m
    }

    /// An 8-bit multiplier whose refinement proof needs real SAT search:
    /// the RTL computes `b * a`, the ILA `a * b`, so UNSAT amounts to
    /// proving bit-level multiplication commutativity — cheap enough to
    /// finish, expensive enough that small conflict budgets run out.
    fn mul_ila() -> PortIla {
        let mut p = PortIla::new("mul");
        let en = p.input("en", Sort::Bv(1));
        let a = p.input("a", Sort::Bv(8));
        let b = p.input("b", Sort::Bv(8));
        p.state("out", Sort::Bv(8), StateKind::Output);
        let d = p.ctx_mut().eq_u64(en, 1);
        let prod = p.ctx_mut().bvmul(a, b);
        p.instr("mul").decode(d).update("out", prod).add().unwrap();
        p
    }

    fn mul_rtl() -> RtlModule {
        parse_verilog(
            r#"
module mul(clk, en, a, b);
  input clk;
  input en;
  input [7:0] a;
  input [7:0] b;
  reg [7:0] out_r;
  always @(posedge clk) if (en) out_r <= b * a;
endmodule
"#,
        )
        .unwrap()
    }

    fn mul_map() -> RefinementMap {
        let mut m = RefinementMap::new("mul");
        m.map_state("out", "out_r");
        m.map_input("en", "en");
        m.map_input("a", "a");
        m.map_input("b", "b");
        m
    }

    #[test]
    fn exhausted_conflict_budget_reports_unknown_with_spent_effort() {
        let report = verify_port(
            &mul_ila(),
            &mul_rtl(),
            &mul_map(),
            &VerifyOptions {
                budget: SolveBudget {
                    conflicts: Some(1),
                    timeout: None,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!report.all_hold());
        let v = &report.verdicts[0];
        let CheckResult::Unknown { reason, budget_spent } = &v.result else {
            panic!("expected Unknown, got {:?}", v.result);
        };
        assert_eq!(*reason, ResourceOut::Conflicts);
        // "spent > max" semantics: giving up means the limit was passed.
        assert!(budget_spent.conflicts > 1, "{budget_spent:?}");
        assert_eq!(report.telemetry.unknown, 1);
        assert!(report.telemetry.budget_spent_conflicts > 1);
        assert_eq!(report.counts().unknown, 1);
    }

    #[test]
    fn expired_deadline_is_unknown_and_attempts_are_counted() {
        let report = verify_port(
            &mul_ila(),
            &mul_rtl(),
            &mul_map(),
            &VerifyOptions {
                budget: SolveBudget {
                    conflicts: None,
                    timeout: Some(Duration::ZERO),
                },
                ..Default::default()
            },
        )
        .unwrap();
        let CheckResult::Unknown { reason, budget_spent } = &report.verdicts[0].result else {
            panic!("expected Unknown, got {:?}", report.verdicts[0].result);
        };
        assert_eq!(*reason, ResourceOut::Deadline);
        assert!(budget_spent.wall > Duration::ZERO, "{budget_spent:?}");
        assert_eq!(report.telemetry.unknown, 1);
    }

    #[test]
    fn budget_prop_unknown_only_past_the_limit() {
        // Property over the budget axis: for any conflict budget, the
        // verdict is either decided (never Unknown without a cause) or
        // Unknown with strictly more conflicts spent than the budget
        // allowed — and an unbounded budget is never Unknown.
        for conflicts in [0u64, 1, 2, 5, 17, 1 << 40] {
            let report = verify_port(
                &mul_ila(),
                &mul_rtl(),
                &mul_map(),
                &VerifyOptions {
                    budget: SolveBudget {
                        conflicts: Some(conflicts),
                        timeout: None,
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            match &report.verdicts[0].result {
                CheckResult::Unknown { reason, budget_spent } => {
                    assert_eq!(*reason, ResourceOut::Conflicts, "budget={conflicts}");
                    assert!(budget_spent.conflicts > conflicts, "budget={conflicts}");
                }
                CheckResult::Holds => {}
                other => panic!("budget={conflicts}: unexpected {other:?}"),
            }
        }
        let unbounded =
            verify_port(&mul_ila(), &mul_rtl(), &mul_map(), &VerifyOptions::default()).unwrap();
        assert_eq!(unbounded.telemetry.unknown, 0);
        assert!(unbounded.all_hold());
    }

    #[test]
    fn forced_unknown_fault_flows_through_resource_out_path() {
        let fault = FaultPlan::new().inject("counter", "inc", FaultAction::ForceUnknown, Some(1));
        let report = verify_port(
            &counter_ila(),
            &counter_rtl(false),
            &counter_map(),
            &VerifyOptions {
                fault_plan: Some(Arc::new(fault)),
                ..Default::default()
            },
        )
        .unwrap();
        let inc = &report.verdicts[0];
        let CheckResult::Unknown { reason, .. } = &inc.result else {
            panic!("expected forced Unknown, got {:?}", inc.result);
        };
        assert_eq!(*reason, ResourceOut::Deadline);
        // The untouched instruction is unaffected.
        assert!(report.verdicts[1].result.holds());
    }

    #[test]
    fn journal_reverifies_only_undecided_jobs() {
        let path = std::env::temp_dir().join(format!(
            "gila_engine_journal_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let journal = || {
            let cfg = crate::CacheConfig {
                path: Some(path.clone()),
                ..Default::default()
            };
            Some(Arc::new(ProofCache::open(cfg).unwrap()))
        };
        // First run: `inc` is forced Unknown (once), `hold` decides.
        let fault = FaultPlan::new().inject("counter", "inc", FaultAction::ForceUnknown, Some(1));
        let first = verify_port(
            &counter_ila(),
            &counter_rtl(false),
            &counter_map(),
            &VerifyOptions {
                fault_plan: Some(Arc::new(fault)),
                journal: journal(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(first.counts().unknown, 1);
        assert_eq!(first.counts().holds, 1);
        assert_eq!((first.telemetry.cache_hits, first.telemetry.cache_misses), (0, 2));
        // Second run on the reopened journal: `hold` is replayed (zero
        // solves), `inc` is re-verified for real and now holds.
        let second = verify_port(
            &counter_ila(),
            &counter_rtl(false),
            &counter_map(),
            &VerifyOptions {
                journal: journal(),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(second.all_hold(), "{:#?}", second.verdicts);
        let inc = &second.verdicts[0];
        let hold = &second.verdicts[1];
        assert!(inc.solves > 0, "undecided job must be re-verified");
        assert_eq!(hold.solves, 0, "decided job must be replayed, not re-solved");
        assert_eq!((second.telemetry.cache_hits, second.telemetry.cache_misses), (1, 1));
        // The second run journaled `inc`: a third re-solves nothing.
        let third = verify_port(
            &counter_ila(),
            &counter_rtl(false),
            &counter_map(),
            &VerifyOptions {
                journal: journal(),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(third.all_hold());
        assert!(third.verdicts.iter().all(|v| v.solves == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panicked_job_in_sequential_run_is_isolated() {
        let fault =
            FaultPlan::new().inject("counter", "inc", FaultAction::Panic("seq boom".into()), None);
        let report = verify_port(
            &counter_ila(),
            &counter_rtl(false),
            &counter_map(),
            &VerifyOptions {
                fault_plan: Some(Arc::new(fault)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.counts().panicked, 1);
        assert!(matches!(
            &report.verdicts[0].result,
            CheckResult::JobPanicked { message } if message.contains("seq boom")
        ));
        assert!(report.verdicts[1].result.holds());
        assert_eq!(report.telemetry.panicked, 1);
    }

    /// A panic discards the port's engine, whose solver may have been
    /// mid-update, and the next check runs on a rebuilt one: on the
    /// buggy counter `hold` still holds, and all of its engine's CNF is
    /// its own. Without the panic `hold` shares `inc`'s engine.
    #[test]
    fn panicked_job_rebuilds_the_port_engine() {
        let fresh = SmtSolver::new().stats();
        let hold = |fault: Option<FaultPlan>| {
            let report = verify_port(
                &counter_ila(),
                &counter_rtl(true),
                &counter_map(),
                &VerifyOptions {
                    fault_plan: fault.map(Arc::new),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(report.verdicts.len(), 2);
            let hold = report.verdicts[1].clone();
            assert_eq!(hold.instruction, "hold");
            assert!(hold.result.holds(), "{:?}", hold.result);
            (report.verdicts[0].result.tag(), hold)
        };
        let panic = FaultPlan::new().inject(
            "counter",
            "inc",
            FaultAction::Panic("first job dies".into()),
            Some(1),
        );
        let (inc, rebuilt) = hold(Some(panic));
        assert_eq!(inc, "panicked");
        assert_eq!(rebuilt.stats.since(fresh), rebuilt.cnf_growth);
        let (inc, shared) = hold(None);
        assert_eq!(inc, "cex");
        assert_ne!(shared.stats.since(fresh), shared.cnf_growth);
    }

    #[test]
    fn correct_rtl_verifies() {
        let port = counter_ila();
        let rtl = counter_rtl(false);
        let report =
            verify_port(&port, &rtl, &counter_map(), &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.peak_stats.clauses > 0);
    }

    #[test]
    fn buggy_rtl_produces_counterexample() {
        let port = counter_ila();
        let rtl = counter_rtl(true);
        let report =
            verify_port(&port, &rtl, &counter_map(), &VerifyOptions::default()).unwrap();
        assert!(!report.all_hold());
        let v = report.first_counterexample().unwrap();
        assert_eq!(v.instruction, "inc");
        let CheckResult::CounterExample(cex) = &v.result else {
            panic!()
        };
        assert_eq!(cex.mismatched_states, vec!["cnt".to_string()]);
        // The RTL stepped by 2, the ILA by 1.
        let start = cex.rtl_start_state["count"].as_bv().to_u64();
        let finish = cex.rtl_finish_state["count"].as_bv().to_u64();
        assert_eq!((start + 2) % 16, finish);
        assert_eq!(
            cex.ila_post_state["cnt"].as_bv().to_u64(),
            (start + 1) % 16
        );
        // `hold` still verifies on the engine `inc` used: `inc`'s scoped
        // asserts (its decode, its violation) did not leak into it.
        assert!(report.verdicts.iter().any(|v| v.instruction == "hold" && v.result.holds()));
    }

    #[test]
    fn module_peak_stats_is_componentwise() {
        let mk = |variables: u64, clauses: u64| PortReport {
            port: "p".into(),
            verdicts: Vec::new(),
            total_time: Duration::ZERO,
            peak_stats: BlastStats { variables, clauses },
            telemetry: Telemetry::default(),
        };
        let report = ModuleReport {
            module: "m".into(),
            ports: vec![mk(100, 1), mk(1, 90)],
            telemetry: Telemetry::default(),
        };
        let peak = report.peak_stats();
        assert_eq!(peak.variables, 100);
        assert_eq!(peak.clauses, 90);
    }

    #[test]
    fn unknown_signal_is_config_error() {
        let port = counter_ila();
        let rtl = counter_rtl(false);
        let mut map = counter_map();
        map.map_state("cnt", "ghost");
        let err = verify_port(&port, &rtl, &map, &VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, VerifyError::UnknownRtlSignal { .. }));
    }

    #[test]
    fn unmapped_ila_var_is_config_error() {
        let port = counter_ila();
        let rtl = counter_rtl(false);
        let mut map = counter_map();
        map.interface_map.clear(); // decode references `en`, now unmapped
        let err = verify_port(&port, &rtl, &map, &VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, VerifyError::UnmappedIlaVar { .. }));
    }

    #[test]
    fn sort_mismatch_is_config_error() {
        let port = counter_ila();
        let rtl = counter_rtl(false);
        let mut map = counter_map();
        map.map_state("cnt", "en_in"); // 4-bit state vs 1-bit input
        let err = verify_port(&port, &rtl, &map, &VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, VerifyError::SortMismatch { .. }));
    }

    #[test]
    fn invariant_restricts_start_states() {
        // RTL that misbehaves only when count == 15 (unreachable if we
        // assume count < 8); the invariant makes verification pass.
        let port = counter_ila();
        let rtl = parse_verilog(
            r#"
module counter(clk, en_in);
  input clk;
  input en_in;
  reg [3:0] count;
  always @(posedge clk)
    if (en_in) begin
      if (count == 4'd15) count <= 4'd7;
      else count <= count + 4'd1;
    end
endmodule
"#,
        )
        .unwrap();
        let map = counter_map();
        let report = verify_port(&port, &rtl, &map, &VerifyOptions::default()).unwrap();
        assert!(!report.all_hold(), "without invariant the wrap case fails");
        let mut map = counter_map();
        map.add_invariant("count < 4'd8");
        let report = verify_port(&port, &rtl, &map, &VerifyOptions::default()).unwrap();
        assert!(report.all_hold());
    }

    #[test]
    fn multi_cycle_finish_with_hold_policy() {
        // RTL takes 2 cycles: first latches, then commits. The ILA does
        // it in one instruction. finish = 2 cycles with held inputs.
        let mut p = PortIla::new("two_phase");
        let go = p.input("go", Sort::Bv(1));
        let data = p.input("data", Sort::Bv(4));
        p.state("out", Sort::Bv(4), StateKind::Output);
        let d = p.ctx_mut().eq_u64(go, 1);
        p.instr("write").decode(d).update("out", data).add().unwrap();
        let d = p.ctx_mut().eq_u64(go, 0);
        p.instr("nop").decode(d).add().unwrap();

        let rtl = parse_verilog(
            r#"
module two_phase(clk, go, data);
  input clk;
  input go;
  input [3:0] data;
  reg [3:0] buffer;
  reg [3:0] out_r;
  reg pending;
  always @(posedge clk) begin
    if (go) begin
      buffer <= data;
      pending <= 1'b1;
    end
    else pending <= 1'b0;
    if (pending) out_r <= buffer;
  end
endmodule
"#,
        )
        .unwrap();
        let mut map = RefinementMap::new("two_phase");
        map.map_state("out", "out_r");
        map.map_input("go", "go");
        map.map_input("data", "data");
        map.add_invariant("pending == 1'b0");
        map.instruction_maps.push(crate::refmap::InstructionMap {
            instruction: "write".into(),
            start_strengthening: None,
            finish: FinishCondition::Cycles(2),
            input_policy: InputPolicy::Hold,
        });
        // nop: out unchanged after 1 cycle given pending==0.
        let report = verify_port(&p, &rtl, &map, &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
    }

    /// The counter plus a register and an input outside every cone:
    /// `noise` is unmapped, free-running and fed only by `junk_in`.
    fn counter_with_junk_rtl() -> RtlModule {
        parse_verilog(
            r#"
module counter(clk, en_in, junk_in);
  input clk;
  input en_in;
  input [3:0] junk_in;
  reg [3:0] count;
  reg [3:0] noise;
  always @(posedge clk) begin
    if (en_in) count <= count + 4'd1;
    noise <= noise ^ junk_in;
  end
endmodule
"#,
        )
        .unwrap()
    }

    /// Cone-of-influence slicing never changes a verdict: every
    /// instruction gets the same verdict tag on the unsliced system as
    /// on its slice, for the fixed and buggy counters, the counter with
    /// logic outside its cone, and every register mutant of that one.
    #[test]
    fn coi_slicing_never_changes_a_verdict() {
        let ila = counter_ila();
        let map = counter_map();
        let junk = counter_with_junk_rtl();
        let mut fixtures = vec![
            ("fixed".to_string(), counter_rtl(false)),
            ("buggy".to_string(), counter_rtl(true)),
            ("junk".to_string(), junk.clone()),
        ];
        for reg in ["count", "noise"] {
            for m in crate::mutation::Mutation::all() {
                let mutant = crate::mutation::mutate_register(&junk, reg, m).unwrap();
                fixtures.push((format!("junk {reg} {m}"), mutant));
            }
        }
        let opts = VerifyOptions::default();
        let tags = |ts: &TransitionSystem, planned: &Planned<'_>| {
            let ctx = RunCtx::new(&opts, planned);
            run_port(&planned.plans[0], ts, &mut PortState::default(), &ctx)
                .unwrap()
                .iter()
                .map(|v| v.result.tag())
                .collect::<Vec<_>>()
        };
        let mut seen = BTreeMap::new();
        for (name, rtl) in &fixtures {
            let planned = Planned::new(&[(&ila, &map)], rtl).unwrap();
            let (sliced, coi) = prepare(&planned, &planned.plans[0], &opts.tracer);
            let on_slice = tags(&sliced, &planned);
            assert_eq!(
                tags(&planned.ts, &planned),
                on_slice,
                "{name}: slicing changed a verdict"
            );
            for tag in on_slice {
                *seen.entry(tag).or_insert(0) += 1;
            }
            if name.starts_with("junk") {
                assert!(
                    coi.states_dropped >= 1 && coi.inputs_dropped >= 1,
                    "{name}: the slice kept the unobserved logic: {coi:?}"
                );
            }
        }
        assert!(
            seen.contains_key("holds") && seen.contains_key("cex"),
            "the fixtures must both hold and fail: {seen:?}"
        );
    }

    /// With the port's gate open, the buggy counter's `inc` is refuted
    /// by sampling, and the counterexample SAT confirms; under an
    /// expired deadline the same gate yields `Unknown` from the SAT
    /// path instead, and the fixed counter never samples a verdict.
    #[test]
    fn sampling_runs_only_with_time_left_and_never_proves() {
        let ila = counter_ila();
        let map = counter_map();
        for (buggy, timeout) in [(true, None), (true, Some(Duration::ZERO)), (false, None)] {
            let rtl = counter_rtl(buggy);
            let planned = Planned::new(&[(&ila, &map)], &rtl).unwrap();
            let opts = VerifyOptions {
                budget: SolveBudget {
                    conflicts: None,
                    timeout,
                },
                ..Default::default()
            };
            let ctx = RunCtx::new(&opts, &planned);
            let mut state = PortState {
                refuted: true,
                ..PortState::default()
            };
            let verdicts = run_port(&planned.plans[0], &planned.ts, &mut state, &ctx).unwrap();
            for v in &verdicts {
                let what = format!("buggy={buggy} timeout={timeout:?} {}", v.instruction);
                match (&v.result, timeout) {
                    (CheckResult::CounterExample(cex), None) => {
                        assert_eq!(v.decided_by, DecidedBy::Sampling, "{what}");
                        assert_eq!(v.solves, 0, "{what}");
                        assert!(
                            confirm_counterexample(&ila, &rtl, &map, &v.instruction, cex).unwrap(),
                            "{what}"
                        );
                    }
                    (CheckResult::Unknown { reason, .. }, Some(_)) => {
                        assert_eq!(*reason, ResourceOut::Deadline, "{what}");
                        assert_eq!(v.decided_by, DecidedBy::Sat, "{what}");
                    }
                    (CheckResult::Holds, None) => {
                        assert_eq!(v.decided_by, DecidedBy::Sat, "{what}")
                    }
                    (r, _) => panic!("{what}: unexpected {r:?}"),
                }
            }
            let cex = verdicts
                .iter()
                .filter(|v| v.decided_by == DecidedBy::Sampling)
                .count();
            assert_eq!(
                cex,
                (buggy && timeout.is_none()) as usize,
                "{buggy} {timeout:?}"
            );
        }
    }

    #[test]
    fn condition_finish() {
        // RTL raises `done` one cycle after go; equivalence checked at
        // the first done cycle.
        let mut p = PortIla::new("cond");
        let go = p.input("go", Sort::Bv(1));
        let data = p.input("data", Sort::Bv(4));
        p.state("out", Sort::Bv(4), StateKind::Output);
        let d = p.ctx_mut().eq_u64(go, 1);
        p.instr("write").decode(d).update("out", data).add().unwrap();
        let d = p.ctx_mut().eq_u64(go, 0);
        p.instr("nop").decode(d).add().unwrap();
        let rtl = parse_verilog(
            r#"
module cond(clk, go, data);
  input clk;
  input go;
  input [3:0] data;
  reg [3:0] out_r;
  reg done;
  always @(posedge clk) begin
    if (go) begin
      out_r <= data;
      done <= 1'b1;
    end
    else done <= 1'b0;
  end
endmodule
"#,
        )
        .unwrap();
        let mut map = RefinementMap::new("cond");
        map.map_state("out", "out_r");
        map.map_input("go", "go");
        map.map_input("data", "data");
        map.instruction_maps.push(crate::refmap::InstructionMap {
            instruction: "write".into(),
            start_strengthening: None,
            finish: FinishCondition::Condition {
                expr: "done == 1'b1".into(),
                max_cycles: 3,
            },
            input_policy: InputPolicy::Hold,
        });
        let report = verify_port(&p, &rtl, &map, &VerifyOptions::default()).unwrap();
        assert!(report.all_hold(), "{report:#?}");
        // An impossible finish condition is reported, not silently passed.
        let mut map2 = map.clone();
        map2.instruction_maps[0].finish = FinishCondition::Condition {
            expr: "done == 1'b1 && go == 1'b0 && done == 1'b0".into(),
            max_cycles: 2,
        };
        let report = verify_port(&p, &rtl, &map2, &VerifyOptions::default()).unwrap();
        assert!(report
            .verdicts
            .iter()
            .any(|v| matches!(v.result, CheckResult::FinishNotReached { .. })));
    }
}
