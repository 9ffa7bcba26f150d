//! The refinement-check engine: instruction-by-instruction verification
//! of an RTL implementation against its (module-)ILA specification.
//!
//! For each atomic instruction the engine builds the property of Fig. 5:
//! starting from any RTL state whose mapped signals agree with the ILA
//! architectural state (plus user invariants), if the instruction's
//! start condition holds, then after the instruction finishes in the RTL
//! the mapped signals again agree with the ILA state produced by the
//! instruction's next-state functions. Each property is discharged by
//! bit-blasting to SAT; a satisfying assignment is a counterexample
//! trace, UNSAT is a proof for that instruction.
//!
//! Every call runs one pipeline. It plans its targets once: one
//! transition system for the RTL ([`rtl_to_ts`]) and one [`PortPlan`]
//! per port (signal resolution and condition parsing), so malformed
//! input errors before anything is solved. With a
//! [`VerifyOptions::journal`], every property is keyed from those plans
//! ([`crate::SliceKey`]); a port the journal answers in full is reported
//! from its replays alone, with no slice or estimate. The other
//! ports run either sequentially or on the work-stealing pool in
//! [`crate::scheduler`], where each worker owns a persistent unrolling
//! and incremental solver so the blasted transition relation and
//! learned clauses are paid once per worker. Every freshly decided
//! verdict is journaled as it lands.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gila_core::{Instruction, ModuleIla, PortIla};
use gila_expr::{import, import_mapped, ExprNode, ExprRef, Op, Sort, Value};
use gila_mc::{coi_slice, support, CoiStats, TransitionSystem, Unrolling};
use gila_rtl::{parse_rtl_expr, RtlModule, VerilogError};
use gila_smt::{
    BlastStats, CancelToken, ResourceOut, SmtResult, SmtSolver, SolveLimits, SolverStats,
};
use gila_trace::{Event, SpanKind, Telemetry, Tracer};

use crate::cache_key::keys_of;
use crate::fault::{FaultAction, FaultPlan};
use crate::journal::ProofCache;
use crate::refmap::{FinishCondition, InputPolicy, RefinementMap};
use crate::scheduler::{run_pool, PoolConfig};

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
    /// An internal engine failure (e.g. the worker pool could not be
    /// joined). These map to the CLI's "internal error" exit code.
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

/// Per-job resource budget. Applies to every SAT query a job issues;
/// the wall-clock allowance is armed when the job's attempt starts.
/// `Default` is unbounded (today's behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum SAT conflicts per query before the query gives up.
    pub conflicts: Option<u64>,
    /// Wall-clock allowance per job attempt.
    pub timeout: Option<Duration>,
}

impl SolveBudget {
    /// True if no limit is configured.
    pub fn is_unbounded(&self) -> bool {
        self.conflicts.is_none() && self.timeout.is_none()
    }

    /// The budget for retry attempt `attempt` (0 = the first try):
    /// every limit grows geometrically, 4x per retry, so a handful of
    /// retries spans orders of magnitude. A zero timeout stays zero —
    /// it means "give up immediately", not "escalate from nothing".
    pub(crate) fn escalated(&self, attempt: u32) -> SolveBudget {
        let factor = 4u64.saturating_pow(attempt);
        SolveBudget {
            conflicts: self.conflicts.map(|c| c.saturating_mul(factor)),
            timeout: self.timeout.map(|t| t.saturating_mul(factor.min(u32::MAX as u64) as u32)),
        }
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

/// What a job that gave up actually consumed, across all its attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpent {
    /// SAT conflicts over all attempts.
    pub conflicts: u64,
    /// SAT propagations over all attempts.
    pub propagations: u64,
    /// Wall-clock time over all attempts.
    pub wall: Duration,
    /// How many attempts ran (1 = no retries).
    pub attempts: u32,
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
    /// The job gave up: every attempt exhausted its solve budget (or
    /// the run was cancelled mid-solve). Neither a proof nor a
    /// counterexample — rerun with a larger budget to decide it.
    Unknown {
        /// Which resource ran out on the final attempt.
        reason: ResourceOut,
        /// What the job consumed before giving up.
        budget_spent: BudgetSpent,
    },
    /// The job panicked and was isolated by the scheduler; the rest of
    /// the run is unaffected.
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

/// Per-instruction verdict with effort statistics.
#[derive(Clone, Debug)]
pub struct InstrVerdict {
    /// The atomic instruction's name.
    pub instruction: String,
    /// The outcome.
    pub result: CheckResult,
    /// Wall-clock time spent on this instruction.
    pub time: Duration,
    /// CNF size of the solver that served this instruction, measured
    /// when its check finished (cumulative for shared/pooled engines).
    pub stats: BlastStats,
    /// How much CNF this instruction *added* to its solver. On a
    /// persistent engine (incremental mode or a pool worker) this drops
    /// sharply after the first instruction: the blasted transition
    /// relation is reused, so later instructions pay only for their
    /// start conditions and post-state equalities.
    pub cnf_growth: BlastStats,
    /// SAT-solver effort this instruction alone cost (per-instruction
    /// deltas of the shared solver's counters; `learnt_clauses` is the
    /// delta too, saturating at zero under clause deletion).
    pub effort: SolverStats,
    /// Number of SAT checks issued for this instruction.
    pub solves: u64,
    /// How many extra attempts the budget-escalation loop ran after the
    /// first one exhausted its budget (0 when the first attempt decided
    /// the job or no budget was configured).
    pub retries: u32,
    /// Pool worker that served this instruction (`None` when run
    /// sequentially).
    pub worker: Option<usize>,
    /// Scheduler batch this instruction was dispatched in (`None` when
    /// run sequentially). Under port batching one work item carries a
    /// whole port (or chunk of one), so `queue_ns` and `stolen` below
    /// describe the *batch*, not the individual instruction; the batch
    /// id lets `--stats` queue-latency rows aggregate per dispatch
    /// instead of multiply-counting one pickup.
    pub batch_id: Option<u64>,
    /// Number of instructions in this verdict's batch (0 when run
    /// sequentially, 1 when batching is off).
    pub batch_size: u64,
    /// Time this verdict's *batch* spent queued before a worker picked
    /// it up, in nanoseconds (zero when run sequentially). Shared by
    /// every verdict of the batch.
    pub queue_ns: u64,
    /// Whether this verdict's *batch* was stolen from a peer's deque
    /// rather than taken from the worker's own queue or the global
    /// injector. Shared by every verdict of the batch.
    pub stolen: bool,
}

impl InstrVerdict {
    /// A verdict that cost this run nothing: every effort, size and
    /// scheduling field is zero. This is how a journal replays a verdict
    /// it answers by content key.
    pub(crate) fn replayed(instruction: String, result: CheckResult) -> InstrVerdict {
        InstrVerdict {
            instruction,
            result,
            time: Duration::ZERO,
            stats: BlastStats::default(),
            cnf_growth: BlastStats::default(),
            effort: SolverStats::default(),
            solves: 0,
            retries: 0,
            worker: None,
            batch_id: None,
            batch_size: 0,
            queue_ns: 0,
            stolen: false,
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
    /// Aggregated solver/CNF/scheduling totals over the port's verdicts
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
    /// Jobs that exhausted their budget (or were cancelled).
    pub unknown: usize,
    /// Jobs that panicked and were isolated.
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
    /// Aggregated totals across all ports (counters sum; `workers` is
    /// the number of pool workers spawned, 1 for sequential runs).
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
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Stop a port's run at the first counterexample (used for the
    /// "Time (bug)" measurement). Under a worker pool (`jobs`) this
    /// cancels outstanding work as soon as any worker finds one.
    pub stop_at_first_cex: bool,
    /// How the run executes — the one execution policy:
    ///
    /// - `None` or `Some(1)`: sequentially, in declaration order, on one
    ///   persistent engine per port;
    /// - `Some(0)`: a work-stealing pool of one worker per available CPU;
    /// - `Some(n)`: a pool of `n` workers.
    ///
    /// Every policy runs the same pipeline: each port is planned once
    /// before anything is solved, and a port the journal answers in full
    /// is reported from its replays alone. The sequential engine slices
    /// each remaining port just before running it; a pool slices them all
    /// before dispatch, batches each port's instructions into contiguous
    /// chunks, and gives every worker a persistent unrolling and
    /// incremental solver. A pooled run whose estimated blast work is
    /// below `par_threshold` falls back to the sequential engine.
    pub jobs: Option<usize>,
    /// Telemetry tracer; every unroll/blast/solve/instruction/port
    /// event of the run is emitted through it. Defaults to the
    /// disabled (no-op) tracer, which costs one branch per event site.
    pub tracer: Tracer,
    /// Per-job resource budget. Unbounded by default; with a limit set,
    /// a job that exhausts it reports [`CheckResult::Unknown`] instead
    /// of running forever.
    pub budget: SolveBudget,
    /// Extra attempts for a budget-exhausted job, each with a budget 4x
    /// larger than the last. Ignored when no budget is configured.
    pub retries: u32,
    /// Test-only fault injection: panics, forced unknowns, and delays
    /// per (port, instruction). `None` (the default) injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// The verdict journal ([`ProofCache`]). Every property is keyed by
    /// its content ([`crate::slice_keys`]); properties the journal
    /// answers are credited without solving (relabelled to the current
    /// instruction name, with zero effort), and every freshly decided
    /// verdict is journaled as it lands. Undecided outcomes are never
    /// journaled. `None` (the default) solves everything.
    pub journal: Option<Arc<ProofCache>>,
    /// Adaptive sequential fallback: a pooled run whose estimated blast
    /// work falls below this threshold routes to the persistent
    /// sequential engine instead, so small designs never pay pool
    /// overhead. The estimate is summed over the ports left to run once
    /// the journal has answered what it can: each port's sliced frame
    /// logic, weighted by its clause cost, times its unroll depth and
    /// instruction count. `0` disables the fallback (always pool when
    /// `jobs` asks for one).
    pub par_threshold: u64,
    /// External cancellation: when this token is cancelled (by a
    /// disconnecting client, a watchdog, or any other supervisor), every
    /// engine of the run fast-fails its remaining solves with
    /// [`CheckResult::Unknown`] (`reason: cancelled`). `None` (the
    /// default) leaves cancellation to the run's internal token.
    pub cancel: Option<CancelToken>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            stop_at_first_cex: false,
            jobs: None,
            tracer: Tracer::default(),
            budget: SolveBudget::default(),
            retries: 0,
            fault_plan: None,
            journal: None,
            par_threshold: DEFAULT_PAR_THRESHOLD,
            cancel: None,
        }
    }
}

/// Default for [`VerifyOptions::par_threshold`], tuned on the bundled
/// case studies (`tests/registry_gates.rs`'s `pool_gate` holds the two
/// slowest designs to it): designs whose estimated blast
/// work sits below this run faster on the persistent sequential engine
/// than on a pool, because their solve time is too small to amortize
/// worker spawn + per-worker blast duplication. On the bundled designs
/// the split is wide — the control-dominated modules (decoder, AXI,
/// memory interface, L2 cache) estimate below ~17.5k weighted clause
/// groups and lose time on the pool, while the solver-bound ones
/// (store buffer, NoC router, datapath) estimate above ~19k and gain
/// 1.2-1.6x from it.
pub const DEFAULT_PAR_THRESHOLD: u64 = 18_000;

/// The per-job knobs a scheduler threads through to every check.
#[derive(Clone, Default)]
pub(crate) struct JobPolicy {
    pub(crate) budget: SolveBudget,
    pub(crate) retries: u32,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// External cancellation token installed on every engine the run
    /// creates (see [`VerifyOptions::cancel`]).
    pub(crate) cancel: Option<CancelToken>,
}

/// Shared run state: job policy, tracer, and the run's view of the
/// verdict journal — the content key of every property and the
/// verdicts the journal answered, both keyed by `(port, instruction)`.
pub(crate) struct RunCtx<'t> {
    pub(crate) policy: JobPolicy,
    pub(crate) tracer: &'t Tracer,
    journal: Option<&'t ProofCache>,
    keys: HashMap<(String, String), String>,
    replayed: HashMap<(String, String), InstrVerdict>,
}

impl<'t> RunCtx<'t> {
    /// A plain context with no budget, faults, or journal.
    #[cfg(test)]
    pub(crate) fn plain(tracer: &'t Tracer) -> Self {
        RunCtx {
            policy: JobPolicy::default(),
            tracer,
            journal: None,
            keys: HashMap::new(),
            replayed: HashMap::new(),
        }
    }

    /// The run context for `planned`. With a journal, every property is
    /// keyed once from the plans and looked up, emitting one `cache_hit`
    /// or `cache_miss` event per property.
    fn new(opts: &'t VerifyOptions, planned: &Planned<'_>) -> Self {
        let mut ctx = RunCtx {
            policy: JobPolicy {
                budget: opts.budget,
                retries: opts.retries,
                fault: opts.fault_plan.clone(),
                cancel: opts.cancel.clone(),
            },
            tracer: &opts.tracer,
            journal: opts.journal.as_deref(),
            keys: HashMap::new(),
            replayed: HashMap::new(),
        };
        let Some(journal) = ctx.journal else {
            return ctx;
        };
        for sk in keys_of(planned) {
            let hit = journal.lookup(&sk.key);
            ctx.tracer.record(|| {
                let kind = if hit.is_some() {
                    SpanKind::CacheHit
                } else {
                    SpanKind::CacheMiss
                };
                Event::new(kind).port(&sk.port).instruction(&sk.instruction)
            });
            let pair = (sk.port, sk.instruction);
            if let Some((_, v)) = hit {
                // The key is semantic: a verdict journaled under another
                // name answers this instruction too.
                let v = InstrVerdict::replayed(pair.1.clone(), v.result);
                ctx.replayed.insert(pair.clone(), v);
            }
            ctx.keys.insert(pair, sk.key);
        }
        ctx
    }

    /// The journal's verdict for a job, if it answered the job's key.
    pub(crate) fn replayed(&self, port: &str, instr: &str) -> Option<InstrVerdict> {
        self.replayed
            .get(&(port.to_string(), instr.to_string()))
            .cloned()
    }

    /// The journal's verdicts for `port` in declaration order, when it
    /// answered every instruction of the port; cut after the first
    /// counterexample under `stop_at_first_cex`, as
    /// [`run_port_sequential`] does. Such a port needs no slice or work
    /// estimate.
    fn replayed_port(&self, port: &PortIla, stop_at_first_cex: bool) -> Option<Vec<InstrVerdict>> {
        self.journal?;
        let mut verdicts: Vec<InstrVerdict> = port
            .instructions()
            .iter()
            .map(|instr| self.replayed(port.name(), &instr.name))
            .collect::<Option<_>>()?;
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

    /// Journals a freshly decided verdict under its content key (the
    /// journal ignores undecided ones).
    pub(crate) fn record(&self, port: &str, verdict: &InstrVerdict) {
        let Some(journal) = self.journal else {
            return;
        };
        if let Some(key) = self.keys.get(&(port.to_string(), verdict.instruction.clone())) {
            journal.insert(key, port, verdict);
        }
    }

    /// Adds `port`'s journal lookups to its telemetry.
    fn add_cache_telemetry(&self, port: &str, t: &mut Telemetry) {
        let keyed = self.keys.keys().filter(|(p, _)| p == port).count() as u64;
        let hits = self.replayed.keys().filter(|(p, _)| p == port).count() as u64;
        t.cache_hits += hits;
        t.cache_misses += keyed - hits;
    }
}

/// Scheduling context of one job, recorded into its verdict and its
/// instruction span.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct JobMeta {
    pub(crate) worker: Option<usize>,
    pub(crate) queue_ns: u64,
    pub(crate) stolen: bool,
    /// Scheduler batch the job was dispatched in (pool runs only).
    pub(crate) batch_id: Option<u64>,
    /// Instructions in the batch (0 on the sequential path).
    pub(crate) batch_size: u64,
}

/// One worker's persistent verification state: a single unrolling of
/// the RTL transition system and a single incremental solver that
/// accumulates the blasted transition relation and learned clauses
/// across every instruction the worker serves. Per-instruction
/// conditions live in solver scopes ([`SmtSolver::push_scope`]) so they
/// retract without discarding the CNF.
pub(crate) struct WorkerEngine {
    pub(crate) u: Unrolling,
    pub(crate) smt: SmtSolver,
}

impl WorkerEngine {
    /// A fresh engine over `ts` with nothing blasted yet. The tracer
    /// receives the engine's unrolling events.
    pub(crate) fn new(ts: &TransitionSystem, tracer: &Tracer) -> Self {
        let mut u = Unrolling::new(ts, false);
        u.set_tracer(tracer.clone());
        WorkerEngine {
            u,
            smt: SmtSolver::new(),
        }
    }
}

/// Converts an RTL module into a transition system (same state/input
/// names) plus a map from every named signal (inputs, registers,
/// memories, wires) to its expression in the system's context.
///
/// Useful beyond refinement checking: BMC, k-induction, and liveness
/// checking of RTL modules all go through this conversion.
///
/// # Errors
///
/// [`VerifyError::MalformedRtl`] if the module is internally
/// inconsistent — an init value whose sort disagrees with its signal,
/// or a next-state function for a signal the module never declared.
pub fn rtl_to_ts(
    rtl: &RtlModule,
) -> Result<(TransitionSystem, BTreeMap<String, ExprRef>), VerifyError> {
    let malformed = |what: &str, name: &str, e: &dyn fmt::Display| VerifyError::MalformedRtl {
        reason: format!("{what} of {name:?}: {e}"),
    };
    let mut ts = TransitionSystem::new(rtl.name());
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
    let mut memo = HashMap::new();
    for r in rtl.regs() {
        let next = import(ts.ctx_mut(), rtl.ctx(), r.next, &mut memo);
        ts.set_next(&r.name, next)
            .map_err(|e| malformed("next-state function", &r.name, &e))?;
    }
    for m in rtl.mems() {
        let next = import(ts.ctx_mut(), rtl.ctx(), m.next, &mut memo);
        ts.set_next(&m.name, next)
            .map_err(|e| malformed("next-state function", &m.name, &e))?;
    }
    let mut signals = BTreeMap::new();
    let lookup = |ts: &TransitionSystem, name: &str| {
        ts.ctx().find_var(name).ok_or_else(|| VerifyError::MalformedRtl {
            reason: format!("signal {name:?} vanished after declaration"),
        })
    };
    for i in rtl.inputs() {
        signals.insert(i.name.clone(), lookup(&ts, &i.name)?);
    }
    for r in rtl.regs() {
        signals.insert(r.name.clone(), lookup(&ts, &r.name)?);
    }
    for m in rtl.mems() {
        signals.insert(m.name.clone(), lookup(&ts, &m.name)?);
    }
    for s in rtl.signals() {
        let e = import(ts.ctx_mut(), rtl.ctx(), s.expr, &mut memo);
        signals.insert(s.name.clone(), e);
    }
    Ok((ts, signals))
}

/// Everything about one instruction that can be computed before any
/// solver exists.
pub(crate) struct InstrPlan {
    /// Unrolling depth (the finish cycle, or the `Condition` bound).
    pub(crate) bound: usize,
    /// Parsed finish condition, in the plan's scratch-RTL context.
    pub(crate) finish_expr: Option<ExprRef>,
    /// Parsed start strengthening, in the plan's scratch-RTL context.
    pub(crate) strengthening: Option<ExprRef>,
    pub(crate) input_policy: InputPolicy,
}

/// A port's verification work, planned once and then executed by any
/// number of engines: mapped signals resolved against the transition
/// system, and every Verilog condition string (invariants,
/// strengthenings, finish conditions) parsed exactly once into a single
/// scratch copy of the RTL — instead of re-cloning and re-parsing the
/// whole module per instruction.
pub(crate) struct PortPlan<'a> {
    pub(crate) port: &'a PortIla,
    pub(crate) map: &'a RefinementMap,
    /// `(ila state, ts expr, ila sort)` per state-map entry.
    pub(crate) mapped_states: Vec<(String, ExprRef, Sort)>,
    /// `(ila input, ts expr, ila sort)` per interface-map entry.
    pub(crate) mapped_inputs: Vec<(String, ExprRef, Sort)>,
    /// Scratch RTL whose context owns all parsed condition expressions.
    pub(crate) cond_rtl: RtlModule,
    /// Parsed invariants, in `cond_rtl`'s context.
    pub(crate) invariants: Vec<ExprRef>,
    pub(crate) instrs: Vec<InstrPlan>,
    /// What slicing the port dropped — `None` until it is sliced.
    pub(crate) coi: Option<CoiStats>,
}

impl<'a> PortPlan<'a> {
    /// Resolves the refinement map against `ts_signals` (from
    /// [`rtl_to_ts`]) and parses all condition strings.
    pub(crate) fn build(
        port: &'a PortIla,
        rtl: &RtlModule,
        map: &'a RefinementMap,
        ts_signals: &BTreeMap<String, ExprRef>,
    ) -> Result<Self, VerifyError> {
        let lookup_signal = |name: &str, context: &str| -> Result<ExprRef, VerifyError> {
            ts_signals
                .get(name)
                .copied()
                .ok_or_else(|| VerifyError::UnknownRtlSignal {
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
            let e = lookup_signal(rtl_name, "state map")?;
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
            let e = lookup_signal(rtl_name, "interface map")?;
            mapped_inputs.push((ila_input.clone(), e, iv.sort));
        }

        // Parse every condition string once, all into one scratch RTL
        // (parsing needs &mut for expression interning).
        let mut cond_rtl = rtl.clone();
        let mut invariants = Vec::new();
        for inv in &map.invariants {
            invariants.push(parse_rtl_expr(&mut cond_rtl, inv)?);
        }
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
                    (*max_cycles, Some(expr.clone()))
                }
            };
            let finish_expr = match &finish_src {
                Some(s) => Some(parse_rtl_expr(&mut cond_rtl, s)?),
                None => None,
            };
            let strengthening = match &imap.start_strengthening {
                Some(s) => Some(parse_rtl_expr(&mut cond_rtl, s)?),
                None => None,
            };
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
            cond_rtl,
            invariants,
            instrs,
            coi: None,
        })
    }
}

/// Every target of a call, planned once: the RTL's one transition system
/// and one [`PortPlan`] per `(port, map)` target, in declaration order.
/// Journal keys, slices and dispatch all read these; nothing else on
/// the verification path builds a transition system or a plan.
pub(crate) struct Planned<'a> {
    /// The unsliced system of the RTL ([`rtl_to_ts`]).
    pub(crate) ts: TransitionSystem,
    /// Every named RTL signal's expression in `ts`.
    pub(crate) ts_signals: BTreeMap<String, ExprRef>,
    pub(crate) plans: Vec<PortPlan<'a>>,
}

impl<'a> Planned<'a> {
    /// Plans `targets` against `rtl`.
    pub(crate) fn new(
        targets: &[(&'a PortIla, &'a RefinementMap)],
        rtl: &RtlModule,
    ) -> Result<Self, VerifyError> {
        let (ts, ts_signals) = rtl_to_ts(rtl)?;
        let plans = targets
            .iter()
            .map(|&(port, map)| PortPlan::build(port, rtl, map, &ts_signals))
            .collect::<Result<_, _>>()?;
        Ok(Planned {
            ts,
            ts_signals,
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

/// Checks one planned instruction on the given engine.
///
/// The engine's unrolling is extended to the instruction's bound (a
/// no-op if a previous instruction already went deeper — re-extension
/// after rollback is bit-identical, see [`Unrolling::rollback_to`]),
/// and all per-instruction conditions are confined to one solver scope
/// so they retract afterwards while the blasted CNF stays cached. On
/// error the engine is restored, so a worker can keep serving jobs.
pub(crate) fn check_instruction_planned(
    plan: &PortPlan<'_>,
    idx: usize,
    engine: &mut WorkerEngine,
    tracer: &Tracer,
    meta: JobMeta,
    policy: &JobPolicy,
) -> Result<InstrVerdict, VerifyError> {
    let t0 = Instant::now();
    let instr = &plan.port.instructions()[idx];

    // Test-only fault injection. An injected panic exercises the
    // schedulers' isolation; a forced unknown swaps this job's budget
    // for an already-expired deadline, so the Unknown flows through the
    // real resource-out machinery instead of being faked here.
    let mut budget = policy.budget;
    let mut retries = policy.retries;
    if let Some(fault) = policy.fault.as_deref() {
        match fault.fire(plan.port.name(), &instr.name) {
            Some(FaultAction::Panic(msg)) => panic!("injected fault: {msg}"),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::ForceUnknown) => {
                budget = SolveBudget {
                    conflicts: None,
                    timeout: Some(Duration::ZERO),
                };
                retries = 0;
            }
            None => {}
        }
    }

    let before = engine.smt.stats();
    let sat_before = engine.smt.sat_stats();
    let mut attempt = 0u32;
    let mut solves = 0u64;
    // Budget-escalation loop. Each attempt runs in its own solver scope
    // against the same persistent CNF, so learned clauses from an
    // exhausted attempt carry into the next, larger-budget one.
    let result = loop {
        engine.smt.set_limits(budget.escalated(attempt).to_limits());
        let snap = engine.u.snapshot();
        engine.u.extend_to(plan.instrs[idx].bound);
        engine.smt.push_scope();
        let result = check_instruction_inner(plan, idx, instr, engine, tracer, meta, &mut solves);
        engine.smt.pop_scope();
        engine.smt.set_limits(SolveLimits::default());
        match result {
            Ok(CheckResult::Unknown { reason, .. }) => {
                let spent_so_far = engine.smt.sat_stats().since(sat_before);
                tracer.record(|| {
                    Event::new(SpanKind::BudgetExhausted)
                        .port(plan.port.name())
                        .instruction(&instr.name)
                        .label(reason.as_str())
                        .worker(meta.worker)
                        .field("attempt", attempt as u64)
                        .field("conflicts", spent_so_far.conflicts)
                });
                // Cancellation is a run-level abort, not a too-small
                // budget: retrying would only be cancelled again.
                if attempt < retries && reason != ResourceOut::Cancelled {
                    attempt += 1;
                    tracer.record(|| {
                        Event::new(SpanKind::Retry)
                            .port(plan.port.name())
                            .instruction(&instr.name)
                            .worker(meta.worker)
                            .field("attempt", attempt as u64)
                    });
                    continue;
                }
                break CheckResult::Unknown {
                    reason,
                    budget_spent: BudgetSpent {
                        conflicts: spent_so_far.conflicts,
                        propagations: spent_so_far.propagations,
                        wall: t0.elapsed(),
                        attempts: attempt + 1,
                    },
                };
            }
            Ok(result) => break result,
            Err(e) => {
                engine.u.rollback_to(snap);
                return Err(e);
            }
        }
    };
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
            .worker(meta.worker)
            .field("cnf_vars", cnf_growth.variables)
            .field("cnf_clauses", cnf_growth.clauses)
            .field("total_vars", stats.variables)
            .field("total_clauses", stats.clauses)
    });
    tracer.record(|| {
        let mut ev = Event::new(SpanKind::Instruction)
            .port(plan.port.name())
            .instruction(&instr.name)
            .label(result.tag())
            .worker(meta.worker)
            .field("solves", solves)
            .field("decisions", effort.decisions)
            .field("propagations", effort.propagations)
            .field("conflicts", effort.conflicts)
            .field("learnt_clauses", effort.learnt_clauses)
            .field("cnf_vars", cnf_growth.variables)
            .field("cnf_clauses", cnf_growth.clauses)
            .field("wall_ns", time.as_nanos() as u64)
            .field("queue_ns", meta.queue_ns)
            .field("steals", meta.stolen as u64);
        // Batch fields only exist on pooled runs, so sequential golden
        // traces are unchanged.
        if let Some(batch) = meta.batch_id {
            ev = ev.field("batch_id", batch).field("batch_size", meta.batch_size);
        }
        ev
    });
    Ok(InstrVerdict {
        instruction: instr.name.clone(),
        result,
        time,
        stats,
        cnf_growth,
        effort,
        solves,
        retries: attempt,
        worker: meta.worker,
        batch_id: meta.batch_id,
        batch_size: meta.batch_size,
        queue_ns: meta.queue_ns,
        stolen: meta.stolen,
    })
}

/// Runs one job with panic isolation: the check is wrapped in
/// [`catch_unwind`], and a panicking job becomes a
/// [`CheckResult::JobPanicked`] verdict instead of tearing down the
/// scheduler. The worker's engine is discarded on panic (its solver may
/// have been mid-update), so `engine_slot` comes back `None` and the
/// caller's `mk_engine` rebuilds it for the next job.
pub(crate) fn run_job_guarded(
    plan: &PortPlan<'_>,
    idx: usize,
    engine_slot: &mut Option<WorkerEngine>,
    mk_engine: impl FnOnce() -> WorkerEngine,
    tracer: &Tracer,
    meta: JobMeta,
    policy: &JobPolicy,
) -> Result<InstrVerdict, VerifyError> {
    let t0 = Instant::now();
    let engine = match engine_slot {
        Some(e) => e,
        None => engine_slot.insert(mk_engine()),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        check_instruction_planned(plan, idx, engine, tracer, meta, policy)
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
                    .worker(meta.worker)
            });
            Ok(InstrVerdict {
                instruction: instr.clone(),
                result: CheckResult::JobPanicked { message },
                time: t0.elapsed(),
                stats: BlastStats::default(),
                cnf_growth: BlastStats::default(),
                effort: SolverStats::default(),
                solves: 0,
                retries: 0,
                worker: meta.worker,
                batch_id: meta.batch_id,
                batch_size: meta.batch_size,
                queue_ns: meta.queue_ns,
                stolen: meta.stolen,
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

/// The body of [`check_instruction_planned`], run inside an open solver
/// scope so every early return still retracts its asserts.
fn check_instruction_inner(
    plan: &PortPlan<'_>,
    idx: usize,
    instr: &Instruction,
    engine: &mut WorkerEngine,
    tracer: &Tracer,
    meta: JobMeta,
    solves: &mut u64,
) -> Result<CheckResult, VerifyError> {
    let WorkerEngine { u, smt } = engine;
    let port = plan.port;
    let map = plan.map;
    let ip = &plan.instrs[idx];
    let bound = ip.bound;

    // ILA variable -> frame-0 product expression.
    let mut var_map: HashMap<ExprRef, ExprRef> = HashMap::new();
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
    let mut import_memo = HashMap::new();
    let decode0 = import_mapped(u.ctx_mut(), port.ctx(), instr.decode, &var_map, &mut import_memo)
        .map_err(|var| VerifyError::UnmappedIlaVar {
            var,
            instruction: instr.name.clone(),
        })?;
    let mut start_conjuncts = vec![decode0];
    let mut cond_memo = HashMap::new();
    let graft0 = |u: &mut Unrolling, cond: ExprRef, memo: &mut HashMap<ExprRef, ExprRef>| {
        let e = import(u.ctx_mut(), plan.cond_rtl.ctx(), cond, memo);
        let e0 = u.map_expr(0, e);
        u.ctx_mut().bv_to_bool(e0)
    };
    for &inv in &plan.invariants {
        let eb = graft0(u, inv, &mut cond_memo);
        start_conjuncts.push(eb);
    }
    if let Some(s) = ip.strengthening {
        let eb = graft0(u, s, &mut cond_memo);
        start_conjuncts.push(eb);
    }

    // Input policy.
    let mut policy_conjuncts = Vec::new();
    if ip.input_policy == InputPolicy::Hold {
        for k in 1..bound {
            let names: Vec<String> = u.frames()[k].inputs.keys().cloned().collect();
            for n in names {
                let ik = u.frames()[k].inputs[&n];
                let i0 = u.frames()[0].inputs[&n];
                policy_conjuncts.push(u.ctx_mut().eq(ik, i0));
            }
        }
    }

    // ILA post-state per mapped state.
    let mut ila_post: BTreeMap<String, ExprRef> = BTreeMap::new();
    for (ila_state, _, _) in &plan.mapped_states {
        let e = match instr.updates.get(ila_state) {
            Some(&upd) => {
                import_mapped(u.ctx_mut(), port.ctx(), upd, &var_map, &mut import_memo)
                    .map_err(|var| VerifyError::UnmappedIlaVar {
                        var,
                        instruction: instr.name.clone(),
                    })?
            }
            None => {
                let v = port.find_state(ila_state).expect("resolved").var;
                var_map[&v]
            }
        };
        ila_post.insert(ila_state.clone(), e);
    }

    // The post-equivalence at a given frame (pre-state-only entries
    // are excluded; they anchor the start correspondence only).
    let post_eq_at = |u: &mut Unrolling, frame: usize| -> Vec<(String, ExprRef)> {
        plan.mapped_states
            .iter()
            .filter(|(ila_state, _, _)| !map.unchecked_states.contains(ila_state))
            .map(|(ila_state, ts_expr, ila_sort)| {
                let rtl_f = u.map_expr(frame, *ts_expr);
                let rtl_f = match (ila_sort, u.ctx().sort_of(rtl_f)) {
                    (Sort::Bool, Sort::Bv(1)) => u.ctx_mut().bv_to_bool(rtl_f),
                    _ => rtl_f,
                };
                let eq = u.ctx_mut().eq(ila_post[ila_state], rtl_f);
                (ila_state.clone(), eq)
            })
            .collect()
    };

    let finish_ts: Option<ExprRef> = ip
        .finish_expr
        .map(|e| import(u.ctx_mut(), plan.cond_rtl.ctx(), e, &mut cond_memo));

    // The caller opened a scope for us: assert the per-instruction
    // conditions there (retracted on pop, CNF kept). Per-frame cases
    // then differ only in their assumption lists.
    for &c in start_conjuncts.iter().chain(&policy_conjuncts) {
        smt.assert(u.ctx(), c);
    }

    let frames_to_check: Vec<(usize, Vec<ExprRef>)> = match &finish_ts {
        None => vec![(bound, Vec::new())],
        Some(cond) => {
            // Check at the first frame where cond holds; one query per
            // candidate frame with "not finished before" assumptions.
            let mut cases = Vec::new();
            for j in 1..=bound {
                let mut assumptions = Vec::new();
                for k in 1..j {
                    let ck = u.map_expr(k, *cond);
                    let cb = u.ctx_mut().bv_to_bool(ck);
                    let nb = u.ctx_mut().not(cb);
                    assumptions.push(nb);
                }
                let cj = u.map_expr(j, *cond);
                let cb = u.ctx_mut().bv_to_bool(cj);
                assumptions.push(cb);
                cases.push((j, assumptions));
            }
            cases
        }
    };

    let mut result = CheckResult::Holds;
    let mut finish_reachable = finish_ts.is_none();
    for (frame, extra_assumptions) in frames_to_check {
        // Check that this case is reachable at all (for Condition
        // finishes); unreachable cases are skipped.
        if finish_ts.is_some() {
            let reach = smt.check_assuming(u.ctx(), &extra_assumptions);
            *solves += 1;
            record_solve(smt, tracer, meta, port.name(), &instr.name, "reach", frame, reach.is_sat());
            if let SmtResult::Unknown(reason) = reach {
                return Ok(CheckResult::Unknown {
                    reason,
                    budget_spent: BudgetSpent::default(),
                });
            }
            if !reach.is_sat() {
                continue;
            }
            finish_reachable = true;
        }
        let eqs = post_eq_at(u, frame);
        let eq_exprs: Vec<ExprRef> = eqs.iter().map(|(_, e)| *e).collect();
        let all_eq = u.ctx_mut().and_many(&eq_exprs);
        let viol = u.ctx_mut().not(all_eq);
        let mut assumptions = extra_assumptions;
        assumptions.push(viol);
        let violation = smt.check_assuming(u.ctx(), &assumptions);
        *solves += 1;
        let violated = violation.is_sat();
        record_solve(smt, tracer, meta, port.name(), &instr.name, "violation", frame, violated);
        if let SmtResult::Unknown(reason) = violation {
            return Ok(CheckResult::Unknown {
                reason,
                budget_spent: BudgetSpent::default(),
            });
        }
        if violated {
            // Diagnose which states mismatch.
            let mismatched: Vec<String> = {
                let vals = u.concretize(
                    smt,
                    eqs.iter().cloned().collect::<BTreeMap<String, ExprRef>>(),
                );
                vals.into_iter()
                    .filter(|(_, v)| !v.as_bool())
                    .map(|(n, _)| n)
                    .collect()
            };
            let rtl_inputs = (0..frame)
                .map(|k| u.concretize_inputs(smt, k))
                .collect();
            let rtl_trace: Vec<_> = (0..=frame)
                .map(|k| u.concretize_states(smt, k))
                .collect();
            result = CheckResult::CounterExample(Box::new(RefinementCex {
                finish_cycle: frame,
                rtl_start_state: rtl_trace[0].clone(),
                rtl_inputs,
                rtl_finish_state: rtl_trace[frame].clone(),
                rtl_trace,
                ila_post_state: u.concretize(smt, ila_post.clone()),
                mismatched_states: mismatched,
            }));
            break;
        }
    }
    if !finish_reachable && result.holds() {
        result = CheckResult::FinishNotReached { max_cycles: bound };
    }
    Ok(result)
}

/// Emits one `solve` span for a completed SAT check: its per-call
/// solver effort, incremental CNF delta, and the wall time of its SAT
/// calls and array-lemma rounds. The closure only runs when tracing is
/// enabled.
#[allow(clippy::too_many_arguments)]
fn record_solve(
    smt: &SmtSolver,
    tracer: &Tracer,
    meta: JobMeta,
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
            .worker(meta.worker)
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

/// The pool size [`VerifyOptions::jobs`] asks for, or `None` for the
/// sequential engine.
fn pool_size(jobs: Option<usize>) -> Option<usize> {
    match jobs {
        None | Some(1) => None,
        Some(0) => Some(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ),
        Some(n) => Some(n),
    }
}

/// Runs a port's instructions in declaration order on one persistent
/// engine over the port's sliced system `ts`. Jobs the journal answered
/// are not re-run; a panicking job is isolated ([`run_job_guarded`])
/// and costs only a rebuild of the engine.
fn run_port_sequential(
    plan: &PortPlan<'_>,
    ts: &TransitionSystem,
    stop_at_first_cex: bool,
    ctx: &RunCtx<'_>,
) -> Result<Vec<InstrVerdict>, VerifyError> {
    let mut engine: Option<WorkerEngine> = None;
    let mut verdicts = Vec::new();
    for idx in 0..plan.instrs.len() {
        let instr_name = &plan.port.instructions()[idx].name;
        let v = match ctx.replayed(plan.port.name(), instr_name) {
            Some(v) => v,
            None => {
                let v = run_job_guarded(
                    plan,
                    idx,
                    &mut engine,
                    || {
                        let mut e = WorkerEngine::new(ts, ctx.tracer);
                        if let Some(tok) = &ctx.policy.cancel {
                            e.smt.set_cancel(tok.clone());
                        }
                        e
                    },
                    ctx.tracer,
                    JobMeta::default(),
                    &ctx.policy,
                )?;
                ctx.record(plan.port.name(), &v);
                v
            }
        };
        let is_cex = matches!(v.result, CheckResult::CounterExample(_));
        verdicts.push(v);
        if is_cex && stop_at_first_cex {
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

/// Sums a verdict slice into the telemetry totals; `workers` counts the
/// distinct pool workers that appear (1 for purely sequential runs).
fn telemetry_of(verdicts: &[InstrVerdict]) -> Telemetry {
    let mut t = Telemetry::default();
    let mut workers: Vec<usize> = Vec::new();
    let mut batches: Vec<u64> = Vec::new();
    for v in verdicts {
        // Under batching, queue latency and steal status describe the
        // *batch* (every verdict of a batch carries copies); count them
        // once per distinct batch id so the `--stats` queue-latency
        // rows are not multiplied by the batch size.
        let new_batch = match v.batch_id {
            Some(b) => {
                let first = !batches.contains(&b);
                if first {
                    batches.push(b);
                }
                first
            }
            None => true,
        };
        if new_batch {
            t.queue_ns += v.queue_ns;
            t.steals += v.stolen as u64;
        }
        t.instructions += 1;
        t.solves += v.solves;
        t.decisions += v.effort.decisions;
        t.propagations += v.effort.propagations;
        t.conflicts += v.effort.conflicts;
        t.learnt_clauses += v.effort.learnt_clauses;
        t.cnf_vars += v.cnf_growth.variables;
        t.cnf_clauses += v.cnf_growth.clauses;
        t.wall_ns += v.time.as_nanos() as u64;
        t.retries += v.retries as u64;
        match &v.result {
            CheckResult::Unknown { budget_spent, .. } => {
                t.unknown += 1;
                t.budget_spent_conflicts += budget_spent.conflicts;
            }
            CheckResult::JobPanicked { .. } => t.panicked += 1,
            _ => {}
        }
        if let Some(w) = v.worker {
            if !workers.contains(&w) {
                workers.push(w);
            }
        }
    }
    t.workers = (workers.len() as u64).max(1);
    t.batches = batches.len() as u64;
    t
}

/// Rough proxy for the CNF a pooled run of `plan` over its sliced
/// system `ts` would blast: every per-frame DAG node (next-state
/// functions plus invariant constraints) weighted by its approximate
/// clause contribution, times the deepest unroll any instruction
/// needs, scaled by the instruction count (the number of solve
/// obligations the pool could parallelize). Compared against
/// [`VerifyOptions::par_threshold`] to route small modules to the
/// persistent sequential engine.
///
/// The weights follow `gila_smt`'s encodings: linear bit-vector ops
/// cost one clause group per output bit, multiplication and division
/// build a width-squared shift-add/restoring network, and shifts a
/// barrel of `w log w` muxes. Memory ops are still priced at all
/// `2^addr_width` words, the cost of an eager memory encoding; the
/// word-level encoding pays per read, so this over-prices memory ports.
pub(crate) fn estimate_port_work(plan: &PortPlan<'_>, ts: &TransitionSystem) -> u64 {
    let ctx = ts.ctx();
    let mut roots: Vec<ExprRef> = Vec::new();
    for s in ts.states() {
        if let Some(e) = ts.next_of(&s.name) {
            roots.push(e);
        }
    }
    roots.extend(ts.constraints().iter().copied());
    let bits = |e: ExprRef| -> u64 {
        match ctx.sort_of(e) {
            Sort::Bool => 1,
            Sort::Bv(w) => w as u64,
            // A memory node materializes every word.
            Sort::Mem {
                addr_width,
                data_width,
            } => (1u64 << addr_width.min(24)) * data_width as u64,
        }
    };
    let mut cnf: u64 = 0;
    for e in ctx.post_order(&roots) {
        let ExprNode::App { op, args, .. } = ctx.node(e) else {
            continue; // leaves blast to fresh literals, no clauses
        };
        // Widest involved sort: comparisons output Bool but still
        // blast a full-width comparator chain.
        let w = args
            .iter()
            .map(|&a| bits(a))
            .chain([bits(e)])
            .max()
            .unwrap_or(1);
        cnf += match op {
            Op::BvMul | Op::BvUdiv | Op::BvUrem => w.saturating_mul(w),
            Op::BvShl | Op::BvLshr | Op::BvAshr => {
                w.saturating_mul(64 - w.leading_zeros() as u64)
            }
            _ => w,
        };
    }
    let frames = plan
        .instrs
        .iter()
        .map(|ip| ip.bound as u64 + 1)
        .max()
        .unwrap_or(1);
    cnf.saturating_mul(frames)
        .saturating_mul(plan.instrs.len() as u64)
}

/// Every transition-system expression the checks of `instrs` (all of a
/// port plan's instructions, or one of them) will instantiate over the
/// unrolling — the root set for cone-of-influence slicing.
///
/// Mapped state/input expressions are roots directly. Conditions
/// (invariants, strengthenings, finish conditions) are parsed in the
/// plan's scratch RTL, so their support is resolved back to
/// transition-system expressions by signal name; a name that resolves
/// to a wire contributes that wire's defining expression, which keeps
/// the whole cone of the condition.
pub(crate) fn coi_roots(
    plan: &PortPlan<'_>,
    instrs: &[InstrPlan],
    ts: &TransitionSystem,
    ts_signals: &BTreeMap<String, ExprRef>,
) -> Vec<ExprRef> {
    let mut roots: Vec<ExprRef> = Vec::new();
    for (_, e, _) in &plan.mapped_states {
        roots.push(*e);
    }
    for (_, e, _) in &plan.mapped_inputs {
        roots.push(*e);
    }
    let mut cond_exprs: Vec<ExprRef> = plan.invariants.clone();
    for ip in instrs {
        cond_exprs.extend(ip.finish_expr);
        cond_exprs.extend(ip.strengthening);
    }
    for name in support(plan.cond_rtl.ctx(), &cond_exprs) {
        if let Some(&e) = ts_signals.get(&name) {
            roots.push(e);
        } else if let Some(e) = ts.ctx().find_var(&name) {
            roots.push(e);
        }
    }
    roots
}

/// A port of a run, in declaration order.
enum Stage<'a> {
    /// Answered in full by the journal: reported from its replays alone.
    Replayed(&'a PortIla, Vec<InstrVerdict>),
    /// Left to run: an index into the run's ports to run.
    Run(usize),
}

/// Prepares a port to run, and returns its sliced system and work
/// estimate. The port's cone of influence is sliced out of the run's
/// system `ts` (a `coi` span) and the slice's work estimated once
/// ([`estimate_port_work`]).
fn prepare(
    plan: &mut PortPlan<'_>,
    ts: &TransitionSystem,
    ts_signals: &BTreeMap<String, ExprRef>,
    opts: &VerifyOptions,
) -> (TransitionSystem, u64) {
    let (sliced, stats) = coi_slice(ts, &coi_roots(plan, &plan.instrs, ts, ts_signals));
    opts.tracer.record(|| {
        Event::new(SpanKind::Coi)
            .port(plan.port.name())
            .field("states_kept", stats.states_kept as u64)
            .field("states_dropped", stats.states_dropped as u64)
            .field("inputs_kept", stats.inputs_kept as u64)
            .field("inputs_dropped", stats.inputs_dropped as u64)
    });
    plan.coi = Some(stats);
    let work = estimate_port_work(plan, &sliced);
    (sliced, work)
}

/// Folds a port's verdicts into its report — telemetry, the journal
/// lookups and, for a port that ran, its plan's slicing counts — and
/// emits the per-port summary span. Every path reports its ports here.
fn port_report(
    port: &PortIla,
    ran: Option<&PortPlan<'_>>,
    verdicts: Vec<InstrVerdict>,
    total_time: Duration,
    ctx: &RunCtx<'_>,
) -> PortReport {
    let mut telemetry = telemetry_of(&verdicts);
    if let Some(plan) = ran {
        if let Some(s) = plan.coi {
            telemetry.coi_states_dropped += s.states_dropped as u64;
            telemetry.coi_inputs_dropped += s.inputs_dropped as u64;
        }
    }
    ctx.add_cache_telemetry(port.name(), &mut telemetry);
    let report = PortReport {
        port: port.name().to_string(),
        peak_stats: peak_of(&verdicts),
        telemetry,
        verdicts,
        total_time,
    };
    ctx.tracer.record(|| {
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
/// [`verify_module`]. It keys `planned` against the journal, sets aside
/// the ports the journal answers in full, runs the rest on the pool or
/// the sequential engine, and reports every port the same way. Returns
/// the port reports in declaration order, and the pool's worker count
/// when a pool ran.
fn run(
    planned: Planned<'_>,
    opts: &VerifyOptions,
) -> Result<(Vec<PortReport>, Option<u64>), VerifyError> {
    let ctx = RunCtx::new(opts, &planned);
    let Planned {
        ts,
        ts_signals,
        plans,
    } = planned;
    let stop = opts.stop_at_first_cex;
    let mut stages = Vec::with_capacity(plans.len());
    // The ports left to run, and the sliced systems of the first
    // `tss.len()` of them.
    let (mut to_run, mut tss) = (Vec::new(), Vec::new());
    for plan in plans {
        let Some(verdicts) = ctx.replayed_port(plan.port, stop) else {
            stages.push(Stage::Run(to_run.len()));
            to_run.push(plan);
            continue;
        };
        // A replayed counterexample ends a stopping run, on the pool as
        // in the sequential loop.
        let ends_run = stop
            && verdicts
                .iter()
                .any(|v| matches!(v.result, CheckResult::CounterExample(_)));
        stages.push(Stage::Replayed(plan.port, verdicts));
        if ends_run {
            break;
        }
    }
    let mut workers = pool_size(opts.jobs);
    if workers.is_some() {
        // The pool prepares every port it would run, for the estimate.
        let mut work = 0u64;
        for plan in &mut to_run {
            let (sliced, port_work) = prepare(plan, &ts, &ts_signals, opts);
            tss.push(sliced);
            work += port_work;
        }
        // Adaptive fallback: too little work for the pool to win back
        // its spawn + duplicate-blast overhead.
        if opts.par_threshold > 0 && work < opts.par_threshold {
            workers = None;
        }
    }
    let mut pooled = workers
        .map(|workers| {
            let cfg = PoolConfig {
                workers,
                stop_at_first_cex: stop,
            };
            run_pool(&to_run, &tss, cfg, &ctx)
        })
        .transpose()?;
    let mut reports = Vec::new();
    for stage in stages {
        let report = match (stage, &mut pooled) {
            (Stage::Replayed(port, verdicts), _) => {
                port_report(port, None, verdicts, Duration::ZERO, &ctx)
            }
            (Stage::Run(i), Some(outcome)) => {
                let result = &mut outcome.ports[i];
                let verdicts: Vec<_> = result.verdicts.drain(..).map(|(_, v)| v).collect();
                // A port the pool stopped before it produced a verdict is
                // left out, as the sequential loop leaves out the ports
                // it never reaches.
                if stop && verdicts.is_empty() && !to_run[i].instrs.is_empty() {
                    continue;
                }
                port_report(to_run[i].port, Some(&to_run[i]), verdicts, result.last_done, &ctx)
            }
            (Stage::Run(i), None) => {
                let t0 = Instant::now();
                // Prepared just before it runs, so a stopped run never
                // slices a port it does not reach.
                if i == tss.len() {
                    tss.push(prepare(&mut to_run[i], &ts, &ts_signals, opts).0);
                }
                let verdicts = run_port_sequential(&to_run[i], &tss[i], stop, &ctx)?;
                port_report(to_run[i].port, Some(&to_run[i]), verdicts, t0.elapsed(), &ctx)
            }
        };
        let ends_run = stop && pooled.is_none() && report.first_counterexample().is_some();
        reports.push(report);
        if ends_run {
            break;
        }
    }
    opts.tracer.flush();
    Ok((reports, pooled.map(|o| o.workers_spawned as u64)))
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
    let (ports, _) = run(Planned::new(&[(port, map)], rtl)?, opts)?;
    ports.into_iter().next().ok_or_else(|| VerifyError::Internal {
        reason: "the run reported no result for the port".to_string(),
    })
}

/// Verifies a whole module-ILA: each port against the same RTL, using
/// the refinement map with the matching name (falling back to a map
/// named `"*"`).
///
/// Under a worker pool (`jobs`), all ports' instructions are flattened
/// into one global job queue so workers stay busy across port
/// boundaries and their cached CNF serves every port.
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
    let (ports, workers) = run(Planned::module(module, rtl, maps)?, opts)?;
    let mut telemetry = ports
        .iter()
        .fold(Telemetry::default(), |acc, p| acc.merge(&p.telemetry));
    if let Some(w) = workers {
        telemetry.workers = w;
    }
    Ok(ModuleReport {
        module: module.name().to_string(),
        ports,
        telemetry,
    })
}

/// Counter fixtures shared by the engine and scheduler test modules.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use gila_core::StateKind;
    use gila_rtl::parse_verilog;

    /// A counter ILA and matching/buggy RTL for engine smoke tests.
    pub(crate) fn counter_ila() -> PortIla {
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

    pub(crate) fn counter_rtl(buggy: bool) -> RtlModule {
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

    pub(crate) fn counter_map() -> RefinementMap {
        let mut m = RefinementMap::new("counter");
        m.map_state("cnt", "count");
        m.map_input("en", "en_in");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{counter_ila, counter_map, counter_rtl};
    use super::*;
    use gila_core::StateKind;
    use gila_rtl::parse_verilog;

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
        assert_eq!(budget_spent.attempts, 1);
        assert_eq!(v.retries, 0);
        assert_eq!(report.telemetry.unknown, 1);
        assert!(report.telemetry.budget_spent_conflicts > 1);
        assert_eq!(report.counts().unknown, 1);
    }

    #[test]
    fn retry_escalation_converges_to_unbounded_verdict() {
        let baseline =
            verify_port(&mul_ila(), &mul_rtl(), &mul_map(), &VerifyOptions::default()).unwrap();
        assert!(baseline.all_hold(), "commutativity proof should close");
        let budgeted = verify_port(
            &mul_ila(),
            &mul_rtl(),
            &mul_map(),
            &VerifyOptions {
                budget: SolveBudget {
                    conflicts: Some(1),
                    timeout: None,
                },
                retries: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(budgeted.all_hold(), "{:?}", budgeted.verdicts[0].result);
        let v = &budgeted.verdicts[0];
        assert!(v.retries > 0, "a 1-conflict budget cannot decide this in one try");
        assert_eq!(budgeted.telemetry.retries, v.retries as u64);
        assert_eq!(budgeted.telemetry.unknown, 0);
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
                retries: 2, // a zero timeout never escalates: all 3 attempts expire
                ..Default::default()
            },
        )
        .unwrap();
        let CheckResult::Unknown { reason, budget_spent } = &report.verdicts[0].result else {
            panic!("expected Unknown, got {:?}", report.verdicts[0].result);
        };
        assert_eq!(*reason, ResourceOut::Deadline);
        assert_eq!(budget_spent.attempts, 3);
        assert_eq!(report.verdicts[0].retries, 2);
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
                jobs: Some(1),
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
        // `hold` still verifies.
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
        map.add_instruction_map(crate::refmap::InstructionMap {
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
        let tracer = Tracer::disabled();
        let ctx = RunCtx::plain(&tracer);
        let tags = |plan: &PortPlan<'_>, ts: &TransitionSystem| -> Vec<&'static str> {
            run_port_sequential(plan, ts, false, &ctx)
                .unwrap()
                .iter()
                .map(|v| v.result.tag())
                .collect()
        };
        let mut seen = BTreeMap::new();
        for (name, rtl) in &fixtures {
            let Planned {
                ts,
                ts_signals,
                mut plans,
            } = Planned::new(&[(&ila, &map)], rtl).unwrap();
            let plan = &mut plans[0];
            let (sliced, _) = prepare(plan, &ts, &ts_signals, &VerifyOptions::default());
            let on_slice = tags(plan, &sliced);
            assert_eq!(tags(plan, &ts), on_slice, "{name}: slicing changed a verdict");
            for tag in on_slice {
                *seen.entry(tag).or_insert(0) += 1;
            }
            if name.starts_with("junk") {
                let coi = plan.coi.expect("prepare slices the port");
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
        map.add_instruction_map(crate::refmap::InstructionMap {
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
