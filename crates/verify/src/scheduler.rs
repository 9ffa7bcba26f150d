//! Work-stealing verification scheduler with per-port job batching.
//!
//! Work is batched per port: one job carries a whole [`PortPlan`]'s
//! instruction list — or a contiguous chunk of it when the port has
//! enough instructions to keep several workers busy — so a single
//! worker amortizes one `Unrolling` + blast of the port's transition
//! relation across every instruction in the batch, exactly like the
//! sequential persistent engine does. Each plan brings its *own*
//! cone-of-influence-sliced transition system, so a worker serving a
//! port blasts only that port's logic. Workers keep a small cache of
//! per-port engines, so stealing a second chunk of a port they already
//! served costs no new blast.
//!
//! Scheduling is deterministic in its *results* but not its order:
//! workers pull from their local deque first, refill in batches from
//! the global injector, and steal from peers when both are empty.
//! Verdicts are reassembled into declaration order afterwards, so a
//! pooled run reports exactly what a sequential run would.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Stealer, Worker};
use gila_mc::TransitionSystem;
use gila_smt::CancelToken;

use crate::engine::{
    run_job_guarded, CheckResult, InstrVerdict, JobMeta, PortPlan, RunCtx, VerifyError,
    WorkerEngine,
};

/// One unit of work: a batch of instructions of a single port.
#[derive(Clone, Debug)]
struct Job {
    port: usize,
    /// Instruction indices of the batch, in declaration order.
    instrs: Vec<usize>,
    /// Run-unique batch id, recorded on every verdict of the batch.
    batch_id: u64,
}

/// Scheduler knobs, resolved from [`crate::engine::VerifyOptions`].
pub(crate) struct PoolConfig {
    /// Requested pool size (the spawned count is capped by the number
    /// of batches).
    pub(crate) workers: usize,
    /// Cancel all outstanding work on the first counterexample.
    pub(crate) stop_at_first_cex: bool,
}

/// A port's share of a pool run.
pub(crate) struct PoolPortResult {
    /// `(instruction index, verdict)` in declaration order. Gaps occur
    /// only when the run was cancelled (`stop_at_first_cex`).
    pub(crate) verdicts: Vec<(usize, InstrVerdict)>,
    /// When the port's last verdict landed, measured from pool start.
    pub(crate) last_done: Duration,
}

/// The outcome of a pool run, plus introspection for tests.
pub(crate) struct PoolOutcome {
    /// One entry per input plan, in the same order.
    pub(crate) ports: Vec<PoolPortResult>,
    /// How many worker threads were spawned (≤ the requested size).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) workers_spawned: usize,
    /// How many engines were actually built (lazily created, so idle
    /// workers never blast anything).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) engines_created: usize,
}

/// Per-port batches a worker can serve without rebuilding its engine
/// cache entry. The cache holds this many ports' engines per worker;
/// serving a third port evicts the least recently used engine.
const ENGINE_CACHE: usize = 2;

/// Runs every instruction of every plan on a pool of at most
/// `cfg.workers` threads. `tss` holds one transition system per plan
/// (typically per-port COI slices of the same module); a job for plan
/// `i` is always served by an engine over `tss[i]`.
///
/// With `cfg.stop_at_first_cex`, the first counterexample found
/// anywhere cancels all queued work *and* interrupts in-flight solves
/// through the workers' [`CancelToken`]s; an interrupted job reports
/// `Unknown(Cancelled)`. That stop never reaches the caller's token
/// ([`crate::VerifyOptions::cancel`]), while a cancelled caller's token
/// turns every job the pool has yet to decide into `Unknown(Cancelled)`.
///
/// Jobs the context's journal answered are never scheduled; their
/// replayed verdicts are merged into the result. A job
/// that panics is isolated into a [`CheckResult::JobPanicked`] verdict
/// ([`run_job_guarded`]) and the pool keeps draining; the rest of the
/// panicking batch continues on a rebuilt engine.
///
/// # Errors
///
/// A configuration error on any job cancels the run and is returned
/// (the lowest `(port, instruction)` one, for determinism).
pub(crate) fn run_pool(
    plans: &[PortPlan<'_>],
    tss: &[TransitionSystem],
    cfg: PoolConfig,
    ctx: &RunCtx<'_>,
) -> Result<PoolOutcome, VerifyError> {
    assert_eq!(plans.len(), tss.len(), "one transition system per plan");
    let tracer = ctx.tracer;
    let mut replayed: Vec<((usize, usize), InstrVerdict)> = Vec::new();
    let mut pending: Vec<Vec<usize>> = Vec::with_capacity(plans.len());
    for (port, plan) in plans.iter().enumerate() {
        let mut todo = Vec::new();
        for instr in 0..plan.instrs.len() {
            let name = &plan.port.instructions()[instr].name;
            match ctx.replayed(plan.port.name(), name) {
                Some(v) => replayed.push(((port, instr), v)),
                None => todo.push(instr),
            }
        }
        pending.push(todo);
    }
    let total: usize = pending.iter().map(Vec::len).sum();
    let jobs = make_jobs(&pending, cfg.workers);

    let workers_spawned = cfg.workers.clamp(1, jobs.len().max(1));
    let injector = Injector::new();
    for job in jobs {
        injector.push(job);
    }
    let locals: Vec<Worker<Job>> = (0..workers_spawned).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<Job>> = locals.iter().map(Worker::stealer).collect();

    // The run's token interrupts in-flight solves. It is local to this
    // run, so stopping at a counterexample or a config error never
    // cancels the caller's token; as a child of an externally supplied
    // one (a serve-layer client disconnect or watchdog) it also reads as
    // cancelled when that is. Only the run's own stop ends job pickup:
    // after an external cancellation every remaining job still runs and
    // fails fast as `Unknown(Cancelled)`, as on the sequential engine.
    let cancel = ctx
        .policy
        .cancel
        .as_ref()
        .map_or_else(CancelToken::new, CancelToken::child);
    let stopped = AtomicBool::new(false);
    let engines_created = AtomicUsize::new(0);
    let t0 = Instant::now();
    type JobRecord = (
        (usize, usize),
        Result<InstrVerdict, VerifyError>,
        Duration,
    );
    let results: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(total));

    let scope_result = crossbeam::thread::scope(|scope| {
        for (worker_id, local) in locals.into_iter().enumerate() {
            let (injector, stealers, cancel, stopped) = (&injector, &stealers, &cancel, &stopped);
            let (engines_created, results, ctx) = (&engines_created, &results, &ctx);
            scope.spawn(move |_| {
                // Per-port persistent engines.
                let mut cache: Vec<(usize, WorkerEngine)> = Vec::new();
                while !stopped.load(Ordering::Relaxed) {
                    let Some((job, stolen)) = find_job(&local, injector, stealers) else {
                        break;
                    };
                    let queue_ns = t0.elapsed().as_nanos() as u64;
                    let plan = &plans[job.port];
                    let ts = &tss[job.port];
                    let mut slot = cache_take(&mut cache, job.port);
                    for &idx in &job.instrs {
                        if stopped.load(Ordering::Relaxed) {
                            break;
                        }
                        let meta = JobMeta {
                            worker: Some(worker_id),
                            queue_ns,
                            stolen,
                            batch_id: Some(job.batch_id),
                            batch_size: job.instrs.len() as u64,
                        };
                        let res = run_job_guarded(
                            plan,
                            idx,
                            &mut slot,
                            || {
                                engines_created.fetch_add(1, Ordering::Relaxed);
                                let mut e = WorkerEngine::new(ts, tracer);
                                // Cancellation interrupts this worker's
                                // solver mid-search, not just job pickup.
                                e.smt.set_cancel(cancel.clone());
                                e
                            },
                            meta,
                            ctx,
                        );
                        let done_at = t0.elapsed();
                        let abort = match &res {
                            Ok(v) => {
                                ctx.record(plan.port.name(), v);
                                cfg.stop_at_first_cex
                                    && matches!(v.result, CheckResult::CounterExample(_))
                            }
                            Err(_) => true,
                        };
                        results.lock().unwrap_or_else(|p| p.into_inner()).push((
                            (job.port, idx),
                            res,
                            done_at,
                        ));
                        if abort {
                            stopped.store(true, Ordering::Relaxed);
                            cancel.cancel();
                            break;
                        }
                    }
                    cache_store(&mut cache, job.port, slot);
                }
            });
        }
    });
    // Workers isolate job panics themselves; a panic escaping to here
    // is a scheduler bug, reported as an internal error rather than a
    // double panic out of the verification API.
    if scope_result.is_err() {
        return Err(VerifyError::Internal {
            reason: "a verification worker died outside job isolation".to_string(),
        });
    }

    let mut records = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    records.extend(replayed.into_iter().map(|(key, v)| (key, Ok(v), Duration::ZERO)));
    records.sort_by_key(|(key, _, _)| *key);
    let mut ports: Vec<PoolPortResult> = plans
        .iter()
        .map(|_| PoolPortResult {
            verdicts: Vec::new(),
            last_done: Duration::ZERO,
        })
        .collect();
    for ((port, instr), res, done_at) in records {
        let verdict = res?;
        let port = &mut ports[port];
        port.verdicts.push((instr, verdict));
        port.last_done = port.last_done.max(done_at);
    }
    Ok(PoolOutcome {
        ports,
        workers_spawned,
        engines_created: engines_created.load(Ordering::Relaxed),
    })
}

/// Splits each port's pending instruction indices into batches: a port
/// is split into a number of contiguous chunks proportional to its
/// share of the total instruction count (rounded, at least 1, at most
/// one chunk per instruction), targeting `workers` chunks overall. One
/// heavyweight port is chunked so every worker gets a piece, while a
/// pile of small ports still costs one unrolling each.
fn make_jobs(pending: &[Vec<usize>], workers: usize) -> Vec<Job> {
    let total: usize = pending.iter().map(Vec::len).sum();
    let mut jobs = Vec::new();
    let mut batch_id = 0u64;
    for (port, instrs) in pending.iter().enumerate() {
        let n = instrs.len();
        if n == 0 {
            continue;
        }
        let chunks = ((n * workers + total / 2) / total.max(1)).clamp(1, n);
        let base = n / chunks;
        let extra = n % chunks;
        let mut off = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            jobs.push(Job {
                port,
                instrs: instrs[off..off + len].to_vec(),
                batch_id,
            });
            batch_id += 1;
            off += len;
        }
    }
    jobs
}

/// Takes the cached engine for `port` out of the worker's cache, if
/// present.
fn cache_take(cache: &mut Vec<(usize, WorkerEngine)>, port: usize) -> Option<WorkerEngine> {
    let pos = cache.iter().position(|(p, _)| *p == port)?;
    Some(cache.remove(pos).1)
}

/// Returns an engine to the cache (most recently used at the back),
/// evicting the least recently used entry past [`ENGINE_CACHE`].
fn cache_store(cache: &mut Vec<(usize, WorkerEngine)>, port: usize, engine: Option<WorkerEngine>) {
    if let Some(e) = engine {
        cache.push((port, e));
        if cache.len() > ENGINE_CACHE {
            cache.remove(0);
        }
    }
}

/// Local deque first, then a batch refill from the global injector,
/// then stealing from a peer. `None` means the run is drained (no
/// worker creates new jobs, so empty-everywhere is terminal). The
/// boolean marks jobs taken from a *peer's* deque — the telemetry
/// steal count.
fn find_job(
    local: &Worker<Job>,
    injector: &Injector<Job>,
    stealers: &[Stealer<Job>],
) -> Option<(Job, bool)> {
    if let Some(job) = local.pop() {
        return Some((job, false));
    }
    if let Some(job) = injector.steal_batch_and_pop(local).success() {
        return Some((job, false));
    }
    stealers
        .iter()
        .find_map(|s| s.steal().success())
        .map(|job| (job, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{counter_ila, counter_map, counter_rtl};
    use crate::engine::{verify_port, Planned, VerifyOptions};
    use crate::fault::{FaultAction, FaultPlan};
    use crate::RefinementMap;
    use gila_core::{PortIla, StateKind};
    use gila_expr::{Op, Sort};

    fn counter_cfg(workers: usize, stop_at_first_cex: bool) -> PoolConfig {
        PoolConfig {
            workers,
            stop_at_first_cex,
        }
    }

    fn run_counter_pool(
        buggy: bool,
        workers: usize,
        stop_at_first_cex: bool,
    ) -> PoolOutcome {
        run_counter_pool_with(buggy, counter_cfg(workers, stop_at_first_cex), None)
    }

    fn run_counter_pool_with(
        buggy: bool,
        cfg: PoolConfig,
        fault: Option<FaultPlan>,
    ) -> PoolOutcome {
        let port = counter_ila();
        let rtl = counter_rtl(buggy);
        let map = counter_map();
        let planned = Planned::new(&[(&port, &map)], &rtl).unwrap();
        let tracer = gila_trace::Tracer::disabled();
        let mut ctx = RunCtx::plain(&tracer, &planned);
        ctx.policy.fault = fault.map(std::sync::Arc::new);
        run_pool(&planned.plans, std::slice::from_ref(&planned.ts), cfg, &ctx).unwrap()
    }

    #[test]
    fn pool_matches_sequential_verdicts() {
        for buggy in [false, true] {
            let port = counter_ila();
            let rtl = counter_rtl(buggy);
            let seq =
                verify_port(&port, &rtl, &counter_map(), &VerifyOptions::default()).unwrap();
            for workers in [1, 2, 8] {
                let outcome = run_counter_pool(buggy, workers, false);
                let pooled = &outcome.ports[0].verdicts;
                assert_eq!(pooled.len(), seq.verdicts.len(), "workers={workers}");
                for ((idx, got), want) in pooled.iter().zip(&seq.verdicts) {
                    assert_eq!(got.instruction, want.instruction, "idx={idx}");
                    assert_eq!(
                        got.result.holds(),
                        want.result.holds(),
                        "workers={workers} instr={}",
                        got.instruction
                    );
                }
            }
        }
    }

    #[test]
    fn worker_count_never_exceeds_batch_count() {
        // Two instructions: with 8 workers requested, batching splits
        // the port into (at most) one chunk per instruction, so at most
        // 2 workers spawn, and engines are only built for workers that
        // actually ran.
        let outcome = run_counter_pool(false, 8, false);
        assert_eq!(outcome.workers_spawned, 2);
        assert!(outcome.engines_created <= 2);
        let outcome = run_counter_pool(false, 1, false);
        assert_eq!(outcome.workers_spawned, 1);
        assert_eq!(outcome.engines_created, 1);
    }

    #[test]
    fn batching_amortizes_one_engine_across_the_port() {
        // With one worker, batching folds the whole port into one job:
        // one batch id, one engine, queue/steal metadata shared by every
        // verdict of the batch.
        let outcome = run_counter_pool(false, 1, false);
        assert_eq!(outcome.engines_created, 1);
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        let first = &verdicts[0].1;
        let second = &verdicts[1].1;
        assert_eq!(first.batch_id, Some(0));
        assert_eq!(second.batch_id, Some(0));
        assert_eq!(first.batch_size, 2);
        assert_eq!(second.batch_size, 2);
        assert_eq!(first.queue_ns, second.queue_ns, "queue latency is per-batch");
        assert_eq!(first.stolen, second.stolen);
    }

    /// A counter variant whose two instructions share frame logic that
    /// neither decode fixes: `acc` gains or loses `a * b` as `en` says,
    /// and the ILA writes the product `b * a`, so a proof must blast both
    /// multipliers.
    fn mac_pool() -> PoolOutcome {
        let mut port = PortIla::new("mac");
        let en = port.input("en", Sort::Bv(1));
        let a = port.input("a", Sort::Bv(4));
        let b = port.input("b", Sort::Bv(4));
        let acc = port.state("acc", Sort::Bv(4), StateKind::Output);
        let prod = port.ctx_mut().bvmul(b, a);
        for (name, on, op) in [("add", 1, Op::BvAdd), ("sub", 0, Op::BvSub)] {
            let d = port.ctx_mut().eq_u64(en, on);
            let nx = port.ctx_mut().app(op, vec![acc, prod]);
            port.instr(name).decode(d).update("acc", nx).add().unwrap();
        }
        let rtl = gila_rtl::parse_verilog(
            r#"
module mac(clk, en_in, a_in, b_in);
  input clk;
  input en_in;
  input [3:0] a_in;
  input [3:0] b_in;
  reg [3:0] acc;
  wire [3:0] p;
  assign p = a_in * b_in;
  always @(posedge clk) if (en_in) acc <= acc + p; else acc <= acc - p;
endmodule
"#,
        )
        .unwrap();
        let mut map = RefinementMap::new("mac");
        map.map_state("acc", "acc");
        for (ila, sig) in [("en", "en_in"), ("a", "a_in"), ("b", "b_in")] {
            map.map_input(ila, sig);
        }
        let planned = Planned::new(&[(&port, &map)], &rtl).unwrap();
        let tracer = gila_trace::Tracer::disabled();
        let ctx = RunCtx::plain(&tracer, &planned);
        run_pool(
            &planned.plans,
            std::slice::from_ref(&planned.ts),
            counter_cfg(1, false),
            &ctx,
        )
        .unwrap()
    }

    #[test]
    fn single_worker_pool_reuses_cnf_across_instructions() {
        // On a persistent engine the second instruction re-uses the
        // blasted frame logic its decode leaves open: its CNF growth
        // must collapse relative to the first instruction on the same
        // worker.
        let outcome = mac_pool();
        let verdicts = &outcome.ports[0].verdicts;
        assert!(verdicts.iter().all(|(_, v)| v.result.holds()));
        assert_eq!(verdicts.len(), 2);
        let first = verdicts[0].1.cnf_growth;
        let second = verdicts[1].1.cnf_growth;
        assert!(first.clauses > 0);
        assert!(
            second.clauses * 2 < first.clauses,
            "expected CNF reuse: first instruction grew by {first:?}, second by {second:?}"
        );
        assert!(second.variables * 2 < first.variables, "{first:?} vs {second:?}");
    }

    #[test]
    fn shared_engine_does_not_leak_assumptions_between_jobs() {
        // On the buggy counter, `inc` fails and `hold` passes. A single
        // worker serves both from one solver; if `inc`'s scoped asserts
        // (its decode en==1, or the violation clause) leaked, `hold`
        // would be judged under the wrong start condition.
        let outcome = run_counter_pool(true, 1, false);
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        let inc = &verdicts[0].1;
        let hold = &verdicts[1].1;
        assert_eq!(inc.instruction, "inc");
        assert!(matches!(inc.result, CheckResult::CounterExample(_)));
        assert_eq!(hold.instruction, "hold");
        assert!(hold.result.holds(), "leaked state poisoned the second job");
    }

    #[test]
    fn cancellation_stops_scheduling_after_first_cex() {
        let outcome = run_counter_pool(true, 2, true);
        let verdicts = &outcome.ports[0].verdicts;
        // The counterexample is always reported; later jobs may have
        // been cancelled before starting.
        assert!(verdicts
            .iter()
            .any(|(_, v)| matches!(v.result, CheckResult::CounterExample(_))));
        assert!(verdicts.len() <= 2);
    }

    #[test]
    fn empty_plan_set_yields_empty_outcome() {
        let tracer = gila_trace::Tracer::disabled();
        let planned = Planned::new(&[], &counter_rtl(false)).unwrap();
        let ctx = RunCtx::plain(&tracer, &planned);
        let outcome = run_pool(&[], &[], counter_cfg(4, false), &ctx).unwrap();
        assert!(outcome.ports.is_empty());
        assert_eq!(outcome.engines_created, 0);
    }

    /// Regression test for the poisoning `.expect(...)` lock/join
    /// handling: a job that panics mid-check must become a
    /// `JobPanicked` verdict, not tear down the pool, and every other
    /// job must still be decided normally.
    #[test]
    fn panicking_job_is_isolated_and_pool_drains() {
        for workers in [1, 4] {
            let fault = FaultPlan::new().inject(
                "counter",
                "inc",
                FaultAction::Panic("injected".into()),
                Some(1),
            );
            let outcome =
                run_counter_pool_with(false, counter_cfg(workers, false), Some(fault));
            let verdicts = &outcome.ports[0].verdicts;
            assert_eq!(verdicts.len(), 2, "workers={workers}");
            let inc = &verdicts[0].1;
            assert_eq!(inc.instruction, "inc");
            let CheckResult::JobPanicked { message } = &inc.result else {
                panic!("expected JobPanicked, got {:?}", inc.result);
            };
            assert!(message.contains("injected"), "{message}");
            // The other instruction is decided as if nothing happened.
            let hold = &verdicts[1].1;
            assert_eq!(hold.instruction, "hold");
            assert!(hold.result.holds(), "workers={workers}");
        }
    }

    /// A worker whose engine was poisoned by a panic rebuilds it and
    /// keeps serving: with one worker, the panic on the first job must
    /// not leave the second job with a corrupt solver — even mid-batch.
    #[test]
    fn single_worker_rebuilds_engine_after_panic() {
        let fault = FaultPlan::new().inject(
            "counter",
            "inc",
            FaultAction::Panic("first job dies".into()),
            Some(1),
        );
        let outcome = run_counter_pool_with(true, counter_cfg(1, false), Some(fault));
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].1.result.is_panicked());
        // On the buggy counter `hold` still genuinely holds; deciding it
        // requires a fresh, working engine after the panic.
        assert!(verdicts[1].1.result.holds());
        // One engine for the panicked job, one rebuilt for the next.
        assert_eq!(outcome.engines_created, 2);
    }

    #[test]
    fn make_jobs_balances_chunks_proportionally() {
        // One port of 4 and one of 2, 4 workers: the big port gets 3
        // chunks, the small one 1, totalling the worker count.
        let pending = vec![vec![0, 1, 2, 3], vec![0, 1]];
        let jobs = make_jobs(&pending, 4);
        assert_eq!(jobs.len(), 4);
        let sizes: Vec<usize> = jobs.iter().map(|j| j.instrs.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1, 2]);
        // Chunks are contiguous, in declaration order, with unique ids.
        assert_eq!(jobs[0].instrs, vec![0, 1]);
        assert_eq!(jobs[1].instrs, vec![2]);
        assert_eq!(jobs[2].instrs, vec![3]);
        assert_eq!(jobs[3].instrs, vec![0, 1]);
        let ids: Vec<u64> = jobs.iter().map(|j| j.batch_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // One worker: one batch per port regardless of size.
        let jobs = make_jobs(&pending, 1);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].instrs.len(), 4);
        assert_eq!(jobs[1].instrs.len(), 2);
    }
}
