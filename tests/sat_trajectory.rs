//! Step-for-step pin of the SAT search.
//!
//! `registry_gates` pins the solver counters of the registry's fixed
//! RTL, but every one of those checks is UNSAT. This golden pins the
//! rest of the search: satisfying models, learnt-clause reduction,
//! inprocessing between calls, budgeted `Unknown` answers, and the
//! array-lemma re-solves that only happen on SAT answers.
//!
//! * a seeded `gila-sat` suite: incremental random 3-SAT under
//!   assumptions (SAT and UNSAT answers), a run long enough to reduce
//!   the learnt-clause database, inprocessing between calls, and
//!   conflict and propagation budgets that end in `Unknown`;
//! * `verify_module` on the three bug-injected registry variants and on
//!   a fixed handful of NoC Router register mutants, whose
//!   counterexamples come from SAT answers that array lemmas refine.
//!
//! Each line carries the result, the decisions, propagations,
//! conflicts, restarts and learnt clauses of the call, the clause and
//! variable counts where they apply, and a fingerprint of the model
//! (or of the counterexamples). A solver change that keeps this file
//! byte-identical makes the same search, step for step. Regenerate with
//! `GILA_REGEN_GOLDEN=1 cargo test --test sat_trajectory` only when a
//! change is meant to alter the search.

use std::fmt::Write;
use std::path::PathBuf;

use gila::designs::all_case_studies;
use gila::rtl::RtlModule;
use gila::sat::{InprocessConfig, Lit, SolveLimits, SolveResult, Solver, Var};
use gila::verify::{mutate_register, verify_module, CheckResult, Mutation, VerifyOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a byte stream: a stable fingerprint for models and
/// counterexamples.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, data: &[u8]) -> Fnv {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

fn result_tag(r: SolveResult) -> String {
    match r {
        SolveResult::Sat => "sat".into(),
        SolveResult::Unsat => "unsat".into(),
        SolveResult::Unknown(why) => format!("unknown:{}", why.as_str()),
    }
}

/// Fingerprint of the model of a `Sat` answer over every variable
/// (`-` for a non-`Sat` answer).
fn model_fingerprint(s: &Solver, r: SolveResult) -> String {
    if !r.is_sat() {
        return "-".into();
    }
    let bytes: Vec<u8> = (0..s.num_vars())
        .map(|i| match s.value(Lit::from_index(2 * i).var()) {
            Some(true) => b'1',
            Some(false) => b'0',
            None => b'?',
        })
        .collect();
    format!("{:016x}", Fnv::new().bytes(&bytes).0)
}

/// Solves under `assumptions` and appends one golden line for the call.
fn solve_line(out: &mut String, case: &str, s: &mut Solver, assumptions: &[Lit]) -> SolveResult {
    let r = s.solve_with_assumptions(assumptions);
    let st = s.last_solve_stats();
    writeln!(
        out,
        "{case}\t{}\tdecisions={}\tpropagations={}\tconflicts={}\trestarts={}\tlearnt={}\tvars={}\tclauses={}\tmodel={}",
        result_tag(r),
        st.decisions,
        st.propagations,
        st.conflicts,
        st.restarts,
        st.learnt_clauses,
        s.num_vars(),
        s.num_clauses(),
        model_fingerprint(s, r),
    )
    .unwrap();
    r
}

/// A random clause of `k` distinct variables over `vars`.
fn random_clause(rng: &mut StdRng, vars: &[Var], k: usize) -> Vec<Lit> {
    let mut picked: Vec<Var> = Vec::with_capacity(k);
    while picked.len() < k {
        let v = vars[rng.gen_range(0..vars.len())];
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
        .into_iter()
        .map(|v| Lit::new(v, rng.gen_bool(0.5)))
        .collect()
}

fn random_3sat(rng: &mut StdRng, n_vars: usize, n_clauses: usize) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
    for _ in 0..n_clauses {
        s.add_clause(random_clause(rng, &vars, 3));
    }
    (s, vars)
}

fn random_assumptions(rng: &mut StdRng, vars: &[Var], n: usize) -> Vec<Lit> {
    (0..n)
        .map(|_| Lit::new(vars[rng.gen_range(0..vars.len())], rng.gen_bool(0.5)))
        .collect()
}

/// Incremental random 3-SAT: one solver, calls under random
/// assumptions, more clauses after every call.
fn incremental_3sat(out: &mut String) {
    let mut rng = StdRng::seed_from_u64(0x5A7_0001);
    let (mut s, vars) = random_3sat(&mut rng, 120, 430);
    let mut answers = [0usize; 2];
    for call in 0..24 {
        let assumptions = random_assumptions(&mut rng, &vars, call % 4);
        let r = solve_line(
            out,
            &format!("3sat/incremental#{call}"),
            &mut s,
            &assumptions,
        );
        answers[r.is_sat() as usize] += 1;
        for _ in 0..2 {
            s.add_clause(random_clause(&mut rng, &vars, 3));
        }
    }
    assert!(
        answers[0] > 0 && answers[1] > 0,
        "the incremental suite must see SAT and UNSAT answers: {answers:?}"
    );
}

/// A random 3-SAT instance near the phase transition, hard enough to
/// outgrow the learnt-clause limit and reduce the database.
fn reduce_db(out: &mut String) {
    const ORIGINAL: usize = 810;
    let mut rng = StdRng::seed_from_u64(0x5A7_0002);
    let (mut s, _) = random_3sat(&mut rng, 190, ORIGINAL);
    solve_line(out, "3sat/reduce_db", &mut s, &[]);
    // Every conflict learns at most one clause; without reductions
    // nearly all of them would still be held.
    let conflicts = s.stats().conflicts as usize;
    assert!(
        conflicts > 5_000 && s.num_clauses() < ORIGINAL + conflicts / 2,
        "the instance must reduce the learnt database: {} clauses after {conflicts} conflicts",
        s.num_clauses()
    );
}

/// Runs one default inprocessing pass and appends its golden line.
fn inprocess_line(out: &mut String, tag: &str, s: &mut Solver) {
    let st = s.inprocess(&InprocessConfig::default());
    writeln!(
        out,
        "inprocess/{tag}\tsatisfied={}\tsubsumed={}\tlits_removed={}\tfailed={}\tprobes={}\tchecks={}\tvars={}\tclauses={}",
        st.clauses_satisfied,
        st.clauses_subsumed,
        st.lits_removed,
        st.failed_literals,
        st.probes,
        st.subsumption_checks,
        s.num_vars(),
        s.num_clauses(),
    )
    .unwrap();
}

/// Short random clauses over few variables, so inprocessing subsumes,
/// strengthens and finds failed literals, both before any search and
/// after learnt clauses join the database.
fn inprocess_subsumption(out: &mut String) {
    let mut rng = StdRng::seed_from_u64(0x5A7_0005);
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..24).map(|_| s.new_var()).collect();
    for _ in 0..70 {
        let k = rng.gen_range(2..=4);
        s.add_clause(random_clause(&mut rng, &vars, k));
    }
    inprocess_line(out, "short/initial", &mut s);
    for call in 0..4 {
        let assumptions = random_assumptions(&mut rng, &vars, 2);
        solve_line(
            out,
            &format!("inprocess/short#{call}"),
            &mut s,
            &assumptions,
        );
        inprocess_line(out, &format!("short/after#{call}"), &mut s);
    }
}

/// Three guarded random 3-SAT scopes sharing one solver; scopes are
/// retracted by a unit on their selector and inprocessing runs between
/// calls.
fn inprocess_between_calls(out: &mut String) {
    let mut rng = StdRng::seed_from_u64(0x5A7_0003);
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..90).map(|_| s.new_var()).collect();
    let selectors: Vec<Lit> = (0..3).map(|_| s.new_var().positive()).collect();
    for &sel in &selectors {
        for _ in 0..330 {
            let mut c = random_clause(&mut rng, &vars, 3);
            c.push(!sel);
            s.add_clause(c);
        }
    }
    for _ in 0..60 {
        s.add_clause(random_clause(&mut rng, &vars, 3));
    }
    inprocess_line(out, "initial", &mut s);
    for (k, &sel) in selectors.iter().enumerate() {
        let extra = random_assumptions(&mut rng, &vars, 3);
        let mut assumptions = vec![sel];
        solve_line(out, &format!("inprocess/scope{k}"), &mut s, &assumptions);
        assumptions.extend(extra);
        solve_line(out, &format!("inprocess/scope{k}+3"), &mut s, &assumptions);
        s.add_clause([!sel]);
        inprocess_line(out, &format!("retract{k}"), &mut s);
        solve_line(out, &format!("inprocess/after{k}"), &mut s, &[]);
    }
}

/// Conflict and propagation budgets end in `Unknown`; the same solver
/// then reaches the verdict unbounded.
fn budgets(out: &mut String) {
    let mut rng = StdRng::seed_from_u64(0x5A7_0004);
    let (mut s, _) = random_3sat(&mut rng, 150, 640);
    s.set_limits(SolveLimits {
        conflicts: Some(300),
        ..Default::default()
    });
    let r = solve_line(out, "budget/conflicts", &mut s, &[]);
    assert!(r.is_unknown(), "the conflict budget must fire: {r:?}");
    s.set_limits(SolveLimits {
        propagations: Some(20_000),
        ..Default::default()
    });
    let r = solve_line(out, "budget/propagations", &mut s, &[]);
    assert!(r.is_unknown(), "the propagation budget must fire: {r:?}");
    s.set_limits(SolveLimits::default());
    let r = solve_line(out, "budget/unbounded", &mut s, &[]);
    assert!(!r.is_unknown());
}

/// One `verify_module` run, sequential: the summed effort and CNF
/// size, the verdict counts, and a fingerprint of every verdict's
/// per-instruction effort and counterexample.
fn verify_line(
    out: &mut String,
    case: &str,
    cs: &gila::designs::CaseStudy,
    rtl: &RtlModule,
) -> usize {
    let report = verify_module(&cs.ila, rtl, &cs.refmaps, &VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{case}: setup error {e}"));
    let mut fp = Fnv::new();
    let mut cex = 0;
    for p in &report.ports {
        for v in &p.verdicts {
            let e = v.effort;
            fp = fp.bytes(
                format!(
                    "{}/{}:{}:{}:{}:{}:{}:{}:{}:{};",
                    p.port,
                    v.instruction,
                    v.result.tag(),
                    v.solves,
                    e.decisions,
                    e.propagations,
                    e.conflicts,
                    e.restarts,
                    v.cnf_growth.variables,
                    v.cnf_growth.clauses,
                )
                .as_bytes(),
            );
            if let CheckResult::CounterExample(c) = &v.result {
                cex += 1;
                fp = fp.bytes(format!("{c:?}").as_bytes());
            }
        }
    }
    let t = &report.telemetry;
    writeln!(
        out,
        "{case}\tcex={cex}\tsolves={}\tdecisions={}\tpropagations={}\tconflicts={}\tlearnt={}\tcnf_vars={}\tcnf_clauses={}\tfingerprint={:016x}",
        t.solves, t.decisions, t.propagations, t.conflicts, t.learnt_clauses, t.cnf_vars, t.cnf_clauses, fp.0,
    )
    .unwrap();
    cex
}

/// The three bug-injected registry variants.
fn buggy_variants(out: &mut String) {
    let mut found = 0;
    for cs in all_case_studies() {
        if let Some(buggy) = &cs.buggy_rtl {
            let cex = verify_line(out, &format!("verify/{} buggy", cs.name), &cs, buggy);
            assert!(cex > 0, "{}: the injected bug went unnoticed", cs.name);
            found += 1;
        }
    }
    assert_eq!(
        found, 3,
        "the registry documents three bug-injected variants"
    );
}

/// The mutated NoC Router registers: `rt_rr` picks the route-table
/// memory's write address, `buf_n` is an input buffer of the IN-PORT
/// and `out_rr` the output arbiter of the OUT-PORT.
const NOC_MUTANT_REGS: [&str; 3] = ["rt_rr", "buf_n", "out_rr"];

/// Every mutation of [`NOC_MUTANT_REGS`].
fn noc_mutants(out: &mut String) {
    let cs = all_case_studies()
        .into_iter()
        .find(|cs| cs.name == "NoC Router")
        .expect("NoC Router is in the registry");
    let mut killed = 0;
    for reg in NOC_MUTANT_REGS {
        for m in Mutation::all() {
            let mutant = mutate_register(&cs.rtl, reg, m).expect("register exists");
            let case = format!("verify/NoC Router {reg} {m:?}");
            killed += (verify_line(out, &case, &cs, &mutant) > 0) as usize;
        }
    }
    assert!(
        killed > 0,
        "no NoC Router mutant produced a counterexample\n{out}"
    );
}

fn render() -> String {
    let mut out = String::from("# case\tresult and counters (see tests/sat_trajectory.rs)\n");
    incremental_3sat(&mut out);
    reduce_db(&mut out);
    inprocess_between_calls(&mut out);
    inprocess_subsumption(&mut out);
    budgets(&mut out);
    buggy_variants(&mut out);
    noc_mutants(&mut out);
    out
}

#[test]
fn sat_trajectory_matches_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sat_trajectory.txt");
    if std::env::var("GILA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no golden at {}: {e}", path.display()));
    if let Some((want, got)) = golden.lines().zip(actual.lines()).find(|(g, a)| g != a) {
        panic!(
            "the SAT search drifted from {}\n  golden: {want}\n  actual: {got}",
            path.display()
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "the SAT trajectory case count drifted"
    );
}
