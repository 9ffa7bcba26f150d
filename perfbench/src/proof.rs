//! The `prove` and `datapath` workloads: cold `verify_module` proofs of
//! fixed RTL, every verdict checked.

use gila_designs::{all_case_studies, CaseStudy};
use gila_verify::{rtl_to_ts, verify_module, ModuleReport, VerifyOptions};

use crate::measure::Rng;
use crate::{Config, Counters, Kind, Spans, Workload};

/// Designs `prove` cycles through: the solver-bound ones.
pub const PROVE_DESIGNS: [&str; 3] = ["Store Buffer", "NoC Router", "L2 Cache"];
/// Nominal seconds of one `prove` pass over [`PROVE_DESIGNS`].
pub const PROVE_PASS_S: f64 = 1.7;
/// Nominal seconds of one Datapath proof.
pub const DATAPATH_PROOF_S: f64 = 12.0;
/// The design whose proof warms the engine during set-up.
pub const WARM_UP_DESIGN: &str = "L2 Cache";

/// A fixed sequence of cold proofs.
pub struct ProofWorkload {
    targets: Vec<CaseStudy>,
    order: Vec<usize>,
    jobs: usize,
}

impl ProofWorkload {
    /// Builds the registry, fixes the seeded request order, and warms
    /// the engine with one untimed proof of [`WARM_UP_DESIGN`].
    pub fn setup(cfg: &Config, spans: &Spans) -> Result<ProofWorkload, String> {
        let registry = spans.span("designs.build", all_case_studies);
        let find = |name: &str| -> Result<CaseStudy, String> {
            registry
                .iter()
                .find(|cs| cs.name == name)
                .cloned()
                .ok_or_else(|| format!("design {name:?} is not in the registry"))
        };
        let mut rng = Rng::new(cfg.seed);
        let (targets, order) = match cfg.kind {
            Kind::Prove => {
                let passes = requests_for(cfg.seconds, PROVE_PASS_S);
                let mut order = Vec::new();
                for _ in 0..passes {
                    let mut pass: Vec<usize> = (0..PROVE_DESIGNS.len()).collect();
                    rng.shuffle(&mut pass);
                    order.extend(pass);
                }
                let targets = PROVE_DESIGNS
                    .iter()
                    .map(|n| find(n))
                    .collect::<Result<_, _>>()?;
                (targets, order)
            }
            Kind::Datapath => {
                let proofs = requests_for(cfg.seconds, DATAPATH_PROOF_S);
                (vec![find("Datapath")?], vec![0; proofs])
            }
            Kind::Edit => return Err("the edit workload is not a proof workload".into()),
        };
        let warm = find(WARM_UP_DESIGN)?;
        let report = spans.span("verify.warm_up", || prove(&warm, cfg.jobs))?;
        check(&warm, &report)?;
        Ok(ProofWorkload::with_targets(targets, order, cfg.jobs))
    }

    /// A workload proving `targets[order[i]]` as request `i`.
    pub fn with_targets(targets: Vec<CaseStudy>, order: Vec<usize>, jobs: usize) -> ProofWorkload {
        ProofWorkload {
            targets,
            order,
            jobs,
        }
    }

    /// Names of the designs in request order.
    pub fn sequence(&self) -> Vec<&'static str> {
        self.order.iter().map(|&i| self.targets[i].name).collect()
    }
}

impl Workload for ProofWorkload {
    fn request_span(&self) -> &'static str {
        "proof.request"
    }

    fn requests(&self) -> usize {
        self.order.len()
    }

    fn request(&mut self, i: usize, spans: &Spans, counters: &mut Counters) -> Result<(), String> {
        let cs = &self.targets[self.order[i]];
        let report = spans.span("verify.module", || prove(cs, self.jobs))?;
        count(&report, counters);
        check(cs, &report)
    }

    fn probe(&mut self, spans: &Spans, _counters: &mut Counters) {
        for &t in &self.order {
            let rtl = &self.targets[t].rtl;
            if let Ok((mut ts, _)) = spans.span("verify.rtl_to_ts", || rtl_to_ts(rtl)) {
                spans.span("absint.analyze", || gila_absint::analyze_ts(&mut ts));
            }
        }
    }
}

/// Requests in a sequence of nominally `seconds`, each nominally
/// `per_request_s` long (at least one).
pub fn requests_for(seconds: u64, per_request_s: f64) -> usize {
    ((seconds as f64 / per_request_s).round() as usize).max(1)
}

/// A cold proof of `cs` with a pool of `jobs`.
pub fn prove(cs: &CaseStudy, jobs: usize) -> Result<ModuleReport, String> {
    let opts = VerifyOptions {
        jobs: Some(jobs),
        ..VerifyOptions::default()
    };
    verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts).map_err(|e| format!("{}: {e}", cs.name))
}

/// The fixed RTL must verify: every instruction holds, with no
/// unknown or panicked job and no budget retry.
pub fn check(cs: &CaseStudy, report: &ModuleReport) -> Result<(), String> {
    let c = report.counts();
    let t = &report.telemetry;
    if !report.all_hold() || c.unknown + c.panicked > 0 || t.retries > 0 {
        return Err(format!(
            "{}: {} holds, {} cex, {} unreached, {} unknown, {} panicked, {} retries",
            cs.name, c.holds, c.cex, c.unreached, c.unknown, c.panicked, t.retries
        ));
    }
    Ok(())
}

/// Adds a proof's telemetry to the per-layer counters.
fn count(report: &ModuleReport, c: &mut Counters) {
    let t = &report.telemetry;
    for (name, v) in [
        ("sat.solves", t.solves),
        ("sat.decisions", t.decisions),
        ("sat.propagations", t.propagations),
        ("sat.conflicts", t.conflicts),
        ("sat.learnt_clauses", t.learnt_clauses),
        ("sat.inprocess_clauses_removed", t.inprocess_clauses_removed),
        ("sat.inprocess_failed_literals", t.inprocess_failed_literals),
        ("smt.cnf_vars", t.cnf_vars),
        ("smt.cnf_clauses", t.cnf_clauses),
        (
            "mc.coi_dropped",
            t.coi_states_dropped + t.coi_inputs_dropped,
        ),
        ("verify.batches", t.batches),
        ("verify.steals", t.steals),
        ("absint.invariants_proved", t.invariants_proved),
        ("verify.unknown", t.unknown),
        ("verify.panicked", t.panicked),
        ("verify.retries", t.retries),
    ] {
        c.add(name, v as f64);
    }
    c.add("verify.queue_s", t.queue_ns as f64 / 1e9);
    c.max("verify.workers", t.workers as f64);
    let instr_s: f64 = report
        .ports
        .iter()
        .flat_map(|p| &p.verdicts)
        .map(|v| v.time.as_secs_f64())
        .sum();
    c.add("verify.instr_s", instr_s);
}
