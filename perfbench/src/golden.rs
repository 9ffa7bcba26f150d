//! The golden table of the `edit` workload: for every mutant, the
//! per-instruction verdict tags and the hunt result, computed once by
//! a cold sequential `verify_module` and `hunt` outside the daemon.
//! Every run checks the daemon's answers (cached or not) against it.

use std::collections::BTreeMap;

use gila_designs::CaseStudy;
use gila_json::Value;
use gila_rtl::RtlModule;
use gila_trace::Tracer;
use gila_verify::{hunt, HuntConfig, HuntReport, HuntTarget, ModuleReport, VerifyOptions};

/// The committed table.
pub const TABLE: &str = include_str!("../golden/edit.json");

/// Path of the committed table, for regeneration.
pub fn table_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/edit.json")
}

/// The fixed hunt every edit runs: seeds × cycles, shrink on.
pub fn hunt_config() -> HuntConfig {
    HuntConfig {
        seeds: 4,
        cycles: 256,
        jobs: 1,
        seed_base: 0x5eed,
        shrink: true,
    }
}

/// One mutant's expected results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// `design/register/mutation`.
    pub key: String,
    /// Canonical verdict line ([`verdict_line`]).
    pub verdicts: String,
    /// Canonical hunt findings ([`hunt_line`]).
    pub hunt: String,
    /// Co-simulated cycles of the hunt.
    pub cycles_run: u64,
}

/// Port names as `.ila` text prints them (`READ-PORT` → `READ_PORT`).
pub fn port_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Instruction names as `.ila` text prints them.
pub fn instr_name(name: &str) -> String {
    name.replace(" & ", "__and__")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// `PORT:instr=tag,...;PORT:...` in report order, names as printed.
pub fn verdict_line(report: &ModuleReport) -> String {
    let ports: Vec<String> = report
        .ports
        .iter()
        .map(|p| {
            let vs: Vec<String> = p
                .verdicts
                .iter()
                .map(|v| format!("{}={}", instr_name(&v.instruction), v.result.tag()))
                .collect();
            format!("{}:{}", port_name(&p.port), vs.join(","))
        })
        .collect();
    ports.join(";")
}

/// The same line from a daemon `verify` result object.
pub fn verdict_line_json(result: &Value) -> Result<String, String> {
    let bad = || format!("malformed verify result: {}", result.to_compact());
    let mut ports = Vec::new();
    for p in result
        .get("ports")
        .and_then(Value::as_array)
        .ok_or_else(bad)?
    {
        let name = p.get("port").and_then(Value::as_str).ok_or_else(bad)?;
        let mut vs = Vec::new();
        for v in p
            .get("verdicts")
            .and_then(Value::as_array)
            .ok_or_else(bad)?
        {
            let instr = v
                .get("instruction")
                .and_then(Value::as_str)
                .ok_or_else(bad)?;
            let tag = v.get("result").and_then(Value::as_str).ok_or_else(bad)?;
            vs.push(format!("{}={tag}", instr_name(instr)));
        }
        ports.push(format!("{}:{}", port_name(name), vs.join(",")));
    }
    Ok(ports.join(";"))
}

/// `port#seed@cycle:instruction/state>shrunk_cycle` per finding.
pub fn hunt_line(report: &HuntReport) -> String {
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            let shrunk = f.shrunk.as_ref().map_or(-1, |s| s.divergence.cycle as i64);
            format!(
                "{}#{}@{}:{}/{}>{shrunk}",
                port_name(&f.port),
                f.seed,
                f.divergence.cycle,
                instr_name(&f.divergence.instruction),
                f.divergence.state
            )
        })
        .collect();
    findings.join(",")
}

/// Hunts `rtl` against every mapped port of `cs`.
pub fn hunt_mutant(cs: &CaseStudy, rtl: &RtlModule) -> Result<HuntReport, String> {
    let targets: Vec<HuntTarget<'_>> = cs
        .ila
        .ports()
        .iter()
        .filter_map(|port| {
            let map = cs.refmaps.iter().find(|m| m.name == port.name())?;
            Some(HuntTarget {
                design: cs.name,
                port,
                rtl,
                map,
            })
        })
        .collect();
    hunt(&targets, &hunt_config(), &Tracer::disabled()).map_err(|e| format!("hunt: {e}"))
}

/// Computes one mutant's entry with a cold sequential proof.
pub fn compute(key: String, cs: &CaseStudy, mutant: &RtlModule) -> Result<Entry, String> {
    let opts = VerifyOptions {
        jobs: Some(1),
        ..VerifyOptions::default()
    };
    let report = gila_verify::verify_module(&cs.ila, mutant, &cs.refmaps, &opts)
        .map_err(|e| format!("{key}: {e}"))?;
    let hunted = hunt_mutant(cs, mutant)?;
    Ok(Entry {
        key,
        verdicts: verdict_line(&report),
        hunt: hunt_line(&hunted),
        cycles_run: hunted.cycles_run,
    })
}

/// Renders entries as the table file.
pub fn to_json(entries: &[Entry]) -> String {
    let h = hunt_config();
    let rows = entries
        .iter()
        .map(|e| {
            Value::object(vec![
                ("key".into(), e.key.as_str().into()),
                ("verdicts".into(), e.verdicts.as_str().into()),
                ("hunt".into(), e.hunt.as_str().into()),
                ("cycles_run".into(), e.cycles_run.into()),
            ])
        })
        .collect();
    let doc = Value::object(vec![
        (
            "hunt".into(),
            Value::object(vec![
                ("seeds".into(), h.seeds.into()),
                ("cycles".into(), h.cycles.into()),
                ("seed_base".into(), h.seed_base.into()),
            ]),
        ),
        ("mutants".into(), Value::Array(rows)),
    ]);
    doc.pretty() + "\n"
}

/// Parses a table, checking it was made with today's hunt settings.
pub fn parse(text: &str) -> Result<BTreeMap<String, Entry>, String> {
    let doc = gila_json::parse(text).map_err(|e| format!("golden table: {e}"))?;
    let h = hunt_config();
    let setting = |k: &str| {
        doc.get("hunt")
            .and_then(|v| v.get(k))
            .and_then(Value::as_u64)
    };
    if setting("seeds") != Some(h.seeds)
        || setting("cycles") != Some(h.cycles as u64)
        || setting("seed_base") != Some(h.seed_base)
    {
        return Err("golden table was made with other hunt settings; regenerate it".into());
    }
    let rows = doc
        .get("mutants")
        .and_then(Value::as_array)
        .ok_or("golden table: no mutants")?;
    let mut out = BTreeMap::new();
    for r in rows {
        let s = |k: &str| r.get(k).and_then(Value::as_str).map(str::to_string);
        let entry = match (
            s("key"),
            s("verdicts"),
            s("hunt"),
            r.get("cycles_run").and_then(Value::as_u64),
        ) {
            (Some(key), Some(verdicts), Some(hunt), Some(cycles_run)) => Entry {
                key,
                verdicts,
                hunt,
                cycles_run,
            },
            _ => return Err(format!("golden table: malformed row {}", r.to_compact())),
        };
        out.insert(entry.key.clone(), entry);
    }
    Ok(out)
}
