//! Benchmark entry point.
//!
//! ```text
//! gila-perfbench --workload prove|datapath|edit --seed N --seconds S --trace 0|1
//! gila-perfbench --write-golden
//! ```
//!
//! Prints one JSON line of run details (host-speed probes, set-up
//! samples, failures, unmeasured metrics) and, last, the result line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`).

use std::process::ExitCode;

use gila_json::Value;
use gila_perfbench::{
    edit, golden, measure, timed_run, traced_run, work_dir, Config, Kind, END_TO_END, PER_LAYER,
};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let workload = flag("--workload")?;
    Ok(Args {
        kind: Kind::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn write_golden() -> Result<(), String> {
    let registry = gila_designs::all_case_studies();
    let (designs, edits) = edit::render(&registry)?;
    let entries = edits
        .iter()
        .map(|e| golden::compute(e.key.clone(), &designs[e.design].cs, &e.rtl))
        .collect::<Result<Vec<_>, _>>()?;
    let path = golden::table_path();
    std::fs::write(&path, golden::to_json(&entries))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} rows to {}", entries.len(), path.display());
    Ok(())
}

fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(v)
    } else {
        Value::Null
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-golden") {
        return match write_golden() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: gila-perfbench --workload prove|datapath|edit --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.kind, args.seed, args.seconds);
    let probe_start = measure::host_probe_s();
    let run = if args.trace {
        traced_run(&cfg)
    } else {
        timed_run(&cfg)
    };
    let probe_end = measure::host_probe_s();
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut spans_file = Value::Null;
    if args.trace {
        let path = work_dir().join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
        let written = std::fs::create_dir_all(work_dir())
            .and_then(|()| std::fs::write(&path, &report.spans_jsonl));
        match written {
            Ok(()) => spans_file = path.display().to_string().into(),
            Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
        }
    }
    let detail = Value::object(vec![
        ("workload".into(), args.kind.name().into()),
        ("seed".into(), args.seed.into()),
        ("seconds".into(), args.seconds.into()),
        ("trace".into(), args.trace.into()),
        (
            "host_probe_s".into(),
            Value::object(vec![
                ("start".into(), num(probe_start)),
                ("end".into(), num(probe_end)),
            ]),
        ),
        (
            "setup_s_samples".into(),
            Value::Array(report.setup_samples.iter().map(|&v| num(v)).collect()),
        ),
        (
            "latencies_s".into(),
            Value::Array(report.latencies.iter().map(|&v| num(v)).collect()),
        ),
        ("spans".into(), report.spans.into()),
        ("spans_file".into(), spans_file),
        (
            "unmeasured".into(),
            Value::object(
                args.kind
                    .unmeasured()
                    .iter()
                    .filter(|_| args.trace)
                    .map(|&(name, why)| (name.to_string(), why.into()))
                    .collect(),
            ),
        ),
        (
            "failures".into(),
            Value::Array(
                report
                    .failures
                    .iter()
                    .take(10)
                    .map(|f| f.as_str().into())
                    .collect(),
            ),
        ),
    ]);
    println!("{}", detail.to_compact());

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = listed
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(f64::NAN);
            let m = Value::object(vec![
                ("value".into(), num(value)),
                ("unit".into(), unit.into()),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let failed = report.failures.len() as u64;
    let result = Value::object(vec![
        (
            "correct".into(),
            (failed == 0 && report.attempted > 0).into(),
        ),
        ("attempted".into(), report.attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), Value::object(metrics)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}
