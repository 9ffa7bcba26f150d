//! End-to-end tests of the `gila` binary: exit codes, output shape, and
//! the VCD side artifact.

use std::io::Write as _;
use std::process::Command;

struct Workspace {
    dir: std::path::PathBuf,
}

impl Workspace {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gila_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        Workspace { dir }
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let path = self.dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(contents.as_bytes()).expect("write");
        path.to_string_lossy().into_owned()
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const SPEC: &str = r#"
port counter {
  input en : bv1
  output state cnt : bv8 init 0

  instr inc when en == 1 { cnt := cnt + 1 }
  instr hold when en == 0 { }
}
"#;

const RTL_GOOD: &str = r#"
module counter(clk, en_in);
  input clk; input en_in;
  reg [7:0] count;
  always @(posedge clk) if (en_in) count <= count + 8'd1;
endmodule
"#;

const RTL_BAD: &str = r#"
module counter(clk, en_in);
  input clk; input en_in;
  reg [7:0] count;
  always @(posedge clk) if (en_in) count <= count + 8'd2;
endmodule
"#;

const MAP: &str = r#"
{
  "name": "counter",
  "state_map": { "cnt": "count" },
  "interface_map": { "en": "en_in" }
}
"#;

fn gila() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gila"))
}

#[test]
fn verify_succeeds_on_correct_rtl() {
    let ws = Workspace::new("ok");
    let out = gila()
        .args([
            "verify",
            "--ila",
            &ws.file("c.ila", SPEC),
            "--rtl",
            &ws.file("c.v", RTL_GOOD),
            "--map",
            &ws.file("m.json", MAP),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("HOLDS"));
    assert!(stdout.contains("the RTL refines the ILA"));
}

#[test]
fn verify_rejects_unknown_and_malformed_flags_with_exit_code_2() {
    let ws = Workspace::new("flags");
    let spec = ws.file("c.ila", SPEC);
    let rtl = ws.file("c.v", RTL_GOOD);
    let map = ws.file("m.json", MAP);
    // Unknown flags are usage errors that name the flag, never silently
    // ignored.
    for extra in [
        ["--resume", "run.jsonl"].as_slice(),
        ["--parallel", "--jobs", "4"].as_slice(),
        ["--no-absint"].as_slice(),
        ["--no-preprocess", "--stats"].as_slice(),
        ["--par-threshold", "0"].as_slice(),
        ["--jobs", "4"].as_slice(),
    ] {
        let out = gila()
            .args(["verify", "--ila", &spec, "--rtl", &rtl, "--map", &map])
            .args(extra)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("no flag {}", extra[0])), "{stderr}");
    }
    // A malformed budget is a usage error, not a crash.
    let out = gila()
        .args([
            "verify", "--ila", &spec, "--rtl", &rtl, "--map", &map, "--timeout-ms", "many",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn every_subcommand_rejects_unknown_flags_with_exit_code_2() {
    let ws = Workspace::new("unknown_flags");
    let spec = ws.file("c.ila", SPEC);
    let rtl = ws.file("c.v", RTL_GOOD);
    let map = ws.file("m.json", MAP);
    // One misspelt or removed flag per subcommand. Each is rejected by
    // name before it can swallow the next argument as its value.
    let unknown = [
        (vec!["verify", "--ila", &spec, "--jobs", "4"], "--jobs"),
        (vec!["verify", "--ila", &spec, "--retries", "1"], "--retries"),
        (vec!["lint", "--no-absint", &spec], "--no-absint"),
        (vec!["lint", &spec, "--jbos", "4"], "--jbos"),
        (vec!["lint", &spec, "--jobs", "2"], "--jobs"),
        (vec!["describe", "--ila", &spec, "--colour", "red"], "--colour"),
        (vec!["synth", "--ila", &spec, "-O", "out.v"], "-O"),
        (vec!["check-inv", "--rtl", &rtl, "--invariant", "1", "--dept", "3"], "--dept"),
        (vec!["props", "--ila", &spec, "--mapp", &map], "--mapp"),
        (vec!["export", "--rtl", &rtl, "--porp", "1"], "--porp"),
        (vec!["sim", "--rtl", &rtl, "--stim", "s.txt"], "--stim"),
        (vec!["hunt", "--design", "Decoder", "--seedz", "2"], "--seedz"),
        (vec!["serve", "--listn", "127.0.0.1:0"], "--listn"),
        (vec!["serve", "--jobs", "2"], "--jobs"),
        (vec!["serve", "--fault", "panic@*/*"], "--fault"),
        (vec!["client", "--conect", "127.0.0.1:1", "--ping"], "--conect"),
        (vec!["client", "--fault", "disconnect@0*1", "--ping"], "--fault"),
        (vec!["client", "--seed", "7", "--ping"], "--seed"),
    ]
    .map(|(args, bad)| (args, format!("has no flag {bad}")));
    // A flag a subcommand takes once is rejected on its second use,
    // never read from its first use alone.
    let repeated = [
        (vec!["describe", "--ila", &spec, "--ila", &spec], "--ila"),
        (vec!["verify", "--ila", &spec, "--map", &map, "--rtl", &rtl, "--rtl", &rtl], "--rtl"),
        (vec!["synth", "--ila", &spec, "-o", "a.v", "-o", "b.v"], "-o"),
        (vec!["lint", &spec, "--trace", "a.jsonl", "--trace", "b.jsonl"], "--trace"),
        (vec!["hunt", "--design", "Decoder", "--seeds", "1", "--seeds", "2"], "--seeds"),
        (vec!["client", "--socket", "a.sock", "--socket", "b.sock", "--ping"], "--socket"),
    ]
    .map(|(args, bad)| (args, format!("takes {bad} once")));
    for (args, want) in unknown.into_iter().chain(repeated) {
        let out = gila().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("gila {} {want}", args[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting it: {want}");
    }
}

/// The flags marked repeatable take every value they are given.
#[test]
fn repeatable_flags_accept_every_use() {
    let ws = Workspace::new("repeatable");
    let spec = ws.file("c.ila", SPEC);
    let rtl = ws.file("c.v", RTL_GOOD);
    let map = ws.file("m.json", MAP);
    for args in [
        vec!["verify", "--ila", &spec, "--rtl", &rtl, "--map", &map, "--map", &map],
        vec!["props", "--ila", &spec, "--map", &map, "--map", &map],
        vec!["check-inv", "--rtl", &rtl, "--invariant", "1", "--invariant", "1"],
        vec!["lint", &spec, "--deny", "GL001", "--deny", "GL002"],
        vec!["hunt", "--design", "Decoder", "--design", "AXI Slave", "--seeds", "1"],
    ] {
        let out = gila().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("once"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(2), "{args:?}: {stderr}");
    }
}

#[test]
fn verify_spec_self_check_writes_trace_and_stats() {
    let ws = Workspace::new("trace");
    let trace_path = ws.path("t.jsonl");
    // --spec with no --rtl/--map verifies the spec against its own
    // synthesized RTL; --trace dumps JSONL telemetry; --stats prints
    // the summary table.
    let out = gila()
        .args([
            "verify",
            "--spec",
            &ws.file("c.ila", SPEC),
            "--trace",
            &trace_path,
            "--stats",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("TELEMETRY"), "{stdout}");
    assert!(stdout.contains("TOTAL"), "{stdout}");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    // Every line is valid compact JSON with a kind, and both
    // instructions of the counter port got a span with solver counters.
    let mut instr_spans = 0;
    for line in trace.lines() {
        let v = gila_json::parse(line).unwrap_or_else(|e| {
            panic!("bad JSONL line {line:?}: {e}");
        });
        assert!(v.get("kind").is_some(), "{line}");
        if v.get("kind").and_then(|k| k.as_str()) == Some("instruction") {
            instr_spans += 1;
            assert!(v.get("solves").and_then(|s| s.as_u64()).unwrap() >= 1, "{line}");
            assert!(v.get("cnf_clauses").is_some(), "{line}");
        }
    }
    assert_eq!(instr_spans, 2, "one span per (port, instruction):\n{trace}");
}

#[test]
fn verify_fails_with_exit_code_1_and_writes_vcd() {
    let ws = Workspace::new("bad");
    let prefix = ws.path("bug");
    let out = gila()
        .args([
            "verify",
            "--ila",
            &ws.file("c.ila", SPEC),
            "--rtl",
            &ws.file("c.v", RTL_BAD),
            "--map",
            &ws.file("m.json", MAP),
            "--vcd",
            &prefix,
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILS (cnt)"), "{stdout}");
    let vcd = std::fs::read_to_string(format!("{prefix}_inc.vcd")).expect("vcd written");
    assert!(vcd.contains("$enddefinitions $end"));
}

#[test]
fn describe_and_props_print_the_model() {
    let ws = Workspace::new("desc");
    let spec = ws.file("c.ila", SPEC);
    let out = gila()
        .args(["describe", "--ila", &spec])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 atomic instructions"));

    let out = gila()
        .args(["props", "--ila", &spec, "--map", &ws.file("m.json", MAP)])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ila.cnt == rtl.count"));
    assert!(stdout.contains("X^1"));
}

/// A failed write to stdout is a broken run: exit 4 with one line on
/// stderr, never a panic (exit 101). `/dev/full` fails every write;
/// skipped where the device does not exist.
#[test]
fn describe_into_a_full_device_exits_4() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let ws = Workspace::new("full");
    let out = gila()
        .args(["describe", "--ila", &ws.file("c.ila", SPEC)])
        .stdout(full)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.starts_with("error: writing to stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The `| head` case made deterministic: the pipe's reader is closed
/// before `gila lint` writes its first byte, so that write fails.
#[test]
fn lint_into_a_closed_pipe_exits_4() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = gila()
        .args(["lint", "--all-designs", "--json"])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.starts_with("error: writing to stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn synth_emits_verilog_that_verifies() {
    let ws = Workspace::new("synth");
    let spec = ws.file("c.ila", SPEC);
    let out_v = ws.path("out.v");
    let out = gila()
        .args(["synth", "--ila", &spec, "-o", &out_v])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    // The synthesized Verilog verifies against the spec with an
    // identity map (state/input names carry over).
    let id_map = ws.file(
        "id.json",
        r#"{ "name": "counter", "state_map": {"cnt": "cnt"}, "interface_map": {"en": "en"} }"#,
    );
    let out = gila()
        .args(["verify", "--ila", &spec, "--rtl", &out_v, "--map", &id_map])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn check_inv_proves_and_refutes() {
    let ws = Workspace::new("inv");
    let rtl = ws.file("c.v", RTL_GOOD);
    // Trivially true invariant.
    let out = gila()
        .args(["check-inv", "--rtl", &rtl, "--invariant", "count >= 8'd0"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PROVED"));
    // Refutable invariant (count reaches 3 after three enabled cycles).
    let out = gila()
        .args([
            "check-inv",
            "--rtl",
            &rtl,
            "--invariant",
            "count < 8'd3",
            "--depth",
            "4",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("REFUTED"));
}

#[test]
fn check_inv_on_the_bundled_broken_rtl() {
    let rtl = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/broken.v");
    let check_inv = |invariant: &str| {
        gila()
            .args(["check-inv", "--rtl", rtl, "--invariant", invariant])
            .output()
            .expect("binary runs")
    };
    let out = check_inv("1");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("PROVED"));
    // `live` has no reset value, so it can be nonzero from the start.
    let out = check_inv("live == 8'h00");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.starts_with("REFUTED"), "{stdout}");
    assert!(
        stdout.contains("step 0:") && stdout.contains("live "),
        "{stdout}"
    );
    let out = check_inv("nosuch == 8'h00");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("undeclared identifier \"nosuch\""));
}

/// A literal memory address past the depth is an error, not a silent
/// wrap to another word, whether it is read or written.
#[test]
fn check_inv_rejects_a_literal_memory_address_past_the_depth() {
    let ws = Workspace::new("mem_addr");
    for (body, ok) in [
        ("m[0] <= 8'd5; r <= m[15];", true),
        ("m[0] <= 8'd5; r <= m[16];", false),
        ("m[16] <= 8'd5; r <= m[0];", false),
    ] {
        let rtl = ws.file(
            "t.v",
            &format!(
                "module t(clk);\n  input clk;\n  reg [7:0] m [0:15];\n  reg [7:0] r;\n  \
                 always @(posedge clk) begin {body} end\nendmodule\n"
            ),
        );
        let out = gila()
            .args(["check-inv", "--rtl", &rtl, "--invariant", "r != 8'd5"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if ok {
            assert_ne!(out.status.code(), Some(2), "{body}: {stderr}");
        } else {
            assert_eq!(out.status.code(), Some(2), "{body}");
            assert!(stderr.contains("address 16 out of range"), "{body}: {stderr}");
        }
    }
}

#[test]
fn usage_errors_exit_2() {
    let out = gila().args(["verify"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = gila().args(["frobnicate"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn export_produces_btor2() {
    let ws = Workspace::new("btor");
    let rtl = ws.file("c.v", RTL_GOOD);
    let out_path = ws.path("c.btor2");
    let out = gila()
        .args([
            "export",
            "--rtl",
            &rtl,
            "--prop",
            "count < 8'd255",
            "-o",
            &out_path,
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = std::fs::read_to_string(&out_path).expect("file written");
    assert_eq!(doc, EXPORTED_BTOR2);
}

/// `gila export --rtl` of [`RTL_GOOD`] with `--prop "count < 8'd255"`,
/// byte for byte: the property is the negated `ult` over the same
/// `count` state the next-state function reads.
const EXPORTED_BTOR2: &str = "\
; btor2 export of transition system counter
1 sort bitvec 1
2 input 1 clk
3 input 1 en_in
4 sort bitvec 8
5 state 4 count
6 constd 4 1
7 add 4 5 6
8 constd 1 0
9 eq 1 3 8
10 not 1 9
11 ite 4 10 7 5
12 next 4 5 11
13 constd 4 255
14 ult 1 5 13
15 not 1 14
16 bad 15
";

#[test]
fn verify_undecided_exits_3() {
    // A zero wall-clock budget expires before any solve: every
    // instruction comes back UNKNOWN (deadline), exit code 3.
    let ws = Workspace::new("unknown");
    let out = gila()
        .args([
            "verify",
            "--ila",
            &ws.file("c.ila", SPEC),
            "--rtl",
            &ws.file("c.v", RTL_GOOD),
            "--map",
            &ws.file("m.json", MAP),
            "--timeout-ms",
            "0",
            "--stats",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(stdout.contains("UNKNOWN (deadline"), "{stdout}");
    assert!(stdout.contains("RESULT: UNDECIDED"), "{stdout}");
    // The robustness telemetry line reports the unknowns.
    assert!(stdout.contains("unknown: 2"), "{stdout}");
}

#[test]
fn verify_panicked_job_exits_4_without_aborting() {
    // An injected panic in one job must not kill the process: the other
    // instruction still gets its verdict, and the run exits 4. Only a
    // debug build reads GILA_FAULT_PLAN; a release build ignores it,
    // malformed or not, and verifies as usual.
    let ws = Workspace::new("panic");
    let out = gila()
        .env("GILA_FAULT_PLAN", "panic:injected boom@counter/inc")
        .args([
            "verify",
            "--ila",
            &ws.file("c.ila", SPEC),
            "--rtl",
            &ws.file("c.v", RTL_GOOD),
            "--map",
            &ws.file("m.json", MAP),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(4), "{stdout}");
        assert!(stdout.contains("PANICKED (injected fault: injected boom"), "{stdout}");
        assert!(stdout.contains("HOLDS"), "other job lost\n{stdout}");
        assert!(stdout.contains("RESULT: INTERNAL ERROR"), "{stdout}");
    } else {
        assert_eq!(out.status.code(), Some(0), "{stdout}");
        assert!(!stdout.contains("PANICKED"), "{stdout}");
        assert_eq!(stdout.matches("HOLDS").count(), 2, "{stdout}");
    }
    // A malformed plan is a usage error in a debug build.
    let out = gila()
        .env("GILA_FAULT_PLAN", "explode@counter")
        .args([
            "verify",
            "--ila",
            &ws.file("c.ila", SPEC),
            "--rtl",
            &ws.file("c.v", RTL_GOOD),
            "--map",
            &ws.file("m.json", MAP),
        ])
        .output()
        .expect("binary runs");
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("GILA_FAULT_PLAN"));
    } else {
        assert_eq!(out.status.code(), Some(0));
    }
}

/// Runs `gila verify` on the counter with a checkpoint and a trace,
/// returning the exit code, stderr, and the instructions the trace
/// shows solved and replayed from the journal.
fn verify_traced(
    ws: &Workspace,
    env: Option<(&str, &str)>,
    extra: &[&str],
) -> (Option<i32>, String, Vec<String>, Vec<String>) {
    let trace = ws.path("t.jsonl");
    let _ = std::fs::remove_file(&trace);
    let mut cmd = gila();
    if let Some((key, value)) = env {
        cmd.env(key, value);
    }
    let out = cmd
        .args([
            "verify",
            "--ila",
            &ws.file("c.ila", SPEC),
            "--rtl",
            &ws.file("c.v", RTL_GOOD),
            "--map",
            &ws.file("m.json", MAP),
            "--checkpoint",
            &ws.path("run.jsonl"),
            "--trace",
            &trace,
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    let mut solved = Vec::new();
    let mut hits = Vec::new();
    for line in std::fs::read_to_string(&trace).expect("trace written").lines() {
        let v = gila_json::parse(line).expect("trace line is JSON");
        let instr = v.get("instr").and_then(|i| i.as_str()).map(str::to_string);
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("instruction") => solved.push(instr.unwrap()),
            Some("cache_hit") => hits.push(instr.unwrap()),
            _ => {}
        }
    }
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, solved, hits)
}

#[test]
fn verify_checkpoint_resume_round_trips() {
    let journal_lines = |ws: &Workspace| {
        std::fs::read_to_string(ws.path("run.jsonl"))
            .expect("journal written")
            .lines()
            .map(|l| {
                let entry = gila_json::parse(l).expect("journal line is JSON");
                assert!(entry.get("key").and_then(|v| v.as_str()).is_some(), "{l}");
                entry.get("instr").and_then(|v| v.as_str()).unwrap().to_string()
            })
            .collect::<Vec<_>>()
    };

    // An expired deadline leaves both jobs UNKNOWN: nothing undecided
    // is journaled, the rerun solves both for real, and a third run
    // replays both with zero solves.
    let ws = Workspace::new("resume-budget");
    let (code, stderr, _, _) = verify_traced(&ws, None, &["--timeout-ms", "0"]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("journal: 0 recovered, 0 dropped"), "{stderr}");
    assert!(journal_lines(&ws).is_empty());
    let (code, stderr, solved, hits) = verify_traced(&ws, None, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("journal: 0 recovered, 0 dropped"), "{stderr}");
    assert_eq!((solved, hits), (vec!["inc".to_string(), "hold".to_string()], vec![]));
    assert_eq!(journal_lines(&ws), ["inc", "hold"]);
    let (code, stderr, solved, hits) = verify_traced(&ws, None, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("journal: 2 recovered, 0 dropped"), "{stderr}");
    assert!(solved.is_empty(), "{solved:?}");
    assert_eq!(hits, ["inc", "hold"]);

    if !cfg!(debug_assertions) {
        return;
    }
    // Debug builds read GILA_FAULT_PLAN: force only `inc` UNKNOWN, so
    // the rerun re-solves `inc` while `hold` replays in the same run.
    let ws = Workspace::new("resume");
    let plan = ("GILA_FAULT_PLAN", "unknown@counter/inc*1");
    let (code, stderr, _, _) = verify_traced(&ws, Some(plan), &[]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("journal: 0 recovered, 0 dropped"), "{stderr}");
    // Only the decided `hold` is journaled, keyed by content.
    assert_eq!(journal_lines(&ws), ["hold"]);
    let (code, stderr, solved, hits) = verify_traced(&ws, None, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("journal: 1 recovered, 0 dropped"), "{stderr}");
    assert_eq!(solved, ["inc"], "the undecided job re-solves");
    assert_eq!(hits, ["hold"], "the decided job replays with 0 solves");
    assert_eq!(journal_lines(&ws), ["hold", "inc"]);
}

#[test]
fn verify_checkpoint_never_credits_a_stale_verdict() {
    let ws = Workspace::new("stale");
    let spec = ws.file("c.ila", SPEC);
    let map = ws.file("m.json", MAP);
    let ckpt = ws.path("run.jsonl");
    let run = |rtl: &str| {
        gila()
            .args([
                "verify", "--ila", &spec, "--rtl", rtl, "--map", &map, "--checkpoint", &ckpt,
            ])
            .output()
            .expect("binary runs")
    };
    let out = run(&ws.file("good.v", RTL_GOOD));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    // The journal holds `inc` proved for the good RTL; the buggy RTL
    // changes `inc`'s slice, so the verdict must not carry over.
    let out = run(&ws.file("bad.v", RTL_BAD));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAILS (cnt)"), "{stdout}");
}

#[test]
fn verify_checkpoint_reports_dropped_lines_and_unopenable_paths() {
    let ws = Workspace::new("torn");
    let spec = ws.file("c.ila", SPEC);
    let rtl = ws.file("c.v", RTL_GOOD);
    let map = ws.file("m.json", MAP);
    let ckpt = ws.path("run.jsonl");
    let run = |ckpt: &str| {
        gila()
            .args([
                "verify", "--ila", &spec, "--rtl", &rtl, "--map", &map, "--checkpoint", ckpt,
            ])
            .output()
            .expect("binary runs")
    };
    assert!(run(&ckpt).status.success());
    // Tear the tail the way a killed writer would.
    let mut f = std::fs::OpenOptions::new().append(true).open(&ckpt).unwrap();
    write!(f, "{{\"port\":\"counter\",\"ins").unwrap();
    drop(f);
    let out = run(&ckpt);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("journal: 2 recovered, 1 dropped"), "{stderr}");
    // A journal that cannot be opened is an internal error.
    let out = run(&ws.path("missing-dir/run.jsonl"));
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));
}

#[test]
fn verify_budget_retries_converge() {
    // A conflict budget the counter's proofs stay within still decides
    // them, and bad flag values exit 2.
    let ws = Workspace::new("budget");
    let spec = ws.file("c.ila", SPEC);
    let rtl = ws.file("c.v", RTL_GOOD);
    let map = ws.file("m.json", MAP);
    let out = gila()
        .args([
            "verify", "--ila", &spec, "--rtl", &rtl, "--map", &map, "--conflict-budget",
            "1000000",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let out = gila()
        .args([
            "verify", "--ila", &spec, "--rtl", &rtl, "--map", &map, "--conflict-budget", "lots",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sim_drives_both_specs_and_rtl() {
    let ws = Workspace::new("sim");
    let stim = ws.file("stim.txt", "en=1\nen=1\nen=0\n");
    let out = gila()
        .args(["sim", "--ila", &ws.file("c.ila", SPEC), "--stimulus", &stim])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycle 0: [inc] cnt=Bv(8'h01)"), "{stdout}");
    assert!(stdout.contains("cycle 2: [hold] cnt=Bv(8'h02)"), "{stdout}");

    let stim = ws.file("stim2.txt", "en_in=1\n# comment\nen_in=0x01\n");
    let out = gila()
        .args(["sim", "--rtl", &ws.file("c.v", RTL_GOOD), "--stimulus", &stim])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("count=Bv(8'h02)"), "{stdout}");
}

/// `gila hunt` round-trip: a divergence found on the bug-injected AXI
/// Slave is written as a command stream, and feeding that stream back
/// through `gila hunt --replay` reproduces the same divergence (exit 1)
/// while the fixed RTL replays clean (exit 0).
#[test]
fn hunt_command_stream_round_trips_through_replay() {
    let ws = Workspace::new("hunt");
    let out = gila()
        .args([
            "hunt", "--design", "AXI Slave", "--buggy", "--seeds", "1", "--cycles", "256",
            "--out", &ws.path(""), "--json",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "seeded bug must be found:\n{stdout}");
    let doc = gila_json::parse(&stdout).unwrap_or_else(|e| panic!("bad JSON: {e}\n{stdout}"));
    let findings = doc.get("findings").and_then(|f| f.as_array()).expect("findings array");
    let f = findings
        .iter()
        .find(|f| f.get("port").and_then(|p| p.as_str()) == Some("READ-PORT"))
        .expect("the documented READ-PORT bug");
    let state = f.get("state").and_then(|s| s.as_str()).expect("state").to_string();
    let cycle = f.get("cycle").and_then(|c| c.as_u64()).expect("cycle");
    assert!(f.get("shrunk").is_some(), "shrinking is on by default:\n{stdout}");

    // Default seed base 0xB06 with --seeds 1 runs exactly seed 2822;
    // sanitize() maps '-' and ' ' to '_' in the stim filename.
    let stim = ws.path("AXI_Slave_READ_PORT_2822.stim");
    let stream = std::fs::read_to_string(&stim).expect("stim file written by --out");
    assert!(stream.contains("# cycle 0"), "{stream}");

    let out = gila()
        .args(["hunt", "--replay", &stim, "--design", "AXI Slave", "--buggy", "--json"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "replay must reproduce:\n{stdout}");
    let doc = gila_json::parse(&stdout).unwrap_or_else(|e| panic!("bad JSON: {e}\n{stdout}"));
    assert_eq!(doc.get("state").and_then(|s| s.as_str()), Some(state.as_str()));
    assert_eq!(doc.get("cycle").and_then(|c| c.as_u64()), Some(cycle));
    assert_eq!(doc.get("port").and_then(|p| p.as_str()), Some("READ-PORT"));

    // Same stream against the fixed RTL: no divergence, exit 0.
    let out = gila()
        .args(["hunt", "--replay", &stim, "--design", "AXI Slave"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "fixed RTL must replay clean:\n{stdout}");
    assert!(stdout.contains("no divergence reproduced"), "{stdout}");
}
