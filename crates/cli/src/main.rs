//! `gila` — the command-line front end of the platform.
//!
//! ```text
//! gila verify    --ila SPEC.ila --rtl IMPL.v --map MAP.json [--map MAP2.json ...]
//! gila describe  --ila SPEC.ila
//! gila synth     --ila SPEC.ila [-o OUT.v]
//! gila check-inv --rtl IMPL.v --invariant EXPR [--depth K]
//! gila props     --ila SPEC.ila --map MAP.json
//! ```

use std::io::{self, Write as _};
use std::process::ExitCode;

/// `println!`, except that a failed write ends the process through
/// [`stdout_failed`] instead of panicking.
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!`, except that a failed write ends the process through
/// [`stdout_failed`] instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

mod commands;
mod serve_cmd;

/// Writes to stdout; see [`stdout_failed`] for a write that fails.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        stdout_failed(e)
    }
}

/// Ends the process after a failed write to stdout (a full disk, or a
/// reader that closed its pipe): the output the run owes its caller is
/// lost, so it exits at once with the broken-run code
/// [`commands::EXIT_INTERNAL`] and one line on stderr.
fn stdout_failed(e: io::Error) -> ! {
    eprintln!("error: writing to stdout: {e}");
    std::process::exit(commands::EXIT_INTERNAL.into())
}

fn usage() -> ! {
    eprintln!(
        "gila — instruction-level modeling and verification of hardware modules

USAGE:
  gila verify    --ila SPEC.ila --rtl IMPL.v --map MAP.json [--map MAP2.json ...]
                 [--stop-at-first-cex] [--conflict-budget N]
                 [--timeout-ms N] [--checkpoint FILE]
                 [--vcd PREFIX] [--trace OUT.jsonl] [--stats]
  gila describe  --ila SPEC.ila [--format ila]
  gila synth     --ila SPEC.ila [-o OUT.v]
  gila check-inv --rtl IMPL.v --invariant EXPR [--invariant EXPR ...] [--depth K]
  gila props     --ila SPEC.ila --map MAP.json [--map MAP2.json ...]
  gila export    --rtl IMPL.v [--prop EXPR] [-o OUT.btor2]
  gila sim       (--rtl IMPL.v | --ila SPEC.ila) --stimulus FILE
  gila lint      (SPEC.ila | --all-designs) [--rtl IMPL.v] [--json]
                 [--deny CODE ...] [--trace OUT.jsonl]
  gila hunt      (--design NAME ... | --all-designs) [--buggy] [--seeds N]
                 [--cycles N] [--jobs N] [--seed-base N] [--no-shrink]
                 [--out DIR] [--json] [--trace OUT.jsonl]
  gila hunt      --replay FILE --design NAME [--buggy] [--json]
  gila serve     (--listen HOST:PORT ... | --socket PATH ...) [--cache FILE]
                 [--cache-bytes N] [--cache-entries N] [--queue-cap N]
                 [--workers N] [--deadline-ms N]
                 [--watchdog-factor N] [--drain-ms N] [--trace OUT.jsonl]
  gila client    (--connect HOST:PORT | --socket PATH) [--design NAME ...]
                 [--buggy] [--no-cache] [--deadline-ms N] [--retries N]
                 [--stim FILE] [--stats] [--ping] [--shutdown] [--json]

EXIT CODES:
  0  success (all properties hold / invariants proved / lint clean)
  1  a property failed, an invariant was refuted, or lint found an
     error-class or --deny'ed diagnostic
  2  usage or input error
  3  undecided: at least one verdict is UNKNOWN (solve budget exhausted)
  4  internal error (a verification job panicked, the checkpoint
     journal could not be opened, the engine failed internally, or a
     stdout write failed); 4 beats 1 beats 3 when a run mixes outcomes
  5  (serve only) the drain budget expired with work still in flight;
     stragglers were cancelled, the cache journal stayed consistent

SERVE OPTIONS:
  --listen HOST:PORT   accept TCP connections (repeatable; port 0 binds
                       an ephemeral port, announced on stdout)
  --socket PATH        accept Unix-domain connections (repeatable; a
                       stale socket file is removed and re-bound)
  --cache FILE         persist the content-addressed proof cache as an
                       append-only JSONL journal at FILE; on restart the
                       journal is replayed, dropping torn/corrupt records
  --cache-bytes N      resident-cache byte budget (LRU eviction)
  --cache-entries N    resident-cache entry budget
  --queue-cap N        admission-queue bound; requests beyond it are shed
                       immediately with an 'overloaded' + retry hint
  --workers N          request-executing worker threads (default 2)
  --deadline-ms N      default per-request deadline; the watchdog cancels
                       requests overrunning it and recycles stuck workers
  --drain-ms N         how long a SIGTERM/SIGINT drain waits for in-flight
                       work before cancelling it (default 30000)

CLIENT OPTIONS:
  --design NAME        verify a bundled case study (repeatable)
  --buggy              verify the bug-injected RTL variant
  --no-cache           bypass the daemon's proof cache for this request
  --deadline-ms N      per-request deadline, enforced daemon-side
  --retries N          retry budget for 'overloaded' sheds and transport
                       errors; a delivered response is never retried
  --stim FILE          ship a recorded hunt command stream for replay
                       (exit 1 iff the divergence reproduces)
  --stats              fetch daemon + cache counters
  --shutdown           ask the daemon to drain and exit

HUNT OPTIONS:
  --design NAME        hunt one bundled case study (repeatable); names as
                       in Table I, case-insensitive (e.g. 'AXI Slave')
  --all-designs        hunt every bundled case study
  --buggy              hunt the bug-injected RTL variants instead of the
                       fixed implementations (skips designs without one;
                       exit 1 proves the hunter finds the seeded bugs)
  --seeds N            random seeds per (design, port) target (default 256)
  --cycles N           maximum commands per seed (default 1024)
  --jobs N             worker threads compiling and co-simulating targets
                       (default 1); findings are identical at any count
  --seed-base N        first seed; task i runs seed N+i (default 2822)
  --no-shrink          report divergences as found, skipping delta-debug
                       minimization of the reproducing command stream
  --out DIR            write each finding's (shrunk) command stream to
                       DIR/design_port_seed.stim
  --replay FILE        re-run a recorded command stream (the format that
                       findings print) instead of hunting; exit 1 iff the
                       divergence reproduces
  --trace OUT          write one compile span per (worker, design, port)
                       and one eval span per task to OUT (JSONL)

LINT OPTIONS:
  --all-designs        lint the ILA model and RTL of all eight bundled
                       case studies instead of a spec file
  --rtl IMPL.v         also run the RTL passes (GL011-GL013) on IMPL.v
  --json               emit a machine-readable report on stdout
  --deny CODE          exit 1 if CODE (e.g. GL001) was reported, even if
                       it is warning-class; repeatable
  --trace OUT          write one lint_pass telemetry span per pass per
                       target to OUT (JSONL)

VERIFY OPTIONS:
  --spec SPEC.ila      alias for --ila; without --rtl/--map the spec is
                       checked against its own synthesized RTL (self-check)
  --conflict-budget N  give up on a solve after N SAT conflicts and report
                       the instruction UNKNOWN instead of running forever
  --timeout-ms N       wall-clock budget per instruction check, milliseconds
  --checkpoint FILE    journal verdicts in FILE, the proof-cache format:
                       properties FILE already answers (matched by
                       content hash, so an edited spec or RTL never
                       replays a stale verdict) are not re-solved, and
                       every newly decided verdict is appended as one
                       flushed line; prints 'journal: N recovered, M
                       dropped' (torn or stale lines) to stderr
  --trace OUT          write a JSONL telemetry trace: one span per port,
                       instruction, SAT solve, CNF blast, and unroll event
  --stats              print a per-port solver/CNF summary table"
    );
    std::process::exit(2)
}

/// Minimal flag parser for subcommand `cmd`: returns (positional,
/// flags) where repeatable flags accumulate. A flag `cmd` does not
/// take, or a second use of a flag it takes once, ends the process
/// with exit 2 before its value is looked for.
fn parse_args(cmd: &str, args: &[String]) -> (Vec<String>, Vec<(String, String)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with('-') {
            if let Err(e) = commands::check_flag(cmd, a, &flags) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        if let Some(name) = a.strip_prefix("--") {
            // Boolean flags have no value; value flags consume the next arg.
            if matches!(
                name,
                "stop-at-first-cex"
                    | "stats"
                    | "json"
                    | "all-designs"
                    | "buggy"
                    | "no-shrink"
                    | "no-cache"
                    | "shutdown"
                    | "ping"
            ) {
                flags.push((name.to_string(), String::new()));
            } else {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("flag --{name} needs a value");
                    std::process::exit(2);
                };
                flags.push((name.to_string(), v.clone()));
            }
        } else if let Some(name) = a.strip_prefix('-') {
            i += 1;
            let Some(v) = args.get(i) else {
                eprintln!("flag -{name} needs a value");
                std::process::exit(2);
            };
            flags.push((name.to_string(), v.clone()));
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    (positional, flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (positional, flags) = parse_args(cmd, &args[1..]);
    let result = match cmd.as_str() {
        "verify" => commands::verify(&flags),
        "lint" => commands::lint(&positional, &flags),
        "describe" => commands::describe(&flags),
        "synth" => commands::synth(&flags),
        "check-inv" => commands::check_inv(&flags),
        "props" => commands::props(&flags),
        "export" => commands::export(&flags),
        "sim" => commands::sim(&flags),
        "hunt" => commands::hunt(&flags),
        "serve" => serve_cmd::serve(&flags),
        "client" => serve_cmd::client(&flags),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage()
        }
    };
    let code = match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    // Output still buffered (a last line without a newline) must reach
    // stdout too.
    if let Err(e) = io::stdout().flush() {
        stdout_failed(e)
    }
    ExitCode::from(code)
}
