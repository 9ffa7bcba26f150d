//! The `gila serve` / `gila client` subcommands.
//!
//! `serve` runs the verification daemon until SIGTERM/SIGINT (or a
//! client `shutdown` op), then drains gracefully. Exit codes:
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | clean drain: in-flight work finished, journal compacted  |
//! | 2    | usage error                                              |
//! | 4    | startup failure (bind error, unreadable cache journal)   |
//! | 5    | drain timed out: stragglers were cancelled; the journal  |
//! |      | is still consistent (it flushes per record)              |
//!
//! `client` speaks the daemon's protocol with retries and maps
//! verdicts onto the same exit codes as local `gila verify`: 0 all
//! hold, 1 a property failed (or a replayed divergence reproduced),
//! 3 undecided, 4 daemon-side error.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use gila_json::Value;
use gila_serve::{
    CacheConfig, Client, ClientConfig, DrainOutcome, Endpoint, Listen, ServeConfig, Server,
};
use gila_trace::Tracer;
use gila_verify::FaultPlan;

use crate::commands::{flag, flag_all, CmdResult, EXIT_INTERNAL, EXIT_UNKNOWN};

/// Exit code when the daemon's drain budget expired with work still
/// in flight.
const EXIT_DRAIN_TIMEOUT: u8 = 5;

#[cfg(unix)]
mod sig {
    //! Minimal signal handling without a libc crate: the handler is
    //! `extern "C"` and only stores to an atomic (async-signal-safe);
    //! the main thread polls the flag.
    use std::sync::atomic::AtomicBool;

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_sig: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }
}

fn parse_u64(flags: &[(String, String)], name: &str) -> Result<Option<u64>, String> {
    match flag(flags, name) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
    }
}

/// `gila serve`: run the daemon until a signal or `shutdown` op.
pub fn serve(flags: &[(String, String)]) -> CmdResult {
    let mut listeners = Vec::new();
    for addr in flag_all(flags, "listen") {
        listeners.push(Listen::Tcp(addr.to_string()));
    }
    for path in flag_all(flags, "socket") {
        listeners.push(Listen::Unix(path.into()));
    }
    if listeners.is_empty() {
        return Err("serve needs --listen HOST:PORT and/or --socket PATH".into());
    }
    let mut cache = CacheConfig {
        path: flag(flags, "cache").map(Into::into),
        ..CacheConfig::default()
    };
    if let Some(b) = parse_u64(flags, "cache-bytes")? {
        cache.max_bytes = b;
    }
    if let Some(n) = parse_u64(flags, "cache-entries")? {
        cache.max_entries = n as usize;
    }
    let tracer = match flag(flags, "trace") {
        Some(path) => Tracer::jsonl_file(std::path::Path::new(path))
            .map_err(|e| format!("opening --trace {path}: {e}"))?,
        None => Tracer::disabled(),
    };
    let fault_plan = match flag(flags, "fault") {
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?,
        )),
        None => None,
    };
    let mut cfg = ServeConfig {
        listeners,
        cache,
        tracer,
        fault_plan,
        ..ServeConfig::default()
    };
    if let Some(n) = parse_u64(flags, "queue-cap")? {
        cfg.queue_cap = n.max(1) as usize;
    }
    if let Some(n) = parse_u64(flags, "workers")? {
        cfg.workers = n.max(1) as usize;
    }
    if let Some(ms) = parse_u64(flags, "deadline-ms")? {
        cfg.default_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(f) = parse_u64(flags, "watchdog-factor")? {
        cfg.watchdog_factor = f.max(1) as u32;
    }
    if let Some(ms) = parse_u64(flags, "drain-ms")? {
        cfg.drain_budget = Duration::from_millis(ms);
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: startup failed: {e}");
            return Ok(EXIT_INTERNAL);
        }
    };
    // Announce bound endpoints on stdout — tests and scripts binding
    // an ephemeral port (`--listen 127.0.0.1:0`) discover it here.
    for addr in &server.tcp_addrs {
        outln!("listening on {addr}");
    }
    for path in &server.unix_paths {
        outln!("listening on {}", path.display());
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let handle = server.handle();
    #[cfg(unix)]
    sig::install();
    loop {
        #[cfg(unix)]
        if sig::SHUTDOWN.load(Ordering::SeqCst) {
            handle.shutdown();
        }
        if handle.is_shutting_down() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("serve: draining");
    match server.shutdown_and_wait() {
        DrainOutcome::Clean => {
            eprintln!("serve: drained cleanly");
            Ok(0)
        }
        DrainOutcome::TimedOut => {
            eprintln!("serve: drain timed out; in-flight work was cancelled");
            Ok(EXIT_DRAIN_TIMEOUT)
        }
    }
}

fn endpoint(flags: &[(String, String)]) -> Result<Endpoint, String> {
    match (flag(flags, "connect"), flag(flags, "socket")) {
        (Some(addr), None) => Ok(Endpoint::Tcp(addr.to_string())),
        (None, Some(path)) => Ok(Endpoint::Unix(path.into())),
        _ => Err("client needs exactly one of --connect HOST:PORT or --socket PATH".into()),
    }
}

/// `gila client`: one shot against a running daemon.
pub fn client(flags: &[(String, String)]) -> CmdResult {
    let mut cfg = ClientConfig::new(endpoint(flags)?);
    if let Some(n) = parse_u64(flags, "retries")? {
        cfg.retries = n as u32;
    }
    // Vary jitter across concurrent invocations, deterministically
    // overridable for tests.
    cfg.seed = match parse_u64(flags, "seed")? {
        Some(s) => s,
        None => std::process::id() as u64,
    };
    if let Some(spec) = flag(flags, "fault") {
        cfg.fault_plan = Some(Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?,
        ));
    }
    let json = flag(flags, "json").is_some();
    let mut client = Client::connect(cfg);

    if flag(flags, "shutdown").is_some() {
        let resp = client.request("shutdown", vec![]).map_err(|e| e.to_string())?;
        print_response(&resp, json);
        return Ok(0);
    }
    if flag(flags, "ping").is_some() {
        let resp = client.request("ping", vec![]).map_err(|e| e.to_string())?;
        print_response(&resp, json);
        return Ok(0);
    }
    if flag(flags, "stats").is_some() && flag_all(flags, "design").is_empty() {
        let resp = client.request("stats", vec![]).map_err(|e| e.to_string())?;
        print_response(&resp, json);
        return Ok(0);
    }

    let mut worst: u8 = 0;
    let mut rank = |code: u8| {
        // 4 beats 1 beats 3 beats 0, matching `gila verify`.
        let sev = |c: u8| match c {
            EXIT_INTERNAL => 3,
            1 => 2,
            EXIT_UNKNOWN => 1,
            _ => 0,
        };
        if sev(code) > sev(worst) {
            worst = code;
        }
    };

    // Replay mode: ship a recorded command stream to the daemon.
    if let Some(path) = flag(flags, "stim") {
        let designs = flag_all(flags, "design");
        if designs.len() != 1 {
            return Err("--stim needs exactly one --design".into());
        }
        let stim = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut fields = vec![
            ("design".to_string(), Value::String(designs[0].to_string())),
            ("stim".to_string(), Value::String(stim)),
        ];
        if flag(flags, "buggy").is_some() {
            fields.push(("buggy".to_string(), Value::Bool(true)));
        }
        let resp = client.request("hunt-replay", fields).map_err(|e| e.to_string())?;
        print_response(&resp, json);
        let reproduced = resp
            .get("result")
            .and_then(|r| r.get("reproduced"))
            .and_then(Value::as_bool)
            .unwrap_or(false);
        return Ok(if reproduced { 1 } else { 0 });
    }

    let designs = flag_all(flags, "design");
    if designs.is_empty() {
        return Err("client needs --design NAME (repeatable), --stim, --stats, --ping, or --shutdown".into());
    }
    for name in designs {
        let mut fields = vec![("design".to_string(), Value::String(name.to_string()))];
        if flag(flags, "buggy").is_some() {
            fields.push(("buggy".to_string(), Value::Bool(true)));
        }
        if flag(flags, "no-cache").is_some() {
            fields.push(("no_cache".to_string(), Value::Bool(true)));
        }
        if let Some(ms) = parse_u64(flags, "deadline-ms")? {
            fields.push(("deadline_ms".to_string(), (ms as f64).into()));
        }
        match client.request("verify", fields) {
            Err(e) => return Err(e.to_string().into()),
            Ok(resp) => {
                print_response(&resp, json);
                match resp.get("status").and_then(Value::as_str) {
                    Some("ok") => {
                        let result = resp.get("result");
                        let all_hold = result
                            .and_then(|r| r.get("all_hold"))
                            .and_then(Value::as_bool)
                            .unwrap_or(false);
                        let unknown = result
                            .and_then(|r| r.get("unknown"))
                            .and_then(Value::as_u64)
                            .unwrap_or(0);
                        if all_hold {
                            rank(0);
                        } else if unknown > 0 {
                            rank(EXIT_UNKNOWN);
                        } else {
                            rank(1);
                        }
                    }
                    _ => rank(EXIT_INTERNAL),
                }
            }
        }
    }
    if flag(flags, "stats").is_some() {
        let resp = client.request("stats", vec![]).map_err(|e| e.to_string())?;
        print_response(&resp, json);
    }
    Ok(worst)
}

fn print_response(resp: &Value, json: bool) {
    if json {
        outln!("{}", resp.to_compact());
        return;
    }
    match resp.get("status").and_then(Value::as_str) {
        Some("ok") => match resp.get("result") {
            Some(Value::String(s)) => outln!("{s}"),
            Some(result) => {
                // Human mode: the headline numbers, one per line.
                if let Some(obj) = result.as_object() {
                    let line: Vec<String> = obj
                        .iter()
                        .filter(|(k, _)| {
                            matches!(
                                k.as_str(),
                                "module"
                                    | "all_hold"
                                    | "solves"
                                    | "cache_hits"
                                    | "cache_misses"
                                    | "cache_hit_rate"
                                    | "unknown"
                                    | "wall_ms"
                                    | "reproduced"
                                    | "design"
                                    | "port"
                                    | "cycle"
                                    | "instruction"
                            )
                        })
                        .map(|(k, v)| format!("{k}={}", v.to_compact()))
                        .collect();
                    outln!("{}", line.join(" "));
                } else {
                    outln!("{}", result.to_compact());
                }
            }
            None => outln!("ok"),
        },
        Some(status) => {
            let detail = resp
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("");
            outln!("{status} {detail}");
        }
        None => outln!("{}", resp.to_compact()),
    }
}
