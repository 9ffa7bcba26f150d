//! Daemon robustness: cold→warm over the wire, load shedding,
//! disconnect cancellation, deadline watchdog, graceful drain, and
//! client retry behavior against torn, failed and slow connections.
//!
//! Every test runs a real [`Server`] on an ephemeral TCP port (plus
//! one Unix-socket case) inside the test process, so assertions can
//! inspect server counters directly instead of scraping output. The
//! abuse comes from test-side peers: raw sockets that tear or dribble
//! frames, a fake daemon that hangs up before answering, and a trace
//! sink that stalls the worker running a request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gila_json::Value;
use gila_serve::{
    CacheConfig, Client, ClientConfig, DrainOutcome, Endpoint, Listen, ServeConfig, Server,
};
use gila_trace::{Event, SpanKind, TraceSink, Tracer};

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gila-serve-daemon-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server starts");
    let addr = server.tcp_addrs[0].to_string();
    (server, addr)
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        listeners: vec![Listen::Tcp("127.0.0.1:0".into())],
        cache: CacheConfig::default(),
        drain_budget: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

fn client_for(addr: &str) -> Client {
    let mut cfg = ClientConfig::new(Endpoint::Tcp(addr.to_string()));
    cfg.retries = 8;
    cfg.base_delay = Duration::from_millis(20);
    Client::connect(cfg)
}

/// A trace sink that sleeps once, on the first `cache_miss`. The engine
/// emits it on the worker running the request, before any check, so
/// the stall pins that worker the way a slow proof would. Serve-layer
/// events (`shed`, `drain`, `request`) never sleep.
struct StallFirstMiss {
    stall: Duration,
    fired: AtomicBool,
}

impl TraceSink for StallFirstMiss {
    fn record(&self, event: Event) {
        if event.kind == SpanKind::CacheMiss && !self.fired.swap(true, Ordering::SeqCst) {
            std::thread::sleep(self.stall);
        }
    }
}

fn stall_first_miss(ms: u64) -> Tracer {
    Tracer::with_sink(Arc::new(StallFirstMiss {
        stall: Duration::from_millis(ms),
        fired: AtomicBool::new(false),
    }))
}

/// A fake daemon's side of one connection: answers every frame with
/// `pong` under the frame's id until EOF, and returns how many it
/// answered.
fn answer_frames(stream: impl Read + Write) -> u64 {
    let mut reader = BufReader::new(stream);
    let mut answered = 0;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        let id = gila_json::parse(&line).unwrap().get("id").and_then(Value::as_u64).unwrap();
        let reply = format!("{{\"id\":{id},\"status\":\"ok\",\"result\":\"pong\"}}\n");
        reader.get_mut().write_all(reply.as_bytes()).unwrap();
        answered += 1;
        line.clear();
    }
    answered
}

fn verify_fields(design: &str) -> Vec<(String, Value)> {
    vec![("design".to_string(), Value::String(design.to_string()))]
}

fn result_u64(resp: &Value, name: &str) -> u64 {
    resp.get("result")
        .and_then(|r| r.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("response lacks result.{name}: {}", resp.to_compact()))
}

/// Raw pipelined frames on one socket, for tests that need to control
/// framing and connection lifetime below the Client abstraction.
fn raw_send(stream: &mut TcpStream, id: u64, op: &str, extra: &str) {
    let frame = format!("{{\"gila\":1,\"id\":{id},\"op\":\"{op}\"{extra}}}\n");
    stream.write_all(frame.as_bytes()).unwrap();
    stream.flush().unwrap();
}

#[test]
fn cold_then_warm_over_the_wire_does_zero_solver_work() {
    let (server, addr) = start(base_cfg());
    let mut client = client_for(&addr);

    let cold = client.request("verify", verify_fields("Decoder")).unwrap();
    assert_eq!(cold.get("status").and_then(Value::as_str), Some("ok"));
    assert!(result_u64(&cold, "solves") > 0);
    assert_eq!(result_u64(&cold, "cache_hits"), 0);

    let warm = client.request("verify", verify_fields("Decoder")).unwrap();
    assert_eq!(result_u64(&warm, "solves"), 0, "warm request: zero solver work");
    assert_eq!(result_u64(&warm, "cache_misses"), 0);
    assert!(result_u64(&warm, "cache_hits") > 0);

    let handle = server.handle();
    handle.shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let sock = tmp_path("unix.sock");
    let mut cfg = base_cfg();
    cfg.listeners = vec![Listen::Unix(sock.clone())];
    let server = Server::start(cfg).expect("unix server starts");
    let mut client = Client::connect(ClientConfig::new(Endpoint::Unix(sock.clone())));
    let pong = client.request("ping", vec![]).unwrap();
    assert_eq!(
        pong.get("result").and_then(Value::as_str),
        Some("pong"),
        "unix transport carries frames"
    );
    server.handle().shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
    assert!(!sock.exists(), "socket file removed on clean drain");
}

#[test]
fn full_queue_sheds_immediately_and_backoff_recovers() {
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.queue_cap = 1;
    // The first request's stall pins the one worker long enough for
    // the flood behind it to hit a full queue.
    cfg.tracer = stall_first_miss(300);
    let (server, addr) = start(cfg);
    let handle = server.handle();

    let mut stream = TcpStream::connect(&addr).unwrap();
    for id in 1..=4 {
        raw_send(&mut stream, id, "verify", ",\"design\":\"Decoder\"");
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = gila_json::parse(&line).unwrap();
        match resp.get("status").and_then(Value::as_str) {
            Some("ok") => ok += 1,
            Some("overloaded") => {
                overloaded += 1;
                assert!(
                    resp.get("retry_after_ms").and_then(Value::as_u64).unwrap() > 0,
                    "shed responses carry a backoff hint"
                );
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 1, "admitted work completes");
    assert!(overloaded >= 1, "excess load is shed, not queued");
    let stats = handle.stats();
    assert!(stats.get("shed").and_then(Value::as_u64).unwrap() >= 1);

    // A retrying client gets through once the backlog clears: the shed
    // is back-pressure, not an outage.
    let mut client = client_for(&addr);
    let resp = client.request("verify", verify_fields("Decoder")).unwrap();
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));

    handle.shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn disconnecting_client_cancels_its_outstanding_work() {
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.queue_cap = 8;
    cfg.tracer = stall_first_miss(400);
    let (server, addr) = start(cfg);
    let handle = server.handle();

    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        // One request occupies the worker (stalled in the trace
        // sink), one sits queued behind it.
        raw_send(&mut stream, 1, "verify", ",\"design\":\"Decoder\"");
        raw_send(&mut stream, 2, "verify", ",\"design\":\"Decoder\"");
        std::thread::sleep(Duration::from_millis(100));
        // Hang up: the daemon must cancel both, not verify into the void.
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let cancelled = handle
            .stats()
            .get("disconnect_cancelled")
            .and_then(Value::as_u64)
            .unwrap();
        if cancelled >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled outstanding work"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    handle.shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

const COUNTER_ILA: &str = r#"
port counter {
  input en : bv1
  output state cnt : bv8 init 0

  instr inc when en == 1 { cnt := cnt + 1 }
  instr hold when en == 0 { }
}
"#;

const COUNTER_RTL: &str = r#"
module counter(clk, en_in);
  input clk; input en_in;
  reg [7:0] count;
  always @(posedge clk) if (en_in) count <= count + 8'd1;
endmodule
"#;

fn inline_fields(rtl: &str) -> Vec<(String, Value)> {
    let mut map = gila_verify::RefinementMap::new("counter");
    map.map_state("cnt", "count");
    map.map_input("en", "en_in");
    vec![
        ("ila".to_string(), COUNTER_ILA.into()),
        ("rtl".to_string(), rtl.into()),
        ("maps".to_string(), Value::Array(vec![map.to_json().into()])),
    ]
}

/// The `stats` op reports the content memo: a repeated text is a hit,
/// and only distinct texts miss.
#[test]
fn stats_report_content_memo_hits_and_misses() {
    let (server, addr) = start(base_cfg());
    let mut client = client_for(&addr);
    let memo = |client: &mut Client| {
        let stats = client.request("stats", Vec::new()).unwrap();
        let field = |name: &str| result_u64(&stats, name);
        (field("memo_entries"), field("memo_hits"), field("memo_misses"))
    };
    assert_eq!(memo(&mut client), (0, 0, 0));

    // Priming: the `.ila` and the Verilog text each miss once.
    let cold = client.request("verify", inline_fields(COUNTER_RTL)).unwrap();
    assert!(result_u64(&cold, "solves") > 0);
    assert_eq!(memo(&mut client), (2, 0, 2));

    // The same request again: both texts hit, nothing is parsed.
    let warm = client.request("verify", inline_fields(COUNTER_RTL)).unwrap();
    assert_eq!(result_u64(&warm, "solves"), 0);
    let (entries, hits, misses) = memo(&mut client);
    assert!(hits >= 1, "a repeated text must hit the memo");
    assert_eq!((entries, misses), (2, 2), "misses count distinct texts");

    // A lint of an edited RTL: the `.ila` hits, the new text misses.
    let edited = COUNTER_RTL.replace("8'd1", "8'd2");
    let lint = client.request("lint", inline_fields(&edited)).unwrap();
    assert_eq!(lint.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(memo(&mut client), (3, hits + 1, 3));

    server.handle().shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn expired_deadline_yields_unknown_verdicts_not_a_hang() {
    let (server, addr) = start(base_cfg());
    let mut client = client_for(&addr);
    let mut fields = verify_fields("Decoder");
    fields.push(("deadline_ms".to_string(), 0.0.into()));
    fields.push(("no_cache".to_string(), Value::Bool(true)));
    let resp = client.request("verify", fields).unwrap();
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
    assert!(
        result_u64(&resp, "unknown") > 0,
        "an already-expired deadline gives up through the budget path"
    );
    // Nothing undecided may have been cached.
    let stats = server.handle().stats();
    assert_eq!(stats.get("cache_inserts").and_then(Value::as_u64), Some(0));
    server.handle().shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn watchdog_cancels_requests_overrunning_their_deadline() {
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.watchdog_factor = 1;
    cfg.watchdog_poll = Duration::from_millis(10);
    // The job sleeps 500ms *outside* any solver loop while its request
    // deadline is 50ms: only the watchdog can notice the overrun.
    cfg.tracer = stall_first_miss(500);
    let (server, addr) = start(cfg);
    let handle = server.handle();
    let mut client = client_for(&addr);
    let mut fields = verify_fields("Decoder");
    fields.push(("deadline_ms".to_string(), 50.0.into()));
    let resp = client.request("verify", fields).unwrap();
    // The response still arrives (cancellation is cooperative), but
    // carries unknowns and the watchdog counter moved.
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
    assert!(result_u64(&resp, "unknown") > 0);
    let stats = handle.stats();
    assert!(
        stats.get("watchdog_cancelled").and_then(Value::as_u64).unwrap() >= 1,
        "watchdog must have fired: {}",
        stats.to_compact()
    );
    handle.shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn drain_finishes_inflight_work_and_refuses_new_requests() {
    let mut cfg = base_cfg();
    cfg.workers = 1;
    cfg.tracer = stall_first_miss(300);
    let (server, addr) = start(cfg);
    let handle = server.handle();

    let mut stream_a = TcpStream::connect(&addr).unwrap();
    let mut reader_a = BufReader::new(stream_a.try_clone().unwrap());
    raw_send(&mut stream_a, 1, "verify", ",\"design\":\"Decoder\"");

    // Second connection established (and proven live) before drain.
    let mut stream_b = TcpStream::connect(&addr).unwrap();
    let mut reader_b = BufReader::new(stream_b.try_clone().unwrap());
    raw_send(&mut stream_b, 1, "ping", "");
    let mut line = String::new();
    reader_b.read_line(&mut line).unwrap();

    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    // New work is refused with a definite answer during the drain.
    raw_send(&mut stream_b, 2, "verify", ",\"design\":\"Decoder\"");
    line.clear();
    reader_b.read_line(&mut line).unwrap();
    let refused = gila_json::parse(&line).unwrap();
    assert_eq!(
        refused.get("status").and_then(Value::as_str),
        Some("shutting-down")
    );

    // The in-flight request still completes with a real verdict.
    line.clear();
    reader_a.read_line(&mut line).unwrap();
    let finished = gila_json::parse(&line).unwrap();
    assert_eq!(finished.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        finished
            .get("result")
            .and_then(|r| r.get("all_hold"))
            .and_then(Value::as_bool),
        Some(true)
    );

    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn client_retries_torn_writes_but_never_a_delivered_response() {
    let (server, addr) = start(base_cfg());
    let handle = server.handle();

    // A peer writes half a verify frame and hangs up. The daemon cannot
    // resynchronize a torn frame: it hangs up too, without answering
    // and without turning the fragment into a request.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let frame = b"{\"gila\":1,\"id\":1,\"op\":\"verify\",\"design\":\"Decoder\"}\n";
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).unwrap();
    assert!(answer.is_empty(), "a torn frame gets no answer");
    assert_eq!(handle.stats().get("requests").and_then(Value::as_u64), Some(0));
    handle.shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);

    // A daemon that drops the first connection before answering: the
    // client reconnects and retries (legal, because no response was
    // read), and once the retry is answered it never asks again.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (first, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(first).read_line(&mut line).unwrap();
        assert!(line.contains("\"op\":\"ping\""), "first attempt arrives whole");
        let (second, _) = listener.accept().unwrap();
        answer_frames(second)
    });
    let mut cfg = ClientConfig::new(Endpoint::Tcp(fake));
    cfg.retries = 4;
    cfg.base_delay = Duration::from_millis(10);
    let mut client = Client::connect(cfg);
    let resp = client.request("ping", vec![]).unwrap();
    assert_eq!(resp.get("result").and_then(Value::as_str), Some("pong"));
    drop(client);
    assert_eq!(peer.join().unwrap(), 1, "exactly one frame answered");

    // A connect that fails before any byte moves is equally retryable:
    // the socket appears only after the client's first attempt.
    #[cfg(unix)]
    {
        let sock = tmp_path("late.sock");
        let path = sock.clone();
        let peer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
            answer_frames(listener.accept().unwrap().0)
        });
        let mut cfg = ClientConfig::new(Endpoint::Unix(sock.clone()));
        cfg.retries = 8;
        cfg.base_delay = Duration::from_millis(20);
        let mut client = Client::connect(cfg);
        let resp = client.request("ping", vec![]).unwrap();
        assert_eq!(resp.get("result").and_then(Value::as_str), Some("pong"));
        drop(client);
        assert_eq!(peer.join().unwrap(), 1);
        let _ = std::fs::remove_file(&sock);
    }
}

#[test]
fn slow_client_frames_are_tolerated() {
    let (server, addr) = start(base_cfg());
    // The frame dribbles in two halves 100ms apart; the daemon must
    // reassemble it rather than time out or tear.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let frame = b"{\"gila\":1,\"id\":1,\"op\":\"verify\",\"design\":\"Decoder\"}\n";
    let (head, tail) = frame.split_at(frame.len() / 2);
    stream.write_all(head).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(tail).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    let resp = gila_json::parse(&line).unwrap();
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
    server.handle().shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}

#[test]
fn oversized_and_malformed_frames_get_answers_where_possible() {
    let (server, addr) = start(base_cfg());

    // Malformed JSON: answerable (id 0), connection stays usable.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"{not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = gila_json::parse(&line).unwrap();
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("error"));
    // Still alive: a valid ping on the same connection works.
    raw_send(&mut stream, 5, "ping", "");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("pong"));

    // An oversized frame is unrecoverable: the daemon hangs up rather
    // than buffering without bound.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let huge = vec![b'x'; gila_serve::MAX_FRAME_BYTES + 64];
    // Write may fail partway once the server closes its end; both
    // outcomes (short write error or EOF on read) prove the hang-up.
    let write_result = stream.write_all(&huge);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let read_result = reader.read_line(&mut line);
    assert!(
        write_result.is_err() || matches!(read_result, Ok(0)) || read_result.is_err(),
        "oversized frame must sever the connection"
    );

    server.handle().shutdown();
    assert_eq!(server.shutdown_and_wait(), DrainOutcome::Clean);
}
