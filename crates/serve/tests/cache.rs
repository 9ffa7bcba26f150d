//! Proof-cache behavior: content-key semantics, journal recovery
//! edge cases, eviction, compaction, the end-to-end warm-path
//! invariant (`solves == 0`, incremental re-proving), and the content
//! memo's byte-identical lint answers, driven through the
//! [`gila_serve::Service`] layer in-process.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use gila_json::Value;
use gila_serve::{CacheConfig, ProofCache, Service};
use gila_smt::CancelToken;
use gila_trace::Tracer;
use gila_verify::{slice_keys, CACHE_KEY_VERSION};

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "gila-serve-cache-{}-{}-{name}.jsonl",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").replace("::", "-"),
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Two independent counters: `inc_a` touches only `cnt_a`, `inc_b`
/// only `cnt_b`. Every instruction's *RTL* slice spans all mapped
/// state (each check compares every correspondence), but the *ILA*
/// semantics are hashed per instruction — so editing one
/// instruction's ILA update perturbs only that instruction's key.
const ILA: &str = r#"
port pair {
  input sel : bv1
  output state cnt_a : bv4 init 0
  output state cnt_b : bv4 init 0

  instr inc_a when sel == 0 { cnt_a := cnt_a + 1 }
  instr inc_b when sel == 1 { cnt_b := cnt_b + 2 }
}
"#;

const RTL: &str = r#"
module pair(clk, sel_in);
  input clk; input sel_in;
  reg [3:0] ra;
  reg [3:0] rb;
  always @(posedge clk) begin
    if (!sel_in) ra <= ra + 4'd1;
    if (sel_in) rb <= rb + 4'd2;
  end
endmodule
"#;

/// Same spec, but `inc_b` now claims to add 3: only `inc_b`'s slice
/// hash may change (and re-proving it against the unchanged RTL,
/// which adds 2, must fail).
const ILA_EDITED: &str = r#"
port pair {
  input sel : bv1
  output state cnt_a : bv4 init 0
  output state cnt_b : bv4 init 0

  instr inc_a when sel == 0 { cnt_a := cnt_a + 1 }
  instr inc_b when sel == 1 { cnt_b := cnt_b + 3 }
}
"#;

fn refmap_json() -> String {
    let mut map = gila_verify::RefinementMap::new("pair");
    map.map_state("cnt_a", "ra");
    map.map_state("cnt_b", "rb");
    map.map_input("sel", "sel_in");
    map.to_json()
}

type Parsed = (
    gila_core::ModuleIla,
    gila_rtl::RtlModule,
    Vec<gila_verify::RefinementMap>,
);

fn parsed() -> Parsed {
    let ila = gila_lang::parse_ila(ILA).unwrap();
    let rtl = gila_rtl::parse_verilog(RTL).unwrap();
    let map = gila_verify::RefinementMap::from_json(&refmap_json()).unwrap();
    (ila, rtl, vec![map])
}

// ---------------------------------------------------------------
// Content-key semantics.

#[test]
fn slice_keys_are_deterministic_and_distinct_per_instruction() {
    let (ila, rtl, maps) = parsed();
    let k1 = slice_keys(&ila, &rtl, &maps).unwrap();
    let k2 = slice_keys(&ila, &rtl, &maps).unwrap();
    assert_eq!(k1.len(), 2);
    for (a, b) in k1.iter().zip(&k2) {
        assert_eq!((&a.port, &a.instruction, &a.key), (&b.port, &b.instruction, &b.key));
        assert_eq!(a.key.len(), 32, "dual-lane FNV key is 32 hex chars");
    }
    let distinct: BTreeSet<&str> = k1.iter().map(|k| k.key.as_str()).collect();
    assert_eq!(distinct.len(), 2, "different instructions, different keys");
}

#[test]
fn editing_one_instruction_perturbs_only_its_key() {
    let (ila, rtl, maps) = parsed();
    let ila2 = gila_lang::parse_ila(ILA_EDITED).unwrap();
    let before = slice_keys(&ila, &rtl, &maps).unwrap();
    let after = slice_keys(&ila2, &rtl, &maps).unwrap();
    let get = |keys: &[gila_verify::SliceKey], instr: &str| {
        keys.iter().find(|k| k.instruction == instr).unwrap().key.clone()
    };
    assert_eq!(
        get(&before, "inc_a"),
        get(&after, "inc_a"),
        "untouched instruction keeps its key (COI slicing isolates it)"
    );
    assert_ne!(
        get(&before, "inc_b"),
        get(&after, "inc_b"),
        "edited instruction's key must change"
    );
}

// ---------------------------------------------------------------
// Journal recovery edge cases.

fn warm_journal(path: &std::path::Path) -> (Vec<String>, Vec<String>) {
    // Produce a genuine journal by running a cold verify through the
    // service, then return its lines and keys.
    let cache = Arc::new(
        ProofCache::open(CacheConfig {
            path: Some(path.to_path_buf()),
            ..CacheConfig::default()
        })
        .unwrap(),
    );
    let service = Service::new(Arc::clone(&cache), Tracer::disabled());
    let resp = service.execute(&inline_verify_request(1), CancelToken::new(), None);
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
    cache.flush_and_compact().unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<String> = text.lines().map(String::from).collect();
    let keys = lines
        .iter()
        .map(|l| {
            gila_json::parse(l).unwrap().get("key").unwrap().as_str().unwrap().to_string()
        })
        .collect();
    (lines, keys)
}

fn inline_verify_request(id: u64) -> gila_serve::Request {
    let frame = Value::object(vec![
        ("gila".into(), 1.0.into()),
        ("id".into(), (id as f64).into()),
        ("op".into(), "verify".into()),
        ("ila".into(), ILA.into()),
        ("rtl".into(), RTL.into()),
        ("maps".into(), Value::Array(vec![refmap_json().into()])),
    ]);
    gila_serve::protocol::parse_request(frame).unwrap()
}

fn reopen(path: &std::path::Path) -> ProofCache {
    ProofCache::open(CacheConfig {
        path: Some(path.to_path_buf()),
        ..CacheConfig::default()
    })
    .unwrap()
}

#[test]
fn empty_journal_recovers_to_empty_cache() {
    let path = tmp_path("empty");
    std::fs::write(&path, "").unwrap();
    let cache = reopen(&path);
    assert_eq!(cache.recovery().recovered, 0);
    assert_eq!(cache.recovery().dropped, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_final_line_is_dropped_rest_recovered() {
    let path = tmp_path("torn");
    let (lines, _) = warm_journal(&path);
    assert_eq!(lines.len(), 2);
    // Tear the last record mid-line, as kill -9 during a write would.
    let torn = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
    std::fs::write(&path, torn).unwrap();
    let cache = reopen(&path);
    assert_eq!(cache.recovery().recovered, 1, "intact record survives");
    assert_eq!(cache.recovery().dropped, 1, "torn tail dropped, not trusted");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interior_corrupt_record_is_dropped_not_fatal() {
    let path = tmp_path("corrupt");
    let (lines, _) = warm_journal(&path);
    let corrupted = format!("{}\n{{\"key\": garbage!!\n{}\n", lines[0], lines[1]);
    std::fs::write(&path, corrupted).unwrap();
    let cache = reopen(&path);
    assert_eq!(cache.recovery().recovered, 2, "records around the damage survive");
    assert_eq!(cache.recovery().dropped, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_keys_resolve_last_writer_wins_deterministically() {
    let path = tmp_path("dup");
    let (lines, keys) = warm_journal(&path);
    // Append a duplicate of record 0: same key, appears later.
    let duplicated = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[0]);
    std::fs::write(&path, duplicated).unwrap();
    let cache = reopen(&path);
    assert_eq!(
        cache.recovery().recovered, 2,
        "three lines, two keys: the duplicate replaces, never double-counts"
    );
    assert!(cache.lookup(&keys[0]).is_some());
    assert!(cache.lookup(&keys[1]).is_some());
    let stats = cache.stats();
    assert_eq!(stats.entries, 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_key_version_records_are_dropped() {
    let path = tmp_path("ckv");
    let (lines, _) = warm_journal(&path);
    let current = format!("\"ckv\":{CACHE_KEY_VERSION}");
    let stale = lines[0].replace(&current, "\"ckv\":999");
    assert_ne!(stale, lines[0], "test must actually rewrite the version");
    std::fs::write(&path, format!("{stale}\n{}\n", lines[1])).unwrap();
    let cache = reopen(&path);
    assert_eq!(cache.recovery().recovered, 1);
    assert_eq!(cache.recovery().dropped, 1, "future key-derivation versions are not trusted");
    let _ = std::fs::remove_file(&path);
}

/// A journal written before the absint lemma pipeline (key-derivation
/// version 1) must miss on recovery, not be credited to the v2
/// pipeline: the version tag is exactly how a stale pre-absint entry
/// is kept from skipping work it never proved.
#[test]
fn pre_absint_v1_journal_entries_are_dropped_on_recovery() {
    const {
        assert!(
            CACHE_KEY_VERSION >= 2,
            "the absint lemma pipeline bumped the key version past 1"
        )
    };
    let path = tmp_path("ckv-v1");
    let (lines, keys) = warm_journal(&path);
    let current = format!("\"ckv\":{CACHE_KEY_VERSION}");
    let pre_absint = lines[0].replace(&current, "\"ckv\":1");
    assert_ne!(pre_absint, lines[0], "test must actually rewrite the version");
    std::fs::write(&path, format!("{pre_absint}\n{}\n", lines[1])).unwrap();
    let cache = reopen(&path);
    assert_eq!(cache.recovery().recovered, 1);
    assert_eq!(cache.recovery().dropped, 1, "pre-absint records are not trusted");
    // The downgraded record's key no longer resolves; its sibling does.
    assert!(cache.lookup(&keys[0]).is_none());
    assert!(cache.lookup(&keys[1]).is_some());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn eviction_respects_entry_budget_and_compaction_shrinks_journal() {
    let path = tmp_path("evict");
    let (_, keys) = warm_journal(&path);
    // Reopen with room for one entry: recovery itself must evict.
    let cache = ProofCache::open(CacheConfig {
        path: Some(path.clone()),
        max_entries: 1,
        ..CacheConfig::default()
    })
    .unwrap();
    assert_eq!(cache.stats().entries, 1);
    assert_eq!(cache.stats().evictions, 1);
    cache.flush_and_compact().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 1, "compaction rewrites only the resident set");
    // Whichever key survived must still resolve.
    let survivors: Vec<_> = keys.iter().filter(|k| cache.lookup(k).is_some()).collect();
    assert_eq!(survivors.len(), 1);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------
// The warm-path invariant, end to end through the service.

#[test]
fn warm_verify_does_zero_solver_work_and_edits_reprove_only_changed_slices() {
    let path = tmp_path("warm");
    let cache = Arc::new(
        ProofCache::open(CacheConfig {
            path: Some(path.clone()),
            ..CacheConfig::default()
        })
        .unwrap(),
    );
    let service = Service::new(Arc::clone(&cache), Tracer::disabled());

    let field = |resp: &Value, name: &str| -> u64 {
        resp.get("result").unwrap().get(name).unwrap().as_u64().unwrap()
    };

    // Cold: everything is a miss and the solver runs.
    let cold = service.execute(&inline_verify_request(1), CancelToken::new(), None);
    assert_eq!(cold.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(field(&cold, "cache_hits"), 0);
    assert_eq!(field(&cold, "cache_misses"), 2);
    assert!(field(&cold, "solves") > 0, "cold run must actually solve");

    // Warm: zero solver work, proven by telemetry.
    let warm = service.execute(&inline_verify_request(2), CancelToken::new(), None);
    assert_eq!(field(&warm, "cache_hits"), 2);
    assert_eq!(field(&warm, "cache_misses"), 0);
    assert_eq!(field(&warm, "solves"), 0, "a fully-warm request costs no solves");
    assert_eq!(
        warm.get("result").unwrap().get("all_hold").and_then(Value::as_bool),
        Some(true)
    );

    // Edit one instruction's ILA semantics: exactly one slice re-proves.
    let edited_frame = Value::object(vec![
        ("gila".into(), 1.0.into()),
        ("id".into(), 3.0.into()),
        ("op".into(), "verify".into()),
        ("ila".into(), ILA_EDITED.into()),
        ("rtl".into(), RTL.into()),
        ("maps".into(), Value::Array(vec![refmap_json().into()])),
    ]);
    let req = gila_serve::protocol::parse_request(edited_frame).unwrap();
    let edited = service.execute(&req, CancelToken::new(), None);
    assert_eq!(field(&edited, "cache_hits"), 1, "untouched slice hits");
    assert_eq!(field(&edited, "cache_misses"), 1, "edited slice re-proves");
    assert!(field(&edited, "solves") > 0);
    // (ILA_EDITED's inc_b claims +3 where the RTL does +2: the
    // re-proved slice must now *fail*, proving the cache didn't mask
    // the edit.)
    assert_eq!(
        edited.get("result").unwrap().get("all_hold").and_then(Value::as_bool),
        Some(false)
    );

    let _ = std::fs::remove_file(&path);
}

/// The warm-path invariant on the whole registry: one service verifies
/// each of the eight designs by name, then again, and the second
/// request is answered entirely from the proof cache.
#[test]
fn warm_verify_does_zero_solver_work_on_every_registry_design() {
    let service = fresh_service();
    let registry = gila_designs::all_case_studies();
    assert_eq!(registry.len(), 8);
    for (i, cs) in registry.iter().enumerate() {
        let frame = Value::object(vec![
            ("gila".into(), 1.0.into()),
            ("id".into(), (i as f64).into()),
            ("op".into(), "verify".into()),
            ("design".into(), cs.name.into()),
        ]);
        let req = gila_serve::protocol::parse_request(frame).unwrap();
        for leg in ["cold", "warm"] {
            let resp = service.execute(&req, CancelToken::new(), None);
            assert_eq!(
                resp.get("status").and_then(Value::as_str),
                Some("ok"),
                "{} ({leg}): {}",
                cs.name,
                resp.to_compact()
            );
            let result = resp.get("result").unwrap();
            assert_eq!(
                result.get("all_hold").and_then(Value::as_bool),
                Some(true),
                "{} ({leg})",
                cs.name
            );
            if leg == "warm" {
                let solves = result.get("solves").and_then(Value::as_u64);
                assert_eq!(solves, Some(0), "{}: warm run did solver work", cs.name);
                let hit_rate = result.get("cache_hit_rate").and_then(Value::as_f64);
                assert_eq!(hit_rate, Some(1.0), "{}: warm run missed", cs.name);
            }
        }
    }
}

/// `gila verify --checkpoint` and the daemon share one journal
/// implementation and one format: a journal written by a direct
/// `verify_module` run warms a daemon opened on the same file.
#[test]
fn verify_module_journal_warms_a_service_on_the_same_file() {
    let path = tmp_path("shared");
    let (ila, rtl, maps) = parsed();
    let journal = Arc::new(reopen(&path));
    let opts = gila_verify::VerifyOptions {
        journal: Some(Arc::clone(&journal)),
        ..Default::default()
    };
    let report = gila_verify::verify_module(&ila, &rtl, &maps, &opts).unwrap();
    assert!(report.all_hold());
    assert!(report.telemetry.solves > 0);
    assert_eq!(report.telemetry.cache_misses, 2);
    drop((opts, journal));

    let cache = Arc::new(reopen(&path));
    assert_eq!(cache.recovery().recovered, 2);
    assert_eq!(cache.recovery().dropped, 0);
    let service = Service::new(Arc::clone(&cache), Tracer::disabled());
    let resp = service.execute(&inline_verify_request(1), CancelToken::new(), None);
    let result = resp.get("result").unwrap();
    let field = |name: &str| result.get(name).and_then(Value::as_u64).unwrap();
    assert_eq!(field("solves"), 0, "the journal answers every slice");
    assert_eq!(field("cache_hits"), 2);
    assert_eq!(field("cache_misses"), 0);
    assert_eq!(result.get("all_hold").and_then(Value::as_bool), Some(true));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancelled_request_reports_unknown_not_wrong_answers() {
    let cache = Arc::new(ProofCache::open(CacheConfig::default()).unwrap());
    let service = Service::new(Arc::clone(&cache), Tracer::disabled());
    let cancel = CancelToken::new();
    cancel.cancel();
    let resp = service.execute(&inline_verify_request(9), cancel, Some(Duration::from_secs(5)));
    assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
    let result = resp.get("result").unwrap();
    assert_eq!(result.get("all_hold").and_then(Value::as_bool), Some(false));
    assert!(
        result.get("unknown").and_then(Value::as_u64).unwrap() > 0,
        "cancellation yields Unknown verdicts, never fabricated ones"
    );
    // Nothing undecided may have been journaled.
    assert_eq!(cache.stats().inserts, 0);
}

// ---------------------------------------------------------------
// The content memo answers exactly what a cold service answers.

fn fresh_service() -> Service {
    let cache = Arc::new(ProofCache::open(CacheConfig::default()).unwrap());
    Service::new(cache, Tracer::disabled())
}

fn lint_request(ila: &str, rtl: &str) -> gila_serve::Request {
    let frame = Value::object(vec![
        ("gila".into(), 1.0.into()),
        ("id".into(), 1.0.into()),
        ("op".into(), "lint".into()),
        ("ila".into(), ila.into()),
        ("rtl".into(), rtl.into()),
    ]);
    gila_serve::protocol::parse_request(frame).unwrap()
}

/// One service lints every single-register mutant of the seven
/// non-Datapath registry designs, sent as printed text; each answer
/// must be byte-identical to a fresh service's answer to the same
/// request, although the warm service parses and lints each design's
/// `.ila` text only once.
#[test]
fn memoized_lint_matches_a_fresh_service_on_every_mutant() {
    use gila_verify::{mutate_register, Mutation};
    let warm = fresh_service();
    let mut mutants = 0;
    let mut texts = BTreeSet::new();
    let registry = gila_designs::all_case_studies();
    for cs in registry.iter().filter(|cs| cs.name != "Datapath") {
        let ila = gila_lang::to_ila_text(&cs.ila).unwrap();
        for reg in cs.rtl.regs() {
            for m in Mutation::all() {
                let rtl = mutate_register(&cs.rtl, &reg.name, m).unwrap().to_verilog().unwrap();
                let req = lint_request(&ila, &rtl);
                texts.insert(rtl);
                let got = warm.execute(&req, CancelToken::new(), None).to_compact();
                let cold = fresh_service().execute(&req, CancelToken::new(), None);
                assert_eq!(
                    cold.get("status").and_then(Value::as_str),
                    Some("ok"),
                    "{}/{}/{m}",
                    cs.name,
                    reg.name
                );
                assert_eq!(got, cold.to_compact(), "{}/{}/{m}", cs.name, reg.name);
                mutants += 1;
            }
        }
    }
    assert_eq!(mutants, 246);
    let memo = warm.memo_stats();
    assert_eq!(memo.hits + memo.misses, 2 * 246, "one .ila and one Verilog lookup per lint");
    assert_eq!(
        memo.misses,
        7 + texts.len() as u64,
        "each design's .ila and each distinct mutant text parse once"
    );
}

/// A malformed text's parse error is memoized too: asking twice gives
/// the same error, not a success or a different message.
#[test]
fn malformed_text_answers_the_same_error_every_time() {
    let service = fresh_service();
    let bad_ila = lint_request("port broken {", RTL);
    let first = service.execute(&bad_ila, CancelToken::new(), None);
    let second = service.execute(&bad_ila, CancelToken::new(), None);
    assert_eq!(first.get("status").and_then(Value::as_str), Some("error"));
    assert_eq!(first.to_compact(), second.to_compact());
    let cold = fresh_service().execute(&bad_ila, CancelToken::new(), None);
    assert_eq!(first.to_compact(), cold.to_compact());

    let bad_rtl = lint_request(ILA, "module broken(");
    let first = service.execute(&bad_rtl, CancelToken::new(), None);
    let second = service.execute(&bad_rtl, CancelToken::new(), None);
    assert_eq!(first.get("status").and_then(Value::as_str), Some("error"));
    assert_eq!(first.to_compact(), second.to_compact());
    let memo = service.memo_stats();
    assert_eq!((memo.entries, memo.hits, memo.misses), (3, 3, 3));
}
