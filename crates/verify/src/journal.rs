//! The verdict journal: a content-addressed proof cache.
//!
//! Verdicts are keyed by [`SliceKey`](crate::SliceKey): a canonical
//! hash of the COI-sliced transition system, the instruction's ILA
//! semantics, the correspondence obligations, and the
//! semantically-relevant verification directives. Two runs that hash
//! to the same key are asking the *same mathematical question*, so a
//! journaled verdict may be credited without solver work — the
//! soundness argument lives with the key derivation in
//! [`crate::cache_key`] and in `DESIGN.md`. An edited spec or RTL
//! changes the keys of exactly the slices it touches, so a stale
//! verdict can never be credited to a changed question.
//!
//! One journal serves every caller: `gila verify --checkpoint FILE`
//! and the `gila serve` daemon both hand a [`ProofCache`] to the engine
//! through [`VerifyOptions::journal`](crate::VerifyOptions::journal).
//!
//! Persistence is one flushed JSONL line per decided verdict,
//! append-only, torn-tail tolerant:
//!
//! ```text
//! {"port": "...", "instr": "...", "verdict": "holds|cex|unreached",
//!  ... verdict-specific fields ..., "wall_ns": N, "key": "<32 hex>", "ckv": V}
//! ```
//!
//! `ckv` is the key-derivation version ([`CACHE_KEY_VERSION`]).
//! Counterexample entries carry only the mismatch summary
//! (`finish_cycle`, `mismatched`), not the witness trace; verify
//! without the journal to regenerate the trace. Undecided outcomes
//! (`unknown`, `panicked`) are never journaled: "the budget was too
//! small" is a property of the run, not of the design.
//!
//! On open the journal is replayed: corrupt or torn records are
//! *dropped and counted*, never trusted — a half-written line after
//! `kill -9` costs one entry, not the run. Later records win over
//! earlier ones for the same key, so the journal is a log, not a map,
//! and appends never need a read-modify-write cycle.
//!
//! The in-memory index is bounded by an entry count and a byte budget
//! with LRU eviction. Eviction only drops the index entry; the
//! journal shrinks at [`ProofCache::flush_and_compact`] (called on
//! graceful drain), which rewrites it to exactly the resident set via
//! a temp-file + rename so a crash mid-compaction leaves either the
//! old journal or the new one, both valid.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gila_json::Value;

use crate::cache_key::CACHE_KEY_VERSION;
use crate::engine::{CheckResult, InstrVerdict, RefinementCex};

/// Configuration for [`ProofCache::open`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Journal path; `None` runs the cache in-memory only.
    pub path: Option<PathBuf>,
    /// Byte budget for the resident index (sum of journal-line sizes).
    pub max_bytes: u64,
    /// Entry budget for the resident index.
    pub max_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            path: None,
            max_bytes: 64 * 1024 * 1024,
            max_entries: 100_000,
        }
    }
}

/// What journal replay found at startup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Verdicts recovered into the index.
    pub recovered: u64,
    /// Records dropped: torn tail, corrupt JSON, missing/mismatched
    /// key fields, undecided outcomes, stale key-derivation version.
    pub dropped: u64,
}

/// Point-in-time cache counters, for `--stats` and the `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Resident entries.
    pub entries: u64,
    /// Resident bytes (journal-line proxy).
    pub bytes: u64,
    /// Lookup hits since open.
    pub hits: u64,
    /// Lookup misses since open.
    pub misses: u64,
    /// Verdicts inserted since open.
    pub inserts: u64,
    /// Entries evicted by the LRU/byte budget since open.
    pub evictions: u64,
    /// Verdicts recovered from the journal at open.
    pub recovered: u64,
    /// Journal records dropped at open.
    pub recovery_dropped: u64,
}

struct CacheEntry {
    port: String,
    verdict: InstrVerdict,
    line_bytes: u64,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<String, CacheEntry>,
    clock: u64,
    bytes: u64,
    journal: Option<BufWriter<File>>,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

/// A thread-safe, journal-backed, content-addressed verdict store.
pub struct ProofCache {
    cfg: CacheConfig,
    recovery: RecoveryStats,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for ProofCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProofCache")
            .field("path", &self.cfg.path)
            .field("stats", &self.stats())
            .finish()
    }
}

/// What a journal line keeps of a verdict: a counterexample keeps only
/// its mismatch summary, not the witness trace.
fn summary(result: &CheckResult) -> CheckResult {
    match result {
        CheckResult::CounterExample(cex) => {
            cex_summary(cex.finish_cycle, cex.mismatched_states.clone())
        }
        other => other.clone(),
    }
}

/// A counterexample with its mismatch summary and no witness trace.
fn cex_summary(finish_cycle: usize, mismatched_states: Vec<String>) -> CheckResult {
    CheckResult::CounterExample(Box::new(RefinementCex {
        finish_cycle,
        rtl_start_state: Default::default(),
        rtl_inputs: Vec::new(),
        rtl_trace: Vec::new(),
        rtl_finish_state: Default::default(),
        ila_post_state: Default::default(),
        mismatched_states,
    }))
}

/// One journal line (newline included) for a decided verdict.
fn entry_line(key: &str, port: &str, v: &InstrVerdict) -> String {
    let mut fields: Vec<(String, Value)> = vec![
        ("port".into(), port.into()),
        ("instr".into(), v.instruction.clone().into()),
        ("verdict".into(), v.result.tag().into()),
    ];
    match &v.result {
        CheckResult::CounterExample(cex) => {
            fields.push(("finish_cycle".into(), (cex.finish_cycle as f64).into()));
            fields.push((
                "mismatched".into(),
                Value::Array(
                    cex.mismatched_states
                        .iter()
                        .map(|s| s.clone().into())
                        .collect(),
                ),
            ));
        }
        CheckResult::FinishNotReached { max_cycles } => {
            fields.push(("max_cycles".into(), (*max_cycles as f64).into()));
        }
        _ => {}
    }
    fields.push(("wall_ns".into(), (v.time.as_nanos() as f64).into()));
    fields.push(("key".into(), key.into()));
    fields.push(("ckv".into(), (CACHE_KEY_VERSION as f64).into()));
    let mut line = Value::Object(fields).to_compact();
    line.push('\n');
    line
}

impl ProofCache {
    /// Opens the cache, replaying the journal when `cfg.path` exists.
    pub fn open(cfg: CacheConfig) -> std::io::Result<ProofCache> {
        let mut map: HashMap<String, CacheEntry> = HashMap::new();
        let mut clock = 0u64;
        let mut bytes = 0u64;
        let mut recovery = RecoveryStats::default();
        if let Some(path) = &cfg.path {
            if path.exists() {
                let text = std::fs::read_to_string(path)?;
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match replay_line(line) {
                        Some((key, port, verdict)) => {
                            let line_bytes = line.len() as u64 + 1;
                            clock += 1;
                            if let Some(old) = map.insert(
                                key,
                                CacheEntry {
                                    port,
                                    verdict,
                                    line_bytes,
                                    last_used: clock,
                                },
                            ) {
                                // Last writer wins; the superseded
                                // record no longer counts as resident.
                                bytes -= old.line_bytes;
                                recovery.recovered -= 1;
                            }
                            bytes += line_bytes;
                            recovery.recovered += 1;
                        }
                        None => recovery.dropped += 1,
                    }
                }
            }
        }
        let journal = match &cfg.path {
            Some(path) => Some(BufWriter::new(
                OpenOptions::new().create(true).append(true).open(path)?,
            )),
            None => None,
        };
        let cache = ProofCache {
            cfg,
            recovery,
            inner: Mutex::new(CacheInner {
                map,
                clock,
                bytes,
                journal,
                hits: 0,
                misses: 0,
                inserts: 0,
                evictions: 0,
            }),
        };
        // Recovered state must respect the budgets too.
        {
            let mut inner = cache.inner.lock().unwrap();
            cache.enforce_budgets(&mut inner);
        }
        Ok(cache)
    }

    fn enforce_budgets(&self, inner: &mut CacheInner) {
        while inner.map.len() > self.cfg.max_entries || inner.bytes > self.cfg.max_bytes {
            // Linear LRU scan: resident sets are small enough (bounded
            // by max_entries) that a heap would be ceremony.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.line_bytes;
                inner.evictions += 1;
            }
        }
    }

    /// Looks up a verdict by content key, refreshing its LRU slot.
    /// The returned verdict's `instruction` field is whatever name it
    /// was cached under; callers re-label it for the current design.
    pub fn lookup(&self, key: &str) -> Option<(String, InstrVerdict)> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.last_used = clock;
                let hit = (e.port.clone(), e.verdict.clone());
                inner.hits += 1;
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a decided verdict, appending one flushed journal line.
    /// Undecided outcomes (`unknown`, `panicked`) are ignored — caching
    /// "I gave up" would make a too-small budget permanent.
    pub fn insert(&self, key: &str, port: &str, verdict: &InstrVerdict) {
        if verdict.result.is_unknown() || verdict.result.is_panicked() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.map.contains_key(key) {
            // Same content key ⇒ same question ⇒ same answer; just
            // refresh the LRU slot instead of duplicating the line.
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(e) = inner.map.get_mut(key) {
                e.last_used = clock;
            }
            return;
        }
        let line = entry_line(key, port, verdict);
        if let Some(journal) = &mut inner.journal {
            // One write + flush per record: the journal grows by whole
            // lines, so a crash can tear at most the final one.
            let _ = journal.write_all(line.as_bytes());
            let _ = journal.flush();
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.bytes += line.len() as u64;
        inner.inserts += 1;
        inner.map.insert(
            key.to_string(),
            CacheEntry {
                port: port.to_string(),
                // Keep what the line keeps, so a verdict answers the same
                // whether it was journaled by this process or replayed.
                verdict: InstrVerdict {
                    time: verdict.time,
                    ..InstrVerdict::replayed(verdict.instruction.clone(), summary(&verdict.result))
                },
                line_bytes: line.len() as u64,
                last_used: clock,
            },
        );
        self.enforce_budgets(&mut inner);
    }

    /// Rewrites the journal to exactly the resident set (temp file +
    /// rename, crash-safe) and flushes. Called on graceful drain.
    pub fn flush_and_compact(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let Some(path) = self.cfg.path.clone() else {
            return Ok(());
        };
        if let Some(journal) = &mut inner.journal {
            journal.flush()?;
        }
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            let mut entries: Vec<(&String, &CacheEntry)> = inner.map.iter().collect();
            entries.sort_by_key(|(_, e)| e.last_used);
            for (key, e) in entries {
                w.write_all(entry_line(key, &e.port, &e.verdict).as_bytes())?;
            }
            w.flush()?;
        }
        // Drop the append handle before replacing the file under it.
        inner.journal = None;
        std::fs::rename(&tmp, &path)?;
        inner.journal = Some(BufWriter::new(
            OpenOptions::new().create(true).append(true).open(&path)?,
        ));
        inner.bytes = inner.map.values().map(|e| e.line_bytes).sum();
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            recovered: self.recovery.recovered,
            recovery_dropped: self.recovery.dropped,
        }
    }

    /// What journal replay found at open time.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// The journal path, if persistent.
    pub fn path(&self) -> Option<&Path> {
        self.cfg.path.as_deref()
    }
}

/// Parses one journal line into `(key, port, verdict)`, or `None` if
/// the record must be dropped (torn, corrupt, undecided, or from a
/// different key-derivation version). Unknown extra fields are ignored.
fn replay_line(line: &str) -> Option<(String, String, InstrVerdict)> {
    let entry = gila_json::parse(line).ok()?;
    let text = |key: &str| entry.get(key).and_then(Value::as_str).map(str::to_string);
    let count = |key: &str| entry.get(key).and_then(Value::as_usize).unwrap_or(0);
    let key = text("key")?;
    if entry.get("ckv")?.as_u64()? != CACHE_KEY_VERSION as u64 {
        return None;
    }
    let port = text("port")?;
    let instr = text("instr")?;
    let result = match text("verdict")?.as_str() {
        "holds" => CheckResult::Holds,
        "unreached" => CheckResult::FinishNotReached {
            max_cycles: count("max_cycles"),
        },
        "cex" => cex_summary(
            count("finish_cycle"),
            entry
                .get("mismatched")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        ),
        _ => return None,
    };
    Some((key, port, InstrVerdict::replayed(instr, result)))
}

#[cfg(test)]
mod tests {
    use std::io::Write as _;
    use std::time::Duration;

    use super::*;

    fn verdict(instr: &str, result: CheckResult) -> InstrVerdict {
        InstrVerdict {
            time: Duration::from_millis(1),
            solves: 2,
            ..InstrVerdict::replayed(instr.to_string(), result)
        }
    }

    fn open(path: &Path) -> ProofCache {
        ProofCache::open(CacheConfig {
            path: Some(path.to_path_buf()),
            ..CacheConfig::default()
        })
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("gila_journal_{name}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn undecided_verdicts_are_never_journaled() {
        let path = tmp("undecided");
        let cache = open(&path);
        cache.insert("k1", "p", &verdict("a", CheckResult::Holds));
        let unknown = CheckResult::Unknown {
            reason: gila_smt::ResourceOut::Conflicts,
            budget_spent: Default::default(),
        };
        cache.insert("k2", "p", &verdict("b", unknown));
        let panicked = CheckResult::JobPanicked {
            message: "boom".into(),
        };
        cache.insert("k3", "p", &verdict("c", panicked));
        cache.insert(
            "k4",
            "p",
            &verdict("d", CheckResult::FinishNotReached { max_cycles: 3 }),
        );
        assert_eq!(cache.stats().inserts, 2);
        drop(cache);
        let cache = open(&path);
        assert_eq!(
            cache.recovery(),
            RecoveryStats {
                recovered: 2,
                dropped: 0
            }
        );
        assert!(cache.lookup("k2").is_none() && cache.lookup("k3").is_none());
        let (port, d) = cache.lookup("k4").unwrap();
        assert_eq!((port.as_str(), d.instruction.as_str()), ("p", "d"));
        assert!(matches!(
            d.result,
            CheckResult::FinishNotReached { max_cycles: 3 }
        ));
        assert_eq!(d.solves, 0, "replayed verdicts carry no effort");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_lines_win() {
        let path = tmp("later");
        let cache = open(&path);
        cache.insert("k", "p", &verdict("a", CheckResult::Holds));
        drop(cache);
        // Another writer appends a different verdict for the same key.
        let unreached = CheckResult::FinishNotReached { max_cycles: 7 };
        let line = entry_line("k", "p", &verdict("a", unreached));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(line.as_bytes()).unwrap();
        drop(f);
        let cache = open(&path);
        assert_eq!(
            cache.recovery(),
            RecoveryStats {
                recovered: 1,
                dropped: 0
            }
        );
        let (_, v) = cache.lookup("k").unwrap();
        assert!(matches!(
            v.result,
            CheckResult::FinishNotReached { max_cycles: 7 }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_and_counted() {
        let path = tmp("torn");
        let cache = open(&path);
        cache.insert("k", "p", &verdict("a", CheckResult::Holds));
        drop(cache);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"port\":\"p\",\"instr\":\"b\",\"verd").unwrap();
        drop(f);
        let cache = open(&path);
        assert_eq!(
            cache.recovery(),
            RecoveryStats {
                recovered: 1,
                dropped: 1
            }
        );
        assert!(cache.lookup("k").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cex_entries_replay_with_mismatch_summary() {
        let path = tmp("cex");
        let cache = open(&path);
        let state = std::collections::BTreeMap::from([(
            "count".to_string(),
            gila_expr::Value::Bv(gila_expr::BitVecValue::from_u64(3, 4)),
        )]);
        let cex = RefinementCex {
            finish_cycle: 2,
            rtl_start_state: state.clone(),
            rtl_inputs: Vec::new(),
            rtl_trace: vec![state],
            rtl_finish_state: Default::default(),
            ila_post_state: Default::default(),
            mismatched_states: vec!["cnt".into()],
        };
        cache.insert(
            "k",
            "p",
            &verdict("a", CheckResult::CounterExample(Box::new(cex))),
        );
        // The same summary comes back in process and after a reopen.
        let in_process = cache.lookup("k").unwrap().1;
        drop(cache);
        let replayed = open(&path).lookup("k").unwrap().1;
        for v in [in_process, replayed] {
            let CheckResult::CounterExample(back) = &v.result else {
                panic!("expected cex, got {:?}", v.result);
            };
            assert_eq!(back.finish_cycle, 2);
            assert_eq!(back.mismatched_states, vec!["cnt".to_string()]);
            assert!(back.rtl_trace.is_empty() && back.rtl_start_state.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }
}
