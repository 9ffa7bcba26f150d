//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The architecture follows MiniSat: two-watched-literal propagation,
//! first-UIP conflict analysis, VSIDS branching with phase saving, Luby
//! restarts, and activity/LBD-guided learnt-clause database reduction.
//!
//! Clauses live in one flat [`ClauseArena`] of `u32` words, assignments
//! in a per-literal value array, and the decision heap sifts through a
//! hole. Where a clause sits in memory never steers the search: every
//! pass over the clause database walks the arena's creation-order list,
//! and garbage collection relocates watchers and reasons in place,
//! keeping watch-list order. `tests/golden/sat_trajectory.txt` at the
//! repository root pins the search step for step.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};

/// Reference to a clause: the offset of its header in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ClauseRef(u32);

/// Header words before a clause's literals: length and flags, LBD, and
/// the activity as two halves of an `f64`.
const HEADER: usize = 4;
/// Header word holding `len << FLAG_BITS | flags`.
const H_LEN: usize = 0;
/// Header word holding the LBD; during garbage collection it holds the
/// clause's new offset instead.
const H_LBD: usize = 1;
/// First of the two header words holding the activity.
const H_ACT: usize = 2;
const FLAG_BITS: u32 = 2;
const LEARNT: u32 = 1;
const DELETED: u32 = 2;

/// Every clause in one vector of words: a [`HEADER`] followed by the
/// literals inline.
///
/// `list` holds the clause refs in creation order; every pass that walks
/// the database (`reduce_db`, activity rescaling) walks it, so their
/// order is creation order whatever the offsets are. Deleted
/// clauses keep their words, flagged, until [`ClauseArena::compact`]
/// drops them.
#[derive(Clone, Debug, Default)]
struct ClauseArena {
    words: Vec<u32>,
    list: Vec<ClauseRef>,
    /// Words of deleted clauses.
    wasted: usize,
    /// Clauses not deleted.
    live: usize,
}

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cref = ClauseRef(u32::try_from(self.words.len()).expect("arena below 2^32 words"));
        // LBD 0 and activity 0.0, whose bits are all zero.
        self.words
            .extend([(lits.len() as u32) << FLAG_BITS | learnt as u32, 0, 0, 0]);
        self.words.extend(lits.iter().map(|l| l.0));
        self.list.push(cref);
        self.live += 1;
        cref
    }

    fn len(&self, c: ClauseRef) -> usize {
        (self.words[c.0 as usize + H_LEN] >> FLAG_BITS) as usize
    }

    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.words[c.0 as usize + H_LEN] & LEARNT != 0
    }

    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.words[c.0 as usize + H_LEN] & DELETED != 0
    }

    fn lbd(&self, c: ClauseRef) -> u32 {
        self.words[c.0 as usize + H_LBD]
    }

    fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        self.words[c.0 as usize + H_LBD] = lbd;
    }

    fn activity(&self, c: ClauseRef) -> f64 {
        let at = c.0 as usize + H_ACT;
        f64::from_bits(self.words[at] as u64 | (self.words[at + 1] as u64) << 32)
    }

    fn set_activity(&mut self, c: ClauseRef, a: f64) {
        let at = c.0 as usize + H_ACT;
        let bits = a.to_bits();
        self.words[at] = bits as u32;
        self.words[at + 1] = (bits >> 32) as u32;
    }

    /// The clause's literals as raw literal codes.
    fn lits(&self, c: ClauseRef) -> &[u32] {
        let at = c.0 as usize + HEADER;
        &self.words[at..at + self.len(c)]
    }

    fn lits_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let at = c.0 as usize + HEADER;
        let len = self.len(c);
        &mut self.words[at..at + len]
    }

    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit(self.words[c.0 as usize + HEADER + k])
    }

    fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.words[c.0 as usize + H_LEN] |= DELETED;
        self.wasted += HEADER + self.len(c);
        self.live -= 1;
    }

    /// Words held by live clauses.
    fn live_words(&self) -> usize {
        self.words.len() - self.wasted
    }

    /// True once deleted words pass half of the arena.
    fn needs_compaction(&self) -> bool {
        2 * self.wasted > self.words.len()
    }

    /// Copies the live clauses, in creation order, into a fresh word
    /// vector. Returns the old one, in which every live clause's
    /// [`H_LBD`] word now holds its new offset (see
    /// [`ClauseArena::forward`]).
    fn compact(&mut self) -> Vec<u32> {
        let mut words = Vec::with_capacity(self.live_words());
        let mut list = Vec::with_capacity(self.live);
        for &c in &self.list {
            if self.is_deleted(c) {
                continue;
            }
            let at = c.0 as usize;
            let moved = ClauseRef(words.len() as u32);
            words.extend_from_slice(&self.words[at..at + HEADER + self.len(c)]);
            self.words[at + H_LBD] = moved.0;
            list.push(moved);
        }
        self.list = list;
        self.wasted = 0;
        std::mem::replace(&mut self.words, words)
    }

    /// Where `compact` moved the live clause `c`, read from the word
    /// vector it returned.
    fn forward(old: &[u32], c: ClauseRef) -> ClauseRef {
        ClauseRef(old[c.0 as usize + H_LBD])
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Why a solve call gave up before reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceOut {
    /// The per-call conflict budget was exceeded.
    Conflicts,
    /// The per-call propagation budget was exceeded.
    Propagations,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared [`CancelToken`] was triggered.
    Cancelled,
}

impl ResourceOut {
    /// Stable lower-case name for reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ResourceOut::Conflicts => "conflicts",
            ResourceOut::Propagations => "propagations",
            ResourceOut::Deadline => "deadline",
            ResourceOut::Cancelled => "cancelled",
        }
    }
}

/// Per-call resource budgets for [`Solver::solve_with_assumptions`].
///
/// Every field is a *maximum allowed* amount of that resource for one
/// solve call; exceeding it makes the call return
/// [`SolveResult::Unknown`] with the limit that fired. `None` fields
/// are unlimited. Limits are sticky on the solver ([`Solver::set_limits`])
/// and measured per call, so an incremental solver can run many bounded
/// queries without re-arming.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveLimits {
    /// Maximum conflicts this call may analyze.
    pub conflicts: Option<u64>,
    /// Maximum literals this call may propagate.
    pub propagations: Option<u64>,
    /// Wall-clock instant after which the call gives up.
    pub deadline: Option<Instant>,
}

impl SolveLimits {
    /// True when no limit is set (the solver runs unbounded).
    pub fn is_unbounded(&self) -> bool {
        self.conflicts.is_none() && self.propagations.is_none() && self.deadline.is_none()
    }
}

/// A shared cooperative cancellation flag.
///
/// Clones share the flag; any holder may [`cancel`](CancelToken::cancel)
/// and every solver carrying a clone aborts its in-flight call with
/// [`SolveResult::Unknown`]`(`[`ResourceOut::Cancelled`]`)` at the next
/// check point. The flag stays set until [`reset`](CancelToken::reset).
///
/// A [`child`](CancelToken::child) token has a flag of its own and also
/// reads as cancelled while its parent is: cancelling the child stops
/// only its holders, cancelling the parent stops both.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that is cancelled when `self` is, but whose own
    /// [`cancel`](CancelToken::cancel) leaves `self` untouched.
    pub fn child(&self) -> Self {
        CancelToken {
            flag: Arc::default(),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Requests cancellation of every solver sharing this token (and
    /// of every holder of a child token).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on
    /// this token or on any token it is a child of.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// Clears this token's own flag so the token can be reused; a
    /// cancelled parent still cancels it.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// Outcome of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// The formula (plus assumptions) is satisfiable; a model is available.
    Sat,
    /// The formula (plus assumptions) is unsatisfiable.
    Unsat,
    /// The call gave up: a resource limit fired or it was cancelled.
    /// The formula's status is undetermined and the solver remains
    /// usable (learnt clauses are kept).
    Unknown(ResourceOut),
}

impl SolveResult {
    /// True for [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }

    /// True for [`SolveResult::Unknown`].
    pub fn is_unknown(self) -> bool {
        matches!(self, SolveResult::Unknown(_))
    }
}

/// Counters describing solver effort; useful for benchmark reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Peak number of clauses (original + learnt) held at once; deleted
    /// clauses do not count.
    pub peak_clauses: u64,
}

impl SolverStats {
    /// Component-wise effort spent since `earlier` was captured.
    /// Gauges (`learnt_clauses`, `peak_clauses`) keep their current
    /// value rather than a difference; counters subtract saturating.
    pub fn since(&self, earlier: SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses,
            peak_clauses: self.peak_clauses,
        }
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use gila_sat::{Lit, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// assert!(s.solve().is_sat());
/// assert_eq!(s.value(a), Some(false));
/// assert_eq!(s.value(b), Some(true));
/// s.add_clause([b.negative()]);
/// assert!(!s.solve().is_sat());
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    ca: ClauseArena,
    watches: Vec<Vec<Watcher>>,
    /// The value of every literal, indexed by [`Lit::index`]: a literal
    /// and its negation always hold opposite values (or both `Undef`).
    vals: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    activity: Vec<f64>,
    order: VarHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    /// `vals` as of the last `Sat` answer; empty after any other answer.
    model: Vec<LBool>,
    stats: SolverStats,
    last_solve_mark: SolverStats,
    seen: Vec<bool>,
    learnt_count: usize,
    max_learnts: f64,
    limits: SolveLimits,
    cancel: Option<CancelToken>,
    /// Scratch buffers reused across calls: the clause being learnt,
    /// the literals whose `seen` flag `analyze` must clear, the clause
    /// being added, and per-level stamps for LBD counting.
    learnt_buf: Vec<Lit>,
    to_clear: Vec<Lit>,
    add_buf: Vec<Lit>,
    level_stamp: Vec<u64>,
    stamp: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            ca: ClauseArena::default(),
            watches: Vec::new(),
            vals: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            activity: Vec::new(),
            order: VarHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            model: Vec::new(),
            stats: SolverStats::default(),
            last_solve_mark: SolverStats::default(),
            seen: Vec::new(),
            learnt_count: 0,
            max_learnts: 4000.0,
            limits: SolveLimits::default(),
            cancel: None,
            learnt_buf: Vec::new(),
            to_clear: Vec::new(),
            add_buf: Vec::new(),
            level_stamp: Vec::new(),
            stamp: 0,
        }
    }

    /// Installs per-call resource limits; they apply to every subsequent
    /// solve call until replaced. `SolveLimits::default()` removes them.
    pub fn set_limits(&mut self, limits: SolveLimits) {
        self.limits = limits;
    }

    /// The currently installed limits.
    pub fn limits(&self) -> SolveLimits {
        self.limits
    }

    /// Installs a shared cancellation token checked during solving.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.extend([LBool::Undef, LBool::Undef]);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(v.index() + 1);
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses (original + learnt, excluding deleted).
    pub fn num_clauses(&self) -> usize {
        self.ca.live
    }

    /// Effort counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Effort spent by the most recent `solve`/`solve_with_assumptions`
    /// call alone (counters are deltas; gauges are current values).
    pub fn last_solve_stats(&self) -> SolverStats {
        self.stats.since(self.last_solve_mark)
    }

    /// Adds a clause; returns `false` if the solver is already in an
    /// unsatisfiable state (the clause made the formula trivially false
    /// at level 0 or a previous contradiction was found).
    ///
    /// Clauses may be added between `solve` calls (incremental use).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend(lits);
        buf.sort_unstable();
        buf.dedup();
        let added = self.add_sorted_clause(&mut buf);
        self.add_buf = buf;
        added
    }

    /// [`Solver::add_clause`] on sorted, duplicate-free literals, which
    /// it simplifies in place.
    fn add_sorted_clause(&mut self, lits: &mut Vec<Lit>) -> bool {
        // Tautology / level-0 simplification.
        let mut kept = 0;
        let mut prev: Option<Lit> = None;
        for i in 0..lits.len() {
            let l = lits[i];
            if prev == Some(!l) {
                return true; // tautology: contains l and !l (sorted adjacently)
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
            prev = Some(l);
        }
        lits.truncate(kept);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_new_clause(lits, false);
                true
            }
        }
    }

    fn attach_new_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.ca.alloc(lits, learnt);
        let w0 = Watcher {
            cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            cref,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).index()].push(w0);
        self.watches[(!lits[1]).index()].push(w1);
        if learnt {
            self.learnt_count += 1;
        }
        self.stats.peak_clauses = self.stats.peak_clauses.max(self.ca.live as u64);
        cref
    }

    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.index()]
    }

    fn var_value(&self, v: usize) -> LBool {
        self.vals[2 * v + 1]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.vals[l.index()] = LBool::True;
        self.vals[(!l).index()] = LBool::False;
        self.polarity[v] = l.is_positive();
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.vals[l.index()] = LBool::Undef;
            self.vals[(!l).index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = keep;
    }

    /// Unit propagation; returns a conflicting clause if one is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // take the watch list to satisfy the borrow checker
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let n = ws.len();
            let mut i = 0;
            let mut j = 0;
            let mut conflict: Option<ClauseRef> = None;
            'watches: while i < n {
                let w = ws[i];
                i += 1;
                // Blocker check: if the blocker is true the clause is satisfied.
                if self.vals[w.blocker.index()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Make sure the false literal is lits[1].
                let lits = self.ca.lits_mut(w.cref);
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                let first_value = self.vals[first.index()];
                let new_w = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                // (The blocker was not true, so neither is `first` when
                // the two are the same literal.)
                if first_value == LBool::True {
                    ws[j] = new_w;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = Lit(lits[k]);
                    if self.vals[lk.index()] != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).index()].push(new_w);
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = new_w;
                j += 1;
                if first_value == LBool::False {
                    // Conflict: copy the rest of the watchers back.
                    while i < n {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                    conflict = Some(w.cref);
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let a = self.ca.activity(cref) + self.cla_inc;
        self.ca.set_activity(cref, a);
        if a > 1e20 {
            for k in 0..self.ca.list.len() {
                let c = self.ca.list[k];
                if !self.ca.is_deleted(c) {
                    let scaled = self.ca.activity(c) * 1e-20;
                    self.ca.set_activity(c, scaled);
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis.
    ///
    /// Returns the learnt clause (asserting literal first) and the level
    /// to backtrack to. The clause is `learnt_buf`, taken; the caller
    /// hands it back once it has been attached.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for the asserting literal
        let mut counter = 0u32;
        let mut start = 0;
        let mut idx = self.trail.len();
        let conflict_level = self.decision_level();
        loop {
            if self.ca.is_learnt(confl) {
                self.bump_clause(confl);
            }
            for k in start..self.ca.len(confl) {
                let q = self.ca.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= conflict_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            // A reason clause's first literal is the one it implied.
            start = 1;
            confl = self.reason[pl.var().index()].expect("non-decision literal has a reason");
        }
        // Exactly the variables of learnt[1..] are still marked seen.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&learnt[1..]);
        // Conflict-clause minimization: drop literals implied by the rest.
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if !self.is_redundant(l) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for &l in &self.to_clear {
            self.seen[l.var().index()] = false;
        }
        // Find backtrack level: highest level among learnt[1..].
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt_level)
    }

    /// Local minimization: `l` is redundant if every literal of its reason
    /// clause is already in the learnt clause (seen) or at level 0.
    fn is_redundant(&self, l: Lit) -> bool {
        match self.reason[l.var().index()] {
            None => false,
            Some(cref) => self.ca.lits(cref)[1..].iter().all(|&q| {
                let v = Lit(q).var().index();
                self.seen[v] || self.level[v] == 0
            }),
        }
    }

    /// The number of distinct decision levels among `lits`.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.stamp += 1;
        let mut lbd = 0;
        for l in lits {
            let level = self.level[l.var().index()] as usize;
            if level >= self.level_stamp.len() {
                self.level_stamp.resize(level + 1, 0);
            }
            if self.level_stamp[level] != self.stamp {
                self.level_stamp[level] = self.stamp;
                lbd += 1;
            }
        }
        lbd
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.var_value(v.index()) == LBool::Undef {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Collect learnt, non-reason clauses, sort worst-first, delete half.
        let mut candidates: Vec<ClauseRef> = Vec::new();
        for &cref in &self.ca.list {
            if !self.ca.is_learnt(cref) || self.ca.is_deleted(cref) || self.ca.len(cref) <= 2 {
                continue;
            }
            let l0 = self.ca.lit(cref, 0);
            let locked =
                self.reason[l0.var().index()] == Some(cref) && self.lit_value(l0) == LBool::True;
            if !locked {
                candidates.push(cref);
            }
        }
        candidates.sort_by(|&a, &b| {
            self.ca.lbd(b).cmp(&self.ca.lbd(a)).then(
                self.ca
                    .activity(a)
                    .partial_cmp(&self.ca.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let n_delete = candidates.len() / 2;
        for &cref in candidates.iter().take(n_delete) {
            self.delete_clause(cref);
        }
        self.collect_garbage();
    }

    fn delete_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.ca.lit(cref, 0), self.ca.lit(cref, 1));
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
        self.ca.delete(cref);
        self.learnt_count -= 1;
    }

    /// Compacts the arena once deleted words pass half of it, moving
    /// every watcher and reason to its clause's new offset. Watch lists
    /// keep their order, so propagation visits clauses exactly as
    /// before. Called only where no watcher or reason names a deleted
    /// clause.
    fn collect_garbage(&mut self) {
        if !self.ca.needs_compaction() {
            return;
        }
        let old = self.ca.compact();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = ClauseArena::forward(&old, w.cref);
            }
        }
        for l in &self.trail {
            let r = &mut self.reason[l.var().index()];
            if let Some(c) = *r {
                *r = Some(ClauseArena::forward(&old, c));
            }
        }
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Abandons the current call: undoes all decisions so the solver
    /// stays reusable (learnt clauses are kept) and reports why.
    fn give_up(&mut self, reason: ResourceOut) -> SolveResult {
        self.cancel_until(0);
        self.stats.learnt_clauses = self.learnt_count as u64;
        SolveResult::Unknown(reason)
    }

    /// Whether the solver is already out of wall-clock resources —
    /// cancelled, or past its deadline — *before* any new work starts.
    /// Callers that do expensive encoding ahead of a solve (bit-blasting
    /// in `gila-smt`) probe this to skip the encoding entirely: the
    /// solve could only report the same `Unknown`.
    pub fn resources_exhausted(&self) -> Option<ResourceOut> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Some(ResourceOut::Cancelled);
            }
        }
        if let Some(deadline) = self.limits.deadline {
            if Instant::now() >= deadline {
                return Some(ResourceOut::Deadline);
            }
        }
        None
    }

    /// Conflicts spent by the current call so far.
    fn call_conflicts(&self) -> u64 {
        self.stats.conflicts - self.last_solve_mark.conflicts
    }

    /// The limit violated by this call's effort so far, if any.
    /// `check_clock` gates the (comparatively costly) deadline read.
    fn budget_exceeded(&self, check_clock: bool) -> Option<ResourceOut> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Some(ResourceOut::Cancelled);
            }
        }
        if let Some(max) = self.limits.conflicts {
            if self.call_conflicts() > max {
                return Some(ResourceOut::Conflicts);
            }
        }
        if let Some(max) = self.limits.propagations {
            if self.stats.propagations - self.last_solve_mark.propagations > max {
                return Some(ResourceOut::Propagations);
            }
        }
        if check_clock {
            if let Some(deadline) = self.limits.deadline {
                if Instant::now() >= deadline {
                    return Some(ResourceOut::Deadline);
                }
            }
        }
        None
    }

    /// Solves under the given assumption literals. The assumptions hold
    /// only for this call; learned clauses are kept for later calls.
    /// Only a `Sat` answer leaves a model behind.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = self.search(assumptions);
        if !result.is_sat() {
            self.model.clear();
        }
        result
    }

    fn search(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.last_solve_mark = self.stats;
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if let Some(out) = self.budget_exceeded(true) {
            return self.give_up(out);
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut luby_index = 0u64;
        let mut conflicts_until_restart = 64 * luby(luby_index);
        let mut conflicts_this_restart = 0u64;
        let mut iters = 0u64;
        loop {
            // Cooperative cancellation and budgets: cheap counter
            // comparisons every iteration; the wall clock only every 64
            // iterations so unbounded solving stays syscall-free.
            iters += 1;
            if let Some(out) = self.budget_exceeded(iters.is_multiple_of(64)) {
                return self.give_up(out);
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    // A level-0 conflict is a definitive Unsat; letting
                    // the budget pre-empt it would leave the falsified
                    // clause unexamined on later calls.
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                if let Some(max) = self.limits.conflicts {
                    if self.call_conflicts() > max {
                        return self.give_up(ResourceOut::Conflicts);
                    }
                }
                let (learnt, bt_level) = self.analyze(confl);
                // If the conflict is rooted entirely in assumption levels we
                // may still backtrack into them; re-deciding the assumptions
                // below detects genuine assumption failure.
                self.cancel_until(bt_level);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) != LBool::Undef {
                        // Asserting literal already decided (can only happen
                        // under conflicting assumptions).
                        return SolveResult::Unsat;
                    }
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_learnt(&learnt);
                    if self.lit_value(asserting) != LBool::Undef {
                        return SolveResult::Unsat;
                    }
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.learnt_buf = learnt;
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.learnt_count as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                if conflicts_this_restart >= conflicts_until_restart
                    && self.decision_level() > assumptions.len() as u32
                {
                    self.stats.restarts += 1;
                    luby_index += 1;
                    conflicts_until_restart = 64 * luby(luby_index);
                    conflicts_this_restart = 0;
                    self.cancel_until(assumptions.len() as u32);
                    continue;
                }
                // Decide the next assumption, if any remain.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => return SolveResult::Unsat,
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(p) => p,
                    None => match self.pick_branch() {
                        Some(p) => {
                            self.stats.decisions += 1;
                            p
                        }
                        None => {
                            self.model.clone_from(&self.vals);
                            self.stats.learnt_clauses = self.learnt_count as u64;
                            self.cancel_until(0);
                            return SolveResult::Sat;
                        }
                    },
                };
                self.new_decision_level();
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// Attaches a learnt clause of two or more literals with its LBD.
    fn attach_learnt(&mut self, learnt: &[Lit]) -> ClauseRef {
        let lbd = self.compute_lbd(learnt);
        let cref = self.attach_new_clause(learnt, true);
        self.ca.set_lbd(cref, lbd);
        cref
    }

    /// The value of `v` in the model of the most recent solve call.
    ///
    /// Returns `None` if that call did not answer `Sat` (so no model is
    /// available) or the variable was left unconstrained (callers may
    /// treat that as either polarity).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.lit_model_value(v.positive())
    }

    /// The value of a literal in the model of the most recent solve
    /// call; `None` as for [`Solver::value`].
    pub fn lit_model_value(&self, l: Lit) -> Option<bool> {
        self.model.get(l.index()).and_then(|b| b.to_bool())
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
// Pigeonhole encodings index a 2-D grid by (pigeon, hole); iterator
// rewrites obscure the encoding, so keep the index loops.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.lit_model_value(v[0]), Some(true));
        assert!(!s.add_clause([!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        for i in 0..4 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        s.add_clause([v[0]]);
        assert!(s.solve().is_sat());
        for l in &v {
            assert_eq!(s.lit_model_value(*l), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Lit(0); 2]; 3];
        for i in 0..3 {
            for j in 0..2 {
                p[i][j] = s.new_var().positive();
            }
        }
        for i in 0..3 {
            s.add_clause([p[i][0], p[i][1]]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause([!p[a][j], !p[b][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// `n` pigeons into `n - 1` holes is UNSAT and exponential for
    /// resolution: the solver's hard-instance calibration family.
    #[test]
    fn pigeonhole_6_to_8_unsat() {
        for n in 6..=8 {
            let mut s = Solver::new();
            let grid: Vec<Vec<Lit>> = (0..n).map(|_| lits(&mut s, n - 1)).collect();
            for row in &grid {
                s.add_clause(row.iter().copied());
            }
            for j in 0..n - 1 {
                for a in 0..n {
                    for b in (a + 1)..n {
                        s.add_clause([!grid[a][j], !grid[b][j]]);
                    }
                }
            }
            assert_eq!(s.solve(), SolveResult::Unsat, "{n} pigeons");
        }
    }

    #[test]
    fn assumptions_are_transient() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0], !v[1]]), SolveResult::Unsat);
        // The formula itself is still satisfiable.
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[!v[0]]).is_sat());
        assert_eq!(s.lit_model_value(v[1]), Some(true));
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert_eq!(s.solve_with_assumptions(&[v[0], !v[0]]), SolveResult::Unsat);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 = 1 -> x2 = 0, x3 = 1
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        xor(&mut s, v[0], v[1]);
        xor(&mut s, v[1], v[2]);
        s.add_clause([v[0]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.lit_model_value(v[1]), Some(false));
        assert_eq!(s.lit_model_value(v[2]), Some(true));
    }

    #[test]
    fn tautology_and_duplicates_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause([v[0], !v[0]]));
        assert!(s.add_clause([v[1], v[1], v[1]]));
        assert!(s.solve().is_sat());
        assert_eq!(s.lit_model_value(v[1]), Some(true));
    }

    #[test]
    fn php_4_into_3_unsat_exercises_learning() {
        let n = 4;
        let m = 3;
        let mut s = Solver::new();
        let mut p = vec![vec![Lit(0); m]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause([!p[a][j], !p[b][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn last_solve_stats_is_per_call_delta() {
        // A pigeonhole solve racks up conflicts; a trivial follow-up
        // solve must report only its own (near-zero) effort.
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let mut p = vec![vec![Lit(0); m]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause([!p[a][j], !p[b][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let first = s.last_solve_stats();
        assert!(first.conflicts > 0);
        assert_eq!(first.conflicts, s.stats().conflicts);

        let mut t = Solver::new();
        let a = t.new_var().positive();
        t.add_clause([a]);
        assert!(t.solve().is_sat());
        assert!(t.solve_with_assumptions(&[a]).is_sat());
        assert_eq!(t.last_solve_stats().conflicts, 0);
        assert_eq!(t.last_solve_stats().decisions, 0);
    }

    #[test]
    fn incremental_add_solve_add_solve() {
        // Clauses added after a solve must be respected, and learned
        // clauses from earlier solves must not corrupt later ones.
        let mut s = Solver::new();
        let v: Vec<Lit> = (0..6).map(|_| s.new_var().positive()).collect();
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        assert!(s.solve().is_sat());
        s.add_clause([!v[2]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.lit_model_value(v[2]), Some(false));
        assert_eq!(s.lit_model_value(v[0]), Some(false));
        assert_eq!(s.lit_model_value(v[1]), Some(true));
        s.add_clause([!v[1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once UNSAT, the solver stays UNSAT.
        assert!(!s.add_clause([v[3]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_after_learning() {
        // Force learning with a pigeonhole core, then reuse the solver
        // under assumptions on fresh variables.
        let mut s = Solver::new();
        let mut grid = Vec::new();
        for _ in 0..4 {
            let row: Vec<Lit> = (0..3).map(|_| s.new_var().positive()).collect();
            grid.push(row);
        }
        let sel = s.new_var().positive();
        // The PHP clauses are guarded by `sel` so the formula is SAT
        // overall but UNSAT under the assumption `sel`.
        for row in &grid {
            let mut c = row.clone();
            c.push(!sel);
            s.add_clause(c);
        }
        for j in 0..3 {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    s.add_clause([!grid[a][j], !grid[b][j], !sel]);
                }
            }
        }
        assert!(s.solve().is_sat());
        assert_eq!(s.solve_with_assumptions(&[sel]), SolveResult::Unsat);
        // Still SAT without the assumption afterwards.
        assert!(s.solve_with_assumptions(&[!sel]).is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn random_instances_with_assumptions_agree_with_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA55);
        for _ in 0..60 {
            let n_vars = rng.gen_range(4..=7usize);
            let n_clauses = rng.gen_range(4..=24usize);
            let clauses: Vec<Vec<(usize, bool)>> = (0..n_clauses)
                .map(|_| {
                    (0..rng.gen_range(1..=3usize))
                        .map(|_| (rng.gen_range(0..n_vars), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let n_assume = rng.gen_range(0..=2usize);
            let assumptions: Vec<(usize, bool)> = (0..n_assume)
                .map(|_| (rng.gen_range(0..n_vars), rng.gen_bool(0.5)))
                .collect();
            // Brute force under the assumptions.
            let mut brute = false;
            'outer: for m in 0u32..(1 << n_vars) {
                for &(v, pos) in &assumptions {
                    if ((m >> v) & 1 == 1) != pos {
                        continue 'outer;
                    }
                }
                for c in &clauses {
                    if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute = true;
                break;
            }
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
            let mut ok = true;
            for c in &clauses {
                ok &= s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vars[v], pos)));
            }
            let lits: Vec<Lit> = assumptions
                .iter()
                .map(|&(v, pos)| Lit::new(vars[v], pos))
                .collect();
            let got = ok && s.solve_with_assumptions(&lits).is_sat();
            assert_eq!(got, brute, "clauses {clauses:?} assumptions {assumptions:?}");
        }
    }

    /// A guarded pigeonhole core: UNSAT under `sel`, SAT without it.
    /// Returns the solver and the selector literal.
    fn guarded_php(n: usize, m: usize) -> (Solver, Lit) {
        let mut s = Solver::new();
        let mut grid = Vec::new();
        for _ in 0..n {
            let row: Vec<Lit> = (0..m).map(|_| s.new_var().positive()).collect();
            grid.push(row);
        }
        let sel = s.new_var().positive();
        for row in &grid {
            let mut c = row.clone();
            c.push(!sel);
            s.add_clause(c);
        }
        for j in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause([!grid[a][j], !grid[b][j], !sel]);
                }
            }
        }
        (s, sel)
    }

    #[test]
    fn conflict_budget_returns_unknown_and_solver_stays_usable() {
        let (mut s, sel) = guarded_php(6, 5);
        s.set_limits(SolveLimits {
            conflicts: Some(2),
            ..Default::default()
        });
        let r = s.solve_with_assumptions(&[sel]);
        assert_eq!(r, SolveResult::Unknown(ResourceOut::Conflicts));
        // Unknown implies the limit actually fired.
        assert!(s.last_solve_stats().conflicts > 2);
        // Removing the limit converges to the real verdict, and the
        // solver was not poisoned by the aborted call.
        s.set_limits(SolveLimits::default());
        assert_eq!(s.solve_with_assumptions(&[sel]), SolveResult::Unsat);
        assert!(s.solve_with_assumptions(&[!sel]).is_sat());
    }

    #[test]
    fn propagation_budget_returns_unknown() {
        let (mut s, sel) = guarded_php(6, 5);
        s.set_limits(SolveLimits {
            propagations: Some(1),
            ..Default::default()
        });
        let r = s.solve_with_assumptions(&[sel]);
        assert_eq!(r, SolveResult::Unknown(ResourceOut::Propagations));
        assert!(s.last_solve_stats().propagations > 1);
    }

    #[test]
    fn expired_deadline_returns_unknown_before_searching() {
        let (mut s, sel) = guarded_php(4, 3);
        s.set_limits(SolveLimits {
            deadline: Some(Instant::now()),
            ..Default::default()
        });
        assert_eq!(
            s.solve_with_assumptions(&[sel]),
            SolveResult::Unknown(ResourceOut::Deadline)
        );
        // No search effort was spent.
        assert_eq!(s.last_solve_stats().conflicts, 0);
        assert_eq!(s.last_solve_stats().decisions, 0);
    }

    #[test]
    fn cancel_token_aborts_and_reset_recovers() {
        let (mut s, sel) = guarded_php(4, 3);
        let tok = CancelToken::new();
        s.set_cancel(tok.clone());
        tok.cancel();
        assert_eq!(
            s.solve_with_assumptions(&[sel]),
            SolveResult::Unknown(ResourceOut::Cancelled)
        );
        tok.reset();
        assert_eq!(s.solve_with_assumptions(&[sel]), SolveResult::Unsat);
    }

    #[test]
    fn child_token_cancels_downward_only() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "a child must not cancel its parent");
        child.reset();
        parent.cancel();
        assert!(child.is_cancelled(), "a cancelled parent cancels its child");
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.set_cancel(parent.child());
        assert_eq!(s.solve(), SolveResult::Unknown(ResourceOut::Cancelled));
    }

    #[test]
    fn generous_budget_never_reports_unknown() {
        // The budget-semantics property: limits that are never hit do
        // not change verdicts.
        let (mut s, sel) = guarded_php(5, 4);
        s.set_limits(SolveLimits {
            conflicts: Some(u64::MAX),
            propagations: Some(u64::MAX),
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
        });
        assert_eq!(s.solve_with_assumptions(&[sel]), SolveResult::Unsat);
        assert!(s.solve_with_assumptions(&[!sel]).is_sat());
    }

    #[test]
    fn zero_conflict_budget_is_sound_under_failing_assumptions() {
        // Budget 0 turns the first conflict into Unknown; the aborted
        // call must leave the solver able to find the real model.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], !v[1]]);
        s.add_clause([!v[0], v[1]]);
        s.set_limits(SolveLimits {
            conflicts: Some(0),
            ..Default::default()
        });
        let r = s.solve_with_assumptions(&[!v[0]]);
        assert_eq!(r, SolveResult::Unknown(ResourceOut::Conflicts));
        s.set_limits(SolveLimits::default());
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SolveResult::Unsat);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[0].var()), Some(true));
    }

    #[test]
    fn model_is_cleared_by_every_answer_but_sat() {
        let (mut s, sel) = guarded_php(4, 3);
        assert!(s.solve_with_assumptions(&[!sel]).is_sat());
        assert_eq!(s.lit_model_value(sel), Some(false));
        assert_eq!(s.solve_with_assumptions(&[sel]), SolveResult::Unsat);
        assert_eq!(s.value(sel.var()), None);
        assert_eq!(s.lit_model_value(sel), None);

        let (mut t, sel) = guarded_php(5, 4);
        assert!(t.solve_with_assumptions(&[!sel]).is_sat());
        assert_eq!(t.value(sel.var()), Some(false));
        t.set_limits(SolveLimits {
            conflicts: Some(0),
            ..Default::default()
        });
        assert!(t.solve_with_assumptions(&[sel]).is_unknown());
        assert_eq!(t.value(sel.var()), None);
    }

    /// `n` random 3-literal clauses over `vars` (distinct variables per
    /// clause).
    fn random_3cnf(s: &mut Solver, vars: &[Var], n: usize, seed: u64) -> Vec<Vec<Lit>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut clauses = Vec::new();
        while clauses.len() < n {
            let mut c: Vec<Lit> = Vec::new();
            while c.len() < 3 {
                let v = vars[rng.gen_range(0..vars.len())];
                if c.iter().all(|l| l.var() != v) {
                    c.push(Lit::new(v, rng.gen_bool(0.5)));
                }
            }
            s.add_clause(c.iter().copied());
            clauses.push(c);
        }
        clauses
    }

    #[test]
    fn peak_clauses_counts_live_clauses_only() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..40).map(|_| s.new_var()).collect();
        random_3cnf(&mut s, &vars, 10, 7);
        let learn = |s: &mut Solver, n: usize, from: usize| {
            for k in from..from + n {
                let c = [0, 13, 27].map(|o| Lit::new(vars[(k + o) % vars.len()], k % 2 == 0));
                let cref = s.attach_new_clause(&c, true);
                s.ca.set_lbd(cref, 3);
            }
        };
        learn(&mut s, 20, 0);
        assert_eq!((s.num_clauses(), s.stats().peak_clauses), (30, 30));
        s.reduce_db();
        assert_eq!((s.num_clauses(), s.stats().peak_clauses), (20, 30));
        learn(&mut s, 5, 20);
        assert_eq!((s.num_clauses(), s.stats().peak_clauses), (25, 30));
        learn(&mut s, 15, 25);
        assert_eq!((s.num_clauses(), s.stats().peak_clauses), (40, 40));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn arena_stays_within_twice_its_live_words_across_reductions() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..150).map(|_| s.new_var()).collect();
        let clauses = random_3cnf(&mut s, &vars, 640, 0xA7E4A);
        // A tiny learnt limit makes the search reduce the database every
        // few dozen conflicts.
        s.max_learnts = 60.0;
        s.set_limits(SolveLimits {
            conflicts: Some(150),
            ..Default::default()
        });
        let mut compactions = 0;
        let mut result = SolveResult::Unknown(ResourceOut::Conflicts);
        for _ in 0..200 {
            let words_before = s.ca.words.len();
            result = s.solve();
            assert!(
                s.ca.words.len() <= 2 * s.ca.live_words(),
                "arena {} words, {} live",
                s.ca.words.len(),
                s.ca.live_words()
            );
            compactions += (s.ca.words.len() < words_before) as usize;
            if !result.is_unknown() {
                break;
            }
        }
        assert!(compactions >= 3, "only {compactions} compactions");
        assert!(s.max_learnts > 60.0 * 1.3 * 1.3 * 1.3, "too few reductions");
        let mut fresh = Solver::new();
        let fresh_vars: Vec<Var> = (0..150).map(|_| fresh.new_var()).collect();
        random_3cnf(&mut fresh, &fresh_vars, 640, 0xA7E4A);
        assert_eq!(
            result,
            fresh.solve(),
            "verdict differs from a solver with the default learnt limit"
        );
        match result {
            SolveResult::Sat => {
                for c in &clauses {
                    assert!(c.iter().any(|&l| s.lit_model_value(l) == Some(true)));
                }
            }
            SolveResult::Unsat => {}
            SolveResult::Unknown(_) => panic!("no verdict after 200 budgeted calls"),
        }
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..120 {
            let n_vars = rng.gen_range(3..=8usize);
            let n_clauses = rng.gen_range(3..=30usize);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..n_clauses {
                let len = rng.gen_range(1..=3usize);
                let c: Vec<(usize, bool)> = (0..len)
                    .map(|_| (rng.gen_range(0..n_vars), rng.gen_bool(0.5)))
                    .collect();
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << n_vars) {
                for c in &clauses {
                    if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
            let mut ok = true;
            for c in &clauses {
                ok &= s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vars[v], pos)));
            }
            let sat = ok && s.solve().is_sat();
            assert_eq!(sat, brute_sat, "clauses: {clauses:?}");
            if sat {
                // Every variable is decided in a model; verify each clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, pos)| s.value(vars[v]).unwrap() == pos),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }
}
