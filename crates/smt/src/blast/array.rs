//! Word-level memories: symbolic array terms, reads resolved through
//! their structure, and array lemmas added on demand.
//!
//! A memory blasts to a handle into [`Arrays`], never to its words. A
//! read `read(A, i)` is resolved at blast time through `A`'s structure
//! (write → address compare and mux, `ite` → mux, constant → mux over
//! its written entries) down to one fresh word per read of a memory
//! variable. Memory (dis)equality uses one fresh witness index `k`:
//! `A == B` blasts to `read(A, k) == read(B, k)`, so a false literal
//! means the memories differ at `k`. Everything the encoding leaves
//! out — read congruence on memory variables and equality at indices
//! other than `k` — is checked against each SAT model and added as
//! permanent clauses only where the model violates it (lemmas on
//! demand, after Brummayer & Biere, TACAS 2009).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use gila_expr::{BitVecValue, MemValue};
use gila_sat::Lit;

use super::SmtSolver;

/// Handle of a memory term in [`Arrays::terms`].
pub(super) type MemId = usize;

/// Handle of an index (an address literal vector) in [`Arrays::indices`].
type IndexId = usize;

#[derive(Clone, Debug)]
enum MemKind {
    /// A memory variable: only its reads are known, each a fresh word.
    Base,
    /// A constant memory.
    Const(MemValue),
    /// `mem` with `data` stored at index `addr`.
    Write {
        mem: MemId,
        addr: IndexId,
        data: Vec<Lit>,
    },
    /// `cond ? then : els`.
    Ite { cond: Lit, then: MemId, els: MemId },
}

#[derive(Clone, Debug)]
struct MemTerm {
    addr_width: u32,
    data_width: u32,
    kind: MemKind,
}

/// A blasted memory equality: `lit` is `read(a, k) == read(b, k)` for
/// its witness `k`; the lemma loop makes a true `lit` mean `a == b`.
#[derive(Clone, Copy, Debug)]
struct MemEq {
    lit: Lit,
    a: MemId,
    b: MemId,
}

/// The array part of an [`SmtSolver`].
#[derive(Debug, Default)]
pub(super) struct Arrays {
    terms: Vec<MemTerm>,
    /// Interned address literal vectors: read indices, write addresses,
    /// witnesses and constant addresses.
    indices: Vec<Vec<Lit>>,
    index_ids: HashMap<Vec<Lit>, IndexId>,
    /// Word of `read(mem, index)`, memoized so every term reading the
    /// same memory at the same index shares one word.
    reads: HashMap<(MemId, IndexId), Vec<Lit>>,
    /// Reads of memory variables, in creation order.
    base_reads: Vec<(MemId, IndexId)>,
    /// Memoized `index == index` literals (the address decoders).
    index_eqs: HashMap<(IndexId, IndexId), Lit>,
    eqs: Vec<MemEq>,
    /// Equality lemmas added so far, as (position in `eqs`, index).
    eq_lemmas: HashSet<(usize, IndexId)>,
    /// Value of every memory variable in the last array-consistent model.
    model: HashMap<MemId, MemValue>,
}

/// A memory cell at one index value in a model: a known word, or the
/// unread (still free) cell of a memory variable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Cell {
    Known(BitVecValue),
    Free(MemId),
}

/// Union-find over the cells of one index value.
#[derive(Default)]
struct CellClasses {
    ids: HashMap<Cell, usize>,
    cells: Vec<Cell>,
    parent: Vec<usize>,
}

impl CellClasses {
    fn node(&mut self, c: Cell) -> usize {
        if let Some(&i) = self.ids.get(&c) {
            return i;
        }
        let i = self.cells.len();
        self.ids.insert(c.clone(), i);
        self.cells.push(c);
        self.parent.push(i);
        i
    }

    fn root(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: Cell, b: Cell) -> usize {
        let (a, b) = (self.node(a), self.node(b));
        let (ra, rb) = (self.root(a), self.root(b));
        self.parent[rb] = ra;
        ra
    }
}

impl SmtSolver {
    fn new_mem(&mut self, addr_width: u32, data_width: u32, kind: MemKind) -> MemId {
        self.arrays.terms.push(MemTerm {
            addr_width,
            data_width,
            kind,
        });
        self.arrays.terms.len() - 1
    }

    pub(super) fn mem_var(&mut self, addr_width: u32, data_width: u32) -> MemId {
        self.new_mem(addr_width, data_width, MemKind::Base)
    }

    pub(super) fn mem_const(&mut self, value: &MemValue) -> MemId {
        let (aw, dw) = (value.addr_width(), value.data_width());
        self.new_mem(aw, dw, MemKind::Const(value.clone()))
    }

    pub(super) fn mem_write(&mut self, mem: MemId, addr: Vec<Lit>, data: Vec<Lit>) -> MemId {
        let addr = self.intern_index(addr);
        let t = &self.arrays.terms[mem];
        let (aw, dw) = (t.addr_width, t.data_width);
        self.new_mem(aw, dw, MemKind::Write { mem, addr, data })
    }

    pub(super) fn mem_ite(&mut self, cond: Lit, then: MemId, els: MemId) -> MemId {
        match self.const_of(cond) {
            Some(true) => return then,
            Some(false) => return els,
            None if then == els => return then,
            None => {}
        }
        let t = &self.arrays.terms[then];
        let (aw, dw) = (t.addr_width, t.data_width);
        self.new_mem(aw, dw, MemKind::Ite { cond, then, els })
    }

    pub(super) fn mem_read(&mut self, mem: MemId, addr: Vec<Lit>) -> Vec<Lit> {
        let idx = self.intern_index(addr);
        self.read_at(mem, idx)
    }

    /// `a == b`: equal reads at one fresh witness index. A false literal
    /// is a real disequality; a true one is completed by the lemma loop.
    pub(super) fn mem_eq(&mut self, a: MemId, b: MemId) -> Lit {
        if a == b {
            return self.tt();
        }
        let aw = self.arrays.terms[a].addr_width;
        let witness: Vec<Lit> = (0..aw).map(|_| self.fresh()).collect();
        let k = self.intern_index(witness);
        let wa = self.read_at(a, k);
        let wb = self.read_at(b, k);
        let lit = self.eq_bv(&wa, &wb);
        if self.const_of(lit).is_none() {
            self.arrays.eqs.push(MemEq { lit, a, b });
        }
        lit
    }

    fn intern_index(&mut self, bits: Vec<Lit>) -> IndexId {
        if let Some(&i) = self.arrays.index_ids.get(&bits) {
            return i;
        }
        let i = self.arrays.indices.len();
        self.arrays.index_ids.insert(bits.clone(), i);
        self.arrays.indices.push(bits);
        i
    }

    fn index_eq(&mut self, i: IndexId, j: IndexId) -> Lit {
        if i == j {
            return self.tt();
        }
        let key = (i.min(j), i.max(j));
        if let Some(&l) = self.arrays.index_eqs.get(&key) {
            return l;
        }
        let (a, b) = (
            self.arrays.indices[i].clone(),
            self.arrays.indices[j].clone(),
        );
        let l = self.eq_bv(&a, &b);
        self.arrays.index_eqs.insert(key, l);
        l
    }

    /// The word `read(mem, idx)`, resolving through writes and `ite`s
    /// down to memory variables and constants. Iterative, so long write
    /// chains cannot overflow the stack.
    fn read_at(&mut self, mem: MemId, idx: IndexId) -> Vec<Lit> {
        let mut stack = vec![mem];
        while let Some(&m) = stack.last() {
            if self.arrays.reads.contains_key(&(m, idx)) {
                stack.pop();
                continue;
            }
            let word = match self.arrays.terms[m].kind.clone() {
                MemKind::Base => {
                    let dw = self.arrays.terms[m].data_width;
                    self.arrays.base_reads.push((m, idx));
                    (0..dw).map(|_| self.fresh()).collect()
                }
                MemKind::Const(value) => self.const_read(&value, idx),
                MemKind::Write { mem, addr, data } => {
                    let hit = self.index_eq(idx, addr);
                    if self.const_of(hit) == Some(true) {
                        data
                    } else if let Some(old) = self.arrays.reads.get(&(mem, idx)) {
                        let old = old.clone();
                        self.mux_bv(hit, &data, &old)
                    } else {
                        stack.push(mem);
                        continue;
                    }
                }
                MemKind::Ite { cond, then, els } => {
                    let t = self.arrays.reads.get(&(then, idx)).cloned();
                    let e = self.arrays.reads.get(&(els, idx)).cloned();
                    match (t, e) {
                        (Some(t), Some(e)) => self.mux_bv(cond, &t, &e),
                        (t, e) => {
                            if t.is_none() {
                                stack.push(then);
                            }
                            if e.is_none() {
                                stack.push(els);
                            }
                            continue;
                        }
                    }
                }
            };
            self.arrays.reads.insert((m, idx), word);
            stack.pop();
        }
        self.arrays.reads[&(mem, idx)].clone()
    }

    /// A read of a constant memory: a mux over its written entries,
    /// falling back to its default word.
    fn const_read(&mut self, value: &MemValue, idx: IndexId) -> Vec<Lit> {
        let aw = value.addr_width();
        let mut word = self.bv_const_bits(value.default_word());
        for (addr, data) in value.iter_written() {
            let bits = self.bv_const_bits(&BitVecValue::from_u64(addr, aw));
            let at = self.intern_index(bits);
            let hit = self.index_eq(idx, at);
            let data = self.bv_const_bits(data);
            word = self.mux_bv(hit, &data, &word);
        }
        word
    }

    /// Clauses for `cond → a == b`, bit by bit, with no new variables.
    fn add_implied_eq(&mut self, cond: Lit, a: &[Lit], b: &[Lit]) {
        for (&x, &y) in a.iter().zip(b) {
            if x != y {
                self.add_clause(vec![!cond, !x, y]);
                self.add_clause(vec![!cond, x, !y]);
            }
        }
    }

    fn model_bit(&self, l: Lit) -> bool {
        self.solver.lit_model_value(l).unwrap_or(false)
    }

    fn model_word(&self, bits: &[Lit]) -> BitVecValue {
        let bools: Vec<bool> = bits.iter().map(|&l| self.model_bit(l)).collect();
        BitVecValue::from_bits(&bools)
    }

    /// Checks the current SAT model against the theory of arrays. Adds
    /// the violated lemmas and returns `true`, or records the model's
    /// memory values and returns `false` when it is consistent.
    pub(super) fn add_array_lemmas(&mut self) -> bool {
        self.arrays.model.clear();
        if self.arrays.terms.is_empty() {
            return false;
        }
        let index_values: Vec<BitVecValue> = self
            .arrays
            .indices
            .iter()
            .map(|bits| self.model_word(bits))
            .collect();

        // Read congruence: two reads of one memory variable at equal
        // index values must return equal words.
        let mut cells: HashMap<(MemId, BitVecValue), (IndexId, BitVecValue)> = HashMap::new();
        let mut clashes = Vec::new();
        for &(m, i) in &self.arrays.base_reads {
            let word = self.model_word(&self.arrays.reads[&(m, i)]);
            match cells.entry((m, index_values[i].clone())) {
                Entry::Vacant(slot) => {
                    slot.insert((i, word));
                }
                Entry::Occupied(seen) => {
                    if seen.get().1 != word {
                        clashes.push((m, seen.get().0, i));
                    }
                }
            }
        }
        if !clashes.is_empty() {
            for (m, i, j) in clashes {
                let same = self.index_eq(i, j);
                let wi = self.arrays.reads[&(m, i)].clone();
                let wj = self.arrays.reads[&(m, j)].clone();
                self.add_implied_eq(same, &wi, &wj);
            }
            return true;
        }
        let cells: HashMap<(MemId, BitVecValue), BitVecValue> =
            cells.into_iter().map(|(k, (_, w))| (k, w)).collect();
        let (violations, model) = self.check_equalities(&index_values, &cells);
        if violations.is_empty() {
            self.arrays.model = model;
            return false;
        }

        // Instantiate each violated equality at an existing index with
        // the violating value (the first by creation order), or at the
        // constant address when no index has that value.
        let mut by_value: BTreeMap<&BitVecValue, IndexId> = BTreeMap::new();
        for (i, v) in index_values.iter().enumerate() {
            by_value.entry(v).or_insert(i);
        }
        let picks: Vec<(usize, Result<IndexId, BitVecValue>)> = violations
            .into_iter()
            .map(|(q, v)| (q, by_value.get(&v).copied().ok_or(v)))
            .collect();
        let mut added = false;
        for (q, pick) in picks {
            let idx = match pick {
                Ok(i) => i,
                Err(v) => {
                    let bits = self.bv_const_bits(&v);
                    self.intern_index(bits)
                }
            };
            if self.arrays.eq_lemmas.insert((q, idx)) {
                let MemEq { lit, a, b } = self.arrays.eqs[q];
                let wa = self.read_at(a, idx);
                let wb = self.read_at(b, idx);
                self.add_implied_eq(lit, &wa, &wb);
                added = true;
            }
        }
        assert!(added, "array refinement made no progress");
        true
    }

    /// Checks every memory equality that is true in the model at every
    /// relevant index value. Returns the violations as (position in
    /// `eqs`, index value) pairs, and — when there are none — a value
    /// for every memory variable that satisfies all of them.
    ///
    /// Relevant values are those of the memory variables' read indices,
    /// the write addresses and the constants' written addresses, plus
    /// one value outside that set standing for all the others: there
    /// every write misses, every constant reads its default and every
    /// variable cell is unread, so one representative decides them all.
    fn check_equalities(
        &self,
        index_values: &[BitVecValue],
        cells: &HashMap<(MemId, BitVecValue), BitVecValue>,
    ) -> (Vec<(usize, BitVecValue)>, HashMap<MemId, MemValue>) {
        let arrays = &self.arrays;
        let widths: BTreeSet<u32> = arrays.terms.iter().map(|t| t.addr_width).collect();
        let mut violations = Vec::new();
        let mut model = HashMap::new();
        for aw in widths {
            let mut points: BTreeSet<BitVecValue> = BTreeSet::new();
            for t in arrays.terms.iter().filter(|t| t.addr_width == aw) {
                match &t.kind {
                    MemKind::Write { addr, .. } => {
                        points.insert(index_values[*addr].clone());
                    }
                    MemKind::Const(v) => {
                        points.extend(v.iter_written().map(|(a, _)| BitVecValue::from_u64(a, aw)));
                    }
                    MemKind::Base | MemKind::Ite { .. } => {}
                }
            }
            for &(m, i) in &arrays.base_reads {
                if arrays.terms[m].addr_width == aw {
                    points.insert(index_values[i].clone());
                }
            }
            let rep = (0u64..)
                .take_while(|&x| aw >= 64 || x < 1u64 << aw)
                .map(|x| BitVecValue::from_u64(x, aw))
                .find(|v| !points.contains(v));
            let eqs: Vec<usize> = (0..arrays.eqs.len())
                .filter(|&q| {
                    let e = arrays.eqs[q];
                    arrays.terms[e.a].addr_width == aw && self.model_bit(e.lit)
                })
                .collect();

            // Values chosen for unread variable cells, per index value.
            let mut chosen: HashMap<(MemId, BitVecValue), BitVecValue> = HashMap::new();
            for v in points.iter().chain(rep.as_ref()) {
                if eqs.is_empty() {
                    break;
                }
                let mut classes = CellClasses::default();
                let mut edges = Vec::with_capacity(eqs.len());
                for &q in &eqs {
                    let e = arrays.eqs[q];
                    let ca = self.resolve_cell(e.a, v, index_values, cells);
                    let cb = self.resolve_cell(e.b, v, index_values, cells);
                    edges.push((q, classes.union(ca, cb)));
                }
                let mut class_word: HashMap<usize, BitVecValue> = HashMap::new();
                let mut clashing: HashSet<usize> = HashSet::new();
                for n in 0..classes.cells.len() {
                    if let Cell::Known(w) = classes.cells[n].clone() {
                        let r = classes.root(n);
                        match class_word.entry(r) {
                            Entry::Vacant(slot) => {
                                slot.insert(w);
                            }
                            Entry::Occupied(seen) => {
                                if *seen.get() != w {
                                    clashing.insert(r);
                                }
                            }
                        }
                    }
                }
                if !clashing.is_empty() {
                    for (q, r) in edges {
                        if clashing.contains(&classes.root(r)) {
                            violations.push((q, v.clone()));
                        }
                    }
                    continue;
                }
                for n in 0..classes.cells.len() {
                    if let Cell::Free(m) = classes.cells[n] {
                        let r = classes.root(n);
                        let word = class_word
                            .get(&r)
                            .cloned()
                            .unwrap_or_else(|| BitVecValue::zero(arrays.terms[m].data_width));
                        chosen.insert((m, v.clone()), word);
                    }
                }
            }
            // `MemValue` holds address widths 1..=32 only.
            if !violations.is_empty() || aw == 0 || aw > 32 {
                continue;
            }
            for (m, t) in arrays.terms.iter().enumerate() {
                if t.addr_width != aw || !matches!(t.kind, MemKind::Base) {
                    continue;
                }
                let word_at = |v: &BitVecValue| {
                    let key = (m, v.clone());
                    cells.get(&key).or_else(|| chosen.get(&key)).cloned()
                };
                let default = rep
                    .as_ref()
                    .and_then(word_at)
                    .unwrap_or_else(|| BitVecValue::zero(t.data_width));
                let mut value = MemValue::filled(aw, t.data_width, default.clone());
                for v in &points {
                    if let Some(w) = word_at(v) {
                        if w != default {
                            value = value.write(v, &w);
                        }
                    }
                }
                model.insert(m, value);
            }
        }
        (violations, model)
    }

    /// The cell `mem` holds at index value `v` in the current model.
    fn resolve_cell(
        &self,
        mut mem: MemId,
        v: &BitVecValue,
        index_values: &[BitVecValue],
        cells: &HashMap<(MemId, BitVecValue), BitVecValue>,
    ) -> Cell {
        loop {
            match &self.arrays.terms[mem].kind {
                MemKind::Base => {
                    return match cells.get(&(mem, v.clone())) {
                        Some(w) => Cell::Known(w.clone()),
                        None => Cell::Free(mem),
                    }
                }
                MemKind::Const(c) => return Cell::Known(c.read(v)),
                MemKind::Write {
                    mem: inner,
                    addr,
                    data,
                } => {
                    if index_values[*addr] == *v {
                        return Cell::Known(self.model_word(data));
                    }
                    mem = *inner;
                }
                MemKind::Ite { cond, then, els } => {
                    mem = if self.model_bit(*cond) { *then } else { *els };
                }
            }
        }
    }

    /// The value of memory term `mem` in the last array-consistent model.
    pub(super) fn mem_model_value(&self, mut mem: MemId) -> MemValue {
        let mut writes = Vec::new();
        let mut value = loop {
            let t = &self.arrays.terms[mem];
            match &t.kind {
                MemKind::Base => {
                    break self
                        .arrays
                        .model
                        .get(&mem)
                        .cloned()
                        .unwrap_or_else(|| MemValue::zeroed(t.addr_width, t.data_width))
                }
                MemKind::Const(c) => break c.clone(),
                MemKind::Write {
                    mem: inner,
                    addr,
                    data,
                } => {
                    writes.push((*addr, data));
                    mem = *inner;
                }
                MemKind::Ite { cond, then, els } => {
                    mem = if self.model_bit(*cond) { *then } else { *els };
                }
            }
        };
        for (addr, data) in writes.into_iter().rev() {
            let a = self.model_word(&self.arrays.indices[addr]);
            value = value.write(&a, &self.model_word(data));
        }
        value
    }
}
