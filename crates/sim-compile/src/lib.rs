//! # gila-sim-compile — compiled simulation backend
//!
//! The interpreting simulators ([`gila_core::PortSimulator`],
//! [`gila_rtl::RtlSimulator`]) re-walk the expression DAG with a fresh
//! post-order vector and `HashMap` memo on every evaluation — fine for a
//! few hundred cycles, hopeless for mass randomized bug hunting. This
//! crate compiles a model's next-state functions *once* into a
//! [`TapeProgram`] (a levelized, bit-packed straight-line tape over a
//! dense register file, see `gila_expr::lower`) and then steps it in a
//! tight loop: no per-cycle DAG walks, no hashing, no allocation on the
//! word path.
//!
//! Both simulator families lower to the *same* tape format:
//!
//! - [`CompiledPortSim`] — an ILA port: all decode conditions and all
//!   next-state functions of every instruction become tape roots; a step
//!   is one tape run plus a handful of register copies.
//! - [`CompiledRtlSim`] — an RTL module: all register/memory next-state
//!   expressions plus any requested output signals become tape roots; a
//!   step is one tape run plus a non-blocking commit.
//!
//! Because the two sides share the format, ILA-vs-RTL co-simulation
//! (`gila_verify::cosimulate_compiled`) becomes lockstep tape execution.
//!
//! The compiled simulators mirror the interpreters' observable semantics
//! exactly — same fired instructions, same committed states, same error
//! cases — and are differentially tested against them on every bundled
//! case study (`tests/compiled_sim.rs`).

#![warn(missing_docs)]

use std::collections::BTreeMap;

use gila_core::{PortIla, SimError, StateMap};
use gila_expr::{BitVecValue, MemValue, Slot, Sort, TapeProgram, TapeState, Value};
use gila_rtl::{RtlInputMap, RtlModule, RtlSimError};

/// The outcome of resolving which instruction fired in a tape run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fired {
    /// Exactly one instruction decoded: its index in
    /// [`PortIla::instructions`] order.
    One(usize),
    /// No decode condition held.
    None,
    /// More than one decode condition held.
    Multiple,
}

/// Decides per commit root whether its value may be *moved* into the
/// state register instead of cloned: the root must be a computed memory
/// slot (re-written by every covering run before any read), must appear
/// only once among this commit's roots, and must not be a slot read
/// outside the commit (`excluded`, e.g. compiled output signals).
fn movable_roots(prog: &TapeProgram, roots: &[Slot], excluded: &[Slot]) -> Vec<bool> {
    roots
        .iter()
        .map(|&r| {
            matches!(prog.slot_sort(r), Sort::Mem { .. })
                && prog.slot_is_computed(r)
                && roots.iter().filter(|&&x| x == r).count() == 1
                && !excluded.contains(&r)
        })
        .collect()
}

/// A commit sorted by register bank, so the hot path (word registers)
/// is one two-phase bulk copy and memory registers swap when liveness
/// allows. All pairs are `(update root, state register)`.
#[derive(Clone, Debug, Default)]
struct CommitPlan {
    words: Vec<(Slot, Slot)>,
    wides: Vec<(Slot, Slot)>,
    /// `(root, state, movable)` — movable roots swap instead of clone.
    mems: Vec<(Slot, Slot, bool)>,
}

/// Reusable scratch for [`CommitPlan::run`] — kept across commits so the
/// steady state allocates nothing.
#[derive(Clone, Debug, Default)]
struct CommitBufs {
    words: Vec<u64>,
    wides: Vec<BitVecValue>,
    mems: Vec<MemValue>,
}

impl CommitPlan {
    /// Sorts `(root, state)` pairs by bank. `excluded` slots are never
    /// moved (they are read outside the commit, e.g. output signals).
    fn new(prog: &TapeProgram, pairs: &[(Slot, Slot)], excluded: &[Slot]) -> Self {
        let roots: Vec<Slot> = pairs.iter().map(|&(r, _)| r).collect();
        let movable = movable_roots(prog, &roots, excluded);
        let mut plan = CommitPlan::default();
        for (&(root, state), &mv) in pairs.iter().zip(&movable) {
            if root.is_word() {
                plan.words.push((root, state));
            } else {
                match prog.slot_sort(root) {
                    Sort::Bv(_) => plan.wides.push((root, state)),
                    _ => plan.mems.push((root, state, mv)),
                }
            }
        }
        plan
    }

    /// Executes the commit: every root read against the pre-state, then
    /// all writes, then the movable swaps (whose roots no write phase
    /// touches — writes hit state registers, roots are computed slots).
    fn run(&self, prog: &TapeProgram, st: &mut TapeState, bufs: &mut CommitBufs) {
        prog.copy_words(st, &self.words, &mut bufs.words);
        bufs.wides.clear();
        for &(root, _) in &self.wides {
            bufs.wides.push(prog.read_wide(st, root).clone());
        }
        bufs.mems.clear();
        for &(root, _, mv) in &self.mems {
            if !mv {
                bufs.mems.push(prog.read_mem(st, root).clone());
            }
        }
        for (&(_, state), v) in self.wides.iter().zip(bufs.wides.drain(..)) {
            prog.put_wide(st, state, v);
        }
        let mut clones = bufs.mems.drain(..);
        for &(root, state, mv) in &self.mems {
            if mv {
                prog.swap_mems(st, root, state);
            } else {
                prog.put_mem(st, state, clones.next().expect("one clone per copy"));
            }
        }
    }
}

/// A compiled simulator for one port-ILA.
///
/// Drop-in faster counterpart of [`gila_core::PortSimulator`]: the
/// high-level [`CompiledPortSim::step`] mirrors its contract (including
/// error cases) exactly, while the `set_input_*` / [`CompiledPortSim::step_fast`]
/// API exposes the allocation-free path used by co-simulation.
///
/// # Examples
///
/// ```
/// use gila_core::{PortIla, StateKind};
/// use gila_expr::{BitVecValue, Sort, Value};
/// use gila_sim_compile::CompiledPortSim;
///
/// let mut p = PortIla::new("counter");
/// let en = p.input("en", Sort::Bv(1));
/// let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
/// let d = p.ctx_mut().eq_u64(en, 1);
/// let one = p.ctx_mut().bv_u64(1, 8);
/// let nx = p.ctx_mut().bvadd(cnt, one);
/// p.instr("inc").decode(d).update("cnt", nx).add()?;
/// let d = p.ctx_mut().eq_u64(en, 0);
/// p.instr("hold").decode(d).add()?;
///
/// let mut sim = CompiledPortSim::new(&p);
/// let mut inputs = std::collections::BTreeMap::new();
/// inputs.insert("en".to_string(), Value::Bv(BitVecValue::from_u64(1, 1)));
/// assert_eq!(sim.step(&inputs)?, "inc");
/// assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledPortSim<'a> {
    port: &'a PortIla,
    prog: TapeProgram,
    st: TapeState,
    /// Parallel to `port.states()`.
    state_slots: Vec<Slot>,
    /// Parallel to `port.inputs()`.
    input_slots: Vec<Slot>,
    /// Parallel to `port.instructions()`: the decode root of each.
    decode_slots: Vec<Slot>,
    /// Parallel to `port.instructions()`: that instruction's commit.
    plans: Vec<CommitPlan>,
    bufs: CommitBufs,
    /// Tape offset ending the decode segment: `0..decode_end` computes
    /// every decode condition, `decode_end..` the update cones.
    decode_end: usize,
    /// Parallel to `port.instructions()`: the tape offset ending that
    /// instruction's update segment. A commit runs
    /// `decode_end..update_ends[idx]` — a sound prefix, since every
    /// computed slot a segment reads is written earlier in the same run
    /// (or in the decode segment evaluated under the same inputs).
    update_ends: Vec<usize>,
}

impl<'a> CompiledPortSim<'a> {
    /// Compiles `port` and starts from its reset state (declared inits,
    /// all-zero otherwise).
    pub fn new(port: &'a PortIla) -> Self {
        let mut sim = Self::compile(port);
        for (i, s) in port.states().iter().enumerate() {
            let v = s.init.clone().unwrap_or_else(|| Value::zero(s.sort));
            sim.prog.write(&mut sim.st, sim.state_slots[i], &v);
        }
        sim
    }

    /// Compiles `port` and starts from an explicit state.
    ///
    /// # Errors
    ///
    /// Mirrors [`gila_core::PortSimulator::with_state`]: a missing state
    /// is a [`SimError::MissingInput`], a wrongly-sorted one a
    /// [`SimError::SortMismatch`].
    pub fn with_state(port: &'a PortIla, state: StateMap) -> Result<Self, SimError> {
        let mut sim = Self::compile(port);
        for (i, s) in port.states().iter().enumerate() {
            match state.get(&s.name) {
                None => {
                    return Err(SimError::MissingInput {
                        input: s.name.clone(),
                    })
                }
                Some(v) if v.sort() != s.sort => {
                    return Err(SimError::SortMismatch {
                        name: s.name.clone(),
                        expected: s.sort,
                        found: v.sort(),
                    })
                }
                Some(v) => sim.prog.write(&mut sim.st, sim.state_slots[i], v),
            }
        }
        Ok(sim)
    }

    fn compile(port: &'a PortIla) -> Self {
        // Roots: every decode, every update expression, and every state
        // and input variable (so even states no expression reads get a
        // slot to hold their value). The decode conditions form their
        // own leading tape segment so stimulus search re-runs only
        // them; each instruction's update cone then gets its own
        // segment, so a commit runs only the tape prefix ending at the
        // fired instruction's cone instead of every cone. (Variable
        // roots emit no tape instructions, so their trailing group only
        // reserves slots.)
        let mut decode_roots = Vec::new();
        let mut update_groups = Vec::new();
        for instr in port.instructions() {
            decode_roots.push(instr.decode);
            update_groups.push(instr.updates.values().copied().collect::<Vec<_>>());
        }
        let mut var_roots = Vec::new();
        var_roots.extend(port.states().iter().map(|s| s.var));
        var_roots.extend(port.inputs().iter().map(|i| i.var));
        let mut groups: Vec<&[_]> = Vec::with_capacity(update_groups.len() + 2);
        groups.push(&decode_roots);
        for g in &update_groups {
            groups.push(g);
        }
        groups.push(&var_roots);
        let (prog, boundaries) = TapeProgram::compile_segmented(port.ctx(), &groups);
        let decode_end = boundaries[0];
        let update_ends = boundaries[1..boundaries.len() - 1].to_vec();
        let slot = |e| prog.slot_of(e).expect("root compiled");
        let state_index: BTreeMap<&str, usize> = port
            .states()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();
        let decode_slots = port.instructions().iter().map(|i| slot(i.decode)).collect();
        let state_slots: Vec<Slot> = port.states().iter().map(|s| slot(s.var)).collect();
        let input_slots = port.inputs().iter().map(|i| slot(i.var)).collect();
        let plans = port
            .instructions()
            .iter()
            .map(|i| {
                let pairs: Vec<(Slot, Slot)> = i
                    .updates
                    .iter()
                    .map(|(name, &e)| (slot(e), state_slots[state_index[name.as_str()]]))
                    .collect();
                CommitPlan::new(&prog, &pairs, &[])
            })
            .collect();
        let st = prog.new_state();
        CompiledPortSim {
            port,
            prog,
            st,
            state_slots,
            input_slots,
            decode_slots,
            plans,
            bufs: CommitBufs::default(),
            decode_end,
            update_ends,
        }
    }

    /// The port being simulated.
    pub fn port(&self) -> &'a PortIla {
        self.port
    }

    /// The compiled tape (for statistics and cross-program reads).
    pub fn program(&self) -> &TapeProgram {
        &self.prog
    }

    /// The live register file (for cross-program reads).
    pub fn tape(&self) -> &TapeState {
        &self.st
    }

    /// The slot holding state `idx` (in [`PortIla::states`] order).
    pub fn state_slot(&self, idx: usize) -> Slot {
        self.state_slots[idx]
    }

    /// The current architectural state, materialized by name.
    pub fn state(&self) -> StateMap {
        self.port
            .states()
            .iter()
            .zip(&self.state_slots)
            .map(|(s, &slot)| (s.name.clone(), self.prog.read(&self.st, slot)))
            .collect()
    }

    /// Overwrites state `idx` with a materialized value.
    pub fn set_state_value(&mut self, idx: usize, v: &Value) {
        self.prog.write(&mut self.st, self.state_slots[idx], v);
    }

    /// Overwrites state `idx` from raw bits (word-bank states only);
    /// the value is masked to the state's width.
    pub fn set_state_word(&mut self, idx: usize, bits: u64) {
        self.prog.write_word(&mut self.st, self.state_slots[idx], bits);
    }

    /// Overwrites memory-typed state `idx` in place from `src`, reusing
    /// the destination map's allocations (the hot path of co-simulation
    /// re-anchoring, where an unchecked memory is re-seeded every cycle).
    pub fn copy_mem_state_from(&mut self, idx: usize, src: &MemValue) {
        self.prog
            .mem_mut(&mut self.st, self.state_slots[idx])
            .copy_from(src);
    }

    /// The names of every instruction whose decode condition held in the
    /// latest tape run (for [`gila_core::SimError::MultipleInstructions`]
    /// payloads).
    pub fn fired_names(&self) -> Vec<String> {
        self.decode_slots
            .iter()
            .zip(self.port.instructions())
            .filter(|(&d, _)| self.prog.read_word(&self.st, d) != 0)
            .map(|(_, i)| i.name.clone())
            .collect()
    }

    /// Sets input `idx` (in [`PortIla::inputs`] order) from raw bits;
    /// the value is masked to the input's width.
    pub fn set_input_word(&mut self, idx: usize, bits: u64) {
        self.prog.write_word(&mut self.st, self.input_slots[idx], bits);
    }

    /// Sets input `idx` from a materialized value.
    pub fn set_input_value(&mut self, idx: usize, v: &Value) {
        self.prog.write(&mut self.st, self.input_slots[idx], v);
    }

    /// True if input `idx` lives in the word bank (width `<= 64`).
    pub fn input_is_word(&self, idx: usize) -> bool {
        self.input_slots[idx].is_word()
    }

    /// Runs the decode segment of the tape over the current inputs and
    /// state and resolves the decode conditions — without evaluating
    /// the update cones or committing anything. The update cones run on
    /// [`CompiledPortSim::commit`], so a rejected stimulus attempt costs
    /// only the decode work.
    pub fn decode_only(&mut self) -> Fired {
        self.prog.run_range(&mut self.st, 0..self.decode_end);
        let mut fired = Fired::None;
        for (idx, &d) in self.decode_slots.iter().enumerate() {
            if self.prog.read_word(&self.st, d) != 0 {
                fired = match fired {
                    Fired::None => Fired::One(idx),
                    _ => return Fired::Multiple,
                };
            }
        }
        fired
    }

    /// Evaluates the update cones over the inputs of the latest
    /// [`CompiledPortSim::decode_only`] and commits the updates of
    /// instruction `idx` (two-phase, so simultaneous swaps read the
    /// pre-state). Call after `decode_only` returned `Fired::One(idx)`.
    ///
    /// Only the tape prefix through instruction `idx`'s own update
    /// segment is evaluated — later instructions' cones are skipped.
    ///
    /// Committed memory update values are *swapped* into their state
    /// registers where liveness allows; the consumed update-root slots
    /// hold the displaced maps until the next run covering them.
    pub fn commit(&mut self, idx: usize) {
        self.prog
            .run_range(&mut self.st, self.decode_end..self.update_ends[idx]);
        self.plans[idx].run(&self.prog, &mut self.st, &mut self.bufs);
    }

    /// One allocation-free step over already-set inputs: runs the tape,
    /// and on a unique decode commits that instruction's updates.
    pub fn step_fast(&mut self) -> Fired {
        let fired = self.decode_only();
        if let Fired::One(idx) = fired {
            self.commit(idx);
        }
        fired
    }

    /// Executes one step from a named input map, mirroring
    /// [`gila_core::PortSimulator::step`] exactly (same fired
    /// instruction, same state commits, same errors).
    ///
    /// # Errors
    ///
    /// [`SimError::MissingInput`] / [`SimError::SortMismatch`] for bad
    /// inputs, [`SimError::NoInstruction`] /
    /// [`SimError::MultipleInstructions`] from decode resolution.
    pub fn step(&mut self, inputs: &BTreeMap<String, Value>) -> Result<String, SimError> {
        for (idx, i) in self.port.inputs().iter().enumerate() {
            let v = inputs.get(&i.name).ok_or_else(|| SimError::MissingInput {
                input: i.name.clone(),
            })?;
            if v.sort() != i.sort {
                return Err(SimError::SortMismatch {
                    name: i.name.clone(),
                    expected: i.sort,
                    found: v.sort(),
                });
            }
            self.set_input_value(idx, v);
        }
        match self.step_fast() {
            Fired::One(idx) => Ok(self.port.instructions()[idx].name.clone()),
            Fired::None => Err(SimError::NoInstruction {
                port: self.port.name().to_string(),
            }),
            Fired::Multiple => {
                // Re-derive the full fired list for the error payload.
                let fired: Vec<String> = self
                    .decode_slots
                    .iter()
                    .zip(self.port.instructions())
                    .filter(|(&d, _)| self.prog.read_word(&self.st, d) != 0)
                    .map(|(_, i)| i.name.clone())
                    .collect();
                Err(SimError::MultipleInstructions {
                    port: self.port.name().to_string(),
                    instructions: fired,
                })
            }
        }
    }
}

/// A compiled, cycle-accurate simulator for an [`RtlModule`].
///
/// Mirrors [`gila_rtl::RtlSimulator`]'s non-blocking semantics: a step
/// evaluates every register and memory next-state expression against the
/// pre-edge state and commits them simultaneously. Output signals named
/// at compile time are evaluated in the same tape run and can be read
/// back without a DAG walk.
#[derive(Clone, Debug)]
pub struct CompiledRtlSim<'a> {
    module: &'a RtlModule,
    prog: TapeProgram,
    st: TapeState,
    /// Parallel to `module.inputs()`.
    input_slots: Vec<Slot>,
    /// Regs then mems, in declaration order: `(name index, state slot)`.
    state_slots: Vec<Slot>,
    state_names: Vec<String>,
    /// `(state slot, next-value root)` pairs for the non-blocking commit.
    next_pairs: Vec<(Slot, Slot)>,
    /// The bank-sorted commit built from `next_pairs`.
    plan: CommitPlan,
    bufs: CommitBufs,
    /// Parallel to the `signals` passed to [`CompiledRtlSim::new`].
    signal_slots: Vec<Slot>,
    /// Tape offset ending the signal segment: `0..signal_end` computes
    /// every compiled output signal, `signal_end..` the next-state cones.
    signal_end: usize,
}

impl<'a> CompiledRtlSim<'a> {
    /// Compiles `module` (and the named output signals) and starts from
    /// the module's reset state.
    ///
    /// # Errors
    ///
    /// [`RtlSimError::UnknownSignal`] if a requested signal does not
    /// exist.
    pub fn new(module: &'a RtlModule, signals: &[String]) -> Result<Self, RtlSimError> {
        // The compiled signals form their own leading tape segment, so
        // observation-only evaluations (co-simulation re-anchoring) can
        // skip the next-state cones via `eval_signals`.
        let mut signal_exprs = Vec::new();
        for name in signals {
            let e = module
                .signal_expr(name)
                .ok_or_else(|| RtlSimError::UnknownSignal { name: name.clone() })?;
            signal_exprs.push(e);
        }
        let mut rest_roots = Vec::new();
        for r in module.regs() {
            rest_roots.push(r.next);
        }
        for m in module.mems() {
            rest_roots.push(m.next);
        }
        for r in module.regs() {
            rest_roots.push(r.var);
        }
        for m in module.mems() {
            rest_roots.push(m.var);
        }
        for i in module.inputs() {
            rest_roots.push(i.var);
        }
        let (prog, boundaries) =
            TapeProgram::compile_segmented(module.ctx(), &[&signal_exprs, &rest_roots]);
        let signal_end = boundaries[0];
        let slot = |e| prog.slot_of(e).expect("root compiled");
        let mut st = prog.new_state();
        let mut state_slots = Vec::new();
        let mut state_names = Vec::new();
        let mut next_pairs = Vec::new();
        for r in module.regs() {
            let s = slot(r.var);
            let v = r.init.clone().unwrap_or_else(|| BitVecValue::zero(r.width));
            prog.write(&mut st, s, &Value::Bv(v));
            next_pairs.push((s, slot(r.next)));
            state_slots.push(s);
            state_names.push(r.name.clone());
        }
        for m in module.mems() {
            let s = slot(m.var);
            let v = m
                .init
                .clone()
                .unwrap_or_else(|| MemValue::zeroed(m.addr_width, m.data_width));
            prog.write(&mut st, s, &Value::Mem(v));
            next_pairs.push((s, slot(m.next)));
            state_slots.push(s);
            state_names.push(m.name.clone());
        }
        let input_slots = module.inputs().iter().map(|i| slot(i.var)).collect();
        let signal_slots: Vec<Slot> = signal_exprs.into_iter().map(slot).collect();
        let pairs: Vec<(Slot, Slot)> = next_pairs.iter().map(|&(s, r)| (r, s)).collect();
        let plan = CommitPlan::new(&prog, &pairs, &signal_slots);
        Ok(CompiledRtlSim {
            module,
            prog,
            st,
            input_slots,
            state_slots,
            state_names,
            next_pairs,
            plan,
            bufs: CommitBufs::default(),
            signal_slots,
            signal_end,
        })
    }

    /// The module being simulated.
    pub fn module(&self) -> &'a RtlModule {
        self.module
    }

    /// Opts in to *state moves*: a memory state register whose reads all
    /// sit in the next-state segment is stolen (swapped, not cloned) by
    /// its final reader during [`CompiledRtlSim::eval`], and written
    /// back by [`CompiledRtlSim::commit`] — which covers every state
    /// element, making the steal invisible across full eval/commit
    /// steps. This removes the last per-cycle `O(entries)` map copy for
    /// store-shaped next-state functions.
    ///
    /// After enabling, memory-typed state and signal values are
    /// unspecified *between* an `eval` and its `commit`; callers must
    /// pair every `eval` with a `commit` before reading them.
    /// Signal-only evaluations ([`CompiledRtlSim::eval_signals`]) never
    /// steal and stay safe at any point.
    pub fn enable_state_moves(&mut self) {
        // Pass-through next roots (`m' = m`) are read by the commit's
        // snapshot phase itself, so those variables must stay put.
        let roots: Vec<Slot> = self.next_pairs.iter().map(|&(_, r)| r).collect();
        self.prog.enable_var_moves(self.signal_end, &roots);
    }

    /// The compiled tape (for statistics and cross-program reads).
    pub fn program(&self) -> &TapeProgram {
        &self.prog
    }

    /// The live register file (for cross-program reads).
    pub fn tape(&self) -> &TapeState {
        &self.st
    }

    /// State element names, regs then mems, in declaration order.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// The current register/memory state, materialized by name.
    pub fn state(&self) -> BTreeMap<String, Value> {
        self.state_names
            .iter()
            .zip(&self.state_slots)
            .map(|(n, &s)| (n.clone(), self.prog.read(&self.st, s)))
            .collect()
    }

    /// Overwrites one state element (for directed tests and random start
    /// states).
    ///
    /// # Errors
    ///
    /// [`RtlSimError::UnknownSignal`] for unknown state names.
    pub fn set_state(&mut self, name: &str, value: Value) -> Result<(), RtlSimError> {
        let idx = self
            .state_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| RtlSimError::UnknownSignal {
                name: name.to_string(),
            })?;
        self.prog.write(&mut self.st, self.state_slots[idx], &value);
        Ok(())
    }

    /// Sets input `idx` (in [`RtlModule::inputs`] order) from raw bits;
    /// the value is masked to the pin's width.
    pub fn set_input_word(&mut self, idx: usize, bits: u64) {
        self.prog.write_word(&mut self.st, self.input_slots[idx], bits);
    }

    /// Sets input `idx` from a bit-vector value of the pin's width.
    pub fn set_input_bits(&mut self, idx: usize, v: &BitVecValue) {
        let slot = self.input_slots[idx];
        if slot.is_word() {
            self.prog.write_word(&mut self.st, slot, v.to_u64());
        } else {
            self.prog.write(&mut self.st, slot, &Value::Bv(v.clone()));
        }
    }

    /// True if input `idx` lives in the word bank (width `<= 64`).
    pub fn input_is_word(&self, idx: usize) -> bool {
        self.input_slots[idx].is_word()
    }

    /// Evaluates the tape (all next-state expressions and compiled
    /// signals) over the current state and inputs, committing nothing.
    pub fn eval(&mut self) {
        self.prog.run(&mut self.st);
    }

    /// Evaluates only the compiled signals over the current state and
    /// inputs — the cheap path when the next-state cones are not needed
    /// (e.g. observing mapped states under quiescent inputs).
    pub fn eval_signals(&mut self) {
        self.prog.run_range(&mut self.st, 0..self.signal_end);
    }

    /// Commits the next-state roots of the latest [`CompiledRtlSim::eval`]
    /// into the state slots (two-phase non-blocking semantics).
    ///
    /// Committed memory values are *swapped* into their state registers
    /// where liveness allows; the consumed next-root slots hold the
    /// displaced maps until the next [`CompiledRtlSim::eval`].
    pub fn commit(&mut self) {
        self.plan.run(&self.prog, &mut self.st, &mut self.bufs);
    }

    /// The slot holding compiled signal `idx` after an eval.
    pub fn signal_slot(&self, idx: usize) -> Slot {
        self.signal_slots[idx]
    }

    /// Materializes compiled signal `idx` (valid after an eval).
    pub fn signal_value(&self, idx: usize) -> Value {
        self.prog.read(&self.st, self.signal_slots[idx])
    }

    /// Advances one clock edge from a named input map, mirroring
    /// [`gila_rtl::RtlSimulator::step`] exactly.
    ///
    /// # Errors
    ///
    /// [`RtlSimError::MissingInput`] / [`RtlSimError::WidthMismatch`]
    /// for bad inputs.
    pub fn step(&mut self, inputs: &RtlInputMap) -> Result<(), RtlSimError> {
        self.bind_inputs(inputs)?;
        self.eval();
        self.commit();
        Ok(())
    }

    /// Binds a named input map without evaluating, with the
    /// interpreter's validation.
    ///
    /// # Errors
    ///
    /// [`RtlSimError::MissingInput`] / [`RtlSimError::WidthMismatch`].
    pub fn bind_inputs(&mut self, inputs: &RtlInputMap) -> Result<(), RtlSimError> {
        for (idx, i) in self.module.inputs().iter().enumerate() {
            let v = inputs.get(&i.name).ok_or_else(|| RtlSimError::MissingInput {
                input: i.name.clone(),
            })?;
            if v.width() != i.width {
                return Err(RtlSimError::WidthMismatch {
                    name: i.name.clone(),
                    expected: i.width,
                    found: v.width(),
                });
            }
            self.set_input_bits(idx, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::{PortSimulator, StateKind};
    use gila_rtl::{parse_verilog, RtlSimulator};
    use rand::{Rng, SeedableRng};

    fn bv(x: u64, w: u32) -> Value {
        Value::Bv(BitVecValue::from_u64(x, w))
    }

    fn counter() -> PortIla {
        let mut p = PortIla::new("counter");
        let en = p.input("en", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
        let d = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 8);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d).update("cnt", nx).add().unwrap();
        let d = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d).add().unwrap();
        p
    }

    #[test]
    fn port_sim_mirrors_interpreter() {
        let p = counter();
        let mut fast = CompiledPortSim::new(&p);
        let mut slow = PortSimulator::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut inputs = BTreeMap::new();
            inputs.insert("en".to_string(), bv(rng.gen::<u64>() & 1, 1));
            let a = fast.step(&inputs).unwrap();
            let b = slow.step(&inputs).unwrap();
            assert_eq!(a, b);
            assert_eq!(fast.state(), *slow.state());
        }
    }

    #[test]
    fn swap_commits_against_pre_state() {
        let mut p = PortIla::new("swap");
        let go = p.input("go", Sort::Bv(1));
        let a = p.state("a", Sort::Bv(4), StateKind::Output);
        let b = p.state("b", Sort::Bv(4), StateKind::Output);
        let d = p.ctx_mut().eq_u64(go, 1);
        p.instr("swap")
            .decode(d)
            .update("a", b)
            .update("b", a)
            .add()
            .unwrap();
        let d0 = p.ctx_mut().eq_u64(go, 0);
        p.instr("nop").decode(d0).add().unwrap();
        p.set_init("a", BitVecValue::from_u64(3, 4)).unwrap();
        p.set_init("b", BitVecValue::from_u64(9, 4)).unwrap();
        let mut sim = CompiledPortSim::new(&p);
        let mut inputs = BTreeMap::new();
        inputs.insert("go".to_string(), bv(1, 1));
        sim.step(&inputs).unwrap();
        assert_eq!(sim.state()["a"].as_bv().to_u64(), 9);
        assert_eq!(sim.state()["b"].as_bv().to_u64(), 3);
    }

    #[test]
    fn step_errors_mirror_interpreter() {
        let p = counter();
        let mut fast = CompiledPortSim::new(&p);
        let mut slow = PortSimulator::new(&p);
        assert_eq!(
            fast.step(&BTreeMap::new()).unwrap_err(),
            slow.step(&BTreeMap::new()).unwrap_err()
        );
        let mut inputs = BTreeMap::new();
        inputs.insert("en".to_string(), bv(1, 2));
        assert_eq!(
            fast.step(&inputs).unwrap_err(),
            slow.step(&inputs).unwrap_err()
        );
        // incomplete decode space
        let mut q = PortIla::new("partial");
        let x = q.input("x", Sort::Bv(2));
        q.state("s", Sort::Bv(2), StateKind::Output);
        let d = q.ctx_mut().eq_u64(x, 0);
        q.instr("only_zero").decode(d).add().unwrap();
        let mut fast = CompiledPortSim::new(&q);
        let mut slow = PortSimulator::new(&q);
        let mut inputs = BTreeMap::new();
        inputs.insert("x".to_string(), bv(3, 2));
        assert_eq!(
            fast.step(&inputs).unwrap_err(),
            slow.step(&inputs).unwrap_err()
        );
    }

    #[test]
    fn rtl_sim_mirrors_interpreter_with_memory() {
        let m = parse_verilog(
            r#"
module mem(clk, we, addr, din, dout);
  input clk; input we;
  input [3:0] addr;
  input [7:0] din;
  output [7:0] dout;
  reg [7:0] store [0:15];
  reg [7:0] last;
  assign dout = store[addr];
  always @(posedge clk) begin
    if (we) store[addr] <= din;
    last <= dout;
  end
endmodule
"#,
        )
        .unwrap();
        let mut fast = CompiledRtlSim::new(&m, &["dout".to_string()]).unwrap();
        let mut slow = RtlSimulator::new(&m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let mut ins = RtlInputMap::new();
            ins.insert("clk".to_string(), BitVecValue::from_u64(1, 1));
            ins.insert("we".to_string(), BitVecValue::from_u64(rng.gen::<u64>() & 1, 1));
            ins.insert("addr".to_string(), BitVecValue::from_u64(rng.gen(), 4));
            ins.insert("din".to_string(), BitVecValue::from_u64(rng.gen(), 8));
            fast.bind_inputs(&ins).unwrap();
            fast.eval();
            let dout = fast.signal_value(0);
            assert_eq!(dout, slow.signal("dout", &ins).unwrap());
            fast.commit();
            slow.step(&ins).unwrap();
            assert_eq!(fast.state(), *slow.state());
        }
    }

    #[test]
    fn unknown_signal_is_reported() {
        let m = parse_verilog(
            r#"
module x(clk, a);
  input clk; input [3:0] a;
  reg [3:0] r;
  always @(posedge clk) r <= a;
endmodule
"#,
        )
        .unwrap();
        assert!(matches!(
            CompiledRtlSim::new(&m, &["ghost".to_string()]),
            Err(RtlSimError::UnknownSignal { .. })
        ));
    }
}
