//! Compiled co-simulation: lockstep tape execution.
//!
//! [`crate::cosimulate`] interprets both models, re-walking expression
//! DAGs every cycle. This module lowers the port-ILA and the RTL module
//! once into straight-line tapes (`gila-sim-compile`) and then runs the
//! same co-simulation contract as tight tape loops — the backend behind
//! `gila hunt` and the benchmark's `cosim_cycles_per_s_compiled` column.
//!
//! Three entry points:
//!
//! - [`cosimulate_compiled`] — the drop-in fast counterpart of
//!   [`crate::cosimulate`]. Same start-state distribution and error
//!   contract, but its own (word-granularity) stimulus stream: seeds are
//!   not bit-compatible with the interpreter's.
//! - [`replay_compiled`] — deterministic re-execution of a recorded
//!   start state + command stream (what [`crate::Divergence`] carries),
//!   used by the shrinker and `gila hunt --replay`.
//! - [`cosim_differential`] — drives the interpreter and the compiled
//!   backend from one shared stimulus stream and cross-checks fired
//!   instructions and full states every cycle; the soundness harness for
//!   the compiled backend.

use std::collections::BTreeMap;

use gila_core::{PortIla, PortSimulator, SimError};
use gila_expr::{BitVecValue, Sort, Value};
use gila_rtl::{RtlModule, RtlSimError, RtlSimulator};
use gila_sim_compile::{CompiledPortSim, CompiledRtlSim, Fired};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::cosim::{random_bv, random_value, CosimError, Divergence};
use crate::refmap::RefinementMap;

fn mask_of(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// How one mapped state pair is compared after each cycle. Sorts are
/// checked equal at setup (mirroring the interpreter's `SortMismatch`),
/// so comparison reduces to same-bank register reads.
#[derive(Clone, Copy, Debug)]
enum CompareKind {
    Word,
    Wide,
    Mem,
}

#[derive(Clone, Debug)]
struct MappedState {
    /// ILA state name (= comparison/reporting key).
    name: String,
    /// Index into `port.states()`.
    ila_idx: usize,
    /// Index into the compiled RTL signal list.
    sig_idx: usize,
    kind: CompareKind,
    unchecked: bool,
}

/// One cycle of RTL pin stimulus in tape-friendly form: raw words for
/// pins of width `<= 64` (indexed by pin position), materialized values
/// for wider pins.
#[derive(Clone, Debug)]
pub(crate) struct CycleInputs {
    pub(crate) words: Vec<u64>,
    pub(crate) wides: Vec<(usize, BitVecValue)>,
}

/// A compiled ILA+RTL pair wired up for co-simulation: both tapes, the
/// mapped-state comparison plan, and the input correspondence.
pub(crate) struct CompiledCosim<'a> {
    ila: CompiledPortSim<'a>,
    rtl: CompiledRtlSim<'a>,
    /// In `state_map` (name-sorted) order — the interpreter's comparison
    /// and reporting order.
    mapped: Vec<MappedState>,
    /// `(ILA input index, RTL pin index)` in `port.inputs()` order.
    input_pairs: Vec<(usize, usize)>,
    pin_names: Vec<String>,
    pin_widths: Vec<u32>,
    any_unchecked: bool,
    /// `(name, sort)` of every RTL state element, in name order — the
    /// interpreter's start-state randomization walk.
    state_sorts: Vec<(String, Sort)>,
    /// Instruction index committed by the latest `step_stream`.
    last_fired: usize,
}

impl<'a> CompiledCosim<'a> {
    /// Compiles both sides and validates the map with the interpreter's
    /// error contract (same variants, same discovery order).
    pub(crate) fn new(
        port: &'a PortIla,
        rtl: &'a RtlModule,
        map: &'a RefinementMap,
    ) -> Result<Self, CosimError> {
        let signals: Vec<String> = map.state_map.values().cloned().collect();
        let mut rtl_sim = CompiledRtlSim::new(rtl, &signals).map_err(|e| match e {
            RtlSimError::UnknownSignal { name } => CosimError::UnknownRtlSignal(name),
            other => unreachable!("compile reports only unknown signals: {other}"),
        })?;
        // The co-simulation loop always pairs eval with commit before
        // reading states or signals, so state moves are safe here.
        rtl_sim.enable_state_moves();
        let ila_sim = CompiledPortSim::new(port);

        let state_index: BTreeMap<&str, usize> = port
            .states()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();
        let mut mapped = Vec::new();
        for (sig_idx, ila_name) in map.state_map.keys().enumerate() {
            let unchecked = map.unchecked_states.contains(ila_name);
            let Some(&ila_idx) = state_index.get(ila_name.as_str()) else {
                // The interpreter silently re-anchors (and then ignores)
                // unchecked states the port doesn't declare.
                assert!(
                    unchecked,
                    "refinement map names unknown ILA state {ila_name:?}"
                );
                continue;
            };
            let kind = match port.states()[ila_idx].sort {
                Sort::Bool => CompareKind::Word,
                Sort::Bv(w) if w <= 64 => CompareKind::Word,
                Sort::Bv(_) => CompareKind::Wide,
                Sort::Mem { .. } => CompareKind::Mem,
            };
            mapped.push(MappedState {
                name: ila_name.clone(),
                ila_idx,
                sig_idx,
                kind,
                unchecked,
            });
        }
        // Interpreter parity: a mapped RTL value whose sort differs from
        // the ILA state is rejected by `PortSimulator::with_state` at
        // cycle 0, scanning states in declaration order.
        let mut by_decl: Vec<&MappedState> = mapped.iter().collect();
        by_decl.sort_by_key(|m| m.ila_idx);
        for m in by_decl {
            let expected = port.states()[m.ila_idx].sort;
            let found = rtl_sim.program().slot_sort(rtl_sim.signal_slot(m.sig_idx));
            if expected != found {
                return Err(CosimError::Sim(SimError::SortMismatch {
                    name: m.name.clone(),
                    expected,
                    found,
                }));
            }
        }

        let mut input_pairs = Vec::new();
        for (idx, i) in port.inputs().iter().enumerate() {
            let rtl_name = map
                .interface_map
                .get(&i.name)
                .ok_or_else(|| CosimError::UnmappedInput(i.name.clone()))?;
            let pin_idx = rtl
                .inputs()
                .iter()
                .position(|p| p.name == *rtl_name)
                .ok_or_else(|| CosimError::UnknownRtlSignal(rtl_name.clone()))?;
            input_pairs.push((idx, pin_idx));
        }
        // Interpreter parity: pin-width values that don't match the ILA
        // input's sort fail `PortSimulator::step` on the first attempt.
        for &(ila_idx, pin_idx) in &input_pairs {
            let i = &port.inputs()[ila_idx];
            let found = Sort::Bv(rtl.inputs()[pin_idx].width);
            if i.sort != found {
                return Err(CosimError::Sim(SimError::SortMismatch {
                    name: i.name.clone(),
                    expected: i.sort,
                    found,
                }));
            }
        }

        let pin_names = rtl.inputs().iter().map(|p| p.name.clone()).collect();
        let pin_widths: Vec<u32> = rtl.inputs().iter().map(|p| p.width).collect();
        let any_unchecked = mapped.iter().any(|m| m.unchecked);
        let state_sorts = rtl_sim
            .state()
            .iter()
            .map(|(n, v)| (n.clone(), v.sort()))
            .collect();
        Ok(CompiledCosim {
            ila: ila_sim,
            rtl: rtl_sim,
            mapped,
            input_pairs,
            pin_names,
            pin_widths,
            any_unchecked,
            state_sorts,
            last_fired: 0,
        })
    }

    /// Combined tape length of both sides (for statistics).
    pub(crate) fn tape_len(&self) -> usize {
        self.ila.program().len() + self.rtl.program().len()
    }

    /// The ILA state name of mapped comparison entry `m_i`.
    pub(crate) fn mapped_name(&self, m_i: usize) -> &str {
        &self.mapped[m_i].name
    }

    /// RTL pin widths, in `module.inputs()` order.
    pub(crate) fn pin_widths(&self) -> &[u32] {
        &self.pin_widths
    }

    fn zero_rtl_inputs(&mut self) {
        for idx in 0..self.pin_widths.len() {
            if self.rtl.input_is_word(idx) {
                self.rtl.set_input_word(idx, 0);
            } else {
                self.rtl
                    .set_input_bits(idx, &BitVecValue::zero(self.pin_widths[idx]));
            }
        }
    }

    /// Copies mapped RTL signal `m_i` (valid after an RTL eval) into the
    /// corresponding ILA state register.
    fn copy_signal_to_ila(&mut self, m_i: usize) {
        let (kind, sig_idx, ila_idx) = {
            let m = &self.mapped[m_i];
            (m.kind, m.sig_idx, m.ila_idx)
        };
        match kind {
            CompareKind::Word => {
                let x = self
                    .rtl
                    .program()
                    .read_word(self.rtl.tape(), self.rtl.signal_slot(sig_idx));
                self.ila.set_state_word(ila_idx, x);
            }
            CompareKind::Mem => {
                let src = self
                    .rtl
                    .program()
                    .read_mem(self.rtl.tape(), self.rtl.signal_slot(sig_idx));
                self.ila.copy_mem_state_from(ila_idx, src);
            }
            CompareKind::Wide => {
                let v = self.rtl.signal_value(sig_idx);
                self.ila.set_state_value(ila_idx, &v);
            }
        }
    }

    /// Seeds the ILA from the mapped RTL view under all-zero inputs
    /// (unmapped ILA states reset to zero, as in the interpreter).
    fn bootstrap(&mut self) {
        self.zero_rtl_inputs();
        self.rtl.eval_signals();
        for i in 0..self.ila.port().states().len() {
            let v = Value::zero(self.ila.port().states()[i].sort);
            self.ila.set_state_value(i, &v);
        }
        for m_i in 0..self.mapped.len() {
            self.copy_signal_to_ila(m_i);
        }
    }

    /// Re-anchors unchecked states from the RTL under all-zero inputs —
    /// the per-cycle prologue of the co-simulation contract.
    fn reanchor(&mut self) {
        if !self.any_unchecked {
            return;
        }
        self.zero_rtl_inputs();
        self.rtl.eval_signals();
        for m_i in 0..self.mapped.len() {
            if self.mapped[m_i].unchecked {
                self.copy_signal_to_ila(m_i);
            }
        }
    }

    /// Draws one cycle of stimulus at word granularity into a reusable
    /// buffer: one RNG word per pin of width `<= 64`, boundary-biased
    /// bits for wider pins. Rejected stimulus attempts then cost no
    /// allocation on the word path.
    fn draw_inputs_into(&self, rng: &mut impl Rng, ci: &mut CycleInputs) {
        ci.wides.clear();
        for (idx, &w) in self.pin_widths.iter().enumerate() {
            if w <= 64 {
                ci.words[idx] = rng.gen::<u64>() & mask_of(w);
            } else {
                ci.wides.push((idx, random_bv(rng, w)));
            }
        }
    }

    /// Encodes a named input vector (as `Divergence::inputs` carries)
    /// into tape form; absent pins drive zero.
    pub(crate) fn encode_inputs(&self, inputs: &BTreeMap<String, BitVecValue>) -> CycleInputs {
        let mut words = vec![0u64; self.pin_widths.len()];
        let mut wides = Vec::new();
        for (idx, name) in self.pin_names.iter().enumerate() {
            let w = self.pin_widths[idx];
            match inputs.get(name) {
                Some(v) if w <= 64 => words[idx] = v.to_u64() & mask_of(w),
                Some(v) => wides.push((idx, v.clone())),
                None if w > 64 => wides.push((idx, BitVecValue::zero(w))),
                None => {}
            }
        }
        CycleInputs { words, wides }
    }

    /// Materializes tape-form stimulus back into the named-vector form.
    fn materialize_inputs(&self, ci: &CycleInputs) -> BTreeMap<String, BitVecValue> {
        let mut out = BTreeMap::new();
        for (idx, name) in self.pin_names.iter().enumerate() {
            let w = self.pin_widths[idx];
            if w <= 64 {
                out.insert(name.clone(), BitVecValue::from_u64(ci.words[idx], w));
            }
        }
        for (idx, v) in &ci.wides {
            out.insert(self.pin_names[*idx].clone(), v.clone());
        }
        out
    }

    /// Applies one cycle of stimulus to the RTL pins and the mapped ILA
    /// inputs.
    fn apply_inputs(&mut self, ci: &CycleInputs) {
        self.apply_rtl_inputs(ci);
        self.apply_ila_inputs(ci);
    }

    /// Applies one cycle of stimulus to the RTL pins only.
    fn apply_rtl_inputs(&mut self, ci: &CycleInputs) {
        for (idx, &x) in ci.words.iter().enumerate() {
            if self.rtl.input_is_word(idx) {
                self.rtl.set_input_word(idx, x);
            }
        }
        for (idx, v) in &ci.wides {
            self.rtl.set_input_bits(*idx, v);
        }
    }

    /// Applies one cycle of stimulus to the mapped ILA inputs only —
    /// all a stimulus *attempt* needs, since decode never reads RTL
    /// pins. The RTL pins are bound once a command is accepted.
    fn apply_ila_inputs(&mut self, ci: &CycleInputs) {
        for &(ila_idx, pin_idx) in &self.input_pairs {
            if self.ila.input_is_word(ila_idx) {
                self.ila.set_input_word(ila_idx, ci.words[pin_idx]);
            } else {
                let v = ci
                    .wides
                    .iter()
                    .find(|(i, _)| *i == pin_idx)
                    .expect("wide pin recorded");
                self.ila.set_input_value(ila_idx, &Value::Bv(v.1.clone()));
            }
        }
    }

    /// Compares every checked mapped state pair; returns the index of
    /// the first (in name order) that disagrees.
    fn compare(&self) -> Option<usize> {
        for (m_i, m) in self.mapped.iter().enumerate() {
            if m.unchecked {
                continue;
            }
            let ila_slot = self.ila.state_slot(m.ila_idx);
            let rtl_slot = self.rtl.signal_slot(m.sig_idx);
            let eq = match m.kind {
                CompareKind::Word => {
                    self.ila.program().read_word(self.ila.tape(), ila_slot)
                        == self.rtl.program().read_word(self.rtl.tape(), rtl_slot)
                }
                CompareKind::Wide => {
                    self.ila.program().read_wide(self.ila.tape(), ila_slot)
                        == self.rtl.program().read_wide(self.rtl.tape(), rtl_slot)
                }
                CompareKind::Mem => {
                    self.ila.program().read_mem(self.ila.tape(), ila_slot)
                        == self.rtl.program().read_mem(self.rtl.tape(), rtl_slot)
                }
            };
            if !eq {
                return Some(m_i);
            }
        }
        None
    }

    /// Resets both sides to `start_state` (full RTL state by name; the
    /// ILA re-bootstraps from the mapped view).
    pub(crate) fn reset(&mut self, start_state: &BTreeMap<String, Value>) -> Result<(), CosimError> {
        for (name, v) in start_state {
            self.rtl
                .set_state(name, v.clone())
                .map_err(|_| CosimError::UnknownRtlSignal(name.clone()))?;
        }
        self.bootstrap();
        Ok(())
    }

    /// Executes one recorded cycle: re-anchor, decode-and-commit the ILA,
    /// clock the RTL, compare. `Ok(Some(i))` reports a divergence on
    /// mapped state `i`.
    pub(crate) fn step_stream(
        &mut self,
        cycle: usize,
        ci: &CycleInputs,
    ) -> Result<Option<usize>, CosimError> {
        self.reanchor();
        self.apply_inputs(ci);
        match self.ila.decode_only() {
            Fired::One(i) => {
                self.ila.commit(i);
                self.last_fired = i;
            }
            Fired::None => return Err(CosimError::NoDecodableCommand { cycle }),
            Fired::Multiple => {
                return Err(CosimError::Sim(SimError::MultipleInstructions {
                    port: self.ila.port().name().to_string(),
                    instructions: self.ila.fired_names(),
                }))
            }
        }
        self.rtl.eval();
        self.rtl.commit();
        // The comparison view needs only the mapped signals under the
        // new state; the next-state cones wait for the next full eval.
        self.rtl.eval_signals();
        Ok(self.compare())
    }

    /// One complete random co-simulation run from `seed`: random start
    /// state, up to `cycles` commands, first divergence (if any) plus
    /// the number of cycles actually executed.
    pub(crate) fn run_random(
        &mut self,
        seed: u64,
        cycles: usize,
    ) -> Result<(Option<Divergence>, usize), CosimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..self.state_sorts.len() {
            let (name, sort) = {
                let (n, s) = &self.state_sorts[i];
                (n.clone(), *s)
            };
            let v = random_value(&mut rng, sort);
            self.rtl.set_state(&name, v).expect("known state");
        }
        let start_state = self.rtl.state();
        self.bootstrap();

        let mut history: Vec<CycleInputs> = Vec::new();
        let mut scratch = CycleInputs {
            words: vec![0; self.pin_widths.len()],
            wides: Vec::new(),
        };
        for cycle in 0..cycles {
            self.reanchor();
            let mut accepted = false;
            for _attempt in 0..64 {
                self.draw_inputs_into(&mut rng, &mut scratch);
                self.apply_ila_inputs(&scratch);
                match self.ila.decode_only() {
                    Fired::One(i) => {
                        self.ila.commit(i);
                        self.last_fired = i;
                        accepted = true;
                        break;
                    }
                    Fired::None => continue,
                    Fired::Multiple => {
                        return Err(CosimError::Sim(SimError::MultipleInstructions {
                            port: self.ila.port().name().to_string(),
                            instructions: self.ila.fired_names(),
                        }))
                    }
                }
            }
            if !accepted {
                return Err(CosimError::NoDecodableCommand { cycle });
            }
            self.apply_rtl_inputs(&scratch);
            self.rtl.eval();
            self.rtl.commit();
            self.rtl.eval_signals();
            history.push(scratch.clone());
            if let Some(m_i) = self.compare() {
                let d = self.divergence(cycle, m_i, &history, start_state);
                return Ok((Some(d), cycle + 1));
            }
        }
        Ok((None, cycles))
    }

    /// Materializes a [`Divergence`] for mapped state `m_i` at `cycle`.
    pub(crate) fn divergence(
        &self,
        cycle: usize,
        m_i: usize,
        history: &[CycleInputs],
        start_state: BTreeMap<String, Value>,
    ) -> Divergence {
        let m = &self.mapped[m_i];
        Divergence {
            cycle,
            instruction: self.ila.port().instructions()[self.last_fired].name.clone(),
            state: m.name.clone(),
            ila_value: self
                .ila
                .program()
                .read(self.ila.tape(), self.ila.state_slot(m.ila_idx)),
            rtl_value: self.rtl.signal_value(m.sig_idx),
            inputs: history.iter().map(|ci| self.materialize_inputs(ci)).collect(),
            start_state,
        }
    }
}

/// Co-simulates `port` against `rtl` on the compiled tape backend:
/// `cycles` random commands from `seed`, starting from a random state.
///
/// The contract matches [`crate::cosimulate`] — same start-state
/// distribution, same re-anchoring of unchecked states, same errors,
/// `Ok(Some(_))` at the first mapped-state disagreement — but stimulus
/// is drawn at word granularity for speed, so a given seed produces a
/// different (equally random) command stream than the interpreter.
///
/// # Errors
///
/// See [`CosimError`].
pub fn cosimulate_compiled(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    seed: u64,
    cycles: usize,
) -> Result<Option<Divergence>, CosimError> {
    let mut cs = CompiledCosim::new(port, rtl, map)?;
    cs.run_random(seed, cycles).map(|(d, _)| d)
}

/// Deterministically replays a recorded run — an RTL `start_state` plus
/// per-cycle input vectors, exactly what [`Divergence`] carries — on the
/// compiled backend, and reports the first divergence it reproduces.
///
/// # Errors
///
/// [`CosimError::NoDecodableCommand`] if some replayed cycle decodes no
/// instruction (streams edited by the shrinker can lose decodability);
/// otherwise as [`CosimError`].
pub fn replay_compiled(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    start_state: &BTreeMap<String, Value>,
    inputs: &[BTreeMap<String, BitVecValue>],
) -> Result<Option<Divergence>, CosimError> {
    let mut cs = CompiledCosim::new(port, rtl, map)?;
    cs.reset(start_state)?;
    let mut history: Vec<CycleInputs> = Vec::new();
    for (cycle, vec) in inputs.iter().enumerate() {
        let ci = cs.encode_inputs(vec);
        let diverged = cs.step_stream(cycle, &ci)?;
        history.push(ci);
        if let Some(m_i) = diverged {
            return Ok(Some(cs.divergence(cycle, m_i, &history, start_state.clone())));
        }
    }
    Ok(None)
}

/// Drives the interpreter and the compiled backend from **one shared
/// stimulus stream** (the interpreter's distribution) and cross-checks
/// them cycle by cycle: same fired instruction, same full ILA state,
/// same full RTL state, same divergence verdict.
///
/// Returns `Ok(None)` if all `cycles` cycles ran clean, and
/// `Ok(Some(cycle))` if both backends agree a genuine ILA-vs-RTL
/// divergence occurred at `cycle` (on the same state).
///
/// # Errors
///
/// `Err(description)` on any disagreement *between the backends* — the
/// compiled tape failing to mirror the interpreter — or on a setup
/// error.
pub fn cosim_differential(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    seed: u64,
    cycles: usize,
) -> Result<Option<usize>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rtl_sim = RtlSimulator::new(rtl);
    let mut cs = CompiledCosim::new(port, rtl, map).map_err(|e| format!("setup: {e}"))?;

    // Shared random start state.
    let state_names: Vec<String> = rtl_sim.state().keys().cloned().collect();
    for name in &state_names {
        let sort = rtl_sim.state()[name].sort();
        let v = random_value(&mut rng, sort);
        rtl_sim.set_state(name, v.clone()).expect("known state");
        cs.rtl.set_state(name, v).expect("known state");
    }

    let all_rtl_inputs: Vec<(String, u32)> = rtl
        .inputs()
        .iter()
        .map(|i| (i.name.clone(), i.width))
        .collect();
    let zero_inputs: BTreeMap<String, BitVecValue> = all_rtl_inputs
        .iter()
        .map(|(n, w)| (n.clone(), BitVecValue::zero(*w)))
        .collect();
    let read_state = |rtl_sim: &RtlSimulator,
                      inputs: &BTreeMap<String, BitVecValue>|
     -> Result<BTreeMap<String, Value>, String> {
        map.state_map
            .iter()
            .map(|(ila_state, rtl_signal)| {
                rtl_sim
                    .signal(rtl_signal, inputs)
                    .map(|v| (ila_state.clone(), v))
                    .map_err(|e| format!("signal {rtl_signal:?}: {e}"))
            })
            .collect()
    };

    // Interpreter bootstrap; the compiled side bootstraps itself.
    let start = read_state(&rtl_sim, &zero_inputs)?;
    let mut ila_state: BTreeMap<String, Value> = port
        .states()
        .iter()
        .map(|s| {
            let v = start
                .get(&s.name)
                .cloned()
                .unwrap_or_else(|| Value::zero(s.sort));
            (s.name.clone(), v)
        })
        .collect();
    cs.bootstrap();
    if cs.ila.state() != ila_state {
        return Err(format!(
            "bootstrap mismatch at seed {seed}: compiled {:?} vs interpreted {ila_state:?}",
            cs.ila.state()
        ));
    }

    for cycle in 0..cycles {
        // Interpreter re-anchor.
        for name in &map.unchecked_states {
            if let Some(rtl_signal) = map.state_map.get(name) {
                let v = rtl_sim
                    .signal(rtl_signal, &zero_inputs)
                    .map_err(|e| format!("signal {rtl_signal:?}: {e}"))?;
                ila_state.insert(name.clone(), v);
            }
        }
        cs.reanchor();
        let mut ila_sim = PortSimulator::with_state(port, ila_state.clone())
            .map_err(|e| format!("with_state: {e}"))?;

        let mut fired = None;
        let mut rtl_inputs = BTreeMap::new();
        for _attempt in 0..64 {
            rtl_inputs = all_rtl_inputs
                .iter()
                .map(|(n, w)| {
                    let bits: Vec<bool> = (0..*w).map(|_| rng.gen()).collect();
                    (n.clone(), BitVecValue::from_bits(&bits))
                })
                .collect();
            let mut ila_inputs = BTreeMap::new();
            for i in port.inputs() {
                let rtl_name = &map.interface_map[&i.name];
                ila_inputs.insert(i.name.clone(), Value::Bv(rtl_inputs[rtl_name].clone()));
            }
            let ci = cs.encode_inputs(&rtl_inputs);
            cs.apply_inputs(&ci);
            let compiled_fired = cs.ila.decode_only();
            match ila_sim.step(&ila_inputs) {
                Ok(name) => {
                    let Fired::One(idx) = compiled_fired else {
                        return Err(format!(
                            "cycle {cycle}: interpreter fired {name:?}, compiled {compiled_fired:?}"
                        ));
                    };
                    let compiled_name = &port.instructions()[idx].name;
                    if *compiled_name != name {
                        return Err(format!(
                            "cycle {cycle}: interpreter fired {name:?}, compiled fired {compiled_name:?}"
                        ));
                    }
                    cs.ila.commit(idx);
                    fired = Some(name);
                    break;
                }
                Err(SimError::NoInstruction { .. }) => {
                    if compiled_fired != Fired::None {
                        return Err(format!(
                            "cycle {cycle}: interpreter decoded nothing, compiled {compiled_fired:?}"
                        ));
                    }
                    continue;
                }
                Err(e) => return Err(format!("cycle {cycle}: interpreter step: {e}")),
            }
        }
        if fired.is_none() {
            return Err(format!("cycle {cycle}: no decodable command in 64 attempts"));
        }
        ila_state = ila_sim.state().clone();
        if cs.ila.state() != ila_state {
            return Err(format!(
                "cycle {cycle}: ILA state mismatch: compiled {:?} vs interpreted {ila_state:?}",
                cs.ila.state()
            ));
        }

        rtl_sim.step(&rtl_inputs).expect("all pins driven");
        cs.rtl.eval();
        cs.rtl.commit();
        if cs.rtl.state() != *rtl_sim.state() {
            return Err(format!(
                "cycle {cycle}: RTL state mismatch: compiled {:?} vs interpreted {:?}",
                cs.rtl.state(),
                rtl_sim.state()
            ));
        }
        cs.rtl.eval_signals();

        // Divergence verdicts must agree.
        let rtl_view = read_state(&rtl_sim, &rtl_inputs)?;
        let mut interp_diverged: Option<&String> = None;
        for (state, rtl_value) in &rtl_view {
            if map.unchecked_states.contains(state) {
                continue;
            }
            if &ila_state[state] != rtl_value {
                interp_diverged = Some(state);
                break;
            }
        }
        let compiled_diverged = cs.compare().map(|m_i| &cs.mapped[m_i].name);
        match (interp_diverged, compiled_diverged) {
            (None, None) => {}
            (Some(a), Some(b)) if a == b => return Ok(Some(cycle)),
            (a, b) => {
                return Err(format!(
                    "cycle {cycle}: divergence verdict mismatch: interpreter {a:?}, compiled {b:?}"
                ))
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_core::StateKind;
    use gila_rtl::parse_verilog;

    fn counter_setup(step: u64) -> (PortIla, RtlModule, RefinementMap) {
        let mut p = PortIla::new("counter");
        let en = p.input("en", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
        let d = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 8);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d).update("cnt", nx).add().unwrap();
        let d = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d).add().unwrap();
        let rtl = parse_verilog(&format!(
            r#"
module counter(clk, en_in);
  input clk; input en_in;
  reg [7:0] count;
  always @(posedge clk) if (en_in) count <= count + 8'd{step};
endmodule
"#
        ))
        .unwrap();
        let mut map = RefinementMap::new("counter");
        map.map_state("cnt", "count");
        map.map_input("en", "en_in");
        (p, rtl, map)
    }

    #[test]
    fn agreeing_pair_runs_clean() {
        let (p, rtl, map) = counter_setup(1);
        let d = cosimulate_compiled(&p, &rtl, &map, 1, 2000).unwrap();
        assert!(d.is_none(), "{d:?}");
    }

    #[test]
    fn divergence_is_located_and_replayable() {
        let (p, rtl, map) = counter_setup(2);
        let d = cosimulate_compiled(&p, &rtl, &map, 1, 500)
            .unwrap()
            .expect("must diverge");
        assert_eq!(d.state, "cnt");
        assert_eq!(d.instruction, "inc");
        assert_eq!(d.inputs.len(), d.cycle + 1);
        // The recorded stream replays to the same divergence.
        let r = replay_compiled(&p, &rtl, &map, &d.start_state, &d.inputs)
            .unwrap()
            .expect("replay reproduces");
        assert_eq!(r.cycle, d.cycle);
        assert_eq!(r.state, d.state);
        assert_eq!(r.ila_value, d.ila_value);
        assert_eq!(r.rtl_value, d.rtl_value);
    }

    #[test]
    fn config_errors_mirror_interpreter() {
        let (p, rtl, mut map) = counter_setup(1);
        map.interface_map.clear();
        assert!(matches!(
            cosimulate_compiled(&p, &rtl, &map, 1, 10),
            Err(CosimError::UnmappedInput(_))
        ));
        let (p, rtl, mut map) = counter_setup(1);
        map.map_state("cnt", "ghost");
        assert!(matches!(
            cosimulate_compiled(&p, &rtl, &map, 1, 10),
            Err(CosimError::UnknownRtlSignal(_))
        ));
    }

    #[test]
    fn differential_agrees_on_counter() {
        let (p, rtl, map) = counter_setup(1);
        for seed in 0..8 {
            let r = cosim_differential(&p, &rtl, &map, seed, 300).unwrap();
            assert_eq!(r, None);
        }
        // And both backends agree on the seeded bug.
        let (p, rtl, map) = counter_setup(2);
        let r = cosim_differential(&p, &rtl, &map, 1, 300).unwrap();
        assert!(r.is_some());
    }
}
