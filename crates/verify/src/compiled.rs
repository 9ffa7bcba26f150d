//! Compiled co-simulation: the port-ILA and the RTL module lowered once
//! into straight-line tapes (`gila-sim-compile`), stepped through the
//! co-simulation contract ([`crate::cosim::cosim_loop`]). This is the
//! backend behind `gila hunt`, [`cosimulate_compiled`] (the fast
//! counterpart of [`crate::cosimulate`], with its own word-granularity
//! stimulus stream), [`replay_compiled`] and the shrinker.
//! [`cosim_differential`] steps it in lockstep with the interpreter: the
//! soundness harness for this backend.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gila_core::{ModuleIla, PortIla, SimError};
use gila_expr::{BitVecValue, Sort, Value};
use gila_rtl::RtlModule;
use gila_sim_compile::{CompiledPortSim, CompiledRtlSim, Fired};
use rand::{rngs::StdRng, Rng};

use crate::cosim::{
    check_map, random_bv, replay, run_random, CommandStream, CosimBackend, CosimError, Divergence,
    InterpCosim,
};
use crate::refmap::RefinementMap;

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
#[derive(Clone, Debug, Default)]
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
    any_unchecked: bool,
    /// The instruction the latest offer decoded.
    last_fired: usize,
}

impl<'a> CompiledCosim<'a> {
    /// Compiles both sides after [`check_map`].
    pub(crate) fn new(
        port: &'a PortIla,
        rtl: &'a RtlModule,
        map: &'a RefinementMap,
    ) -> Result<Self, CosimError> {
        let input_pairs = check_map(port, rtl, map)?;
        let signals: Vec<String> = map.state_map.values().cloned().collect();
        let mut rtl_sim = CompiledRtlSim::new(rtl, &signals).expect("mapped signals checked");
        // The co-simulation loop always pairs eval with commit before
        // reading states or signals, so state moves are safe here.
        rtl_sim.enable_state_moves();

        let mut mapped = Vec::new();
        for (sig_idx, ila_name) in map.state_map.keys().enumerate() {
            let unchecked = map.unchecked_states.contains(ila_name);
            let Some(ila_idx) = port.states().iter().position(|s| s.name == *ila_name) else {
                // The interpreter re-anchors (and then ignores) unchecked
                // states the port doesn't declare; here they are dropped.
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
        Ok(CompiledCosim {
            ila: CompiledPortSim::new(port),
            rtl: rtl_sim,
            any_unchecked: mapped.iter().any(|m| m.unchecked),
            mapped,
            input_pairs,
            last_fired: 0,
        })
    }

    /// The ILA state name of mapped state `m`.
    pub(crate) fn mapped_name(&self, m: usize) -> &str {
        &self.mapped[m].name
    }

    /// Combined tape length of both sides (for statistics).
    pub(crate) fn tape_len(&self) -> usize {
        self.ila.program().len() + self.rtl.program().len()
    }

    /// Evaluates the mapped RTL signals under all-zero inputs and copies
    /// those that `pick` selects into the ILA state registers.
    fn copy_mapped(&mut self, pick: fn(&MappedState) -> bool) {
        for (idx, pin) in self.rtl.module().inputs().iter().enumerate() {
            if self.rtl.input_is_word(idx) {
                self.rtl.set_input_word(idx, 0);
            } else {
                self.rtl.set_input_bits(idx, &BitVecValue::zero(pin.width));
            }
        }
        self.rtl.eval_signals();
        for m_i in 0..self.mapped.len() {
            if pick(&self.mapped[m_i]) {
                self.copy_signal_to_ila(m_i);
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

    /// Encodes a named input vector (as `Divergence::inputs` carries)
    /// into tape form; absent pins drive zero.
    pub(crate) fn encode_inputs(&self, inputs: &BTreeMap<String, BitVecValue>) -> CycleInputs {
        let pins = self.rtl.module().inputs();
        let mut words = vec![0u64; pins.len()];
        let mut wides = Vec::new();
        for (idx, pin) in pins.iter().enumerate() {
            let w = pin.width;
            match inputs.get(&pin.name) {
                Some(v) if w <= 64 => words[idx] = v.to_u64() & (u64::MAX >> (64 - w)),
                Some(v) => wides.push((idx, v.clone())),
                None if w > 64 => wides.push((idx, BitVecValue::zero(w))),
                None => {}
            }
        }
        CycleInputs { words, wides }
    }

    /// Materializes tape-form stimulus back into the named-vector form.
    fn materialize_inputs(&self, ci: &CycleInputs) -> BTreeMap<String, BitVecValue> {
        let pins = self.rtl.module().inputs();
        let mut out = BTreeMap::new();
        for (idx, pin) in pins.iter().enumerate() {
            if pin.width <= 64 {
                let v = BitVecValue::from_u64(ci.words[idx], pin.width);
                out.insert(pin.name.clone(), v);
            }
        }
        for (idx, v) in &ci.wides {
            out.insert(pins[*idx].name.clone(), v.clone());
        }
        out
    }
}

impl CosimBackend for CompiledCosim<'_> {
    type Stimulus = CycleInputs;
    type Error = CosimError;

    fn rtl_module(&self) -> &RtlModule {
        self.rtl.module()
    }

    /// One RNG word per pin of width `<= 64`, boundary-biased bits for
    /// wider pins; a redraw allocates nothing on the word path.
    fn draw(&self, rng: &mut StdRng, ci: &mut CycleInputs) {
        let pins = self.rtl.module().inputs();
        ci.words.resize(pins.len(), 0);
        ci.wides.clear();
        for (idx, w) in pins.iter().map(|p| p.width).enumerate() {
            if w <= 64 {
                ci.words[idx] = rng.gen::<u64>() & (u64::MAX >> (64 - w));
            } else {
                ci.wides.push((idx, random_bv(rng, w)));
            }
        }
    }

    fn reset(&mut self, start: &BTreeMap<String, Value>) -> Result<(), CosimError> {
        for (name, v) in start {
            self.rtl
                .set_state(name, v.clone())
                .map_err(|_| CosimError::UnknownRtlSignal(name.clone()))?;
        }
        for (i, s) in self.ila.port().states().iter().enumerate() {
            self.ila.set_state_value(i, &Value::zero(s.sort));
        }
        self.copy_mapped(|_| true);
        Ok(())
    }

    fn reanchor(&mut self) -> Result<(), CosimError> {
        if self.any_unchecked {
            self.copy_mapped(|m| m.unchecked);
        }
        Ok(())
    }

    /// Binds only the mapped ILA inputs: decode never reads RTL pins, so
    /// those wait for [`CosimBackend::accept`].
    fn offer(&mut self, ci: &CycleInputs) -> Result<Option<usize>, CosimError> {
        for &(ila_idx, pin_idx) in &self.input_pairs {
            if self.ila.input_is_word(ila_idx) {
                self.ila.set_input_word(ila_idx, ci.words[pin_idx]);
            } else {
                let (_, v) = ci
                    .wides
                    .iter()
                    .find(|(i, _)| *i == pin_idx)
                    .expect("wide pin recorded");
                self.ila.set_input_value(ila_idx, &Value::Bv(v.clone()));
            }
        }
        match self.ila.decode_only() {
            Fired::One(i) => {
                self.last_fired = i;
                Ok(Some(i))
            }
            Fired::None => Ok(None),
            Fired::Multiple => Err(CosimError::Sim(SimError::MultipleInstructions {
                port: self.ila.port().name().to_string(),
                instructions: self.ila.fired_names(),
            })),
        }
    }

    fn accept(&mut self, ci: &CycleInputs) -> Result<(), CosimError> {
        self.ila.commit(self.last_fired);
        for (idx, &x) in ci.words.iter().enumerate() {
            if self.rtl.input_is_word(idx) {
                self.rtl.set_input_word(idx, x);
            }
        }
        for (idx, v) in &ci.wides {
            self.rtl.set_input_bits(*idx, v);
        }
        self.rtl.eval();
        self.rtl.commit();
        // The comparison view needs only the mapped signals under the
        // new state; the next-state cones wait for the next full eval.
        self.rtl.eval_signals();
        Ok(())
    }

    /// Same-bank register reads: sorts were checked equal up front.
    fn compare(&mut self) -> Result<Option<usize>, CosimError> {
        let (ila, rtl) = (&self.ila, &self.rtl);
        Ok(self.mapped.iter().position(|m| {
            if m.unchecked {
                return false;
            }
            let (ila_slot, rtl_slot) = (ila.state_slot(m.ila_idx), rtl.signal_slot(m.sig_idx));
            let (ip, it, rp, rt) = (ila.program(), ila.tape(), rtl.program(), rtl.tape());
            match m.kind {
                CompareKind::Word => ip.read_word(it, ila_slot) != rp.read_word(rt, rtl_slot),
                CompareKind::Wide => ip.read_wide(it, ila_slot) != rp.read_wide(rt, rtl_slot),
                CompareKind::Mem => ip.read_mem(it, ila_slot) != rp.read_mem(rt, rtl_slot),
            }
        }))
    }

    fn divergence(
        &self,
        cycle: usize,
        m: usize,
        history: &[CycleInputs],
        start_state: BTreeMap<String, Value>,
    ) -> Divergence {
        let m = &self.mapped[m];
        Divergence {
            cycle,
            instruction: self.ila.port().instructions()[self.last_fired].name.clone(),
            state: m.name.clone(),
            ila_value: self
                .ila
                .program()
                .read(self.ila.tape(), self.ila.state_slot(m.ila_idx)),
            rtl_value: self.rtl.signal_value(m.sig_idx),
            inputs: history
                .iter()
                .map(|ci| self.materialize_inputs(ci))
                .collect(),
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
    run_random(&mut CompiledCosim::new(port, rtl, map)?, seed, cycles).map(|(d, _)| d)
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
    let stream: Vec<CycleInputs> = inputs.iter().map(|v| cs.encode_inputs(v)).collect();
    replay(&mut cs, start_state, &stream)
}

/// Replays `stream` with [`replay_compiled`] on every port of `ila` that
/// has a map in `maps`, in port order, and returns the first port that
/// diverges together with its divergence. A port where the stream fails
/// to replay (a stream recorded at another port may decode nothing here)
/// counts as not diverging.
pub fn replay_ports<'a>(
    ila: &'a ModuleIla,
    rtl: &RtlModule,
    maps: &[RefinementMap],
    stream: &CommandStream,
) -> Option<(&'a PortIla, Divergence)> {
    ila.ports().iter().find_map(|port| {
        let map = maps.iter().find(|m| m.name == port.name())?;
        let d = replay_compiled(port, rtl, map, &stream.start, &stream.inputs).ok()??;
        Some((port, d))
    })
}

/// Why a [`Lockstep`] run stopped: either backend failed, or the two
/// disagreed.
struct Disagreement(String);

impl From<CosimError> for Disagreement {
    fn from(e: CosimError) -> Self {
        Disagreement(e.to_string())
    }
}

/// The interpreter and the compiled backend as one backend: it draws
/// with the interpreter's distribution, forwards every step to both
/// sides, and fails at the first step where they differ.
struct Lockstep<'a> {
    interp: InterpCosim<'a>,
    compiled: CompiledCosim<'a>,
    /// The compiled form of the stimulus last offered.
    ci: CycleInputs,
    /// The cycle being stepped.
    cycle: usize,
}

impl Lockstep<'_> {
    fn fail(&self, what: String) -> Disagreement {
        Disagreement(format!("cycle {}: {what}", self.cycle))
    }

    /// Fails unless both sides agree on `what`.
    fn same<T: PartialEq + Debug>(
        &self,
        what: &str,
        compiled: T,
        interp: T,
    ) -> Result<(), Disagreement> {
        if compiled == interp {
            return Ok(());
        }
        let what = format!("{what} mismatch: compiled {compiled:?} vs interpreted {interp:?}");
        Err(self.fail(what))
    }
}

impl CosimBackend for Lockstep<'_> {
    type Stimulus = BTreeMap<String, BitVecValue>;
    type Error = Disagreement;

    fn rtl_module(&self) -> &RtlModule {
        self.interp.rtl_module()
    }

    fn draw(&self, rng: &mut StdRng, stim: &mut Self::Stimulus) {
        self.interp.draw(rng, stim);
    }

    fn reset(&mut self, start: &BTreeMap<String, Value>) -> Result<(), Disagreement> {
        self.interp.reset(start)?;
        self.compiled.reset(start)?;
        self.cycle = 0;
        let ila = self.compiled.ila.state();
        self.same("ILA state", &ila, &self.interp.ila_state)
    }

    fn reanchor(&mut self) -> Result<(), Disagreement> {
        self.interp.reanchor()?;
        Ok(self.compiled.reanchor()?)
    }

    fn offer(&mut self, stim: &Self::Stimulus) -> Result<Option<usize>, Disagreement> {
        let interp = self.interp.offer(stim);
        let interp = interp.map_err(|e| self.fail(format!("interpreter step: {e}")))?;
        self.ci = self.compiled.encode_inputs(stim);
        match self.compiled.offer(&self.ci) {
            Ok(compiled) if compiled == interp => Ok(interp),
            compiled => {
                let name = |i: Option<usize>| i.map(|i| &self.interp.port.instructions()[i].name);
                let compiled = compiled.map(name);
                let interp = name(interp);
                let what = format!("interpreter fired {interp:?}, compiled {compiled:?}");
                Err(self.fail(what))
            }
        }
    }

    fn accept(&mut self, stim: &Self::Stimulus) -> Result<(), Disagreement> {
        self.interp.accept(stim)?;
        self.compiled.accept(&self.ci)?;
        let (ila, rtl) = (self.compiled.ila.state(), self.compiled.rtl.state());
        self.same("ILA state", &ila, &self.interp.ila_state)?;
        self.same("RTL state", &rtl, self.interp.rtl_sim.state())
    }

    fn compare(&mut self) -> Result<Option<usize>, Disagreement> {
        let interp = self.interp.compare()?;
        let compiled = self.compiled.compare()?;
        self.same(
            "divergence verdict",
            compiled.map(|m| self.compiled.mapped_name(m)),
            interp.map(|m| self.interp.mapped_name(m)),
        )?;
        self.cycle += 1;
        Ok(interp)
    }

    fn divergence(
        &self,
        cycle: usize,
        m: usize,
        history: &[Self::Stimulus],
        start_state: BTreeMap<String, Value>,
    ) -> Divergence {
        self.interp.divergence(cycle, m, history, start_state)
    }
}

/// Steps the interpreter and the compiled backend in lockstep from **one
/// shared stimulus stream** (the interpreter's distribution, as
/// [`crate::cosimulate`] draws it) and cross-checks them cycle by cycle:
/// same fired instruction, same full ILA state, same full RTL state, same
/// divergence verdict.
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
    let setup = |e: CosimError| format!("setup: {e}");
    let mut pair = Lockstep {
        interp: InterpCosim::new(port, rtl, map).map_err(setup)?,
        compiled: CompiledCosim::new(port, rtl, map).map_err(setup)?,
        ci: CycleInputs::default(),
        cycle: 0,
    };
    run_random(&mut pair, seed, cycles)
        .map(|(d, _)| d.map(|d| d.cycle))
        .map_err(|Disagreement(e)| e)
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

    #[test]
    fn lockstep_fails_at_the_first_disagreeing_cycle() {
        // The interpreter steps the right counter, the compiled side a
        // miscounting one: the RTL states part at the first `inc`, which
        // is where the interpreter alone diverges on the buggy counter.
        let (ip, irtl, imap) = counter_setup(1);
        let (cp, crtl, cmap) = counter_setup(2);
        for seed in 0..8 {
            let first_inc = crate::cosimulate(&cp, &crtl, &cmap, seed, 300)
                .unwrap()
                .expect("the buggy counter diverges")
                .cycle;
            let mut pair = Lockstep {
                interp: InterpCosim::new(&ip, &irtl, &imap).unwrap(),
                compiled: CompiledCosim::new(&cp, &crtl, &cmap).unwrap(),
                ci: CycleInputs::default(),
                cycle: 0,
            };
            let Err(Disagreement(e)) = run_random(&mut pair, seed, 300) else {
                panic!("seed {seed}: the lockstep missed a miscounting backend");
            };
            assert!(
                e.starts_with(&format!("cycle {first_inc}: RTL state mismatch")),
                "seed {seed}: {e}"
            );
        }
    }
}
