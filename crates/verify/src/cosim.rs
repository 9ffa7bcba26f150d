//! Simulation-based refinement testing: drive a port-ILA and an RTL
//! implementation with the same random command streams and compare the
//! refinement-mapped states after every cycle.
//!
//! This is the lightweight dynamic counterpart of [`crate::verify_port`]:
//! no proof, but millions of cycles per second, useful as a smoke check
//! while models are being written and as an independent oracle for the
//! SAT-based engine.

use std::collections::BTreeMap;
use std::fmt;

use gila_core::{PortIla, PortSimulator, SimError};
use gila_expr::{BitVecValue, MemValue, Sort, Value};
use gila_rtl::{RtlModule, RtlSimulator};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::refmap::RefinementMap;

/// A state divergence found by co-simulation.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The cycle at which the divergence appeared.
    pub cycle: usize,
    /// The instruction the ILA executed that cycle.
    pub instruction: String,
    /// The ILA state that disagrees.
    pub state: String,
    /// The ILA's value.
    pub ila_value: Value,
    /// The RTL's value.
    pub rtl_value: Value,
    /// The RTL input vectors driven on cycles `0..=cycle` — the exact
    /// command stream that reproduces this divergence.
    pub inputs: Vec<BTreeMap<String, BitVecValue>>,
    /// The RTL start state the run began from. Together with `inputs`
    /// this makes the divergence exactly replayable without the
    /// original RNG.
    pub start_state: BTreeMap<String, Value>,
}

impl Divergence {
    /// Renders the offending command stream in `gila sim` stimulus
    /// format: `# start name=value` header lines pinning the RTL start
    /// state, then one cycle per line of `name=0xHEX` pairs. Feeding the
    /// text back through `gila hunt --replay` reproduces the divergence
    /// exactly (the `# start` lines parse as comments everywhere else).
    pub fn command_stream(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.start_state {
            out.push_str(&format!("# start {name}={}\n", render_value(v)));
        }
        for (cycle, inputs) in self.inputs.iter().enumerate() {
            out.push_str(&format!("# cycle {cycle}\n"));
            let rendered: Vec<String> = inputs
                .iter()
                .map(|(name, v)| format!("{name}={}", render_bv(v)))
                .collect();
            out.push_str(&rendered.join(" "));
            out.push('\n');
        }
        out
    }
}

/// Renders a bit-vector as `0xHEX` (values fitting in 64 bits) or
/// `0bBITS` (msb first). Inverse of [`parse_bv`].
pub fn render_bv(v: &BitVecValue) -> String {
    match v.try_to_u64() {
        Some(x) => format!("0x{x:x}"),
        None => {
            let bits: String = v
                .to_bits()
                .iter()
                .rev()
                .map(|b| if *b { '1' } else { '0' })
                .collect();
            format!("0b{bits}")
        }
    }
}

/// Renders a [`Value`] in the command-stream format: booleans and
/// bit-vectors via [`render_bv`], memories as
/// `@DEFAULT{ADDR:DATA,...}`. Inverse of [`parse_value`].
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Bool(b) => format!("0x{}", u32::from(*b)),
        Value::Bv(bv) => render_bv(bv),
        Value::Mem(m) => {
            let writes: Vec<String> = m
                .iter_written()
                .map(|(a, d)| format!("0x{a:x}:{}", render_bv(d)))
                .collect();
            format!("@{}{{{}}}", render_bv(m.default_word()), writes.join(","))
        }
    }
}

/// Parses a [`render_bv`]-formatted literal to `width` bits (excess high
/// bits are truncated; missing high bits are zero).
pub fn parse_bv(s: &str, width: u32) -> Option<BitVecValue> {
    let v = if let Some(hex) = s.strip_prefix("0x") {
        BitVecValue::parse_hex(hex)?
    } else if let Some(bin) = s.strip_prefix("0b") {
        BitVecValue::parse_binary(bin)?
    } else {
        return None;
    };
    Some(match v.width().cmp(&width) {
        std::cmp::Ordering::Equal => v,
        std::cmp::Ordering::Less => v.zext(width),
        std::cmp::Ordering::Greater => v.extract(width - 1, 0),
    })
}

/// Parses a [`render_value`]-formatted literal against an expected
/// sort. Inverse of [`render_value`].
pub fn parse_value(s: &str, sort: Sort) -> Option<Value> {
    match sort {
        Sort::Bool => Some(Value::Bool(!parse_bv(s, 1)?.is_zero())),
        Sort::Bv(w) => Some(Value::Bv(parse_bv(s, w)?)),
        Sort::Mem {
            addr_width,
            data_width,
        } => {
            let body = s.strip_prefix('@')?;
            let (default, writes) = body.split_once('{')?;
            let writes = writes.strip_suffix('}')?;
            let mut m = MemValue::filled(addr_width, data_width, parse_bv(default, data_width)?);
            for pair in writes.split(',').filter(|p| !p.is_empty()) {
                let (addr, data) = pair.split_once(':')?;
                let addr = parse_bv(addr, addr_width)?;
                m = m.write(&addr, &parse_bv(data, data_width)?);
            }
            Some(Value::Mem(m))
        }
    }
}

/// A recorded command stream read back against an RTL module: the
/// start state its `# start` lines pin, and one input vector per cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommandStream {
    /// The RTL start state.
    pub start: BTreeMap<String, Value>,
    /// The RTL input vector of each cycle.
    pub inputs: Vec<BTreeMap<String, BitVecValue>>,
}

/// Why a command stream did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamError {
    /// The 1-based line at fault.
    pub line: usize,
    /// What is wrong with it.
    pub reason: String,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for StreamError {}

/// Parses [`Divergence::command_stream`] text against `rtl`: `# start
/// name=value` lines pin the RTL start state, other `#` lines are
/// comments, and every remaining line is one cycle of `pin=0xHEX`
/// input assignments. Inverse of [`Divergence::command_stream`].
///
/// # Errors
///
/// A [`StreamError`] for a malformed entry, an unknown RTL state or
/// input, or a literal that does not parse at the signal's sort.
pub fn parse_command_stream(text: &str, rtl: &RtlModule) -> Result<CommandStream, StreamError> {
    let state_sort = |name: &str| -> Option<Sort> {
        rtl.regs()
            .iter()
            .find(|r| r.name == name)
            .map(|r| Sort::Bv(r.width))
            .or_else(|| {
                rtl.mems().iter().find(|m| m.name == name).map(|m| Sort::Mem {
                    addr_width: m.addr_width,
                    data_width: m.data_width,
                })
            })
    };
    let mut stream = CommandStream::default();
    for (ln, line) in text.lines().enumerate() {
        let err = |reason: String| StreamError {
            line: ln + 1,
            reason,
        };
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("# start ") {
            let (name, v) = rest
                .split_once('=')
                .ok_or_else(|| err(format!("bad start entry {rest:?}")))?;
            let name = name.trim();
            let sort = state_sort(name).ok_or_else(|| err(format!("unknown RTL state {name:?}")))?;
            let v = parse_value(v.trim(), sort)
                .ok_or_else(|| err(format!("bad value for {name:?}")))?;
            stream.start.insert(name.to_string(), v);
        } else if t.is_empty() || t.starts_with('#') {
            continue;
        } else {
            let mut vec = BTreeMap::new();
            for tok in t.split_whitespace() {
                let (name, v) = tok
                    .split_once('=')
                    .ok_or_else(|| err(format!("bad stimulus token {tok:?}")))?;
                let width = rtl
                    .find_input(name)
                    .map(|i| i.width)
                    .ok_or_else(|| err(format!("unknown RTL input {name:?}")))?;
                let v = parse_bv(v, width).ok_or_else(|| err(format!("bad literal in {tok:?}")))?;
                vec.insert(name.to_string(), v);
            }
            stream.inputs.push(vec);
        }
    }
    Ok(stream)
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state {:?} diverged at cycle {} after {:?}: ila = {:?}, rtl = {:?}\n\
             offending command stream:\n{}",
            self.state,
            self.cycle,
            self.instruction,
            self.ila_value,
            self.rtl_value,
            self.command_stream()
        )
    }
}

/// An error during co-simulation setup or stepping.
#[derive(Clone, Debug)]
pub enum CosimError {
    /// An ILA input has no interface-map entry.
    UnmappedInput(
        /// The input's name.
        String,
    ),
    /// A refinement-mapped RTL signal does not exist.
    UnknownRtlSignal(
        /// The signal name.
        String,
    ),
    /// No instruction decoded for any of the attempted random commands
    /// (the port's command space is heavily constrained; seed the
    /// stimulus differently).
    NoDecodableCommand {
        /// The cycle where stimulus generation gave up.
        cycle: usize,
    },
    /// The model is nondeterministic or otherwise failed to step.
    Sim(
        /// The underlying simulator error.
        SimError,
    ),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::UnmappedInput(name) => {
                write!(f, "ILA input {name:?} has no interface-map entry")
            }
            CosimError::UnknownRtlSignal(name) => {
                write!(f, "RTL has no signal {name:?}")
            }
            CosimError::NoDecodableCommand { cycle } => {
                write!(f, "no decodable command found at cycle {cycle}")
            }
            CosimError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CosimError {}

/// A random bit-vector of `width` bits. Mostly uniform per-bit, but one
/// draw in eight lands on a boundary value — zero, all-ones, one, or
/// the sign bit alone — so narrow corner cases (carry out, sign
/// flips, wrap-around) appear at realistic rates even for wide vectors.
pub fn random_bv(rng: &mut impl Rng, width: u32) -> BitVecValue {
    if rng.gen_range(0..8u32) == 0 {
        match rng.gen_range(0..4u32) {
            0 => BitVecValue::zero(width),
            1 => BitVecValue::ones(width),
            2 => BitVecValue::one(width),
            _ => {
                let bits: Vec<bool> = (0..width).map(|i| i == width - 1).collect();
                BitVecValue::from_bits(&bits)
            }
        }
    } else {
        let bits: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
        BitVecValue::from_bits(&bits)
    }
}

/// A random [`Value`] of `sort`, boundary-biased via [`random_bv`].
/// Memories get eight writes over a zeroed array, always including the
/// lowest (`0`) and highest (`2^w - 1`) addresses so edge-of-address-
/// space behaviour is exercised. Shared with the randomized property
/// tests so expression-level checks draw environments from the same
/// distribution the co-simulator uses for states and inputs.
pub fn random_value(rng: &mut impl Rng, sort: Sort) -> Value {
    match sort {
        Sort::Bool => Value::Bool(rng.gen()),
        Sort::Bv(w) => Value::Bv(random_bv(rng, w)),
        Sort::Mem {
            addr_width,
            data_width,
        } => {
            let mut m = MemValue::zeroed(addr_width, data_width);
            m = m.write(&BitVecValue::zero(addr_width), &random_bv(rng, data_width));
            m = m.write(&BitVecValue::ones(addr_width), &random_bv(rng, data_width));
            for _ in 0..6 {
                let a = BitVecValue::from_u64(rng.gen(), addr_width);
                m = m.write(&a, &random_bv(rng, data_width));
            }
            Value::Mem(m)
        }
    }
}

/// Most random commands a run draws per cycle before it gives up with
/// [`CosimError::NoDecodableCommand`].
pub(crate) const ATTEMPTS: usize = 64;

/// The steps of the co-simulation contract over one pair of ILA and RTL
/// models: the interpreters ([`InterpCosim`]), the compiled tapes
/// (`CompiledCosim`) or both in lockstep (`Lockstep`). Only
/// [`cosim_loop`] sequences them. "Mapped state `m`" indexes the
/// backend's own compared states, which follow the map's name order.
pub(crate) trait CosimBackend {
    /// One cycle of RTL pin stimulus, in the backend's own form.
    type Stimulus: Clone + Default;
    /// What stops a run early.
    type Error: From<CosimError>;

    /// The RTL module being simulated.
    fn rtl_module(&self) -> &RtlModule;
    /// Redraws `stim` from the backend's own distribution.
    fn draw(&self, rng: &mut StdRng, stim: &mut Self::Stimulus);
    /// Sets the named RTL states, then bootstraps the ILA from the mapped
    /// RTL view under all-zero inputs (unmapped ILA states read zero).
    fn reset(&mut self, start: &BTreeMap<String, Value>) -> Result<(), Self::Error>;
    /// Copies the unchecked states from the RTL under all-zero inputs.
    fn reanchor(&mut self) -> Result<(), Self::Error>;
    /// Drives `stim` into the ILA inputs and decodes: `Some(i)` when
    /// instruction `i` alone fires, `None` when none does.
    fn offer(&mut self, stim: &Self::Stimulus) -> Result<Option<usize>, Self::Error>;
    /// Commits the instruction just offered, drives the RTL pins, clocks
    /// the RTL and evaluates the mapped signals.
    fn accept(&mut self, stim: &Self::Stimulus) -> Result<(), Self::Error>;
    /// The first checked mapped state whose ILA and RTL values differ.
    fn compare(&mut self) -> Result<Option<usize>, Self::Error>;
    /// The divergence on mapped state `m` after `history` was driven
    /// from `start_state`.
    fn divergence(
        &self,
        cycle: usize,
        m: usize,
        history: &[Self::Stimulus],
        start_state: BTreeMap<String, Value>,
    ) -> Divergence;
}

/// Where a run's stimulus comes from.
pub(crate) enum Drive<'r, S> {
    /// Up to [`ATTEMPTS`] random draws for each of `cycles` cycles; each
    /// accepted stimulus is appended to `history`.
    Random {
        rng: &'r mut StdRng,
        cycles: usize,
        history: &'r mut Vec<S>,
    },
    /// One recorded stimulus per cycle, which must decode.
    Stream(&'r [S]),
}

/// The co-simulation contract, written once: every cycle re-anchors,
/// finds a command that decodes, accepts it and compares. The backend
/// must be reset first. Returns the first divergence as `(cycle, mapped
/// state)`.
pub(crate) fn cosim_loop<B: CosimBackend>(
    b: &mut B,
    mut drive: Drive<'_, B::Stimulus>,
) -> Result<Option<(usize, usize)>, B::Error> {
    let cycles = match &drive {
        Drive::Random { cycles, .. } => *cycles,
        Drive::Stream(stream) => stream.len(),
    };
    // Random attempts redraw into one reused buffer.
    let mut scratch = B::Stimulus::default();
    for cycle in 0..cycles {
        b.reanchor()?;
        let (fired, stim) = match &mut drive {
            Drive::Random { rng, .. } => {
                let mut fired = None;
                for _ in 0..ATTEMPTS {
                    b.draw(rng, &mut scratch);
                    fired = b.offer(&scratch)?;
                    if fired.is_some() {
                        break;
                    }
                }
                (fired, &scratch)
            }
            Drive::Stream(stream) => (b.offer(&stream[cycle])?, &stream[cycle]),
        };
        if fired.is_none() {
            return Err(CosimError::NoDecodableCommand { cycle }.into());
        }
        b.accept(stim)?;
        if let Drive::Random { history, .. } = &mut drive {
            history.push(stim.clone());
        }
        if let Some(m) = b.compare()? {
            return Ok(Some((cycle, m)));
        }
    }
    Ok(None)
}

/// A random run from `seed`: a random RTL start state drawn in state-name
/// order, then up to `cycles` random commands. Returns the first
/// divergence and the number of cycles run.
pub(crate) fn run_random<B: CosimBackend>(
    b: &mut B,
    seed: u64,
    cycles: usize,
) -> Result<(Option<Divergence>, usize), B::Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let start: BTreeMap<String, Value> = RtlSimulator::new(b.rtl_module())
        .state()
        .iter()
        .map(|(name, v)| (name.clone(), random_value(&mut rng, v.sort())))
        .collect();
    b.reset(&start)?;
    let mut history = Vec::new();
    let drive = Drive::Random {
        rng: &mut rng,
        cycles,
        history: &mut history,
    };
    Ok(match cosim_loop(b, drive)? {
        Some((cycle, m)) => (Some(b.divergence(cycle, m, &history, start)), cycle + 1),
        None => (None, cycles),
    })
}

/// Replays a recorded run from `start` and returns the first divergence
/// it reproduces.
pub(crate) fn replay<B: CosimBackend>(
    b: &mut B,
    start: &BTreeMap<String, Value>,
    stream: &[B::Stimulus],
) -> Result<Option<Divergence>, B::Error> {
    b.reset(start)?;
    Ok(cosim_loop(b, Drive::Stream(stream))?
        .map(|(cycle, m)| b.divergence(cycle, m, &stream[..=cycle], start.clone())))
}

/// Checks `map` against both models before a run, and reports the first
/// fault in the order an interpreted run meets them: mapped RTL signals
/// in map order, mapped sorts in ILA declaration order, then input
/// mappings and input sorts in ILA input order. Returns `(ILA input, RTL
/// pin)` index pairs in ILA input order.
pub(crate) fn check_map(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
) -> Result<Vec<(usize, usize)>, CosimError> {
    let mut mapped_sorts = BTreeMap::new();
    for (ila_name, signal) in &map.state_map {
        let e = rtl
            .signal_expr(signal)
            .ok_or_else(|| CosimError::UnknownRtlSignal(signal.clone()))?;
        mapped_sorts.insert(ila_name.as_str(), rtl.ctx().sort_of(e));
    }
    let mismatch = |name: &str, expected: Sort, found: Sort| {
        CosimError::Sim(SimError::SortMismatch {
            name: name.to_string(),
            expected,
            found,
        })
    };
    for s in port.states() {
        if let Some(&found) = mapped_sorts.get(s.name.as_str()).filter(|&&f| f != s.sort) {
            return Err(mismatch(&s.name, s.sort, found));
        }
    }
    let mut pairs = Vec::new();
    for (idx, i) in port.inputs().iter().enumerate() {
        let rtl_name = map
            .interface_map
            .get(&i.name)
            .ok_or_else(|| CosimError::UnmappedInput(i.name.clone()))?;
        let pin = rtl
            .inputs()
            .iter()
            .position(|p| p.name == *rtl_name)
            .ok_or_else(|| CosimError::UnknownRtlSignal(rtl_name.clone()))?;
        pairs.push((idx, pin));
    }
    for &(idx, pin) in &pairs {
        let (i, found) = (&port.inputs()[idx], Sort::Bv(rtl.inputs()[pin].width));
        if i.sort != found {
            return Err(mismatch(&i.name, i.sort, found));
        }
    }
    Ok(pairs)
}

/// The interpreting backend: [`PortSimulator`] against [`RtlSimulator`]
/// over named maps, reading the refinement map as it goes. Every cycle
/// rebuilds the port simulator from the re-anchored state. Mapped state
/// `m` is the `m`-th entry of the map's state map.
pub(crate) struct InterpCosim<'a> {
    pub(crate) port: &'a PortIla,
    map: &'a RefinementMap,
    rtl: &'a RtlModule,
    pub(crate) rtl_sim: RtlSimulator<'a>,
    /// The ILA state as of the latest accept (or bootstrap).
    pub(crate) ila_state: BTreeMap<String, Value>,
    zero_inputs: BTreeMap<String, BitVecValue>,
    /// This cycle's ILA simulator, rebuilt by `reanchor`.
    ila_sim: PortSimulator<'a>,
    /// The instruction the latest offer decoded.
    fired: usize,
    /// The mapped RTL signals after the latest accept, by ILA state.
    rtl_view: BTreeMap<String, Value>,
}

impl<'a> InterpCosim<'a> {
    /// Wires up both interpreters after [`check_map`].
    pub(crate) fn new(
        port: &'a PortIla,
        rtl: &'a RtlModule,
        map: &'a RefinementMap,
    ) -> Result<Self, CosimError> {
        check_map(port, rtl, map)?;
        let rtl_sim = RtlSimulator::new(rtl);
        let zeros = rtl
            .inputs()
            .iter()
            .map(|i| (i.name.clone(), BitVecValue::zero(i.width)));
        Ok(InterpCosim {
            port,
            map,
            rtl,
            rtl_sim,
            ila_state: BTreeMap::new(),
            zero_inputs: zeros.collect(),
            ila_sim: PortSimulator::new(port),
            fired: 0,
            rtl_view: BTreeMap::new(),
        })
    }

    /// The ILA state name of mapped state `m`.
    pub(crate) fn mapped_name(&self, m: usize) -> &str {
        self.map.state_map.keys().nth(m).expect("mapped state")
    }

    fn read(&self, signal: &str, inputs: &BTreeMap<String, BitVecValue>) -> Value {
        let v = self.rtl_sim.signal(signal, inputs);
        v.expect("mapped signals checked")
    }
}

impl CosimBackend for InterpCosim<'_> {
    type Stimulus = BTreeMap<String, BitVecValue>;
    type Error = CosimError;

    fn rtl_module(&self) -> &RtlModule {
        self.rtl
    }

    /// One uniform bit per pin bit.
    fn draw(&self, rng: &mut StdRng, stim: &mut Self::Stimulus) {
        *stim = (self.rtl.inputs().iter())
            .map(|i| {
                let bits: Vec<bool> = (0..i.width).map(|_| rng.gen()).collect();
                (i.name.clone(), BitVecValue::from_bits(&bits))
            })
            .collect();
    }

    fn reset(&mut self, start: &BTreeMap<String, Value>) -> Result<(), CosimError> {
        for (name, v) in start {
            self.rtl_sim
                .set_state(name, v.clone())
                .map_err(|_| CosimError::UnknownRtlSignal(name.clone()))?;
        }
        self.ila_state = BTreeMap::new();
        for s in self.port.states() {
            let v = match self.map.state_map.get(&s.name) {
                Some(signal) => self.read(signal, &self.zero_inputs),
                None => Value::zero(s.sort),
            };
            self.ila_state.insert(s.name.clone(), v);
        }
        Ok(())
    }

    fn reanchor(&mut self) -> Result<(), CosimError> {
        for name in &self.map.unchecked_states {
            if let Some(signal) = self.map.state_map.get(name) {
                let v = self.read(signal, &self.zero_inputs);
                self.ila_state.insert(name.clone(), v);
            }
        }
        self.ila_sim = PortSimulator::with_state(self.port, self.ila_state.clone())
            .map_err(CosimError::Sim)?;
        Ok(())
    }

    fn offer(&mut self, stim: &Self::Stimulus) -> Result<Option<usize>, CosimError> {
        let mut ila_inputs = BTreeMap::new();
        for i in self.port.inputs() {
            let pin = &self.map.interface_map[&i.name];
            ila_inputs.insert(i.name.clone(), Value::Bv(stim[pin].clone()));
        }
        match self.ila_sim.step(&ila_inputs) {
            Ok(name) => {
                let mut instrs = self.port.instructions().iter();
                self.fired = instrs
                    .position(|i| i.name == name)
                    .expect("own instruction");
                Ok(Some(self.fired))
            }
            Err(SimError::NoInstruction { .. }) => Ok(None),
            Err(e) => Err(CosimError::Sim(e)),
        }
    }

    fn accept(&mut self, stim: &Self::Stimulus) -> Result<(), CosimError> {
        self.ila_state = self.ila_sim.state().clone();
        self.rtl_sim.step(stim).expect("stimulus drives every pin");
        let mapped = self.map.state_map.iter();
        self.rtl_view = mapped
            .map(|(s, signal)| (s.clone(), self.read(signal, stim)))
            .collect();
        Ok(())
    }

    fn compare(&mut self) -> Result<Option<usize>, CosimError> {
        let unchecked = &self.map.unchecked_states;
        Ok(self
            .rtl_view
            .iter()
            .position(|(s, rtl)| !unchecked.contains(s) && self.ila_state[s] != *rtl))
    }

    fn divergence(
        &self,
        cycle: usize,
        m: usize,
        history: &[Self::Stimulus],
        start_state: BTreeMap<String, Value>,
    ) -> Divergence {
        let state = self.mapped_name(m);
        Divergence {
            cycle,
            instruction: self.port.instructions()[self.fired].name.clone(),
            state: state.to_string(),
            ila_value: self.ila_state[state].clone(),
            rtl_value: self.rtl_view[state].clone(),
            inputs: history.to_vec(),
            start_state,
        }
    }
}

/// Co-simulates `port` against `rtl` for `cycles` random commands from
/// `seed`, starting from a random (consistent) state.
///
/// Returns `Ok(None)` if the mapped states agreed on every cycle,
/// `Ok(Some(divergence))` at the first disagreement.
///
/// States listed in the map's `unchecked_states` are re-anchored from
/// the RTL before every instruction and excluded from the comparison
/// (they belong to other ports).
///
/// # Errors
///
/// See [`CosimError`]. Configuration errors are reported before the
/// first cycle.
pub fn cosimulate(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    seed: u64,
    cycles: usize,
) -> Result<Option<Divergence>, CosimError> {
    run_random(&mut InterpCosim::new(port, rtl, map)?, seed, cycles).map(|(d, _)| d)
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
        let d = cosimulate(&p, &rtl, &map, 1, 500).unwrap();
        assert!(d.is_none(), "{d:?}");
    }

    #[test]
    fn divergence_is_located() {
        let (p, rtl, map) = counter_setup(2);
        let d = cosimulate(&p, &rtl, &map, 1, 500)
            .unwrap()
            .expect("must diverge");
        assert_eq!(d.state, "cnt");
        assert_eq!(d.instruction, "inc");
        assert_eq!(
            (d.rtl_value.as_bv().to_u64() + 255) % 256,
            d.ila_value.as_bv().to_u64()
        );
    }

    #[test]
    fn random_values_cover_boundaries() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD15);
        // Wide vectors: boundary draws must show up at a healthy rate —
        // per-bit sampling alone would essentially never produce them.
        let (mut zeros, mut ones, mut unit, mut sign) = (0u32, 0u32, 0u32, 0u32);
        const N: u32 = 4000;
        for _ in 0..N {
            let v = random_bv(&mut rng, 32);
            if v.is_zero() {
                zeros += 1;
            } else if v.is_ones() {
                ones += 1;
            } else if v.to_u64() == 1 {
                unit += 1;
            } else if v.to_u64() == 1 << 31 {
                sign += 1;
            }
        }
        for (what, n) in [("zero", zeros), ("ones", ones), ("one", unit), ("sign", sign)] {
            // Expected ~ N/32 each; demand at least a quarter of that.
            assert!(n >= N / 128, "boundary value {what} seen only {n} times");
        }
        // Memories: both ends of the address space are always written.
        for _ in 0..16 {
            let m = random_value(
                &mut rng,
                Sort::Mem {
                    addr_width: 16,
                    data_width: 8,
                },
            );
            let Value::Mem(m) = m else { unreachable!() };
            let written: Vec<u64> = m.iter_written().map(|(a, _)| a).collect();
            assert!(written.contains(&0), "no write at address 0");
            assert!(written.contains(&0xffff), "no write at the top address");
        }
    }

    #[test]
    fn command_stream_values_round_trip() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF00);
        let sorts = [
            Sort::Bool,
            Sort::Bv(1),
            Sort::Bv(8),
            Sort::Bv(64),
            Sort::Bv(100),
            Sort::Mem {
                addr_width: 8,
                data_width: 16,
            },
            Sort::Mem {
                addr_width: 4,
                data_width: 96,
            },
        ];
        for sort in sorts {
            for _ in 0..50 {
                let v = random_value(&mut rng, sort);
                let text = render_value(&v);
                let back = parse_value(&text, sort).expect("parses back");
                assert_eq!(back, v, "round-trip through {text:?}");
            }
        }
    }

    #[test]
    fn command_stream_parses_back_to_its_divergence() {
        use rand::{rngs::StdRng, SeedableRng};
        let rtl = parse_verilog(
            r#"
module m(clk, a, b);
  input clk; input [7:0] a; input [99:0] b;
  reg [15:0] r;
  reg [7:0] ram [0:15];
  always @(posedge clk) begin
    r <= r + a;
    ram[a[3:0]] <= b[7:0];
  end
endmodule
"#,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0x57E);
        for _ in 0..20 {
            let mut start = BTreeMap::new();
            start.insert("r".to_string(), random_value(&mut rng, Sort::Bv(16)));
            let ram = Sort::Mem {
                addr_width: 4,
                data_width: 8,
            };
            start.insert("ram".to_string(), random_value(&mut rng, ram));
            let inputs: Vec<BTreeMap<String, BitVecValue>> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    BTreeMap::from([
                        ("a".to_string(), random_bv(&mut rng, 8)),
                        ("b".to_string(), random_bv(&mut rng, 100)),
                    ])
                })
                .collect();
            let d = Divergence {
                cycle: inputs.len() - 1,
                instruction: "i".into(),
                state: "s".into(),
                ila_value: Value::Bool(false),
                rtl_value: Value::Bool(true),
                inputs: inputs.clone(),
                start_state: start.clone(),
            };
            let text = d.command_stream();
            let back = parse_command_stream(&text, &rtl).expect("parses back");
            assert_eq!(back, CommandStream { start, inputs }, "through {text:?}");
        }
        // A real divergence replays from its own stream too.
        let (p, rtl, map) = counter_setup(2);
        let d = cosimulate(&p, &rtl, &map, 1, 500).unwrap().expect("must diverge");
        let back = parse_command_stream(&d.command_stream(), &rtl).unwrap();
        assert_eq!((back.start, back.inputs), (d.start_state, d.inputs));
        // Errors name the line.
        let e = parse_command_stream("# cycle 0\nen_in=0x1\nghost=0x0\n", &rtl).unwrap_err();
        assert_eq!(e.to_string(), "line 3: unknown RTL input \"ghost\"");
        let e = parse_command_stream("# start count=zz\n", &rtl).unwrap_err();
        assert_eq!(e.to_string(), "line 1: bad value for \"count\"");
    }

    #[test]
    fn config_errors_are_reported() {
        let (p, rtl, mut map) = counter_setup(1);
        map.interface_map.clear();
        assert!(matches!(
            cosimulate(&p, &rtl, &map, 1, 10),
            Err(CosimError::UnmappedInput(_))
        ));
        let (p, rtl, mut map) = counter_setup(1);
        map.map_state("cnt", "ghost");
        assert!(matches!(
            cosimulate(&p, &rtl, &map, 1, 10),
            Err(CosimError::UnknownRtlSignal(_))
        ));
    }
}
