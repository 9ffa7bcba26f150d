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
use rand::{Rng, SeedableRng};

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
/// See [`CosimError`].
pub fn cosimulate(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    seed: u64,
    cycles: usize,
) -> Result<Option<Divergence>, CosimError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rtl_sim = RtlSimulator::new(rtl);
    // Random start state on the RTL side.
    let state_names: Vec<String> = rtl_sim.state().keys().cloned().collect();
    for name in &state_names {
        let sort = rtl_sim.state()[name].sort();
        let v = random_value(&mut rng, sort);
        rtl_sim.set_state(name, v).expect("known state");
    }
    let start_state = rtl_sim.state().clone();
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
     -> Result<BTreeMap<String, Value>, CosimError> {
        map.state_map
            .iter()
            .map(|(ila_state, rtl_signal)| {
                rtl_sim
                    .signal(rtl_signal, inputs)
                    .map(|v| (ila_state.clone(), v))
                    .map_err(|_| CosimError::UnknownRtlSignal(rtl_signal.clone()))
            })
            .collect()
    };

    // Bootstrap the ILA state from the mapped RTL view.
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

    let mut input_history: Vec<BTreeMap<String, BitVecValue>> = Vec::new();
    for cycle in 0..cycles {
        for name in &map.unchecked_states {
            if let Some(rtl_signal) = map.state_map.get(name) {
                let v = rtl_sim
                    .signal(rtl_signal, &zero_inputs)
                    .map_err(|_| CosimError::UnknownRtlSignal(rtl_signal.clone()))?;
                ila_state.insert(name.clone(), v);
            }
        }
        let mut ila_sim =
            PortSimulator::with_state(port, ila_state.clone()).map_err(CosimError::Sim)?;
        let mut fired = None;
        let mut rtl_inputs = BTreeMap::new();
        for _attempt in 0..64 {
            let mut ila_inputs = BTreeMap::new();
            rtl_inputs = all_rtl_inputs
                .iter()
                .map(|(n, w)| {
                    let bits: Vec<bool> = (0..*w).map(|_| rng.gen()).collect();
                    (n.clone(), BitVecValue::from_bits(&bits))
                })
                .collect();
            for i in port.inputs() {
                let rtl_name = map
                    .interface_map
                    .get(&i.name)
                    .ok_or_else(|| CosimError::UnmappedInput(i.name.clone()))?;
                let v = rtl_inputs
                    .get(rtl_name)
                    .ok_or_else(|| CosimError::UnknownRtlSignal(rtl_name.clone()))?
                    .clone();
                ila_inputs.insert(i.name.clone(), Value::Bv(v));
            }
            match ila_sim.step(&ila_inputs) {
                Ok(name) => {
                    fired = Some(name);
                    break;
                }
                Err(SimError::NoInstruction { .. }) => continue,
                Err(e) => return Err(CosimError::Sim(e)),
            }
        }
        let Some(fired) = fired else {
            return Err(CosimError::NoDecodableCommand { cycle });
        };
        input_history.push(rtl_inputs.clone());
        ila_state = ila_sim.state().clone();
        rtl_sim
            .step(&rtl_inputs)
            .expect("inputs cover all pins by construction");
        let rtl_view = read_state(&rtl_sim, &rtl_inputs)?;
        for (state, rtl_value) in &rtl_view {
            if map.unchecked_states.contains(state) {
                continue;
            }
            let ila_value = &ila_state[state];
            if ila_value != rtl_value {
                return Ok(Some(Divergence {
                    cycle,
                    instruction: fired,
                    state: state.clone(),
                    ila_value: ila_value.clone(),
                    rtl_value: rtl_value.clone(),
                    inputs: input_history,
                    start_state,
                }));
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
