//! Instruction-level simulation of port- and module-ILAs.
//!
//! The simulator executes a model the way the operational semantics of
//! §III defines it: at each step, the instruction whose decode condition
//! holds for the presented command fires, and all its next-state
//! functions apply simultaneously. It is used for ILA-vs-RTL
//! co-simulation in tests and for exploring models in the examples.

use std::collections::BTreeMap;
use std::fmt;

use gila_expr::{eval, Env, EvalError, Sort, Value};

use crate::model::PortIla;
use crate::module::ModuleIla;

/// A concrete valuation of architectural states, by state name.
pub type StateMap = BTreeMap<String, Value>;

/// A concrete valuation of inputs, by input name.
pub type InputMap = BTreeMap<String, Value>;

/// An error during simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No instruction's decode condition held for the presented command
    /// (the model is incomplete for this input).
    NoInstruction {
        /// The port being stepped.
        port: String,
    },
    /// More than one atomic instruction triggered simultaneously
    /// (the model is nondeterministic).
    MultipleInstructions {
        /// The port being stepped.
        port: String,
        /// Names of all triggered instructions.
        instructions: Vec<String>,
    },
    /// A state or input value was missing or evaluation failed.
    Eval(
        /// The underlying evaluation error.
        EvalError,
    ),
    /// An input required by the port was not provided.
    MissingInput {
        /// The missing input's name.
        input: String,
    },
    /// A provided value has the wrong sort.
    SortMismatch {
        /// The variable name.
        name: String,
        /// Expected sort.
        expected: Sort,
        /// Provided sort.
        found: Sort,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoInstruction { port } => {
                write!(f, "no instruction triggered on port {port:?}")
            }
            SimError::MultipleInstructions { port, instructions } => write!(
                f,
                "multiple instructions triggered on port {port:?}: {instructions:?}"
            ),
            SimError::Eval(e) => write!(f, "evaluation failed: {e}"),
            SimError::MissingInput { input } => write!(f, "missing input {input:?}"),
            SimError::SortMismatch {
                name,
                expected,
                found,
            } => write!(f, "value for {name:?} has sort {found}, expected {expected}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

/// A simulator for one port-ILA.
///
/// # Examples
///
/// ```
/// use gila_core::{PortIla, PortSimulator, StateKind};
/// use gila_expr::{BitVecValue, Sort, Value};
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
/// let mut sim = PortSimulator::new(&p);
/// let mut inputs = std::collections::BTreeMap::new();
/// inputs.insert("en".to_string(), Value::Bv(BitVecValue::from_u64(1, 1)));
/// let fired = sim.step(&inputs)?;
/// assert_eq!(fired, "inc");
/// assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct PortSimulator<'a> {
    port: &'a PortIla,
    state: StateMap,
}

impl<'a> PortSimulator<'a> {
    /// Creates a simulator starting from the port's reset state
    /// (declared inits, or all-zero for states without one).
    pub fn new(port: &'a PortIla) -> Self {
        let state = port
            .states()
            .iter()
            .map(|s| {
                let v = s.init.clone().unwrap_or_else(|| Value::zero(s.sort));
                (s.name.clone(), v)
            })
            .collect();
        PortSimulator { port, state }
    }

    /// Creates a simulator starting from an explicit state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SortMismatch`] or [`SimError::MissingInput`]
    /// style errors if `state` does not cover every declared state with
    /// the right sort.
    pub fn with_state(port: &'a PortIla, state: StateMap) -> Result<Self, SimError> {
        for s in port.states() {
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
                _ => {}
            }
        }
        Ok(PortSimulator { port, state })
    }

    /// The current architectural state.
    pub fn state(&self) -> &StateMap {
        &self.state
    }

    /// Executes one step: decodes the command in `inputs`, fires the
    /// unique triggered instruction, and commits its updates. Returns the
    /// fired instruction's name.
    ///
    /// # Errors
    ///
    /// [`SimError::NoInstruction`] if no decode condition holds,
    /// [`SimError::MultipleInstructions`] if several do, plus input/sort
    /// errors.
    pub fn step(&mut self, inputs: &InputMap) -> Result<String, SimError> {
        let env = self.build_env(inputs)?;
        let ctx = self.port.ctx();
        let mut fired: Option<usize> = None;
        let mut all_fired = Vec::new();
        for (idx, instr) in self.port.instructions().iter().enumerate() {
            if eval(ctx, instr.decode, &env)?.as_bool() {
                all_fired.push(instr.name.clone());
                fired = Some(idx);
            }
        }
        match all_fired.len() {
            0 => Err(SimError::NoInstruction {
                port: self.port.name().to_string(),
            }),
            1 => {
                let instr = &self.port.instructions()[fired.expect("one fired")];
                // Evaluate all updates against the pre-state, then commit.
                let mut next = Vec::new();
                for (state, &expr) in &instr.updates {
                    next.push((state.clone(), eval(ctx, expr, &env)?));
                }
                for (state, v) in next {
                    self.state.insert(state, v);
                }
                Ok(instr.name.clone())
            }
            _ => Err(SimError::MultipleInstructions {
                port: self.port.name().to_string(),
                instructions: all_fired,
            }),
        }
    }

    fn build_env(&self, inputs: &InputMap) -> Result<Env, SimError> {
        let mut env = Env::new();
        for i in self.port.inputs() {
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
            env.bind(i.var, v.clone());
        }
        for s in self.port.states() {
            let v = self.state.get(&s.name).expect("state initialized");
            env.bind(s.var, v.clone());
        }
        Ok(env)
    }
}

/// A simulator for a whole module-ILA: steps every port against its own
/// slice of the module state. Ports are independent by construction
/// ([`ModuleIla::compose`] enforces it), so the order does not matter.
#[derive(Clone, Debug)]
pub struct ModuleSimulator<'a> {
    module: &'a ModuleIla,
    sims: Vec<PortSimulator<'a>>,
}

impl<'a> ModuleSimulator<'a> {
    /// Creates a simulator from the module's reset state.
    pub fn new(module: &'a ModuleIla) -> Self {
        let sims = module.ports().iter().map(PortSimulator::new).collect();
        ModuleSimulator { module, sims }
    }

    /// Steps every port; `inputs` must cover the inputs of all ports.
    /// Returns the fired instruction per port, in port order.
    ///
    /// # Errors
    ///
    /// Propagates the first per-port [`SimError`].
    pub fn step(&mut self, inputs: &InputMap) -> Result<Vec<String>, SimError> {
        self.sims.iter_mut().map(|s| s.step(inputs)).collect()
    }

    /// The union of all ports' architectural states.
    pub fn state(&self) -> StateMap {
        let mut out = StateMap::new();
        for s in &self.sims {
            out.extend(s.state().clone());
        }
        out
    }

    /// The module being simulated.
    pub fn module(&self) -> &ModuleIla {
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StateKind;
    use gila_expr::BitVecValue;

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
    fn counts_and_holds() {
        let p = counter();
        let mut sim = PortSimulator::new(&p);
        let mut inputs = InputMap::new();
        inputs.insert("en".into(), bv(1, 1));
        for _ in 0..5 {
            assert_eq!(sim.step(&inputs).unwrap(), "inc");
        }
        assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 5);
        inputs.insert("en".into(), bv(0, 1));
        assert_eq!(sim.step(&inputs).unwrap(), "hold");
        assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 5);
    }

    #[test]
    fn init_values_respected() {
        let mut p = counter();
        p.set_init("cnt", BitVecValue::from_u64(100, 8)).unwrap();
        let sim = PortSimulator::new(&p);
        assert_eq!(sim.state()["cnt"].as_bv().to_u64(), 100);
    }

    #[test]
    fn missing_input_reported() {
        let p = counter();
        let mut sim = PortSimulator::new(&p);
        let err = sim.step(&InputMap::new()).unwrap_err();
        assert_eq!(err, SimError::MissingInput { input: "en".into() });
    }

    #[test]
    fn wrong_sort_reported() {
        let p = counter();
        let mut sim = PortSimulator::new(&p);
        let mut inputs = InputMap::new();
        inputs.insert("en".into(), bv(1, 2));
        assert!(matches!(
            sim.step(&inputs).unwrap_err(),
            SimError::SortMismatch { .. }
        ));
    }

    #[test]
    fn incomplete_decode_detected() {
        let mut p = PortIla::new("partial");
        let x = p.input("x", Sort::Bv(2));
        p.state("s", Sort::Bv(2), StateKind::Output);
        let d = p.ctx_mut().eq_u64(x, 0);
        p.instr("only_zero").decode(d).add().unwrap();
        let mut sim = PortSimulator::new(&p);
        let mut inputs = InputMap::new();
        inputs.insert("x".into(), bv(3, 2));
        assert_eq!(
            sim.step(&inputs).unwrap_err(),
            SimError::NoInstruction {
                port: "partial".into()
            }
        );
    }

    #[test]
    fn overlapping_decode_detected() {
        let mut p = PortIla::new("overlap");
        let x = p.input("x", Sort::Bv(1));
        p.state("s", Sort::Bv(1), StateKind::Output);
        let d1 = p.ctx_mut().eq_u64(x, 1);
        p.instr("a").decode(d1).add().unwrap();
        let d2 = p.ctx_mut().tt();
        p.instr("b").decode(d2).add().unwrap();
        let mut sim = PortSimulator::new(&p);
        let mut inputs = InputMap::new();
        inputs.insert("x".into(), bv(1, 1));
        assert!(matches!(
            sim.step(&inputs).unwrap_err(),
            SimError::MultipleInstructions { .. }
        ));
    }

    #[test]
    fn updates_apply_simultaneously() {
        // swap: a' = b, b' = a — must read pre-state for both.
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
        let mut sim = PortSimulator::new(&p);
        let mut inputs = InputMap::new();
        inputs.insert("go".into(), bv(1, 1));
        sim.step(&inputs).unwrap();
        assert_eq!(sim.state()["a"].as_bv().to_u64(), 9);
        assert_eq!(sim.state()["b"].as_bv().to_u64(), 3);
    }

    #[test]
    fn module_simulator_steps_all_ports() {
        let c1 = counter();
        let mut c2 = PortIla::new("counter2");
        let en = c2.input("en2", Sort::Bv(1));
        let cnt = c2.state("cnt2", Sort::Bv(8), StateKind::Output);
        let d = c2.ctx_mut().eq_u64(en, 1);
        let two = c2.ctx_mut().bv_u64(2, 8);
        let nx = c2.ctx_mut().bvadd(cnt, two);
        c2.instr("inc2").decode(d).update("cnt2", nx).add().unwrap();
        let d = c2.ctx_mut().eq_u64(en, 0);
        c2.instr("hold2").decode(d).add().unwrap();

        let m = ModuleIla::compose("two_counters", vec![c1, c2]).unwrap();
        let mut sim = ModuleSimulator::new(&m);
        let mut inputs = InputMap::new();
        inputs.insert("en".into(), bv(1, 1));
        inputs.insert("en2".into(), bv(1, 1));
        let fired = sim.step(&inputs).unwrap();
        assert_eq!(fired, vec!["inc".to_string(), "inc2".to_string()]);
        let st = sim.state();
        assert_eq!(st["cnt"].as_bv().to_u64(), 1);
        assert_eq!(st["cnt2"].as_bv().to_u64(), 2);
    }
}
