//! The port-ILA model type: architectural states, inputs, and
//! instructions with decode and next-state functions.

use std::collections::BTreeMap;
use std::fmt;

use gila_expr::{ExprCtx, ExprRef, Sort, Value};

/// Whether an architectural state is externally visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// An output state: drives module output pins (e.g. `rd_data`).
    Output,
    /// A non-output ("other") state: persistent across instructions but
    /// internal (e.g. `current_word`, `step`, `mem_wait`).
    Internal,
}

/// An architectural state variable of a port-ILA.
#[derive(Clone, Debug)]
pub struct StateVar {
    /// Name, unique within the port (and meaningful across ports: ports
    /// that declare a state with the same name *share* that state).
    pub name: String,
    /// Sort of the state.
    pub sort: Sort,
    /// Output vs internal.
    pub kind: StateKind,
    /// The expression-level variable standing for the pre-state value.
    pub var: ExprRef,
    /// Optional reset value.
    pub init: Option<Value>,
    /// Source line of the declaration, when parsed from a `.ila` file.
    pub line: Option<usize>,
}

/// An input pin (or pin group) of a port.
#[derive(Clone, Debug)]
pub struct InputVar {
    /// Name, unique within the port.
    pub name: String,
    /// Sort of the input.
    pub sort: Sort,
    /// The expression-level variable.
    pub var: ExprRef,
    /// Source line of the declaration, when parsed from a `.ila` file.
    pub line: Option<usize>,
}

/// One *atomic* instruction: a decode condition plus state updates.
///
/// Sub-instructions (the visible steps of a multi-step instruction) are
/// atomic instructions whose [`Instruction::parent`] names the logical
/// instruction they belong to. The cross-product integration of ports
/// with shared state operates at this atomic granularity, exactly as the
/// paper prescribes.
#[derive(Clone, Debug)]
pub struct Instruction {
    /// Name, unique within the port.
    pub name: String,
    /// For a sub-instruction, the name of the logical parent instruction.
    pub parent: Option<String>,
    /// Boolean trigger condition over the port's inputs and states.
    pub decode: ExprRef,
    /// Next-state functions; states not mentioned are unchanged.
    pub updates: BTreeMap<String, ExprRef>,
    /// Source line of the declaration, when parsed from a `.ila` file.
    pub line: Option<usize>,
}

/// An error while building a port-ILA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A name was declared twice.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// An instruction references an undeclared input or state.
    UnknownVar {
        /// The instruction being added.
        instruction: String,
        /// The undeclared variable.
        var: String,
    },
    /// An update targets an unknown state.
    UnknownState {
        /// The instruction being added.
        instruction: String,
        /// The unknown state name.
        state: String,
    },
    /// An update expression's sort does not match the state's sort.
    UpdateSortMismatch {
        /// The instruction being added.
        instruction: String,
        /// The state being updated.
        state: String,
        /// The state's sort.
        expected: Sort,
        /// The update expression's sort.
        found: Sort,
    },
    /// A decode expression is not boolean.
    DecodeNotBool {
        /// The instruction being added.
        instruction: String,
        /// The decode expression's sort.
        found: Sort,
    },
    /// A sub-instruction names a parent that does not exist.
    UnknownParent {
        /// The instruction being added.
        instruction: String,
        /// The missing parent name.
        parent: String,
    },
    /// An initial value's sort does not match the state's sort.
    InitSortMismatch {
        /// The state name.
        state: String,
        /// The state's sort.
        expected: Sort,
        /// The initial value's sort.
        found: Sort,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateName { name } => write!(f, "name {name:?} declared twice"),
            ModelError::UnknownVar { instruction, var } => write!(
                f,
                "instruction {instruction:?} references undeclared variable {var:?}"
            ),
            ModelError::UnknownState { instruction, state } => write!(
                f,
                "instruction {instruction:?} updates unknown state {state:?}"
            ),
            ModelError::UpdateSortMismatch {
                instruction,
                state,
                expected,
                found,
            } => write!(
                f,
                "instruction {instruction:?}: update of {state:?} has sort {found}, expected {expected}"
            ),
            ModelError::DecodeNotBool { instruction, found } => write!(
                f,
                "instruction {instruction:?}: decode has sort {found}, expected bool"
            ),
            ModelError::UnknownParent {
                instruction,
                parent,
            } => write!(
                f,
                "sub-instruction {instruction:?} names unknown parent {parent:?}"
            ),
            ModelError::InitSortMismatch {
                state,
                expected,
                found,
            } => write!(
                f,
                "initial value for {state:?} has sort {found}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// An ILA for one command interface (one *port*) of a hardware module.
///
/// A port groups the input pins that together present a command; each
/// valid command bit-pattern is an instruction. A module with a single
/// command interface is modeled as one port; multi-port modules compose
/// several (see [`crate::ModuleIla`] and [`crate::integrate`]).
///
/// # Examples
///
/// Modeling a trivial up-counter with `inc` / `hold` instructions:
///
/// ```
/// use gila_core::{PortIla, StateKind};
/// use gila_expr::Sort;
///
/// let mut p = PortIla::new("counter");
/// let en = p.input("en", Sort::Bv(1));
/// let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
/// let dec_inc = p.ctx_mut().eq_u64(en, 1);
/// let one = p.ctx_mut().bv_u64(1, 8);
/// let next = p.ctx_mut().bvadd(cnt, one);
/// p.instr("inc").decode(dec_inc).update("cnt", next).add()?;
/// let dec_hold = p.ctx_mut().eq_u64(en, 0);
/// p.instr("hold").decode(dec_hold).add()?;
/// assert_eq!(p.instructions().len(), 2);
/// # Ok::<(), gila_core::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PortIla {
    name: String,
    ctx: ExprCtx,
    inputs: Vec<InputVar>,
    states: Vec<StateVar>,
    instructions: Vec<Instruction>,
}

impl PortIla {
    /// Creates an empty port-ILA with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        PortIla {
            name: name.into(),
            ctx: ExprCtx::new(),
            inputs: Vec::new(),
            states: Vec::new(),
            instructions: Vec::new(),
        }
    }

    /// The port's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expression context holding all of this port's expressions.
    pub fn ctx(&self) -> &ExprCtx {
        &self.ctx
    }

    /// Mutable access to the expression context, for building decode and
    /// update expressions.
    pub fn ctx_mut(&mut self) -> &mut ExprCtx {
        &mut self.ctx
    }

    /// Declares an input pin (group) and returns its expression variable.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used by an input or state of this
    /// port (model construction is programmer-facing, so this fails fast).
    pub fn input(&mut self, name: impl Into<String>, sort: Sort) -> ExprRef {
        let name = name.into();
        assert!(
            !self.has_name(&name),
            "input {name:?} clashes with an existing declaration"
        );
        let var = self.ctx.var(name.clone(), sort);
        self.inputs.push(InputVar {
            name,
            sort,
            var,
            line: None,
        });
        var
    }

    /// Like [`PortIla::input`], tagging the declaration with a source
    /// line so diagnostics can point back into the `.ila` file.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used (see [`PortIla::input`]).
    pub fn input_at(&mut self, name: impl Into<String>, sort: Sort, line: usize) -> ExprRef {
        let var = self.input(name, sort);
        self.inputs.last_mut().expect("just pushed").line = Some(line);
        var
    }

    /// Declares an architectural state and returns its expression variable.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used.
    pub fn state(&mut self, name: impl Into<String>, sort: Sort, kind: StateKind) -> ExprRef {
        let name = name.into();
        assert!(
            !self.has_name(&name),
            "state {name:?} clashes with an existing declaration"
        );
        let var = self.ctx.var(name.clone(), sort);
        self.states.push(StateVar {
            name,
            sort,
            kind,
            var,
            init: None,
            line: None,
        });
        var
    }

    /// Like [`PortIla::state`], tagging the declaration with a source
    /// line so diagnostics can point back into the `.ila` file.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used (see [`PortIla::state`]).
    pub fn state_at(
        &mut self,
        name: impl Into<String>,
        sort: Sort,
        kind: StateKind,
        line: usize,
    ) -> ExprRef {
        let var = self.state(name, sort, kind);
        self.states.last_mut().expect("just pushed").line = Some(line);
        var
    }

    /// Sets the reset value of a state.
    ///
    /// # Errors
    ///
    /// Returns an error if the state is unknown or the value has the
    /// wrong sort.
    pub fn set_init(&mut self, state: &str, value: impl Into<Value>) -> Result<(), ModelError> {
        let value = value.into();
        let sv = self
            .states
            .iter_mut()
            .find(|s| s.name == state)
            .ok_or_else(|| ModelError::UnknownState {
                instruction: "<init>".into(),
                state: state.to_string(),
            })?;
        if value.sort() != sv.sort {
            return Err(ModelError::InitSortMismatch {
                state: state.to_string(),
                expected: sv.sort,
                found: value.sort(),
            });
        }
        sv.init = Some(value);
        Ok(())
    }

    fn has_name(&self, name: &str) -> bool {
        self.inputs.iter().any(|i| i.name == name) || self.states.iter().any(|s| s.name == name)
    }

    /// The declared inputs, in declaration order.
    pub fn inputs(&self) -> &[InputVar] {
        &self.inputs
    }

    /// The declared states, in declaration order.
    pub fn states(&self) -> &[StateVar] {
        &self.states
    }

    /// The atomic instructions, in declaration order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Looks up a state by name.
    pub fn find_state(&self, name: &str) -> Option<&StateVar> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Looks up an input by name.
    pub fn find_input(&self, name: &str) -> Option<&InputVar> {
        self.inputs.iter().find(|i| i.name == name)
    }

    /// Looks up an instruction by name.
    pub fn find_instruction(&self, name: &str) -> Option<&Instruction> {
        self.instructions.iter().find(|i| i.name == name)
    }

    /// Starts building an instruction with the given name.
    pub fn instr(&mut self, name: impl Into<String>) -> InstrBuilder<'_> {
        InstrBuilder {
            port: self,
            name: name.into(),
            parent: None,
            decode: None,
            updates: Vec::new(),
            line: None,
        }
    }

    /// Starts building a sub-instruction of `parent`.
    pub fn sub_instr(
        &mut self,
        name: impl Into<String>,
        parent: impl Into<String>,
    ) -> InstrBuilder<'_> {
        InstrBuilder {
            port: self,
            name: name.into(),
            parent: Some(parent.into()),
            decode: None,
            updates: Vec::new(),
            line: None,
        }
    }

    fn add_instruction(
        &mut self,
        name: String,
        parent: Option<String>,
        decode: ExprRef,
        updates: Vec<(String, ExprRef)>,
        line: Option<usize>,
    ) -> Result<(), ModelError> {
        if self.instructions.iter().any(|i| i.name == name) {
            return Err(ModelError::DuplicateName { name });
        }
        if let Some(p) = &parent {
            // Parents are either top-level instructions already added, or
            // purely logical groupings; require the referenced parent to
            // exist as an instruction OR as another sub-instruction group.
            let exists = self
                .instructions
                .iter()
                .any(|i| i.name == *p || i.parent.as_deref() == Some(p.as_str()));
            if !exists {
                return Err(ModelError::UnknownParent {
                    instruction: name,
                    parent: p.clone(),
                });
            }
        }
        if !self.ctx.sort_of(decode).is_bool() {
            return Err(ModelError::DecodeNotBool {
                instruction: name,
                found: self.ctx.sort_of(decode),
            });
        }
        // All referenced variables must be declared inputs or states.
        let mut roots = vec![decode];
        roots.extend(updates.iter().map(|(_, e)| *e));
        for v in self.ctx.vars_of(&roots) {
            let vname = self.ctx.var_name(v).expect("var node").to_string();
            if !self.has_name(&vname) {
                return Err(ModelError::UnknownVar {
                    instruction: name,
                    var: vname,
                });
            }
        }
        let mut map = BTreeMap::new();
        for (state, expr) in updates {
            let sv = self
                .find_state(&state)
                .ok_or_else(|| ModelError::UnknownState {
                    instruction: name.clone(),
                    state: state.clone(),
                })?;
            let found = self.ctx.sort_of(expr);
            if found != sv.sort {
                return Err(ModelError::UpdateSortMismatch {
                    instruction: name,
                    state,
                    expected: sv.sort,
                    found,
                });
            }
            if map.insert(state.clone(), expr).is_some() {
                return Err(ModelError::DuplicateName { name: state });
            }
        }
        self.instructions.push(Instruction {
            name,
            parent,
            decode,
            updates: map,
            line,
        });
        Ok(())
    }

    /// Number of *logical* instructions (atomic instructions that are not
    /// sub-instructions, plus one per distinct parent group).
    pub fn num_logical_instructions(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.parent.is_none())
            .count()
    }

    /// Number of atomic instructions (instructions + sub-instructions) —
    /// the unit the paper counts in Table I.
    pub fn num_atomic_instructions(&self) -> usize {
        self.instructions.len()
    }

    /// Total architectural state bits (memories count in full), as
    /// counted by the "# of Arch. State Bits" column in Table I.
    pub fn arch_state_bits(&self) -> u64 {
        self.states.iter().map(|s| s.sort.bit_count()).sum()
    }
}

/// Fluent builder for one instruction; created by [`PortIla::instr`] or
/// [`PortIla::sub_instr`], finished with [`InstrBuilder::add`].
#[derive(Debug)]
pub struct InstrBuilder<'a> {
    port: &'a mut PortIla,
    name: String,
    parent: Option<String>,
    decode: Option<ExprRef>,
    updates: Vec<(String, ExprRef)>,
    line: Option<usize>,
}

impl InstrBuilder<'_> {
    /// Sets the decode (trigger) condition.
    pub fn decode(mut self, decode: ExprRef) -> Self {
        self.decode = Some(decode);
        self
    }

    /// Adds a next-state function for `state`.
    pub fn update(mut self, state: impl Into<String>, expr: ExprRef) -> Self {
        self.updates.push((state.into(), expr));
        self
    }

    /// Tags the instruction with the source line of its declaration.
    pub fn at(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Validates and adds the instruction to the port.
    ///
    /// # Errors
    ///
    /// See [`ModelError`] for the conditions checked. A missing decode
    /// defaults to `true` (useful for "0-command" modules whose single
    /// `start` instruction is triggered by power-on).
    pub fn add(self) -> Result<(), ModelError> {
        let decode = match self.decode {
            Some(d) => d,
            None => self.port.ctx.tt(),
        };
        self.port
            .add_instruction(self.name, self.parent, decode, self.updates, self.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> PortIla {
        let mut p = PortIla::new("counter");
        let en = p.input("en", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
        let d1 = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 8);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d1).update("cnt", nx).add().unwrap();
        let d0 = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d0).add().unwrap();
        p
    }

    #[test]
    fn build_and_query() {
        let p = counter();
        assert_eq!(p.name(), "counter");
        assert_eq!(p.instructions().len(), 2);
        assert_eq!(p.arch_state_bits(), 8);
        assert_eq!(p.inputs().len(), 1);
        assert!(p.find_state("cnt").is_some());
        assert!(p.find_instruction("inc").is_some());
        assert!(p.find_instruction("dec").is_none());
    }

    #[test]
    fn duplicate_instruction_rejected() {
        let mut p = counter();
        let d = p.ctx_mut().tt();
        let err = p.instr("inc").decode(d).add().unwrap_err();
        assert!(matches!(err, ModelError::DuplicateName { .. }));
    }

    #[test]
    fn unknown_state_rejected() {
        let mut p = counter();
        let d = p.ctx_mut().tt();
        let v = p.ctx_mut().bv_u64(0, 8);
        let err = p.instr("bad").decode(d).update("nope", v).add().unwrap_err();
        assert!(matches!(err, ModelError::UnknownState { .. }));
    }

    #[test]
    fn sort_mismatch_rejected() {
        let mut p = counter();
        let d = p.ctx_mut().tt();
        let v = p.ctx_mut().bv_u64(0, 4);
        let err = p.instr("bad").decode(d).update("cnt", v).add().unwrap_err();
        assert!(matches!(err, ModelError::UpdateSortMismatch { .. }));
    }

    #[test]
    fn non_bool_decode_rejected() {
        let mut p = counter();
        let d = p.ctx_mut().bv_u64(1, 1);
        let err = p.instr("bad").decode(d).add().unwrap_err();
        assert!(matches!(err, ModelError::DecodeNotBool { .. }));
    }

    #[test]
    fn foreign_var_rejected() {
        let mut p = counter();
        let alien = p.ctx_mut().var("alien", Sort::Bool);
        let err = p.instr("bad").decode(alien).add().unwrap_err();
        assert!(matches!(err, ModelError::UnknownVar { .. }));
    }

    #[test]
    fn sub_instruction_parent_checked() {
        let mut p = counter();
        let d = p.ctx_mut().tt();
        let err = p.sub_instr("s0", "ghost").decode(d).add().unwrap_err();
        assert!(matches!(err, ModelError::UnknownParent { .. }));
        let d = p.ctx_mut().tt();
        p.sub_instr("s0", "inc").decode(d).add().unwrap();
        assert_eq!(p.num_logical_instructions(), 2);
        assert_eq!(p.num_atomic_instructions(), 3);
    }

    #[test]
    fn init_values() {
        let mut p = counter();
        p.set_init("cnt", gila_expr::BitVecValue::from_u64(0, 8)).unwrap();
        assert!(p.find_state("cnt").unwrap().init.is_some());
        let err = p
            .set_init("cnt", gila_expr::BitVecValue::from_u64(0, 4))
            .unwrap_err();
        assert!(matches!(err, ModelError::InitSortMismatch { .. }));
        assert!(p
            .set_init("ghost", gila_expr::BitVecValue::from_u64(0, 4))
            .is_err());
    }

    #[test]
    fn default_decode_is_true() {
        let mut p = PortIla::new("clockgen");
        let tick = p.state("tick", Sort::Bv(1), StateKind::Output);
        let nx = p.ctx_mut().bvnot(tick);
        p.instr("start").update("tick", nx).add().unwrap();
        let i = p.find_instruction("start").unwrap();
        assert_eq!(p.ctx().as_bool_const(i.decode), Some(true));
    }
}
