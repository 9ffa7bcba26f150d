//! Symbolic transition systems over the gila expression language.

use std::collections::BTreeMap;
use std::fmt;

use gila_expr::{ExprCtx, ExprRef, Sort, Value};

/// An error while building a transition system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TsError {
    /// A name was declared twice.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A next-state expression or initial value has the wrong sort.
    SortMismatch {
        /// Where the mismatch occurred.
        context: String,
        /// Expected sort.
        expected: Sort,
        /// Found sort.
        found: Sort,
    },
    /// An unknown state was referenced.
    UnknownState {
        /// The state name.
        name: String,
    },
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::DuplicateName { name } => write!(f, "name {name:?} declared twice"),
            TsError::SortMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            TsError::UnknownState { name } => write!(f, "unknown state {name:?}"),
        }
    }
}

impl std::error::Error for TsError {}

/// A state or input variable of a transition system.
#[derive(Clone, Debug)]
pub struct TsVar {
    /// Name (unique across states and inputs).
    pub name: String,
    /// Sort.
    pub sort: Sort,
    /// Expression variable (current-cycle value).
    pub var: ExprRef,
}

/// A symbolic transition system: state variables with next-state
/// expressions, input variables, and initial values.
///
/// # Examples
///
/// ```
/// use gila_mc::TransitionSystem;
/// use gila_expr::Sort;
///
/// let mut ts = TransitionSystem::new("counter");
/// let en = ts.input("en", Sort::Bv(1));
/// let cnt = ts.state("cnt", Sort::Bv(8));
/// let one = ts.ctx_mut().bv_u64(1, 8);
/// let inc = ts.ctx_mut().bvadd(cnt, one);
/// let c = ts.ctx_mut().eq_u64(en, 1);
/// let next = ts.ctx_mut().ite(c, inc, cnt);
/// ts.set_next("cnt", next)?;
/// # Ok::<(), gila_mc::TsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TransitionSystem {
    name: String,
    ctx: ExprCtx,
    states: Vec<TsVar>,
    inputs: Vec<TsVar>,
    next: BTreeMap<String, ExprRef>,
    init: BTreeMap<String, Value>,
}

impl TransitionSystem {
    /// Creates an empty system.
    pub fn new(name: impl Into<String>) -> Self {
        TransitionSystem {
            name: name.into(),
            ctx: ExprCtx::new(),
            states: Vec::new(),
            inputs: Vec::new(),
            next: BTreeMap::new(),
            init: BTreeMap::new(),
        }
    }

    /// The system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expression context.
    pub fn ctx(&self) -> &ExprCtx {
        &self.ctx
    }

    /// Mutable access to the expression context.
    pub fn ctx_mut(&mut self) -> &mut ExprCtx {
        &mut self.ctx
    }

    fn has_name(&self, name: &str) -> bool {
        self.states.iter().any(|v| v.name == name) || self.inputs.iter().any(|v| v.name == name)
    }

    /// Declares a state variable; its next-state defaults to holding.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn state(&mut self, name: impl Into<String>, sort: Sort) -> ExprRef {
        let name = name.into();
        assert!(!self.has_name(&name), "duplicate declaration {name:?}");
        let var = self.ctx.var(name.clone(), sort);
        self.next.insert(name.clone(), var);
        self.states.push(TsVar { name, sort, var });
        var
    }

    /// Declares an input variable.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn input(&mut self, name: impl Into<String>, sort: Sort) -> ExprRef {
        let name = name.into();
        assert!(!self.has_name(&name), "duplicate declaration {name:?}");
        let var = self.ctx.var(name.clone(), sort);
        self.inputs.push(TsVar { name, sort, var });
        var
    }

    /// Sets a state's next-state expression.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::UnknownState`] / [`TsError::SortMismatch`].
    pub fn set_next(&mut self, name: &str, next: ExprRef) -> Result<(), TsError> {
        let sv = self
            .states
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| TsError::UnknownState {
                name: name.to_string(),
            })?;
        let found = self.ctx.sort_of(next);
        if found != sv.sort {
            return Err(TsError::SortMismatch {
                context: format!("next-state of {name:?}"),
                expected: sv.sort,
                found,
            });
        }
        self.next.insert(name.to_string(), next);
        Ok(())
    }

    /// Sets a state's initial value.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::UnknownState`] / [`TsError::SortMismatch`].
    pub fn set_init(&mut self, name: &str, value: impl Into<Value>) -> Result<(), TsError> {
        let value = value.into();
        let sv = self
            .states
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| TsError::UnknownState {
                name: name.to_string(),
            })?;
        if value.sort() != sv.sort {
            return Err(TsError::SortMismatch {
                context: format!("initial value of {name:?}"),
                expected: sv.sort,
                found: value.sort(),
            });
        }
        self.init.insert(name.to_string(), value);
        Ok(())
    }

    /// Declared states.
    pub fn states(&self) -> &[TsVar] {
        &self.states
    }

    /// Declared inputs.
    pub fn inputs(&self) -> &[TsVar] {
        &self.inputs
    }

    /// Next-state expression of a state.
    pub fn next_of(&self, name: &str) -> Option<ExprRef> {
        self.next.get(name).copied()
    }

    /// Initial value of a state, if declared.
    pub fn init_of(&self, name: &str) -> Option<&Value> {
        self.init.get(name)
    }

    /// Drops every state and input whose name is not in `keep`, along
    /// with the associated next-state expressions and initial values.
    /// The expression context is untouched, so handles into
    /// [`Self::ctx`] remain valid.
    pub(crate) fn retain_vars(&mut self, keep: &std::collections::BTreeSet<String>) {
        self.states.retain(|v| keep.contains(&v.name));
        self.inputs.retain(|v| keep.contains(&v.name));
        self.next.retain(|name, _| keep.contains(name));
        self.init.retain(|name, _| keep.contains(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gila_expr::BitVecValue;

    #[test]
    fn build_and_defaults() {
        let mut ts = TransitionSystem::new("t");
        let s = ts.state("s", Sort::Bv(4));
        assert_eq!(ts.next_of("s"), Some(s)); // default hold
        assert!(ts.init_of("s").is_none());
        ts.set_init("s", BitVecValue::from_u64(3, 4)).unwrap();
        assert!(ts.init_of("s").is_some());
    }

    #[test]
    fn errors() {
        let mut ts = TransitionSystem::new("t");
        ts.state("s", Sort::Bv(4));
        let bad = ts.ctx_mut().bv_u64(0, 8);
        assert!(matches!(
            ts.set_next("s", bad).unwrap_err(),
            TsError::SortMismatch { .. }
        ));
        assert!(matches!(
            ts.set_next("ghost", bad).unwrap_err(),
            TsError::UnknownState { .. }
        ));
        assert!(ts.set_init("s", BitVecValue::from_u64(0, 8)).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_panics() {
        let mut ts = TransitionSystem::new("t");
        ts.state("s", Sort::Bv(4));
        ts.input("s", Sort::Bv(4));
    }
}
