//! Variables, literals, and the three-valued assignment domain.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable with a polarity.
///
/// Encoded as `var << 1 | positive`, so literals index watch lists directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a literal from a variable and polarity (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | positive as u32)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// The literal's index (for watch lists): `2*var + polarity`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its index.
    pub fn from_index(index: usize) -> Self {
        Lit(index as u32)
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_positive() { "" } else { "-" }, self.0 >> 1)
    }
}

/// A lifted boolean: true, false, or unassigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts from a concrete boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Converts to a boolean if assigned.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrip() {
        let v = Var(7);
        let p = v.positive();
        let n = v.negative();
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_index(p.index()), p);
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::False.to_bool(), Some(false));
        assert_eq!(LBool::Undef.to_bool(), None);
    }
}
