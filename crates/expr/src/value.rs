//! Arbitrary-width bit-vector values.
//!
//! [`BitVecValue`] is the concrete counterpart of the `Bv(w)` sort: a
//! two's-complement bit string of a fixed width `w >= 1`, stored as
//! little-endian 64-bit limbs. All operations keep the value *normalized*
//! (bits above `w` are zero), so `==` is semantic equality.

use std::fmt;

/// Number of bits per storage limb.
const LIMB_BITS: u32 = 64;

/// A fixed-width bit-vector value.
///
/// # Examples
///
/// ```
/// use gila_expr::BitVecValue;
///
/// let a = BitVecValue::from_u64(0xAB, 8);
/// let b = BitVecValue::from_u64(0x01, 8);
/// assert_eq!(a.add(&b).to_u64(), 0xAC);
/// assert_eq!(a.concat(&b).width(), 16);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVecValue {
    width: u32,
    limbs: Vec<u64>,
}

fn limbs_for(width: u32) -> usize {
    width.div_ceil(LIMB_BITS) as usize
}

impl BitVecValue {
    /// Creates a zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "bit-vector width must be positive");
        BitVecValue {
            width,
            limbs: vec![0; limbs_for(width)],
        }
    }

    /// Creates the value 1 of the given width.
    pub fn one(width: u32) -> Self {
        let mut v = Self::zero(width);
        v.limbs[0] = 1;
        v.normalize();
        v
    }

    /// Creates the all-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        let mut v = Self::zero(width);
        for l in &mut v.limbs {
            *l = u64::MAX;
        }
        v.normalize();
        v
    }

    /// Creates a value from the low bits of `x`, truncating to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn from_u64(x: u64, width: u32) -> Self {
        let mut v = Self::zero(width);
        v.limbs[0] = x;
        v.normalize();
        v
    }

    /// Creates a 1-bit value from a boolean.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(b as u64, 1)
    }

    /// Overwrites `self` with `src`, reusing the limb allocation when
    /// the limb counts match (the common case for same-width copies).
    fn clone_bits_from(&mut self, src: &BitVecValue) {
        self.width = src.width;
        if self.limbs.len() == src.limbs.len() {
            self.limbs.copy_from_slice(&src.limbs);
        } else {
            self.limbs.clear();
            self.limbs.extend_from_slice(&src.limbs);
        }
    }

    /// Creates a value from bits, least-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "bit-vector width must be positive");
        let mut v = Self::zero(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.limbs[i / LIMB_BITS as usize] |= 1u64 << (i as u32 % LIMB_BITS);
            }
        }
        v
    }

    /// Parses a binary string like `"1010"` (most-significant bit first).
    ///
    /// Returns `None` on empty input or non-binary characters
    /// (underscores are ignored).
    pub fn parse_binary(s: &str) -> Option<Self> {
        let digits: Vec<bool> = s
            .chars()
            .filter(|c| *c != '_')
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect::<Option<_>>()?;
        if digits.is_empty() {
            return None;
        }
        let lsb_first: Vec<bool> = digits.into_iter().rev().collect();
        Some(Self::from_bits(&lsb_first))
    }

    /// Parses a hexadecimal string like `"dead_beef"`; width is 4 bits per digit.
    pub fn parse_hex(s: &str) -> Option<Self> {
        let mut bits = Vec::new();
        for c in s.chars().filter(|c| *c != '_') {
            let d = c.to_digit(16)? as u64;
            for i in (0..4).rev() {
                bits.push((d >> i) & 1 == 1);
            }
        }
        if bits.is_empty() {
            return None;
        }
        let lsb_first: Vec<bool> = bits.into_iter().rev().collect();
        Some(Self::from_bits(&lsb_first))
    }

    /// The width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns bit `i` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        (self.limbs[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Returns the bits, least-significant first.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.width).map(|i| self.bit(i)).collect()
    }

    /// Returns the value as `u64`, truncating high bits if the width exceeds 64.
    pub fn to_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns the value as `u64` if it fits losslessly, else `None`.
    pub fn try_to_u64(&self) -> Option<u64> {
        if self.limbs[1..].iter().all(|&l| l == 0) {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True if every bit is one.
    pub fn is_ones(&self) -> bool {
        *self == Self::ones(self.width)
    }

    /// The sign (most-significant) bit.
    pub fn msb(&self) -> bool {
        self.bit(self.width - 1)
    }

    fn normalize(&mut self) {
        let rem = self.width % LIMB_BITS;
        if rem != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << rem) - 1;
        }
    }

    fn check_same_width(&self, other: &Self, op: &str) {
        assert_eq!(
            self.width, other.width,
            "width mismatch in {op}: {} vs {}",
            self.width, other.width
        );
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for l in &mut out.limbs {
            *l = !*l;
        }
        out.normalize();
        out
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&self, other: &Self) -> Self {
        self.check_same_width(other, "and");
        let mut out = self.clone();
        for (a, b) in out.limbs.iter_mut().zip(&other.limbs) {
            *a &= *b;
        }
        out
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&self, other: &Self) -> Self {
        self.check_same_width(other, "or");
        let mut out = self.clone();
        for (a, b) in out.limbs.iter_mut().zip(&other.limbs) {
            *a |= *b;
        }
        out
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&self, other: &Self) -> Self {
        self.check_same_width(other, "xor");
        let mut out = self.clone();
        for (a, b) in out.limbs.iter_mut().zip(&other.limbs) {
            *a ^= *b;
        }
        out
    }

    /// Wrapping addition. Panics on width mismatch.
    pub fn add(&self, other: &Self) -> Self {
        self.check_same_width(other, "add");
        let mut out = Self::zero(self.width);
        let mut carry = 0u64;
        for i in 0..self.limbs.len() {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.normalize();
        out
    }

    /// Wrapping subtraction. Panics on width mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Self {
        self.not().add(&Self::one(self.width))
    }

    /// Wrapping multiplication. Panics on width mismatch.
    pub fn mul(&self, other: &Self) -> Self {
        self.check_same_width(other, "mul");
        let n = self.limbs.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let mut carry: u128 = 0;
            if self.limbs[i] == 0 {
                continue;
            }
            for j in 0..n - i {
                let cur = acc[i + j] as u128
                    + (self.limbs[i] as u128) * (other.limbs[j] as u128)
                    + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        let mut out = BitVecValue {
            width: self.width,
            limbs: acc,
        };
        out.normalize();
        out
    }

    /// Unsigned division; division by zero yields all-ones (SMT-LIB semantics).
    pub fn udiv(&self, other: &Self) -> Self {
        self.check_same_width(other, "udiv");
        if other.is_zero() {
            return Self::ones(self.width);
        }
        self.udivrem(other).0
    }

    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB semantics).
    pub fn urem(&self, other: &Self) -> Self {
        self.check_same_width(other, "urem");
        if other.is_zero() {
            return self.clone();
        }
        self.udivrem(other).1
    }

    fn udivrem(&self, other: &Self) -> (Self, Self) {
        // Simple bit-serial long division; widths here are small (<= a few hundred bits).
        let mut q = Self::zero(self.width);
        let mut r = Self::zero(self.width);
        for i in (0..self.width).rev() {
            r = r.shl_amount(1);
            if self.bit(i) {
                r.limbs[0] |= 1;
            }
            if r.uge(other) {
                r = r.sub(other);
                q.limbs[(i / LIMB_BITS) as usize] |= 1u64 << (i % LIMB_BITS);
            }
        }
        (q, r)
    }

    fn shl_amount(&self, amount: u32) -> Self {
        let mut out = Self::zero(self.width);
        for i in 0..self.width {
            if i >= amount && self.bit(i - amount) {
                out.limbs[(i / LIMB_BITS) as usize] |= 1u64 << (i % LIMB_BITS);
            }
        }
        out
    }

    fn lshr_amount(&self, amount: u32) -> Self {
        let mut out = Self::zero(self.width);
        for i in 0..self.width {
            if i + amount < self.width && self.bit(i + amount) {
                out.limbs[(i / LIMB_BITS) as usize] |= 1u64 << (i % LIMB_BITS);
            }
        }
        out
    }

    /// Logical left shift; the shift amount is the unsigned value of `other`.
    pub fn shl(&self, other: &Self) -> Self {
        match other.try_to_u64() {
            Some(n) if n < self.width as u64 => self.shl_amount(n as u32),
            _ => Self::zero(self.width),
        }
    }

    /// Logical right shift.
    pub fn lshr(&self, other: &Self) -> Self {
        match other.try_to_u64() {
            Some(n) if n < self.width as u64 => self.lshr_amount(n as u32),
            _ => Self::zero(self.width),
        }
    }

    /// Arithmetic right shift (sign-extending).
    pub fn ashr(&self, other: &Self) -> Self {
        let sign = self.msb();
        let fill = if sign {
            Self::ones(self.width)
        } else {
            Self::zero(self.width)
        };
        match other.try_to_u64() {
            Some(n) if n < self.width as u64 => {
                let n = n as u32;
                let shifted = self.lshr_amount(n);
                if sign && n > 0 {
                    let high = Self::ones(self.width).shl_amount(self.width - n);
                    shifted.or(&high)
                } else {
                    shifted
                }
            }
            _ => fill,
        }
    }

    /// Concatenation: `self` provides the high bits, `other` the low bits.
    pub fn concat(&self, other: &Self) -> Self {
        let mut bits = other.to_bits();
        bits.extend(self.to_bits());
        Self::from_bits(&bits)
    }

    /// Extracts bits `hi..=lo` (inclusive, little-endian indices).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= self.width()`.
    pub fn extract(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "extract hi {hi} < lo {lo}");
        assert!(hi < self.width, "extract hi {hi} out of range for width {}", self.width);
        let bits: Vec<bool> = (lo..=hi).map(|i| self.bit(i)).collect();
        Self::from_bits(&bits)
    }

    /// Zero-extends to `to` bits.
    ///
    /// # Panics
    ///
    /// Panics if `to < self.width()`.
    pub fn zext(&self, to: u32) -> Self {
        assert!(to >= self.width, "zext target {to} narrower than width {}", self.width);
        let mut out = Self::zero(to);
        for (i, l) in self.limbs.iter().enumerate() {
            out.limbs[i] = *l;
        }
        out
    }

    /// Sign-extends to `to` bits.
    ///
    /// # Panics
    ///
    /// Panics if `to < self.width()`.
    pub fn sext(&self, to: u32) -> Self {
        assert!(to >= self.width, "sext target {to} narrower than width {}", self.width);
        let mut out = self.zext(to);
        if self.msb() {
            for i in self.width..to {
                out.limbs[(i / LIMB_BITS) as usize] |= 1u64 << (i % LIMB_BITS);
            }
        }
        out
    }

    /// Unsigned less-than.
    pub fn ult(&self, other: &Self) -> bool {
        self.check_same_width(other, "ult");
        for i in (0..self.limbs.len()).rev() {
            if self.limbs[i] != other.limbs[i] {
                return self.limbs[i] < other.limbs[i];
            }
        }
        false
    }

    /// Unsigned less-or-equal.
    pub fn ule(&self, other: &Self) -> bool {
        !other.ult(self)
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&self, other: &Self) -> bool {
        other.ule(self)
    }

    /// Unsigned greater-than.
    pub fn ugt(&self, other: &Self) -> bool {
        other.ult(self)
    }

    /// Signed less-than (two's complement).
    pub fn slt(&self, other: &Self) -> bool {
        self.check_same_width(other, "slt");
        match (self.msb(), other.msb()) {
            (true, false) => true,
            (false, true) => false,
            _ => self.ult(other),
        }
    }

    /// Signed less-or-equal.
    pub fn sle(&self, other: &Self) -> bool {
        !other.slt(self)
    }
}

impl fmt::Debug for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::Display for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::LowerHex for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.width.div_ceil(4);
        let mut s = String::with_capacity(digits as usize);
        for d in (0..digits).rev() {
            let lo = d * 4;
            let hi = (lo + 3).min(self.width - 1);
            let nib = self.extract(hi, lo).to_u64();
            s.push(char::from_digit(nib as u32, 16).expect("nibble"));
        }
        f.write_str(&s)
    }
}

impl fmt::Binary for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(self.width as usize);
        for i in (0..self.width).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        f.write_str(&s)
    }
}

/// A concrete memory value: a total map from addresses to data words.
///
/// Represented sparsely as a default word plus overrides, so 2^16-word
/// memories stay cheap to copy during simulation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemValue {
    addr_width: u32,
    data_width: u32,
    default: BitVecValue,
    written: std::collections::BTreeMap<u64, BitVecValue>,
}

impl MemValue {
    /// Creates a memory with every word equal to `default`.
    ///
    /// # Panics
    ///
    /// Panics if `default.width() != data_width` or `addr_width == 0` or
    /// `addr_width > 32`.
    pub fn filled(addr_width: u32, data_width: u32, default: BitVecValue) -> Self {
        assert!(addr_width > 0 && addr_width <= 32, "unsupported addr width {addr_width}");
        assert_eq!(default.width(), data_width, "default word width mismatch");
        MemValue {
            addr_width,
            data_width,
            default,
            written: Default::default(),
        }
    }

    /// Creates an all-zero memory.
    pub fn zeroed(addr_width: u32, data_width: u32) -> Self {
        Self::filled(addr_width, data_width, BitVecValue::zero(data_width))
    }

    /// Address width in bits.
    pub fn addr_width(&self) -> u32 {
        self.addr_width
    }

    /// Data width in bits.
    pub fn data_width(&self) -> u32 {
        self.data_width
    }

    /// Reads the word at `addr` (only the low `addr_width` bits of `addr` are used).
    pub fn read(&self, addr: &BitVecValue) -> BitVecValue {
        let key = addr.to_u64() & ((1u64 << self.addr_width) - 1);
        self.written.get(&key).cloned().unwrap_or_else(|| self.default.clone())
    }

    /// Reads the word at a raw address (only the low `addr_width` bits
    /// are used). Allocation-free counterpart of [`MemValue::read`] for
    /// the compiled simulation tape.
    pub fn read_word(&self, addr: u64) -> &BitVecValue {
        let key = addr & ((1u64 << self.addr_width) - 1);
        self.written.get(&key).unwrap_or(&self.default)
    }

    /// Returns a new memory with `data` stored at a raw address (only
    /// the low `addr_width` bits are used).
    ///
    /// # Panics
    ///
    /// Panics if `data.width() != self.data_width()`.
    pub fn write_word(&self, addr: u64, data: BitVecValue) -> Self {
        assert_eq!(data.width(), self.data_width, "memory write width mismatch");
        let key = addr & ((1u64 << self.addr_width) - 1);
        let mut out = self.clone();
        out.written.insert(key, data);
        out
    }

    /// Overwrites `self` with `src`'s contents, reusing `self`'s
    /// allocations where possible: entries at addresses both maps carry
    /// are updated in place. The compiled simulation tape uses this for
    /// register copies whose destination usually holds last cycle's
    /// near-identical map, making the steady state allocation-free.
    pub fn copy_from(&mut self, src: &MemValue) {
        self.addr_width = src.addr_width;
        self.data_width = src.data_width;
        self.default.clone_bits_from(&src.default);
        // Fast path: identical key sets (the steady state — the tape
        // copies a register over last cycle's version of the same map)
        // need one parallel walk and no per-key lookups. A partial copy
        // before a key mismatch is harmless: the general path below
        // rewrites every entry it keeps.
        if self.written.len() == src.written.len() {
            let mut same = true;
            for ((dk, dv), (sk, sv)) in self.written.iter_mut().zip(src.written.iter()) {
                if dk != sk {
                    same = false;
                    break;
                }
                dv.clone_bits_from(sv);
            }
            if same {
                return;
            }
        }
        self.written.retain(|k, _| src.written.contains_key(k));
        for (k, v) in &src.written {
            match self.written.entry(*k) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().clone_bits_from(v)
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }
    }

    /// Stores a word-sized value at a raw address in place, masked to
    /// the data width. Allocation-free when the address was already
    /// written — the hot store path of the compiled simulation tape,
    /// which pairs it with a register move instead of a functional
    /// [`MemValue::write_word`] copy.
    ///
    /// # Panics
    ///
    /// Panics if `self.data_width() > 64`.
    pub fn write_word_mut(&mut self, addr: u64, data: u64) {
        assert!(self.data_width <= 64, "word write to wide memory");
        let key = addr & ((1u64 << self.addr_width) - 1);
        let masked = if self.data_width == 64 {
            data
        } else {
            data & ((1u64 << self.data_width) - 1)
        };
        match self.written.entry(key) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().limbs[0] = masked,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(BitVecValue::from_u64(masked, self.data_width));
            }
        }
    }

    /// Returns a new memory with `data` stored at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `data.width() != self.data_width()`.
    pub fn write(&self, addr: &BitVecValue, data: &BitVecValue) -> Self {
        assert_eq!(data.width(), self.data_width, "memory write width mismatch");
        let key = addr.to_u64() & ((1u64 << self.addr_width) - 1);
        let mut out = self.clone();
        out.written.insert(key, data.clone());
        out
    }

    /// Iterates over explicitly written (address, word) pairs.
    pub fn iter_written(&self) -> impl Iterator<Item = (u64, &BitVecValue)> {
        self.written.iter().map(|(k, v)| (*k, v))
    }

    /// The default word for unwritten addresses.
    pub fn default_word(&self) -> &BitVecValue {
        &self.default
    }

    /// Extensional equality: same widths and the same word at every
    /// address. Unlike `==`, which compares representations, this holds
    /// for memories that store the same words in different ways (an
    /// explicit entry equal to the default, or different defaults under
    /// a fully written address space).
    pub fn same_contents(&self, other: &MemValue) -> bool {
        if (self.addr_width, self.data_width) != (other.addr_width, other.data_width) {
            return false;
        }
        let mut covered = 0u64;
        for &a in self.written.keys() {
            if self.read_word(a) != other.read_word(a) {
                return false;
            }
            covered += 1;
        }
        for &a in other.written.keys() {
            if self.written.contains_key(&a) {
                continue;
            }
            if self.read_word(a) != other.read_word(a) {
                return false;
            }
            covered += 1;
        }
        // Addresses neither side wrote read the two defaults.
        covered >= 1u64 << self.addr_width || self.default == other.default
    }
}

/// A concrete value of any sort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A bit-vector.
    Bv(BitVecValue),
    /// A memory.
    Mem(MemValue),
}

impl Value {
    /// Extracts a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a boolean.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool value, got {other:?}"),
        }
    }

    /// Extracts a bit-vector.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a bit-vector.
    pub fn as_bv(&self) -> &BitVecValue {
        match self {
            Value::Bv(v) => v,
            other => panic!("expected bit-vector value, got {other:?}"),
        }
    }

    /// Extracts a memory.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a memory.
    pub fn as_mem(&self) -> &MemValue {
        match self {
            Value::Mem(m) => m,
            other => panic!("expected memory value, got {other:?}"),
        }
    }

    /// The sort of this value.
    pub fn sort(&self) -> crate::Sort {
        match self {
            Value::Bool(_) => crate::Sort::Bool,
            Value::Bv(v) => crate::Sort::Bv(v.width()),
            Value::Mem(m) => crate::Sort::Mem {
                addr_width: m.addr_width(),
                data_width: m.data_width(),
            },
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<BitVecValue> for Value {
    fn from(v: BitVecValue) -> Self {
        Value::Bv(v)
    }
}

impl From<MemValue> for Value {
    fn from(m: MemValue) -> Self {
        Value::Mem(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(x: u64, w: u32) -> BitVecValue {
        BitVecValue::from_u64(x, w)
    }

    #[test]
    fn add_wraps() {
        assert_eq!(bv(0xFF, 8).add(&bv(1, 8)), bv(0, 8));
        assert_eq!(bv(200, 8).add(&bv(100, 8)), bv(44, 8));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(bv(5, 8).sub(&bv(7, 8)), bv(254, 8));
        assert_eq!(bv(1, 8).neg(), bv(0xFF, 8));
    }

    #[test]
    fn mul_wraps() {
        assert_eq!(bv(16, 8).mul(&bv(16, 8)), bv(0, 8));
        assert_eq!(bv(7, 8).mul(&bv(6, 8)), bv(42, 8));
    }

    #[test]
    fn mul_wide() {
        let a = BitVecValue::parse_hex("ffffffffffffffff").unwrap().zext(128);
        let b = bv(2, 128);
        let p = a.mul(&b);
        assert_eq!(p, BitVecValue::parse_hex("0000000000000001fffffffffffffffe").unwrap());
    }

    #[test]
    fn division_smtlib_semantics() {
        assert_eq!(bv(42, 8).udiv(&bv(5, 8)), bv(8, 8));
        assert_eq!(bv(42, 8).urem(&bv(5, 8)), bv(2, 8));
        assert_eq!(bv(42, 8).udiv(&bv(0, 8)), BitVecValue::ones(8));
        assert_eq!(bv(42, 8).urem(&bv(0, 8)), bv(42, 8));
    }

    #[test]
    fn shifts() {
        assert_eq!(bv(0b1011, 4).shl(&bv(1, 4)), bv(0b0110, 4));
        assert_eq!(bv(0b1011, 4).lshr(&bv(1, 4)), bv(0b0101, 4));
        assert_eq!(bv(0b1011, 4).ashr(&bv(1, 4)), bv(0b1101, 4));
        assert_eq!(bv(0b0011, 4).ashr(&bv(1, 4)), bv(0b0001, 4));
        // over-shift
        assert_eq!(bv(0b1011, 4).shl(&bv(9, 4)), bv(0, 4));
        assert_eq!(bv(0b1011, 4).ashr(&bv(9, 4)), BitVecValue::ones(4));
    }

    #[test]
    fn shift_across_limbs() {
        let v = BitVecValue::one(100);
        let s = v.shl(&bv(80, 100));
        assert!(s.bit(80));
        assert_eq!(s.lshr(&bv(80, 100)), BitVecValue::one(100));
    }

    #[test]
    fn concat_extract_roundtrip() {
        let hi = bv(0xAB, 8);
        let lo = bv(0xCD, 8);
        let c = hi.concat(&lo);
        assert_eq!(c, bv(0xABCD, 16));
        assert_eq!(c.extract(15, 8), hi);
        assert_eq!(c.extract(7, 0), lo);
    }

    #[test]
    fn extensions() {
        assert_eq!(bv(0x80, 8).zext(16), bv(0x0080, 16));
        assert_eq!(bv(0x80, 8).sext(16), bv(0xFF80, 16));
        assert_eq!(bv(0x7F, 8).sext(16), bv(0x007F, 16));
    }

    #[test]
    fn comparisons() {
        assert!(bv(3, 8).ult(&bv(200, 8)));
        assert!(bv(200, 8).slt(&bv(3, 8))); // 200 = -56 signed
        assert!(bv(3, 8).ule(&bv(3, 8)));
        assert!(bv(3, 8).sle(&bv(3, 8)));
    }

    #[test]
    fn parse_and_format() {
        let v = BitVecValue::parse_binary("1010_0001").unwrap();
        assert_eq!(v, bv(0xA1, 8));
        assert_eq!(format!("{v:x}"), "a1");
        assert_eq!(format!("{v:b}"), "10100001");
        assert_eq!(BitVecValue::parse_hex("a1").unwrap(), v);
        assert!(BitVecValue::parse_binary("").is_none());
        assert!(BitVecValue::parse_binary("012").is_none());
    }

    #[test]
    fn wide_values_normalized() {
        let v = BitVecValue::ones(65);
        assert_eq!(v.width(), 65);
        assert!(v.bit(64));
        assert_eq!(v.not(), BitVecValue::zero(65));
        assert_eq!(v.add(&BitVecValue::one(65)), BitVecValue::zero(65));
    }

    #[test]
    fn mem_read_write() {
        let m = MemValue::zeroed(4, 8);
        assert_eq!(m.read(&bv(3, 4)), bv(0, 8));
        let m2 = m.write(&bv(3, 4), &bv(0x5A, 8));
        assert_eq!(m2.read(&bv(3, 4)), bv(0x5A, 8));
        assert_eq!(m2.read(&bv(4, 4)), bv(0, 8));
        // original untouched (persistent semantics)
        assert_eq!(m.read(&bv(3, 4)), bv(0, 8));
    }

    #[test]
    fn mem_same_contents_is_extensional() {
        let m = MemValue::zeroed(1, 8);
        // An explicit entry equal to the default.
        let explicit = m.write(&bv(1, 1), &bv(0, 8));
        assert_ne!(m, explicit);
        assert!(m.same_contents(&explicit));
        // Different defaults under a fully written address space.
        let full_a = m.write(&bv(0, 1), &bv(7, 8)).write(&bv(1, 1), &bv(9, 8));
        let full_b = MemValue::filled(1, 8, bv(7, 8)).write(&bv(1, 1), &bv(9, 8));
        assert!(full_a.same_contents(&full_b));
        assert!(!full_a.same_contents(&m));
        assert!(!MemValue::zeroed(2, 8).same_contents(&m));
    }

    #[test]
    fn mem_addr_masking() {
        let m = MemValue::zeroed(4, 8).write(&bv(0x13, 8), &bv(1, 8));
        assert_eq!(m.read(&bv(0x3, 4)), bv(1, 8));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let _ = bv(1, 8).add(&bv(1, 9));
    }
}
