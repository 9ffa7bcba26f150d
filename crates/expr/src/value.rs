//! Arbitrary-width bit-vector values.
//!
//! [`BitVecValue`] is the concrete counterpart of the `Bv(w)` sort: a
//! two's-complement bit string of a fixed width `w >= 1`, stored as
//! little-endian 64-bit limbs. All operations keep the value *normalized*
//! (bits above `w` are zero), so `==` is semantic equality.
//!
//! Widths up to 64 bits — every registry signal — keep their one limb
//! inline, so creating, copying and combining them never allocates;
//! wider values keep their limbs in a heap slice. The kernels work on
//! whole limbs at any width.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// Number of bits per storage limb.
const LIMB_BITS: u32 = 64;

/// Limb storage. The variant is a function of the width: `Word` exactly
/// when `width <= LIMB_BITS`.
#[derive(Clone)]
enum Limbs {
    /// The single limb of a value at most 64 bits wide.
    Word(u64),
    /// The `limbs_for(width)` limbs of a wider value.
    Wide(Box<[u64]>),
}

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
#[derive(Clone)]
pub struct BitVecValue {
    width: u32,
    limbs: Limbs,
}

fn limbs_for(width: u32) -> usize {
    width.div_ceil(LIMB_BITS) as usize
}

/// Limb `i` of `limbs`, zero past the end.
fn limb(limbs: &[u64], i: usize) -> u64 {
    limbs.get(i).copied().unwrap_or(0)
}

/// Limb `i` of `limbs` shifted right by `n` bits.
fn shr_limb(limbs: &[u64], n: u32, i: usize) -> u64 {
    let j = i + (n / LIMB_BITS) as usize;
    match n % LIMB_BITS {
        0 => limb(limbs, j),
        r => (limb(limbs, j) >> r) | (limb(limbs, j + 1) << (LIMB_BITS - r)),
    }
}

/// Limb `i` of `limbs` shifted left by `n` bits.
fn shl_limb(limbs: &[u64], n: u32, i: usize) -> u64 {
    let Some(j) = i.checked_sub((n / LIMB_BITS) as usize) else {
        return 0;
    };
    match n % LIMB_BITS {
        0 => limb(limbs, j),
        r => {
            let carry_in = j
                .checked_sub(1)
                .map_or(0, |k| limb(limbs, k) >> (LIMB_BITS - r));
            (limb(limbs, j) << r) | carry_in
        }
    }
}

/// Limb `i` of the mask whose bits at positions `>= from` are set.
fn mask_from_limb(from: u32, i: usize) -> u64 {
    let base = i as u64 * LIMB_BITS as u64;
    let from = from as u64;
    if base >= from {
        u64::MAX
    } else if base + LIMB_BITS as u64 <= from {
        0
    } else {
        u64::MAX << (from - base)
    }
}

impl BitVecValue {
    /// Builds a `width`-bit value from its limbs, `limb(i)` for each
    /// limb index in ascending order, and normalizes it.
    fn from_fn(width: u32, mut limb: impl FnMut(usize) -> u64) -> Self {
        assert!(width > 0, "bit-vector width must be positive");
        let limbs = if width <= LIMB_BITS {
            Limbs::Word(limb(0))
        } else {
            Limbs::Wide((0..limbs_for(width)).map(limb).collect())
        };
        let mut v = BitVecValue { width, limbs };
        v.normalize();
        v
    }

    fn limbs(&self) -> &[u64] {
        match &self.limbs {
            Limbs::Word(w) => std::slice::from_ref(w),
            Limbs::Wide(ls) => ls,
        }
    }

    fn limbs_mut(&mut self) -> &mut [u64] {
        match &mut self.limbs {
            Limbs::Word(w) => std::slice::from_mut(w),
            Limbs::Wide(ls) => ls,
        }
    }

    /// Creates a zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn zero(width: u32) -> Self {
        Self::from_fn(width, |_| 0)
    }

    /// Creates the value 1 of the given width.
    pub fn one(width: u32) -> Self {
        Self::from_u64(1, width)
    }

    /// Creates the all-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        Self::from_fn(width, |_| u64::MAX)
    }

    /// Creates a value from the low bits of `x`, truncating to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn from_u64(x: u64, width: u32) -> Self {
        Self::from_fn(width, |i| if i == 0 { x } else { 0 })
    }

    /// Creates a 1-bit value from a boolean.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(b as u64, 1)
    }

    /// Overwrites `self` with `src`, reusing the limb allocation when
    /// the limb counts match (the common case for same-width copies).
    fn clone_bits_from(&mut self, src: &BitVecValue) {
        self.width = src.width;
        match (&mut self.limbs, &src.limbs) {
            (Limbs::Word(dst), Limbs::Word(s)) => *dst = *s,
            (Limbs::Wide(dst), Limbs::Wide(s)) if dst.len() == s.len() => dst.copy_from_slice(s),
            (dst, s) => *dst = s.clone(),
        }
    }

    /// Creates a value from bits, least-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "bit-vector width must be positive");
        let mut chunks = bits.chunks(LIMB_BITS as usize);
        Self::from_fn(bits.len() as u32, |_| {
            let chunk = chunks.next().unwrap_or_default();
            chunk.iter().rev().fold(0, |acc, &b| (acc << 1) | b as u64)
        })
    }

    /// Builds a value of `digits * digit_bits` bits from the digits of
    /// `s` (most-significant first, underscores ignored), each mapped by
    /// `digit`. `digit_bits` divides 64, so no digit straddles limbs.
    fn parse_digits(s: &str, digit_bits: u32, digit: impl Fn(char) -> Option<u64>) -> Option<Self> {
        let digits = || s.chars().rev().filter(|c| *c != '_');
        let mut count = 0u32;
        for c in digits() {
            digit(c)?;
            count = count.checked_add(1)?;
        }
        if count == 0 {
            return None;
        }
        let mut v = Self::zero(count.checked_mul(digit_bits)?);
        let limbs = v.limbs_mut();
        for (k, c) in digits().enumerate() {
            let bit = k as u32 * digit_bits;
            limbs[(bit / LIMB_BITS) as usize] |= digit(c)? << (bit % LIMB_BITS);
        }
        Some(v)
    }

    /// Parses a binary string like `"1010"` (most-significant bit first).
    ///
    /// Returns `None` on empty input or non-binary characters
    /// (underscores are ignored).
    pub fn parse_binary(s: &str) -> Option<Self> {
        Self::parse_digits(s, 1, |c| match c {
            '0' => Some(0),
            '1' => Some(1),
            _ => None,
        })
    }

    /// Parses a hexadecimal string like `"dead_beef"`; width is 4 bits per digit.
    pub fn parse_hex(s: &str) -> Option<Self> {
        Self::parse_digits(s, 4, |c| c.to_digit(16).map(u64::from))
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
        (self.limbs()[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Returns the bits, least-significant first.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.width).map(|i| self.bit(i)).collect()
    }

    /// Returns the value as `u64`, truncating high bits if the width exceeds 64.
    pub fn to_u64(&self) -> u64 {
        self.limbs()[0]
    }

    /// Returns the value as `u64` if it fits losslessly, else `None`.
    pub fn try_to_u64(&self) -> Option<u64> {
        let limbs = self.limbs();
        limbs[1..].iter().all(|&l| l == 0).then_some(limbs[0])
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs().iter().all(|&l| l == 0)
    }

    /// True if every bit is one.
    pub fn is_ones(&self) -> bool {
        let (top, rest) = self.limbs().split_last().expect("at least one limb");
        *top == Self::top_mask(self.width) && rest.iter().all(|&l| l == u64::MAX)
    }

    /// The sign (most-significant) bit.
    pub fn msb(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// Number of zero bits above the most-significant set bit (the
    /// width, for zero).
    pub(crate) fn leading_zeros(&self) -> u32 {
        let limbs = self.limbs();
        let pad = limbs.len() as u32 * LIMB_BITS - self.width;
        match limbs.iter().rposition(|&l| l != 0) {
            Some(i) => (limbs.len() - 1 - i) as u32 * LIMB_BITS + limbs[i].leading_zeros() - pad,
            None => self.width,
        }
    }

    /// Mask of the valid bits in the top limb of a `width`-bit value.
    fn top_mask(width: u32) -> u64 {
        match width % LIMB_BITS {
            0 => u64::MAX,
            rem => (1u64 << rem) - 1,
        }
    }

    fn normalize(&mut self) {
        let mask = Self::top_mask(self.width);
        let limbs = self.limbs_mut();
        limbs[limbs.len() - 1] &= mask;
    }

    fn check_same_width(&self, other: &Self, op: &str) {
        assert_eq!(
            self.width, other.width,
            "width mismatch in {op}: {} vs {}",
            self.width, other.width
        );
    }

    /// Limb-wise combination of two same-width values, least-significant
    /// limb first (so `f` may carry state upward).
    fn zip_with(&self, other: &Self, op: &str, mut f: impl FnMut(u64, u64) -> u64) -> Self {
        self.check_same_width(other, op);
        let (a, b) = (self.limbs(), other.limbs());
        Self::from_fn(self.width, |i| f(a[i], b[i]))
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let a = self.limbs();
        Self::from_fn(self.width, |i| !a[i])
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&self, other: &Self) -> Self {
        self.zip_with(other, "and", |a, b| a & b)
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&self, other: &Self) -> Self {
        self.zip_with(other, "or", |a, b| a | b)
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip_with(other, "xor", |a, b| a ^ b)
    }

    /// Wrapping addition. Panics on width mismatch.
    pub fn add(&self, other: &Self) -> Self {
        let mut carry = false;
        self.zip_with(other, "add", |a, b| {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            carry = c1 || c2;
            s2
        })
    }

    /// Wrapping subtraction. Panics on width mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        let mut borrow = false;
        self.zip_with(other, "sub", |a, b| {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            borrow = b1 || b2;
            d2
        })
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Self {
        let a = self.limbs();
        let mut carry = true;
        Self::from_fn(self.width, |i| {
            let (s, c) = (!a[i]).overflowing_add(carry as u64);
            carry = c;
            s
        })
    }

    /// Wrapping multiplication. Panics on width mismatch.
    pub fn mul(&self, other: &Self) -> Self {
        self.check_same_width(other, "mul");
        let (a, b) = (self.limbs(), other.limbs());
        let mut out = Self::zero(self.width);
        let acc = out.limbs_mut();
        let n = acc.len();
        for i in 0..n {
            if a[i] == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..n - i {
                let cur = acc[i + j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
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

    /// Quotient and remainder by a nonzero divisor: native division up
    /// to 64 bits, long division above.
    fn udivrem(&self, other: &Self) -> (Self, Self) {
        match (&self.limbs, &other.limbs) {
            (Limbs::Word(a), Limbs::Word(b)) => (
                Self::from_u64(a / b, self.width),
                Self::from_u64(a % b, self.width),
            ),
            _ => self.long_divrem(other),
        }
    }

    /// Shift-subtract long division, one quotient bit per step.
    fn long_divrem(&self, other: &Self) -> (Self, Self) {
        let mut q = Self::zero(self.width);
        let mut r = Self::zero(self.width);
        for i in (0..self.width).rev() {
            r = r.shl_amount(1);
            if self.bit(i) {
                r.limbs_mut()[0] |= 1;
            }
            if r.uge(other) {
                r = r.sub(other);
                q.limbs_mut()[(i / LIMB_BITS) as usize] |= 1u64 << (i % LIMB_BITS);
            }
        }
        (q, r)
    }

    /// Logical left shift by a plain amount (zero when `amount >= width`).
    pub(crate) fn shl_amount(&self, amount: u32) -> Self {
        let a = self.limbs();
        Self::from_fn(self.width, |i| shl_limb(a, amount, i))
    }

    /// Logical right shift by a plain amount (zero when `amount >= width`).
    pub(crate) fn lshr_amount(&self, amount: u32) -> Self {
        let a = self.limbs();
        Self::from_fn(self.width, |i| shr_limb(a, amount, i))
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
        // Shifting by `width - 1` already leaves only sign bits, so an
        // over-shift clamps to it.
        let max = self.width as u64 - 1;
        let n = other.try_to_u64().map_or(max, |n| n.min(max)) as u32;
        let (a, sign) = (self.limbs(), self.msb());
        let fill_from = self.width - n;
        Self::from_fn(self.width, |i| {
            let fill = if sign {
                mask_from_limb(fill_from, i)
            } else {
                0
            };
            shr_limb(a, n, i) | fill
        })
    }

    /// Concatenation: `self` provides the high bits, `other` the low bits.
    pub fn concat(&self, other: &Self) -> Self {
        let (hi, lo) = (self.limbs(), other.limbs());
        let lo_width = other.width;
        Self::from_fn(self.width + lo_width, |i| {
            limb(lo, i) | shl_limb(hi, lo_width, i)
        })
    }

    /// Extracts bits `hi..=lo` (inclusive, little-endian indices).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= self.width()`.
    pub fn extract(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "extract hi {hi} < lo {lo}");
        assert!(hi < self.width, "extract hi {hi} out of range for width {}", self.width);
        let a = self.limbs();
        Self::from_fn(hi - lo + 1, |i| shr_limb(a, lo, i))
    }

    /// Zero-extends to `to` bits.
    ///
    /// # Panics
    ///
    /// Panics if `to < self.width()`.
    pub fn zext(&self, to: u32) -> Self {
        assert!(to >= self.width, "zext target {to} narrower than width {}", self.width);
        let a = self.limbs();
        Self::from_fn(to, |i| limb(a, i))
    }

    /// Sign-extends to `to` bits.
    ///
    /// # Panics
    ///
    /// Panics if `to < self.width()`.
    pub fn sext(&self, to: u32) -> Self {
        assert!(to >= self.width, "sext target {to} narrower than width {}", self.width);
        let (a, sign) = (self.limbs(), self.msb());
        Self::from_fn(to, |i| {
            let fill = if sign {
                mask_from_limb(self.width, i)
            } else {
                0
            };
            limb(a, i) | fill
        })
    }

    /// Unsigned less-than.
    pub fn ult(&self, other: &Self) -> bool {
        self.check_same_width(other, "ult");
        let (a, b) = (self.limbs(), other.limbs());
        match (0..a.len()).rev().find(|&i| a[i] != b[i]) {
            Some(i) => a[i] < b[i],
            None => false,
        }
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

// Equality, order and hashing are those of `(width, limb slice)` — what
// the derived impls over `Vec<u64>` limbs produced. Interning in
// `ExprCtx`, `BTreeMap` iteration order and every golden rely on them,
// whichever storage a width uses.

impl PartialEq for BitVecValue {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.limbs() == other.limbs()
    }
}

impl Eq for BitVecValue {}

impl Ord for BitVecValue {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.width, self.limbs()).cmp(&(other.width, other.limbs()))
    }
}

impl PartialOrd for BitVecValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for BitVecValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.limbs().hash(state);
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
        let limbs = self.limbs();
        for d in (0..self.width.div_ceil(4)).rev() {
            let bit = d * 4;
            let nib = (limbs[(bit / LIMB_BITS) as usize] >> (bit % LIMB_BITS)) & 0xF;
            f.write_char(char::from_digit(nib as u32, 16).expect("nibble"))?;
        }
        Ok(())
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
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().limbs_mut()[0] = masked
            }
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
    /// The all-zero value of `sort`: `false`, a zero bit-vector, or a
    /// memory whose every word is zero.
    pub fn zero(sort: crate::Sort) -> Self {
        match sort {
            crate::Sort::Bool => Value::Bool(false),
            crate::Sort::Bv(w) => Value::Bv(BitVecValue::zero(w)),
            crate::Sort::Mem {
                addr_width,
                data_width,
            } => Value::Mem(MemValue::zeroed(addr_width, data_width)),
        }
    }

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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The bit-serial kernels the limb-wise ones replaced, kept as
    /// differential references: each builds its result one bit at a time
    /// from `bit()`.
    mod reference {
        use super::BitVecValue;

        pub fn from_bits(bits: &[bool]) -> BitVecValue {
            let mut v = BitVecValue::zero(bits.len() as u32);
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    v.limbs_mut()[i / 64] |= 1u64 << (i % 64);
                }
            }
            v
        }

        pub fn shl_amount(v: &BitVecValue, n: u32) -> BitVecValue {
            let bits: Vec<bool> = (0..v.width()).map(|i| i >= n && v.bit(i - n)).collect();
            from_bits(&bits)
        }

        pub fn lshr_amount(v: &BitVecValue, n: u32) -> BitVecValue {
            let w = v.width();
            let bits: Vec<bool> = (0..w).map(|i| i + n < w && v.bit(i + n)).collect();
            from_bits(&bits)
        }

        pub fn extract(v: &BitVecValue, hi: u32, lo: u32) -> BitVecValue {
            let bits: Vec<bool> = (lo..=hi).map(|i| v.bit(i)).collect();
            from_bits(&bits)
        }

        pub fn concat(hi: &BitVecValue, lo: &BitVecValue) -> BitVecValue {
            let mut bits = lo.to_bits();
            bits.extend(hi.to_bits());
            from_bits(&bits)
        }

        pub fn leading_zeros(v: &BitVecValue) -> u32 {
            (0..v.width()).rev().take_while(|&i| !v.bit(i)).count() as u32
        }

        pub fn lower_hex(v: &BitVecValue) -> String {
            (0..v.width().div_ceil(4))
                .rev()
                .map(|d| {
                    let hi = (d * 4 + 3).min(v.width() - 1);
                    let nib = extract(v, hi, d * 4).to_u64();
                    char::from_digit(nib as u32, 16).expect("nibble")
                })
                .collect()
        }
    }

    /// Random values with long runs of equal bits as well as noise, so
    /// carries, borrows and sign fills cross limb boundaries.
    fn random_value(rng: &mut impl Rng, width: u32) -> BitVecValue {
        let mode = rng.gen_range(0..4u32);
        BitVecValue::from_fn(width, |_| match mode {
            0 => rng.gen(),
            1 => 0,
            2 => u64::MAX,
            _ => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
        })
    }

    #[test]
    fn limb_kernels_match_bit_serial_references() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for w in 1..=200u32 {
            for _ in 0..4 {
                let v = random_value(&mut rng, w);
                let uw = rng.gen_range(1..=130u32);
                let u = random_value(&mut rng, uw);
                assert_eq!(reference::from_bits(&v.to_bits()), v, "from_bits w={w}");
                assert_eq!(BitVecValue::from_bits(&v.to_bits()), v, "from_bits w={w}");
                assert_eq!(v.leading_zeros(), reference::leading_zeros(&v), "{v:?}");
                assert_eq!(format!("{v:x}"), reference::lower_hex(&v), "hex w={w}");
                assert_eq!(v.concat(&u), reference::concat(&v, &u), "{v:?} ++ {u:?}");
                for n in [0, 1, w - 1, w, w + 1, 63, 64, 65, rng.gen_range(0..=w)] {
                    assert_eq!(
                        v.shl_amount(n),
                        reference::shl_amount(&v, n),
                        "{v:?} << {n}"
                    );
                    assert_eq!(
                        v.lshr_amount(n),
                        reference::lshr_amount(&v, n),
                        "{v:?} >> {n}"
                    );
                }
                let lo = rng.gen_range(0..w);
                let hi = rng.gen_range(lo..w);
                assert_eq!(
                    v.extract(hi, lo),
                    reference::extract(&v, hi, lo),
                    "{v:?}[{hi}:{lo}]"
                );
            }
        }
    }

    #[test]
    fn long_division_matches_native_division() {
        let mut rng = StdRng::seed_from_u64(0xd1f);
        for w in 1..=64u32 {
            for _ in 0..16 {
                let a = random_value(&mut rng, w);
                let b = random_value(&mut rng, w);
                if b.is_zero() {
                    continue;
                }
                assert_eq!(a.long_divrem(&b), a.udivrem(&b), "{a:?} / {b:?}");
            }
        }
    }

    #[test]
    fn word_values_are_inline() {
        assert!(matches!(bv(5, 64).limbs, Limbs::Word(5)));
        assert!(matches!(BitVecValue::ones(65).limbs, Limbs::Wide(ref l) if l.len() == 2));
        assert!(matches!(
            BitVecValue::ones(96).extract(63, 0).limbs,
            Limbs::Word(u64::MAX)
        ));
        assert!(matches!(bv(1, 8).zext(129).limbs, Limbs::Wide(ref l) if l.len() == 3));
    }
}
