//! Property-based tests (proptest) on the platform's core invariants:
//! bit-vector arithmetic against a `u128` reference model and, across
//! limb boundaries, a bit-serial one; the simplifier and bit-blaster
//! against the concrete evaluator; the SAT solver against brute force;
//! and composition/integration invariants.

use std::collections::BTreeMap;

use gila::core::{integrate, PortIla, PortPriorityResolver, StateKind};
use gila::expr::{
    eval, simplify_cached, BitVecValue, Env, ExprCtx, ExprRef, Sort, Value,
};
use gila::sat::{Lit, Solver, Var};
use gila::smt::SmtSolver;
use proptest::prelude::*;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// BitVecValue vs u128 reference semantics
// ---------------------------------------------------------------------

fn mask(w: u32) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

proptest! {
    #[test]
    fn bv_arith_matches_reference(a in any::<u64>(), b in any::<u64>(), w in 1u32..65) {
        let m = mask(w);
        let av = BitVecValue::from_u64(a, w);
        let bv = BitVecValue::from_u64(b, w);
        let (ar, br) = ((a as u128) & m, (b as u128) & m);
        prop_assert_eq!(av.add(&bv).to_u64() as u128, (ar + br) & m);
        prop_assert_eq!(av.sub(&bv).to_u64() as u128, ar.wrapping_sub(br) & m);
        prop_assert_eq!(av.mul(&bv).to_u64() as u128, (ar.wrapping_mul(br)) & m);
        prop_assert_eq!(av.and(&bv).to_u64() as u128, ar & br);
        prop_assert_eq!(av.or(&bv).to_u64() as u128, ar | br);
        prop_assert_eq!(av.xor(&bv).to_u64() as u128, ar ^ br);
        prop_assert_eq!(av.not().to_u64() as u128, !ar & m);
        prop_assert_eq!(av.ult(&bv), ar < br);
        prop_assert_eq!(av.ule(&bv), ar <= br);
        match ar.checked_div(br) {
            Some(q) => {
                prop_assert_eq!(av.udiv(&bv).to_u64() as u128, q);
                prop_assert_eq!(av.urem(&bv).to_u64() as u128, ar % br);
            }
            None => {
                prop_assert!(av.udiv(&bv).is_ones());
                prop_assert_eq!(av.urem(&bv), av.clone());
            }
        }
    }

    #[test]
    fn bv_shifts_match_reference(a in any::<u64>(), s in 0u64..80, w in 1u32..65) {
        let m = mask(w);
        let av = BitVecValue::from_u64(a, w);
        let sv = BitVecValue::from_u64(s, w);
        let ar = (a as u128) & m;
        let s_eff = (s as u128) & m;
        let expected_shl = if s_eff >= w as u128 { 0 } else { (ar << s_eff) & m };
        let expected_shr = if s_eff >= w as u128 { 0 } else { ar >> s_eff };
        prop_assert_eq!(av.shl(&sv).to_u64() as u128, expected_shl);
        prop_assert_eq!(av.lshr(&sv).to_u64() as u128, expected_shr);
    }

    #[test]
    fn bv_concat_extract_roundtrip(a in any::<u64>(), w1 in 1u32..33, w2 in 1u32..33) {
        let hi = BitVecValue::from_u64(a, w1);
        let lo = BitVecValue::from_u64(a.rotate_left(13), w2);
        let c = hi.concat(&lo);
        prop_assert_eq!(c.width(), w1 + w2);
        prop_assert_eq!(c.extract(w2 - 1, 0), lo);
        prop_assert_eq!(c.extract(w1 + w2 - 1, w2), hi);
    }

    #[test]
    fn bv_signed_comparison_matches_reference(a in any::<u64>(), b in any::<u64>(), w in 2u32..64) {
        let av = BitVecValue::from_u64(a, w);
        let bv = BitVecValue::from_u64(b, w);
        let sign_extend = |x: u64| -> i128 {
            let x = (x as u128) & mask(w);
            if x >> (w - 1) & 1 == 1 {
                x as i128 - (1i128 << w)
            } else {
                x as i128
            }
        };
        prop_assert_eq!(av.slt(&bv), sign_extend(a) < sign_extend(b));
        prop_assert_eq!(av.sle(&bv), sign_extend(a) <= sign_extend(b));
    }

    #[test]
    fn bv_hex_parse_format_roundtrip(a in any::<u64>(), w in 1u32..17) {
        // Formatting then parsing recovers the value (width rounded to
        // nibbles by parse, so compare after zext).
        let v = BitVecValue::from_u64(a, w * 4);
        let s = format!("{v:x}");
        let back = BitVecValue::parse_hex(&s).expect("valid hex");
        prop_assert_eq!(back, v);
    }
}

// ---------------------------------------------------------------------
// BitVecValue vs a bit-serial reference across limb boundaries
// ---------------------------------------------------------------------
//
// The `u128` model above stops at 64 bits, exactly where multi-limb
// storage starts. Here every kernel is checked against a `Vec<bool>`
// model (least-significant bit first) at widths 1..=200, with the limb
// edges 63/64/65 and 127/128/129 forced.

type Bits = Vec<bool>;

fn bv_width() -> impl Strategy<Value = u32> {
    prop_oneof![
        1u32..=200,
        prop_oneof![
            Just(63u32),
            Just(64),
            Just(65),
            Just(127),
            Just(128),
            Just(129)
        ],
    ]
}

/// Four random words (biased toward 0, 1 and all-ones, so long runs of
/// equal bits cross limb boundaries).
fn bv_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 4)
}

fn bits_of(words: &[u64], w: u32) -> Bits {
    (0..w as usize)
        .map(|i| (words[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

fn val(bits: &[bool]) -> BitVecValue {
    BitVecValue::from_bits(bits)
}

fn ref_not(a: &[bool]) -> Bits {
    a.iter().map(|b| !b).collect()
}

fn ref_add(a: &[bool], b: &[bool], carry_in: bool) -> Bits {
    let mut carry = carry_in;
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let s = x ^ y ^ carry;
            carry = (x && y) || (carry && (x ^ y));
            s
        })
        .collect()
}

fn ref_sub(a: &[bool], b: &[bool]) -> Bits {
    ref_add(a, &ref_not(b), true)
}

/// Shift left by `n` (any amount; beyond the width yields zero).
fn ref_shl(a: &[bool], n: u64) -> Bits {
    (0..a.len() as u64)
        .map(|i| i >= n && a[(i - n) as usize])
        .collect()
}

/// Shift right by `n`, filling vacated bits with `fill`.
fn ref_shr(a: &[bool], n: u64, fill: bool) -> Bits {
    (0..a.len() as u64)
        .map(|i| match i.checked_add(n) {
            Some(j) if j < a.len() as u64 => a[j as usize],
            _ => fill,
        })
        .collect()
}

fn ref_mul(a: &[bool], b: &[bool]) -> Bits {
    let mut acc = vec![false; a.len()];
    for (i, &bit) in b.iter().enumerate() {
        if bit {
            acc = ref_add(&acc, &ref_shl(a, i as u64), false);
        }
    }
    acc
}

fn ref_ult(a: &[bool], b: &[bool]) -> bool {
    (0..a.len())
        .rev()
        .find(|&i| a[i] != b[i])
        .is_some_and(|i| b[i])
}

fn ref_slt(a: &[bool], b: &[bool]) -> bool {
    let top = a.len() - 1;
    match (a[top], b[top]) {
        (true, false) => true,
        (false, true) => false,
        _ => ref_ult(a, b),
    }
}

/// SMT-LIB unsigned division and remainder (x/0 = ones, x%0 = x).
fn ref_divrem(a: &[bool], b: &[bool]) -> (Bits, Bits) {
    if b.iter().all(|&x| !x) {
        return (vec![true; a.len()], a.to_vec());
    }
    let mut q = vec![false; a.len()];
    let mut r = vec![false; a.len()];
    for i in (0..a.len()).rev() {
        r = ref_shl(&r, 1);
        r[0] = a[i];
        if !ref_ult(&r, b) {
            r = ref_sub(&r, b);
            q[i] = true;
        }
    }
    (q, r)
}

/// The unsigned value of `a`, saturating at `u64::MAX`.
fn ref_amount(a: &[bool]) -> u64 {
    if a.iter().skip(64).any(|&b| b) {
        return u64::MAX;
    }
    a.iter()
        .take(64)
        .rev()
        .fold(0, |acc, &b| (acc << 1) | b as u64)
}

/// The limbs the value was stored as before inline storage: 64-bit
/// little-endian words.
fn ref_limbs(a: &[bool]) -> Vec<u64> {
    a.chunks(64)
        .map(|c| c.iter().rev().fold(0, |acc, &b| (acc << 1) | b as u64))
        .collect()
}

fn ref_hex(a: &[bool]) -> String {
    a.chunks(4)
        .rev()
        .map(|c| {
            let nib = c.iter().rev().fold(0, |acc, &b| (acc << 1) | b as u32);
            char::from_digit(nib, 16).unwrap()
        })
        .collect()
}

/// What `#[derive(Hash, PartialOrd, Ord)]` over `Vec<u64>` limbs hashed
/// and ordered: the order of `BTreeMap`s and hash-consing tables.
#[derive(Hash, PartialEq, Eq, PartialOrd, Ord)]
struct LimbVecRepr {
    width: u32,
    limbs: Vec<u64>,
}

fn std_hash(x: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bv_wide_arith_matches_bit_serial_reference(
        w in bv_width(), aw in bv_words(), bw in bv_words(),
        pick in 0u32..6, r in any::<u64>(),
    ) {
        let (a, b) = (bits_of(&aw, w), bits_of(&bw, w));
        let (av, bv) = (val(&a), val(&b));
        prop_assert_eq!(av.to_bits(), a.clone());
        prop_assert_eq!(av.add(&bv).to_bits(), ref_add(&a, &b, false));
        prop_assert_eq!(av.sub(&bv).to_bits(), ref_sub(&a, &b));
        prop_assert_eq!(av.neg().to_bits(), ref_sub(&vec![false; a.len()], &a));
        prop_assert_eq!(av.not().to_bits(), ref_not(&a));
        prop_assert_eq!(av.mul(&bv).to_bits(), ref_mul(&a, &b));
        let (q, rem) = ref_divrem(&a, &b);
        prop_assert_eq!(av.udiv(&bv).to_bits(), q);
        prop_assert_eq!(av.urem(&bv).to_bits(), rem);
        prop_assert_eq!(av.ult(&bv), ref_ult(&a, &b));
        prop_assert_eq!(av.slt(&bv), ref_slt(&a, &b));
        prop_assert_eq!(av.is_ones(), a.iter().all(|&x| x));
        prop_assert_eq!(av.is_zero(), a.iter().all(|&x| !x));
        let fits = a.iter().skip(64).all(|&x| !x);
        prop_assert_eq!(av.try_to_u64(), fits.then(|| ref_amount(&a)));

        // Shift amounts below, at and beyond the width, or all-random.
        let amount = match pick {
            0 => w as u64 - 1,
            1 => w as u64,
            2 => w as u64 + 1,
            3 => r % w as u64,
            4 => 64,
            _ => r,
        };
        let s = if pick == 5 { b.clone() } else { bits_of(&[amount, 0, 0, 0], w) };
        let (n, sv) = (ref_amount(&s), val(&s));
        let sign = a[a.len() - 1];
        prop_assert_eq!(av.shl(&sv).to_bits(), ref_shl(&a, n));
        prop_assert_eq!(av.lshr(&sv).to_bits(), ref_shr(&a, n, false));
        prop_assert_eq!(av.ashr(&sv).to_bits(), ref_shr(&a, n, sign));
    }

    #[test]
    fn bv_wide_layout_matches_bit_serial_reference(
        w in bv_width(), wb in bv_width(), aw in bv_words(), bw in bv_words(),
        cut in any::<u64>(), grow in 0u32..140,
    ) {
        let (a, b) = (bits_of(&aw, w), bits_of(&bw, wb));
        let (av, bv) = (val(&a), val(&b));
        let joined: Bits = b.iter().chain(&a).copied().collect();
        prop_assert_eq!(av.concat(&bv).to_bits(), joined);
        let lo = (cut % w as u64) as u32;
        let hi = lo + ((cut >> 32) % (w - lo) as u64) as u32;
        prop_assert_eq!(av.extract(hi, lo).to_bits(), a[lo as usize..=hi as usize].to_vec());
        let to = w + grow;
        let sign = a[a.len() - 1];
        let zext: Bits = a.iter().copied().chain(std::iter::repeat(false)).take(to as usize).collect();
        let sext: Bits = a.iter().copied().chain(std::iter::repeat(sign)).take(to as usize).collect();
        prop_assert_eq!(av.zext(to).to_bits(), zext);
        prop_assert_eq!(av.sext(to).to_bits(), sext);

        // Parsing and formatting.
        let binary: String = a.iter().rev().map(|&x| if x { '1' } else { '0' }).collect();
        prop_assert_eq!(BitVecValue::parse_binary(&binary), Some(av.clone()));
        prop_assert_eq!(format!("{av:b}"), binary);
        let hex = ref_hex(&a);
        prop_assert_eq!(format!("{av:x}"), hex.clone());
        prop_assert_eq!(format!("{av:?}"), format!("{w}'h{hex}"));
        prop_assert_eq!(format!("{av}"), format!("{w}'h{hex}"));
        let padded = av.zext(w.div_ceil(4) * 4);
        prop_assert_eq!(BitVecValue::parse_hex(&hex), Some(padded));
    }

    #[test]
    fn bv_identity_is_width_and_limbs(
        w in bv_width(), wb in bv_width(), aw in bv_words(), bw in bv_words(), same in any::<bool>(),
    ) {
        // Half the cases compare values of equal width, a quarter equal values.
        let wb = if same { w } else { wb };
        let bw = if same && aw[0] & 1 == 0 { aw.clone() } else { bw };
        let (a, b) = (bits_of(&aw, w), bits_of(&bw, wb));
        let (av, bv) = (val(&a), val(&b));
        let (ar, br) = (
            LimbVecRepr { width: w, limbs: ref_limbs(&a) },
            LimbVecRepr { width: wb, limbs: ref_limbs(&b) },
        );
        prop_assert_eq!(av == bv, (w, &a) == (wb, &b));
        prop_assert_eq!(av.cmp(&bv), ar.cmp(&br));
        prop_assert_eq!(std_hash(&av), std_hash(&ar));
        if av == bv {
            prop_assert_eq!(std_hash(&av), std_hash(&bv));
        }
    }
}

// ---------------------------------------------------------------------
// Random expressions: simplifier and bit-blaster agree with eval
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum RandomOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Lshr,
    Ashr,
    Ite,
    Not,
    Neg,
    Udiv,
    Urem,
    Concat,
    Extract,
    Zext,
    Sext,
    Cmp,
}

fn random_op() -> impl Strategy<Value = RandomOp> {
    prop_oneof![
        Just(RandomOp::Add),
        Just(RandomOp::Sub),
        Just(RandomOp::Mul),
        Just(RandomOp::And),
        Just(RandomOp::Or),
        Just(RandomOp::Xor),
        Just(RandomOp::Shl),
        Just(RandomOp::Lshr),
        Just(RandomOp::Ashr),
        Just(RandomOp::Ite),
        Just(RandomOp::Not),
        Just(RandomOp::Neg),
        Just(RandomOp::Udiv),
        Just(RandomOp::Urem),
        Just(RandomOp::Concat),
        Just(RandomOp::Extract),
        Just(RandomOp::Zext),
        Just(RandomOp::Sext),
        Just(RandomOp::Cmp),
    ]
}

/// Every node is kept at width `W` (structural ops re-extend or slice
/// back) so any pool element can feed any operator.
fn build_expr(ctx: &mut ExprCtx, ops: &[(RandomOp, u8, u8)], consts: &[u64]) -> ExprRef {
    const W: u32 = 7;
    let x = ctx.var("x", Sort::Bv(W));
    let y = ctx.var("y", Sort::Bv(W));
    let mut pool = vec![x, y];
    for &c in consts {
        pool.push(ctx.bv_u64(c & 0x7F, W));
    }
    for (op, ia, ib) in ops {
        let a = pool[*ia as usize % pool.len()];
        let b = pool[*ib as usize % pool.len()];
        let e = match op {
            RandomOp::Add => ctx.bvadd(a, b),
            RandomOp::Sub => ctx.bvsub(a, b),
            RandomOp::Mul => ctx.bvmul(a, b),
            RandomOp::And => ctx.bvand(a, b),
            RandomOp::Or => ctx.bvor(a, b),
            RandomOp::Xor => ctx.bvxor(a, b),
            RandomOp::Shl => ctx.bvshl(a, b),
            RandomOp::Lshr => ctx.bvlshr(a, b),
            RandomOp::Ashr => ctx.bvashr(a, b),
            RandomOp::Ite => {
                let c = ctx.ult(a, b);
                ctx.ite(c, a, b)
            }
            RandomOp::Not => ctx.bvnot(a),
            RandomOp::Neg => ctx.bvneg(a),
            RandomOp::Udiv => ctx.bvudiv(a, b),
            RandomOp::Urem => ctx.bvurem(a, b),
            RandomOp::Concat => {
                let wide = ctx.concat(a, b);
                ctx.extract(wide, W - 1, 0)
            }
            RandomOp::Extract => {
                let hi = *ia as u32 % W;
                let lo = *ib as u32 % (hi + 1);
                let cut = ctx.extract(a, hi, lo);
                ctx.zext(cut, W)
            }
            RandomOp::Zext => {
                let cut = ctx.extract(a, W / 2, 0);
                ctx.zext(cut, W)
            }
            RandomOp::Sext => {
                let cut = ctx.extract(a, W / 2, 0);
                ctx.sext(cut, W)
            }
            RandomOp::Cmp => {
                // Exercise the boolean rewrites: a comparison network
                // folded back into the bit-vector world.
                let lt = ctx.ult(a, b);
                let eq = ctx.eq(a, b);
                let ne = ctx.not(eq);
                let both = ctx.and(lt, ne);
                let bit = ctx.bool_to_bv(both);
                ctx.zext(bit, W)
            }
        };
        pool.push(e);
    }
    *pool.last().expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simplify_preserves_semantics(
        ops in proptest::collection::vec((random_op(), any::<u8>(), any::<u8>()), 1..12),
        consts in proptest::collection::vec(any::<u64>(), 1..4),
        seed in any::<u64>(),
    ) {
        let mut ctx = ExprCtx::new();
        let root = build_expr(&mut ctx, &ops, &consts);
        // The verify engine shares one memo table across many roots;
        // simplify through a shared table here too so the cached path
        // (memo hits included) is what the property exercises.
        let mut memo = std::collections::HashMap::new();
        let simplified = simplify_cached(&mut ctx, root, &mut memo);
        let x = ctx.find_var("x").expect("declared");
        let y = ctx.find_var("y").expect("declared");
        // Check the equivalence under several environments drawn from
        // the co-simulator's value distribution, not just one point.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let mut env = Env::new();
            env.bind(x, gila::verify::random_value(&mut rng, Sort::Bv(7)));
            env.bind(y, gila::verify::random_value(&mut rng, Sort::Bv(7)));
            prop_assert_eq!(
                eval(&ctx, root, &env).expect("bound"),
                eval(&ctx, simplified, &env).expect("bound")
            );
        }
    }

    #[test]
    fn blaster_agrees_with_evaluator(
        ops in proptest::collection::vec((random_op(), any::<u8>(), any::<u8>()), 1..8),
        consts in proptest::collection::vec(any::<u64>(), 1..3),
        vx in 0u64..128,
        vy in 0u64..128,
    ) {
        let mut ctx = ExprCtx::new();
        let root = build_expr(&mut ctx, &ops, &consts);
        let x = ctx.find_var("x").expect("declared");
        let y = ctx.find_var("y").expect("declared");
        let mut env = Env::new();
        env.bind_u64(&ctx, "x", vx);
        env.bind_u64(&ctx, "y", vy);
        let expected = eval(&ctx, root, &env).expect("bound").as_bv().clone();
        // Pin the inputs; the root must equal the evaluator's answer —
        // asserting the opposite must be UNSAT.
        let cx = ctx.eq_u64(x, vx);
        let cy = ctx.eq_u64(y, vy);
        let cr = ctx.bv(expected);
        let ne = ctx.ne(root, cr);
        let mut smt = SmtSolver::new();
        smt.assert(&ctx, cx);
        smt.assert(&ctx, cy);
        smt.assert(&ctx, ne);
        prop_assert!(!smt.check().is_sat());
    }
}

// ---------------------------------------------------------------------
// SAT solver vs brute force
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sat_agrees_with_brute_force(
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..8, any::<bool>()), 1..4),
            1..24,
        ),
    ) {
        let n_vars = 8usize;
        let mut brute_sat = false;
        'outer: for m in 0u32..(1 << n_vars) {
            for c in &clauses {
                if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                    continue 'outer;
                }
            }
            brute_sat = true;
            break;
        }
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
        let mut ok = true;
        for c in &clauses {
            ok &= s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vars[v], pos)));
        }
        let got = ok && s.solve().is_sat();
        prop_assert_eq!(got, brute_sat);
        if got {
            for c in &clauses {
                prop_assert!(c.iter().any(|&(v, pos)| s.value(vars[v]).expect("assigned") == pos));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Integration invariants
// ---------------------------------------------------------------------

/// Builds a port with `n` instructions selected by an input selector,
/// each writing a distinct constant to a shared state.
fn selector_port(name: &str, n: u64, shared: &str) -> PortIla {
    let mut p = PortIla::new(name);
    let sel = p.input(format!("{name}_sel"), Sort::Bv(4));
    p.state(shared, Sort::Bv(8), StateKind::Output);
    for i in 0..n {
        let ctx = p.ctx_mut();
        let d = if i + 1 == n {
            // Final instruction absorbs the remaining selector space so
            // the decode stays complete.
            let c = ctx.bv_u64(i, 4);
            ctx.uge(sel, c)
        } else {
            ctx.eq_u64(sel, i)
        };
        let v = ctx.bv_u64(0x10 + i, 8);
        p.instr(format!("{name}_I{i}"))
            .decode(d)
            .update(shared, v)
            .add()
            .expect("valid model");
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// |I_c| = |I_p1| * |I_p2| at the atomic level, for any sizes.
    #[test]
    fn integration_cross_product_size(n1 in 1u64..5, n2 in 1u64..5) {
        let a = selector_port("A", n1, "shared");
        let b = selector_port("B", n2, "shared");
        let resolver = PortPriorityResolver::new(["A", "B"]);
        let c = integrate("AB", &[&a, &b], &resolver).expect("resolved");
        prop_assert_eq!(
            c.num_atomic_instructions() as u64,
            n1 * n2
        );
        // Every integrated decode is the conjunction of its parts: the
        // integrated port is deterministic and complete if the parts are.
        prop_assert!(gila::core::decode_gap(&c, None).is_none());
        prop_assert!(gila::core::decode_overlaps(&c, None).is_empty());
    }

    /// Priority resolution always picks the first port's update.
    #[test]
    fn priority_resolution_picks_winner(n1 in 1u64..4, n2 in 1u64..4, i in 0u64..4, j in 0u64..4) {
        prop_assume!(i < n1 && j < n2);
        let a = selector_port("A", n1, "shared");
        let b = selector_port("B", n2, "shared");
        let resolver = PortPriorityResolver::new(["B", "A"]);
        let c = integrate("AB", &[&a, &b], &resolver).expect("resolved");
        let name = format!("A_I{i} & B_I{j}");
        let instr = c.find_instruction(&name).expect("combo exists");
        let upd = instr.updates["shared"];
        // B wins: the constant is B's.
        prop_assert_eq!(
            c.ctx().as_bv_const(upd),
            Some(&BitVecValue::from_u64(0x10 + j, 8))
        );
    }
}

// ---------------------------------------------------------------------
// Simulation determinism: module simulators never double-fire
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decoder_simulation_total_and_deterministic(words in proptest::collection::vec((any::<bool>(), any::<u8>()), 1..40)) {
        use gila::designs::i8051::decoder;
        let port = decoder::port_ila();
        let mut sim = gila::core::PortSimulator::new(&port);
        for (wait, word) in words {
            let mut inputs = BTreeMap::new();
            inputs.insert("wait".to_string(), Value::Bv(BitVecValue::from_u64(wait as u64, 1)));
            inputs.insert("word_in".to_string(), Value::Bv(BitVecValue::from_u64(word as u64, 8)));
            // Exactly one instruction fires for every command.
            sim.step(&inputs).expect("complete and deterministic");
            // The step counter stays in range.
            prop_assert!(sim.state()["step"].as_bv().to_u64() <= 3);
        }
    }
}
