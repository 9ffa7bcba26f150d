//! Falsification before SAT: seeded candidates evaluated on a
//! property's own formula.
//!
//! Once a port has a counterexample in a run, its RTL is known to be
//! wrong, and mutated RTL usually violates many instructions of the
//! port. A later check of that port first draws [`SAMPLES`] seeded
//! candidates — a frame-0 state plus the inputs of every frame — and
//! evaluates the check's formula under each on a compiled tape
//! ([`TapeProgram`]): the antecedent segment first (decode,
//! invariants, start strengthening, input policy), and only when every
//! antecedent conjunct holds, the violation (the negated post-state
//! equality at the bound). The first candidate that evaluates to a
//! violation is a counterexample of the very formula the solver would
//! be asked about, checked by an evaluator that shares no code with the
//! bit-blaster. A run of rejections changes nothing: the SAT check runs
//! as before, and `Holds` only ever comes from it.
//!
//! Candidates are drawn per word-sized variable: half the time a
//! constant of the same width from the antecedent (a dictionary of the
//! decode constants), one time in eight all-zeros, one in eight
//! all-ones, otherwise uniform bits. Memories and wider vectors are
//! drawn once per check. Under [`InputPolicy::Hold`] the inputs of
//! frames `1..bound` copy frame 0's, as the policy conjuncts demand.
//!
//! [`InputPolicy::Hold`]: crate::InputPolicy::Hold

use std::collections::{HashMap, HashSet};

use gila_expr::{ExprNode, ExprRef, Slot, Sort, TapeProgram, TapeState, Value};
use gila_mc::Unrolling;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::cosim::random_value;

/// Candidates drawn per sampled check.
pub(crate) const SAMPLES: u64 = 64;

/// A candidate under which the property's formula evaluates to a
/// violation.
pub(crate) struct Witness {
    prog: TapeProgram,
    st: TapeState,
}

impl Witness {
    /// The candidate's value of `var`, if the formula reads it.
    pub(crate) fn value_of(&self, var: ExprRef) -> Option<Value> {
        self.prog.slot_of(var).map(|s| self.prog.read(&self.st, s))
    }
}

/// What one sampled check did, for its `falsify` span.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Candidates evaluated.
    pub(crate) drawn: u64,
    /// Candidates under which every antecedent conjunct held.
    pub(crate) passed_pre: u64,
}

/// The check's formula over `u`: the antecedent conjuncts `pre`, the
/// violation `viol` at frame `bound`, and whether the inputs of frames
/// `1..bound` hold frame 0's. `pre` and `viol` are cofactored from
/// `plain_pre` and `plain_viol`, and candidates are drawn as for those:
/// for their variables, from their antecedent's constants, so the
/// cofactoring moves no draw.
pub(crate) struct Formula<'a> {
    pub(crate) pre: &'a [ExprRef],
    pub(crate) viol: ExprRef,
    pub(crate) plain_pre: &'a [ExprRef],
    pub(crate) plain_viol: ExprRef,
    pub(crate) bound: usize,
    pub(crate) hold: bool,
}

/// Draws up to [`SAMPLES`] candidates from `seed` and returns the first
/// one under which `f` evaluates to a violation, with the tally of what
/// was drawn.
pub(crate) fn falsify(u: &Unrolling, f: &Formula<'_>, seed: u64) -> (Option<Witness>, Tally) {
    let ctx = u.ctx();
    let (prog, ends) = TapeProgram::compile_segmented(ctx, &[f.pre, &[f.viol]]);
    let mut st = prog.new_state();
    let mut rng = StdRng::seed_from_u64(seed);

    // The dictionary: every word-sized constant of the antecedent, by
    // width, in first-seen order.
    let mut dict: HashMap<u32, Vec<u64>> = HashMap::new();
    for e in ctx.post_order(f.plain_pre) {
        if let ExprNode::BvConst(v) = ctx.node(e) {
            if v.width() <= 64 {
                let words = dict.entry(v.width()).or_default();
                if !words.contains(&v.to_u64()) {
                    words.push(v.to_u64());
                }
            }
        }
    }

    // A variable of the plain formula is drawn even when the cofactored
    // one no longer reads it (it has no slot then), so the stream of
    // draws is the plain formula's.
    let plain_vars: HashSet<ExprRef> = ctx
        .vars_of(&[f.plain_pre, &[f.plain_viol]].concat())
        .into_iter()
        .collect();

    // Under `Hold`, the inputs of frames `1..bound` copy frame 0's.
    let frames = &u.frames()[..=f.bound];
    let mut copies: Vec<(Slot, Slot)> = Vec::new();
    let mut held: HashSet<ExprRef> = HashSet::new();
    if f.hold {
        for frame in &frames[1..f.bound] {
            for (name, &var) in &frame.inputs {
                let var0 = frames[0].inputs[name];
                if plain_vars.contains(&var) && plain_vars.contains(&var0) {
                    held.insert(var);
                    if let (Some(to), Some(from)) = (prog.slot_of(var), prog.slot_of(var0)) {
                        copies.push((from, to));
                    }
                }
            }
        }
    }
    // The free variables: frame 0's state and every frame's inputs, in
    // the frames' name order. Words are redrawn per candidate; wider
    // vectors and memories are drawn here, once.
    let mut words: Vec<(Option<Slot>, u32)> = Vec::new();
    let vars = frames[0]
        .states
        .values()
        .chain(frames.iter().flat_map(|fr| fr.inputs.values()));
    for &var in vars {
        if !plain_vars.contains(&var) || held.contains(&var) {
            continue;
        }
        let slot = prog.slot_of(var);
        match ctx.sort_of(var) {
            Sort::Bool => words.push((slot, 1)),
            Sort::Bv(w) if w <= 64 => words.push((slot, w)),
            sort => {
                let v = random_value(&mut rng, sort);
                if let Some(slot) = slot {
                    prog.write(&mut st, slot, &v);
                }
            }
        }
    }

    let mut tally = Tally::default();
    let viol_root = prog.root_slot(f.pre.len());
    for _ in 0..SAMPLES {
        for &(slot, w) in &words {
            let x = draw(&mut rng, dict.get(&w));
            if let Some(slot) = slot {
                prog.write_word(&mut st, slot, x);
            }
        }
        for &(from, to) in &copies {
            prog.copy_slot(&mut st, from, to);
        }
        tally.drawn += 1;
        prog.run_range(&mut st, 0..ends[0]);
        if !(0..f.pre.len()).all(|i| prog.read_word(&st, prog.root_slot(i)) == 1) {
            continue;
        }
        tally.passed_pre += 1;
        prog.run_range(&mut st, ends[0]..ends[1]);
        if prog.read_word(&st, viol_root) == 1 {
            return (Some(Witness { prog, st }), tally);
        }
    }
    (None, tally)
}

/// One word draw (masked to the slot's width on write): half the time
/// a dictionary constant of the slot's width, one time in eight zero,
/// one in eight all-ones, otherwise uniform bits.
fn draw(rng: &mut StdRng, dict: Option<&Vec<u64>>) -> u64 {
    let r = rng.next_u64();
    match (r & 7, dict) {
        (0..=3, Some(d)) => d[(r >> 3) as usize % d.len()],
        (4, _) => 0,
        (5, _) => u64::MAX,
        _ => rng.gen(),
    }
}
