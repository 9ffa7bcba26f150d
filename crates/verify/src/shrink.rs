//! Divergence auto-shrinking: reduce a reproducing command stream to a
//! locally minimal one.
//!
//! `gila hunt` finds divergences with deep random traces — hundreds or
//! thousands of commands, almost all of which are irrelevant to the
//! bug. This module replays candidate streams on the compiled backend
//! (one tape compilation, thousands of cheap replays) and applies two
//! reductions:
//!
//! 1. **Command minimization** — delta debugging (ddmin) over the cycle
//!    list for fast bulk removal, then single-removal passes to a
//!    fixpoint. The fixpoint guarantees *1-minimality*: removing any
//!    single remaining command makes the divergence disappear.
//! 2. **Value minimization** — per cycle and per pin, try driving zero,
//!    then try clearing each set bit; keep whatever still reproduces.
//!
//! A candidate *reproduces* when replay diverges on the same ILA state
//! name as the original (the cycle may move — earlier is better). The
//! shrunk stream replays from the same recorded start state, so the
//! result is a standalone, deterministic reproducer.

use gila_core::PortIla;
use gila_expr::BitVecValue;
use gila_rtl::RtlModule;

use crate::compiled::{CompiledCosim, CycleInputs};
use crate::cosim::{cosim_loop, replay, CosimBackend, CosimError, Divergence, Drive};
use crate::refmap::RefinementMap;

/// The outcome of shrinking one divergence.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized divergence (same state, same start state, shortest
    /// stream found).
    pub divergence: Divergence,
    /// Cycles in the original reproducing stream.
    pub original_cycles: usize,
    /// Replays spent across both minimization phases.
    pub replays: usize,
}

struct Shrinker<'a, 'b> {
    cs: &'b mut CompiledCosim<'a>,
    original: &'b Divergence,
    replays: usize,
}

impl Shrinker<'_, '_> {
    /// Replays `stream`; true iff it diverges on the original state.
    fn reproduces(&mut self, stream: &[CycleInputs]) -> bool {
        self.replays += 1;
        // A pruned stream may lose decodability mid-way; that candidate
        // simply doesn't reproduce.
        self.cs.reset(&self.original.start_state).is_ok()
            && matches!(
                cosim_loop(self.cs, Drive::Stream(stream)),
                Ok(Some((_, m))) if self.cs.mapped_name(m) == self.original.state
            )
    }

    /// Delta debugging over the command list: remove progressively
    /// smaller chunks while the stream still reproduces.
    fn ddmin(&mut self, mut stream: Vec<CycleInputs>) -> Vec<CycleInputs> {
        let mut n = 2usize;
        while stream.len() >= 2 {
            let chunk = stream.len().div_ceil(n);
            let mut any = false;
            let mut start = 0;
            while start < stream.len() {
                let end = (start + chunk).min(stream.len());
                let candidate: Vec<CycleInputs> = stream[..start]
                    .iter()
                    .chain(&stream[end..])
                    .cloned()
                    .collect();
                if !candidate.is_empty() && self.reproduces(&candidate) {
                    stream = candidate;
                    any = true;
                    // `start` stays: the next chunk has shifted into place.
                } else {
                    start = end;
                }
            }
            if any {
                n = n.saturating_sub(1).max(2);
            } else if chunk <= 1 {
                break;
            } else {
                n = (2 * n).min(stream.len());
            }
        }
        stream
    }

    /// Single-command removal to a fixpoint: afterwards, removing any
    /// one command no longer reproduces (1-minimality).
    fn one_minimal(&mut self, mut stream: Vec<CycleInputs>) -> Vec<CycleInputs> {
        loop {
            let mut removed = false;
            let mut i = 0;
            while i < stream.len() && stream.len() > 1 {
                let mut candidate = stream.clone();
                candidate.remove(i);
                if self.reproduces(&candidate) {
                    stream = candidate;
                    removed = true;
                } else {
                    i += 1;
                }
            }
            if !removed {
                return stream;
            }
        }
    }

    /// Per-pin value minimization: drive zero where possible, else clear
    /// individual bits. Applies to word-bank pins and to wide pins (the
    /// latter only via the all-zero attempt).
    fn minimize_values(&mut self, mut stream: Vec<CycleInputs>) -> Vec<CycleInputs> {
        for cycle in 0..stream.len() {
            for pin in 0..stream[cycle].words.len() {
                let word = stream[cycle].words[pin];
                if word != 0 {
                    let mut candidate = stream.clone();
                    candidate[cycle].words[pin] = 0;
                    if self.reproduces(&candidate) {
                        stream = candidate;
                        continue;
                    }
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits & bits.wrapping_neg();
                        bits &= bits - 1;
                        let current = stream[cycle].words[pin];
                        if current & bit == 0 {
                            continue;
                        }
                        let mut candidate = stream.clone();
                        candidate[cycle].words[pin] = current & !bit;
                        if self.reproduces(&candidate) {
                            stream = candidate;
                        }
                    }
                }
            }
            for w_i in 0..stream[cycle].wides.len() {
                let (pin, ref v) = stream[cycle].wides[w_i];
                if !v.is_zero() {
                    let mut candidate = stream.clone();
                    candidate[cycle].wides[w_i] = (pin, BitVecValue::zero(v.width()));
                    if self.reproduces(&candidate) {
                        stream = candidate;
                    }
                }
            }
        }
        stream
    }
}

/// Shrinks `divergence` to a locally minimal reproducing command
/// stream: 1-minimal in commands, bit-minimal per driven value, same
/// diverging state, same start state.
///
/// # Errors
///
/// Setup errors from [`CosimError`]; also
/// [`CosimError::NoDecodableCommand`] if the *original* stream fails to
/// reproduce its own divergence (a non-deterministic model).
pub fn shrink_divergence(
    port: &PortIla,
    rtl: &RtlModule,
    map: &RefinementMap,
    divergence: &Divergence,
) -> Result<ShrinkResult, CosimError> {
    let mut cs = CompiledCosim::new(port, rtl, map)?;
    shrink_with(&mut cs, divergence)
}

/// [`shrink_divergence`] over an already-compiled pair — what `gila
/// hunt` uses so each worker compiles a design once.
pub(crate) fn shrink_with(
    cs: &mut CompiledCosim<'_>,
    divergence: &Divergence,
) -> Result<ShrinkResult, CosimError> {
    let encoded: Vec<CycleInputs> = divergence
        .inputs
        .iter()
        .map(|v| cs.encode_inputs(v))
        .collect();
    let original_cycles = encoded.len();
    let mut shrinker = Shrinker {
        cs,
        original: divergence,
        replays: 0,
    };
    if !shrinker.reproduces(&encoded) {
        return Err(CosimError::NoDecodableCommand {
            cycle: divergence.cycle,
        });
    }
    let stream = shrinker.ddmin(encoded);
    let stream = shrinker.one_minimal(stream);
    let stream = shrinker.minimize_values(stream);
    let replays = shrinker.replays;

    // Final replay materializes the minimized divergence.
    let divergence = replay(cs, &divergence.start_state, &stream)?
        .expect("minimized stream stopped reproducing");
    Ok(ShrinkResult {
        divergence,
        original_cycles,
        replays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::cosimulate_compiled;
    use crate::replay_compiled;
    use gila_core::StateKind;
    use gila_expr::Sort;
    use gila_rtl::parse_verilog;

    /// A counter that only miscounts when `en` and `mode` are both high:
    /// the bug needs a specific command, so most of a random trace is
    /// noise the shrinker must strip.
    fn gated_bug() -> (PortIla, RtlModule, RefinementMap) {
        let mut p = PortIla::new("gated");
        let en = p.input("en", Sort::Bv(1));
        let mode = p.input("mode", Sort::Bv(1));
        let cnt = p.state("cnt", Sort::Bv(8), StateKind::Output);
        let _ = mode;
        let d_en = p.ctx_mut().eq_u64(en, 1);
        let one = p.ctx_mut().bv_u64(1, 8);
        let nx = p.ctx_mut().bvadd(cnt, one);
        p.instr("inc").decode(d_en).update("cnt", nx).add().unwrap();
        let d_hold = p.ctx_mut().eq_u64(en, 0);
        p.instr("hold").decode(d_hold).add().unwrap();
        let rtl = parse_verilog(
            r#"
module gated(clk, en_in, mode_in);
  input clk; input en_in; input mode_in;
  reg [7:0] count;
  always @(posedge clk)
    if (en_in) count <= count + (mode_in ? 8'd3 : 8'd1);
endmodule
"#,
        )
        .unwrap();
        let mut map = RefinementMap::new("gated");
        map.map_state("cnt", "count");
        map.map_input("en", "en_in");
        map.map_input("mode", "mode_in");
        (p, rtl, map)
    }

    #[test]
    fn shrinks_to_single_command_and_is_one_minimal() {
        let (p, rtl, map) = gated_bug();
        let d = cosimulate_compiled(&p, &rtl, &map, 3, 400)
            .unwrap()
            .expect("bug must surface");
        let shrunk = shrink_divergence(&p, &rtl, &map, &d).unwrap();
        // The bug is one bad command; the minimal stream is exactly it.
        assert_eq!(shrunk.divergence.inputs.len(), 1);
        assert_eq!(shrunk.divergence.state, d.state);
        assert_eq!(shrunk.original_cycles, d.inputs.len());
        assert!(shrunk.replays > 0);
        // The minimized values still drive both trigger pins high.
        let cmd = &shrunk.divergence.inputs[0];
        assert_eq!(cmd["en_in"].to_u64(), 1);
        assert_eq!(cmd["mode_in"].to_u64(), 1);
        // And the shrunk stream replays to the same divergence.
        let r = replay_compiled(&p, &rtl, &map, &shrunk.divergence.start_state, &shrunk.divergence.inputs)
            .unwrap()
            .expect("shrunk stream reproduces");
        assert_eq!(r.state, d.state);
        // 1-minimality: the empty stream cannot reproduce.
        let r = replay_compiled(&p, &rtl, &map, &shrunk.divergence.start_state, &[]).unwrap();
        assert!(r.is_none());
    }
}
