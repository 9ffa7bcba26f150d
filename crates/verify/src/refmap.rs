//! Refinement maps: the small, user-supplied glue between a port-ILA
//! specification and an RTL implementation (paper Fig. 5).
//!
//! A refinement map has three parts:
//!
//! * **state map** — which RTL signal corresponds to each ILA
//!   architectural state (checked for equivalence before and after each
//!   instruction);
//! * **interface map** — which RTL signal presents each ILA input;
//! * **instruction map** — per instruction, when it starts (its decode
//!   function, optionally strengthened) and when to check equivalence
//!   (a fixed cycle count, or a monitored RTL condition with a bound).
//!
//! Maps serialize to/from JSON (the paper reports refinement-map sizes
//! in JSON LoC), with RTL-side conditions written as Verilog expressions.

use std::collections::BTreeMap;

use gila_json::Value;

/// When an instruction's execution finishes in the RTL (i.e. when the
/// state-map equivalence is checked).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FinishCondition {
    /// Check after exactly this many clock cycles.
    Cycles(
        /// Number of cycles (>= 1).
        usize,
    ),
    /// Check at the first cycle (within `max_cycles`) where the Verilog
    /// condition holds.
    Condition {
        /// A boolean Verilog expression over RTL signals.
        expr: String,
        /// Upper bound on the finish cycle.
        max_cycles: usize,
    },
}

impl Default for FinishCondition {
    fn default() -> Self {
        FinishCondition::Cycles(1)
    }
}

/// What the RTL inputs do on the cycles *after* the command is presented
/// (relevant only for multi-cycle finish conditions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InputPolicy {
    /// Inputs are unconstrained after cycle 0.
    #[default]
    Free,
    /// Inputs hold their cycle-0 values for the whole execution.
    Hold,
}

/// Per-instruction verification directives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstructionMap {
    /// The atomic instruction's name, or `"*"` for a default entry.
    pub instruction: String,
    /// Extra start condition (a Verilog expression over RTL signals),
    /// conjoined with the instruction's decode function. `None` means the
    /// start condition is exactly the decode function.
    pub start_strengthening: Option<String>,
    /// When to check the post-state equivalence.
    pub finish: FinishCondition,
    /// Input behaviour during multi-cycle execution.
    pub input_policy: InputPolicy,
}

impl InstructionMap {
    /// A default entry (`finish: 1 cycle`, decode-only start) for the
    /// named instruction.
    pub fn single_cycle(instruction: impl Into<String>) -> Self {
        InstructionMap {
            instruction: instruction.into(),
            start_strengthening: None,
            finish: FinishCondition::Cycles(1),
            input_policy: InputPolicy::Free,
        }
    }
}

/// A refinement map connecting one port-ILA to an RTL implementation.
///
/// # Examples
///
/// ```
/// use gila_verify::RefinementMap;
///
/// let mut map = RefinementMap::new("decoder");
/// map.map_state("current_word", "op");
/// map.map_state("step", "status");
/// map.map_input("wait", "wait_data");
/// map.add_invariant("status <= 2'd3");
/// let json = map.to_json();
/// let back = RefinementMap::from_json(&json).unwrap();
/// assert_eq!(map, back);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefinementMap {
    /// Name (usually the port name).
    pub name: String,
    /// ILA architectural state -> RTL signal.
    pub state_map: BTreeMap<String, String>,
    /// ILA input -> RTL signal.
    pub interface_map: BTreeMap<String, String>,
    /// Per-instruction directives. Instructions without an entry use the
    /// `"*"` entry, or the all-default single-cycle entry if none exists.
    pub instruction_maps: Vec<InstructionMap>,
    /// ILA states that participate in the *pre-state* correspondence but
    /// are not checked for equivalence after the instruction — used when
    /// a port reads a state another port owns (e.g. the store buffer's
    /// load-port reads the buffer array that the in/out port updates;
    /// simultaneous traffic on the other port may legitimately change it).
    pub unchecked_states: Vec<String>,
    /// Reachability invariants assumed at the start state, as Verilog
    /// expressions over RTL signals (e.g. `"status <= 2'd3"`). These
    /// restrict the symbolic start to states the RTL can actually reach,
    /// mirroring standard ILA refinement practice.
    pub invariants: Vec<String>,
}

impl RefinementMap {
    /// Creates an empty map with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        RefinementMap {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Maps an ILA state to an RTL signal.
    pub fn map_state(&mut self, ila_state: impl Into<String>, rtl_signal: impl Into<String>) {
        self.state_map.insert(ila_state.into(), rtl_signal.into());
    }

    /// Maps an ILA input to an RTL signal.
    pub fn map_input(&mut self, ila_input: impl Into<String>, rtl_signal: impl Into<String>) {
        self.interface_map
            .insert(ila_input.into(), rtl_signal.into());
    }

    /// Adds a start-state invariant (Verilog expression over RTL signals).
    pub fn add_invariant(&mut self, expr: impl Into<String>) {
        self.invariants.push(expr.into());
    }

    /// Marks an ILA state as pre-state-only (see `unchecked_states`).
    pub fn mark_unchecked(&mut self, ila_state: impl Into<String>) {
        self.unchecked_states.push(ila_state.into());
    }

    /// The directive for an instruction: its own entry, else the `"*"`
    /// entry, else the single-cycle default.
    pub fn instruction_map_for(&self, instruction: &str) -> InstructionMap {
        self.instruction_maps
            .iter()
            .find(|m| m.instruction == instruction)
            .or_else(|| {
                self.instruction_maps
                    .iter()
                    .find(|m| m.instruction == "*")
            })
            .cloned()
            .unwrap_or_else(|| InstructionMap::single_cycle(instruction))
    }

    /// Serializes to pretty JSON (the artifact whose line count Table I
    /// reports as "Ref-map Size (LoC)").
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("name".into(), Value::from(self.name.clone())),
            ("state_map".into(), Value::from(&self.state_map)),
            ("interface_map".into(), Value::from(&self.interface_map)),
            (
                "instruction_maps".into(),
                Value::Array(self.instruction_maps.iter().map(instr_map_to_value).collect()),
            ),
            (
                "unchecked_states".into(),
                Value::from(self.unchecked_states.clone()),
            ),
            ("invariants".into(), Value::from(self.invariants.clone())),
        ])
    }

    /// Parses a map from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`RefMapParseError`] on malformed JSON or on a document
    /// that doesn't match the refinement-map schema.
    pub fn from_json(json: &str) -> Result<Self, RefMapParseError> {
        let doc = gila_json::parse(json).map_err(|e| RefMapParseError(e.to_string()))?;
        let name = require_str(&doc, "name")?.to_string();
        let state_map = parse_string_map(&doc, "state_map")?;
        let interface_map = parse_string_map(&doc, "interface_map")?;
        let instruction_maps = match doc.get("instruction_maps") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| RefMapParseError("instruction_maps must be an array".into()))?
                .iter()
                .map(instr_map_from_value)
                .collect::<Result<_, _>>()?,
        };
        Ok(RefinementMap {
            name,
            state_map,
            interface_map,
            instruction_maps,
            unchecked_states: parse_string_list(&doc, "unchecked_states")?,
            invariants: parse_string_list(&doc, "invariants")?,
        })
    }

    /// Line count of the JSON rendering ("Ref-map Size (LoC)").
    pub fn size_loc(&self) -> usize {
        self.to_json().lines().count()
    }
}

/// Error parsing a refinement map from JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefMapParseError(String);

impl std::fmt::Display for RefMapParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "refinement map: {}", self.0)
    }
}

impl std::error::Error for RefMapParseError {}

fn instr_map_to_value(m: &InstructionMap) -> Value {
    let mut fields = vec![("instruction".into(), Value::from(m.instruction.clone()))];
    if let Some(s) = &m.start_strengthening {
        fields.push(("start_strengthening".into(), Value::from(s.clone())));
    }
    // Externally-tagged enum layout, matching the original serde schema.
    let finish = match &m.finish {
        FinishCondition::Cycles(n) => Value::object(vec![("cycles".into(), Value::from(*n))]),
        FinishCondition::Condition { expr, max_cycles } => Value::object(vec![(
            "condition".into(),
            Value::object(vec![
                ("expr".into(), Value::from(expr.clone())),
                ("max_cycles".into(), Value::from(*max_cycles)),
            ]),
        )]),
    };
    fields.push(("finish".into(), finish));
    let policy = match m.input_policy {
        InputPolicy::Free => "free",
        InputPolicy::Hold => "hold",
    };
    fields.push(("input_policy".into(), Value::from(policy)));
    Value::object(fields)
}

fn instr_map_from_value(v: &Value) -> Result<InstructionMap, RefMapParseError> {
    let instruction = require_str(v, "instruction")?.to_string();
    let start_strengthening = match v.get("start_strengthening") {
        None | Some(Value::Null) => None,
        Some(s) => Some(
            s.as_str()
                .ok_or_else(|| RefMapParseError("start_strengthening must be a string".into()))?
                .to_string(),
        ),
    };
    let finish = match v.get("finish") {
        None => FinishCondition::default(),
        Some(f) => parse_finish(f)?,
    };
    let input_policy = match v.get("input_policy").and_then(Value::as_str) {
        None => InputPolicy::default(),
        Some("free") => InputPolicy::Free,
        Some("hold") => InputPolicy::Hold,
        Some(other) => {
            return Err(RefMapParseError(format!("unknown input_policy `{other}`")));
        }
    };
    Ok(InstructionMap {
        instruction,
        start_strengthening,
        finish,
        input_policy,
    })
}

fn parse_finish(v: &Value) -> Result<FinishCondition, RefMapParseError> {
    if let Some(n) = v.get("cycles") {
        let n = n
            .as_usize()
            .ok_or_else(|| RefMapParseError("finish.cycles must be a non-negative integer".into()))?;
        return Ok(FinishCondition::Cycles(n));
    }
    if let Some(c) = v.get("condition") {
        let expr = require_str(c, "expr")?.to_string();
        let max_cycles = c
            .get("max_cycles")
            .and_then(Value::as_usize)
            .ok_or_else(|| {
                RefMapParseError("finish.condition.max_cycles must be a non-negative integer".into())
            })?;
        return Ok(FinishCondition::Condition { expr, max_cycles });
    }
    Err(RefMapParseError(
        "finish must be {\"cycles\": N} or {\"condition\": {...}}".into(),
    ))
}

fn require_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, RefMapParseError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| RefMapParseError(format!("missing or non-string field `{key}`")))
}

fn parse_string_map(
    doc: &Value,
    key: &str,
) -> Result<BTreeMap<String, String>, RefMapParseError> {
    let fields = doc
        .get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| RefMapParseError(format!("missing or non-object field `{key}`")))?;
    fields
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_string()))
                .ok_or_else(|| RefMapParseError(format!("`{key}` values must be strings")))
        })
        .collect()
}

fn parse_string_list(doc: &Value, key: &str) -> Result<Vec<String>, RefMapParseError> {
    match doc.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| RefMapParseError(format!("`{key}` must be an array")))?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| RefMapParseError(format!("`{key}` entries must be strings")))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RefinementMap {
        let mut m = RefinementMap::new("DECODER");
        m.map_state("current_word", "op");
        m.map_state("step", "status");
        m.map_input("wait", "wait_data");
        m.map_input("word_in", "op_in");
        m.add_invariant("status <= 2'd3");
        m.instruction_maps.push(InstructionMap {
            instruction: "process_s1".into(),
            start_strengthening: Some("status == 2'd1".into()),
            finish: FinishCondition::Cycles(1),
            input_policy: InputPolicy::Free,
        });
        m
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let json = m.to_json();
        let back = RefinementMap::from_json(&json).unwrap();
        assert_eq!(m, back);
        assert!(m.size_loc() > 10);
    }

    #[test]
    fn instruction_map_lookup_precedence() {
        let mut m = sample();
        // exact entry
        assert_eq!(
            m.instruction_map_for("process_s1").start_strengthening,
            Some("status == 2'd1".to_string())
        );
        // default single-cycle fallback
        let d = m.instruction_map_for("stall");
        assert_eq!(d.finish, FinishCondition::Cycles(1));
        // wildcard overrides fallback
        m.instruction_maps.push(InstructionMap {
            instruction: "*".into(),
            start_strengthening: None,
            finish: FinishCondition::Cycles(2),
            input_policy: InputPolicy::Hold,
        });
        assert_eq!(m.instruction_map_for("stall").finish, FinishCondition::Cycles(2));
    }

    #[test]
    fn condition_finish_serializes() {
        let mut m = RefinementMap::new("x");
        m.instruction_maps.push(InstructionMap {
            instruction: "req".into(),
            start_strengthening: None,
            finish: FinishCondition::Condition {
                expr: "done == 1'b1".into(),
                max_cycles: 8,
            },
            input_policy: InputPolicy::Hold,
        });
        let back = RefinementMap::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }
}
