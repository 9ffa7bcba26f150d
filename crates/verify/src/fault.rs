//! Test-only fault injection for the verification engine.
//!
//! A [`FaultPlan`] is a list of rules matched against each check's
//! `(port, instruction)` pair just before it runs. A matching rule
//! fires its action — panic the check, or force an `Unknown` verdict (by
//! swapping the check's budget for an already-expired deadline) — a
//! bounded number of times, then goes inert. This is how the robustness
//! machinery (panic isolation, budget exhaustion, checkpoint/resume) is
//! exercised deterministically in tests and CI without needing a
//! genuinely hard SAT instance.
//!
//! Plans are built programmatically ([`FaultPlan::inject`]) or parsed
//! from the `GILA_FAULT_PLAN` environment variable by the CLI
//! ([`FaultPlan::from_env`]); the engine itself never reads the
//! environment, so an exported variable cannot corrupt library users.
//!
//! The spec grammar is semicolon-separated rules:
//!
//! ```text
//! ACTION@PORT/INSTR[*COUNT]
//! ACTION := panic | panic:MESSAGE | unknown
//! ```
//!
//! `PORT` and `INSTR` may be `*` (match anything); `COUNT` bounds how
//! often the rule fires (default: unlimited). Example:
//! `panic:boom@counter/inc*1; unknown@*/dec`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// What an injected fault does to the check it hits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message (exercises the engine's panic isolation).
    Panic(String),
    /// Replace the check's budget with an expired deadline, forcing a
    /// `CheckResult::Unknown` through the real resource-out path.
    ForceUnknown,
}

/// One fault rule: an action, a `(port, instruction)` pattern, and a
/// remaining fire count.
#[derive(Debug)]
struct FaultRule {
    port: String,
    instr: String,
    action: FaultAction,
    /// Fires remaining; `u64::MAX` means unlimited.
    remaining: AtomicU64,
}

impl FaultRule {
    fn matches(&self, port: &str, instr: &str) -> bool {
        (self.port == "*" || self.port == port) && (self.instr == "*" || self.instr == instr)
    }

    /// Consumes one fire if any remain.
    fn try_fire(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// A set of fault rules, shared read-only across a run's worker
/// threads.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a rule: `action` fires for checks matching `port`/`instr`
    /// (either may be `"*"`) at most `count` times (`None` = unlimited).
    pub fn inject(
        mut self,
        port: &str,
        instr: &str,
        action: FaultAction,
        count: Option<u64>,
    ) -> Self {
        self.rules.push(FaultRule {
            port: port.to_string(),
            instr: instr.to_string(),
            action,
            remaining: AtomicU64::new(count.unwrap_or(u64::MAX)),
        });
        self
    }

    /// The plan from the `GILA_FAULT_PLAN` environment variable, if set
    /// and non-empty. Only the CLI calls this; library runs inject
    /// faults solely through [`crate::VerifyOptions::fault_plan`].
    pub fn from_env() -> Result<Option<FaultPlan>, FaultPlanError> {
        match std::env::var("GILA_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Parses the spec grammar described in the module docs.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let bad = |rule: &str, why: &str| {
            Err(FaultPlanError {
                rule: rule.to_string(),
                reason: why.to_string(),
            })
        };
        let mut plan = FaultPlan::new();
        for rule in spec.split(';').filter(|r| !r.trim().is_empty()) {
            let rule = rule.trim();
            let Some((action_s, target)) = rule.split_once('@') else {
                return bad(rule, "expected ACTION@PORT/INSTR");
            };
            let Some((port, instr_part)) = target.split_once('/') else {
                return bad(rule, "target must be PORT/INSTR");
            };
            // The instruction part may carry a `*COUNT` suffix; a bare
            // `*` is the wildcard instruction, not a count marker.
            let (instr, count) = match instr_part.rsplit_once('*') {
                None => (instr_part, None),
                Some(("", "")) => (instr_part, None),
                Some((_, "")) => return bad(rule, "fire count after `*` must be an integer"),
                Some((i, n)) => match n.parse::<u64>() {
                    Ok(c) => (i, Some(c)),
                    Err(_) => return bad(rule, "fire count after `*` must be an integer"),
                },
            };
            if port.is_empty() || instr.is_empty() {
                return bad(rule, "target must be PORT/INSTR");
            }
            let action = match action_s.split_once(':') {
                None if action_s == "panic" => FaultAction::Panic("injected panic".to_string()),
                Some(("panic", msg)) => FaultAction::Panic(msg.to_string()),
                None if action_s == "unknown" => FaultAction::ForceUnknown,
                _ => return bad(rule, "action must be panic, panic:MSG or unknown"),
            };
            plan = plan.inject(port, instr, action, count);
        }
        Ok(plan)
    }

    /// The action to apply to this check, if a rule matches and still has
    /// fires left. The first matching rule (in declaration order) with
    /// remaining fires wins, and one fire is consumed.
    pub fn fire(&self, port: &str, instr: &str) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|r| r.matches(port, instr) && r.try_fire())
            .map(|r| r.action.clone())
    }
}

/// A rule in a fault-plan spec that failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanError {
    /// The offending rule text.
    pub rule: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault rule {:?}: {}", self.rule, self.reason)
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rules_and_wildcards() {
        let plan =
            FaultPlan::parse("panic:boom@counter/inc*1; unknown@*/dec ;panic:@p/i").unwrap();
        assert_eq!(
            plan.fire("counter", "inc"),
            Some(FaultAction::Panic("boom".into()))
        );
        // The count-1 rule is spent.
        assert_eq!(plan.fire("counter", "inc"), None);
        assert_eq!(plan.fire("anything", "dec"), Some(FaultAction::ForceUnknown));
        assert_eq!(plan.fire("anything", "dec"), Some(FaultAction::ForceUnknown));
        assert_eq!(plan.fire("p", "i"), Some(FaultAction::Panic(String::new())));
        assert_eq!(plan.fire("p", "other"), None);
    }

    #[test]
    fn parse_default_panic_message_and_star_instr() {
        let plan = FaultPlan::parse("panic@*/*").unwrap();
        assert_eq!(
            plan.fire("any", "thing"),
            Some(FaultAction::Panic("injected panic".into()))
        );
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        for bad in [
            "panic",
            "panic@noslash",
            "explode@a/b",
            "delay:5@a/b",
            "unknown@a/b*x",
            "unknown:x@a/b",
            "panicky@p/i",
            "panic-now@p/i",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn first_matching_rule_wins_until_spent() {
        let plan = FaultPlan::new()
            .inject("p", "i", FaultAction::ForceUnknown, Some(1))
            .inject("*", "*", FaultAction::Panic("fallback".into()), None);
        assert_eq!(plan.fire("p", "i"), Some(FaultAction::ForceUnknown));
        assert_eq!(
            plan.fire("p", "i"),
            Some(FaultAction::Panic("fallback".into()))
        );
    }
}
