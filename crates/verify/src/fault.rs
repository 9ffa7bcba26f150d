//! Test-only fault injection for the verification engine.
//!
//! A [`FaultPlan`] is a list of rules matched against each check's
//! `(port, instruction)` pair just before it runs. A matching rule
//! fires its action — panic the check, force an `Unknown` verdict (by
//! swapping the check's budget for an already-expired deadline), or sleep
//! — a bounded number of times, then goes inert. This is how the
//! robustness machinery (panic isolation, budget exhaustion,
//! checkpoint/resume) is exercised deterministically in tests and CI
//! without needing a genuinely hard SAT instance.
//!
//! Plans are built programmatically ([`FaultPlan::inject`]) or parsed
//! from the `GILA_FAULT_PLAN` environment variable by the CLI
//! ([`FaultPlan::from_env`]); the engine itself never reads the
//! environment, so an exported variable cannot corrupt library users.
//!
//! The spec grammar is semicolon-separated rules of two families —
//! check faults (target has a `/`) and socket faults (target is a frame
//! index), the latter exercised by the `gila serve` daemon and client:
//!
//! ```text
//! ACTION@PORT/INSTR[*COUNT]
//! ACTION := panic[:MESSAGE] | unknown | delay:MILLIS
//!
//! SOCKET_ACTION@FRAME[*COUNT]
//! SOCKET_ACTION := disconnect | io-error | slow-client:MILLIS
//! ```
//!
//! `PORT` and `INSTR` may be `*` (match anything); `FRAME` is a 0-based
//! frame index or `*`; `COUNT` bounds how often the rule fires
//! (default: unlimited). Examples: `panic:boom@counter/inc*1;
//! unknown@*/dec`, `disconnect@1*1`, `slow-client:20@*`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injected fault does to the check it hits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message (exercises the engine's panic isolation).
    Panic(String),
    /// Replace the check's budget with an expired deadline, forcing a
    /// `CheckResult::Unknown` through the real resource-out path.
    ForceUnknown,
    /// Sleep before running the check (exercises timing-dependent paths).
    Delay(Duration),
}

/// What an injected socket fault does to the connection it hits. These
/// are interpreted by the serve-layer I/O code (the engine never sees
/// them): the injecting side truncates, errors, or throttles its own
/// stream so the *peer* has to survive the abuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFault {
    /// Close the connection abruptly — when fired mid-frame, the peer
    /// sees a half-written frame followed by EOF.
    Disconnect,
    /// Surface an I/O error on the stream instead of completing the
    /// frame.
    IoError,
    /// Sleep this long between chunks while writing a frame (a slow or
    /// stalled client).
    SlowClient(Duration),
}

/// One socket fault rule: a fault, a frame-index pattern, and a
/// remaining fire count.
#[derive(Debug)]
struct SocketRule {
    /// 0-based frame index this rule matches; `None` matches any frame.
    frame: Option<u64>,
    fault: SocketFault,
    /// Fires remaining; `u64::MAX` means unlimited.
    remaining: AtomicU64,
}

impl SocketRule {
    fn try_fire(&self, frame: u64) -> bool {
        (self.frame.is_none() || self.frame == Some(frame))
            && self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
    }
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

/// A set of fault rules, shared read-only across threads (a daemon's
/// request workers).
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    socket_rules: Vec<SocketRule>,
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
                return bad(rule, "expected ACTION@PORT/INSTR or SOCKET_ACTION@FRAME");
            };
            // Socket-family rules target a frame index, not PORT/INSTR.
            let socket_fault = if action_s == "disconnect" {
                Some(SocketFault::Disconnect)
            } else if action_s == "io-error" {
                Some(SocketFault::IoError)
            } else if let Some(ms) = action_s.strip_prefix("slow-client:") {
                match ms.parse::<u64>() {
                    Ok(ms) => Some(SocketFault::SlowClient(Duration::from_millis(ms))),
                    Err(_) => return bad(rule, "slow-client wants milliseconds, e.g. slow-client:20"),
                }
            } else {
                None
            };
            if let Some(fault) = socket_fault {
                if target.contains('/') {
                    return bad(rule, "socket faults target a frame index, not PORT/INSTR");
                }
                let (frame_s, count) = match target.rsplit_once('*') {
                    None => (target, None),
                    Some(("", "")) => (target, None),
                    Some((_, "")) => return bad(rule, "fire count after `*` must be an integer"),
                    Some((f, n)) => match n.parse::<u64>() {
                        Ok(c) => (f, Some(c)),
                        Err(_) => return bad(rule, "fire count after `*` must be an integer"),
                    },
                };
                let frame = if frame_s == "*" {
                    None
                } else {
                    match frame_s.parse::<u64>() {
                        Ok(f) => Some(f),
                        Err(_) => return bad(rule, "frame must be an index or `*`"),
                    }
                };
                plan = plan.inject_socket(frame, fault, count);
                continue;
            }
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
            let action = if let Some(msg) = action_s.strip_prefix("panic") {
                FaultAction::Panic(
                    msg.strip_prefix(':').unwrap_or("injected panic").to_string(),
                )
            } else if action_s == "unknown" {
                FaultAction::ForceUnknown
            } else if let Some(ms) = action_s.strip_prefix("delay:") {
                match ms.parse::<u64>() {
                    Ok(ms) => FaultAction::Delay(Duration::from_millis(ms)),
                    Err(_) => return bad(rule, "delay wants milliseconds, e.g. delay:50"),
                }
            } else {
                return bad(rule, "action must be panic[:MSG], unknown, or delay:MILLIS");
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

    /// Adds a socket rule: `fault` fires on the `frame`-th frame written
    /// (`None` = any frame) at most `count` times (`None` = unlimited).
    pub fn inject_socket(
        mut self,
        frame: Option<u64>,
        fault: SocketFault,
        count: Option<u64>,
    ) -> Self {
        self.socket_rules.push(SocketRule {
            frame,
            fault,
            remaining: AtomicU64::new(count.unwrap_or(u64::MAX)),
        });
        self
    }

    /// The socket fault to apply while writing the `frame`-th frame, if
    /// a socket rule matches and still has fires left. First matching
    /// rule wins; one fire is consumed.
    pub fn socket_fault(&self, frame: u64) -> Option<SocketFault> {
        self.socket_rules
            .iter()
            .find(|r| r.try_fire(frame))
            .map(|r| r.fault)
    }

    /// Whether any socket rules exist (lets I/O paths skip the
    /// per-frame check entirely in the common case).
    pub fn has_socket_faults(&self) -> bool {
        !self.socket_rules.is_empty()
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
            FaultPlan::parse("panic:boom@counter/inc*1; unknown@*/dec ;delay:5@p/i").unwrap();
        assert_eq!(
            plan.fire("counter", "inc"),
            Some(FaultAction::Panic("boom".into()))
        );
        // The count-1 rule is spent.
        assert_eq!(plan.fire("counter", "inc"), None);
        assert_eq!(plan.fire("anything", "dec"), Some(FaultAction::ForceUnknown));
        assert_eq!(plan.fire("anything", "dec"), Some(FaultAction::ForceUnknown));
        assert_eq!(
            plan.fire("p", "i"),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
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
        for bad in ["panic", "panic@noslash", "explode@a/b", "delay:x@a/b", "unknown@a/b*x"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_socket_rules() {
        let plan =
            FaultPlan::parse("disconnect@1*1; io-error@*; slow-client:20@0").unwrap();
        assert!(plan.has_socket_faults());
        // Frame 0: the slow-client rule is declared after io-error@*,
        // which matches first.
        assert_eq!(plan.socket_fault(0), Some(SocketFault::IoError));
        assert_eq!(plan.socket_fault(1), Some(SocketFault::Disconnect));
        // disconnect@1 is spent after one fire; io-error@* still matches.
        assert_eq!(plan.socket_fault(1), Some(SocketFault::IoError));

        let plan = FaultPlan::parse("slow-client:20@0; disconnect@*").unwrap();
        assert_eq!(
            plan.socket_fault(0),
            Some(SocketFault::SlowClient(Duration::from_millis(20)))
        );
        assert_eq!(plan.socket_fault(7), Some(SocketFault::Disconnect));
        // Job rules are unaffected by socket rules.
        assert_eq!(plan.fire("p", "i"), None);
    }

    #[test]
    fn parse_rejects_malformed_socket_rules() {
        for bad in [
            "disconnect@a/b",
            "disconnect@x",
            "slow-client:x@*",
            "io-error@1*x",
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
